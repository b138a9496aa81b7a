"""Tests for DropIdentities and CancelInversePairs."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.gates import unitary_gate
from repro.sim import run
from repro.transpile import CancelInversePairs, DropIdentities
from repro.utils.exceptions import TranspilerError


class TestDropIdentities:
    def test_drops_id_gate_and_zero_rotations(self):
        circuit = Circuit(2)
        circuit._append_std("id", (0,))
        circuit.rz(0.0, 0).rx(0.0, 1).ry(0.0, 1).h(0)
        result = DropIdentities().run(circuit)
        assert [i.gate.name for i in result] == ["h"]

    def test_keeps_non_identities(self):
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.1, 1)
        result = DropIdentities().run(circuit)
        assert len(result) == 3

    def test_global_phase_identity_kept_by_default(self):
        circuit = Circuit(1).rz(2 * np.pi, 0)  # = -I, a pure global phase
        assert len(DropIdentities().run(circuit)) == 1

    def test_global_phase_identity_dropped_when_enabled(self):
        circuit = Circuit(1).rz(2 * np.pi, 0)
        result = DropIdentities(up_to_global_phase=True).run(circuit)
        assert len(result) == 0

    def test_explicit_unitary_identity_dropped(self):
        circuit = Circuit(1).unitary(np.eye(2), [0])
        assert len(DropIdentities().run(circuit)) == 0

    def test_negative_atol_rejected(self):
        with pytest.raises(TranspilerError):
            DropIdentities(atol=-1.0)

    def test_tight_atol_is_absolute(self):
        # Regression: np.allclose's default rtol must not override a tight
        # atol — rz(2e-6) deviates from I by ~1e-6 and must survive.
        circuit = Circuit(1).rz(2e-6, 0)
        assert len(DropIdentities(atol=1e-12).run(circuit)) == 1


class TestCancelInversePairs:
    def test_self_inverse_pairs_cancel(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1).cx(0, 1)
        assert len(CancelInversePairs().run(circuit)) == 0

    def test_registry_inverse_pairs_cancel(self):
        circuit = Circuit(1).s(0)
        circuit._append_std("sdg", (0,))
        circuit.rx(0.4, 0).rx(-0.4, 0)
        assert len(CancelInversePairs().run(circuit)) == 0

    def test_cascading_cancellation(self):
        circuit = Circuit(1).h(0).x(0).x(0).h(0)
        assert len(CancelInversePairs().run(circuit)) == 0

    def test_non_inverse_pairs_survive(self):
        circuit = Circuit(1).h(0).t(0)
        assert len(CancelInversePairs().run(circuit)) == 2

    def test_interposing_gate_on_same_qubit_blocks(self):
        circuit = Circuit(1).h(0).t(0).h(0)
        assert len(CancelInversePairs().run(circuit)) == 3

    def test_disjoint_interposer_commutes_past(self):
        # The x(1) between the two h(0) acts on a disjoint qubit, so the
        # pair still cancels.
        circuit = Circuit(2).h(0).x(1).h(0)
        result = CancelInversePairs().run(circuit)
        assert [i.gate.name for i in result] == ["x"]

    def test_overlapping_two_qubit_gate_blocks(self):
        circuit = Circuit(2).cx(0, 1).h(0).cx(0, 1)
        assert len(CancelInversePairs().run(circuit)) == 3

    def test_same_gate_different_qubit_order_not_cancelled(self):
        # cx(0,1) then cx(1,0) do not compose to identity.
        circuit = Circuit(2).cx(0, 1).cx(1, 0)
        result = CancelInversePairs().run(circuit)
        assert len(result) == 2
        state = run(circuit)
        assert run(result).fidelity(state) == pytest.approx(1.0)

    def test_explicit_unitary_inverse_cancels_numerically(self):
        matrix = np.array([[0, 1j], [1j, 0]])
        circuit = Circuit(1)
        circuit.append(unitary_gate(matrix), (0,))
        circuit.append(unitary_gate(matrix.conj().T), (0,))
        assert len(CancelInversePairs().run(circuit)) == 0

    def test_negative_atol_rejected(self):
        with pytest.raises(TranspilerError):
            CancelInversePairs(atol=-0.1)

    def test_tight_atol_is_absolute(self):
        # Regression: rz(0.5)·rz(-0.5 + 2e-6) is not an inverse pair at
        # atol=1e-12 and must not be cancelled by np.allclose's default rtol.
        circuit = Circuit(1).rz(0.5, 0).rz(-0.5 + 2e-6, 0)
        assert len(CancelInversePairs(atol=1e-12).run(circuit)) == 2

    def test_preserves_semantics_on_partial_cancel(self):
        circuit = Circuit(2).h(0).cx(0, 1).cx(0, 1).t(1)
        result = CancelInversePairs().run(circuit)
        assert [i.gate.name for i in result] == ["h", "t"]
        assert run(result).fidelity(run(circuit)) == pytest.approx(1.0)


_ATOL = 1e-9


def _perturbed(row, col, value, dim=2):
    matrix = np.eye(dim, dtype=complex)
    matrix[row, col] = value
    return matrix


@pytest.mark.parametrize(
    "matrix",
    [
        np.eye(2, dtype=complex),
        _perturbed(0, 1, _ATOL),
        _perturbed(0, 1, -_ATOL),
        _perturbed(0, 1, 1j * _ATOL),
        _perturbed(1, 0, np.nextafter(_ATOL, 1.0)),
        _perturbed(0, 0, 1.0 + _ATOL),
        _perturbed(0, 0, 1.0 - _ATOL),
        _perturbed(1, 1, np.nan),
        _perturbed(1, 1, complex(np.nan, 0.0)),
        _perturbed(0, 1, np.inf),
        _perturbed(0, 1, -np.inf),
        _perturbed(1, 1, complex(1.0, np.inf)),
        _perturbed(2, 3, 0.5 * _ATOL, dim=4),
        -np.eye(2, dtype=complex),
    ],
)
def test_absolute_tolerance_matches_allclose(matrix):
    """The cleanup passes' identity test accepts what np.allclose(rtol=0) does."""
    from repro.transpile.cleanup import _within_atol

    eye = np.eye(matrix.shape[0])
    expected = bool(np.allclose(matrix, eye, rtol=0.0, atol=_ATOL))
    assert _within_atol(matrix, eye, _ATOL) is expected
    assert DropIdentities(atol=_ATOL)._is_droppable(matrix) is expected
    gate = unitary_gate(matrix, validate=False)
    identity = unitary_gate(np.eye(matrix.shape[0]), validate=False)
    with np.errstate(invalid="ignore"):
        inverse = CancelInversePairs(atol=_ATOL)._are_inverse(identity, gate)
    assert inverse is expected
