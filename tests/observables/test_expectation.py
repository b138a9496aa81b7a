"""Tests for expectation values on pure and mixed states."""

import numpy as np
import pytest

from repro import Circuit, run
from repro.observables import Pauli, PauliSum, expectation
from repro.sim import DensityMatrix, Statevector
from repro.utils.exceptions import ExecutionError


def _random_batch(rng, n, size):
    """``size`` random normalised ``(2,) * n`` state tensors, stacked."""
    batch = rng.standard_normal((size, 1 << n)) + 1j * rng.standard_normal((size, 1 << n))
    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
    return batch.reshape((size,) + (2,) * n)


def _random_labels(rng, n, count):
    """Random IXYZ strings on ``n`` qubits, plus the all-I and all-Y ones."""
    drawn = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(count)]
    return drawn + ["I" * n, "Y" * n]


class TestStatevectorExpectation:
    def test_z_on_basis_states(self):
        assert expectation(Statevector.from_bitstring("0"), Pauli("Z")) == 1.0
        assert expectation(Statevector.from_bitstring("1"), Pauli("Z")) == -1.0

    def test_x_on_plus_state(self):
        plus = run(Circuit(1).h(0))
        assert expectation(plus, Pauli("X")) == pytest.approx(1.0)
        assert expectation(plus, Pauli("Z")) == pytest.approx(0.0, abs=1e-12)

    def test_identity_string(self):
        state = run(Circuit(2).h(0).cx(0, 1))
        assert expectation(state, Pauli("II")) == pytest.approx(1.0)

    def test_zz_on_bell_state(self):
        bell = run(Circuit(2).h(0).cx(0, 1))
        assert expectation(bell, Pauli("ZZ")) == pytest.approx(1.0)
        assert expectation(bell, Pauli("XX")) == pytest.approx(1.0)
        assert expectation(bell, Pauli("YY")) == pytest.approx(-1.0)
        assert expectation(bell, Pauli("ZI")) == pytest.approx(0.0, abs=1e-12)

    def test_sparse_qubit_targets(self):
        state = run(Circuit(3).x(2))
        assert expectation(state, Pauli("Z", qubits=(2,))) == pytest.approx(-1.0)
        assert expectation(state, Pauli("Z", qubits=(0,))) == pytest.approx(1.0)

    def test_pauli_sum_is_linear(self):
        bell = run(Circuit(2).h(0).cx(0, 1))
        obs = PauliSum([(0.5, Pauli("ZZ")), (2.0, Pauli("XX")), (1.0, Pauli("YY"))])
        assert expectation(bell, obs) == pytest.approx(0.5 + 2.0 - 1.0)

    def test_matches_dense_matrix_expectation(self):
        state = run(Circuit(2).rx(0.3, 0).ry(0.8, 1).cx(0, 1))
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        dense = np.kron(z, x)
        expected = state.expectation(dense, (0, 1)).real
        assert expectation(state, Pauli("ZX")) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_expectation_z(self):
        state = run(Circuit(2).ry(1.1, 0).cx(0, 1))
        assert expectation(state, Pauli("Z", qubits=(1,))) == pytest.approx(
            state.expectation_z(1), abs=1e-12
        )


class TestDensityMatrixExpectation:
    def test_pure_projector_matches_statevector(self):
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.4, 1)
        psi = run(circuit)
        rho = run(circuit, backend="density_matrix")
        for label in ("ZZ", "XX", "XY", "ZI", "IY"):
            assert expectation(rho, Pauli(label)) == pytest.approx(
                expectation(psi, Pauli(label)), abs=1e-10
            )

    def test_maximally_mixed_state(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert expectation(rho, Pauli("Z")) == pytest.approx(0.0, abs=1e-12)
        assert expectation(rho, Pauli("X")) == pytest.approx(0.0, abs=1e-12)

    def test_depolarized_z_shrinks(self):
        from repro.noise import depolarizing

        circuit = Circuit(1).x(0).channel(depolarizing(0.3), (0,))
        rho = run(circuit, backend="density_matrix")
        value = expectation(rho, Pauli("Z"))
        assert -1.0 < value < 0.0  # shrunk toward 0 but still negative


class TestValidation:
    def test_observable_wider_than_state(self):
        state = Statevector.zero_state(1)
        with pytest.raises(ExecutionError, match="the state has only 1 qubit"):
            expectation(state, Pauli("ZZ"))
        with pytest.raises(ExecutionError, match="the state has only 2 qubit"):
            expectation(Statevector.zero_state(2), Pauli("X", (2,)))

    def test_bad_state_type(self):
        with pytest.raises(ExecutionError, match="Statevector"):
            expectation(np.eye(2), Pauli("Z"))

    def test_bad_observable_type(self):
        with pytest.raises(ExecutionError, match="observable"):
            expectation(Statevector.zero_state(1), "Z")


class TestBatchedExpectation:
    def _batch(self, circuits):
        states = [run(c).tensor() for c in circuits]
        return np.stack(states)

    def test_matches_per_element_pauli(self):
        from repro.observables import expectation_batched

        circuits = [
            Circuit(2).h(0),
            Circuit(2).x(0).cx(0, 1),
            Circuit(2).ry(0.4, 0).rz(1.1, 1),
        ]
        batch = self._batch(circuits)
        for observable in (Pauli("ZI"), Pauli("XZ"), Pauli("IY")):
            values = expectation_batched(batch, observable)
            assert values.shape == (3,)
            for i, circuit in enumerate(circuits):
                assert values[i] == pytest.approx(
                    expectation(run(circuit), observable), abs=1e-12
                )

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_per_element_on_random_states(self, n):
        from repro.observables import expectation_batched

        rng = np.random.default_rng(17 + n)
        batch = _random_batch(rng, n, 5)
        for label in _random_labels(rng, n, 6):
            values = expectation_batched(batch, Pauli(label))
            per_element = [expectation(Statevector(psi), Pauli(label)) for psi in batch]
            np.testing.assert_allclose(values, per_element, rtol=0, atol=1e-12)

    def test_matches_per_element_pauli_sum(self):
        from repro.observables import expectation_batched

        observable = PauliSum([(0.5, Pauli("ZZ")), (-1.5, Pauli("XX"))])
        circuits = [Circuit(2).h(0).cx(0, 1), Circuit(2).h(1)]
        values = expectation_batched(self._batch(circuits), observable)
        for i, circuit in enumerate(circuits):
            assert values[i] == pytest.approx(
                expectation(run(circuit), observable), abs=1e-12
            )
        rng = np.random.default_rng(23)
        batch = _random_batch(rng, 4, 5)
        labels = _random_labels(rng, 4, 4)
        observable = PauliSum([(float(rng.uniform(-2, 2)), Pauli(label)) for label in labels])
        values = expectation_batched(batch, observable)
        per_element = [expectation(Statevector(psi), observable) for psi in batch]
        np.testing.assert_allclose(values, per_element, rtol=0, atol=1e-12)

    def test_rejects_non_batch_shapes(self):
        from repro.observables import expectation_batched

        with pytest.raises(ExecutionError, match="batch"):
            expectation_batched(np.zeros((3, 4)), Pauli("Z"))

    def test_rejects_observable_wider_than_batch(self):
        from repro.observables import expectation_batched

        batch = np.zeros((2, 2), dtype=complex)
        batch[:, 0] = 1.0
        with pytest.raises(ExecutionError, match="the batch states have only 1 qubit"):
            expectation_batched(batch.reshape(2, 2), Pauli("ZZ"))

    def test_rejects_bad_observable(self):
        from repro.observables import expectation_batched

        batch = np.zeros((1, 2), dtype=complex)
        batch[:, 0] = 1.0
        with pytest.raises(ExecutionError, match="observable"):
            expectation_batched(batch, "Z")

    def test_real_dtype_batch_promoted_for_y_factors(self):
        from repro.observables import expectation_batched

        # A hand-built real float batch must not zero Y's imaginary entries.
        bell = np.zeros((1, 2, 2))
        bell[0, 0, 0] = bell[0, 1, 1] = 2 ** -0.5
        values = expectation_batched(bell, Pauli("YY"))
        assert values[0] == pytest.approx(-1.0)
