"""Tests for FuseAdjacentGates, the per-qubit statevector fusion pass."""

import pytest

from repro.circuit import Circuit
from repro.sim import run
from repro.transpile import FuseAdjacentGates
from repro.utils.exceptions import TranspilerError


def _fidelity(a, b):
    return run(a).fidelity(run(b))


class TestFuseAdjacentGates:
    def test_single_qubit_run_fuses_to_one_unitary(self):
        circuit = Circuit(1).h(0).t(0).s(0).rz(0.3, 0)
        fused = FuseAdjacentGates().run(circuit)
        assert len(fused) == 1
        assert fused[0].gate.name == "unitary"
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_h_cx_pair_fuses(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert fused[0].qubits == (0, 1)
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_disjoint_gates_do_not_fuse(self):
        circuit = Circuit(2).h(0).h(1)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert [i.gate.name for i in fused] == ["h", "h"]

    def test_width_cap_respected(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert [i.gate.name for i in fused] == ["cx", "cx"]
        wide = FuseAdjacentGates(max_width=3).run(circuit)
        assert len(wide) == 1
        assert wide[0].qubits == (0, 1, 2)
        assert _fidelity(circuit, wide) == pytest.approx(1.0)

    def test_gate_wider_than_cap_passes_through(self):
        circuit = Circuit(2).h(0).cx(0, 1).h(1)
        fused = FuseAdjacentGates(max_width=1).run(circuit)
        assert [i.gate.name for i in fused] == ["h", "cx", "h"]

    def test_singleton_groups_keep_original_gate(self):
        circuit = Circuit(3).h(0).cx(1, 2)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert [i.gate.name for i in fused] == ["h", "cx"]
        assert fused.instructions == circuit.instructions

    def test_fused_qubit_order_is_first_touch(self):
        # cx(2, 0) then x(2): group qubits should be (2, 0).
        circuit = Circuit(3).cx(2, 0).x(2)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert fused[0].qubits == (2, 0)
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_interleaved_two_qubit_gates(self):
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.7, 1).cx(0, 1).h(0)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert len(fused) == 1
        assert _fidelity(circuit, fused) == pytest.approx(1.0)

    def test_empty_circuit(self):
        assert len(FuseAdjacentGates().run(Circuit(2))) == 0

    def test_invalid_max_width(self):
        with pytest.raises(TranspilerError):
            FuseAdjacentGates(max_width=0)

    def test_fused_matrix_is_unitary(self):
        circuit = Circuit(2).h(0).cx(0, 1).s(1).cx(0, 1)
        fused = FuseAdjacentGates(max_width=2).run(circuit)
        assert all(i.gate.is_unitary() for i in fused)

    def test_repr_mentions_width(self):
        assert "max_width=3" in repr(FuseAdjacentGates(max_width=3))
