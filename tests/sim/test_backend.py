"""Backend execution: tensor-contraction correctness vs dense references,
initial states, and the no-dense-matmul scaling guarantee."""

import inspect

import numpy as np
import pytest

import repro.sim.backend as backend_module
from repro.circuit import Circuit
from repro.gates import get_gate
from repro.sim import Statevector, StatevectorBackend, apply_gate_tensor, run
from repro.utils.exceptions import SimulationError


def dense_reference(circuit: Circuit) -> np.ndarray:
    """Build the full 2**n unitary with kron — test oracle only."""
    n = circuit.num_qubits
    total = np.eye(1 << n, dtype=complex)
    for instruction in circuit:
        # Embed the gate by permuting a kron product onto the right axes.
        k = len(instruction.qubits)
        op = np.kron(
            instruction.gate.matrix, np.eye(1 << (n - k), dtype=complex)
        ).reshape((2,) * (2 * n))
        others = [q for q in range(n) if q not in instruction.qubits]
        order = list(instruction.qubits) + others
        perm = np.argsort(order)
        op = np.transpose(op, tuple(perm) + tuple(n + p for p in perm))
        total = op.reshape(1 << n, 1 << n) @ total
    return total


@pytest.mark.parametrize(
    "build",
    [
        lambda: Circuit(1).h(0).t(0).rx(0.3, 0),
        lambda: Circuit(2).h(0).cx(0, 1).rz(0.7, 1),
        lambda: Circuit(2).h(1).cx(1, 0).swap(0, 1),
        lambda: Circuit(3).h(0).cx(0, 2).cz(2, 1).u3(0.1, 0.2, 0.3, 1),
        lambda: Circuit(3).ry(1.1, 2).cx(2, 0).swap(1, 2).t(0),
    ],
)
def test_run_matches_dense_reference(build):
    circuit = build()
    zero = np.zeros(1 << circuit.num_qubits, dtype=complex)
    zero[0] = 1.0
    expected = dense_reference(circuit) @ zero
    got = run(circuit).data
    assert np.allclose(got, expected, atol=1e-10)


def test_apply_gate_tensor_first_target_most_significant():
    # CX with control=1, target=0 on |01> (qubit 1 set) must give |11>.
    state = Statevector.from_bitstring("01").tensor()
    out = apply_gate_tensor(state, get_gate("cx").matrix, (1, 0))
    assert out[1, 1] == pytest.approx(1.0)


def test_bell_state():
    state = run(Circuit(2).h(0).cx(0, 1))
    probs = state.probabilities_dict()
    assert probs == pytest.approx({"00": 0.5, "11": 0.5})


def test_initial_state_bitstring_and_statevector():
    circuit = Circuit(2).x(0)
    assert run(circuit, "10").probability("00") == pytest.approx(1.0)
    again = run(circuit, run(circuit))  # X twice -> back to |00>
    assert again.probability("00") == pytest.approx(1.0)


def test_initial_state_validation():
    circuit = Circuit(2).x(0)
    with pytest.raises(SimulationError):
        run(circuit, "0")
    with pytest.raises(SimulationError):
        run(circuit, Statevector.zero_state(3))
    with pytest.raises(SimulationError):
        run(circuit, 42)
    with pytest.raises(SimulationError):
        run("not a circuit")


def test_circuit_inverse_round_trips_state():
    circuit = Circuit(3).h(0).cx(0, 1).u3(0.3, 0.1, 0.9, 2).cz(1, 2)
    state = run(circuit.compose(circuit.inverse()))
    assert state.probability("000") == pytest.approx(1.0)


def test_complex64_backend():
    backend = StatevectorBackend(dtype=np.complex64)
    state = backend.run(Circuit(2).h(0).cx(0, 1))
    assert state.probability("11") == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(SimulationError):
        StatevectorBackend(dtype=np.float64)


def test_complex64_is_preserved_through_the_hot_path():
    """Half-memory mode must not be silently promoted to complex128."""
    backend = StatevectorBackend(dtype=np.complex64)
    state = backend.run(Circuit(3).h(0).cx(0, 1).rz(0.4, 2))
    assert state.data.dtype == np.complex64
    out = apply_gate_tensor(
        np.zeros((2, 2), dtype=np.complex64), np.eye(2), (0,)
    )
    assert out.dtype == np.complex64


def test_wide_register_proves_no_dense_operator():
    """A 2**18 x 2**18 dense operator would need ~1 TiB; einsum application
    handles 18 qubits in milliseconds."""
    n = 18
    circuit = Circuit(n)
    for q in range(n):
        circuit.h(q)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    state = run(circuit)
    assert np.isclose(np.linalg.norm(state.data), 1.0, atol=1e-8)


def test_hot_path_source_builds_no_dense_operator():
    """The gate-apply hot path must contract tensors, not kron up operators."""
    source = inspect.getsource(backend_module.apply_gate_tensor)
    assert "tensordot" in source
    assert "kron" not in source


class TestSharedRunSignature:
    """Both shipped backends share one run() — the signature is stated once."""

    def test_run_is_the_same_method_object(self):
        from repro.sim import BaseBackend, DensityMatrixBackend

        assert (
            StatevectorBackend.run
            is DensityMatrixBackend.run
            is BaseBackend.run
        )

    def test_signatures_identical(self):
        from repro.sim import DensityMatrixBackend

        assert inspect.signature(StatevectorBackend.run) == inspect.signature(
            DensityMatrixBackend.run
        )

    def test_execute_plan_is_the_same_method_object(self):
        # The acceptance criterion of the plan refactor: both backends
        # evolve states exclusively through one shared plan loop; neither
        # overrides it with a private eager path.
        from repro.sim import BaseBackend, DensityMatrixBackend

        assert (
            StatevectorBackend.execute_plan
            is DensityMatrixBackend.execute_plan
            is BaseBackend.execute_plan
        )

    def test_no_per_instruction_eager_loop_left_in_backends(self):
        # The eager loops are gone from the backend modules: nothing in
        # sim/backend.py or sim/density.py iterates a circuit anymore.
        import repro.sim.density as density_module

        for module in (backend_module, density_module):
            source = inspect.getsource(module)
            assert "for instruction in circuit" not in source
            assert "_execute" not in source

    def test_both_backends_accept_identical_options(self):
        from repro import RunOptions
        from repro.sim import DensityMatrixBackend
        from repro.transpile import FuseAdjacentGates

        options = RunOptions(optimize=True, passes=[FuseAdjacentGates()])
        circuit = Circuit(2).h(0).cx(0, 1)
        psi = StatevectorBackend().run(circuit, options=options)
        rho = DensityMatrixBackend().run(circuit, options=options)
        assert rho.fidelity(psi) == pytest.approx(1.0)

    def test_non_runoptions_object_rejected(self):
        with pytest.raises(SimulationError, match="RunOptions"):
            StatevectorBackend().run(Circuit(1).h(0), options={"optimize": True})


class TestCrossDtypePlanExecution:
    def test_plan_dtype_wins_over_backend_dtype(self):
        # Executing a complex64 plan on a complex128-configured backend
        # must stay in the plan's precision end to end (and vice versa).
        from repro import Circuit, compile_plan

        circuit = Circuit(2).h(0).cx(0, 1)
        half = StatevectorBackend(dtype=np.complex64)
        full = StatevectorBackend()
        half_plan = compile_plan(circuit, half, use_cache=False)
        assert full.execute_plan(half_plan).data.dtype == np.complex64
        full_plan = compile_plan(circuit, full, use_cache=False)
        assert half.execute_plan(full_plan).data.dtype == np.complex128
