"""Property tests: plan execution is bitwise-identical to the eager path.

The eager references below replicate the pre-plan per-instruction loops
(matrix lookup + contraction per gate, noise-rule matching per run)
exactly, so `np.array_equal` — not `allclose` — is the bar: compiling
must change *when* the bookkeeping happens, never the arithmetic.
"""

import numpy as np
import pytest

from repro import Circuit, RunOptions, execute, run
from repro.bench.workloads import (
    parameterized_rotations,
    random_dense,
    sweep_bindings,
)
from repro.sim import (
    apply_channel_to_density,
    apply_gate_tensor,
    apply_matrix_to_density,
)
from repro.utils.rng import ensure_rng

SEEDS = (0, 1, 2, 7, 23)


def _eager_statevector(circuit: Circuit) -> np.ndarray:
    """The original StatevectorBackend._execute loop, verbatim."""
    n = circuit.num_qubits
    state = np.zeros((2,) * n, dtype=np.complex128)
    state[(0,) * n] = 1.0
    for instruction in circuit:
        state = apply_gate_tensor(
            state, instruction.operation.matrix, instruction.qubits
        )
    return state.reshape(-1)


def _eager_density(circuit: Circuit, noise_model=None) -> np.ndarray:
    """The original DensityMatrixBackend._execute loop, verbatim."""
    n = circuit.num_qubits
    rho = np.zeros((2,) * (2 * n), dtype=np.complex128)
    rho[(0,) * (2 * n)] = 1.0
    for instruction in circuit:
        if instruction.is_channel:
            rho = apply_channel_to_density(
                rho, instruction.operation.kraus, instruction.qubits, n
            )
        else:
            rho = apply_matrix_to_density(
                rho, instruction.operation.matrix, instruction.qubits, n
            )
            if noise_model is not None:
                for channel, qubits in noise_model.channels_for(instruction):
                    rho = apply_channel_to_density(rho, channel.kraus, qubits, n)
    return rho.reshape(1 << n, 1 << n)


def _random_channel_circuit(num_qubits: int, seed: int) -> Circuit:
    """A seeded random circuit with noise channels sprinkled between gates."""
    from repro.noise import amplitude_damping, bit_flip, depolarizing

    channels = (depolarizing(0.03), bit_flip(0.05), amplitude_damping(0.02))
    base = random_dense(num_qubits, num_gates=5 * num_qubits, seed=seed)
    rng = ensure_rng(seed + 1000)
    circuit = Circuit(num_qubits, name=f"random_noisy_{num_qubits}")
    for instruction in base:
        circuit.append(instruction.operation, instruction.qubits)
        if rng.random() < 0.3:
            channel = channels[int(rng.integers(len(channels)))]
            circuit.channel(channel, (int(rng.integers(num_qubits)),))
    return circuit


class TestStatevectorBitwise:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_circuits(self, seed):
        circuit = random_dense(4, num_gates=30, seed=seed)
        assert np.array_equal(run(circuit).data, _eager_statevector(circuit))

    def test_wide_register(self):
        circuit = random_dense(8, num_gates=60, seed=5)
        assert np.array_equal(run(circuit).data, _eager_statevector(circuit))


class TestDensityBitwise:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_circuits(self, seed):
        circuit = random_dense(3, num_gates=20, seed=seed)
        assert np.array_equal(
            run(circuit, backend="density_matrix").data, _eager_density(circuit)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_channel_circuits(self, seed):
        circuit = _random_channel_circuit(3, seed)
        assert np.array_equal(
            run(circuit, backend="density_matrix").data, _eager_density(circuit)
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_with_noise_model(self, seed):
        from repro.noise import NoiseModel, depolarizing, phase_damping

        model = (
            NoiseModel()
            .add_channel(depolarizing(0.02))
            .add_channel(phase_damping(0.01), gates=["cx", "cz"])
        )
        circuit = random_dense(3, num_gates=20, seed=seed)
        assert np.array_equal(
            run(
                circuit,
                backend="density_matrix",
                options=RunOptions(noise_model=model),
            ).data,
            _eager_density(circuit, model),
        )


class TestBatchedSweepMatchesIndependentRuns:
    @pytest.mark.parametrize("seed", (3, 11))
    def test_states_match_bind_plus_run(self, seed):
        template, parameters = parameterized_rotations(4, layers=2)
        bindings = sweep_bindings(parameters, 6, seed=seed)
        batch = execute(template, parameter_sweep=bindings)
        assert batch.metadata["sweep_mode"] == "batched"
        for point, result in zip(bindings, batch):
            reference = run(template.bind(point))
            assert np.max(np.abs(result.state.data - reference.data)) < 1e-12

    def test_expectations_match_per_element_mode(self):
        from repro import Pauli, PauliSum

        observable = PauliSum([(0.5, Pauli("ZZII")), (1.5, Pauli("XIII"))])
        template, parameters = parameterized_rotations(4, layers=2)
        bindings = sweep_bindings(parameters, 5, seed=9)
        batched = execute(
            template, observables=observable, parameter_sweep=bindings
        )
        per_element = execute(
            template,
            observables=observable,
            parameter_sweep=bindings,
            sweep_mode="per_element",
        )
        assert batched.metadata["sweep_mode"] == "batched"
        assert per_element.metadata["sweep_mode"] == "per_element"
        for a, b in zip(batched.expectation_values, per_element.expectation_values):
            assert a[0] == pytest.approx(b[0], abs=1e-12)
        # A batched re-run reproduces the expectations bitwise.
        again = execute(template, observables=observable, parameter_sweep=bindings)
        assert again.expectation_values == batched.expectation_values

    def test_density_sweep_matches_bind_plus_run(self):
        # Density sweeps take the per-element path off one compiled plan;
        # the result must still match independent bind()+run() bitwise.
        template, parameters = parameterized_rotations(2, layers=1)
        bindings = sweep_bindings(parameters, 4, seed=2)
        batch = execute(
            template, backend="density_matrix", parameter_sweep=bindings
        )
        assert batch.metadata["sweep_mode"] == "per_element"
        for point, result in zip(bindings, batch):
            reference = run(template.bind(point), backend="density_matrix")
            assert np.array_equal(result.state.data, reference.data)

    def test_batched_respects_transpiled_template(self):
        # optimize=True: the batched evolution runs the *fused* template.
        template, parameters = parameterized_rotations(3, layers=2)
        bindings = sweep_bindings(parameters, 4, seed=6)
        batch = execute(template, optimize=True, parameter_sweep=bindings)
        for point, result in zip(bindings, batch):
            reference = run(template.bind(point))
            assert np.max(np.abs(result.state.data - reference.data)) < 1e-10
