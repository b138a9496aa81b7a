"""Dynamic circuits through ``execute()``: all three backends, one semantics."""

import math
import pickle

import numpy as np
import pytest

from repro import (
    Circuit,
    Instruction,
    NoiseModel,
    Parameter,
    Pauli,
    ReadoutError,
    RunOptions,
    derive_seed,
    ensure_rng,
    execute,
)
from repro.gates import get_gate
from repro.sampling.sampler import counts_from_probabilities
from repro.utils.exceptions import ExecutionError

THETA = 0.731


def _teleportation(theta=THETA):
    """Teleport ``ry(theta)|0>`` from qubit 0 to qubit 2.

    The classical corrections make the protocol branch-independent:
    every measurement outcome pair leaves qubit 2 in the same state, so
    ``<Z_2> = cos(theta)`` exactly — on any backend, any seed.
    """
    return (
        Circuit(3, num_clbits=2)
        .ry(theta, 0)
        .h(1)
        .cx(1, 2)
        .cx(0, 1)
        .h(0)
        .measure(0, 0)
        .measure(1, 1)
        .if_bit(1, 1, Instruction(get_gate("x"), (2,)))
        .if_bit(0, 1, Instruction(get_gate("z"), (2,)))
    )


class TestTeleportation:
    def test_statevector_and_density_agree_exactly(self):
        observable = Pauli("Z", qubits=(2,))
        expected = math.cos(THETA)
        for seed in range(3):
            sv = execute(
                _teleportation(),
                RunOptions(seed=seed, observables=(observable,)),
            )
            assert sv.expectation_values[0] == pytest.approx(expected, abs=1e-9)
        density = execute(
            _teleportation(),
            RunOptions(backend="density_matrix", observables=(observable,)),
        )
        assert density.expectation_values[0] == pytest.approx(expected, abs=1e-9)

    def test_density_counts_match_uniform_branch_distribution(self):
        # The two measured clbits are uniformly random in teleportation.
        result = execute(
            _teleportation(),
            RunOptions(backend="density_matrix", shots=4000, seed=9),
        )
        assert result.counts.num_qubits == 2
        assert set(result.counts) == {"00", "01", "10", "11"}
        for key in result.counts:
            assert result.counts[key] / 4000 == pytest.approx(0.25, abs=0.05)


class TestDensityReadoutRules:
    """Where the density backend applies readout error to dynamic circuits.

    Each test compares the counts with one seeded draw from the exact
    probability vector the rule prescribes: element 0 samples from
    ``derive_seed(seed, 0)``.
    """

    SHOTS = 4000
    SEED = 11
    READOUT = ReadoutError(0.2, 0.3)

    def _expected(self, probs, num_bits):
        rng = ensure_rng(derive_seed(self.SEED, 0))
        return counts_from_probabilities(probs, self.SHOTS, rng, num_bits)

    def _run(self, circuit):
        model = NoiseModel().set_readout_error(self.READOUT)
        return execute(
            circuit,
            RunOptions(
                backend="density_matrix",
                shots=self.SHOTS,
                seed=self.SEED,
                noise_model=model,
            ),
        )

    def test_clbit_counts_come_from_exact_distribution_without_readout(self):
        # clbit 0 reads ry(theta)|0> (1 with probability sin^2(theta/2));
        # clbit 1 reads x|0>, always 1.  Readout error would flip it.
        circuit = (
            Circuit(2, num_clbits=2).ry(THETA, 0).x(1).measure(0, 0).measure(1, 1)
        )
        p1 = math.sin(THETA / 2) ** 2
        exact = np.array([0.0, 1.0 - p1, 0.0, p1])
        counts = self._run(circuit).counts
        assert counts.num_qubits == 2
        assert set(counts) <= {"01", "11"}
        assert counts == self._expected(exact, 2)

    def test_reset_only_circuit_samples_qubits_with_readout(self):
        # No clbits: counts sample the qubits, readout error applied.
        # Qubit 1 is reset to |0>, so "01" and "11" come from readout only.
        circuit = Circuit(2).h(0).x(1).reset(1)
        exact = np.array([0.5, 0.0, 0.5, 0.0])
        corrupted = self.READOUT.apply(exact, 2)
        counts = self._run(circuit).counts
        assert counts.num_qubits == 2
        assert counts.get("01", 0) > 0 and counts.get("11", 0) > 0
        assert counts == self._expected(corrupted / corrupted.sum(), 2)


class TestClassicalMemory:
    def test_memory_records_clbit_strings(self):
        circuit = Circuit(2, num_clbits=2).h(0).measure(0, 0).measure(1, 1)
        result = execute(circuit, RunOptions(shots=20, seed=1, memory=True))
        memory = result.memory
        assert len(memory) == 20
        # Qubit 1 is never touched, so clbit 1 always reads 0; the
        # bitstring convention puts clbit 0 leftmost (like qubit 0).
        assert set(memory) <= {"00", "10"}
        assert result.counts == result.counts.__class__(
            {k: memory.count(k) for k in set(memory)}, num_qubits=2
        )

    def test_result_pickle_round_trip(self):
        circuit = Circuit(1, num_clbits=1).h(0).measure(0, 0)
        result = execute(circuit, RunOptions(shots=16, seed=2, memory=True))
        clone = pickle.loads(pickle.dumps(result))
        assert clone.counts == result.counts
        assert clone.memory == result.memory
        assert clone.metadata == result.metadata

    def test_reset_reinitialises_without_clbits(self):
        # x . reset leaves |0>; no measure => counts sample the qubits.
        circuit = Circuit(1).x(0).reset(0)
        result = execute(circuit, RunOptions(shots=32, seed=0))
        assert dict(result.counts) == {"0": 32}

    def test_seeded_dynamic_run_is_reproducible(self):
        circuit = Circuit(1, num_clbits=1).h(0).measure(0, 0)
        first = execute(circuit, RunOptions(shots=50, seed=123))
        second = execute(circuit, RunOptions(shots=50, seed=123))
        assert first.counts == second.counts


class TestDynamicSweeps:
    def _template(self):
        theta = Parameter("theta")
        return Circuit(1, num_clbits=1).ry(theta, 0).measure(0, 0), theta

    def test_batched_mode_raises_typed_error(self):
        template, theta = self._template()
        with pytest.raises(ExecutionError, match="dynamic"):
            execute(
                template,
                RunOptions(sweep_mode="batched"),
                parameter_sweep=[{theta: 0.1}, {theta: 0.2}],
            )

    def test_auto_mode_falls_back_to_per_element(self):
        template, theta = self._template()
        batch = execute(
            template,
            RunOptions(shots=400, seed=7),
            parameter_sweep=[{theta: 0.0}, {theta: math.pi}],
        )
        # theta=0 always measures 0; theta=pi always measures 1.
        assert dict(batch[0].counts) == {"0": 400}
        assert dict(batch[1].counts) == {"1": 400}


class TestStatevectorDynamicContract:
    def test_counts_have_clbit_register_width(self):
        circuit = Circuit(3, num_clbits=1).h(0).measure(0, 0)
        result = execute(circuit, RunOptions(shots=40, seed=4))
        assert result.counts.num_qubits == 1

    def test_shots_zero_runs_one_seeded_trajectory(self):
        circuit = Circuit(1, num_clbits=1).h(0).measure(0, 0)
        states = [
            execute(circuit, RunOptions(seed=5)).state.data for _ in range(2)
        ]
        np.testing.assert_array_equal(states[0], states[1])

    def test_shot_resolved_dynamic_result_has_no_state(self):
        circuit = Circuit(1, num_clbits=1).h(0).measure(0, 0)
        result = execute(circuit, RunOptions(shots=8, seed=6))
        assert result.state is None

    def test_conditional_branches_on_recorded_outcome(self):
        # measure then flip-if-1: the qubit always ends in |0>, while the
        # clbit keeps the pre-flip outcome.
        circuit = (
            Circuit(1, num_clbits=1)
            .h(0)
            .measure(0, 0)
            .if_bit(0, 1, Instruction(get_gate("x"), (0,)))
        )
        result = execute(
            circuit,
            RunOptions(shots=200, seed=8, observables=(Pauli("Z", qubits=(0,)),)),
        )
        assert set(result.counts) == {"0", "1"}
        assert result.expectation_values[0] == pytest.approx(1.0, abs=1e-9)
