"""Tests for the canonical benchmark workloads."""

import numpy as np
import pytest

from repro import Pauli, RunOptions, compile_plan, execute, get_backend, transpile
from repro.bench import (
    brickwork_depolarized,
    default_workloads,
    ghz,
    ghz_depolarizing,
    layered_damped,
    layered_rotations,
    random_dense,
)
from repro.sim import run

SMOKE = default_workloads(smoke=True)
SMOKE_IDS = [f"{w.name}_{w.num_qubits}" for w in SMOKE]
DENSITY_SMOKE = [w for w in SMOKE if w.backend == "density_matrix"]


class TestGhz:
    def test_structure(self):
        circuit = ghz(5)
        assert circuit.num_qubits == 5
        assert circuit.count_ops() == {"h": 1, "cx": 4}

    def test_produces_ghz_state(self):
        probs = run(ghz(4)).probabilities_dict()
        assert probs == pytest.approx({"0000": 0.5, "1111": 0.5})


class TestLayeredRotations:
    def test_deterministic(self):
        a = layered_rotations(5, layers=3, seed=7)
        b = layered_rotations(5, layers=3, seed=7)
        assert a == b

    def test_seed_changes_circuit(self):
        assert layered_rotations(5, seed=1) != layered_rotations(5, seed=2)

    def test_contains_single_qubit_runs(self):
        ops = layered_rotations(4, layers=2).count_ops()
        assert ops["rz"] == 2 * 4 * 2  # two rz per qubit per layer
        assert ops["ry"] == 4 * 2
        assert ops["cx"] > 0

    def test_runs_on_backend(self):
        state = run(layered_rotations(4, layers=2))
        assert state.num_qubits == 4


class TestRandomDense:
    def test_deterministic(self):
        assert random_dense(5, 40, seed=3) == random_dense(5, 40, seed=3)

    def test_gate_count(self):
        assert len(random_dense(6, 50)) == 50

    def test_valid_two_qubit_gates(self):
        for instruction in random_dense(4, 80, seed=5):
            assert len(set(instruction.qubits)) == len(instruction.qubits)


class TestNoisyBuilders:
    def test_ghz_depolarizing_structure(self):
        circuit = ghz_depolarizing(4, p=0.05)
        ops = circuit.count_ops()
        assert ops["h"] == 1
        assert ops["cx"] == 3
        assert ops["depolarizing"] == 1 + 2 * 3  # one per gate-qubit touch
        assert circuit.has_channels()

    def test_ghz_depolarizing_deterministic(self):
        assert ghz_depolarizing(3) == ghz_depolarizing(3)

    def test_layered_damped_structure(self):
        circuit = layered_damped(3, layers=2, gamma=0.1)
        ops = circuit.count_ops()
        assert ops["amplitude_damping"] == 3 * 2  # every qubit, every layer
        assert ops["rz"] == 2 * 3 * 2

    def test_noisy_builders_run_on_density_backend(self):
        state = run(ghz_depolarizing(3), backend="density_matrix")
        assert state.num_qubits == 3
        assert state.purity() < 1.0

    def test_brickwork_depolarized_structure(self):
        circuit = brickwork_depolarized(3, layers=2, p=0.05)
        ops = circuit.count_ops()
        assert ops["rz"] == 3 * 2
        assert ops["ry"] == 3 * 2
        # One channel behind every gate: 2 per single-qubit pair per
        # qubit per layer, plus 2 per brickwork CX.
        assert ops["depolarizing"] == 2 * 3 * 2 + 2 * ops["cx"]
        assert circuit.has_channels()

    def test_brickwork_depolarized_deterministic(self):
        assert brickwork_depolarized(4, layers=2) == brickwork_depolarized(4, layers=2)

    def test_brickwork_depolarized_ptm_matches_density(self):
        circuit = brickwork_depolarized(3, layers=2)
        rho = run(circuit, backend="density_matrix")
        pauli = run(circuit, backend="ptm")
        assert pauli.to_density_matrix() == rho


class TestDefaultWorkloads:
    def test_full_sizes(self):
        workloads = default_workloads()
        statevector_sizes = sorted(
            {w.num_qubits for w in workloads if w.backend is None}
        )
        density_sizes = sorted(
            {w.num_qubits for w in workloads if w.backend == "density_matrix"}
        )
        assert statevector_sizes == [8, 12, 16]
        assert density_sizes == [6, 8]
        assert {w.name for w in workloads} == {
            "ghz",
            "layered_rotations",
            "random_dense",
            "ghz_depolarizing",
            "layered_damped",
            "brickwork_depolarized",
        }

    def test_noisy_workloads_are_labelled(self):
        # Exactly the channel-carrying workloads pin the density backend.
        for workload in default_workloads(smoke=True):
            assert workload.build().has_channels() == (
                workload.backend == "density_matrix"
            )

    def test_smoke_is_smaller(self):
        smoke = default_workloads(smoke=True)
        assert max(w.num_qubits for w in smoke) < 8

    def test_workload_builds_circuit(self):
        workload = default_workloads(smoke=True)[0]
        circuit = workload.build()
        assert circuit.num_qubits == workload.num_qubits
        assert "Workload(" in repr(workload)

    def test_builders_are_independent(self):
        # Late-binding bug guard: each Workload must build its own size.
        for workload in default_workloads(smoke=True):
            assert workload.build().num_qubits == workload.num_qubits


def _z0_run(circuit, backend):
    return execute(
        circuit,
        RunOptions(
            backend=backend,
            shots=1024,
            seed=1234,
            observables=(Pauli("Z", qubits=(0,)),),
        ),
    )


class TestSmokeWorkloadContracts:
    """Each smoke workload, fused at width 2, on its pinned backend.

    1,024 shots at seed 1234, the inputs of CI's former bench-smoke gate.
    ``test_harness.py`` checks the same workloads at 256 shots, and which
    fuse, and that ptm plans are shorter than density plans.
    """

    @pytest.mark.parametrize("workload", SMOKE, ids=SMOKE_IDS)
    def test_fusion_keeps_counts_and_expectation(self, workload):
        """Fused and unfused circuits give equal seeded counts and <Z0>.

        Equal counts are not guaranteed by the arithmetic: numpy's
        ``multinomial`` draws each outcome as a binomial of a conditional
        probability and samples p > 0.5 through its complement, so a
        1-ulp difference around 0.5 can swap two outcomes' counts.  They
        hold for these inputs at seed 1234.  If they stop holding, do not
        re-seed: sampling has to become robust to it (ROADMAP item 8).
        """
        circuit = workload.build()
        fused = transpile(circuit, max_fused_width=2)
        unfused_result = _z0_run(circuit, workload.backend)
        fused_result = _z0_run(fused, workload.backend)
        assert unfused_result.counts == fused_result.counts
        z0 = unfused_result.expectation_values[0]
        assert abs(z0 - fused_result.expectation_values[0]) <= 1e-9
        assert -1.0 - 1e-9 <= z0 <= 1.0 + 1e-9

    @pytest.mark.parametrize("workload", SMOKE, ids=SMOKE_IDS)
    def test_run_matches_uncached_plan_bitwise(self, workload):
        backend = get_backend(workload.backend)
        fused = transpile(workload.build(), max_fused_width=2)
        plan = compile_plan(fused, backend, use_cache=False)
        assert np.array_equal(
            backend.run(fused).data, backend.execute_plan(plan).data
        )

    @pytest.mark.parametrize(
        "workload", DENSITY_SMOKE, ids=[w.name for w in DENSITY_SMOKE]
    )
    def test_ptm_matches_density(self, workload):
        fused = transpile(workload.build(), max_fused_width=2)
        density = _z0_run(fused, "density_matrix")
        ptm = _z0_run(fused, "ptm")
        assert ptm.counts == density.counts
        assert abs(
            ptm.expectation_values[0] - density.expectation_values[0]
        ) <= 1e-9
