"""The bench smoke gates, checked on the library and the speed-floor script.

``repro.bench`` once shipped a harness that ran the smoke workloads,
wrote a JSON report and failed CI when a contract broke or a faster
engine lost its race.  The report and its command line are gone; what
they checked is not.  These tests keep the harness tests' names and
inputs (256 shots, seed 1234, fusion width 2) and check the same
contracts on :func:`repro.execute` and friends directly, and the speed
gates on ``tools/check_speed_floors.py``.  The class names follow the
report sections the checks came from.
"""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

import repro
from repro import (
    Circuit,
    NoiseModel,
    Pauli,
    Result,
    RunOptions,
    bit_flip,
    compile_plan,
    depolarizing,
    execute,
    get_backend,
    transpile,
)
from repro.bench import (
    Workload,
    default_workloads,
    ghz,
    ghz_depolarizing,
    layered_damped,
    layered_rotations,
    parameterized_rotations,
    sweep_bindings,
)
from repro.sim import BaseBackend, DensityMatrixBackend
from repro.transpile import Pass, default_passes
from repro.utils.exceptions import SimulationError

_TOOL = (
    pathlib.Path(__file__).resolve().parents[2]
    / "tools"
    / "check_speed_floors.py"
)

SHOTS = 256
SEED = 1234
Z0 = (Pauli("Z", qubits=(0,)),)
PARALLEL = ("parallel vs serial sweep", "parallel vs serial sharded shots")


@pytest.fixture(scope="module")
def floors():
    spec = importlib.util.spec_from_file_location("check_speed_floors", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_speed_floors"] = module
    spec.loader.exec_module(module)
    try:
        yield module
    finally:
        sys.modules.pop("check_speed_floors", None)


def _names(floors):
    return [name for name, _, _, _ in floors.FLOORS]


def _leg(floors, name):
    return {leg_name: leg for leg_name, _, _, leg in floors.FLOORS}[name]


def _main(floors, monkeypatch, capsys, cpu_count, slow=()):
    """Exit code and printed lines of ``floors.main()``.

    Every ratio sits at its floor, except those named in ``slow`` at 0.5x.
    """
    ratios = {
        name: 0.5 if name in slow else floor for name, floor, _, _ in floors.FLOORS
    }
    monkeypatch.setattr(floors, "measure", lambda: ratios)
    monkeypatch.setattr(floors.os, "cpu_count", lambda: cpu_count)
    code = floors.main()
    return code, capsys.readouterr().out.splitlines()


def _z0_run(circuit, backend) -> Result:
    return execute(
        circuit,
        RunOptions(backend=backend, shots=SHOTS, seed=SEED, observables=Z0),
    )


class Row(NamedTuple):
    workload: Workload
    backend: BaseBackend
    circuit: Circuit
    fused_circuit: Circuit
    unfused: Result
    fused: Result


@pytest.fixture(scope="module")
def smoke_rows():
    """Every smoke workload, unfused and fused, on its pinned backend."""
    rows = []
    for workload in default_workloads(smoke=True):
        backend = get_backend(workload.backend)
        circuit = workload.build()
        fused_circuit = transpile(circuit, max_fused_width=2)
        rows.append(
            Row(
                workload,
                backend,
                circuit,
                fused_circuit,
                _z0_run(circuit, backend),
                _z0_run(fused_circuit, backend),
            )
        )
    return rows


def _density_rows(smoke_rows):
    rows = [row for row in smoke_rows if row.backend.name == "density_matrix"]
    assert rows
    return rows


def _assert_fuses(smoke_rows, name):
    rows = [row for row in smoke_rows if row.workload.name == name]
    assert rows
    for row in rows:
        assert (
            row.fused_circuit.stats().num_instructions
            < row.circuit.stats().num_instructions
        )


class _CountingPass(Pass):
    def __init__(self):
        self.calls = 0

    def run(self, circuit):
        self.calls += 1
        return circuit


class TestRunSuite:
    def test_counts_match_everywhere(self, smoke_rows):
        # Same seed both ways.  Why equal counts hold here but are not
        # guaranteed: TestSmokeWorkloadContracts in test_workloads.py.
        for row in smoke_rows:
            assert row.unfused.counts == row.fused.counts, row.workload

    def test_expectations_match_everywhere(self, smoke_rows):
        for row in smoke_rows:
            z0 = row.unfused.expectation_values[0]
            assert abs(z0 - row.fused.expectation_values[0]) <= 1e-9
            assert -1.0 - 1e-9 <= z0 <= 1.0 + 1e-9

    def test_sweep_section(self):
        template, parameters = parameterized_rotations(4, layers=2)
        bindings = sweep_bindings(parameters, 8, seed=SEED)
        counting = _CountingPass()
        passes = list(default_passes(2)) + [counting]

        def sweep(mode):
            return execute(
                template,
                seed=SEED,
                passes=passes,
                observables=Z0,
                parameter_sweep=bindings,
                sweep_mode=mode,
            )

        batch = sweep("batched")
        assert counting.calls == 1  # one transpile for all 8 points
        assert len(batch) == 8
        per_element = sweep("per_element")
        for a, b in zip(batch.expectation_values, per_element.expectation_values):
            assert abs(a[0] - b[0]) <= 1e-9
        assert sweep("batched").expectation_values == batch.expectation_values

    def test_eager_matches_plan_everywhere(self, smoke_rows):
        # run() and an uncached plan's execution are one code path, bit
        # for bit; here on the unfused circuits, the fused ones are in
        # TestSmokeWorkloadContracts.
        for row in smoke_rows:
            plan = compile_plan(row.circuit, row.backend, use_cache=False)
            assert np.array_equal(
                row.backend.run(row.circuit).data,
                row.backend.execute_plan(plan).data,
            ), row.workload

    def test_sweep_batched_speedup_is_finite_or_null(self, floors):
        ratio = _leg(floors, "batched vs per-element sweep")()
        assert ratio is None or (math.isfinite(ratio) and ratio > 0)

    def test_layered_rotations_fuses(self, smoke_rows):
        _assert_fuses(smoke_rows, "layered_rotations")

    def test_zero_fused_time_emits_null_speedup(self, floors, monkeypatch):
        # A fast side that measures 0 s gives no ratio, never Infinity.
        monkeypatch.setattr(floors, "_timed", lambda fn: 0.0)
        assert floors.race(lambda: None, lambda: None) is None


class TestParallelSection:
    def test_parity_booleans_hold(self):
        template, parameters = parameterized_rotations(6, layers=2)
        bindings = sweep_bindings(parameters, 8, seed=SEED)
        model = NoiseModel().add_channel(depolarizing(0.02))

        def sweep(max_workers):
            return execute(
                template,
                backend="density_matrix",
                noise_model=model,
                shots=512,
                seed=SEED,
                parameter_sweep=bindings,
                sweep_mode="per_element",
                max_workers=max_workers,
            )

        serial = sweep(None)
        for workers in (1, 2):
            for a, b in zip(serial, sweep(workers)):
                assert a.counts == b.counts
                assert a.expectation_values == b.expectation_values
                assert np.array_equal(a.state.tensor(), b.state.tensor())

        circuit = ghz(10)

        def sample(max_workers, shard_shots):
            return execute(
                circuit,
                shots=32768,
                seed=SEED,
                memory=True,
                shard_shots=shard_shots,
                max_workers=max_workers,
            )

        sharded_serial, sharded_parallel = sample(1, 4), sample(2, 4)
        assert sharded_serial.counts == sharded_parallel.counts
        assert sharded_serial.memory == sharded_parallel.memory
        assert sample(None, 0).counts == sample(None, 1).counts

    def test_timings_and_speedups_sane(self, floors):
        for name in PARALLEL:
            ratio = _leg(floors, name)()
            assert ratio is not None, name
            assert math.isfinite(ratio) and ratio > 0, (name, ratio)


class TestDensityWorkloads:
    def test_smoke_suite_includes_density_rows(self, smoke_rows):
        density = _density_rows(smoke_rows)
        assert {row.workload.name for row in density} == {
            "ghz_depolarizing",
            "layered_damped",
            "brickwork_depolarized",
        }
        for row in density:
            assert row.circuit.has_channels()
            assert row.unfused.counts == row.fused.counts

    def test_layered_damped_still_fuses(self, smoke_rows):
        _assert_fuses(smoke_rows, "layered_damped")

    def test_full_default_suite_respects_density_cap(self):
        # Mixed states cost O(4**n): past n = 10 a single density run
        # takes seconds and hundreds of MB per contraction temporary.
        for workload in default_workloads():
            if workload.backend == "density_matrix":
                assert workload.num_qubits <= 10, workload

    def test_backend_instance_is_normalised_to_name(self):
        result = execute(ghz(2), backend=DensityMatrixBackend(), shots=16)
        assert result.metadata["backend"] == "density_matrix"

    def test_gate_noise_model_requires_density_backend(self):
        model = NoiseModel().add_channel(bit_flip(0.1))
        with pytest.raises(SimulationError, match="density_matrix"):
            execute(ghz(2), shots=16, noise_model=model)
        result = execute(
            ghz(2), backend="density_matrix", shots=16, noise_model=model
        )
        assert sum(result.counts.values()) == 16

    def test_channel_workload_on_statevector_refused_upfront(self):
        # The whole batch is refused, not only its channel-carrying circuit.
        with pytest.raises(SimulationError, match="density_matrix"):
            execute([ghz(3), ghz_depolarizing(2)], shots=16)


class TestPTMColumns:
    """The ptm engine on the fused density workloads."""

    def test_ptm_equivalence_on_density_rows(self, smoke_rows):
        for row in _density_rows(smoke_rows):
            ptm = _z0_run(row.fused_circuit, "ptm")
            assert ptm.counts == row.fused.counts
            assert (
                abs(ptm.expectation_values[0] - row.fused.expectation_values[0])
                <= 1e-9
            )

    def test_ptm_fuses_through_channels(self, smoke_rows):
        # PTM lowering folds gate+channel runs into single real ops, so
        # its plans are strictly shorter than the density plans.
        for row in _density_rows(smoke_rows):
            density = compile_plan(row.fused_circuit, row.backend, use_cache=False)
            ptm = compile_plan(row.fused_circuit, "ptm", use_cache=False)
            assert len(ptm.ops) < len(density.ops), row.workload

    def test_ptm_timings_sane(self, floors):
        ratio = _leg(floors, "ptm vs density")()
        assert ratio is not None and math.isfinite(ratio) and ratio > 0


class TestCli:
    """The floor script's exit code and its one line per floor."""

    def test_main_fails_when_batched_sweep_is_slower(
        self, floors, monkeypatch, capsys
    ):
        slow = ("batched vs per-element sweep",)
        code, lines = _main(floors, monkeypatch, capsys, 2, slow)
        assert code == 1
        assert "batched vs per-element sweep: 0.50x (floor 1.0x) FAIL" in lines

    def test_main_fails_when_parallel_is_slower(self, floors, monkeypatch, capsys):
        code, lines = _main(floors, monkeypatch, capsys, 2, PARALLEL)
        assert code == 1
        assert [line for line in lines if line.endswith("FAIL")] == [
            f"{name}: 0.50x (floor 0.9x) FAIL" for name in PARALLEL
        ]

    def test_main_parallel_table_line(self, floors, monkeypatch, capsys):
        # On one CPU the parallel floors are shown but cannot fail the run.
        code, lines = _main(floors, monkeypatch, capsys, 1, PARALLEL)
        assert code == 0
        assert lines[2:] == [
            f"{name}: 0.50x (floor 0.9x) skipped on 1 CPUs" for name in PARALLEL
        ]

    def test_main_table_output(self, floors, monkeypatch, capsys):
        code, lines = _main(floors, monkeypatch, capsys, 2)
        assert code == 0
        assert [line.split(":")[0] for line in lines] == _names(floors)
        assert all(line.endswith(" ok") for line in lines)

    def test_module_entry_point(self, floors):
        # The script exactly as CI runs it, in a fresh interpreter.  The
        # verdicts depend on host timing, so only their consistency with
        # the exit code is checked here.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, str(_TOOL)],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert "Traceback" not in result.stderr, result.stderr
        lines = result.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == _names(floors)
        failed = any(line.endswith(" FAIL") for line in lines)
        assert result.returncode == (1 if failed else 0)

    def test_custom_workload_keeps_layered_invariant(self):
        circuit = layered_rotations(4, layers=2)
        fused = transpile(circuit, max_fused_width=2)
        assert fused.stats().num_instructions < circuit.stats().num_instructions


class TestTrajectorySection:
    def test_bench_trajectory_rows(self):
        # Monte-Carlo trajectories against exact density evolution on the
        # two noisy families, within five standard errors (floor 1e-3).
        for circuit in (ghz_depolarizing(4), layered_damped(4, layers=2)):
            exact = execute(
                circuit, backend="density_matrix", observables=Z0
            ).expectation_values[0]
            trajectory = execute(
                circuit, backend="trajectory", shots=128, seed=5, observables=Z0
            )
            std_error = trajectory.metadata["expectation_std"][0]
            assert std_error >= 0.0
            assert -1.0 - 1e-9 <= exact <= 1.0 + 1e-9
            assert abs(trajectory.expectation_values[0] - exact) <= 5 * max(
                std_error, 1e-3
            ), circuit.name
