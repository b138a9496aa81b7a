"""Tests for the bench harness and its CLI."""

import json
import math
import os
import subprocess
import sys

import pytest

import repro

from repro.bench import SCHEMA_VERSION, Workload, run_suite
from repro.bench.__main__ import main
from repro.bench.workloads import ghz, ghz_depolarizing, layered_rotations

_ROW_KEYS = {
    "name",
    "num_qubits",
    "backend",
    "noise",
    "gates_unfused",
    "gates_fused",
    "depth_unfused",
    "depth_fused",
    "transpile_time_s",
    "plan_compile_ms",
    "run_time_unfused_s",
    "run_time_fused_s",
    "speedup",
    "counts_match",
    "expectation_z0",
    "expectations_match",
    "eager_matches_plan",
    "run_time_ptm_s",
    "ptm_speedup_vs_density",
    "ptm_counts_match",
    "ptm_expectations_match",
    "plan_ops_density",
    "plan_ops_ptm",
    "ptm_fewer_ops",
}

_SWEEP_KEYS = {
    "name",
    "num_qubits",
    "points",
    "parameters",
    "transpile_calls",
    "plan_compile_ms",
    "run_time_batched_s",
    "run_time_per_element_s",
    "batched_speedup",
    "expectations",
    "expectations_match",
    "reproducible",
}

_PARALLEL_SWEEP_KEYS = {
    "name",
    "backend",
    "num_qubits",
    "points",
    "shots",
    "run_time_serial_s",
    "run_time_parallel_s",
    "parallel_speedup",
    "results_match",
    "workers1_matches_serial",
}

_PARALLEL_SHARD_KEYS = {
    "name",
    "num_qubits",
    "shots",
    "shard_shots",
    "run_time_serial_s",
    "run_time_parallel_s",
    "parallel_speedup",
    "counts_match",
    "unsharded_matches_shard1",
}


def _strict_loads(payload: str):
    """json.loads rejecting the non-standard Infinity/NaN tokens."""

    def _reject(token):
        raise ValueError(f"non-standard JSON constant: {token}")

    return json.loads(payload, parse_constant=_reject)


@pytest.fixture(scope="module")
def smoke_report():
    return run_suite(smoke=True, shots=256, repeats=1)


class TestRunSuite:
    def test_schema(self, smoke_report):
        assert smoke_report["schema_version"] == SCHEMA_VERSION == 7
        assert smoke_report["config"]["smoke"] is True
        assert smoke_report["config"]["backend"] == "statevector"
        assert smoke_report["config"]["sweep"] is False
        assert smoke_report["config"]["parallel"] is False
        assert smoke_report["config"]["workers"] == 2
        assert smoke_report["config"]["trajectory"] is False
        assert smoke_report["sweep"] is None
        assert smoke_report["parallel"] is None
        assert smoke_report["trajectory"] is None
        for row in smoke_report["workloads"]:
            assert set(row) == _ROW_KEYS

    def test_json_serialisable(self, smoke_report):
        round_trip = _strict_loads(json.dumps(smoke_report))
        assert round_trip["schema_version"] == SCHEMA_VERSION

    def test_counts_match_everywhere(self, smoke_report):
        assert all(row["counts_match"] for row in smoke_report["workloads"])

    def test_expectations_match_everywhere(self, smoke_report):
        for row in smoke_report["workloads"]:
            assert row["expectations_match"]
            assert -1.0 - 1e-9 <= row["expectation_z0"] <= 1.0 + 1e-9

    def test_sweep_section(self):
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            smoke=True,
            shots=64,
            sweep=True,
        )
        sweep = report["sweep"]
        assert report["config"]["sweep"] is True
        assert set(sweep) == _SWEEP_KEYS
        assert sweep["transpile_calls"] == 1
        assert sweep["reproducible"] is True
        assert sweep["expectations_match"] is True
        assert sweep["plan_compile_ms"] >= 0
        assert sweep["run_time_batched_s"] > 0
        assert sweep["run_time_per_element_s"] > 0
        assert len(sweep["expectations"]) == sweep["points"]
        _strict_loads(json.dumps(report))

    def test_eager_matches_plan_everywhere(self, smoke_report):
        # The refactor invariant, per workload: run() and precompiled-plan
        # execution are one code path, bit for bit.
        for row in smoke_report["workloads"]:
            assert row["eager_matches_plan"] is True

    def test_plan_compile_measured_separately(self, smoke_report):
        # compile_ms and run_ms are split so speedups are attributed
        # honestly; both must be present and non-negative on every row.
        for row in smoke_report["workloads"]:
            assert row["plan_compile_ms"] >= 0
            assert row["transpile_time_s"] >= 0

    def test_sweep_batched_speedup_is_finite_or_null(self):
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            smoke=True,
            shots=16,
            sweep=True,
        )
        speedup = report["sweep"]["batched_speedup"]
        assert speedup is None or (math.isfinite(speedup) and speedup > 0)

    def test_layered_rotations_fuses(self, smoke_report):
        rows = [
            r for r in smoke_report["workloads"] if r["name"] == "layered_rotations"
        ]
        assert rows
        for row in rows:
            assert row["gates_fused"] < row["gates_unfused"]

    def test_explicit_workloads(self):
        report = run_suite(
            workloads=[Workload("ghz", 3, lambda: ghz(3))], shots=64, repeats=1
        )
        assert len(report["workloads"]) == 1
        assert report["workloads"][0]["name"] == "ghz"
        assert report["workloads"][0]["backend"] == "statevector"
        assert report["workloads"][0]["noise"] is None

    def test_timings_positive(self, smoke_report):
        for row in smoke_report["workloads"]:
            assert row["run_time_unfused_s"] > 0
            assert row["run_time_fused_s"] > 0
            assert row["transpile_time_s"] >= 0

    def test_smoke_defaults_to_one_repeat(self):
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))], smoke=True, shots=16
        )
        assert report["config"]["repeats"] == 1

    def test_smoke_repeats_overridable(self):
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            smoke=True,
            shots=16,
            repeats=2,
        )
        assert report["config"]["repeats"] == 2

    def test_non_smoke_defaults_to_three_repeats(self):
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))], shots=16
        )
        assert report["config"]["repeats"] == 3

    def test_zero_fused_time_emits_null_speedup(self, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "_best_time", lambda fn, repeats: 0.0)
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))], shots=16, repeats=1
        )
        row = report["workloads"][0]
        assert row["speedup"] is None
        # The regression this guards: float("inf") serialises as the
        # non-standard ``Infinity`` token and breaks strict JSON parsers.
        payload = json.dumps(report)
        assert "Infinity" not in payload
        assert _strict_loads(payload)["workloads"][0]["speedup"] is None

    def test_speedup_never_non_finite(self, smoke_report):
        for row in smoke_report["workloads"]:
            assert row["speedup"] is None or math.isfinite(row["speedup"])


class TestParallelSection:
    @pytest.fixture(scope="class")
    def parallel_report(self):
        return run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            smoke=True,
            shots=32,
            parallel=True,
            workers=2,
        )

    def test_section_shape(self, parallel_report):
        section = parallel_report["parallel"]
        assert parallel_report["config"]["parallel"] is True
        assert parallel_report["config"]["workers"] == 2
        assert set(section) == {"workers", "cpu_count", "sweep", "sharded_shots"}
        assert section["workers"] == 2
        assert section["cpu_count"] is None or section["cpu_count"] >= 1
        assert set(section["sweep"]) == _PARALLEL_SWEEP_KEYS
        assert set(section["sharded_shots"]) == _PARALLEL_SHARD_KEYS

    def test_parity_booleans_hold(self, parallel_report):
        section = parallel_report["parallel"]
        assert section["sweep"]["results_match"] is True
        assert section["sweep"]["workers1_matches_serial"] is True
        assert section["sharded_shots"]["counts_match"] is True
        assert section["sharded_shots"]["unsharded_matches_shard1"] is True

    def test_timings_and_speedups_sane(self, parallel_report):
        for leg in (
            parallel_report["parallel"]["sweep"],
            parallel_report["parallel"]["sharded_shots"],
        ):
            assert leg["run_time_serial_s"] > 0
            assert leg["run_time_parallel_s"] > 0
            speedup = leg["parallel_speedup"]
            assert speedup is None or (math.isfinite(speedup) and speedup > 0)

    def test_strict_json_round_trip(self, parallel_report):
        payload = json.dumps(parallel_report)
        assert "Infinity" not in payload
        section = _strict_loads(payload)["parallel"]
        assert section["sweep"]["results_match"] is True


class TestDensityWorkloads:
    def test_smoke_suite_includes_density_rows(self, smoke_report):
        density = [
            r for r in smoke_report["workloads"] if r["backend"] == "density_matrix"
        ]
        assert {r["name"] for r in density} == {
            "ghz_depolarizing",
            "layered_damped",
            "brickwork_depolarized",
        }
        for row in density:
            assert row["noise"] is not None
            assert row["counts_match"]

    def test_workload_backend_overrides_suite_default(self):
        report = run_suite(
            workloads=[
                Workload(
                    "ghz_depolarizing",
                    2,
                    lambda: ghz_depolarizing(2),
                    backend="density_matrix",
                    noise="depolarizing(p=0.02)",
                )
            ],
            shots=32,
            repeats=1,
            backend="statevector",
        )
        row = report["workloads"][0]
        assert row["backend"] == "density_matrix"
        assert row["noise"] == "depolarizing(p=0.02)"
        assert row["counts_match"]

    def test_layered_damped_still_fuses(self, smoke_report):
        rows = [r for r in smoke_report["workloads"] if r["name"] == "layered_damped"]
        assert rows
        for row in rows:
            assert row["gates_fused"] < row["gates_unfused"]

    def test_density_width_cap_refuses_wide_workloads(self):
        from repro.utils.exceptions import SimulationError

        with pytest.raises(SimulationError, match="4\\*\\*n"):
            run_suite(
                workloads=[Workload("ghz", 16, lambda: ghz(16))],
                shots=16,
                repeats=1,
                backend="density_matrix",
            )

    def test_backend_instance_is_normalised_to_name(self):
        from repro.sim import DensityMatrixBackend
        from repro.utils.exceptions import SimulationError

        # An instance must hit the same width cap as its name...
        with pytest.raises(SimulationError, match="4\\*\\*n"):
            run_suite(
                workloads=[Workload("ghz", 16, lambda: ghz(16))],
                shots=16,
                repeats=1,
                backend=DensityMatrixBackend(),
            )
        # ...and the report must carry the name (JSON-serialisable), not
        # the object.
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            shots=16,
            repeats=1,
            backend=DensityMatrixBackend(),
        )
        assert report["config"]["backend"] == "density_matrix"
        assert report["workloads"][0]["backend"] == "density_matrix"
        json.dumps(report)

    def test_full_default_suite_respects_density_cap(self):
        from repro.bench.harness import DENSITY_WIDTH_CAP
        from repro.bench.workloads import default_workloads

        for workload in default_workloads():
            if workload.backend == "density_matrix":
                assert workload.num_qubits <= DENSITY_WIDTH_CAP

    def test_gate_noise_model_requires_density_backend(self):
        from repro.noise import NoiseModel, bit_flip
        from repro.utils.exceptions import SimulationError

        model = NoiseModel().add_channel(bit_flip(0.1))
        with pytest.raises(SimulationError, match="density_matrix"):
            run_suite(
                workloads=[Workload("ghz", 2, lambda: ghz(2))],
                shots=16,
                repeats=1,
                noise_model=model,
            )
        # The documented usage: density backend accepts the model (the
        # fused circuit is a different open system, so counts may differ —
        # no assertion on counts_match here).
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            shots=16,
            repeats=1,
            backend="density_matrix",
            noise_model=model,
        )
        assert report["workloads"][0]["backend"] == "density_matrix"
        # The applied model is recorded, both suite-wide and per row.
        assert report["config"]["noise_model"] == "noise_model"
        assert report["workloads"][0]["noise"] == "noise_model"

    def test_named_noise_model_label_combines_with_embedded_noise(self):
        from repro.noise import NoiseModel, bit_flip

        model = NoiseModel("flippy").add_channel(bit_flip(0.05))
        report = run_suite(
            workloads=[
                Workload(
                    "ghz_depolarizing",
                    2,
                    lambda: ghz_depolarizing(2),
                    backend="density_matrix",
                    noise="depolarizing(p=0.02)",
                )
            ],
            shots=16,
            repeats=1,
            noise_model=model,
        )
        assert report["config"]["noise_model"] == "flippy"
        assert report["workloads"][0]["noise"] == "depolarizing(p=0.02) + flippy"

    def test_channel_workload_on_statevector_refused_upfront(self):
        from repro.utils.exceptions import SimulationError

        # No backend pin: a channel-bearing circuit would land on the
        # statevector default — the plan validation must refuse before
        # benching anything.
        with pytest.raises(SimulationError, match="density_matrix"):
            run_suite(
                workloads=[
                    Workload("ghz", 3, lambda: ghz(3)),
                    Workload("noisy", 2, lambda: ghz_depolarizing(2)),
                ],
                shots=16,
                repeats=1,
            )


class TestPTMColumns:
    """Schema-7 PTM race: every density row carries the comparison."""

    def test_ptm_columns_null_on_statevector_rows(self, smoke_report):
        for row in smoke_report["workloads"]:
            if row["backend"] == "density_matrix":
                continue
            assert row["run_time_ptm_s"] is None
            assert row["ptm_speedup_vs_density"] is None
            assert row["ptm_counts_match"] is None
            assert row["ptm_expectations_match"] is None
            assert row["plan_ops_density"] is None
            assert row["plan_ops_ptm"] is None
            assert row["ptm_fewer_ops"] is None

    def test_ptm_equivalence_on_density_rows(self, smoke_report):
        density = [
            r for r in smoke_report["workloads"] if r["backend"] == "density_matrix"
        ]
        assert density
        for row in density:
            assert row["ptm_counts_match"] is True
            assert row["ptm_expectations_match"] is True

    def test_ptm_fuses_through_channels(self, smoke_report):
        # The headline structural claim: PTM lowering folds gate+channel
        # runs into single real ops, so its plans are strictly shorter
        # than the density plans for the same fused circuit.
        for row in smoke_report["workloads"]:
            if row["backend"] != "density_matrix":
                continue
            assert row["plan_ops_ptm"] < row["plan_ops_density"]
            assert row["ptm_fewer_ops"] is True

    def test_ptm_timings_sane(self, smoke_report):
        for row in smoke_report["workloads"]:
            if row["backend"] != "density_matrix":
                continue
            assert row["run_time_ptm_s"] > 0
            speedup = row["ptm_speedup_vs_density"]
            assert speedup is None or (math.isfinite(speedup) and speedup > 0)

    def test_strict_json_round_trip(self, smoke_report):
        payload = json.dumps(smoke_report)
        assert "Infinity" not in payload
        rows = _strict_loads(payload)["workloads"]
        assert any(r["ptm_speedup_vs_density"] is not None for r in rows)


class TestCli:
    def test_main_json_smoke(self, capsys):
        exit_code = main(["--json", "--smoke", "--shots", "64"])
        assert exit_code == 0
        report = _strict_loads(capsys.readouterr().out)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["config"]["repeats"] == 1  # smoke defaults to one repeat

    @pytest.fixture()
    def unmeasured_sweep_speedup(self, monkeypatch):
        # The batched-sweep speed gate reads host timing, which says
        # nothing about the code at smoke size on a shared host.  The
        # in-process leg checks the sweep contract and leaves the gate to
        # test_main_fails_when_batched_sweep_is_slower and CI's bench-smoke.
        import repro.bench.__main__ as cli

        def suite(*args, **kwargs):
            report = run_suite(*args, **kwargs)
            report["sweep"]["batched_speedup"] = None
            return report

        monkeypatch.setattr(cli, "run_suite", suite)

    def test_main_json_smoke_sweep(self, capsys, unmeasured_sweep_speedup):
        # The CI sweep leg, in-process: the schema-3 sweep section must
        # report exactly one transpile for the whole batch.
        exit_code = main(["--json", "--smoke", "--sweep", "--shots", "64"])
        assert exit_code == 0
        report = _strict_loads(capsys.readouterr().out)
        assert report["config"]["sweep"] is True
        assert report["sweep"]["transpile_calls"] == 1
        assert report["sweep"]["reproducible"] is True

    def test_main_fails_when_batched_sweep_is_slower(self, capsys, monkeypatch):
        import repro.bench.__main__ as cli

        def slow_sweep_suite(*args, **kwargs):
            report = run_suite(*args, **kwargs)
            report["sweep"]["batched_speedup"] = 0.5
            return report

        monkeypatch.setattr(cli, "run_suite", slow_sweep_suite)
        exit_code = main(["--smoke", "--sweep", "--shots", "64"])
        assert exit_code == 1
        assert "batched sweep is slower" in capsys.readouterr().err

    @pytest.fixture()
    def one_cpu(self, monkeypatch):
        # The parallel-speedup gate applies on >= 2 CPUs only.  Smoke
        # timings on a shared host say nothing about the code, so these
        # in-process legs check the parity booleans and leave the gate to
        # test_main_fails_when_parallel_is_slower and to CI's bench-smoke.
        import repro.bench.harness as harness

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 1)

    def test_main_json_smoke_parallel(self, capsys, one_cpu):
        # The CI parallel leg, in-process: both legs present, parity
        # booleans green, and the exit code reflects them.
        exit_code = main(
            ["--json", "--smoke", "--parallel", "--workers", "2", "--shots", "64"]
        )
        assert exit_code == 0
        report = _strict_loads(capsys.readouterr().out)
        assert report["config"]["parallel"] is True
        assert report["parallel"]["workers"] == 2
        assert report["parallel"]["sweep"]["results_match"] is True
        assert report["parallel"]["sharded_shots"]["counts_match"] is True

    def test_main_parallel_table_line(self, capsys, one_cpu):
        exit_code = main(["--smoke", "--parallel", "--shots", "64"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "parallel/sweep" in out
        assert "parallel/shards" in out

    def test_main_fails_when_parallel_is_slower(self, capsys, monkeypatch):
        import repro.bench.__main__ as cli

        def slow_parallel_suite(*args, **kwargs):
            report = run_suite(*args, **kwargs)
            report["parallel"]["cpu_count"] = 2
            for leg in ("sweep", "sharded_shots"):
                report["parallel"][leg]["parallel_speedup"] = 0.5
            return report

        monkeypatch.setattr(cli, "run_suite", slow_parallel_suite)
        exit_code = main(["--smoke", "--parallel", "--shots", "64"])
        assert exit_code == 1
        err = capsys.readouterr().err
        assert "parallel sweep is slower than serial" in err
        assert "parallel sharded shots is slower than serial" in err

    def test_main_density_backend_full_size_refused_cleanly(self, capsys):
        # --backend density_matrix without --smoke targets n=16 workloads:
        # the CLI must refuse with a message, not die in np.zeros.
        exit_code = main(["--backend", "density_matrix", "--shots", "16"])
        assert exit_code == 2
        assert "density-matrix" in capsys.readouterr().err

    def test_main_table_output(self, capsys):
        exit_code = main(["--smoke", "--shots", "64"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "workload" in out
        assert "layered_rotations" in out
        assert "density_matrix" in out

    def test_main_writes_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        exit_code = main(["--json", "--smoke", "--shots", "64", "--out", str(out_file)])
        assert exit_code == 0
        capsys.readouterr()
        report = _strict_loads(out_file.read_text())
        assert report["schema_version"] == SCHEMA_VERSION

    def test_module_entry_point(self):
        # The acceptance-criteria invocation, exactly as CI runs it.  The
        # subprocess does not inherit pytest's pythonpath option, so point
        # PYTHONPATH at whatever src directory this repro was imported from.
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.bench", "--json", "--smoke", "--shots", "64"],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        report = _strict_loads(result.stdout)
        layered = [
            r for r in report["workloads"] if r["name"] == "layered_rotations"
        ]
        assert all(r["gates_fused"] < r["gates_unfused"] for r in layered)

    def test_custom_workload_keeps_layered_invariant(self):
        report = run_suite(
            workloads=[
                Workload("layered_rotations", 4, lambda: layered_rotations(4, layers=2))
            ],
            shots=64,
            repeats=1,
        )
        row = report["workloads"][0]
        assert row["gates_fused"] < row["gates_unfused"]


class TestTrajectorySection:
    """The --trajectory leg, shrunk to n=4 so the test stays fast.

    The real leg runs at DENSITY_WIDTH_CAP (n=10, seconds of density
    wall-time per run); monkeypatching the cap keeps the *code path*
    identical while the state sizes stay test-sized.
    """

    @pytest.fixture()
    def small_cap(self, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setattr(harness, "DENSITY_WIDTH_CAP", 4)

    def test_bench_trajectory_rows(self, small_cap):
        from repro.bench.harness import _bench_trajectory

        section = _bench_trajectory(smoke=True, seed=5, repeats=1)
        assert section["trajectories"] == 128
        rows = section["workloads"]
        assert [row["name"] for row in rows] == [
            "ghz_depolarizing_4",
            "layered_damped_4",
        ]
        for row in rows:
            assert row["num_qubits"] == 4
            assert row["agreement"] is True
            assert row["std_error"] >= 0.0
            assert row["run_time_density_s"] > 0.0
            assert row["run_time_trajectory_s"] > 0.0
            assert -1.0 - 1e-9 <= row["expectation_density"] <= 1.0 + 1e-9

    def test_run_suite_trajectory_flag(self, small_cap):
        report = run_suite(
            workloads=[Workload("ghz", 2, lambda: ghz(2))],
            smoke=True,
            shots=16,
            repeats=1,
            trajectory=True,
        )
        assert report["config"]["trajectory"] is True
        section = report["trajectory"]
        assert section is not None
        round_trip = _strict_loads(json.dumps(report))
        assert round_trip["trajectory"]["workloads"]

    def test_trajectory_off_by_default(self, smoke_report):
        assert smoke_report["trajectory"] is None
