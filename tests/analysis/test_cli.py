"""``python -m repro.analysis`` CLI: exit codes and output formats."""

import json

import repro.analysis.__main__ as cli


class TestMain:
    def test_smoke_run_is_clean_and_exits_zero(self, capsys):
        assert cli.main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "ghz" in out
        assert "0 error(s)" in out

    def test_json_output_parses(self, capsys):
        assert cli.main(["--smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_errors"] == 0
        names = {row["name"] for row in payload["workloads"]}
        assert "parameterized_rotations" in names
        assert all("diagnostics" in row for row in payload["workloads"])

    def test_errors_exit_nonzero(self, monkeypatch, capsys):
        def fake_collect(smoke, backend, context_kwargs):
            return [
                {
                    "name": "broken",
                    "num_qubits": 2,
                    "backend": "statevector",
                    "plan_ops": 1,
                    "errors": 1,
                    "warnings": 0,
                    "infos": 0,
                    "diagnostics": [
                        {
                            "severity": "error",
                            "code": "plan-shape-mismatch",
                            "message": "bad tensor",
                            "site": 0,
                            "scope": "plan",
                        }
                    ],
                }
            ]

        monkeypatch.setattr(cli, "_collect", fake_collect)
        assert cli.main([]) == 1
        captured = capsys.readouterr()
        assert "plan-shape-mismatch" in captured.out
        assert "1 error(s)" in captured.err

    def test_strict_fails_on_warnings(self, monkeypatch, capsys):
        def fake_collect(smoke, backend, context_kwargs):
            row = {
                "name": "sloppy",
                "num_qubits": 2,
                "backend": "statevector",
                "plan_ops": 1,
                "errors": 0,
                "warnings": 1,
                "infos": 0,
                "diagnostics": [
                    {
                        "severity": "warning",
                        "code": "unused-qubit",
                        "message": "qubit 1 is never used",
                        "site": None,
                        "scope": "circuit",
                    }
                ],
            }
            return [row]

        monkeypatch.setattr(cli, "_collect", fake_collect)
        assert cli.main([]) == 0  # warnings alone pass by default
        assert cli.main(["--strict"]) == 1
        assert "warning(s)" in capsys.readouterr().err

    def test_backend_override(self, capsys):
        assert cli.main(["--smoke", "--backend", "statevector", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Workloads that pin a backend keep it; unpinned ones use the flag.
        backends = {row["backend"] for row in payload["workloads"]}
        assert "statevector" in backends
        assert "density_matrix" in backends


class TestFilterFlags:
    def test_select_restricts_codes(self, capsys):
        assert cli.main(["--smoke", "--select", "unused-qubit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {
            d["code"]
            for row in payload["workloads"]
            for d in row["diagnostics"]
        }
        assert codes <= {"unused-qubit"}

    def test_severity_override_can_gate_the_run(self, capsys):
        # Demoting everything to info leaves zero errors/warnings...
        assert (
            cli.main(
                ["--smoke", "--strict", "--severity", "unused-qubit=info"]
            )
            == 0
        )
        capsys.readouterr()

    def test_malformed_severity_is_a_usage_error(self):
        import pytest

        with pytest.raises(SystemExit, match="CODE=LEVEL"):
            cli.main(["--severity", "unused-qubit"])


class TestCertifyMode:
    def test_certify_smoke_is_clean_and_exits_zero(self, capsys):
        assert cli.main(["--certify", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "0 failure(s)" in out
        # The dynamic-op circuit always rides along.
        assert "dynamic_feedback" in out

    def test_certify_json_covers_all_families(self, capsys):
        assert cli.main(["--certify", "--smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 0
        names = {row["name"] for row in payload["workloads"]}
        assert {
            "ghz",
            "layered_rotations",
            "random_dense",
            "ghz_depolarizing",  # channel circuits certify too
            "layered_damped",
            "parameterized_rotations",
            "dynamic_feedback",
        } <= names
        for row in payload["workloads"]:
            assert row["certified"] is True, row
            # The no-dense-2^n acceptance bound: supports stay far
            # below the register width on every workload.
            assert row["max_support"] <= 4, row

    def test_certify_fuses_at_the_width_execute_runs(self, capsys):
        # Statevector rows fuse at PURE_FUSE_WIDTH, as compile_plan
        # does; density-pinned rows keep transpile()'s default of 2.
        assert cli.main(["--certify", "--smoke", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["workloads"]
        support = {(row["name"], row["num_qubits"]): row["max_support"] for row in rows}
        assert support[("layered_rotations", 6)] == 4
        assert support[("dynamic_feedback", 4)] == 4
        assert support[("layered_damped", 4)] == 2

    def test_certify_failure_exits_nonzero(self, monkeypatch, capsys):
        def fake_certify(smoke):
            return [
                {
                    "name": "broken",
                    "num_qubits": 2,
                    "passes": 1,
                    "sites": 1,
                    "max_support": 1,
                    "max_deviation": 1.0,
                    "certified": False,
                    "failure": "pass 'Bad' failed certification: "
                    "error[certify-not-equivalent] @ instruction 0: nope",
                    "certificates": [],
                }
            ]

        monkeypatch.setattr(cli, "_collect_certify", fake_certify)
        assert cli.main(["--certify"]) == 1
        captured = capsys.readouterr()
        assert "certify-not-equivalent" in captured.out
        assert "certification failed" in captured.err
