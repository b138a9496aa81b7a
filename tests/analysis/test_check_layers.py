"""The AST layering lint in tools/check_layers.py."""

import importlib.util
import pathlib
import sys

import pytest

_TOOL = (
    pathlib.Path(__file__).resolve().parents[2] / "tools" / "check_layers.py"
)


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("check_layers", _TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_layers"] = module
    spec.loader.exec_module(module)
    try:
        yield module
    finally:
        sys.modules.pop("check_layers", None)


class TestLayerResolution:
    def test_longest_prefix_wins(self, lint):
        assert lint.layer_of("repro.execution.options") == (
            "repro.execution.options",
            5,
        )
        assert lint.layer_of("repro.execution.api")[0] == "repro.execution"

    def test_facade_and_cli_are_top(self, lint):
        assert lint.layer_of("repro")[1] == lint.TOP_RANK
        assert lint.layer_of("repro.analysis.__main__")[1] == lint.TOP_RANK

    def test_unknown_module_has_no_rank(self, lint):
        assert lint.layer_of("somewhere.else") is None

    def test_module_name_from_path(self, lint):
        assert (
            lint.module_name(lint.SRC / "repro" / "utils" / "__init__.py")
            == "repro.utils"
        )
        assert (
            lint.module_name(lint.SRC / "repro" / "plan" / "plan.py")
            == "repro.plan.plan"
        )


class TestRepositoryIsClean:
    def test_no_violations_in_src(self, lint):
        assert lint.check() == []

    def test_main_returns_zero(self, lint, capsys):
        assert lint.main([]) == 0
        assert "clean" in capsys.readouterr().out


class TestViolationsAreCaught:
    def _run_on(self, lint, monkeypatch, tmp_path, source):
        package = tmp_path / "repro" / "utils"
        package.mkdir(parents=True)
        (package / "bad.py").write_text(source)
        monkeypatch.setattr(lint, "SRC", tmp_path)
        return lint.check()

    def test_module_level_upward_import(self, lint, monkeypatch, tmp_path):
        violations = self._run_on(
            lint, monkeypatch, tmp_path, "from repro.sim import get_backend\n"
        )
        assert len(violations) == 1
        assert "module-level import" in violations[0]
        assert "repro.sim" in violations[0]

    def test_unwhitelisted_lazy_import(self, lint, monkeypatch, tmp_path):
        source = "def f():\n    from repro.bench import default_workloads\n"
        violations = self._run_on(lint, monkeypatch, tmp_path, source)
        assert len(violations) == 1
        assert "not in the lazy whitelist" in violations[0]

    def test_whitelisted_lazy_import_passes(self, lint, monkeypatch, tmp_path):
        package = tmp_path / "repro" / "circuit"
        package.mkdir(parents=True)
        (package / "ok.py").write_text(
            "def f():\n    from repro.gates import get_gate\n"
        )
        monkeypatch.setattr(lint, "SRC", tmp_path)
        assert lint.check() == []

    def test_downward_import_passes(self, lint, monkeypatch, tmp_path):
        package = tmp_path / "repro" / "plan"
        package.mkdir(parents=True)
        (package / "ok.py").write_text(
            "from repro.circuit import Circuit\n"
            "from repro.utils.exceptions import SimulationError\n"
        )
        monkeypatch.setattr(lint, "SRC", tmp_path)
        assert lint.check() == []

    def test_type_checking_imports_count_as_lazy(
        self, lint, monkeypatch, tmp_path
    ):
        package = tmp_path / "repro" / "circuit"
        package.mkdir(parents=True)
        (package / "typed.py").write_text(
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.gates import Gate\n"
        )
        monkeypatch.setattr(lint, "SRC", tmp_path)
        assert lint.check() == []

    def test_importing_the_facade_is_flagged(
        self, lint, monkeypatch, tmp_path
    ):
        violations = self._run_on(lint, monkeypatch, tmp_path, "import repro\n")
        assert len(violations) == 1
        assert "facade" in violations[0]

    def test_main_reports_violations_nonzero(
        self, lint, monkeypatch, tmp_path, capsys
    ):
        self._run_on(lint, monkeypatch, tmp_path, "from repro.sim import run\n")
        assert lint.main([]) == 1
        assert "violation" in capsys.readouterr().err


class TestDotExport:
    def test_dot_output_is_wellformed(self, lint):
        source = lint.dot()
        assert source.startswith("digraph repro_layers {")
        assert source.rstrip().endswith("}")
        # Every ranked layer appears as a node.
        for layer, rank in lint.RANKS:
            assert f'"{layer}"' in source
            assert f"rank {rank}" in source

    def test_observed_edges_include_known_structure(self, lint):
        edges = lint.collect_edges()
        pairs = {(importer, target) for importer, target, _ in edges}
        # Structural facts of the codebase the graph must show:
        assert ("repro.circuit", "repro.utils") in pairs
        assert ("repro.transpile", "repro.analysis") in pairs  # certify hook
        assert ("repro.sim", "repro.analysis") in pairs  # sanitizer hook

    def test_whitelisted_lazy_edges_are_marked(self, lint):
        source = lint.dot()
        assert (
            '"repro.transpile" -> "repro.analysis" '
            "[style=dashed, color=blue" in source
        )

    def test_module_level_edge_subsumes_lazy(self, lint):
        edges = lint.collect_edges()
        seen = {}
        for importer, target, lazy in edges:
            assert seen.setdefault((importer, target), lazy) == lazy
        # No pair may appear both lazy and eager.
        assert len(seen) == len(edges)

    def test_main_dot_prints_graph_and_exits_zero(self, lint, capsys):
        assert lint.main(["--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_unknown_flag_is_a_usage_error(self, lint, capsys):
        assert lint.main(["--nope"]) == 2
        assert "usage" in capsys.readouterr().err
