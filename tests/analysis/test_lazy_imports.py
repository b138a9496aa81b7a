"""The zero-cost-off guarantee: default paths never import certify/sanitize.

``sanitize="off"`` / ``certify=False`` promise *zero* added imports on
the hot path.  These tests run real interpreters (subprocesses, so no
pollution from the test session's own imports) and assert the certifier
and sanitizer modules are absent from ``sys.modules`` after exercising
the default execution paths — and present once the feature is switched
on, proving the lazy mechanism actually resolves.  The benchmark
workloads (``repro.bench``) stay out of those paths too.
"""

import subprocess
import sys

import pytest

_GUARDED = ("repro.analysis.certify", "repro.analysis.sanitize", "repro.bench")


def _run(body: str) -> None:
    code = body + (
        "\nimport sys\n"
        f"for name in {_GUARDED!r}:\n"
        "    assert name not in sys.modules, f'{name} imported eagerly'\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, env=None, timeout=120
    )


class TestDefaultPathsStayLean:
    def test_import_facade(self):
        # The facade imports repro.analysis eagerly; the certifier and
        # sanitizer submodules must stay behind the PEP 562 hooks.
        _run("import repro")

    def test_plain_execute(self):
        _run(
            "from repro import Circuit, execute\n"
            "execute(Circuit(2).h(0).cx(0, 1), shots=16, seed=1)\n"
        )

    def test_optimized_execute_without_certify(self):
        _run(
            "from repro import Circuit, execute\n"
            "execute(Circuit(2).h(0).h(0).cx(0, 1), optimize=True)\n"
        )

    def test_transpile_without_certify(self):
        _run(
            "from repro import Circuit, transpile\n"
            "transpile(Circuit(2).h(0).h(0).cx(0, 1))\n"
        )

    def test_explicit_sanitize_off(self):
        _run(
            "from repro import Circuit, RunOptions\n"
            "from repro.sim import run\n"
            "run(Circuit(1).h(0), options=RunOptions(sanitize='off'))\n"
        )


class TestFeaturesResolveLazily:
    def _modules_after(self, body: str) -> set:
        code = body + (
            "\nimport sys\n"
            "print('\\n'.join(sorted(m for m in sys.modules"
            " if m.startswith('repro'))))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return set(out.stdout.split())

    def test_certify_pulls_in_the_certifier_only(self):
        modules = self._modules_after(
            "from repro import Circuit, transpile\n"
            "transpile(Circuit(2).h(0).h(0), certify=True)\n"
        )
        assert "repro.analysis.certify" in modules
        assert "repro.analysis.sanitize" not in modules

    def test_sanitize_pulls_in_the_sanitizer_only(self):
        modules = self._modules_after(
            "from repro import Circuit, RunOptions\n"
            "from repro.sim import run\n"
            "run(Circuit(1).h(0), options=RunOptions(sanitize='strict'))\n"
        )
        assert "repro.analysis.sanitize" in modules
        assert "repro.analysis.certify" not in modules

    def test_facade_lazy_exports_resolve(self):
        # Attribute access through the PEP 562 hook must hand back the
        # real objects (and only then import the module).
        modules = self._modules_after(
            "import repro.analysis as a\n"
            "assert a.certify_rewrite.__module__ == 'repro.analysis.certify'\n"
            "assert a.Sanitizer.__module__ == 'repro.analysis.sanitize'\n"
            "assert a.Certificate is not None\n"
            "assert a.SanitizerWarning is not None\n"
            "assert a.sanitize_batch is not None\n"
        )
        assert "repro.analysis.certify" in modules
        assert "repro.analysis.sanitize" in modules

    def test_unknown_lazy_export_raises_attribute_error(self):
        import repro.analysis

        with pytest.raises(AttributeError, match="no attribute"):
            repro.analysis.does_not_exist
