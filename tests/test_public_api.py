"""The top-level ``repro`` namespace: ``__all__`` matches reality."""

import pytest

import repro


class TestAll:
    def test_every_name_in_all_is_importable(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == [], f"__all__ names not importable: {missing}"

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_public_attributes_are_exported(self):
        # Every public (non-underscore, non-module) attribute bound on the
        # package should be deliberate, i.e. listed in __all__.
        import types

        public = {
            name
            for name in vars(repro)
            if not name.startswith("_")
            and not isinstance(getattr(repro, name), types.ModuleType)
        }
        unexported = public - set(repro.__all__)
        assert unexported == set(), f"public names missing from __all__: {unexported}"

    @pytest.mark.parametrize(
        "name",
        [
            "transpile",
            "PassManager",
            "Pass",
            "FuseAdjacentGates",
            "DropIdentities",
            "CancelInversePairs",
            "unitary_gate",
            "run_suite",
            # noise + multi-backend surface
            "Channel",
            "NoiseModel",
            "ReadoutError",
            "depolarizing",
            "bit_flip",
            "phase_flip",
            "bit_phase_flip",
            "amplitude_damping",
            "phase_damping",
            "DensityMatrix",
            "get_backend",
            "register_backend",
            "available_backends",
            # Pauli-transfer-matrix surface
            "PauliVector",
            # unified execution surface
            "execute",
            "submit",
            "RunOptions",
            "Job",
            "Result",
            "BatchResult",
            "BaseBackend",
            "Parameter",
            "Pauli",
            "PauliSum",
            "expectation",
            # compiled-plan surface
            "CircuitStats",
            "ExecutionPlan",
            "compile_plan",
            "plan_cache_info",
            "clear_plan_cache",
            "run_batched_sweep",
            "expectation_batched",
            # dynamic circuits surface
            "Measure",
            "Reset",
            "Conditional",
            "Circuit",
            "execute_async",
            "ExecutionService",
            "Counts",
            "sample_counts",
            "sample_memory",
        ],
    )
    def test_new_entry_points_exported(self, name):
        assert name in repro.__all__
        assert getattr(repro, name) is not None

    def test_every_registered_backend_class_exported(self):
        # Derived from the registry, not a hard-coded name list: whatever
        # backend registers itself must also export its class here.
        for backend_name in repro.available_backends():
            class_name = type(repro.get_backend(backend_name)).__name__
            assert class_name in repro.__all__, (
                f"backend {backend_name!r} registered but {class_name} is "
                f"not in repro.__all__"
            )

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        for name in repro.__all__:
            assert name in namespace

    def test_subpackage_all_importable(self):
        # NB: resolve through importlib — the attribute ``repro.transpile``
        # is the transpile *function* (it shadows the submodule, just like
        # ``repro.run`` shadows nothing but is a function too).
        import importlib

        for module_name in (
            "repro.transpile",
            "repro.bench",
            "repro.noise",
            "repro.plan",
            "repro.sim",
            "repro.observables",
            "repro.execution",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name} missing"


class TestExceptionHierarchy:
    """The exported exception set IS the defined hierarchy — no dead names.

    The ``CharterError`` regression this guards: an exception class kept
    (and re-exported) long after the subsystem it belonged to vanished.
    Enumerating both directions makes a stale export *and* an unexported
    subsystem error fail loudly.
    """

    def _defined(self):
        import inspect

        from repro.utils import exceptions as exceptions_module

        return {
            name
            for name, obj in vars(exceptions_module).items()
            if inspect.isclass(obj) and issubclass(obj, exceptions_module.ReproError)
        }

    def _exported(self):
        # Judged by what the name *is*, not what it is called: ReadoutError
        # is a noise-model value object, not an exception.
        import inspect

        return {
            name
            for name in repro.__all__
            if inspect.isclass(getattr(repro, name, None))
            and issubclass(getattr(repro, name), Exception)
        }

    def test_exported_exceptions_equal_defined_hierarchy(self):
        assert self._exported() == self._defined()

    def test_utils_reexports_match_hierarchy(self):
        import inspect

        from repro import utils

        exported = {
            name
            for name in utils.__all__
            if inspect.isclass(getattr(utils, name, None))
            and issubclass(getattr(utils, name), Exception)
        }
        assert exported == self._defined()

    def test_every_exception_subclasses_repro_error(self):
        from repro import ReproError

        for name in self._exported():
            exc = getattr(repro, name)
            assert issubclass(exc, ReproError), name

    def test_execution_error_present_charter_error_gone(self):
        assert "ExecutionError" in repro.__all__
        assert "CharterError" not in repro.__all__
        assert not hasattr(repro, "CharterError")
