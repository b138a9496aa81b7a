"""Tests for the backend registry and the unified run() entry point."""

import numpy as np
import pytest

import repro.sim.registry as registry_module

from repro.circuit import Circuit
from repro.sim import (
    DensityMatrix,
    DensityMatrixBackend,
    Statevector,
    StatevectorBackend,
    available_backends,
    get_backend,
    register_backend,
    run,
)
from repro.utils.exceptions import SimulationError


class TestGetBackend:
    def test_default_is_statevector(self):
        assert get_backend().name == "statevector"
        assert isinstance(get_backend(), StatevectorBackend)

    def test_lookup_by_name(self):
        assert isinstance(get_backend("statevector"), StatevectorBackend)
        assert isinstance(get_backend("density_matrix"), DensityMatrixBackend)

    def test_lookup_is_case_insensitive(self):
        assert get_backend("STATEVECTOR") is get_backend("statevector")

    def test_mixed_case_lookup_shares_the_instance(self):
        assert get_backend("StateVector") is get_backend("statevector")
        assert get_backend("Density_Matrix") is get_backend("density_matrix")

    def test_instances_are_shared(self):
        assert get_backend("statevector") is get_backend("statevector")

    def test_instance_passes_through(self):
        backend = StatevectorBackend(dtype=np.complex64)
        assert get_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(SimulationError, match="available"):
            get_backend("tensor_network")

    def test_unknown_name_message_lists_available_backends(self):
        with pytest.raises(SimulationError) as excinfo:
            get_backend("tensor_network")
        message = str(excinfo.value)
        assert "tensor_network" in message
        for name in available_backends():
            assert name in message

    def test_unresolvable_object(self):
        with pytest.raises(SimulationError):
            get_backend(42)


class TestRegisterBackend:
    def test_duplicate_name_rejected(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("statevector", StatevectorBackend)

    def test_duplicate_rejected_after_instantiation(self):
        # Force the lazy factory to have run, then try to re-register:
        # the live instance must survive the rejected attempt untouched.
        instance = get_backend("statevector")
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("statevector", lambda: StatevectorBackend())
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("STATEVECTOR", StatevectorBackend)  # case-folded
        assert get_backend("statevector") is instance

    def test_non_callable_factory_rejected(self):
        with pytest.raises(SimulationError):
            register_backend("broken", "not callable")

    def test_custom_backend_registers_and_resolves(self, monkeypatch):
        # Isolate the registry so the test backend does not leak into the
        # process-wide namespace.
        monkeypatch.setattr(
            registry_module, "_FACTORIES", dict(registry_module._FACTORIES)
        )
        monkeypatch.setattr(
            registry_module, "_INSTANCES", dict(registry_module._INSTANCES)
        )

        class EchoBackend(StatevectorBackend):
            name = "echo"

            def run(self, circuit, initial_state=None, options=None):
                # Receives the whole RunOptions.
                assert options is not None and not options.optimize
                return Statevector.zero_state(circuit.num_qubits)

        register_backend("echo", EchoBackend)
        assert "echo" in available_backends()
        state = run(Circuit(2).h(0), backend="echo")
        assert state == Statevector.zero_state(2)

    def test_available_backends_sorted(self):
        names = available_backends()
        assert list(names) == sorted(names)
        assert {"statevector", "density_matrix"} <= set(names)


class TestUnifiedRun:
    def test_run_default_backend(self):
        state = run(Circuit(1).h(0))
        assert isinstance(state, Statevector)

    def test_run_density_backend(self):
        state = run(Circuit(1).h(0), backend="density_matrix")
        assert isinstance(state, DensityMatrix)

    def test_run_with_backend_instance(self):
        backend = DensityMatrixBackend(dtype=np.complex64)
        state = run(Circuit(1).h(0), backend=backend)
        assert state.data.dtype == np.complex64

    def test_run_forwards_optimize(self):
        circuit = Circuit(1).rz(0.5, 0).rz(-0.5, 0)
        from repro import RunOptions

        assert run(circuit, options=RunOptions(optimize=True)) == run(circuit)
