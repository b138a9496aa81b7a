"""Worker-count invariance: parallel execution is bitwise-identical.

Element and shard seeds derive from positions (element index, shard
index), never from scheduling, so for any fixed options the results of
``max_workers=N`` must equal ``max_workers=1`` — which in turn takes
literally the serial code path.  These tests pin that contract for
sweeps, batches, and sharded shots, on both backends, with and without
noise, plus the compile-once guarantee for parallel sweeps.
"""

import numpy as np
import pytest

from repro import (
    Circuit,
    NoiseModel,
    Parameter,
    Pauli,
    ReadoutError,
    clear_plan_cache,
    depolarizing,
    execute,
    plan_cache_info,
)
from repro.plan import add_lower_hook, remove_lower_hook
from repro.service.pool import resolve_max_workers, run_tasks, shutdown_pool
from repro.utils.exceptions import ParallelExecutionError

WORKERS = 2


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture(autouse=True)
def no_ambient_workers(monkeypatch):
    # These tests compare explicit worker counts against the serial
    # default; an ambient REPRO_MAX_WORKERS (e.g. the CI leg that flips
    # the whole suite parallel) would silently change the "serial" side.
    # Tests that *want* the env var set it themselves, after this runs.
    monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)


@pytest.fixture()
def lowering_counter():
    calls = []
    hook = lambda circuit, plan: calls.append(circuit)  # noqa: E731
    add_lower_hook(hook)
    yield calls
    remove_lower_hook(hook)


def _template(num_qubits: int = 3) -> Circuit:
    theta = Parameter("theta")
    circuit = Circuit(num_qubits).h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.rz(theta, num_qubits - 1)
    return circuit


def _sweep(points: int = 5):
    return [{"theta": 0.3 * index} for index in range(points)]


def _assert_results_equal(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.counts == b.counts
        if a.memory is not None or b.memory is not None:
            assert a.memory == b.memory
        assert a.expectation_values == b.expectation_values
        assert np.array_equal(a.state.tensor(), b.state.tensor())
        assert a.metadata["seed"] == b.metadata["seed"]


class TestSweepParity:
    def test_statevector_sweep_with_shots(self):
        template = _template()
        kwargs = dict(shots=200, seed=11, observables=Pauli("ZZZ"))
        serial = execute(template, parameter_sweep=_sweep(), **kwargs)
        parallel = execute(
            template, parameter_sweep=_sweep(), max_workers=WORKERS, **kwargs
        )
        _assert_results_equal(serial, parallel)
        assert parallel.metadata["workers"] == WORKERS
        assert serial.metadata["workers"] == 1

    def test_density_sweep_with_noise_and_readout(self):
        model = (
            NoiseModel()
            .add_channel(depolarizing(0.03), gates=["h", "cx"])
            .set_readout_error(ReadoutError(0.02, 0.01))
        )
        template = _template()
        kwargs = dict(
            backend="density_matrix", noise_model=model, shots=100, seed=4
        )
        serial = execute(template, parameter_sweep=_sweep(), **kwargs)
        parallel = execute(
            template, parameter_sweep=_sweep(), max_workers=WORKERS, **kwargs
        )
        _assert_results_equal(serial, parallel)
        # An explicit max_workers=1 is the default serial path, bitwise.
        workers1 = execute(template, parameter_sweep=_sweep(), max_workers=1, **kwargs)
        _assert_results_equal(serial, workers1)

    def test_sweep_with_memory(self):
        template = _template()
        kwargs = dict(shots=50, seed=9, memory=True)
        serial = execute(template, parameter_sweep=_sweep(3), **kwargs)
        parallel = execute(
            template, parameter_sweep=_sweep(3), max_workers=WORKERS, **kwargs
        )
        for a, b in zip(serial, parallel):
            assert a.memory == b.memory

    def test_parallel_sweep_compiles_template_exactly_once(
        self, lowering_counter
    ):
        template = _template()
        execute(
            template,
            parameter_sweep=_sweep(6),
            shots=50,
            seed=1,
            max_workers=WORKERS,
        )
        # One lowering in the parent; workers receive the pickled plan
        # and only bind it (binding never fires lower hooks).
        assert len(lowering_counter) == 1
        assert plan_cache_info()["misses"] == 1

    def test_parallel_results_keep_lazy_circuit_field(self):
        template = _template()
        batch = execute(
            template,
            parameter_sweep=_sweep(3),
            shots=20,
            seed=2,
            max_workers=WORKERS,
        )
        bound = batch[1].circuit
        assert not bound.parameters()
        assert bound.num_qubits == template.num_qubits


class TestBatchParity:
    def _circuits(self):
        circuits = []
        for num_qubits in (2, 3, 4):
            circuit = Circuit(num_qubits).h(0)
            for qubit in range(num_qubits - 1):
                circuit.cx(qubit, qubit + 1)
            circuits.append(circuit)
        return circuits

    def test_statevector_batch(self):
        serial = execute(self._circuits(), shots=150, seed=21)
        parallel = execute(
            self._circuits(), shots=150, seed=21, max_workers=WORKERS
        )
        _assert_results_equal(serial, parallel)
        assert parallel.metadata["workers"] == WORKERS

    def test_density_batch_with_noise(self):
        model = NoiseModel().add_channel(depolarizing(0.02), gates=["h"])
        kwargs = dict(
            backend="density_matrix", noise_model=model, shots=80, seed=13
        )
        serial = execute(self._circuits(), **kwargs)
        parallel = execute(self._circuits(), max_workers=WORKERS, **kwargs)
        _assert_results_equal(serial, parallel)


class TestShardedShots:
    def _ghz(self) -> Circuit:
        return Circuit(3).h(0).cx(0, 1).cx(1, 2)

    def test_shard_count_one_is_bitwise_serial(self):
        plain = execute(self._ghz(), shots=500, seed=42)
        sharded = execute(self._ghz(), shots=500, seed=42, shard_shots=1)
        assert plain.counts == sharded.counts

    def test_merged_counts_independent_of_workers(self):
        serial = execute(self._ghz(), shots=1000, seed=42, shard_shots=4)
        parallel = execute(
            self._ghz(), shots=1000, seed=42, shard_shots=4, max_workers=WORKERS
        )
        assert serial.counts == parallel.counts
        assert serial.counts.shots == 1000

    def test_sharded_memory_preserves_shard_order(self):
        serial = execute(
            self._ghz(), shots=64, seed=7, shard_shots=3, memory=True
        )
        parallel = execute(
            self._ghz(),
            shots=64,
            seed=7,
            shard_shots=3,
            memory=True,
            max_workers=WORKERS,
        )
        assert serial.memory == parallel.memory
        assert serial.counts == parallel.counts
        assert len(serial.memory) == 64

    def test_shard_count_is_reproducible(self):
        a = execute(self._ghz(), shots=300, seed=5, shard_shots=4)
        b = execute(self._ghz(), shots=300, seed=5, shard_shots=4)
        assert a.counts == b.counts

    def test_sharding_in_sweep_elements(self):
        template = _template()
        kwargs = dict(shots=120, seed=3, shard_shots=3)
        serial = execute(template, parameter_sweep=_sweep(4), **kwargs)
        parallel = execute(
            template, parameter_sweep=_sweep(4), max_workers=WORKERS, **kwargs
        )
        _assert_results_equal(serial, parallel)


class TestWorkerResolution:
    def test_explicit_value_wins(self):
        assert resolve_max_workers(3) == 3
        assert resolve_max_workers(1) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "4")
        assert resolve_max_workers(None) == 4
        monkeypatch.delenv("REPRO_MAX_WORKERS")
        assert resolve_max_workers(None) == 1

    def test_env_applies_to_execute(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", str(WORKERS))
        batch = execute(
            [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1)], shots=40, seed=1
        )
        assert batch.metadata["workers"] == WORKERS


def _unpicklable_task():  # pragma: no cover - never actually runs
    return None


class TestPoolFailureModes:
    def test_unpicklable_payload_raises_typed_error(self):
        payload = lambda: None  # noqa: E731 - deliberately unpicklable
        with pytest.raises(ParallelExecutionError):
            run_tasks(_unpicklable_task, [(payload,)], WORKERS)
        # The pool survives a pickling failure and runs the next job.
        batch = execute(
            [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1)],
            shots=10,
            seed=1,
            max_workers=WORKERS,
        )
        assert len(batch) == 2

    def test_shutdown_pool_is_idempotent(self):
        shutdown_pool()
        shutdown_pool()
        result = execute(
            [Circuit(2).h(0), Circuit(2).h(0).cx(0, 1)],
            shots=10,
            seed=1,
            max_workers=WORKERS,
        )
        assert len(result) == 2
