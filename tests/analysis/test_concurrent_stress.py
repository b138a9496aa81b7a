"""Certifier + sanitizer determinism under concurrency.

The certificates and sanitizer diagnostics are part of the result
surface, so they inherit the library's core parallelism contract:
worker count and thread interleaving must never change them.  These
tests hammer the plan cache from threads and compare parallel
(``max_workers=2``) against serial execution bitwise — states, counts,
certificates, and diagnostics alike.
"""

import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Circuit, RunOptions, clear_plan_cache, execute
from repro.circuit import Parameter
from repro.gates import get_gate
from repro.gates import registry as gate_registry
from repro.plan import cache as plan_cache
from repro.plan import compile_plan, plan_cache_info
from repro.plan import plan as plan_module
from repro.sim import get_backend


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _template(num_qubits=4):
    theta = Parameter("theta")
    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.h(q)
        circuit.h(q)  # cancellable: gives the certifier real sites
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    circuit.rz(theta, 0)
    return circuit


class TestPlanCacheUnderThreads:
    def test_concurrent_certified_compiles_share_one_plan(self):
        circuit = _template()
        backend = get_backend("statevector")
        options = RunOptions(optimize=True, certify=True)

        def compile_once(_):
            return compile_plan(circuit, backend, options)

        with ThreadPoolExecutor(max_workers=8) as pool:
            plans = list(pool.map(compile_once, range(16)))
        # A thread stampede may compile duplicates (the cache races
        # compile-then-put by design), but it must never corrupt them:
        # every plan carries identical certified certificates...
        reference = [s["certificate"] for s in plans[0].pass_stats]
        assert reference and all(
            c is not None and c["status"] == "certified" for c in reference
        )
        for plan in plans[1:]:
            assert [s["certificate"] for s in plan.pass_stats] == reference
        # ...and once the dust settles the cache serves one instance.
        settled = compile_plan(circuit, backend, options)
        assert compile_plan(circuit, backend, options) is settled

    def test_certified_and_uncertified_plans_are_distinct_entries(self):
        circuit = _template()
        backend = get_backend("statevector")
        plain = compile_plan(
            circuit, backend, RunOptions(optimize=True)
        )
        certified = compile_plan(
            circuit, backend, RunOptions(optimize=True, certify=True)
        )
        assert plain is not certified
        assert all(s["certificate"] is None for s in plain.pass_stats)
        assert all(
            s["certificate"] is not None for s in certified.pass_stats
        )
        assert plan_cache_info()["size"] >= 2

    def test_certificates_identical_across_threads_and_reruns(self):
        circuit = _template()
        backend = get_backend("statevector")
        options = RunOptions(optimize=True, certify=True)

        def certificate_dicts(_):
            plan = compile_plan(circuit, backend, options, use_cache=False)
            return [s["certificate"] for s in plan.pass_stats]

        with ThreadPoolExecutor(max_workers=4) as pool:
            all_runs = list(pool.map(certificate_dicts, range(8)))
        for run_result in all_runs[1:]:
            assert run_result == all_runs[0]


class TestParallelExecutionParity:
    def _sweep(self):
        return [{"theta": 0.1 * i} for i in range(6)]

    def test_states_and_certificates_match_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        circuit = _template()
        common = dict(
            parameter_sweep=self._sweep(),
            sweep_mode="per_element",
            optimize=True,
            certify=True,
            sanitize="warn",
            seed=5,
        )
        serial = execute(circuit, max_workers=1, **common)
        parallel = execute(circuit, max_workers=2, **common)
        ambient = execute(circuit, **common)  # workers from the env var
        for lhs in (parallel, ambient):
            assert len(lhs.results) == len(serial.results)
            for a, b in zip(serial.results, lhs.results):
                np.testing.assert_array_equal(a.state.data, b.state.data)

    def test_sampled_counts_match_serial_with_sanitizer_on(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "strict")
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        serial = execute(
            circuit, shots=256, seed=9, shard_shots=4, max_workers=1
        )
        parallel = execute(
            circuit, shots=256, seed=9, shard_shots=4, max_workers=2
        )
        assert serial.counts == parallel.counts

    def test_batched_sweep_sanitized_matches_per_element(self):
        circuit = _template()
        sweep = self._sweep()
        batched = execute(
            circuit,
            parameter_sweep=sweep,
            sweep_mode="batched",
            sanitize="strict",
        )
        per_element = execute(
            circuit,
            parameter_sweep=sweep,
            sweep_mode="per_element",
            sanitize="strict",
        )
        for a, b in zip(batched.results, per_element.results):
            np.testing.assert_allclose(
                a.state.data, b.state.data, atol=1e-12
            )


class TestGateCachesUnderThreads:
    """The gate cache and the gate-PTM cache are shared by every thread.

    With both caps forced small, every few calls evict; an unlocked
    ``move_to_end``/``popitem`` race then raises ``KeyError`` inside
    ``OrderedDict``.  A tiny switch interval makes the interpreter swap
    threads between those steps.
    """

    CALLS = 3_000
    THREADS = 8

    def test_sixteen_threads_with_tiny_caps_all_survive(self, monkeypatch):
        monkeypatch.setattr(gate_registry, "_GATE_CACHE_MAX", 8)
        monkeypatch.setattr(plan_module, "_GATE_PTM_CACHE_MAX", 8)
        angles = [0.1 * (i + 1) for i in range(12)]
        matrices = [get_gate("ry", theta).matrix for theta in angles]
        errors = []

        def build_gates(offset):
            try:
                for i in range(self.CALLS):
                    theta = angles[(i * 7 + offset) % len(angles)]
                    assert get_gate("rx", theta).params == (theta,)
            except Exception as exc:  # collected, asserted on below
                errors.append(exc)

        def build_ptms(offset):
            try:
                for i in range(self.CALLS):
                    j = (i * 5 + offset) % len(angles)
                    ptm = plan_module._gate_ptm("ry", (angles[j],), matrices[j], 1)
                    assert ptm.shape == (4, 4)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=target, args=(offset,))
            for offset in range(self.THREADS)
            for target in (build_gates, build_ptms)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            gate_registry._GATE_CACHE.clear()
            plan_module._GATE_PTM_CACHE.clear()
        assert errors == []
        assert len(gate_registry._GATE_CACHE) <= 8
        assert len(plan_module._GATE_PTM_CACHE) <= 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_fresh_cache_locks(self):
        # Pool workers are forked while dispatcher threads may hold a
        # cache lock; the child must not inherit it held.
        def locks():
            return (
                gate_registry._GATE_CACHE_LOCK,
                plan_module._GATE_PTM_LOCK,
                plan_cache._LOCK,
            )

        held = locks()
        for lock in held:
            lock.acquire()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns about forking a multi-threaded process.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                fresh = all(lock.acquire(timeout=1.0) for lock in locks())
                os._exit(0 if fresh else 1)
        finally:
            for lock in held:
                lock.release()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
