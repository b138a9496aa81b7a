"""Process-level helpers: cache isolation, memory, the memcpy and kernel references."""

from __future__ import annotations

import os
import platform
import resource
import time
from typing import Dict, List, Tuple

import numpy as np

import repro
from repro.gates import registry as gate_registry
from repro.plan import clear_plan_cache
from repro.plan import plan as plan_module
from repro.service import pool as pool_module
from repro.service.pool import run_tasks

from perfbench.speed import probe_seconds

#: Process-wide caches besides the plan cache, as ``(module, attribute)``.
#: A cache missing from the running program (renamed or merged by a later
#: change) is skipped: each run is a fresh process anyway, so clearing only
#: keeps repeated setups and the two trace phases equally cold.
_CACHES = (
    (gate_registry, "_GATE_CACHE"),
    (plan_module, "_GATE_PTM_CACHE"),
    (pool_module, "_PLAN_CACHE"),
)


def reset_caches() -> None:
    """Clear every process-wide cache and stop the worker pool, waiting for it."""
    clear_plan_cache()
    for module, attribute in _CACHES:
        cache = getattr(module, attribute, None)
        if cache is not None:
            cache.clear()
    executor = getattr(pool_module, "_POOL", None)
    pool_module.shutdown_pool()
    if executor is not None:
        executor.shutdown(wait=True)


def _peak_kib(delay: float) -> Tuple[int, int]:
    # Sleeping keeps this worker busy so the sibling task lands on another.
    time.sleep(delay)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus each live pool worker.

    Forked workers share pages with the parent until written, so the sum
    counts shared pages more than once: an upper bound.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        seen: Dict[int, int] = {}
        for _ in range(5):
            for pid, peak in run_tasks(_peak_kib, [(0.05,)] * workers, workers):
                seen[pid] = peak
            if len(seen) >= workers:
                break
        kib += sum(seen.values())
    return kib / 1024.0


def memcpy_seconds(nbytes: int, repeats: int = 31) -> float:
    """Median time to copy ``nbytes`` between two preallocated arrays."""
    source = np.ones(max(1, nbytes // 8), dtype=np.float64)
    target = np.empty_like(source)
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(target, source)
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


#: The kernel probe's time at 20 qubits at full speed on the reference host.
REFERENCE_KERNEL_S = 1.25e-2


class KernelProbe:
    """A one-qubit gate contracted onto a fixed state: the statevector backend's step.

    ``np.tensordot`` on the middle axis of a ``(2,) * n`` state, done by
    numpy alone so that a faster ``repro`` cannot change it.  The state
    stays allocated, adding ``16 * 2**n`` bytes to the process's memory.
    """

    def __init__(self, num_qubits: int) -> None:
        self.state = np.full((2,) * num_qubits, 2 ** (-num_qubits / 2), dtype=np.complex128)
        self.gate = np.array([[0.6, 0.8j], [0.8j, 0.6]])
        self.axis = num_qubits // 2

    def __call__(self) -> float:
        """The faster of two contractions."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            np.tensordot(self.gate, self.state, axes=([1], [self.axis]))
            best = min(best, time.perf_counter() - start)
        return best


def worker_probe(workers: int) -> float:
    """Mean :func:`probe_seconds` reading of the pool workers.

    While no pool runs (before a set-up forks it) this process probes
    instead, so the probe does not fork the pool ahead of the timed set-up.
    """
    if getattr(pool_module, "_POOL", None) is None:
        return probe_seconds()
    readings = run_tasks(probe_seconds, [()] * workers, workers)
    return sum(readings) / len(readings)


def environment(blas_threads: int) -> Dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "repro": repro.__version__,
    }
