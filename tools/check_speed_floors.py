#!/usr/bin/env python
"""Speed floors: each faster engine or mode must not lose to its baseline.

Four races, each timing a fast side against a slow side on the same
inputs, with the ratio ``slow / fast`` held to a floor:

``ptm vs density``
    Every density-matrix workload of ``default_workloads(smoke=True)``,
    fused with ``transpile(max_fused_width=2)`` and lowered to uncached
    plans, run through ``execute_plan`` on ``ptm`` and on
    ``density_matrix``.  The ratio is the smallest over the workloads.
    Floor 1.0: fusing noise into gates must beat Kraus evolution.
``batched vs per-element sweep``
    ``parameterized_rotations(4, layers=2)`` over 8 seeded bindings with
    ``<Z0>``, on a warm plan cache.  Floor 1.0.
``parallel vs serial sweep``
    ``parameterized_rotations(6, layers=2)`` over 8 bindings on
    ``density_matrix`` with ``depolarizing(0.02)`` gate noise and 512
    shots, per element, on a warm pool: ``max_workers`` 2 against 1.
    Floor 0.9.
``parallel vs serial sharded shots``
    A 10-qubit GHZ, 32,768 shots with memory in 4 shards:
    ``max_workers`` 2 against 1.  Floor 0.9.

Each side runs once untimed, then the sides alternate and each keeps
its best of 5.  The parallel floors apply only when ``os.cpu_count()``
reports at least 2 CPUs; one core cannot be expected to go faster.  A
ratio is ``None`` when the fast side measured 0 s, and passes.

Usage (no arguments)::

    PYTHONPATH=src python tools/check_speed_floors.py

Prints one line per floor and exits 1 if any floor fails.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro import Circuit, NoiseModel, Pauli, compile_plan, depolarizing, execute, get_backend
from repro.bench import default_workloads, ghz, parameterized_rotations, sweep_bindings
from repro.transpile import default_passes, transpile

SEED = 1234
REPEATS = 5


def _timed(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def race(slow: Callable[[], object], fast: Callable[[], object]) -> Optional[float]:
    """``slow / fast``: best of :data:`REPEATS` each, alternating, after one warm run."""
    slow()
    fast()
    slow_best = fast_best = float("inf")
    for _ in range(REPEATS):
        slow_best = min(slow_best, _timed(slow))
        fast_best = min(fast_best, _timed(fast))
    return slow_best / fast_best if fast_best > 0 else None


def _ptm_race(circuit: Circuit) -> Optional[float]:
    density, ptm = get_backend("density_matrix"), get_backend("ptm")
    fused = transpile(circuit, max_fused_width=2)
    density_plan = compile_plan(fused, density, use_cache=False)
    ptm_plan = compile_plan(fused, ptm, use_cache=False)
    return race(
        lambda: density.execute_plan(density_plan),
        lambda: ptm.execute_plan(ptm_plan),
    )


def _ptm_vs_density() -> Optional[float]:
    ratios = [
        _ptm_race(workload.build())
        for workload in default_workloads(smoke=True)
        if workload.backend == "density_matrix"
    ]
    measured = [ratio for ratio in ratios if ratio is not None]
    return min(measured) if measured else None


def _batched_vs_per_element() -> Optional[float]:
    template, parameters = parameterized_rotations(4, layers=2)
    bindings = sweep_bindings(parameters, 8, seed=SEED)
    passes = default_passes(2)

    def sweep(mode: str) -> Callable[[], object]:
        return lambda: execute(
            template,
            seed=SEED,
            passes=passes,
            observables=(Pauli("Z", qubits=(0,)),),
            parameter_sweep=bindings,
            sweep_mode=mode,
        )

    return race(sweep("per_element"), sweep("batched"))


def _parallel_sweep() -> Optional[float]:
    template, parameters = parameterized_rotations(6, layers=2)
    bindings = sweep_bindings(parameters, 8, seed=SEED)
    model = NoiseModel().add_channel(depolarizing(0.02))

    def sweep(workers: int) -> Callable[[], object]:
        return lambda: execute(
            template,
            backend="density_matrix",
            noise_model=model,
            shots=512,
            seed=SEED,
            parameter_sweep=bindings,
            sweep_mode="per_element",
            max_workers=workers,
        )

    return race(sweep(1), sweep(2))


def _parallel_sharded_shots() -> Optional[float]:
    circuit = ghz(10)

    def shots(workers: int) -> Callable[[], object]:
        return lambda: execute(
            circuit,
            shots=32768,
            seed=SEED,
            memory=True,
            shard_shots=4,
            max_workers=workers,
        )

    return race(shots(1), shots(2))


#: (name, floor, needs at least 2 CPUs, leg), in the order they are printed.
FLOORS: Tuple[Tuple[str, float, bool, Callable[[], Optional[float]]], ...] = (
    ("ptm vs density", 1.0, False, _ptm_vs_density),
    ("batched vs per-element sweep", 1.0, False, _batched_vs_per_element),
    ("parallel vs serial sweep", 0.9, True, _parallel_sweep),
    ("parallel vs serial sharded shots", 0.9, True, _parallel_sharded_shots),
)


def measure() -> Dict[str, Optional[float]]:
    """Every floor's measured ratio, keyed by floor name."""
    return {name: leg() for name, _, _, leg in FLOORS}


def check(
    ratios: Dict[str, Optional[float]], cpu_count: Optional[int]
) -> Tuple[List[str], bool]:
    """One report line per floor, and whether any floor failed."""
    lines: List[str] = []
    failed = False
    for name, floor, needs_cpus, _ in FLOORS:
        ratio = ratios[name]
        shown = "n/a" if ratio is None else f"{ratio:.2f}x"
        if needs_cpus and (cpu_count is None or cpu_count < 2):
            verdict = f"skipped on {cpu_count} CPUs"
        elif ratio is None or ratio >= floor:
            verdict = "ok"
        else:
            verdict = "FAIL"
            failed = True
        lines.append(f"{name}: {shown} (floor {floor:.1f}x) {verdict}")
    return lines, failed


def main() -> int:
    lines, failed = check(measure(), os.cpu_count())
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
