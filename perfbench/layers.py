"""``execute()`` taken apart into its layer calls, each inside a span.

The traced run does not instrument the program: it makes, from outside,
the same sequence of public layer calls that ``execute()`` makes for the
benchmark's inputs, and records a span around each.  The sequences below
mirror ``repro.execution.api`` for exactly the cases the workloads use
(static plans on one process; trajectory sweeps fanned out over the
pool).  Each refuses any other case, and the workloads compare the
decomposition's counts and expectation values bitwise with ``execute()``
on the same inputs, so per-layer numbers always describe the program
that ``execute()`` runs.

``compile_plan`` calls ``transpile`` internally, which in turn calls back
into the plan layer to lower; :func:`traced_transpile` swaps a timing
wrapper in for ``repro.transpile.transpile`` so that split shows too.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import (
    Circuit,
    Counts,
    RunOptions,
    compile_plan,
    derive_seed,
    ensure_rng,
    expectation,
    get_backend,
    index_to_bitstring,
)
from repro.execution.api import sample_shard
from repro.sampling.sampler import readout_probabilities
from repro.service.pool import dump_plan, load_plan, run_tasks
from repro.service.sharding import effective_shard_count

from perfbench.trace import Tracer

# ``repro.transpile`` as an attribute is the re-exported function, not the package.
TRANSPILE = importlib.import_module("repro.transpile")

Output = Tuple[Tuple[Tuple[str, int], ...], Tuple[float, ...]]


def output_of(counts: Optional[Mapping[str, int]], values: Sequence[float]) -> Output:
    """A call's comparable output: sorted counts and expectation values."""
    return (tuple(sorted((counts or {}).items())), tuple(values))


def new_counters() -> Dict[str, float]:
    return dict.fromkeys(
        ("transpile_calls", "gates_in", "gates_out", "ops", "plan_bytes", "tasks",
         "transport_s"),
        0,
    )


@contextlib.contextmanager
def traced_transpile(tracer: Tracer, counters: Dict[str, float]) -> Iterator[None]:
    """Time every ``transpile`` call, and the lowering it calls back into.

    ``compile_plan`` imports ``repro.transpile.transpile`` at call time,
    so replacing the package attribute reaches it; the original is put
    back on exit.
    """
    original = TRANSPILE.transpile

    def transpile(circuit: Circuit, *args: Any, lower: Any = None, **kwargs: Any) -> Any:
        counters["transpile_calls"] += 1
        counters["gates_in"] += len(circuit)
        if lower is not None:
            inner = lower

            def lower(transpiled: Circuit) -> Any:
                counters["gates_out"] += len(transpiled)
                return tracer.call("plan.lower", inner, transpiled)

        return tracer.call(
            "transpile.transpile", original, circuit, *args, lower=lower, **kwargs
        )

    TRANSPILE.transpile = transpile
    try:
        yield
    finally:
        TRANSPILE.transpile = original


def execute_static(
    tracer: Tracer, circuit: Circuit, options: RunOptions, counters: Dict[str, float]
) -> Output:
    """One circuit on one process, as ``execute()`` runs a static plan."""
    if options.memory or effective_shard_count(options.shard_shots, options.shots) > 1:
        raise ValueError("decomposition covers unsharded runs without memory only")
    if options.max_workers != 1:
        raise ValueError("decomposition covers max_workers=1 only")
    backend = get_backend(options.backend)
    plan = tracer.call("plan.compile_plan", compile_plan, circuit, backend, options)
    if plan.has_dynamic_ops:
        raise ValueError("decomposition covers static plans only")
    counters["ops"] += len(plan.ops)
    state = tracer.call(
        "sim.execute_plan", backend.execute_plan, plan, sanitize=options.sanitize
    )
    counts = None
    if options.shots:
        probs = tracer.call(
            "sampling.readout_probabilities",
            readout_probabilities,
            state,
            options.noise_model,
        )
        counts, _ = tracer.call(
            "sampling.sample_shard",
            sample_shard,
            probs,
            options.shots,
            derive_seed(options.seed, 0),
            state.num_qubits,
            False,
        )
    values = tuple(
        tracer.call("observables.expectation", expectation, state, observable)
        for observable in options.observables
    )
    return output_of(counts, values)


def execute_sweep(
    tracer: Tracer,
    template: Circuit,
    bindings: Sequence[Dict[str, float]],
    options: RunOptions,
    counters: Dict[str, float],
) -> List[Output]:
    """A trajectory sweep fanned out over the worker pool, as ``execute()`` runs it."""
    workers = options.max_workers
    if workers is None or workers < 2 or len(bindings) < 2:
        raise ValueError("decomposition covers pooled sweeps only")
    backend = get_backend(options.backend)
    plan = tracer.call("plan.compile_plan", compile_plan, template, backend, options)
    blob = tracer.call("service.dump_plan", dump_plan, plan)
    counters["plan_bytes"] += len(blob)
    shipped = options.replace(passes=None, backend=None)
    tasks = [
        (blob, point, index, shipped, backend) for index, point in enumerate(bindings)
    ]
    counters["tasks"] += len(tasks)
    pool_span = len(tracer.spans)  # the id the next span receives
    start = time.perf_counter()
    payloads = tracer.call("service.run_tasks", run_tasks, traced_element, tasks, workers)
    wall = time.perf_counter() - start
    worker_busy = 0.0
    outputs = []
    for payload in payloads:
        tracer.adopt(payload["spans"], pool_span)
        counters["ops"] += payload["ops"]
        worker_busy += payload["run_time_s"] + payload["sample_time_s"]
        outputs.append(output_of(payload["tally"], payload["values"]))
    counters["transport_s"] += wall - worker_busy / min(workers, len(tasks))
    return outputs


def traced_element(
    plan_blob: bytes,
    point: Mapping[str, float],
    index: int,
    options: RunOptions,
    backend: Any,
) -> Dict[str, Any]:
    """Worker side of :func:`execute_sweep`: one sweep point, in spans.

    Mirrors the pool's element task for a trajectory plan: load the
    shipped plan, bind the point, then run ``options.shots`` trajectories
    seeded ``derive_seed(seed, index, t)``, each evolved, read out with
    one draw from its own stream, and measured; expectation values are
    the trajectory means.
    """
    tracer = Tracer()
    plan = tracer.call("service.load_plan", load_plan, plan_blob)
    bound = tracer.call("plan.bind", plan.bind, point)
    if bound.mode != "trajectory" or not bound.has_dynamic_ops or bound.num_clbits:
        raise ValueError("decomposition covers noisy trajectory plans without clbits")
    start = time.perf_counter()
    tally: Dict[str, int] = {}
    rows: List[List[float]] = []
    for t in range(options.shots):
        rng = ensure_rng(derive_seed(options.seed, index, t))
        state = tracer.call(
            "sim.execute_plan",
            backend.execute_plan,
            bound,
            rng=rng,
            classical={},
            sanitize=options.sanitize,
        )
        probs = tracer.call(
            "sampling.readout_probabilities",
            readout_probabilities,
            state,
            options.noise_model,
        )
        outcome = index_to_bitstring(
            int(tracer.call("sampling.choice", rng.choice, probs.size, p=probs)),
            bound.num_qubits,
        )
        tally[outcome] = tally.get(outcome, 0) + 1
        rows.append(
            [
                tracer.call("observables.expectation", expectation, state, observable)
                for observable in options.observables
            ]
        )
    stacked = np.asarray(rows, dtype=np.float64).reshape(
        options.shots, len(options.observables)
    )
    values = tuple(float(v) for v in stacked.mean(axis=0))
    return {
        "tally": Counts(tally, num_qubits=bound.num_qubits),
        "values": values,
        "ops": len(bound.ops) * options.shots,
        "run_time_s": time.perf_counter() - start,
        "sample_time_s": 0.0,
        "spans": tracer.finished(),
    }

