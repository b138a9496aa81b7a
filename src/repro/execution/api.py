"""The unified execution front door: ``submit()`` and ``execute()``.

One entry point for everything the stack can do: simulate one circuit or
a batch, sample counts/memory, evaluate observables, and sweep a
parameterized circuit over many bindings — all configured by a single
:class:`~repro.execution.RunOptions` object.

Batching semantics worth knowing:

* **Seeding** — batch element ``i`` samples from
  ``derive_seed(options.seed, i)``, so results are bitwise-reproducible
  across repeated calls and independent of batch composition.  Element 0
  matches ``sample_counts(circuit, shots, seed=seed)`` exactly.
* **Parameter sweeps** — a sweep compiles the *parametric template once*
  into an :class:`~repro.plan.ExecutionPlan` (one transpile + one
  lowering, reused through the plan cache).  Statevector sweeps with no
  shots or noise then evolve **batched**: all N bindings stack into one
  ``(N, 2, ..., 2)`` state tensor and every op applies to the whole
  batch in a single contraction (see :func:`repro.plan.run_batched_sweep`).
  Sweeps that sample or carry noise fall back to per-element plan
  execution — still never re-transpiling or re-lowering.  The
  ``sweep_mode`` option pins either path explicitly.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.circuit import Circuit, Parameter
from repro.execution.job import BatchResult, Job, Result
from repro.execution.options import RunOptions, resolve_sanitize_mode
from repro.observables import expectation
from repro.sampling.counts import Counts
from repro.sampling.sampler import (
    counts_from_probabilities,
    memory_from_probabilities,
    readout_probabilities,
)
from repro.sim.registry import get_backend
from repro.utils.bitstrings import bitstring_to_index, index_to_bitstring
from repro.utils.exceptions import ExecutionError
from repro.utils.rng import derive_seed, ensure_rng

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport
    from repro.plan.plan import ExecutionPlan, TrajectoryKrausOp

Sweep = Sequence[Mapping[Union[Parameter, str], float]]


def _normalise_sweep(parameter_sweep: Sweep, circuit: Circuit) -> List[Dict[str, float]]:
    from repro.circuit.parameter import normalize_binding, validate_binding_names

    names = {p.name for p in circuit.parameters()}
    if not names:
        raise ExecutionError(
            "parameter_sweep given, but the circuit has no unbound parameters"
        )
    points: List[Dict[str, float]] = []
    for index, binding in enumerate(parameter_sweep):
        if not isinstance(binding, Mapping):
            raise ExecutionError(
                f"sweep point {index} must be a mapping of parameters to "
                f"values, got {type(binding).__name__}"
            )
        # Strays and gaps are both rejected up front — both execution
        # modes downstream (batched and per-element) then see the same
        # fully-validated points.
        point = normalize_binding(
            binding, ExecutionError, label=f"sweep point {index}"
        )
        validate_binding_names(
            point,
            names,
            ExecutionError,
            label=f"sweep point {index}",
            require_complete=True,
        )
        points.append(point)
    if not points:
        raise ExecutionError("parameter_sweep must contain at least one point")
    return points


def sample_shard(
    probs: np.ndarray,
    shots: int,
    seed: Optional[int],
    num_qubits: int,
    memory: bool,
) -> Tuple[Counts, Optional[List[str]]]:
    """Counts (and optional per-shot memory) for one shard of shots.

    The unit of sampling work: one probability vector, one shot budget,
    one derived seed.  The serial sampler, the sharded sampler, and the
    worker pool all call exactly this function, which is what makes the
    three arrangements bitwise-interchangeable.
    """
    rng = ensure_rng(seed)
    if memory:
        # Tally counts from the same per-shot draw so the two views of
        # one experiment can never disagree.
        shard_memory = memory_from_probabilities(probs, shots, rng, num_qubits)
        tally: Dict[str, int] = {}
        for outcome in shard_memory:
            tally[outcome] = tally.get(outcome, 0) + 1
        return Counts(tally, num_qubits=num_qubits), shard_memory
    return counts_from_probabilities(probs, shots, rng, num_qubits), None


def _sample_probs(
    probs: np.ndarray,
    num_bits: int,
    options: RunOptions,
    element_index: int,
    workers: int = 1,
) -> Tuple[Counts, Optional[List[str]]]:
    """Counts/memory drawn from a precomputed probability vector.

    With ``shard_shots`` <= 1 this is the classic single-stream sampler
    seeded by ``derive_seed(seed, i)``.  With k > 1 shards, shard ``j``
    draws ``sizes[j]`` shots from ``derive_seed(seed, i, j)`` and the
    parts merge in shard order — the same split runs serially or on the
    worker pool, so results depend on ``(seed, shard_shots)`` only.
    """
    from repro.service.sharding import (
        effective_shard_count,
        merge_counts,
        merge_memory,
        shard_seeds,
        shard_sizes,
    )

    num_shards = effective_shard_count(options.shard_shots, options.shots)
    seeds = shard_seeds(options.seed, element_index, num_shards)
    if num_shards <= 1:
        return sample_shard(
            probs, options.shots, seeds[0], num_bits, options.memory
        )
    sizes = shard_sizes(options.shots, num_shards)
    tasks = [
        (probs, size, seed, num_bits, options.memory)
        for size, seed in zip(sizes, seeds)
    ]
    if workers > 1:
        from repro.service.pool import _shard_task, run_tasks

        parts = run_tasks(_shard_task, tasks, workers)
    else:
        parts = [sample_shard(*task) for task in tasks]
    return (
        merge_counts([part[0] for part in parts]),
        merge_memory([part[1] for part in parts]),
    )


def _sample(
    state: Any, options: RunOptions, element_index: int, workers: int = 1
) -> Tuple[Counts, Optional[List[str]]]:
    """Counts/memory for batch or sweep element ``element_index``.

    Computes the readout distribution of ``state`` (noise-model readout
    error applied) and delegates to :func:`_sample_probs`.
    """
    probs = readout_probabilities(state, options.noise_model)
    return _sample_probs(probs, state.num_qubits, options, element_index, workers)


def element_payload(
    plan: "ExecutionPlan",
    point: Optional[Mapping[str, float]],
    index: int,
    options: RunOptions,
    backend: Any,
    workers: int = 1,
) -> Dict[str, Any]:
    """Execute one compiled element: bind (sweeps), evolve, sample, measure.

    The one per-element body of batches and per-element sweeps.  It runs
    identically on the parent (serial path) and inside a worker process
    (the pool's ``_element_task`` calls it with the unpickled plan),
    which is the bitwise-parity guarantee for ``max_workers``.  Returns a
    plain dict so the payload crosses process boundaries without
    dragging Result/BatchResult construction into workers.

    Plans with dynamic ops (measure/reset/if_bit, or trajectory Kraus
    sampling):

    * density mode stays deterministic: one branch-bookkeeping evolution
      yields the ensemble-average state *and* the exact clbit
      distribution, which is sampled directly.  Readout error models
      qubit measurement hardware and is deliberately not applied to
      clbit registers; a circuit without clbits samples its qubits,
      readout error included.
    * pure modes with shots run per-shot trajectories
      (:func:`_trajectory_element`).  Without shots the statevector
      backend runs one stochastic collapse, seeded as trajectory 0 of
      this element; the trajectory backend demands shots, because its
      whole output is the trajectory average.
    """
    bound = plan.bind(point) if point is not None else plan
    rng = None
    if bound.has_dynamic_ops and bound.mode != "density":
        if options.shots:
            return _trajectory_element(bound, index, options, backend, workers)
        if bound.mode == "trajectory":
            raise ExecutionError(
                "the trajectory backend needs shots >= 1: each shot is one "
                "Monte-Carlo trajectory and the result is their average; "
                "set shots= in RunOptions (or use backend='density_matrix' "
                "for the exact state)"
            )
        rng = ensure_rng(derive_seed(options.seed, index, 0))
    classical: Dict[str, Any] = {}
    t0 = time.perf_counter()
    state = backend.execute_plan(
        bound, rng=rng, classical=classical, sanitize=options.sanitize
    )
    run_time = time.perf_counter() - t0
    counts = memory = None
    sample_time = 0.0
    if options.shots:
        t0 = time.perf_counter()
        if bound.num_clbits and "distribution" in classical:
            probs = np.zeros(1 << bound.num_clbits, dtype=np.float64)
            for bits, weight in classical["distribution"].items():
                probs[bitstring_to_index(bits)] = weight
            counts, memory = _sample_probs(
                probs / probs.sum(), bound.num_clbits, options, index, workers
            )
        else:
            counts, memory = _sample(state, options, index, workers=workers)
        sample_time = time.perf_counter() - t0
    values = tuple(
        expectation(state, observable) for observable in options.observables
    )
    return {
        "index": index,
        "state": state,
        "counts": counts,
        "memory": memory,
        "values": values,
        "run_time_s": run_time,
        "sample_time_s": sample_time,
    }


#: Trajectories whose branch patterns are drawn and grouped together.
#: Each holds its generator (~1.2 KiB) until its outcome is drawn, so the
#: block bounds that memory whatever the shot count.
_TRAJECTORY_BLOCK = 1024


def trajectory_shard(
    plan: "ExecutionPlan",
    element_index: int,
    start: int,
    count: int,
    options: RunOptions,
    backend: Any,
) -> Dict[str, Any]:
    """Run trajectories ``[start, start + count)`` of one element.

    The unit of trajectory work, mirroring :func:`sample_shard` for
    shots: trajectory ``t`` (absolute index, whatever the shard split)
    seeds its own stream from ``derive_seed(seed, element_index, t)``,
    evolves one stochastic pure state, records one outcome — the clbit
    string when the circuit measures into clbits, otherwise one terminal
    readout draw from the same stream — and evaluates each requested
    observable exactly on that trajectory's state.  Because every
    per-trajectory quantity depends only on ``(seed, element_index, t)``,
    any shard split (serial, or ``max_workers`` pool shards) merges to
    bitwise-identical results.

    When every random draw of the plan is a mixed-unitary Kraus choice
    (depolarizing or Pauli-flip noise, no measure/reset/if_bit, no
    clbits), trajectories sharing a branch pattern share one evolution:
    see :func:`_grouped_trajectories`.  Every per-trajectory quantity is
    still bitwise what the trajectory's own evolution gives.
    """
    fixed_ops = _fixed_weight_ops(plan)
    if fixed_ops is None:
        trajectories = _per_shot_trajectories(
            plan, element_index, start, count, options, backend
        )
    else:
        trajectories = _grouped_trajectories(
            plan, fixed_ops, element_index, start, count, options, backend
        )
    tally: Dict[str, int] = {}
    memory: Optional[List[str]] = [] if options.memory else None
    values: List[List[float]] = []
    for outcome, row in trajectories:
        tally[outcome] = tally.get(outcome, 0) + 1
        if memory is not None:
            memory.append(outcome)
        values.append(row)
    return {
        "tally": tally,
        "memory": memory,
        "num_bits": plan.num_clbits or plan.num_qubits,
        "values": values,
    }


def _fixed_weight_ops(plan: "ExecutionPlan") -> Optional[List["TrajectoryKrausOp"]]:
    """The plan's dynamic ops if each is a mixed-unitary Kraus draw, else ``None``.

    Only then is a trajectory's evolution fixed by its branch pattern: a
    measurement or a damping channel weighs its branches by the state.
    """
    from repro.plan import TrajectoryKrausOp

    if plan.num_clbits:
        return None
    dynamic = [op for op in plan.ops if op.is_dynamic]
    if all(
        isinstance(op, TrajectoryKrausOp) and op.weights is not None
        for op in dynamic
    ):
        return dynamic
    return None


def _per_shot_trajectories(
    plan: "ExecutionPlan",
    element_index: int,
    start: int,
    count: int,
    options: RunOptions,
    backend: Any,
) -> Iterator[Tuple[str, List[float]]]:
    """``(outcome, observable row)`` per trajectory, each evolved on its own."""
    for t in range(start, start + count):
        rng = ensure_rng(derive_seed(options.seed, element_index, t))
        classical: Dict[str, Any] = {}
        state = backend.execute_plan(
            plan, rng=rng, classical=classical, sanitize=options.sanitize
        )
        if plan.num_clbits:
            outcome = classical["bits"]
        else:
            # No clbits (e.g. reset-only or pure Kraus-noise circuits):
            # draw one terminal readout outcome from the trajectory's own
            # stream, readout error included.
            probs = readout_probabilities(state, options.noise_model)
            outcome = index_to_bitstring(
                int(rng.choice(probs.size, p=probs)), plan.num_qubits
            )
        yield outcome, [
            expectation(state, observable) for observable in options.observables
        ]


def _grouped_trajectories(
    plan: "ExecutionPlan",
    fixed_ops: Sequence["TrajectoryKrausOp"],
    element_index: int,
    start: int,
    count: int,
    options: RunOptions,
    backend: Any,
) -> Iterator[Tuple[str, List[float]]]:
    """``(outcome, observable row)`` per trajectory, one evolution per pattern.

    Each trajectory's generator first draws its branch pattern — one
    ``random()`` per Kraus op, exactly the draws ``execute_plan`` would
    make — and trajectories are grouped by pattern.  Each distinct
    pattern is evolved once, by the unchanged ``execute_plan`` on its
    first trajectory's generator rewound to before those draws, and its
    readout probabilities and observables are computed once.  Every
    trajectory then draws its outcome from its own generator, as the
    per-shot loop does, so each per-trajectory quantity is bitwise the
    same.  Blocks of :data:`_TRAJECTORY_BLOCK` trajectories bound the
    generators held; one evolved state is alive at a time.
    """
    stop = start + count
    for block_start in range(start, stop, _TRAJECTORY_BLOCK):
        block = range(block_start, min(block_start + _TRAJECTORY_BLOCK, stop))
        groups: Dict[Tuple[int, ...], List[Tuple[int, np.random.Generator]]] = {}
        for position, t in enumerate(block):
            rng = ensure_rng(derive_seed(options.seed, element_index, t))
            rewind = rng.bit_generator.state
            draws = rng.random(len(fixed_ops)).tolist()
            pattern = tuple(op.choose(draw) for op, draw in zip(fixed_ops, draws))
            group = groups.get(pattern)
            if group is None:
                rng.bit_generator.state = rewind
                group = groups[pattern] = []
            group.append((position, rng))
        outcomes: List[str] = [""] * len(block)
        rows: List[List[float]] = [[]] * len(block)
        for group in groups.values():
            state = backend.execute_plan(
                plan, rng=group[0][1], classical={}, sanitize=options.sanitize
            )
            probs = readout_probabilities(state, options.noise_model)
            row = [expectation(state, observable) for observable in options.observables]
            for position, rng in group:
                outcomes[position] = index_to_bitstring(
                    int(rng.choice(probs.size, p=probs)), plan.num_qubits
                )
                rows[position] = row
        yield from zip(outcomes, rows)


def _trajectory_element(
    plan: "ExecutionPlan",
    index: int,
    options: RunOptions,
    backend: Any,
    workers: int,
) -> Dict[str, Any]:
    """Shot-resolved dynamic execution: ``shots`` independent trajectories.

    Counts/memory tally the per-trajectory outcomes; expectation values
    are the trajectory **means** of the per-trajectory exact values, with
    the standard error of each mean surfaced as ``expectation_std`` (the
    statistical handle the bench agreement gate uses).  Trajectories
    shard across the worker pool exactly like shot shards — merged in
    shard order over absolute-index seeds, so ``max_workers`` never
    changes the result.
    """
    t0 = time.perf_counter()
    shots = options.shots
    if workers > 1 and shots > 1:
        from repro.service.pool import _trajectory_task, dump_plan, run_tasks
        from repro.service.sharding import shard_sizes

        blob = dump_plan(plan)
        shipped = _worker_options(options)
        sizes = shard_sizes(shots, min(workers, shots))
        tasks = []
        cursor = 0
        for size in sizes:
            tasks.append((blob, index, cursor, size, shipped, backend))
            cursor += size
        parts = run_tasks(_trajectory_task, tasks, workers)
    else:
        parts = [trajectory_shard(plan, index, 0, shots, options, backend)]
    tally: Dict[str, int] = {}
    for part in parts:
        for outcome, count in part["tally"].items():
            tally[outcome] = tally.get(outcome, 0) + count
    counts = Counts(tally, num_qubits=parts[0]["num_bits"])
    memory: Optional[List[str]] = None
    if options.memory:
        memory = []
        for part in parts:
            memory.extend(part["memory"])
    # Concatenate per-trajectory values in absolute trajectory order and
    # reduce over the full (T, n_obs) array: the mean/std are then
    # computed identically for every shard split, keeping expectation
    # values (not just counts) invariant under max_workers.
    stacked = np.asarray(
        [row for part in parts for row in part["values"]], dtype=np.float64
    ).reshape(shots, len(options.observables))
    means = stacked.mean(axis=0)
    variances = np.maximum(np.mean(stacked**2, axis=0) - means**2, 0.0)
    stds = np.sqrt(variances / shots)
    return {
        "index": index,
        # No single final state exists for a trajectory average; counts,
        # memory and expectation means carry the result.
        "state": None,
        "counts": counts,
        "memory": memory,
        "values": tuple(float(v) for v in means),
        "expectation_std": tuple(float(s) for s in stds),
        "run_time_s": time.perf_counter() - t0,
        "sample_time_s": 0.0,
    }


def _circuit_reports(
    circuits: Sequence[Circuit], backend: Any, options: RunOptions
) -> Optional[List["AnalysisReport"]]:
    """Static-analysis reports per circuit, or ``None`` when validation is off.

    Runs :func:`repro.analysis.analyze` on the circuits *as submitted*
    (pre-transpile), so diagnostic sites index the user's instructions.
    The import is lazy: ``validate="off"`` (the default) keeps the hot
    path free of the analysis layer entirely.
    """
    if options.validate == "off":
        return None
    from repro.analysis import AnalysisContext, analyze

    context = AnalysisContext(mode=backend.plan_mode)
    return [analyze(circuit, context=context) for circuit in circuits]


def _enforce_validation(
    reports: Optional[Sequence["AnalysisReport"]], options: RunOptions
) -> None:
    """Under ``validate="strict"``, raise on any error-severity finding."""
    if options.validate != "strict":
        return
    for index, report in enumerate(reports):
        subject = f"circuit {index}" if len(reports) > 1 else "the circuit"
        report.raise_if_errors(subject)


def _effective_workers(options: RunOptions) -> int:
    from repro.service.pool import resolve_max_workers

    return resolve_max_workers(options.max_workers)


def _worker_options(options: RunOptions) -> RunOptions:
    """The options shipped to workers: compile-side knobs stripped.

    Workers receive already-compiled plans, so ``passes`` (arbitrary,
    possibly unpicklable pass objects) and the ``backend`` field (the
    live instance ships separately) would only widen the pickle surface.
    """
    return options.replace(passes=None, backend=None)


def _parallel_elements(
    plan_blobs: Sequence[bytes],
    points: Sequence[Optional[Dict[str, float]]],
    options: RunOptions,
    backend: Any,
    workers: int,
) -> List[Dict[str, Any]]:
    """Fan per-element work out to the pool; payload dicts in index order."""
    from repro.service.pool import _element_task, run_tasks

    shipped = _worker_options(options)
    tasks = [
        (blob, point, index, shipped, backend)
        for index, (blob, point) in enumerate(zip(plan_blobs, points))
    ]
    return run_tasks(_element_task, tasks, workers)


def _compile_timed(
    circuit: Circuit, backend: Any, options: RunOptions
) -> Tuple["ExecutionPlan", float, float]:
    """Compile via the plan cache, attributing only THIS call's work.

    Returns ``(plan, compile_time_s, transpile_time_s)`` where both
    timings describe the current call: a cache hit costs only the lookup
    and contributes zero transpile time, instead of echoing the original
    compile's wall times (which could exceed this call's own total).
    """
    from repro.plan.plan import _compile_plan

    t0 = time.perf_counter()
    plan, compiled_now = _compile_plan(circuit, backend, options, use_cache=True)
    compile_time = time.perf_counter() - t0
    return plan, compile_time, (plan.transpile_time_s if compiled_now else 0.0)


def _use_batched_sweep(
    template: Circuit, backend: Any, options: RunOptions
) -> bool:
    """Whether a sweep evolves as one batched state stack.

    Batched evolution is pure-state arithmetic with no per-element
    randomness, so it requires the statevector lowering, no
    shots/memory/noise, and no dynamic ops (measure/reset/if_bit collapse
    each sweep point independently); everything else runs per element
    (same compiled plan, bound per point).  ``sweep_mode`` pins either
    path; demanding ``"batched"`` where it cannot run raises.
    """
    batchable = (
        backend.plan_mode == "statevector"
        and options.shots == 0
        and not options.memory
        and options.noise_model is None
        and not template.has_dynamic_ops()
    )
    if options.sweep_mode == "batched" and not batchable:
        if template.has_dynamic_ops():
            raise ExecutionError(
                "sweep_mode='batched' cannot run dynamic circuits: "
                "measure/reset/if_bit collapse each sweep point "
                "independently, so there is no shared batched evolution — "
                "use sweep_mode='auto' or 'per_element'"
            )
        raise ExecutionError(
            "sweep_mode='batched' requires a statevector backend with "
            "shots=0, memory=False and no noise model; use 'auto' to fall "
            "back to per-element execution"
        )
    return batchable and options.sweep_mode != "per_element"


def _batched_payloads(
    plan: "ExecutionPlan",
    bindings: List[Dict[str, float]],
    options: RunOptions,
    backend: Any,
) -> List[Dict[str, Any]]:
    """Every sweep point evolved as one ``(N, 2, ..., 2)`` stack: one payload each."""
    from repro.observables import expectation_batched
    from repro.plan import run_batched_sweep

    t0 = time.perf_counter()
    batch_states = run_batched_sweep(plan, bindings)
    element_time = (time.perf_counter() - t0) / len(bindings)
    sanitize_mode = resolve_sanitize_mode(options.sanitize)
    if sanitize_mode != "off":
        # Batched evolution has no per-op hook; run the final-state
        # checks on every element of the stack (lazy import keeps the
        # default path analysis-free, like _circuit_reports).
        from repro.analysis.sanitize import sanitize_batch

        sanitize_batch(plan, batch_states, sanitize_mode)
    per_observable = [
        expectation_batched(batch_states, observable)
        for observable in options.observables
    ]
    return [
        {
            "index": index,
            "state": backend._finalize(batch_states[index], plan.num_qubits),
            "counts": None,
            "memory": None,
            "values": tuple(values[index] for values in per_observable),
            "run_time_s": element_time,
            "sample_time_s": 0.0,
        }
        for index in range(len(bindings))
    ]


def _run_batch(
    circuits: List[Circuit],
    options: RunOptions,
    bindings: Optional[List[Dict[str, float]]],
    single: bool,
) -> Union[Result, BatchResult]:
    """Compile, verify, run and collect every element of one job.

    Every circuit compiles in the parent, through the plan cache, with
    the *full* options — a sweep's template exactly once — so transpile
    and lowering amortise across repeated ``execute()`` calls and workers
    never compile.  Payloads then come from one batched sweep evolution,
    from the worker pool, or from serial :func:`element_payload` calls.
    """
    start = time.perf_counter()
    backend = get_backend(options.backend)
    use_batched = bindings is not None and _use_batched_sweep(
        circuits[0], backend, options
    )
    reports = _circuit_reports(circuits, backend, options)

    plans = []
    compile_time = transpile_time = 0.0
    for circuit in circuits:
        plan, element_compile, element_transpile = _compile_timed(
            circuit, backend, options
        )
        compile_time += element_compile
        transpile_time += element_transpile
        plans.append(plan)
    # A sweep runs its one template plan, and carries its one report
    # (circuit + compiled-plan findings), at every point.
    points: List[Optional[Dict[str, float]]] = (
        [None] * len(plans) if bindings is None else list(bindings)
    )
    repeats = len(points) // len(plans)
    element_plans = plans * repeats
    diagnostics = None
    if reports is not None:
        from repro.analysis import verify_plan

        reports = [report + verify_plan(plan) for report, plan in zip(reports, plans)]
        _enforce_validation(reports, options)
        diagnostics = [tuple(report) for report in reports] * repeats

    workers = _effective_workers(options)
    if bindings is not None and use_batched:
        payloads = _batched_payloads(plans[0], bindings, options, backend)
    elif workers > 1 and len(points) > 1:
        # Each plan pickles once; workers only bind/execute/sample.
        # Per-element seeds derive from the element index, so the
        # fan-out is results-invisible.
        from repro.service.pool import dump_plan

        blobs = [dump_plan(plan) for plan in plans] * repeats
        payloads = _parallel_elements(blobs, points, options, backend, workers)
    else:
        payloads = [
            element_payload(plan, point, index, options, backend, workers=workers)
            for index, (plan, point) in enumerate(zip(element_plans, points))
        ]

    results: List[Result] = []
    for payload, plan, point in zip(payloads, element_plans, points):
        index = payload["index"]
        metadata = {
            "backend": backend.name,
            "seed": derive_seed(options.seed, index),
            "run_time_s": payload["run_time_s"],
            "sample_time_s": payload["sample_time_s"],
        }
        if "expectation_std" in payload:
            metadata["expectation_std"] = payload["expectation_std"]
        if diagnostics is not None:
            metadata["diagnostics"] = diagnostics[index]
        results.append(
            Result(
                # Deferred for sweeps: Result.circuit binds on first
                # access, so an N-point sweep does not pay N template
                # re-binds just to fill a field most consumers never read.
                plan.circuit
                if point is None
                else lambda bound=plan.circuit, point=point: bound.bind(point),
                payload["state"],
                counts=payload["counts"],
                memory=payload["memory"],
                observables=options.observables,
                expectation_values=payload["values"],
                parameters=point,
                metadata=metadata,
            )
        )
    if single:
        return results[0]
    summary: Dict[str, Any] = {"backend": backend.name}
    if bindings is not None:
        summary["sweep_mode"] = "batched" if use_batched else "per_element"
    summary.update(
        workers=1 if use_batched else workers,
        transpile_time_s=transpile_time,
        plan_compile_time_s=compile_time,
        total_time_s=time.perf_counter() - start,
    )
    return BatchResult(results, metadata=summary)


def submit(
    circuits: Union[Circuit, Iterable[Circuit]],
    options: Optional[RunOptions] = None,
    *,
    parameter_sweep: Optional[Sweep] = None,
    **kwargs: Any,
) -> Job:
    """Build a lazy :class:`Job` for ``circuits`` under ``options``.

    Accepts either a prebuilt :class:`RunOptions` or the same fields as
    loose keywords (``backend=``, ``shots=``, ``seed=``, ``optimize=``,
    ``passes=``, ``noise_model=``, ``observables=``, ``memory=``).
    """
    options = RunOptions.coerce(options, **kwargs)

    single = isinstance(circuits, Circuit)
    circuit_list = [circuits] if single else list(circuits)
    if not circuit_list:
        raise ExecutionError("execute() needs at least one circuit")
    for index, circuit in enumerate(circuit_list):
        if not isinstance(circuit, Circuit):
            raise ExecutionError(
                f"batch element {index} is {type(circuit).__name__}, "
                "expected a Circuit"
            )

    bindings: Optional[List[Dict[str, float]]] = None
    if parameter_sweep is not None:
        if len(circuit_list) != 1:
            raise ExecutionError(
                f"a parameter sweep runs one template circuit, got "
                f"{len(circuit_list)}"
            )
        bindings = _normalise_sweep(parameter_sweep, circuit_list[0])
        single = False  # a sweep always yields a BatchResult
    else:
        for index, circuit in enumerate(circuit_list):
            unbound = circuit.parameters()
            if unbound:
                raise ExecutionError(
                    f"batch element {index} has unbound parameter(s) "
                    f"{[p.name for p in unbound]}; bind them "
                    "(Circuit.bind) or pass parameter_sweep="
                )

    num_elements = len(bindings) if bindings is not None else len(circuit_list)
    return Job(
        lambda: _run_batch(circuit_list, options, bindings, single),
        options,
        num_elements,
    )


def execute(
    circuits: Union[Circuit, Iterable[Circuit]],
    options: Optional[RunOptions] = None,
    *,
    parameter_sweep: Optional[Sweep] = None,
    **kwargs: Any,
) -> Union[Result, BatchResult]:
    """Execute circuits and return their results — the one front door.

    A single :class:`Circuit` yields a :class:`Result`; a sequence of
    circuits, or a ``parameter_sweep`` over one parametric template,
    yields a :class:`BatchResult` in submission order.  See
    :class:`RunOptions` for every knob and the module docstring for the
    seeding and sweep-transpile guarantees.
    """
    return submit(
        circuits, options, parameter_sweep=parameter_sweep, **kwargs
    ).result()
