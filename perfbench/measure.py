"""Measurement: the untimed set-ups, the timed loop, the traced replay, the report.

Imported by ``run.py`` only after it has fixed the BLAS thread count and
put this checkout's sources first on ``sys.path``.
"""

import json
import os
import subprocess
import sys
import time
import traceback

from repro import plan_cache_info

from perfbench import host, layers, stats, trace
from perfbench.speed import interpreter_factor
from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 3


def run_jobs(workload, seconds, min_calls, keep_outputs=False):
    """Closed loop: job after job until time is up and enough calls ran.

    Outputs are kept only for the traced replay; otherwise holding every
    job's counts would inflate the peak memory being measured.
    """
    jobs, errors, calls, index = [], 0, 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or calls < min_calls:
        try:
            job = workload.job(index)
        except Exception:  # a raising call is a failed call; keep measuring
            traceback.print_exc()
            errors += 1
            calls += 1
            job = None
        if job is not None:
            if not keep_outputs:
                job.outputs = None
            jobs.append(job)
            calls += len(job.call_seconds)
            for failure in job.failures:
                print(f"# job {index}: {failure}", file=sys.stderr)
        index += 1
    failed = errors + sum(min(len(j.failures), len(j.call_seconds)) for j in jobs)
    return jobs, calls, failed


def import_seconds(root, repeats):
    """Median time to ``import repro`` in a fresh interpreter, at reference speed.

    Importing is interpreter-bound whatever the workload; the child probes
    its own speed just before and after the import.
    """
    code = ("import sys, time; sys.path[0:0] = sys.argv[1:3]; "
            "from perfbench.speed import probe_seconds; before = probe_seconds(); "
            "start = time.perf_counter(); import repro; "
            "print(time.perf_counter() - start, before, probe_seconds())")
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code, os.path.join(root, "src"), root],
                              capture_output=True, text=True, check=True)
        seconds, before, after = (float(x) for x in done.stdout.split())
        times.append(seconds * interpreter_factor(before, after))
    return stats.median(times)


def setup(workload, repeats):
    """Set up ``repeats`` times from cold caches.

    Returns the set-up times at reference speed, and the failures.
    """
    seconds, fingerprints, failures = [], [], []
    for _ in range(repeats):
        host.reset_caches()
        fingerprint, wall, factor = workload.speed.time(workload.setup)
        fingerprints.append(fingerprint)
        seconds.append(wall * factor)
    if any(fp != fingerprints[0] for fp in fingerprints):
        failures.append("repeated setups gave different outputs")
    failures += workload.setup_checks()
    return seconds, failures


def end_to_end(workload, jobs, setup_s):
    """End-to-end metrics, every time at reference host speed (``HostSpeed``)."""
    calls = [c for job in jobs for c in job.ref_call_seconds]
    tail_s, percentile, beyond = stats.tail(calls)
    agreements = [j.rank_agreement for j in jobs if j.rank_agreement is not None]
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (stats.median([j.ref_seconds for j in jobs]), "s"),
        "call_p50_ms": (1e3 * stats.median(calls), "ms"),
        # A median of per-job rates: one stalled job does not move it.
        "circuits_per_s": (stats.median([j.circuits / j.ref_seconds for j in jobs]), "1/s"),
        "peak_rss_mb": (host.peak_rss_mb(workload.workers), "MB"),
        # Workloads without a gate ranking have nothing to disagree on: 1.0.
        "rank_agreement": (
            sum(agreements) / len(agreements) if agreements else 1.0, "fraction"
        ),
    }
    # Printed, not reported: ten calls beyond the percentile make it track the
    # host's stalls, and its spread across seeds exceeds any allowed bound.
    extra = [f"{'call_tail_ms':28s} {1e3 * tail_s:14.6g} ms  "
             f"(p{percentile:.2f}, {beyond} of {len(calls)} calls beyond)"]
    wall = stats.median([c for job in jobs for c in job.call_seconds])
    extra.append(f"{'call_p50_wall_ms':28s} {1e3 * wall:14.6g} ms  (unscaled)")
    extra.append(f"{'job_p50_wall_s':28s} "
                 f"{stats.median([j.seconds for j in jobs]):14.6g} s  (unscaled)")
    return metrics, {}, extra


def per_layer(workload, jobs_a, traced, tracer):
    """Per-layer metrics: medians over traced jobs of per-job sums."""
    spans = tracer.finished()
    by_job = {}
    for span in spans:
        by_job.setdefault(span.job, []).append(span)
    children = trace.children_of(spans)
    memcpy_s = host.memcpy_seconds(workload.state_bytes())
    rows = []
    layer_sums = []
    for index, seconds, counters, hits, misses in traced:
        names = trace.self_time_by_name(by_job.get(index, []))

        def busy(prefix):
            return 1e3 * sum(v for k, v in names.items() if k.startswith(prefix))

        ops = counters["ops"]
        sim_ms = busy("sim.")
        op_us = 1e3 * sim_ms / ops if ops else 0.0
        lookups = hits + misses
        rows.append({
            "transpile.busy_ms": busy("transpile."),
            "transpile.calls": counters["transpile_calls"],
            "transpile.gates_out_per_in": (
                counters["gates_out"] / counters["gates_in"] if counters["gates_in"] else 0.0
            ),
            "plan.compile_ms": busy("plan.compile_plan") + busy("plan.lower"),
            "plan.ops": ops,
            "plan.cache_hits": hits,
            "plan.cache_misses": misses,
            "plan.hit_ratio": hits / lookups if lookups else 0.0,
            "plan.bind_ms": busy("plan.bind"),
            "sim.execute_ms": sim_ms,
            "sim.op_us": op_us,
            "sim.memcpy_ratio": op_us / (1e6 * memcpy_s),
            "sampling.busy_ms": busy("sampling."),
            "observables.busy_ms": busy("observables."),
            "service.dump_ms": busy("service.dump_plan"),
            "service.plan_kib": counters["plan_bytes"] / 1024.0,
            "service.tasks": counters["tasks"],
            "service.transport_ms": 1e3 * counters["transport_s"],
            "charter.tvd_ms": busy("charter."),
        })
        layer_sums += [
            trace.covered(span, children.get(span.id, ()))
            for span in by_job.get(index, []) if span.name == "bench.call"
        ]
    metrics = {name: stats.median([row[name] for row in rows]) for name in rows[0]}
    untraced_calls = [c for job in jobs_a for c in job.call_seconds]
    metrics["execution.overhead_ms"] = 1e3 * (
        stats.median(untraced_calls) - stats.median(layer_sums)
    )
    paired = [jobs_a[index].seconds for index, *_ in traced]
    metrics["tracing.overhead_pct"] = 100.0 * (
        stats.median([seconds for _, seconds, *_ in traced]) / stats.median(paired) - 1.0
    )
    metrics["sim.state_mib"] = workload.state_bytes() / 2**20
    units = {"transpile.calls": "count", "transpile.gates_out_per_in": "ratio",
             "plan.ops": "count", "plan.cache_hits": "count", "plan.cache_misses": "count",
             "plan.hit_ratio": "ratio", "sim.op_us": "us", "sim.memcpy_ratio": "ratio",
             "sim.state_mib": "MiB", "service.plan_kib": "KiB", "service.tasks": "count",
             "tracing.overhead_pct": "%"}
    notes = {
        "sim.memcpy_ratio": f"memcpy of {workload.state_bytes()} B: {1e6 * memcpy_s:.2f} us",
        "execution.overhead_ms": "untraced call median minus traced layer-sum median",
    }
    return {k: (v, units.get(k, "ms")) for k, v in metrics.items()}, notes, []


def traced_phase(workload, jobs_a, seconds):
    """Replay the untraced jobs' inputs layer by layer; returns per-job records."""
    tracer = trace.Tracer()
    counters = layers.new_counters()
    traced, failed = [], 0
    deadline = time.perf_counter() + seconds
    with layers.traced_transpile(tracer, counters):
        for index, job in enumerate(jobs_a):
            if traced and time.perf_counter() >= deadline:
                break
            tracer.job = index
            before = dict(counters)
            cache = plan_cache_info()
            start = time.perf_counter()
            outputs = workload.traced_job(index, tracer, counters)
            elapsed = time.perf_counter() - start
            after = plan_cache_info()
            if outputs != job.outputs:
                print(f"# job {index}: layer decomposition differs from execute()",
                      file=sys.stderr)
                failed += 1
            delta = {k: counters[k] - before[k] for k in counters}
            traced.append((index, elapsed, delta, after["hits"] - cache["hits"],
                           after["misses"] - cache["misses"]))
    return tracer, traced, failed


def run(args, root, blas_threads):
    """Run ``args.workload`` and print its report; returns the exit code."""
    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_times, setup_failures = setup(workload, 1 if args.trace else SETUP_REPEATS)
        for failure in setup_failures:
            print(f"# setup: {failure}", file=sys.stderr)
        if args.trace:
            half = args.seconds / 2
            jobs, calls, failed = run_jobs(workload, half, 1, keep_outputs=True)
            host.reset_caches()
            workload.setup()
            tracer, traced, mismatched = traced_phase(workload, jobs, half)
            failed += mismatched
            metrics, notes, extra = per_layer(workload, jobs, traced, tracer)
            out = os.path.join(root, "perfbench", "out")
            os.makedirs(out, exist_ok=True)
            tracer.write(os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            jobs, calls, failed = run_jobs(workload, args.seconds, stats.TAIL_SAMPLES + 1)
            setup_s = (
                import_seconds(root, SETUP_REPEATS)
                + stats.median(setup_times)
            )
            metrics, notes, extra = end_to_end(workload, jobs, setup_s)
    finally:
        host.reset_caches()

    attempted = calls + 1  # the set-up counts as one attempt
    failed += 1 if setup_failures else 0
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"# environment {json.dumps(host.environment(blas_threads))}")
    print(f"# sizes {json.dumps(workload.sizes())}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {value:14.6g} {unit}{note}")
    for line in extra:
        print(line)
    print(f"{'error_rate':28s} {failed / attempted:14.6g} fraction  ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
