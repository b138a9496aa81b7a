"""The four benchmark workloads.

Each workload drives ``repro.execute`` in a closed loop with one client:
the next job starts only after the previous one returned.  A workload
provides

* ``setup()`` — generate the setup inputs and make the first, untimed
  call (which forks the pool where there is one).  It returns a
  fingerprint of its output; repeated setups must agree bitwise.
* ``setup_checks()`` — one-off correctness checks, returning failures.
* ``job(index)`` — job ``index``: untimed input generation, the timed calls,
  then their output checks; returns a :class:`JobResult`.
* ``traced_job(index, tracer, counters)`` — the same job's inputs run
  through the layer-by-layer decomposition of :mod:`perfbench.layers`,
  returning the per-call outputs to compare with ``job(index)``'s.

Inputs of job ``i`` depend only on ``(seed, i)``, so the traced phase
replays exactly the inputs the untraced phase ran.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import (
    Pauli,
    PauliVector,
    RunOptions,
    compile_plan,
    derive_seed,
    execute,
)
from repro.sampling.sampler import readout_probabilities

from perfbench import host, inputs
from perfbench.layers import Output, execute_static, execute_sweep, output_of
from perfbench.speed import HostSpeed, probe_seconds
from perfbench.stats import counts_vector, rank_sites, top_overlap, tvd
from perfbench.trace import Tracer


@dataclass
class JobResult:
    #: Wall time of the job and of each timed call.
    seconds: float
    call_seconds: List[float]
    #: The same times scaled to the reference host's speed (see HostSpeed).
    ref_seconds: float
    ref_call_seconds: List[float]
    circuits: int
    outputs: List[Output]
    failures: List[str] = field(default_factory=list)
    #: Top-5 overlap of sampled and exact gate rankings (ranking workloads only).
    rank_agreement: Optional[float] = None
    #: What repeated setups must reproduce bitwise.
    fingerprint: Any = None


class Workload:
    name = ""
    #: Pool worker processes the workload runs on.
    workers = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.speed = self.host_speed()

    def host_speed(self) -> HostSpeed:
        """Timing with a probe of the kind of work this workload's calls do."""
        return HostSpeed(probe_seconds)

    def timed_execute(
        self, circuit: Any, options: RunOptions, **kwargs: Any
    ) -> Tuple[Any, float, float]:
        """``(result, wall_seconds, factor)`` of one timed ``execute()`` call."""
        return self.speed.time(execute, circuit, options, **kwargs)

    def sizes(self) -> Dict[str, Any]:
        raise NotImplementedError

    def state_bytes(self) -> int:
        """Bytes of one simulated state (computed, not measured)."""
        raise NotImplementedError

    def setup(self) -> Any:
        raise NotImplementedError

    def setup_checks(self) -> List[str]:
        return []

    def job(self, index: int) -> JobResult:
        raise NotImplementedError

    def traced_job(
        self, index: int, tracer: Tracer, counters: Dict[str, float]
    ) -> List[Output]:
        raise NotImplementedError


def _fused_members(plan: Any) -> int:
    """Gates and channels in a ptm plan; fused ops are named ``a+b+c``."""
    return sum(op.name.count("+") + 1 for op in plan.ops)


def _counts_total(result: Any, shots: int) -> List[str]:
    total = sum(result.counts.values())
    return [] if total == shots else [f"counts sum to {total}, not {shots}"]


class CharterPtm(Workload):
    name = "charter_ptm"
    NUM_QUBITS, NUM_GATES, NUM_CX, REPS, SHOTS = 8, 40, 12, 3, 4096

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.noise = inputs.charter_noise()
        # optimize stays off: CancelInversePairs would delete the inserted
        # pairs, and fusion would hide them from the gate-name noise rules.
        self.options = RunOptions(
            backend="ptm",
            shots=self.SHOTS,
            seed=seed,
            noise_model=self.noise,
            optimize=False,
            max_workers=1,
        )

    def sizes(self) -> Dict[str, Any]:
        return {
            "qubits": self.NUM_QUBITS,
            "gates": self.NUM_GATES,
            "cx": self.NUM_CX,
            "reversal_pairs": self.REPS,
            "calls_per_job": self.NUM_GATES + 1,
            "shots": self.SHOTS,
        }

    def state_bytes(self) -> int:
        return 8 * 4**self.NUM_QUBITS

    def _variants(self, label: str, index: int) -> List[Any]:
        rng = inputs.stream(self.seed, label, index)
        circuit = inputs.random_circuit(
            rng, self.NUM_QUBITS, self.NUM_GATES, self.NUM_CX
        )
        return inputs.charter_variants(circuit, self.REPS)

    def rank(self, counts: Sequence[Mapping[str, int]]) -> Tuple[List[float], Tuple[int, ...]]:
        """CHARTER's scoring: each variant's sampled TVD from the baseline, ranked."""
        base = counts_vector(counts[0], self.NUM_QUBITS)
        scores = [tvd(counts_vector(c, self.NUM_QUBITS), base) for c in counts[1:]]
        return scores, rank_sites(scores)

    def _options(self, index: int) -> RunOptions:
        # Every call samples from its options' seed, so one seed for all jobs
        # would repeat the same sampling noise in each ranking of a run.
        return self.options.replace(seed=derive_seed(self.seed, index))

    def _run(self, variants: Sequence[Any], options: RunOptions) -> JobResult:
        results, calls, ref_calls = [], [], []
        for variant in variants:
            result, seconds, factor = self.timed_execute(variant, options)
            results.append(result)
            calls.append(seconds)
            ref_calls.append(seconds * factor)
        (scores, ranking), rank_s, factor = self.speed.time(
            self.rank, [r.counts for r in results]
        )

        failures = []
        exact = []
        for result in results:
            failures += _counts_total(result, self.SHOTS)
            if not isinstance(result.state, PauliVector):
                failures.append(f"ptm returned {type(result.state).__name__}")
                continue
            probs = readout_probabilities(result.state, self.noise)
            exact.append(probs)
            if abs(float(probs.sum()) - 1.0) > 1e-9:
                failures.append("exact probabilities do not sum to 1")
        agreement = 0.0
        if not failures:
            agreement = top_overlap(ranking, [tvd(p, exact[0]) for p in exact[1:]])
        return JobResult(
            sum(calls) + rank_s,
            calls,
            sum(ref_calls) + rank_s * factor,
            ref_calls,
            len(variants),
            [output_of(results[0].counts, scores)]
            + [output_of(r.counts, ()) for r in results[1:]],
            failures,
            agreement,
            (tuple(scores), ranking),
        )

    def setup(self) -> Any:
        self._setup_variants = self._variants("setup", 0)
        return self._run(self._setup_variants, self.options).fingerprint

    def setup_checks(self) -> List[str]:
        failures = []
        variants = self._setup_variants
        noiseless = RunOptions(backend="statevector", max_workers=1)
        base_probs = execute(variants[0], noiseless).state.probabilities()
        # ptm lowering fuses each reversal pair into the site's op, so the op
        # count may not grow; the fused members must.
        members = _fused_members(compile_plan(variants[0], "ptm", self.options))
        for site, variant in enumerate(variants[1:]):
            probs = execute(variant, noiseless).state.probabilities()
            if np.max(np.abs(probs - base_probs)) > 1e-9:
                failures.append(f"variant {site} is not noiselessly equal to the baseline")
            if _fused_members(compile_plan(variant, "ptm", self.options)) <= members:
                failures.append(f"variant {site} lost its reversal pairs in lowering")
        dense = RunOptions(backend="density_matrix", noise_model=self.noise, max_workers=1)
        ptm = execute(variants[0], self.options.replace(shots=0)).state.probabilities()
        rho = execute(variants[0], dense).state.probabilities()
        if np.max(np.abs(ptm - rho)) > 1e-9:
            failures.append("ptm baseline disagrees with density_matrix")
        return failures

    def job(self, index: int) -> JobResult:
        return self._run(self._variants("charter", index), self._options(index))

    def traced_job(
        self, index: int, tracer: Tracer, counters: Dict[str, float]
    ) -> List[Output]:
        variants = self._variants("charter", index)
        options = self._options(index)
        outputs = [
            tracer.call("bench.call", execute_static, tracer, v, options, counters)
            for v in variants
        ]
        counts = [dict(output[0]) for output in outputs]
        scores, _ = tracer.call("charter.rank", self.rank, counts)
        return [(outputs[0][0], tuple(scores))] + [(o[0], ()) for o in outputs[1:]]


class SvWide(Workload):
    name = "sv_wide"
    NUM_QUBITS, LAYERS, SHOTS = 20, 3, 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.options = RunOptions(
            backend="statevector",
            shots=self.SHOTS,
            seed=seed,
            optimize=True,
            observables=(Pauli("ZZ", (0, 1)), Pauli("XX", (9, 10))),
            max_workers=1,
        )

    def sizes(self) -> Dict[str, Any]:
        return {
            "qubits": self.NUM_QUBITS,
            "layers": self.LAYERS,
            "gates": len(self.circuit),
            "shots": self.SHOTS,
            "observables": len(self.options.observables),
        }

    def state_bytes(self) -> int:
        return 16 * 2**self.NUM_QUBITS

    def host_speed(self) -> HostSpeed:
        # Gate contractions on a 16 MiB state: bound by memory, not the interpreter.
        return HostSpeed(host.KernelProbe(self.NUM_QUBITS), host.REFERENCE_KERNEL_S)

    def setup(self) -> Any:
        rng = inputs.stream(self.seed, "sv_wide", 0)
        self.circuit = inputs.layered_rotations(rng, self.NUM_QUBITS, self.LAYERS)
        result = execute(self.circuit, self.options)
        self.reference = output_of(result.counts, result.expectation_values)
        return self.reference

    def job(self, index: int) -> JobResult:
        result, seconds, factor = self.timed_execute(self.circuit, self.options)
        output = output_of(result.counts, result.expectation_values)
        failures = []
        norm = float(np.vdot(result.state.data, result.state.data).real)
        if abs(norm - 1.0) > 1e-9:
            failures.append(f"state norm {norm!r}")
        if output != self.reference:
            failures.append("counts or expectations differ from the first call")
        return JobResult(
            seconds, [seconds], seconds * factor, [seconds * factor], 1, [output], failures
        )

    def traced_job(
        self, index: int, tracer: Tracer, counters: Dict[str, float]
    ) -> List[Output]:
        return [
            tracer.call("bench.call", execute_static, tracer, self.circuit, self.options, counters)
        ]


class ColdSmall(Workload):
    name = "cold_small"
    NUM_QUBITS, NUM_GATES, NUM_CX, SHOTS = 5, 60, 18, 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.options = RunOptions(
            backend="statevector",
            shots=self.SHOTS,
            seed=seed,
            optimize=True,
            observables=(Pauli("ZZZ", (0, 2, 4)),),
            max_workers=1,
        )

    def sizes(self) -> Dict[str, Any]:
        return {
            "qubits": self.NUM_QUBITS,
            "gates": self.NUM_GATES,
            "cx": self.NUM_CX,
            "shots": self.SHOTS,
            "observables": 1,
        }

    def state_bytes(self) -> int:
        return 16 * 2**self.NUM_QUBITS

    def _circuit(self, label: str, index: int) -> Any:
        rng = inputs.stream(self.seed, label, index)
        return inputs.random_circuit(rng, self.NUM_QUBITS, self.NUM_GATES, self.NUM_CX)

    def _run(self, circuit: Any) -> JobResult:
        result, seconds, factor = self.timed_execute(circuit, self.options)
        failures = _counts_total(result, self.SHOTS)
        plain = execute(circuit, self.options.replace(optimize=False, shots=0))
        for fused, unfused in zip(result.expectation_values, plain.expectation_values):
            if abs(fused - unfused) > 1e-9:
                failures.append(f"optimised expectation {fused} != unoptimised {unfused}")
        output = output_of(result.counts, result.expectation_values)
        return JobResult(
            seconds, [seconds], seconds * factor, [seconds * factor], 1, [output], failures
        )

    def setup(self) -> Any:
        return self._run(self._circuit("setup", 0)).outputs[0]

    def job(self, index: int) -> JobResult:
        return self._run(self._circuit("cold_small", index))

    def traced_job(
        self, index: int, tracer: Tracer, counters: Dict[str, float]
    ) -> List[Output]:
        circuit = self._circuit("cold_small", index)
        return [tracer.call("bench.call", execute_static, tracer, circuit, self.options, counters)]


class SweepPool(Workload):
    name = "sweep_pool"
    workers = 2
    NUM_QUBITS, LAYERS, POINTS, SHOTS = 6, 2, 8, 64
    CHECK_SHOTS = 512

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.noise = inputs.sweep_noise()
        self.options = RunOptions(
            backend="trajectory",
            shots=self.SHOTS,
            seed=seed,
            noise_model=self.noise,
            observables=(Pauli("Z", (0,)), Pauli("ZZ", (2, 3))),
            max_workers=self.workers,
        )

    def sizes(self) -> Dict[str, Any]:
        return {
            "qubits": self.NUM_QUBITS,
            "gates": len(self.template),
            "points": self.POINTS,
            "trajectories": self.SHOTS,
            "workers": self.workers,
        }

    def state_bytes(self) -> int:
        return 16 * 2**self.NUM_QUBITS

    def host_speed(self) -> HostSpeed:
        # The trajectory loops run in the workers: probe there.
        return HostSpeed(functools.partial(host.worker_probe, self.workers))

    def _bindings(self, label: str, index: int) -> List[Dict[str, float]]:
        rng = inputs.stream(self.seed, label, index)
        return inputs.sweep_bindings(rng, self.NUM_QUBITS, self.POINTS)

    def _outputs(self, batch: Any) -> List[Output]:
        return [output_of(r.counts, r.expectation_values) for r in batch]

    def setup(self) -> Any:
        rng = inputs.stream(self.seed, "sweep", 0)
        self.template = inputs.sweep_template(rng, self.NUM_QUBITS, self.LAYERS)
        self._setup_bindings = self._bindings("setup", 0)
        batch = execute(self.template, self.options, parameter_sweep=self._setup_bindings)
        self._setup_outputs = self._outputs(batch)
        return self._setup_outputs

    def setup_checks(self) -> List[str]:
        failures = []
        serial = execute(
            self.template,
            self.options.replace(max_workers=1),
            parameter_sweep=self._setup_bindings,
        )
        if self._outputs(serial) != self._setup_outputs:
            failures.append("max_workers=2 sweep differs from max_workers=1")
        # 64 trajectories mostly sample no error at all, so their spread
        # understates the error of the mean; agreement with the exact ptm
        # value is checked once, on enough trajectories for the mean to be
        # near normal.
        point = self._setup_bindings[0]
        many = execute(
            self.template,
            self.options.replace(shots=self.CHECK_SHOTS),
            parameter_sweep=[point],
        )[0]
        exact = execute(
            self.template.bind(point),
            RunOptions(backend="ptm", noise_model=self.noise,
                       observables=self.options.observables, max_workers=1),
        ).expectation_values
        stds = many.metadata["expectation_std"]
        for mean, std, value in zip(many.expectation_values, stds, exact):
            if abs(mean - value) > 6 * max(std, 1e-3):
                failures.append(f"trajectory mean {mean} vs exact {value} (std {std})")
        return failures

    def job(self, index: int) -> JobResult:
        bindings = self._bindings("sweep", index + 1)
        batch, seconds, factor = self.timed_execute(
            self.template, self.options, parameter_sweep=bindings
        )
        failures = []
        for result in batch:
            failures += _counts_total(result, self.SHOTS)
            values = result.expectation_values + result.metadata["expectation_std"]
            if not all(np.isfinite(v) and abs(v) <= 1.0 for v in values):
                failures.append(f"expectation or std out of range: {values}")
        return JobResult(
            seconds, [seconds], seconds * factor, [seconds * factor], len(bindings),
            self._outputs(batch), failures,
        )

    def traced_job(
        self, index: int, tracer: Tracer, counters: Dict[str, float]
    ) -> List[Output]:
        bindings = self._bindings("sweep", index + 1)
        return tracer.call(
            "bench.call", execute_sweep, tracer, self.template, bindings, self.options, counters
        )


WORKLOADS = {cls.name: cls for cls in (CharterPtm, SvWide, ColdSmall, SweepPool)}
