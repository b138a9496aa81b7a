"""The frozen :class:`RunOptions` bundle: one object for every run knob.

Before this layer existed, ``run()`` and ``sample_counts()`` each
restated the same growing keyword list by hand.  Every
execution-shaped entry point — :func:`repro.execute`,
:meth:`BaseBackend.run <repro.sim.BaseBackend.run>`, the sampler — now
accepts this one immutable object instead, so adding a knob is a
one-place change.

Kept deliberately free of imports from the simulation stack: backends
consume ``RunOptions`` (lazily imported at call time), so this module
must sit below them in the import graph.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.utils.exceptions import ExecutionError

#: Runtime-sanitizer modes (see :mod:`repro.analysis.sanitize`).
SANITIZE_MODES = ("off", "warn", "strict")

#: Environment fallback for ``RunOptions.sanitize=None`` — lets a CI
#: matrix flip whole test suites to sanitized execution without touching
#: call sites, mirroring ``REPRO_MAX_WORKERS``.
SANITIZE_ENV_VAR = "REPRO_SANITIZE"


def resolve_sanitize_mode(mode: Optional[str]) -> str:
    """The effective sanitizer mode: explicit value, else env var, else off.

    Lives here (below the simulation stack) so ``execute_plan`` can
    resolve the mode without importing :mod:`repro.analysis` — the
    resolved ``"off"`` keeps the hot path entirely analysis-free.
    """
    if mode is None:
        mode = os.environ.get(SANITIZE_ENV_VAR, "").strip().lower() or "off"
    if mode not in SANITIZE_MODES:
        raise ExecutionError(
            f"sanitize mode must be one of {SANITIZE_MODES}, got {mode!r}"
        )
    return mode


def _as_int(value: Any) -> Optional[int]:
    """Coerce ints and numpy integers to int; None for anything else.

    bools are excluded — ``shots=True`` is always a bug, not one shot.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    return None


@dataclass(frozen=True)
class RunOptions:
    """Immutable configuration of one execution.

    Parameters
    ----------
    backend:
        Registered backend name, :class:`~repro.sim.BaseBackend`
        instance, or ``None`` for the default (``"statevector"``).
    shots:
        Measurement shots to sample per circuit; ``0`` (default) skips
        sampling entirely (``Result.counts`` is then ``None``).
    seed:
        Integer base seed.  Batch element ``i`` samples with
        ``derive_seed(seed, i)``, so results are reproducible regardless
        of batch size or execution order; ``None`` draws fresh entropy.
    optimize:
        Transpile through the default pass pipeline before simulation,
        fusing at :func:`repro.plan.fusion_width` of the backend's plan
        mode.
    passes:
        Explicit pass pipeline (a ``PassManager`` or sequence of
        ``Pass`` objects); implies optimisation.
    noise_model:
        Declarative :class:`~repro.noise.NoiseModel`.  Gate-noise rules
        need a backend that represents them (``density_matrix`` and
        ``ptm`` exactly, ``trajectory`` by sampling); readout error
        composes with any backend at sampling time.
    observables:
        :class:`~repro.observables.Pauli` / ``PauliSum`` observables to
        evaluate on each final state (a single observable is accepted
        and wrapped).  Values land on ``Result.expectation_values``.
    memory:
        Also record the per-shot outcome list (requires ``shots > 0``);
        counts are then tallied from the same draw, so the two always
        agree.
    sweep_mode:
        How ``execute`` evolves a ``parameter_sweep``: ``"auto"``
        (default) batches all bindings into one stacked state tensor
        whenever the sweep is batchable (statevector backend, no shots,
        no noise) and falls back to per-element plan execution otherwise;
        ``"batched"`` demands the batched path (raising when the sweep
        is not batchable); ``"per_element"`` forces one execution per
        binding.  Either way the parametric template compiles exactly
        once.
    max_workers:
        Worker processes for per-element sweeps, batches, and sharded
        shot sampling.  ``None`` (default) defers to the
        ``REPRO_MAX_WORKERS`` environment variable (absent -> serial);
        ``1`` forces the serial path.  Worker count never changes
        results: element/shard seeds derive from positions, not from
        scheduling, so any ``max_workers`` is bitwise-identical to
        serial for the same options.
    shard_shots:
        Number of shards to split each element's shot sampling into
        (``0``/``1`` = no sharding).  Shard ``j`` of element ``i`` draws
        from ``derive_seed(seed, i, j)``, so the merged counts depend
        only on ``(seed, shard_shots)`` — sharded sampling is applied on
        the serial path too, keeping results independent of
        ``max_workers``.  Note k > 1 shards draw from k derived streams,
        so counts differ (validly) from the unsharded stream.
    validate:
        Static analysis of every circuit (and its compiled plan) before
        execution: ``"off"`` (default) skips it entirely, ``"warn"``
        records the :class:`~repro.analysis.Diagnostic` list on
        ``Result.metadata["diagnostics"]``, and ``"strict"`` additionally
        raises :class:`~repro.utils.exceptions.AnalysisError` when any
        error-severity diagnostic is found.
    certify:
        Prove every transpile-pass application semantically equivalent
        (:func:`repro.analysis.certify_rewrite`) while compiling; the
        per-pass :class:`~repro.analysis.Certificate` dicts ride on
        ``plan.pass_stats`` and an unprovable rewrite raises
        :class:`~repro.utils.exceptions.CertificationError` at compile
        time.  Only meaningful together with ``optimize``/``passes``
        (an unoptimised compile applies no rewrites to certify).
    sanitize:
        Runtime numerical checks inside the shared ``execute_plan``
        loop (norm drift, NaN/Inf, dtype promotion, probability sums):
        ``None`` (default) defers to the ``REPRO_SANITIZE`` environment
        variable (absent -> ``"off"``); ``"off"`` disables them with
        zero hot-path cost; ``"warn"`` collects findings and fires a
        :class:`~repro.analysis.sanitize.SanitizerWarning`; ``"strict"``
        raises :class:`~repro.utils.exceptions.SanitizerError` at the
        offending op.
    """

    backend: Any = None
    shots: int = 0
    seed: Optional[int] = None
    optimize: bool = False
    passes: Any = None
    noise_model: Any = None
    observables: Tuple[Any, ...] = field(default=())
    memory: bool = False
    sweep_mode: str = "auto"
    max_workers: Optional[int] = None
    shard_shots: int = 0
    validate: str = "off"
    certify: bool = False
    sanitize: Optional[str] = None

    def __post_init__(self) -> None:
        shots = _as_int(self.shots)
        if shots is None:
            raise ExecutionError(f"shots must be an int, got {self.shots!r}")
        if shots < 0:
            raise ExecutionError(f"shots must be non-negative, got {shots}")
        object.__setattr__(self, "shots", shots)
        if self.seed is not None:
            seed = _as_int(self.seed)
            if seed is None:
                raise ExecutionError(
                    f"seed must be an int or None, got {self.seed!r}; "
                    "generators are not accepted here — per-element seeds "
                    "are derived"
                )
            object.__setattr__(self, "seed", seed)
        if self.memory and self.shots == 0:
            raise ExecutionError("memory=True requires shots > 0")
        observables = self.observables
        if observables is None:
            observables = ()
        elif not isinstance(observables, (tuple, list)):
            # A single observable is the common case; wrap it.
            observables = (observables,)
        object.__setattr__(self, "observables", tuple(observables))
        object.__setattr__(self, "optimize", bool(self.optimize))
        object.__setattr__(self, "memory", bool(self.memory))
        if self.sweep_mode not in ("auto", "batched", "per_element"):
            raise ExecutionError(
                f"sweep_mode must be 'auto', 'batched', or 'per_element', "
                f"got {self.sweep_mode!r}"
            )
        if self.max_workers is not None:
            max_workers = _as_int(self.max_workers)
            if max_workers is None or max_workers < 1:
                raise ExecutionError(
                    f"max_workers must be a positive int or None, got "
                    f"{self.max_workers!r}"
                )
            object.__setattr__(self, "max_workers", max_workers)
        shard_shots = _as_int(self.shard_shots)
        if shard_shots is None or shard_shots < 0:
            raise ExecutionError(
                f"shard_shots must be a non-negative int, got "
                f"{self.shard_shots!r}"
            )
        object.__setattr__(self, "shard_shots", shard_shots)
        if self.validate not in ("off", "warn", "strict"):
            raise ExecutionError(
                f"validate must be 'off', 'warn', or 'strict', "
                f"got {self.validate!r}"
            )
        object.__setattr__(self, "certify", bool(self.certify))
        if self.sanitize is not None and self.sanitize not in SANITIZE_MODES:
            raise ExecutionError(
                f"sanitize must be one of {SANITIZE_MODES} or None "
                f"(defer to {SANITIZE_ENV_VAR}), got {self.sanitize!r}"
            )

    def replace(self, **changes: Any) -> "RunOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def coerce(cls, options: "Optional[RunOptions]", **kwargs: Any) -> "RunOptions":
        """Resolve an ``(options, **kwargs)`` call surface to one object.

        Accepts either a prebuilt :class:`RunOptions` *or* loose keyword
        arguments, never both — mixing the two would make it ambiguous
        which value wins.
        """
        if options is not None:
            if kwargs:
                raise ExecutionError(
                    "pass either a RunOptions object or keyword options, "
                    f"not both (got options= and {sorted(kwargs)})"
                )
            if not isinstance(options, cls):
                raise ExecutionError(
                    f"expected RunOptions, got {type(options).__name__}"
                )
            return options
        try:
            return cls(**kwargs)
        except TypeError:
            valid = [f.name for f in dataclasses.fields(cls)]
            unknown = sorted(set(kwargs) - set(valid))
            raise ExecutionError(
                f"unknown execution option(s) {unknown}; valid options: {valid}"
            ) from None
