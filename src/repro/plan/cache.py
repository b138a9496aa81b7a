"""The process-wide :class:`~repro.plan.ExecutionPlan` cache.

``execute()`` and ``Backend.run()`` both compile through here, so running
the same circuit twice — or sweeping a parametric template whose plan was
compiled last call — skips transpilation and lowering entirely.

Keying: a plan is identified by the *content* of the circuit (its
width, its classical-register width, and its instruction tuple, which
compares gates by name/params/matrix, so two separately built but
identical circuits share a plan), the backend's name/mode/dtype, and the
compile-relevant options (``optimize``, the identity of each ``passes``
entry, the identity + rule count of the ``noise_model``).
:func:`plan_key` builds the key once per compile; :func:`cache_get` and
:func:`cache_put` both take it.  Entries hold strong references to the
pass and noise objects whose ``id()`` appears in the key, so a key can
never collide with a dead object's recycled id.  Pass objects are assumed
to honour the :class:`~repro.transpile.Pass` purity contract (same pass,
same rewrite); noise-model rule *additions* change the rule count and
miss naturally.

The cache is LRU-bounded and instrumented: :func:`plan_cache_info`
exposes hits/misses/size for tests, benchmarks, and capacity planning.

All entry points take a module lock: the async execution service compiles
plans from dispatcher threads while user code compiles on the main thread,
and an unguarded ``move_to_end``/eviction race corrupts the OrderedDict.
The lock is process-local — worker processes get their own (empty) cache,
which is why the parent ships *compiled* plans to workers instead of
letting them compile — and is re-created in forked children, which could
otherwise inherit it held by a parent thread that does not exist there.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:
    from repro.circuit import Circuit
    from repro.execution.options import RunOptions
    from repro.noise import NoiseModel
    from repro.plan.plan import ExecutionPlan

_MAXSIZE = 64

_LOCK = threading.Lock()
_CACHE: "OrderedDict[tuple, _Entry]" = OrderedDict()
_HITS = 0
_MISSES = 0


def _reset_lock() -> None:
    global _LOCK
    _LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock)


class _Entry:
    """A cached plan plus strong refs pinning the ids used in its key."""

    __slots__ = ("plan", "noise_model", "passes")

    def __init__(
        self,
        plan: "ExecutionPlan",
        noise_model: Optional["NoiseModel"],
        passes: Any,
    ) -> None:
        self.plan = plan
        self.noise_model = noise_model
        # Pin the pass *elements*, not just their container: replacing an
        # element of a caller-held list in place would otherwise free the
        # old pass, whose recycled id could collide with a new pass and
        # produce a stale hit.  For a PassManager the snapshot pins its
        # current pipeline the same way.
        if passes is None:
            self.passes = None
        elif isinstance(passes, (list, tuple)):
            self.passes = (passes, tuple(passes))
        else:
            self.passes = (passes, tuple(getattr(passes, "passes", ())))


def _passes_key(passes: Any) -> Optional[tuple]:
    if passes is None:
        return None
    if isinstance(passes, (list, tuple)):
        return tuple(id(p) for p in passes)
    # A PassManager (or anything else pipeline-shaped): key on the object
    # AND its current pass composition — PassManager.append() is public,
    # so id() alone would hand back a stale plan after a mutation.
    contained = getattr(passes, "passes", ())
    try:
        composition = tuple(id(p) for p in contained)
    except TypeError:
        composition = ()
    return (id(passes),) + composition


def _noise_key(noise_model: Optional["NoiseModel"]) -> Optional[tuple]:
    if noise_model is None:
        return None
    return (
        id(noise_model),
        len(getattr(noise_model, "_rules", ())),
        id(getattr(noise_model, "_readout", None)),
    )


def plan_key(
    circuit: "Circuit",
    backend_name: str,
    mode: str,
    dtype: Any,
    options: "RunOptions",
) -> tuple:
    """The cache key of one compilation (see the module docstring)."""
    return (
        backend_name,
        mode,
        str(dtype),
        circuit.num_qubits,
        circuit.num_clbits,
        circuit.instructions,
        bool(options.optimize),
        # Certified and uncertified compiles of the same circuit differ
        # (pass_stats carries the certificates), so they must not share
        # a cache entry — a certify=True call handed an uncertified plan
        # would silently skip the proof.
        bool(options.certify),
        _passes_key(options.passes),
        _noise_key(options.noise_model),
    )


def cache_get(key: tuple) -> Optional["ExecutionPlan"]:
    """The cached plan for ``key``, or ``None`` (counted either way)."""
    global _HITS, _MISSES
    with _LOCK:
        entry = _CACHE.get(key)
        if entry is None:
            _MISSES += 1
            return None
        _CACHE.move_to_end(key)
        _HITS += 1
        return entry.plan


def cache_put(key: tuple, options: "RunOptions", plan: "ExecutionPlan") -> None:
    """Insert ``plan`` under ``key``, evicting the least recently used entry.

    ``options`` supplies the pass and noise objects whose ids the key
    holds; the entry pins them.
    """
    entry = _Entry(plan, options.noise_model, options.passes)
    with _LOCK:
        _CACHE[key] = entry
        _CACHE.move_to_end(key)
        while len(_CACHE) > _MAXSIZE:
            _CACHE.popitem(last=False)


def plan_cache_info() -> Dict[str, int]:
    """Cache counters: ``{"hits", "misses", "size", "maxsize"}``."""
    with _LOCK:
        return {
            "hits": _HITS,
            "misses": _MISSES,
            "size": len(_CACHE),
            "maxsize": _MAXSIZE,
        }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    global _HITS, _MISSES
    with _LOCK:
        _CACHE.clear()
        _HITS = 0
        _MISSES = 0
