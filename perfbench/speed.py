"""Host speed: scaling wall time to the reference host's speed.

Other tenants of a shared host slow this process by up to half for
seconds to minutes at a time, which moves every timing by more than any
bound a regression check could use.  Work of one kind slows in step with
a short probe of the same kind, so each timed call is bracketed by probe
readings and its wall time is multiplied by ``reference / probe`` (the
mean of the readings before and after it): the time the call would have
taken with the probe at its reference time, measured on the reference
host at full speed (see README.md).

Imports nothing from ``repro`` or ``numpy``, so a fresh interpreter can
probe its own speed around ``import repro`` (see ``measure.import_seconds``).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Tuple

#: Iterations of the interpreter probe loop.
PROBE_LOOPS = 8000
#: The interpreter probe's time at full speed on the reference host.
REFERENCE_PROBE_S = 5.0e-4


def probe_seconds() -> float:
    """The fastest of three runs of a fixed pure-Python loop: the interpreter's speed now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i * i
        best = min(best, time.perf_counter() - start)
    return best


def interpreter_factor(before: float, after: float) -> float:
    """The scale for interpreter-bound work between two :func:`probe_seconds` readings."""
    return 2.0 * REFERENCE_PROBE_S / (before + after)


class HostSpeed:
    """Times calls and scales them by a probe of the same kind of work.

    ``probe`` returns seconds and reads ``reference`` at full speed on the
    reference host.  The probe after one call is the reading before the
    next.
    """

    def __init__(self, probe: Callable[[], float], reference: float = REFERENCE_PROBE_S) -> None:
        self.probe = probe
        self.reference = reference
        self._last: Optional[float] = None

    def time(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
        """``(result, wall_seconds, factor)``; ``wall * factor`` is at reference speed."""
        before = self._last if self._last is not None else self.probe()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self._last = self.probe()
        return result, wall, 2.0 * self.reference / (before + self._last)
