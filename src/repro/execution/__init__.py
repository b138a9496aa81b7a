"""Execution layer: the ``execute()`` front door and its result model.

``execute(circuits, **options)`` replaces the per-function kwarg sprawl
of ``run()`` / ``sample_counts()`` with one surface:
a frozen :class:`RunOptions` bundle, a lazy :class:`Job` handle, and
:class:`Result` / :class:`BatchResult` objects carrying the final state,
counts, per-observable expectation values, and timing metadata.  The
older entry points remain as thin shims over the same machinery.
"""

from repro.execution.options import RunOptions
from repro.execution.job import BatchResult, Job, Result
from repro.execution.api import execute, submit

__all__ = ["BatchResult", "Job", "Result", "RunOptions", "execute", "submit"]
