"""Circuit optimisation: a pass-manager pipeline over the circuit IR.

A :class:`Pass` is a pure ``Circuit -> Circuit`` rewrite; a
:class:`PassManager` chains passes and records per-pass statistics;
:func:`transpile` is the convenience front door running the default
pipeline (drop identities, cancel inverse pairs, fuse adjacent gates).

The layer depends only on ``repro.circuit``/``repro.gates`` — simulators
opt in via ``RunOptions(optimize=True)``, which routes
through :func:`transpile` without the transpiler ever importing a backend.
"""

from repro.transpile.base import Pass, PassManager, PassStats, transpile, default_passes
from repro.transpile.cleanup import CancelInversePairs, DropIdentities
from repro.transpile.fusion import FuseAdjacentGates

__all__ = [
    "CancelInversePairs",
    "DropIdentities",
    "FuseAdjacentGates",
    "Pass",
    "PassManager",
    "PassStats",
    "default_passes",
    "transpile",
]
