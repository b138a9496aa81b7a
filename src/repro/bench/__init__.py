"""Canonical benchmark workloads: seeded circuit families at fixed sizes.

:func:`default_workloads` names each family at the sizes the analysis
CLI (``python -m repro.analysis --smoke`` / ``--certify``) and the test
suite run; noisy families pin the density-matrix backend.  The repo
benchmark itself lives in ``perfbench/`` and builds its own inputs, and
``tools/check_speed_floors.py`` races the smoke workloads across
engines and execution modes.
"""

from repro.bench.workloads import (
    Workload,
    brickwork_depolarized,
    default_workloads,
    ghz,
    ghz_depolarizing,
    layered_damped,
    layered_rotations,
    parameterized_rotations,
    random_dense,
    sweep_bindings,
)

__all__ = [
    "Workload",
    "brickwork_depolarized",
    "default_workloads",
    "ghz",
    "ghz_depolarizing",
    "layered_damped",
    "layered_rotations",
    "parameterized_rotations",
    "random_dense",
    "sweep_bindings",
]
