"""Compiled execution plans: lower once, run many.

:func:`compile_plan` lowers a (possibly parametric) circuit into an
:class:`ExecutionPlan` — a flat sequence of precomputed ops (gate tensors
reshaped for ``tensordot`` with contraction axes resolved, Kraus groups,
noise-model rules matched per instruction, parametric slots that
:meth:`~ExecutionPlan.bind` resolves without re-lowering).  Backends
execute plans through one shared tight loop
(:meth:`~repro.sim.BaseBackend.execute_plan`);
:func:`run_batched_sweep` evolves all N bindings of a statevector sweep
as a single batch-axis tensor, one contraction per op, and
:func:`walk_trajectories` evolves a block of pure dynamic trajectories as
one branch tree.

Plans are cached process-wide (:mod:`repro.plan.cache`) so repeated
execution of the same circuit under the same options skips compilation.
"""

from repro.plan.plan import (
    ConditionalOp,
    DensityKrausOp,
    DensityUnitaryOp,
    ExecutionPlan,
    MeasureOp,
    ParametricSlotOp,
    PTMOp,
    ResetOp,
    TrajectoryKrausOp,
    UnitaryOp,
    add_lower_hook,
    compile_plan,
    execute_dynamic_density,
    fusion_width,
    remove_lower_hook,
    walk_trajectories,
)
from repro.plan.batch import run_batched_sweep
from repro.plan.cache import clear_plan_cache, plan_cache_info

__all__ = [
    "ConditionalOp",
    "DensityKrausOp",
    "DensityUnitaryOp",
    "ExecutionPlan",
    "MeasureOp",
    "PTMOp",
    "ParametricSlotOp",
    "ResetOp",
    "TrajectoryKrausOp",
    "UnitaryOp",
    "add_lower_hook",
    "clear_plan_cache",
    "compile_plan",
    "execute_dynamic_density",
    "fusion_width",
    "plan_cache_info",
    "remove_lower_hook",
    "run_batched_sweep",
    "walk_trajectories",
]
