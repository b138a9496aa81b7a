"""Static verification of compiled :class:`~repro.plan.ExecutionPlan` ops.

Plans are pickled across process pools and executed in a tight loop that
trusts every precomputed field — a lowering bug (or a corrupted pickle)
otherwise surfaces as a numpy axis error deep inside a worker shard, or
worse, as silently wrong amplitudes.  :func:`verify_plan` re-derives what
each op's fields *must* look like from first principles (tensor rank vs.
target count, contraction axes vs. rank, clbit indices vs. register
width, slot symbols vs. plan parameters) and reports every violation as
an error-severity :class:`~repro.analysis.diagnostics.Diagnostic` with a
stable ``plan-*`` code.

Diagnostic codes
----------------
- ``plan-mode-mismatch``  — op type foreign to the plan's lowering mode
- ``plan-target-range``   — target qubit out of range / duplicated
- ``plan-shape-mismatch`` — tensor not ``(2,) * 2k`` for a ``k``-qubit op
  (``(4,) * 2k`` real for the Pauli-transfer ops of ``"ptm"`` plans)
- ``plan-axis-range``     — contraction/batch axes inconsistent with rank
- ``plan-dtype-mismatch`` — op tensor dtype differs from the plan dtype
- ``plan-clbit-range``    — clbit index outside ``[0, num_clbits)`` or a
  conditional value outside ``{0, 1}``
- ``plan-width-mismatch`` — an op's cached register width disagrees with
  the plan's
- ``plan-unknown-gate``   — a parametric slot naming an unregistered gate
  (or one of the wrong arity)
- ``plan-unbound-symbol`` — a slot whose symbols the plan cannot bind
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.analysis.diagnostics import ERROR, AnalysisReport, Diagnostic
from repro.plan.plan import (
    DENSITY,
    PTM,
    STATEVECTOR,
    TRAJECTORY,
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
)
from repro.utils.exceptions import AnalysisError

_PURE_MODES = (STATEVECTOR, TRAJECTORY)

#: Static (non-dynamic) op types legal per lowering mode.  Dynamic ops
#: (measure/reset/conditional) are legal everywhere; trajectory Kraus
#: sampling only on the trajectory engine.
_MODE_OPS = {
    STATEVECTOR: (UnitaryOp, ParametricSlotOp, MeasureOp, ResetOp, ConditionalOp),
    TRAJECTORY: (
        UnitaryOp,
        ParametricSlotOp,
        MeasureOp,
        ResetOp,
        ConditionalOp,
        TrajectoryKrausOp,
    ),
    DENSITY: (
        DensityUnitaryOp,
        DensityKrausOp,
        ParametricSlotOp,
        MeasureOp,
        ResetOp,
        ConditionalOp,
    ),
    # PTM lowering rejects dynamic circuits outright, so only the fused
    # Pauli-transfer ops and parametric slots can appear.
    PTM: (PTMOp, ParametricSlotOp),
}


def _error(code: str, message: str, site: Optional[int]) -> Diagnostic:
    return Diagnostic(ERROR, code, message, site=site, scope="plan")


def _check_targets(
    targets: Sequence[int], num_qubits: int, label: str, site: int
) -> Iterator[Diagnostic]:
    """Targets must be distinct qubit indices inside the register."""
    bad = [t for t in targets if not (0 <= int(t) < num_qubits)]
    if bad:
        yield _error(
            "plan-target-range",
            f"{label}: target qubit(s) {bad} out of range for "
            f"{num_qubits} qubits",
            site,
        )
    if len(set(targets)) != len(targets):
        yield _error(
            "plan-target-range",
            f"{label}: duplicate target qubits {tuple(targets)}",
            site,
        )


def _check_tensor(
    tensor: np.ndarray,
    k: int,
    dtype: np.dtype,
    label: str,
    site: int,
    base: int = 2,
) -> Iterator[Diagnostic]:
    """A gate/Kraus tensor must be ``(base,) * 2k`` in the plan dtype.

    ``base`` is 2 for amplitude-space ops and 4 for the Pauli-transfer
    ops of ``"ptm"`` plans (one axis per 4-valued Pauli digit).
    """
    expected = (base,) * (2 * k)
    shape = getattr(tensor, "shape", None)
    if shape != expected:
        yield _error(
            "plan-shape-mismatch",
            f"{label}: tensor shape {shape} where {expected} is required "
            f"for {k} target(s)",
            site,
        )
        return
    if tensor.dtype != dtype:
        yield _error(
            "plan-dtype-mismatch",
            f"{label}: tensor dtype {tensor.dtype} differs from the plan "
            f"dtype {dtype}",
            site,
        )


def _check_contraction_axes(
    op: object, k: int, label: str, site: int
) -> Iterator[Diagnostic]:
    """``in_axes``/``out_axes`` must be the canonical halves of a 2k tensor."""
    if tuple(op.in_axes) != tuple(range(k, 2 * k)):
        yield _error(
            "plan-axis-range",
            f"{label}: in_axes {tuple(op.in_axes)} where "
            f"{tuple(range(k, 2 * k))} is required",
            site,
        )
    if tuple(op.out_axes) != tuple(range(k)):
        yield _error(
            "plan-axis-range",
            f"{label}: out_axes {tuple(op.out_axes)} where "
            f"{tuple(range(k))} is required",
            site,
        )


def _check_unitary(
    op: UnitaryOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    label = f"unitary {op.name!r}"
    k = len(op.targets)
    yield from _check_targets(op.targets, plan.num_qubits, label, site)
    yield from _check_tensor(op.tensor, k, plan.dtype, label, site)
    yield from _check_contraction_axes(op, k, label, site)
    if tuple(op.batch_targets) != tuple(t + 1 for t in op.targets):
        yield _error(
            "plan-axis-range",
            f"{label}: batch_targets {tuple(op.batch_targets)} are not the "
            f"targets shifted past the sweep axis",
            site,
        )


def _check_ptm(
    op: PTMOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    label = f"PTM {op.name!r}"
    k = len(op.targets)
    yield from _check_targets(op.targets, plan.num_qubits, label, site)
    yield from _check_tensor(op.tensor, k, plan.dtype, label, site, base=4)
    yield from _check_contraction_axes(op, k, label, site)


def _check_density_unitary(
    op: DensityUnitaryOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    label = f"density unitary {op.name!r}"
    k = len(op.row_targets)
    yield from _check_targets(op.row_targets, plan.num_qubits, label, site)
    expected_cols = tuple(plan.num_qubits + t for t in op.row_targets)
    if tuple(op.col_targets) != expected_cols:
        yield _error(
            "plan-axis-range",
            f"{label}: col_targets {tuple(op.col_targets)} where "
            f"{expected_cols} is required (row targets shifted by "
            f"num_qubits)",
            site,
        )
    yield from _check_tensor(op.tensor, k, plan.dtype, label, site)
    yield from _check_tensor(
        op.conj_tensor, k, plan.dtype, f"{label} (conjugate)", site
    )
    yield from _check_contraction_axes(op, k, label, site)


def _check_kraus_family(
    op: object,
    targets: Sequence[int],
    plan: ExecutionPlan,
    site: int,
    conjugates: Optional[Sequence[np.ndarray]] = None,
) -> Iterator[Diagnostic]:
    label = f"Kraus {op.name!r}"
    k = len(targets)
    yield from _check_targets(targets, plan.num_qubits, label, site)
    if not op.tensors:
        yield _error(
            "plan-shape-mismatch", f"{label}: empty Kraus operator set", site
        )
        return
    for position, tensor in enumerate(op.tensors):
        if tensor is None and getattr(op, "weights", None) is not None:
            continue  # a fixed-weight identity branch applies nothing
        yield from _check_tensor(
            tensor, k, plan.dtype, f"{label} operator {position}", site
        )
    if conjugates is not None and len(conjugates) != len(op.tensors):
        yield _error(
            "plan-shape-mismatch",
            f"{label}: {len(conjugates)} conjugate tensor(s) for "
            f"{len(op.tensors)} Kraus operator(s)",
            site,
        )
    yield from _check_contraction_axes(op, k, label, site)


def _check_slot(
    op: ParametricSlotOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    from repro.gates.registry import available_gates, gate_arity

    label = f"parametric slot {op.gate_name!r}"
    yield from _check_targets(op.targets, plan.num_qubits, label, site)
    if op.gate_name not in available_gates():
        yield _error(
            "plan-unknown-gate",
            f"{label}: gate is not in the registry; binding will fail",
            site,
        )
    elif gate_arity(op.gate_name) != len(op.targets):
        yield _error(
            "plan-unknown-gate",
            f"{label}: registry arity {gate_arity(op.gate_name)} but the "
            f"slot targets {len(op.targets)} qubit(s)",
            site,
        )
    bindable = {parameter.name for parameter in plan.parameters}
    unbound = [
        parameter.name
        for parameter in op.parameters
        if parameter.name not in bindable
    ]
    if unbound:
        yield _error(
            "plan-unbound-symbol",
            f"{label}: symbol(s) {unbound} are not among the plan "
            f"parameters {sorted(bindable)}; the slot can never bind",
            site,
        )


def _check_measure(
    op: MeasureOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    label = "measure"
    yield from _check_targets((op.qubit,), plan.num_qubits, label, site)
    if not (0 <= op.clbit < plan.num_clbits):
        yield _error(
            "plan-clbit-range",
            f"{label}: clbit {op.clbit} out of range for a "
            f"{plan.num_clbits}-clbit register",
            site,
        )
    if op.num_qubits != plan.num_qubits:
        yield _error(
            "plan-width-mismatch",
            f"{label}: op caches num_qubits={op.num_qubits} but the plan "
            f"has {plan.num_qubits}",
            site,
        )


def _check_reset(
    op: ResetOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    yield from _check_targets((op.qubit,), plan.num_qubits, "reset", site)
    if op.num_qubits != plan.num_qubits:
        yield _error(
            "plan-width-mismatch",
            f"reset: op caches num_qubits={op.num_qubits} but the plan has "
            f"{plan.num_qubits}",
            site,
        )


def _check_conditional(
    op: ConditionalOp, plan: ExecutionPlan, site: int
) -> Iterator[Diagnostic]:
    if not (0 <= op.clbit < plan.num_clbits):
        yield _error(
            "plan-clbit-range",
            f"conditional: clbit {op.clbit} out of range for a "
            f"{plan.num_clbits}-clbit register",
            site,
        )
    if op.value not in (0, 1):
        yield _error(
            "plan-clbit-range",
            f"conditional: branch value {op.value!r} is not a bit",
            site,
        )
    inner = op.inner
    if plan.mode in _PURE_MODES:
        if isinstance(inner, UnitaryOp):
            yield from _check_unitary(inner, plan, site)
        else:
            yield _error(
                "plan-mode-mismatch",
                f"conditional: inner op {type(inner).__name__} is not a "
                f"UnitaryOp in a {plan.mode} plan",
                site,
            )
    else:
        if isinstance(inner, DensityUnitaryOp):
            yield from _check_density_unitary(inner, plan, site)
        else:
            yield _error(
                "plan-mode-mismatch",
                f"conditional: inner op {type(inner).__name__} is not a "
                f"DensityUnitaryOp in a {plan.mode} plan",
                site,
            )


def _verify_ops(plan: ExecutionPlan) -> Iterator[Diagnostic]:
    allowed = _MODE_OPS[plan.mode]
    for site, op in enumerate(plan.ops):
        if not isinstance(op, allowed):
            yield _error(
                "plan-mode-mismatch",
                f"op {type(op).__name__} is not legal in a "
                f"{plan.mode} plan",
                site,
            )
            continue
        if isinstance(op, UnitaryOp):
            yield from _check_unitary(op, plan, site)
        elif isinstance(op, PTMOp):
            yield from _check_ptm(op, plan, site)
        elif isinstance(op, DensityUnitaryOp):
            yield from _check_density_unitary(op, plan, site)
        elif isinstance(op, DensityKrausOp):
            yield from _check_kraus_family(
                op, op.row_targets, plan, site, conjugates=op.conj_tensors
            )
            expected_cols = tuple(plan.num_qubits + t for t in op.row_targets)
            if tuple(op.col_targets) != expected_cols:
                yield _error(
                    "plan-axis-range",
                    f"Kraus {op.name!r}: col_targets "
                    f"{tuple(op.col_targets)} where {expected_cols} is "
                    f"required",
                    site,
                )
        elif isinstance(op, TrajectoryKrausOp):
            yield from _check_kraus_family(op, op.targets, plan, site)
            if op.weights is not None and len(op.weights) != len(op.tensors):
                yield _error(
                    "plan-shape-mismatch",
                    f"Kraus {op.name!r}: {len(op.weights)} weight(s) for "
                    f"{len(op.tensors)} branch(es)",
                    site,
                )
        elif isinstance(op, ParametricSlotOp):
            yield from _check_slot(op, plan, site)
        elif isinstance(op, MeasureOp):
            yield from _check_measure(op, plan, site)
        elif isinstance(op, ResetOp):
            yield from _check_reset(op, plan, site)
        elif isinstance(op, ConditionalOp):
            yield from _check_conditional(op, plan, site)


def verify_plan(plan: ExecutionPlan) -> AnalysisReport:
    """Statically check every op of a compiled plan; errors only.

    A clean plan returns an empty report.  Callers wanting an exception
    chain ``verify_plan(plan).raise_if_errors("plan")``.  The checks are
    pure reads — the plan is never executed or mutated — so verifying a
    parametric template is just as valid as verifying a bound plan.
    """
    if not isinstance(plan, ExecutionPlan):
        raise AnalysisError(
            f"verify_plan expects an ExecutionPlan, got {type(plan).__name__}"
        )
    diagnostics: List[Diagnostic] = []
    if plan.mode not in _MODE_OPS:
        diagnostics.append(
            _error(
                "plan-mode-mismatch",
                f"unknown plan mode {plan.mode!r}; expected one of "
                f"{sorted(_MODE_OPS)}",
                None,
            )
        )
        return AnalysisReport(diagnostics)
    if plan.num_qubits < 1:
        diagnostics.append(
            _error(
                "plan-width-mismatch",
                f"plan declares {plan.num_qubits} qubits; at least 1 is "
                f"required",
                None,
            )
        )
    if plan.num_clbits < 0:
        diagnostics.append(
            _error(
                "plan-clbit-range",
                f"plan declares a negative classical register "
                f"({plan.num_clbits} clbits)",
                None,
            )
        )
    names = [parameter.name for parameter in plan.parameters]
    if len(set(names)) != len(names):
        diagnostics.append(
            _error(
                "plan-unbound-symbol",
                f"plan parameters carry duplicate symbol names {names}",
                None,
            )
        )
    diagnostics.extend(_verify_ops(plan))
    return AnalysisReport(diagnostics)


__all__ = ["verify_plan"]
