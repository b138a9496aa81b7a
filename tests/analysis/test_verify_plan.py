"""Mutation tests: hand-corrupt compiled plans, assert verify_plan catches it.

Each test compiles a *valid* circuit (cache disabled so the corruption
never leaks into the process-wide plan cache), verifies the clean plan
passes, then corrupts exactly one precomputed field the executor trusts
and asserts the verifier flags it with the right stable code.
"""

import numpy as np
import pytest

from repro.analysis import AnalysisError, verify_plan
from repro.circuit import Circuit, Parameter
from repro.plan import compile_plan
from repro.plan.plan import MeasureOp, ParametricSlotOp, UnitaryOp


def _plan(circuit, backend="statevector"):
    plan = compile_plan(circuit, backend, use_cache=False)
    assert not verify_plan(plan), "fixture plan must verify clean"
    return plan


def _first_op(plan, kind):
    for op in plan.ops:
        if isinstance(op, kind):
            return op
    raise AssertionError(f"no {kind.__name__} in plan")


class TestCleanPlans:
    def test_statevector_plan_verifies_clean(self):
        _plan(Circuit(2).h(0).cx(0, 1))

    def test_density_plan_verifies_clean(self):
        from repro.noise import depolarizing

        circuit = Circuit(2).h(0).channel(depolarizing(0.05), (0,)).cx(0, 1)
        _plan(circuit, backend="density_matrix")

    def test_trajectory_plan_verifies_clean(self):
        from repro.noise import depolarizing

        circuit = Circuit(2).h(0).channel(depolarizing(0.05), (0,))
        _plan(circuit, backend="trajectory")

    def test_dynamic_plan_verifies_clean(self):
        from repro.circuit import Instruction
        from repro.gates import get_gate

        circuit = (
            Circuit(2)
            .h(0)
            .measure(0, 0)
            .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
            .reset(0)
        )
        _plan(circuit)

    def test_parametric_template_verifies_clean(self):
        theta = Parameter("theta")
        _plan(Circuit(1).ry(theta, 0))

    def test_requires_an_execution_plan(self):
        with pytest.raises(AnalysisError, match="ExecutionPlan"):
            verify_plan(Circuit(1).h(0))


class TestCorruptedPlans:
    """One corrupted-field class per test; codes are the API under test."""

    def test_out_of_range_target(self):
        plan = _plan(Circuit(2).h(0).cx(0, 1))
        op = _first_op(plan, UnitaryOp)
        op.targets = (7,)
        report = verify_plan(plan)
        assert "plan-target-range" in report.codes()
        assert report.has_errors

    def test_duplicate_targets(self):
        plan = _plan(Circuit(2).h(0).cx(0, 1))
        two_qubit = [
            op
            for op in plan.ops
            if isinstance(op, UnitaryOp) and len(op.targets) == 2
        ][0]
        two_qubit.targets = (1, 1)
        report = verify_plan(plan)
        assert "duplicate" in " ".join(d.message for d in report.errors)

    def test_wrong_shape_tensor(self):
        plan = _plan(Circuit(2).h(0).cx(0, 1))
        op = _first_op(plan, UnitaryOp)
        # Rank 3 can never be (2,) * 2k for any target count.
        op.tensor = np.zeros((2, 2, 2), dtype=plan.dtype)
        report = verify_plan(plan)
        assert "plan-shape-mismatch" in report.codes()

    def test_dtype_mismatch(self):
        plan = _plan(Circuit(1).h(0))
        op = _first_op(plan, UnitaryOp)
        op.tensor = op.tensor.astype(np.complex64)
        report = verify_plan(plan)
        assert "plan-dtype-mismatch" in report.codes()

    def test_corrupted_contraction_axes(self):
        plan = _plan(Circuit(1).h(0))
        op = _first_op(plan, UnitaryOp)
        op.in_axes = (5,)
        report = verify_plan(plan)
        assert "plan-axis-range" in report.codes()

    def test_corrupted_batch_targets(self):
        plan = _plan(Circuit(1).h(0))
        op = _first_op(plan, UnitaryOp)
        op.batch_targets = (9,)
        report = verify_plan(plan)
        assert "plan-axis-range" in report.codes()

    def test_dangling_clbit_on_measure(self):
        plan = _plan(Circuit(1).h(0).measure(0, 0))
        op = _first_op(plan, MeasureOp)
        op.clbit = 5  # beyond the plan's 1-clbit register
        report = verify_plan(plan)
        assert "plan-clbit-range" in report.codes()

    def test_cached_width_mismatch_on_measure(self):
        plan = _plan(Circuit(2).h(0).measure(0, 0))
        op = _first_op(plan, MeasureOp)
        op.num_qubits = 3
        report = verify_plan(plan)
        assert "plan-width-mismatch" in report.codes()

    def test_unknown_gate_in_parametric_slot(self):
        theta = Parameter("theta")
        plan = _plan(Circuit(1).ry(theta, 0))
        op = _first_op(plan, ParametricSlotOp)
        op.gate_name = "no-such-gate"
        report = verify_plan(plan)
        assert "plan-unknown-gate" in report.codes()

    def test_arity_mismatch_in_parametric_slot(self):
        theta = Parameter("theta")
        plan = _plan(Circuit(2).ry(theta, 0))
        op = _first_op(plan, ParametricSlotOp)
        op.targets = (0, 1)  # ry is a 1-qubit gate
        report = verify_plan(plan)
        assert "plan-unknown-gate" in report.codes()

    def test_unbindable_symbol_in_parametric_slot(self):
        theta = Parameter("theta")
        plan = _plan(Circuit(1).ry(theta, 0))
        op = _first_op(plan, ParametricSlotOp)
        op.parameters = (Parameter("ghost"),)
        report = verify_plan(plan)
        assert "plan-unbound-symbol" in report.codes()

    def test_mode_foreign_op(self):
        from repro.plan.plan import DENSITY

        pure = _plan(Circuit(1).h(0))
        density = _plan(Circuit(1).h(0), backend="density_matrix")
        density._ops = pure.ops  # statevector ops inside a density plan
        assert density.mode == DENSITY
        report = verify_plan(density)
        assert "plan-mode-mismatch" in report.codes()

    def test_unknown_plan_mode(self):
        plan = _plan(Circuit(1).h(0))
        plan._mode = "holographic"
        report = verify_plan(plan)
        assert report.codes() == ("plan-mode-mismatch",)

    def test_corrupted_conditional_inner(self):
        from repro.circuit import Instruction
        from repro.gates import get_gate
        from repro.plan.plan import ConditionalOp

        circuit = (
            Circuit(2)
            .measure(0, 0)
            .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
        )
        plan = _plan(circuit)
        conditional = _first_op(plan, ConditionalOp)
        conditional.inner.targets = (9,)
        report = verify_plan(plan)
        assert "plan-target-range" in report.codes()

    def test_conditional_value_not_a_bit(self):
        from repro.circuit import Instruction
        from repro.gates import get_gate
        from repro.plan.plan import ConditionalOp

        circuit = (
            Circuit(2)
            .measure(0, 0)
            .if_bit(0, 1, Instruction(get_gate("x"), (1,)))
        )
        plan = _plan(circuit)
        _first_op(plan, ConditionalOp).value = 2
        report = verify_plan(plan)
        assert "plan-clbit-range" in report.codes()

    def test_duplicate_parameter_symbols(self):
        theta = Parameter("theta")
        plan = _plan(Circuit(1).ry(theta, 0))
        plan._parameters = (Parameter("theta"), Parameter("theta"))
        report = verify_plan(plan)
        assert "plan-unbound-symbol" in report.codes()

    def test_site_points_at_the_corrupted_op(self):
        plan = _plan(Circuit(2).h(0).cx(0, 1))
        plan.ops[1].targets = (7, 0)
        report = verify_plan(plan)
        assert {d.site for d in report.errors} == {1}
        assert all(d.scope == "plan" for d in report.errors)


class TestDensityCorruption:
    def test_corrupted_col_targets(self):
        from repro.plan.plan import DensityUnitaryOp

        plan = _plan(Circuit(2).h(0).cx(0, 1), backend="density_matrix")
        op = _first_op(plan, DensityUnitaryOp)
        op.col_targets = tuple(op.row_targets)  # must be shifted by n
        report = verify_plan(plan)
        assert "plan-axis-range" in report.codes()

    def test_missing_conjugate_kraus_tensor(self):
        from repro.noise import depolarizing
        from repro.plan.plan import DensityKrausOp

        circuit = Circuit(1).channel(depolarizing(0.1), (0,))
        plan = _plan(circuit, backend="density_matrix")
        op = _first_op(plan, DensityKrausOp)
        op.conj_tensors = op.conj_tensors[:-1]
        report = verify_plan(plan)
        assert "plan-shape-mismatch" in report.codes()

    def test_empty_kraus_set(self):
        from repro.noise import depolarizing
        from repro.plan.plan import TrajectoryKrausOp

        circuit = Circuit(1).channel(depolarizing(0.1), (0,))
        plan = _plan(circuit, backend="trajectory")
        op = _first_op(plan, TrajectoryKrausOp)
        op.tensors = ()
        report = verify_plan(plan)
        assert "plan-shape-mismatch" in report.codes()

    def test_fixed_weight_branches_checked(self):
        from repro.noise import amplitude_damping, depolarizing
        from repro.plan.plan import TrajectoryKrausOp

        circuit = Circuit(2).channel(depolarizing(0.1), (1,))
        plan = _plan(circuit, backend="trajectory")
        assert verify_plan(plan).codes() == ()  # the identity branch is None
        op = _first_op(plan, TrajectoryKrausOp)
        tensors = op.tensors
        op.tensors = tensors[:-1] + (np.eye(4, dtype=complex),)
        assert "plan-shape-mismatch" in verify_plan(plan).codes()
        op.tensors, op.weights = tensors, op.weights[:-1]
        assert "plan-shape-mismatch" in verify_plan(plan).codes()
        # A state-dependent channel has no identity shortcut.
        plan = _plan(Circuit(1).channel(amplitude_damping(0.1), (0,)), backend="trajectory")
        op = _first_op(plan, TrajectoryKrausOp)
        op.tensors = (None,) + op.tensors[1:]
        assert "plan-shape-mismatch" in verify_plan(plan).codes()
