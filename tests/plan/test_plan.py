"""Tests for compile_plan / ExecutionPlan structure, binding, and errors."""

import numpy as np
import pytest

from repro import (
    Circuit,
    CircuitStats,
    Parameter,
    RunOptions,
    compile_plan,
    get_backend,
)
from repro.plan import (
    DensityKrausOp,
    DensityUnitaryOp,
    ExecutionPlan,
    ParametricSlotOp,
    UnitaryOp,
)
from repro.utils.exceptions import SimulationError


def _bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cx(0, 1)


class TestLowering:
    def test_statevector_plan_structure(self):
        plan = compile_plan(_bell(), "statevector")
        assert isinstance(plan, ExecutionPlan)
        assert plan.mode == "statevector"
        assert plan.num_qubits == 2
        assert len(plan) == 2
        assert all(isinstance(op, UnitaryOp) for op in plan.ops)
        assert plan.backend_name == "statevector"
        assert not plan.is_parametric

    def test_gate_tensors_prereshaped_with_axes(self):
        plan = compile_plan(_bell(), "statevector")
        h_op, cx_op = plan.ops
        assert h_op.tensor.shape == (2, 2)
        assert h_op.targets == (0,)
        assert cx_op.tensor.shape == (2, 2, 2, 2)
        assert cx_op.targets == (0, 1)
        assert cx_op.in_axes == (2, 3)

    def test_density_plan_structure(self):
        from repro.noise import depolarizing

        circuit = Circuit(2).h(0).channel(depolarizing(0.05), (0,)).cx(0, 1)
        plan = compile_plan(circuit, "density_matrix")
        assert plan.mode == "density"
        kinds = [type(op) for op in plan.ops]
        assert kinds == [DensityUnitaryOp, DensityKrausOp, DensityUnitaryOp]
        # Column axes offset by the register width.
        assert plan.ops[0].row_targets == (0,)
        assert plan.ops[0].col_targets == (2,)

    def test_noise_rules_matched_at_compile_time(self):
        from repro.noise import NoiseModel, bit_flip

        model = NoiseModel().add_channel(bit_flip(0.1), gates=["cx"])
        plan = compile_plan(
            _bell(), "density_matrix", RunOptions(noise_model=model)
        )
        kinds = [type(op) for op in plan.ops]
        # h (no rule), cx, then one bit-flip Kraus op per cx qubit.
        assert kinds == [
            DensityUnitaryOp,
            DensityUnitaryOp,
            DensityKrausOp,
            DensityKrausOp,
        ]

    def test_statevector_rejects_channels_at_compile(self):
        from repro.noise import depolarizing

        circuit = Circuit(1).h(0).channel(depolarizing(0.1), (0,))
        with pytest.raises(SimulationError, match="channel"):
            compile_plan(circuit, "statevector")

    def test_statevector_rejects_gate_noise_at_compile(self):
        from repro.noise import NoiseModel, bit_flip

        model = NoiseModel().add_channel(bit_flip(0.1))
        with pytest.raises(SimulationError, match="density_matrix"):
            compile_plan(_bell(), "statevector", RunOptions(noise_model=model))

    def test_dtype_follows_backend(self):
        from repro.sim import StatevectorBackend

        plan = compile_plan(_bell(), StatevectorBackend(dtype=np.complex64))
        assert plan.dtype == np.dtype(np.complex64)
        assert all(op.tensor.dtype == np.complex64 for op in plan.ops)

    def test_transpile_recorded_on_plan(self):
        circuit = Circuit(2).h(0).h(0).cx(0, 1)
        plan = compile_plan(circuit, None, RunOptions(optimize=True))
        assert plan.pass_stats  # per-pass dicts captured
        assert {"pass", "gates_before", "gates_after"} <= set(plan.pass_stats[0])
        assert len(plan.circuit) < len(circuit)  # h·h cancelled
        assert plan.compile_time_s >= plan.transpile_time_s >= 0
        assert isinstance(plan.stats, CircuitStats)

    def test_non_circuit_rejected(self):
        with pytest.raises(SimulationError, match="Circuit"):
            compile_plan("bell", "statevector")

    def test_bad_options_rejected(self):
        with pytest.raises(SimulationError, match="RunOptions"):
            compile_plan(_bell(), "statevector", {"shots": 4})

    def test_backend_without_plan_mode_rejected(self):
        from repro.sim import BaseBackend

        class Weird(BaseBackend):
            name = "weird"

        with pytest.raises(SimulationError, match="plan_mode"):
            compile_plan(_bell(), Weird())
        with pytest.raises(SimulationError, match="cannot resolve a backend"):
            compile_plan(_bell(), object())


class TestParametricPlans:
    def test_slots_and_parameters(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        circuit = Circuit(2).rx(theta, 0).cx(0, 1).rz(phi, 1)
        plan = compile_plan(circuit, "statevector")
        assert plan.is_parametric
        assert [p.name for p in plan.parameters] == ["theta", "phi"]
        slots = [op for op in plan.ops if isinstance(op, ParametricSlotOp)]
        assert len(slots) == 2
        assert slots[0].gate_name == "rx"

    def test_bind_shares_static_ops(self):
        theta = Parameter("theta")
        circuit = Circuit(2).h(0).ry(theta, 1)
        plan = compile_plan(circuit, "statevector")
        bound = plan.bind({"theta": 0.3})
        assert not bound.is_parametric
        assert bound.ops[0] is plan.ops[0]  # static op reused, not rebuilt
        assert isinstance(bound.ops[1], UnitaryOp)

    def test_bind_accepts_parameter_objects_and_names(self):
        theta = Parameter("theta")
        plan = compile_plan(Circuit(1).ry(theta, 0), "statevector")
        by_name = plan.bind({"theta": 0.7})
        by_object = plan.bind({theta: 0.7})
        assert np.array_equal(by_name.ops[0].tensor, by_object.ops[0].tensor)

    def test_bind_missing_parameter_rejected(self):
        a, b = Parameter("a"), Parameter("b")
        plan = compile_plan(Circuit(2).rx(a, 0).ry(b, 1), "statevector")
        with pytest.raises(SimulationError, match="unbound"):
            plan.bind({"a": 0.1})

    def test_bind_stray_key_rejected(self):
        plan = compile_plan(Circuit(1).ry(Parameter("t"), 0), "statevector")
        with pytest.raises(SimulationError, match="unknown"):
            plan.bind({"t": 0.1, "oops": 0.2})

    def test_bind_conflicting_values_rejected(self):
        theta = Parameter("t")
        plan = compile_plan(Circuit(1).ry(theta, 0), "statevector")
        with pytest.raises(SimulationError, match="conflicting"):
            plan.bind({theta: 0.1, "t": 0.2})

    def test_bind_of_bound_plan_is_identity(self):
        plan = compile_plan(_bell(), "statevector")
        assert plan.bind({}) is plan

    def test_density_bind_produces_conjugation_ops(self):
        theta = Parameter("theta")
        circuit = Circuit(1).ry(theta, 0)
        plan = compile_plan(circuit, "density_matrix")
        bound = plan.bind({theta: np.pi})
        assert isinstance(bound.ops[0], DensityUnitaryOp)
        state = get_backend("density_matrix").execute_plan(bound)
        assert state.probability("1") == pytest.approx(1.0)


class TestBindingKeepsGateCaches:
    """Binding resolves each fresh angle once; the gate caches keep none."""

    def test_fresh_angle_binds_leave_both_caches_alone(self, monkeypatch):
        from repro.gates import get_gate, registry
        from repro.plan import plan as plan_module
        from repro.plan import run_batched_sweep

        # A roomy cap, so a stored miss shows as a longer cache instead of
        # hiding behind an eviction.
        monkeypatch.setattr(registry._GATE_CACHE, "maxsize", 1 << 20)
        monkeypatch.setattr(plan_module._GATE_PTM_CACHE, "maxsize", 1 << 20)
        theta, phi = Parameter("theta"), Parameter("phi")
        template = Circuit(2).ry(theta, 0).cx(0, 1).rz(phi, 1).h(0)
        pure = compile_plan(template, "statevector")
        ptm = compile_plan(template, "ptm")
        points = [{"theta": 0.5 + 1e-3 * i, "phi": -0.25 - 1e-3 * i} for i in range(200)]
        gates, ptms = len(registry._GATE_CACHE), len(plan_module._GATE_PTM_CACHE)
        bound = [(pure.bind(point), ptm.bind(point)) for point in points]
        run_batched_sweep(pure, points)
        assert len(registry._GATE_CACHE) == gates
        assert len(plan_module._GATE_PTM_CACHE) == ptms

        for point, (pure_bound, ptm_bound) in zip(points, bound):
            for name, key in (("ry", "theta"), ("rz", "phi")):
                matrix = get_gate(name, point[key]).matrix
                (pure_op,) = [op for op in pure_bound.ops if op.name == name]
                assert pure_op.tensor.reshape(2, 2).tobytes() == matrix.tobytes()
                expected = plan_module._gate_ptm(name, (point[key],), matrix, 1)
                (ptm_op,) = [op for op in ptm_bound.ops if op.name == name]
                assert ptm_op.tensor.reshape(4, 4).tobytes() == expected.tobytes()

    def test_cached_gates_are_reused(self):
        from repro.gates import get_gate

        theta = Parameter("theta")
        plan = compile_plan(Circuit(1).ry(theta, 0), "statevector")
        cached = get_gate("ry", 0.75).matrix
        (op,) = plan.bind({"theta": 0.75}).ops
        assert np.shares_memory(op.tensor, cached)

    def test_bad_gate_shapes_still_raise(self):
        from repro.gates import register_gate
        from repro.gates.registry import _REGISTRY, transient_gate
        from repro.utils.exceptions import CircuitError

        register_gate("test_only_wide_ry", 1, 1, lambda angle: np.eye(4))
        try:
            with pytest.raises(CircuitError, match="shape"):
                transient_gate("test_only_wide_ry", 0.3)
        finally:
            _REGISTRY.pop("test_only_wide_ry")


class TestExecutePlan:
    def test_matches_run(self):
        backend = get_backend("statevector")
        plan = compile_plan(_bell(), backend)
        assert np.array_equal(
            backend.execute_plan(plan).data, backend.run(_bell()).data
        )

    def test_initial_state_respected(self):
        backend = get_backend("statevector")
        plan = compile_plan(Circuit(2).cx(0, 1), backend)
        state = backend.execute_plan(plan, initial_state="10")
        assert state.probability("11") == pytest.approx(1.0)

    def test_unbound_plan_refused(self):
        backend = get_backend("statevector")
        plan = compile_plan(Circuit(1).ry(Parameter("t"), 0), backend)
        with pytest.raises(SimulationError, match="unbound"):
            backend.execute_plan(plan)

    def test_mode_mismatch_refused(self):
        sv_plan = compile_plan(_bell(), "statevector")
        with pytest.raises(SimulationError, match="mode"):
            get_backend("density_matrix").execute_plan(sv_plan)

    def test_non_plan_refused(self):
        with pytest.raises(SimulationError, match="ExecutionPlan"):
            get_backend("statevector").execute_plan(_bell())


class TestLowerHooks:
    def test_hooks_fire_on_lowering_only(self):
        from repro.plan import add_lower_hook, remove_lower_hook

        seen = []
        hook = lambda circuit, plan: seen.append(plan)  # noqa: E731
        add_lower_hook(hook)
        try:
            plan = compile_plan(
                Circuit(1).ry(Parameter("t"), 0), "statevector", use_cache=False
            )
            assert len(seen) == 1
            plan.bind({"t": 0.1})
            plan.bind({"t": 0.2})
            assert len(seen) == 1  # bind never re-lowers
        finally:
            remove_lower_hook(hook)
        compile_plan(_bell(), "statevector", use_cache=False)
        assert len(seen) == 1  # removed hooks stay silent

    def test_non_callable_hook_rejected(self):
        from repro.plan import add_lower_hook

        with pytest.raises(SimulationError, match="callable"):
            add_lower_hook("not a function")


class TestRunBatchedSweep:
    def test_direct_use_matches_independent_runs(self):
        from repro import run, run_batched_sweep

        theta = Parameter("theta")
        template = Circuit(2).h(1).ry(theta, 0).cx(0, 1)
        plan = compile_plan(template, "statevector")
        bindings = [{"theta": v} for v in (0.0, 0.5, 2.5)]
        batch = run_batched_sweep(plan, bindings)
        assert batch.shape == (3, 2, 2)
        for i, binding in enumerate(bindings):
            reference = run(template.bind(binding))
            assert np.max(np.abs(batch[i].reshape(-1) - reference.data)) < 1e-12

    def test_bound_plan_sweeps_too(self):
        from repro import run_batched_sweep

        plan = compile_plan(_bell(), "statevector")
        batch = run_batched_sweep(plan, [{}, {}])
        assert batch.shape == (2, 2, 2)
        assert np.array_equal(batch[0], batch[1])

    def test_density_plan_rejected(self):
        from repro import run_batched_sweep

        plan = compile_plan(_bell(), "density_matrix")
        with pytest.raises(SimulationError, match="statevector"):
            run_batched_sweep(plan, [{}])

    def test_empty_bindings_rejected(self):
        from repro import run_batched_sweep

        plan = compile_plan(_bell(), "statevector")
        with pytest.raises(SimulationError, match="at least one"):
            run_batched_sweep(plan, [])

    def test_missing_parameter_rejected(self):
        from repro import run_batched_sweep

        plan = compile_plan(Circuit(1).ry(Parameter("t"), 0), "statevector")
        with pytest.raises(SimulationError, match="unbound"):
            run_batched_sweep(plan, [{"t": 0.1}, {}])

    def test_non_plan_rejected(self):
        from repro import run_batched_sweep

        with pytest.raises(SimulationError, match="ExecutionPlan"):
            run_batched_sweep(_bell(), [{}])

    def test_stray_binding_key_rejected(self):
        from repro import run_batched_sweep

        plan = compile_plan(Circuit(1).ry(Parameter("t"), 0), "statevector")
        with pytest.raises(SimulationError, match="unknown parameter"):
            run_batched_sweep(plan, [{"t": 0.1, "oops": 0.2}])
