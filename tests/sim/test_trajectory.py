"""The Monte-Carlo trajectory backend: unbiasedness, determinism, sharding.

The second half checks the one trajectory engine, the branch-tree walk
of :func:`repro.plan.walk_trajectories`, against a reference written out
here: every trajectory evolved on its own, op by op, with each branch
rule spelled out (``_reference_trajectory``).  The reference uses only
plan ops and public API, never the engine.
"""

import contextlib

import numpy as np
import pytest

from repro import (
    Circuit,
    Instruction,
    NoiseModel,
    Pauli,
    ReadoutError,
    RunOptions,
    Statevector,
    StatevectorBackend,
    TrajectoryBackend,
    amplitude_damping,
    available_backends,
    bit_flip,
    bit_phase_flip,
    compile_plan,
    depolarizing,
    derive_seed,
    execute,
    expectation,
    get_backend,
    get_gate,
    index_to_bitstring,
    phase_damping,
    phase_flip,
)
from repro.bench import ghz_depolarizing, layered_damped
from repro.execution import api
from repro.plan import ConditionalOp, MeasureOp, ResetOp, TrajectoryKrausOp, UnitaryOp
from repro.plan import plan as plan_module
from repro.sampling.sampler import readout_probabilities
from repro.utils.exceptions import ExecutionError


def _ghz(n):
    circuit = Circuit(n).h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit


def _layered(n, depth=3):
    circuit = Circuit(n)
    for layer in range(depth):
        for q in range(n):
            circuit.ry(0.3 + 0.1 * (layer + q), q)
        for q in range(n - 1):
            circuit.cx(q, q + 1)
    return circuit


class TestRegistration:
    def test_registered(self):
        assert "trajectory" in available_backends()
        backend = get_backend("trajectory")
        assert isinstance(backend, TrajectoryBackend)
        assert backend.plan_mode == "trajectory"

    def test_accepts_gate_noise(self):
        # Unlike the statevector backend, gate noise is fine: channels
        # lower to sampled-Kraus ops.
        model = NoiseModel().add_channel(depolarizing(0.05))
        options = RunOptions(
            backend="trajectory", shots=16, seed=7, noise_model=model
        )
        result = execute(Circuit(2).h(0).cx(0, 1), options)
        assert result.counts.shots == 16


class TestUnbiasedness:
    """Trajectory averages estimate the exact density-matrix expectations."""

    @pytest.mark.parametrize(
        "circuit, model, shots, seed",
        [
            (_ghz(4), NoiseModel().add_channel(depolarizing(0.05)), 512, 11),
            (_layered(3), NoiseModel().add_channel(amplitude_damping(0.1)), 512, 11),
            # Embedded channels at n = 10, where trajectories pay off.
            (ghz_depolarizing(10), None, 128, 1234),
            (layered_damped(10, layers=2), None, 128, 1234),
        ],
        ids=[
            "ghz_depolarizing",
            "layered_damped",
            "ghz_depolarizing_10",
            "layered_damped_10",
        ],
    )
    def test_within_five_sigma_of_density(self, circuit, model, shots, seed):
        observables = tuple(
            Pauli("Z", qubits=(q,)) for q in range(circuit.num_qubits)
        )
        exact = execute(
            circuit,
            RunOptions(
                backend="density_matrix", noise_model=model, observables=observables
            ),
        ).expectation_values
        trajectory = execute(
            circuit,
            RunOptions(
                backend="trajectory",
                shots=shots,
                seed=seed,
                noise_model=model,
                observables=observables,
            ),
        )
        stds = trajectory.metadata["expectation_std"]
        for estimate, reference, std in zip(
            trajectory.expectation_values, exact, stds
        ):
            assert abs(estimate - reference) <= 5 * max(std, 1e-3)

    def test_noiseless_static_circuit_takes_deterministic_fast_path(self):
        # No channels and no dynamic ops: the plan is deterministic, so
        # the trajectory backend computes one exact statevector instead of
        # looping shots (and the final state is retained as usual).
        result = execute(
            _ghz(3),
            RunOptions(
                backend="trajectory",
                shots=8,
                seed=3,
                observables=(Pauli("ZZ", qubits=(0, 1)),),
            ),
        )
        assert result.expectation_values[0] == pytest.approx(1.0, abs=1e-12)
        assert result.state is not None
        assert "expectation_std" not in result.metadata


class TestDeterminism:
    def _run(self, max_workers):
        model = NoiseModel().add_channel(depolarizing(0.03))
        return execute(
            _layered(3),
            RunOptions(
                backend="trajectory",
                shots=64,
                seed=42,
                memory=True,
                noise_model=model,
                observables=(Pauli("Z", qubits=(0,)),),
                max_workers=max_workers,
            ),
        )

    def test_same_seed_same_outcome(self):
        first, second = self._run(1), self._run(1)
        assert first.counts == second.counts
        assert first.memory == second.memory
        assert first.expectation_values == second.expectation_values

    def test_bitwise_identical_across_worker_counts(self):
        serial, parallel = self._run(1), self._run(4)
        assert serial.counts == parallel.counts
        assert serial.memory == parallel.memory
        assert serial.expectation_values == parallel.expectation_values
        assert (
            serial.metadata["expectation_std"]
            == parallel.metadata["expectation_std"]
        )


class TestContract:
    def test_shots_zero_rejected_for_stochastic_plans(self):
        model = NoiseModel().add_channel(depolarizing(0.1))
        with pytest.raises(ExecutionError, match="trajectory"):
            execute(
                Circuit(1).h(0),
                RunOptions(backend="trajectory", noise_model=model),
            )

    def test_no_final_state_retained(self):
        model = NoiseModel().add_channel(depolarizing(0.1))
        result = execute(
            Circuit(1).h(0),
            RunOptions(backend="trajectory", shots=4, seed=0, noise_model=model),
        )
        assert result.state is None
        with pytest.raises(ExecutionError, match="no final state"):
            result.expectation(Pauli("Z", qubits=(0,)))

    def test_counts_are_clbit_register_when_measuring(self):
        circuit = Circuit(2, num_clbits=1).h(0).measure(0, 0)
        result = execute(
            circuit, RunOptions(backend="trajectory", shots=32, seed=5)
        )
        assert result.counts.num_qubits == 1
        assert set(result.counts) <= {"0", "1"}


# ----------------------------------------------------------------------
# One engine: the branch-tree walk against a per-trajectory reference
# ----------------------------------------------------------------------

ROTATIONS = ("rx", "ry", "rz")


def _random_circuit(seed, num_qubits=4, num_gates=14):
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.3:
            a, b = rng.choice(num_qubits, 2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            rotation = getattr(circuit, ROTATIONS[int(rng.integers(3))])
            rotation(float(rng.uniform(-np.pi, np.pi)), int(rng.integers(num_qubits)))
    return circuit


PAULI_CHANNELS = {
    "depolarizing": [(depolarizing(0.05), ROTATIONS), (depolarizing(0.1, 2), ["cx"])],
    "bit_flip": [(bit_flip(0.04), None)],
    "phase_flip": [(phase_flip(0.04), None)],
    "bit_phase_flip": [(bit_phase_flip(0.04), None)],
}


def _pauli_model(noise):
    model = NoiseModel()
    for channel, gates in PAULI_CHANNELS[noise]:
        model.add_channel(channel, gates=gates)
    if noise == "depolarizing":
        model.set_readout_error(ReadoutError(0.02, 0.03))
    return model

OBSERVABLES = (Pauli("Z", qubits=(0,)), Pauli("XX", qubits=(1, 2)))


def _options(model, **overrides):
    fields = dict(
        backend="trajectory",
        shots=48,
        seed=17,
        memory=True,
        noise_model=model,
        observables=OBSERVABLES,
        max_workers=1,
    )
    fields.update(overrides)
    return RunOptions(**fields)


STATE_DEPENDENT = {
    "amplitude_damping": (
        lambda: _random_circuit(4),
        lambda: NoiseModel().add_channel(amplitude_damping(0.1)),
    ),
    "phase_damping": (
        lambda: _random_circuit(4),
        lambda: NoiseModel().add_channel(phase_damping(0.1)),
    ),
    "mixed_general_and_pauli": (
        lambda: _random_circuit(4),
        lambda: NoiseModel()
        .add_channel(depolarizing(0.05), gates=["rx", "ry"])
        .add_channel(amplitude_damping(0.1), gates=["rz"]),
    ),
    "measure": (
        lambda: _random_circuit(4, num_qubits=3).measure(0, 0),
        lambda: NoiseModel().add_channel(depolarizing(0.05)),
    ),
    "reset": (
        lambda: _random_circuit(4, num_qubits=3).reset(1),
        lambda: NoiseModel().add_channel(depolarizing(0.05)),
    ),
    "if_bit": (
        lambda: _random_circuit(4, num_qubits=3)
        .measure(0, 0)
        .if_bit(0, 1, Instruction(get_gate("x"), (2,))),
        lambda: NoiseModel().add_channel(depolarizing(0.05)),
    ),
    "pinned_clbits": (
        lambda: Circuit(3, num_clbits=1).h(0).cx(0, 1),
        lambda: NoiseModel().add_channel(depolarizing(0.05)),
    ),
}


def _statevector_dynamic():
    """Measure, reset and if_bit on the noiseless statevector backend."""
    return (
        _random_circuit(13, num_qubits=3)
        .measure(0, 0)
        .reset(0)
        .if_bit(0, 1, Instruction(get_gate("x"), (2,)))
        .h(0)
        .measure(0, 1)
        .if_bit(1, 0, Instruction(get_gate("h"), (1,)))
    )


#: Every case the engine must reproduce bitwise: ``name -> () -> (circuit, options)``.
CASES = {
    f"{noise}-{seed}": (
        lambda seed=seed, noise=noise: (
            _random_circuit(seed),
            _options(_pauli_model(noise), seed=seed),
        )
    )
    for seed in (3, 8)
    for noise in sorted(PAULI_CHANNELS)
}
CASES.update(
    {
        case: (
            lambda case=case: (
                STATE_DEPENDENT[case][0](),
                _options(STATE_DEPENDENT[case][1]()),
            )
        )
        for case in STATE_DEPENDENT
    }
)
CASES["statevector_dynamic"] = lambda: (
    _statevector_dynamic(),
    _options(None, backend="statevector"),
)


def _fixed_choice(weights, draw):
    """The fixed-weight rule: scale the draw by the total weight, pick the
    first positive-weight branch whose cumulative weight exceeds it, and
    fall back to the heaviest branch on the trailing rounding gap."""
    draw *= sum(weights)
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if weight > 0.0 and draw < cumulative:
            return index
    return int(np.argmax(weights))


def _contract(operator, state, targets):
    k = len(targets)
    out = np.tensordot(
        operator.reshape((2,) * (2 * k)), state, axes=(tuple(range(k, 2 * k)), targets)
    )
    return np.moveaxis(out, tuple(range(k)), targets)


def _old_vdot_rule(kraus, targets, state, draw):
    """The state-dependent branch choice: weigh every Kraus candidate."""
    candidates = [_contract(operator, state, targets) for operator in kraus]
    weights = [float(np.vdot(c, c).real) for c in candidates]
    chosen = _fixed_choice(weights, draw)
    return chosen, candidates[chosen] / np.sqrt(weights[chosen])


def _reference_trajectory(plan, rng):
    """One trajectory evolved alone: ``(state, clbits, branch path)``.

    Each random op takes one ``rng.random()`` as it is reached.
    """
    state = np.zeros((2,) * plan.num_qubits, dtype=plan.dtype)
    state[(0,) * plan.num_qubits] = 1.0
    bits = [0] * plan.num_clbits
    path = []
    for op in plan.ops:
        if isinstance(op, ConditionalOp):
            if bits[op.clbit] == op.value:
                state = op.inner.apply(state)
        elif isinstance(op, TrajectoryKrausOp) and op.weights is not None:
            chosen = _fixed_choice(op.weights, rng.random())
            if op.tensors[chosen] is not None:
                state = _contract(op.tensors[chosen], state, op.targets)
            path.append(chosen)
        elif isinstance(op, TrajectoryKrausOp):
            chosen, state = _old_vdot_rule(op.tensors, op.targets, state, rng.random())
            path.append(chosen)
        elif isinstance(op, (MeasureOp, ResetOp)):
            moved = np.moveaxis(state, op.qubit, 0)
            p0 = float(np.sum(np.abs(moved[0]) ** 2))
            p1 = float(np.sum(np.abs(moved[1]) ** 2))
            outcome = 0 if rng.random() * (p0 + p1) < p0 else 1
            collapsed = np.zeros_like(state)
            slot = outcome if isinstance(op, MeasureOp) else 0
            np.moveaxis(collapsed, op.qubit, 0)[slot] = moved[outcome] / np.sqrt(
                p0 if outcome == 0 else p1
            )
            state = collapsed
            if isinstance(op, MeasureOp):
                bits[op.clbit] = outcome
            path.append(outcome)
        else:
            state = op.apply(state)
    return state, bits, tuple(path)


def _reference(circuit, options):
    """``_observed(execute(circuit, options))``, every trajectory on its own."""
    plan = compile_plan(circuit, options.backend, options)
    tally, memory, rows = {}, [], []
    for t in range(options.shots):
        rng = np.random.default_rng(derive_seed(options.seed, 0, t))
        tensor, bits, _ = _reference_trajectory(plan, rng)
        state = Statevector(tensor.reshape(-1), validate=False)
        if plan.num_clbits:
            outcome = "".join(map(str, bits))
        else:
            probs = readout_probabilities(state, options.noise_model)
            outcome = index_to_bitstring(
                int(rng.choice(probs.size, p=probs)), plan.num_qubits
            )
        tally[outcome] = tally.get(outcome, 0) + 1
        memory.append(outcome)
        rows.append([expectation(state, o) for o in options.observables])
    stacked = np.asarray(rows, dtype=np.float64).reshape(
        options.shots, len(options.observables)
    )
    means = stacked.mean(axis=0)
    stds = np.sqrt(
        np.maximum(np.mean(stacked**2, axis=0) - means**2, 0.0) / options.shots
    )
    return (
        list(tally.items()),
        memory,
        tuple(float(v) for v in means),
        tuple(float(v) for v in stds),
    )


def _observed(result):
    return (
        list(result.counts.items()),
        result.memory,
        result.expectation_values,
        result.metadata["expectation_std"],
    )


def _paths(plan, seed, start, stop):
    """Distinct branch paths of trajectories ``[start, stop)`` of element 0."""
    return {
        _reference_trajectory(plan, np.random.default_rng(derive_seed(seed, 0, t)))[2]
        for t in range(start, stop)
    }


@contextlib.contextmanager
def counting():
    """Count leaves and op applications of serial trajectory runs.

    A leaf is one finalised state.  An op application is one static or
    conditional contraction, or one branch state built by a random op.
    Yields ``(leaves, applications)``, two lists that grow as ops run.
    """
    leaves, applications = [], []
    finalize = StatevectorBackend._finalize
    apply = UnitaryOp.apply

    def counted_finalize(self, tensor, num_qubits):
        leaves.append(tensor)
        return finalize(self, tensor, num_qubits)

    def counted_apply(self, state):
        applications.append(self)
        return apply(self, state)

    def counted_table(branch_table):
        def table(self, state):
            choose, build = branch_table(self, state)

            def counted_build(branch):
                applications.append(self)
                return build(branch)

            return choose, counted_build

        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StatevectorBackend, "_finalize", counted_finalize)
        patch.setattr(UnitaryOp, "apply", counted_apply)
        for kind in (TrajectoryKrausOp, MeasureOp, ResetOp):
            patch.setattr(kind, "branch_table", counted_table(kind.branch_table))
        yield leaves, applications


@pytest.fixture()
def leaves(monkeypatch):
    """Counts the leaves of serial trajectory runs: one ``_finalize`` each."""
    calls = []
    original = StatevectorBackend._finalize

    def counting_finalize(self, tensor, num_qubits):
        calls.append(tensor)
        return original(self, tensor, num_qubits)

    monkeypatch.setattr(StatevectorBackend, "_finalize", counting_finalize)
    return calls


class TestOneEngine:
    @pytest.mark.parametrize("sanitize", ["off", "strict"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bitwise_equal_to_per_trajectory_loop(self, case, sanitize):
        circuit, options = CASES[case]()
        options = options.replace(sanitize=sanitize)
        assert _observed(execute(circuit, options)) == _reference(circuit, options)

    def test_evolutions_equal_distinct_patterns(self, leaves):
        circuit = _random_circuit(5)
        model = NoiseModel().add_channel(depolarizing(0.01), gates=ROTATIONS)
        options = _options(model, shots=200)
        plan = compile_plan(circuit, "trajectory", options)
        shard = api.trajectory_shard(plan, 0, 0, 200, options, get_backend("trajectory"))
        distinct = _paths(plan, options.seed, 0, 200)
        assert len(leaves) == len(distinct) < 50
        assert len(shard["memory"]) == 200

    def test_blocks_bound_grouping_without_changing_results(
        self, leaves, monkeypatch
    ):
        circuit = _random_circuit(6)
        options = _options(_pauli_model("depolarizing"), shots=30)
        plan = compile_plan(circuit, "trajectory", options)
        backend = get_backend("trajectory")
        whole = api.trajectory_shard(plan, 0, 0, 30, options, backend)
        leaves.clear()
        monkeypatch.setattr(api, "_TRAJECTORY_BLOCK", 7)
        blocked = api.trajectory_shard(plan, 0, 0, 30, options, backend)
        assert blocked == whole
        assert len(leaves) == sum(
            len(_paths(plan, options.seed, start, min(start + 7, 30)))
            for start in range(0, 30, 7)
        )

    @pytest.mark.parametrize("case", ["depolarizing-3", "amplitude_damping", "if_bit"])
    def test_shard_splits_merge_bitwise(self, case):
        circuit, options = CASES[case]()
        options = options.replace(shots=40)
        plan = compile_plan(circuit, options.backend, options)
        backend = get_backend(options.backend)
        whole = api.trajectory_shard(plan, 0, 0, 40, options, backend)
        assert whole["memory"] == _reference(circuit, options)[1]
        for cuts in ([0, 13, 40], [0, 1, 2, 39, 40]):
            parts = [
                api.trajectory_shard(plan, 0, a, b - a, options, backend)
                for a, b in zip(cuts, cuts[1:])
            ]
            assert sum((part["memory"] for part in parts), []) == whole["memory"]
            assert sum((part["values"] for part in parts), []) == whole["values"]

    @pytest.mark.parametrize(
        "case", ["depolarizing-8", "bit_phase_flip-3", "mixed_general_and_pauli", "reset"]
    )
    def test_bitwise_identical_across_workers(self, case, monkeypatch):
        circuit, options = CASES[case]()
        options = options.replace(shots=33)
        serial = _observed(execute(circuit, options))
        assert serial == _reference(circuit, options)
        assert _observed(execute(circuit, options.replace(max_workers=2))) == serial
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        assert _observed(execute(circuit, options.replace(max_workers=None))) == serial

    def test_sweep_bitwise_identical_across_workers(self):
        from repro import Parameter

        theta = Parameter("theta")
        template = _random_circuit(12).ry(theta, 0).cx(0, 1)
        options = _options(_pauli_model("depolarizing"), shots=24)
        sweep = [{"theta": v} for v in (0.1, 0.7, 2.0)]
        serial = [_observed(r) for r in execute(template, options, parameter_sweep=sweep)]
        parallel = execute(template, options.replace(max_workers=2), parameter_sweep=sweep)
        assert [_observed(r) for r in parallel] == serial


class TestWorkAndMemoryBounds:
    @pytest.mark.parametrize("case", sorted(STATE_DEPENDENT) + ["statevector_dynamic"])
    def test_leaves_at_most_trajectories(self, case, leaves):
        circuit, options = CASES[case]()
        options = options.replace(shots=12)
        result = execute(circuit, options)
        plan = compile_plan(circuit, options.backend, options)
        assert len(leaves) == len(_paths(plan, options.seed, 0, 12)) <= 12
        assert result.counts.shots == 12

    @pytest.mark.parametrize("cap", [None, 0], ids=["default_cap", "zero_cap"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_op_applications_at_most_leaves_times_ops(self, case, cap, monkeypatch):
        circuit, options = CASES[case]()
        if cap is not None:
            monkeypatch.setattr(plan_module, "_PENDING_STATE_BYTES", cap)
        plan = compile_plan(circuit, options.backend, options)
        backend = get_backend(options.backend)
        with counting() as (leaves, applications):
            api.trajectory_shard(plan, 0, 0, options.shots, options, backend)
        # Leaves are the distinct branch paths (on Pauli-only plans, the
        # distinct patterns), so applications stay at most patterns x ops
        # there, and at most shots x ops on every plan.
        assert len(applications) <= len(leaves) * len(plan.ops)
        assert len(leaves) == len(_paths(plan, options.seed, 0, options.shots))
        assert len(leaves) <= options.shots

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_zero_pending_cap_changes_nothing(self, case, monkeypatch):
        circuit, options = CASES[case]()
        plan = compile_plan(circuit, options.backend, options)
        backend = get_backend(options.backend)
        with counting() as (_, kept):
            expected = _observed(execute(circuit, options))
        monkeypatch.setattr(plan_module, "_PENDING_STATE_BYTES", 0)
        with counting() as (_, rebuilt):
            assert _observed(execute(circuit, options)) == expected
        # Every sibling is now rebuilt from the initial state, which costs
        # op applications whenever the tree branches at all.
        if len(_paths(plan, options.seed, 0, options.shots)) > 1:
            assert len(rebuilt) > len(kept)
        whole = api.trajectory_shard(plan, 0, 0, options.shots, options, backend)
        assert whole["memory"] == expected[1]


class TestFixedWeightRule:
    @pytest.mark.parametrize(
        "channel, targets",
        [
            (depolarizing(0.3), (1,)),
            (depolarizing(0.4, 2), (2, 0)),
            (bit_flip(0.3), (0,)),
            (phase_flip(0.3), (2,)),
            (bit_phase_flip(0.3), (1,)),
        ],
        ids=["depolarizing", "depolarizing_2q", "bit_flip", "phase_flip", "bit_phase_flip"],
    )
    def test_same_branch_and_state_as_vdot_rule(self, channel, targets):
        # One member through the op's split: the branch its draw picks
        # and the state that branch builds.
        op = TrajectoryKrausOp.from_channel(channel, targets, np.complex128)
        assert op.weights is not None
        rng = np.random.default_rng(2024)
        for _ in range(25):
            state = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = (state / np.linalg.norm(state)).reshape(2, 2, 2)
            choose, build = op.branch_table(state)
            for draw in rng.random(20):
                chosen, expected = _old_vdot_rule(
                    channel.kraus, targets, state, float(draw)
                )
                assert choose(float(draw)) == chosen
                assert np.allclose(build(chosen), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("noise", sorted(PAULI_CHANNELS))
    def test_whole_trajectories_match_vdot_rule(self, noise):
        circuit = _random_circuit(21)
        options = _options(_pauli_model(noise))
        backend = get_backend("trajectory")
        plan = compile_plan(circuit, backend, options)
        channels = {
            (channel.name, channel.num_qubits): channel
            for channel, _ in PAULI_CHANNELS[noise]
        }
        for t in range(10):
            state = np.zeros((2,) * circuit.num_qubits, dtype=complex)
            state[(0,) * circuit.num_qubits] = 1.0
            rng = np.random.default_rng(derive_seed(3, t))
            for op in plan.ops:
                if op.is_dynamic:
                    channel = channels[op.name, len(op.targets)]
                    state = _old_vdot_rule(
                        channel.kraus, op.targets, state, rng.random()
                    )[1]
                else:
                    state = op.apply(state)
            fixed = backend.execute_plan(plan, rng=np.random.default_rng(derive_seed(3, t)))
            assert np.allclose(fixed.data, state.reshape(-1), rtol=0.0, atol=1e-12)

    def test_general_channels_keep_weighing_every_branch(self):
        plan = compile_plan(
            Circuit(1).h(0),
            "trajectory",
            RunOptions(noise_model=NoiseModel().add_channel(amplitude_damping(0.2))),
        )
        (op,) = [op for op in plan.ops if op.is_dynamic]
        assert op.weights is None
