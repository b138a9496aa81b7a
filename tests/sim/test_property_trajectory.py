"""Property tests: the trajectory walk equals a per-trajectory reference.

Random 2–5-qubit circuits mix rotations and CX with Pauli channels,
amplitude and phase damping, measure, reset and if_bit, on a growing or
a pinned classical register.  For 1–64 trajectories, ``execute()`` must
return bitwise the counts, memory, expectation means and standard errors
of ``test_trajectory``'s reference, which evolves every trajectory on its
own with each branch rule written out, with the ambient worker count.
Two shard splits must merge to the same per-trajectory records, and so
must a walk whose pending-state cap is 0, which rebuilds every sibling
group from the initial state.  Op applications never exceed leaves ×
``len(plan.ops)``.
"""

import pytest

from repro import (
    Circuit,
    Instruction,
    NoiseModel,
    Pauli,
    ReadoutError,
    RunOptions,
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    compile_plan,
    depolarizing,
    execute,
    get_backend,
    get_gate,
    phase_damping,
    phase_flip,
)
from repro.execution import api
from repro.plan import plan as plan_module
from test_trajectory import _observed, _reference, counting

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_CHANNELS = (
    depolarizing(0.1),
    bit_flip(0.1),
    phase_flip(0.1),
    bit_phase_flip(0.1),
    amplitude_damping(0.2),
    phase_damping(0.2),
)
_KINDS = ("rotation", "cx", "channel", "channel2", "measure", "reset", "if_bit")
_SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def _circuits(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=5))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    clbit = st.integers(min_value=0, max_value=1)
    pinned = draw(st.booleans())
    circuit = Circuit(num_qubits, num_clbits=2) if pinned else Circuit(num_qubits)
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(_KINDS))
        if kind == "rotation":
            rotation = getattr(circuit, draw(st.sampled_from(("rx", "ry", "rz"))))
            rotation(draw(st.floats(-3.0, 3.0)), draw(qubit))
        elif kind == "cx":
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            circuit.cx(*pair)
        elif kind == "channel":
            circuit.channel(draw(st.sampled_from(_CHANNELS)), (draw(qubit),))
        elif kind == "channel2":
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            circuit.channel(depolarizing(0.15, 2), tuple(pair))
        elif kind == "measure":
            circuit.measure(draw(qubit), draw(clbit))
        elif kind == "reset":
            circuit.reset(draw(qubit))
        else:
            gate = get_gate(draw(st.sampled_from(("x", "h"))))
            circuit.if_bit(draw(clbit), draw(clbit), Instruction(gate, (draw(qubit),)))
    return circuit


_MODELS = (None, NoiseModel().set_readout_error(ReadoutError(0.05, 0.1)))


@hypothesis.settings(max_examples=60, **_SETTINGS)
@hypothesis.given(
    circuit=_circuits(),
    shots=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    model=st.sampled_from(_MODELS),
)
def test_walk_equals_per_trajectory_reference(circuit, shots, seed, model):
    options = RunOptions(
        backend="trajectory",
        shots=shots,
        seed=seed,
        memory=True,
        noise_model=model,
        observables=(Pauli("Z", qubits=(0,)), Pauli("XX", qubits=(0, 1))),
        max_workers=1,
    )
    plan = compile_plan(circuit, "trajectory", options)
    # Noiseless static circuits take the deterministic fast path instead.
    hypothesis.assume(plan.has_dynamic_ops)
    expected = _reference(circuit, options)
    backend = get_backend("trajectory")
    with counting() as (leaves, applications):
        whole = api.trajectory_shard(plan, 0, 0, shots, options, backend)
    assert len(applications) <= len(leaves) * len(plan.ops)
    assert whole["memory"] == expected[1]
    # max_workers=None: the ambient default, the pool under REPRO_MAX_WORKERS.
    assert _observed(execute(circuit, options.replace(max_workers=None))) == expected

    for cuts in ([0, shots // 3, shots], [0, 1, shots]):
        parts = [
            api.trajectory_shard(plan, 0, a, b - a, options, backend)
            for a, b in zip(cuts, cuts[1:])
            if b > a
        ]
        assert sum((part["memory"] for part in parts), []) == whole["memory"]
        assert sum((part["values"] for part in parts), []) == whole["values"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(plan_module, "_PENDING_STATE_BYTES", 0)
        with counting() as (rebuilt_leaves, rebuilt):
            assert api.trajectory_shard(plan, 0, 0, shots, options, backend) == whole
        assert len(rebuilt) <= len(rebuilt_leaves) * len(plan.ops)
        assert _observed(execute(circuit, options)) == expected
