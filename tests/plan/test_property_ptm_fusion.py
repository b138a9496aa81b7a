"""Property test: per-qubit PTM fusion preserves the channel it lowers.

Random noisy circuits — explicit one-, two- and three-qubit channels,
gate-noise rules, parametric slots, and gates wider than the fusion cap
— must give ptm probabilities equal to density's within 1e-9 after
binding, and the fused ops' member lists must account for every gate
and channel fed into lowering exactly once.
"""

import numpy as np
import pytest

from repro import Circuit, NoiseModel, Parameter, RunOptions, get_gate
from repro.noise import amplitude_damping, bit_flip, depolarizing
from repro.plan import PTMOp, compile_plan
from repro.plan.plan import PTM_FUSE_WIDTH
from repro.sim import get_backend

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_ONE_QUBIT = ("h", "x", "s", "t", "sdg")
_TWO_QUBIT = ("cx", "cz", "swap")
_CHANNELS = (depolarizing(0.04), bit_flip(0.05), amplitude_damping(0.07))
#: A fixed 3-qubit unitary: wider than the fusion cap.
_WIDE = np.linalg.qr(
    np.random.default_rng(3).standard_normal((8, 8))
    + 1j * np.random.default_rng(4).standard_normal((8, 8))
)[0]
_NOISE = (
    NoiseModel()
    .add_channel(depolarizing(0.01), gates=["h", "rx"])
    .add_channel(depolarizing(0.02, num_qubits=2), gates=["cx"])
)


@st.composite
def _steps(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=4))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    kinds = ["gate1", "gate2", "channel1", "channel2", "slot"]
    if num_qubits > PTM_FUSE_WIDTH:
        kinds.append("wide")
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        kind = draw(st.sampled_from(kinds))
        if kind == "gate1":
            steps.append((kind, draw(st.sampled_from(_ONE_QUBIT)), (draw(qubit),)))
        elif kind == "gate2":
            steps.append((kind, draw(st.sampled_from(_TWO_QUBIT)), tuple(draw(pair))))
        elif kind == "channel1":
            steps.append((kind, draw(st.integers(0, len(_CHANNELS) - 1)), (draw(qubit),)))
        elif kind == "channel2":
            steps.append((kind, None, tuple(draw(pair))))
        elif kind == "slot":
            steps.append((kind, None, (draw(qubit),)))
        else:
            wide = draw(st.lists(qubit, min_size=3, max_size=3, unique=True))
            steps.append((kind, None, tuple(wide)))
    angles = draw(
        st.lists(st.floats(-3.0, 3.0), min_size=len(steps), max_size=len(steps))
    )
    return num_qubits, steps, angles


def _build(num_qubits, steps):
    circuit = Circuit(num_qubits)
    for index, (kind, what, qubits) in enumerate(steps):
        if kind in ("gate1", "gate2"):
            circuit.append(get_gate(what), qubits)
        elif kind == "channel1":
            circuit.channel(_CHANNELS[what], qubits)
        elif kind == "channel2":
            circuit.channel(depolarizing(0.03, num_qubits=2), qubits)
        elif kind == "slot":
            circuit.rx(Parameter(f"t{index}"), qubits[0])
        else:
            circuit.unitary(_WIDE, qubits)
    return circuit


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(_steps())
def test_fused_ptm_matches_density_and_keeps_every_member(case):
    num_qubits, steps, angles = case
    circuit = _build(num_qubits, steps)
    options = RunOptions(noise_model=_NOISE)
    binding = {
        parameter: angle for parameter, angle in zip(circuit.parameters(), angles)
    }

    plan = compile_plan(circuit, get_backend("ptm"), options, use_cache=False)
    bound = plan.bind(binding)
    assert all(isinstance(op, PTMOp) for op in bound.ops)
    assert all(len(op.targets) <= PTM_FUSE_WIDTH or "+" not in op.name for op in bound.ops)
    fed = sum(
        1 + len(_NOISE.channels_for(instruction)) if not instruction.is_channel else 1
        for instruction in circuit
    )
    assert sum(op.name.count("+") + 1 for op in bound.ops) == fed

    pauli = get_backend("ptm").execute_plan(bound)
    rho = get_backend("density_matrix").run(circuit.bind(binding), options=options)
    assert np.max(np.abs(pauli.probabilities() - rho.probabilities())) < 1e-9
