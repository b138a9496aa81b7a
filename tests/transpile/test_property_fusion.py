"""Property tests: per-qubit statevector fusion is exact, bounded and certified.

Random circuits mix one-, two- and three-qubit gates with channels,
measure/reset/if_bit and unbound parametric gates.  After
``FuseAdjacentGates(max_width)`` they must evolve to the same state
(statevector, or density where channels or dynamic ops appear) within
1e-12, keep every barrier verbatim and in order, fuse nothing wider than
``max_width``, and carry a certificate no wider than the fusion width or
the widest input gate.  Soundness: the certifier must reject a swap of
two non-commuting gates (fused or not) and a fused matrix perturbed by
1e-6, and accept a swap of gates on disjoint qubits.
"""

import numpy as np
import pytest

from repro import Circuit, Parameter, RunOptions, get_gate
from repro.analysis import certify_rewrite
from repro.circuit import Instruction
from repro.gates import unitary_gate
from repro.noise import NoiseModel, amplitude_damping, depolarizing
from repro.plan import DensityKrausOp, TrajectoryKrausOp, compile_plan, fusion_width
from repro.sim import get_backend, run
from repro.transpile import FuseAdjacentGates, transpile

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_ONE_QUBIT = ("h", "x", "s", "t", "sdg", "rz", "ry")
_TWO_QUBIT = ("cx", "cz", "swap")
_CHANNELS = (depolarizing(0.04), amplitude_damping(0.07))
#: A fixed three-qubit unitary under its own name, so fused ``unitary``
#: gates are told apart from it.
_WIDE = unitary_gate(
    np.linalg.qr(
        np.random.default_rng(3).standard_normal((8, 8))
        + 1j * np.random.default_rng(4).standard_normal((8, 8))
    )[0],
    name="wide3",
)
_KINDS = ("gate1", "gate2", "wide", "channel", "measure", "reset", "if_bit", "slot")
_SETTINGS = dict(deadline=None, derandomize=True, database=None)


@st.composite
def _circuits(draw, kinds=_KINDS):
    num_qubits = draw(st.integers(min_value=3, max_value=5))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    circuit = Circuit(num_qubits, num_clbits=2)
    for index in range(draw(st.integers(min_value=1, max_value=24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "gate1":
            name = draw(st.sampled_from(_ONE_QUBIT))
            params = (draw(st.floats(-3.0, 3.0)),) if name in ("rz", "ry") else ()
            circuit.append(get_gate(name, *params), (draw(qubit),))
        elif kind == "gate2":
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            circuit.append(get_gate(draw(st.sampled_from(_TWO_QUBIT))), tuple(pair))
        elif kind == "wide":
            triple = draw(st.lists(qubit, min_size=3, max_size=3, unique=True))
            circuit.append(_WIDE, tuple(triple))
        elif kind == "channel":
            circuit.channel(draw(st.sampled_from(_CHANNELS)), (draw(qubit),))
        elif kind == "measure":
            circuit.measure(draw(qubit), draw(st.integers(0, 1)))
        elif kind == "reset":
            circuit.reset(draw(qubit))
        elif kind == "if_bit":
            branch = Instruction(get_gate("x"), (draw(qubit),))
            circuit.if_bit(draw(st.integers(0, 1)), draw(st.integers(0, 1)), branch)
        else:
            circuit.ry(Parameter(f"t{index}"), draw(qubit))
    return circuit


def _is_barrier(instruction):
    return instruction.is_channel or instruction.is_dynamic or instruction.is_parametric


def _evolve(circuit):
    """The exact final state: density where noise or collapse appears."""
    circuit = circuit.bind({p: 0.1 * (i + 1) for i, p in enumerate(circuit.parameters())})
    if any(i.is_channel or i.is_dynamic for i in circuit):
        return run(circuit, backend="density_matrix").data
    return run(circuit).data


@hypothesis.settings(max_examples=60, **_SETTINGS)
@hypothesis.given(_circuits(), st.sampled_from((1, 2, 3, 4)))
def test_fusion_is_exact_bounded_and_certified(circuit, max_width):
    fused = FuseAdjacentGates(max_width=max_width).run(circuit)

    assert np.max(np.abs(_evolve(fused) - _evolve(circuit))) < 1e-12
    originals = set(circuit)
    assert all(
        len(i.qubits) <= max_width for i in fused if i not in originals
    ), fused.instructions
    assert [i for i in fused if _is_barrier(i)] == [i for i in circuit if _is_barrier(i)]
    widest = max((len(i.qubits) for i in circuit if not _is_barrier(i)), default=0)
    certificate = certify_rewrite(circuit, fused, "FuseAdjacentGates")
    assert certificate.ok, certificate.diagnostics
    assert certificate.max_support <= max(max_width, widest)


def _gates_only():
    return _circuits(kinds=("gate1", "gate1", "gate2"))


def _commutator(first, second):
    """Largest entry of ``[first, second]`` on the two gates' joint support."""
    support = sorted(set(first.qubits) | set(second.qubits))
    where = {q: k for k, q in enumerate(support)}
    width = len(support)

    def unitary(order):
        circuit = Circuit(width)
        for instruction in order:
            circuit.append(instruction.gate, tuple(where[q] for q in instruction.qubits))
        columns = [run(circuit, format(b, f"0{width}b")).data for b in range(1 << width)]
        return np.stack(columns, axis=1)

    return np.max(np.abs(unitary((first, second)) - unitary((second, first))))


def _replaced(circuit, index, *instructions):
    """``circuit`` with ``instructions`` in place of those from ``index`` on."""
    out = Circuit(circuit.num_qubits, num_clbits=circuit.num_clbits)
    rest = circuit.instructions[index + len(instructions):]
    out.extend(circuit.instructions[:index] + instructions + rest)
    return out


@hypothesis.settings(max_examples=40, **_SETTINGS)
@hypothesis.given(_gates_only(), st.data())
def test_swaps_certify_only_when_the_gates_commute(circuit, data):
    hypothesis.assume(len(circuit) >= 2)
    index = data.draw(st.integers(0, len(circuit) - 2))
    first, second = circuit[index], circuit[index + 1]
    swapped = _replaced(circuit, index, second, first)
    if not set(first.qubits) & set(second.qubits):
        assert certify_rewrite(circuit, swapped).ok
        assert certify_rewrite(circuit, FuseAdjacentGates().run(swapped)).ok
    elif _commutator(first, second) > 1e-3:
        assert not certify_rewrite(circuit, swapped).ok
        for max_width in (1, 2, 3):
            fused = FuseAdjacentGates(max_width=max_width).run(swapped)
            assert not certify_rewrite(circuit, fused).ok


@hypothesis.settings(max_examples=40, **_SETTINGS)
@hypothesis.given(_gates_only(), st.sampled_from((2, 3)), st.data())
def test_perturbed_fused_matrix_is_never_certified(circuit, max_width, data):
    fused = FuseAdjacentGates(max_width=max_width).run(circuit)
    originals = set(circuit)
    targets = [k for k, i in enumerate(fused) if i not in originals]
    hypothesis.assume(targets)
    index = data.draw(st.sampled_from(targets))
    victim = fused[index]
    matrix = np.array(victim.gate.matrix)
    row = data.draw(st.integers(0, matrix.shape[0] - 1))
    col = data.draw(st.integers(0, matrix.shape[1] - 1))
    matrix[row, col] += 1e-6
    perturbed = Instruction(unitary_gate(matrix, validate=False), victim.qubits)
    certificate = certify_rewrite(circuit, _replaced(fused, index, perturbed))
    assert not certificate.ok
    assert {d.code for d in certificate.diagnostics} <= {
        "certify-not-equivalent",
        "certify-support-width",
    }


def _brickwork(num_qubits, layers, seed):
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            for name in ("rz", "ry", "rz"):
                circuit.append(get_gate(name, float(rng.uniform(-np.pi, np.pi))), (q,))
        for q in range(layer % 2, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
    return circuit


def test_brickwork_fuses_to_one_op_per_pair_per_layer():
    circuit = _brickwork(20, 3, seed=11)
    assert len(circuit) == 209
    fused = transpile(circuit)
    assert len(fused) == 30
    assert all(len(instruction.qubits) <= 2 for instruction in fused)
    # compile_plan fuses statevector plans at PURE_FUSE_WIDTH.
    plan = compile_plan(circuit, "statevector", RunOptions(optimize=True), use_cache=False)
    assert len(plan.ops) == 16
    assert all(len(op.targets) <= 4 for op in plan.ops)
    small = _brickwork(6, 3, seed=12)
    fused = FuseAdjacentGates().run(small)
    assert np.max(np.abs(run(fused).data - run(small).data)) < 1e-12
    certificate = certify_rewrite(small, fused)
    assert certificate.ok and certificate.max_support == 2


@pytest.mark.parametrize("backend", ["statevector", "trajectory", "density_matrix", "ptm"])
def test_compile_plan_fuses_at_its_modes_width(backend):
    circuit = _brickwork(6, 3, seed=13)
    mode = get_backend(backend).plan_mode
    assert fusion_width(mode) == (4 if mode == "statevector" else 2)
    plan = compile_plan(circuit, backend, RunOptions(optimize=True), use_cache=False)
    widths = [len(getattr(op, "targets", None) or op.row_targets) for op in plan.ops]
    assert max(widths) == fusion_width(mode)
    exact = run(circuit, backend=backend).probabilities()
    fused = run(circuit, backend=backend, options=RunOptions(optimize=True)).probabilities()
    assert np.max(np.abs(fused - exact)) < 1e-12


def test_noisy_modes_fire_the_same_channels_under_optimize():
    # NoiseModel rules match the fused instructions by arity, so the
    # modes that take one must fuse alike to put the same noise on the
    # same circuit.
    circuit = _brickwork(6, 3, seed=14)
    model = NoiseModel().add_channel(depolarizing(0.01)).add_channel(depolarizing(0.02, 2))
    fired = {}
    for backend in ("trajectory", "density_matrix"):
        options = RunOptions(optimize=True, noise_model=model)
        plan = compile_plan(circuit, backend, options, use_cache=False)
        fired[backend] = [
            (op.name, getattr(op, "targets", None) or op.row_targets)
            for op in plan.ops
            if isinstance(op, (TrajectoryKrausOp, DensityKrausOp))
        ]
    assert fired["trajectory"] == fired["density_matrix"]
    assert sum(len(targets) == 2 for _, targets in fired["trajectory"]) == 8


def _as_unitaries(num_qubits, steps):
    """A circuit of explicit ``unitary`` gates, so no instruction anchors a diff."""
    circuit = Circuit(num_qubits)
    for matrix, qubits in steps:
        circuit.append(unitary_gate(matrix, validate=False), qubits)
    return circuit


_H, _X, _CX = (get_gate(name).matrix for name in ("h", "x", "cx"))


def test_reordered_fusion_certifies_at_the_fusion_width():
    before = Circuit(3).h(0).cx(0, 1).x(0).cx(1, 2)
    after = _as_unitaries(3, [(_H, (0,)), (_CX, (0, 1)), (_CX, (1, 2)), (_X, (0,))])
    certificate = certify_rewrite(before, after)
    assert certificate.ok, certificate.diagnostics
    assert certificate.max_support == 2


def test_peel_does_not_commute_past_a_blocking_gate():
    # x(0) sits behind cx(0, 2), which blocks qubit 0 of the first
    # rewritten gate but not qubit 1: x(0) may not join cx(0, 1).
    before = Circuit(3).cx(0, 1).cx(0, 2).x(0)
    after = _as_unitaries(3, [(np.kron(_X, np.eye(2)) @ _CX, (0, 1)), (_CX, (0, 2))])
    assert not certify_rewrite(before, after).ok


def test_peel_rejects_a_dropped_gate():
    before = Circuit(3).h(0).cx(0, 1).cx(1, 2).x(2)
    after = _as_unitaries(3, [(_H, (0,)), (_CX, (0, 1)), (_CX, (1, 2))])
    certificate = certify_rewrite(before, after)
    assert not certificate.ok
    assert [d.code for d in certificate.diagnostics] == ["certify-not-equivalent"]
