"""Per-qubit gate fusion: one engine for statevector unitaries and ptm PTMs.

The payoff is in the simulator's cost model: applying a ``k``-qubit gate
to an ``n``-qubit statevector costs O(2**n * 2**k), so collapsing ``m``
small gates into one fused unitary replaces ``m`` sweeps over the 2**n
amplitude array with a single sweep — the matrix products that build the
fused gate happen in the tiny ``2**k``-dimensional gate space, off the
hot path entirely.

The fusing is done by :class:`FusionEngine`, at a local dimension of 2
for unitaries (:class:`FuseAdjacentGates`, the statevector pass) or 4
for Pauli-transfer matrices (ptm lowering in :mod:`repro.plan.plan`,
which also folds channels into its groups).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.circuit import Circuit
from repro.transpile.base import Pass
from repro.utils.exceptions import TranspilerError


def _kron(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices by one broadcast multiply."""
    a, b = left.shape[0], right.shape[0]
    return (left[:, None, :, None] * right[None, :, None, :]).reshape(a * b, a * b)


class FusionGroup:
    """An open run of operators on a few qubits, fused into one matrix.

    ``matrix`` is the product of every member so far, a
    ``(d**w, d**w)`` operator on ``qubits`` in slot order (the first
    qubit is the most significant base-``d`` digit).  ``members`` lists
    what the driver fed in, in program order (gate instructions for the
    transpile pass, op names for ptm lowering).  :meth:`merge` joins a
    group on disjoint qubits by a Kronecker product — such groups
    commute — and :meth:`absorb` left-multiplies an incoming operator
    without embedding it: once the incoming qubits sit at contiguous
    slots ``p .. p+k-1``, the product is one ``np.matmul`` over the
    ``(d**p, d**k, -1)`` view.  Nothing here mutates its inputs, so
    cached gate matrices stay shared until a second member arrives.
    """

    __slots__ = ("qubits", "matrix", "members")

    def __init__(self, qubits: Sequence[int], matrix: np.ndarray, member: Any) -> None:
        self.qubits = list(qubits)
        self.matrix = matrix
        self.members = [member]

    def merge(self, other: "FusionGroup") -> None:
        self.matrix = _kron(self.matrix, other.matrix)
        self.qubits += other.qubits
        self.members += other.members

    def absorb(
        self, qubits: Sequence[int], matrix: np.ndarray, member: Any, dim: int
    ) -> None:
        new = [q for q in qubits if q not in self.qubits]
        if new:
            self.matrix = _kron(self.matrix, np.eye(dim ** len(new)))
            self.qubits += new
        k = len(qubits)
        start = self.qubits.index(qubits[0])
        if self.qubits[start : start + k] != list(qubits):
            # Reorder the slots so the incoming qubits close the register
            # in the incoming order: a permutation of rows and columns.
            order = [q for q in self.qubits if q not in qubits] + list(qubits)
            width = len(order)
            axes = [self.qubits.index(q) for q in order]
            tensor = self.matrix.reshape((dim,) * (2 * width))
            self.matrix = tensor.transpose(axes + [a + width for a in axes]).reshape(
                dim**width, dim**width
            )
            self.qubits = order
            start = width - k
        size = self.matrix.shape[0]
        self.matrix = np.matmul(
            matrix, self.matrix.reshape(dim**start, dim**k, -1)
        ).reshape(size, size)
        self.members.append(member)


class FusionEngine:
    """Per-qubit open fusion groups over one program-order stream.

    Each qubit has at most one open group, and the open groups are
    pairwise disjoint, so they commute with one another and with
    everything emitted while they stay open.  An incoming operator
    merges the open groups on its qubits and joins them while the union
    fits ``max_width`` qubits; otherwise only those groups are emitted
    and the operator opens a new group.  An operator wider than
    ``max_width`` is emitted at once as a singleton group, after the
    open groups on its qubits.  A brickwork layer of one-qubit runs plus
    CXs therefore fuses to one two-qubit op per pair.

    ``dim`` is the local dimension of one qubit (2 for unitaries, 4 for
    PTMs).  Every closed group goes to ``emit``; two emitted groups that
    share a qubit leave in program order, so the emitted stream is
    equivalent to the fed one.
    """

    __slots__ = ("dim", "max_width", "_emit", "_open", "_owner")

    def __init__(
        self, dim: int, max_width: int, emit: Callable[[FusionGroup], None]
    ) -> None:
        self.dim = dim
        self.max_width = max_width
        self._emit = emit
        # Open groups in creation order (a dict as an ordered set), and
        # the open group, if any, that owns each qubit.
        self._open: Dict[FusionGroup, None] = {}
        self._owner: Dict[int, FusionGroup] = {}

    def _touching(self, qubits: Sequence[int]) -> List[FusionGroup]:
        owner = self._owner
        return list(dict.fromkeys(owner[q] for q in qubits if q in owner))

    def _close(self, groups: Sequence[FusionGroup]) -> None:
        for group in groups:
            del self._open[group]
            for q in group.qubits:
                del self._owner[q]
            self._emit(group)

    def emit_on(self, qubits: Sequence[int]) -> None:
        """Emit the open groups on ``qubits``; the others stay open."""
        self._close(self._touching(qubits))

    def emit_all(self) -> None:
        """Emit every open group, in creation order."""
        self._close(list(self._open))

    def feed(self, qubits: Sequence[int], matrix: np.ndarray, member: Any) -> None:
        """Fold one operator on ``qubits`` into the open groups."""
        touched = self._touching(qubits)
        if len(qubits) > self.max_width:
            self._close(touched)
            self._emit(FusionGroup(qubits, matrix, member))
            return
        width = len(set(qubits).union(*(g.qubits for g in touched)))
        if not touched or width > self.max_width:
            self._close(touched)
            group = FusionGroup(qubits, matrix, member)
            self._open[group] = None
        else:
            group = touched[0]
            for other in touched[1:]:
                group.merge(other)
                del self._open[other]
            group.absorb(qubits, matrix, member, self.dim)
        for q in group.qubits:
            self._owner[q] = group


class FuseAdjacentGates(Pass):
    """Fuse gates per qubit into explicit unitaries of at most ``max_width`` qubits.

    A :class:`FusionEngine` over the instruction stream: each gate
    merges the open groups on its qubits and joins them while the union
    fits ``max_width`` qubits; otherwise those groups are emitted and the
    gate opens a new group.  A gate wider than ``max_width`` emits only
    the groups on its own qubits, then passes through.  Channels, dynamic
    ops and unbound parametric gates emit *every* open group and pass
    through: a Kraus map or an unbound gate has no matrix to fold, and no
    unitary may move across noise, a collapse or a classical branch — so
    the barrier subsequence, and every barrier-free segment's extent,
    stay exactly as they were.  Groups still open at the end are emitted
    in creation order.

    Groups that captured two or more gates become one ``unitary``
    instruction over the group's qubits (in slot order: first-touch,
    permuted where a member needed its qubits contiguous); singleton
    groups pass through as the original instruction, so un-fusable
    circuits come back structurally identical.

    ``max_width`` trades fused-matrix cost (``4**max_width`` entries)
    against amplitude-array sweeps saved.
    :func:`repro.plan.compile_plan` picks it per plan mode with
    :func:`repro.plan.fusion_width`.
    """

    def __init__(self, max_width: int = 2) -> None:
        if max_width < 1:
            raise TranspilerError(f"max_width must be >= 1, got {max_width}")
        self.max_width = int(max_width)

    def run(self, circuit: Circuit) -> Circuit:
        from repro.gates import unitary_gate

        out = Circuit(circuit.num_qubits, circuit.name, num_clbits=circuit.num_clbits)
        out._clbits_pinned = circuit.clbits_pinned

        def emit(group: FusionGroup) -> None:
            if len(group.members) == 1:
                instruction = group.members[0]
                out.append(instruction.operation, instruction.qubits)
            else:
                out.append(
                    unitary_gate(group.matrix, validate=False), tuple(group.qubits)
                )

        engine = FusionEngine(2, self.max_width, emit)
        for instruction in circuit:
            if instruction.is_channel or instruction.is_parametric or instruction.is_dynamic:
                engine.emit_all()
                out.append(instruction.operation, instruction.qubits)
            else:
                engine.feed(instruction.qubits, instruction.gate.matrix, instruction)
        engine.emit_all()
        return out

    def __repr__(self) -> str:
        return f"FuseAdjacentGates(max_width={self.max_width})"
