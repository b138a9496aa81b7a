"""Cheap instruction-stream cleanups: identity drops and inverse-pair cancels."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.circuit import Circuit, Gate, Instruction
from repro.transpile.base import Pass
from repro.utils.exceptions import TranspilerError


def _within_atol(matrix: np.ndarray, reference: np.ndarray, atol: float) -> bool:
    """``np.allclose(matrix, reference, rtol=0.0, atol=atol)``, without its overhead.

    The tolerance is absolute: ``np.allclose``'s default relative
    tolerance (1e-5) would silently dominate a tight ``atol`` and accept
    measurably different matrices.  A NaN or infinite entry is never
    close to a finite reference, as in ``np.allclose``.
    """
    return float(np.max(np.abs(matrix - reference))) <= atol


class DropIdentities(Pass):
    """Remove gates whose matrix is the identity within tolerance.

    Catches zero-angle rotations (``rz(0)``, ``rx(0)``...), explicit
    ``id`` gates, and user unitaries that happen to be trivial.  By
    default only exact (phase-free) identities are dropped so the pass
    preserves the statevector bit-for-bit; ``up_to_global_phase=True``
    additionally drops ``e^{i\\phi} I`` gates (e.g. ``rz(2*pi) = -I``),
    which changes the state only by an unobservable global phase.
    """

    def __init__(self, atol: float = 1e-9, up_to_global_phase: bool = False) -> None:
        if atol < 0:
            raise TranspilerError(f"atol must be non-negative, got {atol}")
        self.atol = float(atol)
        self.up_to_global_phase = bool(up_to_global_phase)

    def _is_droppable(self, matrix: np.ndarray) -> bool:
        eye = np.eye(matrix.shape[0])
        if _within_atol(matrix, eye, self.atol):
            return True
        if self.up_to_global_phase:
            phase = matrix[0, 0]
            return abs(abs(phase) - 1.0) <= self.atol and _within_atol(
                matrix, phase * eye, self.atol
            )
        return False

    def run(self, circuit: Circuit) -> Circuit:
        out = Circuit(circuit.num_qubits, circuit.name, num_clbits=circuit.num_clbits)
        out._clbits_pinned = circuit.clbits_pinned
        for instruction in circuit:
            # Channels are never identities (they are irreversible maps);
            # parametric gates have no matrix to test until bound; dynamic
            # ops (measure/reset/if_bit) are irreversible or classically
            # controlled.  Keep all of them verbatim.
            if (
                instruction.is_channel
                or instruction.is_parametric
                or instruction.is_dynamic
                or not self._is_droppable(instruction.gate.matrix)
            ):
                out.append(instruction.operation, instruction.qubits)
        return out


class CancelInversePairs(Pass):
    """Cancel adjacent gate pairs that compose to the identity.

    "Adjacent" is causal, not positional: a gate cancels against the most
    recent surviving gate touching any of its qubits, provided that gate
    sits on exactly the same qubit tuple — anything emitted in between is
    then supported on disjoint qubits and commutes past the pair.  The
    registry's inverse rules (``s``/``sdg``, ``rx(t)``/``rx(-t)``...)
    give a fast name-level match; pairs the registry does not know fall
    back to a numeric ``U2 @ U1 == I`` check, so ``h·h`` and ``cx·cx``
    cancel too.  Cancellations cascade (``h h h h`` vanishes entirely).
    """

    def __init__(self, atol: float = 1e-9) -> None:
        if atol < 0:
            raise TranspilerError(f"atol must be non-negative, got {atol}")
        self.atol = float(atol)

    def _are_inverse(self, first: Gate, second: Gate) -> bool:
        """True when ``second`` applied after ``first`` is the identity."""
        if first.num_qubits != second.num_qubits:
            return False
        from repro.gates.registry import resolve_inverse

        candidate = resolve_inverse(first.name, first.params)
        if candidate is not None and candidate == second:
            return True
        product = second.matrix @ first.matrix
        return _within_atol(product, np.eye(product.shape[0]), self.atol)

    def run(self, circuit: Circuit) -> Circuit:
        kept: List[Instruction] = []
        for instruction in circuit:
            blocker: Optional[int] = None
            qubits = set(instruction.qubits)
            for i in range(len(kept) - 1, -1, -1):
                if qubits & set(kept[i].qubits):
                    blocker = i
                    break
            if (
                blocker is not None
                and kept[blocker].qubits == instruction.qubits
                # Channels neither cancel nor are cancelled: a channel is
                # not the inverse of anything, and a channel blocker pins
                # the gates behind it (no commuting past irreversible maps).
                # Parametric gates likewise: without a matrix there is no
                # inverse test, so they block like channels.  Dynamic ops
                # (measure/reset/if_bit) are barriers for the same reason
                # channels are: collapse is irreversible and a classical
                # branch only resolves at execution time.
                and not instruction.is_channel
                and not kept[blocker].is_channel
                and not instruction.is_parametric
                and not kept[blocker].is_parametric
                and not instruction.is_dynamic
                and not kept[blocker].is_dynamic
                and self._are_inverse(kept[blocker].gate, instruction.gate)
            ):
                kept.pop(blocker)
            else:
                kept.append(instruction)
        out = Circuit(circuit.num_qubits, circuit.name, num_clbits=circuit.num_clbits)
        out._clbits_pinned = circuit.clbits_pinned
        for instruction in kept:
            out.append(instruction.operation, instruction.qubits)
        return out
