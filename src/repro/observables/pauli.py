"""Pauli-string observables: :class:`Pauli` and :class:`PauliSum`.

A :class:`Pauli` is a tensor product of single-qubit Pauli factors
(``I``, ``X``, ``Y``, ``Z``) on named qubit indices; a :class:`PauliSum`
is a real-weighted sum of such strings — the standard sparse form of a
Hermitian observable.  Neither ever materialises its ``2**n x 2**n``
matrix: expectation values are computed factor by factor on the state
tensor (see :mod:`repro.observables.expectation`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.exceptions import ExecutionError

PAULI_MATRICES: Dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _matrix in PAULI_MATRICES.values():
    _matrix.setflags(write=False)


class Pauli:
    """An immutable Pauli string, e.g. ``Pauli("XZ")`` or ``Pauli("Z", (3,))``.

    Parameters
    ----------
    label:
        A string over ``IXYZ`` (case-insensitive), one character per
        qubit in ``qubits``.
    qubits:
        The qubit index each factor acts on; defaults to
        ``range(len(label))``.

    Identity factors are normalisation only: ``Pauli("IZ")`` equals
    ``Pauli("Z", qubits=(1,))`` — both store the single non-identity
    factor ``Z`` on qubit 1.
    """

    __slots__ = ("_factors",)

    def __init__(
        self, label: str, qubits: Optional[Sequence[int]] = None
    ) -> None:
        if not isinstance(label, str) or not label:
            raise ExecutionError(
                f"Pauli label must be a non-empty string, got {label!r}"
            )
        label = label.upper()
        invalid = sorted(set(label) - set("IXYZ"))
        if invalid:
            raise ExecutionError(
                f"Pauli label {label!r} contains invalid factor(s) {invalid}; "
                "allowed: I, X, Y, Z"
            )
        if qubits is None:
            qubits = range(len(label))
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) != len(label):
            raise ExecutionError(
                f"label {label!r} has {len(label)} factor(s) but "
                f"{len(qubits)} qubit(s) were given: {qubits}"
            )
        if any(q < 0 for q in qubits):
            raise ExecutionError(f"qubit indices must be non-negative: {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ExecutionError(f"duplicate qubit indices: {qubits}")
        # Canonical sparse form: non-identity factors sorted by qubit.
        self._factors: Tuple[Tuple[int, str], ...] = tuple(
            sorted((q, c) for q, c in zip(qubits, label) if c != "I")
        )

    @property
    def factors(self) -> Tuple[Tuple[int, str], ...]:
        """The non-identity ``(qubit, factor)`` pairs, sorted by qubit."""
        return self._factors

    @property
    def qubits(self) -> Tuple[int, ...]:
        """Qubits carrying a non-identity factor, ascending."""
        return tuple(q for q, _ in self._factors)

    @property
    def weight(self) -> int:
        """Number of non-identity factors (0 for the identity string)."""
        return len(self._factors)

    @property
    def min_width(self) -> int:
        """Smallest register width this string fits on."""
        return self._factors[-1][0] + 1 if self._factors else 1

    def label(self, num_qubits: Optional[int] = None) -> str:
        """The dense ``IXYZ`` label over ``num_qubits`` (default: min width)."""
        width = self.min_width if num_qubits is None else int(num_qubits)
        if width < self.min_width:
            raise ExecutionError(
                f"Pauli acts on qubit {self.min_width - 1}, which does not "
                f"fit in {width} qubit(s)"
            )
        chars = ["I"] * width
        for q, c in self._factors:
            chars[q] = c
        return "".join(chars)

    def __mul__(self, coefficient: float) -> "PauliSum":
        return PauliSum([(coefficient, self)])

    __rmul__ = __mul__

    def __add__(self, other: Union["Pauli", "PauliSum"]) -> "PauliSum":
        return PauliSum([(1.0, self)]) + other

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pauli):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(self._factors)

    def __repr__(self) -> str:
        if not self._factors:
            return "Pauli('I')"
        label = "".join(c for _, c in self._factors)
        return f"Pauli({label!r}, qubits={self.qubits})"


TermLike = Union[Pauli, Tuple[float, Pauli]]


class PauliSum:
    """A real-weighted sum of :class:`Pauli` strings (Hermitian observable).

    Built from an iterable of terms, each either a bare :class:`Pauli`
    (coefficient 1) or a ``(coefficient, Pauli)`` pair.  Terms with equal
    Pauli strings are combined; coefficients must be real — a complex
    weight would make the observable non-Hermitian.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[TermLike]) -> None:
        combined: Dict[Pauli, float] = {}
        order: list = []
        for term in terms:
            if isinstance(term, Pauli):
                coefficient, pauli = 1.0, term
            else:
                try:
                    coefficient, pauli = term
                except (TypeError, ValueError):
                    raise ExecutionError(
                        f"PauliSum terms must be Pauli or (coefficient, "
                        f"Pauli) pairs, got {term!r}"
                    ) from None
            if not isinstance(pauli, Pauli):
                raise ExecutionError(
                    f"expected a Pauli, got {type(pauli).__name__}"
                )
            if isinstance(coefficient, complex) and coefficient.imag != 0.0:
                raise ExecutionError(
                    f"coefficient {coefficient!r} is not real; a Hermitian "
                    "observable needs real weights"
                )
            value = float(
                coefficient.real if isinstance(coefficient, complex) else coefficient
            )
            if pauli not in combined:
                order.append(pauli)
            combined[pauli] = combined.get(pauli, 0.0) + value
        if not combined:
            raise ExecutionError("PauliSum needs at least one term")
        self._terms: Tuple[Tuple[float, Pauli], ...] = tuple(
            (combined[p], p) for p in order
        )

    @property
    def terms(self) -> Tuple[Tuple[float, Pauli], ...]:
        """The ``(coefficient, Pauli)`` terms, duplicates combined."""
        return self._terms

    @property
    def min_width(self) -> int:
        """Smallest register width every term fits on."""
        return max(p.min_width for _, p in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[float, Pauli]]:
        return iter(self._terms)

    def __add__(self, other: Union[Pauli, "PauliSum"]) -> "PauliSum":
        if isinstance(other, Pauli):
            other = PauliSum([(1.0, other)])
        if not isinstance(other, PauliSum):
            return NotImplemented
        return PauliSum(tuple(self._terms) + tuple(other._terms))

    __radd__ = __add__

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum([(c * float(scalar), p) for c, p in self._terms])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return dict((p, c) for c, p in self._terms) == dict(
            (p, c) for c, p in other._terms
        )

    def __hash__(self) -> int:
        return hash(frozenset((p, c) for c, p in self._terms))

    def __repr__(self) -> str:
        body = " + ".join(f"{c:g}*{p!r}" for c, p in self._terms)
        return f"PauliSum({body})"
