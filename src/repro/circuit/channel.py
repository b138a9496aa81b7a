"""The :class:`Channel` leaf of the circuit IR: a CPTP map in Kraus form.

A channel is the open-system counterpart of :class:`~repro.circuit.gate.Gate`:
an immutable value object carrying a name, a qubit arity, bound real
parameters, and a tuple of ``2**k x 2**k`` Kraus operators ``K_i`` describing
the completely positive map ``rho -> sum_i K_i rho K_i†``.  Construction
validates trace preservation (``sum_i K_i† K_i == I``) so ill-normalised
noise cannot silently leak probability out of a simulation.

Channels live in the IR layer (not ``repro.noise``) for the same reason
``Gate`` does: instructions must be able to bind them to qubits without the
IR depending on the concrete channel library.  ``repro.noise`` builds the
standard channels (depolarizing, damping, ...) on top of this class.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.circuit.ptm import kraus_to_ptm, ptm_is_trace_preserving
from repro.utils.exceptions import CircuitError, NoiseModelError

_ATOL = 1e-8

#: How far ``K† K`` may stray from ``w I`` (entrywise) for a channel to
#: count as mixed-unitary.  Branch weights are then state-independent to
#: this accuracy, far inside the validation tolerance above.
_MIXTURE_ATOL = 1e-12

#: ``(weights, unitaries)`` of a mixed-unitary channel; see
#: :attr:`Channel.mixture`.
Mixture = Tuple[Tuple[float, ...], Tuple[Optional[np.ndarray], ...]]


class Channel:
    """An immutable named quantum channel acting on ``num_qubits`` qubits.

    Parameters
    ----------
    name:
        Lower-case channel mnemonic, e.g. ``"depolarizing"``.
    num_qubits:
        Arity of the channel (1 for single-qubit noise, 2 for correlated
        two-qubit noise, ...).
    kraus:
        The Kraus operators, each a ``2**num_qubits x 2**num_qubits``
        matrix.  Row/column index bits follow the library bitstring
        convention: the *first* qubit the channel is applied to is the most
        significant bit.
    params:
        Bound real parameters (error probabilities etc.); part of channel
        identity.
    validate:
        When true (default), reject Kraus sets that are not
        trace-preserving within ``atol``.  Internal callers composing
        channels from already-validated pieces may pass ``False``.
    """

    __slots__ = ("_name", "_num_qubits", "_kraus", "_params", "_ptm", "_mixture")

    def __init__(
        self,
        name: str,
        num_qubits: int,
        kraus: Sequence[np.ndarray],
        params: Sequence[float] = (),
        validate: bool = True,
        atol: float = _ATOL,
    ) -> None:
        if not name or not isinstance(name, str):
            raise CircuitError(
                f"channel name must be a non-empty string, got {name!r}"
            )
        if num_qubits < 1:
            raise CircuitError(f"channel must act on >= 1 qubit, got {num_qubits}")
        kraus = tuple(kraus)
        if not kraus:
            raise CircuitError("channel needs at least one Kraus operator")
        dim = 1 << num_qubits
        frozen = []
        for i, operator in enumerate(kraus):
            operator = np.asarray(operator, dtype=complex)
            if operator.shape != (dim, dim):
                raise CircuitError(
                    f"Kraus operator {i} has shape {operator.shape}, expected "
                    f"{(dim, dim)} for {num_qubits} qubit(s)"
                )
            operator = operator.copy()
            operator.setflags(write=False)
            frozen.append(operator)
        self._name = name
        self._num_qubits = int(num_qubits)
        self._kraus = tuple(frozen)
        self._params = tuple(float(p) for p in params)
        # A one-tuple once computed (its entry may be None): see ``mixture``.
        self._mixture: Optional[Tuple[Optional[Mixture]]] = None
        # The Pauli transfer matrix is frozen alongside the Kraus set so
        # every consumer (the ptm lowering mode, analysis rules, future
        # density-backend reuse) shares one precomputed copy.
        ptm = kraus_to_ptm(self._kraus, self._num_qubits)
        ptm.setflags(write=False)
        self._ptm = ptm
        if validate:
            if not self.is_trace_preserving(atol=atol):
                raise NoiseModelError(
                    f"channel {name!r} is not trace-preserving: "
                    f"sum(K†K) deviates from the identity beyond atol={atol}"
                )
            if not ptm_is_trace_preserving(ptm, atol=atol):
                raise NoiseModelError(
                    f"channel {name!r} is not trace-preserving in the Pauli "
                    f"basis: the first PTM row deviates from (1, 0, ..., 0) "
                    f"beyond atol={atol}"
                )

    def __getstate__(self) -> tuple:
        # The mixed-unitary decomposition is a lazy cache: pickles leave it
        # out, and the unpickled channel recomputes it on first use.
        return None, {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_mixture" and hasattr(self, name)
        }

    def __setstate__(self, state: tuple) -> None:
        # Default __slots__ pickling restores attributes but loses the Kraus
        # operators' read-only flag (numpy arrays unpickle writeable);
        # re-freeze so an unpickled channel keeps the immutability contract.
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self._mixture = None
        # Re-check the shape invariant: pickles cross process boundaries
        # (worker pools, job queues), so a corrupted payload must fail
        # here — loudly, with the constructor's error — not as an axis
        # error deep inside a contraction loop.
        dim = 1 << self._num_qubits
        for i, operator in enumerate(self._kraus):
            if operator.shape != (dim, dim):
                raise CircuitError(
                    f"Kraus operator {i} has shape {operator.shape}, expected "
                    f"{(dim, dim)} for {self._num_qubits} qubit(s)"
                )
            operator.setflags(write=False)
        try:
            ptm = self._ptm
        except AttributeError:
            # Pickle from a version predating the PTM cache: leave the
            # slot unset; the ``ptm`` property recomputes lazily.
            pass
        else:
            if ptm.shape != (4**self._num_qubits,) * 2:
                raise CircuitError(
                    f"cached PTM has shape {ptm.shape}, expected "
                    f"{(4 ** self._num_qubits,) * 2} for "
                    f"{self._num_qubits} qubit(s)"
                )
            ptm.setflags(write=False)

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def kraus(self) -> Tuple[np.ndarray, ...]:
        """The (read-only) Kraus operators of the channel."""
        return self._kraus

    @property
    def params(self) -> Tuple[float, ...]:
        return self._params

    @property
    def ptm(self) -> np.ndarray:
        """The channel's Pauli transfer matrix, precomputed and read-only.

        A real ``(4**k, 4**k)`` float64 matrix in the normalised Pauli
        basis: ``R[a, b] = Tr(P_a E(P_b))``.  Frozen at construction;
        channels unpickled from versions predating the cache recompute it
        lazily on first access.
        """
        try:
            return self._ptm
        except AttributeError:
            ptm = kraus_to_ptm(self._kraus, self._num_qubits)
            ptm.setflags(write=False)
            self._ptm = ptm
            return self._ptm

    @property
    def mixture(self) -> Optional[Mixture]:
        """The channel as a fixed mixture of unitaries, or ``None``.

        A channel is *mixed-unitary* when every Kraus operator satisfies
        ``K_i† K_i = w_i I``: then ``K_i = sqrt(w_i) U_i`` with ``U_i``
        unitary, and branch ``i`` occurs with probability ``w_i`` whatever
        the state.  Depolarizing, bit flip, phase flip and bit-phase flip
        are; amplitude and phase damping are not.  Returns ``(weights,
        unitaries)``; a read-only ``U_i`` is ``None`` where ``w_i == 0``
        or ``U_i`` is the identity, since such a branch applies nothing.
        Computed on first access and cached.
        """
        if self._mixture is None:
            self._mixture = (_mixed_unitary(self._kraus, self._num_qubits),)
        return self._mixture[0]

    def is_trace_preserving(self, atol: float = _ATOL) -> bool:
        """Whether ``sum_i K_i† K_i == I`` within ``atol``."""
        dim = 1 << self._num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for operator in self._kraus:
            total += operator.conj().T @ operator
        return bool(np.allclose(total, np.eye(dim), rtol=0.0, atol=atol))

    def is_unital(self, atol: float = _ATOL) -> bool:
        """Whether the channel fixes the maximally mixed state
        (``sum_i K_i K_i† == I``); e.g. depolarizing is unital, amplitude
        damping is not."""
        dim = 1 << self._num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for operator in self._kraus:
            total += operator @ operator.conj().T
        return bool(np.allclose(total, np.eye(dim), rtol=0.0, atol=atol))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return (
            self._name == other._name
            and self._num_qubits == other._num_qubits
            and self._params == other._params
            and len(self._kraus) == len(other._kraus)
            and all(
                np.array_equal(a, b) for a, b in zip(self._kraus, other._kraus)
            )
        )

    def __hash__(self) -> int:
        return hash((self._name, self._num_qubits, self._params))

    def __repr__(self) -> str:
        if self._params:
            args = ", ".join(f"{p:g}" for p in self._params)
            return (
                f"Channel({self._name}({args}), qubits={self._num_qubits}, "
                f"kraus={len(self._kraus)})"
            )
        return (
            f"Channel({self._name}, qubits={self._num_qubits}, "
            f"kraus={len(self._kraus)})"
        )


def _mixed_unitary(kraus: Sequence[np.ndarray], num_qubits: int) -> Optional[Mixture]:
    """Decompose ``kraus`` as ``sqrt(w_i) U_i``, or ``None`` if it is not."""
    dim = 1 << num_qubits
    identity = np.eye(dim)
    weights = []
    unitaries = []
    for operator in kraus:
        gram = operator.conj().T @ operator
        weight = float(np.trace(gram).real) / dim
        if not np.allclose(gram, weight * identity, rtol=0.0, atol=_MIXTURE_ATOL):
            return None
        unitary = None
        if weight > 0.0:
            unitary = operator / np.sqrt(weight)
            if np.allclose(unitary, identity, rtol=0.0, atol=_MIXTURE_ATOL):
                unitary = None
            else:
                unitary.setflags(write=False)
        weights.append(weight)
        unitaries.append(unitary)
    if not sum(weights) > 0.0:
        return None
    return tuple(weights), tuple(unitaries)
