"""Expectation values of Pauli observables on simulated states.

No dense ``2**n x 2**n`` observable matrix is ever built.  Pure states
(:func:`expectation` and :func:`expectation_batched`) evaluate
``<P> = (-i)**#Y * sum_b conj(psi_b) * (-1)**|b & z| * psi_{b ^ x}`` in
float64, complex64 states included: the X/Y factors ``x`` are reversed
axes of the state (a view, no copy) and the Y/Z factors ``z`` signs.
Density matrices contract each 2x2 factor onto the row axes with
:func:`~repro.sim.apply_gate_tensor` and take the trace.  A
:class:`~repro.sim.PauliVector` *is* its Pauli expansion, so ``<P>`` is
one component lookup scaled by ``sqrt(2**n)``.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.observables.pauli import PAULI_MATRICES, Pauli, PauliSum
from repro.sim.backend import apply_gate_tensor
from repro.sim.density import DensityMatrix
from repro.sim.ptm import PauliVector
from repro.sim.statevector import Statevector
from repro.utils.exceptions import ExecutionError

State = Union[Statevector, DensityMatrix, PauliVector]
Observable = Union[Pauli, PauliSum]

# Pauli-basis digit of each non-identity factor (0 is the identity).
_PAULI_DIGITS = {"X": 1, "Y": 2, "Z": 3}


def _check_width(pauli: Pauli, num_qubits: int, holder: str) -> None:
    if pauli.min_width > num_qubits:
        raise ExecutionError(
            f"observable acts on qubit {pauli.min_width - 1}, but {holder} "
            f"only {num_qubits} qubit(s)"
        )


def _pauli_expectation(state: State, pauli: Pauli) -> float:
    _check_width(pauli, state.num_qubits, "the state has")
    if isinstance(state, PauliVector):
        # tr(rho P) = r[index] * sqrt(2**n): the state already stores its
        # normalised-Pauli components, so the expectation is one lookup.
        n = state.num_qubits
        index = [0] * n
        for qubit, factor in pauli.factors:
            index[qubit] = _PAULI_DIGITS[factor]
        return float(state.tensor()[tuple(index)] * 2.0 ** (n / 2.0))
    if isinstance(state, Statevector):
        return float(_pauli_expectation_batched(state.tensor()[None], pauli)[0])
    # tr(rho P): contract each factor onto the row axes, then trace.
    n = state.num_qubits
    applied = state.tensor()
    for qubit, factor in pauli.factors:
        applied = apply_gate_tensor(applied, PAULI_MATRICES[factor], (qubit,))
    # <P> of a Hermitian string is real; the residual imaginary part is
    # floating-point noise and is dropped.
    return float(np.trace(applied.reshape(1 << n, 1 << n)).real)


def _pauli_expectation_batched(states: np.ndarray, pauli: Pauli) -> np.ndarray:
    """``<P>`` of every pure state in an ``(N,) + (2,) * n`` batch, copy-free.

    ``einsum`` sums out every qubit but the signed ones, keeping the
    batch axis; the signed qubits then fold away back to front, each as
    the difference of its 0 and 1 halves.
    """
    n = states.ndim - 1
    _check_width(pauli, n, "the batch states have")
    index = [slice(None)] * (n + 1)
    signed = []  # the Y/Z qubits; factors come sorted by qubit
    num_y = 0
    for qubit, factor in pauli.factors:
        if factor != "Z":  # X and Y flip the qubit: a reversed axis
            index[qubit + 1] = slice(None, None, -1)
        if factor != "X":  # Y and Z sign it
            signed.append(qubit)
        num_y += factor == "Y"
    flipped = states[tuple(index)]  # a view
    axes, out = list(range(n + 1)), [0] + [q + 1 for q in signed]

    def dot(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return np.einsum(left, axes, right, axes, out, dtype=np.float64)

    # Re(conj(a) b) for an even number of Y factors, Im(conj(a) b) for odd.
    if num_y % 2:
        marginal = dot(states.real, flipped.imag) - dot(states.imag, flipped.real)
    else:
        marginal = dot(states.real, flipped.real) + dot(states.imag, flipped.imag)
    for _ in signed:
        marginal = marginal[..., 0] - marginal[..., 1]
    # (-i)**#Y folded into the Re/Im choice above: 1, 1, -1, -1 by #Y mod 4.
    return marginal if num_y % 4 < 2 else -marginal


def expectation_batched(states: np.ndarray, observable: Observable) -> np.ndarray:
    """Per-element ``<O>`` over a batch of pure states, in one contraction.

    Parameters
    ----------
    states:
        An ``(N,) + (2,) * n`` array of statevector tensors — axis 0 is
        the batch (sweep-point) axis, exactly the layout produced by
        :func:`repro.plan.run_batched_sweep`.
    observable:
        A :class:`Pauli` string or real-weighted :class:`PauliSum`.

    Returns
    -------
    numpy.ndarray
        ``N`` real expectation values, one per batch element, each equal
        (to floating point) to ``expectation(Statevector(states[i]), observable)``.
    """
    states = np.asarray(states)
    if states.ndim < 2 or any(d != 2 for d in states.shape[1:]):
        raise ExecutionError(
            f"expected an (N, 2, ..., 2) batch of state tensors, got "
            f"shape {states.shape}"
        )
    if isinstance(observable, Pauli):
        return _pauli_expectation_batched(states, observable)
    if isinstance(observable, PauliSum):
        total = np.zeros(states.shape[0], dtype=np.float64)
        for coefficient, pauli in observable.terms:
            total += coefficient * _pauli_expectation_batched(states, pauli)
        return total
    raise ExecutionError(
        f"cannot interpret {type(observable).__name__} as an observable; "
        "expected a Pauli or PauliSum"
    )


def expectation(state: State, observable: Observable) -> float:
    """``<O>`` of ``observable`` in ``state``.

    Parameters
    ----------
    state:
        A :class:`~repro.sim.Statevector` (``<psi|O|psi>``), a
        :class:`~repro.sim.DensityMatrix` (``tr(rho O)``), or a
        :class:`~repro.sim.PauliVector` (component lookup).
    observable:
        A :class:`Pauli` string or real-weighted :class:`PauliSum`.
    """
    if not isinstance(state, (Statevector, DensityMatrix, PauliVector)):
        raise ExecutionError(
            f"cannot take an expectation on {type(state).__name__}; "
            "expected a Statevector, DensityMatrix, or PauliVector"
        )
    if isinstance(observable, Pauli):
        return _pauli_expectation(state, observable)
    if isinstance(observable, PauliSum):
        return float(
            sum(c * _pauli_expectation(state, p) for c, p in observable.terms)
        )
    raise ExecutionError(
        f"cannot interpret {type(observable).__name__} as an observable; "
        "expected a Pauli or PauliSum"
    )
