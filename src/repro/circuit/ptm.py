"""Pauli-transfer-matrix (PTM) math over the normalised Pauli basis.

Any linear map ``E`` on ``k``-qubit operators has a real matrix
representation in the orthonormal (Hilbert-Schmidt) Pauli basis
``P_a = sigma_a / sqrt(2)`` per qubit::

    R[a, b] = Tr(P_a E(P_b))        # real for Hermiticity-preserving E

A density operator becomes the real vector ``r_a = Tr(P_a rho)`` and the
map acts by plain matrix multiplication ``r -> R r`` — which is what lets
gates and Kraus channels *compose* by multiplying their PTMs, the whole
point of the ``"ptm"`` lowering mode.  Conventions match the rest of the
library: the first qubit is the most significant base-4 digit of a
multi-qubit Pauli index (``a = (a_1 ... a_k)`` with per-qubit digits
``0=I, 1=X, 2=Y, 3=Z``), mirroring the bitstring convention of gate
matrices.

This module is deliberately dependency-free (numpy only) so every layer
— :class:`~repro.circuit.Channel` validation, plan lowering, the
``ptm`` backend, the analysis sanitizer — shares one set of conversion
routines.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.utils.exceptions import CircuitError

_SQRT2 = float(np.sqrt(2.0))

#: Normalised single-qubit Pauli basis ``sigma_a / sqrt(2)``, shape
#: ``(4, 2, 2)`` with ``a`` in ``(I, X, Y, Z)`` order — orthonormal under
#: ``Tr(A† B)``.
_SINGLE = (
    np.array(
        [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, -1j], [1j, 0]],
            [[1, 0], [0, -1]],
        ],
        dtype=complex,
    )
    / _SQRT2
)
_SINGLE.setflags(write=False)

#: ``<b| P_a |b>`` per qubit: the readout matrix mapping one Pauli axis to
#: one bit axis.  Only I and Z survive the diagonal, which is why Born
#: probabilities are a single contraction per qubit in this basis.
_READOUT = np.array(
    [
        [1.0 / _SQRT2, 1.0 / _SQRT2],
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0 / _SQRT2, -1.0 / _SQRT2],
    ],
    dtype=np.float64,
)
_READOUT.setflags(write=False)

#: The I and Z rows of :data:`_READOUT`, the only ones that are not zero.
_READOUT_IZ = np.ascontiguousarray(_READOUT[::3])
_READOUT_IZ.setflags(write=False)

_BASIS_CACHE: Dict[int, np.ndarray] = {}


def pauli_basis(num_qubits: int) -> np.ndarray:
    """The normalised ``num_qubits``-qubit Pauli basis, read-only.

    Shape ``(4**k, 2**k, 2**k)``; element ``a`` is the Kronecker product
    of single-qubit basis elements with the first qubit as the most
    significant base-4 digit of ``a``.
    """
    if num_qubits < 1:
        raise CircuitError(f"need >= 1 qubit for a Pauli basis, got {num_qubits}")
    try:
        return _BASIS_CACHE[num_qubits]
    except KeyError:
        pass
    basis = _SINGLE
    for _ in range(num_qubits - 1):
        dim = basis.shape[1]
        basis = np.einsum("aij,bkl->abikjl", basis, _SINGLE).reshape(
            basis.shape[0] * 4, dim * 2, dim * 2
        )
    basis = np.ascontiguousarray(basis)
    basis.setflags(write=False)
    _BASIS_CACHE[num_qubits] = basis
    return basis


def kraus_to_ptm(operators: Sequence[np.ndarray], num_qubits: int) -> np.ndarray:
    """The real PTM of the map ``rho -> sum_i K_i rho K_i†``.

    A unitary gate is the single-operator case: ``kraus_to_ptm((U,), k)``
    is the PTM of ``U . U†`` conjugation.  Returns a float64
    ``(4**k, 4**k)`` matrix (the imaginary part of a Hermiticity-
    preserving map's PTM is identically zero up to rounding and is
    dropped).
    """
    basis = pauli_basis(num_qubits)
    dim = 4**num_qubits
    side = 1 << num_qubits
    ptm = np.zeros((dim, dim), dtype=np.float64)
    for operator in operators:
        kraus = np.asarray(operator, dtype=complex)
        if kraus.shape != (side, side):
            raise CircuitError(
                f"Kraus operator has shape {kraus.shape}, expected "
                f"{(side, side)} for {num_qubits} qubit(s)"
            )
        # mapped[b] = K P_b K†; then R[a, b] += Tr(P_a mapped[b]).
        mapped = np.einsum("ij,bjk,lk->bil", kraus, basis, kraus.conj())
        ptm += np.einsum("aij,bji->ab", basis, mapped).real
    return ptm


def ptm_is_trace_preserving(ptm: np.ndarray, atol: float = 1e-8) -> bool:
    """TP iff the first PTM row is ``(1, 0, ..., 0)``.

    ``Tr E(rho) = sqrt(2**k) * (R r)_0``, so preserving the trace of
    every input is exactly preserving the identity component's row.
    """
    expected = np.zeros(ptm.shape[0], dtype=np.float64)
    expected[0] = 1.0
    return bool(np.allclose(ptm[0], expected, rtol=0.0, atol=atol))


def ptm_is_unital(ptm: np.ndarray, atol: float = 1e-8) -> bool:
    """Unital (fixes the maximally mixed state) iff the first column is ``e_0``."""
    expected = np.zeros(ptm.shape[0], dtype=np.float64)
    expected[0] = 1.0
    return bool(np.allclose(ptm[:, 0], expected, rtol=0.0, atol=atol))


def density_to_pauli_vector(tensor: np.ndarray) -> np.ndarray:
    """Convert a ``(2,) * 2n`` density tensor to a real ``(4,) * n`` Pauli vector.

    Component ``r[a_1, ..., a_n] = Tr(P_a rho)``; the result is real for
    Hermitian input (the rounding-level imaginary part is dropped).
    """
    if tensor.ndim % 2 != 0 or tensor.ndim == 0:
        raise CircuitError(
            f"expected a (2,) * 2n density tensor, got shape {tensor.shape}"
        )
    n = tensor.ndim // 2
    out = np.asarray(tensor, dtype=complex)
    for q in range(n):
        # Contract qubit q's sigma rows with the density columns and vice
        # versa; the new Pauli axis lands in front, so after n steps the
        # axes read (a_n, ..., a_1) and get reversed below.
        out = np.tensordot(_SINGLE, out, axes=([1, 2], [n, q]))
    out = out.transpose(tuple(reversed(range(n))))
    return np.ascontiguousarray(out.real)


def pauli_vector_to_density(tensor: np.ndarray) -> np.ndarray:
    """Convert a real ``(4,) * n`` Pauli vector to a ``(2,) * 2n`` density tensor."""
    n = tensor.ndim
    if n == 0 or tensor.shape != (4,) * n:
        raise CircuitError(
            f"expected a (4,) * n Pauli vector, got shape {tensor.shape}"
        )
    out: np.ndarray = np.asarray(tensor, dtype=complex)
    for _ in range(n):
        out = np.tensordot(out, _SINGLE, axes=([0], [0]))
    # Axes are interleaved (row_1, col_1, ..., row_n, col_n); regroup to
    # the library's rows-then-columns density layout.
    rows = tuple(range(0, 2 * n, 2))
    cols = tuple(range(1, 2 * n, 2))
    return np.ascontiguousarray(out.transpose(rows + cols))


def pauli_vector_probabilities(tensor: np.ndarray) -> np.ndarray:
    """Born probabilities of a ``(4,) * n`` Pauli vector as a ``(2,) * n`` tensor.

    Only the I/Z components of each qubit survive the computational-basis
    diagonal, so a stride-3 slice picks them out as a ``(2,) * n`` view,
    and one tiny ``(2, 2)`` product per qubit turns them into bits —
    never a detour through the dense density matrix.
    """
    n = tensor.ndim
    if n == 0 or tensor.shape != (4,) * n:
        raise CircuitError(
            f"expected a (4,) * n Pauli vector, got shape {tensor.shape}"
        )
    out: np.ndarray = np.asarray(tensor, dtype=np.float64)[(slice(None, None, 3),) * n]
    for _ in range(n):
        # Consume the leading I/Z axis, append that qubit's bit axis;
        # after n steps the axes read (b_1, ..., b_n).
        out = np.dot(out.reshape(2, -1).T, _READOUT_IZ)
    return out.reshape((2,) * n)


def pauli_vector_trace(tensor: np.ndarray) -> float:
    """``Tr(rho)`` of the state a Pauli vector represents (1 when valid).

    Only the all-identity component carries trace:
    ``Tr(rho) = r[0, ..., 0] * sqrt(2**n)``.
    """
    n = tensor.ndim
    return float(tensor[(0,) * n] * (2.0 ** (n / 2.0)))


def zero_pauli_vector(num_qubits: int) -> np.ndarray:
    """The ``|0...0><0...0|`` state as a ``(4,) * n`` float64 Pauli vector."""
    if num_qubits < 1:
        raise CircuitError(f"need >= 1 qubit, got {num_qubits}")
    # Only the I/Z corners are non-zero, each (1/sqrt2)**n; folding the
    # product left to right gives the bytes of the n-fold outer product.
    value = 1.0 / _SQRT2
    for _ in range(num_qubits - 1):
        value *= 1.0 / _SQRT2
    out = np.zeros((4,) * num_qubits, dtype=np.float64)
    out[(slice(None, None, 3),) * num_qubits] = value
    return out


__all__: List[str] = [
    "density_to_pauli_vector",
    "kraus_to_ptm",
    "pauli_basis",
    "pauli_vector_probabilities",
    "pauli_vector_to_density",
    "pauli_vector_trace",
    "ptm_is_trace_preserving",
    "ptm_is_unital",
    "zero_pauli_vector",
]
