"""Bitstring <-> basis-state-index conventions.

Convention used throughout the library:

* A computational-basis state of an ``n``-qubit register is written as a
  string of ``n`` characters, character ``i`` (left to right) being the value
  of **qubit i**, e.g. ``"011"`` means qubit 0 = 0, qubit 1 = 1, qubit 2 = 1.
* The corresponding statevector index treats qubit 0 as the most significant
  bit: ``index = sum_q bit_q << (n - 1 - q)``.  Equivalently a statevector of
  length ``2**n`` reshaped to ``(2,) * n`` has axis ``q`` indexing qubit ``q``.
"""

from __future__ import annotations

from typing import Iterator, List


def index_to_bitstring(index: int, num_qubits: int) -> str:
    """Convert a basis-state index to its bitstring (qubit 0 leftmost)."""
    if index < 0 or index >= (1 << num_qubits):
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    return format(index, f"0{num_qubits}b")


def bitstring_to_index(bitstring: str) -> int:
    """Convert a bitstring (qubit 0 leftmost) to its basis-state index."""
    # strip() leaves a character iff one is not "0"/"1": a C-level check
    # that keeps int() from accepting "+1", "0_1", " 01" or non-ASCII digits.
    if not bitstring or bitstring.strip("01"):
        raise ValueError(f"invalid bitstring {bitstring!r}")
    return int(bitstring, 2)


def hamming_weight(bitstring: str) -> int:
    """Number of '1' characters in ``bitstring``."""
    return bitstring.count("1")


def all_bitstrings(num_qubits: int) -> List[str]:
    """All ``2**num_qubits`` bitstrings in index order."""
    return [index_to_bitstring(i, num_qubits) for i in range(1 << num_qubits)]


def iter_bitstrings(num_qubits: int) -> Iterator[str]:
    """Iterate bitstrings in index order without materialising the list."""
    for i in range(1 << num_qubits):
        yield index_to_bitstring(i, num_qubits)


def flip_bit(bitstring: str, position: int) -> str:
    """Return ``bitstring`` with the bit of qubit ``position`` flipped."""
    if position < 0 or position >= len(bitstring):
        raise ValueError(f"position {position} out of range")
    flipped = "1" if bitstring[position] == "0" else "0"
    return bitstring[:position] + flipped + bitstring[position + 1 :]
