"""Bitstring <-> index conventions, including the reshape-layout contract."""

import numpy as np
import pytest

from repro.utils.bitstrings import (
    all_bitstrings,
    bitstring_to_index,
    flip_bit,
    hamming_weight,
    index_to_bitstring,
    iter_bitstrings,
)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 5])
def test_round_trip_index_bitstring(num_qubits):
    for index in range(1 << num_qubits):
        bitstring = index_to_bitstring(index, num_qubits)
        assert len(bitstring) == num_qubits
        assert bitstring_to_index(bitstring) == index


def test_qubit_zero_is_most_significant():
    # "100" = qubit 0 set -> index 4 for 3 qubits.
    assert bitstring_to_index("100") == 4
    assert index_to_bitstring(4, 3) == "100"
    assert bitstring_to_index("001") == 1


def test_index_matches_reshape_layout():
    """Axis q of the (2,)*n reshape indexes qubit q — the documented contract."""
    num_qubits = 4
    flat = np.arange(1 << num_qubits)
    tensor = flat.reshape((2,) * num_qubits)
    for index in range(1 << num_qubits):
        bits = tuple(int(c) for c in index_to_bitstring(index, num_qubits))
        assert tensor[bits] == index


def test_index_to_bitstring_range_checks():
    with pytest.raises(ValueError):
        index_to_bitstring(-1, 2)
    with pytest.raises(ValueError):
        index_to_bitstring(4, 2)


@pytest.mark.parametrize("bad", ["", "012", "ab", "10x"])
def test_bitstring_to_index_rejects_invalid(bad):
    with pytest.raises(ValueError):
        bitstring_to_index(bad)


def _reference_valid(bitstring):
    # The per-character rule the validator must agree with exactly.
    return bool(bitstring) and all(c in "01" for c in bitstring)


@pytest.mark.parametrize(
    "key",
    ["0", "1", "01", "10110", "0" * 64, "1" * 65,
     "", "0 1", "+1", "0_1", "2", "\uff10", " 01", "01 ", "0\n", "-1", "0b1", "1a0"],
)
def test_bitstring_to_index_validation_matches_per_character_rule(key):
    if _reference_valid(key):
        assert bitstring_to_index(key) == int(key, 2)
    else:
        with pytest.raises(ValueError, match="invalid bitstring"):
            bitstring_to_index(key)


def test_hamming_weight():
    assert hamming_weight("0000") == 0
    assert hamming_weight("1011") == 3


def test_all_bitstrings_in_index_order():
    assert all_bitstrings(2) == ["00", "01", "10", "11"]


def test_iter_bitstrings_matches_all_bitstrings():
    assert list(iter_bitstrings(3)) == all_bitstrings(3)


def test_flip_bit():
    assert flip_bit("000", 0) == "100"
    assert flip_bit("111", 2) == "110"
    with pytest.raises(ValueError):
        flip_bit("01", 2)
    with pytest.raises(ValueError):
        flip_bit("01", -1)


def test_flip_bit_changes_index_by_power_of_two():
    bitstring = "0110"
    for position in range(4):
        delta = abs(
            bitstring_to_index(flip_bit(bitstring, position))
            - bitstring_to_index(bitstring)
        )
        assert delta == 1 << (len(bitstring) - 1 - position)


def test_utils_package_exports_bitstring_helpers():
    import repro.utils as utils

    for name in ("iter_bitstrings", "flip_bit"):
        assert name in utils.__all__
        assert callable(getattr(utils, name))
