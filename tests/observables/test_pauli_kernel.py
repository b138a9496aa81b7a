"""Parity of the copy-free pure-state Pauli kernel with factor contraction.

``expectation`` and ``expectation_batched`` read X/Y factors as reversed
axes and Y/Z factors as signs.  The reference below is the path they
replaced: contract every non-identity 2x2 factor onto a complex128 copy
of the state, then take ``vdot``.  Every check holds to 1e-12.
"""

import numpy as np
import pytest

from repro.observables import Pauli, PauliSum, expectation
from repro.observables.pauli import PAULI_MATRICES
from repro.sim import Statevector
from repro.sim.backend import apply_gate_tensor


def _contracted(amplitudes, pauli):
    """``<psi|P|psi>`` by one ``apply_gate_tensor`` per factor, in complex128."""
    n = int(np.log2(np.size(amplitudes)))
    tensor = np.asarray(amplitudes, dtype=np.complex128).reshape((2,) * n)
    applied = tensor
    for qubit, factor in pauli.factors:
        applied = apply_gate_tensor(applied, PAULI_MATRICES[factor], (qubit,))
    return float(np.vdot(tensor, applied).real)


def _random_state(rng, n, dtype=np.complex128):
    amplitudes = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return (amplitudes / np.linalg.norm(amplitudes)).astype(dtype)


def _labels(rng, n, count):
    """Random IXYZ strings on ``n`` qubits, plus the all-I and all-Y ones."""
    drawn = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(count)]
    return drawn + ["I" * n, "Y" * n]


@pytest.mark.parametrize("n", range(1, 9))
def test_random_strings_match_contraction(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        amplitudes = _random_state(rng, n)
        state = Statevector(amplitudes)
        for label in _labels(rng, n, 12):
            pauli = Pauli(label)
            assert expectation(state, pauli) == pytest.approx(
                _contracted(amplitudes, pauli), abs=1e-12
            ), label


def test_pauli_sum_matches_contraction():
    rng = np.random.default_rng(11)
    amplitudes = _random_state(rng, 5)
    terms = [(float(rng.uniform(-2, 2)), Pauli(label)) for label in _labels(rng, 5, 6)]
    expected = sum(c * _contracted(amplitudes, p) for c, p in terms)
    assert expectation(Statevector(amplitudes), PauliSum(terms)) == pytest.approx(
        expected, abs=1e-12
    )


def test_complex64_states_accumulate_in_double_precision():
    rng = np.random.default_rng(13)
    for n in (3, 6, 11):
        amplitudes = _random_state(rng, n, np.complex64)
        state = Statevector(amplitudes, validate=False)
        assert state.tensor().dtype == np.complex64
        for label in _labels(rng, n, 6):
            pauli = Pauli(label)
            # The exact expectation of the single-precision amplitudes.
            assert expectation(state, pauli) == pytest.approx(
                _contracted(amplitudes, pauli), abs=1e-12
            ), label
