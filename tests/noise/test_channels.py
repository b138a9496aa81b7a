"""Tests for the standard Kraus channel library."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.noise import (
    amplitude_damping,
    bit_flip,
    bit_phase_flip,
    depolarizing,
    phase_damping,
    phase_flip,
)
from repro.sim import DensityMatrix, get_backend
from repro.utils.exceptions import NoiseModelError

ALL_BUILDERS = [
    lambda: depolarizing(0.1),
    lambda: depolarizing(0.1, num_qubits=2),
    lambda: bit_flip(0.1),
    lambda: phase_flip(0.1),
    lambda: bit_phase_flip(0.1),
    lambda: amplitude_damping(0.1),
    lambda: phase_damping(0.1),
]


class TestTracePreservation:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_every_shipped_channel_is_trace_preserving(self, build):
        channel = build()
        assert channel.is_trace_preserving()
        # Explicitly verify sum(K†K) == I, not just the cached flag.
        dim = 1 << channel.num_qubits
        total = sum(k.conj().T @ k for k in channel.kraus)
        assert np.allclose(total, np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_edge_probabilities(self, build):
        assert build().is_trace_preserving()

    @pytest.mark.parametrize(
        "builder",
        [depolarizing, bit_flip, phase_flip, bit_phase_flip, amplitude_damping, phase_damping],
    )
    def test_zero_and_one_probability_trace_preserving(self, builder):
        assert builder(0.0).is_trace_preserving()
        assert builder(1.0).is_trace_preserving()


class TestValidation:
    @pytest.mark.parametrize(
        "builder",
        [depolarizing, bit_flip, phase_flip, bit_phase_flip, amplitude_damping, phase_damping],
    )
    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_out_of_range_probability_rejected(self, builder, p):
        with pytest.raises(NoiseModelError):
            builder(p)

    def test_depolarizing_bad_arity(self):
        with pytest.raises(NoiseModelError):
            depolarizing(0.1, num_qubits=0)


class TestChannelPhysics:
    def _evolve(self, channel, rho_in):
        """Apply ``channel`` to a 1-qubit density matrix directly."""
        return sum(k @ rho_in @ k.conj().T for k in channel.kraus)

    def test_depolarizing_mixes_towards_identity(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out = self._evolve(depolarizing(1.0), rho)
        assert np.allclose(out, np.eye(2) / 2)

    def test_depolarizing_zero_is_identity_channel(self):
        channel = depolarizing(0.0)
        assert len(channel.kraus) == 1
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert np.allclose(self._evolve(channel, rho), rho)

    def test_two_qubit_depolarizing_kraus_count(self):
        assert len(depolarizing(0.5, num_qubits=2).kraus) == 16

    def test_bit_flip_flips_population(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out = self._evolve(bit_flip(1.0), rho)
        assert np.allclose(out, [[0.0, 0.0], [0.0, 1.0]])

    def test_phase_flip_kills_coherence(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = self._evolve(phase_flip(0.5), rho)
        assert np.allclose(np.diag(out), [0.5, 0.5])
        assert abs(out[0, 1]) < 1e-12

    def test_amplitude_damping_decays_to_ground(self):
        rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = self._evolve(amplitude_damping(1.0), rho)
        assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_amplitude_damping_fixes_ground_state(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(self._evolve(amplitude_damping(0.3), rho), rho)

    def test_phase_damping_preserves_populations(self):
        rho = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
        out = self._evolve(phase_damping(0.5), rho)
        assert np.allclose(np.diag(out), np.diag(rho))
        assert abs(out[0, 1]) < abs(rho[0, 1])

    def test_params_recorded(self):
        assert depolarizing(0.25).params == (0.25,)
        assert amplitude_damping(0.5).params == (0.5,)


class TestChannelsOnBackend:
    def test_full_depolarizing_yields_maximally_mixed(self):
        circuit = Circuit(1).h(0).channel(depolarizing(1.0), (0,))
        state = get_backend("density_matrix").run(circuit)
        assert np.allclose(state.data, np.eye(2) / 2)
        assert state.purity() == pytest.approx(0.5)

    def test_damping_ghz_biases_towards_zero(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        circuit.channel(amplitude_damping(0.4), (0,))
        circuit.channel(amplitude_damping(0.4), (1,))
        state = get_backend("density_matrix").run(circuit)
        assert isinstance(state, DensityMatrix)
        probs = state.probabilities_dict()
        assert probs["00"] > probs["11"]
        assert sum(probs.values()) == pytest.approx(1.0)


class TestMixture:
    @pytest.mark.parametrize(
        "channel, branches",
        [
            (depolarizing(0.1), 4),
            (depolarizing(0.1, num_qubits=2), 16),
            (bit_flip(0.1), 2),
            (phase_flip(0.1), 2),
            (bit_phase_flip(0.1), 2),
        ],
        ids=["depolarizing", "depolarizing_2q", "bit_flip", "phase_flip", "bit_phase_flip"],
    )
    def test_pauli_channels_decompose(self, channel, branches):
        weights, unitaries = channel.mixture
        assert len(weights) == len(unitaries) == branches
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        # The identity branch applies nothing; every other is a frozen unitary
        # that rebuilds its Kraus operator.
        assert unitaries[0] is None
        for weight, unitary, operator in zip(weights[1:], unitaries[1:], channel.kraus[1:]):
            dim = unitary.shape[0]
            assert np.allclose(unitary.conj().T @ unitary, np.eye(dim), atol=1e-12)
            assert np.allclose(np.sqrt(weight) * unitary, operator, atol=1e-12)
            assert not unitary.flags.writeable

    @pytest.mark.parametrize("build", [lambda: amplitude_damping(0.1), lambda: phase_damping(0.1)])
    def test_damping_is_not_mixed_unitary(self, build):
        assert build().mixture is None

    def test_zero_weight_branch_has_no_unitary(self):
        weights, unitaries = bit_flip(0.0).mixture
        assert weights == (1.0, 0.0)
        assert unitaries == (None, None)

    def test_computed_once_and_left_out_of_pickles(self):
        import pickle

        channel = depolarizing(0.2, num_qubits=2)
        lean = len(pickle.dumps(channel))
        assert channel.mixture is channel.mixture
        assert len(pickle.dumps(channel)) == lean
        clone = pickle.loads(pickle.dumps(channel))
        for a, b in zip(clone.mixture[1], channel.mixture[1]):
            assert (a is None and b is None) or np.array_equal(a, b)
