"""Born-rule shot sampling of circuits and simulated states.

Sampling never loops over shots: outcomes are drawn with a single vectorised
``Generator.multinomial`` (for counts) or ``Generator.choice`` (for per-shot
memory) over the ``2**n`` probability vector.  Sources may be circuits
(simulated on any registered backend via ``backend=``), pure
:class:`~repro.sim.Statevector` states, or mixed
:class:`~repro.sim.DensityMatrix` / :class:`~repro.sim.PauliVector`
states — mixed-state sampling reads the Born probabilities straight off
the density-matrix diagonal (or the I/Z Pauli components), so a
noiseless mixed-state run reproduces the statevector backend's counts
exactly under the same seed.

Noise: a :class:`~repro.noise.NoiseModel` passed as ``noise_model=``
applies its gate channels during simulation (circuit sources only, on a
backend that represents mixed states: ``density_matrix`` or ``ptm``) and
its classical readout error to the probability vector just before the
draw.

Reproducibility contract: an integer ``seed`` plus a ``repetition`` index is
mixed through :func:`repro.utils.rng.derive_seed`, so repeated runs of the
same ``(seed, repetition)`` return identical results while different
repetitions get independent streams — regardless of the order in which they
execute, or on which worker process (see :mod:`repro.service`).

This module is also the sampling primitive of the execution layer:
:func:`repro.execute` draws through the same
:func:`readout_probabilities` / :func:`counts_from_probabilities` /
:func:`memory_from_probabilities` helpers, which is why
``execute(circuit, shots=s, seed=k).counts`` reproduces
``sample_counts(circuit, s, seed=k)`` bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.circuit import Circuit
from repro.sampling.counts import Counts
from repro.sim import DensityMatrix, PauliVector, Statevector, run
from repro.sim.registry import BackendLike
from repro.utils.bitstrings import index_to_bitstring
from repro.utils.exceptions import SimulationError
from repro.utils.rng import SeedLike, derive_seed, ensure_rng

if TYPE_CHECKING:
    from repro.noise import NoiseModel

Source = Union[Circuit, Statevector, DensityMatrix, PauliVector]


def _resolve_state(
    source: Source, backend: BackendLike, noise_model: Optional["NoiseModel"]
) -> Union[Statevector, DensityMatrix, PauliVector]:
    if isinstance(source, Circuit):
        if source.has_dynamic_ops():
            raise SimulationError(
                "sample_counts/sample_memory cannot sample dynamic "
                "circuits (measure/reset/if_bit): one simulated state "
                "does not determine the outcome distribution — use "
                "repro.execute(circuit, shots=...)"
            )
        from repro.execution.options import RunOptions

        return run(source, backend=backend, options=RunOptions(noise_model=noise_model))
    if isinstance(source, (Statevector, DensityMatrix, PauliVector)):
        if noise_model is not None and noise_model.has_gate_noise:
            raise SimulationError(
                "gate noise applies during simulation; pass the Circuit "
                "itself (not an already-computed state) with a noise model"
            )
        return source
    raise SimulationError(
        f"cannot sample from {type(source).__name__}; "
        "expected a Circuit, Statevector, DensityMatrix, or PauliVector"
    )


def _resolve_rng(seed: SeedLike, repetition: int) -> np.random.Generator:
    if repetition < 0:
        raise SimulationError(f"repetition must be non-negative, got {repetition}")
    if isinstance(seed, np.random.SeedSequence):
        # Collapse to a stable integer (generate_state is pure) so the
        # repetition mixing below applies to SeedSequence seeds too.
        seed = int(seed.generate_state(1, dtype=np.uint64)[0])
    if isinstance(seed, (int, np.integer)):
        seed = derive_seed(int(seed), repetition)
    return ensure_rng(seed)


def readout_probabilities(
    state: Union[Statevector, DensityMatrix, PauliVector],
    noise_model: Optional["NoiseModel"] = None,
) -> np.ndarray:
    """Normalised Born probabilities of ``state``, readout error applied.

    float64 even for complex64 states; drift is normalised away so the
    vector sums to exactly 1 for multinomial/choice.
    """
    probs = np.asarray(state.probabilities(), dtype=np.float64)
    if noise_model is not None and noise_model.readout_error is not None:
        probs = noise_model.readout_error.apply(probs, state.num_qubits)
    return probs / probs.sum()


def counts_from_probabilities(
    probs: np.ndarray, shots: int, rng: np.random.Generator, num_qubits: int
) -> Counts:
    """One vectorised multinomial draw of ``shots``, tallied into Counts."""
    draws = rng.multinomial(shots, probs)
    (indices,) = np.nonzero(draws)
    return Counts(
        {
            index_to_bitstring(int(i), num_qubits): int(draws[i])
            for i in indices
        },
        num_qubits=num_qubits,
    )


def memory_from_probabilities(
    probs: np.ndarray, shots: int, rng: np.random.Generator, num_qubits: int
) -> List[str]:
    """One vectorised per-shot draw, preserving shot order."""
    indices = rng.choice(probs.size, size=shots, p=probs)
    return [index_to_bitstring(int(i), num_qubits) for i in indices]


def _prepare(
    source: Source,
    shots: int,
    seed: SeedLike,
    repetition: int,
    backend: BackendLike,
    noise_model: Optional["NoiseModel"],
) -> Tuple[
    Union[Statevector, DensityMatrix, PauliVector],
    np.random.Generator,
    np.ndarray,
]:
    """Shared sampling preamble: validate, simulate, corrupt, seed, normalise."""
    if shots < 1:
        raise SimulationError(f"shots must be positive, got {shots}")
    state = _resolve_state(source, backend, noise_model)
    rng = _resolve_rng(seed, repetition)
    return state, rng, readout_probabilities(state, noise_model)


def sample_counts(
    source: Source,
    shots: int,
    seed: SeedLike = None,
    repetition: int = 0,
    backend: BackendLike = None,
    noise_model: Optional["NoiseModel"] = None,
) -> Counts:
    """Sample ``shots`` measurement outcomes, aggregated into :class:`Counts`.

    Parameters
    ----------
    source:
        A :class:`Circuit` (simulated on ``backend``), or an already
        computed :class:`Statevector` / :class:`DensityMatrix` /
        :class:`PauliVector`.
    shots:
        Number of measurement shots (must be positive).
    seed:
        Integer seeds are mixed with ``repetition`` via ``derive_seed``;
        ``None`` samples fresh entropy; an explicit ``Generator`` is used
        as-is (``repetition`` then only validates).
    repetition:
        Index of this repetition of the experiment; distinct repetitions of
        the same integer seed draw from independent streams.
    backend:
        Backend name or instance for circuit sources (default
        ``"statevector"``); ignored when ``source`` is a state.
    noise_model:
        Optional :class:`~repro.noise.NoiseModel`: gate channels applied
        during simulation (circuit sources, ``density_matrix`` or ``ptm``
        backend), readout error applied to the probabilities before
        drawing.
    """
    state, rng, probs = _prepare(source, shots, seed, repetition, backend, noise_model)
    return counts_from_probabilities(probs, shots, rng, state.num_qubits)


def sample_memory(
    source: Source,
    shots: int,
    seed: SeedLike = None,
    repetition: int = 0,
    backend: BackendLike = None,
    noise_model: Optional["NoiseModel"] = None,
) -> List[str]:
    """Sample ``shots`` outcomes preserving per-shot order (a "memory" list).

    Accepts the same ``backend=`` / ``noise_model=`` configuration as
    :func:`sample_counts`.
    """
    state, rng, probs = _prepare(source, shots, seed, repetition, backend, noise_model)
    return memory_from_probabilities(probs, shots, rng, state.num_qubits)
