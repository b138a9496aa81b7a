"""Summary statistics and CHARTER scoring used by the benchmark."""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence, Tuple

import numpy as np

from repro import bitstring_to_index

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the highest reportable tail.

    The highest nearest-rank percentile that still has ``TAIL_SAMPLES``
    samples above it: with ``n`` samples sorted ascending that is the
    value at rank ``n - TAIL_SAMPLES`` (1-based), the
    ``100 * (n - TAIL_SAMPLES) / n``-th percentile.  With too few samples
    the maximum is returned with the number of samples actually beyond
    it (zero), so the shortfall is visible rather than hidden.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return float(ordered[-1]), 100.0, 0
    rank = n - TAIL_SAMPLES
    return float(ordered[rank - 1]), 100.0 * rank / n, TAIL_SAMPLES


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def counts_vector(counts: Mapping[str, int], num_bits: int) -> np.ndarray:
    vector = np.zeros(1 << num_bits, dtype=np.float64)
    for bits, count in counts.items():
        vector[bitstring_to_index(bits)] = count
    return vector / vector.sum()


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two distributions on one space."""
    return 0.5 * float(np.abs(p - q).sum())


def rank_sites(scores: Sequence[float]) -> Tuple[int, ...]:
    """Gate sites by descending score; ties keep site order."""
    return tuple(int(i) for i in np.argsort(-np.asarray(scores), kind="stable"))


def top_overlap(
    ranking: Sequence[int], exact: Sequence[float], k: int = 5, tol: float = 1e-9
) -> float:
    """Share of ``ranking``'s top ``k`` sites that are in the exact top ``k``.

    A site is in the exact top ``k`` when its exact score reaches the
    ``k``-th best within ``tol``.  Ties are common, not rare: a
    depolarizing channel commutes with the gates on its own qubits, so
    amplifying any gate of a run of one-qubit gates on one qubit moves
    the output identically, and which member of such a group an ordering
    puts first is arbitrary.
    """
    threshold = sorted(exact, reverse=True)[k - 1] - tol
    return sum(exact[site] >= threshold for site in ranking[:k]) / k
