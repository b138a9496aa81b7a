"""Monte-Carlo trajectory backend: noisy circuits at pure-state cost.

The density-matrix backend evolves the exact O(4**n) mixed state; a
trajectory *samples* the mixture instead.  Circuits lower in
``"trajectory"`` mode — pure-state ops, with every channel (and every
matched noise-model rule) becoming a
:class:`~repro.plan.TrajectoryKrausOp` that draws ONE Kraus operator per
application from the seeded RNG stream.  Each run of the plan is one
O(2**n)-memory trajectory; averaging many trajectories converges on the
density-matrix answer with statistical error ~1/sqrt(T).

Through :func:`repro.execute` the ``shots`` option doubles as the
trajectory count (one trajectory = one shot = one sampled outcome), and
trajectories shard across workers with per-trajectory derived seeds, so
results are bitwise-identical for any ``max_workers``.

Trajectories are not evolved one by one: :func:`repro.plan.walk_trajectories`
walks a block of them as one branch tree, so those that took the same
Kraus, measurement and reset branches share one state, and each still
draws its own outcome, bitwise what its own evolution gives.  Pauli
noise (depolarizing and the bit/phase flips) is *mixed-unitary*: each
Kraus operator is ``sqrt(w_i) U_i``, so its draw needs no look at the
state and at most one contraction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.backend import StatevectorBackend
from repro.sim.registry import register_backend

if TYPE_CHECKING:
    from repro.noise import NoiseModel


class TrajectoryBackend(StatevectorBackend):
    """Statevector evolution with stochastically unraveled Kraus noise.

    Inherits every pure-state representation hook from
    :class:`~repro.sim.StatevectorBackend`; only the lowering mode and
    the noise policy differ.  Gate-noise models are *accepted*: their
    channels lower to Kraus-sampling ops rather than Kraus sums, so a
    noisy ``run()`` returns a single random pure-state trajectory
    (seed it via ``RunOptions(seed=...)``), and ``execute()`` averages
    ``shots`` trajectories.
    """

    name = "trajectory"
    plan_mode = "trajectory"

    def _validate_noise(self, noise_model: Optional["NoiseModel"]) -> None:
        # Unlike the parent, gate noise is exactly what this backend is
        # for; any NoiseModel (or None) is acceptable.
        return None


register_backend("trajectory", TrajectoryBackend)
