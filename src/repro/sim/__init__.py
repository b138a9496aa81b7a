"""Simulation backends behind a unified registry.

Four shipped backends, selected by name through :func:`get_backend` (or
the ``backend=`` argument of :func:`run`, :func:`repro.execute` and the
sampling layer):

* ``"statevector"`` — pure states as ``(2,) * n`` tensors; gates applied
  by ``numpy.tensordot`` contraction, never ``2**n x 2**n`` operators.
* ``"density_matrix"`` — mixed states as ``(2,) * 2n`` tensors; gates as
  ``U rho U†``, channels as Kraus sums, O(4**n) memory — never a dense
  ``4**n x 4**n`` superoperator.
* ``"trajectory"`` — Monte-Carlo wavefunction unraveling: pure states
  with one Kraus operator *sampled* per channel application, so noisy
  circuits stay at O(2**n) per trajectory and ``shots`` trajectories are
  averaged.
* ``"ptm"`` — mixed states as real ``(4,) * n`` Pauli-basis vectors;
  gates *and* channels are real Pauli-transfer matrices that fuse with
  each other at lowering time, making it the fast exact engine for noisy
  circuits (no dynamic ops).

User backends subclass :class:`BaseBackend` and join via
:func:`register_backend`.
"""

from repro.sim.statevector import Statevector, norm_atol
from repro.sim.registry import (
    BaseBackend,
    available_backends,
    get_backend,
    register_backend,
    run,
)
from repro.sim.backend import StatevectorBackend, apply_gate_tensor
from repro.sim.density import (
    DensityMatrix,
    DensityMatrixBackend,
    apply_channel_to_density,
    apply_matrix_to_density,
)
from repro.sim.ptm import PauliVector, PTMBackend
from repro.sim.trajectory import TrajectoryBackend

__all__ = [
    "BaseBackend",
    "DensityMatrix",
    "DensityMatrixBackend",
    "PTMBackend",
    "PauliVector",
    "Statevector",
    "StatevectorBackend",
    "TrajectoryBackend",
    "apply_channel_to_density",
    "apply_gate_tensor",
    "apply_matrix_to_density",
    "available_backends",
    "get_backend",
    "norm_atol",
    "register_backend",
    "run",
]
