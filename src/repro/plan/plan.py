"""Compile-once/run-many: lowering circuit IR to :class:`ExecutionPlan` ops.

The eager simulation path re-did the same bookkeeping on every ``run()``:
matrix lookup per instruction, axis arithmetic per contraction, noise-rule
matching per gate, and — for a parameter sweep — all of it once per
binding.  :func:`compile_plan` hoists that work to compile time: a circuit
lowers once into a flat op sequence whose matrices are already cast and
reshaped with their target qubits resolved, Kraus channels grouped, and
:class:`~repro.noise.NoiseModel` rules matched per instruction.  Executing
the plan (the backends' shared loop in :class:`~repro.sim.BaseBackend`)
is then nothing but contractions: static statevector, trajectory and ptm
plans run as one matrix product per op into two preallocated buffers.

Parametric gates lower to :class:`ParametricSlotOp` placeholders;
:meth:`ExecutionPlan.bind` resolves the slots to concrete ops *without
re-lowering* the static ops around them, so an N-point sweep costs one
lowering plus N cheap slot substitutions (or a single batched contraction
per op — see :mod:`repro.plan.batch`).

Four lowering modes exist, selected by the target backend's ``plan_mode``:

* ``"statevector"`` — ops contract onto a ``(2,) * n`` pure-state tensor;
  channel instructions and gate-noise models are rejected at compile time.
* ``"density"`` — ops conjugate a ``(2,) * 2n`` density tensor
  (``U rho U†`` as two contractions, channels as Kraus sums); noise-model
  rules are matched per instruction *here*, not per run.
* ``"trajectory"`` — pure-state ops like ``"statevector"``, but channels
  (and matched noise rules) lower to :class:`TrajectoryKrausOp`: at
  execution time one Kraus operator is *sampled* per application from the
  seeded RNG stream (Monte-Carlo wavefunction unraveling), keeping noisy
  evolution at O(2**n) per trajectory.  Mixed-unitary channels carry
  their fixed branch weights and unitaries, so a draw needs no trial
  contractions.
* ``"ptm"`` — every gate *and* every channel becomes one real
  ``(4**k, 4**k)`` Pauli-transfer matrix contracting onto the ``(4,) * n``
  Pauli vector of rho (:class:`PTMOp`).  Because gates and noise now
  compose by plain matrix multiplication, lowering runs the transpile
  layer's per-qubit :class:`~repro.transpile.fusion.FusionEngine` over
  every gate *and* channel (up to :data:`PTM_FUSE_WIDTH` qubits per
  group) — channels, which stop the statevector fusion pass, fold into
  the groups here.  Dynamic instructions are rejected in this mode.

Dynamic instructions (measure/reset/if_bit) lower to
:class:`MeasureOp`/:class:`ResetOp`/:class:`ConditionalOp` in every mode.
Plans containing them (or trajectory Kraus ops) set
:attr:`ExecutionPlan.has_dynamic_ops` and leave the static fast path:
density plans track every classical branch exactly
(:func:`execute_dynamic_density`), and pure plans walk their seeded
trajectories as one branch tree (:func:`walk_trajectories`).
"""

from __future__ import annotations

import contextlib
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.circuit import Circuit, Parameter
from repro.circuit.ptm import kraus_to_ptm
from repro.transpile.fusion import FusionEngine, FusionGroup
from repro.utils.exceptions import SimulationError
from repro.utils.lru import LRUCache

if TYPE_CHECKING:
    from repro.circuit.channel import Channel
    from repro.circuit.circuit import CircuitStats
    from repro.circuit.instruction import Instruction
    from repro.execution.options import RunOptions
    from repro.noise import NoiseModel

# Dynamic density evolution threads the state as classical-outcome
# branches: (clbit tuple, unnormalised rho).
Branches = List[Tuple[Tuple[int, ...], np.ndarray]]

# A random pure-state op's branches on one state: ``choose(draw)`` is the
# branch a uniform draw in [0, 1) picks, ``build(branch)`` its state.
BranchTable = Tuple[Callable[[float], int], Callable[[int], np.ndarray]]

STATEVECTOR = "statevector"
DENSITY = "density"
TRAJECTORY = "trajectory"
PTM = "ptm"

#: Width cap (qubits) of ptm lowering's fusion groups, equal to the
#: default ``max_width`` of :class:`~repro.transpile.FuseAdjacentGates`,
#: which runs the same :class:`~repro.transpile.fusion.FusionEngine` on
#: unitaries.  A fused (4**k, 4**k) block costs 16**k multiplies per
#: contraction, so runaway widening would undo the fusion win.
PTM_FUSE_WIDTH = 2

#: Width cap (qubits) of the fusion pass that :func:`compile_plan` runs on
#: statevector plans.  A pure-state op on a large register is one pass
#: over the amplitudes whatever its (2**k, 2**k) matrix, so wider groups
#: mean fewer passes.  At 5 the certifier would prove fused sites on 5
#: qubits, past the 4-qubit locality its certificates are held to.
PURE_FUSE_WIDTH = 4

#: Density-mode classical branches below this trace weight are dropped:
#: they are fp dust from projecting deterministic outcomes, and keeping
#: them would only add zero tensors to every later contraction.
_BRANCH_ATOL = 1e-15


def fusion_width(mode: str) -> int:
    """Width cap of the fusion pass :func:`compile_plan` runs for plan ``mode``.

    :data:`PURE_FUSE_WIDTH` for statevector, which rejects gate noise;
    :data:`PTM_FUSE_WIDTH`, also ``transpile()``'s default, for every
    mode that takes a :class:`~repro.noise.NoiseModel`.  Its rules match
    the fused instructions by name and arity, so those modes share one
    width and fire the same channels on the same circuit.
    """
    return PURE_FUSE_WIDTH if mode == STATEVECTOR else PTM_FUSE_WIDTH


# Lowering hooks: callables invoked as fn(circuit, plan) after every *full*
# lowering (never on ExecutionPlan.bind, which only substitutes slot ops).
# Tests hang counters here to prove the compile-once/bind-many contract.
LowerHook = Callable[["Circuit", "ExecutionPlan"], None]

_LOWER_HOOKS: List[LowerHook] = []


def add_lower_hook(hook: LowerHook) -> None:
    """Register ``hook(circuit, plan)`` to fire after each full lowering."""
    if not callable(hook):
        raise SimulationError(f"lower hook must be callable, got {hook!r}")
    _LOWER_HOOKS.append(hook)


def remove_lower_hook(hook: LowerHook) -> None:
    """Unregister a hook added via :func:`add_lower_hook` (missing is a no-op)."""
    with contextlib.suppress(ValueError):
        _LOWER_HOOKS.remove(hook)


def _contract(
    state: np.ndarray,
    tensor: np.ndarray,
    targets: Sequence[int],
    in_axes: Sequence[int],
    out_axes: Sequence[int],
) -> np.ndarray:
    """One precomputed-axis tensordot: ``tensor`` onto ``targets`` of ``state``."""
    out = np.tensordot(tensor, state, axes=(in_axes, targets))
    return np.moveaxis(out, out_axes, targets)


class UnitaryOp:
    """A gate contraction onto a pure-state tensor, axes precomputed."""

    __slots__ = ("tensor", "targets", "in_axes", "out_axes", "batch_targets", "name")

    is_slot = False
    is_dynamic = False

    def __init__(
        self, name: str, matrix: np.ndarray, targets: Sequence[int], dtype: np.dtype
    ) -> None:
        k = len(targets)
        # asarray, not astype: when the backend dtype matches the gate
        # matrix (the common complex128 case) the cached gate matrix is
        # shared, exactly as the eager path shared it per application.
        self.tensor = np.asarray(matrix, dtype=dtype).reshape((2,) * (2 * k))
        self.targets = tuple(targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        # Targets shifted by one for the (N, 2, ..., 2) batched sweep
        # layout, where axis 0 is the sweep-point axis.
        self.batch_targets = tuple(t + 1 for t in self.targets)
        self.name = name

    def apply(self, state: np.ndarray) -> np.ndarray:
        return _contract(state, self.tensor, self.targets, self.in_axes, self.out_axes)

    def apply_batched(self, batch: np.ndarray) -> np.ndarray:
        return _contract(
            batch, self.tensor, self.batch_targets, self.in_axes, self.out_axes
        )

    def __repr__(self) -> str:
        return f"UnitaryOp({self.name} @ {self.targets})"


class DensityUnitaryOp:
    """``U rho U†`` on a density tensor: two precomputed-axis contractions."""

    __slots__ = (
        "tensor",
        "conj_tensor",
        "row_targets",
        "col_targets",
        "in_axes",
        "out_axes",
        "name",
    )

    is_slot = False
    is_dynamic = False

    def __init__(
        self,
        name: str,
        matrix: np.ndarray,
        targets: Sequence[int],
        num_qubits: int,
        dtype: np.dtype,
    ) -> None:
        k = len(targets)
        matrix = np.asarray(matrix, dtype=dtype)
        self.tensor = matrix.reshape((2,) * (2 * k))
        self.conj_tensor = np.conj(matrix).reshape((2,) * (2 * k))
        self.row_targets = tuple(targets)
        self.col_targets = tuple(num_qubits + t for t in targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = _contract(rho, self.tensor, self.row_targets, self.in_axes, self.out_axes)
        return _contract(
            rho, self.conj_tensor, self.col_targets, self.in_axes, self.out_axes
        )

    def __repr__(self) -> str:
        return f"DensityUnitaryOp({self.name} @ {self.row_targets})"


class DensityKrausOp:
    """``sum_i K_i rho K_i†`` on a density tensor, operators prereshaped."""

    __slots__ = (
        "tensors",
        "conj_tensors",
        "row_targets",
        "col_targets",
        "in_axes",
        "out_axes",
        "name",
    )

    is_slot = False
    is_dynamic = False

    def __init__(
        self,
        name: str,
        kraus: Sequence[np.ndarray],
        targets: Sequence[int],
        num_qubits: int,
        dtype: np.dtype,
    ) -> None:
        k = len(targets)
        shape = (2,) * (2 * k)
        operators = [np.asarray(op, dtype=dtype) for op in kraus]
        self.tensors = tuple(op.reshape(shape) for op in operators)
        self.conj_tensors = tuple(np.conj(op).reshape(shape) for op in operators)
        self.row_targets = tuple(targets)
        self.col_targets = tuple(num_qubits + t for t in targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    def apply(self, rho: np.ndarray) -> np.ndarray:
        total = None
        for tensor, conj_tensor in zip(self.tensors, self.conj_tensors):
            term = _contract(rho, tensor, self.row_targets, self.in_axes, self.out_axes)
            term = _contract(
                term, conj_tensor, self.col_targets, self.in_axes, self.out_axes
            )
            total = term if total is None else total + term
        return total

    def __repr__(self) -> str:
        return f"DensityKrausOp({self.name} @ {self.row_targets}, {len(self.tensors)} ops)"


# Gate PTMs memoised per (name, params, unitary bytes), mirroring the
# registry's gate cache: sweeps rebinding the same values and repeated
# lowerings share one U·U† conjugation instead of recomputing it per
# instruction.  The matrix bytes are part of the key because (name,
# params) does not determine the unitary for ad-hoc gates — every
# transpile-fused block is named "unitary" with no params.  A PTM is
# built outside the cache lock; racing threads share the first one stored.
_GATE_PTM_CACHE: "LRUCache[np.ndarray]" = LRUCache(4096)


def _gate_ptm(
    name: str, params: Sequence[float], matrix: np.ndarray, num_qubits: int, store: bool = True
) -> np.ndarray:
    # Plan binding passes store=False: a fresh sweep angle is used once.
    key = (
        name,
        tuple(float(p) for p in params),
        np.ascontiguousarray(matrix).tobytes(),
    )
    cached = _GATE_PTM_CACHE.get(key)
    if cached is not None:
        return cached
    built = kraus_to_ptm((matrix,), num_qubits)
    built.setflags(write=False)
    return _GATE_PTM_CACHE.put(key, built) if store else built


class PTMOp:
    """A real Pauli-transfer-matrix contraction onto a ``(4,) * n`` vector.

    The ptm-mode analogue of :class:`UnitaryOp` — same op layout, base 4
    instead of base 2, float64 instead of complex, and the same single
    matrix product per op in the backends' shared loop.  One op routinely
    covers a whole fused gate+channel run: in this basis noise composes
    with gates by matrix multiplication, so lowering collapses every run
    on the same one or two qubits into a single ``(4**k, 4**k)`` block,
    named after its members (``"h+depolarizing+cx+depolarizing"``).
    """

    __slots__ = ("tensor", "targets", "in_axes", "out_axes", "name")

    is_slot = False
    is_dynamic = False

    def __init__(
        self, name: str, matrix: np.ndarray, targets: Sequence[int], dtype: np.dtype
    ) -> None:
        k = len(targets)
        # asarray, not astype: the common float64 case shares the cached
        # gate/channel PTM instead of copying it per op.
        self.tensor = np.asarray(matrix, dtype=dtype).reshape((4,) * (2 * k))
        self.targets = tuple(targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    def apply(self, state: np.ndarray) -> np.ndarray:
        return _contract(state, self.tensor, self.targets, self.in_axes, self.out_axes)

    def __repr__(self) -> str:
        return f"PTMOp({self.name} @ {self.targets})"


class ParametricSlotOp:
    """A placeholder for a gate whose matrix waits on parameter binding.

    Carries everything needed to become a concrete op the instant values
    arrive: the registry gate name, the parameter template (bound reals
    mixed with :class:`~repro.circuit.Parameter` symbols), and the target
    qubits.  :meth:`resolve_matrix` reuses a gate already in the
    registry's cache but never stores one: a sweep's fresh angles would
    fill the cache with gates used once.
    """

    __slots__ = ("gate_name", "params", "targets", "parameters", "index")

    is_slot = True
    is_dynamic = False

    def __init__(
        self,
        gate_name: str,
        params: Sequence[Union[float, Parameter]],
        targets: Sequence[int],
        index: int,
    ) -> None:
        self.gate_name = gate_name
        self.params = tuple(params)
        self.targets = tuple(targets)
        self.parameters = tuple(p for p in self.params if isinstance(p, Parameter))
        self.index = index

    def resolve_matrix(self, values: Mapping[str, float]) -> np.ndarray:
        from repro.gates.registry import transient_gate

        bound = tuple(
            values[p.name] if isinstance(p, Parameter) else p for p in self.params
        )
        return transient_gate(self.gate_name, *bound).matrix

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            f"plan op {self.index} ({self.gate_name!r}) has unbound "
            f"parameter(s) {[p.name for p in self.parameters]}; bind the "
            "plan before executing it"
        )

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.parameters)
        return f"ParametricSlotOp({self.gate_name}({names}) @ {self.targets})"


def _project_density(
    rho: np.ndarray, qubit: int, num_qubits: int, outcome: int
) -> np.ndarray:
    """``P rho P`` for the Z-basis projector onto ``outcome`` of ``qubit``."""
    out = np.zeros_like(rho)
    src = np.moveaxis(rho, (qubit, num_qubits + qubit), (0, 1))
    dst = np.moveaxis(out, (qubit, num_qubits + qubit), (0, 1))
    dst[outcome, outcome] = src[outcome, outcome]
    return out


def _density_trace(rho: np.ndarray, num_qubits: int) -> float:
    dim = 1 << num_qubits
    return float(np.trace(rho.reshape(dim, dim)).real)


def _z_branch_table(state: np.ndarray, qubit: int, reset: bool) -> BranchTable:
    """Branches of a Z measurement of ``qubit`` (or a reset), p0/p1 read once.

    A draw ``u`` picks 0 when ``u * (p0 + p1) < p0``: the unnormalised total
    absorbs norm drift, and a zero-probability outcome is never picked.  The
    outcome's slice is renormalised into its own index, or into ``|0>`` for
    a reset (collapse and conditional flip in one assignment).
    """
    moved = np.moveaxis(state, qubit, 0)
    p0 = float(np.sum(np.abs(moved[0]) ** 2))
    p1 = float(np.sum(np.abs(moved[1]) ** 2))
    total = p0 + p1

    def choose(draw: float) -> int:
        return 0 if draw * total < p0 else 1

    def build(outcome: int) -> np.ndarray:
        out = np.zeros_like(state)
        kept = moved[outcome] / np.sqrt(p1 if outcome else p0)
        np.moveaxis(out, qubit, 0)[0 if reset else outcome] = kept
        return out

    return choose, build


class MeasureOp:
    """Projective Z measurement of one qubit, outcome into a clbit.

    Pure modes sample the outcome from the RNG stream, zero the other
    branch, and renormalise; density mode splits every classical branch
    into its two projected (unnormalised) sub-branches, so the final
    branch weights *are* the joint clbit distribution.
    """

    __slots__ = ("qubit", "clbit", "num_qubits", "name")

    is_slot = False
    is_dynamic = True

    def __init__(self, qubit: int, clbit: int, num_qubits: int) -> None:
        self.qubit = int(qubit)
        self.clbit = int(clbit)
        self.num_qubits = int(num_qubits)
        self.name = "measure"

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "measure is a dynamic op; execute the plan through a backend "
            "(execute_plan threads the RNG and classical bits)"
        )

    def branch_table(self, state: np.ndarray) -> BranchTable:
        """``(choose, build)`` on ``state``: see :func:`_z_branch_table`."""
        return _z_branch_table(state, self.qubit, reset=False)

    def apply_density(self, branches: Branches) -> Branches:
        merged: Dict[tuple, np.ndarray] = {}
        for bits, rho in branches:
            for outcome in (0, 1):
                projected = _project_density(rho, self.qubit, self.num_qubits, outcome)
                if _density_trace(projected, self.num_qubits) <= _BRANCH_ATOL:
                    continue
                key = bits[: self.clbit] + (outcome,) + bits[self.clbit + 1 :]
                if key in merged:
                    merged[key] = merged[key] + projected
                else:
                    merged[key] = projected
        return list(merged.items())

    def __repr__(self) -> str:
        return f"MeasureOp(qubit={self.qubit} -> clbit={self.clbit})"


class ResetOp:
    """Re-initialise one qubit to ``|0>``: measure, flip on 1, discard.

    Pure modes unravel stochastically (sampled projective collapse, then
    the kept branch moves to the ``|0>`` slice); density mode applies the
    exact channel ``rho -> P0 rho P0 + X P1 rho P1 X`` per branch, which
    is deterministic and trace-preserving.
    """

    __slots__ = ("qubit", "num_qubits", "name")

    is_slot = False
    is_dynamic = True

    def __init__(self, qubit: int, num_qubits: int) -> None:
        self.qubit = int(qubit)
        self.num_qubits = int(num_qubits)
        self.name = "reset"

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "reset is a dynamic op; execute the plan through a backend "
            "(execute_plan threads the RNG and classical bits)"
        )

    def branch_table(self, state: np.ndarray) -> BranchTable:
        """``(choose, build)`` on ``state``: see :func:`_z_branch_table`."""
        return _z_branch_table(state, self.qubit, reset=True)

    def apply_density(self, branches: Branches) -> Branches:
        out = []
        for bits, rho in branches:
            new = np.zeros_like(rho)
            src = np.moveaxis(rho, (self.qubit, self.num_qubits + self.qubit), (0, 1))
            dst = np.moveaxis(new, (self.qubit, self.num_qubits + self.qubit), (0, 1))
            dst[0, 0] = src[0, 0] + src[1, 1]
            out.append((bits, new))
        return out

    def __repr__(self) -> str:
        return f"ResetOp(qubit={self.qubit})"


class ConditionalOp:
    """A concrete unitary op applied only when a clbit reads ``value``.

    ``inner`` is a fully resolved :class:`UnitaryOp` (pure modes) or
    :class:`DensityUnitaryOp` (density mode) — the branch test is the only
    work left at execution time.
    """

    __slots__ = ("clbit", "value", "inner", "name")

    is_slot = False
    is_dynamic = True

    def __init__(
        self, clbit: int, value: int, inner: Union[UnitaryOp, DensityUnitaryOp]
    ) -> None:
        self.clbit = int(clbit)
        self.value = int(value)
        self.inner = inner
        self.name = f"if[{inner.name}]"

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "if_bit is a dynamic op; execute the plan through a backend "
            "(execute_plan threads the RNG and classical bits)"
        )

    def apply_density(self, branches: Branches) -> Branches:
        return [
            (bits, self.inner.apply(rho) if bits[self.clbit] == self.value else rho)
            for bits, rho in branches
        ]

    def __repr__(self) -> str:
        return f"ConditionalOp(clbit={self.clbit}=={self.value}, {self.inner!r})"


def _choose_branch(draw: float, weights: Sequence[float]) -> int:
    """The Kraus branch a uniform ``draw`` in ``[0, 1)`` selects.

    The draw scales by the total weight and picks the first branch of
    positive weight whose cumulative weight exceeds it; a draw landing on
    the trailing rounding gap falls back to the heaviest branch.
    """
    draw *= sum(weights)
    cumulative = 0.0
    for index, weight in enumerate(weights):
        cumulative += weight
        if weight > 0.0 and draw < cumulative:
            return index
    return int(np.argmax(weights))


class TrajectoryKrausOp:
    """Monte-Carlo unraveling of a Kraus channel on a pure state.

    Each application picks ONE Kraus branch with one uniform draw — the
    density-matrix Kraus *sum* becomes a Kraus *choice* per trajectory,
    which is the trajectory backend's whole trick.  :meth:`branch_table`
    holds the rule:

    * A mixed-unitary channel (see :attr:`repro.circuit.Channel.mixture`:
      depolarizing and the Pauli flips) has state-independent branch
      ``weights`` ``w_i``, and ``tensors`` holds its unitaries ``U_i``
      (``None`` for an identity branch).  The draw picks a branch
      against the weights and only the chosen ``U_i`` is contracted; an
      identity branch applies nothing.
    * Any other channel (amplitude or phase damping; ``weights`` is
      ``None``) keeps its Kraus operators in ``tensors``, applies every
      one, weighs the branches by ``||K_i psi||^2``, picks one and
      renormalises it.
    """

    __slots__ = ("tensors", "weights", "targets", "in_axes", "out_axes", "name")

    is_slot = False
    is_dynamic = True

    def __init__(
        self,
        name: str,
        tensors: Sequence[Optional[np.ndarray]],
        targets: Sequence[int],
        dtype: np.dtype,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        k = len(targets)
        shape = (2,) * (2 * k)
        self.tensors = tuple(
            None if op is None else np.asarray(op, dtype=dtype).reshape(shape)
            for op in tensors
        )
        self.weights = None if weights is None else tuple(weights)
        self.targets = tuple(targets)
        self.in_axes = tuple(range(k, 2 * k))
        self.out_axes = tuple(range(k))
        self.name = name

    @classmethod
    def from_channel(
        cls, channel: "Channel", targets: Sequence[int], dtype: np.dtype
    ) -> "TrajectoryKrausOp":
        """The op for ``channel`` on ``targets``: fixed weights where it has them."""
        mixture = channel.mixture
        if mixture is None:
            return cls(channel.name, channel.kraus, targets, dtype)
        weights, unitaries = mixture
        return cls(channel.name, unitaries, targets, dtype, weights)

    def apply(self, state: np.ndarray) -> np.ndarray:
        raise SimulationError(
            "trajectory Kraus sampling is a dynamic op; execute the plan "
            "through the trajectory backend (execute_plan threads the RNG)"
        )

    def branch_table(self, state: np.ndarray) -> BranchTable:
        """``(choose, build)`` on ``state``; see :data:`BranchTable`."""
        if self.weights is not None:
            weights: Sequence[float] = self.weights

            def build(branch: int) -> np.ndarray:
                unitary = self.tensors[branch]
                if unitary is None:
                    return state
                return _contract(
                    state, unitary, self.targets, self.in_axes, self.out_axes
                )

        else:
            candidates = [
                _contract(state, tensor, self.targets, self.in_axes, self.out_axes)
                for tensor in self.tensors
            ]
            weights = [float(np.vdot(c, c).real) for c in candidates]

            def build(branch: int) -> np.ndarray:
                return candidates[branch] / np.sqrt(weights[branch])

        return lambda draw: _choose_branch(draw, weights), build

    def __repr__(self) -> str:
        return (
            f"TrajectoryKrausOp({self.name} @ {self.targets}, "
            f"{len(self.tensors)} ops)"
        )


#: Bytes of branch states a trajectory walk may hold for siblings it has
#: yet to walk.  Past the cap a sibling waits stateless and is rebuilt
#: bitwise from the initial state along one member's path, so op
#: applications stay at most leaves x ops.
_PENDING_STATE_BYTES = 64 << 20

# A leaf of a trajectory walk: (state, clbits, members).
Leaf = Tuple[np.ndarray, Tuple[int, ...], List[int]]


def walk_trajectories(
    plan: "ExecutionPlan", initial: np.ndarray, rngs: Sequence[Any]
) -> Iterator[Leaf]:
    """Evolve one trajectory of a pure dynamic plan per generator, as one tree.

    Each trajectory draws its ``k`` uniforms with one ``rngs[m].random(k)``,
    one per measure, reset and Kraus op (a :class:`ConditionalOp` draws
    none): the draws, in order, of evolving it alone.  Groups of
    trajectories that took the same branches so far share one state and
    clbit tuple.  Static ops and conditionals apply once per group; a random
    op builds its :data:`BranchTable` once per group and splits the members
    by their own draws, so every trajectory ends bitwise where its own
    evolution would.  Yields ``(state, clbits, members)`` per leaf,
    ``members`` indexing ``rngs``, each generator just past its draws.
    """
    columns: Dict[int, int] = {}  # op index -> its draw's index
    for index, op in enumerate(plan.ops):
        if hasattr(op, "branch_table"):
            columns[index] = len(columns)
    draws = [rng.random(len(columns)).tolist() for rng in rngs]
    root = (0, initial, (0,) * plan.num_clbits, list(range(len(rngs))))
    return _walk(plan.ops, columns, draws, root, len(plan.ops))


def _walk(
    ops: Sequence[Any],
    columns: Dict[int, int],
    draws: Sequence[Sequence[float]],
    root: tuple,
    stop: int,
) -> Iterator[Leaf]:
    """The depth-first walk of :func:`walk_trajectories` over ``ops[:stop]``."""
    pending = [root]
    held = root[1].nbytes
    while pending:
        start, state, bits, members = pending.pop()
        if state is None:
            path = (0, root[1], root[2], members[:1])
            ((state, bits, _),) = _walk(ops, columns, draws, path, start)
        else:
            held -= state.nbytes
        for index in range(start, stop):
            op = ops[index]
            column = columns.get(index)
            if column is None:
                if not op.is_dynamic:
                    state = op.apply(state)
                elif bits[op.clbit] == op.value:
                    state = op.inner.apply(state)
                continue
            choose, build = op.branch_table(state)
            groups: Dict[int, List[int]] = {}
            for member in members:
                groups.setdefault(choose(draws[member][column]), []).append(member)
            (branch, members), *siblings = groups.items()
            for sibling, group in siblings:
                child: Optional[np.ndarray] = None
                if held + state.nbytes <= _PENDING_STATE_BYTES:
                    child = build(sibling)
                    held += child.nbytes
                pending.append((index + 1, child, _record(op, bits, sibling), group))
            state, bits = build(branch), _record(op, bits, branch)
        yield state, bits, members


def _record(op: Any, bits: Tuple[int, ...], branch: int) -> Tuple[int, ...]:
    """The clbits after ``op`` took ``branch``: a measurement writes it."""
    if isinstance(op, MeasureOp):
        return bits[: op.clbit] + (branch,) + bits[op.clbit + 1 :]
    return bits


def execute_dynamic_density(
    plan: "ExecutionPlan", tensor: np.ndarray
) -> Tuple[np.ndarray, Dict[str, float]]:
    """Run a dynamic density plan with classical-outcome bookkeeping.

    The state evolves as a list of ``(clbits, unnormalised rho)`` branches:
    measurements split branches (projector superoperators), conditionals
    apply per branch, and everything static is linear so same-clbit
    branches merge exactly.  Returns ``(rho_total, distribution)`` where
    ``rho_total`` is the deterministic ensemble average (trace 1) and
    ``distribution`` maps clbit strings to their exact probabilities.
    """
    branches = [((0,) * plan.num_clbits, tensor)]
    for op in plan.ops:
        if op.is_dynamic:
            branches = op.apply_density(branches)
        else:
            branches = [(bits, op.apply(rho)) for bits, rho in branches]
    total = None
    distribution: Dict[str, float] = {}
    for bits, rho in branches:
        total = rho if total is None else total + rho
        weight = max(_density_trace(rho, plan.num_qubits), 0.0)
        key = "".join(map(str, bits))
        distribution[key] = distribution.get(key, 0.0) + weight
    norm = sum(distribution.values())
    if norm > 0.0:
        distribution = {key: value / norm for key, value in distribution.items()}
    return total, distribution


PlanOp = Union[
    UnitaryOp,
    DensityUnitaryOp,
    DensityKrausOp,
    PTMOp,
    ParametricSlotOp,
    MeasureOp,
    ResetOp,
    ConditionalOp,
    TrajectoryKrausOp,
]


class ExecutionPlan:
    """A lowered, immutable program: what a backend actually executes.

    Produced by :func:`compile_plan`; executed by
    :meth:`~repro.sim.BaseBackend.execute_plan` (one op loop shared by
    every backend) or, for parameter sweeps on the statevector engine, by
    :func:`repro.plan.run_batched_sweep` as one batched contraction per op.
    """

    __slots__ = (
        "_mode",
        "_num_qubits",
        "_ops",
        "_parameters",
        "_dtype",
        "_circuit",
        "_backend_name",
        "_pass_stats",
        "_stats",
        "_compile_time_s",
        "_transpile_time_s",
        "_num_clbits",
        "_has_dynamic",
    )

    def __init__(
        self,
        mode: str,
        num_qubits: int,
        ops: Sequence[PlanOp],
        parameters: Tuple[Parameter, ...],
        dtype: np.dtype,
        circuit: Circuit,
        backend_name: str,
        pass_stats: Tuple[dict, ...] = (),
        stats: Optional["CircuitStats"] = None,
        compile_time_s: float = 0.0,
        transpile_time_s: float = 0.0,
        *,
        num_clbits: int = 0,
    ) -> None:
        self._mode = mode
        self._num_qubits = int(num_qubits)
        self._ops = tuple(ops)
        self._parameters = tuple(parameters)
        self._dtype = np.dtype(dtype)
        self._circuit = circuit
        self._backend_name = backend_name
        self._pass_stats = tuple(pass_stats)
        self._stats = stats
        self._compile_time_s = float(compile_time_s)
        self._transpile_time_s = float(transpile_time_s)
        self._num_clbits = int(num_clbits)
        self._has_dynamic = any(op.is_dynamic for op in self._ops)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Lowering mode: ``"statevector"``, ``"density"``, ``"trajectory"``
        or ``"ptm"``."""
        return self._mode

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Width of the classical register dynamic ops write into."""
        return self._num_clbits

    @property
    def has_dynamic_ops(self) -> bool:
        """Whether execution needs the RNG/classical-bit threading path."""
        return self._has_dynamic

    @property
    def ops(self) -> Tuple[PlanOp, ...]:
        """The flat precomputed op sequence, in execution order."""
        return self._ops

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """Distinct unbound symbols, in first-use order (empty when bound)."""
        return self._parameters

    @property
    def is_parametric(self) -> bool:
        return bool(self._parameters)

    @property
    def dtype(self) -> np.dtype:
        """The dtype every op tensor was cast to at compile time."""
        return self._dtype

    @property
    def circuit(self) -> Circuit:
        """The (transpiled, possibly parametric) circuit this plan lowers."""
        return self._circuit

    @property
    def backend_name(self) -> str:
        """Name of the backend the plan was compiled for."""
        return self._backend_name

    @property
    def pass_stats(self) -> Tuple[dict, ...]:
        """Per-pass transpile statistics captured at compile time."""
        return self._pass_stats

    @property
    def stats(self) -> Optional["CircuitStats"]:
        """:class:`~repro.circuit.CircuitStats` of the lowered circuit."""
        return self._stats

    @property
    def compile_time_s(self) -> float:
        """Wall time of the original compile (transpile + lowering)."""
        return self._compile_time_s

    @property
    def transpile_time_s(self) -> float:
        """Wall time of the transpile portion of the original compile."""
        return self._transpile_time_s

    def __len__(self) -> int:
        return len(self._ops)

    def __repr__(self) -> str:
        parametric = (
            f", {len(self._parameters)} parameter(s)" if self._parameters else ""
        )
        return (
            f"ExecutionPlan({self._mode}, {self._num_qubits} qubits, "
            f"{len(self._ops)} ops{parametric})"
        )

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, binding: Mapping[Union[Parameter, str], float]) -> "ExecutionPlan":
        """Resolve every parametric slot and return the bound plan.

        Static ops are *shared* with this plan, not recomputed — binding
        never re-lowers (the lowering hooks do not fire).  Every plan
        parameter must be bound; stray keys are rejected like
        :meth:`Circuit.bind` rejects them.
        """
        from repro.circuit.parameter import normalize_binding, validate_binding_names

        values = normalize_binding(binding, SimulationError)
        validate_binding_names(
            values,
            (parameter.name for parameter in self._parameters),
            SimulationError,
            subject="plan",
            require_complete=True,
        )
        if not self._parameters:
            return self
        ops: List[PlanOp] = []
        for op in self._ops:
            if not op.is_slot:
                ops.append(op)
                continue
            matrix = op.resolve_matrix(values)
            if self._mode in (STATEVECTOR, TRAJECTORY):
                ops.append(UnitaryOp(op.gate_name, matrix, op.targets, self._dtype))
            elif self._mode == PTM:
                bound = tuple(
                    values[p.name] if isinstance(p, Parameter) else float(p)
                    for p in op.params
                )
                tensor = _gate_ptm(
                    op.gate_name, bound, matrix, len(op.targets), store=False
                )
                ops.append(PTMOp(op.gate_name, tensor, op.targets, self._dtype))
            else:
                ops.append(
                    DensityUnitaryOp(
                        op.gate_name, matrix, op.targets, self._num_qubits, self._dtype
                    )
                )
        return ExecutionPlan(
            self._mode,
            self._num_qubits,
            ops,
            (),
            self._dtype,
            self._circuit,
            self._backend_name,
            self._pass_stats,
            self._stats,
            self._compile_time_s,
            self._transpile_time_s,
            num_clbits=self._num_clbits,
        )


def _lower_dynamic(
    instruction: "Instruction", mode: str, num_qubits: int, dtype: np.dtype
) -> PlanOp:
    """Lower one dynamic instruction (measure/reset/if_bit) for ``mode``."""
    operation = instruction.operation
    if instruction.is_measure:
        return MeasureOp(instruction.qubits[0], operation.clbit, num_qubits)
    if instruction.is_reset:
        return ResetOp(instruction.qubits[0], num_qubits)
    # Conditional: the wrapped gate is concrete (Conditional rejects
    # parametric operations), so the inner op resolves fully here.
    gate = operation.operation
    if mode in (STATEVECTOR, TRAJECTORY):
        inner = UnitaryOp(gate.name, gate.matrix, instruction.qubits, dtype)
    else:
        inner = DensityUnitaryOp(
            gate.name, gate.matrix, instruction.qubits, num_qubits, dtype
        )
    return ConditionalOp(operation.clbit, operation.value, inner)


def _lower_ptm(
    circuit: Circuit,
    dtype: np.dtype,
    noise_model: Optional["NoiseModel"],
    backend_name: str,
) -> ExecutionPlan:
    """Lower a circuit into fused :class:`PTMOp` runs for the ptm mode.

    Gates and channels alike arrive as real PTMs and feed one
    :class:`~repro.transpile.fusion.FusionEngine` at local dimension 4:
    the per-qubit engine behind the statevector pass
    :class:`~repro.transpile.FuseAdjacentGates`, with the same merge
    rules, capped at :data:`PTM_FUSE_WIDTH`.  The difference is what a
    channel does: the statevector pass must emit every open group at a
    channel (a Kraus map has no unitary to fold), while this lowering
    folds the channel's PTM into the groups on its qubits, so a noisy
    layer still collapses into one op per pair of interacting qubits.
    Parametric slots (unknown matrices) emit only the groups on their
    own qubits.  Each op is named after its members
    (``"h+depolarizing+cx+depolarizing"``).
    """
    n = circuit.num_qubits
    ops: List[PlanOp] = []

    def emit(group: FusionGroup) -> None:
        ops.append(
            PTMOp("+".join(group.members), group.matrix, tuple(group.qubits), dtype)
        )

    fusion = FusionEngine(4, PTM_FUSE_WIDTH, emit)
    for index, instruction in enumerate(circuit):
        operation = instruction.operation
        if instruction.is_dynamic:
            raise SimulationError(
                "circuit contains dynamic ops (measure/reset/if_bit); the "
                "ptm backend evolves Pauli vectors with no classical "
                "register — use backend='density_matrix' or "
                "backend='trajectory'"
            )
        if instruction.is_channel:
            fusion.feed(instruction.qubits, operation.ptm, operation.name)
            continue
        if instruction.is_parametric:
            fusion.emit_on(instruction.qubits)
            ops.append(
                ParametricSlotOp(
                    operation.name, operation.params, instruction.qubits, index
                )
            )
        else:
            fusion.feed(
                instruction.qubits,
                _gate_ptm(
                    operation.name,
                    operation.params,
                    operation.matrix,
                    len(instruction.qubits),
                ),
                operation.name,
            )
        if noise_model is not None:
            for channel, qubits in noise_model.channels_for(instruction):
                fusion.feed(qubits, channel.ptm, channel.name)
    fusion.emit_all()
    return ExecutionPlan(
        PTM,
        n,
        ops,
        circuit.parameters(),
        dtype,
        circuit,
        backend_name,
        stats=circuit.stats(),
        num_clbits=circuit.num_clbits,
    )


def _lower(
    circuit: Circuit,
    mode: str,
    dtype: np.dtype,
    noise_model: Optional["NoiseModel"],
    backend_name: str,
) -> ExecutionPlan:
    """Lower a (transpiled) circuit into plan ops for ``mode``."""
    if mode == PTM:
        return _lower_ptm(circuit, dtype, noise_model, backend_name)
    if mode not in (STATEVECTOR, DENSITY, TRAJECTORY):
        raise SimulationError(
            f"unknown plan mode {mode!r}; expected "
            f"{STATEVECTOR!r}, {DENSITY!r}, {TRAJECTORY!r} or {PTM!r}"
        )
    n = circuit.num_qubits
    pure = mode in (STATEVECTOR, TRAJECTORY)
    ops: List[PlanOp] = []
    for index, instruction in enumerate(circuit):
        operation = instruction.operation
        if instruction.is_dynamic:
            ops.append(_lower_dynamic(instruction, mode, n, dtype))
            continue
        if instruction.is_channel:
            if mode == STATEVECTOR:
                raise SimulationError(
                    "circuit contains channel instructions; the statevector "
                    "backend only simulates unitary gates — use "
                    "backend='density_matrix'"
                )
            if mode == TRAJECTORY:
                ops.append(
                    TrajectoryKrausOp.from_channel(operation, instruction.qubits, dtype)
                )
            else:
                ops.append(
                    DensityKrausOp(
                        operation.name, operation.kraus, instruction.qubits, n, dtype
                    )
                )
            continue
        if instruction.is_parametric:
            ops.append(
                ParametricSlotOp(
                    operation.name, operation.params, instruction.qubits, index
                )
            )
        elif pure:
            ops.append(
                UnitaryOp(operation.name, operation.matrix, instruction.qubits, dtype)
            )
        else:
            ops.append(
                DensityUnitaryOp(
                    operation.name, operation.matrix, instruction.qubits, n, dtype
                )
            )
        if noise_model is not None:
            # Rule matching hoisted out of the run loop: the rules
            # fired by an instruction depend only on its name and
            # qubits, both fixed at compile time (parametric or not).
            # Statevector mode never gets here — gate noise is rejected
            # by the backend's _validate_noise before lowering.
            for channel, qubits in noise_model.channels_for(instruction):
                if mode == TRAJECTORY:
                    ops.append(TrajectoryKrausOp.from_channel(channel, qubits, dtype))
                else:
                    ops.append(
                        DensityKrausOp(channel.name, channel.kraus, qubits, n, dtype)
                    )
    plan = ExecutionPlan(
        mode,
        n,
        ops,
        circuit.parameters(),
        dtype,
        circuit,
        backend_name,
        stats=circuit.stats(),
        num_clbits=circuit.num_clbits,
    )
    return plan


def compile_plan(
    circuit: Circuit,
    backend: Any = None,
    options: Optional["RunOptions"] = None,
    *,
    use_cache: bool = True,
) -> ExecutionPlan:
    """Lower ``circuit`` into an :class:`ExecutionPlan` for ``backend``.

    Transpiles first when ``options.optimize`` / ``options.passes`` ask
    for it (the lowering itself rides :func:`repro.transpile.transpile`'s
    ``lower=`` hook, and the pass statistics land on ``plan.pass_stats``),
    matches any :class:`~repro.noise.NoiseModel` rules per instruction,
    and precomputes every op tensor in the backend's dtype.  The default
    pipeline fuses at :func:`fusion_width` of the backend's plan mode
    (explicit ``options.passes`` carry their own widths).

    Parameters
    ----------
    circuit:
        The circuit (possibly parametric) to lower; never mutated.
    backend:
        Registered backend name, :class:`~repro.sim.BaseBackend`
        instance, or ``None`` for the default.  The backend's
        ``plan_mode`` selects the lowering and its ``dtype`` the
        op-tensor precision.
    options:
        A :class:`~repro.execution.RunOptions` (``None`` for defaults);
        ``optimize`` / ``passes`` / ``noise_model`` participate in the
        lowering, the sampling knobs do not.
    use_cache:
        Consult/populate the process-wide plan cache (see
        :mod:`repro.plan.cache`).  Compilation is skipped entirely on a
        hit — repeated ``execute()`` of the same circuit reuses the plan.
    """
    return _compile_plan(circuit, backend, options, use_cache)[0]


def _compile_plan(
    circuit: Circuit,
    backend: Any,
    options: Optional["RunOptions"],
    use_cache: bool,
) -> Tuple[ExecutionPlan, bool]:
    """:func:`compile_plan`, plus whether THIS call compiled (a cache miss).

    ``execute()`` attributes transpile time to the call that paid it from
    this flag; the process-wide miss counter cannot tell, because
    ``ExecutionService`` dispatcher threads compile concurrently.
    """
    from repro.execution.options import RunOptions
    from repro.plan.cache import cache_get, cache_put, plan_key

    if not isinstance(circuit, Circuit):
        raise SimulationError(
            f"expected a Circuit, got {type(circuit).__name__}"
        )
    if options is None:
        options = RunOptions()
    elif not isinstance(options, RunOptions):
        raise SimulationError(
            f"options must be RunOptions, got {type(options).__name__}"
        )
    from repro.sim.registry import get_backend

    backend = get_backend(backend)
    mode = backend.plan_mode
    if mode not in (STATEVECTOR, DENSITY, TRAJECTORY, PTM):
        raise SimulationError(
            f"backend {backend.name!r} does not declare a plan_mode; "
            "only backends with a lowering mode can compile ExecutionPlans"
        )
    backend._validate_noise(options.noise_model)
    dtype = np.dtype(backend.dtype)
    backend_name = backend.name

    if use_cache:
        key = plan_key(circuit, backend_name, mode, dtype, options)
        cached = cache_get(key)
        if cached is not None:
            return cached, False

    noise_model = options.noise_model
    has_gate_noise = noise_model is not None and getattr(
        noise_model, "has_gate_noise", False
    )
    start = time.perf_counter()
    transpile_time = 0.0
    pass_stats: Tuple[dict, ...] = ()
    if options.optimize or options.passes is not None:
        from repro.transpile import transpile

        managers: List = []
        marks: Dict[str, float] = {}

        def _hooked_lower(transpiled: Circuit) -> ExecutionPlan:
            # The hook fires the moment the pass pipeline hands over the
            # optimised circuit, so the transpile/lowering split below is
            # measured, not estimated.
            marks["transpiled_at"] = time.perf_counter()
            return _lower(
                transpiled,
                mode,
                dtype,
                noise_model if has_gate_noise else None,
                backend_name,
            )

        t0 = time.perf_counter()
        plan = transpile(
            circuit,
            passes=options.passes,
            max_fused_width=fusion_width(mode),
            pass_manager_out=managers,
            lower=_hooked_lower,
            certify=options.certify,
        )
        transpile_time = marks.get("transpiled_at", time.perf_counter()) - t0
        if managers:
            pass_stats = managers[0].last_stats_dicts()
    else:
        plan = _lower(
            circuit,
            mode,
            dtype,
            noise_model if has_gate_noise else None,
            backend_name,
        )
    plan = ExecutionPlan(
        plan.mode,
        plan.num_qubits,
        plan.ops,
        plan.parameters,
        plan.dtype,
        plan.circuit,
        plan.backend_name,
        pass_stats,
        plan.stats,
        compile_time_s=time.perf_counter() - start,
        transpile_time_s=transpile_time,
        num_clbits=plan.num_clbits,
    )
    for hook in tuple(_LOWER_HOOKS):
        hook(circuit, plan)
    if use_cache:
        return cache_put(key, options, plan), True
    return plan, True
