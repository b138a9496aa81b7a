"""Canonical benchmark circuits.

Six families spanning the fusion and noise spectrum:

* ``ghz`` — entangling CX chain, almost nothing for fusion to merge;
  the floor case.
* ``layered_rotations`` — QFT-like layers of per-qubit Euler rotations
  (rz·ry·rz) separated by CX brickwork; the dense single-qubit runs are
  exactly what :class:`~repro.transpile.FuseAdjacentGates` collapses.
* ``random_dense`` — seeded random mix of one- and two-qubit gates; the
  "typical workload" middle ground.
* ``ghz_depolarizing`` — GHZ with a depolarizing channel after every
  gate; exercises the density-matrix backend's channel hot path.
* ``layered_damped`` — layered rotations with amplitude damping after
  each brickwork layer; mixed fusion + noise (channels are barriers, so
  the rotation runs between them still fuse).
* ``brickwork_depolarized`` — deep rotation brickwork with a
  depolarizing channel after *every* gate; the channel density makes
  circuit-level gate fusion nearly useless (every run is a barrier) and
  is exactly where the PTM backend's fusion *through* channels shines.

Noisy families embed :class:`~repro.circuit.Channel` instructions in the
circuit (rather than using a :class:`~repro.noise.NoiseModel`) so the
noise placement is part of the IR and survives transpilation exactly —
the fused and unfused runs stay distribution-identical.

Each family is exposed both as a plain circuit builder and, via
:func:`default_workloads`, as named :class:`Workload` entries with the
sizes the analysis CLI and the tests use (n = 8..16 full statevector,
n = 6..8 for the O(4**n)-memory density-matrix families, smaller with
``smoke=True``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.circuit import Circuit, Parameter
from repro.utils.rng import ensure_rng


class Workload:
    """A named, deterministic circuit factory.

    ``backend`` pins the workload to a registered backend name; ``None``
    means the statevector default.  Noisy workloads embed their channels
    in the built circuit and pin ``"density_matrix"``.
    """

    __slots__ = ("name", "num_qubits", "_build", "backend")

    def __init__(
        self,
        name: str,
        num_qubits: int,
        build: Callable[[], Circuit],
        backend: Optional[str] = None,
    ) -> None:
        self.name = name
        self.num_qubits = num_qubits
        self._build = build
        self.backend = backend

    def build(self) -> Circuit:
        return self._build()

    def __repr__(self) -> str:
        extra = f", backend={self.backend}" if self.backend else ""
        return f"Workload({self.name}, n={self.num_qubits}{extra})"


def ghz(num_qubits: int) -> Circuit:
    """The ``n``-qubit GHZ preparation: H then a CX chain."""
    circuit = Circuit(num_qubits, name=f"ghz_{num_qubits}")
    circuit.h(0)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    return circuit


def layered_rotations(num_qubits: int, layers: int = 4, seed: int = 7) -> Circuit:
    """QFT-like layered circuit: per-qubit rz·ry·rz runs + CX brickwork.

    Angles are drawn from a seeded generator so the same ``(n, layers,
    seed)`` always builds the identical circuit.
    """
    rng = ensure_rng(seed)
    circuit = Circuit(num_qubits, name=f"layered_rotations_{num_qubits}")
    for layer in range(layers):
        for q in range(num_qubits):
            a, b, c = rng.uniform(0.0, 6.283185307179586, size=3)
            circuit.rz(a, q).ry(b, q).rz(c, q)
        offset = layer % 2
        for q in range(offset, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
    return circuit


def random_dense(num_qubits: int, num_gates: int = 120, seed: int = 11) -> Circuit:
    """Seeded random circuit mixing one- and two-qubit standard gates."""
    rng = ensure_rng(seed)
    one_qubit = ("h", "x", "s", "t")
    rotations = ("rx", "ry", "rz")
    two_qubit = ("cx", "cz", "swap")
    circuit = Circuit(num_qubits, name=f"random_dense_{num_qubits}")
    for _ in range(num_gates):
        kind = rng.random()
        if kind < 0.35:
            name = one_qubit[int(rng.integers(len(one_qubit)))]
            getattr(circuit, name)(int(rng.integers(num_qubits)))
        elif kind < 0.7:
            name = rotations[int(rng.integers(len(rotations)))]
            getattr(circuit, name)(
                float(rng.uniform(0.0, 6.283185307179586)),
                int(rng.integers(num_qubits)),
            )
        else:
            name = two_qubit[int(rng.integers(len(two_qubit)))]
            a = int(rng.integers(num_qubits))
            b = int(rng.integers(num_qubits - 1))
            if b >= a:
                b += 1
            getattr(circuit, name)(a, b)
    return circuit


def ghz_depolarizing(num_qubits: int, p: float = 0.02) -> Circuit:
    """GHZ preparation with a depolarizing channel after every gate."""
    from repro.noise import depolarizing

    channel = depolarizing(p)
    circuit = Circuit(num_qubits, name=f"ghz_depolarizing_{num_qubits}")
    circuit.h(0).channel(channel, (0,))
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
        circuit.channel(channel, (q,)).channel(channel, (q + 1,))
    return circuit


def layered_damped(
    num_qubits: int, layers: int = 4, gamma: float = 0.03, seed: int = 7
) -> Circuit:
    """Layered rotations with amplitude damping on every qubit per layer.

    The damping channels sit *between* brickwork layers, so the rz·ry·rz
    runs inside each layer remain fusable while the noise placement is
    pinned in the IR.
    """
    from repro.noise import amplitude_damping

    channel = amplitude_damping(gamma)
    rng = ensure_rng(seed)
    circuit = Circuit(num_qubits, name=f"layered_damped_{num_qubits}")
    for layer in range(layers):
        for q in range(num_qubits):
            a, b, c = rng.uniform(0.0, 6.283185307179586, size=3)
            circuit.rz(a, q).ry(b, q).rz(c, q)
        offset = layer % 2
        for q in range(offset, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
        for q in range(num_qubits):
            circuit.channel(channel, (q,))
    return circuit


def brickwork_depolarized(
    num_qubits: int, layers: int = 4, p: float = 0.01, seed: int = 13
) -> Circuit:
    """Deep rotation brickwork with depolarizing noise after *every* gate.

    Per layer: an rz·ry pair (each followed by a one-qubit depolarizing
    channel) on every qubit, then CX brickwork with a channel on both
    ends of each CX.  With a channel behind every gate there are no
    channel-free gate runs left for circuit-level fusion to merge —
    density-mode plans carry one Kraus op per channel, while PTM-mode
    lowering folds whole gate+channel bricks into single real ops.
    """
    from repro.noise import depolarizing

    channel = depolarizing(p)
    rng = ensure_rng(seed)
    circuit = Circuit(num_qubits, name=f"brickwork_depolarized_{num_qubits}")
    for layer in range(layers):
        for q in range(num_qubits):
            a, b = rng.uniform(0.0, 6.283185307179586, size=2)
            circuit.rz(a, q).channel(channel, (q,))
            circuit.ry(b, q).channel(channel, (q,))
        offset = layer % 2
        for q in range(offset, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
            circuit.channel(channel, (q,)).channel(channel, (q + 1,))
    return circuit


def parameterized_rotations(
    num_qubits: int, layers: int = 2
) -> Tuple[Circuit, List[Parameter]]:
    """A parametric rotation template for batched sweeps.

    Per layer: an ``ry(theta_l_q)`` on every qubit (each angle its own
    :class:`~repro.circuit.Parameter`) followed by CX brickwork.  Returns
    the unbound circuit together with its parameters in binding order —
    the sweep tests and the speed-floor script stamp this template out
    over many bindings through a single transpile.
    """
    parameters: List[Parameter] = []
    circuit = Circuit(num_qubits, name=f"parameterized_rotations_{num_qubits}")
    for layer in range(layers):
        for q in range(num_qubits):
            theta = Parameter(f"theta_{layer}_{q}")
            parameters.append(theta)
            circuit.ry(theta, q)
        offset = layer % 2
        for q in range(offset, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
    return circuit, parameters


def sweep_bindings(
    parameters: List[Parameter], points: int, seed: int = 17
) -> List[dict]:
    """``points`` seeded random bindings over ``parameters``."""
    rng = ensure_rng(seed)
    return [
        {
            p: float(angle)
            for p, angle in zip(
                parameters,
                rng.uniform(0.0, 6.283185307179586, size=len(parameters)),
            )
        }
        for _ in range(points)
    ]


def default_workloads(smoke: bool = False) -> List[Workload]:
    """The workload list: 6 families x sizes (small for smoke).

    Density-matrix families run at smaller widths than the statevector
    ones — mixed-state memory is O(4**n), so n = 10 density costs what
    n = 20 statevector would.
    """
    sizes: Tuple[int, ...] = (4, 6) if smoke else (8, 12, 16)
    noisy_sizes: Tuple[int, ...] = (4,) if smoke else (6, 8)
    layers = 2 if smoke else 4
    # The channel-after-every-gate family is where fusion-through-noise
    # pays off; run it deeper than the other noisy families so the win
    # is measured where it matters.
    brickwork_layers = 3 if smoke else 6
    gates_per_qubit = 6 if smoke else 12
    workloads: List[Workload] = []
    for n in sizes:
        workloads.append(Workload("ghz", n, lambda n=n: ghz(n)))
        workloads.append(
            Workload(
                "layered_rotations",
                n,
                lambda n=n: layered_rotations(n, layers=layers),
            )
        )
        workloads.append(
            Workload(
                "random_dense",
                n,
                lambda n=n: random_dense(n, num_gates=gates_per_qubit * n),
            )
        )
    for n in noisy_sizes:
        workloads.append(
            Workload(
                "ghz_depolarizing",
                n,
                lambda n=n: ghz_depolarizing(n),
                backend="density_matrix",
            )
        )
        workloads.append(
            Workload(
                "layered_damped",
                n,
                lambda n=n: layered_damped(n, layers=layers),
                backend="density_matrix",
            )
        )
        workloads.append(
            Workload(
                "brickwork_depolarized",
                n,
                lambda n=n: brickwork_depolarized(n, layers=brickwork_layers),
                backend="density_matrix",
            )
        )
    return workloads
