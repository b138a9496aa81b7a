"""Seeded input generators for the benchmark workloads.

Everything the program receives is built here from the run's ``--seed``
and never from :mod:`repro.bench.workloads`, so an edit to the in-package
smoke harness cannot change the benchmark's inputs.  Each generator takes
its own ``numpy`` Generator; :func:`stream` gives input ``i`` of a run a
generator that depends on ``(seed, label, i)`` only, so a phase that
replays inputs ``0..k`` regenerates exactly the same circuits.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import (
    Circuit,
    NoiseModel,
    Parameter,
    ReadoutError,
    depolarizing,
    get_gate,
)

ONE_QUBIT_GATES = ("h", "x", "s", "t", "rx", "ry", "rz")
ROTATIONS = ("rx", "ry", "rz")
# Adjoints of ONE_QUBIT_GATES as the registry names them; reversal pairs
# insert these, and the noise rules must fire on them too.
ONE_QUBIT_NOISY = ONE_QUBIT_GATES + ("sdg", "tdg")

LABELS = {"charter": 1, "sv_wide": 2, "cold_small": 3, "sweep": 4, "setup": 5}


def stream(seed: int, label: str, index: int) -> np.random.Generator:
    """The generator for input ``index`` of stream ``label`` under ``seed``."""
    return np.random.default_rng([seed, LABELS[label], index])


def random_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    num_gates: int,
    num_two_qubit: int,
) -> Circuit:
    """``num_gates`` random gates, exactly ``num_two_qubit`` of them CX.

    The CX count is fixed rather than drawn so that circuits of one
    workload cost the same to simulate whatever the seed; only which
    gates, qubits and angles vary.
    """
    two_qubit_slots = set(
        rng.choice(num_gates, size=num_two_qubit, replace=False).tolist()
    )
    circuit = Circuit(num_qubits)
    for slot in range(num_gates):
        if slot in two_qubit_slots:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
            continue
        name = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
        params = (float(rng.uniform(-np.pi, np.pi)),) if name in ROTATIONS else ()
        circuit.append(get_gate(name, *params), (int(rng.integers(num_qubits)),))
    return circuit


def amplify(circuit: Circuit, site: int, reps: int) -> Circuit:
    """CHARTER's variant: ``reps`` reversal pairs g†·g right after gate ``site``.

    Noiselessly the variant equals ``circuit``; under gate noise every
    inserted gate adds its own error, which amplifies the impact of the
    gate at ``site`` on the output distribution.
    """
    if not 0 <= site < len(circuit):
        raise IndexError(f"site {site} outside a {len(circuit)}-gate circuit")
    variant = Circuit(circuit.num_qubits)
    for index, instruction in enumerate(circuit):
        variant.append(instruction.operation, instruction.qubits)
        if index == site:
            inverse = instruction.operation.inverse()
            for _ in range(reps):
                variant.append(inverse, instruction.qubits)
                variant.append(instruction.operation, instruction.qubits)
    return variant


def charter_variants(circuit: Circuit, reps: int) -> List[Circuit]:
    """The baseline followed by one amplified variant per gate site."""
    return [circuit] + [amplify(circuit, site, reps) for site in range(len(circuit))]


def charter_noise() -> NoiseModel:
    """1q depolarizing 0.01, 2q depolarizing 0.02, and a readout error."""
    model = NoiseModel("perfbench-charter")
    model.add_channel(depolarizing(0.01), gates=ONE_QUBIT_NOISY)
    model.add_channel(depolarizing(0.02, 2), gates=["cx"])
    model.set_readout_error(ReadoutError(0.02, 0.03))
    return model


def layered_rotations(
    rng: np.random.Generator, num_qubits: int, layers: int
) -> Circuit:
    """Per-qubit rz·ry·rz rotations between CX brickwork layers."""
    circuit = Circuit(num_qubits)
    for layer in range(layers):
        for q in range(num_qubits):
            for name in ("rz", "ry", "rz"):
                angle = float(rng.uniform(-np.pi, np.pi))
                circuit.append(get_gate(name, angle), (q,))
        for q in range(layer % 2, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
    return circuit


def sweep_template(rng: np.random.Generator, num_qubits: int, layers: int) -> Circuit:
    """A parametric ansatz: one ``ry(theta_q)`` per qubit, then fixed layers."""
    circuit = Circuit(num_qubits)
    for q in range(num_qubits):
        circuit.ry(Parameter(f"theta{q}"), q)
    for layer in range(layers):
        for q in range(layer % 2, num_qubits - 1, 2):
            circuit.cx(q, q + 1)
        for q in range(num_qubits):
            circuit.rx(float(rng.uniform(-np.pi, np.pi)), q)
    return circuit


def sweep_bindings(
    rng: np.random.Generator, num_qubits: int, points: int
) -> List[Dict[str, float]]:
    return [
        {f"theta{q}": float(v) for q, v in enumerate(rng.uniform(-np.pi, np.pi, num_qubits))}
        for _ in range(points)
    ]


def sweep_noise() -> NoiseModel:
    """Gate noise only: trajectories sample its Kraus branches per shot."""
    model = NoiseModel("perfbench-sweep")
    model.add_channel(depolarizing(0.01), gates=ONE_QUBIT_NOISY)
    model.add_channel(depolarizing(0.02, 2), gates=["cx"])
    return model
