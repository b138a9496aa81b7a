"""The :class:`Circuit` container of the IR.

A circuit is an ordered list of :class:`Instruction` objects over a register
of ``num_qubits`` qubits.  Instructions themselves are immutable; the circuit
is an append-only builder with structural queries (``depth``, ``count_ops``)
and whole-circuit transforms (``compose``, ``inverse``, ``remapped``) that
return new objects rather than mutating in place.

Convenience single-gate methods (``h``, ``cx``, ``rz``...) resolve gates
through :mod:`repro.gates` lazily so the IR layer itself stays free of a
compile-time dependency on the gate library.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.circuit.channel import Channel
from repro.circuit.dynamic import Conditional, Measure, Reset, clbits_used
from repro.circuit.instruction import Instruction, Operation
from repro.circuit.parameter import Parameter
from repro.utils.exceptions import CircuitError

# bind() accepts Parameter objects or bare names as keys.
ParameterBinding = Mapping[Union[Parameter, str], float]


class CircuitStats:
    """A structural snapshot of one circuit: sizes, depth, composition.

    Computed by :meth:`Circuit.stats` in a single pass over the
    instruction list (plus the depth scan).  The snapshot is immutable and
    hashable via :meth:`key`, so it can serve as a component of cache keys
    and as a JSON-friendly report row via
    :meth:`as_dict` — consumers should reach for it instead of ad-hoc
    ``len(circuit.instructions)`` counting.
    """

    __slots__ = (
        "num_qubits",
        "num_instructions",
        "depth",
        "gate_counts",
        "num_parametric",
        "num_parameters",
        "num_channels",
        "num_clbits",
        "num_measurements",
        "num_resets",
        "num_conditionals",
    )

    def __init__(
        self,
        num_qubits: int,
        num_instructions: int,
        depth: int,
        gate_counts: Mapping[str, int],
        num_parametric: int,
        num_parameters: int,
        num_channels: int,
        num_clbits: int = 0,
        num_measurements: int = 0,
        num_resets: int = 0,
        num_conditionals: int = 0,
    ) -> None:
        from types import MappingProxyType

        object.__setattr__(self, "num_qubits", int(num_qubits))
        object.__setattr__(self, "num_instructions", int(num_instructions))
        object.__setattr__(self, "depth", int(depth))
        # Read-only view over a private copy: the snapshot feeds hashes
        # and cache keys, so mutating it through the attribute must fail,
        # not silently change key()/hash() after insertion.
        object.__setattr__(self, "gate_counts", MappingProxyType(dict(gate_counts)))
        object.__setattr__(self, "num_parametric", int(num_parametric))
        object.__setattr__(self, "num_parameters", int(num_parameters))
        object.__setattr__(self, "num_channels", int(num_channels))
        object.__setattr__(self, "num_clbits", int(num_clbits))
        object.__setattr__(self, "num_measurements", int(num_measurements))
        object.__setattr__(self, "num_resets", int(num_resets))
        object.__setattr__(self, "num_conditionals", int(num_conditionals))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CircuitStats is immutable")

    def __reduce__(self) -> tuple:
        # The gate_counts mappingproxy cannot pickle; rebuild through
        # __init__ (which re-wraps a private copy) so stats — and the
        # ExecutionPlans that carry them to worker processes — round-trip.
        return (
            CircuitStats,
            (
                self.num_qubits,
                self.num_instructions,
                self.depth,
                dict(self.gate_counts),
                self.num_parametric,
                self.num_parameters,
                self.num_channels,
                self.num_clbits,
                self.num_measurements,
                self.num_resets,
                self.num_conditionals,
            ),
        )

    @property
    def num_dynamic(self) -> int:
        """Total dynamic instructions (measure + reset + conditional)."""
        return self.num_measurements + self.num_resets + self.num_conditionals

    def key(self) -> tuple:
        """A hashable tuple identifying this structural snapshot."""
        return (
            self.num_qubits,
            self.num_instructions,
            self.depth,
            tuple(sorted(self.gate_counts.items())),
            self.num_parametric,
            self.num_parameters,
            self.num_channels,
            self.num_clbits,
            self.num_measurements,
            self.num_resets,
            self.num_conditionals,
        )

    def as_dict(self) -> dict:
        """A JSON-serialisable view (gate_counts copied, not aliased)."""
        return {
            "num_qubits": self.num_qubits,
            "num_instructions": self.num_instructions,
            "depth": self.depth,
            "gate_counts": dict(self.gate_counts),
            "num_parametric": self.num_parametric,
            "num_parameters": self.num_parameters,
            "num_channels": self.num_channels,
            "num_clbits": self.num_clbits,
            "num_measurements": self.num_measurements,
            "num_resets": self.num_resets,
            "num_conditionals": self.num_conditionals,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CircuitStats):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        dynamic = f", {self.num_dynamic} dynamic" if self.num_dynamic else ""
        return (
            f"CircuitStats({self.num_qubits} qubits, "
            f"{self.num_instructions} instructions, depth {self.depth}, "
            f"{self.num_parametric} parametric, {self.num_channels} channels"
            f"{dynamic})"
        )


class Circuit:
    """An ordered gate-instruction list over a fixed-width qubit register."""

    __slots__ = ("_num_qubits", "_name", "_instructions", "_num_clbits", "_clbits_pinned")

    def __init__(
        self,
        num_qubits: int,
        name: Optional[str] = None,
        num_clbits: Optional[int] = None,
    ) -> None:
        if num_qubits < 1:
            raise CircuitError(f"circuit needs >= 1 qubit, got {num_qubits}")
        if num_clbits is not None and num_clbits < 0:
            raise CircuitError(f"circuit needs >= 0 clbits, got {num_clbits}")
        self._num_qubits = int(num_qubits)
        self._name = name
        self._instructions: List[Instruction] = []
        # An explicit width pins the classical register: appends referencing
        # clbits beyond it raise instead of silently widening, so a typo'd
        # index fails at build time rather than at lowering.  The default
        # (None) keeps the historical auto-widening register starting at 0.
        self._clbits_pinned = num_clbits is not None
        self._num_clbits = int(num_clbits) if num_clbits is not None else 0

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Width of the classical register.

        Grows automatically as ``measure``/``if_bit`` reference higher
        clbit indices, unless an explicit width was passed to the
        constructor — then the register is *pinned* and out-of-range
        references raise at append time (see :attr:`clbits_pinned`).
        """
        return self._num_clbits

    @property
    def clbits_pinned(self) -> bool:
        """Whether the classical register width is fixed.

        ``True`` when the constructor received an explicit ``num_clbits``:
        appends referencing clbits at or beyond the width raise
        :class:`~repro.utils.exceptions.CircuitError` eagerly.  ``False``
        (the default) keeps the auto-widening register.
        """
        return self._clbits_pinned

    @property
    def name(self) -> Optional[str]:
        return self._name

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self._num_qubits == other._num_qubits
            and self._num_clbits == other._num_clbits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:
        label = f" {self._name!r}" if self._name else ""
        return (
            f"Circuit({self._num_qubits} qubits,{label} "
            f"{len(self._instructions)} instructions, depth {self.depth()})"
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def append(self, operation: Operation, qubits: Sequence[int]) -> "Circuit":
        """Append an operation (gate/channel/dynamic leaf) on ``qubits``.

        Validates indices against the register; returns ``self`` so calls
        can be chained.  Dynamic operations referencing a clbit beyond the
        current classical register widen it — unless the register is
        pinned, in which case they raise eagerly.
        """
        instruction = Instruction(operation, qubits)
        out_of_range = [q for q in instruction.qubits if q >= self._num_qubits]
        if out_of_range:
            raise CircuitError(
                f"qubit(s) {out_of_range} out of range for a "
                f"{self._num_qubits}-qubit circuit"
            )
        clbits_needed = clbits_used(operation)
        if self._clbits_pinned and clbits_needed > self._num_clbits:
            raise CircuitError(
                f"clbit {clbits_needed - 1} out of range for a pinned "
                f"{self._num_clbits}-clbit classical register"
            )
        self._instructions.append(instruction)
        self._num_clbits = max(self._num_clbits, clbits_needed)
        return self

    def extend(self, instructions: Sequence[Instruction]) -> "Circuit":
        for instruction in instructions:
            self.append(instruction.operation, instruction.qubits)
        return self

    def copy(self, name: Optional[str] = None) -> "Circuit":
        out = Circuit(
            self._num_qubits,
            name if name is not None else self._name,
            num_clbits=self._num_clbits,
        )
        out._clbits_pinned = self._clbits_pinned
        out._instructions = list(self._instructions)
        return out

    # ------------------------------------------------------------------
    # whole-circuit transforms
    # ------------------------------------------------------------------
    def compose(self, other: "Circuit", qubits: Optional[Sequence[int]] = None) -> "Circuit":
        """Return a new circuit running ``self`` then ``other``.

        ``qubits`` maps qubit ``q`` of ``other`` onto ``qubits[q]`` of this
        circuit; by default ``other`` must not be wider than ``self`` and maps
        identically.
        """
        if qubits is None:
            if other.num_qubits > self._num_qubits:
                raise CircuitError(
                    f"cannot compose a {other.num_qubits}-qubit circuit onto "
                    f"{self._num_qubits} qubits without an explicit mapping"
                )
            mapping: Sequence[int] = range(other.num_qubits)
        else:
            mapping = tuple(int(q) for q in qubits)
            if len(mapping) != other.num_qubits:
                raise CircuitError(
                    f"mapping has {len(mapping)} entries for a "
                    f"{other.num_qubits}-qubit circuit"
                )
            if len(set(mapping)) != len(mapping):
                raise CircuitError(f"duplicate qubits in mapping: {mapping}")
        out = self.copy()
        # Clbit indices are global (there is one classical register), so
        # composition keeps them verbatim; only the qubits remap.  The
        # merged register takes the wider width and stays pinned if either
        # side was.
        out._num_clbits = max(out._num_clbits, other._num_clbits)
        out._clbits_pinned = self._clbits_pinned or other._clbits_pinned
        for instruction in other:
            out.append(
                instruction.operation, tuple(mapping[q] for q in instruction.qubits)
            )
        return out

    def inverse(self) -> "Circuit":
        """The adjoint circuit: reversed order, each gate inverted."""
        out = Circuit(self._num_qubits, self._name)
        out._instructions = [
            instruction.inverse() for instruction in reversed(self._instructions)
        ]
        return out

    def remapped(self, mapping: Sequence[int], num_qubits: Optional[int] = None) -> "Circuit":
        """Relabel qubits: instruction qubit ``q`` becomes ``mapping[q]``."""
        width = num_qubits if num_qubits is not None else self._num_qubits
        out = Circuit(width, self._name, num_clbits=self._num_clbits)
        out._clbits_pinned = self._clbits_pinned
        for instruction in self._instructions:
            moved = instruction.remapped(mapping)
            out.append(moved.operation, moved.qubits)
        return out

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Greedy circuit depth: longest chain of instructions sharing qubits."""
        level: Dict[int, int] = {}
        depth = 0
        for instruction in self._instructions:
            layer = 1 + max((level.get(q, 0) for q in instruction.qubits), default=0)
            for q in instruction.qubits:
                level[q] = layer
            depth = max(depth, layer)
        return depth

    def count_ops(self) -> Dict[str, int]:
        """Histogram of operation (gate and channel) names."""
        counts: Dict[str, int] = {}
        for instruction in self._instructions:
            name = instruction.operation.name
            counts[name] = counts.get(name, 0) + 1
        return counts

    def has_channels(self) -> bool:
        """Whether any instruction is a :class:`Channel` application."""
        return any(instruction.is_channel for instruction in self._instructions)

    def has_dynamic_ops(self) -> bool:
        """Whether any instruction is a measure/reset/if_bit application."""
        return any(instruction.is_dynamic for instruction in self._instructions)

    def stats(self) -> CircuitStats:
        """One-pass structural snapshot: counts, depth, composition.

        ``num_parametric`` counts parametric *slots* (instructions whose
        gate still carries unbound parameters); ``num_parameters`` counts
        the distinct :class:`Parameter` symbols among them.
        """
        gate_counts: Dict[str, int] = {}
        num_parametric = 0
        num_channels = 0
        num_measurements = 0
        num_resets = 0
        num_conditionals = 0
        symbols: Dict[Parameter, None] = {}
        for instruction in self._instructions:
            name = instruction.operation.name
            gate_counts[name] = gate_counts.get(name, 0) + 1
            if instruction.is_channel:
                num_channels += 1
            elif instruction.is_measure:
                num_measurements += 1
            elif instruction.is_reset:
                num_resets += 1
            elif instruction.is_conditional:
                num_conditionals += 1
            elif instruction.is_parametric:
                num_parametric += 1
                for parameter in instruction.operation.parameters:
                    symbols.setdefault(parameter, None)
        return CircuitStats(
            num_qubits=self._num_qubits,
            num_instructions=len(self._instructions),
            depth=self.depth(),
            gate_counts=gate_counts,
            num_parametric=num_parametric,
            num_parameters=len(symbols),
            num_channels=num_channels,
            num_clbits=self._num_clbits,
            num_measurements=num_measurements,
            num_resets=num_resets,
            num_conditionals=num_conditionals,
        )

    def parameters(self) -> Tuple[Parameter, ...]:
        """Distinct unbound :class:`Parameter` symbols, in first-use order."""
        seen: Dict[Parameter, None] = {}
        for instruction in self._instructions:
            if instruction.is_parametric:
                for parameter in instruction.operation.parameters:
                    seen.setdefault(parameter, None)
        return tuple(seen)

    def is_parametric(self) -> bool:
        """Whether any gate still carries unbound parameters."""
        return any(
            instruction.is_parametric for instruction in self._instructions
        )

    def bind(self, binding: ParameterBinding) -> "Circuit":
        """Substitute parameter values and return the bound circuit.

        ``binding`` maps :class:`Parameter` objects (or their names) to
        real values.  Every key must correspond to a parameter actually
        present in the circuit — a stray key is a hard error, since it
        almost always means a typo in a sweep specification.  Binding may
        be partial: parameters left out stay symbolic, so templates can be
        specialised in stages.

        Bound gates are re-resolved through the gate registry, so each
        ``(name, values)`` combination shares the registry's cached
        matrix; non-parametric instructions are carried over untouched.
        """
        from repro.circuit.parameter import normalize_binding, validate_binding_names
        from repro.gates import get_gate

        values = normalize_binding(binding, CircuitError)
        validate_binding_names(
            values,
            (parameter.name for parameter in self.parameters()),
            CircuitError,
        )
        out = Circuit(self._num_qubits, self._name, num_clbits=self._num_clbits)
        out._clbits_pinned = self._clbits_pinned
        for instruction in self._instructions:
            operation = instruction.operation
            if instruction.is_parametric:
                bound = tuple(
                    values.get(p.name, p) if isinstance(p, Parameter) else p
                    for p in operation.params
                )
                operation = get_gate(operation.name, *bound)
            out.append(operation, instruction.qubits)
        return out

    def active_qubits(self) -> Tuple[int, ...]:
        """Sorted qubits touched by at least one instruction."""
        seen = set()
        for instruction in self._instructions:
            seen.update(instruction.qubits)
        return tuple(sorted(seen))

    # ------------------------------------------------------------------
    # standard-gate conveniences (lazy gate-library lookup)
    # ------------------------------------------------------------------
    def _append_std(self, name: str, qubits: Sequence[int], *params: float) -> "Circuit":
        from repro.gates import get_gate

        return self.append(get_gate(name, *params), qubits)

    def x(self, qubit: int) -> "Circuit":
        return self._append_std("x", (qubit,))

    def y(self, qubit: int) -> "Circuit":
        return self._append_std("y", (qubit,))

    def z(self, qubit: int) -> "Circuit":
        return self._append_std("z", (qubit,))

    def h(self, qubit: int) -> "Circuit":
        return self._append_std("h", (qubit,))

    def s(self, qubit: int) -> "Circuit":
        return self._append_std("s", (qubit,))

    def t(self, qubit: int) -> "Circuit":
        return self._append_std("t", (qubit,))

    def rx(self, theta: float, qubit: int) -> "Circuit":
        return self._append_std("rx", (qubit,), theta)

    def ry(self, theta: float, qubit: int) -> "Circuit":
        return self._append_std("ry", (qubit,), theta)

    def rz(self, theta: float, qubit: int) -> "Circuit":
        return self._append_std("rz", (qubit,), theta)

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "Circuit":
        return self._append_std("u3", (qubit,), theta, phi, lam)

    def unitary(self, matrix: object, qubits: Sequence[int]) -> "Circuit":
        """Append an explicit-matrix ``unitary`` gate on ``qubits``.

        ``matrix`` must be a unitary of dimension ``2**len(qubits)``;
        ``qubits[0]`` is its most significant index bit, as for every
        multi-qubit gate.
        """
        from repro.gates import unitary_gate

        return self.append(unitary_gate(matrix), tuple(qubits))

    def channel(self, channel: Channel, qubits: Sequence[int]) -> "Circuit":
        """Append a noise :class:`Channel` on ``qubits``.

        Channel instructions require a mixed-state backend
        (``density_matrix``) to simulate; the pure-state backend rejects
        them.  Transpiler passes treat channels as barriers.
        """
        if not isinstance(channel, Channel):
            raise CircuitError(
                f"expected a Channel, got {type(channel).__name__}"
            )
        return self.append(channel, tuple(qubits))

    # ------------------------------------------------------------------
    # dynamic operations (mid-circuit measurement & classical control)
    # ------------------------------------------------------------------
    def measure(self, qubit: int, clbit: int) -> "Circuit":
        """Measure ``qubit`` in the Z basis into classical bit ``clbit``.

        Widens the classical register to ``clbit + 1`` if needed.  A
        circuit containing measurements samples its *clbit* register —
        ``execute(..., shots=N)`` returns counts/memory over clbit
        strings, not terminal qubit bitstrings.
        """
        return self.append(Measure(clbit), (qubit,))

    def reset(self, qubit: int) -> "Circuit":
        """Re-initialise ``qubit`` to ``|0>`` (measure-and-flip, outcome
        discarded)."""
        return self.append(Reset(), (qubit,))

    def if_bit(self, clbit: int, value: int, instruction: Instruction) -> "Circuit":
        """Apply ``instruction`` only when ``clbit`` reads ``value``.

        ``instruction`` is an :class:`Instruction` wrapping a concrete
        (non-parametric) :class:`Gate`, e.g.
        ``Instruction(get_gate("x"), (2,))``.  The classical branch
        resolves per shot/trajectory at execution time.
        """
        if not isinstance(instruction, Instruction):
            raise CircuitError(
                f"if_bit expects an Instruction, got "
                f"{type(instruction).__name__}"
            )
        return self.append(
            Conditional(clbit, value, instruction.operation), instruction.qubits
        )

    def cx(self, control: int, target: int) -> "Circuit":
        return self._append_std("cx", (control, target))

    def cz(self, control: int, target: int) -> "Circuit":
        return self._append_std("cz", (control, target))

    def swap(self, qubit_a: int, qubit_b: int) -> "Circuit":
        return self._append_std("swap", (qubit_a, qubit_b))
