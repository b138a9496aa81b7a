"""Pass-manager core: the :class:`Pass` contract and pipeline driver.

Passes are pure rewrites: they consume a :class:`~repro.circuit.Circuit`
and return a new one over the same register width, never mutating their
input.  The :class:`PassManager` enforces that contract between stages so
a buggy pass fails loudly at its own boundary instead of corrupting the
circuit for every pass downstream.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.circuit import Circuit
from repro.utils.exceptions import TranspilerError

if TYPE_CHECKING:
    from repro.analysis.certify import Certificate


class Pass(abc.ABC):
    """A single circuit-rewrite stage.

    Subclasses implement :meth:`run`; configuration (tolerances, width
    caps) lives on the instance so one configured pass can be reused
    across many circuits.
    """

    @property
    def name(self) -> str:
        """Human-readable pass name (defaults to the class name)."""
        return type(self).__name__

    @abc.abstractmethod
    def run(self, circuit: Circuit) -> Circuit:
        """Return the rewritten circuit; must not mutate ``circuit``."""

    def __call__(self, circuit: Circuit) -> Circuit:
        return self.run(circuit)

    def __repr__(self) -> str:
        return f"{self.name}()"


class PassStats:
    """Before/after snapshot of one pass application.

    When the run was certified, :attr:`certificate` carries the
    :class:`~repro.analysis.Certificate` proving this pass's rewrite
    equivalent (``None`` on uncertified runs).
    """

    __slots__ = (
        "pass_name",
        "gates_before",
        "gates_after",
        "depth_before",
        "depth_after",
        "certificate",
    )

    def __init__(
        self,
        pass_name: str,
        gates_before: int,
        gates_after: int,
        depth_before: int,
        depth_after: int,
        certificate: Optional["Certificate"] = None,
    ) -> None:
        self.pass_name = pass_name
        self.gates_before = gates_before
        self.gates_after = gates_after
        self.depth_before = depth_before
        self.depth_after = depth_after
        self.certificate = certificate

    def as_dict(self) -> dict:
        certificate: Optional[dict] = None
        if self.certificate is not None:
            certificate = self.certificate.as_dict()
        return {
            "pass": self.pass_name,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "certificate": certificate,
        }

    def __repr__(self) -> str:
        return (
            f"PassStats({self.pass_name}: gates {self.gates_before}->"
            f"{self.gates_after}, depth {self.depth_before}->{self.depth_after})"
        )


class PassManager:
    """An ordered pipeline of :class:`Pass` stages.

    ``run`` applies each pass in order, validating that every stage hands
    back a :class:`Circuit` of unchanged register width.  Statistics for
    the most recent :meth:`run` are kept on :attr:`last_stats` so callers
    (e.g. the bench harness) can report per-pass gate/depth deltas without
    re-measuring.

    With ``certify=True`` (set here or per :meth:`run`), every pass
    application is proven semantically equivalent by
    :func:`repro.analysis.certify_rewrite` before the pipeline moves on;
    the per-pass :class:`~repro.analysis.Certificate` lands on
    ``last_stats[i].certificate`` and an unprovable rewrite raises
    :class:`~repro.utils.exceptions.CertificationError` at the failing
    pass's own boundary.
    """

    def __init__(self, passes: Iterable[Pass] = (), *, certify: bool = False) -> None:
        self._passes: List[Pass] = []
        self._last_stats: Tuple[PassStats, ...] = ()
        self.certify = bool(certify)
        for p in passes:
            self.append(p)

    @property
    def passes(self) -> Tuple[Pass, ...]:
        return tuple(self._passes)

    @property
    def last_stats(self) -> Tuple[PassStats, ...]:
        """Per-pass statistics from the most recent :meth:`run`."""
        return self._last_stats

    def last_stats_dicts(self) -> Tuple[dict, ...]:
        """The most recent run's statistics as JSON-serialisable dicts.

        The plan layer stores this on every compiled
        :class:`~repro.plan.ExecutionPlan` (``plan.pass_stats``) so a
        plan can report how the circuit it lowered was rewritten without
        the caller keeping the :class:`PassManager` alive.
        """
        return tuple(stats.as_dict() for stats in self._last_stats)

    def append(self, pass_: Pass) -> "PassManager":
        if not isinstance(pass_, Pass):
            raise TranspilerError(
                f"PassManager accepts Pass instances, got {type(pass_).__name__}"
            )
        self._passes.append(pass_)
        return self

    def run(self, circuit: Circuit, certify: Optional[bool] = None) -> Circuit:
        """Run every pass in order and return the final circuit.

        ``certify`` overrides the manager's default for this run only;
        ``None`` keeps :attr:`certify`.
        """
        if not isinstance(circuit, Circuit):
            raise TranspilerError(
                f"expected a Circuit, got {type(circuit).__name__}"
            )
        do_certify = self.certify if certify is None else bool(certify)
        if do_certify:
            # Lazy upward import (whitelisted in tools/check_layers.py):
            # certification is opt-in, so uncertified transpiles never
            # touch the analysis layer.
            from repro.analysis.certify import certify_rewrite
        stats: List[PassStats] = []
        current = circuit
        depth_before = current.depth()
        for pass_ in self._passes:
            gates_before = len(current)
            result = pass_.run(current)
            if not isinstance(result, Circuit):
                raise TranspilerError(
                    f"pass {pass_.name} returned {type(result).__name__}, "
                    "expected a Circuit"
                )
            if result.num_qubits != current.num_qubits:
                raise TranspilerError(
                    f"pass {pass_.name} changed register width "
                    f"{current.num_qubits} -> {result.num_qubits}"
                )
            certificate = None
            if do_certify:
                certificate = certify_rewrite(
                    current, result, pass_.name
                ).raise_if_failed()
            depth_after = result.depth()
            stats.append(
                PassStats(
                    pass_.name,
                    gates_before,
                    len(result),
                    depth_before,
                    depth_after,
                    certificate,
                )
            )
            current, depth_before = result, depth_after
        self._last_stats = tuple(stats)
        return current

    def __len__(self) -> int:
        return len(self._passes)

    def __repr__(self) -> str:
        inner = ", ".join(p.name for p in self._passes)
        return f"PassManager([{inner}])"


def default_passes(max_fused_width: int = 2) -> Tuple[Pass, ...]:
    """The default optimisation pipeline, cheapest rewrites first.

    Identity drops and inverse-pair cancellation shrink the instruction
    stream before fusion pays the (matrix-product) cost of merging what
    remains into explicit ``unitary`` instructions of width at most
    ``max_fused_width``.
    """
    from repro.transpile.cleanup import CancelInversePairs, DropIdentities
    from repro.transpile.fusion import FuseAdjacentGates

    return (
        DropIdentities(),
        CancelInversePairs(),
        FuseAdjacentGates(max_width=max_fused_width),
    )


def transpile(
    circuit: Circuit,
    passes: Union[None, PassManager, Sequence[Pass]] = None,
    max_fused_width: int = 2,
    pass_manager_out: Optional[List[PassManager]] = None,
    lower: Optional[Callable[[Circuit], Any]] = None,
    certify: bool = False,
) -> Any:
    """Optimise ``circuit`` through a pass pipeline.

    Parameters
    ----------
    circuit:
        The circuit to rewrite; never mutated.
    passes:
        ``None`` for the default pipeline (see :func:`default_passes`), a
        sequence of :class:`Pass` instances, or a prebuilt
        :class:`PassManager`.
    max_fused_width:
        Width cap for :class:`~repro.transpile.FuseAdjacentGates` when the
        default pipeline is used; ignored if ``passes`` is given.
    pass_manager_out:
        Optional list; when provided, the :class:`PassManager` actually
        used is appended so callers can inspect ``last_stats``.
    lower:
        Optional lowering hook: a callable applied to the optimised
        circuit, whose return value replaces the circuit as this
        function's result.  ``repro.plan.compile_plan`` routes its
        circuit-to-:class:`~repro.plan.ExecutionPlan` lowering through
        this hook so "transpile then lower" is a single pipeline stage.
    certify:
        Prove every pass application semantically equivalent (see
        :meth:`PassManager.run`); per-pass certificates land on the
        manager's ``last_stats`` and an unprovable rewrite raises
        :class:`~repro.utils.exceptions.CertificationError`.
    """
    if isinstance(passes, PassManager):
        manager = passes
    elif passes is None:
        manager = PassManager(default_passes(max_fused_width))
    else:
        manager = PassManager(passes)
    if pass_manager_out is not None:
        pass_manager_out.append(manager)
    result = manager.run(circuit, certify=certify or None)
    if lower is not None:
        return lower(result)
    return result
