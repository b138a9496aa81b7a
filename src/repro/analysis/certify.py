"""Semantic equivalence certificates for transpile-pass rewrites.

Property tests sample a few circuits; a :class:`Certificate` proves the
*specific* rewrite a pass just performed.  :func:`certify_rewrite`
compares the circuit a pass consumed with the circuit it produced and
either certifies them equivalent or reports exactly where equivalence
broke, as stable ``certify-*`` diagnostic codes.

The proof never builds a dense ``2**n`` operator.  It exploits the same
structure the passes themselves must respect:

1. **Barriers are fixed points.**  Channels, dynamic ops
   (measure/reset/if_bit) and unbound parametric gates are rewrite
   barriers for every conforming pass — a Kraus map has no unitary to
   fold, and nothing commutes across a collapse or a classical branch.
   The certifier requires the barrier subsequence to be preserved
   *verbatim and in order* (``certify-barrier-moved`` otherwise).  This
   is simultaneously the clbit dataflow certificate: every clbit read
   and write lives on a barrier, so unchanged barriers mean unchanged
   classical dataflow, and no unitary segment can migrate across a
   measure/reset/conditional without failing its segment's check below.
2. **Between barriers, circuits factor.**  With the barrier subsequence
   equal on both sides, ``C = S0 · B1 · S1 · ... · Bm · Sm`` on each
   side, so proving every unitary segment pair ``(S_i, S_i')`` equal
   proves the circuits equal.
3. **Segments diff down to local rewrite sites.**  Each segment pair is
   aligned with a longest-matching-subsequence diff over instruction
   equality (gates compare by name/params/matrix); unchanged
   instructions anchor the alignment.  Within each hunk the changed
   instructions group into qubit-connected components — the initial
   rewrite *sites* (disjoint-support factors commute, so they certify
   independently; distinct hunks compose sequentially).  A site that
   fails its local check is not rejected outright: a pass can cancel a
   pair *across* unchanged gates on other qubits (which commute), so
   failing sites escalate lazily — merging with their nearest
   qubit-sharing site, re-absorbing any unchanged *gap* instruction
   that lands inside the merged window on shared qubits, and
   re-verifying — until everything passes or no sound growth remains
   (see :func:`_segment_sites` / :func:`_structural_fixpoint` for the
   soundness argument).  Each final site is compared as a local
   operator on the ≤ ``max_support``-qubit union support of its
   instructions, built by the same ``(2,) * 2k`` tensordot contraction
   the simulator uses on states — cost ``4**k`` for the site's own
   width ``k``, never ``4**n``.
4. **Reordered segments peel.**  Per-qubit fusion emits commuting
   groups out of program order, so a fully fused segment leaves the
   diff no anchors and its one hunk spans the register.  When a diff
   site is too wide, or wider than every instruction of its segment,
   the whole segment is also proven by peeling
   (:func:`_peel_sites`): each rewritten instruction ``a`` in turn
   must equal the shortest prefix of the original instructions inside
   ``a``'s qubits that commute to the front (an instruction touching
   ``a``'s qubits without fitting inside them blocks those qubits),
   which is then removed; what is left at the end must multiply to the
   identity, per qubit-connected component.  Each step is a local
   check on ``a``'s qubits or one component.  Of the two proofs the
   narrower is kept (:func:`_segment_proof`) — the diff alone proves
   cross-gap cancellations at the width of the cancelled gates.

A site whose support exceeds ``max_support`` is *not* silently trusted:
it fails with ``certify-support-width`` (soundness over completeness).
Built-in passes rewrite within the fusion width, so their sites stay
tiny on every bench workload.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import ERROR, Diagnostic
from repro.circuit import Circuit, Instruction
from repro.utils.exceptions import AnalysisError, CertificationError

#: Certificate outcomes.  ``CERTIFIED`` means every rewrite site was
#: proven equivalent; ``FAILED`` means at least one diagnostic fired.
CERTIFIED = "certified"
FAILED = "failed"

#: Widest rewrite-site support the certifier will compare (4**k-entry
#: local operators).  6 qubits = 4096x4096 worst case, far above the
#: built-in passes' fusion width yet nowhere near dense 2**n.
DEFAULT_MAX_SUPPORT = 6

#: Operator-entry tolerance.  Must dominate the passes' own numeric
#: tolerances (``CancelInversePairs`` cancels pairs within 1e-9 of the
#: identity, so a certified deletion may legitimately deviate by that
#: much) plus accumulated matmul rounding.
DEFAULT_ATOL = 1e-8


@dataclass(frozen=True)
class Certificate:
    """The machine-checked verdict on one pass application.

    Attached to :class:`~repro.transpile.PassStats` (and through it to
    ``ExecutionPlan.pass_stats``) so every compiled plan carries the
    proof of its own optimisation.

    Parameters
    ----------
    pass_name:
        The pass this certificate covers.
    status:
        ``"certified"`` or ``"failed"``.
    sites:
        Number of rewrite sites (changed hunks) compared.
    max_support:
        Widest site support (in qubits) encountered; the certified
        bound on local-operator size — never the register width unless
        a single rewrite genuinely spanned it.
    max_deviation:
        Largest entrywise operator deviation over all certified sites.
    diagnostics:
        Error findings, empty when certified.
    """

    pass_name: str
    status: str
    sites: int = 0
    max_support: int = 0
    max_deviation: float = 0.0
    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == CERTIFIED

    def as_dict(self) -> dict:
        """A JSON-serialisable view (rides on ``plan.pass_stats``)."""
        return {
            "pass": self.pass_name,
            "status": self.status,
            "sites": self.sites,
            "max_support": self.max_support,
            "max_deviation": self.max_deviation,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }

    def raise_if_failed(self) -> "Certificate":
        """Raise :class:`CertificationError` unless certified; chains."""
        if self.ok:
            return self
        details = "; ".join(str(d) for d in self.diagnostics)
        raise CertificationError(
            f"pass {self.pass_name!r} failed certification: {details}",
            diagnostics=self.diagnostics,
            certificate=self,
        )

    def __repr__(self) -> str:
        return (
            f"Certificate({self.pass_name}: {self.status}, "
            f"{self.sites} site(s), max support {self.max_support}, "
            f"max deviation {self.max_deviation:.2e})"
        )


def _is_barrier(instruction: Instruction) -> bool:
    """Whether ``instruction`` is a rewrite barrier (see module docstring)."""
    return (
        instruction.is_channel
        or instruction.is_dynamic
        or instruction.is_parametric
    )


def _barrier_kind(instruction: Instruction) -> str:
    if instruction.is_channel:
        return "channel"
    if instruction.is_measure:
        return "measure"
    if instruction.is_reset:
        return "reset"
    if instruction.is_conditional:
        return "conditional"
    return "parametric gate"


def _split_at_barriers(
    circuit: Circuit,
) -> Tuple[List[Instruction], List[Tuple[int, List[Instruction]]]]:
    """Barrier subsequence + unitary segments with their start indices.

    Returns ``(barriers, segments)`` where ``segments`` has exactly
    ``len(barriers) + 1`` entries of ``(global start index, run)``.
    """
    barriers: List[Instruction] = []
    segments: List[Tuple[int, List[Instruction]]] = []
    start = 0
    run: List[Instruction] = []
    for index, instruction in enumerate(circuit):
        if _is_barrier(instruction):
            segments.append((start, run))
            barriers.append(instruction)
            start = index + 1
            run = []
        else:
            run.append(instruction)
    segments.append((start, run))
    return barriers, segments


def _local_operator(
    instructions: Sequence[Instruction], support: Sequence[int]
) -> np.ndarray:
    """The product operator of ``instructions`` on ``support`` qubits.

    Built as a ``(2,) * 2k`` tensor with one tensordot per instruction —
    the identical contraction the simulator applies to states, so the
    certificate exercises the same arithmetic it vouches for.
    """
    position = {qubit: axis for axis, qubit in enumerate(support)}
    operator = _identity(len(support))
    for instruction in instructions:
        operator = _apply(operator, instruction, position)
    return operator


def _identity(k: int) -> np.ndarray:
    return np.eye(1 << k, dtype=np.complex128).reshape((2,) * (2 * k))


def _apply(
    operator: np.ndarray, instruction: Instruction, position: Dict[int, int]
) -> np.ndarray:
    """``instruction`` applied after ``operator``; ``position`` maps qubits to axes."""
    m = len(instruction.qubits)
    gate = np.asarray(instruction.gate.matrix, dtype=np.complex128)
    gate = gate.reshape((2,) * (2 * m))
    targets = tuple(position[q] for q in instruction.qubits)
    operator = np.tensordot(gate, operator, axes=(tuple(range(m, 2 * m)), targets))
    return np.moveaxis(operator, tuple(range(m)), targets)


def _deviation(
    reference: np.ndarray, candidate: np.ndarray, up_to_global_phase: bool
) -> float:
    """Largest entrywise gap between two local operators."""
    if up_to_global_phase:
        candidate = _strip_global_phase(reference, candidate)
    return float(np.max(np.abs(reference - candidate)))


#: Site verdicts inside :func:`_segment_sites` (pre-diagnostic).
_OK = "ok"
_NOT_EQUIVALENT = "not-equivalent"
_TOO_WIDE = "too-wide"


class _Site:
    """One in-progress rewrite site: changed + absorbed-gap instructions.

    ``removed``/``added``/``gaps`` hold ``(opcode index, offset, global
    index, instruction)`` entries; the ``(opcode index, offset)`` pair
    is a total order consistent on both circuit sides (gap runs are
    verbatim-identical, so their relative order w.r.t. every hunk is the
    same before and after).  ``verdict`` caches the verification result
    and resets to ``None`` whenever the site grows.
    """

    __slots__ = (
        "support",
        "min_oi",
        "max_oi",
        "removed",
        "added",
        "gaps",
        "verdict",
        "deviation",
    )

    def __init__(self) -> None:
        self.support: set = set()
        self.min_oi = 1 << 60
        self.max_oi = -1
        self.removed: List[tuple] = []
        self.added: List[tuple] = []
        self.gaps: List[tuple] = []
        self.verdict: Optional[str] = None
        self.deviation = 0.0

    def absorb(self, other: "_Site") -> None:
        self.support |= other.support
        self.min_oi = min(self.min_oi, other.min_oi)
        self.max_oi = max(self.max_oi, other.max_oi)
        self.removed += other.removed
        self.added += other.added
        self.gaps += other.gaps
        self.verdict = None

    def _ordered(self, entries: List[tuple]) -> List[Instruction]:
        return [
            instruction
            for _, _, _, instruction in sorted(
                entries + self.gaps, key=lambda entry: (entry[0], entry[1])
            )
        ]

    def removed_instructions(self) -> List[Instruction]:
        return self._ordered(self.removed)

    def added_instructions(self) -> List[Instruction]:
        return self._ordered(self.added)

    def anchor(self) -> int:
        indices = [index for _, _, index, _ in self.removed] or [
            index for _, _, index, _ in self.added
        ]
        return min(indices)

    def verify(
        self, max_support: int, atol: float, up_to_global_phase: bool
    ) -> None:
        support = tuple(sorted(self.support))
        if len(support) > max_support:
            self.verdict, self.deviation = _TOO_WIDE, 0.0
            return
        self.deviation = _deviation(
            _local_operator(self.removed_instructions(), support),
            _local_operator(self.added_instructions(), support),
            up_to_global_phase,
        )
        self.verdict = _OK if self.deviation <= atol else _NOT_EQUIVALENT


def _hunk_sites(
    oi: int, removed: List[tuple], added: List[tuple]
) -> List[_Site]:
    """Split one diff hunk into qubit-connected initial sites."""
    parent: Dict[int, int] = {}

    def find(q: int) -> int:
        root = q
        while parent[root] != root:
            root = parent[root]
        while parent[q] != root:
            parent[q], q = root, parent[q]
        return root

    entries = removed + added
    for _, _, _, instruction in entries:
        qubits = instruction.qubits
        for q in qubits:
            parent.setdefault(q, q)
        for q in qubits[1:]:
            ra, rb = find(qubits[0]), find(q)
            if ra != rb:
                parent[rb] = ra

    sites: Dict[int, _Site] = {}
    for source, bucket in ((removed, 0), (added, 1)):
        for entry in source:
            instruction = entry[3]
            site = sites.setdefault(find(instruction.qubits[0]), _Site())
            site.support.update(instruction.qubits)
            site.min_oi = min(site.min_oi, oi)
            site.max_oi = max(site.max_oi, oi)
            (site.removed if bucket == 0 else site.added).append(entry)
    return list(sites.values())


def _structural_fixpoint(
    sites: List[_Site], gaps: List[tuple]
) -> List[tuple]:
    """Enforce the two soundness rules; returns the unabsorbed gaps.

    * A gap instruction positioned strictly inside a site's hunk window
      that shares a qubit with it is absorbed on both sides — the
      site's instructions do not commute past it.
    * Two sites whose windows overlap while their supports intersect
      merge — neither can be commuted out of the other's window.

    At the fixpoint, any two sites either act on disjoint qubits (they
    commute, so they factor in any interleaving) or occupy
    non-overlapping windows (they compose sequentially), and every
    unabsorbed gap commutes with every site it interleaves — so proving
    each site's before/after operators equal proves the segment
    products equal.
    """
    stable = False
    while not stable:
        stable = True
        remaining = []
        for gap in gaps:
            oi, _, _, instruction = gap
            qubits = set(instruction.qubits)
            home = None
            for site in sites:
                if site.min_oi < oi < site.max_oi and qubits & site.support:
                    home = site
                    break
            if home is None:
                remaining.append(gap)
                continue
            home.gaps.append(gap)
            home.support |= qubits
            home.verdict = None
            stable = False
        gaps = remaining
        i = 0
        while i < len(sites):
            j = i + 1
            while j < len(sites):
                a, b = sites[i], sites[j]
                if (
                    a.support & b.support
                    and a.min_oi <= b.max_oi
                    and b.min_oi <= a.max_oi
                ):
                    a.absorb(b)
                    sites.pop(j)
                    stable = False
                else:
                    j += 1
            i += 1
    return gaps


def _nearest_partner(site: _Site, sites: List[_Site]) -> Optional[_Site]:
    """The closest (by hunk-window distance) other site sharing a qubit."""
    best: Optional[_Site] = None
    best_distance = 1 << 60
    for other in sites:
        if other is site or not (site.support & other.support):
            continue
        distance = max(
            other.min_oi - site.max_oi, site.min_oi - other.max_oi, 0
        )
        if distance < best_distance:
            best, best_distance = other, distance
    return best


def _segment_sites(
    start_before: int,
    run_before: Sequence[Instruction],
    start_after: int,
    run_after: Sequence[Instruction],
    max_support: int,
    atol: float,
    up_to_global_phase: bool,
) -> List[_Site]:
    """The verified rewrite sites of one barrier-free segment pair.

    Aligns the runs with an LCS diff and splits each changed hunk into
    qubit-connected components — the initial sites, each verified as a
    local operator comparison.  A site that fails locally is not
    rejected outright: a pass may have cancelled a pair *across*
    unchanged gates on other qubits (which commute), leaving two
    separated half-sites that are only equivalent jointly.  Failing
    sites therefore escalate lazily — each merges with its nearest
    qubit-sharing site, the structural soundness rules re-run
    (:func:`_structural_fixpoint`), and the merged site re-verifies —
    until everything passes or no growth remains.  Escalation only ever
    merges sound factorizations, so a verdict of ``not-equivalent`` on
    the final partition means the segments genuinely disagree (or
    exceeded ``max_support``, reported as ``too-wide``).
    """
    matcher = difflib.SequenceMatcher(
        None, run_before, run_after, autojunk=False
    )
    gaps: List[tuple] = []  # (oi, offset, global index, instruction)
    sites: List[_Site] = []
    for oi, (tag, i1, i2, j1, j2) in enumerate(matcher.get_opcodes()):
        if tag == "equal":
            for offset, k in enumerate(range(i1, i2)):
                gaps.append((oi, offset, start_before + k, run_before[k]))
            continue
        removed = [
            (oi, offset, start_before + k, run_before[k])
            for offset, k in enumerate(range(i1, i2))
        ]
        added = [
            (oi, offset, start_after + k, run_after[k])
            for offset, k in enumerate(range(j1, j2))
        ]
        sites.extend(_hunk_sites(oi, removed, added))
    if not sites:
        return []

    while True:
        gaps = _structural_fixpoint(sites, gaps)
        for site in sites:
            if site.verdict is None:
                site.verify(max_support, atol, up_to_global_phase)
        grew = False
        for site in sites:
            if site.verdict != _NOT_EQUIVALENT:
                continue
            partner = _nearest_partner(site, sites)
            if partner is None:
                continue
            site.absorb(partner)
            sites.remove(partner)
            grew = True
            break
        if not grew:
            break
    sites.sort(key=lambda site: site.anchor())
    return sites


def _peel_sites(
    start_before: int,
    run_before: Sequence[Instruction],
    start_after: int,
    run_after: Sequence[Instruction],
    max_support: int,
    atol: float,
    up_to_global_phase: bool,
) -> List[_Site]:
    """The peel proof of one barrier-free segment pair (outline step 4).

    Soundness: every instruction the scan passes without taking either
    misses the rewritten instruction ``a``'s qubits, so it is disjoint
    from each taken one, or blocks the qubits of ``a`` it touches.  The
    taken instructions therefore commute to the front in order, the
    original run equals its taken prefix followed by the rest, and a
    prefix equal to ``a`` may be replaced by it.  Leftover components
    act on disjoint qubits, so they commute.  The first failing step
    ends the proof.
    """
    remaining = [
        (0, k, start_before + k, instruction)
        for k, instruction in enumerate(run_before)
    ]
    sites: List[_Site] = []
    for k, rewritten in enumerate(run_after):
        qubits = set(rewritten.qubits)
        taken: List[int] = []
        blocked: set = set()
        for index, entry in enumerate(remaining):
            touched = qubits.intersection(entry[3].qubits)
            if not touched:
                continue
            if len(touched) == len(entry[3].qubits) and not touched & blocked:
                taken.append(index)
                continue
            blocked |= touched
            if blocked == qubits:
                break
        if taken and remaining[taken[0]][3] == rewritten:
            # An unchanged instruction that commutes to the front anchors
            # the proof, as an LCS match does: nothing to compare.
            del remaining[taken[0]]
            continue
        site = _Site()
        site.support = qubits
        site.added = [(0, k, start_after + k, rewritten)]
        sites.append(site)
        if len(qubits) > max_support:
            site.removed = [remaining[p] for p in taken]
            site.verdict = _TOO_WIDE
            break
        support = tuple(sorted(qubits))
        position = {qubit: axis for axis, qubit in enumerate(support)}
        target = _local_operator([rewritten], support)
        operator = _identity(len(support))  # the empty prefix
        length = 0
        site.deviation = _deviation(operator, target, up_to_global_phase)
        while site.deviation > atol and length < len(taken):
            operator = _apply(operator, remaining[taken[length]][3], position)
            length += 1
            site.deviation = _deviation(operator, target, up_to_global_phase)
        site.removed = [remaining[p] for p in taken[:length]]
        if site.deviation > atol:
            site.verdict = _NOT_EQUIVALENT
            break
        site.verdict = _OK
        for p in reversed(taken[:length]):
            del remaining[p]
    else:
        leftover = _hunk_sites(0, remaining, [])
        for site in leftover:
            site.verify(max_support, atol, up_to_global_phase)
        sites += leftover
    sites.sort(key=lambda site: site.anchor())
    return sites


def _proof_rank(sites: Sequence[_Site]) -> Tuple[bool, float]:
    """Proof order: certified before failed, then the narrower first."""
    return (
        any(site.verdict != _OK for site in sites),
        max(
            (
                math.inf if site.verdict == _TOO_WIDE else len(site.support)
                for site in sites
            ),
            default=0,
        ),
    )


def _segment_proof(
    start_before: int,
    run_before: Sequence[Instruction],
    start_after: int,
    run_after: Sequence[Instruction],
    max_support: int,
    atol: float,
    up_to_global_phase: bool,
) -> List[_Site]:
    """The verified sites of one segment pair: the diff, or the peel.

    The LCS diff (:func:`_segment_sites`) proves cancellations across
    gaps at the width of the cancelled gates.  When one of its sites is
    too wide, or wider than every instruction of the segment — the mark
    of a rewrite that reordered commuting groups — the peel
    (:func:`_peel_sites`) runs too, and the narrower proof is kept
    (a certified one before a failed one; the diff on ties).
    """
    args = (
        start_before,
        run_before,
        start_after,
        run_after,
        max_support,
        atol,
        up_to_global_phase,
    )
    sites = _segment_sites(*args)
    widest = max(
        (len(instruction.qubits) for instruction in (*run_before, *run_after)),
        default=0,
    )
    if all(
        site.verdict != _TOO_WIDE and len(site.support) <= widest
        for site in sites
    ):
        return sites
    return min((sites, _peel_sites(*args)), key=_proof_rank)


def _strip_global_phase(
    reference: np.ndarray, candidate: np.ndarray
) -> np.ndarray:
    """``candidate`` rephased onto ``reference`` at its largest entry."""
    flat_ref = reference.reshape(-1)
    pivot = int(np.argmax(np.abs(flat_ref)))
    ref_entry = flat_ref[pivot]
    cand_entry = candidate.reshape(-1)[pivot]
    if abs(ref_entry) < 1e-12 or abs(cand_entry) < 1e-12:
        return candidate
    phase = (cand_entry / ref_entry) / abs(cand_entry / ref_entry)
    return candidate / phase


def certify_rewrite(
    before: Circuit,
    after: Circuit,
    pass_name: str = "rewrite",
    *,
    max_support: int = DEFAULT_MAX_SUPPORT,
    atol: float = DEFAULT_ATOL,
    up_to_global_phase: bool = False,
) -> Certificate:
    """Prove ``after`` semantically equivalent to ``before``, or say why not.

    Parameters
    ----------
    before, after:
        The circuit a pass consumed and the circuit it produced.
    pass_name:
        Name recorded on the certificate.
    max_support:
        Widest rewrite-site support (qubits) to compare; wider sites
        fail with ``certify-support-width`` rather than being trusted.
    atol:
        Entrywise operator tolerance per site.
    up_to_global_phase:
        Accept sites differing by a global phase (for pipelines using
        ``DropIdentities(up_to_global_phase=True)``).

    Returns
    -------
    Certificate
        ``certified`` iff register widths match, the barrier
        subsequence is preserved verbatim, and every rewrite site's
        local operators agree within ``atol``.  Failure codes:
        ``certify-register-width``, ``certify-barrier-moved``,
        ``certify-support-width``, ``certify-not-equivalent``.
    """
    for label, value in (("before", before), ("after", after)):
        if not isinstance(value, Circuit):
            raise AnalysisError(
                f"certify_rewrite expects Circuits, got "
                f"{type(value).__name__} for {label!r}"
            )
    if max_support < 1:
        raise AnalysisError(f"max_support must be >= 1, got {max_support}")

    diagnostics: List[Diagnostic] = []
    if (
        before.num_qubits != after.num_qubits
        or before.num_clbits != after.num_clbits
    ):
        diagnostics.append(
            Diagnostic(
                ERROR,
                "certify-register-width",
                f"pass {pass_name!r} changed the register: "
                f"{before.num_qubits} qubits / {before.num_clbits} clbits "
                f"-> {after.num_qubits} qubits / {after.num_clbits} clbits",
            )
        )
        return Certificate(pass_name, FAILED, diagnostics=tuple(diagnostics))

    barriers_before, segments_before = _split_at_barriers(before)
    barriers_after, segments_after = _split_at_barriers(after)
    if barriers_before != barriers_after:
        site: Optional[int] = None
        detail = (
            f"{len(barriers_before)} -> {len(barriers_after)} barrier "
            f"instructions"
        )
        for index, (lhs, rhs) in enumerate(
            zip(barriers_before, barriers_after)
        ):
            if lhs != rhs:
                detail = (
                    f"barrier {index} changed from {_barrier_kind(lhs)} "
                    f"{lhs!r} to {_barrier_kind(rhs)} {rhs!r}"
                )
                break
        diagnostics.append(
            Diagnostic(
                ERROR,
                "certify-barrier-moved",
                f"pass {pass_name!r} rewrote the barrier subsequence "
                f"(channels/dynamic ops/parametric gates must be "
                f"preserved verbatim): {detail}",
                site=site,
            )
        )
        return Certificate(pass_name, FAILED, diagnostics=tuple(diagnostics))

    sites = 0
    widest = 0
    worst = 0.0
    for (start_before, run_before), (start_after, run_after) in zip(
        segments_before, segments_after
    ):
        for site_record in _segment_proof(
            start_before,
            run_before,
            start_after,
            run_after,
            max_support,
            atol,
            up_to_global_phase,
        ):
            sites += 1
            anchor = site_record.anchor()
            support = tuple(sorted(site_record.support))
            if site_record.verdict == _TOO_WIDE:
                diagnostics.append(
                    Diagnostic(
                        ERROR,
                        "certify-support-width",
                        f"pass {pass_name!r} rewrite site at "
                        f"instruction {anchor} spans "
                        f"{len(support)} qubits {support}, over the "
                        f"{max_support}-qubit certification cap; the "
                        f"rewrite is unproven",
                        site=anchor,
                    )
                )
                continue
            widest = max(widest, len(support))
            worst = max(worst, site_record.deviation)
            if site_record.verdict == _NOT_EQUIVALENT:
                diagnostics.append(
                    Diagnostic(
                        ERROR,
                        "certify-not-equivalent",
                        f"pass {pass_name!r} rewrite site at "
                        f"instruction {anchor} (qubits {support}) is "
                        f"not unitarily equivalent: max operator "
                        f"deviation {site_record.deviation:.3e} exceeds "
                        f"tolerance {atol:.1e}",
                        site=anchor,
                    )
                )

    status = FAILED if diagnostics else CERTIFIED
    return Certificate(
        pass_name,
        status,
        sites=sites,
        max_support=widest,
        max_deviation=worst,
        diagnostics=tuple(diagnostics),
    )


__all__ = [
    "CERTIFIED",
    "FAILED",
    "DEFAULT_MAX_SUPPORT",
    "DEFAULT_ATOL",
    "Certificate",
    "certify_rewrite",
]
