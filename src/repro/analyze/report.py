"""Typed violation reports shared by the static verifier and the runtime.

Proposition 3.1 makes correctness of a :class:`~repro.core.schedule.Schedule`
a property of the data structure itself: every rank derives the identical
schedule locally, so whether the schedule matches, terminates and routes
correctly is decidable *before* any rank thread runs.  This module holds
the vocabulary for stating the answer:

* :class:`Violation` — one defect, pinned to (rank, phase, round, block)
  where applicable, tagged with a stable ``V…`` code;
* :class:`VerificationReport` — the complete result of one verification
  pass (all violations, never just the first);
* :class:`ScheduleValidationError` — the exception both the static
  verifier and the runtime ``validate()`` methods raise, so callers catch
  one error taxonomy regardless of when a defect is detected.

``ScheduleValidationError`` subclasses
:class:`~repro.mpisim.exceptions.ScheduleError`: existing ``except
ScheduleError`` handlers keep working, but now carry structured
violations instead of a bare message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from repro.mpisim.exceptions import ScheduleError

if TYPE_CHECKING:
    from repro.core.plan import BatchedPlan

#: Stable violation codes.  Tests and CI gates match on these, so codes
#: are append-only: never renumber or reuse one — a code whose check is
#: deleted moves to :data:`RETIRED`.
CODES: dict[str, str] = {
    # --- send/receive matching ----------------------------------------
    "V101": "orphaned send: a send has no matching posted receive",
    "V102": "orphaned receive: a posted receive no send ever satisfies",
    "V103": "matched send/receive pair disagrees in byte count",
    "V104": "local copy source and destination disagree in byte count",
    # --- deadlock-freedom ---------------------------------------------
    "V201": "cross-rank wait-for cycle: schedule can deadlock",
    # --- the declared buffers -----------------------------------------
    "V305": "block reference exceeds its buffer bounds",
    # --- the closed forms and the definition --------------------------
    "V401": "round count differs from C = sum of C_k (Prop. 3.1)",
    "V402": "per-process volume differs from V = sum of z_i (Prop. 3.2)",
    "V403": "allgather volume differs from tree edge count (Prop. 3.3)",
    "V404": "delivered content differs from the collective's definition",
    # --- plan-lowering conformance and the sentinel execution ---------
    "V501": "lowered plan changes the schedule's round structure",
    "V502": "lowered plan peer vectors or their masks differ from translation",
    "V503": "compiled pack/unpack bytes differ from the block sets",
    "V504": "compiled local-copy program differs from the schedule's",
    "V506": "a plane, fused or in-place execution differs from the walk over the rank views",
    # --- all-to-all broadcast optimality (Jung & Sakho bounds) ---------
    "V601": "broadcast neighborhood does not cover the whole torus",
    "V602": "broadcast volume differs from the p-1 block optimum",
    "V603": "broadcast round count violates the optimality bounds",
    # --- byte-interval effect system ----------------------------------
    "V701": "compiled kernel writes one buffer byte from two wire bytes",
    "V702": "two rounds of one compiled phase write overlapping bytes",
    "V703": "compiled round reads bytes a round of the same phase writes",
    "V704": "fused local-copy program has overlapping effect intervals",
    "V708": "compiled effect interval exceeds its buffer capacity",
    "V709": "compiled round reads bytes no earlier effect ever wrote",
    # --- reduce-schedule verification ---------------------------------
    "V801": "reduce rounds/volume differ from the reverse tree (C, edges)",
    "V802": "reduce round structure malformed (offset, slot, phase hazard)",
    "V803": "reduce dataflow delivers the wrong contribution multiset",
    "V804": "combine operator fails commutativity/associativity probe",
    "V805": "lockstep reduction content differs from the definition",
    "V806": "combine step list has order-dependent effects",
}

#: Codes whose checks were deleted because another check catches every
#: defect they caught (the kill matrix of ``tests/analyze``): reserved,
#: never raised and never reused.
RETIRED: frozenset[str] = frozenset(
    {
        "V301",  # overlapping receive blocks of a round: V701
        "V302",  # a round reads what a sibling round writes: V703
        "V303",  # two rounds of a phase write one region: V702
        "V304",  # hop-parity discipline: the definition, V404
        "V405",  # scratch forwarded unwritten: V709, the definition
        "V705",  # batched peers not an injective matching: V502
        "V706",  # batched -1 masking off the derived recv rows: V502
        "V707",  # shm segment overlap: the forked shm backend is gone
    }
)


@dataclass(frozen=True)
class Violation:
    """One verified defect of a schedule.

    ``rank``/``phase``/``round_index``/``block`` locate the defect in the
    symbolic instantiation; each is ``None`` when the defect is global
    (e.g. a volume mismatch is a property of the whole schedule).
    """

    code: str
    message: str
    rank: Optional[int] = None
    phase: Optional[int] = None
    round_index: Optional[int] = None
    block: Optional[int] = None

    def __post_init__(self) -> None:
        if self.code in RETIRED:
            raise ValueError(f"violation code {self.code!r} is retired")
        if self.code not in CODES:
            raise ValueError(f"unknown violation code {self.code!r}")

    def location(self) -> str:
        parts = []
        if self.rank is not None:
            parts.append(f"rank {self.rank}")
        if self.phase is not None:
            parts.append(f"phase {self.phase}")
        if self.round_index is not None:
            parts.append(f"round {self.round_index}")
        if self.block is not None:
            parts.append(f"block {self.block}")
        return ", ".join(parts) if parts else "global"

    def describe(self) -> str:
        return f"{self.code} [{self.location()}]: {self.message}"


class Certificate(NamedTuple):
    """A clean verdict on a shape or a plan, as the certificate store
    keeps it and as the report of an instance that inherited it shows it."""

    #: prefix of the normal-form digest the verdict is filed under
    digest: str
    #: granule (bytes) of the witness instance that filed it
    granule: int
    #: what the witness's certification executed
    checks_run: tuple[str, ...]


@dataclass
class VerificationReport:
    """Everything one verification pass found.

    The verifier never stops at the first defect: ``violations`` lists
    all of them so a broken schedule is diagnosed in one pass.
    """

    kind: str
    dims: tuple[int, ...]
    periods: tuple[bool, ...]
    violations: list[Violation] = field(default_factory=list)
    #: the checks that executed, in order
    checks_run: list[str] = field(default_factory=list)
    #: ``(check, reason)`` for checks that apply to this schedule but did
    #: not execute (today: simulated state over the byte budget); a
    #: check that does not apply at all — the definition of an in-place
    #: or hand-built schedule — is in neither list
    skipped: list[tuple[str, str]] = field(default_factory=list)
    #: set when the shape stage (``checks_run`` then starts with
    #: ``"inherited-shape"``) or both stages (it is ``["inherited-plan"]``)
    #: were inherited from a witness of the same normal form
    inherited_from: Optional[Certificate] = None
    #: the lowered plan's delivery verdict and its reason, e.g.
    #: ``"staged: 12 B per copy ≤ 2048"`` (``None`` without a lowering),
    #: followed by ``"; runs as walk: …"`` where the batched executor
    #: would not take that form
    delivery: Optional[str] = None
    #: the lowering the checks judged or inherited (``None`` when it was
    #: refused, or for a pass that made none): a clean report of the
    #: ``verify_on_build`` hook hands it on as the plan that runs
    plan: Optional["BatchedPlan"] = field(
        default=None, repr=False, compare=False
    )
    #: the verifier's seconds by stage — ``lowering``, ``kernels``
    #: (reading the plan's ops, V501/V503/V504), ``effects`` and
    #: ``shape`` (the shape stage where it ran, and the store look-up)
    stage_seconds: dict[str, float] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(
        self,
        code: str,
        message: str,
        *,
        rank: Optional[int] = None,
        phase: Optional[int] = None,
        round_index: Optional[int] = None,
        block: Optional[int] = None,
    ) -> None:
        self.violations.append(
            Violation(
                code=code,
                message=message,
                rank=rank,
                phase=phase,
                round_index=round_index,
                block=block,
            )
        )

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def by_code(self, code: str) -> list[Violation]:
        return [v for v in self.violations if v.code == code]

    def summary(self) -> str:
        head = (
            f"{self.kind} schedule on dims={self.dims} "
            f"periods={self.periods}: "
        )
        notes = ""
        if self.delivery is not None:
            notes += f"; plan {self.delivery}"
        if self.inherited_from is not None:
            digest, granule, _ = self.inherited_from
            what = "plan" if self.checks_run == ["inherited-plan"] else "shape"
            notes += f"; {what} {digest} certified at granule {granule} B"
        if self.skipped:
            notes += "; skipped: " + ", ".join(
                f"{check} ({reason})" for check, reason in self.skipped
            )
        if self.ok:
            checks = ", ".join(self.checks_run) or "none"
            return head + f"OK ({checks}{notes})"
        lines = [head + f"{len(self.violations)} violation(s){notes}"]
        lines.extend("  " + v.describe() for v in self.violations)
        return "\n".join(lines)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ScheduleValidationError.from_report(self)


class ScheduleValidationError(ScheduleError):
    """A schedule failed validation — statically or at runtime.

    Carries the structured :class:`Violation` list (``violations``) and,
    when raised by the static verifier, the full
    :class:`VerificationReport` (``report``).  Runtime ``validate()``
    methods raise it with a single violation, so the error taxonomy is
    one and the same everywhere.
    """

    def __init__(
        self,
        message: str,
        violations: Sequence[Violation] = (),
        report: Optional[VerificationReport] = None,
    ):
        super().__init__(message)
        self.violations = tuple(violations)
        self.report = report

    @property
    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    @classmethod
    def from_report(cls, report: VerificationReport) -> "ScheduleValidationError":
        return cls(report.summary(), report.violations, report)

    @classmethod
    def single(
        cls,
        code: str,
        message: str,
        *,
        rank: Optional[int] = None,
        phase: Optional[int] = None,
        round_index: Optional[int] = None,
        block: Optional[int] = None,
    ) -> "ScheduleValidationError":
        v = Violation(
            code=code,
            message=message,
            rank=rank,
            phase=phase,
            round_index=round_index,
            block=block,
        )
        return cls(v.describe(), (v,))
