"""Byte-interval effect system over the compiled execution layer.

The verifier's sentinel execution holds the lowered plan to the
collective's definition, on one deterministic walk that packs a phase
before it unpacks it.  What that walk cannot show is order: two rounds
of a phase writing one byte, or one reading what another writes, give
its snapshot the right answer and a concurrent executor either answer
(the kill matrix's in-place halo rows are caught here alone).  This
module proves the lowered artifacts — the plan's numpy selector
kernels, fused copy program, row permutations and masked combine
steps — race- and lifetime-free, by
deriving symbolic ``(buffer, lo, hi)`` read/write summaries for every
compiled object and checking disjointness directly on the intervals.
The plan is rank-free, so it is checked once: what differs per rank is
a row set, and two effects can only race on ranks that both row sets
contain.

Everything is static: no kernel is executed, no buffer allocated.  The
checks map to violation codes V701-V709 (:mod:`repro.analyze.report`):

====  ==============================================================
V701  a compiled kernel's scatter writes one destination byte twice
V702  two rounds of one phase write overlapping buffer bytes
V703  a round reads bytes a round of the same phase writes
V704  a fused local-copy program has order-dependent (overlapping)
      effects — fusion was unsound
V708  an effect interval exceeds its buffer's capacity
V709  a round reads bytes no earlier effect ever wrote (wire gaps,
      or scratch reads before the writing phase)
V806  a combine step list has order-dependent effects on some rank
      (double accumulator initialization, aliased fold operands, or
      row masks that both copy and fold one rank)
====  ==============================================================

One family reads no byte at all: the row-mask half of V806 looks only
at the row masks derived from the peer vectors
(:func:`check_batched_peers`; the vectors themselves are V502's).  No
block size can change those, so the verifier runs it with its shape
stage and inherits it with it;
everything else here is byte-level and runs on every instance, on the
one reading of the plan's ops the verification makes
(:class:`~repro.analyze.intervals.PlanEffects`).

Reduction schedules thread their accumulator state through the plan's
combine step lists (:class:`~repro.core.plan.BatchedReduceRound`, of
which every rank runs its rows): the pre-step seeds write before phase
0 and each phase's folds write after its delivery, so the lifetime
ledger (V709) counts those writes exactly where the interpreter
performs them.

The temp-lifetime part of V709 is only decidable on fully periodic
tori: on a mesh, a rank whose upstream fell off the edge legitimately
forwards never-written scratch into don't-care slots, so the check is
skipped there and the definition judges what lands in a slot.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.analyze.intervals import (
    IntervalSet,
    KernelEffects,
    PlanEffects,
    ProgramEffects,
    kernel_effects,
    program_effects,
    read_plan,
    shared_bytes,
)
from repro.analyze.report import VerificationReport
from repro.analyze.schedule_verifier import _open_report, _plan_sizes
from repro.core.plan import (
    BatchedPlan,
    BatchedReduceRound,
    CompiledBlockSet,
    CompiledCopyProgram,
    compile_batched_plan,
)
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import ScheduleError


# ---------------------------------------------------------------------------
# kernel summaries
# ---------------------------------------------------------------------------


def check_kernel(
    kernel: CompiledBlockSet,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    role: str,
    phase: Optional[int] = None,
    round_index: Optional[int] = None,
) -> KernelEffects:
    """Check one kernel in isolation: V701 (scatter collisions), V708
    (capacity), V709 (pack leaving wire bytes uninitialized).

    ``role`` is ``"send"`` (pack: reads buffers, writes wire) or
    ``"recv"`` (unpack: reads wire, writes buffers)."""
    eff = kernel_effects(kernel)
    _judge_kernel(eff, sizes, report, role, phase, round_index)
    return eff


def _judge_kernel(
    eff: KernelEffects,
    sizes: Mapping[str, int],
    report: VerificationReport,
    role: str,
    phase: Optional[int],
    round_index: Optional[int],
) -> None:
    """:func:`check_kernel` on a kernel's effects, already read."""
    write_collisions = (
        eff.buffer_collision_bytes if role == "recv" else eff.wire_collision_bytes
    )
    if write_collisions:
        report.add(
            "V701",
            f"{role} kernel writes {write_collisions} destination "
            f"byte(s) more than once",
            phase=phase,
            round_index=round_index,
        )
    for name, ivs in eff.buffers.items():
        cap = int(sizes.get(name, 0))
        if not ivs.within_bounds(cap):
            report.add(
                "V708",
                f"{role} kernel touches {name!r}[{ivs.lo}:{ivs.hi}) "
                f"beyond its {cap}-byte capacity",
                phase=phase,
                round_index=round_index,
            )
    if not eff.wire.within_bounds(eff.total_nbytes):
        report.add(
            "V708",
            f"{role} kernel wire selector [{eff.wire.lo}:{eff.wire.hi}) "
            f"exceeds the {eff.total_nbytes}-byte wire",
            phase=phase,
            round_index=round_index,
        )
    if role == "send":
        gap = eff.total_nbytes - eff.wire.nbytes
        if gap > 0:
            report.add(
                "V709",
                f"pack kernel leaves {gap} of {eff.total_nbytes} wire "
                f"byte(s) uninitialized before delivery",
                phase=phase,
                round_index=round_index,
            )


# ---------------------------------------------------------------------------
# combine steps (reduction lowering)
# ---------------------------------------------------------------------------

#: per-buffer byte intervals of one effect
Effects = dict[str, IntervalSet]
_NOTHING = IntervalSet()


def check_batched_combine(
    rnd: BatchedReduceRound,
    p: int,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    phase: Optional[int] = None,
) -> tuple[Effects, Effects, Effects]:
    """V806/V708 over one all-ranks combine step list.

    Every rank runs its rows of the list in list order, which is sound
    exactly when, on every rank, no region is initialized twice and no
    fold's operands alias each other; steps must also stay inside their
    buffers (V708, like every other compiled effect), fold whole dtype
    elements, name ranks inside ``[0, p)`` once, and never both copy and
    fold one rank (its contribution would be counted twice).

    Two halves: what the row masks say on their own
    (:func:`check_combine_rows`, which no block size can change) and
    what the byte regions say (:func:`_check_combine_bytes`, whose
    return value this passes on).
    """
    check_combine_rows(rnd, p, report, phase=phase)
    return _check_combine_bytes(rnd, p, sizes, report, phase=phase)


def check_combine_rows(
    rnd: BatchedReduceRound,
    p: int,
    report: VerificationReport,
    *,
    phase: Optional[int] = None,
) -> None:
    """The row-mask half of V806: every mask names ranks inside
    ``[0, p)`` once, and no step both initializes and folds one rank.
    The masks are derived from the peer vectors and the steps' gates —
    no byte extent enters — so this half belongs to the shape stage."""
    everyone = np.arange(p)
    for si, step in enumerate(rnd.steps):
        *_, copy_rows, comb_rows = step
        for label, vec in (("copy", copy_rows), ("fold", comb_rows)):
            if vec is None:
                continue
            arr = np.asarray(vec)
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= p):
                report.add(
                    "V806",
                    f"combine step {si} {label} rows name a rank outside "
                    f"0..{p - 1}",
                    phase=phase,
                )
            if np.unique(arr).size != arr.size:
                report.add(
                    "V806",
                    f"combine step {si} {label} rows name one rank twice",
                    phase=phase,
                )
        both = np.intersect1d(
            everyone if copy_rows is None else copy_rows,
            everyone if comb_rows is None else comb_rows,
        )
        if both.size:
            report.add(
                "V806",
                f"combine step {si} both initializes and folds rank(s) "
                f"{both[:4].tolist()} — the contribution would be "
                f"counted twice",
                phase=phase,
            )


def _check_combine_bytes(
    rnd: BatchedReduceRound,
    p: int,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    phase: Optional[int] = None,
) -> tuple[Effects, Effects, Effects]:
    """The byte half of :func:`check_batched_combine`: bounds (V708),
    whole elements, aliased fold operands and double initialization on
    intersecting row sets (V806).

    Returns ``(copy_writes, reads, all_writes)`` so the caller can
    thread the step list through the lifetime ledger: ``reads`` includes
    the copy sources and the read-modify-write fold destinations;
    ``copy_writes`` are the regions the list itself initializes
    (legitimate targets for its own folds).
    """
    isz = rnd.dtype.itemsize
    everyone = np.arange(p)
    copies: dict[str, list[tuple[int, int, np.ndarray]]] = {}
    read_parts: dict[str, list[tuple[int, int]]] = {}
    fold_parts: dict[str, list[tuple[int, int]]] = {}
    for si, step in enumerate(rnd.steps):
        sbuf, soff, dbuf, doff, n, copy_rows, comb_rows = step
        for name, off in ((sbuf, soff), (dbuf, doff)):
            cap = int(sizes.get(name, 0))
            if off < 0 or off + n > cap:
                report.add(
                    "V708",
                    f"combine step {si} touches {name!r}"
                    f"[{off}:{off + n}) beyond its {cap}-byte capacity",
                    phase=phase,
                )
        if n % isz:
            report.add(
                "V806",
                f"combine step {si} of {n} B is not a multiple of the "
                f"{rnd.dtype.str} itemsize",
                phase=phase,
            )
        c = everyone if copy_rows is None else np.asarray(copy_rows)
        f = everyone if comb_rows is None else np.asarray(comb_rows)
        if c.size or f.size:
            read_parts.setdefault(sbuf, []).append((soff, soff + n))
        if c.size:
            copies.setdefault(dbuf, []).append((doff, doff + n, c))
        if f.size:
            read_parts.setdefault(dbuf, []).append((doff, doff + n))
            fold_parts.setdefault(dbuf, []).append((doff, doff + n))
            if sbuf == dbuf and soff < doff + n and doff < soff + n:
                report.add(
                    "V806",
                    f"combine step {si} fold operands alias: {sbuf!r}"
                    f"[{soff}:{soff + n}) is both source and in-place "
                    f"destination",
                    phase=phase,
                )
    for name, spans in copies.items():
        spans.sort(key=lambda span: span[:2])
        for i, (lo, hi, rows_i) in enumerate(spans):
            for lo_j, hi_j, rows_j in spans[i + 1 :]:
                if lo_j >= hi:
                    break
                twice = np.intersect1d(rows_i, rows_j)
                if twice.size:
                    report.add(
                        "V806",
                        f"combine steps initialize {name!r}[{lo_j}:"
                        f"{min(hi, hi_j)}) twice on rank(s) "
                        f"{twice[:4].tolist()} (first-write-wins was "
                        f"mis-resolved)",
                        phase=phase,
                    )
    copy_writes = {
        name: IntervalSet((lo, hi) for lo, hi, _ in spans)
        for name, spans in copies.items()
    }
    reads = {name: IntervalSet(parts) for name, parts in read_parts.items()}
    all_writes = dict(copy_writes)
    for name, parts in fold_parts.items():
        all_writes[name] = all_writes.get(name, _NOTHING).union(
            IntervalSet(parts)
        )
    return copy_writes, reads, all_writes


# ---------------------------------------------------------------------------
# fused local-copy program
# ---------------------------------------------------------------------------


def check_copy_program(
    prog: CompiledCopyProgram,
    sizes: Mapping[str, int],
    report: VerificationReport,
) -> Effects:
    """V704/V708 over one compiled copy program; returns what it reads.

    A *fused* program claims copy order is irrelevant, which is exactly
    the statement that all destination regions are pairwise disjoint and
    no destination overlaps a source of the same buffer.  A non-fused
    program is sequential by construction and only bounds-checked."""
    return _judge_copy_program(
        program_effects(prog), prog.fused, sizes, report
    )


def _judge_copy_program(
    eff: ProgramEffects,
    fused: bool,
    sizes: Mapping[str, int],
    report: VerificationReport,
) -> Effects:
    """:func:`check_copy_program` on a program's effects, already
    read."""
    if fused:
        for src, dst, gathered, scattered in eff.ragged:
            report.add(
                "V704",
                f"fused copy op {src!r}->{dst!r} gathers {gathered} "
                f"byte(s) but scatters {scattered}",
            )
    for name, (union, _) in eff.sources.items():
        if not union.within_bounds(int(sizes.get(name, 0))):
            report.add(
                "V708",
                f"copy program reads {name!r}[{union.lo}:{union.hi}) "
                f"beyond its {int(sizes.get(name, 0))}-byte capacity",
            )
    for name, (union, collisions) in eff.targets.items():
        if not union.within_bounds(int(sizes.get(name, 0))):
            report.add(
                "V708",
                f"copy program writes {name!r}[{union.lo}:{union.hi}) "
                f"beyond its {int(sizes.get(name, 0))}-byte capacity",
            )
        if not fused:
            continue
        if collisions:
            report.add(
                "V704",
                f"fused copy program writes {collisions} byte(s) of "
                f"{name!r} more than once (order-dependent)",
            )
        if name in eff.sources:
            overlap = union.intersection(eff.sources[name][0]).nbytes
            if overlap:
                report.add(
                    "V704",
                    f"fused copy program destination overlaps {overlap} "
                    f"source byte(s) of {name!r} (order-dependent)",
                )
    return {name: union for name, (union, _) in eff.sources.items()}


# ---------------------------------------------------------------------------
# batched lowering: the combine row masks
# ---------------------------------------------------------------------------


def check_batched_peers(bplan: BatchedPlan, report: VerificationReport) -> None:
    """What the effect system reads off the peer vectors alone: the row
    masks of every combine step list (the row half of V806).  Peers are
    a function of the topology and the rounds' offsets — the inputs are
    the same arrays at every block size — so the verifier runs this
    with the shape stage, after comparing the peers and what is derived
    from them with translation (V502,
    :func:`~repro.analyze.schedule_verifier._check_peers`)."""
    p = bplan.p
    if bplan.pre_program is not None:
        check_combine_rows(bplan.pre_program, p, report)
    for pi, folds in enumerate(bplan.combine_programs):
        if folds is not None:
            check_combine_rows(folds, p, report, phase=pi)


def check_batched_effects(
    bplan: BatchedPlan,
    report: VerificationReport,
    *,
    periodic: bool,
    effects: Optional[PlanEffects] = None,
) -> None:
    """Effect-check the bytes of a whole :class:`BatchedPlan`, once for
    all ranks: the shared kernels, the byte half of the combine step
    lists and the fused copy program; cross-round disjointness
    (V702/V703) restricted to rounds whose row sets intersect — a phase
    that has either needs the wire's snapshot, so a plan marked in-place
    over it is one more V703; and, on fully periodic tori
    (``periodic``), the scratch lifetime discipline (V709) — there every
    rank sees the same rounds, so one ledger over the plan's effects
    stands for all of them.  ``effects`` is the caller's reading of the
    plan's ops when it already has one.  (What the peer vectors say on
    their own is :func:`check_batched_peers`.)"""
    p = bplan.p
    sizes = bplan.sizes
    read = read_plan(bplan, effects)
    # caller-bound buffers arrive written, pooled scratch does not
    written: Effects = {
        name: IntervalSet([(0, int(cap))])
        for name, cap in sizes.items()
        if name != "temp"
    }

    def wrote(effects: Mapping[str, IntervalSet]) -> None:
        for name, ivs in effects.items():
            written[name] = written.get(name, _NOTHING).union(ivs)

    def need(
        effects: Mapping[str, IntervalSet],
        what: str,
        phase: Optional[int] = None,
        round_index: Optional[int] = None,
    ) -> None:
        if not periodic:
            return
        for name, ivs in effects.items():
            have = written.get(name, _NOTHING)
            if not have.contains(ivs):
                missing = ivs.nbytes - have.intersection(ivs).nbytes
                report.add(
                    "V709",
                    f"{what} reads {missing} byte(s) of {name!r} no "
                    f"earlier effect ever wrote",
                    phase=phase,
                    round_index=round_index,
                )

    def combine(rnd: BatchedReduceRound, pi: Optional[int]) -> None:
        copy_writes, reads, all_writes = _check_combine_bytes(
            rnd, p, sizes, report, phase=pi
        )
        wrote(copy_writes)
        need(reads, "combine step list", pi)
        wrote(all_writes)

    def share_rows(a: np.ndarray, b: np.ndarray) -> bool:
        """Whether some rank runs both of two halves, given the peer
        vector of each: effects can only race on such a rank."""
        return bool(((np.asarray(a) >= 0) & (np.asarray(b) >= 0)).any())

    if bplan.pre_program is not None:
        combine(bplan.pre_program, None)
    for pi, phase in enumerate(bplan.phases):
        # per effect: (round, the peers of its half, its buffer bytes)
        writes: list[tuple[int, np.ndarray, Mapping[str, IntervalSet]]] = []
        reads: list[tuple[int, np.ndarray, Mapping[str, IntervalSet]]] = []
        for ri, (rnd, (send, recv)) in enumerate(zip(phase, read.kernels[pi])):
            if send is not None:
                _judge_kernel(send, sizes, report, "send", pi, ri)
                reads.append((ri, rnd.targets, send.buffers))
            if recv is not None:
                _judge_kernel(recv, sizes, report, "recv", pi, ri)
                writes.append((ri, rnd.sources, recv.buffers))
        # one sweep over the phase: effect k < len(reads) is a read
        written_by = [ivs for _, _, ivs in writes]
        clashes = sorted(
            shared_bytes(
                [ivs for _, _, ivs in reads] + written_by, written_by
            ).items()
        )
        races = 0
        for (k, j), shared in clashes:
            i = k - len(reads)
            if not 0 <= i < j or not share_rows(writes[i][1], writes[j][1]):
                continue
            races += 1
            for name in writes[i][2]:
                if name in shared:
                    report.add(
                        "V702",
                        f"rounds {writes[i][0]} and {writes[j][0]} write "
                        f"{shared[name]} shared byte(s) of {name!r} on "
                        f"shared rows",
                        phase=pi,
                        round_index=writes[j][0],
                    )
        for i, (ri, r_peers, r_ivs) in enumerate(reads):
            for (k, j), shared in clashes:
                if k != i or not share_rows(r_peers, writes[j][1]):
                    continue
                races += 1
                for name in r_ivs:
                    if name in shared:
                        report.add(
                            "V703",
                            f"round {ri} reads {shared[name]} byte(s) of "
                            f"{name!r} that round {writes[j][0]} writes in "
                            f"the same phase",
                            phase=pi,
                            round_index=ri,
                        )
            need(r_ivs, f"round {ri}", pi, ri)
        if races and bplan.delivery == "in-place":
            report.add(
                "V703",
                f"plan delivers in place ({bplan.delivery_reason}) over a "
                f"phase with {races} race(s): without the wire's snapshot "
                f"its result depends on rank order",
                phase=pi,
            )
        for ivs in written_by:
            wrote(ivs)
        # the phase's folds run after its waitall: their staging reads
        # see the phase's deliveries, their accumulator writes feed the
        # next phase's packs
        folds = bplan.combine_programs[pi]
        if folds is not None:
            combine(folds, pi)
    need(
        _judge_copy_program(
            read.copies, bplan.copy_program.fused, sizes, report
        ),
        "local-copy program",
    )


# ---------------------------------------------------------------------------
# whole-schedule entry points
# ---------------------------------------------------------------------------


def run_effect_checks(
    schedule: Schedule,
    topo: CartTopology,
    report: VerificationReport,
    *,
    sizes: Optional[Mapping[str, int]] = None,
    plan: Optional[BatchedPlan] = None,
    effects: Optional[PlanEffects] = None,
) -> None:
    """Append every byte-level effect violation of ``schedule``'s
    lowering to ``report``: one pass over the plan (shared kernels,
    combine step lists, the fused copy program, the lifetime ledger —
    each checked once, for all ranks).
    ``plan`` is the lowering to check and ``effects`` its reading (the
    verifier passes the ones it already certified, and has the peer
    vectors checked with the shape stage); without a plan the schedule
    is lowered here and its combine row masks are checked too."""
    if plan is not None:
        sizes = plan.sizes
    elif sizes is None:
        sizes = _plan_sizes(schedule)
    schedule.prepare()
    # a schedule bad enough that lowering *refuses to compile* is
    # already reported by the structural/lowering checks (and by
    # certify-on-build); the effect system only reasons about artifacts
    # that exist, so compile refusals are skipped, not re-reported
    if plan is None:
        try:
            plan = compile_batched_plan(schedule, topo, sizes)
        except ScheduleError:
            pass
        else:
            check_batched_peers(plan, report)
    if plan is not None:
        check_batched_effects(
            plan, report, periodic=all(topo.periods), effects=effects
        )


def verify_effects(
    schedule: Schedule,
    dims: Sequence[int],
    periods: Sequence[bool] | bool = True,
    *,
    sizes: Optional[Mapping[str, int]] = None,
) -> VerificationReport:
    """Run only the effect-system pass (V701-V709) over ``schedule``."""
    topo, report = _open_report(schedule, dims, periods)
    run_effect_checks(schedule, topo, report, sizes=sizes)
    report.checks_run.append("effects")
    return report


__all__ = [
    "KernelEffects",
    "kernel_effects",
    "check_kernel",
    "check_copy_program",
    "check_batched_combine",
    "check_combine_rows",
    "check_batched_peers",
    "check_batched_effects",
    "run_effect_checks",
    "verify_effects",
]
