"""Byte-interval effect system over the compiled execution layer.

The verifier's V1xx-V4xx checks certify the *schedule*; the V5xx checks
certify that lowering preserved it.  This module closes the remaining
gap: it proves the lowered artifacts themselves — the plan's numpy
selector kernels, fused copy program, row permutations and rank views,
and the shm segment layout — are race- and lifetime-free, by deriving
symbolic ``(buffer, lo, hi)`` read/write summaries for every compiled
object and checking disjointness directly on the intervals.

Everything is static: no kernel is executed, no buffer allocated.  The
checks map to violation codes V701-V709 (:mod:`repro.analyze.report`):

====  ==============================================================
V701  a compiled kernel's scatter writes one destination byte twice
V702  two rounds of one phase write overlapping buffer bytes
V703  a round reads bytes a round of the same phase writes
V704  a fused local-copy program has order-dependent (overlapping)
      effects — fusion was unsound
V705  batched ``sources``/``targets`` are not an injective partial
      matching of ranks
V706  batched ``-1`` masking disagrees with the derived recv rows
V707  two shm segment regions (buffer areas or message slots) overlap
V708  an effect interval exceeds its buffer's capacity
V709  a round reads bytes no earlier effect ever wrote (wire gaps,
      or scratch reads before the writing phase)
V806  a fused combine kernel has order-dependent effects (double
      accumulator initialization, aliased fold operands, or batched
      combine row masks that both copy and fold one rank)
====  ==============================================================

Reduction schedules thread their accumulator state through the fused
combine kernels (:class:`~repro.core.plan.BatchedReduceRound` in the
plan, the :class:`~repro.core.plan.CombineProgram` each rank view
derives from it):
the pre-step seed program writes before phase 0 and each phase's fold
program writes after its delivery, so the lifetime ledger (V709) counts
those writes exactly where the interpreter performs them.

The temp-lifetime part of V709 is only decidable on fully periodic
tori: on a mesh, a rank whose upstream fell off the edge legitimately
forwards never-written scratch into don't-care slots (the content
simulation tolerates exactly the same), so the check is skipped there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.analyze.intervals import (
    IntervalSet,
    SelectorSummary,
    summarize_selector,
)
from repro.analyze.report import VerificationReport
from repro.core import plan as plan_mod
from repro.core.plan import (
    BatchedPlan,
    BatchedReduceRound,
    BatchedRound,
    CombineProgram,
    CompiledBlockSet,
    CompiledCopyProgram,
    RankPlan,
)
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology


# ---------------------------------------------------------------------------
# kernel summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelEffects:
    """What one :class:`CompiledBlockSet` touches, per side.

    ``buffers`` maps buffer names to the byte intervals the kernel's
    buffer side touches; ``wire`` is the wire side.  The collision
    counters record bytes claimed more than once *within* the kernel —
    by a duplicate fancy index or by two ops naming the same region —
    which is a write-write race whenever that side is the destination.
    """

    buffers: Mapping[str, IntervalSet]
    buffer_collision_bytes: int
    wire: IntervalSet
    wire_collision_bytes: int
    total_nbytes: int


def _fold(parts: Sequence[SelectorSummary]) -> tuple[IntervalSet, int]:
    collisions = sum(p.duplicate_bytes for p in parts)
    union = IntervalSet()
    for p in parts:
        ivs = IntervalSet(p.intervals)
        collisions += union.intersection(ivs).nbytes
        union = union.union(ivs)
    return union, collisions


def kernel_effects(kernel: CompiledBlockSet) -> KernelEffects:
    """Symbolic effect summary of one pack/unpack kernel."""
    buf_parts: dict[str, list[SelectorSummary]] = {}
    wire_parts: list[SelectorSummary] = []
    for name, wire_sel, buf_sel in kernel._sel_ops:
        wire_parts.append(summarize_selector(wire_sel))
        buf_parts.setdefault(name, []).append(summarize_selector(buf_sel))
    for name, wire_off, buf_off, n in kernel._run_ops:
        wire_parts.append(summarize_selector(slice(wire_off, wire_off + n)))
        buf_parts.setdefault(name, []).append(
            summarize_selector(slice(buf_off, buf_off + n))
        )
    buffers: dict[str, IntervalSet] = {}
    buf_collisions = 0
    for name, parts in buf_parts.items():
        union, coll = _fold(parts)
        buffers[name] = union
        buf_collisions += coll
    wire, wire_collisions = _fold(wire_parts)
    return KernelEffects(
        buffers=buffers,
        buffer_collision_bytes=buf_collisions,
        wire=wire,
        wire_collision_bytes=wire_collisions,
        total_nbytes=kernel.total_nbytes,
    )


def check_kernel(
    kernel: CompiledBlockSet,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    role: str,
    rank: Optional[int] = None,
    phase: Optional[int] = None,
    round_index: Optional[int] = None,
) -> KernelEffects:
    """Check one kernel in isolation: V701 (scatter collisions), V708
    (capacity), V709 (pack leaving wire bytes uninitialized).

    ``role`` is ``"send"`` (pack: reads buffers, writes wire) or
    ``"recv"`` (unpack: reads wire, writes buffers)."""
    eff = kernel_effects(kernel)
    write_collisions = (
        eff.buffer_collision_bytes if role == "recv" else eff.wire_collision_bytes
    )
    if write_collisions:
        report.add(
            "V701",
            f"{role} kernel writes {write_collisions} destination "
            f"byte(s) more than once",
            rank=rank,
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
                rank=rank,
                phase=phase,
                round_index=round_index,
            )
    if not eff.wire.within_bounds(eff.total_nbytes):
        report.add(
            "V708",
            f"{role} kernel wire selector [{eff.wire.lo}:{eff.wire.hi}) "
            f"exceeds the {eff.total_nbytes}-byte wire",
            rank=rank,
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
                rank=rank,
                phase=phase,
                round_index=round_index,
            )
    return eff


# ---------------------------------------------------------------------------
# fused combine kernels (reduction lowering)
# ---------------------------------------------------------------------------


def _element_intervals(idx: np.ndarray, itemsize: int) -> list[tuple[int, int]]:
    """Byte intervals covered by an element index array."""
    if idx.size == 0:
        return []
    uniq = np.unique(np.asarray(idx, dtype=np.int64))
    starts = uniq * itemsize
    return [(int(lo), int(lo) + itemsize) for lo in starts]


def check_combine_program(
    prog: CombineProgram,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    rank: Optional[int] = None,
    phase: Optional[int] = None,
) -> tuple[
    dict[str, IntervalSet], dict[str, IntervalSet], dict[str, IntervalSet]
]:
    """V806/V708 over one fused :class:`CombineProgram`.

    The compiled program hoists accumulator-initializing copies before
    the fold kernels, which is sound exactly when (a) no region is
    initialized twice and (b) no fold's operands alias each other.
    Bounds are V708 like every other compiled effect.

    Returns ``(copy_writes, fold_reads, all_writes)`` byte-interval maps
    so the caller can thread the program through the lifetime ledger:
    ``fold_reads`` includes the copy sources and the read-modify-write
    fold destinations; ``copy_writes`` are the regions the program
    itself initializes (legitimate targets for its own folds).
    """
    isz = prog.dtype.itemsize
    copy_parts: dict[str, list[tuple[int, int]]] = {}
    read_parts: dict[str, list[tuple[int, int]]] = {}
    fold_parts: dict[str, list[tuple[int, int]]] = {}
    for src, soff, dst, doff, n in prog._copy_ops:
        read_parts.setdefault(src, []).append((soff, soff + n))
        copy_parts.setdefault(dst, []).append((doff, doff + n))
    for src, soff, dst, doff, n in prog._op_ops:
        if n % isz:
            report.add(
                "V806",
                f"fold run of {n} B on {dst!r} is not a multiple of the "
                f"{prog.dtype.str} itemsize",
                rank=rank,
                phase=phase,
            )
        read_parts.setdefault(src, []).append((soff, soff + n))
        read_parts.setdefault(dst, []).append((doff, doff + n))
        fold_parts.setdefault(dst, []).append((doff, doff + n))
        if src == dst and soff < doff + n and doff < soff + n:
            report.add(
                "V806",
                f"fold operands alias: {src!r}[{soff}:{soff + n}) is "
                f"both source and in-place destination",
                rank=rank,
                phase=phase,
            )
    for src, sidx, dst, didx in prog._at_ops:
        if sidx.size != didx.size:
            report.add(
                "V806",
                f"scatter-reduce index arrays disagree: {sidx.size} "
                f"source vs {didx.size} destination element(s)",
                rank=rank,
                phase=phase,
            )
        s_ivs = _element_intervals(sidx, isz)
        d_ivs = _element_intervals(didx, isz)
        read_parts.setdefault(src, []).extend(s_ivs)
        read_parts.setdefault(dst, []).extend(d_ivs)
        fold_parts.setdefault(dst, []).extend(d_ivs)
        if src == dst:
            alias = IntervalSet(s_ivs).intersection(IntervalSet(d_ivs))
            if alias.nbytes:
                report.add(
                    "V806",
                    f"scatter-reduce operands alias {alias.nbytes} "
                    f"byte(s) of {src!r}",
                    rank=rank,
                    phase=phase,
                )
    copy_writes: dict[str, IntervalSet] = {}
    for name, parts in copy_parts.items():
        union, collisions = _fold(
            [summarize_selector(slice(lo, hi)) for lo, hi in parts]
        )
        copy_writes[name] = union
        if collisions:
            report.add(
                "V806",
                f"combine program initializes {collisions} byte(s) of "
                f"{name!r} twice (first-write-wins was mis-resolved)",
                rank=rank,
                phase=phase,
            )
    fold_reads = {
        name: IntervalSet(parts) for name, parts in read_parts.items()
    }
    all_writes: dict[str, IntervalSet] = dict(copy_writes)
    for name, parts in fold_parts.items():
        ivs = IntervalSet(parts)
        all_writes[name] = all_writes.get(name, IntervalSet()).union(ivs)
    for label, by_buffer in (("reads", fold_reads), ("writes", all_writes)):
        for name, ivs in by_buffer.items():
            cap = int(sizes.get(name, 0))
            if not ivs.within_bounds(cap):
                report.add(
                    "V708",
                    f"combine program {label} {name!r}[{ivs.lo}:{ivs.hi}) "
                    f"beyond its {cap}-byte capacity",
                    rank=rank,
                    phase=phase,
                )
    return copy_writes, fold_reads, all_writes


def check_batched_combine(
    rnd: BatchedReduceRound,
    p: int,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    phase: Optional[int] = None,
) -> None:
    """V806/V708 over one all-ranks combine kernel: column bounds, row
    masks inside ``[0, p)``, and — the batched-specific hazard — no rank
    appearing in both a step's copy rows and its fold rows (it would
    count that contribution twice)."""
    isz = rnd.dtype.itemsize
    for si, step in enumerate(rnd.steps):
        sbuf, soff, dbuf, doff, n, copy_rows, comb_rows = step
        for name, off in ((sbuf, soff), (dbuf, doff)):
            cap = int(sizes.get(name, 0))
            if off < 0 or off + n > cap:
                report.add(
                    "V708",
                    f"batched combine step {si} touches {name!r}"
                    f"[{off}:{off + n}) beyond its {cap}-byte capacity",
                    phase=phase,
                )
        if n % isz:
            report.add(
                "V806",
                f"batched combine step {si} of {n} B is not a multiple "
                f"of the {rnd.dtype.str} itemsize",
                phase=phase,
            )
        rows: dict[str, Optional[np.ndarray]] = {
            "copy": copy_rows, "fold": comb_rows,
        }
        for label, vec in rows.items():
            if vec is None:
                continue
            arr = np.asarray(vec)
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= p):
                report.add(
                    "V806",
                    f"batched combine step {si} {label} rows name a rank "
                    f"outside 0..{p - 1}",
                    phase=phase,
                )
            if np.unique(arr).size != arr.size:
                report.add(
                    "V806",
                    f"batched combine step {si} {label} rows name one "
                    f"rank twice",
                    phase=phase,
                )
        c = np.arange(p) if copy_rows is None else np.asarray(copy_rows)
        f = np.arange(p) if comb_rows is None else np.asarray(comb_rows)
        both = np.intersect1d(c, f)
        if both.size:
            report.add(
                "V806",
                f"batched combine step {si} both initializes and folds "
                f"rank(s) {both[:4].tolist()} — the contribution would "
                f"be counted twice",
                phase=phase,
            )


# ---------------------------------------------------------------------------
# rank-view rounds: disjointness + lifetime
# ---------------------------------------------------------------------------


def _overlap_by_buffer(
    a: Mapping[str, IntervalSet], b: Mapping[str, IntervalSet]
) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for name, ivs in a.items():
        other = b.get(name)
        if other is not None:
            n = ivs.intersection(other).nbytes
            if n:
                out.append((name, n))
    return out


def check_plan_effects(
    plan: RankPlan,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    periodic: bool,
    rank: Optional[int] = None,
    check_kernels: bool = True,
) -> None:
    """Effect-check one rank's :class:`RankPlan` view: per-round kernel
    soundness, per-phase send/recv disjointness (V702/V703) and, on
    fully periodic tori, the scratch lifetime discipline (V709)."""
    written: dict[str, IntervalSet] = {
        name: IntervalSet([(0, int(cap))])
        for name, cap in sizes.items()
        if name != "temp"
    }
    written.setdefault("temp", IntervalSet())

    def apply_combine(prog: CombineProgram, pi: Optional[int]) -> None:
        """Check one fused combine program and ledger its writes."""
        copy_w, reads, writes_c = check_combine_program(
            prog, sizes, report, rank=rank, phase=pi
        )
        if periodic:
            for name, ivs in reads.items():
                avail = written.get(name, IntervalSet()).union(
                    copy_w.get(name, IntervalSet())
                )
                missing = ivs.nbytes - avail.intersection(ivs).nbytes
                if missing:
                    report.add(
                        "V709",
                        f"combine program reads {missing} byte(s) of "
                        f"{name!r} no earlier effect ever wrote",
                        rank=rank,
                        phase=pi,
                    )
        for name, ivs in writes_c.items():
            written[name] = written.get(name, IntervalSet()).union(ivs)

    if plan.pre_program is not None:
        apply_combine(plan.pre_program, None)
    for pi, phase in enumerate(plan.phases):
        reads: list[tuple[int, Mapping[str, IntervalSet]]] = []
        writes: list[tuple[int, Mapping[str, IntervalSet]]] = []
        for ri, rnd in enumerate(phase):
            if rnd.send is not None:
                eff = (
                    check_kernel(
                        rnd.send, sizes, report, role="send",
                        rank=rank, phase=pi, round_index=ri,
                    )
                    if check_kernels
                    else kernel_effects(rnd.send)
                )
                reads.append((ri, eff.buffers))
            if rnd.recv is not None:
                eff = (
                    check_kernel(
                        rnd.recv, sizes, report, role="recv",
                        rank=rank, phase=pi, round_index=ri,
                    )
                    if check_kernels
                    else kernel_effects(rnd.recv)
                )
                writes.append((ri, eff.buffers))
        for i in range(len(writes)):
            for j in range(i + 1, len(writes)):
                for name, n in _overlap_by_buffer(writes[i][1], writes[j][1]):
                    report.add(
                        "V702",
                        f"rounds {writes[i][0]} and {writes[j][0]} both "
                        f"write {n} byte(s) of {name!r}",
                        rank=rank,
                        phase=pi,
                        round_index=writes[j][0],
                    )
        for ri, r_ivs in reads:
            for wj, w_ivs in writes:
                for name, n in _overlap_by_buffer(r_ivs, w_ivs):
                    report.add(
                        "V703",
                        f"round {ri} reads {n} byte(s) of {name!r} that "
                        f"round {wj} writes in the same phase",
                        rank=rank,
                        phase=pi,
                        round_index=ri,
                    )
        if periodic:
            for ri, r_ivs in reads:
                for name, ivs in r_ivs.items():
                    have = written.get(name, IntervalSet())
                    missing = ivs.nbytes - have.intersection(ivs).nbytes
                    if missing:
                        report.add(
                            "V709",
                            f"round {ri} packs {missing} byte(s) of "
                            f"{name!r} no earlier phase ever wrote",
                            rank=rank,
                            phase=pi,
                            round_index=ri,
                        )
        for _, w_ivs in writes:
            for name, ivs in w_ivs.items():
                written[name] = written.get(name, IntervalSet()).union(ivs)
        # the phase's fold program runs after its waitall: its staging
        # reads see the phase's deliveries, its accumulator writes feed
        # the next phase's packs
        combine = plan.combine_programs[pi]
        if combine is not None:
            apply_combine(combine, pi)
    if periodic:
        prog_reads: dict[str, list[SelectorSummary]] = {}
        for src, _dst, src_sel, _dst_sel in plan.copy_program._sel_ops:
            prog_reads.setdefault(src, []).append(summarize_selector(src_sel))
        for src, _dst, src_off, _dst_off, n in plan.copy_program._run_ops:
            prog_reads.setdefault(src, []).append(
                summarize_selector(slice(src_off, src_off + n))
            )
        for name, parts in prog_reads.items():
            union, _ = _fold(parts)
            have = written.get(name, IntervalSet())
            missing = union.nbytes - have.intersection(union).nbytes
            if missing:
                report.add(
                    "V709",
                    f"local-copy program reads {missing} byte(s) of "
                    f"{name!r} no phase ever wrote",
                    rank=rank,
                )


# ---------------------------------------------------------------------------
# fused local-copy program
# ---------------------------------------------------------------------------


def check_copy_program(
    prog: CompiledCopyProgram,
    sizes: Mapping[str, int],
    report: VerificationReport,
    *,
    rank: Optional[int] = None,
) -> None:
    """V704/V708 over one compiled copy program.

    A *fused* program claims copy order is irrelevant, which is exactly
    the statement that all destination regions are pairwise disjoint and
    no destination overlaps a source of the same buffer.  A non-fused
    program is sequential by construction and only bounds-checked."""
    srcs: dict[str, list[SelectorSummary]] = {}
    dsts: dict[str, list[SelectorSummary]] = {}
    for src, dst, src_sel, dst_sel in prog._sel_ops:
        s = summarize_selector(src_sel)
        d = summarize_selector(dst_sel)
        if prog.fused and s.nbytes != d.nbytes:
            report.add(
                "V704",
                f"fused copy op {src!r}->{dst!r} gathers {s.nbytes} "
                f"byte(s) but scatters {d.nbytes}",
                rank=rank,
            )
        srcs.setdefault(src, []).append(s)
        dsts.setdefault(dst, []).append(d)
    for src, dst, src_off, dst_off, n in prog._run_ops:
        srcs.setdefault(src, []).append(
            summarize_selector(slice(src_off, src_off + n))
        )
        dsts.setdefault(dst, []).append(
            summarize_selector(slice(dst_off, dst_off + n))
        )
    src_union: dict[str, IntervalSet] = {}
    for name, parts in srcs.items():
        union, _ = _fold(parts)
        src_union[name] = union
        if not union.within_bounds(int(sizes.get(name, 0))):
            report.add(
                "V708",
                f"copy program reads {name!r}[{union.lo}:{union.hi}) "
                f"beyond its {int(sizes.get(name, 0))}-byte capacity",
                rank=rank,
            )
    for name, parts in dsts.items():
        union, collisions = _fold(parts)
        if not union.within_bounds(int(sizes.get(name, 0))):
            report.add(
                "V708",
                f"copy program writes {name!r}[{union.lo}:{union.hi}) "
                f"beyond its {int(sizes.get(name, 0))}-byte capacity",
                rank=rank,
            )
        if not prog.fused:
            continue
        if collisions:
            report.add(
                "V704",
                f"fused copy program writes {collisions} byte(s) of "
                f"{name!r} more than once (order-dependent)",
                rank=rank,
            )
        overlap = union.intersection(
            src_union.get(name, IntervalSet())
        ).nbytes
        if overlap:
            report.add(
                "V704",
                f"fused copy program destination overlaps {overlap} "
                f"source byte(s) of {name!r} (order-dependent)",
                rank=rank,
            )


# ---------------------------------------------------------------------------
# batched lowering: peer permutation + masking
# ---------------------------------------------------------------------------


def check_batched_round(
    rnd: BatchedRound,
    p: int,
    report: VerificationReport,
    *,
    phase: Optional[int] = None,
    round_index: Optional[int] = None,
) -> None:
    """V705/V706 over one batched round's peer vectors.

    The valid (non ``-1``) entries of ``targets`` must form an injective
    partial map whose inverse is exactly the valid part of ``sources``
    — otherwise the single row permutation ``wire[recv_sources]``
    delivers one rank's payload to two ranks, or the wrong one.  The
    derived masking fields must agree with the mask they were derived
    from, or the masked scatter writes the wrong rows."""
    sources = np.asarray(rnd.sources)
    targets = np.asarray(rnd.targets)
    for label, vec in (("sources", sources), ("targets", targets)):
        if vec.shape != (p,):
            report.add(
                "V705",
                f"{label} has shape {vec.shape}, expected ({p},)",
                phase=phase,
                round_index=round_index,
            )
            return
        valid = vec[vec >= 0]
        if valid.size and int(valid.max()) >= p:
            report.add(
                "V706",
                f"{label} names rank {int(valid.max())} outside 0..{p - 1}",
                phase=phase,
                round_index=round_index,
            )
            return
        if np.unique(valid).size != valid.size:
            report.add(
                "V705",
                f"{label} names one rank twice: the round's row "
                f"permutation is not injective",
                phase=phase,
                round_index=round_index,
            )
    recv_dsts = np.nonzero(sources >= 0)[0]
    bad = np.nonzero(targets[sources[recv_dsts]] != recv_dsts)[0]
    if bad.size:
        j = int(recv_dsts[bad[0]])
        report.add(
            "V705",
            f"rank {j} reads wire row {int(sources[j])}, whose target "
            f"is rank {int(targets[sources[j]])}, not {j}",
            phase=phase,
            round_index=round_index,
        )
    send_srcs = np.nonzero(targets >= 0)[0]
    bad = np.nonzero(sources[targets[send_srcs]] != send_srcs)[0]
    if bad.size:
        i = int(send_srcs[bad[0]])
        report.add(
            "V705",
            f"rank {i} sends to rank {int(targets[i])}, which reads "
            f"wire row {int(sources[targets[i]])}, not {i}",
            phase=phase,
            round_index=round_index,
        )
    if rnd.recv is not None and recv_dsts.size and rnd.send is None:
        report.add(
            "V705",
            "round delivers to ranks with valid sources but packs no "
            "send kernel",
            phase=phase,
            round_index=round_index,
        )
    # -- derived masking fields ----------------------------------------
    if rnd.senders != int((targets >= 0).sum()):
        report.add(
            "V706",
            f"senders={rnd.senders} but {int((targets >= 0).sum())} "
            f"rank(s) have a valid target",
            phase=phase,
            round_index=round_index,
        )
    if rnd.recv is None:
        return
    if rnd.recv_rows is None:
        if recv_dsts.size != p:
            report.add(
                "V706",
                "recv_rows is None (scatter to every row) but some "
                "sources are -1",
                phase=phase,
                round_index=round_index,
            )
        if not np.array_equal(np.asarray(rnd.recv_sources), sources):
            report.add(
                "V706",
                "recv_sources differs from sources despite unmasked "
                "delivery",
                phase=phase,
                round_index=round_index,
            )
        return
    if not np.array_equal(np.asarray(rnd.recv_rows), recv_dsts):
        report.add(
            "V706",
            "recv_rows differs from the rows whose source is valid",
            phase=phase,
            round_index=round_index,
        )
        return
    if not np.array_equal(
        np.asarray(rnd.recv_sources), sources[recv_dsts]
    ):
        report.add(
            "V706",
            "recv_sources differs from sources[recv_rows]",
            phase=phase,
            round_index=round_index,
        )


def check_batched_effects(
    bplan: BatchedPlan,
    report: VerificationReport,
    *,
    check_kernels: bool = True,
) -> None:
    """Effect-check a whole :class:`BatchedPlan`: every round's peer
    permutation and masking, the shared kernels, and cross-round
    disjointness restricted to rounds whose receiving row sets
    intersect."""
    p = bplan.p
    sizes = bplan.sizes
    if bplan.pre_program is not None:
        check_batched_combine(bplan.pre_program, p, sizes, report)
    for pi, combine in enumerate(bplan.combine_programs):
        if combine is not None:
            check_batched_combine(combine, p, sizes, report, phase=pi)
    for pi, phase in enumerate(bplan.phases):
        writes: list[tuple[int, np.ndarray, Mapping[str, IntervalSet]]] = []
        reads: list[tuple[int, np.ndarray, Mapping[str, IntervalSet]]] = []
        for ri, rnd in enumerate(phase):
            check_batched_round(rnd, p, report, phase=pi, round_index=ri)
            if rnd.send is not None:
                eff = (
                    check_kernel(
                        rnd.send, sizes, report, role="send",
                        phase=pi, round_index=ri,
                    )
                    if check_kernels
                    else kernel_effects(rnd.send)
                )
                rows = np.nonzero(np.asarray(rnd.targets) >= 0)[0]
                reads.append((ri, rows, eff.buffers))
            if rnd.recv is not None:
                eff = (
                    check_kernel(
                        rnd.recv, sizes, report, role="recv",
                        phase=pi, round_index=ri,
                    )
                    if check_kernels
                    else kernel_effects(rnd.recv)
                )
                rows = (
                    np.arange(p, dtype=np.int64)
                    if rnd.recv_rows is None
                    else np.asarray(rnd.recv_rows)
                )
                writes.append((ri, rows, eff.buffers))
        for i in range(len(writes)):
            for j in range(i + 1, len(writes)):
                if not np.intersect1d(writes[i][1], writes[j][1]).size:
                    continue
                for name, n in _overlap_by_buffer(writes[i][2], writes[j][2]):
                    report.add(
                        "V702",
                        f"batched rounds {writes[i][0]} and {writes[j][0]} "
                        f"write {n} shared byte(s) of {name!r} on shared "
                        f"rows",
                        phase=pi,
                        round_index=writes[j][0],
                    )
        for ri, r_rows, r_ivs in reads:
            for wj, w_rows, w_ivs in writes:
                if not np.intersect1d(r_rows, w_rows).size:
                    continue
                for name, n in _overlap_by_buffer(r_ivs, w_ivs):
                    report.add(
                        "V703",
                        f"batched round {ri} reads {n} byte(s) of "
                        f"{name!r} that round {wj} writes in the same "
                        f"phase",
                        phase=pi,
                        round_index=ri,
                    )


# ---------------------------------------------------------------------------
# shm segment layout
# ---------------------------------------------------------------------------


def check_shm_layout(
    buffer_table: Sequence[Mapping[str, tuple[int, int]]],
    slots: Mapping[tuple[int, int], tuple[int, int]],
    p: int,
    total: int,
    report: VerificationReport,
) -> None:
    """V707: every (rank, buffer) region and every ``p``-wide message
    slot strip must live in its own byte range of the segment."""
    regions: list[tuple[int, int, str]] = []
    for r, table in enumerate(buffer_table):
        for name, (off, nbytes) in table.items():
            regions.append((off, off + nbytes, f"rank {r} buffer {name!r}"))
    for (pi, ri), (base, nbytes) in sorted(slots.items()):
        regions.append(
            (base, base + p * nbytes, f"slot strip ({pi}, {ri})")
        )
    for lo, hi, desc in regions:
        if lo < 0 or hi > total:
            report.add(
                "V707",
                f"{desc} [{lo}:{hi}) lies outside the {total}-byte "
                f"segment",
            )
    regions.sort()
    for (lo0, hi0, d0), (lo1, hi1, d1) in zip(regions, regions[1:]):
        if lo1 < hi0:
            report.add(
                "V707",
                f"{d0} [{lo0}:{hi0}) overlaps {d1} [{lo1}:{hi1})",
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
    sample_limit: int = 16,
    plan: Optional[BatchedPlan] = None,
) -> None:
    """Append every effect-system violation of ``schedule``'s lowering
    to ``report``: the plan itself (peer vectors, shared kernels — each
    checked once — the fused copy program), its sampled rank views
    (violations deduplicated across ranks) and the shm segment layout.
    ``plan`` is the lowering to check (the verifier passes the one it
    already certified); without it the schedule is lowered here."""
    from repro.analyze.schedule_verifier import _plan_sizes, _sample_ranks
    from repro.mpisim.exceptions import ScheduleError

    if plan is not None:
        sizes = plan.sizes
    elif sizes is None:
        sizes = _plan_sizes(schedule)
    schedule.prepare()
    periodic = all(topo.periods)
    seen: set[tuple[object, ...]] = set()

    def fresh() -> VerificationReport:
        return VerificationReport(
            kind=report.kind, dims=report.dims, periods=report.periods
        )

    def merge(sub: VerificationReport) -> None:
        for v in sub.violations:
            key = (v.code, v.phase, v.round_index, v.block, v.message)
            if key not in seen:
                seen.add(key)
                report.violations.append(v)

    # a schedule bad enough that lowering *refuses to compile* is
    # already reported by the structural/lowering checks (and by
    # certify-on-build); the effect system only reasons about artifacts
    # that exist, so compile refusals are skipped, not re-reported
    if plan is None:
        try:
            plan, _ = plan_mod.get_or_compile(schedule, topo, sizes=sizes)
        except ScheduleError:
            plan = None
    if plan is not None:
        sub = fresh()
        check_batched_effects(plan, sub)
        check_copy_program(plan.copy_program, sizes, sub)
        merge(sub)
        for rank in _sample_ranks(topo.size, sample_limit):
            sub = fresh()
            # the views share the plan's kernel objects, checked above
            check_plan_effects(
                plan.for_rank(rank), sizes, sub,
                periodic=periodic, rank=rank, check_kernels=False,
            )
            merge(sub)
    from repro.core.backend.shm import compute_segment_layout

    try:
        shared = {name: cap for name, cap in sizes.items() if name != "temp"}
        buffer_table, slots, total = compute_segment_layout(
            schedule, [shared] * topo.size
        )
    except ScheduleError:
        return
    sub = fresh()
    check_shm_layout(buffer_table, slots, topo.size, total, sub)
    merge(sub)


def verify_effects(
    schedule: Schedule,
    dims: Sequence[int],
    periods: Sequence[bool] | bool = True,
    *,
    sizes: Optional[Mapping[str, int]] = None,
) -> VerificationReport:
    """Run only the effect-system pass (V701-V709) over ``schedule``."""
    dims_t = tuple(int(n) for n in dims)
    if isinstance(periods, bool):
        periods_t: tuple[bool, ...] = (periods,) * len(dims_t)
    else:
        periods_t = tuple(bool(p) for p in periods)
    topo = CartTopology(dims_t, periods_t)
    report = VerificationReport(
        kind=schedule.kind, dims=dims_t, periods=periods_t
    )
    run_effect_checks(schedule, topo, report, sizes=sizes)
    report.checks_run.append("effects")
    return report


def sweep_effects() -> list[
    tuple[str, str, tuple[int, ...], VerificationReport]
]:
    """Effect-verify the lowering of every sweep kind for every paper
    stencil — the ``repro.analyze effects --all-stencils`` sweep."""
    from repro.analyze.schedule_verifier import (
        SWEEP_KINDS,
        build_for_kind,
        paper_stencil_grid,
    )
    from repro.core.stencils import named_stencil

    results: list[tuple[str, str, tuple[int, ...], VerificationReport]] = []
    for name, dims in paper_stencil_grid():
        nbh = named_stencil(name)
        if nbh.d != len(dims):
            continue
        nbh.validate_for_dims(dims)
        for kind in SWEEP_KINDS:
            schedule = build_for_kind(kind, nbh)
            results.append(
                (name, kind, dims, verify_effects(schedule, dims, True))
            )
    return results


__all__ = [
    "KernelEffects",
    "kernel_effects",
    "check_kernel",
    "check_plan_effects",
    "check_copy_program",
    "check_combine_program",
    "check_batched_combine",
    "check_batched_round",
    "check_batched_effects",
    "check_shm_layout",
    "run_effect_checks",
    "verify_effects",
    "sweep_effects",
]
