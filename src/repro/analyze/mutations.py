"""Mutation-adversary harness for the static analyzer.

A verifier that has never seen a bug is untested hypothesis.  This
module is the adversary: it takes *real* artifacts — the lowered
9-point alltoall and reduce plans on a 4×4 torus and the actual sources
of ``lockstep.py`` / ``plan.py`` / ``mailbox.py`` — applies one seeded
corruption at a time (alias two recv intervals, shift an unpack offset,
swap batched rows, drop a release, invert a lock order, …), and demands that the analyzer kill
every mutant **with the expected violation code**.  A surviving mutant
is a hole in the analyzer, and the harness (a CI gate via ``python -m
repro.analyze mutations``) fails.

Before any mutant runs, the unmutated fixtures must be verifiably
clean: a dirty baseline would let every mutant be "killed" by a
pre-existing finding.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, TypeVar

import numpy as np

from repro.analyze.effects import (
    check_batched_combine,
    check_batched_effects,
    check_batched_round,
    check_copy_program,
    check_kernel,
)
from repro.analyze.linearity import analyze_source
from repro.analyze.report import VerificationReport
from repro.core.plan import (
    BatchedPlan,
    BatchedReduceRound,
    BatchedRound,
    CompiledBlockSet,
    compile_batched_plan,
)
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology

_DIMS = (4, 4)
_PERIODS = (True, True)


def _report() -> VerificationReport:
    return VerificationReport(kind="mutant", dims=_DIMS, periods=_PERIODS)


# ---------------------------------------------------------------------------
# fixtures: real compiled artifacts and real module sources
# ---------------------------------------------------------------------------


class _Fixture:
    """Everything the mutators corrupt, built once from real code at one
    block size (the analyzer must kill every mutant at any)."""

    def __init__(self, block_bytes: int = 4) -> None:
        from repro.analyze.schedule_verifier import _plan_sizes, build_for_kind
        from repro.core.stencils import named_stencil

        nbh = named_stencil("9-point")
        self.nbh = nbh
        self.block_bytes = block_bytes
        self.topo = CartTopology(_DIMS, _PERIODS)
        self.schedule = build_for_kind("alltoall", nbh, block_bytes)
        self.sizes: dict[str, int] = dict(_plan_sizes(self.schedule))
        # one lowering per schedule; the mutants corrupt copies of its
        # rounds, kernels and step lists
        self.bplan: BatchedPlan = compile_batched_plan(
            self.schedule, self.topo, self.sizes
        )
        # reduction fixtures: the combining reverse-tree reduce and its
        # masked combine step lists
        self.reduce_schedule = build_for_kind("reduce", nbh, block_bytes)
        self.reduce_sizes: dict[str, int] = dict(
            _plan_sizes(self.reduce_schedule)
        )
        self.reduce_bplan: BatchedPlan = compile_batched_plan(
            self.reduce_schedule, self.topo, self.reduce_sizes
        )
        import repro.core.backend.lockstep as lockstep_mod
        import repro.core.plan as core_plan_mod
        import repro.mpisim.mailbox as mailbox_mod

        self.lockstep_src = Path(str(lockstep_mod.__file__)).read_text()
        self.plan_src = Path(str(core_plan_mod.__file__)).read_text()
        self.mailbox_src = Path(str(mailbox_mod.__file__)).read_text()

    # -- baseline: the unmutated artifacts must be clean ----------------
    def check_baseline(self) -> None:
        rep = _report()
        check_batched_effects(self.bplan, rep, periodic=True)
        check_batched_effects(self.reduce_bplan, rep, periodic=True)
        if not rep.ok:
            raise RuntimeError(
                f"dirty effects baseline: {sorted(rep.codes())} — the "
                f"harness cannot distinguish mutants from real bugs"
            )
        from repro.analyze.schedule_verifier import verify_schedule

        rrep = verify_schedule(self.reduce_schedule, _DIMS, _PERIODS)
        if not rrep.ok:
            raise RuntimeError(
                f"dirty reduce baseline: {sorted(rrep.codes())}"
            )
        for label, src in (
            ("lockstep.py", self.lockstep_src),
            ("plan.py", self.plan_src),
            ("mailbox.py", self.mailbox_src),
        ):
            findings = analyze_source(src, label)
            if findings:
                raise RuntimeError(
                    f"dirty lint baseline in {label}: "
                    f"{[(f.rule, f.line) for f in findings]}"
                )

    # -- structural helpers --------------------------------------------
    def round_with(self, half: str) -> tuple[int, int, BatchedRound]:
        for pi, phase in enumerate(self.bplan.phases):
            for ri, rnd in enumerate(phase):
                if getattr(rnd, half) is not None:
                    return pi, ri, rnd
        raise RuntimeError(f"fixture has no round with a {half} half")

    def phase_with_two_recvs(self) -> tuple[int, int, int]:
        for pi, phase in enumerate(self.bplan.phases):
            ris = [ri for ri, r in enumerate(phase) if r.recv is not None]
            if len(ris) >= 2:
                return pi, ris[0], ris[1]
        raise RuntimeError("fixture has no phase with two recv rounds")


# mutated-copy helpers: the fixture's originals are never touched —
# only slot-for-slot copies are corrupted


def _mut_kernel(
    kernel: CompiledBlockSet,
    sel_ops: Optional[tuple] = None,
    run_ops: Optional[tuple] = None,
) -> CompiledBlockSet:
    k = copy.copy(kernel)
    if sel_ops is not None:
        k._sel_ops = sel_ops
    if run_ops is not None:
        k._run_ops = run_ops
    return k


def _dup_first_op(kernel: CompiledBlockSet) -> CompiledBlockSet:
    if kernel._sel_ops:
        return _mut_kernel(
            kernel, sel_ops=kernel._sel_ops + (kernel._sel_ops[0],)
        )
    return _mut_kernel(kernel, run_ops=kernel._run_ops + (kernel._run_ops[0],))


_Round = TypeVar("_Round", BatchedRound, BatchedReduceRound)


def _mut_batched(rnd: _Round, **attrs: object) -> _Round:
    r2 = copy.copy(rnd)
    for name, value in attrs.items():
        setattr(r2, name, value)
    return r2


def _replace_round(
    plan: BatchedPlan, pi: int, ri: int, **halves: Optional[CompiledBlockSet]
) -> BatchedPlan:
    p2 = copy.copy(plan)
    phases = [list(phase) for phase in plan.phases]
    phases[pi][ri] = _mut_batched(phases[pi][ri], **halves)
    p2.phases = tuple(tuple(phase) for phase in phases)
    return p2


def _plan_codes(plan: BatchedPlan) -> set[str]:
    rep = _report()
    check_batched_effects(plan, rep, periodic=True)
    return rep.codes()


def _batched_codes(fx: _Fixture, rnd: BatchedRound) -> set[str]:
    rep = _report()
    check_batched_round(rnd, fx.bplan.p, rep, phase=0, round_index=0)
    return rep.codes()


def _lint_codes(src: str, label: str) -> set[str]:
    return {f.rule for f in analyze_source(src, label)}


# -- source surgery ---------------------------------------------------------


def _line_index(src: str, needle: str) -> tuple[list[str], int]:
    lines = src.splitlines()
    hits = [i for i, line in enumerate(lines) if needle in line]
    if len(hits) != 1:
        raise RuntimeError(
            f"needle {needle!r} matches {len(hits)} line(s), need exactly 1"
        )
    return lines, hits[0]


def _blank_line(src: str, needle: str) -> str:
    """Replace the unique line containing ``needle`` with ``pass`` at
    the same indentation (keeps the surrounding block syntactic)."""
    lines, i = _line_index(src, needle)
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + "pass"
    return "\n".join(lines)


def _double_line(src: str, needle: str) -> str:
    lines, i = _line_index(src, needle)
    lines.insert(i, lines[i])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the mutators
# ---------------------------------------------------------------------------


_REGISTRY: list[tuple[str, str, Callable[[_Fixture], set[str]]]] = []


def _mutator(
    name: str, expect: str
) -> Callable[[Callable[[_Fixture], set[str]]], Callable[[_Fixture], set[str]]]:
    def deco(
        fn: Callable[[_Fixture], set[str]]
    ) -> Callable[[_Fixture], set[str]]:
        _REGISTRY.append((name, expect, fn))
        return fn

    return deco


# -- V701: scatter/gather collisions ----------------------------------------


@_mutator("duplicate-recv-scatter-op", "V701")
def _m_dup_recv(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("recv")
    assert rnd.recv is not None
    rep = _report()
    check_kernel(_dup_first_op(rnd.recv), fx.sizes, rep, role="recv")
    return rep.codes()


@_mutator("duplicate-send-gather-op", "V701")
def _m_dup_send(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("send")
    assert rnd.send is not None
    rep = _report()
    check_kernel(_dup_first_op(rnd.send), fx.sizes, rep, role="send")
    return rep.codes()


# -- V702/V703: cross-round interval races ----------------------------------


@_mutator("alias-recv-kernels-across-rounds", "V702")
def _m_alias_recv(fx: _Fixture) -> set[str]:
    pi, ri, rj = fx.phase_with_two_recvs()
    other = fx.bplan.phases[pi][ri].recv
    return _plan_codes(_replace_round(fx.bplan, pi, rj, recv=other))


@_mutator("send-reads-own-recv-region", "V703")
def _m_send_reads_recv(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("recv")
    return _plan_codes(_replace_round(fx.bplan, pi, ri, send=rnd.recv))


@_mutator("recv-overwrites-peer-send-source", "V703")
def _m_recv_overwrites_send(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("send")
    return _plan_codes(_replace_round(fx.bplan, pi, ri, recv=rnd.send))


@_mutator("inplace-over-phase-hazard", "V703")
def _m_inplace_over_hazard(fx: _Fixture) -> set[str]:
    # the same race, on a plan that claims it needs no wire snapshot
    pi, ri, rnd = fx.round_with("recv")
    mutated = _replace_round(fx.bplan, pi, ri, send=rnd.recv)
    mutated.delivery = "in-place"
    return _plan_codes(mutated)


# -- V704: unsound local-copy fusion ----------------------------------------


@_mutator("fused-copy-overlapping-destinations", "V704")
def _m_copy_dst_dst(fx: _Fixture) -> set[str]:
    prog = copy.copy(fx.bplan.copy_program)
    prog.fused = True
    prog._run_ops = prog._run_ops + (
        ("send", "recv", 0, 0, 16),
        ("send", "recv", 8, 8, 16),
    )
    rep = _report()
    check_copy_program(prog, fx.sizes, rep)
    return rep.codes()


@_mutator("fused-copy-destination-overlaps-source", "V704")
def _m_copy_dst_src(fx: _Fixture) -> set[str]:
    prog = copy.copy(fx.bplan.copy_program)
    prog.fused = True
    prog._run_ops = prog._run_ops + (("recv", "recv", 0, 8, 16),)
    rep = _report()
    check_copy_program(prog, fx.sizes, rep)
    return rep.codes()


# -- V705/V706: batched peer vectors ----------------------------------------


def _first_batched(fx: _Fixture) -> BatchedRound:
    return fx.bplan.phases[0][0]


@_mutator("duplicate-batched-targets", "V705")
def _m_dup_targets(fx: _Fixture) -> set[str]:
    rnd = _first_batched(fx)
    targets = np.array(rnd.targets, copy=True)
    targets[0] = targets[1]
    return _batched_codes(fx, _mut_batched(rnd, targets=targets))


@_mutator("swap-batched-source-rows", "V705")
def _m_swap_sources(fx: _Fixture) -> set[str]:
    rnd = _first_batched(fx)
    sources = np.array(rnd.sources, copy=True)
    sources[[0, 1]] = sources[[1, 0]]
    return _batched_codes(
        fx, _mut_batched(rnd, sources=sources, recv_sources=sources)
    )


@_mutator("batched-peer-out-of-range", "V706")
def _m_peer_range(fx: _Fixture) -> set[str]:
    rnd = _first_batched(fx)
    targets = np.array(rnd.targets, copy=True)
    targets[0] = fx.bplan.p + 3
    return _batched_codes(fx, _mut_batched(rnd, targets=targets))


@_mutator("batched-senders-miscount", "V706")
def _m_senders(fx: _Fixture) -> set[str]:
    rnd = _first_batched(fx)
    return _batched_codes(fx, _mut_batched(rnd, senders=rnd.senders - 1))


@_mutator("batched-recv-rows-corrupted", "V706")
def _m_recv_rows(fx: _Fixture) -> set[str]:
    rnd = _first_batched(fx)
    rows = np.arange(fx.bplan.p - 1, dtype=np.int64)
    return _batched_codes(
        fx,
        _mut_batched(
            rnd, recv_rows=rows, recv_sources=np.asarray(rnd.sources)[rows]
        ),
    )


@_mutator("batched-recv-sources-rolled", "V706")
def _m_recv_sources(fx: _Fixture) -> set[str]:
    rnd = _first_batched(fx)
    rolled = np.roll(np.asarray(rnd.recv_sources), 1)
    return _batched_codes(fx, _mut_batched(rnd, recv_sources=rolled))


# -- V708: capacity overruns ------------------------------------------------


def _shift_buffer_side(
    kernel: CompiledBlockSet, delta: int
) -> CompiledBlockSet:
    """Move the first op's buffer side ``delta`` bytes up (selectors
    count lanes, so theirs is rescaled)."""
    sel_ops = []
    for name, wire_sel, buf_sel, lane in kernel._sel_ops:
        words = delta // lane
        if isinstance(buf_sel, slice):
            buf_sel = slice(buf_sel.start + words, buf_sel.stop + words)
        else:
            buf_sel = buf_sel + words
        sel_ops.append((name, wire_sel, buf_sel, lane))
        break
    sel_ops.extend(kernel._sel_ops[len(sel_ops):])
    run_ops = kernel._run_ops
    if not kernel._sel_ops and run_ops:
        name, woff, boff, n = run_ops[0]
        run_ops = ((name, woff, boff + delta, n),) + run_ops[1:]
    return _mut_kernel(kernel, sel_ops=tuple(sel_ops), run_ops=run_ops)


@_mutator("unpack-offset-past-capacity", "V708")
def _m_unpack_overrun(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("recv")
    assert rnd.recv is not None
    shifted = _shift_buffer_side(rnd.recv, max(fx.sizes.values()))
    rep = _report()
    check_kernel(shifted, fx.sizes, rep, role="recv")
    return rep.codes()


@_mutator("wire-selector-past-wire-end", "V708")
def _m_wire_overrun(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("recv")
    assert rnd.recv is not None
    name, wire_sel, buf_sel, lane = rnd.recv._sel_ops[0]
    total = rnd.recv.total_nbytes // lane
    if isinstance(wire_sel, slice):
        wire_sel = slice(wire_sel.start + total, wire_sel.stop + total)
    else:
        wire_sel = wire_sel + total
    mutated = _mut_kernel(
        rnd.recv,
        sel_ops=((name, wire_sel, buf_sel, lane),) + rnd.recv._sel_ops[1:],
    )
    rep = _report()
    check_kernel(mutated, fx.sizes, rep, role="recv")
    return rep.codes()


# -- V501/V503: selector lanes ----------------------------------------------


def _stale_lane(lane: int) -> int:
    """Another width for a ``lane``: a block lane's word lane
    ``gcd(8, lane)``, which divides whatever the block lane divides;
    a word lane's double (its half at 8)."""
    word = math.gcd(8, lane)
    if word != lane:
        return word
    return lane // 2 if lane == 8 else 2 * lane


def _widen_one_lane(fx: _Fixture, sizes: dict[str, int]) -> set[str]:
    """Lower the fixture at ``sizes``, give the first index-selector op
    whose wire its :func:`_stale_lane` divides that lane — indices
    untouched — and run the kernel conformance check on the result."""
    from repro.analyze.schedule_verifier import _check_plan_kernels

    plan = compile_batched_plan(fx.schedule, fx.topo, sizes)
    pi, ri, half, kernel = next(
        (pi, ri, half, kernel)
        for pi, phase in enumerate(plan.phases)
        for ri, rnd in enumerate(phase)
        for half, kernel in (("send", rnd.send), ("recv", rnd.recv))
        if kernel is not None
        and kernel.uses_indices
        and kernel.total_nbytes % _stale_lane(kernel.lanes[0]) == 0
    )
    *op, lane = kernel._sel_ops[0]
    stale = _stale_lane(lane)
    widened = _mut_kernel(
        kernel, sel_ops=((*op, stale),) + kernel._sel_ops[1:]
    )
    rep = _report()
    _check_plan_kernels(
        fx.schedule, rep, _replace_round(plan, pi, ri, **{half: widened})
    )
    return rep.codes()


@_mutator("lane-widened-without-rescale", "V503")
def _m_lane_widened(fx: _Fixture) -> set[str]:
    # capacities rounded up to whole 8-byte words, so the stale lane
    # still views every buffer and only the stale indices are wrong
    return _widen_one_lane(
        fx, {name: -(-cap // 8) * 8 for name, cap in fx.sizes.items()}
    )


@_mutator("delivery-segment-shifted", "V503")
def _m_delivery_shifted(fx: _Fixture) -> set[str]:
    """The fixture at KiB blocks, where its plan delivers in place: one
    slice run of the first round program lands a word further on."""
    from repro.analyze.schedule_verifier import (
        _check_plan_kernels,
        _plan_sizes,
        build_for_kind,
    )

    schedule = build_for_kind("alltoall", fx.nbh, fx.block_bytes << 10)
    plan = compile_batched_plan(schedule, fx.topo, _plan_sizes(schedule))
    deliveries = plan.deliveries
    assert deliveries is not None, plan
    program = copy.copy(deliveries[0][0])
    assert program is not None and program._run_ops, program
    src, dst, src_off, dst_off, n = program._run_ops[0]
    program._run_ops = (
        (src, dst, src_off, dst_off + 8, n),
    ) + program._run_ops[1:]
    mutated = copy.copy(plan)
    mutated._deliveries = ((program,) + deliveries[0][1:],) + deliveries[1:]
    rep = _report()
    _check_plan_kernels(schedule, rep, mutated)
    return rep.codes()


# -- V506: the fused maps against the walk ----------------------------------


@_mutator("fused-step-pair-swapped", "V506")
def _m_fused_pair_swapped(fx: _Fixture) -> set[str]:
    """Two ranks' words of the first fused step trade sources: every
    kernel and rank view is intact, only the maps are wrong."""
    from repro.analyze.schedule_verifier import _check_execution

    plan, rep = copy.copy(fx.bplan), _report()  # lowered on the copy alone
    assert plan.fused is not None, plan
    (dst, src), *rest = plan.fused.steps
    src = src.copy()
    src[[0, -1]] = src[[-1, 0]]
    plan._fused = plan.fused._replace(steps=((dst, src), *rest))
    _check_execution(fx.schedule, fx.topo, plan, rep, definition=False)
    return rep.codes()


# -- V709: wire gaps and scratch lifetime -----------------------------------


@_mutator("pack-kernel-wire-gap", "V709")
def _m_wire_gap(fx: _Fixture) -> set[str]:
    pi, ri, rnd = fx.round_with("send")
    assert rnd.send is not None
    if rnd.send._sel_ops:
        mutated = _mut_kernel(rnd.send, sel_ops=rnd.send._sel_ops[1:])
    else:
        mutated = _mut_kernel(rnd.send, run_ops=rnd.send._run_ops[1:])
    rep = _report()
    check_kernel(mutated, fx.sizes, rep, role="send")
    return rep.codes()


@_mutator("phase0-reads-unwritten-scratch", "V709")
def _m_temp_read(fx: _Fixture) -> set[str]:
    send0 = fx.bplan.phases[0][0].send
    assert send0 is not None
    sel_ops = tuple(("temp", *op[1:]) for op in send0._sel_ops)
    run_ops = tuple(
        ("temp", woff, boff, n) for _name, woff, boff, n in send0._run_ops
    )
    mutated = _mut_kernel(send0, sel_ops=sel_ops, run_ops=run_ops)
    return _plan_codes(_replace_round(fx.bplan, 0, 0, send=mutated))


# -- V801/V802/V803: reduce schedule structure and dataflow -----------------

#: name -> (expected code, corruption of a fresh reduce schedule in
#: place): the schedule-level mutants, also presentable to the verifier
#: by other routes (the tests send them through a certificate store)
SCHEDULE_MUTANTS: dict[str, tuple[str, Callable[[Schedule], None]]] = {}


def _reduce_mutant(
    name: str, expect: str
) -> Callable[[Callable[[Schedule], None]], Callable[[Schedule], None]]:
    def deco(corrupt: Callable[[Schedule], None]) -> Callable[[Schedule], None]:
        SCHEDULE_MUTANTS[name] = (expect, corrupt)

        @_mutator(name, expect)
        def run(fx: _Fixture) -> set[str]:
            from repro.analyze.schedule_verifier import (
                build_for_kind,
                verify_schedule,
            )

            # a fresh, uncached schedule is safe to corrupt in place
            schedule = build_for_kind("reduce", fx.nbh, fx.block_bytes)
            corrupt(schedule)
            return verify_schedule(schedule, _DIMS, _PERIODS).codes()

        return corrupt

    return deco


@_reduce_mutant("reduce-drop-tree-round", "V801")
def _m_reduce_drop_round(s: Schedule) -> None:
    del s.phases[0].rounds[-1]


@_reduce_mutant("reduce-zero-round-offset", "V802")
def _m_reduce_zero_offset(s: Schedule) -> None:
    s.phases[0].rounds[0].offset = (0,) * s.neighborhood.d


@_reduce_mutant("reduce-combine-gate-out-of-range", "V802")
def _m_reduce_bad_gate(s: Schedule) -> None:
    s.phases[0].combine_steps[0].when_round = 99


@_reduce_mutant("reduce-reroute-combine-dst", "V803")
def _m_reduce_reroute_dst(s: Schedule) -> None:
    steps = s.phases[0].combine_steps
    dsts = sorted({st.dst for st in steps}, key=lambda r: r.offset)
    assert len(dsts) >= 2, "fixture needs two accumulators to misroute"
    steps[0].dst = dsts[1] if steps[0].dst == dsts[0] else dsts[0]


@_reduce_mutant("reduce-drop-pre-step", "V803")
def _m_reduce_drop_pre(s: Schedule) -> None:
    del s.pre_steps[0]


# -- V806: combine step list corruption --------------------------------------


def _combine_codes(fx: _Fixture, rnd: BatchedReduceRound) -> set[str]:
    rep = _report()
    check_batched_combine(rnd, fx.reduce_bplan.p, fx.reduce_sizes, rep)
    return rep.codes()


def _first_batched_combine(fx: _Fixture) -> BatchedReduceRound:
    return next(c for c in fx.reduce_bplan.combine_programs if c is not None)


@_mutator("combine-duplicate-initializing-copy", "V806")
def _m_combine_double_init(fx: _Fixture) -> set[str]:
    pre = fx.reduce_bplan.pre_program
    assert pre is not None and pre.steps[0][5] is None  # copies every rank
    return _combine_codes(
        fx, _mut_batched(pre, steps=pre.steps + (pre.steps[0],))
    )


@_mutator("combine-fold-aliases-accumulator", "V806")
def _m_combine_fold_alias(fx: _Fixture) -> set[str]:
    rnd = _first_batched_combine(fx)
    k = next(i for i, step in enumerate(rnd.steps) if step[6] is None)
    _, _, dbuf, doff, n, copy_rows, comb_rows = rnd.steps[k]
    # fold a region into itself, shifted by half a block: src and dst
    # overlap, so the ufunc reads bytes it already clobbered
    steps = list(rnd.steps)
    steps[k] = (dbuf, doff, dbuf, doff + n // 2, n, copy_rows, comb_rows)
    return _combine_codes(fx, _mut_batched(rnd, steps=tuple(steps)))


@_mutator("batched-combine-copy-and-fold-same-rank", "V806")
def _m_batched_combine_mask_flip(fx: _Fixture) -> set[str]:
    rnd = _first_batched_combine(fx)
    sbuf, soff, dbuf, doff, n, copy_rows, comb_rows = rnd.steps[0]
    # rank 0 appears in both the initializing-copy mask and the fold
    # mask: its contribution would be counted twice
    steps = (
        (sbuf, soff, dbuf, doff, n, copy_rows, np.array([0], dtype=np.int64)),
    ) + rnd.steps[1:]
    return _combine_codes(fx, _mut_batched(rnd, steps=steps))


@_mutator("batched-combine-row-out-of-range", "V806")
def _m_batched_combine_row_range(fx: _Fixture) -> set[str]:
    rnd = _first_batched_combine(fx)
    sbuf, soff, dbuf, doff, n, copy_rows, comb_rows = rnd.steps[0]
    rows = np.array([fx.reduce_bplan.p + 1], dtype=np.int64)
    steps = ((sbuf, soff, dbuf, doff, n, rows, comb_rows),) + rnd.steps[1:]
    return _combine_codes(fx, _mut_batched(rnd, steps=steps))


# -- L006/L007: pool linearity over real backend sources --------------------


@_mutator("lockstep-drop-except-release", "L006")
def _m_drop_except_release(fx: _Fixture) -> set[str]:
    src = _blank_line(fx.lockstep_src, "GLOBAL_POOL.release(wire)")
    return _lint_codes(src, "lockstep.py")


@_mutator("batched-drop-ownership-append", "L006")
def _m_drop_append(fx: _Fixture) -> set[str]:
    src = _blank_line(fx.plan_src, "wires.append(flat)")
    return _lint_codes(src, "plan.py")


@_mutator("batched-drop-finally-release", "L006")
def _m_drop_finally_release(fx: _Fixture) -> set[str]:
    src = _blank_line(fx.plan_src, "GLOBAL_POOL.release(flat)")
    return _lint_codes(src, "plan.py")


@_mutator("lockstep-double-release", "L007")
def _m_double_release(fx: _Fixture) -> set[str]:
    src = _double_line(fx.lockstep_src, "GLOBAL_POOL.release(wire)")
    return _lint_codes(src, "lockstep.py")


# -- L008/L009: lockset discipline over the mailbox -------------------------


@_mutator("mailbox-deliver-locked-renamed", "L008")
def _m_rename_locked(fx: _Fixture) -> set[str]:
    src = fx.mailbox_src.replace(
        "def _deliver_locked(", "def _deliver_unsafe(", 1
    )
    return _lint_codes(src, "mailbox.py")


@_mutator("mailbox-notify-outside-lock", "L008")
def _m_notify_outside(fx: _Fixture) -> set[str]:
    src = fx.mailbox_src + (
        "\n\ndef _mutant_wake(box):\n"
        "    box._cond.notify_all()\n"
    )
    return _lint_codes(src, "mailbox.py")


@_mutator("mailbox-inverted-lock-order", "L009")
def _m_lock_inversion(fx: _Fixture) -> set[str]:
    src = fx.mailbox_src + (
        "\n\ndef _mutant_drain(a, b):\n"
        "    with a.reg_lock:\n"
        "        with b.msg_lock:\n"
        "            pass\n"
        "\n\ndef _mutant_flush(a, b):\n"
        "    with b.msg_lock:\n"
        "        with a.reg_lock:\n"
        "            pass\n"
    )
    return _lint_codes(src, "mailbox.py")


@_mutator("mailbox-self-nested-lock", "L009")
def _m_self_nested(fx: _Fixture) -> set[str]:
    src = fx.mailbox_src + (
        "\n\ndef _mutant_reenter(box):\n"
        "    with box.msg_lock:\n"
        "        with box.msg_lock:\n"
        "            pass\n"
    )
    return _lint_codes(src, "mailbox.py")


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutationResult:
    name: str
    expect: str
    reported: tuple[str, ...]

    @property
    def killed(self) -> bool:
        return self.expect in self.reported


def run_mutations(block_bytes: int = 4) -> list[MutationResult]:
    """Build the fixtures at ``block_bytes``, assert the baseline is
    clean, run every registered mutator and return one result per
    mutant."""
    fx = _Fixture(block_bytes)
    fx.check_baseline()
    results: list[MutationResult] = []
    for name, expect, fn in _REGISTRY:
        codes = fn(fx)
        results.append(MutationResult(name, expect, tuple(sorted(codes))))
    return results


def main(verbose: bool = False) -> int:
    results = run_mutations()
    survived = [r for r in results if not r.killed]
    for r in results:
        status = "killed" if r.killed else "SURVIVED"
        line = f"{status:8s}  {r.name:40s} expect={r.expect}"
        if verbose or not r.killed:
            line += f"  reported={list(r.reported)}"
        print(line)
    print(
        f"{len(results) - len(survived)}/{len(results)} mutants killed "
        f"({len(_REGISTRY)} seeded mutators)"
    )
    return 1 if survived else 0


__all__ = ["MutationResult", "run_mutations", "main"]
