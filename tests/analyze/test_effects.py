"""Byte-interval effect system (V701-V709).

Positive direction: every compiled artifact of every sweep kind is
effect-clean (the ``verify --all-stencils`` sweep in miniature).  Negative
direction: hand-corrupted copies of *real* compiled kernels, copy
programs and batched rounds trip exactly the expected code.  (The full
mutant registry is ``tests/analyze/mutants.py``; these are the direct
unit-level probes.)
"""

import copy

import numpy as np
import pytest

from repro.analyze.effects import (
    check_copy_program,
    check_kernel,
    kernel_effects,
    verify_effects,
)
from repro.analyze.intervals import IntervalSet, summarize_selector
from repro.analyze.report import VerificationReport
from repro.analyze.schedule_verifier import (
    SWEEP_KINDS,
    _check_peers,
    _plan_sizes,
    build_for_kind,
)
from repro.core.plan import compile_batched_plan
from repro.core.stencils import named_stencil
from repro.core.topology import CartTopology

DIMS = (4, 4)


def report():
    return VerificationReport(kind="test", dims=DIMS, periods=(True, True))


@pytest.fixture(scope="module")
def artifacts():
    nbh = named_stencil("9-point")
    topo = CartTopology(DIMS, (True, True))
    sched = build_for_kind("alltoall", nbh).prepare()
    sizes = _plan_sizes(sched)
    return sched, topo, sizes, compile_batched_plan(sched, topo, sizes)


def first_kernel(plan, side):
    for rounds in plan.phases:
        for pr in rounds:
            k = getattr(pr, side)
            if k is not None and k.total_nbytes:
                return k
    raise AssertionError("no kernel found")


def mutate_kernel(kernel, *, sel_ops=None, run_ops=None):
    k = copy.copy(kernel)
    if sel_ops is not None:
        k._sel_ops = sel_ops
    if run_ops is not None:
        k._run_ops = run_ops
    return k


class TestKernelEffects:
    def test_clean_kernels(self, artifacts):
        _, _, sizes, plan = artifacts
        rep = report()
        for side, role in (("send", "send"), ("recv", "recv")):
            check_kernel(first_kernel(plan, side), sizes, rep, role=role)
        assert rep.ok, rep.summary()

    def test_duplicate_scatter_op_is_v701(self, artifacts):
        _, _, sizes, plan = artifacts
        k = first_kernel(plan, "recv")
        # _sel_ops and _run_ops partition the kernel's ops; duplicate
        # one op from whichever side is populated
        if k._sel_ops:
            bad = mutate_kernel(k, sel_ops=list(k._sel_ops) + [k._sel_ops[0]])
        else:
            bad = mutate_kernel(k, run_ops=list(k._run_ops) + [k._run_ops[0]])
        rep = report()
        check_kernel(bad, sizes, rep, role="recv")
        assert "V701" in rep.codes()

    def test_offset_past_capacity_is_v708(self, artifacts):
        _, _, sizes, plan = artifacts
        k = first_kernel(plan, "recv")
        bump = max(sizes.values())
        bad_runs = [
            (name, wire, buf + bump, n) for name, wire, buf, n in k._run_ops
        ]
        # selectors count lanes: the same byte bump is bump // lane words
        bad_sels = [
            (
                name,
                wire_sel,
                slice(buf_sel.start + bump // lane, buf_sel.stop + bump // lane)
                if isinstance(buf_sel, slice)
                else buf_sel + bump // lane,
                lane,
            )
            for name, wire_sel, buf_sel, lane in k._sel_ops
        ]
        rep = report()
        check_kernel(
            mutate_kernel(k, sel_ops=bad_sels, run_ops=bad_runs),
            sizes,
            rep,
            role="recv",
        )
        assert "V708" in rep.codes()

    def test_pack_wire_gap_is_v709(self, artifacts):
        _, _, sizes, plan = artifacts
        k = first_kernel(plan, "send")
        assert len(k._sel_ops) >= 1
        rep = report()
        check_kernel(
            mutate_kernel(
                k, sel_ops=k._sel_ops[1:], run_ops=k._run_ops[1:]
            ),
            sizes,
            rep,
            role="send",
        )
        assert "V709" in rep.codes()


class TestLaneSummaries:
    """The effect pass reads selectors in lanes and must see the bytes
    it saw when the lowering indexed every byte: the reference below is
    that per-byte expansion, built from the schedule's own block sets."""

    GRID = [
        ("9-point", (4, 4), (True, True)),
        ("27-point", (3, 3, 3), (True, True, True)),
        ("9-point", (2, 4), (True, False)),
    ]

    @staticmethod
    def per_byte(runs):
        per_buffer = {}
        for b in runs:
            per_buffer.setdefault(b.buffer, []).append(
                np.arange(b.offset, b.end(), dtype=np.int64)
            )
        return {
            name: summarize_selector(np.concatenate(parts))
            for name, parts in per_buffer.items()
        }

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("stencil,dims,periods", GRID)
    def test_byte_intervals_unchanged(self, stencil, dims, periods, kind):
        sched = build_for_kind(kind, named_stencil(stencil)).prepare()
        plan = compile_batched_plan(
            sched, CartTopology(dims, periods), _plan_sizes(sched)
        )
        kernels = 0
        for phase, plan_rounds in zip(sched.phases, plan.phases):
            for rnd, br in zip(phase.rounds, plan_rounds):
                for blocks, kernel in (
                    (rnd.send_blocks, br.send),
                    (rnd.recv_blocks, br.recv),
                ):
                    if kernel is None:
                        continue
                    kernels += 1
                    want = self.per_byte(blocks.coalesced_runs())
                    eff = kernel_effects(kernel)
                    assert eff.buffers == {
                        name: IntervalSet(s.intervals)
                        for name, s in want.items()
                    }
                    assert eff.buffer_collision_bytes == sum(
                        s.duplicate_bytes for s in want.values()
                    )
                    total = sum(s.nbytes for s in want.values())
                    assert eff.total_nbytes == total
                    assert eff.wire == IntervalSet([(0, total)])
                    assert eff.wire_collision_bytes == 0
        assert kernels

    @pytest.mark.parametrize("lane", [1, 2, 4, 8])
    def test_lane_scales_intervals_duplicates_and_bytes(self, lane):
        idx = np.array([0, 1, 2, 5, 5, 9], dtype=np.int64)
        per_byte = (idx[:, None] * lane + np.arange(lane)).ravel()
        assert summarize_selector(idx, lane) == summarize_selector(per_byte)
        assert summarize_selector(slice(3, 7), lane) == summarize_selector(
            slice(3 * lane, 7 * lane)
        )


class TestCopyProgram:
    def synth(self, fused, run_ops):
        from repro.core.plan import CompiledCopyProgram

        # _sel_ops and _run_ops partition the program's ops; synthesize
        # run-op-only programs (the slice-loop side)
        prog = CompiledCopyProgram.__new__(CompiledCopyProgram)
        prog.nbytes = sum(op[4] for op in run_ops)
        prog.fused = fused
        prog._sel_ops = []
        prog._run_ops = list(run_ops)
        return prog

    def test_overlapping_destinations_is_v704(self):
        prog = self.synth(
            True,
            [("send", "recv", 0, 0, 16), ("send", "recv", 16, 8, 16)],
        )
        rep = report()
        check_copy_program(prog, {"send": 64, "recv": 64}, rep)
        assert "V704" in rep.codes()

    def test_destination_overlaps_source_is_v704(self):
        prog = self.synth(True, [("recv", "recv", 0, 8, 16)])
        rep = report()
        check_copy_program(prog, {"recv": 64}, rep)
        assert "V704" in rep.codes()

    def test_disjoint_fused_program_clean(self):
        prog = self.synth(
            True,
            [("send", "recv", 0, 0, 16), ("send", "recv", 16, 32, 16)],
        )
        rep = report()
        check_copy_program(prog, {"send": 64, "recv": 64}, rep)
        assert rep.ok, rep.summary()


class TestBatchedRound:
    """A round's peer vectors, and what the lowering derives from them,
    against translation at every rank: V502."""

    def check(self, artifacts, **attrs):
        sched, topo, _, bplan = artifacts
        rnd = copy.copy(bplan.phases[0][0])
        for k, v in attrs.items():
            setattr(rnd, k, v)
        plan = copy.copy(bplan)
        plan.phases = ((rnd, *bplan.phases[0][1:]), *bplan.phases[1:])
        rep = report()
        _check_peers(sched, topo, plan, rep)
        return rep

    def test_clean_round(self, artifacts):
        rep = self.check(artifacts)
        assert rep.ok, rep.summary()

    def test_duplicate_targets_is_v502(self, artifacts):
        targets = artifacts[3].phases[0][0].targets.copy()
        targets[1] = targets[0]
        assert self.check(artifacts, targets=targets).codes() == {"V502"}

    def test_out_of_range_peer_is_v502(self, artifacts):
        sources = artifacts[3].phases[0][0].sources.copy()
        sources[0] = artifacts[3].p + 3
        assert self.check(artifacts, sources=sources).codes() == {"V502"}

    def test_corrupt_recv_rows_is_v502(self, artifacts):
        rows = np.arange(artifacts[3].p - 1)
        assert self.check(artifacts, recv_rows=rows).codes() == {"V502"}

    def test_peer_vector_of_another_shape_is_v502(self, artifacts):
        targets = artifacts[3].phases[0][0].targets[:-1]
        rep = self.check(artifacts, targets=targets)
        assert rep.codes() == {"V502"}
        assert "shapes" in rep.by_code("V502")[0].message


class TestSweep:
    def test_verify_effects_all_kinds(self):
        nbh = named_stencil("9-point")
        for kind in SWEEP_KINDS:
            rep = verify_effects(build_for_kind(kind, nbh), DIMS, True)
            assert rep.ok, (kind, rep.summary())
            assert "effects" in rep.checks_run

    def test_effects_run_inside_verify_schedule_by_default(self):
        from repro.analyze import verify_schedule

        nbh = named_stencil("9-point")
        rep = verify_schedule(build_for_kind("alltoall", nbh), DIMS, True)
        assert rep.ok
        assert "effects" in rep.checks_run


class TestHazardVerdict:
    """The lowering decides, from the run lists alone, whether a phase
    needs the wire's snapshot; the effect pass decides the same from
    the compiled kernels' intervals.  They must agree — an in-place
    plan over a race is the one thing the backend cannot survive."""

    @pytest.mark.parametrize("m", [8, 1000, 16384])
    @pytest.mark.parametrize(
        "dims, periods",
        [
            ((4, 4), (True, True)),
            ((3, 3, 3), (True, True, True)),
            ((2, 4), (False, True)),
        ],
    )
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_lowering_and_effect_pass_agree(self, kind, dims, periods, m):
        from repro.analyze.effects import check_batched_effects
        from repro.core.stencils import moore_neighborhood

        nbh = moore_neighborhood(len(dims), 1, include_self=False)
        sched = build_for_kind(kind, nbh, m).prepare()
        plan = compile_batched_plan(
            sched, CartTopology(dims, periods), _plan_sizes(sched)
        )
        rep = VerificationReport(kind=kind, dims=dims, periods=periods)
        check_batched_effects(plan, rep, periodic=all(periods))
        assert any(plan.hazards) == bool({"V702", "V703"} & rep.codes())
        assert not any(plan.hazards)
        if sched.is_reduction:
            assert plan.delivery_reason == "reduction"
        elif m != 1000:  # there, by how the kind's blocks coalesce
            assert (plan.delivery == "in-place") == (m == 16384), plan

    def test_in_place_over_a_race_is_a_v703_of_its_own(self, artifacts):
        """The ``inplace-over-phase-hazard`` mutant by hand: the same
        corrupted round is reported once more when the plan claims it
        can run without the snapshot."""
        _sched, _topo, _sizes, plan = artifacts
        from repro.analyze.effects import check_batched_effects
        from tests.analyze.mutants import _replace_round

        pi, ri = next(
            (pi, ri)
            for pi, rounds in enumerate(plan.phases)
            for ri, rnd in enumerate(rounds)
            if rnd.recv is not None
        )
        raced = _replace_round(plan, pi, ri, send=plan.phases[pi][ri].recv)
        messages = {}
        for delivery in ("staged", "in-place"):
            raced.delivery = delivery
            rep = report()
            check_batched_effects(raced, rep, periodic=True)
            messages[delivery] = [v.message for v in rep.by_code("V703")]
        extra = [m for m in messages["in-place"] if m not in messages["staged"]]
        assert messages["staged"] and len(extra) == 1
        assert "delivers in place" in extra[0]
