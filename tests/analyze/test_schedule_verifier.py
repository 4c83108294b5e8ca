"""Static schedule verifier: certification of good schedules and
rejection (with the right violation codes) of known-bad ones.

The three bad schedules are the canonical counterexamples from the
issue: an orphaned send (a round whose receive source never sends),
a swapped round order (a rendezvous deadlock cycle inside one phase),
and an overlapping receive block pair (aliasing).  Each is produced by
mutating a correct builder schedule, so the tests also demonstrate that
the verifier sees through the `recv_offset` generality rather than
assuming the isomorphic default.
"""

from __future__ import annotations

import pytest

from repro.analyze.report import (
    CODES,
    RETIRED,
    ScheduleValidationError,
    VerificationReport,
    Violation,
)
from repro.analyze.schedule_verifier import (
    SWEEP_KINDS,
    build_for_kind,
    certify_schedule,
    paper_stencil_grid,
    sweep_stencils,
    verify_schedule,
)
from repro.core import schedule_cache
from repro.core.stencils import named_stencil
from repro.mpisim.datatypes import BlockRef, BlockSet


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------
class TestReport:
    def test_violation_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            Violation(code="V999", message="nope")

    def test_all_codes_documented(self):
        for code in CODES:
            v = Violation(code=code, message="x")
            assert code in v.describe()
        assert not RETIRED & set(CODES)

    def test_violation_refuses_a_retired_code(self):
        for code in RETIRED:
            with pytest.raises(ValueError, match="retired"):
                Violation(code=code, message="x")

    def test_empty_report_is_ok(self):
        report = VerificationReport(
            kind="alltoall", dims=(4, 4), periods=(True, True)
        )
        assert report.ok
        report.raise_if_failed()  # no-op when clean
        assert "OK" in report.summary()

    def test_raise_if_failed_carries_violations(self):
        report = VerificationReport(
            kind="alltoall", dims=(4, 4), periods=(True, True)
        )
        report.add("V101", "orphan", rank=3)
        assert not report.ok
        with pytest.raises(ScheduleValidationError) as ei:
            report.raise_if_failed()
        assert isinstance(ei.value, ScheduleValidationError)
        assert {v.code for v in ei.value.violations} == {"V101"}


# ----------------------------------------------------------------------
# good schedules certify clean
# ----------------------------------------------------------------------
class TestCertification:
    def test_paper_stencil_sweep_all_clean(self):
        results = sweep_stencils()
        # every (stencil, kind) combination from the paper's tables
        assert len(results) == len(paper_stencil_grid()) * len(SWEEP_KINDS)
        bad = [
            (row.stencil, row.kind, sorted(row.report.codes()))
            for row in results
            if not row.report.ok
        ]
        assert bad == []

    def test_checks_run_recorded(self):
        nbh = named_stencil("9-point")
        report = verify_schedule(
            build_for_kind("alltoall", nbh), (4, 4), True
        )
        assert report.ok
        assert "quantitative" in report.checks_run
        assert "matching+deadlock" in report.checks_run
        assert "buffer-bounds" in report.checks_run
        assert "definition" in report.checks_run

    def test_certify_returns_report(self):
        nbh = named_stencil("5-point")
        report = certify_schedule(
            build_for_kind("trivial-alltoall", nbh), (3, 5), True
        )
        assert report.ok

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_certification_lowers_once_and_leaves_no_plan(
        self, kind, monkeypatch
    ):
        from repro.core import plan as plan_mod

        lowerings = []
        lower = plan_mod.lower  # real or scaled from the plan of its class

        def counting(*args, **kwargs):
            lowerings.append(args)
            return lower(*args, **kwargs)

        monkeypatch.setattr(plan_mod, "lower", counting)
        sched = build_for_kind(kind, named_stencil("9-point"))
        certify_schedule(sched, (4, 4), True)
        assert len(lowerings) == 1
        assert sched._plans == {}


def test_sentinel_execution_walks_whatever_the_registry_resolves_to(monkeypatch):
    """V506's reference must stay independent of the kernels it
    certifies: it drives the per-rank walk directly, so it never enters
    the batched executor — by the name ``lockstep`` (an alias of it now)
    or any other — and does not notice the registry being emptied."""
    from repro.core import backend as backend_mod
    from repro.core.backend.batched import BatchedBackend
    from repro.core.backend.lockstep import LockstepTransport

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier entered the batched executor")

    posts = []
    post_send = LockstepTransport.post_send

    def counting(self, *args, **kwargs):
        posts.append(self.rank)
        return post_send(self, *args, **kwargs)

    monkeypatch.setattr(BatchedBackend, "execute_all", refuse)
    monkeypatch.setattr(backend_mod, "BACKENDS", {})
    monkeypatch.setattr(LockstepTransport, "post_send", counting)
    sched = build_for_kind("alltoall", named_stencil("9-point"))
    report = certify_schedule(sched, (4, 4), True)
    assert report.ok and "matrix-execution" in report.checks_run
    # every rank of the torus packed every round itself
    assert sorted(set(posts)) == list(range(16))
    assert len(posts) == 16 * sched.num_rounds


def test_report_says_when_the_executor_would_walk():
    """A reduction whose buffers are not a whole number of elements has
    no matrix form.  The batched backend used to refuse it (and the
    sentinel execution said so, V506); it walks it now, so there is
    nothing to compare and the report gives the executor's reason beside
    the plan's verdict."""
    from repro.core.reduce_schedule import build_trivial_reduce_schedule
    from repro.core.schedule import LocalCopy

    sched = build_trivial_reduce_schedule(
        named_stencil("9-point"), m_bytes=16, dtype="int64"
    )
    assert verify_schedule(sched, (3, 3), True).delivery == (
        "staged: reduction; fused: ≤ 9 words of 16 B per launch"
    )
    # three bytes past the elements, copied locally; the layouts name
    # them, so the buffers a caller hands over hold them (V305)
    src, dst = BlockRef("send", 16, 3), BlockRef("recv", 16, 3)
    sched.local_copies.append(LocalCopy(src, dst))
    sched.send_layout.append(BlockSet([src]))
    sched.recv_layout.append(BlockSet([dst]))
    report = verify_schedule(sched, (3, 3), True)
    assert report.ok and "matrix-execution" in report.checks_run
    assert report.delivery.startswith("staged: reduction; runs as walk: buffer ")
    assert "cannot be viewed as <i8 rank matrices" in report.summary()


def test_delivery_table_must_follow_the_rounds():
    """An in-place plan has one program per round with both halves:
    a table of another shape, or a dropped program, is V501 — the
    instance stage judges what the batched backend would run."""
    import copy

    from repro.analyze.schedule_verifier import (
        _check_plan_kernels,
        _open_report,
        _plan_sizes,
    )
    from repro.core.plan import compile_batched_plan

    sched = build_for_kind("alltoall", named_stencil("9-point"), 4096)
    topo, clean = _open_report(sched, (4, 4), True)
    plan = compile_batched_plan(sched, topo, _plan_sizes(sched))
    assert plan.delivery == "in-place"
    assert _check_plan_kernels(sched, clean, plan) is plan and clean.ok
    assert clean.delivery == "in-place: 8192 B per copy > 2048; 192 launches"
    for table in (
        plan.deliveries[:-1],
        ((None,) + plan.deliveries[0][1:],) + plan.deliveries[1:],
    ):
        mutated = copy.copy(plan)
        mutated._deliveries = table
        _, report = _open_report(sched, (4, 4), True)
        _check_plan_kernels(sched, report, mutated)
        assert report.codes() == {"V501"}


# ----------------------------------------------------------------------
# the three known-bad schedules
# ----------------------------------------------------------------------
def _first_round(sched):
    for ph in sched.phases:
        if ph.rounds:
            return ph.rounds[0]
    raise AssertionError("schedule has no rounds")


class TestKnownBadSchedules:
    def test_orphaned_send_is_rejected(self):
        # A round that receives from a source that never targets this
        # rank: its intended sender's message is orphaned (V101) and the
        # posted receive never completes (V102).
        nbh = named_stencil("5-point")
        sched = build_for_kind("trivial-alltoall", nbh)
        _first_round(sched).recv_offset = (2, 2)
        report = verify_schedule(sched, (4, 4), True)
        assert not report.ok
        assert "V101" in report.codes()
        assert "V102" in report.codes()

    def test_swapped_round_order_deadlocks(self):
        # Cross the receive sources of two rounds of one phase: each
        # rank's first receive waits for the peer's *second* send while
        # that peer symmetrically waits on this rank's second send — a
        # cycle under rendezvous sends (Prop 3.1's deadlock argument).
        nbh = named_stencil("9-point")
        sched = build_for_kind("alltoall", nbh)
        phase = next(ph for ph in sched.phases if len(ph.rounds) >= 2)
        a, b = phase.rounds[0], phase.rounds[1]
        a.recv_offset, b.recv_offset = b.offset, a.offset
        report = verify_schedule(sched, (4, 4), True)
        assert not report.ok
        assert "V201" in report.codes()
        [v] = [v for v in report.violations if v.code == "V201"]
        assert "cycle" in v.message

    def test_overlapping_recv_blocks_rejected(self):
        # Two receive block references of one round aliasing the same
        # bytes: the second write clobbers the first.
        nbh = named_stencil("5-point")
        sched = build_for_kind("direct-alltoall", nbh)
        rnd = _first_round(sched)
        first = rnd.recv_blocks.blocks[0]
        rnd.recv_blocks.append(
            BlockRef(first.buffer, first.offset, first.nbytes)
        )
        report = verify_schedule(sched, (4, 4), True)
        assert not report.ok
        assert "V701" in report.codes()


# ----------------------------------------------------------------------
# verify-on-build hook: a defective schedule never enters the cache
# ----------------------------------------------------------------------
class TestVerifyOnBuildHook:
    def test_bad_schedule_rejected_and_not_cached(self):
        cache = schedule_cache.ScheduleCache()
        nbh = named_stencil("5-point")

        def build_bad():
            sched = build_for_kind("trivial-alltoall", nbh)
            _first_round(sched).recv_offset = (2, 2)
            return sched

        def verify(sched):
            certify_schedule(sched, (4, 4), True)

        with pytest.raises(ScheduleValidationError) as ei:
            cache.get_or_build(("bad",), build_bad, verify)
        assert "V101" in {v.code for v in ei.value.violations}
        assert len(cache) == 0

        # the same key can be rebuilt (the failed build left no residue)
        sched, hit, _ = cache.get_or_build(
            ("bad",), lambda: build_for_kind("trivial-alltoall", nbh), verify
        )
        assert not hit
        assert len(cache) == 1
