"""The instance stage after it was made to walk each kernel once.

* the checks that moved to the shape stage read only what no block size
  can change — two instances of one normal form and topology hand them
  identical inputs — and a full certification still reports them;
* the cross-round sweep is the pairwise intersection it replaced;
* one reading of a plan's ops serves the lane check and the effect
  pass;
* certifying through a store gives the verdict a full verification
  gives, whatever was certified before;
* the store and the CLI say where the verifier's seconds went, per path.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analyze import effects, intervals, schedule_verifier
from repro.analyze.certificates import STAGES, CertificateStore, normal_form
from repro.analyze.intervals import IntervalSet, PlanEffects, shared_bytes
from repro.analyze.report import VerificationReport
from repro.analyze.schedule_verifier import (
    SWEEP_KINDS,
    _lower,
    build_for_kind,
    certify_schedule,
    verify_schedule,
)
from repro.core import plan as plan_mod
from repro.core.stencils import moore_neighborhood, named_stencil
from repro.core.topology import CartTopology

NBH9 = named_stencil("9-point")


def _report(dims, periods):
    return VerificationReport(kind="test", dims=dims, periods=periods)


# ----------------------------------------------------------------------
# the moved checks: size-invariant inputs, still reported in full
# ----------------------------------------------------------------------
def _peer_inputs(plan):
    """Everything the peer comparison (V502) and ``check_combine_rows``
    read, as plain data."""

    def rows(vec):
        return None if vec is None else np.asarray(vec).tolist()

    rounds = [
        (
            rnd.sources.tolist(), rnd.targets.tolist(), rnd.senders,
            rows(rnd.recv_rows), rows(rnd.recv_sources),
            rnd.send is None, rnd.recv is None,
        )
        for phase in plan.phases
        for rnd in phase
    ]
    masks = [
        None
        if program is None
        else [(rows(step[5]), rows(step[6])) for step in program.steps]
        for program in (plan.pre_program, *plan.combine_programs)
    ]
    return rounds, masks


class TestMovedChecksReadOnlyTheShape:
    @pytest.mark.parametrize(
        "dims, periods",
        [((4, 4), (True, True)), ((3, 5), (True, True)), ((2, 4), (False, True))],
    )
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @given(m=st.integers(1, 40), k=st.integers(2, 300))
    def test_two_instances_feed_them_identical_inputs(
        self, kind, dims, periods, m, k
    ):
        if kind in schedule_verifier.REDUCE_TREE_KINDS and not all(periods):
            return  # refused on a mesh, at any size
        nbh = moore_neighborhood(2, 1, include_self=False)
        topo = CartTopology(dims, periods)
        small = build_for_kind(kind, nbh, 8 * m)
        large = build_for_kind(kind, nbh, 8 * m * k)
        assert normal_form(small).digest == normal_form(large).digest
        assert _peer_inputs(_lower(small, topo)) == _peer_inputs(
            _lower(large, topo)
        )

    @pytest.fixture
    def corrupt_lowering(self, monkeypatch):
        """Make the verifier's one lowering hand back a corrupted plan
        (a real one, or one scaled from a plan its class filed)."""
        real = plan_mod.lower

        def install(corrupt):
            def lowering(*args, **kwargs):
                plan = real(*args, **kwargs)
                corrupt(plan)
                return plan

            monkeypatch.setattr(plan_mod, "lower", lowering)

        return install

    def test_full_certification_still_reports_peer_vectors(
        self, corrupt_lowering
    ):
        def duplicate_target(plan):
            rnd = plan.phases[0][0]
            rnd.targets = rnd.targets.copy()
            rnd.targets[0] = rnd.targets[1]

        corrupt_lowering(duplicate_target)
        report = verify_schedule(build_for_kind("alltoall", NBH9, 8), (4, 4))
        assert "V502" in report.codes()

        def miscount(plan):
            plan.phases[0][0].senders -= 1

        corrupt_lowering(miscount)
        report = verify_schedule(build_for_kind("alltoall", NBH9, 8), (4, 4))
        assert report.codes() == {"V502"}

    def test_full_certification_still_reports_row_masks(self, corrupt_lowering):
        def copy_and_fold_rank_zero(plan):
            program = next(c for c in plan.combine_programs if c is not None)
            *step, copy_rows, _comb_rows = program.steps[0]
            program.steps = (
                (*step, copy_rows, np.array([0], dtype=np.int64)),
            ) + program.steps[1:]

        corrupt_lowering(copy_and_fold_rank_zero)
        report = verify_schedule(build_for_kind("reduce", NBH9, 8), (4, 4))
        assert any(
            "both initializes and folds" in v.message
            for v in report.by_code("V806")
        )

    def test_witness_less_paths_run_them_and_inheriting_does_not(
        self, monkeypatch
    ):
        calls = []
        real = effects.check_batched_peers
        monkeypatch.setattr(
            effects, "check_batched_peers",
            lambda plan, report: calls.append(plan) or real(plan, report),
        )
        store = CertificateStore()
        for m in (8, 24):
            certify_schedule(
                build_for_kind("reduce", NBH9, m), (4, 4), inherit=store
            )
        assert len(calls) == 1 and store.info()[:2] == (1, 1)
        verify_schedule(build_for_kind("reduce", NBH9, 24), (4, 4))
        effects.verify_effects(build_for_kind("reduce", NBH9, 24), (4, 4))
        assert len(calls) == 3


# ----------------------------------------------------------------------
# the sweep against the pairwise reference it replaced
# ----------------------------------------------------------------------
def _overlap_by_buffer(a, b):
    """The parent's per-pair test, kept here as the reference."""
    out = []
    for name, ivs in a.items():
        other = b.get(name)
        if other is not None:
            n = ivs.intersection(other).nbytes
            if n:
                out.append((name, n))
    return out


_interval = st.tuples(st.integers(0, 60), st.integers(0, 12)).map(
    lambda pair: (pair[0], pair[0] + pair[1])
)
_effect = st.dictionaries(
    st.sampled_from(["send", "recv", "temp"]),
    st.lists(_interval, max_size=4).map(IntervalSet),
    max_size=3,
)


class TestCrossRoundSweep:
    @given(
        first=st.lists(_effect, max_size=6), second=st.lists(_effect, max_size=6)
    )
    def test_agrees_with_the_pairwise_reference(self, first, second):
        want = {}
        for i, a in enumerate(first):
            for j, b in enumerate(second):
                shared = _overlap_by_buffer(a, b)
                if shared:
                    want[(i, j)] = dict(shared)
        assert shared_bytes(first, second) == want

    def test_a_phase_of_many_clean_rounds_costs_no_pair_tests(self, monkeypatch):
        """26 one-phase rounds (the direct 3-D schedule) used to make
        351 + 676 pairwise intersections; the sweep makes none."""
        nbh = moore_neighborhood(3, 1, include_self=False)
        sched = build_for_kind("direct-alltoall", nbh, 8).prepare()
        plan = _lower(sched, CartTopology((3, 3, 3)))
        assert [len(phase) for phase in plan.phases] == [26]
        # the V709 ledger still intersects (once per round, not per pair)
        calls = []
        real = IntervalSet.intersection
        monkeypatch.setattr(
            IntervalSet, "intersection",
            lambda self, other: calls.append(1) or real(self, other),
        )
        report = _report((3, 3, 3), (True,) * 3)
        effects.check_batched_effects(plan, report, periodic=True)
        assert report.ok and len(calls) < 2 * 26 + 10

    def test_same_codes_and_messages_as_the_pairwise_form(self):
        """The two race mutants, message for message."""
        from tests.analyze.mutants import _replace_round

        sched = build_for_kind("alltoall", NBH9, 4).prepare()
        plan = _lower(sched, CartTopology((4, 4)))
        pi, ris = next(
            (pi, [ri for ri, r in enumerate(phase) if r.recv is not None])
            for pi, phase in enumerate(plan.phases)
            if sum(r.recv is not None for r in phase) >= 2
        )
        aliased = _replace_round(
            plan, pi, ris[1], recv=plan.phases[pi][ris[0]].recv
        )
        report = _report((4, 4), (True, True))
        effects.check_batched_effects(aliased, report, periodic=True)
        kernel = intervals.kernel_effects(plan.phases[pi][ris[0]].recv)
        assert [v.message for v in report.by_code("V702")] == [
            f"rounds {ris[0]} and {ris[1]} write {ivs.nbytes} shared "
            f"byte(s) of {name!r} on shared rows"
            for name, ivs in kernel.buffers.items()
        ]


# ----------------------------------------------------------------------
# one reading of the plan's ops
# ----------------------------------------------------------------------
class TestOneReading:
    @pytest.mark.parametrize("m", [8, 4096])
    def test_each_kernel_is_summarized_once_per_certification(
        self, monkeypatch, m
    ):
        sched = build_for_kind("alltoall", NBH9, m)
        kernels = sum(
            (rnd.send is not None) + (rnd.recv is not None)
            for phase in _lower(sched, CartTopology((4, 4))).phases
            for rnd in phase
        )
        calls = []
        real = intervals.kernel_effects
        monkeypatch.setattr(
            intervals, "kernel_effects",
            lambda kernel: calls.append(kernel) or real(kernel),
        )
        store = CertificateStore()
        certify_schedule(sched, (4, 4), inherit=store)
        assert len(calls) == kernels
        assert len({id(k) for k in calls}) == kernels

    def test_reading_is_reused_only_for_its_plan(self):
        plan = _lower(build_for_kind("alltoall", NBH9, 4096), CartTopology((4, 4)))
        assert plan.delivery == "in-place"
        reading = PlanEffects(plan)
        assert intervals.read_plan(plan, reading) is reading
        other = copy.copy(plan)
        assert intervals.read_plan(other, reading).plan is other

    def test_kernel_check_compares_on_one_sentinel_draw(self, monkeypatch):
        draws = []
        real = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng",
            lambda *args: draws.append(args) or real(*args),
        )
        sched = build_for_kind("alltoall", NBH9, 24)
        topo, report = schedule_verifier._open_report(sched, (4, 4), True)
        plan = _lower(sched, topo)
        assert schedule_verifier._check_plan_kernels(sched, report, plan) is plan
        assert report.ok and len(draws) == 1


# ----------------------------------------------------------------------
# inheriting changes what runs, never the verdict
# ----------------------------------------------------------------------
class TestInheritedVerdict:
    @given(
        kind=st.sampled_from(SWEEP_KINDS),
        shape=st.sampled_from(
            [((4, 4), True), ((3, 4), (False, True)), ((3, 3, 3), True)]
        ),
        first=st.integers(1, 40),
        second=st.integers(1, 40),
    )
    def test_second_size_gets_the_verdict_of_a_full_verification(
        self, kind, shape, first, second
    ):
        dims, periods = shape
        nbh = moore_neighborhood(len(dims), 1, include_self=False)
        store = CertificateStore()
        witness = build_for_kind(kind, nbh, 4 * first)
        schedule_verifier._run_stages(
            witness, *schedule_verifier._open_report(witness, dims, periods), store
        )
        instance = build_for_kind(kind, nbh, 4 * second)
        topo, got = schedule_verifier._open_report(instance, dims, periods)
        schedule_verifier._run_stages(instance, topo, got, store)
        want = verify_schedule(build_for_kind(kind, nbh, 4 * second), dims, periods)
        assert (got.ok, got.codes()) == (want.ok, want.codes())


# ----------------------------------------------------------------------
# where the seconds went
# ----------------------------------------------------------------------
class TestStageSeconds:
    def test_store_splits_both_paths_by_stage(self):
        """Full, shape-inherited (m = 20 after 12 on (3,3,3): one shape,
        another plan) and plan-inherited (m = 16 after 8)."""
        store = CertificateStore()
        nbh = moore_neighborhood(3, 1, include_self=False)
        for m in (8, 16, 12, 20):
            report = certify_schedule(
                build_for_kind("allgather", nbh, m), (3, 3, 3), inherit=store
            )
            assert set(report.stage_seconds) == set(STAGES)
        info = store.info()
        assert (info.full, info.inherited.shape, info.inherited.plan) == (2, 1, 1)
        inherited = info.inherited
        for path in (info.full_seconds, inherited.shape_seconds):
            parts = path.by_stage()
            assert list(parts) == list(STAGES)
            assert all(seconds > 0 for seconds in parts.values())
            assert path == pytest.approx(sum(parts.values()))
            assert path.lowering == parts["lowering"]
        # a plan digest on file: one lowering and the look-up, no stage
        plan = inherited.plan_seconds
        assert plan.lowering > 0 and plan.shape > 0
        assert plan.kernels == plan.effects == 0
        assert info.inherited_seconds == pytest.approx(
            inherited.shape_seconds + plan
        )
        # the shape stage is what inheriting saves
        assert info.full_seconds.shape > 5 * info.inherited_seconds.shape
        store.clear()
        assert store.info().full_seconds.by_stage() == dict.fromkeys(STAGES, 0.0)

    def test_cli_prints_the_split(self, capsys, monkeypatch):
        from repro.analyze import __main__ as cli

        rows = []

        def sweep(*, block_bytes=4, inherit=None):
            schedule = build_for_kind("alltoall", NBH9, block_bytes)
            report = certify_schedule(schedule, (4, 4), inherit=inherit)
            rows.append(schedule_verifier.SweepRow(
                "9-point", "alltoall", (4, 4), report, 0.5, 2.0
            ))
            return rows[-1:]

        monkeypatch.setattr(cli, "sweep_stencils", sweep)
        assert cli.main(["verify", "--all-stencils"]) == 0
        table = capsys.readouterr().out.splitlines()
        header = next(line for line in table if line.startswith("kind"))
        assert header.split()[-4:] == list(STAGES)
        line = next(line for line in table if line.startswith("alltoall "))
        split = [float(x) for x in line.split()[-4:]]
        assert split == [
            pytest.approx(rows[0].report.stage_seconds[s], abs=1e-3)
            for s in STAGES
        ]
        # the 12-byte pass inherits the 4-byte one's plan
        header = next(line for line in table if line.startswith("path"))
        assert header.split()[-4:] == list(STAGES)
        counts = {
            line.split()[0]: int(line.split()[1])
            for line in table
            if line.split()[0] in ("full", "shape", "plan")
        }
        assert counts == {"full": 1, "shape": 0, "plan": 1}
