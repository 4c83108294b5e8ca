"""Reduce-schedule verification (V801-V806).

The reverse-tree reduction is the allgather dual; its verifier gets the
same positive/negative treatment as the alltoall/allgather one: every
built schedule certifies clean, and every corruption family trips its
code.
"""

import numpy as np
import pytest

from repro.analyze import verify_reduce_schedule, verify_schedule
from repro.analyze.schedule_verifier import REDUCE_KINDS
from repro.core.builders import SCHEDULE_BUILDERS
from repro.core.reduce_schedule import OPS
from repro.core.stencils import named_stencil


def build(name="9-point", *, op="sum", kind="reduce", m=8):
    return SCHEDULE_BUILDERS[kind](
        named_stencil(name), m_bytes=m, dtype="int64", op=op
    )


class TestCleanSchedules:
    @pytest.mark.parametrize(
        "name,dims",
        [
            ("5-point", (4, 4)),
            ("9-point", (4, 4)),
            ("7-point", (3, 3, 3)),
            ("27-point", (3, 3, 3)),
        ],
    )
    def test_built_schedules_certify(self, name, dims):
        report = verify_reduce_schedule(build(name), dims, True)
        assert report.ok, report.summary()
        assert "reduce-content" in report.checks_run

    @pytest.mark.parametrize("kind", sorted(REDUCE_KINDS))
    def test_every_kind_certifies(self, kind):
        report = verify_reduce_schedule(build(kind=kind), (4, 4), True)
        assert report.ok, (kind, report.summary())

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_every_named_operator_passes(self, op):
        report = verify_reduce_schedule(build(op=op), (4, 4), True)
        assert report.ok, (op, report.summary())

    def test_trivial_kinds_verify_on_meshes(self):
        report = verify_reduce_schedule(
            build(kind="trivial-reduce"), (4, 4), (False, False)
        )
        assert report.ok, report.summary()

    def test_reduce_checks_run_inside_generic_verify(self):
        report = verify_schedule(build(), (4, 4), True)
        assert report.ok, report.summary()
        assert "reduce-structure" in report.checks_run
        assert "reduce-dataflow" in report.checks_run


class TestNegativeCases:
    def test_dropped_round_is_v801(self):
        sched = build()
        sched.phases[-1].rounds.pop()
        assert "V801" in verify_reduce_schedule(sched, (4, 4)).codes()

    def test_zero_offset_round_is_v802(self):
        sched = build()
        sched.phases[0].rounds[0].offset = (0, 0)
        assert "V802" in verify_reduce_schedule(sched, (4, 4)).codes()

    def test_off_dimension_offset_is_v802(self):
        sched = build()
        rnd = sched.phases[0].rounds[0]
        rnd.offset = tuple(reversed(rnd.offset))
        report = verify_reduce_schedule(sched, (4, 4))
        assert report.codes() & {"V802", "V803"}

    def test_combine_gate_out_of_range_is_v802(self):
        sched = build()
        sched.phases[0].combine_steps[0].when_round = 99
        assert "V802" in verify_reduce_schedule(sched, (4, 4)).codes()

    def test_combine_dst_aliases_staging_is_v802(self):
        # fold a staging slot into itself: the operator application
        # order would become observable
        sched = build()
        step = sched.phases[0].combine_steps[0]
        step.dst = step.src
        assert "V802" in verify_reduce_schedule(sched, (4, 4)).codes()

    def test_rerouted_combine_dst_is_v803(self):
        sched = build()
        steps = sched.phases[0].combine_steps
        dsts = sorted({s.dst for s in steps}, key=lambda r: r.offset)
        assert len(dsts) >= 2
        wrong = dsts[1] if steps[0].dst == dsts[0] else dsts[0]
        steps[0].dst = wrong
        assert "V803" in verify_reduce_schedule(sched, (4, 4)).codes()

    def test_dropped_pre_step_is_v803(self):
        # an accumulator nothing seeds forwards scratch bytes — the
        # reduction analogue of V405/V709
        sched = build()
        del sched.pre_steps[0]
        assert "V803" in verify_reduce_schedule(sched, (4, 4)).codes()

    def test_non_commutative_named_operator_is_v804(self):
        OPS["bad-sub"] = lambda a, b: a - b
        try:
            sched = build(op="bad-sub")
            report = verify_reduce_schedule(
                sched, (4, 4), probe_named_ops=False
            )
            assert "V804" in report.codes()
            assert "reduce-content" not in report.checks_run
        finally:
            del OPS["bad-sub"]

    def test_non_associative_named_operator_is_v804(self):
        OPS["bad-avg"] = lambda a, b: (a + b) // 2
        try:
            sched = build(op="bad-avg")
            report = verify_reduce_schedule(
                sched, (4, 4), probe_named_ops=False
            )
            assert "V804" in report.codes()
        finally:
            del OPS["bad-avg"]

    def test_non_periodic_torus_is_v802(self):
        report = verify_reduce_schedule(build(), (4, 4), (True, False))
        assert "V802" in report.codes()

    def test_non_reduction_schedule_is_v802(self):
        from repro.analyze.schedule_verifier import build_for_kind

        sched = build_for_kind("alltoall", named_stencil("9-point"))
        assert "V802" in verify_reduce_schedule(sched, (4, 4)).codes()


class TestOperatorProbePolicy:
    def test_full_table_probe_passes(self):
        """`probe_named_ops` pins the whole operator table, so a future
        bad entry cannot hide behind a good default."""
        report = verify_reduce_schedule(
            build(), (4, 4), probe_named_ops=True
        )
        assert report.ok, report.summary()
        assert "reduce-operator-table" in report.checks_run

    def test_custom_operators_are_trusted_like_mpi_op(self):
        """Custom callables follow the MPI_Op contract: the user asserts
        associativity/commutativity, so the probe and the content
        simulation are skipped, but structure and dataflow still run."""
        sched = build(op=lambda a, b: np.maximum(a, b) - 1)
        report = verify_reduce_schedule(sched, (4, 4))
        assert report.ok, report.summary()
        assert "reduce-structure" in report.checks_run
        assert "reduce-content" not in report.checks_run


class TestSentinelExecution:
    """The one execution of a certification is judged twice: matrix form
    vs lockstep over the rank views (V506), and lockstep vs the
    definition (V805).  Each corruption is visible to one judge only."""

    def run(self, kind, *, memoize_rank0):
        import copy

        from repro.analyze.report import VerificationReport
        from repro.analyze.schedule_verifier import _check_execution, _lower
        from repro.core.topology import CartTopology

        sched, topo = build(kind=kind), CartTopology((4, 4))
        report = VerificationReport(
            kind=kind, dims=topo.dims, periods=topo.periods
        )
        plan = _lower(sched, topo)
        if memoize_rank0:
            plan.for_rank(0)
        # drop the last fold of the last combining phase
        last = max(
            i for i, c in enumerate(plan.combine_programs) if c is not None
        )
        folds = copy.copy(plan.combine_programs[last])
        folds.steps, folds._rows = folds.steps[:-1], {}
        plan.combine_programs = (
            plan.combine_programs[:last]
            + (folds,)
            + plan.combine_programs[last + 1 :]
        )
        _check_execution(sched, topo, plan, report, definition=True)
        return report.codes()

    @pytest.mark.parametrize("kind", ["reduce", "reduce-scatter", "allreduce"])
    def test_lost_fold_is_v805_only(self, kind):
        # both executions read the same corrupted steps: they agree with
        # each other and disagree with the definition
        assert self.run(kind, memoize_rank0=False) == {"V805"}

    def test_stale_rank_view_is_v506(self):
        # rank 0's rows were read before the steps changed: it alone
        # still computes the definition, and no longer matches its row
        assert "V506" in self.run("reduce", memoize_rank0=True)
