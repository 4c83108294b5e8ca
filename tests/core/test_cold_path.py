"""A cold first collective does each thing once.

Under ``verify_on_build`` (on for the suite): the plan the verifier
certified is the plan that runs, lowered and booked once; an
invalidation during certification leaves no adopted plan behind; a
caller whose buffers are not the synthesized sizes compiles at its own;
and a regular collective names its layout without laying out a block.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analyze import schedule_verifier
from repro.analyze.certificates import GLOBAL_STORE
from repro.core import cartcomm as cartcomm_mod
from repro.core import plan as plan_mod
from repro.core import schedule as schedule_mod
from repro.core import schedule_cache
from repro.core.api import run_cartesian
from repro.core.cartcomm import CartComm
from repro.core.schedule import uniform_block_layout, uniform_layout_signature
from repro.core.schedule_cache import ScheduleCache, layout_signature
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet

NBH = moore_neighborhood(2, 1, include_self=False)
DIMS = (4, 4)


@pytest.fixture(autouse=True)
def cold():
    schedule_cache.cache_clear()
    plan_mod.plan_cache_reset()
    GLOBAL_STORE.clear()
    yield
    schedule_cache.cache_clear()
    GLOBAL_STORE.clear()


@pytest.fixture
def spy(monkeypatch):
    """Count the lowerings and keep the reports of the build hook."""
    seen = {"lowerings": [], "reports": []}
    lower = plan_mod.compile_batched_plan
    certify = schedule_verifier.certify_schedule

    def lowering(*args, **kwargs):
        plan = lower(*args, **kwargs)
        seen["lowerings"].append(plan)
        return plan

    def certifying(*args, **kwargs):
        report = certify(*args, **kwargs)
        seen["reports"].append(report)
        return report

    monkeypatch.setattr(plan_mod, "compile_batched_plan", lowering)
    monkeypatch.setattr(schedule_verifier, "certify_schedule", certifying)
    return seen


def _alltoall(m):
    def fn(cart):
        t = cart.neighbor_count()
        send = np.repeat(
            (cart.rank * t + np.arange(t)).astype(np.uint8), m
        )
        recv = np.zeros_like(send)
        cart.alltoall(send, recv, algorithm="combining")
        return recv, cart.record.schedules

    return fn


class TestTheCertifiedPlanIsThePlanThatRuns:
    @pytest.mark.parametrize("backend", ["batched", "threaded"])
    def test_one_lowering_booked_once(self, spy, backend):
        out = run_cartesian(
            DIMS, NBH, _alltoall(24), info={"backend": backend}, timeout=60
        )
        assert len(out) == 16
        (report,) = spy["reports"]
        (lowered,) = spy["lowerings"]  # compile_batched_plan ran once
        assert report.ok and report.plan is lowered
        (schedule,) = out[0][1].values()
        assert list(schedule._plans.values()) == [report.plan]
        assert schedule._plans[report.plan.key] is report.plan
        info = CartComm.plan_cache_info()
        assert info.misses == 1 and info.compile_seconds > 0
        # every run-time lookup found the certified object
        assert info.hits == (1 if backend == "batched" else 16)
        topo = CartTopology(DIMS)
        for rank, (recv, _) in enumerate(out):
            for i, off in enumerate(NBH):
                src = topo.translate(rank, tuple(-o for o in off))
                assert (recv[24 * i : 24 * (i + 1)] == src * NBH.t + i).all()

    def test_inspecting_a_schedule_adopts_nothing(self, spy):
        """Only the build hook files a plan: ``verify_schedule`` and a
        bare ``certify_schedule`` carry theirs on the report."""
        sched = schedule_verifier.build_for_kind("alltoall", NBH, 24)
        for judge in (
            schedule_verifier.verify_schedule,
            schedule_verifier.certify_schedule,
        ):
            report = judge(sched, DIMS, True)
            assert report.plan is spy["lowerings"][-1]
            assert sched._plans == {}
        assert CartComm.plan_cache_info().misses == 0

    def test_a_rejected_schedule_adopts_nothing(self):
        sched = schedule_verifier.build_for_kind("alltoall", NBH, 24)
        sched.phases[0].rounds[0].offset = (0, 3)  # nobody receives this
        with pytest.raises(schedule_verifier.ScheduleError):
            plan_mod.adopt_certified(
                sched,
                lambda: schedule_verifier.certify_schedule(
                    sched, DIMS, True
                ).plan,
            )
        assert sched._plans == {}
        assert CartComm.plan_cache_info().misses == 0

    def test_padded_alltoallw_compiles_at_its_own_sizes(self, spy):
        """Rows of 8 bytes at a pitch of 12 in arrays with a padded
        tail: the verifier synthesizes the smallest buffers the blocks
        fit in, the caller's are larger, so the run-time key differs —
        the adopted plan is never found under it."""
        t, row, pitch = NBH.t, 8, 12
        sendtypes = [BlockSet([BlockRef("a", i * pitch, row)]) for i in range(t)]
        recvtypes = [BlockSet([BlockRef("b", i * pitch, row)]) for i in range(t)]
        nbytes = t * pitch + 20

        def fn(cart):
            a = np.zeros(nbytes, np.uint8)
            for i in range(t):
                a[i * pitch : i * pitch + row] = (cart.rank * t + i) % 251
            b = np.full(nbytes, 255, np.uint8)
            cart.alltoallw({"a": a, "b": b}, sendtypes, recvtypes, "combining")
            return b, cart.record.schedules

        out = run_cartesian(DIMS, NBH, fn, info={"backend": "batched"}, timeout=60)
        (report,) = spy["reports"]
        certified, executed = spy["lowerings"]
        assert report.plan is certified
        assert certified.sizes["a"] == (t - 1) * pitch + row
        assert executed.sizes["a"] == nbytes and executed.key != certified.key
        (schedule,) = out[0][1].values()
        assert set(schedule._plans.values()) == {certified, executed}
        info = CartComm.plan_cache_info()
        assert (info.misses, info.hits) == (2, 0)
        topo = CartTopology(DIMS)
        for rank, (b, _) in enumerate(out):
            want = np.full(nbytes, 255, np.uint8)
            for i, off in enumerate(NBH):
                src = topo.translate(rank, tuple(-o for o in off))
                want[i * pitch : i * pitch + row] = (src * t + i) % 251
            assert (b == want).all()


class TestInvalidationDuringCertification:
    def _hook(self, sched, during):
        def certify():
            report = schedule_verifier.certify_schedule(sched, DIMS, True)
            during()
            return report.plan

        return lambda built: plan_mod.adopt_certified(built, certify)

    def test_moved_shard_generation_keeps_no_adopted_plan(self):
        cache = ScheduleCache(maxsize=8)
        sched = schedule_verifier.build_for_kind("alltoall", NBH, 24)
        adopted = []

        def during():
            cache.clear()  # bumps every shard's generation

        def verify(built):
            self._hook(built, during)(built)
            adopted.extend(built._plans.values())

        got, hit, _ = cache.get_or_build(("k",), lambda: sched, verify)
        assert got is sched and not hit
        (plan,) = adopted  # it was filed — and dropped as stale
        assert sched._plans == {} and len(cache) == 0
        assert plan not in plan_mod._CACHED
        assert CartComm.plan_cache_info().in_place_plans == 0

    def test_plans_invalidated_during_certification_are_not_refiled(self):
        sched = schedule_verifier.build_for_kind("alltoall", NBH, 24)
        self._hook(sched, sched.clear_plans)(sched)
        assert sched._plans == {} and len(plan_mod._CACHED) == 0
        # the lowering happened and is booked, adopted or not
        assert CartComm.plan_cache_info().misses == 1


class TestRegularLayoutIsNamedArithmetically:
    @pytest.mark.parametrize("t", [1, 8, 26])
    @pytest.mark.parametrize("m", [0, 1, 8, 1272])
    def test_signature_equals_the_laid_out_one(self, t, m):
        for buffer in ("send", "recv"):
            assert uniform_layout_signature(m, t, buffer) == layout_signature(
                uniform_block_layout([m] * t, buffer)
            )

    def test_only_the_builder_lays_out_blocks(self, monkeypatch):
        laid_out = []
        real = schedule_mod.uniform_block_layout

        def counting(sizes, buffer):
            laid_out.append((threading.current_thread().name, buffer))
            return real(sizes, buffer)

        monkeypatch.setattr(cartcomm_mod, "uniform_block_layout", counting)
        run_cartesian(
            DIMS, NBH, _alltoall(16), info={"backend": "batched"}, timeout=60
        )
        # one rank built: one send layout, one recv layout
        assert sorted(buffer for _, buffer in laid_out) == ["recv", "send"]
        assert len({thread for thread, _ in laid_out}) == 1

    def test_v_call_with_the_same_layout_shares_the_global_entry(self):
        m = 16

        def fn(cart):
            t = cart.neighbor_count()
            send = np.zeros(t * m, np.uint8)
            recv = np.zeros(t * m, np.uint8)
            cart.alltoall(send, recv, algorithm="combining")
            cart.alltoallv(
                send, [m] * t, recv, [m] * t, algorithm="combining"
            )
            regular, irregular = cart.record.schedules.values()
            return regular is irregular

        assert all(run_cartesian(DIMS, NBH, fn, timeout=60))
        assert schedule_cache.cache_info().builds == 1
