"""The rank-free lowering and the batched (all-ranks SPMD) backend.

Matrix execution of the plan folds the lockstep backend's per-rank
interpreter loops into one data-parallel numpy program: rank buffers
stacked into ``(p, nbytes)`` matrices, every round a gather /
row-permute / scatter.
These tests pin the lowering itself (vectorized peer resolution, cache
lifetime, mesh-edge masks), the backend's input contract, and the
pool-lifecycle invariant on success and error paths.
"""

import numpy as np
import pytest

from repro.core import plan as plan_mod
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.backend import allocate_buffers, get_backend
from repro.core.backend.lockstep import LockstepBackend
from repro.core.plan import (
    BatchedPlan,
    compile_batched_plan,
    get_or_compile,
    translate_all,
)
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import moore_neighborhood, parameterized_stencil
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import ScheduleError, TruncationError

NBH = moore_neighborhood(2, 1)  # t = 8


def make_sched(nbh, m=6, builder=build_alltoall_schedule):
    sizes = [m] * nbh.t
    return builder(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )


def make_bufs(p, t, m, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {
            "send": rng.integers(0, 256, t * m).astype(np.uint8),
            "recv": np.zeros(t * m, np.uint8),
        }
        for _ in range(p)
    ]


# ----------------------------------------------------------------------
# translate_all: the vectorized peer resolution
# ----------------------------------------------------------------------


class TestTranslateAll:
    @pytest.mark.parametrize(
        "dims,periods",
        [
            ((4, 4), (True, True)),
            ((3, 5), (False, True)),
            ((4, 3), (False, False)),
            ((2, 3, 4), (True, False, True)),
            ((7,), (False,)),
        ],
    )
    def test_matches_scalar_translate(self, dims, periods):
        topo = CartTopology(dims, periods)
        offsets = [
            (0,) * len(dims),
            (1,) + (0,) * (len(dims) - 1),
            tuple(-1 for _ in dims),
            tuple(2 for _ in dims),
        ]
        for off in offsets:
            got = translate_all(topo, off)
            assert got.shape == (topo.size,)
            for r in range(topo.size):
                want = topo.translate(r, off)
                assert got[r] == (-1 if want is None else want)

    def test_full_mesh_edge_round_has_no_peers(self):
        topo = CartTopology((3,), (False,))
        got = translate_all(topo, (5,))
        assert (got == -1).all()


# ----------------------------------------------------------------------
# lowering: structure, cache, masks
# ----------------------------------------------------------------------


class TestBatchedLowering:
    def test_round_structure_matches_schedule(self):
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        sizes = {"send": NBH.t * 6, "recv": NBH.t * 6}
        if sched.temp_nbytes:
            sizes["temp"] = sched.temp_nbytes
        bplan = compile_batched_plan(sched, topo, sizes)
        assert isinstance(bplan, BatchedPlan)
        assert tuple(len(ph) for ph in bplan.phases) == tuple(
            len(ph.rounds) for ph in sched.phases
        )
        # torus: every rank participates in every round, no masks
        for phase in bplan.phases:
            for rnd in phase:
                assert rnd.recv_rows is None
                assert rnd.senders == topo.size

    def test_mesh_rounds_carry_masks(self):
        topo = CartTopology((4, 4), (False, False))
        nbh = parameterized_stencil(2, 2, -1)
        sched = make_sched(nbh, builder=build_alltoall_schedule)
        sizes = plan_mod.effective_sizes(
            sched, make_bufs(1, nbh.t, 6)[0]
        )
        bplan = compile_batched_plan(sched, topo, sizes)
        masked = [
            rnd
            for phase in bplan.phases
            for rnd in phase
            if rnd.recv_rows is not None
        ]
        assert masked, "a non-periodic mesh must mask edge ranks"
        for rnd in masked:
            assert (rnd.sources[rnd.recv_rows] >= 0).all()
            assert rnd.recv_sources.shape == rnd.recv_rows.shape

    def test_cache_hits_like_per_rank_plans(self):
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        bufs = make_bufs(1, NBH.t, 6)[0]
        a, hit_a = get_or_compile(sched, topo, bufs)
        b, hit_b = get_or_compile(sched, topo, bufs)
        assert not hit_a and hit_b
        assert a is b
        assert a.key[0] == "plan"
        # invalidated with the schedule's plan cache
        sched.clear_plans()
        c, hit_c = get_or_compile(sched, topo, bufs)
        assert not hit_c and c is not a

    def test_distinct_topologies_get_distinct_plans(self):
        sched = make_sched(NBH)
        bufs = make_bufs(1, NBH.t, 6)[0]
        a, _ = get_or_compile(sched, CartTopology((4, 4)), bufs)
        b, _ = get_or_compile(sched, CartTopology((2, 8)), bufs)
        assert a is not b

    def test_wire_bytes_sum_per_rank_plans(self):
        """Aggregate wire bytes equal the sum over the rank views, each
        counting only the rounds whose target is on the mesh."""
        topo = CartTopology((3, 4), (False, True))
        sched = make_sched(NBH)
        sizes = plan_mod.effective_sizes(sched, make_bufs(1, NBH.t, 6)[0])
        bplan = compile_batched_plan(sched, topo, sizes)
        per_rank = [
            sum(
                rnd.send_blocks.total_nbytes
                for ph in sched.phases
                for rnd in ph.rounds
                if topo.translate(r, rnd.offset) is not None
            )
            for r in range(topo.size)
        ]
        assert min(per_rank) < max(per_rank)  # edge rows send less
        # read off the peer arrays: no view has to exist for it
        assert per_rank == [
            bplan.rank_wire_bytes(r) for r in range(topo.size)
        ]
        assert not bplan._views
        assert per_rank == [
            bplan.for_rank(r).wire_bytes for r in range(topo.size)
        ]
        assert bplan.wire_bytes == sum(per_rank)


# ----------------------------------------------------------------------
# backend semantics
# ----------------------------------------------------------------------


class TestBatchedBackend:
    def test_matches_definition(self):
        """Byte-correct against the Section 2 definition, not just
        against another backend."""
        nbh = parameterized_stencil(2, 3, -1)
        topo = CartTopology((4, 4))
        m = 4
        bufs = [
            {
                "send": np.array(
                    [(r * 11 + i) % 251 for i in range(nbh.t) for _ in range(m)],
                    np.uint8,
                ),
                "recv": np.zeros(nbh.t * m, np.uint8),
            }
            for r in range(topo.size)
        ]
        get_backend("batched").execute_all(topo, make_sched(nbh, m), bufs)
        for r in range(topo.size):
            for i, off in enumerate(nbh):
                src = topo.translate(r, tuple(-o for o in off))
                assert (
                    bufs[r]["recv"][i * m : (i + 1) * m]
                    == (src * 11 + i) % 251
                ).all()

    def test_large_p(self):
        """The point of the backend: p = 1000 in one numpy program."""
        nbh = parameterized_stencil(3, 3, -1)
        topo = CartTopology((10, 10, 10))
        m = 2
        bufs = make_bufs(topo.size, nbh.t, m, seed=5)
        ref = [dict((k, v.copy()) for k, v in b.items()) for b in bufs]
        get_backend("batched").execute_all(topo, make_sched(nbh, m), bufs)
        LockstepBackend().execute_all(topo, make_sched(nbh, m), ref)
        checks = np.random.default_rng(0).integers(0, topo.size, 25)
        for r in checks:
            assert np.array_equal(bufs[r]["recv"], ref[r]["recv"])

    def test_allgather_parity(self):
        topo = CartTopology((4, 4))
        m = 5
        sched = build_allgather_schedule(
            NBH,
            uniform_block_layout([m], "send")[0],
            uniform_block_layout([m] * NBH.t, "recv"),
        )
        a = [
            {"send": np.full(m, r, np.uint8), "recv": np.zeros(NBH.t * m, np.uint8)}
            for r in range(topo.size)
        ]
        b = [dict((k, v.copy()) for k, v in d.items()) for d in a]
        get_backend("batched").execute_all(topo, sched, a)
        LockstepBackend().execute_all(topo, sched, b)
        for x, y in zip(a, b):
            assert np.array_equal(x["recv"], y["recv"])

    def test_wrong_buffer_count(self):
        topo = CartTopology((4, 4))
        with pytest.raises(ScheduleError, match="one buffer set per rank"):
            get_backend("batched").execute_all(
                topo, make_sched(NBH), make_bufs(3, NBH.t, 6)
            )

    def test_non_uniform_layouts_run_on_the_walk(self):
        """What the matrix forms cannot stack the backend walks (it used
        to refuse): same bytes as the walk called directly."""
        topo = CartTopology((2, 2))
        bufs = make_bufs(4, NBH.t, 6)
        bufs[2]["recv"] = np.zeros(NBH.t * 6 + 8, np.uint8)
        ref = [{k: v.copy() for k, v in d.items()} for d in bufs]
        walked = plan_mod.plan_cache_info().walked
        get_backend("batched").execute_all(topo, make_sched(NBH), bufs)
        assert plan_mod.plan_cache_info().walked == walked + 1
        LockstepBackend().execute_all(topo, make_sched(NBH), ref)
        for got, want in zip(bufs, ref):
            assert got["recv"].any()
            assert np.array_equal(got["recv"], want["recv"])

    def test_explicit_temp_buffers_are_used_and_written_back(self):
        """The in-place form has no scratch of its own: a caller's
        ``temp`` is the one the rounds forward through, where it lies."""
        topo = CartTopology((3, 3))
        m = 4096
        sched = make_sched(NBH, m)
        assert sched.temp_nbytes > 0
        bufs = make_bufs(topo.size, NBH.t, m, seed=9)
        for d in bufs:
            d["temp"] = np.zeros(sched.temp_nbytes, np.uint8)
        plan, _ = get_or_compile(sched, topo, bufs[0])
        assert plan.delivery == "in-place"
        acquires = plan_mod.GLOBAL_POOL.stats().acquires
        get_backend("batched").execute_all(topo, sched, bufs)
        assert plan_mod.GLOBAL_POOL.stats().acquires == acquires
        assert any(d["temp"].any() for d in bufs)

    def test_staged_form_leaves_a_callers_temp_alone(self):
        """Scratch is not data: the staged form runs on a ``temp``
        matrix of its own, so a bound ``temp`` is neither read nor
        overwritten (it used to be copied in and out on every call)."""
        topo = CartTopology((3, 3))
        sched = make_sched(NBH)
        assert sched.temp_nbytes > 0
        bufs = make_bufs(topo.size, NBH.t, 6, seed=9)
        ref = [{k: v.copy() for k, v in d.items()} for d in bufs]
        for d in bufs:
            d["temp"] = np.full(sched.temp_nbytes, 0xA5, np.uint8)
        plan, _ = get_or_compile(sched, topo, bufs[0])
        assert plan.delivery == "staged"
        get_backend("batched").execute_all(topo, sched, bufs)
        LockstepBackend().execute_all(topo, sched, ref)
        for got, want in zip(bufs, ref):
            assert np.array_equal(got["recv"], want["recv"])
            assert (got["temp"] == 0xA5).all()

    def test_validate_flag(self):
        topo = CartTopology((2, 2))
        sched = make_sched(NBH)
        bufs = make_bufs(4, NBH.t, 6)
        for d in bufs:
            d["recv"] = np.zeros(4, np.uint8)  # far too small, uniformly
        with pytest.raises(TruncationError):
            sched.validate(allocate_buffers(sched, bufs[0]))


# ----------------------------------------------------------------------
# pool lifecycle: success and error paths balance exactly
# ----------------------------------------------------------------------


def _outstanding():
    return plan_mod.GLOBAL_POOL.stats().outstanding_bytes


class TestPoolBalance:
    def test_batched_run_balances(self):
        before = _outstanding()
        topo = CartTopology((4, 4))
        bufs = make_bufs(topo.size, NBH.t, 6)
        get_backend("batched").execute_all(topo, make_sched(NBH), bufs)
        assert _outstanding() == before

    def test_batched_error_path_balances(self, monkeypatch):
        """A failure in a run of the planes still returns the block and
        the phase snapshot to the pool."""
        from repro.core.plan import BatchedPlan

        before = _outstanding()
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        bufs = make_bufs(topo.size, NBH.t, 6)
        execute_planes = BatchedPlan.execute_planes

        def boom(plan, block):
            execute_planes(plan, block)
            raise RuntimeError("injected failure after the planes")

        monkeypatch.setattr(BatchedPlan, "staging", "planes: forced")
        monkeypatch.setattr(BatchedPlan, "execute_planes", boom)
        with pytest.raises(RuntimeError, match="after the planes"):
            get_backend("batched").execute_all(topo, sched, bufs)
        assert _outstanding() == before

    def test_fused_error_path_balances(self, monkeypatch):
        """A failure in a run of the fused maps still returns the block
        to the pool."""
        from repro.core.plan import BatchedPlan

        before = _outstanding()
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        bufs = make_bufs(topo.size, NBH.t, 6)
        execute_staged = BatchedPlan.execute_staged

        def boom(plan, block, matrices):
            assert plan.fused is not None
            execute_staged(plan, block, matrices)
            raise RuntimeError("injected failure after the maps")

        monkeypatch.setattr(BatchedPlan, "execute_staged", boom)
        with pytest.raises(RuntimeError, match="after the maps"):
            get_backend("batched").execute_all(topo, sched, bufs)
        assert _outstanding() == before

    def test_lockstep_forced_unpack_failure_balances(self, monkeypatch):
        """The wire payload is released even when the receiver's scatter
        raises, and payloads still in flight are drained on abort."""
        from repro.core.plan import CompiledBlockSet

        before = _outstanding()
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        bufs = make_bufs(topo.size, NBH.t, 6)
        calls = {"n": 0}
        orig = CompiledBlockSet.unpack_from

        def flaky(self, buffers, data):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("injected unpack failure")
            return orig(self, buffers, data)

        monkeypatch.setattr(CompiledBlockSet, "unpack_from", flaky)
        with pytest.raises(RuntimeError, match="injected unpack"):
            LockstepBackend().execute_all(topo, sched, bufs)
        assert _outstanding() == before

    def test_lockstep_interpreted_failure_balances(self, monkeypatch):
        """Same drain discipline when the failure comes a phase later
        (every rank holds its pooled temp and later phases' payloads are
        already on the wire); the test id predates the removal of the
        uncompiled path, whose ``BlockSet.unpack_from`` it used to
        patch."""
        from repro.core.plan import CompiledBlockSet

        before = _outstanding()
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        assert sched.temp_nbytes > 0 and len(sched.phases) > 1
        first_phase = topo.size * len(sched.phases[0].rounds)
        bufs = make_bufs(topo.size, NBH.t, 6)
        calls = {"n": 0}
        orig = CompiledBlockSet.unpack_from

        def flaky(self, buffers, data):
            calls["n"] += 1
            if calls["n"] == first_phase + 5:
                raise RuntimeError("injected unpack failure")
            return orig(self, buffers, data)

        monkeypatch.setattr(CompiledBlockSet, "unpack_from", flaky)
        with pytest.raises(RuntimeError, match="injected unpack"):
            LockstepBackend().execute_all(topo, sched, bufs)
        assert _outstanding() == before

    def test_interpreter_abort_is_idempotent(self):
        from repro.core.backend.interpreter import ScheduleInterpreter
        from repro.core.backend.lockstep import (
            LockstepExchange,
            LockstepTransport,
        )

        before = _outstanding()
        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        assert sched.temp_nbytes > 0
        it = ScheduleInterpreter(
            LockstepTransport(LockstepExchange(), 0),
            topo,
            sched,
            make_bufs(1, NBH.t, 6)[0],
            observe=False,
        )
        assert _outstanding() > before  # pooled temp held
        it.abort()
        assert _outstanding() == before
        it.abort()  # second abort must not double-release
        assert _outstanding() == before
        assert plan_mod.GLOBAL_POOL.stats().double_releases == 0

    def test_interpreter_runs_again_on_fresh_pooled_scratch(self):
        """An interpreter runs again once an execution ended (a threaded
        handle's bound execution does): every run takes its scratch from
        the pool and returns it, and a later run is a plan hit."""
        from repro.core.backend.interpreter import ScheduleInterpreter
        from repro.core.backend.lockstep import (
            LockstepExchange,
            LockstepTransport,
            drive_lockstep,
        )

        topo = CartTopology((4, 4))
        sched = make_sched(NBH)
        assert sched.temp_nbytes > 0
        bufs = make_bufs(topo.size, NBH.t, 6)
        expected = [{k: v.copy() for k, v in b.items()} for b in bufs]
        get_backend("batched").execute_all(topo, sched, expected)
        before = _outstanding()
        exchange = LockstepExchange()
        interps = [
            ScheduleInterpreter(
                LockstepTransport(exchange, r), topo, sched, bufs[r], observe=False
            )
            for r in range(topo.size)
        ]
        for _ in range(2):
            for b in bufs:
                b["recv"][:] = 0
            drive_lockstep(interps, exchange)
            assert _outstanding() == before
            for got, want in zip(bufs, expected):
                np.testing.assert_array_equal(got["recv"], want["recv"])
        assert all(it.plan_hit is True for it in interps)

    def test_chaos_sweep_balances(self):
        """Kill/stall fault injection on the threaded engine ends with
        no outstanding pooled scratch (interpreter abort on error)."""
        from repro.mpisim.faults import chaos_sweep

        before = _outstanding()
        chaos_sweep(6, base_seed=13, timeout=30.0)
        assert _outstanding() == before
