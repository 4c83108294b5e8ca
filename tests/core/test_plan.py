"""Plan-compiler and buffer-pool suite.

Lowering a schedule to its one :class:`~repro.core.plan.BatchedPlan`
(and reading per-rank :class:`~repro.core.plan.RankPlan` views off it)
must be invisible except for speed: the compiled gather/scatter kernels,
the fused local-copy program and the pooled scratch have to produce the
bytes the collective's definition demands, on every backend.  This
suite checks that over the full algorithm × operation × layout matrix,
drives a hypothesis property over random topologies, and unit-tests the
pool, the kernels, the row views, the cache lifetime coupling and the
``OpStats`` counters.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.api import run_cartesian
from repro.core.backend import get_backend
from repro.core.opstats import OpStats
from repro.core.plan import (
    BufferPool,
    compile_blockset,
    compile_copies,
    compile_plan,
    get_or_compile,
)
from repro.core.schedule import (
    LocalCombine,
    LocalCopy,
    Schedule,
    uniform_block_layout,
)
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet, byte_view
from repro.mpisim.exceptions import (
    ScheduleError,
    TruncationError,
    UnknownBufferError,
)
from tests.core.test_backends import (
    NBH,
    NBH_SELF,
    _make_bufs,
    _make_case,
    assert_definition_on as assert_plan_parity,
    executor,
)

# ----------------------------------------------------------------------
# the lowered plan vs the definition oracle over the full matrix (slots
# whose source falls off a mesh edge are unspecified and not compared:
# combining rounds stage scratch bytes through them)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["regular", "v", "w"])
@pytest.mark.parametrize("algorithm", ["trivial", "direct", "combining"])
@pytest.mark.parametrize("op", ["alltoall", "allgather"])
class TestPlanParityMatrix:
    def test_lockstep(self, op, algorithm, variant):
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        assert_plan_parity("lockstep", topo, sched, ssize, rsize)

    def test_threaded(self, op, algorithm, variant):
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        assert_plan_parity("threaded", topo, sched, ssize, rsize)

    def test_shm(self, op, algorithm, variant):
        """``shm`` is an alias of ``batched``: the lowered plan run
        through the alias name."""
        topo = CartTopology((3, 3))
        sched, ssize, rsize = _make_case(op, algorithm, variant)
        assert_plan_parity("shm", topo, sched, ssize, rsize)


def test_plan_parity_self_offset_local_copies():
    """The zero offset exercises the fused local-copy program."""
    topo = CartTopology((3, 3))
    sched, ssize, rsize = _make_case(
        "alltoall", "trivial", "regular", nbh=NBH_SELF
    )
    assert_plan_parity("lockstep", topo, sched, ssize, rsize)


def test_plan_parity_nonperiodic_mesh():
    """Mesh boundaries: a rank view carries no kernel for the half of a
    round whose peer is missing; every defined slot is still right."""
    topo = CartTopology((3, 3), (False, False))
    sched, ssize, rsize = _make_case("alltoall", "combining", "w")
    assert_plan_parity("lockstep", topo, sched, ssize, rsize)


@given(
    dims=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    m=st.integers(1, 16),
    algorithm=st.sampled_from(["trivial", "direct", "combining"]),
    periodic=st.booleans(),
    data=st.data(),
)
@settings(deadline=None, max_examples=20)
def test_plan_parity_property(dims, m, algorithm, periodic, data):
    """Lowered execution matches the definition byte-for-byte on random
    tori/meshes, neighborhoods and block sizes."""
    d = len(dims)
    offsets = data.draw(
        st.lists(
            st.tuples(*[st.integers(-1, 1) for _ in range(d)]).filter(any),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    from repro.core.neighborhood import Neighborhood

    nbh = Neighborhood(offsets)
    topo = CartTopology(dims, (periodic,) * d)
    sched, ssize, rsize = _make_case(
        "alltoall", algorithm, "regular", nbh=nbh, m=m
    )
    assert_plan_parity("lockstep", topo, sched, ssize, rsize)


# ----------------------------------------------------------------------
# compiled kernels
# ----------------------------------------------------------------------


class TestCompiledBlockSet:
    SIZES = {"b": 4096, "recv": 4096}

    def _bufs(self):
        rng = np.random.default_rng(5)
        return {
            name: rng.integers(0, 256, n).astype(np.uint8)
            for name, n in self.SIZES.items()
        }

    def test_contiguous_degrades_to_single_slice(self):
        bs = BlockSet([BlockRef("b", i * 64, 64) for i in range(8)])
        kern = compile_blockset(bs.coalesced_runs(), self.SIZES)
        assert kern.num_kernels == 1 and not kern.uses_indices
        bufs = self._bufs()
        assert kern.pack(bufs).tobytes() == bs.pack(bufs)

    def test_fragmented_uses_index_arrays(self):
        bs = BlockSet([BlockRef("b", i * 16, 4) for i in range(32)])
        kern = compile_blockset(bs.coalesced_runs(), self.SIZES)
        assert kern.uses_indices
        bufs = self._bufs()
        assert kern.pack(bufs).tobytes() == bs.pack(bufs)

    def test_few_large_runs_keep_slice_loop(self):
        runs = [BlockRef("b", 0, 1500), BlockRef("b", 2000, 1500)]
        kern = compile_blockset(runs, {"b": 4096})
        # avg run 1500 B < INDEX_RUN_LIMIT -> still index arrays; push
        # the sizes over the limit and the kernel switches to runs
        big = [BlockRef("b", 0, 5000), BlockRef("b", 6000, 5000)]
        kern_big = compile_blockset(big, {"b": 16384})
        assert not kern_big.uses_indices and kern_big.num_kernels == 2
        bufs = {"b": np.arange(16384, dtype=np.int32).view(np.uint8)[:16384]}
        ref = BlockSet(big).pack(bufs)
        assert kern_big.pack(bufs).tobytes() == ref
        assert kern.total_nbytes == 3000

    def test_unpack_roundtrip(self):
        bs = BlockSet(
            [BlockRef("recv", 7 + i * 31, 11) for i in range(16)]
        )
        kern = compile_blockset(bs.coalesced_runs(), self.SIZES)
        payload = np.random.default_rng(9).integers(
            0, 256, kern.total_nbytes
        ).astype(np.uint8)
        ref, got = self._bufs(), self._bufs()
        bs.unpack(ref, payload.tobytes())
        kern.unpack_from(got, payload)
        assert np.array_equal(ref["recv"], got["recv"])

    def test_unpack_size_mismatch_raises(self):
        kern = compile_blockset([BlockRef("b", 0, 8)], {"b": 64})
        with pytest.raises(TruncationError, match="does not match"):
            kern.unpack_from({"b": np.zeros(64, np.uint8)},
                             np.zeros(4, np.uint8))

    @pytest.mark.parametrize("size", [4, 16])
    def test_pack_into_size_mismatch_raises(self, size):
        """Regression: a destination of the wrong size used to be
        written as far as it went (and, with clipped gathers, would be
        filled with the wrong words) instead of being refused."""
        kern = compile_blockset(
            [BlockRef("b", 0, 4), BlockRef("b", 16, 4)], {"b": 64}
        )
        assert kern.uses_indices
        with pytest.raises(TruncationError, match="does not match"):
            kern.pack_into({"b": np.zeros(64, np.uint8)},
                           np.zeros(size, np.uint8))

    def test_lane_is_the_widest_the_layout_allows(self):
        runs = [BlockRef("b", 0, 8), BlockRef("b", 16, 8)]
        assert compile_blockset(runs, {"b": 64}).lanes == (8,)
        # an odd capacity, a 4-aligned offset, a 2-aligned length: each
        # caps the lane; the index arrays shrink with it
        assert compile_blockset(runs, {"b": 63}).lanes == (1,)
        runs[1] = BlockRef("b", 20, 8)
        assert compile_blockset(runs, {"b": 64}).lanes == (4,)
        runs[1] = BlockRef("b", 16, 6)
        kern = compile_blockset(runs, {"b": 64})
        assert kern.lanes == (2,)
        assert "lanes (2,)" in repr(kern)
        _, wire_sel, buf_sel, _ = kern._sel_ops[0]
        assert wire_sel == slice(0, 7) and buf_sel.tolist() == [
            0, 1, 2, 3, 8, 9, 10,
        ]
        # no cap at 8: whole blocks move one index each, a width that is
        # no machine word as an opaque ``V`` block
        blocks = [BlockRef("b", 0, 256), BlockRef("b", 512, 256)]
        kern = compile_blockset(blocks, {"b": 1024})
        assert kern.lanes == (256,) and kern._sel_ops[0][2].tolist() == [0, 2]
        blocks = [BlockRef("b", 0, 24), BlockRef("b", 48, 24)]
        kern = compile_blockset(blocks, {"b": 96})
        assert kern.lanes == (24,) and kern._sel_ops[0][2].tolist() == [0, 2]
        data = np.arange(96, dtype=np.uint8)
        assert kern.pack({"b": data}).tolist() == [*range(24), *range(48, 72)]

    def test_out_of_bounds_block_rejected_at_compile(self):
        with pytest.raises(TruncationError, match="exceeds buffer"):
            compile_blockset([BlockRef("b", 60, 8)], {"b": 64})

    def test_unknown_buffer_rejected_at_compile(self):
        with pytest.raises(ScheduleError, match="unknown buffer"):
            compile_blockset([BlockRef("nope", 0, 8)], {"b": 64})


def _unknown_in_blockset():
    compile_blockset([BlockRef("nope", 0, 8)], {"b": 64})


def _unknown_in_copies():
    compile_copies(
        [LocalCopy(BlockRef("b", 0, 8), BlockRef("nope", 0, 8))], {"b": 64}
    )


def _unknown_in_combine():
    seed = LocalCombine(BlockRef("b", 0, 8), BlockRef("nope", 0, 8))
    sched = Schedule(
        "reduce", NBH, [], combine_op="sum", combine_dtype="float64",
        pre_steps=[seed],
    )
    plan_mod.compile_batched_plan(sched, CartTopology((3, 3)), {"b": 64})


@pytest.mark.parametrize(
    "lower", [_unknown_in_blockset, _unknown_in_copies, _unknown_in_combine]
)
def test_unknown_buffer_is_one_error_type_at_every_lowering_site(lower):
    """The plan compiler names the fault as the persistent-handle bounds
    check (``BlockSet.validate_against``) does."""
    with pytest.raises(UnknownBufferError, match="unknown buffer 'nope'"):
        lower()


class TestCompiledCopies:
    def test_disjoint_copies_fuse(self):
        copies = [
            LocalCopy(BlockRef("send", i * 8, 8), BlockRef("recv", i * 8, 8))
            for i in range(4)
        ]
        prog = compile_copies(copies, {"send": 64, "recv": 64})
        assert prog.fused and prog.nbytes == 32

    def test_overlapping_copies_keep_sequential_order(self):
        """An overlapping in-buffer shift is order-dependent: the program
        must fall back to the schedule's verbatim sequence and produce
        exactly what sequential slice copies produce."""
        copies = [
            LocalCopy(BlockRef("b", 0, 8), BlockRef("b", 4, 8)),
            LocalCopy(BlockRef("b", 4, 8), BlockRef("b", 12, 8)),
        ]
        prog = compile_copies(copies, {"b": 64})
        assert not prog.fused
        got = {"b": np.arange(64, dtype=np.uint8)}
        ref = {"b": np.arange(64, dtype=np.uint8)}
        for lc in copies:
            byte_view(ref["b"])[
                lc.dst.offset : lc.dst.offset + lc.dst.nbytes
            ] = byte_view(ref["b"])[
                lc.src.offset : lc.src.offset + lc.src.nbytes
            ].copy()
        prog.run(got)
        assert np.array_equal(got["b"], ref["b"])

    def test_empty_copies_at_scattered_offsets_compile_to_nothing(self):
        copies = [
            LocalCopy(BlockRef("a", 0, 0), BlockRef("b", 0, 0)),
            LocalCopy(BlockRef("a", 8, 0), BlockRef("b", 4, 0)),
        ]
        prog = compile_copies(copies, {"a": 16, "b": 16})
        bufs = {"a": np.arange(16, dtype=np.uint8), "b": np.zeros(16, np.uint8)}
        assert prog.run(bufs) == 0 and not bufs["b"].any()

    def test_bounds_checked(self):
        with pytest.raises(TruncationError, match="exceeds buffer"):
            compile_copies(
                [LocalCopy(BlockRef("b", 0, 8), BlockRef("b", 60, 8))],
                {"b": 64},
            )


# ----------------------------------------------------------------------
# the buffer pool
# ----------------------------------------------------------------------


class TestDeliveryLowering:
    """The in-place form's lowering: a round's send and receive runs
    zipped into aligned segments, and the verdict that says when the
    batched backend runs them instead of the matrices."""

    def test_zip_runs_cuts_at_either_sides_boundaries(self):
        send = [BlockRef("send", 0, 10), BlockRef("send", 20, 6)]
        recv = [BlockRef("recv", 0, 4), BlockRef("temp", 8, 12)]
        assert plan_mod.zip_runs(send, recv) == [
            ("send", 0, "recv", 0, 4),
            ("send", 4, "temp", 8, 6),
            ("send", 20, "temp", 14, 6),
        ]
        assert plan_mod.zip_runs([], []) == []

    @pytest.mark.parametrize("extra", ["send", "recv"])
    def test_zip_runs_refuses_unequal_totals(self, extra):
        send, recv = [BlockRef("send", 0, 8)], [BlockRef("recv", 0, 8)]
        {"send": send, "recv": recv}[extra].append(BlockRef(extra, 8, 1))
        with pytest.raises(ScheduleError, match="bytes than it"):
            plan_mod.zip_runs(send, recv)

    @pytest.mark.parametrize(
        "algorithm, m, delivery, reason",
        [
            ("combining", 8, "staged", "12 B per copy ≤ 2048"),
            ("combining", 1024, "staged", "1536 B per copy ≤ 2048"),
            ("combining", 2048, "in-place", "3072 B per copy > 2048"),
            # the threshold itself is still a matrix kernel's
            ("trivial", 2048, "staged", "2048 B per copy ≤ 2048"),
            ("trivial", 2056, "in-place", "2056 B per copy > 2048"),
        ],
    )
    def test_verdict_is_bytes_per_launched_copy(
        self, algorithm, m, delivery, reason
    ):
        sched, ssize, rsize = _make_case("alltoall", algorithm, "regular", m=m)
        sizes = plan_mod.effective_sizes(
            sched, _make_bufs(1, ssize, rsize)[0]
        )
        plan = plan_mod.compile_batched_plan(sched, CartTopology((4, 4)), sizes)
        assert (plan.delivery, plan.delivery_reason) == (delivery, reason)
        assert f"{delivery}: {reason})" in repr(plan)
        assert plan.hazards == (None,) * len(plan.phases)
        # round programs exist for the plans that run them only, and
        # from when the first consumer asks
        assert plan._deliveries is None
        assert (plan.deliveries is None) == (delivery == "staged")
        if delivery == "staged":
            with pytest.raises(ScheduleError, match="no in-place form"):
                plan.deliver(_make_bufs(16, ssize, rsize))

    def test_short_runs_in_one_index_kernel_are_one_launch(self):
        """1 200-byte pieces, two per block: as index kernels a round is
        two launches of 3 600 B each — the launch, not the run, is what
        the rank loop pays for."""
        sched, ssize, rsize = _make_case("alltoall", "combining", "w", m=2400)
        sizes = plan_mod.effective_sizes(
            sched, _make_bufs(1, ssize, rsize)[0]
        )
        plan = plan_mod.compile_batched_plan(sched, CartTopology((4, 4)), sizes)
        assert plan.delivery_reason == "3600 B per copy > 2048"
        programs = [prog for row in plan.deliveries for prog in row]
        assert all(
            len(prog._sel_ops) == 2 and not prog._run_ops for prog in programs
        )
        assert plan.selector_nbytes > sum(
            plan_mod._index_nbytes(k._sel_ops)
            for ph in plan.phases
            for r in ph
            for k in (r.send, r.recv)
        )

    def test_cache_info_counts_in_place_plans(self):
        sched, ssize, rsize = _make_case(
            "alltoall", "combining", "regular", m=4096
        )
        bufs = _make_bufs(1, ssize, rsize)[0]
        before = plan_mod.plan_cache_info().in_place_plans
        plan, _ = get_or_compile(sched, CartTopology((3, 3)), bufs)
        assert plan.delivery == "in-place"
        assert plan_mod.plan_cache_info().in_place_plans == before + 1
        small, ssize, rsize = _make_case("alltoall", "combining", "regular")
        get_or_compile(small, CartTopology((3, 3)), _make_bufs(1, ssize, rsize)[0])
        assert plan_mod.plan_cache_info().in_place_plans == before + 1
        sched.clear_plans()
        assert plan_mod.plan_cache_info().in_place_plans == before


class TestBufferPool:
    def test_acquire_exact_size_release_reuse(self):
        pool = BufferPool(max_retained_bytes=1 << 20)
        a = pool.acquire(100)
        assert a.nbytes == 100 and a.dtype == np.uint8
        base = a.base
        assert base is not None and base.nbytes == 128  # pow2 class
        pool.release(a)
        b = pool.acquire(100)
        assert b.base is base  # same block came back
        s = pool.stats()
        assert s.acquires == 2 and s.reuses == 1 and s.releases == 1

    def test_zero_and_min_class(self):
        pool = BufferPool()
        assert pool.acquire(0).nbytes == 0
        small = pool.acquire(1)
        assert small.base.nbytes == 64  # _MIN_CLASS

    def test_high_water_and_outstanding(self):
        pool = BufferPool(max_retained_bytes=1 << 20)
        a, b = pool.acquire(1000), pool.acquire(1000)
        s = pool.stats()
        assert s.outstanding_bytes == 2048 and s.high_water_bytes == 2048
        pool.release(a)
        pool.release(b)
        s = pool.stats()
        assert s.outstanding_bytes == 0 and s.high_water_bytes == 2048
        assert s.retained_bytes == 2048

    def test_retained_cap_drops(self):
        pool = BufferPool(max_retained_bytes=128)
        a, b = pool.acquire(128), pool.acquire(128)
        pool.release(a)
        pool.release(b)  # over the cap: dropped, not retained
        s = pool.stats()
        assert s.retained_bytes == 128 and s.dropped == 1

    def test_foreign_arrays_ignored(self):
        pool = BufferPool()
        pool.release(np.zeros(100, np.uint8))  # not a pow2 class
        pool.release(np.zeros(128, np.float64))  # wrong dtype
        pool.release("not an array")
        assert pool.stats().retained_bytes == 0

    def test_double_release_is_absorbed(self):
        """Regression: releasing the same array twice used to append its
        base block to the free list twice, so two later acquires handed
        out aliasing views of the same memory."""
        pool = BufferPool(max_retained_bytes=1 << 20)
        a = pool.acquire(100)
        pool.release(a)
        pool.release(a)  # duplicate: must be dropped, not re-listed
        s = pool.stats()
        assert s.double_releases == 1
        assert s.releases == 1
        assert s.retained_bytes == 128
        x, y = pool.acquire(100), pool.acquire(100)
        assert x.base is not y.base, "aliasing views handed out"
        x[:] = 1
        y[:] = 2
        assert (x == 1).all() and (y == 2).all()

    def test_double_release_of_view_alias(self):
        """A second release through a different view of the same block is
        still a double release."""
        pool = BufferPool(max_retained_bytes=1 << 20)
        a = pool.acquire(100)
        alias = a[:50]  # same base block
        pool.release(a)
        pool.release(alias)
        s = pool.stats()
        assert s.double_releases == 1 and s.releases == 1
        assert s.outstanding_bytes == 0

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_BUFFER_POOL_MAX", "4096")
        assert BufferPool().max_retained_bytes == 4096

    def test_concurrent_acquire_release(self):
        pool = BufferPool(max_retained_bytes=1 << 20)
        errors = []

        def churn(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(200):
                    n = int(rng.integers(1, 5000))
                    arr = pool.acquire(n)
                    arr[:] = seed & 0xFF
                    assert arr.nbytes == n
                    pool.release(arr)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = pool.stats()
        assert s.outstanding_bytes == 0
        assert s.acquires == 8 * 200 and s.releases == 8 * 200
        assert s.reuses > 0

    def test_release_after_relend_is_rejected(self):
        """Regression for the re-lent aliasing hole: a stale release of
        a handle whose base block the pool already handed to someone
        else must NOT re-file the block — honouring it would let a
        later acquire alias live memory."""
        pool = BufferPool(max_retained_bytes=1 << 20)
        a = pool.acquire(100)
        base = a.base
        pool.release(a)
        b = pool.acquire(100)  # pool re-lends the same base block
        assert b.base is base
        pool.release(a)  # stale: "a" was already returned and re-lent
        s = pool.stats()
        assert s.double_releases == 1 and s.releases == 1
        # the block b still owns must not be handed out again
        c = pool.acquire(100)
        assert c.base is not base, "aliasing view of a live block"
        b[:] = 1
        c[:] = 2
        assert (b == 1).all() and (c == 2).all()
        pool.release(b)
        pool.release(c)
        assert pool.stats().outstanding_bytes == 0

    def test_release_after_resize_aliasing(self):
        """A caller that reshapes/slices its handle and releases the
        derivative must not corrupt the pool: only the exact handle
        acquire returned is a genuine return."""
        pool = BufferPool(max_retained_bytes=1 << 20)
        a = pool.acquire(256)  # exact class size: handle IS the base
        resized = a[:128]  # a "resized" view of the pooled block
        pool.release(resized)  # not the handle -> dropped
        s = pool.stats()
        assert s.double_releases == 1 and s.releases == 0
        assert s.outstanding_bytes == 256
        pool.release(a)  # the genuine handle still returns fine
        s = pool.stats()
        assert s.releases == 1 and s.outstanding_bytes == 0

    def test_foreign_pow2_array_not_adopted(self):
        """A foreign uint8 array of a perfect class size must not enter
        the free list (the pool would later hand out memory it does not
        own)."""
        pool = BufferPool(max_retained_bytes=1 << 20)
        foreign = np.zeros(128, np.uint8)
        pool.release(foreign)
        s = pool.stats()
        assert s.double_releases == 1 and s.retained_bytes == 0

    def test_clear_keeps_lent_tracking(self):
        pool = BufferPool(max_retained_bytes=1 << 20)
        a = pool.acquire(100)
        pool.clear()
        pool.release(a)  # still a genuine return after clear()
        s = pool.stats()
        assert s.releases == 1 and s.double_releases == 0

    def test_lent_table_prunes_abandoned_handles(self):
        pool = BufferPool(max_retained_bytes=0)  # retain nothing
        for _ in range(1200):
            pool.acquire(70)  # handle dropped without release
        assert len(pool._lent) < 1200

    def test_many_outstanding_handles_stay_cheap(self):
        """Regression: past 1 024 handles out, every acquire rebuilt the
        whole lent table, so holding n handles cost O(n^2) (19.5 of
        24.8 s certifying a direct alltoall on (5, 5, 5)).  Judged by
        what that code did, not by the clock (a collector pause in one
        timed chunk used to fail this): no acquire walks the table, and
        the table is never replaced by a pruned copy."""

        walks = []

        class Watched(dict):
            pass

        for name in ("__iter__", "keys", "values", "items", "copy"):
            setattr(
                Watched,
                name,
                lambda self, name=name: (
                    walks.append(name),
                    getattr(dict, name)(self),
                )[1],
            )

        pool = BufferPool(max_retained_bytes=1 << 20)
        table = pool._lent = Watched()
        handles = [pool.acquire(70) for _ in range(5000)]
        assert pool._lent is table and len(table) == 5000
        assert not walks
        # the three refused returns are still told apart from 5 000
        # genuine ones: a second release, a stale handle whose block was
        # re-lent, a foreign array of a pool class size
        a = handles.pop()
        pool.release(a)
        pool.release(a)
        b = pool.acquire(70)
        assert b.base is a.base
        pool.release(a)
        pool.release(np.zeros(128, np.uint8))
        assert pool.stats().double_releases == 3
        pool.release(b)
        for h in handles[:2000]:
            pool.release(h)
        del h
        assert len(pool._lent) == 2999
        del handles[:]  # the rest die unreleased and expire on their own
        assert len(pool._lent) == 0
        s = pool.stats()
        assert s.acquires == 5001 and s.releases == 2002
        assert s.double_releases == 3

    def test_concurrent_double_release_stats_consistent(self):
        """Hammer release() with duplicate handles from many threads:
        every handle must be honoured exactly once, every duplicate
        counted, and the counters must balance exactly."""
        pool = BufferPool(max_retained_bytes=1 << 20)
        handles = [pool.acquire(1000) for _ in range(64)]
        errors = []

        def churn(seed):
            try:
                rng = np.random.default_rng(seed)
                for h in rng.permutation(len(handles)):
                    pool.release(handles[h])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = pool.stats()
        assert s.releases == 64
        assert s.double_releases == 7 * 64
        assert s.outstanding_bytes == 0


# ----------------------------------------------------------------------
# plan cache lifetime: coupled to the schedule-cache entry
# ----------------------------------------------------------------------


def _schedule_and_buffers(m=4):
    sched = build_alltoall_schedule(
        NBH,
        uniform_block_layout([m] * NBH.t, "send"),
        uniform_block_layout([m] * NBH.t, "recv"),
    ).prepare()
    bufs = {
        "send": np.zeros(NBH.t * m, np.uint8),
        "recv": np.zeros(NBH.t * m, np.uint8),
    }
    return sched, bufs


class TestPlanCacheLifetime:
    @pytest.fixture(autouse=True)
    def no_class_on_file(self):
        """Each case's first lookup is a real lowering: no plan of its
        normal form's class, filed by an earlier case, is scaled."""
        plan_mod.plan_cache_reset()

    def test_hit_after_miss_and_counters(self):
        sched, bufs = _schedule_and_buffers()
        topo = CartTopology((3, 3))
        before = plan_mod.plan_cache_info()
        plan0, hit0 = get_or_compile(sched, topo, bufs)
        plan1, hit1 = get_or_compile(sched, topo, bufs)
        assert not hit0 and hit1 and plan1 is plan0
        after = plan_mod.plan_cache_info()
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1
        assert after.compile_seconds > before.compile_seconds

    def test_selector_bytes_follow_the_cached_plans(self):
        """``selector_bytes`` is a gauge over the plans filed right now:
        it grows by a plan's index-array bytes on the miss, not on hits,
        and gives them back when the plans are invalidated."""
        sched = build_alltoall_schedule(
            NBH,
            uniform_block_layout([8] * NBH.t, "send"),
            uniform_block_layout([8] * NBH.t, "recv"),
        ).prepare()
        sizes = {"send": NBH.t * 8, "recv": NBH.t * 8, "temp": sched.temp_nbytes}
        topo = CartTopology((3, 3))
        before = plan_mod.plan_cache_info().selector_bytes
        plan, _ = get_or_compile(sched, topo, sizes=sizes)
        kernels = [
            k for ph in plan.phases for r in ph for k in (r.send, r.recv)
        ]
        assert plan.selector_nbytes == sum(
            sel.nbytes
            for k in kernels
            for op in k._sel_ops
            for sel in op[1:3]
            if isinstance(sel, np.ndarray)
        )
        assert plan.selector_nbytes > 0
        assert f"selectors={plan.selector_nbytes} B" in repr(plan)
        get_or_compile(sched, topo, sizes=sizes)
        info = plan_mod.plan_cache_info()
        assert info.selector_bytes == before + plan.selector_nbytes
        sched.clear_plans()
        assert plan_mod.plan_cache_info().selector_bytes == before

    def test_distinct_rank_and_layout_keys(self):
        """Ranks share one plan entry (their views differ); a different
        buffer signature or topology keys its own plan."""
        sched, bufs = _schedule_and_buffers()
        topo = CartTopology((3, 3))
        plan, _ = get_or_compile(sched, topo, bufs)
        assert plan.for_rank(0) is not plan.for_rank(1)
        assert plan.key == ("plan", topo.dims, topo.periods,
                            plan_mod.buffer_signature(plan.sizes))
        assert list(sched._plans) == [plan.key]
        bigger = {k: np.zeros(v.nbytes + 64, np.uint8) for k, v in bufs.items()}
        p2, hit = get_or_compile(sched, topo, bigger)
        assert not hit and p2 is not plan
        p3, hit = get_or_compile(sched, CartTopology((2, 8)), bufs)
        assert not hit and p3 is not plan
        assert len(sched._plans) == 3

    def test_cache_clear_invalidates_plans(self):
        """Regression: evicting/clearing the schedule cache must drop the
        plans living on the evicted schedules, so a stale schedule object
        recompiles instead of serving plans for dead cache entries."""
        schedule_cache.cache_clear()
        built = {}

        def build():
            sched, _ = _schedule_and_buffers(m=5)
            built["sched"] = sched
            return sched

        key = schedule_cache.schedule_key(
            "test/plan-invalidation", NBH, ("uniform", (5,) * NBH.t)
        )
        sched, _, _ = schedule_cache.get_or_build(key, build)
        topo = CartTopology((3, 3))
        bufs = {
            "send": np.zeros(NBH.t * 5, np.uint8),
            "recv": np.zeros(NBH.t * 5, np.uint8),
        }
        _, hit0 = get_or_compile(sched, topo, bufs)
        _, hit1 = get_or_compile(sched, topo, bufs)
        assert not hit0 and hit1
        schedule_cache.cache_clear()
        assert len(sched._plans) == 0
        _, hit2 = get_or_compile(sched, topo, bufs)
        assert not hit2

    def test_lru_eviction_invalidates_plans(self):
        cache = schedule_cache.ScheduleCache(maxsize=1)
        sched_a, bufs = _schedule_and_buffers(m=6)
        sched_b, _ = _schedule_and_buffers(m=7)
        cache.get_or_build(("a",), lambda: sched_a)
        topo = CartTopology((3, 3))
        get_or_compile(sched_a, topo, bufs)
        assert len(sched_a._plans) > 0
        cache.get_or_build(("b",), lambda: sched_b)  # evicts a
        assert len(sched_a._plans) == 0

    def test_rank_views_memoized_and_share_kernels(self):
        """A rank's plan is a row view: memoized, peers equal to the
        scalar translation, and its kernels *the same objects* as every
        other rank's (one kernel set per plan, not per rank)."""
        sched, bufs = _schedule_and_buffers()
        topo = CartTopology((3, 3))
        plan, _ = get_or_compile(sched, topo, bufs)
        first, last = plan.for_rank(0), plan.for_rank(topo.size - 1)
        assert plan.for_rank(0) is first
        assert first.copy_program is last.copy_program is plan.copy_program
        for pi, ph in enumerate(sched.phases):
            for ri, rnd in enumerate(ph.rounds):
                a, b = first.phases[pi][ri], last.phases[pi][ri]
                assert a.send is b.send is plan.phases[pi][ri].send
                assert a.recv is b.recv is plan.phases[pi][ri].recv
                neg = tuple(-o for o in rnd.recv_source_offset)
                for view, r in ((a, 0), (b, topo.size - 1)):
                    assert view.source == topo.translate(r, neg)
                    assert view.target == topo.translate(r, rnd.offset)
        with pytest.raises(ScheduleError, match="outside"):
            plan.for_rank(topo.size)

    @pytest.mark.parametrize("backend", ["threaded", "lockstep", "batched"])
    def test_one_lowering_per_p_rank_run(self, backend):
        """A p-rank run of one schedule lowers it once (was: once per
        rank on the per-rank backends) and files one plan entry; the
        matrix executor looks it up once, the walk (``lockstep`` here,
        see ``test_backends.executor``) and the rank threads once per
        rank — and the *name* ``lockstep`` is the matrix executor."""
        sched, ssize, rsize = _make_case("alltoall", "combining", "w")
        topo = CartTopology((3, 3))
        before = plan_mod.plan_cache_info()
        executor(backend).execute_all(
            topo, sched, _make_bufs(topo.size, ssize, rsize)
        )
        after = plan_mod.plan_cache_info()
        assert after.misses == before.misses + 1
        lookups = 1 if backend == "batched" else topo.size
        assert after.hits == before.hits + lookups - 1
        if backend == "lockstep":
            get_backend(backend).execute_all(
                topo, sched, _make_bufs(topo.size, ssize, rsize)
            )
            assert plan_mod.plan_cache_info().hits == after.hits + 1
        assert len(sched._plans) == 1


def test_reduce_rank_views_share_fused_programs():
    """On a torus every rank has the same copy/fold pattern, so all views
    share one row view per schedule point; on a mesh the views split by
    boundary situation and edge ranks drop gated folds."""
    from repro.core.reduce_schedule import (
        build_reduce_schedule,
        build_trivial_reduce_schedule,
    )

    sizes = {"send": 16, "recv": 16}
    torus = CartTopology((3, 3))
    sched = build_reduce_schedule(NBH, m_bytes=16, dtype="int64")
    plan = plan_mod.compile_batched_plan(
        sched, torus, {**sizes, "temp": sched.temp_nbytes}
    )
    first, last = plan.for_rank(0), plan.for_rank(torus.size - 1)
    assert first.pre_program is not None
    assert first.pre_program is last.pre_program
    assert all(
        a is b for a, b in zip(first.combine_programs, last.combine_programs)
    )
    mesh = CartTopology((3, 3), (False, False))
    tsched = build_trivial_reduce_schedule(NBH, m_bytes=16, dtype="int64")
    tplan = plan_mod.compile_batched_plan(
        tsched, mesh, {**sizes, "temp": tsched.temp_nbytes}
    )
    corner, centre = tplan.for_rank(0), tplan.for_rank(4)

    def folded_bytes(view):
        return sum(p.nbytes for p in view.combine_programs if p is not None)

    assert 0 < folded_bytes(corner) < folded_bytes(centre)
    assert corner.reduce_outputs_ok and centre.reduce_outputs_ok


def test_allreduce_512_index_selectors_move_whole_blocks():
    """Shape pin for the e2e ``allreduce_512`` plan: every index
    selector of the (8, 8, 8) int64 allreduce moves whole 256-byte
    blocks, one index per block."""
    from repro.core.stencils import moore_neighborhood
    from repro.core.reduce_schedule import build_allreduce_schedule

    nbh = moore_neighborhood(3, 1, include_self=False)
    sched = build_allreduce_schedule(
        nbh, m_bytes=256, dtype=np.int64, op="sum"
    )
    sizes = {"send": 256, "recv": nbh.t * 256, "temp": sched.temp_nbytes}
    plan = plan_mod.compile_batched_plan(
        sched, CartTopology((8, 8, 8)), sizes
    )
    kernels = [k for ph in plan.phases for r in ph for k in (r.send, r.recv)]
    assert any(k.uses_indices for k in kernels)
    assert {lane for k in kernels for lane in k.lanes} == {256}
    # one int64 per block (17 408 B at one per 8-byte word, 139 264 B
    # at one per byte)
    assert plan.selector_nbytes == 544
    # its folds are matrix kernels: a reduction keeps the staged form
    assert (plan.delivery, plan.delivery_reason) == ("staged", "reduction")
    assert plan.deliveries is None


def test_halo3d_large_recv_kernels_stay_slice_runs():
    """Shape pin for the e2e ``halo3d_large`` plan (the workload that
    must not move): 16 KiB runs are over ``INDEX_RUN_LIMIT`` bytes, so
    no receive kernel holds an index array at any lane."""
    from repro.core.stencils import moore_neighborhood

    nbh = moore_neighborhood(3, 1, include_self=False)
    m = 16 * 1024
    sched = build_alltoall_schedule(
        nbh,
        uniform_block_layout([m] * nbh.t, "send"),
        uniform_block_layout([m] * nbh.t, "recv"),
    ).prepare()
    sizes = {"send": nbh.t * m, "recv": nbh.t * m, "temp": sched.temp_nbytes}
    plan = plan_mod.compile_batched_plan(
        sched, CartTopology((3, 3, 3)), sizes
    )
    recvs = [r.recv for ph in plan.phases for r in ph]
    assert recvs and not any(k.uses_indices for k in recvs)
    # … and every launched copy is one 16 KiB block: delivered in place,
    # 54 slice copies per rank and no index array
    assert plan.delivery == "in-place"
    assert plan.delivery_reason == "16384 B per copy > 2048"
    assert "in-place: 16384 B per copy > 2048" in repr(plan)
    programs = [prog for row in plan.deliveries for prog in row]
    assert (
        sum(len(prog._sel_ops) + len(prog._run_ops) for prog in programs)
        == 54
    )
    assert plan.selector_nbytes == 0
    # with the ranks' bound ``temp`` (a persistent handle's), an
    # execution touches the pool not at all
    topo = CartTopology((3, 3, 3))
    bufs = [
        {name: np.zeros(n, np.uint8) for name, n in sizes.items()}
        for _ in range(topo.size)
    ]
    for r, b in enumerate(bufs):
        b["send"][:] = r
    acquires = plan_mod.GLOBAL_POOL.stats().acquires
    get_backend("batched").execute_all(topo, sched, bufs)
    assert plan_mod.GLOBAL_POOL.stats().acquires == acquires
    for r, b in enumerate(bufs):
        for i, off in enumerate(nbh):
            src = topo.translate(r, tuple(-o for o in off))
            assert (b["recv"][i * m : (i + 1) * m] == src).all()


def test_life_small_halo_plan_stays_staged():
    """Shape pin for the e2e ``life_small`` plans (the workload that
    must not move): halo blocks of ≤ 16 B are far below the in-place
    threshold, so everything a generation runs is the matrix form."""
    from repro.apps import GameOfLife

    schedule_cache.cache_clear()
    assert plan_mod.plan_cache_info().in_place_plans == 0
    app = GameOfLife.random((64, 64), (4, 4), 2, seed=3)
    app.check_against_oracle(app.run(backend="batched"))
    with plan_mod._CACHE_LOCK:
        plans = list(plan_mod._CACHED)
    assert plans and {p.delivery for p in plans} == {"staged"}
    assert all("B per copy ≤ 2048" in p.delivery_reason for p in plans)
    assert plan_mod.plan_cache_info().in_place_plans == 0


def test_compile_plan_wire_bytes_excludes_mesh_boundaries():
    sched, bufs = _schedule_and_buffers()
    torus = CartTopology((3, 3), (True, True))
    mesh = CartTopology((3, 3), (False, False))
    sizes = plan_mod.effective_sizes(sched, bufs)
    full = compile_plan(sched, torus, 4, sizes)  # interior rank
    corner = compile_plan(sched, mesh, 0, sizes)
    assert full.wire_bytes == sched.volume_bytes
    assert corner.wire_bytes < full.wire_bytes
    assert any(
        pr.target is None and pr.send is None
        for ph in corner.phases
        for pr in ph
    )


# ----------------------------------------------------------------------
# OpStats plan/bytes counters
# ----------------------------------------------------------------------


class TestOpStatsCounters:
    def test_record_plan_and_bytes(self):
        """One ``record_execution`` per execution books its record, its
        one plan lookup and its bytes."""
        stats = OpStats()
        assert "no collective operations" in stats.summary()
        totals = (4, 8, 256, 40)
        for hit, packed, copied in [
            (False, 100, 40), (True, 50, 0), (True, 0, 0), (True, 0, 0),
        ]:
            stats.record_execution(
                "alltoall", "combining", "lockstep", totals, hit, packed, copied
            )
        stats.record_execution(
            "alltoall", "combining", "batched", totals, True, 0, 0
        )
        assert stats.plan_hits == 4 and stats.plan_misses == 1
        assert stats.plan_by_backend == {
            "lockstep": [3, 1],
            "batched": [1, 0],
        }
        assert stats.bytes_packed == {"lockstep": 150}
        assert stats.bytes_copied == {"lockstep": 40}
        record = stats.records[("alltoall", "combining", "lockstep")]
        assert (record.calls, record.rounds, record.volume_bytes) == (4, 16, 1024)
        text = stats.summary()
        assert "execution plans: 4 hits / 1 compiles" in text
        assert "data moved [lockstep]: 150 B packed, 40 B copied" in text
        stats.reset()
        assert stats.plan_hits == 0 and not stats.plan_by_backend
        assert not stats.bytes_packed and not stats.bytes_copied

    def test_cartcomm_records_plan_lookups(self):
        """Every per-rank execution records exactly one plan-cache
        lookup; repeated calls on the cached schedule hit."""

        def fn(cart):
            t = cart.nbh.t
            send = np.zeros(t * 4, np.uint8)
            recv = np.zeros(t * 4, np.uint8)
            cart.alltoall(send, recv, algorithm="combining")
            cart.alltoall(send, recv, algorithm="combining")
            s = cart.stats
            packed = sum(s.bytes_packed.values())
            return (s.plan_hits + s.plan_misses, s.plan_hits >= 1, packed > 0)

        res = run_cartesian(
            (3, 3), NBH, fn, info={"collect_stats": True}, timeout=60
        )
        assert all(total == 2 and hit and packed for total, hit, packed in res)
