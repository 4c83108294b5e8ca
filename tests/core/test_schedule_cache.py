"""Process-wide schedule cache: correctness, keying, concurrency."""

import threading
import time

import numpy as np
import pytest

from repro.core import schedule_cache
from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.api import run_cartesian
from repro.core.neighborhood import Neighborhood
from repro.core.reduce_schedule import build_reduce_schedule
from repro.core.schedule import uniform_block_layout
from repro.core.schedule_cache import (
    ScheduleCache,
    layout_signature,
    schedule_key,
)
from repro.core.serialize import schedule_to_json
from repro.core.stencils import moore_neighborhood
from repro.core.trivial import build_trivial_alltoall_schedule
from repro.mpisim.datatypes import BlockRef, BlockSet

NBH = moore_neighborhood(2, 1, include_self=False)
STATS = {"collect_stats": True}


def _lookups(cart):
    """(hits, misses) of the rank's schedule look-ups so far, a hit at
    the communicator's level 1 or the process-wide level 2 alike."""
    return cart.stats.cache_hits, cart.stats.cache_misses


def _assert_one_builder_and_its_siblings(first_lookups, info):
    """Each of p ranks has looked one schedule up for the first time:
    the builder missed, every one of its p - 1 siblings hit — in the
    process-wide cache (``info``) if it bound before the builder filled
    the communicator's one level-1 dictionary, in that dictionary, never
    reaching ``info``, after."""
    p = len(first_lookups)
    assert sorted(first_lookups) == [(0, 1)] + [(1, 0)] * (p - 1)
    assert info.misses == 1 and info.hits <= p - 1


@pytest.fixture(autouse=True)
def fresh_cache():
    schedule_cache.cache_clear()
    yield
    schedule_cache.cache_clear()


class TestScheduleCacheUnit:
    def test_hit_miss_counters(self):
        cache = ScheduleCache(maxsize=4)
        built = []

        def build():
            built.append(1)
            return object()

        s1, hit, secs = cache.get_or_build(("k",), build)
        assert not hit and len(built) == 1
        s2, hit, _ = cache.get_or_build(("k",), build)
        assert hit and s2 is s1 and len(built) == 1
        info = cache.info()
        assert info.hits == 1 and info.misses == 1 and info.builds == 1
        assert info.currsize == 1 and info.maxsize == 4
        assert info.build_seconds >= 0.0

    def test_lru_eviction(self):
        cache = ScheduleCache(maxsize=2)
        for k in range(3):
            cache.get_or_build((k,), lambda: object())
        assert len(cache) == 2
        # key 0 was evicted: rebuilding it counts a miss/build
        cache.get_or_build((0,), lambda: object())
        assert cache.info().builds == 4

    def test_lru_recency_order(self):
        cache = ScheduleCache(maxsize=2)
        a = cache.get_or_build(("a",), lambda: object())[0]
        cache.get_or_build(("b",), lambda: object())
        # touch "a" so "b" is the LRU victim
        assert cache.get_or_build(("a",), lambda: object())[0] is a
        cache.get_or_build(("c",), lambda: object())
        assert cache.get_or_build(("a",), lambda: object())[1]  # still a hit

    def test_resize_and_clear(self):
        """The bound is fixed at construction; ``clear`` empties the
        cache and zeroes its counters."""
        cache = ScheduleCache(maxsize=8)
        for k in range(6):
            cache.get_or_build((k,), lambda: object())
        assert len(cache) == 6
        cache.clear()
        assert len(cache) == 0 and cache.info().builds == 0
        with pytest.raises(ValueError):
            ScheduleCache(maxsize=0)

    def test_single_flight_concurrent_builds(self):
        """However many threads ask for one key at once, exactly one
        builds; the rest wait and share the result object."""
        cache = ScheduleCache()
        builds = []
        barrier = threading.Barrier(8)
        results = []

        def build():
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return object()

        def worker():
            barrier.wait()
            results.append(cache.get_or_build(("shared",), build)[0])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(r is results[0] for r in results)
        assert cache.info().builds == 1

    def test_failed_build_is_retried(self):
        cache = ScheduleCache()
        calls = []

        def bad():
            calls.append(1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_build(("k",), bad)
        # the failure left nothing cached; the next caller builds again
        obj, hit, _ = cache.get_or_build(("k",), lambda: object())
        assert not hit and len(calls) == 1 and obj is not None

    def test_rejected_schedule_is_certified_once_for_every_waiter(self):
        """A failing ``verify`` reaches every caller of the flight it
        failed in — they used to wake, find no entry and build and
        verify again, one after the other: ``p`` certifications of one
        defective schedule.  The next call starts a new flight."""
        cache = ScheduleCache()
        p = 16
        counts = {"build": 0, "verify": 0}
        calling = [threading.Event() for _ in range(p)]
        errors, results = [], []

        def build():
            counts["build"] += 1
            return object()

        def verify(sched):
            counts["verify"] += 1
            # hold the flight open until every caller is on its way in
            for event in calling:
                assert event.wait(timeout=30)
            time.sleep(0.1)
            raise ValueError("defective schedule")

        def worker(i):
            calling[i].set()
            try:
                results.append(cache.get_or_build(("k",), build, verify))
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(p)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert counts == {"build": 1, "verify": 1}
        assert len(errors) == p and not results
        assert all(exc is errors[0] for exc in errors)
        assert len(cache) == 0 and cache.info().builds == 0
        # nothing is cached and nothing is remembered: the next call retries
        obj, hit, _ = cache.get_or_build(("k",), build, lambda sched: None)
        assert not hit and counts["build"] == 2 and len(cache) == 1


class TestKeying:
    def test_neighborhood_fingerprint_includes_shape(self):
        a = Neighborhood([[1, 2], [3, 4]])
        b = Neighborhood([[1, 2, 3, 4]])
        assert a.offsets.tobytes() == b.offsets.tobytes()
        fa = schedule_cache.neighborhood_fingerprint(a)
        fb = schedule_cache.neighborhood_fingerprint(b)
        assert fa != fb

    def test_blockset_signature_is_exact(self):
        bs = BlockSet([BlockRef("send", 0, 8), BlockRef("send", 8, 8)])
        assert bs.signature() == (("send", 0, 8), ("send", 8, 8))
        assert layout_signature([bs, BlockSet()]) == (
            (("send", 0, 8), ("send", 8, 8)),
            (),
        )

    def test_key_varies_with_dims_periods_layout(self):
        sig = (("send", 0, 4),)
        base = schedule_key("alltoall/combining", NBH, sig, (3, 3), (True, True))
        assert base != schedule_key(
            "alltoall/combining", NBH, sig, (9, 1), (True, True)
        )
        assert base != schedule_key(
            "alltoall/combining", NBH, sig, (3, 3), (True, False)
        )
        assert base != schedule_key(
            "alltoall/combining", NBH, (("send", 0, 8),), (3, 3), (True, True)
        )
        assert base == schedule_key(
            "alltoall/combining",
            moore_neighborhood(2, 1, include_self=False),
            sig,
            (3, 3),
            (True, True),
        )


def _grab_alltoall_schedule(cart, m_bytes, algorithm):
    """The regular alltoall schedule as the communicator binds it."""
    buf = np.zeros(cart.nbh.t * m_bytes, np.uint8)
    return cart._bind_alltoall(buf, buf.copy(), algorithm).schedule


class TestCachedScheduleEquivalence:
    """Schedules served from the cache are byte-for-byte the schedules a
    fresh build would produce, for every kind and layout family."""

    @pytest.mark.parametrize("algorithm", ["combining", "trivial", "direct"])
    def test_alltoall_equivalence_and_sharing(self, algorithm):
        m = 8

        def fn(cart):
            return _grab_alltoall_schedule(cart, m, algorithm)

        scheds = run_cartesian((3, 3), NBH, fn)
        # every rank thread shares the one cached object
        assert all(s is scheds[0] for s in scheds)
        sizes = [m] * NBH.t
        fresh = {
            "combining": build_alltoall_schedule,
            "trivial": build_trivial_alltoall_schedule,
        }.get(algorithm)
        if fresh is not None:
            expected = fresh(
                NBH,
                uniform_block_layout(sizes, "send"),
                uniform_block_layout(sizes, "recv"),
            )
            assert schedule_to_json(scheds[0]) == schedule_to_json(expected)
        # a second communicator (new engine) reuses the same entry
        scheds2 = run_cartesian((3, 3), NBH, fn)
        assert scheds2[0] is scheds[0]

    def test_allgather_equivalence(self):
        m = 16

        def fn(cart):
            return cart._bind_allgather(
                np.zeros(m, np.uint8), np.zeros(m * NBH.t, np.uint8), "combining"
            ).schedule

        scheds = run_cartesian((3, 3), NBH, fn)
        expected = build_allgather_schedule(
            NBH,
            BlockSet([BlockRef("send", 0, m)]),
            uniform_block_layout([m] * NBH.t, "recv"),
        )
        assert schedule_to_json(scheds[0]) == schedule_to_json(expected)

    def test_v_layout_equivalence(self):
        """alltoallv with displacements caches and stays correct."""
        t = NBH.t
        counts = [2] * t
        displs = [3 * i for i in range(t)]

        def fn(cart):
            send = np.arange(3 * t, dtype=np.int64)
            recv = np.zeros(3 * t, dtype=np.int64)
            cart.alltoallv(
                send, counts, recv, counts,
                sdispls=displs, rdispls=displs, algorithm="combining",
            )
            first = _lookups(cart)
            cart.alltoallv(
                send, counts, recv, counts,
                sdispls=displs, rdispls=displs, algorithm="combining",
            )
            return first

        before = schedule_cache.cache_info().builds
        firsts = run_cartesian((3, 3), NBH, fn, info=STATS)
        after = schedule_cache.cache_info()
        # 9 ranks x 2 calls share a single build; the second call per
        # rank is a per-communicator (L1) hit and never reaches here
        assert after.builds - before == 1
        _assert_one_builder_and_its_siblings(firsts, after)

    def test_w_layout_equivalence(self):
        """allgatherw with per-source placements round-trips through the
        cache and matches a fresh build."""
        m = 8
        t = NBH.t
        send_t = BlockSet([BlockRef("s", 0, m)])
        recv_ts = [BlockSet([BlockRef("r", m * (t - 1 - i), m)]) for i in range(t)]

        def fn(cart):
            bufs = {
                "s": np.full(m, cart.rank, dtype=np.uint8),
                "r": np.zeros(m * t, dtype=np.uint8),
            }
            cart.allgatherw(bufs, send_t, recv_ts, algorithm="combining")
            return cart._bind_allgatherw(
                bufs, send_t, recv_ts, "combining"
            ).schedule

        scheds = run_cartesian((3, 3), NBH, fn)
        expected = build_allgather_schedule(NBH, send_t, recv_ts)
        assert schedule_to_json(scheds[0]) == schedule_to_json(expected)

    def test_reduce_schedule_shared(self):
        def fn(cart):
            return cart._bind_reduce(
                np.zeros(1), np.zeros(1), "sum", "combining"
            ).schedule

        scheds = run_cartesian((3, 3), NBH, fn)
        assert all(s is scheds[0] for s in scheds)
        fresh = build_reduce_schedule(NBH, m_bytes=8, dtype="float64", op="sum")
        assert scheds[0].describe() == fresh.describe()
        assert [ph.dim for ph in scheds[0].phases] == [
            ph.dim for ph in fresh.phases
        ]
        assert [
            [r.offset for r in ph.rounds] for ph in scheds[0].phases
        ] == [[r.offset for r in ph.rounds] for ph in fresh.phases]

    def test_reduce_calls_share_one_build(self):
        """Repeated reductions across all ranks are one process-wide
        build; per-rank repeats resolve in the communicator's L1 dict
        and never reach the global cache."""

        def fn(cart):
            send = np.zeros(2)
            recv = np.zeros(2)
            cart.reduce_neighbors(send, recv, op="sum", algorithm="combining")
            first = _lookups(cart)
            cart.reduce_neighbors(send, recv, op="sum", algorithm="combining")
            return first

        before = schedule_cache.cache_info().builds
        firsts = run_cartesian((3, 3), NBH, fn, info=STATS)
        after = schedule_cache.cache_info()
        assert after.builds - before == 1
        _assert_one_builder_and_its_siblings(firsts, after)

    def test_reduce_key_includes_op_and_dtype(self):
        """Schedules for different operators or element dtypes never
        alias a cache entry — the combine kernels are baked in."""

        def fn(cart):
            send64 = np.zeros(2)
            recv64 = np.zeros(2)
            cart.reduce_neighbors(send64, recv64, op="sum", algorithm="combining")
            cart.reduce_neighbors(send64, recv64, op="max", algorithm="combining")
            send32 = np.zeros(4, dtype=np.float32)
            recv32 = np.zeros(4, dtype=np.float32)
            cart.reduce_neighbors(send32, recv32, op="sum", algorithm="combining")

        before = schedule_cache.cache_info().builds
        run_cartesian((3, 3), NBH, fn)
        assert schedule_cache.cache_info().builds - before == 3


class TestCacheMissKeys:
    """The cache is missed — never wrongly shared — when the layout
    fingerprint changes."""

    def _builds_for(self, dims, periods, nbh, m):
        before = schedule_cache.cache_info().builds

        def fn(cart):
            t = cart.nbh.t
            send = np.zeros(t * m, np.uint8)
            recv = np.zeros(t * m, np.uint8)
            cart.alltoall(send, recv, algorithm="trivial")

        run_cartesian(dims, nbh, fn, periods=periods)
        return schedule_cache.cache_info().builds - before

    def test_miss_on_dims_change(self):
        assert self._builds_for((3, 3), None, NBH, 4) == 1
        assert self._builds_for((9, 1), None, NBH, 4) == 1  # new dims: rebuild
        assert self._builds_for((3, 3), None, NBH, 4) == 0  # back: cached

    def test_miss_on_periods_change(self):
        assert self._builds_for((3, 3), (True, True), NBH, 4) == 1
        assert self._builds_for((3, 3), (True, False), NBH, 4) == 1

    def test_miss_on_block_size_change(self):
        assert self._builds_for((3, 3), None, NBH, 4) == 1
        assert self._builds_for((3, 3), None, NBH, 8) == 1

    def test_miss_on_neighborhood_change(self):
        assert self._builds_for((3, 3), None, NBH, 4) == 1
        bigger = moore_neighborhood(2, 1, include_self=True)
        assert self._builds_for((3, 3), None, bigger, 4) == 1


class TestConcurrentRanks:
    def test_rank_threads_share_one_build(self):
        """Under the engine all p isomorphic rank threads need the same
        schedule; exactly one build must happen."""

        def fn(cart):
            t = cart.nbh.t
            send = np.full(t * 4, cart.rank, np.uint8)
            recv = np.zeros(t * 4, np.uint8)
            cart.alltoall(send, recv, algorithm="combining")
            first = _lookups(cart)
            cart.alltoall(send, recv, algorithm="combining")
            return first

        firsts = run_cartesian((4, 4), NBH, fn, info=STATS)
        info = schedule_cache.cache_info()
        assert info.builds == 1
        _assert_one_builder_and_its_siblings(firsts, info)

    def test_stats_cache_counters(self):
        def fn(cart):
            t = cart.nbh.t
            send = np.zeros(t * 4, np.uint8)
            recv = np.zeros(t * 4, np.uint8)
            cart.alltoall(send, recv, algorithm="combining")
            cart.alltoall(send, recv, algorithm="combining")
            s = cart.stats
            return (s.cache_hits, s.cache_misses, s.cache_build_seconds)

        results = run_cartesian(
            (3, 3), NBH, fn, info={"collect_stats": True}
        )
        # every rank saw 2 lookups; at most one rank paid a build
        assert all(h + m == 2 for h, m, _ in results)
        builders = [m for _, m, _ in results if m]
        assert sum(builders) == 1
        total_build = sum(b for _, _, b in results)
        assert total_build >= 0.0

    def test_summary_mentions_cache(self):
        def fn(cart):
            t = cart.nbh.t
            cart.alltoall(
                np.zeros(t, np.uint8), np.zeros(t, np.uint8),
                algorithm="trivial",
            )
            return cart.stats.summary()

        out = run_cartesian((3, 3), NBH, fn, info={"collect_stats": True})
        assert "schedule cache" in out[0]


class TestSharding:
    """The one lock covers look-ups and filing, never a build: builds
    of distinct keys overlap in time."""

    def _build_all_at_once(self, n):
        cache = ScheduleCache(maxsize=512)
        overlap = threading.Barrier(n, timeout=10)

        def build():
            overlap.wait()  # every builder inside its build() at once
            return object()

        threads = [
            threading.Thread(
                target=lambda i=i: cache.get_or_build(("k", i), build)
            )
            for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        info = cache.info()
        assert info.builds == n and info.misses == n and info.currsize == n

    def test_distinct_keys_build_concurrently(self):
        self._build_all_at_once(2)

    def test_eight_distinct_keys_build_concurrently(self):
        self._build_all_at_once(8)


class _TracksPlans:
    """Stand-in entry recording clear_plans() calls (what eviction and
    stale-build discard must trigger)."""

    def __init__(self):
        self.plans_cleared = 0

    def clear_plans(self):
        self.plans_cleared += 1


class TestEvictionRacingBuilds:
    def test_clear_during_build_is_not_resurrected(self):
        """A build finishing after clear() must hand its result to the
        caller but never file it (no stale resurrection), and must drop
        the result's compiled plans (no leaked plans)."""
        cache = ScheduleCache(maxsize=8)
        in_build = threading.Event()
        release = threading.Event()
        entry = _TracksPlans()
        results = {}

        def build():
            in_build.set()
            assert release.wait(timeout=10)
            return entry

        def worker():
            results["out"] = cache.get_or_build(("slow",), build)

        t = threading.Thread(target=worker)
        t.start()
        assert in_build.wait(timeout=10)
        cache.clear()  # invalidation races the in-flight build
        release.set()
        t.join(timeout=10)
        sched, hit, secs = results["out"]
        assert sched is entry and not hit
        # not resurrected: the cache stayed empty and a fresh request
        # rebuilds
        assert len(cache) == 0
        assert cache.get(("slow",)) is None
        # no leaked plans: the stale result's plans were dropped
        assert entry.plans_cleared == 1

    def test_build_without_clear_is_cached_and_keeps_plans(self):
        cache = ScheduleCache(maxsize=8)
        entry = _TracksPlans()
        sched, hit, _ = cache.get_or_build(("k",), lambda: entry)
        assert sched is entry and not hit
        assert entry.plans_cleared == 0
        assert cache.get(("k",)) is entry

    def test_lru_eviction_drops_plans(self):
        cache = ScheduleCache(maxsize=2)
        entries = [_TracksPlans() for _ in range(3)]
        for i, e in enumerate(entries):
            cache.get_or_build(("k", i), lambda e=e: e)
        assert entries[0].plans_cleared == 1  # evicted
        assert entries[1].plans_cleared == 0
        assert entries[2].plans_cleared == 0

    def test_waiters_of_a_stale_build_get_a_fresh_one(self):
        """Threads coalesced onto a build that goes stale are not fed
        the stale object from the cache: its result is never filed, the
        waiters re-check, and one of them rebuilds *after* the
        invalidation — the entry that ends up cached is the post-clear
        build, with the stale build's plans dropped."""
        cache = ScheduleCache(maxsize=8)
        in_build = threading.Event()
        release = threading.Event()
        built = []
        results = []
        lock = threading.Lock()

        def build():
            with lock:
                entry = _TracksPlans()
                built.append(entry)
            if len(built) == 1:
                in_build.set()
                assert release.wait(timeout=10)
            return entry

        def worker():
            out = cache.get_or_build(("slow",), build)
            with lock:
                results.append(out)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads[0].start()
        assert in_build.wait(timeout=10)
        for t in threads[1:]:
            t.start()
        time.sleep(0.05)  # let the others park on the in-flight event
        cache.clear()
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert len(results) == 4
        # exactly one rebuild after the invalidation, shared by waiters
        assert len(built) == 2
        stale, fresh = built
        assert stale.plans_cleared == 1  # discarded, plans dropped
        assert fresh.plans_cleared == 0
        assert cache.get(("slow",)) is fresh  # no stale resurrection
        assert sum(1 for out in results if out[0] is stale) == 1
        assert sum(1 for out in results if out[0] is fresh) == 3

    def test_schedule_plans_invalidated_by_cache_clear_mid_compile(self):
        """The plan layer's generation guard: a plan compile racing
        clear_plans() is returned but never cached, so the invalidation
        cannot leak a plan into the schedule's cache."""
        from repro.core import plan as plan_mod
        from repro.core.topology import CartTopology

        nbh = NBH
        sizes = [8] * nbh.t
        sched = build_alltoall_schedule(
            nbh,
            list(uniform_block_layout(sizes, "send")),
            list(uniform_block_layout(sizes, "recv")),
        )
        sched.prepare()
        topo = CartTopology((3, 3), (True, True))
        byte_sizes = {
            "send": sum(sizes),
            "recv": sum(sizes),
            "temp": max(1, sched.temp_nbytes),
        }
        plan, hit = plan_mod.get_or_compile(sched, topo, 0, sizes=byte_sizes)
        assert not hit
        assert len(sched._plans) == 1
        generation = sched._plans_generation
        sched.clear_plans()
        assert sched._plans == {}
        assert sched._plans_generation == generation + 1
        plan2, hit2 = plan_mod.get_or_compile(sched, topo, 0, sizes=byte_sizes)
        assert not hit2 and plan2 is not plan
