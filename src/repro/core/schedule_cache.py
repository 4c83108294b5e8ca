"""Process-wide cache of communication schedules.

Proposition 3.1 makes schedules cheap — O(td), locally computable — but
"cheap" still means bucket sorts, routing-tree construction and
:class:`~repro.mpisim.datatypes.BlockSet` assembly on every collective
call.  Two observations make a process-wide cache both sound and
profitable:

* schedules are **pure data**: they depend only on the schedule kind,
  the neighborhood, the Cartesian layout, and the byte layout of the
  block descriptions — never on the calling rank (the executing rank is
  resolved at execution time);
* schedules are **isomorphic**: by the Cartesian requirement every rank
  of a communicator needs the *identical* schedule object, so under the
  threaded engine ``p`` rank threads would otherwise build ``p``
  identical copies.

This module therefore keeps one immutable schedule per canonical
fingerprint ``(kind, neighborhood, dims/periods, block-layout
signature)`` in a bounded, thread-safe LRU shared by the whole process.
Concurrent requests for the same key are coalesced: exactly one thread
builds, the rest wait and share the result.  Cached schedules are
*finalized* (:meth:`~repro.core.schedule.Schedule.prepare`) so the
coalesced-copy plans are computed once at build time, not per call.

**Sharding.**  The cache is split into independent shards, each with its
own lock and LRU chain; a key's shard is a stable hash of the canonical
fingerprint.  Concurrent lookups and builds for *different* keys no
longer contend on one global lock — the hot path of the schedule
service (:mod:`repro.serve`), where thousands of client connections
resolve keys at once, and of the in-process path for every backend.
Single-flight semantics and the plan-invalidation hook are per shard and
unchanged: one build per key, eviction drops a schedule's compiled
plans.  Caches too small to shard meaningfully (``maxsize`` below
``MIN_ENTRIES_PER_SHARD`` per shard) collapse to a single shard and
behave exactly like the historical global-LRU cache; with several
shards, the LRU bound is partitioned over the shards so eviction is
approximate-global (exact within each shard).

**Eviction racing a build.**  A build completes *outside* the shard
lock.  If the shard was invalidated meanwhile (``clear``), the finished
schedule must not be resurrected into the cache: every shard carries a
generation counter, bumped on ``clear``, and a builder only files its
result when the generation it started under still stands.  A stale
result is returned to its caller (it is a correct schedule for the
request) but never cached, and its compiled plans are dropped so the
invalidation cannot leak them.

The cache is observable via :func:`cache_info` (hits, misses, builds,
cumulative build time, shard count, lock contention) and per
communicator through the ``OpStats`` cache counters; :func:`cache_clear`
empties it (tests, long-running services rotating neighborhoods).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, namedtuple
from typing import Callable, List, Optional, Sequence

from repro.core.neighborhood import Neighborhood
from repro.mpisim.datatypes import BlockSet

#: Default number of distinct schedules kept.  Each entry is small (block
#: descriptions, not data), so the bound exists to keep pathological
#: workloads (e.g. a sweep over thousands of block sizes) from growing
#: without limit, not to save memory in the common case.
DEFAULT_MAXSIZE = 512

#: Default shard count (``ScheduleCache(shards=)`` overrides).  Eight locks
#: is plenty for the thread counts the backends fork; the count is
#: clamped so every shard keeps at least ``MIN_ENTRIES_PER_SHARD``
#: entries — tiny caches degenerate to one shard (exact global LRU).
DEFAULT_SHARDS = 8
MIN_ENTRIES_PER_SHARD = 64

CacheInfo = namedtuple(
    "CacheInfo",
    [
        "hits",
        "misses",
        "builds",
        "build_seconds",
        "currsize",
        "maxsize",
        "shards",
        "contended",
    ],
)

ShardInfo = namedtuple(
    "ShardInfo",
    ["hits", "misses", "builds", "currsize", "maxsize", "contended"],
)


def _discard(entry: object) -> None:
    """Invalidate an entry leaving the cache: lowered execution plans
    (see :mod:`repro.core.plan`) live on the schedule object and share
    its cache lifetime, so they are dropped with it — a stale schedule
    still referenced elsewhere recompiles its plans on next use."""
    clear_plans = getattr(entry, "clear_plans", None)
    if clear_plans is not None:
        clear_plans()


def neighborhood_fingerprint(nbh: Neighborhood) -> tuple:
    """A hashable canonical identity for a neighborhood: the shape rides
    along with the raw offset bytes (two different t×d shapes can share
    a byte string), plus the weights (ignored by the algorithms, but
    kept so a cached schedule's attached neighborhood round-trips)."""
    return (nbh.t, nbh.d, nbh.offsets.tobytes(), nbh.weights)


def layout_signature(blocksets: Sequence[BlockSet]) -> tuple:
    """Canonical identity of a per-neighbor layout: each block set's
    exact ordered (buffer, offset, nbytes) triples (cached on it)."""
    return tuple(bs.signature() for bs in blocksets)


def schedule_key(
    kind: str,
    nbh: Neighborhood,
    layout_sig: tuple,
    dims: Optional[tuple] = None,
    periods: Optional[tuple] = None,
) -> tuple:
    """The canonical cache fingerprint.  ``dims``/``periods`` are part of
    the key so communicators with different Cartesian layouts never
    share an entry (schedule *selection* depends on periodicity even
    where schedule content does not)."""
    return (
        kind,
        neighborhood_fingerprint(nbh),
        dims,
        periods,
        layout_sig,
    )


class _Flight(threading.Event):
    """One in-flight build of a key: set when it ends, however it ends.
    A build or verification that raised leaves its exception here, for
    the callers that waited on *this* flight; a later call starts a new
    one."""

    error: Optional[Exception] = None


class _Shard:
    """One independent LRU region: its own lock, entries, in-flight
    builds, counters, and invalidation generation."""

    __slots__ = (
        "lock",
        "entries",
        "building",
        "maxsize",
        "hits",
        "misses",
        "builds",
        "build_seconds",
        "contended",
        "generation",
    )

    def __init__(self, maxsize: int) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[tuple, object] = OrderedDict()
        #: key -> the build in flight (single-flight coalescing)
        self.building: dict[tuple, _Flight] = {}
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_seconds = 0.0
        #: lock acquisitions that found the lock held (the contention
        #: signal sharding exists to reduce; exported to telemetry)
        self.contended = 0
        #: bumped by ``clear`` so builders that started before an
        #: invalidation never file their result afterwards
        self.generation = 0

    def acquire(self) -> None:
        if not self.lock.acquire(blocking=False):
            self.contended += 1  # benign race: it is a statistic
            self.lock.acquire()

    def evict_over_bound(self) -> None:
        """Pop LRU entries above the bound (call with the lock held)."""
        while len(self.entries) > self.maxsize:
            _discard(self.entries.popitem(last=False)[1])


class ScheduleCache:
    """A bounded, thread-safe, sharded LRU of immutable schedules with
    single-flight builds (one construction per key, however many rank
    threads ask concurrently)."""

    def __init__(
        self, maxsize: int = DEFAULT_MAXSIZE, shards: Optional[int] = None
    ):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        requested = DEFAULT_SHARDS if shards is None else int(shards)
        if requested <= 0:
            raise ValueError("shards must be positive")
        if shards is None:
            # auto mode: never shard below MIN_ENTRIES_PER_SHARD entries
            # per shard, so small caches keep exact global LRU order
            requested = min(requested, max(1, maxsize // MIN_ENTRIES_PER_SHARD))
        nshards = min(requested, maxsize)
        self.maxsize = maxsize
        self._shards: List[_Shard] = [
            _Shard(self._shard_bound(maxsize, i, nshards))
            for i in range(nshards)
        ]

    @staticmethod
    def _shard_bound(maxsize: int, index: int, nshards: int) -> int:
        """Partition ``maxsize`` over the shards (sum is exact)."""
        base, extra = divmod(maxsize, nshards)
        return base + (1 if index < extra else 0)

    def _shard_of(self, key: tuple) -> _Shard:
        return self._shards[hash(key) % len(self._shards)]

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        key: tuple,
        build: Callable[[], object],
        verify: Optional[Callable[[object], None]] = None,
    ) -> tuple[object, bool, float]:
        """Return ``(schedule, hit, build_seconds)``.

        ``hit`` is True when the schedule came from the cache (including
        waiting on another thread's in-flight build); ``build_seconds``
        is non-zero only for the thread that actually built.

        ``verify``, when given, runs once on a freshly built schedule
        inside the single-flight section (the ``verify_on_build`` hook):
        if it (or the build) raises, the entry is *not* cached and the
        error propagates to every caller of this key's in-flight build —
        a defective schedule never enters the cache, and is rejected
        once, not once per waiting rank.  The next call builds anew.
        """
        shard = self._shard_of(key)
        while True:
            shard.acquire()
            try:
                entry = shard.entries.get(key)
                if entry is not None:
                    shard.entries.move_to_end(key)
                    shard.hits += 1
                    return entry, True, 0.0
                pending = shard.building.get(key)
                if pending is None:
                    # this thread builds; others will wait on the flight
                    pending = shard.building[key] = _Flight()
                    shard.misses += 1
                    generation = shard.generation
                    break
            finally:
                shard.lock.release()
            # another thread is building this key: wait, share its
            # failure, else re-check
            pending.wait()
            if pending.error is not None:
                raise pending.error

        try:
            t0 = time.perf_counter()
            sched = build()
            elapsed = time.perf_counter() - t0
            prepare = getattr(sched, "prepare", None)
            if prepare is not None:
                prepare()
            if verify is not None:
                verify(sched)
            shard.acquire()
            try:
                shard.builds += 1
                shard.build_seconds += elapsed
                if shard.generation == generation:
                    shard.entries[key] = sched
                    shard.entries.move_to_end(key)
                    shard.evict_over_bound()
                    stale = False
                else:
                    # the shard was invalidated while we built: do not
                    # resurrect the entry, and drop any plans compiled
                    # against it so the invalidation cannot leak them
                    stale = True
            finally:
                shard.lock.release()
            if stale:
                _discard(sched)
            return sched, False, elapsed
        except Exception as exc:
            pending.error = exc
            raise
        finally:
            shard.acquire()
            try:
                shard.building.pop(key, None)
            finally:
                shard.lock.release()
            pending.set()

    def get(self, key: tuple) -> Optional[object]:
        """Plain lookup (no build, no waiting); counts a hit or miss."""
        shard = self._shard_of(key)
        shard.acquire()
        try:
            entry = shard.entries.get(key)
            if entry is not None:
                shard.entries.move_to_end(key)
                shard.hits += 1
            else:
                shard.misses += 1
            return entry
        finally:
            shard.lock.release()

    # ------------------------------------------------------------------
    def info(self) -> CacheInfo:
        hits = misses = builds = currsize = contended = 0
        build_seconds = 0.0
        for shard in self._shards:
            shard.acquire()
            try:
                hits += shard.hits
                misses += shard.misses
                builds += shard.builds
                build_seconds += shard.build_seconds
                currsize += len(shard.entries)
                contended += shard.contended
            finally:
                shard.lock.release()
        return CacheInfo(
            hits=hits,
            misses=misses,
            builds=builds,
            build_seconds=build_seconds,
            currsize=currsize,
            maxsize=self.maxsize,
            shards=len(self._shards),
            contended=contended,
        )

    def shard_info(self) -> list[ShardInfo]:
        """Per-shard counters (telemetry: hot-shard / contention view)."""
        out = []
        for shard in self._shards:
            shard.acquire()
            try:
                out.append(
                    ShardInfo(
                        hits=shard.hits,
                        misses=shard.misses,
                        builds=shard.builds,
                        currsize=len(shard.entries),
                        maxsize=shard.maxsize,
                        contended=shard.contended,
                    )
                )
            finally:
                shard.lock.release()
        return out

    def clear(self) -> None:
        for shard in self._shards:
            shard.acquire()
            try:
                for entry in shard.entries.values():
                    _discard(entry)
                shard.entries.clear()
                shard.hits = 0
                shard.misses = 0
                shard.builds = 0
                shard.build_seconds = 0.0
                shard.contended = 0
                shard.generation += 1
            finally:
                shard.lock.release()

    def resize(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        nshards = len(self._shards)
        for i, shard in enumerate(self._shards):
            shard.acquire()
            try:
                shard.maxsize = self._shard_bound(maxsize, i, nshards)
                shard.evict_over_bound()
            finally:
                shard.lock.release()

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            shard.acquire()
            try:
                total += len(shard.entries)
            finally:
                shard.lock.release()
        return total


#: The process-wide instance shared by every communicator and runner.
GLOBAL_CACHE = ScheduleCache()


def get_or_build(
    key: tuple,
    build: Callable[[], object],
    verify: Optional[Callable[[object], None]] = None,
) -> tuple[object, bool, float]:
    return GLOBAL_CACHE.get_or_build(key, build, verify)


def cache_info() -> CacheInfo:
    """Counters of the process-wide schedule cache."""
    return GLOBAL_CACHE.info()


def cache_shard_info() -> list[ShardInfo]:
    """Per-shard counters of the process-wide schedule cache."""
    return GLOBAL_CACHE.shard_info()


def cache_clear() -> None:
    """Empty the process-wide schedule cache and reset its counters."""
    GLOBAL_CACHE.clear()


def cache_resize(maxsize: int) -> None:
    """Change the LRU bound of the process-wide cache."""
    GLOBAL_CACHE.resize(maxsize)
