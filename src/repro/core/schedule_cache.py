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
signature)`` in a bounded LRU shared by the whole process: one lock, one
``OrderedDict``.  The lock covers look-ups and filing only; a build runs
outside it, so builds of distinct keys overlap in time.  Concurrent
requests for the same key are coalesced: exactly one thread builds, the
rest wait on its flight and share the result (or its error).  Cached
schedules are *finalized* (:meth:`~repro.core.schedule.Schedule.prepare`)
so the coalesced-copy plans are computed once at build time, not per
call.

**Eviction racing a build.**  If the cache was invalidated (``clear``)
while a build ran, the finished schedule must not be resurrected: a
generation counter is bumped on ``clear``, and a builder only files its
result when the generation it started under still stands.  A stale
result is returned to its caller (it is a correct schedule for the
request) but never cached, and its compiled plans are dropped so the
invalidation cannot leak them.

The cache is observable via :func:`cache_info` (hits, misses, builds,
cumulative build time) and per communicator through the ``OpStats``
cache counters; :func:`cache_clear` empties it (tests, long-running
services rotating neighborhoods).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, namedtuple
from typing import Callable, Optional, Sequence

from repro.core.neighborhood import Neighborhood
from repro.mpisim.datatypes import BlockSet

#: Default number of distinct schedules kept.  Each entry is small (block
#: descriptions, not data), so the bound exists to keep pathological
#: workloads (e.g. a sweep over thousands of block sizes) from growing
#: without limit, not to save memory in the common case.
DEFAULT_MAXSIZE = 512

CacheInfo = namedtuple(
    "CacheInfo",
    ["hits", "misses", "builds", "build_seconds", "currsize", "maxsize"],
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


class ScheduleCache:
    """A bounded, thread-safe LRU of immutable schedules with
    single-flight builds (one construction per key, however many rank
    threads ask concurrently)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        #: key -> the build in flight (single-flight coalescing)
        self._building: dict[tuple, _Flight] = {}
        self._hits = 0
        self._misses = 0
        self._builds = 0
        self._build_seconds = 0.0
        #: bumped by ``clear`` so builders that started before an
        #: invalidation never file their result afterwards
        self._generation = 0

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
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry, True, 0.0
                pending = self._building.get(key)
                if pending is None:
                    # this thread builds; others will wait on the flight
                    pending = self._building[key] = _Flight()
                    self._misses += 1
                    generation = self._generation
                    break
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
            with self._lock:
                self._builds += 1
                self._build_seconds += elapsed
                stale = self._generation != generation
                if not stale:
                    self._entries[key] = sched
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.maxsize:
                        _discard(self._entries.popitem(last=False)[1])
            if stale:
                # the cache was invalidated while we built: do not
                # resurrect the entry, and drop any plans compiled
                # against it so the invalidation cannot leak them
                _discard(sched)
            return sched, False, elapsed
        except Exception as exc:
            pending.error = exc
            raise
        finally:
            with self._lock:
                self._building.pop(key, None)
            pending.set()

    def get(self, key: tuple) -> Optional[object]:
        """Plain lookup (no build, no waiting); counts a hit or miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            else:
                self._misses += 1
            return entry

    # ------------------------------------------------------------------
    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                builds=self._builds,
                build_seconds=self._build_seconds,
                currsize=len(self._entries),
                maxsize=self.maxsize,
            )

    def clear(self) -> None:
        with self._lock:
            for entry in self._entries.values():
                _discard(entry)
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._builds = 0
            self._build_seconds = 0.0
            self._generation += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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


def cache_clear() -> None:
    """Empty the process-wide schedule cache and reset its counters."""
    GLOBAL_CACHE.clear()
