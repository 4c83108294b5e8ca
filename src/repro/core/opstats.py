"""Per-communicator operation statistics.

Production observability for the library: every Cartesian collective
execution records what it did — operation kind, algorithm, executing
backend, rounds, volume — so applications can audit their communication
behaviour (e.g. confirm that ``algorithm="auto"`` picked the expected
side of the cut-off across an application run, or that a run really
executed on the backend it was configured for) without external
tracing.

Recording is one :meth:`OpStats.record_execution` call per rank and
collective, or one for many (a handful of dictionary updates); it is enabled per
communicator via ``info={"collect_stats": True}`` or
:meth:`repro.core.cartcomm.CartComm.enable_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from repro.mpisim.faults import FaultEvent

#: Backend recorded when the caller does not say (the historical default
#: execution mode).
DEFAULT_BACKEND = "threaded"


@dataclass
class OpRecord:
    """Aggregate counters for one (operation, algorithm, backend)
    triple."""

    calls: int = 0
    rounds: int = 0
    volume_blocks: int = 0
    volume_bytes: int = 0

    def add(self, rounds: int, volume_blocks: int, volume_bytes: int, n: int = 1) -> None:
        self.calls += n
        self.rounds += n * rounds
        self.volume_blocks += n * volume_blocks
        self.volume_bytes += n * volume_bytes

    def merge(self, other: "OpRecord") -> None:
        self.calls += other.calls
        self.rounds += other.rounds
        self.volume_blocks += other.volume_blocks
        self.volume_bytes += other.volume_bytes


@dataclass
class OpStats:
    """All counters of one communicator."""

    #: (op, algorithm, backend) -> :class:`OpRecord`
    records: dict = field(default_factory=dict)
    #: schedule-cache observability: how often this communicator's
    #: collectives reused a cached schedule vs. built one, and the
    #: cumulative build time it paid on misses.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_build_seconds: float = 0.0
    #: per-backend split of the cache hit/miss counters:
    #: backend name -> [hits, misses]
    cache_by_backend: dict = field(default_factory=dict)
    #: plan-cache observability (see :mod:`repro.core.plan`): how often
    #: executions reused the schedule's lowered plan vs. compiled it.
    plan_hits: int = 0
    plan_misses: int = 0
    #: per-backend split of the plan counters: backend -> [hits, misses]
    plan_by_backend: dict = field(default_factory=dict)
    #: data-movement accounting per executing backend: wire bytes packed
    #: by this rank's executions and bytes moved by the local-copy phase
    bytes_packed: dict = field(default_factory=dict)
    bytes_copied: dict = field(default_factory=dict)
    #: injected-fault observability: counts per fault kind survived or
    #: failed under (filled from the engine's fault-event log, e.g. by
    #: the chaos harness).
    faults: dict = field(default_factory=dict)

    def record_fault(self, kind: str, n: int = 1) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + n

    def record_fault_events(self, events: Iterable["FaultEvent"]) -> None:
        """Fold an engine's fault-event log into the counters."""
        for event in events:
            self.record_fault(event.kind)

    def record_cache(
        self,
        hit: bool,
        build_seconds: float = 0.0,
        backend: str = DEFAULT_BACKEND,
        n: int = 1,
    ) -> None:
        split = self.cache_by_backend.setdefault(backend, [0, 0])
        if hit:
            self.cache_hits += n
            split[0] += n
        else:
            self.cache_misses += n
            split[1] += n
            self.cache_build_seconds += build_seconds

    def _record(self, key: tuple) -> OpRecord:
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = OpRecord()
        return rec

    def record_execution(
        self,
        op: str,
        algorithm: str,
        backend: str,
        totals: Sequence[int],
        plan_hit: bool,
        packed: int,
        copied: int,
        n: int = 1,
    ) -> None:
        """Account ``n`` completed executions: each its ``(rounds,
        blocks, bytes)`` ``totals`` under ``(op, algorithm, backend)`` and
        its one plan lookup; all of them the wire bytes packed and the
        bytes their local copies moved on this rank."""
        self._record((op, algorithm, backend)).add(*totals[:3], n=n)
        split = self.plan_by_backend.setdefault(backend, [0, 0])
        if plan_hit:
            self.plan_hits += n
            split[0] += n
        else:
            self.plan_misses += n
            split[1] += n
        if packed:
            self.bytes_packed[backend] = self.bytes_packed.get(backend, 0) + packed
        if copied:
            self.bytes_copied[backend] = self.bytes_copied.get(backend, 0) + copied

    def record_raw(
        self,
        op: str,
        algorithm: str,
        rounds: int,
        blocks: int,
        nbytes: int,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self._record((op, algorithm, backend)).add(rounds, blocks, nbytes)

    # ------------------------------------------------------------------
    @property
    def total_calls(self) -> int:
        return sum(r.calls for r in self.records.values())

    @property
    def total_rounds(self) -> int:
        return sum(r.rounds for r in self.records.values())

    @property
    def total_bytes(self) -> int:
        return sum(r.volume_bytes for r in self.records.values())

    def by_operation(self, op: str) -> dict:
        """Counters of one operation per algorithm, aggregated across
        backends (the pre-backend view most callers want)."""
        out: dict[str, OpRecord] = {}
        for key, rec in self.records.items():
            if key[0] != op:
                continue
            agg = out.get(key[1])
            if agg is None:
                agg = out[key[1]] = OpRecord()
            agg.merge(rec)
        return out

    def by_backend(self) -> dict:
        """Aggregate counters per executing backend."""
        out: dict[str, OpRecord] = {}
        for key, rec in self.records.items():
            agg = out.get(key[2])
            if agg is None:
                agg = out[key[2]] = OpRecord()
            agg.merge(rec)
        return out

    def merge_from(self, other: "OpStats") -> None:
        """Fold another collector into this one (used by the app layer
        to aggregate the per-rank communicators of one virtual job)."""
        for key, rec in other.records.items():
            self._record(key).merge(rec)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_build_seconds += other.cache_build_seconds
        for backend, (hits, misses) in other.cache_by_backend.items():
            split = self.cache_by_backend.setdefault(backend, [0, 0])
            split[0] += hits
            split[1] += misses
        self.plan_hits += other.plan_hits
        self.plan_misses += other.plan_misses
        for backend, (hits, misses) in other.plan_by_backend.items():
            split = self.plan_by_backend.setdefault(backend, [0, 0])
            split[0] += hits
            split[1] += misses
        for backend, n in other.bytes_packed.items():
            self.bytes_packed[backend] = self.bytes_packed.get(backend, 0) + n
        for backend, n in other.bytes_copied.items():
            self.bytes_copied[backend] = self.bytes_copied.get(backend, 0) + n
        for kind, n in other.faults.items():
            self.record_fault(kind, n)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """A JSON-compatible dict of every counter — the wire form of
        the telemetry endpoint (:mod:`repro.serve`) and the benchmark
        artifacts.  Round-trips exactly through :meth:`from_json`
        (tuple record keys become explicit fields)."""
        return {
            "records": [
                {
                    "op": op,
                    "algorithm": alg,
                    "backend": backend,
                    "calls": rec.calls,
                    "rounds": rec.rounds,
                    "volume_blocks": rec.volume_blocks,
                    "volume_bytes": rec.volume_bytes,
                }
                for (op, alg, backend), rec in sorted(self.records.items())
            ],
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "build_seconds": self.cache_build_seconds,
                "by_backend": {
                    backend: list(split)
                    for backend, split in sorted(self.cache_by_backend.items())
                },
            },
            "plans": {
                "hits": self.plan_hits,
                "misses": self.plan_misses,
                "by_backend": {
                    backend: list(split)
                    for backend, split in sorted(self.plan_by_backend.items())
                },
            },
            "bytes_packed": dict(sorted(self.bytes_packed.items())),
            "bytes_copied": dict(sorted(self.bytes_copied.items())),
            "faults": dict(sorted(self.faults.items())),
        }

    @classmethod
    def from_json(cls, data: dict) -> "OpStats":
        """Rebuild a collector from :meth:`to_json` output (telemetry
        consumers aggregating server snapshots with ``merge_from``)."""
        stats = cls()
        for rec in data.get("records", ()):
            key = (str(rec["op"]), str(rec["algorithm"]), str(rec["backend"]))
            stats.records[key] = OpRecord(
                *(int(rec[f]) for f in ("calls", "rounds", "volume_blocks", "volume_bytes"))
            )
        cache = data.get("cache", {})
        stats.cache_hits = int(cache.get("hits", 0))
        stats.cache_misses = int(cache.get("misses", 0))
        stats.cache_build_seconds = float(cache.get("build_seconds", 0.0))
        stats.cache_by_backend = {
            str(b): [int(h), int(m)]
            for b, (h, m) in cache.get("by_backend", {}).items()
        }
        plans = data.get("plans", {})
        stats.plan_hits = int(plans.get("hits", 0))
        stats.plan_misses = int(plans.get("misses", 0))
        stats.plan_by_backend = {
            str(b): [int(h), int(m)]
            for b, (h, m) in plans.get("by_backend", {}).items()
        }
        stats.bytes_packed = {
            str(b): int(n) for b, n in data.get("bytes_packed", {}).items()
        }
        stats.bytes_copied = {
            str(b): int(n) for b, n in data.get("bytes_copied", {}).items()
        }
        stats.faults = {
            str(k): int(n) for k, n in data.get("faults", {}).items()
        }
        return stats

    def summary(self) -> str:
        if not self.records:
            return "no collective operations recorded"
        lines = [
            f"{self.total_calls} collective calls, {self.total_rounds} "
            f"communication rounds, {self.total_bytes} bytes sent per process"
        ]
        for (op, alg, backend), rec in sorted(self.records.items()):
            lines.append(
                f"  {op:12s} [{alg:9s}/{backend:8s}] calls={rec.calls:4d} "
                f"rounds={rec.rounds:6d} blocks={rec.volume_blocks:8d} "
                f"bytes={rec.volume_bytes}"
            )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  schedule cache: {self.cache_hits} hits / "
                f"{self.cache_misses} misses, "
                f"{self.cache_build_seconds * 1e3:.3f} ms building"
            )
        if self.plan_hits or self.plan_misses:
            lines.append(
                f"  execution plans: {self.plan_hits} hits / "
                f"{self.plan_misses} compiles"
            )
        for backend in sorted(set(self.bytes_packed) | set(self.bytes_copied)):
            lines.append(
                f"  data moved [{backend}]: "
                f"{self.bytes_packed.get(backend, 0)} B packed, "
                f"{self.bytes_copied.get(backend, 0)} B copied locally"
            )
        if self.faults:
            injected = ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.faults.items())
            )
            lines.append(f"  injected faults: {injected}")
        return "\n".join(lines)

    def reset(self) -> None:
        self.records.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_build_seconds = 0.0
        self.cache_by_backend.clear()
        self.plan_hits = 0
        self.plan_misses = 0
        self.plan_by_backend.clear()
        self.bytes_packed.clear()
        self.bytes_copied.clear()
        self.faults.clear()
