"""Communication tracing.

When an :class:`~repro.mpisim.engine.Engine` is created with
``tracing=True``, every communicator records its point-to-point operations
as :class:`TraceEvent` entries.  Traces serve two purposes:

1. tests assert the *round structure* of a schedule execution (how many
   messages, of what sizes, in which phases) without re-deriving it from
   the implementation;
2. :mod:`repro.netsim` replays traces through a LogGP machine model to
   produce the modeled completion times used for Figures 3–7.

The event vocabulary matches what the network simulator can interpret:

``isend`` / ``irecv``
    a non-blocking operation was initiated (peer rank and payload bytes);
``waitall``
    the rank blocked until all initiated operations since the previous
    ``waitall`` completed (Listing 5's phase barrier);
``local``
    rank-local work attributed to the collective (block copies for the
    self-neighbor phase);
``mark``
    a free-form annotation (phase boundaries, collective names);
``fault``
    an injected fault (:mod:`repro.mpisim.faults`) attributed to the
    affected rank — annotation only, ignored by the network model.

Blocking operations are recorded in terms of the non-blocking vocabulary
(``sendrecv`` = isend + irecv + waitall), which is also how they are
implemented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded communication event of a single rank."""

    kind: str  # "isend" | "irecv" | "waitall" | "local" | "mark" | "fault"
    peer: Optional[int] = None
    nbytes: int = 0
    tag: Optional[int] = None
    note: str = ""


class TraceRecorder:
    """Collects the per-rank event streams of one engine run."""

    def __init__(self, nranks: int):
        self.events: list[list[TraceEvent]] = [[] for _ in range(nranks)]

    def record(self, rank: int, event: TraceEvent) -> None:
        self.events[rank].append(event)

    def for_rank(self, rank: int) -> list[TraceEvent]:
        return self.events[rank]

    def clear(self) -> None:
        for stream in self.events:
            stream.clear()

    # ------------------------------------------------------------------
    # convenience queries used by tests
    # ------------------------------------------------------------------
    def message_count(self, rank: int, kind: str = "isend") -> int:
        return sum(1 for e in self.events[rank] if e.kind == kind)

    def bytes_sent(self, rank: int) -> int:
        return sum(e.nbytes for e in self.events[rank] if e.kind == "isend")

    def bytes_received(self, rank: int) -> int:
        return sum(e.nbytes for e in self.events[rank] if e.kind == "irecv")

    def phases(self, rank: int) -> list[list[TraceEvent]]:
        """Split a rank's stream into waitall-delimited groups."""
        groups: list[list[TraceEvent]] = [[]]
        for e in self.events[rank]:
            if e.kind == "waitall":
                groups.append([])
            elif e.kind not in ("mark", "fault"):
                groups[-1].append(e)
        if groups and not groups[-1]:
            groups.pop()
        return groups
