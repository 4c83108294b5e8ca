"""The one ``Schedule.kind`` → builder table.

Every place that turns a name into a schedule — the communicator's
bind functions, the schedule daemon, the verifier's sweep, the halo
baselines — indexes :data:`SCHEDULE_BUILDERS`.  Data-movement builders
take ``(nbh, send, recv)`` (``send`` a single block set for the
allgather kinds, one per neighbor for alltoall); reduction builders take
``(nbh, m_bytes=, dtype=, op=)``.
"""

from __future__ import annotations

from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.reduce_schedule import (
    build_allreduce_schedule,
    build_reduce_scatter_schedule,
    build_reduce_schedule,
    build_trivial_reduce_scatter_schedule,
    build_trivial_reduce_schedule,
)
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)

SCHEDULE_BUILDERS = {
    "alltoall": build_alltoall_schedule,
    "trivial-alltoall": build_trivial_alltoall_schedule,
    "direct-alltoall": build_direct_alltoall_schedule,
    "allgather": build_allgather_schedule,
    "trivial-allgather": build_trivial_allgather_schedule,
    "direct-allgather": build_direct_allgather_schedule,
    "reduce": build_reduce_schedule,
    "reduce-scatter": build_reduce_scatter_schedule,
    "allreduce": build_allreduce_schedule,
    "trivial-reduce": build_trivial_reduce_schedule,
    "trivial-reduce-scatter": build_trivial_reduce_scatter_schedule,
}


def schedule_kind(op: str, algorithm: str) -> str:
    """``Schedule.kind`` of operation ``op`` under a resolved algorithm
    (the message-combining schedules carry the bare operation name)."""
    return op if algorithm == "combining" else f"{algorithm}-{op}"


def algorithm_of(kind: str) -> str:
    """Inverse of :func:`schedule_kind`: the algorithm a kind names."""
    prefix = kind.split("-", 1)[0]
    return prefix if prefix in ("trivial", "direct") else "combining"
