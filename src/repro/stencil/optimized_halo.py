"""Combined halo-exchange schedules (the Section 3.4 extension).

The paper observes that for the stencil pattern of Figure 1 the
message-combining alltoall schedule is *not* volume-optimal: corner
blocks overlap the row/column blocks, so overlapping bytes are sent
multiple times, and proposes *combining schedules* — e.g. "one
irregular alltoall schedule for rows and columns plus four allgather
schedules for the corners" — noting that the schedule representation
(arrays of datatypes and ranks) makes such combinations "both easy and
execution efficient".

This module implements exactly that kind of combined schedule for
halo exchanges, in its classic dimension-ordered *transitive* form:

* phase ``k`` exchanges slabs across dimension ``k`` only (2 rounds:
  +1 and −1);
* a phase-``k`` slab spans the **full extended extent** (interior plus
  already-filled ghosts) of every dimension ``j < k`` and the interior
  of every dimension ``j > k``.

Corner/edge data thus rides inside the face slabs of later phases —
each ghost byte is received exactly once, diagonal neighbors are never
messaged directly, and the schedule has ``2d`` rounds (matching the
message-combining round count for radius-1 Moore neighborhoods) with
**minimal volume**: no byte is sent twice on behalf of overlapping
blocks.

The result is an ordinary :class:`~repro.core.schedule.Schedule`, so it
executes on the threaded engine, the lockstep executor, the network
model and the persistent-handle machinery unchanged — the paper's point
about the representation enabling combination.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.neighborhood import Neighborhood
from repro.core.schedule import Phase, Round, Schedule
from repro.core.stencils import moore_neighborhood
from repro.stencil.halo import halo_specs, region_from_slices


def _slab_slices(
    interior: tuple[int, ...], depth: int, k: int, s: int, side: str
) -> tuple[slice, ...]:
    """The phase-k, direction-s slab (see module docstring)."""
    out = []
    for j, n in enumerate(interior):
        if j < k:
            out.append(slice(0, n + 2 * depth))  # extended: ghosts included
        elif j > k:
            out.append(slice(depth, n + depth))  # interior only
        elif side == "send":
            out.append(
                slice(n, n + depth) if s > 0 else slice(depth, 2 * depth)
            )
        else:  # receive side: the ghost strip toward −s
            out.append(
                slice(0, depth) if s > 0 else slice(n + depth, n + 2 * depth)
            )
    return tuple(out)


def build_combined_halo_schedule(
    interior: Sequence[int],
    depth: int,
    itemsize: int,
    buffer: str = "grid",
) -> Schedule:
    """Dimension-ordered transitive halo exchange: ``2d`` rounds in
    ``d`` phases, minimal volume, corners delivered transitively."""
    interior = tuple(int(x) for x in interior)
    d = len(interior)
    if depth <= 0:
        raise ValueError("halo depth must be positive")
    if any(n < depth for n in interior):
        raise ValueError(f"interior {interior} smaller than halo depth {depth}")
    full = tuple(n + 2 * depth for n in interior)
    phases: list[Phase] = []
    for k in range(d):
        phase = Phase(dim=k)
        for s in (1, -1):
            offset = tuple(s if j == k else 0 for j in range(d))
            send = region_from_slices(
                full, _slab_slices(interior, depth, k, s, "send"), itemsize, buffer
            )
            recv = region_from_slices(
                full, _slab_slices(interior, depth, k, s, "recv"), itemsize, buffer
            )
            phase.rounds.append(
                Round(
                    offset=offset,
                    send_blocks=send,
                    recv_blocks=recv,
                    logical_blocks=1,
                )
            )
        phases.append(phase)
    # the neighborhood this schedule services is the full Moore stencil
    nbh = moore_neighborhood(d, 1, include_self=False)
    return Schedule(
        kind="halo-combined",
        neighborhood=nbh,
        phases=phases,
        local_copies=[],
        temp_nbytes=0,
    )


def plain_halo_schedule(
    interior: Sequence[int],
    depth: int,
    itemsize: int,
    buffer: str = "grid",
    algorithm: str = "direct",
    nbh: Neighborhood | None = None,
) -> Schedule:
    """The baseline for comparison: per-neighbor halo blocks (Listing 3
    style) through the direct / trivial / combining alltoall shapes."""
    from repro.core.builders import SCHEDULE_BUILDERS, schedule_kind

    interior = tuple(int(x) for x in interior)
    if nbh is None:
        nbh = moore_neighborhood(len(interior), 1, include_self=False)
    sends, recvs = halo_specs(interior, depth, nbh, itemsize, buffer)
    return SCHEDULE_BUILDERS[schedule_kind("alltoall", algorithm)](
        nbh, sends, recvs
    )


def halo_volume_comparison(
    interior: Sequence[int], depth: int, itemsize: int
) -> dict[str, dict[str, int]]:
    """Rounds and per-process bytes for the three halo strategies —
    the ablation quantifying Section 3.4's overlap argument."""
    combined = build_combined_halo_schedule(interior, depth, itemsize)
    direct = plain_halo_schedule(interior, depth, itemsize, algorithm="direct")
    combining = plain_halo_schedule(
        interior, depth, itemsize, algorithm="combining"
    )
    return {
        "combined-halo": {
            "rounds": combined.num_rounds,
            "bytes": combined.volume_bytes,
        },
        "direct-per-neighbor": {
            "rounds": direct.num_rounds,
            "bytes": direct.volume_bytes,
        },
        "combining-alltoallw": {
            "rounds": combining.num_rounds,
            "bytes": combining.volume_bytes,
        },
    }
