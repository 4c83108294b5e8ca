"""Schedule verification utilities.

A schedule is pure data, and users can build their own (combined halo
schedules, hand-tuned phase structures, deserialized caches).  These
functions *certify* a schedule against the Cartesian collective
semantics by executing it for **all ranks** — by default on the
per-rank walk (:class:`~repro.core.backend.lockstep.LockstepBackend`
itself, not a registry name: the reference stays independent of the
matrix kernels a ``"batched"`` execution would run), or on any
all-ranks backend given via ``backend=`` — with unique sentinel
contents, checking every receive slot byte-for-byte:

* :func:`verify_alltoall` — receive block ``i`` must equal send block
  ``i`` of process ``(r − N[i]) mod dims``;
* :func:`verify_allgather` — receive block ``i`` must equal the single
  contributed block of process ``(r − N[i]) mod dims``;
* :func:`verify_halo` — after execution the ghosted local arrays must
  equal the periodic extension of the assembled global array.

Each returns normally on success and raises
:class:`~repro.mpisim.exceptions.ScheduleError` naming the first
violation.  Verification costs one per-rank execution — O(p · V · m)
— and is intended for test/setup time, not per-iteration use.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.backend import Backend, get_backend
from repro.core.backend.lockstep import WALK
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import ScheduleError


def _sentinel(rank: int, index: int, nbytes: int) -> np.ndarray:
    """Deterministic, distinct filler for (rank, block index)."""
    rng = np.random.default_rng(rank * 1_000_003 + index * 7919 + 17)
    return rng.integers(0, 256, nbytes).astype(np.uint8)


def _sentinel_buffers(
    topo: CartTopology, send_sizes: Sequence[int], recv_nbytes: int
) -> list[dict[str, np.ndarray]]:
    """Per-rank ``{"send", "recv"}`` buffers: ``send`` holds one
    sentinel block per entry of ``send_sizes``, ``recv`` is zeroed."""
    offs = np.concatenate([[0], np.cumsum(send_sizes)]).astype(int)
    bufs = []
    for r in range(topo.size):
        send = np.zeros(int(offs[-1]), np.uint8)
        for i, nbytes in enumerate(send_sizes):
            send[offs[i] : offs[i + 1]] = _sentinel(r, i, nbytes)
        bufs.append({"send": send, "recv": np.zeros(recv_nbytes, np.uint8)})
    return bufs


def _check_buffers(
    topo: CartTopology,
    nbh: "Neighborhood",
    bufs: Sequence[dict],
    block_sizes: Sequence[int],
    sent: Sequence[int],
    kind: str,
) -> None:
    """Receive block ``i`` of rank ``r`` must equal, byte for byte, send
    block ``sent[i]`` of process ``(r − N[i]) mod dims`` (``kind`` names
    the collective in the error)."""
    offs = np.concatenate([[0], np.cumsum(block_sizes)]).astype(int)
    for r in range(topo.size):
        for i, off in enumerate(nbh):
            src = topo.translate(r, tuple(-o for o in off))
            if src is None:
                continue
            expect = _sentinel(src, sent[i], block_sizes[i])
            got = bufs[r]["recv"][offs[i] : offs[i + 1]]
            if not np.array_equal(got, expect):
                raise ScheduleError(
                    f"{kind} verification failed: rank {r}, neighbor "
                    f"{i} (offset {off}): block from {src} corrupted"
                )


def alltoall_sentinel_buffers(
    topo: CartTopology,
    nbh: "Neighborhood",
    block_sizes: Sequence[int],
) -> list[dict[str, np.ndarray]]:
    """Per-rank ``{"send", "recv"}`` buffers with deterministic distinct
    sentinel content per (rank, block) — the input side of an alltoall
    certification (on any backend)."""
    if len(block_sizes) != nbh.t:
        raise ScheduleError(f"need {nbh.t} block sizes, got {len(block_sizes)}")
    return _sentinel_buffers(topo, block_sizes, int(sum(block_sizes)))


def check_alltoall_buffers(
    topo: CartTopology,
    nbh: "Neighborhood",
    bufs: Sequence[dict],
    block_sizes: Sequence[int],
) -> None:
    """Certify executed alltoall receive buffers against the definition
    (:func:`_check_buffers`).  The buffers must have been produced by
    :func:`alltoall_sentinel_buffers`."""
    _check_buffers(topo, nbh, bufs, block_sizes, range(nbh.t), "alltoall")


def verify_alltoall(
    schedule: Schedule,
    topo: CartTopology,
    block_sizes: Sequence[int] | None = None,
    backend: str | Backend = WALK,
) -> None:
    """Certify an alltoall-semantics schedule (any shape: trivial,
    direct, combining, or custom) against the definition."""
    nbh = schedule.neighborhood
    if block_sizes is None:
        block_sizes = [4] * nbh.t
    bufs = alltoall_sentinel_buffers(topo, nbh, block_sizes)
    get_backend(backend).execute_all(topo, schedule, bufs)
    check_alltoall_buffers(topo, nbh, bufs, block_sizes)


def allgather_sentinel_buffers(
    topo: CartTopology,
    nbh: "Neighborhood",
    m_bytes: int,
) -> list[dict[str, np.ndarray]]:
    """Per-rank ``{"send", "recv"}`` buffers for an allgather
    certification: each rank contributes one distinct sentinel block."""
    return _sentinel_buffers(topo, [m_bytes], nbh.t * m_bytes)


def check_allgather_buffers(
    topo: CartTopology,
    nbh: "Neighborhood",
    bufs: Sequence[dict],
    m_bytes: int,
) -> None:
    """Certify executed allgather receive buffers: slot ``i`` of rank
    ``r`` must equal the contributed block of ``(r − N[i]) mod dims``."""
    _check_buffers(topo, nbh, bufs, [m_bytes] * nbh.t, [0] * nbh.t, "allgather")


def verify_allgather(
    schedule: Schedule,
    topo: CartTopology,
    m_bytes: int = 4,
    backend: str | Backend = WALK,
) -> None:
    """Certify an allgather-semantics schedule."""
    nbh = schedule.neighborhood
    bufs = allgather_sentinel_buffers(topo, nbh, m_bytes)
    get_backend(backend).execute_all(topo, schedule, bufs)
    check_allgather_buffers(topo, nbh, bufs, m_bytes)


def verify_halo(
    schedule: Schedule,
    topo: CartTopology,
    interior: Sequence[int],
    depth: int,
    buffer: str = "grid",
    backend: str | Backend = WALK,
) -> None:
    """Certify a halo-exchange schedule (uniform blocks): the ghosted
    arrays must equal the periodic extension of the global grid."""
    interior = tuple(int(x) for x in interior)
    global_shape = tuple(n * d for n, d in zip(interior, topo.dims))
    rng = np.random.default_rng(99)
    global_grid = rng.integers(0, 256, global_shape).astype(np.uint8)
    padded = np.pad(global_grid, depth, mode="wrap")
    full = tuple(n + 2 * depth for n in interior)
    inner = tuple(slice(depth, depth + n) for n in interior)

    bufs = []
    for r in range(topo.size):
        coords = topo.coords(r)
        sl = tuple(
            slice(c * n, (c + 1) * n) for c, n in zip(coords, interior)
        )
        local = np.zeros(full, np.uint8)
        local[inner] = global_grid[sl]
        bufs.append({buffer: local})
    get_backend(backend).execute_all(topo, schedule, bufs)
    for r in range(topo.size):
        coords = topo.coords(r)
        sl = tuple(
            slice(c * n, c * n + n + 2 * depth)
            for c, n in zip(coords, interior)
        )
        expect = padded[sl]
        if not np.array_equal(bufs[r][buffer], expect):
            bad = np.argwhere(bufs[r][buffer] != expect)[0]
            raise ScheduleError(
                f"halo verification failed: rank {r}, first bad cell "
                f"{tuple(int(x) for x in bad)}"
            )
