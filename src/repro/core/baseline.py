"""Direct-delivery neighborhood collectives — the comparison baseline.

These functions implement what the measured MPI libraries do for
``MPI_Neighbor_alltoall(v/w)`` and ``MPI_Neighbor_allgather(v)`` on
*general* distributed graph topologies: post one non-blocking receive
per in-neighbor and one non-blocking send per out-neighbor, then wait
for all (direct delivery, no message combining — the generality of the
graph interface precludes the structural optimizations the Cartesian
case allows, which is the paper's point).

They operate on explicit source/target rank lists, so they serve both
the :class:`~repro.core.distgraph.DistGraphComm` methods and ad-hoc
baseline measurements.  The blocking and non-blocking library entry
points share this implementation; their modeled performance difference
(Figures 3–5) lives in the network model's per-call overheads.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mpisim.comm import Communicator

#: Tag for baseline neighborhood collectives.
NEIGHBOR_TAG = -9


def _exchange(
    comm: Communicator,
    sources: Sequence[Optional[int]],
    recv_blocks: Sequence[np.ndarray],
    targets: Sequence[Optional[int]],
    send_blocks: Sequence[np.ndarray],
) -> None:
    """Direct delivery: one non-blocking receive per in-neighbor, one
    non-blocking send per out-neighbor, then wait for all.  ``None``
    entries (missing neighbors on non-periodic meshes) skip the
    corresponding transfer, leaving the receive block untouched."""
    requests = [
        comm.irecv_into(block, src, NEIGHBOR_TAG)
        for src, block in zip(sources, recv_blocks)
        if src is not None
    ]
    requests += [
        comm.isend_buffer(block, dst, NEIGHBOR_TAG)
        for dst, block in zip(targets, send_blocks)
        if dst is not None
    ]
    comm.waitall(requests)


def _blocks(
    buf: np.ndarray, counts: Sequence[int], displs: Optional[Sequence[int]]
) -> list[np.ndarray]:
    """One slice of ``buf`` per neighbor; counts/displacements in
    elements of the buffer's dtype (MPI convention; displacements
    default to the running prefix sums)."""
    if displs is None:
        displs = np.concatenate([[0], np.cumsum(counts)[:-1]]) if counts else []
    return [buf[int(lo) : int(lo) + int(n)] for lo, n in zip(displs, counts)]


def neighbor_alltoall_direct(
    comm: Communicator,
    sources: Sequence[Optional[int]],
    targets: Sequence[Optional[int]],
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
) -> np.ndarray:
    """Regular direct-delivery alltoall: equal blocks in neighbor order."""
    s = len(sources)
    t = len(targets)
    if t and sendbuf.size % t:
        raise ValueError(f"sendbuf size {sendbuf.size} not divisible by {t}")
    if s and recvbuf.size % s:
        raise ValueError(f"recvbuf size {recvbuf.size} not divisible by {s}")
    ms = sendbuf.size // t if t else 0
    mr = recvbuf.size // s if s else 0
    _exchange(
        comm,
        sources,
        [recvbuf[i * mr : (i + 1) * mr] for i in range(s)],
        targets,
        [sendbuf[i * ms : (i + 1) * ms] for i in range(t)],
    )
    return recvbuf


def neighbor_alltoallv_direct(
    comm: Communicator,
    sources: Sequence[Optional[int]],
    targets: Sequence[Optional[int]],
    sendbuf: np.ndarray,
    sendcounts: Sequence[int],
    recvbuf: np.ndarray,
    recvcounts: Sequence[int],
    sdispls: Optional[Sequence[int]] = None,
    rdispls: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Irregular direct-delivery alltoall (see :func:`_blocks`)."""
    if len(sendcounts) != len(targets) or len(recvcounts) != len(sources):
        raise ValueError("one count per neighbor required")
    _exchange(
        comm,
        sources,
        _blocks(recvbuf, recvcounts, rdispls),
        targets,
        _blocks(sendbuf, sendcounts, sdispls),
    )
    return recvbuf


def neighbor_allgather_direct(
    comm: Communicator,
    sources: Sequence[Optional[int]],
    targets: Sequence[Optional[int]],
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
) -> np.ndarray:
    """Direct-delivery allgather: the same send block to every target."""
    s = len(sources)
    if s and recvbuf.size % s:
        raise ValueError(f"recvbuf size {recvbuf.size} not divisible by {s}")
    m = recvbuf.size // s if s else 0
    _exchange(
        comm,
        sources,
        [recvbuf[i * m : (i + 1) * m] for i in range(s)],
        targets,
        [sendbuf] * len(targets),
    )
    return recvbuf


def neighbor_allgatherv_direct(
    comm: Communicator,
    sources: Sequence[Optional[int]],
    targets: Sequence[Optional[int]],
    sendbuf: np.ndarray,
    recvbuf: np.ndarray,
    recvcounts: Sequence[int],
    rdispls: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Irregular direct-delivery allgather (see :func:`_blocks`)."""
    if len(recvcounts) != len(sources):
        raise ValueError("one receive count per source required")
    _exchange(
        comm,
        sources,
        _blocks(recvbuf, recvcounts, rdispls),
        targets,
        [sendbuf] * len(targets),
    )
    return recvbuf
