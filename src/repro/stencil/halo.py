"""Halo-exchange datatype construction (the ROW/COL/COR of Listing 3).

A local array of interior shape ``(n_0, …, n_{d-1})`` with ghost depth
``h`` is stored as shape ``(n_0 + 2h, …)``.  For a stencil neighbor at
relative offset ``v ∈ {−1, 0, +1}^d``:

* the **send** region is the interior slab adjacent to the ``v`` face /
  edge / corner: per dimension ``j``, the slice is

  - ``v_j = 0``:  the full interior, ``[h, h + n_j)``
  - ``v_j = +1``: the top ``h`` interior cells, ``[n_j, n_j + h)``
  - ``v_j = −1``: the bottom ``h`` interior cells, ``[h, 2h)``

* the **receive** region is the ghost slab on the ``−v`` side (the data
  comes from the neighbor at ``−v``, per the Cartesian convention that
  block ``i`` is received from source ``r − N[i]``):

  - ``v_j = 0``:  the full interior, ``[h, h + n_j)``
  - ``v_j = +1``: the low ghost strip, ``[0, h)``
  - ``v_j = −1``: the high ghost strip, ``[n_j + h, n_j + 2h)``

Each region is turned into a :class:`~repro.mpisim.datatypes.BlockSet`
over the named local-array buffer — the multi-block struct datatype an
MPI code would commit once (a ROW is one contiguous run, a COL is
``n`` runs of one element, a corner is ``h`` runs of ``h`` elements).
The pairs feed straight into ``Cart_alltoallw`` (no staging buffers:
communication happens in place in the application array, the paper's
zero-copy argument for needing the ``w`` variants).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.neighborhood import Neighborhood
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import NeighborhoodError


def region_from_slices(
    shape: Sequence[int],
    slices: Sequence[slice],
    itemsize: int,
    buffer: str,
) -> BlockSet:
    """Byte regions of a hyperslab of a C-contiguous array.

    The slab decomposes into contiguous runs along the last dimension,
    one run per combination of leading indices — exactly the block list
    an ``MPI_Type_create_subarray`` would flatten to.
    """
    shape = tuple(int(s) for s in shape)
    if len(slices) != len(shape):
        raise ValueError(f"{len(slices)} slices for {len(shape)}-d array")
    starts = []
    stops = []
    for sl, extent in zip(slices, shape):
        start, stop, step = sl.indices(extent)
        if step != 1:
            raise ValueError("only unit-stride slices supported")
        starts.append(start)
        stops.append(stop)
    # strides in elements
    strides = [1] * len(shape)
    for j in range(len(shape) - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    run_len = stops[-1] - starts[-1]
    bs = BlockSet()
    if run_len <= 0 or any(stops[j] <= starts[j] for j in range(len(shape))):
        return bs

    def rec(dim: int, base: int) -> None:
        if dim == len(shape) - 1:
            bs.append(
                BlockRef(buffer, (base + starts[-1]) * itemsize, run_len * itemsize)
            )
            return
        for i in range(starts[dim], stops[dim]):
            rec(dim + 1, base + i * strides[dim])

    rec(0, 0)
    return bs


def _axis_slices(v: int, n: int, h: int, side: str) -> slice:
    """Slice along one dimension for one offset component (see module
    docstring); ``side`` is "send" or "recv"."""
    if v == 0:
        return slice(h, h + n)
    if side == "send":
        return slice(n, n + h) if v > 0 else slice(h, 2 * h)
    return slice(0, h) if v > 0 else slice(n + h, n + 2 * h)


def halo_specs(
    interior_shape: Sequence[int],
    depth: int,
    nbh: Neighborhood,
    itemsize: int,
    buffer: str = "grid",
) -> tuple[tuple[BlockSet, ...], tuple[BlockSet, ...]]:
    """Per-neighbor (send, receive) block sets for a halo exchange.

    ``interior_shape`` is the owned region (without ghosts); the local
    array must have shape ``interior + 2·depth`` per dimension.  All
    offsets must lie in {−1, 0, +1}; the zero offset (if present) maps
    to an empty exchange (a process needs nothing from itself for a halo
    swap).

    Committed once per process, as Listing 3 commits ROW/COL/COR once:
    the result depends on the argument *values* alone, so every rank of
    equal local shape gets the same two tuples of *frozen* block sets
    (ranks of an uneven decomposition keep their own).
    """
    interior = tuple(int(x) for x in interior_shape)
    with _LAYING_OUT:
        return _halo_specs(interior, int(depth), nbh, int(itemsize), buffer)


#: one lay-out at a time: ``lru_cache`` alone lets two ranks that miss
#: together (one pre-empted mid-build) each build and keep their own copy
_LAYING_OUT = threading.Lock()


@lru_cache(maxsize=64)  # an entry of a large 3-D grid is a long block list
def _halo_specs(interior, depth, nbh, itemsize, buffer):  # nbh: by its offsets
    if len(interior) != nbh.d:
        raise NeighborhoodError(
            f"grid dimension {len(interior)} != neighborhood dimension {nbh.d}"
        )
    if depth <= 0:
        raise ValueError("halo depth must be positive")
    if any(n < depth for n in interior):
        raise ValueError(
            f"interior {interior} smaller than halo depth {depth}"
        )
    if np.abs(nbh.offsets).max() > 1:
        raise NeighborhoodError(
            "halo exchange supports offsets in {-1,0,1}; deeper stencils "
            "use depth>1 with radius-1 offsets"
        )
    full_shape = tuple(n + 2 * depth for n in interior)
    sends: list[BlockSet] = []
    recvs: list[BlockSet] = []
    for off in nbh:
        if not any(off):
            sends.append(BlockSet())
            recvs.append(BlockSet())
            continue
        send_sl = tuple(
            _axis_slices(v, n, depth, "send") for v, n in zip(off, interior)
        )
        recv_sl = tuple(
            _axis_slices(v, n, depth, "recv") for v, n in zip(off, interior)
        )
        sends.append(region_from_slices(full_shape, send_sl, itemsize, buffer))
        recvs.append(region_from_slices(full_shape, recv_sl, itemsize, buffer))
    return tuple(b.freeze() for b in sends), tuple(b.freeze() for b in recvs)
