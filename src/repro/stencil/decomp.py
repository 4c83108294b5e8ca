"""Block decomposition of a global grid over a process grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.topology import CartTopology
from repro.mpisim.exceptions import TopologyError


@dataclass(frozen=True)
class GridDecomposition:
    """Distributes a ``global_shape`` grid block-wise over ``topo``.

    Dimension ``j`` of the grid is split into ``topo.dims[j]`` nearly
    equal contiguous pieces (the first ``remainder`` pieces one cell
    longer), matching the usual MPI block distribution.  Every rank's
    slab is split once, at construction.
    """

    topo: CartTopology
    global_shape: tuple[int, ...]
    #: per rank: its global-index slab and that slab's shape
    _slices: tuple[tuple[slice, ...], ...] = field(init=False, repr=False, compare=False)
    _shapes: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.global_shape) != self.topo.ndim:
            raise TopologyError(
                f"grid dimension {len(self.global_shape)} != process grid "
                f"dimension {self.topo.ndim}"
            )
        if any(g <= 0 for g in self.global_shape):
            raise TopologyError(f"grid extents must be positive: {self.global_shape}")
        object.__setattr__(self, "global_shape", tuple(int(g) for g in self.global_shape))
        bounds = [self._split(g, n) for g, n in zip(self.global_shape, self.topo.dims)]
        slices = tuple(
            tuple(slice(*b[c]) for b, c in zip(bounds, coords))
            for coords in self.topo.all_coords()
        )
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "_shapes", tuple(
            tuple(s.stop - s.start for s in slab) for slab in slices
        ))

    # ------------------------------------------------------------------
    def _split(self, extent: int, parts: int) -> list[tuple[int, int]]:
        """(start, stop) per part for one dimension."""
        base, rem = divmod(extent, parts)
        bounds = []
        start = 0
        for i in range(parts):
            size = base + (1 if i < rem else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    def local_slices(self, rank: int) -> tuple[slice, ...]:
        """The global-index slab owned by ``rank``."""
        self.topo.coords(rank)  # raises TopologyError out of range
        return self._slices[rank]

    def local_shape(self, rank: int) -> tuple[int, ...]:
        self.topo.coords(rank)  # raises TopologyError out of range
        return self._shapes[rank]

    def min_local_extent(self) -> int:
        """Smallest local extent across ranks and dimensions — halo depth
        must not exceed it."""
        out = None
        for extent, parts in zip(self.global_shape, self.topo.dims):
            base = extent // parts
            out = base if out is None else min(out, base)
        return int(out)

    # ------------------------------------------------------------------
    def scatter(self, global_array: np.ndarray) -> list[np.ndarray]:
        """Split a global array into per-rank local blocks (copies)."""
        if tuple(global_array.shape) != self.global_shape:
            raise ValueError(
                f"array shape {global_array.shape} != decomposition shape "
                f"{self.global_shape}"
            )
        return [global_array[sl].copy() for sl in self._slices]

    def gather(self, locals_: Sequence[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank local blocks into the global array."""
        if len(locals_) != self.topo.size:
            raise ValueError(
                f"need {self.topo.size} local blocks, got {len(locals_)}"
            )
        out = np.empty(self.global_shape, dtype=np.asarray(locals_[0]).dtype)
        for r, (block, sl, expect) in enumerate(zip(locals_, self._slices, self._shapes)):
            if tuple(np.asarray(block).shape) != expect:
                raise ValueError(
                    f"rank {r}: block shape {np.asarray(block).shape} != {expect}"
                )
            out[sl] = block
        return out
