"""Stencil update kernels and serial references.

The distributed runs are validated cell-for-cell against these serial
implementations on the global (periodic) grid, so kernels exist in two
matched forms:

* ``*_local`` — operate on a local array with ghost cells already
  exchanged, returning the updated interior;
* ``*_global`` — operate on the whole global array with periodic
  wraparound (``np.roll``), the ground truth.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np


def weighted_stencil_local(
    grid: np.ndarray, weights: Mapping[tuple[int, ...], float], depth: int
) -> np.ndarray:
    """Apply a weighted stencil to the interior of a ghosted local array
    — or of a stack of them: the offsets' arity is the grid's, and any
    axes before those are stacked ranks (every slice starts ``...``).

    ``weights`` maps relative cell offsets (within ±depth) to
    coefficients.  Returns the new interior (a fresh array).
    """
    d = len(next(iter(weights))) if weights else grid.ndim
    if d > grid.ndim:
        raise ValueError(f"offsets of arity {d} for a {grid.ndim}-d grid")
    interior = tuple(slice(depth, n - depth) for n in grid.shape[grid.ndim - d :])
    shape = grid.shape[: grid.ndim - d] + tuple(s.stop - s.start for s in interior)
    out = np.zeros(shape, dtype=grid.dtype)
    for off, w in weights.items():
        if len(off) != d:
            raise ValueError(f"offset {off} has wrong arity for {d}-d offsets")
        if any(abs(o) > depth for o in off):
            raise ValueError(f"offset {off} exceeds ghost depth {depth}")
        shifted = tuple(slice(s.start + o, s.stop + o) for s, o in zip(interior, off))
        out += w * grid[(..., *shifted)]
    return out


def weighted_stencil_global(
    grid: np.ndarray, weights: Mapping[tuple[int, ...], float]
) -> np.ndarray:
    """The same stencil on the full periodic global grid."""
    out = np.zeros_like(grid)
    for off, w in weights.items():
        out += w * np.roll(grid, shift=[-o for o in off], axis=tuple(range(grid.ndim)))
    return out


def jacobi_weights_5pt() -> dict[tuple[int, int], float]:
    """Classic 2-D 5-point Jacobi averaging weights."""
    return {
        (0, 0): 0.0,
        (-1, 0): 0.25,
        (1, 0): 0.25,
        (0, -1): 0.25,
        (0, 1): 0.25,
    }


def jacobi_weights_9pt() -> dict[tuple[int, int], float]:
    """2-D 9-point weights (the Listing 3 / Figure 1 pattern)."""
    w: dict[tuple[int, int], float] = {}
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                w[(dx, dy)] = 0.0
            elif dx == 0 or dy == 0:
                w[(dx, dy)] = 0.15
            else:
                w[(dx, dy)] = 0.10
    return w


def heat_weights(d: int, nu: float = 0.1) -> dict[tuple[int, ...], float]:
    """Explicit heat-equation step: u + ν·Δu with the 2d+1-point
    Laplacian."""
    w: dict[tuple[int, ...], float] = {tuple([0] * d): 1.0 - 2.0 * d * nu}
    for j in range(d):
        for s in (-1, 1):
            off = [0] * d
            off[j] = s
            w[tuple(off)] = nu
    return w


def pad_ghosts(
    grid: np.ndarray, periods: Sequence[bool], depth: int = 1, value: float = 0
) -> np.ndarray:
    """``grid`` with ``depth`` ghost cells on both sides of every axis:
    its wraparound on periodic axes, ``value`` past non-periodic edges
    (a Dirichlet condition) — what the serial references step on."""
    for axis, periodic in enumerate(periods):
        width = [(0, 0)] * grid.ndim
        width[axis] = (depth, depth)
        if periodic:
            grid = np.pad(grid, width, mode="wrap")
        else:
            grid = np.pad(grid, width, constant_values=value)
    return grid


# ---------------------------------------------------------------------------
# Game of Life (Moore neighborhood, the allgather-flavoured example)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _next_state(dtype: np.dtype) -> np.ndarray:
    """Next state of a cell indexed by ``neighbours + 10·alive`` (0–18):
    birth on 3 neighbours, survival on 2 or 3; one table per dtype."""
    table = np.zeros(20, dtype=dtype)
    table[[3, 12, 13]] = 1
    return table


def life_step_local(grid: np.ndarray, depth: int = 1) -> np.ndarray:
    """One Game of Life step on the interior of a ghosted array of 0/1
    cells, ``(rows, cols)`` or stacked ``(..., rows, cols)`` (one block
    per rank of a leading rank axis); the result has the grid's dtype
    and shape ``(..., rows - 2·depth, cols - 2·depth)``.

    Its cost is its count of array operations (eight, on ``uint8``),
    whatever the number of blocks.  The rows from one ghost row above
    each interior to one below are flattened across all blocks, so every
    sum is a 1-D slice add: a vertical then a horizontal three-cell sum
    gives the 3 × 3 box (centre included), ``+ 9·centre`` turns it into
    ``neighbours + 10·alive``, and a 20-entry table maps that to the
    next state.  Sums next to the left and right edges mix two rows, and
    those between two blocks mix the blocks; the final strided view
    skips them.
    """
    if grid.ndim < 2:
        raise ValueError("Game of Life is 2-D")
    *lead, rows, width = grid.shape
    window = grid[..., depth - 1 : rows - depth + 1, :]
    if window.dtype.itemsize == 1:
        window = window.view(np.uint8)
    else:
        window = window.astype(np.uint8)
    cells = window.reshape(-1)
    vertical = cells[: -2 * width] + cells[width:-width]
    vertical += cells[2 * width :]
    index = vertical[:-2] + vertical[1:-1]
    index += vertical[2:]
    index += cells[width + 1 : -width - 1] * np.uint8(9)
    span = window.shape[-2] * width  # one block's flattened window
    interior = np.ndarray(
        (cells.size // span, rows - 2 * depth, width - 2 * depth),
        np.uint8,
        index,
        depth - 1,
        (span, width, 1),
    )
    return _next_state(grid.dtype).take(interior.reshape(*lead, *interior.shape[1:]))


def life_step_global(grid: np.ndarray) -> np.ndarray:
    """One periodic Game of Life step on the global grid."""
    if grid.ndim != 2:
        raise ValueError("Game of Life is 2-D")
    neighbors = np.zeros(grid.shape, dtype=np.int64)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            neighbors += np.roll(grid, (dx, dy), axis=(0, 1)).astype(np.int64)
    alive = grid.astype(bool)
    return ((neighbors == 3) | (alive & (neighbors == 2))).astype(grid.dtype)


def glider(shape: Sequence[int], top: int = 1, left: int = 1) -> np.ndarray:
    """A Game of Life glider on an otherwise empty grid."""
    g = np.zeros(tuple(shape), dtype=np.int8)
    cells = [(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    for r, c in cells:
        g[(top + r) % shape[0], (left + c) % shape[1]] = 1
    return g
