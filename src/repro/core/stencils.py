"""Neighborhood factories for common stencil patterns.

The paper's benchmarks parameterize neighborhoods by dimension ``d``,
neighbors-per-dimension ``n`` and first-neighbor offset ``f``
(Section 4.1.1): the neighborhood is the full cross product of the
per-dimension offset sets ``{f, f+1, …, f+n−1}``, giving ``t = n^d``
vectors.  With ``n = 3, f = −1`` this is the Moore neighborhood
(9-point in 2-D, 27-point in 3-D); ``n = 4, 5`` with ``f = −1`` gives
the paper's *asymmetric* test stencils.

All factories return :class:`~repro.core.neighborhood.Neighborhood`
objects with offsets in deterministic (lexicographic, row-major cross
product) order.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.neighborhood import Neighborhood
from repro.mpisim.exceptions import NeighborhoodError


def parameterized_stencil(d: int, n: int, f: int = -1, include_self: bool = True) -> Neighborhood:
    """The paper's (d, n, f) family: cross product of
    ``{f, …, f+n−1}`` per dimension; ``t = n^d`` (``n^d − 1`` when the
    zero vector is excluded and lies in range)."""
    if d <= 0:
        raise NeighborhoodError("d must be positive")
    if n <= 0:
        raise NeighborhoodError("n must be positive")
    values = range(f, f + n)
    offsets = [v for v in itertools.product(values, repeat=d)]
    if not include_self:
        offsets = [v for v in offsets if any(v)]
    if not offsets:
        raise NeighborhoodError("stencil is empty after removing the zero vector")
    return Neighborhood(np.asarray(offsets, dtype=np.int64))


def moore_neighborhood(d: int, radius: int = 1, include_self: bool = True) -> Neighborhood:
    """Moore neighborhood of the given radius: all vectors with
    coordinates in ``[-radius, radius]`` — ``(2·radius+1)^d`` points."""
    if radius < 0:
        raise NeighborhoodError("radius must be non-negative")
    return parameterized_stencil(d, 2 * radius + 1, -radius, include_self=include_self)


def von_neumann_neighborhood(d: int, radius: int = 1, include_self: bool = True) -> Neighborhood:
    """Von Neumann neighborhood: vectors with L1 norm ≤ radius.  With
    radius 1 this is the classic ``2d(+1)``-point stencil that MPI's
    built-in Cartesian neighborhoods cover."""
    if radius < 0:
        raise NeighborhoodError("radius must be non-negative")
    offsets = [
        v
        for v in itertools.product(range(-radius, radius + 1), repeat=d)
        if sum(abs(x) for x in v) <= radius
    ]
    if not include_self:
        offsets = [v for v in offsets if any(v)]
    if not offsets:
        raise NeighborhoodError("stencil is empty after removing the zero vector")
    return Neighborhood(np.asarray(sorted(offsets), dtype=np.int64))


def axis_stencil(d: int, radius: int, include_self: bool = False) -> Neighborhood:
    """Star/axis stencil: ±1..±radius along each axis only — the shape of
    higher-order finite-difference (uxx) stencils the paper cites."""
    if radius <= 0:
        raise NeighborhoodError("radius must be positive")
    offsets: list[tuple[int, ...]] = []
    if include_self:
        offsets.append(tuple([0] * d))
    for k in range(d):
        for r in range(-radius, radius + 1):
            if r == 0:
                continue
            v = [0] * d
            v[k] = r
            offsets.append(tuple(v))
    return Neighborhood(np.asarray(offsets, dtype=np.int64))


_NAMED = {
    # name: (d, factory)
    "5-point": lambda: von_neumann_neighborhood(2, 1, include_self=False),
    "9-point": lambda: moore_neighborhood(2, 1, include_self=False),
    "7-point": lambda: von_neumann_neighborhood(3, 1, include_self=False),
    "27-point": lambda: moore_neighborhood(3, 1, include_self=False),
    "13-point": lambda: axis_stencil(3, 2, include_self=True),
    "125-point": lambda: moore_neighborhood(3, 2, include_self=False),
}


def named_stencil(name: str) -> Neighborhood:
    """Look up a classic stencil by its conventional point-count name.

    Supported: ``5-point``, ``9-point`` (2-D), ``7-point``, ``27-point``,
    ``13-point``, ``125-point`` (3-D).  The stencil *communication*
    neighborhoods exclude the center point (a process needs no message to
    itself for a halo exchange), except ``13-point`` which is the
    2nd-order star including the center as in the cited literature.
    """
    try:
        return _NAMED[name]()
    except KeyError:
        raise NeighborhoodError(
            f"unknown stencil {name!r}; available: {sorted(_NAMED)}"
        ) from None


def listing3_9point() -> Neighborhood:
    """The exact 8-neighbor ordering used in Listing 3 of the paper:
    ``[0,1, 0,-1, -1,0, 1,0, -1,1, 1,1, 1,-1, -1,-1]``."""
    return Neighborhood(
        np.asarray(
            [
                (0, 1),
                (0, -1),
                (-1, 0),
                (1, 0),
                (-1, 1),
                (1, 1),
                (1, -1),
                (-1, -1),
            ],
            dtype=np.int64,
        )
    )


def random_neighborhood(
    d: int,
    t: int,
    max_offset: int,
    rng: np.random.Generator | None = None,
    allow_repeats: bool = True,
    include_self: bool | None = None,
) -> Neighborhood:
    """Random neighborhoods for property-based tests: ``t`` vectors with
    coordinates uniform in ``[-max_offset, max_offset]``."""
    if rng is None:
        rng = np.random.default_rng()
    if t <= 0:
        raise NeighborhoodError("t must be positive")
    offsets = rng.integers(-max_offset, max_offset + 1, size=(t, d))
    if not allow_repeats:
        offsets = np.unique(offsets, axis=0)
    if include_self is True:
        offsets[0, :] = 0
    elif include_self is False:
        nz = offsets.any(axis=1)
        offsets = offsets[nz]
        if offsets.shape[0] == 0:
            offsets = np.ones((1, d), dtype=np.int64)
    return Neighborhood(offsets.astype(np.int64))
