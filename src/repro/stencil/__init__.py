"""Stencil application substrate.

The paper motivates Cartesian Collective Communication with stencil
computations: a d-dimensional grid distributed over a process torus,
each process holding a local block with a ghost (halo) region, updated
every iteration after exchanging halos with the stencil's neighbor
processes (Figure 1, Listing 3).  This subpackage provides the pieces
the examples build on:

* :mod:`repro.stencil.decomp` — block decomposition of a global grid
  over the process grid;
* :mod:`repro.stencil.halo` — halo-exchange datatype construction: the
  per-neighbor send/receive regions (rows, columns, corners — the ROW /
  COL / COR types of Listing 3) as block sets over the local array;
* :mod:`repro.stencil.kernels` — stencil update kernels and their
  serial reference implementations (used to validate the distributed
  runs cell-for-cell);
* :mod:`repro.stencil.optimized_halo` — the Section 3.4 combined halo
  schedule.

The applications that drive them — a persistent halo exchange and a
kernel every iteration — are :mod:`repro.apps`
(:class:`~repro.apps.WeightedStencil`, :class:`~repro.apps.GameOfLife`).
"""

from repro.stencil.decomp import GridDecomposition
from repro.stencil.halo import halo_specs, region_from_slices

__all__ = [
    "GridDecomposition",
    "halo_specs",
    "region_from_slices",
]
