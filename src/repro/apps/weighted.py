"""A weighted (affine) stencil as a Cartesian halo-exchange application.

Listing 3's workload in any dimension: the grid block-decomposed over
the process grid, each block inside a ghosted array as deep as the
weights' largest offset, and per iteration one persistent halo exchange
with the Moore neighbours, then ``u ← Σ_v w_v · u[· + v] + source`` on
the interior.  Heat steps and Jacobi smoothing have no source; Poisson's
Jacobi iteration for ``−Δu = f`` is the weights ``{±e_k: 1/4}`` with
``source = h²·f / 4``.  Ghosts past non-periodic edges hold
``boundary_value`` (Dirichlet): the exchange skips missing neighbours.

``run(algorithm="combined")`` binds the Section 3.4 combined halo
schedule; any other algorithm binds ``Cart_alltoallw`` over
:func:`~repro.stencil.halo.halo_specs`.  The oracle pads the global
grid (:func:`~repro.stencil.kernels.pad_ghosts`), applies the
``np.roll`` stencil and crops, so the ranks are never certified by the
kernel they run; both add the same products in the same order, so the
two agree bit for bit.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import CartesianApp
from repro.core.cartcomm import CartComm
from repro.core.persistent import PersistentOp
from repro.core.schedule import BoundOp
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.stencil.decomp import GridDecomposition
from repro.stencil.halo import halo_specs
from repro.stencil.kernels import pad_ghosts, weighted_stencil_global, weighted_stencil_local
from repro.stencil.optimized_halo import build_combined_halo_schedule

__all__ = ["WeightedStencil"]


class WeightedStencil(CartesianApp):
    """A complete weighted-stencil problem instance: the initial global
    ``grid`` (stored as ``float64``), the process grid ``dims``, the
    ``weights`` (relative offset -> coefficient), the ``iterations``,
    the ``periods`` (default: a torus), the ghost value past
    non-periodic edges and an optional global ``source`` added after
    every step."""

    name = "weighted"

    def __init__(
        self,
        grid: np.ndarray,
        dims: Sequence[int],
        weights: Mapping[tuple[int, ...], float],
        iterations: int,
        *,
        periods: Optional[Sequence[bool]] = None,
        boundary_value: float = 0.0,
        source: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__()
        self.grid = np.array(grid, dtype=np.float64)
        self.dims = tuple(int(d) for d in dims)
        d = len(self.dims)
        self.periods = (True,) * d if periods is None else tuple(bool(p) for p in periods)
        self.weights = dict(weights)
        if any(len(off) != d for off in self.weights):
            raise ValueError(f"every weight offset needs {d} components")
        self.iterations = int(iterations)
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        self.depth = h = max([1] + [abs(o) for off in self.weights for o in off])
        self.inner = (slice(h, -h),) * d  # a ghosted array's interior
        self.boundary_value = float(boundary_value)
        self.source = np.zeros_like(self.grid) if source is None else np.array(source, np.float64)
        if self.source.shape != self.grid.shape:
            raise ValueError(f"source {self.source.shape} != grid {self.grid.shape}")
        self.decomp = GridDecomposition(CartTopology(self.dims, self.periods), self.grid.shape)
        if self.decomp.min_local_extent() < self.depth:
            raise ValueError(
                f"grid {self.grid.shape} too small for process grid {self.dims}: "
                f"every rank needs {self.depth} cells per axis (the ghost depth)"
            )
        self.nbh = moore_neighborhood(d, 1, include_self=False)

    # -- oracle --------------------------------------------------------
    def _sequential(self) -> np.ndarray:
        grid = self.grid.copy()
        for _ in range(self.iterations):
            padded = pad_ghosts(grid, self.periods, self.depth, self.boundary_value)
            grid = weighted_stencil_global(padded, self.weights)[self.inner] + self.source
        return grid

    # -- distributed ---------------------------------------------------
    def _state(self) -> list[dict[str, np.ndarray]]:
        states = []
        for block, source in zip(self.decomp.scatter(self.grid), self.decomp.scatter(self.source)):
            grid = np.full([n + 2 * self.depth for n in block.shape], self.boundary_value)
            grid[self.inner] = block
            states.append({"grid": grid, "source": source})
        return states

    def _exchange(self, cart: CartComm, buffers: Mapping, algorithm: str) -> PersistentOp:
        grid = buffers["grid"]
        interior = [n - 2 * self.depth for n in grid.shape]
        if algorithm == "combined":
            schedule = build_combined_halo_schedule(interior, self.depth, grid.itemsize)
            return PersistentOp(cart, BoundOp("combined", schedule, {"grid": grid}))
        sends, recvs = halo_specs(interior, self.depth, cart.nbh, grid.itemsize)
        return cart.alltoallw_init({"grid": grid}, sends, recvs, algorithm=algorithm)

    def _step(self, state: Mapping[str, np.ndarray], it: int) -> None:
        """One kernel call on one rank's grid or on the stack of all
        ``p`` (the offsets' arity names the grid axes)."""
        grid = state["grid"]
        out = weighted_stencil_local(grid, self.weights, self.depth)
        out += state["source"]
        grid[(..., *self.inner)] = out

    def _finish(self, states: Sequence[Mapping[str, np.ndarray]]) -> tuple[np.ndarray, dict]:
        return self.decomp.gather([s["grid"][self.inner] for s in states]), {}
