"""Distributed stencil driver: CartComm + halo exchange + kernel.

This is the Listing 3 pattern as a reusable class: on construction it
builds the per-neighbor halo datatypes and a persistent ``alltoallw``
handle; each ``step`` exchanges halos (one Cartesian collective, in
place in the grid array) and applies the kernel to the interior.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.cartcomm import CartComm
from repro.stencil.decomp import GridDecomposition
from repro.stencil.halo import halo_specs


class DistributedStencil:
    """One rank's view of a distributed stencil computation.

    Parameters
    ----------
    cart:
        the Cartesian communicator (its neighborhood must be the
        stencil's communication pattern with offsets in {−1,0,+1}).
    decomp:
        global-grid decomposition over ``cart``'s topology.
    initial:
        this rank's initial interior block.
    kernel:
        maps the ghosted local array to the new interior
        (e.g. a closure over
        :func:`repro.stencil.kernels.weighted_stencil_local`).
    depth:
        ghost depth (stencil radius).
    algorithm:
        Cartesian collective algorithm for the halo exchange.
    """

    def __init__(
        self,
        cart: CartComm,
        decomp: GridDecomposition,
        initial: np.ndarray,
        kernel: Callable[[np.ndarray], np.ndarray],
        *,
        depth: int = 1,
        algorithm: str = "auto",
        halo: str = "per-neighbor",
        boundary_value: float = 0.0,
    ):
        self.cart = cart
        self.decomp = decomp
        self.kernel = kernel
        self.depth = int(depth)
        #: ghost-cell value on non-periodic domain boundaries (Dirichlet
        #: condition); boundary ghosts are never written by the exchange
        #: (missing neighbors are skipped), so pre-filling them once
        #: realizes the condition for every iteration
        self.boundary_value = boundary_value
        interior = decomp.local_shape(cart.rank)
        if tuple(initial.shape) != interior:
            raise ValueError(
                f"rank {cart.rank}: initial block {initial.shape} != "
                f"decomposed shape {interior}"
            )
        full = tuple(n + 2 * self.depth for n in interior)
        self.grid = np.full(full, boundary_value, dtype=initial.dtype)
        self._interior_sl = tuple(
            slice(self.depth, self.depth + n) for n in interior
        )
        self.grid[self._interior_sl] = initial
        if halo == "combined":
            # the Section 3.4 combined schedule: corners ride through
            # faces transitively; minimal volume, 2d rounds.  Requires a
            # uniform decomposition (all ranks share one SPMD schedule).
            from repro.core.persistent import PersistentOp
            from repro.core.schedule import BoundOp
            from repro.stencil.optimized_halo import (
                build_combined_halo_schedule,
            )

            shapes = {decomp.local_shape(r) for r in range(cart.size)}
            if len(shapes) != 1:
                raise ValueError(
                    "halo='combined' needs identical local shapes on all "
                    "ranks (grid extents divisible by the process grid)"
                )
            sched = build_combined_halo_schedule(
                interior, self.depth, self.grid.itemsize, buffer="grid"
            )
            self._halo_op = PersistentOp(
                cart, BoundOp("combined", sched, {"grid": self.grid})
            )
        elif halo == "per-neighbor":
            sends, recvs = halo_specs(
                interior, self.depth, cart.nbh, self.grid.itemsize,
                buffer="grid",
            )
            self._halo_op = cart.alltoallw_init(
                {"grid": self.grid}, sends, recvs, algorithm=algorithm
            )
        else:
            raise ValueError(
                f"unknown halo strategy {halo!r}; use 'per-neighbor' or "
                f"'combined'"
            )
        self.iterations = 0

    # ------------------------------------------------------------------
    @property
    def interior(self) -> np.ndarray:
        """The owned region (a view into the ghosted array)."""
        return self.grid[self._interior_sl]

    def exchange_halos(self) -> None:
        """One Cartesian collective halo exchange, in place."""
        self._halo_op.execute()

    def step(self) -> None:
        """Exchange halos, then apply the kernel to the interior."""
        self.exchange_halos()
        self.grid[self._interior_sl] = self.kernel(self.grid)
        self.iterations += 1

    def run(self, iterations: int) -> np.ndarray:
        for _ in range(iterations):
            self.step()
        return self.interior.copy()

    def free(self) -> None:
        """Return the halo handle's pooled scratch now instead of at
        garbage collection (idempotent).  No exchanges afterwards."""
        self._halo_op.free()

    # ------------------------------------------------------------------
    def local_error(self, reference_global: np.ndarray) -> float:
        """Max abs difference of the owned block against a global
        reference array."""
        ref = reference_global[self.decomp.local_slices(self.cart.rank)]
        return float(np.abs(self.interior - ref).max(initial=0.0))
