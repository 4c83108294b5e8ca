"""Conway's Game of Life as a Cartesian halo-exchange application.

The distributed board is block-decomposed over a 2-D process grid; each
rank keeps its block inside a depth-1 ghosted array and swaps halos with
its eight Moore neighbors through **one persistent** ``Cart_alltoallw``
handle (the Listing 3 pattern: ROW/COL/COR datatypes straight into the
application array, schedule and execution plan computed once and reused
every generation).  On a fully periodic torus the exchange can use the
message-combining schedule (4 rounds instead of 8); on meshes the
missing neighbors are skipped and the untouched ghost cells stay dead —
exactly the zero-boundary condition of the sequential reference.

The step is :func:`~repro.stencil.kernels.life_step_local` on the
ghosted arrays: one rank's on the SPMD driver, all ``p`` stacked as
``(p, rows + 2, cols + 2)`` on the rows driver (:mod:`repro.apps.base`).
Certification also compares the result as **bit-packed rows**
(:func:`pack_rows`, one bit per cell), the representation a production
cellular-automaton service would ship.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.apps.base import AppRun, CartesianApp
from repro.core.cartcomm import CartComm
from repro.core.persistent import PersistentOp
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.stencil.decomp import GridDecomposition
from repro.stencil.halo import halo_specs
from repro.stencil.kernels import glider, life_step_global, life_step_local, pad_ghosts

__all__ = [
    "GameOfLife",
    "life_step_reference",
    "pack_rows",
    "unpack_rows",
]


def pack_rows(board: np.ndarray) -> np.ndarray:
    """Bit-pack a 0/1 board row-wise: ``(rows, cols)`` cells become
    ``(rows, ceil(cols / 8))`` bytes."""
    if board.ndim != 2:
        raise ValueError("Game of Life boards are 2-D")
    return np.packbits(board.astype(np.uint8), axis=1)


def unpack_rows(packed: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows` for a known row length."""
    return np.unpackbits(packed, axis=1, count=cols).astype(np.uint8)


def life_step_reference(board: np.ndarray, periods: Sequence[bool]) -> np.ndarray:
    """One Game of Life step on the global board under the given
    per-axis boundary conditions — the app's oracle kernel.

    It is the ``np.roll`` step on the board with its ghost ring
    (wraparound on periodic axes, dead cells past the others), cropped
    to the board, so the distributed runs are never certified by the
    kernel they run."""
    return life_step_global(pad_ghosts(board, periods))[1:-1, 1:-1]


class GameOfLife(CartesianApp):
    """A complete Game of Life problem instance.

    Parameters
    ----------
    board:
        initial global board (2-D, entries 0/1, any integer dtype;
        stored as ``uint8``).
    dims:
        the 2-D process grid.
    generations:
        number of steps to evolve.
    periods:
        per-axis periodicity.  Fully periodic boards form the torus the
        combining schedules need; non-periodic axes get the dead-cell
        (Dirichlet) boundary on both sides.
    """

    name = "life"

    def __init__(
        self,
        board: np.ndarray,
        dims: Sequence[int],
        generations: int,
        *,
        periods: Sequence[bool] = (True, True),
    ) -> None:
        super().__init__()
        board = np.asarray(board)
        if board.ndim != 2:
            raise ValueError("Game of Life boards are 2-D")
        self.board = (board != 0).astype(np.uint8)
        self.dims = tuple(int(d) for d in dims)
        self.periods = tuple(bool(p) for p in periods)
        self.generations = self.iterations = int(generations)
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        self.topo = CartTopology(self.dims, self.periods)
        self.decomp = GridDecomposition(self.topo, self.board.shape)
        if self.decomp.min_local_extent() < 1:
            raise ValueError(
                f"board {self.board.shape} too small for process grid "
                f"{self.dims}: every rank needs at least one row and "
                f"column"
            )
        self.nbh = moore_neighborhood(2, 1, include_self=False)

    # -- constructors --------------------------------------------------
    @classmethod
    def glider(
        cls,
        grid: Sequence[int],
        dims: Sequence[int],
        generations: int,
        *,
        periods: Sequence[bool] = (True, True),
    ) -> "GameOfLife":
        """The classic glider crossing process boundaries."""
        return cls(glider(tuple(grid)), dims, generations, periods=periods)

    @classmethod
    def random(
        cls,
        grid: Sequence[int],
        dims: Sequence[int],
        generations: int,
        *,
        periods: Sequence[bool] = (True, True),
        seed: int = 0,
        density: float = 0.35,
    ) -> "GameOfLife":
        """A seeded random soup at the given live-cell density."""
        rng = np.random.default_rng(seed)
        board = (rng.random(tuple(grid)) < density).astype(np.uint8)
        return cls(board, dims, generations, periods=periods)

    # -- oracle --------------------------------------------------------
    def _sequential(self) -> np.ndarray:
        board = self.board.copy()
        for _ in range(self.generations):
            board = life_step_reference(board, self.periods)
        return board

    # -- distributed ---------------------------------------------------
    def run(self, *, algorithm: str = "combining", **options: Any) -> AppRun:
        """Evolve the board distributed over ``dims`` ranks (``backend``,
        ``engine``: :meth:`CartesianApp.run`)."""
        if algorithm == "combining" and not all(self.periods):
            raise ValueError(
                "the combining halo exchange needs a fully periodic "
                "torus; use algorithm='trivial' or 'auto' on meshes"
            )
        return super().run(algorithm=algorithm, **options)

    def _state(self) -> list[dict[str, np.ndarray]]:
        states = []
        for block in self.decomp.scatter(self.board):
            grid = np.zeros((block.shape[0] + 2, block.shape[1] + 2), np.uint8)
            grid[1:-1, 1:-1] = block
            states.append({"grid": grid})
        return states

    def _exchange(self, cart: CartComm, buffers: Mapping, algorithm: str) -> PersistentOp:
        grid = buffers["grid"]
        interior = (grid.shape[0] - 2, grid.shape[1] - 2)
        sends, recvs = halo_specs(interior, 1, cart.nbh, grid.itemsize, buffer="grid")
        return cart.alltoallw_init({"grid": grid}, sends, recvs, algorithm=algorithm)

    def _step(self, state: Mapping[str, np.ndarray], it: int) -> None:
        state["grid"][..., 1:-1, 1:-1] = life_step_local(state["grid"], 1)

    def _finish(self, states: Sequence[Mapping[str, np.ndarray]]) -> tuple[np.ndarray, dict]:
        board = self.decomp.gather([s["grid"][1:-1, 1:-1] for s in states])
        return board, {"packed": pack_rows(board)}

    def _expected_aux(self) -> dict[str, np.ndarray]:
        return {"packed": pack_rows(self.sequential())}
