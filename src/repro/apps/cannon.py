"""Cannon's matrix multiplication over Cartesian shifts.

``C = A·B`` on a ``q × q`` fully periodic process grid.  The classic
algorithm skews ``A`` left by the row index and ``B`` up by the column
index, then alternates local multiply-accumulate with unit circular
shifts.  Here the skew is folded into the initial scatter (rank
``(i, j)`` starts with ``A``-panel ``(i + j) mod q`` — legitimate
because the driver owns the decomposition), so *every* communication of
the iteration is the same isomorphic two-neighbor Cartesian collective:
one persistent ``Cart_alltoallw`` whose neighborhood is
``{(0, −1), (−1, 0)}`` — neighbor 0 carries the ``A`` block one step
left, neighbor 1 carries the ``B`` block one step up, in a single
collective per step.

The handle deliberately exercises the irregular ``w`` machinery:

* the two neighbors move **different amounts of data** (an ``A`` block
  is ``mb × kb``, a ``B`` block ``kb × nb``), so the per-neighbor
  datatypes genuinely differ;
* local panels are stored with a **padded leading dimension**, so every
  block is a fragmented multi-run :class:`~repro.mpisim.datatypes.BlockSet`
  (one run per matrix row), the layout the plan compiler's fancy-index
  kernels exist for;
* with ``cyclic=True`` the ``m`` and ``n`` dimensions are distributed
  **cyclically** over the process grid (rank row ``i`` owns global rows
  ``i, i+q, i+2q, …``) while ``k`` stays block-contiguous — the
  block-cyclic layout family of the dense linear-algebra libraries.

Integer entries keep the arithmetic exact, so the distributed product is
held to bit equality against the sequential ``A @ B``.  After ``q``
multiply/shift steps every panel has cycled back to its starting
position, which is what makes the persistent handle reusable across
repeated multiplications.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Mapping, Sequence

import numpy as np

from repro.apps.base import AppRun, CartesianApp
from repro.core.cartcomm import CartComm
from repro.core.neighborhood import Neighborhood
from repro.core.persistent import PersistentOp
from repro.mpisim.datatypes import BlockRef, BlockSet

__all__ = ["CannonMatmul", "SHIFT_NEIGHBORHOOD"]

#: Cannon's communication pattern: neighbor 0 = one step left (the ``A``
#: panel's route), neighbor 1 = one step up (the ``B`` panel's route).
SHIFT_NEIGHBORHOOD = Neighborhood(
    np.asarray([(0, -1), (-1, 0)], dtype=np.int64)
)


@lru_cache(maxsize=64)
def _row_blockset(
    buffer: str, nrows: int, row_nbytes: int, ld_nbytes: int
) -> BlockSet:
    """A ``nrows × row_nbytes`` panel inside a padded local array: one
    contiguous run per row, ``ld_nbytes`` apart (never coalescible while
    the padding is non-zero).

    Built once per process and **frozen**, like the block sets of
    :func:`repro.stencil.halo.halo_specs`: every rank of every run with
    the same panel shape shares it."""
    return BlockSet(
        [BlockRef(buffer, r * ld_nbytes, row_nbytes) for r in range(nrows)]
    ).freeze()


class CannonMatmul(CartesianApp):
    """One ``C = A·B`` problem instance on a ``q × q`` torus."""

    name = "cannon"
    nbh = SHIFT_NEIGHBORHOOD
    periods = (True, True)

    def __init__(
        self,
        m: int,
        k: int,
        n: int,
        q: int,
        *,
        dtype: Any = np.int64,
        pad: int = 3,
        cyclic: bool = False,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if q < 2:
            raise ValueError("Cannon needs a process grid of at least 2x2")
        if m % q or k % q or n % q:
            raise ValueError(
                f"matrix extents ({m}, {k}, {n}) must be divisible by q={q}"
            )
        if pad < 0:
            raise ValueError("pad must be non-negative")
        self.m, self.k, self.n, self.q = int(m), int(k), int(n), int(q)
        self.mb, self.kb, self.nb = m // q, k // q, n // q
        self.pad = int(pad)
        self.cyclic = bool(cyclic)
        self.dtype = np.dtype(dtype)
        if self.dtype.kind not in "iu":
            raise ValueError(
                "bit-exact certification needs integer matrices"
            )
        rng = np.random.default_rng(seed)
        self.A = rng.integers(-4, 5, (m, k)).astype(self.dtype)
        self.B = rng.integers(-4, 5, (k, n)).astype(self.dtype)
        self.dims = (self.q, self.q)
        self.iterations = self.q

    # -- layout maps ---------------------------------------------------
    def _rows(self, i: int) -> np.ndarray:
        """Global row indices owned by process row ``i``."""
        if self.cyclic:
            return np.arange(i, self.m, self.q)
        return np.arange(i * self.mb, (i + 1) * self.mb)

    def _cols(self, j: int) -> np.ndarray:
        """Global column indices owned by process column ``j``."""
        if self.cyclic:
            return np.arange(j, self.n, self.q)
        return np.arange(j * self.nb, (j + 1) * self.nb)

    def _kslab(self, s: int) -> slice:
        """The ``k`` dimension stays block-contiguous (panel ``s``)."""
        return slice(s * self.kb, (s + 1) * self.kb)

    # -- oracle --------------------------------------------------------
    def _sequential(self) -> np.ndarray:
        return (self.A @ self.B).astype(self.dtype)

    # -- distributed ---------------------------------------------------
    def run(self, **options: Any) -> AppRun:
        """Multiply distributed over the ``q × q`` grid (options:
        :meth:`CartesianApp.run`)."""
        return super().run(**options)

    def _state(self) -> list[dict[str, np.ndarray]]:
        states = []
        for i, j in np.ndindex(self.q, self.q):
            s0 = (i + j) % self.q
            a = np.zeros((self.mb, self.kb + self.pad), dtype=self.dtype)
            b = np.zeros((self.kb, self.nb + self.pad), dtype=self.dtype)
            a[:, : self.kb] = self.A[self._rows(i), self._kslab(s0)]
            b[:, : self.nb] = self.B[self._kslab(s0), self._cols(j)]
            c = np.zeros((self.mb, self.nb), dtype=self.dtype)
            states.append({"A": a, "B": b, "An": np.zeros_like(a), "Bn": np.zeros_like(b), "C": c})
        return states

    def _exchange(self, cart: CartComm, buffers: Mapping, algorithm: str) -> PersistentOp:
        itemsize = self.dtype.itemsize
        a_rows = (self.mb, self.kb * itemsize, (self.kb + self.pad) * itemsize)
        b_rows = (self.kb, self.nb * itemsize, (self.nb + self.pad) * itemsize)
        return cart.alltoallw_init(
            {name: buffers[name] for name in ("A", "B", "An", "Bn")},
            [_row_blockset("A", *a_rows), _row_blockset("B", *b_rows)],
            [_row_blockset("An", *a_rows), _row_blockset("Bn", *b_rows)],
            algorithm=algorithm,
        )

    def _step(self, state: Mapping[str, np.ndarray], it: int) -> None:
        """The panels that arrived are multiplied: after ``q`` shifts
        every pair has met once (the sum is exact, its order free)."""
        a, b = state["A"], state["B"]
        a[...] = state["An"]
        b[...] = state["Bn"]
        state["C"][...] += a[..., : self.kb] @ b[..., : self.nb]

    def _finish(self, states: Sequence[Mapping[str, np.ndarray]]) -> tuple[np.ndarray, dict]:
        out = np.zeros((self.m, self.n), dtype=self.dtype)
        for r, s in enumerate(states):
            i, j = divmod(r, self.q)
            out[np.ix_(self._rows(i), self._cols(j))] = s["C"]
        return out, {}
