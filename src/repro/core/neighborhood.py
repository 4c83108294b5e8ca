"""Isomorphic ``t``-neighborhoods and their combinatorics.

A *t-neighborhood* (Section 2) is an ordered list of ``t`` relative
coordinate offset vectors ``N[0], …, N[t-1]`` in ``d`` dimensions.
Repetitions are allowed; the zero vector makes a process a neighbor of
itself.  A set of identical t-neighborhoods across all processes is
*Cartesian* (isomorphic), which is the precondition for locally computed
deadlock-free schedules.

This module holds the neighborhood value type and every combinatorial
quantity the paper derives from it (all of Table 1):

* ``z_i`` — number of non-zero coordinates of ``N[i]`` (hop count of block
  ``i`` under coordinate-wise path expansion);
* ``C_k`` — number of *distinct non-zero* k-th coordinates (rounds of
  phase ``k``); ``C = Σ_k C_k`` total message-combining rounds;
* alltoall volume ``V = Σ_i z_i`` (Proposition 3.2);
* allgather volume = edge count of the Algorithm-2 tree (Proposition 3.3,
  computed in :mod:`repro.core.allgather_schedule` and re-exported here);
* the cut-off ratio ``(t − C)/(V − t)``: message-combining alltoall wins
  for block sizes ``m < (α/β) · (t − C)/(V − t)``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.mpisim.exceptions import NeighborhoodError


class Neighborhood:
    """An ordered list of relative coordinate offsets.

    Parameters
    ----------
    offsets:
        ``t`` offset vectors, each of arity ``d`` (any integers, positive
        or negative; repetitions and the zero vector allowed).
    weights:
        optional per-neighbor weights (Listing 1's interface; the
        algorithms ignore them, matching the paper).
    """

    __slots__ = ("offsets", "weights", "__dict__")

    def __init__(
        self,
        offsets: Sequence[Sequence[int]] | np.ndarray,
        weights: Sequence[int] | None = None,
    ):
        arr = np.asarray(offsets, dtype=np.int64)
        if arr.ndim == 1 and arr.size == 0:
            raise NeighborhoodError("neighborhood must contain at least one offset")
        if arr.ndim != 2:
            raise NeighborhoodError(
                f"offsets must be a t×d array of vectors, got shape {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise NeighborhoodError("neighborhood must contain at least one offset")
        arr.setflags(write=False)
        self.offsets = arr
        if weights is not None:
            w = tuple(int(x) for x in weights)
            if len(w) != arr.shape[0]:
                raise NeighborhoodError(
                    f"{len(w)} weights for {arr.shape[0]} neighbors"
                )
            self.weights: tuple[int, ...] | None = w
        else:
            self.weights = None

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def t(self) -> int:
        """Number of neighbors."""
        return int(self.offsets.shape[0])

    @property
    def d(self) -> int:
        """Dimension."""
        return int(self.offsets.shape[1])

    def __len__(self) -> int:
        return self.t

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self.offsets:
            yield tuple(int(x) for x in row)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.offsets[i])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Neighborhood)
            and self.offsets.shape == other.offsets.shape
            and bool(np.array_equal(self.offsets, other.offsets))
        )

    def __hash__(self) -> int:
        # The shape must participate: a t×d and a (t·d)×1 neighborhood
        # can share the same raw bytes while comparing unequal.
        return hash((self.offsets.shape, self.offsets.tobytes()))

    def __repr__(self) -> str:
        return f"Neighborhood(t={self.t}, d={self.d})"

    # ------------------------------------------------------------------
    # combinatorics (Table 1)
    # ------------------------------------------------------------------
    @cached_property
    def hops(self) -> tuple[int, ...]:
        """``z_i`` per neighbor: non-zero coordinate count."""
        return tuple(int(x) for x in (self.offsets != 0).sum(axis=1))

    @cached_property
    def distinct_nonzero_per_dim(self) -> tuple[int, ...]:
        """``C_k`` per dimension: distinct non-zero k-th coordinates."""
        out = []
        for k in range(self.d):
            col = self.offsets[:, k]
            out.append(int(np.unique(col[col != 0]).size))
        return tuple(out)

    @property
    def combining_rounds(self) -> int:
        """``C = Σ_k C_k`` — communication rounds of the
        message-combining schedules (both alltoall and allgather)."""
        return sum(self.distinct_nonzero_per_dim)

    @property
    def trivial_rounds(self) -> int:
        """Rounds of the trivial algorithm: one per neighbor, minus pure
        local copies (zero vectors are copied, not communicated)."""
        return self.t - self.zero_vector_count

    @cached_property
    def zero_vector_count(self) -> int:
        """Multiplicity of the zero offset (self-neighbor)."""
        return int((~self.offsets.any(axis=1)).sum())

    @property
    def has_self(self) -> bool:
        return self.zero_vector_count > 0

    @property
    def alltoall_volume(self) -> int:
        """``V = Σ_i z_i`` (Proposition 3.2): how many block-sends each
        process performs across all message-combining rounds."""
        return sum(self.hops)

    @cached_property
    def allgather_volume(self) -> int:
        """Edge count of the Algorithm-2 allgather tree built in
        increasing-``C_k`` dimension order (Proposition 3.3)."""
        from repro.core.allgather_schedule import AllgatherTree

        return AllgatherTree.build(self).edge_count

    def cutoff_ratio(self) -> float:
        """``(t − C)/(V − t)``: Table 1's published column, counting the
        self block in ``t`` — not the decision ``auto`` makes, which
        does not (:func:`repro.netsim.machine.cutoff_counts`).  ``inf``
        when ``V ≤ t``, ``0.0`` when combining saves no rounds."""
        t, C, V = self.t, self.combining_rounds, self.alltoall_volume
        if t <= C:
            return 0.0
        if V <= t:
            return float("inf")
        return (t - C) / (V - t)

    # ------------------------------------------------------------------
    # structure helpers used by the schedules
    # ------------------------------------------------------------------
    def bucket_order(self, k: int) -> list[int]:
        """Indices ``0..t-1`` stably sorted by the k-th coordinate —
        ``BucketSort(t, N, k, order)`` of Algorithm 1.

        A counting sort over the value range keeps the O(t) bound when
        coordinates are bounded; NumPy's stable mergesort is used as the
        equivalent here (the asymptotic claim is about the C library).
        """
        if not (0 <= k < self.d):
            raise IndexError(f"dimension {k} out of range [0, {self.d})")
        return list(np.argsort(self.offsets[:, k], kind="stable"))

    def canonical_bucket_order(self, k: int) -> list[int]:
        """Like :meth:`bucket_order` but with ties broken by the *full*
        offset vector (lexicographically) before the original index.

        Within one communication round (one k-th coordinate value) the
        send and receive block orders must agree between sender and
        receiver.  The Section 2.2 isomorphism check accepts consistent
        *permutations* of the same offset list; breaking ties by vector
        value keeps the schedules correct under such permutations
        (duplicated vectors still require identical list order, as the
        paper's stricter "exactly the same list" condition guarantees).
        """
        if not (0 <= k < self.d):
            raise IndexError(f"dimension {k} out of range [0, {self.d})")
        cols = [self.offsets[:, j] for j in range(self.d - 1, -1, -1)]
        cols.append(self.offsets[:, k])  # primary key last (np.lexsort)
        return list(np.lexsort(np.vstack(cols)))

    def sources(self) -> "Neighborhood":
        """The mirrored neighborhood: process ``r`` receives from
        ``r − N[i]``, i.e. the sources are ``−N[i]``."""
        return Neighborhood(-self.offsets, self.weights)

    def sorted_canonical(self) -> np.ndarray:
        """Offsets in lexicographic order — the canonical form broadcast
        by the Section-2.2 isomorphism check."""
        return self.offsets[np.lexsort(self.offsets.T[::-1])]

    def validate_for_dims(self, dims: Sequence[int]) -> None:
        """Sanity-check arity against a topology."""
        if len(dims) != self.d:
            raise NeighborhoodError(
                f"neighborhood dimension {self.d} != topology dimension {len(dims)}"
            )

    def distinct_targets(self, dims: Sequence[int]) -> int:
        """Number of distinct target *processes* on a torus with the given
        dimensions (different offsets may alias to the same process when
        offsets differ by multiples of a dimension size)."""
        self.validate_for_dims(dims)
        mod = np.mod(self.offsets, np.asarray(dims, dtype=np.int64))
        return int(np.unique(mod, axis=0).shape[0])


def neighborhood_from_flat(d: int, flat: Iterable[int]) -> Neighborhood:
    """Build a neighborhood from the flattened offset list used by the C
    interface of Listing 1 (``t`` consecutive d-tuples)."""
    data = np.asarray(list(flat), dtype=np.int64)
    if d <= 0:
        raise NeighborhoodError("dimension must be positive")
    if data.size == 0 or data.size % d != 0:
        raise NeighborhoodError(
            f"flattened offset list of length {data.size} is not a multiple "
            f"of d={d}"
        )
    return Neighborhood(data.reshape(-1, d))
