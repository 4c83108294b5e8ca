"""Iterated all-to-all broadcast on k-ary n-tori, with optimality audit.

Every process owns one block; one sweep delivers every block to every
process — ``Cart_allgather`` over the **full-torus neighborhood**
(:func:`full_torus_neighborhood`: one offset per torus residue, so the
neighborhood *is* the whole machine).  The app iterates the sweep:
after each broadcast every rank folds the gathered blocks into its next
block through a slot-weighted modular sum, so any routing error — a
block landing in the wrong receive slot, a stale buffer, a missed
round — corrupts all later state and fails bit-equality certification.

The second purpose of the app is quantitative:
:func:`verify_broadcast_optimality` checks the library's schedules
against the all-to-all broadcast bounds of Jung & Sakho
("Towards understanding optimal MIMD queueless routing of arbitrary
permutations", arXiv:0909.1374), translated to this library's cost
model (:class:`~repro.core.schedule.Schedule` rounds/volume metrics):

* **coverage** (V601) — an all-to-all broadcast must inform every
  process, i.e. the neighborhood's distinct torus targets plus the
  process itself must cover all ``p`` ranks;
* **volume optimality** (V602) — each process must *receive* ``p − 1``
  foreign blocks, and by isomorphism therefore *send* exactly ``p − 1``
  block-transmissions when the broadcast is spanning-tree optimal:
  fewer cannot inform everyone, more is redundant traffic;
* **round bounds** (V603) — per sweep a process's knowledge at most
  doubles, so any correct broadcast needs ``≥ ⌈log₂ p⌉`` rounds; and
  the message-combining schedule must achieve the dimension-ordered
  optimum ``Σ_k C_k`` rounds (Prop. 3.1), i.e. ``d`` rounds of
  knowledge-pipelining per torus axis.

Both library algorithms sit on the optimal-volume frontier: combining
at ``Σ_k (d_k − 1)`` rounds, trivial at ``p − 1`` rounds — the
startup/volume trade-off of the paper's Section 5 measured exactly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.apps.base import AppRun, CartesianApp
from repro.analyze.report import VerificationReport
from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.cartcomm import CartComm
from repro.core.neighborhood import Neighborhood
from repro.core.persistent import PersistentOp
from repro.core.schedule import Schedule, uniform_block_layout
from repro.core.topology import CartTopology
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_trivial_allgather_schedule,
)
from repro.mpisim.datatypes import BlockRef, BlockSet

__all__ = [
    "MOD",
    "AllToAllBroadcast",
    "broadcast_schedule",
    "full_torus_neighborhood",
    "verify_broadcast_optimality",
]

#: Modulus of the state chain — prime, and small enough that a
#: slot-weighted sum of ``p`` terms stays far from int64 overflow.
MOD = 1_000_003


def full_torus_neighborhood(dims: Sequence[int]) -> Neighborhood:
    """The neighborhood that covers a ``d₀ × … × d_{n−1}`` torus exactly:
    one offset per residue, each coordinate ranging over the centered
    interval ``[−⌊d_k/2⌋, d_k − ⌊d_k/2⌋)``.  Includes the zero (self)
    offset, so an allgather over it is a true all-to-all broadcast with
    ``t = p`` receive slots."""
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError(f"torus dimensions must be positive, got {dims}")
    axes = [range(-(d // 2), d - d // 2) for d in dims]
    offsets = np.asarray(list(itertools.product(*axes)), dtype=np.int64)
    return Neighborhood(offsets)


def broadcast_schedule(
    dims: Sequence[int], m_bytes: int, algorithm: str
) -> Schedule:
    """The schedule one sweep of the broadcast runs: an allgather of one
    ``m_bytes`` block per process over the full-torus neighborhood."""
    nbh = full_torus_neighborhood(dims)
    send_block = BlockSet([BlockRef("send", 0, int(m_bytes))])
    recv_blocks = uniform_block_layout([int(m_bytes)] * nbh.t, "recv")
    if algorithm == "combining":
        return build_allgather_schedule(nbh, send_block, recv_blocks)
    if algorithm == "trivial":
        return build_trivial_allgather_schedule(nbh, send_block, recv_blocks)
    if algorithm == "direct":
        return build_direct_allgather_schedule(nbh, send_block, recv_blocks)
    raise ValueError(f"unknown broadcast algorithm {algorithm!r}")


def verify_broadcast_optimality(
    schedule: Schedule, dims: Sequence[int]
) -> VerificationReport:
    """Audit one broadcast schedule against the Jung & Sakho bounds
    (module docstring); returns the structured report (V601–V603)."""
    dims = tuple(int(d) for d in dims)
    p = math.prod(dims)
    nbh = schedule.neighborhood
    report = VerificationReport(
        kind=f"broadcast/{schedule.kind}",
        dims=dims,
        periods=(True,) * len(dims),
    )
    if nbh.d != len(dims):
        report.add(
            "V601",
            f"neighborhood dimensionality {nbh.d} != torus rank {len(dims)}",
        )
        return report

    covered = nbh.distinct_targets(dims) + (0 if nbh.has_self else 1)
    report.checks_run.append("coverage")
    if covered != p:
        report.add(
            "V601",
            f"neighborhood reaches {covered} of {p} processes: the sweep "
            f"is not an all-to-all broadcast",
        )

    optimum = p - 1
    report.checks_run.append("volume-optimum")
    if schedule.volume_blocks < optimum:
        report.add(
            "V602",
            f"volume {schedule.volume_blocks} blocks < {optimum}: cannot "
            f"deliver every block to every process",
        )
    elif schedule.volume_blocks > optimum:
        report.add(
            "V602",
            f"volume {schedule.volume_blocks} blocks > spanning-tree "
            f"optimum {optimum}: redundant transmissions",
        )

    report.checks_run.append("round-bounds")
    startup = math.ceil(math.log2(p)) if p > 1 else 0
    if schedule.num_rounds < startup:
        report.add(
            "V603",
            f"{schedule.num_rounds} rounds < ⌈log₂ {p}⌉ = {startup}: "
            f"knowledge at most doubles per round",
        )
    if schedule.kind == "allgather" and (
        schedule.num_rounds != nbh.combining_rounds
    ):
        report.add(
            "V603",
            f"combining broadcast runs {schedule.num_rounds} rounds, the "
            f"dimension-ordered optimum is C = {nbh.combining_rounds}",
        )
    return report


@lru_cache(maxsize=32)
def _audit(
    dims: tuple[int, ...], m_bytes: int, algorithm: str
) -> VerificationReport:
    return verify_broadcast_optimality(
        broadcast_schedule(dims, m_bytes, algorithm), dims
    )


class AllToAllBroadcast(CartesianApp):
    """An iterated all-to-all broadcast problem on a k-ary n-torus.

    Parameters
    ----------
    dims:
        torus extents (fully periodic by construction).
    block:
        elements (int64) each process contributes per sweep.
    iterations:
        number of broadcast sweeps; each sweep's result feeds the next
        block, so the final state transitively certifies every sweep.
    """

    name = "broadcast"

    def __init__(
        self,
        dims: Sequence[int],
        block: int = 8,
        iterations: int = 3,
        *,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.dims = tuple(int(d) for d in dims)
        self.p = math.prod(self.dims)
        if self.p < 2:
            raise ValueError("broadcast needs at least two processes")
        self.block = int(block)
        if self.block < 1:
            raise ValueError("block must hold at least one element")
        self.iterations = int(iterations)
        if self.iterations < 1:
            raise ValueError("need at least one broadcast sweep")
        self.periods = (True,) * len(self.dims)
        self.topo = CartTopology(self.dims, self.periods)
        self.nbh = full_torus_neighborhood(self.dims)
        rng = np.random.default_rng(seed)
        self.data = rng.integers(0, MOD, (self.p, self.block)).astype(np.int64)
        #: receive slot ``i`` of rank ``r`` holds the block of
        #: ``translate(r, −N[i])`` — the library's allgather contract.
        self.sources = np.asarray(
            [
                [
                    self.topo.translate(r, tuple(-int(o) for o in off))
                    for off in self.nbh
                ]
                for r in range(self.p)
            ],
            dtype=np.int64,
        )
        self._chain: Optional[tuple[np.ndarray, np.ndarray]] = None

    # -- oracle --------------------------------------------------------
    def _slot_weights(self) -> np.ndarray:
        return np.arange(1, self.nbh.t + 1, dtype=np.int64)

    def _evolve(self) -> tuple[np.ndarray, np.ndarray]:
        """(final states, final sweep's raw receive buffers) — computed
        once from the definition of the collective."""
        if self._chain is None:
            p, t, m = self.p, self.nbh.t, self.block
            weights = self._slot_weights()[None, :, None]
            ranks = np.arange(p, dtype=np.int64)[:, None]
            states = self.data.copy()
            recv = np.zeros((p, t, m), dtype=np.int64)
            for it in range(self.iterations):
                recv = states[self.sources]
                states = ((recv * weights).sum(axis=1) + ranks + it) % MOD
            self._chain = (states, recv.reshape(p, t * m).copy())
        return self._chain

    def _sequential(self) -> np.ndarray:
        return self._evolve()[0]

    def _expected_aux(self) -> dict[str, np.ndarray]:
        return {"recv": self._evolve()[1]}

    # -- optimality audit ----------------------------------------------
    def optimality_report(self, algorithm: str) -> VerificationReport:
        """The audit of this sweep's schedule, built once per process for
        each ``(dims, block bytes, algorithm)`` and shared (read-only)."""
        return _audit(self.dims, self.block * 8, algorithm)

    # -- distributed ---------------------------------------------------
    def run(self, *, algorithm: str = "combining", **options: Any) -> AppRun:
        """Run the sweeps after the audit of their schedule (``backend``,
        ``engine``: :meth:`CartesianApp.run`)."""
        if algorithm in ("combining", "trivial"):
            self.optimality_report(algorithm).raise_if_failed()
        return super().run(algorithm=algorithm, **options)

    def _state(self) -> list[dict[str, np.ndarray]]:
        recv = np.zeros((self.p, self.nbh.t * self.block), dtype=np.int64)
        ranks = np.arange(self.p, dtype=np.int64)[:, None]
        return [{"send": s, "recv": r, "rank": i} for s, r, i in zip(self.data.copy(), recv, ranks)]

    def _exchange(self, cart: CartComm, buffers: Mapping, algorithm: str) -> PersistentOp:
        return cart.allgather_init(buffers["send"], buffers["recv"], algorithm=algorithm)

    def _step(self, state: Mapping[str, np.ndarray], it: int) -> None:
        recv = state["recv"]
        blocks = recv.reshape(*recv.shape[:-1], self.nbh.t, self.block)
        state["send"][...] = (self._slot_weights() @ blocks + state["rank"] + it) % MOD

    def _finish(self, states: Sequence[Mapping[str, np.ndarray]]) -> tuple[np.ndarray, dict]:
        return np.stack([s["send"] for s in states]), {
            "recv": np.stack([s["recv"] for s in states])
        }
