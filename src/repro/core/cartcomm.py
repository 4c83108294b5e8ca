"""The library interface of Section 2 (Listings 1 and 2).

``cart_neighborhood_create`` is the one new communicator-creation
function the paper proposes: called collectively with the Cartesian
layout (dims, periods) *and* the common relative ``t``-neighborhood, it
returns a :class:`CartComm` with the neighborhood attached and the
communication schedules precomputable.  All calling processes must
supply exactly the same neighborhood — the Cartesian (isomorphism)
requirement — which is verified with the cheap O(t) broadcast-and-compare
check of Section 2.2 unless disabled.

:class:`CartComm` then provides

* the helper queries of Listing 2 (``relative_rank``,
  ``relative_shift``, ``relative_coord``, ``neighbor_count``,
  ``neighbor_get``);
* the collective operations ``alltoall``/``alltoallv``/``alltoallw`` and
  ``allgather``/``allgatherv``/``allgatherw`` with MPI neighborhood-
  collective buffer conventions (block ``i`` in neighbor order), each
  selectable between the ``trivial`` (Listing 4), ``combining``
  (Algorithms 1/2) and ``direct`` (baseline) algorithms, with ``auto``
  applying the paper's cut-off rule
  ``m < (α/β)·(t−C)/(V−t)``;
* the persistent ``*_init`` variants which precompute and reuse the
  schedule (the paper's handles for the upcoming MPI persistent
  collectives).

``Cart_allgatherw`` — absent from MPI, argued for in Section 2.1 — is
implemented as well.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:
    from repro.core.nonblocking import SplitPhaseOp
    from repro.core.opstats import OpStats
    from repro.core.persistent import PersistentOp, PersistentReduce

from repro.core import plan, schedule_cache
from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import Backend, ScheduleInterpreter, get_backend
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import Schedule, uniform_block_layout
from repro.core.schedule_cache import blockset_signature, layout_signature
from repro.core.topology import CartTopology
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)
from repro.mpisim.comm import Communicator
from repro.mpisim.datatypes import (
    BlockRef,
    BlockSet,
    Datatype,
    blockset_from_datatype,
    byte_view,
)
from repro.mpisim.exceptions import NeighborhoodError, ScheduleError, TopologyError

#: Default linear-cost parameters for ``algorithm="auto"`` when the
#: caller provides none: 1.5 µs latency, 10 GB/s bandwidth — ballpark for
#: the paper's OmniPath cluster.
DEFAULT_ALPHA = 1.5e-6
DEFAULT_BETA = 1.0e-10

ALGORITHMS = ("auto", "combining", "trivial", "direct")

#: Tag for the funnel pattern's result distribution (all-ranks backends
#: executed at rank 0).  Safe as a fixed tag: the funnel is fully
#: synchronous, so no two funnelled operations are ever in flight at once.
_FUNNEL_TAG = -9

#: Things accepted as a per-neighbor "datatype" by the ``w`` variants:
#: a ready BlockSet, or a (buffer name, Datatype, byte displacement,
#: count) tuple mirroring MPI's (buf, count, displ, type) arguments.
TypeSpecLike = Union[BlockSet, tuple]


def _as_blockset(spec: TypeSpecLike) -> BlockSet:
    if isinstance(spec, BlockSet):
        return spec
    buffer, dtype, displ, count = spec
    if not isinstance(dtype, Datatype):
        raise TypeError(f"expected Datatype in type spec, got {type(dtype)}")
    return blockset_from_datatype(buffer, dtype, base=int(displ), count=int(count))


def verify_isomorphic(comm: Communicator, nbh: Neighborhood) -> None:
    """Section 2.2's check that all processes supplied the same
    neighborhood: broadcast ``t`` and the root's canonically sorted
    offset list, compare locally.  O(t) data per process."""
    root_t = comm.bcast(nbh.t, root=0)
    if root_t != nbh.t:
        raise NeighborhoodError(
            f"rank {comm.rank}: neighborhood size {nbh.t} differs from "
            f"root's {root_t} — neighborhoods are not Cartesian"
        )
    root_sorted = comm.bcast(nbh.sorted_canonical(), root=0)
    if not np.array_equal(root_sorted, nbh.sorted_canonical()):
        raise NeighborhoodError(
            f"rank {comm.rank}: neighborhood differs from the root's — "
            f"neighborhoods are not Cartesian"
        )


def select_algorithm(
    nbh: Neighborhood,
    kind: str,
    m_bytes: int,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> str:
    """The paper's cut-off rule.

    * alltoall: combining wins iff ``Cα + βVm < t(α + βm)``;
    * allgather: for the benchmarked stencil families the combining
      volume equals the trivial volume while rounds shrink
      exponentially, so combining is compared the same way with the
      allgather volume.
    """
    t = nbh.trivial_rounds
    C = nbh.combining_rounds
    V = nbh.alltoall_volume if kind == "alltoall" else nbh.allgather_volume
    if C * alpha + beta * V * m_bytes < t * (alpha + beta * m_bytes):
        return "combining"
    return "trivial"


class CartComm:
    """A communicator with Cartesian layout and isomorphic neighborhood
    attached (the object ``cart_neighborhood_create`` returns)."""

    def __init__(
        self,
        comm: Communicator,
        topo: CartTopology,
        nbh: Neighborhood,
        *,
        info: Optional[dict] = None,
        validate: bool = True,
        backend: Union[str, Backend, None] = None,
    ):
        if comm.size != topo.size:
            raise TopologyError(
                f"communicator size {comm.size} != topology size {topo.size}"
            )
        nbh.validate_for_dims(topo.dims)
        if not topo.is_fully_periodic and info is None:
            # allowed — but the combining algorithms will refuse below
            pass
        self.comm = comm.dup()
        self.topo = topo
        self.nbh = nbh
        self.info = dict(info or {})
        self.alpha = float(self.info.get("alpha", DEFAULT_ALPHA))
        self.beta = float(self.info.get("beta", DEFAULT_BETA))
        # Execution backend: explicit argument, then info["backend"],
        # then $REPRO_BACKEND, then "threaded" (see repro.core.backend).
        self.backend = get_backend(
            backend if backend is not None else self.info.get("backend")
        )
        self._transport = (
            self.backend.transport(self.comm)
            if self.backend.capabilities.per_rank
            else None
        )
        if validate:
            verify_isomorphic(self.comm, nbh)
        self._schedule_cache: dict[tuple, Schedule] = {}
        self._op_seq = 0
        self.stats = None
        if self.info.get("collect_stats"):
            self.enable_stats()

    # ------------------------------------------------------------------
    # operation statistics (observability)
    # ------------------------------------------------------------------
    def enable_stats(self) -> "OpStats":
        """Start recording per-operation counters (see
        :mod:`repro.core.opstats`); returns the collector."""
        from repro.core.opstats import OpStats

        if self.stats is None:
            self.stats = OpStats()
        return self.stats

    @staticmethod
    def schedule_cache_info() -> schedule_cache.CacheInfo:
        """Counters of the process-wide schedule cache (hits, misses,
        builds, cumulative build time, size, bound)."""
        return schedule_cache.cache_info()

    @staticmethod
    def schedule_cache_clear() -> None:
        """Empty the process-wide schedule cache."""
        schedule_cache.cache_clear()

    @staticmethod
    def plan_cache_info() -> plan.PlanCacheInfo:
        """Process-wide execution-plan counters (hits, compiles,
        cumulative compile time); see :mod:`repro.core.plan`."""
        return plan.plan_cache_info()

    @staticmethod
    def buffer_pool_stats() -> plan.PoolStats:
        """Counters of the process-wide scratch-buffer pool."""
        return plan.GLOBAL_POOL.stats()

    @staticmethod
    def _algorithm_of(schedule: Schedule) -> str:
        kind = schedule.kind
        if kind.startswith("trivial"):
            return "trivial"
        if kind.startswith("direct"):
            return "direct"
        return "combining"

    def _note_op(self, op: str, schedule: Schedule) -> None:
        if self.stats is not None:
            self.stats.record_schedule(
                op, self._algorithm_of(schedule), schedule,
                backend=self.backend.name,
            )

    # ------------------------------------------------------------------
    # schedule execution (backend dispatch)
    # ------------------------------------------------------------------
    def _execute(
        self, schedule: Schedule, buffers: Mapping[str, np.ndarray]
    ) -> None:
        """Execute ``schedule`` for the calling rank on the selected
        backend: per-rank backends run the interpreter right here, on
        this rank's transport; all-ranks backends are driven collectively
        through rank 0 (:meth:`_execute_funneled`)."""
        if self._transport is not None:
            interp = ScheduleInterpreter(
                self._transport, self.topo, schedule, buffers
            )
            interp.run()
            if self.stats is not None:
                self.stats.record_plan(
                    bool(interp.plan_hit), backend=self.backend.name
                )
                self.stats.record_bytes(
                    interp.bytes_packed,
                    interp.bytes_copied,
                    backend=self.backend.name,
                )
        else:
            self._execute_funneled(schedule, buffers)

    def _execute_funneled(
        self, schedule: Schedule, buffers: Mapping[str, np.ndarray]
    ) -> None:
        """The collective driver for all-ranks backends: gather every
        rank's buffers at rank 0, run ``backend.execute_all`` there, and
        distribute the mutated buffers back.  Rank 0's own arrays are
        mutated in place (object-mode gather passes them by reference);
        the other ranks copy the returned contents into theirs."""
        gathered = self.comm.gather(dict(buffers), root=0)
        if self.rank == 0:
            assert gathered is not None
            before = plan.plan_cache_info()
            self.backend.execute_all(self.topo, schedule, gathered)
            after = plan.plan_cache_info()
            # Rank 0 drives every rank's execution, but each rank still
            # accounts one logical plan lookup per collective (the
            # per-rank path's contract): a hit unless driving the mesh
            # compiled something new.
            hit = after.misses == before.misses
            for r in range(1, self.size):
                self.comm.send((gathered[r], hit), r, tag=_FUNNEL_TAG)
        else:
            result, hit = self.comm.recv(source=0, tag=_FUNNEL_TAG)
            for name, arr in buffers.items():
                byte_view(arr)[:] = byte_view(
                    np.ascontiguousarray(result[name])
                )
        if self.stats is not None:
            # per-process accounting, mirroring the per-rank path
            self.stats.record_plan(hit, backend=self.backend.name)
            self.stats.record_bytes(
                schedule.volume_bytes,
                schedule.local_copy_bytes,
                backend=self.backend.name,
            )

    # ------------------------------------------------------------------
    # identity / layout
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def dims(self) -> tuple[int, ...]:
        return self.topo.dims

    @property
    def periods(self) -> tuple[bool, ...]:
        return self.topo.periods

    def coords(self, rank: Optional[int] = None) -> tuple[int, ...]:
        return self.topo.coords(self.rank if rank is None else rank)

    # ------------------------------------------------------------------
    # Listing 2 helpers
    # ------------------------------------------------------------------
    def relative_rank(self, relative: Sequence[int]) -> Optional[int]:
        """``Cart_relative_rank``: the rank at the given relative offset
        from the calling process (``None`` off a non-periodic edge)."""
        return self.topo.translate(self.rank, relative)

    def relative_shift(self, relative: Sequence[int]) -> tuple[Optional[int], Optional[int]]:
        """``Cart_relative_shift``: ``(source, target)`` ranks for one
        relative offset (Listing 4's primitive)."""
        return self.topo.relative_shift(self.rank, relative)

    def relative_coord(self, rank: int) -> tuple[int, ...]:
        """``Cart_relative_coord``: the relative offset of ``rank`` from
        the calling process (minimal per-dimension representative)."""
        return self.topo.relative_coord(self.rank, rank)

    def neighbor_count(self) -> int:
        """``Cart_neighbor_count``: the neighborhood size ``t``."""
        return self.nbh.t

    def neighbor_get(self) -> tuple[list[int], list[int]]:
        """``Cart_neighbor_get``: (sources, targets) as rank lists in
        neighborhood order — the format ``MPI_Dist_graph_create_adjacent``
        expects (Section 2.2).  On non-periodic meshes, missing neighbors
        are returned as ``None`` entries."""
        sources, targets = [], []
        for off in self.nbh:
            s, t = self.topo.relative_shift(self.rank, off)
            sources.append(s)
            targets.append(t)
        return sources, targets

    def neighbor_weights(self) -> Optional[tuple[int, ...]]:
        return self.nbh.weights

    # ------------------------------------------------------------------
    # algorithm selection and schedule building
    # ------------------------------------------------------------------
    def _resolve_algorithm(self, algorithm: str, kind: str, m_bytes: int) -> str:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        if algorithm == "auto":
            if not self.topo.is_fully_periodic:
                # combining needs a torus; on meshes auto degrades to the
                # trivial algorithm (which skips missing neighbors)
                return "trivial"
            algorithm = select_algorithm(
                self.nbh, kind, m_bytes, self.alpha, self.beta
            )
        if algorithm == "combining" and not self.topo.is_fully_periodic:
            raise TopologyError(
                "message-combining schedules require a fully periodic "
                "torus; use algorithm='trivial' on meshes"
            )
        return algorithm

    def _build_alltoall(
        self,
        algorithm: str,
        send_blocks: Sequence[BlockSet],
        recv_blocks: Sequence[BlockSet],
    ) -> Schedule:
        if algorithm == "combining":
            return build_alltoall_schedule(self.nbh, send_blocks, recv_blocks)
        if algorithm == "trivial":
            return build_trivial_alltoall_schedule(self.nbh, send_blocks, recv_blocks)
        return build_direct_alltoall_schedule(self.nbh, send_blocks, recv_blocks)

    def _build_allgather(
        self,
        algorithm: str,
        send_block: BlockSet,
        recv_blocks: Sequence[BlockSet],
    ) -> Schedule:
        if algorithm == "combining":
            return build_allgather_schedule(self.nbh, send_block, recv_blocks)
        if algorithm == "trivial":
            return build_trivial_allgather_schedule(self.nbh, send_block, recv_blocks)
        return build_direct_allgather_schedule(self.nbh, send_block, recv_blocks)

    def _cached(self, key: tuple, kind: str, make) -> Schedule:
        """Two-level schedule lookup.

        Level 1 is the per-communicator dictionary under a cheap ``key``
        (no block layouts constructed on a hit).  Level 2 is the
        process-wide :mod:`repro.core.schedule_cache` under the
        canonical fingerprint — shared between communicators with the
        same layout and, by isomorphism, between sibling rank threads,
        which would otherwise each build an identical schedule.

        ``make()`` is called only on a level-1 miss and returns
        ``(layout_signature, build_callable)``.
        """
        sched = self._schedule_cache.get(key)
        if sched is not None:
            if self.stats is not None:
                self.stats.record_cache(True, backend=self.backend.name)
            return sched
        layout_sig, build = make()
        gkey = schedule_cache.schedule_key(
            kind, self.nbh, layout_sig, self.dims, self.periods
        )
        sched, hit, build_seconds = schedule_cache.get_or_build(
            gkey, build, self._build_verifier()
        )
        self._schedule_cache[key] = sched
        if self.stats is not None:
            self.stats.record_cache(
                hit, build_seconds, backend=self.backend.name
            )
        return sched

    def _build_verifier(self) -> Optional[Callable[[object], None]]:
        """The ``verify_on_build`` hook: when enabled (tests/CI), every
        schedule entering the process-wide cache is first certified by
        the static verifier — once per entry, never in a timed region."""
        from repro.analyze import config

        if not config.verify_on_build():
            return None
        dims, periods = self.dims, self.periods

        def _verify(sched: object) -> None:
            if isinstance(sched, Schedule):
                from repro.analyze.schedule_verifier import certify_schedule

                certify_schedule(sched, dims, periods)

        return _verify

    def _layout_cached(
        self,
        op: str,  # "alltoall" | "allgather"
        algorithm: str,
        send_blocks: Sequence[BlockSet],
        recv_blocks: Sequence[BlockSet],
    ) -> Schedule:
        """Cache lookup for the v/w variants, whose block layouts come
        from user arguments: the canonical layout signature doubles as
        the per-communicator key.  Layouts identical to a regular call's
        share the same global entry."""
        sig = (layout_signature(send_blocks), layout_signature(recv_blocks))
        if op == "allgather":
            build = lambda: self._build_allgather(
                algorithm, send_blocks[0], recv_blocks
            )
        else:
            build = lambda: self._build_alltoall(
                algorithm, send_blocks, recv_blocks
            )
        return self._cached(
            (op, algorithm, sig), f"{op}/{algorithm}", lambda: (sig, build)
        )

    # ------------------------------------------------------------------
    # regular operations
    # ------------------------------------------------------------------
    def _regular_alltoall_schedule(self, m_bytes: int, algorithm: str) -> Schedule:
        algorithm = self._resolve_algorithm(algorithm, "alltoall", m_bytes)

        def make():
            sizes = [m_bytes] * self.nbh.t
            send_blocks = uniform_block_layout(sizes, "send")
            recv_blocks = uniform_block_layout(sizes, "recv")
            sig = (layout_signature(send_blocks), layout_signature(recv_blocks))
            return sig, lambda: self._build_alltoall(
                algorithm, send_blocks, recv_blocks
            )

        return self._cached(
            ("a2a", algorithm, m_bytes), f"alltoall/{algorithm}", make
        )

    def alltoall(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_alltoall``: block ``i`` of ``sendbuf`` goes to target
        ``N[i]``; block ``i`` of ``recvbuf`` receives from source
        ``−N[i]``.  Both buffers hold ``t`` equal blocks."""
        t = self.nbh.t
        if sendbuf.size % t or recvbuf.size % t:
            raise ValueError(
                f"buffer sizes {sendbuf.size}/{recvbuf.size} not divisible "
                f"by t={t}"
            )
        if sendbuf.nbytes != recvbuf.nbytes:
            raise ValueError("send and receive buffers must match in bytes")
        m_bytes = sendbuf.nbytes // t
        sched = self._regular_alltoall_schedule(m_bytes, algorithm)
        self._note_op("alltoall", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    def _regular_allgather_schedule(self, m_bytes: int, algorithm: str) -> Schedule:
        algorithm = self._resolve_algorithm(algorithm, "allgather", m_bytes)

        def make():
            send_block = BlockSet([BlockRef("send", 0, m_bytes)])
            recv_blocks = uniform_block_layout([m_bytes] * self.nbh.t, "recv")
            sig = (layout_signature([send_block]), layout_signature(recv_blocks))
            return sig, lambda: self._build_allgather(
                algorithm, send_block, recv_blocks
            )

        return self._cached(
            ("ag", algorithm, m_bytes), f"allgather/{algorithm}", make
        )

    def allgather(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_allgather``: the whole of ``sendbuf`` goes to every
        target; ``recvbuf`` holds ``t`` blocks in source order."""
        t = self.nbh.t
        if recvbuf.nbytes != sendbuf.nbytes * t:
            raise ValueError(
                f"recvbuf must hold t={t} blocks of {sendbuf.nbytes} bytes"
            )
        sched = self._regular_allgather_schedule(sendbuf.nbytes, algorithm)
        self._note_op("allgather", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    # ------------------------------------------------------------------
    # irregular (v) operations
    # ------------------------------------------------------------------
    def _v_layout(
        self,
        counts: Sequence[int],
        displs: Optional[Sequence[int]],
        itemsize: int,
        buffer: str,
    ) -> list[BlockSet]:
        t = self.nbh.t
        if len(counts) != t:
            raise ValueError(f"need {t} counts, got {len(counts)}")
        if displs is None:
            return uniform_block_layout(
                [int(c) * itemsize for c in counts], buffer
            )
        if len(displs) != t:
            raise ValueError(f"need {t} displacements, got {len(displs)}")
        return [
            BlockSet([BlockRef(buffer, int(d) * itemsize, int(c) * itemsize)])
            for c, d in zip(counts, displs)
        ]

    def alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts: Sequence[int],
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        *,
        sdispls: Optional[Sequence[int]] = None,
        rdispls: Optional[Sequence[int]] = None,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_alltoallv``: per-neighbor block sizes (element counts of
        the buffers' dtype) and optional element displacements.

        For the message-combining algorithm the counts must — by
        isomorphism — be identical on all processes, and
        ``sendcounts[i] == recvcounts[i]`` (block ``i`` keeps its size
        along its route); this is checked at schedule construction.
        """
        for i, (sc, rc) in enumerate(zip(sendcounts, recvcounts)):
            if sc != rc:
                raise ValueError(
                    f"neighbor {i}: sendcounts[{i}]={sc} != recvcounts[{i}]="
                    f"{rc}; Cartesian alltoallv requires matching counts "
                    f"(blocks keep their size along the route)"
                )
        send_blocks = self._v_layout(sendcounts, sdispls, sendbuf.itemsize, "send")
        recv_blocks = self._v_layout(recvcounts, rdispls, recvbuf.itemsize, "recv")
        m_bytes = max((b.total_nbytes for b in send_blocks), default=0)
        algorithm = self._resolve_algorithm(algorithm, "alltoall", m_bytes)
        sched = self._layout_cached(
            "alltoall", algorithm, send_blocks, recv_blocks
        )
        self._note_op("alltoallv", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    def allgatherv(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        *,
        rdispls: Optional[Sequence[int]] = None,
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_allgatherv``: per-source receive placement.

        Isomorphism makes all contributed blocks the same size, so every
        ``recvcounts[i]`` must equal ``sendbuf``'s element count; the
        ``v`` freedom that remains (and that MPI's interface offers) is
        the per-source placement via ``rdispls``.
        """
        n = sendbuf.size
        for i, rc in enumerate(recvcounts):
            if rc != n:
                raise ValueError(
                    f"recvcounts[{i}]={rc} != send count {n}: Cartesian "
                    f"allgather blocks are uniform by isomorphism"
                )
        send_block = BlockSet([BlockRef("send", 0, sendbuf.nbytes)])
        recv_blocks = self._v_layout(recvcounts, rdispls, recvbuf.itemsize, "recv")
        algorithm = self._resolve_algorithm(algorithm, "allgather", sendbuf.nbytes)
        sched = self._layout_cached(
            "allgather", algorithm, [send_block], recv_blocks
        )
        self._note_op("allgatherv", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    # ------------------------------------------------------------------
    # typed (w) operations
    # ------------------------------------------------------------------
    def alltoallw(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtypes: Sequence[TypeSpecLike],
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> None:
        """``Cart_alltoallw``: one datatype per neighbor on each side,
        addressing arbitrary named buffers (Listing 3's usage: ROW/COL/
        COR types straight into the application matrix, no staging)."""
        send_blocks = [_as_blockset(s) for s in sendtypes]
        recv_blocks = [_as_blockset(s) for s in recvtypes]
        m_bytes = max((b.total_nbytes for b in send_blocks), default=0)
        algorithm = self._resolve_algorithm(algorithm, "alltoall", m_bytes)
        sched = self._layout_cached(
            "alltoall", algorithm, send_blocks, recv_blocks
        )
        self._note_op("alltoallw", sched)
        self._execute(sched, buffers)

    def allgatherw(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtype: TypeSpecLike,
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> None:
        """``Cart_allgatherw`` — the operation the paper proposes adding
        to MPI: same contributed block, per-source receive datatypes."""
        send_block = _as_blockset(sendtype)
        recv_blocks = [_as_blockset(s) for s in recvtypes]
        algorithm = self._resolve_algorithm(
            algorithm, "allgather", send_block.total_nbytes
        )
        sched = self._layout_cached(
            "allgather", algorithm, [send_block], recv_blocks
        )
        self._note_op("allgatherw", sched)
        self._execute(sched, buffers)

    # ------------------------------------------------------------------
    # non-blocking (split-phase) operations
    # ------------------------------------------------------------------
    def _next_op_tag(self) -> int:
        """A fresh tag per started collective.  All ranks start their
        collectives in the same order (the MPI rule), so the sequence —
        and hence the tag — agrees across ranks, and overlapping
        non-blocking operations can never cross-match messages."""
        self._op_seq += 1
        return -500 - (self._op_seq % 100000)

    def ialltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> "SplitPhaseOp":
        """Non-blocking ``Cart_alltoall``: posts the first phase and
        returns a :class:`~repro.core.nonblocking.SplitPhaseOp` —
        ``test()`` to progress, ``wait()`` to complete.  Computation can
        overlap between ``start`` and ``wait``."""
        from repro.core.nonblocking import start_schedule

        t = self.nbh.t
        if sendbuf.size % t or sendbuf.nbytes != recvbuf.nbytes:
            raise ValueError("buffers must hold t equal blocks each")
        m_bytes = sendbuf.nbytes // t
        sched = self._regular_alltoall_schedule(m_bytes, algorithm)
        return start_schedule(
            self.comm, self.topo, sched,
            {"send": sendbuf, "recv": recvbuf}, self._next_op_tag(),
        )

    def iallgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> "SplitPhaseOp":
        """Non-blocking ``Cart_allgather`` (see :meth:`ialltoall`)."""
        from repro.core.nonblocking import start_schedule

        t = self.nbh.t
        if recvbuf.nbytes != sendbuf.nbytes * t:
            raise ValueError(f"recvbuf must hold t={t} send-sized blocks")
        sched = self._regular_allgather_schedule(sendbuf.nbytes, algorithm)
        return start_schedule(
            self.comm, self.topo, sched,
            {"send": sendbuf, "recv": recvbuf}, self._next_op_tag(),
        )

    # ------------------------------------------------------------------
    # neighborhood reductions (extension; see reduce_schedule.py)
    # ------------------------------------------------------------------
    def _resolve_reduce_algorithm(self, algorithm: str) -> str:
        """Reduction flavour of :meth:`_resolve_algorithm`.  There is no
        ``direct`` reduction algorithm; both ``auto`` and ``direct``
        defer to the round-count rule (combining iff the torus is fully
        periodic and ``C < t``)."""
        from repro.core import reduce_schedule as rs

        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        if algorithm in ("auto", "direct"):
            algorithm = rs.select_reduce_algorithm(self.topo, self.nbh)
        if algorithm == "combining" and not self.topo.is_fully_periodic:
            raise TopologyError(
                "message-combining reductions require a fully periodic "
                "torus; use algorithm='trivial' on meshes"
            )
        return algorithm

    def _reduce_schedule(
        self,
        family: str,  # "reduce" | "reduce-scatter" | "allreduce"
        algorithm: str,  # "combining" | "trivial" (already resolved)
        m_bytes: int,
        dtype: np.dtype,
        op: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]],
    ) -> Schedule:
        """Reduction schedules through the same two-level cache the
        collectives use; the layout signature is ``(block bytes, dtype,
        operator token)``, so schedules for different operators or
        element types never alias."""
        from repro.core import reduce_schedule as rs

        kind = family if algorithm == "combining" else f"trivial-{family}"
        build_fn = {**rs.REDUCE_BUILDERS, **rs.TRIVIAL_REDUCE_BUILDERS}[kind]
        sig = (int(m_bytes), np.dtype(dtype).str, rs.op_token(op))

        def make():
            build = lambda: build_fn(
                self.nbh, m_bytes=int(m_bytes), dtype=dtype, op=op
            )
            return sig, build

        return self._cached((kind, sig), kind, make)

    def reduce_neighbors(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = "sum",
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_reduce``-style neighborhood reduction: ``recvbuf`` =
        ``op`` over the blocks contributed by all source neighbors
        ``(rank − N[i]) mod dims`` (the self block participates when the
        zero vector is in the neighborhood).

        ``op`` is a name from :data:`repro.core.reduce_schedule.OPS` or
        an associative+commutative callable on NumPy arrays.  The
        ``combining`` algorithm runs the allgather tree in reverse —
        ``C`` rounds instead of ``t``.
        """
        if recvbuf.shape != sendbuf.shape or recvbuf.dtype != sendbuf.dtype:
            raise ValueError(
                "recvbuf must match sendbuf in shape and dtype for reductions"
            )
        algorithm = self._resolve_reduce_algorithm(algorithm)
        sched = self._reduce_schedule(
            "reduce", algorithm, sendbuf.nbytes, sendbuf.dtype, op
        )
        self._note_op("reduce_neighbors", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    def reduce_neighbors_allreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = "sum",
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_neighbor_allreduce``: receive block ``i`` of
        ``recvbuf`` holds the *full* neighborhood reduction of source
        neighbor ``rank − N[i]`` — as if every rank had called
        :meth:`reduce_neighbors` and then allgathered its result, but in
        one schedule of ``2C`` rounds (reverse reduction tree + the
        forward allgather tree broadcasting the reduced block).

        Only the message-combining composition exists, so the operation
        requires a fully periodic torus.
        """
        t = self.nbh.t
        if (
            recvbuf.dtype != sendbuf.dtype
            or recvbuf.nbytes != sendbuf.nbytes * t
        ):
            raise ValueError(
                f"recvbuf must hold t={t} blocks matching sendbuf in "
                f"dtype and block size for allreduce"
            )
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
            )
        if algorithm == "trivial":
            raise ScheduleError(
                "neighborhood allreduce has no trivial algorithm; it is "
                "the reverse-tree + forward-broadcast composition"
            )
        if not self.topo.is_fully_periodic:
            raise TopologyError(
                "message-combining reductions require a fully periodic "
                "torus; neighborhood allreduce has no mesh variant"
            )
        sched = self._reduce_schedule(
            "allreduce", "combining", sendbuf.nbytes, sendbuf.dtype, op
        )
        self._note_op("reduce_neighbors_allreduce", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    def reduce_scatter_block(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = "sum",
        algorithm: str = "auto",
    ) -> np.ndarray:
        """``Cart_reduce_scatter_block``: send block ``i`` of
        ``sendbuf`` is destined for target ``rank + N[i]``; ``recvbuf``
        = ``op`` over the blocks addressed to this rank, i.e. send block
        ``i`` of source ``rank − N[i]`` for every ``i``.

        The combining algorithm folds contributions along the reverse
        allgather tree — the sparse-neighborhood analogue of the optimal
        non-pipelined reduce-scatter round structure (Träff 2024,
        arXiv:2410.14234) — in ``C`` rounds instead of ``t``.
        """
        t = self.nbh.t
        if (
            recvbuf.dtype != sendbuf.dtype
            or sendbuf.nbytes != recvbuf.nbytes * t
        ):
            raise ValueError(
                f"sendbuf must hold t={t} blocks matching recvbuf in "
                f"dtype and block size for reduce_scatter_block"
            )
        algorithm = self._resolve_reduce_algorithm(algorithm)
        sched = self._reduce_schedule(
            "reduce-scatter", algorithm, recvbuf.nbytes, recvbuf.dtype, op
        )
        self._note_op("reduce_scatter_block", sched)
        self._execute(sched, {"send": sendbuf, "recv": recvbuf})
        return recvbuf

    # ------------------------------------------------------------------
    # persistent (init) operations
    # ------------------------------------------------------------------
    def alltoall_init(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> "PersistentOp":
        """``Cart_alltoall_init``: precompute the schedule and bind the
        buffers; returns a reusable handle (see Listing 3's usage)."""
        from repro.core.persistent import PersistentOp

        t = self.nbh.t
        m_bytes = sendbuf.nbytes // t
        sched = self._regular_alltoall_schedule(m_bytes, algorithm)
        return PersistentOp(
            self, sched, {"send": sendbuf, "recv": recvbuf}, op="alltoall"
        )

    def allgather_init(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> "PersistentOp":
        from repro.core.persistent import PersistentOp

        sched = self._regular_allgather_schedule(sendbuf.nbytes, algorithm)
        return PersistentOp(
            self, sched, {"send": sendbuf, "recv": recvbuf}, op="allgather"
        )

    def alltoallv_init(
        self,
        sendbuf: np.ndarray,
        sendcounts: Sequence[int],
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        *,
        sdispls: Optional[Sequence[int]] = None,
        rdispls: Optional[Sequence[int]] = None,
        algorithm: str = "auto",
    ) -> "PersistentOp":
        from repro.core.persistent import PersistentOp

        send_blocks = self._v_layout(sendcounts, sdispls, sendbuf.itemsize, "send")
        recv_blocks = self._v_layout(recvcounts, rdispls, recvbuf.itemsize, "recv")
        m_bytes = max((b.total_nbytes for b in send_blocks), default=0)
        algorithm = self._resolve_algorithm(algorithm, "alltoall", m_bytes)
        sched = self._layout_cached(
            "alltoall", algorithm, send_blocks, recv_blocks
        )
        return PersistentOp(
            self, sched, {"send": sendbuf, "recv": recvbuf}, op="alltoallv"
        )

    def alltoallw_init(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtypes: Sequence[TypeSpecLike],
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> "PersistentOp":
        from repro.core.persistent import PersistentOp

        send_blocks = [_as_blockset(s) for s in sendtypes]
        recv_blocks = [_as_blockset(s) for s in recvtypes]
        m_bytes = max((b.total_nbytes for b in send_blocks), default=0)
        algorithm = self._resolve_algorithm(algorithm, "alltoall", m_bytes)
        sched = self._layout_cached(
            "alltoall", algorithm, send_blocks, recv_blocks
        )
        return PersistentOp(self, sched, dict(buffers), op="alltoallw")

    def reduce_neighbors_init(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = "sum",
        algorithm: str = "auto",
    ) -> "PersistentReduce":
        """Persistent neighborhood reduction: schedule and accumulator
        layout precomputed, buffers bound."""
        from repro.core.persistent import PersistentReduce

        return PersistentReduce(self, sendbuf, recvbuf, op, algorithm)

    def allgatherw_init(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtype: TypeSpecLike,
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> "PersistentOp":
        from repro.core.persistent import PersistentOp

        send_block = _as_blockset(sendtype)
        recv_blocks = [_as_blockset(s) for s in recvtypes]
        algorithm = self._resolve_algorithm(
            algorithm, "allgather", send_block.total_nbytes
        )
        sched = self._layout_cached(
            "allgather", algorithm, [send_block], recv_blocks
        )
        return PersistentOp(self, sched, dict(buffers), op="allgatherw")

    def __repr__(self) -> str:
        return (
            f"CartComm(rank={self.rank}, dims={self.dims}, "
            f"t={self.nbh.t})"
        )


def cart_neighborhood_create(
    comm: Communicator,
    dims: Sequence[int],
    periods: Optional[Sequence[bool]],
    offsets: Union[Neighborhood, np.ndarray, Sequence[int], Sequence[Sequence[int]]],
    *,
    weights: Optional[Sequence[int]] = None,
    info: Optional[dict] = None,
    reorder: bool = False,
    validate: bool = True,
    backend: Union[str, Backend, None] = None,
) -> CartComm:
    """Listing 1's ``Cart_neighborhood_create``.

    Collective over ``comm``: organizes the processes as a d-dimensional
    mesh/torus with the given dimension sizes and periodicity, attaches
    the common relative ``t``-neighborhood (``offsets`` — a
    :class:`Neighborhood`, a t×d array, or a flattened offset list with
    arity taken from ``dims``), and returns the Cartesian communicator.

    ``reorder`` is accepted for interface fidelity; like the MPI
    libraries the paper measures (see [6] there), no remapping is
    performed.  ``weights`` are stored for future remapping strategies.

    ``backend`` selects the execution strategy (``"threaded"``,
    ``"lockstep"``, ``"batched"``, ``"shm"``, or a
    :class:`~repro.core.backend.base.Backend` instance); ``None`` falls
    back to ``info["backend"]``, then ``$REPRO_BACKEND``, then
    ``"threaded"``.  Prefer ``"batched"`` for large meshes — it runs the
    whole mesh as one vectorized numpy program.
    """
    topo = CartTopology(dims, periods)
    if isinstance(offsets, Neighborhood):
        nbh = offsets if weights is None else Neighborhood(offsets.offsets, weights)
    else:
        arr = np.asarray(offsets, dtype=np.int64)
        if arr.ndim == 1:
            if arr.size % topo.ndim:
                raise NeighborhoodError(
                    f"flattened offset list of {arr.size} entries is not a "
                    f"multiple of d={topo.ndim}"
                )
            arr = arr.reshape(-1, topo.ndim)
        nbh = Neighborhood(arr, weights)
    del reorder  # accepted, not acted upon (matches measured MPI libraries)
    return CartComm(
        comm, topo, nbh, info=info, validate=validate, backend=backend
    )
