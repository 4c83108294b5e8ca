"""The library interface of Section 2 (Listings 1 and 2).

``cart_neighborhood_create`` is the one new communicator-creation
function the paper proposes: called collectively with the Cartesian
layout (dims, periods) *and* the common relative ``t``-neighborhood, it
returns a :class:`CartComm` with the neighborhood attached and the
communication schedules precomputable.  All calling processes must
supply exactly the same neighborhood — the Cartesian (isomorphism)
requirement — which is verified with the cheap O(t) compare-with-the-root
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
  applying the paper's cut-off rule ``Cα + βVm < t(α + βm)``
  (:meth:`repro.netsim.machine.MachineModel.select_algorithm` on the
  library's default model);
* the persistent ``*_init`` variants which precompute and reuse the
  schedule (the paper's handles for the upcoming MPI persistent
  collectives), and the non-blocking ``ialltoall``/``iallgather``.

Every collective exists once, as a private ``_bind_<op>`` that checks
the arguments, resolves the algorithm and fetches the schedule into a
:class:`~repro.core.schedule.BoundOp`; the public methods only launch
it — blocking (``Backend.run``), ``i*`` (start), ``*_init`` (keep).

``Cart_allgatherw`` — absent from MPI, argued for in Section 2.1 — is
implemented as well.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.analyze import config
from repro.core import plan, schedule_cache
from repro.core import reduce_schedule as rs
from repro.core.backend import Backend, ThreadedBackend, get_backend
from repro.core.builders import SCHEDULE_BUILDERS, algorithm_of, schedule_kind
from repro.core.neighborhood import Neighborhood
from repro.core.nonblocking import SplitPhaseOp
from repro.core.opstats import OpStats
from repro.core.persistent import PersistentOp, PersistentReduce
from repro.core.schedule import (
    BoundOp,
    Schedule,
    uniform_block_layout,
    uniform_layout_signature,
)
from repro.core.schedule_cache import layout_signature
from repro.core.topology import CartTopology
from repro.mpisim.comm import Communicator
from repro.mpisim.datatypes import (
    BlockRef,
    BlockSet,
    Datatype,
    blockset_from_datatype,
)
from repro.mpisim.exceptions import NeighborhoodError, ScheduleError, TopologyError
from repro.mpisim.exceptions import UnknownBufferError

if TYPE_CHECKING:
    from repro.analyze.certificates import CertificateInfo

ALGORITHMS = ("auto", "combining", "trivial", "direct")

#: level-1 cache-key prefix of the regular (uniform-block) operations
_REGULAR_KEY = {"alltoall": "a2a", "allgather": "ag"}

#: A neighbourhood: a :class:`Neighborhood`, a t×d array, or a flat list.
OffsetsLike = Union[Neighborhood, np.ndarray, Sequence[int], Sequence[Sequence[int]]]

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


class CommRecord:
    """What Section 2.2 makes the same on every rank of a communicator,
    held once per process: the root lays it out and a rank whose own
    arguments agree works on that very object.  ``schedules`` (level 1
    of :meth:`CartComm._cached`) and ``checked`` (:meth:`CartComm.
    _check_bounds`) are filled by whichever rank gets there first —
    concurrent fills store equal values; ``args`` are the creator's raw
    arguments, for the identity test that spares a sibling the layout."""

    __slots__ = ("args", "topo", "nbh", "canonical", "schedules", "checked")

    def __init__(self, topo: CartTopology, nbh: Neighborhood, args: tuple = ()):
        nbh.validate_for_dims(topo.dims)
        self.args, self.topo, self.nbh = args, topo, nbh
        self.canonical = nbh.sorted_canonical()
        self.schedules: dict[tuple, Schedule] = {}
        self.checked: dict[tuple, Schedule] = {}


def mismatch(mine: CommRecord, root: CommRecord) -> Optional[str]:
    """Section 2.2's O(t) comparison of one process with the root: what
    differs — ``"size"`` (step 1, the neighbor count ``t``), ``"offsets"``
    (step 2, the canonically sorted offset list) — or ``None``."""
    if root.nbh.t != mine.nbh.t:
        return "size"
    if not np.array_equal(root.canonical, mine.canonical):
        return "offsets"
    return None


def verify_isomorphic(rank: int, mine: CommRecord, root: CommRecord) -> CommRecord:
    """Section 2.2's check that all processes supplied the same
    neighborhood: ``rank`` compares its ``t`` and its canonically
    sorted offset list with the root's.  O(t) data per process — which
    the rank threads of one engine do not have to send: the root leaves
    its record at the communicator's rendezvous and the others read it
    by reference (a root that never arrives is named by the deadlock
    report, like a receive that never matches).  Returns the record
    ``rank`` goes on with: the root's, or its own for a consistent
    permutation of the root's list (legal, but other schedules)."""
    differs = mismatch(mine, root)
    if differs == "size":
        raise NeighborhoodError(
            f"rank {rank}: neighborhood size {mine.nbh.t} differs from "
            f"root's {root.nbh.t} — neighborhoods are not Cartesian"
        )
    if differs == "offsets":
        raise NeighborhoodError(
            f"rank {rank}: neighborhood differs from the root's — "
            f"neighborhoods are not Cartesian"
        )
    same = (mine.topo, mine.nbh, mine.nbh.weights) == (
        root.topo, root.nbh, root.nbh.weights
    )
    return root if same else mine


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )


class CartComm:
    """A communicator with Cartesian layout and isomorphic neighborhood
    attached (the object ``cart_neighborhood_create`` returns).  With
    ``comm=None`` it binds for all ranks at once, from one thread, and
    launches nothing (the rows driver of :mod:`repro.apps`)."""

    def __init__(
        self,
        comm: Optional[Communicator],
        record: CommRecord,
        *,
        info: Optional[dict] = None,
        backend: Union[str, Backend, None] = None,
    ):
        self.topo, self.nbh = record.topo, record.nbh
        if comm is not None and comm.size != self.topo.size:
            raise TopologyError(
                f"communicator size {comm.size} != topology size {self.topo.size}"
            )
        # its own matching space, the caller's dup (None: never launches)
        self.comm: Communicator = comm  # type: ignore[assignment]
        self.record = record
        self.info = dict(info or {})
        # Execution backend: explicit argument, then info["backend"],
        # then $REPRO_BACKEND, then "threaded" (see repro.core.backend).
        self.backend = get_backend(
            backend if backend is not None else self.info.get("backend")
        )
        self._op_seq = 0
        self.stats = None
        if self.info.get("collect_stats"):
            self.enable_stats()

    # ------------------------------------------------------------------
    # operation statistics (observability)
    # ------------------------------------------------------------------
    def enable_stats(self) -> OpStats:
        """Start recording per-operation counters (see
        :mod:`repro.core.opstats`); returns the collector."""
        if self.stats is None:
            self.stats = OpStats()
        return self.stats

    @staticmethod
    def schedule_cache_info() -> schedule_cache.CacheInfo:
        """Counters of the process-wide schedule cache (hits, misses,
        builds, cumulative build time, size, bound): every miss builds."""
        return schedule_cache.cache_info()

    @staticmethod
    def schedule_cache_clear() -> None:
        """Empty the process-wide schedule cache."""
        schedule_cache.cache_clear()

    @staticmethod
    def plan_cache_info() -> plan.PlanCacheInfo:
        """Process-wide execution-plan counters (hits, real lowerings and
        their time, plans scaled from a lowering of their normal form's
        class); see :mod:`repro.core.plan`."""
        return plan.plan_cache_info()

    @staticmethod
    def certificate_info() -> CertificateInfo:
        """Counters of the process-wide certificate store
        ``verify_on_build`` certifies through: certifications run in
        full and inherited — ``.inherited.shape`` ran the instance
        stage, ``.inherited.plan`` inherited the whole report (see
        :mod:`repro.analyze.certificates`) — shapes on file, and the
        verifier's seconds on each path (``full_seconds``,
        ``inherited.shape_seconds``, ``inherited.plan_seconds``), each a
        total with its split by stage (``.lowering``, ``.kernels``,
        ``.effects``, ``.shape``)."""
        from repro.analyze.certificates import GLOBAL_STORE

        return GLOBAL_STORE.info()

    @staticmethod
    def buffer_pool_stats() -> plan.PoolStats:
        """Counters of the process-wide scratch-buffer pool."""
        return plan.GLOBAL_POOL.stats()

    # ------------------------------------------------------------------
    # launchers: the three ways to start a bound operation
    # ------------------------------------------------------------------
    def _record(
        self,
        bound: Union[BoundOp, PersistentOp],
        backend: str,
        plan_hit: bool,
        packed: int,
        copied: int,
        n: int = 1,
    ) -> None:
        """Account ``n`` completed executions under ``(op, algorithm,
        backend)`` — the one place, for every launcher."""
        if self.stats is None:
            return
        self.stats.record_execution(
            bound.op, algorithm_of(bound.schedule.kind), backend,
            bound.schedule.totals(), plan_hit, packed, copied, n,
        )

    def _run(self, bound: BoundOp) -> None:
        """Blocking launch (the direct calls): run on the selected
        backend, for the calling rank."""
        moved = self.backend.run(
            self.comm, self.topo, bound.schedule, bound.buffers, bound.op
        )
        self._record(bound, self.backend.name, *moved)

    def _start(self, bound: BoundOp) -> SplitPhaseOp:
        """Non-blocking launch.  A fresh tag per started collective: all
        ranks start their collectives in the same order (the MPI rule),
        so the sequence — and hence the tag — agrees across ranks, and
        overlapping non-blocking operations can never cross-match
        messages.  Split-phase always runs on the threaded transport."""
        self._op_seq += 1
        return SplitPhaseOp(
            self.comm, self.topo, bound.schedule, bound.buffers,
            -500 - (self._op_seq % 100000),
            on_done=partial(self._record, bound, ThreadedBackend.name),
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
    # algorithm selection and the two-level schedule cache
    # ------------------------------------------------------------------
    def _resolve_algorithm(self, algorithm: str, kind: str, m_bytes: int = 0) -> str:
        """``auto`` is the paper's cut-off rule for ``kind`` alltoall /
        allgather and the round-count rule for ``kind="reduce"``
        (combining iff the torus is fully periodic and ``C < t``; there
        is no ``direct`` reduction, so ``direct`` defers to it too)."""
        _check_algorithm(algorithm)
        periodic = self.topo.is_fully_periodic
        if kind == "reduce":
            if algorithm in ("auto", "direct"):
                algorithm = rs.select_reduce_algorithm(self.topo, self.nbh)
        elif algorithm == "auto":
            if not periodic:
                # combining needs a torus; on meshes auto degrades to the
                # trivial algorithm (which skips missing neighbors)
                return "trivial"
            # the model is imported where auto decides, not with repro
            from repro.netsim.machines import LIBRARY_DEFAULT

            algorithm = LIBRARY_DEFAULT.select_algorithm(self.nbh, kind, m_bytes)
        if algorithm == "combining" and not periodic:
            raise TopologyError(
                "message-combining schedules require a fully periodic "
                "torus; use algorithm='trivial' on meshes"
            )
        return algorithm

    def _cached(self, key: tuple, kind: str, make) -> Schedule:
        """Two-level schedule lookup.

        Level 1 is the communicator's dictionary (:class:`CommRecord`,
        one for all its ranks: the first rank's miss is its siblings'
        hit) under a cheap ``key`` — no block layouts constructed on a
        hit.  Level 2 is the process-wide :mod:`repro.core.
        schedule_cache` under the canonical fingerprint, shared between
        communicators with the same layout.

        ``make()`` is called only on a level-1 miss and returns
        ``(layout_signature, build_callable)``.
        """
        level1 = self.record.schedules
        sched = level1.get(key)
        hit, build_seconds = True, 0.0
        if sched is None:
            layout_sig, build = make()
            gkey = schedule_cache.schedule_key(
                kind, self.nbh, layout_sig, self.dims, self.periods
            )
            sched, hit, build_seconds = schedule_cache.get_or_build(
                gkey, build, self._build_verifier()
            )
            level1[key] = sched
        if self.stats is not None:
            self.stats.record_cache(
                hit, build_seconds, backend=self.backend.name
            )
        return sched

    def _build_verifier(self) -> Optional[Callable[[Schedule], None]]:
        """The ``verify_on_build`` hook: when enabled (tests/CI), every
        schedule entering the process-wide cache is first certified by
        the static verifier — once per entry, by the rank that built it,
        on the cold path of the collective that asked for it.  The
        lowering a clean report judged is filed as the schedule's plan
        (:func:`repro.core.plan.adopt_certified`): the certified plan is
        the plan that runs, lowered once."""
        if not config.verify_on_build():
            return None
        from repro.analyze.certificates import GLOBAL_STORE
        from repro.analyze.schedule_verifier import certify_schedule

        return lambda sched: plan.adopt_certified(
            sched,
            lambda: certify_schedule(
                sched, self.dims, self.periods, inherit=GLOBAL_STORE
            ).plan,
        )

    def _builder(self, op, algorithm, layouts) -> Callable[[], Schedule]:
        """The build callable :meth:`_cached` asks for on a level-1
        miss, for a data-movement schedule (the builder comes from the
        one table).  ``layouts()`` gives the ``(send, recv)`` block sets
        and is called with it — by the one rank that builds."""
        kind = schedule_kind(op, algorithm)

        def build() -> Schedule:
            send_blocks, recv_blocks = layouts()
            send = send_blocks[0] if op == "allgather" else send_blocks
            return SCHEDULE_BUILDERS[kind](self.nbh, send, recv_blocks)

        return build

    def _regular_schedule(self, op: str, m_bytes: int, algorithm: str) -> Schedule:
        """Schedule of a regular operation (equal ``m_bytes`` blocks)
        under the cheap ``(op, algorithm, m)`` level-1 key.  A level-1
        miss names the canonical layout arithmetically; block sets are
        laid out only where a schedule is built."""
        algorithm = self._resolve_algorithm(algorithm, op, m_bytes)
        t = self.nbh.t
        send_t = 1 if op == "allgather" else t  # one contributed block

        def make():
            sig = (
                uniform_layout_signature(m_bytes, send_t, "send"),
                uniform_layout_signature(m_bytes, t, "recv"),
            )
            return sig, self._builder(
                op, algorithm,
                lambda: (
                    uniform_block_layout([m_bytes] * send_t, "send"),
                    uniform_block_layout([m_bytes] * t, "recv"),
                ),
            )

        return self._cached(
            (_REGULAR_KEY[op], algorithm, m_bytes), f"{op}/{algorithm}", make
        )

    def _bind_layout(
        self, name, op, algorithm, send_blocks, recv_blocks, buffers
    ) -> BoundOp:
        """Bind a v/w variant, whose block layouts come from user
        arguments: the canonical layout signature doubles as the
        per-communicator key.  Layouts identical to a regular call's
        share the same global entry."""
        m_bytes = max((b.total_nbytes for b in send_blocks), default=0)
        algorithm = self._resolve_algorithm(algorithm, op, m_bytes)
        sig = (layout_signature(send_blocks), layout_signature(recv_blocks))
        build = self._builder(
            op, algorithm, lambda: (send_blocks, recv_blocks)
        )
        sched = self._cached(
            (op, algorithm, sig), f"{op}/{algorithm}", lambda: (sig, build)
        )
        return BoundOp(name, sched, buffers)

    def _check_bounds(self, bound: BoundOp) -> None:
        """``Schedule.validate(buffers)`` for a persistent handle, walked
        once per (schedule, buffer sizes) of the communicator, not once
        per rank.  The memo sits beside the bind: ``validate`` stays a
        pure function (the analyzers validate, mutate, validate again)."""
        sched = bound.schedule
        sizes = plan.buffer_signature(plan.effective_sizes(sched, bound.buffers))
        key = (id(sched), sizes)  # the entry holds sched: no id reuse
        if self.record.checked.get(key) is not sched:
            try:
                sched.validate(bound.buffers)
            except UnknownBufferError as exc:
                raise UnknownBufferError(f"{bound.op}: {exc}") from None
            self.record.checked[key] = sched

    # ------------------------------------------------------------------
    # regular operations
    # ------------------------------------------------------------------
    def _bind_alltoall(self, sendbuf, recvbuf, algorithm="auto") -> BoundOp:
        t = self.nbh.t
        if sendbuf.size % t or recvbuf.size % t:
            raise ValueError(
                f"buffer sizes {sendbuf.size}/{recvbuf.size} not divisible "
                f"by t={t}"
            )
        if sendbuf.nbytes != recvbuf.nbytes:
            raise ValueError("send and receive buffers must match in bytes")
        sched = self._regular_schedule("alltoall", sendbuf.nbytes // t, algorithm)
        return BoundOp("alltoall", sched, {"send": sendbuf, "recv": recvbuf})

    def alltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> np.ndarray:
        """``Cart_alltoall``: block ``i`` of ``sendbuf`` goes to target
        ``N[i]``; block ``i`` of ``recvbuf`` receives from source
        ``−N[i]``.  Both buffers hold ``t`` equal blocks."""
        self._run(self._bind_alltoall(sendbuf, recvbuf, algorithm))
        return recvbuf

    def _bind_allgather(self, sendbuf, recvbuf, algorithm="auto") -> BoundOp:
        t = self.nbh.t
        if recvbuf.nbytes != sendbuf.nbytes * t:
            raise ValueError(
                f"recvbuf must hold t={t} blocks of {sendbuf.nbytes} bytes"
            )
        sched = self._regular_schedule("allgather", sendbuf.nbytes, algorithm)
        return BoundOp("allgather", sched, {"send": sendbuf, "recv": recvbuf})

    def allgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> np.ndarray:
        """``Cart_allgather``: the whole of ``sendbuf`` goes to every
        target; ``recvbuf`` holds ``t`` blocks in source order."""
        self._run(self._bind_allgather(sendbuf, recvbuf, algorithm))
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

    def _bind_alltoallv(
        self, sendbuf, sendcounts, recvbuf, recvcounts,
        sdispls=None, rdispls=None, algorithm="auto",
    ) -> BoundOp:
        for i, (sc, rc) in enumerate(zip(sendcounts, recvcounts)):
            if sc != rc:
                raise ValueError(
                    f"neighbor {i}: sendcounts[{i}]={sc} != recvcounts[{i}]="
                    f"{rc}; Cartesian alltoallv requires matching counts "
                    f"(blocks keep their size along the route)"
                )
        return self._bind_layout(
            "alltoallv", "alltoall", algorithm,
            self._v_layout(sendcounts, sdispls, sendbuf.itemsize, "send"),
            self._v_layout(recvcounts, rdispls, recvbuf.itemsize, "recv"),
            {"send": sendbuf, "recv": recvbuf},
        )

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
        self._run(self._bind_alltoallv(
            sendbuf, sendcounts, recvbuf, recvcounts, sdispls, rdispls, algorithm
        ))
        return recvbuf

    def _bind_allgatherv(
        self, sendbuf, recvbuf, recvcounts, rdispls=None, algorithm="auto"
    ) -> BoundOp:
        n = sendbuf.size
        for i, rc in enumerate(recvcounts):
            if rc != n:
                raise ValueError(
                    f"recvcounts[{i}]={rc} != send count {n}: Cartesian "
                    f"allgather blocks are uniform by isomorphism"
                )
        return self._bind_layout(
            "allgatherv", "allgather", algorithm,
            [BlockSet([BlockRef("send", 0, sendbuf.nbytes)])],
            self._v_layout(recvcounts, rdispls, recvbuf.itemsize, "recv"),
            {"send": sendbuf, "recv": recvbuf},
        )

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
        self._run(
            self._bind_allgatherv(sendbuf, recvbuf, recvcounts, rdispls, algorithm)
        )
        return recvbuf

    # ------------------------------------------------------------------
    # typed (w) operations
    # ------------------------------------------------------------------
    def _bind_alltoallw(self, buffers, sendtypes, recvtypes, algorithm="auto") -> BoundOp:
        return self._bind_layout(
            "alltoallw", "alltoall", algorithm,
            [_as_blockset(s) for s in sendtypes],
            [_as_blockset(s) for s in recvtypes],
            buffers,
        )

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
        self._run(self._bind_alltoallw(buffers, sendtypes, recvtypes, algorithm))

    def _bind_allgatherw(self, buffers, sendtype, recvtypes, algorithm="auto") -> BoundOp:
        return self._bind_layout(
            "allgatherw", "allgather", algorithm,
            [_as_blockset(sendtype)],
            [_as_blockset(s) for s in recvtypes],
            buffers,
        )

    def allgatherw(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtype: TypeSpecLike,
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> None:
        """``Cart_allgatherw`` — the operation the paper proposes adding
        to MPI: same contributed block, per-source receive datatypes."""
        self._run(self._bind_allgatherw(buffers, sendtype, recvtypes, algorithm))

    # ------------------------------------------------------------------
    # non-blocking (split-phase) operations
    # ------------------------------------------------------------------
    def ialltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> SplitPhaseOp:
        """Non-blocking ``Cart_alltoall``: posts the first phase and
        returns a :class:`~repro.core.nonblocking.SplitPhaseOp` —
        ``test()`` to progress, ``wait()`` to complete.  Computation can
        overlap between ``start`` and ``wait``."""
        return self._start(self._bind_alltoall(sendbuf, recvbuf, algorithm))

    def iallgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> SplitPhaseOp:
        """Non-blocking ``Cart_allgather`` (see :meth:`ialltoall`)."""
        return self._start(self._bind_allgather(sendbuf, recvbuf, algorithm))

    # ------------------------------------------------------------------
    # neighborhood reductions (extension; see reduce_schedule.py)
    # ------------------------------------------------------------------
    def _bind_reduction(
        self, name, family, algorithm, block, op, sendbuf, recvbuf
    ) -> BoundOp:
        """Reduction schedules (``family`` under an already resolved
        ``algorithm``; ``block`` is the buffer holding exactly one
        block) through the same two-level cache the collectives use;
        the layout signature is ``(block bytes, dtype, operator
        token)``, so schedules for different operators or element types
        never alias."""
        kind = schedule_kind(family, algorithm)
        m_bytes, dtype = int(block.nbytes), block.dtype
        sig = (m_bytes, dtype.str, rs.op_token(op))

        def make():
            return sig, lambda: SCHEDULE_BUILDERS[kind](
                self.nbh, m_bytes=m_bytes, dtype=dtype, op=op
            )

        sched = self._cached((kind, sig), kind, make)
        return BoundOp(name, sched, {"send": sendbuf, "recv": recvbuf})

    def _bind_reduce(self, sendbuf, recvbuf, op="sum", algorithm="auto") -> BoundOp:
        if recvbuf.shape != sendbuf.shape or recvbuf.dtype != sendbuf.dtype:
            raise ValueError(
                "recvbuf must match sendbuf in shape and dtype for reductions"
            )
        return self._bind_reduction(
            "reduce_neighbors", "reduce",
            self._resolve_algorithm(algorithm, "reduce"),
            sendbuf, op, sendbuf, recvbuf,
        )

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
        self._run(self._bind_reduce(sendbuf, recvbuf, op, algorithm))
        return recvbuf

    def _bind_allreduce(self, sendbuf, recvbuf, op="sum", algorithm="auto") -> BoundOp:
        t = self.nbh.t
        if (
            recvbuf.dtype != sendbuf.dtype
            or recvbuf.nbytes != sendbuf.nbytes * t
        ):
            raise ValueError(
                f"recvbuf must hold t={t} blocks matching sendbuf in "
                f"dtype and block size for allreduce"
            )
        _check_algorithm(algorithm)
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
        return self._bind_reduction(
            "reduce_neighbors_allreduce", "allreduce", "combining",
            sendbuf, op, sendbuf, recvbuf,
        )

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
        self._run(self._bind_allreduce(sendbuf, recvbuf, op, algorithm))
        return recvbuf

    def _bind_reduce_scatter(
        self, sendbuf, recvbuf, op="sum", algorithm="auto"
    ) -> BoundOp:
        t = self.nbh.t
        if (
            recvbuf.dtype != sendbuf.dtype
            or sendbuf.nbytes != recvbuf.nbytes * t
        ):
            raise ValueError(
                f"sendbuf must hold t={t} blocks matching recvbuf in "
                f"dtype and block size for reduce_scatter_block"
            )
        return self._bind_reduction(
            "reduce_scatter_block", "reduce-scatter",
            self._resolve_algorithm(algorithm, "reduce"),
            recvbuf, op, sendbuf, recvbuf,
        )

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
        self._run(self._bind_reduce_scatter(sendbuf, recvbuf, op, algorithm))
        return recvbuf

    # ------------------------------------------------------------------
    # persistent (init) operations
    # ------------------------------------------------------------------
    def alltoall_init(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> PersistentOp:
        """``Cart_alltoall_init``: precompute the schedule and bind the
        buffers; returns a reusable handle (see Listing 3's usage)."""
        return PersistentOp(self, self._bind_alltoall(sendbuf, recvbuf, algorithm))

    def allgather_init(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, algorithm: str = "auto"
    ) -> PersistentOp:
        return PersistentOp(self, self._bind_allgather(sendbuf, recvbuf, algorithm))

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
    ) -> PersistentOp:
        return PersistentOp(self, self._bind_alltoallv(
            sendbuf, sendcounts, recvbuf, recvcounts, sdispls, rdispls, algorithm
        ))

    def alltoallw_init(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtypes: Sequence[TypeSpecLike],
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> PersistentOp:
        return PersistentOp(
            self, self._bind_alltoallw(buffers, sendtypes, recvtypes, algorithm)
        )

    def reduce_neighbors_init(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = "sum",
        algorithm: str = "auto",
    ) -> PersistentReduce:
        """Persistent neighborhood reduction: schedule and accumulator
        layout precomputed, buffers bound."""
        return PersistentReduce(
            self, self._bind_reduce(sendbuf, recvbuf, op, algorithm)
        )

    def allgatherw_init(
        self,
        buffers: Mapping[str, np.ndarray],
        sendtype: TypeSpecLike,
        recvtypes: Sequence[TypeSpecLike],
        algorithm: str = "auto",
    ) -> PersistentOp:
        return PersistentOp(
            self, self._bind_allgatherw(buffers, sendtype, recvtypes, algorithm)
        )

    def __repr__(self) -> str:
        return (
            f"CartComm(rank={self.rank}, dims={self.dims}, "
            f"t={self.nbh.t})"
        )


def lay_out(
    dims: Sequence[int],
    periods: Optional[Sequence[bool]],
    offsets: OffsetsLike,
    weights: Optional[Sequence[int]] = None,
) -> CommRecord:
    """:func:`cart_neighborhood_create`'s arguments checked and laid out."""
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
    return CommRecord(topo, nbh, (dims, periods, offsets, weights))


def cart_neighborhood_create(
    comm: Communicator,
    dims: Sequence[int],
    periods: Optional[Sequence[bool]],
    offsets: OffsetsLike,
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

    ``reorder`` and ``weights`` are Listing 1's interface: like the MPI
    libraries the paper measures (see [6] there), no remapping is
    performed, and the algorithms ignore the weights, which the
    neighbourhood keeps (:meth:`CartComm.neighbor_weights`) and the
    Section 2.2 comparison includes.

    ``info`` is read for two keys: ``"backend"`` (below) and
    ``"collect_stats"`` (record :mod:`repro.core.opstats` counters).

    ``backend`` selects the execution strategy (``"threaded"``,
    ``"batched"``, or a :class:`~repro.core.backend.base.Backend`
    instance; ``"lockstep"`` and ``"shm"`` are accepted as aliases of
    ``"batched"``); ``None`` falls back to
    ``info["backend"]``, then ``$REPRO_BACKEND``, then ``"threaded"``.
    Prefer ``"batched"`` for large meshes — it runs the whole mesh as
    one vectorized numpy program.
    """
    del reorder  # accepted, not acted upon (matches measured MPI libraries)
    args = (dims, periods, offsets, weights)
    own = partial(lay_out, *args)  # this rank's arguments, checked and laid out

    # The root lays out what Section 2.2 makes the same everywhere; a
    # rank that brought the root's very arguments reads it, any other
    # lays out its own and makes that section's O(t) comparison.
    comm = comm.dup()
    if not validate:
        record = own()
    elif comm.rank == 0:
        try:
            record = own()
        except Exception as exc:
            comm.share(exc)  # nobody waits for a record that never comes
            raise
        comm.share(record)
    else:
        record = comm.share(None)
        if isinstance(record, Exception):
            own()  # equally bad arguments: this rank's own error
            raise NeighborhoodError(
                f"rank {comm.rank}: the root's arguments were refused "
                f"({record}) — neighborhoods are not Cartesian"
            )
        if any(a is not b for a, b in zip(args, record.args)):
            record = verify_isomorphic(comm.rank, own(), record)
    return CartComm(comm, record, info=info, backend=backend)
