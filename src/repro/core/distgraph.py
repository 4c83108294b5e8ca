"""Distributed graph topologies with Cartesian auto-detection
(Section 2.2).

The paper observes that Cartesian Collective Communication needs *no*
new MPI interface at all: a Cartesian neighborhood defines a virtual
topology that can be handed to ``MPI_Dist_graph_create_adjacent`` (the
rank lists produced by ``Cart_neighbor_get`` are exactly the expected
format), and the library can *detect* the isomorphic structure at
communicator-creation time:

1. broadcast the neighbor count ``t`` from a root; every process checks
   it matches its own;
2. broadcast the root's relative neighborhood in sorted order; every
   process checks its own equals it;
3. on success, preselect the specialized Cartesian algorithms.

The check costs O(t) data — cheap — which the rank threads of one
engine do not have to send: they meet once, by reference
(:meth:`~repro.mpisim.comm.Communicator.rendezvous`), and the
comparison is :func:`repro.core.cartcomm.mismatch`, the one
``cart_neighborhood_create`` makes.  Reconstructing each process's
*relative* neighborhood from its target rank list requires the
underlying Cartesian layout, which an MPI library would have because the
distributed graph is created on (or from) a Cartesian communicator; here
it is passed explicitly.

When detection fails (neighborhoods differ, or no Cartesian layout is
available) the communicator still works — its collectives simply fall
back to direct delivery, exactly like a stock MPI library.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core import baseline
from repro.core.cartcomm import CartComm, CommRecord, mismatch
from repro.core.neighborhood import Neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.comm import Communicator


class DistGraphComm:
    """``MPI_Dist_graph_create_adjacent`` equivalent.

    Every rank supplies its own in-neighbor (``sources``) and
    out-neighbor (``targets``) rank lists; nothing forces structure on
    them.  If ``cart_topology`` is provided, Cartesian detection runs and
    — on success — ``is_cartesian`` is true and the neighborhood
    collectives dispatch to the message-combining implementation.
    """

    def __init__(
        self,
        comm: Communicator,
        sources: Sequence[int],
        targets: Sequence[int],
        *,
        source_weights: Optional[Sequence[int]] = None,
        target_weights: Optional[Sequence[int]] = None,
        cart_topology: Optional[CartTopology] = None,
        detect: bool = True,
    ):
        self.comm = comm.dup()
        self.sources = [None if s is None else int(s) for s in sources]
        self.targets = [None if t is None else int(t) for t in targets]
        self.source_weights = (
            None if source_weights is None else tuple(int(w) for w in source_weights)
        )
        self.target_weights = (
            None if target_weights is None else tuple(int(w) for w in target_weights)
        )
        self.cart_topology = cart_topology
        self._cart: Optional[CartComm] = None
        #: send-slot permutation (canonical offset index -> target-list
        #: slot); ``None`` when this process's target order already is
        #: the canonical (root's) order
        self._send_perm: Optional[list[int]] = None
        #: receive-slot permutation (canonical offset index ->
        #: source-list slot); ``None`` when the lists are already aligned
        self._recv_perm: Optional[list[int]] = None
        self.detection_result: str = "not-attempted"
        if detect and cart_topology is not None:
            self._detect_cartesian()

    # ------------------------------------------------------------------
    # queries (MPI_Dist_graph_neighbors*)
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def neighbor_counts(self) -> tuple[int, int]:
        """(indegree, outdegree) — ``MPI_Dist_graph_neighbors_count``."""
        return len(self.sources), len(self.targets)

    def neighbors(self) -> tuple[list[int], list[int]]:
        """(sources, targets) — ``MPI_Dist_graph_neighbors``."""
        return list(self.sources), list(self.targets)

    @property
    def is_cartesian(self) -> bool:
        return self._cart is not None

    # ------------------------------------------------------------------
    # Section 2.2 detection
    # ------------------------------------------------------------------
    def _relative_neighborhood(self) -> Optional[Neighborhood]:
        """Reconstruct this process's relative target offsets from its
        target ranks via the Cartesian layout (minimal representatives)."""
        topo = self.cart_topology
        assert topo is not None
        if len(self.targets) == 0 or any(t is None for t in self.targets):
            return None
        rel = [topo.relative_coord(self.rank, t) for t in self.targets]
        return Neighborhood(np.asarray(rel, dtype=np.int64))

    def _detect_cartesian(self) -> None:
        """Section 2.2 at one meeting: every process leaves its relative
        neighborhood and its rank lists by reference, one of them
        reaches the verdict for all (:func:`_detect`) and every process
        reads it — so a decline is collective and all ranks dispatch the
        same way.  On success attach the Cartesian fast path."""
        topo = self.cart_topology
        assert topo is not None
        mine = (self._relative_neighborhood(), self.sources, self.targets)
        self.detection_result, record, perms = self.comm.rendezvous(
            mine, lambda slots: _detect(topo, slots)
        )
        if record is None:
            return
        self._cart = CartComm(self.comm.dup(), record)
        identity = list(range(record.nbh.t))
        tperm, rperm = perms[self.rank]
        self._send_perm = tperm if tperm != identity else None
        self._recv_perm = rperm if rperm != identity else None

    # ------------------------------------------------------------------
    # neighborhood collectives (MPI_Neighbor_*)
    # ------------------------------------------------------------------
    def neighbor_alltoall(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, *, force_direct: bool = False
    ) -> np.ndarray:
        """``MPI_Neighbor_alltoall``: combining when Cartesian structure
        was detected (the paper's proposed library behaviour), direct
        delivery otherwise (stock behaviour, or ``force_direct``)."""
        if self._cart is not None and not force_direct:
            if self._send_perm is None and self._recv_perm is None:
                return self._cart.alltoall(sendbuf, recvbuf, algorithm="auto")
            # this process's lists deviate from the canonical order:
            # permute the blocks locally around the rank-independent
            # collective.  The permutation must NOT be encoded in the
            # schedule layouts — that would make the schedule
            # rank-dependent, and the all-ranks backends execute rank
            # 0's schedule for the whole mesh.
            t = len(self.targets)
            send_c = sendbuf
            if self._send_perm is not None:
                ms = sendbuf.size // t
                send_c = np.concatenate(
                    [sendbuf[j * ms : (j + 1) * ms] for j in self._send_perm]
                )
            recv_c = (
                np.empty_like(recvbuf) if self._recv_perm is not None
                else recvbuf
            )
            self._cart.alltoall(send_c, recv_c, algorithm="auto")
            if self._recv_perm is not None:
                mr = recvbuf.size // t
                for i, j in enumerate(self._recv_perm):
                    recvbuf[j * mr : (j + 1) * mr] = (
                        recv_c[i * mr : (i + 1) * mr]
                    )
            return recvbuf
        return baseline.neighbor_alltoall_direct(
            self.comm, self.sources, self.targets, sendbuf, recvbuf
        )

    def neighbor_alltoallv(
        self,
        sendbuf: np.ndarray,
        sendcounts: Sequence[int],
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        *,
        sdispls: Optional[Sequence[int]] = None,
        rdispls: Optional[Sequence[int]] = None,
        force_direct: bool = False,
    ) -> np.ndarray:
        if (
            self._cart is not None
            and not force_direct
            and self._send_perm is None
            and self._recv_perm is None
        ):
            return self._cart.alltoallv(
                sendbuf,
                sendcounts,
                recvbuf,
                recvcounts,
                sdispls=sdispls,
                rdispls=rdispls,
                algorithm="auto",
            )
        # permuted receive layouts for the v variant would need count
        # remapping too; fall back to direct delivery in that rare case
        return baseline.neighbor_alltoallv_direct(
            self.comm,
            self.sources,
            self.targets,
            sendbuf,
            sendcounts,
            recvbuf,
            recvcounts,
            sdispls,
            rdispls,
        )

    def neighbor_allgather(
        self, sendbuf: np.ndarray, recvbuf: np.ndarray, *, force_direct: bool = False
    ) -> np.ndarray:
        if self._cart is not None and not force_direct:
            if self._recv_perm is None:
                return self._cart.allgather(sendbuf, recvbuf, algorithm="auto")
            # allgather sends the same block everywhere, so only the
            # receive side needs the local canonical-order permutation
            # (see neighbor_alltoall on why it stays out of the schedule)
            t = len(self.sources)
            recv_c = np.empty_like(recvbuf)
            self._cart.allgather(sendbuf, recv_c, algorithm="auto")
            m = recvbuf.size // t
            for i, j in enumerate(self._recv_perm):
                recvbuf[j * m : (j + 1) * m] = recv_c[i * m : (i + 1) * m]
            return recvbuf
        return baseline.neighbor_allgather_direct(
            self.comm, self.sources, self.targets, sendbuf, recvbuf
        )

    def neighbor_allgatherv(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        recvcounts: Sequence[int],
        *,
        rdispls: Optional[Sequence[int]] = None,
        force_direct: bool = False,
    ) -> np.ndarray:
        if self._cart is not None and not force_direct and self._recv_perm is None:
            return self._cart.allgatherv(
                sendbuf, recvbuf, recvcounts, rdispls=rdispls, algorithm="auto"
            )
        return baseline.neighbor_allgatherv_direct(
            self.comm, self.sources, self.targets, sendbuf, recvbuf, recvcounts, rdispls
        )

    def __repr__(self) -> str:
        return (
            f"DistGraphComm(rank={self.rank}, in={len(self.sources)}, "
            f"out={len(self.targets)}, detection={self.detection_result})"
        )


def _detect(
    topo: CartTopology, slots: Sequence[tuple]
) -> tuple[str, Optional[CommRecord], list]:
    """The verdict for all ranks: ``slots[r]`` is rank ``r``'s
    ``(relative neighborhood or None, sources, targets)``.  Returns the
    ``detection_result``, the communicator record of the Cartesian fast
    path (``None`` when declined) and every rank's ``(send, receive)``
    slot permutations."""
    if any(nbh is None for nbh, _, _ in slots):
        return "degree-mismatch", None, []
    # Steps 1 and 2: the root's neighbor count, then its sorted relative
    # neighborhood, everywhere?
    records = [CommRecord(topo, nbh) for nbh, _, _ in slots]
    differs = {mismatch(record, records[0]) for record in records}
    if "size" in differs:
        return "degree-mismatch", None, []
    if "offsets" in differs:
        return "offset-mismatch", None, []
    # Step 3: sanity — do the reconstructed offsets really map back to
    # the given rank lists?  (Aliasing through the torus can make the
    # minimal representative differ from the user's intended offset,
    # but it must address the same process.)
    for rank, (nbh, _, targets) in enumerate(slots):
        for off, tgt in zip(nbh, targets):
            if topo.translate(rank, off) != tgt:  # pragma: no cover
                return "reconstruction-failed", None, []
    # Step 4: canonicalize the neighbor order.  Neighborhoods that are
    # equal as multisets may still be *ordered* differently per process
    # (MPI allows any consistent rearrangement, and
    # ``MPI_Dist_graph_create`` e.g. produces sorted rank lists, whose
    # offset order varies with the caller's coordinates).  A
    # rank-dependent order would make the combining schedules
    # rank-dependent, violating the SPMD premise the schedule layer and
    # the all-ranks backends build on.  Adopt the root's order
    # everywhere and keep each process's deviation as two *local* slot
    # permutations applied around the collective — never inside the
    # schedule.
    canon = records[0].nbh
    perms = [
        (
            _slot_permutation(canon, nbh),
            _source_permutation(topo, rank, sources, canon),
        )
        for rank, (nbh, sources, _) in enumerate(slots)
    ]
    if any(tperm is None or rperm is None for tperm, rperm in perms):
        # some process's source list is not the mirror of its target
        # list — decline, for every rank
        return "source-mismatch", None, []
    return "cartesian", records[0], perms


def _slot_permutation(
    canon: Neighborhood, own: Neighborhood
) -> Optional[list[int]]:
    """For each canonical offset index ``i``, the slot of that offset
    in a process's own order (consuming duplicates in order); ``None``
    when the two are not rearrangements of each other."""
    available: dict[tuple[int, ...], list[int]] = {}
    for j, off in enumerate(own):
        available.setdefault(off, []).append(j)
    perm: list[int] = []
    for off in canon:
        slots = available.get(off)
        if not slots:
            return None
        perm.append(slots.pop(0))
    return perm


def _source_permutation(
    topo: CartTopology,
    rank: int,
    sources: Sequence[Optional[int]],
    nbh: Neighborhood,
) -> Optional[list[int]]:
    """For each target index ``i``, the slot of ``sources`` that must
    receive the block from ``rank − N[i]``; ``None`` when the source
    list is not a rearrangement of the mirrored targets."""
    available: dict[Optional[int], list[int]] = {}
    for j, s in enumerate(sources):
        available.setdefault(s, []).append(j)
    perm: list[int] = []
    for off in nbh:
        s = topo.translate(rank, tuple(-o for o in off))
        slots = available.get(s)
        if not slots:
            return None
        perm.append(slots.pop(0))
    if any(slots for slots in available.values()):
        return None  # extra source entries with no matching target
    return perm


def dist_graph_create_adjacent(
    comm: Communicator,
    sources: Sequence[int],
    targets: Sequence[int],
    *,
    source_weights: Optional[Sequence[int]] = None,
    target_weights: Optional[Sequence[int]] = None,
    cart_topology: Optional[CartTopology] = None,
    detect: bool = True,
) -> DistGraphComm:
    """``MPI_Dist_graph_create_adjacent`` equivalent (collective)."""
    return DistGraphComm(
        comm,
        sources,
        targets,
        source_weights=source_weights,
        target_weights=target_weights,
        cart_topology=cart_topology,
        detect=detect,
    )


def dist_graph_create(
    comm: Communicator,
    edge_sources: Sequence[int],
    degrees: Sequence[int],
    destinations: Sequence[int],
    *,
    weights: Optional[Sequence[int]] = None,
    cart_topology: Optional[CartTopology] = None,
    detect: bool = True,
) -> DistGraphComm:
    """``MPI_Dist_graph_create`` equivalent (collective).

    Unlike the adjacent variant, each process contributes an *arbitrary*
    slice of the global edge set: ``degrees[i]`` consecutive entries of
    ``destinations`` are edges out of ``edge_sources[i]`` (any rank, not
    necessarily the caller).  The runtime redistributes the edges with a
    base all-to-all so every process learns its own in/out neighbor
    lists — in neighbor *rank* order (sorted), the canonical order MPI
    libraries produce for this call.  Detection then proceeds exactly as
    for the adjacent variant.
    """
    if len(edge_sources) != len(degrees):
        raise ValueError("one degree per edge source required")
    total = sum(int(d) for d in degrees)
    if total != len(destinations):
        raise ValueError(
            f"degrees sum to {total} but {len(destinations)} destinations given"
        )
    if weights is not None and len(weights) != len(destinations):
        raise ValueError("one weight per edge required")

    # bucket this process's edge knowledge by the rank that must learn it
    out_edges: list[list] = [[] for _ in range(comm.size)]  # src -> its targets
    in_edges: list[list] = [[] for _ in range(comm.size)]   # dst -> its sources
    pos = 0
    for src, deg in zip(edge_sources, degrees):
        src = int(src)
        if not (0 <= src < comm.size):
            raise ValueError(f"edge source {src} out of range")
        for k in range(int(deg)):
            dst = int(destinations[pos])
            w = None if weights is None else int(weights[pos])
            pos += 1
            if not (0 <= dst < comm.size):
                raise ValueError(f"edge destination {dst} out of range")
            out_edges[src].append((dst, w))
            in_edges[dst].append((src, w))

    # redistribute: every process receives the fragments concerning it
    gathered = comm.alltoall(
        [(out_edges[r], in_edges[r]) for r in range(comm.size)]
    )
    my_targets: list[tuple[int, Optional[int]]] = []
    my_sources: list[tuple[int, Optional[int]]] = []
    for frag_out, frag_in in gathered:
        my_targets.extend(frag_out)
        my_sources.extend(frag_in)
    my_targets.sort(key=lambda e: e[0])
    my_sources.sort(key=lambda e: e[0])

    tw = [e[1] for e in my_targets]
    sw = [e[1] for e in my_sources]
    has_weights = weights is not None
    return DistGraphComm(
        comm,
        [e[0] for e in my_sources],
        [e[0] for e in my_targets],
        source_weights=sw if has_weights else None,
        target_weights=tw if has_weights else None,
        cart_topology=cart_topology,
        detect=detect,
    )
