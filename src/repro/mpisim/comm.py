"""Communicators: point-to-point and base collectives.

A :class:`Communicator` is each rank's handle onto the engine.  It offers
three point-to-point layers, all built on the same mailbox machinery
(plus :meth:`Communicator.rendezvous` and its one-sided form
:meth:`Communicator.share`, the collectives that move no message at
all):

* **object mode** (``send``/``recv``/``isend``/``irecv``) — arbitrary
  Python objects, pickled at send time (mirrors mpi4py's lowercase API);
* **buffer mode** (``send_bytes``/``recv_into``…) — raw bytes into NumPy
  buffers (mirrors the uppercase API);
* **block mode** (``isend_blocks``/``irecv_blocks``) — gather/scatter of a
  :class:`~repro.mpisim.datatypes.BlockSet` over named buffers.  This is
  the layer schedule execution (Listing 5) uses: the send side gathers
  the round's blocks from the send/recv/temp buffers, the receive side
  scatters the incoming payload into its round's blocks.

The base collectives (barrier, bcast, gather, allgather, allreduce,
alltoall) exist because Section 2.2's isomorphism detection needs a
broadcast and tests need reference collectives; they are textbook
implementations (dissemination barrier, binomial broadcast, ring
allgather), not the paper's contribution.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.mpisim.datatypes import BlockSet
from repro.mpisim.engine import Engine
from repro.mpisim.mailbox import ANY_SOURCE, ANY_TAG, Envelope
from repro.mpisim.request import (
    RecvRequest,
    Request,
    SendRequest,
    copy_into_buffer,
)
from repro.mpisim.trace import TraceEvent

#: Tag used by Cartesian collective schedules (the paper's ``CARTTAG``).
CARTTAG = -7
#: Base of the internal tag space for built-in collectives.
_COLL_TAG_BASE = -1000


class Communicator:
    """One rank's communicator.

    Each rank receives its own instance; instances agree on ``comm_id``
    (and on the derived ids produced by :meth:`dup`) as long as all ranks
    perform communicator operations in the same collective order, which
    MPI requires anyway.
    """

    def __init__(
        self,
        engine: Engine,
        rank: int,
        size: int,
        comm_id: tuple = ("world",),
    ):
        self.engine = engine
        self.rank = rank
        self.size = size
        self.comm_id = comm_id
        self._mailbox = engine.mailbox(rank)
        #: rank used for trace attribution (engine/world rank)
        self._trace_rank = rank
        self._dup_count = 0
        self._coll_seq = 0
        #: this communicator's meeting point (every engine run starts
        #: with fresh ones and makes its own communicators)
        self._meeting = engine.rendezvous(comm_id, size)

    # ------------------------------------------------------------------
    # infrastructure
    # ------------------------------------------------------------------
    def dup(self) -> "Communicator":
        """Duplicate the communicator (separate matching space).

        Collective: every rank must call it, in the same order relative to
        other duplications, so that the derived ids agree.
        """
        self._dup_count += 1
        return Communicator(
            self.engine, self.rank, self.size, self.comm_id + (self._dup_count,)
        )

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """``MPI_Comm_split``: partition the processes by ``color`` into
        disjoint sub-communicators, ranked by ``(key, old rank)``.

        Collective over this communicator.  Returns ``None`` for
        ``color=None`` (``MPI_UNDEFINED``).  The sub-communicator's ranks
        are local (0..n−1); its peers are translated back to engine ranks
        transparently.
        """
        self._dup_count += 1
        sub_id = self.comm_id + ("split", self._dup_count)
        triples = self.allgather((color, key, self.rank))
        if color is None:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        group = [r for _, r in members]
        my_local = group.index(self.rank)
        return SubCommunicator(
            self.engine, my_local, len(group), sub_id + (color,), group, self
        )

    def _rec(self, kind: str, **fields: Any) -> None:
        """Record one trace event — built only when the engine traces."""
        trace = self.engine.trace
        if trace is not None:
            trace.record(self._trace_rank, TraceEvent(kind=kind, **fields))

    def _fault_hook(self, op: str) -> None:
        """Operation-boundary fault injection point (stall / kill)."""
        injector = self.engine.injector
        if injector is not None:
            injector.on_op(self._trace_rank, op)

    def progress(
        self,
        op: Optional[str] = None,
        phase: Optional[int] = None,
        round: Optional[int] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Update this rank's structured progress state (surfaced in
        deadlock/abort diagnostics).  The executor calls this with the
        schedule kind, phase, and round it is executing."""
        self.engine.rank_states[self._trace_rank].update(
            op=op, phase=phase, round=round, detail=detail
        )

    def mark(self, note: str) -> None:
        """Insert a free-form annotation into the trace."""
        self._rec("mark", note=note)

    def record_local(self, nbytes: int, note: str = "") -> None:
        """Attribute rank-local data movement (e.g. self-neighbor copies)
        to the trace, so the network model can charge memory time."""
        self._rec("local", nbytes=nbytes, note=note)

    def _check_peer(self, peer: int, what: str) -> None:
        if not (0 <= peer < self.size):
            raise ValueError(f"{what} rank {peer} out of range [0, {self.size})")

    # ------------------------------------------------------------------
    # raw payload layer
    # ------------------------------------------------------------------
    def _global_rank(self, peer: int) -> int:
        """Translate a communicator-local rank to an engine rank (the
        identity here; sub-communicators override)."""
        return peer

    # The message path below builds a trace event only when the engine
    # traces and names its fault-injection point only when the engine
    # injects: with neither, a message is its envelope, its match in
    # the mailbox and its receive's latch.
    def _post_send(self, payload: Any, nbytes: int, dest: int, tag: int) -> SendRequest:
        if not 0 <= dest < self.size:
            self._check_peer(dest, "destination")
        engine = self.engine
        if engine.injector is not None:
            engine.injector.on_op(self._trace_rank, f"send(dest={dest}, tag={tag})")
        env = Envelope(self.rank, dest, tag, self.comm_id, payload, nbytes)
        if engine.trace is not None:
            engine.trace.record(
                self._trace_rank,
                TraceEvent(kind="isend", peer=dest, nbytes=nbytes, tag=tag),
            )
        engine.mailboxes[self._global_rank(dest)].put(env)
        return SendRequest()

    def _post_recv(
        self, source: int, tag: int, on_envelope: Callable[[Envelope], Any], nbytes_hint: int = 0
    ) -> RecvRequest:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            self._check_peer(source, "source")
        engine = self.engine
        if engine.injector is not None:
            engine.injector.on_op(self._trace_rank, f"recv(src={source}, tag={tag})")
        posted = self._mailbox.post_recv(source, tag, self.comm_id)
        if engine.trace is not None:
            engine.trace.record(
                self._trace_rank,
                TraceEvent(kind="irecv", peer=source, nbytes=nbytes_hint, tag=tag),
            )
        return RecvRequest(self._mailbox, posted, on_envelope)

    # ------------------------------------------------------------------
    # object mode
    # ------------------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return self._post_send(payload, len(payload), dest, tag)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.isend(obj, dest, tag).wait()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        return self._post_recv(source, tag, lambda env: pickle.loads(env.payload))

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: Optional[float] = None,
    ) -> Any:
        """Blocking receive.  Blocks without polling until the message
        arrives or the engine aborts; ``timeout`` (or the engine's wait
        policy) bounds the wait with backoff retries."""
        return self.irecv(source, tag).wait(timeout=timeout)

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: Optional[int] = None,
    ) -> Any:
        """Combined send+receive (``MPI_Sendrecv``), the primitive of the
        trivial algorithm in Listing 4."""
        if recvtag is None:
            recvtag = sendtag
        rreq = self.irecv(source, recvtag)
        self.isend(sendobj, dest, sendtag)
        out = rreq.wait()
        self._rec("waitall")
        return out

    # ------------------------------------------------------------------
    # buffer mode
    # ------------------------------------------------------------------
    def isend_bytes(self, payload: bytes, dest: int, tag: int = 0) -> Request:
        return self._post_send(bytes(payload), len(payload), dest, tag)

    def send_bytes(self, payload: bytes, dest: int, tag: int = 0) -> None:
        self.isend_bytes(payload, dest, tag).wait()

    def isend_buffer(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Send a NumPy array's contents (copied at send time)."""
        payload = np.ascontiguousarray(buf).tobytes()
        return self._post_send(payload, len(payload), dest, tag)

    def irecv_into(
        self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Request:
        return self._post_recv(
            source,
            tag,
            lambda env: copy_into_buffer(buf, env.payload),
            nbytes_hint=buf.nbytes,
        )

    def recv_into(
        self, buf: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> np.ndarray:
        return self.irecv_into(buf, source, tag).wait()

    def sendrecv_buffer(
        self,
        sendbuf: np.ndarray,
        dest: int,
        recvbuf: np.ndarray,
        source: int,
        tag: int = 0,
    ) -> np.ndarray:
        rreq = self.irecv_into(recvbuf, source, tag)
        self.isend_buffer(sendbuf, dest, tag)
        out = rreq.wait()
        self._rec("waitall")
        return out

    # ------------------------------------------------------------------
    # block mode (schedule execution)
    # ------------------------------------------------------------------
    def isend_blocks(
        self,
        blockset: BlockSet,
        buffers: Mapping[str, np.ndarray],
        dest: int,
        tag: int = CARTTAG,
    ) -> Request:
        """Gather ``blockset`` from the named buffers and send the single
        combined payload — one message per round, as in Listing 5."""
        payload = blockset.pack(buffers)
        return self._post_send(payload, len(payload), dest, tag)

    def irecv_blocks(
        self,
        blockset: BlockSet,
        buffers: Mapping[str, np.ndarray],
        source: int,
        tag: int = CARTTAG,
    ) -> Request:
        """Receive one combined payload and scatter it into ``blockset``.
        The scatter runs in the receiving rank's thread at ``wait`` time."""

        def deliver(env: Envelope) -> None:
            blockset.unpack(buffers, env.payload)

        return self._post_recv(
            source, tag, deliver, nbytes_hint=blockset.total_nbytes
        )

    # ------------------------------------------------------------------
    # probing (MPI_Iprobe / MPI_Probe)
    # ------------------------------------------------------------------
    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Optional[dict]:
        """Non-blocking probe: if a matching message is queued, return
        its ``{"source", "tag", "nbytes"}`` status without consuming it;
        ``None`` otherwise."""
        with self._mailbox._lock:
            for env in self._mailbox._envelopes:
                if env.matches(source, tag, self.comm_id):
                    return {"source": env.src, "tag": env.tag,
                            "nbytes": env.nbytes}
        return None

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> dict:
        """Blocking probe: wait until a matching message is queued and
        return its status (the message stays queued).

        Parks on the mailbox's delivery condition rather than polling:
        each arrival wakes the prober, and a bounded wait slice keeps
        the abort/deadline checks responsive even without traffic.
        """
        import time as _time

        deadline = _time.monotonic() + self.engine.timeout
        while True:
            status = self.iprobe(source, tag)
            if status is not None:
                return status
            if self.engine.abort_event.is_set():
                from repro.mpisim.exceptions import AbortError

                raise AbortError(
                    f"rank {self.rank}: run aborted while probing"
                )
            remaining = deadline - _time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"rank {self.rank}: probe timed out (source={source}, "
                    f"tag={tag})"
                )
            self._mailbox.wait_for_arrival(min(0.05, remaining))

    def waitall(self, requests: Sequence[Request]) -> list:
        """Complete ``requests`` in order (``MPI_Waitall``); a request
        with a ``round_index`` names its round in this rank's progress
        state while it is waited for."""
        state = self.engine.rank_states[self._trace_rank]
        out = []
        for req in requests:
            if req.round_index is not None:
                state.update(round=req.round_index)
            out.append(req.wait())
        self._rec("waitall")
        return out

    # ------------------------------------------------------------------
    # base collectives (object mode)
    # ------------------------------------------------------------------
    def _next_coll_tag(self) -> int:
        """A fresh internal tag for one collective call.

        All ranks call collectives in the same order, so their sequence
        counters (and hence the tags) agree; distinct tags per call keep
        back-to-back collectives from interfering.
        """
        self._coll_seq += 1
        return _COLL_TAG_BASE - (self._coll_seq % 100000)

    def rendezvous(self, obj: Any, action: Callable[[list], Any]) -> Any:
        """All ranks meet by reference (collective).

        Every rank deposits ``obj`` — the object itself, nothing is
        pickled or copied — in its slot of this communicator's meeting
        point; once all have arrived, exactly one rank runs
        ``action(slots)`` (``slots[r]`` is local rank ``r``'s object)
        and every rank returns its result.  An ``action`` that raises is
        raised on every rank.  Like a receive, the wait ends with
        :class:`~repro.mpisim.exceptions.AbortError` when the engine
        aborts and honours the engine's wait-policy timeout; the entry
        is a stall/kill fault-injection point."""
        self._fault_hook("rendezvous")
        return self._meeting.meet(self.rank, self._trace_rank, obj, action)

    def share(self, obj: Any, root: int = 0) -> Any:
        """Broadcast by reference (collective): every rank returns the
        root's ``obj`` — the object itself, where :meth:`bcast` delivers
        pickled copies through ``size - 1`` messages.  As in a
        broadcast, only the root is waited for: it does not wait at all,
        and neither does a rank that arrives after it.  Waiting, abort,
        timeout and fault injection are :meth:`rendezvous`'s."""
        self._check_peer(root, "root")
        self._fault_hook("share")
        return self._meeting.broadcast(self.rank, self._trace_rank, obj, root)

    def barrier(self) -> None:
        """Dissemination barrier: ceil(log2 p) sendrecv rounds."""
        tag = self._next_coll_tag()
        k = 1
        while k < self.size:
            dst = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            self.sendrecv(None, dst, src, sendtag=tag)
            k *= 2

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast."""
        self._check_peer(root, "root")
        tag = self._next_coll_tag()
        vrank = (self.rank - root) % self.size
        # Classic binomial tree: receive from the parent obtained by
        # clearing the lowest set bit, then forward to children below it.
        mask = 1
        while mask < self.size:
            if vrank & mask:
                parent = vrank ^ mask
                obj = self.recv(source=(parent + root) % self.size, tag=tag)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:
            child = vrank | mask
            if child != vrank and child < self.size:
                self.send(obj, (child + root) % self.size, tag=tag)
            mask >>= 1
        return obj

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        self._check_peer(root, "root")
        tag = self._next_coll_tag()
        if self.rank == root:
            out: list = [None] * self.size
            out[root] = obj
            for r in range(self.size):
                if r != root:
                    out[r] = self.recv(source=r, tag=tag)
            return out
        self.send(obj, root, tag=tag)
        return None

    def allgather(self, obj: Any) -> list:
        """Gather everyone's contribution everywhere: p−1 ring neighbour
        exchanges (bandwidth-optimal)."""
        tag = self._next_coll_tag()
        out: list = [None] * self.size
        out[self.rank] = obj
        right = (self.rank + 1) % self.size
        left = (self.rank - 1) % self.size
        carry = obj
        for step in range(self.size - 1):
            carry = self.sendrecv(carry, right, left, sendtag=tag)
            out[(self.rank - 1 - step) % self.size] = carry
        return out

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any]) -> Any:
        """Allgather-based allreduce (small p; used only in setup paths)."""
        values = self.allgather(obj)
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        return acc

    def alltoall(self, objs: Sequence[Any]) -> list:
        """Personalized exchange: p−1 shifted sendrecv rounds — the
        direct (pairwise) algorithm."""
        if len(objs) != self.size:
            raise ValueError(
                f"alltoall needs {self.size} entries, got {len(objs)}"
            )
        tag = self._next_coll_tag()
        out: list = [None] * self.size
        out[self.rank] = objs[self.rank]
        for k in range(1, self.size):
            dst = (self.rank + k) % self.size
            src = (self.rank - k) % self.size
            out[src] = self.sendrecv(objs[dst], dst, src, sendtag=tag)
        return out

    def __repr__(self) -> str:
        return (
            f"Communicator(rank={self.rank}, size={self.size}, "
            f"id={self.comm_id!r})"
        )


class SubCommunicator(Communicator):
    """A communicator over a subset of the engine's ranks (the result of
    :meth:`Communicator.split`).

    Ranks are local (0..n−1); every point-to-point operation translates
    the peer through the group table, and envelopes carry local source
    ranks so matching stays within the sub-communicator's id space.
    """

    def __init__(self, engine, rank, size, comm_id, group, parent):
        super().__init__(engine, rank, size, comm_id)
        self.group = list(group)
        self.parent = parent
        # receives must be posted to this *process's* mailbox, which is
        # keyed by its engine (world) rank, not the local rank
        self._mailbox = engine.mailbox(self.group[rank])
        self._trace_rank = self.group[rank]

    def _global_rank(self, peer: int) -> int:
        return self.group[peer]

    def dup(self) -> "SubCommunicator":
        self._dup_count += 1
        return SubCommunicator(
            self.engine,
            self.rank,
            self.size,
            self.comm_id + (self._dup_count,),
            self.group,
            self.parent,
        )

    def translate_rank(self, local: int) -> int:
        """Local rank → engine (world) rank."""
        return self.group[local]

    def __repr__(self) -> str:
        return (
            f"SubCommunicator(rank={self.rank}/{self.size}, "
            f"group={self.group}, id={self.comm_id!r})"
        )
