"""Transport protocol and backend base classes.

Proposition 3.1 makes a schedule pure local data; *executing* one only
needs three verbs — post a receive, post a send, and complete the
posted operations of a phase.  :class:`Transport` is that verb set for
a single rank;
:class:`Backend` is the driver layer above it, with three entry points:
:meth:`Backend.execute_all` runs a schedule for *all* ranks in one call
(buffers supplied per rank), :meth:`Backend.run` runs it for the
*calling* rank of a live communicator — what ``CartComm`` launches a
bound collective through — and :meth:`Backend.start` starts a
persistent handle there.  The defaults have the ranks meet by reference
at the communicator's rendezvous, where one of them checks that all
bound the same schedule, lowers it once and drives ``execute_all`` over
every rank's own arrays.  The threaded backend overrides both with the
interpreter over its own transport.  ``start`` has one contract on
every backend: a handle's first start binds its execution — looks its
plan up once — and leaves it in ``handle.prepared`` (a :data:`Prepared`);
a later start runs that and books a plan hit.  On an all-ranks backend
the one execution serves every rank and a later start is one meeting
that runs it; on the threaded backend each rank binds its own: its
plan view, its transport and its buffers.

Split-phase (non-blocking) execution needs a per-rank transport and
always runs over the threaded one, whatever backend is selected.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core import plan as plan_mod
from repro.core.reduce_schedule import is_custom_op_token
from repro.core.schedule import BoundOp
from repro.mpisim.exceptions import MpiSimError, ScheduleError

if TYPE_CHECKING:
    from repro.core.schedule import Schedule
    from repro.core.topology import CartTopology
    from repro.mpisim.datatypes import BlockSet


class BackendError(MpiSimError):
    """An execution backend was misused or failed."""


# ---------------------------------------------------------------------------
# scratch-buffer allocation (shared by every backend and front-end)
# ---------------------------------------------------------------------------


def allocate_buffers(
    schedule: "Schedule",
    user_buffers: Mapping[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Combine the caller's named buffers with the scratch buffer the
    schedule requires (``"temp"``)."""
    buffers = dict(user_buffers)
    if schedule.temp_nbytes > 0 and "temp" not in buffers:
        buffers["temp"] = np.empty(schedule.temp_nbytes, dtype=np.uint8)
    return buffers


class Transport:
    """One rank's executor verbs.

    ``post_recv``/``post_send`` return opaque pending tokens; ``waitall``
    consumes the tokens of one phase and guarantees every receive has
    been scattered into its block set when it returns.  The optional
    observability hooks (``mark``/``progress``/``record_local``) default
    to no-ops — only the threaded transport has a trace to feed.
    """

    rank: int

    def post_recv(
        self,
        blocks: "BlockSet",
        buffers: Mapping[str, np.ndarray],
        source: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        """Post one round's receive; ``seq`` is (phase, round)."""
        raise NotImplementedError

    def post_send(
        self,
        blocks: "BlockSet",
        buffers: Mapping[str, np.ndarray],
        dest: int,
        tag: int,
        seq: tuple[int, int],
    ) -> Any:
        """Post one round's send."""
        raise NotImplementedError

    def waitall(self, pending: Sequence[Any]) -> None:
        """Complete every pending token of the current phase."""
        raise NotImplementedError

    # observability hooks --------------------------------------------------
    def mark(self, note: str) -> None:
        """Trace annotation (no-op unless the transport has a trace)."""

    def progress(self, **kwargs: Any) -> None:
        """Structured progress-state update (no-op by default)."""

    def record_local(self, nbytes: int, note: str = "") -> None:
        """Attribute rank-local data movement (no-op by default)."""


def _equal_schedules(a: "Schedule", b: "Schedule") -> bool:
    """Identity first — isomorphic calls share the process-wide cache
    entry — and equality only on an identity miss, so an eviction
    between two ranks' binds is not an error.  A process-local operator
    token names a callable, not content: ranks that each passed their
    own callable are trusted to have passed the same function, as MPI
    trusts an ``MPI_Op``."""
    if a is b or a == b:
        return True
    return (
        is_custom_op_token(a.combine_op or "")
        and is_custom_op_token(b.combine_op or "")
        and replace(a, combine_op=b.combine_op) == b
    )


#: A persistent handle's execution, bound by its first start and kept in
#: ``handle.prepared``: a later start runs ``run()``.  On an all-ranks
#: backend the driver of the first start binds one for all ranks
#: (``plan`` the :class:`~repro.core.plan.BatchedPlan`), a later start
#: deposits the one object and ``run()`` executes it for all; on the
#: threaded backend every rank binds its own (``plan`` its
#: :class:`~repro.core.plan.RankPlan` view) and ``run()`` returns its
#: ``(plan_hit, bytes_packed, bytes_copied)``.
Prepared = namedtuple("Prepared", ["op", "schedule", "plan", "run"])


def _same_launch(slots: Sequence[Any]) -> Any:
    """Rank 0's deposit, once every rank is known to run the same
    thing — bound operations of one schedule, or one handle's
    :data:`Prepared` execution.  Whoever drives a meeting runs *one*
    schedule over everybody's buffers, so a rank that called a
    different collective, or started another handle, would otherwise go
    unnoticed."""
    first = slots[0]
    for rank, slot in enumerate(slots):
        if slot is first:
            continue
        if isinstance(first, Prepared) or isinstance(slot, Prepared):
            raise ScheduleError(
                f"mismatched collective: rank {rank} and rank 0 did not "
                f"start the same persistent handle "
                f"({(slot.op, slot.schedule.kind)} against "
                f"{(first.op, first.schedule.kind)}); every rank must start "
                f"its handle of the same init call"
            )
        if not _equal_schedules(slot.schedule, first.schedule):
            raise ScheduleError(
                f"mismatched collective: rank {rank} called "
                f"{(slot.op, slot.schedule.kind)} where rank 0 called "
                f"{(first.op, first.schedule.kind)}"
                + _difference(slot, first)
            )
    return first


def _difference(mine: BoundOp, root: BoundOp) -> str:
    """Added to the refusal when operation and kind agree — both sides
    would print the same: where the two schedules first differ."""
    a, b = mine.schedule, root.schedule
    if (mine.op, a.kind) != (root.op, b.kind):
        return ""
    what = f"layouts of {a.volume_bytes} B against {b.volume_bytes} B"
    for i, (ra, rb) in enumerate(zip(a.all_rounds(), b.all_rounds())):
        if ra != rb:
            what = f"round {i} moves {ra.nbytes} B against {rb.nbytes} B"
            break
    return (
        f" with a different schedule ({what}); an all-ranks backend runs "
        f"one schedule for all ranks, so per-rank layouts need "
        f"backend='threaded'"
    )


class Backend:
    """Driver for one execution strategy."""

    name: str

    def run(
        self,
        comm: Any,
        topo: "CartTopology",
        schedule: "Schedule",
        buffers: Mapping[str, np.ndarray],
        op: str = "",
    ) -> tuple[bool, int, int]:
        """Execute ``schedule`` for the calling rank of ``comm``
        (collective; ``op`` is the name the caller knows the operation
        by); returns this rank's ``(plan_hit, bytes_packed,
        bytes_copied)``.

        The default, for all-ranks backends: the ranks meet at
        ``comm``'s rendezvous with their bound operation *by reference*,
        and one of them lowers the schedule — once per collective — and
        drives :meth:`execute_all` over every rank's own arrays: no
        message, no copy in or out.  The meeting is refused, before any
        byte moves, when the ranks did not all bind the same schedule; a
        refusal or a failing execution is raised on every rank."""
        lowered, hit = comm.rendezvous(
            BoundOp(op, schedule, buffers), partial(self._drive, topo)
        )
        return hit, lowered.rank_wire_bytes(comm.rank), schedule.local_copy_bytes

    def start(
        self, comm: Any, topo: "CartTopology", handle: Any
    ) -> tuple[bool, int, int]:
        """:meth:`run` for a :class:`~repro.core.persistent.PersistentOp`.
        The default, for all-ranks backends: the driver of a first start
        also binds the handle's :data:`Prepared` execution, which every
        rank's handle keeps.  A later start deposits that, and the
        meeting only checks that all ranks brought the one object before
        it runs it (a plan hit for every rank)."""
        got, hit = comm.rendezvous(
            handle.prepared or handle, partial(self._drive, topo)
        )
        if isinstance(got, Prepared):
            handle.prepared, got = got, got.plan
        return hit, got.rank_wire_bytes(comm.rank), handle.schedule.local_copy_bytes

    def _drive(
        self, topo: "CartTopology", slots: Sequence[Any]
    ) -> tuple[Any, bool]:
        """Every meeting's action: ``(what ran, plan hit)``."""
        first = _same_launch(slots)
        if isinstance(first, Prepared):
            first.run()
            return first, True
        # every rank accounts the one lowering as its one logical plan
        # lookup (a hit unless the mesh's plan had to be lowered first)
        lowered, hit = plan_mod.get_or_compile(
            first.schedule, topo, first.buffers
        )
        rank_buffers = [slot.buffers for slot in slots]
        if any(isinstance(slot, BoundOp) for slot in slots):  # a blocking call
            self.execute_all(topo, first.schedule, rank_buffers, plan=lowered)
            return lowered, hit
        run = self.prepare(topo, first.schedule, lowered, rank_buffers)
        run()
        return Prepared(first.op, first.schedule, lowered, run), hit

    def prepare(
        self,
        topo: "CartTopology",
        schedule: "Schedule",
        plan: "plan_mod.BatchedPlan",
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
    ) -> Callable[[], None]:
        """How a handle's :data:`Prepared` execution runs: by default
        :meth:`execute_all` with the plan already looked up."""
        return partial(self.execute_all, topo, schedule, rank_buffers, plan=plan)

    def execute_all(
        self,
        topo: "CartTopology",
        schedule: "Schedule",
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
        *,
        plan: "plan_mod.BatchedPlan | None" = None,
    ) -> None:
        """Execute ``schedule`` for every rank of ``topo`` in one call,
        mutating ``rank_buffers`` in place (all-ranks backends only).
        ``plan`` is the schedule's lowering for rank 0's buffer sizes
        when the caller already holds it (:meth:`run`'s driver does)."""
        raise BackendError(
            f"backend {self.name!r} cannot execute all ranks in one call"
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
