"""Batched backend: every rank in one process, one executor, three forms.

Schedules are SPMD (Prop. 3.1–3.3: every rank runs the identical
phase/round structure), so a process that holds all ``p`` ranks does
not have to interpret the schedule ``p`` times — ``p`` interpreter
loops, ``p`` pack/unpack calls per round, minutes of Python at the
paper's Titan scale (1024×16 ranks).  This backend runs the schedule's
:class:`~repro.core.plan.BatchedPlan` whole.  :func:`executor_form`
picks the form from what can be observed before any byte moves — there
is no knob — trying them in this order:

*Walk* — ranks whose buffer sizes differ, or a plan with no matrix
form (``plan.matrix_error``: a reduction over a buffer that is not a
whole number of elements): the per-rank walk over the plan's rank views
(:class:`~repro.core.backend.lockstep.LockstepBackend`), the only form
that asks nothing of the layout.  It is also the independent reference
the other two are verified and tested against, which is why it is a
form here and not a backend to select: wherever the matrix forms can
run they are faster.

*In place* — ``plan.delivery == "in-place"`` (large blocks, no phase
that reads what it writes) and no two buffers of a rank sharing memory:
:meth:`~repro.core.plan.BatchedPlan.deliver` copies every round
straight from the sending rank's own arrays to the receiving rank's:
one copy per delivered byte, ``p`` launches per round.

*Staged* — everything else (small blocks, reductions): each buffer
name's ``p`` arrays are copied by one ``np.concatenate`` into one
``(p, nbytes)`` matrix of one pooled block
(:meth:`~repro.core.plan.BatchedPlan.matrices`).  Each phase is one
gather/scatter of words on the block where the plan has fused maps
(:attr:`~repro.core.plan.BatchedPlan.fused`), a reduction's folds
between; else :meth:`~repro.core.plan.BatchedPlan.execute` runs each
round's kernels: gather all rows into a ``(p, n)`` wire matrix, permute
its rows by the source-rank array, scatter.  A persistent handle
decides its form once: its first start binds one
:data:`~repro.core.backend.base.Prepared` execution for all ranks
(:meth:`BatchedBackend.prepare`) and every later start runs it.

Semantics are identical whichever form runs (it is the very same plan):
the staged form keeps the walk's pack-all-then-deliver discipline per
phase, and the in-place form is only taken where that discipline cannot
be observed.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core import plan as plan_mod
from repro.core.backend.base import Backend
from repro.core.backend.lockstep import WALK
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import byte_view
from repro.mpisim.exceptions import ScheduleError


def executor_form(
    plan: plan_mod.BatchedPlan,
    rank_buffers: Sequence[Mapping[str, np.ndarray]] = (),
) -> str:
    """The form :meth:`BatchedBackend.execute_all` runs ``plan`` in over
    ``rank_buffers`` and why, as one string: ``"walk: …"``,
    ``"in-place: …"`` or ``"staged: …"``.  ``plan`` is the lowering for
    rank 0's sizes; without buffers the answer is the one for uniformly
    sized, unaliased ones."""
    if rank_buffers and not _uniform(rank_buffers):
        layout = {n: a.nbytes for n, a in rank_buffers[0].items()}
        rank = next(
            rank
            for rank, buffers in enumerate(rank_buffers)
            if {n: a.nbytes for n, a in buffers.items()} != layout
        )
        return f"walk: rank {rank} sizes differ from rank 0"
    if plan.matrix_error is not None:
        return f"walk: {plan.matrix_error}"
    # names can hide aliasing the plan's interval check cannot see
    # (``alltoall(a, a)``, a ``recv`` that is a view into ``send``):
    # such a call needs the wire's snapshot
    if plan.delivery == "in-place" and any(
        np.may_share_memory(a, b)
        for buffers in rank_buffers
        for a, b in combinations(buffers.values(), 2)
    ):
        return "staged: two buffers of a rank share memory"
    return f"{plan.delivery}: {plan.delivery_reason}"


def _uniform(rank_buffers: Sequence[Mapping[str, np.ndarray]]) -> bool:
    """Whether every rank names rank 0's buffers at rank 0's sizes: one
    set of ``p`` sizes per name (a rank-by-rank comparison only names
    the first rank that differs, once one does)."""
    first = rank_buffers[0]
    try:
        return all(len(b) == len(first) for b in rank_buffers) and all(
            len({b[name].nbytes for b in rank_buffers}) == 1 for name in first
        )
    except KeyError:
        return False


class BatchedBackend(Backend):
    """All ranks in one process: the plan's matrix kernels where they
    apply, the per-rank walk where they do not."""

    name = "batched"

    def execute_all(
        self,
        topo: CartTopology,
        schedule: Schedule,
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
        *,
        plan: plan_mod.BatchedPlan | None = None,
    ) -> None:
        p = topo.size
        if len(rank_buffers) != p:
            raise ScheduleError(
                f"need one buffer set per rank: p={p}, got {len(rank_buffers)}"
            )
        if plan is None:
            plan, _ = plan_mod.get_or_compile(schedule, topo, rank_buffers[0])
        _runner(topo, schedule, plan, rank_buffers)()

    def prepare(
        self,
        topo: CartTopology,
        schedule: Schedule,
        plan: plan_mod.BatchedPlan,
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
    ) -> Callable[[], None]:
        """The form decided once, for every start of a handle."""
        return _runner(topo, schedule, plan, rank_buffers)


def _runner(
    topo: CartTopology,
    schedule: Schedule,
    plan: plan_mod.BatchedPlan,
    rank_buffers: Sequence[Mapping[str, np.ndarray]],
) -> Callable[[], None]:
    """One execution of ``plan`` over ``rank_buffers`` in the form
    :func:`executor_form` picks, as a call to repeat: the staged form
    runs the plan's fused maps where it has them, the per-round kernels
    otherwise."""
    form = executor_form(plan, rank_buffers)
    if form.startswith("in-place"):
        return partial(plan.deliver, rank_buffers)
    if form.startswith("walk"):

        def walk() -> None:
            plan_mod.record_walk()
            # every rank looks up the plan of its own sizes
            WALK.execute_all(topo, schedule, rank_buffers)

        return walk
    # scratch is not data: the ``temp`` matrix is the execution's own,
    # never staged in from a caller's ``temp`` nor handed back
    staged = []
    for name in rank_buffers[0]:
        if name == "temp" and schedule.temp_nbytes:
            continue
        arrays = [b[name] for b in rank_buffers]
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValueError("datatype buffers must be C-contiguous")
        if len({a.dtype for a in arrays}) > 1 or len({a.shape for a in arrays}) > 1:
            # ranks that bind other types or shapes of one size meet as bytes
            arrays = [byte_view(a) for a in arrays]
        staged.append((name, arrays, name in plan.written))

    def staged_run() -> None:
        with staged_block(plan, staged) as (_, run):
            run()

    return staged_run


@contextmanager
def staged_block(
    plan: plan_mod.BatchedPlan,
    staged: Sequence[tuple[str, Sequence[np.ndarray], bool]],
) -> Iterator[tuple[dict[str, np.ndarray], Callable[[], None]]]:
    """The staged form around a body: every rank's ``staged`` buffers —
    ``(name, rank arrays of one type and shape, written)`` — concatenated
    into their matrices of one pooled block (:meth:`~repro.core.plan.
    BatchedPlan.matrices`, each seen as ``p`` rows of the arrays' type).
    The body gets those rows and ``run()``, one execution of the plan
    on the block (:meth:`~repro.core.plan.BatchedPlan.execute_staged`),
    to call any number of times; then what is written is copied back
    (a buffer no kernel writes, a read-only ``send``, is never assigned)."""
    block = plan_mod.GLOBAL_POOL.acquire(plan.block_nbytes)
    try:
        matrices = plan.matrices(block)
        rows = {
            name: matrices[name].view(arrays[0].dtype).reshape(
                len(arrays), *arrays[0].shape
            )
            for name, arrays, _ in staged
        }
        for name, arrays, _ in staged:
            np.concatenate(arrays, axis=None, out=rows[name].reshape(-1))

        yield rows, partial(plan.execute_staged, block, matrices)
        for name, arrays, written in staged:
            if written:
                for arr, row in zip(arrays, rows[name]):
                    arr[...] = row
    finally:
        plan_mod.GLOBAL_POOL.release(block)
