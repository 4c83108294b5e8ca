"""Batched backend: every rank in one process, one executor, four forms.

Schedules are SPMD (Prop. 3.1–3.3: every rank runs the identical
phase/round structure), so a process that holds all ``p`` ranks does
not have to interpret the schedule ``p`` times.  This backend runs the
schedule's :class:`~repro.core.plan.BatchedPlan` whole, in the form
:func:`executor_form` picks from what can be observed before any byte
moves — there is no knob — trying them in this order:

*Walk* — ranks whose buffer sizes differ, or a plan with no staged form
(``plan.matrix_error``: a reduction over a buffer that is not a whole
number of elements): the per-rank walk over the plan's rank views
(:class:`~repro.core.backend.lockstep.LockstepBackend`), which asks
nothing of the layout.  It is also the independent reference the other
forms are verified and tested against.

*In place* — ``plan.delivery == "in-place"`` (large blocks, no phase
that reads what it writes) and no two buffers of a rank sharing memory:
every round copies from the sending rank's own arrays to the receiving
rank's, as one pass over the ``(destination, source)`` pairs that
:meth:`~repro.core.plan.BatchedPlan.bind` sliced once per rank set.

*Staged* — everything else (small blocks, reductions), as
``plan.staging`` chose: *fused* concatenates each buffer name's ``p``
arrays into a ``(p, nbytes)`` matrix of one pooled block and runs one
gather/scatter of words per phase; *planes* stacks them rank-minor, a
word slot one row over the rank grid, and runs each round as a few
shifted slab copies.  A persistent handle decides its form — and binds
an in-place one — once (:meth:`BatchedBackend.prepare`).

Semantics are identical whichever form runs (it is the very same plan):
the staged forms keep the walk's pack-all-then-deliver discipline per
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
    ``"in-place: …"`` or ``"staged: …; fused: …"`` (``planes`` in
    place of ``fused``).  ``plan`` is the lowering for rank 0's sizes;
    without buffers the answer is the one for uniformly sized, unaliased
    ones.  An in-place form names its launch count (``plan.num_launches``)."""
    form = _scan(plan, rank_buffers)[0]
    return f"{form}; {plan.num_launches} launches" if form.startswith("in-place") else form


def _scan(
    plan: plan_mod.BatchedPlan, rank_buffers: Sequence[Mapping[str, np.ndarray]]
) -> tuple[str, set[str], set[str]]:
    """:func:`executor_form`, the names whose arrays differ in type or
    shape between ranks and those with a non-contiguous array, from one
    pass over the buffers: sizes, types, shapes, contiguity and — where
    ``plan`` runs in place — aliasing, which names can hide
    (``alltoall(a, a)``) and only a staged form's snapshot survives."""
    first = {n: (a.nbytes, a.dtype, a.shape) for b in rank_buffers[:1] for n, a in b.items()}
    mixed, strided = set[str](), set[str]()
    aliased, alias = False, plan.delivery == "in-place"
    differs = "walk: rank {} sizes differ from rank 0"
    for rank, buffers in enumerate(rank_buffers):
        if len(buffers) != len(first):
            return differs.format(rank), mixed, strided
        for name, a in buffers.items():
            want = first.get(name)
            if want is None or a.nbytes != want[0]:
                return differs.format(rank), mixed, strided
            if a.dtype is not want[1] and a.dtype != want[1] or a.shape != want[2]:
                mixed.add(name)
            if not a.flags.c_contiguous:
                strided.add(name)
        aliased = aliased or alias and any(
            np.may_share_memory(a, b) for a, b in combinations(buffers.values(), 2)
        )
    if plan.matrix_error is not None:
        form = f"walk: {plan.matrix_error}"
    elif alias and not aliased:
        form = f"in-place: {plan.delivery_reason}"
    elif plan.staging.startswith("walk"):
        form = plan.staging
    else:
        why = "two buffers of a rank share memory" if aliased else plan.delivery_reason
        form = f"staged: {why}; {plan.staging}"
    return form, mixed, strided


class BatchedBackend(Backend):
    """All ranks in one process: the plan's staged or in-place forms
    where they apply, the per-rank walk where they do not."""

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
    :func:`executor_form` picks, as a call to repeat."""
    form, mixed, strided = _scan(plan, rank_buffers)
    if form.startswith("in-place"):
        if plan.temp_nbytes and "temp" not in rank_buffers[0]:  # pooled rows: bound per run
            return partial(plan.deliver, rank_buffers)
        return plan.bind(rank_buffers)
    if form.startswith("walk"):

        def walk() -> None:
            plan_mod.record_walk()
            # every rank looks up the plan of its own sizes
            WALK.execute_all(topo, schedule, rank_buffers)

        return walk
    # scratch is not data: the ``temp`` matrix is the execution's own,
    # never staged in from a caller's ``temp`` nor handed back
    names = [n for n in rank_buffers[0] if n != "temp" or not schedule.temp_nbytes]
    if strided.intersection(names):
        raise ValueError("datatype buffers must be C-contiguous")
    staged = []
    for name in names:
        arrays = [b[name] for b in rank_buffers]
        if name in mixed:
            # ranks that bind other types or shapes of one size meet as bytes
            arrays = [byte_view(a) for a in arrays]
        staged.append((name, arrays, name in plan.written))
    planes = plan.staging.startswith("planes")
    return partial(_planes_run if planes else _fused_run, plan, staged)


def _fused_run(plan: plan_mod.BatchedPlan, staged: Sequence[tuple]) -> None:
    with staged_block(plan, staged) as (_, run):
        run()


def _planes_run(
    plan: plan_mod.BatchedPlan, staged: Sequence[tuple[str, Sequence[np.ndarray], bool]]
) -> None:
    """One execution in planes: each buffer it can see (``planes.stale``)
    transposed in, each written one back out — column by column into
    ``p`` rank arrays, by one transposing copy into a ``(p, …)`` stack."""
    block = plan_mod.GLOBAL_POOL.acquire(plan.block_nbytes)
    try:
        dtype, p = plan.planes.dtype, plan.p
        words = {n: a.view(dtype).reshape(len(a), p) for n, a in plan.plane_views(block).items()}
        for name, arrays, _ in staged:
            if name in plan.planes.stale:
                _stage_in(words[name], arrays)
        plan.execute_planes(block)
        for name, arrays, written in staged:
            if written and isinstance(arrays, np.ndarray):
                arrays.reshape(p, -1).view(dtype)[...] = words[name].T
            elif written:
                for a, column in zip(arrays, words[name].T):
                    a.reshape(-1).view(dtype)[...] = column
    finally:
        plan_mod.GLOBAL_POOL.release(block)


def _stage_in(words: np.ndarray, arrays: Sequence[np.ndarray]) -> None:
    """``p`` rank ``arrays`` (concatenated into pooled scratch) or their
    ``(p, …)`` stack into their plane ``words``: one transposing copy."""
    stacked = isinstance(arrays, np.ndarray)
    scratch = plan_mod.GLOBAL_POOL.acquire(0 if stacked else words.nbytes)
    try:
        if not stacked:
            arrays = np.concatenate(arrays, axis=None, out=scratch.view(arrays[0].dtype))
        words[...] = arrays.reshape(words.shape[1], -1).view(words.dtype).T
    finally:
        plan_mod.GLOBAL_POOL.release(scratch)


@contextmanager
def staged_block(
    plan: plan_mod.BatchedPlan,
    staged: Sequence[tuple[str, Sequence[np.ndarray], bool]],
) -> Iterator[tuple[dict[str, np.ndarray], Callable[[], None]]]:
    """The staged form around a body: every rank's ``staged`` buffers —
    ``(name, rank arrays of one type and shape, written)`` — as ``p``
    rows of the arrays' type: views of the matrices of one pooled block
    (:meth:`~repro.core.plan.BatchedPlan.matrices`) for fused maps, a
    stack that each run transposes into the planes and back for planes.
    The body gets those rows and ``run()``, one execution of the plan,
    to call any number of times; then what is written is copied back (a
    buffer no kernel writes, a read-only ``send``, is never assigned)."""
    planes = plan.staging.startswith("planes")
    block = plan_mod.GLOBAL_POOL.acquire(0 if planes else plan.block_nbytes)
    try:
        if planes:
            rows = {name: np.stack(arrays) for name, arrays, _ in staged}
            run = partial(_planes_run, plan, [(n, rows[n], w) for n, _, w in staged])
        else:
            matrices = plan.matrices(block)
            rows = {
                name: matrices[name].view(arrays[0].dtype).reshape(
                    len(arrays), *arrays[0].shape
                )
                for name, arrays, _ in staged
            }
            for name, arrays, _ in staged:
                np.concatenate(arrays, axis=None, out=rows[name].reshape(-1))
            run = partial(plan.execute_staged, block, matrices)
        yield rows, run
        for name, arrays, written in staged:
            if written:
                for arr, row in zip(arrays, rows[name]):
                    arr[...] = row
    finally:
        plan_mod.GLOBAL_POOL.release(block)
