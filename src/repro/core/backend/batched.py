"""Batched backend: the whole mesh as one data-parallel numpy program.

The lockstep backend already executes all ``p`` ranks in one process,
but it still *interprets* the schedule rank by rank — ``p`` interpreter
loops, ``p`` pack/unpack calls per round, minutes of Python at the
paper's Titan scale (1024×16 ranks).  Because schedules are SPMD
(Prop. 3.1–3.3: every rank runs the identical phase/round structure),
the per-rank loops can be folded away entirely: this backend runs the
schedule's :class:`~repro.core.plan.BatchedPlan` whole, in the form the
plan's lowering chose for it (``plan.delivery``).

*Staged* — small blocks, reductions: all rank buffers are stacked into
one ``(p, nbytes)`` matrix per buffer name and
:meth:`~repro.core.plan.BatchedPlan.execute` runs each round as a
handful of vectorized numpy operations — gather all rows into a
``(p, n)`` wire matrix, permute its rows by the source-rank array,
scatter.  About five copies per delivered byte, but one kernel launch
for all ranks, which is what makes interactive large-mesh and netsim
sweeps feasible.

*In place* — large blocks, no phase that reads what it writes:
:meth:`~repro.core.plan.BatchedPlan.deliver` copies every round
straight from the sending rank's own arrays to the receiving rank's:
one copy per delivered byte, ``p`` launches per round.

Semantics are identical to lockstep either way (the very same plan —
lockstep walks its rank views): the staged form keeps the pack-all-then-
deliver discipline per phase, and the in-place form is only taken where
that discipline cannot be observed.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from repro.core import plan as plan_mod
from repro.core.backend.base import Backend
from repro.core.backend.interpreter import CARTTAG
from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import byte_view
from repro.mpisim.exceptions import ScheduleError

class BatchedBackend(Backend):
    """All ranks in one process as one vectorized numpy program."""

    name = "batched"

    def execute_all(
        self,
        topo: CartTopology,
        schedule: Schedule,
        rank_buffers: Sequence[Mapping[str, np.ndarray]],
        *,
        tag: int = CARTTAG,
        validate: bool = False,
    ) -> None:
        p = topo.size
        if len(rank_buffers) != p:
            raise ScheduleError(
                f"need one buffer set per rank: p={p}, got {len(rank_buffers)}"
            )
        layout = {
            name: int(arr.nbytes) for name, arr in rank_buffers[0].items()
        }
        for r in range(1, p):
            got = {
                name: int(arr.nbytes) for name, arr in rank_buffers[r].items()
            }
            if got != layout:
                raise ScheduleError(
                    f"batched backend requires the SPMD-uniform buffer "
                    f"layout on every rank: rank {r} has {sorted(got)} "
                    f"sizes differing from rank 0"
                )
        if validate:
            # layouts are uniform, so one rank's validation covers all
            check = dict(rank_buffers[0])
            if schedule.temp_nbytes > 0 and "temp" not in check:
                check["temp"] = np.empty(schedule.temp_nbytes, np.uint8)
            schedule.validate(check)
        sizes = plan_mod.effective_sizes(schedule, rank_buffers[0])
        bplan, _ = plan_mod.get_or_compile(schedule, topo, sizes=sizes)
        # names can hide aliasing the plan's interval check cannot see
        # (``alltoall(a, a)``, a ``recv`` that is a view into ``send``):
        # such a call needs the wire's snapshot
        if bplan.delivery == "in-place" and not any(
            np.may_share_memory(a, b)
            for buffers in rank_buffers
            for a, b in combinations(buffers.values(), 2)
        ):
            bplan.deliver(rank_buffers)
            return
        # scratch is not data: the ``temp`` matrix is this execution's
        # own, never staged in from a caller's ``temp`` nor handed back
        staged = [
            name
            for name in rank_buffers[0]
            if name != "temp" or schedule.temp_nbytes == 0
        ]
        flats: list[np.ndarray] = []
        matrices: dict[str, np.ndarray] = {}
        try:
            for name, nbytes in sizes.items():
                flat = plan_mod.GLOBAL_POOL.acquire(p * nbytes)
                flats.append(flat)
                mat = flat.reshape(p, nbytes)
                matrices[name] = mat
                if name in staged:
                    for r in range(p):
                        mat[r] = byte_view(rank_buffers[r][name])
            bplan.execute(matrices)
            bplan.run_local_copies(matrices)
            # hand back only what the plan wrote: a buffer no kernel
            # writes (a read-only ``send``) is never assigned
            for name in bplan.written.intersection(staged):
                mat = matrices[name]
                for r in range(p):
                    byte_view(rank_buffers[r][name])[:] = mat[r]
        finally:
            for flat in flats:
                plan_mod.GLOBAL_POOL.release(flat)
