"""Per-rank communication programs for the discrete-event simulator.

A *program* is the flat list of operations one rank performs:

* ``("irecv", src, nbytes)`` — post a receive;
* ``("isend", dst, nbytes)`` — post a send;
* ``("waitall",)`` — block until everything posted since the last
  ``waitall`` completed;
* ``("local", nbytes)`` — rank-local memory work.

Programs come from two sources:

1. **synthesized from a schedule** — since Cartesian schedules are SPMD
   and rank-independent (relative offsets), the program of any rank at
   any process count follows directly, without running the collective;
   this is how full-scale (p = 16384) simulations are driven;
2. **recorded traces** — an engine run with ``tracing=True`` produces
   the same vocabulary, letting the simulator replay what actually
   executed (used to cross-validate the synthesis).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.mpisim.trace import TraceEvent

Op = tuple


def program_from_schedule(
    schedule: Schedule, topo: CartTopology, rank: int
) -> list[Op]:
    """Synthesize rank ``rank``'s program for one execution of
    ``schedule`` on ``topo`` (mirrors
    :class:`repro.core.backend.interpreter.ScheduleInterpreter`,
    including the receive-before-send posting order)."""
    ops: list[Op] = []
    for phase in schedule.phases:
        posted = 0
        for rnd in phase.rounds:
            neg = tuple(-o for o in rnd.recv_source_offset)
            source = topo.translate(rank, neg)
            target = topo.translate(rank, rnd.offset)
            if source is not None:
                ops.append(("irecv", source, rnd.recv_blocks.total_nbytes))
                posted += 1
            if target is not None:
                ops.append(("isend", target, rnd.send_blocks.total_nbytes))
                posted += 1
        if posted:
            ops.append(("waitall",))
    copied = sum(lc.src.nbytes for lc in schedule.local_copies)
    if copied:
        ops.append(("local", copied))
    return ops


def programs_from_schedule(
    schedule: Schedule, topo: CartTopology
) -> list[list[Op]]:
    """Programs for every rank of the topology."""
    return [program_from_schedule(schedule, topo, r) for r in range(topo.size)]


def program_from_trace(events: Sequence[TraceEvent]) -> list[Op]:
    """Convert one rank's recorded trace into a program."""
    ops: list[Op] = []
    for e in events:
        if e.kind == "isend":
            ops.append(("isend", e.peer, e.nbytes))
        elif e.kind == "irecv":
            ops.append(("irecv", e.peer, e.nbytes))
        elif e.kind == "waitall":
            ops.append(("waitall",))
        elif e.kind == "local":
            ops.append(("local", e.nbytes))
        # "mark" events carry no cost
    return ops


def validate_programs(programs: Sequence[list[Op]]) -> None:
    """Static sanity checks: sends and receives pair up globally (same
    message count per (src, dst) channel in both directions of the
    match), and every program ends with its work completed by a
    waitall."""
    sends: dict[tuple[int, int], int] = {}
    recvs: dict[tuple[int, int], int] = {}
    for rank, prog in enumerate(programs):
        outstanding = 0
        for op in prog:
            if op[0] == "isend":
                sends[(rank, op[1])] = sends.get((rank, op[1]), 0) + 1
                outstanding += 1
            elif op[0] == "irecv":
                recvs[(op[1], rank)] = recvs.get((op[1], rank), 0) + 1
                outstanding += 1
            elif op[0] == "waitall":
                outstanding = 0
        if outstanding:
            raise ValueError(
                f"rank {rank}: {outstanding} operations not completed by a "
                f"final waitall"
            )
    if sends != recvs:
        missing = {k: (sends.get(k, 0), recvs.get(k, 0)) for k in set(sends) | set(recvs)
                   if sends.get(k, 0) != recvs.get(k, 0)}
        raise ValueError(f"unmatched channels (sends, recvs): {missing}")
