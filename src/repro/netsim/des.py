"""Discrete-event replay of per-rank communication programs.

Simulation semantics (a LogGP-flavoured single-port model):

* posting a non-blocking operation occupies the rank's CPU for the
  variant's ``request_overhead`` (plus the pathological per-request cost
  when the phase's outstanding-request count exceeds the threshold);
* each message then serializes through the sender's NIC at ``β`` (plus
  the variant's per-byte overhead): the NIC is busy
  ``(β + o_byte)·bytes`` per message, injections queue FIFO;
* a message arrives at injection-completion + ``α`` + noise;
* messages on one (src, dst) channel are non-overtaking and match
  receives in post order (the engine's mailbox guarantee);
* ``waitall`` advances the rank's clock to the completion of everything
  posted since the previous ``waitall``: all own injections done and
  all matched arrivals in.

The simulator executes programs with a multi-pass scheduler: a rank
suspends at a ``waitall`` whose matching sends have not been simulated
yet and resumes once they exist.  Deadlock-free programs (anything a
Cartesian schedule produces) always make progress; a genuine cycle is
reported as an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.core.topology import CartTopology
from repro.netsim.machine import MachineModel
from repro.netsim.machines import PATHOLOGICAL_THRESHOLD
from repro.netsim.program import Op, programs_from_schedule


@dataclass
class _RankState:
    clock: float = 0.0
    nic_free: float = 0.0
    pc: int = 0  # program counter
    #: arrivals of messages matched by receives posted since last waitall
    pending_arrivals: list = field(default_factory=list)
    #: injection completions of sends posted since last waitall
    pending_injections: list = field(default_factory=list)
    #: per-phase request count (for the pathology cost)
    phase_requests: int = 0
    done: bool = False


class _Channel:
    """FIFO message channel src → dst carrying arrival timestamps."""

    __slots__ = ("arrivals", "consumed")

    def __init__(self) -> None:
        self.arrivals: list[float] = []
        self.consumed = 0

    def push(self, t: float) -> None:
        self.arrivals.append(t)

    def reserve(self) -> int:
        """Reserve the next message slot (receive posting order)."""
        idx = self.consumed
        self.consumed += 1
        return idx

    def get(self, idx: int) -> Optional[float]:
        if idx < len(self.arrivals):
            return self.arrivals[idx]
        return None


@dataclass
class SimulationResult:
    """Outcome of one simulated collective execution."""

    #: per-rank completion times (seconds)
    finish_times: np.ndarray
    #: completion of the whole collective = slowest rank
    makespan: float
    #: total messages simulated
    messages: int
    #: total bytes moved through the network
    network_bytes: int


def simulate_programs(
    programs: Sequence[list[Op]],
    machine: MachineModel,
    variant: str = "cart",
    *,
    rng: Optional[np.random.Generator] = None,
    pathological_threshold: int = PATHOLOGICAL_THRESHOLD,
    max_passes: Optional[int] = None,
) -> SimulationResult:
    """Simulate one execution of the given per-rank programs."""
    p = len(programs)
    costs = machine.costs(variant)
    noise = machine.noise
    use_noise = noise is not None and not noise.is_silent and rng is not None

    states = [_RankState() for _ in range(p)]
    channels: dict[tuple[int, int], _Channel] = {}
    # receives awaiting matching: (state, channel, idx) captured at post
    pending_recv_slots: list[list[tuple[_Channel, int]]] = [[] for _ in range(p)]
    messages = 0
    network_bytes = 0

    def channel(src: int, dst: int) -> _Channel:
        ch = channels.get((src, dst))
        if ch is None:
            ch = channels[(src, dst)] = _Channel()
        return ch

    def request_cost(st: _RankState, is_recv: bool) -> float:
        c = costs.request_overhead
        if (
            is_recv
            and costs.per_neighbor_quadratic > 0.0
            and st.phase_requests > pathological_threshold
        ):
            c += costs.per_neighbor_quadratic * st.phase_requests
        return c

    # Pre-scan: phase request counts must be known *before* pricing the
    # phase's requests (the library sizes its bookkeeping up front), so
    # compute per-waitall-group request counts per rank.
    phase_sizes: list[list[int]] = []
    for prog in programs:
        sizes = []
        count = 0
        for op in prog:
            if op[0] == "irecv":
                count += 1
            elif op[0] == "waitall":
                sizes.append(count)
                count = 0
        sizes.append(count)
        phase_sizes.append(sizes)
    phase_idx = [0] * p

    def set_phase_requests(rank: int) -> None:
        st = states[rank]
        sizes = phase_sizes[rank]
        i = phase_idx[rank]
        st.phase_requests = sizes[i] if i < len(sizes) else 0

    for r in range(p):
        set_phase_requests(r)

    remaining = p
    passes = 0
    if max_passes is None:
        max_passes = 10 * max((len(pr) for pr in programs), default=1) + 10

    while remaining > 0:
        passes += 1
        if passes > max_passes:
            stuck = [r for r in range(p) if not states[r].done]
            raise RuntimeError(
                f"simulation made no progress; stuck ranks {stuck[:10]}…"
            )
        progressed = False
        for r in range(p):
            st = states[r]
            if st.done:
                continue
            prog = programs[r]
            while st.pc < len(prog):
                op = prog[st.pc]
                kind = op[0]
                if kind == "isend":
                    _, dst, nbytes = op
                    st.clock += request_cost(st, is_recv=False)
                    start = max(st.clock, st.nic_free)
                    inject = (machine.beta + costs.per_byte_overhead) * nbytes
                    st.nic_free = start + inject
                    arrival = st.nic_free + machine.alpha
                    if use_noise:
                        arrival += noise.sample_message_delay(rng)
                    channel(r, dst).push(arrival)
                    st.pending_injections.append(st.nic_free)
                    messages += 1
                    network_bytes += nbytes
                elif kind == "irecv":
                    _, src, _nbytes = op
                    st.clock += request_cost(st, is_recv=True)
                    ch = channel(src, r)
                    idx = ch.reserve()
                    pending_recv_slots[r].append((ch, idx))
                elif kind == "waitall":
                    # resolvable only when all reserved arrivals exist
                    arrivals = []
                    resolved = True
                    for ch, idx in pending_recv_slots[r]:
                        t = ch.get(idx)
                        if t is None:
                            resolved = False
                            break
                        arrivals.append(t)
                    if not resolved:
                        break  # suspend this rank; retry next pass
                    if arrivals:
                        st.clock = max(st.clock, max(arrivals))
                    if st.pending_injections:
                        st.clock = max(st.clock, max(st.pending_injections))
                    pending_recv_slots[r].clear()
                    st.pending_injections.clear()
                    phase_idx[r] += 1
                    set_phase_requests(r)
                elif kind == "local":
                    _, nbytes = op
                    st.clock += machine.local_copy_cost(nbytes)
                else:  # pragma: no cover - defensive
                    raise ValueError(f"unknown op {op!r}")
                st.pc += 1
                progressed = True
            if st.pc >= len(prog) and not st.done:
                st.done = True
                remaining -= 1
                progressed = True
        if not progressed and remaining > 0:
            stuck = [r for r in range(p) if not states[r].done]
            raise RuntimeError(
                f"communication deadlock in simulated programs; stuck "
                f"ranks {stuck[:10]}"
            )

    finish = np.asarray([st.clock for st in states])
    return SimulationResult(
        finish_times=finish,
        makespan=float(finish.max(initial=0.0)),
        messages=messages,
        network_bytes=network_bytes,
    )


def simulate_schedule(
    schedule: Schedule,
    topo: CartTopology,
    machine: MachineModel,
    variant: str = "cart",
    *,
    rng: Optional[np.random.Generator] = None,
) -> SimulationResult:
    """Synthesize all ranks' programs from the schedule and simulate one
    collective execution."""
    return simulate_programs(
        programs_from_schedule(schedule, topo), machine, variant, rng=rng
    )
