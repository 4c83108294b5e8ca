"""Deterministic, seed-driven fault injection for the virtual MPI runtime.

The paper's central correctness claim (Proposition 3.1: locally computed
Cartesian schedules are deadlock-free with no setup communication) must
hold under *hostile* conditions, not just the happy path: arbitrary
message interleavings, slow or dead processes, transport misbehaviour.
This module provides the machinery to create those conditions on demand
and to certify the dichotomy

    **every run either completes byte-correct, or fails with a clean,
    typed error naming the injected fault — never a hang, never silent
    corruption.**

Three layers:

:class:`FaultPlan`
    pure, frozen data describing *what* to inject.  All probabilistic
    decisions are pure functions of ``(seed, fault kind, src, dst,
    per-stream sequence number)`` — independent of thread scheduling, so
    the same plan injects the same faults into the same messages on
    every run.

:class:`FaultInjector`
    the per-engine runtime: holds the plan, per-rank operation counters,
    and the thread-safe event log used for failure attribution.  The
    :class:`~repro.mpisim.mailbox.Mailbox` consults it on every
    delivery; the :class:`~repro.mpisim.comm.Communicator` consults it
    at every operation boundary (stall / kill injection points).

:func:`chaos_run` / :func:`chaos_sweep`
    the chaos harness: sample a random ``(topology, neighborhood,
    collective, fault plan)`` case from a seed, execute the real
    Cartesian collective on the threaded engine under the plan, verify
    the result byte-for-byte, and classify the outcome.  A
    :class:`ChaosViolation` means the dichotomy was broken.

Fault semantics
---------------
The injector only produces behaviours a legal (if adversarial) network
could: **delay** holds back a ``(source, communicator)`` message stream
— later messages of the same stream queue behind it, preserving MPI's
non-overtaking guarantee, while messages of *other* streams overtake
freely; **reorder** is a targeted cross-stream reordering (the held
stream is released as soon as a message from another stream is
delivered); **duplicate** re-delivers a copy of a message — the copy is
marked, and a receive that matches it fails with
:class:`~repro.mpisim.exceptions.DuplicateMessageError` (the transport
analogue of sequence-number duplicate detection); **stall** puts a rank
to sleep at an operation boundary; **kill** raises
:class:`~repro.mpisim.exceptions.RankKilledError` inside a rank, which
aborts the whole run through the engine's failure propagation.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.mpisim.engine import pool_info
from repro.mpisim.exceptions import FaultError, RankKilledError

#: Fault kinds understood by :meth:`FaultPlan.sample`.
FAULT_KINDS = ("none", "delay", "reorder", "duplicate", "stall", "kill", "mixed")

_KIND_IDS = {"delay": 1, "reorder": 2, "duplicate": 3, "stall": 4, "kill": 5}

_MASK = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """Deterministic 64-bit hash of a tuple of ints (splitmix-style).

    Python's salted ``hash`` is avoided so decisions are stable across
    processes and ``PYTHONHASHSEED`` settings.
    """
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (int(p) & _MASK)) & _MASK
        h = (h * 0xBF58476D1CE4E5B9) & _MASK
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
    return h


def _rng(*parts: int) -> random.Random:
    return random.Random(_mix(*parts))


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, recorded for attribution."""

    kind: str  # "delay" | "reorder" | "duplicate" | "stall" | "kill"
    rank: int  # affected rank (dst for delivery faults)
    detail: str = ""

    def describe(self) -> str:
        return f"{self.kind}@rank{self.rank}({self.detail})"


@dataclass(frozen=True)
class DeliveryFault:
    """The injector's verdict for one envelope delivery."""

    delay: Optional[float] = None  # hold the stream this many seconds
    reorder: bool = False  # release on next cross-stream delivery
    duplicate: bool = False  # also deliver a marked copy


_NO_FAULT = DeliveryFault()


@dataclass(frozen=True)
class FaultPlan:
    """Frozen description of the faults to inject into one run.

    All fields are plain data; two engines given equal plans make
    identical injection decisions.  Probabilities apply per delivered
    message; ``stall``/``kill`` fire once per listed rank when that
    rank's operation counter reaches the trigger.
    """

    seed: int = 0
    #: per-message probability of holding its stream back
    delay_prob: float = 0.0
    #: (min, max) seconds a delayed stream is held
    delay_window: tuple[float, float] = (0.002, 0.02)
    #: per-message probability of a targeted cross-stream reordering
    reorder_prob: float = 0.0
    #: fallback release time for a reorder hold (no other traffic)
    reorder_window: float = 0.05
    #: per-message probability of re-delivering a marked duplicate
    duplicate_prob: float = 0.0
    #: seconds after the original before the duplicate is delivered
    duplicate_lag: float = 0.005
    #: ranks that stall once, at their ``stall_after_op``-th operation
    stall_ranks: tuple[int, ...] = ()
    stall_after_op: int = 2
    stall_seconds: float = 0.05
    #: ranks killed outright at their ``kill_after_op``-th operation
    kill_ranks: tuple[int, ...] = ()
    kill_after_op: int = 2

    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return bool(
            self.delay_prob > 0
            or self.reorder_prob > 0
            or self.duplicate_prob > 0
            or self.stall_ranks
            or self.kill_ranks
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.delay_prob:
            parts.append(f"delay p={self.delay_prob:g}")
        if self.reorder_prob:
            parts.append(f"reorder p={self.reorder_prob:g}")
        if self.duplicate_prob:
            parts.append(f"duplicate p={self.duplicate_prob:g}")
        if self.stall_ranks:
            parts.append(
                f"stall ranks={self.stall_ranks} after op "
                f"{self.stall_after_op}"
            )
        if self.kill_ranks:
            parts.append(
                f"kill ranks={self.kill_ranks} after op {self.kill_after_op}"
            )
        if len(parts) == 1:
            parts.append("no faults")
        return ", ".join(parts)

    # ------------------------------------------------------------------
    # deterministic decisions
    # ------------------------------------------------------------------
    def delivery_fault(self, src: int, dst: int, seq: int) -> DeliveryFault:
        """Decide the faults for the ``seq``-th message of the
        ``src → dst`` stream.  Pure function of the plan and arguments."""
        delay = None
        reorder = False
        duplicate = False
        if self.delay_prob > 0:
            r = _rng(self.seed, _KIND_IDS["delay"], src, dst, seq)
            if r.random() < self.delay_prob:
                lo, hi = self.delay_window
                delay = lo + (hi - lo) * r.random()
        if self.reorder_prob > 0:
            r = _rng(self.seed, _KIND_IDS["reorder"], src, dst, seq)
            if r.random() < self.reorder_prob:
                reorder = True
                if delay is None:
                    delay = self.reorder_window
        if self.duplicate_prob > 0:
            r = _rng(self.seed, _KIND_IDS["duplicate"], src, dst, seq)
            if r.random() < self.duplicate_prob:
                duplicate = True
        if delay is None and not duplicate:
            return _NO_FAULT
        return DeliveryFault(delay=delay, reorder=reorder, duplicate=duplicate)

    # ------------------------------------------------------------------
    @classmethod
    def sample(
        cls,
        seed: int,
        nranks: int,
        kind: Optional[str] = None,
    ) -> "FaultPlan":
        """Sample a random plan of the given kind (or a random kind)."""
        r = _rng(seed, 0xFA17)
        if kind is None:
            kind = r.choice(FAULT_KINDS)
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        plan = cls(seed=seed)
        if kind == "none":
            return plan
        if kind in ("delay", "mixed"):
            plan = replace(
                plan,
                delay_prob=0.1 + 0.4 * r.random(),
                delay_window=(0.001, 0.002 + 0.02 * r.random()),
            )
        if kind in ("reorder", "mixed"):
            plan = replace(plan, reorder_prob=0.1 + 0.4 * r.random())
        if kind in ("duplicate", "mixed"):
            plan = replace(plan, duplicate_prob=0.05 + 0.25 * r.random())
        if kind in ("stall", "mixed"):
            plan = replace(
                plan,
                stall_ranks=(r.randrange(nranks),),
                stall_after_op=r.randrange(8),
                stall_seconds=0.01 + 0.08 * r.random(),
            )
        if kind == "kill":
            plan = replace(
                plan,
                kill_ranks=(r.randrange(nranks),),
                kill_after_op=r.randrange(12),
            )
        return plan


class FaultInjector:
    """Per-engine runtime state of a :class:`FaultPlan`.

    Thread-safe: mailboxes call :meth:`delivery_fault` from sender
    threads, communicators call :meth:`on_op` from their own rank
    threads, and everything funnels injected events into one log.
    """

    def __init__(self, plan: FaultPlan, nranks: int):
        self.plan = plan
        self.nranks = nranks
        self._lock = threading.Lock()
        self.events: list[FaultEvent] = []
        self._op_counts = [0] * nranks
        self._stream_seq: dict[tuple[int, int], int] = {}
        #: optional trace recorder (engine wires it per run)
        self.trace = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-run state (called by the engine at run start)."""
        with self._lock:
            self.events.clear()
            self._op_counts = [0] * self.nranks
            self._stream_seq.clear()

    def record(self, kind: str, rank: int, detail: str = "") -> FaultEvent:
        event = FaultEvent(kind=kind, rank=rank, detail=detail)
        with self._lock:
            self.events.append(event)
        if self.trace is not None:
            from repro.mpisim.trace import TraceEvent

            self.trace.record(
                rank, TraceEvent(kind="fault", note=event.describe())
            )
        return event

    def snapshot(self) -> list[FaultEvent]:
        with self._lock:
            return list(self.events)

    # ------------------------------------------------------------------
    # mailbox hook
    # ------------------------------------------------------------------
    def delivery_fault(self, src: int, dst: int) -> DeliveryFault:
        """Verdict for the next message of the ``src → dst`` stream.

        The per-stream sequence number is deterministic because each
        sender emits its messages to a given destination in program
        order (eager sends), so decisions are independent of how the
        thread scheduler interleaves *different* senders.
        """
        with self._lock:
            seq = self._stream_seq.get((src, dst), 0)
            self._stream_seq[(src, dst)] = seq + 1
        fault = self.plan.delivery_fault(src, dst, seq)
        if fault.delay is not None:
            kind = "reorder" if fault.reorder else "delay"
            self.record(
                kind, dst, f"msg {src}->{dst}#{seq} held {fault.delay:.3f}s"
            )
        if fault.duplicate:
            self.record("duplicate", dst, f"msg {src}->{dst}#{seq}")
        return fault

    # ------------------------------------------------------------------
    # communicator hook
    # ------------------------------------------------------------------
    def on_op(self, rank: int, op: str) -> None:
        """Called at every communication-operation boundary of ``rank``.

        Raises :class:`RankKilledError` when the plan kills this rank at
        this operation; sleeps when the plan stalls it.
        """
        with self._lock:
            count = self._op_counts[rank]
            self._op_counts[rank] = count + 1
        plan = self.plan
        if rank in plan.kill_ranks and count == plan.kill_after_op:
            event = self.record(
                "kill", rank, f"at op {count} ({op})"
            )
            raise RankKilledError(
                f"rank {rank} killed by fault plan at operation {count} "
                f"({op})",
                rank=rank,
                fault=event.describe(),
            )
        if rank in plan.stall_ranks and count == plan.stall_after_op:
            self.record(
                "stall", rank, f"{plan.stall_seconds:.3f}s at op {count} ({op})"
            )
            import time

            time.sleep(plan.stall_seconds)


# ======================================================================
# chaos harness
# ======================================================================

#: topology shapes sampled by the chaos harness (≤ 8 rank threads each)
_CHAOS_DIMS: tuple[tuple[int, ...], ...] = (
    (2,),
    (3,),
    (4,),
    (6,),
    (2, 2),
    (2, 3),
    (3, 2),
    (2, 2, 2),
)

_CHAOS_COLLECTIVES = (
    ("alltoall", "trivial"),
    ("alltoall", "direct"),
    ("alltoall", "combining"),
    ("allgather", "trivial"),
    ("allgather", "direct"),
    ("allgather", "combining"),
)


class ChaosViolation(AssertionError):
    """The complete-or-fail-cleanly dichotomy was broken: a run hung, was
    silently corrupted, or failed without fault attribution."""

    def __init__(self, message: str, case: "ChaosCase"):
        super().__init__(message)
        self.case = case


@dataclass
class ChaosCase:
    """One sampled (collective, fault plan) case and its outcome."""

    seed: int
    dims: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]
    op: str  # "alltoall" | "allgather"
    algorithm: str  # "trivial" | "direct" | "combining"
    m_bytes: int
    plan: FaultPlan
    outcome: str = "pending"  # "ok" | "clean-failure"
    error: Optional[BaseException] = None
    events: list[FaultEvent] = field(default_factory=list)

    def describe(self) -> str:
        base = (
            f"seed={self.seed} {self.op}/{self.algorithm} dims={self.dims} "
            f"t={len(self.offsets)} m={self.m_bytes}B [{self.plan.describe()}]"
        )
        if self.outcome == "clean-failure":
            return f"{base} -> clean-failure: {type(self.error).__name__}"
        return f"{base} -> {self.outcome}"


def sample_case(seed: int) -> ChaosCase:
    """Deterministically sample one chaos case from a seed."""
    r = _rng(seed, 0xC8A05)
    dims = r.choice(_CHAOS_DIMS)
    d = len(dims)
    t = r.randint(1, 5)
    offsets = tuple(
        tuple(r.randint(-1, 1) for _ in range(d)) for _ in range(t)
    )
    op, algorithm = r.choice(_CHAOS_COLLECTIVES)
    m_bytes = r.choice((1, 3, 4, 8, 16))
    nranks = 1
    for s in dims:
        nranks *= s
    plan = FaultPlan.sample(seed, nranks)
    return ChaosCase(
        seed=seed,
        dims=dims,
        offsets=offsets,
        op=op,
        algorithm=algorithm,
        m_bytes=m_bytes,
        plan=plan,
    )


def _attributable(error: BaseException, events: Sequence[FaultEvent]) -> bool:
    """True when ``error`` is cleanly attributable to an injected fault."""
    from repro.mpisim.exceptions import (
        DeadlockError,
        MpiSimError,
        RankFailedError,
    )

    if isinstance(error, FaultError):
        return True
    if isinstance(error, RankFailedError):
        return isinstance(error.cause, FaultError)
    if isinstance(error, DeadlockError):
        # a deadlock is clean only if a kill/stall explains missing peers
        return any(e.kind in ("kill", "stall") for e in events)
    if isinstance(error, MpiSimError):
        # e.g. TruncationError from a duplicate with a different size
        return any(e.kind == "duplicate" for e in events)
    return False


def chaos_run(
    case_or_seed: Union[ChaosCase, int], *, timeout: float = 30.0
) -> ChaosCase:
    """Execute one chaos case and certify the dichotomy.

    Runs the case's Cartesian collective on a threaded engine under its
    fault plan.  On completion, every rank's receive buffer is checked
    byte-for-byte against the brute-force definition (the same check
    :mod:`repro.core.verify` certifies schedules with).  On failure, the
    error must be typed and attributable to an injected fault.  Raises
    :class:`ChaosViolation` otherwise; returns the classified case.
    """
    # imports deferred: repro.core sits on top of repro.mpisim
    import numpy as np

    from repro.core.neighborhood import Neighborhood
    from repro.core.topology import CartTopology
    from repro.core.verify import (
        alltoall_sentinel_buffers,
        allgather_sentinel_buffers,
        check_alltoall_buffers,
        check_allgather_buffers,
    )
    from repro.mpisim.engine import Engine

    case = (
        case_or_seed
        if isinstance(case_or_seed, ChaosCase)
        else sample_case(int(case_or_seed))
    )
    topo = CartTopology(case.dims, periods=[True] * len(case.dims))
    nbh = Neighborhood(np.asarray(case.offsets, dtype=np.int64))
    block_sizes = [case.m_bytes] * nbh.t

    if case.op == "alltoall":
        bufs = alltoall_sentinel_buffers(topo, nbh, block_sizes)
    else:
        bufs = allgather_sentinel_buffers(topo, nbh, case.m_bytes)

    engine = Engine(topo.size, timeout=timeout, faults=case.plan)

    def worker(cart, rank_bufs):
        if case.op == "alltoall":
            cart.alltoall(
                rank_bufs["send"], rank_bufs["recv"], algorithm=case.algorithm
            )
        else:
            cart.allgather(
                rank_bufs["send"], rank_bufs["recv"], algorithm=case.algorithm
            )

    def bootstrap(comm):
        from repro.core.cartcomm import cart_neighborhood_create

        cart = cart_neighborhood_create(
            comm, case.dims, [True] * len(case.dims), nbh, validate=False
        )
        worker(cart, bufs[comm.rank])

    error: Optional[BaseException] = None
    try:
        engine.run(bootstrap)
    except Exception as exc:  # noqa: BLE001  # lint: allow(L004) - chaos harness classifies every failure mode downstream
        error = exc
    case.events = engine.fault_events()

    if error is None:
        # completed: must be byte-correct
        try:
            if case.op == "alltoall":
                check_alltoall_buffers(topo, nbh, bufs, block_sizes)
            else:
                check_allgather_buffers(topo, nbh, bufs, case.m_bytes)
        except Exception as exc:
            case.outcome = "corrupt"
            case.error = exc
            raise ChaosViolation(
                f"silent corruption: collective completed but verification "
                f"failed: {exc}\ncase: {case.describe()}\n"
                f"injected: {[e.describe() for e in case.events]}",
                case,
            ) from exc
        case.outcome = "ok"
        return case

    case.error = error
    if _attributable(error, case.events):
        case.outcome = "clean-failure"
        return case
    case.outcome = "hang" if "Deadlock" in type(error).__name__ else "dirty-failure"
    raise ChaosViolation(
        f"failure not attributable to an injected fault: "
        f"{type(error).__name__}: {error}\ncase: {case.describe()}\n"
        f"injected: {[e.describe() for e in case.events]}",
        case,
    ) from error


def chaos_sweep(
    n_cases: int,
    base_seed: int = 0,
    *,
    kind: Optional[str] = None,
    timeout: float = 30.0,
    verbose: bool = False,
) -> list[ChaosCase]:
    """Run ``n_cases`` sampled chaos cases; raises on the first
    :class:`ChaosViolation`.  With ``kind``, every sampled plan is forced
    to that fault kind (CI's fault-matrix axis)."""
    results = []
    for i in range(n_cases):
        seed = base_seed + i
        case = sample_case(seed)
        if kind is not None:
            nranks = 1
            for s in case.dims:
                nranks *= s
            case.plan = FaultPlan.sample(seed, nranks, kind=kind)
        case = chaos_run(case, timeout=timeout)
        results.append(case)
        if verbose:
            print(case.describe())
    return results


def _main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.mpisim.faults",
        description="Chaos harness: run Cartesian collectives under "
        "sampled fault plans and certify the complete-or-fail-cleanly "
        "dichotomy.",
    )
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kind", choices=FAULT_KINDS, default=None,
        help="force every plan to one fault kind (default: sample kinds)",
    )
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    results = chaos_sweep(
        args.cases,
        args.seed,
        kind=args.kind,
        timeout=args.timeout,
        verbose=args.verbose,
    )
    ok = sum(1 for c in results if c.outcome == "ok")
    clean = sum(1 for c in results if c.outcome == "clean-failure")
    workers = pool_info(wait=1.0)  # 1 s for the last case's ranks to park
    print(
        f"chaos: {len(results)} cases, {ok} completed byte-correct, "
        f"{clean} failed cleanly, 0 hangs, 0 corruptions; {workers}"
    )
    return 1 if workers.busy else 0  # a worker still busy is a leaked rank


if __name__ == "__main__":  # pragma: no cover - CLI entry
    # Re-enter through the canonical import so the classes this module
    # defines are identical to the ones the engine checks against
    # (running under ``python -m`` makes this file ``__main__``).
    from repro.mpisim import faults as _canonical

    raise SystemExit(_canonical._main())
