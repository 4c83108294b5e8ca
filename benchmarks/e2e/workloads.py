"""The seven workloads.  One *round* of a workload runs in a fresh
subprocess: timed set-up, three untimed warm-up ops, then timed ops in a
closed loop until the round's time budget is used.

The program is reached only through the entry points ROADMAP item 3
keeps (``repro.apps``, ``run_cartesian``, ``CartComm`` collectives and
``*_init``, ``get_backend(...).execute_all``, ``build_*_schedule``, the
cache/pool/plan counters, ``repro.analyze.set_verify_on_build``,
``python -m repro.serve`` and ``ScheduleClient``).
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Optional

import numpy as np

from benchmarks.e2e import OUT_DIR, SRC, cases, oracles
from benchmarks.e2e.spans import Tracer

WARMUPS = 3
#: a single op running longer than this is a hang: failed, round over
OP_TIMEOUT_S = 60.0
_perf = time.perf_counter_ns
_cpu = time.process_time_ns

#: The speed probe.  The sizing machine is a shared 2-core VM whose
#: delivered CPU speed drifts by tens of percent over tens of seconds, so
#: every round interleaves this fixed kernel (bytecode, NumPy arithmetic,
#: a memory copy) with its ops and reports how long it took; the parent
#: divides the round's times by ``median / SPEED_PROBE_NOMINAL_NS``.
SPEED_PROBE_NOMINAL_NS = 500_000
_PROBE_A = np.arange(1 << 16, dtype=np.float64)
_PROBE_B = np.empty_like(_PROBE_A)
_PROBE_SRC = np.zeros(1 << 18, dtype=np.uint8)
_PROBE_DST = np.empty_like(_PROBE_SRC)


def speed_probe() -> int:
    """Nanoseconds the fixed kernel took just now."""
    t0 = _perf()
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(4):
        np.multiply(_PROBE_A, 1.0001, out=_PROBE_B)
        np.add(_PROBE_B, 1.0, out=_PROBE_B)
    np.copyto(_PROBE_DST, _PROBE_SRC)
    return _perf() - t0


def cpu_ticks() -> tuple[int, int]:
    """``(stolen, total)`` clock ticks so far on the CPUs this process may
    run on, from ``/proc/stat``.  Stolen ticks are those the hypervisor
    gave to another guest while this one had work to do: wall-clock time
    the program never had."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    labels = {f"cpu{n}" for n in cpus}
    stolen = total = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] in labels:
                    ticks = [int(x) for x in fields[1:9]]  # user .. steal
                    stolen += ticks[7]
                    total += sum(ticks)
    except (OSError, ValueError, IndexError):
        return 0, 0
    return stolen, total


@dataclass
class RoundContext:
    workload: str
    seed: int
    round_index: int
    #: timed budget of this round
    seconds: float
    #: ``time.time()`` in the parent just before it spawned this process
    spawned_at: float
    tracer: Optional[Tracer] = None

    def span(self, name: str) -> ContextManager[None]:
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.round_index, stream])


@dataclass
class RoundResult:
    setup_s: float = 0.0
    lat_ns: list = field(default_factory=list)
    #: wall and CPU time of the timed window (checks excluded)
    window_ns: int = 0
    cpu_ns: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: peak RSS at ``Workload.rss_ops``; 0 = take it at the end of the round
    rss_kb: int = 0
    #: speed-probe samples taken between the timed ops
    probe_ns: list = field(default_factory=list)
    #: share of the round's wall-clock time the hypervisor stole (cpu_ticks)
    steal: float = 0.0
    #: program counters over the timed window (see program_counters)
    counters: dict = field(default_factory=dict)
    #: workload-specific exact counts (OpStats bytes, daemon stats, …)
    extra: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    case_sha: Optional[str] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def to_json(self) -> dict:
        return dict(self.__dict__)


def program_counters() -> dict:
    """The program's own counters: schedule cache, plan cache, pool."""
    from repro.core import plan, schedule_cache

    c = schedule_cache.cache_info()
    p = plan.plan_cache_info()
    s = plan.GLOBAL_POOL.stats()
    return {
        "cache_hits": c.hits, "cache_misses": c.misses, "cache_builds": c.builds,
        "cache_build_s": c.build_seconds,
        "plan_hits": p.hits, "plan_misses": p.misses, "plan_compile_s": p.compile_seconds,
        "pool_acquires": s.acquires, "pool_reuses": s.reuses,
        "pool_outstanding": s.outstanding_bytes, "pool_high_water": s.high_water_bytes,
    }


def counter_delta(start: dict, end: dict) -> dict:
    gauges = ("pool_outstanding", "pool_high_water")
    return {k: end[k] if k in gauges else end[k] - start[k] for k in end}


def _stats_bytes(stats: Any) -> tuple[int, int, int]:
    """(packed, copied, collectives) of one merged OpStats."""
    return (
        sum(stats.bytes_packed.values()), sum(stats.bytes_copied.values()),
        stats.total_calls,
    )


class Workload:
    """One op per :meth:`op` call from the main thread (the common
    shape; ``halo3d_large`` and ``serve_mix`` override run_round)."""

    name = ""
    why = ""
    #: after warm-up every schedule lookup must hit and nothing is certified
    warm_cache = True
    #: replay the workload's own schedule on every backend (traced run)
    replay_probes = True
    #: the loop may stop only where ``i % stride == 0``
    stride = 1
    #: check every op; otherwise the first and a refreshed last op
    check_every = True
    #: the backend the workload's collectives execute on
    backend_name = ""
    #: ``sys.setswitchinterval`` of the round, where the default 5 ms makes
    #: the workload bimodal (see Halo3dLarge)
    switch_interval: Optional[float] = None
    #: take peak RSS when this many timed ops are done instead of at the
    #: end of the round: where memory grows with every op, the end of a
    #: time-budgeted round is a different amount of work on every run
    rss_ops: Optional[int] = None

    def __init__(self, ctx: RoundContext) -> None:
        self.ctx = ctx
        #: exact OpStats totals over every op run (warm-ups included)
        self.stat_ops = 0
        self.stat_packed = 0
        self.stat_copied = 0
        self.stat_collectives = 0

    # -- to be provided --------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Any:
        """Run op ``i`` (``-WARMUPS..-1`` are the warm-ups)."""
        raise NotImplementedError

    def check(self, i: int, result: Any) -> None:
        raise NotImplementedError

    def refresh(self) -> None:
        """New inputs before the checked last op (check_every=False)."""

    def max_ops(self) -> Optional[int]:
        return None

    def trivial_op(self) -> bool:
        """Run the op once with ``algorithm="trivial"`` (replay probes);
        False where the collective has no trivial algorithm."""
        return False

    def trivial_capture(self, tracer: Tracer) -> Any:
        """The trivial counterpart of the workload's schedule, captured
        from one traced trivial op."""
        if not self.trivial_op():
            return None
        found = [c for kind, c in tracer.captured.items() if kind.startswith("trivial")]
        return found[-1] if found else None

    def note_stats(self, stats: Any) -> None:
        packed, copied, calls = _stats_bytes(stats)
        self.stat_ops += 1
        self.stat_packed += packed
        self.stat_copied += copied
        self.stat_collectives += calls

    # -- the round ---------------------------------------------------------
    def _timed(self, i: int, result: RoundResult, check: bool) -> bool:
        """One timed op; returns False when the round must stop."""
        result.attempted += 1
        result.probe_ns.append(speed_probe())
        try:
            with oracles.op_timeout(OP_TIMEOUT_S):
                c0, t0 = _cpu(), _perf()
                with self.ctx.span("op"):
                    out = self.op(i)
                t1, c1 = _perf(), _cpu()
        except oracles.OpTimeout as exc:
            result.fail(f"op {i}: {exc}")
            return False
        except Exception as exc:  # an op that raises is a failed op
            result.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return True
        result.lat_ns.append(t1 - t0)
        result.window_ns += t1 - t0
        result.cpu_ns += c1 - c0
        if check:
            try:
                self.check(i, out)
            except oracles.OracleMismatch as exc:
                result.fail(f"op {i}: {exc}")
        return True

    def run_round(self) -> RoundResult:
        ctx = self.ctx
        result = RoundResult()
        self.setup()
        result.setup_s = time.time() - ctx.spawned_at
        for k in range(WARMUPS):
            self.check(k - WARMUPS, self.op(k - WARMUPS))
        start = program_counters()
        deadline = _perf() + int(ctx.seconds * 1e9)
        limit = self.max_ops()
        i = 0
        while True:
            if i % self.stride == 0 and (
                _perf() >= deadline or (limit is not None and i >= limit)
            ):
                break
            if not self._timed(i, result, self.check_every or i == 0):
                break
            i += 1
            if i == self.rss_ops:
                result.rss_kb = peak_rss_kb()
        if not self.check_every:
            self.refresh()
            self._timed(i, result, True)
        result.counters = counter_delta(start, program_counters())
        result.extra.update(self.exact_counts())
        return result

    def exact_counts(self) -> dict:
        n = max(self.stat_ops, 1)
        return {
            "packed_bytes_per_op": self.stat_packed / n,
            "copied_bytes_per_op": self.stat_copied / n,
            "collectives_per_op": self.stat_collectives / n,
        }


# ---------------------------------------------------------------------------
# the three applications
# ---------------------------------------------------------------------------


class _AppWorkload(Workload):
    def op(self, i: int) -> Any:
        return self.app.run(backend=self.backend_name, algorithm="combining")

    def trivial_op(self) -> bool:
        self.app.run(backend=self.backend_name, algorithm="trivial")
        return True

    def check(self, i: int, run: Any) -> None:
        self.note_stats(run.stats)
        oracles.check_equal(run.output, self.reference(), self.name)


class LifeSmall(_AppWorkload):
    name = "life_small"
    why = ("An application iteration at small m (halo blocks <= 16 B): cartcomm dispatch, "
           "the funnel and mpisim do the work, kernel and byte movement almost none.")
    backend_name = "batched"

    def setup(self) -> None:
        from repro.apps import GameOfLife

        self.board = (self.ctx.rng(0).random((64, 64)) < 0.35).astype(np.uint8)
        self.app = GameOfLife(self.board, (4, 4), 20)
        self._reference: Optional[np.ndarray] = None

    def reference(self) -> np.ndarray:
        if self._reference is None:
            self._reference = oracles.life_reference(self.board, 20)
        return self._reference


class CannonW(_AppWorkload):
    name = "cannon_w"
    why = ("The default threaded backend: mpisim mailboxes and per-rank plans with index "
           "(gather/scatter) pack kernels on a per-row fragmented alltoallw.")
    backend_name = "threaded"

    def setup(self) -> None:
        from repro.apps import CannonMatmul

        seed = int(self.ctx.rng(0).integers(1 << 31))
        self.app = CannonMatmul(96, 96, 96, 4, pad=3, seed=seed)
        self._reference: Optional[np.ndarray] = None

    def reference(self) -> np.ndarray:
        if self._reference is None:
            self._reference = self.app.A @ self.app.B
        return self._reference


class BcastTree(_AppWorkload):
    name = "bcast_tree"
    why = ("The only allgather-tree traffic (t = p = 16, Algorithm 2), on the lockstep "
           "per-rank interpreter that ROADMAP item 3 folds into the batched IR.")
    backend_name = "lockstep"

    def setup(self) -> None:
        from repro.apps import AllToAllBroadcast

        seed = int(self.ctx.rng(0).integers(1 << 31))
        self.app = AllToAllBroadcast((4, 4), block=64, iterations=10, seed=seed)

    def check(self, i: int, run: Any) -> None:
        from repro.apps import AppCertificationError

        self.note_stats(run.stats)
        try:
            self.app.check_against_oracle(run)
        except AppCertificationError as exc:
            raise oracles.OracleMismatch(str(exc)) from exc


# ---------------------------------------------------------------------------
# halo3d_large: a persistent collective timed by rank 0 inside run_cartesian
# ---------------------------------------------------------------------------


class Halo3dLarge(Workload):
    name = "halo3d_large"
    why = ("Copy-bound persistent alltoall (Moore t=26 on a (3,3,3) torus, m = 16 KiB, "
           "11 MiB per side): funnel copies, pooled matrices and wire copies, no dispatch.")
    check_every = False
    backend_name = "batched"
    #: One op is 27 rank threads that each hold the GIL for milliseconds at a
    #: time (pickling 1.2 MiB, copying 11 MiB matrices).  With CPython's
    #: default switch interval of 5 ms a waiting thread forces the holder
    #: off the GIL mid-copy, and whether that happens is a threshold: rounds
    #: settle into one of two modes 1.4x apart (probe-normalised 0.067 or
    #: 0.092 of the probe time), and a host running 20 % slower tips most
    #: rounds into the slow one, so the op time swings 24 -> 45 ms.  With
    #: forced hand-overs out of the way (threads switch when they block) the
    #: op is unimodal and follows the speed probe within 6 %.
    switch_interval = 0.2
    DIMS = (3, 3, 3)
    M = 16 * 1024
    #: ranks agree on continuing once per batch (outside the timed ops)
    BATCH = 8

    def _pattern(self, base: np.ndarray, rank: int, epoch: int) -> np.ndarray:
        return ((base + (rank * 7 + epoch * 13 + self.ctx.seed)) % 251).astype(np.uint8)

    def trivial_op(self) -> bool:
        from repro import moore_neighborhood, run_cartesian

        def once(cart: Any) -> None:
            n = cart.neighbor_count() * self.M
            cart.alltoall(np.zeros(n, np.uint8), np.zeros(n, np.uint8), algorithm="trivial")

        run_cartesian(self.DIMS, moore_neighborhood(3, 1, include_self=False), once,
                      info={"backend": "batched"}, timeout=OP_TIMEOUT_S)
        return True

    def run_round(self) -> RoundResult:
        from repro import moore_neighborhood, run_cartesian

        ctx = self.ctx
        result = RoundResult()
        nbh = moore_neighborhood(3, 1, include_self=False)
        t, m = nbh.t, self.M
        src = oracles.source_ranks(self.DIMS, nbh.offsets)
        base = (np.arange(t * m, dtype=np.int64) * 31) % 251
        shared: dict[str, Any] = {}

        def verify(rank: int, recv: np.ndarray, epoch: int) -> bool:
            return all(
                np.array_equal(
                    recv[i * m:(i + 1) * m],
                    self._pattern(base[i * m:(i + 1) * m], int(src[rank, i]), epoch),
                )
                for i in range(t)
            )

        def worker(cart: Any) -> tuple[bool, bool, Any]:
            rank = cart.rank
            send = self._pattern(base, rank, 0)
            recv = np.zeros(t * m, dtype=np.uint8)
            handle = cart.alltoall_init(send, recv, algorithm="combining")

            def timed_execute() -> None:
                # every op starts with all ranks aligned (the way collectives
                # are timed in MPI benchmarks and in the paper's Appendix A);
                # without it the stragglers of op i-1 leak into op i
                cart.comm.barrier()
                if rank != 0:
                    handle.execute()
                    return
                result.attempted += 1
                c0, t0 = _cpu(), _perf()
                with ctx.span("op"):
                    handle.execute()
                t1, c1 = _perf(), _cpu()
                result.lat_ns.append(t1 - t0)
                result.window_ns += t1 - t0
                result.cpu_ns += c1 - c0

            try:
                if rank == 0:
                    result.setup_s = time.time() - ctx.spawned_at
                for _ in range(WARMUPS):
                    handle.execute()
                recv[:] = 0
                if rank == 0:
                    shared["start"] = program_counters()
                    shared["deadline"] = _perf() + int(ctx.seconds * 1e9)
                timed_execute()
                first_ok = verify(rank, recv, 0)
                go_on = True
                while go_on:
                    for _ in range(self.BATCH):
                        timed_execute()
                    # between batches, outside every timed op: once all
                    # ranks are through the barrier the others block in the
                    # bcast, so rank 0 probes the machine's speed in quiet
                    cart.comm.barrier()
                    if rank == 0:
                        result.probe_ns.extend(speed_probe() for _ in range(self.BATCH))
                    go_on = cart.comm.bcast(
                        _perf() < shared["deadline"] if rank == 0 else None, root=0
                    )
                send[:] = self._pattern(base, rank, 1)
                recv[:] = 0
                timed_execute()
                last_ok = verify(rank, recv, 1)
                if rank == 0:
                    shared["end"] = program_counters()
            finally:
                handle.free()
            return first_ok, last_ok, cart.stats

        outcomes = run_cartesian(
            self.DIMS, nbh, worker,
            info={"backend": "batched", "collect_stats": True},
            timeout=ctx.seconds + 4 * OP_TIMEOUT_S,
        )
        for which, index in (("first", 0), ("last", 1)):
            if not all(o[index] for o in outcomes):
                result.fail(f"{which} op: alltoall output differs from the definition")
        # the window's counters, but the pool gauge after every handle is freed
        shared["end"]["pool_outstanding"] = program_counters()["pool_outstanding"]
        result.counters = counter_delta(shared["start"], shared["end"])
        from repro.apps import merge_stats

        packed, copied, calls = _stats_bytes(merge_stats(o[2] for o in outcomes))
        executions = max(calls // len(outcomes), 1)
        result.extra.update(
            packed_bytes_per_op=packed / executions,
            copied_bytes_per_op=copied / executions,
            collectives_per_op=calls / executions,
        )
        return result


# ---------------------------------------------------------------------------
# allreduce_512: execute_all directly, no CartComm, no threads
# ---------------------------------------------------------------------------


class Allreduce512(Workload):
    name = "allreduce_512"
    why = ("Fused combine kernels at paper-like p = 512 through execute_all alone: the plan "
           "layer doing arithmetic, bypassing everything life_small stresses.")
    warm_cache = False  # no cache in play at all
    check_every = False
    backend_name = "batched"
    DIMS = (8, 8, 8)

    def setup(self) -> None:
        from repro import CartTopology, get_backend, moore_neighborhood
        from repro.core.reduce_schedule import build_allreduce_schedule

        self.nbh = moore_neighborhood(3, 1, include_self=False)
        self.topo = CartTopology(self.DIMS, (True, True, True))
        self.schedule = build_allreduce_schedule(
            self.nbh, m_bytes=256, dtype=np.int64, op="sum"
        )
        self.backend = get_backend("batched")
        p, t = self.topo.size, self.nbh.t
        self.send = self.ctx.rng(0).integers(-1000, 1000, (p, 32)).astype(np.int64)
        self.recv = np.zeros((p, t, 32), dtype=np.int64)
        self.buffers = [
            {"send": self.send[r], "recv": self.recv[r].reshape(-1)} for r in range(p)
        ]

    def op(self, i: int) -> Any:
        self.backend.execute_all(self.topo, self.schedule, self.buffers)

    def check(self, i: int, result: Any) -> None:
        oracles.check_allreduce(self.DIMS, self.nbh.offsets, self.send, self.recv)
        self.recv[:] = 0

    def refresh(self) -> None:
        self.send[:] = self.ctx.rng(1).integers(-1000, 1000, self.send.shape)
        self.recv[:] = 0

    def exact_counts(self) -> dict:
        # what CartComm would have put into OpStats: per-process wire and
        # local-copy bytes of the schedule, for each of the p processes
        p = self.topo.size
        return {
            "packed_bytes_per_op": float(self.schedule.volume_bytes * p),
            "copied_bytes_per_op": float(self.schedule.local_copy_bytes * p),
            "collectives_per_op": 1.0,
        }


# ---------------------------------------------------------------------------
# cold_start: every op is a first collective on a never-seen fingerprint
# ---------------------------------------------------------------------------


class ColdStart(Workload):
    name = "cold_start"
    why = ("Set-up is the work: cache miss, build, certify, compile, first execution on "
           "distinct fingerprints (80 % Moore 2-D, 20 % Moore 3-D); repro.analyze dominates.")
    warm_cache = False
    replay_probes = False
    stride = cases.COLD_STRETCH
    rss_ops = cases.COLD_BLOCK
    SHAPES = {2: (4, 4), 3: (3, 3, 3)}

    def setup(self) -> None:
        from repro import moore_neighborhood
        from repro.analyze import set_verify_on_build

        set_verify_on_build(True)
        self.warm_cases, self.timed_cases = cases.cold_cases(
            self.ctx.seed, self.ctx.round_index
        )
        self.nbhs = {d: moore_neighborhood(d, 1, include_self=False) for d in (2, 3)}

    def max_ops(self) -> Optional[int]:
        return len(self.timed_cases)

    def _case(self, i: int) -> dict:
        return self.warm_cases[i + WARMUPS] if i < 0 else self.timed_cases[i]

    def op(self, i: int) -> Any:
        from repro import run_cartesian

        case = self._case(i)
        kind, algorithm, m = case["kind"], case["algorithm"], case["m"]
        salt = self.ctx.seed + max(i, 0)

        def first_collective(cart: Any) -> tuple[np.ndarray, np.ndarray, Any]:
            t, rank = cart.neighbor_count(), cart.rank
            if kind == "reduce_neighbors":
                send = (np.arange(m // 8, dtype=np.int64) * 3 + rank * 11 + salt) % 1009
                recv = np.zeros_like(send)
                cart.reduce_neighbors(send, recv, op="sum", algorithm=algorithm)
                return send, recv, cart.stats
            blocks = t if kind == "alltoall" else 1
            send = ((np.arange(blocks * m) * 5 + rank * 17 + salt) % 251).astype(np.uint8)
            recv = np.zeros(t * m, dtype=np.uint8)
            getattr(cart, kind)(send, recv, algorithm=algorithm)
            return send, recv, cart.stats

        outcomes = run_cartesian(
            self.SHAPES[case["d"]], self.nbhs[case["d"]], first_collective,
            info={"backend": "lockstep", "collect_stats": True}, timeout=OP_TIMEOUT_S,
        )
        return case, outcomes

    def check(self, i: int, result: Any) -> None:
        from repro.apps import merge_stats

        case, outcomes = result
        self.note_stats(merge_stats(o[2] for o in outcomes))
        dims, nbh = self.SHAPES[case["d"]], self.nbhs[case["d"]]
        p, t, m = len(outcomes), nbh.t, case["m"]
        send = np.stack([o[0] for o in outcomes])
        recv = np.stack([o[1] for o in outcomes])
        if case["kind"] == "reduce_neighbors":
            oracles.check_reduce(dims, nbh.offsets, send, recv)
        elif case["kind"] == "alltoall":
            oracles.check_alltoall(
                dims, nbh.offsets, send.reshape(p, t, m), recv.reshape(p, t, m)
            )
        else:
            oracles.check_allgather(dims, nbh.offsets, send, recv.reshape(p, t, m))

    def run_round(self) -> RoundResult:
        result = super().run_round()
        result.case_sha = cases.case_sha(self.warm_cases + self.timed_cases)
        return result


# ---------------------------------------------------------------------------
# serve_mix: two blocking clients against the schedule daemon
# ---------------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class _Daemon:
    """``python -m repro.serve --socket ... --shm-plans`` as a child
    process (end-to-end rounds), or a ``ScheduleServer`` on its own loop
    thread in this process (the traced round, so its public stages can
    be wrapped)."""

    def __init__(self, sock: str, in_process: bool) -> None:
        self.sock = sock
        self.proc: Optional[subprocess.Popen] = None
        self.segment: Optional[str] = None
        if os.path.exists(sock):
            os.unlink(sock)
        if in_process:
            from repro.serve import ScheduleServer

            self.loop = asyncio.new_event_loop()
            self.thread = threading.Thread(
                target=self.loop.run_forever, name="e2e-server-loop", daemon=True
            )
            self.thread.start()
            self.server = ScheduleServer(path=sock, shm_plans=True)
            asyncio.run_coroutine_threadsafe(self.server.start(), self.loop).result(30)
            self.segment = self.server.plan_segment
            return
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", sock, "--shm-plans"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        assert self.proc.stdout is not None
        listening = self.proc.stdout.readline()
        segment_line = self.proc.stdout.readline()
        if "listening" not in listening or ":" not in segment_line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {listening!r} {segment_line!r}")
        self.segment = segment_line.rsplit(":", 1)[1].strip()

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid) if self.proc is not None else 0.0

    def hwm_kb(self) -> int:
        return _proc_hwm_kb(self.proc.pid) if self.proc is not None else 0

    def stop(self, client: Any, result: RoundResult) -> None:
        """Shut the daemon down (the ``shutdown`` op; ``server.stop()`` when
        in-process).  Afterwards the daemon, its socket and its shm segment
        must all be gone; anything left is a violation (and is cleaned up
        regardless)."""
        if self.proc is not None:
            try:
                client.shutdown()
                self.proc.wait(timeout=15)
            except Exception as exc:  # died early or hangs: report, then kill
                result.violations.append(
                    f"daemon did not shut down: {type(exc).__name__}: {exc}"
                )
                self.proc.kill()
                self.proc.wait()
            assert self.proc.stdout is not None
            self.proc.stdout.close()
        else:
            try:
                asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(15)
            except Exception as exc:
                result.violations.append(f"server.stop(): {type(exc).__name__}: {exc}")
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(15)
            if self.thread.is_alive():
                result.violations.append("server loop outlived its shutdown")
            else:
                self.loop.close()
        if os.path.exists(self.sock):
            os.unlink(self.sock)  # asyncio (3.11) leaves the socket file behind

    def check_gone(self, result: RoundResult) -> None:
        """Called last in the round: the daemon's shm segment must be
        gone.  (The daemon's resource tracker may take a moment after the
        process exits, hence one grace period.)"""
        path = f"/dev/shm/{self.segment}"
        if self.segment and os.path.exists(path):
            time.sleep(1.0)
        if self.segment and os.path.exists(path):
            result.violations.append(f"shm segment {self.segment} outlived the daemon")
            os.unlink(path)


class ServeMix(Workload):
    name = "serve_mix"
    why = ("A served request, client send to mapped plan: p50 is the ready-hit path, p90 the "
           "median cold path (20 % first occurrences, Zipf(1.1) repeats, 25 % plan ops).")
    warm_cache = False
    replay_probes = False
    CLIENTS = 2
    CHECK_SHARE = 0.05
    #: one speed probe per this many requests, on the requesting client's
    #: thread (about 1 % of the window).  The traced round, whose server
    #: shares this process and its GIL, probes before and after the window
    #: instead.
    PROBE_EVERY = 16

    def _request(self, fid: int, op: str) -> Any:
        from repro.serve import ScheduleRequest

        fp = self.fingerprints[fid]
        m, t = fp["m"], self.nbh.t
        send_blocks = t if fp["kind"] == "alltoall" else 1
        fields: dict[str, Any] = {}
        if op == "plan":
            sizes = {"send": send_blocks * m, "recv": t * m}
            if self.temp_nbytes[fid]:
                sizes["temp"] = self.temp_nbytes[fid]
            fields = {"rank": 0, "sizes": tuple(sorted(sizes.items()))}
        return ScheduleRequest(
            kind=fp["kind"], algorithm=fp["algorithm"], offsets=self.offsets,
            dims=tuple(fp["dims"]), periods=(True, True),
            send=tuple((("send", i * m, m),) for i in range(send_blocks)),
            recv=tuple((("recv", i * m, m),) for i in range(t)),
            **fields,
        )

    def _serve_op(self, client: Any, entry: dict, result: RoundResult,
                  lock: threading.Lock, sampled: bool) -> None:
        """One request -> validated response, timed on this thread."""
        from repro.core.serialize import schedule_from_dict

        fid, op = entry["fid"], entry["op"]
        if op == "plan":  # needs the schedule's scratch size: wait, untimed
            self.answered[fid].wait(OP_TIMEOUT_S)
        message = self._request(fid, op).to_dict(op)
        ctx = self.ctx
        try:
            t0 = _perf()
            with ctx.span("op"):
                with ctx.span("serve.client.rtt"):
                    response = client.request(message)
                with ctx.span("serve.client.materialize"):
                    if op == "plan":
                        got = client.map_plan(response)
                    else:
                        got = schedule_from_dict(response["schedule"])
            t1 = _perf()
        except Exception as exc:  # refused, timed out or malformed: failed op
            with lock:
                result.attempted += 1
                result.fail(f"{op} fid {fid}: {type(exc).__name__}: {exc}")
            self.answered[fid].set()
            return
        ok, cold = True, False
        if op == "schedule":
            self.temp_nbytes[fid] = int(got.temp_nbytes)
            self.rounds[fid] = int(got.num_rounds)
            self.volume[fid] = int(got.volume_bytes)
            self.answered[fid].set()
            cold = not response.get("hit", True)
            if sampled:
                self.samples.append((fid, got, len(json.dumps(response))))
        else:
            ok = got.rank == 0 and got.num_rounds == self.rounds[fid]
            del got  # drop the shm views before the client detaches
        with lock:
            result.attempted += 1
            result.lat_ns.append(t1 - t0)
            if cold:
                self.cold_ns.append(t1 - t0)
            if not ok:
                result.fail(f"plan fid {fid}: mapped plan does not match its schedule")

    def _check_samples(self, result: RoundResult) -> None:
        """Execute the sampled schedules on lockstep, check by definition."""
        from repro import CartTopology, get_backend

        backend = get_backend("lockstep")
        for fid, schedule, _nbytes in self.samples:
            fp = self.fingerprints[fid]
            dims, m, t = tuple(fp["dims"]), fp["m"], self.nbh.t
            p = dims[0] * dims[1]
            blocks = t if fp["kind"] == "alltoall" else 1
            send = ((np.arange(p * blocks * m) * 7 + fid) % 251).astype(np.uint8)
            send = send.reshape(p, blocks * m)
            recv = np.zeros((p, t * m), dtype=np.uint8)
            try:
                backend.execute_all(
                    CartTopology(dims, (True, True)), schedule,
                    [{"send": send[r], "recv": recv[r]} for r in range(p)],
                )
                if fp["kind"] == "alltoall":
                    oracles.check_alltoall(
                        dims, self.nbh.offsets, send.reshape(p, t, m), recv.reshape(p, t, m)
                    )
                else:
                    oracles.check_allgather(dims, self.nbh.offsets, send, recv.reshape(p, t, m))
            except Exception as exc:  # a served schedule that misbehaves failed
                result.fail(f"served fid {fid}: {type(exc).__name__}: {exc}")

    def run_round(self) -> RoundResult:
        from repro import von_neumann_neighborhood
        from repro.serve import ScheduleClient

        ctx = self.ctx
        result = RoundResult()
        self.nbh = von_neumann_neighborhood(2, 1)
        self.offsets = tuple(tuple(int(x) for x in row) for row in self.nbh.offsets)
        self.fingerprints, requests = cases.serve_cases(ctx.seed, ctx.round_index)
        result.case_sha = cases.case_sha([self.fingerprints, requests])
        n = len(self.fingerprints)
        self.temp_nbytes = [0] * n
        self.rounds = [0] * n
        self.volume = [0] * n
        self.answered = [threading.Event() for _ in range(n)]
        self.samples: list = []
        self.cold_ns: list = []
        sampled = set(
            np.flatnonzero(ctx.rng(3).random(len(requests)) < self.CHECK_SHARE).tolist()
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        sock = os.path.relpath(os.path.join(OUT_DIR, f"serve-{os.getpid()}.sock"))
        daemon = _Daemon(sock, in_process=ctx.tracer is not None)
        clients: list = []
        lock = threading.Lock()
        try:
            clients = [ScheduleClient(path=sock, timeout=OP_TIMEOUT_S)
                       for _ in range(self.CLIENTS)]
            result.setup_s = time.time() - ctx.spawned_at
            warm = RoundResult()
            for op in ("schedule", "schedule", "plan"):
                self._serve_op(clients[0], {"op": op, "fid": 0, "first": False},
                               warm, lock, False)
            if warm.failed:
                raise RuntimeError(f"warm-up failed: {warm.errors}")
            self.cold_ns.clear()
            state = {"next": 0, "stop_at": len(requests)}
            deadline = _perf() + int(ctx.seconds * 1e9)

            def loop(client: Any) -> None:
                while True:
                    with lock:
                        i = state["next"]
                        if _perf() >= deadline:  # finish the block in progress
                            block = cases.SERVE_BLOCK
                            state["stop_at"] = min(state["stop_at"], -(-i // block) * block)
                        if i >= state["stop_at"]:
                            return
                        state["next"] = i + 1
                    if ctx.tracer is None and i % self.PROBE_EVERY == 0:
                        result.probe_ns.append(speed_probe())
                    self._serve_op(client, requests[i], result, lock, i in sampled)

            threads = [
                threading.Thread(target=loop, args=(c,), name=f"e2e-client-{k}")
                for k, c in enumerate(clients)
            ]
            if ctx.tracer is not None:
                result.probe_ns.extend(speed_probe() for _ in range(self.PROBE_EVERY))
            daemon_cpu0, c0, t0 = daemon.cpu_s(), _cpu(), _perf()
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            t1, c1, daemon_cpu1 = _perf(), _cpu(), daemon.cpu_s()
            if ctx.tracer is not None:
                result.probe_ns.extend(speed_probe() for _ in range(self.PROBE_EVERY))
            result.window_ns = t1 - t0
            result.cpu_ns = (c1 - c0) + int((daemon_cpu1 - daemon_cpu0) * 1e9)
            issued = state["next"]
            stats = clients[0].stats()
            result.extra["daemon_hwm_kb"] = daemon.hwm_kb()
            self._daemon_counts(result, stats, requests[:issued])
        finally:
            try:
                daemon.stop(clients[0] if clients else None, result)
                for client in clients:
                    client.close()
                self._check_samples(result)
            finally:
                daemon.check_gone(result)
        return result

    def _daemon_counts(self, result: RoundResult, stats: dict, issued: list) -> None:
        server = stats["server"]
        distinct = 1 + sum(r["first"] for r in issued)
        schedules = server["requests"].get("schedule", 0)
        sizes = sorted(s[2] for s in self.samples)
        firsts = [r["fid"] for r in issued if r["first"]]
        result.extra.update({
            "serve.ready_hit_ratio": server["ready_hits"] / max(schedules, 1),
            "serve.builds": server["builds"],
            "serve.single_flight_hits": server["single_flight_hits"],
            "serve.plans_published": server["plans_published"],
            "serve.plan_store_used_kb": stats.get("plan_store", {}).get("used", 0) / 1024,
            "serve.protocol_errors": server["protocol_errors"],
            "serve.response_bytes_p50": sizes[len(sizes) // 2] if sizes else 0,
            "serve.distinct_issued": distinct,
            "cold_ns": sum(self.cold_ns),
            "cold_ops": len(self.cold_ns),
            "builders.rounds": float(np.mean([self.rounds[f] for f in firsts])) if firsts else 0.0,
            "builders.volume_bytes":
                float(np.mean([self.volume[f] for f in firsts])) if firsts else 0.0,
        })
        result.counters = {
            "cache_builds": stats["cache"]["builds"],
            "cache_build_s": stats["cache"]["build_seconds"],
            "cache_hits": stats["cache"]["hits"], "cache_misses": stats["cache"]["misses"],
            "plan_hits": stats["plan_cache"]["hits"],
            "plan_misses": stats["plan_cache"]["misses"],
            "plan_compile_s": stats["plan_cache"]["compile_seconds"],
        }
        if server["builds"] != distinct:
            result.violations.append(
                f"serve.builds is {server['builds']}, expected {distinct} "
                f"(one per distinct fingerprint)"
            )
        if server["protocol_errors"]:
            result.violations.append(
                f"serve.protocol_errors is {server['protocol_errors']}, expected 0"
            )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (LifeSmall, CannonW, BcastTree, Halo3dLarge, Allreduce512, ColdStart, ServeMix)
}


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
