"""Per-layer metrics: the wrap table, the metric definitions and how a
traced round's spans and counters become numbers.

Layers are named after this repository's modules.  ``METRICS`` is the
declaration: name, unit, which direction is better, and which end-to-end
metric the number should move on which workload (``moves``, written down
before measuring).  ``BENCHMARK.json`` lists the same names; a metric
that does not apply to a workload (``serve.*`` on ``life_small``) or
whose wrap target no longer resolves is reported as 0 and named in the
round's ``not_applicable`` list.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Any, Callable, Optional, Sequence

import numpy as np

from benchmarks.e2e.spans import (
    CRITICAL_RANK_THREAD, ENGINE_SPAN, RANK_FN_SPAN, Capture, Node, Target, Tracer,
    build_nodes, under,
)

_COMM = ("send", "recv", "isend", "irecv", "sendrecv", "gather", "bcast", "barrier",
         "allgather", "allreduce", "alltoall", "isend_blocks", "irecv_blocks",
         "isend_buffer", "irecv_into", "isend_bytes", "waitall")
#: every message is posted through exactly one of these
_POSTS = ("mpisim.p2p.isend", "mpisim.p2p.isend_blocks", "mpisim.p2p.isend_buffer",
          "mpisim.p2p.isend_bytes")
_INITS = ("alltoall_init", "allgather_init", "alltoallv_init", "alltoallw_init",
          "allgatherw_init", "reduce_neighbors_init")
_COLLECTIVES = ("alltoall", "allgather", "alltoallv", "allgatherv", "alltoallw",
                "allgatherw", "reduce_neighbors", "reduce_neighbors_allreduce",
                "reduce_scatter_block")
_BUILDERS = (
    "alltoall_schedule:build_alltoall_schedule",
    "allgather_schedule:build_allgather_schedule",
    "trivial:build_trivial_alltoall_schedule", "trivial:build_direct_alltoall_schedule",
    "trivial:build_trivial_allgather_schedule", "trivial:build_direct_allgather_schedule",
    "reduce_schedule:build_reduce_schedule", "reduce_schedule:build_reduce_scatter_schedule",
    "reduce_schedule:build_allreduce_schedule",
    "reduce_schedule:build_trivial_reduce_schedule",
    "reduce_schedule:build_trivial_reduce_scatter_schedule",
)

#: the declared table of public callables wrapped in a traced round
TABLE: tuple[Target, ...] = (
    Target("apps.run", "repro.apps.life:GameOfLife.run"),
    Target("apps.run", "repro.apps.cannon:CannonMatmul.run"),
    Target("apps.run", "repro.apps.broadcast:AllToAllBroadcast.run"),
    Target("apps.kernel", "repro.stencil.kernels:life_step_local"),
    Target(ENGINE_SPAN, "repro.mpisim.engine:Engine.run", hook="hook_engine_run"),
    *(Target(f"mpisim.p2p.{m}", f"repro.mpisim.comm:Communicator.{m}") for m in _COMM),
    Target("cartcomm.create", "repro.core.cartcomm:cart_neighborhood_create"),
    *(Target("cartcomm.init", f"repro.core.cartcomm:CartComm.{m}") for m in _INITS),
    *(Target("cartcomm.collective", f"repro.core.cartcomm:CartComm.{m}") for m in _COLLECTIVES),
    Target("cartcomm.collective", "repro.core.persistent:PersistentOp.execute"),
    Target("cartcomm.collective", "repro.core.persistent:PersistentReduce.execute"),
    Target("schedule_cache.lookup", "repro.core.schedule_cache:ScheduleCache.get_or_build"),
    *(Target("builders.build", f"repro.core.{b}") for b in _BUILDERS),
    Target("analyze.certify", "repro.analyze.schedule_verifier:certify_schedule"),
    Target("plan.compile", "repro.core.plan:compile_plan"),
    Target("plan.compile", "repro.core.plan:compile_batched_plan"),
    *(Target("backend.execute", f"repro.core.backend.{mod}:{cls}.execute_all",
             hook="hook_execute_all")
      for mod, cls in (("batched", "BatchedBackend"), ("lockstep", "LockstepBackend"),
                       ("threaded", "ThreadedBackend"), ("shm", "ShmBackend"))),
    Target("backend.execute", "repro.core.backend.interpreter:ScheduleInterpreter.run",
           hook="hook_interpreter_run"),
    Target("serve.protocol.decode", "repro.serve.protocol:decode_message"),
    Target("serve.protocol.decode", "repro.serve.protocol:ScheduleRequest.from_dict"),
    Target("serve.protocol.encode", "repro.serve.protocol:encode_message"),
    Target("serve.server.build", "repro.serve.protocol:ScheduleRequest.build"),
    Target("serve.server.serialize", "repro.core.serialize:schedule_to_dict"),
    Target("serve.server.serialize", "repro.serve.shm_plans:plan_to_image"),
    Target("serve.shm_plans.publish", "repro.serve.shm_plans:ShmPlanStore.put"),
)

_APPS = "life_small, cannon_w, bcast_tree"
#: (name, unit, better, moves)
METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("apps.run_self_ms", "ms", "lower", f"op_p50_us on {_APPS}"),
    ("apps.rank_self_ms", "ms", "lower", f"op_p50_us on {_APPS}, cold_start"),
    ("apps.kernel_ms", "ms", "lower", "none: must stay a small share of life_small"),
    ("apps.collectives_per_op", "count", "lower", "exact; a change is an app change"),
    ("mpisim.engine_ms", "ms", "lower", f"op_p50_us on {_APPS}, cold_start"),
    ("mpisim.p2p_us", "us", "lower",
     "op_p50_us on life_small, cannon_w; small share on halo3d_large"),
    ("mpisim.msgs_per_op", "count", "lower", "exact; cpu_ms_per_op on the app workloads"),
    ("cartcomm.create_ms", "ms", "lower",
     "setup_s on halo3d_large; op_p50_us on apps and cold_start"),
    ("cartcomm.init_ms", "ms", "lower",
     "setup_s on halo3d_large; op_p50_us on apps and cold_start"),
    ("cartcomm.collective_us", "us", "lower", "op_p50_us on every CartComm workload"),
    ("cartcomm.self_us", "us", "lower",
     "op_p50_us on life_small, bcast_tree; < 5 % on halo3d_large"),
    ("schedule_cache.lookup_us", "us", "lower", "op_p50_us on cold_start, serve_mix"),
    ("schedule_cache.hit_ratio", "ratio", "higher", "must be 1 after warm-up on warm workloads"),
    ("schedule_cache.builds", "count", "lower", "op_p50_us on cold_start, serve_mix"),
    ("builders.build_ms", "ms", "lower", "op_p50_us on cold_start; op_p90_us on serve_mix"),
    ("builders.rounds", "count", "lower", "exact C; a change is an algorithm change"),
    ("builders.volume_bytes", "B", "lower", "exact V; a change is an algorithm change"),
    ("analyze.certify_ms", "ms", "lower",
     "op_p50_us, op_p90_us on cold_start; op_p90_us on serve_mix"),
    ("analyze.calls", "count", "lower", "must be 0 in the timed window of warm workloads"),
    ("analyze.share", "ratio", "lower", "op_p50_us on cold_start; op_p90_us on serve_mix"),
    ("plan.compile_ms", "ms", "lower", "op_p50_us on cold_start; setup_s elsewhere"),
    ("plan.hit_ratio", "ratio", "higher", "op_p50_us on the warm workloads"),
    ("plan.packed_bytes_per_op", "B", "lower",
     "op_p50_us, cpu_ms_per_op on halo3d_large; nothing on life_small"),
    ("plan.copied_bytes_per_op", "B", "lower",
     "op_p50_us, cpu_ms_per_op, peak_rss_mb on halo3d_large"),
    ("plan.pool_high_water_mb", "MiB", "lower", "peak_rss_mb on halo3d_large"),
    ("plan.pool_reuse_ratio", "ratio", "higher", "peak_rss_mb, cpu_ms_per_op on halo3d_large"),
    ("plan.pool_outstanding_bytes", "B", "lower", "must be 0 when the round ends"),
    ("backend.execute_all_us", "us", "lower",
     "op_p50_us on allreduce_512 (all of it), halo3d_large; small on life_small"),
    ("backend.threaded.exec_us", "us", "lower", "op_p50_us on cannon_w"),
    ("backend.lockstep.exec_us", "us", "lower", "op_p50_us on bcast_tree, cold_start"),
    ("backend.batched.exec_us", "us", "lower",
     "op_p50_us on life_small, halo3d_large, allreduce_512"),
    ("backend.shm.exec_us", "us", "lower", "none end to end: watches the shm backend"),
    ("backend.trivial_exec_us", "us", "lower", "none: the paper's baseline"),
    ("backend.trivial_over_combining", "ratio", "higher", "the paper's headline comparison"),
    ("backend.first_call_ms", "ms", "lower", "setup_s on warm workloads; op_p50_us on cold_start"),
    ("serve.client.rtt_us", "us", "lower", "op_p50_us on serve_mix"),
    ("serve.client.materialize_us", "us", "lower", "op_p50_us on serve_mix"),
    ("serve.protocol.decode_us", "us", "lower", "op_p50_us on serve_mix"),
    ("serve.protocol.encode_us", "us", "lower", "op_p50_us on serve_mix"),
    ("serve.server.build_ms", "ms", "lower", "op_p90_us on serve_mix"),
    ("serve.server.certify_ms", "ms", "lower", "op_p90_us on serve_mix"),
    ("serve.server.serialize_ms", "ms", "lower", "op_p90_us on serve_mix"),
    ("serve.shm_plans.publish_us", "us", "lower", "op_p90_us on serve_mix"),
    ("serve.server.residual_ms", "ms", "lower", "op_p90_us on serve_mix (queue and batch wait)"),
    ("serve.ready_hit_ratio", "ratio", "higher", "op_p50_us on serve_mix"),
    ("serve.builds", "count", "lower", "must equal the distinct fingerprints requested"),
    ("serve.single_flight_hits", "count", "higher", "cpu_ms_per_op on serve_mix"),
    ("serve.plans_published", "count", "lower", "exact per seed"),
    ("serve.plan_store_used_kb", "KiB", "lower", "peak_rss_mb on serve_mix"),
    ("serve.protocol_errors", "count", "lower", "must be 0"),
    ("serve.response_bytes_p50", "B", "lower", "op_p50_us on serve_mix"),
    ("harness.op_p99_us", "us", "lower", "diagnostic; 0 below 1000 ops"),
    ("harness.op_min_us", "us", "lower", "diagnostic"),
    ("harness.trace_overhead", "ratio", "lower", "diagnostic: traced / untraced op_p50_us - 1"),
    ("harness.trace_unresolved", "count", "lower", "diagnostic: wrap targets that vanished"),
    ("harness.attributed_share", "ratio", "higher", "diagnostic: op time inside named spans"),
)

#: replay probes skip a backend above this many ranks
_PROBE_MAX_RANKS = {"threaded": 64, "lockstep": 64, "shm": 64, "batched": None}
_PROBE_CALLS = {"threaded": 20, "lockstep": 20, "batched": 20, "shm": 5}


def _server_thread(thread: str) -> bool:
    return thread == "e2e-server-loop" or thread.startswith("repro-serve")


def _critical(thread: str) -> bool:
    """The path the caller waits on: not a rank other than 0, not the
    daemon's threads."""
    if _server_thread(thread):
        return False
    return not thread.startswith("mpisim-rank-") or thread == CRITICAL_RANK_THREAD


class _View:
    def __init__(self, nodes: Sequence[Node]) -> None:
        self.nodes = nodes
        self.in_op = under(nodes, "op")
        self.in_collective = under(nodes, "cartcomm.collective")
        self.ops = [n for n in nodes if n.name == "op"]
        merged: list[list[int]] = []
        for t0, t1 in sorted((n.t0, n.t1) for n in self.ops):
            if merged and t0 <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], t1)
            else:
                merged.append([t0, t1])
        self._starts = [m[0] for m in merged]
        self._ends = [m[1] for m in merged]
        self._by_name: dict[str, list[int]] = {}
        for i, n in enumerate(nodes):
            self._by_name.setdefault(n.name, []).append(i)

    def during_ops(self, node: Node) -> bool:
        """Did the span start while some op was running (any thread)?"""
        k = bisect.bisect_right(self._starts, node.t0) - 1
        return k >= 0 and node.t0 <= self._ends[k]

    def pick(self, *names: str, where: Optional[Callable[[int, Node], bool]] = None) -> list[Node]:
        """Spans whose name starts with one of ``names`` (and pass ``where``)."""
        return [
            self.nodes[i]
            for name, indices in self._by_name.items() if name.startswith(names)
            for i in indices
            if where is None or where(i, self.nodes[i])
        ]

    def on_path(self, *names: str) -> list[Node]:
        """Spans under an op on the critical path."""
        return self.pick(*names, where=lambda i, n: self.in_op[i] and _critical(n.thread))


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return float(num / den) if den else empty


def run_probes(tracer: Tracer, workload: Any, budget_s: float) -> dict[str, float]:
    """Replay the workload's own schedule by direct ``execute_all`` on
    every backend, then its trivial counterpart on its own backend, then
    a first call after dropping the lowered plans."""
    from repro import get_backend

    combining = [c for k, c in tracer.captured.items() if not k.startswith(("trivial", "direct"))]
    if not combining:
        return {}
    cap = combining[-1]
    slice_s = budget_s / 6
    own = workload.backend_name
    out: dict[str, float] = {}

    def replay(capture: Capture, backend: str, calls: int) -> list[float]:
        p = capture.topo.size
        bufs = [{n: np.zeros(s, np.uint8) for n, s in capture.sizes.items()} for _ in range(p)]
        engine = get_backend(backend)
        times: list[float] = []
        stop = time.perf_counter() + slice_s
        while len(times) < calls and (len(times) < 2 or time.perf_counter() < stop):
            t0 = time.perf_counter_ns()
            engine.execute_all(capture.topo, capture.schedule, bufs)
            times.append((time.perf_counter_ns() - t0) / 1e3)
        return times

    tracer.enabled = False
    try:
        for backend, bound in _PROBE_MAX_RANKS.items():
            if bound is None or cap.topo.size <= bound:
                replay(cap, backend, 1)  # lower the plans outside the timing
                out[f"backend.{backend}.exec_us"] = statistics.median(
                    replay(cap, backend, _PROBE_CALLS[backend])
                )
        warm = out[f"backend.{own}.exec_us"]
        cap.schedule.clear_plans()
        out["backend.first_call_ms"] = (replay(cap, own, 1)[0] - warm) / 1e3
        tracer.enabled = True
        trivial = workload.trivial_capture(tracer)
        tracer.enabled = False
        if trivial is not None:
            replay(trivial, own, 1)
            out["backend.trivial_exec_us"] = statistics.median(
                replay(trivial, own, _PROBE_CALLS[own])
            )
            out["backend.trivial_over_combining"] = _ratio(out["backend.trivial_exec_us"], warm)
    finally:
        tracer.enabled = True
    return out


def compute(
    tracer: Tracer, workload: Any, result: Any, probes: dict[str, float],
    executed: Sequence[tuple[int, int]],
) -> dict:
    """All per-layer metrics of one traced round.  ``executed`` are the
    (rounds, volume) of the schedules the ops ran (probes excluded).
    Returns ``{"values": {name: number}, "not_applicable": [names]}``."""
    view = _View(build_nodes(tracer.threads()))
    n_ops = max(len(view.ops), 1)
    counters, extra = result.counters, result.extra
    v: dict[str, float] = {}

    def per_op_ms(*names: str) -> float:
        return sum(n.self_ns for n in view.on_path(*names)) / n_ops / 1e6

    v["apps.run_self_ms"] = per_op_ms("apps.run")
    v["apps.rank_self_ms"] = per_op_ms(RANK_FN_SPAN)
    v["apps.kernel_ms"] = per_op_ms("apps.kernel")
    v["mpisim.engine_ms"] = per_op_ms(ENGINE_SPAN)
    collectives = view.on_path("cartcomm.collective")
    p2p = view.pick(
        "mpisim.p2p.",
        where=lambda i, n: view.in_op[i] and view.in_collective[i] and _critical(n.thread),
    )
    v["mpisim.p2p_us"] = _ratio(sum(n.self_ns for n in p2p) / 1e3, len(collectives))
    # counts are summed over ranks: every post under any rank's collective,
    # per rank-0 collective (whole round, so the ratio is exact), times the
    # collectives one op makes
    posts = view.pick(*_POSTS, where=lambda i, n: n.name in _POSTS and view.in_collective[i])
    all_collectives = view.pick("cartcomm.collective", where=lambda i, n: _critical(n.thread))
    v["mpisim.msgs_per_op"] = _ratio(len(posts), len(all_collectives)) * len(collectives) / n_ops
    for key, span in (("cartcomm.create_ms", "cartcomm.create"), ("cartcomm.init_ms", "cartcomm.init")):
        v[key] = _mean([n.dur / 1e6 for n in view.pick(span, where=lambda i, n: _critical(n.thread))])
    v["cartcomm.collective_us"] = _mean([n.dur / 1e3 for n in collectives])
    v["cartcomm.self_us"] = _mean([n.self_ns / 1e3 for n in collectives])
    v["schedule_cache.lookup_us"] = _mean(
        [n.self_ns / 1e3 for n in view.on_path("schedule_cache.lookup")]
    )
    v["backend.execute_all_us"] = _mean([n.dur / 1e3 for n in view.on_path("backend.execute")])
    certify = view.pick("analyze.certify", where=lambda i, n: view.during_ops(n))
    v["analyze.certify_ms"] = _mean([n.dur / 1e6 for n in certify])
    v["analyze.calls"] = float(len(certify))
    cold_ns = extra.get("cold_ns", sum(result.lat_ns) if workload.name == "cold_start" else 0)
    v["analyze.share"] = _ratio(sum(n.dur for n in certify), cold_ns)

    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    v["schedule_cache.hit_ratio"] = _ratio(counters.get("cache_hits", 0), lookups, 1.0)
    v["schedule_cache.builds"] = float(counters.get("cache_builds", 0))
    v["builders.build_ms"] = _ratio(
        counters.get("cache_build_s", 0.0) * 1e3, counters.get("cache_builds", 0)
    )
    v["builders.rounds"] = extra.get("builders.rounds", _mean([e[0] for e in executed]))
    v["builders.volume_bytes"] = extra.get(
        "builders.volume_bytes", _mean([e[1] for e in executed])
    )
    plans = counters.get("plan_hits", 0) + counters.get("plan_misses", 0)
    v["plan.compile_ms"] = _ratio(
        counters.get("plan_compile_s", 0.0) * 1e3, counters.get("plan_misses", 0)
    )
    v["plan.hit_ratio"] = _ratio(counters.get("plan_hits", 0), plans, 1.0)
    v["plan.packed_bytes_per_op"] = float(extra.get("packed_bytes_per_op", 0))
    v["plan.copied_bytes_per_op"] = float(extra.get("copied_bytes_per_op", 0))
    v["apps.collectives_per_op"] = float(extra.get("collectives_per_op", 0))
    v["plan.pool_high_water_mb"] = counters.get("pool_high_water", 0) / 2**20
    v["plan.pool_reuse_ratio"] = _ratio(
        counters.get("pool_reuses", 0), counters.get("pool_acquires", 0)
    )
    v["plan.pool_outstanding_bytes"] = float(counters.get("pool_outstanding", 0))
    v.update(probes)

    if workload.name == "serve_mix":
        server = lambda i, n: _server_thread(n.thread) and view.during_ops(n)  # noqa: E731
        spans = lambda name: view.pick(name, where=server)  # noqa: E731
        v["serve.client.rtt_us"] = _mean([n.dur / 1e3 for n in view.on_path("serve.client.rtt")])
        v["serve.client.materialize_us"] = _mean(
            [n.dur / 1e3 for n in view.on_path("serve.client.materialize")]
        )
        v["serve.protocol.decode_us"] = sum(n.dur for n in spans("serve.protocol.decode")) / n_ops / 1e3
        v["serve.protocol.encode_us"] = sum(n.dur for n in spans("serve.protocol.encode")) / n_ops / 1e3
        v["serve.server.build_ms"] = _mean([n.dur / 1e6 for n in spans("serve.server.build")])
        v["serve.server.certify_ms"] = _mean([n.dur / 1e6 for n in spans("analyze.certify")])
        v["serve.server.serialize_ms"] = _mean([n.dur / 1e6 for n in spans("serve.server.serialize")])
        v["serve.shm_plans.publish_us"] = _mean([n.dur / 1e3 for n in spans("serve.shm_plans.publish")])
        v["serve.server.residual_ms"] = (
            _ratio(extra.get("cold_ns", 0) / 1e6, extra.get("cold_ops", 0))
            - v["serve.server.build_ms"] - v["serve.server.certify_ms"]
            - v["serve.server.serialize_ms"]
            - (v["serve.protocol.decode_us"] + v["serve.protocol.encode_us"]) / 1e3
        )
        for key, value in extra.items():
            if key.startswith("serve.") and key != "serve.distinct_issued":
                v[key] = float(value)

    lat = sorted(result.lat_ns)
    v["harness.op_min_us"] = lat[0] / 1e3 if lat else 0.0
    v["harness.trace_unresolved"] = float(len(tracer.unresolved))
    v["harness.attributed_share"] = 1.0 - _ratio(
        sum(n.self_ns for n in view.ops), sum(n.dur for n in view.ops)
    )
    declared = [m[0] for m in METRICS]
    late = ("harness.op_p99_us", "harness.trace_overhead")  # filled by the parent
    missing = [name for name in declared if name not in v and name not in late]
    return {
        "values": {name: v.get(name, 0.0) for name in declared},
        "not_applicable": missing,
        "spans": len(view.nodes),
        "unresolved": list(tracer.unresolved),
    }
