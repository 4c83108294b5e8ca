"""Round orchestration: spawn round subprocesses, apply the must-hold
counts, and turn the rounds' samples into the declared metrics.

The parent never runs the program under test; every round is a fresh
``run.py --round`` subprocess, so set-up is paid (and measured) each
time and no cache survives from one round to the next.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Optional, Sequence

from benchmarks.e2e import OUT_DIR, ROOT, SPEC_PATH
from benchmarks.e2e.layers import METRICS
from benchmarks.e2e.workloads import SPEED_PROBE_NOMINAL_NS

ROUNDS = 3
#: a round that has not answered this long after its budget is killed
ROUND_GRACE_S = 100.0
#: spans of the first ops exported as Chrome trace (the rest stay counted)
TRACE_EXPORT_OPS = 5
#: glibc's *dynamic* mmap threshold makes a fresh process settle, by
#: chance, into one of two allocator regimes: every MiB-sized buffer
#: mmap'd, page-faulted and unmapped again, or served from the heap.  On
#: halo3d_large the two are 1.7x apart in op time and a round lands in
#: either.  Rounds therefore run with the threshold pinned at its
#: maximum and trimming off — the regime a long-lived process converges
#: to (the dynamic threshold only ever grows).
ALLOCATOR_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(512 << 20),
}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def refuse_repro_env() -> None:
    """``REPRO_*`` variables change what the program does (backend,
    plans, pool, verification): a run with any of them set measures a
    different program."""
    bad = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if bad:
        raise SystemExit(f"refusing to run with {', '.join(bad)} set")


def fingerprint() -> dict:
    """Where the numbers were taken; compare refuses differing ones."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# the child: one round
# ---------------------------------------------------------------------------


def child_round(spec: dict) -> dict:
    """Run one round in this (fresh) process; returns its JSON record."""
    from benchmarks.e2e import layers
    from benchmarks.e2e.spans import Tracer, export_chrome
    from benchmarks.e2e.workloads import (
        WORKLOADS, RoundContext, RoundResult, cpu_ticks, peak_rss_kb,
    )

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install(layers.TABLE)
    ctx = RoundContext(
        workload=spec["workload"], seed=spec["seed"], round_index=spec["round"],
        seconds=spec["seconds"], spawned_at=spec["spawned_at"], tracer=tracer,
    )
    workload = WORKLOADS[ctx.workload](ctx)
    if workload.switch_interval is not None:
        sys.setswitchinterval(workload.switch_interval)
    stolen0, ticks0 = cpu_ticks()
    try:
        result = workload.run_round()
    except Exception:  # the round itself broke: one failed op, with the reason
        result = RoundResult(attempted=1, failed=1, errors=[traceback.format_exc(limit=6)])
    stolen1, ticks1 = cpu_ticks()
    result.steal = (stolen1 - stolen0) / max(ticks1 - ticks0, 1)
    counters = result.counters
    if counters.get("pool_outstanding", 0):
        result.violations.append(
            f"plan.pool_outstanding_bytes is {counters['pool_outstanding']} at round end"
        )
    if workload.warm_cache and counters.get("cache_misses", 0):
        result.violations.append(
            f"schedule_cache.hit_ratio < 1 after warm-up ({counters['cache_misses']} misses)"
        )
    layer = None
    if tracer is not None and result.lat_ns:
        executed = list(tracer.executed)
        probes = (
            layers.run_probes(tracer, workload, ctx.seconds) if workload.replay_probes else {}
        )
        layer = layers.compute(tracer, workload, result, probes, executed)
        if workload.warm_cache and layer["values"]["analyze.calls"]:
            result.violations.append("analyze.calls > 0 in the timed window of a warm workload")
        os.makedirs(OUT_DIR, exist_ok=True)
        threads = tracer.threads()
        ops = sorted(s[2] for _, spans in threads for s in spans if s and s[0] == "op")
        path = os.path.join(OUT_DIR, f"trace-{ctx.workload}-seed{ctx.seed}.json")
        layer["trace_events"] = export_chrome(
            threads, path, ops[min(TRACE_EXPORT_OPS, len(ops)) - 1] if ops else None
        )
        layer["trace_file"] = os.path.relpath(path, ROOT)
    result.rss_kb = max(
        result.rss_kb or peak_rss_kb(), int(result.extra.get("daemon_hwm_kb", 0))
    )
    record = result.to_json()
    if layer is not None:
        record["layers"] = layer
    return record


# ---------------------------------------------------------------------------
# the parent
# ---------------------------------------------------------------------------


def spawn_round(workload: str, seed: int, round_index: int, seconds: float, trace: bool) -> dict:
    spec = {
        "workload": workload, "seed": seed, "round": round_index,
        "seconds": seconds, "trace": trace, "spawned_at": time.time(),
    }
    cmd = [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
           "--round", json.dumps(spec)]
    grace = ROUND_GRACE_S + (seconds if trace else 0)  # the probes' budget
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=seconds + grace,
            env=dict(os.environ, **ALLOCATOR_ENV),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        reason = f"round exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
    except subprocess.TimeoutExpired:
        reason = f"round killed after {seconds + grace:.0f} s"
    return {"attempted": 1, "failed": 1, "errors": [reason], "violations": [],
            "lat_ns": [], "probe_ns": [], "window_ns": 0, "cpu_ns": 0, "setup_s": 0.0,
            "rss_kb": 0}


def run_rounds(
    workloads: Sequence[str], seed: int, seconds: float, rounds: int = ROUNDS
) -> dict[str, list[dict]]:
    """``rounds`` untraced rounds of every workload, round-robin, so a
    slow minute on a shared machine hits one round of each workload
    instead of one whole workload.  ``seconds`` is split over the rounds."""
    out: dict[str, list[dict]] = {name: [] for name in workloads}
    for r in range(rounds):
        for name in workloads:
            out[name].append(spawn_round(name, seed, r, seconds / ROUNDS, False))
    return out


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def tally(rounds: Sequence[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  A round with a must-hold count
    violated counts every one of its ops as failed."""
    attempted = failed = 0
    problems: list[str] = []
    for r in rounds:
        attempted += r["attempted"]
        failed += r["attempted"] if r["violations"] else r["failed"]
        problems += list(r["violations"]) + list(r.get("errors", []))
    return max(attempted, 1), failed, problems


def speed_of(round_: dict) -> float:
    """How slow the CPU was during this round: the median of the round's
    speed probes over the nominal probe time (1 = nominal).  CPU times
    are divided by it."""
    probes = round_.get("probe_ns")
    return statistics.median(probes) / SPEED_PROBE_NOMINAL_NS if probes else 1.0


def wall_of(round_: dict) -> float:
    """What wall-clock times of this round are divided by: the CPU's
    slowness, and the share of the time the round had the CPU at all.
    (The probe's median does not see stolen time: most of its half
    milliseconds pass undisturbed.  Process CPU time excludes it.)"""
    return speed_of(round_) / (1.0 - min(round_.get("steal", 0.0), 0.9))


def end_to_end(rounds: Sequence[dict]) -> dict[str, float]:
    """The declared end-to-end metrics: each is taken per round and the
    median over the rounds is reported, so one round of three taken while
    the shared machine was disturbed does not move the run.  Every time
    is first divided by its own round's factor (wall_of, speed_of), so a
    round taken while the machine ran slow counts like one taken while it
    ran fast; the raw median and the factors are reported beside them."""
    rounds = [r for r in rounds if r["lat_ns"]]
    if not rounds:
        return {}
    speeds = [speed_of(r) for r in rounds]
    walls = [wall_of(r) for r in rounds]
    lats = [sorted(x / w for x in r["lat_ns"]) for r, w in zip(rounds, walls)]
    medians = [statistics.median(lat) for lat in lats]
    p50 = statistics.median(medians)
    return {
        "setup_s": statistics.median(r["setup_s"] / w for r, w in zip(rounds, walls)),
        "op_p50_us": p50 / 1e3,
        "op_p90_us": statistics.median(quantile(lat, 0.90) for lat in lats) / 1e3,
        "ops_per_s": statistics.median(
            len(r["lat_ns"]) / (r["window_ns"] / w / 1e9) for r, w in zip(rounds, walls)
        ),
        "cpu_ms_per_op": statistics.median(
            r["cpu_ns"] / s / len(r["lat_ns"]) for r, s in zip(rounds, speeds)
        ) / 1e6,
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024,
        # diagnostics, not declared end to end
        "harness.round_spread": (max(medians) - min(medians)) / p50,
        "harness.speed_factor": statistics.median(speeds),
        "harness.steal_share": statistics.median(r.get("steal", 0.0) for r in rounds),
        "harness.raw_op_p50_us": statistics.median(x for r in rounds for x in r["lat_ns"]) / 1e3,
        "samples": float(min(len(lat) for lat in lats)),
    }


def per_layer(traced: dict, reference: Sequence[dict]) -> dict[str, float]:
    """The declared per-layer metrics of one traced round; ``reference``
    are untraced rounds of the same workload and seed."""
    values = dict(traced.get("layers", {}).get("values", {}))
    if not values:
        return {}
    wall = wall_of(traced)
    for name, unit, _better, _moves in METRICS:
        if unit in ("us", "ms", "s"):  # span times, at nominal machine speed
            values[name] = values[name] / wall
    lat = sorted(x / wall_of(r) for r in reference for x in r["lat_ns"])
    if lat and traced["lat_ns"]:
        values["harness.trace_overhead"] = (
            statistics.median(traced["lat_ns"]) / wall / statistics.median(lat) - 1.0
        )
    values["harness.op_p99_us"] = quantile(lat, 0.99) / 1e3 if len(lat) >= 1000 else 0.0
    return values


def report(workload: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    """Every metric by name with its unit, one per line."""
    samples = metrics.get("samples")
    for name, value in metrics.items():
        if name == "samples":
            continue
        note = f"  (n={int(samples)})" if samples and name.startswith("op_p") else ""
        print(f"{workload:14s} {name:32s} {value:16.4f} {units.get(name, '')}{note}")


def units_of(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def save(name: str, payload: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return path


def run_contract(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """The driver's shape: one workload, one JSON object as the last line."""
    spec = load_spec()
    units = units_of(spec)
    if trace:
        reference = run_rounds([workload], seed, seconds, rounds=1)[workload]
        traced = spawn_round(workload, seed, 1, seconds / ROUNDS, True)
        rounds = reference + [traced]
        metrics = per_layer(traced, reference)
        declared = [m["name"] for m in spec["per_layer"]]
    else:
        rounds = run_rounds([workload], seed, seconds)[workload]
        metrics = end_to_end(rounds)
        declared = [m["name"] for m in spec["end_to_end"]]
    attempted, failed, problems = tally(rounds)
    for sha in sorted({r["case_sha"] for r in rounds if r.get("case_sha")}):
        print(f"{workload}: case list sha256 {sha}")
    report(workload, metrics, units)
    for problem in problems:
        print(f"{workload}: PROBLEM {problem}", file=sys.stderr)
    save(f"last-{workload}-trace{int(trace)}.json", {
        "fingerprint": fingerprint(), "workload": workload, "seed": seed,
        "seconds": seconds, "rounds": rounds, "metrics": metrics,
    })
    missing = [name for name in declared if name not in metrics]
    if missing:
        print(f"{workload}: no value for {missing}", file=sys.stderr)
        return 1
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in declared},
    }))
    return 0 if correct else 1


def run_suite(
    workloads: Sequence[str], seed: int, seconds: float, out: Optional[str]
) -> int:
    """Every workload: three round-robin end-to-end rounds, then one
    traced round each; one result file for ``compare``."""
    spec = load_spec()
    units = units_of(spec)
    untraced = run_rounds(workloads, seed, seconds)
    result: dict[str, Any] = {
        "fingerprint": fingerprint(), "seed": seed, "seconds": seconds, "workloads": {},
    }
    bad = False
    for name in workloads:
        traced = spawn_round(name, seed, ROUNDS, seconds / ROUNDS, True)
        e2e = end_to_end(untraced[name])
        attempted, failed, problems = tally(untraced[name] + [traced])
        e2e["failed_share"] = failed / attempted
        layer = per_layer(traced, untraced[name])
        report(name, e2e, units)
        report(name, layer, units)
        for problem in problems:
            print(f"{name}: PROBLEM {problem}", file=sys.stderr)
        bad = bad or failed > 0 or not e2e or not layer
        result["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layer, "problems": problems,
            "not_applicable": traced.get("layers", {}).get("not_applicable", []),
            "case_sha": sorted({r["case_sha"] for r in untraced[name] if r.get("case_sha")}),
            "trace_file": traced.get("layers", {}).get("trace_file"),
        }
    path = save(out or f"result-seed{seed}.json", result)
    print(f"result written to {os.path.relpath(path)}")
    return 1 if bad else 0
