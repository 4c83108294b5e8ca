"""Tests of the benchmark harness itself (not part of tier-1):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_harness.py

The end-to-end cases run every workload for about a second, so the
whole file takes a minute or two.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from benchmarks.e2e import ROOT, cases, harness, layers, oracles
from benchmarks.e2e.spans import Tracer, build_nodes, covered

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- the declaration ----------------------------------------------------------


def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_declaration_is_the_layers_table():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _moves in layers.METRICS]
    assert all(moves for *_rest, moves in layers.METRICS)


# -- one run of every workload -------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "0.9", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_reported(workload: str, trace: int):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if trace:
        with open(os.path.join(ROOT, "benchmarks", "out", "e2e", f"last-{workload}-trace1.json")) as fh:
            layer = json.load(fh)["rounds"][-1]["layers"]
        # a metric with no value on this workload is named, with 0 reported
        assert set(layer["not_applicable"]) <= {m["name"] for m in declared}
        assert layer["unresolved"] == []
        assert out["metrics"]["harness.attributed_share"]["value"] >= 0.9
    else:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_refuses_repro_environment_variables():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
         "--workload", "life_small", "--seconds", "0.3"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
        env=dict(os.environ, REPRO_BACKEND="batched"),
    )
    assert proc.returncode != 0 and "REPRO_BACKEND" in proc.stderr


# -- seeded case lists -----------------------------------------------------------


def test_case_lists_are_seeded_distinct_and_stratified():
    for make in (cases.cold_cases, cases.serve_cases):
        assert cases.case_sha(make(11, 0)) == cases.case_sha(make(11, 0))
        assert cases.case_sha(make(11, 0)) != cases.case_sha(make(23, 0))
        assert cases.case_sha(make(11, 0)) != cases.case_sha(make(11, 1))
    warm, timed = cases.cold_cases(11, 0)
    for k in range(0, len(timed), cases.COLD_STRETCH):
        assert sorted(c["d"] for c in timed[k:k + cases.COLD_STRETCH]) == [2, 2, 2, 2, 3]
    everything = [json.dumps(c, sort_keys=True) for r in range(3) for half in cases.cold_cases(11, r) for c in half]
    assert len(set(everything)) == len(everything)
    for k in range(0, len(timed), cases.COLD_BLOCK):  # what peak_rss_mb is read after
        block = timed[k:k + cases.COLD_BLOCK]
        classes = [(c["kind"], c["algorithm"]) for c in block if c["d"] == 3]
        assert len(set(classes)) == len(classes) == 6
    lo, hi = cases.COLD_M_RANGE[3]
    assert all(lo <= c["m"] <= hi for c in warm + timed if c["d"] == 3)
    fingerprints, requests = cases.serve_cases(11, 0)
    for k in range(0, len(requests), cases.SERVE_BLOCK):
        block = requests[k:k + cases.SERVE_BLOCK]
        assert sum(r["first"] for r in block) * 5 == len(block)
        assert sum(r["op"] == "plan" for r in block) * 4 == len(block)
    seen: set[int] = set()
    for r in requests:
        assert r["fid"] != 0 and (r["first"] or r["fid"] in seen)
        seen.add(r["fid"])
    assert len(fingerprints) - 1 == len(seen) < 512


# -- rounds to metrics ------------------------------------------------------------


def _round(lat_ms: float, steal: float = 0.0, probe_ns: int = 500_000) -> dict:
    lat = [int(lat_ms * 1e6)] * 10
    return {"lat_ns": lat, "window_ns": sum(lat), "cpu_ns": sum(lat), "setup_s": 1.0,
            "rss_kb": 1024, "probe_ns": [probe_ns] * 3, "steal": steal}


def test_a_disturbed_round_of_three_does_not_move_the_run():
    calm = harness.end_to_end([_round(10), _round(10), _round(10)])
    one_slow = harness.end_to_end([_round(10), _round(25), _round(10)])
    for name in ("op_p50_us", "op_p90_us", "ops_per_s", "cpu_ms_per_op", "setup_s"):
        assert one_slow[name] == pytest.approx(calm[name])
    assert one_slow["harness.round_spread"] == pytest.approx(1.5)


def test_stolen_time_and_cpu_speed_are_taken_out_of_wall_clock_times():
    calm = harness.end_to_end([_round(10)] * 3)
    # a fifth of the wall clock stolen, and the CPU half as fast: 10 ms of
    # work takes 20 ms of CPU and 25 ms of wall clock
    busy = [_round(25, steal=0.2, probe_ns=1_000_000) for _ in range(3)]
    for r in busy:
        r["cpu_ns"] = int(r["cpu_ns"] * 0.8)  # process CPU time excludes stolen time
    got = harness.end_to_end(busy)
    for name in ("op_p50_us", "op_p90_us", "ops_per_s", "cpu_ms_per_op"):
        assert got[name] == pytest.approx(calm[name])
    assert got["harness.steal_share"] == pytest.approx(0.2)
    from benchmarks.e2e.workloads import cpu_ticks

    stolen, total = cpu_ticks()
    assert 0 <= stolen <= total


# -- oracles ----------------------------------------------------------------------


def _by_definition(dims, offsets, r, i):
    """Rank r - N[i] on the torus, one coordinate at a time."""
    coords = np.unravel_index(r, dims)
    return int(np.ravel_multi_index([(c - o) % d for c, o, d in zip(coords, offsets[i], dims)], dims))


def test_oracles_accept_the_definition_and_reject_a_corrupted_buffer():
    dims = (3, 4)
    offsets = np.array([(0, 1), (-1, 0), (1, 1), (0, 0), (2, -1)])
    p, t, m = 12, len(offsets), 4
    rng = np.random.default_rng(0)
    send = rng.integers(0, 255, (p, t, m)).astype(np.uint8)
    recv = np.zeros_like(send)
    gathered = np.zeros_like(send)
    for r in range(p):
        for i in range(t):
            src = _by_definition(dims, offsets, r, i)
            recv[r, i] = send[src, i]
            gathered[r, i] = send[src, 0]
    oracles.check_alltoall(dims, offsets, send, recv)
    oracles.check_allgather(dims, offsets, send[:, 0], gathered)
    values = rng.integers(-50, 50, (p, m)).astype(np.int64)
    reduced = np.stack([
        sum(values[_by_definition(dims, offsets, r, i)] for i in range(t)) for r in range(p)
    ])
    oracles.check_reduce(dims, offsets, values, reduced)
    everywhere = np.stack([
        np.stack([reduced[_by_definition(dims, offsets, r, i)] for i in range(t)])
        for r in range(p)
    ])
    oracles.check_allreduce(dims, offsets, values, everywhere)
    for check, args, buffer in (
        (oracles.check_alltoall, (dims, offsets, send, recv), recv),
        (oracles.check_allgather, (dims, offsets, send[:, 0], gathered), gathered),
        (oracles.check_reduce, (dims, offsets, values, reduced), reduced),
        (oracles.check_allreduce, (dims, offsets, values, everywhere), everywhere),
    ):
        buffer[p - 1, -1] += 1  # one element of the last rank's last block
        with pytest.raises(oracles.OracleMismatch):
            check(*args)


def test_life_reference_and_equality_check():
    blinker = np.zeros((5, 5), dtype=np.uint8)
    blinker[2, 1:4] = 1
    assert np.array_equal(oracles.life_reference(blinker, 1), blinker.T)
    assert np.array_equal(oracles.life_reference(blinker, 2), blinker)
    oracles.check_equal(blinker, blinker.copy(), "board")
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_equal(blinker, blinker.T, "board")
    with pytest.raises(oracles.OracleMismatch):
        oracles.check_equal(blinker, blinker.astype(np.int64), "board")


def test_op_timeout_turns_a_hang_into_an_exception():
    waiting = threading.Event()
    with pytest.raises(oracles.OpTimeout):
        with oracles.op_timeout(0.2):
            waiting.wait(30)
    with oracles.op_timeout(5):
        pass  # and leaves no alarm behind


# -- span arithmetic ----------------------------------------------------------------


def test_covered_is_the_clipped_union():
    assert covered([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert covered([(0, 10), (5, 15)], 8, 12) == 4
    assert covered([], 0, 10) == 0


def test_self_time_on_a_nested_multi_thread_trace():
    main = [
        ("op", 0, 100, -1),
        ("apps.run", 10, 90, 0),
        ("mpisim.engine", 20, 80, 1),
        ("op", 200, 260, -1),
    ]
    rank0 = [
        ("rank.fn", 25, 75, -1),
        ("cartcomm.collective", 30, 50, 0),
        ("mpisim.p2p.gather", 35, 45, 1),
        ("mpisim.p2p.recv", 36, 40, 2),
        ("cartcomm.collective", 55, 60, 0),
        None,  # a span still open at snapshot time is dropped
    ]
    rank1 = [("rank.fn", 22, 78, -1), ("cartcomm.collective", 30, 70, 0)]
    nodes = build_nodes([("mpisim-rank-1", rank1), ("MainThread", main), ("mpisim-rank-0", rank0)])
    by = {(n.thread, n.name, n.t0): n for n in nodes}
    assert by[("MainThread", "op", 0)].self_ns == 20
    assert by[("MainThread", "apps.run", 10)].self_ns == 20
    # the engine span adopts rank 0's root: 60 long, 50 covered by rank.fn
    engine = by[("MainThread", "mpisim.engine", 20)]
    root = by[("mpisim-rank-0", "rank.fn", 25)]
    assert engine.self_ns == 10 and nodes[root.parent] is engine
    assert root.self_ns == 50 - 20 - 5
    assert by[("mpisim-rank-0", "cartcomm.collective", 30)].self_ns == 10
    assert by[("mpisim-rank-0", "mpisim.p2p.gather", 35)].self_ns == 6
    # other ranks are counted, not adopted: they are not the waited-on path
    assert by[("mpisim-rank-1", "rank.fn", 22)].parent == -1
    assert by[("MainThread", "op", 200)].self_ns == 60
    # self times of one tree add up to its root
    tree = [n for n in nodes if n.t0 < 150 and n.thread != "mpisim-rank-1"]
    assert sum(n.self_ns for n in tree) == 100
    assert all(n.parent < i for i, n in enumerate(nodes))


def test_tracer_records_parents_per_thread_and_survives_a_vanished_target():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    worker = threading.Thread(target=lambda: inner(5), name="mpisim-rank-3")
    worker.start()
    worker.join()
    threads = dict(tracer.threads())
    (name0, _, _, parent0), (name1, _, _, parent1) = threads[threading.current_thread().name]
    assert (name0, parent0, name1, parent1) == ("outer", -1, "inner", 0)
    assert [s[0] for s in threads["mpisim-rank-3"]] == ["inner"]
    from benchmarks.e2e.spans import Target

    tracer.install([Target("x", "repro.core.cartcomm:CartComm.no_such_method"),
                    Target("y", "repro.no_such_module:f")])
    assert tracer.unresolved == ["repro.core.cartcomm:CartComm.no_such_method",
                                 "repro.no_such_module:f"]
