"""``python -m benchmarks.e2e compare BASE.json CHANGE.json``.

Applies the bounds of ``BENCHMARK.json`` to two result files written by
``python -m benchmarks.e2e run``: one row per workload x end-to-end
metric, every ratio given with its base.  A row is *unresolved* where
either file's own round-to-round spread exceeds the bound — the noise is
wider than the bound, so neither "unchanged" nor "worse" can be said.
Results taken on different machines, seeds or run lengths are refused.
"""

from __future__ import annotations

import json
import sys

from benchmarks.e2e import harness

#: fingerprint fields that must agree (the commit is what is compared)
_SAME_MACHINE = ("cores", "cpu", "python", "numpy")


def verdict(metric: dict, base: float, change: float, spread: float) -> str:
    bound = metric["bound"]
    if not base:
        return "unresolved"
    ratio = change / base
    worse = ratio > 1 + bound if metric["better"] == "lower" else ratio < 1 - bound
    better = ratio < 1 - bound if metric["better"] == "lower" else ratio > 1 + bound
    if spread > bound and metric["name"].startswith(("op_", "ops_")):
        return "unresolved"
    return "worse" if worse else "better" if better else "within bound"


def main(base_path: str, change_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    differing = [
        f"{key}: {base['fingerprint'].get(key)!r} vs {change['fingerprint'].get(key)!r}"
        for key in _SAME_MACHINE
        if base["fingerprint"].get(key) != change["fingerprint"].get(key)
    ] + [
        f"{key}: {base.get(key)!r} vs {change.get(key)!r}"
        for key in ("seed", "seconds") if base.get(key) != change.get(key)
    ]
    if differing:
        print("refusing to compare, the runs differ in " + "; ".join(differing), file=sys.stderr)
        return 2
    spec = harness.load_spec()
    print(f"base   {base['fingerprint']['commit']}  ({base_path})")
    print(f"change {change['fingerprint']['commit']}  ({change_path})")
    print(f"{'workload':14s} {'metric':14s} {'base':>14s} {'change':>14s} "
          f"{'change/base':>11s} {'bound':>6s}  verdict")
    worse = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a = base["workloads"].get(workload, {}).get("end_to_end", {})
        b = change["workloads"].get(workload, {}).get("end_to_end", {})
        spread = max(a.get("harness.round_spread", 0.0), b.get("harness.round_spread", 0.0))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a or name not in b:
                print(f"{workload:14s} {name:14s} {'-':>14s} {'-':>14s} {'-':>11s} "
                      f"{metric['bound']:6.2f}  unresolved (missing)")
                continue
            what = verdict(metric, a[name], b[name], spread)
            worse += what == "worse"
            ratio = b[name] / a[name] if a[name] else float("nan")
            print(f"{workload:14s} {name:14s} {a[name]:14.4f} {b[name]:14.4f} "
                  f"{ratio:11.4f} {metric['bound']:6.2f}  {what}")
        for side, e2e in (("base", a), ("change", b)):
            if e2e.get("failed_share", 0.0) > 0:
                worse += 1
                print(f"{workload:14s} failed_share   {side} has failed ops: "
                      f"{e2e['failed_share']:.4f} (bound 0, absolute)  worse")
    return 1 if worse else 0
