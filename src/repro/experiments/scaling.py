"""Supplementary experiment (not in the paper): scaling behaviour of
the message-combining advantage.

The paper measures fixed process counts per system.  The machine models
let us ask the natural follow-up questions:

* **process scaling** — how does the combining-vs-direct ratio move
  from 64 to 16 384 processes?  Under the linear model the schedules
  themselves are p-independent (relative offsets), so the *deterministic*
  ratio is flat and only the noise coupling grows with p — exactly the
  paper's Appendix A observation that large-scale variance is system
  noise, not algorithm structure.
* **block-size sweep** — where exactly is the crossover for each
  (d, n) stencil on each machine, and does it match the Table 1 cut-off
  rule?

Both are cheap enough to sweep densely; ``tests/experiments/test_scaling.py``
asserts the qualitative invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import parameterized_stencil
from repro.core.trivial import (
    build_direct_alltoall_schedule,
    build_trivial_alltoall_schedule,
)
from repro.experiments.runner import INT_BYTES
from repro.netsim.cost import estimate_schedule_time, sample_schedule_times
from repro.netsim.machine import cutoff_counts
from repro.netsim.machines import get_machine
from repro.stats import summarize


@dataclass
class ScalingResult:
    machine: str
    d: int
    n: int
    m_ints: int
    #: p -> (relative combining time, relative spread of the baseline)
    by_procs: dict


def process_scaling(
    machine_name: str = "titan-craympi",
    d: int = 3,
    n: int = 3,
    m_ints: int = 1,
    proc_counts=(64, 256, 1024, 4096, 16384),
    repetitions: int = 60,
    seed: int = 0,
) -> ScalingResult:
    """Modeled combining/direct ratio and run-time spread versus p."""
    machine = get_machine(machine_name)
    nbh = parameterized_stencil(d, n, -1)
    sizes = [m_ints * INT_BYTES] * nbh.t
    layouts = (
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )
    comb = build_alltoall_schedule(nbh, *layouts)
    direct = build_direct_alltoall_schedule(nbh, *layouts)
    out = {}
    rng = np.random.default_rng(seed)
    system = "titan" if machine_name.startswith("titan") else "hydra"
    for p in proc_counts:
        t_comb = summarize(
            sample_schedule_times(comb, machine, p, repetitions, rng, "cart"),
            system=system,
        ).mean
        base_samples = sample_schedule_times(
            direct, machine, p, repetitions, rng, "mpi_blocking"
        )
        t_base = summarize(base_samples, system=system).mean
        spread = float(np.std(base_samples) / np.mean(base_samples))
        out[p] = (t_comb / t_base, spread)
    return ScalingResult(
        machine=machine_name, d=d, n=n, m_ints=m_ints, by_procs=out
    )


def crossover_sweep(
    machine_name: str = "hydra-openmpi",
    d: int = 3,
    n: int = 3,
    m_grid=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
) -> dict:
    """Deterministic combining-vs-trivial crossover in block size, and
    the cut-off ``auto`` applies on this machine for comparison."""
    machine = get_machine(machine_name)
    nbh = parameterized_stencil(d, n, -1)
    ratios = {}
    for m_ints in m_grid:
        sizes = [m_ints * INT_BYTES] * nbh.t
        layouts = (
            uniform_block_layout(sizes, "send"),
            uniform_block_layout(sizes, "recv"),
        )
        comb = build_alltoall_schedule(nbh, *layouts)
        triv = build_trivial_alltoall_schedule(nbh, *layouts)
        ratios[m_ints] = estimate_schedule_time(
            comb, machine, "cart"
        ) / estimate_schedule_time(triv, machine, "cart")
    predicted_cutoff_ints = machine.cutoff_block_bytes(
        *cutoff_counts(nbh, "alltoall")
    ) / INT_BYTES
    return {
        "machine": machine_name,
        "d": d,
        "n": n,
        "ratios": ratios,
        "predicted_cutoff_ints": predicted_cutoff_ints,
    }


def render(res: ScalingResult, sweep: dict) -> str:
    lines = [f"process scaling — {res.machine}, d={res.d} n={res.n} m={res.m_ints}:"]
    for p, (rel, spread) in res.by_procs.items():
        lines.append(f"  p={p:6d}: combining/direct = {rel:.3f}, "
                     f"baseline spread = {spread:.3f}")
    lines.append(f"\nblock-size sweep — {sweep['machine']}, d={sweep['d']} "
                 f"n={sweep['n']} (predicted cut-off ≈ "
                 f"{sweep['predicted_cutoff_ints']:.0f} ints):")
    for m, r in sweep["ratios"].items():
        marker = "<- combining wins" if r < 1 else ""
        lines.append(f"  m={m:5d} ints: combining/trivial = {r:.3f} {marker}")
    return "\n".join(lines)


def main() -> str:
    text = render(process_scaling(), crossover_sweep())
    print(text)
    return text


if __name__ == "__main__":
    main()
