"""Shared measurement harness for the figure drivers.

One *experiment point* is: a neighborhood, a block size, a machine, a
process count, and a set of library variants.  For each variant the
harness builds the corresponding schedule shape, samples its completion
time ``repetitions`` times under the machine's noise model (the paper's
measurement loop), pushes the samples through the Appendix A pipeline,
and returns absolute and baseline-normalized results.

Variant naming matches the figure legends:

* ``MPI_Neighbor_*``  — direct delivery, blocking entry point;
* ``MPI_Ineighbor_*`` — direct delivery, non-blocking entry point;
* ``Cart_* (trivial, blocking)`` — Listing 4;
* ``Cart_*`` — the message-combining algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.allgather_schedule import build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import Schedule, uniform_block_layout
from repro.core.schedule_cache import get_or_build, schedule_key
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.netsim.cost import sample_schedule_times
from repro.netsim.machine import MachineModel
from repro.stats import ReportedStat, normalize_to_baseline, summarize

#: the element type of all paper benchmarks (MPI_INT)
INT_BYTES = 4

#: process default of ``measure_schedule(certify_backend=)`` (the CLI's
#: ``--certify-backend`` sets it): a backend name makes every measured
#: schedule pass execution certification there before its cost samples
#: count — the pipeline then cannot time a schedule that delivers wrong bytes.
CERTIFY_BACKEND: Optional[str] = None


@dataclass(frozen=True)
class Variant:
    """One measured implementation."""

    name: str
    schedule_builder: Callable[[], Schedule]
    cost_variant: str  # "cart" | "mpi_blocking" | "mpi_nonblock"


@dataclass
class ExperimentPoint:
    """Results of one (neighborhood, m, machine, p) measurement."""

    label: str
    machine: str
    nprocs: int
    stats: dict[str, ReportedStat] = field(default_factory=dict)
    relative: dict[str, float] = field(default_factory=dict)
    baseline: str = ""

    def absolute_ms(self, variant: str) -> float:
        return self.stats[variant].mean * 1e3


def _alltoall_layouts(sizes: Sequence[int]):
    return (
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )


def _cached_builder(kind: str, nbh: Neighborhood, layout_sig: tuple, build):
    """Route a variant's schedule construction through the process-wide
    cache: the figure drivers measure the same (neighborhood, sizes)
    point for several machines and repetition settings, and the schedule
    is identical every time."""

    def builder():
        sched, _, _ = get_or_build(
            schedule_key(kind, nbh, layout_sig), build
        )
        return sched

    return builder


def alltoall_variants(
    nbh: Neighborhood, block_sizes: Sequence[int]
) -> list[Variant]:
    """The four Figure 3–5 bars (irregular sizes give the Figure 6
    ``alltoallv`` set with the same shapes)."""
    sizes = [int(s) for s in block_sizes]
    sig = ("uniform", tuple(sizes))

    direct = _cached_builder(
        "runner/alltoall/direct", nbh, sig,
        lambda: build_direct_alltoall_schedule(nbh, *_alltoall_layouts(sizes)),
    )
    trivial = _cached_builder(
        "runner/alltoall/trivial", nbh, sig,
        lambda: build_trivial_alltoall_schedule(nbh, *_alltoall_layouts(sizes)),
    )
    combining = _cached_builder(
        "runner/alltoall/combining", nbh, sig,
        lambda: build_alltoall_schedule(nbh, *_alltoall_layouts(sizes)),
    )

    return [
        Variant("MPI_Neighbor_alltoall", direct, "mpi_blocking"),
        Variant("MPI_Ineighbor_alltoall", direct, "mpi_nonblock"),
        Variant("Cart_alltoall (trivial, blocking)", trivial, "cart"),
        Variant("Cart_alltoall", combining, "cart"),
    ]


def allgather_variants(nbh: Neighborhood, m_bytes: int) -> list[Variant]:
    """The Figure 6 (top) bars."""
    send_block = BlockSet([BlockRef("send", 0, m_bytes)])
    recv_blocks = uniform_block_layout([m_bytes] * nbh.t, "recv")
    sig = ("uniform", m_bytes)

    direct = _cached_builder(
        "runner/allgather/direct", nbh, sig,
        lambda: build_direct_allgather_schedule(nbh, send_block, recv_blocks),
    )
    trivial = _cached_builder(
        "runner/allgather/trivial", nbh, sig,
        lambda: build_trivial_allgather_schedule(nbh, send_block, recv_blocks),
    )
    combining = _cached_builder(
        "runner/allgather/combining", nbh, sig,
        lambda: build_allgather_schedule(nbh, send_block, recv_blocks),
    )

    return [
        Variant("MPI_Neighbor_allgather", direct, "mpi_blocking"),
        Variant("MPI_Ineighbor_allgather", direct, "mpi_nonblock"),
        Variant("Cart_allgather (trivial, blocking)", trivial, "cart"),
        Variant("Cart_allgather", combining, "cart"),
    ]


#: rank budget for certification tori — the sentinel check is exact
#: under wraparound aliasing (``translate`` computes the expected source
#: the same way the executed schedule does), so shrinking the torus
#: loses no soundness, only per-dimension aliasing diversity.
_CERTIFY_MAX_RANKS = 64


def _certification_topology(nbh: Neighborhood):
    """A small torus to certify on: each dimension large enough to keep
    the stencil's offsets distinct where the rank budget allows, shrunk
    toward extent 2 for high-dimensional stencils."""
    from repro.core.topology import CartTopology

    spans = [
        max(abs(int(off[k])) for off in nbh) for k in range(nbh.d)
    ]
    dims = [max(3, 2 * s + 1) for s in spans]
    while int(np.prod(dims)) > _CERTIFY_MAX_RANKS and max(dims) > 2:
        k = dims.index(max(dims))
        dims[k] = 3 if dims[k] > 3 else 2
    return CartTopology(tuple(dims))


#: schedules already certified this process, keyed by backend and
#: identity (the value pins the schedule so ids stay unique) — figure
#: drivers measure the same cached schedule for several machines and
#: repetition settings.
_certified: dict = {}


def certify_schedule(schedule: Schedule, backend: str) -> None:
    """Execution-certify one measured schedule on the named backend:
    run it for all ranks of a small torus with sentinel contents and
    check every delivered byte against the collective's definition."""
    from repro.core.verify import verify_allgather, verify_alltoall

    if (backend, id(schedule)) in _certified:
        return
    topo = _certification_topology(schedule.neighborhood)
    if "allgather" in schedule.kind:
        verify_allgather(
            schedule,
            topo,
            schedule.send_layout[0].total_nbytes,
            backend=backend,
        )
    else:
        verify_alltoall(
            schedule,
            topo,
            [bs.total_nbytes for bs in schedule.send_layout],
            backend=backend,
        )
    _certified[(backend, id(schedule))] = schedule


def repetitions_for(machine: MachineModel, m_ints: int) -> int:
    """The paper's repetition counts (Section 4.1.2)."""
    if machine.name.startswith("titan"):
        return {1: 300, 10: 50}.get(m_ints, 40)
    return {1: 100, 10: 30}.get(m_ints, 10)


def measure_schedule(
    variants: Sequence[Variant],
    machine: MachineModel,
    nprocs: int,
    *,
    label: str = "",
    repetitions: Optional[int] = None,
    m_ints: int = 1,
    seed: int = 0,
    baseline: Optional[str] = None,
    certify_backend: Optional[str] = None,
) -> ExperimentPoint:
    """Measure all variants of one experiment point.

    ``certify_backend`` (default: :data:`CERTIFY_BACKEND`) names an
    execution backend on which every distinct schedule is certified
    byte-for-byte before it is timed.
    """
    reps = repetitions if repetitions is not None else repetitions_for(machine, m_ints)
    system = "titan" if machine.name.startswith("titan") else "hydra"
    certify = certify_backend or CERTIFY_BACKEND
    point = ExperimentPoint(label=label, machine=machine.name, nprocs=nprocs)
    rng = np.random.default_rng(seed)
    for variant in variants:
        schedule = variant.schedule_builder()
        if certify:
            certify_schedule(schedule, certify)
        samples = sample_schedule_times(
            schedule, machine, nprocs, reps, rng=rng, variant=variant.cost_variant
        )
        point.stats[variant.name] = summarize(samples, system=system)
    point.baseline = baseline or variants[0].name
    point.relative = normalize_to_baseline(point.stats, point.baseline)
    return point
