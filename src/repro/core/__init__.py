"""The paper's contribution: Cartesian Collective Communication.

Modules
-------
``topology``
    d-dimensional torus/mesh process organization (``MPI_Cart_create``
    equivalent): rank ↔ coordinate mapping, relative shifts.
``neighborhood``
    isomorphic ``t``-neighborhoods given as lists of relative coordinate
    offsets; all combinatorial quantities of Table 1 (z_i, C_k, volumes,
    cut-off ratio).
``stencils``
    neighborhood factories: Moore / von Neumann stencils, the paper's
    (d, n, f) parameterized family, and named classics (5-, 9-, 27-point).
``trivial``
    the t-round algorithms of Listing 4.
``alltoall_schedule``
    Algorithm 1 — the message-combining alltoall schedule.
``allgather_schedule``
    Algorithm 2 — the allgather routing tree and its schedule.
``schedule``
    shared schedule representation (phases, rounds, block sets).
``schedule_cache``
    process-wide, thread-safe LRU of built schedules keyed by the
    canonical (kind, neighborhood, layout, block-signature) fingerprint.
``plan``
    schedule lowering: the one rank-free ``BatchedPlan`` per (topology,
    buffer signature) — peers as ``(p,)`` arrays, vectorized pack/unpack
    kernels compiled once, fused local copies, masked combine steps —
    its per-rank ``RankPlan`` row views, and the size-classed scratch
    ``BufferPool``.
``backend``
    Listing 5 — execution backends: the ``Transport`` verb protocol, the
    single schedule interpreter shared by every per-rank execution mode,
    and the ``threaded`` / ``batched`` backends behind
    ``CartComm(backend=...)`` and ``$REPRO_BACKEND`` (``lockstep`` and
    ``shm`` are aliases of ``batched``, whose fallback and reference the
    per-rank walk now is).
``cartcomm``
    the public API of Listings 1 and 2 (``cart_neighborhood_create``,
    ``CartComm`` with alltoall/allgather in regular, v and w variants,
    persistent ``*_init`` handles, relative-coordinate helpers).
``distgraph``
    Section 2.2 — distributed-graph topologies with automatic detection
    of isomorphic (Cartesian) neighborhoods.
``baseline``
    direct-delivery neighborhood collectives standing in for
    ``MPI_Neighbor_*`` as comparison baselines.
"""

from repro.core.topology import CartTopology
from repro.core.neighborhood import Neighborhood
from repro.core.backend import (
    BACKENDS,
    Backend,
    BackendError,
    ScheduleInterpreter,
    Transport,
    get_backend,
)
from repro.core.cartcomm import CartComm, cart_neighborhood_create
from repro.core.distgraph import (
    DistGraphComm,
    dist_graph_create,
    dist_graph_create_adjacent,
)
from repro.core.plan import (
    BufferPool,
    CompiledBlockSet,
    compile_plan,
    plan_cache_info,
)
from repro.core.schedule_cache import (
    ScheduleCache,
    cache_clear,
    cache_info,
)
from repro.core.serialize import load_schedule, save_schedule
from repro.core.verify import verify_allgather, verify_alltoall, verify_halo
from repro.core.visualize import render_schedule, render_tree

__all__ = [
    "CartTopology",
    "Neighborhood",
    "BACKENDS",
    "Backend",
    "BackendError",
    "ScheduleInterpreter",
    "Transport",
    "get_backend",
    "CartComm",
    "cart_neighborhood_create",
    "DistGraphComm",
    "dist_graph_create",
    "dist_graph_create_adjacent",
    "BufferPool",
    "CompiledBlockSet",
    "compile_plan",
    "plan_cache_info",
    "ScheduleCache",
    "cache_clear",
    "cache_info",
    "load_schedule",
    "save_schedule",
    "verify_alltoall",
    "verify_allgather",
    "verify_halo",
    "render_schedule",
    "render_tree",
]
