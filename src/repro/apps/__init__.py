"""Real application workloads over the Cartesian collectives.

Four complete applications — Conway's Game of Life (halo exchange), a
weighted (affine) stencil of any dimension (heat, Jacobi, Poisson; the
Listing 3 workload), Cannon's matrix multiplication (Cartesian shifts)
and an iterated all-to-all broadcast on k-ary n-tori — each with a
sequential oracle and bit-equality differential certification across
every registered execution backend.  See :mod:`repro.apps.base` for
the app contract.

:data:`APPS` maps app names to small default problem instances, the
entry point the benchmark and example drivers share.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.apps.base import (
    APP_ALGORITHMS,
    AppCertificationError,
    AppRun,
    CartesianApp,
    merge_stats,
    registered_backends,
)
from repro.apps.broadcast import (
    AllToAllBroadcast,
    broadcast_schedule,
    full_torus_neighborhood,
    verify_broadcast_optimality,
)
from repro.apps.cannon import CannonMatmul
from repro.apps.life import GameOfLife, life_step_reference, pack_rows, unpack_rows
from repro.apps.weighted import WeightedStencil
from repro.stencil.kernels import heat_weights

__all__ = [
    "APPS",
    "APP_ALGORITHMS",
    "AllToAllBroadcast",
    "AppCertificationError",
    "AppRun",
    "CannonMatmul",
    "CartesianApp",
    "GameOfLife",
    "WeightedStencil",
    "broadcast_schedule",
    "default_app",
    "full_torus_neighborhood",
    "life_step_reference",
    "merge_stats",
    "pack_rows",
    "registered_backends",
    "unpack_rows",
    "verify_broadcast_optimality",
]

#: name -> factory for a small, fully-determined default instance (used
#: by benchmarks, examples and smoke tests).
APPS: dict[str, Callable[[], CartesianApp]] = {
    "life": lambda: GameOfLife.random((24, 24), (3, 3), 6, seed=7),
    "cannon": lambda: CannonMatmul(24, 24, 24, 3, seed=7),
    "broadcast": lambda: AllToAllBroadcast((3, 3), block=16, iterations=4, seed=7),
    "weighted": lambda: WeightedStencil(
        np.random.default_rng(7).random((24, 24)), (3, 3), heat_weights(2), 6
    ),
}


def default_app(name: str) -> CartesianApp:
    """A fresh default problem instance of the named app."""
    try:
        factory = APPS[name]
    except KeyError:
        raise ValueError(
            f"unknown app {name!r}; available: {', '.join(sorted(APPS))}"
        ) from None
    return factory()
