"""Top-level convenience entry points.

A virtual MPI job is a function executed on every rank; these helpers
wire up the engine and (optionally) the Cartesian communicator so
examples and tests read like MPI programs:

    def worker(cart):
        ...collectives on cart...

    results = run_cartesian(dims=(4, 4), offsets=moore_neighborhood(2),
                            fn=worker)
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

import numpy as np

from repro.core.cartcomm import cart_neighborhood_create
from repro.core.neighborhood import Neighborhood
from repro.mpisim.engine import Engine, run_ranks  # run_ranks: re-exported


def run_cartesian(
    dims: Sequence[int],
    offsets: Union[Neighborhood, np.ndarray, Sequence[int], Sequence[Sequence[int]]],
    fn: Callable[..., Any],
    *,
    periods: Optional[Sequence[bool]] = None,
    weights: Optional[Sequence[int]] = None,
    info: Optional[dict] = None,
    timeout: float = 120.0,
    tracing: bool = False,
    validate: bool = True,
    engine: Optional[Engine] = None,
) -> list[Any]:
    """Run ``fn(cart)`` on every rank of a Cartesian job.

    Builds the engine with ``prod(dims)`` ranks, lets every rank call
    ``cart_neighborhood_create`` collectively, then invokes ``fn`` with
    the resulting :class:`~repro.core.cartcomm.CartComm`.  Returns the
    per-rank results.  Pass an ``engine`` to reuse one (e.g. to keep its
    trace recorder across runs).
    """
    p = int(np.prod(np.asarray(dims)))

    def bootstrap(comm):
        cart = cart_neighborhood_create(
            comm,
            dims,
            periods,
            offsets,
            weights=weights,
            info=info,
            validate=validate,
        )
        return fn(cart)

    if engine is not None:
        if engine.nranks != p:
            raise ValueError(
                f"engine has {engine.nranks} ranks but dims {tuple(dims)} "
                f"need {p}"
            )
        return engine.run(bootstrap)
    return run_ranks(p, bootstrap, timeout=timeout, tracing=tracing)
