"""Shared test helpers.

``expected_alltoall`` / ``expected_allgather`` compute, by brute force
from the definition in Section 2, what every rank's receive buffer must
contain after a Cartesian collective: block ``i`` comes from source
``(r − N[i]) mod dims``.  All collective tests reduce to comparing an
execution against these.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import HealthCheck, settings as _hyp_settings

    # "ci" is derandomized so property tests are reproducible in CI; the
    # default "dev" profile keeps random exploration for local runs.
    _hyp_settings.register_profile(
        "ci",
        derandomize=True,
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.register_profile(
        "dev", max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass

from repro.analyze.config import set_verify_on_build
from repro.core.neighborhood import Neighborhood
from repro.core.topology import CartTopology

# The whole suite runs with build-time schedule verification enabled:
# every schedule built through the process-wide cache is certified by
# the static verifier before any rank executes it (benchmarks leave the
# hook off; see repro.analyze.config).
set_verify_on_build(True)


def fill_send_alltoall(rank: int, t: int, m: int, dtype=np.int64) -> np.ndarray:
    """Deterministic, distinct content per (rank, block): block i of
    rank r is filled with r * 10000 + i."""
    buf = np.empty(t * m, dtype=dtype)
    for i in range(t):
        buf[i * m : (i + 1) * m] = rank * 10000 + i
    return buf


def expected_alltoall(
    topo: CartTopology, nbh: Neighborhood, rank: int, m: int, dtype=np.int64
) -> np.ndarray:
    """recv block i = send block i of source (r − N[i])."""
    out = np.empty(nbh.t * m, dtype=dtype)
    for i, off in enumerate(nbh):
        src = topo.translate(rank, tuple(-o for o in off))
        assert src is not None
        out[i * m : (i + 1) * m] = src * 10000 + i
    return out


def fill_send_allgather(rank: int, m: int, dtype=np.int64) -> np.ndarray:
    return np.full(m, rank * 7 + 3, dtype=dtype)


def expected_allgather(
    topo: CartTopology, nbh: Neighborhood, rank: int, m: int, dtype=np.int64
) -> np.ndarray:
    out = np.empty(nbh.t * m, dtype=dtype)
    for i, off in enumerate(nbh):
        src = topo.translate(rank, tuple(-o for o in off))
        assert src is not None
        out[i * m : (i + 1) * m] = src * 7 + 3
    return out


def with_deliveries(schedule, plan):
    """A copy of ``plan`` that can :meth:`deliver` whatever its verdict
    (which stays as lowered): the round programs a staged plan was
    never given, built from the same two primitives the lowering uses —
    so the eligibility rule does not decide which inputs the in-place
    form is tested on."""
    import copy

    from repro.core.plan import compile_delivery, zip_runs

    forced = copy.copy(plan)
    if plan.deliveries is None:
        forced._deliveries = tuple(
            tuple(
                None
                if br.send is None or br.recv is None
                else compile_delivery(
                    zip_runs(
                        rnd.send_blocks.coalesced_runs(),
                        rnd.recv_blocks.coalesced_runs(),
                    ),
                    plan.sizes,
                )
                for rnd, br in zip(phase.rounds, rounds)
            )
            for phase, rounds in zip(schedule.phases, plan.phases)
        )
    return forced


def run_planes(plan, rank_buffers):
    """Every rank's buffers after one execution of ``plan``'s planes on
    copies of ``rank_buffers`` (all of them staged, ``temp`` included,
    so scratch forwarded over mesh edges compares too), in their types."""
    from repro.mpisim.datatypes import byte_view

    block = np.zeros(plan.block_nbytes, np.uint8)
    planes = plan.plane_views(block)
    p = len(rank_buffers)
    for name, plane in planes.items():
        rows = np.stack([byte_view(b[name]) for b in rank_buffers])
        plane[...] = rows.reshape(p, *plane.shape[::2]).transpose(1, 0, 2)
    plan.execute_planes(block)
    return [
        {
            name: plane[:, rank].reshape(-1).view(b[name].dtype).reshape(b[name].shape)
            for name, plane in planes.items()
        }
        for rank, b in enumerate(rank_buffers)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True, scope="module")
def _fresh_certificate_store():
    """With ``verify_on_build`` on, the suite certifies through the
    process-wide certificate store: every test module starts with an
    empty one, so what its schedules inherit was certified by that
    module's own code.  A test that monkeypatches the verifier, the
    lowering or an executor clears the store itself, before and after —
    a certificate filed under a patch must not outlive it."""
    from repro.analyze.certificates import GLOBAL_STORE

    GLOBAL_STORE.clear()
    yield


@pytest.fixture(autouse=True, scope="session")
def _global_pool_balance():
    """Enforce the pool-lifecycle invariant across the whole suite: every
    acquire has exactly one release, including error paths — so after all
    tests (fault-injected and failing-path ones included) the process
    pool must have no outstanding bytes."""
    import gc

    from repro.core.plan import GLOBAL_POOL

    yield
    # run finalizers of any persistent handles still caught in reference
    # cycles — their pooled release is the finalizer, so collecting first
    # keeps the assertion about *leaks*, not garbage-collector timing
    gc.collect()
    stats = GLOBAL_POOL.stats()
    assert stats.outstanding_bytes == 0, (
        f"tests leaked pooled scratch: {stats.outstanding_bytes} B "
        f"outstanding after the suite ({stats})"
    )
