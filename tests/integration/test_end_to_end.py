"""Cross-module integration tests.

These tie the whole stack together: random neighborhoods through the
public API on real threads, all three algorithms compared to each other
and to the brute-force definition; the Section 2.2 dist-graph flow; and
the trace → network-model pipeline on a real execution.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import run_cartesian, run_ranks
from repro.core.cartcomm import cart_neighborhood_create
from repro.core.distgraph import dist_graph_create_adjacent
from repro.core.stencils import (
    moore_neighborhood,
    parameterized_stencil,
    random_neighborhood,
)
from repro.core.topology import CartTopology
from repro.mpisim.engine import Engine
from repro.netsim.cost import estimate_schedule_time
from repro.netsim.des import simulate_programs
from repro.netsim.machines import get_machine
from repro.netsim.program import program_from_trace, validate_programs

from tests.conftest import expected_alltoall, fill_send_alltoall


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_all_algorithms_agree_random(data):
    """trivial == combining == direct == brute force, on threads."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    d = data.draw(st.integers(1, 2))
    dims = tuple(data.draw(st.integers(2, 3)) for _ in range(d))
    t = data.draw(st.integers(1, 5))
    nbh = random_neighborhood(d, t, 2, rng)
    topo = CartTopology(dims)
    m = 2

    def fn(cart):
        out = {}
        for alg in ("trivial", "combining", "direct"):
            send = fill_send_alltoall(cart.rank, nbh.t, m)
            recv = np.zeros_like(send)
            cart.alltoall(send, recv, algorithm=alg)
            out[alg] = recv.copy()
        expect = expected_alltoall(topo, nbh, cart.rank, m)
        for alg, got in out.items():
            assert np.array_equal(got, expect), (cart.rank, alg)
        return True

    assert all(run_cartesian(dims, nbh, fn, timeout=120))


def test_repeated_collectives_many_iterations():
    """Back-to-back collectives on the same communicator must not
    cross-match messages (the stencil iteration pattern)."""
    nbh = moore_neighborhood(2, 1, include_self=False)
    topo = CartTopology((3, 3))

    def fn(cart):
        t = cart.nbh.t
        send = np.zeros(t)
        recv = np.zeros(t)
        op = cart.alltoall_init(send, recv, algorithm="combining")
        for it in range(20):
            send[:] = cart.rank + it * 1000
            op.execute()
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert recv[i] == src + it * 1000, (it, i)
        return True

    assert all(run_cartesian((3, 3), nbh, fn, timeout=120))


def test_mixed_algorithms_interleaved():
    """Alternating algorithms between iterations still matches
    correctly (all use the same CARTTAG but complete before return)."""
    nbh = parameterized_stencil(2, 3, -1)
    topo = CartTopology((3, 3))

    def fn(cart):
        t = cart.nbh.t
        for it, alg in enumerate(["trivial", "combining", "direct"] * 2):
            send = fill_send_alltoall(cart.rank, t, 1) + it
            recv = np.zeros_like(send)
            cart.alltoall(send, recv, algorithm=alg)
            assert np.array_equal(
                recv, expected_alltoall(topo, nbh, cart.rank, 1) + it
            )
        return True

    assert all(run_cartesian((3, 3), nbh, fn, timeout=120))


def test_section22_full_flow():
    """cart comm -> neighbor_get -> dist graph -> detection -> fast
    collective, in one engine run."""
    nbh = moore_neighborhood(2, 1, include_self=False)
    dims = (4, 4)

    def fn(comm):
        cart = cart_neighborhood_create(comm, dims, None, nbh)
        sources, targets = cart.neighbor_get()
        dg = dist_graph_create_adjacent(
            comm, sources, targets, cart_topology=cart.topo
        )
        assert dg.is_cartesian
        t = len(targets)
        send = np.arange(t, dtype=np.int64) * (comm.rank + 1)
        recv = np.zeros(t, dtype=np.int64)
        dg.neighbor_alltoall(send, recv)
        topo = CartTopology(dims)
        for i, off in enumerate(nbh):
            src = topo.translate(comm.rank, tuple(-o for o in off))
            assert recv[i] == i * (src + 1)
        return True

    assert all(run_ranks(16, fn, timeout=120))


def test_trace_to_network_model_pipeline():
    """Record a real execution, replay it through the DES, and check it
    lands near the closed-form estimate — the full modeling loop the
    figures rely on."""
    nbh = parameterized_stencil(2, 3, -1)
    topo = CartTopology((3, 3))
    eng = Engine(topo.size, timeout=60, tracing=True)

    schedules = {}

    def fn(comm):
        cart = cart_neighborhood_create(
            comm, (3, 3), None, nbh, validate=False
        )
        t = cart.nbh.t
        send = np.zeros(t, dtype=np.int32)
        recv = np.zeros(t, dtype=np.int32)
        comm.mark("start-measured-region")
        cart.alltoall(send, recv, algorithm="combining")
        if comm.rank == 0:
            schedules["combining"] = cart.alltoall_init(
                send, recv, algorithm="combining"
            ).schedule

    eng.run(fn)
    machine = get_machine("hydra-openmpi").without_noise()
    # extract only the collective's events (after the mark)
    programs = []
    for r in range(topo.size):
        events = eng.trace.for_rank(r)
        idx = next(
            i for i, e in enumerate(events)
            if e.kind == "mark" and e.note == "start-measured-region"
        )
        programs.append(program_from_trace(events[idx + 1 :]))
    validate_programs(programs)
    res = simulate_programs(programs, machine, "cart")
    est = estimate_schedule_time(schedules["combining"], machine, "cart")
    assert res.makespan == pytest.approx(est, rel=0.5)
    assert res.messages == topo.size * schedules["combining"].num_rounds


def test_nonperiodic_mesh_halo_semantics():
    """Trivial algorithm on a non-periodic mesh: boundary processes
    keep their receive blocks untouched."""
    nbh = moore_neighborhood(2, 1, include_self=False)
    dims = (3, 3)
    topo = CartTopology(dims, (False, False))

    def fn(cart):
        t = cart.nbh.t
        send = np.full(t, float(cart.rank + 1))
        recv = np.full(t, -1.0)
        cart.alltoall(send, recv, algorithm="trivial")
        for i, off in enumerate(cart.nbh):
            src = topo.translate(cart.rank, tuple(-o for o in off))
            expect = -1.0 if src is None else src + 1
            assert recv[i] == expect, (cart.rank, i, off)
        return True

    assert all(
        run_cartesian(dims, nbh, fn, periods=(False, False), timeout=120)
    )


def test_large_thread_count():
    """A 64-rank engine run exercising the combining collective."""
    nbh = parameterized_stencil(2, 3, -1)
    topo = CartTopology((8, 8))

    def fn(cart):
        m = 1
        send = fill_send_alltoall(cart.rank, nbh.t, m)
        recv = np.zeros_like(send)
        cart.alltoall(send, recv, algorithm="combining")
        return np.array_equal(
            recv, expected_alltoall(topo, nbh, cart.rank, m)
        )

    assert all(run_cartesian((8, 8), nbh, fn, timeout=180))
