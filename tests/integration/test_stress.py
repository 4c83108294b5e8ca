"""Stress and fuzz integration tests: random mixed workloads on one
communicator, exercising tag management, schedule caching and buffer
reuse under realistic (adversarial) call sequences."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import run_cartesian
from repro.core.stencils import moore_neighborhood, random_neighborhood
from repro.core.topology import CartTopology

from tests.conftest import expected_alltoall, fill_send_alltoall

NBH = moore_neighborhood(2, 1, include_self=False)

OPERATIONS = ["alltoall", "allgather", "reduce", "ialltoall", "barrier"]


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.sampled_from(OPERATIONS), min_size=3, max_size=10),
    st.sampled_from(["trivial", "combining"]),
)
def test_random_operation_sequences(sequence, algorithm):
    """Any sequence of collectives (same order on all ranks, as MPI
    requires) must produce correct results for every step."""
    topo = CartTopology((3, 3))

    def fn(cart):
        t = cart.nbh.t
        for step, op in enumerate(sequence):
            salt = step * 777
            if op == "alltoall":
                send = fill_send_alltoall(cart.rank, t, 1) + salt
                recv = np.zeros_like(send)
                cart.alltoall(send, recv, algorithm=algorithm)
                assert np.array_equal(
                    recv,
                    expected_alltoall(topo, cart.nbh, cart.rank, 1) + salt,
                )
            elif op == "allgather":
                send = np.full(2, cart.rank + salt, dtype=np.int64)
                recv = np.zeros(2 * t, dtype=np.int64)
                cart.allgather(send, recv, algorithm=algorithm)
                for i, off in enumerate(cart.nbh):
                    src = topo.translate(cart.rank, tuple(-o for o in off))
                    assert (recv[2 * i : 2 * i + 2] == src + salt).all()
            elif op == "reduce":
                send = np.asarray([float(cart.rank + salt)])
                recv = np.zeros(1)
                cart.reduce_neighbors(send, recv, op="sum",
                                      algorithm=algorithm)
                expect = sum(
                    topo.translate(cart.rank, tuple(-o for o in off)) + salt
                    for off in cart.nbh
                )
                assert recv[0] == expect
            elif op == "ialltoall":
                send = fill_send_alltoall(cart.rank, t, 1) - salt
                recv = np.zeros_like(send)
                h = cart.ialltoall(send, recv, algorithm=algorithm)
                h.wait()
                assert np.array_equal(
                    recv,
                    expected_alltoall(topo, cart.nbh, cart.rank, 1) - salt,
                )
            elif op == "barrier":
                cart.comm.barrier()
        return True

    assert all(run_cartesian((3, 3), NBH, fn, timeout=180))


def test_many_iterations_no_leaks():
    """100 consecutive combining collectives: mailboxes must end empty
    (no stray messages) and results stay correct."""
    topo = CartTopology((2, 3))
    from repro.mpisim.engine import Engine

    engine = Engine(6, timeout=180)

    def fn(cart):
        t = cart.nbh.t
        send = np.zeros(t)
        recv = np.zeros(t)
        op = cart.alltoall_init(send, recv, algorithm="combining")
        for it in range(100):
            send[:] = cart.rank * 1000 + it
            op.execute()
            probe = topo.translate(cart.rank, tuple(-o for o in cart.nbh[0]))
            assert recv[0] == probe * 1000 + it
        return True

    assert all(
        run_cartesian((2, 3), NBH, fn, engine=engine, validate=False)
    )
    assert engine.undelivered_messages() == 0


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_threaded_matches_lockstep(data):
    """The two executors must produce bit-identical results for the
    same schedule and inputs."""
    from repro.core.alltoall_schedule import build_alltoall_schedule
    from repro.core.backend import (
        ScheduleInterpreter,
        ThreadedTransport,
        get_backend,
    )
    from repro.core.schedule import uniform_block_layout
    from repro.mpisim.engine import run_ranks

    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    nbh = random_neighborhood(2, data.draw(st.integers(1, 6)), 2, rng)
    topo = CartTopology((3, 3))
    m = 4
    sizes = [m] * nbh.t
    sched = build_alltoall_schedule(
        nbh,
        uniform_block_layout(sizes, "send"),
        uniform_block_layout(sizes, "recv"),
    )
    sends = [
        rng.integers(0, 255, nbh.t * m).astype(np.uint8)
        for _ in range(topo.size)
    ]

    # lockstep
    bufs = [
        {"send": sends[r].copy(), "recv": np.zeros(nbh.t * m, np.uint8)}
        for r in range(topo.size)
    ]
    get_backend("lockstep").execute_all(topo, sched, bufs)

    # threaded
    def fn(comm):
        recv = np.zeros(nbh.t * m, np.uint8)
        ScheduleInterpreter(
            ThreadedTransport(comm), topo, sched,
            {"send": sends[comm.rank].copy(), "recv": recv},
        ).run()
        return recv

    threaded = run_ranks(topo.size, fn, timeout=120)
    for r in range(topo.size):
        assert np.array_equal(threaded[r], bufs[r]["recv"]), r
