"""Split-phase non-blocking collectives."""

import numpy as np
import pytest

from repro.core.api import run_cartesian
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology

from tests.conftest import expected_alltoall, fill_send_alltoall

NBH = moore_neighborhood(2, 1, include_self=False)


@pytest.mark.parametrize("algorithm", ["trivial", "combining", "direct"])
class TestBasicCompletion:
    def test_start_wait_result(self, algorithm):
        topo = CartTopology((3, 3))

        def fn(cart):
            m = 2
            send = fill_send_alltoall(cart.rank, cart.nbh.t, m)
            recv = np.zeros_like(send)
            op = cart.ialltoall(send, recv, algorithm=algorithm)
            op.wait()
            assert op.completed
            return np.array_equal(
                recv, expected_alltoall(topo, cart.nbh, cart.rank, m)
            )

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))

    def test_iallgather(self, algorithm):
        topo = CartTopology((3, 3))

        def fn(cart):
            t = cart.nbh.t
            send = np.full(2, float(cart.rank))
            recv = np.zeros(2 * t)
            op = cart.iallgather(send, recv, algorithm=algorithm)
            op.wait()
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert (recv[2 * i : 2 * i + 2] == src).all()
            return True

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))


class TestOverlap:
    def test_compute_between_start_and_wait(self):
        """Local work mutating unrelated data between start and wait
        must not disturb the collective."""
        topo = CartTopology((3, 3))

        def fn(cart):
            m = 4
            send = fill_send_alltoall(cart.rank, cart.nbh.t, m)
            recv = np.zeros_like(send)
            op = cart.ialltoall(send, recv, algorithm="combining")
            # "computation" — a pile of local work
            acc = 0.0
            for i in range(2000):
                acc += (i * cart.rank) % 7
            op.wait()
            assert np.array_equal(
                recv, expected_alltoall(topo, cart.nbh, cart.rank, m)
            )
            return acc >= 0

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))

    def test_two_outstanding_collectives(self):
        """Two overlapping ialltoalls get distinct tags: no
        cross-matching even when their phases interleave."""
        topo = CartTopology((3, 3))

        def fn(cart):
            t = cart.nbh.t
            send_a = fill_send_alltoall(cart.rank, t, 1)
            send_b = fill_send_alltoall(cart.rank, t, 1) + 50_000
            recv_a = np.zeros_like(send_a)
            recv_b = np.zeros_like(send_b)
            op_a = cart.ialltoall(send_a, recv_a, algorithm="combining")
            op_b = cart.ialltoall(send_b, recv_b, algorithm="combining")
            # complete them in reverse start order
            op_b.wait()
            op_a.wait()
            exp = expected_alltoall(topo, cart.nbh, cart.rank, 1)
            assert np.array_equal(recv_a, exp)
            assert np.array_equal(recv_b, exp + 50_000)
            return True

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))

    def test_mixed_with_blocking(self):
        """A blocking collective issued between start and wait of a
        non-blocking one (distinct tags keep them separate)."""
        topo = CartTopology((3, 3))

        def fn(cart):
            t = cart.nbh.t
            send_nb = fill_send_alltoall(cart.rank, t, 1)
            recv_nb = np.zeros_like(send_nb)
            op = cart.ialltoall(send_nb, recv_nb, algorithm="combining")
            send_bl = np.full(t, float(cart.rank))
            recv_bl = np.zeros(t)
            cart.alltoall(send_bl, recv_bl, algorithm="trivial")
            op.wait()
            exp = expected_alltoall(topo, cart.nbh, cart.rank, 1)
            assert np.array_equal(recv_nb, exp)
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert recv_bl[i] == src
            return True

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))


class TestProgressInterface:
    def test_test_drives_completion(self):
        topo = CartTopology((3, 3))

        def fn(cart):
            m = 1
            send = fill_send_alltoall(cart.rank, cart.nbh.t, m)
            recv = np.zeros_like(send)
            op = cart.ialltoall(send, recv, algorithm="combining")
            spins = 0
            while not op.test():
                spins += 1
                if spins > 10**6:  # pragma: no cover
                    raise RuntimeError("no progress")
            assert op.completed
            return np.array_equal(
                recv, expected_alltoall(topo, cart.nbh, cart.rank, m)
            )

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))

    def test_wait_idempotent(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.ialltoall(np.zeros(t), np.zeros(t))
            op.wait()
            op.wait()  # second wait is a no-op
            return op.completed

        assert all(run_cartesian((3, 3), NBH, fn, timeout=120))

    def test_phases_remaining_decreases(self):
        def fn(cart):
            t = cart.nbh.t
            op = cart.ialltoall(
                np.zeros(t), np.zeros(t), algorithm="combining"
            )
            before = op.phases_remaining
            op.wait()
            return (before, op.phases_remaining)

        res = run_cartesian((3, 3), NBH, fn, timeout=120)
        before, after = res[0]
        assert before == 2  # d phases for the 2-D stencil
        assert after == 0

    def test_buffer_validation(self):
        def fn(cart):
            cart.ialltoall(np.zeros(7), np.zeros(7))

        with pytest.raises(Exception, match="not divisible"):
            run_cartesian((3, 3), NBH, fn, timeout=60)

    def test_iallgather_buffer_validation(self):
        def fn(cart):
            cart.iallgather(np.zeros(4), np.zeros(4))

        with pytest.raises(Exception, match="blocks"):
            run_cartesian((3, 3), NBH, fn, timeout=60)
