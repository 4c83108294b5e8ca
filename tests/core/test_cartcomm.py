"""Public API: cart_neighborhood_create, helpers, operations."""

import numpy as np
import pytest

from repro.core.api import run_cartesian, run_ranks
from repro.core.cartcomm import cart_neighborhood_create
from repro.core.neighborhood import Neighborhood
from repro.core.stencils import moore_neighborhood, parameterized_stencil
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import NeighborhoodError
from repro.netsim.machine import MachineModel

from tests.conftest import (
    expected_allgather,
    expected_alltoall,
    fill_send_allgather,
    fill_send_alltoall,
)

NBH9 = moore_neighborhood(2, 1, include_self=False)
MODEL = MachineModel("test", alpha=1e-6, beta=1e-10)


class TestCreate:
    def test_size_must_match(self):
        def fn(comm):
            cart_neighborhood_create(comm, (5, 5), None, NBH9)

        with pytest.raises(Exception, match="size"):
            run_ranks(4, fn, timeout=20)

    def test_flat_offsets_accepted(self):
        def fn(comm):
            cart = cart_neighborhood_create(
                comm, (2, 2), None, [0, 1, 0, -1, 1, 0, -1, 0]
            )
            return cart.neighbor_count()

        assert run_ranks(4, fn, timeout=20) == [4] * 4

    def test_flat_offsets_bad_arity(self):
        def fn(comm):
            cart_neighborhood_create(comm, (2, 2), None, [0, 1, 0])

        with pytest.raises(Exception, match="multiple"):
            run_ranks(4, fn, timeout=20)

    def test_isomorphism_check_rejects_differing(self):
        def fn(comm):
            if comm.rank == 1:
                nbh = Neighborhood([(0, 1), (1, 1)])
            else:
                nbh = Neighborhood([(0, 1), (1, 0)])
            cart_neighborhood_create(comm, (2, 2), None, nbh)

        with pytest.raises(Exception, match="not Cartesian"):
            run_ranks(4, fn, timeout=20)

    def test_isomorphism_check_rejects_differing_t(self):
        def fn(comm):
            if comm.rank == 2:
                nbh = Neighborhood([(0, 1)])
            else:
                nbh = Neighborhood([(0, 1), (1, 0)])
            cart_neighborhood_create(comm, (2, 2), None, nbh)

        with pytest.raises(Exception, match="not Cartesian"):
            run_ranks(4, fn, timeout=20)

    def test_weights_attached(self):
        def fn(comm):
            cart = cart_neighborhood_create(
                comm, (2, 2), None, [(0, 1), (1, 0)], weights=[5, 7]
            )
            return cart.neighbor_weights()

        assert run_ranks(4, fn, timeout=20) == [(5, 7)] * 4

    def test_info_selects_backend(self):
        def fn(comm):
            cart = cart_neighborhood_create(
                comm, (2, 2), None, NBH9, info={"backend": "batched"}
            )
            return cart.backend.name

        assert run_ranks(4, fn, timeout=20) == ["batched"] * 4


class TestIsomorphismCheck:
    """Section 2.2's check runs at the communicator's rendezvous: the
    ranks read the root's ``(t, sorted offsets)`` by reference
    (``Communicator.share``) instead of receiving a broadcast of it —
    same comparisons, same errors on the same ranks, the root still
    leaves first, no message."""

    @pytest.mark.parametrize("odd_rank", [0, 2])
    @pytest.mark.parametrize("what", ["t", "offsets"])
    def test_raises_only_on_ranks_that_differ_from_the_root(
        self, what, odd_rank
    ):
        from repro.mpisim.exceptions import AbortError, RankFailedError

        common = Neighborhood([(0, 1), (1, 0)])
        odd = Neighborhood([(0, 1)] if what == "t" else [(0, 1), (1, 1)])
        outcome = {}

        def fn(comm):
            nbh = odd if comm.rank == odd_rank else common
            try:
                cart = cart_neighborhood_create(comm, (2, 2), None, nbh)
                # what the ranks that passed are then aborted out of
                cart.comm.barrier()
            except BaseException as exc:
                outcome[comm.rank] = (type(exc), str(exc))
                raise

        with pytest.raises(RankFailedError) as ei:
            run_ranks(4, fn, timeout=20)
        # a root that is the odd one out is what everybody else differs
        # from; the first of them to say so aborts the run, which the
        # others may be caught by before they have compared
        differ = {1, 2, 3} if odd_rank == 0 else {odd_rank}
        assert isinstance(ei.value.cause, NeighborhoodError)
        assert sorted(outcome) == [0, 1, 2, 3]
        raised = {r for r, (kind, _) in outcome.items() if kind is not AbortError}
        assert ei.value.rank in raised and raised <= differ
        for rank in raised:
            kind, message = outcome[rank]
            assert kind is NeighborhoodError
            assert message.startswith(f"rank {rank}: neighborhood")
            assert "not Cartesian" in message
            assert ("size" in message) == (what == "t")

    def test_a_root_that_never_creates_is_named_by_the_deadlock_report(self):
        """The others need the root's pair and wait for it — at the
        rendezvous, so the report says where.  (Nobody needs a leaf's:
        as under the broadcast this check used to be, a leaf that never
        creates is missed at the first collective, not here.)"""
        from repro.mpisim.engine import Engine
        from repro.mpisim.exceptions import DeadlockError

        def fn(comm):
            if comm.rank != 0:
                cart_neighborhood_create(comm, (2, 2), None, NBH9)

        with pytest.raises(DeadlockError) as ei:
            Engine(4, timeout=1.0).run(fn)
        assert set(ei.value.stuck_ranks) == {1, 2, 3}
        for rank in (1, 2, 3):
            detail = ei.value.stuck_info[rank].detail
            assert "rendezvous(comm=('world', 1))" in detail
            assert "the root (rank 0 of it) has not arrived" in detail

    def test_creation_sends_no_message(self):
        from repro.mpisim.engine import Engine

        engine = Engine(4, timeout=20, tracing=True)

        def fn(comm):
            cart_neighborhood_create(comm, (2, 2), None, NBH9)
            return [e.kind for e in engine.trace.for_rank(comm.rank)]

        for kinds in engine.run(fn):
            assert "isend" not in kinds and "irecv" not in kinds

    @pytest.mark.parametrize("backend", ["threaded", "batched"])
    def test_sub_communicators_meet_separately(self, backend):
        """Two halves of a split create different neighbourhoods at the
        same time: each is compared within its own half only (and each
        half's collectives meet at its own rendezvous)."""

        def fn(comm):
            color = comm.rank % 2
            sub = comm.split(color)
            nbh = Neighborhood([(1,)] if color == 0 else [(1,), (-1,)])
            cart = cart_neighborhood_create(
                sub, (2,), None, nbh, backend=backend
            )
            send = np.full(cart.neighbor_count(), comm.rank, np.int64)
            recv = np.zeros_like(send)
            cart.alltoall(send, recv, algorithm="trivial")
            return cart.neighbor_count(), recv.tolist()

        other = {0: 2, 1: 3, 2: 0, 3: 1}
        assert run_ranks(4, fn, timeout=20) == [
            (1 + r % 2, [other[r]] * (1 + r % 2)) for r in range(4)
        ]


class TestHelpers:
    def test_listing2_helpers(self):
        def fn(cart):
            # relative_rank / relative_shift / relative_coord
            right = cart.relative_rank((0, 1))
            src, tgt = cart.relative_shift((0, 1))
            assert tgt == right
            assert cart.relative_coord(right) == (0, 1)
            assert cart.relative_rank((0, 0)) == cart.rank
            assert cart.neighbor_count() == 8
            sources, targets = cart.neighbor_get()
            for off, s, t in zip(cart.nbh, sources, targets):
                assert cart.relative_shift(off) == (s, t)
            return True

        assert all(run_cartesian((3, 3), NBH9, fn))

    def test_coords_and_dims(self):
        def fn(cart):
            assert cart.dims == (3, 3)
            assert cart.periods == (True, True)
            return cart.coords()

        res = run_cartesian((3, 3), NBH9, fn)
        assert res == [divmod(r, 3) for r in range(9)]


class TestAlgorithmSelection:
    def test_unknown_algorithm(self):
        def fn(cart):
            cart.alltoall(np.zeros(8), np.zeros(8), algorithm="nope")

        with pytest.raises(Exception, match="unknown algorithm"):
            run_cartesian((2, 2), Neighborhood([(1, 0)]), fn)

    def test_combining_requires_periodic(self):
        def fn(cart):
            cart.alltoall(np.zeros(8), np.zeros(8), algorithm="combining")

        with pytest.raises(Exception, match="periodic"):
            run_cartesian(
                (2, 2), Neighborhood([(1, 0)]), fn, periods=(False, True)
            )

    def test_select_algorithm_small_blocks(self):
        nbh = parameterized_stencil(3, 3, -1)
        assert MODEL.select_algorithm(nbh, "alltoall", 4) == "combining"

    def test_select_algorithm_large_blocks(self):
        nbh = parameterized_stencil(3, 3, -1)
        assert MODEL.select_algorithm(nbh, "alltoall", 10**8) == "trivial"

    def test_allgather_combining_always_for_moore(self):
        nbh = parameterized_stencil(3, 3, -1)
        # V_allgather == trivial volume, C << t: combining at any m
        assert MODEL.select_algorithm(nbh, "allgather", 10**8) == "combining"


@pytest.mark.parametrize("algorithm", ["trivial", "combining", "direct", "auto"])
class TestOperations:
    def test_alltoall(self, algorithm):
        topo = CartTopology((3, 3))

        def fn(cart):
            m = 2
            send = fill_send_alltoall(cart.rank, cart.nbh.t, m)
            recv = np.zeros_like(send)
            cart.alltoall(send, recv, algorithm=algorithm)
            assert np.array_equal(
                recv, expected_alltoall(topo, cart.nbh, cart.rank, m)
            )
            return True

        assert all(run_cartesian((3, 3), NBH9, fn))

    def test_allgather(self, algorithm):
        topo = CartTopology((3, 3))

        def fn(cart):
            m = 3
            send = fill_send_allgather(cart.rank, m)
            recv = np.zeros(cart.nbh.t * m, dtype=np.int64)
            cart.allgather(send, recv, algorithm=algorithm)
            assert np.array_equal(
                recv, expected_allgather(topo, cart.nbh, cart.rank, m)
            )
            return True

        assert all(run_cartesian((3, 3), NBH9, fn))

    def test_alltoallv(self, algorithm):
        """Paper's m(d−z) block-size rule, counts uniform across ranks."""
        nbh = moore_neighborhood(2, 1)  # includes self
        topo = CartTopology((3, 3))
        counts = [3 * (2 - z) for z in nbh.hops]

        def fn(cart):
            total = sum(counts)
            send = np.empty(total, dtype=np.int64)
            pos = 0
            for i, c in enumerate(counts):
                send[pos : pos + c] = cart.rank * 10000 + i
                pos += c
            recv = np.zeros(total, dtype=np.int64)
            cart.alltoallv(send, counts, recv, counts, algorithm=algorithm)
            pos = 0
            for i, (off, c) in enumerate(zip(cart.nbh, counts)):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                assert (recv[pos : pos + c] == src * 10000 + i).all()
                pos += c
            return True

        assert all(run_cartesian((3, 3), nbh, fn))

    def test_allgatherv_with_displacements(self, algorithm):
        nbh = NBH9
        topo = CartTopology((3, 3))

        def fn(cart):
            m = 2
            t = cart.nbh.t
            send = np.full(m, cart.rank, dtype=np.int64)
            # reversed placement: block i lands at slot t-1-i
            displs = [(t - 1 - i) * m for i in range(t)]
            recv = np.zeros(t * m, dtype=np.int64)
            cart.allgatherv(
                send, recv, [m] * t, rdispls=displs, algorithm=algorithm
            )
            for i, off in enumerate(cart.nbh):
                src = topo.translate(cart.rank, tuple(-o for o in off))
                lo = displs[i]
                assert (recv[lo : lo + m] == src).all()
            return True

        assert all(run_cartesian((3, 3), nbh, fn))

    def test_alltoallw_multi_buffer(self, algorithm):
        """w variant gathering from one buffer into another, with
        per-neighbor block sets."""
        nbh = Neighborhood([(0, 1), (0, -1), (1, 0), (-1, 0)])
        topo = CartTopology((3, 3))

        def fn(cart):
            t = cart.nbh.t
            m = 8  # bytes
            src_buf = np.empty(t * m, np.uint8)
            for i in range(t):
                src_buf[i * m : (i + 1) * m] = (cart.rank * 9 + i) % 251
            dst_buf = np.zeros(t * m, np.uint8)
            from repro.mpisim.datatypes import BlockRef, BlockSet

            sendtypes = [
                BlockSet([BlockRef("a", i * m, m)]) for i in range(t)
            ]
            recvtypes = [
                BlockSet([BlockRef("b", i * m, m)]) for i in range(t)
            ]
            cart.alltoallw(
                {"a": src_buf, "b": dst_buf}, sendtypes, recvtypes,
                algorithm=algorithm,
            )
            for i, off in enumerate(cart.nbh):
                s = topo.translate(cart.rank, tuple(-o for o in off))
                assert (dst_buf[i * m : (i + 1) * m] == (s * 9 + i) % 251).all()
            return True

        assert all(run_cartesian((3, 3), nbh, fn))

    def test_allgatherw(self, algorithm):
        """The paper's proposed Cart_allgatherw: same block, different
        receive layouts (here: scattered into two buffers)."""
        nbh = Neighborhood([(0, 1), (1, 0)])
        topo = CartTopology((3, 3))

        def fn(cart):
            from repro.mpisim.datatypes import BlockRef, BlockSet

            m = 4
            send = np.full(m, cart.rank + 1, np.uint8)
            out_a = np.zeros(m, np.uint8)
            out_b = np.zeros(m, np.uint8)
            cart.allgatherw(
                {"send": send, "a": out_a, "b": out_b},
                BlockSet([BlockRef("send", 0, m)]),
                [BlockSet([BlockRef("a", 0, m)]), BlockSet([BlockRef("b", 0, m)])],
                algorithm=algorithm,
            )
            s0 = topo.translate(cart.rank, (0, -1))
            s1 = topo.translate(cart.rank, (-1, 0))
            assert (out_a == s0 + 1).all()
            assert (out_b == s1 + 1).all()
            return True

        assert all(run_cartesian((3, 3), nbh, fn))


class TestOperationErrors:
    def test_alltoall_bad_buffer_size(self):
        def fn(cart):
            cart.alltoall(np.zeros(7), np.zeros(7))

        with pytest.raises(Exception, match="not divisible"):
            run_cartesian((2, 2), Neighborhood([(1, 0), (0, 1)]), fn)

    def test_alltoall_mismatched_buffers(self):
        def fn(cart):
            cart.alltoall(np.zeros(4), np.zeros(8))

        with pytest.raises(Exception, match="match"):
            run_cartesian((2, 2), Neighborhood([(1, 0), (0, 1)]), fn)

    def test_allgather_bad_recv_size(self):
        def fn(cart):
            cart.allgather(np.zeros(4), np.zeros(4))

        with pytest.raises(Exception, match="blocks"):
            run_cartesian((2, 2), Neighborhood([(1, 0), (0, 1)]), fn)

    def test_alltoallv_count_mismatch(self):
        def fn(cart):
            cart.alltoallv(np.zeros(4), [2, 2], np.zeros(4), [3, 1])

        with pytest.raises(Exception, match="matching counts"):
            run_cartesian((2, 2), Neighborhood([(1, 0), (0, 1)]), fn)

    def test_allgatherv_nonuniform_counts(self):
        def fn(cart):
            cart.allgatherv(np.zeros(2), np.zeros(4), [2, 1])

        with pytest.raises(Exception, match="uniform"):
            run_cartesian((2, 2), Neighborhood([(1, 0), (0, 1)]), fn)


class TestLauncherParity:
    """Blocking, ``i*`` and ``*_init`` launch the same bound operation,
    so they reject the same bad arguments with the same ValueError."""

    # case -> (operation, positional arguments on a t=8 neighborhood)
    CASES = {
        "size-not-divisible-by-t": (
            "alltoall",
            lambda: (np.zeros(29, np.uint8), np.zeros(29, np.uint8)),
        ),
        "send-recv-byte-mismatch": (
            "alltoall",
            lambda: (np.zeros(16, np.uint8), np.zeros(32, np.uint8)),
        ),
        "oversized-allgather-recvbuf": (
            "allgather",
            lambda: (np.zeros(2, np.uint8), np.zeros(24, np.uint8)),
        ),
        "sendcounts-ne-recvcounts": (
            "alltoallv",
            lambda: (
                np.zeros(8, np.uint8), [1] * 8,
                np.zeros(9, np.uint8), [2] + [1] * 7,
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_value_error_from_every_launcher(self, case):
        op, make_args = self.CASES[case]

        def fn(cart):
            launchers = [op, f"{op}_init"]
            if hasattr(cart, f"i{op}"):
                launchers.append(f"i{op}")
            seen = {}
            for name in launchers:
                try:
                    getattr(cart, name)(*make_args())
                except Exception as exc:  # noqa: BLE001 - compared below
                    seen[name] = (type(exc), str(exc))
                else:
                    seen[name] = None
            return seen

        seen = run_cartesian((3, 3), NBH9, fn)[0]
        assert len(seen) == (2 if op == "alltoallv" else 3)
        outcomes = set(seen.values())
        assert len(outcomes) == 1, seen
        (outcome,) = outcomes
        assert outcome is not None and outcome[0] is ValueError, seen


class TestScheduleCache:
    def test_regular_schedules_cached(self):
        def fn(cart):
            def sched(m, algorithm):
                send, recv = np.zeros(m, np.uint8), np.zeros(m, np.uint8)
                return cart.alltoall_init(send, recv, algorithm).schedule

            a = sched(8, "combining")
            b = sched(8, "combining")
            c = sched(16, "combining")
            d = sched(8, "trivial")
            return (a is b, a is not c, a is not d)

        res = run_cartesian((2, 2), Neighborhood([(1, 0)]), fn)
        assert res[0] == (True, True, True)
