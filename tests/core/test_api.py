"""Top-level entry points (run_cartesian / run_ranks)."""

import numpy as np
import pytest

from repro.core.api import run_cartesian, run_ranks
from repro.core.neighborhood import Neighborhood
from repro.mpisim.engine import Engine

NBH = Neighborhood([(0, 1), (1, 0)])


class TestRunCartesian:
    def test_rank_count_from_dims(self):
        res = run_cartesian((2, 3), NBH, lambda cart: cart.rank)
        assert res == list(range(6))

    def test_periods_forwarded(self):
        res = run_cartesian(
            (2, 2), NBH, lambda cart: cart.periods, periods=(False, True)
        )
        assert res[0] == (False, True)

    def test_weights_forwarded(self):
        res = run_cartesian(
            (2, 2), NBH, lambda cart: cart.neighbor_weights(), weights=[2, 3]
        )
        assert res[0] == (2, 3)

    def test_info_forwarded(self):
        res = run_cartesian(
            (2, 2), NBH, lambda cart: cart.stats is not None,
            info={"collect_stats": True},
        )
        assert res == [True] * 4

    def test_engine_reuse(self):
        engine = Engine(4, timeout=30)
        a = run_cartesian((2, 2), NBH, lambda cart: cart.rank, engine=engine)
        b = run_cartesian((2, 2), NBH, lambda cart: -cart.rank, engine=engine)
        assert a == [0, 1, 2, 3] and b == [0, -1, -2, -3]

    def test_engine_size_mismatch(self):
        engine = Engine(4)
        with pytest.raises(ValueError, match="need 6"):
            run_cartesian((2, 3), NBH, lambda cart: None, engine=engine)

    def test_validate_flag_skips_check(self):
        # with validate=False a non-isomorphic setup passes creation
        # (and is the caller's responsibility)
        def fn(comm):
            from repro.core.cartcomm import cart_neighborhood_create

            nbh = (
                Neighborhood([(0, 1)])
                if comm.rank == 0
                else Neighborhood([(1, 0)])
            )
            cart = cart_neighborhood_create(
                comm, (2, 2), None, nbh, validate=False
            )
            return cart.neighbor_count()

        assert run_ranks(4, fn, timeout=30) == [1] * 4

    def test_offsets_as_array(self):
        arr = np.asarray([[0, 1], [1, 0]])
        res = run_cartesian((2, 2), arr, lambda cart: cart.neighbor_count())
        assert res == [2] * 4


class TestRunRanks:
    def test_tracing_flag(self):
        # tracing run must not blow up even with no communication
        assert run_ranks(2, lambda comm: comm.rank, tracing=True) == [0, 1]

    def test_args(self):
        res = run_ranks(2, lambda comm, x: x * 2, args=[(3,), (5,)])
        assert res == [6, 10]
