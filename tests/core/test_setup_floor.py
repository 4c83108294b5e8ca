"""Set-up is SPMD data, laid out by one rank and read by the others.

What Section 2.2 makes the same on every rank of a communicator — its
layout, neighbourhood, level-1 schedules, the bounds check of a handle,
the halo datatypes of equal local shapes — exists once per process.
These tests count that it does, and that nothing is shared between
ranks (or communicators) that differ.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.analyze.certificates import GLOBAL_STORE
from repro.apps import GameOfLife, WeightedStencil, weighted
from repro.core import cartcomm as cartcomm_mod
from repro.core import plan as plan_mod
from repro.core import schedule_cache
from repro.core.api import run_cartesian, run_ranks
from repro.core.cartcomm import CartComm, cart_neighborhood_create
from repro.core.neighborhood import Neighborhood
from repro.core.stencils import moore_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import (
    NeighborhoodError,
    RankFailedError,
    ScheduleError,
    UnknownBufferError,
)
from repro.stencil import halo as halo_mod
from repro.stencil.halo import halo_specs
from repro.stencil.kernels import heat_weights, weighted_stencil_global

NBH = moore_neighborhood(2, 1, include_self=False)
DIMS22 = (2, 2)
GENERATIONS = 3


def _board(shape, seed=5):
    return (np.random.default_rng(seed).random(shape) < 0.35).astype(np.uint8)


@pytest.fixture
def cold():
    schedule_cache.cache_clear()
    plan_mod.plan_cache_reset()
    GLOBAL_STORE.clear()
    halo_mod._halo_specs.cache_clear()
    yield
    schedule_cache.cache_clear()
    GLOBAL_STORE.clear()


@pytest.fixture
def no_preemption():
    """The fills of the shared record race benignly (equal values): a
    rank pre-empted inside one lets a sibling do the same work again.
    Exact counts therefore need rank threads that only switch where
    they block — which none of the counted stretches does."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(30.0)
    yield
    sys.setswitchinterval(interval)


class TestOnePerProcess:
    def test_exact_counts_of_one_life_run(self, cold, no_preemption, monkeypatch):
        calls = {"regions": 0, "walks": 0, "topologies": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            halo_mod, "region_from_slices",
            counting("regions", halo_mod.region_from_slices),
        )
        monkeypatch.setattr(
            BlockSet, "validate_against",
            counting("walks", BlockSet.validate_against),
        )
        monkeypatch.setattr(
            cartcomm_mod, "CartTopology",
            counting("topologies", cartcomm_mod.CartTopology),
        )
        app = GameOfLife(_board((64, 64)), (4, 4), GENERATIONS)
        run = app.run(backend="batched")
        assert np.array_equal(run.output, app.sequential())

        # one rank's ROW/COL/COR regions (8 sends + 8 receives), was 256
        assert calls["regions"] == 16
        # one bounds check of the handle's one (schedule, sizes): a send
        # and a receive walk per round of the combining schedule; was 16
        assert calls["walks"] == 2 * 4
        assert calls["topologies"] == 1  # was 16
        # cold, the builder certifies (NumPy lets go of the GIL in
        # there), so how many siblings got to level 2 meanwhile is open
        cold_info = schedule_cache.cache_info()
        assert (cold_info.misses, cold_info.builds) == (1, 1)
        assert cold_info.hits <= 15
        # the plan layer is looked up once per handle, at its first
        # start, whose driver binds the handle's execution for every
        # rank; later starts run that and look nothing up.  The one miss
        # is the certified lowering, filed before anything runs; the
        # first start hits it.  (Per rank, OpStats still books one plan
        # hit per collective — below.)
        cold_plans = CartComm.plan_cache_info()
        assert (cold_plans.misses, cold_plans.hits) == (1, 1)

        # a second run of the same app binds on the record the first one
        # laid out (once per app): a level-1 hit with its bounds verdict
        # on file — no topology, no walk, no level-2 lookup; the plan
        # layer sees the new handle's one lookup
        run = app.run(backend="batched")
        assert np.array_equal(run.output, app.sequential())
        assert calls == {"regions": 16, "walks": 2 * 4, "topologies": 1}
        info = schedule_cache.cache_info()
        assert (info.misses, info.builds, info.hits) == (1, 1, cold_info.hits)
        plans = CartComm.plan_cache_info()
        assert (plans.misses, plans.hits) == (1, 2)

        # a new app of the same problem — a new record, the process-wide
        # caches warm: the first rank to bind takes the schedule from
        # level 2 into the record's level 1, where its 15 siblings find
        # it; the datatypes of this shape are on file
        app = GameOfLife(_board((64, 64)), (4, 4), GENERATIONS)
        run = app.run(backend="batched")
        assert np.array_equal(run.output, app.sequential())
        assert calls == {"regions": 16, "walks": 2 * 2 * 4, "topologies": 2}
        info = schedule_cache.cache_info()
        assert (info.misses, info.builds) == (1, 1)
        assert info.hits == cold_info.hits + 1
        plans = CartComm.plan_cache_info()
        assert (plans.misses, plans.hits) == (1, 3)

        # per-rank accounting as before: every rank one look-up (a hit
        # is a hit at either level), every rank its own collectives
        stats = run.stats
        assert (stats.cache_hits, stats.cache_misses) == (16, 0)
        (key,) = stats.records
        assert key == ("alltoallw", "combining", "batched")
        record = stats.records[key]
        assert record.calls == 16 * GENERATIONS
        assert record.rounds == 16 * GENERATIONS * 4
        assert (stats.plan_hits, stats.plan_misses) == (16 * GENERATIONS, 0)

    def test_every_rank_works_on_the_roots_record(self):
        def fn(cart):
            return cart.record, cart.topo, cart.nbh

        out = run_cartesian((4, 4), NBH, fn)
        record, topo, nbh = out[0]
        assert nbh is NBH and topo == CartTopology((4, 4))
        for other in out[1:]:
            assert other[0] is record and other[1] is topo and other[2] is nbh

    def test_bounds_check_is_once_per_schedule_and_sizes(self, monkeypatch):
        walked = []
        validate = cartcomm_mod.Schedule.validate

        def counting(self, buffers=None):
            walked.append(tuple(sorted((n, a.nbytes) for n, a in buffers.items())))
            return validate(self, buffers)

        monkeypatch.setattr(cartcomm_mod.Schedule, "validate", counting)

        def fn(cart):
            t = cart.neighbor_count()
            for m in (8, 8, 16):  # the second handle repeats the first
                cart.alltoall_init(
                    np.zeros(t * m, np.uint8), np.zeros(t * m, np.uint8),
                    algorithm="trivial",
                ).free()

        run_cartesian((2, 2), NBH, fn)
        assert len(walked) >= 2 and set(walked) == {
            (("recv", 64), ("send", 64)), (("recv", 128), ("send", 128)),
        }
        # a sibling, or a second handle, repeats a walk only when it was
        # pre-empted into one: never all 4 ranks x 3 handles
        assert len(walked) < 12


class TestRanksThatDifferShareNothing:
    def test_uneven_life_board_is_bit_exact_on_threaded(self):
        app = GameOfLife(_board((66, 65)), (4, 4), GENERATIONS)
        run = app.run(backend="threaded")
        assert np.array_equal(run.output, app.sequential())

    def test_uneven_heat_blocks_are_bit_exact_on_threaded(self, rng, monkeypatch):
        grid = rng.random((11, 13))
        weights = heat_weights(2, 0.15)
        app = WeightedStencil(grid, (2, 3), weights, 6)
        shapes = {app.decomp.local_shape(r) for r in range(6)}
        assert len(shapes) == 4  # (6|5) x (5|4|4)
        bound = []

        def recording(interior, *args):
            bound.append((tuple(interior), halo_specs(interior, *args)))
            return bound[-1][1]

        monkeypatch.setattr(weighted, "halo_specs", recording)
        got = app.run(backend="threaded").output
        ref = grid.copy()
        for _ in range(6):
            ref = weighted_stencil_global(ref, weights)
        assert np.array_equal(got, ref)
        # a rank's datatypes are those of its own local shape, shared
        # with exactly the ranks of that shape
        assert len(bound) == 6
        for shape, specs in bound:
            for other_shape, other in bound:
                assert (specs is other) == (shape == other_shape)

    def test_two_communicators_keep_their_level_1_apart(self):
        def fn(comm):
            wide = cart_neighborhood_create(comm, (2, 2), None, NBH)
            flat = cart_neighborhood_create(comm, (4, 1), None, NBH)
            for cart in (wide, flat):
                t = cart.neighbor_count()
                cart.alltoall(
                    np.zeros(t * 8, np.uint8), np.zeros(t * 8, np.uint8),
                    algorithm="trivial",
                )
            return wide.record, flat.record

        out = run_ranks(4, fn, timeout=60)
        wide, flat = out[0]
        assert wide is not flat and wide.schedules is not flat.schedules
        assert all(w is wide and f is flat for w, f in out)
        # same cheap key, two entries: dims are not part of a level-1 key
        assert list(wide.schedules) == list(flat.schedules)
        (a,), (b,) = wide.schedules.values(), flat.schedules.values()
        assert a is not b


class TestHaloDatatypesAreCommittedOnce:
    def test_shared_layouts_are_frozen_and_stay_unpoisoned(self):
        sends, recvs = halo_specs((5, 7), 1, NBH, 8)
        snapshot = [list(bs.blocks) for bs in sends + recvs]
        for bs in sends + recvs:
            with pytest.raises(TypeError, match="frozen"):
                bs.append(BlockRef("grid", 0, 8))
        again = halo_specs([5, 7], 1, Neighborhood(NBH.offsets.copy()), 8)
        assert again[0] is sends and again[1] is recvs  # keyed by value
        assert [list(bs.blocks) for bs in sends + recvs] == snapshot
        # an editable copy is one constructor away, and equal
        mine = BlockSet(sends[0].blocks)
        mine.append(BlockRef("grid", 0, 8))
        assert len(mine) == len(sends[0]) + 1
        assert halo_specs((5, 7), 1, NBH, 8, buffer="other")[0] is not sends

    def test_ranks_that_miss_together_share_one_lay_out(self, monkeypatch):
        """Two threads asking for one shape at once get the same tuples,
        even when the first is pre-empted in the middle of its build."""
        import threading
        import time

        real = halo_mod.region_from_slices

        def slow(*args, **kwargs):
            time.sleep(0.001)  # hand the interpreter to the other thread
            return real(*args, **kwargs)

        monkeypatch.setattr(halo_mod, "region_from_slices", slow)
        halo_mod._halo_specs.cache_clear()
        got = []
        threads = [
            threading.Thread(target=lambda: got.append(halo_specs((6, 5), 1, NBH, 8)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 2 and got[0] is got[1]
        halo_mod._halo_specs.cache_clear()

    def test_signature_is_cached_and_dropped_by_append(self):
        bs = BlockSet([BlockRef("send", 0, 8)])
        first = bs.signature()
        assert first == (("send", 0, 8),) and bs.signature() is first
        assert schedule_cache.layout_signature([bs]) == (first,)
        bs.append(BlockRef("send", 8, 8))
        assert bs.signature() == (("send", 0, 8), ("send", 8, 8))


class TestSection22StaysAPerRankCheck:
    COMMON = Neighborhood([(0, 1), (1, 0)])

    @pytest.mark.parametrize("odd_rank", [0, 1, 3])
    @pytest.mark.parametrize("what", ["t", "offsets"])
    def test_violation_raises_on_the_rank_that_differs(self, what, odd_rank):
        odd = Neighborhood([(0, 1)] if what == "t" else [(0, 1), (1, 1)])
        raised = {}

        def fn(comm):
            nbh = odd if comm.rank == odd_rank else self.COMMON
            try:
                cart_neighborhood_create(comm, (2, 2), None, nbh).comm.barrier()
            except NeighborhoodError as exc:
                raised[comm.rank] = str(exc)
                raise

        with pytest.raises(RankFailedError) as ei:
            run_ranks(4, fn, timeout=20)
        assert isinstance(ei.value.cause, NeighborhoodError)
        # a root that is the odd one out is what the others differ from
        differ = {1, 2, 3} if odd_rank == 0 else {odd_rank}
        assert raised and set(raised) <= differ
        for rank, message in raised.items():
            assert message.startswith(f"rank {rank}: ")
            assert "not Cartesian" in message

    def test_bad_arguments_are_an_error_on_every_rank_not_a_wait(self):
        """The root checks the shared arguments before it shares; what it
        leaves at the rendezvous when they are bad is its error, so a
        rank function that catches the refusal carries on on all p
        ranks — nobody sits waiting for a record that never comes."""
        flat = [0, 1, 1]  # three entries: not a multiple of d = 2

        def fn(comm):
            # rank 3 brought good arguments of its own: it is told that
            # the root's were refused
            offsets = self.COMMON if comm.rank == 3 else flat
            try:
                cart_neighborhood_create(comm, (2, 2), None, offsets)
            except NeighborhoodError as exc:
                return str(exc)

        out = run_ranks(4, fn, timeout=20)
        assert out[0] == out[1] == out[2]
        assert "3 entries is not a multiple of d=2" in out[0]
        assert out[3].startswith("rank 3: the root's arguments were refused")
        assert out[0] in out[3] and "not Cartesian" in out[3]

        def uncaught(comm):
            cart_neighborhood_create(comm, (2, 2), None, flat)

        with pytest.raises(RankFailedError) as ei:
            run_ranks(4, uncaught, timeout=20)
        assert isinstance(ei.value.cause, NeighborhoodError)
        assert "not a multiple of d=2" in str(ei.value.cause)

    def test_same_object_equal_copy_and_permutation_all_pass(self):
        root = Neighborhood([(0, 1), (1, 0), (1, 1)])
        copy = Neighborhood(root.offsets.copy())
        permuted = Neighborhood(root.offsets[::-1].copy())

        def fn(comm):
            nbh = {0: root, 1: root, 2: copy, 3: permuted}[comm.rank]
            # rank 1 also brings its own (equal) dims object
            dims = [2, 2] if comm.rank == 1 else DIMS22
            cart = cart_neighborhood_create(comm, dims, None, nbh)
            # bind only: what a permuted order means for a running
            # collective is the schedule layer's business, not creation's
            buf = np.zeros(cart.neighbor_count() * 4, np.uint8)
            cart._bind_alltoall(buf, buf.copy(), "trivial")
            return cart.record, cart.nbh

        out = run_ranks(4, fn, timeout=20)
        shared = out[0][0]
        assert out[1][0] is shared and out[2][0] is shared
        assert out[2][1] is root  # the equal copy adopted the root's object
        # the permuted list is legal, and keeps its own order and keys
        assert out[3][0] is not shared and out[3][1] is permuted
        assert out[3][0].schedules is not shared.schedules
        assert len(shared.schedules) == 1 and len(out[3][0].schedules) == 1


class TestUnknownBufferIsOneError:
    def test_handle_names_op_missing_and_supplied(self):
        sends, recvs = halo_specs((4, 4), 1, NBH, 1)
        seen = {}

        def fn(cart):
            try:
                cart.alltoallw_init(
                    {"grod": np.zeros((6, 6), np.uint8)}, sends, recvs,
                    algorithm="trivial",
                )
            except UnknownBufferError as exc:
                seen[cart.rank] = exc
                raise

        with pytest.raises(RankFailedError) as ei:
            run_cartesian((2, 2), NBH, fn, timeout=20)
        exc = ei.value.cause
        assert isinstance(exc, ScheduleError) and isinstance(exc, KeyError)
        for part in ("alltoallw", "'grid'", "'grod'"):
            assert part in str(exc)
        assert not str(exc).startswith(("'", '"'))  # not KeyError's repr
        assert seen and all(str(e) == str(exc) for e in seen.values())
