"""Property-based conformance suite (hypothesis).

Three families of randomized checks:

* **Differential tests** — for random ``(dims, periods, offsets)``, the
  message-combining alltoall/allgather schedules must fill the receive
  buffers byte-identically to the trivial algorithm executed on the same
  inputs.  The trivial algorithm is the executable definition (Listing
  4), so agreement certifies the combining schedules' semantics on
  arbitrary topologies, including non-periodic boundaries and repeated
  or self offsets.

* **Lowering tests** — random run lists (alignment 1–8, odd capacities,
  empty blocks, misaligned arrays): the word-granular kernels of
  :mod:`repro.core.plan` must move exactly the bytes their
  :class:`~repro.mpisim.datatypes.BlockSet` moves, per rank, batched
  and delivered in place; and the lowering's hazard verdict is the
  byte-set intersection.

* **Invariant tests** — Propositions 3.2/3.3 on randomized
  neighborhoods: the combining alltoall uses exactly ``C = Σ_k C_k``
  rounds and sends ``V = Σ_i z_i`` blocks; the combining allgather uses
  the same round count and sends one block per routing-tree edge.

* **Verifier soundness** — a drawn case corrupted by a drawn mutator of
  the mutant registry (``tests/analyze/mutants.py``): whatever the
  static verifier certifies computes the collective's definition on
  the threaded and batched backends and on the walk.  The checks the
  kill matrix deleted rest on this.

Profiles are registered in ``tests/conftest.py``; CI runs with
``HYPOTHESIS_PROFILE=ci`` (derandomized).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.analyze.schedule_verifier import (
    ALLGATHER_KINDS,
    ALLTOALL_KINDS,
    SWEEP_KINDS,
    build_for_kind,
    verify_schedule,
)
from repro.core.allgather_schedule import AllgatherTree, build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import get_backend
from repro.core.builders import SCHEDULE_BUILDERS
from repro.core.backend.lockstep import WALK
from repro.core.neighborhood import Neighborhood
from repro.core.plan import (
    _UNLOWERED,
    GLOBAL_POOL,
    compile_batched_plan,
    compile_blockset,
    compile_copies,
    compile_delivery,
    zip_runs,
)
from repro.core.schedule import (
    LocalCopy,
    Phase,
    Round,
    Schedule,
    uniform_block_layout,
)
from repro.core.stencils import moore_neighborhood, random_neighborhood
from repro.core.topology import CartTopology
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)
from repro.core.verify import verify_allgather, verify_alltoall
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError
from tests.analyze.mutants import SCHEDULE_MUTATORS
from tests.conftest import with_deliveries

# Grid shapes with at most 24 ranks: lockstep execution is O(p · V · m),
# so these keep each example comfortably under a millisecond-scale cost
# while still covering 1-D through 3-D topologies.
_DIMS_POOL = (
    (1,),
    (2,),
    (3,),
    (4,),
    (6,),
    (8,),
    (12,),
    (1, 3),
    (2, 1),
    (2, 2),
    (2, 3),
    (3, 3),
    (2, 4),
    (4, 3),
    (1, 2, 2),
    (2, 2, 2),
    (2, 2, 3),
)


@st.composite
def cartesian_case(draw, periodic=False):
    """A random (topology, neighborhood, block size) triple: extent-1
    and extent-2 dimensions, zero and duplicate offsets, odd block
    sizes.

    ``periodic=True`` forces a torus: the message-combining schedules
    require full periodicity (multi-hop forwarding is unconditional
    SPMD, so mesh boundaries would forward junk — ``CartComm`` rejects
    that combination with a :class:`TopologyError`).  ``t = 0`` draws
    the zero offset alone: a neighborhood with no offset at all is
    refused at construction (``test_empty_rejected``), and one with no
    communicating neighbor is the closest admissible case.
    """
    dims = draw(st.sampled_from(_DIMS_POOL))
    d = len(dims)
    if periodic:
        periods = (True,) * d
    else:
        periods = tuple(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    t = draw(st.integers(min_value=0, max_value=6))
    offsets = draw(
        st.lists(
            st.tuples(*(st.integers(-2, 2) for _ in range(d))),
            min_size=t,
            max_size=t,
        )
    )
    if not offsets or draw(st.booleans()):
        offsets.append((0,) * d)
    if draw(st.booleans()):
        offsets.append(offsets[0])
    m = draw(st.integers(min_value=1, max_value=9))
    return CartTopology(dims, periods), Neighborhood(offsets), m


def _fresh_buffers(p: int, send_len: int, recv_len: int) -> list[dict]:
    """Per-rank buffers: deterministic distinct send bytes, zeroed recv."""
    bufs = []
    for r in range(p):
        rng = np.random.default_rng(r * 7919 + 13)
        bufs.append(
            {
                "send": rng.integers(0, 256, send_len).astype(np.uint8),
                "recv": np.zeros(recv_len, np.uint8),
            }
        )
    return bufs


# ----------------------------------------------------------------------
# differential: combining ≡ trivial, byte for byte
# ----------------------------------------------------------------------
class TestDifferential:
    @given(
        st.sampled_from(_DIMS_POOL),
        st.data(),
        st.sampled_from(
            ["reduce", "reduce-scatter", "allreduce", "trivial-reduce", "trivial-reduce-scatter"]
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_a_reduction_runs_its_fused_maps(self, dims, data, kind, words):
        """A reduction's ``batched`` calls run its fused maps with the
        folds between, the first (a plan miss, which lowers them) and
        the second alike.  Both leave the walk's bytes, bit for bit, on
        any dims and periods — or all three refuse where some rank gets
        no contribution, and that plan has no maps."""
        d = len(dims)
        periods = tuple(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
        topo, nbh, m = CartTopology(dims, periods), moore_neighborhood(d, 1), 8 * words
        sched = SCHEDULE_BUILDERS[kind](nbh, m_bytes=m, dtype="int64", op="sum")
        ssize = nbh.t * m if kind.endswith("reduce-scatter") else m
        runs = [
            _fresh_buffers(topo.size, ssize, nbh.t * m if kind == "allreduce" else m)
            for _ in range(3)
        ]

        def run(backend, bufs):
            try:
                backend.execute_all(topo, sched, bufs)
            except ScheduleError as exc:
                return str(exc)

        first = run(get_backend("batched"), runs[0])
        [plan] = sched._plans.values()
        assert plan._fused is not _UNLOWERED
        refused = run(get_backend("batched"), runs[1])
        assert first == refused == run(WALK, runs[2])
        assert (refused is None) == (plan.fused is not None)
        for got, want in ((runs[0], runs[2]), (runs[1], runs[2])):
            for r in range(topo.size):
                assert all(np.array_equal(got[r][n], want[r][n]) for n in want[r])
        assert GLOBAL_POOL.stats().outstanding_bytes == 0

    @given(cartesian_case(periodic=True))
    def test_alltoall_combining_matches_trivial(self, case):
        topo, nbh, m = case
        sizes = [m] * nbh.t
        send = uniform_block_layout(sizes, "send")
        recv = uniform_block_layout(sizes, "recv")
        trivial = build_trivial_alltoall_schedule(nbh, send, recv)
        combining = build_alltoall_schedule(nbh, send, recv)

        ref = _fresh_buffers(topo.size, nbh.t * m, nbh.t * m)
        got = _fresh_buffers(topo.size, nbh.t * m, nbh.t * m)
        get_backend("lockstep").execute_all(topo, trivial, ref)
        get_backend("lockstep").execute_all(topo, combining, got)
        for r in range(topo.size):
            assert np.array_equal(got[r]["recv"], ref[r]["recv"]), (
                f"rank {r}: combining alltoall differs from trivial "
                f"(dims={topo.dims}, periods={topo.periods}, "
                f"offsets={nbh.offsets.tolist()}, m={m})"
            )

    @given(cartesian_case(periodic=True))
    def test_allgather_combining_matches_trivial(self, case):
        topo, nbh, m = case
        send = uniform_block_layout([m], "send")[0]
        recv = uniform_block_layout([m] * nbh.t, "recv")
        trivial = build_trivial_allgather_schedule(nbh, send, recv)
        combining = build_allgather_schedule(nbh, send, recv)

        ref = _fresh_buffers(topo.size, m, nbh.t * m)
        got = _fresh_buffers(topo.size, m, nbh.t * m)
        get_backend("lockstep").execute_all(topo, trivial, ref)
        get_backend("lockstep").execute_all(topo, combining, got)
        for r in range(topo.size):
            assert np.array_equal(got[r]["recv"], ref[r]["recv"]), (
                f"rank {r}: combining allgather differs from trivial "
                f"(dims={topo.dims}, periods={topo.periods}, "
                f"offsets={nbh.offsets.tolist()}, m={m})"
            )

    @given(cartesian_case())
    def test_direct_matches_trivial_any_periods(self, case):
        # Direct delivery is defined on meshes too (missing neighbors
        # just skip), so this differential exercises random periodicity,
        # including non-periodic boundaries.
        topo, nbh, m = case
        sizes = [m] * nbh.t
        send = uniform_block_layout(sizes, "send")
        recv = uniform_block_layout(sizes, "recv")
        ref = _fresh_buffers(topo.size, nbh.t * m, nbh.t * m)
        got = _fresh_buffers(topo.size, nbh.t * m, nbh.t * m)
        get_backend("lockstep").execute_all(
            topo, build_trivial_alltoall_schedule(nbh, send, recv), ref
        )
        get_backend("lockstep").execute_all(
            topo, build_direct_alltoall_schedule(nbh, send, recv), got
        )
        for r in range(topo.size):
            assert np.array_equal(got[r]["recv"], ref[r]["recv"])

        sendg = uniform_block_layout([m], "send")[0]
        refg = _fresh_buffers(topo.size, m, nbh.t * m)
        gotg = _fresh_buffers(topo.size, m, nbh.t * m)
        get_backend("lockstep").execute_all(
            topo, build_trivial_allgather_schedule(nbh, sendg, recv), refg
        )
        get_backend("lockstep").execute_all(
            topo, build_direct_allgather_schedule(nbh, sendg, recv), gotg
        )
        for r in range(topo.size):
            assert np.array_equal(gotg[r]["recv"], refg[r]["recv"])


# ----------------------------------------------------------------------
# invariants: Propositions 3.2 / 3.3 on random neighborhoods
# ----------------------------------------------------------------------
class TestInvariants:
    @given(
        d=st.integers(1, 4),
        t=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_alltoall_rounds_and_volume(self, d, t, seed):
        nbh = random_neighborhood(d, t, 3, np.random.default_rng(seed))
        sched = build_alltoall_schedule(
            nbh,
            uniform_block_layout([4] * nbh.t, "send"),
            uniform_block_layout([4] * nbh.t, "recv"),
        )
        # Proposition 3.2: C = Σ_k C_k rounds ...
        assert sched.num_rounds == nbh.combining_rounds
        assert sched.num_rounds == sum(nbh.distinct_nonzero_per_dim)
        # ... and V = Σ_i z_i block-sends per process.
        assert sched.volume_blocks == nbh.alltoall_volume
        assert sched.volume_blocks == sum(nbh.hops)

    @given(
        d=st.integers(1, 4),
        t=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_allgather_rounds_and_tree_volume(self, d, t, seed):
        nbh = random_neighborhood(d, t, 3, np.random.default_rng(seed))
        sched = build_allgather_schedule(
            nbh,
            uniform_block_layout([4], "send")[0],
            uniform_block_layout([4] * nbh.t, "recv"),
        )
        # Proposition 3.3: same round count as alltoall combining, and
        # the volume is the edge count of the Algorithm-2 routing tree.
        assert sched.num_rounds == nbh.combining_rounds
        tree = AllgatherTree.build(nbh)
        assert sched.volume_blocks == tree.edge_count
        assert sched.volume_blocks == nbh.allgather_volume

    @given(
        d=st.integers(1, 4),
        t=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_allgather_never_exceeds_alltoall_volume(self, d, t, seed):
        # Tree routing shares prefixes, so the allgather volume is
        # bounded by the alltoall volume (equal only when no prefix is
        # shared and no combining happens on the tree).
        nbh = random_neighborhood(d, t, 3, np.random.default_rng(seed))
        assert nbh.allgather_volume <= nbh.alltoall_volume


# ----------------------------------------------------------------------
# static verification: the verifier certifies every builder output
# ----------------------------------------------------------------------
class TestStaticVerifier:
    """Proposition 3.1 exercised as a property: schedules are pure data,
    so their correctness is statically decidable — and every schedule
    the builders emit must be certified by :mod:`repro.analyze` on the
    topology it was built for.  This is the same check ``verify_on_build``
    runs in the schedule cache, so a pass here means enabling the hook
    adds zero violations across the differential grid."""

    @given(cartesian_case(periodic=True))
    def test_all_builders_verify_clean_on_torus(self, case):
        topo, nbh, m = case
        for kind in SWEEP_KINDS:
            sched = build_for_kind(kind, nbh, block_bytes=m)
            report = verify_schedule(sched, topo.dims, topo.periods)
            assert report.ok, (
                f"{kind} on dims={topo.dims} offsets={nbh.offsets.tolist()}"
                f" m={m}: {[v.describe() for v in report.violations]}"
            )

    @given(cartesian_case())
    def test_direct_and_trivial_verify_clean_any_periods(self, case):
        # Direct/trivial delivery is defined on meshes (missing
        # neighbors skip), so the verifier must certify them under
        # random periodicity too.
        topo, nbh, m = case
        for kind in (
            "trivial-alltoall",
            "direct-alltoall",
            "trivial-allgather",
            "direct-allgather",
        ):
            sched = build_for_kind(kind, nbh, block_bytes=m)
            report = verify_schedule(sched, topo.dims, topo.periods)
            assert report.ok, (
                f"{kind} on dims={topo.dims} periods={topo.periods} "
                f"offsets={nbh.offsets.tolist()} m={m}: "
                f"{[v.describe() for v in report.violations]}"
            )


    @given(
        cartesian_case(),
        st.sampled_from(sorted(SCHEDULE_MUTATORS)),
        st.sampled_from(sorted(ALLTOALL_KINDS | ALLGATHER_KINDS)),
    )
    @example(
        # a receive no rank runs (its source is off the mesh everywhere)
        # still names bytes past the caller's buffer: V305
        (CartTopology((1, 3), (False, False)), Neighborhood([(1, 0)]), 1),
        "receive-past-its-layout",
        "allgather",
    )
    def test_what_certifies_computes_the_definition(self, case, mutator, kind):
        """Soundness of the verifier the kill matrix left: a corrupted
        schedule it certifies still delivers, on every backend and on
        the walk, what the collective's definition demands."""
        topo, nbh, m = case
        sched = build_for_kind(kind, nbh, block_bytes=m)
        if not SCHEDULE_MUTATORS[mutator](sched, topo):
            return
        if not verify_schedule(sched, topo.dims, topo.periods).ok:
            return
        for backend in ("threaded", "batched", WALK):
            if kind in ALLGATHER_KINDS:
                verify_allgather(sched, topo, m, backend=backend)
            else:
                sizes = [m * (1 + i % 3) for i in range(nbh.t)]
                verify_alltoall(sched, topo, sizes, backend=backend)


# ----------------------------------------------------------------------
# lane-granular selectors: every lowered kernel ≡ its BlockSet
# ----------------------------------------------------------------------
@st.composite
def paired_layout(draw):
    """Runs of buffer ``"a"`` and equally long runs of buffer ``"b"``
    (the two sides of one message, or a copy list), block ``i`` of one
    matching block ``i`` of the other.

    Offsets and lengths are multiples of an alignment drawn from the
    word widths {1, 2, 4, 8} and from block sizes that are not (3, 24,
    40, 256); runs are disjoint and in shuffled order on either side,
    blocks may be empty, a single block (or gap-free blocks) lowers to a
    slice, and the capacities carry a padding that may make them odd —
    whatever lane the layout itself would allow."""
    align = draw(st.sampled_from([1, 2, 4, 8, 3, 24, 40, 256]))
    k = draw(st.integers(0, 6))
    lens = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    sides = {}
    for name in ("a", "b"):
        gaps = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
        order = draw(st.permutations(range(k)))
        offsets = [0] * k
        pos = 0
        for i, gap in zip(order, gaps):
            pos += gap * align
            offsets[i] = pos
            pos += lens[i] * align
        pad = draw(st.sampled_from([0, align, 8, 1, 3, 5]))
        sides[name] = (
            [BlockRef(name, offsets[i], lens[i] * align) for i in range(k)],
            pos + pad,
        )
    (a_blocks, a_cap), (b_blocks, b_cap) = sides["a"], sides["b"]
    return align, a_blocks, b_blocks, {"a": a_cap, "b": b_cap}


def _array(data: np.ndarray, misaligned: bool) -> np.ndarray:
    """A writable copy of ``data``, on request one whose base pointer
    is odd (so no word view of it is aligned)."""
    out = np.empty(data.size + 1, np.uint8)[1:] if misaligned else (
        np.empty(data.size, np.uint8)
    )
    out[:] = data
    return out


def _random_buffers(
    sizes: dict, seed: int, misaligned: bool = False
) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        name: _array(rng.integers(0, 256, n).astype(np.uint8), misaligned)
        for name, n in sizes.items()
    }


class TestLaneSelectors:
    """The lowering picks, per selector op, the widest lane the layout
    allows — and whatever it picks, the kernel must move exactly the
    bytes the :class:`BlockSet` reference moves."""

    @given(paired_layout(), st.integers(0, 2**16), st.booleans())
    def test_rank_kernels_match_blockset(self, layout, seed, misaligned):
        align, a_blocks, b_blocks, sizes = layout
        # one kernel over both buffers, blocks interleaved: two selector
        # ops whose wire sides are fragmented too
        bs = BlockSet([x for pair in zip(a_blocks, b_blocks) for x in pair])
        kern = compile_blockset(bs.coalesced_runs(), sizes)
        for (name, *_), lane in zip(kern._sel_ops, kern.lanes):
            assert sizes[name] % lane == 0 == kern.total_nbytes % lane
            if sizes[name] % align == 0 == kern.total_nbytes % align:
                assert lane % align == 0
        bufs = _random_buffers(sizes, seed, misaligned)
        ref = bs.pack(bufs)
        assert kern.pack(bufs).tobytes() == ref
        out = _array(np.zeros(len(ref), np.uint8), misaligned)
        assert kern.pack_into(bufs, out) == len(ref)
        assert out.tobytes() == ref

        payload = np.random.default_rng(seed + 1).integers(
            0, 256, len(ref)
        ).astype(np.uint8)
        want = _random_buffers(sizes, seed)
        bs.unpack(want, payload.tobytes())
        got = _random_buffers(sizes, seed, misaligned)
        kern.unpack(got, payload.tobytes())
        got_from = _random_buffers(sizes, seed, misaligned)
        kern.unpack_from(got_from, _array(payload, misaligned))
        for name in sizes:
            assert np.array_equal(got[name], want[name])
            assert np.array_equal(got_from[name], want[name])

    @given(paired_layout(), st.integers(0, 2**16), st.booleans())
    @example(
        # a scatter through an index selector, on a mesh edge
        (
            4,
            [BlockRef("a", 0, 8), BlockRef("a", 16, 4)],
            [BlockRef("b", 12, 8), BlockRef("b", 0, 4)],
            {"a": 24, "b": 20},
        ),
        0,
        False,
    )
    def test_plane_round_matches_blockset(self, layout, seed, periodic):
        """One round run as a shift of the rank grid (a mesh drops its
        wrap piece) leaves every rank as its block sets' pack and unpack
        do, whatever the plane lane."""
        from tests.conftest import run_planes

        _align, a_blocks, b_blocks, sizes = layout
        send_bs, recv_bs = BlockSet(a_blocks), BlockSet(b_blocks)
        topo = CartTopology((5,), (periodic,))
        sched = Schedule(
            "alltoall", Neighborhood([(1,)]), [Phase(0, [Round((1,), send_bs, recv_bs)])]
        )
        plan = compile_batched_plan(sched, topo, sizes)
        ranks = [_random_buffers(sizes, seed + r) for r in range(topo.size)]
        got = run_planes(plan, ranks)
        payloads = [send_bs.pack(bufs) for bufs in ranks]
        for rank, bufs in enumerate(ranks):
            source = topo.translate(rank, (-1,))
            if source is not None:
                recv_bs.unpack(bufs, payloads[source])
            for name in sizes:
                assert np.array_equal(got[rank][name], bufs[name])

    @given(paired_layout(), st.integers(0, 2**16), st.booleans())
    def test_copy_program_matches_sequential_copies(
        self, layout, seed, misaligned
    ):
        _align, a_blocks, b_blocks, sizes = layout
        copies = [LocalCopy(a, b) for a, b in zip(a_blocks, b_blocks)]
        want = _random_buffers(sizes, seed)
        for lc in copies:
            want["b"][lc.dst.offset : lc.dst.end()] = want["a"][
                lc.src.offset : lc.src.end()
            ]
        got = _random_buffers(sizes, seed, misaligned)
        prog = compile_copies(copies, sizes)
        assert prog.run(got) == sum(lc.src.nbytes for lc in copies)
        assert np.array_equal(got["b"], want["b"])
        # the same program run in planes over all ranks
        from tests.conftest import run_planes

        topo = CartTopology((3,))
        plan = compile_batched_plan(
            Schedule("alltoall", Neighborhood([(0,)]), [], copies),
            topo,
            sizes,
        )
        start = _random_buffers(sizes, seed)
        for got in run_planes(plan, [start] * topo.size):
            assert np.array_equal(got["b"], want["b"])

    @given(paired_layout(), st.integers(0, 2**16), st.booleans(), st.booleans())
    def test_delivery_matches_pack_then_unpack(
        self, layout, seed, misaligned, periodic
    ):
        """One round delivered in place — the two run lists zipped into
        segments and lowered as copies — leaves in the receiver what
        unpacking the sender's packed payload would: per program, and
        through ``deliver`` on a ring or a mesh of five."""
        _align, a_blocks, b_blocks, sizes = layout
        send_bs, recv_bs = BlockSet(a_blocks), BlockSet(b_blocks)
        segments = zip_runs(send_bs.coalesced_runs(), recv_bs.coalesced_runs())
        assert sum(seg[-1] for seg in segments) == send_bs.total_nbytes
        prog = compile_delivery(segments, sizes)
        sender = _random_buffers(sizes, seed, misaligned)
        want = _random_buffers(sizes, seed + 1)
        recv_bs.unpack(want, send_bs.pack(sender))
        got = _random_buffers(sizes, seed + 1, misaligned)
        assert prog.run(got, sender) == send_bs.total_nbytes
        for name in sizes:
            assert np.array_equal(got[name], want[name])

        topo = CartTopology((5,), (periodic,))
        schedule = Schedule(
            "alltoall",
            Neighborhood([(1,)]),
            [Phase(0, [Round((1,), send_bs, recv_bs)])],
        )
        plan = with_deliveries(
            schedule, compile_batched_plan(schedule, topo, sizes)
        )
        assert plan.hazards == (None,)
        start = [_random_buffers(sizes, seed + r) for r in range(topo.size)]
        ranks = [
            {name: _array(arr, misaligned) for name, arr in bufs.items()}
            for bufs in start
        ]
        plan.deliver(ranks)
        for rank, bufs in enumerate(start):
            source = topo.translate(rank, (-1,))
            want = {name: arr.copy() for name, arr in bufs.items()}
            if source is not None:
                recv_bs.unpack(want, send_bs.pack(start[source]))
            for name in sizes:
                assert np.array_equal(ranks[rank][name], want[name])

    @given(paired_layout(), st.booleans(), st.booleans())
    def test_hazard_verdict_is_the_byte_set_intersection(
        self, layout, one_buffer, repeat
    ):
        """A phase is marked hazardous iff, byte by byte, something it
        writes is also read in it or written twice — here with both
        sides of the message in one buffer, or a block received twice."""
        _align, a_blocks, b_blocks, sizes = layout
        if one_buffer:
            b_blocks = [BlockRef("a", b.offset, b.nbytes) for b in b_blocks]
            sizes = {"a": max(sizes.values())}
        if repeat:
            a_blocks, b_blocks = a_blocks + a_blocks[:1], b_blocks + b_blocks[:1]
        read = {(b.buffer, i) for b in a_blocks for i in range(b.offset, b.end())}
        written = [
            (b.buffer, i) for b in b_blocks for i in range(b.offset, b.end())
        ]
        brute = (
            "writes a byte twice"
            if len(set(written)) < len(written)
            else "reads what it writes"
            if read & set(written)
            else None
        )
        schedule = Schedule(
            "alltoall",
            Neighborhood([(1,)]),
            [Phase(0, [Round((1,), BlockSet(a_blocks), BlockSet(b_blocks))])],
        )
        plan = compile_batched_plan(schedule, CartTopology((5,)), sizes)
        assert plan.hazards == (brute,)
        if brute is not None:
            assert plan.delivery == "staged"
            assert plan.delivery_reason == f"phase 0 {brute}"
