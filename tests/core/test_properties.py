"""Property-based conformance suite (hypothesis).

Two families of randomized checks:

* **Differential tests** — for random ``(dims, periods, offsets)``, the
  message-combining alltoall/allgather schedules must fill the receive
  buffers byte-identically to the trivial algorithm executed on the same
  inputs.  The trivial algorithm is the executable definition (Listing
  4), so agreement certifies the combining schedules' semantics on
  arbitrary topologies, including non-periodic boundaries and repeated
  or self offsets.

* **Invariant tests** — Propositions 3.2/3.3 on randomized
  neighborhoods: the combining alltoall uses exactly ``C = Σ_k C_k``
  rounds and sends ``V = Σ_i z_i`` blocks; the combining allgather uses
  the same round count and sends one block per routing-tree edge.

Profiles are registered in ``tests/conftest.py``; CI runs with
``HYPOTHESIS_PROFILE=ci`` (derandomized).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.allgather_schedule import AllgatherTree, build_allgather_schedule
from repro.core.alltoall_schedule import build_alltoall_schedule
from repro.core.backend import get_backend
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import uniform_block_layout
from repro.core.stencils import random_neighborhood
from repro.core.topology import CartTopology
from repro.core.trivial import (
    build_direct_allgather_schedule,
    build_direct_alltoall_schedule,
    build_trivial_allgather_schedule,
    build_trivial_alltoall_schedule,
)

# Grid shapes with at most 24 ranks: lockstep execution is O(p · V · m),
# so these keep each example comfortably under a millisecond-scale cost
# while still covering 1-D through 3-D topologies.
_DIMS_POOL = (
    (2,),
    (3,),
    (4,),
    (6,),
    (8,),
    (12,),
    (2, 2),
    (2, 3),
    (3, 3),
    (2, 4),
    (4, 3),
    (2, 2, 2),
    (2, 2, 3),
)


@st.composite
def cartesian_case(draw, periodic=False):
    """A random (topology, neighborhood, block size) triple.

    ``periodic=True`` forces a torus: the message-combining schedules
    require full periodicity (multi-hop forwarding is unconditional
    SPMD, so mesh boundaries would forward junk — ``CartComm`` rejects
    that combination with a :class:`TopologyError`).
    """
    dims = draw(st.sampled_from(_DIMS_POOL))
    d = len(dims)
    if periodic:
        periods = (True,) * d
    else:
        periods = tuple(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    t = draw(st.integers(min_value=1, max_value=6))
    offsets = draw(
        st.lists(
            st.tuples(*(st.integers(-2, 2) for _ in range(d))),
            min_size=t,
            max_size=t,
        )
    )
    m = draw(st.integers(min_value=1, max_value=8))
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
        from repro.analyze.schedule_verifier import (
            SWEEP_KINDS,
            build_for_kind,
            verify_schedule,
        )

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
        from repro.analyze.schedule_verifier import (
            build_for_kind,
            verify_schedule,
        )

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
