"""Neighborhood combinatorics — including all Table 1 closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.neighborhood import Neighborhood, neighborhood_from_flat
from repro.core.stencils import parameterized_stencil
from repro.mpisim.exceptions import NeighborhoodError
from repro.netsim.machine import MachineModel, cutoff_counts


class TestConstruction:
    def test_shape(self):
        nbh = Neighborhood([(1, 0), (0, 1)])
        assert nbh.t == 2 and nbh.d == 2

    def test_offsets_readonly(self):
        nbh = Neighborhood([(1, 0)])
        with pytest.raises(ValueError):
            nbh.offsets[0, 0] = 5

    def test_empty_rejected(self):
        with pytest.raises(NeighborhoodError):
            Neighborhood(np.empty((0, 2), dtype=np.int64))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(NeighborhoodError):
            Neighborhood(np.zeros((2, 2, 2), dtype=np.int64))

    def test_weights_length_checked(self):
        with pytest.raises(NeighborhoodError):
            Neighborhood([(1, 0), (0, 1)], weights=[1])

    def test_weights_stored(self):
        nbh = Neighborhood([(1, 0), (0, 1)], weights=[3, 4])
        assert nbh.weights == (3, 4)

    def test_iteration_and_indexing(self):
        nbh = Neighborhood([(1, 2), (-1, 0)])
        assert list(nbh) == [(1, 2), (-1, 0)]
        assert nbh[1] == (-1, 0)
        assert len(nbh) == 2

    def test_equality_hash(self):
        a = Neighborhood([(1, 0)])
        b = Neighborhood([(1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a != Neighborhood([(0, 1)])

    def test_hash_distinguishes_reshaped_offsets(self):
        # regression: a t×d and a (t·d)×1 offset array share the same
        # raw bytes; the hash must include the shape or the two collide
        # (and dict/cache lookups conflate 2-D with flattened stencils)
        a = Neighborhood([(1, 2), (3, 4)])
        b = Neighborhood([(1,), (2,), (3,), (4,)])
        assert a.offsets.tobytes() == b.offsets.tobytes()
        assert a != b
        assert hash(a) != hash(b)

    def test_from_flat(self):
        nbh = neighborhood_from_flat(2, [0, 1, 0, -1, -1, 0, 1, 0])
        assert nbh.t == 4 and nbh[0] == (0, 1)

    def test_from_flat_bad_length(self):
        with pytest.raises(NeighborhoodError):
            neighborhood_from_flat(2, [1, 2, 3])

    def test_repetitions_allowed(self):
        nbh = Neighborhood([(1, 0), (1, 0)])
        assert nbh.t == 2


class TestCombinatorics:
    def test_hops(self):
        nbh = Neighborhood([(0, 0), (1, 0), (1, -2), (3, 4)])
        assert nbh.hops == (0, 1, 2, 2)

    def test_zero_vector_count(self):
        nbh = Neighborhood([(0, 0), (0, 0), (1, 1)])
        assert nbh.zero_vector_count == 2
        assert nbh.has_self

    def test_trivial_rounds_excludes_self(self):
        nbh = Neighborhood([(0, 0), (1, 0), (0, 1)])
        assert nbh.trivial_rounds == 2

    def test_ck_distinct_nonzero(self):
        nbh = Neighborhood([(1, 0), (1, 2), (-1, 2), (0, 2)])
        assert nbh.distinct_nonzero_per_dim == (2, 1)
        assert nbh.combining_rounds == 3

    def test_alltoall_volume(self):
        nbh = Neighborhood([(0, 0), (1, 0), (1, 1)])
        assert nbh.alltoall_volume == 3

    def test_bucket_order_stable(self):
        nbh = Neighborhood([(2, 0), (1, 0), (2, 1), (-1, 0)])
        order = nbh.bucket_order(0)
        assert [nbh[i][0] for i in order] == [-1, 1, 2, 2]
        # stability: the two 2s keep original relative order
        assert order[2] < order[3]

    def test_bucket_order_bad_dim(self):
        with pytest.raises(IndexError):
            Neighborhood([(1, 0)]).bucket_order(5)

    def test_sources_mirrored(self):
        nbh = Neighborhood([(1, -2)])
        assert list(nbh.sources()) == [(-1, 2)]

    def test_sorted_canonical_order_insensitive(self):
        a = Neighborhood([(1, 0), (0, 1), (-1, -1)])
        b = Neighborhood([(0, 1), (-1, -1), (1, 0)])
        assert np.array_equal(a.sorted_canonical(), b.sorted_canonical())

    def test_distinct_targets_aliasing(self):
        # offsets 1 and 4 alias on a dim of size 3
        nbh = Neighborhood([(1,), (4,)])
        assert nbh.distinct_targets((3,)) == 1
        assert nbh.distinct_targets((5,)) == 2

    def test_validate_for_dims(self):
        with pytest.raises(NeighborhoodError):
            Neighborhood([(1, 0)]).validate_for_dims((4,))


# Table 1 closed forms: t = n^d, C = d(n-1),
# V_a2a = Σ_j j (n-1)^j C(d,j), V_ag = n^d - 1.
TABLE1 = [(d, n) for d in (2, 3, 4, 5) for n in (3, 4, 5)]


@pytest.mark.parametrize("d,n", TABLE1)
class TestTable1ClosedForms:
    def test_t(self, d, n):
        assert parameterized_stencil(d, n, -1).t == n**d

    def test_trivial_rounds(self, d, n):
        assert parameterized_stencil(d, n, -1).trivial_rounds == n**d - 1

    def test_combining_rounds(self, d, n):
        assert parameterized_stencil(d, n, -1).combining_rounds == d * (n - 1)

    def test_alltoall_volume(self, d, n):
        expect = sum(
            j * (n - 1) ** j * math.comb(d, j) for j in range(1, d + 1)
        )
        assert parameterized_stencil(d, n, -1).alltoall_volume == expect

    def test_allgather_volume(self, d, n):
        assert parameterized_stencil(d, n, -1).allgather_volume == n**d - 1

    def test_cutoff_ratio(self, d, n):
        nbh = parameterized_stencil(d, n, -1)
        t, C, V = n**d, d * (n - 1), nbh.alltoall_volume
        assert nbh.cutoff_ratio() == pytest.approx((t - C) / (V - t))


class TestCutoff:
    def test_ratio_infinite_when_volume_not_above_t(self):
        # 1-hop-only neighborhood with a repeated offset: V == t, C < t,
        # so combining saves rounds at no volume cost — wins at any m
        nbh = Neighborhood([(1, 0), (-1, 0), (1, 0)])
        assert nbh.combining_rounds < nbh.t
        assert nbh.alltoall_volume == nbh.t
        assert nbh.cutoff_ratio() == float("inf")

    def test_ratio_zero_when_no_round_saving(self):
        # all distinct coordinates: C >= t
        nbh = Neighborhood([(1, 1), (2, 2)])
        assert nbh.combining_rounds >= nbh.t
        assert nbh.cutoff_ratio() == 0.0

    def test_cutoff_matches_preference_boundary(self):
        """The decision flips at the cut-off counted as the rule counts:
        the self block is a local copy, not a round.  Table 1's ratio
        counts it, so its boundary sits higher and is not the decision."""
        nbh = parameterized_stencil(2, 5, -1)
        machine = MachineModel("test", alpha=2e-6, beta=1e-9)
        m_star = machine.cutoff_block_bytes(*cutoff_counts(nbh, "alltoall"))
        assert m_star == pytest.approx(2000.0)  # (24 - 8)/(40 - 24) * 2000
        assert machine.select_algorithm(nbh, "alltoall", int(m_star * 0.9)) == "combining"
        assert machine.select_algorithm(nbh, "alltoall", int(m_star * 1.1)) == "trivial"
        assert (2e-6 / 1e-9) * nbh.cutoff_ratio() > m_star * 1.1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=1,
        max_size=12,
    )
)
def test_volume_equals_sum_of_hops(offsets):
    nbh = Neighborhood(np.asarray(offsets, dtype=np.int64))
    assert nbh.alltoall_volume == sum(nbh.hops)
    assert nbh.combining_rounds == sum(nbh.distinct_nonzero_per_dim)
    assert 0 <= nbh.combining_rounds <= nbh.alltoall_volume or nbh.alltoall_volume == 0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        min_size=1,
        max_size=10,
    )
)
def test_allgather_volume_bounds(offsets):
    """Tree sharing: C ≤ V_allgather ≤ V_alltoall (whenever some
    communication happens), and the allgather volume is at most the sum
    of hops and at least the number of distinct nonzero vectors' rounds."""
    nbh = Neighborhood(np.asarray(offsets, dtype=np.int64))
    v_ag = nbh.allgather_volume
    assert v_ag <= nbh.alltoall_volume
    assert v_ag >= nbh.combining_rounds or nbh.alltoall_volume == 0
