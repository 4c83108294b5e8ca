"""Stencil factories."""

import numpy as np
import pytest

from repro.core.stencils import (
    axis_stencil,
    listing3_9point,
    moore_neighborhood,
    named_stencil,
    parameterized_stencil,
    random_neighborhood,
    von_neumann_neighborhood,
)
from repro.mpisim.exceptions import NeighborhoodError


class TestParameterized:
    def test_moore_2d_example_from_paper(self):
        """Section 4.1.1: d=2, n=3, f=−1 is the 9-point Moore
        neighborhood in the stated order."""
        nbh = parameterized_stencil(2, 3, -1)
        assert list(nbh) == [
            (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        ]

    def test_n4_adds_offset_two_neighbors(self):
        """n=4, f=−1 adds the (…,2) neighbors making it asymmetric."""
        nbh = parameterized_stencil(2, 4, -1)
        offs = set(nbh)
        for extra in [(-1, 2), (0, 2), (1, 2), (2, -1), (2, 0), (2, 1), (2, 2)]:
            assert extra in offs
        assert nbh.t == 16

    def test_counts(self):
        for d in (1, 2, 3, 4):
            for n in (2, 3, 5):
                assert parameterized_stencil(d, n, -1).t == n**d

    def test_exclude_self(self):
        nbh = parameterized_stencil(2, 3, -1, include_self=False)
        assert nbh.t == 8
        assert (0, 0) not in set(nbh)

    def test_f_shifts_range(self):
        nbh = parameterized_stencil(1, 3, 0)
        assert list(nbh) == [(0,), (1,), (2,)]

    def test_invalid_params(self):
        with pytest.raises(NeighborhoodError):
            parameterized_stencil(0, 3)
        with pytest.raises(NeighborhoodError):
            parameterized_stencil(2, 0)

    def test_empty_after_self_removal(self):
        with pytest.raises(NeighborhoodError):
            parameterized_stencil(1, 1, 0, include_self=False)


class TestMooreVonNeumann:
    def test_moore_radius_counts(self):
        assert moore_neighborhood(2, 1).t == 9
        assert moore_neighborhood(3, 1).t == 27
        assert moore_neighborhood(2, 2).t == 25
        assert moore_neighborhood(3, 2).t == 125

    def test_von_neumann_counts(self):
        # radius-1 von Neumann in d dims: 2d + 1 points
        for d in (1, 2, 3, 4):
            assert von_neumann_neighborhood(d, 1).t == 2 * d + 1

    def test_von_neumann_l1_bound(self):
        nbh = von_neumann_neighborhood(3, 2)
        assert all(sum(abs(x) for x in off) <= 2 for off in nbh)

    def test_negative_radius(self):
        with pytest.raises(NeighborhoodError):
            moore_neighborhood(2, -1)

    def test_radius_zero_only_self(self):
        nbh = moore_neighborhood(2, 0)
        assert list(nbh) == [(0, 0)]


class TestAxisAndNamed:
    def test_axis_stencil_count(self):
        # 2r points per axis (+ optional center)
        assert axis_stencil(3, 2).t == 12
        assert axis_stencil(3, 2, include_self=True).t == 13

    def test_named(self):
        assert named_stencil("5-point").t == 4
        assert named_stencil("9-point").t == 8
        assert named_stencil("7-point").t == 6
        assert named_stencil("27-point").t == 26
        assert named_stencil("13-point").t == 13
        assert named_stencil("125-point").t == 124

    def test_unknown_named(self):
        with pytest.raises(NeighborhoodError, match="unknown stencil"):
            named_stencil("nope")

    def test_listing3_order(self):
        nbh = listing3_9point()
        assert nbh.t == 8
        assert nbh[0] == (0, 1)
        assert nbh[4] == (-1, 1)


class TestRandom:
    def test_deterministic_with_seed(self):
        a = random_neighborhood(2, 5, 3, np.random.default_rng(1))
        b = random_neighborhood(2, 5, 3, np.random.default_rng(1))
        assert a == b

    def test_range(self):
        nbh = random_neighborhood(3, 50, 2, np.random.default_rng(0))
        assert np.abs(nbh.offsets).max() <= 2

    def test_no_repeats(self):
        nbh = random_neighborhood(
            2, 30, 2, np.random.default_rng(0), allow_repeats=False
        )
        assert np.unique(nbh.offsets, axis=0).shape[0] == nbh.t

    def test_force_self(self):
        nbh = random_neighborhood(
            2, 5, 2, np.random.default_rng(0), include_self=True
        )
        assert nbh[0] == (0, 0)

    def test_exclude_self(self):
        nbh = random_neighborhood(
            2, 20, 1, np.random.default_rng(0), include_self=False
        )
        assert all(any(off) for off in nbh)

    def test_invalid_t(self):
        with pytest.raises(NeighborhoodError):
            random_neighborhood(2, 0, 1)
