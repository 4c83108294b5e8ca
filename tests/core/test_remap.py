"""Process remapping / traffic locality."""

import pytest

from repro.core.neighborhood import Neighborhood
from repro.core.remap import (
    best_blocked_mapping,
    blocked_mapping,
    identity_mapping,
    node_shapes,
    traffic_locality,
    validate_mapping,
)
from repro.core.stencils import moore_neighborhood, von_neumann_neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import TopologyError


class TestMappings:
    def test_identity(self):
        topo = CartTopology((4, 4))
        assert identity_mapping(topo) == list(range(16))

    def test_blocked_is_permutation(self):
        topo = CartTopology((4, 4))
        mapping = blocked_mapping(topo, (2, 2))
        validate_mapping(topo, mapping)

    def test_blocked_groups_subtorus(self):
        """A 2×2 block's four ranks land on one node (consecutive
        slots)."""
        topo = CartTopology((4, 4))
        mapping = blocked_mapping(topo, (2, 2))
        block = [topo.rank((0, 0)), topo.rank((0, 1)),
                 topo.rank((1, 0)), topo.rank((1, 1))]
        nodes = {mapping[r] // 4 for r in block}
        assert len(nodes) == 1

    def test_blocked_divisibility_enforced(self):
        topo = CartTopology((4, 4))
        with pytest.raises(TopologyError):
            blocked_mapping(topo, (3, 2))

    def test_blocked_arity_enforced(self):
        with pytest.raises(TopologyError):
            blocked_mapping(CartTopology((4, 4)), (2,))

    def test_validate_rejects_non_permutation(self):
        with pytest.raises(TopologyError):
            validate_mapping(CartTopology((2, 2)), [0, 0, 1, 2])


class TestLocality:
    def test_all_one_node_is_fully_local(self):
        topo = CartTopology((4, 4))
        nbh = moore_neighborhood(2, 1, include_self=False)
        loc = traffic_locality(topo, nbh, identity_mapping(topo), 16)
        assert loc == 1.0

    def test_blocked_beats_linear_for_moore(self):
        topo = CartTopology((8, 8))
        nbh = moore_neighborhood(2, 1, include_self=False)
        linear = traffic_locality(topo, nbh, identity_mapping(topo), 8)
        blocked = traffic_locality(topo, nbh, blocked_mapping(topo, (2, 4)), 8)
        assert blocked > linear

    def test_weighted_traffic(self):
        """Weights skew locality toward the heavy neighbors."""
        topo = CartTopology((4, 4))
        # one heavy horizontal neighbor, one light vertical
        nbh = Neighborhood([(0, 1), (1, 0)])
        mapping = blocked_mapping(topo, (1, 4))  # rows of 4 per node
        loc_heavy_horizontal = traffic_locality(
            topo, nbh, mapping, 4, weights=[10, 1]
        )
        loc_heavy_vertical = traffic_locality(
            topo, nbh, mapping, 4, weights=[1, 10]
        )
        # horizontal neighbors are node-local under row blocking
        assert loc_heavy_horizontal > loc_heavy_vertical

    def test_weights_from_neighborhood(self):
        topo = CartTopology((4, 4))
        nbh = Neighborhood([(0, 1), (1, 0)], weights=[10, 1])
        mapping = blocked_mapping(topo, (1, 4))
        explicit = traffic_locality(topo, nbh, mapping, 4, weights=[10, 1])
        implicit = traffic_locality(topo, nbh, mapping, 4)
        assert explicit == implicit

    def test_weight_arity(self):
        topo = CartTopology((2, 2))
        nbh = Neighborhood([(0, 1)])
        with pytest.raises(TopologyError):
            traffic_locality(topo, nbh, identity_mapping(topo), 2, weights=[1, 2])

    def test_bad_ranks_per_node(self):
        topo = CartTopology((2, 2))
        nbh = Neighborhood([(0, 1)])
        with pytest.raises(TopologyError):
            traffic_locality(topo, nbh, identity_mapping(topo), 0)


class TestNodeShapes:
    def test_enumeration(self):
        shapes = node_shapes((8, 8), 4)
        assert set(shapes) == {(1, 4), (2, 2), (4, 1)}

    def test_respects_divisibility(self):
        shapes = node_shapes((6, 4), 4)
        assert (4, 1) not in shapes  # 4 does not divide 6
        assert (2, 2) in shapes and (1, 4) in shapes

    def test_no_shape_fits(self):
        assert node_shapes((3, 3), 2) == []


class TestBestBlocked:
    def test_square_block_best_for_moore(self):
        """For the symmetric Moore stencil the squarest node shape
        maximizes locality."""
        topo = CartTopology((8, 8))
        nbh = moore_neighborhood(2, 1, include_self=False)
        mapping, shape, loc = best_blocked_mapping(topo, nbh, 4)
        assert shape == (2, 2)
        ident_loc = traffic_locality(topo, nbh, identity_mapping(topo), 4)
        assert loc > ident_loc

    def test_fallback_to_identity(self):
        topo = CartTopology((3, 3))
        nbh = von_neumann_neighborhood(2, 1, include_self=False)
        mapping, shape, loc = best_blocked_mapping(topo, nbh, 2)
        assert mapping == identity_mapping(topo)
        assert shape == (1, 1)

    def test_anisotropic_stencil_prefers_matching_shape(self):
        """A stencil reaching only along dim 1 wants flat row blocks."""
        topo = CartTopology((8, 8))
        nbh = Neighborhood([(0, 1), (0, -1), (0, 2), (0, -2)])
        _, shape, _ = best_blocked_mapping(topo, nbh, 4)
        assert shape == (1, 4)

    def test_locality_bounds(self):
        topo = CartTopology((8, 8))
        nbh = moore_neighborhood(2, 1, include_self=False)
        _, _, loc = best_blocked_mapping(topo, nbh, 4)
        assert 0.0 <= loc <= 1.0
