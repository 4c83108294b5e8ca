"""Process remapping for Cartesian neighborhoods.

The paper points out that ``MPI_Cart_create``'s ``reorder`` flag is
meant to let the library map the logical torus onto the physical
machine for cheap neighbor communication — and that "current MPI
libraries do not exploit these possibilities" [6].  The measured
libraries (and therefore our :class:`~repro.core.cartcomm.CartComm`)
keep the identity mapping; this module provides the remapping machinery
the paper's weighted-neighborhood interface anticipates, as a
standalone extension:

* a machine abstraction: ``p`` physical slots grouped into nodes of
  ``ranks_per_node`` consecutive slots;
* :func:`traffic_locality` — the fraction of (optionally weighted)
  neighbor traffic that stays inside a node under a given mapping;
* :func:`blocked_mapping` — the classic sub-torus blocking: each node
  hosts a ``node_dims`` sub-block of the torus, so distance-1 neighbors
  are mostly node-local;
* :func:`best_blocked_mapping` — searches the divisor-compatible node
  shapes and returns the best by locality.

The ablation test compares the default row-major mapping with blocked
mappings for the paper's stencils.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.neighborhood import Neighborhood
from repro.core.topology import CartTopology
from repro.mpisim.exceptions import TopologyError


def identity_mapping(topo: CartTopology) -> list[int]:
    """rank → physical slot, unchanged (what measured MPI libraries do)."""
    return list(range(topo.size))


def validate_mapping(topo: CartTopology, mapping: Sequence[int]) -> None:
    if sorted(mapping) != list(range(topo.size)):
        raise TopologyError(
            f"mapping must be a permutation of 0..{topo.size - 1}"
        )


def traffic_locality(
    topo: CartTopology,
    nbh: Neighborhood,
    mapping: Sequence[int],
    ranks_per_node: int,
    weights: Optional[Sequence[int]] = None,
) -> float:
    """Fraction of neighbor traffic that stays intra-node.

    Traffic = one unit (or ``weights[i]``) per process per target
    neighbor; self-loops (offset ≡ 0 through the torus) count as
    node-local by definition.
    """
    validate_mapping(topo, mapping)
    if ranks_per_node <= 0:
        raise TopologyError("ranks_per_node must be positive")
    if weights is None:
        weights = nbh.weights or [1] * nbh.t
    if len(weights) != nbh.t:
        raise TopologyError(f"need {nbh.t} weights, got {len(weights)}")
    total = 0.0
    local = 0.0
    node = [mapping[r] // ranks_per_node for r in range(topo.size)]
    for r in range(topo.size):
        for off, w in zip(nbh, weights):
            tgt = topo.translate(r, off)
            total += w
            if node[r] == node[tgt]:
                local += w
    return local / total if total else 1.0


def blocked_mapping(
    topo: CartTopology, node_dims: Sequence[int]
) -> list[int]:
    """Sub-torus blocking: the torus is tiled with ``node_dims`` blocks;
    each block's ranks occupy one node's consecutive physical slots.

    Every ``node_dims[j]`` must divide ``topo.dims[j]``.
    """
    node_dims = tuple(int(x) for x in node_dims)
    if len(node_dims) != topo.ndim:
        raise TopologyError(
            f"node_dims arity {len(node_dims)} != topology dimension "
            f"{topo.ndim}"
        )
    for nd, td in zip(node_dims, topo.dims):
        if nd <= 0 or td % nd:
            raise TopologyError(
                f"node dims {node_dims} must divide torus dims {topo.dims}"
            )
    blocks = tuple(td // nd for td, nd in zip(topo.dims, node_dims))
    block_size = int(np.prod(node_dims))
    mapping = [0] * topo.size
    for r in range(topo.size):
        coords = topo.coords(r)
        block_coord = tuple(c // nd for c, nd in zip(coords, node_dims))
        inner_coord = tuple(c % nd for c, nd in zip(coords, node_dims))
        block_index = int(np.ravel_multi_index(block_coord, blocks))
        inner_index = int(np.ravel_multi_index(inner_coord, node_dims))
        mapping[r] = block_index * block_size + inner_index
    return mapping


def node_shapes(dims: Sequence[int], ranks_per_node: int) -> list[tuple[int, ...]]:
    """All node block shapes with ``prod == ranks_per_node`` whose sides
    divide the torus dims."""
    dims = tuple(int(x) for x in dims)

    def rec(remaining: int, j: int) -> list[tuple[int, ...]]:
        if j == len(dims):
            return [()] if remaining == 1 else []
        out = []
        for side in range(1, remaining + 1):
            if remaining % side or dims[j] % side:
                continue
            for rest in rec(remaining // side, j + 1):
                out.append((side,) + rest)
        return out

    return rec(ranks_per_node, 0)


def best_blocked_mapping(
    topo: CartTopology,
    nbh: Neighborhood,
    ranks_per_node: int,
    weights: Optional[Sequence[int]] = None,
) -> tuple[list[int], tuple[int, ...], float]:
    """Search divisor-compatible node shapes; return
    (mapping, node_dims, locality).  Falls back to the identity when no
    shape fits (locality then reported for the identity)."""
    shapes = node_shapes(topo.dims, ranks_per_node)
    if not shapes:
        ident = identity_mapping(topo)
        return (
            ident,
            tuple([1] * topo.ndim),
            traffic_locality(topo, nbh, ident, ranks_per_node, weights),
        )
    best = None
    for shape in shapes:
        mapping = blocked_mapping(topo, shape)
        loc = traffic_locality(topo, nbh, mapping, ranks_per_node, weights)
        if best is None or loc > best[2]:
            best = (mapping, shape, loc)
    assert best is not None
    return best
