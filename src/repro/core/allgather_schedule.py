"""Algorithm 2 — the message-combining Cartesian allgather tree/schedule.

In the allgather operation every process sends *one* block to all of its
``t`` targets.  Routing a single process's block along coordinate-wise
paths yields a rooted tree over intermediate processes: in phase ``k``
the block is forwarded along dimension ``dim_order[k]``, once per
distinct non-zero coordinate.  Paths that share a coordinate *prefix*
share tree edges, so the per-process communication volume is the edge
count of the tree — which, unlike the alltoall volume, depends on the
dimension order.  Following the paper (Section 3.2), trees are built in
order of **increasing** ``C_k`` (no optimality claim; the ablation test
compares alternative orders).

The SPMD schedule routes all processes' blocks simultaneously with the
same tree: when a process sends the block for a subtree, it
symmetrically receives a block (same subtree) for which it is an
intermediate.  The block received for subtree ``q`` at a process ``r``
originates at ``r − route(q)``; if some neighbor index ``i`` satisfies
``N[i] = route(q)`` (its remaining coordinates are all zero), that block
is final and is received directly into receive-buffer slot ``i`` —
otherwise into a temporary slot for later forwarding.  Duplicate offset
vectors receive their copies in the final local phase.

Zero coordinates cause no movement: children with coordinate 0 are
contracted into their parent (they share its storage).  This makes the
edge count match the paper's closed form for Moore-type neighborhoods,
``V = Σ_j (n−1)^j C(d,j) = n^d − 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.core.blockcopy import pair_copies
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import LocalCopy, Phase, Round, Schedule
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError


def increasing_ck_order(nbh: Neighborhood) -> tuple[int, ...]:
    """Dimension order by increasing ``C_k`` (stable): the paper's
    heuristic for small allgather trees."""
    ck = nbh.distinct_nonzero_per_dim
    return tuple(sorted(range(nbh.d), key=lambda k: (ck[k], k)))


@dataclass
class TreeNode:
    """One node of the allgather routing tree.

    ``route`` is the relative offset of the node's process from the tree
    root (the block's origin is ``r − route`` at an executing process
    ``r``); ``level`` is the next dimension-order position to expand;
    ``indices`` the neighbor indices whose targets lie in this subtree.
    """

    route: tuple[int, ...]
    level: int
    indices: list[int]
    #: children created by a non-zero coordinate move, keyed in
    #: construction order: (level, coordinate value, child)
    children: list[tuple[int, int, "TreeNode"]] = field(default_factory=list)
    #: neighbor indices terminating exactly at this node
    terminal: list[int] = field(default_factory=list)

    def walk(self) -> Iterator["TreeNode"]:
        yield self
        for _, _, child in self.children:
            yield from child.walk()


class AllgatherTree:
    """The routing tree of Algorithm 2 plus its bookkeeping."""

    def __init__(self, nbh: Neighborhood, root: TreeNode, dim_order: tuple[int, ...]):
        self.nbh = nbh
        self.root = root
        self.dim_order = dim_order

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        nbh: Neighborhood,
        dim_order: Optional[Sequence[int]] = None,
    ) -> "AllgatherTree":
        """Recursive bucket-sorted construction (Algorithm 2), with
        zero-coordinate contraction."""
        if dim_order is None:
            dim_order = increasing_ck_order(nbh)
        dim_order = tuple(int(k) for k in dim_order)
        if sorted(dim_order) != list(range(nbh.d)):
            raise ScheduleError(
                f"dim_order {dim_order} is not a permutation of 0..{nbh.d - 1}"
            )
        offsets = nbh.offsets

        def trailing_zero(i: int, level: int) -> bool:
            return all(
                offsets[i, dim_order[j]] == 0 for j in range(level, nbh.d)
            )

        root = TreeNode(route=tuple([0] * nbh.d), level=0, indices=list(range(nbh.t)))

        def expand(node: TreeNode) -> None:
            # terminal indices: remaining coordinates all zero
            node.terminal = [
                i for i in node.indices if trailing_zero(i, node.level)
            ]
            if node.level >= nbh.d:
                return
            level = node.level
            dim = dim_order[level]
            # bucket sort the node's indices by their coordinate at `dim`
            order = sorted(node.indices, key=lambda i: (int(offsets[i, dim]), i))
            groups: list[tuple[int, list[int]]] = []
            for i in order:
                c = int(offsets[i, dim])
                if groups and groups[-1][0] == c:
                    groups[-1][1].append(i)
                else:
                    groups.append((c, [i]))
            for c, idxs in groups:
                if c == 0:
                    # contraction: no movement, just advance the level
                    sub = TreeNode(route=node.route, level=level + 1, indices=idxs)
                    expand(sub)
                    # splice the contracted child's children/terminals in
                    node.children.extend(sub.children)
                    # terminals of the contracted node belong to this node
                    # but were already counted via trailing_zero above
                else:
                    route = list(node.route)
                    route[dim] += c
                    child = TreeNode(
                        route=tuple(route), level=level + 1, indices=idxs
                    )
                    node.children.append((level, c, child))
                    expand(child)

        expand(root)
        return cls(nbh, root, dim_order)

    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """Per-process allgather communication volume ``V``
        (Proposition 3.3): one block-send per tree edge."""
        return sum(len(n.children) for n in self.root.walk())

    def edges_by_level(self) -> dict[int, list[tuple[int, TreeNode, TreeNode]]]:
        """Group edges by the dimension-order level they route at:
        level → list of (coordinate, parent, child)."""
        out: dict[int, list[tuple[int, TreeNode, TreeNode]]] = {}
        for node in self.root.walk():
            for level, c, child in node.children:
                out.setdefault(level, []).append((c, node, child))
        return out

    def depth_of_first_representative(self, i: int) -> int:
        """Hop count of neighbor index ``i``'s block: the depth (number of
        edges from the root) of the node where it terminates."""
        for node in self.root.walk():
            if i in node.terminal:
                return self._depth(node)
        raise ScheduleError(f"neighbor {i} not terminated in tree")

    def _depth(self, target: TreeNode) -> int:
        def rec(node: TreeNode, depth: int) -> Optional[int]:
            if node is target:
                return depth
            for _, _, child in node.children:
                got = rec(child, depth + 1)
                if got is not None:
                    return got
            return None

        got = rec(self.root, 0)
        if got is None:  # pragma: no cover - internal invariant
            raise ScheduleError("node not reachable from root")
        return got


def build_allgather_schedule(
    nbh: Neighborhood,
    send_block: BlockSet,
    recv_blocks: Sequence[BlockSet],
    dim_order: Optional[Sequence[int]] = None,
    temp_base: int = 0,
) -> Schedule:
    """Compute the message-combining allgather schedule.

    Parameters
    ----------
    nbh:
        the isomorphic t-neighborhood.
    send_block:
        the single block this process contributes (identical size on all
        processes — required by isomorphism).
    recv_blocks:
        per source index ``i``, where the block from ``−N[i]`` must land;
        each must have the same total byte size as ``send_block`` (the
        ``w`` variant may use different layouts of the same size).
    dim_order:
        overrides the default increasing-``C_k`` dimension order (used by
        the ablation test reproducing the Figure 2 comparison).
    temp_base:
        first temp byte offset this schedule may use.  The allreduce
        composition appends a forward allgather after the reverse
        reduction tree, whose accumulator area occupies temp below
        ``temp_base``; the returned ``temp_nbytes`` includes the base.
    """
    t = nbh.t
    if len(recv_blocks) != t:
        raise ScheduleError(
            f"need one recv block description per neighbor: t={t}, "
            f"got {len(recv_blocks)}"
        )
    m = send_block.total_nbytes
    for i, rb in enumerate(recv_blocks):
        if rb.total_nbytes != m:
            raise ScheduleError(
                f"neighbor {i}: recv block {rb.total_nbytes} B != send "
                f"block {m} B (allgather blocks are uniform)"
            )

    tree = AllgatherTree.build(nbh, dim_order)
    d = nbh.d

    # Assign storage to every tree node: the root forwards from the send
    # buffer; a node with terminal indices stores at the first one's
    # receive slot; otherwise it gets a temp slot.
    storage: dict[int, BlockSet] = {}  # id(node) -> blockset
    local_copies: list[LocalCopy] = []
    temp_nbytes = int(temp_base)

    storage[id(tree.root)] = send_block
    for i in tree.root.terminal:
        # the self-block(s): plain send->recv copies
        local_copies.extend(
            pair_copies(list(send_block), list(recv_blocks[i]), neighbor=i)
        )

    for node in tree.root.walk():
        if node is tree.root:
            continue
        if node.terminal:
            first, *rest = node.terminal
            storage[id(node)] = recv_blocks[first]
            for j in rest:
                local_copies.extend(
                    pair_copies(
                        list(recv_blocks[first]), list(recv_blocks[j]), neighbor=j
                    )
                )
        elif m == 0:
            storage[id(node)] = BlockSet()  # zero-size blocks carry no data
        else:
            storage[id(node)] = BlockSet([BlockRef("temp", temp_nbytes, m)])
            temp_nbytes += m

    # Phases: one per dimension-order level; rounds group edges of the
    # level by coordinate value.
    edges_by_level = tree.edges_by_level()
    phases: list[Phase] = []
    for level in range(d):
        dim = tree.dim_order[level]
        phase = Phase(dim=dim)
        edges = edges_by_level.get(level, [])
        by_coord: dict[int, list[tuple[TreeNode, TreeNode]]] = {}
        for c, parent, child in edges:
            by_coord.setdefault(c, []).append((parent, child))
        for c in sorted(by_coord):
            offset_vec = tuple(c if j == dim else 0 for j in range(d))
            rnd = Round(
                offset=offset_vec, send_blocks=BlockSet(), recv_blocks=BlockSet()
            )
            for parent, child in by_coord[c]:
                for ref in storage[id(parent)]:
                    rnd.send_blocks.append(ref)
                for ref in storage[id(child)]:
                    rnd.recv_blocks.append(ref)
                rnd.logical_blocks += 1
            phase.rounds.append(rnd)
        phases.append(phase)

    sched = Schedule(
        kind="allgather",
        neighborhood=nbh,
        phases=phases,
        local_copies=local_copies,
        temp_nbytes=temp_nbytes,
        send_layout=[send_block],
        recv_layout=list(recv_blocks),
    )
    # Internal consistency: Proposition 3.3.
    if sched.volume_blocks != tree.edge_count:
        raise ScheduleError(
            f"schedule volume {sched.volume_blocks} != tree edges "
            f"{tree.edge_count}"
        )
    if sched.num_rounds != nbh.combining_rounds:
        raise ScheduleError(
            f"schedule rounds {sched.num_rounds} != C "
            f"{nbh.combining_rounds}"
        )
    return sched
