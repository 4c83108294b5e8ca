"""Cartesian neighborhood reductions (the [16] extension the paper
mentions in Section 2.2: "Cartesian reduction operations could also be
considered"), lowered into the common :class:`~repro.core.schedule.Schedule`
representation so the one :class:`ScheduleInterpreter` drives them on
every transport backend.

Semantics of the family (``m`` = element block size in bytes):

``reduce`` / ``trivial-reduce`` (``reduce_neighbors``)
    every process contributes one block; process ``r`` receives
    ``reduce(op, { block(r − N[i]) : i })`` — the combination of its
    source neighbors' blocks (the self block participates when the zero
    vector is in the neighborhood).  Send ``m``, receive ``m``.
``reduce-scatter`` / ``trivial-reduce-scatter`` (``reduce_scatter_block``)
    every process contributes one block *per neighbor* (block ``i``
    destined for ``r + N[i]``); process ``r`` receives
    ``reduce(op, { send-block i of (r − N[i]) : i })``.  Send ``t·m``,
    receive ``m``.  This is the sparse analogue of the optimal
    non-pipelined reduce-scatter round structure of Träff 2024
    (arXiv:2410.14234) and of the reduce_scatter optimizations of
    Jocksch et al. (arXiv:2006.13112): the reverse allgather tree gives
    ``C`` rounds versus ``t`` for the trivial algorithm.
``allreduce`` (``reduce_neighbors_allreduce``)
    every process receives the *full* neighborhood reduction of every
    source neighbor: receive slot ``i`` of rank ``q`` holds ``R(q −
    N[i])`` where ``R(r) = reduce_j block(r − N[j])``.  Send ``m``,
    receive ``t·m``.  Composed as the reverse reduction tree (root
    accumulator in temp) followed by the *forward* allgather schedule
    broadcasting the reduced value — ``2C`` rounds, reusing the same
    tree both directions.

The message-combining algorithms run the allgather tree of Algorithm 2
*in reverse*: for tree node ``q`` (relative route ``route(q)``) define

    A_r[q] = reduce over i in subtree(q) of block(r − N[i] + route(q)).

Then ``A_r[root]`` is the result, and the recurrence

    A_r[q] = [own contribution, once per terminal index of q]
             ⊕ over child edges (dim D, coordinate γ):  A_{r−γ·e_D}[child]

becomes an SPMD schedule: process the tree levels deepest-first; in the
round for (level, γ, D) every process sends accumulator ``A[child]`` to
the relative process ``+γ·e_D``, receives the symmetric counterpart into
a staging slot, and — after the phase's ``waitall`` — folds it into
``A[parent]`` via a gated :class:`~repro.core.schedule.LocalCombine`.
Accumulator seeding is expressed as ``pre_steps`` (first-write-wins: no
operator identity element is ever materialized).

The operator must be associative and commutative (as MPI requires for
``MPI_Op``); combination order is deterministic, so floating-point sums
are reproducible run-to-run.  Operators are carried in schedules as
string *tokens* (named, or ``custom-N`` for registered callables) so
schedules stay pure serializable data; :func:`resolve_op_token` maps a
token back to the callable and :data:`UFUNCS` exposes the vectorizable
named subset to the fused-kernel compiler in :mod:`repro.core.plan`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.allgather_schedule import AllgatherTree, build_allgather_schedule
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import LocalCombine, Phase, Round, Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError

#: named operators (all associative + commutative)
OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": np.minimum,
    "max": np.maximum,
    "band": lambda a, b: a & b,
    "bor": lambda a, b: a | b,
    "bxor": lambda a, b: a ^ b,
}

#: the binary ufunc realizing each named operator — what the plan
#: compiler fuses into sliced in-place kernels and ``ufunc.at``
#: scatter-reduces.  Custom callables fall back to per-step application.
UFUNCS: dict[str, np.ufunc] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
}

ReduceOp = Union[str, Callable[[np.ndarray, np.ndarray], np.ndarray]]


def resolve_op(op: ReduceOp) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    if callable(op):
        return op
    try:
        return OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown reduction op {op!r}; named ops: {sorted(OPS)}"
        ) from None


# ----------------------------------------------------------------------
# operator tokens: schedules carry strings, not callables
# ----------------------------------------------------------------------
_TOKEN_LOCK = threading.Lock()
#: id(fn) -> (token, ref) — identity-checked on lookup, so a dead entry
#: whose id was recycled can never alias a different callable
_CUSTOM_TOKENS: dict[int, tuple[str, Callable[[], Optional[Callable]]]] = {}
_CUSTOM_BY_TOKEN: dict[str, Callable[[], Optional[Callable]]] = {}
_custom_serial = 0


def op_token(op: ReduceOp) -> str:
    """The serializable token for an operator: the name for named ops,
    a process-local ``custom-N`` handle for callables (registered
    weakly where the type allows; numpy ufuncs are held strongly since
    they are immortal module globals anyway)."""
    if isinstance(op, str):
        if op in OPS:
            return op
        raise ValueError(
            f"unknown reduction op {op!r}; named ops: {sorted(OPS)}"
        )
    if not callable(op):
        raise ValueError(
            f"unknown reduction op {op!r}; named ops: {sorted(OPS)}"
        )
    global _custom_serial
    with _TOKEN_LOCK:
        ent = _CUSTOM_TOKENS.get(id(op))
        if ent is not None and ent[1]() is op:
            return ent[0]
        _custom_serial += 1
        token = f"custom-{_custom_serial}"
        try:
            ref: Callable[[], Optional[Callable]] = weakref.ref(op)
        except TypeError:  # e.g. np.ufunc objects refuse weak references
            ref = (lambda fn: (lambda: fn))(op)
        _CUSTOM_TOKENS[id(op)] = (token, ref)
        _CUSTOM_BY_TOKEN[token] = ref
        return token


def resolve_op_token(
    token: str,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Inverse of :func:`op_token`.  ``custom-N`` tokens resolve only in
    the registering process and only while the callable is alive."""
    fn = OPS.get(token)
    if fn is not None:
        return fn
    with _TOKEN_LOCK:
        ref = _CUSTOM_BY_TOKEN.get(token)
    fn = ref() if ref is not None else None
    if fn is None:
        raise ValueError(
            f"unknown reduction op token {token!r} (custom operators are "
            f"process-local and do not survive serialization)"
        )
    return fn


def is_custom_op_token(token: str) -> bool:
    return token.startswith("custom-")


def ufunc_for_token(token: str) -> Optional[np.ufunc]:
    """The vectorizable ufunc for a token, or ``None`` (custom ops)."""
    return UFUNCS.get(token)


def select_reduce_algorithm(topo: CartTopology, nbh: Neighborhood) -> str:
    """The ``algorithm="auto"`` cut-off for neighborhood reductions,
    shared by the direct call path (``CartComm.reduce_neighbors``) and
    the persistent handle (``PersistentReduce``) so the two cannot
    diverge: the reverse-tree combining schedule needs a fully periodic
    torus and wins exactly when it saves rounds (``C < t``; per-process
    volume grows from ``t`` to the tree edge count, but each round's
    latency dominates for the block sizes reductions carry)."""
    if topo.is_fully_periodic and nbh.combining_rounds < nbh.trivial_rounds:
        return "combining"
    return "trivial"


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def _layout(op: ReduceOp, dtype, m_bytes: int) -> tuple[str, str, int]:
    """Normalize (op, dtype, m) and check block/element compatibility."""
    token = op_token(op)
    dt = np.dtype(dtype)
    m = int(m_bytes)
    if m < 0:
        raise ScheduleError("block sizes must be non-negative")
    if m % dt.itemsize != 0:
        raise ScheduleError(
            f"reduction block of {m} B is not a multiple of "
            f"{dt.str} itemsize {dt.itemsize}"
        )
    return token, dt.str, m


def _tree_reduce_parts(
    nbh: Neighborhood,
    tree: AllgatherTree,
    m: int,
    root_dst: BlockRef,
    seed_src: Callable[[int], BlockRef],
    temp_off: int = 0,
) -> tuple[list[Phase], list[LocalCombine], int]:
    """The reverse-tree phases shared by the combining reduce kinds.

    Returns ``(phases, pre_steps, temp_nbytes)``.  Every non-root tree
    node gets an ``m``-byte accumulator temp slot (the root accumulates
    straight into ``root_dst``); every tree edge gets a disjoint
    ``m``-byte staging slot, so rounds stay plain overwrites and the
    operator is applied only by the post-``waitall`` combine steps.
    All combine steps targeting one accumulator reference the identical
    region — the first-write-wins resolution key.  No intra-phase hazard
    exists by construction: a level's rounds send level+1 accumulators
    and its combine steps write level-``ℓ`` accumulators, and no tree
    node is both.
    """
    d = nbh.d
    acc: dict[int, BlockRef] = {id(tree.root): root_dst}
    for node in tree.root.walk():
        if node is tree.root:
            continue
        acc[id(node)] = BlockRef("temp", temp_off, m)
        temp_off += m

    # accumulator seeding: once per terminal index (duplicate offset
    # vectors contribute once each — repeated identical pre-steps)
    pre_steps: list[LocalCombine] = []
    for node in tree.root.walk():
        for i in node.terminal:
            pre_steps.append(
                LocalCombine(src=seed_src(i), dst=acc[id(node)])
            )

    # reverse level order: deepest edges first
    edges_by_level = tree.edges_by_level()
    phases: list[Phase] = []
    for level in range(d - 1, -1, -1):
        dim = tree.dim_order[level]
        phase = Phase(dim=dim)
        by_coord: dict[int, list[tuple[object, object]]] = {}
        for c, parent, child in edges_by_level.get(level, []):
            by_coord.setdefault(c, []).append((parent, child))
        for round_index, c in enumerate(sorted(by_coord)):
            offset = tuple(c if j == dim else 0 for j in range(d))
            rnd = Round(
                offset=offset, send_blocks=BlockSet(), recv_blocks=BlockSet()
            )
            for parent, child in by_coord[c]:
                staging = BlockRef("temp", temp_off, m)
                temp_off += m
                rnd.send_blocks.append(acc[id(child)])
                rnd.recv_blocks.append(staging)
                rnd.logical_blocks += 1
                phase.combine_steps.append(
                    LocalCombine(
                        src=staging,
                        dst=acc[id(parent)],
                        when_round=round_index,
                    )
                )
            phase.rounds.append(rnd)
        phases.append(phase)
    return phases, pre_steps, temp_off


def _check_tree_invariants(sched: Schedule, tree: AllgatherTree) -> None:
    if sched.volume_blocks != tree.edge_count:  # pragma: no cover
        raise ScheduleError(
            f"reduce volume {sched.volume_blocks} != tree edges "
            f"{tree.edge_count}"
        )
    if sched.num_rounds != sched.neighborhood.combining_rounds:
        raise ScheduleError(  # pragma: no cover
            f"reduce rounds {sched.num_rounds} != C "
            f"{sched.neighborhood.combining_rounds}"
        )


def build_reduce_schedule(
    nbh: Neighborhood,
    dim_order: Optional[Sequence[int]] = None,
    *,
    m_bytes: int = 8,
    dtype: "np.typing.DTypeLike" = "float64",
    op: ReduceOp = "sum",
) -> Schedule:
    """The reverse-tree message-combining ``reduce_neighbors`` schedule
    (``C`` rounds; needs a fully periodic torus to execute).

    Dimension order defaults to the allgather heuristic (increasing
    ``C_k``), which minimizes the shared-prefix tree and therefore the
    reduction volume the same way it does the allgather volume.
    O(td) like the other schedules (Proposition 3.1 carries over).
    """
    token, dt, m = _layout(op, dtype, m_bytes)
    tree = AllgatherTree.build(nbh, dim_order)
    root_dst = BlockRef("recv", 0, m)
    phases, pre_steps, temp = _tree_reduce_parts(
        nbh, tree, m, root_dst, lambda i: BlockRef("send", 0, m)
    )
    sched = Schedule(
        kind="reduce",
        neighborhood=nbh,
        phases=phases,
        temp_nbytes=temp,
        send_layout=[BlockSet([BlockRef("send", 0, m)])],
        recv_layout=[BlockSet([root_dst])],
        combine_op=token,
        combine_dtype=dt,
        pre_steps=pre_steps,
        required_outputs=(root_dst,),
    )
    _check_tree_invariants(sched, tree)
    return sched


def build_reduce_scatter_schedule(
    nbh: Neighborhood,
    dim_order: Optional[Sequence[int]] = None,
    *,
    m_bytes: int = 8,
    dtype: "np.typing.DTypeLike" = "float64",
    op: ReduceOp = "sum",
) -> Schedule:
    """Reverse-tree ``reduce_scatter_block``: send block ``i`` (destined
    for ``r + N[i]``) seeds the tree node where index ``i`` terminates,
    so the same ``C``-round structure reduces ``t`` distinct
    contributions per process down to one block — the sparse analogue of
    Träff's optimal non-pipelined reduce-scatter (arXiv:2410.14234)."""
    token, dt, m = _layout(op, dtype, m_bytes)
    tree = AllgatherTree.build(nbh, dim_order)
    root_dst = BlockRef("recv", 0, m)
    phases, pre_steps, temp = _tree_reduce_parts(
        nbh, tree, m, root_dst, lambda i: BlockRef("send", i * m, m)
    )
    sched = Schedule(
        kind="reduce-scatter",
        neighborhood=nbh,
        phases=phases,
        temp_nbytes=temp,
        send_layout=[
            BlockSet([BlockRef("send", i * m, m)]) for i in range(nbh.t)
        ],
        recv_layout=[BlockSet([root_dst])],
        combine_op=token,
        combine_dtype=dt,
        pre_steps=pre_steps,
        required_outputs=(root_dst,),
    )
    _check_tree_invariants(sched, tree)
    return sched


def build_allreduce_schedule(
    nbh: Neighborhood,
    dim_order: Optional[Sequence[int]] = None,
    *,
    m_bytes: int = 8,
    dtype: "np.typing.DTypeLike" = "float64",
    op: ReduceOp = "sum",
) -> Schedule:
    """``reduce_neighbors_allreduce``: receive slot ``i`` of rank ``q``
    holds the full neighborhood reduction of rank ``q − N[i]``.

    Composition: the reverse reduction tree accumulates the local result
    ``R(r)`` into a temp root slot, then the *forward* allgather schedule
    (same tree) broadcasts it to every target — ``2C`` rounds, ``2·V``
    volume.  The allgather's self-block local copies read the temp root
    slot, which is safe because local copies execute in ``finish``,
    after every communication phase."""
    token, dt, m = _layout(op, dtype, m_bytes)
    tree = AllgatherTree.build(nbh, dim_order)
    t = nbh.t
    root_dst = BlockRef("temp", 0, m)
    phases, pre_steps, temp = _tree_reduce_parts(
        nbh,
        tree,
        m,
        root_dst,
        lambda i: BlockRef("send", 0, m),
        temp_off=m,
    )
    recv_blocks = [
        BlockSet([BlockRef("recv", i * m, m)]) for i in range(t)
    ]
    forward = build_allgather_schedule(
        nbh,
        BlockSet([root_dst]),
        recv_blocks,
        dim_order,
        temp_base=temp,
    )
    sched = Schedule(
        kind="allreduce",
        neighborhood=nbh,
        phases=phases + forward.phases,
        local_copies=list(forward.local_copies),
        temp_nbytes=forward.temp_nbytes,
        send_layout=[BlockSet([BlockRef("send", 0, m)])],
        recv_layout=recv_blocks,
        combine_op=token,
        combine_dtype=dt,
        pre_steps=pre_steps,
        # The forward broadcast only replicates the tree root — if *it*
        # was never seeded, no receive slot holds a reduction either.
        required_outputs=(root_dst,),
    )
    if sched.num_rounds != 2 * nbh.combining_rounds:  # pragma: no cover
        raise ScheduleError(
            f"allreduce rounds {sched.num_rounds} != 2C "
            f"{2 * nbh.combining_rounds}"
        )
    if sched.volume_blocks != 2 * tree.edge_count:  # pragma: no cover
        raise ScheduleError(
            f"allreduce volume {sched.volume_blocks} != 2 * tree edges "
            f"{2 * tree.edge_count}"
        )
    return sched


def _trivial_reduce_parts(
    nbh: Neighborhood,
    m: int,
    seed_src: Callable[[int], BlockRef],
    root_dst: BlockRef,
) -> tuple[list[Phase], list[LocalCombine], int]:
    """Listing-4 shape for the reductions: one blocking sendrecv phase
    per non-self neighbor (duplicate offsets get their own rounds and
    contribute once each), the self offsets as unconditional pre-steps.
    Each phase's combine step is gated on its single round having a live
    receive source, which realizes the halo skip semantics on meshes."""
    phases: list[Phase] = []
    pre_steps: list[LocalCombine] = []
    temp_off = 0
    for i in range(nbh.t):
        offset = nbh[i]
        if not any(offset):
            pre_steps.append(LocalCombine(src=seed_src(i), dst=root_dst))
            continue
        staging = BlockRef("temp", temp_off, m)
        temp_off += m
        rnd = Round(
            offset=offset,
            send_blocks=BlockSet([seed_src(i)]),
            recv_blocks=BlockSet([staging]),
            logical_blocks=1,
        )
        phases.append(
            Phase(
                dim=None,
                rounds=[rnd],
                combine_steps=[
                    LocalCombine(src=staging, dst=root_dst, when_round=0)
                ],
            )
        )
    return phases, pre_steps, temp_off


def build_trivial_reduce_schedule(
    nbh: Neighborhood,
    *,
    m_bytes: int = 8,
    dtype: "np.typing.DTypeLike" = "float64",
    op: ReduceOp = "sum",
) -> Schedule:
    """Reference ``reduce_neighbors``: gather every source block (``t``
    rounds, as in Listing 4) and reduce locally in neighbor order.
    Correct on meshes: off-mesh contributions are skipped, and a rank
    left with no contribution at all raises at finish."""
    token, dt, m = _layout(op, dtype, m_bytes)
    root_dst = BlockRef("recv", 0, m)
    phases, pre_steps, temp = _trivial_reduce_parts(
        nbh, m, lambda i: BlockRef("send", 0, m), root_dst
    )
    return Schedule(
        kind="trivial-reduce",
        neighborhood=nbh,
        phases=phases,
        temp_nbytes=temp,
        send_layout=[BlockSet([BlockRef("send", 0, m)])],
        recv_layout=[BlockSet([root_dst])],
        combine_op=token,
        combine_dtype=dt,
        pre_steps=pre_steps,
        required_outputs=(root_dst,),
    )


def build_trivial_reduce_scatter_schedule(
    nbh: Neighborhood,
    *,
    m_bytes: int = 8,
    dtype: "np.typing.DTypeLike" = "float64",
    op: ReduceOp = "sum",
) -> Schedule:
    """Reference ``reduce_scatter_block``: deliver send block ``i`` to
    neighbor ``+N[i]`` directly (``t`` rounds) and reduce on arrival."""
    token, dt, m = _layout(op, dtype, m_bytes)
    root_dst = BlockRef("recv", 0, m)
    phases, pre_steps, temp = _trivial_reduce_parts(
        nbh, m, lambda i: BlockRef("send", i * m, m), root_dst
    )
    return Schedule(
        kind="trivial-reduce-scatter",
        neighborhood=nbh,
        phases=phases,
        temp_nbytes=temp,
        send_layout=[
            BlockSet([BlockRef("send", i * m, m)]) for i in range(nbh.t)
        ],
        recv_layout=[BlockSet([root_dst])],
        combine_op=token,
        combine_dtype=dt,
        pre_steps=pre_steps,
        required_outputs=(root_dst,),
    )

