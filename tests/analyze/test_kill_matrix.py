"""The kill matrix: which verifier check catches which defect.

Proposition 3.1 makes a schedule's correctness a property of its data,
so the verifier has to be right, not large.  This module seeds defects —
corruptions of builder schedules and of their lowered plans — and runs
each one through :func:`verify_schedule` and through every check of the
verifier's ``_run_stages`` called alone.  It asserts two things:

* every mutant is rejected, by the whole verifier and by at least one
  check on its own;
* every check kills some mutant that no other check kills.  A check
  without such a kill catches nothing the others miss, and goes.

Every mutant is a *defect*: wrong bytes against the collective's
definition on some backend, a hazard (a result that depends on the
order ranks or rounds run in), a deadlock, or a departure from the
closed forms of Props. 3.1–3.3.

The lowering is not one of the checks.  It is the artifact the plan
checks judge; where it refuses a schedule (V501 — every backend would
raise the same refusal at first use) the plan checks have nothing to
run on, and the table shows the refusal in a column of its own.

The schedule mutators are generic — each corrupts whatever schedule it
is given, or says it does not apply — so the differential fuzzer of
``tests/core/test_properties.py`` draws them too.  ``python
tests/analyze/test_kill_matrix.py`` prints the table committed under
``docs/``; :func:`test_committed_table_is_current` keeps the two equal.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from repro.analyze import mutations
from repro.analyze import schedule_verifier as sv
from repro.analyze.certificates import CertificateStore
from repro.analyze.effects import check_batched_peers, run_effect_checks
from repro.analyze.report import CODES, ScheduleValidationError, VerificationReport
from repro.core.alltoall_schedule import build_trivial_alltoall_blocksets
from repro.core.builders import SCHEDULE_BUILDERS
from repro.core.neighborhood import Neighborhood
from repro.core.plan import BatchedPlan, BatchedRound
from repro.core.reduce_schedule import OPS, is_custom_op_token
from repro.core.schedule import Round, Schedule
from repro.core.stencils import moore_neighborhood, named_stencil
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError
from repro.stencil.halo import halo_specs

#: corrupts a schedule in place for a topology; False when it does not
#: apply to this schedule (nothing of the shape it corrupts)
Mutator = Callable[[Schedule, CartTopology], bool]


# ----------------------------------------------------------------------
# schedule mutators
# ----------------------------------------------------------------------
def _rounds(s: Schedule) -> list[Round]:
    return [rnd for ph in s.phases for rnd in ph.rounds]


def _siblings(s: Schedule, fits: Callable[[Round, Round], bool]):
    """The first two rounds of one phase that ``fits`` accepts."""
    for ph in s.phases:
        for i, a in enumerate(ph.rounds):
            for b in ph.rounds[i + 1 :]:
                if fits(a, b):
                    return a, b
    return None


def _nonempty(blocks: BlockSet) -> Optional[int]:
    return next((i for i, b in enumerate(blocks.blocks) if b.nbytes), None)


def _fresh_temp(s: Schedule, nbytes: int) -> BlockRef:
    """A ``temp`` region nothing references yet, declared."""
    start = max(s.temp_nbytes, sv._buffer_extents(s).get("temp", 0))
    s.temp_nbytes = start + nbytes
    return BlockRef("temp", start, nbytes)


def _replace(blocks: BlockSet, i: int, ref: BlockRef) -> BlockSet:
    out = list(blocks.blocks)
    out[i] = ref
    return BlockSet(out)


SCHEDULE_MUTATORS: dict[str, Mutator] = {}


def _mutator(name: str) -> Callable[[Mutator], Mutator]:
    def register(fn: Mutator) -> Mutator:
        SCHEDULE_MUTATORS[name] = fn
        return fn

    return register


@_mutator("orphan-source")
def _orphan_source(s, topo):
    """A round receives from a rank that does not send to it."""
    rnd = next((r for r in _rounds(s) if any(r.offset)), None)
    if rnd is None:
        return False
    rnd.recv_offset = tuple(o + 2 for o in rnd.offset)
    return True


@_mutator("crossed-sources")
def _crossed_sources(s, topo):
    """Two rounds of a phase each receive the other's message."""
    pair = _siblings(s, lambda a, b: a.offset != b.offset)
    if pair is None:
        return False
    a, b = pair
    a.recv_offset, b.recv_offset = b.offset, a.offset
    return True


@_mutator("duplicate-receive-block")
def _duplicate_receive_block(s, topo):
    """A round's receive names one block twice."""
    for rnd in _rounds(s):
        i = _nonempty(rnd.recv_blocks)
        if i is not None:
            blocks = rnd.recv_blocks.blocks
            rnd.recv_blocks = BlockSet(blocks + [blocks[i]])
            return True
    return False


@_mutator("round-byte-mismatch")
def _round_byte_mismatch(s, topo):
    """A round receives one byte less than it sends."""
    for rnd in _rounds(s):
        i = _nonempty(rnd.recv_blocks)
        if i is not None:
            b = rnd.recv_blocks.blocks[i]
            rnd.recv_blocks = _replace(
                rnd.recv_blocks, i, BlockRef(b.buffer, b.offset, b.nbytes - 1)
            )
            return True
    return False


@_mutator("sibling-rounds-write-same-bytes")
def _sibling_rounds_write_same_bytes(s, topo):
    """Two rounds of a phase receive into the same bytes."""
    pair = _siblings(
        s,
        lambda a, b: a.recv_blocks.total_nbytes == b.recv_blocks.total_nbytes
        and a.recv_blocks.total_nbytes > 0
        and a.recv_blocks != b.recv_blocks,
    )
    if pair is None:
        return False
    a, b = pair
    b.recv_blocks = BlockSet(list(a.recv_blocks.blocks))
    return True


@_mutator("send-reads-sibling-receive")
def _send_reads_sibling_receive(s, topo):
    """A round sends the bytes a round of its phase receives."""
    pair = _siblings(
        s,
        lambda a, b: a.send_blocks.total_nbytes == b.recv_blocks.total_nbytes
        and a.send_blocks.total_nbytes > 0,
    )
    if pair is None:
        return False
    a, b = pair
    a.send_blocks = BlockSet(list(b.recv_blocks.blocks))
    return True


@_mutator("under-declared-temp")
def _under_declared_temp(s, topo):
    """The schedule declares one byte of scratch less than it uses."""
    if s.temp_nbytes == 0:
        return False
    s.temp_nbytes -= 1
    return True


@_mutator("dropped-round")
def _dropped_round(s, topo):
    """A phase loses its last round."""
    ph = next((ph for ph in s.phases if ph.rounds), None)
    if ph is None:
        return False
    ph.rounds.pop()
    return True


@_mutator("duplicated-round")
def _duplicated_round(s, topo):
    """A phase runs its first round twice."""
    ph = next((ph for ph in s.phases if ph.rounds), None)
    if ph is None:
        return False
    ph.rounds.append(copy.deepcopy(ph.rounds[0]))
    return True


@_mutator("swapped-phases")
def _swapped_phases(s, topo):
    """The first two phases run in the other order."""
    idx = [i for i, ph in enumerate(s.phases) if ph.rounds]
    if len(idx) < 2:
        return False
    i, j = idx[:2]
    s.phases[i], s.phases[j] = s.phases[j], s.phases[i]
    return True


@_mutator("swapped-receive-slots")
def _swapped_receive_slots(s, topo):
    """Two rounds of equal size deliver into each other's slots."""
    rounds = _rounds(s)
    for i, a in enumerate(rounds):
        for b in rounds[i + 1 :]:
            n = a.recv_blocks.total_nbytes
            if n and n == b.recv_blocks.total_nbytes and a.recv_blocks != b.recv_blocks:
                a.recv_blocks, b.recv_blocks = b.recv_blocks, a.recv_blocks
                return True
    return False


@_mutator("unwritten-scratch-shipped")
def _unwritten_scratch_shipped(s, topo):
    """A round sends scratch bytes nothing ever wrote."""
    for rnd in _rounds(s):
        i = _nonempty(rnd.send_blocks)
        if i is not None:
            fresh = _fresh_temp(s, rnd.send_blocks.blocks[i].nbytes)
            rnd.send_blocks = _replace(rnd.send_blocks, i, fresh)
            return True
    return False


@_mutator("last-hop-lands-in-temp")
def _last_hop_lands_in_temp(s, topo):
    """A block's last hop lands in scratch instead of its slot."""
    for ph in reversed(s.phases):
        for rnd in ph.rounds:
            blocks = rnd.recv_blocks.blocks
            i = next(
                (i for i, b in enumerate(blocks) if b.nbytes and b.buffer != "temp"),
                None,
            )
            if i is not None:
                fresh = _fresh_temp(s, blocks[i].nbytes)
                rnd.recv_blocks = _replace(rnd.recv_blocks, i, fresh)
                return True
    return False


@_mutator("receive-past-its-layout")
def _receive_past_its_layout(s, topo):
    """A round receives past the end of the receive layout."""
    extents = sv._buffer_extents(s)
    for rnd in reversed(_rounds(s)):
        blocks = rnd.recv_blocks.blocks
        for i, b in enumerate(blocks):
            if b.nbytes and b.buffer != "temp":
                moved = BlockRef(b.buffer, extents[b.buffer], b.nbytes)
                rnd.recv_blocks = _replace(rnd.recv_blocks, i, moved)
                return True
    return False


@_mutator("round-to-wrong-neighbour")
def _round_to_wrong_neighbour(s, topo):
    """A round sends the opposite way and still receives as before."""
    rnd = next((r for r in _rounds(s) if any(r.offset)), None)
    if rnd is None:
        return False
    rnd.recv_offset = rnd.recv_source_offset
    rnd.offset = tuple(-o for o in rnd.offset)
    return True


@_mutator("blocks-swapped-within-round")
def _blocks_swapped_within_round(s, topo):
    """A round scatters two equal blocks into each other's places."""
    for rnd in _rounds(s):
        blocks = rnd.recv_blocks.blocks
        for i, a in enumerate(blocks):
            for j in range(i + 1, len(blocks)):
                b = blocks[j]
                if a.nbytes and a.nbytes == b.nbytes and a != b:
                    out = list(blocks)
                    out[i], out[j] = b, a
                    rnd.recv_blocks = BlockSet(out)
                    return True
    return False


@_mutator("local-copy-size-mismatch")
def _local_copy_size_mismatch(s, topo):
    """A local copy writes one byte less than it reads."""
    lc = next((lc for lc in s.local_copies if lc.dst.nbytes), None)
    if lc is None:
        return False
    lc.dst = BlockRef(lc.dst.buffer, lc.dst.offset, lc.dst.nbytes - 1)
    return True


@_mutator("local-copy-to-wrong-slot")
def _local_copy_to_wrong_slot(s, topo):
    """A rank's own block is copied into another slot of its size."""
    for lc in s.local_copies:
        for slot in s.recv_layout or ():
            ref = slot.blocks[0] if len(slot.blocks) == 1 else None
            if ref is not None and ref.nbytes == lc.dst.nbytes and ref != lc.dst:
                lc.dst = ref
                return True
    return False


@_mutator("local-copy-dropped")
def _local_copy_dropped(s, topo):
    """The local copies do not run."""
    if not s.local_copies:
        return False
    s.local_copies.clear()
    return True


@_mutator("zero-byte-extra-round")
def _zero_byte_extra_round(s, topo):
    """A phase gains a round that moves nothing."""
    ph = next((ph for ph in s.phases if ph.rounds), None)
    if ph is None:
        return False
    ph.rounds.append(Round(ph.rounds[0].offset, BlockSet(), BlockSet()))
    return True


@_mutator("extra-volume-into-unread-scratch")
def _extra_volume_into_unread_scratch(s, topo):
    """A round ships one more block, into scratch nothing reads."""
    for rnd in _rounds(s):
        i = _nonempty(rnd.send_blocks)
        if i is not None:
            block = rnd.send_blocks.blocks[i]
            rnd.send_blocks = BlockSet(rnd.send_blocks.blocks + [block])
            rnd.recv_blocks = BlockSet(
                rnd.recv_blocks.blocks + [_fresh_temp(s, block.nbytes)]
            )
            rnd.logical_blocks += 1
            return True
    return False


@_mutator("zero-byte-orphan-send")
def _zero_byte_orphan_send(s, topo):
    """A zero-byte round's receive source falls off the mesh for every
    rank while its send still goes out: an unmatched send, which
    blocks forever under Listing 4's rendezvous sendrecv."""
    mesh = [k for k, periodic in enumerate(topo.periods) if not periodic]
    rnd = next(
        (r for r in _rounds(s) if not r.send_blocks.total_nbytes and any(r.offset)),
        None,
    )
    if not mesh or rnd is None:
        return False
    k = mesh[0]
    rnd.recv_offset = tuple(
        topo.dims[k] if j == k else o for j, o in enumerate(rnd.offset)
    )
    return True


# reduction corruptions: the mutation harness's, and two of their own
def _schedule_mutant(name: str) -> Mutator:
    corrupt = mutations.SCHEDULE_MUTANTS[name][1]

    def mutate(s: Schedule, topo: CartTopology) -> bool:
        corrupt(s)
        return True

    return mutate


#: a registered non-commutative operator, and a process-local one the
#: definition cannot be folded with
_NON_COMMUTATIVE = "kill-matrix-subtract"


def _max_minus_one(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b) - 1


def _non_commutative_operator(s: Schedule, topo: CartTopology) -> bool:
    """The schedule folds with an operator that is not commutative."""
    s.combine_op = _NON_COMMUTATIVE
    return True


# ----------------------------------------------------------------------
# the cases the matrix corrupts
# ----------------------------------------------------------------------
NBH9 = named_stencil("9-point")
NBH5 = named_stencil("5-point")
SELF9 = moore_neighborhood(2, 1, include_self=True)
TORUS = ((4, 4), (True, True))
MESH = ((4, 4), (False, True))


class Case(NamedTuple):
    """A builder schedule on a topology: ``sizes`` are per-neighbour
    alltoall block sizes (default: the sweep's layout at 4 B), ``op``
    a reduction's operator; ``halo`` lays the blocks out as the halo
    exchange of a 4x4 interior, send and receive in one grid buffer —
    an in-place exchange, which no definition can judge."""

    kind: str
    nbh: Neighborhood
    topo: tuple[tuple[int, ...], tuple[bool, ...]] = TORUS
    sizes: Optional[tuple[int, ...]] = None
    op: object = "sum"
    halo: bool = False

    def build(self) -> Schedule:
        if self.halo:
            sends, recvs = halo_specs((4, 4), 1, self.nbh, 1)
            return SCHEDULE_BUILDERS[self.kind](self.nbh, list(sends), list(recvs))
        if self.sizes is not None:
            blocks = build_trivial_alltoall_blocksets(self.sizes)
            return SCHEDULE_BUILDERS[self.kind](self.nbh, *blocks)
        if self.kind in sv.REDUCE_KINDS:
            return SCHEDULE_BUILDERS[self.kind](
                self.nbh, m_bytes=8, dtype="int64", op=self.op
            )
        return sv.build_for_kind(self.kind, self.nbh, 4)

    def topology(self) -> CartTopology:
        return CartTopology(*self.topo)


UNIFORM = (4,) * NBH9.t

#: row -> (defect class, mutator, case)
SCHEDULE_ROWS: dict[str, tuple[str, Mutator, Case]] = {
    "orphan-source": (
        "deadlock", _orphan_source, Case("trivial-alltoall", NBH5)
    ),
    "crossed-sources": ("deadlock", _crossed_sources, Case("alltoall", NBH9)),
    "duplicate-receive-block": (
        "wrong bytes",
        _duplicate_receive_block,
        Case("direct-alltoall", NBH5),
    ),
    "round-byte-mismatch": (
        "wrong bytes",
        _round_byte_mismatch,
        Case("trivial-alltoall", NBH9),
    ),
    "sibling-rounds-write-same-bytes": (
        "hazard",
        _sibling_rounds_write_same_bytes,
        Case("alltoall", NBH9, sizes=UNIFORM),
    ),
    "send-reads-sibling-receive": (
        "hazard",
        _send_reads_sibling_receive,
        Case("alltoall", NBH9, sizes=UNIFORM),
    ),
    "under-declared-temp": (
        "wrong bytes",
        _under_declared_temp,
        Case("alltoall", NBH9),
    ),
    "dropped-round": ("wrong bytes", _dropped_round, Case("alltoall", NBH9)),
    "duplicated-round": ("hazard", _duplicated_round, Case("alltoall", NBH9)),
    "halo-sibling-rounds-write-same-bytes": (
        "hazard",
        _sibling_rounds_write_same_bytes,
        Case("direct-alltoall", NBH9, halo=True),
    ),
    "halo-send-reads-sibling-receive": (
        "hazard",
        _send_reads_sibling_receive,
        Case("direct-alltoall", NBH9, halo=True),
    ),
    "swapped-phases": ("wrong bytes", _swapped_phases, Case("alltoall", NBH9)),
    "swapped-receive-slots": (
        "wrong bytes",
        _swapped_receive_slots,
        Case("alltoall", NBH9, sizes=UNIFORM),
    ),
    "unwritten-scratch-shipped": (
        "wrong bytes",
        _unwritten_scratch_shipped,
        Case("alltoall", NBH9),
    ),
    "last-hop-lands-in-temp": (
        "wrong bytes",
        _last_hop_lands_in_temp,
        Case("alltoall", NBH9),
    ),
    "receive-past-its-layout": (
        "wrong bytes",
        _receive_past_its_layout,
        Case("trivial-alltoall", NBH9),
    ),
    "round-to-wrong-neighbour": (
        "deadlock",
        _round_to_wrong_neighbour,
        Case("trivial-alltoall", NBH9),
    ),
    "allgather-slot-swap": (
        "wrong bytes",
        _blocks_swapped_within_round,
        Case("allgather", NBH9),
    ),
    "allgather-dropped-round": (
        "wrong bytes",
        _dropped_round,
        Case("allgather", NBH9),
    ),
    "local-copy-size-mismatch": (
        "wrong bytes",
        _local_copy_size_mismatch,
        Case("alltoall", SELF9, ((3, 3), (True, True))),
    ),
    "local-copy-to-wrong-slot": (
        "wrong bytes",
        _local_copy_to_wrong_slot,
        Case("trivial-alltoall", SELF9, ((3, 3), (True, True))),
    ),
    "local-copy-dropped": (
        "wrong bytes",
        _local_copy_dropped,
        Case("direct-alltoall", SELF9, ((3, 3), (True, True))),
    ),
    "mesh-swapped-receive-slots": (
        "wrong bytes",
        _swapped_receive_slots,
        Case("trivial-alltoall", NBH9, MESH),
    ),
    "zero-byte-extra-round": (
        "closed form",
        _zero_byte_extra_round,
        Case("alltoall", NBH9),
    ),
    "extra-volume-into-unread-scratch": (
        "closed form",
        _extra_volume_into_unread_scratch,
        Case("alltoall", NBH9),
    ),
    "allgather-extra-volume-into-unread-scratch": (
        "closed form",
        _extra_volume_into_unread_scratch,
        Case("allgather", NBH9),
    ),
    "mesh-zero-byte-orphan-send": (
        "deadlock",
        _zero_byte_orphan_send,
        Case("trivial-alltoall", NBH9, MESH, sizes=(4, 0, 4, 4, 4, 4, 4, 4)),
    ),
    **{
        name: (
            "closed form" if code == "V801" else "wrong bytes",
            _schedule_mutant(name),
            Case("reduce", NBH9),
        )
        for name, (code, _) in mutations.SCHEDULE_MUTANTS.items()
    },
    "custom-op-reroute-combine-dst": (
        "wrong bytes",
        _schedule_mutant("reduce-reroute-combine-dst"),
        Case("reduce", NBH9, op=_max_minus_one),
    ),
    "non-commutative-operator": (
        "wrong bytes",
        _non_commutative_operator,
        Case("reduce", NBH9),
    ),
}


# ----------------------------------------------------------------------
# plan mutants: lowered plans of in-place schedules, which no definition
# can judge, and the plan mutants of repro.analyze.mutations
# ----------------------------------------------------------------------
def _put(plan: BatchedPlan, **fields: object) -> BatchedPlan:
    """A copy of ``plan`` with ``fields`` replaced."""
    out = copy.copy(plan)
    for name, value in fields.items():
        setattr(out, name, value)
    return out


def _with_rounds(
    plan: BatchedPlan, changes: dict[tuple[int, int], BatchedRound]
) -> BatchedPlan:
    """``plan`` with the rounds at ``(phase, round)`` replaced."""
    phases = [list(phase) for phase in plan.phases]
    for (pi, ri), rnd in changes.items():
        phases[pi][ri] = rnd
    return _put(plan, phases=tuple(tuple(phase) for phase in phases))


def _edges(plan: BatchedPlan) -> tuple[int, int]:
    """Two rounds of the halo plan's phase whose ghost regions have one
    size (the west and east columns)."""
    sizes = [rnd.recv.total_nbytes for rnd in plan.phases[0]]
    a = next(i for i, n in enumerate(sizes) if sizes.count(n) > 1 and n > 1)
    return a, next(j for j in range(a + 1, len(sizes)) if sizes[j] == sizes[a])


def _halo_unpack_kernels_swapped(plan: BatchedPlan) -> BatchedPlan:
    """Two rounds scatter into each other's ghost regions."""
    a, b = _edges(plan)
    ra, rb = plan.phases[0][a], plan.phases[0][b]
    return _with_rounds(
        plan,
        {
            (0, a): BatchedRound(ra.sources, ra.targets, ra.send, rb.recv),
            (0, b): BatchedRound(rb.sources, rb.targets, rb.send, ra.recv),
        },
    )


def _halo_peer_vectors_swapped(plan: BatchedPlan) -> BatchedPlan:
    """Two rounds exchange with each other's neighbours: each round's
    peer vectors are a consistent matching, just not the topology's."""
    a, b = _edges(plan)
    ra, rb = plan.phases[0][a], plan.phases[0][b]
    return _with_rounds(
        plan,
        {
            (0, a): BatchedRound(rb.sources, rb.targets, ra.send, ra.recv),
            (0, b): BatchedRound(ra.sources, ra.targets, rb.send, rb.recv),
        },
    )


def _halo_receive_dropped_at_unsampled_rank(plan: BatchedPlan) -> BatchedPlan:
    """One rank the rank-view check does not sample stops receiving a
    round its source still sends: its ghost region goes stale."""
    rnd = plan.phases[0][0]
    sampled = set(sv._sample_ranks(plan.p))
    j = next(j for j in range(plan.p) if j not in sampled)
    sources = rnd.sources.copy()
    sources[j] = -1
    return _with_rounds(
        plan, {(0, 0): BatchedRound(sources, rnd.targets, rnd.send, rnd.recv)}
    )


#: row -> (defect class, torus dims, corruption of the halo case's plan)
HALO_PLAN_ROWS: dict[
    str, tuple[str, tuple[int, ...], Callable[[BatchedPlan], BatchedPlan]]
] = {
    "halo-unpack-kernels-swapped": (
        "wrong bytes",
        (4, 4),
        _halo_unpack_kernels_swapped,
    ),
    "halo-peer-vectors-swapped": (
        "wrong bytes",
        (4, 4),
        _halo_peer_vectors_swapped,
    ),
    "halo-receive-dropped-at-unsampled-rank": (
        "wrong bytes",
        (5, 5),
        _halo_receive_dropped_at_unsampled_rank,
    ),
}

#: mutants of the harness whose corrupted artifact still computes the
#: definition, each with why: they hold no check in place
BENIGN = {
    "duplicate-recv-scatter-op": "the repeated op writes the same bytes again",
    "duplicate-send-gather-op": "the repeated op packs the same bytes again",
    "combine-duplicate-initializing-copy": "the repeated copy writes the same bytes",
    "batched-senders-miscount": "only the lowering's wire-byte count reads it",
}


class _Captured(Exception):
    """Raised by a patched judge of the mutation harness: carries the
    schedule and the whole corrupted plan the judge was handed a part
    of."""


def _harness_plans() -> dict[str, tuple[str, Schedule, BatchedPlan]]:
    """The mutants of :mod:`repro.analyze.mutations` that corrupt a
    plan, as ``(expected code, the schedule, its plan with the corrupted
    kernel, round, step list or copy program put in place)``.  The
    others — runtime sources, which no plan carries, and the reduction
    schedule mutants, which are rows of their own — are left out."""
    fx = mutations._Fixture()
    fx.check_baseline()
    alltoall, reduce = fx.bplan, fx.reduce_bplan

    def kernel(k, sizes, report, *, role, **_):
        pi, ri, rnd = fx.round_with(role)
        changed = copy.copy(rnd)
        setattr(changed, role, k)
        raise _Captured(fx.schedule, _with_rounds(alltoall, {(pi, ri): changed}))

    def batched_round(rnd, p, report, **_):
        raise _Captured(fx.schedule, _with_rounds(alltoall, {(0, 0): rnd}))

    def whole_plan(plan):
        raise _Captured(fx.schedule, plan)

    def copy_program(prog, sizes, report):
        raise _Captured(fx.schedule, _put(alltoall, copy_program=prog))

    def combine(rnd, p, sizes, report, **_):
        if rnd.steps[0] is reduce.pre_program.steps[0]:
            raise _Captured(fx.reduce_schedule, _put(reduce, pre_program=rnd))
        programs = list(reduce.combine_programs)
        i = next(i for i, c in enumerate(programs) if c is not None)
        programs[i] = rnd
        raise _Captured(
            fx.reduce_schedule, _put(reduce, combine_programs=tuple(programs))
        )

    def plan_kernels(schedule, report, plan, *_):
        raise _Captured(schedule, plan)

    def execution(schedule, topo, plan, report, **_):
        raise _Captured(schedule, plan)

    judges = {
        (mutations, "check_kernel"): kernel,
        (mutations, "check_batched_round"): batched_round,
        (mutations, "_plan_codes"): whole_plan,
        (mutations, "check_copy_program"): copy_program,
        (mutations, "check_batched_combine"): combine,
        (sv, "_check_plan_kernels"): plan_kernels,
        (sv, "_check_execution"): execution,
    }
    saved = {key: getattr(*key) for key in judges}
    out: dict[str, tuple[str, Schedule, BatchedPlan]] = {}
    try:
        for (module, name), judge in judges.items():
            setattr(module, name, judge)
        for name, expect, mutate in mutations._REGISTRY:
            if name in mutations.SCHEDULE_MUTANTS:
                continue
            try:
                mutate(fx)
            except _Captured as caught:
                out[name] = (expect, *caught.args)
    finally:
        for (module, name), judge in saved.items():
            setattr(module, name, judge)
    return out


# ----------------------------------------------------------------------
# the checks of _run_stages, each called alone
# ----------------------------------------------------------------------
def _needs_plan(check):
    def run(schedule, topo, plan, report):
        if not isinstance(plan, ScheduleError):
            check(schedule, topo, plan, report)

    return run


def _reduction(check):
    def run(schedule, topo, plan, report):
        if schedule.is_reduction:
            check(schedule, topo, plan, report)

    return run


def _definition(schedule: Schedule) -> bool:
    """Whether the sentinel execution can fold a reduction's definition
    itself (a named operator; a process-local one it cannot)."""
    return schedule.is_reduction and not is_custom_op_token(schedule.combine_op)


CHECKS: dict[str, Callable[..., None]] = {
    "quantitative": lambda s, topo, plan, rep: sv._check_quantitative(s, rep),
    "matching+deadlock": lambda s, topo, plan, rep: sv._check_matching(s, topo, rep),
    "buffer-bounds": lambda s, topo, plan, rep: sv._check_buffer_bounds(s, rep),
    "reduce-structure": _reduction(
        lambda s, topo, plan, rep: sv._check_reduce_structure(s, topo, rep)
    ),
    "reduce-dataflow": _reduction(
        lambda s, topo, plan, rep: sv._check_reduce_dataflow(s, rep)
    ),
    "plan-lowering": _needs_plan(
        lambda s, topo, plan, rep: sv._check_plan_kernels(s, rep, plan)
    ),
    "rank-views": _needs_plan(
        lambda s, topo, plan, rep: sv._check_rank_views(s, topo, plan, rep)
    ),
    "batched-peers": _needs_plan(
        lambda s, topo, plan, rep: check_batched_peers(plan, rep)
    ),
    "matrix-execution": _needs_plan(
        lambda s, topo, plan, rep: sv._check_execution(
            s, topo, plan, rep, definition=_definition(s)
        )
    ),
    "effects": _needs_plan(
        lambda s, topo, plan, rep: run_effect_checks(s, topo, rep, plan=plan)
    ),
}


class Row(NamedTuple):
    """One mutant: what it is, what the verifier says, and what each
    check says on its own (checks that say nothing left out)."""

    name: str
    defect: str
    verdict: tuple[str, ...]
    refused: bool
    kills: dict[str, tuple[str, ...]]


def _judge(
    name: str,
    defect: str,
    schedule: Schedule,
    topo: CartTopology,
    plan: "BatchedPlan | ScheduleError",
    verdict: tuple[str, ...],
) -> Row:
    kills = {}
    for check, run in CHECKS.items():
        report = VerificationReport(schedule.kind, topo.dims, topo.periods)
        run(copy.deepcopy(schedule), topo, plan, report)
        if report.codes():
            kills[check] = tuple(sorted(report.codes()))
    return Row(name, defect, verdict, isinstance(plan, ScheduleError), kills)


@lru_cache(maxsize=None)
def plan_mutants() -> dict[str, tuple[str, Schedule, CartTopology, BatchedPlan]]:
    """Every plan mutant: its defect, schedule, topology and corrupted plan."""
    out = {}
    for name, (defect, dims, corrupt) in HALO_PLAN_ROWS.items():
        schedule = Case("direct-alltoall", NBH9, halo=True).build()
        topo = CartTopology(dims)
        out[name] = (defect, schedule, topo, corrupt(sv._lower(schedule, topo)))
    fx_topo = CartTopology(mutations._DIMS, mutations._PERIODS)
    for name, (expect, schedule, plan) in _harness_plans().items():
        out[name] = ("benign" if name in BENIGN else expect, schedule, fx_topo, plan)
    return out


@lru_cache(maxsize=None)
def kill_matrix() -> tuple[Row, ...]:
    """Every mutant, judged whole and by every check alone."""
    rows = []
    OPS[_NON_COMMUTATIVE] = np.subtract
    try:
        for name, (defect, mutate, case) in SCHEDULE_ROWS.items():
            topo = case.topology()
            schedule = case.build()
            assert mutate(schedule, topo), f"{name} does not apply"
            report = sv.verify_schedule(copy.deepcopy(schedule), *case.topo)
            lowered = sv._lower(copy.deepcopy(schedule), topo)
            verdict = tuple(sorted(report.codes()))
            rows.append(_judge(name, defect, schedule, topo, lowered, verdict))
    finally:
        del OPS[_NON_COMMUTATIVE]
    # a corrupted plan's rank views are its own, not memoized ones of
    # the plan it was copied from
    for name, (defect, schedule, topo, plan) in plan_mutants().items():
        plan = _put(plan, _views={})
        rows.append(_judge(name, defect, schedule, topo, plan, ()))
    return tuple(rows)


def unique_kills(rows=None) -> dict[str, list[str]]:
    """Per check, the mutants it alone kills."""
    out: dict[str, list[str]] = {check: [] for check in CHECKS}
    for row in rows or kill_matrix():
        if len(row.kills) == 1 and row.defect != "benign":
            [check] = row.kills
            out[check].append(row.name)
    return out


def render() -> str:
    """The matrix as a markdown table, and each check's unique kills."""
    rows = kill_matrix()
    head = ["mutant", "defect", "verify_schedule", "lowering", *CHECKS]
    lines = [
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for row in rows:
        cells = [
            row.name,
            row.defect,
            " ".join(row.verdict) or "—",
            "refused" if row.refused else "",
            *(" ".join(row.kills.get(check, ())) for check in CHECKS),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for check, names in unique_kills(rows).items():
        lines.append(f"- `{check}` alone kills: {', '.join(names) or 'nothing'}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the assertions
# ----------------------------------------------------------------------
def test_the_matrix_is_substantial():
    rows = kill_matrix()
    schedule_rows = [SCHEDULE_ROWS[r.name] for r in rows if r.name in SCHEDULE_ROWS]
    assert len(schedule_rows) >= 20
    assert any(case.topo == MESH for _, _, case in schedule_rows)
    assert any(case.nbh.has_self for _, _, case in schedule_rows)
    assert len(mutations._REGISTRY) == 38


@pytest.mark.parametrize("name", sorted(SCHEDULE_ROWS))
def test_every_schedule_mutant_is_rejected(name):
    row = next(r for r in kill_matrix() if r.name == name)
    assert row.verdict, f"{name} certified"
    assert row.kills or row.refused, f"{name}: no check kills it alone"


def test_every_plan_mutant_is_killed_by_a_check():
    for row in kill_matrix():
        if row.name not in SCHEDULE_ROWS:
            assert row.kills, f"{row.name}: no check kills it alone"


@pytest.mark.parametrize("name", sorted(plan_mutants()))
def test_every_plan_mutant_is_killed_where_its_witness_is_on_file(
    name, monkeypatch
):
    """The clean lowering of the mutant's schedule is certified through
    a store first, so its shape and plan digest are on file; the
    corrupted plan must still be refused, on whichever path its key
    takes it."""
    _, schedule, topo, plan = plan_mutants()[name]
    store = CertificateStore()
    sv.certify_schedule(copy.deepcopy(schedule), topo.dims, topo.periods, inherit=store)
    assert store.info().entries == 1
    monkeypatch.setattr(sv, "_lower", lambda *_: _put(plan, _views={}))
    with pytest.raises(ScheduleValidationError):
        sv.certify_schedule(
            copy.deepcopy(schedule), topo.dims, topo.periods, inherit=store
        )


def test_every_harness_mutant_is_still_killed():
    results = mutations.run_mutations()
    assert len(results) == 38 and all(r.killed for r in results)


def test_every_check_has_a_unique_kill():
    alone = unique_kills()
    assert [check for check, names in alone.items() if not names] == []


def test_v103_comes_from_one_check():
    """A round whose two sides differ in size is reported once per
    matched pair, by matching, naming both ranks."""
    row = next(r for r in kill_matrix() if r.name == "round-byte-mismatch")
    assert [c for c, codes in row.kills.items() if "V103" in codes] == [
        "matching+deadlock"
    ]


#: codes the verifier does not raise through ``verify_schedule``, and
#: the test that makes each fire
ELSEWHERE = {
    "V104": "test_v104_is_the_runtime_validation",
    "V601": "tests/apps/test_broadcast_bounds.py",
    "V602": "tests/apps/test_broadcast_bounds.py",
    "V603": "tests/apps/test_broadcast_bounds.py",
    "V804": "tests/analyze/test_reduce_verifier.py",
}


def test_every_code_fires_somewhere():
    seen = {
        code
        for row in kill_matrix()
        for codes in (row.verdict, *row.kills.values())
        for code in codes
    }
    assert set(CODES) - seen == set(ELSEWHERE)


def test_v104_is_the_runtime_validation():
    case = SCHEDULE_ROWS["local-copy-size-mismatch"][2]
    schedule = case.build()
    _local_copy_size_mismatch(schedule, case.topology())
    with pytest.raises(ScheduleValidationError) as caught:
        schedule.validate()
    assert caught.value.codes == {"V104"}


def test_committed_table_is_current():
    [doc] = Path(__file__).resolve().parents[2].glob("docs/*kill_matrix.md")
    assert render() in doc.read_text()


if __name__ == "__main__":
    print(render(), end="")
