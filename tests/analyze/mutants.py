"""The mutant registry: every seeded defect the analyzer is judged by.

Proposition 3.1 makes a schedule's correctness a property of its data,
so the verifier has to be right, not large.  This module is one table
of mutants and one judge.  A row is one of three kinds:

* a **schedule row** corrupts a builder schedule in place
  (``(Schedule, CartTopology) → bool``, False where the mutator does not
  apply) and goes through :func:`verify_schedule` and through every
  check of the verifier's ``_run_stages`` called alone;
* a **plan row** corrupts the clean lowering of a builder schedule
  (``BatchedPlan → BatchedPlan``) and goes through the same checks,
  alone and together (the verifier handed that plan as its lowering);
* a **source row** corrupts the source of a runtime module (``str →
  str``) and goes through the lint's linearity and lockset pass
  (:func:`analyze_source`, rules L006–L009) and its unused-import rule
  (:func:`unused_imports`, L010).

Every row names its defect: wrong bytes against the collective's
definition on some backend, a hazard (a result that depends on the
order ranks or rounds run in), a deadlock, a leak, dead code, a
departure from the closed forms of Props. 3.1–3.3, or ``benign`` — a corruption that still
computes the definition, which earns no check its place.  A row with an
expected code must report it.  The judge runs every row at 4-byte and
24-byte blocks (word lanes, then block lanes of 24 and 72 bytes).

The lowering is not one of the checks.  It is the artifact the plan
checks judge; where it refuses a schedule (V501 — every backend would
raise the same refusal at first use) the plan checks have nothing to
run on, and the table shows the refusal in a column of its own.

The generic schedule mutators corrupt whatever schedule they are given,
so the differential fuzzer of ``tests/core/test_properties.py`` draws
them too.  ``tests/analyze/test_kill_matrix.py`` asserts what the table
must show.  ``python tests/analyze/mutants.py`` prints the table
committed under ``docs/`` and the kill count CI gates on, and exits 1
if a mutant survives.
"""

from __future__ import annotations

import ast
import copy
import importlib
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union
from unittest import mock

import numpy as np

from repro.analyze import schedule_verifier as sv
from repro.analyze.effects import run_effect_checks
from repro.analyze.lint import RULES, unused_imports
from repro.analyze.linearity import analyze_source
from repro.analyze.report import CODES, VerificationReport
from repro.core.alltoall_schedule import build_trivial_alltoall_blocksets
from repro.core.builders import SCHEDULE_BUILDERS
from repro.core.neighborhood import Neighborhood
from repro.core.plan import (
    BatchedPlan,
    BatchedRound,
    CompiledBlockSet,
    compile_batched_plan,
)
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

#: the block sizes every row is judged at
BLOCK_SIZES = (4, 24)


# ----------------------------------------------------------------------
# the cases the rows corrupt
# ----------------------------------------------------------------------
NBH9 = named_stencil("9-point")
NBH5 = named_stencil("5-point")
SELF9 = moore_neighborhood(2, 1, include_self=True)
TORUS = ((4, 4), (True, True))
MESH = ((4, 4), (False, True))


class Case(NamedTuple):
    """A builder schedule on a topology, at ``scale`` times the judged
    block size.  ``sizes`` are per-neighbour alltoall block sizes at
    4 B (default: the sweep's layout), ``op`` a reduction's operator;
    ``halo`` lays the blocks out as the halo exchange of a 4x4
    interior, send and receive in one grid buffer — an in-place
    exchange, which no definition can judge; ``words`` lowers at
    capacities rounded up to whole 8-byte words."""

    kind: str
    nbh: Neighborhood
    topo: tuple[tuple[int, ...], tuple[bool, ...]] = TORUS
    sizes: Optional[tuple[int, ...]] = None
    op: object = "sum"
    halo: bool = False
    scale: int = 1
    words: bool = False

    def build(self, block_bytes: int) -> Schedule:
        m = block_bytes * self.scale
        if self.halo:
            sends, recvs = halo_specs((4, 4), 1, self.nbh, m // 4)
            return SCHEDULE_BUILDERS[self.kind](self.nbh, list(sends), list(recvs))
        if self.sizes is not None:
            blocks = build_trivial_alltoall_blocksets([n * m // 4 for n in self.sizes])
            return SCHEDULE_BUILDERS[self.kind](self.nbh, *blocks)
        if self.kind in sv.REDUCE_KINDS:
            return SCHEDULE_BUILDERS[self.kind](
                self.nbh, m_bytes=-(-m // 8) * 8, dtype="int64", op=self.op
            )
        return sv.build_for_kind(self.kind, self.nbh, m)

    def topology(self) -> CartTopology:
        return CartTopology(*self.topo)

    def lower(self, schedule: Schedule) -> BatchedPlan:
        """The clean lowering a plan row corrupts."""
        if self.words:
            sizes = sv._plan_sizes(schedule.prepare())
            return compile_batched_plan(
                schedule, self.topology(), {n: -(-c // 8) * 8 for n, c in sizes.items()}
            )
        plan = sv._lower(schedule, self.topology(), None)  # no class: a real lowering
        assert not isinstance(plan, ScheduleError), plan
        return plan


UNIFORM = (4,) * NBH9.t
ALLTOALL = Case("alltoall", NBH9)
REDUCE = Case("reduce", NBH9)
HALO = Case("direct-alltoall", NBH9, halo=True)


class Mutant(NamedTuple):
    """One row: its defect, where it is planted (a case, or the dotted
    name of a runtime module), the corruption and the code it must be
    reported with, if it has one."""

    defect: str
    case: Union[Case, str]
    corrupt: Callable
    expect: Optional[str] = None


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


# reduction corruptions: they apply to reductions alone, so the fuzzer
# does not draw them
def _reduce_drop_tree_round(s, topo):
    del s.phases[0].rounds[-1]
    return True


def _reduce_zero_round_offset(s, topo):
    s.phases[0].rounds[0].offset = (0,) * s.neighborhood.d
    return True


def _reduce_combine_gate_out_of_range(s, topo):
    s.phases[0].combine_steps[0].when_round = 99
    return True


def _reduce_reroute_combine_dst(s, topo):
    steps = s.phases[0].combine_steps
    dsts = sorted({st.dst for st in steps}, key=lambda r: r.offset)
    assert len(dsts) >= 2, "the case needs two accumulators to misroute"
    steps[0].dst = dsts[1] if steps[0].dst == dsts[0] else dsts[0]
    return True


def _reduce_drop_pre_step(s, topo):
    del s.pre_steps[0]
    return True


#: a registered non-commutative operator, and a process-local one the
#: definition cannot be folded with
_NON_COMMUTATIVE = "kill-matrix-subtract"


def _max_minus_one(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b) - 1


def _non_commutative_operator(s: Schedule, topo: CartTopology) -> bool:
    """The schedule folds with an operator that is not commutative."""
    s.combine_op = _NON_COMMUTATIVE
    return True


SCHEDULE_ROWS: dict[str, Mutant] = {
    "orphan-source": Mutant("deadlock", Case("trivial-alltoall", NBH5), _orphan_source),
    "crossed-sources": Mutant("deadlock", ALLTOALL, _crossed_sources),
    "duplicate-receive-block": Mutant(
        "wrong bytes", Case("direct-alltoall", NBH5), _duplicate_receive_block
    ),
    "round-byte-mismatch": Mutant(
        "wrong bytes", Case("trivial-alltoall", NBH9), _round_byte_mismatch
    ),
    "sibling-rounds-write-same-bytes": Mutant(
        "hazard", Case("alltoall", NBH9, sizes=UNIFORM), _sibling_rounds_write_same_bytes
    ),
    "send-reads-sibling-receive": Mutant(
        "hazard", Case("alltoall", NBH9, sizes=UNIFORM), _send_reads_sibling_receive
    ),
    "under-declared-temp": Mutant("wrong bytes", ALLTOALL, _under_declared_temp),
    "dropped-round": Mutant("wrong bytes", ALLTOALL, _dropped_round),
    "duplicated-round": Mutant("hazard", ALLTOALL, _duplicated_round),
    "halo-sibling-rounds-write-same-bytes": Mutant(
        "hazard", HALO, _sibling_rounds_write_same_bytes
    ),
    "halo-send-reads-sibling-receive": Mutant("hazard", HALO, _send_reads_sibling_receive),
    "swapped-phases": Mutant("wrong bytes", ALLTOALL, _swapped_phases),
    "swapped-receive-slots": Mutant(
        "wrong bytes", Case("alltoall", NBH9, sizes=UNIFORM), _swapped_receive_slots
    ),
    "unwritten-scratch-shipped": Mutant("wrong bytes", ALLTOALL, _unwritten_scratch_shipped),
    "last-hop-lands-in-temp": Mutant("wrong bytes", ALLTOALL, _last_hop_lands_in_temp),
    "receive-past-its-layout": Mutant(
        "wrong bytes", Case("trivial-alltoall", NBH9), _receive_past_its_layout
    ),
    "round-to-wrong-neighbour": Mutant(
        "deadlock", Case("trivial-alltoall", NBH9), _round_to_wrong_neighbour
    ),
    "allgather-slot-swap": Mutant(
        "wrong bytes", Case("allgather", NBH9), _blocks_swapped_within_round
    ),
    "allgather-dropped-round": Mutant("wrong bytes", Case("allgather", NBH9), _dropped_round),
    "local-copy-size-mismatch": Mutant(
        "wrong bytes",
        Case("alltoall", SELF9, ((3, 3), (True, True))),
        _local_copy_size_mismatch,
    ),
    "local-copy-to-wrong-slot": Mutant(
        "wrong bytes",
        Case("trivial-alltoall", SELF9, ((3, 3), (True, True))),
        _local_copy_to_wrong_slot,
    ),
    "local-copy-dropped": Mutant(
        "wrong bytes",
        Case("direct-alltoall", SELF9, ((3, 3), (True, True))),
        _local_copy_dropped,
    ),
    "mesh-swapped-receive-slots": Mutant(
        "wrong bytes", Case("trivial-alltoall", NBH9, MESH), _swapped_receive_slots
    ),
    "zero-byte-extra-round": Mutant("closed form", ALLTOALL, _zero_byte_extra_round),
    "extra-volume-into-unread-scratch": Mutant(
        "closed form", ALLTOALL, _extra_volume_into_unread_scratch
    ),
    "allgather-extra-volume-into-unread-scratch": Mutant(
        "closed form", Case("allgather", NBH9), _extra_volume_into_unread_scratch
    ),
    "mesh-zero-byte-orphan-send": Mutant(
        "deadlock",
        Case("trivial-alltoall", NBH9, MESH, sizes=(4, 0, 4, 4, 4, 4, 4, 4)),
        _zero_byte_orphan_send,
    ),
    "reduce-drop-tree-round": Mutant("closed form", REDUCE, _reduce_drop_tree_round, "V801"),
    "reduce-zero-round-offset": Mutant(
        "wrong bytes", REDUCE, _reduce_zero_round_offset, "V802"
    ),
    "reduce-combine-gate-out-of-range": Mutant(
        "wrong bytes", REDUCE, _reduce_combine_gate_out_of_range, "V802"
    ),
    "reduce-reroute-combine-dst": Mutant(
        "wrong bytes", REDUCE, _reduce_reroute_combine_dst, "V803"
    ),
    "reduce-drop-pre-step": Mutant("wrong bytes", REDUCE, _reduce_drop_pre_step, "V803"),
    "custom-op-reroute-combine-dst": Mutant(
        "wrong bytes", Case("reduce", NBH9, op=_max_minus_one), _reduce_reroute_combine_dst
    ),
    "non-commutative-operator": Mutant("wrong bytes", REDUCE, _non_commutative_operator),
}

#: name -> (expected code, corruption) of the reduction rows that carry
#: an expected code, for tests that present them to the verifier by
#: other routes (through a certificate store)
SCHEDULE_MUTANTS: dict[str, tuple[str, Mutator]] = {
    name: (row.expect, row.corrupt)
    for name, row in SCHEDULE_ROWS.items()
    if row.expect is not None
}


# ----------------------------------------------------------------------
# plan corruptions: each returns a corrupted copy, the original is never
# touched
# ----------------------------------------------------------------------
PLAN_ROWS: dict[str, Mutant] = {}


def _plan_row(name: str, defect: str, case: Case, expect: Optional[str] = None):
    def register(corrupt: Callable[[BatchedPlan], BatchedPlan]):
        PLAN_ROWS[name] = Mutant(defect, case, corrupt, expect)
        return corrupt

    return register


def _put(obj, **fields):
    """A shallow copy of ``obj`` with ``fields`` replaced."""
    out = copy.copy(obj)
    for name, value in fields.items():
        setattr(out, name, value)
    return out


def _with_round(plan: BatchedPlan, pi: int, ri: int, rnd: BatchedRound) -> BatchedPlan:
    """``plan`` with round ``ri`` of phase ``pi`` replaced by ``rnd``."""
    phases = [list(phase) for phase in plan.phases]
    phases[pi][ri] = rnd
    return _put(plan, phases=tuple(tuple(phase) for phase in phases))


def _replace_round(plan: BatchedPlan, pi: int, ri: int, **fields: object) -> BatchedPlan:
    """``plan`` with ``fields`` of round ``ri`` of phase ``pi`` replaced
    (the fields derived from them are left as they were)."""
    return _with_round(plan, pi, ri, _put(plan.phases[pi][ri], **fields))


def _round_with(plan: BatchedPlan, half: str) -> tuple[int, int, BatchedRound]:
    return next(
        (pi, ri, rnd)
        for pi, phase in enumerate(plan.phases)
        for ri, rnd in enumerate(phase)
        if getattr(rnd, half) is not None
    )


def _dup_first_op(kernel: CompiledBlockSet) -> CompiledBlockSet:
    if kernel._sel_ops:
        return _put(kernel, _sel_ops=kernel._sel_ops + (kernel._sel_ops[0],))
    return _put(kernel, _run_ops=kernel._run_ops + (kernel._run_ops[0],))


def _shift_buffer_side(kernel: CompiledBlockSet, delta: int) -> CompiledBlockSet:
    """Move the first op's buffer side ``delta`` bytes up (selectors
    count lanes, so theirs is rescaled)."""
    if not kernel._sel_ops:
        name, woff, boff, n = kernel._run_ops[0]
        return _put(kernel, _run_ops=((name, woff, boff + delta, n),) + kernel._run_ops[1:])
    (name, wire_sel, buf_sel, lane), *rest = kernel._sel_ops
    words = delta // lane
    if isinstance(buf_sel, slice):
        buf_sel = slice(buf_sel.start + words, buf_sel.stop + words)
    else:
        buf_sel = buf_sel + words
    return _put(kernel, _sel_ops=((name, wire_sel, buf_sel, lane), *rest))


def _stale_lane(lane: int) -> int:
    """Another width for a ``lane``: a block lane's word lane
    ``gcd(8, lane)``, which divides whatever the block lane divides;
    a word lane's double (its half at 8)."""
    word = math.gcd(8, lane)
    if word != lane:
        return word
    return lane // 2 if lane == 8 else 2 * lane


def _first_combine(plan: BatchedPlan) -> tuple[int, object]:
    return next((i, c) for i, c in enumerate(plan.combine_programs) if c is not None)


def _with_combine(plan: BatchedPlan, **fields: object) -> BatchedPlan:
    """``plan`` with ``fields`` of its first combine step list replaced."""
    i, rnd = _first_combine(plan)
    programs = list(plan.combine_programs)
    programs[i] = _put(rnd, **fields)
    return _put(plan, combine_programs=tuple(programs))


# -- V701: scatter/gather collisions -----------------------------------
@_plan_row("duplicate-recv-scatter-op", "benign", ALLTOALL, "V701")
def _dup_recv_op(plan):
    """The repeated op writes the same bytes again."""
    pi, ri, rnd = _round_with(plan, "recv")
    return _replace_round(plan, pi, ri, recv=_dup_first_op(rnd.recv))


@_plan_row("duplicate-send-gather-op", "benign", ALLTOALL, "V701")
def _dup_send_op(plan):
    """The repeated op packs the same bytes again."""
    pi, ri, rnd = _round_with(plan, "send")
    return _replace_round(plan, pi, ri, send=_dup_first_op(rnd.send))


# -- V702/V703: cross-round interval races -----------------------------
@_plan_row("alias-recv-kernels-across-rounds", "hazard", ALLTOALL, "V702")
def _alias_recv(plan):
    pi, ri, rj = next(
        (pi, *[ri for ri, r in enumerate(phase) if r.recv is not None][:2])
        for pi, phase in enumerate(plan.phases)
        if sum(r.recv is not None for r in phase) >= 2
    )
    return _replace_round(plan, pi, rj, recv=plan.phases[pi][ri].recv)


@_plan_row("send-reads-own-recv-region", "hazard", ALLTOALL, "V703")
def _send_reads_recv(plan):
    pi, ri, rnd = _round_with(plan, "recv")
    return _replace_round(plan, pi, ri, send=rnd.recv)


@_plan_row("recv-overwrites-peer-send-source", "hazard", ALLTOALL, "V703")
def _recv_overwrites_send(plan):
    pi, ri, rnd = _round_with(plan, "send")
    return _replace_round(plan, pi, ri, recv=rnd.send)


@_plan_row("inplace-over-phase-hazard", "hazard", ALLTOALL, "V703")
def _inplace_over_hazard(plan):
    """The same race, on a plan that claims it needs no wire snapshot."""
    return _put(_send_reads_recv(plan), delivery="in-place")


# -- V704: unsound local-copy fusion -----------------------------------
@_plan_row("fused-copy-overlapping-destinations", "hazard", ALLTOALL, "V704")
def _copy_dst_dst(plan):
    prog = plan.copy_program
    ops = prog._run_ops + (("send", "recv", 0, 0, 16), ("send", "recv", 8, 8, 16))
    return _put(plan, copy_program=_put(prog, fused=True, _run_ops=ops))


@_plan_row("fused-copy-destination-overlaps-source", "hazard", ALLTOALL, "V704")
def _copy_dst_src(plan):
    prog = plan.copy_program
    ops = prog._run_ops + (("recv", "recv", 0, 8, 16),)
    return _put(plan, copy_program=_put(prog, fused=True, _run_ops=ops))


# -- V502: batched peer vectors and what is derived from them --------
@_plan_row("duplicate-batched-targets", "wrong bytes", ALLTOALL, "V502")
def _dup_targets(plan):
    targets = plan.phases[0][0].targets.copy()
    targets[0] = targets[1]
    return _replace_round(plan, 0, 0, targets=targets)


@_plan_row("swap-batched-source-rows", "wrong bytes", ALLTOALL, "V502")
def _swap_sources(plan):
    sources = plan.phases[0][0].sources.copy()
    sources[[0, 1]] = sources[[1, 0]]
    return _replace_round(plan, 0, 0, sources=sources, recv_sources=sources)


@_plan_row("batched-peer-out-of-range", "wrong bytes", ALLTOALL, "V502")
def _peer_range(plan):
    targets = plan.phases[0][0].targets.copy()
    targets[0] = plan.p + 3
    return _replace_round(plan, 0, 0, targets=targets)


@_plan_row("batched-senders-miscount", "benign", ALLTOALL, "V502")
def _senders(plan):
    """Only the lowering's wire-byte count reads it."""
    return _replace_round(plan, 0, 0, senders=plan.phases[0][0].senders - 1)


@_plan_row("batched-recv-rows-corrupted", "wrong bytes", ALLTOALL, "V502")
def _recv_rows(plan):
    rows = np.arange(plan.p - 1, dtype=np.int64)
    sources = plan.phases[0][0].sources
    return _replace_round(plan, 0, 0, recv_rows=rows, recv_sources=sources[rows])


@_plan_row("batched-recv-sources-rolled", "wrong bytes", ALLTOALL, "V502")
def _recv_sources(plan):
    rolled = np.roll(plan.phases[0][0].recv_sources, 1)
    return _replace_round(plan, 0, 0, recv_sources=rolled)


# -- V708: capacity overruns -------------------------------------------
@_plan_row("unpack-offset-past-capacity", "wrong bytes", ALLTOALL, "V708")
def _unpack_overrun(plan):
    pi, ri, rnd = _round_with(plan, "recv")
    shifted = _shift_buffer_side(rnd.recv, max(plan.sizes.values()))
    return _replace_round(plan, pi, ri, recv=shifted)


@_plan_row("wire-selector-past-wire-end", "wrong bytes", ALLTOALL, "V708")
def _wire_overrun(plan):
    pi, ri, rnd = _round_with(plan, "recv")
    (name, wire_sel, buf_sel, lane), *rest = rnd.recv._sel_ops
    total = rnd.recv.total_nbytes // lane
    if isinstance(wire_sel, slice):
        wire_sel = slice(wire_sel.start + total, wire_sel.stop + total)
    else:
        wire_sel = wire_sel + total
    recv = _put(rnd.recv, _sel_ops=((name, wire_sel, buf_sel, lane), *rest))
    return _replace_round(plan, pi, ri, recv=recv)


# -- V503: selector lanes and delivery segments ------------------------
@_plan_row("lane-widened-without-rescale", "wrong bytes", ALLTOALL._replace(words=True), "V503")
def _lane_widened(plan):
    """The first index-selector op whose wire its :func:`_stale_lane`
    divides gets that lane, indices untouched.  Capacities are whole
    8-byte words, so the stale lane still views every buffer and only
    the stale indices are wrong."""
    pi, ri, half, kernel = next(
        (pi, ri, half, kernel)
        for pi, phase in enumerate(plan.phases)
        for ri, rnd in enumerate(phase)
        for half, kernel in (("send", rnd.send), ("recv", rnd.recv))
        if kernel is not None
        and kernel.uses_indices
        and kernel.total_nbytes % _stale_lane(kernel.lanes[0]) == 0
    )
    (*op, lane), *rest = kernel._sel_ops
    widened = _put(kernel, _sel_ops=((*op, _stale_lane(lane)), *rest))
    return _replace_round(plan, pi, ri, **{half: widened})


@_plan_row("delivery-segment-shifted", "wrong bytes", ALLTOALL._replace(scale=1024), "V503")
def _delivery_shifted(plan):
    """At KiB blocks the plan delivers in place: one slice run of the
    first round program lands a word further on."""
    deliveries = plan.deliveries
    program = deliveries[0][0]
    (src, dst, src_off, dst_off, n), *rest = program._run_ops
    shifted = _put(program, _run_ops=((src, dst, src_off, dst_off + 8, n), *rest))
    return _put(plan, _deliveries=((shifted, *deliveries[0][1:]), *deliveries[1:]))


# -- V506: the fused maps against the walk -----------------------------
@_plan_row("fused-step-pair-swapped", "wrong bytes", ALLTOALL, "V506")
def _fused_pair_swapped(plan):
    """Two ranks' words of the first fused step trade sources: every
    kernel and rank view is intact, only the maps are wrong."""
    plan = copy.copy(plan)  # lowered on the copy alone
    (dst, src), *rest = plan.fused.steps
    src = src.copy()
    src[[0, -1]] = src[[-1, 0]]
    plan._fused = plan.fused._replace(steps=((dst, src), *rest))
    return plan


@_plan_row("plane-shift-reversed", "wrong bytes", ALLTOALL, "V506")
def _plane_shift_reversed(plan):
    """The first slab copy of the planes shifts the rank grid the other
    way: every kernel, rank view and fused map is intact, only the
    planes are wrong."""
    plan = copy.copy(plan)  # lowered on the copy alone
    phases = [list(phase) for phase in plan.planes.phases]
    pi = next(i for i, phase in enumerate(phases) if phase)
    s, (s_rows, *at), d, (d_rows, *to) = phases[pi][0]
    phases[pi][0] = (s, (s_rows, *to), d, (d_rows, *at))
    plan._planes = plan.planes._replace(phases=tuple(map(tuple, phases)))
    return plan


class _LossyBind(BatchedPlan):
    """A plan whose bound in-place form leaves its last launch out."""

    __slots__ = ()

    def bind(self, *args):
        bound = super().bind(*args)
        del bound[-1]
        return bound


#: plan rows that corrupt the code a plan runs, not the plan's data: the
#: digest a certificate is filed under cannot tell them from the clean
#: lowering, so a store holding its witness inherits the certificate and
#: only a full certification can refuse them
CODE_ROWS = frozenset({"bound-launch-dropped"})


@_plan_row("bound-launch-dropped", "wrong bytes", ALLTOALL._replace(scale=1024), "V506")
def _bound_launch_dropped(plan):
    """At KiB blocks the plan delivers in place, and binding it to the
    ranks' arrays drops one (destination, source) pair: every kernel
    and round program is intact, only running the bound form is wrong."""
    plan = copy.copy(plan)
    plan.__class__ = _LossyBind
    return plan


# -- V709: wire gaps and scratch lifetime ------------------------------
@_plan_row("pack-kernel-wire-gap", "wrong bytes", ALLTOALL, "V709")
def _wire_gap(plan):
    pi, ri, rnd = _round_with(plan, "send")
    if rnd.send._sel_ops:
        send = _put(rnd.send, _sel_ops=rnd.send._sel_ops[1:])
    else:
        send = _put(rnd.send, _run_ops=rnd.send._run_ops[1:])
    return _replace_round(plan, pi, ri, send=send)


@_plan_row("phase0-reads-unwritten-scratch", "wrong bytes", ALLTOALL, "V709")
def _temp_read(plan):
    send = plan.phases[0][0].send
    send = _put(
        send,
        _sel_ops=tuple(("temp", *op[1:]) for op in send._sel_ops),
        _run_ops=tuple(("temp", *op[1:]) for op in send._run_ops),
    )
    return _replace_round(plan, 0, 0, send=send)


# -- V806: combine step lists ------------------------------------------
@_plan_row("combine-duplicate-initializing-copy", "benign", REDUCE, "V806")
def _combine_double_init(plan):
    """The repeated copy writes the same bytes."""
    pre = plan.pre_program
    assert pre.steps[0][5] is None  # copies every rank
    return _put(plan, pre_program=_put(pre, steps=pre.steps + (pre.steps[0],)))


@_plan_row("combine-fold-aliases-accumulator", "hazard", REDUCE, "V806")
def _combine_fold_alias(plan):
    """A region folds into itself shifted by half a block: source and
    destination overlap, so the ufunc reads bytes it already clobbered."""
    _, rnd = _first_combine(plan)
    k = next(i for i, step in enumerate(rnd.steps) if step[6] is None)
    _, _, dbuf, doff, n, copy_rows, comb_rows = rnd.steps[k]
    steps = list(rnd.steps)
    steps[k] = (dbuf, doff, dbuf, doff + n // 2, n, copy_rows, comb_rows)
    return _with_combine(plan, steps=tuple(steps))


@_plan_row("batched-combine-copy-and-fold-same-rank", "wrong bytes", REDUCE, "V806")
def _combine_mask_flip(plan):
    """Rank 0 is in both the initializing-copy mask and the fold mask:
    its contribution is counted twice."""
    _, rnd = _first_combine(plan)
    *head, _comb_rows = rnd.steps[0]
    rank0 = np.array([0], dtype=np.int64)
    return _with_combine(plan, steps=((*head, rank0),) + rnd.steps[1:])


@_plan_row("batched-combine-row-out-of-range", "wrong bytes", REDUCE, "V806")
def _combine_row_range(plan):
    _, rnd = _first_combine(plan)
    sbuf, soff, dbuf, doff, n, _copy_rows, comb_rows = rnd.steps[0]
    rows = np.array([plan.p + 1], dtype=np.int64)
    return _with_combine(
        plan, steps=((sbuf, soff, dbuf, doff, n, rows, comb_rows),) + rnd.steps[1:]
    )


# -- in-place halo exchanges, which no definition can judge ------------
def _edges(plan: BatchedPlan) -> tuple[int, int]:
    """Two rounds of the halo plan's phase whose ghost regions have one
    size (the west and east columns)."""
    sizes = [rnd.recv.total_nbytes for rnd in plan.phases[0]]
    a = next(i for i, n in enumerate(sizes) if sizes.count(n) > 1 and n > 1)
    return a, next(j for j in range(a + 1, len(sizes)) if sizes[j] == sizes[a])


def _unsampled(p: int) -> list[int]:
    """The ranks an evenly spaced 16-rank sample (both corners kept)
    leaves out: where a check of sampled ranks would look away."""
    sampled = {i * (p - 1) // 15 for i in range(16)}
    return [rank for rank in range(p) if rank not in sampled]


@_plan_row("halo-unpack-kernels-swapped", "wrong bytes", HALO)
def _halo_unpack_kernels_swapped(plan):
    """Two rounds scatter into each other's ghost regions."""
    a, b = _edges(plan)
    swapped = _replace_round(plan, 0, a, recv=plan.phases[0][b].recv)
    return _replace_round(swapped, 0, b, recv=plan.phases[0][a].recv)


@_plan_row("halo-peer-vectors-swapped", "wrong bytes", HALO)
def _halo_peer_vectors_swapped(plan):
    """Two rounds exchange with each other's neighbours: each round's
    peer vectors are a consistent matching, just not the topology's."""
    a, b = _edges(plan)
    ra, rb = plan.phases[0][a], plan.phases[0][b]
    swapped = _with_round(plan, 0, a, BatchedRound(rb.sources, rb.targets, ra.send, ra.recv))
    return _with_round(swapped, 0, b, BatchedRound(ra.sources, ra.targets, rb.send, rb.recv))


HALO_5X5 = HALO._replace(topo=((5, 5), (True, True)))


@_plan_row("halo-receive-dropped-at-unsampled-rank", "wrong bytes", HALO_5X5)
def _halo_receive_dropped(plan):
    """A rank outside a 16-rank sample stops receiving a round its
    source still sends: its ghost region goes stale."""
    rnd = plan.phases[0][0]
    sources = rnd.sources.copy()
    sources[_unsampled(plan.p)[0]] = -1
    return _with_round(plan, 0, 0, BatchedRound(sources, rnd.targets, rnd.send, rnd.recv))


@_plan_row("halo-peer-vectors-swapped-at-unsampled-ranks", "wrong bytes", HALO_5X5)
def _halo_peers_swapped_unsampled(plan):
    """Two ranks outside a 16-rank sample send to each other's targets,
    and those targets read from the swapped senders: a consistent
    matching that only a comparison at every rank tells from the
    topology's."""
    rnd = plan.phases[0][0]
    out = _unsampled(plan.p)
    a, b = next(
        (a, b)
        for a in out
        for b in out
        if a < b and {int(rnd.targets[a]), int(rnd.targets[b])} <= set(out)
    )
    targets, sources = rnd.targets.copy(), rnd.sources.copy()
    targets[[a, b]] = targets[[b, a]]
    sources[targets[[a, b]]] = [a, b]
    return _with_round(plan, 0, 0, BatchedRound(sources, targets, rnd.send, rnd.recv))


# ----------------------------------------------------------------------
# source rows: corruptions of the runtime's own modules
# ----------------------------------------------------------------------
SOURCE_ROWS: dict[str, Mutant] = {}
LOCKSTEP, PLAN, MAILBOX = (
    "repro.core.backend.lockstep",
    "repro.core.plan",
    "repro.mpisim.mailbox",
)


def _source_row(name: str, defect: str, module: str, expect: str):
    def register(corrupt: Callable[[str], str]):
        SOURCE_ROWS[name] = Mutant(defect, module, corrupt, expect)
        return corrupt

    return register


@lru_cache(maxsize=None)
def source(module: str) -> tuple[str, str]:
    """The text and file name of a runtime module, as
    :func:`analyze_source` takes them."""
    path = Path(str(importlib.import_module(module).__file__))
    return path.read_text(), path.name


def _line_index(src: str, needle: str) -> tuple[list[str], int]:
    lines = src.splitlines()
    [i] = [i for i, line in enumerate(lines) if needle in line]
    return lines, i


def _blank_line(src: str, needle: str) -> str:
    """Replace the unique line containing ``needle`` with ``pass`` at
    the same indentation (keeps the surrounding block syntactic)."""
    lines, i = _line_index(src, needle)
    lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + "pass"
    return "\n".join(lines)


def _double_line(src: str, needle: str) -> str:
    lines, i = _line_index(src, needle)
    lines.insert(i, lines[i])
    return "\n".join(lines)


# -- L006/L007: pool linearity -----------------------------------------
@_source_row("lockstep-drop-except-release", "leak", LOCKSTEP, "L006")
def _drop_except_release(src):
    return _blank_line(src, "GLOBAL_POOL.release(wire)")


@_source_row("planes-drop-finally-release", "leak", PLAN, "L006")
def _drop_snapshot_release(src):
    return _blank_line(src, "GLOBAL_POOL.release(snapshot)")


@_source_row("deliver-drop-finally-release", "leak", PLAN, "L006")
def _drop_finally_release(src):
    return _blank_line(src, "GLOBAL_POOL.release(scratch)")


@_source_row("lockstep-double-release", "hazard", LOCKSTEP, "L007")
def _double_release(src):
    return _double_line(src, "GLOBAL_POOL.release(wire)")


# -- L010: what CI's static job rejects --------------------------------
@_source_row("plan-import-left-behind", "dead code", PLAN, "L010")
def _import_left_behind(src):
    return src.replace("import math\n", "import math\nimport fractions\n", 1)


# -- L008/L009: lockset discipline over the mailbox --------------------
@_source_row("mailbox-deliver-locked-renamed", "hazard", MAILBOX, "L008")
def _rename_locked(src):
    return src.replace("def _deliver_locked(", "def _deliver_unsafe(", 1)


@_source_row("mailbox-notify-outside-lock", "hazard", MAILBOX, "L008")
def _notify_outside(src):
    return src + "\n\ndef _mutant_wake(box):\n    box._cond.notify_all()\n"


@_source_row("mailbox-inverted-lock-order", "deadlock", MAILBOX, "L009")
def _lock_inversion(src):
    return src + (
        "\n\ndef _mutant_drain(a, b):\n"
        "    with a.reg_lock:\n"
        "        with b.msg_lock:\n"
        "            pass\n"
        "\n\ndef _mutant_flush(a, b):\n"
        "    with b.msg_lock:\n"
        "        with a.reg_lock:\n"
        "            pass\n"
    )


@_source_row("mailbox-self-nested-lock", "deadlock", MAILBOX, "L009")
def _self_nested(src):
    return src + (
        "\n\ndef _mutant_reenter(box):\n"
        "    with box.msg_lock:\n"
        "        with box.msg_lock:\n"
        "            pass\n"
    )


MUTANTS: dict[str, Mutant] = {**SCHEDULE_ROWS, **PLAN_ROWS, **SOURCE_ROWS}


# ----------------------------------------------------------------------
# the judge: the checks of _run_stages, each called alone, and the lint
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
    "peers": _needs_plan(sv._check_peers),
    "matrix-execution": _needs_plan(
        lambda s, topo, plan, rep: sv._check_execution(
            s, topo, plan, rep, definition=_definition(s)
        )
    ),
    "effects": _needs_plan(
        lambda s, topo, plan, rep: run_effect_checks(s, topo, rep, plan=plan)
    ),
}

#: every column of the table that can kill a row
KILLERS = (*CHECKS, "lint")


class Row(NamedTuple):
    """One judged mutant: what the verifier (or the lint) says of it as
    a whole, whether the lowering refused it, and what each check says
    on its own (checks that say nothing left out)."""

    name: str
    defect: str
    expect: Optional[str]
    verdict: tuple[str, ...]
    refused: bool
    kills: dict[str, tuple[str, ...]]

    @property
    def killed(self) -> bool:
        return (
            bool(self.verdict)
            and bool(self.kills or self.refused)
            and (self.expect is None or self.expect in self.verdict)
        )


def plan_mutant(name: str, block_bytes: int = 4) -> tuple[Schedule, CartTopology, BatchedPlan]:
    """A plan row's clean schedule, its topology and the corrupted plan."""
    row = PLAN_ROWS[name]
    schedule = row.case.build(block_bytes)
    plan = row.corrupt(row.case.lower(schedule))
    # the corrupted plan's rank views are its own, not memoized ones of
    # the plan it was copied from
    return schedule, row.case.topology(), _put(plan, _views={})


def _codes(report: VerificationReport) -> tuple[str, ...]:
    return tuple(sorted(report.codes()))


def judge(name: str, block_bytes: int) -> Row:
    """One row at one block size."""
    row = MUTANTS[name]
    if name in SOURCE_ROWS:
        text, label = source(row.case)
        corrupt = row.corrupt(text)
        found = [*analyze_source(corrupt, label), *unused_imports(Path(label), ast.parse(corrupt))]
        verdict = tuple(sorted({f.rule for f in found}))
        return Row(name, row.defect, row.expect, verdict, False, {"lint": verdict} if verdict else {})
    if name in SCHEDULE_ROWS:
        schedule, topo = row.case.build(block_bytes), row.case.topology()
        assert row.corrupt(schedule, topo), f"{name} does not apply"
        plan = sv._lower(copy.deepcopy(schedule), topo, None)
        verdict = sv.verify_schedule(copy.deepcopy(schedule), topo.dims, topo.periods)
    else:
        schedule, topo, plan = plan_mutant(name, block_bytes)
        with mock.patch.object(sv, "_lower", lambda *_: plan):
            verdict = sv.verify_schedule(copy.deepcopy(schedule), topo.dims, topo.periods)
    kills = {}
    for check, run in CHECKS.items():
        report = VerificationReport(schedule.kind, topo.dims, topo.periods)
        run(copy.deepcopy(schedule), topo, plan, report)
        if report.codes():
            kills[check] = _codes(report)
    return Row(
        name, row.defect, row.expect, _codes(verdict), isinstance(plan, ScheduleError), kills
    )


@lru_cache(maxsize=None)
def kill_matrix(block_bytes: int = 4) -> tuple[Row, ...]:
    """Every row, judged at ``block_bytes``."""
    OPS[_NON_COMMUTATIVE] = np.subtract
    try:
        return tuple(judge(name, block_bytes) for name in MUTANTS)
    finally:
        del OPS[_NON_COMMUTATIVE]


def unique_kills(rows=None) -> dict[str, list[str]]:
    """Per check, the mutants it alone kills."""
    out: dict[str, list[str]] = {check: [] for check in KILLERS}
    for row in rows or kill_matrix():
        if len(row.kills) == 1 and row.defect != "benign":
            [check] = row.kills
            out[check].append(row.name)
    return out


def unique_codes(rows=None) -> dict[str, list[str]]:
    """Per verifier code and lint rule, the mutants on which it is the
    only code to fire — in the verdict or from any check alone."""
    out: dict[str, list[str]] = {code: [] for code in sorted({*CODES, *RULES})}
    for row in rows or kill_matrix():
        fired = set(row.verdict).union(*row.kills.values())
        if len(fired) == 1 and row.defect != "benign":
            out[fired.pop()].append(row.name)
    return out


def render() -> str:
    """The matrix at 4 B as a markdown table, each check's unique kills
    and each code's."""
    rows = kill_matrix()
    head = ["mutant", "defect", "expect", "verdict", "lowering", *KILLERS]
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
    for row in rows:
        cells = [
            row.name,
            row.defect,
            row.expect or "",
            " ".join(row.verdict) or "—",
            "refused" if row.refused else "",
            *(" ".join(row.kills.get(check, ())) for check in KILLERS),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    for check, names in unique_kills(rows).items():
        lines.append(f"- `{check}` alone kills: {', '.join(names) or 'nothing'}")
    lines += ["", "| code | the only code to fire on |", "|---|---|"]
    for code, names in unique_codes(rows).items():
        lines.append(f"| {code} | {', '.join(names) or '—'} |")
    return "\n".join(lines) + "\n"


def survivors() -> list[str]:
    """The rows not killed at some block size."""
    return [
        name
        for name in MUTANTS
        if not all(row.killed for bb in BLOCK_SIZES for row in kill_matrix(bb) if row.name == name)
    ]


def main() -> int:
    print(render(), end="")
    left = survivors()
    for name in left:
        print(f"SURVIVED  {name}")
    sizes = " and ".join(f"{bb} B" for bb in BLOCK_SIZES)
    print(f"{len(MUTANTS) - len(left)}/{len(MUTANTS)} mutants killed at {sizes}")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main())
