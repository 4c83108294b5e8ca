"""The static schedule verifier.

Proposition 3.1 states that every rank of a Cartesian topology can
compute the *same* correct, deadlock-free schedule locally, with no
communication.  The flip side, which this module exploits: correctness
of a built :class:`~repro.core.schedule.Schedule` is a decidable
property of the data structure plus ``(dims, periods)`` — no rank
thread needs to run to check it.  :func:`verify_schedule` lowers the
schedule once, for every rank of the torus, and judges it by one oracle
and the checks a committed kill matrix
(``tests/analyze/test_kill_matrix.py``) shows to catch a defect nothing
else catches:

(a) **the sentinel execution** — the plan's rank views walked in
    lockstep over rank-unique sentinel bytes; every receive slot must
    end holding what the collective's definition puts there (V404
    for the alltoall/allgather kinds with recorded, non-aliased
    layouts; V805 for reductions), the plan's matrix, fused and in-place
    forms must leave exactly what the walk leaves (V506), and a walk that
    raises is a violation of whichever definition applies;
(b) **send/receive matching and deadlock-freedom** under the engine's
    FIFO channel matching, eager/waitall and blocking-sendrecv
    (Listing 4) models alike (V101–V103, V201);
(c) **the closed forms** — round count ``C = Σ_k C_k``, volume ``V =
    Σ_i z_i`` (Props. 3.1/3.2), tree-edge volume (Prop. 3.3), and their
    reduction duals (V401–V403, V801);
(d) **the declared buffers** — scratch and the recorded layouts —
    cover every block reference (V305);
(e) **plan-lowering conformance** — the lowering's kernels and copy
    program against the block sets, its peer vectors against
    translation at every rank (V501–V504), which guard the in-place and
    layout-free schedules no definition can judge;
(f) the byte-interval **effect pass** over the lowered plan
    (:mod:`repro.analyze.effects`, V70x) and the **reduction passes**
    (V802–V806).

All violations are collected into one
:class:`~repro.analyze.report.VerificationReport`; nothing stops at the
first defect.

The checks form two stages (:func:`_run_stages`).  The *shape stage* is
everything that multiplying all byte extents by one factor cannot
change — what is read off the peer vectors (V502, the row masks of
V806) included; the *instance stage* — that the lowering
exists, its kernels against the block sets (V501/V503/V504) and the
byte-level effect pass (V70x) — is what the block size can change.
:func:`verify_schedule` runs both; :func:`certify_schedule`, given a
:class:`~repro.analyze.certificates.CertificateStore`, runs the shape
stage once per shape and the instance stage once per plan digest.
Either way the schedule is lowered once, and the report carries that plan.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

import numpy as np

from repro.analyze import match_graph
from repro.analyze.certificates import (
    STAGES,
    CertificateStore,
    NormalForm,
    normal_form,
    plan_digest,
)
from repro.analyze.report import Certificate, VerificationReport
from repro.core.allgather_schedule import AllgatherTree
from repro.core.builders import SCHEDULE_BUILDERS
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import Round, Schedule
from repro.core.topology import CartTopology
from repro.mpisim.datatypes import BlockRef, BlockSet
from repro.mpisim.exceptions import ScheduleError

if TYPE_CHECKING:
    from repro.analyze.intervals import KernelEffects, PlanEffects
    from repro.core.plan import BatchedPlan, BatchedRound, CompiledCopyProgram

ALLTOALL_KINDS = frozenset({"alltoall", "trivial-alltoall", "direct-alltoall"})
ALLGATHER_KINDS = frozenset(
    {"allgather", "trivial-allgather", "direct-allgather"}
)
#: reduction kinds built on the reverse allgather tree (need a torus)
REDUCE_TREE_KINDS = frozenset({"reduce", "reduce-scatter", "allreduce"})
#: per-neighbor reduction kinds (mesh-correct references)
REDUCE_TRIVIAL_KINDS = frozenset(
    {"trivial-reduce", "trivial-reduce-scatter"}
)
REDUCE_KINDS = REDUCE_TREE_KINDS | REDUCE_TRIVIAL_KINDS

#: the sentinel execution is skipped above this total simulated-state
#: size
CONTENT_BUDGET = 1 << 24


def _open_report(
    schedule: Schedule,
    dims: Sequence[int],
    periods: Sequence[bool] | bool,
) -> tuple[CartTopology, VerificationReport]:
    """The topology a verification entry point was asked about (a bare
    ``periods`` bool applies to every dimension) and its empty report."""
    dims_t = tuple(int(n) for n in dims)
    if isinstance(periods, bool):
        periods_t: tuple[bool, ...] = (periods,) * len(dims_t)
    else:
        periods_t = tuple(bool(p) for p in periods)
    report = VerificationReport(
        kind=schedule.kind, dims=dims_t, periods=periods_t
    )
    return CartTopology(dims_t, periods_t), report


# ----------------------------------------------------------------------
# small geometry helpers
# ----------------------------------------------------------------------
def _overlap(
    a: Iterable[BlockRef], b: Iterable[BlockRef]
) -> Optional[tuple[str, int, int]]:
    """First overlapping (buffer, start, end) region between two block
    collections, or ``None``."""
    by_buffer: dict[str, list[tuple[int, int]]] = {}
    for ref in a:
        by_buffer.setdefault(ref.buffer, []).append((ref.offset, ref.end()))
    for ref in b:
        for alo, ahi in by_buffer.get(ref.buffer, ()):
            lo, hi = max(ref.offset, alo), min(ref.end(), ahi)
            if lo < hi:
                return (ref.buffer, lo, hi)
    return None


def _buffer_extents(schedule: Schedule) -> dict[str, int]:
    """Max end offset referenced per named buffer, across rounds, local
    copies and the recorded layouts."""
    extents: dict[str, int] = {}

    def touch(refs: Iterable[BlockRef]) -> None:
        for ref in refs:
            # a buffer only zero-byte blocks name still exists (extent 0)
            extents[ref.buffer] = max(extents.get(ref.buffer, 0), ref.end())

    for ph in schedule.phases:
        for rnd in ph.rounds:
            touch(rnd.send_blocks)
            touch(rnd.recv_blocks)
        for step in ph.combine_steps:
            touch([step.src, step.dst])
    for step in schedule.pre_steps:
        touch([step.src, step.dst])
    touch(schedule.required_outputs)
    for lc in schedule.local_copies:
        touch([lc.src, lc.dst])
    for layout in (schedule.send_layout, schedule.recv_layout):
        if layout:
            for bs in layout:
                touch(bs)
    return extents


# ----------------------------------------------------------------------
# check (c): the closed forms (Props. 3.1-3.3)
# ----------------------------------------------------------------------
def _check_quantitative(schedule: Schedule, report: VerificationReport) -> None:
    nbh = schedule.neighborhood
    kind = schedule.kind
    if kind == "alltoall":
        if schedule.rounds_per_phase != nbh.distinct_nonzero_per_dim:
            report.add(
                "V401",
                f"rounds per phase {schedule.rounds_per_phase} != C_k "
                f"{nbh.distinct_nonzero_per_dim} (C = Σ C_k, Prop. 3.1)",
            )
        if schedule.volume_blocks != nbh.alltoall_volume:
            report.add(
                "V402",
                f"volume {schedule.volume_blocks} blocks != Σ z_i = "
                f"{nbh.alltoall_volume} (Prop. 3.2)",
            )
    elif kind == "allgather":
        if schedule.num_rounds != nbh.combining_rounds:
            report.add(
                "V401",
                f"round count {schedule.num_rounds} != C = "
                f"{nbh.combining_rounds} (Prop. 3.1)",
            )
        dim_order = tuple(ph.dim for ph in schedule.phases)
        if sorted(dim_order) == list(range(nbh.d)):
            edges = AllgatherTree.build(nbh, dim_order).edge_count
            if schedule.volume_blocks != edges:
                report.add(
                    "V403",
                    f"volume {schedule.volume_blocks} blocks != tree "
                    f"edge count {edges} (Prop. 3.3)",
                )
    elif kind in ("trivial-alltoall", "trivial-allgather"):
        if schedule.num_rounds != nbh.trivial_rounds:
            report.add(
                "V401",
                f"round count {schedule.num_rounds} != t − |self| = "
                f"{nbh.trivial_rounds}",
            )
        bad = [len(ph) for ph in schedule.phases if len(ph) != 1]
        if bad:
            report.add(
                "V401",
                "trivial schedule must have one round per phase "
                f"(got phase sizes {schedule.rounds_per_phase})",
            )
    elif kind in ("direct-alltoall", "direct-allgather"):
        if schedule.num_phases != 1:
            report.add(
                "V401",
                f"direct schedule must be a single phase, got "
                f"{schedule.num_phases}",
            )
        if schedule.num_rounds != nbh.trivial_rounds:
            report.add(
                "V401",
                f"round count {schedule.num_rounds} != t − |self| = "
                f"{nbh.trivial_rounds}",
            )
    elif kind in ("reduce", "reduce-scatter", "allreduce"):
        # the reductions are the allgather tree run in reverse (plus the
        # forward broadcast for the allreduce): C rounds / tree-edge
        # volume, doubled for the composed allreduce (Prop. 3.3 duality)
        factor = 2 if kind == "allreduce" else 1
        if schedule.num_rounds != factor * nbh.combining_rounds:
            report.add(
                "V801",
                f"round count {schedule.num_rounds} != "
                f"{factor} * C = {factor * nbh.combining_rounds} "
                f"(Prop. 3.1 duality)",
            )
        dims_seen = [
            ph.dim for ph in schedule.phases[: nbh.d] if ph.dim is not None
        ]
        if sorted(dims_seen) == list(range(nbh.d)):
            # reduce phases run deepest level first
            edges = AllgatherTree.build(
                nbh, tuple(reversed(dims_seen))
            ).edge_count
            if schedule.volume_blocks != factor * edges:
                report.add(
                    "V801",
                    f"volume {schedule.volume_blocks} blocks != "
                    f"{factor} * tree edge count {factor * edges} "
                    f"(Prop. 3.3 duality)",
                )
    elif kind in ("trivial-reduce", "trivial-reduce-scatter"):
        if schedule.num_rounds != nbh.trivial_rounds:
            report.add(
                "V801",
                f"round count {schedule.num_rounds} != t − |self| = "
                f"{nbh.trivial_rounds}",
            )
        bad = [len(ph) for ph in schedule.phases if len(ph) != 1]
        if bad:
            report.add(
                "V801",
                "trivial reduction must have one round per phase "
                f"(got phase sizes {schedule.rounds_per_phase})",
            )


# ----------------------------------------------------------------------
# check (b): matching and deadlock-freedom over the torus
# ----------------------------------------------------------------------
def _check_matching(
    schedule: Schedule, topo: CartTopology, report: VerificationReport
) -> match_graph.Matching:
    inst = match_graph.instantiate(schedule, topo)
    matching = match_graph.match_operations(inst)
    for op in matching.orphan_sends:
        report.add(
            "V101",
            f"send to rank {op.peer} ({op.nbytes} B) never matched by a "
            f"posted receive",
            rank=op.rank,
            phase=op.phase,
            round_index=op.round_index,
        )
    for op in matching.orphan_recvs:
        report.add(
            "V102",
            f"receive from rank {op.peer} ({op.nbytes} B) never "
            f"satisfied by any send",
            rank=op.rank,
            phase=op.phase,
            round_index=op.round_index,
        )
    for s_op, r_op in matching.pairs:
        if s_op.nbytes != r_op.nbytes:
            report.add(
                "V103",
                f"send of {s_op.nbytes} B from rank {s_op.rank} matches "
                f"receive of {r_op.nbytes} B at rank {r_op.rank}",
                rank=r_op.rank,
                phase=r_op.phase,
                round_index=r_op.round_index,
            )

    def _report_cycle(
        cycle: list[tuple[int, int]], model: str, unit: str
    ) -> None:
        shown = cycle[:6]
        desc = " -> ".join(f"(rank {r}, {unit} {x})" for r, x in shown)
        if len(cycle) > len(shown):
            desc += f" -> … ({len(cycle) - 1} nodes total)"
        rank, pos = cycle[0]
        report.add(
            "V201",
            f"wait-for cycle under the {model} model: {desc}",
            rank=rank,
            phase=pos if unit == "phase" else None,
        )

    cycle = match_graph.find_cycle(
        match_graph.phase_wait_graph(schedule, matching)
    )
    if cycle is not None:
        _report_cycle(cycle, "eager/waitall (Listing 5)", "phase")
    cycle = match_graph.find_cycle(
        match_graph.round_wait_graph(schedule, inst, matching)
    )
    if cycle is not None:
        _report_cycle(cycle, "blocking-sendrecv (Listing 4)", "op")
    return matching


# ----------------------------------------------------------------------
# check (d): the buffers the executors hand over
# ----------------------------------------------------------------------
def _check_buffer_bounds(schedule: Schedule, report: VerificationReport) -> None:
    """Every block reference lies inside the buffer an executor hands
    the schedule (V305): ``temp`` inside the declared ``temp_nbytes``,
    a buffer the recorded layouts name inside the extent they give it —
    the caller's buffer.  The lowering is judged at the extents the
    schedule references, so this is the one check that reads the
    declarations."""
    bounds = {"temp": schedule.temp_nbytes}
    for layout in (schedule.send_layout, schedule.recv_layout):
        for bs in layout or ():
            for ref in bs:
                bounds[ref.buffer] = max(bounds.get(ref.buffer, 0), ref.end())
    for name, used in _buffer_extents(schedule).items():
        if used > bounds.get(name, used):
            report.add(
                "V305",
                f"{name!r} references reach {used} B but the schedule "
                f"declares {bounds[name]} B",
            )


# ----------------------------------------------------------------------
# check (e): plan-lowering conformance (V501-V504)
# ----------------------------------------------------------------------
def _plan_sizes(schedule: Schedule) -> dict[str, int]:
    """Synthesized buffer capacities for lowering: the max referenced end
    per named buffer, with the declared scratch requirement for temp —
    which, as at run time, exists only when it holds a byte."""
    sizes = _buffer_extents(schedule)
    temp = max(sizes.pop("temp", 0), schedule.temp_nbytes)
    if temp > 0:
        sizes["temp"] = temp
    return sizes


def _sentinel_stream(seed: int, nbytes: int) -> np.ndarray:
    """``nbytes`` random bytes: one generator, one draw."""
    return np.random.default_rng(seed * 7_919 + 1).integers(
        0, 256, nbytes, dtype=np.uint8
    )


def _sentinel_buffers(
    sizes: Mapping[str, int], stream: np.ndarray
) -> dict[str, np.ndarray]:
    """One sentinel array per named buffer, cut back to back (in name
    order) from the head of ``stream``."""
    out: dict[str, np.ndarray] = {}
    pos = 0
    for name in sorted(sizes):
        out[name] = stream[pos : pos + sizes[name]]
        pos += sizes[name]
    return out


def _lower(
    schedule: Schedule, topo: CartTopology, *form: Optional[NormalForm]
) -> "BatchedPlan | ScheduleError":
    """The one lowering of a verification, at synthesized buffer sizes
    and outside the schedule's plan cache (inspecting a schedule leaves
    nothing on it), keyed by the schedule's normal ``form`` where the
    caller has it (:func:`repro.core.plan.lower`).  A refusal is
    returned, not raised: the kernel check reports it as V501 in its
    place in the report."""
    from repro.core.plan import lower

    schedule.prepare()
    try:
        plan = lower(schedule, topo, _plan_sizes(schedule), *form)
        # an in-place plan's round programs are judged with it (and run
        # with it, where the build hook hands the plan on): they are
        # part of the lowering, not of whoever first asks for them
        plan.deliveries
    except ScheduleError as exc:
        return exc
    return plan


def _lowered_plan(
    lowered: "BatchedPlan | ScheduleError", report: VerificationReport
) -> Optional["BatchedPlan"]:
    """``lowered`` if it is a plan; a refusal is V501."""
    if isinstance(lowered, ScheduleError):
        report.add("V501", f"plan lowering refused the schedule: {lowered}")
        return None
    return lowered


def _same_bytes(
    ref: Mapping[str, np.ndarray],
    got: dict[str, np.ndarray],
    names: Optional[Iterable[str]] = None,
) -> bool:
    """Whether the buffers of ``got`` (those in ``names``, where only
    they can have changed) equal those of ``ref`` — and if not, make
    them, so one wrong round is reported once and the rounds after it
    start from the reference state again."""
    bad = [
        k
        for k in (ref if names is None else names)
        if not np.array_equal(ref[k], got[k])
    ]
    for k in bad:
        got[k][:] = ref[k]
    return not bad


def _check_delivery(
    rnd: Round,
    br: "BatchedRound",
    program: Optional["CompiledCopyProgram"],
    sender: Mapping[str, np.ndarray],
    ref: Mapping[str, np.ndarray],
    got: dict[str, np.ndarray],
    report: VerificationReport,
    pi: int,
    ri: int,
) -> None:
    """One round of an in-place plan: it has a program iff it has both
    halves (V501), and running the program from the ``sender``'s
    buffers into a receiver's (``got``) leaves there what unpacking
    the sender's packed payload into the same state (``ref``) would
    (V503) — out-of-bounds selectors included, which raise or land on
    other bytes."""
    if (program is None) != (br.send is None or br.recv is None):
        report.add(
            "V501",
            "plan delivers a round with a missing half (or skips one "
            "that has both)",
            phase=pi,
            round_index=ri,
        )
    if program is None:
        return
    rnd.recv_blocks.unpack(ref, rnd.send_blocks.pack(sender))
    try:
        program.run(got, sender)
    except (IndexError, ValueError) as exc:
        _same_bytes(ref, got)
        why = f"raises {exc!r}"
    else:
        if _same_bytes(ref, got):
            return
        why = "moves different bytes"
    report.add(
        "V503",
        f"compiled delivery {why} for the round to {rnd.offset}",
        phase=pi,
        round_index=ri,
    )


def _kernel_difference(
    rnd: Round,
    br: "BatchedRound",
    buffers: Mapping[str, np.ndarray],
    payload: np.ndarray,
    ref: dict[str, np.ndarray],
    got: dict[str, np.ndarray],
    wrote: Optional["KernelEffects"],
) -> Optional[str]:
    """How one round's compiled kernels move other bytes than its block
    sets (``None``: they agree): the pack from ``buffers``, and the
    unpack of ``payload`` into the reference's and the kernels' copies
    of the receiver (``ref``/``got``, equal before and after)."""
    if br.send is not None and br.send.pack(buffers).tobytes() != (
        rnd.send_blocks.pack(buffers)
    ):
        return "compiled pack produces different bytes"
    if br.recv is None:
        return None
    if rnd.recv_blocks.total_nbytes != br.recv.total_nbytes:
        return (
            f"compiled unpack expects {br.recv.total_nbytes} B, block set "
            f"carries {rnd.recv_blocks.total_nbytes} B"
        )
    rnd.recv_blocks.unpack_from(ref, payload)
    br.recv.unpack_from(got, payload)
    # nothing else can have changed: what either side names, if it exists
    assert wrote is not None
    if not _same_bytes(
        ref, got, rnd.recv_blocks.buffers_used().union(wrote.buffers) & ref.keys()
    ):
        return "compiled unpack scatters different bytes"
    return None


def _delivery(plan: "BatchedPlan") -> str:
    """``report.delivery`` of ``plan``."""
    from repro.core.backend.batched import executor_form

    delivery, form = f"{plan.delivery}: {plan.delivery_reason}", executor_form(plan)
    return form if form.startswith(delivery) else f"{delivery}; runs as {form}"


def _check_plan_kernels(
    schedule: Schedule,
    report: VerificationReport,
    lowered: "BatchedPlan | ScheduleError",
    effects: Optional["PlanEffects"] = None,
) -> Optional["BatchedPlan"]:
    """The kernel half of lowering conformance — what depends on the
    block size, so it runs on every instance.  The plan (from
    :func:`_lower`, or a corrupted one the mutation harness wants
    judged) must exist and keep the round structure, and address every
    buffer and wire in a lane that divides it (V501); its shared kernels
    must pack/unpack byte-identically to the reference block sets, and
    the round programs of an in-place plan must move, from a sender's
    buffers to a receiver's, exactly the bytes the block sets' pack and
    unpack would (V503); its fused local-copy program must leave every
    buffer in the state the schedule's sequential copies produce
    (V504).  ``effects`` is the caller's reading of the plan's ops when
    it already has one.  Returns the plan (``None`` when it cannot be
    used further) so the later passes check the same object.

    All of it runs on one sentinel draw: a receiver's buffers, a
    sender's, and a payload per round cut from one stream.  The
    reference and the compiled kernels each work on their own copy of
    the receiver's buffers, round after round: before a round the two
    copies are equal (:func:`_same_bytes` sees to it), so they differ
    after it iff the round's kernel and its block set moved different
    bytes — and what a round leaves behind is its own fresh payload,
    never bytes a later round will deliver again."""
    from repro.analyze.intervals import read_plan

    plan = _lowered_plan(lowered, report)
    if plan is None:
        return None
    read = read_plan(plan, effects)
    report.delivery = _delivery(plan)
    sizes = plan.sizes
    want_shape = tuple(len(ph.rounds) for ph in schedule.phases)
    # an in-place plan's round programs (lowered here if nobody ran
    # them yet) follow the rounds one to one
    deliveries = plan.deliveries
    tables: list[Sequence[Sequence[object]]] = [plan.phases]
    if deliveries is not None:
        tables.append(deliveries)
    for rows in tables:
        shape = tuple(len(row) for row in rows)
        if shape != want_shape:
            report.add(
                "V501",
                f"plan has phase/round shape {shape}, schedule has "
                f"{want_shape}",
            )
            return None
    # a lane must divide what it views as words, or the kernels below
    # could not even run
    for lane, extents in read.lane_views():
        if any(n % lane for n in extents):
            report.add(
                "V501",
                f"plan lowering chose a {lane}-byte lane over sides of "
                f"{extents} bytes",
            )
            return None
    total = sum(sizes.values())
    stream = _sentinel_stream(
        0,
        2 * total
        + sum(
            br.recv.total_nbytes
            for plan_rounds in plan.phases
            for br in plan_rounds
            if br.recv is not None
        ),
    )
    buffers = _sentinel_buffers(sizes, stream)
    sender = _sentinel_buffers(sizes, stream[total:])
    payloads = stream[2 * total :]
    ref = {k: v.copy() for k, v in buffers.items()}
    got = {k: v.copy() for k, v in buffers.items()}
    for pi, (ph, plan_rounds) in enumerate(zip(schedule.phases, plan.phases)):
        for ri, (rnd, br) in enumerate(zip(ph.rounds, plan_rounds)):
            if deliveries is not None:
                _check_delivery(
                    rnd, br, deliveries[pi][ri], sender, ref, got,
                    report, pi, ri,
                )
            n = 0 if br.recv is None else br.recv.total_nbytes
            payload, payloads = payloads[:n], payloads[n:]
            try:
                why = _kernel_difference(
                    rnd, br, buffers, payload, ref, got, read.kernels[pi][ri][1]
                )
            except (IndexError, ValueError) as exc:
                _same_bytes(ref, got)
                why = f"compiled kernel raises {exc!r}"
            if why is not None:
                report.add(
                    "V503",
                    f"{why} for the round to {rnd.offset}",
                    phase=pi,
                    round_index=ri,
                )
    # V504: fused local-copy program vs. sequential schedule copies (a
    # copy whose two sides differ in size runs neither way)
    try:
        schedule.run_local_copies(ref)
        moved = plan.copy_program.run(got)
    except ValueError as exc:
        report.add("V504", f"local copies raise {exc!r}")
        return plan
    if moved != schedule.local_copy_bytes:
        report.add(
            "V504",
            f"plan reports {moved} B copied locally, schedule "
            f"copies {schedule.local_copy_bytes} B",
        )
    bad = [k for k in ref if not np.array_equal(ref[k], got[k])]
    if bad:
        report.add(
            "V504",
            f"compiled local-copy program leaves buffer(s) "
            f"{sorted(bad)} in a different state",
        )
    return plan


def _check_peers(
    schedule: Schedule,
    topo: CartTopology,
    plan: "BatchedPlan",
    report: VerificationReport,
) -> None:
    """Everything read off the plan's peer vectors, which no block size
    can change.  Every round's ``sources`` and ``targets`` must be its
    offsets translated at every rank, and ``senders``, ``recv_rows`` and
    ``recv_sources`` what the lowering derives from those, in one
    comparison over all p ranks per round (V502); the combine row masks
    are the row half of V806
    (:func:`~repro.analyze.effects.check_batched_peers`).  Every rank
    view is read off these vectors, so with the kernel half clean this
    re-certifies Props. 3.1-3.3 for the lowered form: structure, peers
    and per-round bytes are unchanged, so the already-checked round
    counts and volumes carry over."""
    from repro.analyze.effects import check_batched_peers
    from repro.core.plan import BatchedRound, translate_all

    peers: dict[tuple[int, ...], np.ndarray] = {}

    def resolve(offset: tuple[int, ...]) -> np.ndarray:
        if offset not in peers:
            peers[offset] = translate_all(topo, offset)
        return peers[offset]

    for pi, (ph, plan_rounds) in enumerate(zip(schedule.phases, plan.phases)):
        for ri, (rnd, br) in enumerate(zip(ph.rounds, plan_rounds)):
            sources, targets = np.asarray(br.sources), np.asarray(br.targets)
            source = resolve(tuple(-o for o in rnd.recv_source_offset))
            target = resolve(tuple(rnd.offset))
            if sources.shape != source.shape or targets.shape != target.shape:
                report.add(
                    "V502",
                    f"peer vectors have shapes {sources.shape} and "
                    f"{targets.shape}, expected {source.shape}",
                    phase=pi,
                    round_index=ri,
                )
                continue
            bad = np.flatnonzero((sources != source) | (targets != target))
            if bad.size:
                rank = int(bad[0])
                report.add(
                    "V502",
                    f"plan resolves (source, target)=({sources[rank]}, "
                    f"{targets[rank]}) at {bad.size} rank(s), translation "
                    f"gives ({source[rank]}, {target[rank]}) (-1: none)",
                    rank=rank,
                    phase=pi,
                    round_index=ri,
                )
            derived = BatchedRound(source, target, br.send, br.recv)
            off = [
                name
                for name in ("senders", "recv_rows", "recv_sources")
                if not np.array_equal(getattr(br, name), getattr(derived, name))
            ]
            if off:
                report.add(
                    "V502",
                    f"{', '.join(off)} differ(s) from what translation derives",
                    phase=pi,
                    round_index=ri,
                )
    check_batched_peers(plan, report)


# ----------------------------------------------------------------------
# check (a): the sentinel execution (V404, V506, V805)
# ----------------------------------------------------------------------
def _pack_rows(blocks: BlockSet, rows: Mapping[str, np.ndarray], p: int) -> np.ndarray:
    """``blocks.pack`` at every rank at once, from ``{buffer: (p, bytes)}``."""
    runs = [rows[b.buffer][:, b.offset : b.end()] for b in blocks.coalesced_runs()]
    return np.concatenate(runs, axis=1) if runs else np.empty((p, 0), np.uint8)


def _expected_slots(
    schedule: Schedule, topo: CartTopology
) -> Optional[list[tuple[np.ndarray, BlockSet]]]:
    """The V404 oracle: per slot ``i``, every rank's source
    ``translate(r, −N[i])`` (``-1`` off a mesh edge: nothing to hold)
    and the source's send block the slot must hold (its one block,
    allgather kinds).  ``None`` without a definition to hold the walk
    to: another kind, layouts not recorded or not one per neighbour, or
    layouts sharing a buffer (an in-place exchange rewrites its inputs)."""
    from repro.core.plan import translate_all

    send, recv = schedule.send_layout, schedule.recv_layout
    allgather = schedule.kind in ALLGATHER_KINDS
    nbh = schedule.neighborhood
    if (
        schedule.kind not in ALLTOALL_KINDS and not allgather
        or send is None
        or recv is None
        or len(recv) != nbh.t
        or len(send) != (1 if allgather else nbh.t)
        or {r.buffer for bs in send for r in bs}
        & {r.buffer for bs in recv for r in bs}
    ):
        return None
    return [
        (translate_all(topo, tuple(-o for o in off)), send[0 if allgather else i])
        for i, off in enumerate(nbh)
    ]


def _check_execution(
    schedule: Schedule,
    topo: CartTopology,
    plan: "BatchedPlan",
    report: VerificationReport,
    *,
    definition: bool,
) -> None:
    """The verifier's oracle: the one sentinel execution of the plan.

    The plan's row views are walked in lockstep over rank-unique
    sentinel inputs (``temp`` included, so scratch staged through
    mesh-edge slots compares bit-exactly), and the walk is held to the
    collective's definition: every receive slot (V404,
    :func:`_expected_slots`) and — with ``definition``, a reduction
    whose static passes are clean — every output region, on integer
    inputs of the combine dtype (V805, :func:`_reduce_wanted`).  A walk
    that raises violates whichever of the two the kind has.  The plan's
    planes (:meth:`BatchedPlan.execute_planes`), its fused maps
    (:meth:`BatchedPlan.execute_staged`), both lowered here, and an
    in-place plan's :meth:`BatchedPlan.deliver` must leave every rank's
    buffers as the walk left them (V506).  What ran goes on ``report.checks_run``; over
    :data:`CONTENT_BUDGET` nothing runs and ``report.skipped`` says so."""
    from repro.core.backend.interpreter import ScheduleInterpreter
    from repro.core.backend.lockstep import (
        LockstepExchange,
        LockstepTransport,
        drive_lockstep,
    )
    from repro.mpisim.datatypes import byte_view

    sizes = plan.sizes
    p = topo.size
    total = sum(sizes.values())
    if p * total > CONTENT_BUDGET:
        why = f"{p * total} B of simulated state is over CONTENT_BUDGET"
        report.skipped.append(("matrix-execution", why))
        return
    start = [
        _sentinel_buffers(sizes, _sentinel_stream(r, total)) for r in range(p)
    ]
    wanted = _reduce_wanted(schedule, topo, start) if definition else None
    expected = _expected_slots(schedule, topo)
    ref_bufs = [{k: v.copy() for k, v in bufs.items()} for bufs in start]
    exchange = LockstepExchange()
    report.checks_run.append("matrix-execution")
    try:
        # random sentinel bytes form NaN/inf patterns under float combine
        # dtypes; both paths run the identical numpy ops in identical
        # order, so the comparison stays bit-exact — only mute the noise
        with np.errstate(all="ignore"):
            drive_lockstep(
                [
                    ScheduleInterpreter(
                        LockstepTransport(exchange, r),
                        topo,
                        schedule,
                        ref_bufs[r],
                        observe=False,
                        plan=plan.for_rank(r),
                    )
                    for r in range(p)
                ],
                exchange,
            )
    except Exception as exc:
        report.add(
            "V805" if schedule.is_reduction else "V404",
            f"the walk over the rank views raised {exc!r}",
        )
        return
    # the inputs, held for the oracle before any form runs on ``start``
    rows = {name: np.stack([byte_view(start[r][name]) for r in range(p)]) for name in sizes}

    def run_fused() -> Optional[Sequence[Mapping[str, np.ndarray]]]:
        if plan.fused is None:  # lowered here for every later run
            return None
        block = np.zeros(plan.block_nbytes, np.uint8)
        matrices = plan.matrices(block)
        for name, matrix in matrices.items():
            matrix[:] = rows[name]
        plan.execute_staged(block, matrices)
        return [{name: matrices[name][rank] for name in sizes} for rank in range(p)]

    def run_planes() -> Optional[Sequence[Mapping[str, np.ndarray]]]:
        if plan.planes is None:  # lowered here for every later run
            return None
        block = np.zeros(plan.block_nbytes, np.uint8)
        planes = plan.plane_views(block)
        for name, plane in planes.items():
            plane[...] = rows[name].reshape(p, *plane.shape[::2]).transpose(1, 0, 2)
        plan.execute_planes(block)
        return [{name: plane[:, rank] for name, plane in planes.items()} for rank in range(p)]

    def run_in_place() -> Sequence[Mapping[str, np.ndarray]]:
        # on the inputs themselves: everything else has its own copy
        plan.deliver(start)
        return start

    # a plan without a staged form is only ever walked: nothing to compare
    ways = (
        [("plane execution", run_planes), ("fused execution", run_fused)]
        if plan.matrix_error is None
        else []
    )
    if plan.delivery == "in-place":
        ways.append(("in-place delivery", run_in_place))
    for way, run in ways:
        try:
            with np.errstate(all="ignore"):
                got_bufs = run()
        except Exception as exc:
            report.add(
                "V506", f"{way} raised {exc!r} where the walk succeeded"
            )
            continue
        if got_bufs is None:  # no maps or no planes
            continue
        for rank in range(p):
            bad = [
                name
                for name in sizes
                if not np.array_equal(  # a plane's rank column is (words, lane)
                    byte_view(ref_bufs[rank][name]).reshape(got_bufs[rank][name].shape),
                    got_bufs[rank][name],
                )
            ]
            if bad:
                report.add(
                    "V506",
                    f"{way} leaves buffer(s) {sorted(bad)} in a different "
                    f"state than the walk over the rank views",
                    rank=rank,
                )
                break
    if expected is not None:
        report.checks_run.append("definition")
        recv = schedule.recv_layout or []
        held = {ref.buffer for bs in recv for ref in bs}
        done = {n: np.stack([byte_view(ref_bufs[r][n]) for r in range(p)]) for n in held}
        wrong = np.zeros((p, len(expected)), dtype=bool)
        for i, (src, block) in enumerate(expected):
            want = _pack_rows(block, rows, p)[np.maximum(src, 0)]
            got = _pack_rows(recv[i], done, p)
            differs = (got != want).any(axis=1) if got.shape == want.shape else True
            wrong[:, i] = (src >= 0) & differs
        if wrong.any():
            rank, i = (int(x) for x in np.argwhere(wrong)[0])  # rank-major
            report.add(
                "V404",
                f"receive slot {i} holds other bytes than the block of "
                f"rank {expected[i][0][rank]} ({int(wrong.sum())} wrong "
                f"slot(s) over all ranks)",
                rank=rank,
                block=i,
            )
    if wanted is not None:
        report.checks_run.append("reduce-content")
        for rank, outputs in enumerate(wanted):
            for (buf, off, n), want in outputs.items():
                got = byte_view(ref_bufs[rank][buf])[off : off + n]
                if not np.array_equal(got.view(want.dtype), want):
                    report.add(
                        "V805",
                        f"reduction result differs from the definition at "
                        f"rank {rank}, output region {buf!r}[{off}:{off + n})",
                        rank=rank,
                    )
                    return


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _run_stages(
    schedule: Schedule,
    topo: CartTopology,
    report: VerificationReport,
    inherit: Optional[CertificateStore] = None,
) -> None:
    """One verification: the lowering and the two stages, in report
    order, every check on the one lowering.

    The **shape stage** is every check that multiplying all byte extents
    of the schedule by one factor cannot change: the closed forms,
    matching and deadlock, the declared buffers, the reduction passes,
    everything read off the peer vectors — the peers at every rank, the
    batched permutation and masking, the combine row masks — and the
    sentinel execution of kernels built the way this plan's were, held
    to the collective's definition.  The **instance stage** is what the
    block size can change: that the lowering exists, its lanes divide,
    its kernels move the block sets' bytes, its copy program is the
    schedule's (V501/V503/V504), and the byte-level effect pass (V70x,
    the byte half of V806), on one reading of the plan's ops.

    With a store to ``inherit`` from (:mod:`repro.analyze.certificates`),
    this plan's digest on file inherits the whole report, its shape alone
    runs the instance stage only; a clean report in which nothing was
    skipped files what it ran.  The seconds of each stage are booked on
    ``report.stage_seconds`` (and, per path, on the store)."""
    from repro.analyze.effects import run_effect_checks
    from repro.analyze.intervals import PlanEffects

    seconds = dict.fromkeys(STAGES, 0.0)
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        seconds[stage] += now - last
        last = now

    form = normal_form(schedule.prepare())
    lap("shape")
    lowered = _lower(schedule, topo, form)
    lap("lowering")
    key: Optional[tuple[object, ...]] = None
    digest: Optional[str] = None
    shape: Optional[Certificate] = None
    witness: Optional[Certificate] = None
    if inherit is not None and form is not None and not isinstance(lowered, ScheduleError):
        plan_shape, digest = plan_digest(lowered, form.granule)
        key = (form.digest, report.dims, report.periods, plan_shape)
        shape, witness = inherit.lookup(key, digest)
    lap("shape")
    if witness is not None:
        assert not isinstance(lowered, ScheduleError)
        report.inherited_from = witness
        report.checks_run.append("inherited-plan")
        report.plan, report.delivery = lowered, _delivery(lowered)
    else:
        effects = None if isinstance(lowered, ScheduleError) else PlanEffects(lowered)
        lap("kernels")
        definition = False
        if shape is None:
            _check_quantitative(schedule, report)
            report.checks_run.append("quantitative")
            _check_matching(schedule, topo, report)
            report.checks_run.append("matching+deadlock")
            _check_buffer_bounds(schedule, report)
            report.checks_run.append("buffer-bounds")
            definition = schedule.is_reduction and _run_reduce_checks(schedule, topo, report)
        else:
            report.inherited_from = shape
            report.checks_run.append("inherited-shape")
        lap("shape")
        plan = report.plan = _check_plan_kernels(schedule, report, lowered, effects)
        report.checks_run.append("plan-lowering")
        lap("kernels")
        if plan is not None and shape is None:
            _check_peers(schedule, topo, plan, report)
            _check_execution(schedule, topo, plan, report, definition=definition)
            lap("shape")
        run_effect_checks(schedule, topo, report, plan=plan, effects=effects)
        report.checks_run.append("effects")
        lap("effects")
    report.stage_seconds = seconds
    if inherit is None:
        return
    if key is not None and witness is None and report.ok and not report.skipped:
        assert form is not None
        certificate = Certificate(form.digest[:12], form.granule, tuple(report.checks_run))
        inherit.file(key, digest, certificate, shape=shape is None)
    path = "plan" if witness else "shape" if shape else "full"
    inherit.account(seconds, path=path, quotientable=form is not None)


def verify_schedule(
    schedule: Schedule,
    dims: Sequence[int],
    periods: Sequence[bool] | bool = True,
) -> VerificationReport:
    """Statically verify ``schedule`` against the whole torus.

    Returns a :class:`VerificationReport` listing *every* violation
    found; ``report.ok`` means the schedule is certified for the given
    ``(dims, periods)`` — including its plan-lowered form (the
    V501-V506, V805 and effect passes share one lowering, which the
    report carries as ``report.plan`` and which is not left on the
    schedule).
    """
    topo, report = _open_report(schedule, dims, periods)
    _run_stages(schedule, topo, report)
    return report


def certify_schedule(
    schedule: Schedule,
    dims: Sequence[int],
    periods: Sequence[bool] | bool = True,
    *,
    inherit: Optional[CertificateStore] = None,
) -> VerificationReport:
    """Like :func:`verify_schedule` but raises
    :class:`~repro.analyze.report.ScheduleValidationError` on any
    violation.  This is the ``verify_on_build`` hook.

    With a certificate store to ``inherit`` from, the schedule is
    lowered and the stages run only where no instance of the same
    normal form, topology and plan shape has run them before: none, if
    one had this lowering up to the block size (its plan digest); the
    instance stage, if one had the shape alone
    (:mod:`repro.analyze.certificates`).  A certificate is filed only
    from a clean report in which nothing was skipped, so an instance
    too large to simulate is covered by a smaller witness or by
    nobody."""
    topo, report = _open_report(schedule, dims, periods)
    _run_stages(schedule, topo, report, inherit)
    report.raise_if_failed()
    return report


# ----------------------------------------------------------------------
# check (h): reduce-schedule verification (V801-V804; V805's oracle)
# ----------------------------------------------------------------------
#: element count per operand of the operator probe
_REDUCE_PROBE_ELEMS = 5


def _probe_operator(
    op_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    label: str,
    report: VerificationReport,
) -> bool:
    """Numerically probe that a combine operator is commutative and
    associative (the MPI_Op contract the reverse-tree schedule relies
    on), and that it preserves shape and dtype.  Integer operands keep
    the algebra exact, so a failed identity is a property of the
    operator, not of rounding.  Returns True when the operator passes.
    """
    rng = np.random.default_rng(0xC0FFEE)
    ok = True
    for _ in range(8):
        a, b, c = (
            rng.integers(1, 64, _REDUCE_PROBE_ELEMS).astype(np.int64)
            for _ in range(3)
        )
        try:
            ab, ba = op_fn(a, b), op_fn(b, a)
            ab_c, a_bc = op_fn(op_fn(a, b), c), op_fn(a, op_fn(b, c))
        except Exception as exc:
            report.add("V804", f"operator {label} raised on int64: {exc!r}")
            return False
        if np.shape(ab) != a.shape:
            report.add(
                "V804",
                f"operator {label} changes shape {a.shape} -> "
                f"{np.shape(ab)}",
            )
            return False
        if not np.array_equal(ab, ba):
            report.add(
                "V804",
                f"operator {label} is not commutative: "
                f"op({a[0]},{b[0]})={np.asarray(ab).flat[0]} but "
                f"op({b[0]},{a[0]})={np.asarray(ba).flat[0]}",
            )
            ok = False
            break
        if not np.array_equal(ab_c, a_bc):
            report.add(
                "V804",
                f"operator {label} is not associative: "
                f"op(op(a,b),c) != op(a,op(b,c)) for "
                f"a={a[0]}, b={b[0]}, c={c[0]}",
            )
            ok = False
            break
    return ok


def _region_key(ref: BlockRef) -> tuple[str, int, int]:
    return (ref.buffer, ref.offset, ref.nbytes)


def _send_block_map(schedule: Schedule) -> dict[tuple[str, int, int], int]:
    """Region key -> send block index, from the recorded send layout."""
    out: dict[tuple[str, int, int], int] = {}
    if schedule.send_layout:
        for i, bs in enumerate(schedule.send_layout):
            for ref in bs:
                out.setdefault(_region_key(ref), i)
    return out


def _check_reduce_structure(
    schedule: Schedule, topo: CartTopology, report: VerificationReport
) -> None:
    """V802 over the unified reduction schedule: periodicity
    preconditions, per-phase offset routing, combine-step gating and
    element alignment, and the staging/accumulator separation that keeps
    the lowered combine steps order-independent."""
    nbh = schedule.neighborhood
    d = nbh.d
    if schedule.kind in REDUCE_TREE_KINDS and not topo.is_fully_periodic:
        report.add(
            "V802",
            "message-combining reduction schedules require a fully "
            "periodic torus",
        )
    if schedule.combine_dtype is None:
        report.add("V802", "reduction schedule carries no combine dtype")
        return
    dt = np.dtype(schedule.combine_dtype)

    def check_steps(steps, phase_index, nrounds):
        srcs = [s.src for s in steps]
        for step in steps:
            if step.when_round is not None and not (
                0 <= step.when_round < nrounds
            ):
                report.add(
                    "V802",
                    f"combine gate names round {step.when_round}, phase "
                    f"has {nrounds}",
                    phase=phase_index,
                )
            if step.src.nbytes != step.dst.nbytes:
                report.add(
                    "V802",
                    f"combine step size mismatch: {step.src} -> "
                    f"{step.dst}",
                    phase=phase_index,
                )
            if step.dst.nbytes % dt.itemsize:
                report.add(
                    "V802",
                    f"combine region of {step.dst.nbytes} B is not a "
                    f"multiple of the {dt.str} itemsize",
                    phase=phase_index,
                )
            hit = _overlap([step.dst], srcs)
            if hit is not None:
                buf, lo, hi = hit
                report.add(
                    "V802",
                    f"combine destination {step.dst} overlaps a combine "
                    f"source region {buf!r}[{lo}:{hi}) of the same "
                    f"step list (fold order would matter)",
                    phase=phase_index,
                )

    check_steps(schedule.pre_steps, None, 0)
    for pi, phase in enumerate(schedule.phases):
        if phase.dim is not None:
            for ri, rnd in enumerate(phase.rounds):
                off = rnd.offset
                if (
                    len(off) != d
                    or off[phase.dim] == 0
                    or any(
                        o != 0 for j, o in enumerate(off) if j != phase.dim
                    )
                ):
                    report.add(
                        "V802",
                        f"round offset {off} does not route dimension "
                        f"{phase.dim} alone",
                        phase=pi,
                        round_index=ri,
                    )
        check_steps(phase.combine_steps, pi, len(phase.rounds))


def _reduce_expected(
    schedule: Schedule,
) -> Optional[dict[tuple[str, int, int], Counter]]:
    """The contribution multiset every output region must end holding:
    ``(relative source offset, send block index)`` pairs, duplicates
    counted.  ``None`` when the kind has no defined expectation."""
    nbh = schedule.neighborhood
    if not schedule.recv_layout:
        return None
    neg = [tuple(-int(x) for x in off) for off in nbh]
    outputs: list[BlockRef] = []
    for bs in schedule.recv_layout:
        refs = list(bs)
        if len(refs) != 1:
            return None
        outputs.append(refs[0])
    kind = schedule.kind
    if kind in ("reduce", "trivial-reduce"):
        return {_region_key(outputs[0]): Counter((o, 0) for o in neg)}
    if kind in ("reduce-scatter", "trivial-reduce-scatter"):
        return {
            _region_key(outputs[0]): Counter(
                (neg[i], i) for i in range(nbh.t)
            )
        }
    if kind == "allreduce":
        return {
            _region_key(ref): Counter(
                (tuple(a + b for a, b in zip(neg[j], neg[i])), 0)
                for i in range(nbh.t)
            )
            for j, ref in enumerate(outputs)
        }
    return None


def _check_reduce_dataflow(
    schedule: Schedule, report: VerificationReport
) -> bool:
    """V803: symbolic contribution dataflow over the unified schedule.

    Tracks, per byte region, the multiset of ``(relative source offset,
    send block index)`` contributions it holds, under phase-snapshot
    semantics (every round of a phase ships the pre-phase accumulator
    values; the phase's combine steps fold the staging afterwards, in
    order).  A region received from offset ``w`` shifts every
    contribution ``δ -> δ − w``.  The recorded output regions must end
    holding exactly the collective's definition — and no round may ever
    forward a region nothing seeded (scratch, the reduction analogue of
    V709).  All rounds are taken live (the fully periodic case);
    mesh gating is covered by the sentinel execution (V805)."""
    nbh = schedule.neighborhood
    zero = (0,) * nbh.d
    send_map = _send_block_map(schedule)
    state: dict[tuple[str, int, int], Counter] = {}

    def read(
        table: dict[tuple[str, int, int], Counter],
        ref: BlockRef,
    ) -> Optional[Counter]:
        cur = table.get(_region_key(ref))
        if cur is not None:
            return cur
        blk = send_map.get(_region_key(ref))
        if blk is not None:
            return Counter({(zero, blk): 1})
        return None

    def fold(step, table) -> bool:
        if step.src.nbytes == 0:
            return True
        src = read(table, step.src)
        if src is None:
            report.add(
                "V803",
                f"combine step reads region {step.src} that holds no "
                f"contribution",
            )
            return False
        state.setdefault(_region_key(step.dst), Counter()).update(src)
        return True

    for step in schedule.pre_steps:
        if not fold(step, state):
            return False
    scratch_reported = False
    for pi, phase in enumerate(schedule.phases):
        snap = {k: Counter(c) for k, c in state.items()}
        for ri, rnd in enumerate(phase.rounds):
            sblocks = [b for b in rnd.send_blocks if b.nbytes]
            rblocks = [b for b in rnd.recv_blocks if b.nbytes]
            if len(sblocks) != len(rblocks) or any(
                s.nbytes != r.nbytes for s, r in zip(sblocks, rblocks)
            ):
                report.add(
                    "V802",
                    "send and receive blocks of the round do not pair "
                    "1:1, contribution routing is undecidable",
                    phase=pi,
                    round_index=ri,
                )
                return False
            w = rnd.recv_source_offset
            for s_ref, r_ref in zip(sblocks, rblocks):
                src = read(snap, s_ref)
                if src is None:
                    if not scratch_reported:
                        scratch_reported = True
                        report.add(
                            "V803",
                            f"round forwards region {s_ref} that holds "
                            f"no contribution yet (scratch bytes would "
                            f"be combined)",
                            phase=pi,
                            round_index=ri,
                        )
                    src = Counter()
                state[_region_key(r_ref)] = Counter(
                    {
                        (tuple(x - o for x, o in zip(delta, w)), b): cnt
                        for (delta, b), cnt in src.items()
                    }
                )
        for step in phase.combine_steps:
            if not fold(step, state):
                return False
    for lc in schedule.local_copies:
        src = read(state, lc.src)
        if src is not None:
            state[_region_key(lc.dst)] = Counter(src)

    expected = _reduce_expected(schedule)
    if expected is None:
        return not scratch_reported
    ok = not scratch_reported
    for key, want in expected.items():
        got = state.get(key, Counter())
        if got != want and key[2]:  # an empty region holds no contribution
            missing = want - got
            extra = got - want
            parts = []
            if missing:
                parts.append(f"missing {dict(missing)}")
            if extra:
                parts.append(f"extra {dict(extra)}")
            buf, off, n = key
            report.add(
                "V803",
                f"output region {buf!r}[{off}:{off + n}) combines the "
                f"wrong contribution multiset: " + ", ".join(parts),
            )
            ok = False
    return ok


def _reduce_wanted(
    schedule: Schedule,
    topo: CartTopology,
    bufs: list[dict[str, np.ndarray]],
) -> Optional[list[dict[tuple[str, int, int], np.ndarray]]]:
    """The V805 oracle.  Reseeds every rank's input buffers in ``bufs``
    with small integers of the combine dtype (exact under every named
    operator) and folds, per rank and output region, the blocks the
    definition names — :func:`_reduce_expected`'s contribution table,
    the one V803 checks symbolically — with mesh gating: off-edge
    sources are skipped (trivial kinds only; tree kinds refuse meshes
    earlier).  ``None`` when the kind has no defined expectation, the
    inputs are not whole elements, or some rank has no live contribution
    (it must raise, not compare)."""
    from repro.core.reduce_schedule import resolve_op_token
    from repro.mpisim.datatypes import byte_view

    expected = _reduce_expected(schedule)
    if expected is None or not schedule.send_layout:
        return None
    assert schedule.combine_op is not None
    op_fn = resolve_op_token(schedule.combine_op)
    dt = np.dtype(schedule.combine_dtype)
    blocks = [next(iter(bs)) for bs in schedule.send_layout]
    inputs = sorted({ref.buffer for ref in blocks})
    if any(bufs[0][name].nbytes % dt.itemsize for name in inputs):
        return None
    rng = np.random.default_rng(2019)
    for rank_bufs in bufs:
        for name in inputs:
            count = rank_bufs[name].nbytes // dt.itemsize
            rank_bufs[name] = rng.integers(1, 50, count).astype(dt)
    block_views = [
        [
            byte_view(rank_bufs[ref.buffer])[
                ref.offset : ref.offset + ref.nbytes
            ].view(dt)
            for ref in blocks
        ]
        for rank_bufs in bufs
    ]
    wanted: list[dict[tuple[str, int, int], np.ndarray]] = []
    for rank in range(topo.size):
        outputs: dict[tuple[str, int, int], np.ndarray] = {}
        for key, contributions in expected.items():
            want: Optional[np.ndarray] = None
            for delta, index in contributions.elements():
                src = topo.translate(rank, delta)
                if src is None:
                    continue
                block = block_views[src][index]
                want = block.copy() if want is None else op_fn(want, block)
            if want is None:
                return None
            outputs[key] = want
        wanted.append(outputs)
    return wanted


def _run_reduce_checks(
    schedule: Schedule, topo: CartTopology, report: VerificationReport
) -> bool:
    """The static reduction passes shared by :func:`verify_schedule` and
    :func:`verify_reduce_schedule`: V802 structure and V803 dataflow.
    Returns whether the sentinel execution may be held to the definition
    (V805): they and the closed forms passed, and the operator is a
    named one — a custom token is process-local."""
    from repro.core.reduce_schedule import is_custom_op_token

    _check_reduce_structure(schedule, topo, report)
    report.checks_run.append("reduce-structure")
    _check_reduce_dataflow(schedule, report)
    report.checks_run.append("reduce-dataflow")
    token = schedule.combine_op
    return (
        token is not None
        and not is_custom_op_token(token)
        and not report.codes() & {"V801", "V802", "V803"}
    )


def verify_reduce_schedule(
    schedule: Schedule,
    dims: Sequence[int],
    periods: Sequence[bool] | bool = True,
    *,
    probe_named_ops: bool = True,
) -> VerificationReport:
    """Statically verify a reduction schedule (any kind in
    :data:`REDUCE_KINDS`) against the whole torus.

    Checks, mirroring the allgather verifier the tree kinds are dual to:

    * **V801** — round count equals ``C`` (``2C`` for the composed
      allreduce) and block volume equals the allgather tree's edge
      count (Prop. 3.3 duality); ``t − |self|`` single-round phases for
      the trivial kinds;
    * **V802** — combining kinds demand a fully periodic torus, every
      tree round's offset routes the phase's dimension alone, combine
      gates stay in range, regions stay element-aligned, and no combine
      destination overlaps a staging source (the hazard that would make
      fold order observable);
    * **V803** — symbolic contribution dataflow: every recorded output
      region must end holding exactly the contribution multiset of the
      collective's definition, and no round may forward unseeded
      scratch;
    * **V804** — the combine operator passes a numeric commutativity /
      associativity probe on exact integer operands (the ``MPI_Op``
      contract; ``probe_named_ops`` additionally pins the whole named
      operator table);
    * **V805** — the sentinel execution of the lowered plan on integer
      inputs matches the definition ``recv(r) = reduce_i block(r −
      N[i])`` (and its scatter/allreduce analogues) computed directly.
    """
    from repro.core.reduce_schedule import (
        OPS,
        is_custom_op_token,
        resolve_op_token,
    )

    topo, report = _open_report(schedule, dims, periods)
    token = schedule.combine_op
    if token is None:
        report.add("V802", "schedule carries no combine operator")
        return report
    _check_quantitative(schedule, report)
    report.checks_run.append("reduce-quantitative")
    definition = _run_reduce_checks(schedule, topo, report)
    if not is_custom_op_token(token):
        # the definition's fold order is unspecified for an operator
        # that is not commutative and associative
        definition = _probe_operator(resolve_op_token(token), token, report) and (
            definition
        )
        report.checks_run.append("reduce-operator")
    if definition:
        plan = _lowered_plan(_lower(schedule, topo), report)
        if plan is not None:
            _check_execution(schedule, topo, plan, report, definition=True)
    if probe_named_ops:
        for name, fn in sorted(OPS.items()):
            if name != token:
                _probe_operator(fn, name, report)
        report.checks_run.append("reduce-operator-table")
    return report


# ----------------------------------------------------------------------
# paper-stencil conformance sweep (CLI + CI)
# ----------------------------------------------------------------------
def paper_stencil_grid() -> list[tuple[str, tuple[int, ...]]]:
    """(stencil name, dims) pairs covering the paper's Table 1/2 shapes
    on small fully periodic tori."""
    return [
        ("5-point", (4, 4)),
        ("5-point", (3, 5)),
        ("9-point", (4, 4)),
        ("13-point", (5, 5, 5)),
        ("7-point", (3, 3, 3)),
        ("7-point", (4, 3, 3)),
        ("27-point", (3, 3, 3)),
        ("125-point", (5, 5, 5)),
    ]


#: the sweep covers every kind the builder table can produce
SWEEP_KINDS = tuple(SCHEDULE_BUILDERS)


def build_for_kind(
    kind: str, nbh: Neighborhood, block_bytes: int = 4
) -> Schedule:
    """Build one schedule of the named shape with the standard uniform
    buffer layout (used by the sweep and the conformance tests)."""
    from repro.core.alltoall_schedule import build_trivial_alltoall_blocksets
    from repro.core.schedule import uniform_block_layout

    builder = SCHEDULE_BUILDERS[kind]
    if kind in REDUCE_KINDS:
        # int64 keeps the content checks exact under every named operator
        m = ((int(block_bytes) + 7) // 8) * 8
        return builder(nbh, m_bytes=m, dtype="int64", op="sum")
    if kind in ALLGATHER_KINDS:
        send_block = BlockSet([BlockRef("send", 0, block_bytes)])
        recv_blocks = uniform_block_layout([block_bytes] * nbh.t, "recv")
        return builder(nbh, send_block, recv_blocks)
    sizes = [block_bytes * (1 + i % 3) for i in range(nbh.t)]
    send_blocks, recv_blocks = build_trivial_alltoall_blocksets(sizes)
    return builder(nbh, send_blocks, recv_blocks)


class SweepRow(NamedTuple):
    """One (stencil, kind) cell of the sweep, with what it cost."""

    stencil: str
    kind: str
    dims: tuple[int, ...]
    report: VerificationReport
    build_seconds: float
    certify_seconds: float


def sweep_stencils(
    kinds: Sequence[str] = SWEEP_KINDS,
    *,
    block_bytes: int = 4,
    inherit: Optional[CertificateStore] = None,
) -> list[SweepRow]:
    """Build and verify every sweep kind for every paper stencil, timing
    the two layers apart (certification sits on every cold path), through
    the store to ``inherit`` from if one is given."""
    from repro.core.stencils import named_stencil

    results = []
    for name, dims in paper_stencil_grid():
        nbh = named_stencil(name)
        if nbh.d != len(dims):
            continue
        nbh.validate_for_dims(dims)
        for kind in kinds:
            t0 = time.perf_counter()
            schedule = build_for_kind(kind, nbh, block_bytes)
            t1 = time.perf_counter()
            topo, report = _open_report(schedule, dims, True)
            _run_stages(schedule, topo, report, inherit)
            t2 = time.perf_counter()
            results.append(SweepRow(name, kind, dims, report, t1 - t0, t2 - t1))
    return results
