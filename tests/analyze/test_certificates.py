"""Certificates inherited across block sizes: the soundness suite.

One rule is under test — *what the block size can change is re-checked
at that block size; what it cannot is inherited* — from both sides:

* the premise: the full verifier's verdict really is a function of the
  schedule's shape (the differential matrix, the mutants at two block
  sizes);
* the machinery: the normal form is invariant under scaling and
  sensitive to everything else, covers every field of the schedule
  model, and the store inherits only across what it keys on;
* the consequence: nothing hides behind a certificate — a broken
  schedule or a broken lowering presented at a new size is still killed
  with its code.
"""

from __future__ import annotations

import copy
import dataclasses
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analyze import effects, schedule_verifier
from repro.analyze.certificates import (
    DERIVED_FIELDS,
    CertificateStore,
    normal_form,
    plan_digest,
)
from repro.analyze.report import ScheduleValidationError
from repro.analyze.schedule_verifier import (
    ALLTOALL_KINDS,
    SWEEP_KINDS,
    build_for_kind,
    certify_schedule,
    verify_schedule,
)
from repro.core import plan as plan_mod
from repro.core.alltoall_schedule import build_trivial_alltoall_blocksets
from repro.core.builders import SCHEDULE_BUILDERS
from repro.core.neighborhood import Neighborhood
from repro.core.schedule import (
    LocalCombine,
    LocalCopy,
    Phase,
    Round,
    Schedule,
)
from repro.core.stencils import moore_neighborhood, named_stencil
from repro.mpisim.datatypes import BlockRef, BlockSet
from tests.analyze.mutants import SCHEDULE_MUTANTS, _replace_round

NBH9 = named_stencil("9-point")
TORUS = (4, 4)


def moore(d: int) -> Neighborhood:
    return moore_neighborhood(d, 1, include_self=False)


def verdict(report):
    return report.ok, tuple(sorted(report.codes())), tuple(report.checks_run)


def one_verdict(build, dims, periods, sizes):
    """The verdict every size in ``sizes`` must share."""
    verdicts = {m: verdict(verify_schedule(build(m), dims, periods)) for m in sizes}
    assert len(set(verdicts.values())) == 1, verdicts
    return next(iter(verdicts.values()))


# ----------------------------------------------------------------------
# (a) the premise: the full verdict does not depend on the block size
# ----------------------------------------------------------------------
class TestVerdictIsAFunctionOfShape:
    @pytest.mark.parametrize("mesh", [False, True], ids=["torus", "mesh"])
    @pytest.mark.parametrize("dims", [(4, 4), (3, 3, 3), (2, 4), (1, 5)])
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_sweep_cell(self, kind, dims, mesh):
        # mixed-period mesh: the first dimension has edges
        periods = tuple(not (mesh and k == 0) for k in range(len(dims)))
        nbh = moore(len(dims))
        ok, codes, _ = one_verdict(
            lambda m: build_for_kind(kind, nbh, m), dims, periods, (8, 24, 1000)
        )
        if not mesh:
            assert ok, codes

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_extent_two_where_both_directions_meet_one_peer(self, kind, dims):
        ok, codes, _ = one_verdict(
            lambda m: build_for_kind(kind, moore(2), m), dims, True, (3, 5, 8, 24)
        )
        assert ok, codes

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_zero_and_duplicate_offsets(self, kind):
        nbh = Neighborhood([(0, 0), (1, 0), (1, 0), (0, -1), (-1, 1)])
        ok, codes, _ = one_verdict(
            lambda m: build_for_kind(kind, nbh, m), (3, 4), True, (3, 5, 8, 24)
        )
        assert ok, codes

    @pytest.mark.parametrize("kind", sorted(ALLTOALL_KINDS))
    def test_non_uniform_blocks_with_empty_ones(self, kind):
        def build(m):
            sizes = [m * (0, 3, 1, 7, 2)[i % 5] for i in range(NBH9.t)]
            return SCHEDULE_BUILDERS[kind](
                NBH9, *build_trivial_alltoall_blocksets(sizes)
            )

        ok, codes, _ = one_verdict(build, TORUS, True, (3, 5, 8, 24, 1000))
        assert ok, codes

    @pytest.mark.parametrize("name", ["orphan", "deadlock", "alias"])
    def test_hand_broken_schedules_fail_alike(self, name):
        ok, codes, _ = one_verdict(
            lambda m: hand_built(name, m, broken=True),
            TORUS, True, (3, 8, 24, 1000),
        )
        assert not ok and BROKEN[name][0] in codes


def _orphan(sched):
    sched.phases[0].rounds[0].recv_offset = (2, 2)


def _deadlock(sched):
    phase = next(ph for ph in sched.phases if len(ph.rounds) >= 2)
    a, b = phase.rounds[0], phase.rounds[1]
    a.recv_offset, b.recv_offset = b.offset, a.offset


def _alias(sched):
    blocks = sched.phases[0].rounds[0].recv_blocks
    blocks.append(dataclasses.replace(blocks.blocks[0]))


#: the hand-broken schedules of test_schedule_verifier.py, at any size:
#: name -> (expected code, kind, stencil, corruption of the clean build)
BROKEN = {
    "orphan": ("V101", "trivial-alltoall", "5-point", _orphan),
    "deadlock": ("V201", "alltoall", "9-point", _deadlock),
    "alias": ("V701", "direct-alltoall", "5-point", _alias),
}


def hand_built(name, m, *, broken):
    _, kind, stencil, corrupt = BROKEN[name]
    sched = build_for_kind(kind, named_stencil(stencil), m)
    if broken:
        corrupt(sched)
    return sched


# ----------------------------------------------------------------------
# (d), (e) the normal form
# ----------------------------------------------------------------------
def scale(schedule: Schedule, k) -> Schedule:
    """``schedule`` with every byte extent multiplied by ``k`` (an int,
    or a Fraction that leaves them whole)."""

    def visit(obj):
        if isinstance(obj, BlockRef):
            return BlockRef(obj.buffer, int(obj.offset * k), int(obj.nbytes * k))
        if isinstance(obj, BlockSet):
            return BlockSet([visit(ref) for ref in obj])
        if isinstance(obj, (list, tuple)):
            return type(obj)(visit(item) for item in obj)
        if dataclasses.is_dataclass(obj):
            return dataclasses.replace(
                obj,
                **{
                    f.name: visit(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)
                    if f"{type(obj).__name__}.{f.name}" not in DERIVED_FIELDS
                },
            )
        return obj

    scaled = visit(schedule)
    scaled.temp_nbytes = int(schedule.temp_nbytes * k)
    return scaled


def block_refs(obj):
    """Every ``(holder, slot)`` from which a BlockRef of the schedule can
    be read and replaced, in a fixed order."""
    if isinstance(obj, BlockSet):
        obj = obj.blocks
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            if isinstance(item, BlockRef):
                yield obj, i
            else:
                yield from block_refs(item)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, BlockRef):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, BlockRef):
                yield obj, f.name
            elif f"{type(obj).__name__}.{f.name}" not in DERIVED_FIELDS:
                yield from block_refs(value)


def get_slot(holder, slot):
    return holder[slot] if isinstance(holder, list) else getattr(holder, slot)


def set_slot(holder, slot, value):
    if isinstance(holder, list):
        holder[slot] = value
    else:
        setattr(holder, slot, value)


schedules = st.builds(
    build_for_kind,
    st.sampled_from(SWEEP_KINDS),
    st.sampled_from([NBH9, named_stencil("5-point"), moore(3)]),
    st.integers(1, 40),
)


class TestNormalForm:
    @given(schedules, st.integers(1, 64))
    def test_invariant_under_scaling(self, schedule, k):
        form, scaled = normal_form(schedule), normal_form(scale(schedule, k))
        assert scaled.digest == form.digest
        assert scaled.granule == k * form.granule

    @given(schedules, st.integers(0, 10_000), st.booleans())
    def test_one_granule_anywhere_changes_the_digest(
        self, schedule, pick, lengthen
    ):
        form = normal_form(schedule)
        slots = list(block_refs(schedule))
        holder, slot = slots[pick % len(slots)]
        ref = get_slot(holder, slot)
        set_slot(
            holder,
            slot,
            BlockRef(
                ref.buffer,
                ref.offset + (0 if lengthen else form.granule),
                ref.nbytes + (form.granule if lengthen else 0),
            ),
        )
        assert normal_form(schedule).digest != form.digest

    def test_granule_is_the_gcd_of_what_the_schedule_names(self):
        assert normal_form(build_for_kind("allgather", NBH9, 24)).granule == 24
        # blocks of m, 2m, 3m
        assert normal_form(build_for_kind("alltoall", NBH9, 10)).granule == 10
        # the declared scratch counts
        sched = build_for_kind("alltoall", NBH9, 10)
        sched.temp_nbytes += 5
        assert normal_form(sched).granule == 5

    def test_builds_of_one_shape_share_a_digest_and_others_do_not(self):
        digests = {
            (kind, m): normal_form(build_for_kind(kind, NBH9, m)).digest
            for kind in SWEEP_KINDS
            for m in (8, 24)
        }
        for kind in SWEEP_KINDS:
            assert digests[kind, 8] == digests[kind, 24]
        assert len(set(digests.values())) == len(SWEEP_KINDS)

    # -- (d) no field of the schedule model escapes ---------------------
    #: one edit per encoded field; a field is in the normal form iff its
    #: edit changes the digest
    EDITS = {
        "Schedule.kind": lambda s: setattr(s, "kind", "allgather"),
        "Schedule.neighborhood": lambda s: setattr(
            s, "neighborhood", Neighborhood(-s.neighborhood.offsets)
        ),
        "Schedule.phases": lambda s: s.phases.append(Phase(dim=None)),
        "Schedule.local_copies": lambda s: s.local_copies.append(
            copy.copy(s.local_copies[0])
        ),
        "Schedule.temp_nbytes": lambda s: setattr(
            s, "temp_nbytes", 2 * s.temp_nbytes
        ),
        "Schedule.buffer_names": lambda s: setattr(
            s, "buffer_names", ("send", "recv")
        ),
        "Schedule.send_layout": lambda s: setattr(s, "send_layout", None),
        "Schedule.recv_layout": lambda s: s.recv_layout.append(s.recv_layout[0]),
        "Schedule.combine_op": lambda s: setattr(s, "combine_op", "max"),
        "Schedule.combine_dtype": lambda s: setattr(s, "combine_dtype", "uint64"),
        "Schedule.pre_steps": lambda s: s.pre_steps.pop(),
        "Schedule.required_outputs": lambda s: setattr(s, "required_outputs", ()),
        "Phase.dim": lambda s: setattr(s.phases[0], "dim", 1 - s.phases[0].dim),
        "Phase.rounds": lambda s: s.phases[0].rounds.reverse(),
        "Phase.combine_steps": lambda s: s.phases[0].combine_steps.pop(),
        "Round.offset": lambda s: setattr(s.phases[0].rounds[0], "offset", (2, 2)),
        "Round.send_blocks": lambda s: s.phases[0].rounds[0].send_blocks.blocks.pop(),
        "Round.recv_blocks": lambda s: s.phases[0].rounds[0].recv_blocks.blocks.pop(),
        "Round.logical_blocks": lambda s: setattr(
            s.phases[0].rounds[0], "logical_blocks", 99
        ),
        "Round.recv_offset": lambda s: setattr(
            s.phases[0].rounds[0], "recv_offset", (2, 2)
        ),
        "LocalCombine.src": lambda s: setattr(
            s.pre_steps[0], "src", s.pre_steps[0].dst
        ),
        "LocalCombine.dst": lambda s: setattr(
            s.pre_steps[0], "dst", s.pre_steps[0].src
        ),
        "LocalCombine.when_round": lambda s: setattr(
            s.phases[0].combine_steps[0], "when_round", 1
        ),
        "LocalCopy.src": lambda s: setattr(
            s.local_copies[0], "src", s.local_copies[0].dst
        ),
        "LocalCopy.dst": lambda s: setattr(
            s.local_copies[0], "dst", s.local_copies[0].src
        ),
    }

    def test_every_field_is_encoded_or_ignored_with_a_reason(self):
        model = {
            f"{cls.__name__}.{f.name}"
            for cls in (Schedule, Phase, Round, LocalCombine, LocalCopy)
            for f in dataclasses.fields(cls)
        }
        assert set(self.EDITS) | set(DERIVED_FIELDS) == model
        assert not set(self.EDITS) & set(DERIVED_FIELDS)
        assert all(len(reason) > 10 for reason in DERIVED_FIELDS.values())

    @pytest.mark.parametrize("field", sorted(EDITS))
    def test_encoded_field_changes_the_digest(self, field):
        # a reduction has combine steps; local copies need a self offset
        if field.startswith(("LocalCopy", "Schedule.local")):
            sched = build_for_kind(
                "alltoall", moore_neighborhood(2, 1, include_self=True), 8
            )
        else:
            sched = build_for_kind("reduce", NBH9, 8)
        before = normal_form(sched).digest
        self.EDITS[field](sched)
        assert normal_form(sched).digest != before

    def test_ignored_fields_do_not(self):
        sched = build_for_kind("alltoall", NBH9, 8)
        before = normal_form(sched)
        sched.prepare()
        sizes = schedule_verifier._plan_sizes(sched)
        plan_mod.get_or_compile(
            sched,
            schedule_verifier.CartTopology(TORUS),
            {name: np.zeros(cap, np.uint8) for name, cap in sizes.items()},
        )
        sched._plans_generation += 1
        assert sched._copy_runs is not None and sched._plans
        assert normal_form(sched) == before
        sched.clear_plans()

    def test_what_is_not_quotientable(self):
        # no byte, no granule
        assert normal_form(build_for_kind("alltoall", NBH9, 0)) is None
        # a process-local operator is a token, not content
        custom = SCHEDULE_BUILDERS["reduce"](
            NBH9, m_bytes=8, dtype="int64", op=lambda a, b: a + b
        )
        assert normal_form(custom) is None
        # half an int64 per granule: alignment differs between sizes
        whole = build_for_kind("reduce", NBH9, 16)
        assert normal_form(whole).granule == 16
        assert normal_form(scale(whole, Fraction(1, 4))) is None

    def test_digest_is_a_hash_of_content_not_of_identity(self):
        a = normal_form(build_for_kind("allreduce", NBH9, 8))
        b = normal_form(copy.deepcopy(build_for_kind("allreduce", NBH9, 8)))
        assert a == b and len(a.digest) == 64 and int(a.digest, 16) >= 0


# ----------------------------------------------------------------------
# the store: what is inherited, what is filed, what is counted
# ----------------------------------------------------------------------
def certify(store, kind, m, nbh=NBH9, dims=TORUS):
    return certify_schedule(build_for_kind(kind, nbh, m), dims, True, inherit=store)


class TestInheritance:
    def test_second_size_inherits_and_says_so(self):
        store = CertificateStore()
        first = certify(store, "alltoall", 8)
        second = certify(store, "alltoall", 24)
        assert first.inherited_from is None
        assert first.checks_run == verify_schedule(
            build_for_kind("alltoall", NBH9, 8), TORUS
        ).checks_run
        # the same plan up to the factor: the whole report is inherited
        assert second.checks_run == ["inherited-plan"]
        assert second.plan.p == 16 and second.delivery.startswith("staged: 72 B")
        digest, granule, checks = second.inherited_from
        form = normal_form(build_for_kind("alltoall", NBH9, 24))
        assert form.digest.startswith(digest) and len(digest) == 12
        assert granule == 8 and checks == tuple(first.checks_run)
        assert f"plan {digest} certified at granule 8 B" in second.summary()
        info = store.info()
        assert info[:4] == (1, 1, 0, 1)  # full, inherited, not q., entries
        assert (info.inherited.shape, info.inherited.plan) == (0, 1)
        assert info.full_seconds > info.inherited_seconds > 0

    def test_without_a_store_nothing_is_inherited(self):
        report = certify_schedule(build_for_kind("alltoall", NBH9, 24), TORUS)
        assert report.inherited_from is None and "quantitative" in report.checks_run

    def test_instance_stage_runs_once_per_lowering(self, monkeypatch):
        calls = {"kernels": 0, "effects": 0, "matching": 0, "execution": 0}

        def counting(module, name, key):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(schedule_verifier, "_check_plan_kernels", "kernels")
        counting(effects, "run_effect_checks", "effects")
        counting(schedule_verifier, "_check_matching", "matching")
        counting(schedule_verifier, "_check_execution", "execution")
        store = CertificateStore()
        # on (3,3,3) the staged block pads 27 rows to 8 bytes, so the
        # fused maps of m = 12 and m = 20 move words of 4 B: one shape,
        # two plans
        paths = [
            certify(store, "allgather", m, moore(3), (3, 3, 3)).checks_run[0]
            for m in (8, 16, 24, 12, 20, 28)
        ]
        assert paths == [
            "quantitative", "inherited-plan", "inherited-plan",
            "quantitative", "inherited-shape", "inherited-shape",
        ]
        info = store.info()
        assert calls["kernels"] == calls["effects"] == 4
        assert calls["kernels"] == info.full + info.inherited.shape
        assert calls["matching"] == calls["execution"] == info.full == 2
        assert info.inherited.plan == 2 and info.entries == 2

    def test_another_topology_is_another_certificate(self):
        store = CertificateStore()
        certify(store, "alltoall", 8)
        assert certify(store, "alltoall", 24, dims=(3, 5)).inherited_from is None
        assert store.info().entries == 2

    def test_block_lanes_of_one_word_class_inherit(self):
        """A lane is as wide as the blocks it moves, so every block size
        lowers to lanes of its own; the key records their word class,
        ``gcd(8, lane)``, and m = 24 and m = 256 inherit from m = 8."""
        store = CertificateStore()
        topo = schedule_verifier.CartTopology(TORUS)

        def lanes(m):
            plan = schedule_verifier._lower(build_for_kind("alltoall", NBH9, m), topo)
            return {
                lane
                for phase in plan.phases
                for rnd in phase
                for kernel in (rnd.send, rnd.recv)
                if kernel is not None
                for lane in kernel.lanes
            }

        assert (lanes(8), lanes(24), lanes(256)) == ({8, 24}, {24, 72}, {256, 768})
        assert certify(store, "alltoall", 8).inherited_from is None
        for m in (24, 256):
            assert certify(store, "alltoall", m).inherited_from.granule == 8
        assert store.info()[:2] == (1, 2)

    def test_another_lane_class_misses_and_is_fully_certified(self):
        store = CertificateStore()
        certify(store, "allgather", 8)
        odd_lane = certify(store, "allgather", 12)
        assert odd_lane.inherited_from is None
        assert "matrix-execution" in odd_lane.checks_run
        assert certify(store, "allgather", 20).inherited_from.granule == 12
        assert certify(store, "allgather", 32).inherited_from.granule == 8

    def test_other_side_of_the_index_run_limit_misses(self):
        store = CertificateStore()
        below, above = 64, plan_mod.INDEX_RUN_LIMIT * 2
        topo = schedule_verifier.CartTopology(TORUS)

        def signature(m):
            sched = build_for_kind("alltoall", NBH9, m)
            plan = schedule_verifier._lower(sched, topo)
            return plan_digest(plan, normal_form(sched).granule)[0]

        assert signature(8) == signature(below) != signature(above)
        certify(store, "alltoall", 8)
        assert certify(store, "alltoall", below).inherited_from is not None
        far = certify(store, "alltoall", above)
        assert far.inherited_from is None and "definition" in far.checks_run
        assert certify(store, "alltoall", above + 8).inherited_from.granule == above

    def test_no_certificate_crosses_the_staged_in_place_boundary(self):
        """One block per round: every kernel is a single slice at any
        size, so only the form the batched backend runs tells 8-byte
        blocks from 4 KiB ones — and the sentinel execution of the
        matrices says nothing about the in-place delivery."""
        store = CertificateStore()
        topo = schedule_verifier.CartTopology(TORUS)

        def lowered(m):
            sched = build_for_kind("trivial-alltoall", NBH9, m)
            return schedule_verifier._lower(sched, topo)

        def kernels(plan):
            return [
                (type(op[1]), type(op[2]))
                for phase in plan.phases
                for rnd in phase
                for kernel in (rnd.send, rnd.recv)
                for op in (*kernel._sel_ops, *kernel._run_ops)
            ]

        small, large = lowered(8), lowered(4096)
        assert (small.delivery, large.delivery) == ("staged", "in-place")
        assert kernels(small) == kernels(large) == [(slice, slice)] * len(
            kernels(small)
        )
        assert plan_digest(small, 8)[0] != plan_digest(large, 4096)[0]
        near = certify(store, "trivial-alltoall", 8)
        assert "plan staged: 15 B per copy ≤ 2048" in near.summary()
        far = certify(store, "trivial-alltoall", 4096)
        assert far.inherited_from is None and "matrix-execution" in far.checks_run
        assert far.delivery == "in-place: 7680 B per copy > 2048"
        assert "plan in-place: 7680 B per copy > 2048" in far.summary()
        again = certify(store, "trivial-alltoall", 4104)
        assert again.inherited_from.granule == 4096

    def test_no_certificate_crosses_a_word_class_in_place(self):
        """In place, with no fused maps: 4096 B and 4100 B blocks lower to
        the same plan in granules, and only the word class of their lanes
        (8 and 4) tells them apart."""
        store = CertificateStore()
        certify(store, "trivial-alltoall", 4096)
        other = certify(store, "trivial-alltoall", 4100)
        assert other.inherited_from is None and "matrix-execution" in other.checks_run
        assert other.delivery.startswith("in-place")
        assert certify(store, "trivial-alltoall", 4104).inherited_from.granule == 4096

    def test_no_certificate_crosses_the_fused_unfused_boundary(self):
        """The 9-point allgather at m = 3 keeps its rounds' kernels (its
        maps would hold 16/3 index bytes per byte); at m = 5 it runs
        fused maps, which only the full certification's sentinel
        execution runs against the walk ("fused execution", V506)."""
        store = CertificateStore()
        topo = schedule_verifier.CartTopology(TORUS)
        plans = {
            m: schedule_verifier._lower(build_for_kind("allgather", NBH9, m), topo)
            for m in (3, 5)
        }
        assert plans[3].fused is None and plans[5].fused is not None
        assert plans[3].delivery == plans[5].delivery == "staged"
        certify(store, "allgather", 3)
        fused = certify(store, "allgather", 5)
        assert fused.inherited_from is None
        assert "matrix-execution" in fused.checks_run
        assert certify(store, "allgather", 7).inherited_from.granule == 5

    def test_no_certificate_crosses_the_fused_planes_choice(self):
        """On a (16, 16) torus the 9-point alltoall runs fused maps at
        m = 8 and planes at m = 64: one normal form, one word class, but
        the choice is part of the plan's shape, so the planes' size is
        certified in full (its sentinel execution runs them, V506) and
        only a size that also runs planes inherits that."""
        store = CertificateStore()
        fused = certify(store, "alltoall", 8, dims=(16, 16))
        planes = certify(store, "alltoall", 64, dims=(16, 16))
        assert "; fused:" in fused.delivery and "; planes:" in planes.delivery
        assert planes.inherited_from is None and "matrix-execution" in planes.checks_run
        assert certify(store, "alltoall", 128, dims=(16, 16)).inherited_from.granule == 64

    def test_sentinel_execution_runs_an_in_place_plan_a_third_way(
        self, monkeypatch
    ):
        """A ``deliver`` that drops a round's last launch: every kernel
        and round program is still right (V503 is silent), only running
        the plan in place shows it — as V506, at the size where the
        plan is in-place and not below."""
        real = plan_mod._run_pairs

        def lossy(program, views, receivers, senders):
            real(program, views, list(receivers)[:-1], list(senders)[:-1])

        monkeypatch.setattr(plan_mod, "_run_pairs", lossy)
        small = verify_schedule(build_for_kind("alltoall", NBH9, 8), TORUS)
        assert small.ok and small.delivery.startswith("staged")
        large = verify_schedule(build_for_kind("alltoall", NBH9, 4096), TORUS)
        assert large.codes() == {"V506"}
        assert "in-place delivery leaves" in large.by_code("V506")[0].message
        monkeypatch.setattr(plan_mod, "_run_pairs", real)
        assert verify_schedule(build_for_kind("alltoall", NBH9, 4096), TORUS).ok

    def test_over_budget_first_sight_files_nothing(self, monkeypatch):
        store = CertificateStore()
        monkeypatch.setattr(schedule_verifier, "CONTENT_BUDGET", 1 << 11)
        big = certify(store, "alltoall", 1000)
        assert big.ok and {c for c, _ in big.skipped} == {"matrix-execution"}
        assert store.info().entries == 0
        # a witness small enough to simulate files; the large instance
        # then inherits checks it could not have run itself (both of
        # odd lanes with fused maps: lane 1 has none)
        small = certify(store, "alltoall", 3)
        assert not small.skipped and store.info().entries == 1
        over = certify(store, "alltoall", 5)
        assert over.inherited_from.granule == 3 and not over.skipped

    def test_not_quotientable_takes_the_full_path_and_files_nothing(self):
        store = CertificateStore()
        for _ in range(2):
            report = certify(store, "alltoall", 0)
            assert report.ok and "definition" in report.checks_run
        info = store.info()
        assert info[:4] == (2, 0, 2, 0)  # full, inherited, not q., entries

    def test_failed_certification_files_nothing(self):
        store = CertificateStore()
        with pytest.raises(ScheduleValidationError):
            certify_schedule(hand_built("orphan", 8, broken=True), TORUS, inherit=store)
        assert store.info().entries == 0 and store.info().full == 1

    def test_sixteen_threads_agree_and_leave_one_entry(self):
        store = CertificateStore()
        barrier = threading.Barrier(16)
        reports = [None] * 16

        def worker(i):
            barrier.wait(timeout=60)
            reports[i] = certify(store, "alltoall", 8 * (i + 1))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert all(r is not None and r.ok for r in reports)
        info = store.info()
        assert info.entries == 1 and info.full + info.inherited == 16
        assert info.full >= 1

    def test_store_is_lru_bounded(self):
        store = CertificateStore(maxsize=2)
        for kind in ("alltoall", "allgather", "direct-alltoall"):
            certify(store, kind, 8)
        assert store.info().entries == 2
        assert certify(store, "alltoall", 24).inherited_from is None  # evicted
        assert certify(store, "direct-alltoall", 24).inherited_from is not None
        store.clear()
        assert store.info() == (0, 0, 0, 0, 0.0, 0.0)


# ----------------------------------------------------------------------
# (c) nothing hides behind a certificate
# ----------------------------------------------------------------------
class TestNothingHidesBehindACertificate:
    @pytest.mark.parametrize("name", sorted(SCHEDULE_MUTANTS))
    def test_reduce_mutant_at_another_size_misses_and_is_killed(self, name):
        expect, corrupt = SCHEDULE_MUTANTS[name]
        store = CertificateStore()
        certify(store, "reduce", 8)
        mutant = build_for_kind("reduce", NBH9, 24)
        corrupt(mutant, schedule_verifier.CartTopology(TORUS))
        with pytest.raises(ScheduleValidationError) as caught:
            certify_schedule(mutant, TORUS, inherit=store)
        assert expect in caught.value.codes
        assert caught.value.report.inherited_from is None
        assert store.info().entries == 1

    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_hand_broken_schedule_at_another_size_misses_and_is_killed(self, name):
        store = CertificateStore()
        certify_schedule(hand_built(name, 8, broken=False), TORUS, inherit=store)
        with pytest.raises(ScheduleValidationError) as caught:
            certify_schedule(hand_built(name, 24, broken=True), TORUS, inherit=store)
        assert BROKEN[name][0] in caught.value.codes
        assert caught.value.report.inherited_from is None

    def test_misaligned_instance_of_a_certified_shape_is_refused(self):
        """Blocks of half an int64 have the digest of the clean witness —
        and no normal form, so they are judged in full."""
        store = CertificateStore()
        certify(store, "reduce", 16)
        half = scale(build_for_kind("reduce", NBH9, 16), Fraction(1, 4))
        with pytest.raises(ScheduleValidationError) as caught:
            certify_schedule(half, TORUS, inherit=store)
        assert "V802" in caught.value.codes
        assert store.info().not_quotientable == 1

    def test_shifted_selector_at_the_second_size_is_killed_on_the_inherit_path(
        self, monkeypatch
    ):
        plan_mod.plan_cache_reset()  # the second size is lowered, not scaled
        store = CertificateStore()
        certify(store, "alltoall", 8)
        real, seen = plan_mod.compile_blockset, []

        def shifting(runs, sizes):
            kernel = real(runs, sizes)
            seen.append(kernel)
            if len(seen) == 2:
                name, wire, buf, lane = kernel._sel_ops[0]
                if isinstance(buf, slice):
                    buf = slice(buf.start + 1, buf.stop + 1)
                else:
                    buf = buf + 1
                kernel._sel_ops = ((name, wire, buf, lane),) + kernel._sel_ops[1:]
            return kernel

        monkeypatch.setattr(plan_mod, "compile_blockset", shifting)
        with pytest.raises(ScheduleValidationError) as caught:
            certify(store, "alltoall", 24)
        report = caught.value.report
        assert report.inherited_from is not None
        assert report.checks_run == ["inherited-shape", "plan-lowering", "effects"]
        assert "V503" in report.codes()
        assert report.codes() & {"V701", "V702", "V703", "V708", "V709"}

    @pytest.fixture
    def corrupt_second_lowering(self, monkeypatch):
        """The verifier's lowering, corrupted by ``corrupt`` from the
        second call on (the first, the clean witness, goes through
        ``witness``)."""
        real, calls = schedule_verifier._lower, []

        def install(corrupt, witness=lambda plan: plan):
            def lowering(schedule, topo, *form):
                plan = real(schedule, topo, *form)
                calls.append(plan)
                return (corrupt if len(calls) > 1 else witness)(plan)

            monkeypatch.setattr(schedule_verifier, "_lower", lowering)

        return install

    def test_rolled_index_selector_misses_its_plan_and_is_killed(
        self, corrupt_second_lowering
    ):
        """The index array of one scatter, rolled by one word: every
        form, lane and extent is the witness's, only its bytes differ."""

        def roll(plan):
            rnd = plan.phases[1][0]
            (name, wire, buf, lane), *rest = rnd.recv._sel_ops
            assert isinstance(buf, np.ndarray)
            recv = copy.copy(rnd.recv)
            recv._sel_ops = ((name, wire, np.roll(buf, 1), lane), *rest)
            return _replace_round(plan, 1, 0, recv=recv)

        store = CertificateStore()
        corrupt_second_lowering(roll)
        certify(store, "alltoall", 8)
        with pytest.raises(ScheduleValidationError) as caught:
            certify(store, "alltoall", 24)
        assert caught.value.report.checks_run[0] == "inherited-shape"
        assert "V503" in caught.value.codes

    def test_maps_lowered_before_certification_are_judged_in_full(
        self, corrupt_second_lowering
    ):
        """A lowering that arrives with fused maps (here, two ranks'
        sources traded; the witness's, of the same size, arrived lowered
        too, and right) is another shape: only the full stage runs them."""

        def swap(plan):
            (dst, src), *rest = plan.fused.steps
            src = src.copy()
            src[[0, -1]] = src[[-1, 0]]
            plan._fused = plan.fused._replace(steps=((dst, src), *rest))
            return plan

        store = CertificateStore()
        corrupt_second_lowering(swap, witness=lambda plan: plan.fused and plan)
        certify(store, "alltoall", 8)
        with pytest.raises(ScheduleValidationError) as caught:
            certify(store, "alltoall", 8)
        assert caught.value.report.inherited_from is None
        assert caught.value.codes == {"V506"}

    def test_lane_that_does_not_divide_is_killed_on_the_inherit_path(self, monkeypatch):
        """A lowering that chose the witness's lane where this size does
        not allow it has the witness's kernel signature — and is refused
        by the instance stage."""
        plan_mod.plan_cache_reset()  # the second size is lowered, not scaled
        store = CertificateStore()
        certify(store, "allgather", 8)
        monkeypatch.setattr(plan_mod, "_lane_of", lambda *extents: 8)
        with pytest.raises(ScheduleValidationError) as caught:
            certify(store, "allgather", 12)
        assert caught.value.report.inherited_from is not None
        assert "V501" in caught.value.codes


# ----------------------------------------------------------------------
# satellites: zero-byte collectives, honest checks_run, the library view
# ----------------------------------------------------------------------
class TestZeroByteSchedules:
    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    def test_nothing_to_deliver_certifies_and_reductions_too(self, kind):
        """MPI semantics: a count-zero collective is a no-op, and
        reductions are no exception."""
        report = verify_schedule(build_for_kind(kind, NBH9, 0), (3, 3))
        assert report.ok, report.summary()
        if kind in schedule_verifier.REDUCE_KINDS:
            assert "reduce-content" in report.checks_run
        else:
            assert "definition" in report.checks_run

    @pytest.mark.parametrize("backend", ["threaded", "lockstep", "batched"])
    @pytest.mark.parametrize("algorithm", ["combining", "trivial"])
    def test_count_zero_collectives_run_verified(self, backend, algorithm):
        from repro.core.api import run_cartesian
        from repro.core.schedule_cache import cache_clear

        cache_clear()  # the verifier must see these builds

        def fn(cart):
            for op in (cart.alltoall, cart.allgather):
                send, recv = np.zeros(0, np.uint8), np.zeros(0, np.uint8)
                op(send, recv, algorithm=algorithm)
            send, recv = np.zeros(0, np.int64), np.zeros(0, np.int64)
            cart.reduce_neighbors(send, recv, op="sum", algorithm=algorithm)
            return True

        assert all(
            run_cartesian((3, 3), moore(2), fn, info={"backend": backend}, timeout=60)
        )


class TestSkippedChecksAreReported:
    def test_over_budget_checks_are_skipped_not_run(self, monkeypatch):
        sched = build_for_kind("alltoall", NBH9, 1000)
        full = verify_schedule(sched, TORUS)
        assert not full.skipped and "skipped" not in full.summary()
        monkeypatch.setattr(schedule_verifier, "CONTENT_BUDGET", 1 << 10)
        report = verify_schedule(sched, TORUS)
        assert report.ok
        assert [check for check, _ in report.skipped] == ["matrix-execution"]
        assert all("CONTENT_BUDGET" in reason for _, reason in report.skipped)
        assert report.checks_run == [
            c for c in full.checks_run if c not in ("definition", "matrix-execution")
        ]
        assert "skipped: matrix-execution" in report.summary()

    def test_a_check_that_does_not_apply_is_not_a_skip(self):
        hand_built = build_for_kind("alltoall", NBH9, 8)
        hand_built.send_layout = hand_built.recv_layout = None
        report = verify_schedule(hand_built, TORUS)
        assert "definition" not in report.checks_run and not report.skipped


def test_cartcomm_reports_what_the_verifier_did():
    """``verify_on_build`` (on for the suite) certifies through the
    process-wide store, and the library shows it."""
    from repro.core.api import run_cartesian
    from repro.core.cartcomm import CartComm
    from repro.core.schedule_cache import cache_clear

    cache_clear()
    before = CartComm.certificate_info()

    def fn(cart):
        for m in (56, 112, 168):
            send = np.zeros(cart.neighbor_count() * m, np.uint8)
            cart.alltoall(send, np.zeros_like(send), algorithm="trivial")
        return True

    assert all(run_cartesian(TORUS, moore(2), fn, timeout=60))
    after = CartComm.certificate_info()
    assert after.full + after.inherited - before.full - before.inherited == 3
    assert after.inherited - before.inherited >= 2
    assert after.full_seconds + after.inherited_seconds > (
        before.full_seconds + before.inherited_seconds
    )
