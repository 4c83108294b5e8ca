"""Certificates of a schedule's shape and of its lowered plans,
inherited across block sizes.

Proposition 3.1 makes a schedule a function of the neighbourhood alone:
builds that differ only in the block size ``m`` are one schedule, and one
lowering, with every byte extent multiplied by one factor — up to what
the lowering and the executors decide from absolute sizes.  The key of a
certificate names what the verifier's stages read: the schedule's
**normal form** (:func:`normal_form`: extents in *granules*, the gcd of
them all), the topology and the **plan shape** (:func:`plan_digest`:
those decisions, and a hash of the peer vectors and row masks).  Its
entry holds the shape stage's clean verdict and the **plan digests** of
the instances whose instance stage then ran clean: an instance whose
digest is on file inherits the whole report, one whose shape alone is
runs the instance stage.  A byte of difference is another key, so a
certificate cannot go stale and the store needs only an LRU bound.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import threading
from collections import OrderedDict
from functools import lru_cache
from numbers import Integral
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Optional

import numpy as np

from repro.analyze.report import Certificate
from repro.core.neighborhood import Neighborhood
from repro.core.reduce_schedule import is_custom_op_token
from repro.core.schedule import Schedule
from repro.mpisim.datatypes import BlockRef, BlockSet

if TYPE_CHECKING:
    from repro.core.plan import BatchedPlan

#: dataclass fields of the schedule model the normal form leaves out,
#: each with why the verifier's verdict cannot depend on it; every other
#: field (a future one included) is encoded
DERIVED_FIELDS = {
    "Schedule._copy_runs": "memo of prepare(), a function of local_copies",
    "Schedule._totals": "memo of prepare(), sums over rounds and local_copies",
    "Schedule._plans": "cache of lowerings, filled by repro.core.plan",
    "Schedule._plans_generation": "invalidation counter of that cache",
}


class NormalForm(NamedTuple):
    """A schedule up to its block size."""

    #: gcd of every byte offset and length the schedule names
    granule: int
    #: SHA-256 of the canonical encoding with extents in granules
    digest: str


@lru_cache(maxsize=None)
def _encoded_fields(model: type) -> Optional[tuple[str, ...]]:
    """The dataclass fields of one class of the schedule model that
    enter the encoding — every one not in :data:`DERIVED_FIELDS` —
    listed once per class (``None``: not a class of the model)."""
    if not dataclasses.is_dataclass(model):
        return None
    return tuple(
        field.name
        for field in dataclasses.fields(model)
        if f"{model.__name__}.{field.name}" not in DERIVED_FIELDS
    )


def _encode(obj: object, extents: list[int]) -> object:
    """JSON-able canonical form of one piece of the schedule model: a
    block is its buffer's name, its offset and length (the declared
    scratch: a block of no buffer) go to ``extents``.  Nothing with an
    identity enters it, and a type it does not know is an error."""
    if isinstance(obj, BlockSet):  # most of a schedule: no call per block
        extents += [n for ref in obj.blocks for n in (ref.offset, ref.nbytes)]
        return [ref.buffer for ref in obj.blocks]
    if isinstance(obj, (list, tuple)):
        if all(type(item) is int for item in obj):
            return obj  # an offset
        return [_encode(item, extents) for item in obj]
    if isinstance(obj, BlockRef):
        extents += (obj.offset, obj.nbytes)
        return obj.buffer
    if obj is None or isinstance(obj, (str, int)):
        return obj
    fields = _encoded_fields(type(obj))
    if fields is not None:
        out: list[object] = [type(obj).__name__]
        for name in fields:
            value = getattr(obj, name)
            if type(obj) is Schedule and name == "temp_nbytes":
                value = BlockRef("", 0, value)
            scalar = value is None or isinstance(value, (str, int))
            out.append(value if scalar else _encode(value, extents))
        return out
    if isinstance(obj, Neighborhood):
        return obj.offsets.tolist()
    if isinstance(obj, Integral):  # a NumPy integer in an offset
        return int(obj)
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def normal_form(schedule: Schedule) -> Optional[NormalForm]:
    """The granule and digest of ``schedule``, or ``None`` when it is
    *not quotientable*: it names no byte at all (no granule), it is a
    reduction whose granule is not a whole number of combine elements
    (element alignment would differ between instances), or its operator
    is a process-local callable (a token is not content)."""
    token = schedule.combine_op
    if token is not None and (
        schedule.combine_dtype is None or is_custom_op_token(token)
    ):
        return None
    extents: list[int] = []
    shape = _encode(schedule, extents)
    values = np.array(extents, dtype=np.int64)
    granule = int(np.gcd.reduce(values))
    itemsize = 1 if token is None else np.dtype(schedule.combine_dtype).itemsize
    if granule == 0 or granule % itemsize:
        return None
    digest = hashlib.sha256(json.dumps(shape, separators=(",", ":")).encode())
    digest.update((values // granule).tobytes())
    return NormalForm(granule, digest.hexdigest())


def plan_digest(
    plan: "BatchedPlan", granule: int
) -> tuple[tuple[object, ...], Optional[str]]:
    """``(shape, digest)`` of ``plan``, read once at ``granule``.  The
    shape is what was decided from absolute sizes — per selector op its
    forms and word class ``gcd(8, lane)``, slice loops
    (``INDEX_RUN_LIMIT``), the delivery form, the copies' fusion, whether
    fused maps exist and whether they or planes run (``plan.staging``)
    — and a hash of what the shape stage reads (peer vectors, row masks,
    maps and planes already lowered).  The digest hashes what the
    instance stage reads, selectors as bytes, extents and lanes in
    granules (``None`` where one is not whole granules)."""
    peers, kernels = hashlib.sha256(), hashlib.sha256()
    peer_words: list[object] = [plan.p]
    words: list[object] = [*plan.sizes, *plan.hazards]
    extents: list[int] = list(plan.sizes.values())
    decisions: list[object] = [plan.delivery, plan.matrix_error is None]

    def array(vec: Optional[np.ndarray]) -> None:
        peer_words.append(None if vec is None else (vec.dtype.str, vec.size))
        peers.update(b"" if vec is None else vec.tobytes())

    def selector(sel: Any) -> str:
        if type(sel) is slice:
            words.extend((sel.start, sel.stop))
            return "slice"
        words.extend((sel.dtype.str, sel.size))
        kernels.update(sel.tobytes())
        return "index"

    def program(prog: Any) -> None:
        if prog is None:
            decisions.append(None)
            return
        ops: list[object] = []
        for *names, a, b, lane in prog._sel_ops:
            words.extend(names)
            ops.append((selector(a), selector(b), math.gcd(8, lane)))
            extents.append(lane)
        for *names, a, b, n in prog._run_ops:
            words.extend(names)
            ops.append("run")
            extents.extend((a, b, n))
        decisions.append(tuple(ops))
        extents.append(prog.nbytes if hasattr(prog, "nbytes") else prog.total_nbytes)

    for phase in plan.phases:
        peer_words.append(len(phase))
        for rnd in phase:
            for vec in (rnd.sources, rnd.targets, rnd.recv_rows, rnd.recv_sources):
                array(vec)
            peer_words.append(rnd.senders)
            program(rnd.send)
            program(rnd.recv)
    decisions.append(plan.copy_program.fused)
    program(plan.copy_program)
    for prog in (prog for row in plan.deliveries or () for prog in row):
        program(prog)
    for combine in (plan.pre_program, *plan.combine_programs):
        peer_words.append(combine is not None)
        for sbuf, soff, dbuf, doff, n, *rows in combine.steps if combine else ():
            words.extend((sbuf, dbuf))
            extents.extend((soff, doff, n))
            for vec in rows:
                array(vec)
    lane, maps = plan.fused_lane, plan.fused_if_lowered
    decisions.extend((lane and math.gcd(8, lane), plan.staging.split(":")[0]))
    words.append(lane and (lane // math.gcd(lane, granule), granule // math.gcd(lane, granule)))
    planes = plan.planes_if_lowered
    peer_words.extend((maps and maps.dtype.str, planes and repr(planes[2:4])))
    for vec in (plan.reduce_missing, *(v for step in (maps.steps if maps else ()) for v in step)):
        array(vec)
    peers.update(json.dumps(peer_words, default=int).encode())
    shape = (tuple(decisions), peers.hexdigest())
    values = np.array(extents, dtype=np.int64)
    if (values % granule).any():
        return shape, None
    kernels.update(json.dumps(words, default=int).encode())
    kernels.update((values // granule).tobytes())
    kernels.update(shape[1].encode())
    return shape, kernels.hexdigest()


#: the stages a certification's seconds are booked under
STAGES = ("lowering", "kernels", "effects", "shape")


class StageSeconds(float):
    """The verifier's seconds on one path: as a number their total, by
    attribute what each stage took of it."""

    #: the one lowering, an in-place plan's round programs included
    lowering: float
    #: reading the plan's ops and the kernel conformance checks
    #: (V501/V503/V504)
    kernels: float
    #: the byte-level effect pass
    effects: float
    #: the shape stage where it ran, and a store's look-up (normal form, plan digest)
    shape: float

    def __new__(cls, stages: Mapping[str, float]) -> "StageSeconds":
        self = super().__new__(cls, sum(stages[name] for name in STAGES))
        for name in STAGES:
            setattr(self, name, stages[name])
        return self

    def by_stage(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STAGES}


#: a certification through a store runs both stages, or inherits one or both
PATHS = ("full", "shape", "plan")


class Inherited(int):
    """Inherited certifications: as a number both paths, by attribute
    each one's count and seconds (``shape``: the instance stage ran,
    ``plan``: the whole report was inherited)."""

    shape: int
    plan: int
    shape_seconds: StageSeconds
    plan_seconds: StageSeconds


class CertificateInfo(NamedTuple):
    """Counters of a :class:`CertificateStore`."""

    #: certifications that ran both stages
    full: int
    #: certifications that inherited, split by path
    inherited: Inherited
    #: how many of ``full`` had no normal form (and so filed nothing)
    not_quotientable: int
    #: shapes on file
    entries: int
    #: the verifier's seconds on the full path and on both inherited
    #: ones, split by stage
    full_seconds: StageSeconds
    inherited_seconds: StageSeconds


class CertificateStore:
    """Thread-safe, LRU-bounded map from ``(digest, dims, periods, plan
    shape)`` to the :class:`~repro.analyze.report.Certificate` of a
    clean full certification, and from plan digests to theirs.  The first
    certificate filed is kept."""

    def __init__(self, maxsize: int = 4096) -> None:
        self._lock = threading.Lock()
        self._maxsize = maxsize
        self._entries: OrderedDict[
            tuple[object, ...], tuple[Certificate, dict[str, Certificate]]
        ] = OrderedDict()
        self.clear()

    def lookup(
        self, key: tuple[object, ...], plan: Optional[str]
    ) -> tuple[Optional[Certificate], Optional[Certificate]]:
        """The certificates of the shape and of ``plan`` (or ``None``)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None, None
            self._entries.move_to_end(key)
            return entry[0], None if plan is None else entry[1].get(plan)

    def file(
        self, key: tuple[object, ...], plan: Optional[str], cert: Certificate, *, shape: bool
    ) -> None:
        """File a clean certification under ``key``, for ``plan`` and —
        where it ran the shape stage (``shape``) — for the shape."""
        with self._lock:
            if key not in self._entries and not shape:
                return  # its witness was evicted meanwhile
            plans = self._entries.setdefault(key, (cert, {}))[1]
            if plan is not None:
                plans.setdefault(plan, cert)
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def account(
        self, seconds: Mapping[str, float], *, path: str, quotientable: bool
    ) -> None:
        """Book one finished certification (clean or not) on its path
        (:data:`PATHS`) with its seconds by stage (:data:`STAGES`)."""
        with self._lock:
            self._counts[path] += 1
            self._not_quotientable += not quotientable
            for stage in STAGES:
                self._seconds[path][stage] += seconds[stage]

    def info(self) -> CertificateInfo:
        with self._lock:
            counts, seconds = self._counts, self._seconds
            inherited = Inherited(counts["shape"] + counts["plan"])
            inherited.shape, inherited.plan = counts["shape"], counts["plan"]
            inherited.shape_seconds = StageSeconds(seconds["shape"])
            inherited.plan_seconds = StageSeconds(seconds["plan"])
            both = {s: seconds["shape"][s] + seconds["plan"][s] for s in STAGES}
            return CertificateInfo(
                counts["full"], inherited, self._not_quotientable,
                len(self._entries), StageSeconds(seconds["full"]), StageSeconds(both),
            )

    def clear(self) -> None:
        """Drop every certificate and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._counts = dict.fromkeys(PATHS, 0)
            self._not_quotientable = 0
            #: path -> stage -> seconds
            self._seconds = {path: dict.fromkeys(STAGES, 0.0) for path in PATHS}


#: The process-wide store ``verify_on_build`` certifies through.
GLOBAL_STORE = CertificateStore()
