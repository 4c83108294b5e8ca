"""Certificates of a schedule's shape, inherited across block sizes.

Proposition 3.1 makes a schedule a function of the neighbourhood alone:
two builds that differ only in the block size ``m`` are the same phases
of the same rounds with every byte extent multiplied by one factor.
The verifier's *shape stage* (see
:func:`~repro.analyze.schedule_verifier.verify_schedule`) is invariant
under that factor, so its clean verdict is filed here once and inherited
by every later instance — under a key that names exactly what the stage
read:

* the **normal form** of the schedule (:func:`normal_form`): a digest of
  a canonical encoding of every field of the schedule model with every
  byte extent divided by the instance's *granule* (the gcd of all of
  them);
* the topology, ``(dims, periods)``;
* the **kernel signature** of the instance's lowered plan
  (:func:`kernel_signature`): the form (slice, index, slice loop) and
  lane of every selector op, and whether the plan delivers in place or
  staged — the decisions of the lowering that look at absolute sizes,
  so the sentinel execution, and with it the comparison with the
  collective's definition, is inherited only from a witness whose
  kernels were built, and run, the same way.

What the block size *can* change is never inherited: the instance stage
(lowering, kernels against block sets, the effect pass) runs on every
instance.  The key is content-addressed — a schedule that differs in
anything the verifier reads has another digest — so a certificate cannot
go stale and the store needs no invalidation, only an LRU bound.
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

from repro.analyze.intervals import PlanEffects
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
def _encoded_fields(model: type) -> tuple[str, ...]:
    """The dataclass fields of one class of the schedule model that
    enter the encoding — every one not in :data:`DERIVED_FIELDS` —
    listed once per class, not once per node."""
    return tuple(
        field.name
        for field in dataclasses.fields(model)
        if f"{model.__name__}.{field.name}" not in DERIVED_FIELDS
    )


def _encode(obj: object, extents: list[list[Any]]) -> object:
    """JSON-able canonical form of one piece of the schedule model.
    Every byte extent — a block's ``[buffer, offset, nbytes]``, the
    declared scratch as a block of no buffer — is also listed in
    ``extents``, still in bytes, for :func:`normal_form` to divide in
    place once it knows the granule.  Nothing with an identity (no
    ``repr``, no ``hash``) enters the encoding, and a type it does not
    know is an error, not a guess."""
    if isinstance(obj, BlockRef):
        extents.append([obj.buffer, obj.offset, obj.nbytes])
        return extents[-1]
    if isinstance(obj, BlockSet):  # most of a schedule: no call per block
        blocks = [[ref.buffer, ref.offset, ref.nbytes] for ref in obj]
        extents.extend(blocks)
        return blocks
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_encode(item, extents) for item in obj]
    if isinstance(obj, Neighborhood):
        return obj.offsets.tolist()
    if isinstance(obj, Integral):  # a NumPy integer in an offset
        return int(obj)
    if dataclasses.is_dataclass(obj):
        model = type(obj)
        out: list[object] = [model.__name__]
        for name in _encoded_fields(model):
            value = getattr(obj, name)
            if model is Schedule and name == "temp_nbytes":
                value = BlockRef("", 0, value)
            out.append(_encode(value, extents))
        return out
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
    extents: list[list[Any]] = []
    shape = _encode(schedule, extents)
    granule = math.gcd(
        *(n for _, offset, nbytes in extents for n in (offset, nbytes))
    )
    itemsize = 1 if token is None else np.dtype(schedule.combine_dtype).itemsize
    if granule == 0 or granule % itemsize:
        return None
    for extent in extents:
        extent[1] //= granule
        extent[2] //= granule
    canonical = json.dumps(shape, separators=(",", ":"))
    return NormalForm(granule, hashlib.sha256(canonical.encode()).hexdigest())


def kernel_signature(plan: "BatchedPlan") -> tuple[object, ...]:
    """What the lowering decided from absolute sizes: per op of every
    kernel of ``plan`` (``None`` for a half no rank runs) and of its
    copy program, and which form the batched backend runs — with, for
    an in-place plan, the same per op of every round program.
    Instances of one normal form whose block sizes fall in different
    2-adic classes, or on different sides of ``INDEX_RUN_LIMIT`` (per
    run, or per launched copy), differ here, so no certificate is
    inherited across the staged/in-place boundary.  (A by-product of
    the one reading of the plan's ops; the verifier takes it from the
    reading it already has.)"""
    return PlanEffects(plan).signature()


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
    #: the shape stage where it ran; where it was inherited, the look-up
    #: that did (normal form, kernel signature, store)
    shape: float

    def __new__(cls, stages: Mapping[str, float]) -> "StageSeconds":
        self = super().__new__(cls, sum(stages[name] for name in STAGES))
        for name in STAGES:
            setattr(self, name, stages[name])
        return self

    def by_stage(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STAGES}


class CertificateInfo(NamedTuple):
    """Counters of a :class:`CertificateStore`."""

    #: certifications that ran both stages
    full: int
    #: certifications that ran the instance stage and inherited the rest
    inherited: int
    #: how many of ``full`` had no normal form (and so filed nothing)
    not_quotientable: int
    #: certificates on file
    entries: int
    #: the verifier's seconds on each path, split by stage
    full_seconds: StageSeconds
    inherited_seconds: StageSeconds


class CertificateStore:
    """Thread-safe, LRU-bounded map from ``(digest, dims, periods,
    kernel signature)`` to the :class:`~repro.analyze.report.Certificate`
    a clean full certification filed under it.  Concurrent first sights
    of one key each run in full and file the same verdict; the first one
    filed is kept."""

    def __init__(self, maxsize: int = 4096) -> None:
        self._lock = threading.Lock()
        self._maxsize = maxsize
        self._entries: OrderedDict[tuple[object, ...], Certificate] = (
            OrderedDict()
        )
        self.clear()

    def lookup(self, key: tuple[object, ...]) -> Optional[Certificate]:
        with self._lock:
            certificate = self._entries.get(key)
            if certificate is not None:
                self._entries.move_to_end(key)
            return certificate

    def file(self, key: tuple[object, ...], certificate: Certificate) -> None:
        with self._lock:
            self._entries.setdefault(key, certificate)
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def account(
        self,
        seconds: Mapping[str, float],
        *,
        inherited: bool,
        quotientable: bool,
    ) -> None:
        """Book one finished certification (clean or not) and its
        seconds by stage (:data:`STAGES`)."""
        with self._lock:
            if inherited:
                self._inherited += 1
            else:
                self._full += 1
                self._not_quotientable += not quotientable
            booked = self._seconds[inherited]
            for stage in STAGES:
                booked[stage] += seconds[stage]

    def info(self) -> CertificateInfo:
        with self._lock:
            return CertificateInfo(
                self._full,
                self._inherited,
                self._not_quotientable,
                len(self._entries),
                StageSeconds(self._seconds[False]),
                StageSeconds(self._seconds[True]),
            )

    def clear(self) -> None:
        """Drop every certificate and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._full = self._inherited = self._not_quotientable = 0
            #: inherited? -> stage -> seconds
            self._seconds = {
                path: dict.fromkeys(STAGES, 0.0) for path in (False, True)
            }


#: The process-wide store ``verify_on_build`` certifies through.
GLOBAL_STORE = CertificateStore()
