"""Guard the end-to-end benchmark's wrap table.

``benchmarks/e2e`` attributes time by wrapping the callables listed in
``layers.TABLE``; a target that no longer resolves is silently reported
as 0, and tier-1 does not run ``benchmarks/e2e/test_harness.py``.  So
resolve every path here the way ``spans.Tracer._install_one`` does.

Only a change to the benchmark may edit ``layers.TABLE``, so a target
whose code was deleted on purpose stays in it until then; such targets
are listed in :data:`DELETED` and must *not* resolve.
"""

import importlib

import pytest

from benchmarks.e2e.layers import TABLE

#: wrap targets deleted from the library, each with what replaced it
DELETED = {
    "repro.core.backend.shm:ShmBackend.execute_all": (
        "the forked shm backend; the name 'shm' is an alias of batched"
    ),
}
LIVE = [t for t in TABLE if t.path not in DELETED]


def resolve(path):
    """``(owner or None, callable)`` as the span installer finds it."""
    module_name, _, attr_path = path.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = attr_path.rpartition(".")
    if not owner_name:
        return None, getattr(module, attr)
    owner = getattr(module, owner_name)
    raw = owner.__dict__[attr]  # the owner's own attribute, not inherited
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    return owner, raw


@pytest.mark.parametrize("target", LIVE, ids=[t.path for t in LIVE])
def test_wrap_target_resolves(target):
    _, fn = resolve(target.path)
    assert callable(fn), target.path


@pytest.mark.parametrize("path", sorted(DELETED))
def test_deleted_wrap_target_is_gone(path):
    """A deleted target is still in the table and really is gone (it
    shows as one ``harness.trace_unresolved``)."""
    assert path in {t.path for t in TABLE}
    with pytest.raises((ImportError, AttributeError, KeyError)):
        resolve(path)


def test_class_targets_are_distinct_functions():
    """Two class targets sharing one function object (an alias) would
    be wrapped twice and record two spans per call."""
    seen = {}
    for target in LIVE:
        owner, fn = resolve(target.path)
        if owner is None:
            continue
        assert id(fn) not in seen, (target.path, seen[id(fn)])
        seen[id(fn)] = target.path
