"""Guard the end-to-end benchmark's wrap table.

``benchmarks/e2e`` attributes time by wrapping the callables listed in
``layers.TABLE``; a target that no longer resolves is silently reported
as 0, and tier-1 does not run ``benchmarks/e2e/test_harness.py``.  So
resolve every path here the way ``spans.Tracer._install_one`` does.
"""

import importlib

import pytest

from benchmarks.e2e.layers import TABLE


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


@pytest.mark.parametrize("target", TABLE, ids=[t.path for t in TABLE])
def test_wrap_target_resolves(target):
    _, fn = resolve(target.path)
    assert callable(fn), target.path


def test_class_targets_are_distinct_functions():
    """Two class targets sharing one function object (an alias) would
    be wrapped twice and record two spans per call."""
    seen = {}
    for target in TABLE:
        owner, fn = resolve(target.path)
        if owner is None:
            continue
        assert id(fn) not in seen, (target.path, seen[id(fn)])
        seen[id(fn)] = target.path
