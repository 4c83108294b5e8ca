"""Process-wide switch for build-time schedule verification.

When enabled, :class:`~repro.core.schedule_cache.ScheduleCache` runs the
static verifier on every schedule it builds — once per cache entry, so
repeated executions pay nothing.  Tests and CI turn it on (the conftest
does); benchmarks leave it off so verification never lands in a timed
region.

The environment variable ``REPRO_VERIFY_SCHEDULES`` (``1``/``true``/
``yes``/``on`` vs ``0``/``false``/``no``/``off``, any case; empty is
off) sets the initial state; it defaults to off so library users opt in
explicitly, and any other value fails ``import repro``.
"""

from __future__ import annotations

import os
import threading

_ENV = "REPRO_VERIFY_SCHEDULES"
_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off", "")


def _from_environment() -> bool:
    value = os.environ.get(_ENV, "0")
    flag = value.strip().lower()
    if flag not in _TRUTHY + _FALSY:
        raise ValueError(
            f"{_ENV}={value!r}: expected one of {'/'.join(_TRUTHY)} (on) "
            f"or {'/'.join(_FALSY[:-1])} (off)"
        )
    return flag in _TRUTHY


_lock = threading.Lock()
_enabled = _from_environment()


def verify_on_build() -> bool:
    """Whether cache builds should run the static verifier."""
    with _lock:
        return _enabled


def set_verify_on_build(enabled: bool) -> bool:
    """Set the flag; returns the previous value (for try/finally reset)."""
    global _enabled
    with _lock:
        previous = _enabled
        _enabled = bool(enabled)
        return previous
