"""Static analysis for the Cartesian collectives: schedule verifier + lint.

Submodules are loaded lazily: ``repro.core.schedule`` imports
:mod:`repro.analyze.report` at module load, so an eager ``from
.schedule_verifier import …`` here would close an import cycle
(``analyze`` → ``schedule_verifier`` → ``core.schedule`` → ``analyze``).
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "Violation": "repro.analyze.report",
    "VerificationReport": "repro.analyze.report",
    "ScheduleValidationError": "repro.analyze.report",
    "verify_schedule": "repro.analyze.schedule_verifier",
    "certify_schedule": "repro.analyze.schedule_verifier",
    "verify_reduce_schedule": "repro.analyze.schedule_verifier",
    "CertificateStore": "repro.analyze.certificates",
    "verify_effects": "repro.analyze.effects",
    "run_effect_checks": "repro.analyze.effects",
    "IntervalSet": "repro.analyze.intervals",
    "verify_on_build": "repro.analyze.config",
    "set_verify_on_build": "repro.analyze.config",
    "lint_paths": "repro.analyze.lint",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), name)
