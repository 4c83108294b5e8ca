"""Command-line front end for the static-analysis subsystem.

``python -m repro.analyze verify --all-stencils``
    Build every schedule kind for every paper stencil and run the full
    static verifier (the sentinel execution against the definition,
    Prop 3.1 deadlock freedom, Prop 3.2/3.3 conformance, plan lowering
    and its effect pass) on each; exit 1 if any combination has a
    violation.
    The summary reports build seconds and certification seconds per
    kind, the latter split by stage (lowering, kernels, effects, shape).
    Every cell is then certified again at 12-byte blocks through the
    certificate store the first pass filed into, and a second table
    gives, per path (full, shape-inherited, plan-inherited), the count
    of certifications and their seconds by stage.

``python -m repro.analyze verify --stencil 9-point --dims 4x4 [--kind alltoall]``
    Verify one stencil/torus combination (all kinds unless ``--kind``).

``python -m repro.analyze effects --stencil 9-point --dims 4x4 [--kind alltoall]``
    Run only the byte-interval effect system (V701-V709) over the
    lowered plan of one stencil/torus combination.

``python -m repro.analyze lint <paths...>``
    Run the custom concurrency/typing lint (rules L001-L009).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

from repro.analyze import lint as lint_mod
from repro.analyze.certificates import STAGES, CertificateStore
from repro.analyze.report import VerificationReport
from repro.analyze.schedule_verifier import (
    SWEEP_KINDS,
    build_for_kind,
    sweep_stencils,
    verify_schedule,
)
from repro.core.schedule import Schedule


def _parse_dims(text: str) -> tuple[int, ...]:
    parts = text.replace(",", "x").split("x")
    dims = tuple(int(p) for p in parts if p)
    if not dims or any(n <= 0 for n in dims):
        raise argparse.ArgumentTypeError(f"bad dims {text!r}: want e.g. 4x4")
    return dims


def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.all_stencils:
        store = CertificateStore()
        results = sweep_stencils(inherit=store)
        again = sweep_stencils(block_bytes=12, inherit=store)
        bad = 0
        for name, kind, dims, report, _, _ in results:
            status = "ok" if report.ok else "FAIL"
            line = (
                f"{status:4s}  {name:10s} {kind:18s} dims={dims}  "
                f"plan {report.delivery}"
            )
            if not report.ok:
                bad += 1
                line += f"  codes={sorted(report.codes())}"
            print(line)
            if not report.ok and ns.verbose:
                for v in report.violations:
                    print(f"      {v.describe()}")
        print(
            f"{len(results) - bad}/{len(results)} stencil/kind combinations "
            "certified"
        )
        stages = "".join(f" {stage:>9s}" for stage in STAGES)
        print(f"{'kind':24s} {'build s':>8s} {'certify s':>10s}  ={stages}")
        for kind in SWEEP_KINDS:
            rows = [row for row in results if row.kind == kind]
            split = "".join(
                f" {sum(r.report.stage_seconds[stage] for r in rows):9.3f}"
                for stage in STAGES
            )
            print(
                f"{kind:24s} {sum(r.build_seconds for r in rows):8.3f} "
                f"{sum(r.certify_seconds for r in rows):10.3f}  ={split}"
            )
        for row in (row for row in again if not row.report.ok):
            bad += 1
            print(f"FAIL  {row.stencil:10s} {row.kind:18s} at 12 B: {row.report.codes()}")
        info = store.info()
        inherited = info.inherited
        print(f"{'path':24s} {'count':>8s} {'certify s':>10s}  ={stages}")
        for path, count, seconds in (
            ("full", info.full, info.full_seconds),
            ("shape", inherited.shape, inherited.shape_seconds),
            ("plan", inherited.plan, inherited.plan_seconds),
        ):
            split = "".join(f" {getattr(seconds, s):9.3f}" for s in STAGES)
            print(f"{path:24s} {count:8d} {seconds:10.3f}  ={split}")
        return 1 if bad else 0
    return _each_kind(
        ns, "verify", "--all-stencils or --stencil NAME --dims DxD", verify_schedule
    )


def _each_kind(
    ns: argparse.Namespace,
    command: str,
    need: str,
    run: Callable[[Schedule, tuple[int, ...], bool], VerificationReport],
) -> int:
    """Print ``run``'s report on every kind (or ``--kind``) of one
    stencil on one torus; exit 1 if any has a violation."""
    if not ns.stencil or not ns.dims:
        print(f"{command}: need {need}", file=sys.stderr)
        return 2
    from repro.core.stencils import named_stencil

    nbh = named_stencil(ns.stencil)
    dims = ns.dims
    if nbh.d != len(dims):
        print(
            f"{command}: stencil {ns.stencil!r} is {nbh.d}-dimensional but "
            f"dims={dims}",
            file=sys.stderr,
        )
        return 2
    nbh.validate_for_dims(dims)
    bad = 0
    for kind in [ns.kind] if ns.kind else SWEEP_KINDS:
        report = run(build_for_kind(kind, nbh), dims, True)
        print(report.summary())
        if not report.ok:
            bad += 1
            for v in report.violations:
                print(f"  {v.describe()}")
    return 1 if bad else 0


def _cmd_effects(ns: argparse.Namespace) -> int:
    from repro.analyze.effects import verify_effects

    return _each_kind(ns, "effects", "--stencil NAME --dims DxD", verify_effects)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="static schedule verifier and concurrency lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="statically verify built schedules"
    )
    p_verify.add_argument(
        "--all-stencils",
        action="store_true",
        help="sweep every schedule kind over every paper stencil",
    )
    p_verify.add_argument("--stencil", help="stencil name, e.g. 9-point")
    p_verify.add_argument(
        "--dims", type=_parse_dims, help="torus dims, e.g. 4x4"
    )
    p_verify.add_argument(
        "--kind", choices=list(SWEEP_KINDS), help="verify one kind only"
    )
    p_verify.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every violation in sweep mode",
    )

    p_effects = sub.add_parser(
        "effects",
        help="run only the byte-interval effect system (V701-V709)",
    )
    p_effects.add_argument("--stencil", help="stencil name, e.g. 9-point")
    p_effects.add_argument(
        "--dims", type=_parse_dims, help="torus dims, e.g. 4x4"
    )
    p_effects.add_argument(
        "--kind", choices=list(SWEEP_KINDS), help="check one kind only"
    )

    p_lint = sub.add_parser("lint", help="run the custom lint (L001-L009)")
    p_lint.add_argument("paths", nargs="+", help="files or directories")

    ns = parser.parse_args(argv)
    if ns.command == "verify":
        return _cmd_verify(ns)
    if ns.command == "effects":
        return _cmd_effects(ns)
    return lint_mod.main(ns.paths)


if __name__ == "__main__":
    sys.exit(main())
