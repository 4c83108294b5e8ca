"""CLI entry point: ``python -m repro.serve --socket /tmp/repro.sock``."""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from repro.serve.server import ScheduleServer

#: Interpreter switch interval of the daemon process.  Ready hits are
#: answered on the event-loop thread while CPU-bound builds hold the GIL
#: on the worker threads; at CPython's default 5 ms a ready hit can sit
#: behind one pure-Python stretch of a build for longer than it takes to
#: serve.
SWITCH_INTERVAL_S = 5e-4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=(
            "Run the schedule-compilation daemon: certified Cartesian "
            "collective schedules over a framed socket protocol."
        ),
    )
    endpoint = parser.add_mutually_exclusive_group()
    endpoint.add_argument(
        "--socket", metavar="PATH", help="serve a unix-domain socket"
    )
    endpoint.add_argument(
        "--host", default=None, help="serve TCP on this host"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 picks a free one; printed at startup)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="build worker threads (default 4)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="serve schedules without verifier certification",
    )
    parser.add_argument(
        "--shm-plans",
        action="store_true",
        help="own a shared-memory plan store and answer 'plan' requests",
    )
    return parser


async def _run(args: argparse.Namespace) -> None:
    server = ScheduleServer(
        path=args.socket,
        host=args.host if args.socket is None else None,
        port=args.port,
        workers=args.workers,
        verify=not args.no_verify,
        shm_plans=args.shm_plans,
    )
    await server.start()
    print(f"repro.serve listening on {server.address}", flush=True)
    if server.plan_segment is not None:
        print(f"plan store segment: {server.plan_segment}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.stop()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.socket is None and args.host is None:
        args.host = "127.0.0.1"
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        asyncio.run(_run(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
