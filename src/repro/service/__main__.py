"""CLI: ``python -m repro.service`` — JSON-lines solve service.

Stdio by default (one request per stdin line, one response per stdout
line, exits on EOF); ``--tcp HOST:PORT`` serves a local TCP socket
instead (``PORT`` 0 picks a free port, printed on stderr).  See
:mod:`repro.service.protocol` for the line format.

Example session::

    $ python -m repro.service --shards 2 <<'EOF'
    {"id": 1, "instance": {"m": 2, "setups": [2, 1], "jobs": [[3, 4], [5]]}}
    {"id": 2, "instance": {"m": 2, "setups": [2, 1], "jobs": [[3, 4], [5]]}, "bounds_only": true, "ms": [2, 3, 4]}
    {"id": 3, "op": "stats"}
    EOF
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from ..obs.trace import TraceWriter
from .engine import ServiceConfig, SolveService
from .faults import FaultPlan
from .server import serve_stdio, serve_tcp


def _parse_faults(text: str) -> FaultPlan:
    """``--faults`` value: a preset name or a FaultPlan JSON object."""
    if text in FaultPlan.PRESETS:
        return FaultPlan.preset(text)
    try:
        return FaultPlan.from_obj(json.loads(text))
    except (json.JSONDecodeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected one of {FaultPlan.PRESETS} or FaultPlan JSON: {exc}"
        ) from None


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host or "127.0.0.1", int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Async sharded solve service (JSON lines over stdio or TCP).",
    )
    parser.add_argument(
        "--tcp", type=_parse_endpoint, metavar="HOST:PORT", default=None,
        help="serve a local TCP socket instead of stdio (port 0 = auto)",
    )
    parser.add_argument("--shards", type=int, default=4,
                        help="worker threads / cache-affinity shards (default 4)")
    parser.add_argument("--workers", choices=["thread", "process"],
                        default="thread",
                        help="shard backend: in-process worker threads, or "
                             "one supervised child process per shard (crash "
                             "containment, hard deadlines, multicore; "
                             "default thread)")
    parser.add_argument("--hard-kill-grace-ms", type=int, default=200,
                        help="process backend: grace past the latest "
                             "deadline of the batch in flight before a "
                             "silent child is SIGKILLed (default 200)")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="micro-batch size per shard dispatch (default 16)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="global admitted-request window (default 64)")
    parser.add_argument("--max-instances", type=int, default=8,
                        help="per-shard LRU bound on warm instances (default 8)")
    parser.add_argument("--queue-bound", type=int, default=64,
                        help="per-shard pending-queue bound; submits beyond it "
                             "are shed with a retryable 'overloaded' error "
                             "(default 64)")
    parser.add_argument("--max-restarts", type=int, default=3,
                        help="worker restarts per shard before the shard is "
                             "declared failed (default 3)")
    parser.add_argument("--restart-backoff", type=float, default=0.05,
                        help="first restart delay in seconds, doubling per "
                             "restart (default 0.05)")
    parser.add_argument("--xbatch", action="store_true",
                        help="advance each micro-batch's dual searches in "
                             "lockstep rounds: each round's splittable probes "
                             "fuse into one numpy pass, the other kinds run "
                             "on the scalar kernel (bit-identical results)")
    parser.add_argument("--faults", type=_parse_faults, metavar="PLAN",
                        default=None,
                        help="arm a deterministic fault plan (testing only): "
                             "a preset name (kill/delay/raise/drop/wedge/"
                             "sigkill) or FaultPlan JSON")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="dump one JSONL span summary per dispatched "
                             "micro-batch (solver counters, solve wall time) "
                             "to FILE; summarize with "
                             "'python -m repro.experiments obs FILE'")
    parser.add_argument("--slow-ms", type=int, default=None, metavar="MS",
                        help="log any request slower than MS milliseconds "
                             "end to end, with its per-stage breakdown, to "
                             "the repro.service logger (default: off)")
    return parser


async def _amain(args: argparse.Namespace) -> int:
    config = ServiceConfig(
        shards=args.shards,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        max_instances=args.max_instances,
        queue_bound=args.queue_bound,
        max_restarts=args.max_restarts,
        restart_backoff=args.restart_backoff,
        workers=args.workers,
        hard_kill_grace_ms=args.hard_kill_grace_ms,
        xbatch=args.xbatch,
        slow_ms=args.slow_ms,
    )
    trace = TraceWriter(args.trace) if args.trace is not None else None
    async with SolveService(config, faults=args.faults, trace=trace) as service:
        if args.tcp is None:
            await serve_stdio(service)
        else:
            host, port = args.tcp
            server = await serve_tcp(service, host, port)
            bound = server.sockets[0].getsockname()
            print(f"repro.service listening on {bound[0]}:{bound[1]}",
                  file=sys.stderr, flush=True)
            # SIGTERM drains gracefully: stop accepting, finish what's
            # queued (the `async with` exit), resolve stragglers with
            # structured shutdown errors — same path as the shutdown op.
            loop = asyncio.get_running_loop()
            try:
                loop.add_signal_handler(signal.SIGTERM, server.repro_shutdown.set)
            except NotImplementedError:  # pragma: no cover - non-Unix loops
                pass
            try:
                await server.repro_shutdown.wait()
            finally:
                try:
                    loop.remove_signal_handler(signal.SIGTERM)
                except (NotImplementedError, ValueError):  # pragma: no cover
                    pass
                server.close()
                await server.wait_closed()
    if trace is not None:
        # Spans are flushed per record, so even an abnormal exit loses
        # nothing; this just releases the handle on the graceful path.
        trace.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
