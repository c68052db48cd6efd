"""JSON-lines front ends: stdio and local TCP, over one shared handler.

Both transports speak the :mod:`repro.service.protocol` line protocol
and share the connection handler: requests are parsed in arrival order,
dispatched concurrently through :meth:`SolveService.submit`, and the
responses are written back **in request order** (a writer coroutine
drains a FIFO of response futures) — deterministic output for any
interleaving of completions.  A per-connection admission window of
``max_inflight`` bounds parsed-but-unanswered requests, so a
fast-pipelining client cannot queue unbounded work.

Each connection checks an instance payload text once: a
:class:`~repro.service.protocol.CheckedPayloads` table of up to
``shards × max_instances`` ``instance`` texts keeps, for each text that
passed every check, its payload's tuples and routing digest.  Each line
is read with :func:`~repro.service.protocol.walk_line`, which decodes
every member but a held ``instance`` text, so a line that repeats one
skips the decode, the checks and the digest.  A line the walk declines
goes to ``json.loads``, so replies and error texts do not change.  The
``metrics`` op counts both kinds as ``ingest.hit`` and
``ingest.miss``.

Housekeeping ops: ``ping`` answers inline; ``stats`` (the engine's
counters plus the process's ``ru_maxrss``) and ``metrics`` (mergeable
counters + per-stage latency histograms, JSON or Prometheus text)
snapshot at their position in the response order, so they
deterministically count every request that precedes them on the
connection; ``shutdown`` acknowledges, then closes the connection — and
stops a TCP server.

Every failure goes on the wire as a structured
:class:`~repro.service.protocol.ServiceError` object.  Unexpected
(``internal``) failures never leak exception text to the client: the
wire carries the code and a generic message, the full traceback goes to
the ``repro.service`` logger.  A request line longer than
:data:`LINE_LIMIT`, on either transport, is discarded through its
newline and answered with a non-retryable ``bad_request``; the
connection keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import logging
import sys
import time
from typing import Awaitable, Callable, Optional

from .engine import SolveService
from .protocol import (
    METRICS_FORMATS,
    CheckedPayloads,
    ProtocolError,
    ServiceError,
    echo,
    error_line,
    metrics_line,
    request_from_obj,
    response_line,
    walk_line,
)

__all__ = ["handle_lines", "serve_stdio", "serve_tcp"]

log = logging.getLogger("repro.service")


def _normalize_maxrss(ru_maxrss: int, platform: str) -> int:
    """``ru_maxrss`` as KiB, whatever unit ``platform`` reported it in.

    POSIX leaves the ``ru_maxrss`` unit unspecified and the platforms
    disagree: Linux and the BSDs report **kibibytes**, macOS reports
    **bytes**.  ``stats`` payloads must be comparable across deploys,
    so everything is normalized to KiB here (split out from
    :func:`_maxrss_kib` purely so the per-platform arithmetic is unit
    testable without faking ``getrusage`` wholesale).
    """
    return ru_maxrss // 1024 if platform == "darwin" else ru_maxrss


def _maxrss_kib() -> Optional[int]:
    """Peak RSS of this process in KiB (None where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return _normalize_maxrss(usage, sys.platform)


#: Longest request line (bytes, newline excluded) either transport reads:
#: asyncio's default ``StreamReader`` limit, named so the rejection of a
#: longer line can say what the limit is.
LINE_LIMIT = 2 ** 16

_TOO_LONG = (f"request line longer than the limit of {LINE_LIMIT} bytes; "
             f"line discarded")


async def handle_lines(
    service: SolveService,
    readline: Callable[[], Awaitable[bytes]],
    write_line: Callable[[str], Awaitable[None]],
) -> bool:
    """Serve one connection; returns True when a shutdown was requested.

    ``readline`` returns the next line (``b""`` at EOF) or raises
    :class:`ProtocolError` for a line the transport had to discard; that
    line is answered with a ``bad_request`` carrying the error's message.
    """
    config = service.config
    responses: asyncio.Queue = asyncio.Queue()
    window = asyncio.Semaphore(config.max_inflight)
    shutdown = False
    # Instance payloads this connection sent that passed every check, as
    # many as the service keeps warm: an older one is cold at its shard.
    known = CheckedPayloads(config.shards * config.max_instances,
                            service.count_ingest)

    async def writer() -> None:
        while True:
            fut = await responses.get()
            if fut is None:
                return
            try:
                try:
                    line = await fut
                except asyncio.CancelledError:  # pragma: no cover - shutdown race
                    raise
                except Exception:  # noqa: BLE001 - reported on the wire
                    log.exception("response future failed")
                    line = error_line(None, ServiceError.internal())
                await write_line(line)
            finally:
                # Must release even when write_line raises (client gone):
                # a leaked slot would wedge the reader's window.acquire()
                # forever once max_inflight requests are outstanding.
                window.release()

    async def solve_one(obj: dict) -> str:
        request_id = obj.get("id") if isinstance(obj, dict) else None
        try:
            request = request_from_obj(obj, known)
            result = await service.submit(request)
            t0 = time.monotonic()
            line = response_line(request.id, result)
            service.observe_encode(time.monotonic() - t0)
            return line
        except ServiceError as exc:  # already taxonomized (timeout/shed/...)
            return error_line(request_id, exc)
        except (ProtocolError, ValueError) as exc:
            return error_line(request_id, ServiceError.bad_request(str(exc)))
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - id must survive any failure
            # Generic code on the wire; the details stay server-side.
            log.exception("request %r failed", request_id)
            return error_line(request_id, ServiceError.internal())

    async def immediate(line: str) -> str:
        return line

    async def stats_line(request_id) -> str:
        payload = service.stats().to_obj()
        payload["maxrss_kib"] = _maxrss_kib()
        return json.dumps(
            {"id": request_id, "ok": True, "stats": payload}, separators=(",", ":")
        )

    async def metrics_reply(request_id, fmt: str) -> str:
        return metrics_line(request_id, service.metrics_obj(), fmt)

    writer_task = asyncio.create_task(writer())
    try:
        while True:
            if writer_task.done():  # write side failed: connection is dead
                break
            rejected = None
            try:
                raw = await readline()
            except ProtocolError as exc:  # a line the transport discarded
                raw, rejected = b"", str(exc)
            else:
                if not raw:  # EOF
                    break
                raw = raw.strip()
                if not raw:
                    continue
            # Backpressure: stop reading when max_inflight responses are
            # pending.  Wait on the writer too — if it dies (broken pipe)
            # its slots are never released, and blocking here forever
            # would leak the connection handler.
            acquired = asyncio.ensure_future(window.acquire())
            await asyncio.wait(
                {acquired, writer_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if not acquired.done():
                acquired.cancel()
                break
            if rejected is None:
                try:
                    obj = walk_line(raw, known)
                    if obj is None:  # a line only json.loads may read
                        obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    # JSONDecodeError, bytes not UTF-8, or nesting deeper
                    # than the interpreter's recursion limit.
                    rejected = f"bad JSON: {exc}"
            if rejected is not None:
                responses.put_nowait(asyncio.ensure_future(immediate(
                    error_line(None, ServiceError.bad_request(rejected))
                )))
                continue
            op = obj.get("op", "solve") if isinstance(obj, dict) else "solve"
            request_id = obj.get("id") if isinstance(obj, dict) else None
            if op == "ping":
                responses.put_nowait(asyncio.ensure_future(immediate(
                    json.dumps({"id": request_id, "ok": True, "pong": True},
                               separators=(",", ":"))
                )))
            elif op == "stats":
                # Enqueued as a *bare coroutine*: the writer evaluates it
                # only once every earlier response has been written, so
                # the snapshot deterministically counts all requests that
                # precede it on this connection (a task would snapshot at
                # parse time, while earlier solves are still in flight).
                responses.put_nowait(stats_line(request_id))
            elif op == "metrics":
                # Same bare-coroutine discipline as stats: the snapshot
                # evaluates at its position in the response order.
                fmt = obj.get("format", "json")
                if fmt not in METRICS_FORMATS:
                    responses.put_nowait(asyncio.ensure_future(immediate(
                        error_line(request_id, ServiceError.bad_request(
                            f"metrics format must be one of "
                            f"{list(METRICS_FORMATS)}, got {echo(fmt)}"
                        ))
                    )))
                else:
                    responses.put_nowait(metrics_reply(request_id, fmt))
            elif op == "shutdown":
                responses.put_nowait(asyncio.ensure_future(immediate(
                    json.dumps({"id": request_id, "ok": True, "bye": True},
                               separators=(",", ":"))
                )))
                shutdown = True
                break
            elif op == "solve":
                responses.put_nowait(asyncio.create_task(solve_one(obj)))
            else:
                responses.put_nowait(asyncio.ensure_future(immediate(
                    error_line(request_id, ServiceError.bad_request(f"unknown op {echo(op)}"))
                )))
    finally:
        responses.put_nowait(None)
        try:
            await writer_task
        except Exception:  # noqa: BLE001 - writer died with the connection
            pass
        # If the writer died early, undelivered response tasks are still
        # queued — cancel them so no solve keeps running for a dead peer.
        while not responses.empty():
            fut = responses.get_nowait()
            if fut is None:
                continue
            if asyncio.isfuture(fut):
                fut.cancel()
            else:  # a never-awaited bare coroutine (stats)
                fut.close()
    return shutdown


async def serve_stdio(service: SolveService) -> None:
    """Serve JSON lines on stdin/stdout until EOF (or a shutdown op)."""
    loop = asyncio.get_running_loop()
    stdin = sys.stdin.buffer
    stdout = sys.stdout

    def read() -> bytes:
        line = stdin.readline(LINE_LIMIT + 1)
        if len(line) <= LINE_LIMIT or line.endswith(b"\n"):
            return line
        while line and not line.endswith(b"\n"):  # discard the rest
            line = stdin.readline(LINE_LIMIT)
        raise ProtocolError(_TOO_LONG)

    async def readline() -> bytes:
        return await loop.run_in_executor(None, read)

    async def write_line(line: str) -> None:
        stdout.write(line + "\n")
        stdout.flush()

    await handle_lines(service, readline, write_line)


async def serve_tcp(service: SolveService, host: str = "127.0.0.1", port: int = 0):
    """Start a TCP server; returns the listening ``asyncio.Server``.

    A ``shutdown`` op on any connection sets the event stashed on the
    returned server as ``repro_shutdown`` — the intended local
    single-operator lifecycle is ``await server.repro_shutdown.wait()``
    then ``server.close()`` (what ``python -m repro.service --tcp``
    does); callers that manage lifetime themselves can ignore it.
    """
    done = asyncio.Event()

    async def on_connection(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        async def discard_line() -> None:
            """Consume the rest of an over-limit line through its newline."""
            while True:
                try:
                    await reader.readuntil(b"\n")
                    return
                except asyncio.LimitOverrunError as exc:
                    # drop what is buffered and wait for more of the line
                    await reader.readexactly(exc.consumed)
                except asyncio.IncompleteReadError:  # EOF ends the line
                    return

        async def readline() -> bytes:
            try:
                try:
                    return await reader.readuntil(b"\n")
                except asyncio.LimitOverrunError:
                    await discard_line()
                    raise ProtocolError(_TOO_LONG) from None
            except asyncio.IncompleteReadError as exc:  # EOF: unterminated tail
                return exc.partial
            except ConnectionError:  # pragma: no cover - client vanished
                return b""

        async def write_line(line: str) -> None:
            writer.write(line.encode() + b"\n")
            await writer.drain()

        try:
            if await handle_lines(service, readline, write_line):
                done.set()
        finally:
            writer.close()

    server = await asyncio.start_server(on_connection, host, port,
                                        limit=LINE_LIMIT)
    server.repro_shutdown = done  # type: ignore[attr-defined]
    return server
