"""Process shard worker: child main loop, pipe framing, wire codecs.

One process shard (:class:`repro.service.shards.ProcessShard`) owns one
supervised child process running :func:`main` below — spawned as
``python -m repro.service.procworker`` with the shard's knobs on the
command line.  Parent and child speak a length-prefixed binary frame
protocol over the child's stdin/stdout pipes:

* **Frames** are one little-endian ``uint64`` payload length, then one
  pickle **protocol 5** payload.  A result schedule crosses the pipe as
  its scale and copies of its five plain int column lists
  (:meth:`~repro.core.schedule.ScheduleColumns.to_ipc`), which pickle
  encodes exactly at any magnitude.
* **Requests** cross whole: every item carries the parent instance's
  own ``setups``/``jobs`` tuples with its machine count and fingerprint,
  and the options in the exact-rational wire encoding
  (:func:`~repro.service.protocol.encode_time`).
  The parent's instance passed :class:`~repro.core.instance.Instance`'s
  checks, so the child adopts the tuples as they arrive
  (``Instance._from_checked``) instead of validating them again: a
  process shard solves exactly the instance a thread shard would.
  Deadlines cross as ``remaining_ms`` *budgets* computed with the
  parent token's own (injectable) clock — the child re-arms a local
  monotonic token, so parent/child clocks never need to agree on an
  epoch.
* **Liveness** is a heartbeat frame every :data:`HEARTBEAT_S` (100 ms)
  from a child-side daemon thread.  A busy solve keeps heartbeating (the
  GIL timeslices the beat thread in); only a truly frozen or dead
  process goes silent, which is exactly what the parent supervisor
  wants to distinguish from "slow": it kills a child silent for
  ``max(20 × HEARTBEAT_S, 2 s)``.

The child solves each batch with :func:`run_batch`, the same function
the thread backend calls in-process (one ``solve_batch`` call, per-item
isolation retry, :func:`service_error`'s error taxonomy), on its own
:class:`~repro.service.cache.InstanceLRU` under the same bound — so
responses stay bit-identical to the thread backend and to looped
``solve()``.  Stray ``print``\\ s from library code cannot corrupt the
frame stream: the child re-points ``stdout`` at ``stderr`` on startup
and keeps a private duplicate of the real pipe for frames.
"""

from __future__ import annotations

import argparse
import logging
import os
import pickle
import struct
import subprocess
import sys
import threading
import time
from queue import Empty, SimpleQueue
from typing import Optional

from ..algos.api import SolveResult
from ..algos.batch_api import BatchItem, SweepPoint, solve_batch
from ..core.bounds import Variant
from ..core.cancel import CancelToken, SolveCancelled
from ..core.instance import Instance
from ..core.schedule import Schedule, ScheduleColumns
from ..obs.metrics import Metrics
from ..obs.trace import TraceScope
from .cache import InstanceLRU
from .faults import execute_directive
from .protocol import ServiceError, encode_time, parse_time

__all__ = ["WorkerProc", "read_frame", "write_frame", "main"]

log = logging.getLogger("repro.service")

_LEN = struct.Struct("<Q")
#: The largest payload length a reader accepts; anything above it is a
#: corrupt length field, not a frame to allocate for.
_MAX_FRAME_LEN = 1 << 40
#: Requested OS pipe capacity for the frame streams.  A 16-item result
#: frame tops the 64 KiB Linux default, so with the previous frame still
#: undrained the child's frame write *blocks on the parent's read
#: latency* — measured as ~1 ms of dead time per batch on the child's
#: solve thread.  A megabyte of kernel-side slack decouples the two.
_PIPE_CAPACITY = 1 << 20
#: The child's heartbeat period in seconds.  The parent reads it too: a
#: child silent for ``max(20 × HEARTBEAT_S, 2 s)`` is killed as dead.
HEARTBEAT_S = 0.1


def _widen_pipe(fileobj) -> None:
    """Best-effort bump of a pipe's kernel buffer (Linux ``F_SETPIPE_SZ``)."""
    try:
        import fcntl

        fcntl.fcntl(fileobj.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_CAPACITY)
    except (ImportError, AttributeError, OSError, ValueError):
        pass  # non-Linux, pipe-max-size cap, or closed fd: the default works


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #


def write_frame(stream, obj) -> None:
    """Write one frame: payload length, then the pickle-5 payload.

    Both frame streams are buffered a megabyte deep, so a frame below
    that leaves in one syscall, and a larger payload is not copied to
    join it to its length.
    """
    payload = pickle.dumps(obj, protocol=5)
    stream.write(_LEN.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def _read_exact(stream, n: int) -> Optional[bytes]:
    """Exactly ``n`` bytes; None at a clean boundary, EOFError mid-read."""
    chunks = []
    while n:
        block = stream.read(n)
        if not block:
            if not chunks:
                return None
            raise EOFError("stream truncated mid-read")
        chunks.append(block)
        n -= len(block)
    return b"".join(chunks)


def read_frame(stream):
    """Read one frame; ``None`` on clean EOF, :class:`EOFError` mid-frame."""
    head = _read_exact(stream, _LEN.size)
    if head is None:
        return None
    (length,) = _LEN.unpack(head)
    if length > _MAX_FRAME_LEN:
        raise EOFError(f"corrupt frame length: {length}")
    payload = _read_exact(stream, length)
    if payload is None:
        raise EOFError("truncated frame (payload)")
    return pickle.loads(payload)


# --------------------------------------------------------------------------- #
# wire codecs (items parent -> child, results child -> parent)
# --------------------------------------------------------------------------- #


def work_to_wire(item: BatchItem, token: Optional[CancelToken],
                 directive: Optional[dict] = None) -> dict:
    """One batch item as wire data.

    The instance crosses as its own ``setups``/``jobs`` tuples (pickle
    copies them exactly at any magnitude) with ``m`` and the
    fingerprint; ``eps`` in the exact-rational encoding.
    The deadline crosses as a remaining-time *budget* read through the
    token's own clock, so injected test clocks propagate through the
    pipe: the child arms a fresh monotonic token with the same budget.
    ``directive`` is an already-adjudicated item-fault directive
    (:meth:`~repro.service.faults.FaultPlan.item_directives`) the child
    executes mechanically — firing decisions never happen child-side.
    """
    remaining_ms = None
    if token is not None:
        if token.cancelled:
            remaining_ms = 0.0
        else:
            remaining = token.remaining()
            if remaining is not None:
                remaining_ms = remaining * 1000.0
    instance = item.instance
    return {
        "instance": {
            "m": instance.m, "setups": instance.setups, "jobs": instance.jobs,
        },
        # The parent's (cached) content fingerprint seeds the child
        # instance's digest: the pipe is a trusted intra-host boundary,
        # so the child's LRU lookup never re-hashes the payload.
        "fp": instance.fingerprint(),
        "variant": item.variant.value,
        "algorithm": item.algorithm,
        "eps": encode_time(item.eps),
        "schedules": item.schedules,
        "ms": list(item.ms) if item.ms is not None else None,
        "remaining_ms": remaining_ms,
        "fault": directive,
    }


def _item_from_wire(obj: dict) -> BatchItem:
    """Rebuild one batch item from its wire form.

    The item adopts the parent's tuples through ``Instance._from_checked``
    with the parent's fingerprint in its misc cache: no value is checked
    or copied again (the parent's instance passed the constructor's
    checks, or was built from data that did), and the blake2b digest is
    computed once per request service-wide (on the parent, which needed
    it for shard routing regardless).  Decode consults no cache:
    ``solve_batch`` resolves the fingerprint against the child's LRU and
    shares one representative across the items of a batch, as on the
    thread backend.
    """
    data = obj["instance"]
    instance = Instance._from_checked(
        data["m"], data["setups"], data["jobs"], {}, {"fingerprint": obj["fp"]}
    )
    return BatchItem(
        instance=instance,
        variant=Variant(obj["variant"]),
        algorithm=obj["algorithm"],
        eps=parse_time(obj["eps"], "eps"),
        schedules=obj["schedules"],
        ms=tuple(obj["ms"]) if obj["ms"] is not None else None,
    )


def _token_from_wire(obj: dict) -> Optional[CancelToken]:
    remaining_ms = obj.get("remaining_ms")
    if remaining_ms is None:
        return None
    return CancelToken.after(remaining_ms / 1000.0)


def result_to_wire(result) -> dict:
    """One solve outcome as wire data (child side).

    Certificates use the exact-rational encoding; schedules leave as
    columnar IPC payloads (plain int lists).
    """
    if isinstance(result, list):  # an ms sweep
        return {"kind": "list", "results": [result_to_wire(r) for r in result]}
    if isinstance(result, SweepPoint):
        return {
            "kind": "bounds",
            "m": result.m,
            "variant": result.variant.value,
            "algorithm": result.algorithm,
            "T": encode_time(result.T),
            "ratio_bound": encode_time(result.ratio_bound),
            "opt_lower_bound": encode_time(result.opt_lower_bound),
            "accept_calls": result.accept_calls,
        }
    if isinstance(result, SolveResult):
        sched = result.schedule
        return {
            "kind": "solve",
            "m": sched.instance.m,
            "variant": result.variant.value,
            "algorithm": result.algorithm,
            "T": encode_time(result.T),
            "ratio_bound": encode_time(result.ratio_bound),
            "opt_lower_bound": encode_time(result.opt_lower_bound),
            "schedule": sched.columns().to_ipc(),
        }
    raise TypeError(f"unexpected solve result type: {type(result)!r}")


def result_from_wire(obj: dict, base_instance):
    """Inverse of :func:`result_to_wire` (parent side).

    ``base_instance`` is the parent's own instance for the request —
    the rebuilt schedule hangs off it (or a ``with_machines`` sibling
    for sweep entries), never off anything unpickled.
    """
    kind = obj["kind"]
    if kind == "list":
        return [result_from_wire(r, base_instance) for r in obj["results"]]
    variant = Variant(obj["variant"])
    T = parse_time(obj["T"], "T")
    ratio_bound = parse_time(obj["ratio_bound"], "ratio_bound")
    opt_lower_bound = parse_time(obj["opt_lower_bound"], "opt_lower_bound")
    if kind == "bounds":
        return SweepPoint(
            m=obj["m"],
            variant=variant,
            algorithm=obj["algorithm"],
            T=T,
            ratio_bound=ratio_bound,
            opt_lower_bound=opt_lower_bound,
            accept_calls=obj["accept_calls"],
        )
    if kind != "solve":
        raise ValueError(f"unknown result kind {kind!r}")
    cols = ScheduleColumns.from_ipc(obj["schedule"])
    m = obj["m"]
    instance = base_instance
    if instance.m != m:
        instance = instance.with_machines(m)
    return SolveResult(
        schedule=Schedule.from_columns(instance, cols),
        variant=variant,
        algorithm=obj["algorithm"],
        T=T,
        ratio_bound=ratio_bound,
        opt_lower_bound=opt_lower_bound,
    )


# --------------------------------------------------------------------------- #
# child side
# --------------------------------------------------------------------------- #


def service_error(exc: Exception) -> ServiceError:
    """Map one request's failure onto the error taxonomy.

    A cancelled solve is a ``timeout`` and a :class:`ServiceError` passes
    through.  Anything else goes to the ``repro.service`` log with its
    traceback; the structured error carries only the generic
    ``internal`` text, with the original as ``__cause__`` for in-process
    callers.
    """
    if isinstance(exc, SolveCancelled):
        return ServiceError.timeout("request deadline exceeded mid-solve")
    if isinstance(exc, ServiceError):
        return exc
    log.error("request failed", exc_info=exc)
    error = ServiceError.internal()
    error.__cause__ = exc
    return error


def run_batch(items: list, tokens: list, *, reps, xbatch: bool, before,
              metrics: Metrics, name: str) -> tuple[list, dict]:
    """Solve one service micro-batch; returns ``(outcomes, span)``.

    The one place a micro-batch is solved: the thread shard calls it
    in-process, the process child on the items it decoded from a frame.
    ``tokens``, ``reps`` and ``before`` are ``solve_batch``'s
    ``cancels``, ``reps`` and ``before_solve``.  The batch runs under an
    armed :class:`TraceScope` (the seams never change a result); if it
    raises, it re-runs item by item, so only the offender carries an
    error.  Each outcome is ``(result, None)`` or ``(None,
    ServiceError)``.  ``metrics`` gets the scope's counters and one
    "solve" observation of the batch's duration per item (they ran
    together); ``span`` is the trace record ``{"name", "t0", "dur", "n",
    "counts"}``, on this process's monotonic clock.
    """
    t0 = time.monotonic()
    with TraceScope(name, propagate=False) as scope:
        try:
            results = solve_batch(
                items, reps=reps, cancels=tokens, before_solve=before,
                xbatch=xbatch,
            )
            outcomes = [(result, None) for result in results]
        except Exception:
            outcomes = []
            for item, token in zip(items, tokens):
                try:
                    result = solve_batch(
                        [item], reps=reps, cancels=[token],
                        before_solve=before, xbatch=xbatch,
                    )[0]
                except Exception as exc:  # noqa: BLE001 - mapped to taxonomy
                    outcomes.append((None, service_error(exc)))
                else:
                    outcomes.append((result, None))
    dur = time.monotonic() - t0
    for _ in items:
        metrics.observe("solve", dur)
    metrics.add_counts(scope.counts)
    span = {"name": name, "t0": t0, "dur": dur, "n": len(items),
            "counts": dict(scope.counts)}
    return outcomes, span


def _lru_obj(lru: InstanceLRU) -> dict:
    stats = lru.stats()
    return {
        "entries": stats.entries,
        "peak_entries": stats.peak_entries,
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.procworker",
        description="One process-shard child worker (spawned by ProcessShard).",
    )
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--max-instances", type=int, default=8)
    parser.add_argument("--xbatch", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Keep the frame pipe pure: duplicate the real stdout for frames,
    # then point fd 1 at stderr so stray prints can't corrupt a frame.
    # Both frame streams get megabyte buffers — a result frame easily
    # tops the 8 KiB default, and every refill/flush is a syscall on
    # the solve thread's critical path.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb", buffering=1 << 20)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    inp = os.fdopen(os.dup(sys.stdin.fileno()), "rb", buffering=1 << 20)

    lru = InstanceLRU(args.max_instances)
    metrics = Metrics()  # cumulative; a snapshot rides every result frame
    wlock = threading.Lock()

    with wlock:
        write_frame(out, ("ready", os.getpid()))

    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(HEARTBEAT_S):
            try:
                with wlock:
                    write_frame(out, ("hb",))
            except (OSError, ValueError):  # parent gone: die quietly
                return

    threading.Thread(target=_beat, name="repro-procworker-hb", daemon=True).start()

    try:
        while True:
            msg = read_frame(inp)
            if msg is None or msg[0] == "close":
                return 0
            if msg[0] != "batch":
                continue
            _, batch_id, items_wire = msg
            items = [_item_from_wire(obj) for obj in items_wire]
            # Item-fault directives were adjudicated by the parent plan;
            # keyed by item identity, so the isolation retry replays the
            # same directive on the same item (never a fresh decision).
            directives = {
                id(item): obj["fault"]
                for item, obj in zip(items, items_wire)
                if obj.get("fault")
            }
            before = (
                (lambda item: execute_directive(directives.get(id(item))))
                if directives else None
            )
            outcomes, span = run_batch(
                items, [_token_from_wire(obj) for obj in items_wire],
                reps=lru, xbatch=args.xbatch, before=before,
                metrics=metrics, name=f"shard{args.shard}.batch",
            )
            wire = [
                ("ok", result_to_wire(result)) if error is None
                else ("err", error.code, error.message, error.retryable)
                for result, error in outcomes
            ]
            with wlock:
                write_frame(out, (
                    "result", batch_id, wire, _lru_obj(lru),
                    metrics.to_obj(), [span],
                ))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return 0
    finally:
        stop.set()


# --------------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------------- #


class WorkerProc:
    """Parent-side handle of one child worker process.

    Owns the :class:`subprocess.Popen`, a reader thread that drains the
    child's frame stream into :attr:`frames` (heartbeats are consumed
    here, bumping :attr:`last_frame`), and the write lock for the
    request pipe.  ``None`` on :attr:`frames` marks EOF — the child is
    gone and no further frame will ever arrive.
    """

    def __init__(self, shard: int, *, max_instances: int,
                 xbatch: bool = False) -> None:
        self.shard = shard
        self.max_instances = max_instances
        self.xbatch = xbatch
        self.proc: Optional[subprocess.Popen] = None
        self.pid: Optional[int] = None
        self.frames: SimpleQueue = SimpleQueue()
        self.last_frame = time.monotonic()
        self._wlock = threading.Lock()
        self._reader: Optional[threading.Thread] = None

    def start(self, ready_timeout: float = 60.0) -> None:
        """Spawn the child and block until its ready frame."""
        # `-c` instead of `-m`: runpy would re-execute a module the
        # package already imported (and warn about it on stderr).
        cmd = [
            sys.executable, "-c",
            "from repro.service.procworker import main; raise SystemExit(main())",
            "--shard", str(self.shard),
            "--max-instances", str(self.max_instances),
        ]
        if self.xbatch:
            cmd.append("--xbatch")
        env = dict(os.environ)
        # The child must import the same `repro` this process runs —
        # works from a source checkout (PYTHONPATH=src) and from an
        # installed package alike.
        import repro

        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        prev = env.get("PYTHONPATH")
        env["PYTHONPATH"] = pkg_root + (os.pathsep + prev if prev else "")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
            bufsize=1 << 20,  # frame streams routinely top the 8 KiB default
        )
        _widen_pipe(self.proc.stdin)
        _widen_pipe(self.proc.stdout)
        self.pid = self.proc.pid
        self.last_frame = time.monotonic()
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-procshard-{self.shard}-reader",
            daemon=True,
        )
        self._reader.start()
        try:
            msg = self.frames.get(timeout=ready_timeout)
        except Empty:
            self.destroy()
            raise RuntimeError(
                f"shard {self.shard}: worker process never became ready"
            ) from None
        if not (isinstance(msg, tuple) and msg and msg[0] == "ready"):
            self.destroy()
            raise RuntimeError(
                f"shard {self.shard}: worker process died during startup"
            )

    def _read_loop(self) -> None:
        stream = self.proc.stdout
        while True:
            try:
                msg = read_frame(stream)
            except Exception:  # noqa: BLE001 - any read failure is EOF to us
                msg = None
            self.last_frame = time.monotonic()
            if msg is None:
                self.frames.put(None)
                return
            if isinstance(msg, tuple) and msg and msg[0] == "hb":
                continue
            self.frames.put(msg)

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def send_batch(self, batch_id: int, items_wire: list) -> None:
        with self._wlock:
            write_frame(self.proc.stdin, ("batch", batch_id, items_wire))

    def kill(self) -> None:
        """SIGKILL the child (hard deadline / liveness / injected fault).

        Safe from any thread; the reader thread surfaces the death as
        EOF on :attr:`frames`.
        """
        proc = self.proc
        if proc is not None and proc.poll() is None:
            try:
                proc.kill()
            except OSError:  # pragma: no cover - already reaped
                pass

    def destroy(self, close_timeout: float = 1.0) -> None:
        """Tear the child down: graceful close frame, then SIGKILL; reap."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                with self._wlock:
                    write_frame(proc.stdin, ("close",))
            except (OSError, ValueError):
                pass
            try:
                proc.wait(timeout=close_timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill is SIGKILL
            pass
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
        if self._reader is not None:
            self._reader.join(timeout=2.0)


if __name__ == "__main__":
    raise SystemExit(main())
