"""Shard workers: fingerprint-affine micro-batched dispatch, supervised.

A shard is one worker thread plus one FIFO queue plus one
:class:`~repro.service.cache.InstanceLRU` of warm representatives.  The
service routes every request whose instance hashes to this shard here —
and only here — so the lazily filled per-instance caches (plain dicts,
no locks) are touched by exactly one thread.  The worker drains its
queue in micro-batches of up to ``max_batch`` requests and solves each
batch with :func:`repro.service.procworker.run_batch` — the one
micro-batch runner of both backends — with the shard's LRU as the
cross-batch representative table.  The bookkeeping around a batch
(counters, stage stamps, timeout counting, future settlement, close and
the metrics snapshot) is :class:`Shard`'s, and so is the worker loop:
both backends keep one batch in flight, and :class:`ProcessShard`
overrides only how that batch is solved.  A crash or a hard kill fails
that batch alone; the requests still queued go to the respawned child.

On top of the PR-5 dispatch plumbing, a shard is **fault-tolerant**:

* **Deadlines** — work whose :class:`~repro.core.cancel.CancelToken`
  has expired is skipped at dequeue (a structured ``timeout`` error,
  no solve); in-flight work carries its token into ``solve_batch``,
  where the probe loops abort it cooperatively.
* **Supervision** — a worker thread that dies (anything escaping the
  dispatch loop, including ``BaseException``s that per-item isolation
  cannot catch) resolves its in-flight futures with structured
  ``internal`` errors and is restarted under a bounded exponential
  backoff (``max_restarts`` / ``restart_backoff``).  A shard that
  exhausts its restart budget is **failed**: everything queued and
  everything submitted later resolves immediately with an ``internal``
  error instead of hanging.
* **Shedding** — the queue is bounded (``queue_bound``); submits
  against a full queue are rejected with a retryable ``overloaded``
  error instead of queueing without bound.
* **Shutdown** — ``close()`` resolves every pending *and* in-flight
  future with a ``shutdown`` error even when the worker outlives the
  join timeout; awaiting clients are never left hanging.

Results travel back to the asyncio event loop with
``loop.call_soon_threadsafe`` onto per-request futures; ``run_batch``
retries a failed batch item by item so one bad request cannot poison
the others in its micro-batch.  Future resolution is **idempotent**
(first writer wins, later attempts see a done future and skip), which
is what makes the shutdown/supervision sweeps race-safe against a
worker that is still running.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..obs.metrics import Metrics
from ..obs.trace import TraceWriter
from .cache import InstanceLRU, LRUStats
from .faults import FaultPlan, WorkerKilled
from .procworker import (
    HEARTBEAT_S,
    WorkerProc,
    result_from_wire,
    run_batch,
    work_to_wire,
)
from .protocol import ServiceError

__all__ = ["ProcessShard", "Shard", "ShardStats", "shard_index"]

log = logging.getLogger("repro.service")


def shard_index(fingerprint: str, shards: int) -> int:
    """Deterministic shard of a fingerprint (stable across processes)."""
    return int(fingerprint[:16], 16) % shards


@dataclass(frozen=True)
class ShardStats:
    """One shard's dispatch + robustness counters plus its LRU's counters."""

    index: int
    requests: int
    batches: int
    max_batch_seen: int
    timeouts: int          # deadline expiries (at dequeue, pre-dispatch, in flight)
    shed: int              # submits rejected because the queue was full
    restarts: int          # worker threads restarted by the supervisor
    worker_deaths: int     # worker threads that died (restarted or not)
    failed: bool           # restart budget exhausted; shard serves errors only
    lru: LRUStats
    queue_depth: int = 0   # requests waiting in the shard queue right now
    inflight: int = 0      # requests handed to the worker, not yet resolved


class _Work(NamedTuple):
    item: object        # BatchItem
    future: object      # asyncio.Future
    loop: object        # the event loop that owns the future
    cancel: object = None  # Optional[CancelToken] (the request's deadline)
    times: object = None   # Optional[RequestTimes] (per-stage clock card)


class Shard:
    """One supervised fingerprint-affine worker (see module docstring)."""

    def __init__(self, index: int, *, max_batch: int, max_instances: int,
                 queue_bound: int = 64, max_restarts: int = 3,
                 restart_backoff: float = 0.05,
                 faults: Optional[FaultPlan] = None,
                 xbatch: bool = False) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.index = index
        self.max_batch = max_batch
        self.xbatch = xbatch
        self.queue_bound = queue_bound
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self.lru = InstanceLRU(max_instances)
        self._faults = faults
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._run, name=f"repro-shard-{index}", daemon=True
            )
        ]
        self._requests = 0
        self._batches = 0
        self._max_batch_seen = 0
        # Counters are single-writer: *_w only from the worker thread,
        # *_l only from the event-loop thread; stats() sums them, so no
        # increment is ever lost to an unlocked read-modify-write race.
        self._timeouts_w = 0
        self._timeouts_l = 0
        self._shed = 0          # loop thread (shedding happens at submit)
        self._restarts = 0      # worker thread (supervision is sequential)
        self._deaths = 0
        # Worker-thread-writer metrics: queue/assembly/solve stage
        # histograms plus the solver counters folded from each batch's
        # TraceScope.  Snapshot via metrics_obj() (loop side, lock-free;
        # see that method for the read-side caveat).
        self.metrics = Metrics()
        #: Optional TraceWriter the service installs; the worker writes
        #: one span summary per dispatched micro-batch.
        self.trace: Optional[TraceWriter] = None
        self._inflight: tuple[_Work, ...] = ()
        self._started = False
        self._closed = False
        self._failed = False

    # ------------------------------------------------------------------ #
    # lifecycle (event-loop side)
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._threads[0].start()

    def submit(self, work: _Work) -> None:
        if self._closed or not self._started:
            raise RuntimeError("shard is not running")
        if self._failed:
            raise ServiceError.internal(
                f"shard {self.index} is failed (worker restart budget exhausted)"
            )
        # Shed policy: reject-new with a retryable error.  qsize() is
        # approximate under concurrency, but the only writer besides us
        # is the worker popping — so the estimate only ever *overshoots*
        # the true backlog, never hides an overload.
        if self._queue.qsize() >= self.queue_bound:
            self._shed += 1
            raise ServiceError.overloaded(
                f"shard {self.index} queue full ({self.queue_bound} pending); "
                f"retry after backoff"
            )
        if work.times is not None:
            work.times.enqueued = time.monotonic()
        self._queue.put(work)
        # TOCTOU guards: close()/failure may have completed (worker gone,
        # queue drained) between the checks above and our put, in which
        # case nothing will ever drain this work — fail it ourselves
        # rather than leave the submitter awaiting a future forever.
        # Safe to race the other sweeps: queue pops are atomic and each
        # work item is resolved by whoever pops it (resolution is
        # idempotent on the futures).
        if self._failed:
            self._drain_failed()
        elif self._closed and not self._worker_alive():
            self._abandon_pending()

    def note_loop_timeout(self) -> None:
        """Count a deadline expiry detected before dispatch (loop thread)."""
        self._timeouts_l += 1

    def signal_close(self) -> None:
        """Phase 1 of shutdown: refuse new work, enqueue the sentinel.

        Non-blocking, so the service can signal every shard before the
        (potentially slow) joins — shutdown latency is the longest
        shard's drain, not the sum.
        """
        if self._started and not self._closed:
            self._closed = True
            self._queue.put(None)

    def close(self, join_timeout: float = 10.0) -> None:
        """Stop after finishing already-queued work; release the LRU.

        The LRU (and its instances' cache dicts) is only torn down once
        every worker thread is confirmed dead — clearing it while a long
        micro-batch is still solving would have two threads mutating
        unlocked dicts.  A worker that outlives the join timeout keeps
        its caches and dies with the process (daemon thread) — but its
        pending **and in-flight futures are still resolved** with a
        structured ``shutdown`` error, so no client is left hanging on
        a wedged solve (resolution is idempotent: if the solve does
        finish later, its late result meets an already-done future).
        """
        self.signal_close()
        if self._started:
            if not self._join_workers(join_timeout):
                self._fail_inflight(ServiceError.shutdown(
                    "service shut down while the request was in flight"
                ))
                self._abandon_pending()
                # The abandon sweep just consumed the close sentinel; a
                # shed worker that eventually finishes its solve would
                # otherwise park in queue.get() forever.  Re-arm it so
                # the zombie exits the moment it comes back for work.
                self._queue.put(None)
                self._teardown(wedged=True)
                return
            self._abandon_pending()  # anything that raced in behind the sentinel
        self._teardown(wedged=False)
        self.lru.clear()

    def _teardown(self, wedged: bool) -> None:
        """The backend's part of :meth:`close`, after the future sweeps.

        Nothing for threads: a worker thread cannot be stopped, so a
        wedged one keeps its caches and dies with the process.
        """

    @property
    def failed(self) -> bool:
        """True once the restart budget is exhausted (serves errors only)."""
        return self._failed

    def _lru_stats(self) -> LRUStats:
        """The shard's warm-cache counters (overridden by process shards)."""
        return self.lru.stats()

    def stats(self) -> ShardStats:
        return ShardStats(
            index=self.index,
            requests=self._requests,
            batches=self._batches,
            max_batch_seen=self._max_batch_seen,
            timeouts=self._timeouts_w + self._timeouts_l,
            shed=self._shed,
            restarts=self._restarts,
            worker_deaths=self._deaths,
            failed=self._failed,
            lru=self._lru_stats(),
            queue_depth=self._queue.qsize(),
            inflight=len(self._inflight),
        )

    def metrics_obj(self) -> dict:
        """Snapshot this shard's metrics (loop side, no locks).

        The worker owns the writes; this read can race a counter-dict
        insert (new glossary key mid-snapshot raises ``RuntimeError``
        from dict iteration), so retry a few times.  The key set
        stabilizes after the first batches, making a retry storm
        impossible in practice; values may lag by an in-flight batch,
        which is the documented single-writer trade.
        """
        for _ in range(7):
            try:
                return self._metrics_snapshot().to_obj()
            except RuntimeError:  # counters grew mid-iteration; retry
                continue
        return self._metrics_snapshot().to_obj()

    def _metrics_snapshot(self) -> Metrics:
        """One copy of this shard's metrics (process shards add the child's)."""
        return Metrics.from_obj(self.metrics.to_obj())

    # ------------------------------------------------------------------ #
    # join/teardown helpers
    # ------------------------------------------------------------------ #

    def _worker_alive(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    def _join_workers(self, timeout: float) -> bool:
        """Join every worker generation (restarts append new threads).

        Polls because the supervisor may spawn a replacement while we
        join the dying generation; returns False once the deadline
        passes with any thread still alive.
        """
        deadline = time.monotonic() + timeout
        while True:
            alive = [t for t in self._threads if t.is_alive()]
            if not alive:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            alive[0].join(timeout=min(remaining, 0.05))

    def _fail_inflight(self, error: ServiceError) -> None:
        """Resolve whatever the worker was solving when we gave up on it."""
        inflight, self._inflight = self._inflight, ()
        for work in inflight:
            self._resolve(work, None, error)

    def _abandon_pending(self) -> None:
        """Fail queued work that will never run (shutdown), don't hang it.

        A submit that raced ``close()`` can land its work *behind* the
        sentinel; silently dropping it would block its ``await future``
        forever.  Called by the worker on exit and again by ``close()``
        after the join, when the queue is single-threaded again.
        """
        self._drain_queue(ServiceError.shutdown())

    def _drain_failed(self) -> None:
        """Fail queued work on a permanently failed shard."""
        self._drain_queue(ServiceError.internal(
            f"shard {self.index} is failed (worker restart budget exhausted)"
        ))

    def _drain_queue(self, error: ServiceError) -> None:
        while True:
            try:
                work = self._queue.get_nowait()
            except queue.Empty:
                return
            if work is not None:
                self._resolve(work, None, error)

    # ------------------------------------------------------------------ #
    # result delivery (any thread -> event loop)
    # ------------------------------------------------------------------ #

    def _resolve(self, work: _Work, result, error) -> None:
        self._resolve_batch([(work, result, error)])

    def _resolve_batch(self, outcomes) -> None:
        """Settle many futures with one loop wakeup per event loop.

        ``call_soon_threadsafe`` costs a cross-thread wakeup each call;
        resolving a whole micro-batch through a single callback keeps the
        per-request orchestration overhead flat as batches grow.  The
        ``done()`` guard makes resolution idempotent — shutdown and
        supervision sweeps may race the worker for the same future, and
        whoever gets there first wins.
        """
        by_loop: dict = {}
        for work, result, error in outcomes:
            by_loop.setdefault(work.loop, []).append((work.future, result, error))
        for loop, entries in by_loop.items():
            def settle(entries=entries) -> None:
                for fut, result, error in entries:
                    if fut.done():  # cancelled, or already resolved by a sweep
                        continue
                    if error is None:
                        fut.set_result(result)
                    else:
                        fut.set_exception(error)

            try:
                loop.call_soon_threadsafe(settle)
            except RuntimeError:  # pragma: no cover - loop closed mid-shutdown
                pass

    # ------------------------------------------------------------------ #
    # worker (shard-thread side)
    # ------------------------------------------------------------------ #

    def _drain(self) -> list[_Work] | None:
        """Block for one work unit, then soak up a micro-batch."""
        head = self._queue.get()
        if head is None:
            return None
        batch = [head]
        while len(batch) < self.max_batch:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if nxt is None:  # sentinel: finish this batch, then exit
                self._queue.put(None)
                break
            batch.append(nxt)
        return batch

    def _expire(self, batch: list[_Work]) -> list[_Work]:
        """Skip dequeued work whose deadline already passed: no solve.

        Also the queue-stage observation point: both backends dequeue
        through here on their worker thread (the metrics writer), so
        "queue" means the same thing thread- and process-side.
        """
        live: list[_Work] = []
        now = time.monotonic()
        for work in batch:
            times = work.times
            if times is not None:
                times.dequeued = now
                if times.enqueued is not None:
                    self.metrics.observe("queue", now - times.enqueued)
            token = work.cancel
            if token is not None and token.cancelled:
                self._timeouts_w += 1
                self._resolve(work, None, ServiceError.timeout(
                    "request deadline expired while queued"
                ))
            else:
                live.append(work)
        return live

    def _count_batch(self, live: list[_Work]) -> None:
        """Count one dispatched micro-batch; the fault plan may kill here."""
        self._batches += 1
        self._requests += len(live)
        self._max_batch_seen = max(self._max_batch_seen, len(live))
        if self._faults is not None:
            self._faults.on_batch_start(self.index)  # may raise WorkerKilled

    def _stamp_assembly(self, live: list[_Work]) -> None:
        """Assembly ends: the batch leaves for its solve."""
        now = time.monotonic()
        for work in live:
            times = work.times
            if times is not None:
                times.solve_start = now
                if times.dequeued is not None:
                    self.metrics.observe("assembly", now - times.dequeued)

    def _settle(self, live: list[_Work], outcomes) -> None:
        """Resolve a solved batch: one ``(result, error)`` per work.

        Stamps ``solve_end`` and counts the ``timeout`` errors; the
        shard, not the solver, owns the timeout counters.
        """
        now = time.monotonic()
        entries = []
        for work, (result, error) in zip(live, outcomes):
            if work.times is not None:
                work.times.solve_end = now
            if error is not None and error.code == "timeout":
                self._timeouts_w += 1
            entries.append((work, result, error))
        self._resolve_batch(entries)

    def _dispatch(self, live: list[_Work]) -> None:
        """Solve one micro-batch in this thread (:func:`run_batch`)."""
        self._count_batch(live)
        before = (
            self._faults.item_hook(self.index)
            if self._faults is not None else None
        )
        self._stamp_assembly(live)
        outcomes, span = run_batch(
            [w.item for w in live], [w.cancel for w in live],
            reps=self.lru, xbatch=self.xbatch, before=before,
            metrics=self.metrics, name=f"shard{self.index}.batch",
        )
        if self.trace is not None:
            self.trace.write(span)
        self._settle(live, outcomes)

    def _run(self) -> None:
        try:
            while True:
                batch = self._drain()
                if batch is None:
                    self._abandon_pending()
                    return
                live = self._expire(batch)
                if not live:
                    continue
                self._inflight = tuple(live)
                self._dispatch(live)
                self._inflight = ()
        except BaseException as exc:  # noqa: BLE001 - supervised worker death
            self._supervise(exc)

    def _supervise(self, exc: BaseException) -> None:
        """The shard supervisor: runs in the dying worker's last breath.

        Resolves the in-flight micro-batch with structured errors, then
        either restarts a fresh worker generation (bounded exponential
        backoff) or marks the shard failed and fails its whole queue.
        CPython guarantees we get here for any exception raised in the
        worker, so death is never silent.
        """
        self._deaths += 1
        log.error("shard %d: worker died: %r", self.index, exc, exc_info=exc)
        inflight, self._inflight = self._inflight, ()
        death = ServiceError(
            "internal", "shard worker died mid-batch", retryable=True
        )
        death.__cause__ = exc if isinstance(exc, Exception) else None
        for work in inflight:
            self._resolve(work, None, death)
        if self._closed:
            self._abandon_pending()
            return
        if self._restarts >= self.max_restarts:
            self._failed = True
            log.error(
                "shard %d: restart budget (%d) exhausted, failing shard",
                self.index, self.max_restarts,
            )
            self._drain_failed()
            return
        self._restarts += 1
        backoff = min(self.restart_backoff * (2 ** (self._restarts - 1)), 2.0)
        time.sleep(backoff)
        if self._closed:  # closed while backing off: drain, don't restart
            self._abandon_pending()
            return
        replacement = threading.Thread(
            target=self._run,
            name=f"repro-shard-{self.index}-r{self._restarts}",
            daemon=True,
        )
        self._threads.append(replacement)
        log.warning(
            "shard %d: restarting worker (attempt %d/%d, backoff %.3fs)",
            self.index, self._restarts, self.max_restarts, backoff,
        )
        replacement.start()


class _WorkerProcDied(Exception):
    """Internal: a shard's child process died mid-batch (unwinds to the
    supervisor, which restarts the shard under the bounded backoff)."""


class ProcessShard(Shard):
    """A shard whose solves run in a supervised child **process**.

    Same interface, queueing, supervision, accounting and worker loop
    as :class:`Shard`; only :meth:`_dispatch` differs.  It serializes
    the micro-batch over a length-prefixed pipe, every item whole, to a
    child running :mod:`repro.service.procworker`, which solves it with
    the same :func:`~repro.service.procworker.run_batch` as the thread
    backend, then blocks for the result frame and decodes the columnar
    results (see that module for the protocol).  One batch is in flight
    at a time, as on threads.  The child rebuilds per-instance caches
    locally under the same
    :class:`~repro.service.cache.InstanceLRU` bound; its counters ride
    back on every result frame and are folded across child generations
    by :meth:`_lru_stats`, so service-level cache accounting is backend
    agnostic.

    What the process boundary buys over threads:

    * **Crash containment** — a child that segfaults, OOMs, or is
      SIGKILLed fails the batch in flight with the existing retryable
      ``internal``/``timeout`` taxonomy and is replaced under the PR-6
      bounded restart backoff; the requests still queued go to the
      respawned child, and nothing else in the service is touched.
    * **Hard deadlines** — when every request of the batch in flight
      carries a deadline and the latest of them has been expired for
      more than ``hard_kill_grace_ms`` with no result, the child is
      SIGKILLed and that batch fails: even a solve that never reaches a
      cooperative probe boundary (a wedged extension, a
      non-cooperative busy loop) cannot hold the shard past its
      deadline.  The kill waits for the *latest* deadline in the batch
      on purpose — the child solves items sequentially, so an earlier
      item's expiry says nothing about whether the child is stuck or
      legitimately working on a later item.
    * **Liveness** — the child heartbeats every
      :data:`~repro.service.procworker.HEARTBEAT_S` (100 ms); a child
      silent for ``max(20 × HEARTBEAT_S, 2 s)`` (frozen, suspended,
      dead pipe) is killed and treated as a crash.  A merely *busy*
      child keeps beating (the beat thread shares the child's GIL
      timeslices), so slow is never misread as dead.

    Every fault decision — batch-level (:class:`~repro.service.faults.
    KillWorker`, :class:`~repro.service.faults.SigKill`) *and*
    item-level — is adjudicated here in the parent against the single
    authoritative plan; the child only receives mechanical directives
    inside the batch frame (see :meth:`FaultPlan.item_directives`), so a
    restarted child can never re-fire faults from reset state.
    """

    def __init__(self, index: int, *, hard_kill_grace_ms: int = 200,
                 **kwargs) -> None:
        super().__init__(index, **kwargs)
        self.hard_kill_grace = max(hard_kill_grace_ms, 0) / 1000.0
        self._child: Optional[WorkerProc] = None
        self._batch_seq = 0
        # Child-side LRU accounting: the live child's latest snapshot
        # plus the folded totals of every dead generation.
        self._lru_live: Optional[dict] = None
        self._lru_dead = {"hits": 0, "misses": 0, "evictions": 0,
                          "peak_entries": 0}
        # Child-side metrics, same live/dead split: the child's solver
        # counters and its "solve" histogram ride every result frame
        # (cumulative snapshot); dead generations fold on retire so a
        # crash never loses more than its in-flight batch's numbers.
        self._met_live: Optional[dict] = None
        self._met_dead = Metrics()

    # ------------------------------------------------------------------ #
    # child lifecycle (worker-thread side, plus start()/close() on the
    # loop side)
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if not self._started:
            # Spawn the child before the worker thread exists, so service
            # start-up pays the interpreter launch instead of the first
            # request (bench clocks and tail latencies stay clean).
            # Respawns after a crash remain lazy via _ensure_child() on
            # the next dispatch.
            self._ensure_child()
        super().start()

    def _ensure_child(self) -> WorkerProc:
        child = self._child
        if child is not None and child.alive():
            return child
        if child is not None:  # died idle between batches: replace quietly
            log.warning("shard %d: worker process gone, respawning", self.index)
            self._retire_child()
        child = WorkerProc(
            self.index,
            max_instances=self.lru.max_entries,
            xbatch=self.xbatch,
        )
        child.start()
        self._child = child
        return child

    def _retire_child(self) -> None:
        """Fold the child's cache+metrics counters into totals, reap it."""
        child, self._child = self._child, None
        live, self._lru_live = self._lru_live, None
        if live:
            dead = self._lru_dead
            dead["hits"] += live.get("hits", 0)
            dead["misses"] += live.get("misses", 0)
            dead["evictions"] += live.get("evictions", 0)
            dead["peak_entries"] = max(
                dead["peak_entries"], live.get("peak_entries", 0)
            )
        met_live, self._met_live = self._met_live, None
        if met_live:
            self._met_dead.merge(Metrics.from_obj(met_live))
        if child is not None:
            child.destroy()

    def _lru_stats(self) -> LRUStats:
        live = self._lru_live or {}
        dead = self._lru_dead
        return LRUStats(
            entries=live.get("entries", 0),
            peak_entries=max(dead["peak_entries"], live.get("peak_entries", 0)),
            hits=dead["hits"] + live.get("hits", 0),
            misses=dead["misses"] + live.get("misses", 0),
            evictions=dead["evictions"] + live.get("evictions", 0),
            max_entries=self.lru.max_entries,
        )

    def _teardown(self, wedged: bool) -> None:
        """Reap the child; unlike threads, hard-kill a wedge first.

        The thread backend can only *shed* a wedged worker at shutdown.
        Here the wedge is an OS process we own: after the same
        future-shedding sweep, the child is SIGKILLed (which unblocks the
        worker thread via EOF) and reaped, so a non-cooperative hang never
        outlives ``close()``.
        """
        if wedged:
            child = self._child
            if child is not None:
                child.kill()
            self._join_workers(2.0)
        self._retire_child()

    def _metrics_snapshot(self) -> Metrics:
        """Worker-side stages merged with the child generations' metrics.

        Shapes match the thread backend exactly: queue/assembly come
        from the worker thread (observed in :meth:`_expire` and
        :meth:`_dispatch`), solve and the solver counters from the child
        generations (live snapshot + dead totals).
        """
        merged = super()._metrics_snapshot()
        merged.merge(self._met_dead)
        live = self._met_live
        if live:
            merged.merge(Metrics.from_obj(live))
        return merged

    # ------------------------------------------------------------------ #
    # dispatch (worker-thread side)
    # ------------------------------------------------------------------ #

    def _dispatch(self, live: list[_Work]) -> None:
        """Ship one micro-batch to the child and block for its result."""
        try:
            self._count_batch(live)
        except WorkerKilled:
            # The injected pre-dispatch death: the child dies with this
            # worker generation, exactly like the thread path.
            self._retire_child()
            raise
        sigkill = self._faults is not None and self._faults.sigkill_now(self.index)
        try:
            child = self._ensure_child()
        except Exception as exc:  # noqa: BLE001 - supervised spawn failure
            died = _WorkerProcDied(
                f"shard {self.index}: worker process failed to start"
            )
            died.__cause__ = exc
            raise died
        self._batch_seq += 1
        batch_id = self._batch_seq
        # One item-fault draw per item, in send order, against the
        # parent's plan (see the class docstring).
        faults = self._faults
        wire = [
            work_to_wire(
                w.item, w.cancel,
                faults.item_directives(self.index) if faults is not None else None,
            )
            for w in live
        ]
        try:
            child.send_batch(batch_id, wire)
        except Exception as exc:  # noqa: BLE001 - child died, pipe broke
            self._child_failure(live, "worker pipe broke mid-send", cause=exc)
        # Assembly ends when the batch is shipped.  The "solve" stage is
        # owned by the child (it rides home on the result frame); the
        # parent-side solve_start/solve_end stamps exist only for the
        # slow-request log and include the pipe round trip.
        self._stamp_assembly(live)
        if sigkill:
            child.kill()  # injected mid-flight crash (frames go EOF)
        self._settle(live, self._await_result(child, batch_id, live))

    def _child_failure(self, live, reason, cause=None):
        """The child is gone with ``live`` in flight: resolve and unwind.

        Requests whose deadline already expired resolve as ``timeout``
        (they were going to time out regardless of the crash — and for
        a hard kill, the timeout *is* the resolution); the rest are
        left for :meth:`Shard._supervise` to resolve with the standard
        retryable worker-death ``internal`` error when the exception
        raised here unwinds the worker loop.  Both writes race nothing:
        settlement order is FIFO per event loop and idempotent.
        """
        self._retire_child()
        for work in live:
            token = work.cancel
            if token is not None and token.cancelled:
                self._timeouts_w += 1
                self._resolve(work, None, ServiceError.timeout(
                    "request deadline exceeded; worker process terminated"
                ))
        died = _WorkerProcDied(f"shard {self.index}: {reason}")
        if cause is not None:
            died.__cause__ = cause
        raise died

    def _await_result(self, child: WorkerProc, batch_id: int, live) -> list:
        """Block for the batch's result frame, supervising the child.

        Returns one ``(result, error)`` per work.  The hard kill arms
        only when every request of the batch carries a deadline.
        """
        kill_at = None
        tokens = [w.cancel for w in live]
        if all(t is not None and t.deadline is not None for t in tokens):
            # Hard-kill horizon: the batch's *latest* deadline plus
            # grace.  Never keyed on the earliest — the child works the
            # batch sequentially, and killing at the first expiry would
            # murder a healthy child that is busy on a later item.
            budget = max(t.remaining() for t in tokens)
            kill_at = time.monotonic() + budget + self.hard_kill_grace
        hb_timeout = max(20 * HEARTBEAT_S, 2.0)
        killed: Optional[str] = None
        while True:
            try:
                msg = child.frames.get(timeout=0.05)
            except queue.Empty:
                now = time.monotonic()
                if killed is None:
                    if kill_at is not None and now >= kill_at:
                        killed = ("hard deadline exceeded (cooperative "
                                  "cancellation never landed)")
                        log.warning("shard %d: %s, killing worker process",
                                    self.index, killed)
                        child.kill()
                    elif now - child.last_frame > hb_timeout:
                        killed = "worker process stopped heartbeating"
                        log.error("shard %d: %s, killing it", self.index, killed)
                        child.kill()
                continue  # a killed child surfaces as EOF shortly
            if msg is None:  # EOF: the child is gone, with the batch
                self._child_failure(live, killed or "worker process died mid-batch")
            if not (isinstance(msg, tuple) and msg and msg[0] == "result"):
                continue
            _, got_id, outcomes, lru_obj, met_obj, spans = msg
            if got_id != batch_id:  # stale frame from a raced teardown
                continue
            self._lru_live = lru_obj
            self._met_live = met_obj
            if self.trace is not None:
                for span in spans:
                    self.trace.write(span)
            return self._outcomes_from_wire(live, outcomes)

    def _outcomes_from_wire(self, live, outcomes) -> list:
        """Decode a result frame's outcomes into ``(result, error)`` pairs."""
        decoded = []
        for work, outcome in zip(live, outcomes):
            if outcome[0] == "ok":
                try:
                    result = result_from_wire(outcome[1], work.item.instance)
                except Exception as exc:  # noqa: BLE001 - malformed frame
                    log.exception("shard %d: malformed worker result", self.index)
                    error = ServiceError.internal("malformed worker result")
                    error.__cause__ = exc
                    decoded.append((None, error))
                else:
                    decoded.append((result, None))
            else:
                _, code, message, retryable = outcome
                decoded.append(
                    (None, ServiceError(code, message, retryable=retryable))
                )
        for _ in live[len(decoded):]:  # defensive: never hang a client
            decoded.append((None, ServiceError.internal("worker result missing")))
        return decoded
