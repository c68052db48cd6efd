"""The asyncio solve service: admission, routing, and lifecycle.

:class:`SolveService` is the in-process face of the subsystem (the
JSON-lines front ends in :mod:`repro.service.server` are thin wrappers
over it).  One event loop submits requests; a pool of shard worker
threads (:mod:`repro.service.shards`) solves them in micro-batches.

Guarantees:

* **Bit-identity** — every response equals the corresponding fresh
  ``solve()`` / ``sweep_machines`` call, whatever the interleaving:
  requests only ever share *caches* (proven bit-identical by the batch
  engine's differential suites), never verdicts.
* **Affinity** — requests for one fingerprint always land on the same
  shard (``shard_index``), so no per-instance cache dict is touched by
  two threads.
* **Backpressure** — at most ``max_inflight`` requests are dispatched
  at once; further ``submit`` calls wait on the admission semaphore,
  and each shard additionally bounds its queue (``queue_bound``),
  shedding overflow with a retryable ``overloaded`` error.
* **Bounded memory** — each shard's warm-instance table is an LRU of
  ``max_instances`` entries with release-on-evict.
* **Bounded time** — a request with ``timeout_ms`` set resolves within
  its deadline (plus one probe) or fails with a ``timeout`` error; the
  deadline clock starts at admission, so it covers queueing as well as
  the solve itself.
* **Supervision** — a dead shard worker is restarted under a bounded
  backoff and its in-flight requests fail with structured (retryable)
  errors instead of hanging; a shard past its restart budget fails
  fast.  ``stats()`` accounts for every shed, timed-out, and restarted
  unit.
"""

from __future__ import annotations

import asyncio
import logging
import numbers
import time
from dataclasses import dataclass
from typing import Iterable, Optional

from ..algos.batch_api import _validate_request
from ..core.cancel import CancelToken
from ..obs.metrics import Metrics, RequestTimes
from ..obs.trace import TraceWriter
from .faults import FaultPlan
from .protocol import ServiceError, SolveRequest
from .shards import ProcessShard, Shard, ShardStats, _Work, shard_index

__all__ = ["ServiceConfig", "ServiceStats", "SolveService"]

log = logging.getLogger("repro.service")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one :class:`SolveService`.

    ``shards`` bounds cache-affinity parallelism (worker threads);
    ``max_batch`` the micro-batch size a shard coalesces per dispatch;
    ``max_inflight`` the global number of admitted-but-unanswered
    requests (the backpressure window, also applied per connection by
    the servers); ``max_instances`` the per-shard LRU bound on warm
    representatives (the peak-cache-entries guarantee is
    ``shards × max_instances``).

    Robustness knobs: ``queue_bound`` caps each shard's pending queue —
    submits beyond it are shed with a retryable ``overloaded`` error;
    ``max_restarts`` bounds how many times a shard's dead worker thread
    is restarted before the shard is declared failed; ``restart_backoff``
    is the first restart's delay in seconds (doubling per restart,
    capped at 2s).

    ``workers`` selects the shard backend: ``"thread"`` (default) runs
    each shard's solves on its worker thread in-process; ``"process"``
    runs them in a supervised child process per shard
    (:class:`~repro.service.shards.ProcessShard`) — crash containment,
    SIGKILL-backed hard deadlines, and true multicore scaling, at the
    cost of per-request serialization and per-child cache rebuilds.
    ``hard_kill_grace_ms`` (process backend only) is how long past the
    last in-flight deadline a child may go silent before it is
    SIGKILLed.

    ``xbatch=True`` dispatches each micro-batch through the
    cross-instance lockstep coordinator
    (``solve_batch(..., xbatch=True)``): all items' bracket searches
    advance in rounds and each round's same-kind dual-test probes go to
    one :class:`~repro.core.xbatch.BatchDualContext` call, which fuses
    the ``split``/``pmtn_base`` rows into one padded numpy pass and runs
    ``nonp``/``pmtn`` rows on the scalar kernel.  Responses are
    bit-identical either way (pinned by ``tests/test_xbatch.py``); both
    backends honour the knob.
    """

    shards: int = 4
    max_batch: int = 16
    max_inflight: int = 64
    max_instances: int = 8
    queue_bound: int = 64
    max_restarts: int = 3
    restart_backoff: float = 0.05
    workers: str = "thread"
    hard_kill_grace_ms: int = 200
    xbatch: bool = False
    #: Log any request whose total lifecycle (submit -> result) takes at
    #: least this many milliseconds, with its per-stage breakdown, to the
    #: ``repro.service`` logger.  ``None`` disables the slow-request log.
    slow_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if self.workers not in ("thread", "process"):
            raise ValueError(
                f"workers must be 'thread' or 'process', got {self.workers!r}"
            )
        if not isinstance(self.xbatch, bool):
            raise ValueError(f"xbatch must be a bool, got {self.xbatch!r}")
        if (
            isinstance(self.hard_kill_grace_ms, bool)
            or not isinstance(self.hard_kill_grace_ms, int)
            or self.hard_kill_grace_ms < 0
        ):
            raise ValueError(
                "hard_kill_grace_ms must be a non-negative int, "
                f"got {self.hard_kill_grace_ms!r}"
            )
        for name in ("shards", "max_batch", "max_inflight", "max_instances",
                     "queue_bound"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        if (
            isinstance(self.max_restarts, bool)
            or not isinstance(self.max_restarts, int)
            or self.max_restarts < 0
        ):
            raise ValueError(
                f"max_restarts must be a non-negative int, got {self.max_restarts!r}"
            )
        if (
            isinstance(self.restart_backoff, bool)
            or not isinstance(self.restart_backoff, numbers.Real)
            or not self.restart_backoff >= 0
        ):
            raise ValueError(
                "restart_backoff must be a non-negative number (seconds), "
                f"got {self.restart_backoff!r}"
            )
        if self.slow_ms is not None and (
            isinstance(self.slow_ms, bool)
            or not isinstance(self.slow_ms, int)
            or self.slow_ms < 1
        ):
            raise ValueError(
                f"slow_ms must be a positive int or None, got {self.slow_ms!r}"
            )


@dataclass(frozen=True)
class ServiceStats:
    """Aggregate + per-shard service counters (one ``stats()`` snapshot)."""

    requests: int
    batches: int
    peak_inflight: int
    max_inflight: int
    warm_instances: int
    peak_instances: int        # Σ per-shard LRU peaks
    max_instances: int         # configured bound: shards × per-shard bound
    cache_hits: int
    cache_misses: int
    evictions: int
    timeouts: int              # requests failed on their deadline
    shed: int                  # requests rejected by full shard queues
    restarts: int              # shard workers restarted (threads or processes)
    worker_deaths: int         # shard workers that died
    failed_shards: int         # shards past their restart budget
    workers: str               # backend: "thread" | "process"
    rerouted: int              # requests rerouted off failed shards
    degraded_shards: tuple[int, ...]  # failed shard indices serving reroutes
    queue_depth: int           # Σ per-shard pending queue depths (now)
    inflight: int              # admitted-but-unanswered requests (now)
    shards: tuple[ShardStats, ...]

    def to_obj(self) -> dict:
        """JSON-shaped snapshot (the ``{"op": "stats"}`` payload)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "peak_inflight": self.peak_inflight,
            "max_inflight": self.max_inflight,
            "warm_instances": self.warm_instances,
            "peak_instances": self.peak_instances,
            "max_instances": self.max_instances,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evictions": self.evictions,
            "timeouts": self.timeouts,
            "shed": self.shed,
            "restarts": self.restarts,
            "worker_deaths": self.worker_deaths,
            "failed_shards": self.failed_shards,
            "workers": self.workers,
            "rerouted": self.rerouted,
            "degraded_shards": list(self.degraded_shards),
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "shards": [
                {
                    "index": s.index,
                    "requests": s.requests,
                    "batches": s.batches,
                    "max_batch_seen": s.max_batch_seen,
                    "timeouts": s.timeouts,
                    "shed": s.shed,
                    "restarts": s.restarts,
                    "worker_deaths": s.worker_deaths,
                    "failed": s.failed,
                    "queue_depth": s.queue_depth,
                    "inflight": s.inflight,
                    "entries": s.lru.entries,
                    "peak_entries": s.lru.peak_entries,
                    "hits": s.lru.hits,
                    "misses": s.lru.misses,
                    "evictions": s.lru.evictions,
                }
                for s in self.shards
            ],
        }


class SolveService:
    """Async sharded solve service over the batched engine.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose` explicitly)::

        async with SolveService(ServiceConfig(shards=4)) as svc:
            result = await svc.submit(SolveRequest(instance=inst))

    :meth:`submit` returns exactly what the corresponding synchronous
    call would: a ``SolveResult`` (or :class:`~repro.algos.batch_api.
    SweepPoint` for bounds-only), or a list of them for an ``ms`` sweep.
    Failures surface as :class:`~repro.service.protocol.ServiceError`
    (``timeout`` / ``overloaded`` / ``shutdown`` / ``internal``), so
    callers can branch on ``exc.code`` / ``exc.retryable``.
    :meth:`submit_many` preserves input order.

    ``faults`` arms a deterministic :class:`~repro.service.faults.
    FaultPlan` — test/bench only; production services pass none.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 faults: Optional[FaultPlan] = None,
                 trace: Optional[TraceWriter] = None) -> None:
        self.config = config or ServiceConfig()
        self.faults = faults
        # Loop-thread-writer metrics (admission/total; the servers add
        # encode).  Shard workers own queue/assembly/solve and the
        # solver counters; metrics_obj() merges everything.
        self._metrics = Metrics()
        shard_kwargs = dict(
            max_batch=self.config.max_batch,
            max_instances=self.config.max_instances,
            queue_bound=self.config.queue_bound,
            max_restarts=self.config.max_restarts,
            restart_backoff=self.config.restart_backoff,
            faults=faults,
            xbatch=self.config.xbatch,
        )
        if self.config.workers == "process":
            self._shards: list[Shard] = [
                ProcessShard(
                    i,
                    hard_kill_grace_ms=self.config.hard_kill_grace_ms,
                    **shard_kwargs,
                )
                for i in range(self.config.shards)
            ]
        else:
            self._shards = [
                Shard(i, **shard_kwargs) for i in range(self.config.shards)
            ]
        if trace is not None:
            for shard in self._shards:
                shard.trace = trace
        self._sem = asyncio.Semaphore(self.config.max_inflight)
        self._inflight = 0
        self._peak_inflight = 0
        self._rerouted = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "SolveService":
        if self._closed:
            raise RuntimeError("service is closed")
        if not self._started:
            self._started = True
            for shard in self._shards:
                shard.start()
        return self

    async def __aenter__(self) -> "SolveService":
        return self.start()

    async def aclose(self) -> None:
        """Finish queued work, stop the workers, release every cache.

        Requests still pending or in flight when a worker refuses to
        die in time resolve with a ``shutdown`` error — never hang.
        """
        if self._closed:
            return
        self._closed = True
        loop = asyncio.get_running_loop()
        for shard in self._shards:
            shard.signal_close()  # all sentinels first: joins overlap
        for shard in self._shards:
            await loop.run_in_executor(None, shard.close)

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    async def submit(self, request: SolveRequest):
        """Solve one request (validated now, dispatched under backpressure).

        The ``timeout_ms`` deadline starts *here* — it covers the wait
        for an admission slot, the shard queue, and the solve itself.
        """
        if not self._started or self._closed:
            raise RuntimeError("service is not running (use 'async with' or start())")
        # Fail fast in the caller's task: names and eps checked before
        # dispatch, so a bad request never occupies a backpressure slot.
        _validate_request(
            request.variant, request.algorithm, request.schedules, request.eps
        )
        item = request.to_item()
        token = None
        if request.timeout_ms is not None:
            token = CancelToken.after(request.timeout_ms / 1000.0)
        # The stage clock covers the routing digest every request pays.
        times = RequestTimes()
        times.submit = time.monotonic()
        fingerprint = request.instance.fingerprint()
        shard = self._route(shard_index(fingerprint, len(self._shards)))
        loop = asyncio.get_running_loop()
        await self._sem.acquire()
        times.admitted = time.monotonic()
        self._metrics.observe("admission", times.admitted - times.submit)
        self._inflight += 1
        self._peak_inflight = max(self._peak_inflight, self._inflight)
        try:
            if token is not None and token.cancelled:
                # Expired while waiting for admission: never reaches a shard.
                shard.note_loop_timeout()
                raise ServiceError.timeout(
                    "request deadline expired awaiting admission"
                )
            future = loop.create_future()
            shard.submit(_Work(
                item=item, future=future, loop=loop, cancel=token, times=times,
            ))
            return await future
        finally:
            self._inflight -= 1
            self._sem.release()
            times.done = time.monotonic()
            self._metrics.observe("total", times.done - times.submit)
            self._maybe_log_slow(request, fingerprint, times)

    def _route(self, index: int) -> Shard:
        """Degraded-mode routing: walk off a failed shard to a survivor.

        Normally the fingerprint's home shard.  Once a shard exhausts
        its restart budget, its fingerprint range reroutes to the next
        surviving shard (deterministic walk, so a fingerprint keeps one
        home per failed-set) instead of serving errors forever — cache
        affinity degrades (the survivor rebuilds warm state) but the
        range stays *served*.  Surfaced via ``stats().rerouted`` and
        ``stats().degraded_shards``; with no survivor left, the home
        shard's structured ``internal`` failure propagates as before.
        """
        shard = self._shards[index]
        if shard.failed:
            n = len(self._shards)
            for offset in range(1, n):
                survivor = self._shards[(index + offset) % n]
                if not survivor.failed:
                    self._rerouted += 1
                    return survivor
        return shard

    def _maybe_log_slow(self, request: SolveRequest, fingerprint: str,
                        times: RequestTimes) -> None:
        """Log one slow request's per-stage breakdown (``config.slow_ms``).

        Taxonomy-safe: the line carries the routing fingerprint, the
        request's variant/algorithm names, and stage timings — never the
        instance payload.  Stages a request did not reach (shed at
        admission, process backend's child-side solve) are simply
        absent from the breakdown.
        """
        slow_ms = self.config.slow_ms
        if slow_ms is None or times.submit is None or times.done is None:
            return
        total_ms = (times.done - times.submit) * 1000.0
        if total_ms < slow_ms:
            return
        log.warning(
            "slow request: fingerprint=%s variant=%s algorithm=%s "
            "total_ms=%.3f stages=%s",
            fingerprint, request.variant.value, request.algorithm,
            total_ms, times.stage_ms(),
        )

    async def submit_many(self, requests: Iterable[SolveRequest]) -> list:
        """Submit concurrently, return results in request order."""
        return list(
            await asyncio.gather(*(self.submit(req) for req in requests))
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> ServiceStats:
        shard_stats = tuple(shard.stats() for shard in self._shards)
        return ServiceStats(
            requests=sum(s.requests for s in shard_stats),
            batches=sum(s.batches for s in shard_stats),
            peak_inflight=self._peak_inflight,
            max_inflight=self.config.max_inflight,
            warm_instances=sum(s.lru.entries for s in shard_stats),
            peak_instances=sum(s.lru.peak_entries for s in shard_stats),
            max_instances=self.config.shards * self.config.max_instances,
            cache_hits=sum(s.lru.hits for s in shard_stats),
            cache_misses=sum(s.lru.misses for s in shard_stats),
            evictions=sum(s.lru.evictions for s in shard_stats),
            timeouts=sum(s.timeouts for s in shard_stats),
            shed=sum(s.shed for s in shard_stats),
            restarts=sum(s.restarts for s in shard_stats),
            worker_deaths=sum(s.worker_deaths for s in shard_stats),
            failed_shards=sum(1 for s in shard_stats if s.failed),
            workers=self.config.workers,
            rerouted=self._rerouted,
            degraded_shards=tuple(s.index for s in shard_stats if s.failed),
            queue_depth=sum(s.queue_depth for s in shard_stats),
            inflight=self._inflight,
            shards=shard_stats,
        )

    def metrics_obj(self) -> dict:
        """One mergeable metrics snapshot for the whole service.

        Loop-side admission/total/encode merged with every shard's
        queue/assembly/solve histograms and solver counters — identical
        shape on both worker backends (the process backend's solve stage
        and counters ride home on result frames; see
        :meth:`~repro.service.shards.ProcessShard.metrics_obj`).
        """
        merged = Metrics.from_obj(self._metrics.to_obj())
        for shard in self._shards:
            merged.merge(Metrics.from_obj(shard.metrics_obj()))
        return merged.to_obj()

    def observe_encode(self, seconds: float) -> None:
        """Record one response's wire-encode latency (servers, loop side)."""
        self._metrics.observe("encode", seconds)
