"""``repro.service`` — an async, sharded solve service over the batched engine.

The near-linear algorithms are fast enough that the bottleneck of a
service-shaped deployment (the ROADMAP north star: heavy request traffic
against one library process) is request *orchestration*, not the dual
tests: a naive server calls :func:`repro.solve` once per request, cold
caches every time, and grows per-instance state without bound.  This
subsystem turns the :mod:`repro.algos.batch_api` engine into a service:

* **Requests** (:class:`~repro.service.protocol.SolveRequest`) carry an
  instance plus variant / algorithm / ``eps``, an optional machine range
  ``ms`` (a sweep), and a ``schedules``/``bounds_only`` flag.
* **Sharding** — each request is routed by its instance's
  :meth:`~repro.core.instance.Instance.fingerprint`, so one instance's
  cache set (job and sorted views, search bounds, numpy scratch, all
  held by the instance itself) lives on exactly one shard worker
  thread; the lazily filled caches are never shared across threads.
* **Micro-batching** — each shard drains its queue in batches of up to
  ``max_batch`` requests and dispatches them through
  :func:`~repro.algos.batch_api.solve_batch` /
  :func:`~repro.algos.batch_api.sweep_machines`, coalescing equal
  fingerprints onto one warm representative.
* **Eviction** — per-shard :class:`~repro.service.cache.InstanceLRU`
  tables bound the warm set (``max_instances`` per shard); evicted
  representatives hand their memory back through
  :meth:`~repro.core.instance.Instance.release_caches`.
* **Backpressure** — a global ``max_inflight`` admission semaphore
  bounds the dispatch pipeline, the JSON-lines front ends apply the
  same window per connection, and each shard sheds work beyond its
  bounded queue (``queue_bound``) with a retryable ``overloaded`` error.
* **Determinism** — responses are bit-identical to looped ``solve()``
  under any interleaving (asserted by ``tests/test_service.py``'s seeded
  async fuzz), and each connection's responses come back in request
  order.
* **Fault tolerance** — requests carry optional ``timeout_ms``
  deadlines (cooperatively cancelled at probe boundaries); dead shard
  workers are supervised and restarted under a bounded backoff; a shard
  past its restart budget fails fast and its fingerprint range reroutes
  to the survivors (degraded mode, surfaced via ``stats``); every
  failure is a structured :class:`~repro.service.protocol.ServiceError`
  from a closed taxonomy (``bad_request`` / ``timeout`` / ``overloaded``
  / ``shutdown`` / ``internal``) with retryability semantics.  All of it
  is driven deterministically by :class:`~repro.service.faults.FaultPlan`
  injection (``tests/test_service_faults.py``, the chaos mode of
  ``benchmarks/service_smoke.py``).
* **Worker backends** — ``ServiceConfig(workers="thread"|"process")``
  picks what a shard's solves run on.  Threads (default) buy cache
  affinity under the GIL at zero serialization cost; **process** shards
  (:class:`~repro.service.shards.ProcessShard` supervising a
  :mod:`repro.service.procworker` child over a length-prefixed pipe)
  add what threads cannot: crash containment, heartbeat liveness,
  SIGKILL-backed *hard* deadlines (``hard_kill_grace_ms``), and real
  multicore on multi-CPU hosts.  Every item crosses the pipe whole,
  and the child resolves warm fingerprints in ``solve_batch`` against
  its own LRU, as a thread shard does, so responses are bit-identical
  across backends.

Front ends: ``python -m repro.service`` speaks JSON lines over stdio, or
over a local TCP socket with ``--tcp HOST:PORT``
(:mod:`repro.service.server` / :mod:`repro.service.__main__`).  The
in-process entry point is :class:`~repro.service.engine.SolveService`.
"""

from .cache import InstanceLRU
from .engine import ServiceConfig, ServiceStats, SolveService
from .faults import FaultPlan
from .protocol import ERROR_CODES, ProtocolError, ServiceError, SolveRequest
from .server import serve_stdio, serve_tcp

__all__ = [
    "ERROR_CODES",
    "FaultPlan",
    "InstanceLRU",
    "ProtocolError",
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "SolveRequest",
    "SolveService",
    "serve_stdio",
    "serve_tcp",
]
