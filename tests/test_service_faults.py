"""Deterministic fault injection against the service layer.

Every robustness guarantee of :mod:`repro.service` is driven here by a
seeded :class:`~repro.service.faults.FaultPlan` (no timing luck, no
flaky sleeps as the *mechanism* — sleeps only create the overlap the
injected fault needs):

* cooperative cancellation (``CancelToken`` + ``timeout_ms``) is exact:
  an armed-but-unfired token changes nothing, a fired one aborts at a
  probe boundary with a structured ``timeout`` error;
* a killed shard worker is supervised — in-flight work fails with a
  retryable structured error, the worker restarts under the bounded
  backoff, and the shard keeps answering bit-identically;
* a shard past its restart budget fails fast instead of hanging;
* full shard queues shed with retryable ``overloaded`` errors, and the
  shed work succeeds on retry;
* ``close()`` resolves pending *and* in-flight futures with ``shutdown``
  errors even when the worker thread outlives the join timeout;
* injected in-batch failures are isolated to the offending request and
  never leak exception text onto the wire;
* the process backend (``workers="process"``) honors all of the above
  *plus* the guarantees threads cannot give: a non-cooperative wedge is
  hard-killed at deadline + grace, a SIGKILLed child is contained to
  structured retryable errors, and a shard past its restart budget
  degrades gracefully — its fingerprint range reroutes to survivors.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.algos.api import solve
from repro.core.cancel import CancelToken, SolveCancelled, cancel_scope
from repro.core.instance import Instance
from repro.generators import uniform_instance
from repro.service import (
    ERROR_CODES,
    FaultPlan,
    ServiceConfig,
    ServiceError,
    SolveRequest,
    SolveService,
    serve_tcp,
)
from repro.service.faults import (
    DelaySolve,
    DropConnection,
    KillWorker,
    RaiseInBatch,
    SigKill,
    WedgeSolve,
    WorkerKilled,
)
from repro.service.protocol import instance_to_obj, parse_time
from repro.service.shards import Shard, _Work, shard_index

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(inst: Instance, m: int | None = None) -> Instance:
    return Instance(m=inst.m if m is None else m, setups=inst.setups, jobs=inst.jobs)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _quiet_supervisor_logs(caplog):
    """Worker deaths are *expected* here; keep the log noise out of -s runs."""
    logging.getLogger("repro.service").setLevel(logging.CRITICAL)
    yield
    logging.getLogger("repro.service").setLevel(logging.NOTSET)


# --------------------------------------------------------------------------- #
# the cancellation substrate
# --------------------------------------------------------------------------- #


class TestCancelToken:
    def test_deadline_latches(self):
        now = [0.0]
        token = CancelToken.after(1.0, clock=lambda: now[0])
        assert not token.cancelled
        assert token.remaining() == 1.0
        now[0] = 2.0
        assert token.cancelled
        now[0] = 0.0  # clock going backwards must not un-cancel
        assert token.cancelled
        with pytest.raises(SolveCancelled):
            token.check()

    def test_explicit_cancel(self):
        token = CancelToken()
        assert not token.cancelled and token.remaining() is None
        token.cancel()
        with pytest.raises(SolveCancelled, match="cancelled"):
            token.check()

    def test_deadline_exactly_at_probe_boundary(self):
        """``clock() == deadline`` counts as expired, not as one more probe.

        The boundary is closed on the cancel side by design: ``remaining()``
        is 0 at the instant the deadline lands, and a budget of 0 must
        never buy another probe — otherwise two hosts disagreeing by one
        clock tick would disagree on whether a request timed out.
        """
        now = [0.0]
        token = CancelToken.after(1.0, clock=lambda: now[0])
        now[0] = 1.0 - 1e-9
        assert not token.cancelled
        assert token.remaining() > 0.0
        now[0] = 1.0  # exactly the deadline
        assert token.remaining() == 0.0
        fresh_view = CancelToken(deadline=token.deadline, clock=lambda: now[0])
        assert fresh_view.cancelled  # >= comparison, no open interval
        with pytest.raises(SolveCancelled, match="deadline"):
            fresh_view.check()

    def test_scope_nesting_and_noop(self):
        from repro.core.cancel import current_token

        outer, inner = CancelToken(), CancelToken()
        assert current_token() is None
        with cancel_scope(outer):
            assert current_token() is outer
            with cancel_scope(None):  # no-op scope keeps the outer token
                assert current_token() is outer
            with cancel_scope(inner):
                assert current_token() is inner
            assert current_token() is outer
        assert current_token() is None

    def test_armed_token_is_bit_identical(self):
        """A token that never fires must not change a single probe."""
        inst = uniform_instance(m=4, c=3, n_per_class=3, seed=5)
        plain = solve(fresh(inst))
        with cancel_scope(CancelToken.after(3600.0)):
            guarded = solve(fresh(inst))
        assert plain.T == guarded.T
        assert plain.makespan == guarded.makespan
        assert plain.ratio_bound == guarded.ratio_bound

    def test_fired_token_aborts_solve(self):
        inst = uniform_instance(m=4, c=3, n_per_class=3, seed=5)
        token = CancelToken()
        token.cancel()
        with cancel_scope(token), pytest.raises(SolveCancelled):
            solve(fresh(inst))


# --------------------------------------------------------------------------- #
# FaultPlan plumbing
# --------------------------------------------------------------------------- #


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                KillWorker(shard=1, after_batches=2, times=2),
                DelaySolve(seconds=0.5, after_items=3),
                RaiseInBatch(message="zap"),
                WedgeSolve(seconds=1.5, shard=0, after_items=1),
                SigKill(shard=0, after_batches=3, times=2),
                DropConnection(after_requests=5),
            ],
            seed=42,
        )
        clone = FaultPlan.from_obj(json.loads(json.dumps(plan.to_obj())))
        assert clone.faults == plan.faults
        assert clone.seed == 42

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec"):
            FaultPlan([object()])
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_obj({"faults": [{"kind": "meteor"}]})
        with pytest.raises(ValueError, match="bad fields"):
            FaultPlan.from_obj({"faults": [{"kind": "kill_worker", "oops": 1}]})
        with pytest.raises(ValueError, match="fault plan"):
            FaultPlan.from_obj([1, 2])

    def test_presets_are_deterministic(self):
        for name in FaultPlan.PRESETS:
            assert FaultPlan.preset(name, seed=7).faults == FaultPlan.preset(
                name, seed=7
            ).faults
        with pytest.raises(ValueError, match="unknown preset"):
            FaultPlan.preset("entropy")

    def test_kill_hook_fires_once_per_times(self):
        plan = FaultPlan([KillWorker(shard=0, after_batches=1, times=1)])
        plan.on_batch_start(0)  # batch 1: below threshold
        with pytest.raises(WorkerKilled):
            plan.on_batch_start(0)  # batch 2: fires
        plan.on_batch_start(0)  # exhausted: quiet
        assert plan.fired["kill_worker"] == 1
        plan.on_batch_start(1)  # other shards unaffected

    def test_drop_connection_spec(self):
        assert FaultPlan([DropConnection(after_requests=3)]).drop_connection_after() == 3
        assert FaultPlan([]).drop_connection_after() is None


# --------------------------------------------------------------------------- #
# deadlines end to end
# --------------------------------------------------------------------------- #


TINY = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


class TestDeadlines:
    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_generous_timeout_is_bit_identical(self, workers):
        # Satellite: an armed-but-never-expiring token must not change a
        # probe on either backend — under processes the deadline crosses
        # the pipe as a remaining-ms budget and is re-armed child-side.
        base = solve(fresh(TINY))

        async def main():
            config = ServiceConfig(shards=1, workers=workers)
            async with SolveService(config) as svc:
                return await svc.submit(
                    SolveRequest(instance=fresh(TINY), timeout_ms=60_000)
                )

        got = run(main())
        assert got.T == base.T and got.makespan == base.makespan

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_inflight_deadline_times_out(self, workers):
        """A delayed solve blows its budget mid-flight: structured timeout."""
        plan = FaultPlan([DelaySolve(seconds=0.3, after_items=0, times=1)])

        async def main():
            config = ServiceConfig(shards=1, workers=workers)
            async with SolveService(config, faults=plan) as svc:
                with pytest.raises(ServiceError) as err:
                    await svc.submit(
                        SolveRequest(instance=fresh(TINY), timeout_ms=50)
                    )
                stats = svc.stats()
                # The same request without pressure still answers.
                result = await svc.submit(SolveRequest(instance=fresh(TINY)))
                return err.value, stats, result

        error, stats, result = run(main())
        assert error.code == "timeout" and error.retryable is False
        assert stats.timeouts == 1
        assert plan.fired["delay_solve"] == 1
        assert result.makespan == solve(fresh(TINY)).makespan

    def test_expired_in_queue_skipped_at_dequeue(self):
        """Work whose deadline passed while queued is never solved."""
        plan = FaultPlan([DelaySolve(seconds=0.4, after_items=0, times=1)])

        async def main():
            config = ServiceConfig(shards=1, max_batch=1)
            async with SolveService(config, faults=plan) as svc:
                slow = asyncio.create_task(
                    svc.submit(SolveRequest(instance=fresh(TINY)))
                )
                await asyncio.sleep(0.1)  # let the delayed solve start
                with pytest.raises(ServiceError) as err:
                    await svc.submit(
                        SolveRequest(instance=fresh(TINY), timeout_ms=50)
                    )
                await slow  # the delayed request itself still answers
                return err.value, svc.stats()

        error, stats = run(main())
        assert error.code == "timeout"
        assert "queue" in error.message or "admission" in error.message
        assert stats.timeouts == 1
        assert stats.requests == 1  # the expired one never hit a solve


# --------------------------------------------------------------------------- #
# supervision: kill, restart, budget
# --------------------------------------------------------------------------- #


class TestSupervision:
    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_killed_worker_restarts_and_recovers(self, workers):
        plan = FaultPlan([KillWorker(shard=None, after_batches=0, times=1)])
        base = solve(fresh(TINY))

        async def main():
            config = ServiceConfig(
                shards=1, restart_backoff=0.01, workers=workers
            )
            async with SolveService(config, faults=plan) as svc:
                with pytest.raises(ServiceError) as err:
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                results = [
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                    for _ in range(3)
                ]
                return err.value, results, svc.stats()

        error, results, stats = run(main())
        assert error.code == "internal"
        assert error.retryable is True  # solves are pure: safe to resubmit
        assert all(r.makespan == base.makespan and r.T == base.T for r in results)
        assert stats.restarts == 1 and stats.worker_deaths == 1
        assert stats.failed_shards == 0
        assert plan.fired["kill_worker"] == 1

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_restart_budget_respected_then_failed(self, workers):
        plan = FaultPlan([KillWorker(shard=0, after_batches=0, times=5)])

        async def main():
            config = ServiceConfig(
                shards=1, max_restarts=1, restart_backoff=0.01, workers=workers
            )
            async with SolveService(config, faults=plan) as svc:
                codes = []
                for _ in range(4):
                    try:
                        await svc.submit(SolveRequest(instance=fresh(TINY)))
                        codes.append("ok")
                    except ServiceError as exc:
                        codes.append(exc.code)
                    await asyncio.sleep(0.05)  # let deaths/restarts settle
                return codes, svc.stats()

        codes, stats = run(main())
        assert codes[0] == "internal"
        assert "ok" not in codes  # every dispatch is killed until failure
        assert stats.restarts == 1  # exactly the budget, never more
        assert stats.worker_deaths == 2  # original + the one restart
        assert stats.failed_shards == 1
        assert stats.shards[0].failed is True

    def test_failed_shard_rejects_immediately(self):
        plan = FaultPlan([KillWorker(shard=0, after_batches=0, times=2)])

        async def main():
            config = ServiceConfig(shards=1, max_restarts=0)
            async with SolveService(config, faults=plan) as svc:
                with pytest.raises(ServiceError):
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                await asyncio.sleep(0.05)
                start = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                elapsed = time.monotonic() - start
                return err.value, elapsed, svc.stats()

        error, elapsed, stats = run(main())
        assert error.code == "internal" and "failed" in error.message
        assert elapsed < 1.0  # fail fast, no queueing behind a dead worker
        assert stats.failed_shards == 1 and stats.restarts == 0


# --------------------------------------------------------------------------- #
# process isolation: wedges, SIGKILL, graceful degradation
# --------------------------------------------------------------------------- #


class TestProcessBackend:
    """Crash containment only a process boundary can give (the tentpole).

    The wedge tests pin down the documented backend contrast: a thread
    cannot preempt a non-cooperative busy loop (the deadline only lands
    at the *next* probe boundary, after the wedge ends), while a process
    shard SIGKILLs the wedged child at deadline + ``hard_kill_grace_ms``
    and answers immediately with a structured ``timeout``.
    """

    def test_thread_cannot_preempt_wedge(self):
        plan = FaultPlan([WedgeSolve(seconds=1.2, after_items=0, times=1)])

        async def main():
            config = ServiceConfig(shards=1, workers="thread")
            async with SolveService(config, faults=plan) as svc:
                start = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    await svc.submit(
                        SolveRequest(instance=fresh(TINY), timeout_ms=100)
                    )
                return err.value, time.monotonic() - start

        error, elapsed = run(main())
        assert error.code == "timeout"
        # The whole wedge ran before cancellation could land: no preemption.
        assert elapsed >= 1.0, elapsed
        assert plan.fired["wedge_solve"] == 1

    def test_thread_wedge_is_shed_at_shutdown(self):
        """Thread backend's only escape from a wedge: abandon it at close."""
        plan = FaultPlan([WedgeSolve(seconds=1.5, after_items=0, times=1)])

        async def main():
            shard = Shard(
                0, max_batch=1, max_instances=4, faults=plan, queue_bound=64
            )
            shard.start()
            loop = asyncio.get_running_loop()
            wedged = loop.create_future()
            item = SolveRequest(instance=fresh(TINY)).to_item()
            shard.submit(_Work(item=item, future=wedged, loop=loop))
            await asyncio.sleep(0.3)  # worker is now spinning in the wedge
            await loop.run_in_executor(None, lambda: shard.close(join_timeout=0.1))
            with pytest.raises(ServiceError) as err:
                await asyncio.wait_for(wedged, timeout=1.0)
            return err.value, shard

        error, shard = run(main())
        assert error.code == "shutdown" and error.retryable is True
        # The abandoned worker spins the wedge out in the background;
        # reap it so later tests' thread-leak sweeps see a clean slate.
        assert shard._join_workers(5.0)

    def test_process_hard_kills_wedge_at_deadline(self):
        # A wedge far longer than the test budget: only SIGKILL can end it.
        plan = FaultPlan([WedgeSolve(seconds=30.0, after_items=0, times=1)])

        async def main():
            config = ServiceConfig(
                shards=1, workers="process", hard_kill_grace_ms=100,
                restart_backoff=0.01,
            )
            async with SolveService(config, faults=plan) as svc:
                start = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    await svc.submit(
                        SolveRequest(instance=fresh(TINY), timeout_ms=300)
                    )
                elapsed = time.monotonic() - start
                # The replacement child must not re-fire the consumed
                # wedge (fault state lives in the parent, not the child).
                result = await svc.submit(SolveRequest(instance=fresh(TINY)))
                return err.value, elapsed, result, svc.stats()

        error, elapsed, result, stats = run(main())
        assert error.code == "timeout"
        assert elapsed < 10.0, elapsed  # killed at ~0.4s, never 30s
        assert result.makespan == solve(fresh(TINY)).makespan
        assert stats.worker_deaths >= 1
        assert stats.failed_shards == 0 and stats.degraded_shards == ()
        assert plan.fired["wedge_solve"] == 1

    def test_sigkill_mid_burst_is_contained(self):
        """Acceptance: SIGKILL mid-burst -> structured retryable errors,
        restarted shard, reconciled stats, zero hung clients."""
        plan = FaultPlan([SigKill(shard=0, after_batches=1, times=1)])
        base = solve(fresh(TINY))

        async def main():
            config = ServiceConfig(
                shards=1, max_batch=2, workers="process", restart_backoff=0.01
            )
            async with SolveService(config, faults=plan) as svc:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            svc.submit(SolveRequest(instance=fresh(TINY)))
                            for _ in range(8)
                        ),
                        return_exceptions=True,
                    ),
                    timeout=120,  # zero hung clients, with CI headroom
                )
                follow_up = await svc.submit(SolveRequest(instance=fresh(TINY)))
                return outcomes, follow_up, svc.stats()

        outcomes, follow_up, stats = run(main())
        errors = [e for e in outcomes if isinstance(e, Exception)]
        served = [r for r in outcomes if not isinstance(r, Exception)]
        assert errors, "the SIGKILLed batch must surface errors"
        for exc in errors:  # structured and retryable, nothing else
            assert isinstance(exc, ServiceError)
            assert exc.code in ("internal", "timeout")
            assert exc.retryable is True
        for r in served + [follow_up]:
            assert r.makespan == base.makespan
        assert stats.worker_deaths >= 1 and stats.restarts >= 1
        assert stats.failed_shards == 0
        assert stats.requests == 9
        assert plan.fired["sigkill"] == 1

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_failed_shard_reroutes_to_survivors(self, workers):
        """Graceful degradation: a dead shard's range moves to survivors."""
        plan = FaultPlan([KillWorker(shard=0, after_batches=0, times=99)])
        pool = [
            uniform_instance(m=3, c=2, n_per_class=2, seed=s) for s in range(8)
        ]
        on_zero = [
            inst for inst in pool
            if shard_index(inst.fingerprint(), 2) == 0
        ]
        assert on_zero, "seed pool must cover shard 0"

        async def main():
            config = ServiceConfig(
                shards=2, max_batch=1, max_restarts=1, restart_backoff=0.01,
                workers=workers,
            )
            async with SolveService(config, faults=plan) as svc:
                errors = 0
                for _ in range(4):  # burn the restart budget on shard 0
                    try:
                        await svc.submit(
                            SolveRequest(instance=fresh(on_zero[0]))
                        )
                    except ServiceError:
                        errors += 1
                    await asyncio.sleep(0.05)
                rerouted = [
                    await svc.submit(SolveRequest(instance=fresh(inst)))
                    for inst in on_zero
                ]
                return errors, rerouted, svc.stats()

        errors, rerouted, stats = run(main())
        assert errors >= 2  # initial kill + the post-restart kill
        assert stats.failed_shards == 1
        assert stats.degraded_shards == (0,)
        assert stats.rerouted >= len(on_zero)
        for inst, result in zip(on_zero, rerouted):
            assert result.makespan == solve(fresh(inst)).makespan

    def test_injected_raise_replays_on_isolation_retry(self):
        # Directives are adjudicated once in the parent and replayed on
        # the child's per-item isolation retry: the offender fails
        # deterministically (no thread-style transient recovery), later
        # requests are untouched.
        plan = FaultPlan([RaiseInBatch(after_items=0, times=1)])
        base = solve(fresh(TINY))

        async def main():
            config = ServiceConfig(shards=1, workers="process")
            async with SolveService(config, faults=plan) as svc:
                with pytest.raises(ServiceError) as err:
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                ok = await svc.submit(SolveRequest(instance=fresh(TINY)))
                return err.value, ok

        error, ok = run(main())
        assert error.code == "internal"
        assert "injected" not in error.message  # generic text only
        assert ok.makespan == base.makespan
        assert plan.fired["raise_in_batch"] == 1


# --------------------------------------------------------------------------- #
# isolation of injected batch failures
# --------------------------------------------------------------------------- #


class TestBatchFaults:
    def test_persistent_raise_is_internal_only_for_offender(self):
        # times=2: the batch dispatch *and* the per-item retry both fail,
        # so the offender surfaces as internal; later requests recover.
        plan = FaultPlan([RaiseInBatch(after_items=0, times=2)])
        base = solve(fresh(TINY))

        async def main():
            async with SolveService(ServiceConfig(shards=1), faults=plan) as svc:
                with pytest.raises(ServiceError) as err:
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                ok = await svc.submit(SolveRequest(instance=fresh(TINY)))
                return err.value, ok

        error, ok = run(main())
        assert error.code == "internal" and error.retryable is False
        assert "injected" not in error.message  # generic message only
        assert ok.makespan == base.makespan
        assert plan.fired["raise_in_batch"] == 2

    def test_transient_raise_recovered_by_item_retry(self):
        plan = FaultPlan([RaiseInBatch(after_items=0, times=1)])
        base = solve(fresh(TINY))

        async def main():
            async with SolveService(ServiceConfig(shards=1), faults=plan) as svc:
                return await svc.submit(SolveRequest(instance=fresh(TINY)))

        result = run(main())
        assert result.makespan == base.makespan
        assert plan.fired["raise_in_batch"] == 1


# --------------------------------------------------------------------------- #
# load shedding
# --------------------------------------------------------------------------- #


class TestShedding:
    def test_full_queue_sheds_retryably_and_retry_succeeds(self):
        # Block the single worker with a delayed solve, then burst past
        # the queue bound: the overflow must shed as `overloaded`.
        plan = FaultPlan([DelaySolve(seconds=0.4, after_items=0, times=1)])
        base = solve(fresh(TINY))

        async def main():
            config = ServiceConfig(
                shards=1, max_batch=1, queue_bound=2, max_inflight=32
            )
            async with SolveService(config, faults=plan) as svc:
                blocker = asyncio.create_task(
                    svc.submit(SolveRequest(instance=fresh(TINY)))
                )
                await asyncio.sleep(0.1)  # worker is now inside the delay
                outcomes = await asyncio.gather(
                    *(
                        svc.submit(SolveRequest(instance=fresh(TINY)))
                        for _ in range(8)
                    ),
                    return_exceptions=True,
                )
                shed = [
                    e for e in outcomes
                    if isinstance(e, ServiceError) and e.code == "overloaded"
                ]
                served = [r for r in outcomes if not isinstance(r, Exception)]
                await blocker
                retries = [
                    await svc.submit(SolveRequest(instance=fresh(TINY)))
                    for _ in shed
                ]
                return shed, served, retries, svc.stats()

        shed, served, retries, stats = run(main())
        assert shed, "expected at least one shed request"
        assert all(e.retryable for e in shed)
        assert stats.shed == len(shed)
        for r in served + retries:
            assert r.makespan == base.makespan  # bit-identical either way
        # Accounting: every submitted unit is either served or shed.
        assert len(served) + len(shed) == 8


# --------------------------------------------------------------------------- #
# shutdown never hangs clients
# --------------------------------------------------------------------------- #


class TestShutdownResolution:
    def test_close_resolves_futures_when_worker_outlives_join(self):
        """Satellite: a wedged worker must not take its clients with it."""
        plan = FaultPlan([DelaySolve(seconds=1.5, after_items=0, times=1)])

        async def main():
            shard = Shard(
                0, max_batch=1, max_instances=4, faults=plan, queue_bound=64
            )
            shard.start()
            loop = asyncio.get_running_loop()
            inflight = loop.create_future()
            queued = loop.create_future()
            item = SolveRequest(instance=fresh(TINY)).to_item()
            shard.submit(_Work(item=item, future=inflight, loop=loop))
            await asyncio.sleep(0.2)  # worker is now sleeping in the delay
            shard.submit(_Work(item=item, future=queued, loop=loop))
            # Join far shorter than the injected delay: the worker is
            # still alive when close() gives up on it.
            await loop.run_in_executor(None, lambda: shard.close(join_timeout=0.1))
            with pytest.raises(ServiceError) as err_in:
                await asyncio.wait_for(inflight, timeout=1.0)
            with pytest.raises(ServiceError) as err_q:
                await asyncio.wait_for(queued, timeout=1.0)
            return err_in.value, err_q.value

        err_in, err_q = run(main())
        assert err_in.code == "shutdown" and err_in.retryable is True
        assert err_q.code == "shutdown" and err_q.retryable is True

    def test_aclose_is_clean_without_faults(self):
        # Baseline first: the wedged-worker test above deliberately leaves
        # a daemon thread sleeping; only *new* threads count as leaks.
        before = {t.ident for t in threading.enumerate()}

        async def main():
            svc = SolveService(ServiceConfig(shards=2))
            svc.start()
            result = await svc.submit(SolveRequest(instance=fresh(TINY)))
            await svc.aclose()
            return result

        result = run(main())
        assert result.makespan == solve(fresh(TINY)).makespan
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("repro-shard") and t.ident not in before
        ]


# --------------------------------------------------------------------------- #
# the wire: structured codes, no internal leaks, armed CLI
# --------------------------------------------------------------------------- #


class TestWire:
    def test_error_codes_closed_set(self):
        assert set(ERROR_CODES) == {
            "bad_request", "timeout", "overloaded", "shutdown", "internal"
        }
        with pytest.raises(ValueError, match="unknown error code"):
            ServiceError("weird", "nope")

    def test_internal_details_never_reach_the_wire(self):
        """Injected failure text must stay server-side (satellite fix)."""
        plan = FaultPlan([RaiseInBatch(after_items=0, times=10,
                                       message="secret traceback detail")])

        async def main():
            async with SolveService(ServiceConfig(shards=1), faults=plan) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                obj = {"id": 1, "instance": instance_to_obj(fresh(TINY))}
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                raw = (await reader.readline()).decode()
                writer.close()
                server.close()
                await server.wait_closed()
                return raw

        raw = run(main())
        reply = json.loads(raw)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "internal"
        assert "secret" not in raw and "traceback" not in raw

    def test_timeout_ms_validation_on_the_wire(self):
        from repro.service.protocol import (
            TIMEOUT_MS_MAX,
            ProtocolError,
            request_from_obj,
        )

        # 10**400 overflows the engine's float seconds; it must stop here.
        for bad in (0, -5, 1.5, True, "100", 10**400, TIMEOUT_MS_MAX + 1):
            with pytest.raises(ProtocolError, match="timeout_ms"):
                request_from_obj(
                    {"instance": instance_to_obj(fresh(TINY)), "timeout_ms": bad}
                )
        for good in (250, TIMEOUT_MS_MAX):
            req = request_from_obj(
                {"instance": instance_to_obj(fresh(TINY)), "timeout_ms": good}
            )
            assert req.timeout_ms == good


class TestArmedCli:
    def test_faults_flag_arms_the_subprocess(self, tmp_path):
        plan = FaultPlan([RaiseInBatch(after_items=0, times=2)])
        payload = "".join(
            json.dumps(obj) + "\n"
            for obj in (
                {"id": 1, "instance": instance_to_obj(fresh(TINY))},
                {"id": 2, "instance": instance_to_obj(fresh(TINY))},
            )
        )
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--shards", "1",
             "--faults", json.dumps(plan.to_obj())],
            input=payload, capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines() if line]
        assert [r["id"] for r in replies] == [1, 2]
        assert replies[0]["ok"] is False
        assert replies[0]["error"]["code"] == "internal"
        assert "injected" not in replies[0]["error"]["message"]
        assert replies[1]["ok"] is True
        ref = solve(fresh(TINY))
        assert parse_time(replies[1]["results"][0]["makespan"]) == ref.makespan

    def test_bad_faults_flag_is_a_clean_cli_error(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--faults", "not json"],
            input="", capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2  # argparse usage error
        assert "--faults" in proc.stderr

    @pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="POSIX only")
    def test_sigterm_drains_tcp_server(self):
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--tcp", "127.0.0.1:0",
             "--shards", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stderr.readline()
            assert "listening on" in banner, banner
            host, port = banner.rsplit(" ", 1)[-1].strip().rsplit(":", 1)

            async def ask():
                reader, writer = await asyncio.open_connection(host, int(port))
                obj = {"id": 1, "instance": instance_to_obj(fresh(TINY))}
                writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                reply = json.loads(await reader.readline())
                writer.close()
                return reply

            reply = run(asyncio.wait_for(ask(), timeout=60))
            assert reply["ok"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0  # graceful drain, clean exit
        finally:
            if proc.poll() is None:  # pragma: no cover - only on failure
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
