"""repro.obs — tracing scopes, mergeable metrics, and the service wiring.

The observability layer's contract mirrors :mod:`repro.core.cancel`:
armed or disarmed, it must be **bit-identity-invisible** to every
numeric path, and disarmed seams must stay a thread-local read plus a
``None`` check.  These tests pin down

* the primitives: log-bucketed :class:`Histogram` (exact all-int merge),
  :class:`Metrics` (single-writer counters + pre-populated stages),
  :class:`TraceScope` nesting/propagation with injectable clocks,
  :class:`TraceWriter` JSONL sinks, Prometheus rendering, and
  :class:`RequestTimes` stage arithmetic;
* the seams: ``solve()`` under an armed scope returns the same bits and
  fills the counter glossary;
* the service: thread and process backends expose **identical** metric
  shapes, the ``metrics`` wire op serves both formats, queue depth and
  in-flight gauges ride ``stats``, slow requests log a taxonomy-safe
  stage breakdown, and the child worker's numbers ride home on result
  frames;
* the fault hook's injectable clock/sleep; and the ``obs`` experiment
  summarizer over trace files.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from fractions import Fraction

import pytest

from repro.algos.api import solve
from repro.core.bounds import Variant
from repro.core.instance import Instance
from repro.experiments import render_obs_summary, summarize_trace
from repro.obs import (
    STAGES,
    Histogram,
    Metrics,
    RequestTimes,
    TraceScope,
    TraceWriter,
    count,
    count_probe,
    current_scope,
    render_prometheus,
    span,
)
from repro.service import ServiceConfig, SolveService
from repro.service.faults import execute_directive
from repro.service.protocol import (
    METRICS_FORMATS,
    ProtocolError,
    SolveRequest,
    metrics_line,
)
from repro.service.server import handle_lines

TINY = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])
WIDE = Instance.build(3, [(1, [2, 5]), (3, [1, 1, 4]), (2, [3])])


def fresh(inst: Instance) -> Instance:
    return Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)


# --------------------------------------------------------------------------- #
# histogram primitives
# --------------------------------------------------------------------------- #


class TestHistogram:
    def test_bucket_is_bit_length_of_microseconds(self):
        hist = Histogram()
        for us, bucket in [(0, 0), (1, 1), (2, 2), (3, 2), (4, 3), (1023, 10),
                           (1024, 11)]:
            hist.observe_us(us)
            assert hist.buckets[bucket] >= 1, f"{us}us -> bucket {bucket}"
        assert hist.count == 7
        assert hist.total_us == 0 + 1 + 2 + 3 + 4 + 1023 + 1024

    def test_negative_clamps_to_zero(self):
        hist = Histogram()
        hist.observe_us(-5)
        assert hist.buckets[0] == 1 and hist.total_us == 0

    def test_observe_seconds_is_integer_microseconds(self):
        hist = Histogram()
        hist.observe(0.0015)  # 1500 us -> bit_length 11
        assert hist.total_us == 1500
        assert hist.buckets[11] == 1

    def test_merge_is_exact_and_grows(self):
        a, b = Histogram(), Histogram()
        a.observe_us(3)
        b.observe_us(1_000_000)
        a.merge(b)
        assert a.count == 2
        assert a.total_us == 1_000_003
        assert a.buckets[2] == 1 and a.buckets[20] == 1

    def test_round_trip_and_merge_equivalence(self):
        a = Histogram()
        for us in (0, 7, 7, 129, 10**7):
            a.observe_us(us)
        b = Histogram.from_obj(json.loads(json.dumps(a.to_obj())))
        assert b.to_obj() == a.to_obj()
        # merging a wire copy doubles everything exactly
        a.merge(b)
        assert a.count == 10 and a.total_us == 2 * b.total_us

    def test_quantiles_conservative_bucket_bounds(self):
        hist = Histogram()
        assert hist.quantile_us(0.5) is None
        for us in (1, 1, 1, 1000):  # bucket 1 x3, bucket 10 x1
            hist.observe_us(us)
        assert hist.quantile_us(0.5) == Histogram.bucket_le_us(1) == 1
        assert hist.quantile_us(0.99) == Histogram.bucket_le_us(10) == 1023

    def test_all_wire_fields_are_ints(self):
        hist = Histogram()
        hist.observe(0.25)
        obj = hist.to_obj()
        assert isinstance(obj["count"], int)
        assert isinstance(obj["total_us"], int)
        assert all(isinstance(n, int) for n in obj["buckets"])


class TestMetrics:
    def test_stage_keys_exist_from_construction(self):
        assert sorted(Metrics().to_obj()["stages"]) == sorted(STAGES)

    def test_counters_and_stage_observations(self):
        metrics = Metrics()
        metrics.inc("memo.hit")
        metrics.inc("memo.hit", 4)
        metrics.add_counts({"memo.call": 2, "memo.hit": 1})
        metrics.observe("solve", 0.001)
        obj = metrics.to_obj()
        assert obj["counters"] == {"memo.call": 2, "memo.hit": 6}
        assert obj["stages"]["solve"]["count"] == 1
        assert obj["stages"]["queue"]["count"] == 0

    def test_merge_and_merged_round_trip(self):
        a, b = Metrics(), Metrics()
        a.inc("x")
        a.observe_us("queue", 10)
        b.inc("x", 2)
        b.inc("y")
        b.observe_us("queue", 1000)
        merged = Metrics.merged([
            Metrics.from_obj(a.to_obj()), Metrics.from_obj(b.to_obj()),
        ])
        obj = merged.to_obj()
        assert obj["counters"] == {"x": 3, "y": 1}
        assert obj["stages"]["queue"]["count"] == 2
        assert obj["stages"]["queue"]["total_us"] == 1010


class TestRequestTimes:
    def test_stage_ms_skips_unreached_stages(self):
        times = RequestTimes()
        times.submit, times.admitted = 1.0, 1.010
        times.done = 1.5
        stages = times.stage_ms()
        assert stages == {"admission": 10.0, "total": 500.0}

    def test_full_journey(self):
        times = RequestTimes()
        times.submit, times.admitted = 0.0, 0.001
        times.enqueued, times.dequeued = 0.001, 0.011
        times.solve_start, times.solve_end = 0.012, 0.112
        times.done = 0.113
        stages = times.stage_ms()
        assert stages["queue"] == 10.0
        assert stages["assembly"] == 1.0
        assert stages["solve"] == 100.0
        assert stages["total"] == 113.0


class TestPrometheusRendering:
    def test_counters_and_histogram_family(self):
        metrics = Metrics()
        metrics.inc("probe.accept.binary", 3)
        metrics.observe_us("solve", 100)
        text = render_prometheus(metrics.to_obj())
        assert "repro_probe_accept_binary_total 3" in text
        assert "# TYPE repro_stage_seconds histogram" in text
        assert 'repro_stage_seconds_count{stage="solve"} 1' in text
        assert 'repro_stage_seconds_sum{stage="solve"} 0.000100' in text
        # cumulative buckets end with +Inf == count
        assert 'repro_stage_seconds_bucket{stage="solve",le="+Inf"} 1' in text

    def test_bucket_bounds_are_log_edges(self):
        metrics = Metrics()
        metrics.observe_us("encode", 3)  # bucket 2, le (2^2-1)/1e6
        text = render_prometheus(metrics.to_obj())
        assert 'repro_stage_seconds_bucket{stage="encode",le="0.000003"} 1' in text


# --------------------------------------------------------------------------- #
# tracing scopes
# --------------------------------------------------------------------------- #


class TestTraceScope:
    def test_disarmed_seams_are_noops(self):
        assert current_scope() is None
        count("memo.hit")
        count_probe("accept", "binary", 5)
        with span("nothing"):
            pass  # records nowhere

    def test_counts_and_probe_keys(self):
        with TraceScope() as scope:
            count("memo.hit")
            count("memo.hit", 2)
            count_probe("accept", "binary", 4)
            count_probe("", None, 1)
        assert scope.counts == {
            "memo.hit": 3, "probe.accept.binary": 4, "probe.-.-": 1,
        }
        assert current_scope() is None

    def test_nesting_propagates_by_default(self):
        with TraceScope("outer") as outer:
            count("a")
            with TraceScope("inner") as inner:
                count("a")
                count("b")
                assert current_scope() is inner
            assert current_scope() is outer
        assert outer.counts == {"a": 2, "b": 1}
        assert inner.counts == {"a": 1, "b": 1}

    def test_propagate_false_isolates(self):
        with TraceScope("outer") as outer:
            with TraceScope("inner", propagate=False) as inner:
                count("only.inner")
            count("only.outer")
        assert outer.counts == {"only.outer": 1}
        assert inner.counts == {"only.inner": 1}

    def test_spans_record_through_injected_clock(self):
        ticks = iter([10.0, 10.5])
        with TraceScope(clock=lambda: next(ticks)) as scope:
            with span("batch", n=3):
                pass
        assert scope.spans == [{"name": "batch", "t0": 10.0, "dur": 0.5, "n": 3}]

    def test_nested_spans_fold_into_outer_scope(self):
        clock = iter([1.0, 2.0]).__next__
        with TraceScope("outer") as outer:
            with TraceScope("inner", clock=clock):
                with span("work"):
                    pass
        assert [s["name"] for s in outer.spans] == ["work"]

    def test_snapshot_is_a_copy(self):
        with TraceScope("s") as scope:
            count("k")
        snap = scope.snapshot()
        snap["counts"]["k"] = 99
        assert scope.counts["k"] == 1
        assert snap["name"] == "s"


class TestTraceWriter(object):
    def test_jsonl_round_trip_and_drop_after_close(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path) as writer:
            writer.write({"name": "batch", "n": 1})
            writer.write({"name": "batch", "n": 2})
        writer.write({"name": "late", "n": 3})  # after close: dropped, no error
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(l) for l in fh]
        assert [r["n"] for r in lines] == [1, 2]


# --------------------------------------------------------------------------- #
# the seams: armed tracing is invisible and informative
# --------------------------------------------------------------------------- #


class TestSolverSeams:
    @pytest.mark.parametrize("kernel", ["fast", "fraction"])
    def test_armed_solve_bit_identical_and_counted(self, kernel):
        inst = fresh(WIDE)
        for variant in Variant:
            bare = solve(fresh(WIDE), variant, kernel=kernel)
            with TraceScope() as scope:
                armed = solve(fresh(WIDE), variant, kernel=kernel)
            assert armed.T == bare.T
            assert armed.makespan == bare.makespan
            assert armed.ratio_bound == bare.ratio_bound
            key = lambda res: sorted(
                (p.machine, p.start, p.length, p.cls, p.job)
                for p in res.schedule.iter_all()
            )
            assert key(armed) == key(bare)
            assert any(k.startswith("probe.") for k in scope.counts), (
                variant, scope.counts,
            )

    def test_batch_dispatch_counters(self):
        from repro.algos.batch_api import BatchItem, solve_batch

        # every solve counts one dispatch decision; the non-preemptive
        # search has no grid, so its bounds-only dispatch is scalar
        items = [BatchItem(instance=fresh(TINY), variant=Variant.NONPREEMPTIVE,
                           schedules=False)]
        with TraceScope() as scope:
            solve_batch(items)
        assert scope.counts.get("dispatch.scalar", 0) >= 1

    def test_itemstore_emit_counter(self):
        with TraceScope() as scope:
            solve(fresh(TINY), Variant.NONPREEMPTIVE)
        assert scope.counts.get("itemstore.emit", 0) >= 1

    def test_grid_row_counters(self, monkeypatch):
        from repro.core import xbatch

        monkeypatch.setattr(xbatch, "HAVE_NUMPY", False)
        inst = fresh(TINY)
        rows = [(0, 5, 1), (0, 7, 1), (0, 9, 1)]
        with TraceScope() as scope:
            xbatch.BatchDualContext([inst]).evaluate("split", "", rows)
        assert scope.counts == {"xbatch.rows_scalar": 3}


# --------------------------------------------------------------------------- #
# the service: identical shapes on both backends
# --------------------------------------------------------------------------- #


def _requests(n: int = 6) -> list:
    pool = [TINY, WIDE]
    return [
        SolveRequest(
            instance=fresh(pool[k % 2]),
            variant=list(Variant)[k % 3],
            schedules=(k % 2 == 0),
            id=k,
        )
        for k in range(n)
    ]


def _service_metrics(workers: str) -> tuple[dict, object]:
    async def main():
        config = ServiceConfig(
            shards=2, max_batch=3, max_instances=2, workers=workers,
        )
        async with SolveService(config) as svc:
            await svc.submit_many(_requests())
            return svc.metrics_obj(), svc.stats()

    return asyncio.run(main())


class TestServiceMetrics:
    def test_thread_and_process_expose_identical_shapes(self):
        thread_obj, thread_stats = _service_metrics("thread")
        process_obj, process_stats = _service_metrics("process")
        for obj in (thread_obj, process_obj):
            assert sorted(obj["stages"]) == sorted(STAGES)
            for stage in ("admission", "queue", "assembly", "solve", "total"):
                assert obj["stages"][stage]["count"] == 6, (stage, obj)
        # the solver counters agree in kind across backends (values can
        # differ only through memo warmth, not through shape)
        assert set(thread_obj["counters"]) == set(process_obj["counters"])
        assert any(k.startswith("probe.") for k in thread_obj["counters"])
        # satellite gauges drain back to zero after the burst
        for stats in (thread_stats, process_stats):
            assert stats.queue_depth == 0 and stats.inflight == 0
            obj = stats.to_obj()
            assert obj["queue_depth"] == 0 and obj["inflight"] == 0
            assert all("queue_depth" in s and "inflight" in s
                       for s in obj["shards"])

    def test_admission_covers_the_routing_digest(self, monkeypatch):
        """The stage clock starts before the request's fingerprint is taken."""
        digest = Instance.fingerprint

        def slow_digest(instance):
            time.sleep(0.021)
            return digest(instance)

        monkeypatch.setattr(Instance, "fingerprint", slow_digest)

        async def main():
            async with SolveService(ServiceConfig(shards=1)) as svc:
                await svc.submit(SolveRequest(instance=fresh(TINY), schedules=False))
                return svc.metrics_obj()

        admission = asyncio.run(main())["stages"]["admission"]
        assert admission["count"] == 1
        assert admission["total_us"] >= 20_000

    def test_trace_writer_collects_batch_spans(self, tmp_path):
        path = str(tmp_path / "svc-trace.jsonl")

        async def main():
            writer = TraceWriter(path)
            config = ServiceConfig(shards=2, max_batch=3, max_instances=2)
            async with SolveService(config, trace=writer) as svc:
                await svc.submit_many(_requests())
            writer.close()

        asyncio.run(main())
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(l) for l in fh]
        assert records, "no spans written"
        assert all(r["name"].startswith("shard") for r in records)
        assert sum(r["n"] for r in records) == 6
        assert all(isinstance(r["counts"], dict) for r in records)


class TestSlowRequestLog:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="slow_ms"):
            ServiceConfig(slow_ms=0)
        with pytest.raises(ValueError, match="slow_ms"):
            ServiceConfig(slow_ms=True)
        assert ServiceConfig(slow_ms=250).slow_ms == 250

    def test_slow_request_logged_taxonomy_safe(self, caplog):
        svc = SolveService(ServiceConfig(slow_ms=100))
        request = SolveRequest(instance=fresh(TINY))
        times = RequestTimes()
        times.submit, times.admitted = 0.0, 0.01
        times.done = 0.25  # 250 ms >= 100 ms
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            svc._maybe_log_slow(request, "fp1234", times)
        [record] = caplog.records
        message = record.getMessage()
        assert "fingerprint=fp1234" in message
        assert "total_ms=250.000" in message
        assert "admission" in message and "solve" not in message
        # taxonomy-safe: no instance payload in the line
        assert "jobs" not in message and "setups" not in message

    def test_fast_request_not_logged(self, caplog):
        svc = SolveService(ServiceConfig(slow_ms=1000))
        times = RequestTimes()
        times.submit, times.done = 0.0, 0.05
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            svc._maybe_log_slow(SolveRequest(instance=fresh(TINY)), "fp", times)
        assert not caplog.records


# --------------------------------------------------------------------------- #
# the wire: the metrics op on a live connection
# --------------------------------------------------------------------------- #


def _drive_lines(lines: list[str], config: ServiceConfig) -> list[dict]:
    async def main():
        out: list[str] = []
        feed = [line.encode() + b"\n" for line in lines] + [b""]
        it = iter(feed)

        async def readline() -> bytes:
            return next(it)

        async def write_line(line: str) -> None:
            out.append(line)

        async with SolveService(config) as svc:
            await handle_lines(svc, readline, write_line)
        return [json.loads(line) for line in out]

    return asyncio.run(main())


class TestMetricsWireOp:
    def test_json_prometheus_and_bad_format(self):
        from repro.service.protocol import instance_to_obj

        lines = [
            json.dumps({"id": 0, "instance": instance_to_obj(TINY)}),
            json.dumps({"id": "m", "op": "metrics"}),
            json.dumps({"id": "p", "op": "metrics", "format": "prometheus"}),
            json.dumps({"id": "bad", "op": "metrics", "format": "xml"}),
        ]
        replies = _drive_lines(lines, ServiceConfig(shards=1, max_instances=1))
        assert [r["id"] for r in replies] == [0, "m", "p", "bad"]
        assert replies[0]["ok"]
        metrics = replies[1]["metrics"]
        assert sorted(metrics["stages"]) == sorted(STAGES)
        assert metrics["stages"]["solve"]["count"] == 1
        assert metrics["stages"]["encode"]["count"] == 1
        assert "repro_stage_seconds" in replies[2]["metrics_text"]
        assert not replies[3]["ok"]
        assert replies[3]["error"]["code"] == "bad_request"

    def test_metrics_line_rejects_unknown_format(self):
        assert METRICS_FORMATS == ("json", "prometheus")
        with pytest.raises(ProtocolError, match="metrics format"):
            metrics_line(1, Metrics().to_obj(), "yaml")


# --------------------------------------------------------------------------- #
# child worker propagation: metrics and spans ride the result frame
# --------------------------------------------------------------------------- #


class TestProcworkerPropagation:
    def test_run_batch_fills_metrics_and_spans(self):
        from repro.service.procworker import run_batch

        metrics = Metrics()
        items = [
            SolveRequest(instance=fresh(TINY)).to_item(),
            SolveRequest(instance=fresh(WIDE)).to_item(),
        ]
        outcomes, record = run_batch(
            items, [None, None], reps=None, xbatch=False, before=None,
            metrics=metrics, name="shard0.batch",
        )
        assert [error for _, error in outcomes] == [None, None]
        obj = metrics.to_obj()
        assert obj["stages"]["solve"]["count"] == 2
        assert any(k.startswith("probe.") for k in obj["counters"])
        assert record["name"] == "shard0.batch" and record["n"] == 2
        assert record["counts"] == obj["counters"]

    def test_result_frame_carries_metrics_and_spans(self):
        from repro.service.procworker import WorkerProc, work_to_wire

        worker = WorkerProc(0, max_instances=4)
        worker.start()
        try:
            item = SolveRequest(instance=fresh(TINY)).to_item()
            worker.send_batch(1, [work_to_wire(item, None)])
            msg = worker.frames.get(timeout=30)
            assert msg[0] == "result" and msg[1] == 1
            met_obj, spans = msg[4], msg[5]
            assert met_obj["stages"]["solve"]["count"] == 1
            assert Metrics.from_obj(met_obj).to_obj() == met_obj
            assert [s["name"] for s in spans] == ["shard0.batch"]
        finally:
            worker.destroy()


# --------------------------------------------------------------------------- #
# fault hook: injectable time
# --------------------------------------------------------------------------- #


class TestFaultClockInjection:
    def test_delays_and_wedges_use_injected_time(self):
        slept: list[float] = []
        ticks = iter([0.0, 0.5, 1.1])
        execute_directive(
            {"delays": [0.25], "wedges": [1.0]},
            clock=lambda: next(ticks), sleep=slept.append,
        )
        assert slept == [0.25]  # never a real time.sleep
        with pytest.raises(StopIteration):
            next(ticks)  # the wedge consumed the fake clock to its end

    def test_raise_still_fires_after_injected_waits(self):
        with pytest.raises(RuntimeError, match="boom"):
            execute_directive(
                {"delays": [1.0], "raise": "boom"}, sleep=lambda _s: None,
            )


# --------------------------------------------------------------------------- #
# the obs experiment: trace-file digests
# --------------------------------------------------------------------------- #


class TestObsReport:
    RECORDS = [
        {"name": "shard0.batch", "t0": 0.0, "dur": 0.002, "n": 2,
         "counts": {"memo.hit": 3, "probe.accept.binary": 10}},
        {"name": "shard0.batch", "t0": 0.1, "dur": 0.004, "n": 1,
         "counts": {"memo.hit": 1}},
        {"name": "shard1.batch", "t0": 0.2, "dur": 0.001, "n": 1,
         "counts": {}},
    ]

    def test_summarize_trace_groups_and_merges(self):
        summary = summarize_trace(self.RECORDS)
        assert summary["items"] == 4
        assert summary["counts"] == {"memo.hit": 4, "probe.accept.binary": 10}
        group = summary["groups"]["shard0.batch"]
        assert group["batches"] == 2 and group["items"] == 3
        assert group["hist"].count == 2
        assert group["hist"].total_us == 6000

    def test_render_tolerates_torn_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = [json.dumps(r) for r in self.RECORDS] + ['{"name": "torn']
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        text = render_obs_summary(str(path))
        assert "shard0.batch" in text and "shard1.batch" in text
        assert "memo.hit" in text and "per item" in text

    def test_empty_trace_renders_gracefully(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert "no span records found" in render_obs_summary(str(path))
