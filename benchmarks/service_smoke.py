"""Service smoke harness: ``python benchmarks/service_smoke.py``.

Boots ``python -m repro.service`` as a real subprocess (stdio JSON-lines
front end, 4 shards, deliberately tight ``--max-instances 1``), fires a
mixed 50-request burst (all three variants, full-schedule and
bounds-only singles, machine-range sweeps, across four instance
fingerprints), and asserts:

* **bit-identity** — every response equals the naive in-process
  ``solve()`` loop's answer, field for field (schedules compared as
  sorted row multisets); the burst repeats its four payloads over one
  connection, so this covers the ingest hit path, whose premise is
  checked by name (the ``metrics`` op counts ``ingest.hit > 0``);
* **bounded memory** — the reported LRU peak stays at or under the
  configured bound and eviction actually ran (two of the burst's four
  fingerprints share a shard, which has a single warm slot; that premise
  is checked by name first, since shard placement follows the
  fingerprint's encoding), and the subprocess's peak RSS stays under a
  generous ceiling;
* **liveness/ordering** — one response line per request, ids echoed in
  request order;
* **bounded lines** — one line of the burst is longer than
  ``LINE_LIMIT`` and gets exactly one ``bad_request`` naming the limit
  in its place, every other reply unchanged.

``--faults`` switches to the **chaos smoke**: the same subprocess
harness armed with each fixed :meth:`FaultPlan.preset` in turn (worker
kills, injected delays against short deadlines, in-batch raises, a
non-cooperative wedge against short deadlines, a client that drops its
connection mid-burst — plus mid-batch SIGKILLs under the process
backend) and asserts the robustness contract — the run finishes within
a bounded wall time, every request resolves as either a bit-identical
answer or a structured error from the closed taxonomy,
restart/timeout/shed counters reconcile with the observed errors, and
the server always exits cleanly.  Its TCP session sends one
over-limit line too, with the same check.

``--workers process`` runs every scenario against the process-isolated
shard backend instead of worker threads; the assertions are identical
(the two backends are bit-compatible by contract).

``--xbatch`` boots the service with the cross-instance fused dual-test
path (``--xbatch`` on the server command line) in whichever mode is
selected — including chaos, so the fault presets also exercise the
lockstep coordinator.  Every assertion is unchanged: the fused path is
bit-identical by contract, so the same reference answers must come back.

Used by CI on both dependency footprints (numpy and minimal — the
service must behave identically on the scalar tier), in both modes and
with both backends.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algos.api import solve  # noqa: E402
from repro.core.bounds import Variant  # noqa: E402
from repro.core.instance import Instance  # noqa: E402
from repro.experiments.scaling import service_burst, service_pool  # noqa: E402
from repro.generators import uniform_instance  # noqa: E402
from repro.service.faults import FaultPlan  # noqa: E402
from repro.service.protocol import (  # noqa: E402
    ERROR_CODES,
    instance_from_obj,
    instance_to_obj,
    parse_time,
)
from repro.service.server import LINE_LIMIT  # noqa: E402
from repro.service.shards import shard_index  # noqa: E402

BURST_SIZE = 50
SHARDS = 4
MAX_RSS_KIB = 600_000  # ~586 MiB — an order of magnitude above observed (~40 MiB)
CHAOS_BURST = 16
CHAOS_WALL_S = 120.0  # hard per-scenario ceiling: chaos must stay bounded
ENV = dict(
    os.environ,
    PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")
    + os.pathsep
    + os.environ.get("PYTHONPATH", ""),
)


#: Where the over-limit line goes among the burst's request lines.
OVERSIZE_AT = 20


def oversize_line() -> str:
    """A ping padded past ``LINE_LIMIT`` bytes: without the bound it
    would be answered with a pong."""
    head = '{"op": "ping", "id": "oversize"'
    return head + " " * (LINE_LIMIT + 1 - len(head)) + "}"


def check_oversize_reply(reply: dict) -> None:
    """The one reply an over-limit line gets: a ``bad_request`` naming the
    limit."""
    assert reply["id"] is None and reply["ok"] is False, (
        f"over-limit line answered {reply}"
    )
    assert reply["error"]["code"] == "bad_request"
    assert reply["error"]["retryable"] is False
    assert str(LINE_LIMIT) in reply["error"]["message"], reply["error"]


def build_requests() -> list[dict]:
    inst = uniform_instance(m=8, c=12, n_per_class=6, seed=101)
    burst = service_burst(service_pool(inst), rounds=1)[:BURST_SIZE]
    out = []
    for k, req in enumerate(burst):
        obj = {
            "id": k,
            "instance": instance_to_obj(req.instance),
            "variant": req.variant.value,
            "schedules": req.schedules,
        }
        if req.ms is not None:
            obj["ms"] = list(req.ms)
        out.append(obj)
    return out


def reference_results(obj: dict) -> list:
    inst = Instance(
        m=obj["instance"]["m"],
        setups=tuple(obj["instance"]["setups"]),
        jobs=tuple(map(tuple, obj["instance"]["jobs"])),
    )
    ms = obj.get("ms", [inst.m])
    variant = Variant(obj["variant"])  # solve() dispatches on identity
    return [
        solve(Instance(m=m, setups=inst.setups, jobs=inst.jobs), variant)
        for m in ms
    ]


def schedule_key(sched_obj: dict) -> list[tuple]:
    scale = sched_obj["scale"]
    return sorted(
        (m, Fraction(s, scale), Fraction(l, scale), c, j)
        for m, s, l, c, j in zip(
            sched_obj["machine"], sched_obj["start_num"], sched_obj["length_num"],
            sched_obj["cls"], sched_obj["job_idx"],
        )
    )


def reference_schedule_key(schedule) -> list[tuple]:
    return sorted(
        (p.machine, p.start, p.length, p.cls, -1 if p.job is None else p.job.idx)
        for p in schedule.iter_all()
    )


def check_metrics_replies(json_reply: dict, prom_reply: dict,
                          n_requests: int) -> None:
    """The two ``metrics`` exposition variants, shape- and sanity-checked."""
    assert json_reply["ok"] and json_reply["id"] == "metrics"
    metrics = json_reply["metrics"]
    assert sorted(metrics["stages"]) == sorted(
        ["admission", "queue", "assembly", "solve", "encode", "total"]
    ), f"unexpected stage set: {sorted(metrics['stages'])}"
    for stage in ("admission", "queue", "solve", "total"):
        hist = metrics["stages"][stage]
        assert hist["count"] == n_requests, (
            f"stage {stage}: observed {hist['count']} of {n_requests} requests"
        )
        # the wire shape is all-int so merges stay exact
        assert isinstance(hist["total_us"], int)
        assert all(isinstance(b, int) for b in hist["buckets"])
    counters = metrics["counters"]
    assert any(k.startswith("probe.") for k in counters), (
        f"no probe counters in {sorted(counters)}"
    )
    assert prom_reply["ok"] and prom_reply["id"] == "metrics-prom"
    text = prom_reply["metrics_text"]
    assert "# TYPE repro_stage_seconds histogram" in text
    assert 'repro_stage_seconds_count{stage="solve"}' in text


def smoke(workers: str = "thread", xbatch: bool = False) -> int:
    requests = build_requests()
    lines = [json.dumps(o) for o in requests]
    lines.insert(OVERSIZE_AT, oversize_line())
    lines.append(json.dumps({"id": "stats", "op": "stats"}))
    lines.append(json.dumps({"id": "metrics", "op": "metrics"}))
    lines.append(json.dumps(
        {"id": "metrics-prom", "op": "metrics", "format": "prometheus"}
    ))
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.service",
            "--shards", str(SHARDS), "--max-instances", "1",
            "--workers", workers,
        ]
        + (["--xbatch"] if xbatch else []),
        input="\n".join(lines) + "\n",
        capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert proc.returncode == 0, f"service exited {proc.returncode}: {proc.stderr}"
    replies = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    assert len(replies) == len(lines), (
        f"expected {len(lines)} response lines, got {len(replies)}"
    )
    check_oversize_reply(replies.pop(OVERSIZE_AT))
    assert [r["id"] for r in replies[:-3]] == [o["id"] for o in requests], (
        "responses out of request order"
    )
    check_metrics_replies(replies[-2], replies[-1], len(requests))
    counters = replies[-2]["metrics"]["counters"]
    hits, misses = counters.get("ingest.hit", 0), counters.get("ingest.miss", 0)
    assert hits + misses == len(requests), (
        f"ingest counted {hits} hits + {misses} misses for {len(requests)} requests"
    )
    assert hits > 0, (
        "hit-path premise: the burst repeats its payloads over one connection, "
        f"so some must skip the checks; got {misses} misses and no hit"
    )

    solves = bounds = 0
    for obj, reply in zip(requests, replies):
        assert reply["ok"], f"request {obj['id']} failed: {reply.get('error')}"
        refs = reference_results(obj)
        got = reply["results"]
        assert len(got) == len(refs), f"request {obj['id']}: result count mismatch"
        for res, ref in zip(got, refs):
            assert parse_time(res["T"]) == ref.T, f"request {obj['id']}: T mismatch"
            assert parse_time(res["ratio_bound"]) == ref.ratio_bound
            assert parse_time(res["opt_lower_bound"]) == ref.opt_lower_bound
            if res["kind"] == "solve":
                solves += 1
                assert parse_time(res["makespan"]) == ref.makespan
                assert schedule_key(res["schedule"]) == reference_schedule_key(
                    ref.schedule
                ), f"request {obj['id']}: schedule rows differ"
            else:
                bounds += 1

    stats_reply = replies[-3]
    assert stats_reply["ok"] and stats_reply["id"] == "stats"
    stats = stats_reply["stats"]
    assert stats["requests"] == len(requests)
    assert stats["peak_instances"] <= stats["max_instances"], (
        f"LRU peak {stats['peak_instances']} exceeded bound {stats['max_instances']}"
    )
    homes = [shard_index(fp, SHARDS) for fp in dict.fromkeys(
        instance_from_obj(obj["instance"]).fingerprint() for obj in requests
    )]
    assert len(set(homes)) < len(homes), (
        f"eviction premise: two of the burst's {len(homes)} fingerprints must "
        f"share one of the {SHARDS} shards, got shards {homes}"
    )
    assert stats["evictions"] > 0, "burst was sized to force at least one eviction"
    maxrss = stats.get("maxrss_kib")
    if maxrss is not None:
        assert maxrss < MAX_RSS_KIB, f"service RSS {maxrss} KiB over {MAX_RSS_KIB} KiB"
    assert stats["workers"] == workers
    mode = f"{workers}+xbatch" if xbatch else workers
    print(
        f"service smoke ok [{mode}]: {len(requests)} requests "
        f"({solves} schedules, {bounds} bounds) bit-identical; peak warm "
        f"{stats['peak_instances']}/{stats['max_instances']}, "
        f"{stats['evictions']} evictions, batches {stats['batches']}, "
        f"ingest hits {hits}/{len(requests)}, maxrss {maxrss} KiB"
    )
    return 0


# --------------------------------------------------------------------------- #
# chaos mode: the fixed FaultPlan preset set
# --------------------------------------------------------------------------- #


def chaos_requests(timeout_ms: int | None = None) -> list[dict]:
    """A small deterministic burst over two fingerprints (chaos payload)."""
    pool = [
        uniform_instance(m=3, c=3, n_per_class=3, seed=7),
        uniform_instance(m=4, c=2, n_per_class=4, seed=9),
    ]
    out = []
    for k in range(CHAOS_BURST):
        inst = pool[k % len(pool)]
        obj = {
            "id": k,
            "instance": instance_to_obj(inst),
            "variant": Variant.NONPREEMPTIVE.value,
            "schedules": k % 3 != 0,
        }
        if timeout_ms is not None:
            obj["timeout_ms"] = timeout_ms
        out.append(obj)
    return out


def check_reply(obj: dict, reply: dict, expect_codes: set[str]) -> str:
    """One chaos reply: bit-identical answer, or a well-formed error.

    Returns the outcome — ``"ok"`` or the error code — for accounting.
    """
    assert reply["id"] == obj["id"], f"id mismatch: {reply} vs {obj}"
    if reply["ok"]:
        refs = reference_results(obj)
        got = reply["results"]
        assert len(got) == len(refs)
        for res, ref in zip(got, refs):
            assert parse_time(res["T"]) == ref.T, f"request {obj['id']}: T mismatch"
            assert parse_time(res["ratio_bound"]) == ref.ratio_bound
            assert parse_time(res["opt_lower_bound"]) == ref.opt_lower_bound
            if res["kind"] == "solve":
                assert parse_time(res["makespan"]) == ref.makespan
                assert schedule_key(res["schedule"]) == reference_schedule_key(
                    ref.schedule
                ), f"request {obj['id']}: schedule rows differ"
        return "ok"
    error = reply["error"]
    assert isinstance(error, dict), f"unstructured error: {error!r}"
    assert error["code"] in ERROR_CODES, f"unknown code {error['code']!r}"
    assert error["code"] in expect_codes, (
        f"request {obj['id']}: unexpected {error['code']!r} "
        f"(allowed: {sorted(expect_codes)}): {error['message']}"
    )
    assert isinstance(error["retryable"], bool)
    return error["code"]


def reconcile(stats: dict, outcomes: list[str]) -> None:
    """Counters must account for every shed / timed-out / restarted unit."""
    assert stats["timeouts"] == outcomes.count("timeout"), (
        f"stats.timeouts={stats['timeouts']} vs "
        f"{outcomes.count('timeout')} timeout replies"
    )
    assert stats["shed"] == outcomes.count("overloaded")
    assert stats["restarts"] <= 3  # the default max_restarts bound
    assert stats["worker_deaths"] >= stats["restarts"]
    assert stats["failed_shards"] == 0, "chaos presets stay within the budget"


def run_stdio_scenario(name: str, expect_codes: set[str],
                       timeout_ms: int | None = None,
                       workers: str = "thread",
                       xbatch: bool = False) -> str:
    plan = FaultPlan.preset(name)
    objs = chaos_requests(timeout_ms)
    lines = [json.dumps(o) for o in objs]
    lines.append(json.dumps({"id": "stats", "op": "stats"}))
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.service",
            "--shards", "1", "--max-batch", "2",
            "--workers", workers,
            "--faults", json.dumps(plan.to_obj()),
        ]
        + (["--xbatch"] if xbatch else []),
        input="\n".join(lines) + "\n",
        capture_output=True, text=True, env=ENV, timeout=CHAOS_WALL_S,
    )
    wall = time.monotonic() - start
    assert wall < CHAOS_WALL_S, f"{name}: wall {wall:.1f}s over bound"
    assert proc.returncode == 0, f"{name}: exited {proc.returncode}: {proc.stderr}"
    replies = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    assert len(replies) == len(objs) + 1, (
        f"{name}: expected {len(objs) + 1} replies, got {len(replies)}"
    )
    outcomes = [
        check_reply(obj, reply, expect_codes)
        for obj, reply in zip(objs, replies)
    ]
    stats_reply = replies[-1]
    assert stats_reply["ok"] and stats_reply["id"] == "stats"
    reconcile(stats_reply["stats"], outcomes)
    errors = len(outcomes) - outcomes.count("ok")
    assert errors > 0, f"{name}: the injected fault never surfaced"
    return (
        f"{name}: {outcomes.count('ok')} ok / {errors} structured errors, "
        f"deaths {stats_reply['stats']['worker_deaths']}, "
        f"restarts {stats_reply['stats']['restarts']}, "
        f"timeouts {stats_reply['stats']['timeouts']}, wall {wall:.1f}s"
    )


def run_drop_scenario(workers: str = "thread", xbatch: bool = False) -> str:
    """Client vanishes mid-burst; the server must shrug and keep serving."""
    plan = FaultPlan.preset("drop")
    drop_after = plan.drop_connection_after()
    objs = chaos_requests()
    start = time.monotonic()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--tcp", "127.0.0.1:0", "--shards", "1",
            "--workers", workers,
        ]
        + (["--xbatch"] if xbatch else []),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
    )
    try:
        banner = proc.stderr.readline()
        assert "listening on" in banner, f"no banner: {banner!r}"
        host, port = banner.rsplit(" ", 1)[-1].strip().rsplit(":", 1)

        async def drive():
            # Connection 1: pipeline `drop_after` requests, vanish unread.
            _, writer = await asyncio.open_connection(host, int(port))
            for obj in objs[:drop_after]:
                writer.write((json.dumps(obj) + "\n").encode())
            await writer.drain()
            writer.close()
            # Connection 2: the rest of the burst with one over-limit
            # line after its first request, read everything.
            reader, writer = await asyncio.open_connection(host, int(port))
            lines = [json.dumps(obj) for obj in objs[drop_after:]]
            lines.insert(1, oversize_line())
            lines.append(json.dumps({"id": "stats", "op": "stats"}))
            lines.append(json.dumps({"id": "bye", "op": "shutdown"}))
            writer.write(("\n".join(lines) + "\n").encode())
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in lines]
            writer.close()
            return replies

        replies = asyncio.run(asyncio.wait_for(drive(), timeout=CHAOS_WALL_S))
        check_oversize_reply(replies.pop(1))
        tail = objs[drop_after:]
        outcomes = [
            check_reply(obj, reply, set()) for obj, reply in zip(tail, replies)
        ]
        assert outcomes == ["ok"] * len(tail)  # a dropped peer harms nobody
        stats_reply = replies[len(tail)]
        assert stats_reply["ok"]
        reconcile(stats_reply["stats"], outcomes)
        assert replies[-1]["bye"] is True
        assert proc.wait(timeout=CHAOS_WALL_S) == 0
        wall = time.monotonic() - start
        assert wall < CHAOS_WALL_S, f"drop: wall {wall:.1f}s over bound"
        return (
            f"drop: dropped after {drop_after}, {len(tail)} follow-up ok, "
            f"clean exit, wall {wall:.1f}s"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def chaos(workers: str = "thread", xbatch: bool = False) -> int:
    summaries = [
        run_stdio_scenario("kill", {"internal"}, workers=workers,
                           xbatch=xbatch),
        # 100 ms budget vs two injected 250 ms stalls on one worker:
        # the stalled solves and everything queued behind them time out.
        run_stdio_scenario("delay", {"timeout"}, timeout_ms=100,
                           workers=workers, xbatch=xbatch),
        run_stdio_scenario("raise", {"internal"}, workers=workers,
                           xbatch=xbatch),
        # A non-cooperative 1 s busy wedge against 600 ms budgets (long
        # enough to survive a process-backend child spawn, short enough
        # to die inside the wedge): threads surface the timeouts once the
        # wedge ends; processes hard-kill the wedged child at deadline +
        # grace and restart it.
        run_stdio_scenario("wedge", {"timeout"}, timeout_ms=600,
                           workers=workers, xbatch=xbatch),
        run_drop_scenario(workers=workers, xbatch=xbatch),
    ]
    if workers == "process":
        # Mid-batch SIGKILL is process-specific: a thread backend has no
        # child to kill, so the fault would never fire there.
        summaries.append(
            run_stdio_scenario("sigkill", {"internal", "timeout"},
                               workers=workers, xbatch=xbatch)
        )
    mode = f"{workers}+xbatch" if xbatch else workers
    for line in summaries:
        print(f"chaos {line}")
    print(f"service chaos ok [{mode}]: {len(summaries)} scenarios, "
          f"every response bit-identical or structured")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--faults", action="store_true",
        help="run the chaos smoke (fixed FaultPlan presets) instead",
    )
    parser.add_argument(
        "--workers", choices=["thread", "process"], default="thread",
        help="shard worker backend to smoke (default thread)",
    )
    parser.add_argument(
        "--xbatch", action="store_true",
        help="boot the service with the fused cross-instance dual-test "
             "path (same assertions: fused answers are bit-identical)",
    )
    args = parser.parse_args(argv)
    if args.faults:
        return chaos(args.workers, xbatch=args.xbatch)
    return smoke(args.workers, xbatch=args.xbatch)


if __name__ == "__main__":
    raise SystemExit(main())
