"""End-to-end benchmark of the JSON-lines solve service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-schedules --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run generates its workload's request lines from ``--seed``, starts
a ``SolveService`` and drives it in-process through
``repro.service.server.handle_lines`` over one closed-loop connection
(see ``client.py``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the traced pass that splits the same traffic into
per-layer numbers (see ``layers.py``).  Every reply is checked after the
timed windows (see ``check.py``).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--output
FILE`` also appends the full record (run metadata included) to a JSON
lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WINDOWS = 5         # timed windows per run, each on a fresh service
MIN_TIMED = 1000    # requests per latency block


class SelfCheckError(RuntimeError):
    """The workload did not exercise what it claims to measure."""


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _has_numpy() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def run_meta(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "numpy": _has_numpy(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def _rss_mib(who: int) -> float:
    from repro.service.server import _normalize_maxrss

    return _normalize_maxrss(resource.getrusage(who).ru_maxrss, sys.platform) / 1024.0


def blocks(timed) -> list[tuple[int, int, float, float]]:
    """(first, stop, start time, host slowness) of each block of a timed phase.

    A block's slowness is the mean of the host readings at its two ends
    (see ``hostspeed.py``); blocks in which no request was sent are left out.
    """
    return [(n0, n1, t0, (s0 + s1) / 2)
            for (n0, t0, s0), (n1, _, s1) in zip(timed.marks, timed.marks[1:])
            if n1 > n0]


def latency_ms(windows: list[dict], q: float) -> float:
    """The q-quantile of request latency in ms: median over 1000-request blocks.

    Each latency is divided by its block's host slowness.  The run's
    requests are then cut, in send order, into blocks of at least
    ``MIN_TIMED``, and the median of the blocks' nearest-rank quantiles
    is reported.
    """
    latencies = []
    for window in windows:
        timed = window["timed"]
        raw = timed.latencies
        latencies += [x / slow for n0, n1, _, slow in blocks(timed) for x in raw[n0:n1]]
    count = max(1, len(latencies) // MIN_TIMED)
    size = len(latencies) // count
    per_block = []
    for k in range(count):
        block = sorted(latencies[k * size:(k + 1) * size])
        per_block.append(block[max(0, int(q * len(block) + 0.5) - 1)])
    return statistics.median(per_block) * 1e3


def throughput(windows: list[dict], scaled: bool = True) -> float:
    """Correct replies per second: the median rate over the client's blocks.

    A block's rate is its correct replies over the time from its start to
    its last reply, multiplied by its host slowness unless ``scaled`` is
    false.  A window's last block counts only if it lasted half a block.
    """
    from client import BLOCK_S

    rates = []
    for window in windows:
        timed = window["timed"]
        for n0, n1, t0, slow in blocks(timed):
            took = timed.recv[n1 - 1] - t0
            if took >= BLOCK_S / 2:
                rates.append(sum(window["correct"][n0:n1]) / took
                             * (slow if scaled else 1.0))
    return statistics.median(rates)


async def serve(workload, lines, warm_lines, windows, seconds, trace_file=None) -> dict:
    """``windows`` timed windows of ``seconds``, each on a freshly started service.

    A window's set-up time runs from the service start to the end of its
    warm-up pass, divided by the host slowness read just before and after.
    """
    from client import Connection
    from hostspeed import slowness
    from repro.obs.trace import TraceWriter
    from repro.service.engine import ServiceConfig, SolveService

    config = ServiceConfig(**workload.service)
    writer = TraceWriter(trace_file) if trace_file else None
    setup_times, done = [], []
    try:
        for _ in range(windows):
            slow = slowness()
            t0 = time.perf_counter()
            service = SolveService(config, trace=writer).start()
            try:
                conn = Connection(service)
                warm = await conn.run(warm_lines)
                took = time.perf_counter() - t0
                setup_times.append(took / ((slow + slowness()) / 2))
                before = await conn.snapshot()
                timed = await conn.run(lines, seconds, hashed=True)
                after = await conn.snapshot()
                rss = _rss_mib(resource.RUSAGE_SELF)
                await conn.close()
            finally:
                await service.aclose()
            done.append({"warm": warm.replies, "timed": timed,
                         "before": before, "after": after})
    finally:
        if writer is not None:
            writer.close()
    if config.workers == "process":  # reaped shard children count too
        rss = max(rss, _rss_mib(resource.RUSAGE_CHILDREN))
    return {"setup_times": setup_times, "windows": done, "rss_mib": rss}


def self_check(workload, layers: dict) -> None:
    hit = layers["cache.hit_ratio"]
    if hit != workload.hit_ratio:
        raise SelfCheckError(
            f"{workload.name}: cache.hit_ratio {hit:.4f} in the timed window, "
            f"expected {workload.hit_ratio}"
        )
    if workload.needs_fused and not layers["xbatch.fused_share"] > 0:
        raise SelfCheckError(
            f"{workload.name}: xbatch.fused_share is 0 (numpy missing? the "
            "lockstep coordinator fell back to scalar probes)"
        )


def check_windows(workload, checker, served: dict) -> tuple[int, int]:
    """(attempted, failed) over a served pass; self-checks every window."""
    from layers import service_layers

    attempted = failed = 0
    for window in served["windows"]:
        self_check(workload, service_layers(window["before"], window["after"]))
        timed = window["timed"]
        window["correct"] = checker.check_timed(timed.replies)
        checker.check_warmup(window["warm"])
        attempted += len(timed.sent)
        failed += len(timed.sent) - sum(window["correct"])
    return attempted, failed


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    from check import Checker
    from layers import budget, direct_layers, service_layers

    traffic = workload.traffic(seed)
    lines = [json.dumps(dict(traffic.bodies[b], id=pos), separators=(",", ":")).encode()
             for pos, b in enumerate(traffic.timed)]
    warm_lines = [json.dumps(dict(traffic.bodies[b], id=f"w{k}"),
                             separators=(",", ":")).encode()
                  for k, b in enumerate(traffic.warmup)]
    checker = Checker(traffic)
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "meta": run_meta(seed)}

    if not trace:
        served = asyncio.run(serve(workload, lines, warm_lines, WINDOWS,
                                   seconds / WINDOWS))
        attempted, failed = check_windows(workload, checker, served)
        windows = served["windows"]
        metrics = {
            "throughput_rps": throughput(windows),
            "latency_p50_ms": latency_ms(windows, 0.50),
            "latency_p90_ms": latency_ms(windows, 0.90),
            "setup_s": statistics.median(served["setup_times"]),
            "peak_rss_mib": served["rss_mib"],
        }
        kind = "end_to_end"
    else:
        half = seconds / 2
        plain = asyncio.run(serve(workload, lines, warm_lines, 1, half))
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            traced = asyncio.run(serve(workload, lines, warm_lines, 1, half,
                                       trace_file=os.path.join(tmp, "trace.jsonl")))
        attempted, failed = check_windows(workload, checker, plain)
        more, more_failed = check_windows(workload, checker, traced)
        attempted, failed = attempted + more, failed + more_failed

        window = plain["windows"][0]
        metrics = service_layers(window["before"], window["after"])
        metrics.update(direct_layers(workload, traffic, lines, checker,
                                     len(window["timed"].sent), seed))
        parts = budget(metrics)
        rps = throughput(plain["windows"])
        metrics["trace.coverage"] = ((sum(parts.values()) - parts["other"]) / 1e6
                                     * throughput(plain["windows"], scaled=False))
        metrics["trace.overhead_share"] = 1.0 - throughput(traced["windows"]) / rps
        total = sum(parts.values())
        claimed = sum(parts[g] for g in workload.claimed) / total
        record["budget_us"] = parts
        record["claimed_share"] = claimed
        record["rationale_holds"] = claimed > 0.5 and not any(
            parts[g] for g in workload.zero)
        record["predictions"] = list(workload.predictions)
        kind = "per_layer"
    if attempted < MIN_TIMED:
        print(f"warning: only {attempted} timed requests; latency blocks need "
              f"{MIN_TIMED}", file=sys.stderr)

    record.update(
        correct=failed == 0 and not checker.problems,
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        metrics={m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]},
        problems=checker.problems,
    )
    return record


def report(record: dict) -> None:
    """The human-readable block printed before the JSON result line."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  meta {json.dumps(record['meta'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<30} {record['error_rate']:>14.6g} share "
          f"({record['failed']} of {record['attempted']})")
    if record["trace"]:
        parts = record["budget_us"]
        total = sum(parts.values())
        print("  layer budget per request: " + ", ".join(
            f"{g} {us:.1f}us ({us / total:.0%})" for g, us in parts.items()))
        verdict = "holds" if record["rationale_holds"] else "MISMATCH"
        print(f"  rationale {verdict}: claimed layers have "
              f"{record['claimed_share']:.0%} of the budget")
        for line in record["predictions"]:
            print(f"  predicts: {line}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", help="append the full record to this JSON lines file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if hasattr(os, "sched_setaffinity"):
        # One CPU for the benchmark and the shard child it spawns, so that
        # the host-speed readings (hostspeed.py) time the CPU the work runs
        # on; with one request in flight the service uses one at a time.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {list(WORKLOADS)} or 'all'")
    records = []
    for name in names:
        try:
            record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace))
        except SelfCheckError as exc:
            print(f"self-check failed: {exc}", file=sys.stderr)
            return 3
        report(record)
        records.append(record)
        if args.output:
            with open(args.output, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
