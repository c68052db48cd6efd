"""Per-layer numbers for the traced pass.

Two sources, both outside ``src/``:

* the service's own ``stats`` and ``metrics`` wire ops, snapshotted
  before and after the timed window and subtracted (stage means, batch
  sizes, cache and solver counters);
* direct calls into each layer's public functions on a sample of the
  requests the timed window sent, timed here.  Means are taken per
  request of the mix, so a layer a request does not use counts as zero
  for it (``construct.*`` on bounds-only requests).

``instance.ctx_build_us`` is a request on a fresh instance minus the
same request on a warm one: ``Instance.fast_ctx()`` alone only copies
aggregates the parser already computed (a few µs), while a cache miss
also pays for the lazily built per-class views the solve reads.

The layer budget is one request's time split into parse, context build
(on cache misses only), search, construction, encode, and the service's
unattributed stage time ``shards.other_ms_mean``.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import replace

from repro.algos.batch_api import solve_batch
from repro.service.cache import InstanceLRU
from repro.service.protocol import instance_from_obj, request_from_obj, response_line

SAMPLE = 48
REPS = 5


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stage_ms(met0: dict, met1: dict, stage: str) -> float:
    h0, h1 = met0["stages"][stage], met1["stages"][stage]
    return _ratio(h1["total_us"] - h0["total_us"], h1["count"] - h0["count"]) / 1000.0


def service_layers(before: tuple[dict, dict], after: tuple[dict, dict]) -> dict:
    """Layer metrics from two ``(stats, metrics)`` wire snapshots."""
    (st0, met0), (st1, met1) = before, after

    def d_stat(key: str) -> int:
        return st1[key] - st0[key]

    c0, c1 = met0["counters"], met1["counters"]

    def d_count(key: str) -> int:
        return c1.get(key, 0) - c0.get(key, 0)

    def d_prefix(prefix: str) -> int:
        return sum(d_count(k) for k in c1 if k.startswith(prefix))

    requests, batches = d_stat("requests"), d_stat("batches")
    hits, misses = d_stat("cache_hits"), d_stat("cache_misses")
    stages = {s: _stage_ms(met0, met1, s)
              for s in ("admission", "queue", "assembly", "solve", "total")}
    fused, scalar = d_count("xbatch.rows_fused"), d_count("xbatch.rows_scalar")
    memo_hit, memo_call = d_count("memo.hit"), d_count("memo.call")
    return {
        "engine.admission_ms_mean": stages["admission"],
        "shards.queue_ms_mean": stages["queue"],
        "shards.assembly_ms_mean": stages["assembly"],
        "shards.solve_ms_mean": stages["solve"],
        "shards.other_ms_mean": stages["total"] - stages["admission"]
        - stages["queue"] - stages["assembly"] - stages["solve"],
        "shards.batch_size_mean": _ratio(requests, batches),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.evictions_per_req": _ratio(d_stat("evictions"), requests),
        "search.probes_per_req": _ratio(d_prefix("probe."), requests),
        "search.memo_hit_ratio": _ratio(memo_hit, memo_hit + memo_call),
        "xbatch.fused_share": _ratio(fused, fused + scalar),
        "xbatch.rounds_per_batch": _ratio(d_count("xbatch.fused_rounds"), batches),
    }


def _median_us(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def direct_layers(workload, traffic, lines, checker, sent: int, seed: int) -> dict:
    """Time each layer's public functions on a sample of the sent requests."""
    population = range(min(sent, len(traffic.timed)))
    positions = random.Random(seed).sample(population, min(SAMPLE, len(population)))
    lru = InstanceLRU(max_entries=len(positions))
    sums = dict.fromkeys((
        "protocol.parse_us", "protocol.request_bytes", "protocol.encode_us",
        "protocol.reply_bytes", "instance.ctx_build_us", "search.bounds_us",
        "construct.splittable_us", "construct.preemptive_us",
        "construct.nonpreemptive_us", "construct.rows_per_req",
    ), 0.0)
    bounds_items = []
    for pos in positions:
        body = traffic.bodies[traffic.timed[pos]]
        line = lines[pos]
        sums["protocol.request_bytes"] += len(line)
        sums["protocol.parse_us"] += _median_us(
            lambda: request_from_obj(json.loads(line)))
        request = request_from_obj(json.loads(line))

        bounds = replace(request.to_item(), schedules=False)
        bounds_items.append(bounds)
        solve_batch([bounds], reps=lru)
        bounds_us = warm_us = _median_us(lambda: solve_batch([bounds], reps=lru))
        sums["search.bounds_us"] += bounds_us
        if request.schedules:
            full = request.to_item()
            solve_batch([full], reps=lru)
            warm_us = _median_us(lambda: solve_batch([full], reps=lru))
            sums[f"construct.{request.variant.value}_us"] += max(0.0, warm_us - bounds_us)

        # What a cache miss adds: the same request on a fresh instance,
        # whose context and lazy per-class views are built on first use.
        fresh = [replace(request.to_item(), instance=instance_from_obj(body["instance"]))
                 for _ in range(REPS)]
        cold_us = _median_us(lambda: solve_batch([fresh.pop()]))
        sums["instance.ctx_build_us"] += max(0.0, cold_us - warm_us)

        result = checker.result(traffic.timed[pos])
        reply = response_line(pos, result)
        sums["protocol.reply_bytes"] += len(reply)
        sums["protocol.encode_us"] += _median_us(lambda: response_line(pos, result))
        for res in json.loads(reply)["results"]:
            if res["kind"] == "solve":
                sums["construct.rows_per_req"] += len(res["schedule"]["machine"])
    out = {k: v / len(positions) for k, v in sums.items()}

    out["xbatch.lockstep_us_per_item"] = 0.0
    if workload.service.get("xbatch"):
        items = bounds_items[:16]
        solve_batch(items, reps=lru, xbatch=True)
        out["xbatch.lockstep_us_per_item"] = _median_us(
            lambda: solve_batch(items, reps=lru, xbatch=True)) / len(items)
    return out


def budget(layers: dict) -> dict:
    """One request's time (µs) split into the layer groups workloads claim."""
    miss = 1.0 - layers["cache.hit_ratio"]
    return {
        "parse": layers["protocol.parse_us"],
        "ctx_build": layers["instance.ctx_build_us"] * miss,
        "search": layers["search.bounds_us"],
        "construct": sum(layers[f"construct.{v}_us"]
                         for v in ("splittable", "preemptive", "nonpreemptive")),
        "encode": layers["protocol.encode_us"],
        "other": max(0.0, layers["shards.other_ms_mean"] * 1000.0),
    }
