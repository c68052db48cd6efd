"""The benchmark's named workloads: traffic generators plus service set-up.

Each workload turns ``--seed`` into a fixed list of distinct request
bodies (JSON objects without ``id``), a warm-up order and a timed
sequence of body indices.  The service only ever sees the encoded lines.
The timed sequence is cycled when a run outlasts it; a line's ``id`` is
its position in the sequence, so every reply can be checked against a
reference for that position.  Why each workload was chosen is recorded
in ``BENCHMARK.json``; the predictions below spell out which layer
metric should move which end-to-end metric on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.generators import uniform_instance
from repro.service.protocol import instance_to_obj

VARIANTS = ("nonpreemptive", "preemptive", "splittable")


@dataclass(frozen=True)
class Traffic:
    bodies: list[dict]   # distinct request objects, no "id"
    warmup: list[int]    # body indices sent during set-up
    timed: list[int]     # body indices of the timed sequence (cycled)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ServiceConfig keyword arguments.
    service: dict
    #: Which per-layer metric should move which end-to-end metric here.
    predictions: tuple[str, ...]
    #: Layer-budget groups this workload claims dominate (see layers.py).
    claimed: tuple[str, ...]
    #: Layer-budget groups that must be exactly zero here.
    zero: tuple[str, ...]
    #: What the timed window must show in the cache counters.
    hit_ratio: float
    #: Whether the lockstep coordinator must fuse probe rows.
    needs_fused: bool
    traffic: Callable[[int], Traffic]


def _instance(m: int, c: int, per_class: int, seed: int, tmax: int = 50) -> dict:
    return instance_to_obj(uniform_instance(m, c, per_class, seed=seed, tmax=tmax))


def _warm_schedules(seed: int) -> Traffic:
    """6 large fingerprints x machine counts {m/2, m, m+4} x 3 variants."""
    rng = random.Random(seed)
    m = 16
    pool = [_instance(m, 40, 20, seed=seed * 100 + k) for k in range(6)]
    counts = (m // 2, m, m + 4)
    bodies, index = [], {}
    for k, inst in enumerate(pool):
        for mm in counts:
            for variant in VARIANTS:
                index[k, mm, variant] = len(bodies)
                bodies.append({
                    "instance": dict(inst, m=mm), "variant": variant,
                    "algorithm": "three_halves",
                })
    timed = [
        index[rng.randrange(len(pool)), rng.choice(counts), VARIANTS[i % 3]]
        for i in range(1200)
    ]
    return Traffic(bodies, list(range(len(bodies))), timed)


def _bounds_lockstep(seed: int) -> Traffic:
    """16 many-class fingerprints; 3/2 and eps=1/1000 alternate; 1 in 5 sweeps."""
    rng = random.Random(seed)
    c = 300
    pool = [
        _instance(c + rng.randint(-20, 20), c, 2, seed=seed * 100 + k, tmax=20)
        for k in range(16)
    ]
    bodies, index = [], {}
    for k, inst in enumerate(pool):
        m = inst["m"]
        for variant in VARIANTS:
            for algo in ("three_halves", "eps"):
                for sweep in (False, True):
                    body = {"instance": inst, "variant": variant,
                            "algorithm": algo, "bounds_only": True}
                    if algo == "eps":
                        body["eps"] = [1, 1000]
                    if sweep:
                        body["ms"] = [m // 2, m, m + 20]
                    index[k, variant, algo, sweep] = len(bodies)
                    bodies.append(body)
    timed = [
        index[rng.randrange(len(pool)), VARIANTS[(i // 2) % 3],
              ("three_halves", "eps")[i % 2], i % 5 == 4]
        for i in range(2400)
    ]
    return Traffic(bodies, list(range(len(bodies))), timed)


def _cold_process(seed: int) -> Traffic:
    """Every timed request a distinct c=60 fingerprint; one in four full schedules."""
    rng = random.Random(seed)
    bodies = []
    for i in range(2400 + 16):
        body = {
            "instance": _instance(rng.randint(8, 32), 60, 10, seed=seed * 100000 + i),
            "variant": VARIANTS[i % 3],
            "algorithm": "three_halves",
        }
        # Not half and half: the two kinds take about 1 and 3 ms, and a
        # median that falls in the gap between them jumps from run to run.
        if i % 4:
            body["bounds_only"] = True
        bodies.append(body)
    # The first 16 bodies warm the child up; the timed ones are never
    # seen before, and cycling the timed list revisits a fingerprint only
    # after 2400 others, far past the 8-entry LRU.
    return Traffic(bodies, list(range(16)), list(range(16, len(bodies))))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="warm-schedules",
            service=dict(workers="thread", shards=2, max_instances=16),
            predictions=(
                "protocol.encode_us -> throughput_rps, latency_p50_ms",
                "construct.splittable_us, construct.preemptive_us, "
                "construct.nonpreemptive_us -> throughput_rps, latency_p50_ms",
                "shards.queue_ms_mean, shards.assembly_ms_mean, "
                "shards.solve_ms_mean -> latency_p50_ms",
                "cache.hit_ratio == 1 (flat)",
            ),
            claimed=("construct", "encode"),
            zero=(),
            hit_ratio=1.0,
            needs_fused=False,
            traffic=_warm_schedules,
        ),
        Workload(
            name="bounds-lockstep",
            service=dict(workers="thread", shards=2, max_instances=16, xbatch=True),
            predictions=(
                "search.bounds_us, search.probes_per_req, search.memo_hit_ratio "
                "-> throughput_rps",
                "xbatch.fused_share, xbatch.rounds_per_batch, "
                "xbatch.lockstep_us_per_item -> throughput_rps",
                "shards.batch_size_mean -> throughput_rps",
                "engine.admission_ms_mean -> latency_p90_ms",
                "protocol.encode_us flat; construct.* == 0 (control for construction work)",
            ),
            claimed=("search",),
            zero=("construct",),
            hit_ratio=1.0,
            needs_fused=True,
            traffic=_bounds_lockstep,
        ),
        Workload(
            name="cold-process",
            service=dict(workers="process", shards=1, max_instances=8),
            predictions=(
                "protocol.parse_us, protocol.request_bytes -> throughput_rps",
                "instance.ctx_build_us -> throughput_rps",
                "shards.other_ms_mean -> latency_p50_ms (pipe round trip)",
                "cache.hit_ratio == 0, cache.evictions_per_req == 1 (flat)",
            ),
            claimed=("parse", "ctx_build", "other"),
            zero=(),
            hit_ratio=0.0,
            needs_fused=False,
            traffic=_cold_process,
        ),
    )
}
