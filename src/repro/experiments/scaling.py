"""Experiment S1 — near-linear runtime scaling of all six algorithms.

Two extensions beyond the original experiment:

* every timed solve can run on either numeric tier (``kernel="fast"`` /
  ``"fraction"``), and :func:`render_kernel_scaling` reports the fitted
  exponents of both tiers side by side — the near-linear claim should
  (and does) hold for the scaled-integer kernel and the exact-rational
  reference alike;
* Experiment S2 (:func:`run_machine_sweep` / :func:`render_machine_sweep`)
  exercises the batched solve engine: one instance swept across machine
  counts through :func:`repro.algos.batch_api.sweep_machines`, timed
  against the equivalent loop of ``solve()`` calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..algos.api import solve, solve_point
from ..algos.batch_api import SweepPoint, sweep_machines
from ..analysis.complexity import ScalingFit, fit_loglog, time_algorithm
from ..analysis.reporting import fmt_time, format_table
from ..core.bounds import Variant
from ..core.instance import Instance
from ..generators import scaling_suite, uniform_instance

DEFAULT_SIZES = [100, 200, 400, 800, 1600]
KERNELS = ("fast", "fraction")


@dataclass(frozen=True)
class ScalingRow:
    label: str
    fit: ScalingFit


def algorithms(kernel: str = "fast") -> list[tuple[str, Callable[[Instance], object]]]:
    """The six timed algorithms, each solving on the requested kernel."""
    out: list[tuple[str, Callable[[Instance], object]]] = []
    for variant in Variant:
        out.append(
            (f"{variant}/two", lambda i, v=variant: solve(i, v, "two"))
        )
        out.append(
            (
                f"{variant}/eps",
                lambda i, v=variant, k=kernel: solve(i, v, "eps", kernel=k),
            )
        )
        out.append(
            (
                f"{variant}/three_halves",
                lambda i, v=variant, k=kernel: solve(i, v, "three_halves", kernel=k),
            )
        )
    return out


def run_scaling(
    sizes: list[int] | None = None, repeats: int = 2, kernel: str = "fast"
) -> list[ScalingRow]:
    sizes = sizes or DEFAULT_SIZES
    suite = scaling_suite(sizes)
    rows = []
    for label, fn in algorithms(kernel):
        points = time_algorithm(fn, suite, repeats=repeats)
        rows.append(ScalingRow(label=label, fit=fit_loglog(points)))
    return rows


def render_scaling(rows: list[ScalingRow] | None = None,
                   sizes: list[int] | None = None,
                   kernel: str = "fast") -> str:
    rows = rows if rows is not None else run_scaling(sizes, kernel=kernel)
    table_rows = []
    for r in rows:
        times = "  ".join(f"n={p.n}:{fmt_time(p.seconds)}" for p in r.fit.points)
        table_rows.append(
            [r.label, f"{r.fit.exponent:.2f}", f"{r.fit.r_squared:.3f}",
             "yes" if r.fit.is_near_linear() else "NO", times]
        )
    return format_table(
        ["algorithm", "fit exp b", "R^2", "near-linear?", "timings"],
        table_rows,
        title="Experiment S1: runtime scaling (time ~ a*n^b; paper claims b ≈ 1 "
              f"up to log factors for all six algorithms; kernel={kernel})",
    )


def run_scaling_kernels(
    sizes: list[int] | None = None, repeats: int = 2
) -> dict[str, list[ScalingRow]]:
    """S1 on both numeric tiers (same instances, same algorithms)."""
    return {kernel: run_scaling(sizes, repeats, kernel) for kernel in KERNELS}


def render_kernel_scaling(sizes: list[int] | None = None, repeats: int = 2) -> str:
    """Fast-vs-fraction fit exponents side by side (Experiment S1, both tiers)."""
    by_kernel = run_scaling_kernels(sizes, repeats)
    table_rows = []
    for fast_row, frac_row in zip(by_kernel["fast"], by_kernel["fraction"]):
        assert fast_row.label == frac_row.label
        fast_total = sum(p.seconds for p in fast_row.fit.points)
        frac_total = sum(p.seconds for p in frac_row.fit.points)
        speedup = frac_total / fast_total if fast_total else float("inf")
        table_rows.append(
            [
                fast_row.label,
                f"{fast_row.fit.exponent:.2f}",
                f"{frac_row.fit.exponent:.2f}",
                "yes" if fast_row.fit.is_near_linear() else "NO",
                "yes" if frac_row.fit.is_near_linear() else "NO",
                f"{speedup:.2f}x",
            ]
        )
    return format_table(
        ["algorithm", "b (fast)", "b (fraction)", "lin? (fast)",
         "lin? (fraction)", "fast speedup"],
        table_rows,
        title="Experiment S1b: fit exponents per numeric tier "
              "(both kernels must stay near-linear; speedup = Σt_fraction/Σt_fast)",
    )


# --------------------------------------------------------------------------- #
# Experiment S2 — machine-count sweeps through the batched engine
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepTiming:
    variant: Variant
    points: tuple[SweepPoint, ...]
    sweep_seconds: float    # sweep_machines(..., schedules=False)
    loop_seconds: float     # equivalent loop of full solve() calls

    @property
    def speedup(self) -> float:
        return self.loop_seconds / self.sweep_seconds if self.sweep_seconds else float("inf")


def run_machine_sweep(
    instance: Instance | None = None,
    ms: Sequence[int] | None = None,
    repeats: int = 2,
    kernel: str = "fast",
) -> list[SweepTiming]:
    """Time ``sweep_machines`` (bounds mode) against looped ``solve()``.

    The loop constructs a fresh instance per machine count — exactly what
    a caller without the sweep engine does via ``with_machines`` — while
    the sweep shares one cache set and skips schedule
    construction (the certified ``T*``/bound curve is the output).
    """
    instance = instance or uniform_instance(m=16, c=40, n_per_class=20, seed=202)
    ms = list(ms) if ms is not None else list(range(2, 2 * instance.m + 1, 2))
    out = []
    for variant in Variant:
        sweep_best = float("inf")
        loop_best = float("inf")
        points: tuple[SweepPoint, ...] = ()
        for _ in range(repeats):
            fresh = Instance(m=instance.m, setups=instance.setups, jobs=instance.jobs)
            t0 = time.perf_counter()
            points = tuple(
                sweep_machines(fresh, ms, variant, schedules=False, kernel=kernel)
            )
            sweep_best = min(sweep_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            for m in ms:
                solve(
                    Instance(m=m, setups=instance.setups, jobs=instance.jobs),
                    variant, "three_halves", kernel=kernel,
                )
            loop_best = min(loop_best, time.perf_counter() - t0)
        out.append(
            SweepTiming(
                variant=variant, points=points,
                sweep_seconds=sweep_best, loop_seconds=loop_best,
            )
        )
    return out


def render_machine_sweep(
    timings: list[SweepTiming] | None = None,
    instance: Instance | None = None,
    ms: Sequence[int] | None = None,
    kernel: str = "fast",
) -> str:
    timings = timings if timings is not None else run_machine_sweep(instance, ms, kernel=kernel)
    table_rows = []
    for t in timings:
        lo = min(p.m for p in t.points)
        hi = max(p.m for p in t.points)
        curve = "  ".join(
            f"m={p.m}:{p.T}" for p in t.points[:: max(1, len(t.points) // 4)]
        )
        table_rows.append(
            [
                str(t.variant),
                f"{lo}..{hi}",
                fmt_time(t.sweep_seconds),
                fmt_time(t.loop_seconds),
                f"{t.speedup:.2f}x",
                curve,
            ]
        )
    return format_table(
        ["variant", "machines", "sweep (bounds)", "looped solve()", "speedup",
         "T* curve (sampled)"],
        table_rows,
        title="Experiment S2: machine-count sweeps — batched engine vs looped solve "
              f"(kernel={kernel}; sweep returns certified T*/bound curves)",
    )


# --------------------------------------------------------------------------- #
# Experiment S3 — the splittable flip-search grid vs scalar probes
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GridTiming:
    c: int
    block: int            # candidates per batched grid call
    scalar_seconds: float
    grid_seconds: float

    @property
    def speedup(self) -> float:
        return self.scalar_seconds / self.grid_seconds if self.grid_seconds else float("inf")

    @property
    def work(self) -> int:
        """The auto-policy gate product ``block × c``."""
        return self.block * self.c


def run_grid_crossover(
    cs: Sequence[int] = (12, 40, 100, 200, 400),
    m: int = 24,
    repeats: int = 3,
) -> list[GridTiming]:
    """Bounds-only splittable sweeps per ``c``: grid evaluator off vs forced on.

    Only the splittable Class-Jumping flip search (``three_halves``) has
    a grid: it narrows candidate lists of ≤ c + 2 points in blocks, each
    block one :meth:`~repro.core.xbatch.BatchDualContext.evaluate` call
    on a one-member context, and the block×c column is exactly the
    quantity the auto policy gates on (see
    :data:`repro.algos.batch_api.GRID_POLICY`).  The policy alone picks
    the grid in the batch API, so each side forces its choice one level
    lower: every machine count is one
    :func:`~repro.algos.api.solve_point` call with ``grid`` set, on a
    cache-sharing copy of one fresh instance, as a sweep would solve it.
    Re-run after touching a dual-test tier and recalibrate the window
    from the winner column.  Requires numpy (the ``[batch]`` extra).
    """
    from ..algos.batch_api import _grid_block_estimate
    from ..core import xbatch

    if not xbatch.HAVE_NUMPY:
        raise RuntimeError("Experiment S3 requires numpy (pip install '.[batch]')")
    out = []
    for c in cs:
        inst = uniform_instance(m=m, c=c, n_per_class=2, seed=404)
        ms = list(range(2, 2 * m + 1, 3))
        best = {False: float("inf"), True: float("inf")}
        for grid in (False, True):
            for _ in range(repeats):
                fresh = Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)
                t0 = time.perf_counter()
                for machines in ms:
                    solve_point(
                        fresh.with_machines(machines, share_caches=True),
                        Variant.SPLITTABLE, schedules=False, grid=grid,
                    )
                best[grid] = min(best[grid], time.perf_counter() - t0)
        out.append(
            GridTiming(
                c=c,
                block=_grid_block_estimate(c),
                scalar_seconds=best[False],
                grid_seconds=best[True],
            )
        )
    return out


def render_grid_crossover(timings: list[GridTiming] | None = None) -> str:
    timings = timings if timings is not None else run_grid_crossover()
    table_rows = [
        [
            str(t.c),
            str(t.block),
            f"{t.work:,}",
            fmt_time(t.scalar_seconds),
            fmt_time(t.grid_seconds),
            f"{t.speedup:.2f}x",
            "grid" if t.speedup >= 1 else "scalar",
        ]
        for t in timings
    ]
    return format_table(
        ["classes c", "block", "block×c", "scalar probes", "grid blocks",
         "grid speedup", "winner"],
        table_rows,
        title="Experiment S3: splittable flip-search grid vs scalar probes "
              "(bounds-only machine sweeps; the auto policy gates on block×c "
              "— repro.algos.batch_api.GRID_POLICY)",
    )


# --------------------------------------------------------------------------- #
# Experiment S4 — Algorithm 6's construction tiers (ItemStore vs reference)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConstructTiming:
    n: int
    fast_seconds: float       # index-based ItemStore tier (PR 4)
    fraction_seconds: float   # per-item _It/Fraction reference

    @property
    def speedup(self) -> float:
        return (
            self.fraction_seconds / self.fast_seconds
            if self.fast_seconds
            else float("inf")
        )


def run_construction_scaling(
    sizes: Sequence[int] | None = None, repeats: int = 3
) -> list[ConstructTiming]:
    """Time ``nonp_dual_schedule`` at the accepted ``T*`` on both tiers.

    Isolates exactly the work PR 4 flattened — Algorithm 6's steps 1-4
    plus materialization and the ``rows()`` projection the wire encoder
    reads — with warmed caches, like one point of a full-schedule sweep.  The
    object-free :class:`~repro.core.itemstore.ItemStore` tier must stay
    near-linear *and* a large constant factor ahead of the per-item
    reference; ``benchmarks/run_bench.py`` pins the same quantity as the
    ``speedup/nonp-construct`` family.
    """
    from ..algos.api import solve_point
    from ..algos.nonpreemptive import nonp_dual_schedule

    sizes = list(sizes) if sizes is not None else [100, 200, 400, 800, 1600]
    out = []
    for n in sizes:
        c = max(2, n // 20)
        inst = uniform_instance(m=max(2, n // 50), c=c, n_per_class=n // c, seed=500 + n)
        T = solve_point(inst, Variant.NONPREEMPTIVE, schedules=False).T
        best = {"fast": float("inf"), "fraction": float("inf")}
        for kernel in KERNELS:
            for _ in range(repeats):
                t0 = time.perf_counter()
                nonp_dual_schedule(inst, T, kernel=kernel).rows()
                best[kernel] = min(best[kernel], time.perf_counter() - t0)
        out.append(
            ConstructTiming(
                n=inst.n, fast_seconds=best["fast"], fraction_seconds=best["fraction"]
            )
        )
    return out


def render_construction_scaling(
    timings: list[ConstructTiming] | None = None,
    sizes: Sequence[int] | None = None,
) -> str:
    timings = timings if timings is not None else run_construction_scaling(sizes)
    table_rows = [
        [
            str(t.n),
            fmt_time(t.fast_seconds),
            fmt_time(t.fraction_seconds),
            f"{t.speedup:.2f}x",
        ]
        for t in timings
    ]
    return format_table(
        ["jobs n", "ItemStore (fast)", "reference (fraction)", "speedup"],
        table_rows,
        title="Experiment S4: Algorithm 6 construction tiers at T* — "
              "index-based ItemStore vs per-item Fraction objects (PR 4)",
    )


# --------------------------------------------------------------------------- #
# Experiment S5 — service throughput vs shard count (repro.service)
# --------------------------------------------------------------------------- #


def service_pool(instance: Instance, distinct: int = 4) -> list[Instance]:
    """``distinct`` same-scale instances with distinct fingerprints.

    A service burst against a single instance exercises exactly one
    shard (fingerprint affinity); deriving a few perturbed siblings —
    every setup bumped, resp. every class's first job lengthened — keeps
    the workload at the fixture's size while spreading it across the
    shard ring the way distinct tenants would.
    """
    out = [instance]
    for bump in range(1, distinct):
        if bump % 2:
            nxt = Instance(
                m=instance.m,
                setups=tuple(s + bump for s in instance.setups),
                jobs=instance.jobs,
            )
        else:
            nxt = Instance(
                m=instance.m,
                setups=instance.setups,
                jobs=tuple((ts[0] + bump,) + ts[1:] for ts in instance.jobs),
            )
        out.append(nxt)
    return out


def service_stream_ms(m: int) -> list[int]:
    """The service-shaped machine-count stream used by every bench.

    Repeated and related counts around ``m`` — the request pattern of a
    tenant re-asking about the same fleet.  Single source for the
    ``many/`` bench family (``benchmarks/run_bench.py``) and the S5
    burst, so the families compare like-for-like streams.
    """
    half = max(1, m // 2)
    return [m, half, m, m + 4, m, half, m + 4, m, m, half, m, m + 4]


def service_burst(pool: Sequence[Instance], rounds: int = 2):
    """The deterministic *mixed* request burst of the service benches.

    Per round and pool instance: twelve single-solve requests over a
    service-shaped machine stream (repeats + related counts, all three
    variants, alternating full-schedule / bounds-only), plus one
    bounds-only machine-range request per variant (the capacity-planning
    sweep shape the ``ms`` field exists for — a naive server answers it
    with one full solve per machine count).  Requests carry fresh
    instance copies — warming them is the service's job, not the
    caller's.
    """
    from ..service.protocol import SolveRequest

    reqs = []
    k = 0
    for _ in range(max(1, rounds)):
        for instance in pool:
            m = instance.m
            for mm in service_stream_ms(m):
                reqs.append(
                    SolveRequest(
                        instance=instance.with_machines(mm),
                        variant=list(Variant)[k % 3],
                        schedules=(k % 2 == 0),
                        id=k,
                    )
                )
                k += 1
            ms = tuple(range(2, 2 * m + 1, max(1, m // 4)))
            for variant in Variant:
                reqs.append(
                    SolveRequest(
                        instance=instance.with_machines(m),
                        variant=variant,
                        schedules=False,
                        ms=ms,
                        id=k,
                    )
                )
                k += 1
    return reqs


def naive_request_loop(requests) -> None:
    """The no-service baseline: one fresh full ``solve()`` per answer unit.

    A machine-range request is answered count by count; bounds-only
    requests still pay a full solve — without the engine there is no
    cheaper certified path (the long-standing ``loop`` convention of
    ``benchmarks/run_bench.py``).
    """
    for req in requests:
        ms = req.ms if req.ms is not None else (req.instance.m,)
        for m in ms:
            solve(
                Instance(m=m, setups=req.instance.setups, jobs=req.instance.jobs),
                req.variant,
                req.algorithm,
                req.eps,
            )


@dataclass(frozen=True)
class ServiceTiming:
    shards: int
    requests: int
    loop_seconds: float
    service_seconds: float
    peak_instances: int
    max_instances: int
    cache_hits: int
    evictions: int

    @property
    def speedup(self) -> float:
        return (
            self.loop_seconds / self.service_seconds
            if self.service_seconds
            else float("inf")
        )

    @property
    def requests_per_second(self) -> float:
        return (
            self.requests / self.service_seconds
            if self.service_seconds
            else float("inf")
        )


def run_service_throughput(
    instance: Instance | None = None,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    rounds: int = 2,
    repeats: int = 3,
    max_instances: int = 2,
    workers: str = "thread",
) -> list[ServiceTiming]:
    """Experiment S5: the mixed burst through the service at each shard count.

    The loop baseline answers the identical burst with naive
    one-request-at-a-time ``solve()`` calls.  Each service measurement
    restarts the service (cold LRUs) and times the burst only — shard
    threads are started outside the clock.  Expect the shard dimension
    to be roughly flat on CPython under ``workers="thread"``: the solves
    hold the GIL, so thread shards buy cache *affinity* and eviction
    isolation, not core parallelism.  ``workers="process"`` runs each
    shard in a supervised child process — real multicore, at the price
    of the pipe round trip per micro-batch (child spawn happens outside
    the clock here too, same as thread start-up).
    """
    import asyncio

    from ..service.engine import ServiceConfig, SolveService

    instance = instance or uniform_instance(m=8, c=12, n_per_class=6, seed=101)
    pool = service_pool(instance)
    requests = service_burst(pool, rounds)

    loop_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        naive_request_loop(service_burst(pool, rounds))
        loop_best = min(loop_best, time.perf_counter() - t0)

    out = []
    for shards in shard_counts:
        config = ServiceConfig(
            shards=shards, max_instances=max_instances, workers=workers
        )

        async def once(config=config):
            async with SolveService(config) as svc:
                burst = service_burst(pool, rounds)
                t0 = time.perf_counter()
                await svc.submit_many(burst)
                return time.perf_counter() - t0, svc.stats()

        best = float("inf")
        stats = None
        for _ in range(repeats):
            seconds, stats = asyncio.run(once())
            best = min(best, seconds)
        out.append(
            ServiceTiming(
                shards=shards,
                requests=len(requests),
                loop_seconds=loop_best,
                service_seconds=best,
                peak_instances=stats.peak_instances,
                max_instances=stats.max_instances,
                cache_hits=stats.cache_hits,
                evictions=stats.evictions,
            )
        )
    return out


def render_service_throughput(
    timings: list[ServiceTiming] | None = None,
    instance: Instance | None = None,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
) -> str:
    timings = (
        timings
        if timings is not None
        else run_service_throughput(instance, shard_counts)
    )
    table_rows = [
        [
            str(t.shards),
            str(t.requests),
            fmt_time(t.loop_seconds),
            fmt_time(t.service_seconds),
            f"{t.speedup:.2f}x",
            f"{t.requests_per_second:,.0f}",
            f"{t.peak_instances}/{t.max_instances}",
            str(t.evictions),
        ]
        for t in timings
    ]
    return format_table(
        ["shards", "requests", "naive loop", "service", "speedup", "req/s",
         "peak/max warm", "evictions"],
        table_rows,
        title="Experiment S5: async sharded service vs naive per-request solve() "
              "(mixed burst: 3 variants, full + bounds-only + machine ranges; "
              "LRU-bounded warm instances)",
    )
