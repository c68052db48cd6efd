"""Empirical runtime scaling — verifies the near-linear claims (S1).

The abstract claims O(n), O(n log 1/ε), O(n+c log(c+m)), O(n log(n+Δ)) and
O(n log n).  We time each algorithm over geometrically growing ``n`` and
fit ``time ≈ a·n^b`` by least squares on the log-log points; ``b`` close
to 1 (we accept < 1.35, generous for log factors and interpreter noise)
certifies near-linear behaviour.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.instance import Instance


@dataclass(frozen=True)
class ScalingPoint:
    n: int
    seconds: float


@dataclass(frozen=True)
class ScalingFit:
    points: tuple[ScalingPoint, ...]
    exponent: float        # b in time ~ a * n^b
    r_squared: float

    def is_near_linear(self, threshold: float = 1.35) -> bool:
        return self.exponent <= threshold


def time_algorithm(
    fn: Callable[[Instance], object],
    instances: Sequence[tuple[str, Instance]],
    repeats: int = 3,
) -> list[ScalingPoint]:
    """Best-of-``repeats`` wall time per instance (reduces scheduler noise).

    Every repeat solves a fresh copy of the instance, built before the
    clock starts, so each timing is a cold solve: no lazy cache an
    earlier repeat (or an earlier algorithm on the same suite) built is
    reused.
    """
    points = []
    for _, inst in instances:
        best = float("inf")
        for _ in range(repeats):
            cold = Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)
            t0 = time.perf_counter()
            fn(cold)
            best = min(best, time.perf_counter() - t0)
        points.append(ScalingPoint(n=inst.n, seconds=best))
    return points


def fit_loglog(points: Sequence[ScalingPoint]) -> ScalingFit:
    """Least-squares fit of log(time) vs log(n)."""
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    xs = [math.log(p.n) for p in points]
    ys = [math.log(max(p.seconds, 1e-9)) for p in points]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    b = sxy / sxx if sxx else 0.0
    a = my - b * mx
    ss_res = sum((y - (a + b * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return ScalingFit(points=tuple(points), exponent=b, r_squared=r2)
