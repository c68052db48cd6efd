"""Named experiment suites — the workloads behind Table 1 and the studies.

A suite is a list of ``(label, Instance)`` pairs; all seeds are fixed so
the experiment numbers are reproducible.
"""

from __future__ import annotations

from typing import Callable

from ..core.instance import Instance
from . import adversarial as adv
from . import random_instances as rnd


def small_exact_suite(seed: int = 7) -> list[tuple[str, Instance]]:
    """Instances small enough for the exact solvers (ratio-vs-OPT)."""
    out: list[tuple[str, Instance]] = []
    for k in range(12):
        spec = rnd.RandomSpec(
            m=2 + k % 3,
            c=1 + k % 3,
            jobs_per_class=(1, 3),
            job_time=(1, 12),
            setup_time=(1, 8),
        )
        out.append((f"small-uniform-{k}", rnd.random_instance(spec, seed + k)))
    out.append(("small-giant", Instance.build(3, [(2, [9, 9, 9]), (1, [2])])))
    out.append(("small-expensive", Instance.build(3, [(9, [3]), (8, [4]), (7, [2, 2])])))
    return out


def medium_suite(seed: int = 11) -> list[tuple[str, Instance]]:
    """Mid-size instances for ratio-vs-lower-bound studies."""
    out: list[tuple[str, Instance]] = []
    for k in range(6):
        out.append((f"uniform-{k}", rnd.uniform_instance(m=8, c=12, n_per_class=6, seed=seed + k)))
        out.append((f"zipf-{k}", rnd.zipf_instance(m=8, c=10, seed=seed + 100 + k)))
        out.append((f"bimodal-{k}", rnd.bimodal_setup_instance(m=6, c=10, seed=seed + 200 + k)))
    out.append(("single-job-batches", rnd.many_small_classes(m=6, c=30, seed=seed)))
    out.append(("unit-jobs", rnd.unit_jobs_equal_setups(m=6, c=8, n_per_class=10, s=5, seed=seed)))
    return out


def adversarial_suite(seed: int = 13) -> list[tuple[str, Instance]]:
    out = [
        ("expensive-heavy", adv.expensive_heavy(m=10, seed=seed)),
        ("jump-dense", adv.jump_dense(m=8, c=16, seed=seed)),
        ("knapsack-critical", adv.knapsack_critical(scale=3)),
        ("odd-exp-minus", adv.odd_exp_minus(m=12, pairs=3, seed=seed)),
        ("giant-class", adv.giant_class(m=8, seed=seed)),
        ("sawtooth", adv.sawtooth_ratio(m=8, seed=seed)),
    ]
    return out


def scaling_suite(sizes: list[int], seed: int = 17) -> list[tuple[str, Instance]]:
    """Growing-n instances for the near-linear runtime experiment (S1)."""
    out = []
    for n in sizes:
        c = max(2, n // 20)
        per = max(1, n // c)
        out.append(
            (f"n={n}", rnd.uniform_instance(m=max(2, n // 50), c=c, n_per_class=per, seed=seed))
        )
    return out


SUITES: dict[str, Callable[[], list[tuple[str, Instance]]]] = {
    "small-exact": small_exact_suite,
    "medium": medium_suite,
    "adversarial": adversarial_suite,
}
