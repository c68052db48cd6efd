"""Adversarial instance families targeting the algorithms' case analysis.

Each family stresses one mechanism of the algorithms:

* :func:`expensive_heavy` — every setup just above ``T/2``-scale: Lemma 2
  forces class-disjoint machines, ``m_exp`` dominates the dual test;
* :func:`jump_dense` — pairwise-coprime class loads put many β/γ jumps
  into the search window: worst case for Class Jumping's step 7;
* :func:`knapsack_critical` — scaled version of the accepted-3a family:
  large machines plus star classes make the continuous knapsack decide;
* :func:`odd_exp_minus` — odd ``|I⁻exp|`` exercises the lone-class machine
  ``µ`` and the first wrap gap ``(µ, T, 3T/2)`` of Algorithm 2;
* :func:`giant_class` — one class is ~everything: splitting is mandatory,
  grouped heuristics collapse;
* :func:`sawtooth_ratio` — drives the 2-approx toward its factor (big
  setup + big job pairs), separating it from the 3/2 algorithms.
"""

from __future__ import annotations

import random

from ..core.instance import Instance


def expensive_heavy(m: int, seed: int, base: int = 40) -> Instance:
    """~m expensive classes with loads filling their β_i machines."""
    rng = random.Random(seed)
    classes = []
    budget = max(2, m)
    for k in range(budget):
        s = base + rng.randint(0, base // 4)          # all ≈ equally expensive
        jobs = [rng.randint(base // 4, base // 2) for _ in range(rng.randint(1, 3))]
        classes.append((s, jobs))
    return Instance.build(m, classes)


def jump_dense(m: int, c: int, seed: int) -> Instance:
    """Class loads from distinct primes — β_i jumps rarely coincide."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
    rng = random.Random(seed)
    classes = []
    for k in range(c):
        p = primes[k % len(primes)]
        s = 2 * p + rng.randint(0, 3)
        jobs = [p] * (1 + rng.randint(1, 4))
        classes.append((s, jobs))
    return Instance.build(m, classes)


def knapsack_critical(scale: int, larges: int = 8, stars: int = 5) -> Instance:
    """The accepted-3a family of the tests, scaled by ``scale``.

    At ``T = 20·scale`` the knapsack selects some star classes, splits one
    and pushes the rest to the large-machine bottoms.
    """
    classes = [(11 * scale, [5 * scale])] * larges
    classes += [(3 * scale, [8 * scale])] * stars
    return Instance.build(larges + 2, classes)


def odd_exp_minus(m: int, pairs: int, seed: int, base: int = 20) -> Instance:
    """2·pairs+1 classes that land in I⁻exp at T ≈ 2·base − ε, plus filler."""
    rng = random.Random(seed)
    classes = []
    for _ in range(2 * pairs + 1):
        s = base + 1 + rng.randint(0, 2)              # s > T/2 for T ≈ 2·base
        jobs = [rng.randint(1, base // 4)]            # s + P ≤ 3T/4
        classes.append((s, jobs))
    classes.append((2, [rng.randint(1, 5) for _ in range(4)]))  # cheap filler
    return Instance.build(m, classes)


def giant_class(m: int, seed: int, total: int = 10_000) -> Instance:
    """One class holds ~95% of the work; must be split across machines."""
    rng = random.Random(seed)
    giant_jobs = []
    remaining = total
    while remaining > 0:
        t = min(remaining, rng.randint(total // 40, total // 20))
        giant_jobs.append(t)
        remaining -= t
    side = [(rng.randint(1, 5), [rng.randint(1, total // 100)]) for _ in range(3)]
    return Instance.build(m, [(rng.randint(1, 8), giant_jobs)] + side)


def sawtooth_ratio(m: int, seed: int, unit: int = 30) -> Instance:
    """m classes of (s = unit, one job of unit): OPT = 2·unit, but greedy
    orderings and the 2-approximations leave machines half idle."""
    rng = random.Random(seed)
    classes = [(unit, [unit + rng.randint(0, 1)]) for _ in range(m)]
    return Instance.build(m, classes)
