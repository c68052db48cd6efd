"""Benchmark A1 — Class Jumping vs the alternatives it replaces.

Three ways to find a 3/2-certified makespan:

* Class Jumping (Algorithms 1/4) — O(log(c+m)) dual tests, *exact* flip;
* exhaustive piece scan — exact flip, O(#pieces) dual tests;
* (3/2+ε) binary search (Theorem 2) — O(log 1/ε) tests, ε-approximate.

The flip searches are their probe plans driven on the fast kernel; the
ε-search is a bounds-only solve.  The benchmarks demonstrate the paper's
point: jumping gets exactness at binary-search-like cost.
"""

from __future__ import annotations

from fractions import Fraction

from repro.algos.api import solve_point
from repro.algos.jumping_pmtn import flip_plan_pmtn
from repro.algos.jumping_split import flip_plan_splittable
from repro.algos.search import drive_plan, probe_evaluator, slow_flip_splittable
from repro.core import Variant


def _drive(plan, inst):
    return drive_plan(plan, probe_evaluator(inst, fast=True))


def test_split_class_jumping(benchmark, medium_instance):
    T_star, calls = benchmark(
        lambda: _drive(flip_plan_splittable(medium_instance), medium_instance)
    )
    benchmark.extra_info["dual_tests"] = calls
    benchmark.extra_info["flip"] = str(Fraction(*T_star))


def test_split_slow_reference(benchmark, medium_instance):
    T_star = benchmark(lambda: slow_flip_splittable(medium_instance))
    flip, _ = _drive(flip_plan_splittable(medium_instance), medium_instance)
    assert T_star == Fraction(*flip)


def test_split_eps_binary_search(benchmark, medium_instance):
    inst = medium_instance
    point = benchmark(
        lambda: solve_point(
            inst, Variant.SPLITTABLE, "eps", Fraction(1, 100), schedules=False
        )
    )
    benchmark.extra_info["dual_tests"] = point.accept_calls
    # eps search never beats the exact flip from below
    flip, _ = _drive(flip_plan_splittable(inst), inst)
    assert point.T >= Fraction(*flip)


def test_pmtn_class_jumping(benchmark, medium_instance):
    T_star, _, calls = benchmark(
        lambda: _drive(flip_plan_pmtn(medium_instance), medium_instance)
    )
    benchmark.extra_info["dual_tests"] = calls
    benchmark.extra_info["flip"] = str(Fraction(*T_star))


def test_pmtn_exhaustive_scan(benchmark, medium_instance):
    fast = _drive(flip_plan_pmtn(medium_instance), medium_instance)
    slow = benchmark(
        lambda: _drive(flip_plan_pmtn(medium_instance, use_base_jump=False), medium_instance)
    )
    assert fast[:2] == slow[:2]
