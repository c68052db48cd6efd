"""Benchmark R1 — measured-ratio sweeps over the named suites.

Benchmarks the full evaluation loop (solve + validate + reference) per
suite and stores the worst measured ratios in ``extra_info``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algos.api import solve
from repro.core import Variant, validate_schedule
from repro.exact import exact_nonpreemptive_opt
from repro.generators import adversarial_suite, small_exact_suite


def test_small_suite_vs_exact_opt(benchmark):
    """three_halves vs exact OPT on every small instance (the true ratio)."""
    suite = small_exact_suite()

    def run():
        worst = Fraction(0)
        for _, inst in suite:
            res = solve(inst, Variant.NONPREEMPTIVE, "three_halves")
            cmax = validate_schedule(res.schedule, Variant.NONPREEMPTIVE)
            worst = max(worst, Fraction(cmax) / exact_nonpreemptive_opt(inst))
        return worst

    worst = benchmark(run)
    benchmark.extra_info["worst_true_ratio"] = float(worst)
    assert worst <= Fraction(3, 2)


@pytest.mark.parametrize("variant", list(Variant), ids=str)
def test_adversarial_suite_three_halves(benchmark, variant):
    suite = adversarial_suite()

    def run():
        worst = Fraction(0)
        for _, inst in suite:
            res = solve(inst, variant, "three_halves")
            cmax = validate_schedule(res.schedule, variant)
            worst = max(worst, Fraction(cmax) / Fraction(res.opt_lower_bound))
        return worst

    worst = benchmark(run)
    benchmark.extra_info["worst_ratio_vs_dual_lb"] = float(worst)
    assert worst <= Fraction(3, 2) * (1 + Fraction(1, 2**40))
