"""Tests for the search framework (Theorem 2) and the public solve() API."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance, Variant, solve
from repro.core import validate_schedule
from repro.algos.search import binary_search_dual, drive_plan, right_interval_plan
from repro.algos.splittable import split_dual_schedule, split_dual_test

from .conftest import mk


def inst_strategy(max_m=6, max_classes=5, max_jobs=5, max_t=18, max_s=10):
    return st.builds(
        Instance.build,
        st.integers(1, max_m),
        st.lists(
            st.tuples(
                st.integers(1, max_s),
                st.lists(st.integers(1, max_t), min_size=1, max_size=max_jobs),
            ),
            min_size=1,
            max_size=max_classes,
        ),
    )


def right_interval(candidates, accept, grid=False):
    """:func:`right_interval_plan` driven against a Fraction ``accept``."""

    def evaluate(req):
        return [accept(Fraction(tn, td)) for tn, td in req.times]

    pairs = [(T.numerator, T.denominator) for T in candidates]
    plan = right_interval_plan(pairs, {}, [0], "", "", grid)
    lo, hi = drive_plan(plan, evaluate)
    return Fraction(*lo), Fraction(*hi)


class TestRightIntervalPlan:
    @pytest.mark.parametrize("grid", [False, True])
    def test_finds_adjacent_pair(self, grid):
        candidates = [Fraction(k) for k in range(10)]
        lo, hi = right_interval(candidates, lambda T: T >= 7, grid)
        assert (lo, hi) == (6, 7)

    def test_non_monotone_still_adjacent(self):
        candidates = [Fraction(k) for k in range(8)]
        accepted = {3, 5, 6, 7}  # non-monotone acceptance
        calls = []

        def accept(T):
            calls.append(T)
            return int(T) in accepted

        lo, hi = right_interval(candidates, accept)
        assert int(hi) in accepted and int(lo) not in accepted
        assert hi == lo + 1
        assert len(calls) <= 4  # logarithmic

    def test_too_few_candidates(self):
        with pytest.raises(ValueError):
            right_interval([Fraction(1)], lambda T: True)


class TestBinarySearchDual:
    @pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)])
    def test_eps_bound_splittable(self, eps):
        inst = mk(4, (7, [9, 4]), (3, [5, 5, 5]), (1, [2]))
        sr = binary_search_dual(
            inst,
            Variant.SPLITTABLE,
            lambda T: split_dual_test(inst, T).accepted,
            lambda T: split_dual_schedule(inst, T),
            eps,
        )
        cmax = validate_schedule(sr.schedule, Variant.SPLITTABLE)
        assert cmax <= Fraction(3, 2) * sr.T
        assert sr.ratio_bound <= Fraction(3, 2) * (1 + eps)

    def test_accept_calls_logarithmic(self):
        inst = mk(4, (7, [9, 4]), (3, [5, 5, 5]))
        eps = Fraction(1, 1024)
        sr = binary_search_dual(
            inst,
            Variant.SPLITTABLE,
            lambda T: split_dual_test(inst, T).accepted,
            lambda T: split_dual_schedule(inst, T),
            eps,
        )
        assert sr.accept_calls <= 12 + 2  # log2(1024) + slack

    def test_bad_eps(self):
        inst = mk(1, (1, [1]))
        with pytest.raises(ValueError):
            binary_search_dual(inst, Variant.SPLITTABLE, lambda T: True, lambda T: None, 0)


class TestSolveAPI:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("algorithm", ["two", "eps", "three_halves"])
    def test_all_combinations(self, variant, algorithm):
        inst = mk(3, (4, [5, 3]), (2, [2, 2, 6]), (6, [7]))
        res = solve(inst, variant, algorithm)
        cmax = validate_schedule(res.schedule, variant)
        assert cmax <= res.ratio_bound * res.opt_lower_bound or cmax <= res.ratio_bound * res.T
        assert res.empirical_ratio() >= 1 or res.makespan <= res.opt_lower_bound

    def test_trivial_m_ge_n(self):
        inst = mk(5, (4, [5, 3]), (2, [2]))
        for variant in (Variant.NONPREEMPTIVE, Variant.PREEMPTIVE):
            res = solve(inst, variant)
            assert res.algorithm == "trivial"
            assert res.ratio_bound == 1
            cmax = validate_schedule(res.schedule, variant)
            assert cmax == 9  # max(s + t) = 4 + 5

    def test_splittable_never_trivial(self):
        inst = mk(5, (4, [5, 3]), (2, [2]))
        res = solve(inst, Variant.SPLITTABLE)
        assert res.algorithm == "three_halves"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            solve(mk(2, (1, [1, 2])), Variant.SPLITTABLE, "magic")  # type: ignore

    def test_single_machine_is_exactly_optimal(self):
        inst = mk(1, (3, [5, 2]), (1, [4]))
        for variant in Variant:
            res = solve(inst, variant)
            assert res.algorithm == "trivial"
            assert res.makespan == inst.total_load
            assert res.ratio_bound == 1
            validate_schedule(res.schedule, variant)

    def test_lazy_import(self):
        import repro

        assert callable(repro.solve)
        with pytest.raises(AttributeError):
            repro.nonexistent_attr

    @settings(max_examples=40, deadline=None)
    @given(inst=inst_strategy())
    def test_solve_three_halves_all_variants(self, inst):
        for variant in Variant:
            res = solve(inst, variant, "three_halves")
            cmax = validate_schedule(res.schedule, variant)
            # 3/2 against the certified lower bound on OPT
            assert cmax <= Fraction(3, 2) * res.opt_lower_bound * (1 + Fraction(1, 2**40))

    @settings(max_examples=25, deadline=None)
    @given(inst=inst_strategy())
    def test_guarantee_ordering(self, inst):
        """three_halves is never worse than its own bound; two never > 2LB."""
        for variant in Variant:
            r2 = solve(inst, variant, "two")
            r3 = solve(inst, variant, "three_halves")
            assert r2.makespan <= 2 * r2.opt_lower_bound
            assert r3.makespan <= Fraction(3, 2) * r3.T * (1 + Fraction(1, 2**40))


class TestPortfolio:
    def test_portfolio_never_worse(self):
        inst = mk(4, (7, [9, 4]), (3, [5, 5, 5]), (1, [2]))
        for variant in Variant:
            pure = solve(inst, variant, "three_halves")
            best = solve(inst, variant, "three_halves", portfolio=True)
            assert best.makespan <= pure.makespan
            assert best.ratio_bound == pure.ratio_bound
            assert "portfolio" in best.algorithm
            validate_schedule(best.schedule, variant)

    def test_portfolio_trivial_path_untouched(self):
        inst = mk(6, (4, [5, 3]), (2, [2]))
        res = solve(inst, Variant.PREEMPTIVE, "three_halves", portfolio=True)
        assert res.algorithm == "trivial"
