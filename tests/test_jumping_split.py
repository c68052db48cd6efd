"""Tests for Class Jumping on the splittable case (Algorithm 1, Theorem 3).

Flip-point tests drive :func:`flip_plan_splittable` itself (on every
instance, ``m = 1`` included); end-to-end tests take the 3/2 schedule
from :func:`repro.solve`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core import Instance, Variant, t_min, validate_schedule
from repro.algos.jumping_split import flip_plan_splittable
from repro.algos.search import slow_flip_splittable
from repro.algos.splittable import split_dual_test

from .conftest import mk, run_plan


def find_flip(inst):
    """``(T*, accept_calls)`` of Algorithm 1's plan on the fast kernel."""
    return run_plan(flip_plan_splittable(inst), inst)


def inst_strategy(max_m=8, max_classes=6, max_jobs=6, max_t=25, max_s=12):
    return st.builds(
        Instance.build,
        st.integers(1, max_m),
        st.lists(
            st.tuples(
                st.integers(0, max_s),
                st.lists(st.integers(1, max_t), min_size=1, max_size=max_jobs),
            ),
            min_size=1,
            max_size=max_classes,
        ),
    )


class TestFlipPoint:
    def test_trivial_single_machine(self):
        inst = mk(1, (2, [3]), (1, [4]))
        T_star, _ = find_flip(inst)
        # m=1: everything on one machine; N = 10 = tmin, accepted immediately
        assert T_star == 10

    def test_single_class_known_optimum(self):
        # one class, splittable: OPT = s + P/m when that's >= ... here
        # s=6, P=18, m=3: schedule on k machines: s + P/k; best k=3 → 12.
        inst = mk(3, (6, [18]))
        T_star, _ = find_flip(inst)
        sched = solve(inst, Variant.SPLITTABLE).schedule
        cmax = validate_schedule(sched, Variant.SPLITTABLE)
        assert cmax <= Fraction(3, 2) * T_star
        # flip point must be <= OPT = 12
        assert T_star <= 12

    def test_matches_slow_reference_handpicked(self):
        cases = [
            mk(3, (6, [5, 5]), (2, [2, 2])),
            mk(2, (6, [10]), (6, [10])),
            mk(5, (9, [3, 3]), (2, [8, 8, 8])),
            mk(4, (0, [7, 7, 7]), (10, [1])),
            mk(3, (6, [18])),
            mk(2, (1, [1])),
            mk(7, (5, [30]), (5, [29]), (4, [2, 2])),
        ]
        for inst in cases:
            fast, _ = find_flip(inst)
            slow = slow_flip_splittable(inst)
            assert fast == slow, f"{inst.describe()}: fast={fast} slow={slow}"

    @settings(max_examples=120, deadline=None)
    @given(inst=inst_strategy())
    def test_matches_slow_reference(self, inst):
        fast, _ = find_flip(inst)
        slow = slow_flip_splittable(inst)
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(inst=inst_strategy())
    def test_everything_below_flip_rejected(self, inst):
        """The certificate T* ≤ OPT: sample points below must be rejected."""
        T_star, _ = find_flip(inst)
        tmin = t_min(inst, Variant.SPLITTABLE)
        assert split_dual_test(inst, T_star).accepted
        if T_star > tmin:
            for frac in (Fraction(1, 7), Fraction(1, 2), Fraction(9, 10)):
                T = tmin + (T_star - tmin) * frac
                assert not split_dual_test(inst, T).accepted

    @settings(max_examples=40, deadline=None)
    @given(inst=inst_strategy(max_m=20, max_classes=8))
    def test_accept_calls_logarithmic(self, inst):
        import math

        _, calls = find_flip(inst)
        budget = 10 * (math.log2(inst.c + inst.m + 4) + 4)
        assert calls <= budget, f"{calls} dual tests > budget {budget}"


class TestEndToEnd:
    def test_schedule_feasible_and_bounded(self):
        inst = mk(4, (7, [9, 4]), (3, [5, 5, 5]), (1, [2]))
        res = solve(inst, Variant.SPLITTABLE)
        cmax = validate_schedule(res.schedule, Variant.SPLITTABLE)
        assert cmax <= Fraction(3, 2) * res.T
        assert res.ratio_bound == Fraction(3, 2)

    @settings(max_examples=80, deadline=None)
    @given(inst=inst_strategy())
    def test_end_to_end_property(self, inst):
        res = solve(inst, Variant.SPLITTABLE)
        cmax = validate_schedule(res.schedule, Variant.SPLITTABLE)
        assert cmax <= Fraction(3, 2) * res.T
        # T_star inside the window
        tmin = t_min(inst, Variant.SPLITTABLE)
        assert tmin <= res.T <= 2 * tmin

    def test_many_machines(self):
        inst = mk(64, (3, [100]), (2, [50, 50]))
        res = solve(inst, Variant.SPLITTABLE)
        validate_schedule(res.schedule, Variant.SPLITTABLE, Fraction(3, 2) * res.T)
