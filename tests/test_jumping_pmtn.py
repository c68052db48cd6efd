"""Tests for Class Jumping on the preemptive case (Algorithm 4, Theorem 6).

Flip-point and witness tests drive :func:`flip_plan_pmtn` itself (on
every instance, ``m = 1`` and ``m ≥ n`` included), against its own
``use_base_jump=False`` exhaustive scan; end-to-end tests take the 3/2
schedule from :func:`repro.solve`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core import Instance, Variant, t_min, validate_schedule
from repro.core.classification import gamma
from repro.algos.jumping_pmtn import flip_plan_pmtn, gamma_closed
from repro.algos.pmtn_general import pmtn_dual_test

from .conftest import accepted_3a_instance, general_case_instance, mk, run_plan


def find_flip(inst, use_base_jump=True):
    """``(T*, T_witness, accept_calls)`` of Algorithm 4's plan, fast kernel."""
    return run_plan(flip_plan_pmtn(inst, use_base_jump=use_base_jump), inst)


def inst_strategy(max_m=8, max_classes=6, max_jobs=5, max_t=20, max_s=12):
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


class TestGammaClosedForm:
    @given(
        s=st.integers(1, 60),
        jobs=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        T_num=st.integers(2, 400),
        T_den=st.integers(1, 8),
    )
    def test_matches_paper_definition(self, s, jobs, T_num, T_den):
        """γ(T) = max(1, ⌈2(s+P)/T⌉ − 2) equals the §4.4 case definition.

        Claimed for the regime the algorithms query: ``i ∈ I⁺exp`` at a
        ``T ≥ T_min ≥ s_i + t^(i)_max`` (Note 1).
        """
        T = Fraction(T_num, T_den)
        P = sum(jobs)
        if not (s > T / 2 and s + P >= T and T >= s + max(jobs)):
            return
        inst = Instance.build(1, [(s, jobs)])
        assert gamma_closed(inst, T, 0) == gamma(inst, T, 0)


class TestFlipPoint:
    def test_trivial_single_machine(self):
        inst = mk(1, (2, [3]), (1, [4]))
        T_star, T_wit, _ = find_flip(inst)
        assert T_star == T_wit == 10  # N on one machine

    def test_handpicked_match_slow_reference(self):
        cases = [
            mk(6, (12, [8, 8, 8]), (4, [3, 3])),
            general_case_instance(),
            accepted_3a_instance(),
            mk(2, (6, [10]), (6, [10])),
            mk(4, (11, [2]), (11, [3]), (12, [1]), (2, [4, 4])),
            mk(3, (6, [18])),
            mk(7, (5, [30]), (5, [29]), (4, [2, 2])),
        ]
        for inst in cases:
            fast = find_flip(inst, use_base_jump=True)
            slow = find_flip(inst, use_base_jump=False)
            assert fast[0] == slow[0], inst.describe()
            assert fast[1] == slow[1], inst.describe()

    @settings(max_examples=100, deadline=None)
    @given(inst=inst_strategy())
    def test_matches_slow_reference(self, inst):
        fast = find_flip(inst, use_base_jump=True)
        slow = find_flip(inst, use_base_jump=False)
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]

    @settings(max_examples=60, deadline=None)
    @given(inst=inst_strategy())
    def test_everything_below_flip_rejected(self, inst):
        T_star, T_wit, _ = find_flip(inst)
        tmin = t_min(inst, Variant.PREEMPTIVE)
        assert pmtn_dual_test(inst, T_wit, mode="gamma").accepted
        if T_star > tmin:
            for frac in (Fraction(1, 9), Fraction(1, 2), Fraction(11, 13)):
                T = tmin + (T_star - tmin) * frac
                assert not pmtn_dual_test(inst, T, mode="gamma").accepted

    @settings(max_examples=50, deadline=None)
    @given(inst=inst_strategy())
    def test_witness_tight(self, inst):
        T_star, T_wit, _ = find_flip(inst)
        assert T_star <= T_wit <= T_star * (1 + Fraction(1, 2**40))


class TestEndToEnd:
    def test_general_example(self):
        inst = general_case_instance()
        res = solve(inst, Variant.PREEMPTIVE)
        cmax = validate_schedule(res.schedule, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * res.T
        assert res.ratio_bound <= Fraction(3, 2) * (1 + Fraction(1, 2**40))

    def test_accepted_3a_example(self):
        inst = accepted_3a_instance()
        res = solve(inst, Variant.PREEMPTIVE)
        validate_schedule(res.schedule, Variant.PREEMPTIVE, Fraction(3, 2) * res.T)

    @settings(max_examples=80, deadline=None)
    @given(inst=inst_strategy())
    def test_end_to_end_property(self, inst):
        res = solve(inst, Variant.PREEMPTIVE)
        cmax = validate_schedule(res.schedule, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * res.T
        # the certified T* (lower_bound = t_min never exceeds it)
        tmin = t_min(inst, Variant.PREEMPTIVE)
        assert tmin <= res.opt_lower_bound <= 2 * tmin

    def test_previous_best_beaten(self):
        """Sanity: our ratio bound 3/2 < 2 − (⌊m/2⌋+1)^-1 for m ≥ 4."""
        m = 8
        monma_potts = Fraction(2) - Fraction(1, m // 2 + 1)
        assert Fraction(3, 2) < monma_potts
