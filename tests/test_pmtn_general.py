"""Tests for Algorithm 3 / Theorem 5 (general preemptive instances)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, RejectedMakespanError, Variant, validate_schedule
from repro.core.bounds import t_min
from repro.algos.pmtn_general import PmtnBuildParts, pmtn_dual_schedule, pmtn_dual_test
from repro.algos.twoapprox import two_approx_grouped

from .conftest import accepted_3a_instance, general_case_instance, mk


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


class TestDualTestCases:
    def test_trivial_rejection_below_note1(self):
        inst = mk(3, (5, [10]), (1, [1]))
        d = pmtn_dual_test(inst, 10)  # Note 1: OPT >= 15
        assert not d.accepted
        assert d.case == "trivial"

    def test_nice_case_delegates(self):
        inst = mk(6, (12, [8, 8, 8]), (4, [3, 3]))
        d = pmtn_dual_test(inst, 20)
        assert d.case == "nice"
        assert d.accepted

    def test_general_case_detected(self):
        inst = general_case_instance()
        d = pmtn_dual_test(inst, 20)
        assert d.case in ("3a", "3b")
        assert d.l == 1
        assert d.partition.exp_zero == (0,)

    def test_case_3a_y_negative_rejected(self):
        # residual machines entirely eaten by I+exp: F = 0 < L* → reject
        inst = mk(
            3,
            (11, [5]),            # I0exp at T=20
            (12, [8, 8]),         # I+exp, α'=floor(16/8)=2 → residual full
            (3, [9, 9]),          # star class: 3+9=12 > 10
            (2, [9, 2]),          # star class: 2+9=11 > 10
        )
        d = pmtn_dual_test(inst, 20)
        assert d.case == "3a"
        assert not d.accepted
        assert any("F < L*" in r for r in d.reject_reasons)

    def test_case_3a_accepted_with_knapsack(self):
        inst = accepted_3a_instance()
        d = pmtn_dual_test(inst, 20)
        assert d.case == "3a"
        assert d.accepted
        assert d.knapsack is not None
        # exactly one split class, some unselected classes
        assert d.split_class is not None
        assert len(d.unselected) >= 1
        # the paper's tightness: the derived nice load fills (m-l)T exactly
        assert d.F == 40 and d.L_star == 20 and d.demand_star == 55

    def test_rejects_on_machines(self):
        inst = mk(2, (11, [5]), (12, [8, 8]), (12, [8, 8]))
        d = pmtn_dual_test(inst, 20)
        assert not d.accepted
        assert d.machines_needed > 2

    def test_T_must_be_positive(self):
        with pytest.raises(ValueError):
            pmtn_dual_test(mk(1, (1, [1])), 0)


class TestDualSchedule:
    def test_rejected_raises(self):
        inst = mk(2, (11, [5]), (12, [8, 8]), (12, [8, 8]))
        with pytest.raises(RejectedMakespanError):
            pmtn_dual_schedule(inst, 20)

    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_general_example_schedule(self, mode):
        inst = general_case_instance()
        T = Fraction(20)
        d = pmtn_dual_test(inst, T, mode)
        assert d.accepted, d.reject_reasons
        parts = PmtnBuildParts(dual=d)
        sched = pmtn_dual_schedule(inst, T, mode, parts_out=parts)
        cmax = validate_schedule(sched, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * T
        # the I0exp class occupies exactly one (large) machine, from T/2
        zero_cls = d.partition.exp_zero[0]
        placements = [p for p in sched.iter_all() if p.cls == zero_cls]
        assert {p.machine for p in placements} == {0}
        assert min(p.start for p in placements) == T / 2

    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_accepted_3a_schedule(self, mode):
        inst = accepted_3a_instance()
        T = Fraction(20)
        sched = pmtn_dual_schedule(inst, T, mode)
        cmax = validate_schedule(sched, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * T
        d = pmtn_dual_test(inst, T, mode)
        # unselected classes pay an extra setup: lambda_i = 2 in the schedule
        for i in d.unselected:
            assert sched.setup_count(i) == 2

    def test_large_machine_bottoms_stay_in_half(self):
        inst = general_case_instance()
        T = Fraction(20)
        sched = pmtn_dual_schedule(inst, T)
        d = pmtn_dual_test(inst, T)
        for u in range(d.l):
            for p in sched.items_on(u):
                if p.cls != d.partition.exp_zero[u]:
                    assert p.end <= T / 2, f"bottom item {p} crosses T/2"

    @settings(max_examples=200, deadline=None)
    @given(inst=inst_strategy(), num=st.integers(0, 8))
    def test_accepted_builds_valid_three_halves(self, inst, num):
        tmin = t_min(inst, Variant.PREEMPTIVE)
        T = tmin + tmin * Fraction(num, 8)
        for mode in ("alpha", "gamma"):
            d = pmtn_dual_test(inst, T, mode)
            if not d.accepted:
                continue
            sched = pmtn_dual_schedule(inst, T, mode)
            cmax = validate_schedule(sched, Variant.PREEMPTIVE)
            assert cmax <= Fraction(3, 2) * T

    @settings(max_examples=100, deadline=None)
    @given(inst=inst_strategy())
    def test_2tmin_always_accepted(self, inst):
        """T = 2·Tmin ≥ OPT must be accepted (Theorem 5(i) contrapositive)."""
        T = 2 * t_min(inst, Variant.PREEMPTIVE)
        for mode in ("alpha", "gamma"):
            d = pmtn_dual_test(inst, T, mode)
            assert d.accepted, (inst.describe(), mode, d.reject_reasons)

    @settings(max_examples=80, deadline=None)
    @given(inst=inst_strategy(max_m=6))
    def test_schedule_first_contract(self, inst):
        """Any T ≥ a known-feasible makespan must be accepted."""
        T0 = two_approx_grouped(inst).schedule.makespan()
        for mode in ("alpha", "gamma"):
            d = pmtn_dual_test(inst, T0, mode)
            assert d.accepted, (inst.describe(), mode, d.reject_reasons)
