"""Tests for Algorithm 2 / Theorem 4 (nice preemptive instances)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, RejectedMakespanError, Schedule, Variant, validate_schedule
from repro.core.bounds import t_min
from repro.algos.pmtn_nice import (
    count_for,
    full_view,
    nice_dual_schedule,
    nice_dual_test,
    partition_view,
    schedule_nice_view,
)

from .conftest import mk


def nice_inst_strategy():
    """Instances that tend to be nice at T in [Tmin, 2Tmin] (no I0exp)."""
    return st.builds(
        Instance.build,
        st.integers(1, 8),
        st.lists(
            st.tuples(
                st.integers(1, 10),
                st.lists(st.integers(1, 20), min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=5,
        ),
    )


class TestNiceDualTest:
    def test_manual_nice_example(self):
        # T = 20: class 0: s=12 > 10, s+P=42 >= 20 → I+exp, α' = floor(30/8)=3
        # class 1: s=4 <= 10 → cheap
        inst = mk(6, (12, [8, 8, 8]), (4, [3, 3]))
        d = nice_dual_test(inst, 20)
        assert d.partition.exp_plus == (0,)
        assert d.partition.cheap == (1,)
        assert d.counts == {0: 3}
        # L_nice = P(J) + 3*12 + 4 = 30 + 36 + 4 = 70 <= 6*20 = 120
        assert d.load == 70
        assert d.machines_needed == 3
        assert d.accepted

    def test_not_nice_raises(self):
        # s+P = 17 ∈ (15, 20) → I0exp nonempty at T=20
        inst = mk(2, (12, [5]))
        with pytest.raises(ValueError):
            nice_dual_test(inst, 20)

    def test_reject_by_machines(self):
        inst = mk(2, (12, [8, 8, 8]), (4, [3, 3]))
        d = nice_dual_test(inst, 20)
        assert not d.accepted and d.machines_needed == 3 > 2

    def test_gamma_counts_leq_alpha_plus_one(self):
        inst = mk(6, (12, [8, 8, 8]), (4, [3, 3]))
        da = nice_dual_test(inst, 20, mode="alpha")
        dg = nice_dual_test(inst, 20, mode="gamma")
        # γ ≤ β ≤ α always; both modes accept here
        assert dg.counts[0] <= da.counts[0] + 1
        assert dg.accepted


class TestNiceSchedule:
    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_small_example(self, mode):
        inst = mk(6, (12, [8, 8, 8]), (4, [3, 3]))
        T = 20
        sched = nice_dual_schedule(inst, T, mode)
        cmax = validate_schedule(sched, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * T

    def test_rejected_raises(self):
        inst = mk(2, (12, [8, 8, 8]), (4, [3, 3]))
        with pytest.raises(RejectedMakespanError):
            nice_dual_schedule(inst, 20)

    @pytest.mark.parametrize("exact_ints", [True, False], ids=["ints", "fractions"])
    def test_machine_outside_the_instance_refused(self, exact_ints):
        # Step 1 places the I+exp class 0 first, on the first machine given.
        inst = mk(2, (12, [8, 8, 8]), (4, [3, 3]))
        assert partition_view(inst, 20, full_view(inst)).exp_plus == (0,)
        with pytest.raises(ValueError, match=r"machine 2 out of range \[0, 2\)"):
            schedule_nice_view(Schedule(inst), 20, full_view(inst), [2, 3],
                               exact_ints=exact_ints)

    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_exp_minus_pairing_odd(self, mode):
        # three I-exp classes (s > T/2, s+P <= 3T/4), plus cheap filler
        T = 20
        inst = mk(4, (11, [2]), (11, [3]), (12, [1]), (2, [4, 4]))
        d = nice_dual_test(inst, T, mode=mode)
        assert set(d.partition.exp_minus) == {0, 1, 2}
        assert d.accepted
        sched = nice_dual_schedule(inst, T, mode)
        cmax = validate_schedule(sched, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * T

    @pytest.mark.parametrize("mode", ["alpha", "gamma"])
    def test_figure2_shape(self, mode):
        """I+exp = {0, 1} spread over α' machines, cheap wrapped above T/2."""
        T = 20
        inst = mk(
            8,
            (12, [8, 8, 8]),      # I+exp: α' = floor(24/8) = 3
            (11, [9, 9]),          # I+exp: α' = floor(18/9) = 2
            (3, [5, 5]),           # cheap
            (4, [2, 2, 2]),        # cheap
        )
        d = nice_dual_test(inst, T, mode=mode)
        assert set(d.partition.exp_plus) == {0, 1}
        assert d.accepted
        sched = nice_dual_schedule(inst, T, mode)
        cmax = validate_schedule(sched, Variant.PREEMPTIVE)
        assert cmax <= Fraction(3, 2) * T
        # cheap processing must all sit at or above T/2
        for p in sched.iter_all():
            if not p.is_setup and p.cls in (2, 3):
                assert p.start >= Fraction(T, 2)

    @settings(max_examples=150, deadline=None)
    @given(inst=nice_inst_strategy(), num=st.integers(0, 8))
    def test_accepted_builds_valid_three_halves(self, inst, num):
        tmin = t_min(inst, Variant.PREEMPTIVE)
        T = tmin + (2 * tmin - tmin) * Fraction(num, 8)
        view = full_view(inst)
        part = partition_view(inst, T, view)
        if not part.is_nice:
            return
        for mode in ("alpha", "gamma"):
            d = nice_dual_test(inst, T, mode=mode)
            if not d.accepted:
                continue
            sched = nice_dual_schedule(inst, T, mode)
            cmax = validate_schedule(sched, Variant.PREEMPTIVE)
            assert cmax <= Fraction(3, 2) * T

    @settings(max_examples=60, deadline=None)
    @given(inst=nice_inst_strategy())
    def test_2tmin_nice_instances_accepted(self, inst):
        """At T = 2*Tmin >= OPT the test must accept (when nice)."""
        T = 2 * t_min(inst, Variant.PREEMPTIVE)
        part = partition_view(inst, T, full_view(inst))
        if part.is_nice:
            assert nice_dual_test(inst, T).accepted


class TestCountFor:
    def test_alpha_matches_classification(self):
        inst = mk(3, (12, [8, 8, 8]))
        assert count_for(inst, Fraction(20), 0, Fraction(24), "alpha") == 3

    def test_gamma_cases(self):
        inst = mk(3, (12, [8, 8, 8]))  # P=24, T=20: β' = 2, rem = 4 <= 8 → γ=2
        assert count_for(inst, Fraction(20), 0, Fraction(24), "gamma") == 2

    def test_gamma_min_one(self):
        inst = mk(3, (18, [4]))  # T=20: P=4 < T/2 → β'=0 → γ=1
        assert count_for(inst, Fraction(20), 0, Fraction(4), "gamma") == 1
