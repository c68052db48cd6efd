"""Tests for the splittable 3/2-dual (Theorem 7) and its construction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, RejectedMakespanError, Variant, t_min, validate_schedule
from repro.algos.splittable import (
    split_dual_schedule,
    split_dual_test,
    split_window,
)
from repro.algos import splittable
from repro.algos.api import solve
from repro.algos.twoapprox import two_approx_splittable

from .conftest import mk


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


class TestDualTest:
    def test_manual_example(self):
        # m=3, class 0: s=6, P=10; class 1: s=2, P=4. T=10:
        # class 0 expensive (6 > 5), beta = ceil(20/10) = 2
        # L = 14 + 2 + 2*6 = 28, mT = 30 >= 28; m_exp = 2 <= 3 → accept
        inst = mk(3, (6, [5, 5]), (2, [2, 2]))
        d = split_dual_test(inst, 10)
        assert d.exp == (0,) and d.chp == (1,)
        assert d.betas == {0: 2}
        assert d.load == 28
        assert d.machines_exp == 2
        assert d.accepted

    def test_reject_by_load(self):
        inst = mk(1, (6, [5, 5]), (2, [2, 2]))
        d = split_dual_test(inst, 10)
        assert not d.accepted
        assert "mT < L_split" in d.reject_reasons(1)

    def test_reject_by_machines(self):
        # two expensive classes with beta=2 each but m=3
        inst = mk(3, (6, [10]), (6, [10]))
        d = split_dual_test(inst, 10)
        assert d.machines_exp == 4
        assert not d.accepted
        assert "m < m_exp" in d.reject_reasons(3)

    def test_accept_at_twice_tmin_always(self):
        for inst in [
            mk(1, (1, [1])),
            mk(5, (9, [3, 3]), (2, [8, 8, 8])),
            mk(3, (0, [7]), (10, [1])),
        ]:
            _, hi = split_window(inst)
            assert split_dual_test(inst, hi).accepted

    def test_invalid_T(self):
        inst = mk(1, (1, [1]))
        with pytest.raises(ValueError):
            split_dual_test(inst, 0)

    @settings(max_examples=60, deadline=None)
    @given(inst=inst_strategy())
    def test_acceptance_monotone(self, inst):
        """Splittable acceptance is monotone in T (L_split, m_exp decrease)."""
        lo, hi = split_window(inst)
        # probe an increasing grid; once accepted, must stay accepted
        grid = [lo + (hi - lo) * Fraction(k, 12) for k in range(13)]
        seen_accept = False
        for T in grid:
            acc = split_dual_test(inst, T).accepted
            if seen_accept:
                assert acc, f"acceptance flipped back off at T={T}"
            seen_accept = seen_accept or acc
        assert seen_accept  # 2*tmin accepted

    @settings(max_examples=60, deadline=None)
    @given(inst=inst_strategy())
    def test_load_and_mexp_monotone(self, inst):
        lo, hi = split_window(inst)
        grid = sorted(lo + (hi - lo) * Fraction(k, 10) for k in range(11))
        prev = None
        for T in grid:
            d = split_dual_test(inst, T)
            if prev is not None:
                assert d.load <= prev.load
                assert d.machines_exp <= prev.machines_exp
            prev = d


class TestDualConstruction:
    def test_rejected_raises(self):
        inst = mk(1, (6, [5, 5]), (2, [2, 2]))
        with pytest.raises(RejectedMakespanError):
            split_dual_schedule(inst, 10)

    def test_figure1_example_shape(self):
        """Iexp = {0..3}, Ichp = {4..7} like Figure 1."""
        T = 20
        inst = mk(
            12,
            (12, [15, 15]),   # beta = 3... machines
            (11, [12]),
            (14, [8]),
            (13, [10, 3]),
            (4, [5, 5]),
            (3, [6]),
            (5, [2, 2, 2]),
            (2, [7]),
        )
        d = split_dual_test(inst, T)
        assert set(d.exp) == {0, 1, 2, 3}
        assert d.accepted
        sched = split_dual_schedule(inst, T)
        cmax = validate_schedule(sched, Variant.SPLITTABLE)
        assert cmax <= Fraction(3, 2) * T
        # every expensive class occupies exactly beta_i machines
        for i in d.exp:
            machines = {p.machine for p in sched.iter_all() if p.cls == i}
            assert len(machines) == d.betas[i]

    def test_single_class_all_machines(self):
        inst = mk(4, (6, [10, 10]))
        T = t_min(inst, Variant.SPLITTABLE)  # N/m = 26/4 < smax? smax=6; N/m=6.5
        d = split_dual_test(inst, T)
        if d.accepted:
            sched = split_dual_schedule(inst, T)
            validate_schedule(sched, Variant.SPLITTABLE, makespan_bound=Fraction(3, 2) * T)

    def test_expensive_machine_has_bottom_setup(self):
        T = 10
        inst = mk(3, (6, [9]))  # beta = ceil(18/10) = 2
        sched = split_dual_schedule(inst, T)
        validate_schedule(sched, Variant.SPLITTABLE, makespan_bound=15)
        for u in (0, 1):
            first = sched.items_on(u)[0]
            assert first.is_setup and first.start == 0

    @settings(max_examples=100, deadline=None)
    @given(inst=inst_strategy())
    def test_accepted_T_builds_three_halves_schedule(self, inst):
        lo, hi = split_window(inst)
        for T in (lo, (lo + hi) / 2, hi):
            d = split_dual_test(inst, T)
            if d.accepted:
                sched = split_dual_schedule(inst, T)
                cmax = validate_schedule(sched, Variant.SPLITTABLE)
                assert cmax <= Fraction(3, 2) * T

    @settings(max_examples=60, deadline=None)
    @given(inst=inst_strategy(max_m=6))
    def test_schedule_first_contract(self, inst):
        """Any T ≥ some feasible makespan must be accepted (Theorem 7(i))."""
        feasible = two_approx_splittable(inst)
        T0 = feasible.schedule.makespan()
        assert split_dual_test(inst, T0).accepted
        assert split_dual_test(inst, 2 * T0).accepted


class TestIdleMachines:
    """Step 2 gives gaps only to the empty machines the wrap can reach."""

    CLASSES = [(10, [5, 7]), (1, [4, 4, 1])]  # 10 rows on 4 machines

    @pytest.mark.parametrize("kernel", ["fast", "fraction"])
    def test_rows_do_not_depend_on_idle_machines(self, kernel):
        few = solve(Instance.build(10**3, self.CLASSES), Variant.SPLITTABLE, kernel=kernel)
        many = solve(Instance.build(10**5, self.CLASSES), Variant.SPLITTABLE, kernel=kernel)
        assert many.T == few.T
        assert many.schedule.rows() == few.schedule.rows()

    def test_step2_template_stops_where_the_wrap_stops(self, monkeypatch):
        lengths = []
        real_wrap = splittable.wrap

        def spy(schedule, sequence, template, **kwargs):
            lengths.append(len(template))
            return real_wrap(schedule, sequence, template, **kwargs)

        monkeypatch.setattr(splittable, "wrap", spy)
        inst = Instance.build(10**5, self.CLASSES)
        for kernel in ("fast", "fraction"):
            split_dual_schedule(inst, t_min(inst, Variant.SPLITTABLE), kernel=kernel)
        # step 1 wraps class 0 onto beta = 3 machines; step 2 needs one more
        assert lengths and max(lengths) <= 3
