"""Tests for the O(n) 2-approximations (Theorem 1, Lemmas 8 and 9)."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import solve
from repro.core import Instance, JobRef, Variant, lower_bound, validate_schedule
from repro.algos.twoapprox import two_approx, two_approx_grouped, two_approx_splittable
from repro.experiments.figures import fig7_instance

from .conftest import mk


def inst_strategy(max_m=6, max_classes=5, max_jobs=6, max_t=30, max_s=15):
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


class TestSplittable2Approx:
    def test_simple(self):
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        res = two_approx_splittable(inst)
        cmax = validate_schedule(res.schedule, Variant.SPLITTABLE, res.makespan_bound)
        assert cmax <= 2 * lower_bound(inst, Variant.SPLITTABLE)

    def test_single_machine_is_n(self):
        inst = mk(1, (2, [3]), (4, [1, 5]))
        res = two_approx_splittable(inst)
        cmax = validate_schedule(res.schedule, Variant.SPLITTABLE)
        # on one machine the wrap is exactly N above smax... still ≤ 2·N-ish;
        # the real content check: everything scheduled, bound respected
        assert cmax <= res.makespan_bound

    def test_many_machines_splits_jobs(self):
        # one giant job on 4 machines: splittable can spread it
        inst = mk(4, (1, [100]))
        res = two_approx_splittable(inst)
        cmax = validate_schedule(res.schedule, Variant.SPLITTABLE)
        lb = lower_bound(inst, Variant.SPLITTABLE)  # 101/4
        assert cmax <= 2 * lb
        assert cmax < 100  # job genuinely parallelized

    @settings(max_examples=80, deadline=None)
    @given(inst=inst_strategy())
    def test_ratio_and_feasibility(self, inst):
        res = two_approx_splittable(inst)
        cmax = validate_schedule(res.schedule, Variant.SPLITTABLE)
        assert cmax <= 2 * lower_bound(inst, Variant.SPLITTABLE)


class TestGrouped2Approx:
    def test_figure7_shape(self):
        # m = c = 5 as in Figure 7: every class one machine-ish
        inst = mk(5, (3, [4, 4]), (2, [5, 3]), (4, [2, 2, 2]), (1, [6]), (2, [3, 3]))
        res = two_approx_grouped(inst)
        for variant in (Variant.NONPREEMPTIVE, Variant.PREEMPTIVE):
            cmax = validate_schedule(res.schedule, variant)
            assert cmax <= 2 * lower_bound(inst, variant)

    def test_single_machine(self):
        inst = mk(1, (2, [3]), (4, [1, 5]))
        res = two_approx_grouped(inst)
        cmax = validate_schedule(res.schedule, Variant.NONPREEMPTIVE)
        assert cmax == inst.total_load  # everything stacked on machine 0

    def test_no_trailing_setups(self):
        inst = mk(3, (5, [5, 5, 5]), (5, [5, 5, 5]))
        res = two_approx_grouped(inst)
        for u in res.schedule.used_machines():
            items = res.schedule.items_on(u)
            assert not items[-1].is_setup, f"machine {u} ends with a setup"

    def test_stream_ends_on_crossing_item(self):
        # T_min = max(N/m, s + tmax) = max(5/2, 3) = 3: the loads reach 3
        # exactly before the last job, which then crosses T_min.
        inst = mk(2, (1, [1, 1, 2]))
        stages: dict = {}
        res = two_approx_grouped(inst, stages_out=stages)
        assert res.t_min == 3
        phase1 = stages["phase1"]
        assert phase1.used_machines() == [0]
        last = phase1.items_on(0)[-1]
        assert (last.job, last.start, last.end) == (JobRef(0, 2), 3, 5)
        # phase 2 moves the crossing job, with a fresh setup, to machine 1
        assert [
            (p.job, p.start, p.end) for p in res.schedule.items_on(1)
        ] == [(None, 0, 1), (JobRef(0, 2), 1, 3)]
        cmax = validate_schedule(res.schedule, Variant.NONPREEMPTIVE)
        assert cmax <= res.makespan_bound

    @settings(max_examples=100, deadline=None)
    @given(inst=inst_strategy())
    def test_ratio_and_feasibility_both_variants(self, inst):
        res = two_approx_grouped(inst)
        cmax = validate_schedule(res.schedule, Variant.NONPREEMPTIVE)
        # non-preemptive feasible ⟹ preemptive feasible
        validate_schedule(res.schedule, Variant.PREEMPTIVE)
        assert cmax <= 2 * lower_bound(inst, Variant.NONPREEMPTIVE)

    @settings(max_examples=40, deadline=None)
    @given(inst=inst_strategy(max_m=3, max_t=8, max_s=3))
    def test_machines_within_m(self, inst):
        res = two_approx_grouped(inst)
        assert len(res.schedule.used_machines()) <= inst.m


def slow_next_fit(instance: Instance):
    """Lemma 9's three phases, item by item: the reference layouts.

    Returns ``(phase1, final)``, each a list of machines bottom to top,
    an item being ``(cls, job_idx, length)`` with ``job_idx = -1`` for a
    setup.  Phase 1 runs next fit with threshold ``T_min`` over the
    stream ``s_1, C_1, s_2, C_2, ...`` (a machine closes with the item
    that takes its load past ``T_min``, and that item stays); phase 2
    moves each machine's crossing item to the start of the next machine,
    a job with a fresh setup of its class; phase 3 drops the setups that
    end a machine, then the machines left empty.
    """
    tmin = lower_bound(instance, Variant.NONPREEMPTIVE)
    machines, load = [[]], 0
    for i, (s, times) in enumerate(zip(instance.setups, instance.jobs)):
        for item in [(i, -1, s)] + [(i, j, t) for j, t in enumerate(times)]:
            machines[-1].append(item)
            load += item[2]
            if load > tmin:
                machines.append([])
                load = 0
    phase1 = [list(items) for items in machines if items]
    for u in range(len(machines) - 1):
        cls, idx, length = machines[u].pop()
        head = [(cls, idx, length)]
        if idx >= 0:
            head.insert(0, (cls, -1, instance.setups[cls]))
        machines[u + 1][:0] = head
    for items in machines:
        while items and items[-1][1] < 0:
            items.pop()
    return phase1, [items for items in machines if items]


def layout_rows(machines) -> list[tuple]:
    """``(machine, start, length, scale, cls, job_idx)`` rows of stacked
    machines at scale 1."""
    rows = []
    for u, items in enumerate(machines):
        t = 0
        for cls, idx, length in items:
            rows.append((u, t, length, 1, cls, idx))
            t += length
    return rows


def column_rows(schedule) -> list[tuple]:
    """The schedule's column store, row by row, each with the store's scale."""
    cols = schedule.columns()
    return [
        (u, sn, ln, cols.scale, c, ji)
        for u, sn, ln, c, ji in zip(
            cols.machine, cols.start_num, cols.length_num, cols.cls, cols.job_idx
        )
    ]


#: Figure 7's layouts, ``(machine, start, length, cls, job_idx)`` per row
#: at scale 1 (``T_min = 46/5``).
FIG7_PHASE1 = [
    (0, 0, 3, 0, -1), (0, 3, 4, 0, 0), (0, 7, 4, 0, 1),
    (1, 0, 2, 1, -1), (1, 2, 5, 1, 0), (1, 7, 3, 1, 1),
    (2, 0, 4, 2, -1), (2, 4, 2, 2, 0), (2, 6, 2, 2, 1), (2, 8, 2, 2, 2),
    (3, 0, 1, 3, -1), (3, 1, 6, 3, 0), (3, 7, 2, 4, -1), (3, 9, 3, 4, 0),
    (4, 0, 3, 4, 1),
]
FIG7_FINAL = [
    (0, 0, 3, 0, -1), (0, 3, 4, 0, 0),
    (1, 0, 3, 0, -1), (1, 3, 4, 0, 1), (1, 7, 2, 1, -1), (1, 9, 5, 1, 0),
    (2, 0, 2, 1, -1), (2, 2, 3, 1, 1), (2, 5, 4, 2, -1), (2, 9, 2, 2, 0),
    (2, 11, 2, 2, 1),
    (3, 0, 4, 2, -1), (3, 4, 2, 2, 2), (3, 6, 1, 3, -1), (3, 7, 6, 3, 0),
    (4, 0, 2, 4, -1), (4, 2, 3, 4, 0), (4, 5, 3, 4, 1),
]


class TestGroupedLayout:
    """Lemma 9's rows equal the item-by-item reference, column for column."""

    @settings(max_examples=150, deadline=None)
    @given(inst=inst_strategy())
    @example(inst=mk(1, (2, [3]), (4, [1, 5])))  # m = 1: one machine, no crossing
    @example(inst=mk(2, (1, [6, 6, 1])))
    @example(inst=mk(2, (1, [1, 1, 2])))  # the last job crosses
    @example(inst=mk(3, (2, [3]), (1, [2, 4])))  # a setup crosses; the last job too
    def test_matches_reference(self, inst):
        stages: dict = {}
        res = two_approx_grouped(inst, stages_out=stages)
        phase1, final = slow_next_fit(inst)
        assert column_rows(stages["phase1"]) == layout_rows(phase1)
        assert column_rows(stages["final"]) == layout_rows(final)
        assert column_rows(res.schedule) == layout_rows(final)
        assert stages["final"] is res.schedule

    def test_bool_entries_leave_as_plain_ints(self):
        """An in-process instance may hold a ``bool`` length; Lemma 9 and
        both trivial optima emit it as a plain int (the wire encoder
        would print ``true``)."""
        inst = Instance(m=2, setups=(True,), jobs=((True, 2, 3),))
        for schedule in (
            two_approx_grouped(inst).schedule,
            solve(inst.with_machines(1)).schedule,  # serial optimum
            solve(inst.with_machines(3)).schedule,  # one job per machine
        ):
            assert {type(v) for v in schedule.columns().length_num} == {int}

    def test_figure7_rows(self):
        stages: dict = {}
        res = two_approx_grouped(fig7_instance(), stages_out=stages)
        assert res.t_min == Fraction(46, 5)
        for stage, table in (("phase1", FIG7_PHASE1), ("final", FIG7_FINAL)):
            rows = stages[stage].rows()
            assert rows.scale == 1
            assert list(zip(
                rows.machine, rows.start_num, rows.length_num, rows.cls, rows.job_idx
            )) == table


class TestDispatch:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_two_approx_dispatch(self, variant):
        inst = mk(3, (2, [3, 4]), (1, [2, 2, 2]))
        res = two_approx(inst, variant)
        cmax = validate_schedule(res.schedule, variant)
        assert cmax <= res.makespan_bound == 2 * res.t_min
