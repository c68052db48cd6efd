"""Differential suite for the columnar schedule backend (PR 3).

Three guarantees are asserted on every generator-suite instance:

* **lossless round-trips** — ``ScheduleColumns`` → ``Placement`` lists →
  ``ScheduleColumns`` → ``Placement`` lists is the identity on placement
  values, and every ``Schedule`` aggregate (makespan, loads, ends, ...)
  answered from the columns equals the value computed from the
  materialized placements;
* **bit-identical validator verdicts** — :func:`validate_columns` agrees
  with the scalar validator on accept/reject, makespan, and the error
  ``reason`` tag, on solver output and on rows beyond int64;
* **one storage form** — a schedule is its column store, and a piece the
  columns cannot encode (class mismatch, negative job index) is refused
  at ``add`` while the scalar rule still tags it.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import pytest

import repro.core.validate as validate_mod
from repro.algos.api import solve
from repro.core import (
    Instance,
    JobRef,
    Placement,
    Schedule,
    ScheduleColumns,
    Variant,
    validate_columns,
    validate_schedule,
    validate_schedule_scalar,
)
from repro.generators import (
    adversarial_suite,
    medium_suite,
    small_exact_suite,
    uniform_instance,
)

from .conftest import mk

SUITE_INSTANCES = [
    pytest.param(inst, id=f"{suite}:{label}")
    for suite, items in (
        ("small", small_exact_suite()),
        ("medium", medium_suite()),
        ("adversarial", adversarial_suite()),
    )
    for label, inst in items
]

def placements_key(schedule: Schedule):
    return [
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    ]


def placements_only(inst: Instance, placements):
    """A stand-in the scalar placement rules can read (no column store)."""
    return SimpleNamespace(instance=inst, iter_all=lambda: iter(placements))


def suite_schedules(inst: Instance):
    """(variant, columnar schedule) pairs from the real solve paths."""
    for variant in Variant:
        yield variant, solve(inst, variant).schedule


class TestRoundTrip:
    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_columns_placements_round_trip(self, inst):
        for variant, sched in suite_schedules(inst):
            cols = sched.columns()
            assert len(cols) == sched.count_placements()
            flat = cols.slice_placements(0, len(cols))
            rebuilt = Schedule(inst, flat)
            cols2 = rebuilt.columns()
            assert cols2.slice_placements(0, len(cols2)) == flat
            # per-machine materialization round-trips through a fresh Schedule
            assert placements_key(rebuilt) == placements_key(sched)

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_aggregates_match_placements(self, inst):
        """Every column aggregate equals its value computed from the
        materialized placements."""
        zero = Fraction(0)
        for variant, sched in suite_schedules(inst):
            placements = list(sched.iter_all())
            on = [[p for p in placements if p.machine == u] for u in range(inst.m)]
            ends = [max((p.end for p in items), default=zero) for items in on]
            job_totals: dict = {}
            for p in placements:
                if not p.is_setup:
                    job_totals[p.job] = job_totals.get(p.job, zero) + p.length
            assert sched.makespan() == max(ends)
            assert sched.total_load() == sum((p.length for p in placements), zero)
            assert sched.used_machines() == [u for u in range(inst.m) if on[u]]
            assert sched.count_placements() == len(placements)
            for u in range(inst.m):
                assert sched.machine_load(u) == sum((p.length for p in on[u]), zero)
                assert sched.machine_end(u) == ends[u]
                assert sched.items_on(u) == sorted(on[u], key=lambda p: (p.start, p.end))
            for i in range(inst.c):
                assert sched.setup_count(i) == sum(
                    1 for p in placements if p.is_setup and p.cls == i
                )
            for job, _ in inst.iter_jobs():
                assert sched.job_total(job) == job_totals.get(job, zero)

    def test_class_mismatched_placement_refused(self):
        """A piece whose cls disagrees with its job has no columnar form:
        ``add`` refuses it, and the scalar rule still tags it."""
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = Schedule(inst)
        setup = sched.add_setup(0, 0, 0)
        bad = Placement(0, Fraction(2), Fraction(2), cls=0, job=JobRef(1, 0))
        with pytest.raises(ValueError, match="no columnar encoding"):
            sched.add(bad)
        assert list(sched.iter_all()) == [setup]
        with pytest.raises(validate_mod.InfeasibleScheduleError) as e:
            validate_mod._check_placement_sanity(placements_only(inst, [setup, bad]))
        assert e.value.reason == "class-mismatch"

    def test_negative_job_idx_refused(self):
        """job_idx = -1 marks setups, so a negative-idx piece is refused
        (never silently decoded as a setup); the scalar rule still tags
        it unknown-job."""
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = Schedule(inst)
        setup = sched.add_setup(0, 0, 0)
        bad = Placement(0, Fraction(2), Fraction(1), cls=0, job=JobRef(0, -1))
        with pytest.raises(ValueError, match="no columnar encoding"):
            sched.add(bad)
        assert list(sched.iter_all()) == [setup]
        with pytest.raises(validate_mod.InfeasibleScheduleError) as e:
            validate_mod._check_placement_sanity(placements_only(inst, [setup, bad]))
        assert e.value.reason == "unknown-job"


class TestValidatorDifferential:
    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_verdicts_bit_identical_on_solver_output(self, inst):
        for variant, sched in suite_schedules(inst):
            cols = sched.columns()
            want = validate_schedule_scalar(sched, variant)
            assert validate_columns(inst, cols, variant) == want, variant
            # scalar validation left the store in place
            assert sched.columns() is cols

    @pytest.mark.parametrize("inst", SUITE_INSTANCES[:10])
    def test_validate_schedule_matches_scalar(self, inst):
        """validate_schedule answers like the scalar reference."""
        for variant, sched in suite_schedules(inst):
            want = validate_schedule_scalar(sched, variant)
            assert validate_schedule(sched, variant) == want

    def test_rows_beyond_int64(self):
        """Column stores beyond int64 validate exactly."""
        big = 1 << 70
        inst = Instance.build(2, [(big, [big, big]), (1, [2])])
        sched = solve(inst, Variant.NONPREEMPTIVE).schedule
        cols = sched.columns()
        assert max(cols.start_num) >= 1 << 63
        want = validate_schedule_scalar(sched, Variant.NONPREEMPTIVE)
        assert validate_columns(inst, cols, Variant.NONPREEMPTIVE) == want
        assert sched.makespan() == want

    def test_makespan_bound_tag(self):
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = solve(inst, Variant.NONPREEMPTIVE).schedule
        cmax = sched.makespan()
        validate_schedule(sched, Variant.NONPREEMPTIVE, makespan_bound=cmax)
        with pytest.raises(validate_mod.InfeasibleScheduleError) as e:
            validate_schedule(
                sched, Variant.NONPREEMPTIVE, makespan_bound=cmax - 1
            )
        assert e.value.reason == "makespan"


class TestMixedDenominators:
    def test_scaled_common_denominator(self):
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_piece(0, Fraction(2), JobRef(0, 0), Fraction(3, 2))
        sched.add_piece(0, Fraction(7, 2), JobRef(0, 0), Fraction(3, 2))
        sched.add_piece(0, Fraction(5), JobRef(0, 1), Fraction(4, 3))
        cols = sched.columns()
        assert cols.scale == 6
        assert [Fraction(s, cols.scale) for s in cols.start_num] == [
            p.start for p in sched.iter_all()
        ]
        assert [Fraction(v, cols.scale) for v in cols.length_num] == [
            p.length for p in sched.iter_all()
        ]
        assert sched.machine_end(0) == Fraction(19, 3)
        assert sched.machine_load(0) == 2 + 3 + Fraction(4, 3)
        assert sched.makespan() == Fraction(19, 3)

    def test_scale_grows_to_lcm_in_place(self):
        """The scale is the lcm of every ``den`` appended so far; a ``den``
        that does not divide it rescales the stored rows in place."""
        cols = ScheduleColumns()
        assert cols.scale == 1
        starts, lengths = cols.start_num, cols.length_num
        cols.append_scaled(0, 1, 3, 4, 0, -1)  # [1/4, 1)
        assert (cols.scale, starts, lengths) == (4, [1], [3])
        cols.append_scaled(1, 1, 1, 6, 0, 0)  # [1/6, 1/3): scale 12
        assert (cols.scale, starts, lengths) == (12, [3, 2], [9, 2])
        cols.extend_scaled([1], [1], [2], 1, [0], [1])  # [1, 3): divides
        assert (cols.scale, starts, lengths) == (12, [3, 2, 12], [9, 2, 24])
        cols.extend_runs([(2, [1], [0], [-1])], 10)  # [0, 1/10): scale 60
        assert (cols.scale, starts, lengths) == (
            60, [15, 10, 60, 0], [45, 10, 120, 6]
        )
        assert cols.start_num is starts and cols.length_num is lengths
        cols.extend_scaled([], [], [], 7, [], [])  # no rows: scale kept
        cols.extend_runs([(0, [], [], [])], 7)  # counts its den anyway
        assert cols.scale == 420
        assert [Fraction(v, cols.scale) for v in cols.length_num] == [
            Fraction(3, 4), Fraction(1, 6), 2, Fraction(1, 10)
        ]


class TestDenominatorBelowOne:
    """Every append path refuses a ``den`` below 1 and leaves the store as
    it was; ``from_ipc`` refuses a scale below 1."""

    def filled(self) -> ScheduleColumns:
        cols = ScheduleColumns()
        cols.append_scaled(0, 0, 1, 1, 0, -1)
        cols.append_scaled(0, 1, 5, 2, 0, 0)
        return cols

    def assert_untouched(self, cols: ScheduleColumns) -> None:
        want = self.filled()
        assert cols.scale == want.scale == 2
        for name in ScheduleColumns._COL_NAMES:
            assert getattr(cols, name) == getattr(want, name), name

    @pytest.mark.parametrize("den", [0, -1])
    def test_append_scaled(self, den):
        cols = self.filled()
        with pytest.raises(
            ValueError, match=f"^denominator must be positive, got {den}$"
        ):
            cols.append_scaled(0, 3, 2, den, 0, 1)
        self.assert_untouched(cols)

    @pytest.mark.parametrize("den", [0, -1])
    def test_extend_scaled(self, den):
        cols = self.filled()
        with pytest.raises(
            ValueError, match=f"^denominator must be positive, got {den}$"
        ):
            cols.extend_scaled([0], [3], [2], den, [0], [1])
        self.assert_untouched(cols)

    @pytest.mark.parametrize("den", [0, -1])
    def test_extend_runs(self, den):
        cols = self.filled()
        with pytest.raises(
            ValueError, match=f"^denominator must be positive, got {den}$"
        ):
            cols.extend_runs([(1, [1, 2], [0, 0], [-1, 1])], den)
        self.assert_untouched(cols)

    @pytest.mark.parametrize("scale", [0, -1, True])
    def test_from_ipc(self, scale):
        payload = self.filled().to_ipc()
        assert payload[0] == 2
        self.assert_untouched(ScheduleColumns.from_ipc(payload))
        with pytest.raises(ValueError, match="malformed"):
            ScheduleColumns.from_ipc([scale, *payload[1:]])


class TestRunsAdoption:
    """The PR-4 bulk surface: ``extend_runs``/``rows``.

    The Algorithm-6 store tier materializes exclusively through these, so
    they are pinned both directly (hand-built runs) and end to end
    (solve() schedules round-tripping through ``rows()``).
    """

    def _runs(self):
        # two machines, stacked items: (machine, lengths, clss, job_idxs)
        return [
            (0, [2, 3, 4], [0, 0, 0], [-1, 0, 1]),
            (2, (1, 5), (1, 1), (-1, 0)),  # tuples allowed (store slices)
        ]

    def test_extend_runs_prefix_sum_starts(self):
        inst = mk(3, (2, [3, 4]), (1, [5]))
        sched = Schedule(inst)
        sched.extend_runs(self._runs(), 1)
        rows = [
            (p.machine, p.start, p.length, p.cls, p.job)
            for p in sched.iter_all()
        ]
        assert rows == [
            (0, Fraction(0), Fraction(2), 0, None),
            (0, Fraction(2), Fraction(3), 0, JobRef(0, 0)),
            (0, Fraction(5), Fraction(4), 0, JobRef(0, 1)),
            (2, Fraction(0), Fraction(1), 1, None),
            (2, Fraction(1), Fraction(5), 1, JobRef(1, 0)),
        ]
        assert sched.makespan() == 9

    def test_extend_runs_matches_add_scaled(self):
        """The bulk hand-off stores exactly the rows that one checked
        ``add_scaled`` per item at the prefix-sum starts would."""
        inst = mk(3, (2, [3, 4]), (1, [5]))
        bulk = Schedule(inst)
        bulk.extend_runs(self._runs(), 2)
        one_by_one = Schedule(inst)
        for u, lens, clss, jidxs in self._runs():
            start = 0
            for ln, c, ji in zip(lens, clss, jidxs):
                one_by_one.add_scaled(
                    u, start, ln, 2, c, None if ji < 0 else JobRef(c, ji)
                )
                start += ln
        for name in ScheduleColumns._COL_NAMES:
            assert getattr(bulk.columns(), name) == getattr(
                one_by_one.columns(), name
            ), name
        assert bulk.columns().scale == one_by_one.columns().scale == 2
        assert placements_key(bulk) == placements_key(one_by_one)

    def test_extend_runs_appends_after_existing_rows(self):
        """Runs land after rows already in the store, at a denominator
        that grows the scale, and every aggregate covers both."""
        inst = mk(3, (2, [3, 4]), (1, [5]))
        sched = Schedule(inst)
        sched.add_setup(1, 0, 0)
        sched.add_piece(1, 2, JobRef(0, 1), Fraction(1, 2))
        assert sched.machine_end(1) == Fraction(5, 2)  # warms the read caches
        sched.extend_runs(self._runs(), 2)
        assert sched.count_placements() == 7
        assert sched.columns().scale == 2
        assert sched.used_machines() == [0, 1, 2]
        assert sched.machine_end(0) == Fraction(9, 2)
        assert sched.machine_end(1) == Fraction(5, 2)
        assert sched.total_load() == Fraction(9, 2) + Fraction(5, 2) + 3
        assert sched.makespan() == Fraction(9, 2)

    def test_extend_runs_machine_range_checked(self):
        inst = mk(2, (2, [3]))
        sched = Schedule(inst)
        with pytest.raises(ValueError):
            sched.extend_runs([(5, [1], [0], [-1])], 1)
        with pytest.raises(ValueError):
            sched.extend_runs([(0, [1], [0], [-1])], 0)

    def test_extend_runs_beyond_int64_stays_exact(self):
        inst = mk(2, (2, [3]))
        sched = Schedule(inst)
        big = 1 << 63
        sched.extend_runs([(0, [big, big], [0, 0], [-1, 0])], 1)
        assert sched.columns().start_num == [0, big]
        assert sched.machine_end(0) == 2 * big

    @pytest.mark.parametrize("inst", SUITE_INSTANCES[:10])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_rows_matches_placements(self, inst, variant):
        sched = solve(inst, variant).schedule
        rows = sched.rows()
        want = [
            (p.machine, p.start, p.length, p.cls, p.job)
            for p in sched.iter_all()
        ]
        got = [
            (
                int(rows.machine[k]),
                Fraction(int(rows.start_num[k]), rows.scale),
                Fraction(int(rows.length_num[k]), rows.scale),
                int(rows.cls[k]),
                None
                if rows.job_idx[k] < 0
                else JobRef(int(rows.cls[k]), int(rows.job_idx[k])),
            )
            for k in range(len(rows))
        ]
        assert got == want

    def test_rows_snapshot_survives_mutation(self):
        """rows() hands out copies: appending afterwards leaves a held
        projection unchanged, and a new projection sees the row."""
        inst = mk(2, (2, [3, 4]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, 2, JobRef(0, 0))
        rows = sched.rows()
        n_before = len(rows)
        sched.add_job(1, 0, JobRef(0, 1))
        assert sched.count_placements() == n_before + 1
        assert len(rows) == n_before  # the projection is a stable snapshot
        assert list(rows.machine) == [0, 0]
        fresh = sched.rows()  # a new projection sees the appended row
        assert len(fresh) == n_before + 1

    def test_rows_rescale_several_denominators(self):
        inst = mk(2, (2, [3]), (1, [2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, 2, JobRef(0, 0))
        sched.add_setup(1, Fraction(1, 2), 1)
        rows = sched.rows()
        assert rows.scale == 2
        assert rows.machine == [0, 0, 1]
        assert rows.start_num == [0, 4, 1]
        assert rows.length_num == [4, 6, 2]
        assert rows.cls == [0, 0, 1]
        assert rows.job_idx == [-1, 0, -1]

    @pytest.mark.parametrize("dens", [(1,), (1, 2)], ids=["one-den", "several-dens"])
    def test_rows_are_caller_owned_lists(self, dens):
        """Every ``rows()`` sequence is a fresh int list, never a stored
        column, so a caller may mutate it without touching the schedule."""
        inst = mk(2, (2, [3, 4]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, 2, JobRef(0, 0))
        if len(dens) > 1:
            sched.add_piece(1, Fraction(5, 2), JobRef(0, 1), Fraction(7, 2))
        assert sched.columns().scale == lcm(*dens)
        rows = sched.rows()
        want = sched.rows()
        cols = sched.columns()
        stored = [getattr(cols, name) for name in ScheduleColumns._COL_NAMES]
        for seq in rows[:-1]:
            assert type(seq) is list
            assert all(type(v) is int for v in seq)
            assert all(seq is not col for col in stored)
            seq.reverse()
            seq.append(99)
        assert sched.rows() == want
        assert sched.makespan() == (6 if len(dens) > 1 else 5)


class TestSingleStore:
    """A schedule is its list column store from the first append to the
    wire: every producer leaves plain int lists, and every append path
    drops the read caches built over them."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_solver_output_is_plain_int_lists(self, variant):
        inst = uniform_instance(4, 5, 4, seed=3)
        sched = solve(inst, variant).schedule
        cols = sched.columns()
        assert len(cols) > 0
        for name in ScheduleColumns._COL_NAMES:
            col = getattr(cols, name)
            assert type(col) is list, name
            assert all(type(v) is int for v in col), name
        assert type(cols.scale) is int and cols.scale >= 1

    @pytest.mark.parametrize("path", [
        "add", "add_scaled", "extend_runs", "extend_scaled",
    ])
    def test_append_refreshes_read_caches(self, path):
        """Reads cache the materialized placements and the per-machine
        scan; an append through any path must drop both."""
        inst = mk(3, (2, [3, 4]), (1, [5]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, 2, JobRef(0, 0))
        before = [
            sched.items_on(1), sched.machine_end(1), sched.machine_load(1),
            sched.used_machines(), sched.total_load(), len(list(sched.iter_all())),
        ]
        assert before == [[], 0, 0, [0], 5, 2]
        # each path appends the class-1 setup [0, 1) on machine 1
        if path == "add":
            sched.add_setup(1, 0, 1)
        elif path == "add_scaled":
            sched.add_scaled(1, 0, 2, 2, 1)
        elif path == "extend_runs":
            sched.extend_runs([(1, [1], [1], [-1])], 1)
        else:
            sched._columns_for_append().extend_scaled([1], [0], [1], 1, [1], [-1])
        fresh = Schedule.from_columns(inst, sched.columns().copy())
        assert sched.count_placements() == 3
        assert sched.items_on(1) == fresh.items_on(1) == [
            Placement(1, Fraction(0), Fraction(1), cls=1)
        ]
        assert sched.machine_end(1) == fresh.machine_end(1) == 1
        assert sched.machine_load(1) == fresh.machine_load(1) == 1
        assert sched.used_machines() == fresh.used_machines() == [0, 1]
        assert sched.total_load() == 6
        assert list(sched.iter_all()) == list(fresh.iter_all())

    @pytest.mark.parametrize("case", [
        "one-den", "several-dens", "beyond-int64", "from-ipc",
        "from-ipc-beyond-int64", "empty-runs",
    ])
    def test_makespan_is_latest_machine_end(self, case):
        """``makespan()`` (one C pass over the rows at the common scale)
        equals the latest machine end (the per-machine scan)."""
        inst = uniform_instance(5, 6, 4, seed=7)
        if case == "several-dens":
            inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
            sched = Schedule(inst)
            sched.add_setup(0, 0, 0)
            sched.add_piece(0, Fraction(2), JobRef(0, 0), Fraction(3, 2))
            sched.add_piece(1, Fraction(7, 2), JobRef(0, 0), Fraction(3, 2))
            sched.add_piece(1, Fraction(5), JobRef(0, 1), Fraction(4, 3))
            assert sched.columns().scale == 6
        elif case in ("beyond-int64", "from-ipc-beyond-int64"):
            big = 1 << 70
            inst = Instance.build(2, [(big, [big, big]), (1, [2])])
            sched = solve(inst, Variant.PREEMPTIVE).schedule
            if case == "from-ipc-beyond-int64":
                payload = pickle.loads(pickle.dumps(sched.columns().to_ipc(), 5))
                sched = Schedule.from_columns(inst, ScheduleColumns.from_ipc(payload))
            assert max(sched.columns().length_num) >= 1 << 63
        elif case == "empty-runs":
            sched = Schedule(inst)
            sched.extend_runs([(0, [], [], []), (3, (), (), ())], 5)
            assert len(sched.columns()) == 0 and sched.columns().scale == 5
        else:
            sched = solve(inst, Variant.SPLITTABLE).schedule
            if case == "from-ipc":
                payload = pickle.loads(pickle.dumps(sched.columns().to_ipc(), 5))
                sched = Schedule.from_columns(inst, ScheduleColumns.from_ipc(payload))
            assert sched.columns().scale == 2
        want = max(sched.machine_end(u) for u in range(inst.m))
        assert sched.makespan() == want
        if case == "empty-runs":
            assert want == 0
