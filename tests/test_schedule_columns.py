"""Differential suite for the columnar schedule backend (PR 3).

Three guarantees are asserted on every generator-suite instance:

* **lossless round-trips** — ``ScheduleColumns`` → ``Placement`` lists →
  ``ScheduleColumns`` → ``Placement`` lists is the identity on placement
  values, and every ``Schedule`` aggregate (makespan, loads, ends, ...)
  answered from the live columns equals the thawed placement-list answer;
* **bit-identical validator verdicts** — :func:`validate_columns` agrees
  with the scalar validator on accept/reject, makespan, and the error
  ``reason`` tag, in all three execution modes: numpy int64, numpy absent
  (python tier, numpy monkeypatched away), and the big-integer overflow
  fallback;
* **lazy materialization contract** — ``solve()`` returns schedules whose
  column store is still live (no ``Placement`` was built), and mutation
  thaws without changing observable content.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

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
    validate_schedule,
    validate_schedule_scalar,
)
from repro.generators import (
    adversarial_suite,
    medium_suite,
    small_exact_suite,
    uniform_instance,
)

from .conftest import COLUMN_TIERS, mk, validate_columns_on

HAVE_NUMPY = validate_mod._np is not None

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


def suite_schedules(inst: Instance):
    """(variant, columnar schedule) pairs from the real solve paths."""
    for variant in Variant:
        yield variant, solve(inst, variant).schedule


class TestRoundTrip:
    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_columns_placements_round_trip(self, inst):
        for variant, sched in suite_schedules(inst):
            cols = sched.columns()
            assert cols is not None, "solve() must return live-columns schedules"
            assert len(cols) == sched.count_placements()
            flat = cols.slice_placements(0, len(cols))
            cols2 = ScheduleColumns.from_placements(flat)
            flat2 = cols2.slice_placements(0, len(cols2))
            assert flat == flat2
            # per-machine materialization round-trips through a fresh Schedule
            rebuilt = Schedule(inst, flat)
            assert placements_key(rebuilt) == placements_key(sched)

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_aggregates_match_thawed(self, inst):
        for variant, sched in suite_schedules(inst):
            twin = sched.copy()
            assert twin.columns() is not None
            # thaw the twin by materializing + mutating a no-op
            twin._thaw()
            assert twin.columns() is None
            assert sched.makespan() == twin.makespan()
            assert sched.total_load() == twin.total_load()
            assert sched.used_machines() == twin.used_machines()
            assert sched.count_placements() == twin.count_placements()
            for u in range(inst.m):
                assert sched.machine_load(u) == twin.machine_load(u)
                assert sched.machine_end(u) == twin.machine_end(u)
                assert sched.items_on(u) == twin.items_on(u)
            for i in range(inst.c):
                assert sched.setup_count(i) == twin.setup_count(i)
            job = JobRef(0, 0)
            assert sched.job_total(job) == twin.job_total(job)

    def test_mutation_thaws_without_content_change(self):
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = solve(inst, Variant.NONPREEMPTIVE).schedule
        key_before = placements_key(sched)
        assert sched.columns() is not None
        p = sched.items_on(0)[0]
        sched.remove(p)
        assert sched.columns() is None  # thawed
        sched.add(p)
        assert sorted(placements_key(sched)) == sorted(key_before)

    def test_class_mismatched_placement_thaws(self):
        """A piece whose cls disagrees with its job has no columnar form."""
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        assert sched.columns() is not None
        bad = Placement(0, Fraction(2), Fraction(2), cls=0, job=JobRef(1, 0))
        sched.add(bad)
        assert sched.columns() is None  # thawed, placement kept verbatim
        with pytest.raises(validate_mod.InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "class-mismatch"
        with pytest.raises(ValueError):
            ScheduleColumns.from_placements([bad])

    def test_negative_job_idx_thaws(self):
        """job_idx = -1 marks setups, so a negative-idx piece must thaw
        (not silently decode as a setup) and still reject as unknown-job."""
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        bad = Placement(0, Fraction(2), Fraction(1), cls=0, job=JobRef(0, -1))
        sched.add(bad)
        assert sched.columns() is None  # thawed, placement kept verbatim
        with pytest.raises(validate_mod.InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "unknown-job"
        with pytest.raises(ValueError):
            ScheduleColumns.from_placements([bad])


class TestValidatorDifferential:
    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_verdicts_bit_identical_on_solver_output(self, inst):
        for variant, sched in suite_schedules(inst):
            cols = sched.columns()
            assert cols is not None
            want = validate_schedule_scalar(sched, variant)
            for tier in COLUMN_TIERS:
                got = validate_columns_on(tier, inst, cols, variant)
                assert got == want, (variant, tier)
            # and the columns survived scalar validation un-thawed
            assert sched.columns() is cols

    @pytest.mark.parametrize("inst", SUITE_INSTANCES[:10])
    def test_dispatch_without_numpy(self, inst, monkeypatch):
        """validate_schedule auto-dispatch with numpy absent (python tier)."""
        monkeypatch.setattr(validate_mod, "_np", None)
        for variant, sched in suite_schedules(inst):
            want = validate_schedule_scalar(sched, variant)
            assert validate_schedule(sched, variant) == want

    def test_overflow_fallback_mode(self):
        """Column stores beyond int64 stay exact (object mode, python tier)."""
        big = 1 << 70
        inst = Instance.build(2, [(big, [big, big]), (1, [2])])
        sched = solve(inst, Variant.NONPREEMPTIVE).schedule
        cols = sched.columns()
        assert cols is not None
        assert not cols.int_mode  # values beyond 62 bits flipped the store
        want = validate_schedule_scalar(sched, Variant.NONPREEMPTIVE)
        for tier in COLUMN_TIERS:  # numpy precheck must refuse, never wrap
            assert validate_columns_on(tier, inst, cols, Variant.NONPREEMPTIVE) == want
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
        assert cols is not None
        assert cols.dens == frozenset({1, 2, 3})
        L, starts, lengths = cols.scaled()
        assert L == 6
        assert [Fraction(s, L) for s in starts] == [
            p.start for p in sched.iter_all()
        ]
        assert sched.machine_end(0) == Fraction(19, 3)
        assert sched.machine_load(0) == 2 + 3 + Fraction(4, 3)
        assert sched.makespan() == Fraction(19, 3)


class TestRunsAdoption:
    """The PR-4 bulk surface: ``extend_runs``/``adopt_runs``/``rows``.

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

    def test_extend_runs_machine_range_checked(self):
        inst = mk(2, (2, [3]))
        sched = Schedule(inst)
        with pytest.raises(ValueError):
            sched.extend_runs([(5, [1], [0], [-1])], 1)
        with pytest.raises(ValueError):
            sched.extend_runs([(0, [1], [0], [-1])], 0)

    def test_extend_runs_thawed_equivalent(self):
        inst = mk(3, (2, [3, 4]), (1, [5]))
        cold = Schedule(inst)
        cold.extend_runs(self._runs(), 2)
        thawed = Schedule(inst)
        thawed._thaw()
        thawed.extend_runs(self._runs(), 2)
        assert placements_key(cold) == placements_key(thawed)

    def test_extend_runs_overflow_drops_int_mode(self):
        inst = mk(2, (2, [3]))
        sched = Schedule(inst)
        big = 1 << 63
        sched.extend_runs([(0, [big, big], [0, 0], [-1, 0])], 1)
        cols = sched.columns()
        assert not cols.int_mode
        assert sched.machine_end(0) == 2 * big
        cols.compact()  # must stay in exact list mode beyond int64
        assert isinstance(cols.machine, list)

    def test_adopt_runs_is_lazy_then_flushes(self):
        class Provider:
            def __init__(self, runs):
                self._runs = runs
                self.calls = 0

            def runs(self):
                self.calls += 1
                return iter(self._runs)

        inst = mk(3, (2, [3, 4]), (1, [5]))
        provider = Provider(self._runs())
        sched = Schedule(inst)
        sched.adopt_runs(provider, 1)
        assert provider.calls == 0  # nothing materialized yet
        assert sched.makespan() == 9  # first read flushes exactly once
        assert provider.calls == 1
        assert len(sched.columns()) == 5
        assert provider.calls == 1

    def test_adopt_runs_requires_fresh_schedule(self):
        inst = mk(2, (2, [3]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        with pytest.raises(ValueError):
            sched.adopt_runs(type("P", (), {"runs": lambda self: iter(())})(), 1)

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

    def test_rows_thawed_fallback(self):
        inst = mk(2, (2, [3]), (1, [2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, 2, JobRef(0, 0))
        sched.add_setup(1, Fraction(1, 2), 1)
        sched._thaw()
        rows = sched.rows()
        assert rows.scale == 2
        assert list(rows.machine) == [0, 0, 1]
        assert list(rows.start_num) == [0, 4, 1]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy tier only")
    def test_rows_zero_copy_numpy(self):
        import numpy as np

        inst = mk(2, (2, [3]))
        sched = solve(inst, Variant.NONPREEMPTIVE).schedule
        rows = sched.rows()
        assert isinstance(rows.machine, np.ndarray)
        assert rows.machine.dtype == np.int64
        # zero copy: the view reflects the live buffer
        cols = sched.columns()
        assert rows.length_num[0] == cols.length_num[0]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy tier only")
    def test_rows_snapshot_survives_mutation(self):
        """Mutating after rows() must not raise BufferError: the columns
        flip to fresh list buffers and the held view stays a snapshot."""
        inst = mk(2, (2, [3, 4]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, 2, JobRef(0, 0))
        rows = sched.rows()
        n_before = len(rows)
        sched.add_job(1, 0, JobRef(0, 1))  # would BufferError on the old path
        assert sched.count_placements() == n_before + 1
        assert len(rows) == n_before  # the projection is a stable snapshot
        assert list(rows.machine) == [0, 0]
        fresh = sched.rows()  # a new projection sees the appended row
        assert len(fresh) == n_before + 1

    @pytest.mark.parametrize("case", [
        "one-den", "several-dens", "object-mode", "compacted", "from-ipc",
        "empty-adopt",
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
            assert len(sched.columns().dens) == 3
        elif case == "object-mode":
            big = 1 << 70
            inst = Instance.build(2, [(big, [big, big]), (1, [2])])
            sched = solve(inst, Variant.PREEMPTIVE).schedule
            assert not sched.columns().int_mode
        elif case == "empty-adopt":
            sched = Schedule(inst)
            sched.adopt_runs(type("P", (), {"runs": lambda self: iter([
                (0, [], [], []), (3, (), (), ())])})(), 5)
            assert len(sched.columns()) == 0 and sched.columns().dens == {5}
        else:
            sched = solve(inst, Variant.SPLITTABLE).schedule
            if case == "compacted":
                sched.columns().compact()
            elif case == "from-ipc":
                payload = pickle.loads(pickle.dumps(sched.columns().to_ipc(), 5))
                sched = Schedule.from_columns(inst, ScheduleColumns.from_ipc(payload))
            assert len(sched.columns().dens) == 1
        want = max(sched.machine_end(u) for u in range(inst.m))
        assert sched.makespan() == want
        if case == "empty-adopt":
            assert want == 0

    def test_compact_rebuilds_int64_buffers(self):
        from array import array

        inst = mk(3, (2, [3, 4]), (1, [5]))
        sched = Schedule(inst)
        sched.extend_runs(self._runs(), 1)
        cols = sched.columns()
        assert isinstance(cols.machine, list)  # bulk-list adoption mode
        cols.compact()
        assert isinstance(cols.machine, array)
        assert cols.int_mode
        assert placements_key(sched)  # still readable after compaction
