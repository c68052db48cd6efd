"""Mutation tests: corrupt one column entry, both validators must agree.

Each case takes a *valid* columnar schedule, corrupts exactly one entry of
one column (a start, a length, a class, a job index), and asserts that

* the columnar validator rejects, and
* its error ``reason`` and message are identical to the scalar
  validator's on the same (materialized) schedule.

This is the sharpest form of the bit-identical-verdicts contract: the two
validators must not only accept the same schedules, they must *fail the
same way*.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core import (
    InfeasibleScheduleError,
    JobRef,
    Schedule,
    Variant,
    validate_columns,
    validate_schedule_scalar,
)

from .conftest import full_job_schedule, mk


def valid_schedule() -> Schedule:
    """Two machines, one class each, one split-free batch per machine."""
    inst = mk(2, (2, [3, 4]), (2, [3, 4]))
    return full_job_schedule(
        inst,
        {
            0: [JobRef(0, 0), JobRef(0, 1)],
            1: [JobRef(1, 0), JobRef(1, 1)],
        },
    )


def job_row(cols, machine: int, nth: int = 0) -> int:
    """Index of the ``nth`` job row on ``machine`` (insertion order)."""
    seen = 0
    for k in range(len(cols)):
        if cols.machine[k] == machine and cols.job_idx[k] >= 0:
            if seen == nth:
                return k
            seen += 1
    raise AssertionError("row not found")


def setup_row(cols, machine: int) -> int:
    for k in range(len(cols)):
        if cols.machine[k] == machine and cols.job_idx[k] < 0:
            return k
    raise AssertionError("row not found")


def assert_same_rejection(sched: Schedule, variant: Variant, expected: str):
    """Columnar and scalar validators reject with the same reason tag."""
    cols = sched.columns()
    assert cols is not None
    with pytest.raises(InfeasibleScheduleError) as e_cols:
        validate_columns(sched.instance, cols, variant)
    assert e_cols.value.reason == expected
    with pytest.raises(InfeasibleScheduleError) as e_scalar:
        validate_schedule_scalar(sched, variant)
    assert e_scalar.value.reason == expected
    # identical messages too, not just tags
    assert str(e_cols.value) == str(e_scalar.value)


class TestSingleEntryCorruption:
    def test_overlap(self):
        sched = valid_schedule()
        cols = sched.columns()
        k = job_row(cols, 0, nth=1)  # second job: pull its start back by 1
        cols.start_num[k] -= 1
        assert_same_rejection(sched, Variant.SPLITTABLE, "overlap")

    def test_negative_start(self):
        sched = valid_schedule()
        cols = sched.columns()
        cols.start_num[setup_row(cols, 0)] = -1
        assert_same_rejection(sched, Variant.SPLITTABLE, "negative-start")

    def test_setup_preempted(self):
        sched = valid_schedule()
        cols = sched.columns()
        cols.length_num[setup_row(cols, 1)] -= 1
        assert_same_rejection(sched, Variant.SPLITTABLE, "setup-preempted")

    def test_missing_setup_via_class_corruption(self):
        # retag one job row to the (structurally identical) other class:
        # the machine is configured for the original class -> setup-missing
        sched = valid_schedule()
        cols = sched.columns()
        k = job_row(cols, 1, nth=1)
        cols.cls[k] = 0
        assert_same_rejection(sched, Variant.SPLITTABLE, "setup-missing")

    def test_short_job_piece(self):
        sched = valid_schedule()
        cols = sched.columns()
        k = job_row(cols, 0, nth=1)  # last item on machine 0: no overlap
        cols.length_num[k] -= 1
        assert_same_rejection(sched, Variant.SPLITTABLE, "job-incomplete")

    def test_piece_too_long(self):
        sched = valid_schedule()
        cols = sched.columns()
        k = job_row(cols, 0, nth=1)
        cols.length_num[k] += 1
        assert_same_rejection(sched, Variant.SPLITTABLE, "piece-too-long")

    def test_empty_piece(self):
        sched = valid_schedule()
        cols = sched.columns()
        cols.length_num[job_row(cols, 0, nth=1)] = 0
        assert_same_rejection(sched, Variant.SPLITTABLE, "empty-piece")

    def test_bad_class(self):
        sched = valid_schedule()
        cols = sched.columns()
        cols.cls[job_row(cols, 0, nth=0)] = 99
        assert_same_rejection(sched, Variant.SPLITTABLE, "bad-class")

    def test_unknown_job(self):
        sched = valid_schedule()
        cols = sched.columns()
        cols.job_idx[job_row(cols, 0, nth=0)] = 99
        assert_same_rejection(sched, Variant.SPLITTABLE, "unknown-job")

    def test_check_order_across_machines(self):
        """Whole-pass ordering: overlap on a *later* machine must win over
        setup-missing on an earlier machine (the scalar validator runs
        each check as a pass over all machines, not machine-by-machine)."""
        inst = mk(2, (2, [3, 4]), (1, [2, 2, 2]))
        sched = Schedule(inst)
        sched.add_job(0, 0, JobRef(1, 0))          # machine 0: no setup
        sched.add_setup(1, 0, 0)                   # machine 1: setup [0,2)
        sched.add_job(1, 1, JobRef(0, 0))          # overlaps the setup
        assert_same_rejection(sched, Variant.SPLITTABLE, "overlap")

    @pytest.mark.parametrize("machine", [-1, 7])
    def test_bad_machine_columnar_only_rule(self, machine):
        # A Schedule can never hold an out-of-range machine (add refuses),
        # so this rule exists only on the raw-columns surface — but it must
        # reject, not IndexError.
        sched = valid_schedule()
        cols = sched.columns().copy()
        cols.machine[job_row(cols, 0, nth=0)] = machine
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_columns(sched.instance, cols, Variant.SPLITTABLE)
        assert e.value.reason == "bad-machine"


class TestVariantRules:
    def test_job_preempted(self):
        """A job split across machines: fine splittable, rejected nonp."""
        inst = mk(2, (2, [6]), (1, [2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_piece(0, 2, JobRef(0, 0), 3)
        sched.add_setup(1, 0, 0)
        sched.add_piece(1, 5, JobRef(0, 0), 3)  # disjoint in time
        sched.add_setup(1, 8, 1)
        sched.add_piece(1, 9, JobRef(1, 0), 2)
        cols = sched.columns()
        assert cols is not None
        assert validate_columns(inst, cols, Variant.SPLITTABLE) \
            == validate_schedule_scalar(sched, Variant.SPLITTABLE)
        assert validate_columns(inst, cols, Variant.PREEMPTIVE) \
            == validate_schedule_scalar(sched, Variant.PREEMPTIVE)
        assert_same_rejection(sched, Variant.NONPREEMPTIVE, "job-preempted")

    def test_job_parallel(self):
        """Self-overlapping pieces: fine splittable, rejected preemptive."""
        inst = mk(2, (2, [6]), (1, [2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_piece(0, 2, JobRef(0, 0), 3)
        sched.add_setup(1, 0, 0)
        sched.add_piece(1, 4, JobRef(0, 0), 3)  # overlaps [4,5) with machine 0
        sched.add_setup(1, 8, 1)
        sched.add_piece(1, 9, JobRef(1, 0), 2)
        cols = sched.columns()
        assert cols is not None
        assert validate_columns(inst, cols, Variant.SPLITTABLE) \
            == validate_schedule_scalar(sched, Variant.SPLITTABLE)
        assert_same_rejection(sched, Variant.PREEMPTIVE, "job-parallel")

    def test_corruption_beyond_int64(self):
        """Columns beyond int64 reject identically too."""
        big = 1 << 70
        inst = mk(2, (big, [big]), (1, [2]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, 0)
        sched.add_job(0, big, JobRef(0, 0))
        sched.add_setup(1, 0, 1)
        sched.add_job(1, 1, JobRef(1, 0))
        cols = sched.columns()
        assert max(cols.start_num) >= 1 << 63
        cols.length_num[1] -= 1  # shorten the big job
        assert_same_rejection(sched, Variant.NONPREEMPTIVE, "job-incomplete")
