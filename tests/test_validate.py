"""Unit tests for the feasibility validators (incl. failure injection)."""

from fractions import Fraction

import pytest

from repro.core import (
    InfeasibleScheduleError,
    Instance,
    JobRef,
    Placement,
    Schedule,
    Variant,
    is_feasible,
    validate_schedule,
)

from .conftest import full_job_schedule, mk


@pytest.fixture
def inst():
    return Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


def good_schedule(inst) -> Schedule:
    return full_job_schedule(
        inst,
        {
            0: [JobRef(0, 0), JobRef(0, 1)],
            1: [JobRef(1, 0), JobRef(1, 1), JobRef(1, 2)],
        },
    )


class TestHappyPath:
    def test_valid_all_variants(self, inst):
        sched = good_schedule(inst)
        for variant in Variant:
            assert validate_schedule(sched, variant) == 9

    def test_makespan_bound_ok(self, inst):
        validate_schedule(good_schedule(inst), Variant.NONPREEMPTIVE, makespan_bound=9)

    def test_makespan_bound_violated(self, inst):
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(good_schedule(inst), Variant.NONPREEMPTIVE, makespan_bound=8)
        assert e.value.reason == "makespan"

    def test_is_feasible_wrapper(self, inst):
        assert is_feasible(good_schedule(inst), Variant.SPLITTABLE)
        assert not is_feasible(good_schedule(inst), Variant.SPLITTABLE, makespan_bound=1)

    def test_idle_time_allowed(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 10, JobRef(0, 0))  # idle [2,10) then process
        sched.add_job(0, 20, JobRef(0, 1))  # idle again, same class: no new setup
        sched.add_setup(1, 0, cls=1)
        for j in range(3):
            sched.add_job(1, 1 + 2 * j, JobRef(1, j))
        validate_schedule(sched, Variant.NONPREEMPTIVE)


class TestMissingOrBrokenSetups:
    def test_job_without_setup(self, inst):
        sched = good_schedule(inst)
        sched.add_job(0, 9, JobRef(1, 0))  # class 1 job on machine configured for 0
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason in ("setup-missing", "job-incomplete")

    def test_first_item_job(self, inst):
        sched = Schedule(inst)
        sched.add_job(0, 0, JobRef(0, 0))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason in ("setup-missing", "job-incomplete")

    def test_switch_without_setup(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 2, JobRef(0, 0))
        sched.add_setup(0, 5, cls=1)
        sched.add_job(0, 6, JobRef(1, 0))
        sched.add_job(0, 8, JobRef(0, 1))  # back to class 0 without new setup
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason in ("setup-missing", "job-incomplete")

    def test_preempted_setup_rejected(self, inst):
        sched = Schedule(inst)
        # setup of class 0 has s=2; place a half setup
        sched.add(Placement(0, Fraction(0), Fraction(1), cls=0))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "setup-preempted"

    def test_zero_length_setup_class(self):
        inst = mk(1, (0, [1]))
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 0, JobRef(0, 0))
        validate_schedule(sched, Variant.NONPREEMPTIVE)


class TestOverlapAndSanity:
    def test_machine_overlap(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 1, JobRef(0, 0))  # overlaps the setup [0,2)
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "overlap"

    def test_touching_intervals_ok(self, inst):
        sched = Schedule(inst)
        sched.add_setup(1, 0, cls=1)
        sched.add_job(1, 1, JobRef(1, 0))
        sched.add_job(1, 3, JobRef(1, 1))  # starts exactly at previous end
        sched.add_job(1, 5, JobRef(1, 2))
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 2, JobRef(0, 0))
        sched.add_job(0, 5, JobRef(0, 1))
        validate_schedule(sched, Variant.PREEMPTIVE)

    def test_unknown_job(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add(Placement(0, Fraction(2), Fraction(1), cls=0, job=JobRef(0, 5)))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "unknown-job"

    def test_class_mismatch_piece(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        bad = Placement(0, Fraction(2), Fraction(2), cls=0, job=JobRef(1, 0))
        with pytest.raises(ValueError, match="no columnar encoding"):
            sched.add(bad)
        assert sched.count_placements() == 1

    def test_zero_length_piece_rejected(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add(Placement(0, Fraction(2), Fraction(0), cls=0, job=JobRef(0, 0)))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "empty-piece"

    def test_piece_longer_than_job(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add(Placement(0, Fraction(2), Fraction(10), cls=0, job=JobRef(0, 0)))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "piece-too-long"


class TestCompleteness:
    def test_missing_job(self, inst):
        kept = [p for p in good_schedule(inst).iter_all() if p.job != JobRef(1, 2)]
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(Schedule(inst, kept), Variant.SPLITTABLE)
        assert e.value.reason == "job-incomplete"

    def test_partial_job(self, inst):
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_piece(0, 2, JobRef(0, 0), Fraction(1))  # t_j = 3, only 1 placed
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason == "job-incomplete"

    def test_over_scheduled_job(self, inst):
        sched = good_schedule(inst)
        sched.add_piece(0, 9, JobRef(0, 0), Fraction(1))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.SPLITTABLE)
        assert e.value.reason in ("job-incomplete",)


class TestVariantRules:
    def _split_two_pieces(self, inst, parallel: bool) -> Schedule:
        """Job (0,1) (t=4) split across both machines."""
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_job(0, 2, JobRef(0, 0))            # [2,5)
        sched.add_piece(0, 5, JobRef(0, 1), 2)       # [5,7)
        sched.add_setup(1, 0, cls=0)
        start2 = 4 if parallel else 7                # [4,6) overlaps [5,7)
        sched.add_piece(1, start2, JobRef(0, 1), 2)
        # class 1 jobs tucked on machine 1 before/after
        sched.add_setup(1, 10, cls=1)
        for j in range(3):
            sched.add_job(1, 11 + 2 * j, JobRef(1, j))
        return sched

    def test_preemptive_split_ok(self, inst):
        sched = self._split_two_pieces(inst, parallel=False)
        validate_schedule(sched, Variant.PREEMPTIVE)
        validate_schedule(sched, Variant.SPLITTABLE)

    def test_preemptive_rejects_parallel_self(self, inst):
        sched = self._split_two_pieces(inst, parallel=True)
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.PREEMPTIVE)
        assert e.value.reason == "job-parallel"
        # splittable is fine with it
        validate_schedule(sched, Variant.SPLITTABLE)

    def test_nonpreemptive_rejects_any_split(self, inst):
        sched = self._split_two_pieces(inst, parallel=False)
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(sched, Variant.NONPREEMPTIVE)
        assert e.value.reason == "job-preempted"

    def test_pieces_touching_in_time_ok_preemptive(self, inst):
        # piece [2,4) on M0 and piece [4,6) on M1: allowed (no overlap)
        sched = Schedule(inst)
        sched.add_setup(0, 0, cls=0)
        sched.add_piece(0, 2, JobRef(0, 1), 2)
        sched.add_setup(1, 0, cls=0)
        sched.add_piece(1, 4, JobRef(0, 1), 2)
        sched.add_job(1, 6, JobRef(0, 0))
        sched.add_setup(1, 9, cls=1)
        for j in range(3):
            sched.add_job(1, 10 + 2 * j, JobRef(1, j))
        validate_schedule(sched, Variant.PREEMPTIVE)
