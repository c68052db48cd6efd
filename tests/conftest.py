"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.algos.search import drive_plan, probe_evaluator
from repro.core import Instance, JobRef, Schedule

#: The aggregates an ``Instance`` computes on first read.
AGGREGATES = (
    "class_processing", "class_tmax", "class_sizes", "n",
    "total_processing", "total_load", "smax", "tmax",
)


@pytest.fixture
def tiny() -> Instance:
    """2 machines, 2 classes, 5 jobs — small enough to reason by hand."""
    return Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


@pytest.fixture
def single_class() -> Instance:
    return Instance.build(3, [(5, [4, 4, 4, 4])])


@pytest.fixture
def single_machine() -> Instance:
    return Instance.build(1, [(2, [3]), (4, [1, 5])])


def run_plan(plan, instance: Instance, *, fast: bool = True) -> tuple:
    """Drive a probe plan on ``instance``; its ``(num, den)`` times as Fractions."""
    res = drive_plan(plan, probe_evaluator(instance, fast=fast))
    return tuple(Fraction(*x) if isinstance(x, tuple) else x for x in res)


def mk(m: int, *classes: tuple[int, list[int]]) -> Instance:
    """Terse instance literal: ``mk(2, (2,[3,4]), (1,[2,2]))``."""
    return Instance.build(m, list(classes))


def general_case_instance() -> Instance:
    """An instance with a non-empty I0exp and an I*chp knapsack at T=20.

    T = 20: class 0: s=11 > 10, s+P=16 ∈ (15,20) → I0exp (large machine).
    class 1: s=12, P=16 → I+exp.  class 2: s=3 < 5, job 9: 3+9=12 > 10 → star.
    class 3: s=2 < 5, small jobs → I-chp non-star.
    """
    return mk(
        4,
        (11, [5]),
        (12, [8, 8]),
        (3, [9, 2]),
        (2, [3, 3]),
    )


def accepted_3a_instance() -> Instance:
    """Accepted at T=20 with case 3a: 8 large machines feed the bottoms.

    l = 8 large classes (11,[5]); 5 star classes (3,[8]) with demand 55 over
    free time F = 40 and L* = 20; the knapsack selects two, splits one
    (x = 6/7) and leaves two for the large-machine bottoms.
    """
    return mk(10, *([(11, [5])] * 8 + [(3, [8])] * 5))


def full_job_schedule(inst: Instance, assignment: dict[int, list[JobRef]]) -> Schedule:
    """Build a simple non-preemptive schedule: per machine, a list of jobs.

    Jobs are grouped in the given order; a setup is inserted whenever the
    class changes.  Start at time 0, no idle time.
    """
    sched = Schedule(inst)
    for machine, jobs in assignment.items():
        t = Fraction(0)
        state = None
        for job in jobs:
            if state != job.cls:
                sched.add_setup(machine, t, job.cls)
                t += inst.setups[job.cls]
                state = job.cls
            sched.add_job(machine, t, job)
            t += inst.job_time(job)
    return sched


def mixed_denominator_schedule() -> Schedule:
    """A hand-built splittable schedule of the ``tiny`` instance whose rows
    are appended at denominators 1, 2 and 3 (common scale 6)."""
    sched = Schedule(mk(2, (2, [3, 4]), (1, [2, 2, 2])))
    sched.add_setup(0, 0, 0)
    sched.add_piece(0, Fraction(2), JobRef(0, 0), Fraction(3, 2))
    sched.add_piece(1, Fraction(7, 2), JobRef(0, 0), Fraction(3, 2))
    sched.add_piece(0, Fraction(5), JobRef(0, 1), Fraction(4, 3))
    return sched


J = JobRef  # shorthand in tests
