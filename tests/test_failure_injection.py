"""Failure injection: corrupted schedules must never pass the validators.

The validators are the trust anchor of the whole test suite (every
construction is accepted only if they pass), so this module attacks them:
take a known-good schedule produced by a real algorithm, apply a targeted
corruption, and require rejection with the right reason.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    InfeasibleScheduleError,
    Instance,
    Placement,
    Schedule,
    Variant,
    is_feasible,
    validate_schedule,
)
from repro.algos.api import solve

from .conftest import mk


def base_schedule() -> tuple[Instance, Schedule]:
    inst = mk(3, (3, [4, 6, 2]), (2, [3, 3]), (5, [7]))
    res = solve(inst, Variant.NONPREEMPTIVE, "three_halves")
    return inst, res.schedule


def rebuild_without(schedule: Schedule, victim: Placement) -> Schedule:
    out = Schedule(schedule.instance)
    for p in schedule.iter_all():
        if p is not victim:
            out.add(p)
    return out


class TestTargetedCorruption:
    def test_baseline_is_feasible(self):
        _, sched = base_schedule()
        validate_schedule(sched, Variant.NONPREEMPTIVE)

    def test_drop_any_job_piece_caught(self):
        _, sched = base_schedule()
        for victim in [p for p in sched.iter_all() if not p.is_setup]:
            broken = rebuild_without(sched, victim)
            with pytest.raises(InfeasibleScheduleError) as e:
                validate_schedule(broken, Variant.NONPREEMPTIVE)
            assert e.value.reason == "job-incomplete"

    def test_drop_any_setup_caught(self):
        _, sched = base_schedule()
        for victim in [p for p in sched.iter_all() if p.is_setup]:
            broken = rebuild_without(sched, victim)
            # dropping a setup must break the state machine (every setup in
            # a dual construction guards at least one batch)
            assert not is_feasible(broken, Variant.NONPREEMPTIVE)

    def test_shift_into_overlap_caught(self):
        _, sched = base_schedule()
        # pick a machine with >= 2 items and slide the second onto the first
        for u in sched.used_machines():
            items = sched.items_on(u)
            if len(items) >= 2:
                victim = items[1]
                broken = rebuild_without(sched, victim)
                # give the victim the same start as the first item: overlap
                broken.add(victim.shifted(items[0].start - victim.start))
                with pytest.raises(InfeasibleScheduleError) as e:
                    validate_schedule(broken, Variant.NONPREEMPTIVE)
                assert e.value.reason in ("overlap", "setup-missing")
                return
        pytest.fail("no machine with two items")

    def test_shrink_setup_caught(self):
        inst, sched = base_schedule()
        victim = next(p for p in sched.iter_all() if p.is_setup and p.length > 1)
        broken = rebuild_without(sched, victim)
        broken.add(
            Placement(victim.machine, victim.start, victim.length - 1, victim.cls)
        )
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(broken, Variant.NONPREEMPTIVE)
        assert e.value.reason == "setup-preempted"

    def test_retag_piece_class_caught(self):
        inst, sched = base_schedule()
        victim = next(p for p in sched.iter_all() if not p.is_setup)
        broken = rebuild_without(sched, victim)
        other_cls = (victim.cls + 1) % inst.c
        with pytest.raises(ValueError, match="no columnar encoding"):
            broken.add(
                Placement(victim.machine, victim.start, victim.length, other_cls, victim.job)
            )
        assert broken.count_placements() == sched.count_placements() - 1

    def test_duplicate_piece_caught(self):
        _, sched = base_schedule()
        victim = next(p for p in sched.iter_all() if not p.is_setup)
        broken = sched.copy()
        broken.add(victim.shifted(victim.length + 50))
        with pytest.raises(InfeasibleScheduleError) as e:
            validate_schedule(broken, Variant.NONPREEMPTIVE)
        assert e.value.reason in ("job-incomplete", "job-preempted", "setup-missing")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    attack=st.sampled_from(["drop", "teleport", "shrink_piece", "grow_piece"]),
)
def test_random_mutations_never_pass(seed, attack):
    """Any random single mutation of a valid schedule is caught.

    Each attack is corrupting by construction: dropping breaks
    completeness (or orphans a batch, for setups); teleporting a piece to
    time 0 lands either in overlap or before any setup; resizing a piece
    breaks completeness exactly.
    """
    import random

    rng = random.Random(seed)
    inst = mk(3, (3, [4, 6, 2]), (2, [3, 3]), (5, [7]))
    sched = solve(inst, Variant.NONPREEMPTIVE, "three_halves").schedule
    placements = list(sched.iter_all())
    if attack == "drop":
        victim = rng.choice(placements)
    else:
        victim = rng.choice([p for p in placements if not p.is_setup])
    broken = rebuild_without(sched, victim)

    if attack == "drop":
        pass  # victim simply removed
    elif attack == "teleport":
        target = rng.randrange(inst.m)
        broken.add(Placement(target, Fraction(0), victim.length, victim.cls, victim.job))
    elif attack == "shrink_piece":
        if victim.length <= 1:
            broken.add(victim)  # nothing to shrink; keep valid and skip
            validate_schedule(broken, Variant.NONPREEMPTIVE)
            return
        broken.add(Placement(victim.machine, victim.start, victim.length - Fraction(1, 2),
                             victim.cls, victim.job))
    elif attack == "grow_piece":
        broken.add(Placement(victim.machine, victim.start, victim.length + Fraction(1, 2),
                             victim.cls, victim.job))

    assert not is_feasible(broken, Variant.NONPREEMPTIVE), (
        f"mutation {attack} of {victim} slipped past the validator"
    )
