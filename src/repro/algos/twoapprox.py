"""The O(n) 2-approximations of Theorem 1 (Appendix A.2).

* :func:`two_approx_splittable` — Lemma 8: wrap the single sequence of all
  classes into identical gaps ``[s_max, s_max + N/m)`` on every machine.
  Makespan ≤ ``s_max + N/m ≤ 2·max{N/m, s_max} ≤ 2·OPT_split``.

* :func:`two_approx_grouped` — Lemma 9 (non-preemptive *and* preemptive):
  next-fit by classes with threshold ``T_min``, then move every
  ``T_min``-crossing item to the start of the next machine (jobs get a fresh
  setup), finally drop setups that end a machine.  Makespan ≤ ``2·T_min ≤
  2·OPT``.  The result is non-preemptive, hence feasible for the preemptive
  problem as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core.bounds import Variant, t_min
from ..core.instance import Instance, JobRef
from ..core.numeric import Time
from ..core.schedule import Placement, Schedule
from ..core.wrapping import Batch, WrapSequence, template_for_machines, wrap


@dataclass(frozen=True)
class TwoApproxResult:
    """Schedule plus the certificate ``T_min ≤ OPT`` it was built against."""

    schedule: Schedule
    t_min: Time
    #: proven upper bound on the produced makespan (2·T_min).
    makespan_bound: Time


def two_approx_splittable(instance: Instance) -> TwoApproxResult:
    """Lemma 8 — O(n) 2-approximation for ``P|split,setup=s_i|Cmax``."""
    tmin = t_min(instance, Variant.SPLITTABLE)
    height = Fraction(instance.total_load, instance.m)  # N/m
    smax = instance.smax
    template = template_for_machines(
        list(range(instance.m)), smax, Fraction(smax) + height
    )
    schedule = Schedule(instance)
    sequence = WrapSequence(tuple(Batch.whole(instance, i) for i in range(instance.c)))
    wrap(schedule, sequence, template)
    return TwoApproxResult(schedule, tmin, makespan_bound=2 * tmin)


# --------------------------------------------------------------------------- #
# Lemma 9: next-fit with threshold + repair
# --------------------------------------------------------------------------- #


@dataclass
class _Item:
    """One next-fit stream item (setup or whole job)."""

    cls: int
    job: Optional[JobRef]  # None for setups
    length: int


def _next_fit_stream(instance: Instance) -> list[_Item]:
    """The stream ``s_1, j^1_1..j^1_{n_1}, s_2, ...`` of Lemma 9."""
    items: list[_Item] = []
    for i in range(instance.c):
        items.append(_Item(cls=i, job=None, length=instance.setups[i]))
        for job, t in instance.class_jobs(i):
            items.append(_Item(cls=i, job=job, length=t))
    return items


def _materialize_items(instance: Instance, machines: list[list["_Item"]]) -> Schedule:
    """Build a Schedule from next-fit item lists (no idle time)."""
    schedule = Schedule(instance)
    for u, items in enumerate(machines):
        t = Fraction(0)
        for item in items:
            if item.job is None:
                schedule.add(
                    Placement(machine=u, start=t, length=Fraction(item.length), cls=item.cls)
                )
            else:
                schedule.add_piece(u, t, item.job, Fraction(item.length))
            t += item.length
    return schedule


def two_approx_grouped(
    instance: Instance, stages_out: Optional[dict] = None
) -> TwoApproxResult:
    """Lemma 9 — O(n) 2-approximation for the (non-)preemptive problems.

    Works for both variants because the output never preempts a job.
    ``stages_out`` (a dict) receives the Figure-7 snapshots: the raw
    next-fit layout (``"phase1"``) and the repaired one (``"final"``).
    """
    tmin = t_min(instance, Variant.NONPREEMPTIVE)

    # Phase 1: next-fit with threshold tmin. Machines are materialized only
    # as item lists; machine u is "closed" once its load exceeds tmin (the
    # crossing item stays, per the paper).
    machines: list[list[_Item]] = [[]]
    load: Fraction = Fraction(0)
    for item in _next_fit_stream(instance):
        machines[-1].append(item)
        load += item.length
        if load > tmin:
            machines.append([])
            load = Fraction(0)
    # A trailing empty machine is kept on purpose: if the stream ended on a
    # crossing item, phase 2 moves that item onto it (Figure 7, machine 5).
    if not machines[-1] and len(machines) == 1:
        machines.pop()
    if len(machines) > instance.m:
        raise AssertionError(
            "next-fit used more than m machines; contradicts N <= m*T_min"
        )
    if stages_out is not None:
        stages_out["phase1"] = _materialize_items(
            instance, [list(items) for items in machines if items]
        )

    # Phase 2: move each T_min-crossing item (the last item of every machine
    # but the final one) to the start of the next machine; a moved job gets a
    # fresh setup right before it.
    for u in range(len(machines) - 1):
        mover = machines[u].pop()
        if mover.job is None:
            machines[u + 1].insert(0, mover)
        else:
            machines[u + 1].insert(0, mover)
            machines[u + 1].insert(
                0, _Item(cls=mover.cls, job=None, length=instance.setups[mover.cls])
            )

    # Phase 3: drop setups that are last on a machine (they serve nothing),
    # then drop machines that ended up empty.
    for items in machines:
        while items and items[-1].job is None:
            items.pop()
    machines = [items for items in machines if items]

    schedule = _materialize_items(instance, machines)
    if stages_out is not None:
        stages_out["final"] = schedule
    return TwoApproxResult(schedule, tmin, makespan_bound=2 * tmin)


def two_approx(instance: Instance, variant: Variant) -> TwoApproxResult:
    """Dispatch: the O(n) 2-approximation for any variant (Theorem 1)."""
    if variant is Variant.SPLITTABLE:
        return two_approx_splittable(instance)
    return two_approx_grouped(instance)
