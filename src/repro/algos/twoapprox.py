"""The O(n) 2-approximations of Theorem 1 (Appendix A.2).

* :func:`two_approx_splittable` — Lemma 8: wrap the single sequence of all
  classes into identical gaps ``[s_max, s_max + N/m)`` on every machine.
  Makespan ≤ ``s_max + N/m ≤ 2·max{N/m, s_max} ≤ 2·OPT_split``.

* :func:`two_approx_grouped` — Lemma 9 (non-preemptive *and* preemptive):
  next-fit by classes with threshold ``T_min``, then move every
  ``T_min``-crossing item to the start of the next machine (jobs get a fresh
  setup), finally drop setups that end a machine.  Makespan ≤ ``2·T_min ≤
  2·OPT``.  The result is non-preemptive, hence feasible for the preemptive
  problem as well.  The phases edit positions in :func:`class_stream`'s int
  lists, and each layout leaves as stacked runs at scale 1
  (:func:`stacked_schedule`), as do :mod:`repro.algos.api`'s trivial optima.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import floor
from typing import Optional

from ..core.bounds import Variant, t_min
from ..core.instance import Instance
from ..core.numeric import Time
from ..core.schedule import Schedule
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

def class_stream(instance: Instance) -> tuple[list[int], list[int], list[int]]:
    """The stream ``s_1, C_1, s_2, C_2, ...`` as three int lists: lengths
    (plain ints, also for a bool entry), classes, and job indices with
    ``-1`` marking a setup, so job ``j`` sits ``j + 1`` places after its
    class's setup."""
    jobs = instance.jobs
    lens = chain.from_iterable((s, *ts) for s, ts in zip(instance.setups, jobs))
    clss = chain.from_iterable([i] * (len(ts) + 1) for i, ts in enumerate(jobs))
    jidxs = chain.from_iterable(range(-1, len(ts)) for ts in jobs)
    return list(map(int, lens)), list(clss), list(jidxs)


def stacked_schedule(instance: Instance, stream, machines) -> Schedule:
    """Machine ``u`` runs the ``stream`` positions ``machines[u]`` back to
    back from time 0: stacked runs at scale 1."""
    lens, clss, jidxs = stream
    schedule = Schedule(instance)
    schedule.extend_runs(
        ((u, [lens[p] for p in pos], [clss[p] for p in pos], [jidxs[p] for p in pos])
         for u, pos in enumerate(machines)),
        1,
    )
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
    stream = class_stream(instance)
    lens, _, jidxs = stream
    n = len(lens)

    # Phase 1: next-fit with threshold tmin, one bisection per machine: it
    # closes with the first item whose prefix sum exceeds its start's plus
    # tmin (that item stays, per the paper); loads are ints, so floor(tmin)
    # cuts alike.
    prefix = list(accumulate(lens, initial=0))
    cap = floor(tmin)
    cuts = [0]  # the first stream position of each machine
    while (b := bisect_right(prefix, prefix[cuts[-1]] + cap, cuts[-1] + 1)) <= n:
        cuts.append(b)
    # A trailing empty machine (cuts[-1] == n) is kept on purpose: the
    # stream ended on a crossing item, and phase 2 moves that item onto it.
    if len(cuts) > instance.m:
        raise AssertionError(
            "next-fit used more than m machines; contradicts N <= m*T_min"
        )
    if stages_out is not None:
        stages_out["phase1"] = stacked_schedule(
            instance, stream, [range(a, b) for a, b in zip(cuts, cuts[1:] + [n])]
        )

    # Phase 2: move each T_min-crossing item (the last item of every machine
    # but the final one) to the start of the next machine; a moved job gets a
    # fresh setup right before it.
    machines, head = [], []
    for a, b in zip(cuts, cuts[1:]):
        b -= 1  # the crossing item
        machines.append(head + list(range(a, b)))
        head = [b] if jidxs[b] < 0 else [b - jidxs[b] - 1, b]
    machines.append(head + list(range(cuts[-1], n)))

    # Phase 3: drop setups that are last on a machine (they serve nothing),
    # then drop machines that ended up empty.
    for pos in machines:
        while pos and jidxs[pos[-1]] < 0:
            pos.pop()
    schedule = stacked_schedule(instance, stream, [pos for pos in machines if pos])
    if stages_out is not None:
        stages_out["final"] = schedule
    return TwoApproxResult(schedule, tmin, makespan_bound=2 * tmin)


def two_approx(instance: Instance, variant: Variant) -> TwoApproxResult:
    """Dispatch: the O(n) 2-approximation for any variant (Theorem 1)."""
    if variant is Variant.SPLITTABLE:
        return two_approx_splittable(instance)
    return two_approx_grouped(instance)
