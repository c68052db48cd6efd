"""Monma–Potts-style preemptive wrap heuristic — the previous best [10].

Monma and Potts (1993) gave an O(n) heuristic "resembling McNaughton's
wrap-around rule" with worst-case ratio ``2 − (⌊m/2⌋+1)^{-1}`` (→ 2 as
``m → ∞``); it was the best known unrestricted preemptive guarantee before
this paper's 3/2.  Their exact pseudo-code is not reproduced in the target
paper, so this module implements the natural reconstruction with a *proven*
ratio ≤ 2:

wrap the batch stream ``[s_1, C_1, s_2, C_2, …]`` into ``m`` lanes of
height ``H = max(N/m + s_max, max_i(s_i + t^(i)_max))``, re-paying a setup
whenever a batch crosses a lane border.  ``H`` is large enough for the ≤
``m−1`` extra setups (total ≤ ``N + (m−1)s_max ≤ mH``) and the border
splits are self-overlap free because ``s_i + t_j ≤ H``.  Since
``H ≤ 2·max(N/m, s_max, max(s_i+t^(i)_max)) ≤ 2·OPT``, the makespan is at
most ``2·OPT`` — the same guarantee envelope as [10], measured against the
same lower bounds.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.bounds import setup_plus_tmax
from ..core.instance import Instance
from ..core.numeric import Time
from ..core.schedule import Schedule


def monma_potts_bound(instance: Instance) -> Time:
    """The wrap height ``H`` (≤ 2·OPT_pmtn)."""
    return max(
        Fraction(instance.total_load, instance.m) + instance.smax,
        Fraction(setup_plus_tmax(instance)),
    )


def monma_potts_schedule(instance: Instance) -> Schedule:
    """O(n) preemptive wrap with ratio ≤ 2 (previous-best comparator)."""
    H = monma_potts_bound(instance)
    schedule = Schedule(instance)
    u = 0
    t = Fraction(0)

    def open_lane(cls: int) -> None:
        nonlocal u, t
        u += 1
        t = Fraction(0)
        schedule.add_setup(u, t, cls)
        t += instance.setups[cls]

    for cls in range(instance.c):
        s = Fraction(instance.setups[cls])
        if t + s > H:
            u += 1
            t = Fraction(0)
        schedule.add_setup(u, t, cls)
        t += s
        for job, length in instance.class_jobs(cls):
            remaining = Fraction(length)
            while remaining > 0:
                room = H - t
                if room <= 0:
                    open_lane(cls)
                    room = H - t
                piece = min(remaining, room)
                schedule.add_piece(u, t, job, piece)
                t += piece
                remaining -= piece
    return schedule
