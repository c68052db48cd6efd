"""Regeneration of the paper's Figures 1-13 from the actual algorithms.

Every figure is produced by *running the implemented algorithm* on an
instance shaped like the paper's example and rendering the resulting
schedule as ASCII art (``repro.analysis.gantt``).  Figure ids follow the
paper.
"""

from __future__ import annotations

from fractions import Fraction

from ..algos.nonpreemptive import nonp_dual_schedule
from ..algos.pmtn_general import pmtn_dual_schedule, pmtn_dual_test
from ..algos.pmtn_nice import nice_dual_schedule
from ..algos.splittable import split_dual_schedule, split_dual_test
from ..algos.twoapprox import two_approx_grouped
from ..analysis.gantt import render_gantt, render_template
from ..core.instance import Instance, JobRef
from ..core.schedule import Schedule

WIDTH = 96


def _row_filtered(sched: Schedule, keep, rows=None) -> Schedule:
    """A view schedule of the rows selected by ``keep(machine, start_num,
    length_num, cls, job_idx)`` — built through the bulk
    :meth:`~repro.core.schedule.Schedule.rows` reader and ``add_scaled``,
    so no :class:`Placement`/:class:`~fractions.Fraction` objects are
    materialized just to filter starts/lengths.  ``rows`` passes an
    already-built projection (callers that derived filter constants from
    it) so the schedule is projected once."""
    if rows is None:
        rows = sched.rows()
    view = Schedule(sched.instance)
    for u, sn, ln, cls, ji in zip(
        rows.machine, rows.start_num, rows.length_num, rows.cls, rows.job_idx
    ):
        if keep(u, sn, ln, cls, ji):
            view.add_scaled(
                u, sn, ln, rows.scale, cls, None if ji < 0 else JobRef(cls, ji)
            )
    return view


def _markers(T: Fraction) -> dict:
    return {"T/2": T / 2, "T": T, "3T/2": 3 * T / 2}


# --------------------------------------------------------------------------- #
# Figure 1 — splittable dual, steps (1) and (2)
# --------------------------------------------------------------------------- #

def fig1_instance() -> tuple[Instance, Fraction]:
    """Iexp = {0..3}, Ichp = {4..7} at T = 20, mirroring Figure 1."""
    inst = Instance.build(
        12,
        [
            (12, [15, 15]),
            (11, [12]),
            (14, [8]),
            (13, [10, 3]),
            (4, [5, 5]),
            (3, [6]),
            (5, [2, 2, 2]),
            (2, [7]),
        ],
    )
    return inst, Fraction(20)


def fig1a() -> str:
    """Situation after step (1): expensive classes only (cheap withheld)."""
    inst, T = fig1_instance()
    dual = split_dual_test(inst, T)
    exp_only = Instance.build(
        inst.m, [(inst.setups[i], list(inst.jobs[i])) for i in dual.exp]
    )
    sched = split_dual_schedule(exp_only, T)
    return render_gantt(
        sched, WIDTH, _markers(T),
        title="Figure 1(a): splittable, after step (1) — expensive classes on β_i machines",
        horizon=3 * T / 2,
    )


def fig1b() -> str:
    inst, T = fig1_instance()
    sched = split_dual_schedule(inst, T)
    return render_gantt(
        sched, WIDTH, _markers(T),
        title="Figure 1(b): splittable, after step (2) — cheap classes wrapped "
              "into [L(ū_i)+T/2, 3T/2] and [T/2, 3T/2]",
        horizon=3 * T / 2,
    )


# --------------------------------------------------------------------------- #
# Figure 2 — Algorithm 2 on a nice instance (I+exp = two classes)
# --------------------------------------------------------------------------- #

def fig2_instance() -> tuple[Instance, Fraction]:
    inst = Instance.build(
        8,
        [
            (12, [8, 8, 8]),   # I+exp, alpha' = 3
            (11, [9, 9]),      # I+exp, alpha' = 2
            (3, [5, 5]),
            (4, [2, 2, 2]),
        ],
    )
    return inst, Fraction(20)


def fig2() -> str:
    inst, T = fig2_instance()
    sched = nice_dual_schedule(inst, T, mode="alpha")
    return render_gantt(
        sched, WIDTH, _markers(T),
        title="Figure 2: Algorithm 2 on a nice instance — I+exp on α'_i machines, "
              "cheap load wrapped above T/2",
        horizon=3 * T / 2,
    )


# --------------------------------------------------------------------------- #
# Figures 3, 4 — Algorithm 3 (large machines; knapsack bottoms)
# --------------------------------------------------------------------------- #

def fig34_instance() -> tuple[Instance, Fraction]:
    """8 large machines + 5 star classes: accepted case 3a at T = 20."""
    classes = [(11, [5])] * 8 + [(3, [8])] * 5
    return Instance.build(10, classes), Fraction(20)


def fig3() -> str:
    inst, T = fig34_instance()
    d = pmtn_dual_test(inst, T)
    sched = pmtn_dual_schedule(inst, T)
    zero = set(d.partition.exp_zero)
    view = _row_filtered(sched, lambda u, sn, ln, cls, ji: cls in zero)
    return render_gantt(
        view, WIDTH, _markers(T),
        title="Figure 3: Algorithm 3 after step 1 — each I0exp class on its own "
              "large machine, starting at T/2 (bottoms still empty)",
        machines=range(d.l),
        horizon=3 * T / 2,
    )


def fig4() -> str:
    inst, T = fig34_instance()
    d = pmtn_dual_test(inst, T)
    sched = pmtn_dual_schedule(inst, T)
    rows = sched.rows()
    # end ≤ T/2  ⟺  (sn+ln)·2·T.den ≤ T.num·scale — exact, no Fractions
    lim_n, lim_d = T.numerator * rows.scale, 2 * T.denominator
    view = _row_filtered(
        sched,
        lambda u, sn, ln, cls, ji: u < d.l and (sn + ln) * lim_d <= lim_n,
        rows=rows,
    )
    return render_gantt(
        view, WIDTH, {"T/4": T / 4, "T/2": T / 2},
        title="Figure 4: bottoms of the large machines after the knapsack "
              f"decision (case 3a; unselected={list(d.unselected)}, split e={d.split_class})",
        machines=range(d.l),
        horizon=T / 2,
    )


# --------------------------------------------------------------------------- #
# Figure 5 — γ-modified Algorithm 2 (Class Jumping, preemptive)
# --------------------------------------------------------------------------- #

def fig5() -> str:
    inst, T = fig2_instance()
    sched = nice_dual_schedule(inst, T, mode="gamma")
    return render_gantt(
        sched, WIDTH, _markers(T),
        title="Figure 5: modified Algorithm 2 (γ_i machines, T/2 job quota above "
              "each setup) — the Class-Jumping variant",
        horizon=3 * T / 2,
    )


# --------------------------------------------------------------------------- #
# Figure 6 — a wrap template
# --------------------------------------------------------------------------- #

def fig6() -> str:
    gaps = [(0, 2, 9), (1, 5, 12), (2, 0, 7), (4, 6, 13)]
    return render_template(
        gaps, m=6, width=WIDTH,
        title="Figure 6: a wrap template ω with |ω| = 4 (gaps on increasing machines)",
    )


# --------------------------------------------------------------------------- #
# Figure 7 — next-fit 2-approximation before/after repair (m = c = 5)
# --------------------------------------------------------------------------- #

def fig7_instance() -> Instance:
    return Instance.build(
        5,
        [
            (3, [4, 4]),
            (2, [5, 3]),
            (4, [2, 2, 2]),
            (1, [6]),
            (2, [3, 3]),
        ],
    )


def fig7() -> str:
    inst = fig7_instance()
    stages: dict = {}
    res = two_approx_grouped(inst, stages_out=stages)
    tmin = res.t_min
    top = render_gantt(
        stages["phase1"], WIDTH, {"Tmin": tmin, "2Tmin": 2 * tmin},
        title="Figure 7 (left): next-fit with threshold T_min — crossing items hatched",
        horizon=2 * tmin,
    )
    bottom = render_gantt(
        stages["final"], WIDTH, {"Tmin": tmin, "2Tmin": 2 * tmin},
        title="Figure 7 (right): crossing items moved to the next machine "
              "(fresh setups added, trailing setups removed)",
        horizon=2 * tmin,
    )
    return top + "\n\n" + bottom


# --------------------------------------------------------------------------- #
# Figure 8 — Lemma 11: large-machine modification
# --------------------------------------------------------------------------- #

def fig8() -> str:
    """One machine before/after the Lemma-11 reorder (hand-laid demo)."""
    inst = Instance.build(
        2, [(11, [4]), (2, [3]), (3, [2])]
    )  # class 0 is the I0exp class (s+P = 15 ∈ (3T/4, T) at T = 20)
    T = Fraction(20)
    before = Schedule(inst)
    before.add_setup(0, 0, 1)                      # A_i: cheap batch below
    before.add_job(0, 2, inst.class_jobs(1)[0][0])
    before.add_setup(0, 5, 0)                      # the I0exp class mid-machine
    before.add_job(0, 16, inst.class_jobs(0)[0][0])
    # B_i: cheap batch above
    before.add_setup(1, 0, 2)
    before.add_job(1, 3, inst.class_jobs(2)[0][0])
    after = Schedule(inst)
    after.add_setup(0, 0, 1)                       # A_i stays at the bottom
    after.add_job(0, 2, inst.class_jobs(1)[0][0])
    after.add_setup(0, T / 2, 0)                   # s_i moved to start at T/2
    after.add_job(0, T / 2 + 11, inst.class_jobs(0)[0][0])
    after.add_setup(1, 0, 2)
    after.add_job(1, 3, inst.class_jobs(2)[0][0])
    return (
        render_gantt(before, WIDTH, _markers(T), title="Figure 8 (left): machine u_i before", horizon=3 * T / 2)
        + "\n\n"
        + render_gantt(after, WIDTH, _markers(T), title="Figure 8 (right): Lemma 11 — setup s_i moved to T/2, B_i moved down", horizon=3 * T / 2)
    )


# --------------------------------------------------------------------------- #
# Figure 9 — Lemma 10 shape (I0exp classes on single machines + nice rest)
# --------------------------------------------------------------------------- #

def fig9() -> str:
    inst = Instance.build(
        8,
        [(11, [5]), (11, [6])] + [(12, [8, 8])] + [(3, [4, 4]), (2, [3, 3, 3])],
    )
    T = Fraction(20)
    sched = pmtn_dual_schedule(inst, T)
    return render_gantt(
        sched, WIDTH, _markers(T),
        title="Figure 9: Lemma 10 — I0exp classes on exactly one machine each; "
              "the residual nice instance on the last machines",
        horizon=3 * T / 2,
    )


# --------------------------------------------------------------------------- #
# Figures 10-13 — Algorithm 6, after steps 1, 2, 3, 4
# --------------------------------------------------------------------------- #

def fig10_13_instance() -> tuple[Instance, Fraction]:
    inst = Instance.build(
        8,
        [
            (12, [6, 6, 6, 6]),      # expensive (class 1 of the paper)
            (4, [11, 9, 9, 3, 3]),   # cheap with J+ and K jobs (class 2)
            (3, [2, 2]),             # classes 3..5: residual load for step 3
            (2, [5, 4]),
            (1, [3, 3, 3]),
        ],
    )
    return inst, Fraction(20)


def _fig_nonp(stage: str, caption: str) -> str:
    inst, T = fig10_13_instance()
    stages: dict = {}
    nonp_dual_schedule(inst, T, stages_out=stages)
    return render_gantt(
        stages[stage], WIDTH, _markers(T), title=caption, horizon=3 * T / 2
    )


def fig10() -> str:
    return _fig_nonp(
        "step1",
        "Figure 10: Algorithm 6 after step 1 — L wrapped on m_i machines per "
        "class (J+ jobs alone, K preemptively)",
    )


def fig11() -> str:
    return _fig_nonp(
        "step2",
        "Figure 11: after step 2 — jobs of C_i \\ L filled onto class machines "
        "(split at T, parents remembered)",
    )


def fig12() -> str:
    return _fig_nonp(
        "step3",
        "Figure 12: after step 3 — residual Q streamed greedily; T-crossing "
        "items kept un-split",
    )


def fig13() -> str:
    return _fig_nonp(
        "step4",
        "Figure 13: after step 4 — parents re-homed (no preemption), crossing "
        "items moved below their Q-successor with fresh setups",
    )


FIGURES = {
    "1a": fig1a, "1b": fig1b, "2": fig2, "3": fig3, "4": fig4, "5": fig5,
    "6": fig6, "7": fig7, "8": fig8, "9": fig9, "10": fig10, "11": fig11,
    "12": fig12, "13": fig13,
}


def render_figure(fig_id: str) -> str:
    if fig_id == "1":
        return fig1a() + "\n\n" + fig1b()
    if fig_id not in FIGURES:
        raise KeyError(f"unknown figure {fig_id!r}; available: 1, {', '.join(FIGURES)}")
    return FIGURES[fig_id]()


def render_all() -> str:
    parts = [render_figure(k) for k in FIGURES]
    return "\n\n".join(parts)
