"""Table 1 reproduction — the paper's result landscape, measured.

Table 1 of the paper is a survey: per variant, the known guarantees and
running times, with this paper's rows marked *.  The reproduction runs
every implementable cell over fixed suites and reports

* the *guaranteed* ratio (from the theorem),
* the *measured worst* and mean ratio against the best available
  reference (exact OPT on the small suite, dual/input lower bound
  elsewhere — a conservative over-estimate of the true ratio),
* the mean wall time.

Rows of Table 1 that are PTAS/EPTAS/FPTAS families or restricted special
cases are listed with their guarantee and the reason they are quoted, not
executed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ..algos.api import solve
from ..baselines import (
    full_split_schedule,
    grouped_lpt_schedule,
    job_lpt_schedule,
    monma_potts_schedule,
    next_fit_schedule,
)
from ..core.bounds import Variant, lower_bound
from ..core.instance import Instance
from ..core.schedule import Schedule
from ..core.validate import validate_schedule
from ..exact import MAX_JOBS, exact_nonpreemptive_opt, exact_splittable_opt
from ..generators import adversarial_suite, medium_suite, small_exact_suite
from ..analysis.reporting import fmt_ratio, fmt_time, format_table


@dataclass(frozen=True)
class Table1Row:
    variant: str
    algorithm: str
    guarantee: str
    measured_max: Optional[float]
    measured_mean: Optional[float]
    mean_seconds: Optional[float]
    note: str = ""

    def cells(self) -> list[str]:
        return [
            self.variant,
            self.algorithm,
            self.guarantee,
            fmt_ratio(self.measured_max) if self.measured_max is not None else "—",
            fmt_ratio(self.measured_mean) if self.measured_mean is not None else "—",
            fmt_time(self.mean_seconds) if self.mean_seconds is not None else "—",
            self.note,
        ]


Runner = Callable[[Instance], Schedule]


def _runners() -> list[tuple[Variant, str, str, Runner, str]]:
    """(variant, name, guarantee, runner, note) for every executable cell."""

    def ours(algorithm):
        return lambda variant: (lambda inst: solve(inst, variant, algorithm).schedule)

    rows: list[tuple[Variant, str, str, Runner, str]] = []
    for variant in Variant:
        rows.append((variant, "2-approx [*Thm 1]", "2", ours("two")(variant), "O(n)"))
        rows.append(
            (variant, "3/2+eps [*Thm 2]", "1.515", ours("eps")(variant), "O(n log 1/eps)")
        )
    rows.append(
        (Variant.SPLITTABLE, "3/2 ClassJump [*Thm 3]", "1.5",
         ours("three_halves")(Variant.SPLITTABLE), "O(n + c log(c+m))")
    )
    rows.append(
        (Variant.NONPREEMPTIVE, "3/2 int-search [*Thm 8]", "1.5",
         ours("three_halves")(Variant.NONPREEMPTIVE), "O(n log(n+Delta))")
    )
    rows.append(
        (Variant.PREEMPTIVE, "3/2 ClassJump [*Thm 6]", "1.5",
         ours("three_halves")(Variant.PREEMPTIVE), "O(n log n), main result")
    )
    rows.append(
        (Variant.PREEMPTIVE, "Monma-Potts wrap [10]", "2-(floor(m/2)+1)^-1",
         monma_potts_schedule, "previous best, O(n)")
    )
    rows.append(
        (Variant.NONPREEMPTIVE, "next-fit [6]", "3", next_fit_schedule, "O(n)")
    )
    rows.append(
        (Variant.NONPREEMPTIVE, "grouped LPT", "none", grouped_lpt_schedule, "heuristic")
    )
    rows.append(
        (Variant.NONPREEMPTIVE, "job LPT", "none", job_lpt_schedule, "heuristic")
    )
    rows.append(
        (Variant.SPLITTABLE, "full split", "none", full_split_schedule, "naive")
    )
    rows.append(
        (Variant.SPLITTABLE, "no split (LPT)", "none", grouped_lpt_schedule, "naive")
    )
    return rows


#: Table-1 rows quoted but not executed, with the reason.
QUOTED_ROWS: list[tuple[str, str, str, str]] = [
    ("splittable", "5/3 Chen-Ye-Zhang [12]", "5/3", "poly; superseded by *Thm 3"),
    ("splittable", "EPTAS [5]", "1+eps", "2^O(1/eps^4 log^6 1/eps) n^4 log m — impractical by the paper's own account"),
    ("nonpreemptive", "PTAS [6]", "1+eps", "n^O(1/eps) — impractical"),
    ("nonpreemptive", "EPTAS [5]", "1+eps", "n-fold IP — impractical"),
    ("preemptive", "4/3+eps [11]", "4/3+eps", "restricted to |C_i| = 1"),
    ("preemptive", "EPTAS [5]", "1+eps", "restricted to |C_i| = 1"),
    ("*", "FPTAS [7,12]", "1+eps", "fixed m only"),
]


def best_reference(inst: Instance, variant: Variant) -> tuple[Fraction, str]:
    """Strongest certified lower bound on OPT for ratio measurement.

    Exact OPT where the reference solvers reach; otherwise the max of the
    input-only bound and the dual acceptance flip point ``T*`` (rejection
    certifies ``T < OPT``, so ``T* ≤ OPT`` — Theorems 5/7/9).
    """
    try:
        if variant is Variant.NONPREEMPTIVE and inst.n <= MAX_JOBS - 2:
            return Fraction(exact_nonpreemptive_opt(inst)), "opt"
        if variant is Variant.SPLITTABLE and inst.m <= 3 and inst.c <= 3:
            return Fraction(exact_splittable_opt(inst)), "opt"
    except ValueError:
        pass
    lb = Fraction(solve(inst, variant, "three_halves").opt_lower_bound)
    if variant is Variant.PREEMPTIVE:
        # the α'-counted dual (used by the ε-search) rejects more points than
        # the γ-counted one (α' ≥ γ), so its certificate can be tighter
        lb = max(lb, Fraction(solve(inst, variant, "eps", eps=Fraction(1, 64)).opt_lower_bound))
    return lb, "dual-LB"


def run_table1(
    include_small: bool = True,
    include_medium: bool = True,
    include_adversarial: bool = True,
) -> list[Table1Row]:
    suites: list[tuple[str, Instance]] = []
    if include_small:
        suites += small_exact_suite()
    if include_medium:
        suites += medium_suite()
    if include_adversarial:
        suites += adversarial_suite()

    # one reference per (instance, variant), shared by all algorithm rows
    references: dict[tuple[int, Variant], Fraction] = {}
    for k, (_, inst) in enumerate(suites):
        for variant in Variant:
            references[(k, variant)] = best_reference(inst, variant)[0]

    rows: list[Table1Row] = []
    for variant, name, guarantee, runner, note in _runners():
        ratios: list[Fraction] = []
        seconds: list[float] = []
        for k, (_, inst) in enumerate(suites):
            t0 = time.perf_counter()
            schedule = runner(inst)
            seconds.append(time.perf_counter() - t0)
            cmax = validate_schedule(schedule, variant)
            ratios.append(Fraction(cmax) / references[(k, variant)])
        rows.append(
            Table1Row(
                variant=str(variant),
                algorithm=name,
                guarantee=guarantee,
                measured_max=float(max(ratios)),
                measured_mean=float(sum(ratios) / len(ratios)),
                mean_seconds=sum(seconds) / len(seconds),
                note=note,
            )
        )
    for variant, name, guarantee, why in QUOTED_ROWS:
        rows.append(
            Table1Row(
                variant=variant, algorithm=name, guarantee=guarantee,
                measured_max=None, measured_mean=None, mean_seconds=None,
                note=f"quoted: {why}",
            )
        )
    return rows


def render_table1(rows: Optional[list[Table1Row]] = None) -> str:
    rows = rows if rows is not None else run_table1()
    return format_table(
        ["variant", "algorithm", "guaranteed", "worst meas.", "mean meas.", "mean time", "note"],
        [r.cells() for r in rows],
        title="Table 1 (reproduction): guarantees vs measured ratios.\n"
              "References: exact OPT on small instances, else certified dual lower bounds\n"
              "(measured ratios can exceed the guarantee only by the LB-to-OPT gap, never vs exact OPT).",
    )
