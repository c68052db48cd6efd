"""Experiments R1/A1/A2 — approximation-ratio studies and ablations.

* R1: ratio vs *exact OPT* on the small suite (non-preemptive DP,
  splittable Hall enumeration) and vs lower bounds on medium/adversarial
  suites, for the 2-approx, (3/2+ε) and 3/2 algorithms plus baselines.
  The references are Table 1's (:func:`~repro.experiments.table1.
  best_reference`), one per (instance, variant).
* A1: Class Jumping vs the slow flip references — identical flip points,
  dual-test counts compared.  The flip plans are driven directly on the
  fast kernel (:func:`~repro.algos.search.drive_plan`).
* A2: α vs γ machine counting in the preemptive dual — both are valid;
  γ (the Class-Jumping variant) may accept slightly earlier/later, the
  built schedules stay within 3T/2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from ..algos.api import solve
from ..algos.jumping_pmtn import flip_plan_pmtn
from ..algos.jumping_split import flip_plan_splittable
from ..algos.search import drive_plan, probe_evaluator, slow_flip_splittable
from ..analysis.reporting import fmt_ratio, format_table
from ..core.bounds import Variant
from ..core.validate import validate_schedule
from ..generators import adversarial_suite, medium_suite, small_exact_suite
from .table1 import best_reference


@dataclass(frozen=True)
class RatioRow:
    suite: str
    variant: str
    algorithm: str
    worst: Fraction
    mean: Fraction
    reference: str

    def cells(self):
        return [self.suite, self.variant, self.algorithm,
                fmt_ratio(self.worst), fmt_ratio(self.mean), self.reference]


def run_ratio_study(algorithms: tuple[str, ...] = ("two", "eps", "three_halves")) -> list[RatioRow]:
    suites = [
        ("small-exact", small_exact_suite()),
        ("medium", medium_suite()),
        ("adversarial", adversarial_suite()),
    ]
    rows: list[RatioRow] = []
    for suite_name, suite in suites:
        for variant in Variant:
            # one reference per (instance, variant), shared by all algorithms
            references = [best_reference(inst, variant) for _, inst in suite]
            kinds = "/".join(sorted({kind for _, kind in references}))
            for algorithm in algorithms:
                ratios = []
                for (_, inst), (ref, _) in zip(suite, references):
                    res = solve(inst, variant, algorithm)
                    cmax = validate_schedule(res.schedule, variant)
                    ratios.append(Fraction(cmax) / ref)
                rows.append(
                    RatioRow(
                        suite=suite_name, variant=str(variant), algorithm=algorithm,
                        worst=max(ratios), mean=sum(ratios) / len(ratios),
                        reference=kinds,
                    )
                )
    return rows


def render_ratio_study() -> str:
    rows = run_ratio_study()
    return format_table(
        ["suite", "variant", "algorithm", "worst ratio", "mean ratio", "vs"],
        [r.cells() for r in rows],
        title="Experiment R1: measured approximation ratios "
              "(2-approx must stay ≤ 2, eps ≤ 1.515, three_halves ≤ 1.5 vs OPT)",
    )


# --------------------------------------------------------------------------- #
# A1: Class Jumping ablation
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class JumpAblationRow:
    label: str
    flip_fast: Fraction
    flip_slow: Fraction
    agree: bool
    calls_fast: int
    seconds_fast: float
    seconds_slow: float


def run_jump_ablation() -> list[JumpAblationRow]:
    rows = []
    for label, inst in medium_suite() + adversarial_suite():
        t0 = time.perf_counter()
        fast, calls = drive_plan(
            flip_plan_splittable(inst), probe_evaluator(inst, fast=True)
        )
        fast = Fraction(*fast)
        t1 = time.perf_counter()
        slow = slow_flip_splittable(inst)
        t2 = time.perf_counter()
        rows.append(
            JumpAblationRow(
                label=f"split/{label}", flip_fast=fast, flip_slow=slow,
                agree=fast == slow, calls_fast=calls,
                seconds_fast=t1 - t0, seconds_slow=t2 - t1,
            )
        )
    for label, inst in medium_suite()[:6]:
        t0 = time.perf_counter()
        fast_star, fast_wit, calls = drive_plan(
            flip_plan_pmtn(inst), probe_evaluator(inst, fast=True)
        )
        t1 = time.perf_counter()
        slow_star, slow_wit, _ = drive_plan(
            flip_plan_pmtn(inst, use_base_jump=False), probe_evaluator(inst, fast=True)
        )
        t2 = time.perf_counter()
        rows.append(
            JumpAblationRow(
                label=f"pmtn/{label}", flip_fast=Fraction(*fast_star),
                flip_slow=Fraction(*slow_star),
                agree=(fast_star, fast_wit) == (slow_star, slow_wit),
                calls_fast=calls, seconds_fast=t1 - t0, seconds_slow=t2 - t1,
            )
        )
    return rows


def render_jump_ablation() -> str:
    rows = run_jump_ablation()
    return format_table(
        ["instance", "flip (jumping)", "flip (reference)", "agree", "dual tests", "t fast", "t slow"],
        [
            [r.label, str(r.flip_fast), str(r.flip_slow), "yes" if r.agree else "NO",
             r.calls_fast, f"{r.seconds_fast*1e3:.2f}ms", f"{r.seconds_slow*1e3:.2f}ms"]
            for r in rows
        ],
        title="Experiment A1: Class Jumping vs exhaustive flip search "
              "(identical flip points; far fewer dual tests)",
    )


# --------------------------------------------------------------------------- #
# A2: alpha vs gamma machine counting (preemptive dual)
# --------------------------------------------------------------------------- #


def run_counting_ablation() -> list[list[str]]:
    from ..algos.pmtn_general import pmtn_dual_schedule, pmtn_dual_test
    from ..core.bounds import t_min

    rows = []
    for label, inst in medium_suite():
        tmin = t_min(inst, Variant.PREEMPTIVE)
        for frac in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            T = tmin + tmin * frac
            da = pmtn_dual_test(inst, T, "alpha")
            dg = pmtn_dual_test(inst, T, "gamma")
            cm_a = cm_g = "—"
            if da.accepted:
                cm_a = str(validate_schedule(pmtn_dual_schedule(inst, T, "alpha"), Variant.PREEMPTIVE))
            if dg.accepted:
                cm_g = str(validate_schedule(pmtn_dual_schedule(inst, T, "gamma"), Variant.PREEMPTIVE))
            rows.append(
                [label, str(T), "acc" if da.accepted else "rej",
                 "acc" if dg.accepted else "rej", cm_a, cm_g]
            )
    return rows


def render_counting_ablation() -> str:
    return format_table(
        ["instance", "T", "alpha verdict", "gamma verdict", "Cmax(alpha)", "Cmax(gamma)"],
        run_counting_ablation(),
        title="Experiment A2: Theorem-5 dual with alpha' vs gamma machine counting",
    )
