"""Public façade: ``repro.solve(instance, variant, algorithm=...)``.

Maps the paper's result matrix onto one entry point:

=================  =======================  ==========================
algorithm          guarantee                running time (paper)
=================  =======================  ==========================
``two``            2·OPT                    O(n)                (Thm 1)
``eps``            (3/2)(1+ε)·OPT           O(n log 1/ε)        (Thm 2)
``three_halves``   (3/2)·OPT                near-linear     (Thms 3/6/8)
=================  =======================  ==========================

For the job-constrained variants with ``m ≥ n`` the trivial one-job-per-
machine schedule is optimal (Notes 1/2) and returned directly; so is the
serial schedule at ``m = 1``.

**One solve path.**  Each ``eps``/``three_halves`` cell is a probe plan,
a certificate ``T ≤ OPT`` read off its result, and a construction at
the accepted ``T``: one :class:`_Spec` per ``(variant, algorithm)`` in
:data:`_SPECS`.  :func:`prepare` turns a spec into ``(plan, finish)``;
:func:`solve_point` drives the plan with
:func:`~repro.algos.search.probe_evaluator` (whose ``kernel`` picks the
scaled-integer or the Fraction dual tests), the lockstep coordinator of
:mod:`repro.algos.batch_api` fuses it with other items' plans, and both
hand the result to the same ``finish``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Literal, NamedTuple, Union

from ..core.bounds import Variant, lower_bound, setup_plus_tmax, t_min
from ..core.fastnum import validate_kernel
from ..core.instance import Instance
from ..core.numeric import Time, fast_fraction
from ..core.schedule import Schedule
from ..obs.trace import count as obs_count
from .jumping_pmtn import flip_plan_pmtn
from .jumping_split import flip_plan_splittable
from .nonpreemptive import nonp_dual_schedule
from .pmtn_general import pmtn_dual_schedule
from .search import drive_plan, eps_probe_plan, integer_probe_plan, probe_evaluator
from .splittable import split_dual_schedule
from .twoapprox import two_approx

Algorithm = Literal["two", "eps", "three_halves"]
Kernel = Literal["fast", "fraction"]

#: The three public algorithm names of :func:`solve`.
VALID_ALGORITHMS = ("two", "eps", "three_halves")

_THREE_HALVES = Fraction(3, 2)


@dataclass(frozen=True)
class SolveResult:
    """A schedule together with its proven guarantee and certificates."""

    schedule: Schedule
    variant: Variant
    algorithm: str
    #: the makespan guess the schedule was built against (T_min for "two").
    T: Time
    #: proven upper bound on makespan / OPT.
    ratio_bound: Fraction
    #: strongest known lower bound on OPT for this run (≥ input-only bound).
    opt_lower_bound: Time

    @property
    def makespan(self) -> Time:
        return self.schedule.makespan()

    def empirical_ratio(self) -> Fraction:
        """``makespan / opt_lower_bound`` — an upper bound on the true ratio."""
        return Fraction(self.makespan) / Fraction(self.opt_lower_bound)


@dataclass(frozen=True)
class SweepPoint:
    """Bounds-only outcome of one solve (no schedule materialized).

    Field for field the certificate data of the ``SolveResult`` a full
    solve at this machine count returns: the same accepted ``T``, the
    same proven ``ratio_bound``, the same ``opt_lower_bound``.  The
    schedule itself (makespan ≤ ``makespan_bound``) can be built on
    demand with ``solve(instance.with_machines(m), ...)``.
    """

    m: int
    variant: Variant
    algorithm: str
    T: Time
    ratio_bound: Fraction
    opt_lower_bound: Time
    accept_calls: int

    @property
    def makespan_bound(self) -> Time:
        """Proven ceiling on the (buildable) schedule's makespan.

        The dual constructions guarantee makespan ≤ (3/2)·T at the
        accepted ``T``; the trivial closed forms are exact.
        """
        if self.algorithm == "trivial":
            return self.T
        return _THREE_HALVES * self.T


def _coerce_variant(variant) -> Variant:
    """``variant`` as a :class:`Variant` member, with a one-line error.

    ``Variant`` is a ``str`` enum, so a plain string like ``"splittable"``
    *compares* equal to a member but fails every ``is`` dispatch the
    solve paths use — silently taking wrong branches.  Coercing up front
    makes strings first-class and turns typos into one clear error.
    """
    if isinstance(variant, Variant):
        return variant
    try:
        return Variant(variant)
    except ValueError:
        valid = ", ".join(repr(v.value) for v in Variant)
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {valid} "
            f"(or a repro.core.bounds.Variant member)"
        ) from None


def _validate_request(variant, algorithm, schedules: bool) -> Variant:
    """Validate one request's names *before* any solving starts.

    Every entry point calls this first, so a bad variant or algorithm
    name raises even where a closed form would need no search, and the
    batched entry points never surface one mid-stream (or after partial
    results were already computed).
    """
    variant = _coerce_variant(variant)
    if algorithm not in VALID_ALGORITHMS:
        valid = ", ".join(repr(a) for a in VALID_ALGORITHMS)
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {valid}")
    if not schedules and algorithm == "two":
        raise ValueError(
            "schedules=False supports the dual-search algorithms "
            "('three_halves', 'eps'), not 'two'"
        )
    return variant


def _result(instance, variant, algorithm, schedule, T, ratio, lb, calls):
    """A :class:`SolveResult`, or a bounds-only :class:`SweepPoint`.

    The one constructor of both: every solve path ends here.
    """
    if schedule is None:
        return SweepPoint(instance.m, variant, algorithm, T, ratio, lb, calls)
    return SolveResult(schedule, variant, algorithm, T, ratio, lb)


# --------------------------------------------------------------------------- #
# closed forms: no dual search
# --------------------------------------------------------------------------- #


def _is_trivial(instance: Instance, variant: Variant) -> bool:
    """``m = 1``, or ``m ≥ n`` off the splittable variant."""
    return instance.m == 1 or (variant is not Variant.SPLITTABLE and instance.m >= instance.n)


def _closed_form(
    instance: Instance, variant: Variant, algorithm: str, schedules: bool
) -> Union[SolveResult, SweepPoint]:
    """The trivial optimum, or Theorem 1's 2-approximation for ``"two"``.

    With ``m = 1`` the serial schedule is exactly optimal (``OPT = N``,
    page 2); with ``m ≥ n`` one job (plus setup) per machine is
    (``OPT = max_i(s_i + t^(i)_max)``, Notes 1/2).  Both certificates are
    closed forms, so the schedule is only built with ``schedules``.
    """
    if _is_trivial(instance, variant):
        T = Fraction(instance.total_load if instance.m == 1 else setup_plus_tmax(instance))
        schedule = _trivial_schedule(instance) if schedules else None
        return _result(instance, variant, "trivial", schedule, T, Fraction(1), T, 0)
    res = two_approx(instance, variant)
    return _result(
        instance, variant, "two", res.schedule, res.t_min, Fraction(2),
        lower_bound(instance, variant), 0,
    )


def _trivial_schedule(instance: Instance) -> Schedule:
    """Serial on one machine, else one job (plus setup) per machine."""
    schedule = Schedule(instance)
    if instance.m == 1:
        t = Fraction(0)
        for i in range(instance.c):
            schedule.add_setup(0, t, i)
            t += instance.setups[i]
            for job, length in instance.class_jobs(i):
                schedule.add_job(0, t, job)
                t += length
        return schedule
    for u, (job, _) in enumerate(instance.iter_jobs()):
        schedule.add_setup(u, 0, job.cls)
        schedule.add_job(u, instance.setups[job.cls], job)
    return schedule


# --------------------------------------------------------------------------- #
# the dual searches: one spec per (variant, algorithm)
# --------------------------------------------------------------------------- #


class _Spec(NamedTuple):
    """One dual-search algorithm of the paper."""

    #: ``(instance, eps, grid) -> plan``: the probe-plan generator.
    plan: Callable
    #: plan result ``-> (T, certificate_lo, accept_calls)``, both times as
    #: pairs: the schedule is built at ``T`` and every ``T' <
    #: certificate_lo`` is proven ``< OPT``.
    certify: Callable
    #: ``(instance, T, kernel) -> Schedule`` at the accepted ``T``.
    build: Callable


def _eps_spec(variant: Variant, kind: str, mode: str, build: Callable) -> _Spec:
    """Theorem 2 on ``variant``'s dual test: bisect ``[T_min, 2·T_min]``."""

    def plan(instance: Instance, eps: Fraction, grid: bool):
        if eps <= 0:
            raise ValueError("eps must be positive")
        return eps_probe_plan(t_min(instance, variant), eps, kind, mode)

    return _Spec(plan, lambda res: res, build)


def _build_split(instance, T, kernel):
    return split_dual_schedule(instance, T, kernel=kernel)


def _build_nonp(instance, T, kernel):
    # Every T a spec builds at was accepted by the same kernel's test.
    return nonp_dual_schedule(instance, T, kernel=kernel, pretested=True)


_SPECS: dict[tuple[Variant, str], _Spec] = {
    (Variant.SPLITTABLE, "eps"): _eps_spec(Variant.SPLITTABLE, "split", "", _build_split),
    (Variant.PREEMPTIVE, "eps"): _eps_spec(
        Variant.PREEMPTIVE, "pmtn", "alpha",
        lambda instance, T, kernel: pmtn_dual_schedule(instance, T, kernel=kernel),
    ),
    (Variant.NONPREEMPTIVE, "eps"): _eps_spec(
        Variant.NONPREEMPTIVE, "nonp", "", _build_nonp
    ),
    # Theorem 3: built and certified at the flip T*.
    (Variant.SPLITTABLE, "three_halves"): _Spec(
        lambda instance, eps, grid: flip_plan_splittable(instance, grid=grid),
        lambda res: (res[0], res[0], res[1]),
        _build_split,
    ),
    # Theorem 6: built at the accepted witness, certified by the infimum T*.
    (Variant.PREEMPTIVE, "three_halves"): _Spec(
        lambda instance, eps, grid: flip_plan_pmtn(instance, grid=grid),
        lambda res: (res[1], res[0], res[2]),
        lambda instance, T, kernel: pmtn_dual_schedule(
            instance, T, mode="gamma", kernel=kernel
        ),
    ),
    # Theorem 8: OPT is integral, so the accepted integer T is ≤ OPT.
    (Variant.NONPREEMPTIVE, "three_halves"): _Spec(
        lambda instance, eps, grid: integer_probe_plan(
            t_min(instance, Variant.NONPREEMPTIVE), "nonp"
        ),
        lambda res: (res[0], res[0], res[1]),
        _build_nonp,
    ),
}


def prepare(
    instance: Instance,
    variant: Variant,
    algorithm: str,
    eps: Fraction,
    kernel: str,
    schedules: bool,
    grid: bool,
):
    """``(plan, finish)`` of one validated solve; ``None`` for the closed forms.

    ``plan`` is the spec's probe-plan generator (``grid`` lets the flip
    searches send candidate blocks); ``finish`` takes the plan's result,
    certifies it — ``ratio_bound = (3/2)·T/certificate_lo`` and
    ``opt_lower_bound = max(lower_bound, certificate_lo)`` — and, with
    ``schedules``, runs the construction at ``T`` on ``kernel``.
    """
    if algorithm == "two" or _is_trivial(instance, variant):
        return None
    spec = _SPECS[variant, algorithm]
    plan = spec.plan(instance, eps, grid)
    obs_count("dispatch.grid" if grid else "dispatch.scalar")

    def finish(res):
        T_pair, lo_pair, calls = spec.certify(res)
        T = fast_fraction(*T_pair)
        if lo_pair == T_pair:  # pairs are normalized: equal rationals
            lo, ratio = T, _THREE_HALVES
        else:
            lo = fast_fraction(*lo_pair)
            ratio = _THREE_HALVES * T / lo
        schedule = spec.build(instance, T, kernel) if schedules else None
        return _result(
            instance, variant, algorithm, schedule, T, ratio,
            max(lower_bound(instance, variant), lo), calls,
        )

    return plan, finish


def solve_point(
    instance: Instance,
    variant: Variant,
    algorithm: str = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: str = "fast",
    schedules: bool = True,
    grid: bool = False,
) -> Union[SolveResult, SweepPoint]:
    """One solve with validated names: a closed form, or the spec's plan
    driven by :func:`~repro.algos.search.probe_evaluator` into its
    ``finish`` (a :class:`SweepPoint` with ``schedules=False``)."""
    prepared = prepare(instance, variant, algorithm, eps, kernel, schedules, grid)
    if prepared is None:
        return _closed_form(instance, variant, algorithm, schedules)
    plan, finish = prepared
    evaluate = probe_evaluator(instance, fast=validate_kernel(kernel), grid=grid)
    return finish(drive_plan(plan, evaluate))


def solve(
    instance: Instance,
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    portfolio: bool = False,
    kernel: Kernel = "fast",
) -> SolveResult:
    """Solve ``instance`` under ``variant`` with the requested guarantee.

    ``variant`` is a :class:`Variant` member or its name
    (``"splittable"``, ...); unknown variant or algorithm names raise
    ``ValueError`` before any work, closed-form instances included.

    ``portfolio=True`` additionally runs the cheap heuristics (2-approx
    wrap/next-fit, Monma–Potts wrap, grouped LPT) and returns the best
    feasible schedule found.  The guarantee is preserved: the minimum over
    schedules that include a ρ-approximate one is itself ≤ ρ·OPT.  The
    paper's algorithms are *dual* constructions — they optimize the
    worst-case certificate, not the average case — so the portfolio often
    improves the constants while keeping the proof.

    ``kernel`` selects the numeric backend of the per-``T`` hot paths:
    ``"fast"`` (default) runs the dual tests and constructions on the
    scaled-integer kernel of :mod:`repro.core.fastnum`; ``"fraction"``
    keeps the exact-rational reference path.  Results are bit-identical —
    the differential suite asserts the same accepts, makespans and ratio
    bounds on every generator-suite instance.
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules=True)
    result = solve_point(instance, variant, algorithm, eps, kernel=kernel)
    if portfolio and result.algorithm != "trivial":
        return _portfolio_improve(instance, variant, result)
    return result


def _portfolio_improve(instance: Instance, variant: Variant, base: SolveResult) -> SolveResult:
    """Best-of over cheap feasible heuristics; inherits ``base``'s bound."""
    from ..baselines import grouped_lpt_schedule, job_lpt_schedule, monma_potts_schedule
    from ..core.validate import validate_schedule

    candidates: list[Schedule] = [base.schedule]
    candidates.append(two_approx(instance, variant).schedule)
    candidates.append(grouped_lpt_schedule(instance))
    candidates.append(job_lpt_schedule(instance))
    if variant is not Variant.NONPREEMPTIVE:
        candidates.append(monma_potts_schedule(instance))
    best = min(candidates, key=lambda s: s.makespan())
    validate_schedule(best, variant)
    return replace(base, schedule=best, algorithm=base.algorithm + "+portfolio")
