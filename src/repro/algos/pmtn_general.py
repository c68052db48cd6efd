"""General preemptive instances: Algorithm 3 and Theorem 5 (Section 4.2).

For a makespan guess ``T``:

1. every class of ``I⁰exp`` (``3T/4 < s_i+P(C_i) < T``) goes onto its own
   *large machine*, occupying ``[T/2, T/2+s_i+P(C_i)]`` (Lemma 11 layout);
2. the *big jobs* ``C*_i`` of the light-cheap classes ``I*chp`` are split
   into ``j^(1)`` (``T/2−s_i``) and ``j^(2)`` (``s_i+t_j−T/2``): by Lemma 4
   at least ``j^(2)`` must run outside the large machines;
3. with ``F`` the free time on the residual ``m−l`` machines after
   reserving the nice-instance load, either

   * **case 3a** (``F < Σ_{I*chp}(s_i+P(C_i))``): a continuous knapsack
     (profit ``s_i``, weight ``w_i = P(C_i)−L*_i``, capacity ``Y = F−L*``)
     decides which classes are scheduled entirely outside; the split class
     ``e`` contributes pieces ``j^[1]/j^[2]``; unselected classes pay an
     extra setup on the large machines, or
   * **case 3b** (``F ≥ …``): all of ``I*chp`` fits outside; the remaining
     ``I⁻chp \\ I*chp`` load is split greedily into a part ``Q₁`` filling
     ``F`` and a leftover ``Q₂`` for the large-machine bottoms.

4. the derived *nice* instance is scheduled on the residual machines with
   Algorithm 2 (all its cheap load lives in ``[T/2, 3T/2]``), and the
   leftover ``K = K⁺ ∪ K⁻`` is packed into the large-machine bottoms
   ``[0, T/2]`` (big items one per machine, small items wrapped with gaps
   ``(l′, 0, T/2)``, ``(l′+r, T/4, T/2)``) — Figure 4.

Acceptance (Theorem 5(i)):  reject iff ``mT < L_pmtn`` or ``m < m′`` where
``L_pmtn = P(J) + Σ_{I⁺exp} κ_i s_i + Σ_{[c]\\I⁺exp} s_i + Σ_{unselected}
s_i`` and ``m′ = |I⁰exp| + Σ κ_i + ⌈|I⁻exp|/2⌉``.  Two documented
implementation extras, both *valid* lower-bound conditions (rejection still
certifies ``T < OPT``):

* ``T < max_i(s_i+t^(i)_max)`` is rejected outright (Note 1);
* in case 3a, ``Y < 0`` (i.e. ``F < L*``) is rejected: the residual
  machines cannot even hold the obligatory outside-large load (Lemma 4 plus
  the Lemma 10/11 large-machine argument) — a corner the paper's formulas
  gloss over.

Kernels: :func:`pmtn_dual_test` is the Theorem-5 test, on ``Fraction``;
its verdict-only twin on scaled ints,
:func:`repro.core.fastnum.fast_pmtn_test`, drives the searches and also
decides nice instances for :func:`pmtn_dual_schedule` on
``kernel="fast"``.  Steps 1–3 are written once for both kernels; only the
engines beneath them (Algorithm 2's step 1 and the wrap) run on scaled
ints on ``kernel="fast"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Optional, Sequence

from ..core.bounds import setup_plus_tmax
from ..core.classification import PmtnPartition, pmtn_partition
from ..core.errors import ConstructionError, RejectedMakespanError
from ..core.fastnum import fast_pmtn_test, validate_kernel
from ..core.instance import Instance, JobRef
from ..core.knapsack import ContinuousSolution, KnapsackItem, solve_continuous
from ..core.numeric import Time, TimeLike, as_time, time_str
from ..core.schedule import Schedule
from ..core.wrapping import Batch, WrapSequence, WrapTemplate, wrap
from .pmtn_nice import (
    CountMode,
    NiceView,
    count_for,
    full_view,
    nice_dual_test,
    schedule_nice_view,
)

Case = Literal["trivial", "nice", "3a", "3b"]


@dataclass(frozen=True)
class PmtnDual:
    """Outcome of the Theorem-5 test for one makespan guess."""

    T: Time
    mode: CountMode
    case: Case
    partition: PmtnPartition
    counts: dict[int, int]            # κ_i for i ∈ I⁺exp
    l: int                            # |I⁰exp| — number of large machines
    F: Time                           # free time on residual machines
    L_star: Time                      # Σ_{I*chp}(s_i + L*_i)
    demand_star: Time                 # Σ_{I*chp}(s_i + P(C_i))
    knapsack: Optional[ContinuousSolution]
    unselected: tuple[int, ...]       # I*chp classes forced onto large machines
    split_class: Optional[int]        # e
    load: Time                        # L_pmtn
    machines_needed: int              # m′
    accepted: bool
    reject_reasons: tuple[str, ...] = ()


def _star_piece_lengths(instance: Instance, T: Time, cls: int, job: JobRef) -> tuple[Time, Time]:
    """``(t^(1)_j, t^(2)_j)`` for a big job of an ``I⁻chp`` class."""
    s = instance.setups[cls]
    t1 = T / 2 - s
    t2 = s + instance.job_time(job) - T / 2
    return t1, t2


def _l_star_i(instance: Instance, T: Time, part: PmtnPartition, cls: int) -> Time:
    """``L*_i = P(C*_i) − |C*_i|(T/2 − s_i)`` — obligatory outside load (4)."""
    stars = part.big_jobs(cls)
    p_star = sum((Fraction(instance.job_time(j)) for j in stars), Fraction(0))
    return p_star - len(stars) * (T / 2 - instance.setups[cls])


def pmtn_dual_test(instance: Instance, T: TimeLike, mode: CountMode = "alpha") -> PmtnDual:
    """Theorem 5(i): accept/reject ``T``; rejection certifies ``T < OPT``."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("T must be positive")
    part = pmtn_partition(instance, T)
    m = instance.m

    if T < setup_plus_tmax(instance):
        # Note 1: OPT ≥ max_i (s_i + t^(i)_max) > T.
        return PmtnDual(
            T=T, mode=mode, case="trivial", partition=part, counts={}, l=0,
            F=Fraction(0), L_star=Fraction(0), demand_star=Fraction(0),
            knapsack=None, unselected=(), split_class=None,
            load=Fraction(instance.total_load), machines_needed=0,
            accepted=False, reject_reasons=("T < max(s_i + t_max^i)",),
        )

    counts = {
        i: count_for(instance, T, i, Fraction(instance.processing(i)), mode)
        for i in part.exp_plus
    }
    l = len(part.exp_zero)
    m_prime = l + sum(counts.values()) + (-(-len(part.exp_minus) // 2))

    # Free time for J(I⁻chp) on the residual machines, eq. (3).
    base = sum(
        (counts[i] * instance.setups[i] + Fraction(instance.processing(i)) for i in part.exp_plus),
        Fraction(0),
    )
    base += sum(
        (Fraction(instance.setups[i] + instance.processing(i))
         for i in tuple(part.exp_minus) + tuple(part.chp_plus)),
        Fraction(0),
    )
    F = (m - l) * T - base

    L_star = sum(
        (instance.setups[i] + _l_star_i(instance, T, part, i) for i in part.chp_star),
        Fraction(0),
    )
    demand_star = sum(
        (Fraction(instance.setups[i] + instance.processing(i)) for i in part.chp_star),
        Fraction(0),
    )

    load = Fraction(instance.total_processing)
    load += sum(counts[i] * instance.setups[i] for i in part.exp_plus)
    load += sum(
        instance.setups[i] for i in range(instance.c) if i not in set(part.exp_plus)
    )

    reasons: list[str] = []
    knap: Optional[ContinuousSolution] = None
    unselected: tuple[int, ...] = ()
    split_class: Optional[int] = None

    if part.is_nice:
        case: Case = "nice"
        nice = nice_dual_test(instance, T, mode=mode)
        load = nice.load
        m_prime = nice.machines_needed
        accepted = nice.accepted
        if not accepted:
            if m * T < load:
                reasons.append("mT < L_nice")
            if m < m_prime:
                reasons.append("m < m_nice")
    elif F < demand_star:
        case = "3a"
        Y = F - L_star
        if Y < 0:
            reasons.append("F < L* (obligatory outside load exceeds residual time)")
            accepted = False
        else:
            items = []
            for i in part.chp_star:
                w = Fraction(instance.processing(i)) - _l_star_i(instance, T, part, i)
                items.append(KnapsackItem.of(i, Fraction(instance.setups[i]), w))
            knap = solve_continuous(items, Y)
            unselected = tuple(sorted(knap.unselected))
            split_class = knap.split_key  # type: ignore[assignment]
            load += sum(instance.setups[i] for i in unselected)
            accepted = m * T >= load and m >= m_prime
            if m * T < load:
                reasons.append("mT < L_pmtn")
            if m < m_prime:
                reasons.append("m < m'")
    else:
        case = "3b"
        accepted = m * T >= load and m >= m_prime
        if m * T < load:
            reasons.append("mT < L_pmtn")
        if m < m_prime:
            reasons.append("m < m'")

    return PmtnDual(
        T=T, mode=mode, case=case, partition=part, counts=counts, l=l, F=F,
        L_star=L_star, demand_star=demand_star, knapsack=knap,
        unselected=unselected, split_class=split_class,
        load=load, machines_needed=m_prime,
        accepted=accepted, reject_reasons=tuple(reasons),
    )


# --------------------------------------------------------------------------- #
# construction
# --------------------------------------------------------------------------- #


@dataclass
class PmtnBuildParts:
    """Intermediate artifacts of Algorithm 3 (exposed for figures/tests)."""

    dual: PmtnDual
    large_machines: list[int] = field(default_factory=list)      # per I⁰exp class
    nice_view: NiceView = field(default_factory=dict)
    k_plus: list[tuple[int, JobRef, TimeLike]] = field(default_factory=list)   # (cls, job, len)
    k_minus_batches: list[Batch] = field(default_factory=list)


def pmtn_dual_schedule(
    instance: Instance, T: TimeLike, mode: CountMode = "alpha",
    *, parts_out: Optional[PmtnBuildParts] = None, kernel: str = "fast",
) -> Schedule:
    """Theorem 5(ii)/4(ii): build a ≤ 3T/2 schedule for an accepted ``T``.

    On ``kernel="fast"`` the verdict kernel
    (:func:`~repro.core.fastnum.fast_pmtn_test`) decides first: an
    accepted nice ``T`` needs nothing more and goes straight to
    Algorithm 2 on the full view.  Otherwise, and always on
    ``kernel="fraction"``, the reference :func:`pmtn_dual_test` decides
    (its reject reasons make the error text) and feeds the one body of
    Algorithm 3's steps 1–3.  Both kernels build the same views (whole
    classes as :meth:`Batch.whole <repro.core.wrapping.Batch.whole>`,
    cut pieces as ``Batch.of``); per kernel only the nice shortcut and
    ``exact_ints`` for the Algorithm-2 and wrap engines differ.  Both
    kernels produce identical placements.
    """
    T = as_time(T)
    fast = validate_kernel(kernel)
    schedule = Schedule(instance)
    if fast:
        verdict = fast_pmtn_test(instance, T.numerator, T.denominator, mode)
        if verdict.accepted and verdict.case == "nice":
            schedule_nice_view(schedule, T, full_view(instance), range(instance.m), mode)
            return schedule
    dual = pmtn_dual_test(instance, T, mode)
    if not dual.accepted:
        raise RejectedMakespanError(
            f"T={time_str(T)} rejected by Theorem 5: {', '.join(dual.reject_reasons)}"
        )
    part = dual.partition
    half = T / 2

    if dual.case == "nice":  # kernel="fraction": the fast kernel returned above
        schedule_nice_view(
            schedule, T, full_view(instance), range(instance.m), mode, exact_ints=False
        )
        return schedule

    # ---- step 1: large machines ---------------------------------------- #
    # Rows at scale D = 2·td on both kernels: T/2 scales to tn and job
    # times are ints, so the whole layout is machine ints.  The reply
    # encoder reads row scales, so this scale is part of the wire bytes.
    l = dual.l
    large_machines = list(range(l))
    D2 = 2 * T.denominator
    for u, i in zip(large_machines, part.exp_zero):
        t_sc = T.numerator  # T/2 · D2
        s_sc = instance.setups[i] * D2
        schedule.add_scaled(u, t_sc, s_sc, D2, i)
        t_sc += s_sc
        for job, t in instance.class_jobs(i):
            schedule.add_scaled(u, t_sc, t * D2, D2, i, job)
            t_sc += t * D2

    residual = list(range(l, instance.m))

    # ---- steps 2-3: split the cheap-light load -------------------------- #
    view: NiceView = {}
    for i in tuple(part.exp_plus) + tuple(part.exp_minus) + tuple(part.chp_plus):
        view[i] = Batch.whole(instance, i)

    k_items: dict[int, Sequence[tuple[JobRef, TimeLike]]] = {}  # class -> bottom items

    if dual.case == "3a":
        knap = dual.knapsack
        assert knap is not None
        e = dual.split_class
        for i in part.chp_star:
            x = knap.x(i)
            stars = set(part.big_jobs(i))
            if x == 1:
                view[i] = Batch.whole(instance, i)
            elif i == e:
                nice_items = []
                bottom_items = []
                for j, t in instance.class_jobs(i):
                    if j in stars:
                        t1, t2 = _star_piece_lengths(instance, T, i, j)
                        t_hi = x * t1 + t2          # j^[2] — outside
                        t_lo = (1 - x) * t1         # j^[1] — bottoms
                    else:
                        t_hi = x * t
                        t_lo = (1 - x) * t
                    if t_hi > 0:
                        nice_items.append((j, t_hi))
                    if t_lo > 0:
                        bottom_items.append((j, t_lo))
                view[i] = Batch.of(i, nice_items)
                if bottom_items:
                    k_items[i] = bottom_items
            else:  # unselected: obligatory pieces outside, rest to bottoms
                nice_items = []
                bottom_items = []
                for j, t in instance.class_jobs(i):
                    if j in stars:
                        t1, t2 = _star_piece_lengths(instance, T, i, j)
                        nice_items.append((j, t2))
                        if t1 > 0:
                            bottom_items.append((j, t1))
                    else:
                        bottom_items.append((j, t))
                if nice_items:
                    view[i] = Batch.of(i, nice_items)
                if bottom_items:
                    k_items[i] = bottom_items
        # classes of I⁻chp without big jobs always go to the bottoms (eq. 7)
        for i in part.chp_minus:
            if i in part.chp_star:
                continue
            k_items[i] = instance.class_jobs(i)
    else:  # case 3b
        # all of I*chp goes outside in full
        for i in part.chp_star:
            view[i] = Batch.whole(instance, i)
        # greedily fill Q1 (outside) with I⁻chp \ I*chp up to F − demand_star
        rest = [i for i in part.chp_minus if i not in set(part.chp_star)]
        target = dual.F - dual.demand_star
        acc = Fraction(0)
        for idx, i in enumerate(rest):
            s = Fraction(instance.setups[i])
            block = s + Fraction(instance.processing(i))
            if acc + block <= target:
                view[i] = Batch.whole(instance, i)
                acc += block
                continue
            room = target - acc - s  # job load affordable after the setup
            if room > 0:
                nice_items = []
                bottom_items = []
                filled = Fraction(0)
                for j, t in instance.class_jobs(i):
                    hi = min(t, max(Fraction(0), room - filled))
                    if hi > 0:
                        nice_items.append((j, hi))
                        filled += hi
                    if t - hi > 0:
                        bottom_items.append((j, t - hi))
                view[i] = Batch.of(i, nice_items)
                if bottom_items:
                    k_items[i] = bottom_items
                for j2 in rest[idx + 1:]:
                    k_items[j2] = instance.class_jobs(j2)
            else:
                # cannot even afford this class's setup outside: the whole
                # tail goes to the bottoms (Q1 stays slightly underfilled —
                # shortfall < s_i ≤ T/4, absorbed by the ω slack; see module
                # docstring and the fuzz tests).
                for j2 in rest[idx:]:
                    k_items[j2] = instance.class_jobs(j2)
            break

    # ---- nice instance on the residual machines ------------------------- #
    view = {i: b for i, b in view.items() if len(b)}
    schedule_nice_view(schedule, T, view, residual, mode, exact_ints=fast)

    # ---- step 4: K at the bottoms of the large machines ------------------ #
    quarter = T / 4
    k_plus: list[tuple[int, JobRef, TimeLike]] = []
    k_minus: dict[int, list[tuple[JobRef, TimeLike]]] = {}
    for i, items in k_items.items():
        for j, t in items:
            if instance.setups[i] + t > half:
                raise ConstructionError(
                    f"Note 3 violated: bottom item {j} with s+t = "
                    f"{time_str(instance.setups[i] + t)} > T/2"
                )
            if t > quarter:
                k_plus.append((i, j, t))
            else:
                k_minus.setdefault(i, []).append((j, t))

    if len(k_plus) > l:
        raise ConstructionError(
            f"|K+| = {len(k_plus)} exceeds l = {l} large machines"
        )
    for u, (i, j, t) in enumerate(k_plus):
        schedule.add_setup(u, 0, i)
        schedule.add_piece(u, Fraction(instance.setups[i]), j, t)
    l_prime = len(k_plus)

    k_minus_batches: list[Batch] = []
    e = dual.split_class
    order = sorted(k_minus, key=lambda i: (i != e, i))  # class e first (paper)
    for i in order:
        k_minus_batches.append(Batch.of(i, k_minus[i]))
    if k_minus_batches:
        if l_prime >= l:
            raise ConstructionError("no large machines left for K-")
        gaps = [(l_prime, Fraction(0), half)]
        gaps += [(l_prime + r, quarter, half) for r in range(1, l - l_prime)]
        wrap(
            schedule, WrapSequence.of(k_minus_batches), WrapTemplate.of(gaps),
            exact_ints=fast,
        )

    if parts_out is not None:
        parts_out.dual = dual
        parts_out.large_machines = large_machines
        parts_out.nice_view = view
        parts_out.k_plus = k_plus
        parts_out.k_minus_batches = k_minus_batches
    return schedule
