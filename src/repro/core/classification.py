"""Class partitions and minimal machine numbers relative to a makespan ``T``.

This module encodes the definitions of Section 2 (expensive/cheap classes,
``α_i``, ``β_i``), Section 4.1 (``I⁺exp, I⁰exp, I⁻exp``, ``I⁺chp, I⁻chp``,
big jobs ``C*_i``, ``I*chp``, ``α′_i``), Section 4.4 (``β′_i``, ``γ_i``) and
Appendix D (``J⁺``, ``K``, ``m_i``, ``x_i``).  All other modules derive their
case analysis from here, so the boundary conventions (strict vs non-strict
inequalities) are implemented **once** and property-tested:

* expensive: ``s_i >  T/2``;  cheap: ``s_i ≤ T/2``                 (Section 2)
* ``i ∈ I⁺exp``  iff ``T ≤ s_i + P(C_i)``                          (Section 4.1)
* ``i ∈ I⁰exp``  iff ``3T/4 < s_i + P(C_i) < T``
* ``i ∈ I⁻exp``  iff ``s_i + P(C_i) ≤ 3T/4``
* ``i ∈ I⁺chp``  iff ``T/4 ≤ s_i ≤ T/2``;  ``i ∈ I⁻chp`` iff ``s_i < T/4``
* ``C*_i = { j ∈ C_i : s_i + t_j > T/2 }`` for ``i ∈ I⁻chp``;
  ``I*chp = { i ∈ I⁻chp : C*_i ≠ ∅ }``
* ``J⁺ = { j : t_j > T/2 }``;  ``K = ∪_{i∈Ichp} { j ∈ C_i∩J⁻ : s_i+t_j > T/2 }``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .instance import Instance, JobRef
from .numeric import Time, TimeLike, as_time, frac_ceil, frac_floor


# --------------------------------------------------------------------------- #
# machine-count quantities (Lemma 1, Section 4.1, Section 4.4)
# --------------------------------------------------------------------------- #


def alpha(instance: Instance, T: TimeLike, cls: int) -> int:
    """``α_i = ⌈P(C_i)/(T−s_i)⌉`` — minimal setups of class i (Lemma 1)."""
    T = as_time(T)
    s = instance.setups[cls]
    if T <= s:
        raise ValueError(
            f"alpha undefined for T={T} <= s_{cls}={s}; callers must ensure T > s_i"
        )
    return frac_ceil(Fraction(instance.processing(cls)) / (T - s))


def alpha_prime(instance: Instance, T: TimeLike, cls: int) -> int:
    """``α′_i = ⌊P(C_i)/(T−s_i)⌋`` (Section 4.1; ≥ 1 for ``i ∈ I⁺exp``)."""
    T = as_time(T)
    s = instance.setups[cls]
    if T <= s:
        raise ValueError(
            f"alpha_prime undefined for T={T} <= s_{cls}={s}; callers must ensure T > s_i"
        )
    return frac_floor(Fraction(instance.processing(cls)) / (T - s))


def beta(instance: Instance, T: TimeLike, cls: int) -> int:
    """``β_i = ⌈2P(C_i)/T⌉`` — minimal machines for an expensive class."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("beta requires T > 0")
    return frac_ceil(Fraction(2 * instance.processing(cls)) / T)


def beta_prime(instance: Instance, T: TimeLike, cls: int) -> int:
    """``β′_i = ⌊2P(C_i)/T⌋`` (Section 4.4)."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("beta_prime requires T > 0")
    return frac_floor(Fraction(2 * instance.processing(cls)) / T)


def gamma(instance: Instance, T: TimeLike, cls: int) -> int:
    """``γ_i`` — machines used by the modified step 1 of Algorithm 2 (§4.4).

    ``γ_i = max{β′_i, 1}`` if the remainder ``P(C_i) − β′_i·T/2`` fits into
    ``T − s_i`` (so the last machine's job load can be folded on top of the
    second-last machine), else ``γ_i = β_i``.
    """
    T = as_time(T)
    P = Fraction(instance.processing(cls))
    s = instance.setups[cls]
    bp = beta_prime(instance, T, cls)
    if P - bp * T / 2 <= T - s:
        return max(bp, 1)
    return beta(instance, T, cls)


# --------------------------------------------------------------------------- #
# expensive / cheap split (Section 2)
# --------------------------------------------------------------------------- #


def split_expensive_cheap(instance: Instance, T: TimeLike) -> tuple[list[int], list[int]]:
    """Return ``(Iexp, Ichp)`` — class indices with ``s_i > T/2`` / ``s_i ≤ T/2``."""
    T = as_time(T)
    half = T / 2
    exp = [i for i, s in enumerate(instance.setups) if s > half]
    chp = [i for i, s in enumerate(instance.setups) if s <= half]
    return exp, chp


# --------------------------------------------------------------------------- #
# preemptive partition (Sections 4.1 / 4.2)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PmtnPartition:
    """All sets and counts Algorithm 2/3/4 need for a given makespan ``T``."""

    instance: Instance
    T: Time
    exp: tuple[int, ...]
    chp: tuple[int, ...]
    exp_plus: tuple[int, ...]   # I⁺exp : T ≤ s_i + P(C_i)
    exp_zero: tuple[int, ...]   # I⁰exp : 3T/4 < s_i + P(C_i) < T
    exp_minus: tuple[int, ...]  # I⁻exp : s_i + P(C_i) ≤ 3T/4
    chp_plus: tuple[int, ...]   # I⁺chp : T/4 ≤ s_i ≤ T/2
    chp_minus: tuple[int, ...]  # I⁻chp : s_i < T/4
    chp_star: tuple[int, ...]   # I*chp : i ∈ I⁻chp with C*_i ≠ ∅
    star_jobs: dict[int, tuple[JobRef, ...]] = field(repr=False, default_factory=dict)

    @property
    def is_nice(self) -> bool:
        """Definition 1: an instance is *nice* for ``T`` iff ``I⁰exp = ∅``."""
        return not self.exp_zero

    def big_jobs(self, cls: int) -> tuple[JobRef, ...]:
        """``C*_i`` for ``i ∈ I⁻chp`` (empty for other classes)."""
        return self.star_jobs.get(cls, ())

    def non_big_jobs(self, cls: int) -> list[tuple[JobRef, int]]:
        """``C_i \\ C*_i`` with processing times."""
        star = set(self.star_jobs.get(cls, ()))
        return [(j, t) for j, t in self.instance.class_jobs(cls) if j not in star]


def pmtn_partition(instance: Instance, T: TimeLike) -> PmtnPartition:
    """Compute the full Section-4 partition for makespan ``T``."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("partition requires T > 0")
    half, quarter, three_quarter = T / 2, T / 4, 3 * T / 4
    exp: list[int] = []
    chp: list[int] = []
    exp_plus: list[int] = []
    exp_zero: list[int] = []
    exp_minus: list[int] = []
    chp_plus: list[int] = []
    chp_minus: list[int] = []
    chp_star: list[int] = []
    star_jobs: dict[int, tuple[JobRef, ...]] = {}

    for i in range(instance.c):
        s = instance.setups[i]
        total = s + instance.processing(i)
        if s > half:
            exp.append(i)
            if total >= T:
                exp_plus.append(i)
            elif total > three_quarter:
                exp_zero.append(i)
            else:
                exp_minus.append(i)
        else:
            chp.append(i)
            if s >= quarter:
                chp_plus.append(i)
            else:
                chp_minus.append(i)
                stars = tuple(
                    JobRef(i, idx)
                    for idx, t in enumerate(instance.jobs[i])
                    if s + t > half
                )
                if stars:
                    chp_star.append(i)
                    star_jobs[i] = stars

    return PmtnPartition(
        instance=instance,
        T=T,
        exp=tuple(exp),
        chp=tuple(chp),
        exp_plus=tuple(exp_plus),
        exp_zero=tuple(exp_zero),
        exp_minus=tuple(exp_minus),
        chp_plus=tuple(chp_plus),
        chp_minus=tuple(chp_minus),
        chp_star=tuple(chp_star),
        star_jobs=star_jobs,
    )


# --------------------------------------------------------------------------- #
# non-preemptive partition (Appendix D)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class NonpPartition:
    """Sets and machine numbers for Algorithm 6 at makespan ``T``.

    ``L = J⁺ ∪ J(Iexp) ∪ K = ∪_i { j ∈ C_i : s_i + t_j > T/2 }`` (Note 4).
    """

    instance: Instance
    T: Time
    exp: tuple[int, ...]
    chp: tuple[int, ...]
    #: per class: jobs in ``C_i ∩ J⁺`` (cheap classes only; expensive classes
    #: keep their whole job set in L anyway).
    big_jobs: dict[int, tuple[JobRef, ...]] = field(repr=False, default_factory=dict)
    #: per class: jobs in ``C_i ∩ K`` (cheap classes).
    k_jobs: dict[int, tuple[JobRef, ...]] = field(repr=False, default_factory=dict)
    #: minimal machine count ``m_i`` per class.
    machine_counts: tuple[int, ...] = ()

    def m_i(self, cls: int) -> int:
        return self.machine_counts[cls]

    @property
    def m_total(self) -> int:
        """``m' = Σ_i m_i`` (Theorem 9)."""
        return sum(self.machine_counts)

    def x_i(self, cls: int) -> Time:
        """``x_i = P(C_i) − m_i(T − s_i)`` — residual load after steps 1–2."""
        return (
            Fraction(self.instance.processing(cls))
            - self.machine_counts[cls] * (self.T - self.instance.setups[cls])
        )

    def l_jobs(self, cls: int) -> tuple[JobRef, ...]:
        """``C_i ∩ L`` — the jobs scheduled in step 1 for this class."""
        if cls in self.exp:
            return tuple(JobRef(cls, idx) for idx in range(len(self.instance.jobs[cls])))
        return tuple(self.big_jobs.get(cls, ())) + tuple(self.k_jobs.get(cls, ()))


def nonp_partition_fast(instance: Instance, T: TimeLike) -> NonpPartition:
    """:func:`nonp_partition` on scaled integers (identical output).

    The per-job thresholds ``t_j > T/2`` and ``s_i + t_j > T/2`` become
    integer cross-multiplications against ``T = tn/td``, which removes
    the O(n) Fraction comparisons from the Algorithm-6 construction hot
    path.  The Fraction :func:`nonp_partition` remains the reference the
    differential suite checks this against.
    """
    T = as_time(T)
    if T <= 0:
        raise ValueError("partition requires T > 0")
    tn, td = T.numerator, T.denominator
    exp: list[int] = []
    chp: list[int] = []
    big_jobs: dict[int, tuple[JobRef, ...]] = {}
    k_jobs: dict[int, tuple[JobRef, ...]] = {}
    counts: list[int] = []

    for i in range(instance.c):
        s = instance.setups[i]
        s2 = 2 * s * td
        if s2 > tn:  # expensive: s_i > T/2
            exp.append(i)
            cap = tn - s * td
            if cap <= 0:
                raise ValueError(
                    f"alpha undefined for T={T} <= s_{i}={s}; callers must "
                    "ensure T > s_i"
                )
            counts.append(-((-instance.class_processing[i] * td) // cap))
            continue
        chp.append(i)
        if s2 + 2 * instance.class_tmax[i] * td <= tn:
            # s_i + t_max^i ≤ T/2: no job clears the J⁺ (t_j > T/2) or K
            # (s_i + t_j > T/2) thresholds — the whole class is step-2/3
            # residual load and the O(n_i) scan is skipped.
            counts.append(0)
            continue
        big: list[JobRef] = []
        kjs: list[JobRef] = []
        k_processing = 0
        td2 = 2 * td
        for idx, t in enumerate(instance.jobs[i]):
            t2 = t * td2
            if t2 > tn:
                big.append(JobRef(i, idx))
            elif s2 + t2 > tn:
                kjs.append(JobRef(i, idx))
                k_processing += t
        if big:
            big_jobs[i] = tuple(big)
        if kjs:
            k_jobs[i] = tuple(kjs)
        wrap_machines = (
            -((-k_processing * td) // (tn - s * td)) if k_processing else 0
        )
        counts.append(len(big) + wrap_machines)

    return NonpPartition(
        instance=instance,
        T=T,
        exp=tuple(exp),
        chp=tuple(chp),
        big_jobs=big_jobs,
        k_jobs=k_jobs,
        machine_counts=tuple(counts),
    )


def nonp_partition(instance: Instance, T: TimeLike) -> NonpPartition:
    """Compute ``J⁺``, ``K`` and the machine numbers ``m_i`` of Appendix D."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("partition requires T > 0")
    half = T / 2
    exp, chp = split_expensive_cheap(instance, T)
    exp_set = set(exp)
    big_jobs: dict[int, tuple[JobRef, ...]] = {}
    k_jobs: dict[int, tuple[JobRef, ...]] = {}
    counts: list[int] = []

    for i in range(instance.c):
        s = instance.setups[i]
        if i in exp_set:
            counts.append(alpha(instance, T, i))
            continue
        big: list[JobRef] = []
        kjs: list[JobRef] = []
        k_processing = 0
        for idx, t in enumerate(instance.jobs[i]):
            if t > half:
                big.append(JobRef(i, idx))
            elif s + t > half:
                kjs.append(JobRef(i, idx))
                k_processing += t
        if big:
            big_jobs[i] = tuple(big)
        if kjs:
            k_jobs[i] = tuple(kjs)
        wrap_machines = (
            frac_ceil(Fraction(k_processing) / (T - s)) if k_processing else 0
        )
        counts.append(len(big) + wrap_machines)

    return NonpPartition(
        instance=instance,
        T=T,
        exp=tuple(exp),
        chp=tuple(chp),
        big_jobs=big_jobs,
        k_jobs=k_jobs,
        machine_counts=tuple(counts),
    )
