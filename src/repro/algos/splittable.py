"""Splittable scheduling: the 3/2-dual approximation (Theorem 7, Appendix C).

For a makespan guess ``T`` the dual test computes

* ``L_split = P(J) + Σ_{i∈Ichp} s_i + Σ_{i∈Iexp} β_i s_i``  and
* ``m_exp = Σ_{i∈Iexp} β_i``  with ``β_i = ⌈2P(C_i)/T⌉``;

``T`` is **rejected** iff ``mT < L_split`` or ``m < m_exp`` — and rejection
certifies ``T < OPT_split`` (Theorem 7(i)).  Otherwise the construction
produces a feasible schedule with makespan ≤ ``3T/2`` in O(n):

* step 1 — every expensive class ``i`` is wrapped onto ``β_i`` fresh machines
  with gaps ``[0, s_i+T/2)`` then ``[s_i, s_i+T/2)``; each machine carries the
  class setup at its bottom;
* step 2 — cheap classes are wrapped into the leftover time of the *last*
  machines ``ū_i`` (gap ``[L(ū_i)+T/2, 3T/2)``, reserving ``[L, L+T/2]`` for
  one cheap setup below the gap) and then into empty machines (gap
  ``[T/2, 3T/2)``), exactly Figure 1(b).  Only the first ``⌈L(Q)/T⌉``
  empty machines get a gap, so the construction stays O(n + c) however
  large ``m`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.bounds import Variant, t_min
from ..core.classification import beta, split_expensive_cheap
from ..core.errors import RejectedMakespanError
from ..core.fastnum import ceil_div, validate_kernel
from ..core.instance import Instance
from ..core.numeric import Time, TimeLike, as_time, time_str
from ..core.schedule import Schedule
from ..core.wrapping import Batch, WrapSequence, WrapTemplate, wrap


@dataclass(frozen=True)
class SplitDual:
    """Outcome of the Theorem-7 test for one makespan guess."""

    T: Time
    exp: tuple[int, ...]
    chp: tuple[int, ...]
    betas: dict[int, int]
    load: Time          # L_split(T)
    machines_exp: int   # m_exp(T)
    accepted: bool

    def reject_reasons(self, m: int) -> list[str]:
        """Which of the two Theorem-7 conditions failed (empty if accepted)."""
        reasons = []
        if m * self.T < self.load:
            reasons.append("mT < L_split")
        if m < self.machines_exp:
            reasons.append("m < m_exp")
        return reasons


def split_dual_test(instance: Instance, T: TimeLike) -> SplitDual:
    """Theorem 7(i): accept/reject ``T`` in O(c) after O(n) preprocessing."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("T must be positive")
    exp, chp = split_expensive_cheap(instance, T)
    betas = {i: beta(instance, T, i) for i in exp}
    load = Fraction(instance.total_processing)
    load += sum(instance.setups[i] for i in chp)
    load += sum(betas[i] * instance.setups[i] for i in exp)
    m_exp = sum(betas.values())
    accepted = instance.m * T >= load and instance.m >= m_exp
    return SplitDual(
        T=T,
        exp=tuple(exp),
        chp=tuple(chp),
        betas=betas,
        load=load,
        machines_exp=m_exp,
        accepted=accepted,
    )


def split_dual_test_fast(instance: Instance, T: TimeLike) -> SplitDual:
    """:func:`split_dual_test` on the scaled-integer kernel.

    Same ``SplitDual`` field for field (the differential suite asserts
    it); the per-class β and load arithmetic runs on machine ints with
    ``T = tn/td`` cross-multiplied out.
    """
    T = as_time(T)
    if T <= 0:
        raise ValueError("T must be positive")
    tn, td = T.numerator, T.denominator
    exp: list[int] = []
    chp: list[int] = []
    betas: dict[int, int] = {}
    load = instance.total_processing
    m_exp = 0
    setups, P = instance.setups, instance.class_processing
    for i in range(len(setups)):
        s = setups[i]
        if 2 * s * td > tn:
            b = ceil_div(2 * P[i] * td, tn)
            exp.append(i)
            betas[i] = b
            load += b * s
            m_exp += b
        else:
            chp.append(i)
            load += s
    return SplitDual(
        T=T,
        exp=tuple(exp),
        chp=tuple(chp),
        betas=betas,
        load=Fraction(load),
        machines_exp=m_exp,
        accepted=instance.m * tn >= load * td and instance.m >= m_exp,
    )


def split_dual_schedule(instance: Instance, T: TimeLike, *, kernel: str = "fast") -> Schedule:
    """Theorem 7(ii): build a feasible schedule with makespan ≤ 3T/2.

    Raises :class:`RejectedMakespanError` when ``T`` fails the dual test.
    Both kernels wrap the same whole-class batches
    (:meth:`Batch.whole <repro.core.wrapping.Batch.whole>`).
    ``kernel="fast"`` routes the wrap engine through its scaled-integer
    path, which emits rows straight into the schedule's column store, and
    reads the last machines' loads off the Theorem-7 arithmetic;
    ``"fraction"`` is the rational reference.  Both produce identical
    placements.
    """
    T = as_time(T)
    fast = validate_kernel(kernel)
    dual = split_dual_test_fast(instance, T) if fast else split_dual_test(instance, T)
    if not dual.accepted:
        raise RejectedMakespanError(
            f"T={time_str(T)} rejected: load={time_str(dual.load)} vs "
            f"mT={time_str(instance.m * T)}, m_exp={dual.machines_exp} vs m={instance.m}"
        )
    schedule = Schedule(instance)
    half = T / 2

    # ---- step 1: expensive classes ---------------------------------- #
    next_machine = 0
    zero = Fraction(0)
    last_machines: list[tuple[int, int]] = []  # (class, ū_i)
    for i in dual.exp:
        s = Fraction(instance.setups[i])
        b = dual.betas[i]
        s_top = s + half
        gaps = [(next_machine, zero, s_top)]
        gaps += [(next_machine + r, s, s_top) for r in range(1, b)]
        sequence = WrapSequence((Batch.whole(instance, i),))
        wrap(schedule, sequence, WrapTemplate.of(gaps), exact_ints=fast)
        u_last = next_machine + b - 1
        last_machines.append((i, u_last))
        next_machine += b

    # ---- step 2: cheap classes --------------------------------------- #
    if dual.chp:
        gaps = []
        top = 3 * half
        for i, u in last_machines:
            if fast:
                # Wrap fills every gap but the last completely, so the last
                # machine's load is s_i + P_i − (β_i−1)·T/2 — no need to
                # re-sum its placements.
                load_u = (
                    Fraction(instance.setups[i] + instance.class_processing[i])
                    - (dual.betas[i] - 1) * half
                )
            else:
                load_u = schedule.machine_load(u)
            if load_u < T:
                # Reserve [L, L+T/2] for one cheap setup below the gap.
                gaps.append((u, load_u + half, top))
        # Wrap fills gaps in order, and ⌈L(Q)/T⌉ empty machines (S = T
        # each) already satisfy Lemma 6, so it never reaches the machines
        # past them: gaps for those would cost O(m) and place nothing.
        load_q = sum(instance.setups[i] + instance.class_processing[i] for i in dual.chp)
        empty = min(instance.m - next_machine, ceil_div(load_q * T.denominator, T.numerator))
        for u in range(next_machine, next_machine + empty):
            gaps.append((u, half, top))
        sequence = WrapSequence(tuple(Batch.whole(instance, i) for i in dual.chp))
        wrap(schedule, sequence, WrapTemplate.of(gaps), exact_ints=fast)

    return schedule


def split_window(instance: Instance) -> tuple[Time, Time]:
    """``[T_min, 2 T_min]`` with ``OPT_split`` inside (Lemma 8 upper bound)."""
    tmin = t_min(instance, Variant.SPLITTABLE)
    return tmin, 2 * tmin
