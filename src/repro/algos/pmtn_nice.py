"""Nice preemptive instances: Algorithm 2 and Theorem 4 (Section 4.1).

An instance is *nice* for a makespan ``T`` when ``I⁰exp = ∅``.  Algorithm 2
schedules a nice instance with makespan ≤ 3T/2 whenever

* ``mT ≥ L_nice = P(J) + Σ_{I⁺exp} κ_i s_i + Σ_{I⁻exp ∪ Ichp} s_i`` and
* ``m ≥ m_nice = ⌈|I⁻exp|/2⌉ + Σ_{I⁺exp} κ_i``

where the per-class machine count ``κ_i`` is ``α′_i = ⌊P(C_i)/(T−s_i)⌋``
(Theorem 4) or the Class-Jumping variant ``γ_i`` of Section 4.4 — both are
valid lower bounds on the setups any T-feasible schedule pays (Lemma 1,
``γ_i ≤ β_i ≤ α_i``), and both satisfy the key budget inequality
``κ_i s_i + P(C_i) ≥ κ_i T`` (inequality (2) resp. its §4.4 analogue).

The scheduler is *view-based*: the general Algorithm 3 feeds it a derived
instance whose "jobs" are job pieces (``j^(2)``, ``j^[2]``) of the original
instance, to be placed on the residual machines only.  A view maps each
class to one :class:`~repro.core.wrapping.Batch`: a whole class
(``Batch.whole``, integer lengths) or a list of job pieces (``Batch.of``,
lengths may be fractional).  Both kernels read the same views; only the
engines beneath step 1 and the wrap differ (``exact_ints``).  On the
scaled-integer engines a whole class's jobs are its length positions, so
only step 2 (the ``I⁻exp`` pairs) reads its ``(JobRef, t)`` pairs.

Geometry (all on the caller-supplied machine list):

* ``I⁺exp`` class, mode ``alpha``: ``κ`` machines, each with the setup at
  ``[0, s_i]``; machines ``1..κ−1`` carry exactly ``T−s_i`` job load (full
  to ``T``); the last machine carries the remainder, load in ``[T, 2T−s_i)
  ⊂ [T, 3T/2)``.  This is the layout the paper's step 1 reaches after
  its "fold", placed directly.
* ``I⁺exp`` class, mode ``gamma``: machines carry ``T/2`` of job load above
  the setup; the remainder (≤ ``T/2 + (T−s_i)``) goes onto the last
  machine, load ≤ 3T/2 (Figure 5).
* ``I⁻exp`` classes: paired two per machine from time 0 (load ≤ 3T/2); an
  odd leftover class sits alone on machine ``µ``.
* cheap classes: one wrap sequence into gaps ``(µ, T, 3T/2)`` (odd case)
  then ``(·, T/2, 3T/2)`` on the remaining machines — all cheap processing
  lives in ``[T/2, 3T/2]``, which the general algorithm exploits to keep
  bottoms of large machines free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence

from math import lcm

from ..core.errors import ConstructionError, RejectedMakespanError
from ..core.fastnum import count_core
from ..core.instance import Instance, JobRef
from ..core.numeric import (
    Time,
    TimeLike,
    as_time,
    fast_fraction,
    time_str,
)
from ..core.schedule import Schedule
from ..core.wrapping import Batch, WrapSequence, WrapTemplate, wrap

CountMode = Literal["alpha", "gamma"]

#: A view: class index -> the batch of items (whole class or job pieces)
#: to schedule for that class.
NiceView = dict[int, Batch]


def full_view(instance: Instance) -> NiceView:
    """The identity view: every class with all of its jobs."""
    return {i: Batch.whole(instance, i) for i in range(instance.c)}


@dataclass(frozen=True)
class NicePartition:
    """The Section-4.1 partition of a *view* for makespan ``T``."""

    T: Time
    exp_plus: tuple[int, ...]
    exp_zero: tuple[int, ...]
    exp_minus: tuple[int, ...]
    cheap: tuple[int, ...]

    @property
    def is_nice(self) -> bool:
        return not self.exp_zero


def partition_view(instance: Instance, T: TimeLike, view: NiceView) -> NicePartition:
    T = as_time(T)
    tn, td = T.numerator, T.denominator
    exp_plus: list[int] = []
    exp_zero: list[int] = []
    exp_minus: list[int] = []
    cheap: list[int] = []
    for i in sorted(view):
        s = instance.setups[i]
        if 2 * s * td <= tn:  # s <= T/2, cross-multiplied (setups are ints)
            cheap.append(i)
            continue
        total = s + view[i].processing
        qn, qd = total.numerator, total.denominator
        if qn * td >= tn * qd:  # total >= T
            exp_plus.append(i)
        elif 4 * qn * td > 3 * tn * qd:  # total > 3T/4
            exp_zero.append(i)
        else:
            exp_minus.append(i)
    return NicePartition(
        T=T,
        exp_plus=tuple(exp_plus),
        exp_zero=tuple(exp_zero),
        exp_minus=tuple(exp_minus),
        cheap=tuple(cheap),
    )


def count_for(instance: Instance, T: Time, cls: int, P: Time, mode: CountMode) -> int:
    """``κ_i``: α′ (Theorem 4) or γ (Section 4.4) for an ``I⁺exp`` class."""
    s = instance.setups[cls]
    tn, td = T.numerator, T.denominator
    pn, pd = P.numerator, P.denominator  # P may be an exact int total
    if mode == "alpha":
        if tn <= s * td:
            raise ValueError(f"alpha' undefined: T={T} <= s_{cls}={s}")
        return max(1, (pn * td) // (pd * (tn - s * td)))
    # gamma (on the view's processing): bp = floor(2P/T), and the budget
    # condition P − bp·T/2 ≤ T − s cross-multiplied by 2·pd·td > 0.
    bp = (2 * pn * td) // (pd * tn)
    if 2 * pn * td - bp * tn * pd <= 2 * pd * (tn - s * td):
        return max(bp, 1)
    return -((-2 * pn * td) // (pd * tn))  # ceil(2P/T)


@dataclass(frozen=True)
class NiceDual:
    """Theorem 4's acceptance data for a view."""

    T: Time
    partition: NicePartition
    counts: dict[int, int]      # κ_i for i ∈ I⁺exp
    load: Time                  # L_nice
    machines_needed: int        # m_nice
    accepted: bool
    mode: CountMode


def nice_dual_test(
    instance: Instance,
    T: TimeLike,
    *,
    view: Optional[NiceView] = None,
    machines_available: Optional[int] = None,
    mode: CountMode = "alpha",
) -> NiceDual:
    """Theorem 4(i) on a view. Rejection certifies ``T < OPT`` (full view).

    An extra rejection applies Note 1: ``T < max_i(s_i + max item length)``
    is always ``< OPT`` for the full view, and the Algorithm-2 geometry
    needs ``s_i + t_j ≤ T`` to keep split pieces self-overlap free.
    """
    T = as_time(T)
    if view is None:
        view = full_view(instance)
    m = instance.m if machines_available is None else machines_available
    part = partition_view(instance, T, view)
    if not part.is_nice:
        raise ValueError(
            f"instance is not nice for T={time_str(T)}: I0exp={part.exp_zero}"
        )
    note1 = max(
        (instance.setups[i] + max(t for _, t in b.items)
         for i, b in view.items() if len(b)),
        default=Fraction(0),
    )
    if T < note1:
        return NiceDual(
            T=T, partition=part, counts={}, load=Fraction(instance.total_load),
            machines_needed=m + 1, accepted=False, mode=mode,
        )
    counts = {
        i: count_for(instance, T, i, view[i].processing, mode) for i in part.exp_plus
    }
    load = sum((b.processing for b in view.values()), Fraction(0))
    load += sum(counts[i] * instance.setups[i] for i in part.exp_plus)
    load += sum(instance.setups[i] for i in part.exp_minus)
    load += sum(instance.setups[i] for i in part.cheap)
    machines_needed = -(-len(part.exp_minus) // 2) + sum(counts.values())
    accepted = m * T >= load and m >= machines_needed
    return NiceDual(
        T=T,
        partition=part,
        counts=counts,
        load=load,
        machines_needed=machines_needed,
        accepted=accepted,
        mode=mode,
    )


def _schedule_exp_plus_fractions(
    schedule: Schedule, T: Time, view: NiceView, part: NicePartition,
    mode: CountMode, take,
) -> None:
    """Step 1 of Algorithm 2 — the historical exact-rational loop."""
    instance = schedule.instance
    half = T / 2
    for i in part.exp_plus:
        s = Fraction(instance.setups[i])
        P = view[i].processing
        k = count_for(instance, T, i, P, mode)
        per_machine = (T - s) if mode == "alpha" else half
        quotas = [per_machine] * (k - 1)
        quotas.append(P - per_machine * (k - 1))  # remainder on the last machine
        if quotas[-1] <= 0:
            raise ConstructionError(
                f"class {i}: non-positive remainder quota {quotas[-1]} (k={k})"
            )
        if s + quotas[-1] > 3 * half:
            raise ConstructionError(
                f"class {i}: last machine would exceed 3T/2 "
                f"(s={time_str(s)}, quota={time_str(quotas[-1])})"
            )
        items = iter(view[i].items)
        carry: Optional[tuple[JobRef, Time]] = None
        for quota in quotas:
            u = take()
            schedule.add_setup(u, 0, i)
            t = s
            room = quota
            while room > 0:
                if carry is not None:
                    job, length = carry
                    carry = None
                else:
                    nxt = next(items, None)
                    if nxt is None:
                        break
                    job, length = nxt
                placed = min(length, room)
                schedule.add_piece(u, t, job, placed)
                t += placed
                room -= placed
                if placed < length:
                    carry = (job, length - placed)
        if carry is not None or next(items, None) is not None:
            raise ConstructionError(f"class {i}: quotas did not cover P(C_i)")


def _schedule_exp_plus_ints(
    schedule: Schedule, T: Time, view: NiceView, part: NicePartition,
    mode: CountMode, take,
) -> None:
    """Step 1 of Algorithm 2 on scaled integers.

    Per class, every quantity is pre-multiplied by a class-local scale
    ``D_i = lcm(2·td, item denominators)`` — the smallest scale making
    ``T/2``, ``T − s_i`` and every view item an exact machine int — so
    the quota/carry loop runs on ints.  A whole class is read as its
    ``int_lengths`` with job indices ``0..n_i−1`` (no
    :class:`~repro.core.instance.JobRef` pairs); each class's rows are
    collected by job index and flushed into the schedule's column store
    with one :meth:`~repro.core.schedule.ScheduleColumns.extend_scaled`,
    every machine checked as it is taken, with no Fraction or Placement
    objects at all.  Placements materialize bit-identical to the rational
    loop (the differential suite compares both end to end).
    """
    instance = schedule.instance
    m = instance.m
    tn, td = T.numerator, T.denominator
    for i in part.exp_plus:
        batch = view[i]
        D = 2 * td
        if batch.int_lengths is not None:
            # whole class: integer lengths, no per-item denominator scan
            idxs: Sequence[int] = range(len(batch.int_lengths))
            lens_sc = [t * D for t in batch.int_lengths]
        else:
            for _, t in batch.items:
                den = t.denominator
                if D % den:
                    D = lcm(D, den)
            idxs = [job.idx for job, _ in batch.items]
            lens_sc = [t.numerator * (D // t.denominator) for _, t in batch.items]
        s = instance.setups[i]
        s_sc = s * D
        t_sc = tn * (D // td)              # T·D — even multiple of tn
        P_sc = sum(lens_sc)
        # κ_i on the pre-scaled ints: count_core is the same α′/γ formula
        # the dual tests run, identical to count_for by scale invariance.
        if mode == "alpha" and t_sc <= s_sc:
            raise ValueError(f"alpha' undefined: T={T} <= s_{i}={s}")
        k = count_core(mode, t_sc, s_sc, P_sc)
        per_sc = (t_sc - s_sc) if mode == "alpha" else t_sc // 2
        last_sc = P_sc - per_sc * (k - 1)  # remainder on the last machine
        if last_sc <= 0:
            raise ConstructionError(
                f"class {i}: non-positive remainder quota "
                f"{fast_fraction(last_sc, D)} (k={k})"
            )
        if 2 * (s_sc + last_sc) > 3 * t_sc:
            raise ConstructionError(
                f"class {i}: last machine would exceed 3T/2 "
                f"(s={s}, quota={time_str(fast_fraction(last_sc, D))})"
            )
        stream = iter(zip(idxs, lens_sc))
        carry_idx = carry_sc = 0  # a piece left over for the next machine
        mq: list[int] = []
        sq: list[int] = []
        lq: list[int] = []
        jq: list[int] = []
        ma, sa, la, ja = mq.append, sq.append, lq.append, jq.append
        for b in range(k):
            u = take()
            if not 0 <= u < m:
                raise ValueError(f"machine {u} out of range [0, {m})")
            ma(u); sa(0); la(s_sc); ja(-1)
            pos_sc = s_sc
            room_sc = per_sc if b < k - 1 else last_sc
            while room_sc > 0:
                if carry_sc:
                    jidx, len_sc = carry_idx, carry_sc
                    carry_sc = 0
                else:
                    nxt = next(stream, None)
                    if nxt is None:
                        break
                    jidx, len_sc = nxt
                placed_sc = min(len_sc, room_sc)
                ma(u); sa(pos_sc); la(placed_sc); ja(jidx)
                pos_sc += placed_sc
                room_sc -= placed_sc
                if placed_sc < len_sc:
                    carry_idx = jidx
                    carry_sc = len_sc - placed_sc
        if carry_sc or next(stream, None) is not None:
            raise ConstructionError(f"class {i}: quotas did not cover P(C_i)")
        schedule._columns_for_append().extend_scaled(mq, sq, lq, D, [i] * len(mq), jq)


def schedule_nice_view(
    schedule: Schedule,
    T: TimeLike,
    view: NiceView,
    machines: Sequence[int],
    mode: CountMode = "alpha",
    *,
    exact_ints: bool = True,
) -> None:
    """Algorithm 2 on a view, placing onto ``machines`` (ascending order).

    The caller must have verified the Theorem-4 conditions for
    ``len(machines)``; a violated wrap capacity raises
    :class:`ConstructionError` (a bug, per Theorem 4(ii)).
    """
    T = as_time(T)
    instance = schedule.instance
    machines = list(machines)
    if machines != sorted(machines):
        raise ValueError("machines must be ascending")
    part = partition_view(instance, T, view)
    if not part.is_nice:
        raise ConstructionError(f"view not nice at T={time_str(T)}")
    half = T / 2
    cursor = 0  # index into machines

    def take() -> int:
        nonlocal cursor
        if cursor >= len(machines):
            raise ConstructionError("Algorithm 2 ran out of machines (m_nice bound violated)")
        u = machines[cursor]
        cursor += 1
        return u

    # ---- step 1: I+exp classes on κ_i machines each -------------------- #
    if exact_ints:
        _schedule_exp_plus_ints(schedule, T, view, part, mode, take)
    else:
        _schedule_exp_plus_fractions(schedule, T, view, part, mode, take)

    # ---- step 2: I-exp classes in pairs -------------------------------- #
    mu: Optional[int] = None  # machine hosting the odd leftover class
    minus = list(part.exp_minus)
    for a in range(0, len(minus) - 1, 2):
        u = take()
        t = Fraction(0)
        for i in (minus[a], minus[a + 1]):
            schedule.add_setup(u, t, i)
            t += instance.setups[i]
            for job, length in view[i].items:
                schedule.add_piece(u, t, job, length)
                t += length
    if len(minus) % 2 == 1:
        i = minus[-1]
        u = take()
        mu = u
        t = Fraction(0)
        schedule.add_setup(u, t, i)
        t += instance.setups[i]
        for job, length in view[i].items:
            schedule.add_piece(u, t, job, length)
            t += length

    # ---- step 3: wrap the cheap classes -------------------------------- #
    sequence = WrapSequence.of(view[i] for i in part.cheap)
    if not sequence.batches:
        return
    gaps: list[tuple[int, Time, Time]] = []
    if mu is not None:
        gaps.append((mu, T, 3 * half))
    gaps += [(machines[r], half, 3 * half) for r in range(cursor, len(machines))]
    if not gaps:
        raise ConstructionError("no gaps left for cheap classes (L_nice bound violated)")
    wrap(schedule, sequence, WrapTemplate.of(gaps), exact_ints=exact_ints)


def nice_dual_schedule(
    instance: Instance, T: TimeLike, mode: CountMode = "alpha"
) -> Schedule:
    """Theorem 4(ii) for a whole (nice) instance on all machines."""
    T = as_time(T)
    view = full_view(instance)
    dual = nice_dual_test(instance, T, view=view, mode=mode)
    if not dual.accepted:
        raise RejectedMakespanError(
            f"T={time_str(T)} rejected by Theorem 4: L_nice={time_str(dual.load)} "
            f"vs mT={time_str(instance.m * T)}, m_nice={dual.machines_needed}"
        )
    schedule = Schedule(instance)
    schedule_nice_view(schedule, T, view, list(range(instance.m)), mode)
    return schedule
