"""Class Jumping for splittable scheduling (Algorithm 1, Theorem 3).

Finds the exact acceptance flip point ``T* = min{T : Theorem-7 test
accepts}`` with ``O(log(c+m))`` dual tests after O(n) preprocessing, giving
a true 3/2-approximation in ``O(n + c log(c+m))``:

1. a *right interval* ``(A₁, T₁]`` between consecutive doubled setup values
   ``2s̃`` — the expensive/cheap partition is constant on ``[A₁, T₁)``;
2. the *fastest jumping class* ``f`` (max ``P_f``) partitions the interval
   by its jumps ``2P_f/k``; a bisection over ``k`` narrows to a window
   between consecutive ``f``-jumps;
3. by Lemma 3 every other class jumps at most once inside that window, so
   the ≤ c remaining jumps are sorted and bisected to a jump-free right
   interval ``(T_fail, T_ok]``;
4. on ``[T_fail, T_ok)`` the load ``L_split`` and machine demand ``m_exp``
   are constant, so the flip is either ``T_ok`` itself or
   ``T_new = L_split(T_fail)/m`` (step 9's case analysis).

Correctness leans on the monotonicity of ``L_split`` and ``m_exp`` in ``T``
(larger ``T`` ⟹ fewer forced setups/machines), which makes every point
below the returned value provably rejected; the returned value is therefore
≤ OPT and the built schedule is a 3/2-approximation.

The probe sequence lives in :func:`flip_plan_splittable`, a resumable
probe plan (see :mod:`repro.algos.search`): :func:`find_flip_splittable`
and :func:`repro.algos.api.solve_point` drive it against the shared
per-item :func:`~repro.algos.search.probe_evaluator`, and the xbatch
coordinator drives the *same* generator in lockstep with other items'
searches — identical probes by construction.

The plan runs on the scaled-integer tier: candidates are normalized
``(num, den)`` pairs (canonical per rational, so every probe value, memo
key and jump set matches the historic Fraction plan bit-for-bit), and the
only Fractions are the ones the evaluator's fraction-kernel branch hands
to the reference dual test, plus the returned ``T*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..core.bounds import Variant, t_min
from ..core.fastnum import (
    DualContext,
    as_pair,
    norm_pair,
    pair_ceil,
    pair_cmp,
    pair_key,
    validate_kernel,
)
from ..core.instance import Instance
from ..core.numeric import Time, fast_fraction
from ..core.schedule import Schedule
from .search import (
    Pair,
    ProbeRequest,
    drive_plan,
    plan_accept,
    probe_evaluator,
    right_interval_plan,
)
from .splittable import split_dual_schedule


@dataclass(frozen=True)
class JumpSearchResult:
    """Flip point, schedule built at it, and bookkeeping for ablations."""

    T_star: Time
    schedule: Schedule
    accept_calls: int
    #: proven approximation factor of the schedule (always 3/2 here since
    #: T_star ≤ OPT and makespan ≤ (3/2)·T_star).
    ratio_bound: Fraction = Fraction(3, 2)


def three_halves_splittable(
    instance: Instance,
    *,
    kernel: str = "fast",
    ctx: Optional[DualContext] = None,
    use_grid: bool = False,
) -> JumpSearchResult:
    """Theorem 3 — 3/2-approximation in ``O(n + c log(c+m))``."""
    T_star, calls = find_flip_splittable(
        instance, kernel=kernel, ctx=ctx, use_grid=use_grid
    )
    schedule = split_dual_schedule(instance, T_star, kernel=kernel)
    return JumpSearchResult(T_star=T_star, schedule=schedule, accept_calls=calls)


def find_flip_splittable(
    instance: Instance,
    *,
    kernel: str = "fast",
    ctx: Optional[DualContext] = None,
    use_grid: bool = False,
) -> tuple[Time, int]:
    """Locate ``T* = min accepted T`` via Algorithm 1. Returns (T*, #tests).

    The ``O(log(c+m))`` accept probes run on the scaled-integer kernel by
    default; ``kernel="fraction"`` probes the Theorem-7 reference instead
    (bit-identical decisions, differential-tested).  ``ctx`` injects a
    pre-built (possibly :meth:`~repro.core.fastnum.DualContext.for_m`-
    shared) probe context; ``use_grid=True`` evaluates the candidate
    lists as blocks through a one-member
    :class:`~repro.core.xbatch.BatchDualContext` (identical flip, since
    ``L_split``/``m_exp`` are monotone).  All probes are memoized, so
    interval endpoints shared across the search phases are tested once.
    """
    fast = validate_kernel(kernel)
    grid = use_grid and fast
    T, calls = drive_plan(
        flip_plan_splittable(instance, grid=grid),
        probe_evaluator(instance, fast=fast, ctx=ctx, grid=grid),
    )
    return fast_fraction(*T), calls


def flip_plan_splittable(instance: Instance, *, grid: bool = False):
    """Algorithm 1's probe sequence; returns ``(T_star, accept_calls)``.

    ``T_star`` comes back as a normalized pair; drivers rebuild the
    Fraction at the result boundary.
    """
    memo: dict[tuple[int, int], bool] = {}
    counted = [0]

    tn, td = as_pair(t_min(instance, Variant.SPLITTABLE))
    tmin = (tn, td)
    thi = norm_pair(2 * tn, td)
    if (yield from plan_accept(memo, counted, "split", "", tmin)):
        return tmin, counted[0]

    # ---- step 4: right interval between doubled setups ---------------- #
    # tmin < 2s < 2·tmin  ⟺  tn < 2·s·td < 2·tn  (setups are ints)
    setup_bounds = sorted(
        {2 * s for s in instance.setups if tn < 2 * s * td and s * td < tn}
    )
    candidates = [tmin] + [(b, 1) for b in setup_bounds] + [thi]
    A1, T1 = yield from right_interval_plan(candidates, memo, counted, "split", "", grid)
    # Partition (I_exp, I_chp) is constant on [A1, T1); evaluate it at A1.
    exp = tuple(
        i for i, s in enumerate(instance.setups) if 2 * s * A1[1] > A1[0]
    )

    if not exp:
        # No expensive classes: L_split constant on [A1, T1); the flip is
        # either T_new = L/m inside the interval or T1 itself.
        T = yield from _flip_on_constant_piece(instance, memo, counted, A1, T1)
        return T, counted[0]

    # ---- step 5: fastest jumping class f ------------------------------ #
    f = max(exp, key=lambda i: instance.processing(i))
    Pf2 = 2 * instance.processing(f)

    # ---- step 6: bisect over f's jumps 2P_f/k inside (A1, T1) --------- #
    # k-range of jumps strictly inside the interval: A1 < Pf2/k < T1.
    k_lo = max(1, pair_ceil(Pf2 * T1[1], T1[0]))
    if Pf2 * T1[1] >= k_lo * T1[0]:  # Pf2/k_lo >= T1
        k_lo += 1
    k_hi = (Pf2 * A1[1]) // A1[0]
    if k_hi >= k_lo and Pf2 * A1[1] <= k_hi * A1[0]:  # Pf2/k_hi <= A1
        k_hi -= 1
    lo_b, hi_b = A1, T1
    if k_hi >= k_lo:
        # candidate jumps are decreasing in k; build ascending candidate list
        jump_candidates = (
            [A1] + [norm_pair(Pf2, k) for k in range(k_hi, k_lo - 1, -1)] + [T1]
        )
        lo_b, hi_b = yield from right_interval_plan(
            jump_candidates, memo, counted, "split", "", grid
        )

    # ---- steps 7-8: collect the ≤ c jumps inside (lo_b, hi_b) --------- #
    inner: set[Pair] = set()
    for i in exp:
        Pi2 = 2 * instance.processing(i)
        if Pi2 <= 0:
            continue
        k_min = pair_ceil(Pi2 * hi_b[1], hi_b[0])
        if k_min > 0 and Pi2 * hi_b[1] >= k_min * hi_b[0]:  # Pi2/k_min >= hi_b
            k_min += 1
        k_max = (Pi2 * lo_b[1]) // lo_b[0] if lo_b[0] > 0 else 0
        if k_max > 0 and Pi2 * lo_b[1] <= k_max * lo_b[0]:  # Pi2/k_max <= lo_b
            k_max -= 1
        for k in range(max(k_min, 1), k_max + 1):
            inner.add(norm_pair(Pi2, k))
    # Lemma 3: at most one jump per class between consecutive f-jumps.
    assert len(inner) <= len(exp), "Lemma 3 violated: too many jumps in X"
    if inner:
        jump_list = [lo_b] + sorted(inner, key=pair_key) + [hi_b]
        T_fail, T_ok = yield from right_interval_plan(
            jump_list, memo, counted, "split", "", grid
        )
    else:
        T_fail, T_ok = lo_b, hi_b

    # ---- step 9: constant piece [T_fail, T_ok) ------------------------ #
    T = yield from _flip_on_constant_piece(instance, memo, counted, T_fail, T_ok)
    return T, counted[0]


def _flip_on_constant_piece(instance: Instance, memo, counted, T_fail: Pair, T_ok: Pair):
    """Step 9's case analysis on a jump-free right interval.

    ``L_split`` and ``m_exp`` are constant on ``[T_fail, T_ok)``; ``T_fail``
    is rejected and ``T_ok`` accepted.  The full ``(accepted, load,
    m_exp)`` verdict at ``T_fail`` comes back through a "verdict" probe
    (kernel-dispatched by the evaluator, unmemoized and uncounted exactly
    like the former raw ``core()`` call).
    """
    dual = (yield ProbeRequest("verdict", "split", "", (T_fail,)))[0]
    m = instance.m
    if m < dual.machines_exp:
        # the whole piece needs too many machines: everything < T_ok rejected
        return T_ok
    T_new = norm_pair(dual.load, m)
    if pair_cmp(T_new, T_ok) >= 0:
        # every T < T_ok has mT < L_split: rejected
        return T_ok
    # T_fail rejected by load ⟹ T_new = L/m > T_fail; accepted at T_new.
    assert pair_cmp(T_fail, T_new) < 0 < pair_cmp(T_ok, T_new)
    ok = yield from plan_accept(memo, counted, "split", "", T_new)
    assert ok
    return T_new
