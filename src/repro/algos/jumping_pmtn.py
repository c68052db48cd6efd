"""Class Jumping for preemptive scheduling (Algorithm 4, Theorem 6).

The goal is the exact acceptance flip ``T* = min{T : Theorem-5 test (γ
mode) accepts}``; the built schedule then has makespan ≤ (3/2)T* ≤
(3/2)·OPT.  Structure (cf. DESIGN.md, deviation #3):

1. **Base flip** ``T̃``: Class Jumping on the *monotone core* of the test —
   ``L_base(T) = P(J) + Σ_{I⁺exp} γ_i(T)s_i + Σ_{[c]∖I⁺exp} s_i`` and
   ``m′(T)``.  The γ machine count has the closed form
   ``γ_i(T) = max(1, ⌈2(s_i+P_i)/T⌉ − 2)`` (the §4.4 jump equation
   rearranged), so its jumps are ``2(s_i+P_i)/j`` and Lemma 5 bounds the
   jumps between consecutive jumps of the fastest class ``f`` (max
   ``s_f+P_f``) by one per class — exactly Algorithm 1 with ``s_i+P_i`` in
   place of ``P_i``.  ``L_base ≤ L_pmtn`` and both core functions are
   non-increasing, so *every* ``T < T̃`` is certifiably rejected.

2. **Piece scan** from ``T̃`` upward: between consecutive change points
   (membership boundaries ``2s_i, 4s_i, s_i+P_i, 4(s_i+P_i)/3``, star-job
   boundaries ``2(s_i+t_j)`` and γ-jumps) all sets are constant except the
   knapsack's unselected set, whose changes are located exactly by solving
   the density crossings ``s_i w_j(T) = s_j w_i(T)`` and the prefix-weight/
   capacity crossings ``S_k(T) = Y(T)`` — all *linear* equations in ``T``
   because weights and capacity are affine on a piece.  Each resulting
   stable subinterval has constant ``L_pmtn``, so the flip inside it is
   ``max(lo, L_pmtn/m)``.  The scan is exhaustive, hence the certificate
   "everything below the returned point is rejected" needs no monotonicity
   of the knapsack term (which genuinely is not monotone in corner cases).

The flip may be an *infimum that is not attained* (an open membership
boundary whose left endpoint is rejected while everything above accepts).
Then ``T_star`` is the infimum and ``T_witness`` an accepted point within
a relative ``2^{-40}`` of it; the schedule is built at the witness, so the
proven ratio is ``(3/2)(1+2^{-40})`` in that measure-zero corner and
exactly 3/2 otherwise.

The probe sequence lives in :func:`flip_plan_pmtn` (with the base flip
in :func:`base_flip_plan`), a resumable probe plan: :func:`find_flip_pmtn`
and :func:`repro.algos.api.solve_point` drive it against the shared
per-item :func:`~repro.algos.search.probe_evaluator` (whose fraction
branch reads the base core off :func:`_base_core`), and the xbatch
coordinator drives the same generator in lockstep with other items.

The plan runs on the scaled-integer tier: candidates, change points and
the affine-root solve all live on normalized ``(num, den)`` int pairs.
The affine slopes of the knapsack analysis are half-integers, so the
solve carries *doubled* slope coefficients (``|C*_i|`` instead of
``|C*_i|/2``) — the common factor 2 cancels in every root, and the
normalized pairs are canonical, so each stable point equals the historic
Fraction computation bit-for-bit.  Fractions appear only at the
evaluator's fraction-kernel branch, the one ``pmtn_dual_test`` structure
read per piece (it needs the full partition), and the returned results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from ..core.bounds import Variant, t_min
from ..core.fastnum import (
    DualContext,
    PmtnVerdict,
    as_pair,
    norm_pair,
    pair_add,
    pair_ceil,
    pair_cmp,
    pair_key,
    pair_mid,
    validate_kernel,
)
from ..core.instance import Instance
from ..core.numeric import Time, fast_fraction, frac_ceil
from ..core.schedule import Schedule
from .pmtn_general import pmtn_dual_schedule, pmtn_dual_test
from .search import (
    Pair,
    ProbeRequest,
    drive_plan,
    plan_accept,
    probe_evaluator,
    right_interval_plan,
)

#: relative witness offset for non-attained infima
_WITNESS_EPS = Fraction(1, 2**40)


@dataclass(frozen=True)
class PmtnJumpResult:
    T_star: Time            # infimum of accepted makespans
    T_witness: Time         # accepted point the schedule is built at
    schedule: Schedule
    accept_calls: int

    @property
    def ratio_bound(self) -> Fraction:
        return Fraction(3, 2) * self.T_witness / self.T_star  # T* ≥ T_min > 0


def gamma_closed(instance: Instance, T: Time, cls: int) -> int:
    """``γ_i(T) = max(1, ⌈2(s_i+P_i)/T⌉ − 2)`` (§4.4 jump equation)."""
    sp = 2 * (instance.setups[cls] + instance.processing(cls))
    return max(1, frac_ceil(Fraction(sp) / T) - 2)


def _base_core(instance: Instance, T: Time) -> tuple[Time, int]:
    """``(L_base(T), m′(T))`` — the monotone core of the Theorem-5 test."""
    half = T / 2
    load = Fraction(instance.total_processing)
    l = 0
    gsum = 0
    minus = 0
    for i in range(instance.c):
        s = instance.setups[i]
        if s > half:
            total = s + instance.processing(i)
            if total >= T:
                g = gamma_closed(instance, T, i)
                load += g * s
                gsum += g
                continue
            if total > 3 * T / 4:
                l += 1
            else:
                minus += 1
        load += s
    m_prime = l + gsum + (-(-minus // 2))
    return load, m_prime


def base_flip_plan(instance: Instance, tmin: Pair, thi: Pair, *, grid: bool = False):
    """Class Jumping on the monotone core (Algorithm 4 steps 2-7) as a plan.

    Returns ``T̃ = min{T ≥ tmin : base-accept}``; everything below is
    rejected by the full test too (``L_base ≤ L_pmtn``, ``m′`` shared).
    Probes are memoized, so endpoints shared across the bisection phases
    hit the kernel once; ``grid=True`` resolves each bisection with
    batched candidate blocks (identical flip — the base core is
    monotone).  Base probes were never counted in ``accept_calls``, so
    the plan keeps its own discarded counter.
    """
    memo: dict[tuple[int, int], bool] = {}
    uncounted = [0]

    if (yield from plan_accept(memo, uncounted, "pmtn_base", "", tmin)):
        return tmin

    # membership candidates that move classes across I+exp / I0exp / I-exp /
    # cheap (these change m' discontinuously and bound gamma's domain)
    pts: set[Pair] = set()
    for i in range(instance.c):
        s, P = instance.setups[i], instance.processing(i)
        for b in ((2 * s, 1), (s + P, 1), norm_pair(4 * (s + P), 3)):
            if pair_cmp(tmin, b) < 0 < pair_cmp(thi, b):
                pts.add(b)
    candidates = [tmin] + sorted(pts, key=pair_key) + [thi]
    A1, T1 = yield from right_interval_plan(
        candidates, memo, uncounted, "pmtn_base", "", grid
    )

    # fastest jumping class f among I+exp on the open interior
    mid = pair_mid(A1, T1)
    mn, md = mid
    exp_plus = [
        i
        for i in range(instance.c)
        # s > mid/2  and  s + P >= mid
        if 2 * instance.setups[i] * md > mn
        and (instance.setups[i] + instance.processing(i)) * md >= mn
    ]
    if not exp_plus:
        return (yield from _flip_constant_core(instance, A1, T1))

    f = max(exp_plus, key=lambda i: instance.setups[i] + instance.processing(i))
    SPf = 2 * (instance.setups[f] + instance.processing(f))
    k_lo = max(1, pair_ceil(SPf * T1[1], T1[0]))
    if SPf * T1[1] >= k_lo * T1[0]:  # SPf/k_lo >= T1
        k_lo += 1
    k_hi = (SPf * A1[1]) // A1[0]
    if k_hi >= k_lo and SPf * A1[1] <= k_hi * A1[0]:  # SPf/k_hi <= A1
        k_hi -= 1
    lo_b, hi_b = A1, T1
    if k_hi >= k_lo:
        jump_candidates = (
            [A1] + [norm_pair(SPf, k) for k in range(k_hi, k_lo - 1, -1)] + [T1]
        )
        lo_b, hi_b = yield from right_interval_plan(
            jump_candidates, memo, uncounted, "pmtn_base", "", grid
        )

    inner: set[Pair] = set()
    for i in exp_plus:
        SPi = 2 * (instance.setups[i] + instance.processing(i))
        k_min = max(1, pair_ceil(SPi * hi_b[1], hi_b[0]))
        if SPi * hi_b[1] >= k_min * hi_b[0]:  # SPi/k_min >= hi_b
            k_min += 1
        k_max = (SPi * lo_b[1]) // lo_b[0]
        if k_max >= k_min and SPi * lo_b[1] <= k_max * lo_b[0]:  # SPi/k_max <= lo_b
            k_max -= 1
        for k in range(k_min, k_max + 1):
            inner.add(norm_pair(SPi, k))
    assert len(inner) <= len(exp_plus), "Lemma 5 violated"
    if inner:
        lo_b, hi_b = yield from right_interval_plan(
            [lo_b] + sorted(inner, key=pair_key) + [hi_b],
            memo, uncounted, "pmtn_base", "", grid,
        )
    return (yield from _flip_constant_core(instance, lo_b, hi_b))


def _flip_constant_core(instance: Instance, T_fail: Pair, T_ok: Pair):
    """Step 9 analogue for the monotone core on a jump-free right interval.

    The ``(L_base, m′)`` pair at ``T_fail`` comes back through a
    "verdict" probe — unmemoized and uncounted, like the former raw
    ``base_core()`` call.
    """
    load, m_prime = (yield ProbeRequest("verdict", "pmtn_base", "", (T_fail,)))[0]
    if instance.m < m_prime:
        return T_ok
    T_new = norm_pair(load, instance.m)
    if pair_cmp(T_new, T_ok) >= 0:
        return T_ok
    assert pair_cmp(T_fail, T_new) < 0
    return T_new


# --------------------------------------------------------------------------- #
# exhaustive piece scan (knapsack-aware)
# --------------------------------------------------------------------------- #


def _change_points(instance: Instance, lo: Pair, hi: Pair) -> list[Pair]:
    """All points in ``(lo, hi)`` where the Theorem-5 data may change."""
    pts: set[Pair] = set()
    for i in range(instance.c):
        s, P = instance.setups[i], instance.processing(i)
        for b in (
            (2 * s, 1), (4 * s, 1), (s + P, 1), norm_pair(4 * (s + P), 3),
        ):
            if pair_cmp(lo, b) < 0 < pair_cmp(hi, b):
                pts.add(b)
        # gamma jumps 2(s+P)/j
        SP = 2 * (s + P)
        j0 = max(1, pair_ceil(SP * hi[1], hi[0]))
        j1 = (SP * lo[1]) // lo[0]
        for j in range(j0, j1 + 1):
            b = norm_pair(SP, j)
            if pair_cmp(lo, b) < 0 < pair_cmp(hi, b):
                pts.add(b)
        # star-job boundaries 2(s_i + t_j)
        for t in instance.jobs[i]:
            b = (2 * (s + t), 1)
            if pair_cmp(lo, b) < 0 < pair_cmp(hi, b):
                pts.add(b)
    return sorted(pts, key=pair_key)


def _density_cmp(a: tuple, b: tuple) -> int:
    """The knapsack greedy order on ``(key, s, W)`` with signed weight ``W``.

    ``W`` is the item's affine weight evaluated at the region midpoint and
    scaled by a common positive factor (``2·denominator``), so comparing
    ``−s/W`` by sign-normalized cross-multiplication reproduces the
    historic Fraction key ``(w==0, −s/w, −s, repr(key))`` exactly.
    """
    ka, sa, wa = a
    kb, sb, wb = b
    azero = wa == 0
    if azero != (wb == 0):
        return -1 if azero else 1
    if not azero:
        na, da = (-sa, wa) if wa > 0 else (sa, -wa)
        nb, db = (-sb, wb) if wb > 0 else (sb, -wb)
        lhs, rhs = na * db, nb * da
        if lhs != rhs:
            return -1 if lhs < rhs else 1
    if sa != sb:  # −s ascending ⟺ s descending
        return -1 if sa > sb else 1
    ra, rb = repr(ka), repr(kb)
    return 0 if ra == rb else (-1 if ra < rb else 1)


_density_key = cmp_to_key(_density_cmp)


def _knapsack_stable_points(instance: Instance, lo: Pair, hi: Pair) -> list[Pair]:
    """Points in ``(lo, hi)`` where the knapsack's unselected set can change.

    Preconditions: no membership/γ change point inside ``(lo, hi)``; then
    item weights ``w_i(T)`` and the capacity ``Y(T)`` are affine, so both
    density-order changes and prefix/capacity crossings are roots of linear
    equations.  All slopes are half-integers, so the solve runs on doubled
    integer coefficients (``w_i = (ws2_i·T + wc2_i)/2`` etc.); the factor
    2 cancels in every root.  The one Fraction boundary is the
    ``pmtn_dual_test`` structure read at the piece midpoint — it needs the
    full partition, not just a verdict.
    """
    mid = pair_mid(lo, hi)
    d = pmtn_dual_test(instance, fast_fraction(*mid), mode="gamma")
    if d.partition.is_nice:
        return []
    part = d.partition
    m, l = instance.m, d.l

    # doubled affine data: w_i(T) = (ws2·T + wc2)/2
    def affine_weight2(i: int) -> tuple[int, int]:
        stars = part.big_jobs(i)
        p_star = sum(int(instance.job_time(j)) for j in stars)
        # w_i = P(C_i) − [p_star − |C*|(T/2 − s_i)] = const + |C*|/2 · T
        wc2 = 2 * (instance.processing(i) - p_star - len(stars) * instance.setups[i])
        return len(stars), wc2

    # F(T) = (m−l)T − Σ_{I+exp}(γ s + P) − Σ_{I-exp ∪ I+chp}(s+P): γ constant here
    base_c = sum(
        d.counts[i] * instance.setups[i] + instance.processing(i) for i in part.exp_plus
    ) + sum(
        instance.setups[i] + instance.processing(i)
        for i in tuple(part.exp_minus) + tuple(part.chp_plus)
    )
    demand_star = int(d.demand_star)
    if not part.chp_star:
        # only the case boundary F(T) = demand (= 0) matters: below it the
        # dual rejects outright (F < L* = 0), above it case 3b applies.
        pts0: list[Pair] = []
        if m - l != 0:
            root = norm_pair(demand_star + base_c, m - l)
            if pair_cmp(lo, root) < 0 < pair_cmp(hi, root):
                pts0.append(root)
        return pts0
    # L*(T) = Σ_{I*}(s_i + p*_i − |C*_i|(T/2 − s_i)): slope −Σ|C*_i|/2
    lstar_slope2 = 0
    lstar_c = 0
    for i in part.chp_star:
        stars = part.big_jobs(i)
        lstar_slope2 -= len(stars)
        lstar_c += (
            instance.setups[i]
            + sum(int(instance.job_time(j)) for j in stars)
            + len(stars) * instance.setups[i]
        )
    y_slope2 = 2 * (m - l) - lstar_slope2
    y_c = -base_c - lstar_c

    items = [(i, instance.setups[i], *affine_weight2(i)) for i in part.chp_star]
    pts: set[Pair] = set()

    # case boundary 3a/3b: F(T) = demand_star  (F slope m−l, intercept −base_c)
    if m - l != 0:
        root = norm_pair(demand_star + base_c, m - l)
        if pair_cmp(lo, root) < 0 < pair_cmp(hi, root):
            pts.add(root)
    # capacity sign change: Y(T) = 0 with Y = (y_slope2·T + 2·y_c)/2
    if y_slope2 != 0:
        root = norm_pair(-2 * y_c, y_slope2)
        if pair_cmp(lo, root) < 0 < pair_cmp(hi, root):
            pts.add(root)

    # density crossings: s_i (wj_s T + wj_c) = s_j (wi_s T + wi_c)
    # (the common 1/2 of the doubled coefficients cancels)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            _, si, wis2, wic2 = items[a]
            _, sj, wjs2, wjc2 = items[b]
            num = sj * wic2 - si * wjc2
            den = si * wjs2 - sj * wis2
            if den != 0:
                root = norm_pair(num, den)
                if pair_cmp(lo, root) < 0 < pair_cmp(hi, root):
                    pts.add(root)

    # prefix/capacity crossings, per density-order region
    ws2_of = {key: ws2 for key, _, ws2, _ in items}
    wc2_of = {key: wc2 for key, _, _, wc2 in items}
    regions = [lo] + sorted(pts, key=pair_key) + [hi]
    for r_lo, r_hi in zip(regions, regions[1:]):
        rn, rd = pair_mid(r_lo, r_hi)
        # signed item weight at the midpoint, scaled by 2·rd > 0
        order = sorted(
            ((key, s, ws2 * rn + wc2 * rd) for key, s, ws2, wc2 in items),
            key=_density_key,
        )
        acc_s2, acc_c2 = 0, 0
        for key, _, _ in order:
            acc_s2 += ws2_of[key]
            acc_c2 += wc2_of[key]
            den2 = acc_s2 - y_slope2
            if den2 != 0:
                root = norm_pair(2 * y_c - acc_c2, den2)
                if pair_cmp(r_lo, root) < 0 < pair_cmp(r_hi, root):
                    pts.add(root)
    return sorted(pts, key=pair_key)


def find_flip_pmtn(
    instance: Instance,
    *,
    use_base_jump: bool = True,
    kernel: str = "fast",
    ctx: Optional[DualContext] = None,
    use_grid: bool = False,
) -> tuple[Time, Time, int]:
    """Exact flip of the Theorem-5 (γ) test: ``(T_star, T_witness, calls)``.

    ``use_base_jump=False`` disables the Class-Jumping acceleration and
    scans every piece from ``T_min`` — the slow reference used by tests and
    the ablation benchmark.  ``kernel`` selects the scaled-integer or the
    Fraction dual test for the accept/structure probes (identical
    decisions either way; the knapsack stable-point analysis reads one
    full ``pmtn_dual_test`` partition per piece on the exact reference).
    ``ctx`` injects a shared probe context (machine sweeps);
    ``use_grid=True`` batches the base-flip bisections through a
    one-member :class:`~repro.core.xbatch.BatchDualContext`.  All probes
    are memoized on the normalized ``(numerator, denominator)`` pair —
    the scan re-tests piece endpoints, so dedup saves real work here.
    """
    fast = validate_kernel(kernel)
    grid = use_grid and fast
    T_star, T_witness, calls = drive_plan(
        flip_plan_pmtn(instance, use_base_jump=use_base_jump, grid=grid),
        probe_evaluator(instance, fast=fast, ctx=ctx, grid=grid),
    )
    return fast_fraction(*T_star), fast_fraction(*T_witness), calls


def flip_plan_pmtn(instance: Instance, *, use_base_jump: bool = True, grid: bool = False):
    """Algorithm 4 + piece scan as a plan; returns ``(T*, witness, calls)``.

    γ-test probes are memoized as full verdicts (``accept`` is the
    verdict's flag, so re-testing an endpoint is free) and counted; the
    base flip's probes ride through :func:`base_flip_plan` uncounted.
    The knapsack stable-point analysis stays inline plan computation —
    pair arithmetic plus one reference partition read per piece.
    """
    memo: dict[tuple[int, int], PmtnVerdict] = {}
    counted = [0]

    def probe(T: Pair):
        """(accepted, load, m', case, y_neg) of the γ test at ``T`` (memoized)."""
        key = norm_pair(*T)
        v = memo.get(key)
        if v is None:
            counted[0] += 1
            v = (yield ProbeRequest("verdict", "pmtn", "gamma", (key,)))[0]
            memo[key] = v
        return v

    tn, td = as_pair(t_min(instance, Variant.PREEMPTIVE))
    tmin = (tn, td)
    thi = norm_pair(2 * tn, td)
    if (yield from probe(tmin)).accepted:
        return tmin, tmin, counted[0]

    if use_base_jump:
        t_base = yield from base_flip_plan(instance, tmin, thi, grid=grid)
    else:
        t_base = tmin

    # exhaustive left-to-right scan from the certified frontier
    points = [t_base] + _change_points(instance, t_base, thi) + [thi]
    for idx, p in enumerate(points):
        if p != tmin and (yield from probe(p)).accepted:
            return p, p, counted[0]
        if idx + 1 >= len(points):
            break
        q = points[idx + 1]
        stable = [p] + _knapsack_stable_points(instance, p, q) + [q]
        for a, b in zip(stable, stable[1:]):
            if a != p and (yield from probe(a)).accepted:
                return a, a, counted[0]
            mid = pair_mid(a, b)
            d = yield from probe(mid)
            if instance.m < d.machines_needed:
                continue
            if d.case == "trivial":
                continue
            if d.y_negative:
                continue  # Y < 0 on the whole subinterval: rejected
            flip = norm_pair(d.load, instance.m)
            if pair_cmp(flip, a) <= 0:
                # the whole open interval (a, b) is accepted: infimum a not
                # attained (a itself was rejected above)
                half_gap = norm_pair(b[0] * a[1] - a[0] * b[1], 2 * a[1] * b[1])
                eps_off = norm_pair(a[0], a[1] * 2**40)
                off = half_gap if pair_cmp(half_gap, eps_off) <= 0 else eps_off
                witness = pair_add(a, off)
                assert (yield from probe(witness)).accepted
                return a, witness, counted[0]
            if pair_cmp(flip, b) < 0:
                assert (yield from probe(flip)).accepted
                return flip, flip, counted[0]
    assert (yield from probe(thi)).accepted
    return thi, thi, counted[0]


def three_halves_preemptive(
    instance: Instance,
    *,
    kernel: str = "fast",
    ctx: Optional[DualContext] = None,
    use_grid: bool = False,
) -> PmtnJumpResult:
    """Theorem 6 — 3/2-approximation for ``P|pmtn,setup=s_i|Cmax``."""
    T_star, T_witness, calls = find_flip_pmtn(
        instance, kernel=kernel, ctx=ctx, use_grid=use_grid
    )
    schedule = pmtn_dual_schedule(instance, T_witness, mode="gamma", kernel=kernel)
    return PmtnJumpResult(
        T_star=T_star, T_witness=T_witness, schedule=schedule, accept_calls=calls
    )
