"""Scaled-integer fast kernel for the dual-test hot path.

The per-``T`` dual tests of Theorems 5, 7 and 9 are probed ``O(log)`` times
per solve by the binary searches and Class Jumping.  The reference
implementations (:mod:`repro.algos.splittable` /
:mod:`repro.algos.pmtn_general` / :mod:`repro.algos.nonpreemptive`)
manipulate :class:`fractions.Fraction` throughout, paying an object
allocation plus a gcd normalization per arithmetic step.  This module
re-derives the same accept/reject decisions on machine integers.

**Representation.**  A makespan guess ``T = tn/td`` is carried as the exact
integer pair ``(tn, td)`` — its :class:`~fractions.Fraction`
numerator/denominator — and every derived quantity is pre-multiplied by the
scale ``td`` (or ``2·td`` where half-``T`` resolution is needed), making it
an exact machine integer:

* ``T − s_i``       →  ``tn − s_i·td``
* ``T/2`` vs ``s_i``→  ``tn`` vs ``2·s_i·td``
* ``α_i = ⌈P_i/(T−s_i)⌉`` → ``ceil_div(P_i·td, tn − s_i·td)``
* ``m·T ≥ L``       →  ``m·tn ≥ L·td``      (``L`` is always an integer)

Comparisons become integer cross-multiplications, so the accept/reject
boundary is **bit-exact** against the Fraction reference — proven by the
differential suite (``tests/test_fastnum_differential.py``) on every
generator-suite instance.  A fixed per-solve scale (e.g. ``D = 2m``) would
*not* be exact: Class-Jumping candidates ``2P_i/k`` have denominators ``k ≤
2m`` that need not divide ``2m``, and ε-search midpoints pick up powers of
two — hence the per-``T`` denominator.

The kernels read the :class:`~repro.core.instance.Instance` itself: its
integer aggregates (``P(C_i)``, ``s_i``, ``t^(i)_max``) and the per-class
sorted job views with prefix sums (:meth:`Instance.class_jobs_sorted
<repro.core.instance.Instance.class_jobs_sorted>`, built once per class
and cached) that turn the per-class job scans of the
preemptive/non-preemptive tests into ``O(log n_i)`` bisections.

**Class tables.**  Most classes of a non-preemptive or preemptive probe
contribute a term that is fixed once ``T/2`` and ``T/4`` are known: one
setup and no machine (Theorem 9 with ``s_i + t^(i)_max ≤ T/2``; every
cheap class of Theorem 5) or ``s_i + P_i`` to the base (``I⁺chp``).  Two
``m``-free class orders, sorted once per instance and cached
(:func:`spt_table`, :func:`setup_table`), turn those groups into
bisections plus prefix sums, so after the one-time ``O(c log c)`` build a
probe of :func:`fast_nonp_test` or :func:`fast_pmtn_test` costs ``O(log
c)`` plus a loop over the ``c'`` classes with ``s_i + t^(i)_max > T/2``
only.  :func:`fast_split_test` and :func:`fast_base_core` stay ``O(c)``
loops.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate
from math import gcd
from operator import add
from typing import NamedTuple

from .bounds import setup_plus_tmax
from .instance import Instance

__all__ = [
    "SplitVerdict",
    "NonpVerdict",
    "PmtnVerdict",
    "as_pair",
    "norm_pair",
    "pair_add",
    "pair_sub",
    "pair_mul",
    "pair_mid",
    "pair_cmp",
    "pair_key",
    "pair_ceil",
    "round_half_even",
    "ceil_div",
    "spt_table",
    "setup_table",
    "fast_split_test",
    "fast_nonp_test",
    "fast_pmtn_test",
    "fast_base_core",
    "count_core",
    "knapsack_order_cmp",
    "validate_kernel",
]


def validate_kernel(kernel: str) -> bool:
    """Check a ``kernel=`` argument; returns True iff it is ``"fast"``.

    Every public entry point that dispatches on the kernel name calls
    this, so a typo'd kernel raises instead of silently running the slow
    reference path.
    """
    if kernel not in ("fast", "fraction"):
        raise ValueError(f"unknown kernel {kernel!r}; expected 'fast' or 'fraction'")
    return kernel == "fast"


def knapsack_order_cmp(a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """Greedy order for ``(key, profit, scaled_weight)`` int triples.

    Mirrors ``knapsack._greedy_order`` exactly: zero-weight items first,
    then profit density descending, profit descending, ``repr(key)``
    ascending — including the *string* ordering of the repr tie-break.
    The density ``p/w`` is compared by cross-multiplication after moving
    each weight's sign onto its profit, so a weight may be negative (the
    piece scan of :mod:`repro.algos.jumping_pmtn` orders affine weights
    read at a region midpoint).  Weights may be pre-multiplied by any
    common positive scale; the order is scale-invariant.
    """
    ia, pa, wa = a
    ib, pb, wb = b
    if (wa == 0) != (wb == 0):
        return -1 if wa == 0 else 1
    if wa != 0:
        na, da = (pa, wa) if wa > 0 else (-pa, -wa)
        nb, db = (pb, wb) if wb > 0 else (-pb, -wb)
        lhs, rhs = na * db, nb * da  # density cross-multiplication
        if lhs != rhs:
            return -1 if lhs > rhs else 1
    if pa != pb:
        return -1 if pa > pb else 1
    ra, rb = repr(ia), repr(ib)
    return 0 if ra == rb else (-1 if ra < rb else 1)


def as_pair(T) -> tuple[int, int]:
    """``T`` as an exact ``(numerator, denominator)`` integer pair."""
    if isinstance(T, int):
        return T, 1
    if isinstance(T, Fraction):
        return T.numerator, T.denominator
    raise TypeError(f"expected int or Fraction, got {type(T).__name__}: {T!r}")


# --------------------------------------------------------------------------- #
# normalized rational pairs — the plan tier's number type
# --------------------------------------------------------------------------- #
#
# The probe plans (repro.algos.search and the flip searches) carry makespan
# candidates as gcd-normalized ``(num, den)`` int pairs with ``den > 0``.
# Normalized pairs are *canonical*: two exact computations of the same
# rational yield the same pair, so plan-level arithmetic on pairs produces
# probe values, memo keys and dedup behaviour bit-identical to the historic
# Fraction plans — without one Fraction allocation per arithmetic step.
# ``fast_fraction(num, den)`` (repro.core.numeric) is the one boundary where
# a pair becomes a Fraction again.


def norm_pair(num: int, den: int) -> tuple[int, int]:
    """Canonical ``(num, den)``: lowest terms, ``den > 0`` (sign on num)."""
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g > 1:
        return num // g, den // g
    return num, den


def pair_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Exact ``a + b`` on pairs, normalized."""
    an, ad = a
    bn, bd = b
    return norm_pair(an * bd + bn * ad, ad * bd)


def pair_sub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Exact ``a − b`` on pairs, normalized."""
    an, ad = a
    bn, bd = b
    return norm_pair(an * bd - bn * ad, ad * bd)


def pair_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Exact ``a · b`` on pairs, normalized."""
    an, ad = a
    bn, bd = b
    return norm_pair(an * bn, ad * bd)


def pair_mid(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Exact midpoint ``(a + b)/2`` on pairs, normalized."""
    an, ad = a
    bn, bd = b
    return norm_pair(an * bd + bn * ad, 2 * ad * bd)


def pair_cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Three-way compare of two pairs with positive denominators."""
    lhs = a[0] * b[1]
    rhs = b[0] * a[1]
    if lhs == rhs:
        return 0
    return -1 if lhs < rhs else 1


#: ``sorted(pairs, key=pair_key)`` orders pairs by rational value — tuple
#: order on raw pairs would compare numerators first, which is wrong.
pair_key = cmp_to_key(pair_cmp)


def pair_ceil(num: int, den: int) -> int:
    """``⌈num/den⌉`` for a pair with ``den > 0`` (``frac_ceil`` on pairs)."""
    return -((-num) // den)


def round_half_even(num: int, den: int) -> int:
    """``round(num/den)`` with banker's rounding, ``den > 0``.

    Bit-identical to ``round(Fraction(num, den))`` (CPython rounds the
    floor remainder half-to-even), which the grid-bisection stride logic
    historically used to place candidate indices.
    """
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        return q + 1
    return q


def ceil_div(num: int, den: int) -> int:
    """Exact ``⌈num/den⌉`` for integers, ``den > 0``."""
    return -((-num) // den)


def spt_table(instance: Instance) -> tuple[list[int], list[int], list[int]]:
    """Classes by ``s_i + t_max^i`` ascending: ``(order, keys, setup_prefix)``.

    ``keys[k]`` is ``s + t_max`` of class ``order[k]`` and
    ``setup_prefix[k]`` the setup sum of ``order[:k]`` (``c + 1``
    entries).  For a threshold ``h`` the classes with ``s_i + t_max^i ≤
    h`` are ``order[:bisect_right(keys, h)]``.  Machine-count free, so it
    is kept in the shared misc cache (inherited by cache-sharing
    ``with_machines`` copies, dropped by ``release_caches``); one sort and
    C-level passes build it.
    """
    table = instance._misc_cache.get("spt_table")
    if table is None:
        setups = instance.setups
        spt = list(map(add, setups, instance.class_tmax))
        order = sorted(range(len(spt)), key=spt.__getitem__)
        table = (
            order,
            list(map(spt.__getitem__, order)),
            list(accumulate(map(setups.__getitem__, order), initial=0)),
        )
        instance._misc_cache["spt_table"] = table
    return table


def setup_table(instance: Instance) -> tuple[list[int], list[int], list[int]]:
    """Classes by setup ascending: ``(setups, setup_prefix, sp_prefix)``.

    ``setups`` holds the sorted setups; ``setup_prefix[k]`` and
    ``sp_prefix[k]`` are the sums of ``s_i`` and of ``s_i + P_i`` over its
    first ``k`` classes (``c + 1`` entries each).  For integer thresholds
    ``q ≤ h`` the classes with ``s_i ≤ h`` are positions ``[0,
    bisect_right(setups, h))`` and those with ``q ≤ s_i ≤ h`` start at
    ``bisect_left(setups, q)``.  Cached like :func:`spt_table`.
    """
    table = instance._misc_cache.get("setup_table")
    if table is None:
        setups = instance.setups
        order = sorted(range(len(setups)), key=setups.__getitem__)
        ordered = list(map(setups.__getitem__, order))
        table = (
            ordered,
            list(accumulate(ordered, initial=0)),
            list(accumulate(
                map(add, ordered, map(instance.class_processing.__getitem__, order)),
                initial=0,
            )),
        )
        instance._misc_cache["setup_table"] = table
    return table


# --------------------------------------------------------------------------- #
# splittable (Theorem 7)
# --------------------------------------------------------------------------- #


class SplitVerdict(NamedTuple):
    """Integer outcome of the Theorem-7 test: mirrors ``SplitDual``."""

    accepted: bool
    load: int          # L_split(T) — always an integer
    machines_exp: int  # m_exp(T)


def fast_split_test(instance: Instance, tn: int, td: int) -> SplitVerdict:
    """Theorem 7(i) on ``T = tn/td`` in pure integers, O(c)."""
    load = instance.total_processing
    m_exp = 0
    setups, P = instance.setups, instance.class_processing
    for i in range(len(setups)):
        s = setups[i]
        if 2 * s * td > tn:  # expensive: s_i > T/2
            b = ceil_div(2 * P[i] * td, tn)  # β_i = ⌈2P_i/T⌉
            load += b * s
            m_exp += b
        else:
            load += s
    accepted = instance.m * tn >= load * td and instance.m >= m_exp
    return SplitVerdict(accepted, load, m_exp)


# --------------------------------------------------------------------------- #
# non-preemptive (Theorem 9)
# --------------------------------------------------------------------------- #


class NonpVerdict(NamedTuple):
    """Integer outcome of the Theorem-9 test: mirrors ``NonpDual``."""

    accepted: bool
    load: int           # L_nonp(T)
    machines_needed: int  # m'


def fast_nonp_test(instance: Instance, tn: int, td: int) -> NonpVerdict:
    """Theorem 9(i) on ``T = tn/td``: O(log c + c' log n_i) after the tables.

    A class with ``s_i + t_max^i ≤ T/2`` has ``J⁺ = K = ∅``: it needs no
    machine and pays one setup (its residual ``x_i = P_i > 0``), so that
    whole group is one bisection of :func:`spt_table` and one prefix sum.
    Only the ``c'`` classes above it are visited.
    """
    if tn < setup_plus_tmax(instance) * td:  # Note 2: T < max_i(s_i + t_max^i) < OPT
        return NonpVerdict(False, instance.total_load, instance.m + 1)
    order, keys, setup_prefix = spt_table(instance)
    half = tn // (2 * td)  # s > T/2 ⟺ s > half for integer s (same for t)
    k = bisect_right(keys, half)
    load = instance.total_processing + setup_prefix[k]
    m_prime = 0
    setups, P = instance.setups, instance.class_processing
    sorted_view = instance.class_jobs_sorted
    for i in order[k:]:
        s = setups[i]
        cap = tn - s * td  # (T − s_i) · td  — positive since T ≥ s_i + t_max^i
        p = P[i] * td
        if s > half:  # expensive: m_i = α_i = ⌈P_i/(T−s_i)⌉
            m_i = ceil_div(p, cap)
        else:
            # cheap: m_i = |C_i∩J⁺| + ⌈P(C_i∩K)/(T−s_i)⌉ with
            # J⁺ = {t > T/2}, K = {t ≤ T/2, s+t > T/2}.
            ts, prefix = sorted_view(i)
            cut = bisect_right(ts, half)
            k_weight = prefix[cut] - prefix[bisect_right(ts, half - s)]
            m_i = len(ts) - cut + (ceil_div(k_weight * td, cap) if k_weight else 0)
        load += m_i * s
        if p > m_i * cap:  # x_i > 0: residual pays one more setup
            load += s
        m_prime += m_i
    accepted = instance.m * tn >= load * td and instance.m >= m_prime
    return NonpVerdict(accepted, load, m_prime)


# --------------------------------------------------------------------------- #
# preemptive (Theorems 4/5, α and γ counting)
# --------------------------------------------------------------------------- #


class PmtnVerdict(NamedTuple):
    """Integer outcome of the Theorem-5 test: mirrors ``PmtnDual``."""

    accepted: bool
    load: int             # L_pmtn(T) (resp. L_nice / total_load for nice/trivial)
    machines_needed: int  # m'
    case: str             # "trivial" | "nice" | "3a" | "3b"
    y_negative: bool      # case 3a's "F < L*" rejection


def count_core(mode: str, t_sc: int, s_sc: int, p_sc: int) -> int:
    """``κ_i`` on pre-scaled integers ``(T, s_i, P)·D`` for any scale ``D``.

    The α′/γ formulas are ratios, hence scale-invariant; factoring them
    out lets the view-based constructions (whose item lengths carry their
    own common denominator) share one implementation with the per-``T``
    dual tests.
    """
    if mode == "alpha":
        return max(1, p_sc // (t_sc - s_sc))
    bp = (2 * p_sc) // t_sc  # β′ = ⌊2P/T⌋
    # P − β′·T/2 ≤ T − s  ⟺  2·P·D − β′·T·D ≤ 2·(T·D − s·D)
    if 2 * p_sc - bp * t_sc <= 2 * (t_sc - s_sc):
        return max(bp, 1)
    return ceil_div(2 * p_sc, t_sc)


def fast_pmtn_test(instance: Instance, tn: int, td: int, mode: str = "alpha") -> PmtnVerdict:
    """Theorem 5(i) on ``T = tn/td`` in pure integers.

    Replicates ``pmtn_dual_test`` decision-for-decision, including the
    continuous-knapsack selection of case 3a (same greedy order and the same
    tie-breaks, with weights/capacity scaled by ``2·td``).  Every cheap
    class pays exactly one setup and every ``I⁺chp`` class adds ``s_i +
    P_i`` to the base, so both groups are bisections of
    :func:`setup_table` plus prefix sums; only the ``c'`` classes with
    ``s_i + t_max^i > T/2`` (:func:`spt_table`) are visited — the
    expensive ones and ``I⁻chp`` with ``C*_i ≠ ∅``: O(log c + c') after
    the tables, plus O(log n_i) per ``I*chp`` class off the nice case.
    """
    if tn < setup_plus_tmax(instance) * td:  # Note 1
        return PmtnVerdict(False, instance.total_load, 0, "trivial", False)

    m, setups, P = instance.m, instance.setups, instance.class_processing
    half = tn // (2 * td)           # s > T/2 ⟺ s > half for integer s
    quarter = -((-tn) // (4 * td))  # s ≥ T/4 ⟺ s ≥ quarter
    by_setup, setup_prefix, sp_prefix = setup_table(instance)
    n_cheap = bisect_right(by_setup, half)  # s_i ≤ T/2
    load = instance.total_processing + setup_prefix[n_cheap]  # one setup per cheap class
    # Σ_{I⁺exp}(κ_i s_i + P_i) + Σ_{I⁻exp ∪ I⁺chp}(s_i + P_i), I⁺chp: T/4 ≤ s_i ≤ T/2
    base = sp_prefix[n_cheap] - sp_prefix[bisect_left(by_setup, quarter)]
    n_minus = 0
    l = 0
    chp_star: list[int] = []
    star_total = 0  # Σ_{I*chp}(s_i + P_i)
    counts_sum = 0

    order, keys, _ = spt_table(instance)
    for i in order[bisect_right(keys, half):]:
        s = setups[i]
        if s > half:  # expensive
            total = s + P[i]
            if total * td >= tn:  # I⁺exp
                k = count_core(mode, tn, s * td, P[i] * td)
                load += k * s
                counts_sum += k
                base += k * s + P[i]
            elif 4 * total * td > 3 * tn:  # I⁰exp
                l += 1
                load += s
            else:  # I⁻exp
                n_minus += 1
                load += s
                base += total
        elif s < quarter:  # I⁻chp with C*_i ≠ ∅ (I⁺chp is in the sums)
            chp_star.append(i)
            star_total += s + P[i]

    m_prime = l + counts_sum + ceil_div(n_minus, 2)

    if l == 0:  # nice: Theorem 4's test (identical load/count formulas)
        accepted = m * tn >= load * td and m >= m_prime
        return PmtnVerdict(accepted, load, m_prime, "nice", False)

    # F·2td and demand_star·2td (integer): eq. (3) and Section 4.2.
    F2 = 2 * (m - l) * tn - 2 * base * td
    if F2 >= 2 * td * star_total:  # case 3b — all of I*chp fits outside
        accepted = m * tn >= load * td and m >= m_prime
        return PmtnVerdict(accepted, load, m_prime, "3b", False)

    # case 3a: L*·2td needs C*_i = {t > T/2 − s_i} from the sorted views.
    lstar2 = 0    # 2td·Σ_{I*chp}(s_i + L*_i)
    star_data: list[tuple[int, int, int]] = []  # (cls, |C*_i|, p*_i)
    sorted_view = instance.class_jobs_sorted
    for i in chp_star:
        s = setups[i]
        ts, prefix = sorted_view(i)
        cut = bisect_right(ts, half - s)
        cnt, p_star = len(ts) - cut, prefix[-1] - prefix[cut]
        star_data.append((i, cnt, p_star))
        lstar2 += 2 * td * (s + p_star) - cnt * (tn - 2 * s * td)
    Y2 = F2 - lstar2
    if Y2 < 0:
        return PmtnVerdict(False, load, m_prime, "3a", True)

    # Continuous knapsack at scale 2td: profit s_i, weight
    # W_i = 2td·(P_i − L*_i) = 2td·(P_i − p*_i) + |C*_i|·(tn − 2 s_i td).
    items = [
        (i, setups[i], 2 * td * (P[i] - p_star) + cnt * (tn - 2 * setups[i] * td))
        for i, cnt, p_star in star_data
    ]
    items.sort(key=cmp_to_key(knapsack_order_cmp))
    remaining = Y2
    if remaining <= 0:
        unselected_setups = sum(p for _, p, _ in items)
    else:
        unselected_setups = 0
        for idx, (_, profit, weight) in enumerate(items):
            if remaining <= 0:
                unselected_setups += sum(p for _, p, _ in items[idx:])
                break
            if weight <= remaining:
                remaining -= weight
            else:  # split item e: 0 < x_e < 1 — neither selected nor unselected
                unselected_setups += sum(p for _, p, _ in items[idx + 1:])
                break
    load += unselected_setups
    accepted = m * tn >= load * td and m >= m_prime
    return PmtnVerdict(accepted, load, m_prime, "3a", False)


def fast_base_core(instance: Instance, tn: int, td: int) -> tuple[int, int]:
    """``(L_base, m′)`` — the monotone core of Algorithm 4 (int-only)."""
    load = instance.total_processing
    l = 0
    gsum = 0
    minus = 0
    setups, P = instance.setups, instance.class_processing
    for i in range(len(setups)):
        s = setups[i]
        if 2 * s * td > tn:
            total = s + P[i]
            if total * td >= tn:
                # γ_i = max(1, ⌈2(s_i+P_i)/T⌉ − 2)
                g = max(1, ceil_div(2 * total * td, tn) - 2)
                load += g * s
                gsum += g
                continue
            if 4 * total * td > 3 * tn:
                l += 1
            else:
                minus += 1
        load += s
    return load, l + gsum + ceil_div(minus, 2)
