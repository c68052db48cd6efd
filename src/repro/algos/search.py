"""Dual-approximation search routines (Theorems 2 and 8) and references.

A ρ-dual approximation (Hochbaum–Shmoys) takes the input and a makespan
``T`` and either builds a feasible schedule with makespan ≤ ρT or *rejects*
``T``, certifying ``T < OPT``.  Each variant provides such a dual with
ρ = 3/2; this module turns them into approximation algorithms:

* :func:`binary_search_dual` — Theorem 2: bisect ``[T_min, 2T_min]`` for
  ``O(log 1/ε)`` rounds; the returned ``T`` satisfies ``T ≤ (1+ε)·OPT``,
  hence ratio ``(3/2)(1+ε)``.
* :func:`integer_probe_plan` — Theorem 8: for the non-preemptive problem
  ``OPT ∈ N``, so bisecting integers finds ``T ≤ OPT`` *exactly* in
  ``O(log T_min) = O(log(n+Δ))`` accept-tests; ratio exactly 3/2.
* :func:`right_interval_plan` — the primitive behind Class Jumping: given
  candidates ``c_0 < … < c_k`` with ``c_0`` rejected and ``c_k`` accepted,
  find an adjacent rejected/accepted pair.
* :func:`slow_flip_splittable` — an O(#pieces) reference computation of the
  exact acceptance flip point ``T* = min{T : accepted}`` for the splittable
  dual, used to cross-validate Algorithm 1 in tests and ablations.

The searches are *probe plans* (generators, see below) and
kernel-agnostic: one per-item evaluator, :func:`probe_evaluator`,
answers every plan's requests on either the scaled-integer kernel
(:mod:`repro.core.fastnum`, default) or the Fraction reference tests,
and :func:`accept_flags` reads accept bits off the verdicts for it and
for the lockstep coordinator alike.  Every probed ``T`` is an exact
rational, so both kernels see identical probe sequences and return
identical results.  :func:`binary_search_dual` keeps Theorem 2's
black-box form: its ``accept`` is any caller-supplied predicate.

Two batching hooks sit on top of that contract:

* :func:`right_interval_plan` with ``grid=True`` evaluates whole
  candidate blocks (``"accept_block"`` requests, :data:`GRID_BLOCK`
  candidates each) instead of ``O(log k)`` sequential probes and locates
  the flip by scanning the returned bits — ``O(log_B k)`` block calls.
  The splittable and preemptive flip searches answer those blocks
  through :meth:`repro.core.xbatch.BatchDualContext.evaluate`.  For the
  monotone accept predicates the flip searches are built on, the result
  is identical to the sequential bisection.
* the plans memoize their probes (:func:`plan_accept` /
  :func:`plan_accept_block`, keyed on the gcd-normalized ``(numerator,
  denominator)`` pair, so equal rationals written in different forms can
  never double-probe): the multi-phase flip searches re-test interval
  endpoints across phases — with the memo each distinct ``T`` hits the
  kernel once.

Since PR 9 the probe *plans* themselves run on the scaled-integer tier:
candidates travel as normalized ``(num, den)`` int pairs
(:func:`repro.core.fastnum.norm_pair` — canonical per rational, so pair
arithmetic reproduces the historic Fraction plans' probe values, memo
keys and dedup bit-for-bit), and :class:`fractions.Fraction` objects are
built only at the boundaries: the caller-supplied ``accept`` callable
(:func:`_black_box_evaluator`), the fraction-kernel branch of
:func:`probe_evaluator`, and the results the drivers return.

Every probe loop additionally polls :func:`repro.core.cancel.
check_cancelled` between dual tests: a solve running under a
``cancel_scope`` (the service installs one per request to enforce
``timeout_ms``) aborts with :class:`~repro.core.cancel.SolveCancelled`
at the next probe boundary.  The poll never changes a probe, so results
are bit-identical whenever the token does not fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from ..core.bounds import Variant, t_min
from ..core.cancel import check_cancelled
from ..core.fastnum import (
    DualContext,
    NonpVerdict,
    PmtnVerdict,
    SplitVerdict,
    as_pair,
    norm_pair,
    pair_ceil,
    pair_cmp,
    pair_mid,
    pair_mul,
    pair_sub,
    round_half_even,
)
from ..core.instance import Instance
from ..core.numeric import Time, TimeLike, fast_fraction, frac_ceil
from ..core.schedule import Schedule
from ..core.xbatch import BatchDualContext
from ..obs.trace import count as obs_count, count_probe as obs_count_probe

AcceptFn = Callable[[Time], bool]
BuildFn = Callable[[Time], Schedule]

#: A normalized ``(num, den)`` rational — the plan tier's number type.
Pair = tuple[int, int]

#: Candidate-block size for chunked grid bisection: one block call replaces
#: ``log2`` scalar round-trips, and ranges up to ``B^2`` resolve in two calls.
GRID_BLOCK = 128

_MISSING = object()


# --------------------------------------------------------------------------- #
# probe plans — resumable searches for the cross-instance coordinator
# --------------------------------------------------------------------------- #
#
# A *plan* is a generator that encodes one search's probe sequence: it
# yields ProbeRequest values, receives the corresponding verdict list via
# ``send``, and returns its result through StopIteration.  The sequential
# drivers (repro.algos.api.solve_point, binary_search_dual, the flip
# searches in jumping_split / jumping_pmtn) drive these same plans
# against a per-item evaluator, while the xbatch coordinator
# (repro.algos.batch_api, xbatch=True) advances many items' plans in
# lockstep rounds and fuses each round's requests into one
# repro.core.xbatch kernel call.  Because both paths run the identical
# generator, an item's probe sequence under lockstep equals its solo
# sequence *by construction* — the bit-identity the differential fuzz
# suite (tests/test_xbatch.py) pins.
#
# Division of labour: plans own probe *memoization* (only cache misses are
# yielded) and the ``accept_calls`` bookkeeping; evaluators own kernel
# dispatch and the cancellation poll (one check_cancelled per
# "accept"/"accept_block" request — "verdict" requests mirror the raw
# core()/probe() calls of the sequential code, which never polled).


class ProbeRequest(NamedTuple):
    """One batch of same-kind dual-test probes a plan needs answered.

    ``op`` is ``"accept"`` (scalar probes of the memoized accept
    predicate), ``"accept_block"`` (a grid-bisection candidate block), or
    ``"verdict"`` (full dual verdicts — SplitVerdict / PmtnVerdict /
    ``(load, m')`` — for the constant-piece case analyses).  ``kind``
    names the dual test (``split`` / ``nonp`` / ``pmtn`` / ``pmtn_base``)
    and ``mode`` the preemptive counting mode; sequential drivers that
    already close over their kernel ignore both.  ``times`` holds the
    probed candidates as normalized ``(num, den)`` pairs — the scaled-int
    evaluators feed them to the kernels directly, the black-box boundary
    rebuilds Fractions.  The response sent back into the plan must be a
    sequence aligned with ``times``.
    """

    op: str
    kind: str
    mode: str
    times: tuple[Pair, ...]


def drive_plan(plan, evaluate):
    """Run a probe plan to completion against ``evaluate(request)``.

    The single sequential chokepoint every plan-driven probe crosses,
    so an armed :class:`repro.obs.trace.TraceScope` counts probe volume
    per ``(kind, mode)`` here; disarmed, the hook is one thread-local
    read per request and the probe stream is untouched either way.
    """
    response = None
    try:
        while True:
            req = plan.send(response)
            obs_count_probe(req.kind, req.mode, len(req.times))
            response = evaluate(req)
    except StopIteration as stop:
        return stop.value


def plan_accept(memo, counted, kind, mode, T: Pair):
    """Memoized scalar accept probe.

    Keys are gcd-normalized, so a caller handing in an unreduced pair
    still shares its memo entry with the canonical form.
    """
    key = norm_pair(*T)
    hit = memo.get(key, _MISSING)
    if hit is not _MISSING:
        obs_count("memo.hit")
        return hit
    flags = yield ProbeRequest("accept", kind, mode, (key,))
    verdict = bool(flags[0])
    memo[key] = verdict
    counted[0] += 1
    obs_count("memo.call")
    return verdict


def plan_accept_block(memo, counted, kind, mode, cands: Sequence[Pair]):
    """Grid-block accept sharing the plan's memo; only misses are yielded."""
    keys = [norm_pair(*T) for T in cands]
    unknown = [T for T in keys if memo.get(T, _MISSING) is _MISSING]
    if len(unknown) < len(keys):
        obs_count("memo.hit", len(keys) - len(unknown))
    if unknown:
        flags = yield ProbeRequest("accept_block", kind, mode, tuple(unknown))
        counted[0] += len(unknown)
        obs_count("memo.call", len(unknown))
        for T, verdict in zip(unknown, flags):
            memo[T] = bool(verdict)
    return [memo[T] for T in keys]


def right_interval_plan(
    candidates: Sequence[Pair], memo, counted, kind: str, mode: str, grid: bool
):
    """Find adjacent ``(c_j, c_{j+1}]`` with ``c_j`` rejected, ``c_{j+1}`` accepted.

    The caller guarantees ``candidates[0]`` is rejected and
    ``candidates[-1]`` accepted.  Needs ``O(log k)`` accept probes — or,
    with ``grid``, ``O(log_B k)`` block requests (one for the common
    ``k ≤ B = GRID_BLOCK`` case).
    """
    if len(candidates) < 2:
        raise ValueError("need at least two candidates")
    lo, hi = 0, len(candidates) - 1
    if grid:
        while hi - lo > 1:
            if hi - lo - 1 <= GRID_BLOCK:
                idxs = list(range(lo + 1, hi))
            else:
                span = hi - lo
                idxs = sorted(
                    {
                        lo + round_half_even((k + 1) * span, GRID_BLOCK + 1)
                        for k in range(GRID_BLOCK)
                    }
                    - {lo, hi}
                )
            flags = yield from plan_accept_block(
                memo, counted, kind, mode, [candidates[k] for k in idxs]
            )
            first_ok = next((k for k, ok in enumerate(flags) if ok), None)
            if first_ok is None:
                lo = idxs[-1]
            else:
                hi = idxs[first_ok]
                if first_ok > 0:
                    lo = idxs[first_ok - 1]
        return candidates[lo], candidates[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (yield from plan_accept(memo, counted, kind, mode, candidates[mid])):
            hi = mid
        else:
            lo = mid
    return candidates[lo], candidates[hi]


def eps_probe_plan(tmin: TimeLike, eps: Fraction, kind: str, mode: str):
    """Theorem 2's probe sequence; returns ``(T, certificate_lo, calls)``.

    ``T`` and ``certificate_lo`` come back as normalized pairs; the
    drivers rebuild Fractions at the result boundary.
    """
    tmin = norm_pair(*as_pair(tmin))
    tn, td = tmin
    calls = 1
    if (yield ProbeRequest("accept", kind, mode, (tmin,)))[0]:
        # T_min ≤ OPT: ratio exactly 3/2.
        return tmin, tmin, calls
    lo, hi = tmin, norm_pair(2 * tn, td)  # lo rejected, hi accepted (2Tmin ≥ OPT)
    gap = pair_mul(as_pair(eps), tmin)  # shrink the bracket below eps·tmin ≤ eps·OPT
    while pair_cmp(pair_sub(hi, lo), gap) > 0:
        mid = pair_mid(lo, hi)
        calls += 1
        if (yield ProbeRequest("accept", kind, mode, (mid,)))[0]:
            hi = mid
        else:
            lo = mid
    # lo < OPT and hi ≤ lo + eps*tmin < (1+eps)·OPT.
    return hi, lo, calls


def integer_probe_plan(tmin: TimeLike, kind: str):
    """Theorem 8's probe sequence; returns ``(T, calls)``, ``T`` an exact pair."""
    tn, td = as_pair(tmin)
    lo_int = pair_ceil(tn, td)  # OPT ∈ N and OPT ≥ T_min ⟹ OPT ≥ ⌈T_min⌉
    hi_int = pair_ceil(2 * tn, td)
    calls = 1
    if (yield ProbeRequest("accept", kind, "", ((lo_int, 1),)))[0]:
        return (lo_int, 1), calls
    lo, hi = lo_int, hi_int  # lo rejected, hi accepted (hi ≥ 2·t_min ≥ OPT)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        calls += 1
        if (yield ProbeRequest("accept", kind, "", ((mid, 1),)))[0]:
            hi = mid
        else:
            lo = mid
    # hi accepted, hi−1 rejected ⟹ OPT > hi−1 ⟹ OPT ≥ hi (integrality).
    return (hi, 1), calls


@dataclass(frozen=True)
class SearchResult:
    """A makespan guess with its schedule and the search's certificate.

    ``schedule`` is ``None`` when the caller ran a bounds-only search
    (``build=None``) — machine sweeps use this to resolve the ``T*``
    curve without materializing a schedule per point.
    """

    T: Time                    # the accepted guess the schedule was built for
    schedule: Optional[Schedule]
    certificate_lo: Time       # every T' < certificate_lo is proven < OPT...
    accept_calls: int          # ...so makespan ≤ (3/2)·T ≤ (3/2)(T/certificate_lo)·OPT

    @property
    def ratio_bound(self) -> Fraction:
        """Proven approximation factor ``(3/2)·T / certificate_lo``."""
        return Fraction(3, 2) * self.T / self.certificate_lo


def binary_search_dual(
    instance: Instance,
    variant: Variant,
    accept: AcceptFn,
    build: Optional[BuildFn],
    eps: Fraction = Fraction(1, 100),
) -> SearchResult:
    """Theorem 2 — (3/2)(1+ε)-approximation with O(log 1/ε) dual tests."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    tmin = t_min(instance, variant)
    plan = eps_probe_plan(tmin, eps, "", "")
    T, lo, calls = drive_plan(plan, _black_box_evaluator(accept))
    T = fast_fraction(*T)
    return SearchResult(
        T, None if build is None else build(T), certificate_lo=fast_fraction(*lo),
        accept_calls=calls,
    )


def _black_box_evaluator(accept: AcceptFn):
    """Route plan requests to a caller-supplied ``accept`` predicate.

    This is the pair→Fraction boundary for black-box searches: the
    caller's ``accept`` speaks :class:`Time`, so each probed pair is
    rebuilt via ``fast_fraction`` here (pairs are already normalized —
    the slot-writing constructor skips the gcd).  One cancellation poll
    per request, like every sequential evaluator.
    """

    def evaluate(req: ProbeRequest) -> list[bool]:
        check_cancelled()  # probe boundary
        return [accept(fast_fraction(tn, td)) for tn, td in req.times]

    return evaluate


def accept_flags(kind: str, m: int, times: Sequence[Pair], verdicts) -> list[bool]:
    """Accept bits of ``verdicts`` probed at ``times`` on ``m`` machines.

    Each verdict carries its flag except Algorithm 4's monotone core,
    whose ``(L_base, m′)`` accepts iff ``m·T ≥ L_base`` and ``m ≥ m′``.
    """
    if kind == "pmtn_base":
        return [
            m * tn >= load * td and m >= m_prime
            for (tn, td), (load, m_prime) in zip(times, verdicts)
        ]
    return [v.accepted for v in verdicts]


def probe_evaluator(
    instance: Instance,
    *,
    fast: bool,
    ctx: Optional[DualContext] = None,
    grid: bool = False,
):
    """The one per-item evaluator of every plan-driven sequential search.

    Answers every request op and probe kind: ``fast`` through
    :meth:`~repro.core.xbatch.BatchDualContext.scalar_one` on a
    one-member context of ``ctx`` (default ``instance.fast_ctx()``),
    else through its Fraction-reference twin :func:`_fraction_probe`;
    with ``grid``, ``accept_block`` requests go to that context's fused
    :meth:`~repro.core.xbatch.BatchDualContext.evaluate`.  Accept
    requests poll cancellation at the probe boundary; ``verdict``
    requests (the flip searches' raw case-analysis reads) never do.
    """
    m = instance.m
    if fast:
        xctx = BatchDualContext([instance.fast_ctx() if ctx is None else ctx])
        scalar = xctx.scalar_one

        def one(kind, mode, tn, td):
            return scalar(kind, mode, 0, tn, td)

    else:
        xctx = None
        one = _fraction_probe(instance)

    def evaluate(req: ProbeRequest):
        kind, mode, times = req.kind, req.mode, req.times
        if req.op == "verdict":
            return [one(kind, mode, tn, td) for tn, td in times]
        check_cancelled()  # probe boundary: no partial state to unwind
        if grid and req.op == "accept_block":
            verdicts = xctx.evaluate(kind, mode, [(0, tn, td) for tn, td in times])
        else:
            verdicts = [one(kind, mode, tn, td) for tn, td in times]
        return accept_flags(kind, m, times, verdicts)

    return evaluate


def _fraction_probe(instance: Instance):
    """``BatchDualContext.scalar_one`` on the exact-rational dual tests.

    Same verdict types; the loads are integral, so plans stay on ints.
    """
    from .jumping_pmtn import _base_core  # local imports: those modules import this one
    from .nonpreemptive import nonp_dual_test
    from .pmtn_general import pmtn_dual_test
    from .splittable import split_dual_test

    def one(kind: str, mode: str, tn: int, td: int):
        T = fast_fraction(tn, td)
        if kind == "split":
            d = split_dual_test(instance, T)
            return SplitVerdict(d.accepted, int(d.load), d.machines_exp)
        if kind == "nonp":
            d = nonp_dual_test(instance, T)
            return NonpVerdict(d.accepted, int(d.load), d.machines_needed)
        if kind == "pmtn":
            d = pmtn_dual_test(instance, T, mode=mode)
            return PmtnVerdict(
                d.accepted, int(d.load), d.machines_needed, d.case,
                any("F < L*" in r for r in d.reject_reasons),
            )
        if kind == "pmtn_base":
            load, m_prime = _base_core(instance, T)
            return int(load), m_prime
        raise ValueError(f"unknown probe kind {kind!r}")

    return one


# --------------------------------------------------------------------------- #
# slow reference flip finder for the splittable dual
# --------------------------------------------------------------------------- #


def splittable_breakpoints(instance: Instance, lo: Time, hi: Time) -> list[Time]:
    """All points in ``(lo, hi)`` where the splittable dual's data changes.

    These are the partition boundaries ``2s_i`` and the class jumps
    ``2P(C_i)/k``; between consecutive breakpoints ``L_split`` and ``m_exp``
    are constant (both are left-continuous step functions that only change
    at these points).
    """
    pts: set[Time] = set()
    for s in instance.setups:
        b = Fraction(2 * s)
        if lo < b < hi:
            pts.add(b)
    for i in range(instance.c):
        P2 = Fraction(2 * instance.processing(i))
        if P2 <= 0:
            continue
        k_lo = max(1, frac_ceil(P2 / hi))
        k_hi = (P2 / lo).__floor__() if lo > 0 else 0
        for k in range(k_lo, k_hi + 1):
            b = P2 / k
            if lo < b < hi:
                pts.add(b)
    return sorted(pts)


def slow_flip_splittable(instance: Instance) -> Time:
    """Exact ``T* = min{T ≥ T_min : splittable dual accepts}`` by full scan.

    O(c·m) pieces — only used for cross-validation and ablations.
    """
    from .splittable import split_dual_test  # local import to avoid a cycle

    tmin = t_min(instance, Variant.SPLITTABLE)
    thi = 2 * tmin
    if split_dual_test(instance, tmin).accepted:
        return tmin
    bounds = [tmin] + splittable_breakpoints(instance, tmin, thi) + [thi]
    m = instance.m
    for b, b_next in zip(bounds, bounds[1:]):
        dual = split_dual_test(instance, b)
        if m < dual.machines_exp:
            continue  # whole piece [b, b_next) rejected on machine count
        candidate = max(b, dual.load / m)
        if candidate < b_next:
            # accepted inside the piece (L, m_exp constant on [b, b_next))
            assert split_dual_test(instance, candidate).accepted
            return candidate
    assert split_dual_test(instance, thi).accepted
    return thi
