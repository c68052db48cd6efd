"""Batched solve engine: ``solve_many`` and ``sweep_machines``.

The workloads the ROADMAP targets — machine-count sweeps
(:mod:`repro.experiments.scaling`), ratio studies, and service-shaped
request streams — call :func:`repro.solve` on many *related* instances:
the same classes and jobs, varying only the machine count (or repeating
the instance outright).  A naive loop rebuilds every per-instance cache
(Fraction job views, sorted views with prefix sums, the fast-kernel
:class:`~repro.core.fastnum.DualContext`) per call, even though all of
it is machine-count independent.

This module is the façade that exploits the sharing:

* :func:`sweep_machines` solves one instance across a list of machine
  counts.  One set of caches and one ``DualContext`` (re-``m``'d via
  :meth:`~repro.core.fastnum.DualContext.for_m`) back every point; the
  per-point instance copy is an O(c) cache-sharing
  ``with_machines(..., share_caches=True)``.
* :func:`solve_many` solves a stream of instances, transparently sharing
  caches between instances with equal ``(setups, jobs)``.
* Both offer ``schedules=False``: the dual searches still resolve the
  certified makespan ``T`` with its lower-bound certificate — the
  splittable and preemptive flip searches through the vectorized
  :mod:`repro.core.xbatch` engine when numpy is available and the grid
  policy engages — but no schedule is materialized.  Sweep consumers that
  only need the ``T*``/bound curve (capacity planning: "how many
  machines until the proven bound drops below X?") skip the dominant
  construction cost entirely; :class:`SweepPoint` carries the same
  certified fields a full :class:`~repro.algos.api.SolveResult` would.

Everything returned is bit-identical to the corresponding looped
``solve()`` fields — asserted by ``tests/test_batch_api.py`` on the
generator suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, MutableMapping, Optional, Sequence, Union

from ..core import xbatch
from ..core.bounds import Variant, lower_bound, setup_plus_tmax, t_min
from ..core.cancel import CancelToken, SolveCancelled, cancel_scope
from ..core.fastnum import validate_kernel
from ..core.instance import Instance
from ..core.numeric import Time, fast_fraction
from ..obs.trace import count as obs_count
from .api import Algorithm, Kernel, SolveResult, solve
from .jumping_pmtn import find_flip_pmtn, flip_plan_pmtn
from .jumping_split import find_flip_splittable, flip_plan_splittable
from .nonpreemptive import nonp_dual_schedule, three_halves_nonpreemptive
from .pmtn_general import pmtn_dual_schedule
from .search import (
    GRID_BLOCK,
    binary_search_dual,
    eps_probe_plan,
    integer_probe_plan,
)
from .splittable import split_dual_schedule

__all__ = ["BatchItem", "SweepPoint", "solve_batch", "solve_many", "sweep_machines"]

#: The three public algorithm names of :func:`repro.algos.api.solve`.
VALID_ALGORITHMS = ("two", "eps", "three_halves")


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

    The batched entry points process streams; without this, a bad
    variant or algorithm name surfaced mid-stream (or worse, after
    partial results were already computed).  Everything raised here is
    raised before the first solve.
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


@dataclass(frozen=True)
class SweepPoint:
    """Bounds-only outcome of one sweep entry (no schedule materialized).

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
        return Fraction(3, 2) * self.T


def _trivial_point(instance: Instance, variant: Variant) -> Optional[SweepPoint]:
    """The m = 1 / m ≥ n closed forms of the trivial solve paths."""
    if instance.m == 1:
        total = Fraction(instance.total_load)  # serial schedule is optimal
        return SweepPoint(
            m=1, variant=variant, algorithm="trivial", T=total,
            ratio_bound=Fraction(1), opt_lower_bound=total, accept_calls=0,
        )
    if variant is not Variant.SPLITTABLE and instance.m >= instance.n:
        cmax = Fraction(setup_plus_tmax(instance))  # one job (+setup) per machine
        return SweepPoint(
            m=instance.m, variant=variant, algorithm="trivial", T=cmax,
            ratio_bound=Fraction(1), opt_lower_bound=cmax, accept_calls=0,
        )
    return None


def _bounds_point(
    instance: Instance,
    variant: Variant,
    algorithm: Algorithm,
    eps: Fraction,
    kernel: Kernel,
    use_grid: bool,
) -> SweepPoint:
    """One bounds-only solve: search, certify, skip the construction."""
    trivial = _trivial_point(instance, variant)
    if trivial is not None:
        return trivial
    lb = lower_bound(instance, variant)
    fast = validate_kernel(kernel)
    ctx = instance.fast_ctx() if fast else None
    m = instance.m

    if algorithm == "eps":
        from .api import _dual_for

        # Same accept predicate solve(..., "eps") wires up (build discarded:
        # bounds mode never constructs).
        accept, _ = _dual_for(instance, variant, kernel)
        sr = binary_search_dual(instance, variant, accept, build=None, eps=eps)
        return SweepPoint(
            m=m, variant=variant, algorithm="eps", T=sr.T,
            ratio_bound=sr.ratio_bound,
            opt_lower_bound=max(lb, sr.certificate_lo),
            accept_calls=sr.accept_calls,
        )

    if algorithm != "three_halves":
        raise ValueError(
            f"schedules=False supports the dual-search algorithms "
            f"('three_halves', 'eps'), not {algorithm!r}"
        )

    if variant is Variant.SPLITTABLE:
        T_star, calls = find_flip_splittable(
            instance, kernel=kernel, ctx=ctx, use_grid=use_grid
        )
        return SweepPoint(
            m=m, variant=variant, algorithm="three_halves", T=T_star,
            ratio_bound=Fraction(3, 2), opt_lower_bound=max(lb, T_star),
            accept_calls=calls,
        )
    if variant is Variant.PREEMPTIVE:
        T_star, T_witness, calls = find_flip_pmtn(
            instance, kernel=kernel, ctx=ctx, use_grid=use_grid
        )
        ratio = (
            Fraction(3, 2) * T_witness / T_star if T_star else Fraction(3, 2)
        )
        return SweepPoint(
            m=m, variant=variant, algorithm="three_halves", T=T_witness,
            ratio_bound=ratio, opt_lower_bound=max(lb, T_star),
            accept_calls=calls,
        )
    sr = three_halves_nonpreemptive(
        instance, kernel=kernel, ctx=ctx, build_schedule=False
    )
    return SweepPoint(
        m=m, variant=variant, algorithm="three_halves", T=sr.T,
        ratio_bound=Fraction(3, 2),
        opt_lower_bound=max(lb, sr.certificate_lo),
        accept_calls=sr.accept_calls,
    )


#: Probe kind of each variant's dual test in the vectorized engine.
_PROBE_KIND = {
    Variant.SPLITTABLE: "split",
    Variant.PREEMPTIVE: "pmtn",
    Variant.NONPREEMPTIVE: "nonp",
}

#: Shape-aware grid auto-policy.  Only the splittable and preemptive
#: Class-Jumping flip searches (``three_halves``) have a grid mode: they
#: narrow candidate lists in blocks through a one-member
#: :class:`~repro.core.xbatch.BatchDualContext`.  Per probe kind a
#: ``(block_min, work_max)`` window — the grid engages only when the
#: candidate-block size reaches ``block_min`` (vectorization width to
#: amortize the numpy call overhead) *and* the product ``block × c``
#: stays under ``work_max`` (every grid candidate touches all ``c``
#: classes, while a scalar probe bisects sorted prefix views in
#: O(log c); the blow-up must stay bounded).  Calibrated by Experiment
#: S3 (``python -m repro.experiments gridcross``) on the scaled-integer
#: plans:
#:
#: * ``pmtn`` flip search — grid wins 1.06–1.15× for block×c in
#:   ≈ 10k–26k, parity at 51k, loses below block ≈ 64;
#: * ``split`` flip search — parity (0.91–1.01×) across the same band;
#:   kept engaged there so the shared-candidate batched calls stay
#:   exercised at no measured cost.
#:
#: The ε-search and the non-preemptive integer search have no grid:
#: their bisections need ~7–20 scalar probes, which a full candidate
#: block never beat at any measured class count.
GRID_POLICY: dict[str, tuple[int, int]] = {
    "split": (64, 64_000),
    "pmtn": (64, 32_000),
}


def _grid_shape(variant: Variant, algorithm: Algorithm) -> Optional[str]:
    """The :data:`GRID_POLICY` key of a search shape, ``None`` if it has no grid."""
    if algorithm != "three_halves":
        return None
    kind = _PROBE_KIND[variant]
    return kind if kind in GRID_POLICY else None


def _check_forced_grid(
    use_grid: Optional[bool], kernel: Kernel, variant: Variant, algorithm: Algorithm
) -> None:
    """Refuse ``use_grid=True`` on a shape without a grid, before any solve."""
    if not use_grid:
        return
    if kernel != "fast":
        raise ValueError(
            "use_grid=True needs kernel='fast'; the fraction kernel probes "
            "one candidate at a time"
        )
    if _grid_shape(variant, algorithm) is None:
        raise ValueError(
            f"use_grid=True: the {variant.value} {algorithm!r} search has no "
            f"grid; grids exist only for the splittable and preemptive "
            f"'three_halves' flip searches"
        )


def _grid_block_estimate(c: int) -> int:
    """Candidates per batched grid call of a flip search over ``c`` classes.

    The flip searches narrow candidate lists of at most ``c + 2`` points
    in blocks capped at :data:`~repro.algos.search.GRID_BLOCK` interior
    candidates (:func:`~repro.algos.search.right_interval_plan`).
    """
    return min(c + 2, GRID_BLOCK)


def _resolve_use_grid(
    use_grid: Optional[bool],
    kernel: Kernel,
    variant: Variant,
    c: int,
    algorithm: Algorithm = "three_halves",
) -> bool:
    """Shape-aware auto-policy for the vectorized grid evaluators.

    A grid round evaluates its whole candidate block at once where the
    scalar search would bisect it with ~log₂(block) probes, and every
    grid candidate costs kernel work linear in the class count — the
    numpy constant-factor win has to amortize that blow-up.  ``None``
    therefore engages a kind's grid only while the product of the
    search shape's candidate-block size (:func:`_grid_block_estimate`)
    and the class count stays under the kind's measured ceiling
    (:data:`GRID_POLICY`); shapes without a grid always probe scalar.
    ``True`` forces grids and requires numpy (fails loudly rather than
    silently degrading to candidate-by-candidate scalar loops; the
    entry points reject shapes without a grid up front, see
    :func:`_check_forced_grid`); ``False`` forces scalar probing.
    """
    if use_grid is None:
        shape = _grid_shape(variant, algorithm)
        if shape is None or not (xbatch.HAVE_NUMPY and kernel == "fast"):
            obs_count("dispatch.scalar")
            return False
        block_min, work_max = GRID_POLICY[shape]
        block = _grid_block_estimate(c)
        grid = block >= block_min and block * c <= work_max
        obs_count("dispatch.grid" if grid else "dispatch.scalar")
        return grid
    if use_grid and not xbatch.HAVE_NUMPY:
        raise RuntimeError("use_grid=True but numpy is not installed")
    obs_count("dispatch.grid" if use_grid else "dispatch.scalar")
    return bool(use_grid)


def _grid_safe_for(ctx, instance: Instance, variant: Variant) -> bool:
    """Will this instance's search candidates clear the int64 precheck?

    Batched grid calls stay *correct* on overflow-prone instances (each
    call falls back to the scalar kernel), but a fallen-back grid call
    evaluates every candidate of its block sequentially, which is
    slower than the plain bisection it replaced.  This probes
    :func:`repro.core.xbatch._grid_is_safe` once per
    sweep point with a representative candidate envelope (the search
    window ``[T_min, 2·T_min]`` at denominators up to ``1024·2m`` — a
    superset of the dyadic refinements and class-jump denominators seen
    in practice) and keeps grids off when it does not clear.
    """
    tmin = t_min(instance, variant)
    max_td = tmin.denominator * 1024 * max(1, 2 * instance.m)
    lo = tmin.numerator * (max_td // tmin.denominator)
    return xbatch._grid_is_safe(ctx, [max(1, lo), 2 * lo], [max_td, max_td])


def sweep_machines(
    instance: Instance,
    ms: Iterable[int],
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: Kernel = "fast",
    schedules: bool = True,
    use_grid: Optional[bool] = None,
) -> Union[list[SolveResult], list[SweepPoint]]:
    """Solve ``instance`` across machine counts ``ms``, sharing every cache.

    The instance's job/class data is machine-count independent, so one
    set of per-class views and one fast-kernel context back the whole
    sweep (``with_machines(..., share_caches=True)`` +
    :meth:`DualContext.for_m`); only the per-``m`` search and (with
    ``schedules=True``) the per-``m`` construction remain.

    ``schedules=True`` returns full :class:`SolveResult` objects,
    bit-identical to ``[solve(instance.with_machines(m), ...) for m in
    ms]``.  ``schedules=False`` returns :class:`SweepPoint` bounds
    (same certified ``T``/ratio/lower bound, no schedule) and lets the
    flip searches run their candidate blocks on the vectorized engine —
    the fast path for ``T*``-curve workloads.

    ``use_grid`` applies to the bounds-only flip searches of splittable
    and preemptive ``three_halves``: ``None`` (default) lets
    :data:`GRID_POLICY` engage the numpy grid evaluator when numpy is
    importable, the kernel is ``"fast"`` and the instance clears the
    int64 overflow probe; ``False`` forces scalar probing; ``True``
    requires numpy.  Forcing ``use_grid=True`` on a search without a
    grid — full schedules, ``eps``, non-preemptive, or
    ``kernel="fraction"`` — raises ``ValueError`` rather than silently
    degrading.  (Since PR 4 even the non-preemptive construction is
    sweep-friendly: Algorithm 6 runs object-free on the index-based
    :class:`~repro.core.itemstore.ItemStore`, reuses the shared
    per-class prefix/Q-block caches across points, skips the already-
    decided Theorem-9 re-test, and hands schedules over lazily — the
    full-sweep ratio over the looped baseline reaches ~2× like the
    other variants.)
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules)
    if schedules and use_grid:
        raise ValueError(
            "use_grid=True applies to bounds-only sweeps (schedules=False); "
            "full-schedule sweeps use the scalar searches"
        )
    _check_forced_grid(use_grid, kernel, variant, algorithm)
    grid = (
        False if schedules
        else _resolve_use_grid(use_grid, kernel, variant, instance.c, algorithm)
    )
    if kernel == "fast":
        ctx = instance.fast_ctx()  # ensure the shared context exists pre-sweep
        if grid and use_grid is None and not _grid_safe_for(ctx, instance, variant):
            grid = False  # auto policy: overflow-prone grids would fall back per call
    out: list = []
    for m in ms:
        inst_m = instance.with_machines(m, share_caches=True)
        if schedules:
            out.append(solve(inst_m, variant, algorithm, eps, kernel=kernel))
        else:
            out.append(
                _bounds_point(inst_m, variant, algorithm, eps, kernel, grid)
            )
    return out


def solve_many(
    instances: Sequence[Instance],
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: Kernel = "fast",
    schedules: bool = True,
    use_grid: Optional[bool] = None,
) -> Union[list[SolveResult], list[SweepPoint]]:
    """Solve a stream of instances, sharing caches between equal inputs.

    Instances with identical ``(setups, jobs)`` — machine-count sweeps,
    repeated service requests — are backed by one representative's
    caches and fast-kernel context; distinct inputs solve exactly as a
    plain loop would.  Output order matches the input order and every
    entry is bit-identical to the corresponding ``solve(...)`` call
    (or, with ``schedules=False``, to its certificate fields).
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules)
    if schedules and use_grid:
        raise ValueError(
            "use_grid=True applies to bounds-only solves (schedules=False); "
            "full-schedule solves use the scalar searches"
        )
    _check_forced_grid(use_grid, kernel, variant, algorithm)
    reps: dict[tuple, Instance] = {}
    grid_by_key: dict[tuple, bool] = {}  # overflow probe is per input, not sticky
    out: list = []
    for inst in instances:
        key = (inst.setups, inst.jobs)
        rep = reps.get(key)
        if rep is None:
            reps[key] = inst
            grid = (
                False if schedules
                else _resolve_use_grid(use_grid, kernel, variant, inst.c, algorithm)
            )
            if kernel == "fast":
                ctx = inst.fast_ctx()
                if grid and use_grid is None and not _grid_safe_for(ctx, inst, variant):
                    grid = False  # auto policy, see sweep_machines
            grid_by_key[key] = grid
            shared = inst
        else:
            shared = rep.with_machines(inst.m, share_caches=True)
        if schedules:
            out.append(solve(shared, variant, algorithm, eps, kernel=kernel))
        else:
            out.append(
                _bounds_point(shared, variant, algorithm, eps, kernel, grid_by_key[key])
            )
    return out


# --------------------------------------------------------------------------- #
# heterogeneous micro-batches (the service coalescing entry point)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class BatchItem:
    """One coalesced request of :func:`solve_batch`.

    Unlike the homogeneous :func:`solve_many` stream, every item carries
    its own variant/algorithm/mode — the shape of a service micro-batch,
    where concurrent requests against the same instance data may ask for
    different things.  ``ms`` turns the item into a machine sweep
    (:func:`sweep_machines` over those counts, the instance's own ``m``
    ignored); otherwise the item is a single solve at ``instance.m``.
    ``schedules=False`` resolves certified bounds only
    (:class:`SweepPoint`), skipping construction.
    """

    instance: Instance
    variant: Variant = Variant.NONPREEMPTIVE
    algorithm: Algorithm = "three_halves"
    eps: Fraction = field(default_factory=lambda: Fraction(1, 100))
    schedules: bool = True
    ms: Optional[tuple[int, ...]] = None


def _grid_safe_cached(instance: Instance, variant: Variant) -> bool:
    """The :func:`_grid_safe_for` probe, memoized on the shared cache set.

    The probe is per ``(variant, m)`` (the candidate envelope depends on
    ``T_min``); service streams re-solve the same fingerprints for the
    same machine counts over and over, so the verdict is parked in the
    instance's shared misc cache — evicted (and re-probed) together with
    everything else on :meth:`Instance.release_caches`.
    """
    key = ("grid_safe", variant.value, instance.m)
    cached = instance._misc_cache.get(key)
    if cached is None:
        cached = _grid_safe_for(instance.fast_ctx(), instance, variant)
        instance._misc_cache[key] = cached
    return cached


def _solve_item(
    shared: Instance,
    variant: Variant,
    item: BatchItem,
    kernel: Kernel,
    use_grid: Optional[bool],
):
    """One item of :func:`solve_batch` on the sequential per-item path."""
    if item.ms is not None:
        return sweep_machines(
            shared, item.ms, variant, item.algorithm, item.eps,
            kernel=kernel, schedules=item.schedules, use_grid=use_grid,
        )
    if item.schedules:
        return solve(shared, variant, item.algorithm, item.eps, kernel=kernel)
    grid = _resolve_use_grid(use_grid, kernel, variant, shared.c, item.algorithm)
    if grid and use_grid is None and not _grid_safe_cached(shared, variant):
        grid = False  # auto policy, see sweep_machines
    return _bounds_point(shared, variant, item.algorithm, item.eps, kernel, grid)


def solve_batch(
    items: Sequence[BatchItem],
    *,
    kernel: Kernel = "fast",
    reps: Optional[MutableMapping[str, Instance]] = None,
    use_grid: Optional[bool] = None,
    cancels: Optional[Sequence[Optional[CancelToken]]] = None,
    before_solve: Optional[Callable[[BatchItem], None]] = None,
    xbatch: bool = False,
) -> list:
    """Solve one heterogeneous micro-batch, coalescing equal instances.

    The entry point the service shards dispatch through.  Items whose
    instances share a :meth:`~repro.core.instance.Instance.fingerprint`
    are backed by one representative's cache set (Fraction/sorted views,
    ``DualContext``) exactly like :func:`solve_many`; unlike it, the
    representative table ``reps`` (fingerprint → instance) is **caller
    owned**, so warm caches persist *across* batches — pass the same
    mapping (e.g. an LRU that evicts via ``release_caches()``) on every
    call and repeated service traffic never rebuilds a hot instance's
    caches.  Passing nothing coalesces within the batch only.

    The function keeps no module state and mutates nothing but ``reps``,
    so it is reentrant: concurrent callers with *disjoint* ``reps``
    mappings (the service guarantees this by sharding on fingerprint)
    never share a lazily-filled cache across threads.

    Every name is validated before the first solve (one clear error, no
    partial results), and the output list matches ``items`` order:
    ``SolveResult`` | :class:`SweepPoint` for single solves, a list
    thereof for ``ms`` sweeps — each bit-identical to the corresponding
    fresh-instance ``solve()`` / ``sweep_machines`` call.

    ``cancels`` (aligned with ``items``) attaches a per-item
    :class:`~repro.core.cancel.CancelToken`: each item solves inside a
    ``cancel_scope`` of its token, so an expired deadline aborts that
    item's search at the next probe boundary with
    :class:`~repro.core.cancel.SolveCancelled` — and output stays
    bit-identical whenever no token fires.  ``before_solve`` is an
    instrumentation hook invoked with each item just before its solve —
    the service's fault-injection harness hangs delays/raises off it;
    production callers leave it ``None``.

    ``xbatch=True`` solves the batch through the **cross-instance
    lockstep coordinator**: every eligible item's bracket search runs as
    a probe plan (:mod:`repro.algos.search`), the coordinator advances
    all plans one round at a time, and each round's same-kind probes —
    across *different* instances — fuse into one padded
    :class:`repro.core.xbatch.BatchDualContext` kernel call.  Results,
    probe counts, and raised errors are bit-identical to ``xbatch=False``
    (each plan is the very generator the sequential path drives, and the
    fused kernels are differentially pinned against the scalar ones);
    items the coordinator cannot fuse — ``ms`` sweeps, ``"two"``, the
    trivial closed forms — fall back to the per-item path inside the
    same call, as does the whole batch on the fraction kernel.
    """
    validate_kernel(kernel)
    prepared = [
        (item, _validate_request(item.variant, item.algorithm, item.schedules))
        for item in items
    ]
    if use_grid and any(item.schedules for item in items):
        raise ValueError(
            "use_grid=True applies to bounds-only items (schedules=False); "
            "full-schedule items use the scalar searches"
        )
    for item, variant in prepared:
        _check_forced_grid(use_grid, kernel, variant, item.algorithm)
    if cancels is not None and len(cancels) != len(items):
        raise ValueError(
            f"cancels must align with items: {len(cancels)} tokens "
            f"for {len(items)} items"
        )
    if reps is None:
        reps = {}
    if xbatch and kernel == "fast":
        return _solve_batch_lockstep(
            prepared, kernel, reps, use_grid, cancels, before_solve
        )
    out: list = []
    for idx, (item, variant) in enumerate(prepared):
        token = cancels[idx] if cancels is not None else None
        with cancel_scope(token):
            if before_solve is not None:
                before_solve(item)
            if token is not None:
                token.check()  # skip work that is already past its deadline
            inst = item.instance
            fp = inst.fingerprint()
            rep = reps.get(fp)
            if rep is None:
                reps[fp] = inst
                shared = inst
            elif rep is inst:
                shared = inst
            else:
                shared = rep.with_machines(inst.m, share_caches=True)
            out.append(_solve_item(shared, variant, item, kernel, use_grid))
    return out


# --------------------------------------------------------------------------- #
# cross-instance lockstep coordinator (xbatch=True)
# --------------------------------------------------------------------------- #

@dataclass
class _LockstepRun:
    """One item's in-flight probe plan inside the coordinator."""

    idx: int
    plan: object                     # probe-plan generator (see algos.search)
    token: Optional[CancelToken]
    member: int                      # row index into the BatchDualContext
    m: int                           # machine count (pmtn_base accept formula)
    finish: Callable                 # StopIteration.value -> output object
    response: object = None          # verdicts to send into the next round


def _lockstep_prepare(
    shared: Instance,
    variant: Variant,
    item: BatchItem,
    kernel: Kernel,
    use_grid: Optional[bool],
):
    """``(plan, finish)`` for a fusable item, ``None`` for the fallbacks.

    The plan is the identical generator the sequential entry point for
    this item drives (:func:`~repro.algos.search.eps_probe_plan` /
    :func:`~repro.algos.search.integer_probe_plan` / the flip plans), so
    the item's probe sequence under lockstep equals its solo sequence by
    construction.  ``finish`` runs the per-item construction and mirrors
    the :class:`SolveResult` / :class:`SweepPoint` assembly of
    ``solve()`` / :func:`_bounds_point` field for field.
    """
    if item.ms is not None or item.algorithm == "two":
        return None
    if shared.m == 1 or (variant is not Variant.SPLITTABLE and shared.m >= shared.n):
        return None  # trivial closed forms: no probes to fuse
    if item.schedules:
        grid = False  # full-schedule solves always use the scalar searches
    else:
        grid = _resolve_use_grid(use_grid, kernel, variant, shared.c, item.algorithm)
        if grid and use_grid is None and not _grid_safe_cached(shared, variant):
            grid = False  # auto policy, see sweep_machines
    kind = _PROBE_KIND[variant]
    lb = lower_bound(shared, variant)
    m = shared.m

    if item.algorithm == "eps":
        if item.eps <= 0:
            raise ValueError("eps must be positive")
        mode = "alpha" if variant is Variant.PREEMPTIVE else ""
        plan = eps_probe_plan(t_min(shared, variant), item.eps, kind, mode)

        def finish(res):
            T, lo, calls = res
            T, lo = fast_fraction(*T), fast_fraction(*lo)
            ratio = Fraction(3, 2) * T / lo
            if item.schedules:
                return SolveResult(
                    schedule=_build_for(shared, variant, kernel, T),
                    variant=variant, algorithm="eps", T=T,
                    ratio_bound=ratio, opt_lower_bound=max(lb, lo),
                )
            return SweepPoint(
                m=m, variant=variant, algorithm="eps", T=T, ratio_bound=ratio,
                opt_lower_bound=max(lb, lo), accept_calls=calls,
            )

        return plan, finish

    if variant is Variant.SPLITTABLE:
        plan = flip_plan_splittable(shared, grid=grid)

        def finish(res):
            T_star, calls = res
            T_star = fast_fraction(*T_star)
            if item.schedules:
                return SolveResult(
                    schedule=split_dual_schedule(shared, T_star, kernel=kernel),
                    variant=variant, algorithm="three_halves", T=T_star,
                    ratio_bound=Fraction(3, 2), opt_lower_bound=max(lb, T_star),
                )
            return SweepPoint(
                m=m, variant=variant, algorithm="three_halves", T=T_star,
                ratio_bound=Fraction(3, 2), opt_lower_bound=max(lb, T_star),
                accept_calls=calls,
            )

        return plan, finish

    if variant is Variant.PREEMPTIVE:
        plan = flip_plan_pmtn(shared, grid=grid)

        def finish(res):
            T_star, T_witness, calls = res
            T_star = fast_fraction(*T_star)
            T_witness = fast_fraction(*T_witness)
            ratio = (
                Fraction(3, 2) * T_witness / T_star if T_star else Fraction(3, 2)
            )
            if item.schedules:
                return SolveResult(
                    schedule=pmtn_dual_schedule(
                        shared, T_witness, mode="gamma", kernel=kernel
                    ),
                    variant=variant, algorithm="three_halves", T=T_witness,
                    ratio_bound=ratio, opt_lower_bound=max(lb, T_star),
                )
            return SweepPoint(
                m=m, variant=variant, algorithm="three_halves", T=T_witness,
                ratio_bound=ratio, opt_lower_bound=max(lb, T_star),
                accept_calls=calls,
            )

        return plan, finish

    plan = integer_probe_plan(t_min(shared, variant), kind)

    def finish(res):
        T, calls = res
        T = fast_fraction(*T)
        if item.schedules:
            return SolveResult(
                schedule=nonp_dual_schedule(shared, T, kernel=kernel, pretested=True),
                variant=variant, algorithm="three_halves", T=T,
                ratio_bound=Fraction(3, 2), opt_lower_bound=max(lb, T),
            )
        return SweepPoint(
            m=m, variant=variant, algorithm="three_halves", T=T,
            ratio_bound=Fraction(3, 2), opt_lower_bound=max(lb, T),
            accept_calls=calls,
        )

    return plan, finish


def _build_for(shared: Instance, variant: Variant, kernel: Kernel, T: Time):
    """The eps path's build hook (mirrors ``api._dual_for``'s builders)."""
    if variant is Variant.SPLITTABLE:
        return split_dual_schedule(shared, T, kernel=kernel)
    if variant is Variant.PREEMPTIVE:
        return pmtn_dual_schedule(shared, T, kernel=kernel)
    return nonp_dual_schedule(shared, T, kernel=kernel)


def _solve_batch_lockstep(
    prepared: Sequence[tuple[BatchItem, Variant]],
    kernel: Kernel,
    reps: MutableMapping[str, Instance],
    use_grid: Optional[bool],
    cancels: Optional[Sequence[Optional[CancelToken]]],
    before_solve: Optional[Callable[[BatchItem], None]],
) -> list:
    """Advance all items' probe plans in rounds, fusing each round's probes.

    Contract notes (all pinned by ``tests/test_xbatch.py``):

    * **Bit-identity** — each plan is the sequential path's own
      generator and every fused verdict is bit-identical to the scalar
      kernel, so outputs (including ``accept_calls``) match
      ``xbatch=False`` exactly.
    * **First-error** — the sequential loop raises the smallest-index
      item's error and never starts later items.  Here the prelude stops
      at the first failing item, earlier items still run to completion
      (one of them may produce an even earlier error), and the
      smallest-index error is raised at the end; plans past it are
      abandoned unfinished.
    * **Cancellation** — a token is polled exactly where the sequential
      evaluators poll (once per "accept"/"accept_block" request; never
      on "verdict" requests); a fired token removes only its own item
      from the round, the rest of the fused batch continues untouched.
    """
    from ..core.xbatch import BatchDualContext

    n = len(prepared)
    out: list = [None] * n
    errors: dict[int, Exception] = {}
    xctx = BatchDualContext([])
    runs: dict[int, _LockstepRun] = {}

    # ---- prelude: admission + rep resolution + fallbacks, item order -- #
    for idx, (item, variant) in enumerate(prepared):
        token = cancels[idx] if cancels is not None else None
        try:
            with cancel_scope(token):
                if before_solve is not None:
                    before_solve(item)
                if token is not None:
                    token.check()
                inst = item.instance
                fp = inst.fingerprint()
                rep = reps.get(fp)
                if rep is None:
                    reps[fp] = inst
                    shared = inst
                elif rep is inst:
                    shared = inst
                else:
                    shared = rep.with_machines(inst.m, share_caches=True)
                prep = _lockstep_prepare(shared, variant, item, kernel, use_grid)
                if prep is None:
                    obs_count("xbatch.straggler")
                    out[idx] = _solve_item(shared, variant, item, kernel, use_grid)
                else:
                    plan, finish = prep
                    runs[idx] = _LockstepRun(
                        idx=idx, plan=plan, token=token,
                        member=xctx.member_index(shared.fast_ctx()),
                        m=shared.m, finish=finish,
                    )
        except Exception as exc:  # noqa: BLE001 - first-error contract
            errors[idx] = exc
            break  # later items never start, like the sequential loop

    # ---- lockstep rounds ---------------------------------------------- #
    while runs:
        min_err = min(errors) if errors else None
        pending: list[tuple[int, object]] = []
        for idx in sorted(runs):
            run = runs[idx]
            if min_err is not None and idx > min_err:
                # This item's result would be discarded by the raise below.
                run.plan.close()
                del runs[idx]
                continue
            try:
                req = run.plan.send(run.response)
            except StopIteration as stop:
                del runs[idx]
                try:
                    with cancel_scope(run.token):
                        out[idx] = run.finish(stop.value)
                except Exception as exc:  # noqa: BLE001
                    errors[idx] = exc
                continue
            except Exception as exc:  # noqa: BLE001
                del runs[idx]
                errors[idx] = exc
                continue
            run.response = None
            pending.append((idx, req))

        groups: dict[tuple[str, str], list] = {}
        for idx, req in pending:
            run = runs[idx]
            if req.op in ("accept", "accept_block") and run.token is not None:
                try:
                    run.token.check()  # the sequential probe-boundary poll
                except SolveCancelled as exc:
                    run.plan.close()
                    del runs[idx]
                    errors[idx] = exc
                    continue
            groups.setdefault((req.kind, req.mode), []).append((idx, req))

        if groups:
            obs_count("xbatch.fused_rounds")
        for (kind, mode), entries in groups.items():
            rows = []
            for idx, req in entries:
                member = runs[idx].member
                rows.extend((member, tn, td) for tn, td in req.times)
            verdicts = xctx.evaluate(kind, mode, rows)
            pos = 0
            for idx, req in entries:
                vs = verdicts[pos : pos + len(req.times)]
                pos += len(req.times)
                if req.op == "verdict":
                    runs[idx].response = vs
                elif kind == "pmtn_base":
                    m = runs[idx].m
                    runs[idx].response = [
                        m * tn >= load * td and m >= m_prime
                        for (tn, td), (load, m_prime) in zip(req.times, vs)
                    ]
                else:
                    runs[idx].response = [v.accepted for v in vs]

    if errors:
        raise errors[min(errors)]
    return out
