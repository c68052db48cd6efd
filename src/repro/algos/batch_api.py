"""Batched solve engine: ``solve_many``, ``sweep_machines``, ``solve_batch``.

The workloads the ROADMAP targets — machine-count sweeps
(:mod:`repro.experiments.scaling`), ratio studies, and service-shaped
request streams — call :func:`repro.solve` on many *related* instances:
the same classes and jobs, varying only the machine count (or repeating
the instance outright).  A naive loop rebuilds every per-instance cache
(integer job views, sorted views with prefix sums, search bounds, the
vectorized engine's int64 scratch) per call, even though all of it is
machine-count independent.

This module is the façade that exploits the sharing:

* :func:`sweep_machines` solves one instance across a list of machine
  counts.  One set of caches backs every point: the per-point instance
  is an O(c) cache-sharing ``with_machines(..., share_caches=True)``
  copy, and the dual-test kernels read it directly.
* :func:`solve_many` solves a stream of instances, transparently sharing
  caches between instances with equal ``(setups, jobs)``.
* :func:`solve_batch` solves one heterogeneous service micro-batch, with
  a caller-owned representative table and, with ``xbatch=True``, the
  cross-instance lockstep coordinator.
* All offer ``schedules=False``: the dual searches still resolve the
  certified makespan ``T`` with its lower-bound certificate — the
  splittable flip search through the vectorized :mod:`repro.core.xbatch`
  engine when numpy is available and :data:`GRID_POLICY` engages it —
  but no schedule is materialized.  The policy alone makes that
  choice; code that studies the grid forces it one level lower, with
  ``solve_point(..., schedules=False, grid=True)``.  Sweep consumers
  that only need the ``T*``/bound curve (capacity planning: "how many
  machines until the proven bound drops below X?") skip the dominant
  construction cost entirely; :class:`SweepPoint` carries the same
  certified fields a full :class:`~repro.algos.api.SolveResult` would.

Every solve runs :mod:`repro.algos.api`'s one solve path (per item
:func:`~repro.algos.api.solve_point`; in lockstep
:func:`~repro.algos.api.prepare` and the same ``finish``), so each result
is bit-identical to the looped ``solve()`` fields — asserted by
``tests/test_batch_api.py`` on the generator suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, MutableMapping, Optional, Sequence, Union

from ..core import xbatch
from ..core.bounds import Variant, t_min
from ..core.cancel import CancelToken, SolveCancelled, cancel_scope
from ..core.fastnum import validate_kernel
from ..core.instance import Instance
from ..obs.trace import count as obs_count, count_probe as obs_count_probe
from .api import (
    Algorithm,
    Kernel,
    SolveResult,
    SweepPoint,
    _validate_request,
    prepare,
    solve_point,
)
from .search import GRID_BLOCK, accept_flags

__all__ = ["BatchItem", "SweepPoint", "solve_batch", "solve_many", "sweep_machines"]

#: Grid auto-policy ``(block_min, work_max)``.  Only the splittable
#: Class-Jumping flip search (``three_halves``) has a grid mode: it
#: narrows candidate lists in blocks through a one-member
#: :class:`~repro.core.xbatch.BatchDualContext`.  The grid engages only
#: when the candidate-block size reaches ``block_min`` (vectorization
#: width to amortize the numpy call overhead) *and* the product
#: ``block × c`` stays under ``work_max`` (a block probes every one of
#: its candidates over all ``c`` classes, where a bisection probes about
#: ``log2(block)`` of them; the blow-up must stay bounded).  Calibrated
#: by Experiment S3 (``python -m repro.experiments gridcross``) on the
#: scaled-integer plans: the grid loses below block ≈ 64 (medians 0.57×
#: at c = 12, 0.80× at c = 40) and is at parity (1.00–1.04×) for
#: block×c ≈ 10k–51k.  It stays engaged in that window at no measured
#: cost, so the shared-candidate batched calls stay exercised.
#:
#: The other searches have no grid: the ε-search and the non-preemptive
#: integer search bisect with ~7–20 scalar probes, which a full
#: candidate block never beat at any measured class count, and the
#: preemptive flip search's base-flip bisections measured at parity.
GRID_POLICY: tuple[int, int] = (64, 64_000)


def _has_grid(variant: Variant, algorithm: Algorithm) -> bool:
    """Whether a search shape has a grid mode: the splittable flip search."""
    return variant is Variant.SPLITTABLE and algorithm == "three_halves"


def _grid_block_estimate(c: int) -> int:
    """Candidates per grid call of the splittable flip search over ``c`` classes.

    It narrows candidate lists of at most ``c + 2`` points in blocks
    capped at :data:`~repro.algos.search.GRID_BLOCK` interior candidates
    (:func:`~repro.algos.search.right_interval_plan`).
    """
    return min(c + 2, GRID_BLOCK)


def _grid_for(
    instance: Instance,
    variant: Variant,
    algorithm: Algorithm,
    kernel: Kernel,
    schedules: bool,
) -> bool:
    """One solve's grid decision, made by :data:`GRID_POLICY` alone.

    Full schedules probe scalar.  A bounds-only solve engages the
    splittable flip search's grid when numpy is importable, the kernel
    is ``"fast"``, the candidate block (:func:`_grid_block_estimate`)
    and ``block × c`` fit the :data:`GRID_POLICY` window, and the
    candidates clear the int64 precheck: an overflow-prone grid call
    stays correct but falls back to probing its whole block one by one.
    The overflow probe (:func:`repro.core.xbatch._grid_is_safe` on
    ``[T_min, 2·T_min]`` at denominators up to ``1024·2m``, a superset
    of the dyadic refinements and class jumps seen in practice) depends
    on ``m`` only, so its verdict is parked in the instance's shared
    misc cache, evicted by :meth:`Instance.release_caches`.
    """
    if schedules:
        return False
    if not _has_grid(variant, algorithm) or kernel != "fast" or not xbatch.HAVE_NUMPY:
        return False
    block_min, work_max = GRID_POLICY
    block = _grid_block_estimate(instance.c)
    if block < block_min or block * instance.c > work_max:
        return False
    key = ("grid_safe", instance.m)
    safe = instance._misc_cache.get(key)
    if safe is None:
        tmin = t_min(instance, variant)
        max_td = tmin.denominator * 1024 * max(1, 2 * instance.m)
        lo = tmin.numerator * (max_td // tmin.denominator)
        safe = xbatch._grid_is_safe(instance, [max(1, lo), 2 * lo], [max_td, max_td])
        instance._misc_cache[key] = safe
    return safe


def _shared(reps: MutableMapping[str, Instance], instance: Instance) -> Instance:
    """``instance`` backed by its fingerprint representative's caches.

    The first instance of a fingerprint becomes the representative;
    later ones solve on an O(c) cache-sharing copy of it at their own
    machine count.
    """
    fp = instance.fingerprint()
    rep = reps.get(fp)
    if rep is None:
        reps[fp] = instance
        return instance
    if rep is instance:
        return instance
    return rep.with_machines(instance.m, share_caches=True)


def _point(instance, variant, algorithm, eps, kernel, schedules):
    """:func:`~repro.algos.api.solve_point` under this solve's grid decision."""
    grid = _grid_for(instance, variant, algorithm, kernel, schedules)
    return solve_point(
        instance, variant, algorithm, eps, kernel=kernel, schedules=schedules, grid=grid
    )


def sweep_machines(
    instance: Instance,
    ms: Iterable[int],
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: Kernel = "fast",
    schedules: bool = True,
) -> Union[list[SolveResult], list[SweepPoint]]:
    """Solve ``instance`` across machine counts ``ms``, sharing every cache.

    The instance's job/class data is machine-count independent, so one
    set of caches backs the whole sweep (every point solves on a
    ``with_machines(..., share_caches=True)`` copy); only the per-``m``
    search and (with ``schedules=True``) the per-``m`` construction
    remain.

    ``schedules=True`` returns full :class:`SolveResult` objects,
    bit-identical to ``[solve(instance.with_machines(m), ...) for m in
    ms]``.  ``schedules=False`` returns :class:`SweepPoint` bounds
    (same certified ``T``/ratio/lower bound, no schedule) and lets the
    splittable flip search run its candidate blocks on the vectorized
    engine — the fast path for ``T*``-curve workloads.  Whether a point
    does is :data:`GRID_POLICY`'s decision alone (:func:`_grid_for`):
    the bounds-only splittable ``three_halves`` search on the ``"fast"``
    kernel, with numpy importable, inside the policy window and clear of
    the int64 overflow probe; every other point probes scalar.
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules, eps)
    return [
        _point(
            instance.with_machines(m, share_caches=True), variant, algorithm,
            eps, kernel, schedules,
        )
        for m in ms
    ]


def solve_many(
    instances: Sequence[Instance],
    variant: Variant = Variant.NONPREEMPTIVE,
    algorithm: Algorithm = "three_halves",
    eps: Fraction = Fraction(1, 100),
    *,
    kernel: Kernel = "fast",
    schedules: bool = True,
) -> Union[list[SolveResult], list[SweepPoint]]:
    """Solve a stream of instances, sharing caches between equal inputs.

    Instances with identical ``(setups, jobs)`` — machine-count sweeps,
    repeated service requests — are backed by one representative's
    caches; distinct inputs solve exactly as a plain loop would.  Output order matches the input order and every
    entry is bit-identical to the corresponding ``solve(...)`` call
    (or, with ``schedules=False``, to its certificate fields).
    """
    validate_kernel(kernel)
    variant = _validate_request(variant, algorithm, schedules, eps)
    reps: dict[str, Instance] = {}
    return [
        _point(_shared(reps, inst), variant, algorithm, eps, kernel, schedules)
        for inst in instances
    ]


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


def _solve_item(shared: Instance, variant: Variant, item: BatchItem, kernel: Kernel):
    """One item of :func:`solve_batch` on the sequential per-item path."""
    if item.ms is not None:
        return sweep_machines(
            shared, item.ms, variant, item.algorithm, item.eps,
            kernel=kernel, schedules=item.schedules,
        )
    return _point(shared, variant, item.algorithm, item.eps, kernel, item.schedules)


def solve_batch(
    items: Sequence[BatchItem],
    *,
    kernel: Kernel = "fast",
    reps: Optional[MutableMapping[str, Instance]] = None,
    cancels: Optional[Sequence[Optional[CancelToken]]] = None,
    before_solve: Optional[Callable[[BatchItem], None]] = None,
    xbatch: bool = False,
) -> list:
    """Solve one heterogeneous micro-batch, coalescing equal instances.

    The entry point the service shards dispatch through.  Items whose
    instances share a :meth:`~repro.core.instance.Instance.fingerprint`
    are backed by one representative's cache set (job and sorted views,
    search bounds, engine scratch) exactly like :func:`solve_many`;
    unlike it, the representative table ``reps`` (fingerprint →
    instance) is **caller owned**, so warm caches persist *across*
    batches — pass the same mapping (e.g. an LRU that evicts via
    ``release_caches()``) on every call and repeated service traffic
    never rebuilds a hot instance's caches.  Passing nothing coalesces
    within the batch only.

    The function keeps no module state and mutates nothing but ``reps``,
    so it is reentrant: concurrent callers with *disjoint* ``reps``
    mappings (the service guarantees this by sharding on fingerprint)
    never share a lazily-filled cache across threads.

    Every name and ``eps`` is validated before the first solve (one
    clear error, no partial results), and the output list matches
    ``items`` order: ``SolveResult`` | :class:`SweepPoint` for single
    solves, a list thereof for ``ms`` sweeps — each bit-identical to the
    corresponding fresh-instance ``solve()`` / ``sweep_machines`` call.
    Which solves run the splittable flip search's grid is
    :data:`GRID_POLICY`'s decision (:func:`_grid_for`), per item.

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
    lockstep coordinator**: every eligible item's search runs as the
    probe plan :func:`~repro.algos.api.prepare` makes for it, the
    coordinator advances all plans one round at a time, and each round's
    same-kind probes — across *different* instances — go to one
    :class:`repro.core.xbatch.BatchDualContext` call: ``split`` rows
    fuse into one padded numpy pass, ``nonp``, ``pmtn`` and
    ``pmtn_base`` rows run on the scalar kernel.
    Results, probe counts, and raised errors are bit-identical to
    ``xbatch=False`` (each plan is the very generator the sequential
    path drives, its result goes to the same ``finish``, and the fused
    kernels are differentially pinned against the scalar ones); items
    the coordinator cannot fuse — ``ms`` sweeps and the closed forms
    (``"two"``, ``m = 1``, ``m ≥ n``) — fall back to the per-item path
    inside the same call, as does the whole batch on the fraction kernel.
    """
    validate_kernel(kernel)
    prepared = [
        (
            item,
            _validate_request(item.variant, item.algorithm, item.schedules, item.eps),
        )
        for item in items
    ]
    if cancels is not None and len(cancels) != len(items):
        raise ValueError(
            f"cancels must align with items: {len(cancels)} tokens "
            f"for {len(items)} items"
        )
    if reps is None:
        reps = {}
    if xbatch and kernel == "fast":
        return _solve_batch_lockstep(prepared, kernel, reps, cancels, before_solve)
    out: list = []
    for idx, (item, variant) in enumerate(prepared):
        token = cancels[idx] if cancels is not None else None
        with cancel_scope(token):
            if before_solve is not None:
                before_solve(item)
            if token is not None:
                token.check()  # skip work that is already past its deadline
            shared = _shared(reps, item.instance)
            out.append(_solve_item(shared, variant, item, kernel))
    return out


# --------------------------------------------------------------------------- #
# cross-instance lockstep coordinator (xbatch=True)
# --------------------------------------------------------------------------- #

@dataclass
class _LockstepRun:
    """One item's in-flight probe plan inside the coordinator."""

    plan: object                     # probe-plan generator (see algos.search)
    token: Optional[CancelToken]
    member: int                      # member index into the BatchDualContext
    m: int                           # machine count (pmtn_base accept formula)
    finish: Callable                 # StopIteration.value -> output object
    response: object = None          # verdicts to send into the next round


def _solve_batch_lockstep(
    prepared: Sequence[tuple[BatchItem, Variant]],
    kernel: Kernel,
    reps: MutableMapping[str, Instance],
    cancels: Optional[Sequence[Optional[CancelToken]]],
    before_solve: Optional[Callable[[BatchItem], None]],
) -> list:
    """Advance all items' probe plans in rounds, fusing each round's probes.

    Contract notes (all pinned by ``tests/test_xbatch.py``):

    * **Bit-identity** — each plan is the sequential path's own
      generator, its result goes to the same ``finish``, and every fused
      verdict is bit-identical to the scalar kernel, so outputs
      (including ``accept_calls``) and ``probe.*`` counts match
      ``xbatch=False`` exactly.
    * **First-error** — the sequential loop raises the smallest-index
      item's error and never starts later items.  Here the prelude stops
      at the first failing item, earlier items still run to completion
      (one of them may produce an even earlier error), and the
      smallest-index error is raised at the end; plans past it are
      abandoned unfinished.
    * **Cancellation** — a token is polled exactly where the sequential
      evaluator polls (once per "accept"/"accept_block" request; never
      on "verdict" requests); a fired token removes only its own item
      from the round, the rest of the fused batch continues untouched.
    """
    n = len(prepared)
    out: list = [None] * n
    errors: dict[int, Exception] = {}
    xctx = xbatch.BatchDualContext([])
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
                shared = _shared(reps, item.instance)
                prep = None
                if item.ms is None:
                    grid = _grid_for(
                        shared, variant, item.algorithm, kernel, item.schedules
                    )
                    prep = prepare(
                        shared, variant, item.algorithm, item.eps, kernel,
                        item.schedules, grid,
                    )
                if prep is None:
                    obs_count("xbatch.straggler")
                    out[idx] = _solve_item(shared, variant, item, kernel)
                else:
                    plan, finish = prep
                    runs[idx] = _LockstepRun(
                        plan=plan, token=token,
                        member=xctx.member_index(shared),
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
            obs_count_probe(req.kind, req.mode, len(req.times))
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
                run = runs[idx]
                run.response = (
                    vs if req.op == "verdict"
                    else accept_flags(kind, run.m, req.times, vs)
                )

    if errors:
        raise errors[min(errors)]
    return out
