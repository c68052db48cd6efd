"""Strict feasibility validators — the backbone of the test suite.

A schedule is feasible (Section 1) iff

1. machines are single-threaded: placements on one machine never overlap;
2. *all* jobs are completely scheduled (the pieces of job ``j`` sum to
   ``t_j`` exactly; nothing is over-scheduled);
3. a setup ``s_i`` precedes the processing of class ``i`` whenever a machine
   starts processing load of class ``i`` or switches from another class;
   setups are never preempted (they appear as atomic placements of length
   exactly ``s_i``);
4. variant rules:
   * non-preemptive — every job is a single contiguous piece on one machine,
   * preemptive — pieces of the same job never overlap in time (a job may
     not be parallelized, Section 3.1),
   * splittable — no additional rule.

Conventions: idle time is allowed anywhere; the machine keeps its
configuration across idle gaps (a setup of class ``i`` remains valid until an
item of a different class is processed).  This is the weakest reading of the
model and every construction in the paper satisfies it; all constructions
here are additionally *gap-consistent* (the setup immediately precedes its
batch) but we do not reject foreign schedules that rely on idle gaps.

Everything is exact: all comparisons are on rationals, so "off by 1/10^9"
bugs cannot hide.

Two implementations coexist:

* the **scalar** validator (:func:`validate_schedule_scalar`) — the
  historical placement-by-placement reference, one :class:`Placement` and
  one rational comparison at a time;
* the **columnar** validator (:func:`validate_columns`) — runs directly
  over a :class:`~repro.core.schedule.ScheduleColumns` store at a common
  integer scale, vectorized with numpy int64 when available (same
  optional-``[batch]`` policy and exact-overflow precheck as
  :mod:`repro.core.xbatch`) and falling back to an exact Python-int
  loop otherwise.  Verdicts are **bit-identical** to the scalar
  validator: same accept/reject, same makespan, and on rejection the
  same ``reason`` tag and detail message (checks run in the same order
  and scan rows in the scalar validator's machine-major order) — the
  differential and mutation suites assert this.

:func:`validate_schedule` always runs the columnar validator over the
schedule's column store (no placement materialization at all); the
scalar validator is the reference the differential and mutation suites
compare it against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bounds import Variant
from .errors import InfeasibleScheduleError
from .instance import Instance, JobRef
from .numeric import Time, TimeLike, as_time, time_str
from .schedule import Placement, Schedule, ScheduleColumns

try:  # pragma: no cover - exercised via both branches in CI matrices
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Conservative ceiling for every vectorized intermediate (int64 headroom).
_GUARD = 1 << 62


def validate_schedule(
    schedule: Schedule,
    variant: Variant,
    makespan_bound: Optional[TimeLike] = None,
) -> Time:
    """Validate ``schedule`` for ``variant``; return its makespan.

    Raises :class:`InfeasibleScheduleError` with a machine-readable
    ``reason`` tag on the first violation found.  The check runs on the
    schedule's columns (:func:`validate_columns`), whose verdicts match
    the scalar reference :func:`validate_schedule_scalar`.
    """
    return validate_columns(
        schedule.instance, schedule.columns(), variant, makespan_bound
    )


def validate_schedule_scalar(
    schedule: Schedule,
    variant: Variant,
    makespan_bound: Optional[TimeLike] = None,
) -> Time:
    """The placement-by-placement reference validator."""
    _check_placement_sanity(schedule)
    _check_machine_overlap(schedule)
    _check_setup_states(schedule)
    _check_job_completeness(schedule)
    if variant is Variant.NONPREEMPTIVE:
        _check_nonpreemptive(schedule)
    elif variant is Variant.PREEMPTIVE:
        _check_no_self_parallelism(schedule)
    cmax = schedule.makespan()
    if makespan_bound is not None:
        bound = as_time(makespan_bound)
        if cmax > bound:
            raise InfeasibleScheduleError(
                "makespan",
                f"makespan {time_str(cmax)} exceeds bound {time_str(bound)}",
            )
    return cmax


def is_feasible(
    schedule: Schedule,
    variant: Variant,
    makespan_bound: Optional[TimeLike] = None,
) -> bool:
    """Boolean wrapper around :func:`validate_schedule`."""
    try:
        validate_schedule(schedule, variant, makespan_bound)
    except InfeasibleScheduleError:
        return False
    return True


# --------------------------------------------------------------------------- #
# columnar validator
# --------------------------------------------------------------------------- #


def validate_columns(
    instance: Instance,
    cols: ScheduleColumns,
    variant: Variant,
    makespan_bound: Optional[TimeLike] = None,
) -> Time:
    """Validate a column store directly; verdicts match the scalar validator.

    The int64 tier runs when numpy is importable and the exact-integer
    precheck clears; otherwise the Python-int tier does.  Both tiers are
    bit-identical by construction and differential-tested.

    One reason tag is columnar-only: ``"bad-machine"`` rejects rows whose
    machine index falls outside ``[0, m)``.  A :class:`Schedule` can
    never hold such a placement (``add`` refuses it), so the scalar
    validator has no corresponding rule — but a raw column store built
    by hand can, and both tiers must reject it identically.
    """
    L, starts, lengths = cols.scaled()
    n = len(cols)
    mach = cols.machine
    if n and not 0 <= min(mach) <= max(mach) < instance.m:
        k = next(k for k in range(n) if not 0 <= mach[k] < instance.m)
        raise InfeasibleScheduleError(
            "bad-machine",
            f"machine {mach[k]} out of range [0, {instance.m}): row {k}",
        )
    if _np is not None and n > 0 and _columns_safe(instance, cols, L, starts, lengths):
        cmax = _validate_columns_np(instance, cols, L, starts, lengths, variant)
    else:
        cmax = _validate_columns_py(instance, cols, L, starts, lengths, variant)
    if makespan_bound is not None:
        bound = as_time(makespan_bound)
        if cmax > bound:
            raise InfeasibleScheduleError(
                "makespan",
                f"makespan {time_str(cmax)} exceeds bound {time_str(bound)}",
            )
    return cmax


def _columns_safe(instance, cols, L, starts, lengths) -> bool:
    """Exact-integer bound on every int64 intermediate of the numpy tier.

    A miss only costs speed — the caller drops to the Python-int tier,
    never precision.  Bounds checked: scaled starts/ends/lengths, the
    expected per-row quantities (``s_i·L``, ``t_j·L``), and the
    accumulated per-job totals (bounded by the total scheduled length).
    """
    mx_s = max(map(abs, starts), default=0)
    mx_l = max(map(abs, lengths), default=0)
    tot_l = sum(map(abs, lengths))
    return (
        mx_s + mx_l < _GUARD
        and tot_l < _GUARD
        and L * max(instance.smax, instance.tmax, 1) < _GUARD
        and L * instance.total_processing < _GUARD
    )


# ---- shared error formatting (tags and messages match the scalar checks) -- #


def _raise_sanity(instance: Instance, p: Placement, code: int) -> None:
    if code == 1:
        raise InfeasibleScheduleError("negative-start", str(p))
    if code == 2:
        raise InfeasibleScheduleError("bad-class", str(p))
    if code == 3:
        expected = Fraction(instance.setups[p.cls])
        raise InfeasibleScheduleError(
            "setup-preempted",
            f"{p} has length {time_str(p.length)}, setup s_{p.cls} is "
            f"{time_str(expected)} (setups may not be split)",
        )
    if code == 4:
        raise InfeasibleScheduleError("unknown-job", str(p))
    if code == 5:
        raise InfeasibleScheduleError("empty-piece", str(p))
    if code == 6:
        raise InfeasibleScheduleError(
            "piece-too-long",
            f"{p}: piece longer than t_j={instance.job_time(p.job)}",
        )
    raise AssertionError(f"unknown sanity code {code}")  # pragma: no cover


def _sanity_code(instance: Instance, cols: ScheduleColumns, k: int) -> int:
    """First violated sanity sub-rule of row ``k`` (0 = clean).

    Same per-row precedence as the scalar ``_check_placement_sanity``.
    """
    if cols.start_num[k] < 0:
        return 1
    c = cols.cls[k]
    if not 0 <= c < instance.c:
        return 2
    d = cols.den[k]
    ln = cols.length_num[k]
    idx = cols.job_idx[k]
    if idx < 0:  # setup
        if ln != instance.setups[c] * d:
            return 3
        return 0
    if idx >= instance.class_sizes[c]:
        return 4
    if ln <= 0:
        return 5
    if ln > instance.jobs[c][idx] * d:
        return 6
    return 0


def _raise_overlap(cols: ScheduleColumns, prev: int, cur: int) -> None:
    p, q = cols.row_placement(prev), cols.row_placement(cur)
    raise InfeasibleScheduleError("overlap", f"machine {p.machine}: {p} overlaps {q}")


def _raise_setup_missing(cols: ScheduleColumns, k: int, state: Optional[int]) -> None:
    p = cols.row_placement(k)
    raise InfeasibleScheduleError(
        "setup-missing",
        f"machine {p.machine}: {p} processed while machine is set up "
        f"for {'nothing' if state is None else f'class {state}'}",
    )


def _raise_incomplete(instance: Instance, job: JobRef, got: Time) -> None:
    raise InfeasibleScheduleError(
        "job-incomplete",
        f"{job}: scheduled {time_str(got)} of t_j={instance.job_time(job)}",
    )


def _raise_preempted(cols: ScheduleColumns, first: int, second: int) -> None:
    p, q = cols.row_placement(first), cols.row_placement(second)
    raise InfeasibleScheduleError(
        "job-preempted", f"{q.job} split into pieces {p} and {q}"
    )


def _raise_parallel(cols: ScheduleColumns, prev: int, cur: int) -> None:
    p, q = cols.row_placement(prev), cols.row_placement(cur)
    raise InfeasibleScheduleError(
        "job-parallel", f"{p.job}: piece {p} runs in parallel with {q}"
    )


# ---- Python-int tier ------------------------------------------------------ #


def _validate_columns_py(
    instance: Instance, cols: ScheduleColumns, L, starts, lengths, variant: Variant
) -> Time:
    n = len(cols)
    m = instance.m
    mach, jidx, clsa = cols.machine, cols.job_idx, cols.cls

    # Machine-major row order == the scalar validator's iter_all order.
    rows_by_machine: list[list[int]] = [[] for _ in range(m)]
    for k in range(n):
        rows_by_machine[mach[k]].append(k)

    # 1. placement sanity
    for rows in rows_by_machine:
        for k in rows:
            code = _sanity_code(instance, cols, k)
            if code:
                _raise_sanity(instance, cols.row_placement(k), code)

    # 2. machine overlap — all machines, before any setup-state check
    #    (the scalar validator runs the checks as whole passes, so a
    #    schedule violating both on different machines must report the
    #    overlap; the numpy tier does the same)
    cmax_sc = 0
    sorted_by_machine: list[list[int]] = []
    for rows in rows_by_machine:
        rows_sorted = sorted(rows, key=lambda k: (starts[k], starts[k] + lengths[k]))
        sorted_by_machine.append(rows_sorted)
        prev_end = None
        prev_k = -1
        for k in rows_sorted:
            s, e = starts[k], starts[k] + lengths[k]
            if prev_end is not None and s < prev_end:
                _raise_overlap(cols, prev_k, k)
            prev_end, prev_k = e, k
            if e > cmax_sc:
                cmax_sc = e

    # 3. setup states
    for rows_sorted in sorted_by_machine:
        state: Optional[int] = None
        for k in rows_sorted:
            if jidx[k] < 0:
                state = clsa[k]
            elif state != clsa[k]:
                _raise_setup_missing(cols, k, state)

    # 4. job completeness
    totals: dict[tuple[int, int], int] = {}
    for k in range(n):
        if jidx[k] >= 0:
            key = (clsa[k], jidx[k])
            totals[key] = totals.get(key, 0) + lengths[k]
    for job, t in instance.iter_jobs():
        got = totals.pop((job.cls, job.idx), 0)
        if got != t * L:
            _raise_incomplete(instance, job, Fraction(got, L))
    # extra pieces of non-existent jobs are caught in sanity already

    # 5. variant rules
    if variant is Variant.NONPREEMPTIVE:
        seen: dict[tuple[int, int], int] = {}
        for rows in rows_by_machine:
            for k in rows:
                if jidx[k] < 0:
                    continue
                key = (clsa[k], jidx[k])
                if key in seen:
                    _raise_preempted(cols, seen[key], k)
                seen[key] = k
    elif variant is Variant.PREEMPTIVE:
        pieces: dict[tuple[int, int], list[int]] = {}
        for rows in rows_by_machine:
            for k in rows:
                if jidx[k] >= 0:
                    pieces.setdefault((clsa[k], jidx[k]), []).append(k)
        for key, plist in pieces.items():
            plist.sort(key=lambda k: (starts[k], starts[k] + lengths[k]))
            for prev, cur in zip(plist, plist[1:]):
                if starts[cur] < starts[prev] + lengths[prev]:
                    _raise_parallel(cols, prev, cur)

    return Fraction(cmax_sc, L) if n else Fraction(0)


# ---- numpy int64 tier ----------------------------------------------------- #


def _validate_columns_np(
    instance: Instance, cols: ScheduleColumns, L, starts, lengths, variant: Variant
) -> Time:
    n = len(cols)
    c = instance.c
    mach, sn, ln, clsa, jidx = (
        _np.asarray(col, dtype=_np.int64)
        for col in (cols.machine, starts, lengths, cols.cls, cols.job_idx)
    )
    is_setup = jidx < 0

    # Machine-major, insertion-stable order (== the scalar iter_all order).
    order0 = _np.argsort(mach, kind="stable")

    # per-class / per-job expected quantities at scale L
    setups_L = _np.asarray(instance.setups, dtype=_np.int64) * L
    sizes = _np.asarray(instance.class_sizes, dtype=_np.int64)
    joff = _np.zeros(c + 1, dtype=_np.int64)
    _np.cumsum(sizes, out=joff[1:])
    flat_t = _np.asarray(
        [t for times in instance.jobs for t in times], dtype=_np.int64
    )

    # 1. placement sanity (per-row precedence == the scalar sub-rule order)
    cls_clip = _np.clip(clsa, 0, c - 1)
    idx_clip = _np.clip(jidx, 0, None)
    idx_clip = _np.minimum(idx_clip, sizes[cls_clip] - 1)
    key_clip = joff[cls_clip] + idx_clip
    conds = [
        sn < 0,
        (clsa < 0) | (clsa >= c),
        is_setup & (ln != setups_L[cls_clip]),
        ~is_setup & (jidx >= sizes[cls_clip]),
        ~is_setup & (ln <= 0),
        ~is_setup & (ln > flat_t[key_clip] * L),
    ]
    viol = _np.select(conds, [1, 2, 3, 4, 5, 6], default=0)
    if viol.any():
        in_order = viol[order0]
        k = int(order0[int(_np.argmax(in_order > 0))])
        _raise_sanity(instance, cols.row_placement(k), int(viol[k]))

    # 2. machine overlap (machine-major, (start, end)-sorted, stable)
    end = sn + ln
    order = _np.lexsort((end, sn, mach))
    sm, ss, se = mach[order], sn[order], end[order]
    same = sm[1:] == sm[:-1]
    bad = same & (ss[1:] < se[:-1])
    if bad.any():
        i = int(_np.argmax(bad))
        _raise_overlap(cols, int(order[i]), int(order[i + 1]))

    # 3. setup states: forward-fill the last setup position per machine
    pos = _np.arange(n, dtype=_np.int64)
    setup_pos = _np.where(is_setup[order], pos, -1)
    ff = _np.maximum.accumulate(setup_pos)
    new_mach = _np.empty(n, dtype=bool)
    new_mach[0] = True
    new_mach[1:] = sm[1:] != sm[:-1]
    mstart = _np.maximum.accumulate(_np.where(new_mach, pos, 0))
    configured = ff >= mstart
    cls_o = clsa[order]
    state_cls = _np.where(configured, cls_o[_np.maximum(ff, 0)], -1)
    bad = ~is_setup[order] & (state_cls != cls_o)
    if bad.any():
        i = int(_np.argmax(bad))
        state = int(state_cls[i])
        _raise_setup_missing(cols, int(order[i]), None if state < 0 else state)

    # 4. job completeness (exact: int64 adds, bounded by the precheck)
    n_jobs = int(joff[-1])
    totals = _np.zeros(n_jobs, dtype=_np.int64)
    jrows = ~is_setup
    if jrows.any():
        keys = joff[clsa[jrows]] + jidx[jrows]
        _np.add.at(totals, keys, ln[jrows])
    expected = flat_t * L
    bad = totals != expected
    if bad.any():
        j = int(_np.argmax(bad))
        cls = int(_np.searchsorted(joff, j, side="right")) - 1
        job = JobRef(cls, j - int(joff[cls]))
        _raise_incomplete(instance, job, Fraction(int(totals[j]), L))

    # 5. variant rules
    if variant is Variant.NONPREEMPTIVE:
        rows_j = order0[~is_setup[order0]]
        if rows_j.size:
            keys_in_order = joff[clsa[rows_j]] + jidx[rows_j]
            counts = _np.bincount(keys_in_order, minlength=n_jobs)
            if (counts > 1).any():
                perm = _np.argsort(keys_in_order, kind="stable")
                sk = keys_in_order[perm]
                dup_mark = _np.zeros(rows_j.size, dtype=bool)
                dup_mark[perm[1:][sk[1:] == sk[:-1]]] = True
                p2 = int(_np.argmax(dup_mark))  # first 2nd-occurrence, iter order
                key = keys_in_order[p2]
                p1 = int(_np.argmax(keys_in_order == key))
                _raise_preempted(cols, int(rows_j[p1]), int(rows_j[p2]))
    elif variant is Variant.PREEMPTIVE:
        rows_j = _np.nonzero(~is_setup)[0]
        if rows_j.size:
            keys = joff[clsa[rows_j]] + jidx[rows_j]
            # first-appearance position of each job in iter_all order
            iter_rank = _np.empty(n, dtype=_np.int64)
            iter_rank[order0] = pos
            jorder = _np.lexsort((end[rows_j], sn[rows_j], keys))
            kk = keys[jorder]
            same = kk[1:] == kk[:-1]
            bad = same & (sn[rows_j][jorder][1:] < end[rows_j][jorder][:-1])
            if bad.any():
                # match the scalar validator: first violating *job* in
                # first-appearance order, then its first violating pair
                bad_idx = _np.nonzero(bad)[0]
                bad_keys = kk[bad_idx + 1]
                first_app = _np.full(n_jobs, n, dtype=_np.int64)
                _np.minimum.at(first_app, keys, iter_rank[rows_j])
                pick = bad_idx[int(_np.argmin(first_app[bad_keys]))]
                _raise_parallel(
                    cols,
                    int(rows_j[jorder[pick]]),
                    int(rows_j[jorder[pick + 1]]),
                )

    cmax_sc = int(end.max()) if n else 0
    return Fraction(cmax_sc, L) if n else Fraction(0)


# --------------------------------------------------------------------------- #
# individual scalar rules (exposed for targeted unit tests)
# --------------------------------------------------------------------------- #


def _check_placement_sanity(schedule: Schedule) -> None:
    inst = schedule.instance
    for p in schedule.iter_all():
        if p.start < 0:
            raise InfeasibleScheduleError("negative-start", str(p))
        if not 0 <= p.cls < inst.c:
            raise InfeasibleScheduleError("bad-class", str(p))
        if p.is_setup:
            expected = Fraction(inst.setups[p.cls])
            if p.length != expected:
                raise InfeasibleScheduleError(
                    "setup-preempted",
                    f"{p} has length {time_str(p.length)}, setup s_{p.cls} is "
                    f"{time_str(expected)} (setups may not be split)",
                )
        else:
            job = p.job
            assert job is not None
            if not (0 <= job.cls < inst.c and 0 <= job.idx < len(inst.jobs[job.cls])):
                raise InfeasibleScheduleError("unknown-job", str(p))
            if job.cls != p.cls:
                raise InfeasibleScheduleError(
                    "class-mismatch", f"{p}: piece tagged class {p.cls}, job is {job}"
                )
            if p.length <= 0:
                raise InfeasibleScheduleError("empty-piece", str(p))
            if p.length > inst.job_time(job):
                raise InfeasibleScheduleError(
                    "piece-too-long",
                    f"{p}: piece longer than t_j={inst.job_time(job)}",
                )


def _check_machine_overlap(schedule: Schedule) -> None:
    for u in range(schedule.instance.m):
        items = schedule.items_on(u)
        for prev, cur in zip(items, items[1:]):
            if cur.start < prev.end:
                raise InfeasibleScheduleError(
                    "overlap",
                    f"machine {u}: {prev} overlaps {cur}",
                )


def _check_setup_states(schedule: Schedule) -> None:
    """The machine must be configured for class ``i`` when it processes it."""
    for u in range(schedule.instance.m):
        state: Optional[int] = None
        for p in schedule.items_on(u):
            if p.is_setup:
                state = p.cls
            else:
                if state != p.cls:
                    raise InfeasibleScheduleError(
                        "setup-missing",
                        f"machine {u}: {p} processed while machine is set up "
                        f"for {'nothing' if state is None else f'class {state}'}",
                    )


def _check_job_completeness(schedule: Schedule) -> None:
    inst = schedule.instance
    totals: dict[JobRef, Fraction] = {}
    for p in schedule.iter_all():
        if not p.is_setup:
            assert p.job is not None
            totals[p.job] = totals.get(p.job, Fraction(0)) + p.length
    for job, t in inst.iter_jobs():
        got = totals.pop(job, Fraction(0))
        if got != t:
            raise InfeasibleScheduleError(
                "job-incomplete",
                f"{job}: scheduled {time_str(got)} of t_j={t}",
            )
    if totals:  # pieces of jobs that do not exist are caught in sanity already
        raise InfeasibleScheduleError("job-unknown", f"extra pieces: {totals}")


def _check_no_self_parallelism(schedule: Schedule) -> None:
    """Preemptive rule: a job never runs on two machines at the same time."""
    pieces: dict[JobRef, list[Placement]] = {}
    for p in schedule.iter_all():
        if not p.is_setup:
            assert p.job is not None
            pieces.setdefault(p.job, []).append(p)
    for job, plist in pieces.items():
        plist.sort(key=lambda p: (p.start, p.end))
        for prev, cur in zip(plist, plist[1:]):
            if cur.start < prev.end:
                raise InfeasibleScheduleError(
                    "job-parallel",
                    f"{job}: piece {prev} runs in parallel with {cur}",
                )


def _check_nonpreemptive(schedule: Schedule) -> None:
    """Non-preemptive rule: one contiguous piece per job."""
    seen: dict[JobRef, Placement] = {}
    for p in schedule.iter_all():
        if p.is_setup:
            continue
        assert p.job is not None
        if p.job in seen:
            raise InfeasibleScheduleError(
                "job-preempted",
                f"{p.job} split into pieces {seen[p.job]} and {p}",
            )
        seen[p.job] = p
    # piece length == t_j is then implied by completeness, checked separately.
