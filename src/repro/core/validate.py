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
* the **columnar** validator (:func:`validate_columns`) — one exact
  Python-int pass directly over a
  :class:`~repro.core.schedule.ScheduleColumns` store at its one
  integer scale, exact at any magnitude.  Verdicts are
  **bit-identical** to the scalar validator: same accept/reject, same
  makespan, and on rejection the same ``reason`` tag and detail message
  (checks run in the same order and scan rows in the scalar validator's
  machine-major order) — the differential and mutation suites assert
  this.

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

    One reason tag is columnar-only: ``"bad-machine"`` rejects rows whose
    machine index falls outside ``[0, m)``.  A :class:`Schedule` can
    never hold such a placement (``add`` refuses it), so the scalar
    validator has no corresponding rule — but a raw column store built
    by hand can.
    """
    n = len(cols)
    mach = cols.machine
    if n and not 0 <= min(mach) <= max(mach) < instance.m:
        k = next(k for k in range(n) if not 0 <= mach[k] < instance.m)
        raise InfeasibleScheduleError(
            "bad-machine",
            f"machine {mach[k]} out of range [0, {instance.m}): row {k}",
        )
    cmax = _validate_columns_py(instance, cols, variant)
    if makespan_bound is not None:
        bound = as_time(makespan_bound)
        if cmax > bound:
            raise InfeasibleScheduleError(
                "makespan",
                f"makespan {time_str(cmax)} exceeds bound {time_str(bound)}",
            )
    return cmax


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
    scale = cols.scale
    ln = cols.length_num[k]
    idx = cols.job_idx[k]
    if idx < 0:  # setup
        if ln != instance.setups[c] * scale:
            return 3
        return 0
    if idx >= instance.class_sizes[c]:
        return 4
    if ln <= 0:
        return 5
    if ln > instance.jobs[c][idx] * scale:
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


# ---- the Python-int pass ------------------------------------------------- #


def _validate_columns_py(
    instance: Instance, cols: ScheduleColumns, variant: Variant
) -> Time:
    n = len(cols)
    m = instance.m
    L, starts, lengths = cols.scale, cols.start_num, cols.length_num
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
    #    overlap)
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
