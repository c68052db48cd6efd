"""Explicit schedule representation — a columnar store with lazy placements.

A :class:`Schedule` is a set of :class:`Placement` items — setups and job
pieces — each pinned to a machine and a closed-open time interval
``[start, start+length)``.  This is the *stronger* notion of schedule from
Section 3.2: the splittable algorithms may compute machine configurations
with multiplicities internally (see :mod:`repro.core.wrapping`), but
everything is materialized into explicit placements before validation, so
the validators never have to trust an algorithm's own bookkeeping.

A schedule *is* its :class:`ScheduleColumns` store: one row per
placement as five parallel scaled-integer columns

    ``machine | start_num | length_num | cls | job_idx``

at one common integer ``scale``: ``start = start_num/scale`` and
``length = length_num/scale`` are exact rationals, and ``job_idx = -1``
marks a setup.  Every append names the denominator ``den`` of its own
numerators; the store keeps ``scale`` the lcm of every ``den`` appended
so far (1 for a new store), and a ``den`` that does not divide it grows
``scale`` to ``lcm(scale, den)`` and rescales the stored starts and
lengths in place.  The columns are plain Python-int lists from the first
append to the wire: the construction hot paths (the wrap engine,
Algorithm 6's materializer, Algorithm 2's step 1) splice their row lists
in at C speed, the wire encoder copies them through
:meth:`Schedule.rows`, the process backend pickles copies of them with
the scale (:meth:`ScheduleColumns.to_ipc`), and
:mod:`repro.core.validate` checks them directly.  :class:`Placement`
objects — and their :class:`~fractions.Fraction` times — are
materialized *lazily*, only when a caller actually iterates placements;
aggregate queries (``makespan``, ``machine_load``, ``machine_end``) are
answered from the columns.  Rows of any magnitude stay exact on every
path.

A placement the columns cannot encode — a piece whose class differs from
its job's class, or whose job index is negative — is refused by
:meth:`Schedule.add` with a :class:`ValueError`, like an out-of-range
machine or a negative start or length.

All times are exact rationals (:mod:`repro.core.numeric`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, NamedTuple, Optional

from .instance import Instance, JobRef
from .numeric import Time, TimeLike, as_time, fast_fraction, time_str


@dataclass(frozen=True)
class Placement:
    """One contiguous item on one machine.

    ``job is None`` marks a setup of class ``cls``; otherwise the placement
    is a *job piece* of ``job`` (a full job is a single piece covering its
    whole processing time).
    """

    machine: int
    start: Time
    length: Time
    cls: int
    job: Optional[JobRef] = None

    @property
    def end(self) -> Time:
        return self.start + self.length

    @property
    def is_setup(self) -> bool:
        return self.job is None

    def shifted(self, delta: TimeLike) -> "Placement":
        """Copy moved by ``delta`` in time."""
        return replace(self, start=self.start + as_time(delta))

    def on_machine(self, machine: int) -> "Placement":
        """Copy moved to another machine (same times)."""
        return replace(self, machine=machine)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = f"setup(s{self.cls})" if self.is_setup else f"job({self.job})"
        return f"[{time_str(self.start)},{time_str(self.end)}) {kind} @M{self.machine}"


def _new_placement(machine: int, start, length, cls: int, job=None) -> Placement:
    """Allocate a :class:`Placement` without the frozen-dataclass ``__init__``.

    Frozen dataclasses assign fields through ``object.__setattr__``, which
    is measurable at ~one placement per job on the materialization hot
    path; writing the instance ``__dict__`` directly produces an identical
    object.
    """
    p = object.__new__(Placement)
    p.__dict__["machine"] = machine
    p.__dict__["start"] = start
    p.__dict__["length"] = length
    p.__dict__["cls"] = cls
    p.__dict__["job"] = job
    return p


def _check_den(den: int) -> None:
    if den < 1:
        raise ValueError(f"denominator must be positive, got {den}")


class ScheduleColumns:
    """Five parallel int columns at one common ``scale``, one row per placement.

    Row ``k`` encodes the placement ``[start_num[k]/scale,
    (start_num[k]+length_num[k])/scale)`` of class ``cls[k]`` on machine
    ``machine[k]``; ``job_idx[k] = -1`` marks a setup, otherwise the row
    is a piece of ``JobRef(cls[k], job_idx[k])``.  Numerators need not be
    normalized against ``scale`` — materialization reduces exactly.

    Every append takes its numerators at a denominator ``den >= 1``
    (anything smaller is a :class:`ValueError`) and stores them times
    ``scale // den``; a ``den`` that does not divide ``scale`` first grows
    ``scale`` to ``lcm(scale, den)``, multiplying the stored starts and
    lengths in place.  So ``scale`` is the lcm of every ``den`` appended
    so far, starting at 1.

    Every column is a plain Python-int list: the emission paths
    (:meth:`extend_scaled`, :meth:`extend_runs`) splice their row lists in
    at C pointer speed, and readers copy what they keep.
    """

    __slots__ = ("machine", "start_num", "length_num", "cls", "job_idx", "scale")

    _COL_NAMES = ("machine", "start_num", "length_num", "cls", "job_idx")

    def __init__(self) -> None:
        self.machine: list[int] = []
        self.start_num: list[int] = []
        self.length_num: list[int] = []
        self.cls: list[int] = []
        self.job_idx: list[int] = []
        self.scale = 1

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #

    def _factor(self, den: int) -> int:
        """``scale // den`` once ``scale`` is a multiple of ``den``."""
        _check_den(den)
        scale = self.scale
        if scale % den:
            grow = den // gcd(scale, den)
            self.start_num[:] = [v * grow for v in self.start_num]
            self.length_num[:] = [v * grow for v in self.length_num]
            self.scale = scale = scale * grow
        return scale // den

    def append_scaled(
        self,
        machine: int,
        start_num: int,
        length_num: int,
        den: int,
        cls: int,
        job_idx: int,
    ) -> None:
        """Append one row; ``start = start_num/den``, ``length = length_num/den``.

        The caller is responsible for range/sign checks — this is the raw
        emission primitive behind :meth:`Schedule.add_scaled` and the
        construction kernels.
        """
        f = self._factor(den)
        self.machine.append(machine)
        self.start_num.append(start_num * f)
        self.length_num.append(length_num * f)
        self.cls.append(cls)
        self.job_idx.append(job_idx)

    def extend_scaled(
        self,
        machines,
        start_nums,
        length_nums,
        den: int,
        clss,
        job_idxs,
    ) -> None:
        """Bulk :meth:`append_scaled`: parallel rows sharing one ``den``.

        The emission hot paths (the wrap engine, Algorithm 6's
        materializer) collect plain Python lists and flush them here —
        list extends splice them in at C pointer speed, replacing five
        method calls per row with one per column per burst.  An empty
        burst leaves the store, its ``scale`` included, as it was.
        """
        if not len(machines):
            return
        f = self._factor(den)
        if f != 1:
            start_nums = [v * f for v in start_nums]
            length_nums = [v * f for v in length_nums]
        self.machine.extend(machines)
        self.start_num.extend(start_nums)
        self.length_num.extend(length_nums)
        self.cls.extend(clss)
        self.job_idx.extend(job_idxs)

    def extend_runs(self, runs, den: int) -> None:
        """Bulk-append stacked machine runs sharing one ``den``.

        ``runs`` yields ``(machine, lengths, clss, job_idxs)`` with items
        bottom to top; starts are the running prefix sums of ``lengths``
        (the no-idle-below-the-top-item invariant of the emitting
        constructions), and lengths must be non-negative — this is the
        trusted hand-off path of the Algorithm-6
        :class:`~repro.core.itemstore.ItemStore`.  Splicing the store's
        column slices into the list columns is pointer-copy cheap.
        ``den`` joins the scale even when ``runs`` holds no rows.
        """
        f = self._factor(den)
        mach, sn, ln = self.machine, self.start_num, self.length_num
        cl, ji = self.cls, self.job_idx
        for u, lens, clss, jidxs in runs:
            n = len(lens)
            if not n:
                continue
            if f != 1:
                lens = [v * f for v in lens]
            starts = list(accumulate(lens, initial=0))
            starts.pop()
            mach.extend([u] * n)
            sn.extend(starts)
            ln.extend(lens)
            cl.extend(clss)
            ji.extend(jidxs)

    def append_placement(self, p: Placement) -> None:
        """Append a :class:`Placement` (its two rationals at one ``den``)."""
        start, length = p.start, p.length
        sd = start.denominator
        ld = length.denominator
        den = lcm(sd, ld)
        job = p.job
        self.append_scaled(
            p.machine,
            start.numerator * (den // sd),
            length.numerator * (den // ld),
            den,
            p.cls,
            -1 if job is None else job.idx,
        )

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.machine)

    def slice_placements(self, lo: int, hi: int) -> list[Placement]:
        """Materialize rows ``[lo, hi)`` in row (append) order."""
        scale = self.scale
        mach, sn, ln = self.machine, self.start_num, self.length_num
        cl, ji = self.cls, self.job_idx
        return [
            _new_placement(
                mach[k],
                fast_fraction(sn[k], scale),
                fast_fraction(ln[k], scale),
                cl[k],
                None if ji[k] < 0 else JobRef(cl[k], ji[k]),
            )
            for k in range(lo, hi)
        ]

    def row_placement(self, k: int) -> Placement:
        """Materialize row ``k`` as a :class:`Placement`."""
        return self.slice_placements(k, k + 1)[0]

    def to_placements(self, m: int) -> list[list[Placement]]:
        """Materialize all rows into per-machine lists (insertion order)."""
        by_machine: list[list[Placement]] = [[] for _ in range(m)]
        for p in self.slice_placements(0, len(self)):
            by_machine[p.machine].append(p)
        return by_machine

    def copy(self) -> "ScheduleColumns":
        out = ScheduleColumns.__new__(ScheduleColumns)
        for name in self._COL_NAMES:
            setattr(out, name, getattr(self, name)[:])
        out.scale = self.scale
        return out

    # ------------------------------------------------------------------ #
    # cross-process transport
    # ------------------------------------------------------------------ #

    def to_ipc(self) -> list:
        """Wire form for cross-process transport: the scale, then fresh
        copies of the five int lists in :attr:`_COL_NAMES` order.

        Pickle ships them exact at any magnitude, and later appends to
        this store do not reach the payload.  Inverse: :meth:`from_ipc`.
        """
        return [self.scale, *(getattr(self, name)[:] for name in self._COL_NAMES)]

    @classmethod
    def from_ipc(cls, payload) -> "ScheduleColumns":
        """Adopt the scale and five int lists of a :meth:`to_ipc` payload
        (post-unpickle).

        Raises :class:`ValueError` unless the payload is an int scale of at
        least 1 followed by five lists of equal length.
        """
        if (
            not isinstance(payload, list)
            or len(payload) != 1 + len(cls._COL_NAMES)
            or type(payload[0]) is not int
            or payload[0] < 1
            or not all(type(col) is list for col in payload[1:])
            or len({len(col) for col in payload[1:]}) != 1
        ):
            raise ValueError("malformed ScheduleColumns IPC payload")
        out = cls()
        out.scale = payload[0]
        for name, col in zip(cls._COL_NAMES, payload[1:]):
            setattr(out, name, col)
        return out


class ScheduleRows(NamedTuple):
    """A bulk row projection of a schedule at one common scale.

    Parallel plain int lists, one entry per placement in storage order:
    ``start = start_num[k]/scale`` and ``length = length_num[k]/scale``
    exact rationals, ``job_idx[k] = -1`` marks a setup (otherwise the row
    is a piece of job ``(cls[k], job_idx[k])``).  This is the reader for
    bulk consumers (Gantt extraction, figure filters, analysis sweeps,
    the wire encoder) that only need starts/lengths/classes and should
    not materialize :class:`Placement`/:class:`~fractions.Fraction`
    objects.
    """

    machine: list[int]
    start_num: list[int]
    length_num: list[int]
    cls: list[int]
    job_idx: list[int]
    scale: int

    def __len__(self) -> int:
        return len(self.machine)


class Schedule:
    """A bag of placements with per-machine indexing, held as columns.

    The class is deliberately permissive about feasibility — algorithms
    build schedules through it — and :mod:`repro.core.validate` is the
    single source of truth for that; it refuses only what its
    :class:`ScheduleColumns` store cannot hold (see :meth:`add`).

    Appends land in the column store, and no :class:`Placement` exists
    until a caller iterates (``items_on``/``iter_all``/...), at which
    point a materialized per-machine view is built and cached until the
    next append.
    """

    def __init__(self, instance: Instance, placements: Iterable[Placement] = ()):
        self.instance = instance
        self._cols = ScheduleColumns()
        self._by_machine: Optional[list[list[Placement]]] = None
        self._scan: Optional[dict] = None
        for p in placements:
            self.add(p)

    # ------------------------------------------------------------------ #
    # columnar plumbing
    # ------------------------------------------------------------------ #

    def columns(self) -> ScheduleColumns:
        """The backing column store."""
        return self._cols

    @classmethod
    def from_columns(cls, instance: Instance, cols: ScheduleColumns) -> "Schedule":
        """A schedule adopting ``cols`` as its backing column store.

        The transport-side constructor: the process-shard protocol ships
        :meth:`ScheduleColumns.to_ipc` payloads and rebuilds the child's
        schedule here without materializing a single
        :class:`Placement`.  The caller hands over ownership of
        ``cols``.
        """
        sched = cls(instance)
        sched._cols = cols
        return sched

    def _columns_for_append(self) -> ScheduleColumns:
        """The column store, with the cached read views dropped.

        Construction kernels that emit many rows grab this once and call
        :meth:`ScheduleColumns.extend_scaled` directly; the cached
        materialization/aggregate views are dropped up front so reads
        after the burst rebuild from the full column set.
        """
        self._by_machine = None
        self._scan = None
        return self._cols

    def _materialized(self) -> list[list[Placement]]:
        bm = self._by_machine
        if bm is None:
            bm = self._cols.to_placements(self.instance.m)
            self._by_machine = bm
        return bm

    def _scan_cache(self) -> dict:
        """Per-machine scaled loads/ends, one O(rows) pass over the columns."""
        sc = self._scan
        if sc is None:
            cols = self._cols
            m = self.instance.m
            loads = [0] * m
            ends: list[Optional[int]] = [None] * m
            counts = [0] * m
            for u, sn, ln in zip(cols.machine, cols.start_num, cols.length_num):
                loads[u] += ln
                e = sn + ln
                cur = ends[u]
                if cur is None or e > cur:
                    ends[u] = e
                counts[u] += 1
            sc = {"loads": loads, "ends": ends, "counts": counts}
            self._scan = sc
        return sc

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(self, placement: Placement) -> Placement:
        """Append one placement.

        Raises :class:`ValueError` for a machine outside ``[0, m)``, a
        negative length or start, and a piece the columns cannot encode:
        one whose class differs from its job's class (the row and its
        :class:`~repro.core.instance.JobRef` share one class column) or
        whose job index is negative (``job_idx = -1`` marks a setup).
        """
        if not 0 <= placement.machine < self.instance.m:
            raise ValueError(
                f"machine {placement.machine} out of range [0, {self.instance.m})"
            )
        if placement.length < 0:
            raise ValueError(f"negative length placement: {placement}")
        if placement.start < 0:
            raise ValueError(f"placement starts before time 0: {placement}")
        job = placement.job
        if job is not None and (job.cls != placement.cls or job.idx < 0):
            raise ValueError(
                f"placement has no columnar encoding "
                f"(class mismatch or negative job index): {placement}"
            )
        self._columns_for_append().append_placement(placement)
        return placement

    def add_scaled(
        self,
        machine: int,
        start_num: int,
        length_num: int,
        den: int,
        cls: int,
        job: Optional[JobRef] = None,
    ) -> None:
        """Append ``[start_num/den, (start_num+length_num)/den)`` directly.

        The scaled-integer construction paths use this to emit rows
        without materializing a :class:`~fractions.Fraction` or
        :class:`Placement`; rows are refused exactly like :meth:`add`,
        and a ``den`` below 1 like every append to the store.
        """
        job_idx = -1 if job is None else job.idx
        if (
            0 <= machine < self.instance.m
            and start_num >= 0
            and length_num >= 0
            and (job is None or (job.cls == cls and job_idx >= 0))
        ):
            self._columns_for_append().append_scaled(
                machine, start_num, length_num, den, cls, job_idx
            )
        else:  # add() raises the error the equal Placement gets
            _check_den(den)
            self.add(
                _new_placement(
                    machine,
                    fast_fraction(start_num, den),
                    fast_fraction(length_num, den),
                    cls,
                    job,
                )
            )

    def extend_runs(self, runs, den: int) -> None:
        """Bulk-append stacked machine runs — the trusted fast-kernel hand-off.

        ``runs`` yields ``(machine, lengths, clss, job_idxs)`` per machine,
        items bottom to top with no idle time below the top item (starts
        are the prefix sums of the scaled lengths); rows go straight into
        the column store via :meth:`ScheduleColumns.extend_runs`.  Only
        construction code whose arithmetic guarantees non-negative lengths
        may use this (sign checks are skipped);
        :mod:`repro.core.validate` remains the real feasibility gate.
        """
        m = self.instance.m

        def checked(run_iter):
            for run in run_iter:
                if not 0 <= run[0] < m:
                    raise ValueError(f"machine {run[0]} out of range [0, {m})")
                yield run

        self._columns_for_append().extend_runs(checked(runs), den)

    def add_setup(self, machine: int, start: TimeLike, cls: int) -> Placement:
        """Place a (full, non-preempted) setup of ``cls`` at ``start``."""
        return self.add(
            Placement(
                machine=machine,
                start=as_time(start),
                length=as_time(self.instance.setups[cls]),
                cls=cls,
            )
        )

    def add_piece(
        self, machine: int, start: TimeLike, job: JobRef, length: TimeLike
    ) -> Placement:
        """Place a job piece; ``length`` may be any positive rational ≤ t_j."""
        return self.add(
            Placement(
                machine=machine,
                start=as_time(start),
                length=as_time(length),
                cls=job.cls,
                job=job,
            )
        )

    def add_job(self, machine: int, start: TimeLike, job: JobRef) -> Placement:
        """Place a whole job as one piece."""
        return self.add_piece(machine, start, job, self.instance.job_time(job))

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def items_on(self, machine: int) -> list[Placement]:
        """Placements on ``machine`` sorted by start time."""
        return sorted(self._materialized()[machine], key=lambda p: (p.start, p.end))

    def iter_all(self) -> Iterator[Placement]:
        for items in self._materialized():
            yield from items

    def machine_load(self, machine: int) -> Time:
        """``L(u)`` — total setup + processing time on the machine (page 2)."""
        return fast_fraction(self._scan_cache()["loads"][machine], self._cols.scale)

    def machine_end(self, machine: int) -> Time:
        """Completion time of the machine (max placement end; 0 if empty)."""
        v = self._scan_cache()["ends"][machine]
        return Fraction(0) if v is None else fast_fraction(v, self._cols.scale)

    def makespan(self) -> Time:
        """``C_max`` — the latest completion time over all machines."""
        # the latest row end, in one C-speed pass
        cols = self._cols
        return fast_fraction(
            max(map(add, cols.start_num, cols.length_num), default=0), cols.scale
        )

    def total_load(self) -> Time:
        """``L(σ) = Σ_u L(u)``."""
        return fast_fraction(sum(self._scan_cache()["loads"]), self._cols.scale)

    def used_machines(self) -> list[int]:
        counts = self._scan_cache()["counts"]
        return [u for u in range(self.instance.m) if counts[u]]

    def rows(self) -> ScheduleRows:
        """Bulk row projection at the store's scale (see :class:`ScheduleRows`).

        Every sequence is a fresh plain int list the caller owns — a
        snapshot that later appends leave unchanged — and no
        :class:`Placement` or :class:`~fractions.Fraction` is created.
        The wire encoder hands these lists to ``json.dumps`` as they are.
        """
        cols = self._cols
        return ScheduleRows(
            *(getattr(cols, name)[:] for name in cols._COL_NAMES), cols.scale
        )

    def job_pieces(self, job: JobRef) -> list[Placement]:
        """All pieces of one job across all machines."""
        return [p for p in self.iter_all() if p.job == job]

    def job_total(self, job: JobRef) -> Time:
        """Scheduled processing amount of one job."""
        cols = self._cols
        cls, idx = job.cls, job.idx
        v = sum(
            ln
            for c, ji, ln in zip(cols.cls, cols.job_idx, cols.length_num)
            if c == cls and ji == idx
        )
        return fast_fraction(v, cols.scale)

    def setup_count(self, cls: int) -> int:
        """Setup multiplicity ``λ_i`` of class ``cls`` in this schedule."""
        cols = self._cols
        return sum(1 for c, ji in zip(cols.cls, cols.job_idx) if ji < 0 and c == cls)

    def count_placements(self) -> int:
        return len(self._cols)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def copy(self) -> "Schedule":
        return Schedule.from_columns(self.instance, self._cols.copy())

    def describe(self) -> str:
        used = len(self.used_machines())
        return (
            f"Schedule(makespan={time_str(self.makespan())}, placements="
            f"{self.count_placements()}, machines_used={used}/{self.instance.m})"
        )
