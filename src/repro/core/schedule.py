"""Explicit schedule representation — columnar store with lazy placements.

A :class:`Schedule` is a set of :class:`Placement` items — setups and job
pieces — each pinned to a machine and a closed-open time interval
``[start, start+length)``.  This is the *stronger* notion of schedule from
Section 3.2: the splittable algorithms may compute machine configurations
with multiplicities internally (see :mod:`repro.core.wrapping`), but
everything is materialized into explicit placements before validation, so
the validators never have to trust an algorithm's own bookkeeping.

Since PR 3 the backing store is **columnar**: a :class:`ScheduleColumns`
holds one row per placement as parallel scaled-integer columns

    ``machine | start_num | length_num | den | cls | job_idx``

with ``start = start_num/den`` and ``length = length_num/den`` exact
rationals and ``job_idx = -1`` marking a setup.  The construction hot
paths (the wrap engine, Algorithm 6's materializer, Algorithm 2's step 1)
append machine integers straight into the columns; :class:`Placement`
objects — and their :class:`~fractions.Fraction` times — are materialized
*lazily*, only when a caller actually iterates placements.  Aggregate
queries (``makespan``, ``machine_load``, ``machine_end``) are answered
from the columns directly, and :mod:`repro.core.validate` runs a
vectorized validator over the raw columns.

The columns are plain Python-int lists while a schedule is being built,
so the emission paths splice their row lists in at C speed.
:meth:`ScheduleColumns.compact` turns them into :mod:`array`-module
``'q'`` (int64) buffers only for the zero-copy readers
(:meth:`Schedule.rows`, which numpy views when installed — numpy remains
the optional ``[batch]`` extra, exactly the :mod:`repro.core.xbatch`
policy — and the cross-process :meth:`ScheduleColumns.to_ipc`); any later
append turns them back into lists.  The wire encoder reads plain lists
through :meth:`Schedule.row_lists` and never pays that conversion.  A row
that does not fit in 62 bits keeps the store on exact Python-int lists
for good — the overflow fallback trades speed, never precision.

Mutating operations that need placement identity (:meth:`Schedule.remove`,
:meth:`Schedule.replace_machine` — the repair passes) *thaw* the schedule:
the columns are materialized into per-machine placement lists once and the
schedule behaves exactly like the historical list-backed implementation
from then on.

All times are exact rationals (:mod:`repro.core.numeric`).
"""

from __future__ import annotations

import pickle
from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .instance import Instance, JobRef
from .numeric import Time, TimeLike, as_time, fast_fraction, time_str

try:  # numpy is the optional [batch] extra (same policy as xbatch)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the minimal-deps CI job
    _np = None


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


def _lcm2(a: int, b: int) -> int:
    return a if a == b else a * b // gcd(a, b)


#: Values at or above 62 bits flip a column store into exact-int object
#: mode — the same headroom :data:`repro.core.xbatch._GUARD` keeps for
#: int64 intermediates.
_INT62 = 1 << 62


class ScheduleColumns:
    """Parallel scaled-int columns, one row per placement.

    Row ``k`` encodes the placement ``[start_num[k]/den[k],
    (start_num[k]+length_num[k])/den[k])`` of class ``cls[k]`` on machine
    ``machine[k]``; ``job_idx[k] = -1`` marks a setup, otherwise the row
    is a piece of ``JobRef(cls[k], job_idx[k])``.  Numerators need not be
    normalized against ``den`` — materialization reduces exactly.

    Buffer rule: every append goes to plain Python lists — the emission
    paths (:meth:`extend_scaled`, :meth:`extend_runs`) splice their row
    lists in at C pointer speed.  :meth:`compact` rebuilds the columns as
    ``array('q')`` (int64) buffers in one pass, only when a zero-copy
    reader (:meth:`Schedule.rows`, :meth:`to_ipc`) asks for them, and the
    next append turns them back into lists, so a view handed out earlier
    stays a stable snapshot and a buffer it exports is never resized.
    ``int_mode`` is a statement about *values*, not about the buffer
    type: it is True while everything fits int64, and the first value
    that does not fit in 62 bits clears it for good — such a store stays
    on exact Python-int lists at any magnitude.
    """

    __slots__ = (
        "machine", "start_num", "length_num", "den", "cls", "job_idx",
        "_dens", "int_mode",
    )

    def __init__(self) -> None:
        self.machine: list[int] = []
        self.start_num: list[int] = []
        self.length_num: list[int] = []
        self.den: list[int] = []
        self.cls: list[int] = []
        self.job_idx: list[int] = []
        self._dens: set[int] = set()
        self.int_mode = True

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #

    def _to_lists(self) -> None:
        """Turn compacted ``array('q')`` buffers back into lists (values unchanged)."""
        if type(self.machine) is not list:
            self.machine = self.machine.tolist()
            self.start_num = self.start_num.tolist()
            self.length_num = self.length_num.tolist()
            self.den = self.den.tolist()
            self.cls = self.cls.tolist()
            self.job_idx = self.job_idx.tolist()

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

        ``den`` must be positive (every producer's scale is a positive
        lcm).  The caller is responsible for range/sign checks — this is
        the raw emission primitive behind :meth:`Schedule.add_scaled` and
        the construction kernels.
        """
        self._to_lists()
        if self.int_mode and not (
            -_INT62 < start_num < _INT62
            and -_INT62 < length_num < _INT62
            and den < _INT62
        ):
            self.int_mode = False
        self.machine.append(machine)
        self.start_num.append(start_num)
        self.length_num.append(length_num)
        self.den.append(den)
        self.cls.append(cls)
        self.job_idx.append(job_idx)
        self._dens.add(den)

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
        list extends splice them in at C pointer speed, replacing six
        method calls per row with one per column per burst.
        """
        n = len(machines)
        if n == 0:
            return
        self._to_lists()
        if self.int_mode and not (
            -_INT62 < min(start_nums)
            and max(start_nums) < _INT62
            and -_INT62 < min(length_nums)
            and max(length_nums) < _INT62
            and den < _INT62
        ):
            self.int_mode = False
        self.machine.extend(machines)
        self.start_num.extend(start_nums)
        self.length_num.extend(length_nums)
        self.den.extend([den] * n)
        self.cls.extend(clss)
        self.job_idx.extend(job_idxs)
        self._dens.add(den)

    def compact(self) -> None:
        """Rebuild the columns as ``array('q')`` buffers for zero-copy readers.

        One C pass per column; a no-op when the buffers are already
        arrays or the values left the int64 range (``int_mode`` False —
        object mode stays on lists by design).
        """
        if self.int_mode and type(self.machine) is list:
            self.machine = array("q", self.machine)
            self.start_num = array("q", self.start_num)
            self.length_num = array("q", self.length_num)
            self.den = array("q", self.den)
            self.cls = array("q", self.cls)
            self.job_idx = array("q", self.job_idx)

    def extend_runs(self, runs, den: int) -> None:
        """Bulk-append stacked machine runs sharing one ``den``.

        ``runs`` yields ``(machine, lengths, clss, job_idxs)`` with items
        bottom to top; starts are the running prefix sums of ``lengths``
        (the no-idle-below-the-top-item invariant of the emitting
        constructions), and lengths must be non-negative — this is the
        trusted adoption path the Algorithm-6
        :class:`~repro.core.itemstore.ItemStore` hands off to.  Splicing
        the store's column slices into the list buffers is pointer-copy
        cheap; the int64 range check reduces to one comparison per
        machine (the prefix-sum total dominates every start and length
        of its run).
        """
        self._to_lists()
        mach, sn, ln = self.machine, self.start_num, self.length_num
        dn, cl, ji = self.den, self.cls, self.job_idx
        ok = self.int_mode and den < _INT62
        for u, lens, clss, jidxs in runs:
            n = len(lens)
            if not n:
                continue
            starts = list(accumulate(lens, initial=0))
            top = starts.pop()
            mach.extend([u] * n)
            sn.extend(starts)
            ln.extend(lens)
            dn.extend([den] * n)
            cl.extend(clss)
            ji.extend(jidxs)
            if ok and top >= _INT62:
                ok = False
        if not ok:
            self.int_mode = False
        self._dens.add(den)

    def append_placement(self, p: Placement) -> None:
        """Append a :class:`Placement` (rationals re-scaled to one row den)."""
        start, length = p.start, p.length
        sd = start.denominator
        ld = length.denominator
        den = _lcm2(sd, ld)
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

    @property
    def dens(self) -> frozenset:
        """The distinct row denominators (usually one or two per schedule)."""
        return frozenset(self._dens)

    def common_scale(self) -> int:
        """``L = lcm`` of all row denominators (1 for an empty store)."""
        L = 1
        for d in self._dens:
            L = _lcm2(L, d)
        return L

    def scaled(self) -> tuple[int, "object", "object"]:
        """``(L, starts, lengths)`` with all rows at the common scale ``L``.

        When every row shares one denominator the stored columns are
        returned as-is (zero copy — numpy can view the ``array('q')``
        buffers directly); otherwise exact Python-int lists are built.
        """
        L = self.common_scale()
        if len(self._dens) <= 1:
            return L, self.start_num, self.length_num
        mult = {d: L // d for d in self._dens}
        fs = list(map(mult.__getitem__, self.den))
        return L, list(map(mul, self.start_num, fs)), list(map(mul, self.length_num, fs))

    def row_placement(self, k: int) -> Placement:
        """Materialize row ``k`` as a :class:`Placement`."""
        den = self.den[k]
        cls = self.cls[k]
        idx = self.job_idx[k]
        return _new_placement(
            self.machine[k],
            fast_fraction(self.start_num[k], den),
            fast_fraction(self.length_num[k], den),
            cls,
            None if idx < 0 else JobRef(cls, idx),
        )

    def slice_placements(self, lo: int, hi: int) -> list[Placement]:
        """Materialize rows ``[lo, hi)`` in row (append) order."""
        out: list[Placement] = []
        mach, sn, ln = self.machine, self.start_num, self.length_num
        den, cl, ji = self.den, self.cls, self.job_idx
        for k in range(lo, hi):
            d = den[k]
            c = cl[k]
            idx = ji[k]
            out.append(
                _new_placement(
                    mach[k],
                    fast_fraction(sn[k], d),
                    fast_fraction(ln[k], d),
                    c,
                    None if idx < 0 else JobRef(c, idx),
                )
            )
        return out

    def to_placements(self, m: int) -> list[list[Placement]]:
        """Materialize all rows into per-machine lists (insertion order)."""
        by_machine: list[list[Placement]] = [[] for _ in range(m)]
        mach, sn, ln = self.machine, self.start_num, self.length_num
        den, cl, ji = self.den, self.cls, self.job_idx
        for k in range(len(mach)):
            d = den[k]
            c = cl[k]
            idx = ji[k]
            by_machine[mach[k]].append(
                _new_placement(
                    mach[k],
                    fast_fraction(sn[k], d),
                    fast_fraction(ln[k], d),
                    c,
                    None if idx < 0 else JobRef(c, idx),
                )
            )
        return by_machine

    @staticmethod
    def from_placements(placements: Iterable[Placement]) -> "ScheduleColumns":
        """Columns encoding ``placements`` (row order = iteration order).

        Raises :class:`ValueError` for a piece whose ``cls`` disagrees with
        its job's class, or whose job index is negative — the columnar
        encoding shares one class column between the row and its
        :class:`~repro.core.instance.JobRef` and reserves ``job_idx = -1``
        for setups, so such (infeasible) placements have no columnar
        form; keep schedules holding them on the placement-list path and
        the scalar validator.
        """
        cols = ScheduleColumns()
        for p in placements:
            if p.job is not None and (p.job.cls != p.cls or p.job.idx < 0):
                raise ValueError(
                    f"placement has no columnar encoding "
                    f"(class mismatch or negative job index): {p}"
                )
            cols.append_placement(p)
        return cols

    def copy(self) -> "ScheduleColumns":
        out = ScheduleColumns.__new__(ScheduleColumns)
        out.machine = self.machine[:]
        out.start_num = self.start_num[:]
        out.length_num = self.length_num[:]
        out.den = self.den[:]
        out.cls = self.cls[:]
        out.job_idx = self.job_idx[:]
        out._dens = set(self._dens)
        out.int_mode = self.int_mode
        return out

    # ------------------------------------------------------------------ #
    # cross-process transport
    # ------------------------------------------------------------------ #

    _COL_NAMES = ("machine", "start_num", "length_num", "den", "cls", "job_idx")

    def to_ipc(self) -> dict:
        """Wire form for cross-process transport.

        ``mode="i64"`` wraps the six ``array('q')`` buffers in
        :class:`pickle.PickleBuffer`, so a protocol-5 pickler with a
        ``buffer_callback`` ships them out-of-band — the process-shard
        pipe protocol frames the raw int64 bytes with no per-row
        encoding.  Big-int rows (``int_mode`` False) fall back to
        in-band exact int lists, which plain pickle handles at any
        magnitude.  Inverse: :meth:`from_ipc`.
        """
        self.compact()
        if self.int_mode:
            return {
                "mode": "i64",
                "cols": [
                    pickle.PickleBuffer(getattr(self, name))
                    for name in self._COL_NAMES
                ],
            }
        return {
            "mode": "obj",
            "cols": [list(getattr(self, name)) for name in self._COL_NAMES],
        }

    @classmethod
    def from_ipc(cls, obj: dict) -> "ScheduleColumns":
        """Rebuild columns from :meth:`to_ipc` output (post-unpickle).

        After the pickle round trip the ``i64`` entries arrive as
        bytes-like buffers; they are copied into fresh ``array('q')``
        columns (the wire buffer is owned by the frame reader).
        """
        mode = obj.get("mode") if isinstance(obj, dict) else None
        data = obj.get("cols") if isinstance(obj, dict) else None
        if (
            mode not in ("i64", "obj")
            or not isinstance(data, (list, tuple))
            or len(data) != len(cls._COL_NAMES)
        ):
            raise ValueError("malformed ScheduleColumns IPC payload")
        out = cls()
        if mode == "i64":
            for name, raw in zip(cls._COL_NAMES, data):
                col = array("q")
                col.frombytes(raw)
                setattr(out, name, col)
        else:
            for name, vals in zip(cls._COL_NAMES, data):
                setattr(out, name, [int(v) for v in vals])
            out.int_mode = False
        out._dens = set(out.den)
        return out


def _rows_view(col):
    """Zero-copy int64 numpy view of an ``array('q')`` column.

    Plain lists (big-int object mode, or mixed-scale rebuilds) pass
    through unchanged — exactness beats vectorization there — and without
    numpy the raw column is returned as-is.
    """
    if _np is None or isinstance(col, list):
        return col
    return _np.frombuffer(col, dtype=_np.int64) if len(col) else _np.empty(0, _np.int64)


def _list_copy(col) -> list:
    """A fresh plain int list of a list or ``array('q')`` column."""
    return col[:] if type(col) is list else col.tolist()


class ScheduleRows(NamedTuple):
    """A bulk, read-only row projection of a schedule at one common scale.

    Parallel sequences, one entry per placement in storage order:
    ``start = start_num[k]/scale`` and ``length = length_num[k]/scale``
    exact rationals, ``job_idx[k] = -1`` marks a setup (otherwise the row
    is a piece of job ``(cls[k], job_idx[k])``).  From :meth:`Schedule.rows`
    on a columnar schedule with numpy installed the sequences are
    zero-copy ``int64`` views of the compacted column buffers; otherwise
    they are plain int sequences, and :meth:`Schedule.row_lists` always
    returns fresh plain int lists.  This is the reader for bulk consumers
    (Gantt extraction, figure filters, analysis sweeps, the wire encoder)
    that only need starts/lengths/classes and should not materialize
    :class:`Placement`/:class:`~fractions.Fraction` objects.
    """

    machine: Sequence[int]
    start_num: Sequence[int]
    length_num: Sequence[int]
    cls: Sequence[int]
    job_idx: Sequence[int]
    scale: int

    def __len__(self) -> int:
        return len(self.machine)


class Schedule:
    """A mutable bag of placements with per-machine indexing.

    The class is deliberately permissive — algorithms build and repair
    schedules through it — and :mod:`repro.core.validate` is the single
    source of truth for feasibility.

    Fresh schedules are *columnar*: appends land in a
    :class:`ScheduleColumns` store and no :class:`Placement` exists until
    a caller iterates (``items_on``/``iter_all``/...), at which point a
    materialized per-machine view is built and cached.  Identity-level
    mutation (:meth:`remove`, :meth:`replace_machine`) thaws the schedule
    into the historical placement-list representation permanently.
    """

    def __init__(self, instance: Instance, placements: Iterable[Placement] = ()):
        self.instance = instance
        self._cols_live: Optional[ScheduleColumns] = ScheduleColumns()
        self._pending: Optional[tuple[object, int]] = None
        self._by_machine: Optional[list[list[Placement]]] = None
        self._scan: Optional[dict] = None
        for p in placements:
            self.add(p)

    # ------------------------------------------------------------------ #
    # columnar plumbing
    # ------------------------------------------------------------------ #

    @property
    def _cols(self) -> Optional[ScheduleColumns]:
        """The column store (flushing a pending bulk adoption first)."""
        if self._pending is not None:
            provider, den = self._pending
            self._pending = None
            self.extend_runs(provider.runs(), den)  # type: ignore[attr-defined]
        return self._cols_live

    @_cols.setter
    def _cols(self, value: Optional[ScheduleColumns]) -> None:
        self._cols_live = value

    def adopt_runs(self, provider, den: int) -> None:
        """Adopt a runs provider as the schedule's backing, lazily.

        ``provider`` is anything with a ``runs()`` method in the
        :meth:`extend_runs` shape — in practice the Algorithm-6
        :class:`~repro.core.itemstore.ItemStore`.  Nothing materializes
        now; the first access (columns, aggregates, placements,
        validation) flushes the provider's runs into the column store.
        Sweep pipelines that only carry schedules around never pay the
        materialization at all — one more rung of the PR-3
        lazy-materialization contract.  The schedule must be fresh and
        empty, and the caller must hand over ownership: mutating the
        provider afterwards corrupts the flush.
        """
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if (
            self._pending is not None
            or self._cols_live is None
            or len(self._cols_live)
        ):
            raise ValueError("adopt_runs requires a fresh, empty schedule")
        self._pending = (provider, den)

    def columns(self) -> Optional[ScheduleColumns]:
        """The live column store, or ``None`` once the schedule is thawed."""
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
        sched._cols_live = cols
        return sched

    def _columns_for_append(self) -> Optional[ScheduleColumns]:
        """Columns ready for direct appends (caches invalidated), or None.

        Construction kernels that emit many rows grab this once and call
        :meth:`ScheduleColumns.append_scaled` directly; the cached
        materialization/aggregate views are dropped up front so reads
        after the burst rebuild from the full column set.
        """
        if self._cols is None:
            return None
        self._by_machine = None
        self._scan = None
        return self._cols

    def _materialized(self) -> list[list[Placement]]:
        bm = self._by_machine
        if bm is None:
            assert self._cols is not None
            bm = self._cols.to_placements(self.instance.m)
            self._by_machine = bm
        return bm

    def _thaw(self) -> None:
        """Switch to the placement-list representation permanently."""
        if self._cols is not None:
            self._materialized()
            self._cols = None
            self._scan = None

    def _scan_cache(self) -> dict:
        """Per-machine scaled loads/ends, one O(rows) pass over the columns."""
        sc = self._scan
        if sc is None:
            cols = self._cols
            assert cols is not None
            m = self.instance.m
            loads: dict[int, list[int]] = {d: [0] * m for d in cols._dens}
            ends: dict[int, list[Optional[int]]] = {
                d: [None] * m for d in cols._dens
            }
            counts = [0] * m
            for u, sn, ln, d in zip(
                cols.machine, cols.start_num, cols.length_num, cols.den
            ):
                loads[d][u] += ln
                e = sn + ln
                cur = ends[d][u]
                if cur is None or e > cur:
                    ends[d][u] = e
                counts[u] += 1
            sc = {"loads": loads, "ends": ends, "counts": counts}
            self._scan = sc
        return sc

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def add(self, placement: Placement) -> Placement:
        if not 0 <= placement.machine < self.instance.m:
            raise ValueError(
                f"machine {placement.machine} out of range [0, {self.instance.m})"
            )
        if placement.length < 0:
            raise ValueError(f"negative length placement: {placement}")
        if placement.start < 0:
            raise ValueError(f"placement starts before time 0: {placement}")
        self._append(placement)
        return placement

    def append_trusted(self, placement: Placement) -> Placement:
        """:meth:`add` without the sign checks — for the scaled-int kernels.

        Only construction code whose arithmetic already guarantees
        non-negative starts/lengths (the wrap engine, the materializers)
        may use this; :mod:`repro.core.validate` remains the real
        feasibility gate for every schedule the library hands out.
        """
        if not 0 <= placement.machine < self.instance.m:
            raise ValueError(
                f"machine {placement.machine} out of range [0, {self.instance.m})"
            )
        self._append(placement)
        return placement

    def _append(self, placement: Placement) -> None:
        cols = self._cols
        if cols is None:
            self._by_machine[placement.machine].append(placement)  # type: ignore[index]
            return
        job = placement.job
        if job is not None and (job.cls != placement.cls or job.idx < 0):
            # A class-mismatched piece has no columnar encoding (the row
            # and its JobRef share one class column), and a negative job
            # index would collide with the job_idx = -1 setup marker:
            # thaw and keep the placement verbatim for the scalar
            # validator to reject ("class-mismatch" / "unknown-job").
            self._thaw()
            self._by_machine[placement.machine].append(placement)  # type: ignore[index]
            return
        cols.append_placement(placement)
        self._by_machine = None
        self._scan = None

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
        :class:`Placement`; values are validated like :meth:`add`.  On a
        thawed schedule the row is materialized and appended normally.
        """
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if self._cols is None or (
            job is not None and (job.cls != cls or job.idx < 0)
        ):
            # thawed schedule, or a row the columns cannot encode (class
            # mismatch / negative job index): route through add(), which
            # preserves the placement for the scalar validator.
            self.add(
                _new_placement(
                    machine,
                    fast_fraction(start_num, den),
                    fast_fraction(length_num, den),
                    cls,
                    job,
                )
            )
            return
        if not 0 <= machine < self.instance.m:
            raise ValueError(
                f"machine {machine} out of range [0, {self.instance.m})"
            )
        if length_num < 0:
            raise ValueError(
                f"negative length placement: "
                f"{self._cols_row_str(machine, start_num, length_num, den, cls, job)}"
            )
        if start_num < 0:
            raise ValueError(
                f"placement starts before time 0: "
                f"{self._cols_row_str(machine, start_num, length_num, den, cls, job)}"
            )
        self._cols.append_scaled(
            machine, start_num, length_num, den, cls,
            -1 if job is None else job.idx,
        )
        self._by_machine = None
        self._scan = None

    def extend_runs(self, runs, den: int) -> None:
        """Bulk-adopt stacked machine runs — the trusted fast-kernel hand-off.

        ``runs`` yields ``(machine, lengths, clss, job_idxs)`` per machine,
        items bottom to top with no idle time below the top item (starts
        are the prefix sums of the scaled lengths); rows go straight into
        the column store via :meth:`ScheduleColumns.extend_runs`.  Only
        construction code whose arithmetic guarantees non-negative lengths
        may use this (sign checks are skipped, like
        :meth:`append_trusted`); :mod:`repro.core.validate` remains the
        real feasibility gate.  On a thawed schedule the rows are
        materialized and appended as placements — identical content.
        """
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        m = self.instance.m

        def checked(run_iter):
            for run in run_iter:
                if not 0 <= run[0] < m:
                    raise ValueError(f"machine {run[0]} out of range [0, {m})")
                yield run

        cols = self._columns_for_append()
        if cols is not None:
            cols.extend_runs(checked(runs), den)
            return
        for u, lens, clss, jidxs in runs:
            if not 0 <= u < m:
                raise ValueError(f"machine {u} out of range [0, {m})")
            t = 0
            for ln, c, j in zip(lens, clss, jidxs):
                self._append(
                    _new_placement(
                        u,
                        fast_fraction(t, den),
                        fast_fraction(ln, den),
                        c,
                        None if j < 0 else JobRef(c, j),
                    )
                )
                t += ln

    @staticmethod
    def _cols_row_str(machine, start_num, length_num, den, cls, job) -> str:
        return str(
            _new_placement(
                machine,
                fast_fraction(start_num, den),
                fast_fraction(length_num, den),
                cls,
                job,
            )
        )

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

    def remove(self, placement: Placement) -> None:
        """Remove one placement (identity by value)."""
        self._thaw()
        self._by_machine[placement.machine].remove(placement)  # type: ignore[index]

    def replace_machine(self, machine: int, items: Iterable[Placement]) -> None:
        """Swap out the full contents of one machine (used by repair passes).

        Incoming placements that still live on another machine's list are
        moved (removed there, retagged here), so the schedule never holds a
        placement twice.
        """
        self._thaw()
        by_machine = self._by_machine
        assert by_machine is not None
        new_items = []
        for p in items:
            if p.machine != machine:
                old = by_machine[p.machine]
                if p in old:
                    old.remove(p)
                p = p.on_machine(machine)
            new_items.append(p)
        by_machine[machine] = new_items

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def items_on(self, machine: int) -> list[Placement]:
        """Placements on ``machine`` sorted by start time."""
        return sorted(self._materialized()[machine], key=lambda p: (p.start, p.end))

    def raw_items_on(self, machine: int) -> list[Placement]:
        """Placements on ``machine`` in insertion order (no sort)."""
        return list(self._materialized()[machine])

    def iter_all(self) -> Iterator[Placement]:
        for items in self._materialized():
            yield from items

    def machine_load(self, machine: int) -> Time:
        """``L(u)`` — total setup + processing time on the machine (page 2)."""
        if self._cols is not None:
            sc = self._scan_cache()
            total = Fraction(0)
            for d, loads in sc["loads"].items():
                v = loads[machine]
                if v:
                    total += fast_fraction(v, d)
            return total
        return sum((p.length for p in self._by_machine[machine]), Fraction(0))  # type: ignore[index]

    def machine_end(self, machine: int) -> Time:
        """Completion time of the machine (max placement end; 0 if empty)."""
        if self._cols is not None:
            sc = self._scan_cache()
            best: Optional[Time] = None
            for d, ends in sc["ends"].items():
                v = ends[machine]
                if v is not None:
                    f = fast_fraction(v, d)
                    if best is None or f > best:
                        best = f
            return Fraction(0) if best is None else best
        items = self._by_machine[machine]  # type: ignore[index]
        return max((p.end for p in items), default=Fraction(0))

    def makespan(self) -> Time:
        """``C_max`` — the latest completion time over all machines."""
        cols = self._cols
        if cols is not None:
            # the latest row end at the common scale, in one C-speed pass
            L, starts, lengths = cols.scaled()
            return fast_fraction(max(map(add, starts, lengths), default=0), L)
        return max((self.machine_end(u) for u in range(self.instance.m)), default=Fraction(0))

    def total_load(self) -> Time:
        """``L(σ) = Σ_u L(u)``."""
        if self._cols is not None:
            sc = self._scan_cache()
            total = Fraction(0)
            for d, loads in sc["loads"].items():
                s = sum(loads)
                if s:
                    total += fast_fraction(s, d)
            return total
        return sum((self.machine_load(u) for u in range(self.instance.m)), Fraction(0))

    def used_machines(self) -> list[int]:
        if self._cols is not None:
            counts = self._scan_cache()["counts"]
            return [u for u in range(self.instance.m) if counts[u]]
        return [u for u in range(self.instance.m) if self._by_machine[u]]  # type: ignore[index]

    def rows(self) -> ScheduleRows:
        """Bulk read-only row view at one common scale (see :class:`ScheduleRows`).

        On a live columnar schedule this compacts the columns into
        ``array('q')`` buffers and (numpy installed, single denominator)
        returns zero-copy views of them — no :class:`Placement` or
        :class:`~fractions.Fraction` is created.  The projection is a
        *point-in-time snapshot*: the next append turns the columns back
        into fresh list buffers (the held views keep the old arrays
        alive), so rows read earlier stay valid but do not show later
        appends.  A thawed schedule is re-encoded row by row; pieces
        whose ``JobRef`` class disagrees with the placement class (only
        constructible on the thawed path, and rejected by the
        validators) project their ``job_idx`` with the row's ``cls``, so
        the pair identifies the job only on well-formed schedules.
        """
        cols = self._cols
        if cols is None:
            return self._placement_rows()
        cols.compact()
        L, starts, lengths = cols.scaled()
        return ScheduleRows(
            _rows_view(cols.machine),
            _rows_view(starts),
            _rows_view(lengths),
            _rows_view(cols.cls),
            _rows_view(cols.job_idx),
            L,
        )

    def row_lists(self) -> ScheduleRows:
        """:meth:`rows` as fresh plain int lists — the wire encoder's reader.

        Same rows, same order, same common ``scale``; every sequence is a
        snapshot copy the caller owns.  Unlike :meth:`rows` this never
        compacts the columns: list buffers are copied as they are, and
        int64 buffers (compacted, or rebuilt by
        :meth:`ScheduleColumns.from_ipc`) go through ``array.tolist()``
        — no numpy and no per-element ``int()``.  A thawed schedule takes
        the same placement path as :meth:`rows`.
        """
        cols = self._cols
        if cols is None:
            return self._placement_rows()
        L, starts, lengths = cols.scaled()
        if starts is cols.start_num:  # one denominator: the stored columns
            starts, lengths = _list_copy(starts), _list_copy(lengths)
        return ScheduleRows(
            _list_copy(cols.machine),
            starts,
            lengths,
            _list_copy(cols.cls),
            _list_copy(cols.job_idx),
            L,
        )

    def _placement_rows(self) -> ScheduleRows:
        """Row projection of a thawed schedule (see :meth:`rows`)."""
        placements = list(self.iter_all())
        L = 1
        for p in placements:
            L = _lcm2(L, _lcm2(p.start.denominator, p.length.denominator))
        mq: list[int] = []
        sq: list[int] = []
        lq: list[int] = []
        cq: list[int] = []
        jq: list[int] = []
        for p in placements:
            mq.append(p.machine)
            sq.append(p.start.numerator * (L // p.start.denominator))
            lq.append(p.length.numerator * (L // p.length.denominator))
            cq.append(p.cls)
            jq.append(-1 if p.job is None else p.job.idx)
        return ScheduleRows(mq, sq, lq, cq, jq, L)

    def job_pieces(self, job: JobRef) -> list[Placement]:
        """All pieces of one job across all machines."""
        return [p for p in self.iter_all() if p.job == job]

    def job_total(self, job: JobRef) -> Time:
        """Scheduled processing amount of one job."""
        cols = self._cols
        if cols is not None:
            per_den: dict[int, int] = {}
            cls, idx = job.cls, job.idx
            for c, ji, ln, d in zip(
                cols.cls, cols.job_idx, cols.length_num, cols.den
            ):
                if c == cls and ji == idx:
                    per_den[d] = per_den.get(d, 0) + ln
            total = Fraction(0)
            for d, v in per_den.items():
                if v:
                    total += fast_fraction(v, d)
            return total
        return sum((p.length for p in self.iter_all() if p.job == job), Fraction(0))

    def setup_count(self, cls: int) -> int:
        """Setup multiplicity ``λ_i`` of class ``cls`` in this schedule."""
        cols = self._cols
        if cols is not None:
            return sum(
                1 for c, ji in zip(cols.cls, cols.job_idx) if ji < 0 and c == cls
            )
        return sum(1 for p in self.iter_all() if p.is_setup and p.cls == cls)

    def count_placements(self) -> int:
        if self._cols is not None:
            return len(self._cols)
        return sum(len(items) for items in self._by_machine)  # type: ignore[union-attr]

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #

    def copy(self) -> "Schedule":
        if self._cols is not None:
            out = Schedule(self.instance)
            out._cols = self._cols.copy()
            return out
        return Schedule(self.instance, self.iter_all())

    def describe(self) -> str:
        used = len(self.used_machines())
        return (
            f"Schedule(makespan={time_str(self.makespan())}, placements="
            f"{self.count_placements()}, machines_used={used}/{self.instance.m})"
        )
