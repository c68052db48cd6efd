"""Batch Wrapping (Appendix A.1) — McNaughton's rule generalized to setups.

A :class:`WrapTemplate` ``ω`` is a list of *gaps* ``(u_r, a_r, b_r)`` on
strictly increasing machines; ``S(ω) = Σ (b_r − a_r)`` is the provided time.
A :class:`WrapSequence` ``Q = [s_{i_l}, C'_l]_l`` is a stream of batches:
a setup followed by jobs/job pieces of one class; ``L(Q) = Σ (s_{i_l} +
P(C'_l))``.

:func:`wrap` schedules ``Q`` into ``ω`` in McNaughton's wrap-around style
(Algorithm 5, ``Split``): items are placed left to right inside the current
gap; when an item hits the border ``b_r``

* a **setup** is moved below the next gap (interval ``[a_{r+1}−s_i,
  a_{r+1}]`` on machine ``u_{r+1}``), so the following jobs stay feasible;
* a **job (piece)** is split at ``b_r``; the remainder continues at the top
  of the next gap, again with a fresh setup placed below the gap.  A very
  long piece may span several gaps (the ``while`` loop of Algorithm 5).

Lemma 6: if ``L(Q) ≤ S(ω)`` and there is free time ≥ the largest setup of
``Q`` below every gap but the first, the placement is feasible.  Lemma 7:
the running time is ``O(|Q| + |ω|)`` — our implementation does a constant
amount of work per item plus per gap switch.

Pieces of a split job all carry the same job (one
:class:`~repro.core.instance.JobRef`, one ``job_idx`` in the schedule's
columns), which is exactly the ``parent(j)`` bookkeeping Algorithm 6
(non-preemptive) needs for its repair step.  A whole class enters a
sequence as :meth:`Batch.whole`, its integer lengths alone: the
scaled-integer engine reads the job index off each length's position, so
wrapping a class allocates no per-job object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

from .errors import ConstructionError
from .instance import Instance, JobRef
from .itemstore import ItemStore
from .numeric import Time, TimeLike, as_time, time_str
from .schedule import Placement, Schedule, ScheduleColumns


@dataclass(frozen=True)
class Gap:
    """One free interval ``[a, b)`` on a machine."""

    machine: int
    a: Time
    b: Time

    def __post_init__(self) -> None:
        if not 0 <= self.a < self.b:
            raise ValueError(f"gap requires 0 <= a < b, got [{self.a}, {self.b})")

    @property
    def size(self) -> Time:
        return self.b - self.a


@dataclass(frozen=True)
class WrapTemplate:
    """Definition 2 — gaps on strictly increasing machines."""

    gaps: tuple[Gap, ...]

    def __post_init__(self) -> None:
        for g1, g2 in zip(self.gaps, self.gaps[1:]):
            if g1.machine >= g2.machine:
                raise ValueError(
                    f"wrap template machines must strictly increase, got "
                    f"{g1.machine} then {g2.machine}"
                )

    @staticmethod
    def of(gaps: Iterable[tuple[int, TimeLike, TimeLike]]) -> "WrapTemplate":
        return WrapTemplate(tuple(Gap(u, as_time(a), as_time(b)) for u, a, b in gaps))

    def __len__(self) -> int:
        return len(self.gaps)

    @property
    def capacity(self) -> Time:
        """``S(ω)``."""
        return sum((g.size for g in self.gaps), Fraction(0))


class Batch:
    """One ``[s_i, C'_l]`` block of a wrap sequence.

    A batch of job *pieces* (:meth:`of`; the preemptive algorithm cuts
    them for the knapsack split class) holds ``(job, length)`` pairs with
    exact :class:`~fractions.Fraction` lengths, possibly smaller than the
    job's processing time, and no ``int_lengths``.  A *whole* class
    (:meth:`whole`) holds only the instance's integer processing times,
    ``int_lengths``: its jobs are the positions ``0..n_i−1``, so the
    scaled-integer engines scale the lengths without a denominator scan
    and emit rows by job index.  Its ``items`` are the class's
    ``(JobRef, t)`` pairs, :meth:`Instance.class_jobs
    <repro.core.instance.Instance.class_jobs>`, built only when read (the
    Fraction reference engines and Algorithm 2's ``I⁻exp`` step read
    them).  ``len(batch)`` is the item count either way.
    """

    __slots__ = ("cls", "int_lengths", "_items", "_instance")

    def __init__(self, cls: int, items: tuple[tuple[JobRef, TimeLike], ...] = ()) -> None:
        self.cls = cls
        self._items = items
        self.int_lengths: Optional[tuple[int, ...]] = None
        self._instance: Optional[Instance] = None

    @staticmethod
    def of(cls: int, items: Iterable[tuple[JobRef, TimeLike]]) -> "Batch":
        out = tuple((j, as_time(t)) for j, t in items)
        for j, t in out:
            if t <= 0:
                raise ValueError(f"batch item {j} has non-positive length {t}")
            if j.cls != cls or j.idx < 0:
                raise ValueError(f"batch of class {cls} contains job {j}")
        return Batch(cls, out)

    @staticmethod
    def whole(instance: Instance, cls: int) -> "Batch":
        """All jobs of class ``cls`` with their integer processing times.

        O(1): no item checks (the instance validated its jobs when it was
        built) and no job pairs until :attr:`items` is read.
        """
        batch = Batch(cls)
        batch.int_lengths = instance.jobs[cls]
        batch._instance = instance
        return batch

    @property
    def items(self) -> tuple[tuple[JobRef, TimeLike], ...]:
        """The ``(job, length)`` pairs (a whole class's are built on read)."""
        if self._instance is not None:
            return self._instance.class_jobs(self.cls)
        return self._items

    def __len__(self) -> int:
        return len(self._items if self.int_lengths is None else self.int_lengths)

    @property
    def processing(self) -> TimeLike:
        """``P(C'_l)``: an int for a whole class, else a Fraction."""
        if self.int_lengths is not None:
            return sum(self.int_lengths)
        return sum((t for _, t in self._items), Fraction(0))


@dataclass(frozen=True)
class WrapSequence:
    """A sequence of batches ``Q = [s_{i_l}, C'_l]_{l∈[k]}``."""

    batches: tuple[Batch, ...]

    @staticmethod
    def of(batches: Iterable[Batch]) -> "WrapSequence":
        return WrapSequence(tuple(b for b in batches if len(b)))

    @staticmethod
    def single_class(cls: int, items: Iterable[tuple[JobRef, TimeLike]]) -> "WrapSequence":
        """The simple sequence ``[s_i, C_i]`` used all over the paper."""
        return WrapSequence.of([Batch.of(cls, items)])

    def load(self, setups: Sequence[int]) -> Time:
        """``L(Q) = Σ_l (s_{i_l} + P(C'_l))``."""
        return sum((Fraction(setups[b.cls]) + b.processing for b in self.batches), Fraction(0))

    @property
    def length(self) -> int:
        """``|Q| = k + Σ n_l``."""
        return sum(1 + len(b) for b in self.batches)

    def max_setup(self, setups: Sequence[int]) -> int:
        """``s^(Q)_max`` from Lemma 6."""
        return max((setups[b.cls] for b in self.batches), default=0)


class WrapResult:
    """What :func:`wrap` placed.

    On the columnar fast path the engine emits scaled-int rows straight
    into the schedule's column store; ``placements`` then materializes
    the placed rows lazily (in placement order), so callers that ignore
    the result — every construction in the library — never pay for
    :class:`Placement`/:class:`~fractions.Fraction` objects.
    """

    __slots__ = ("_placements", "last_gap", "splits", "_rows")

    def __init__(
        self,
        placements: Optional[list[Placement]],
        last_gap: int,
        splits: int,
        rows: Optional[tuple[ScheduleColumns, int, int]] = None,
    ) -> None:
        self._placements = placements
        #: index of the last gap that received an item (−1 if nothing placed).
        self.last_gap = last_gap
        #: number of job splits performed.
        self.splits = splits
        self._rows = rows

    @property
    def placements(self) -> list[Placement]:
        if self._placements is None:
            cols, lo, hi = self._rows  # type: ignore[misc]
            self._placements = cols.slice_placements(lo, hi)
        return self._placements


def wrap(
    schedule: Schedule,
    sequence: WrapSequence,
    template: WrapTemplate,
    *,
    exact_ints: bool = True,
) -> WrapResult:
    """Wrap ``sequence`` into ``template``, adding placements to ``schedule``.

    Raises :class:`ConstructionError` if the template overflows — by Lemma 6
    that can only happen when the caller violated ``L(Q) ≤ S(ω)``, which all
    call sites in this library prove beforehand.

    With ``exact_ints`` (the default) the engine runs on machine integers:
    all gap bounds and item lengths are pre-multiplied by the least common
    denominator ``D`` of the template/sequence, so the load check and every
    border comparison and split is integer arithmetic; times are divided
    back out (exactly) only when a :class:`Placement` is materialized.
    ``exact_ints=False`` is the historical Fraction loop, kept verbatim as
    the reference for the differential tests and benchmarks — both paths
    produce identical placements bit for bit (the substrate tests assert
    this).
    """
    if exact_ints:
        return _wrap_ints(schedule, sequence, template)
    return _wrap_fractions(schedule, sequence, template)


def _wrap_ints(
    schedule: Schedule, sequence: WrapSequence, template: WrapTemplate
) -> WrapResult:
    """The scaled-integer wrap engine (see :func:`wrap`).

    Emits scaled-int rows straight into the schedule's column store — no
    :class:`Placement`/:class:`~fractions.Fraction` objects on the hot
    path.  A whole-class batch is read as its ``int_lengths`` with job
    indices ``0..n_i−1``, so it builds no :class:`JobRef` pairs.
    """
    setups = schedule.instance.setups
    gaps = template.gaps
    if not gaps:
        if sequence.batches:
            raise ConstructionError("non-empty sequence wrapped into empty template")
        return WrapResult([], -1, 0)

    m = schedule.instance.m
    for g in gaps:
        if not 0 <= g.machine < m:
            raise ValueError(f"machine {g.machine} out of range [0, {m})")

    D = 1
    for g in gaps:
        D = lcm(D, g.a.denominator, g.b.denominator)
    for batch in sequence.batches:
        if batch.int_lengths is not None:
            continue  # integer lengths: nothing to fold into D
        for _, length in batch.items:
            den = length.denominator
            if D % den:
                D = lcm(D, den)

    ga = [g.a.numerator * (D // g.a.denominator) for g in gaps]
    gb = [g.b.numerator * (D // g.b.denominator) for g in gaps]
    # Scale every item once; the scaled lists double as the load check and
    # the wrap loop's operands (no Fraction arithmetic in the loop).
    scaled_items: list[tuple[Sequence[int], list[int]]] = []
    load_sc = 0
    for batch in sequence.batches:
        raw = batch.int_lengths
        if raw is not None:
            idxs: Sequence[int] = range(len(raw))
            items_sc = [t * D for t in raw]
        else:
            idxs = [job.idx for job, _ in batch.items]
            items_sc = [
                length.numerator * (D // length.denominator)
                for _, length in batch.items
            ]
        scaled_items.append((idxs, items_sc))
        load_sc += setups[batch.cls] * D + sum(items_sc)
    cap_sc = sum(b - a for a, b in zip(ga, gb))
    if load_sc > cap_sc:
        raise ConstructionError(
            f"wrap overflow: L(Q)={time_str(Fraction(load_sc, D))} > "
            f"S(ω)={time_str(Fraction(cap_sc, D))} "
            "(caller must guarantee Lemma 6's precondition)"
        )

    cols = schedule._columns_for_append()
    # Rows are collected in plain Python lists (one shared denominator D)
    # and flushed with one bulk extend — six C-level column extends replace
    # six method calls per placement.
    mq: list[int] = []
    sq: list[int] = []
    lq: list[int] = []
    cq: list[int] = []
    jq: list[int] = []
    ma, sa, la, ca, ja = mq.append, sq.append, lq.append, cq.append, jq.append
    splits = 0
    r = 0
    t = ga[0]
    last_gap = -1

    def advance_gap(cls: int) -> None:
        """Move to the next gap, placing the class setup below it (Split)."""
        nonlocal r, t
        r += 1
        if r >= len(gaps):
            raise ConstructionError(
                "wrap ran out of gaps despite L(Q) <= S(ω); template/sequence bug"
            )
        start_sc = ga[r] - setups[cls] * D
        if start_sc < 0:
            raise ValueError(
                f"placement starts before time 0: setup of class {cls} below gap {r}"
            )
        ma(gaps[r].machine); sa(start_sc); la(setups[cls] * D); ca(cls); ja(-1)
        t = ga[r]

    for batch, (idxs, items_sc) in zip(sequence.batches, scaled_items):
        cls = batch.cls
        s_sc = setups[cls] * D
        # Place the batch's initial setup inside the current gap; if it hits
        # the border, move it below the next gap instead (Wrap's setup rule).
        if t + s_sc > gb[r]:
            advance_gap(cls)  # setup goes below the next gap
            last_gap = r
        else:
            ma(gaps[r].machine); sa(t); la(s_sc); ca(cls); ja(-1)
            t += s_sc
            if r > last_gap:
                last_gap = r
        for jidx, remaining in zip(idxs, items_sc):
            # Skip over exhausted gap space before starting the piece, so we
            # never create zero-length pieces.
            while t >= gb[r]:
                advance_gap(cls)
            while t + remaining > gb[r]:  # Split's while loop
                room = gb[r] - t
                if room > 0:
                    ma(gaps[r].machine); sa(t); la(room); ca(cls); ja(jidx)
                    remaining -= room
                    splits += 1
                advance_gap(cls)
            if remaining > 0:
                ma(gaps[r].machine); sa(t); la(remaining); ca(cls); ja(jidx)
                t += remaining
            if r > last_gap:
                last_gap = r

    row_lo = len(cols)
    cols.extend_scaled(mq, sq, lq, D, cq, jq)
    return WrapResult(None, last_gap, splits, rows=(cols, row_lo, len(cols)))


def _wrap_fractions(
    schedule: Schedule, sequence: WrapSequence, template: WrapTemplate
) -> WrapResult:
    """The pre-kernel exact-rational wrap loop (reference path)."""
    setups = schedule.instance.setups
    load = sequence.load(setups)
    cap = template.capacity
    if load > cap:
        raise ConstructionError(
            f"wrap overflow: L(Q)={time_str(load)} > S(ω)={time_str(cap)} "
            "(caller must guarantee Lemma 6's precondition)"
        )
    gaps = template.gaps
    placed: list[Placement] = []
    splits = 0
    r = 0
    if not gaps:
        if sequence.batches:
            raise ConstructionError("non-empty sequence wrapped into empty template")
        return WrapResult([], -1, 0)
    t: Time = gaps[0].a
    last_gap = -1

    def advance_gap(cls: int) -> None:
        """Move to the next gap, placing the class setup below it (Split)."""
        nonlocal r, t
        r += 1
        if r >= len(gaps):
            raise ConstructionError(
                "wrap ran out of gaps despite L(Q) <= S(ω); template/sequence bug"
            )
        g = gaps[r]
        s = Fraction(setups[cls])
        placed.append(
            schedule.add(
                Placement(machine=g.machine, start=g.a - s, length=s, cls=cls)
            )
        )
        t = g.a

    for batch in sequence.batches:
        cls = batch.cls
        s = Fraction(setups[cls])
        # Place the batch's initial setup inside the current gap; if it hits
        # the border, move it below the next gap instead (Wrap's setup rule).
        if t + s > gaps[r].b:
            advance_gap(cls)  # setup goes below the next gap
            last_gap = r
        else:
            placed.append(
                schedule.add(
                    Placement(machine=gaps[r].machine, start=t, length=s, cls=cls)
                )
            )
            t += s
            last_gap = max(last_gap, r)
        for job, length in batch.items:
            remaining = length
            # Skip over exhausted gap space before starting the piece, so we
            # never create zero-length pieces.
            while t >= gaps[r].b:
                advance_gap(cls)
            while t + remaining > gaps[r].b:  # Split's while loop
                room = gaps[r].b - t
                if room > 0:
                    placed.append(schedule.add_piece(gaps[r].machine, t, job, room))
                    remaining -= room
                    splits += 1
                advance_gap(cls)
            if remaining > 0:
                placed.append(schedule.add_piece(gaps[r].machine, t, job, remaining))
                t += remaining
            last_gap = max(last_gap, r)

    return WrapResult(placements=placed, last_gap=last_gap, splits=splits)


def wrap_quota_store(
    store: ItemStore,
    cls: int,
    setup_sc: int,
    quota_sc: int,
    idxs,
    lens,
    prefix,
    scale: int,
) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Wrap ``[s_i, jobs]`` onto fresh machines of ``store`` with job quota
    ``quota_sc`` above one setup per machine.

    Algorithm 5's ``Split`` for the step-1 template of Algorithm 6 — the
    identical-fresh-machines special case of :func:`wrap`, emitting slots
    straight into the index-based :class:`~repro.core.itemstore.ItemStore`
    instead of round-tripping through per-item objects.  The job stream is
    given *unscaled* (``idxs``/``lens``/``prefix`` as in
    :meth:`~repro.core.itemstore.ItemStore.emit_window`); ``setup_sc`` and
    ``quota_sc`` carry the caller's scale.  Machine ``b`` receives the
    window ``[b·quota, b·quota + room_b)`` of the stream (``room_b`` is the
    full quota except on the last machine), which reproduces the
    carry-splitting of the historical per-item loop exactly: boundary jobs
    become :data:`~repro.core.itemstore.PIECE` slots, interior jobs are
    bulk slice extends.

    Returns ``(machines, pieces)``: the fresh machines used, and every
    split piece as ``(machine, slot, stream_pos)`` for the caller's
    parent map.  The caller must ensure ``quota_sc > 0`` (Lemma 6's
    ``T > s_i`` precondition) and a non-empty stream.
    """
    total_sc = prefix[-1] * scale
    if total_sc <= 0:
        return [], []
    k = -(-total_sc // quota_sc)
    machines: list[int] = []
    pieces: list[tuple[int, int, int]] = []
    for b in range(k):
        u = store.take_machine()
        machines.append(u)
        store.place(u, cls, -1, setup_sc)
        w0 = b * quota_sc
        w1 = w0 + quota_sc if b < k - 1 else total_sc
        for slot, pos in store.emit_window(u, cls, idxs, lens, prefix, scale, w0, w1):
            pieces.append((u, slot, pos))
    return machines, pieces


def template_for_machines(
    machines: Sequence[int], a: TimeLike, b: TimeLike, first: tuple[TimeLike, TimeLike] | None = None
) -> WrapTemplate:
    """Convenience: identical gaps ``[a,b)`` on ``machines``.

    ``first`` optionally overrides the first gap's interval — the common
    pattern ``ω_1 = (u, 0, T)``, ``ω_{1+r} = (u+r, s_i, T)`` from the paper.
    """
    gaps: list[tuple[int, TimeLike, TimeLike]] = []
    for k, u in enumerate(machines):
        if k == 0 and first is not None:
            gaps.append((u, first[0], first[1]))
        else:
            gaps.append((u, a, b))
    return WrapTemplate.of(gaps)
