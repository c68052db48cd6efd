"""Non-preemptive scheduling: Algorithm 6, Theorems 8 and 9 (Appendix D).

For a makespan guess ``T`` the dual test computes the per-class machine
numbers

* ``m_i = α_i = ⌈P(C_i)/(T−s_i)⌉`` for expensive classes,
* ``m_i = |C_i∩J⁺| + ⌈P(C_i∩K)/(T−s_i)⌉`` for cheap classes

(where ``J⁺ = {t_j > T/2}`` and ``K`` are the cheap jobs with ``s_i+t_j >
T/2``), the residuals ``x_i = P(C_i) − m_i(T−s_i)`` and

``L_nonp = P(J) + Σ m_i s_i + Σ_{x_i>0} s_i``,  ``m′ = Σ m_i``.

Reject iff ``mT < L_nonp`` or ``m < m′`` (plus Note 2's
``T < max_i(s_i+t^(i)_max)``), certifying ``T < OPT``.  Otherwise the
construction yields a feasible *non-preemptive* schedule ≤ 3T/2:

1. schedule ``L`` (preemptively for now): expensive classes and cheap ``K``
   jobs wrapped onto their ``m_i`` machines (quota ``T−s_i`` above one
   setup per machine), each cheap ``J⁺`` job alone on a machine;
2. fill ``C_i \\ L`` onto class-``i`` machines with load < T (splitting at
   ``T``, pieces remember their parent);
3. stream the residual load ``Q = [s_i, C'_i]_{x_i>0}`` greedily over used
   then unused machines, *keeping* items that cross ``T``;
4. repair: (a) every machine whose last item is a job piece gets the whole
   parent job instead, all sibling pieces are removed (shifting items
   down); (b) every step-3 item still ending above ``T`` moves, with a
   fresh setup if it is a job, directly below the item placed next in
   ``Q``-order; trailing setups are dropped.

Since no layout ever contains idle time below the top item, machines are
bottom-to-top item sequences and times are prefix sums.

The construction is implemented **once**, in :class:`_Algo6Driver`: the
step sequencing, the step-3 streaming order, the step-4a/4b repair logic
and the trailing-setup cleanup are shared between the numeric tiers, which
only provide the item representation:

* :class:`_StoreBuilder` (``kernel="fast"``, the default) runs on the
  index-based :class:`~repro.core.itemstore.ItemStore` — parallel int
  columns ``cls | job | length | flags``, machines as slot lists, every
  duration pre-multiplied by the denominator of ``T``.  Steps 1–3 emit
  whole window slices per machine (:func:`~repro.core.wrapping
  .wrap_quota_store` / :meth:`~repro.core.itemstore.ItemStore
  .emit_window`), step 4a removes pieces by flag (no list churn), and
  materialization is a bulk hand-off into the schedule's column store
  (:meth:`~repro.core.schedule.Schedule.extend_runs`) — no per-item
  Python object exists anywhere on this tier.
* :class:`_ReferenceBuilder` (``kernel="fraction"``) keeps the historical
  per-item :class:`_It` objects with exact rationals, as the differential
  and benchmark baseline.  Both tiers produce identical schedules bit for
  bit (``tests/test_fastnum_differential.py``).

Theorem 8 then wraps this dual in an integer binary search: ``OPT ∈ N``,
so the search returns ``T ≤ OPT`` exactly and the ratio is a true 3/2 in
``O(n log(n+Δ))``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterator, Optional

from ..core.bounds import Variant, setup_plus_tmax, t_min
from ..core.classification import NonpPartition, nonp_partition, nonp_partition_fast
from ..core.errors import ConstructionError, RejectedMakespanError
from ..core.fastnum import fast_nonp_test, validate_kernel
from ..core.instance import Instance, JobRef
from ..core.itemstore import CROSSED, FROM_STEP3, PIECE, REMOVED, ItemStore
from ..core.numeric import Time, TimeLike, as_time, fast_fraction, time_str
from ..core.schedule import Placement, Schedule
from ..core.wrapping import wrap_quota_store
from .search import SearchResult, drive_plan, integer_probe_plan, probe_evaluator


@dataclass(frozen=True)
class NonpDual:
    """Outcome of the Theorem-9 test for one makespan guess."""

    T: Time
    partition: Optional[NonpPartition]
    load: Time            # L_nonp
    machines_needed: int  # m'
    accepted: bool
    reject_reasons: tuple[str, ...] = ()


def nonp_dual_test(instance: Instance, T: TimeLike) -> NonpDual:
    """Theorem 9(i): accept/reject ``T``; rejection certifies ``T < OPT``."""
    T = as_time(T)
    if T <= 0:
        raise ValueError("T must be positive")
    if T < setup_plus_tmax(instance):
        return NonpDual(
            T=T, partition=None, load=Fraction(instance.total_load),
            machines_needed=instance.m + 1, accepted=False,
            reject_reasons=("T < max(s_i + t_max^i)",),
        )
    part = nonp_partition(instance, T)
    load = Fraction(instance.total_processing)
    load += sum(part.m_i(i) * instance.setups[i] for i in range(instance.c))
    load += sum(instance.setups[i] for i in range(instance.c) if part.x_i(i) > 0)
    m_prime = part.m_total
    reasons = []
    if instance.m * T < load:
        reasons.append("mT < L_nonp")
    if instance.m < m_prime:
        reasons.append("m < m'")
    return NonpDual(
        T=T, partition=part, load=load, machines_needed=m_prime,
        accepted=not reasons, reject_reasons=tuple(reasons),
    )


# --------------------------------------------------------------------------- #
# construction — shared driver
# --------------------------------------------------------------------------- #


@dataclass(eq=False, slots=True)
class _It:
    """One item of the reference tier's bottom-to-top machine lists.

    The fast tier stores the same fields as :class:`ItemStore` columns
    (an item is a slot index there); this object form survives only on
    the ``kernel="fraction"`` reference path, where ``length`` is an
    exact rational.
    """

    cls: int
    job: Optional[JobRef]   # None = setup
    length: object          # Fraction duration (reference tier)
    is_piece: bool = False  # True while this is a partial piece of its job
    from_step3: bool = False
    crossed: bool = False   # pushed its machine past T when placed in step 3
    removed: bool = False

    @property
    def is_setup(self) -> bool:
        return self.job is None


def _frac_end(items: list[_It]) -> Time:
    return sum((it.length for it in items), Fraction(0))


def _configured_class(items: list[_It], upto: int) -> Optional[int]:
    """The class the machine is set up for just before position ``upto``."""
    state: Optional[int] = None
    for it in items[:upto]:
        state = it.cls
    return state


def _materialize_items(instance: Instance, machines: list[list[_It]]) -> Schedule:
    """Build a Schedule from reference-tier item lists (prefix-sum starts)."""
    schedule = Schedule(instance)
    for u, items in enumerate(machines):
        t = Fraction(0)
        for it in items:
            schedule.add(
                Placement(
                    machine=u, start=t, length=it.length, cls=it.cls, job=it.job
                )
            )
            t += it.length
    return schedule


class _Algo6Driver:
    """Algorithm 6's construction, parameterized over the item tier.

    Everything behavioral lives here — written once so the fast and
    reference tiers cannot drift: the step-1 class order, the step-2
    residual bookkeeping, the step-3 fill order, step 4a's
    closed-machines-first consolidation, step 4b's relocation rules and
    the trailing-setup cleanup.  Subclasses provide the representation
    primitives (item handles are opaque: int slots on the fast tier,
    :class:`_It` objects on the reference tier; handle comparison with
    ``==`` must be identity-like — slots are unique ints, ``_It`` has no
    ``__eq__``).

    The step-4a ordering encodes the known-good fix: a preempted job's
    pieces sit at the tops of machines (step-1/2 splits happen exactly
    when a machine fills, the residual piece streams into step 3), and
    consolidation prefers a *closed* (non-step-3) machine when one
    exists — closed machines never receive step-3 items or step-4b
    relocations, so de-preemption growth (< t_j ≤ T/2 above T) cannot
    stack with a relocated chunk there.  Consolidating at the step-3
    piece first can stack both on one machine and break the 3T/2 bound
    (see the regression tests in ``tests/test_nonpreemptive.py``).
    """

    def __init__(
        self,
        instance: Instance,
        T: Time,
        part: NonpPartition,
        stages_out: Optional[dict],
    ) -> None:
        self.instance = instance
        self.T = T
        self.part = part
        self.stages_out = stages_out
        #: job key -> [(machine, item)]: the split pieces of each preempted
        #: job (the reference tier also registers whole items — inert, a
        #: whole job's item is never consolidated).
        self.pieces_of: dict = {}
        self.class_machines: dict[int, list[int]] = {}
        #: Q indices of the items that crossed ``T`` in step 3, ascending.
        self.crossed_positions: list[int] = []
        self.fill_machines: list[int] = []

    # -- orchestration -------------------------------------------------- #

    def run(self) -> Schedule:
        self.step1()
        self.snapshot("step1")
        self.step2()
        self.snapshot("step2")
        self.step3()
        self.snapshot("step3")
        self.step4a()
        self.step4b()
        for u in range(self.instance.m):
            self.drop_trailing_setups(u)
        schedule = self.materialize(final=True)
        self.snapshot("step4")
        return schedule

    def snapshot(self, key: str) -> None:
        if self.stages_out is not None:
            self.stages_out[key] = self.materialize()

    # ---- step 1: schedule L on m_i machines per class ------------------ #

    def step1(self) -> None:
        part = self.part
        for i in range(self.instance.c):
            if i in part.exp:
                self.wrap_quota(i, None)
            else:
                for j in part.big_jobs.get(i, ()):  # C_i ∩ J⁺, one machine each
                    self.place_big(i, j)
                k_jobs = part.k_jobs.get(i, ())
                if k_jobs:
                    self.wrap_quota(i, k_jobs)
        used = self.machines_used()
        if used != part.m_total:
            raise ConstructionError(
                f"step 1 used {used} machines, expected m'={part.m_total}"
            )

    # ---- step 2: fill C_i \ L onto class-i machines -------------------- #

    def step2(self) -> None:
        part = self.part
        big, kj = part.big_jobs, part.k_jobs
        for i in part.chp:
            if i not in big and i not in kj:  # C_i ∩ L = ∅, m_i = 0
                self.fill_class(i, None)      # whole class is residual load
                continue
            l_set = set(part.l_jobs(i))
            todo = [
                jt for jt in self.instance.class_jobs_view(i) if jt[0] not in l_set
            ]
            if todo:
                self.fill_class(i, todo)

    # ---- step 3: stream the residual Q over used, then unused machines - #

    def step3(self) -> None:
        nm = self.machines_used()
        fill = [u for u in range(nm) if self.below_T(u)]
        fill.extend(range(nm, self.instance.m))
        self.fill_machines = fill
        if self.stream_q(fill):
            raise ConstructionError(
                "step 3 ran out of machines (R <= (m-m')T violated)"
            )

    # ---- step 4a: de-preempt (closed machines first, see class doc) ---- #

    def step4a(self) -> None:
        for from3 in (False, True):
            for u in range(self.instance.m):
                it = self.last_item(u)
                if (
                    it is None
                    or self.is_setup(it)
                    or not self.is_piece(it)
                    or self.from_step3(it) != from3
                ):
                    continue
                # replace the last piece by the whole parent job, drop siblings
                key = self.job_key(it)
                for v, piece in self.pieces_of[key]:
                    if piece == it:
                        continue
                    self.remove_piece(v, piece)
                self.make_whole(it)
                self.pieces_of[key] = [(u, it)]

    # ---- step 4b: relocate the step-3 crossing items ------------------- #
    # "Crossing" is judged at step-3 time (the paper's reading): step 4a's
    # shift-downs may have pulled an item back below T, but the machine
    # *transition* it marks still needs its setup carried over.

    def step4b(self) -> None:
        fill = self.fill_machines
        n = self.q_count()
        for idx in self.crossed_positions:
            it = self.q_item(idx)
            u = self.q_machine_at(idx)
            # the item placed next that is still alive anchors the insertion
            nxt: Optional[tuple[int, object]] = None
            for k in range(idx + 1, n):
                cand = self.q_item(k)
                if not self.is_removed(cand):
                    nxt = (self.q_machine_at(k), cand)
                    break
            if nxt is None:
                # q ends Q.  If (post step-4a) it no longer exceeds T, it
                # stays.  Otherwise it moves to the next machine in fill
                # order — the paper's "passes away its last item to u+"
                # with no anchor item.  A target always exists: used fill
                # machines keep load < T slack by the x_i accounting, and
                # crossed machines satisfy k·T < R ≤ (m−m')T, leaving a
                # fresh machine otherwise.
                if (
                    self.is_removed(it)
                    or self.end_within_T(u)
                    or self.last_item(u) != it
                ):
                    break
                self.detach(u, it)
                if self.is_setup(it):
                    break  # a trailing setup is simply dropped
                pos_u = fill.index(u)
                target = next(
                    (v for v in fill[pos_u + 1:] if self.end_within_T(v)), None
                )
                if target is None:
                    target = next(
                        (v for v in range(self.instance.m) if self.machine_empty(v)),
                        None,
                    )
                if target is None:
                    raise ConstructionError(
                        "no machine available for the final crossing item"
                    )
                self.append_setup(target, self.cls_of(it))
                self.append_item(target, it)
                break
            v, anchor = nxt
            pos = self.index_of(v, anchor)
            if self.is_removed(it):
                # The crossing item was a job piece whose parent was
                # re-homed by step 4a.  The continuation on machine v still
                # needs a setup if the anchor is a mid-class job; cost ≤
                # s_i ≤ T/2, same bound as a regular move.
                if (
                    not self.is_setup(anchor)
                    and self.configured_class(v, pos) != self.cls_of(anchor)
                ):
                    self.insert_setup(v, pos, self.cls_of(anchor))
                continue
            self.detach(u, it)
            if not self.is_setup(it):
                self.insert_setup(v, pos, self.cls_of(it))
                self.insert_item(v, pos + 1, it)
            else:
                self.insert_item(v, pos, it)


class _StoreBuilder(_Algo6Driver):
    """The fast tier: Algorithm 6 on the index-based :class:`ItemStore`.

    Every duration is pre-multiplied by the denominator ``D`` of ``T``
    (the :mod:`repro.core.fastnum` convention), so quotas, splits,
    machine ends and repairs are integer-only; items are slot indices
    into the store's parallel columns and no per-item Python object is
    created.  Steps 1–3 emit whole window slices per machine against the
    instance's cached per-class prefix sums; materialization bulk-adopts
    the store's machine runs into the schedule's column store.
    """

    def __init__(self, instance, T, part, stages_out) -> None:
        super().__init__(instance, T, part, stages_out)
        self.D: int = T.denominator      # everything below is scaled by D
        self.Ts: int = T.numerator       # T·D — an int
        self.store = ItemStore(instance.m)
        #: cls -> (idxs, lens, prefix, scaled offset) leftover after step 2.
        self.residual: dict[int, tuple] = {}
        #: Q-order bookkeeping: slots [q_base, q_base+q_n) are the stream,
        #: machine assignment as parallel (start index, machine) lists.
        self.q_base = 0
        self.q_n = 0
        self.q_assign_start: list[int] = []
        self.q_assign_mach: list[int] = []
        if stages_out is not None:
            stages_out["item_store"] = self.store  # diagnostics (flag tests)

    # -- placement ------------------------------------------------------- #

    def machines_used(self) -> int:
        return self.store.next_machine

    def below_T(self, u: int) -> bool:
        return self.store.ends[u] < self.Ts

    def _stream(self, i: int, jobs) -> tuple:
        """``(idxs, lens, prefix)`` of a job stream, unscaled.

        ``jobs=None`` selects the whole class — the cached tuples are used
        directly, so the integer-``T`` hot path never copies a length.
        """
        inst = self.instance
        if jobs is None:
            return (
                range(len(inst.jobs[i])), inst.jobs[i], inst.class_prefix(i)
            )
        times = inst.jobs[i]
        idxs = [j.idx for j in jobs]
        lens = [times[k] for k in idxs]
        return idxs, lens, list(accumulate(lens, initial=0))

    def _register_pieces(self, i: int, idxs, pieces) -> None:
        po = self.pieces_of
        for u, slot, pos in pieces:
            po.setdefault((i, idxs[pos]), []).append((u, slot))

    def wrap_quota(self, i: int, jobs) -> None:
        """Wrap ``[s_i, jobs]`` onto fresh machines with job quota T−s_i."""
        idxs, lens, prefix = self._stream(i, jobs)
        if prefix[-1] <= 0:
            return
        D = self.D
        s_sc = self.instance.setups[i] * D
        quota = self.Ts - s_sc
        if quota <= 0:
            raise ConstructionError(f"class {i}: bad quota at T={time_str(self.T)}")
        machines, pieces = wrap_quota_store(
            self.store, i, s_sc, quota, idxs, lens, prefix, D
        )
        if machines:
            self.class_machines.setdefault(i, []).extend(machines)
        self._register_pieces(i, idxs, pieces)

    def place_big(self, i: int, j: JobRef) -> None:
        store = self.store
        u = store.take_machine()
        self.class_machines.setdefault(i, []).append(u)
        D = self.D
        store.place(u, i, -1, self.instance.setups[i] * D)
        store.place(u, i, j.idx, self.instance.job_time(j) * D)

    def fill_class(self, i: int, todo) -> None:
        if todo is None:
            idxs, lens, prefix = self._stream(i, None)
        else:
            times = self.instance.jobs[i]
            idxs = [j.idx for j, _ in todo]
            lens = [times[k] for k in idxs]
            prefix = list(accumulate(lens, initial=0))
        D = self.D
        Ts = self.Ts
        total_sc = prefix[-1] * D
        store = self.store
        ends = store.ends
        off = 0
        for u in self.class_machines.get(i, ()):
            room = Ts - ends[u]
            if room <= 0:
                continue
            w1 = off + room
            if w1 > total_sc:
                w1 = total_sc
            self._register_pieces(
                i, idxs, [
                    (u, slot, pos)
                    for slot, pos in store.emit_window(
                        u, i, idxs, lens, prefix, D, off, w1
                    )
                ],
            )
            off = w1
            if off >= total_sc:
                break
        if off < total_sc:
            self.residual[i] = (idxs, lens, prefix, off)

    def stream_q(self, fill: list[int]) -> bool:
        store = self.store
        D, Ts = self.D, self.Ts
        setups = self.instance.setups
        # Q items land straight in the store as one contiguous slot block
        # (machine assignment is then pure span bookkeeping over the
        # prefix sums — one appended span per machine); only the scaled
        # lengths keep a side list for the accumulate below.
        base = len(store.cls)
        qc, qj, qf = store.cls, store.job, store.flags
        ql: list[int] = []
        piece_pos: list[tuple[int, int, int]] = []  # (q index, cls, job idx)
        misc = self.instance._misc_cache
        jobs_t = self.instance.jobs
        for i in sorted(self.residual):
            idxs, lens, prefix, off = self.residual[i]
            if off == 0 and lens is jobs_t[i]:
                # Whole untouched class (m_i = 0, skipped by step 2 — the
                # identity test rules out filtered todo streams): its
                # [setup, C_i] block is T-independent, cached per instance
                # and spliced with four C-level extends per sweep point.
                blk = misc.get(("q3", i))
                if blk is None:
                    k1 = len(lens) + 1
                    blk = ([i] * k1, [-1] + list(idxs), [FROM_STEP3] * k1)
                    misc[("q3", i)] = blk
                qc.extend(blk[0])
                qj.extend(blk[1])
                qf.extend(blk[2])
                ql.append(setups[i] * D)
                if D == 1:
                    ql.extend(lens)
                else:
                    ql.extend([t * D for t in lens])
                continue
            qc.append(i)
            qj.append(-1)
            ql.append(setups[i] * D)
            qf.append(FROM_STEP3)
            j0 = bisect_right(prefix, off // D) - 1
            first_sc = prefix[j0 + 1] * D - off
            if first_sc < lens[j0] * D:
                piece_pos.append((len(ql), i, idxs[j0]))
                qf.append(FROM_STEP3 | PIECE)
            else:
                qf.append(FROM_STEP3)
            qc.append(i)
            qj.append(idxs[j0])
            ql.append(first_sc)
            rest = len(lens) - (j0 + 1)
            if rest:
                qc.extend([i] * rest)
                qj.extend(idxs[j0 + 1:])
                if D == 1:
                    ql.extend(lens[j0 + 1:])
                else:
                    ql.extend([t * D for t in lens[j0 + 1:]])
                qf.extend([FROM_STEP3] * rest)
        nq = len(ql)
        if nq == 0:
            return False
        self.q_base = base
        self.q_n = nq
        store.length.extend(ql)
        PQ = list(accumulate(ql, initial=0))
        ends = store.ends
        pos = 0
        pp = 0
        for u in fill:
            if pos >= nq:
                break
            room = Ts - ends[u]
            # items pos..e-1 fit (end stays ≤ T); the next item, if any,
            # is placed too and crosses (strict >, zero-length setups can
            # never cross) — then the stream turns to the next machine.
            e = bisect_right(PQ, PQ[pos] + room) - 1
            hi = e + 1 if e < nq else nq
            store._append_span(u, base + pos, base + hi)
            ends[u] += PQ[hi] - PQ[pos]
            self.q_assign_start.append(pos)
            self.q_assign_mach.append(u)
            while pp < len(piece_pos) and piece_pos[pp][0] < hi:
                qidx, ci, ji = piece_pos[pp]
                self.pieces_of.setdefault((ci, ji), []).append((u, base + qidx))
                pp += 1
            if e < nq:
                store.flags[base + e] |= CROSSED
                self.crossed_positions.append(e)
            pos = hi
        return pos < nq

    def q_count(self) -> int:
        return self.q_n

    def q_item(self, k: int) -> int:
        return self.q_base + k

    def q_machine_at(self, k: int) -> int:
        return self.q_assign_mach[bisect_right(self.q_assign_start, k) - 1]

    # -- repair primitives ------------------------------------------------ #

    def last_item(self, u: int):
        s = self.store.alive_last(u)
        return None if s < 0 else s

    def is_setup(self, it) -> bool:
        return self.store.job[it] < 0

    def is_piece(self, it) -> bool:
        return bool(self.store.flags[it] & PIECE)

    def from_step3(self, it) -> bool:
        return bool(self.store.flags[it] & FROM_STEP3)

    def is_crossed(self, it) -> bool:
        return bool(self.store.flags[it] & CROSSED)

    def is_removed(self, it) -> bool:
        return bool(self.store.flags[it] & REMOVED)

    def cls_of(self, it) -> int:
        return self.store.cls[it]

    def job_key(self, it):
        return (self.store.cls[it], self.store.job[it])

    def remove_piece(self, v: int, piece) -> None:
        self.store.mark_removed(piece)

    def make_whole(self, it) -> None:
        store = self.store
        store.length[it] = self.instance.jobs[store.cls[it]][store.job[it]] * self.D
        store.flags[it] &= ~PIECE

    def end_within_T(self, u: int) -> bool:
        return self.store.alive_end(u) <= self.Ts

    def machine_empty(self, u: int) -> bool:
        return self.store.alive_empty(u)

    def detach(self, u: int, it) -> None:
        self.store.detach(u, it)

    def index_of(self, v: int, anchor) -> int:
        return self.store.index(v, anchor)

    def configured_class(self, v: int, pos: int) -> Optional[int]:
        return self.store.configured_class(v, pos)

    def insert_setup(self, v: int, pos: int, cls: int) -> None:
        slot = self.store.new_item(cls, -1, self.instance.setups[cls] * self.D)
        self.store.insert(v, pos, slot)

    def insert_item(self, v: int, pos: int, it) -> None:
        self.store.insert(v, pos, it)

    def append_setup(self, u: int, cls: int) -> None:
        store = self.store
        store.push(u, store.new_item(cls, -1, self.instance.setups[cls] * self.D))

    def append_item(self, u: int, it) -> None:
        self.store.push(u, it)

    def drop_trailing_setups(self, u: int) -> None:
        self.store.drop_trailing_setups(u)

    def materialize(self, final: bool = False) -> Schedule:
        schedule = Schedule(self.instance)
        if final:
            # The construction is done and the store is never mutated
            # again: hand it over whole — columns materialize only if a
            # caller actually reads the schedule.
            schedule.adopt_runs(self.store, self.D)
        else:
            # Stage snapshots copy the store's current state eagerly.
            schedule.extend_runs(self.store.runs(), self.D)
        return schedule


class _ReferenceBuilder(_Algo6Driver):
    """The reference tier: per-item :class:`_It` objects, exact rationals.

    Kept semantically verbatim from the pre-kernel implementation — the
    differential and benchmark baseline for the store tier.  Per-item
    Fractions, machine ends recomputed by summation, physical list
    removal.  Do not optimize; the shared :class:`_Algo6Driver` already
    guarantees the *logic* cannot drift, this class pins the historical
    *representation*.
    """

    def __init__(self, instance, T, part, stages_out) -> None:
        super().__init__(instance, T, part, stages_out)
        self.machines: list[list[_It]] = [[] for _ in range(instance.m)]
        self.next_machine = 0
        self.residual: dict[int, list[tuple[JobRef, Fraction]]] = {}
        self.step3_order: list[tuple[int, _It]] = []

    # -- placement ------------------------------------------------------- #

    def machines_used(self) -> int:
        return self.next_machine

    def below_T(self, u: int) -> bool:
        return _frac_end(self.machines[u]) < self.T

    def take_machine(self) -> int:
        if self.next_machine >= self.instance.m:
            raise ConstructionError("Algorithm 6 ran out of machines")
        self.next_machine += 1
        return self.next_machine - 1

    def _place(self, u: int, it: _It) -> _It:
        self.machines[u].append(it)
        if it.job is not None:
            self.pieces_of.setdefault(it.job, []).append((u, it))
        return it

    def wrap_quota(self, i: int, jobs) -> None:
        """Wrap ``[s_i, jobs]`` onto fresh machines with job quota T−s_i."""
        instance = self.instance
        T = self.T
        if jobs is None:
            pairs = instance.class_jobs(i)
        else:
            pairs = [(j, instance.job_time(j)) for j in jobs]
        s = Fraction(instance.setups[i])
        quota_full = T - s
        total = sum(Fraction(t) for _, t in pairs)
        if total <= 0:
            return
        k = -(-total // quota_full) if quota_full > 0 else None
        if k is None or k <= 0:
            raise ConstructionError(f"class {i}: bad quota at T={time_str(T)}")
        stream: Iterator[tuple[JobRef, Fraction]] = iter(
            (j, Fraction(t)) for j, t in pairs
        )
        carry: Optional[tuple[JobRef, Fraction]] = None
        for b in range(int(k)):
            u = self.take_machine()
            self.class_machines.setdefault(i, []).append(u)
            self._place(u, _It(cls=i, job=None, length=s))
            room = quota_full if b < k - 1 else total - quota_full * (k - 1)
            while room > 0:
                if carry is not None:
                    j, length = carry
                    carry = None
                else:
                    nxt = next(stream, None)
                    if nxt is None:
                        break
                    j, length = nxt
                put = min(length, room)
                self._place(
                    u,
                    _It(cls=i, job=j, length=put,
                        is_piece=put < instance.job_time(j)),
                )
                room -= put
                if put < length:
                    carry = (j, length - put)
        if carry is not None or next(stream, None) is not None:
            raise ConstructionError(f"class {i}: quota wrap left residual load")

    def place_big(self, i: int, j: JobRef) -> None:
        instance = self.instance
        u = self.take_machine()
        self.class_machines.setdefault(i, []).append(u)
        self._place(u, _It(cls=i, job=None, length=Fraction(instance.setups[i])))
        self._place(u, _It(cls=i, job=j, length=Fraction(instance.job_time(j))))

    def fill_class(self, i: int, todo) -> None:
        instance = self.instance
        T = self.T
        if todo is None:
            todo = instance.class_jobs_view(i)
        work: list[tuple[JobRef, Fraction]] = [(j, Fraction(t)) for j, t in todo]
        pos = 0  # pointer into work; work[pos] may shrink when split
        for u in self.class_machines.get(i, ()):
            room = T - _frac_end(self.machines[u])
            while room > 0 and pos < len(work):
                j, length = work[pos]
                put = min(length, room)
                self._place(
                    u,
                    _It(cls=i, job=j, length=put,
                        is_piece=put < instance.job_time(j)),
                )
                room -= put
                if put < length:
                    work[pos] = (j, length - put)
                else:
                    pos += 1
            if pos >= len(work):
                break
        if pos < len(work):
            self.residual[i] = work[pos:]

    def stream_q(self, fill: list[int]) -> bool:
        instance = self.instance
        T = self.T
        q_stream: list[_It] = []
        for i in sorted(self.residual):
            q_stream.append(
                _It(cls=i, job=None, length=Fraction(instance.setups[i]),
                    from_step3=True)
            )
            for j, length in self.residual[i]:
                q_stream.append(
                    _It(cls=i, job=j, length=length,
                        is_piece=length < instance.job_time(j), from_step3=True)
                )
        q_iter = iter(q_stream)
        item = next(q_iter, None)
        for u in fill:
            if item is None:
                break
            while item is not None:
                self._place(u, item)
                self.step3_order.append((u, item))
                if _frac_end(self.machines[u]) > T:
                    item.crossed = True
                    self.crossed_positions.append(len(self.step3_order) - 1)
                    item = next(q_iter, None)
                    break  # crossing item stays; turn to the next machine
                item = next(q_iter, None)
        return item is not None

    def q_count(self) -> int:
        return len(self.step3_order)

    def q_item(self, k: int) -> _It:
        return self.step3_order[k][1]

    def q_machine_at(self, k: int) -> int:
        return self.step3_order[k][0]

    # -- repair primitives ------------------------------------------------ #

    def last_item(self, u: int):
        items = self.machines[u]
        return items[-1] if items else None

    def is_setup(self, it: _It) -> bool:
        return it.job is None

    def is_piece(self, it: _It) -> bool:
        return it.is_piece

    def from_step3(self, it: _It) -> bool:
        return it.from_step3

    def is_crossed(self, it: _It) -> bool:
        return it.crossed

    def is_removed(self, it: _It) -> bool:
        return it.removed

    def cls_of(self, it: _It) -> int:
        return it.cls

    def job_key(self, it: _It):
        return it.job

    def remove_piece(self, v: int, piece: _It) -> None:
        piece.removed = True
        self.machines[v].remove(piece)

    def make_whole(self, it: _It) -> None:
        it.length = Fraction(self.instance.job_time(it.job))
        it.is_piece = False

    def end_within_T(self, u: int) -> bool:
        return _frac_end(self.machines[u]) <= self.T

    def machine_empty(self, u: int) -> bool:
        return not self.machines[u]

    def detach(self, u: int, it: _It) -> None:
        self.machines[u].remove(it)

    def index_of(self, v: int, anchor: _It) -> int:
        return self.machines[v].index(anchor)

    def configured_class(self, v: int, pos: int) -> Optional[int]:
        return _configured_class(self.machines[v], pos)

    def insert_setup(self, v: int, pos: int, cls: int) -> None:
        self.machines[v].insert(
            pos, _It(cls=cls, job=None, length=Fraction(self.instance.setups[cls]))
        )

    def insert_item(self, v: int, pos: int, it: _It) -> None:
        self.machines[v].insert(pos, it)

    def append_setup(self, u: int, cls: int) -> None:
        self.machines[u].append(
            _It(cls=cls, job=None, length=Fraction(self.instance.setups[cls]))
        )

    def append_item(self, u: int, it: _It) -> None:
        self.machines[u].append(it)

    def drop_trailing_setups(self, u: int) -> None:
        items = self.machines[u]
        while items and items[-1].is_setup:
            items.pop()

    def materialize(self, final: bool = False) -> Schedule:
        return _materialize_items(self.instance, self.machines)


def nonp_dual_schedule(
    instance: Instance,
    T: TimeLike,
    stages_out: Optional[dict] = None,
    *,
    kernel: str = "fast",
    pretested: bool = False,
) -> Schedule:
    """Theorem 9(ii): a feasible non-preemptive schedule ≤ 3T/2.

    ``stages_out`` (a dict) receives Figure-10..13 snapshots: Schedules
    materialized after steps 1, 2, 3 and the final repaired schedule
    (plus, on the fast tier, the live ``"item_store"`` for diagnostics).

    With ``kernel="fast"`` the construction runs object-free on the
    index-based :class:`~repro.core.itemstore.ItemStore` (every duration
    pre-multiplied by the denominator of ``T``, steps emitted as bulk
    window slices); ``kernel="fraction"`` keeps the historical per-item
    rational arithmetic.  Both tiers share one driver (step logic cannot
    drift) and produce identical schedules bit for bit.

    ``pretested=True`` skips the Theorem-9 re-test: for callers that just
    accepted ``T`` through the same kernel (the searches' build hooks).
    The partition and construction are unchanged; passing an unaccepted
    ``T`` voids the 3T/2 guarantee instead of raising.
    """
    T = as_time(T)
    if not validate_kernel(kernel):
        if pretested:
            part = nonp_partition(instance, T)
        else:
            dual = nonp_dual_test(instance, T)
            if not dual.accepted:
                raise RejectedMakespanError(
                    f"T={time_str(T)} rejected by Theorem 9: "
                    f"{', '.join(dual.reject_reasons)}"
                )
            part = dual.partition
            assert part is not None
        return _ReferenceBuilder(instance, T, part, stages_out).run()
    # Kernel-complete acceptance + partition: verdict through the scaled-int
    # test, the full Appendix-D partition through its integer twin (the
    # Fraction nonp_dual_test stays untouched as the reference path).
    if not pretested:
        ctx = instance.fast_ctx()
        verdict = fast_nonp_test(ctx, T.numerator, T.denominator)
        if not verdict.accepted:
            if T.numerator < ctx.spt * T.denominator:
                reasons = ["T < max(s_i + t_max^i)"]
            else:
                reasons = []
                if instance.m * T.numerator < verdict.load * T.denominator:
                    reasons.append("mT < L_nonp")
                if instance.m < verdict.machines_needed:
                    reasons.append("m < m'")
            raise RejectedMakespanError(
                f"T={time_str(T)} rejected by Theorem 9: {', '.join(reasons)}"
            )
    part = nonp_partition_fast(instance, T)
    return _StoreBuilder(instance, T, part, stages_out).run()


def three_halves_nonpreemptive(
    instance: Instance,
    *,
    kernel: str = "fast",
    ctx=None,
    build_schedule: bool = True,
) -> SearchResult:
    """Theorem 8 — 3/2-approximation in ``O(n log(n+Δ))``.

    ``kernel="fast"`` (default) probes the Theorem-9 test through the
    scaled-integer kernel (:func:`repro.core.fastnum.fast_nonp_test`);
    ``kernel="fraction"`` keeps the exact-rational reference path.  Both
    make identical accept/reject decisions (differential-tested), hence
    return identical schedules.  ``ctx`` injects a shared probe context
    (machine sweeps); ``build_schedule=False`` returns the certified
    ``T`` without materializing the schedule.
    """
    fast = validate_kernel(kernel)
    T, calls = drive_plan(
        integer_probe_plan(t_min(instance, Variant.NONPREEMPTIVE), "nonp"),
        probe_evaluator(instance, fast=fast, ctx=ctx),
    )
    T = fast_fraction(*T)
    schedule = (
        nonp_dual_schedule(instance, T, kernel=kernel, pretested=True)
        if build_schedule
        else None
    )
    return SearchResult(T, schedule, certificate_lo=T, accept_calls=calls)
