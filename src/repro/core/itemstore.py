"""Index-based item storage for Algorithm 6 — object-free construction.

Algorithm 6 (non-preemptive, Appendix D) builds machines as bottom-to-top
item sequences and repairs them in place (steps 4a/4b).  Until PR 4 every
item was a per-item ``_It`` dataclass; this module replaces that with an
:class:`ItemStore`: four parallel integer columns

    ``cls | job | length | flags``

where an *item* is simply a slot index into them.  ``job`` is the job's
index within its class (``-1`` marks a setup), ``length`` is the scaled
duration (pre-multiplied by the denominator of ``T``, the
:mod:`repro.core.fastnum` convention), and ``flags`` is a bitmask of
:data:`PIECE` / :data:`FROM_STEP3` / :data:`CROSSED` / :data:`REMOVED`.

**Machine membership is a span list** (a CSR-style layout): every bulk
emission appends one contiguous slot range ``[lo, hi)``, and a machine is
the concatenation of its spans in order.  Construction produces 2–3 spans
per machine (one per step that touched it — adjacent ranges merge), so

* materialization is near-memcpy: per span one ``column[lo:hi]`` slice
  per column, handed to
  :meth:`repro.core.schedule.Schedule.extend_runs` which turns the runs
  into columnar rows with prefix-sum starts — no per-item Python object
  exists between the dual test and the finished ``Schedule``;
* step 3's greedy streaming appends exactly one span per machine.

The removal/relocation contract of the repair passes:

* **step 4a (de-preemption)** removes sibling pieces *lazily*:
  :meth:`mark_removed` sets the :data:`REMOVED` bit and leaves the slot
  inside its span — no list churn; every reader (:meth:`alive_last`,
  :meth:`alive_end`, :meth:`configured_class`, :meth:`runs`,
  :meth:`drop_trailing_setups`) skips removed slots, so the *alive* item
  sequence is exactly the physically mutated list of the historical
  implementation.
* **step 4b (relocation)** moves the handful of ``T``-crossing items
  physically — :meth:`detach` splits the containing span,
  :meth:`insert` splices a singleton span at a physical position — so
  relative alive order is preserved.  Positions (:meth:`index`) count
  all slots, removed included, exactly like the historical lists.

The bulk emission primitive :meth:`emit_window` places the portion of a
job stream overlapping a scaled window ``[w0, w1)``: interior jobs are
appended with C-level slice extends (for integer ``T`` — the Theorem-8
search — the instance's cached tuples are extended directly, no per-job
scaling), and at most the two boundary jobs become split pieces.  Both
the step-1 quota wrap (:func:`repro.core.wrapping.wrap_quota_store`) and
the step-2 fill reduce to window emissions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Sequence

from ..obs.trace import count as obs_count
from .errors import ConstructionError

#: The item is a partial piece of its job (siblings live elsewhere).
PIECE = 1
#: The item was streamed in step 3 (the residual sequence ``Q``).
FROM_STEP3 = 2
#: The item pushed its machine past ``T`` when placed in step 3.
CROSSED = 4
#: The item was dropped by step 4a's consolidation (skipped everywhere).
REMOVED = 8


class ItemStore:
    """Parallel int columns + per-machine span lists (see module docstring)."""

    __slots__ = (
        "m", "cls", "job", "length", "flags", "items", "ends",
        "next_machine", "removed_slots",
    )

    def __init__(self, m: int) -> None:
        self.m = m
        self.cls: list[int] = []
        self.job: list[int] = []
        self.length: list[int] = []
        self.flags: list[int] = []
        #: bottom-to-top ``[lo, hi)`` slot spans per machine.
        self.items: list[list[list[int]]] = [[] for _ in range(m)]
        #: running scaled machine ends (valid through step 3).
        self.ends: list[int] = [0] * m
        self.next_machine = 0
        #: slots flagged REMOVED, in removal order (sorted set for runs()).
        self.removed_slots: list[int] = []

    def __len__(self) -> int:
        return len(self.cls)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #

    def take_machine(self) -> int:
        """The next fresh machine (Algorithm 6 uses them left to right)."""
        u = self.next_machine
        if u >= self.m:
            raise ConstructionError("Algorithm 6 ran out of machines")
        self.next_machine = u + 1
        return u

    def new_item(self, cls: int, job: int, length: int, flags: int = 0) -> int:
        """Allocate a slot (not yet on any machine); ``job=-1`` is a setup."""
        slot = len(self.cls)
        self.cls.append(cls)
        self.job.append(job)
        self.length.append(length)
        self.flags.append(flags)
        return slot

    def _append_span(self, u: int, lo: int, hi: int) -> None:
        """Append slots ``[lo, hi)`` at the top of ``u`` (merging if adjacent)."""
        spans = self.items[u]
        if spans and spans[-1][1] == lo:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi])

    def push(self, u: int, slot: int) -> None:
        """Append ``slot`` at the top of machine ``u``."""
        self._append_span(u, slot, slot + 1)
        self.ends[u] += self.length[slot]

    def place(self, u: int, cls: int, job: int, length: int, flags: int = 0) -> int:
        """:meth:`new_item` + :meth:`push` in one call."""
        slot = self.new_item(cls, job, length, flags)
        self._append_span(u, slot, slot + 1)
        self.ends[u] += length
        return slot

    def emit_window(
        self,
        u: int,
        cls: int,
        idxs: Sequence[int],
        lens: Sequence[int],
        prefix: Sequence[int],
        scale: int,
        w0: int,
        w1: int,
        base_flags: int = 0,
    ) -> list[tuple[int, int]]:
        """Emit the job-stream portion overlapping the scaled window ``[w0, w1)``.

        ``idxs``/``lens``/``prefix`` describe the stream *unscaled* (integer
        processing times; ``prefix[k] = Σ lens[:k]``, strictly increasing);
        ``w0``/``w1`` are scaled by ``scale``.  Job ``k`` occupies the scaled
        interval ``[prefix[k]·scale, prefix[k+1]·scale)``; boundary jobs are
        emitted as :data:`PIECE`-flagged splits, interior jobs as one bulk
        slice extend per column.  The emitted slots are contiguous and land
        as a single span on machine ``u``; ``ends[u]`` grows by ``w1 − w0``.

        Returns the pieces emitted as ``(slot, stream_pos)`` pairs (at most
        two) for the caller's parent map.
        """
        obs_count("itemstore.emit")
        D = scale
        P = prefix
        # P[j+1]·D > w0  ⟺  P[j+1] > w0 // D  (ints), so the first
        # overlapping job is the one before the first prefix entry > w0//D;
        # symmetrically P[j]·D < w1 ⟺ P[j] ≤ (w1-1) // D.
        j0 = bisect_right(P, w0 // D) - 1
        j1 = bisect_right(P, (w1 - 1) // D) - 1
        cls_col, job_col = self.cls, self.job
        len_col, flag_col = self.length, self.flags
        base = len(cls_col)
        pieces: list[tuple[int, int]] = []
        left_cut = P[j0] * D < w0
        right_cut = P[j1 + 1] * D > w1
        if j0 == j1 and left_cut and right_cut:
            # one job spans the whole window: a single interior piece
            cls_col.append(cls)
            job_col.append(idxs[j0])
            len_col.append(w1 - w0)
            flag_col.append(base_flags | PIECE)
            pieces.append((base, j0))
        else:
            if left_cut:
                cls_col.append(cls)
                job_col.append(idxs[j0])
                len_col.append(P[j0 + 1] * D - w0)
                flag_col.append(base_flags | PIECE)
                pieces.append((base, j0))
            lo = j0 + 1 if left_cut else j0
            hi = j1 - 1 if right_cut else j1
            if hi >= lo:
                k = hi - lo + 1
                if D == 1:
                    len_col.extend(lens[lo:hi + 1])
                else:
                    len_col.extend([t * D for t in lens[lo:hi + 1]])
                cls_col.extend([cls] * k)
                job_col.extend(idxs[lo:hi + 1])
                flag_col.extend([base_flags] * k)
            if right_cut:
                slot = len(cls_col)
                cls_col.append(cls)
                job_col.append(idxs[j1])
                len_col.append(w1 - P[j1] * D)
                flag_col.append(base_flags | PIECE)
                pieces.append((slot, j1))
        self._append_span(u, base, len(cls_col))
        self.ends[u] += w1 - w0
        return pieces

    # ------------------------------------------------------------------ #
    # repair primitives (steps 4a/4b)
    # ------------------------------------------------------------------ #

    def alive_last(self, u: int) -> int:
        """The top non-removed slot of machine ``u``, or ``-1`` if none."""
        F = self.flags
        for lo, hi in reversed(self.items[u]):
            for slot in range(hi - 1, lo - 1, -1):
                if not F[slot] & REMOVED:
                    return slot
        return -1

    def alive_end(self, u: int) -> int:
        """Scaled end of machine ``u`` over non-removed slots."""
        F = self.flags
        L = self.length
        total = 0
        for lo, hi in self.items[u]:
            for slot in range(lo, hi):
                if not F[slot] & REMOVED:
                    total += L[slot]
        return total

    def alive_empty(self, u: int) -> bool:
        F = self.flags
        return all(
            F[slot] & REMOVED
            for lo, hi in self.items[u]
            for slot in range(lo, hi)
        )

    def mark_removed(self, slot: int) -> None:
        """Step-4a sibling removal: flag only, no span mutation."""
        self.flags[slot] |= REMOVED
        self.removed_slots.append(slot)

    def detach(self, u: int, slot: int) -> None:
        """Physically take ``slot`` off machine ``u`` (step-4b relocation)."""
        spans = self.items[u]
        for k, (lo, hi) in enumerate(spans):
            if lo <= slot < hi:
                if hi - lo == 1:
                    del spans[k]
                elif slot == lo:
                    spans[k][0] = lo + 1
                elif slot == hi - 1:
                    spans[k][1] = hi - 1
                else:
                    spans[k][1] = slot
                    spans.insert(k + 1, [slot + 1, hi])
                return
        raise ValueError(f"slot {slot} not on machine {u}")

    def insert(self, u: int, pos: int, slot: int) -> None:
        """Splice ``slot`` in at physical position ``pos`` (slots counted
        removed-inclusive, like the historical item lists)."""
        spans = self.items[u]
        acc = 0
        for k, (lo, hi) in enumerate(spans):
            width = hi - lo
            if pos <= acc + width:
                off = pos - acc
                if off == 0:
                    spans.insert(k, [slot, slot + 1])
                elif off == width:
                    spans.insert(k + 1, [slot, slot + 1])
                else:
                    spans[k][1] = lo + off
                    spans.insert(k + 1, [slot, slot + 1])
                    spans.insert(k + 2, [lo + off, hi])
                return
            acc += width
        if pos == acc:
            spans.append([slot, slot + 1])
            return
        raise IndexError(f"position {pos} out of range on machine {u}")

    def index(self, u: int, slot: int) -> int:
        """Physical position of ``slot`` on machine ``u`` (removed-inclusive)."""
        acc = 0
        for lo, hi in self.items[u]:
            if lo <= slot < hi:
                return acc + (slot - lo)
            acc += hi - lo
        raise ValueError(f"slot {slot} not on machine {u}")

    def configured_class(self, u: int, pos: int) -> Optional[int]:
        """Class the machine is set up for just before position ``pos``."""
        F = self.flags
        acc = 0
        prev = None
        for lo, hi in self.items[u]:
            width = hi - lo
            stop = min(hi, lo + (pos - acc))
            for slot in range(lo, stop):
                if not F[slot] & REMOVED:
                    prev = self.cls[slot]
            acc += width
            if acc >= pos:
                break
        return prev

    def drop_trailing_setups(self, u: int) -> None:
        """Pop trailing setups (and dead slots above them) off machine ``u``."""
        spans = self.items[u]
        F, J = self.flags, self.job
        while spans:
            lo, hi = spans[-1]
            top = hi - 1
            if F[top] & REMOVED or J[top] < 0:
                if hi - 1 == lo:
                    spans.pop()
                else:
                    spans[-1][1] = hi - 1
            else:
                break

    # ------------------------------------------------------------------ #
    # hand-off
    # ------------------------------------------------------------------ #

    def runs(self) -> Iterator[tuple[int, Sequence[int], Sequence[int], Sequence[int]]]:
        """Per-machine ``(machine, lengths, clss, jobs)`` gathers, bottom to top.

        The input of
        :meth:`repro.core.schedule.Schedule.extend_runs` — starts are the
        prefix sums of ``lengths`` (no idle time below the top item, the
        Algorithm-6 invariant).  Spans without removed slots are yielded
        as plain column slices (one machine with one clean span is three
        zero-glue slices); spans the repairs touched fall back to
        per-slot filtering.
        """
        C, J, L, F = self.cls, self.job, self.length, self.flags
        removed = sorted(self.removed_slots)

        def span_clean(lo: int, hi: int) -> bool:
            k = bisect_left(removed, lo)
            return k >= len(removed) or removed[k] >= hi

        for u, spans in enumerate(self.items):
            if not spans:
                continue
            if len(spans) == 1:
                lo, hi = spans[0]
                if not removed or span_clean(lo, hi):
                    yield u, L[lo:hi], C[lo:hi], J[lo:hi]
                    continue
            lens: list[int] = []
            clss: list[int] = []
            jobs: list[int] = []
            for lo, hi in spans:
                if not removed or span_clean(lo, hi):
                    lens.extend(L[lo:hi])
                    clss.extend(C[lo:hi])
                    jobs.extend(J[lo:hi])
                else:
                    for slot in range(lo, hi):
                        if not F[slot] & REMOVED:
                            lens.append(L[slot])
                            clss.append(C[slot])
                            jobs.append(J[slot])
            if lens:
                yield u, lens, clss, jobs

    def flag_counts(self) -> dict[str, int]:
        """Diagnostic tallies of the repair flags (test/fuzz visibility)."""
        pieces = from3 = crossed = removed = 0
        for f in self.flags:
            if f & PIECE:
                pieces += 1
            if f & FROM_STEP3:
                from3 += 1
            if f & CROSSED:
                crossed += 1
            if f & REMOVED:
                removed += 1
        return {
            "pieces": pieces, "from_step3": from3,
            "crossed": crossed, "removed": removed,
        }
