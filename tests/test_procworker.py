"""The process-shard wire: framing, codecs, child lifecycle, rusage units.

The pipe protocol of :mod:`repro.service.procworker` is the trust
boundary of the process backend — everything a child answers crosses it.
These tests pin the layer down in isolation (no service on top):

* frames round-trip through the length-prefixed protocol-5 encoding,
  including frames larger than the megabyte stream buffers and streams
  that return short reads, and every
  way a stream can end (clean EOF, truncation, corrupt length) maps to
  the documented ``None`` / :class:`EOFError` contract;
* :class:`~repro.core.schedule.ScheduleColumns` survives
  ``to_ipc``/``from_ipc`` (its scale and five int lists) bit-exactly at
  any magnitude;
* request deadlines cross as remaining-time budgets read through the
  token's **own** clock, so injected test clocks propagate through the
  pipe;
* every item crosses whole and the child adopts it without checks;
  ``solve_batch`` shares one representative per fingerprint;
* a process shard's child LRU counts hits, misses and evictions exactly
  like a thread shard's, under eviction pressure, expired work and a
  respawn, without any parent-side model of the child's cache;
* a live :class:`~repro.service.procworker.WorkerProc` becomes ready,
  heartbeats, answers a batch bit-identically, and tears down cleanly;
* ``ru_maxrss`` normalization (KiB everywhere) is exact per platform.
"""

from __future__ import annotations

import asyncio
import io
import pickle
import sys
from array import array
from fractions import Fraction

import pytest

import repro.service.procworker as procworker
import repro.service.protocol as protocol
from repro.algos.api import solve
from repro.core.bounds import Variant
from repro.core.cancel import CancelToken
from repro.core.instance import Instance
from repro.core.schedule import Schedule, ScheduleColumns
from repro.service.procworker import (
    _MAX_FRAME_LEN,
    WorkerProc,
    _item_from_wire,
    read_frame,
    result_from_wire,
    result_to_wire,
    work_to_wire,
    write_frame,
)
from repro.service.protocol import ServiceError, SolveRequest
from repro.service.server import _maxrss_kib, _normalize_maxrss
from repro.service.shards import ProcessShard, Shard, _Work

TINY = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


def fresh(inst: Instance) -> Instance:
    return Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)


def round_trip(obj):
    """One full frame round trip through an in-memory pipe."""
    pipe = io.BytesIO()
    write_frame(pipe, obj)
    pipe.seek(0)
    return read_frame(pipe)


def assert_same_solve(got, want):
    """Same certificate and the same placements, piece by piece."""
    assert got.T == want.T
    assert got.ratio_bound == want.ratio_bound
    assert got.makespan == want.makespan
    key = lambda sched: sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in sched.iter_all()
    )
    assert key(got.schedule) == key(want.schedule)


class TestFraming:
    def test_plain_objects_round_trip(self):
        for obj in (("hb",), ("ready", 4711), {"k": [1, 2, Fraction(1, 3)]},
                    ("batch", 9, [{"deep": ("nest", None)}])):
            assert round_trip(obj) == obj

    def test_buffer_objects_round_trip(self):
        cols = array("q", range(-5, 1000))
        got = round_trip(("result", 1, pickle.PickleBuffer(cols)))
        assert bytes(got[2]) == cols.tobytes()

    def test_frame_larger_than_the_stream_buffer(self):
        """A frame past the 1 MiB buffers of the pipe streams round-trips."""
        obj = ("result", 1, list(range(-(1 << 40), -(1 << 40) + 400_000)))
        raw = io.BytesIO()
        out = io.BufferedWriter(raw, buffer_size=1 << 20)
        write_frame(out, obj)
        write_frame(out, ("hb",))
        data = raw.getvalue()
        assert len(data) > 2 << 20
        inp = io.BufferedReader(io.BytesIO(data), buffer_size=1 << 20)
        assert read_frame(inp) == obj
        assert read_frame(inp) == ("hb",)
        assert read_frame(inp) is None

    def test_multiple_frames_in_sequence(self):
        pipe = io.BytesIO()
        for k in range(5):
            write_frame(pipe, ("msg", k))
        pipe.seek(0)
        assert [read_frame(pipe)[1] for _ in range(5)] == list(range(5))
        assert read_frame(pipe) is None  # clean EOF after the last frame

    def test_clean_eof_is_none(self):
        assert read_frame(io.BytesIO()) is None

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_short_reads_are_reassembled(self, chunk):
        """An unbuffered pipe may return fewer bytes than asked for: the
        length field and the payload are each read to the end."""

        class ShortReads(io.RawIOBase):
            def __init__(self, data):
                self.data = memoryview(data)

            def readable(self):
                return True

            def read(self, n=-1):
                block = bytes(self.data[:min(n, chunk)])
                self.data = self.data[len(block):]
                return block

        pipe = io.BytesIO()
        obj = ("result", 7, list(range(2000)))
        write_frame(pipe, obj)
        write_frame(pipe, ("hb",))
        stream = ShortReads(pipe.getvalue())
        assert read_frame(stream) == obj
        assert read_frame(stream) == ("hb",)
        assert read_frame(stream) is None

    def test_truncation_is_eoferror(self):
        pipe = io.BytesIO()
        write_frame(pipe, ("payload", "x" * 64))
        whole = pipe.getvalue()
        # inside the length field, right after it, inside the payload
        for cut in (2, 7, 8, len(whole) - 1):
            with pytest.raises(EOFError):
                read_frame(io.BytesIO(whole[:cut]))

    def test_length_above_the_bound_is_eoferror(self):
        for length in (_MAX_FRAME_LEN + 1, (1 << 64) - 1):
            bad = length.to_bytes(8, "little")
            with pytest.raises(EOFError, match="corrupt"):
                read_frame(io.BytesIO(bad + b"\x00" * 64))


class TestColumnsIpc:
    def rows(self):
        return [(0, 3, 2, 1, 0, -1), (1, 7, 4, 2, 1, 0), (2, 0, 5, 1, 0, 2)]

    def filled(self, rows) -> ScheduleColumns:
        cols = ScheduleColumns()
        for row in rows:
            cols.append_scaled(*row)
        return cols

    def assert_same(self, got: ScheduleColumns, want: ScheduleColumns):
        assert got.scale == want.scale
        for name in ScheduleColumns._COL_NAMES:
            assert list(getattr(got, name)) == list(getattr(want, name)), name

    def test_round_trip_beyond_int64(self):
        huge = 1 << 70  # far past int64
        rows = self.rows() + [(0, huge, huge + 3, 1, 0, -1)]
        cols = self.filled(rows)
        got = ScheduleColumns.from_ipc(round_trip(cols.to_ipc()))
        self.assert_same(got, cols)
        # exact at any magnitude: the den-1 row stored at scale 2
        assert (got.scale, got.start_num[-1]) == (2, 2 * huge)

    def test_to_ipc_leaves_store_untouched(self):
        """``to_ipc`` ships fresh copies: the store keeps its int lists,
        and appends after packing do not reach the payload."""
        cols = self.filled(self.rows())
        before = [getattr(cols, name) for name in ScheduleColumns._COL_NAMES]
        obj = cols.to_ipc()
        for name, col in zip(ScheduleColumns._COL_NAMES, before):
            assert getattr(cols, name) is col, name
            assert type(col) is list, name
        cols.append_scaled(1, 9, 1, 1, 1, 1)
        got = ScheduleColumns.from_ipc(round_trip(obj))
        self.assert_same(got, self.filled(self.rows()))

    @pytest.mark.parametrize("huge", [False, True], ids=["small", "beyond-int64"])
    def test_from_ipc_decodes_into_int_lists(self, huge):
        """The payload decodes into plain int lists that take appends and
        keep the scale in step with their values."""
        rows = self.rows()
        if huge:
            rows.append((0, 1 << 70, 3, 1, 0, -1))
        got = ScheduleColumns.from_ipc(round_trip(self.filled(rows).to_ipc()))
        for name in ScheduleColumns._COL_NAMES:
            col = getattr(got, name)
            assert type(col) is list, name
            assert all(type(v) is int for v in col), name
        assert got.scale == 2
        got.append_scaled(2, 1, 1, 3, 1, 1)
        want = self.filled(rows + [(2, 1, 1, 3, 1, 1)])
        self.assert_same(got, want)
        assert got.scale == want.scale == 6

    def test_malformed_payload_rejected(self):
        good = [1, [0], [0], [1], [0], [-1]]
        for bad in (None, {}, {"mode": "i64", "cols": good}, tuple(good),
                    good[:5], good + [[0]], good[:5] + [[-1, 0]],
                    good[:5] + [b"\x00" * 8], good[1:], [[1]] + good[1:]):
            with pytest.raises(ValueError, match="malformed"):
                ScheduleColumns.from_ipc(bad)
        assert len(ScheduleColumns.from_ipc(good)) == 1


class TestDeadlineBudget:
    def test_clock_injection_crosses_the_pipe(self):
        """The budget is read through the token's own (injectable) clock."""
        now = [100.0]
        token = CancelToken.after(2.0, clock=lambda: now[0])
        item = SolveRequest(instance=fresh(TINY)).to_item()
        assert work_to_wire(item, token)["remaining_ms"] == 2000.0
        now[0] = 101.5  # fake time passes; wall time does not
        assert work_to_wire(item, token)["remaining_ms"] == 500.0
        now[0] = 103.0  # expired by the fake clock only
        wire = round_trip(work_to_wire(item, token))
        assert wire["remaining_ms"] == 0.0

    def test_no_deadline_crosses_as_none(self):
        item = SolveRequest(instance=fresh(TINY)).to_item()
        assert work_to_wire(item, None)["remaining_ms"] is None
        assert work_to_wire(item, CancelToken())["remaining_ms"] is None

    def test_explicit_cancel_crosses_as_zero(self):
        token = CancelToken.after(3600.0)
        token.cancel()
        item = SolveRequest(instance=fresh(TINY)).to_item()
        assert work_to_wire(item, token)["remaining_ms"] == 0.0


class TestItemWire:
    """Every item crosses whole; the child adopts it as it arrives, and
    ``solve_batch`` alone shares one representative per fingerprint."""

    def test_full_item_adopts_the_parents_checked_instance(self, monkeypatch):
        # The parent's instance passed the constructor's checks, so the
        # child takes its tuples and fingerprint as they arrive: neither
        # the wire validator nor ``__post_init__`` runs again.
        inst = fresh(TINY)
        fp = inst.fingerprint()
        wire = round_trip(work_to_wire(SolveRequest(instance=inst).to_item(), None))
        assert wire["instance"] == {"m": inst.m, "setups": inst.setups,
                                    "jobs": inst.jobs}
        assert wire["fp"] == fp

        def refuse(*args, **kwargs):
            raise AssertionError("the child re-validated a checked payload")

        monkeypatch.setattr(protocol, "instance_from_obj", refuse)
        monkeypatch.setattr(procworker, "instance_from_obj", refuse, raising=False)
        monkeypatch.setattr(Instance, "__post_init__", refuse)
        got = _item_from_wire(wire).instance
        assert got == inst
        assert type(got.setups) is tuple and type(got.jobs[0]) is tuple
        assert got._misc_cache == {"fingerprint": fp}

    def test_every_item_crosses_whole(self):
        # Repeats of one fingerprint carry their payload too: the parent
        # keeps no model of what the child already holds.
        wires = [work_to_wire(SolveRequest(instance=fresh(TINY),
                                           variant=variant).to_item(), None)
                 for variant in Variant]
        for wire in wires:
            assert set(wire) == {"instance", "fp", "variant", "algorithm",
                                 "eps", "schedules", "ms", "remaining_ms",
                                 "fault"}
            assert wire["instance"] == {"m": TINY.m, "setups": TINY.setups,
                                        "jobs": TINY.jobs}
            assert wire["fp"] == TINY.fingerprint()

    def test_item_round_trips_field_for_field(self):
        items = [
            SolveRequest(instance=fresh(TINY)).to_item(),
            SolveRequest(instance=fresh(TINY), variant=Variant.PREEMPTIVE,
                         algorithm="eps", eps=Fraction(1, 7),
                         schedules=False).to_item(),
            SolveRequest(instance=fresh(TINY), variant=Variant.SPLITTABLE,
                         ms=(1, 3, 5)).to_item(),
        ]
        for item in items:
            assert _item_from_wire(round_trip(work_to_wire(item, None))) == item

    def test_decode_shares_nothing_between_items(self):
        # Two items of one fingerprint decode into two instances with
        # their own caches; only ``solve_batch`` maps them onto one
        # representative.
        wire = round_trip(work_to_wire(
            SolveRequest(instance=fresh(TINY)).to_item(), None))
        first = _item_from_wire(wire).instance
        second = _item_from_wire(wire).instance
        assert first == second and first is not second
        assert first._misc_cache is not second._misc_cache
        assert first._jobs_sorted_cache is not second._jobs_sorted_cache
        assert first.fingerprint() == second.fingerprint() == TINY.fingerprint()

    def test_fault_directive_rides_with_its_own_item(self):
        # The parent adjudicates item faults and ships each directive in
        # its item; the child's isolation retry replays it on that item
        # alone, so its neighbours of the same fingerprint still answer.
        item = SolveRequest(instance=fresh(TINY)).to_item()
        directives = [None, {"delays": [], "wedges": [], "raise": "injected"},
                      None]
        worker = WorkerProc(0, max_instances=4)
        worker.start()
        try:
            worker.send_batch(1, [work_to_wire(item, None, directive)
                                  for directive in directives])
            msg = worker.frames.get(timeout=30)
            assert msg[0] == "result" and msg[1] == 1
            assert [outcome[0] for outcome in msg[2]] == ["ok", "err", "ok"]
            assert msg[2][1][1] == "internal"
            for status, payload in (msg[2][0], msg[2][2]):
                got = result_from_wire(payload, fresh(TINY))
                assert_same_solve(got, solve(fresh(TINY)))
        finally:
            worker.destroy()

    def test_repeated_fingerprint_in_one_frame_shares_one_representative(self):
        items = [SolveRequest(instance=fresh(TINY), variant=variant).to_item()
                 for variant in Variant]
        wider = Instance(m=TINY.m + 1, setups=TINY.setups, jobs=TINY.jobs)
        worker = WorkerProc(0, max_instances=4)
        worker.start()
        try:
            worker.send_batch(1, [work_to_wire(item, None) for item in items])
            msg = worker.frames.get(timeout=30)
            assert msg[0] == "result" and msg[1] == 1
            lru = msg[3]
            assert (lru["entries"], lru["misses"], lru["hits"]) == (1, 1, 2)
            for item, (status, payload) in zip(items, msg[2]):
                assert status == "ok"
                got = result_from_wire(payload, fresh(TINY))
                assert_same_solve(got, solve(fresh(TINY), item.variant))
            worker.send_batch(2, [work_to_wire(
                SolveRequest(instance=wider).to_item(), None)])
            msg = worker.frames.get(timeout=30)
            assert msg[0] == "result" and msg[1] == 2
            lru = msg[3]
            assert (lru["entries"], lru["misses"], lru["hits"]) == (1, 1, 3)
            [(status, payload)] = msg[2]
            assert status == "ok"
            assert_same_solve(result_from_wire(payload, wider), solve(wider))
        finally:
            worker.destroy()


@pytest.mark.parametrize("backend", [Shard, ProcessShard],
                         ids=["thread", "process"])
class TestChildLRU:
    """A process shard's child LRU counts exactly like a thread shard's.

    Every item crosses whole and ``solve_batch`` resolves its fingerprint
    against the solving side's own ``InstanceLRU``, so eviction pressure
    and expired work move the counters alike on both backends, and no
    answer depends on what the parent believes the child holds.
    """

    A = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])
    B = Instance.build(2, [(3, [5, 1]), (2, [4])])
    C = Instance.build(2, [(1, [7]), (4, [1, 1])])

    @staticmethod
    def submit(shard, loop, inst: Instance, cancel=None):
        future = loop.create_future()
        item = SolveRequest(instance=fresh(inst)).to_item()
        shard.submit(_Work(item, future, loop, cancel))
        return future

    def serve(self, shard, batches, expired=()):
        """Submit each batch whole and await it before the next.

        Instances in ``expired`` go with an already cancelled deadline.
        Returns every outcome (a result or a ``ServiceError``) in submit
        order and the shard's LRU counters before it closes.
        """
        async def main():
            loop = asyncio.get_running_loop()
            shard.start()
            try:
                outcomes = []
                for batch in batches:
                    futures = []
                    for inst in batch:
                        token = None
                        if inst in expired:
                            token = CancelToken.after(3600.0)
                            token.cancel()
                        futures.append(self.submit(shard, loop, inst, token))
                    outcomes += await asyncio.wait_for(
                        asyncio.gather(*futures, return_exceptions=True), 60)
                return outcomes, shard.stats().lru
            finally:
                await loop.run_in_executor(None, shard.close)

        return asyncio.run(main())

    def test_eviction_pressure_forgets_the_oldest(self, backend):
        # max_instances=2: admitting B then C evicts A, so A comes back
        # cold (evicting B) while C stays warm.
        shard = backend(0, max_batch=16, max_instances=2)
        order = [[self.A], [self.B, self.C], [self.A], [self.C]]
        outcomes, lru = self.serve(shard, order)
        for inst, got in zip([i for batch in order for i in batch], outcomes):
            assert_same_solve(got, solve(fresh(inst)))
        assert (lru.misses, lru.hits, lru.evictions) == (4, 1, 2)
        assert lru.entries == lru.peak_entries == 2

    def test_expired_work_never_touches_the_lru(self, backend):
        # B's deadline passed before dispatch: it resolves as a timeout
        # at dequeue, neither solving nor admitting, so A stays warm.
        shard = backend(0, max_batch=16, max_instances=2)
        order = [[self.A], [self.B], [self.C], [self.A]]
        outcomes, lru = self.serve(shard, order, expired=(self.B,))
        assert isinstance(outcomes[1], ServiceError)
        assert outcomes[1].code == "timeout"
        for inst, got in zip([self.A, self.C, self.A],
                             [outcomes[0], outcomes[2], outcomes[3]]):
            assert_same_solve(got, solve(fresh(inst)))
        assert (lru.misses, lru.hits, lru.evictions) == (2, 1, 0)
        assert shard.stats().timeouts == 1

    def test_respawned_child_starts_cold(self, backend):
        # A worker that is gone between batches is replaced quietly on
        # the next one.  The new child holds nothing and the parent has
        # no belief about it to reset: the repeat crosses whole, misses
        # and solves alike.  A thread shard's worker survives, so there
        # the repeat hits.
        shard = backend(0, max_batch=16, max_instances=2)

        async def main():
            loop = asyncio.get_running_loop()
            shard.start()
            try:
                first = await asyncio.wait_for(
                    self.submit(shard, loop, self.A), 60)
                old = getattr(shard, "_child", None)
                if old is not None:
                    old.kill()
                    await loop.run_in_executor(None, old.proc.wait)
                second = await asyncio.wait_for(
                    self.submit(shard, loop, self.A), 60)
                new = getattr(shard, "_child", None)
                return first, second, old, new, shard.stats()
            finally:
                await loop.run_in_executor(None, shard.close)

        first, second, old, new, stats = asyncio.run(main())
        for got in (first, second):
            assert_same_solve(got, solve(fresh(self.A)))
        assert stats.restarts == stats.worker_deaths == 0
        if backend is ProcessShard:
            assert new is not None and new is not old
            assert (stats.lru.misses, stats.lru.hits) == (2, 0)
        else:
            assert (stats.lru.misses, stats.lru.hits) == (1, 1)


class TestResultWire:
    def test_solve_result_round_trips_bit_identically(self):
        inst = fresh(TINY)
        base = solve(inst)
        wire = round_trip(result_to_wire(base))
        assert_same_solve(result_from_wire(wire, inst), base)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown result kind"):
            result_from_wire({"kind": "surprise", "variant": "nonpreemptive",
                              "T": 1, "ratio_bound": 1,
                              "opt_lower_bound": 1}, fresh(TINY))


class TestWorkerProcLifecycle:
    def test_ready_heartbeat_batch_and_teardown(self):
        base = solve(fresh(TINY))
        worker = WorkerProc(0, max_instances=4)
        worker.start()
        try:
            assert worker.alive()
            seen = worker.last_frame
            import time
            deadline = time.monotonic() + 5.0
            while worker.last_frame == seen and time.monotonic() < deadline:
                time.sleep(0.02)
            assert worker.last_frame > seen  # heartbeats are flowing
            item = SolveRequest(instance=fresh(TINY)).to_item()
            worker.send_batch(7, [work_to_wire(item, None)])
            msg = worker.frames.get(timeout=30)
            assert msg[0] == "result" and msg[1] == 7
            [(status, payload)] = msg[2]
            assert status == "ok"
            got = result_from_wire(payload, fresh(TINY))
            assert got.makespan == base.makespan and got.T == base.T
            assert msg[3]["misses"] == 1  # the child's own LRU accounting
        finally:
            worker.destroy()
        assert not worker.alive()


class TestMaxrssUnits:
    def test_per_platform_normalization(self):
        # Linux and the BSDs already report KiB; macOS reports bytes.
        assert _normalize_maxrss(51200, "linux") == 51200
        assert _normalize_maxrss(51200, "freebsd13") == 51200
        assert _normalize_maxrss(52428800, "darwin") == 51200
        assert _normalize_maxrss(1023, "darwin") == 0  # floor division

    def test_maxrss_kib_uses_rusage(self, monkeypatch):
        resource = pytest.importorskip("resource")

        class FakeUsage:
            ru_maxrss = 4096 * 1024 if sys.platform == "darwin" else 4096

        monkeypatch.setattr(resource, "getrusage", lambda who: FakeUsage())
        assert _maxrss_kib() == 4096
