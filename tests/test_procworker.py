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
  ``to_ipc``/``from_ipc`` bit-exactly at any magnitude;
* request deadlines cross as remaining-time budgets read through the
  token's **own** clock, so injected test clocks propagate through the
  pipe;
* a live :class:`~repro.service.procworker.WorkerProc` becomes ready,
  heartbeats, answers a batch bit-identically, and tears down cleanly;
* ``ru_maxrss`` normalization (KiB everywhere) is exact per platform.
"""

from __future__ import annotations

import io
import pickle
import sys
from array import array
from fractions import Fraction

import pytest

import repro.service.procworker as procworker
import repro.service.protocol as protocol
from repro.algos.api import solve
from repro.core.cancel import CancelToken
from repro.core.instance import Instance
from repro.core.schedule import Schedule, ScheduleColumns
from repro.service.cache import InstanceLRU
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
from repro.service.protocol import SolveRequest
from repro.service.server import _maxrss_kib, _normalize_maxrss
from repro.service.shards import ProcessShard, _Work

TINY = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])


def fresh(inst: Instance) -> Instance:
    return Instance(m=inst.m, setups=inst.setups, jobs=inst.jobs)


def round_trip(obj):
    """One full frame round trip through an in-memory pipe."""
    pipe = io.BytesIO()
    write_frame(pipe, obj)
    pipe.seek(0)
    return read_frame(pipe)


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
        for name in ScheduleColumns._COL_NAMES:
            assert list(getattr(got, name)) == list(getattr(want, name)), name

    def test_round_trip_beyond_int64(self):
        huge = 1 << 70  # far past int64
        rows = self.rows() + [(0, huge, huge + 3, 1, 0, -1)]
        cols = self.filled(rows)
        got = ScheduleColumns.from_ipc(round_trip(cols.to_ipc()))
        self.assert_same(got, cols)
        assert got.start_num[-1] == huge  # exact at any magnitude

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
        keep ``dens`` in step with their values."""
        rows = self.rows()
        if huge:
            rows.append((0, 1 << 70, 3, 1, 0, -1))
        got = ScheduleColumns.from_ipc(round_trip(self.filled(rows).to_ipc()))
        for name in ScheduleColumns._COL_NAMES:
            col = getattr(got, name)
            assert type(col) is list, name
            assert all(type(v) is int for v in col), name
        assert got.dens == frozenset({1, 2})
        got.append_scaled(2, 1, 1, 3, 1, 1)
        want = self.filled(rows + [(2, 1, 1, 3, 1, 1)])
        self.assert_same(got, want)
        assert got.dens == want.dens

    def test_malformed_payload_rejected(self):
        six = [[0], [0], [1], [1], [0], [-1]]
        for bad in (None, {}, {"mode": "i64", "cols": six}, tuple(six),
                    six[:5], six + [[0]], six[:5] + [[-1, 0]],
                    six[:5] + [b"\x00" * 8]):
            with pytest.raises(ValueError, match="malformed"):
                ScheduleColumns.from_ipc(bad)
        assert len(ScheduleColumns.from_ipc(six)) == 1


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


class TestSlimWire:
    """The payload-elision protocol: slim items, batch-local resolution,
    and the parent's shadow-LRU proof obligation."""

    def test_slim_omits_payload_keeps_fingerprint_and_m(self):
        item = SolveRequest(instance=fresh(TINY)).to_item()
        full = work_to_wire(item, None)
        slim = work_to_wire(item, None, slim=True)
        assert full["instance"]["setups"] and full["instance"]["jobs"]
        assert not full["slim"]
        assert slim["slim"]
        assert slim["instance"] == {"m": TINY.m}
        assert slim["fp"] == full["fp"] == item.instance.fingerprint()

    def test_full_item_adopts_the_parents_checked_instance(self, monkeypatch):
        # The parent's instance passed the constructor's checks, so the
        # child takes its tuples and fingerprint as they arrive: neither
        # the wire validator nor ``__post_init__`` runs again.
        inst = fresh(TINY)
        fp = inst.fingerprint()
        wire = round_trip(work_to_wire(SolveRequest(instance=inst).to_item(), None))

        def refuse(*args, **kwargs):
            raise AssertionError("the child re-validated a checked payload")

        monkeypatch.setattr(protocol, "instance_from_obj", refuse)
        monkeypatch.setattr(procworker, "instance_from_obj", refuse, raising=False)
        monkeypatch.setattr(Instance, "__post_init__", refuse)
        local: dict = {}
        got = _item_from_wire(wire, InstanceLRU(2), local).instance
        assert got == inst
        assert type(got.setups) is tuple and type(got.jobs[0]) is tuple
        assert got._misc_cache == {"fingerprint": fp}
        assert local == {fp: got}

    def test_slim_item_resolves_from_warm_lru(self):
        inst = fresh(TINY)
        lru = InstanceLRU(2)
        lru[inst.fingerprint()] = inst
        wire = round_trip(work_to_wire(SolveRequest(instance=inst).to_item(),
                                       None, slim=True))
        got = _item_from_wire(wire, lru)
        assert got.instance.setups == inst.setups
        assert got.instance.jobs == inst.jobs
        assert got.instance.m == inst.m

    def test_slim_item_resolves_from_batch_local_payload(self):
        # A payload item earlier in the same batch supplies the slim one,
        # even with a stone-cold LRU (solve_batch admits only *after*
        # the whole batch is decoded).
        inst = fresh(TINY)
        item = SolveRequest(instance=inst).to_item()
        lru = InstanceLRU(2)
        local: dict = {}
        first = _item_from_wire(round_trip(work_to_wire(item, None)), lru, local)
        assert inst.fingerprint() in local
        second = _item_from_wire(
            round_trip(work_to_wire(item, None, slim=True)), lru, local
        )
        assert second.instance.jobs == first.instance.jobs
        assert len(lru) == 0  # decode itself never admits

    def test_slim_miss_is_a_loud_protocol_error(self):
        wire = work_to_wire(SolveRequest(instance=fresh(TINY)).to_item(),
                            None, slim=True)
        with pytest.raises(RuntimeError, match="slim wire item"):
            _item_from_wire(wire, InstanceLRU(2), {})

    def test_worker_answers_slim_batch_bit_identically(self):
        base = solve(fresh(TINY))
        item = SolveRequest(instance=fresh(TINY)).to_item()
        worker = WorkerProc(0, max_instances=4, heartbeat_ms=50)
        worker.start()
        try:
            worker.send_batch(1, [work_to_wire(item, None)])
            assert worker.frames.get(timeout=30)[1] == 1  # warms the child LRU
            worker.send_batch(2, [work_to_wire(item, None, slim=True)])
            msg = worker.frames.get(timeout=30)
            assert msg[0] == "result" and msg[1] == 2
            [(status, payload)] = msg[2]
            assert status == "ok"
            got = result_from_wire(payload, fresh(TINY))
            assert got.makespan == base.makespan and got.T == base.T
        finally:
            worker.destroy()


class TestShadowLRU:
    """``ProcessShard._encode_batch``'s replay of the child LRU: slim only
    when warmth is provable, phantoms for uncertain touches, evictions
    mirrored."""

    A = Instance.build(2, [(2, [3, 4]), (1, [2, 2, 2])])
    B = Instance.build(2, [(3, [5, 1]), (2, [4])])
    C = Instance.build(2, [(1, [7]), (4, [1, 1])])

    @staticmethod
    def shard(max_instances: int = 2) -> ProcessShard:
        return ProcessShard(0, max_batch=16, max_instances=max_instances)

    @staticmethod
    def work(inst: Instance, cancel=None) -> _Work:
        return _Work(SolveRequest(instance=fresh(inst)).to_item(),
                     None, None, cancel)

    def test_repeat_fingerprints_slim_after_first_payload(self):
        shard = self.shard()
        wire = shard._encode_batch([self.work(self.A) for _ in range(3)])
        assert [obj["slim"] for obj in wire] == [False, True, True]
        # Next batch: the shadow proves A is warm child-side.
        wire = shard._encode_batch([self.work(self.A)])
        assert [obj["slim"] for obj in wire] == [True]

    def test_uncertain_touch_never_marks_warm(self):
        # A deadline-carrying item may be skipped before its LRU touch,
        # so its fingerprint must keep crossing with the payload.
        shard = self.shard()
        token = CancelToken.after(3600.0)
        wire = shard._encode_batch([self.work(self.A, cancel=token)])
        assert [obj["slim"] for obj in wire] == [False]
        wire = shard._encode_batch([self.work(self.A, cancel=token)])
        assert [obj["slim"] for obj in wire] == [False]

    def test_eviction_pressure_forgets_the_oldest(self):
        # max_instances=2: admitting B then C must evict A's shadow entry.
        shard = self.shard(max_instances=2)
        shard._encode_batch([self.work(self.A)])
        shard._encode_batch([self.work(self.B), self.work(self.C)])
        wire = shard._encode_batch([self.work(self.A)])
        assert [obj["slim"] for obj in wire] == [False]  # A went cold
        wire = shard._encode_batch([self.work(self.C)])
        assert [obj["slim"] for obj in wire] == [True]  # C stayed warm

    def test_phantom_slots_count_toward_eviction(self):
        # An uncertain touch must displace like an admission: after one,
        # a 2-slot shadow can only still vouch for the newest real key.
        shard = self.shard(max_instances=2)
        shard._encode_batch([self.work(self.A), self.work(self.B)])
        shard._encode_batch([self.work(self.C, cancel=CancelToken.after(3600.0))])
        wire = shard._encode_batch([self.work(self.A), self.work(self.B)])
        assert [obj["slim"] for obj in wire] == [False, True]

    def test_respawn_resets_the_shadow(self):
        shard = self.shard()
        shard._encode_batch([self.work(self.A)])
        shard._shadow.clear()  # what _ensure_child does on every spawn
        wire = shard._encode_batch([self.work(self.A)])
        assert [obj["slim"] for obj in wire] == [False]


class TestResultWire:
    def test_solve_result_round_trips_bit_identically(self):
        inst = fresh(TINY)
        base = solve(inst)
        wire = round_trip(result_to_wire(base))
        got = result_from_wire(wire, inst)
        assert got.T == base.T
        assert got.ratio_bound == base.ratio_bound
        assert got.makespan == base.makespan
        key = lambda sched: sorted(
            (p.machine, p.start, p.length, p.cls, p.job) for p in sched.iter_all()
        )
        assert key(got.schedule) == key(base.schedule)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown result kind"):
            result_from_wire({"kind": "surprise", "variant": "nonpreemptive",
                              "T": 1, "ratio_bound": 1,
                              "opt_lower_bound": 1}, fresh(TINY))


class TestWorkerProcLifecycle:
    def test_ready_heartbeat_batch_and_teardown(self):
        base = solve(fresh(TINY))
        worker = WorkerProc(0, max_instances=4, heartbeat_ms=20)
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
