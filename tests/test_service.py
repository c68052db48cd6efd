"""The async sharded solve service — bit-identical to looped ``solve()``.

The service exists purely for throughput and bounded memory: sharding,
micro-batching, warm-instance LRUs and backpressure may not change a
single answer.  Every layer is differential-tested here against
fresh-instance ``solve()`` calls — including a seeded async fuzz that
drives random request mixes through random service configurations under
random interleavings (runs with and without numpy; CI exercises both).
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import random
import subprocess
import sys
import threading
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import repro.service.protocol as protocol_mod
from repro.algos.api import SolveResult, solve
from repro.algos.batch_api import (
    BatchItem,
    SweepPoint,
    solve_batch,
    solve_many,
    sweep_machines,
)
from repro.core.bounds import Variant
from repro.core.instance import Instance, JobRef
from repro.core.schedule import Schedule
from repro.generators import medium_suite, small_exact_suite, uniform_instance
from repro.service import (
    InstanceLRU,
    ProtocolError,
    ServiceConfig,
    ServiceError,
    SolveRequest,
    SolveService,
    serve_tcp,
)
from repro.service.protocol import (
    ECHO_MAX,
    encode_time,
    error_line,
    instance_from_obj,
    instance_to_obj,
    parse_time,
    request_from_obj,
    response_line,
    result_to_obj,
)
from repro.service.procworker import (
    read_frame,
    result_from_wire,
    result_to_wire,
    write_frame,
)
from repro.service.server import TCP_LINE_LIMIT
from repro.service.shards import shard_index

from .conftest import AGGREGATES
from .test_schedule_columns import SUITE_INSTANCES

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Lines the JSON decoder cannot turn into a request: bytes that are not
#: UTF-8 (a ``UnicodeDecodeError``), and nesting deeper than the
#: interpreter's recursion limit (a ``RecursionError``, not a ValueError).
UNDECODABLE_LINES = [
    pytest.param(b'\xc3{"id": 2, "op": "ping"}', id="non_utf8"),
    pytest.param(b"[" * 30000 + b"]" * 30000, id="deep_nesting"),
]


def fresh(inst: Instance, m: int | None = None) -> Instance:
    return Instance(m=inst.m if m is None else m, setups=inst.setups, jobs=inst.jobs)


def placements_key(schedule):
    return sorted(
        (p.machine, p.start, p.length, p.cls, p.job) for p in schedule.iter_all()
    )


def assert_same_solve(res, ref) -> None:
    assert res.T == ref.T
    assert res.ratio_bound == ref.ratio_bound
    assert res.opt_lower_bound == ref.opt_lower_bound
    assert res.makespan == ref.makespan
    assert placements_key(res.schedule) == placements_key(ref.schedule)


def assert_same_bounds(point: SweepPoint, ref) -> None:
    assert point.T == ref.T
    assert point.ratio_bound == ref.ratio_bound
    assert point.opt_lower_bound == ref.opt_lower_bound


def reference_for(req: SolveRequest):
    """Sequential looped-``solve()`` ground truth for one request."""
    ms = req.ms if req.ms is not None else [req.instance.m]
    out = []
    for m in ms:
        out.append(
            solve(fresh(req.instance, m), req.variant, req.algorithm, req.eps)
        )
    return out if req.ms is not None else out[0]


def assert_matches_reference(req: SolveRequest, result) -> None:
    ref = reference_for(req)
    results = result if isinstance(result, list) else [result]
    refs = ref if isinstance(ref, list) else [ref]
    assert len(results) == len(refs)
    for got, want in zip(results, refs):
        if req.schedules:
            assert_same_solve(got, want)
        else:
            assert_same_bounds(got, want)


# --------------------------------------------------------------------------- #
# core plumbing: fingerprints and cache handles
# --------------------------------------------------------------------------- #


class TestFingerprint:
    def test_equal_instances_share_fingerprint(self, tiny):
        assert tiny.fingerprint() == fresh(tiny).fingerprint()

    def test_machine_count_independent(self, tiny):
        assert tiny.fingerprint() == fresh(tiny, tiny.m + 5).fingerprint()
        assert tiny.fingerprint() == tiny.with_machines(9).fingerprint()

    def test_distinct_data_distinct_fingerprint(self, tiny):
        other = Instance(m=tiny.m, setups=tiny.setups, jobs=((3, 4), (2, 2, 3)))
        assert other.fingerprint() != tiny.fingerprint()
        resetup = Instance(
            m=tiny.m, setups=(tiny.setups[0] + 1,) + tiny.setups[1:], jobs=tiny.jobs
        )
        assert resetup.fingerprint() != tiny.fingerprint()

    def test_swapping_setups_and_jobs_fields_changes_it(self):
        a = Instance.build(2, [(2, [3]), (3, [2])])
        b = Instance.build(2, [(3, [2]), (2, [3])])
        assert a.fingerprint() != b.fingerprint()

    def test_shared_cache_copy_inherits_without_rehash(self, tiny):
        fp = tiny.fingerprint()
        copy = tiny.with_machines(7, share_caches=True)
        assert copy._misc_cache.get("fingerprint") == fp

    def test_golden_digest(self):
        # Changing the encoding moves every fingerprint to another shard.
        inst = Instance.build(3, [(2, [4, 14]), (2, [9, 9]), (1, [1, 7, 8, 2**70])])
        assert inst.fingerprint() == "ac2afeea0801506aa530f4b143d26972"

    def test_shared_objects_do_not_change_it(self):
        big = 2**70 + 1
        row = (3, big, 5)
        shared = Instance(m=2, setups=(big, 1), jobs=(row, row))
        copies = [(3, big + 1 - 1, 5) for _ in range(2)]
        assert copies[0] is not copies[1] and copies[0][1] is not big
        fresh_copy = Instance(m=2, setups=(big - 1 + 1, 1), jobs=tuple(copies))
        assert shared == fresh_copy
        assert shared.fingerprint() == fresh_copy.fingerprint()


class TestCacheRelease:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_release_then_resolve_bit_identical(self, variant):
        inst = medium_suite()[0][1]
        warm = fresh(inst)
        before = solve(warm, variant)
        stats = warm.cache_stats()
        assert set(stats) == {"sorted_views", "misc"}
        assert stats["misc"] > 0
        warm.release_caches()
        assert warm.cache_stats() == {"sorted_views": 0, "misc": 0}
        after = solve(warm, variant)
        assert_same_solve(after, before)

    def test_release_clears_shared_copies_too(self, tiny):
        solve(tiny, Variant.NONPREEMPTIVE)
        copy = tiny.with_machines(5, share_caches=True)
        assert copy.cache_stats()["sorted_views"] > 0
        tiny.release_caches()
        assert copy.cache_stats()["sorted_views"] == 0

    def test_release_drops_batch_scratch(self, tiny):
        from repro.core import xbatch

        copy = tiny.with_machines(tiny.m + 1, share_caches=True)
        scratch = {"maxima"}
        xbatch._maxima(copy)  # the overflow bound, stored on every tier
        if xbatch.HAVE_NUMPY:  # the int64 class columns
            xbatch._member_cols(copy)
            scratch |= {"xgrid_cols"}
        assert scratch <= set(tiny._misc_cache)  # stored through the copy
        tiny.release_caches()
        for inst in (tiny, copy):
            assert inst.cache_stats() == {"sorted_views": 0, "misc": 0}


# --------------------------------------------------------------------------- #
# the LRU table
# --------------------------------------------------------------------------- #


class TestInstanceLRU:
    def make(self, n: int) -> list[Instance]:
        # n > m so solve() takes the dual path and fills the caches.
        return [
            Instance.build(2, [(i + 1, [i + 2, 1, 3]), (2, [2, 2])])
            for i in range(n)
        ]

    def test_peak_never_exceeds_bound(self):
        lru = InstanceLRU(max_entries=2)
        for inst in self.make(6):
            lru[inst.fingerprint()] = inst
        stats = lru.stats()
        assert stats.peak_entries <= 2
        assert stats.entries == 2
        assert stats.evictions == 4

    def test_lru_order_and_hit_refresh(self):
        a, b, c = self.make(3)
        lru = InstanceLRU(max_entries=2)
        lru[a.fingerprint()] = a
        lru[b.fingerprint()] = b
        assert lru.get(a.fingerprint()) is a  # refresh a: b is now LRU
        lru[c.fingerprint()] = c
        assert a.fingerprint() in lru
        assert b.fingerprint() not in lru
        stats = lru.stats()
        assert stats.hits == 1 and stats.evictions == 1

    def test_eviction_releases_caches(self):
        a, b = self.make(2)
        solve(a, Variant.NONPREEMPTIVE)
        assert a.cache_stats()["misc"] > 0
        lru = InstanceLRU(max_entries=1)
        lru[a.fingerprint()] = a
        lru[b.fingerprint()] = b
        assert a.cache_stats() == {"sorted_views": 0, "misc": 0}

    def test_clear_releases_everything(self):
        insts = self.make(3)
        lru = InstanceLRU(max_entries=4)
        for inst in insts:
            solve(inst, Variant.NONPREEMPTIVE)
            lru[inst.fingerprint()] = inst
        lru.clear()
        assert len(lru) == 0
        assert all(i.cache_stats() == {"sorted_views": 0, "misc": 0} for i in insts)
        assert lru.stats().evictions == 3

    def test_rejects_silly_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            InstanceLRU(max_entries=0)

    def test_misses_counted(self):
        lru = InstanceLRU(max_entries=2)
        assert lru.get("nope") is None
        assert lru.stats().misses == 1


# --------------------------------------------------------------------------- #
# batch_api: up-front validation (satellite) + solve_batch coalescing
# --------------------------------------------------------------------------- #


class TestUpFrontValidation:
    def insts(self) -> list[Instance]:
        return [inst for _, inst in small_exact_suite()[:3]]

    def test_solve_many_rejects_bad_variant_before_solving(self):
        with pytest.raises(ValueError, match="unknown variant 'nonpremptive'"):
            solve_many(self.insts(), "nonpremptive")

    def test_solve_many_rejects_bad_algorithm_before_solving(self):
        with pytest.raises(ValueError, match="unknown algorithm 'threehalves'"):
            solve_many(self.insts(), algorithm="threehalves")

    def test_sweep_machines_rejects_bad_names(self):
        inst = self.insts()[0]
        with pytest.raises(ValueError, match="unknown variant"):
            sweep_machines(inst, [2, 3], "splitable")
        with pytest.raises(ValueError, match="unknown algorithm"):
            sweep_machines(inst, [2, 3], Variant.SPLITTABLE, "best")

    def test_bounds_mode_rejects_two_up_front(self):
        with pytest.raises(ValueError, match="dual-search"):
            solve_many(self.insts(), algorithm="two", schedules=False)

    def test_string_variant_now_first_class(self):
        insts = self.insts()
        by_name = solve_many(insts, "splittable")
        by_enum = solve_many(insts, Variant.SPLITTABLE)
        for a, b in zip(by_name, by_enum):
            assert_same_solve(a, b)

    def test_solve_batch_validates_every_item_first(self, tiny):
        items = [BatchItem(tiny), BatchItem(tiny, variant="wat")]
        with pytest.raises(ValueError, match="unknown variant 'wat'"):
            solve_batch(items)

    def test_solve_batch_forced_grid_rejects_schedule_items(self, tiny):
        # same loud-failure contract as sweep_machines/solve_many
        with pytest.raises(ValueError, match="bounds-only"):
            solve_batch([BatchItem(tiny)], use_grid=True)
        with pytest.raises(ValueError, match="bounds-only"):
            solve_batch([BatchItem(tiny, ms=(2, 3))], use_grid=True)


class TestSolveBatch:
    def test_heterogeneous_batch_matches_looped_solve(self):
        insts = [inst for _, inst in medium_suite()[:2]]
        items = [
            BatchItem(insts[0]),
            BatchItem(insts[0].with_machines(insts[0].m + 1), variant=Variant.PREEMPTIVE),
            BatchItem(insts[1], variant=Variant.SPLITTABLE, schedules=False),
            BatchItem(insts[0], variant="preemptive", algorithm="eps", schedules=False),
            BatchItem(insts[1], ms=(2, 3, insts[1].n + 1), schedules=False),
            BatchItem(insts[1], ms=(2, 4)),
        ]
        out = solve_batch(items)
        assert_same_solve(out[0], solve(fresh(insts[0]), Variant.NONPREEMPTIVE))
        assert_same_solve(
            out[1], solve(fresh(insts[0], insts[0].m + 1), Variant.PREEMPTIVE)
        )
        assert_same_bounds(out[2], solve(fresh(insts[1]), Variant.SPLITTABLE))
        assert_same_bounds(
            out[3], solve(fresh(insts[0]), Variant.PREEMPTIVE, "eps")
        )
        for m, point in zip((2, 3, insts[1].n + 1), out[4]):
            assert_same_bounds(point, solve(fresh(insts[1], m), Variant.NONPREEMPTIVE))
        for m, res in zip((2, 4), out[5]):
            assert_same_solve(res, solve(fresh(insts[1], m), Variant.NONPREEMPTIVE))

    def test_caller_owned_reps_persist_across_batches(self):
        inst = medium_suite()[0][1]
        reps: dict[str, Instance] = {}
        first = solve_batch([BatchItem(inst)], reps=reps)[0]
        assert list(reps) == [inst.fingerprint()]
        warm = reps[inst.fingerprint()]
        again = solve_batch([BatchItem(fresh(inst))], reps=reps)[0]
        assert reps[inst.fingerprint()] is warm  # second batch reused the rep
        assert_same_solve(first, again)

    def test_lru_as_reps_mapping(self):
        insts = [inst for _, inst in small_exact_suite()[:4]]
        lru = InstanceLRU(max_entries=2)
        out = solve_batch([BatchItem(i) for i in insts], reps=lru)
        assert len(out) == len(insts)
        assert lru.stats().peak_entries <= 2
        for inst, res in zip(insts, out):
            assert_same_solve(res, solve(fresh(inst), Variant.NONPREEMPTIVE))


# --------------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------------- #

#: A well-formed instance object, the base of the malformed cases below.
WIRE_INSTANCE = {"m": 4, "setups": [3, 5, 2], "jobs": [[4, 2], [6, 1, 1], [9]]}


def wire_request(**instance_fields) -> dict:
    return {"instance": {**WIRE_INSTANCE, **instance_fields}}


def with_rows(rows: dict) -> dict:
    """:data:`WIRE_INSTANCE` with the job rows at the keys of ``rows`` replaced."""
    jobs = list(WIRE_INSTANCE["jobs"])
    for pos, row in rows.items():
        jobs[pos] = row
    return wire_request(jobs=jobs)


#: Malformed requests and the exact error each one gets: the per-row
#: validator's own text, pinned so that the bulk type check in front of
#: it changes no verdict and no message.  With two bad rows, the first
#: one is reported.
BAD_WIRE_REQUESTS = [
    pytest.param(with_rows({pos: row}),
                 f"instance.jobs[{pos}] must be a list of ints, got {shown}",
                 id=f"row{pos}-{label}")
    for label, row, shown in (
        ("int", 5, "5"),
        ("none", None, "None"),
        ("str", "ab", "'ab'"),
        ("nested", [[1]], "[[1]]"),
        ("float", [1.5], "[1.5]"),
        ("bool", [True], "[True]"),
        ("int-then-none", [1, None], "[1, None]"),
    )
    for pos in (0, 1, 2)
] + [
    pytest.param(with_rows({1: [1.5], 2: "ab"}),
                 "instance.jobs[1] must be a list of ints, got [1.5]",
                 id="first-of-two-bad-rows"),
    pytest.param(wire_request(setups=[1.0]),
                 "instance.setups must be a list of ints, got [1.0]",
                 id="setups-float"),
    pytest.param(wire_request(setups=[True]),
                 "instance.setups must be a list of ints, got [True]",
                 id="setups-bool"),
    pytest.param(wire_request(setups=3),
                 "instance.setups must be a list of ints, got 3",
                 id="setups-int"),
    pytest.param({**wire_request(), "ms": [True]},
                 "ms must be a list of ints, got [True]", id="ms-bool"),
    pytest.param({**wire_request(), "ms": "3"},
                 "ms must be a list of ints, got '3'", id="ms-str"),
]


class _Time(IntEnum):
    FOUR = 4
    NINE = 9


class _Row(list):
    """A list subclass, as an in-process caller may pass one."""


#: Objects the bulk type check fails but the per-row validator accepts
#: (or that are plain ints beyond int64), with the plain instance each
#: must equal.
ACCEPTED_WIRE_INSTANCES = [
    pytest.param(
        {"m": 4, "setups": [_Time.FOUR, 5, 2],
         "jobs": [[_Time.FOUR, 2], [6, 1, 1], [_Time.NINE]]},
        Instance(m=4, setups=(4, 5, 2), jobs=((4, 2), (6, 1, 1), (9,))),
        id="int-enum",
    ),
    pytest.param(
        {"m": 4, "setups": [3, 5, 2], "jobs": [[4, 2], _Row([6, 1, 1]), [9]]},
        Instance(m=4, setups=(3, 5, 2), jobs=((4, 2), (6, 1, 1), (9,))),
        id="list-subclass-row",
    ),
    pytest.param(
        {"m": 4, "setups": [2**63, 5, 2], "jobs": [[2**62 + 1, 2], [6, 1, 1], [2**70]]},
        Instance(m=4, setups=(2**63, 5, 2), jobs=((2**62 + 1, 2), (6, 1, 1), (2**70,))),
        id="beyond-int64",
    ),
]


class TestProtocol:
    def test_time_round_trip(self):
        for value in (Fraction(7), Fraction(27, 2), Fraction(-3, 7), 12):
            assert parse_time(encode_time(value)) == Fraction(value)

    def test_floats_rejected(self):
        with pytest.raises(ProtocolError, match="floats are not accepted"):
            parse_time(1.5)
        with pytest.raises(ProtocolError):
            parse_time([1.0, 2])
        with pytest.raises(ProtocolError):
            parse_time(True)

    def test_instance_round_trip(self, tiny):
        assert instance_from_obj(instance_to_obj(tiny)) == tiny

    def test_bad_instances_are_protocol_errors(self):
        with pytest.raises(ProtocolError, match="instance.m"):
            instance_from_obj({"m": "2", "setups": [1], "jobs": [[1]]})
        with pytest.raises(ProtocolError, match="setups"):
            instance_from_obj({"m": 2, "setups": 3, "jobs": [[1]]})
        with pytest.raises(ProtocolError, match="invalid instance"):
            instance_from_obj({"m": 2, "setups": [1], "jobs": [[]]})

    @pytest.mark.parametrize("obj, message", BAD_WIRE_REQUESTS)
    def test_bulk_wire_check_keeps_verdicts_and_texts(self, obj, message):
        with pytest.raises(ProtocolError) as err:
            request_from_obj(obj)
        assert str(err.value) == message

    def test_long_values_are_echoed_bounded(self):
        """A long rejected value is echoed as a prefix plus its entry count."""
        cases = [
            (wire_request(setups=[1] * 20000 + [1.5]),
             "instance.setups must be a list of ints, got [1, 1, ", 20001),
            ({**wire_request(), "ms": [2] * 5000 + [True]},
             "ms must be a list of ints, got [2, 2, ", 5001),
            ({"instance": [1] * 20000}, "instance must be an object, got [1, 1, ", 20000),
            (with_rows({1: [1] * 20000 + [1.5]}),
             "instance.jobs[1] must be a list of ints, got [1, 1, ", 20001),
            ([1] * 20000, "request must be a JSON object, got [1, 1, ", 20000),
            (wire_request(m=-(10**4000)),
             "invalid instance: m must be a positive integer, got -1000", None),
        ]
        for obj, head, entries in cases:
            with pytest.raises(ProtocolError) as err:
                request_from_obj(obj)
            message = str(err.value)
            assert message.startswith(head)
            if entries is not None:
                assert message.endswith(f"... ({entries} entries)")
            assert len(message) <= len(head) + ECHO_MAX + 30

    @pytest.mark.parametrize("obj, plain", ACCEPTED_WIRE_INSTANCES)
    def test_bulk_wire_check_keeps_accepting(self, obj, plain):
        assert instance_from_obj(obj) == plain
        assert request_from_obj({"instance": obj}).instance == plain
        assert instance_from_obj(obj).fingerprint() == plain.fingerprint()

    def test_request_defaults(self, tiny):
        req = request_from_obj({"instance": instance_to_obj(tiny)})
        assert req.variant is Variant.NONPREEMPTIVE
        assert req.algorithm == "three_halves"
        assert req.schedules and req.ms is None and req.id is None

    def test_bounds_only_flag_forms(self, tiny):
        obj = {"instance": instance_to_obj(tiny)}
        assert request_from_obj({**obj, "bounds_only": True}).schedules is False
        assert request_from_obj({**obj, "schedules": False}).schedules is False
        with pytest.raises(ProtocolError, match="contradictory"):
            request_from_obj({**obj, "schedules": True, "bounds_only": True})

    def test_unknown_fields_rejected(self, tiny):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            request_from_obj({"instance": instance_to_obj(tiny), "machines": [2]})

    def test_bad_names_surface_as_value_errors(self, tiny):
        obj = {"instance": instance_to_obj(tiny)}
        with pytest.raises(ValueError, match="unknown variant"):
            request_from_obj({**obj, "variant": "npn"})
        with pytest.raises(ValueError, match="unknown algorithm"):
            request_from_obj({**obj, "algorithm": "halves"})

    def test_bad_ms_and_eps(self, tiny):
        obj = {"instance": instance_to_obj(tiny)}
        with pytest.raises(ProtocolError, match="ms"):
            request_from_obj({**obj, "ms": [0, 2]})
        # every count is a whole solve: the wire bounds the sweep length,
        # naming the bound without echoing the list
        with pytest.raises(ProtocolError) as err:
            request_from_obj({**obj, "ms": [2] * 65})
        assert str(err.value) == "ms may hold at most 64 machine counts"
        assert request_from_obj({**obj, "ms": [2] * 64}).ms == (2,) * 64
        with pytest.raises(ProtocolError, match="eps"):
            request_from_obj({**obj, "eps": [1, 0]})
        with pytest.raises(ProtocolError, match="eps must be positive"):
            request_from_obj({**obj, "eps": [-1, 100]})
        # the eps search makes ~log2(1/eps) probes: the wire bounds eps
        # below, naming the bound without echoing the value
        with pytest.raises(ProtocolError) as err:
            request_from_obj({**obj, "eps": [1, 2**64 + 1]})
        assert str(err.value) == "eps must be at least 1/2**64"
        assert request_from_obj({**obj, "eps": [1, 2**64]}).eps == Fraction(1, 2**64)

    def test_result_encoding_solve(self, tiny):
        ref = solve(tiny, Variant.NONPREEMPTIVE)
        obj = result_to_obj(ref)
        assert obj["kind"] == "solve"
        assert parse_time(obj["T"]) == ref.T
        assert parse_time(obj["makespan"]) == ref.makespan
        sched = obj["schedule"]
        n_rows = len(sched["machine"])
        assert all(
            len(sched[key]) == n_rows
            for key in ("start_num", "length_num", "cls", "job_idx")
        )
        json.dumps(obj)  # strictly JSON-serializable (no numpy scalars)

    def test_response_and_error_lines(self, tiny):
        ref = solve(tiny, Variant.NONPREEMPTIVE)
        line = response_line(7, ref)
        parsed = json.loads(line)
        assert parsed["id"] == 7 and parsed["ok"] and len(parsed["results"]) == 1
        err = json.loads(error_line("x", "boom"))  # bare string: internal
        assert err == {
            "id": "x",
            "ok": False,
            "error": {"code": "internal", "message": "boom", "retryable": False},
        }
        err = json.loads(error_line(3, ServiceError.overloaded()))
        assert err["error"]["code"] == "overloaded"
        assert err["error"]["retryable"] is True

    # The wire bytes of a full-schedule reply are pinned against an
    # encoder that runs a per-element int() over the rows() projection.
    # Every case checks the fresh result first and then its
    # process-parent rebuild (ScheduleColumns.from_ipc).

    @pytest.mark.parametrize("inst", SUITE_INSTANCES)
    def test_wire_bytes_pinned_on_suites(self, inst, monkeypatch):
        for variant in Variant:
            for algorithm in ("two", "eps", "three_halves"):
                item = BatchItem(instance=fresh(inst), variant=variant,
                                 algorithm=algorithm)
                assert_wire_bytes_pinned(monkeypatch, solve_batch([item])[0])

    def test_wire_bytes_pinned_on_sweep(self, monkeypatch):
        inst = uniform_instance(6, 5, 4, seed=3)
        for variant in Variant:
            item = BatchItem(instance=inst, variant=variant, ms=(1, 2, 3, 7, 40))
            assert_wire_bytes_pinned(monkeypatch, solve_batch([item])[0])

    def test_wire_bytes_pinned_beyond_int64(self, monkeypatch):
        big = 1 << 70
        inst = Instance.build(3, [(big, [big, big + 7]), (1, [2, 5])])
        for variant in Variant:
            result = solve(inst, variant)
            assert not result.schedule.columns().int_mode  # object mode
            assert_wire_bytes_pinned(monkeypatch, result)

    def test_wire_bytes_pinned_on_mixed_denominators(self, tiny, monkeypatch):
        sched = Schedule(tiny)
        sched.add_setup(0, 0, 0)
        sched.add_piece(0, Fraction(2), JobRef(0, 0), Fraction(3, 2))
        sched.add_piece(1, Fraction(7, 2), JobRef(0, 0), Fraction(3, 2))
        sched.add_piece(0, Fraction(5), JobRef(0, 1), Fraction(4, 3))
        assert len(sched.columns().dens) == 3
        assert_wire_bytes_pinned(monkeypatch, SolveResult(
            schedule=sched, variant=Variant.SPLITTABLE, algorithm="two",
            T=Fraction(19, 3), ratio_bound=Fraction(2),
            opt_lower_bound=Fraction(3)))

    def test_wire_bytes_pinned_on_placement_built_schedule(self, monkeypatch):
        """A schedule rebuilt piece by piece through ``add`` (one row
        denominator per placement, machine-major order) encodes like a
        kernel-built one."""
        result = solve(uniform_instance(4, 6, 5, seed=11), Variant.PREEMPTIVE)
        sched = result.schedule
        rebuilt = Schedule(sched.instance, sched.iter_all())
        assert rebuilt.makespan() == sched.makespan()
        assert_wire_bytes_pinned(monkeypatch, SolveResult(
            schedule=rebuilt, variant=result.variant, algorithm=result.algorithm,
            T=result.T, ratio_bound=result.ratio_bound,
            opt_lower_bound=result.opt_lower_bound))


def legacy_schedule_obj(schedule) -> dict:
    """The wire encoder's schedule object, one ``int()`` per element."""
    rows = schedule.rows()
    return {
        "scale": int(rows.scale),
        "machine": [int(v) for v in rows.machine],
        "start_num": [int(v) for v in rows.start_num],
        "length_num": [int(v) for v in rows.length_num],
        "cls": [int(v) for v in rows.cls],
        "job_idx": [int(v) for v in rows.job_idx],
    }


def via_process_wire(result):
    """``result`` rebuilt the way the process backend's parent sees it."""
    if isinstance(result, list):
        return [via_process_wire(r) for r in result]
    pipe = io.BytesIO()
    write_frame(pipe, result_to_wire(result))
    pipe.seek(0)
    return result_from_wire(read_frame(pipe), result.schedule.instance)


def assert_wire_bytes_pinned(monkeypatch, result) -> None:
    def check(res):
        got = response_line(7, res)
        with monkeypatch.context() as patched:
            patched.setattr(protocol_mod, "_schedule_obj", legacy_schedule_obj)
            assert got == response_line(7, res)

    check(result)
    check(via_process_wire(result))


# --------------------------------------------------------------------------- #
# the service engine
# --------------------------------------------------------------------------- #


def run_service(requests, config: ServiceConfig):
    """Submit concurrently through a fresh service; results in order."""

    async def main():
        async with SolveService(config) as svc:
            out = await svc.submit_many(requests)
            return out, svc.stats()

    return asyncio.run(main())


class TestServiceEngine:
    def mixed_requests(self) -> list[SolveRequest]:
        insts = [inst for _, inst in small_exact_suite()[:3]]
        insts.append(medium_suite()[0][1])
        reqs = []
        for k in range(24):
            inst = insts[k % len(insts)]
            reqs.append(
                SolveRequest(
                    instance=fresh(inst, 1 + k % (inst.m + 2)),
                    variant=list(Variant)[k % 3],
                    schedules=(k % 2 == 0),
                    ms=(2, 1 + inst.n) if k % 5 == 0 else None,
                    id=k,
                )
            )
        return reqs

    def test_mixed_burst_bit_identical_and_ordered(self):
        reqs = self.mixed_requests()
        results, stats = run_service(
            reqs, ServiceConfig(shards=3, max_batch=5, max_instances=2)
        )
        assert len(results) == len(reqs)
        for req, result in zip(reqs, results):
            assert_matches_reference(req, result)
        assert stats.requests == len(reqs)
        assert stats.peak_instances <= stats.max_instances
        assert stats.cache_hits > 0  # coalescing actually happened

    def test_single_shard_tiny_windows_still_correct(self):
        reqs = self.mixed_requests()[:10]
        results, stats = run_service(
            reqs,
            ServiceConfig(shards=1, max_batch=1, max_inflight=2, max_instances=1),
        )
        for req, result in zip(reqs, results):
            assert_matches_reference(req, result)
        assert stats.peak_inflight <= 2
        assert stats.peak_instances <= 1

    def test_submit_validates_before_dispatch(self, tiny):
        async def main():
            async with SolveService(ServiceConfig(shards=1)) as svc:
                with pytest.raises(ValueError, match="unknown variant"):
                    await svc.submit(SolveRequest(instance=tiny, variant="zzz"))
                return svc.stats()

        stats = asyncio.run(main())
        assert stats.requests == 0  # never reached a shard

    def test_submit_checks_eps_before_dispatch(self):
        """A non-positive ``eps`` is the caller's error, not ``internal``."""
        inst = Instance.build(3, [(1, [1, 2]), (2, [3, 4, 5])])
        request = SolveRequest(
            instance=inst, variant=Variant.SPLITTABLE, algorithm="eps",
            eps=Fraction(0),
        )

        async def main():
            async with SolveService(ServiceConfig(shards=1)) as svc:
                with pytest.raises(ValueError, match="eps must be positive"):
                    await svc.submit(request)
                return svc.stats()

        stats = asyncio.run(main())
        assert stats.requests == 0  # never reached a shard

    def test_submit_outside_lifecycle_raises(self, tiny):
        svc = SolveService()

        async def main():
            with pytest.raises(RuntimeError, match="not running"):
                await svc.submit(SolveRequest(instance=tiny))

        asyncio.run(main())

    def test_sharding_is_fingerprint_deterministic(self):
        insts = [inst for _, inst in small_exact_suite()[:5]]
        for inst in insts:
            fp = inst.fingerprint()
            assert shard_index(fp, 4) == shard_index(fresh(inst, 9).fingerprint(), 4)
            assert 0 <= shard_index(fp, 3) < 3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ServiceConfig(shards=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"queue_bound": 0}, "queue_bound"),
            ({"queue_bound": True}, "queue_bound"),
            ({"queue_bound": "64"}, "queue_bound"),
            ({"max_restarts": -1}, "max_restarts"),
            ({"max_restarts": 1.5}, "max_restarts"),
            ({"max_restarts": True}, "max_restarts"),
            ({"restart_backoff": -0.1}, "restart_backoff"),
            ({"restart_backoff": "fast"}, "restart_backoff"),
            ({"restart_backoff": True}, "restart_backoff"),
        ],
    )
    def test_robustness_knob_validation(self, kwargs, match):
        # One clear error naming the offending knob, nothing else.
        with pytest.raises(ValueError, match=match):
            ServiceConfig(**kwargs)

    def test_robustness_knob_good_values(self):
        config = ServiceConfig(queue_bound=1, max_restarts=0, restart_backoff=0)
        assert config.queue_bound == 1
        assert config.max_restarts == 0  # 0 = never restart, fail immediately
        assert config.restart_backoff == 0

    def test_xbatch_knob_validation(self):
        assert ServiceConfig(xbatch=True).xbatch is True
        assert ServiceConfig().xbatch is False
        with pytest.raises(ValueError, match="xbatch"):
            ServiceConfig(xbatch="yes")
        with pytest.raises(ValueError, match="xbatch"):
            ServiceConfig(xbatch=1)

    def test_xbatch_service_bit_identical(self):
        # The same burst through a fused-dispatch service: every response
        # must match the sequential reference exactly.
        reqs = self.mixed_requests()
        results, stats = run_service(
            reqs,
            ServiceConfig(shards=2, max_batch=8, max_instances=3, xbatch=True),
        )
        assert len(results) == len(reqs)
        for req, result in zip(reqs, results):
            assert_matches_reference(req, result)
        assert stats.requests == len(reqs)


class TestServiceFuzz:
    """Seeded async fuzz: random interleavings, bit-identical responses.

    Instances come from a fixed small pool; requests randomize machine
    count, variant, mode and sweeps; the event loop yields at random
    points so completions interleave arbitrarily with submissions.  The
    reference is always the sequential loop of fresh ``solve()`` calls.
    Runs on whatever numeric stack is ambient — CI exercises the suite
    both with and without numpy.
    """

    POOL_SEEDS = (11, 12, 13)

    def pool(self) -> list[Instance]:
        pool = [
            uniform_instance(m=3 + s % 3, c=2 + s % 4, n_per_class=3, seed=s)
            for s in self.POOL_SEEDS
        ]
        pool.extend(inst for _, inst in small_exact_suite()[:2])
        return pool

    @pytest.mark.parametrize("xbatch", [False, True])
    @pytest.mark.parametrize("workers", ["thread", "process"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_interleavings(self, seed, workers, xbatch):
        # Same seeds, both backends, fused and sequential dispatch:
        # responses must be bit-identical to the sequential reference
        # whether the shard solves in a thread or in a supervised child
        # process (the wire round-trip included), and whether each
        # micro-batch runs the lockstep coordinator or the plain loop.
        rng = random.Random(1000 + seed)
        pool = self.pool()
        config = ServiceConfig(
            shards=rng.randint(1, 4),
            max_batch=rng.randint(1, 8),
            max_inflight=rng.randint(2, 32),
            max_instances=rng.randint(1, 3),
            workers=workers,
            xbatch=xbatch,
        )
        reqs = []
        for k in range(rng.randint(12, 28)):
            inst = rng.choice(pool)
            ms = None
            if rng.random() < 0.25:
                ms = tuple(
                    sorted(
                        rng.sample(
                            range(1, inst.n + 2),
                            rng.randint(1, min(3, inst.n + 1)),
                        )
                    )
                )
            reqs.append(
                SolveRequest(
                    instance=fresh(inst, rng.randint(1, inst.n + 1)),
                    variant=rng.choice(list(Variant)),
                    algorithm=rng.choice(("three_halves", "eps")),
                    schedules=rng.random() < 0.5,
                    ms=ms,
                    id=k,
                )
            )

        async def main():
            async with SolveService(config) as svc:
                async def one(req):
                    for _ in range(rng.randint(0, 2)):
                        await asyncio.sleep(0)  # shuffle task wakeups
                    return await svc.submit(req)

                results = await asyncio.gather(*(one(r) for r in reqs))
                return list(results), svc.stats()

        results, stats = asyncio.run(main())
        for req, result in zip(reqs, results):
            assert_matches_reference(req, result)
        assert stats.peak_instances <= stats.max_instances
        assert stats.peak_inflight <= config.max_inflight


class TestWarmHitIngest:
    """A warm hit solves on its representative: the request's own
    instance is validated and fingerprinted, never aggregated."""

    @pytest.mark.parametrize("workers", ["thread", "process"])
    @pytest.mark.parametrize("schedules", [False, True], ids=["bounds", "full"])
    def test_request_instance_aggregates_never_computed(self, workers, schedules):
        obj = instance_to_obj(medium_suite()[0][1])
        reqs = [request_from_obj({"id": k, "instance": obj, "schedules": schedules})
                for k in range(2)]

        async def main():
            async with SolveService(ServiceConfig(shards=1, workers=workers)) as svc:
                out = [await svc.submit(req) for req in reqs]  # the second one hits
                return out, svc.stats()

        results, stats = asyncio.run(main())
        assert stats.cache_hits == 1
        assert not set(AGGREGATES) & set(vars(reqs[1].instance))
        for req, result in zip(reqs, results):
            assert_matches_reference(req, result)


class TestXbatchTimeout:
    """A deadline firing inside a fused micro-batch hits only its request.

    The lockstep coordinator polls each item's token at the same probe
    boundaries the sequential evaluators do; when one fires, only that
    item leaves the round and the shard's per-item isolation re-runs the
    rest — their answers must stay bit-identical.
    """

    @pytest.mark.parametrize("workers", ["thread", "process"])
    def test_one_expired_deadline_rest_bit_identical(self, workers):
        from repro.service.faults import DelaySolve, FaultPlan

        insts = [inst for _, inst in small_exact_suite()[:3]]
        insts.append(medium_suite()[0][1])
        # the first dispatched item sleeps past the doomed request's budget
        plan = FaultPlan([DelaySolve(seconds=0.3, after_items=0, times=1)])

        async def main():
            config = ServiceConfig(
                shards=1, max_batch=8, workers=workers, xbatch=True
            )
            async with SolveService(config, faults=plan) as svc:
                reqs = [
                    SolveRequest(instance=fresh(inst), variant=variant, id=k)
                    for k, (inst, variant) in enumerate(
                        (i, v) for i in insts for v in Variant
                    )
                ]
                doomed = SolveRequest(
                    instance=fresh(insts[0]), timeout_ms=50, id="doomed"
                )
                tasks = [
                    asyncio.create_task(svc.submit(r)) for r in reqs[:4]
                ]
                doomed_task = asyncio.create_task(svc.submit(doomed))
                tasks.extend(asyncio.create_task(svc.submit(r)) for r in reqs[4:])
                results = await asyncio.gather(*tasks)
                with pytest.raises(ServiceError) as err:
                    await doomed_task
                return reqs, results, err.value

        reqs, results, error = asyncio.run(main())
        assert error.code == "timeout"
        for req, result in zip(reqs, results):
            assert_matches_reference(req, result)


# --------------------------------------------------------------------------- #
# front ends
# --------------------------------------------------------------------------- #


class TestTcpServer:
    def test_round_trip_and_shutdown(self, tiny):
        async def main():
            async with SolveService(ServiceConfig(shards=2)) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                lines = [
                    {"id": 1, "instance": instance_to_obj(tiny)},
                    {"id": 2, "instance": instance_to_obj(tiny),
                     "bounds_only": True, "ms": [2, 3]},
                    {"id": 3, "op": "stats"},
                    {"id": 4, "op": "shutdown"},
                ]
                for obj in lines:
                    writer.write((json.dumps(obj) + "\n").encode())
                await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in lines]
                writer.close()
                await server.repro_shutdown.wait()
                server.close()
                await server.wait_closed()
                return replies

        replies = asyncio.run(main())
        assert [r["id"] for r in replies] == [1, 2, 3, 4]  # request order
        assert all(r["ok"] for r in replies)
        ref = solve(fresh(tiny), Variant.NONPREEMPTIVE)
        got = replies[0]["results"][0]
        assert parse_time(got["T"]) == ref.T
        assert parse_time(got["makespan"]) == ref.makespan
        assert len(replies[1]["results"]) == 2
        # stats snapshots at its response-order position: both earlier
        # requests on this connection are deterministically counted
        assert replies[2]["stats"]["requests"] == 2
        assert replies[2]["stats"]["max_instances"] == 2 * 8
        assert replies[3]["bye"] is True

    @pytest.mark.parametrize("split", [False, True])
    def test_oversize_line_rejected_connection_kept(self, split):
        """A line past the TCP limit gets one bad_request naming the limit,
        and the next line on the connection is still served.  ``split``
        sends the line in two writes, so the limit trips before its
        newline has arrived and the rest must be discarded as it comes."""
        inst = uniform_instance(50, 100, 300, seed=1)  # a legitimate instance
        line = (json.dumps({"id": 1, "instance": instance_to_obj(inst),
                            "bounds_only": True}) + "\n").encode()
        assert len(line) > TCP_LINE_LIMIT + 1

        async def main():
            async with SolveService(ServiceConfig(shards=1)) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                cut = TCP_LINE_LIMIT + 100 if split else 0
                if cut:
                    writer.write(line[:cut])
                    await writer.drain()
                    await asyncio.sleep(0.05)
                writer.write(line[cut:] + b'{"id": 2, "op": "ping"}\n')
                await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in range(2)]
                writer.write_eof()
                tail = await reader.readline()  # EOF: nothing else answered
                writer.close()
                server.close()
                await server.wait_closed()
                return replies, tail

        replies, tail = asyncio.run(asyncio.wait_for(main(), timeout=30))
        err = replies[0]
        assert err["id"] is None and err["ok"] is False
        assert err["error"]["code"] == "bad_request"
        assert err["error"]["retryable"] is False
        assert str(TCP_LINE_LIMIT) in err["error"]["message"]
        assert replies[1] == {"id": 2, "ok": True, "pong": True}
        assert tail == b""


    @pytest.mark.parametrize("bad", UNDECODABLE_LINES)
    def test_non_utf8_line_rejected_connection_kept(self, bad):
        """A line the decoder cannot read gets one non-retryable
        bad_request, and the lines after it on the connection are served."""
        assert len(bad) < TCP_LINE_LIMIT  # the decoder sees it, not the limit

        async def main():
            async with SolveService(ServiceConfig(shards=1)) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b'{"id": 1, "op": "ping"}\n' + bad
                             + b'\n{"id": 3, "op": "ping"}\n')
                await writer.drain()
                replies = [json.loads(await reader.readline()) for _ in range(3)]
                writer.write_eof()
                tail = await reader.readline()  # EOF: nothing else answered
                writer.close()
                server.close()
                await server.wait_closed()
                return replies, tail

        replies, tail = asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert replies[0] == {"id": 1, "ok": True, "pong": True}
        err = replies[1]
        assert err["id"] is None and err["ok"] is False
        assert err["error"]["code"] == "bad_request"
        assert err["error"]["retryable"] is False
        assert replies[2] == {"id": 3, "ok": True, "pong": True}
        assert tail == b""


class TestTcpDisconnect:
    def test_abrupt_client_disconnect_does_not_wedge(self, tiny):
        """Client vanishes mid-pipeline: handler must unwind, not leak.

        Regression for the write-side window leak: a dead peer makes
        ``write_line`` raise, and the per-connection backpressure slots
        must still be released so the handler (and service shutdown)
        do not block forever.
        """

        async def main():
            config = ServiceConfig(shards=1, max_inflight=4)
            async with SolveService(config) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                host, port = server.sockets[0].getsockname()[:2]
                reader, writer = await asyncio.open_connection(host, port)
                payload = b"".join(
                    json.dumps({"id": k, "instance": instance_to_obj(tiny)}).encode()
                    + b"\n"
                    for k in range(16)  # 4x the window
                )
                writer.write(payload)
                await writer.drain()
                writer.close()  # vanish without reading a single response
                await asyncio.sleep(0.05)
                server.close()
                await server.wait_closed()
            return True

        assert asyncio.run(asyncio.wait_for(main(), timeout=30))


class TestDisconnectFuzz:
    """Seeded async fuzz with clients that vanish mid-burst.

    Several concurrent TCP clients pipeline seeded bursts; some read a
    few responses and then drop their connection partway (the rest
    unread).  Afterwards the service must still answer (no orphaned
    futures, no wedged admission windows), every shard worker must be
    joined at close (no leaked threads), and every response that *did*
    arrive must be bit-identical to a fresh ``solve()``.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_mid_burst_disconnects(self, seed):
        rng = random.Random(7000 + seed)
        pool = TestServiceFuzz().pool()
        config = ServiceConfig(
            shards=rng.randint(1, 3),
            max_batch=rng.randint(1, 4),
            max_inflight=rng.randint(4, 8),
        )

        def burst() -> list[dict]:
            objs = []
            for k in range(rng.randint(4, 10)):
                inst = rng.choice(pool)
                obj = {
                    "id": k,
                    "instance": instance_to_obj(fresh(inst, rng.randint(1, inst.n + 1))),
                }
                if rng.random() < 0.4:
                    obj["bounds_only"] = True
                objs.append(obj)
            return objs

        async def client(host, port, objs, drop_after, read_before_drop):
            reader, writer = await asyncio.open_connection(host, port)
            arrived = []
            try:
                for k, obj in enumerate(objs):
                    writer.write((json.dumps(obj) + "\n").encode())
                    await writer.drain()
                    if drop_after is not None and k + 1 == drop_after:
                        for _ in range(read_before_drop):
                            line = await reader.readline()
                            if line:
                                arrived.append(json.loads(line))
                        return arrived  # vanish mid-burst; rest unread
                for _ in objs:
                    line = await reader.readline()
                    if not line:
                        break
                    arrived.append(json.loads(line))
            finally:
                writer.close()
            return arrived

        async def main():
            # asyncio.timeout, not wait_for: the latter wraps the body in
            # an extra task that the orphaned-task sweep would flag.
            async with asyncio.timeout(60), SolveService(config) as svc:
                server = await serve_tcp(svc, "127.0.0.1", 0)
                host, port = server.sockets[0].getsockname()[:2]
                plans = []
                for _ in range(4):
                    objs = burst()
                    if rng.random() < 0.5:
                        drop_after = rng.randint(1, len(objs))
                        plans.append((objs, drop_after, rng.randint(0, drop_after - 1)))
                    else:
                        plans.append((objs, None, 0))
                arrived = await asyncio.gather(
                    *(client(host, port, *plan) for plan in plans)
                )
                # Not wedged: a fresh in-process request still answers.
                probe_req = SolveRequest(instance=fresh(pool[0]))
                probe = await svc.submit(probe_req)
                server.close()
                await server.wait_closed()
                stray = ()
                for _ in range(100):  # let dead connection handlers unwind
                    stray = [
                        t for t in asyncio.all_tasks()
                        if t is not asyncio.current_task() and not t.done()
                    ]
                    if not stray:
                        break
                    await asyncio.sleep(0.05)
                assert not stray, f"orphaned tasks: {stray!r}"
                return plans, arrived, (probe_req, probe)

        plans, arrived, (probe_req, probe) = asyncio.run(main())
        assert_matches_reference(probe_req, probe)
        leaked = [t.name for t in threading.enumerate()
                  if t.name.startswith("repro-shard")]
        assert not leaked, f"leaked shard threads: {leaked}"
        # Whatever arrived is in request order and bit-identical.
        for (objs, _, _), replies in zip(plans, arrived):
            by_id = {obj["id"]: obj for obj in objs}
            assert [r["id"] for r in replies] == [obj["id"] for obj in objs[:len(replies)]]
            for reply in replies:
                assert reply["ok"], reply
                req = request_from_obj(by_id[reply["id"]])
                ref = reference_for(req)
                got = reply["results"][0]
                assert parse_time(got["T"]) == ref.T
                assert parse_time(got["ratio_bound"]) == ref.ratio_bound
                assert parse_time(got["opt_lower_bound"]) == ref.opt_lower_bound
                if req.schedules:
                    assert parse_time(got["makespan"]) == ref.makespan


class TestStdioCli:
    def test_subprocess_session(self, tiny):
        payload = "".join(
            json.dumps(obj) + "\n"
            for obj in (
                {"id": 1, "instance": instance_to_obj(tiny)},
                {"id": 2, "instance": instance_to_obj(tiny), "variant": "splittable",
                 "bounds_only": True},
                {"id": 3, "instance": instance_to_obj(tiny), "variant": "oops"},
                {"id": 4, "op": "ping"},
            )
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--shards", "2"],
            input=payload, capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        replies = [json.loads(line) for line in proc.stdout.splitlines() if line]
        assert [r["id"] for r in replies] == [1, 2, 3, 4]
        ref = solve(fresh(tiny), Variant.NONPREEMPTIVE)
        assert parse_time(replies[0]["results"][0]["makespan"]) == ref.makespan
        split = solve(fresh(tiny), Variant.SPLITTABLE)
        assert parse_time(replies[1]["results"][0]["T"]) == split.T
        assert replies[2]["ok"] is False
        assert replies[2]["error"]["code"] == "bad_request"
        assert replies[2]["error"]["retryable"] is False
        assert "unknown variant" in replies[2]["error"]["message"]
        assert replies[3]["pong"] is True

    @pytest.mark.parametrize("bad", UNDECODABLE_LINES)
    def test_non_utf8_line_answered_and_session_continues(self, bad):
        """Bytes that are not UTF-8 (a UnicodeDecodeError) and nesting past
        the recursion limit (a RecursionError) used to escape the JSON
        decoder and end the stdio server with a traceback."""
        payload = b'{"op": "ping", "id": 1}\n' + bad + b'\n{"op": "ping", "id": 3}\n'
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "--shards", "1"],
            input=payload, capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        replies = [json.loads(line) for line in proc.stdout.splitlines() if line]
        assert len(replies) == 3
        assert replies[0] == {"id": 1, "ok": True, "pong": True}
        err = replies[1]
        assert err["id"] is None and err["ok"] is False
        assert err["error"]["code"] == "bad_request"
        assert err["error"]["retryable"] is False
        assert replies[2] == {"id": 3, "ok": True, "pong": True}
