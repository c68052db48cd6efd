"""Wire ingest: each connection checks an instance payload text once.

``handle_lines`` keeps a :class:`~repro.service.protocol.CheckedPayloads`
table per connection, from the exact JSON text of each ``instance``
object that passed every check to its checked tuples and fingerprint.
A line that repeats a text skips the decode and the checks; everything
else takes the reference path (``request_from_obj(obj)`` without a
table).  These tests drive real connections on both shard backends and
pin that the table changes no reply byte and no error text, evicts the
least recently used text, hands every request a fresh ``Instance``,
and counts ``ingest.hit``/``ingest.miss`` in the ``metrics`` op.  The
machine-count bound ``protocol.M_MAX`` is pinned here too: on the wire
(both ingest paths and ``ms``) and in ``SolveService.submit``.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

import repro.service.server as server_mod
from repro.core.bounds import Variant
from repro.core.instance import Instance
from repro.generators import uniform_instance
from repro.service import ServiceConfig, SolveRequest, SolveService
from repro.service.protocol import (
    M_MAX,
    CheckedPayloads,
    ProtocolError,
    instance_from_obj,
    instance_to_obj,
    request_from_obj,
    walk_line,
)
from repro.service.server import handle_lines

from .conftest import AGGREGATES

BACKENDS = ["thread", "process"]

PAYLOAD = {"m": 3, "setups": [3, 5, 2], "jobs": [[4, 2], [6, 1, 1], [9]]}


def with_payload(**fields) -> dict:
    return {**PAYLOAD, **fields}


def serve(config: ServiceConfig, objs, *, table: bool = True,
          capture: list | None = None) -> list[dict]:
    """Send ``objs`` as lines over one ``handle_lines`` connection.

    Returns the replies in order.  ``table=False`` parses every request
    on the reference path.  ``capture`` collects the requests the
    connection hands to ``submit``.
    """
    lines = [json.dumps(obj).encode() for obj in objs]

    async def main():
        async with SolveService(config) as svc:
            if capture is not None:
                submit = svc.submit

                async def capturing(request):
                    capture.append(request)
                    return await submit(request)

                svc.submit = capturing
            feed = iter(lines)
            replies: list[str] = []

            async def readline() -> bytes:
                return next(feed, b"")

            async def write_line(line: str) -> None:
                replies.append(line)

            await handle_lines(svc, readline, write_line)
            return replies

    if table:
        replies = asyncio.run(main())
    else:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(server_mod, "request_from_obj",
                          lambda obj, known: request_from_obj(obj))
            replies = asyncio.run(main())
    return [json.loads(line) for line in replies]


def ingest_counts(replies: list[dict]) -> tuple[int, int]:
    """``(ingest.hit, ingest.miss)`` of the last reply, a ``metrics`` op."""
    counters = replies[-1]["metrics"]["counters"]
    return counters.get("ingest.hit", 0), counters.get("ingest.miss", 0)


METRICS = {"id": "metrics", "op": "metrics"}


def solve_line(k, payload, **fields) -> dict:
    return {"id": k, "instance": payload, "bounds_only": True, **fields}


def read_line(table: CheckedPayloads, payload: dict):
    """The request ``handle_lines`` parses from a line holding ``payload``."""
    raw = json.dumps(solve_line(0, payload)).encode()
    return request_from_obj(walk_line(raw, table), table)


# --------------------------------------------------------------------------- #
# the table itself
# --------------------------------------------------------------------------- #


class TestCheckedPayloads:
    def test_lru_order_and_bound(self):
        seen = []
        table = CheckedPayloads(2, seen.append)
        a, b, c = (with_payload(setups=[s, 5, 2]) for s in (1, 2, 3))
        for payload in (a, b, a, c):  # a hits and is refreshed; c evicts b
            read_line(table, payload)
        assert len(table) == 2
        for payload in (b, c, a):  # b evicts a; c hits; a evicts b
            read_line(table, payload)
        assert seen == [False, False, True, False, False, True, False]

    def test_new_m_misses_once_then_its_text_hits(self):
        seen = []
        table = CheckedPayloads(4, seen.append)
        first = read_line(table, PAYLOAD).instance
        again = read_line(table, with_payload(m=7)).instance
        hit = read_line(table, with_payload(m=7)).instance
        assert seen == [False, False, True]
        reference = instance_from_obj(with_payload(m=7))
        assert again == hit == reference
        assert hit.fingerprint() == reference.fingerprint() == first.fingerprint()

    def test_len_counts_texts_of_one_payload_sharing_one_copy(self):
        table = CheckedPayloads(4)
        spellings = [PAYLOAD, with_payload(m=7),
                     {"jobs": PAYLOAD["jobs"], "setups": PAYLOAD["setups"], "m": 3}]
        for payload in spellings:
            read_line(table, payload)
        assert len(table) == 3
        entries = list(table._texts.values())
        assert len({id(entry.setups) for entry in entries}) == 1
        assert len({id(entry.jobs) for entry in entries}) == 1

    def test_only_wire_texts_are_indexed(self):
        """A payload handed over as an object has no text: it is checked
        in full every time, with the reference texts, and never stored."""
        seen = []
        table = CheckedPayloads(4, seen.append)
        rows = {"m": 3, "setups": [3, 5], "jobs": [[4, 2], (6, 1)]}
        with pytest.raises(ProtocolError, match=r"instance\.jobs\[1\]"):
            instance_from_obj(rows, table)
        for _ in range(2):
            instance_from_obj(dict(rows, jobs=[[4, 2], [6, 1]]), table)
        assert len(table) == 0 and seen == [False] * 3
        read_line(table, dict(rows, jobs=[[4, 2], [6, 1]]))
        assert len(table) == 1
        with pytest.raises(ProtocolError) as err:
            instance_from_obj(rows, table)  # same ints, tuple row: refused
        assert str(err.value) == "instance.jobs[1] must be a list of ints, got (6, 1)"
        with pytest.raises(ProtocolError) as err:
            instance_from_obj(dict(rows, setups=(3, 5), jobs=[[4, 2], [6, 1]]), table)
        assert str(err.value) == "instance.setups must be a list of ints, got (3, 5)"


# --------------------------------------------------------------------------- #
# through a connection, on both backends
# --------------------------------------------------------------------------- #


def mutate(rng: random.Random, payload: dict) -> dict:
    """A near-copy of a valid payload that the checks must refuse."""
    setups, jobs = list(payload["setups"]), [list(ts) for ts in payload["jobs"]]
    kind = rng.randrange(6)
    if kind == 0:
        setups[0] = True
    elif kind == 1:
        jobs[-1][0] = float(jobs[-1][0])
    elif kind == 2:
        setups[-1] = -1
    elif kind == 3:
        jobs[0][0] = 0
    elif kind == 4:
        jobs[0] = []
    else:
        jobs[0] = [jobs[0]]
    return {"m": payload["m"], "setups": setups, "jobs": jobs}


def seeded_stream(seed: int) -> list[dict]:
    """Repeats of a few payloads under other ``m``, variants and ``ms``,
    with near-copies and bad machine counts mixed in."""
    rng = random.Random(seed)
    pool = [instance_to_obj(uniform_instance(m=3 + s % 3, c=2 + s % 3,
                                             n_per_class=3, seed=s))
            for s in (21, 22, 23, 24)]
    objs = []
    for k in range(28):
        payload = dict(rng.choice(pool), m=rng.randint(1, 9))
        roll = rng.random()
        if roll < 0.12:
            payload = mutate(rng, payload)
        elif roll < 0.18:
            payload["m"] = rng.choice([0, True, "3", M_MAX + 1])
        obj = {"id": k, "instance": payload,
               "variant": rng.choice([v.value for v in Variant]),
               "algorithm": rng.choice(["three_halves", "eps", "two"]),
               "schedules": rng.random() < 0.5}
        if obj["algorithm"] == "two":
            obj["schedules"] = True
        if rng.random() < 0.25:
            obj["ms"] = sorted(rng.sample(range(1, 10), rng.randint(1, 3)))
        objs.append(obj)
    return objs


@pytest.mark.parametrize("workers", BACKENDS)
@pytest.mark.parametrize("seed", range(2))
def test_replies_byte_identical_with_and_without_table(workers, seed):
    rng = random.Random(500 + seed)
    config = ServiceConfig(shards=rng.randint(1, 3), max_batch=rng.randint(1, 4),
                           max_instances=rng.randint(1, 2), workers=workers)
    objs = seeded_stream(seed)
    keyed = serve(config, objs + [METRICS])
    reference = serve(config, objs + [METRICS], table=False)
    assert keyed[:-1] == reference[:-1]
    assert any(not r["ok"] for r in keyed[:-1]) and any(r["ok"] for r in keyed[:-1])
    hits, misses = ingest_counts(keyed)
    assert hits > 0 and hits + misses == len(objs)
    assert ingest_counts(reference) == (0, 0)


#: Near-copies of ``PAYLOAD`` with the exact ``bad_request`` text each
#: gets on the reference path.
NEAR_COPIES = [
    pytest.param(with_payload(setups=[3, True, 2]),
                 "instance.setups must be a list of ints, got [3, True, 2]",
                 id="bool-setup"),
    pytest.param(with_payload(jobs=[[4, 2], [6, 1.0, 1], [9]]),
                 "instance.jobs[1] must be a list of ints, got [6, 1.0, 1]",
                 id="float-job"),
    pytest.param(with_payload(setups=[3, -5, 2]),
                 "invalid instance: setup s_1 must be a non-negative int, got -5",
                 id="negative-setup"),
    pytest.param(with_payload(jobs=[[4, 2], [6, 0, 1], [9]]),
                 "invalid instance: processing times must be positive ints, "
                 "class 1 has 0",
                 id="zero-job"),
    pytest.param(with_payload(jobs=[[4, 2], [], [9]]),
                 "invalid instance: class 1 is empty; the paper requires C_i != {}",
                 id="empty-class"),
    pytest.param(with_payload(jobs=[[4, 2], [[6, 1, 1]], [9]]),
                 "instance.jobs[1] must be a list of ints, got [[6, 1, 1]]",
                 id="nested-list"),
    pytest.param(with_payload(m=0),
                 "invalid instance: m must be a positive integer, got 0",
                 id="m-zero"),
    pytest.param(with_payload(m=True),
                 "instance.m must be an int, got True", id="m-true"),
    pytest.param(with_payload(m="3"),
                 "instance.m must be an int, got '3'", id="m-string"),
]


@pytest.mark.parametrize("workers", BACKENDS)
def test_near_copies_get_the_reference_texts(workers):
    texts = []
    for param in NEAR_COPIES:
        payload, text = param.values
        with pytest.raises(ProtocolError) as err:
            request_from_obj({"instance": payload})
        assert str(err.value) == text
        texts.append(text)
    objs = [solve_line(0, PAYLOAD)]
    objs += [solve_line(k, param.values[0]) for k, param in enumerate(NEAR_COPIES, 1)]
    objs += [solve_line(len(objs), PAYLOAD), METRICS]
    replies = serve(ServiceConfig(shards=1, workers=workers), objs)
    assert replies[0]["ok"] and replies[-2]["ok"]
    for reply, text in zip(replies[1:-2], texts):
        assert reply["error"] == {"code": "bad_request", "message": text,
                                  "retryable": False}
    # every near-copy is another text: only the repeat of the valid one hits
    assert ingest_counts(replies) == (1, len(objs) - 1 - 1)


@pytest.mark.parametrize("workers", BACKENDS)
def test_new_m_misses_once_over_a_connection(workers):
    objs = [solve_line(k, p) for k, p in enumerate(
        [PAYLOAD, with_payload(m=5), with_payload(m=5), PAYLOAD])]
    config = ServiceConfig(shards=1, workers=workers)
    replies = serve(config, objs + [METRICS])
    assert replies[:-1] == serve(config, objs, table=False)
    assert all(r["ok"] for r in replies[:-1])
    assert ingest_counts(replies) == (2, 2)


@pytest.mark.parametrize("workers", BACKENDS)
def test_least_recently_used_payload_is_evicted(workers):
    """The table holds ``shards × max_instances`` payloads (two here)."""
    payloads = [with_payload(setups=[s, 5, 2]) for s in (1, 2, 3)]
    a, b, c = payloads
    objs = [solve_line(k, p) for k, p in enumerate([a, b, a, c, a, b])]
    replies = serve(ServiceConfig(shards=1, max_instances=2, workers=workers),
                    objs + [METRICS])
    assert all(r["ok"] for r in replies[:-1])
    # a, b miss; a hits; c misses and evicts b, not a; a hits; b misses
    assert ingest_counts(replies) == (2, 4)


@pytest.mark.parametrize("workers", BACKENDS)
def test_hit_hands_submit_a_fresh_instance(workers):
    captured: list[SolveRequest] = []
    objs = [solve_line(0, with_payload(m=5)), solve_line(1, with_payload(m=5)),
            METRICS]
    replies = serve(ServiceConfig(shards=1, workers=workers), objs,
                    capture=captured)
    assert ingest_counts(replies) == (1, 1)
    first, hit = (request.instance for request in captured)
    assert hit is not first
    assert hit._misc_cache is not first._misc_cache
    assert hit._jobs_sorted_cache is not first._jobs_sorted_cache
    reference = instance_from_obj(with_payload(m=5))
    assert hit == reference
    assert hit.fingerprint() == reference.fingerprint()
    assert not set(AGGREGATES) & set(vars(hit))
    assert replies[1]["results"] == serve(
        ServiceConfig(shards=1, workers=workers), objs[1:2], table=False
    )[0]["results"]


def test_in_process_submit_reports_no_ingest_counters():
    async def main():
        async with SolveService(ServiceConfig(shards=1)) as svc:
            await svc.submit(SolveRequest(instance=instance_from_obj(PAYLOAD),
                                          schedules=False))
            return svc.metrics_obj()

    counters = asyncio.run(main())["counters"]
    assert not any(key.startswith("ingest.") for key in counters)


# --------------------------------------------------------------------------- #
# the machine-count bound
# --------------------------------------------------------------------------- #


class TestMachineBound:
    def test_wire_instance_m_on_both_paths(self):
        """``m > M_MAX`` is refused with or without a table, and a text
        refused once is refused again; ``m = M_MAX`` passes and hits."""
        table = CheckedPayloads(4)
        text = f"instance.m may be at most {M_MAX}"
        for known in (None, table):
            with pytest.raises(ProtocolError) as err:
                request_from_obj({"instance": with_payload(m=M_MAX + 1)}, known)
            assert str(err.value) == text
        read_line(table, PAYLOAD)
        assert len(table) == 1
        for _ in range(2):
            with pytest.raises(ProtocolError) as err:
                read_line(table, with_payload(m=10**6))
            assert str(err.value) == text
        assert len(table) == 1
        for _ in range(2):
            assert read_line(table, with_payload(m=M_MAX)).instance.m == M_MAX
        assert len(table) == 2

    def test_wire_ms_entry(self):
        obj = {"instance": PAYLOAD}
        with pytest.raises(ProtocolError) as err:
            request_from_obj({**obj, "ms": [2, M_MAX + 1]})
        assert str(err.value) == f"ms entries may be at most {M_MAX}"
        # a non-positive entry keeps its text whatever else the list holds
        with pytest.raises(ProtocolError, match="non-empty list of positive ints"):
            request_from_obj({**obj, "ms": [0, M_MAX + 1]})
        assert request_from_obj({**obj, "ms": [1, M_MAX]}).ms == (1, M_MAX)

    @pytest.mark.parametrize("workers", BACKENDS)
    def test_bound_answered_on_the_wire(self, workers):
        objs = [solve_line(0, with_payload(m=M_MAX + 1)),
                solve_line(1, with_payload(m=M_MAX), bounds_only=False,
                           variant="splittable", algorithm="two"),
                solve_line(2, PAYLOAD, ms=[M_MAX + 1]),
                solve_line(3, PAYLOAD, ms=[M_MAX])]
        replies = serve(ServiceConfig(shards=1, workers=workers), objs)
        assert replies[0]["error"]["message"] == f"instance.m may be at most {M_MAX}"
        assert replies[2]["error"]["message"] == f"ms entries may be at most {M_MAX}"
        assert replies[1]["ok"] and replies[3]["ok"]
        assert replies[1]["results"][0]["m"] == M_MAX
        assert replies[3]["results"][0]["m"] == M_MAX

    def test_submit_checks_m_before_dispatch(self):
        big = Instance(m=M_MAX + 1, setups=(3, 5), jobs=((4, 2), (6,)))

        async def main():
            async with SolveService(ServiceConfig(shards=1)) as svc:
                for request in (SolveRequest(instance=big),
                                SolveRequest(instance=big, ms=(2,)),
                                SolveRequest(instance=big.with_machines(2),
                                             ms=(2, M_MAX + 1))):
                    with pytest.raises(ValueError, match=f"may be at most {M_MAX}"):
                        await svc.submit(request)
                rejected = svc.stats().requests
                result = await svc.submit(SolveRequest(
                    instance=big.with_machines(M_MAX), schedules=False))
                return rejected, result

        rejected, result = asyncio.run(main())
        assert rejected == 0  # never reached a shard
        assert result.m == M_MAX
