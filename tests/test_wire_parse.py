"""Wire parse: a connection does not decode an ``instance`` text twice.

``handle_lines`` reads each line with ``protocol.walk_line``, which
walks the line's top-level members and looks an ``instance`` object up
in the connection's ``CheckedPayloads`` table by its text up to the
first ``}``; every line the walk declines goes to ``json.loads``.
These tests pin that a repeated text is not decoded again, that a text
hit refreshes the table's one LRU, and (a fuzzer, with hypothesis where
it is installed) that every generated line gets the reply the reference
path gives it: ``json.loads`` plus ``request_from_obj`` without a
table.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

import repro.service.server as server_mod
from repro.service import ServiceConfig, SolveService
from repro.service.protocol import (
    CheckedPayloads,
    ProtocolError,
    _InstanceText,
    instance_from_obj,
    request_from_obj,
    walk_line,
)
from repro.service.server import handle_lines

from .test_ingest import PAYLOAD, with_payload

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised by the minimal CI leg
    HAVE_HYPOTHESIS = False


def serve_lines(config: ServiceConfig, lines: list[bytes], *,
                reference: bool = False) -> list[str]:
    """Send raw ``lines`` over one ``handle_lines`` connection.

    Returns the reply lines in order.  ``reference=True`` reads every
    line with ``json.loads`` and parses every request without a table.
    """

    async def main():
        async with SolveService(config) as svc:
            feed = iter(lines)
            replies: list[str] = []

            async def readline() -> bytes:
                return next(feed, b"")

            async def write_line(line: str) -> None:
                replies.append(line)

            await handle_lines(svc, readline, write_line)
            return replies

    if not reference:
        return asyncio.run(main())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_mod, "walk_line", lambda raw, known: None)
        patch.setattr(server_mod, "request_from_obj",
                      lambda obj, known: request_from_obj(obj))
        return asyncio.run(main())


def read(raw: bytes, known: CheckedPayloads):
    """What ``handle_lines`` reads from ``raw``."""
    obj = walk_line(raw, known)
    return json.loads(raw) if obj is None else obj


def read_reference(raw: bytes, known: CheckedPayloads):
    """``json.loads(raw)``, called at the depth ``read`` calls it from."""
    return json.loads(raw)


def plain(obj):
    """``walk_line``'s result with each ``instance`` text decoded, as
    ``json.loads`` returns it."""
    if type(obj) is dict and type(obj.get("instance")) is _InstanceText:
        found = obj["instance"]
        decoded = json.loads(found.text)
        if type(found.value) is dict:  # else the table's entry for the text
            assert found.value == decoded
        obj = {**obj, "instance": decoded}
    return obj


def outcome(reader, raw: bytes, known: CheckedPayloads) -> str:
    """What ``reader(raw, known)`` gives: the ``repr`` of its value
    (``nan`` is not equal to itself) or the type and text of what it
    raised."""
    try:
        return repr(plain(reader(raw, known)))
    except (ValueError, RecursionError) as exc:
        return f"{type(exc).__name__}: {exc}"


def text(payload: dict) -> str:
    return json.dumps(payload)


def line(*members: str) -> bytes:
    return ("{" + ", ".join(members) + "}").encode()


def solve(k, payload_text: str) -> bytes:
    return line(f'"id": {k}', f'"instance": {payload_text}', '"bounds_only": true')


def found(obj: dict) -> bool:
    """Whether the walk found the line's ``instance`` text in the table
    (it then carries the table's entry instead of a decoded dict)."""
    return type(obj["instance"].value) is not dict


# --------------------------------------------------------------------------- #
# the text index
# --------------------------------------------------------------------------- #


class TestTextIndex:
    def test_repeated_text_is_not_decoded_again(self, monkeypatch):
        """Counts every instance text the decoder is handed.  A text hit
        also refreshes the one LRU: after a hit on a, c evicts b."""
        a, b, c = (text(with_payload(setups=[s, 5, 2])) for s in (1, 2, 3))
        decoded: list[str] = []
        raw_decode = json.JSONDecoder.raw_decode

        def counting(self, s, idx=0):
            value, end = raw_decode(self, s, idx)
            decoded.extend(t for t in (a, b, c) if t in s[idx:end])
            return value, end

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
        order = [a, b, a, c, a, b]
        lines = [solve(k, t) for k, t in enumerate(order)]
        replies = serve_lines(ServiceConfig(shards=1, max_instances=2),
                              lines + [b'{"id": "m", "op": "metrics"}'])
        monkeypatch.undo()
        assert all(json.loads(r)["ok"] for r in replies)
        # a and b decode; a hits its text; c decodes and evicts b, not a;
        # a hits its text again; b was evicted, so it decodes
        assert decoded == [a, b, c, b]
        counters = json.loads(replies[-1])["metrics"]["counters"]
        assert (counters["ingest.hit"], counters["ingest.miss"]) == (2, 4)

    def test_text_hit_refreshes_the_entry(self):
        seen = []
        table = CheckedPayloads(2, seen.append)
        payloads = [with_payload(setups=[s, 5, 2]) for s in (1, 2, 3)]
        texts = [text(p) for p in payloads]
        for k in range(2):
            request_from_obj(walk_line(solve(k, texts[k]), table), table)
        obj = walk_line(solve(2, texts[0]), table)
        assert found(obj)
        hit = request_from_obj(obj, table).instance
        assert hit == instance_from_obj(payloads[0])
        assert hit.fingerprint() == instance_from_obj(payloads[0]).fingerprint()
        request_from_obj(walk_line(solve(3, texts[2]), table), table)
        assert seen == [False, False, True, False]
        # c evicted b, the least recently used text
        assert not found(walk_line(solve(4, texts[1]), table))
        assert found(walk_line(solve(5, texts[0]), table))

    def test_line_walked_before_eviction_builds_from_its_entry(self, monkeypatch):
        """A line read before its text was evicted carries the entry it
        found: its instance is built from it, with no decode."""
        seen = []
        table = CheckedPayloads(1, seen.append)
        a, b = text(PAYLOAD), text(with_payload(setups=[9, 5, 2]))
        request_from_obj(walk_line(solve(0, a), table), table)
        obj = walk_line(solve(1, a), table)
        request_from_obj(walk_line(solve(2, b), table), table)  # evicts a
        assert len(table) == 1 and a not in table._texts
        decodes = []
        raw_decode = json.JSONDecoder.raw_decode

        def counting(self, s, idx=0):
            decodes.append(s[idx:idx + 40])
            return raw_decode(self, s, idx)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
        hit = request_from_obj(obj, table).instance
        monkeypatch.undo()
        assert decodes == []
        assert hit == instance_from_obj(PAYLOAD)
        assert hit.fingerprint() == instance_from_obj(PAYLOAD).fingerprint()
        assert seen == [False, False, True]
        assert not found(walk_line(solve(3, a), table))

    def test_texts_share_the_bound(self):
        table = CheckedPayloads(2)
        for m in range(1, 6):  # five texts of one payload
            request_from_obj(walk_line(solve(m, text(with_payload(m=m))), table),
                             table)
        assert len(table) == 2
        first, second = table._texts.values()  # one copy of the tuples
        assert first.fingerprint == second.fingerprint
        assert first.setups is second.setups and first.jobs is second.jobs
        for m, hit in ((4, True), (5, True), (3, False)):
            assert found(walk_line(solve(0, text(with_payload(m=m))), table)) is hit

    def test_a_text_is_matched_whole(self):
        long = {"m": 4, "setups": list(range(1, 81)), "jobs": [[2]] * 80}
        other = dict(long, jobs=[[2]] * 79 + [[3]])
        table = CheckedPayloads(4)
        request_from_obj(walk_line(solve(0, text(long)), table), table)
        obj = walk_line(solve(1, text(other)), table)
        assert obj["instance"].value == other
        assert request_from_obj(walk_line(solve(2, text(other)), table),
                                table).instance == instance_from_obj(other)

    def test_failed_payloads_are_not_indexed(self):
        table = CheckedPayloads(4)
        bad = text(with_payload(m=0))
        for _ in range(2):
            obj = walk_line(solve(0, bad), table)
            assert obj["instance"].value is not None
            with pytest.raises(ProtocolError, match="m must be a positive integer"):
                request_from_obj(obj, table)
        assert not table._texts

    @pytest.mark.parametrize("extra", ['"x": {}', '"x": {"y": [1]}', '"a": "}"',
                                       '"a": "{}"'])
    def test_text_with_an_inner_brace_is_never_found(self, extra):
        """A payload whose text holds a ``}`` before its end (the checks
        ignore members other than ``m``, ``setups`` and ``jobs``) passes
        every time, is checked in full every time and is never stored."""
        seen = []
        table = CheckedPayloads(4, seen.append)
        body = text(PAYLOAD)[:-1] + ", " + extra + "}"
        for k in range(3):
            obj = walk_line(solve(k, body), table)
            assert obj == json.loads(solve(k, body))
            assert request_from_obj(obj, table).instance == instance_from_obj(PAYLOAD)
        assert seen == [False] * 3 and len(table) == 0


# --------------------------------------------------------------------------- #
# walk_line against json.loads
# --------------------------------------------------------------------------- #

A = text(PAYLOAD)

#: Lines ``walk_line`` must read exactly as ``json.loads`` does,
#: whether or not ``A`` is indexed.
TRICKY = [
    solve(1, A),
    line('"bounds_only" : true', f'"instance":{A}', '"id":1'),
    f'{{ "instance" :\t{A} ,\r"id" : 2 }}'.encode(),
    line(f'"instance": {A}xyz'),
    line(f'"instance": {A}', f'"instance": {A}'),
    line(f'"instance": {A}', '"instance": 5'),
    line(f'"instance": {A}', f'"instance": {text(with_payload(m=4))}'),
    line('"x": {"instance": %s}' % A, '"id": 3'),
    line(f'"\\u0069nstance": {A}', '"id": 4'),
    b"\xef\xbb\xbf" + solve(5, A),
    line('"id": "\xff"', f'"instance": {A}').replace(b"\xc3\xbf", b"\xff"),
    solve(6, A)[:40],
    solve(7, A)[:-1],
    b"{}", b"{ }", b"[]", b"{,}", b'{"id": 1,}', b'{"id" 1}', b'{"id": 1} x',
    line(f'"instance": {A}', '"x": ' + "[" * 100_000 + "]" * 100_000),
    line(f'"instance": {A}', '"x": ' + "[" * 600 + "]" * 600),
    line(f'"instance": {A}', '"eps": 1' + "0" * 5000),
    line(f'"instance": {A}', '"eps": NaN'),
    line(f'"instance": {A}', '"eps": -Infinity'),
    b'{"op": "ping", "id": 8}',
    line('"op": "metrics"', f'"instance": {A}'),
    ('{"id": "é", "instance": %s}' % A).encode("utf-16-le"),
    b'{"id": "\\ud800"}',
    line(f'"instance": {A[:-1]}, "jobs": [[1]]}}'),
    line(f'"instance": {A[:-1]}'),
    line('"id": 1', f'"instance": {A}', '"id": 2', '"bounds_only": true'),
    f'{{"instance": {A},}}'.encode(),
    f'{{"instance": {A} , }}'.encode(),
    f'{{"instance": {A}}}  '.encode(),
    # Texts with a "}" before their end: never found, read as json.loads.
    line('"instance": {"m": 3}', '"id": 9'),
    line('"instance": {"m": 3, "x": {}}', '"id": 9'),
    line('"instance": {"a": "}"}', '"id": 9'),
    line('"instance": {' + '"k": 1, ' * 100 + '"z": 2}', '"id": 9'),
    line(f'"instance": {A[:-1]}, "x": {{}}}}', '"id": 9'),
    line(f'"instance": {A[:-1]}, "a": "}}"}}', '"id": 9'),
]


@pytest.mark.parametrize("raw", TRICKY)
def test_walk_line_reads_as_json_loads(raw):
    table = CheckedPayloads(4)
    request_from_obj(walk_line(solve(0, A), table), table)
    assert table._texts
    expected = outcome(read_reference, raw, table)
    assert outcome(read, raw, CheckedPayloads(4)) == expected
    assert outcome(read, raw, table) == expected


@pytest.mark.parametrize("before", ['"id": 1', f'"instance": {A}'])
def test_deep_member_near_the_recursion_limit_reads_as_json_loads(before):
    """``json.loads`` decodes a member one level deeper than the walk
    does before the ``instance`` member: a value nested that far is left
    to it.  The members after ``instance`` are decoded in one call."""
    table = CheckedPayloads(4)
    request_from_obj(walk_line(solve(0, A), table), table)
    for depth in range(600, 1001):
        raw = line(before, '"x": ' + "[" * depth + "]" * depth)
        assert outcome(read, raw, table) == outcome(read_reference, raw, table)


# --------------------------------------------------------------------------- #
# the fuzzer: handle_lines with the tables against the reference path
# --------------------------------------------------------------------------- #

POOL = [PAYLOAD, with_payload(setups=[1, 4, 2], m=2),
        {"m": 2, "setups": [7], "jobs": [[3, 3, 1]]}]

SEPARATORS = [(", ", ": "), (",", ":"), (" ,\t", " :\r ")]

KINDS = ["solve", "solve", "solve", "solve", "junk", "second", "nested",
         "escaped", "bom", "not-utf8", "cut", "empty", "array", "deep",
         "long-int", "nan", "ping", "stats", "metrics", "housekeeping-instance"]


def fuzz_line(kind: str, seed: int) -> bytes:
    """One request line of ``kind``; ``seed`` picks its payload, its
    spelling and its other members."""
    rng = random.Random(seed)
    payload = dict(rng.choice(POOL))
    if rng.random() < 0.15:
        payload["m"] = rng.randint(1, 4)
    if rng.random() < 0.1:  # other key order
        payload = dict(reversed(list(payload.items())))
    sep = SEPARATORS[rng.randrange(3)] if rng.random() < 0.15 else SEPARATORS[0]
    body = json.dumps(payload, separators=sep)
    members = [f'"id": {seed % 97}', f'"instance": {body}']
    if rng.random() < 0.5:
        members.append('"bounds_only": true')
    if rng.random() < 0.3:
        members.append('"variant": "%s"' % rng.choice(
            ["preemptive", "splittable", "nonpreemptive", "bogus"]))
    if rng.random() < 0.15:
        members.append('"ms": [1, 2]')
    rng.shuffle(members)
    if kind == "junk":
        members[members.index(f'"instance": {body}')] += rng.choice(
            ["x", "]", "}", " 1", '"', ", }"])
    elif kind == "second":
        members.append('"instance": ' + rng.choice(
            [text(rng.choice(POOL)), "5", "null", "{}", body]))
    elif kind == "nested":
        members.append('"%s": {"instance": %s}' % (rng.choice(["x", "id"]), body))
    elif kind == "escaped":
        members = [m.replace('"instance"', rng.choice(
            ['"\\u0069nstance"', '"inst\\u0061nce"', '"\\u0069\\u006e\\u0073tance"']))
            for m in members]
    elif kind == "deep":
        depth = rng.choice([3, 499, 501, 600, 990, 1000, 100_000])
        members.append('"x": ' + "[" * depth + "]" * depth)
    elif kind == "long-int":
        members.append('"eps": ' + "7" * rng.choice([4300, 4301, 6000]))
    elif kind == "nan":
        members.append('"eps": ' + rng.choice(["NaN", "Infinity", "-Infinity"]))
    elif kind in ("ping", "stats", "metrics"):
        return ('{"op": "%s", "id": %d}' % (kind, seed % 97)).encode()
    elif kind == "housekeeping-instance":
        members.append('"op": "%s"' % rng.choice(["ping", "stats", "nope"]))
    raw = ("{" + ", ".join(members) + "}").encode()
    if kind == "bom":
        return b"\xef\xbb\xbf" + raw
    if kind == "not-utf8":
        cut = rng.randrange(1, len(raw))
        return raw[:cut] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + raw[cut:]
    if kind == "cut":
        return raw[:rng.randrange(1, len(raw))]
    if kind == "empty":
        return rng.choice([b"{}", b"{ }", b'{"op": "solve"}'])
    if kind == "array":
        return rng.choice([b"[]", b"[" + raw + b"]", b"7", b'"x"'])
    return raw


def comparable(reply: str):
    """A reply with what legitimately differs between two runs left out:
    ``stats`` and ``metrics`` snapshots keep only their shape, since
    their counts and timings depend on how far the reader ran ahead and
    only the tabled run counts ``ingest.*``."""
    obj = json.loads(reply)
    if "stats" in obj:
        return obj["id"], obj["ok"], sorted(obj["stats"])
    if "metrics" in obj:
        return obj["id"], obj["ok"], sorted(obj["metrics"])
    return obj


def check_stream(specs, workers: str = "thread") -> None:
    lines = [fuzz_line(kind, seed) for kind, seed in specs]
    config = ServiceConfig(shards=1, max_instances=2, workers=workers)
    tabled = serve_lines(config, lines)
    reference = serve_lines(config, lines, reference=True)
    assert len(tabled) == len(reference) == sum(1 for raw in lines if raw.strip())
    for raw, mine, ref in zip(lines, tabled, reference):
        assert comparable(mine) == comparable(ref), raw[:200]


#: Repeats of a few payloads between every other kind of line.
SEEDED = [(kind, seed) for seed, kind in enumerate(KINDS * 2)]
SEEDED += [("solve", seed) for seed in range(40)]
random.Random(30).shuffle(SEEDED)


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**16)),
                    min_size=1, max_size=12))
    def test_fuzzed_lines_get_the_reference_replies(specs):
        check_stream(specs)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(0, 2**16))
    def test_fuzzed_line_decodes_as_json_loads(kind, seed):
        raw = fuzz_line(kind, seed)
        table = CheckedPayloads(4)
        for payload in POOL:
            request_from_obj(walk_line(solve(0, text(payload)), table), table)
        assert outcome(read, raw, table) == outcome(read_reference, raw, table)

else:  # pragma: no cover - exercised by the minimal CI leg

    def test_fuzzed_lines_get_the_reference_replies():
        for start in range(0, len(SEEDED), 12):
            check_stream(SEEDED[start:start + 12])


@pytest.mark.parametrize("workers", ["thread", "process"])
def test_seeded_stream_gets_the_reference_replies(workers):
    check_stream(SEEDED, workers)
