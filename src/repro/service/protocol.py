"""JSON-lines wire protocol of the solve service.

One request per line, one response line per request, exact integers
end to end.  Times (``T``, bounds, makespans, starts/lengths) are exact
rationals encoded as an ``int`` (denominator 1) or a two-element
``[numerator, denominator]`` list — floats are **rejected**, the service
inherits the library's bit-exactness guarantee and refuses lossy input.

Request shape (``op`` defaults to ``"solve"``)::

    {"id": 7, "op": "solve",
     "instance": {"m": 8, "setups": [3, 5], "jobs": [[4, 2], [6]]},
     "variant": "nonpreemptive",        # default
     "algorithm": "three_halves",       # default; or "eps" / "two"
     "eps": [1, 100],                   # only used by "eps"; >= 1/2**64
     "bounds_only": true,               # or "schedules": false
     "ms": [2, 4, 8]}                   # optional machine range → sweep

``ms`` turns the request into a machine sweep (one result per count, the
instance's own ``m`` ignored); otherwise one result at ``instance.m``.
It may hold at most :data:`MS_MAX` (64) counts: each count is a whole
solve, so a longer list is a ``bad_request``.  Every machine count,
``instance.m`` and each ``ms`` entry, is at most :data:`M_MAX` (4096).
``bounds_only`` (equivalently ``"schedules": false``) resolves the
certified ``T*``/ratio/lower-bound certificate without constructing a
schedule.  Housekeeping ops: ``{"op": "ping"}``, ``{"op": "stats"}``,
``{"op": "metrics", "format": "json"|"prometheus"}`` (counters and
per-stage latency histograms, see :mod:`repro.obs.metrics`) and
``{"op": "shutdown"}`` (acknowledges, then closes the connection).

A connection checks each instance payload text once.  The servers
keep a :class:`CheckedPayloads` table per connection, from the exact
JSON text of each ``instance`` object that passed every check to its
``m``, its checked tuples and its fingerprint.  :func:`walk_line` does
not decode a text the table holds: that line's instance is built from
the stored entry, with no check run again.  Every other payload is
checked in full, with the same verdicts and texts, and its text is
indexed once it passes, so a payload sent under a new ``m`` or spelling
misses once before its own text hits.  The ``metrics`` op counts the
two kinds as ``ingest.hit`` and ``ingest.miss``; requests submitted
in-process report neither.  :func:`request_from_obj` without a table
is the reference path.

Response shape::

    {"id": 7, "ok": true, "results": [<result>, ...]}
    {"id": 7, "ok": false,
     "error": {"code": "<code>", "message": "<one line>", "retryable": false}}

Errors are **structured**: ``code`` is one of the closed taxonomy
:data:`ERROR_CODES` — ``bad_request`` (malformed line/field/name; fix
the request), ``timeout`` (the request's ``timeout_ms`` budget expired
in queue or mid-solve), ``overloaded`` (shed at admission because the
target shard's queue was full; safe to retry after backoff),
``shutdown`` (the service stopped before the request ran; safe to
retry elsewhere), ``internal`` (unexpected server-side failure; the
message is generic — details go to server logs, never the wire).
``retryable`` says whether resubmitting the identical request can
succeed: true for ``overloaded``/``shutdown``, false otherwise.

``timeout_ms`` (optional positive int, at most :data:`TIMEOUT_MS_MAX`,
one day) gives a request a deadline: the clock starts at admission and
keeps running while the request waits in its shard's queue, and an
in-flight solve is cooperatively cancelled at the next dual-test probe
boundary once the budget is spent.  A larger value is a
``bad_request``.

A full solve result carries the certificate plus the schedule as the
columnar row projection (:meth:`repro.core.schedule.Schedule.rows`
— parallel int lists at one common ``scale``, handed to ``json.dumps``
as they are); a bounds-only result carries the same certificate fields
with ``makespan_bound`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, NamedTuple, Optional, Union

from ..algos.api import SolveResult, _check_eps
from ..algos.batch_api import BatchItem, SweepPoint, _validate_request
from ..core.bounds import Variant
from ..core.errors import ECHO_MAX, InvalidInstanceError, echo
from ..core.instance import Instance

__all__ = [
    "ECHO_MAX",
    "EPS_MIN",
    "ERROR_CODES",
    "CheckedPayloads",
    "METRICS_FORMATS",
    "MS_MAX",
    "M_MAX",
    "ProtocolError",
    "ServiceError",
    "SolveRequest",
    "TIMEOUT_MS_MAX",
    "check_eps",
    "check_m",
    "check_ms",
    "check_timeout_ms",
    "echo",
    "encode_time",
    "parse_time",
    "instance_to_obj",
    "instance_from_obj",
    "request_from_obj",
    "walk_line",
    "result_to_obj",
    "response_line",
    "error_line",
    "metrics_line",
]


class ProtocolError(ValueError):
    """A malformed request line / field (reported, never fatal)."""


# --------------------------------------------------------------------------- #
# the error taxonomy
# --------------------------------------------------------------------------- #

#: The closed set of wire error codes, mapped to whether resubmitting the
#: identical request can succeed (the default ``retryable`` per code).
ERROR_CODES = {
    "bad_request": False,   # the request itself is wrong; retrying can't help
    "timeout": False,       # the same budget would expire the same way
    "overloaded": True,     # shed at admission; retry after backoff
    "shutdown": True,       # never ran; retry against a live replica
    "internal": False,      # server-side failure; details in server logs
}


class ServiceError(Exception):
    """One structured service failure: ``{code, message, retryable}``.

    The only error shape the service puts on the wire (and the only
    exception :meth:`SolveService.submit` raises for request-level
    failures).  ``code`` must be in :data:`ERROR_CODES`; ``retryable``
    defaults per code and says whether the *identical* request can be
    resubmitted with hope of success.
    """

    def __init__(self, code: str, message: str, retryable: Optional[bool] = None):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}; expected one of "
                             f"{sorted(ERROR_CODES)}")
        self.code = code
        self.message = message
        self.retryable = ERROR_CODES[code] if retryable is None else bool(retryable)
        super().__init__(f"[{code}] {message}")

    def to_obj(self) -> dict:
        return {"code": self.code, "message": self.message,
                "retryable": self.retryable}

    # Terse constructors: keep call sites at one line per failure mode.
    @classmethod
    def bad_request(cls, message: str) -> "ServiceError":
        return cls("bad_request", message)

    @classmethod
    def timeout(cls, message: str = "request deadline exceeded") -> "ServiceError":
        return cls("timeout", message)

    @classmethod
    def overloaded(cls, message: str = "shard queue full, request shed") -> "ServiceError":
        return cls("overloaded", message)

    @classmethod
    def shutdown(cls, message: str = "service shut down before the request "
                 "was processed") -> "ServiceError":
        return cls("shutdown", message)

    @classmethod
    def internal(cls, message: str = "internal error") -> "ServiceError":
        return cls("internal", message)


# --------------------------------------------------------------------------- #
# scalars
# --------------------------------------------------------------------------- #


def encode_time(value):
    """An exact rational as JSON: plain int, or ``[num, den]``."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return [f.numerator, f.denominator]


def parse_time(value, what: str = "time") -> Fraction:
    """Inverse of :func:`encode_time`; floats are rejected loudly."""
    if isinstance(value, bool):
        raise ProtocolError(f"{what} must be an int or [num, den], got {echo(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        num, den = value
        if den <= 0:
            raise ProtocolError(f"{what} denominator must be positive, got {echo(den)}")
        return Fraction(num, den)
    raise ProtocolError(
        f"{what} must be an exact int or [numerator, denominator] pair "
        f"(floats are not accepted), got {echo(value)}"
    )


# Exact-type sets for the bulk checks: ``frozenset.issuperset`` over
# ``map(type, ...)`` tests a whole decoded JSON array in one C-level pass.
# ``bool`` (an ``int`` subclass) fails them, and so do the ``int`` and
# ``list`` subclasses an in-process caller may pass; a failed pass falls
# through to the per-element ``isinstance`` checks, which accept those
# subclasses, reject ``bool`` and word every rejection.
_LIST = frozenset({list})
_INT = frozenset({int})


def _int_list(value, what: str) -> list[int]:
    if type(value) is list and _INT.issuperset(map(type, value)):
        return value
    if not isinstance(value, list) or any(
        not isinstance(v, int) or isinstance(v, bool) for v in value
    ):
        raise ProtocolError(f"{what} must be a list of ints, got {echo(value)}")
    return value


# --------------------------------------------------------------------------- #
# instances
# --------------------------------------------------------------------------- #


def instance_to_obj(instance: Instance) -> dict:
    return {
        "m": instance.m,
        "setups": list(instance.setups),
        "jobs": [list(ts) for ts in instance.jobs],
    }


class _Checked(NamedTuple):
    """A :class:`CheckedPayloads` entry: the payload of an ``instance``
    text, as it passed every check."""

    m: int
    setups: tuple[int, ...]
    jobs: tuple[tuple[int, ...], ...]
    fingerprint: str


class _InstanceText:
    """An ``instance`` object as :func:`walk_line` found it.

    ``text`` is the value's JSON text; ``value`` is its decoded dict, or
    the connection table's entry for the text, which is then not
    decoded.  JSON never decodes to this type, so
    :func:`instance_from_obj` tells it from a payload by its type.
    """

    __slots__ = ("text", "value")

    def __init__(self, text: str, value: Union[dict, _Checked]) -> None:
        self.text = text
        self.value = value


class CheckedPayloads:
    """One connection's table of the ``instance`` texts whose payloads
    passed every check.

    Maps the exact JSON text of an ``instance`` object to its ``m``, its
    checked ``setups``/``jobs`` tuples and its fingerprint.  Equal text
    means an equal decoded value, so a line that repeats a text needs
    neither a decode nor a check (:func:`walk_line`).  Texts of one
    payload (under other ``m`` or spellings) share one copy of its
    tuples.  Holds at most ``bound`` texts and evicts the least recently
    used one first.

    Not thread-safe: the connection handler owns one table, and only
    its event loop touches it.  ``observe`` hears every payload
    :func:`instance_from_obj` reads with the table, with ``True`` for a
    hit.
    """

    __slots__ = ("bound", "observe", "_texts")

    def __init__(self, bound: int,
                 observe: Callable[[bool], None] = lambda hit: None) -> None:
        self.bound = bound
        self.observe = observe
        self._texts: dict[str, _Checked] = {}

    def __len__(self) -> int:
        return len(self._texts)

    def lookup(self, text: str) -> Optional[_Checked]:
        """The entry of ``text``, refreshed as the most recent, or ``None``."""
        entry = self._texts.pop(text, None)
        if entry is not None:
            self._texts[text] = entry
        return entry

    def add(self, text: str, instance: Instance) -> None:
        """Index ``text``, an ``instance`` object whose payload passed
        every check as ``instance``."""
        texts, fingerprint = self._texts, instance.fingerprint()
        setups, jobs = instance.setups, instance.jobs
        for entry in texts.values():  # one copy of a payload's tuples
            if entry.fingerprint == fingerprint:
                setups, jobs = entry.setups, entry.jobs
                break
        texts.pop(text, None)
        texts[text] = _Checked(instance.m, setups, jobs, fingerprint)
        if len(texts) > self.bound:
            del texts[next(iter(texts))]


def instance_from_obj(obj, known: Optional[CheckedPayloads] = None) -> Instance:
    """Parse and validate one wire instance object.

    ``obj`` may also be what :func:`walk_line` put in place of an
    ``instance`` object.  One that carries the ``known`` table's entry
    for its text is a hit: its instance is built from the entry's
    tuples and fingerprint, and no value is checked again.  Every other
    payload is checked in full (a miss, when there is a table), and the
    text of one that passes is indexed.  Without a table (the reference
    path), nothing is counted or indexed.
    """
    text = None
    if type(obj) is _InstanceText:
        text, obj = obj.text, obj.value
        if type(obj) is _Checked:
            known.observe(True)
            return Instance._from_checked(
                obj.m, obj.setups, obj.jobs, {}, {"fingerprint": obj.fingerprint}
            )
    if not isinstance(obj, dict):
        raise ProtocolError(f"instance must be an object, got {echo(obj)}")
    if known is not None:
        known.observe(False)
    m, setups, jobs = obj.get("m"), obj.get("setups"), obj.get("jobs")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ProtocolError(f"instance.m must be an int, got {echo(m)}")
    _int_list(setups, "instance.setups")
    if not isinstance(jobs, list):
        raise ProtocolError(f"instance.jobs must be a list of lists, got {echo(jobs)}")
    if not (
        _LIST.issuperset(map(type, jobs))
        and _INT.issuperset(map(type, chain.from_iterable(jobs)))
    ):
        for i, ts in enumerate(jobs):
            _int_list(ts, f"instance.jobs[{i}]")
    try:
        instance = Instance(m=m, setups=tuple(setups), jobs=tuple(map(tuple, jobs)))
    except InvalidInstanceError as exc:
        raise ProtocolError(f"invalid instance: {echo(exc, str)}") from None
    check_m(m, "instance.m")
    if known is not None and text is not None:
        known.add(text, instance)
    return instance


# --------------------------------------------------------------------------- #
# request lines
# --------------------------------------------------------------------------- #

#: ``json.loads``'s own decoder; :func:`walk_line` reaches its C
#: scanner through ``raw_decode``.
_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE.match  # JSON's: space, \t, \n, \r
_WS_CHARS = " \t\n\r"

#: A member value whose text holds more brackets than this is left to
#: ``json.loads``.  It decodes a member one level deeper than
#: :func:`walk_line` does, so only it can tell whether a value nested
#: near the interpreter's recursion limit decodes; at this depth both
#: do, far below CPython's default limit of 1000.  A value nested ``d``
#: deep is at least ``2 d`` characters long, so shorter ones are not
#: counted.
_NEST_MAX = 500


def walk_line(raw: bytes, known: CheckedPayloads) -> Optional[dict]:
    """``json.loads(raw)`` without decoding an ``instance`` text again,
    or ``None`` for a line only ``json.loads`` may read.

    Walks the members of a line that is one JSON object and decodes
    each value with ``json.loads``'s own scanner, except an ``instance``
    object whose text ``known`` holds.  A payload of ``m``, ``setups``
    and ``jobs`` ends at its first ``}``, so the walk looks that slice
    up.  An ``instance`` object whose text ends there comes back as an
    :class:`_InstanceText` (carrying the table's entry when found) for
    :func:`instance_from_obj`; one with a ``}`` before its end, in a
    string or a nested object, reads as ``json.loads`` reads it and is
    never indexed.  The walk leaves a line to ``json.loads`` (no
    leading ``{``, not UTF-8, malformed, trailing data, nesting too
    deep, an int too long) by returning ``None``; the caller then calls
    it, at its own stack depth, so the line decodes or fails exactly as
    it always did.
    """
    # json.loads reads a line whose second byte is NUL as UTF-16 or 32.
    if raw[:1] != b"{" or raw[1:2] == b"\x00":
        return None
    try:
        return _walk(raw.decode("utf-8", "surrogatepass"), known)
    except (ValueError, RecursionError):
        return None


def _walk(s: str, known: CheckedPayloads) -> Optional[dict]:
    """The object ``s`` holds, as :func:`walk_line` returns it, or
    ``None`` where ``json.loads`` has to decide.

    Members up to the ``instance`` one are decoded one by one; the ones
    after it in one call, on the rest of the line opened as an object.
    That call nests as deep as ``json.loads`` would, or deeper, so only
    the values decoded one by one need the :data:`_NEST_MAX` guard.
    """
    decode, ws, ws_chars = _DECODER.raw_decode, _WHITESPACE, _WS_CHARS
    obj: dict = {}
    i = 1
    if s[i:i + 1] in ws_chars:
        i = ws(s, i).end()
    if s[i:i + 1] == "}":
        return obj if ws(s, i + 1).end() == len(s) else None
    while True:
        if s[i:i + 1] != '"':
            return None
        key, i = decode(s, i)
        if s[i:i + 1] in ws_chars:
            i = ws(s, i).end()
        if s[i:i + 1] != ":":
            return None
        i += 1
        if s[i:i + 1] in ws_chars:
            i = ws(s, i).end()
        entry = close = None
        if key == "instance" and s[i:i + 1] == "{":
            close = s.find("}", i) + 1
            text = s[i:close]
            entry = known.lookup(text)
        if entry is not None:
            value, end = _InstanceText(text, entry), close
        else:
            value, end = decode(s, i)
            if end - i > 2 * _NEST_MAX and (
                s.count("[", i, end) + s.count("{", i, end) > _NEST_MAX
            ):
                return None
            if end == close:  # an instance object that ends at its first }
                value = _InstanceText(text, value)
        obj[key] = value
        i = end
        if s[i:i + 1] in ws_chars:
            i = ws(s, i).end()
        sep = s[i:i + 1]
        if sep == "}":
            return obj if ws(s, i + 1).end() == len(s) else None
        if sep != ",":
            return None
        i += 1
        if s[i:i + 1] in ws_chars:
            i = ws(s, i).end()
        if key == "instance":
            if s[i:i + 1] != '"':  # json.loads refuses a trailing comma
                return None
            # Later keys overwrite earlier ones in place, as in json.loads.
            obj.update(_DECODER.decode("{" + s[i:]))
            return obj


# --------------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------------- #

#: The smallest ``eps`` a request may carry.  The ``eps`` search makes
#: ~log2(1/eps) probes on numbers as long as eps's denominator, so an
#: unbounded eps would let one short line hold a shard for seconds; at
#: this bound a search takes ~65 probes.
EPS_MIN = Fraction(1, 2**64)

#: The most machine counts one ``ms`` sweep may carry.  Each count is a
#: whole solve (a full schedule at every ``m``), so an unbounded list
#: would let one short line hold a shard for seconds and fill a reply of
#: tens of megabytes.
MS_MAX = 64

#: The largest machine count a request may name, as ``instance.m`` or
#: as an ``ms`` entry.  Lemma 8's splittable ``"two"`` template emits
#: about 1.8 rows per machine, so an unbounded count would let one short
#: line hold a shard for minutes; at this bound a reply has ~7.4k rows.
M_MAX = 4096

#: The largest ``timeout_ms`` a request may carry: one day.  The engine
#: turns the budget into seconds as a float, which an unbounded int
#: overflows.
TIMEOUT_MS_MAX = 86_400_000


def check_eps(eps) -> None:
    """Raise :class:`ProtocolError` unless ``eps`` is an int (not a bool)
    or a ``Fraction``, positive and at least :data:`EPS_MIN`.

    The one rule for a request's ``eps``, for every algorithm: the wire
    parser applies it to the value :func:`parse_time` read, and
    :meth:`~repro.service.engine.SolveService.submit` to an in-process
    request's.  Its type and sign half is the library's own
    (:func:`~repro.algos.api._check_eps`, which every library entry
    point applies too); the lower bound is the service's.
    """
    _check_eps(eps, ProtocolError)
    if eps < EPS_MIN:
        raise ProtocolError("eps must be at least 1/2**64")


def check_timeout_ms(timeout_ms) -> None:
    """Raise :class:`ProtocolError` unless ``timeout_ms`` is ``None`` or a
    positive int (not a bool) of at most :data:`TIMEOUT_MS_MAX`.

    The one rule for a request's deadline budget: the wire parser and
    :meth:`~repro.service.engine.SolveService.submit` both apply it.
    """
    if timeout_ms is None:
        return
    if (
        not isinstance(timeout_ms, int) or isinstance(timeout_ms, bool)
        or timeout_ms < 1
    ):
        raise ProtocolError(
            f"timeout_ms must be a positive int (milliseconds), got {echo(timeout_ms)}"
        )
    if timeout_ms > TIMEOUT_MS_MAX:
        raise ProtocolError(f"timeout_ms may be at most {TIMEOUT_MS_MAX} (one day)")


def check_m(m: int, what: str) -> None:
    """Raise :class:`ProtocolError` if the machine count ``m`` (an int)
    exceeds :data:`M_MAX`.

    The one bound on a machine count: :func:`instance_from_obj` applies
    it to ``instance.m`` on both of its paths, :func:`check_ms` to every
    ``ms`` entry, and :meth:`~repro.service.engine.SolveService.submit`
    to an in-process request's ``instance.m``.  It runs after every
    other check of the value, so what those reject keeps its text.
    """
    if m > M_MAX:
        raise ProtocolError(f"{what} may be at most {M_MAX}")


def check_ms(ms) -> None:
    """Raise :class:`ProtocolError` unless ``ms`` is ``None`` or a
    non-empty list or tuple of at most :data:`MS_MAX` ints (not bools),
    each at least 1 and at most :data:`M_MAX`.

    The one rule for a request's machine sweep: the wire parser and
    :meth:`~repro.service.engine.SolveService.submit` both apply it.
    """
    if ms is None:
        return
    ms = _int_list(list(ms) if isinstance(ms, tuple) else ms, "ms")
    if len(ms) > MS_MAX:
        raise ProtocolError(f"ms may hold at most {MS_MAX} machine counts")
    if not ms or any(m < 1 for m in ms):
        raise ProtocolError(
            f"ms must be a non-empty list of positive ints, got {echo(ms)}"
        )
    check_m(max(ms), "ms entries")


@dataclass(frozen=True)
class SolveRequest:
    """One validated service request (the in-process submit unit).

    ``schedules=False`` is the bounds-only mode; ``ms`` makes the request
    a machine sweep.  ``id`` is the caller's correlation value, echoed on
    the response line (``None`` for in-process use).  ``timeout_ms``
    (optional) is the request's total deadline budget — queue wait plus
    solve time; an expired request resolves as a structured ``timeout``
    error instead of an answer.  ``submit`` checks ``ms``, ``eps``,
    ``timeout_ms`` and the instance's ``m`` like the wire does
    (:func:`check_ms`, :func:`check_eps`, :func:`check_timeout_ms`,
    :func:`check_m`).
    """

    instance: Instance
    variant: Variant = Variant.NONPREEMPTIVE
    algorithm: str = "three_halves"
    eps: Fraction = field(default_factory=lambda: Fraction(1, 100))
    schedules: bool = True
    ms: Optional[tuple[int, ...]] = None
    id: object = None
    timeout_ms: Optional[int] = None

    def to_item(self) -> BatchItem:
        """The :func:`~repro.algos.batch_api.solve_batch` work unit."""
        return BatchItem(
            instance=self.instance,
            variant=self.variant,
            algorithm=self.algorithm,
            eps=self.eps,
            schedules=self.schedules,
            ms=self.ms,
        )


def request_from_obj(obj, known: Optional[CheckedPayloads] = None) -> SolveRequest:
    """Parse and validate one ``op: solve`` request object.

    Everything checked here raises :class:`ProtocolError` (malformed
    JSON shapes) or ``ValueError`` (bad variant/algorithm names, via the
    batch engine's up-front validation) before any solving starts.
    ``known`` is the connection's table of checked instance payloads
    (see :func:`instance_from_obj`); without it every payload is checked
    in full, which is the reference path.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"request must be a JSON object, got {echo(obj)}")
    unknown = set(obj) - {
        "id", "op", "instance", "variant", "algorithm", "eps",
        "schedules", "bounds_only", "ms", "timeout_ms",
    }
    if unknown:
        raise ProtocolError(f"unknown request fields: {echo(sorted(unknown))}")
    if "instance" not in obj:
        raise ProtocolError("solve request needs an 'instance' field")
    instance = instance_from_obj(obj["instance"], known)

    schedules = obj.get("schedules")
    bounds_only = obj.get("bounds_only")
    for name, flag in (("schedules", schedules), ("bounds_only", bounds_only)):
        if flag is not None and not isinstance(flag, bool):
            raise ProtocolError(f"{name} must be a boolean, got {echo(flag)}")
    if schedules is None:
        schedules = not bool(bounds_only)
    elif bounds_only is not None and bounds_only == schedules:
        raise ProtocolError(
            f"contradictory flags: schedules={schedules} with bounds_only={bounds_only}"
        )

    ms = obj.get("ms")
    check_ms(ms)
    if ms is not None:
        ms = tuple(ms)

    eps = obj.get("eps")
    eps = Fraction(1, 100) if eps is None else parse_time(eps, "eps")
    check_eps(eps)

    timeout_ms = obj.get("timeout_ms")
    check_timeout_ms(timeout_ms)

    algorithm = obj.get("algorithm", "three_halves")
    variant = _validate_request(
        obj.get("variant", Variant.NONPREEMPTIVE), algorithm, schedules, eps
    )
    return SolveRequest(
        instance=instance, variant=variant, algorithm=algorithm, eps=eps,
        schedules=schedules, ms=ms, id=obj.get("id"), timeout_ms=timeout_ms,
    )


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #


def _schedule_obj(schedule) -> dict:
    rows = schedule.rows()
    return {
        "scale": rows.scale,
        "machine": rows.machine,
        "start_num": rows.start_num,
        "length_num": rows.length_num,
        "cls": rows.cls,
        "job_idx": rows.job_idx,
    }


def result_to_obj(result):
    """One solve outcome as JSON: ``SolveResult``/``SweepPoint``/sweep list."""
    if isinstance(result, list):
        return [result_to_obj(r) for r in result]
    if isinstance(result, SweepPoint):
        return {
            "kind": "bounds",
            "m": result.m,
            "variant": result.variant.value,
            "algorithm": result.algorithm,
            "T": encode_time(result.T),
            "ratio_bound": encode_time(result.ratio_bound),
            "opt_lower_bound": encode_time(result.opt_lower_bound),
            "makespan_bound": encode_time(result.makespan_bound),
            "accept_calls": result.accept_calls,
        }
    if isinstance(result, SolveResult):
        return {
            "kind": "solve",
            "m": result.schedule.instance.m,
            "variant": result.variant.value,
            "algorithm": result.algorithm,
            "T": encode_time(result.T),
            "ratio_bound": encode_time(result.ratio_bound),
            "opt_lower_bound": encode_time(result.opt_lower_bound),
            "makespan": encode_time(result.makespan),
            "schedule": _schedule_obj(result.schedule),
        }
    raise TypeError(f"unexpected result type {type(result).__name__}")  # pragma: no cover


def response_line(request_id, results) -> str:
    """The success line for one request (``results`` is always a list)."""
    if not isinstance(results, list):
        results = [results]
    payload = {"id": request_id, "ok": True, "results": [result_to_obj(r) for r in results]}
    return json.dumps(payload, separators=(",", ":"))


def error_line(request_id, error: Union["ServiceError", str]) -> str:
    """The failure line for one request (always the structured shape).

    Accepts a :class:`ServiceError` or, as a convenience, a bare string
    (encoded as a non-retryable ``internal`` error) so ad-hoc callers
    cannot reintroduce free-form wire errors.
    """
    if not isinstance(error, ServiceError):
        error = ServiceError.internal(str(error))
    return json.dumps(
        {"id": request_id, "ok": False, "error": error.to_obj()},
        separators=(",", ":"),
    )


#: Exposition formats the ``{"op": "metrics"}`` request accepts.
METRICS_FORMATS = ("json", "prometheus")


def metrics_line(request_id, metrics_obj: dict, fmt: str = "json") -> str:
    """The response line for one ``{"op": "metrics"}`` request.

    ``fmt="json"`` carries the all-int mergeable snapshot verbatim
    (``"metrics"`` key) — exact over the wire, re-mergeable by an
    aggregator.  ``fmt="prometheus"`` carries the Prometheus text
    exposition of the same snapshot as one string (``"metrics_text"``),
    for scrapers that want the standard format.
    """
    from ..obs.metrics import render_prometheus

    if fmt not in METRICS_FORMATS:
        raise ProtocolError(
            f"metrics format must be one of {list(METRICS_FORMATS)}, got {echo(fmt)}"
        )
    if fmt == "prometheus":
        payload = {"id": request_id, "ok": True,
                   "metrics_text": render_prometheus(metrics_obj)}
    else:
        payload = {"id": request_id, "ok": True, "metrics": metrics_obj}
    return json.dumps(payload, separators=(",", ":"))
