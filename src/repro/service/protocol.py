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
solve, so a longer list is a ``bad_request``.
``bounds_only`` (equivalently ``"schedules": false``) resolves the
certified ``T*``/ratio/lower-bound certificate without constructing a
schedule.  Housekeeping ops: ``{"op": "ping"}``, ``{"op": "stats"}``,
``{"op": "metrics", "format": "json"|"prometheus"}`` (counters and
per-stage latency histograms, see :mod:`repro.obs.metrics`) and
``{"op": "shutdown"}`` (acknowledges, then closes the connection).

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
from typing import Optional, Union

from ..algos.api import SolveResult
from ..algos.batch_api import BatchItem, SweepPoint, _validate_request
from ..core.bounds import Variant
from ..core.errors import InvalidInstanceError
from ..core.instance import Instance

__all__ = [
    "ECHO_MAX",
    "EPS_MIN",
    "ERROR_CODES",
    "METRICS_FORMATS",
    "MS_MAX",
    "ProtocolError",
    "ServiceError",
    "SolveRequest",
    "TIMEOUT_MS_MAX",
    "echo",
    "encode_time",
    "parse_time",
    "instance_to_obj",
    "instance_from_obj",
    "request_from_obj",
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


#: The longest value text a ``bad_request`` message echoes whole.
ECHO_MAX = 200


def echo(value, text: Optional[str] = None) -> str:
    """The ``got …`` part of a ``bad_request`` message, bounded.

    ``text`` (default ``repr(value)``) is kept as it is up to
    :data:`ECHO_MAX` characters; a longer one is cut to that prefix plus
    ``...`` and the value's entry count (its length in characters when
    it has no entries), so a rejected line of megabytes gets a one-line
    answer.
    """
    if text is None:
        text = repr(value)
    if len(text) <= ECHO_MAX:
        return text
    if isinstance(value, (list, tuple, dict)):
        return f"{text[:ECHO_MAX]}... ({len(value)} entries)"
    return f"{text[:ECHO_MAX]}... ({len(text)} characters)"


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


def instance_from_obj(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ProtocolError(f"instance must be an object, got {echo(obj)}")
    m = obj.get("m")
    if not isinstance(m, int) or isinstance(m, bool):
        raise ProtocolError(f"instance.m must be an int, got {echo(m)}")
    setups = _int_list(obj.get("setups"), "instance.setups")
    jobs_obj = obj.get("jobs")
    if not isinstance(jobs_obj, list):
        raise ProtocolError(f"instance.jobs must be a list of lists, got {echo(jobs_obj)}")
    if not (
        _LIST.issuperset(map(type, jobs_obj))
        and _INT.issuperset(map(type, chain.from_iterable(jobs_obj)))
    ):
        for i, ts in enumerate(jobs_obj):
            _int_list(ts, f"instance.jobs[{i}]")
    try:
        return Instance(m=m, setups=tuple(setups), jobs=tuple(map(tuple, jobs_obj)))
    except InvalidInstanceError as exc:
        raise ProtocolError(f"invalid instance: {echo(exc, str(exc))}") from None


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

#: The largest ``timeout_ms`` a request may carry: one day.  The engine
#: turns the budget into seconds as a float, which an unbounded int
#: overflows.
TIMEOUT_MS_MAX = 86_400_000


@dataclass(frozen=True)
class SolveRequest:
    """One validated service request (the in-process submit unit).

    ``schedules=False`` is the bounds-only mode; ``ms`` makes the request
    a machine sweep.  ``id`` is the caller's correlation value, echoed on
    the response line (``None`` for in-process use).  ``timeout_ms``
    (optional) is the request's total deadline budget — queue wait plus
    solve time; an expired request resolves as a structured ``timeout``
    error instead of an answer.
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


def request_from_obj(obj) -> SolveRequest:
    """Parse and validate one ``op: solve`` request object.

    Everything checked here raises :class:`ProtocolError` (malformed
    JSON shapes) or ``ValueError`` (bad variant/algorithm names, via the
    batch engine's up-front validation) before any solving starts.
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
    instance = instance_from_obj(obj["instance"])

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
    if ms is not None:
        ms = tuple(_int_list(ms, "ms"))
        if len(ms) > MS_MAX:
            raise ProtocolError(f"ms may hold at most {MS_MAX} machine counts")
        if not ms or any(m < 1 for m in ms):
            raise ProtocolError(
                f"ms must be a non-empty list of positive ints, got {echo(list(ms))}"
            )

    eps = obj.get("eps")
    eps = Fraction(1, 100) if eps is None else parse_time(eps, "eps")
    if eps <= 0:
        raise ProtocolError(f"eps must be positive, got {echo(eps, str(eps))}")
    if eps < EPS_MIN:
        raise ProtocolError("eps must be at least 1/2**64")

    timeout_ms = obj.get("timeout_ms")
    if timeout_ms is not None and (
        not isinstance(timeout_ms, int) or isinstance(timeout_ms, bool)
        or timeout_ms < 1
    ):
        raise ProtocolError(
            f"timeout_ms must be a positive int (milliseconds), got {echo(timeout_ms)}"
        )
    if timeout_ms is not None and timeout_ms > TIMEOUT_MS_MAX:
        raise ProtocolError(f"timeout_ms may be at most {TIMEOUT_MS_MAX} (one day)")

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
