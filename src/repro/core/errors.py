"""Exception hierarchy for the repro package.

Every failure mode raised by the library derives from :class:`ReproError`, so
callers can distinguish library errors from programming errors.  Validators
raise :class:`InfeasibleScheduleError` with a precise human-readable reason;
the algorithms raise :class:`ConstructionError` only if an internal invariant
proven in the paper is violated (i.e. a bug, never an expected condition).
:func:`echo` bounds the refused value an error message quotes.
"""

from __future__ import annotations

from numbers import Rational
from typing import Callable

#: The longest value text an error message echoes whole.
ECHO_MAX = 200


def echo(value, fmt: Callable[[object], str] = repr) -> str:
    """The ``got …`` part of an error message about a refused value, bounded.

    ``fmt(value)`` (default ``repr``) is kept as it is up to
    :data:`ECHO_MAX` characters; a longer one is cut to that prefix plus
    ``...`` and the value's entry count (its length in characters when
    it has no entries), so a refused value of megabytes gets a one-line
    message (a service ``bad_request`` among them).  A value Python will
    not print (an int, or a ``Fraction`` term, past
    ``sys.get_int_max_str_digits()`` digits, or a container of one) is
    quoted by its size: ``<negative int of 16610 bits>``.
    """
    try:
        text = fmt(value)
    except ValueError:
        return _by_size(value)
    if len(text) <= ECHO_MAX:
        return text
    if isinstance(value, (list, tuple, dict)):
        return f"{text[:ECHO_MAX]}... ({len(value)} entries)"
    return f"{text[:ECHO_MAX]}... ({len(text)} characters)"


def _by_size(value) -> str:
    kind = type(value).__name__
    if not isinstance(value, Rational):  # a container
        return f"<{kind} of {len(value)} entries>"
    sign = "negative " if value < 0 else ""
    den = "" if value.denominator == 1 else f"/{value.denominator.bit_length()}"
    return f"<{sign}{kind} of {value.numerator.bit_length()}{den} bits>"


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidInstanceError(ReproError, ValueError):
    """The scheduling instance violates the paper's model assumptions."""


class InfeasibleScheduleError(ReproError):
    """A schedule failed feasibility validation.

    Attributes
    ----------
    reason:
        Machine-readable tag of the violated rule (e.g. ``"overlap"``,
        ``"setup-missing"``, ``"job-parallel"``).
    detail:
        Human-readable description including machine/job/time coordinates.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"[{reason}] {detail}" if detail else reason)


class ConstructionError(ReproError, AssertionError):
    """An algorithm's internal invariant was violated (library bug).

    The dual constructions in the paper are proven to succeed whenever the
    corresponding acceptance test passes; hitting this exception therefore
    indicates an implementation error, not an unfortunate input.
    """


class RejectedMakespanError(ReproError):
    """A dual approximation was asked to build a schedule for a rejected T."""
