"""Exception hierarchy for the repro package.

Every failure mode raised by the library derives from :class:`ReproError`, so
callers can distinguish library errors from programming errors.  Validators
raise :class:`InfeasibleScheduleError` with a precise human-readable reason;
the algorithms raise :class:`ConstructionError` only if an internal invariant
proven in the paper is violated (i.e. a bug, never an expected condition).
:func:`echo` bounds the refused value an error message quotes.
"""

from __future__ import annotations

from typing import Optional

#: The longest value text an error message echoes whole.
ECHO_MAX = 200


def echo(value, text: Optional[str] = None) -> str:
    """The ``got …`` part of an error message about a refused value, bounded.

    ``text`` (default ``repr(value)``) is kept as it is up to
    :data:`ECHO_MAX` characters; a longer one is cut to that prefix plus
    ``...`` and the value's entry count (its length in characters when
    it has no entries), so a refused value of megabytes gets a one-line
    message (a service ``bad_request`` among them).
    """
    if text is None:
        text = repr(value)
    if len(text) <= ECHO_MAX:
        return text
    if isinstance(value, (list, tuple, dict)):
        return f"{text[:ECHO_MAX]}... ({len(value)} entries)"
    return f"{text[:ECHO_MAX]}... ({len(text)} characters)"


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
