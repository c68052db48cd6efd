"""Exact rational time arithmetic — the boundary tier of the numeric model.

The paper's inputs are natural numbers, but the algorithms manipulate
fractional quantities throughout: makespan guesses ``T = L/m``, class-jump
points ``2P_i/k``, half-lines ``T/2``, and the continuous-knapsack fraction
``(x_cks)_e``.  Floating point would blur the accept/reject boundary of the
dual tests and the exact start/end times the validators check, so the
library is exact end to end — in **two tiers**:

* **Exact-rational boundary (this module).**  Everything user-visible —
  :class:`~repro.core.instance.Instance` inputs, ``SolveResult``,
  :class:`~repro.core.schedule.Schedule` placements, the validators, and
  the reference implementations of every dual test and construction —
  speaks :class:`fractions.Fraction`.  ``Time`` is an alias for it.  Use
  this tier whenever clarity or auditability beats speed: validators,
  tests, analysis, figures, and as the ground truth the fast tier is
  differential-tested against.

* **Scaled-integer kernel (:mod:`repro.core.fastnum`).**  The per-``T``
  hot paths — the Theorem 5/7/9 dual tests probed ``O(log)`` times per
  solve, the wrap engine, and the Algorithm-6 construction — carry ``T``
  as the integer pair ``(numerator, denominator)`` and pre-multiply every
  derived duration by the denominator, so comparisons become integer
  cross-multiplications and no Fraction objects are allocated in inner
  loops.  Times are divided back out (exactly) only where a placement or
  result object is materialized.  This tier is selected with the default
  ``kernel="fast"`` of :func:`repro.solve`; ``kernel="fraction"`` runs the
  boundary tier throughout.  Both are bit-identical — same accepts, same
  makespans — which ``tests/test_fastnum_differential.py`` asserts on
  every generator-suite instance.

A per-``T`` denominator (rather than a fixed per-solve scale such as
``D = 2m``) is what keeps the kernel exact: class-jump candidates
``2P_i/k`` have denominators ``k ≤ 2m`` that need not divide ``2m``, and
ε-search midpoints pick up powers of two.  Denominators stay word-sized in
practice, so kernel arithmetic is machine-int speed.

Only small helper utilities live here; they are deliberately boring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

#: Public alias used in signatures throughout the package.
Time = Fraction

#: Anything we are willing to coerce into a :class:`Time`.
TimeLike = Union[int, Fraction]


def as_time(value: TimeLike) -> Time:
    """Coerce ``value`` to an exact :class:`Time`.

    Floats are rejected on purpose: silently converting ``0.1`` to
    ``3602879701896397/36028797018963968`` produces exact-but-wrong
    boundaries.  Callers with float data should quantize explicitly.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}: {value!r}")


_new_fraction = object.__new__


def fast_fraction(num: int, den: int = 1) -> Fraction:
    """Normalized ``Fraction(num, den)`` without the constructor's dispatch.

    ``Fraction.__new__`` spends most of its time on type dispatch for a
    handful of input shapes; the materialization hot paths (the wrap
    engine, the Algorithm-6 item lists, the scaled-int view math) only
    ever divide a machine int by a positive machine-int scale.  This
    builds the identical canonical object directly.  Requires ``den > 0``
    — every kernel scale is a positive lcm, so callers satisfy this by
    construction.
    """
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
    f = _new_fraction(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def frac_ceil(x: TimeLike) -> int:
    """Exact ceiling of a rational."""
    x = as_time(x)
    return -((-x.numerator) // x.denominator)


def frac_floor(x: TimeLike) -> int:
    """Exact floor of a rational."""
    x = as_time(x)
    return x.numerator // x.denominator


def time_str(x: TimeLike) -> str:
    """Compact human-readable rendering (``7/2`` rather than ``Fraction(7, 2)``)."""
    x = as_time(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
