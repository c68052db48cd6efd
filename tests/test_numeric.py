"""Unit tests for the exact numeric helpers (repro.core.numeric, and the
integer ceiling every scaled-int kernel uses, repro.core.fastnum.ceil_div)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fastnum import ceil_div
from repro.core.numeric import as_time, frac_ceil, frac_floor, time_str


class TestAsTime:
    def test_int(self):
        assert as_time(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(7, 2)
        assert as_time(f) is f

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_time(0.5)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            as_time("3")

    def test_bool_is_int(self):
        # bools are ints in Python; accepting them is harmless.
        assert as_time(True) == 1


class TestCeilDiv:
    @pytest.mark.parametrize(
        "num,den,expected",
        [(0, 1, 0), (1, 1, 1), (5, 2, 3), (4, 2, 2), (-1, 2, 0), (-3, 2, -1), (7, 3, 3)],
    )
    def test_values(self, num, den, expected):
        assert ceil_div(num, den) == expected

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_matches_math(self, num, den):
        import math

        assert ceil_div(num, den) == math.ceil(Fraction(num, den))


class TestFracCeilFloor:
    @pytest.mark.parametrize(
        "x,cl,fl",
        [
            (Fraction(7, 2), 4, 3),
            (Fraction(-7, 2), -3, -4),
            (Fraction(4), 4, 4),
            (3, 3, 3),
            (Fraction(0), 0, 0),
        ],
    )
    def test_values(self, x, cl, fl):
        assert frac_ceil(x) == cl
        assert frac_floor(x) == fl

    @given(st.fractions())
    def test_sandwich(self, x):
        assert frac_floor(x) <= x <= frac_ceil(x)
        assert frac_ceil(x) - frac_floor(x) in (0, 1)


class TestTimeStr:
    def test_integer(self):
        assert time_str(Fraction(4)) == "4"

    def test_fraction(self):
        assert time_str(Fraction(7, 2)) == "7/2"

    def test_int_input(self):
        assert time_str(5) == "5"
