"""Exact scalar arithmetic: field identities, ordering, floors."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gridhit import harness
from gridhit.engine import EngineState

from gridhit.exactnum import (
    SqrtExt,
    as_scalar,
    sqrt_exact,
)
from gridhit.geometry import Ball, Box, Cube, GridSpec, dilate

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10])
# Scales up to 2**1100 put values far beyond the range of a float.
scales = st.one_of(st.just(1), st.integers(60, 1100).map(lambda k: 2 ** k))


def value(a, b, s):
    return a + b * sqrt_exact(s)


class TestSqrtExact:
    def test_perfect_squares_fold_to_rationals(self):
        assert sqrt_exact(4) == 2
        assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
        assert sqrt_exact(0) == 0
        assert sqrt_exact(1) == 1

    def test_square_factor_extraction(self):
        v = sqrt_exact(8)
        assert isinstance(v, SqrtExt) and v.s == 2 and v.b == 2
        assert sqrt_exact(8) == 2 * sqrt_exact(2)
        assert sqrt_exact(Fraction(1, 2)) == sqrt_exact(2) / 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_exact(-1)

    @given(radicands)
    def test_square_roundtrip(self, s):
        root = sqrt_exact(s)
        assert root * root == s

    def test_irrational_never_equals_rational(self):
        assert sqrt_exact(2) != Fraction(141421356, 100000000)
        assert not (sqrt_exact(2) == 1)

    def test_small_square_factor_of_a_large_radicand(self):
        # Past 10**12 trial division stops at 10**4, yet 4*p must keep p's
        # radicand, or sums of the two mix radicals.
        p = 10**12 + 39
        assert sqrt_exact(4 * p) == 2 * sqrt_exact(p)
        assert sqrt_exact(4 * p) + sqrt_exact(p) == 3 * sqrt_exact(p)
        assert sqrt_exact(Fraction(p, 9 * 10**12)) == sqrt_exact(p) / (3 * 10**6)

    def test_large_perfect_square_cofactor(self):
        q = 10**6 + 3
        assert sqrt_exact(25 * q * q) == 5 * q
        v = sqrt_exact(8 * 10**12)
        assert isinstance(v, SqrtExt) and v.s == 2 and v.b == 2 * 10**6


class TestFieldArithmetic:
    @given(rationals, rationals, rationals, rationals, radicands)
    def test_add_sub_roundtrip(self, a, b, c, d, s):
        x, y = value(a, b, s), value(c, d, s)
        assert (x + y) - y == x

    @given(rationals, rationals, rationals, rationals, radicands)
    def test_mul_div_roundtrip(self, a, b, c, d, s):
        x, y = value(a, b, s), value(c, d, s)
        if y == 0:
            return
        assert (x * y) / y == x

    @given(rationals, rationals, radicands)
    def test_float_agrees(self, a, b, s):
        x = value(a, b, s)
        approx = float(a) + float(b) * math.sqrt(s)
        assert float(x) == pytest.approx(approx, rel=1e-12, abs=1e-12)

    @given(rationals, rationals, rationals, rationals, radicands)
    def test_ordering_matches_floats(self, a, b, c, d, s):
        x, y = value(a, b, s), value(c, d, s)
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-6:
            assert (x < y) == (fx < fy)
        assert (x < y) + (x == y) + (x > y) == 1

    def test_mixed_radicals_rejected(self):
        with pytest.raises(ValueError):
            sqrt_exact(2) + sqrt_exact(3)

    def test_large_square_factor_left_in_the_radicand(self):
        # Past 10**12 the square of q stays in the radicand 2*q*q; the
        # value is still 5*q*sqrt(2), and mixes with sqrt(2).
        q = 10**6 + 3
        x = sqrt_exact(50 * q * q)
        assert x.s == 2 * q * q
        assert x == 5 * q * sqrt_exact(2)
        assert hash(x) == hash(5 * q * sqrt_exact(2))
        total = x + sqrt_exact(2)
        assert total == (5 * q + 1) * sqrt_exact(2)
        assert hash(total) == hash((5 * q + 1) * sqrt_exact(2))
        assert sqrt_exact(2) + x == total
        assert x - 5 * q * sqrt_exact(2) == 0
        assert x * sqrt_exact(2) == 10 * q
        assert x != -5 * q * sqrt_exact(2)

    @given(rationals, rationals, rationals, rationals, radicands)
    def test_results_keep_the_radicand(self, a, b, c, d, s):
        x, y = value(a, b, s), value(c, d, s)
        results = [x + y, x - y, x * y] + ([x / y] if y != 0 else [])
        for z in results:
            if isinstance(z, SqrtExt):
                assert z.s == s and z.b != 0
            else:
                assert isinstance(z, Fraction)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            sqrt_exact(2) / 0

    def test_conjugate_division(self):
        x = 1 + sqrt_exact(2)
        assert 1 / x == sqrt_exact(2) - 1

    def test_pow(self):
        r2 = sqrt_exact(2)
        v = (4 * r2 + 1) ** 2
        assert v == 33 + 8 * r2
        assert (4 * r2 + 1) ** 0 == 1

    def test_abs_and_neg(self):
        x = 1 - sqrt_exact(2)
        assert x < 0
        assert abs(x) == sqrt_exact(2) - 1


class TestFloors:
    @given(rationals, rationals, radicands, scales, scales)
    def test_scalar_floor_is_tight(self, a, b, s, scale_a, scale_b):
        x = value(a * scale_a, b * scale_b, s)
        n = math.floor(x)
        assert n <= x < n + 1
        m = math.ceil(x)
        assert m - 1 < x <= m

    def test_known_floors(self):
        assert math.floor(8 * sqrt_exact(2)) == 11
        assert math.floor(33 + 8 * sqrt_exact(2)) == 44
        assert math.floor(-sqrt_exact(2)) == -2
        assert math.ceil(-sqrt_exact(2)) == -1
        assert math.floor(Fraction(-7, 2)) == -4
        big = 2 ** 1100
        assert math.floor(big + sqrt_exact(2)) == big + 1
        assert math.ceil(big + sqrt_exact(2)) == big + 2
        assert math.floor(-big - sqrt_exact(2)) == -big - 2
        assert math.floor(big * sqrt_exact(2)) == math.isqrt(2 * big * big)
        assert math.floor(-big * sqrt_exact(2)) == -math.isqrt(2 * big * big) - 1
        assert math.floor((big + sqrt_exact(3)) / 3) == (big + 1) // 3

    def test_cap_values_for_common_fatness(self):
        # floor((4*fatness+1)**d) for the shipped fatness values
        assert math.floor((4 * Fraction(1) + 1) ** 2) == 25
        assert math.floor((4 * sqrt_exact(2) + 1) ** 2) == 44
        # (4*sqrt(3)+1)**3 = 145 + 204*sqrt(3) ~ 498.37
        assert (4 * sqrt_exact(3) + 1) ** 3 == 145 + 204 * sqrt_exact(3)
        assert math.floor((4 * sqrt_exact(3) + 1) ** 3) == 498


class TestCoercion:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_scalar(1.5)
        with pytest.raises(TypeError):
            sqrt_exact(2) + 0.5

    def test_floats_rejected_at_every_entry(self):
        # math.floor takes a float, so no float may get past the entry
        # points to reach a floor.
        grid = GridSpec(2, 16)
        entries = [
            lambda: Cube((1.5, 1), 2), lambda: Cube((1, 1), 2.0),
            lambda: Ball((1.0, 1), 1), lambda: Ball((1, 1), 0.5),
            lambda: Box((1.0, 1), (1, 1)), lambda: Box((1, 1), (1, 1.5)),
            lambda: dilate(Cube((1, 1), 2), 1.5, (0, 0)),
            lambda: dilate(Cube((1, 1), 2), 1, (0.5, 0)),
            lambda: EngineState(grid, 1.5),
            lambda: harness.gen_random(2, 16, 1.5, ("cube",), 2, seed=1),
            lambda: harness.gen_random(2, 16, 1, ("cube",), 2, seed=1,
                                       min_width=1.1),
            lambda: harness.run_adversary(2, 16, "box", aspect=(1, 1.5)),
        ]
        for entry in entries:
            with pytest.raises(TypeError, match="float"):
                entry()

    def test_bools_rejected_at_every_entry(self):
        # bool is an int subclass; True must not pass as 1.
        grid = GridSpec(2, 16)
        entries = [
            lambda: Cube((True, 1), 2), lambda: Cube((1, 1), True),
            lambda: Ball((True, 1), 1), lambda: Ball((1, 1), True),
            lambda: Box((True, 1), (1, 1)), lambda: Box((1, 1), (1, True)),
            lambda: dilate(Cube((1, 1), 2), True, (0, 0)),
            lambda: dilate(Cube((1, 1), 2), 1, (True, 0)),
            lambda: EngineState(grid, True),
            lambda: sqrt_exact(True),
            lambda: as_scalar(False),
            lambda: harness.gen_random(2, 16, True, ("cube",), 2, seed=1),
            lambda: harness.gen_random(2, 16, 1, ("cube",), 2, seed=1,
                                       min_width=True),
            lambda: harness.run_adversary(2, 16, "box", aspect=(True, 2)),
        ]
        for entry in entries:
            with pytest.raises(TypeError, match="bool"):
                entry()

    def test_int_becomes_fraction(self):
        v = as_scalar(3)
        assert isinstance(v, Fraction) and v == 3

    def test_hash_consistent_with_eq(self):
        assert hash(sqrt_exact(8)) == hash(2 * sqrt_exact(2))

    def test_repr_and_str(self):
        v = 1 + sqrt_exact(2)
        assert "sqrt(2)" in str(v)
        assert eval(repr(v), {"SqrtExt": SqrtExt, "Fraction": Fraction}) == v
