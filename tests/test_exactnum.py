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
from gridhit.geometry import Ball, Box, Cube, GridSpec, fit

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


# An independent reference: a value a + b*sqrt(s) as a pair (a, b) of
# Fractions over one radical s, with the textbook field formulas.
BIG_RADICAND_ROOT = 10**6 + 3  # s * root**2 is past 10**12


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y, s):
    return x[0] * y[0] + x[1] * y[1] * s, x[0] * y[1] + x[1] * y[0]


def ref_div(x, y, s):
    norm = y[0] * y[0] - y[1] * y[1] * s
    return ((x[0] * y[0] - x[1] * y[1] * s) / norm,
            (x[1] * y[0] - x[0] * y[1]) / norm)


def ref_sign(x, s):
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        return 1 if a >= 0 or a * a < b * b * s else -1
    return -1 if a <= 0 or a * a < b * b * s else 1


def ref_floor(x, s):
    """The largest n with n <= a + b*sqrt(s), by stepping from an
    estimate with the exact test n - a <= b*sqrt(s)."""
    a, b = x
    if b == 0:
        return math.floor(a)

    def at_most(n):
        return ref_sign((a - n, b), s) >= 0

    root = math.isqrt(math.floor(b * b * s))
    n = math.floor(a) + (root if b > 0 else -root)
    while not at_most(n):
        n -= 1
    while at_most(n + 1):
        n += 1
    return n


@st.composite
def operands(draw, s):
    """(operand, its reference pair over sqrt(s)): an int, a Fraction, or
    a SqrtExt over s or over s * root**2, at scales up to 2**1100."""
    kind = draw(st.sampled_from(["int", "fraction", "sqrt", "big_radicand"]))
    a = draw(rationals) * draw(scales)
    b = draw(rationals.filter(bool)) * draw(scales)
    if kind == "int":
        n = math.floor(a)
        return n, (Fraction(n), Fraction(0))
    if kind == "fraction":
        return a, (a, Fraction(0))
    if kind == "sqrt":
        return SqrtExt(a, b, s), (a, b)
    # sqrt(s * root**2) = root * sqrt(s)
    return (SqrtExt(a, b, s * BIG_RADICAND_ROOT ** 2),
            (a, b * BIG_RADICAND_ROOT))


def as_pair(z, s):
    """The result z as a reference pair over sqrt(s), after asserting its
    normal form: a Fraction when rational, else q > 0, m != 0 and
    gcd(p, m, q) == 1 over s or s * root**2."""
    if not isinstance(z, SqrtExt):
        assert isinstance(z, Fraction)
        return z, Fraction(0)
    assert z.q > 0 and z.m != 0 and math.gcd(z.p, z.m, z.q) == 1
    assert all(type(v) is int for v in (z.p, z.m, z.q, z.s))
    if z.s == s:
        return z.a, z.b
    assert z.s == s * BIG_RADICAND_ROOT ** 2
    return z.a, z.b * BIG_RADICAND_ROOT


class TestAgainstReference:
    """Every operator, in both operand orders, gives exactly the value of
    the reference formulas on (a, b) pairs."""

    @given(st.data(), radicands)
    def test_arithmetic(self, data, s):
        x, rx = data.draw(operands(s))
        y, ry = data.draw(operands(s))
        if not (isinstance(x, SqrtExt) or isinstance(y, SqrtExt)):
            return
        assert as_pair(x + y, s) == ref_add(rx, ry)
        assert as_pair(y + x, s) == ref_add(ry, rx)
        assert as_pair(x - y, s) == ref_sub(rx, ry)
        assert as_pair(y - x, s) == ref_sub(ry, rx)
        assert as_pair(x * y, s) == ref_mul(rx, ry, s)
        assert as_pair(y * x, s) == ref_mul(ry, rx, s)
        for num, den, rnum, rden in [(x, y, rx, ry), (y, x, ry, rx)]:
            if rden == (0, 0):
                with pytest.raises(ZeroDivisionError):
                    num / den
            else:
                assert as_pair(num / den, s) == ref_div(rnum, rden, s)
        if isinstance(x, SqrtExt):
            assert as_pair(-x, s) == (-rx[0], -rx[1])

    @given(st.data(), radicands)
    def test_order_equality_and_hash(self, data, s):
        x, rx = data.draw(operands(s))
        y, ry = data.draw(operands(s))
        if not (isinstance(x, SqrtExt) or isinstance(y, SqrtExt)):
            return
        sign = ref_sign(ref_sub(rx, ry), s)
        assert (x < y, x == y, x > y) == (sign < 0, sign == 0, sign > 0)
        assert (y < x, y == x, y > x) == (sign > 0, sign == 0, sign < 0)
        assert (x <= y, x >= y) == (sign <= 0, sign >= 0)
        # The same value over s and over s * root**2 hashes alike.
        a, b = rx
        if b:
            over_s = SqrtExt(a, b, s)
            over_big = SqrtExt(a, b / BIG_RADICAND_ROOT,
                               s * BIG_RADICAND_ROOT ** 2)
            assert over_s == over_big == x
            assert hash(over_s) == hash(over_big) == hash(x)
        if sign == 0:
            assert hash(x) == hash(y)

    @given(st.data(), radicands)
    def test_floor_and_ceil(self, data, s):
        x, rx = data.draw(operands(s))
        n = ref_floor(rx, s)
        assert math.floor(x) == n
        assert math.ceil(x) == (n if rx[1] == 0 and n == rx[0] else n + 1)


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
            lambda: fit(Cube((1, 1), 2), Cube((0, 0), 1), Cube((0, 0), 1.5)),
            lambda: fit(Cube((1, 1), 2), Cube((0, 0), 1), Cube((0.5, 0), 1)),
            lambda: EngineState(grid, 1.5),
            lambda: harness.gen_random(2, 16, 1.5, ("cube",), 2, seed=1),
            lambda: harness.gen_random(2, 16, 1, ("cube",), 2, seed=1,
                                       min_width=1.1),
            lambda: harness.run_adversary(2, 16, "box", aspect=(1, 1.5)),
        ]
        for entry in entries:
            with pytest.raises(TypeError, match="float"):
                entry()

    def test_constructor_checks_its_arguments(self):
        # The public constructor is the one checked entry: a float or a
        # bool part, a non-int radicand, a square radicand or b == 0 would
        # break the exact layer or the "SqrtExt is irrational" rule.
        F = Fraction
        for a, b, s in [(F(1), F(1), 2.0), (1.0, 1, 2), (1, 0.5, 2),
                        (True, 1, 2), (1, False, 2), (1, 1, True),
                        (1, 1, F(2)), (1, 1, "2")]:
            with pytest.raises(TypeError):
                SqrtExt(a, b, s)
        for a, b, s in [(F(0), F(0), 2), (F(0), F(1), 4), (1, 1, 1),
                        (1, 1, 0), (1, 1, -3), (1, 1, 10**24)]:
            with pytest.raises(ValueError):
                SqrtExt(a, b, s)
        with pytest.raises(TypeError):
            Ball((SqrtExt(F(1), F(1), 2.0), 5), 2)
        assert SqrtExt(F(3, 4), 2, 8) == F(3, 4) + 4 * sqrt_exact(2)

    def test_bools_rejected_at_every_entry(self):
        # bool is an int subclass; True must not pass as 1.
        grid = GridSpec(2, 16)
        entries = [
            lambda: Cube((True, 1), 2), lambda: Cube((1, 1), True),
            lambda: Ball((True, 1), 1), lambda: Ball((1, 1), True),
            lambda: Box((True, 1), (1, 1)), lambda: Box((1, 1), (1, True)),
            lambda: fit(Cube((1, 1), 2), Cube((0, 0), 1), Cube((0, 0), True)),
            lambda: fit(Cube((1, 1), 2), Cube((0, 0), 1), Cube((True, 0), 1)),
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
