"""Exact scalar arithmetic for the geometric predicates.

Every width, coordinate and fatness value in this package is an exact
scalar: an int, a Fraction, or a SqrtExt value ``a + b*sqrt(s)`` with
rational a, b and integer s.  Shapes store theirs once, as numerators
over one int denominator (see ``geometry``): a plain int for a rational
value, and a SqrtExt with integral a and b otherwise, so rational shapes
compute in ints and Fractions appear only where values enter or leave.
The extension field shows up naturally: the
fatness of a d-ball is sqrt(d), and the largest axis-parallel cube
inscribed in a ball has corners involving sqrt(d).  Keeping those values exact is what
makes open-set membership and the game recurrences deterministic; floats
never enter a predicate.

Values of SqrtExt are normalized so that a genuinely rational result is
always returned as a plain Fraction: b is never 0, and s is an int
that is not a perfect square (``sqrt_exact`` strips its square factors,
and arithmetic keeps the left operand's s).  Consequently a SqrtExt is always
irrational and never compares equal to a rational, and its floor is
computed from ``isqrt`` on integers.  Every scalar is rounded with
``math.floor``/``math.ceil``, which dispatch to these exact methods; as
those also accept a float, floats (and bools) are rejected where values
enter (``as_scalar``), not where they are rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Union

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "SqrtExt"]

_SQUAREFREE_LIMIT = 10**12
_SMALL_PRIME_LIMIT = 10**4


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _square_free(n: int) -> tuple[int, int]:
    """Split n > 0 as root**2 * rest with rest square-free (best effort).

    Below 10**12 trial division is complete.  Above it only the squares
    of divisors up to 10**4 are stripped, then a perfect-square cofactor,
    so a small square factor never changes the radicand.
    """
    small = n < _SQUAREFREE_LIMIT
    root, rest, p = 1, n, 2
    while p * p <= rest and (small or p <= _SMALL_PRIME_LIMIT):
        sq = p * p
        while rest % sq == 0:
            rest //= sq
            root *= p
        p += 1 if p == 2 else 2
    r = isqrt(rest)
    if r * r == rest:
        return root * r, 1
    return root, rest


def sqrt_exact(x: Rational) -> Scalar:
    """Exact square root of a non-negative rational.

    Returns a Fraction when x is a perfect square, otherwise a SqrtExt.
    """
    x = _as_fraction(x)
    if x < 0:
        raise ValueError("square root of a negative value")
    if x == 0:
        return Fraction(0)
    rn, sn = _square_free(x.numerator)
    rd, sd = _square_free(x.denominator)
    # sqrt(x) = (rn/rd) * sqrt(sn/sd) = (rn/(rd*sd)) * sqrt(sn*sd)
    coeff = Fraction(rn, rd * sd)
    radicand = sn * sd
    if radicand == 1:
        return coeff
    return SqrtExt(Fraction(0), coeff, radicand)


def _make(a: Fraction, b: Fraction, s: int) -> Scalar:
    """Build a normalized scalar a + b*sqrt(s).  Every caller passes an
    operand's s, already a non-square integer, so only b == 0 folds."""
    return SqrtExt(a, b, s) if b else a


class SqrtExt:
    """An irrational value a + b*sqrt(s): a, b Fractions, b != 0, and s
    an int (never a Fraction) that is not a perfect square."""

    __slots__ = ("a", "b", "s")

    def __init__(self, a: Fraction, b: Fraction, s: int):
        # Assumes the caller (``_make``/``sqrt_exact``) already normalized.
        self.a = a
        self.b = b
        self.s = s

    def _parts_with(self, other) -> tuple[Fraction, Fraction]:
        """Coerce other to (a, b) coefficients over this value's radical.

        Past 10**12 ``sqrt_exact`` may keep a square factor in the radicand,
        so equal radicals can carry different s; when s1*s2 = r**2,
        sqrt(s2) = (r/s1)*sqrt(s1).  Other radicand pairs are unsupported.
        """
        if isinstance(other, SqrtExt):
            if other.s == self.s:
                return other.a, other.b
            r = isqrt(self.s * other.s)
            if r * r != self.s * other.s:
                raise ValueError(
                    f"mixed radicals sqrt({self.s}) and sqrt({other.s}) are unsupported")
            return other.a, other.b * r / self.s
        if isinstance(other, (int, Fraction)):
            return _as_fraction(other), Fraction(0)
        raise TypeError(f"unsupported operand type {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            oa, ob = self._parts_with(other)
        except TypeError:
            return NotImplemented
        return _make(self.a + oa, self.b + ob, self.s)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            oa, ob = self._parts_with(other)
        except TypeError:
            return NotImplemented
        return _make(self.a - oa, self.b - ob, self.s)

    def __rsub__(self, other):
        try:
            oa, ob = self._parts_with(other)
        except TypeError:
            return NotImplemented
        return _make(oa - self.a, ob - self.b, self.s)

    def __mul__(self, other):
        try:
            oa, ob = self._parts_with(other)
        except TypeError:
            return NotImplemented
        return _make(self.a * oa + self.b * ob * self.s,
                     self.a * ob + self.b * oa, self.s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            oa, ob = self._parts_with(other)
        except TypeError:
            return NotImplemented
        # Multiply by the conjugate; the norm is a nonzero rational.
        norm = oa * oa - ob * ob * self.s
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _make((self.a * oa - self.b * ob * self.s) / norm,
                     (self.b * oa - self.a * ob) / norm, self.s)

    def __rtruediv__(self, other):
        try:
            oa, ob = self._parts_with(other)
        except TypeError:
            return NotImplemented
        norm = self.a * self.a - self.b * self.b * self.s
        # norm == 0 would force a = b = 0, excluded by normalization.
        return _make((oa * self.a - ob * self.b * self.s) / norm,
                     (ob * self.a - oa * self.b) / norm, self.s)

    def __neg__(self):
        return SqrtExt(-self.a, -self.b, self.s)

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out: Scalar = Fraction(1)
        for _ in range(n):
            out = self * out
        return out

    # -- comparisons --------------------------------------------------------

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b > 0:
            if a >= 0:
                return 1
            return 1 if a * a < b * b * self.s else -1
        # b < 0 (b == 0 excluded by normalization)
        if a <= 0:
            return -1
        return 1 if a * a > b * b * self.s else -1

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, SqrtExt):
            return diff._sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        # b*sqrt(s) is fixed by its sign and b*b*s, whatever square factor
        # s still carries.
        if isinstance(other, SqrtExt):
            if self.s == other.s:
                return self.a == other.a and self.b == other.b
            return (self.a == other.a and (self.b > 0) == (other.b > 0) and
                    self.b * self.b * self.s == other.b * other.b * other.s)
        if isinstance(other, (int, Fraction)):
            return False  # a normalized SqrtExt is irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b * self.b * self.s, self.b > 0))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions --------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.s) ** 0.5

    def __floor__(self):
        # The value is (p + m*sqrt(s))/q with integers p, m, q > 0, and
        # |m|*sqrt(s) lies strictly between r and r + 1 as m*m*s is not a
        # square; no multiple of q lies strictly inside such a unit gap.
        q = lcm(self.a.denominator, self.b.denominator)
        p, m = int(self.a * q), int(self.b * q)
        r = isqrt(m * m * self.s)
        return (p + r) // q if m > 0 else (p - r - 1) // q

    def __ceil__(self):
        return -((-self).__floor__())

    def __repr__(self):
        return f"SqrtExt({self.a!r}, {self.b!r}, {self.s!r})"

    def __str__(self):
        return f"{self.a}{'+' if self.b >= 0 else ''}{self.b}*sqrt({self.s})"


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def as_scalar(x) -> Scalar:
    """Coerce to an exact scalar (floats and bools are rejected).

    Ints are mapped to Fractions so that later divisions stay exact.
    """
    return x if isinstance(x, SqrtExt) else _as_fraction(x)
