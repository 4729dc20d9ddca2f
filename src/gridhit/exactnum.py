"""Exact scalar arithmetic for the geometric predicates.

Every width, coordinate and fatness value in this package is an exact
scalar: an int, a Fraction, or a SqrtExt value ``(p + m*sqrt(s))/q``
held as four ints.  Shapes store theirs once, as numerators over one
int denominator (see ``geometry``): a plain int for a rational value,
and a SqrtExt with q == 1 otherwise, so shapes compute in ints and
Fractions appear only where values enter or leave.
The extension field shows up naturally: the
fatness of a d-ball is sqrt(d), and the largest axis-parallel cube
inscribed in a ball has corners involving sqrt(d).  Keeping those values exact is what
makes open-set membership and the game recurrences deterministic; floats
never enter a predicate.

Values of SqrtExt are normalized so that a genuinely rational result is
always returned as a plain Fraction: m is never 0, q > 0 with
gcd(p, m, q) == 1, and s is an int that is not a perfect square
(``sqrt_exact`` strips its square factors, and arithmetic keeps the left
operand's s).  Consequently a SqrtExt is always irrational and never
compares equal to a rational, and its floor is computed from ``isqrt``
on integers.  Every scalar is rounded with ``math.floor``/``math.ceil``,
which dispatch to these exact methods; as those also accept a float,
floats (and bools) are rejected where values enter (``as_scalar`` and
the SqrtExt constructor), not where they are rounded.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
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
    radicand = sn * sd
    if radicand == 1:
        return Fraction(rn, rd)
    return _make(0, rn, rd * sd, radicand)


def _make(p: int, m: int, q: int, s: int) -> Scalar:
    """The normalized scalar (p + m*sqrt(s))/q, for ints with q != 0 and
    an operand's s, already a non-square int: a Fraction when m == 0,
    else a SqrtExt reduced by one gcd (skipped when q == 1)."""
    if not m:
        return Fraction(p, q)
    if q != 1:
        g = gcd(p, m, q)
        if q < 0:
            g = -g
        p, m, q = p // g, m // g, q // g
    x = object.__new__(SqrtExt)
    x.p, x.m, x.q, x.s = p, m, q, s
    return x


class SqrtExt:
    """An irrational value (p + m*sqrt(s))/q held as four ints: q > 0,
    m != 0, gcd(p, m, q) == 1, and s >= 2 not a perfect square.

    ``a`` and ``b`` give the rational parts p/q and m/q as Fractions,
    for output and the naive oracles.  The constructor is the checked
    entry; arithmetic builds its results with ``_make``.
    """

    __slots__ = ("p", "m", "q", "s")

    def __init__(self, a: Rational, b: Rational, s: int):
        a, b = _as_fraction(a), _as_fraction(b)
        if type(s) is not int:
            raise TypeError(f"radicand must be an int, got {type(s).__name__}")
        if s < 2 or isqrt(s) ** 2 == s:
            raise ValueError(f"radicand must be a non-square int >= 2, got {s}")
        if not b:
            raise ValueError("b must be nonzero; a rational value is a Fraction")
        # Over the lcm of the denominators the parts share no factor.
        q = lcm(a.denominator, b.denominator)
        self.p = a.numerator * (q // a.denominator)
        self.m = b.numerator * (q // b.denominator)
        self.q = q
        self.s = s

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.m, self.q)

    def _parts_with(self, other) -> tuple[int, int, int]:
        """Coerce other to int parts (p, m, q), q > 0, over this value's
        radical.

        Past 10**12 ``sqrt_exact`` may keep a square factor in the radicand,
        so equal radicals can carry different s; when s1*s2 = r**2,
        sqrt(s2) = (r/s1)*sqrt(s1).  Other radicand pairs are unsupported.
        """
        if isinstance(other, SqrtExt):
            if other.s == self.s:
                return other.p, other.m, other.q
            r = isqrt(self.s * other.s)
            if r * r != self.s * other.s:
                raise ValueError(
                    f"mixed radicals sqrt({self.s}) and sqrt({other.s}) are unsupported")
            return other.p * self.s, other.m * r, other.q * self.s
        if isinstance(other, int) and not isinstance(other, bool):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        raise TypeError(f"unsupported operand type {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            op, om, oq = self._parts_with(other)
        except TypeError:
            return NotImplemented
        q = self.q
        return _make(self.p * oq + op * q, self.m * oq + om * q, q * oq,
                     self.s)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            op, om, oq = self._parts_with(other)
        except TypeError:
            return NotImplemented
        q = self.q
        return _make(self.p * oq - op * q, self.m * oq - om * q, q * oq,
                     self.s)

    def __rsub__(self, other):
        try:
            op, om, oq = self._parts_with(other)
        except TypeError:
            return NotImplemented
        q = self.q
        return _make(op * q - self.p * oq, om * q - self.m * oq, q * oq,
                     self.s)

    def __mul__(self, other):
        try:
            op, om, oq = self._parts_with(other)
        except TypeError:
            return NotImplemented
        p, m, s = self.p, self.m, self.s
        return _make(p * op + m * om * s, p * om + m * op, self.q * oq, s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            op, om, oq = self._parts_with(other)
        except TypeError:
            return NotImplemented
        # Multiply by the conjugate; the norm is a nonzero rational.
        p, m, s = self.p, self.m, self.s
        norm = op * op - om * om * s
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _make(oq * (p * op - m * om * s), oq * (m * op - p * om),
                     self.q * norm, s)

    def __rtruediv__(self, other):
        try:
            op, om, oq = self._parts_with(other)
        except TypeError:
            return NotImplemented
        p, m, s = self.p, self.m, self.s
        # norm == 0 would force p = m = 0, excluded by normalization.
        norm = p * p - m * m * s
        return _make(self.q * (op * p - om * m * s), self.q * (om * p - op * m),
                     oq * norm, s)

    def __neg__(self):
        return _make(-self.p, -self.m, self.q, self.s)

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
        # The sign of p + m*sqrt(s), as q > 0.
        p, m = self.p, self.m
        if m > 0:
            if p >= 0:
                return 1
            return 1 if p * p < m * m * self.s else -1
        # m < 0 (m == 0 excluded by normalization)
        if p <= 0:
            return -1
        return 1 if p * p > m * m * self.s else -1

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, SqrtExt):
            return diff._sign()
        n = diff.numerator  # a rational difference is a Fraction
        return (n > 0) - (n < 0)

    def __eq__(self, other):
        # m*sqrt(s)/q is fixed by its sign and m*m*s/q**2, whatever square
        # factor s still carries.
        if isinstance(other, SqrtExt):
            if self.s == other.s:
                return (self.p == other.p and self.m == other.m
                        and self.q == other.q)
            q, oq = self.q, other.q
            return (self.p * oq == other.p * q
                    and (self.m > 0) == (other.m > 0)
                    and self.m * self.m * self.s * oq * oq
                    == other.m * other.m * other.s * q * q)
        if isinstance(other, (int, Fraction)):
            return False  # a normalized SqrtExt is irrational
        return NotImplemented

    def __hash__(self):
        # p/q and m*m*s/q**2 in lowest terms, as ``__eq__`` compares them.
        p, m, q = self.p, self.m, self.q
        g = gcd(p, q)
        n, d = m * m * self.s, q * q
        h = gcd(n, d)
        return hash((p // g, q // g, n // h, d // h, m > 0))

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
        return self.p / self.q + self.m / self.q * float(self.s) ** 0.5

    def __floor__(self):
        # |m|*sqrt(s) lies strictly between r and r + 1 as m*m*s is not a
        # square; no multiple of q lies strictly inside such a unit gap.
        p, m, q = self.p, self.m, self.q
        r = isqrt(m * m * self.s)
        return (p + r) // q if m > 0 else (p - r - 1) // q

    def __ceil__(self):
        return -((-self).__floor__())

    def __repr__(self):
        return f"SqrtExt({self.a!r}, {self.b!r}, {self.s!r})"

    def __str__(self):
        return f"{self.a}{'+' if self.m > 0 else ''}{self.b}*sqrt({self.s})"


def is_rational(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


def as_scalar(x) -> Scalar:
    """Coerce to an exact scalar (floats and bools are rejected).

    Ints are mapped to Fractions so that later divisions stay exact.
    """
    return x if isinstance(x, SqrtExt) else _as_fraction(x)
