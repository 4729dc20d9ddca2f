"""Lattice points, dyadic levels, and fat shapes on the open grid cube.

The ground set for grid bound N and dimension d is P = {1, ..., N-1}^d,
the integer points of the open cube (0, N)^d.  The level of a positive
integer is its number of trailing zero bits; the level of a point is the
minimum over its coordinates, so levels partition P into a dyadic
hierarchy with a single maximum-level point when N is a power of two.

Shapes are open sets: strict inequalities on every face and boundary.
Three shapes are supported: cube, ball and axis-parallel box.  Every
predicate is exact: coordinates and widths are ints, Fractions, or
quadratic irrationals (see ``exactnum``), never floats.

Each shape is stored once, when it is built, as numerators over one
positive int ``den``: a cube's or box's low and high ends per axis
(``lo``, ``hi``), or a ball's center and radius (``ctr``, ``rad``).  A
numerator is a plain int for rational data, and otherwise a ``SqrtExt``
with integral parts.  The form is reduced by one gcd, so equal shapes
store equal numbers.  Every predicate and construction below reads and
builds this form, so a rational shape costs int arithmetic only; the
exact scalars ``corner``, ``width``, ``widths``, ``center`` and
``radius`` are built on demand, for output and the naive oracles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import ceil, floor, gcd, isqrt, lcm
from operator import le
from typing import Iterator, Optional, Union

from gridhit.errors import EmptyObjectError, FatnessViolation, GridBoundsError
from gridhit.exactnum import Scalar, SqrtExt, as_scalar, sqrt_exact

Point = tuple[int, ...]


@dataclass(frozen=True)
class GridSpec:
    """The ambient grid: dimension d and bound N, with P = {1..N-1}^d."""

    d: int
    N: int

    def __post_init__(self):
        if type(self.d) is not int or self.d < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if type(self.N) is not int or self.N < 2:
            raise ValueError(f"grid bound must be an integer >= 2, got {self.N}")

    @property
    def level_bound(self) -> int:
        """Largest level any point of P can have: floor(log2(N-1))."""
        return (self.N - 1).bit_length() - 1

    def contains_point(self, p) -> bool:
        return (len(p) == self.d
                and all(type(c) is int and 1 <= c <= self.N - 1 for c in p))


# -- the stored form ------------------------------------------------------------

def _common_den(values) -> int:
    """The lcm of the denominators of the values' rational parts (a
    SqrtExt has two): the least den that makes every value * den a
    numerator."""
    return lcm(*(p.denominator for v in values
                 for p in ((v.a, v.b) if isinstance(v, SqrtExt) else (v,))))


def _scaled(x: Scalar, den: int):
    """x * den, for a den that ``_common_den`` allows, as a numerator."""
    if isinstance(x, SqrtExt):
        return SqrtExt(Fraction(_scaled(x.a, den)), Fraction(_scaled(x.b, den)),
                       x.s)
    return x.numerator * (den // x.denominator)


def _quotient(n, den):
    """The exact scalar n / den."""
    return Fraction(n, den) if type(n) is int and type(den) is int else n / den


def _store(o, den: int, first: tuple, second) -> None:
    """Store numerators over ``den`` on a new shape, reduced by one gcd.
    ``first`` and ``second`` are a cube's or box's low and high ends, or
    a ball's center and radius.  SqrtExt arithmetic returns a rational
    result as a Fraction, so an integral Fraction is stored as its int."""
    nums = [n if type(n) is int or isinstance(n, SqrtExt) else n.numerator
            for n in (*first, *(second if type(second) is tuple
                                else (second,)))]
    g = gcd(den, *(p for n in nums for p in (
        (n,) if type(n) is int else (n.a.numerator, n.b.numerator))))
    if g > 1:
        den //= g
        nums = [n // g if type(n) is int else
                SqrtExt(Fraction(n.a.numerator // g),
                        Fraction(n.b.numerator // g), n.s) for n in nums]
    d = len(first)
    f0, f1 = o._fields
    put = object.__setattr__
    put(o, "den", den)
    put(o, f0, tuple(nums[:d]))
    put(o, f1, tuple(nums[d:]) if type(second) is tuple else nums[d])


def from_numerators(cls, den: int, first: tuple, second):
    """The shape of class ``cls`` with the given numerators over ``den``
    (see ``_store``), built without the scalar constructor."""
    o = object.__new__(cls)
    _store(o, den, first, second)
    return o


class _Shape:
    """Immutable: the stored form is fixed when the shape is built, and
    ``int_corners`` is kept on it on first use."""

    __slots__ = ("den", "_int_corners")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        return (self.den, *(getattr(self, f) for f in self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class _Rect(_Shape):
    """A cube or box: ``lo[i] / den < x_i < hi[i] / den`` on every axis."""

    __slots__ = ("lo", "hi")
    _fields = __slots__

    @property
    def corner(self) -> tuple[Scalar, ...]:
        return tuple(_quotient(n, self.den) for n in self.lo)


class Cube(_Rect):
    """Open axis-parallel cube: corner_i < x_i < corner_i + width."""

    __slots__ = ()

    def __init__(self, corner, width):
        corner = tuple(map(as_scalar, corner))
        width = as_scalar(width)
        den = _common_den((*corner, width))
        w = _scaled(width, den)
        if not w > 0:
            raise ValueError(f"cube width must be positive, got {width}")
        lo = tuple(_scaled(c, den) for c in corner)
        _store(self, den, lo, tuple(c + w for c in lo))

    @property
    def width(self) -> Scalar:
        return _quotient(self.hi[0] - self.lo[0], self.den)

    def __repr__(self):
        return f"Cube(corner={self.corner!r}, width={self.width!r})"


class Box(_Rect):
    """Open axis-parallel box with per-axis widths."""

    __slots__ = ()

    def __init__(self, corner, widths):
        corner = tuple(map(as_scalar, corner))
        widths = tuple(map(as_scalar, widths))
        if len(corner) != len(widths):
            raise ValueError("corner and widths must have the same dimension")
        den = _common_den((*corner, *widths))
        ws = [_scaled(w, den) for w in widths]
        if not all(w > 0 for w in ws):
            raise ValueError("box widths must be positive")
        lo = tuple(_scaled(c, den) for c in corner)
        _store(self, den, lo, tuple(c + w for c, w in zip(lo, ws)))

    @property
    def widths(self) -> tuple[Scalar, ...]:
        return tuple(_quotient(h - l, self.den)
                     for l, h in zip(self.lo, self.hi))

    def __repr__(self):
        return f"Box(corner={self.corner!r}, widths={self.widths!r})"


class Ball(_Shape):
    """Open ball: sum((x_i - center_i)^2) < radius^2."""

    __slots__ = ("ctr", "rad")
    _fields = __slots__

    def __init__(self, center, radius):
        center = tuple(map(as_scalar, center))
        radius = as_scalar(radius)
        den = _common_den((*center, radius))
        r = _scaled(radius, den)
        if not r > 0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        _store(self, den, tuple(_scaled(c, den) for c in center), r)

    @property
    def center(self) -> tuple[Scalar, ...]:
        return tuple(_quotient(n, self.den) for n in self.ctr)

    @property
    def radius(self) -> Scalar:
        return _quotient(self.rad, self.den)

    def __repr__(self):
        return f"Ball(center={self.center!r}, radius={self.radius!r})"


FatObject = Union[Cube, Ball, Box]


# -- levels -------------------------------------------------------------------

def int_level(i: int) -> int:
    """Number of trailing zero bits of i >= 1 (the 2-adic valuation)."""
    if i <= 0:
        raise ValueError(f"level is undefined for {i}; coordinates are >= 1")
    return (i & -i).bit_length() - 1


def point_level(p) -> int:
    """min over coordinates of int_level; defined since 0 is never in P.
    An empty point raises ValueError."""
    return min(int_level(c) for c in p)


def _max_coord_level(a: int, b: int) -> int:
    """Largest level of any integer in [a, b], for 1 <= a <= b: the
    highest bit where a - 1 and b differ, since a multiple of 2**l lies in
    (a - 1, b] iff (a - 1) >> l != b >> l."""
    return ((a - 1) ^ b).bit_length() - 1


# -- basic shape queries --------------------------------------------------------

def dimension(o: FatObject) -> int:
    if isinstance(o, Ball):
        return len(o.ctr)
    return len(o.lo)


def contains(o: FatObject, p) -> bool:
    """Strict (open-set) membership; p may have any exact scalar coords."""
    den = o.den
    if isinstance(o, Ball):
        acc = 0
        for c, x in zip(o.ctr, p):
            t = x * den - c
            acc = acc + t * t
        return acc < o.rad * o.rad
    return all(a < x * den < b for a, x, b in zip(o.lo, p, o.hi))


def _extent(o: FatObject) -> list[tuple]:
    """Closed per-axis bounds [lo_i, hi_i] that contain the object, as
    numerators over ``o.den``."""
    if isinstance(o, Ball):
        r = o.rad
        return [(c - r, c + r) for c in o.ctr]
    return list(zip(o.lo, o.hi))


def _widths(o: _Rect) -> list:
    return [h - l for l, h in zip(o.lo, o.hi)]


def enclosing_cube(o: FatObject) -> Cube:
    """Smallest axis-parallel cube containing the object (centered when
    the minimizer is not unique)."""
    if isinstance(o, Cube):
        return o
    if isinstance(o, Ball):
        lo, hi = zip(*_extent(o))
        return from_numerators(Cube, o.den, lo, hi)
    ws = _widths(o)
    wmax = max(ws)
    # Over 2*den, the corner moves down by half of what each axis lacks.
    lo = tuple(2 * c - (wmax - w) for c, w in zip(o.lo, ws))
    return from_numerators(Cube, 2 * o.den, lo, tuple(c + 2 * wmax for c in lo))


def inscribed_cube(o: FatObject) -> Cube:
    """Largest axis-parallel cube contained in the object (centered).

    For a ball this has width 2r/sqrt(d): the open cube whose closure
    touches the sphere at its corners is contained in the open ball.
    """
    if isinstance(o, Cube):
        return o
    if isinstance(o, Ball):
        # Over den*d the half-width r/sqrt(d) is r*sqrt(d).
        d = len(o.ctr)
        half = o.rad * sqrt_exact(d)
        lo = tuple(c * d - half for c in o.ctr)
        return from_numerators(Cube, o.den * d, lo,
                               tuple(c + 2 * half for c in lo))
    ws = _widths(o)
    wmin = min(ws)
    lo = tuple(2 * c + (w - wmin) for c, w in zip(o.lo, ws))
    return from_numerators(Cube, 2 * o.den, lo, tuple(c + 2 * wmin for c in lo))


def out_width(o: FatObject) -> Scalar:
    return enclosing_cube(o).width


def in_width(o: FatObject) -> Scalar:
    return inscribed_cube(o).width


def _fatness_sq(o: FatObject) -> tuple:
    """The squared fatness as a numerator and denominator."""
    if isinstance(o, Cube):
        return 1, 1
    if isinstance(o, Ball):
        return len(o.ctr), 1
    ws = _widths(o)
    return max(ws) ** 2, min(ws) ** 2


def fatness_sq(o: FatObject) -> Scalar:
    """Squared fatness (out_width/in_width)^2; squaring keeps the value
    rational for balls, whose fatness is sqrt(d)."""
    return _quotient(*_fatness_sq(o))


def validate_fatness(o: FatObject, family_fatness_sq: Scalar) -> None:
    num, den = _fatness_sq(o)
    q = _common_den((family_fatness_sq,))
    if num * q > _scaled(family_fatness_sq, q) * den:
        raise FatnessViolation(
            f"object fatness^2 {fatness_sq(o)} exceeds the declared bound "
            f"{family_fatness_sq}")


def dilate(o: FatObject, beta: Scalar, v) -> FatObject:
    """Scale by beta > 0 and translate by v; fatness is preserved.  This
    fits the unit cube onto the cube with corner v and width beta."""
    if not as_scalar(beta) > 0:
        raise ValueError(f"dilation scale must be positive, got {beta}")
    v = tuple(v)
    if len(v) != dimension(o):
        raise ValueError("translation vector has wrong dimension")
    return fit(o, Cube((0,) * len(v), 1), Cube(v, beta))


def fit(o: FatObject, src: Cube, dst: Cube) -> FatObject:
    """The dilation of o that maps the cube ``src`` onto the cube ``dst``.

    With numerator widths ws and wd, a numerator n over o.den maps on
    axis i to wd * (src.den * n - src.lo[i] * o.den) + dst.lo[i] * ws *
    o.den over ws * dst.den * o.den, and a ball's radius scales by
    wd * src.den.  An irrational ws is cleared by its conjugate.
    """
    ws = src.hi[0] - src.lo[0]
    wd = dst.hi[0] - dst.lo[0]
    if isinstance(ws, SqrtExt):
        conj = SqrtExt(ws.a, -ws.b, ws.s)
        wd, ws = wd * conj, ws * conj  # ws * conj is a nonzero rational
        if ws < 0:
            wd, ws = -wd, -ws
    # An integral Fraction, as a difference of SqrtExt ends may be, is
    # its numerator.
    step = ws.numerator * o.den

    def image(nums):
        return tuple(wd * (src.den * n - b * o.den) + a * step
                     for n, a, b in zip(nums, dst.lo, src.lo))

    den = step * dst.den
    if isinstance(o, Ball):
        return from_numerators(Ball, den, image(o.ctr), wd * src.den * o.rad)
    return from_numerators(type(o), den, image(o.lo), image(o.hi))


def validate_in_grid(o: FatObject, grid: GridSpec) -> None:
    if dimension(o) != grid.d:
        raise GridBoundsError(
            f"object dimension {dimension(o)} != grid dimension {grid.d}")
    den = o.den
    top = grid.N * den
    for lo, hi in _extent(o):
        if lo < 0 or hi > top:
            raise GridBoundsError(
                f"object extent [{_quotient(lo, den)}, {_quotient(hi, den)}] "
                f"leaves [0, {grid.N}]")


# -- lattice enumeration --------------------------------------------------------
#
# Every enumeration below consumes one primitive, ``grid_rows``: the
# object's points on a stride lattice, grouped into runs along the last
# axis.  A box, being a product set, is tested for a point and levelled
# from its corners alone, ``find_grid_point`` tests the points around the
# center, and ``grid_points_among`` tests given points against the
# corners first; ``grid_points_among_sorted`` tests only the slab of a
# sorted list that the corners' first axis allows.  All of them read the
# stored numerators: the integer corners are floor divisions by ``den``,
# and a ball row scales its point by ``den`` instead of dividing the
# ball.

def int_corners(o: FatObject) -> tuple[Point, Point] | None:
    """Low and high corners of the object's integer candidate box: per
    axis the inclusive integer bounds, clipped to coords >= 1.

    Returns None when some axis admits no integer, i.e. the object surely
    contains no grid point.  Every grid point of the object lies in the
    box, so two objects whose boxes are disjoint share no grid point.  For
    a cube or box the box is exactly its grid points: an integer x >= 1
    has lo < x * den < hi iff floor(lo / den) + 1 <= x <= ceil(hi / den) - 1.
    Both roundings are taken on the stored numerators, floor(lo) // den
    and -(-ceil(hi) // den), so a rational shape's costs int divisions
    only.  Computed on first use and kept on the object, which is
    immutable.
    """
    try:
        return o._int_corners
    except AttributeError:
        pass
    den = o.den
    ranges = [(max(1, floor(lo) // den + 1), -(-ceil(hi) // den) - 1)
              for lo, hi in _extent(o)]
    corners = (None if any(a > b for a, b in ranges)
               else tuple(zip(*ranges)))
    object.__setattr__(o, "_int_corners", corners)
    return corners


def grid_points_among(o: FatObject, points) -> Iterator[Point]:
    """The given grid points (int coordinates >= 1) that lie inside the
    object, lazily and in their given order.

    Each point is compared with ``int_corners(o)`` in plain ints, which
    settles a cube or box exactly; a ball point inside the corners is
    settled by the exact ``contains``.
    """
    corners = int_corners(o)
    if corners is None:
        return
    lo, hi = corners
    ball = isinstance(o, Ball)
    for p in points:
        if (all(map(le, lo, p)) and all(map(le, p, hi))
                and (not ball or contains(o, p))):
            yield p


def grid_points_among_sorted(o: FatObject,
                             points: list[Point]) -> Iterator[Point]:
    """``grid_points_among`` over a list of points sorted in
    lexicographic order.

    Only the slab whose first coordinate lies in the first axis of
    ``int_corners(o)`` can hold a point of the object; it is found by
    bisection and tested as ``grid_points_among`` tests any list.
    """
    corners = int_corners(o)
    if corners is not None:
        lo, hi = corners
        points = points[bisect_left(points, (lo[0],)):
                        bisect_left(points, (hi[0] + 1,))]
    return grid_points_among(o, points)


def _align(a: int, stride: int) -> int:
    """Smallest multiple of stride that is >= a."""
    return -(-a // stride) * stride


Row = tuple[Point, int, int]


def _lattice(axes) -> Iterator[Point]:
    """Lazy ``itertools.product`` of ranges: product() would first copy
    every range into a tuple, which a huge object's ranges cannot be."""
    if not axes:
        yield ()
        return
    for prefix in _lattice(axes[:-1]):
        for x in axes[-1]:
            yield prefix + (x,)


def grid_rows(o: FatObject, box=None, stride: int = 1) -> Iterator[Row]:
    """The object's integer points whose coordinates are all multiples of
    ``stride``, as rows ``(prefix, a, b)`` in lexicographic order: the
    points with first d-1 coordinates ``prefix`` are exactly
    ``prefix + (x,)`` for the multiples x of stride in [a, b], and a is
    one of them.  Coordinates are >= 1, as in ``grid_points_in``.

    ``box = (lo, hi)``, inclusive integer corners, keeps only the points
    inside it; a box pinned to one prefix gives that row in O(d).  A box
    row is its last-axis range.  A ball row comes from an ``isqrt`` of
    the squared radius left over by the prefix, for rational and
    irrational balls alike.  Rows are generated lazily, so a caller that
    stops early pays only for the rows it read, and the first row of a
    box costs O(d) whatever its size.
    """
    corners = int_corners(o)
    if corners is None:
        return iter(())
    lo, hi = corners
    if box is not None:
        lo, hi = tuple(map(max, lo, box[0])), tuple(map(min, hi, box[1]))
    if isinstance(o, Ball):
        return _ball_rows(lo, hi, stride, o.ctr, o.den, o.rad * o.rad, ())
    axes = [range(_align(a, stride), b + 1, stride) for a, b in zip(lo, hi)]
    if not all(axes):
        # Checked up front: the lattice would otherwise walk every prefix
        # of the other axes before it found no row.
        return iter(())
    a, b = axes[-1][0], axes[-1][-1]
    return ((prefix, a, b) for prefix in _lattice(axes[:-1]))


def _ball_rows(lo, hi, stride, cnum, den, rem, prefix) -> Iterator[Row]:
    """Rows of the stored ball sum((x_i*den - cnum_i)**2) < rad**2 within
    the corners ``lo`` and ``hi``, where ``rem`` is rad**2 minus the
    prefix's share of the sum.

    The row is |x*den - c| < sqrt(rem), with u < sqrt(rem) <= u + 1 for
    the u below.  For an integer c that is |x*den - c| <= u.  For an
    irrational c only x*den = floor(c) - u and ceil(c) + u are in doubt,
    so one exact test per end settles a row of any length.
    """
    if rem <= 0:
        return
    ax = len(prefix)
    c = cnum[ax]
    u = isqrt(ceil(rem) - 1)
    a = _align(max(lo[ax], -((u - floor(c)) // den)), stride)
    b = min(hi[ax], (ceil(c) + u) // den)
    if isinstance(c, SqrtExt):
        if a <= b and not (a * den - c) ** 2 < rem:
            a += stride
        if a <= b and not (b * den - c) ** 2 < rem:
            b -= 1
    if ax == len(lo) - 1:
        if a <= b:
            yield prefix, a, b
        return
    for x in range(a, b + 1, stride):
        t = x * den - c
        yield from _ball_rows(lo, hi, stride, cnum, den, rem - t * t,
                              prefix + (x,))


def grid_points_in(o: FatObject) -> list[Point]:
    """All integer points strictly inside the object, lexicographically.

    For an object that lies inside its grid these are exactly the points
    of P it contains.
    """
    out: list[Point] = []
    for prefix, a, b in grid_rows(o):
        out.extend(zip(*map(repeat, prefix), range(a, b + 1)))
    return out


def find_grid_point(o: FatObject) -> Optional[Point]:
    """One integer point (coordinates >= 1) inside the object, or None if
    it has none: the first, in lexicographic order, of the 2**d points
    around the object's center, each coordinate clamped to >= 1.

    These include the integer point >= 1 nearest the center on every
    axis.  A ball's squared distance to its center is a sum over the
    axes, and a cube or box is an interval centered there on each axis,
    so the object holds that point whenever it holds any integer point
    >= 1.
    """
    if isinstance(o, Ball):
        mids = [floor(c) // o.den for c in o.ctr]
    else:
        mids = [floor(a + b) // (2 * o.den) for a, b in zip(o.lo, o.hi)]
    for p in product(*((max(1, m), max(1, m + 1)) for m in mids)):
        if contains(o, p):
            return p
    return None


def has_grid_point(o: FatObject) -> bool:
    if isinstance(o, _Rect):
        # A product set has a point iff every axis has an integer.
        return int_corners(o) is not None
    return find_grid_point(o) is not None


def object_level(o: FatObject) -> int:
    """Maximum level over the integer points inside the object.

    A point of level >= l exists iff the object meets the stride-2**l
    lattice, so the answer is the largest l with a row at that stride.
    A box meets it iff every axis has a multiple of 2**l (a product set),
    so its answer is the cap over its axes.
    """
    corners = int_corners(o)
    if corners is None:
        raise EmptyObjectError("object contains no grid point")
    cap = min(map(_max_coord_level, *corners))
    if isinstance(o, _Rect):
        return cap
    for level in range(cap, -1, -1):
        if next(grid_rows(o, stride=1 << level), None) is not None:
            return level
    raise EmptyObjectError("object contains no grid point")


def points_of_level(o: FatObject, level: int) -> list[Point]:
    """The integer points inside the object whose level is exactly
    ``level``, lexicographically."""
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    stride = 1 << level
    out: list[Point] = []
    for prefix, a, b in grid_rows(o, stride=stride):
        step = stride
        if not any((v >> level) & 1 for v in prefix):
            # Level exactly ``level`` needs a coordinate that is an odd
            # multiple of stride; the prefix has none, so x must be one.
            step = 2 * stride
            if not (a >> level) & 1:
                a += stride
        out.extend(zip(*map(repeat, prefix), range(a, b + 1, step)))
    return out
