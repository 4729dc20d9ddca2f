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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product, repeat
from math import ceil, floor, isqrt, lcm
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


def _scalar_tuple(values) -> tuple[Scalar, ...]:
    return tuple(as_scalar(v) for v in values)


@dataclass(frozen=True)
class Cube:
    """Open axis-parallel cube: corner_i < x_i < corner_i + width."""

    corner: tuple[Scalar, ...]
    width: Scalar

    def __post_init__(self):
        object.__setattr__(self, "corner", _scalar_tuple(self.corner))
        object.__setattr__(self, "width", as_scalar(self.width))
        if not self.width > 0:
            raise ValueError(f"cube width must be positive, got {self.width}")


@dataclass(frozen=True)
class Ball:
    """Open ball: sum((x_i - center_i)^2) < radius^2."""

    center: tuple[Scalar, ...]
    radius: Scalar

    def __post_init__(self):
        object.__setattr__(self, "center", _scalar_tuple(self.center))
        object.__setattr__(self, "radius", as_scalar(self.radius))
        if not self.radius > 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Box:
    """Open axis-parallel box with per-axis widths."""

    corner: tuple[Scalar, ...]
    widths: tuple[Scalar, ...]

    def __post_init__(self):
        object.__setattr__(self, "corner", _scalar_tuple(self.corner))
        object.__setattr__(self, "widths", _scalar_tuple(self.widths))
        if len(self.corner) != len(self.widths):
            raise ValueError("corner and widths must have the same dimension")
        if not all(w > 0 for w in self.widths):
            raise ValueError("box widths must be positive")


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
        return len(o.center)
    return len(o.corner)


def contains(o: FatObject, p) -> bool:
    """Strict (open-set) membership; p may have any exact scalar coords."""
    if isinstance(o, Cube):
        return all(c < x < c + o.width for c, x in zip(o.corner, p))
    if isinstance(o, Ball):
        acc = 0
        for c, x in zip(o.center, p):
            t = x - c
            acc = acc + t * t
        return acc < o.radius * o.radius
    return all(c < x < c + w for c, x, w in zip(o.corner, p, o.widths))


def _extent(o: FatObject) -> list[tuple[Scalar, Scalar]]:
    """Closed per-axis bounds [lo_i, hi_i] that contain the object."""
    if isinstance(o, Cube):
        return [(c, c + o.width) for c in o.corner]
    if isinstance(o, Ball):
        return [(c - o.radius, c + o.radius) for c in o.center]
    return [(c, c + w) for c, w in zip(o.corner, o.widths)]


def enclosing_cube(o: FatObject) -> Cube:
    """Smallest axis-parallel cube containing the object (centered when
    the minimizer is not unique)."""
    if isinstance(o, Cube):
        return o
    if isinstance(o, Ball):
        return Cube(tuple(c - o.radius for c in o.center), 2 * o.radius)
    wmax = max(o.widths)
    corner = tuple(c - (wmax - w) / 2 for c, w in zip(o.corner, o.widths))
    return Cube(corner, wmax)


def inscribed_cube(o: FatObject) -> Cube:
    """Largest axis-parallel cube contained in the object (centered).

    For a ball this has width 2r/sqrt(d): the open cube whose closure
    touches the sphere at its corners is contained in the open ball.
    """
    if isinstance(o, Cube):
        return o
    if isinstance(o, Ball):
        half = o.radius / sqrt_exact(len(o.center))
        return Cube(tuple(c - half for c in o.center), 2 * half)
    wmin = min(o.widths)
    corner = tuple(c + (w - wmin) / 2 for c, w in zip(o.corner, o.widths))
    return Cube(corner, wmin)


def out_width(o: FatObject) -> Scalar:
    return enclosing_cube(o).width


def in_width(o: FatObject) -> Scalar:
    return inscribed_cube(o).width


def fatness_sq(o: FatObject) -> Scalar:
    """Squared fatness (out_width/in_width)^2; squaring keeps the value
    rational for balls, whose fatness is sqrt(d)."""
    if isinstance(o, Cube):
        return Fraction(1)
    if isinstance(o, Ball):
        return Fraction(len(o.center))
    r = max(o.widths) / min(o.widths)
    return r * r


def validate_fatness(o: FatObject, family_fatness_sq: Scalar) -> None:
    if fatness_sq(o) > family_fatness_sq:
        raise FatnessViolation(
            f"object fatness^2 {fatness_sq(o)} exceeds the declared bound "
            f"{family_fatness_sq}")


def dilate(o: FatObject, beta: Scalar, v) -> FatObject:
    """Scale by beta > 0 and translate by v; fatness is preserved."""
    beta = as_scalar(beta)
    if not beta > 0:
        raise ValueError(f"dilation scale must be positive, got {beta}")
    v = _scalar_tuple(v)
    if len(v) != dimension(o):
        raise ValueError("translation vector has wrong dimension")
    if isinstance(o, Cube):
        return Cube(tuple(beta * c + t for c, t in zip(o.corner, v)),
                    beta * o.width)
    if isinstance(o, Ball):
        return Ball(tuple(beta * c + t for c, t in zip(o.center, v)),
                    beta * o.radius)
    return Box(tuple(beta * c + t for c, t in zip(o.corner, v)),
               tuple(beta * w for w in o.widths))


def validate_in_grid(o: FatObject, grid: GridSpec) -> None:
    if dimension(o) != grid.d:
        raise GridBoundsError(
            f"object dimension {dimension(o)} != grid dimension {grid.d}")
    for lo, hi in _extent(o):
        if lo < 0 or hi > grid.N:
            raise GridBoundsError(
                f"object extent [{lo}, {hi}] leaves [0, {grid.N}]")


# -- lattice enumeration --------------------------------------------------------
#
# Every enumeration below consumes one primitive, ``grid_rows``: the
# object's points on a stride lattice, grouped into runs along the last
# axis.  A box, being a product set, is tested for a point and levelled
# from its corners alone, ``find_grid_point`` tests the points around the
# center, and ``grid_points_among`` tests given points against the
# corners first; ``grid_points_among_sorted`` tests only the slab of a
# sorted list that the corners' first axis allows.

def int_corners(o: FatObject) -> tuple[Point, Point] | None:
    """Low and high corners of the object's integer candidate box: per
    axis the inclusive integer bounds, clipped to coords >= 1.

    Returns None when some axis admits no integer, i.e. the object surely
    contains no grid point.  Every grid point of the object lies in the
    box, so two objects whose boxes are disjoint share no grid point.  For
    a cube or box the box is exactly its grid points: an integer x >= 1
    has c < x < c + w iff floor(c) + 1 <= x <= ceil(c + w) - 1.  Computed
    on first use and kept on the object, which is immutable.
    """
    try:
        return o._int_corners
    except AttributeError:
        pass
    ranges = [(max(1, floor(lo) + 1), ceil(hi) - 1)
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


def _integral(x: Scalar):
    """An integral rational as an int; a SqrtExt as it is."""
    return x if isinstance(x, SqrtExt) else int(x)


def _ball_int_args(o: Ball):
    """Scale a ball by the lcm ``den`` of all its rational parts (a SqrtExt
    has two): center*den and (radius*den)**2 are ints, or SqrtExt values
    with integer parts.  Returns the center, den and squared radius.
    Computed on first use and kept on the ball, as ``int_corners`` is."""
    try:
        return o._int_args
    except AttributeError:
        pass
    parts = [p for v in (*o.center, o.radius)
             for p in ((v.a, v.b) if isinstance(v, SqrtExt) else (v,))]
    den = lcm(*(Fraction(p).denominator for p in parts))
    cnum = tuple(_integral(c * den) for c in o.center)
    args = cnum, den, _integral((o.radius * den) ** 2)
    object.__setattr__(o, "_int_args", args)
    return args


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
        cnum, den, rr = _ball_int_args(o)
        return _ball_rows(lo, hi, stride, cnum, den, rr, ())
    axes = [range(_align(a, stride), b + 1, stride) for a, b in zip(lo, hi)]
    if not all(axes):
        # Checked up front: the lattice would otherwise walk every prefix
        # of the other axes before it found no row.
        return iter(())
    a, b = axes[-1][0], axes[-1][-1]
    return ((prefix, a, b) for prefix in _lattice(axes[:-1]))


def _ball_rows(lo, hi, stride, cnum, den, rem, prefix) -> Iterator[Row]:
    """Rows of the scaled ball sum((x_i*den - cnum_i)**2) < rr within the
    corners ``lo`` and ``hi``, where ``rem`` is rr minus the prefix's
    share of the sum.

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
    ec = enclosing_cube(o)
    mids = [floor(c + ec.width / 2) for c in ec.corner]
    for p in product(*((max(1, m), max(1, m + 1)) for m in mids)):
        if contains(o, p):
            return p
    return None


def has_grid_point(o: FatObject) -> bool:
    if isinstance(o, (Cube, Box)):
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
    if isinstance(o, (Cube, Box)):
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
