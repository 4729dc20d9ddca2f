"""Levels, widths, enumeration, and the dyadic counting bounds.

Expected values for the non-trivial cases are frozen from the naive
oracles defined at the top of this file (filter-everything enumeration,
division-loop levels); the fast paths must reproduce them.  Queries on
balls must also stay exact on huge denominators and ``isqrt``
boundaries, stay lazy on huge objects, and leave no cyclic garbage.
"""

import gc
import time
from fractions import Fraction
from itertools import product
from math import ceil, floor, pi

import pytest
from hypothesis import given, settings, strategies as st

from gridhit import geometry as G
from gridhit.adversary import find_empty_subcube
from gridhit.errors import EmptyObjectError, FatnessViolation, GridBoundsError
from gridhit.exactnum import is_rational, sqrt_exact
from gridhit.geometry import Ball, Box, Cube, GridSpec
from gridhit.harness import _naive_contains, _naive_ranges

F = Fraction


# -- naive oracles -------------------------------------------------------------

def naive_level(i):
    level = 0
    while i % 2 == 0:
        i //= 2
        level += 1
    return level


def naive_point_level(p):
    return min(naive_level(c) for c in p)


def rebuilt(o):
    """A copy of o built again through its public constructor, so that
    nothing computed on o is carried over."""
    if isinstance(o, Cube):
        return Cube(o.corner, o.width)
    if isinstance(o, Ball):
        return Ball(o.center, o.radius)
    return Box(o.corner, o.widths)


def naive_interior(o, bound=80):
    d = G.dimension(o)
    return [p for p in product(range(1, bound), repeat=d)
            if _naive_contains(o, p)]


def naive_ball_points(cnum, den, rnum):
    """Integer points x >= 1 with sum((x*den - c)**2) < rnum**2, by
    filtering the ball's bounding box."""
    axes = [range(max(1, (c - rnum) // den), (c + rnum) // den + 1)
            for c in cnum]
    return [p for p in product(*axes)
            if sum((x * den - c) ** 2 for x, c in zip(p, cnum)) < rnum * rnum]


def ball_of(cnum, den, rnum):
    return Ball(tuple(F(c, den) for c in cnum), F(rnum, den))


def case_ball(case):
    """The ball of a ``ball_cases`` draw: the rational ball, plus k*sqrt(s)/8
    on each center coordinate and on the radius when it has offsets."""
    d, cnum, den, rnum, offsets = case
    if offsets is None:
        return ball_of(cnum, den, rnum)
    s, kc, kr = offsets
    unit = sqrt_exact(s) / 8
    return Ball(tuple(F(c, den) + k * unit for c, k in zip(cnum, kc)),
                F(rnum, den) + kr * unit)


def case_points(case):
    """The points of a ``ball_cases`` draw, from a filter-everything oracle."""
    d, cnum, den, rnum, offsets = case
    if offsets is None:
        return naive_ball_points(cnum, den, rnum)
    ball = case_ball(case)
    return [p for p in product(*_naive_ranges(ball))
            if _naive_contains(ball, p)]


def _ball_cases(span, offsets):
    return st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(st.integers(1, 5 * span[d]), min_size=d, max_size=d),
        st.integers(1, 5),                                      # denominator
        st.integers(1, 4 * span[d]),                            # radius numerator
        offsets(d),
    ))


# Rational balls, and smaller balls with SqrtExt offsets (s in {2, 3, 5}),
# which the Fraction-based oracle filters more slowly.
ball_cases = st.one_of(
    _ball_cases({1: 256, 2: 48, 3: 14}, lambda d: st.none()),
    _ball_cases({1: 64, 2: 8, 3: 2}, lambda d: st.tuples(
        st.sampled_from([2, 3, 5]),
        st.lists(st.integers(-4, 4), min_size=d, max_size=d),
        st.integers(0, 4))),
)


# -- grid spec -----------------------------------------------------------------

class TestGridSpec:
    def test_level_bound(self):
        assert GridSpec(2, 16).level_bound == 3
        assert GridSpec(2, 17).level_bound == 4  # coordinate 16 is reachable
        assert GridSpec(1, 2).level_bound == 0

    def test_point_membership(self):
        g = GridSpec(2, 16)
        assert g.contains_point((1, 15))
        assert not g.contains_point((0, 3))
        assert not g.contains_point((16, 3))
        assert not g.contains_point((1, 2, 3))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GridSpec(0, 16)
        with pytest.raises(ValueError):
            GridSpec(2, 1)
        # bool is an int subclass; True must not pass as 1.
        with pytest.raises(ValueError):
            GridSpec(True, 16)
        with pytest.raises(ValueError):
            GridSpec(1, True)


# -- levels ----------------------------------------------------------------------

class TestLevels:
    def test_int_level_examples(self):
        assert G.int_level(8) == 3
        assert G.int_level(1) == 0
        assert G.int_level(12) == 2

    def test_int_level_domain(self):
        for i in (0, -4, -8):
            with pytest.raises(ValueError):
                G.int_level(i)

    @given(st.integers(1, 1 << 40))
    def test_int_level_matches_division_loop(self, i):
        assert G.int_level(i) == naive_level(i)

    def test_point_level_examples(self):
        assert G.point_level((8, 8)) == 3
        assert G.point_level((8, 3)) == 0
        assert G.point_level((4, 12, 6)) == 1

    def test_levels_partition_grid(self):
        g = GridSpec(2, 16)
        histogram = {}
        for p in product(range(1, g.N), repeat=g.d):
            lvl = G.point_level(p)
            assert 0 <= lvl <= g.level_bound
            histogram[lvl] = histogram.get(lvl, 0) + 1
        assert histogram == {0: 176, 1: 40, 2: 8, 3: 1}
        assert sum(histogram.values()) == (g.N - 1) ** g.d

    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4))
    def test_point_level_matches_naive(self, coords):
        assert G.point_level(tuple(coords)) == naive_point_level(coords)

    @given(st.integers(1, 300), st.integers(0, 300))
    def test_max_coord_level_matches_naive(self, a, span):
        b = a + span
        want = max(naive_level(i) for i in range(a, b + 1))
        assert G._max_coord_level(a, b) == want

    @given(st.integers(1, 2 ** 600),
           st.one_of(st.integers(0, 64), st.integers(0, 2 ** 600)))
    def test_max_coord_level_at_scale(self, a, span):
        # The smallest multiple of 2**l that is >= a lies in [a, b]; the
        # smallest multiple of 2**(l+1) does not.
        b = a + span
        level = G._max_coord_level(a, b)
        assert -(-a >> level) << level <= b
        assert -(-a >> (level + 1)) << (level + 1) > b


# -- enumeration ------------------------------------------------------------------

class TestEnumeration:
    def test_unit_cube_single_point(self):
        assert G.grid_points_in(Cube((0, 0), 2)) == [(1, 1)]

    def test_tiny_ball_single_point(self):
        assert G.grid_points_in(Ball((4, 4), 1)) == [(4, 4)]

    def test_ball_two_and_a_half(self):
        # Oracle: integers in [2,6]^2 with (x-4)^2+(y-4)^2 < 6.25.
        b = Ball((4, 4), F(5, 2))
        want = naive_interior(b, bound=16)
        assert len(want) == 21
        assert G.grid_points_in(b) == want

    @settings(max_examples=120)
    @given(st.sampled_from(["cube", "ball", "box"]),
           st.fractions(min_value=0, max_value=20, max_denominator=8),
           st.fractions(min_value=0, max_value=20, max_denominator=8),
           st.fractions(min_value=F(1, 2), max_value=12, max_denominator=8),
           st.fractions(min_value=F(1, 2), max_value=12, max_denominator=8))
    def test_enumeration_matches_naive(self, kind, cx, cy, w1, w2):
        if kind == "cube":
            o = Cube((cx, cy), w1)
        elif kind == "ball":
            o = Ball((cx + w1, cy + w1), w1)
        else:
            o = Box((cx, cy), (w1, w2))
        want = naive_interior(o, bound=50)
        assert G.grid_points_in(o) == want
        assert G.has_grid_point(o) == bool(want)
        p = G.find_grid_point(o)
        assert p in want if want else p is None

    def test_empty_is_legal(self):
        assert G.grid_points_in(Cube((0, 0), 1)) == []
        assert not G.has_grid_point(Cube((0, 0), 1))

    def test_irrational_ball_filter_path(self):
        # An irrational center takes the same isqrt rows as a rational one,
        # with each row end settled by an exact SqrtExt comparison.
        o = Ball((4 + sqrt_exact(2) / 4, 4), sqrt_exact(2))
        want = [(3, 4), (4, 3), (4, 4), (4, 5), (5, 3), (5, 4), (5, 5)]
        assert naive_interior(o, bound=16) == want
        assert G.grid_points_in(o) == want
        assert G.find_grid_point(o) == (4, 4)
        assert G.object_level(o) == 2
        assert G.points_of_level(o, 2) == [(4, 4)]
        assert G.points_of_level(o, 0) == \
            [p for p in want if naive_point_level(p) == 0]
        assert G.out_width(o) == 2 * sqrt_exact(2) and G.in_width(o) == 2


# -- object level ------------------------------------------------------------------

class TestObjectLevel:
    def test_level_two_wide_cube(self):
        # In-width 7 object of level 2 (max-level interior point is (4,4)).
        o = Cube((F(1, 2), F(1, 2)), 7)
        assert G.in_width(o) == 7
        assert G.object_level(o) == 2

    def test_single_point_cube(self):
        assert G.object_level(Cube((0, 0), 2)) == 0

    def test_ball_level(self):
        b = Ball((4, 4), F(5, 2))
        want = max(naive_point_level(p) for p in naive_interior(b, 16))
        assert want == 2
        assert G.object_level(b) == 2

    def test_empty_object_raises(self):
        with pytest.raises(EmptyObjectError):
            G.object_level(Cube((0, 0), 1))

    @settings(max_examples=80)
    @given(st.fractions(min_value=1, max_value=30, max_denominator=4),
           st.fractions(min_value=1, max_value=30, max_denominator=4),
           st.fractions(min_value=F(3, 4), max_value=15, max_denominator=4))
    def test_ball_level_matches_naive(self, cx, cy, r):
        b = Ball((cx + r, cy + r), r)
        # Only the ball's own integer box, not the whole grid, is filtered.
        box = [range(max(1, floor(c - r)), ceil(c + r) + 1) for c in b.center]
        pts = [p for p in product(*box) if _naive_contains(b, p)]
        if not pts:
            with pytest.raises(EmptyObjectError):
                G.object_level(b)
            return
        assert G.object_level(b) == max(naive_point_level(p) for p in pts)

    @settings(max_examples=60)
    @given(st.lists(st.fractions(min_value=0, max_value=10, max_denominator=4),
                    min_size=1, max_size=3),
           st.lists(st.fractions(min_value=F(1, 2), max_value=8,
                                 max_denominator=4), min_size=3, max_size=3))
    def test_box_level_is_the_axis_cap(self, corner, widths):
        # A box's level comes from its ranges alone; check it point by point.
        b = Box(tuple(corner), tuple(widths[:len(corner)]))
        pts = naive_interior(b, bound=19)
        if not pts:
            with pytest.raises(EmptyObjectError):
                G.object_level(b)
            return
        assert G.object_level(b) == max(naive_point_level(p) for p in pts)


class TestPointsOfLevel:
    def test_ball_level_two(self):
        assert G.points_of_level(Ball((4, 4), F(5, 2)), 2) == [(4, 4)]

    def test_level_above_bound_is_empty(self):
        assert G.points_of_level(Ball((4, 4), F(5, 2)), 9) == []

    def test_twentyseven_level_one_points(self):
        # Width-10.2 cube whose sides hold 6 even coordinates, 3 of them
        # multiples of four: 6*6 - 3*3 = 27 points of level exactly 1.
        o = Cube((F(19, 10), F(19, 10)), F(51, 5))
        got = G.points_of_level(o, 1)
        assert len(got) == 27
        want = [p for p in naive_interior(o, 16) if naive_point_level(p) == 1]
        assert got == want
        assert len(got) <= floor((4 * sqrt_exact(2) + 1) ** 2) == 44

    @settings(max_examples=60)
    @given(st.fractions(min_value=0, max_value=20, max_denominator=8),
           st.fractions(min_value=F(1, 2), max_value=12, max_denominator=8),
           st.integers(0, 4))
    def test_matches_naive_filter(self, c, r, level):
        b = Ball((c + r, c + r), r)
        want = [p for p in naive_interior(b, 50)
                if naive_point_level(p) == level]
        assert G.points_of_level(b, level) == want

    @given(st.integers(1, 3), st.integers(0, 4), st.integers(1, 30),
           st.integers(0, 40))
    def test_box_points_of_level(self, d, level, span, offset):
        # The open box (offset, offset + span + 1)^d holds the integers
        # offset+1 .. offset+span on every axis.
        box = Box((offset,) * d, (span + 1,) * d)
        axis = range(1 + offset, offset + span + 1)
        want = [p for p in product(axis, repeat=d)
                if naive_point_level(p) == level]
        assert G.points_of_level(box, level) == want


# -- balls: a filter oracle, exact rows, laziness ---------------------------------

class TestBallQueries:
    """Rational balls and balls with SqrtExt offsets, in d = 1..3, against
    a filter-everything oracle."""

    @settings(max_examples=60, deadline=None)
    @given(ball_cases)
    def test_ball_points_match_naive_filter(self, case):
        ball = case_ball(case)
        want = case_points(case)
        assert G.grid_points_in(ball) == want
        assert G.has_grid_point(ball) == bool(want)

    @settings(max_examples=60, deadline=None)
    @given(ball_cases, st.integers(0, 4))
    def test_ball_points_of_level_match_filter(self, case, level):
        want = [p for p in case_points(case)
                if naive_point_level(p) == level]
        assert G.points_of_level(case_ball(case), level) == want

    @settings(max_examples=60, deadline=None)
    @given(ball_cases)
    def test_ball_max_level_matches_filter(self, case):
        pts = case_points(case)
        ball = case_ball(case)
        if not pts:
            with pytest.raises(EmptyObjectError):
                G.object_level(ball)
            return
        assert G.object_level(ball) == max(map(naive_point_level, pts))


class TestExactBallRows:
    """Rational balls take exact ``isqrt`` rows whatever their size."""

    def test_large_denominator_is_exact(self):
        # Coordinates with a 2**40 denominator must still give exact answers.
        eps = F(1, 1 << 40)
        ball = Ball((F(3, 2) + eps, F(3, 2) + eps), 1)
        assert G.grid_points_in(ball) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        # (2, 2) lies 2**-40 inside the boundary, (0, 2) is off the grid.
        ball = Ball((1 + eps, 2), 1)
        assert G.grid_points_in(ball) == [(1, 2), (2, 2)]
        den = 1 << 40
        assert G.grid_points_in(ball) == \
            naive_ball_points((den + 1, 2 * den), den, den)

    def test_isqrt_boundary_is_exact(self):
        # isqrt fixups near perfect squares: radius**2 - 1 boundary
        for rnum in (1, 2, 15, 16, 17, (1 << 15) - 1):
            got = G.grid_points_in(Ball((1 << 15,), rnum))
            lo_want = (1 << 15) - rnum + 1
            hi_want = (1 << 15) + rnum - 1
            assert got[0] == (lo_want,) and got[-1] == (hi_want,)
            assert len(got) == 2 * rnum - 1


class TestLaziness:
    def test_enumeration_leaves_no_cyclic_garbage(self):
        rational = Ball((F(33, 2), 17), F(21, 2))
        irrational = Ball((17 + sqrt_exact(2) / 3, 17), 10 + sqrt_exact(2))
        queries = (G.grid_points_in, G.has_grid_point,
                   G.find_grid_point, G.object_level,
                   lambda o: G.points_of_level(o, 1))
        gc.collect()
        gc.disable()
        try:
            for ball in (rational, irrational):
                for query in queries:
                    query(ball)
                    assert gc.collect() == 0, (ball, query)
        finally:
            gc.enable()

    def test_has_grid_point_on_huge_ball_exits_early(self):
        ball = Ball((1 << 23, 1 << 23), 1 << 23)  # fills (0, 2**24)^2
        t0 = time.perf_counter()
        assert G.has_grid_point(ball)
        assert G.find_grid_point(ball) == (1 << 23, 1 << 23)
        assert time.perf_counter() - t0 < 1.0

    def test_irrational_ball_count_is_fast(self):
        # About 204k points: one row per prefix, each settled by O(1)
        # exact comparisons, not a membership test per point.
        r = 255 + sqrt_exact(2) / 5
        ball = Ball((256 + sqrt_exact(2) / 3, 256), r)
        t0 = time.perf_counter()
        n = sum(b - a + 1 for _, a, b in G.grid_rows(ball))
        assert time.perf_counter() - t0 < 1.0
        assert abs(n - pi * float(r) ** 2) < 4 * float(r)

    @pytest.mark.parametrize("o", [Cube((0, 0, 0), 1 << 512),
                                   Box((0, 0, 0), (1 << 512, 1 << 511, 1 << 510))])
    def test_huge_box_queries_are_instant(self, o):
        t0 = time.perf_counter()
        assert G.has_grid_point(o)
        level = G.object_level(o)
        top = G.points_of_level(o, level)
        assert time.perf_counter() - t0 < 1.0
        assert all(G.point_level(p) == level for p in top)
        if isinstance(o, Cube):
            assert level == 511 and top == [(1 << 511,) * 3]
        else:
            assert level == 509 and len(top) == 7 * 3 * 1


# -- hit tests on given points -------------------------------------------------------

_coords = st.fractions(min_value=0, max_value=12, max_denominator=4)
_widths = st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4)


@st.composite
def shapes_with_points(draw):
    """A cube, box, rational ball, ball with a sqrt(2) center, or cube
    with sqrt(2) in its corner and width (as ``inscribed_cube`` of a
    ball makes) in d = 1..3, and grid points whose coordinates sit on the
    ends of its integer ranges, just outside them, or anywhere up to 20."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(
        ["cube", "box", "ball", "sqrt_ball", "sqrt_cube"]))
    corner = [draw(_coords) for _ in range(d)]
    w = draw(_widths)
    shift = (sqrt_exact(2) / draw(st.integers(2, 8))
             if kind.startswith("sqrt") else 0)
    if kind == "cube":
        o = Cube(tuple(corner), w)
    elif kind == "box":
        o = Box(tuple(corner), tuple(draw(_widths) for _ in range(d)))
    elif kind == "sqrt_cube":
        o = Cube(tuple(c + shift for c in corner),
                 w + sqrt_exact(2) / draw(st.integers(2, 8)))
    else:
        o = Ball(tuple(c + w + shift for c in corner), w)
    # Corners of a copy, so that o's own corners are first computed under
    # test.
    corners = G.int_corners(rebuilt(o)) or ((1,) * d,) * 2
    axes = [st.sampled_from(sorted({a, b, b + 1} | ({a - 1} - {0})))
            | st.integers(1, 20) for a, b in zip(*corners)]
    points = draw(st.lists(st.tuples(*axes), max_size=12))
    return o, points


class TestGridPointsAmong:
    @settings(max_examples=300)
    @given(shapes_with_points())
    def test_matches_contains_filter(self, case):
        o, points = case
        got = list(G.grid_points_among(o, points))
        assert got == [p for p in points if G.contains(o, p)]
        ordered = sorted(points)
        assert (list(G.grid_points_among_sorted(o, ordered))
                == [p for p in ordered if G.contains(o, p)])
        stored = G.int_corners(o)
        assert isinstance(stored, (tuple, type(None)))
        assert G.int_corners(o) is stored
        assert G.int_corners(rebuilt(o)) == stored

    def test_no_ranges_and_no_points(self):
        o = Cube((F(1, 4), F(1, 4)), F(1, 2))
        assert G.int_corners(o) is None
        assert list(G.grid_points_among(o, [(1, 1), (2, 2)])) == []
        assert list(G.grid_points_among(Cube((0, 0), 4), [])) == []

    def test_ball_corner_needs_the_exact_test(self):
        # (1, 1) lies within the ball's ranges but outside the ball.
        o = Ball((2, 2), F(5, 4))
        assert G.int_corners(o) == ((1, 1), (3, 3))
        assert list(G.grid_points_among(o, [(1, 1), (2, 1), (3, 3)])) == [(2, 1)]

    def test_sorted_slab_matches_full_scan(self):
        """Objects near the origin, some empty, some reaching below 1 and
        many of them balls, against every point up to 11 per axis, so
        points sit on both ends of each slab and just outside them."""
        objects = [*objects_near_the_origin(seed=5, count=200),
                   Box((-5, 1), (7, 2)), Ball((2, 2), F(5, 4))]
        empty = clipped = 0
        for o in objects:
            points = list(product(range(1, 12), repeat=G.dimension(o)))
            got = list(G.grid_points_among_sorted(o, points))
            assert got == list(G.grid_points_among(o, points)), o
            corners = G.int_corners(o)
            empty += corners is None
            clipped += corners is not None and corners[0][0] == 1
        assert empty >= 10 and clipped >= 10

    def test_lazy(self):
        points = iter([(2, 2), "never read"])
        assert next(G.grid_points_among(Cube((0, 0), 4), points)) == (2, 2)


def objects_near_the_origin(seed, count):
    """Seeded cubes, boxes and balls, rational or with a sqrt(2) in the
    center, in d = 1..3; corners from -10 up, so some centers lie below
    1 on some axis, and widths from 1/4 up, so some objects are empty."""
    import random
    rng = random.Random(seed)
    for i in range(count):
        d = 1 + i % 3
        corner = tuple(F(rng.randrange(-40, 40), 4) for _ in range(d))
        w = F(rng.randrange(1, 24), 4)
        kind = rng.choice(["cube", "box", "ball", "sqrt_ball"])
        if kind == "cube":
            yield Cube(corner, w)
        elif kind == "box":
            yield Box(corner, tuple(F(rng.randrange(1, 24), 4) for _ in range(d)))
        else:
            shift = sqrt_exact(2) / 7 if kind == "sqrt_ball" else 0
            yield Ball(tuple(c + w + shift for c in corner), w)


class TestFindGridPoint:
    """The points around the center decide existence without any row."""

    @pytest.fixture(autouse=True)
    def no_rows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("grid_rows called")

        monkeypatch.setattr(G, "grid_rows", refuse)

    def test_matches_naive_filter(self):
        objects = [*objects_near_the_origin(seed=3, count=300),
                   Cube((0, 0), 1), Box((0, 3), (1, 5)),
                   Ball((F(1, 2), F(1, 2)), F(1, 2)),
                   Box((-5, 1), (7, 2)), Ball((-3, 5), 5), Cube((-7, -7, 2), 9)]
        empty = 0
        for o in objects:
            want = [p for p in product(*_naive_ranges(o))
                    if _naive_contains(o, p)]
            p = G.find_grid_point(o)
            assert (p in want) if want else (p is None), o
            assert G.has_grid_point(o) == bool(want), o
            empty += not want
        assert 30 <= empty <= len(objects) - 100

    def test_center_below_one_is_clamped(self):
        assert G.find_grid_point(Box((-5, 1), (7, 2))) == (1, 2)
        assert G.find_grid_point(Ball((-3, 5), 5)) == (1, 5)
        assert G.find_grid_point(Ball((-3, 5), 4)) is None


# -- counting ---------------------------------------------------------------------

def count_at_least(c, level):
    """Points of level >= ``level`` in a cube inside (0, 64)^d."""
    return sum(len(G.points_of_level(c, l)) for l in range(level, 6))


class TestPointsOfLevelOnCubes:
    def test_width_sixteen_examples(self):
        c = Cube((0, 0), 16)
        assert G.points_of_level(c, 3) == [(8, 8)]
        assert count_at_least(c, 3) == 1
        assert count_at_least(c, 2) == 9
        assert count_at_least(c, 0) == 15 * 15

    @settings(max_examples=120)
    @given(st.fractions(min_value=0, max_value=30, max_denominator=16),
           st.fractions(min_value=0, max_value=30, max_denominator=16),
           st.fractions(min_value=F(1, 4), max_value=20, max_denominator=16),
           st.integers(0, 5))
    def test_matches_brute_force(self, cx, cy, w, level):
        c = Cube((cx, cy), w)
        inside = naive_interior(c, 60)
        want = [p for p in inside if naive_point_level(p) == level]
        assert G.points_of_level(c, level) == want
        assert count_at_least(c, level) == sum(
            1 for p in inside if naive_point_level(p) >= level)


# -- widths and fatness -------------------------------------------------------------

class TestWidths:
    def test_ball_widths(self):
        b = Ball((10, 10), 5)
        assert G.out_width(b) == 10
        assert G.in_width(b) == sqrt_exact(50)  # 10/sqrt(2) = 5*sqrt(2)
        assert G.in_width(b) ** 2 == 50
        assert G.fatness_sq(b) == 2

    def test_cube_widths(self):
        c = Cube((1, 1), 7)
        assert G.in_width(c) == G.out_width(c) == 7
        assert G.fatness_sq(c) == 1

    def test_box_widths(self):
        b = Box((0, 0), (3, 6))
        assert G.in_width(b) == 3
        assert G.out_width(b) == 6
        assert G.fatness_sq(b) == 4

    def test_inscribed_cube_of_ball_is_inside(self):
        b = Ball((8, 8), 8)
        ic = G.inscribed_cube(b)
        assert ic.width ** 2 == 128
        for corner in product(*((c, c + ic.width) for c in ic.corner)):
            # Closed corners sit on the sphere: distance exactly r.
            assert sum((x - c) ** 2 for x, c in zip(corner, b.center)) == 64

    def test_fatness_validation(self):
        with pytest.raises(FatnessViolation):
            G.validate_fatness(Ball((4, 4), 2), F(1))
        G.validate_fatness(Ball((4, 4), 2), F(2))


class TestDilate:
    def test_identity(self):
        b = Ball((4, 4), 2)
        assert G.dilate(b, 1, (0, 0)) == b

    def test_cube_shrink_shift(self):
        assert G.dilate(Cube((0, 0), 4), F(1, 2), (1, 1)) == Cube((1, 1), 2)

    def test_ball_affine(self):
        assert G.dilate(Ball((2, 2), 1), 3, (-1, 0)) == Ball((5, 6), 3)

    def test_fatness_preserved(self):
        o = Box((0, 0), (2, 5))
        assert G.fatness_sq(G.dilate(o, F(7, 3), (1, 2))) == G.fatness_sq(o)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            G.dilate(Ball((2, 2), 1), 0, (0, 0))


class TestGridValidation:
    def test_in_grid(self):
        g = GridSpec(2, 16)
        G.validate_in_grid(Cube((0, 0), 16), g)  # the whole cube is fine
        G.validate_in_grid(Ball((8, 8), 8), g)

    def test_out_of_grid(self):
        g = GridSpec(2, 16)
        with pytest.raises(GridBoundsError):
            G.validate_in_grid(Cube((1, 1), 16), g)
        with pytest.raises(GridBoundsError):
            G.validate_in_grid(Ball((8, 8), 9), g)
        with pytest.raises(GridBoundsError):
            G.validate_in_grid(Ball((8, 8, 8), 1), g)

    def test_box_near_wall_is_inside(self):
        # The centered enclosing cube leaves the grid, the box does not.
        g = GridSpec(2, 16)
        G.validate_in_grid(Box((0, 0), (1, 6)), g)


# -- the dyadic width bounds ----------------------------------------------------------

def random_objects(seed, count, N=32, d=2):
    """Mixed shapes with denominator-4 data, some deliberately aligned."""
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(["cube", "ball", "box"])
        w = F(rng.randint(2, 4 * N), 4)
        if w > N:
            continue
        if kind == "ball":
            r = w / 2
            c = tuple(F(rng.randint(int(4 * r), int(4 * (N - r))), 4)
                      for _ in range(d))
            o = Ball(c, r)
        elif kind == "cube":
            c = tuple(F(rng.randint(0, int(4 * (N - w))), 4) for _ in range(d))
            o = Cube(c, w)
        else:
            ws = tuple(F(rng.randint(int(2 * w), int(4 * w)), 4) for _ in range(d))
            if max(ws) > N:
                continue
            c = tuple(F(rng.randint(0, int(4 * (N - wi))), 4) for wi in ws)
            o = Box(c, ws)
        if G.has_grid_point(o):
            out.append(o)
    return out


class TestDyadicWidthBounds:
    def test_inscribed_width_at_most_next_dyadic(self):
        for o in random_objects(seed=3, count=400):
            level = G.object_level(o)
            assert G.in_width(o) <= F(2) ** (level + 1)

    def test_equality_needs_alignment(self):
        # Strictness holds unless the inscribed width is itself the dyadic
        # bound, and then some inscribed-cube corner coordinate is a
        # rational multiple of it; the aligned open cube attains the bound.
        equalities = 0
        for o in random_objects(seed=4, count=400):
            level = G.object_level(o)
            bound = F(2) ** (level + 1)
            if G.in_width(o) != bound:
                assert G.in_width(o) < bound
            else:
                equalities += 1
                corner = G.inscribed_cube(o).corner
                assert any(is_rational(c) and (F(c) / bound).denominator == 1
                           for c in corner), o
        assert equalities > 0
        aligned = Cube((0, 0), 4)
        assert G.object_level(aligned) == 1
        assert G.in_width(aligned) == F(2) ** 2  # bound attained exactly

    def test_enclosing_width_bound(self):
        for o in random_objects(seed=5, count=400):
            level = G.object_level(o)
            bound_sq = G.fatness_sq(o) * F(4) ** (level + 1)
            assert G.out_width(o) ** 2 <= bound_sq

    def test_max_level_points_capped(self):
        for o in random_objects(seed=6, count=400):
            level = G.object_level(o)
            cap = floor((4 * sqrt_exact(G.fatness_sq(o)) + 1) ** 2)
            assert len(G.points_of_level(o, level)) <= cap

    def test_cube_scan_respects_cap(self):
        # d=2 exhaustive at a small grid bound for both fatness classes.
        N = 32
        for fat in (F(1), sqrt_exact(2)):
            cap = floor((4 * fat + 1) ** 2)
            for level in range(GridSpec(2, N).level_bound + 1):
                width = floor(fat * (1 << (level + 2)))
                if width > N:
                    continue
                for cx in range(N - width + 1):
                    for cy in range(N - width + 1):
                        cube = Cube((cx, cy), width)
                        assert len(G.points_of_level(cube, level)) <= cap


# -- the stored form against Fraction references ------------------------------
#
# Each reference below computes from the exact scalars that a shape's
# properties rebuild (``corner``, ``width``, ``widths``, ``center``,
# ``radius``), with Fraction and SqrtExt arithmetic, as the shapes did
# before they were stored as numerators over one denominator.

def ref_extent(o):
    if isinstance(o, Cube):
        return [(c, c + o.width) for c in o.corner]
    if isinstance(o, Ball):
        return [(c - o.radius, c + o.radius) for c in o.center]
    return [(c, c + w) for c, w in zip(o.corner, o.widths)]


def ref_int_corners(o):
    ranges = [(max(1, floor(lo) + 1), ceil(hi) - 1) for lo, hi in ref_extent(o)]
    return None if any(a > b for a, b in ranges) else tuple(zip(*ranges))


def ref_enclosing_cube(o):
    if isinstance(o, Cube):
        return o
    if isinstance(o, Ball):
        return Cube(tuple(c - o.radius for c in o.center), 2 * o.radius)
    wmax = max(o.widths)
    return Cube(tuple(c - (wmax - w) / 2 for c, w in zip(o.corner, o.widths)),
                wmax)


def ref_inscribed_cube(o):
    if isinstance(o, Cube):
        return o
    if isinstance(o, Ball):
        half = o.radius / sqrt_exact(len(o.center))
        return Cube(tuple(c - half for c in o.center), 2 * half)
    wmin = min(o.widths)
    return Cube(tuple(c + (w - wmin) / 2 for c, w in zip(o.corner, o.widths)),
                wmin)


def ref_fatness_sq(o):
    if isinstance(o, Cube):
        return F(1)
    if isinstance(o, Ball):
        return F(len(o.center))
    r = max(o.widths) / min(o.widths)
    return r * r


def ref_dilate(o, beta, v):
    if isinstance(o, Cube):
        return Cube(tuple(beta * c + t for c, t in zip(o.corner, v)),
                    beta * o.width)
    if isinstance(o, Ball):
        return Ball(tuple(beta * c + t for c, t in zip(o.center, v)),
                    beta * o.radius)
    return Box(tuple(beta * c + t for c, t in zip(o.corner, v)),
               tuple(beta * w for w in o.widths))


def ref_find_empty_subcube(c, points):
    k = len(points)
    cell = c.width / (k + 1)
    corner = []
    for axis, base in enumerate(c.corner):
        blocked = set()
        for p in points:
            t = (p[axis] - base) / cell
            h = floor(t)
            if t != h and 0 <= h <= k:
                blocked.add(h)
        corner.append(base + min(set(range(k + 1)) - blocked) * cell)
    return Cube(tuple(corner), cell)


_DENS = st.sampled_from([1, 2, 3, 4, 6, 8, 64])
# Corners below 1, fractional ones, and ones up to 2**512.
_any_coord = (st.builds(F, st.integers(-24, 160), _DENS)
              | st.builds(F, st.integers(0, 2**512), _DENS))
_any_size = (st.builds(F, st.integers(1, 96), _DENS)
             | st.builds(F, st.integers(1, 2**512), _DENS))


@st.composite
def stored_shapes(draw, kinds=("cube", "box", "ball")):
    """A rational or irrational cube, box or ball in d = 1..3.  An
    irrational one adds multiples of sqrt(s) to its corner or center and
    its sizes, with s = max(d, 2), so that a ball's inscribed cube stays
    in one quadratic field."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(kinds))
    root = sqrt_exact(max(d, 2)) if draw(st.booleans()) else F(0)

    def shift(low=-3):
        return draw(st.integers(low, 3)) * root / draw(st.integers(1, 9))

    corner = tuple(draw(_any_coord) + shift() for _ in range(d))
    if kind == "cube":
        return Cube(corner, draw(_any_size) + shift(0))
    if kind == "ball":
        return Ball(corner, draw(_any_size) + shift(0))
    return Box(corner, tuple(draw(_any_size) + shift(0) for _ in range(d)))


@st.composite
def stored_shapes_with_points(draw):
    """A shape, and points around the ends of its integer ranges, some of
    them with fractional coordinates."""
    o = draw(stored_shapes())
    ends = [sorted({max(1, floor(lo)), floor(lo) + 1, ceil(hi) - 1, ceil(hi)})
            for lo, hi in ref_extent(o)]
    axes = [st.sampled_from(e) | st.integers(1, 20)
            | st.builds(lambda x, q: x + F(1, q), st.sampled_from(e),
                        st.integers(2, 5))
            for e in ends]
    return o, draw(st.lists(st.tuples(*axes), max_size=8))


class TestStoredForm:
    @settings(max_examples=300, deadline=None)
    @given(stored_shapes_with_points())
    def test_corners_and_membership(self, case):
        o, points = case
        corners = G.int_corners(o)
        assert corners == ref_int_corners(o)
        naive = _naive_ranges(o)
        if all(is_rational(v) for lo_hi in ref_extent(o) for v in lo_hi):
            assert corners == (None if not all(naive) else
                               tuple(zip(*((r[0], r[-1]) for r in naive))))
        elif corners is not None:
            assert all(r.start <= a <= b < r.stop
                       for r, a, b in zip(naive, *corners))
        for p in points:
            assert G.contains(o, p) == _naive_contains(o, p), p

    @settings(max_examples=300, deadline=None)
    @given(stored_shapes(), st.data())
    def test_grid_check_and_message(self, o, data):
        ext = ref_extent(o)
        top = max(ceil(hi) for _, hi in ext)
        N = data.draw(st.sampled_from(sorted({max(2, top + e)
                                              for e in (-1, 0, 1)})))
        grid = GridSpec(G.dimension(o), N)
        bad = [(lo, hi) for lo, hi in ext if lo < 0 or hi > N]
        if not bad:
            G.validate_in_grid(o, grid)
            return
        with pytest.raises(GridBoundsError) as info:
            G.validate_in_grid(o, grid)
        assert str(info.value) == (
            f"object extent [{bad[0][0]}, {bad[0][1]}] leaves [0, {N}]")

    @settings(max_examples=300, deadline=None)
    @given(stored_shapes(), st.data())
    def test_constructions(self, o, data):
        assert G.inscribed_cube(o) == ref_inscribed_cube(o)
        assert G.enclosing_cube(o) == ref_enclosing_cube(o)
        assert G.fatness_sq(o) == ref_fatness_sq(o)
        bound = data.draw(st.sampled_from([F(1), F(2), F(3), F(4), F(9, 4)]))
        if ref_fatness_sq(o) > bound:
            with pytest.raises(FatnessViolation):
                G.validate_fatness(o, bound)
        else:
            G.validate_fatness(o, bound)
        beta = data.draw(st.builds(F, st.integers(1, 2**70), _DENS))
        if data.draw(st.booleans()):
            beta += sqrt_exact(max(G.dimension(o), 2)) / 7
        v = tuple(data.draw(_any_coord) for _ in range(G.dimension(o)))
        got = G.dilate(o, beta, v)
        assert got == ref_dilate(o, beta, v)
        assert G.fit(o, G.enclosing_cube(o), G.enclosing_cube(got)) == got

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_empty_subcube_on_cell_boundaries(self, k, data):
        """Cubes whose cell boundaries fall on integers, or the inscribed
        cube of a ball, against points on those boundaries and around."""
        if data.draw(st.booleans()):
            m = data.draw(st.integers(1, 4) | st.integers(1, 2**300))
            corner = tuple(data.draw(st.integers(-3, 2**64))
                           for _ in range(data.draw(st.integers(1, 3))))
            c = Cube(corner, (k + 1) * m)
            coords = [[x + j * m + e for j in range(k + 2) for e in (-1, 0, 1)]
                      for x in corner]
        else:
            # A rational center is a cell boundary when k is odd.
            c = G.inscribed_cube(data.draw(stored_shapes(kinds=("ball",))))
            cell = c.width / (k + 1)
            coords = [[floor(x + j * cell) + e
                       for j in range(k + 2) for e in (0, 1)]
                      for x in c.corner]
        points = data.draw(st.lists(
            st.tuples(*(st.sampled_from(a) for a in coords)),
            min_size=k, max_size=k))
        got = find_empty_subcube(c, points)
        assert got == ref_find_empty_subcube(c, points)
        assert not any(G.contains(got, p) for p in points)

    @settings(max_examples=200, deadline=None)
    @given(stored_shapes(), st.integers(2, 12))
    def test_equal_values_store_equal_numbers(self, o, m):
        copies = [rebuilt(o), G.dilate(o, 1, (0,) * G.dimension(o))]
        if isinstance(o, Ball):
            copies.append(G.from_numerators(
                Ball, o.den * m, tuple(c * m for c in o.ctr), o.rad * m))
        else:
            copies.append(G.from_numerators(
                type(o), o.den * m, tuple(x * m for x in o.lo),
                tuple(x * m for x in o.hi)))
        for copy in copies:
            assert copy == o and hash(copy) == hash(o)
            assert (copy.den, G.int_corners(copy)) == (o.den, G.int_corners(o))

    def test_differently_written_scalars(self):
        r2 = sqrt_exact(2)
        pairs = [
            (Cube((1, F(2, 4)), 3), Cube((F(2, 2), F(1, 2)), F(6, 2))),
            (Box((0, F(3, 6)), (F(4, 2), 1)), Box((F(0), F(1, 2)), (2, F(5, 5)))),
            (Ball((sqrt_exact(8) / 2, 1), F(1, 2)), Ball((r2, F(3, 3)), F(2, 4))),
            (Cube((1 + r2 - 1, 0), 2 * r2), Cube((r2, 0), sqrt_exact(8))),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert a.den == b.den
        assert Cube((0, 0), 2) != Box((0, 0), (2, 2))
        assert Box((0, 0), (2, 2)) != Cube((0, 0), 2)
        assert Cube((0, 0), 2) != Cube((0, 0), 3)

    def test_shapes_are_immutable(self):
        o = Cube((0, 0), 2)
        with pytest.raises(AttributeError):
            o.den = 3
        with pytest.raises(AttributeError):
            o.corner = (1, 1)
