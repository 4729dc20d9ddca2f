"""Levels, widths, enumeration, and the dyadic counting bounds.

Expected values for the non-trivial cases are frozen from the naive
oracles defined at the top of this file (filter-everything enumeration,
division-loop levels); the fast paths must reproduce them.
"""

import dataclasses
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from gridhit import geometry as G
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


def naive_contains(o, p):
    if isinstance(o, Cube):
        return all(c < x < c + o.width for c, x in zip(o.corner, p))
    if isinstance(o, Ball):
        return sum((F(x) - c) ** 2 for c, x in zip(o.center, p)) < o.radius ** 2
    return all(c < x < c + w for c, x, w in zip(o.corner, p, o.widths))


def naive_interior(o, bound=80):
    d = G.dimension(o)
    return [p for p in product(range(1, bound), repeat=d) if naive_contains(o, p)]


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
        with pytest.raises(ValueError):
            G.int_level(0)
        with pytest.raises(ValueError):
            G.int_level(-8)

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
        pts = [p for p in product(*box) if naive_contains(b, p)]
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
    corners = G.int_corners(dataclasses.replace(o)) or ((1,) * d,) * 2
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
        assert G.int_corners(dataclasses.replace(o)) == stored

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
