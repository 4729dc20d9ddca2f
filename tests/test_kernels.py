"""Lattice enumeration kernels: the public ``geometry`` queries on balls
and boxes must match a filter-everything oracle, stay exact on huge
denominators and ``isqrt`` boundaries, stay lazy on huge objects, and
leave no cyclic garbage."""

import gc
import math
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gridhit import geometry as G, harness
from gridhit.errors import EmptyObjectError
from gridhit.exactnum import sqrt_exact
from gridhit.geometry import Ball, Box, Cube

F = Fraction


def naive_ball_points(cnum, den, rnum):
    """Integer points x >= 1 with sum((x*den - c)**2) < rnum**2, by
    filtering the ball's bounding box."""
    axes = [range(max(1, (c - rnum) // den), (c + rnum) // den + 1)
            for c in cnum]
    return [p for p in product(*axes)
            if sum((x * den - c) ** 2 for x, c in zip(p, cnum)) < rnum * rnum]


def naive_level(i):
    level = 0
    while i % 2 == 0:
        i //= 2
        level += 1
    return level


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
    return [p for p in product(*harness._naive_ranges(ball))
            if harness._naive_contains(ball, p)]


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


class TestPureKernels:
    """Every query through the one row primitive, against naive filters."""

    def test_int_level_examples(self):
        assert G.int_level(8) == 3
        assert G.int_level(1) == 0
        assert G.int_level(12) == 2
        with pytest.raises(ValueError):
            G.int_level(0)
        with pytest.raises(ValueError):
            G.int_level(-4)

    @given(st.integers(1, 1 << 40))
    def test_int_level_matches_division_loop(self, i):
        assert G.int_level(i) == naive_level(i)

    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4))
    def test_point_level_is_min(self, coords):
        assert G.point_level(tuple(coords)) == \
            min(naive_level(c) for c in coords)

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
                if min(naive_level(c) for c in p) == level]
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
        assert G.object_level(ball) == \
            max(min(naive_level(c) for c in p) for p in pts)

    @given(st.integers(1, 3), st.integers(0, 4), st.integers(1, 30),
           st.integers(0, 40))
    def test_box_points_of_level(self, d, level, span, offset):
        # The open box (offset, offset + span + 1)^d holds the integers
        # offset+1 .. offset+span on every axis.
        box = Box((offset,) * d, (span + 1,) * d)
        axis = range(1 + offset, offset + span + 1)
        want = [p for p in product(axis, repeat=d)
                if min(naive_level(c) for c in p) == level]
        assert G.points_of_level(box, level) == want


class TestDispatch:
    """Rational balls take the exact ``isqrt`` rows whatever their size."""

    def test_large_denominator_takes_pure_path(self):
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

    def test_guard_boundary_is_exact(self):
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
        assert abs(n - math.pi * float(r) ** 2) < 4 * float(r)

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
