"""Offline optimum: reduction soundness, branch and bound vs brute force."""

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest

from gridhit import geometry as G
from gridhit.errors import EmptyObjectError
from gridhit.exactnum import sqrt_exact
from gridhit.geometry import Ball, Box, Cube
from gridhit.harness import gen_random
from gridhit.oracle import (
    exact_min_hitting_set,
    exhaustive_min_hitting_set,
    greedy_hitting_set,
    reduce_instance,
    verify_hitting_set,
)

F = Fraction
SQRT2 = sqrt_exact(2)


def raw_brute_force_opt(objects):
    """Independent optimum over the raw candidate points (no reduction).
    Each point's mask of the objects containing it is computed once with
    ``contains``; a subset hits all objects iff its masks OR to full."""
    points = sorted(set().union(*(G.grid_points_in(o) for o in objects)))
    masks = [sum(1 << i for i, o in enumerate(objects) if G.contains(o, p))
             for p in points]
    full = (1 << len(objects)) - 1
    for size in range(0, len(points) + 1):
        for combo in combinations(masks, size):
            if reduce(or_, combo, 0) == full:
                return size
    raise AssertionError("infeasible instance")


def reduce_by_points(objects):
    """Naive oracle for ``reduce_instance``'s row sweep: a signature per
    grid point in a dict, then the same deduplication and dominance."""
    masks = {}
    for i, o in enumerate(objects):
        for p in G.grid_points_in(o):
            masks[p] = masks.get(p, 0) | 1 << i
    best = {}
    for p in sorted(masks):
        best.setdefault(masks[p], p)
    kept = []
    for sig in sorted(best, key=lambda s: (-bin(s).count("1"), best[s])):
        if not any(sig & other == sig for other in kept):
            kept.append(sig)
    pairs = sorted((best[sig], sig) for sig in kept)
    return [p for p, _ in pairs], [sig for _, sig in pairs], (1 << len(objects)) - 1


def assert_sweep_matches_points(objects):
    red = reduce_instance(objects)
    assert (red.candidates, red.signatures, red.full_mask) == \
        reduce_by_points(objects), objects


def random_object(rng, d):
    """A cube, box, rational ball or SqrtExt-centred ball inside (0, 26)^d."""
    kind = rng.choice(("cube", "box", "ball", "irrational-ball"))
    corner = tuple(F(rng.randrange(0, 64), 4) for _ in range(d))
    if kind == "cube":
        return Cube(corner, F(rng.randrange(4, 40), 4))
    if kind == "box":
        return Box(corner, tuple(F(rng.randrange(4, 40), 4) for _ in range(d)))
    radius = F(rng.randrange(3, 20), 4)
    center = tuple(c + radius for c in corner)
    if kind == "ball":
        return Ball(center, radius)
    return Ball((center[0] + SQRT2 / 7,) + center[1:], radius)


def small_instances(count, seed=0):
    rng = random.Random(seed)
    made = 0
    attempt = 0
    while made < count:
        attempt += 1
        inst = gen_random(2, 20, SQRT2, ("ball", "cube", "box"),
                          2 + (seed + attempt) % 4, seed=seed * 1000 + attempt,
                          max_width=7)
        made += 1
        yield inst.objects


class TestReduce:
    def test_single_object_collapses(self):
        red = reduce_instance([Ball((4, 4), F(5, 2))])
        assert len(red.candidates) == 1
        assert red.signatures == [1]

    def test_disjoint_objects_stay_separate(self):
        red = reduce_instance([Cube((0, 0), 2), Cube((4, 4), 2)])
        assert len(red.candidates) == 2
        assert sorted(red.signatures) == [1, 2]

    def test_dominance_pruning(self):
        # The small cube's points also hit the big one: the private points
        # of the big cube are dominated away.
        big = Cube((0, 0), 8)
        small = Cube((2, 2), 2)
        red = reduce_instance([big, small])
        assert red.candidates == [(3, 3)]
        assert red.signatures == [3]

    def test_nested_chain_collapses_to_full_cover(self):
        chain = [Cube((0, 0), 16), Cube((2, 2), 10), Cube((4, 4), 4)]
        red = reduce_instance(chain)
        assert len(red.candidates) == 1
        assert red.signatures == [7]
        assert G.contains(chain[0], red.candidates[0])

    def test_empty_object_rejected(self):
        with pytest.raises(EmptyObjectError):
            reduce_instance([Cube((0, 0), 1)])

    def test_empty_list(self):
        red = reduce_instance([])
        assert red.candidates == [] and red.full_mask == 0

    def test_reduction_preserves_optimum(self):
        for objects in small_instances(20, seed=3):
            red = reduce_instance(objects)
            got = exact_min_hitting_set(red)
            assert got.exact
            assert got.size == raw_brute_force_opt(objects)
            assert verify_hitting_set(objects, got.points)


class TestSweep:
    """``reduce_instance`` against the dict reduction, exactly."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_shapes(self, d):
        rng = random.Random(d)
        compared = 0
        for _ in range(40):
            objects = [random_object(rng, d) for _ in range(rng.randrange(1, 7))]
            if all(G.has_grid_point(o) for o in objects):
                assert_sweep_matches_points(objects)
                compared += 1
        assert compared >= 20

    def test_touching_intervals(self):
        # Each object's row ends at b and the next one's starts at b + 1.
        assert_sweep_matches_points([Cube((0,), 3), Cube((2,), 3), Cube((4,), 2)])
        assert_sweep_matches_points([Box((0, 0), (4, 3)), Box((1, 2), (3, 3)),
                                     Box((0, 4), (4, 2))])
        assert_sweep_matches_points([Ball((3, 3), 2), Cube((1, 4), 4),
                                     Ball((3 + SQRT2 / 5, 9), 2)])

    def test_nested_and_duplicate_objects(self):
        outer = Cube((0, 0), 12)
        inner = Box((F(5, 2), 1), (3, 6))
        side = Cube((10, 10), 3)
        assert_sweep_matches_points([outer, inner, side])
        assert_sweep_matches_points([outer, outer, side, side])
        assert_sweep_matches_points([side, Ball((11, 11), F(3, 2)), side])

    def test_pools(self):
        for objects in small_instances(30, seed=21):
            assert_sweep_matches_points(objects)


class TestLargeObjects:
    """Reduction cost grows with rows, not with area."""

    @pytest.mark.parametrize("objects", [
        [Cube((0, 0), 1 << 14), Cube((1 << 14, 1 << 14), 1 << 14)],
        [Ball((1 << 12, 1 << 12), 1 << 12), Ball((3 << 12, 3 << 12), 1 << 12)],
    ])
    def test_disjoint_pair(self, objects):
        t0 = time.perf_counter()
        red = reduce_instance(objects)
        assert time.perf_counter() - t0 < 1.0
        assert red.signatures == [1, 2]
        assert all(G.contains(o, p) for o, p in zip(objects, red.candidates))

    def test_full_cover_scan_is_lazy(self):
        t0 = time.perf_counter()
        red = reduce_instance([Cube((0, 0), 1 << 20)])
        assert time.perf_counter() - t0 < 1.0
        assert red.candidates == [(1, 1)] and red.signatures == [1]


class TestExact:
    def test_single_object(self):
        red = reduce_instance([Ball((4, 4), F(5, 2))])
        assert exact_min_hitting_set(red).size == 1

    def test_matches_exhaustive_on_small_instances(self):
        compared = 0
        for objects in small_instances(60, seed=7):
            red = reduce_instance(objects)
            if len(red.candidates) > 12:
                continue
            compared += 1
            bb = exact_min_hitting_set(red)
            ex = exhaustive_min_hitting_set(red)
            assert bb.exact
            assert bb.size == ex.size
        assert compared >= 30

    def test_budget_exhaustion_returns_bounds(self):
        objects = next(small_instances(1, seed=11))
        red = reduce_instance(objects)
        res = exact_min_hitting_set(red, budget=0)
        assert not res.exact
        assert res.lower_bound <= res.upper_bound == res.size
        assert verify_hitting_set(objects, res.points)

    def test_deterministic_tie_break(self):
        objects = [Cube((0, 0), 4), Cube((4, 4), 4)]
        a = exact_min_hitting_set(reduce_instance(objects))
        b = exact_min_hitting_set(reduce_instance(objects))
        assert a == b
        assert a.points == tuple(sorted(a.points))


class TestGreedy:
    def test_single_object(self):
        red = reduce_instance([Cube((0, 0), 4)])
        assert greedy_hitting_set(red).size == 1

    def test_disjoint_objects_need_one_each(self):
        objects = [Cube((4 * i, 0), 2) for i in range(5)]
        red = reduce_instance(objects)
        res = greedy_hitting_set(red)
        assert res.size == 5
        assert res.exact  # matches the disjointness lower bound

    def test_sandwich(self):
        import math
        for objects in small_instances(25, seed=13):
            red = reduce_instance(objects)
            bb = exact_min_hitting_set(red)
            greedy = greedy_hitting_set(red)
            assert bb.lower_bound <= bb.size <= greedy.size
            assert greedy.size <= bb.size * (math.log(len(objects)) + 1)
            assert verify_hitting_set(objects, greedy.points)


class TestVerify:
    def test_empty_set_fails(self):
        assert not verify_hitting_set([Cube((0, 0), 4)], [])

    def test_exact_result_always_verifies(self):
        for objects in small_instances(10, seed=17):
            res = exact_min_hitting_set(reduce_instance(objects))
            assert verify_hitting_set(objects, res.points)

    def test_boundary_points_do_not_hit(self):
        assert not verify_hitting_set([Cube((2, 2), 2)], [(2, 2), (4, 4)])
        assert verify_hitting_set([Cube((2, 2), 2)], [(3, 3)])
