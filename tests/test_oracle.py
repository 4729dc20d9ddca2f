"""Offline optimum: reduction soundness, branch and bound vs brute force."""

import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest

from gridhit import geometry as G, harness, oracle
from gridhit.errors import EmptyObjectError
from gridhit.exactnum import sqrt_exact
from gridhit.geometry import Ball, Box, Cube
from gridhit.harness import gen_random
from gridhit.oracle import (
    ReducedInstance,
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


def masks_by_point(objects):
    """Naive oracle for ``reduce_instance``'s row sweep: each grid point's
    mask of the objects holding it, in a dict."""
    masks = {}
    for i, o in enumerate(objects):
        for p in G.grid_points_in(o):
            masks[p] = masks.get(p, 0) | 1 << i
    return masks


def undominated(points, signatures):
    """The (point, signature) pairs whose signature is a strict subset of
    no other, in point order."""
    return sorted((p, s) for p, s in zip(points, signatures)
                  if not any(s & t == s != t for t in signatures))


def reduce_by_points(masks):
    """Each distinct mask at its smallest point, dominated ones dropped."""
    best = {}
    for p in sorted(masks):
        best.setdefault(masks[p], p)
    return undominated(best.values(), list(best))


def assert_matches_points(red, masks):
    """Every candidate carries its point's mask, and the candidates left
    by the naive dominance are the per-point reduction."""
    assert red.full_mask == (1 << len(red.objects)) - 1
    assert red.candidates == sorted(red.candidates)
    for p, sig in zip(red.candidates, red.signatures):
        assert masks.get(p) == sig, (p, red.objects)
    assert undominated(red.candidates, red.signatures) == \
        reduce_by_points(masks), red.objects


def assert_sweep_matches_points(objects):
    assert_matches_points(reduce_instance(objects), masks_by_point(objects))


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


def bitmask_instance(signatures, m):
    """A ``ReducedInstance`` straight from signatures over m objects; the
    candidate points are (index,)."""
    return ReducedInstance([None] * m, [(i,) for i in range(len(signatures))],
                           list(signatures))


def stabbing_optimum(objects):
    """A minimum hitting set of d = 1 objects, each an interval of
    integers, by greedy stabbing: by right end, take the right end of
    every interval that starts after the last point taken.  The intervals
    come from ``harness._naive_ranges``, exact for rational shapes."""
    points = []
    for r in sorted((harness._naive_ranges(o)[0] for o in objects),
                    key=lambda r: r.stop):
        if not points or points[-1][0] < r.start:
            points.append((r.stop - 1,))
    return points


def covers(inst, res):
    hit = reduce(or_, (inst.signatures[p[0]] for p in res.points), 0)
    return hit == inst.full_mask


def random_set_cover(rng):
    """One to three disconnected blocks of three to six candidates, at
    most 12 in all.  Most objects take two or three candidates of their
    block, which the reductions seldom remove; some take one (forced) and
    some a superset of an earlier object's (dominated)."""
    sizes = [rng.randint(3, 6) for _ in range(rng.randint(1, 3))]
    while sum(sizes) > 12:
        sizes.pop()
    sigs = [0] * sum(sizes)
    m = lo = 0
    for size in sizes:
        block = range(lo, lo + size)
        lo += size
        previous = []
        for _ in range(rng.randint(2, 8)):
            kind = rng.random()
            if kind < 0.1:
                chosen = {rng.choice(block)}
            elif kind < 0.2 and previous:
                chosen = rng.choice(previous) | {rng.choice(block)}
            else:
                chosen = set(rng.sample(block, 2 + (kind < 0.4)))
            previous.append(chosen)
            for c in chosen:
                sigs[c] |= 1 << m
            m += 1
    return bitmask_instance(sigs, m)


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
        # The small cube's point also hits the big one.  A third, apart,
        # rules out a common point: the sweep keeps the big cube's first
        # point, which the solver's reductions drop.
        big = Cube((0, 0), 8)
        small = Cube((2, 2), 2)
        apart = Cube((10, 10), 2)
        red = reduce_instance([big, small, apart])
        assert red.candidates == [(1, 1), (3, 3), (11, 11)]
        assert red.signatures == [1, 3, 4]
        assert exact_min_hitting_set(red).points == ((3, 3), (11, 11))

    def test_nested_chain_collapses_to_full_cover(self):
        chain = [Cube((0, 0), 16), Cube((2, 2), 10), Cube((4, 4), 4)]
        red = reduce_instance(chain)
        assert len(red.candidates) == 1
        assert red.signatures == [7]
        assert G.contains(chain[0], red.candidates[0])

    def test_empty_object_rejected(self):
        with pytest.raises(EmptyObjectError):
            reduce_instance([Cube((0, 0), 1)])

    def test_first_empty_object_is_named(self):
        # The ball's integer corners span 1..2 on both axes, but all four
        # of those points lie sqrt(1/2) > 7/10 from its center.
        objects = [Cube((0, 0), 4), Ball((F(3, 2), F(3, 2)), F(7, 10)),
                   Cube((0, 0), 1)]
        assert G.int_corners(objects[1]) == ((1, 1), (2, 2))
        with pytest.raises(EmptyObjectError, match=r"^object 1 "):
            reduce_instance(objects)
        # Without the third cube the corners overlap, and the full-cover
        # scan of the ball finds no point.
        with pytest.raises(EmptyObjectError, match=r"^object 1 "):
            reduce_instance(objects[:2])

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

    def test_disjoint_corners_need_no_exact_scalars(self, monkeypatch):
        # A dense pool instance: the objects' integer corners share no
        # point, so the full-cover search stops on ints, and the sweep
        # reads ball rows from isqrt alone.
        objects = gen_random(2, 44, SQRT2, count=80, seed=0, min_width=6,
                             max_width=16).objects
        lows, highs = zip(*map(G.int_corners, objects))
        assert any(max(lo) > min(hi) for lo, hi in zip(zip(*lows), zip(*highs)))
        masks = masks_by_point(objects)

        def refuse(*args):
            raise AssertionError("exact scalar predicate called")

        for name in ("contains", "out_width", "has_grid_point"):
            monkeypatch.setattr(G, name, refuse)
        assert_matches_points(reduce_instance(objects), masks)


def common_point_instances(d):
    """Object lists sharing a grid point: nested cube chains, a ball
    inside a box, irrational balls, and overlapping pairs whose common
    points lie many points past the first object's first point (narrower at
    d = 3, where the per-point oracle would take seconds)."""
    third = F(1, 3)
    yield [Cube((k + third,) * d, 16 - 2 * k) for k in (0, 2, 4, 6)]
    yield [Cube((0,) * d, 2), Cube((0,) * d, 3), Cube((F(1, 2),) * d, 9)]
    yield [Box((0,) * d, (12,) + (10,) * (d - 1)), Ball((F(11, 2),) * d, F(5, 2))]
    yield [Ball((5 + SQRT2 / 3,) + (5,) * (d - 1), 3),
           Ball((6,) * d, F(7, 2)), Ball((5 + SQRT2 / 7,) * d, 2),
           Cube((F(7, 2),) * d, 3)]
    w = 128 if d < 3 else 32
    yield [Cube((0,) * d, w), Cube((w // 2,) + (0,) * (d - 1), w)]
    r = w // 2
    yield [Ball((r,) * d, r), Ball((5 * r // 2,) + (r,) * (d - 1), r)]


class TestFullCover:
    """The full-cover shortcut gives what the sweep would."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_shortcut_matches_sweep(self, d, monkeypatch):
        for objects in common_point_instances(d):
            red = reduce_instance(objects)
            assert red.signatures == [red.full_mask], objects
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "_find_full_cover", lambda objects: None)
                swept = reduce_instance(objects)
            masks = masks_by_point(objects)
            assert_matches_points(red, masks)
            assert_matches_points(swept, masks)


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

    @pytest.mark.parametrize("objects, point", [
        ([Cube((0, 0), 1 << 20), Cube((1 << 19, 1 << 19), 1 << 20)],
         ((1 << 19) + 1, (1 << 19) + 1)),
        # The second ball's first row, which the first ball holds.
        ([Ball((1 << 17, 1 << 17), 1 << 17), Ball((3 << 16, 3 << 16), 1 << 17)],
         (65537, 196097)),
    ])
    def test_overlapping_pair(self, objects, point):
        t0 = time.perf_counter()
        red = reduce_instance(objects)
        assert time.perf_counter() - t0 < 1.0
        assert red.candidates == [point] and red.signatures == [3]

    def test_ball_inside_huge_cube(self):
        # The intersection box is the ball's; its first points miss the
        # ball, so the search must walk the ball's rows, not the box.
        t0 = time.perf_counter()
        red = reduce_instance([Cube((0, 0, 0), 1 << 40),
                               Ball((1 << 39,) * 3, 1 << 38)])
        assert time.perf_counter() - t0 < 1.0
        assert len(red.candidates) == 1 and red.signatures == [3]


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
        # The reductions alone solve this one: no node is needed.
        objects = next(small_instances(1, seed=11))
        res = exact_min_hitting_set(reduce_instance(objects), budget=0)
        assert res.exact and res.lower_bound == res.size
        # This one leaves a component that needs a search.
        objects = gen_random(2, 41, SQRT2, ("ball", "cube", "box"), 80,
                             seed=1, min_width=6, max_width=16).objects
        red = reduce_instance(objects)
        res = exact_min_hitting_set(red, budget=0)
        assert not res.exact
        assert res.lower_bound < res.size
        assert verify_hitting_set(objects, res.points)
        full = exact_min_hitting_set(red)
        assert full.exact and res.lower_bound <= full.size <= res.size

    def test_equal_candidates_keep_the_smaller_point(self):
        # Object 1's only candidate (2,) is forced and hits object 2 too.
        # That leaves object 0, hit by (0,) and (1,) alike; the smaller
        # point is kept.
        inst = bitmask_instance([0b101, 0b001, 0b110], 3)
        assert exact_min_hitting_set(inst).points == ((0,), (2,))

    def test_one_budget_covers_all_components(self):
        """Three triangles (three objects, each pair sharing a candidate,
        optimum 2, disjointness bound 1) and one forced candidate.  Each
        triangle takes one node to prove, so the budget decides how many
        finish; the bounds stay honest either way."""
        triangle = [0b011, 0b110, 0b101]
        sigs = [sig << 3 * t for t in range(3) for sig in triangle] + [1 << 9]
        inst = bitmask_instance(sigs, 10)
        for budget in range(5):
            res = exact_min_hitting_set(inst, budget=budget)
            assert covers(inst, res)
            assert res.size == 7
            assert res.lower_bound == 4 + min(budget, 3)
            assert res.exact == (budget >= 3)

    def test_random_set_covers_match_exhaustive(self):
        """Small set-cover instances with forced, dominated and
        disconnected parts: the optimum matches brute force, covers, and
        sits between the lower bound and greedy."""
        rng = random.Random(5)
        for _ in range(1000):
            inst = random_set_cover(rng)
            res = exact_min_hitting_set(inst)
            ex = exhaustive_min_hitting_set(inst)
            greedy = greedy_hitting_set(inst)
            assert res.exact and res.size == ex.size, inst
            assert covers(inst, res)
            assert res.lower_bound <= res.size <= greedy.size
            assert res.points == tuple(sorted(res.points))

    def test_five_hundred_objects_certified(self):
        """500 objects, 2268 swept candidates (821 undominated): plain
        branch and bound was still inexact after 100k nodes and 10 s."""
        inst = gen_random(2, 256, SQRT2, ("ball", "cube", "box"), 500,
                          seed=1, max_width=64)
        red = reduce_instance(inst.objects)
        assert len(red.candidates) == 2268
        t0 = time.perf_counter()
        res = exact_min_hitting_set(red)
        assert time.perf_counter() - t0 < 2.0
        assert res.exact and res.size == res.lower_bound == 238
        assert verify_hitting_set(inst.objects, res.points)

    def test_three_thousand_objects_certified(self):
        """The engine's scale: 3000 objects, nearly all in one component,
        reduced and solved exactly within a generous time guard, then
        verified against the optimum's points."""
        inst = gen_random(2, 256, SQRT2, count=3000, seed=1, max_width=64)
        t0 = time.perf_counter()
        res = exact_min_hitting_set(reduce_instance(inst.objects))
        assert time.perf_counter() - t0 < 8.0
        assert res.exact and res.size == res.lower_bound == 1025
        assert verify_hitting_set(inst.objects, res.points)

    @pytest.mark.parametrize("N, opt", [(1 << 16, 4422), (4096, 1539)])
    def test_ten_thousand_intervals_match_stabbing(self, N, opt):
        """10^4 objects in d = 1: the exact optimum, within a time guard,
        has the size greedy stabbing gives, and both sets hit every
        object."""
        inst = gen_random(1, N, 2, ("ball", "cube", "box"), 10_000, seed=1,
                          max_width=64)
        stab = stabbing_optimum(inst.objects)
        t0 = time.perf_counter()
        res = exact_min_hitting_set(reduce_instance(inst.objects))
        assert time.perf_counter() - t0 < 5.0
        assert res.exact and res.size == len(stab) == opt
        assert verify_hitting_set(inst.objects, stab)
        assert verify_hitting_set(inst.objects, res.points)

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

    def test_matches_every_pair(self):
        """Against ``contains`` over every (object, point) pair, with point
        sets drawn near the objects and unsorted; objects with no grid
        point are included."""
        rng = random.Random(23)
        for objects in small_instances(60, seed=29):
            objects = objects + [Cube((F(1, 4), 3), F(1, 2))]
            pts = [(rng.randint(1, 20), rng.randint(1, 20))
                   for _ in range(rng.randint(0, 12))]
            for k in range(len(objects)):
                part = objects[:k + 1]
                assert verify_hitting_set(part, pts) == all(
                    any(G.contains(o, p) for p in pts) for o in part)
