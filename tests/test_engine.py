"""Online engine: decisions, invariants, the per-level proof check,
determinism."""

import math
import time
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import le

import pytest

from gridhit import geometry as G
from gridhit import oracle
from gridhit.engine import Added, AlreadyHit, EngineState, check_ratio_bound
from gridhit.errors import (
    EmptyObjectError,
    FatnessViolation,
    GridBoundsError,
    InvariantViolation,
)
from gridhit.exactnum import sqrt_exact
from gridhit.geometry import Ball, Cube, GridSpec
from gridhit.harness import gen_random

F = Fraction
SQRT2 = sqrt_exact(2)

GRID16 = GridSpec(2, 16)


def dense_counts(eng):
    """Test-only reference for the engine's proof check: per (level,
    point), the number of objects filed in ``eng.unhit`` that contain the
    point, counted point by point."""
    return Counter((level, p) for level, same in eng.unhit.items()
                   for o in same for p in G.grid_points_in(o))


def process_all(eng, objects):
    """Process the objects in order and check that ``eng.unhit`` files
    exactly those that were unhit at arrival, under their level, sorted
    by their low corner's first coordinate, ties in arrival order."""
    expected = {}
    for o in objects:
        decision = eng.process(o)
        if isinstance(decision, Added):
            expected.setdefault(decision.level, []).append(o)
    for same in expected.values():
        same.sort(key=lambda q: G.int_corners(q)[0][0])
    assert eng.unhit == expected


def fuzz_instances(n=25):
    for i in range(n):
        N = (16, 32, 64)[i % 3]
        fat, shapes = ((F(1), ("cube",)), (SQRT2, ("ball", "cube", "box")),
                       (F(2), ("ball", "cube", "box")))[i % 3]
        yield gen_random(2, N, fat, shapes, 6 + i % 5, seed=900 + i)


def five_objects_two_hubs():
    """Five width-2 cubes around the hubs (5,5) and (11,11): the engine
    spends one fresh level-1 point per object while the two hubs suffice
    offline."""
    return [
        Cube((F(7, 2), F(9, 2)), 2),
        Cube((F(9, 2), F(7, 2)), 2),
        Cube((F(9, 2), F(9, 2)), 2),
        Cube((F(19, 2), F(21, 2)), 2),
        Cube((F(21, 2), F(19, 2)), 2),
    ]


def replay_runs():
    """Seeded runs of 400 cubes, boxes and balls at d = 1, 2 and 3, each
    also translated by 2**63 per axis onto the grid N = 2**64, which
    keeps every level and every decision: 2400 objects in all."""
    for i, (d, N, max_width) in enumerate([(1, 64, 16), (2, 128, 32),
                                           (3, 32, 16)]):
        inst = gen_random(d, N, 2, ("ball", "cube", "box"), 400,
                          seed=40 + i, max_width=max_width)
        yield inst.grid, inst.objects
        unit, far = Cube((0,) * d, 1), Cube((2**63,) * d, 1)
        yield GridSpec(d, 2**64), [G.fit(o, unit, far) for o in inst.objects]


class TestConstruction:
    def test_fresh_engine_is_empty(self):
        eng = EngineState(GRID16, SQRT2)
        assert eng.chosen == []
        assert eng.unhit == {} and eng.already_hit_count == 0

    def test_one_dimensional_engine(self):
        eng = EngineState(GridSpec(1, 4), 1)
        assert eng.process(Cube((0,), 4)) == Added(((2,),), 1)

    def test_fatness_below_one_rejected(self):
        with pytest.raises(ValueError):
            EngineState(GRID16, F(1, 2))

    def test_step_cap_values(self):
        assert EngineState(GRID16, 1).step_cap == 25
        assert EngineState(GRID16, SQRT2).step_cap == 44
        assert EngineState(GridSpec(3, 16), sqrt_exact(3)).step_cap == 498


class TestProcess:
    def test_ball_adds_unique_max_level_point(self):
        eng = EngineState(GRID16, SQRT2)
        assert eng.process(Ball((4, 4), F(5, 2))) == Added(((4, 4),), 2)

    def test_resubmission_is_already_hit(self):
        eng = EngineState(GRID16, SQRT2)
        o = Ball((4, 4), F(5, 2))
        eng.process(o)
        assert eng.process(o) == AlreadyHit()
        assert eng.chosen == [(4, 4)]
        assert eng.already_hit_count == 1

    def test_single_point_object(self):
        eng = EngineState(GRID16, SQRT2)
        assert eng.process(Cube((0, 0), 2)) == Added(((1, 1),), 0)

    def test_empty_object_rejected(self):
        eng = EngineState(GRID16, SQRT2)
        with pytest.raises(EmptyObjectError):
            eng.process(Cube((0, 0), 1))

    def test_fatness_violation(self):
        eng = EngineState(GRID16, 1)
        with pytest.raises(FatnessViolation):
            eng.process(Ball((8, 8), 2))

    def test_out_of_grid(self):
        eng = EngineState(GRID16, SQRT2)
        with pytest.raises(GridBoundsError):
            eng.process(Ball((8, 8), 9))

    def test_already_hit_leaves_state_unchanged(self):
        eng = EngineState(GRID16, SQRT2)
        eng.process(Ball((4, 4), F(5, 2)))
        unhit_before = {lvl: list(same) for lvl, same in eng.unhit.items()}
        counts_before = dense_counts(eng)
        eng.process(Ball((4, 4), 2))  # contains (4,4)
        assert eng.chosen == [(4, 4)]
        assert eng.unhit == unhit_before
        assert dense_counts(eng) == counts_before

    def test_missed_hit_is_caught_as_a_re_add(self, monkeypatch):
        eng = EngineState(GRID16, SQRT2)
        o = Ball((4, 4), F(5, 2))
        eng.process(o)
        monkeypatch.setattr(eng, "is_hit", lambda o: False)
        with pytest.raises(InvariantViolation, match="re-added"):
            eng.process(o)
        assert eng.chosen == [(4, 4)]

    def test_added_points_share_object_level(self):
        eng = EngineState(GRID16, SQRT2)
        decision = eng.process(Cube((F(1, 2), F(1, 2)), 7))
        assert isinstance(decision, Added)
        assert decision.level == 2
        assert all(G.point_level(p) == 2 for p in decision.points)
        assert list(decision.points) == sorted(decision.points)


class TestRunInvariants:
    def test_hits_everything_it_saw(self):
        for inst in fuzz_instances():
            eng = EngineState(inst.grid, inst.fatness)
            for o in inst.objects:
                eng.process(o)
            assert oracle.verify_hitting_set(inst.objects, eng.chosen)

    def test_chosen_is_the_sorted_added_points(self):
        for inst in fuzz_instances():
            eng = EngineState(inst.grid, inst.fatness)
            added = [p for o in inst.objects
                     if isinstance(d := eng.process(o), Added)
                     for p in d.points]
            assert eng.chosen == sorted(eng.chosen) == sorted(added)

    def test_step_bound_and_counter_caps(self):
        for inst in fuzz_instances():
            eng = EngineState(inst.grid, inst.fatness)
            for o in inst.objects:
                decision = eng.process(o)
                if isinstance(decision, Added):
                    assert len(decision.points) <= eng.step_cap
                    worst = max(dense_counts(eng).values())
                    assert worst <= eng.step_cap

    def test_replay_reproduces_run(self):
        for inst in fuzz_instances(10):
            runs = []
            for _ in range(2):
                eng = EngineState(inst.grid, inst.fatness)
                decisions = [eng.process(o) for o in inst.objects]
                runs.append((decisions, eng.chosen))
            assert runs[0] == runs[1]

    def test_counts_only_mode(self):
        """The engine keeps counts and the unhit lists, no per-step
        records."""
        for inst in fuzz_instances(5):
            eng = EngineState(inst.grid, inst.fatness)
            process_all(eng, inst.objects)
            filed = sum(len(same) for same in eng.unhit.values())
            assert filed + eng.already_hit_count == len(inst.objects)

    def test_large_grid_in_bounded_time(self):
        """N = 16384: the check costs nothing per point, so 30 objects of
        up to the grid's width take milliseconds, not memory in
        proportion to their area."""
        inst = gen_random(2, 16384, SQRT2, count=30, seed=7)
        eng = EngineState(inst.grid, inst.fatness)
        start = time.perf_counter()
        for o in inst.objects:
            eng.process(o)
        assert time.perf_counter() - start < 1.0
        filed = sum(len(same) for same in eng.unhit.values())
        assert filed + eng.already_hit_count == len(inst.objects) == 30

    def test_long_run_in_bounded_time(self):
        """3000 objects: each hit test compares plain ints against the
        chosen points, so the run takes well under a second, where exact
        scalar membership tests took about 10 s."""
        inst = gen_random(2, 256, SQRT2, count=3000, seed=1, max_width=64)
        eng = EngineState(inst.grid, inst.fatness)
        start = time.perf_counter()
        for o in inst.objects:
            eng.process(o)
        assert time.perf_counter() - start < 3.0
        filed = sum(len(same) for same in eng.unhit.values())
        assert filed + eng.already_hit_count == len(inst.objects) == 3000

    def test_longer_run_in_bounded_time(self):
        """12 000 objects on N = 2**16: the hit test and the peer search
        read only the slab around each object, so the run takes about a
        second, where scanning every chosen point and every filed object
        took about 40 s."""
        inst = gen_random(2, 2**16, SQRT2, count=12000, seed=1, max_width=64)
        eng = EngineState(inst.grid, inst.fatness)
        start = time.perf_counter()
        for o in inst.objects:
            eng.process(o)
        assert time.perf_counter() - start < 5.0
        filed = sum(len(same) for same in eng.unhit.values())
        assert filed + eng.already_hit_count == len(inst.objects) == 12000

    def test_slab_searches_match_linear_scans(self):
        """Every hit test against a scan of ``chosen``, and every peer
        list against a filter of ``unhit[level]`` in list order."""
        hits = peered = 0
        for grid, objects in replay_runs():
            eng = EngineState(grid, 2)
            for o in objects:
                hit = eng.is_hit(o)
                assert hit == (next(G.grid_points_among(o, eng.chosen), None)
                               is not None)
                if not hit:
                    level = G.object_level(o)
                    lo, hi = G.int_corners(o)
                    want = [q for q in eng.unhit.get(level, [])
                            if all(map(le, lo, G.int_corners(q)[1]))
                            and all(map(le, G.int_corners(q)[0], hi))]
                    assert eng.peers(o, level) == want
                    peered += bool(want)
                hits += hit
                eng.process(o)
        assert hits >= 1000 and peered >= 50


class TestRatioReport:
    def test_five_objects_two_hubs(self):
        objs = five_objects_two_hubs()
        eng = EngineState(GRID16, 1)
        for o in objs:
            assert isinstance(eng.process(o), Added)
        assert len(eng.chosen) == 5
        result = oracle.exact_min_hitting_set(oracle.reduce_instance(objs))
        assert result.exact and result.size == 2
        assert result.points == ((5, 5), (11, 11))
        report = eng.ratio_report(result.size)
        assert report.ratio == F(5, 2)
        assert report.within_bound

    def test_empty_engine(self):
        eng = EngineState(GRID16, SQRT2)
        assert eng.ratio_report(1).ratio == 0

    def test_zero_opt_rejected(self):
        eng = EngineState(GRID16, SQRT2)
        with pytest.raises(ValueError):
            eng.ratio_report(0)

    def test_single_step_within_step_cap(self):
        eng = EngineState(GRID16, SQRT2)
        decision = eng.process(Ball((8, 8), 8))
        assert isinstance(decision, Added)
        assert len(decision.points) <= eng.step_cap
        assert eng.ratio_report(1).ratio == len(decision.points)

    @pytest.mark.parametrize("N", [17, 40, 192, 3 ** 40])
    def test_non_power_of_two_grid_decides_exactly(self, N):
        """Ratios 10**-40 below and above factor * log2(N), which
        rounds to the same float as both, get opposite verdicts."""
        grid = GridSpec(2, N)
        scale = 10 ** 40
        with localcontext() as ctx:
            ctx.prec = 80
            exact = ((4 * Decimal(2).sqrt() + 1) ** 4
                     * Decimal(N).ln() / Decimal(2).ln())
            below = int(exact * scale)
            assert below < exact * scale < below + 1
        low = check_ratio_bound(grid, SQRT2, below, scale)
        high = check_ratio_bound(grid, SQRT2, below + 1, scale)
        assert low.within_bound and not high.within_bound
        assert abs(float(high.ratio) - high.bound) <= 1e-15 * high.bound
        display = float((4 * SQRT2 + 1) ** 4) * math.log2(N)
        assert low.bound == high.bound == display

    def test_rational_verdicts_match_integer_powers(self):
        """At d = 2 and fatness 1 (factor 5**4), ratio a/b is within the
        bound iff a/(625 b) <= log2 N, i.e. 2**a <= N**(625 b).  For N a
        power of two, a = 625 b log2 N meets the bound exactly."""
        for N in (2, 3, 5, 6, 7, 12, 16, 17, 40, 47, 100, 1024, 2 ** 512):
            for b in range(1, 6):
                centre = int(625 * b * math.log2(N))
                for a in range(centre - 3, centre + 4):
                    report = check_ratio_bound(GridSpec(2, N), 1, a, b)
                    assert report.within_bound == (2 ** a <= N ** (625 * b))


class TestInstrumentationCounters:
    def test_counters_track_unhit_objects_only(self):
        eng = EngineState(GRID16, SQRT2)
        first = Ball((4, 4), F(5, 2))
        second = Ball((12, 12), F(5, 2))
        # A disjoint object contributes separately; a hit one not at all.
        process_all(eng, [first, second, Ball((4, 4), 2)])
        levels = {G.object_level(first), G.object_level(second)}
        counts = dense_counts(eng)
        assert counts
        for (lvl, p), cnt in counts.items():
            assert cnt == 1
            assert lvl in levels

    def test_overlapping_unhit_objects_accumulate(self):
        eng = EngineState(GRID16, SQRT2)
        # Level-1 cubes {1,2,3}^2 and {3,4,5}x{1,2,3}: each adds its one
        # level-1 point, (2,2) and (4,2), and they share the column x=3.
        a = Cube((F(1, 2), F(1, 2)), 3)
        b = Cube((F(5, 2), F(1, 2)), 3)
        process_all(eng, [a, b])
        assert [len(same) for same in eng.unhit.values()] == [2]
        counts = dense_counts(eng)
        assert counts[(1, (3, 1))] == 2
        assert max(counts.values()) == 2

    def test_exact_count_when_the_certificate_fails(self, monkeypatch):
        """Before each unhit step, ``step_cap`` is lowered to the number
        of points the step adds, so the certificate can fail and the
        exact count decides.  The engine must raise exactly when the
        dense reference exceeds the cap.  A raise leaves the engine as a
        run without it would (the object is filed, its points added), so
        the run goes on."""
        exact_calls = []
        reduce_instance = oracle.reduce_instance

        def spy(objects):
            exact_calls.append(len(objects))
            return reduce_instance(objects)

        monkeypatch.setattr(oracle, "reduce_instance", spy)
        runs = [
            # Ranges meet only at (7,9), which neither object contains.
            (GRID16, SQRT2, [Cube((F(13, 2), F(17, 2)), 3),
                             Ball((6, 8), F(5, 4))]),
            # The cubes of the test above share the column x=3; the ball
            # filed first meets the second cube's ranges only at (5,3),
            # which neither contains.
            (GRID16, SQRT2, [Ball((6, 4), F(5, 4)),
                             Cube((F(1, 2), F(1, 2)), 3),
                             Cube((F(5, 2), F(1, 2)), 3)]),
        ] + [(inst.grid, inst.fatness, inst.objects)
             for inst in fuzz_instances()]
        outcomes = Counter()
        for grid, fatness, objects in runs:
            eng = EngineState(grid, fatness)
            for o in objects:
                if eng.is_hit(o):
                    eng.process(o)
                    continue
                level = G.object_level(o)
                eng.step_cap = len(G.points_of_level(o, level))
                calls = len(exact_calls)
                try:
                    eng.process(o)
                    raised = False
                except InvariantViolation:
                    raised = True
                counts = dense_counts(eng)
                worst = max(counts[(level, p)] for p in G.grid_points_in(o))
                assert raised == (worst > eng.step_cap)
                outcomes[len(exact_calls) > calls, raised] += 1
        assert outcomes[True, False] and outcomes[True, True]
        assert not outcomes[False, True]
