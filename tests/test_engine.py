"""Online engine: decisions, invariants, instrumentation, determinism."""

from fractions import Fraction

import pytest

from gridhit import geometry as G
from gridhit import oracle
from gridhit.engine import Added, AlreadyHit, EngineState, new_engine
from gridhit.errors import EmptyObjectError, FatnessViolation, GridBoundsError
from gridhit.exactnum import sqrt_exact
from gridhit.geometry import Ball, Box, Cube, GridSpec
from gridhit.harness import gen_random

F = Fraction
SQRT2 = sqrt_exact(2)

GRID16 = GridSpec(2, 16)


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


class TestConstruction:
    def test_fresh_engine_is_empty(self):
        eng = new_engine(GRID16, SQRT2)
        assert eng.hitting_set() == []
        assert eng.steps == 0

    def test_one_dimensional_engine(self):
        eng = new_engine(GridSpec(1, 4), 1)
        assert eng.process(Cube((0,), 4)) == Added(((2,),), 1)

    def test_fatness_below_one_rejected(self):
        with pytest.raises(ValueError):
            new_engine(GRID16, F(1, 2))

    def test_step_cap_values(self):
        assert new_engine(GRID16, 1).step_cap == 25
        assert new_engine(GRID16, SQRT2).step_cap == 44
        assert new_engine(GridSpec(3, 16), sqrt_exact(3)).step_cap == 498


class TestProcess:
    def test_ball_adds_unique_max_level_point(self):
        eng = new_engine(GRID16, SQRT2)
        assert eng.process(Ball((4, 4), F(5, 2))) == Added(((4, 4),), 2)

    def test_resubmission_is_already_hit(self):
        eng = new_engine(GRID16, SQRT2)
        o = Ball((4, 4), F(5, 2))
        eng.process(o)
        assert eng.process(o) == AlreadyHit()
        assert eng.hitting_set() == [(4, 4)]
        assert eng.already_hit_count == 1

    def test_single_point_object(self):
        eng = new_engine(GRID16, SQRT2)
        assert eng.process(Cube((0, 0), 2)) == Added(((1, 1),), 0)

    def test_empty_object_rejected(self):
        eng = new_engine(GRID16, SQRT2)
        with pytest.raises(EmptyObjectError):
            eng.process(Cube((0, 0), 1))

    def test_fatness_violation(self):
        eng = new_engine(GRID16, 1)
        with pytest.raises(FatnessViolation):
            eng.process(Ball((8, 8), 2))

    def test_out_of_grid(self):
        eng = new_engine(GRID16, SQRT2)
        with pytest.raises(GridBoundsError):
            eng.process(Ball((8, 8), 9))

    def test_already_hit_leaves_state_unchanged(self):
        eng = new_engine(GRID16, SQRT2)
        eng.process(Ball((4, 4), F(5, 2)))
        counts_before = dict(eng.level_point_counts)
        eng.process(Ball((4, 4), 2))  # contains (4,4)
        assert eng.hitting_set() == [(4, 4)]
        assert dict(eng.level_point_counts) == counts_before

    def test_added_points_share_object_level(self):
        eng = new_engine(GRID16, SQRT2)
        decision = eng.process(Cube((F(1, 2), F(1, 2)), 7))
        assert isinstance(decision, Added)
        assert decision.level == 2
        assert all(G.point_level(p) == 2 for p in decision.points)
        assert list(decision.points) == sorted(decision.points)


class TestRunInvariants:
    def fuzz_instances(self, n=25):
        for i in range(n):
            N = (16, 32, 64)[i % 3]
            fat, shapes = ((F(1), ("cube",)), (SQRT2, ("ball", "cube", "box")),
                           (F(2), ("ball", "cube", "box")))[i % 3]
            yield gen_random(2, N, fat, shapes, 6 + i % 5, seed=900 + i)

    def test_hits_everything_it_saw(self):
        for inst in self.fuzz_instances():
            eng = new_engine(inst.grid, inst.fatness)
            for o in inst.objects:
                eng.process(o)
            assert oracle.verify_hitting_set(inst.objects, eng.hitting_set())

    def test_step_bound_and_counter_caps(self):
        for inst in self.fuzz_instances():
            eng = new_engine(inst.grid, inst.fatness)
            for o in inst.objects:
                decision = eng.process(o)
                if isinstance(decision, Added):
                    assert len(decision.points) <= eng.step_cap
            if eng.level_point_counts:
                assert max(eng.level_point_counts.values()) <= eng.step_cap

    def test_replay_reproduces_run(self):
        for inst in self.fuzz_instances(10):
            runs = []
            for _ in range(2):
                eng = new_engine(inst.grid, inst.fatness)
                decisions = [eng.process(o) for o in inst.objects]
                runs.append((decisions, eng.hitting_set()))
            assert runs[0] == runs[1]

    def test_instrumentation_does_not_change_decisions(self):
        for inst in self.fuzz_instances(15):
            tracked = new_engine(inst.grid, inst.fatness, instrument=True)
            bare = new_engine(inst.grid, inst.fatness, instrument=False)
            for o in inst.objects:
                assert tracked.process(o) == bare.process(o)

    def test_counts_only_mode(self):
        inst = next(iter(self.fuzz_instances(1)))
        eng = new_engine(inst.grid, inst.fatness, keep_history=False)
        for o in inst.objects:
            eng.process(o)
        assert eng.history is None
        assert eng.steps == len(inst.objects)


class TestRatioReport:
    def test_five_objects_two_hubs(self):
        objs = five_objects_two_hubs()
        eng = new_engine(GRID16, 1)
        for o in objs:
            assert isinstance(eng.process(o), Added)
        assert len(eng.hitting_set()) == 5
        result = oracle.exact_min_hitting_set(oracle.reduce_instance(objs))
        assert result.exact and result.size == 2
        assert result.points == ((5, 5), (11, 11))
        report = eng.ratio_report(result.size)
        assert report.ratio == F(5, 2)
        assert report.within_bound and report.exact_comparison

    def test_empty_engine(self):
        eng = new_engine(GRID16, SQRT2)
        assert eng.ratio_report(1).ratio == 0

    def test_zero_opt_rejected(self):
        eng = new_engine(GRID16, SQRT2)
        with pytest.raises(ValueError):
            eng.ratio_report(0)

    def test_single_step_within_step_cap(self):
        eng = new_engine(GRID16, SQRT2)
        decision = eng.process(Ball((8, 8), 8))
        assert isinstance(decision, Added)
        assert len(decision.points) <= eng.step_cap
        assert eng.ratio_report(1).ratio == len(decision.points)

    def test_non_power_of_two_grid_uses_float_bound(self):
        eng = new_engine(GridSpec(2, 17), SQRT2)
        report = eng.ratio_report(1)
        assert not report.exact_comparison
        assert report.within_bound


class TestInstrumentationCounters:
    def test_counters_track_unhit_objects_only(self):
        eng = new_engine(GRID16, SQRT2)
        first = Ball((4, 4), F(5, 2))
        eng.process(first)
        # A disjoint object of the same level contributes separately.
        eng.process(Ball((12, 12), F(5, 2)))
        level = G.object_level(first)
        for (lvl, p), cnt in eng.level_point_counts.items():
            assert cnt == 1
            assert lvl in (level, G.object_level(Ball((12, 12), F(5, 2))))

    def test_overlapping_unhit_objects_accumulate(self):
        eng = new_engine(GRID16, F(4))
        # Same level-0 region, hit points kept disjoint via thin boxes.
        a = Box((F(1, 2), F(1, 2)), (4, 1))
        b = Box((F(1, 2), F(3, 2)), (4, 1))
        da = eng.process(a)
        db = eng.process(b)
        assert isinstance(da, Added) and isinstance(db, Added)
        shared = set(G.grid_points_in(a)) & set(G.grid_points_in(b))
        assert not shared  # sanity: they do not actually overlap on points
