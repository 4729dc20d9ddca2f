"""Forcing game: construction, invariants, and the guaranteed minimum."""

from bisect import insort
from fractions import Fraction
from itertools import product

import pytest

from gridhit import adversary, geometry as G, oracle
from gridhit.adversary import (
    find_empty_subcube,
    forced_minimum_met,
    initial_object,
    new_game,
    next_object,
    play_game_traced,
    summarize,
)
from gridhit.engine import EngineState
from gridhit.errors import InvariantViolation, ProtocolError
from gridhit.exactnum import sqrt_exact
from gridhit.geometry import Ball, Box, Cube, GridSpec
from gridhit.harness import (
    base_shape,
    engine_opponent,
    first_point_opponent,
    run_adversary,
)

F = Fraction


class TestInitialObject:
    def test_ball_fills_grid(self):
        got = initial_object(GridSpec(2, 16), base_shape(2, "ball"))
        assert got == Ball((8, 8), 8)

    def test_cube_fills_grid(self):
        got = initial_object(GridSpec(2, 16), base_shape(2, "cube"))
        assert got == Cube((0, 0), 16)

    def test_box_scales_to_longest_side(self):
        got = initial_object(GridSpec(2, 16), Box((0, 0), (1, 2)))
        assert got == Box((4, 0), (8, 16))
        assert G.enclosing_cube(got) == Cube((0, 0), 16)


class TestFindEmptySubcube:
    def test_no_points_keeps_whole_cube(self):
        c = Cube((0, 0), 6)
        assert find_empty_subcube(c, []) == Cube((0, 0), 6)

    def test_single_point_forces_far_cell(self):
        c = Cube((0, 0), 6)
        got = find_empty_subcube(c, [(1, 1)])
        assert got == Cube((3, 3), 3)

    def test_two_points_leave_a_valid_cell(self):
        c = Cube((0, 0), 9)
        pts = [(1, 1), (4, 4)]
        got = find_empty_subcube(c, pts)
        assert got.width == 3
        # Oracle: enumerate every cell of the 3x3 split and check the
        # chosen one is valid and the smallest valid per axis.
        valid = []
        for hx, hy in product(range(3), repeat=2):
            cell = Cube((hx * 3, hy * 3), 3)
            if not any(G.contains(cell, p) for p in pts):
                valid.append(cell)
        assert got in valid and valid
        assert not any(G.contains(got, p) for p in pts)

    def test_boundary_point_blocks_neither_side(self):
        c = Cube((0, 0), 4)
        got = find_empty_subcube(c, [(2, 2)])
        assert got == Cube((0, 0), 2)
        assert not G.contains(got, (2, 2))

    def test_irrational_cells(self):
        inner = G.inscribed_cube(Ball((8, 8), 8))
        got = find_empty_subcube(inner, [(8, 8)])
        assert got.width == inner.width / 2
        assert not G.contains(got, (8, 8))

    def test_pigeonhole_random(self):
        import random
        rng = random.Random(5)
        for _ in range(50):
            c = Cube((rng.randint(0, 8), rng.randint(0, 8)), F(rng.randint(4, 40), 2))
            interior = G.grid_points_in(c)
            k = rng.randint(0, min(6, len(interior)))
            pts = rng.sample(interior, k)
            got = find_empty_subcube(c, pts)
            assert got.width == c.width / (k + 1)
            assert not any(G.contains(got, p) for p in pts)
            for axis in range(2):
                assert c.corner[axis] <= got.corner[axis]
                assert got.corner[axis] + got.width <= c.corner[axis] + c.width


class TestProtocol:
    def test_unhit_response_rejected(self):
        state = new_game(GridSpec(2, 8), base_shape(2, "cube"))
        with pytest.raises(ProtocolError):
            next_object(state, [])
        with pytest.raises(ProtocolError):
            next_object(state, [(100, 100)])

    def test_out_of_grid_point_rejected(self):
        state = new_game(GridSpec(2, 8), base_shape(2, "cube"))
        with pytest.raises(ProtocolError):
            next_object(state, [(0, 1)])

    def test_bool_point_rejected(self):
        state = new_game(GridSpec(2, 8), base_shape(2, "cube"))
        with pytest.raises(ProtocolError, match="outside the grid"):
            next_object(state, [(True, True)])
        assert state.points == [] and state.responses == []

    def test_earlier_point_in_candidate_is_caught(self):
        # Answering (1, 1) leaves the empty cell Cube((4, 4), 4) as the
        # next object; an earlier point inside it breaks the invariant.
        state = new_game(GridSpec(2, 8), base_shape(2, "cube"))
        insort(state.points, (6, 6))
        with pytest.raises(InvariantViolation, match=r"\(6, 6\)"):
            next_object(state, [(1, 1)])
        assert state.empty_cells == [Cube((4, 4), 4)]

    def test_finished_game_rejects_moves(self):
        grid = GridSpec(1, 2)
        state = new_game(grid, base_shape(1, "cube"))
        assert next_object(state, [(1,)]) is None
        assert state.finished
        with pytest.raises(ProtocolError):
            next_object(state, [(1,)])


def game_traces():
    configs = [
        (2, 64, "cube"), (2, 64, "ball"), (2, 128, "box"),
        (1, 32, "cube"), (3, 16, "ball"), (3, 16, "cube"),
    ]
    for d, n, kind in configs:
        grid = GridSpec(d, n)
        base = base_shape(d, kind)
        eng = EngineState(grid, sqrt_exact(G.fatness_sq(base)))
        yield grid, base, play_game_traced(grid, base, engine_opponent(eng))


class TestGameInvariants:
    def test_nesting(self):
        for grid, base, state in game_traces():
            for prev, nxt in zip(state.objects, state.objects[1:]):
                inner = G.inscribed_cube(prev)
                outer = G.enclosing_cube(nxt)
                for axis in range(grid.d):
                    assert inner.corner[axis] <= outer.corner[axis]
                    assert (outer.corner[axis] + outer.width
                            <= inner.corner[axis] + inner.width)

    def test_unhit_at_arrival(self):
        for grid, base, state in game_traces():
            seen = []
            for o, resp in zip(state.objects, state.responses):
                assert not any(G.contains(o, p) for p in seen)
                seen.extend(resp)

    def test_recurrence(self):
        for grid, base, state in game_traces():
            fatness = sqrt_exact(G.fatness_sq(base))
            widths = [G.out_width(o) for o in state.objects]
            widths.append(state.final_width)
            for j, w_next in enumerate(widths[1:]):
                k = len(state.responses[j])
                assert w_next * fatness * (k + 1) >= widths[j]

    def test_single_point_suffices(self):
        for grid, base, state in game_traces():
            summary = summarize(state)
            result = oracle.exact_min_hitting_set(
                oracle.reduce_instance(state.objects))
            assert result.exact and result.size == 1
            assert all(G.contains(o, summary.certificate)
                       for o in state.objects)

    def test_forced_minimum(self):
        for grid, base, state in game_traces():
            assert summarize(state).forced_minimum_met


class TestForcedMinimum:
    def test_cube_game_forces_log_n(self):
        summary = summarize(play_game_traced(
            GridSpec(2, 1024), base_shape(2, "cube"),
            engine_opponent(EngineState(GridSpec(2, 1024), 1))))
        assert summary.total_points >= 10
        assert summary.forced_minimum_met

    def test_ball_game_forces_two_thirds_log_n(self):
        grid = GridSpec(2, 4096)
        eng = EngineState(grid, sqrt_exact(2))
        summary = summarize(play_game_traced(grid, base_shape(2, "ball"),
                                             engine_opponent(eng)))
        assert summary.total_points >= 8  # 12 / (1 + 1/2)
        assert summary.forced_minimum_met

    def test_baseline_opponent_is_also_forced(self):
        for d, n, kind in [(2, 256, "cube"), (2, 256, "ball"), (1, 64, "cube")]:
            summary = summarize(play_game_traced(
                GridSpec(d, n), base_shape(d, kind), first_point_opponent))
            assert summary.forced_minimum_met

    def test_one_point_per_step_gives_three_objects_at_n8(self):
        summary = summarize(play_game_traced(
            GridSpec(2, 8), base_shape(2, "cube"), first_point_opponent))
        assert summary.steps >= 3
        assert summary.total_points >= 3

    def test_single_point_grid(self):
        summary = summarize(play_game_traced(
            GridSpec(2, 2), base_shape(2, "cube"), first_point_opponent))
        assert summary.steps == 1
        assert summary.total_points >= 1

    def test_forced_minimum_predicate(self):
        # cube at N=1024: needs 10, so 9 must fail and 10 pass
        grid = GridSpec(2, 1024)
        cube = base_shape(2, "cube")
        assert not forced_minimum_met(grid, cube, 9)
        assert forced_minimum_met(grid, cube, 10)
        # ball at N=4096: needs 8
        grid = GridSpec(2, 4096)
        ball = base_shape(2, "ball")
        assert not forced_minimum_met(grid, ball, 7)
        assert forced_minimum_met(grid, ball, 8)


class TestDeterminism:
    def test_identical_replays(self):
        runs = []
        for _ in range(2):
            grid = GridSpec(2, 256)
            eng = EngineState(grid, sqrt_exact(2))
            state = play_game_traced(grid, base_shape(2, "ball"),
                                     engine_opponent(eng))
            runs.append((state.objects, state.responses, state.empty_cells))
        assert runs[0] == runs[1]


# Fraction's arithmetic, comparison and rounding operators.
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
    "__rpow__", "__neg__", "__pos__", "__abs__", "__eq__", "__lt__",
    "__le__", "__gt__", "__ge__", "__floor__", "__ceil__", "__round__",
    "__trunc__")


class TestRationalGameInInts:
    """A rational game's step runs on the shapes' stored int numerators:
    the Fraction operator calls of a whole game do not grow with its
    number of steps, which doubles with log2 N below."""

    @staticmethod
    def fraction_calls(monkeypatch, d, N, shape):
        calls = [0]

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            for name in FRACTION_OPS:
                m.setattr(F, name, counted(getattr(F, name)))
            summary, _ = run_adversary(d, N, shape)
        return calls[0], summary.steps

    @pytest.mark.parametrize("d, log_n, shape",
                             [(2, 64, "cube"), (3, 256, "box")])
    def test_calls_do_not_grow_with_steps(self, monkeypatch, d, log_n, shape):
        small, steps = self.fraction_calls(monkeypatch, d, 1 << log_n, shape)
        large, more_steps = self.fraction_calls(monkeypatch, d,
                                                1 << 2 * log_n, shape)
        assert more_steps >= 2 * steps - 1
        assert large <= small
