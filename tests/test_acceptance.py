"""Acceptance suite: one test per shipping criterion, with pinned
tolerances and runtime budgets.  Each prints a PASS/FAIL line (run with
``pytest -s`` to see them inline).

Criterion 2 is stated in its provable form.  Shapes are open, so an
object of level l holds no point of level l+1 and its inscribed width is
at most 2**(l+1); the bound is attained exactly by dyadically aligned
objects (the open cube (0,4)^2 has level 1 and inscribed width 4).  The
strict test asserts strictness for every object except those equality
cases, and requires each of them to be aligned.  The whole suite is
green.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import floor

from gridhit import geometry as G
from gridhit import harness, oracle
from gridhit.engine import EngineState
from gridhit.exactnum import is_rational, sqrt_exact
from gridhit.formats import serialize_instance, shape_to_json
from gridhit.geometry import Ball, Cube, GridSpec
from gridhit.harness import base_shape, engine_opponent

F = Fraction
SQRT2 = sqrt_exact(2)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def naive_level(i):
    level = 0
    while i % 2 == 0:
        i //= 2
        level += 1
    return level


def criterion_2_objects():
    objs = []
    for d in (1, 2, 3):
        fat = sqrt_exact(d) if d > 1 else F(2)
        inst = harness.gen_random(d, 64, fat, ("ball", "cube", "box"),
                                  3334, seed=1405 + d)
        objs.extend(inst.objects)
    return objs[:10_000]


def test_criterion_1_level_pattern_n16():
    """d=2, N=16: one level-3 point (8,8), eight level-2 points, and the
    whole histogram cross-checked against division-loop levels."""
    start = time.perf_counter()
    grid = GridSpec(2, 16)
    histogram = Counter()
    top_points = []
    for p in product(range(1, grid.N), repeat=grid.d):
        lvl = G.point_level(p)
        assert lvl == min(naive_level(c) for c in p)
        histogram[lvl] += 1
        if lvl == 3:
            top_points.append(p)
    elapsed = time.perf_counter() - start
    ok = (top_points == [(8, 8)]
          and histogram[2] == 8
          and dict(histogram) == {0: 176, 1: 40, 2: 8, 3: 1}
          and elapsed < 1.0)
    assert report("level-pattern-16", ok, f"{elapsed:.2f}s"), histogram


def dyadically_aligned(cube, width):
    """Some corner coordinate of the cube is rational and an integer
    multiple of width, exactly."""
    return any(is_rational(c) and (F(c) / width).denominator == 1
               for c in cube.corner)


def test_criterion_2_width_level_bounds_strict():
    """10^4 seeded objects, d in {1,2,3}, N=64: inscribed width strictly
    below 2**(level+1), or equal to it with some inscribed-cube corner
    coordinate a rational multiple of 2**(level+1); enclosing width at
    most fatness*2**(level+1).

    This is the exact form of the strict bound: an open interval of
    length 2**k contains a multiple of 2**k unless its left end is one,
    so an object unaligned on every axis would hold a point of level
    level+1.  The fuzz set must contain equality cases, so the aligned
    branch is exercised.
    """
    start = time.perf_counter()
    objs = criterion_2_objects()
    failures = {}  # part -> [count, first offending object, its level]
    equality_cases = 0
    for o in objs:
        level = G.object_level(o)
        two = F(2) ** (level + 1)
        iw = G.in_width(o)
        parts = []
        if iw == two:
            equality_cases += 1
            if not dyadically_aligned(G.inscribed_cube(o), two):
                parts.append("unaligned equality in_width == 2**(level+1)")
        elif not iw < two:
            parts.append("over the bound in_width > 2**(level+1)")
        if not G.out_width(o) ** 2 <= G.fatness_sq(o) * two * two:
            parts.append("enclosing width out_width > fatness*2**(level+1)")
        for part in parts:
            failures.setdefault(part, [0, o, level])[0] += 1
    elapsed = time.perf_counter() - start
    problems = [f"{part}: {n} objects, first {shape_to_json(o)} at level "
                f"{level}" for part, (n, o, level) in failures.items()]
    if equality_cases == 0:
        problems.append("no equality case: the aligned branch is untested")
    if not elapsed < 10.0:
        problems.append(f"10 s budget exceeded: {elapsed:.2f}s")
    report("width-level-fuzz-strict", not problems,
           f"{len(objs)} objects, {equality_cases} boundary equalities, "
           f"{elapsed:.2f}s")
    assert not problems, "; ".join(problems)
    # Pinned: the aligned open cube attains the bound, the same cube
    # shifted off the dyadic grid has a higher level and stays below it.
    witness = Cube((0, 0), 4)
    assert G.object_level(witness) == 1
    assert G.in_width(witness) == 4 and dyadically_aligned(witness, F(4))
    unaligned = Cube((1, 1), 4)
    assert G.object_level(unaligned) == 2 and G.in_width(unaligned) < 8


def test_criterion_3_cube_count_exhaustive():
    """d=2, N=64, fatness in {1, sqrt(2)}: every integer-cornered cube of
    the critical width floor(fatness*2**(level+2)) holds at most 25
    (resp. 44) points of that level; the counts of the engine's
    ``points_of_level`` are re-counted naively."""
    start = time.perf_counter()
    assert floor((4 * F(1) + 1) ** 2) == 25
    assert floor((4 * SQRT2 + 1) ** 2) == 44
    res = harness.verify_level_count(N=64)
    # The known dense window: 27 level-1 points inside a width-10.2 cube,
    # comfortably under the sqrt(2) cap of 44.
    dense = G.points_of_level(Cube((F(19, 10), F(19, 10)), F(51, 5)), 1)
    elapsed = time.perf_counter() - start
    ok = res.passed and len(dense) == 27 and elapsed < 30.0
    assert report("cube-count-exhaustive", ok,
                  f"{res.checked} cubes, {elapsed:.2f}s"), res.violations


def test_criterion_4_step_and_counter_caps():
    """10^3 random instances (d=2, N <= 256): every step adds at most
    floor((4*fatness+1)**2) points and no point lies in more than that
    many same-level objects that were unhit at arrival (the engine's own
    check, and a dense recount after each run)."""
    start = time.perf_counter()
    res = harness.verify_step_caps(count=1000, seed=2203)
    elapsed = time.perf_counter() - start
    ok = res.passed
    assert report("step-and-counter-caps", ok,
                  f"{res.checked} objects, {elapsed:.1f}s"), res.violations


def test_criterion_5_forcing_games():
    """Games against the shipped engine: cubes at N=2**10 force >= 10
    points, balls at N=2**12 force >= 8, the offline optimum is certified
    exactly 1, and each game finishes within 5 seconds."""
    outcomes = []
    for shape, n, minimum in (("cube", 1 << 10, 10), ("ball", 1 << 12, 8)):
        start = time.perf_counter()
        summary, rep = harness.run_adversary(2, n, shape, "engine")
        elapsed = time.perf_counter() - start
        outcomes.append((shape, summary.total_points >= minimum,
                         summary.forced_minimum_met,
                         rep.opt_exact and rep.opt_size == 1,
                         elapsed < 5.0, elapsed, summary.total_points))
    ok = all(all(o[1:5]) for o in outcomes)
    detail = "; ".join(f"{o[0]}: {o[6]} pts, {o[5]:.2f}s" for o in outcomes)
    assert report("forcing-games", ok, detail), outcomes


def test_criterion_6_ratio_bound():
    """200 seeded instances (d=2, N in {64, 256}, <= 30 objects) with the
    optimum certified exact: the measured ratio never exceeds
    (4*fatness+1)**4 * log2(N)."""
    start = time.perf_counter()
    res = harness.verify_ratio(count=200, seed=715)
    elapsed = time.perf_counter() - start
    ok = res.passed and res.checked == 200 and elapsed < 120.0
    assert report("ratio-bound", ok,
                  f"{res.checked} runs, {elapsed:.1f}s"), res.violations


def test_criterion_7_oracle_exactness():
    """100 instances with at most 12 surviving candidates: branch and
    bound equals exhaustive subset enumeration, with sane bounds."""
    start = time.perf_counter()
    res = harness.verify_oracle(count=100, seed=908)
    elapsed = time.perf_counter() - start
    ok = res.passed and res.checked == 100
    assert report("oracle-exactness", ok,
                  f"{res.checked} instances, {elapsed:.1f}s"), res.violations


def test_criterion_8_determinism(tmp_path):
    """Byte-identical regeneration and replay: instance files, run
    transcripts, and game traces."""
    start = time.perf_counter()
    insts = [harness.gen_random(2, 64, SQRT2, ("ball", "cube", "box"),
                                15, seed=99) for _ in range(2)]
    gen_ok = serialize_instance(insts[0]) == serialize_instance(insts[1])

    transcripts = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.jsonl"
        harness.run_online(insts[0], transcript_path=path)
        transcripts.append(path.read_bytes())
    run_ok = transcripts[0] == transcripts[1] and len(transcripts[0]) > 0

    traces = []
    for name in ("ga", "gb"):
        path = tmp_path / f"{name}.jsonl"
        harness.run_adversary(2, 512, "ball", "engine", trace_path=path)
        traces.append(path.read_bytes())
    game_ok = traces[0] == traces[1] and len(traces[0]) > 0

    elapsed = time.perf_counter() - start
    ok = gen_ok and run_ok and game_ok
    assert report("determinism", ok,
                  f"gen={gen_ok} run={run_ok} game={game_ok}, "
                  f"{elapsed:.1f}s")
