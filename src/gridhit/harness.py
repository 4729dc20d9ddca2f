"""Instance generation, online runs, forcing games, verification sweeps.

Everything here is deterministic given its seed: instance generation uses
only integer draws from ``random.Random``, runs carry no timestamps, and
records are emitted in a canonical JSON encoding, so regenerating or
replaying anything is byte-identical.

Verification sweeps re-derive the quantities they check with naive,
self-contained oracles (dyadic-lattice and division-loop levels,
filter-everything membership) so that a bug in the fast paths cannot
hide itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt
from typing import Optional

from gridhit import adversary, engine, formats, geometry, oracle
from gridhit.adversary import GameState, GameSummary
from gridhit.engine import Added, EngineState
from gridhit.errors import GridHitError, InstanceFormatError
from gridhit.exactnum import (
    Scalar,
    SqrtExt,
    as_scalar,
    is_rational,
    sqrt_exact,
)
from gridhit.formats import InstanceFile
from gridhit.geometry import Ball, Box, Cube, FatObject, GridSpec, Point

SQRT2 = sqrt_exact(2)


# -- reports ------------------------------------------------------------------

@dataclass
class Report:
    """Outcome of one online run against its exact offline optimum."""

    d: int
    N: int
    fatness: Scalar
    object_count: int
    alg_size: int
    already_hit: int
    opt_size: Optional[int]
    opt_exact: bool
    ratio: Optional[Fraction]
    bound: float
    within_bound: Optional[bool]
    transcript: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "N": self.N,
            "alpha": formats.scalar_to_json(self.fatness),
            "objects": self.object_count,
            "alg_size": self.alg_size,
            "already_hit": self.already_hit,
            "opt_size": self.opt_size,
            "opt_exact": self.opt_exact,
            "ratio": None if self.ratio is None else
                     formats.scalar_to_json(self.ratio),
            "ratio_float": None if self.ratio is None else float(self.ratio),
            "bound": self.bound,
            "within_bound": self.within_bound,
            "transcript": self.transcript,
        }

    def to_csv(self) -> str:
        row = self.to_json()
        row["alpha"] = formats.scalar_to_text(self.fatness)  # comma-free
        head = ",".join(row)
        vals = ",".join("" if v is None else str(v) for v in row.values())
        return head + "\n" + vals + "\n"


# -- online runs --------------------------------------------------------------

def run_online(inst: InstanceFile, transcript_path=None) -> Report:
    """Feed the instance to a fresh engine and certify the optimum."""
    eng = EngineState(inst.grid, inst.fatness)
    lines = []
    for o in inst.objects:
        decision = eng.process(o)
        if transcript_path is not None:
            lines.append(formats.dumps({
                "object": formats.shape_to_json(o),
                "decision": _decision_to_json(decision),
                "cumulative_size": len(eng.chosen),
            }))
    if transcript_path is not None:
        with open(transcript_path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")

    opt_size = None
    opt_exact = False
    ratio = None
    within = None
    if inst.objects:
        reduced = oracle.reduce_instance(inst.objects)
        result = oracle.exact_min_hitting_set(reduced)
        opt_size = result.size
        opt_exact = result.exact
        rr = eng.ratio_report(opt_size)
        ratio, bound = rr.ratio, rr.bound
        within = rr.within_bound if opt_exact else None
    else:
        _, bound = engine.ratio_bound(inst.grid, inst.fatness)
    return Report(
        d=inst.grid.d, N=inst.grid.N, fatness=inst.fatness,
        object_count=len(inst.objects), alg_size=len(eng.chosen),
        already_hit=eng.already_hit_count, opt_size=opt_size,
        opt_exact=opt_exact, ratio=ratio, bound=bound, within_bound=within,
        transcript=None if transcript_path is None else str(transcript_path),
    )


def _decision_to_json(decision) -> dict:
    if isinstance(decision, Added):
        return {"type": "added", "level": decision.level,
                "points": decision.points}
    return {"type": "already_hit"}


# -- forcing games --------------------------------------------------------------

def base_shape(d: int, kind: str, aspect=None) -> FatObject:
    """Unit-size template of the requested kind (the game dilates it).
    Only a box takes an ``aspect``."""
    if aspect is not None and kind in ("cube", "ball"):
        raise ValueError(f"aspect applies to boxes only, not a {kind}")
    if kind == "cube":
        return Cube((0,) * d, 1)
    if kind == "ball":
        return Ball((Fraction(1, 2),) * d, Fraction(1, 2))
    if kind == "box":
        if aspect is None:
            aspect = (1,) * (d - 1) + (2,) if d > 1 else (1,)
        if len(aspect) != d:
            raise ValueError(f"aspect needs {d} entries, got {len(aspect)}")
        return Box((0,) * d, tuple(as_scalar(a) for a in aspect))
    raise ValueError(f"unknown shape kind {kind!r}")


def family_fatness(base: FatObject) -> Scalar:
    fs = geometry.fatness_sq(base)
    if not is_rational(fs):
        raise ValueError("base shape must have a rational squared fatness")
    return sqrt_exact(fs)


def engine_opponent(eng: EngineState):
    def opponent(o: FatObject) -> list[Point]:
        decision = eng.process(o)
        return list(decision.points) if isinstance(decision, Added) else []
    return opponent


def first_point_opponent(o: FatObject) -> list[Point]:
    """Baseline: place one deterministic point inside the object."""
    p = geometry.find_grid_point(o)
    return [] if p is None else [p]


def run_adversary(d: int, N: int, shape: str = "cube",
                  opponent: str = "engine", aspect=None,
                  trace_path=None) -> tuple[GameSummary, Report]:
    """Play the forcing game; one point, the certificate, is optimal."""
    grid = GridSpec(d, N)
    base = base_shape(d, shape, aspect)
    fatness = family_fatness(base)
    if opponent == "engine":
        eng = EngineState(grid, fatness)
        opp = engine_opponent(eng)
    elif opponent == "baseline":
        opp = first_point_opponent
    else:
        raise ValueError(f"unknown opponent {opponent!r}")

    state = adversary.play_game_traced(grid, base, opp)
    # summarize checks its certificate in every object, so the offline
    # optimum is exactly 1.
    summary = adversary.summarize(state)
    rr = engine.check_ratio_bound(grid, fatness, summary.total_points, 1)
    if trace_path is not None:
        _write_game_trace(trace_path, state, summary)
    report = Report(
        d=d, N=N, fatness=fatness, object_count=summary.steps,
        alg_size=summary.total_points, already_hit=0, opt_size=1,
        opt_exact=True, ratio=rr.ratio, bound=rr.bound,
        within_bound=rr.within_bound,
        transcript=None if trace_path is None else str(trace_path),
    )
    return summary, report


def _write_game_trace(path, state: GameState, summary: GameSummary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j, o in enumerate(state.objects):
            rec = {
                "object": formats.shape_to_json(o),
                "points": state.responses[j],
                "points_added": len(state.responses[j]),
                "outer_width": formats.scalar_to_json(geometry.out_width(o)),
                "inner_width": formats.scalar_to_json(geometry.in_width(o)),
                "empty_cell": {
                    "corner": [formats.scalar_to_json(c)
                               for c in state.empty_cells[j].corner],
                    "width": formats.scalar_to_json(state.empty_cells[j].width),
                },
            }
            fh.write(formats.dumps(rec) + "\n")
        fh.write(formats.dumps({
            "steps": summary.steps,
            "total_points": summary.total_points,
            "forced_minimum_met": summary.forced_minimum_met,
            "certificate": summary.certificate,
            "opt_size": 1,
            "final_width": formats.scalar_to_json(summary.final_width),
        }) + "\n")


# -- instance generation ---------------------------------------------------------

def gen_random(d: int, N: int, fatness: Scalar, shapes=("ball", "cube", "box"),
               count: int = 20, seed: int = 0, min_width=1,
               max_width=None) -> InstanceFile:
    """Reproducible random instance: uniform placement, log-uniform widths
    in [min_width, max_width], rejection-sampled to satisfy the header
    invariants.  Only integer draws touch the RNG, so the same seed gives
    the same file on every platform."""
    grid = GridSpec(d, N)
    if count < 0:
        raise InstanceFormatError(f"count must be >= 0, got {count}")
    fatness = as_scalar(fatness)
    if not fatness >= 1:
        raise InstanceFormatError(f"alpha must be >= 1, got {fatness}")
    fat_sq = fatness * fatness
    shapes = tuple(shapes)
    if not shapes:
        raise InstanceFormatError("need at least one shape kind")
    for kind in shapes:
        if kind not in ("ball", "cube", "box"):
            raise InstanceFormatError(f"unknown shape kind {kind!r}")
    if "ball" in shapes and fat_sq < d:
        raise InstanceFormatError(
            f"alpha^2 = {fat_sq} < {d}: d-balls are sqrt(d)-fat and can "
            "never satisfy the header bound; drop balls or raise alpha")
    if max_width is None:
        max_width = N
    min_width = as_scalar(min_width)
    max_width = as_scalar(max_width)
    for which, w in (("min", min_width), ("max", max_width)):
        if w > N:
            raise InstanceFormatError(
                f"requested {which} width {w} exceeds the grid bound {N}: "
                "objects must fit inside the grid cube")
    if min_width < 1 or max_width < min_width:
        raise InstanceFormatError(
            f"bad width range [{min_width}, {max_width}]")
    lo8 = ceil(min_width * 8)
    hi8 = floor(max_width * 8)
    if lo8 > hi8:
        raise InstanceFormatError(
            f"width range [{min_width}, {max_width}] holds no multiple of "
            "1/8: widths are drawn on a 1/8 grid")

    rng = random.Random(seed)
    buckets = max(1, (hi8 // lo8).bit_length())

    # Boxes need a rational cap on the per-axis width ratio below fatness.
    ratio_cap = Fraction(floor(fatness * 64), 64)

    objects: list[FatObject] = []
    for _ in range(count):
        for _attempt in range(1000):
            kind = shapes[rng.randrange(len(shapes))]
            b = rng.randrange(buckets)
            w = Fraction(rng.randint(lo8 << b, min(hi8, ((lo8 << b) << 1) - 1)), 8)
            o = _sample_shape(rng, kind, d, N, w, ratio_cap)
            if geometry.has_grid_point(o):
                break
        else:
            raise InstanceFormatError(
                "rejection budget exceeded while sampling: "
                f"{kind} of width {w} caught no grid point")
        geometry.validate_in_grid(o, grid)
        geometry.validate_fatness(o, fat_sq)
        objects.append(o)
    return InstanceFile(grid, fatness, objects, seed)


def _sample_shape(rng: random.Random, kind: str, d: int, N: int,
                  w: Fraction, ratio_cap: Fraction) -> FatObject:
    """A shape of width w <= N placed uniformly inside [0, N]^d."""
    if kind == "ball":
        r = w / 2
        lo16 = int(16 * r)
        center = tuple(Fraction(rng.randint(lo16, 16 * N - lo16), 16)
                       for _ in range(d))
        return Ball(center, r)
    if kind == "cube":
        span = int(8 * (N - w))
        corner = tuple(Fraction(rng.randint(0, span), 8) for _ in range(d))
        return Cube(corner, w)
    # box: per-axis widths in [w/ratio_cap, w]
    lo64 = ceil(64 * w / ratio_cap)
    hi64 = int(64 * w)
    widths = tuple(Fraction(rng.randint(lo64, hi64), 64) for _ in range(d))
    corner = tuple(Fraction(rng.randint(0, int(64 * (N - wi))), 64)
                   for wi in widths)
    return Box(corner, widths)


# -- naive oracles for the verification sweeps -----------------------------------

def _naive_int_level(i: int) -> int:
    level = 0
    while i % 2 == 0:
        i //= 2
        level += 1
    return level


def _naive_contains(o: FatObject, p) -> bool:
    if isinstance(o, Cube):
        return all(c < x < c + o.width for c, x in zip(o.corner, p))
    if isinstance(o, Ball):
        return sum((Fraction(x) - c) ** 2 for c, x in zip(o.center, p)) \
            < o.radius ** 2
    if isinstance(o, Box):
        return all(c < x < c + w for c, x, w in zip(o.corner, p, o.widths))
    raise TypeError("naive membership supports the three concrete shapes")


def _naive_bracket(x: Scalar) -> tuple[Fraction, Fraction]:
    """Rationals lo <= x <= hi: isqrt(s) <= sqrt(s) <= isqrt(s) + 1."""
    if not isinstance(x, SqrtExt):
        return Fraction(x), Fraction(x)
    r = isqrt(x.s)
    return tuple(sorted((x.a + x.b * r, x.a + x.b * (r + 1))))


def _naive_ranges(o: FatObject) -> list[range]:
    """Integer candidate ranges from the shape fields alone."""
    if isinstance(o, Cube):
        ext = [(c, c + o.width) for c in o.corner]
    elif isinstance(o, Ball):
        ext = [(c - o.radius, c + o.radius) for c in o.center]
    elif isinstance(o, Box):
        ext = [(c, c + w) for c, w in zip(o.corner, o.widths)]
    else:
        raise TypeError("naive oracle supports the three concrete shapes")
    out = []
    for lo, hi in ext:
        lo, hi = _naive_bracket(lo)[0], _naive_bracket(hi)[1]
        a = max(1, lo.numerator // lo.denominator + 1)
        b = -((-hi.numerator) // hi.denominator) - 1
        out.append(range(a, b + 1))
    return out


def _naive_object_level(o: FatObject) -> Optional[int]:
    """The largest l such that some point with every coordinate a multiple
    of 2**l lies in the object (a point's level is >= l exactly then),
    found by filtering those multiples from the top level down."""
    ranges = _naive_ranges(o)
    for level in range(max(r.stop for r in ranges).bit_length(), -1, -1):
        step = 1 << level
        axes = [range(-(-r.start // step) * step, r.stop, step)
                for r in ranges]
        if any(_naive_contains(o, p) for p in product(*axes)):
            return level
    return None


def _dyadically_aligned(cube: Cube, width: Fraction) -> bool:
    """Some corner coordinate is a rational integer multiple of width."""
    return any(is_rational(c) and (Fraction(c) / width).denominator == 1
               for c in cube.corner)


# -- verification sweeps ----------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    violations: list = field(default_factory=list)

    def record(self, detail: dict):
        self.passed = False
        if len(self.violations) < 10:
            self.violations.append(detail)


def verify_level_width(N: int = 64, count: int = 10_000,
                       seed: int = 1405) -> SuiteResult:
    """Fuzz objects against the width-vs-level bounds.

    For every object: inscribed width <= 2**(level+1), with equality only
    when the inscribed cube is dyadically aligned (an open cube of width
    2**k sitting on a multiple of 2**k on some axis excludes the boundary
    point that would otherwise raise its level, so the bound is attained
    there and strictness is impossible to promise); and enclosing width
    <= fatness * 2**(level+1), compared in squares, exactly.  Every level
    is re-derived with the naive dyadic-lattice oracle.
    """
    res = SuiteResult("levelwidth", True, 0)
    for d in (1, 2, 3):
        # Spread the remainder so that exactly ``count`` objects are checked.
        per_d = count // 3 + (d - 1 < count % 3)
        fat = sqrt_exact(d) if d > 1 else Fraction(2)
        inst = gen_random(d, N, fat, ("ball", "cube", "box"), per_d, seed + d)
        for o in inst.objects:
            level = geometry.object_level(o)
            two = Fraction(2) ** (level + 1)
            iw = geometry.in_width(o)
            detail = None
            if not iw <= two:
                detail = "in_width > 2**(level+1)"
            elif (iw == two
                  and not _dyadically_aligned(geometry.inscribed_cube(o), two)):
                detail = "in_width == 2**(level+1) without dyadic alignment"
            elif not geometry.out_width(o) ** 2 <= geometry.fatness_sq(o) * two ** 2:
                detail = "out_width > fatness * 2**(level+1)"
            elif _naive_object_level(o) != level:
                detail = "level disagrees with the naive enumeration"
            res.checked += 1
            if detail:
                res.record({"object": formats.shape_to_json(o),
                            "level": level, "problem": detail})
    return res


def verify_level_count(N: int = 64) -> SuiteResult:
    """Exhaustive d=2 scan for fatness 1 and sqrt(2): every
    integer-cornered cube of the critical width holds at most
    floor((4*fatness+1)**2) points of the given level; counts come from
    the engine's ``points_of_level`` and are re-counted naively."""
    res = SuiteResult("levelcount", True, 0)
    grid = GridSpec(2, N)
    coord_level = [0] * N
    for i in range(1, N):
        coord_level[i] = _naive_int_level(i)
    for fat in (Fraction(1), SQRT2):
        cap = floor((4 * fat + 1) ** 2)
        for level in range(grid.level_bound + 1):
            width = floor(fat * (1 << (level + 2)))
            if width > N:
                continue
            for cx in range(N - width + 1):
                for cy in range(N - width + 1):
                    cube = Cube((cx, cy), width)
                    cnt = len(geometry.points_of_level(cube, level))
                    res.checked += 1
                    problem = None
                    if cnt > cap:
                        problem = f"{cnt} points of level {level} > cap {cap}"
                    else:
                        naive = 0
                        for x in range(cx + 1, cx + width):
                            lx = coord_level[x]
                            for y in range(cy + 1, cy + width):
                                ly = coord_level[y]
                                if (lx if lx < ly else ly) == level:
                                    naive += 1
                        if naive != cnt:
                            problem = f"points_of_level {cnt} != naive {naive}"
                    if problem:
                        res.record({"corner": [cx, cy], "width": width,
                                    "level": level, "problem": problem})
    return res


_STEPCAP_NS = (16, 32, 64, 128, 256)
_RATIO_NS = (64, 256)


def _fatness_cycle(i: int):
    kind = i % 3
    if kind == 0:
        return Fraction(1), ("cube",)
    if kind == 1:
        return SQRT2, ("ball", "cube", "box")
    return Fraction(2), ("ball", "cube", "box")


def verify_step_caps(count: int = 1000, seed: int = 2203) -> SuiteResult:
    """Random online runs: per-step additions and, recounted densely, the
    number of same-level objects unhit at arrival that contain any one
    point stay within floor((4*fatness+1)**2)."""
    res = SuiteResult("stepcap", True, 0)
    for i in range(count):
        N = _STEPCAP_NS[i % len(_STEPCAP_NS)]
        fat, shapes = _fatness_cycle(i)
        inst = gen_random(2, N, fat, shapes, 6 + i % 7, seed + i)
        eng = EngineState(inst.grid, inst.fatness)
        for o in inst.objects:
            try:
                decision = eng.process(o)
            except GridHitError as exc:
                res.record({"instance": i, "problem": str(exc)})
                break
            added = len(decision.points) if isinstance(decision, Added) else 0
            if added > eng.step_cap:
                res.record({"instance": i, "problem": f"step added {added}"})
        # Recount densely, independently of the engine's own check.
        counts = Counter((level, p) for level, same in eng.unhit.items()
                         for o in same for p in geometry.grid_points_in(o))
        worst = max(counts.values(), default=0)
        if worst > eng.step_cap:
            res.record({"instance": i,
                        "problem": f"shared-object counter reached {worst}"})
        if not oracle.verify_hitting_set(inst.objects, eng.chosen):
            res.record({"instance": i, "problem": "hitting set incomplete"})
        res.checked += len(inst.objects)
    return res


def verify_ratio(count: int = 200, seed: int = 715) -> SuiteResult:
    """Random online runs with certified optima: the measured ratio never
    exceeds (4*fatness+1)**(2d) * log2(N)."""
    res = SuiteResult("ratio", True, 0)
    for i in range(count):
        fat, shapes = _fatness_cycle(i)
        inst = gen_random(2, _RATIO_NS[i % len(_RATIO_NS)], fat, shapes,
                          4 + i % 27, seed + i)
        report = run_online(inst)
        res.checked += 1
        if not report.opt_exact:
            res.record({"instance": i, "problem": "oracle budget exceeded"})
        elif report.within_bound is not True:
            res.record({"instance": i,
                        "problem": f"ratio {report.ratio} above bound"})
    return res


# A 600-object instance (2687 swept candidates) and its certified optimum.
_ORACLE_LARGE = dict(d=2, N=256, fatness=SQRT2, count=600, seed=2,
                     max_width=64)
_ORACLE_LARGE_OPT = 294


def verify_oracle(count: int = 100, seed: int = 908) -> SuiteResult:
    """The exact solver vs. exhaustive subset enumeration on ``count``
    instances whose reduced candidate count is at most 12, plus sandwich
    checks; and, beyond the count, one 600-object instance certified at
    its known optimum."""
    res = SuiteResult("oracle", True, 0)
    inst = gen_random(**_ORACLE_LARGE)
    reduced = oracle.reduce_instance(inst.objects)
    large = oracle.exact_min_hitting_set(reduced)
    if not (large.exact and large.lower_bound == large.size
            == _ORACLE_LARGE_OPT <= oracle.greedy_hitting_set(reduced).size
            and oracle.verify_hitting_set(inst.objects, large.points)):
        res.record({"problem": f"{len(inst.objects)} objects: optimum "
                    f"{large.size} (exact={large.exact}), not certified "
                    f"at {_ORACLE_LARGE_OPT}"})
    attempts = 0
    while res.checked < count and attempts < 40 * count:
        attempts += 1
        inst = gen_random(2, 24, SQRT2, ("ball", "cube", "box"),
                          3 + attempts % 5, seed + attempts, max_width=8)
        reduced = oracle.reduce_instance(inst.objects)
        if len(reduced.candidates) > 12:
            continue
        res.checked += 1
        bb = oracle.exact_min_hitting_set(reduced)
        ex = oracle.exhaustive_min_hitting_set(reduced)
        greedy = oracle.greedy_hitting_set(reduced)
        if bb.size != ex.size:
            res.record({"attempt": attempts,
                        "problem": f"b&b {bb.size} != exhaustive {ex.size}"})
        if not (bb.lower_bound <= bb.size <= greedy.size):
            res.record({"attempt": attempts, "problem": "bound sandwich broken"})
        if not oracle.verify_hitting_set(inst.objects, bb.points):
            res.record({"attempt": attempts, "problem": "b&b set does not hit"})
        if not bb.exact:
            res.record({"attempt": attempts, "problem": "b&b gave up"})
    if res.checked < count:
        res.record({"problem": f"only {res.checked} qualifying instances"})
    return res


# Forcing games as (shape, d, N): balls past float range and at d = 4, 5;
# cubes and boxes at N far past float range.
_GAMES = (
    ("ball", 2, 2**64), ("ball", 3, 2**64), ("ball", 2, 2**128),
    ("ball", 4, 2**10), ("ball", 5, 2**10),
    ("cube", 2, 2**512), ("cube", 3, 2**384), ("box", 3, 2**512),
)


def verify_games() -> SuiteResult:
    """Forcing games against the engine at scale: each meets the forced
    minimum, has offline optimum 1, and every object was unhit at arrival
    by the exact ``contains`` over all earlier points."""
    res = SuiteResult("games", True, 0)
    for shape, d, N in _GAMES:
        grid = GridSpec(d, N)
        base = base_shape(d, shape)
        eng = EngineState(grid, family_fatness(base))
        state = adversary.play_game_traced(grid, base, engine_opponent(eng))
        summary = adversary.summarize(state)
        # The exact oracle re-derives the optimum the certificate gives.
        result = oracle.exact_min_hitting_set(
            oracle.reduce_instance(state.objects))
        game = {"shape": shape, "d": d, "N": N}
        if not summary.forced_minimum_met:
            res.record({**game, "problem": "forced minimum not met"})
        if not (result.exact and result.size == 1):
            res.record({**game, "problem": f"offline optimum {result.size} "
                        f"(exact={result.exact}), not 1"})
        earlier: list[Point] = []
        for j, o in enumerate(state.objects):
            if any(geometry.contains(o, p) for p in earlier):
                res.record({**game, "problem": f"object {j} was hit "
                            "before it arrived"})
            earlier.extend(state.responses[j])
        res.checked += len(state.objects)
    return res


SUITES = {
    "levelwidth": verify_level_width,
    "levelcount": verify_level_count,
    "stepcap": verify_step_caps,
    "ratio": verify_ratio,
    "oracle": verify_oracle,
    "games": verify_games,
}


def run_suite(name: str, **params) -> list[SuiteResult]:
    if name == "all" and not params:
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise InstanceFormatError(
            f"unknown suite {name!r}; pick from {sorted(SUITES)}, or 'all' "
            "with no parameters")
    return [SUITES[name](**params)]
