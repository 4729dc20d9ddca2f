"""The nested-dilation forcing game.

The adversary presents dilations of one base shape.  The first fills the
whole grid cube; every later one is squeezed into a cell of the previous
object's inscribed cube that the opponent's points missed, which the
pigeonhole principle always provides.  The game ends when the candidate
object contains no grid point.  Nesting makes a single point an offline
optimum, while the width recurrence forces any opponent to spend points
at a rate governed only by the grid bound and the base shape's fatness.

Ball games leave the rationals: the inscribed cube of a ball has
quadratic-irrational corners, and every later object inherits them.  The
exact scalars keep the recurrence an identity rather than an estimate.
Each step works on the shapes' stored numerators (see ``geometry``), so
a cube or box game computes its cells and objects in ints.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from math import floor
from typing import Callable, Optional

from gridhit import geometry
from gridhit.errors import EmptyObjectError, InvariantViolation, ProtocolError
from gridhit.exactnum import Scalar
from gridhit.geometry import Cube, FatObject, GridSpec, Point

Opponent = Callable[[FatObject], list[Point]]


@dataclass
class GameState:
    """Trace of one game: objects[j] was answered by responses[j].
    ``points`` holds every answered point in lexicographic order, and
    ``base_cube`` is the base shape's enclosing cube; the game is
    ``finished`` once ``final_width`` is set."""

    grid: GridSpec
    base: FatObject
    base_cube: Cube
    objects: list[FatObject] = field(default_factory=list)
    responses: list[tuple[Point, ...]] = field(default_factory=list)
    empty_cells: list[Cube] = field(default_factory=list)
    points: list[Point] = field(default_factory=list)
    final_width: Optional[Scalar] = None

    @property
    def finished(self) -> bool:
        return self.final_width is not None


@dataclass
class GameSummary:
    """A finished game; ``final_width`` is its state's, never None."""

    steps: int
    points_per_step: tuple[int, ...]
    total_points: int
    forced_minimum_met: bool
    certificate: Point
    final_width: Scalar


def initial_object(grid: GridSpec, base: FatObject) -> FatObject:
    """The dilation of the base shape whose enclosing cube is the whole
    open grid cube."""
    if geometry.dimension(base) != grid.d:
        raise ValueError(
            f"base shape dimension {geometry.dimension(base)} != grid "
            f"dimension {grid.d}")
    whole = Cube((0,) * grid.d, grid.N)
    first = geometry.fit(base, geometry.enclosing_cube(base), whole)
    if geometry.enclosing_cube(first) != whole:
        raise InvariantViolation("initial dilation missed the grid cube")
    return first


def _floor_div(a, b) -> tuple[int, bool]:
    """floor(a / b) for b > 0, and whether a / b is an integer: by divmod
    on ints, else by the floor of the exact quotient."""
    if type(a) is int and type(b) is int:
        h, r = divmod(a, b)
        return h, not r
    t = a / b
    h = floor(t)
    return h, t == h


def find_empty_subcube(c: Cube, points: list[Point]) -> Cube:
    """A cube of width width(c)/(len(points)+1) inside c whose open
    interior avoids every point.

    Per axis the side is split into len(points)+1 equal cells; each point
    blocks at most the one open cell its coordinate falls strictly inside
    (a coordinate on a cell boundary blocks neither neighbour), so some
    cell index is free.  The smallest free index is taken on every axis.

    The cells are computed on c's stored numerators.  Over D = den *
    (k + 1) and with w = hi - lo, cell h of an axis runs from lo * (k + 1)
    + h * w to that plus w, and a coordinate x sits at x * D, so its cell
    index is the floor of its offset from the first cell over w.
    """
    k = len(points)
    w = c.hi[0] - c.lo[0]
    den = c.den * (k + 1)
    lows = []
    for axis, base in enumerate(c.lo):
        start = base * (k + 1)
        blocked = set()
        for p in points:
            h, on_boundary = _floor_div(p[axis] * den - start, w)
            if not on_boundary and 0 <= h <= k:
                blocked.add(h)
        for h in range(k + 1):
            if h not in blocked:
                lows.append(start + h * w)
                break
        else:
            raise InvariantViolation("pigeonhole failed; too many points")
    return geometry.from_numerators(Cube, den, tuple(lows),
                                    tuple(a + w for a in lows))


def new_game(grid: GridSpec, base: FatObject) -> GameState:
    state = GameState(grid=grid, base=base,
                      base_cube=geometry.enclosing_cube(base))
    first = initial_object(grid, base)
    if not geometry.has_grid_point(first):
        raise EmptyObjectError("the grid-filling object has no grid point")
    state.objects.append(first)
    return state


def next_object(state: GameState,
                points_added: list[Point]) -> Optional[FatObject]:
    """Record the opponent's answer to the current object and produce the
    next one, or None when the game is over."""
    if state.finished:
        raise ProtocolError("the game is already over")
    if len(state.responses) != len(state.objects) - 1:
        raise ProtocolError("current object was already answered")
    current = state.objects[-1]

    # Points answered before are found by bisection in ``state.points``
    # and dropped; a point repeated within this answer counts once.
    points = state.points
    new_pts: list[Point] = []
    for p in points_added:
        p = tuple(p)
        if not state.grid.contains_point(p):
            raise ProtocolError(f"point {p} is outside the grid")
        i = bisect_left(points, p)
        if (i == len(points) or points[i] != p) and p not in new_pts:
            new_pts.append(p)
    if next(geometry.grid_points_among(current, new_pts), None) is None:
        raise ProtocolError("the current object was left unhit")
    state.responses.append(tuple(new_pts))
    for p in new_pts:
        insort(points, p)

    # Earlier points miss the current object (the candidate check below
    # proved it a step ago), so only this step's points can be inside.
    inner = geometry.inscribed_cube(current)
    cell = find_empty_subcube(
        inner, list(geometry.grid_points_among(inner, new_pts)))
    state.empty_cells.append(cell)

    candidate = geometry.fit(state.base, state.base_cube, cell)

    if not geometry.has_grid_point(candidate):
        state.final_width = geometry.out_width(candidate)
        return None
    # Every answered point is checked, through the slab of ``points`` that
    # the candidate's first axis allows; none may lie inside it.
    hit = next(geometry.grid_points_among_sorted(candidate, points), None)
    if hit is not None:
        raise InvariantViolation(
            f"candidate object contains existing point {hit}")
    state.objects.append(candidate)
    return candidate


def forced_minimum_met(grid: GridSpec, base: FatObject, total: int) -> bool:
    """Exact check that ``total`` meets the guaranteed minimum.

    The guarantee total >= log2(N) / (1 + log2(fatness)) rearranges to
    (2*fatness)**total >= N, compared in squares to stay rational.
    """
    fat_sq = geometry.fatness_sq(base)
    return (4 * fat_sq) ** total >= grid.N * grid.N


def play_game_traced(grid: GridSpec, base: FatObject,
                     opponent: Opponent) -> GameState:
    """Play the full game against an opponent callback, which receives
    each object and returns the points it places that turn."""
    state = new_game(grid, base)
    while not state.finished:
        current = state.objects[-1]
        next_object(state, list(opponent(current)))
    return state


def summarize(state: GameState) -> GameSummary:
    if not state.finished:
        raise ProtocolError("game still in progress")
    ks = tuple(map(len, state.responses))
    total = sum(ks)
    # Rows come in lexicographic order, so this is the smallest point.
    prefix, a, _ = next(geometry.grid_rows(state.objects[-1]))
    certificate = prefix + (a,)
    for o in state.objects:
        if not geometry.contains(o, certificate):
            raise InvariantViolation(
                "nesting broken: the certificate misses an object")
    return GameSummary(
        steps=len(state.objects),
        points_per_step=ks,
        total_points=total,
        forced_minimum_met=forced_minimum_met(state.grid, state.base, total),
        certificate=certificate,
        final_width=state.final_width,
    )
