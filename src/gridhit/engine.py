"""The online hitting-set engine.

The engine maintains a growing point set.  When an object arrives it does
nothing if the set already hits it; otherwise it adds every maximum-level
point of the object.  Decisions are irrevocable and depend only on the
current point set and the arriving object, so replaying a transcript
reproduces the run exactly.

Proof check: at most floor((4*fatness + 1)**d) objects of one level that
were unhit at arrival contain any one point, and the same cap bounds the
points any single step adds.  The engine files unhit objects in a list
per level and checks the first fact after every step with no state per
point: a cheap certificate first, an exact count only when it fails.

The hit test and the peer search cost what lies near the object, not
what the run has placed.  The chosen points are kept in lexicographic
order, and the hit test reads only the slab whose first coordinate the
object's integer corners allow.  Each level's list is kept sorted by its
objects' low-corner first coordinate; with the widest first-axis extent
filed there, that bounds the slab of every object whose corners can meet
a new one's.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import floor, log2
from operator import le
from typing import Union

from gridhit import geometry, oracle
from gridhit.errors import InvariantViolation
from gridhit.exactnum import Scalar, as_scalar
from gridhit.geometry import FatObject, GridSpec, Point


@dataclass(frozen=True)
class Added:
    """The step added every maximum-level point of the object."""

    points: tuple[Point, ...]
    level: int


@dataclass(frozen=True)
class AlreadyHit:
    """The object was hit by an existing point; nothing was added."""


Decision = Union[Added, AlreadyHit]


@dataclass
class RatioReport:
    ratio: Fraction
    bound: float
    within_bound: bool


def _low(o: FatObject) -> int:
    """The first coordinate of the object's low integer corner."""
    return geometry.int_corners(o)[0][0]


class EngineState:
    """One online run: strictly sequential; distinct instances are
    independent and may run in parallel.

    ``unhit[l]`` lists each object of level l that was unhit at arrival,
    sorted by its low corner's first coordinate, ties in filing order;
    ``_widest[l]`` is the largest first-axis extent (high less low
    corner) among them.  ``chosen`` lists the added points in
    lexicographic order.
    """

    def __init__(self, grid: GridSpec, fatness: Scalar):
        fatness = as_scalar(fatness)
        if not fatness >= 1:
            raise ValueError(f"fatness must be >= 1, got {fatness}")
        self.grid = grid
        self.fatness = fatness
        self.fatness_sq = fatness * fatness
        self.step_cap = floor((4 * fatness + 1) ** grid.d)
        self.chosen: list[Point] = []
        self.unhit: dict[int, list[FatObject]] = {}
        self._widest: dict[int, int] = {}
        self.already_hit_count = 0

    # -- hit detection -------------------------------------------------------

    def is_hit(self, o: FatObject) -> bool:
        return next(geometry.grid_points_among_sorted(
            o, self.chosen), None) is not None

    def peers(self, o: FatObject, level: int) -> list[FatObject]:
        """The objects filed under ``level`` whose integer corners meet
        o's, in list order.  A filed q meets o on the first axis only if
        lo[0] - _widest[level] <= qlo[0] <= hi[0], so only that slab of
        the list is tested on every axis."""
        same = self.unhit.get(level)
        if not same:
            return []
        lo, hi = geometry.int_corners(o)
        start = bisect_left(same, lo[0] - self._widest[level], key=_low)
        stop = bisect_left(same, hi[0] + 1, key=_low)
        found = []
        for q in same[start:stop]:
            qlo, qhi = geometry.int_corners(q)
            if all(map(le, lo, qhi)) and all(map(le, qlo, hi)):
                found.append(q)
        return found

    # -- the online step -----------------------------------------------------

    def process(self, o: FatObject) -> Decision:
        geometry.validate_in_grid(o, self.grid)
        geometry.validate_fatness(o, self.fatness_sq)

        if self.is_hit(o):
            self.already_hit_count += 1
            return AlreadyHit()

        # object_level raises on an empty o, and o has a point of its level.
        level = geometry.object_level(o)
        added = geometry.points_of_level(o, level)
        if len(added) > self.step_cap:
            raise InvariantViolation(
                f"step added {len(added)} points, cap is {self.step_cap}")
        chosen = self.chosen
        for p in added:
            i = bisect_left(chosen, p)
            if i < len(chosen) and chosen[i] == p:
                raise InvariantViolation(
                    f"point {p} re-added; it should have hit the object")
        for p in added:
            insort(chosen, p)

        # Only same-level objects whose integer corners meet o's can share
        # a point with it, so 1 + their number certifies the cap.  Past
        # the cap, count exactly: the sweep keeps the largest signature
        # holding o's bit, and the full-cover exit returns the full mask.
        peers = self.peers(o, level)
        lo, hi = geometry.int_corners(o)
        insort(self.unhit.setdefault(level, []), o, key=_low)
        self._widest[level] = max(self._widest.get(level, 0), hi[0] - lo[0])
        if len(peers) >= self.step_cap:
            bit = 1 << len(peers)
            sigs = oracle.reduce_instance(peers + [o]).signatures
            worst = max(s.bit_count() for s in sigs if s & bit)
            if worst > self.step_cap:
                raise InvariantViolation(
                    f"some (level, point) pair is shared by {worst} unhit "
                    f"objects, cap is {self.step_cap}")
        return Added(tuple(added), level)

    # -- results -------------------------------------------------------------

    def ratio_report(self, opt_size: int) -> RatioReport:
        return check_ratio_bound(self.grid, self.fatness,
                                 len(self.chosen), opt_size)


def ratio_bound(grid: GridSpec, fatness: Scalar) -> tuple[Scalar, float]:
    """The factor (4*fatness+1)**(2d), exact, and the bound
    factor * log2(N) as a display float."""
    factor = (4 * as_scalar(fatness) + 1) ** (2 * grid.d)
    return factor, float(factor) * log2(grid.N)


def _log2_bracket(n: int, t: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= log2(n) < hi, about 2**-t apart.

    With k = 2**t, lo = b/k and hi = (b+1)/k for b = floor(log2(n**k)),
    the bit length of n**k less one.  n**k is squared up from n, each
    square rounded down for a low and up for a high bound on it and cut
    to its leading bits, so its size stays O(t) bits; the bracket may
    then be one step of 1/k wider.
    """
    lo = hi = n
    shift = 0
    keep = 2 * t + 64
    for _ in range(t):
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        cut = max(0, hi.bit_length() - keep)
        lo >>= cut
        hi = -(-hi >> cut)
        shift += cut
    # lo * 2**shift <= n**k <= hi * 2**shift
    k = 1 << t
    return (Fraction(shift + lo.bit_length() - 1, k),
            Fraction(shift + hi.bit_length(), k))


def check_ratio_bound(grid: GridSpec, fatness: Scalar,
                      alg_size: int, opt_size: int) -> RatioReport:
    """Compare alg_size/opt_size with (4*fatness+1)**(2d) * log2(N),
    exactly for every N.

    Brackets [lo, hi) of log2(N) are halved until factor * (lo, hi)
    excludes the ratio; it is then within the bound iff
    ratio <= factor * lo.  For N = 2**k every bracket is [k, k + 2**-t),
    so the verdict is ratio <= factor * k.  Otherwise log2(N) is
    transcendental (Gelfond-Schneider), so it never equals the ratio
    over the factor, an element of Q(sqrt(s)), and some bracket
    excludes that quotient.
    """
    if opt_size < 1:
        raise ValueError(f"opt_size must be >= 1, got {opt_size}")
    ratio = Fraction(alg_size, opt_size)
    factor, bound = ratio_bound(grid, fatness)
    t = 0
    lo, hi = _log2_bracket(grid.N, t)
    while factor * lo < ratio < factor * hi:
        t += 1
        lo, hi = _log2_bracket(grid.N, t)
    return RatioReport(ratio, bound, ratio <= factor * lo)
