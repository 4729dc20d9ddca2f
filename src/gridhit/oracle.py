"""Exact minimum hitting sets for finished object sequences.

The offline optimum is the denominator of every competitive ratio, so it
has to be certified exact.  The reduction sweeps each object's lattice
rows (``geometry.grid_rows``): along a row the set of objects containing
a point changes only where some object's interval starts or ends, so it
costs O(rows log rows), not time or memory in proportion to object area.
Only locally maximal runs are recorded, those an addition starts and a
removal ends: any other run's signature is a strict subset of a
neighbouring run's, so dropping it loses no maximal signature.
Candidates with equal signatures are merged at their smallest point;
dominated ones are left to the solver.  Before the sweep, the smallest
point in every object is found exactly.  The intersection of the
objects' integer corners, in plain ints, rules one out at once when it
is empty; else the balls' rows inside it are cut to one another, one
prefix at a time.

The exact solver then applies the classic set-cover data reductions
(Weihe, "Covering trains by stations or the power of data reduction",
ALENEX 1998) until none applies: an object with one candidate forces it,
an object whose candidates include another object's goes, and so does a
candidate whose objects are a subset of another's, the one place where
dominated candidates are dropped.  What is left splits into connected
components, and branch and bound solves each one, seeded by greedy.  A greedy approximation and a brute-force subset enumeration
are also provided, the latter as the independent cross-check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from operator import gt
from typing import Iterable, Iterator

from gridhit import geometry
from gridhit.errors import EmptyObjectError
from gridhit.geometry import Ball, FatObject, Point


@dataclass
class ReducedInstance:
    """Candidate points with bitmask signatures over the object list.

    Candidates come in lexicographic order, one per distinct signature, at
    its smallest point.  Dominated candidates, whose signature is a strict
    subset of another's, may remain: the exact solver drops them.
    ``full_mask``, the signature hitting every object, is derived.
    """

    objects: list[FatObject]
    candidates: list[Point]
    signatures: list[int]

    @property
    def full_mask(self) -> int:
        return (1 << len(self.objects)) - 1


@dataclass
class HittingSetResult:
    """A hitting set and a proven lower bound on the optimum; the set is
    an optimum exactly when the bound meets its size."""

    points: tuple[Point, ...]
    lower_bound: int

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def exact(self) -> bool:
        return self.lower_bound == self.size


def _find_full_cover(objects) -> Point | None:
    """The lexicographically smallest point contained in every object, or
    None when there is none.

    A point hitting everything dominates every other candidate, so the
    reduction may stop immediately; this is what keeps nested-game
    instances cheap even when the first object covers most of the grid.
    Every common grid point lies in the intersection of the objects'
    ``int_corners``, so when that box is empty there is none, and the
    answer costs one pass over the stored corners.  The box is exactly
    the cubes' and boxes' common points, so without balls its low corner
    is the answer.  Otherwise the smallest ball's rows inside the box are
    walked in order, each cut to every ball's row on its prefix (one
    interval); the first row left nonempty starts at the answer.  The
    cost grows with the prefixes walked, not with the area.
    """
    corners = list(map(geometry.int_corners, objects))
    if None in corners:
        return None
    lows, highs = zip(*corners)
    lo = tuple(max(axis) for axis in zip(*lows))
    hi = tuple(min(axis) for axis in zip(*highs))
    if any(map(gt, lo, hi)):
        return None
    balls = [o for o in objects if isinstance(o, Ball)]
    if not balls:
        return lo
    walk = geometry.grid_rows(min(balls, key=geometry.out_width), (lo, hi))
    for prefix, a, b in walk:
        for o in balls:
            row = next(geometry.grid_rows(o, (prefix + (a,), prefix + (b,))),
                       None)
            if row is None:
                break
            _, a, b = row
        else:
            return prefix + (a,)
    return None


def reduce_instance(objects: list[FatObject]) -> ReducedInstance:
    """Build the candidate/signature form of a raw object list.

    Raises ``EmptyObjectError`` naming the first object with no grid
    point.  A point common to all objects is the one candidate; otherwise
    the row sweep gives the signatures of the locally maximal runs.
    """
    m = len(objects)
    if m == 0:
        return ReducedInstance([], [], [])

    # A point in every object also shows that none is empty.
    cover_all = _find_full_cover(objects)
    if cover_all is not None:
        return ReducedInstance(list(objects), [cover_all], [(1 << m) - 1])

    # Sweep: along each row prefix the signature changes only where some
    # object's interval starts (+bit at a) or ends (-bit at b + 1).  An
    # object that yields no row is empty.
    events: dict[Point, list[tuple[int, int]]] = defaultdict(list)
    for i, o in enumerate(objects):
        bit = 1 << i
        prefix = None
        for prefix, a, b in geometry.grid_rows(o):
            row = events[prefix]
            row.append((a, bit))
            row.append((b + 1, -bit))
        if prefix is None:
            raise EmptyObjectError(f"object {i} contains no grid point")

    # A run is recorded only if an addition starts it and a removal ends
    # it; removals sort first at one x.  Any other run's signature is a
    # strict subset of a neighbouring run's, so the solver's dominance rule
    # would drop it, wherever else it occurs.  Prefixes come in
    # lexicographic order and x increasing, so points are recorded in
    # lexicographic order and the first one for a signature is its
    # smallest point.
    best: dict[int, Point] = {}
    for prefix in sorted(events):
        sig = 0
        start = None
        for x, delta in sorted(events[prefix]):
            if delta > 0:
                start = x
            elif start is not None:
                if sig not in best:
                    best[sig] = prefix + (start,)
                start = None
            sig += delta
    return ReducedInstance(list(objects), list(best.values()), list(best))


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _candidate_masks(signatures: list[int], m: int) -> list[int]:
    """For each of the m objects, the bitmask of candidate indices hitting
    it."""
    out = [0] * m
    for idx, sig in enumerate(signatures):
        for i in _bits(sig):
            out[i] |= 1 << idx
    return out


def _disjoint_lower_bound(objects: Iterable[int], cands: list[int]) -> int:
    """Greedy count of pairwise candidate-disjoint objects, taken in the
    given order: a valid lower bound, since disjoint objects need distinct
    points."""
    picked = 0
    used = 0
    for i in objects:
        if cands[i] & used == 0:
            picked += 1
            used |= cands[i]
    return picked


def _greedy(sigs: list[int], full: int) -> list[int]:
    """Candidate indices of a greedy cover of ``full``: repeatedly the
    first candidate hitting the most objects not yet hit."""
    covered = 0
    chosen: list[int] = []
    while covered != full:
        best_idx, best_gain = -1, 0
        for idx, sig in enumerate(sigs):
            gain = (sig & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_idx = gain, idx
        if best_idx < 0:
            raise EmptyObjectError("some object has no candidate point")
        covered |= sigs[best_idx]
        chosen.append(best_idx)
    return chosen


def greedy_hitting_set(inst: ReducedInstance) -> HittingSetResult:
    """Repeatedly take the candidate hitting the most unhit objects."""
    m = len(inst.objects)
    if m == 0:
        return HittingSetResult((), 0)
    chosen = _greedy(inst.signatures, inst.full_mask)
    cands = _candidate_masks(inst.signatures, m)
    lb = _disjoint_lower_bound(
        sorted(range(m), key=lambda i: (cands[i].bit_count(), i)), cands)
    return HittingSetResult(tuple(inst.candidates[i] for i in chosen), lb)


def _reduce(sigs: list[int], cands: list[int]) -> tuple[list[int], int]:
    """Apply the data reductions until none applies; each keeps an optimum.

    - An object with one candidate forces it; the objects it hits go.
    - An object whose candidates include all of another object's goes:
      any point hitting the other hits it too.
    - A candidate whose objects left are a subset of another's goes (of
      two equal ones the later, larger point).  Candidates are tried by
      falling object count; a kept superset holds the candidate's first
      object, so only the kept ones filed under it are tested.

    ``sigs`` and ``cands`` are cut down in place to the objects and
    candidates left.  Returns the forced candidates and the mask of the
    objects left.
    """
    objs = (1 << len(cands)) - 1
    cols = (1 << len(sigs)) - 1
    forced: list[int] = []
    while True:
        before = objs, cols
        for i in _bits(objs):
            c = cands[i]
            if objs >> i & 1 and c & (c - 1) == 0:
                idx = c.bit_length() - 1
                forced.append(idx)
                objs &= ~sigs[idx]
                cols &= ~c
        for j in _bits(objs):
            if objs >> j & 1:
                # The objects whose candidates include all of j's.
                sup = objs
                for idx in _bits(cands[j]):
                    sup &= sigs[idx]
                objs &= ~sup | 1 << j
        for idx in _bits(cols):
            sigs[idx] &= objs
        holding: list[list[int]] = [[] for _ in cands]
        for idx in sorted(_bits(cols), key=lambda c: -sigs[c].bit_count()):
            s = sigs[idx]
            first = (s & -s).bit_length() - 1
            if s == 0 or any(s & other == s for other in holding[first]):
                cols &= ~(1 << idx)
            else:
                for i in _bits(s):
                    holding[i].append(s)
        for i in _bits(objs):
            cands[i] &= cols
        if (objs, cols) == before:
            return forced, objs


def _components(sigs: list[int], cands: list[int],
                objs: int) -> Iterator[tuple[int, int]]:
    """Split the objects in ``objs`` into connected components, objects
    being linked by a shared candidate.  Yields each component's object
    and candidate masks, by lowest object first."""
    while objs:
        comp = new = objs & -objs
        cols = 0
        while new:
            new_cols = 0
            for i in _bits(new):
                new_cols |= cands[i]
            new_cols &= ~cols
            cols |= new_cols
            new = 0
            for idx in _bits(new_cols):
                new |= sigs[idx]
            new &= ~comp
            comp |= new
        objs &= ~comp
        yield comp, cols


def _branch_and_bound(sigs: list[int], cands: list[int], comp: int,
                      comp_cols: int,
                      budget: int) -> tuple[list[int], int, int]:
    """Minimum cover of one component by branch and bound.

    The component is renumbered: candidates in index order, objects by
    (candidate count, index), so the lowest uncovered bit is the object
    with the fewest candidates, the one to branch on.  Greedy seeds the
    upper bound; greedy disjointness prunes.  At most ``budget`` nodes
    are expanded.  Returns the candidate indices chosen, a lower bound
    and the nodes used.
    """
    objs = sorted(_bits(comp), key=lambda i: (cands[i].bit_count(), i))
    cols = list(_bits(comp_cols))
    obj_bit = {i: 1 << j for j, i in enumerate(objs)}
    col_bit = {c: 1 << j for j, c in enumerate(cols)}
    lsigs = [sum(obj_bit[i] for i in _bits(sigs[c])) for c in cols]
    lcands = [sum(col_bit[c] for c in _bits(cands[i])) for i in objs]
    full = (1 << len(objs)) - 1

    best = _greedy(lsigs, full)
    root_lb = _disjoint_lower_bound(range(len(objs)), lcands)
    nodes = 0
    exhausted = False

    def dfs(covered: int, chosen: list[int]):
        nonlocal best, nodes, exhausted
        if covered == full:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if exhausted:
            return
        uncovered = full & ~covered
        if len(chosen) + _disjoint_lower_bound(_bits(uncovered),
                                               lcands) >= len(best):
            return
        if nodes == budget:
            exhausted = True
            return
        nodes += 1
        branch = (uncovered & -uncovered).bit_length() - 1
        for idx in _bits(lcands[branch]):
            chosen.append(idx)
            dfs(covered | lsigs[idx], chosen)
            chosen.pop()

    dfs(0, [])
    lb = root_lb if exhausted else len(best)
    return [cols[j] for j in best], lb, nodes


def exact_min_hitting_set(inst: ReducedInstance,
                          budget: int = 1_000_000) -> HittingSetResult:
    """Optimal hitting set: data reductions, then branch and bound on each
    connected component of what is left.

    One node budget covers all components.  The lower bound adds the
    forced candidates and, per component, its optimum or, where the
    budget ran out first, its disjointness bound; ``exact`` says whether
    it meets the size.  Among optima the points are those found first,
    sorted.
    """
    m = len(inst.objects)
    if m == 0:
        return HittingSetResult((), 0)
    sigs = list(inst.signatures)
    cands = _candidate_masks(sigs, m)
    if not all(cands):
        raise EmptyObjectError("some object has no candidate point")
    chosen, objs = _reduce(sigs, cands)
    lower = len(chosen)
    for comp, comp_cols in _components(sigs, cands, objs):
        picked, lb, nodes = _branch_and_bound(sigs, cands, comp, comp_cols,
                                              budget)
        chosen += picked
        lower += lb
        budget -= nodes
    points = tuple(sorted(inst.candidates[idx] for idx in chosen))
    return HittingSetResult(points, lower)


def exhaustive_min_hitting_set(inst: ReducedInstance) -> HittingSetResult:
    """Brute force over all candidate subsets, smallest first.

    Exponential; the independent cross-check for the branch and bound on
    instances with few surviving candidates.
    """
    if not inst.objects:
        return HittingSetResult((), 0)
    k = len(inst.candidates)
    full = inst.full_mask
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            mask = 0
            for idx in combo:
                mask |= inst.signatures[idx]
            if mask == full:
                pts = tuple(inst.candidates[i] for i in combo)
                return HittingSetResult(pts, size)
    raise EmptyObjectError("instance is infeasible")


def verify_hitting_set(objects: list[FatObject], points) -> bool:
    """True iff every object strictly contains at least one of the
    points, which are grid points: int coordinates >= 1.

    The points are sorted once, and each object tests them with
    ``geometry.grid_points_among_sorted``; an object whose corners admit
    no integer holds none of them.
    """
    points = sorted(points)
    return all(next(geometry.grid_points_among_sorted(o, points), None)
               is not None for o in objects)
