"""Exact minimum hitting sets for finished object sequences.

The offline optimum is the denominator of every competitive ratio, so it
has to be certified exact.  The reduction sweeps each object's lattice
rows (``geometry.grid_rows``): along a row the set of objects containing
a point changes only where some object's interval starts or ends, so it
costs O(rows log rows), not time or memory in proportion to object area.
Desk-scale instances reduce to a few hundred distinct candidate
signatures; branch and bound with signature deduplication and dominance
pruning then solves them in milliseconds.
A greedy approximation and a brute-force subset enumeration are provided
as the fallback and as the independent cross-check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, islice

from gridhit import geometry
from gridhit.errors import EmptyObjectError
from gridhit.geometry import FatObject, Point

_FULL_COVER_SCAN_LIMIT = 4096


@dataclass
class ReducedInstance:
    """Candidate points with bitmask signatures over the object list.

    Candidates with identical signatures are merged (keeping the
    lexicographically smallest point) and dominated candidates, whose
    signature is a strict subset of another's, are dropped.  Both steps
    preserve the exact optimum.
    """

    objects: list[FatObject]
    candidates: list[Point]
    signatures: list[int]
    full_mask: int


@dataclass
class HittingSetResult:
    points: tuple[Point, ...]
    exact: bool
    lower_bound: int
    upper_bound: int

    @property
    def size(self) -> int:
        return len(self.points)


def _find_full_cover(objects, smallest) -> Point | None:
    """Scan the smallest object for a point contained in every object.

    A point hitting everything dominates every other candidate, so the
    reduction may stop immediately; this is what keeps nested-game
    instances cheap even when the first object covers most of the grid.
    The scan walks the object's rows lazily and gives up after
    ``_FULL_COVER_SCAN_LIMIT`` points, whatever the object's size.
    """
    rows = geometry.grid_rows(smallest)
    points = (prefix + (x,) for prefix, a, b in rows for x in range(a, b + 1))
    for p in islice(points, _FULL_COVER_SCAN_LIMIT):
        if all(geometry.contains(o, p) for o in objects):
            return p
    return None


def reduce_instance(objects: list[FatObject]) -> ReducedInstance:
    """Build the candidate/signature form of a raw object list."""
    m = len(objects)
    if m == 0:
        return ReducedInstance([], [], [], 0)
    for i, o in enumerate(objects):
        if not geometry.has_grid_point(o):
            raise EmptyObjectError(f"object {i} contains no grid point")
    full = (1 << m) - 1

    cover_all = _find_full_cover(objects, min(objects, key=geometry.out_width))
    if cover_all is not None:
        return ReducedInstance(list(objects), [cover_all], [full], full)

    # Sweep: along each row prefix the signature changes only where some
    # object's interval starts (+bit at a) or ends (-bit at b + 1).
    events: dict[Point, list[tuple[int, int]]] = defaultdict(list)
    for i, o in enumerate(objects):
        bit = 1 << i
        for prefix, a, b in geometry.grid_rows(o):
            row = events[prefix]
            row.append((a, bit))
            row.append((b + 1, -bit))

    # Prefixes in lexicographic order and x increasing, so the first point
    # recorded for a signature is its smallest point.
    best: dict[int, Point] = {}
    for prefix in sorted(events):
        row = sorted(events[prefix])
        sig = 0
        for k, (x, delta) in enumerate(row, 1):
            sig += delta
            if k < len(row) and row[k][0] == x:
                continue  # apply every event at x before reading
            if sig and sig not in best:
                best[sig] = prefix + (x,)

    # Dominance: drop signatures that are strict subsets of a kept one.
    kept: list[int] = []
    for sig in sorted(best, key=lambda s: (-s.bit_count(), best[s])):
        if not any(sig & other == sig for other in kept):
            kept.append(sig)

    pairs = sorted((best[sig], sig) for sig in kept)
    return ReducedInstance(list(objects),
                           [p for p, _ in pairs],
                           [sig for _, sig in pairs],
                           full)


def _object_candidate_masks(inst: ReducedInstance) -> list[int]:
    """For each object, the bitmask of candidate indices hitting it."""
    m = len(inst.objects)
    out = [0] * m
    for idx, sig in enumerate(inst.signatures):
        for i in range(m):
            if sig >> i & 1:
                out[i] |= 1 << idx
    return out


def _disjoint_lower_bound(uncovered: list[int], cand_masks: list[int]) -> int:
    """Greedy count of pairwise candidate-disjoint objects: a valid lower
    bound, since disjoint objects need distinct points."""
    picked = 0
    used = 0
    for i in sorted(uncovered, key=lambda i: (cand_masks[i].bit_count(), i)):
        if cand_masks[i] & used == 0:
            picked += 1
            used |= cand_masks[i]
    return picked


def greedy_hitting_set(inst: ReducedInstance) -> HittingSetResult:
    """Repeatedly take the candidate hitting the most unhit objects."""
    m = len(inst.objects)
    if m == 0:
        return HittingSetResult((), True, 0, 0)
    covered = 0
    chosen: list[Point] = []
    while covered != inst.full_mask:
        best_idx = -1
        best_gain = -1
        for idx, sig in enumerate(inst.signatures):
            gain = (sig & ~covered).bit_count()
            if gain > best_gain:
                best_gain, best_idx = gain, idx
        if best_gain <= 0:
            raise EmptyObjectError("some object has no candidate point")
        covered |= inst.signatures[best_idx]
        chosen.append(inst.candidates[best_idx])
    cand_masks = _object_candidate_masks(inst)
    lb = _disjoint_lower_bound(list(range(m)), cand_masks)
    return HittingSetResult(tuple(chosen), len(chosen) == lb, lb, len(chosen))


def exact_min_hitting_set(inst: ReducedInstance,
                          budget: int = 1_000_000) -> HittingSetResult:
    """Optimal hitting set by branch and bound.

    Branches on the uncovered object with the fewest candidates; a greedy
    solution seeds the upper bound and greedy disjointness prunes.  If the
    node budget runs out the result is returned with ``exact=False`` and
    honest bounds.
    """
    m = len(inst.objects)
    if m == 0:
        return HittingSetResult((), True, 0, 0)
    greedy = greedy_hitting_set(inst)
    cand_masks = _object_candidate_masks(inst)
    obj_cands = [[idx for idx, sig in enumerate(inst.signatures) if sig >> i & 1]
                 for i in range(m)]

    best_points = sorted(greedy.points)
    best_size = len(best_points)
    nodes = 0
    exhausted = False

    def dfs(covered: int, chosen: list[int]):
        nonlocal best_points, best_size, nodes, exhausted
        if covered == inst.full_mask:
            pts = sorted(inst.candidates[i] for i in chosen)
            if len(pts) < best_size or (len(pts) == best_size and pts < best_points):
                best_size = len(pts)
                best_points = pts
            return
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        uncovered = [i for i in range(m) if not covered >> i & 1]
        if len(chosen) + _disjoint_lower_bound(uncovered, cand_masks) >= best_size:
            return
        branch = min(uncovered, key=lambda i: (len(obj_cands[i]), i))
        for idx in obj_cands[branch]:
            chosen.append(idx)
            dfs(covered | inst.signatures[idx], chosen)
            chosen.pop()

    dfs(0, [])
    if exhausted:
        return HittingSetResult(tuple(best_points), False, greedy.lower_bound,
                                best_size)
    return HittingSetResult(tuple(best_points), True, best_size, best_size)


def exhaustive_min_hitting_set(inst: ReducedInstance) -> HittingSetResult:
    """Brute force over all candidate subsets, smallest first.

    Exponential; the independent cross-check for the branch and bound on
    instances with few surviving candidates.
    """
    m = len(inst.objects)
    if m == 0:
        return HittingSetResult((), True, 0, 0)
    k = len(inst.candidates)
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            mask = 0
            for idx in combo:
                mask |= inst.signatures[idx]
            if mask == inst.full_mask:
                pts = tuple(inst.candidates[i] for i in combo)
                return HittingSetResult(pts, True, size, size)
    raise EmptyObjectError("instance is infeasible")


def verify_hitting_set(objects: list[FatObject], points) -> bool:
    """True iff every object strictly contains at least one of the points."""
    return all(any(geometry.contains(o, p) for p in points) for o in objects)
