"""Shifting scheme: slice into bounded bands, solve bands exactly, merge.

Levels come from BFS layering (`treewidth.bfs_levels`), which gives the
one property the scheme needs: every edge joins vertices at most one
level apart.  Each component is levelled from its smallest vertex id, and
for each shift r its levels are cut into bands of k interior levels
padded by one zeroed boundary level on each side.  Bands are induced
straight from the input instance, every band is solved exactly with the
tree-decomposition DP, and per component the cheapest shift wins.
Planarity is the caller's claim; any input yields a feasible solution,
only the ratio guarantee needs it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CapdomError,
    DemandModel,
    Instance,
    Solution,
    SolveResult,
    induced_instance,
    minimum_multiplicities,
    require_feasible,
)
from . import tddp
from .treewidth import LevelAssignment, components
# These stay importable from here: perfbench's tracer wraps them in every
# module that imported them.  Slices reach them through `tddp.solve`.
from .tddp import solve_td  # noqa: F401
from .treewidth import heuristic_decomposition, make_nice  # noqa: F401


class MergeConflict(CapdomError):
    """A consumer received demand in two slices; the slicing is broken."""


@dataclass(frozen=True)
class Slice:
    """One band: induced sub-instance with boundary demands zeroed."""

    instance: Instance
    orig_of: tuple[int, ...]
    kept: frozenset[int]
    zeroed: frozenset[int]
    low_level: int
    high_level: int


def make_slices(
    inst: Instance, levels: LevelAssignment, k: int, r: int
) -> list[Slice]:
    """Bands for shift r: levels [jk+r-k, jk+r+1] with both ends zeroed.

    Every vertex lands in at most two bands and keeps its demand in
    exactly one; bands span at most k+2 consecutive levels.  `levels`
    must be contiguous, as `bfs_levels` gives them: every level in
    0..num_levels-1 holds a vertex, so no band is empty.
    """
    if k < 2:
        raise ValueError("band width k must be at least 2")
    if not 0 <= r < k:
        raise ValueError("shift r must lie in [0, k)")
    top = levels.num_levels - 1
    by_level: list[list[int]] = [[] for _ in range(levels.num_levels)]
    for v, lv in levels.level.items():
        by_level[lv].append(v)
    slices: list[Slice] = []
    for low in range(r - k, top, k):
        high = low + k + 1
        kept = frozenset(v for same in by_level[max(low + 1, 0):high] for v in same)
        zeroed = frozenset(v for lv in (low, high) if 0 <= lv <= top for v in by_level[lv])
        sub, orig_of = induced_instance(inst, kept | zeroed, zero_demand=zeroed)
        slices.append(Slice(sub, orig_of, kept, zeroed, low, high))
    return slices


def merge_solutions(inst: Instance, pairs: list[tuple[tuple[int, ...], Solution]]) -> Solution:
    """Join the band routings in original ids and buy the copies they need.

    Each pair holds a sub-instance's solution and its orig_of tuple, which
    maps sub-instance id i+1 to the original id.  Copies follow the merged
    load (`minimum_multiplicities`): a server that several bands load costs
    ceil(total load / c), never more than the bands' copies added up.
    """
    assignment: dict[tuple[int, int], int] = {}
    consumers_seen: dict[int, int] = {}
    for index, (orig_of, sol) in enumerate(pairs):
        for (consumer, server), amount in sol.assignment.items():
            orig_c = orig_of[consumer - 1]
            orig_s = orig_of[server - 1]
            previous = consumers_seen.get(orig_c)
            if previous is not None and previous != index:
                raise MergeConflict(
                    f"consumer {orig_c} served in two slices ({previous} and {index})"
                )
            consumers_seen[orig_c] = index
            key = (orig_c, orig_s)
            assignment[key] = assignment.get(key, 0) + amount
    return minimum_multiplicities(inst, assignment)


def baker_solve(inst: Instance, k: int, model: DemandModel) -> SolveResult:
    """Best-shift band solution; components are processed independently.

    A shift's cost is the sum of its band optima, and the first cheapest
    shift of each component wins; one merge joins the winning bands of
    all components and buys copies for the merged load, which costs at
    most the winning shifts' sum.  Trying every shift dominates the
    existential choice the analysis makes, so the merged cost is within
    (1 + 4/(k-1)) of optimal on planar inputs and exactly optimal once k
    reaches the number of BFS levels.  A component with L levels tries
    min(k, L) shifts: every r >= L - 1 cuts it as one unzeroed band, so
    r = L - 1 stands in for all of them.  The result's comments give
    every shift's cost, components numbered from 0 in `components` order.
    """
    if k < 2:
        raise ValueError("band width k must be at least 2")
    require_feasible(inst)
    chosen: list[tuple[tuple[int, ...], Solution]] = []
    comments: list[str] = []
    for comp, levels in enumerate(components(inst)):
        shifts = []
        for r in range(min(k, levels.num_levels)):
            bands = make_slices(inst, levels, k, r)
            shifts.append([(piece.orig_of, tddp.solve(piece.instance, model)) for piece in bands])
        costs = [sum(sol.cost for _, sol in bands) for bands in shifts]
        comments += (f"shift component={comp} r={r} cost={cost}" for r, cost in enumerate(costs))
        chosen += shifts[costs.index(min(costs))]
    return SolveResult(merge_solutions(inst, chosen), comments=comments)
