"""Shifting scheme: slice into bounded bands, solve bands exactly, merge.

Levels come from BFS layering, which gives the one property the scheme
needs: every edge joins vertices at most one level apart.  For each shift
r the graph is cut into bands of k interior levels padded by one zeroed
boundary level on each side, every band is solved exactly with the
tree-decomposition DP, and the cheapest shift wins.  Planarity is the
caller's claim; any input yields a feasible solution, only the ratio
guarantee needs it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    Solution,
    induced_instance,
    is_feasible,
)
from . import tddp
# These stay importable from here: perfbench's tracer wraps them in every
# module that imported them.  Slices reach them through `tddp.solve`.
from .tddp import solve_td  # noqa: F401
from .treewidth import heuristic_decomposition, make_nice  # noqa: F401


class Disconnected(CapdomError):
    """BFS leveling was asked for on a disconnected instance."""


class MergeConflict(CapdomError):
    """A consumer received demand in two slices; the slicing is broken."""


@dataclass(frozen=True)
class LevelAssignment:
    level: dict[int, int]
    num_levels: int


@dataclass(frozen=True)
class Slice:
    """One band: induced sub-instance with boundary demands zeroed."""

    instance: Instance
    orig_of: tuple[int, ...]
    kept: frozenset[int]
    zeroed: frozenset[int]
    low_level: int
    high_level: int


@dataclass
class BakerResult:
    solution: Solution
    shift_costs: list[list[int]] = field(default_factory=list)


def bfs_levels(inst: Instance, root: int) -> LevelAssignment:
    """Levels by BFS distance; adjacent vertices differ by at most one."""
    level = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in sorted(inst.neighbors(u)):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    if len(level) != inst.n:
        raise Disconnected(
            f"only {len(level)} of {inst.n} vertices reachable from {root}"
        )
    return LevelAssignment(level, max(level.values()) + 1)


def make_slices(
    inst: Instance, levels: LevelAssignment, k: int, r: int
) -> list[Slice]:
    """Bands for shift r: levels [jk+r-k, jk+r+1] with both ends zeroed.

    Every vertex lands in at most two bands and keeps its demand in
    exactly one; bands span at most k+2 consecutive levels.
    """
    if k < 2:
        raise ValueError("band width k must be at least 2")
    if not 0 <= r < k:
        raise ValueError("shift r must lie in [0, k)")
    top = levels.num_levels - 1
    slices: list[Slice] = []
    j = 0
    while (j - 1) * k + r + 1 <= top:
        low = (j - 1) * k + r
        high = j * k + r + 1
        members = [v for v, lv in levels.level.items() if low <= lv <= high]
        j += 1
        if not members:
            continue
        zeroed = frozenset(
            v for v in members if levels.level[v] in (low, high)
        )
        kept = frozenset(v for v in members if v not in zeroed)
        sub, orig_of = induced_instance(inst, members, zero_demand=zeroed)
        slices.append(Slice(sub, orig_of, kept, zeroed, low, high))
    return slices


def merge_solutions(pairs: list[tuple[tuple[int, ...], Solution]]) -> Solution:
    """Sum multiplicities and concatenate assignments back in original ids.

    Each pair holds a sub-instance's solution and its orig_of tuple, which
    maps sub-instance id i+1 to the original id.
    """
    multiplicity: dict[int, int] = {}
    assignment: dict[tuple[int, int], int] = {}
    consumers_seen: dict[int, int] = {}
    cost = 0
    for index, (orig_of, sol) in enumerate(pairs):
        cost += sol.cost
        for v, count in sol.multiplicity.items():
            orig = orig_of[v - 1]
            multiplicity[orig] = multiplicity.get(orig, 0) + count
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
    return Solution(multiplicity, assignment, cost)


def baker_solve(inst: Instance, k: int, model: DemandModel) -> BakerResult:
    """Best-shift band solution; components are processed independently.

    Trying every shift dominates the existential choice the analysis makes,
    so the merged cost is within (1 + 4/(k-1)) of optimal on planar inputs
    and exactly optimal once k reaches the number of BFS levels.
    """
    if k < 2:
        raise ValueError("band width k must be at least 2")
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    remaining = set(inst.vertices())
    components: list[list[int]] = []
    while remaining:
        start = min(remaining)
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in inst.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        components.append(sorted(seen))
        remaining -= seen

    chosen: list[tuple[tuple[int, ...], Solution]] = []
    shift_costs: list[list[int]] = []
    for comp in components:
        comp_inst, comp_orig = induced_instance(inst, comp)
        levels = bfs_levels(comp_inst, 1)
        best: Solution | None = None
        costs: list[int] = []
        for r in range(k):
            slices = make_slices(comp_inst, levels, k, r)
            merged = merge_solutions(
                [(piece.orig_of, tddp.solve(piece.instance, model)) for piece in slices]
            )
            costs.append(merged.cost)
            if best is None or merged.cost < best.cost:
                best = merged
        shift_costs.append(costs)
        chosen.append((comp_orig, best))
    return BakerResult(merge_solutions(chosen), shift_costs)
