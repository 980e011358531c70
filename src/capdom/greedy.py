"""Greedy logarithmic-approximation solvers.

Three variants share one skeleton: repeatedly buy copies of the vertex
with the best coverage-per-cost efficiency until every demand is routed.
They differ in how partially served demand is handled:

* unsplittable - each consumer goes wholly to one server
* splittable - residues may spread over servers; a doubling rule keeps
  every unsatisfied residue at >= half its demand
* unweighted splittable - a pre-pass parks floor(d/c) full copies on the
  largest-capacity neighbor so one copy suffices afterwards

The two splittable variants share one driver, `_split_greedy`: it routes
every pick the same way, leaves at most one vertex partly served, and
hands that vertex to the variant's repair (doubling its servers'
assignments, or routing the rest to g).

Efficiency ratios are kept as exact integer fractions and compared by
cross-multiplication; nothing here touches floating point.

All three run one loop, `_greedy_loop`, which caches one quote per
vertex.  A quote of u reads only the state of N[u], so after a pick only
the closed neighborhoods of the vertices whose demand changed are
re-quoted.  The cache is a tournament tree over vertex ids whose root is
the first best quote in vertex order; a re-quote replays only the
matches on its leaf's path.  A quote filters a closed neighborhood sorted
once per solve (`closed_by_demand`) down to its pending candidates and
keeps that list; the pick routes a prefix of it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Mapping, Sequence

from .core import (
    CapdomError,
    InfeasibleInstance,
    Instance,
    Solution,
    SolveResult,
    ceil_div,
    minimum_multiplicities,
    require_feasible,
)


class NoCandidates(CapdomError):
    """Efficiency was requested for a vertex with no unserved closed neighbor."""


class NotUnweighted(CapdomError):
    """The unweighted solver was given an instance with non-unit weights."""

    exit_code, label = 2, "usage error"


@dataclass(slots=True)
class EfficiencyQuote:
    """One vertex's best coverage-per-cost offer, as an unreduced fraction.

    Zero-weight vertices quote denominator 0 (infinite efficiency);
    cross-multiplication still orders those correctly.  candidates is the
    sorted list the quote was priced over; a pick routes its prefix.
    """

    vertex: int
    prefix_len: int
    numerator: int
    denominator: int
    candidates: list[int] = field(default_factory=list, compare=False, repr=False)


@dataclass(slots=True)
class TraceEntry:
    """One greedy decision: phase 0 pre-pass, 1 main pick, 2 cleanup."""

    iteration: int
    chosen: int
    prefix_len: int
    iter_cost: int
    phase: int

    def line(self) -> str:
        return f"t {self.iteration} {self.chosen} {self.prefix_len} {self.iter_cost} {self.phase}"


def _add(assignment: dict[tuple[int, int], int], consumer: int, server: int, amount: int):
    if amount > 0:
        key = (consumer, server)
        assignment[key] = assignment.get(key, 0) + amount


def closed_by_demand(
    inst: Instance, pending: Iterable[int], demand: Mapping[int, int] | Sequence[int]
) -> list[list[int]]:
    """Entry u lists the pending closed neighbors of u by (demand, id): each
    pending v, in that order, joins the lists of N[v].  A solver builds it
    once, for the fixed demands of a solve; its quotes filter it."""
    order: list[list[int]] = [[] for _ in inst.adj]
    for v in sorted(sorted(pending), key=demand.__getitem__):
        for u in (v, *inst.adj[v]):
            order[u].append(v)
    return order


def unsplit_efficiency(
    inst: Instance, order: list[list[int]], undominated: set[int], u: int
) -> EfficiencyQuote | None:
    """Best ratio (covered count) / (weight * copies) over candidate prefixes.

    Candidates are the undominated closed neighbors of u sorted by demand,
    ties by id: order[u] filtered by undominated.  Equal ratios resolve
    toward the longer prefix.  Returns None for zero-capacity vertices,
    which are never selectable.
    """
    demands = inst.demands
    candidates = [v for v in order[u] if v in undominated]
    if not candidates:
        raise NoCandidates(f"vertex {u} has no undominated closed neighbor")
    c = inst.capacities[u]
    if c == 0:
        return None
    w = inst.weights[u]
    if w == 0:
        return EfficiencyQuote(u, len(candidates), 1, 0, candidates)
    best_len, best_den = 0, 1
    prefix = 0
    for i, v in enumerate(candidates, 1):
        prefix += demands[v]
        den = w * ceil_div(prefix, c)
        if i * best_den >= best_len * den:
            best_len, best_den = i, den
    return EfficiencyQuote(u, best_len, best_len, best_den, candidates)


def split_efficiency(
    inst: Instance, residue: dict[int, int], base: dict[int, int], order: list[list[int]], u: int
) -> EfficiencyQuote:
    """Efficiency (X + Y) / w as one exact fraction over a common denominator.

    X sums residue/demand over the longest prefix a single copy fully
    absorbs; Y credits the leftover capacity against the next candidate.
    residue holds only positive residues: a vertex leaves it once its
    demand is fully routed.  Candidates sort by their base demand (not the
    residue), ties by id: order[u], sorted by base, filtered by residue.
    """
    candidates = [v for v in order[u] if v in residue]
    if not candidates:
        raise NoCandidates(f"vertex {u} has no unsatisfied closed neighbor")
    c = inst.capacities[u]
    if c <= 0:
        raise ValueError("split efficiency needs a positive-capacity vertex")
    prefix = 0
    j = 0
    for v in candidates:
        if prefix + residue[v] > c:
            break
        prefix += residue[v]
        j += 1
    involved = {base[v] for v in candidates[:j]}
    if j < len(candidates):
        involved.add(base[candidates[j]])
    common = 1
    for d in involved:
        common *= d
    numerator = sum(residue[v] * (common // base[v]) for v in candidates[:j])
    if j < len(candidates):
        numerator += (c - prefix) * (common // base[candidates[j]])
    return EfficiencyQuote(u, j, numerator, common * inst.weights[u], candidates)


def _replay(tree: list[EfficiencyQuote | None], node: int) -> None:
    """Re-run the matches above tree[node] until a winner stays the same.

    The better quote wins a match, by cross-multiplying numerators and
    denominators, and the left one on a tie; so every node holds the first
    best quote of its leaves in vertex order.
    """
    while node > 1:
        node >>= 1
        left, right = tree[2 * node], tree[2 * node + 1]
        winner = right if left is None or (
            right is not None
            and right.numerator * left.denominator > left.numerator * right.denominator
        ) else left
        if winner is tree[node]:
            return
        tree[node] = winner


def _greedy_loop(
    inst: Instance,
    pending: AbstractSet[int],
    quote: Callable[[int], EfficiencyQuote | None],
    take: Callable[[EfficiencyQuote, int], list[int]],
) -> None:
    """Buy the best-quoted vertex until nothing is pending.

    quote(u) prices u against the solver's current state; it is called only
    for a u with capacity and a pending closed neighbor, and every other
    vertex caches None, unselectable.  take(best, iteration) routes the
    pick, repairs the state, and returns every vertex whose demand changed;
    since a quote of u reads only N[u], re-quoting N[changed] keeps every
    cached quote, and so every cached candidate list, current.  The cache
    is a `_replay` tree with u's quote at leaf `leaves + u`; it is filled
    by replaying above every leaf pair, and tree[1] is the pick.
    """
    capacities, adj = inst.capacities, inst.adj

    def quoted(u: int) -> EfficiencyQuote | None:
        if capacities[u] == 0 or (u not in pending and pending.isdisjoint(adj[u])):
            return None
        return quote(u)

    leaves = 1 << inst.n.bit_length()  # more than n; leaf 0 stays None
    tree: list[EfficiencyQuote | None] = [None] * (2 * leaves)
    tree[leaves + 1 : leaves + inst.n + 1] = map(quoted, inst.vertices())
    for node in range(2 * leaves - 2, leaves - 1, -2):
        _replay(tree, node)
    iteration = 0
    while pending:
        iteration += 1
        if iteration > inst.n + 1:
            raise CapdomError("greedy failed to make progress")
        if tree[1] is None:
            raise InfeasibleInstance("no selectable vertex covers the remaining demand")
        changed = take(tree[1], iteration)
        for u in set(changed).union(*(adj[v] for v in changed)):
            tree[leaves + u] = quoted(u)
            _replay(tree, leaves + u)


def greedy_unsplittable(inst: Instance) -> SolveResult:
    """Whole-demand greedy: logarithmic-ratio solver for the unsplittable model."""
    require_feasible(inst)
    undominated = {v for v in inst.vertices() if inst.demands[v] > 0}
    order = closed_by_demand(inst, undominated, inst.demands)
    assignment: dict[tuple[int, int], int] = {}
    trace: list[TraceEntry] = []

    def take(best: EfficiencyQuote, iteration: int) -> list[int]:
        u = best.vertex
        chosen = best.candidates[: best.prefix_len]
        prefix = 0
        for v in chosen:
            _add(assignment, v, u, inst.demands[v])
            prefix += inst.demands[v]
            undominated.discard(v)
        iter_cost = inst.weights[u] * ceil_div(prefix, inst.capacities[u])
        trace.append(TraceEntry(iteration, u, best.prefix_len, iter_cost, 1))
        return chosen

    _greedy_loop(inst, undominated, lambda u: unsplit_efficiency(inst, order, undominated, u), take)
    return SolveResult(minimum_multiplicities(inst, assignment), trace)


def _split_greedy(
    inst: Instance,
    residue: dict[int, int],
    assignment: dict[tuple[int, int], int],
    trace: list[TraceEntry],
    settle: Callable[[int, int, int, int], None],
) -> Solution:
    """Route first-greedy-choice picks until every residue is served.

    residue holds only positive residues, and the candidates sort by its
    values on entry.  A prefix-0 pick buys floor(r/c) copies of u for the
    first candidate; any other pick serves the prefix's residues whole and
    spills the spare capacity onto the next candidate.  A pick leaves at
    most one vertex v partly served; settle(v, u, prefix_len, iteration)
    repairs it after the pick's phase-1 trace entry.
    """
    base = dict(residue)
    order = closed_by_demand(inst, residue, base)

    def take(best: EfficiencyQuote, iteration: int) -> list[int]:
        u, j, candidates = best.vertex, best.prefix_len, best.candidates
        c = inst.capacities[u]
        if j == 0:
            first = candidates[0]
            assert residue[first] > c, "prefix length 0 implies the first residue exceeds c(u)"
            copies, rest = divmod(residue[first], c)
            _add(assignment, first, u, c * copies)
            if rest:
                residue[first] = rest
            else:
                del residue[first]
            iter_cost = inst.weights[u] * copies
            changed = [first]
        else:
            changed = candidates[:j]
            spare = c
            for v in changed:
                spare -= residue[v]
                _add(assignment, v, u, residue.pop(v))
            if j < len(candidates) and spare > 0:
                nxt = candidates[j]
                _add(assignment, nxt, u, spare)
                residue[nxt] -= spare
                changed.append(nxt)
            iter_cost = inst.weights[u]
        trace.append(TraceEntry(iteration, u, j, iter_cost, 1))
        partial = [v for v in changed if v in residue]
        assert len(partial) <= 1, "at most one vertex is partly served per pick"
        for v in partial:
            settle(v, u, j, iteration)
        return changed

    _greedy_loop(inst, residue.keys(), lambda u: split_efficiency(inst, residue, base, order, u), take)
    return minimum_multiplicities(inst, assignment)


def greedy_splittable(inst: Instance) -> SolveResult:
    """Split-demand greedy with the doubling rule.

    After every iteration each unsatisfied vertex keeps at least half of
    its demand: whenever a residue drops below half, the assignments from
    the servers that partially served it are doubled, satisfying it.
    """
    require_feasible(inst)
    residue = {v: inst.demands[v] for v in inst.vertices() if inst.demands[v] > 0}
    assignment: dict[tuple[int, int], int] = {}
    map_sets: dict[int, set[int]] = {}
    trace: list[TraceEntry] = []

    def settle(v: int, u: int, prefix_len: int, iteration: int) -> None:
        if prefix_len == 0:
            map_sets[v] = {u}
        else:
            map_sets.setdefault(v, set()).add(u)
        if 2 * residue[v] < inst.demands[v]:
            for server in sorted(map_sets[v]):
                assignment[(v, server)] *= 2
            del residue[v]
            trace.append(TraceEntry(iteration, v, len(map_sets[v]), 0, 2))

    return SolveResult(_split_greedy(inst, residue, assignment, trace, settle), trace)


def greedy_unweighted_splittable(inst: Instance) -> SolveResult:
    """Unit-weight splittable greedy with the big-neighbor pre-pass.

    Phase 0 assigns c(g) * floor(d/c(g)) of every demand to the largest
    closed neighbor g, then the demands are rebased to the residues, after
    which one copy always suffices and partial vertices are finished by
    routing the rest to g.
    """
    if any(inst.weights[v] != 1 for v in inst.vertices()):
        raise NotUnweighted("every vertex weight must be 1")
    require_feasible(inst)
    trace: list[TraceEntry] = []
    assignment: dict[tuple[int, int], int] = {}
    residue: dict[int, int] = {}
    best_neighbor: dict[int, int] = {}
    for v in inst.vertices():
        if inst.demands[v] == 0:
            continue
        g = min((v, *inst.adj[v]), key=lambda u: (-inst.capacities[u], u))
        copies, rest = divmod(inst.demands[v], inst.capacities[g])
        if copies:
            _add(assignment, v, g, inst.capacities[g] * copies)
            trace.append(TraceEntry(0, g, 0, copies, 0))
        if rest:
            residue[v] = rest
            best_neighbor[v] = g

    def settle(v: int, u: int, prefix_len: int, iteration: int) -> None:
        g = best_neighbor[v]
        _add(assignment, v, g, residue.pop(v))
        trace.append(TraceEntry(iteration, g, 0, 0, 2))

    solution = _split_greedy(inst, residue, assignment, trace, settle)
    assert all(t.prefix_len >= 1 for t in trace if t.phase == 1), "rebased demands always fit one copy"
    return SolveResult(solution, trace)
