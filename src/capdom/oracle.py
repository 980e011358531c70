"""Exact optimal solvers for small instances.

These are the ground truth for approximation-ratio and DP-equivalence
testing.  Not built to scale: README's "Scale expectations" puts their
reach at sparse random instances of about 30 vertices unsplittable and
20 splittable, and unit-weight grids up to 5x5.

Lower bound used by both searches (documented because pruning correctness
depends on it): a completion of any partial decision costs at least
max(sum_s w(s) * ceil(load_s / c(s)),
    sum_s w(s) * load_s / c(s) + pending demand priced at the cheapest
    admissible weight-per-capacity-unit rate).
Loads only grow, so neither component ever exceeds the true completion
cost.  Costs are integers, so a node is pruned as soon as its bound
exceeds `cap`, the largest cost still worth finding.

The searches keep this bound in integers scaled by L, the lcm of the
positive capacities: the rate w(s) / c(s) is held as w(s) * (L // c(s)),
so the bound times L is an exact int, compared with L times the cap.
The splittable search rounds its heap key up to whole cost units,
ceil(cost + bound), which loses nothing against an integral cap.

The unsplittable search runs two passes of one depth-first descent.
Pass 1 finds the optimum: cap starts one below the greedy cost (or at
the caller's inclusive upper bound) and drops to one below each solution
found, so no tie is walked.  Pass 2 recovers the lexicographically
smallest optimal multiplicity vector: with cap at OPT, each vertex in id
order is capped at one copy fewer than the incumbent has, and the first
solution within the caps is asked for until none exists.  The last
query's leaf is then the first leaf of the tree with that vector: the
witness a search walking every tie would keep.

Within one query the search descends into each server load vector at
most once: positive demands make the loads fix the depth, the cost so
far and every completion with its multiplicity vector.  A repeat's
subtree was searched under the same copy caps and a cap no lower than
the current one, and held no solution the query still wants, so a skip
changes nothing but the node count.  The seen set is emptied at each
query and whenever it reaches `SEEN_LIMIT` keys, so a search run to its
budget holds bounded memory; emptying it only gives up later skips.

The splittable search checks each complete vector with `feasibility_flow`:
fixed copy counts leave a transportation problem, solved by shortest
augmenting paths read off the instance and the current routing.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import (
    ORACLE_MAX_NODES,
    CapdomError,
    DemandModel,
    Instance,
    Solution,
    ceil_div,
    require_feasible,
)
from .greedy import greedy_splittable, greedy_unsplittable


SEEN_LIMIT = 1 << 18  # load vectors the unsplittable search remembers at once


@dataclass(frozen=True)
class SearchBudget:
    """Node limit and optional initial incumbent cost for the searches."""

    max_nodes: int = ORACLE_MAX_NODES
    upper_bound: int | None = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


class BudgetExhausted(CapdomError):
    """Search hit the node limit; any incumbent carried here is unproven."""

    exit_code, label = 4, "budget exhausted"

    def __init__(self, nodes: int, incumbent: Solution | None):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes
        self.incumbent = incumbent


class CostBoundExceeded(CapdomError):
    """No solution exists at or below the requested upper bound."""

    def __init__(self, bound: int | None):
        super().__init__(f"no solution with cost <= {bound}")
        self.bound = bound


def feasibility_flow(inst: Instance, multiplicity: dict[int, int]) -> dict[tuple[int, int], int] | None:
    """Assignment saturating every demand under the given copy counts, or None.

    Each consumer in id order pushes its demand along shortest augmenting
    paths: a breadth-first search steps to the servers with room in N[x]
    and from a full server back to the consumers routed to it, up to a
    server with spare room.  A consumer with no such path means no
    assignment exists.  Amounts stay integral.
    """
    spare = {u: inst.capacities[u] * multiplicity.get(u, 0) for u in inst.vertices()}
    # options[v]: the servers with room in N[v]; routed[u][x]: x's units on u.
    options = {
        v: [u for u in sorted((v, *inst.adj[v])) if spare[u] > 0]
        for v in inst.vertices()
        if inst.demands[v]
    }
    routed: dict[int, dict[int, int]] = {u: {} for u in spare}
    for v in options:
        need = inst.demands[v]
        while need:
            # came_from[u]: the consumer server u was reached from; back_from[x]:
            # the server consumer x was reached back from (0 for v itself).
            came_from: dict[int, int] = {}
            back_from = {v: 0}
            frontier = [v]
            end = 0
            for x in frontier:
                for u in options[x]:
                    if u in came_from:
                        continue
                    came_from[u] = x
                    if spare[u]:
                        end = u
                        break
                    for y, amount in routed[u].items():
                        if amount and y not in back_from:
                            back_from[y] = u
                            frontier.append(y)
                if end:
                    break
            if not end:
                return None
            # Walk back from end: each (x, u) hands x's units on u onward.
            hops = []
            x = came_from[end]
            while x != v:
                hops.append((x, back_from[x]))
                x = came_from[hops[-1][1]]
            push = min(need, spare[end], *(routed[u][x] for x, u in hops))
            need -= push
            spare[end] -= push
            for x, u in hops:
                routed[u][x] -= push
            for u in [end] + [u for _, u in hops]:
                routed[u][came_from[u]] = routed[u].get(came_from[u], 0) + push
    return dict(sorted(((x, u), a) for u, by in routed.items() for x, a in by.items() if a))


def _scaled_rates(capacity: tuple[int, ...], weight: tuple[int, ...]) -> tuple[int, list[int | None]]:
    """(L, rates): L is the lcm of the positive capacities and rates[v] is
    L * w(v) / c(v) as an exact int, or None where c(v) == 0."""
    scale = math.lcm(*(c for c in capacity if c > 0))
    rates = [w * (scale // c) if c > 0 else None for c, w in zip(capacity, weight)]
    return scale, rates


def exact_unsplittable(inst: Instance, budget: SearchBudget = SearchBudget()) -> Solution:
    """Provably optimal unsplittable solution via depth-first branch and bound.

    Branches over consumers in decreasing-demand order, trying every
    positive-capacity server in the closed neighborhood.  Among equal-cost
    optima the lexicographically smallest multiplicity vector wins, so the
    witness is a stable fixture; pass 2 finds it (see the module notes).
    """
    require_feasible(inst)
    capacity, weight, demand = inst.capacities, inst.weights, inst.demands
    consumers = sorted(
        (v for v in inst.vertices() if demand[v] > 0),
        key=lambda v: (-demand[v], v),
    )
    if not consumers:
        return Solution({}, {}, 0)
    scale, rates = _scaled_rates(capacity, weight)
    # options[i]: (server, c, w, scaled fractional cost, load-key step) for consumer i
    radix = sum(demand) + 1
    options = []
    pending_steps = []
    for v in consumers:
        servers = sorted(u for u in (v, *inst.adj[v]) if capacity[u] > 0)
        d = demand[v]
        options.append([(u, capacity[u], weight[u], rates[u] * d, d * radix**u) for u in servers])
        pending_steps.append(min(rates[u] for u in servers) * d)

    incumbent: Solution | None = greedy_unsplittable(inst).solution
    # cap: the largest cost still searched for; bounds are inclusive.
    cap = incumbent.cost - 1
    if budget.upper_bound is not None and budget.upper_bound <= cap:
        cap = budget.upper_bound
        incumbent = None

    max_nodes = budget.max_nodes
    last = len(consumers)
    loads = [0] * (inst.n + 1)
    copy_caps = [radix] * (inst.n + 1)  # radix exceeds every copy count
    choice: list[int] = [0] * last
    nodes = 0
    first_only = False
    # Keys sum(loads[u] * radix**u) of the load vectors already descended into.
    seen: set[int] = set()
    seen_limit = SEEN_LIMIT

    def descend(i: int, cost_int: int, cost_frac: int, pending: int, key: int) -> bool:
        # cost_frac and pending are scaled by L; cost_int is not.  Returns
        # True once a first_only query has its solution.
        nonlocal nodes, cap, incumbent
        if i == last:
            assignment = {(consumers[j], choice[j]): demand[consumers[j]] for j in range(last)}
            multiplicity = {v: ceil_div(loads[v], capacity[v]) for v in inst.vertices() if loads[v]}
            incumbent = Solution(multiplicity, assignment, cost_int)
            if not first_only:
                cap = cost_int - 1
            return first_only
        d = demand[consumers[i]]
        pending -= pending_steps[i]
        for u, c, w, frac_step, key_step in options[i]:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExhausted(nodes, incumbent)
            old_load = loads[u]
            copies = ceil_div(old_load + d, c)
            child_int = cost_int + w * (copies - ceil_div(old_load, c))
            child_frac = cost_frac + frac_step
            if child_int <= cap and child_frac + pending <= cap * scale and copies <= copy_caps[u]:
                child_key = key + key_step
                if child_key in seen:
                    continue
                if len(seen) >= seen_limit:
                    seen.clear()
                seen.add(child_key)
                loads[u] = old_load + d
                choice[i] = u
                found = descend(i + 1, child_int, child_frac, pending, child_key)
                loads[u] = old_load
                if found:
                    return True
        return False

    def query() -> bool:
        seen.clear()
        return descend(0, 0, 0, sum(pending_steps), 0)

    try:
        query()  # pass 1: every solution found lowers cap below its cost
        if incumbent is None:
            raise CostBoundExceeded(budget.upper_bound)
        cap, first_only = incumbent.cost, True
        for v in inst.vertices():  # pass 2: fix v at its least count
            copy_caps[v] = incumbent.multiplicity.get(v, 0) - 1
            while copy_caps[v] >= 0 and query():
                copy_caps[v] = incumbent.multiplicity.get(v, 0) - 1
            copy_caps[v] += 1
    finally:
        seen.clear()  # descend's closure cycle would keep the set until a GC
    return incumbent


def exact_splittable(inst: Instance, budget: SearchBudget = SearchBudget()) -> Solution:
    """Provably optimal splittable solution.

    Best-first enumeration of multiplicity vectors in nondecreasing
    (ceil(cost + admissible completion bound), vector) order; the first
    vector admitting a feasible flow is optimal and lexicographically
    smallest among the optima, since within one whole cost level entries
    pop in prefix order.
    """
    require_feasible(inst)
    total_demand = sum(inst.demands)
    if total_demand == 0:
        return Solution({}, {}, 0)

    greedy = greedy_splittable(inst).solution
    bound_cost = greedy.cost
    if budget.upper_bound is not None:
        bound_cost = min(bound_cost, budget.upper_bound)

    n = inst.n
    capacity, weight, demand = inst.capacities, inst.weights, inst.demands
    max_copies = [0] + [
        0
        if capacity[v] == 0
        else ceil_div(sum(demand[u] for u in (v, *inst.adj[v])), capacity[v])
        for v in inst.vertices()
    ]
    scale, rates = _scaled_rates(capacity, weight)
    suffix_rate: list[int | None] = [None] * (n + 2)
    for v in range(n, 0, -1):
        best = suffix_rate[v + 1]
        r = rates[v]
        if r is not None and (best is None or r < best):
            best = r
        suffix_rate[v] = best

    consumers = [
        (demand[v], inst.adj[v] | {v})
        for v in inst.vertices()
        if demand[v] > 0
    ]
    # tail_rates[v][j]: the least rate among consumer j's servers u > v,
    # or None when it has none.
    tail_rates = [
        [min((rates[u] for u in closed if u > v and rates[u] is not None), default=None) for _, closed in consumers]
        for v in range(n + 1)
    ]

    def completion_bound(v: int, covered: int, served: list[int]) -> int | None:
        """L times an admissible extra cost to finish a vector whose entries
        up to v cover `covered` units, or None if hopeless.  `served` holds
        each consumer's units covered by servers u <= v."""
        shortfall = total_demand - covered
        best = 0
        if shortfall > 0:
            rate = suffix_rate[v + 1]
            if rate is None:
                return None
            best = shortfall * rate
        for (d, _), got, tail in zip(consumers, served, tail_rates[v]):
            need = d - got
            if need <= 0:
                continue
            if tail is None:
                return None
            local = need * tail
            if local > best:
                best = local
        return best

    # (key, prefix, cost, covered, served): unique prefixes end every comparison.
    heap: list[tuple[int, tuple[int, ...], int, int, list[int]]] = [(0, (), 0, 0, [0] * len(consumers))]
    nodes = 0
    while heap:
        _, prefix, cost, covered, served = heapq.heappop(heap)
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExhausted(nodes, greedy if greedy.cost <= bound_cost else None)
        if len(prefix) == n:
            multiplicity = {v: x for v, x in zip(inst.vertices(), prefix) if x > 0}
            assignment = feasibility_flow(inst, multiplicity)
            if assignment is None:
                continue
            return Solution(multiplicity, assignment, cost)
        v = len(prefix) + 1
        w, c = weight[v], capacity[v]
        for copies in range(max_copies[v] + 1):
            child_cost = cost + w * copies
            if child_cost > bound_cost:
                break
            added = c * copies
            child_served = [got + added if v in closed else got for got, (_, closed) in zip(served, consumers)]
            extra = completion_bound(v, covered + added, child_served)
            if extra is None:
                continue
            key = child_cost + ceil_div(extra, scale)
            if key > bound_cost:
                continue
            heapq.heappush(heap, (key, prefix + (copies,), child_cost, covered + added, child_served))
    raise CostBoundExceeded(bound_cost)


def exact_solve(
    inst: Instance, model: DemandModel, budget: SearchBudget = SearchBudget()
) -> Solution:
    if model is DemandModel.UNSPLITTABLE:
        return exact_unsplittable(inst, budget)
    return exact_splittable(inst, budget)
