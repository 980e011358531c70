"""Exact optimal solvers for small instances.

These are the ground truth for approximation-ratio and DP-equivalence
testing.  Not built to scale: the unsplittable search is comfortable up
to ~15 vertices, the splittable one to ~12.

Lower bound used by both searches (documented because pruning correctness
depends on it): a completion of any partial decision costs at least
max(sum_s w(s) * ceil(load_s / c(s)),
    sum_s w(s) * load_s / c(s) + pending demand priced at the cheapest
    admissible weight-per-capacity-unit rate).
Loads only grow, so neither component ever exceeds the true completion
cost, and pruning only happens strictly above the incumbent.

The searches keep this bound in integers scaled by L, the lcm of the
positive capacities: the rate w(s) / c(s) is held as w(s) * (L // c(s)),
so the bound times L is an exact int, and it is compared with L times
the incumbent cost.  Scaling both sides by the same positive L keeps
every comparison, heap order and tie exactly as in rational arithmetic.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    Solution,
    ceil_div,
    is_feasible,
)
from .greedy import greedy_splittable, greedy_unsplittable


@dataclass(frozen=True)
class SearchBudget:
    """Node limit and optional initial incumbent cost for the searches."""

    max_nodes: int = 5_000_000
    upper_bound: int | None = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


class BudgetExhausted(CapdomError):
    """Search hit the node limit; any incumbent carried here is unproven."""

    def __init__(self, nodes: int, incumbent: Solution | None):
        super().__init__(f"search budget exhausted after {nodes} nodes")
        self.nodes = nodes
        self.incumbent = incumbent


class CostBoundExceeded(CapdomError):
    """No solution exists at or below the requested upper bound."""

    def __init__(self, bound: int | None):
        super().__init__(f"no solution with cost <= {bound}")
        self.bound = bound


class _Dinic:
    """Max flow on a small integer-capacity network."""

    def __init__(self, nodes: int):
        self.nodes = nodes
        self.head: list[list[int]] = [[] for _ in range(nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0)
        return idx

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for idx in self.head[u]:
                v = self.to[idx]
                if self.cap[idx] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.nodes

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    idx = self.head[u][it[u]]
                    v = self.to[idx]
                    if self.cap[idx] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[idx]))
                        if got > 0:
                            self.cap[idx] -= got
                            self.cap[idx ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 62)
                if pushed == 0:
                    break
                flow += pushed

    def flow_on(self, idx: int) -> int:
        return self.cap[idx ^ 1]


def feasibility_flow(
    inst: Instance, multiplicity: dict[int, int]
) -> dict[tuple[int, int], int] | None:
    """Assignment saturating every demand under the given copy counts, or None.

    Reduces to max flow: source -> consumers (cap d) -> closed-neighborhood
    servers (cap d) -> sink (cap c * x); integral capacities make the
    extracted assignment integral.
    """
    consumers = [v for v in inst.vertices() if inst.demand(v) > 0]
    total = sum(inst.demand(v) for v in consumers)
    if total == 0:
        return {}
    consumer_idx = {v: 1 + i for i, v in enumerate(consumers)}
    server_cap = {
        u: inst.capacity(u) * multiplicity.get(u, 0)
        for u in inst.vertices()
        if inst.capacity(u) * multiplicity.get(u, 0) > 0
    }
    servers = sorted(server_cap)
    server_idx = {u: 1 + len(consumers) + i for i, u in enumerate(servers)}
    sink = 1 + len(consumers) + len(servers)
    net = _Dinic(sink + 1)
    for v in consumers:
        net.add_edge(0, consumer_idx[v], inst.demand(v))
    middle: list[tuple[int, int, int]] = []
    for v in consumers:
        for u in sorted(inst.closed_neighborhood(v)):
            if u in server_idx:
                middle.append(
                    (v, u, net.add_edge(consumer_idx[v], server_idx[u], inst.demand(v)))
                )
    for u in servers:
        net.add_edge(server_idx[u], sink, server_cap[u])
    if net.max_flow(0, sink) < total:
        return None
    assignment: dict[tuple[int, int], int] = {}
    for v, u, idx in middle:
        amount = net.flow_on(idx)
        if amount > 0:
            assignment[(v, u)] = amount
    return assignment


def _vector_of(sol: Solution, inst: Instance) -> tuple[int, ...]:
    return tuple(sol.multiplicity.get(v, 0) for v in inst.vertices())


def _scaled_rates(capacity: list[int], weight: list[int]) -> tuple[int, list[int | None]]:
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
    witness is a stable fixture.
    """
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    # Per-vertex attributes indexed by vertex id; index 0 is unused.
    capacity = [0] + [a.capacity for a in inst.attrs]
    weight = [0] + [a.weight for a in inst.attrs]
    demand = [0] + [a.demand for a in inst.attrs]
    consumers = sorted(
        (v for v in inst.vertices() if demand[v] > 0),
        key=lambda v: (-demand[v], v),
    )
    if not consumers:
        return Solution.empty()
    scale, rates = _scaled_rates(capacity, weight)
    # options[i]: (server, c, w, scaled fractional cost of serving consumer i)
    options = []
    pending_steps = []
    for v in consumers:
        servers = sorted(u for u in inst.closed_neighborhood(v) if capacity[u] > 0)
        d = demand[v]
        options.append([(u, capacity[u], weight[u], rates[u] * d) for u in servers])
        pending_steps.append(min(rates[u] for u in servers) * d)

    greedy = greedy_unsplittable(inst).solution
    incumbent_cost = greedy.cost
    incumbent: Solution | None = greedy
    best_vec: tuple[int, ...] | None = _vector_of(greedy, inst)
    if budget.upper_bound is not None and budget.upper_bound < incumbent_cost:
        incumbent_cost = budget.upper_bound
        incumbent = None
        best_vec = None

    max_nodes = budget.max_nodes
    last = len(consumers)
    loads = [0] * (inst.n + 1)
    choice: list[int] = [0] * last
    nodes = 0

    def descend(i: int, cost_int: int, cost_frac: int, pending: int):
        # cost_frac and pending are scaled by L; cost_int is not.
        nonlocal nodes, incumbent_cost, incumbent, best_vec
        if i == last:
            vec = tuple(
                ceil_div(loads[v], capacity[v]) if loads[v] else 0
                for v in inst.vertices()
            )
            if cost_int < incumbent_cost or (
                cost_int == incumbent_cost and (best_vec is None or vec < best_vec)
            ):
                incumbent_cost = cost_int
                best_vec = vec
                assignment = {
                    (consumers[j], choice[j]): demand[consumers[j]]
                    for j in range(last)
                }
                multiplicity = {v: x for v, x in zip(inst.vertices(), vec) if x > 0}
                incumbent = Solution(multiplicity, assignment, cost_int)
            return
        d = demand[consumers[i]]
        pending -= pending_steps[i]
        for u, c, w, frac_step in options[i]:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExhausted(nodes, incumbent)
            old_load = loads[u]
            child_int = cost_int + w * (ceil_div(old_load + d, c) - ceil_div(old_load, c))
            child_frac = cost_frac + frac_step
            if child_int <= incumbent_cost and child_frac + pending <= incumbent_cost * scale:
                loads[u] = old_load + d
                choice[i] = u
                descend(i + 1, child_int, child_frac, pending)
                loads[u] = old_load

    descend(0, 0, 0, sum(pending_steps))
    if incumbent is None:
        raise CostBoundExceeded(budget.upper_bound)
    return incumbent


def exact_splittable(inst: Instance, budget: SearchBudget = SearchBudget()) -> Solution:
    """Provably optimal splittable solution.

    Best-first enumeration of multiplicity vectors in nondecreasing
    (cost + admissible completion bound, vector) order; the first vector
    admitting a feasible flow is optimal and lexicographically smallest
    among the optima.  Heap keys are L * (cost + bound), exact ints.
    """
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    total_demand = inst.total_demand()
    if total_demand == 0:
        return Solution.empty()

    greedy = greedy_splittable(inst).solution
    bound_cost = greedy.cost
    if budget.upper_bound is not None:
        bound_cost = min(bound_cost, budget.upper_bound)

    n = inst.n
    # Per-vertex attributes indexed by vertex id; index 0 is unused.
    capacity = [0] + [a.capacity for a in inst.attrs]
    weight = [0] + [a.weight for a in inst.attrs]
    demand = [0] + [a.demand for a in inst.attrs]
    max_copies = [0] + [
        0
        if capacity[v] == 0
        else ceil_div(sum(demand[u] for u in inst.closed_neighborhood(v)), capacity[v])
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
        (demand[v], inst.closed_neighborhood(v))
        for v in inst.vertices()
        if demand[v] > 0
    ]
    # tail_rates[v][j]: the least rate among consumer j's servers u > v,
    # or None when it has none.
    tail_rates = [
        [min((rates[u] for u in closed if u > v and rates[u] is not None), default=None) for _, closed in consumers]
        for v in range(n + 1)
    ]

    def completion_bound(v: int, covered: int, served: list[int], added: int) -> int | None:
        """L times an admissible extra cost to finish a vector whose entries
        up to v cover `covered` units, or None if hopeless.  `served` holds
        each consumer's units covered by servers u < v, and `added` is the
        capacity of v's copies."""
        shortfall = total_demand - covered
        best = 0
        if shortfall > 0:
            rate = suffix_rate[v + 1]
            if rate is None:
                return None
            best = shortfall * rate
        for (d, closed), got, tail in zip(consumers, served, tail_rates[v]):
            need = d - got - (added if v in closed else 0)
            if need <= 0:
                continue
            if tail is None:
                return None
            local = need * tail
            if local > best:
                best = local
        return best

    bound_scaled = bound_cost * scale
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), 0)]
    nodes = 0
    while heap:
        _, prefix, cost = heapq.heappop(heap)
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
        # The prefix's amounts, shared by every child.
        covered = sum(capacity[u] * x for u, x in enumerate(prefix, 1))
        served = [sum(capacity[u] * prefix[u - 1] for u in closed if u < v) for _, closed in consumers]
        for copies in range(max_copies[v] + 1):
            child_cost = cost + w * copies
            if child_cost > bound_cost:
                break
            added = c * copies
            extra = completion_bound(v, covered + added, served, added)
            if extra is None:
                continue
            key = child_cost * scale + extra
            if key > bound_scaled:
                continue
            heapq.heappush(heap, (key, prefix + (copies,), child_cost))
    raise CostBoundExceeded(bound_cost)


def exact_solve(
    inst: Instance, model: DemandModel, budget: SearchBudget = SearchBudget()
) -> Solution:
    if model is DemandModel.UNSPLITTABLE:
        return exact_unsplittable(inst, budget)
    return exact_splittable(inst, budget)
