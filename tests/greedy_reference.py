"""Reference greedy solvers: the full-rescan bodies that re-quote every
vertex at every pick, with the plain quote bodies they price by.

Each returns (result, snapshots).  The package solver must return a result
equal to `result` on the same instance; `snapshots` record the state that
the paper's per-iteration invariants speak about:

* unsplittable - the undominated set before each pick;
* splittable variants - the positive residues after each pick and the
  repair that follows it.

A test that checks an invariant on the snapshots also asserts that the
package solver's result equals `result`, so the invariant describes the
package's own run.

`reference_unsplit_efficiency`, `reference_split_efficiency` and
`reference_greedy_loop` are the package's quotes and loop before the
loop kept its cache in a tournament tree: each quote reads the instance
through its accessors and sorts its candidates anew by a key function,
ignoring the pre-sorted order the package quotes filter, and the loop
finds the best quote by one scan of the cache in vertex order.  The
reference greedies keep their splittable state in a `SimpleNamespace`
with the old `GreedyState` fields, `map_sets` included.
"""
from types import SimpleNamespace

from capdom.core import (
    CapdomError,
    InfeasibleInstance,
    SolveResult,
    ceil_div,
    is_feasible,
    minimum_multiplicities,
)
from capdom.greedy import (
    EfficiencyQuote,
    NoCandidates,
    NotUnweighted,
    TraceEntry,
    _add,
)


def reference_unsplit_efficiency(inst, order, undominated, u):
    candidates = sorted(
        undominated & (inst.adj[u] | {u}),
        key=lambda v: (inst.demands[v], v),
    )
    if not candidates:
        raise NoCandidates(f"vertex {u} has no undominated closed neighbor")
    c = inst.capacities[u]
    if c == 0:
        return None
    w = inst.weights[u]
    if w == 0:
        return EfficiencyQuote(u, len(candidates), 1, 0, candidates)
    best = None
    prefix = 0
    for i, v in enumerate(candidates, 1):
        prefix += inst.demands[v]
        num, den = i, w * ceil_div(prefix, c)
        if best is None or num * best[1] >= best[0] * den:
            best = (num, den, i)
    return EfficiencyQuote(u, best[2], best[0], best[1], candidates)


def reference_split_efficiency(inst, state, u):
    candidates = sorted(
        (v for v in (inst.adj[u] | {u}) if v in state.residue_demand),
        key=lambda v: (state.base_demand[v], v),
    )
    if not candidates:
        raise NoCandidates(f"vertex {u} has no unsatisfied closed neighbor")
    c = inst.capacities[u]
    if c <= 0:
        raise ValueError("split efficiency needs a positive-capacity vertex")
    prefix = 0
    j = 0
    for v in candidates:
        if prefix + state.residue_demand[v] > c:
            break
        prefix += state.residue_demand[v]
        j += 1
    involved = {state.base_demand[v] for v in candidates[:j]}
    if j < len(candidates):
        involved.add(state.base_demand[candidates[j]])
    common = 1
    for d in sorted(involved):
        common *= d
    numerator = sum(
        state.residue_demand[v] * (common // state.base_demand[v])
        for v in candidates[:j]
    )
    if j < len(candidates):
        numerator += (c - prefix) * (common // state.base_demand[candidates[j]])
    return EfficiencyQuote(u, j, numerator, common * inst.weights[u], candidates)


def beats(quote, other):
    """True when `quote` is strictly more efficient than `other`."""
    return quote.numerator * other.denominator > other.numerator * quote.denominator


def reference_pick_best(quotes):
    """The first maximum of the quotes that are not None, in list order."""
    best = None
    for q in quotes:
        if q is not None and (best is None or beats(q, best)):
            best = q
    if best is None:
        raise InfeasibleInstance("no selectable vertex covers the remaining demand")
    return best


def reference_greedy_loop(inst, pending, quote, take):
    """`greedy._greedy_loop` with its cache as a flat list and a linear pick."""

    def quoted(u):
        if inst.capacities[u] == 0 or pending.isdisjoint(inst.adj[u] | {u}):
            return None
        return quote(u)

    quotes = [None] + [quoted(u) for u in inst.vertices()]
    iteration = 0
    while pending:
        iteration += 1
        if iteration > inst.n + 1:
            raise CapdomError("greedy failed to make progress")
        dirty = set()
        for v in take(reference_pick_best(quotes), iteration):
            dirty |= inst.adj[v] | {v}
        for u in dirty:
            quotes[u] = quoted(u)


def reference_greedy_unsplittable(inst):
    """(result, undominated set before each pick)."""
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    undominated = {v for v in inst.vertices() if inst.demands[v] > 0}
    assignment = {}
    trace = []
    undominated_before = []
    iteration = 0
    while undominated:
        iteration += 1
        quotes = []
        for u in inst.vertices():
            if inst.capacities[u] == 0:
                continue
            if not (undominated & (inst.adj[u] | {u})):
                continue
            quotes.append(reference_unsplit_efficiency(inst, None, undominated, u))
        best = reference_pick_best(quotes)
        u = best.vertex
        chosen = sorted(
            undominated & (inst.adj[u] | {u}),
            key=lambda v: (inst.demands[v], v),
        )[: best.prefix_len]
        undominated_before.append(frozenset(undominated))
        prefix = 0
        for v in chosen:
            _add(assignment, v, u, inst.demands[v])
            prefix += inst.demands[v]
            undominated.discard(v)
        iter_cost = inst.weights[u] * ceil_div(prefix, inst.capacities[u])
        trace.append(TraceEntry(iteration, u, best.prefix_len, iter_cost, 1))
    solution = minimum_multiplicities(inst, assignment)
    return SolveResult(solution, trace), undominated_before


def _reference_split_iteration(inst, state, iteration, trace):
    quotes = []
    for u in inst.vertices():
        if inst.capacities[u] == 0:
            continue
        if any(
            state.residue_demand.get(v, 0) > 0 for v in (inst.adj[u] | {u})
        ):
            quotes.append(reference_split_efficiency(inst, state, u))
    best = reference_pick_best(quotes)
    u = best.vertex
    c = inst.capacities[u]
    candidates = sorted(
        (v for v in (inst.adj[u] | {u}) if state.residue_demand.get(v, 0) > 0),
        key=lambda v: (state.base_demand[v], v),
    )
    j = best.prefix_len
    if j == 0:
        first = candidates[0]
        residue = state.residue_demand[first]
        assert residue > c
        copies = residue // c
        _add(state.partial_assignment, first, u, c * copies)
        state.residue_demand[first] = residue - c * copies
        state.map_sets[first] = {u}
        iter_cost = inst.weights[u] * copies
    else:
        assigned = 0
        for v in candidates[:j]:
            _add(state.partial_assignment, v, u, state.residue_demand[v])
            assigned += state.residue_demand[v]
            state.residue_demand[v] = 0
        if j < len(candidates):
            spare = c - assigned
            if spare > 0:
                nxt = candidates[j]
                _add(state.partial_assignment, nxt, u, spare)
                state.residue_demand[nxt] -= spare
                state.map_sets.setdefault(nxt, set()).add(u)
        iter_cost = inst.weights[u]
    trace.append(TraceEntry(iteration, u, j, iter_cost, 1))


def _drop_settled(state):
    """Keep only positive residues, as `split_efficiency` expects, and
    return a copy of them: the snapshot after one pick and its repair."""
    state.residue_demand = {v: r for v, r in state.residue_demand.items() if r > 0}
    return dict(state.residue_demand)


def reference_greedy_splittable(inst):
    """(result, positive residues after each pick and its doubling)."""
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    state = SimpleNamespace(
        residue_demand={v: inst.demands[v] for v in inst.vertices() if inst.demands[v] > 0},
        map_sets={},
        partial_assignment={},
        base_demand={v: inst.demands[v] for v in inst.vertices()},
    )
    trace = []
    boundary = []
    iteration = 0
    while any(state.residue_demand.values()):
        iteration += 1
        if iteration > inst.n + 1:
            raise CapdomError("splittable greedy failed to make progress")
        _reference_split_iteration(inst, state, iteration, trace)
        below_half = [
            v
            for v in sorted(state.residue_demand)
            if 0 < 2 * state.residue_demand[v] < state.base_demand[v]
        ]
        assert len(below_half) <= 1
        for v in below_half:
            for server in sorted(state.map_sets.get(v, ())):
                state.partial_assignment[(v, server)] *= 2
            state.residue_demand[v] = 0
            trace.append(TraceEntry(iteration, v, len(state.map_sets.get(v, ())), 0, 2))
        boundary.append(_drop_settled(state))
    solution = minimum_multiplicities(inst, state.partial_assignment)
    return SolveResult(solution, trace), boundary


def reference_greedy_unweighted_splittable(inst):
    """(result, positive residues after each pick and its finishing step)."""
    if any(inst.weights[v] != 1 for v in inst.vertices()):
        raise NotUnweighted("every vertex weight must be 1")
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    best_neighbor = {}
    for v in inst.vertices():
        if inst.demands[v] > 0:
            best_neighbor[v] = min(
                inst.adj[v] | {v},
                key=lambda u: (-inst.capacities[u], u),
            )
    trace = []
    assignment = {}
    residue = {}
    for v in sorted(best_neighbor):
        g = best_neighbor[v]
        cg = inst.capacities[g]
        copies = inst.demands[v] // cg
        if copies > 0:
            _add(assignment, v, g, cg * copies)
            trace.append(TraceEntry(0, g, 0, copies, 0))
        residue[v] = inst.demands[v] - cg * copies
    state = SimpleNamespace(
        residue_demand={v: r for v, r in residue.items() if r > 0},
        map_sets={},
        partial_assignment=assignment,
        base_demand={v: r for v, r in residue.items() if r > 0},
    )
    boundary = []
    iteration = 0
    while any(state.residue_demand.values()):
        iteration += 1
        if iteration > inst.n + 1:
            raise CapdomError("unweighted greedy failed to make progress")
        _reference_split_iteration(inst, state, iteration, trace)
        assert trace[-1].prefix_len >= 1
        partial = [
            v
            for v in sorted(state.residue_demand)
            if 0 < state.residue_demand[v] < state.base_demand[v]
        ]
        assert len(partial) <= 1
        for v in partial:
            g = best_neighbor[v]
            _add(state.partial_assignment, v, g, state.residue_demand[v])
            state.residue_demand[v] = 0
            trace.append(TraceEntry(iteration, g, 0, 0, 2))
        boundary.append(_drop_settled(state))
    solution = minimum_multiplicities(inst, state.partial_assignment)
    result = SolveResult(solution, trace)
    return result, boundary
