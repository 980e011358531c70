from __future__ import annotations

import heapq
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdom import oracle, tddp
from capdom.core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    Solution,
    ceil_div,
    is_feasible,
    random_instance,
    verify_solution,
)
from capdom.greedy import greedy_splittable, greedy_unsplittable
from capdom.oracle import (
    BudgetExhausted,
    CostBoundExceeded,
    SearchBudget,
    exact_splittable,
    exact_unsplittable,
    feasibility_flow,
)

from conftest import (
    brute_assignment_exists,
    brute_splittable_cost,
    brute_unsplittable,
    brute_unsplittable_cost,
    grid_instance,
    hall_condition_holds,
    mk,
    p3_instance,
    small_instances,
    triples,
)

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


class TestFeasibilityFlow:
    def test_p3_center_single_copy(self, p3):
        assignment = feasibility_flow(p3, {2: 1})
        assert assignment is not None
        assert sum(a for (v, _), a in assignment.items()) == 3

    def test_no_copies_no_flow(self, p3):
        assert feasibility_flow(p3, {}) is None

    def test_single_vertex_self_serve(self):
        inst = mk([(2, 3, 7)])
        assert feasibility_flow(inst, {1: 3}) == {(1, 1): 7}

    def test_spec_split_witness(self):
        inst = mk([(1, 2, 3), (1, 2, 0)], [(1, 2)])
        assert feasibility_flow(inst, {1: 1, 2: 1}) == {(1, 1): 2, (1, 2): 1}

    def test_matches_backtracking_search(self):
        # flow finds an assignment iff exhaustive integral search finds one
        for seed in range(120):
            n = 1 + seed % 5
            inst = random_instance(n, 0.5, 3, 3, 4, seed)
            mult = {
                v: seed * (v + 1) % 3
                for v in inst.vertices()
                if inst.capacities[v] > 0
            }
            got = feasibility_flow(inst, mult)
            expect = brute_assignment_exists(inst, mult)
            assert (got is not None) == expect
            if got is not None:
                served = {}
                load = {}
                for (v, u), amount in got.items():
                    assert amount > 0
                    assert u == v or u in inst.adj[v]
                    served[v] = served.get(v, 0) + amount
                    load[u] = load.get(u, 0) + amount
                for v in inst.vertices():
                    assert served.get(v, 0) >= inst.demands[v]
                    assert load.get(v, 0) <= inst.capacities[v] * mult.get(v, 0)


class TestFeasibilityFlowHall:
    def test_routes_exactly_when_hall_condition_holds(self):
        outcomes = set()
        for seed in range(300):
            rng = random.Random(seed)
            n = 6 + seed % 5
            inst = random_instance(n, rng.choice([0.2, 0.35, 0.5]), 3, 3, 5, seed)
            mult = {v: rng.randint(0, 2) for v in inst.vertices()}
            got = feasibility_flow(inst, mult)
            assert (got is not None) == hall_condition_holds(inst, mult), seed
            outcomes.add(got is not None)
            if got is None:
                continue
            served = dict.fromkeys(inst.vertices(), 0)
            load = dict.fromkeys(inst.vertices(), 0)
            for (v, u), amount in got.items():
                assert amount > 0 and (u == v or u in inst.adj[v])
                served[v] += amount
                load[u] += amount
            for v in inst.vertices():
                assert served[v] == inst.demands[v]
                assert load[v] <= inst.capacities[v] * mult.get(v, 0)
        assert outcomes == {True, False}


class TestExactUnsplittable:
    def test_single_vertex(self):
        assert exact_unsplittable(mk([(2, 3, 7)])).cost == 6

    def test_p3(self, p3):
        sol = exact_unsplittable(p3)
        assert sol.cost == 3
        assert sol.multiplicity == {2: 1}

    def test_star(self):
        inst = mk(
            [(1, 10, 0), (5, 1, 2), (5, 1, 2), (5, 1, 2)],
            [(1, 2), (1, 3), (1, 4)],
        )
        assert exact_unsplittable(inst).cost == 1

    def test_matches_brute_force(self):
        for seed in range(120):
            n = 1 + seed % 6
            inst = random_instance(n, 0.45, 3, 3, 3, seed)
            sol = exact_unsplittable(inst)
            best, vectors = brute_unsplittable(inst)
            assert sol.cost == best
            assert verify_solution(inst, sol, UNSPLIT).passed

    def test_lexicographically_smallest_witness(self):
        for seed in range(60):
            n = 1 + seed % 5
            inst = random_instance(n, 0.5, 3, 3, 3, seed)
            sol = exact_unsplittable(inst)
            _, vectors = brute_unsplittable(inst)
            got = tuple(sol.multiplicity.get(v, 0) for v in inst.vertices())
            assert got == min(vectors)

    def test_infeasible(self):
        with pytest.raises(InfeasibleInstance):
            exact_unsplittable(mk([(1, 0, 1)]))

    def test_budget_exhausted_carries_incumbent(self):
        inst = random_instance(8, 0.5, 3, 3, 3, 11)
        with pytest.raises(BudgetExhausted) as info:
            exact_unsplittable(inst, SearchBudget(max_nodes=2))
        assert info.value.incumbent is not None
        assert verify_solution(inst, info.value.incumbent, UNSPLIT).passed

    def test_cost_bound_exceeded(self):
        with pytest.raises(CostBoundExceeded):
            exact_unsplittable(mk([(2, 3, 7)]), SearchBudget(upper_bound=5))

    def test_cost_bound_inclusive(self):
        sol = exact_unsplittable(mk([(2, 3, 7)]), SearchBudget(upper_bound=6))
        assert sol.cost == 6


class TestExactSplittable:
    def test_single_vertex(self):
        assert exact_splittable(mk([(2, 3, 7)])).cost == 6

    def test_adjacent_pair_splits(self):
        inst = mk([(1, 2, 3), (1, 2, 0)], [(1, 2)])
        sol = exact_splittable(inst)
        assert sol.cost == 2
        # lex-smallest optimum parks both copies on the second vertex
        assert sol.multiplicity == {2: 2}

    def test_zero_demand(self):
        sol = exact_splittable(mk([(1, 1, 0), (1, 1, 0)], [(1, 2)]))
        assert sol.cost == 0 and sol.multiplicity == {}

    def test_matches_brute_force(self):
        for seed in range(80):
            n = 1 + seed % 4
            inst = random_instance(n, 0.5, 3, 3, 3, seed)
            sol = exact_splittable(inst)
            assert sol.cost == brute_splittable_cost(inst)
            assert verify_solution(inst, sol, SPLIT).passed

    def test_never_worse_than_unsplittable(self):
        for seed in range(60):
            n = 1 + seed % 6
            inst = random_instance(n, 0.45, 3, 3, 3, seed)
            assert exact_splittable(inst).cost <= exact_unsplittable(inst).cost

    def test_infeasible(self):
        with pytest.raises(InfeasibleInstance):
            exact_splittable(mk([(1, 0, 2), (1, 0, 0)], [(1, 2)]))

    def test_budget_exhausted(self):
        inst = random_instance(7, 0.5, 3, 3, 3, 13)
        with pytest.raises(BudgetExhausted):
            exact_splittable(inst, SearchBudget(max_nodes=1))

    def test_cost_bound_exceeded(self):
        with pytest.raises(CostBoundExceeded):
            exact_splittable(mk([(2, 3, 7)]), SearchBudget(upper_bound=5))

    def test_cost_bound_of_exactly_the_optimum_is_admitted(self):
        below_greedy = 0
        for seed in range(60):
            inst = random_instance(2 + seed % 5, 0.5, 3, 3, 3, seed)
            if not sum(inst.demands):
                continue
            opt = exact_splittable(inst)
            below_greedy += opt.cost < greedy_splittable(inst).solution.cost
            assert exact_splittable(inst, SearchBudget(upper_bound=opt.cost)) == opt
            with pytest.raises(CostBoundExceeded):
                exact_splittable(inst, SearchBudget(upper_bound=opt.cost - 1))
        # Only a bound below the greedy cost is the search's own bound.
        assert below_greedy >= 5

    def test_lexicographically_smallest_witness(self):
        tied = 0
        for seed in range(60):
            inst = random_instance(1 + seed % 4, 0.6, 2, 3, 3, seed)
            optima = brute_splittable_optima(inst)
            sol = exact_splittable(inst)
            assert tuple(sol.multiplicity.get(v, 0) for v in inst.vertices()) == optima[0]
            tied += len(optima) > 1
        assert tied >= 10


def brute_splittable_optima(inst: Instance) -> list[tuple[int, ...]]:
    """Every optimal multiplicity vector up to exact_splittable's per-vertex
    copy limit, ceil(demand of N[v] / c(v)), in lexicographic order."""
    limits = [
        ceil_div(sum(inst.demands[u] for u in (inst.adj[v] | {v})), inst.capacities[v])
        if inst.capacities[v]
        else 0
        for v in inst.vertices()
    ]
    best, optima = None, []
    for vec in itertools.product(*(range(x + 1) for x in limits)):
        cost = sum(inst.weights[v] * x for v, x in zip(inst.vertices(), vec))
        if best is not None and cost > best:
            continue
        if feasibility_flow(inst, {v: x for v, x in zip(inst.vertices(), vec) if x}) is None:
            continue
        if best is None or cost < best:
            best, optima = cost, []
        optima.append(vec)
    return optima


# Unit-weight grids (rows, cols, capacity) with d = 1, and their optima.
# The rate bound equals the optimum on each, so under a strict cap both
# searches finish well inside the default budget.
UNIT_GRIDS = [(3, 4, 2, 6), (4, 4, 2, 8), (4, 4, 3, 6), (4, 5, 2, 10), (5, 5, 3, 9)]


@pytest.mark.parametrize("model", [UNSPLIT, SPLIT], ids=["unsplit", "split"])
@pytest.mark.parametrize("rows, cols, c, opt", UNIT_GRIDS)
def test_unit_grid_finishes_at_the_dp_optimum(rows, cols, c, opt, model):
    inst = grid_instance(rows, cols, (1, c, 1))
    sol = oracle.exact_solve(inst, model)
    assert sol.cost == opt == tddp.solve(inst, model).cost
    assert verify_solution(inst, sol, model).passed


# Rational-arithmetic references: the searches as they were before their
# bounds were scaled to ints.  The integer searches must walk the same
# tree, so every outcome below, node counts included, must match exactly.


def reference_exact_unsplittable(
    inst: Instance, budget: SearchBudget = SearchBudget(), skip_repeats: bool = True
) -> Solution:
    """exact_unsplittable with its bound held in Fractions.  With
    skip_repeats=False it descends into every load vector however often
    it is reached, as the search did before it skipped repeats."""
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    consumers = sorted(
        (v for v in inst.vertices() if inst.demands[v] > 0),
        key=lambda v: (-inst.demands[v], v),
    )
    if not consumers:
        return Solution({}, {}, 0)
    servers = {
        v: sorted(u for u in (inst.adj[v] | {v}) if inst.capacities[u] > 0)
        for v in consumers
    }
    rate = {u: Fraction(inst.weights[u], inst.capacities[u]) for v in consumers for u in servers[v]}
    pending_step = {v: min(rate[u] for u in servers[v]) * inst.demands[v] for v in consumers}
    # frac_steps[v]: (u, what serving v on u adds to the fractional bound):
    # v's fractional cost on u less v's share of the pending bound.
    frac_steps = {
        v: [(u, rate[u] * inst.demands[v] - pending_step[v]) for u in servers[v]]
        for v in consumers
    }

    incumbent: Solution | None = greedy_unsplittable(inst).solution
    cap = incumbent.cost - 1
    if budget.upper_bound is not None and budget.upper_bound <= cap:
        cap = budget.upper_bound
        incumbent = None

    loads: dict[int, int] = {}
    copy_caps: dict[int, int] = {}  # absent: uncapped
    seen: set[frozenset[tuple[int, int]]] = set()
    choice: list[int] = [0] * len(consumers)
    nodes = 0

    def descend(i: int, cost_int: int, frac_bound: Fraction, first_only: bool) -> bool:
        # frac_bound: the fractional cost so far plus the pending demand at
        # its cheapest rates.  True once a first_only search has its solution.
        nonlocal nodes, cap, incumbent
        if i == len(consumers):
            multiplicity = {v: ceil_div(loads[v], inst.capacities[v]) for v in sorted(loads)}
            assignment = {
                (consumers[j], choice[j]): inst.demands[consumers[j]]
                for j in range(len(consumers))
            }
            incumbent = Solution(multiplicity, assignment, cost_int)
            if not first_only:
                cap = cost_int - 1
            return first_only
        v = consumers[i]
        d = inst.demands[v]
        for u, frac_step in frac_steps[v]:
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExhausted(nodes, incumbent)
            c, w = inst.capacities[u], inst.weights[u]
            old_load = loads.get(u, 0)
            copies = ceil_div(old_load + d, c)
            child_int = cost_int + w * (copies - ceil_div(old_load, c))
            child_bound = frac_bound + frac_step
            loads[u] = old_load + d
            choice[i] = u
            found = False
            if max(child_int, child_bound) <= cap and copies <= copy_caps.get(u, copies):
                state = frozenset(loads.items())
                if not (skip_repeats and state in seen):
                    seen.add(state)
                    found = descend(i + 1, child_int, child_bound, first_only)
            if old_load:
                loads[u] = old_load
            else:
                del loads[u]
            if found:
                return True
        return False

    def search(first_only: bool) -> bool:
        seen.clear()
        return descend(0, 0, sum(pending_step.values(), Fraction(0)), first_only)

    # Pass 1: the optimum, each solution found capping the search below it.
    search(first_only=False)
    if incumbent is None:
        raise CostBoundExceeded(budget.upper_bound)
    # Pass 2: with cap = OPT, lower each count in id order while an optimum
    # keeps it, then fix it.
    cap = incumbent.cost
    for v in inst.vertices():
        while incumbent.multiplicity.get(v, 0) > 0:
            copy_caps[v] = incumbent.multiplicity.get(v, 0) - 1
            if not search(first_only=True):
                break
        copy_caps[v] = incumbent.multiplicity.get(v, 0)
    return incumbent


def reference_exact_splittable(inst: Instance, budget: SearchBudget = SearchBudget()) -> Solution:
    """exact_splittable with its bound held in Fractions.  Heap keys are
    rounded up to whole cost units and tied by prefix."""
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    total_demand = sum(inst.demands)
    if total_demand == 0:
        return Solution({}, {}, 0)

    greedy = greedy_splittable(inst).solution
    bound_cost = greedy.cost
    if budget.upper_bound is not None:
        bound_cost = min(bound_cost, budget.upper_bound)

    n = inst.n
    max_copies = [
        0
        if inst.capacities[v] == 0
        else ceil_div(
            sum(inst.demands[u] for u in (inst.adj[v] | {v})),
            inst.capacities[v],
        )
        for v in inst.vertices()
    ]
    rates: list[Fraction | None] = [
        Fraction(inst.weights[v], inst.capacities[v]) if inst.capacities[v] > 0 else None
        for v in inst.vertices()
    ]
    suffix_rate: list[Fraction | None] = [None] * (n + 2)
    for v in range(n, 0, -1):
        best = suffix_rate[v + 1]
        r = rates[v - 1]
        if r is not None and (best is None or r < best):
            best = r
        suffix_rate[v] = best

    consumers = [v for v in inst.vertices() if inst.demands[v] > 0]

    def completion_bound(prefix: tuple[int, ...]) -> Fraction | None:
        """Admissible extra cost to finish the vector, or None if hopeless."""
        i = len(prefix)
        covered = sum(inst.capacities[v] * prefix[v - 1] for v in range(1, i + 1))
        shortfall = total_demand - covered
        best = Fraction(0)
        if shortfall > 0:
            rate = suffix_rate[i + 1]
            if rate is None:
                return None
            best = shortfall * rate
        for v in consumers:
            have = sum(
                inst.capacities[u] * prefix[u - 1]
                for u in (inst.adj[v] | {v})
                if u <= i
            )
            need = inst.demands[v] - have
            if need <= 0:
                continue
            options = [
                rates[u - 1]
                for u in (inst.adj[v] | {v})
                if u > i and rates[u - 1] is not None
            ]
            if not options:
                return None
            local = need * min(options)
            if local > best:
                best = local
        return best

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
        w = inst.weights[v]
        for copies in range(max_copies[v - 1] + 1):
            child_cost = cost + w * copies
            if child_cost > bound_cost:
                break
            child = prefix + (copies,)
            extra = completion_bound(child)
            if extra is None:
                continue
            key = math.ceil(child_cost + extra)
            if key > bound_cost:
                continue
            heapq.heappush(heap, (key, child, child_cost))
    raise CostBoundExceeded(bound_cost)



SEARCH_PAIRS = [
    (exact_unsplittable, reference_exact_unsplittable),
    (exact_splittable, reference_exact_splittable),
]
SEARCH_IDS = ["unsplit", "split"]


def _outcome(search, inst, budget=SearchBudget()):
    """The solution, or the error raised; a budget stop keeps its node count
    and incumbent."""
    try:
        return search(inst, budget)
    except BudgetExhausted as exc:
        return BudgetExhausted, exc.nodes, exc.incumbent
    except CapdomError as exc:
        return type(exc)


def _nodes_to_finish(search, inst) -> int:
    """The smallest node budget under which the search completes."""
    lo, hi = 1, 1
    while isinstance(_outcome(search, inst, SearchBudget(max_nodes=hi)), tuple):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(_outcome(search, inst, SearchBudget(max_nodes=mid)), tuple):
            lo = mid + 1
        else:
            hi = mid
    return hi


def differential_cases():
    """300 seeded instances (n = 1-9), each with a budget.

    Weights are redrawn in [0, 4], so some are zero.  Every third seed
    redraws capacities in [0, 2] after the generator's feasibility pass,
    which leaves some instances infeasible.  Every fourth seed sets an
    upper bound in [0, 5], which some optima exceed.
    """
    for seed in range(300):
        base = random_instance(1 + seed % 9, (0.2, 0.35, 0.55)[seed % 3], 3, 3, 3, seed)
        rng = random.Random(seed)
        attrs = []
        for _, capacity, demand in triples(base):
            w = rng.randint(0, 4)
            c = rng.randint(0, 2) if seed % 3 == 0 else capacity
            attrs.append((w, c, demand))
        upper = rng.randint(0, 5) if seed % 4 == 1 else None
        yield Instance(base.n, tuple(attrs), base.edges), SearchBudget(upper_bound=upper)


# Searches of 32-366 nodes whose every budget is swept; along the way the
# unsplittable search holds 4-6 different incumbents.
SWEEP_INSTANCES = [random_instance(7 + seed % 3, 0.4, 5, 3, 3, seed) for seed in (16, 31, 39)]


class TestScaledSearchMatchesReference:
    @pytest.mark.parametrize("fast, reference", SEARCH_PAIRS, ids=SEARCH_IDS)
    def test_seeded_batch(self, fast, reference):
        kinds = set()
        for inst, budget in differential_cases():
            expected = _outcome(reference, inst, budget)
            assert _outcome(fast, inst, budget) == expected
            kinds.add(type(expected) if isinstance(expected, Solution) else expected)
        assert kinds == {Solution, InfeasibleInstance, CostBoundExceeded}

    @pytest.mark.parametrize("fast, reference", SEARCH_PAIRS, ids=SEARCH_IDS)
    def test_budget_sweep_pins_search_tree(self, fast, reference):
        # Both sides stop at the same budgets with the same incumbents, and
        # the first budget that completes is the same: the node count.
        for inst in SWEEP_INSTANCES:
            incumbents = []
            max_nodes = 1
            while True:
                budget = SearchBudget(max_nodes=max_nodes)
                expected = _outcome(reference, inst, budget)
                assert _outcome(fast, inst, budget) == expected
                if not isinstance(expected, tuple):
                    break
                if expected[2] not in incumbents:
                    incumbents.append(expected[2])
                max_nodes += 1
            assert max_nodes > 30
            if fast is exact_unsplittable:
                assert len(incumbents) >= 4

    @pytest.mark.parametrize("fast, reference", SEARCH_PAIRS, ids=SEARCH_IDS)
    def test_coprime_capacities_and_large_weights(self, fast, reference):
        # L = 7*11*13*17*19*23 = 7436429 and weights near 10**15 put the
        # scaled rates past 2**53.  Bounds held in floats round here: the
        # unsplittable search then misses the lexicographically smallest
        # optimum, and the splittable one prunes every optimum.
        inst = mk(
            [
                (1783052722059664, 19, 38),
                (1064852041794287, 7, 18),
                (0, 23, 8),
                (1066695493077530, 11, 11),
                (4294197251953168, 13, 0),
                (0, 17, 6),
            ],
            [(1, 5), (1, 6), (2, 3), (2, 4), (2, 6), (3, 5), (5, 6)],
        )
        expected = _outcome(reference, inst)
        assert isinstance(expected, Solution)
        assert _outcome(fast, inst) == expected
        assert _nodes_to_finish(fast, inst) == _nodes_to_finish(reference, inst)
        tight = SearchBudget(upper_bound=expected.cost - 1)
        assert _outcome(fast, inst, tight) == _outcome(reference, inst, tight) == CostBoundExceeded



def skip_free_reference(inst, budget=SearchBudget()):
    return reference_exact_unsplittable(inst, budget, skip_repeats=False)


# Unit-weight grids (rows, cols, capacity, demand), where many choice
# sequences reach the same server loads.
REPEAT_GRIDS = [(3, 3, 2, 1), (2, 5, 2, 1), (3, 3, 3, 2), (3, 4, 2, 1)]


class TestRepeatSkip:
    """Skipping repeated load vectors prunes the tree but no answer."""

    def test_seeded_batch_matches_skip_free_search(self):
        for inst, budget in differential_cases():
            assert _outcome(exact_unsplittable, inst, budget) == _outcome(skip_free_reference, inst, budget)

    @pytest.mark.parametrize("rows, cols, c, d", REPEAT_GRIDS)
    def test_unit_grid_matches_skip_free_search(self, rows, cols, c, d):
        inst = grid_instance(rows, cols, (1, c, d))
        assert exact_unsplittable(inst) == skip_free_reference(inst)

    @pytest.mark.parametrize(
        "rows, cols, skip_free_nodes, nodes",
        [(3, 3, 381, 355), (2, 5, 1_114, 1_096)],
    )
    def test_unit_grid_node_counts(self, rows, cols, skip_free_nodes, nodes):
        inst = grid_instance(rows, cols, (1, 2, 1))
        assert _nodes_to_finish(exact_unsplittable, inst) == nodes
        # The skip-free search needs every one of its nodes, and no more.
        assert isinstance(_outcome(skip_free_reference, inst, SearchBudget(max_nodes=skip_free_nodes)), Solution)
        assert isinstance(_outcome(skip_free_reference, inst, SearchBudget(max_nodes=skip_free_nodes - 1)), tuple)


class TestSeenLimit:
    """Forgetting the seen load vectors bounds the unsplittable search's
    memory and changes no answer; only later skips are given up."""

    def test_budget_exhausting_search_stays_small(self, monkeypatch):
        # 100,000 nodes of the 6x6 grid remember ~3.5 MB of keys unbounded.
        monkeypatch.setattr(oracle, "SEEN_LIMIT", 1 << 10)
        inst = grid_instance(6, 6, (1, 3, 1))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExhausted):
                exact_unsplittable(inst, SearchBudget(max_nodes=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_seeded_batch_matches_skip_free_search(self, monkeypatch):
        monkeypatch.setattr(oracle, "SEEN_LIMIT", 8)
        for inst, budget in differential_cases():
            assert _outcome(exact_unsplittable, inst, budget) == _outcome(skip_free_reference, inst, budget)


def _optimum(search, inst):
    try:
        return search(inst).cost
    except InfeasibleInstance:
        return None


def _rescaled(inst, weight=1, capacity=1, demand=1):
    attrs = tuple((w * weight, c * capacity, d * demand) for w, c, d in triples(inst))
    return Instance(inst.n, attrs, inst.edges)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEARCHES = pytest.mark.parametrize("search", [exact_unsplittable, exact_splittable], ids=SEARCH_IDS)


class TestOptimumProperties:
    @SEARCHES
    @PROPERTY
    @given(inst=small_instances(), t=st.integers(0, 5))
    def test_weights_times_t_scale_the_optimum(self, search, inst, t):
        opt = _optimum(search, inst)
        scaled = _optimum(search, _rescaled(inst, weight=t))
        assert scaled == (None if opt is None else t * opt)

    @SEARCHES
    @PROPERTY
    @given(inst=small_instances(), t=st.integers(1, 3))
    def test_capacities_and_demands_times_t_keep_the_optimum(self, search, inst, t):
        assert _optimum(search, _rescaled(inst, capacity=t, demand=t)) == _optimum(search, inst)

    @SEARCHES
    @PROPERTY
    @given(inst=small_instances(), data=st.data())
    def test_relabeling_keeps_the_optimum(self, search, inst, data):
        perm = data.draw(st.permutations(range(1, inst.n + 1)))
        label = dict(zip(inst.vertices(), perm))
        attrs = [None] * inst.n
        for v, t in enumerate(triples(inst), 1):
            attrs[label[v] - 1] = t
        edges = tuple((label[u], label[v]) for u, v in inst.edges)
        relabeled = Instance(inst.n, tuple(attrs), edges)
        assert _optimum(search, relabeled) == _optimum(search, inst)

    @SEARCHES
    @PROPERTY
    @given(a=small_instances(max_n=4), b=small_instances(max_n=4))
    def test_disjoint_union_adds_optima(self, search, a, b):
        shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
        union = Instance(a.n + b.n, triples(a) + triples(b), a.edges + shifted)
        parts = [_optimum(search, a), _optimum(search, b)]
        assert _optimum(search, union) == (None if None in parts else sum(parts))

    @SEARCHES
    @PROPERTY
    @given(inst=small_instances(), weight=st.integers(0, 4))
    def test_appended_isolated_zero_vertex_changes_nothing(self, search, inst, weight):
        grown = Instance(inst.n + 1, triples(inst) + ((weight, 0, 0),), inst.edges)
        assert _optimum(search, grown) == _optimum(search, inst)
