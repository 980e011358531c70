import random
import tracemalloc
from fractions import Fraction

import pytest

from capdom import greedy
from capdom.core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    SolveResult,
    random_instance,
    verify_solution,
    with_demands,
)
from capdom.greedy import (
    EfficiencyQuote,
    NoCandidates,
    NotUnweighted,
    closed_by_demand,
    greedy_splittable,
    greedy_unsplittable,
    greedy_unweighted_splittable,
    split_efficiency,
    unsplit_efficiency,
)

from conftest import (
    brute_splittable_cost,
    brute_unsplittable_cost,
    harmonic,
    mk,
    p3_instance,
    path_instance,
    triples,
)
from greedy_reference import (
    reference_greedy_loop,
    reference_greedy_splittable,
    reference_greedy_unsplittable,
    reference_greedy_unweighted_splittable,
    reference_pick_best,
    reference_split_efficiency,
    reference_unsplit_efficiency,
)

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


def initial_undominated(inst):
    return {v for v in inst.vertices() if inst.demands[v] > 0}


def unsplit_quote(inst, undominated=None):
    """Vertex 1's quote, its order sorted once by the positive demands as
    `greedy_unsplittable` sorts it."""
    order = closed_by_demand(inst, initial_undominated(inst), inst.demands)
    if undominated is None:
        undominated = initial_undominated(inst)
    return unsplit_efficiency(inst, order, undominated, 1)


def split_state(inst, residues=None, base=None):
    """The residues, base demands and sorted order a splittable quote reads."""
    if base is None:
        base = {v: inst.demands[v] for v in inst.vertices() if inst.demands[v] > 0}
    rd = dict(base) if residues is None else dict(residues)
    return rd, base, closed_by_demand(inst, base, base)


def star(center, leaves):
    triples = [center] + list(leaves)
    edges = [(1, i) for i in range(2, len(triples) + 1)]
    return mk(triples, edges)


class TestUnsplitEfficiency:
    def test_prefix_two_wins(self):
        # server 1: w=2 c=5; undominated closed neighbors with demands 2,3,4
        inst = star((2, 5, 0), [(1, 1, 2), (1, 1, 3), (1, 1, 4)])
        quote = unsplit_quote(inst)
        assert (quote.prefix_len, quote.numerator, quote.denominator) == (2, 2, 2)

    def test_single_candidate_single_copy(self):
        inst = star((1, 10, 0), [(1, 1, 1)])
        quote = unsplit_quote(inst)
        assert (quote.prefix_len, quote.numerator, quote.denominator) == (1, 1, 1)

    def test_multi_copy_candidate(self):
        inst = star((1, 1, 0), [(1, 1, 3)])
        quote = unsplit_quote(inst)
        assert (quote.prefix_len, quote.numerator, quote.denominator) == (1, 1, 3)

    def test_no_candidates(self):
        inst = star((1, 5, 0), [(1, 1, 0)])
        with pytest.raises(NoCandidates):
            unsplit_quote(inst)

    def test_zero_capacity_never_selectable(self):
        inst = star((1, 0, 1), [(1, 5, 0)])
        assert unsplit_quote(inst) is None

    def test_ratio_tie_takes_longer_prefix(self):
        # prefixes 1 and 2 both quote ratio 1/w with c = 2: pick i = 2
        inst = star((1, 2, 0), [(1, 1, 1), (1, 1, 1)])
        quote = unsplit_quote(inst)
        assert quote.prefix_len == 2


    def test_candidates_sorted_by_demand_then_id(self):
        # demands 3, 2, 1, 2, 0: vertex 5 is dominated, and 2 and 4 tie
        inst = star((1, 5, 3), [(1, 1, 2), (1, 1, 1), (1, 1, 2), (1, 1, 0)])
        quote = unsplit_quote(inst)
        assert quote.candidates == [3, 2, 4, 1]

    def test_served_neighbors_leave_the_candidates(self):
        # demands 3, 2, 1, 2, 0 as above; 2 and 3 are already served
        inst = star((1, 5, 3), [(1, 1, 2), (1, 1, 1), (1, 1, 2), (1, 1, 0)])
        quote = unsplit_quote(inst, undominated={1, 4})
        assert quote.candidates == [4, 1]
        assert (quote.prefix_len, quote.numerator, quote.denominator) == (2, 2, 1)

class TestSplitEfficiency:
    def test_mixed_residues(self):
        inst = star((1, 5, 0), [(1, 1, 2), (1, 1, 3), (1, 1, 4)])
        state = split_state(inst, residues={2: 2, 3: 3, 4: 2})
        quote = split_efficiency(inst, *state, 1)
        assert quote.prefix_len == 2
        assert quote.numerator == 2 * quote.denominator  # efficiency exactly 2

    def test_oversized_first_residue(self):
        inst = star((1, 3, 0), [(1, 1, 8)])
        quote = split_efficiency(inst, *split_state(inst), 1)
        assert (quote.prefix_len, quote.numerator, quote.denominator) == (0, 3, 8)

    def test_exact_fit(self):
        inst = star((2, 4, 0), [(1, 1, 4)])
        quote = split_efficiency(inst, *split_state(inst), 1)
        assert quote.prefix_len == 1
        assert quote.numerator * 2 == quote.denominator  # efficiency 1/2

    def test_no_candidates(self):
        inst = star((1, 5, 0), [(1, 1, 0)])
        with pytest.raises(NoCandidates):
            split_efficiency(inst, *split_state(inst), 1)


    def test_candidates_sorted_by_base_demand_then_id(self):
        # base demands 3, 2, 1, 2, 4; by residue, vertex 5 would come second
        inst = star((1, 5, 3), [(1, 1, 2), (1, 1, 1), (1, 1, 2), (1, 1, 4)])
        state = split_state(inst, residues={1: 3, 2: 2, 3: 1, 4: 2, 5: 1})
        quote = split_efficiency(inst, *state, 1)
        assert quote.candidates == [3, 2, 4, 1, 5]

    def test_candidates_sorted_by_rebased_base_then_id(self):
        # the unweighted greedy's base is the residue after its pre-pass:
        # rebased 1, 2, 1 against demands 3, 2, 5; vertex 5 (demand 0) and
        # the served vertex 4 are no candidates
        inst = star((1, 5, 3), [(1, 1, 2), (1, 1, 5), (1, 1, 1), (1, 1, 0)])
        state = split_state(inst, residues={1: 1, 2: 2, 3: 1}, base={1: 1, 2: 2, 3: 1, 4: 1})
        quote = split_efficiency(inst, *state, 1)
        assert quote.candidates == [1, 3, 2]
        assert quote.prefix_len == 3

class TestGreedyUnsplittable:
    def test_p3_cost_three(self):
        result = greedy_unsplittable(p3_instance())
        assert result.solution.cost == 3
        assert brute_unsplittable_cost(p3_instance()) == 3
        assert [(t.chosen, t.prefix_len) for t in result.trace] == [(1, 2), (3, 1)]

    def test_single_vertex_forced(self):
        result = greedy_unsplittable(mk([(2, 3, 7)]))
        assert result.solution.cost == 6
        assert result.solution.multiplicity == {1: 3}

    def test_all_zero_demand(self):
        result = greedy_unsplittable(mk([(1, 1, 0), (2, 2, 0)], [(1, 2)]))
        assert result.solution.cost == 0
        assert result.trace == []

    def test_star_all_to_center(self):
        inst = star((1, 10, 0), [(5, 1, 2)] * 3)
        result = greedy_unsplittable(inst)
        assert result.solution.cost == 1
        assert brute_unsplittable_cost(inst) == 1

    def test_ratio_bound_small_batch(self):
        for seed in range(60):
            n = 1 + seed % 6
            inst = random_instance(n, 0.5, 3, 3, 3, seed)
            cost = greedy_unsplittable(inst).solution.cost
            opt = brute_unsplittable_cost(inst)
            assert Fraction(cost) <= harmonic(n) * opt or cost == opt == 0

    def test_per_iteration_efficiency_bound(self):
        # S_j * n_j <= k_j * OPT_j, where OPT_j is exact on the residual.
        for seed in range(25):
            n = 2 + seed % 5
            inst = random_instance(n, 0.5, 3, 3, 3, seed)
            result, undominated_before = reference_greedy_unsplittable(inst)
            assert greedy_unsplittable(inst) == result
            for entry, live in zip(result.trace, undominated_before):
                residual = with_demands(
                    inst, {v: 0 for v in inst.vertices() if v not in live}
                )
                opt_j = brute_unsplittable_cost(residual)
                assert entry.iter_cost * len(live) <= entry.prefix_len * opt_j

    def test_determinism(self):
        inst = random_instance(8, 0.4, 4, 4, 4, 3)
        a, b = greedy_unsplittable(inst), greedy_unsplittable(inst)
        assert a.solution == b.solution and a.trace == b.trace


class TestGreedySplittable:
    def test_lone_vertex_doubles(self):
        inst = mk([(1, 3, 8)])
        result = greedy_splittable(inst)
        assert result.solution.assignment == {(1, 1): 12}
        assert result.solution.multiplicity == {1: 4}
        assert result.solution.cost == 4

    def test_star_single_iteration(self):
        inst = star((1, 10, 0), [(5, 1, 2), (5, 1, 2)])
        result = greedy_splittable(inst)
        assert result.solution.cost == 1
        assert brute_splittable_cost(inst) == 1
        assert len([t for t in result.trace if t.phase == 1]) == 1

    def test_all_zero_demand(self):
        result = greedy_splittable(mk([(1, 1, 0)]))
        assert result.solution.cost == 0 and result.trace == []

    def test_half_residue_invariant(self):
        for seed in range(80):
            n = 1 + seed % 8
            inst = random_instance(n, 0.45, 3, 4, 4, seed)
            result, boundary = reference_greedy_splittable(inst)
            assert greedy_splittable(inst) == result
            for snapshot in boundary:
                for v, residue in snapshot.items():
                    assert residue == 0 or 2 * residue >= inst.demands[v]

    def test_effectiveness_drops_half_per_iteration(self):
        for seed in range(40):
            n = 2 + seed % 7
            inst = random_instance(n, 0.45, 3, 4, 4, seed)
            result, boundary = reference_greedy_splittable(inst)
            assert greedy_splittable(inst) == result
            base = {v: inst.demands[v] for v in inst.vertices() if inst.demands[v] > 0}
            levels = [sum(Fraction(1) for _ in base)]
            for snapshot in boundary:
                levels.append(
                    sum(Fraction(snapshot.get(v, 0), d) for v, d in base.items())
                )
            for before, after in zip(levels, levels[1:]):
                assert before - after >= Fraction(1, 2)

    def test_ratio_bound_small_batch(self):
        for seed in range(50):
            n = 1 + seed % 5
            inst = random_instance(n, 0.5, 3, 3, 3, seed)
            cost = greedy_splittable(inst).solution.cost
            opt = brute_splittable_cost(inst)
            assert Fraction(cost) <= (4 * harmonic(n) + 2) * opt or cost == opt == 0

    def test_determinism(self):
        inst = random_instance(8, 0.4, 4, 4, 4, 5)
        a, b = greedy_splittable(inst), greedy_splittable(inst)
        assert a.solution == b.solution and a.trace == b.trace


def phase0_cost(result):
    """Copies the unweighted greedy's pre-pass buys: its phase-0 trace costs."""
    return sum(t.iter_cost for t in result.trace if t.phase == 0)


class TestGreedyUnweighted:
    def test_lone_vertex(self):
        result = greedy_unweighted_splittable(mk([(1, 3, 7)]))
        assert result.solution.cost == 3
        assert phase0_cost(result) == 2

    def test_floor_zero_prepass(self):
        inst = mk([(1, 1, 2), (1, 5, 0)], [(1, 2)])
        result = greedy_unweighted_splittable(inst)
        assert phase0_cost(result) == 0
        assert result.solution.cost == 1

    def test_path_cost_three(self):
        inst = path_instance([(1, 2, 2)] * 3)
        result = greedy_unweighted_splittable(inst)
        assert result.solution.cost == 3
        assert brute_splittable_cost(inst) == 3

    def test_rejects_weighted(self):
        with pytest.raises(NotUnweighted):
            greedy_unweighted_splittable(mk([(2, 3, 1)]))

    def test_phase0_bound_small_batch(self):
        for seed in range(40):
            n = 1 + seed % 6
            inst = random_instance(n, 0.5, 1, 3, 4, seed)
            result = greedy_unweighted_splittable(inst)
            opt = brute_splittable_cost(inst)
            assert phase0_cost(result) <= opt

    def test_ratio_bound_small_batch(self):
        for seed in range(50):
            n = 1 + seed % 5
            inst = random_instance(n, 0.5, 1, 3, 3, seed)
            cost = greedy_unweighted_splittable(inst).solution.cost
            opt = brute_splittable_cost(inst)
            assert Fraction(cost) <= (2 * harmonic(n) + 1) * opt or cost == opt == 0


class TestSolutionsAlwaysVerify:
    def test_every_variant(self):
        for seed in range(60):
            n = 1 + seed % 9
            inst = random_instance(n, 0.4, 4, 4, 4, seed)
            assert verify_solution(
                inst, greedy_unsplittable(inst).solution, UNSPLIT
            ).passed
            assert verify_solution(
                inst, greedy_splittable(inst).solution, SPLIT
            ).passed
            unit = random_instance(n, 0.4, 1, 4, 4, seed)
            assert verify_solution(
                unit, greedy_unweighted_splittable(unit).solution, SPLIT
            ).passed

    def test_trace_lines_format(self):
        result = greedy_unsplittable(p3_instance())
        for entry in result.trace:
            parts = entry.line().split()
            assert parts[0] == "t" and len(parts) == 6


SOLVER_PAIRS = [
    (greedy_unsplittable, reference_greedy_unsplittable),
    (greedy_splittable, reference_greedy_splittable),
    (greedy_unweighted_splittable, reference_greedy_unweighted_splittable),
]
SOLVER_IDS = ["unsplit", "split", "unweighted"]


def _outcome(solver, inst):
    """The full result, or the type of the error the solver raised.

    A reference solver's snapshots are dropped: the package keeps none.
    """
    try:
        result = solver(inst)
    except CapdomError as exc:
        return type(exc)
    return result[0] if isinstance(result, tuple) else result


def differential_instances():
    """600 small seeded instances with zero weights, capacities and demands.

    Weights are redrawn in [0, 3] on even seeds and set to 1 on odd ones,
    so the unweighted solver runs on half and rejects the other half.
    Every third seed redraws capacities in [0, 2] after the generator's
    feasibility pass, which leaves some instances infeasible.
    """
    for seed in range(600):
        base = random_instance(1 + seed % 14, (0.15, 0.3, 0.55)[seed % 3], 3, 3, 3, seed)
        rng = random.Random(seed)
        attrs = []
        for _, capacity, demand in triples(base):
            w = rng.randint(0, 3) if seed % 2 == 0 else 1
            c = rng.randint(0, 2) if seed % 3 == 0 else capacity
            attrs.append((w, c, demand))
        yield Instance(base.n, tuple(attrs), base.edges)


class TestIncrementalMatchesReference:
    @pytest.mark.parametrize("fast, reference", SOLVER_PAIRS, ids=SOLVER_IDS)
    def test_small_seeded_batch(self, fast, reference):
        outcomes = set()
        for inst in differential_instances():
            expected = _outcome(reference, inst)
            assert _outcome(fast, inst) == expected
            outcomes.add(expected if isinstance(expected, type) else SolveResult)
        assert SolveResult in outcomes and InfeasibleInstance in outcomes

    @pytest.mark.parametrize("fast, reference", SOLVER_PAIRS, ids=SOLVER_IDS)
    def test_large_sparse(self, fast, reference):
        # average degree about 6, the size of the benchmark's greedy ops;
        # max_w = 1 gives the unit weights the unweighted solver needs
        for n, seed in ((250, 1), (300, 2)):
            for max_w in (1, 4):
                inst = random_instance(n, 6 / (n - 1), max_w, 4, 4, seed)
                assert _outcome(fast, inst) == _outcome(reference, inst)

    @pytest.mark.parametrize(
        "fast, quotes", zip([s for s, _ in SOLVER_PAIRS], [1233, 1510, 935]), ids=SOLVER_IDS
    )
    def test_quotes_per_pick_stay_bounded(self, fast, quotes, monkeypatch):
        # A full rescan costs about n quotes per pick; the dirty-set path
        # re-quotes only the changed neighborhoods.  The loop quotes only
        # vertices with capacity and a pending closed neighbor, so pricing
        # any other vertex also raises the pinned counts.
        calls = 0
        for name in ("unsplit_efficiency", "split_efficiency"):
            def counted(*args, _efficiency=getattr(greedy, name)):
                nonlocal calls
                calls += 1
                return _efficiency(*args)

            monkeypatch.setattr(greedy, name, counted)
        inst = random_instance(300, 6 / 299, 1, 4, 4, 3)
        picks = sum(1 for t in fast(inst).trace if t.phase == 1)
        assert calls == quotes < 20 * picks

    @pytest.mark.parametrize(
        "fast, weights",
        [(greedy_unsplittable, "unit"), (greedy_unsplittable, "0-2"), (greedy_splittable, "unit"),
         (greedy_splittable, "0-2"), (greedy_unweighted_splittable, "unit")],
        ids=["unsplit-unit", "unsplit-0-2", "split-unit", "split-0-2", "unweighted-unit"],
    )
    def test_tree_matches_linear_scan(self, fast, weights, monkeypatch):
        # With unit weights, or weights 0-2 with a third of them 0, another
        # cached quote ties with the best at about 98% of the picks here,
        # so the first best in vertex order decides them.  The reference
        # is the loop with a flat cache scanned at each pick, pricing with
        # the plain quote bodies.
        inst = random_instance(2000, 6 / 1999, 1, 4, 4, 11)
        if weights == "0-2":
            rng = random.Random(5)
            attrs = tuple((rng.choice((0, 1, 2)), c, d) for _, c, d in triples(inst))
            inst = Instance(inst.n, attrs, inst.edges)
        expected = fast(inst)
        monkeypatch.setattr(greedy, "_greedy_loop", reference_greedy_loop)
        monkeypatch.setattr(greedy, "unsplit_efficiency", reference_unsplit_efficiency)
        monkeypatch.setattr(greedy, "split_efficiency", reference_split_efficiency)
        assert fast(inst) == expected


class TestPresortedOrder:
    @pytest.mark.parametrize("fast", [s for s, _ in SOLVER_PAIRS], ids=SOLVER_IDS)
    def test_filtered_lists_equal_fresh_sorts(self, fast, monkeypatch):
        # At a random twentieth of the quotes, every vertex's pre-sorted
        # list filtered by the live pending set must equal a fresh sort of
        # that set's closed neighbors by (base demand, id).  Demands of at
        # most 2 to 4 make most sort keys tie, so the ids decide them.
        rng = random.Random(23)
        states = 0

        def check(inst, order, pending, base):
            nonlocal states
            if rng.random() < 0.05:
                states += 1
                for w in inst.vertices():
                    fresh = sorted(sorted(pending & (inst.adj[w] | {w})), key=base.__getitem__)
                    assert [v for v in order[w] if v in pending] == fresh

        def unsplit(inst, order, undominated, u, _quote=greedy.unsplit_efficiency):
            check(inst, order, undominated, inst.demands)
            return _quote(inst, order, undominated, u)

        def split(inst, residue, base, order, u, _quote=greedy.split_efficiency):
            check(inst, order, residue.keys(), base)
            return _quote(inst, residue, base, order, u)

        monkeypatch.setattr(greedy, "unsplit_efficiency", unsplit)
        monkeypatch.setattr(greedy, "split_efficiency", split)
        for seed in range(6):
            fast(random_instance(80, 0.08, 1, 3, 2 + seed % 3, seed))
        assert states > 20


class TestTournament:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 40])
    def test_root_is_first_best_after_every_update(self, n):
        # Few distinct values give exact ties, equal fractions in other terms
        # (1/2 and 2/4) and denominator-0 quotes, which tie with each other
        # and beat every other quote.
        rng = random.Random(n)
        leaves = 1 << n.bit_length()
        tree = [None] * (2 * leaves)
        for _ in range(500):
            u = rng.randint(1, n)
            k = rng.randint(1, 2)
            tree[leaves + u] = None if rng.random() < 0.2 else EfficiencyQuote(
                u, 1, k * rng.randint(1, 3), k * rng.choice((0, 1, 2, 4))
            )
            greedy._replay(tree, leaves + u)
            cached = tree[leaves : leaves + n + 1]
            if any(q is not None for q in cached):
                assert tree[1] is reference_pick_best(cached)
            else:
                assert tree[1] is None


class TestGreedyMemory:
    @pytest.mark.parametrize(
        "solver, max_w",
        [(greedy_unsplittable, 4), (greedy_splittable, 4), (greedy_unweighted_splittable, 1)],
        ids=SOLVER_IDS,
    )
    def test_state_stays_linear_in_n(self, solver, max_w):
        # Per-pick copies of the undominated set or the residues would cost
        # O(n * picks), 3-9 MB here; the greedy state alone is O(n).
        inst = random_instance(1000, 6 / 999, max_w, 4, 4, 1)
        tracemalloc.start()
        try:
            solver(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
