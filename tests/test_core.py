import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdom.core import (
    DemandModel,
    Instance,
    ParseError,
    Solution,
    induced_instance,
    is_feasible,
    minimum_multiplicities,
    random_instance,
    verify_solution,
    with_demands,
    ZeroCapacityServer,
)
from capdom.fileio import load_instance, load_solution, save_instance, save_solution
from capdom.greedy import greedy_unsplittable
from capdom.hardness import load_clique_instance
from capdom.treewidth import load_td

from conftest import mk, p3_instance, small_instances, triples

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


class TestLoadInstance:
    def test_single_vertex(self):
        inst = load_instance("p capdom 1 0\nv 1 2 3 7\n")
        assert inst.n == 1
        assert triples(inst) == ((2, 3, 7),)

    def test_p3(self):
        inst = load_instance(
            "p capdom 3 2\nv 1 1 1 1\nv 2 3 10 1\nv 3 1 1 1\ne 1 2\ne 2 3\n"
        )
        assert inst == p3_instance()

    def test_comments_and_blanks_skipped(self):
        inst = load_instance("c hello\n\np capdom 1 0\nc mid\nv 1 1 1 1\n")
        assert inst.n == 1

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p capdom 2 1\nv 1 1 1 1\nv 2 1 1 1\ne 1 1\n", "self-loop"),
            ("p capdom 1 0\nv 1 1 1 1\nv 1 1 1 1\n", "duplicate vertex"),
            ("p capdom 1 0\nv 5 1 1 1\n", "out of range"),
            ("p capdom 2 2\nv 1 1 1 1\nv 2 1 1 1\ne 1 2\ne 2 1\n", "duplicate edge"),
            ("p capdom 2 0\nv 1 1 1 1\n", "missing vertex"),
            ("p capdom 1 1\nv 1 1 1 1\n", "declares 1 edges"),
            ("v 1 1 1 1\n", "before header"),
            ("p capdom 1 0\nv 1 1 -1 1\n", "nonnegative"),
            ("p capdom 1 0\nq 1\n", "unknown line tag"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            load_instance(text)

    def test_loaded_instance_equals_constructed(self):
        # load_instance checks each edge line itself and builds the instance
        # without the constructor's second pass; both must give the same graph.
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(1, 30)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.2]
            rng.shuffle(pairs)
            edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            attrs = [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(n)]
            lines = [f"v {v} {w} {c} {d}" for v, (w, c, d) in enumerate(attrs, 1)]
            lines += [f"e {u} {v}" for u, v in edges]
            rng.shuffle(lines)
            loaded = load_instance("\n".join([f"p capdom {n} {len(edges)}", *lines]) + "\n")
            built = Instance(n, tuple(attrs), tuple(edges))
            for name in ("n", "edges", "adj", "weights", "capacities", "demands"):
                assert getattr(loaded, name) == getattr(built, name), name

    def test_overflow_audit(self):
        big = 2**62
        with pytest.raises(OverflowError):
            load_instance(f"p capdom 2 0\nv 1 {big} 1 1\nv 2 1 1 {big}\n")


# (loader, header, body records) of each text format; the last body record
# is the one placed before the header.
FORMATS = {
    "instance": (load_instance, "p capdom 2 1", ["v 1 1 1 1", "v 2 1 1 1", "e 1 2"]),
    "solution": (load_solution, "s capdom 1 split", ["x 1 1", "a 1 1 1", "t 1 1 1 1 1"]),
    "td": (load_td, "s td 2 2 3", ["b 1 1 2", "b 2 2 3", "1 2"]),
    "mcq": (load_clique_instance, "p mcq 2 2 1", ["part 1 1", "part 2 2", "e 1 2"]),
}


@pytest.mark.parametrize("fmt", list(FORMATS))
class TestHeaderRules:
    def test_comments_and_blanks_before_header(self, fmt):
        load, header, body = FORMATS[fmt]
        plain = "\n".join([header, *body]) + "\n"
        commented = "c note\n\n  \nc\ttab note\nc\n" + plain.replace("\n", "\nc mid\n\n", 1)
        assert load(commented) == load(plain)

    @pytest.mark.parametrize(
        "case, line_no, fragment",
        [("wrong-magic", 1, "header must be"), ("record-before-header", 2, "record before header"),
         ("second-header", 5, "duplicate header"), ("no-header", 0, "missing")],
        ids=["wrong-magic", "record-before-header", "second-header", "no-header"],
    )
    def test_rejects(self, fmt, case, line_no, fragment):
        load, header, body = FORMATS[fmt]
        tag, _, *values = header.split()
        lines = {
            "wrong-magic": [" ".join([tag, "foo", *values]), *body],
            "record-before-header": ["c note", body[-1], header, *body],
            "second-header": [header, *body, header],
            "no-header": ["c note", ""],
        }[case]
        with pytest.raises(ParseError, match=fragment) as info:
            load("\n".join(lines) + "\n")
        assert info.value.line_no == line_no


class TestRoundTrip:
    def test_save_then_load_is_identity(self):
        for seed in range(25):
            inst = random_instance(1 + seed % 9, 0.4, 4, 4, 4, seed)
            assert load_instance(save_instance(inst)) == inst

    def test_canonical_edge_order(self):
        inst = mk([(1, 1, 1)] * 3, [(3, 1), (2, 3)])
        text = save_instance(inst)
        assert text.index("e 1 3") < text.index("e 2 3")

    def test_solution_round_trip(self):
        sol = Solution({2: 1, 5: 3}, {(1, 2): 4, (5, 5): 2}, 9)
        text = save_solution(sol, SPLIT, trace_lines=["t 1 2 1 1 1"])
        loaded, model = load_solution(text)
        assert loaded == sol
        assert model is SPLIT


class TestClosedNeighborhood:
    def test_middle_of_path(self, p3):
        assert p3.adj[2] | {2} == {1, 2, 3}

    def test_end_of_path(self, p3):
        assert p3.adj[1] | {1} == {1, 2}

    def test_isolated_vertex(self):
        inst = mk([(1, 1, 0)])
        assert inst.adj[1] | {1} == {1}

    def test_adjacency_is_derived_not_passed(self):
        # adj is built from the edges; it is not an argument
        with pytest.raises(TypeError):
            Instance(2, ((1, 1, 1),) * 2, ((1, 2),), adj=())
        assert mk([(1, 1, 1)] * 2, [(1, 2)]).adj == (frozenset(), {2}, {1})


class TestVerifySolution:
    def test_p3_center_pass(self, p3):
        sol = Solution({2: 1}, {(1, 2): 1, (2, 2): 1, (3, 2): 1}, 3)
        assert verify_solution(p3, sol, UNSPLIT).passed

    def test_zero_copies_fail_capacity(self, p3):
        sol = Solution({}, {(1, 2): 1, (2, 2): 1, (3, 2): 1}, 0)
        report = verify_solution(p3, sol, UNSPLIT)
        assert not report.passed
        assert any("capacity violated at vertex 2" in v for v in report.problems)

    def test_single_vertex_ceiling(self):
        inst = mk([(2, 3, 7)])
        sol = Solution({1: 3}, {(1, 1): 7}, 6)
        assert verify_solution(inst, sol, UNSPLIT).passed

    def test_cost_field_checked(self, p3):
        sol = Solution({2: 1}, {(1, 2): 1, (2, 2): 1, (3, 2): 1}, 2)
        report = verify_solution(p3, sol, UNSPLIT)
        assert not report.passed
        assert any("cost field" in v for v in report.problems)

    def test_unserved_demand_reported(self, p3):
        sol = Solution({2: 1}, {(1, 2): 1, (2, 2): 1}, 3)
        report = verify_solution(p3, sol, UNSPLIT)
        assert any("demand violated at vertex 3" in v for v in report.problems)

    def test_unsplittable_rejects_split_routing(self):
        inst = mk([(1, 2, 3), (1, 2, 0)], [(1, 2)])
        sol = Solution({1: 1, 2: 1}, {(1, 1): 2, (1, 2): 1}, 2)
        assert verify_solution(inst, sol, SPLIT).passed
        report = verify_solution(inst, sol, UNSPLIT)
        assert not report.passed
        assert any("unsplittable model" in v for v in report.problems)

    def test_server_outside_neighborhood(self):
        inst = mk([(1, 5, 1), (1, 5, 0), (1, 5, 0)], [(1, 2), (2, 3)])
        sol = Solution({3: 1}, {(1, 3): 1}, 1)
        report = verify_solution(inst, sol, UNSPLIT)
        assert any("outside the closed neighborhood" in v for v in report.problems)

    def test_model_monotone(self):
        for seed in range(20):
            inst = random_instance(6, 0.4, 3, 3, 3, seed)
            sol = greedy_unsplittable(inst).solution
            assert verify_solution(inst, sol, UNSPLIT).passed
            assert verify_solution(inst, sol, SPLIT).passed


@st.composite
def candidate_solutions(draw, inst: Instance) -> Solution:
    """A solution for `inst` that routes each demand whole to a server of
    N[v], one with capacity where N[v] has one, and buys ceil(load / c)
    copies of each server; then at most one change: every demand split in
    two, a vertex served one unit short, a stray route, a stray count, or a
    cost field off by one.  Stray ids come from 0 and n + 1 as well as
    1..n, stray amounts and counts from -1 to 2, and a stray route may
    leave N[u] or start at a zero-demand vertex."""
    change = draw(st.sampled_from((None, "split", "short", "route", "count", "cost")))
    unknown = (0, inst.n + 1)
    consumers = [v for v in inst.vertices() if inst.demands[v]]

    def pick(*groups):
        """An element of one of the nonempty groups, each group as likely."""
        return draw(st.sampled_from([g for g in groups if g]).flatmap(st.sampled_from))

    short = draw(st.sampled_from(consumers)) if consumers and change == "short" else None
    assignment: dict[tuple[int, int], int] = {}
    for v in consumers:
        usable = sorted(u for u in (v, *inst.adj[v]) if inst.capacities[u]) or sorted((v, *inst.adj[v]))
        servers = st.sampled_from(usable)
        d = inst.demands[v] - (v == short)
        cut = draw(st.integers(0, d)) if change == "split" else d
        for s, amount in ((draw(servers), cut), (draw(servers), d - cut)):
            if amount:
                assignment[(v, s)] = assignment.get((v, s), 0) + amount
    if change == "route":
        # a server outside 1..n, outside N[u], or inside it on a new pair
        u = pick(unknown, consumers, [v for v in inst.vertices() if not inst.demands[v]])
        near = inst.adj[u] | {u} if 1 <= u <= inst.n else frozenset()
        far = [s for s in inst.vertices() if s not in near]
        fresh = [s for s in sorted(near) if (u, s) not in assignment]
        assignment[(u, pick(unknown, far, fresh))] = draw(st.sampled_from((-1, 0, 1, 2)))
    load: dict[int, int] = {}
    for (_, s), amount in assignment.items():
        if amount > 0 and 1 <= s <= inst.n:
            load[s] = load.get(s, 0) + amount
    multiplicity = {
        s: -(-x // inst.capacities[s]) if inst.capacities[s] else draw(st.integers(0, 2))
        for s, x in load.items()
    }
    if change == "count":
        # a negative count breaks no other constraint only where c(v) = 0 and nothing is routed
        idle = [v for v in inst.vertices() if not inst.capacities[v] and v not in load]
        multiplicity[pick(unknown, inst.vertices(), idle)] = draw(st.sampled_from((-1, 0, 1, 2)))
    cost = sum(inst.weights[v] * x for v, x in multiplicity.items() if 1 <= v <= inst.n)
    return Solution(multiplicity, assignment, cost + (change == "cost") * draw(st.sampled_from((1, -1))))


def meets_definition(inst: Instance, sol: Solution, model: DemandModel) -> bool:
    """Whether `sol` solves `inst`, read off the problem over its
    (weight, capacity, demand) triples and inst.edges: nonnegative copies of known vertices, positive amounts from
    each vertex to itself or a neighbor, every demand served, no server
    loaded past capacity times copies, the cost field equal to the copies'
    weight, and (unsplittable) each demand carried whole by one entry and
    no entry from a zero-demand vertex."""
    attrs = dict(enumerate(triples(inst), 1))
    edges = {frozenset(e) for e in inst.edges}
    if any(v not in attrs or x < 0 for v, x in sol.multiplicity.items()):
        return False
    served, load = dict.fromkeys(attrs, 0), dict.fromkeys(attrs, 0)
    amounts: dict[int, list[int]] = {v: [] for v in attrs}
    for (u, s), amount in sol.assignment.items():
        if u not in attrs or s not in attrs or amount <= 0 or (u != s and frozenset((u, s)) not in edges):
            return False
        served[u] += amount
        load[s] += amount
        amounts[u].append(amount)
    if sol.cost != sum(attrs[v][0] * x for v, x in sol.multiplicity.items()):
        return False
    for v, (_, capacity, demand) in attrs.items():
        if served[v] < demand or load[v] > capacity * sol.multiplicity.get(v, 0):
            return False
        if model is UNSPLIT and amounts[v] != ([demand] if demand else []):
            return False
    return True


class TestVerifySolutionProperty:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(inst=small_instances(), data=st.data())
    def test_passed_iff_definition_holds(self, inst, data):
        sol = data.draw(candidate_solutions(inst))
        for model in (SPLIT, UNSPLIT):
            assert verify_solution(inst, sol, model).passed == meets_definition(inst, sol, model)


class TestMinimumMultiplicities:
    def test_ceiling(self):
        inst = mk([(2, 3, 7)])
        sol = minimum_multiplicities(inst, {(1, 1): 7})
        assert sol.multiplicity == {1: 3} and sol.cost == 6

    def test_empty_assignment(self):
        inst = mk([(2, 3, 0)])
        sol = minimum_multiplicities(inst, {})
        assert sol.multiplicity == {} and sol.cost == 0

    def test_exact_fit(self):
        inst = mk([(1, 5, 5)])
        sol = minimum_multiplicities(inst, {(1, 1): 5})
        assert sol.multiplicity == {1: 1} and sol.cost == 1

    def test_zero_capacity_server(self):
        inst = mk([(1, 0, 1), (1, 5, 0)], [(1, 2)])
        with pytest.raises(ZeroCapacityServer):
            minimum_multiplicities(inst, {(1, 1): 1})

    def test_minimality(self):
        for seed in range(15):
            inst = random_instance(6, 0.5, 3, 3, 3, seed)
            sol = greedy_unsplittable(inst).solution
            for v in sol.multiplicity:
                weakened = dict(sol.multiplicity)
                weakened[v] -= 1
                cost = sol.cost - inst.weights[v]
                report = verify_solution(inst, Solution(weakened, sol.assignment, cost), UNSPLIT)
                assert any(f"capacity violated at vertex {v}" in x for x in report.problems)


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(12, 0.3, 5, 5, 5, 99)
        b = random_instance(12, 0.3, 5, 5, 5, 99)
        assert a == b

    def test_single_vertex_feasible(self):
        for seed in range(10):
            assert is_feasible(random_instance(1, 0.5, 3, 3, 3, seed))

    def test_post_pass_invariant(self):
        inst = random_instance(50, 0.1, 5, 5, 5, 7)
        for v in inst.vertices():
            if inst.demands[v] > 0:
                assert any(inst.capacities[u] >= 1 for u in (v, *inst.adj[v]))

    def test_feasible_across_seeds(self):
        for seed in range(40):
            assert is_feasible(random_instance(1 + seed % 12, 0.25, 4, 4, 4, seed))


class TestInstanceHelpers:
    def test_feasibility_precheck(self):
        assert not is_feasible(mk([(1, 0, 1)]))
        assert is_feasible(mk([(1, 0, 1), (1, 1, 0)], [(1, 2)]))
        assert is_feasible(mk([(1, 0, 0)]))

    def test_with_demands(self, p3):
        changed = with_demands(p3, {2: 0})
        assert changed.demands[2] == 0 and changed.demands[1] == 1
        assert changed.edges == p3.edges

    def test_with_demands_shares_the_parent_graph(self, p3):
        changed = with_demands(p3, {1: 4})
        assert changed.adj is p3.adj
        assert changed.demands[1] == 4 and p3.demands[1] == 1
        with pytest.raises(ValueError, match="nonnegative"):
            with_demands(p3, {2: -1})

    def test_with_demands_rejects_unknown_ids(self, p3):
        for v in (0, 4, 7):
            with pytest.raises(ValueError, match=f"vertex {v} out of range"):
                with_demands(p3, {v: 5})

    def test_induced_instance(self, p3):
        sub, orig = induced_instance(p3, [2, 3], zero_demand=[3])
        assert sub.n == 2 and orig == (2, 3)
        assert sub.edges == ((1, 2),)
        assert sub.demands[1] == 1 and sub.demands[2] == 0

    def test_columns_follow_attrs(self):
        def check(inst, passed):
            for name, column in zip(("weights", "capacities", "demands"), zip(*passed)):
                assert getattr(inst, name) == (0, *column)

        for seed in range(20):
            base = random_instance(2 + seed % 12, 0.4, 4, 4, 4, seed)
            rng = random.Random(seed)
            passed = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(base.n)]
            inst = Instance(base.n, tuple(passed), base.edges)
            check(inst, passed)
            new = {1: 9, inst.n: 0}
            check(with_demands(inst, new), [(w, c, new.get(v, d)) for v, (w, c, d) in enumerate(passed, 1)])
            scattered = sorted(rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n)))
            for keep in (range(1, inst.n + 1, 2 if seed % 2 else 1), scattered):
                sub, orig = induced_instance(inst, keep, zero_demand=[1])
                check(sub, [(w, c, d * (v != 1)) for v, (w, c, d) in enumerate(passed, 1) if v in keep])
                # induced_instance skips the constructor's checks; it must build the same graph
                rebuilt = Instance(sub.n, triples(sub), sub.edges)
                assert (sub.edges, sub.adj) == (rebuilt.edges, rebuilt.adj)
                kept = set(keep)
                assert [tuple(orig[i - 1] for i in e) for e in sub.edges] == [e for e in inst.edges if kept.issuperset(e)]

    def test_induced_instance_rejects_unknown_ids(self, p3):
        for ids in ([0, 1], [2, 4], [-1, 5]):
            with pytest.raises(ValueError, match="must lie in 1..3"):
                induced_instance(p3, ids)

    def test_instance_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Instance(2, ((1, 1, 1),) * 2, ((1, 1),))
        with pytest.raises(ValueError):
            Instance(2, ((1, 1, 1),) * 2, ((1, 2), (2, 1)))

    @pytest.mark.parametrize(
        "bad",
        [((1, 1), (1, 1)), ((1, 1, 1, 9), (1, 1, 1, 9)), ((1, 1, 1, 9), (1, 1, 1)), ((1, 1, 1), (1, 1))],
        ids=["2-tuples", "4-tuples", "4-then-3", "3-then-2"],
    )
    def test_instance_rejects_triples_of_other_lengths(self, bad):
        with pytest.raises(ValueError):
            Instance(2, bad, ((1, 2),))
        with pytest.raises(ValueError):
            Instance.trusted(2, bad, ((1, 2),))


class TestInstanceEquality:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(inst=small_instances(), data=st.data())
    def test_equality_reads_the_columns(self, inst, data):
        assert load_instance(save_instance(inst)) == inst
        rebuilt = Instance(inst.n, triples(inst), inst.edges)
        assert rebuilt == inst and hash(rebuilt) == hash(inst)
        v = data.draw(st.sampled_from(inst.vertices()))
        d = data.draw(st.integers(0, 4))
        changed = with_demands(inst, {v: d})
        assert (changed == inst) == (d == inst.demands[v])
        assert (changed.weights, changed.capacities, changed.edges) == (inst.weights, inst.capacities, inst.edges)
