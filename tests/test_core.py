import random

import pytest

from capdom.core import (
    DemandModel,
    Instance,
    ParseError,
    Solution,
    VertexAttrs,
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

from conftest import mk, p3_instance

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


class TestLoadInstance:
    def test_single_vertex(self):
        inst = load_instance("p capdom 1 0\nv 1 2 3 7\n")
        assert inst.n == 1
        assert inst.attrs[0] == VertexAttrs(2, 3, 7)

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
            attrs = [VertexAttrs(*(rng.randint(0, 5) for _ in range(3))) for _ in range(n)]
            lines = [f"v {v} {a.weight} {a.capacity} {a.demand}" for v, a in enumerate(attrs, 1)]
            lines += [f"e {u} {v}" for u, v in edges]
            rng.shuffle(lines)
            loaded = load_instance("\n".join([f"p capdom {n} {len(edges)}", *lines]) + "\n")
            built = Instance(n, tuple(attrs), tuple(edges))
            for name in ("n", "attrs", "edges", "adj", "closed", "weights", "capacities", "demands"):
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
        assert p3.closed_neighborhood(2) == {1, 2, 3}

    def test_end_of_path(self, p3):
        assert p3.closed_neighborhood(1) == {1, 2}

    def test_isolated_vertex(self):
        inst = mk([(1, 1, 0)])
        assert inst.closed_neighborhood(1) == {1}

    def test_adjacency_is_derived_not_passed(self):
        # adj and closed are built from the edges; neither is an argument
        with pytest.raises(TypeError):
            Instance(2, (VertexAttrs(1, 1, 1),) * 2, ((1, 2),), adj=())
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
                cost = sol.cost - inst.weight(v)
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
            if inst.demand(v) > 0:
                assert any(inst.capacity(u) >= 1 for u in inst.closed_neighborhood(v))

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
        assert changed.demand(2) == 0 and changed.demand(1) == 1
        assert changed.edges == p3.edges

    def test_with_demands_shares_the_parent_graph(self, p3):
        changed = with_demands(p3, {1: 4})
        assert changed.adj is p3.adj and changed.closed is p3.closed
        assert changed.demand(1) == 4 and p3.demand(1) == 1
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
        assert sub.demand(1) == 1 and sub.demand(2) == 0

    def test_columns_follow_attrs(self):
        def check(inst):
            for name, attr in (("weights", "weight"), ("capacities", "capacity"), ("demands", "demand")):
                assert getattr(inst, name) == (0, *(getattr(a, attr) for a in inst.attrs))

        for seed in range(20):
            inst = random_instance(2 + seed % 12, 0.4, 4, 4, 4, seed)
            check(inst)
            check(with_demands(inst, {1: 9, inst.n: 0}))
            keep = range(1, inst.n + 1, 2 if seed % 2 else 1)
            sub, orig = induced_instance(inst, keep, zero_demand=[1])
            check(sub)
            # induced_instance skips the constructor's checks; it must build the same graph
            rebuilt = Instance(sub.n, sub.attrs, sub.edges)
            assert (sub.edges, sub.adj, sub.closed) == (rebuilt.edges, rebuilt.adj, rebuilt.closed)

    def test_induced_instance_rejects_unknown_ids(self, p3):
        for ids in ([0, 1], [2, 4], [-1, 5]):
            with pytest.raises(ValueError, match="must lie in 1..3"):
                induced_instance(p3, ids)

    def test_instance_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Instance(2, (VertexAttrs(1, 1, 1),) * 2, ((1, 1),))
        with pytest.raises(ValueError):
            Instance(2, (VertexAttrs(1, 1, 1),) * 2, ((1, 2), (2, 1)))
