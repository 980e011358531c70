import random
from dataclasses import replace
from itertools import combinations, product

import pytest

from capdom.core import DemandModel, Solution, verify_solution
from capdom.hardness import (
    CliqueInstance,
    InvalidCliqueInstance,
    budget_for,
    clique_witness_solution,
    load_clique_instance,
    reduce,
    role_lines,
    save_clique_instance,
    verify_semantics,
    verify_structure,
)
from capdom.core import Instance
from capdom.oracle import BudgetExhausted, SearchBudget, exact_solve
from capdom.treewidth import heuristic_decomposition

from conftest import triples

UNSPLIT = DemandModel.UNSPLITTABLE


def tiny_clique():
    return CliqueInstance(2, ((1,), (2,)), frozenset({(1, 2)}))


def all_partitions_two_colors(n):
    """Every ordered split of labels 1..n into two nonempty parts."""
    labels = list(range(1, n + 1))
    for mask in range(1, 2**n - 1):
        part1 = tuple(v for i, v in enumerate(labels) if mask >> i & 1)
        part2 = tuple(v for i, v in enumerate(labels) if not mask >> i & 1)
        yield part1, part2


class TestCliqueInstance:
    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidCliqueInstance):
            CliqueInstance(2, ((1,), (3,)), frozenset())

    def test_rejects_intra_color_edge(self):
        with pytest.raises(InvalidCliqueInstance):
            CliqueInstance(2, ((1, 2), (3,)), frozenset({(1, 2)}))

    def test_rejects_edge_to_unknown_label(self):
        with pytest.raises(InvalidCliqueInstance):
            CliqueInstance(2, ((1,), (2,)), frozenset({(1, 9)}))

    def test_has_clique(self):
        assert tiny_clique().has_clique()
        assert not CliqueInstance(2, ((1,), (2,)), frozenset()).has_clique()
        three = CliqueInstance(
            3, ((1,), (2,), (3,)), frozenset({(1, 2), (1, 3), (2, 3)})
        )
        assert three.has_clique()

    def test_file_round_trip(self):
        cq = CliqueInstance(2, ((1, 3), (2,)), frozenset({(1, 2), (2, 3)}))
        assert load_clique_instance(save_clique_instance(cq)) == cq


class TestReduce:
    def test_node_count_closed_form(self):
        gadget = reduce(tiny_clique())
        # k + N + k(k-1)/2 + |E| + 2k(k-1) + 2N(k-1) + 4|E|
        assert gadget.instance.n == 2 + 2 + 1 + 1 + 4 + 4 + 4 == 18
        assert gadget.budget == budget_for(2) == 7

    def test_node_count_general(self):
        cq = CliqueInstance(
            3, ((1, 4), (2, 5), (3,)), frozenset({(1, 2), (2, 3), (1, 3), (4, 5)})
        )
        gadget = reduce(cq)
        k, n, m = 3, 5, 4
        expected = k + n + k * (k - 1) // 2 + m + 2 * k * (k - 1) + 2 * n * (k - 1) + 4 * m
        assert gadget.instance.n == expected

    def test_attribute_schedule(self):
        cq = CliqueInstance(2, ((1, 3), (2,)), frozenset({(1, 2), (2, 3)}))
        gadget = reduce(cq)
        inst, n = gadget.instance, 3
        heavy = gadget.budget + 1
        for node, tag in gadget.roles.items():
            fields = tag.split(":")
            kind = fields[0]
            w, c, d = inst.weights[node], inst.capacities[node], inst.demands[node]
            if kind in ("vsel", "esel"):
                assert (w, c, d) == (heavy, 0, 1)
            elif kind == "vnode":
                assert (w, c, d) == (1, 1 + (2 - 1) * n, 0)
            elif kind == "enode":
                assert (w, c, d) == (1, 1 + 2 * n, 0)
            elif kind == "bridge":
                assert (w, d) == (1, 1)
            elif kind == "vprop":
                alpha, label = int(fields[1]), int(fields[2])
                assert (w, c) == (heavy, 0)
                assert d == (label if alpha == 1 else n - label)
            elif kind == "eprop":
                alpha = int(fields[1])
                u, v, a = int(fields[2]), int(fields[3]), int(fields[4])
                end = u if a == cq.color_of()[u] else v
                assert (w, c) == (heavy, 0)
                assert d == (n - end if alpha == 1 else end)
            else:
                raise AssertionError(f"unexpected role {tag}")

    def test_vnode_capacity_example(self):
        # capacity 1 + (k-1) * N with k=3, N=5
        cq = CliqueInstance(
            3, ((1, 4), (2, 5), (3,)), frozenset({(1, 2), (2, 3), (1, 3), (4, 5)})
        )
        gadget = reduce(cq)
        for node in gadget.nodes_with_role("vnode"):
            assert gadget.instance.capacities[node] == 1 + 2 * 5 == 11
        for node in gadget.nodes_with_role("enode"):
            assert gadget.instance.capacities[node] == 1 + 2 * 5 == 11

    def test_bridge_neighborhood_size(self):
        cq = CliqueInstance(2, ((1, 3), (2,)), frozenset({(1, 2), (2, 3)}))
        gadget = reduce(cq)
        inst = gadget.instance
        color_sizes = {1: 2, 2: 1}
        cross = {(1, 2): 2, (2, 1): 2}
        for node in gadget.nodes_with_role("bridge"):
            _, alpha, i, j = gadget.roles[node].split(":")
            expected = 1 + color_sizes[int(i)] + cross[(int(i), int(j))]
            assert len(inst.adj[node] | {node}) == expected
            assert inst.capacities[node] >= 0

    def test_role_lines_format(self):
        gadget = reduce(tiny_clique())
        lines = role_lines(gadget)
        assert len(lines) == 18
        assert all(line.startswith("role ") for line in lines)


class TestStructure:
    def test_generated_pass(self):
        for k, n_parts in [(2, ((1,), (2,))), (2, ((1, 2), (3,)))]:
            cq = CliqueInstance(
                k, n_parts, frozenset({(min(a, b), max(a, b))
                                       for a in n_parts[0] for b in n_parts[1]})
            )
            assert verify_structure(reduce(cq)).passed

    def test_perturbed_bridge_capacity_fails(self):
        gadget = reduce(tiny_clique())
        bridge = gadget.nodes_with_role("bridge")[0]
        attrs = list(triples(gadget.instance))
        w, c, d = attrs[bridge - 1]
        attrs[bridge - 1] = (w, c + 1, d)
        tampered = gadget.__class__(
            Instance(gadget.instance.n, tuple(attrs), gadget.instance.edges),
            gadget.roles,
            gadget.budget,
            gadget.k,
            gadget.num_labels,
        )
        report = verify_structure(tampered)
        assert not report.passed
        assert any("capacity" in p for p in report.problems)

    @pytest.mark.parametrize(
        "role, field, message",
        [
            ("vnode", "capacity", "vertex node {node} capacity != 3"),
            ("enode", "capacity", "edge node {node} capacity != 5"),
            ("vnode", "demand", "vertex node {node} neighborhood demand 4 != 3"),
            ("enode", "demand", "edge node {node} neighborhood demand 6 != 5"),
        ],
    )
    def test_perturbed_star_node_fails(self, role, field, message):
        # k = 2, N = 2: vertex nodes expect 1 + (k-1)N = 3, edge nodes 1 + 2N = 5
        gadget = reduce(tiny_clique())
        node = gadget.nodes_with_role(role)[0]
        attrs = list(triples(gadget.instance))
        w, c, d = attrs[node - 1]
        attrs[node - 1] = (w, c + 1, d) if field == "capacity" else (w, c, d + 1)
        tampered = gadget.__class__(
            Instance(gadget.instance.n, tuple(attrs), gadget.instance.edges),
            gadget.roles,
            gadget.budget,
            gadget.k,
            gadget.num_labels,
        )
        report = verify_structure(tampered)
        assert report.problems == [message.format(node=node)]

    def test_intra_star_edge_breaks_forest(self):
        gadget = reduce(CliqueInstance(2, ((1, 2), (3,)),
                                       frozenset({(1, 3), (2, 3)})))
        vnodes = gadget.nodes_with_role("vnode")[:2]
        edges = gadget.instance.edges + ((vnodes[0], vnodes[1]),)
        tampered = gadget.__class__(
            Instance(gadget.instance.n, triples(gadget.instance), edges),
            gadget.roles,
            gadget.budget,
            gadget.k,
            gadget.num_labels,
        )
        report = verify_structure(tampered)
        assert not report.passed
        assert any("cycle" in p for p in report.problems)

    def test_structural_sweep(self):
        # k up to 4, parts up to 8 labels, complete cross edges
        for k, sizes in [(2, (2, 2)), (3, (2, 2, 2)), (4, (2, 2, 2, 2))]:
            start = 1
            parts = []
            for s in sizes:
                parts.append(tuple(range(start, start + s)))
                start += s
            color = {v: i for i, part in enumerate(parts) for v in part}
            edges = frozenset(
                (min(a, b), max(a, b))
                for a, b in combinations(range(1, start), 2)
                if color[a] != color[b]
            )
            gadget = reduce(CliqueInstance(k, tuple(parts), edges))
            assert verify_structure(gadget).passed

    def test_heuristic_width_tracks_bridge_count(self):
        for k, sizes in [(2, (1, 1)), (2, (2, 1)), (3, (1, 1, 1))]:
            start = 1
            parts = []
            for s in sizes:
                parts.append(tuple(range(start, start + s)))
                start += s
            color = {v: i for i, part in enumerate(parts) for v in part}
            edges = frozenset(
                (min(a, b), max(a, b))
                for a, b in combinations(range(1, start), 2)
                if color[a] != color[b]
            )
            gadget = reduce(CliqueInstance(k, tuple(parts), edges))
            width = heuristic_decomposition(gadget.instance).width
            assert width <= 2 * k * (k - 1) + 2


class TestSemantics:
    def test_yes_side_single_edge(self):
        cq = tiny_clique()
        gadget = reduce(cq)
        report = verify_semantics(cq, gadget)
        assert report.passed
        assert cq.has_clique() and exact_solve(gadget.instance, UNSPLIT).cost == 7

    def test_no_side_empty_graph(self):
        cq = CliqueInstance(2, ((1,), (2,)), frozenset())
        report = verify_semantics(cq, reduce(cq))
        assert report.passed
        assert not cq.has_clique()

    def test_mixed_parts(self):
        cq = CliqueInstance(2, ((1, 2), (3,)), frozenset({(1, 3)}))
        report = verify_semantics(cq, reduce(cq))
        assert report.passed
        assert cq.has_clique()

    def test_inconclusive_on_tiny_budget(self):
        cq = tiny_clique()
        with pytest.raises(BudgetExhausted):
            verify_semantics(cq, reduce(cq), SearchBudget(max_nodes=1))

    def test_fail_names_optimum_above_budget(self):
        # the gadget optimum is 7; a budget of 6 caps the search at 7,
        # which finds it
        cq = tiny_clique()
        report = verify_semantics(cq, replace(reduce(cq), budget=6))
        assert report.passed is False
        assert report.problems == ["clique=True, gadget optimum=7, budget=6"]

    def test_fail_names_cap_when_search_finds_nothing(self):
        # a budget of 5 caps the search at 6, below the optimum 7
        cq = tiny_clique()
        report = verify_semantics(cq, replace(reduce(cq), budget=5))
        assert report.passed is False
        assert report.problems == ["clique=True, gadget optimum=none at or below 6, budget=5"]

    def test_equivalence_holds_for_splittable_model_too(self):
        # the reduction's iff survives letting demands split, at tiny scale
        for parts, edges in [
            (((1,), (2,)), {(1, 2)}),
            (((1,), (2,)), set()),
            (((1, 3), (2,)), {(1, 2)}),
            (((2,), (1, 3)), {(1, 2), (2, 3)}),
        ]:
            cq = CliqueInstance(2, parts, frozenset(edges))
            report = verify_semantics(
                cq, reduce(cq), model=DemandModel.SPLITTABLE
            )
            assert report.passed

    def test_witness_costs_budget_and_verifies(self):
        for parts, edges in [
            (((1,), (2,)), {(1, 2)}),
            (((1, 2), (3,)), {(1, 3)}),
            (((1, 3), (2,)), {(1, 2), (2, 3)}),
        ]:
            cq = CliqueInstance(2, parts, frozenset(edges))
            gadget = reduce(cq)
            for pick in [p for p in _picks(cq) if _is_clique(cq, p)]:
                witness = clique_witness_solution(cq, gadget, pick)
                assert witness.cost == gadget.budget
                assert verify_solution(gadget.instance, witness, UNSPLIT).passed

    def test_witness_rejects_a_missing_edge(self):
        cq = CliqueInstance(2, ((1, 2), (3,)), frozenset({(1, 3)}))
        with pytest.raises(ValueError, match="labels 2 and 3 share no edge"):
            clique_witness_solution(cq, reduce(cq), (2, 3))

    @pytest.mark.parametrize("pick", [(1, 2), (3,), (1, 3, 3), (1, 9)])
    def test_witness_rejects_a_pick_off_one_label_per_part(self, pick):
        cq = CliqueInstance(2, ((1, 2), (3,)), frozenset({(1, 3), (2, 3)}))
        with pytest.raises(ValueError, match="one label per part"):
            clique_witness_solution(cq, reduce(cq), pick)

    def test_witness_matches_tag_based_reference(self):
        picks = 0
        for seed in range(300):
            cq = random_clique_instance(random.Random(seed))
            gadget = reduce(cq)
            for pick in [p for p in _picks(cq) if _is_clique(cq, p)]:
                witness = clique_witness_solution(cq, gadget, pick)
                assert witness == reference_clique_witness(cq, gadget, pick)
                assert witness.cost == gadget.budget
                assert verify_solution(gadget.instance, witness, UNSPLIT).passed
                picks += 1
        assert picks == 1519


def random_clique_instance(rng):
    """k = 2-4 parts of 1-3 labels each, cross edges kept with one density."""
    k = rng.randint(2, 4)
    sizes = [rng.randint(1, 3) for _ in range(k)]
    labels = list(range(1, sum(sizes) + 1))
    rng.shuffle(labels)
    parts, start = [], 0
    for size in sizes:
        parts.append(tuple(sorted(labels[start : start + size])))
        start += size
    color = {v: i for i, part in enumerate(parts) for v in part}
    density = rng.choice((0.5, 0.8, 1.0))
    edges = frozenset(
        (a, b)
        for a, b in combinations(range(1, start + 1), 2)
        if color[a] != color[b] and rng.random() < density
    )
    return CliqueInstance(k, tuple(parts), edges)


def reference_clique_witness(cq, g, pick):
    """The tag-based construction: format each star's role tag, then parse
    the tags of unpicked propagation nodes back to find their bridge."""
    color = cq.color_of()
    chosen_vertex = {color[v]: v for v in pick}
    chosen_edge = {}
    for idx, a in enumerate(pick):
        for b in pick[idx + 1 :]:
            i, j = sorted((color[a], color[b]))
            chosen_edge[(i, j)] = (a, b) if color[a] == i else (b, a)

    inst = g.instance
    by_tag = {tag: node for node, tag in g.roles.items()}
    assignment = {}
    multiplicity = {}
    served = set()

    def route(consumer, server):
        if inst.demands[consumer] > 0:
            assignment[(consumer, server)] = inst.demands[consumer]
            served.add(consumer)

    for tag, node in sorted(by_tag.items()):
        if tag.startswith("bridge:"):
            multiplicity[node] = 1
            route(node, node)
    for i in range(1, g.k + 1):
        u = chosen_vertex[i]
        vnode = by_tag[f"vnode:{u}"]
        multiplicity[vnode] = 1
        route(by_tag[f"vsel:{i}"], vnode)
        for j in range(1, g.k + 1):
            if j != i:
                for alpha in (1, 2):
                    route(by_tag[f"vprop:{alpha}:{u}:{i}:{j}"], vnode)
    for (i, j), (u, v) in sorted(chosen_edge.items()):
        enode = by_tag[f"enode:{u}:{v}"]
        multiplicity[enode] = 1
        route(by_tag[f"esel:{i}:{j}"], enode)
        for a, b in ((i, j), (j, i)):
            for alpha in (1, 2):
                route(by_tag[f"eprop:{alpha}:{u}:{v}:{a}:{b}"], enode)
    for node in g.nodes_with_role("vprop") + g.nodes_with_role("eprop"):
        if inst.demands[node] > 0 and node not in served:
            fields = g.roles[node].split(":")
            alpha, i, j = int(fields[1]), int(fields[-2]), int(fields[-1])
            route(node, by_tag[f"bridge:{alpha}:{i}:{j}"])
    cost = sum(inst.weights[v] * x for v, x in multiplicity.items())
    return Solution(multiplicity, assignment, cost)


def _picks(cq):
    return product(*cq.parts)


def _is_clique(cq, pick):
    normalized = {(min(u, v), max(u, v)) for u, v in cq.edges}
    return all(
        (min(a, b), max(a, b)) in normalized
        for i, a in enumerate(pick)
        for b in pick[i + 1 :]
    )
