import pytest

from capdom.core import random_instance
from capdom.treewidth import (
    FORGET,
    InvalidDecomposition,
    JOIN,
    LEAF,
    TreeDecomposition,
    bfs_order,
    decomposition_from_order,
    heuristic_decomposition,
    load_td,
    make_nice,
    min_fill_order,
    project_nice,
    save_td,
    validate_nice,
    validate_td,
)

from conftest import cycle_instance, grid_instance, mk


def reference_min_fill_order(inst):
    """The full recount: every step counts the fill of every vertex."""
    adj = {v: set(inst.neighbors(v)) for v in inst.vertices()}
    order = []
    while adj:
        best_v, best_fill = -1, None
        for v in sorted(adj):
            nbrs = sorted(adj[v])
            fill = sum(
                1
                for i in range(len(nbrs))
                for j in range(i + 1, len(nbrs))
                if nbrs[j] not in adj[nbrs[i]]
            )
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = adj.pop(best_v)
        for a in nbrs:
            adj[a].discard(best_v)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        order.append(best_v)
    return order


def complete_instance(n):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return mk([(1, 1, 1)] * n, edges)


def tree_instance():
    # a small tree: 1-2, 1-3, 3-4, 3-5, 5-6
    return mk([(1, 1, 1)] * 6, [(1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])


class TestValidate:
    def test_path_decomposition_passes(self, p3):
        td = TreeDecomposition({1: frozenset({1, 2}), 2: frozenset({2, 3})}, [(1, 2)])
        report = validate_td(p3, td)
        assert report.passed and td.width == 1

    def test_missing_tree_edge_fails(self, p3):
        td = TreeDecomposition({1: frozenset({1, 2}), 2: frozenset({2, 3})}, [])
        report = validate_td(p3, td)
        assert not report.passed
        assert any("not a tree" in p for p in report.problems)

    def test_uncovered_edge_fails(self, p3):
        td = TreeDecomposition({1: frozenset({1}), 2: frozenset({3})}, [(1, 2)])
        report = validate_td(p3, td)
        assert not report.passed
        assert any("edge (1,2) not covered" in p for p in report.problems)
        assert any("vertices in no bag: [2]" in p for p in report.problems)

    def test_disconnected_vertex_bags_fail(self):
        inst = mk([(1, 1, 1)] * 3, [(1, 2), (2, 3)])
        td = TreeDecomposition(
            {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({1})},
            [(1, 2), (2, 3)],
        )
        report = validate_td(inst, td)
        assert not report.passed
        assert any("vertex 1 are not connected" in p for p in report.problems)


class TestHeuristic:
    def test_tree_width_one(self):
        td = heuristic_decomposition(tree_instance())
        assert td.width == 1
        assert validate_td(tree_instance(), td).passed

    def test_complete_graph_single_bag(self):
        td = heuristic_decomposition(complete_instance(4))
        assert td.width == 3
        assert len(td.bags) == 1

    def test_cycle_width_two(self):
        inst = cycle_instance([(1, 1, 1)] * 5)
        td = heuristic_decomposition(inst)
        assert td.width == 2
        assert validate_td(inst, td).passed

    def test_valid_on_random_instances(self):
        for seed in range(40):
            inst = random_instance(2 + seed % 10, 0.35, 3, 3, 3, seed)
            td = heuristic_decomposition(inst)
            assert validate_td(inst, td).passed

    def test_min_fill_deterministic(self):
        inst = random_instance(9, 0.4, 3, 3, 3, 17)
        assert min_fill_order(inst) == min_fill_order(inst)

    def test_min_fill_matches_reference(self):
        # densities from forests to near-cliques, so ties and fill both occur
        for seed in range(600):
            density = (0.05, 0.15, 0.3, 0.5, 0.8)[seed % 5]
            inst = random_instance(1 + seed % 30, density, 3, 3, 3, seed)
            assert min_fill_order(inst) == reference_min_fill_order(inst)
        for n, seed in ((150, 1), (200, 2)):
            inst = random_instance(n, 6 / (n - 1), 3, 3, 3, seed)
            assert min_fill_order(inst) == reference_min_fill_order(inst)

    def test_from_order_rejects_non_permutation(self, p3):
        with pytest.raises(ValueError):
            decomposition_from_order(p3, [1, 2])


class TestBfsOrder:
    def test_components_by_smallest_id_neighbors_by_id(self):
        # components {1, 4}, {2, 3, 5, 7}, {6}
        inst = mk([(1, 1, 1)] * 7, [(1, 4), (2, 5), (2, 7), (5, 3)])
        assert bfs_order(inst) == [1, 4, 2, 5, 7, 3, 6]

    def test_decompositions_valid_and_nice(self):
        # n = 1 and edgeless, sparse (mostly disconnected) and dense graphs
        densities = (0.0, 0.1, 0.25, 0.6)
        for seed in range(80):
            inst = random_instance(1 + seed % 13, densities[seed % 4], 3, 3, 3, seed)
            order = bfs_order(inst)
            assert sorted(order) == list(inst.vertices())
            td = decomposition_from_order(inst, order)
            assert validate_td(inst, td).passed
            ntd = make_nice(td)
            assert validate_nice(ntd).passed
            assert ntd.width == td.width

    @pytest.mark.parametrize("rows, cols", [(3, 3), (4, 4), (5, 5), (3, 6)])
    def test_grids_get_no_join(self, rows, cols):
        inst = grid_instance(rows, cols)
        ntd = make_nice(decomposition_from_order(inst, bfs_order(inst)))
        assert all(node.kind != JOIN for node in ntd.post_order())
        assert ntd.width == min(rows, cols) + (rows != cols)


class TestMakeNice:
    def test_single_bag_leaf_then_forget(self):
        td = TreeDecomposition({1: frozenset({1})}, [])
        ntd = make_nice(td)
        assert ntd.root.kind == FORGET and ntd.root.bag == frozenset()
        assert ntd.root.children[0].kind == LEAF

    def test_p3_nice_projection_valid(self, p3):
        td = heuristic_decomposition(p3)
        ntd = make_nice(td)
        assert ntd.width == td.width == 1
        assert validate_td(p3, project_nice(ntd)).passed

    def test_join_spine_for_three_branches(self):
        center = frozenset({1})
        td = TreeDecomposition(
            {
                1: center,
                2: frozenset({1, 2}),
                3: frozenset({1, 3}),
                4: frozenset({1, 4}),
            },
            [(1, 2), (1, 3), (1, 4)],
        )
        inst = mk([(1, 1, 1)] * 4, [(1, 2), (1, 3), (1, 4)])
        ntd = make_nice(td)
        joins = [n for n in ntd.post_order() if n.kind == JOIN]
        assert len(joins) == 2
        assert validate_td(inst, project_nice(ntd)).passed

    def test_structural_invariants_random(self):
        for seed in range(40):
            inst = random_instance(2 + seed % 10, 0.35, 3, 3, 3, seed)
            td = heuristic_decomposition(inst)
            ntd = make_nice(td)
            assert validate_nice(ntd).passed
            assert ntd.width == td.width
            assert validate_td(inst, project_nice(ntd)).passed
            # linear-size guarantee: O(n * width) nodes
            assert ntd.node_count() <= 6 * inst.n * (td.width + 2)

    def test_rejects_empty_bag(self):
        with pytest.raises(InvalidDecomposition):
            make_nice(TreeDecomposition({1: frozenset()}, []))


class TestPaceFormat:
    def test_round_trip(self):
        inst = random_instance(8, 0.4, 3, 3, 3, 23)
        td = heuristic_decomposition(inst)
        loaded = load_td(save_td(td, inst.n))
        assert loaded.bags == td.bags
        assert sorted((min(e), max(e)) for e in loaded.tree_edges) == sorted(
            (min(e), max(e)) for e in td.tree_edges
        )

    def test_header_carries_width(self):
        td = TreeDecomposition({1: frozenset({1, 2}), 2: frozenset({2, 3})}, [(1, 2)])
        text = save_td(td, 3)
        assert text.splitlines()[0] == "s td 2 2 3"

    def test_load_rejects_bag_count_mismatch(self):
        with pytest.raises(Exception):
            load_td("s td 2 1 1\nb 1 1\n")
