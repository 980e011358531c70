import random
import time
from collections import deque

import pytest

from capdom.baker import make_slices
from capdom.core import DemandModel, ParseError, Report, random_instance
from capdom.tddp import solve_td
from capdom.treewidth import (
    Abandoned,
    FORGET,
    INTRODUCE,
    InvalidDecomposition,
    JOIN,
    LEAF,
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    bfs_order,
    components,
    decomposition_from_order,
    heuristic_decomposition,
    load_td,
    make_nice,
    min_fill_order,
    project_nice,
    save_td,
    validate_td,
)

from conftest import cycle_instance, grid_instance, mk, partial_two_tree, path_instance


def validate_nice(ntd: NiceTreeDecomposition) -> Report:
    """Structural checks on node kinds, bag deltas, and the empty root."""
    problems: list[str] = []
    if ntd.root.bag:
        problems.append("root bag is not empty")
    for node in ntd.post_order():
        if node.kind == LEAF:
            if node.children or len(node.bag) != 1:
                problems.append("leaf must be childless with a singleton bag")
        elif node.kind == INTRODUCE:
            if len(node.children) != 1 or node.vertex is None:
                problems.append("introduce needs one child and a vertex")
            elif node.bag != node.children[0].bag | {node.vertex} or node.vertex in node.children[0].bag:
                problems.append(f"introduce of {node.vertex} has wrong bags")
        elif node.kind == FORGET:
            if len(node.children) != 1 or node.vertex is None:
                problems.append("forget needs one child and a vertex")
            elif node.bag != node.children[0].bag - {node.vertex} or node.vertex not in node.children[0].bag:
                problems.append(f"forget of {node.vertex} has wrong bags")
        elif node.kind == JOIN:
            if len(node.children) != 2:
                problems.append("join needs two children")
            elif any(child.bag != node.bag for child in node.children):
                problems.append("join children bags must equal the join bag")
        else:
            problems.append(f"unknown node kind {node.kind!r}")
    return Report(not problems, problems)


def reference_min_fill_order(inst):
    """The full recount: every step counts the fill of every vertex."""
    adj = {v: set(inst.adj[v]) for v in inst.vertices()}
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


def reference_delta_min_fill_order(inst):
    """`min_fill_order` before its heap: the same fill counts kept by
    deltas, but each step scans every count for the least (fill, id), and
    each fill edge takes two set differences over every pair of N(x)."""
    adj = {v: set(inst.adj[v]) for v in inst.vertices()}
    fill = {v: sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2 for v, nbrs in adj.items()}
    order, bags = [], []
    while fill:
        _, x = min((f, v) for v, f in fill.items())
        del fill[x]
        nbrs = adj.pop(x)
        for a in nbrs:
            adj[a].discard(x)
            fill[a] -= len(adj[a] - nbrs)
        for a in nbrs:
            for b in nbrs:
                if a < b and b not in adj[a]:
                    for w in adj[a] & adj[b]:
                        fill[w] -= 1
                    fill[a] += len(adj[a] - adj[b])
                    fill[b] += len(adj[b] - adj[a])
                    adj[a].add(b)
                    adj[b].add(a)
        order.append(x)
        bags.append(frozenset(nbrs) | {x})
    return order, bags


def binary_tree(n):
    return mk([(1, 1, 1)] * n, [(v // 2, v) for v in range(2, n + 1)])


def complete_instance(n):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return mk([(1, 1, 1)] * n, edges)


def tree_instance():
    # a small tree: 1-2, 1-3, 3-4, 3-5, 5-6
    return mk([(1, 1, 1)] * 6, [(1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])


def reference_validate_td(inst, td):
    """The direct check: each edge scans every bag, each vertex runs a BFS
    over the bags holding it.  Quadratic in the bags; slow reference for
    `validate_td`, which must report the same problems in the same order."""
    problems = []
    if not td.bags:
        return Report(False, ["decomposition has no bags"])
    ids = set(td.bags)
    for a, b in td.tree_edges:
        if a not in ids or b not in ids:
            problems.append(f"tree edge ({a},{b}) references a missing bag")
        if a == b:
            problems.append(f"tree edge ({a},{b}) is a self-loop")
    if problems:
        return Report(False, problems)
    if len(set(map(lambda e: (min(e), max(e)), td.tree_edges))) != len(td.tree_edges):
        problems.append("duplicate tree edges")
    if len(td.tree_edges) != len(td.bags) - 1:
        problems.append(
            f"bag graph has {len(td.tree_edges)} edges over {len(td.bags)} bags, not a tree"
        )
    adj = td.neighbors()
    start = min(ids)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if seen != ids:
        problems.append("bag graph is disconnected")
    if problems:
        return Report(False, problems)

    covered = frozenset().union(*td.bags.values())
    missing = set(inst.vertices()) - covered
    if missing:
        problems.append(f"vertices in no bag: {sorted(missing)}")
    for v in sorted(covered - set(inst.vertices())):
        problems.append(f"bag contains unknown vertex {v}")
    for u, v in inst.edges:
        if not any(u in bag and v in bag for bag in td.bags.values()):
            problems.append(f"edge ({u},{v}) not covered by any bag")
    for v in inst.vertices():
        holding = {i for i, bag in td.bags.items() if v in bag}
        if not holding:
            continue
        start = min(holding)
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt in holding and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if seen != holding:
            problems.append(f"bags containing vertex {v} are not connected")
    return Report(not problems, problems)


def corrupted(td, rng):
    """`td` with a leaf bag and its edge removed, with one vertex taken out
    of one inner bag (which may split the bags holding it), and with one
    vertex taken out of every bag."""
    adj = td.neighbors()
    leaves = [i for i in sorted(td.bags) if len(adj[i]) == 1]
    if leaves:
        gone = rng.choice(leaves)
        edges = [e for e in td.tree_edges if gone not in e]
        yield TreeDecomposition({i: b for i, b in td.bags.items() if i != gone}, edges)
    inner = [(i, v) for i in sorted(td.bags) if len(adj[i]) > 1 for v in sorted(td.bags[i])]
    if inner:
        at, v = rng.choice(inner)
        yield TreeDecomposition({**td.bags, at: td.bags[at] - {v}}, td.tree_edges)
    v = rng.choice(sorted(frozenset().union(*td.bags.values())))
    yield TreeDecomposition({i: b - {v} for i, b in td.bags.items()}, td.tree_edges)


# what the corruptions above must break
PROBLEM_KINDS = ("vertices in no bag", "not covered by any bag", "are not connected")


class TestValidate:
    def test_matches_reference_on_valid_and_corrupted(self):
        rng = random.Random(5)
        kinds = set()
        for seed in range(60):
            inst = random_instance(2 + seed % 12, (0.15, 0.35, 0.6)[seed % 3], 3, 3, 3, seed)
            td = heuristic_decomposition(inst)
            for valid in (td, project_nice(make_nice(td))):
                assert validate_td(inst, valid) == reference_validate_td(inst, valid)
                assert validate_td(inst, valid).passed
                for bad in corrupted(valid, rng):
                    report = validate_td(inst, bad)
                    assert report == reference_validate_td(inst, bad)
                    kinds |= {kind for p in report.problems for kind in PROBLEM_KINDS if kind in p}
        assert kinds == set(PROBLEM_KINDS)

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

    def test_cycle_beside_lone_bag_is_disconnected(self):
        # n - 1 distinct edges, but they close the cycle 1-2-3 and leave
        # bag 4 unreached; coverage and each vertex's bags would pass
        inst = mk([(1, 1, 1)] * 5, [(1, 2), (2, 3), (3, 4)])
        bags = {1: {1, 2}, 2: {2, 3}, 3: {3, 4}, 4: {5}}
        td = TreeDecomposition({i: frozenset(b) for i, b in bags.items()}, [(1, 2), (2, 3), (3, 1)])
        report = validate_td(inst, td)
        assert report.problems == ["bag graph is disconnected"]
        assert report == reference_validate_td(inst, td)


def reference_elimination(inst, order):
    """The fill-in construction before any contraction: bag i + 1 holds
    order[i] and its later neighbors, hangs below the bag of its
    first-eliminated later neighbor, and the roots are chained."""
    position = {v: i for i, v in enumerate(order)}
    adj = {v: set(inst.adj[v]) for v in inst.vertices()}
    bag_of, bags, later_neighbor = {}, {}, {}
    for idx, v in enumerate(order, 1):
        nbrs = set(adj[v])
        bags[idx] = frozenset(nbrs | {v})
        bag_of[v] = idx
        later_neighbor[idx] = min(nbrs, key=lambda u: position[u]) if nbrs else None
        for a in nbrs:
            adj[a].discard(v)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        del adj[v]
    edges, roots = [], []
    for idx in sorted(bags):
        nxt = later_neighbor[idx]
        if nxt is None:
            roots.append(idx)
        else:
            edges.append((idx, bag_of[nxt]))
    edges += zip(roots, roots[1:])
    return TreeDecomposition(bags, edges)


def reference_absorb_subset_bags(td):
    """Contract bags that are subsets of a neighbor, restarting the scan
    after every contraction; then reindex densely."""
    bags = dict(td.bags)
    adj = td.neighbors()
    changed = True
    while changed:
        changed = False
        for i in sorted(bags):
            for j in sorted(adj[i]):
                if bags[i] <= bags[j]:
                    for other in adj[i]:
                        if other != j:
                            adj[other].discard(i)
                            adj[other].add(j)
                            adj[j].add(other)
                    adj[j].discard(i)
                    del bags[i]
                    del adj[i]
                    changed = True
                    break
            if changed:
                break
    rename = {old: new for new, old in enumerate(sorted(bags), 1)}
    new_bags = {rename[i]: bag for i, bag in bags.items()}
    new_edges = sorted(
        (min(rename[a], rename[b]), max(rename[a], rename[b]))
        for a in adj
        for b in adj[a]
        if a < b
    )
    return TreeDecomposition(new_bags, new_edges)


def reference_decomposition(inst, order):
    return reference_absorb_subset_bags(reference_elimination(inst, order))


def relabeled(inst, rng):
    """`inst` with its vertex ids shuffled."""
    label = list(inst.vertices())
    rng.shuffle(label)
    edges = [(min(label[u - 1], label[v - 1]), max(label[u - 1], label[v - 1])) for u, v in inst.edges]
    return mk([(1, 1, 1)] * inst.n, edges)


def random_tree(n, rng):
    return mk([(1, 1, 1)] * n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])


def elimination_inputs():
    """Every Baker band of the benchmark's grids at k = 2 and 3 (row-major
    8x8 and 10x10, shuffled 6x6), the DP grids, sparse graphs with
    average degree 6 at n = 150-300, random graphs with isolated vertices
    and several components, n = 1, and random trees."""
    rng = random.Random(14)
    grids = [grid_instance(8, 8), grid_instance(10, 10)]
    grids += [relabeled(grid_instance(6, 6), rng) for _ in range(4)]
    for inst in grids:
        (levels,) = components(inst)
        for k in (2, 3):
            for r in range(k):
                for sub, _ in make_slices(inst, levels, k, r):
                    yield sub
    for rows, cols in ((4, 4), (3, 5), (3, 3), (3, 4), (2, 8)):
        yield grid_instance(rows, cols)
    for n in (150, 200, 250, 300):
        yield random_instance(n, 6 / (n - 1), 3, 3, 3, n)
    for seed in range(150):
        yield random_instance(1 + seed % 40, (0.02, 0.05, 0.1)[seed % 3], 3, 3, 3, seed)
    yield mk([(1, 1, 1)])
    for n in (2, 3, 10, 100, 500):
        yield random_tree(n, rng)


class TestElimination:
    """The one-pass builders against the double elimination and restart
    scan they replace: same bags, same ids, same tree edges."""

    def test_min_fill_builds_reference_decomposition(self):
        for inst in elimination_inputs():
            order, bags = min_fill_order(inst)
            assert bags == list(reference_elimination(inst, order).bags.values())
            assert heuristic_decomposition(inst) == reference_decomposition(inst, order)

    def test_fixed_orders_build_reference_decomposition(self):
        rng = random.Random(7)
        for inst in elimination_inputs():
            orders = [bfs_order(inst)]
            if inst.n <= 100:  # random orders fill sparse graphs into large cliques
                orders.append(rng.sample(list(inst.vertices()), inst.n))
            for order in orders:
                assert decomposition_from_order(inst, order) == reference_decomposition(inst, order)

    def test_give_up_sees_each_bag_before_its_fill_in(self):
        inst = grid_instance(3, 3)
        order = bfs_order(inst)
        bags = list(reference_elimination(inst, order).bags.values())
        seen = []

        def give_up(bag, fill_work):
            seen.append((bag, fill_work))
            return len(seen) == 4

        with pytest.raises(Abandoned):
            decomposition_from_order(inst, order, give_up)
        work = [len(bag) - 1 for bag in bags[:4]]
        assert seen == [(bag, sum(w * w for w in work[: i + 1])) for i, bag in enumerate(bags[:4])]


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
            assert min_fill_order(inst)[0] == reference_min_fill_order(inst)
            assert min_fill_order(inst) == reference_delta_min_fill_order(inst)
        for n, seed in ((150, 1), (200, 2)):
            inst = random_instance(n, 6 / (n - 1), 3, 3, 3, seed)
            assert min_fill_order(inst)[0] == reference_min_fill_order(inst)

    @pytest.mark.parametrize("shape", ["tree", "star", "partial-2-tree"])
    def test_heap_matches_delta_scan_at_scale(self, shape):
        # 2,000 vertices: a random tree, a star centered on vertex 1 (one
        # count of about 2*10^6 falling by one per leaf), a partial 2-tree
        n = 2000
        if shape == "tree":
            rng = random.Random(3)
            inst = mk([(1, 1, 1)] * n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])
        elif shape == "star":
            inst = mk([(1, 1, 1)] * n, [(1, v) for v in range(2, n + 1)])
        else:
            inst = partial_two_tree(n, 5)
        assert min_fill_order(inst) == reference_delta_min_fill_order(inst)

    @pytest.mark.parametrize("shape", ["binary-tree", "partial-2-tree"])
    def test_min_fill_at_ten_thousand_vertices(self, shape):
        # about 0.1 s on a 2-core VM; the delta scan took about 5 s
        inst = binary_tree(10**4) if shape == "binary-tree" else partial_two_tree(10**4, 5)
        started = time.perf_counter()
        order, bags = min_fill_order(inst)
        assert time.perf_counter() - started < 3
        assert sorted(order) == list(inst.vertices())
        assert validate_td(inst, heuristic_decomposition(inst)).passed

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


def reference_make_nice(td):
    """The recursive construction: one call per bag, children in id order."""
    adj = td.neighbors()

    def build_leaf_chain(bag):
        ordered = sorted(bag)
        node = NiceNode(LEAF, frozenset([ordered[0]]))
        for v in ordered[1:]:
            node = NiceNode(INTRODUCE, node.bag | {v}, vertex=v, children=[node])
        return node

    def adapt(node, target):
        for v in sorted(node.bag - target):
            node = NiceNode(FORGET, node.bag - {v}, vertex=v, children=[node])
        for v in sorted(target - node.bag):
            node = NiceNode(INTRODUCE, node.bag | {v}, vertex=v, children=[node])
        return node

    def build(bag_id, parent):
        bag = td.bags[bag_id]
        kids = sorted(k for k in adj[bag_id] if k != parent)
        if not kids:
            return build_leaf_chain(bag)
        subtrees = [adapt(build(k, bag_id), bag) for k in kids]
        node = subtrees[0]
        for other in subtrees[1:]:
            node = NiceNode(JOIN, bag, children=[node, other])
        return node

    lowest = min(min(bag) for bag in td.bags.values())
    top = build(min(i for i, bag in td.bags.items() if lowest in bag), None)
    for v in sorted(top.bag):
        top = NiceNode(FORGET, top.bag - {v}, vertex=v, children=[top])
    return NiceTreeDecomposition(top)


def nice_shape(ntd):
    """Bags and tree edges, plus each node's kind and vertex in post-order."""
    return project_nice(ntd), [(node.kind, node.vertex) for node in ntd.post_order()]


def reference_cases():
    """Decompositions of random graphs (both orders), grids and Baker bands."""
    for seed in range(40):
        inst = random_instance(2 + seed % 12, (0.15, 0.35, 0.6)[seed % 3], 3, 3, 3, seed)
        yield heuristic_decomposition(inst)
        yield decomposition_from_order(inst, bfs_order(inst))
    for rows, cols in [(3, 3), (4, 5), (2, 7)]:
        inst = grid_instance(rows, cols)
        yield heuristic_decomposition(inst)
        yield decomposition_from_order(inst, bfs_order(inst))
    inst = grid_instance(6, 6)
    (levels,) = components(inst)
    for k, r in [(2, 0), (2, 1), (3, 2)]:
        for sub, _ in make_slices(inst, levels, k, r):
            yield heuristic_decomposition(sub)


class TestMakeNice:
    def test_matches_recursive_reference(self):
        for td in reference_cases():
            assert nice_shape(make_nice(td)) == nice_shape(reference_make_nice(td))

    def test_deep_path_needs_no_recursion(self):
        # 2,000 bags in a chain: the recursive reference would overflow
        inst = path_instance([(1, 2, 1)] * 2000)
        td = heuristic_decomposition(inst)
        ntd = make_nice(td)
        assert validate_nice(ntd).passed
        assert ntd.width == td.width == 1

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

    def test_empty_bags_add_no_leaf_and_join_their_children(self):
        # Components 1-2, 3-4 and 5 linked through the empty bag 3, plus an
        # empty bag 5 without children hanging off the root bag 1.
        inst = mk([(1, 2, 1), (2, 1, 1), (1, 1, 2), (3, 2, 1), (2, 1, 1)], [(1, 2), (3, 4)])
        bags = {1: {1, 2}, 2: {3, 4}, 3: set(), 4: {5}, 5: set()}
        td = TreeDecomposition({i: frozenset(b) for i, b in bags.items()}, [(1, 3), (2, 3), (3, 4), (1, 5)])
        assert validate_td(inst, td).passed
        ntd = make_nice(td)
        assert validate_nice(ntd).passed
        nodes = ntd.post_order()
        assert [n.bag for n in nodes if n.kind == LEAF] == [{3}, {5}]
        assert [n.bag for n in nodes if n.kind == JOIN] == [frozenset()]
        for model in DemandModel:
            expected = solve_td(inst, make_nice(heuristic_decomposition(inst)), model).cost
            assert solve_td(inst, ntd, model).cost == expected
        assert validate_nice(make_nice(project_nice(ntd))).passed

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

    @pytest.mark.parametrize(
        "text, line_no",
        [("s td 2 9 99\nb 1 1 2\nb 2 2 3\n1 2\n", 0),
         ("s td 2 1 3\nb 1 1 2\nb 2 3\n1 2\n", 0),
         ("s td 2 2 2\nb 1 1 2\nb 2 2 3\n1 2\n", 3),
         ("s td 1 1 3\nb 1 0\n", 2)],
        ids=["max-bag-too-large", "max-bag-too-small", "vertex-above-n", "vertex-zero"],
    )
    def test_load_checks_header_against_bags(self, text, line_no):
        with pytest.raises(ParseError) as info:
            load_td(text)
        assert info.value.line_no == line_no

    def test_load_accepts_empty_bags_and_saved_headers(self):
        td = TreeDecomposition({1: frozenset(), 2: frozenset({2})}, [(1, 2)])
        assert load_td(save_td(td, 2)) == td
        assert load_td("s td 1 0 0\nb 1\n").bags == {1: frozenset()}
