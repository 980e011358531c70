import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdom import tddp
from capdom.baker import (
    MergeConflict,
    baker_solve,
    make_slices,
    merge_solutions,
)
from capdom.core import (
    DemandModel,
    Instance,
    Solution,
    induced_instance,
    random_instance,
    verify_solution,
)
from capdom.oracle import exact_unsplittable
from capdom.tddp import solve_td
from capdom.treewidth import bfs_order, bfs_parents, components, heuristic_decomposition, make_nice

from conftest import cycle_instance, grid_instance, mk, path_instance, small_instances, triples

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


def shift_lines(shift_costs):
    """The comment lines `baker_solve` gives for these shift costs, one
    list per component."""
    return [
        f"shift component={comp} r={r} cost={cost}"
        for comp, costs in enumerate(shift_costs)
        for r, cost in enumerate(costs)
    ]


def level_of(levels):
    """Each vertex's BFS level, from a component's level lists."""
    return {v: lv for lv, level in enumerate(levels) for v in level}


def band_bounds(levels, k, r):
    """(low, high) of each band `make_slices` cuts for shift r: the band
    holds the levels low..high that exist and zeroes low and high."""
    return [(low, low + k + 1) for low in range(r - k, len(levels) - 1, k)]


def reference_slices(inst, levels, k, r):
    """The per-band scan that `make_slices` replaced: each band reads every
    vertex's level, and an empty band is skipped."""
    level = level_of(levels)
    top = len(levels) - 1
    slices = []
    j = 0
    while (j - 1) * k + r + 1 <= top:
        low = (j - 1) * k + r
        high = j * k + r + 1
        members = [v for v, lv in level.items() if low <= lv <= high]
        j += 1
        if not members:
            continue
        zeroed = frozenset(v for v in members if level[v] in (low, high))
        slices.append(induced_instance(inst, members, zero_demand=zeroed))
    return slices


def slicing_inputs():
    """Grids, shuffled grids, outerplanar graphs and graphs with one-vertex
    components, each with seeded weights, capacities and demands."""
    rng = random.Random(32)
    shapes = [(rows * cols, grid_instance(rows, cols).edges)
              for rows, cols in [(1, 1), (1, 6), (2, 3), (3, 4), (5, 5), (7, 9)]]
    for rows, cols in [(3, 3), (4, 6), (6, 6), (8, 8)]:
        label = list(range(1, rows * cols + 1))
        rng.shuffle(label)
        edges = [(label[u - 1], label[v - 1]) for u, v in grid_instance(rows, cols).edges]
        shapes.append((rows * cols, [(min(e), max(e)) for e in edges]))
    for n in (3, 8, 13):
        path = [(i, i + 1) for i in range(1, n)]
        shapes.append((n, path + [(1, n)]))  # cycle
        shapes.append((n + 1, [(u + 1, v + 1) for u, v in path] + [(1, i) for i in range(2, n + 2)]))  # fan
    shapes += [(1, []), (4, []), (7, [(2, 3), (3, 4), (6, 7)])]
    shapes += [(n, random_instance(n, 0.15, 1, 1, 1, n).edges) for n in (10, 16, 24)]
    for n, edges in shapes:
        yield mk([(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)) for _ in range(n)], edges)


class TestLevels:
    def test_path_levels(self, p3):
        assert list(components(p3)) == [[[1], [2], [3]]]

    def test_star_levels(self):
        inst = mk([(1, 1, 1)] * 4, [(1, 2), (1, 3), (1, 4)])
        assert list(components(inst)) == [[[1], [2, 3, 4]]]

    def test_grid_corner_levels(self):
        # 1 2 3 / 4 5 6 / 7 8 9, each level in visiting order
        inst = grid_instance(3, 3)
        assert list(components(inst)) == [[[1], [2, 4], [3, 5, 7], [6, 8], [9]]]

    def test_levels_cover_root_component(self):
        # components {1, 2, 4} and {3, 5}, each levelled from its smallest id
        inst = mk([(1, 1, 1)] * 5, [(2, 4), (1, 2), (3, 5)])
        assert list(components(inst)) == [[[1], [2], [4]], [[3], [5]]]

    def test_edge_level_gap_at_most_one(self):
        for seed in range(20):
            inst = random_instance(9, 0.45, 3, 3, 3, seed)
            level = {}
            for comp, levels in enumerate(components(inst)):
                level.update((v, (comp, lv)) for v, lv in level_of(levels).items())
            assert sorted(level) == list(inst.vertices())
            for u, v in inst.edges:
                assert level[u][0] == level[v][0]
                assert abs(level[u][1] - level[v][1]) <= 1


class TestSlices:
    @pytest.mark.parametrize("k,r", [(2, 0), (2, 1), (3, 0), (3, 2), (5, 4)])
    def test_structural_invariants(self, k, r):
        # every demand is 1, so a vertex keeps its demand where it stays 1
        inst = grid_instance(3, 4, attr=(1, 2, 1))
        (levels,) = components(inst)
        level = level_of(levels)
        slices = make_slices(inst, levels, k, r)
        membership = {v: 0 for v in inst.vertices()}
        keepers = {v: 0 for v in inst.vertices()}
        for (sub, orig_of), (low, high) in zip(slices, band_bounds(levels, k, r), strict=True):
            # the k + 2 levels low..high, clipped to the levels that exist
            assert {level[orig] for orig in orig_of} == set(range(max(low, 0), min(high, len(levels) - 1) + 1))
            for new_id, orig in enumerate(orig_of, 1):
                membership[orig] += 1
                keepers[orig] += sub.demands[new_id]
        assert all(1 <= membership[v] <= 2 for v in inst.vertices())
        assert all(keepers[v] == 1 for v in inst.vertices())

    def test_whole_graph_when_shift_covers_levels(self, p3):
        (levels,) = components(p3)
        slices = make_slices(p3, levels, 5, 2)
        # equal instances carry equal demands, so none is zeroed
        assert slices == [(p3, (1, 2, 3))]

    def test_boundary_demands_zeroed(self):
        inst = path_instance([(1, 1, 1)] * 5)
        (levels,) = components(inst)
        level = level_of(levels)
        slices = make_slices(inst, levels, 2, 0)
        for (sub, orig_of), bounds in zip(slices, band_bounds(levels, 2, 0), strict=True):
            for new_id, orig in enumerate(orig_of, 1):
                if level[orig] in bounds:
                    assert sub.demands[new_id] == 0
                else:
                    assert sub.demands[new_id] == inst.demands[orig]

    def test_five_level_band_spans(self):
        # path on 5 levels, k=2, r=0: bands over levels {0,1}, {0..3}, {2..4}
        inst = path_instance([(1, 1, 1)] * 5)
        (levels,) = components(inst)
        level = level_of(levels)
        slices = make_slices(inst, levels, 2, 0)
        spans = [sorted(level[orig] for orig in orig_of) for _, orig_of in slices]
        assert spans == [[0, 1], [0, 1, 2, 3], [2, 3, 4]]
        zeroed_levels = [
            sorted(level[orig] for new_id, orig in enumerate(orig_of, 1) if sub.demands[new_id] == 0)
            for sub, orig_of in slices
        ]
        assert zeroed_levels == [[1], [0, 3], [2]]

    def test_slice_width_tracks_band_width(self):
        # recorded constant: heuristic slice width <= 2k on grid instances
        for rows, cols in [(3, 4), (4, 4), (3, 6)]:
            inst = grid_instance(rows, cols, attr=(1, 2, 1))
            (levels,) = components(inst)
            for k in (2, 3, 5):
                for r in range(k):
                    for sub, _ in make_slices(inst, levels, k, r):
                        width = heuristic_decomposition(sub).width
                        assert width <= 2 * k

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(inst=small_instances(max_n=10), k=st.sampled_from([2, 3, 4]))
    def test_bands_of_every_shift(self, inst, k):
        for levels in components(inst):
            level = level_of(levels)
            edges = {(u, v) for u, v in inst.edges if u in level}
            for r in range(min(k, len(levels))):
                keeps = {v: 0 for v in level}
                covered = set()
                for sub, orig_of in make_slices(inst, levels, k, r):
                    spans = sorted({level[v] for v in orig_of})
                    assert spans == list(range(spans[0], spans[0] + len(spans))) and len(spans) <= k + 2
                    covered |= {(orig_of[a - 1], orig_of[b - 1]) for a, b in sub.edges}
                    for new_id, v in enumerate(orig_of, 1):
                        if sub.demands[new_id] == inst.demands[v]:
                            keeps[v] += 1
                            assert inst.demands[v] == 0 or inst.adj[v] <= set(orig_of)
                        else:
                            assert sub.demands[new_id] == 0 and level[v] in (spans[0], spans[-1])
                assert all(keeps[v] == 1 for v in level if inst.demands[v] > 0)
                assert covered == edges

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(inst=small_instances(max_n=10))
    def test_bfs_order_concatenates_component_searches(self, inst):
        order = []
        for start in inst.vertices():
            if start not in order:
                order += bfs_parents(start, inst.adj)
        assert bfs_order(inst) == order

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_per_band_scan(self, k):
        cases = 0
        for inst in slicing_inputs():
            for levels in components(inst):
                for r in range(k):
                    assert make_slices(inst, levels, k, r) == reference_slices(inst, levels, k, r)
                    cases += 1
        assert cases >= 30 * k


class TestMerge:
    def test_disjoint_slices_costs_add(self):
        inst = path_instance([(1, 1, 1)] * 4)
        (levels,) = components(inst)
        slices = make_slices(inst, levels, 2, 1)
        pairs = []
        for sub, orig_of in slices:
            td = heuristic_decomposition(sub)
            pairs.append((orig_of, solve_td(sub, make_nice(td), UNSPLIT)))
        merged = merge_solutions(inst, pairs)
        assert merged.cost == sum(sol.cost for _, sol in pairs)
        assert verify_solution(inst, merged, UNSPLIT).passed

    @staticmethod
    def merge_shared_server(capacity):
        # Two bands each buy one copy of server 2: loads 2 and 1.
        inst = path_instance([(1, capacity, 1)] * 3)
        sol_a = Solution({2: 1}, {(1, 2): 1, (2, 2): 1}, 1)
        sol_b = Solution({2: 1}, {(3, 2): 1}, 1)
        return merge_solutions(inst, [((1, 2, 3), sol_a), ((1, 2, 3), sol_b)])

    def test_copies_follow_merged_load(self):
        # merged load 3 over capacity 2 still needs both copies
        merged = self.merge_shared_server(2)
        assert merged.multiplicity == {2: 2}
        assert merged.cost == 2

    def test_shared_server_saves_a_copy(self):
        # merged load 3 fits one copy of capacity 3; the bands bought two
        merged = self.merge_shared_server(3)
        assert merged.multiplicity == {2: 1}
        assert merged.cost == 1
        assert merged.assignment == {(1, 2): 1, (2, 2): 1, (3, 2): 1}

    def test_empty_list(self, p3):
        merged = merge_solutions(p3, [])
        assert merged.cost == 0 and merged.multiplicity == {}

    def test_conflict_detected(self):
        inst = path_instance([(1, 2, 1)] * 3)
        sol = Solution({1: 1}, {(1, 1): 1}, 1)
        with pytest.raises(MergeConflict):
            merge_solutions(inst, [((1, 2, 3), sol), ((1, 2, 3), sol)])


class TestBakerSolve:
    def test_matches_dp_when_bands_cover_graph(self, p3):
        res = baker_solve(p3, 5, UNSPLIT)
        ntd = make_nice(heuristic_decomposition(p3))
        assert res.solution.cost == solve_td(p3, ntd, UNSPLIT).cost

    def test_ratio_on_grids(self):
        for rows, cols in [(2, 3), (2, 5), (3, 4)]:
            inst = grid_instance(rows, cols, attr=(1, 2, 1))
            opt = exact_unsplittable(inst).cost
            for k in (2, 3, 5):
                res = baker_solve(inst, k, UNSPLIT)
                assert verify_solution(inst, res.solution, UNSPLIT).passed
                assert Fraction(res.solution.cost) <= (1 + Fraction(4, k - 1)) * opt
                (levels,) = components(inst)
                if k >= len(levels):
                    assert res.solution.cost == opt

    def test_ratio_on_cycles(self):
        inst = cycle_instance([(2, 2, 2)] * 8)
        opt = exact_unsplittable(inst).cost
        for k in (2, 3, 5):
            res = baker_solve(inst, k, UNSPLIT)
            assert Fraction(res.solution.cost) <= (1 + Fraction(4, k - 1)) * opt

    def test_splittable_path(self):
        inst = grid_instance(2, 4, attr=(1, 3, 2))
        res = baker_solve(inst, 3, SPLIT)
        assert verify_solution(inst, res.solution, SPLIT).passed

    def test_disconnected_components_summed(self):
        inst = mk([(1, 1, 1)] * 4, [(1, 2), (3, 4)])
        res = baker_solve(inst, 2, UNSPLIT)
        assert verify_solution(inst, res.solution, UNSPLIT).passed
        assert res.solution.cost == exact_unsplittable(inst).cost
        assert res.comments == shift_lines([[2, 2], [2, 2]])

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_interleaved_components_match_separate_runs(self, model):
        # a 2x4 grid on ids 1, 3, ..., 15 and a 3x3 grid on 2, 4, ..., 16
        # and 17, so the largest id lies in the second component
        a = weighted_grid(2, 4, 2, 1)
        b = weighted_grid(3, 3, 3, 2)
        new_id = [dict(zip(a.vertices(), range(1, 16, 2))), dict(zip(b.vertices(), [*range(2, 17, 2), 17]))]
        attrs = [None] * (a.n + b.n)
        edges = []
        for part, ids in zip((a, b), new_id):
            for v, t in enumerate(triples(part), 1):
                attrs[ids[v] - 1] = t
            edges += [tuple(sorted((ids[u], ids[v]))) for u, v in part.edges]
        union = Instance(a.n + b.n, tuple(attrs), tuple(sorted(edges)))
        for k in (2, 3):
            alone = [baker_solve(part, k, model) for part in (a, b)]
            res = baker_solve(union, k, model)
            renumbered = [
                line.replace("component=0", f"component={i}")
                for i, part in enumerate(alone)
                for line in part.comments
            ]
            assert res.comments == renumbered
            assert res.solution.cost == sum(part.solution.cost for part in alone)
            assert verify_solution(union, res.solution, model).passed

    def test_feasible_even_off_planar(self):
        for seed in range(15):
            inst = random_instance(8, 0.5, 3, 3, 3, seed)
            res = baker_solve(inst, 3, UNSPLIT)
            assert verify_solution(inst, res.solution, UNSPLIT).passed

    def test_shift_costs_recorded_per_shift(self, p3):
        res = baker_solve(p3, 3, UNSPLIT)
        assert res.comments == shift_lines([[3, 3, 3]])

    def test_shifts_stop_at_bfs_depth(self, baker_shifts):
        # One level: every shift r cuts the vertex as the same single band,
        # so r = 0 is the only one solved.
        res = baker_solve(mk([(2, 1, 1)]), 5, UNSPLIT)
        assert res.comments == shift_lines([[2]])
        assert baker_shifts == [0]

    def test_every_shift_merges_feasibly(self):
        inst = grid_instance(3, 4, attr=(1, 2, 1))
        (levels,) = components(inst)
        for k in (2, 3):
            for r in range(k):
                pairs = []
                for sub, orig_of in make_slices(inst, levels, k, r):
                    td = heuristic_decomposition(sub)
                    pairs.append((orig_of, solve_td(sub, make_nice(td), UNSPLIT)))
                merged = merge_solutions(inst, pairs)
                assert verify_solution(inst, merged, UNSPLIT).passed


def weighted_grid(rows, cols, c, d):
    """A rows x cols grid with weights 4..7 and capacity c, demand d."""
    edges = grid_instance(rows, cols).edges
    return mk([(4 + v * 5 % 4, c, d) for v in range(1, rows * cols + 1)], edges)


class TestDemandCap:
    # (rows, cols, c, d, k): every demand capped, and 4 of 12 capped
    @pytest.mark.parametrize("rows, cols, c, d, k", [(4, 5, 1, 1, 2), (4, 5, 1, 1, 3), (3, 4, 2, 4, 2)])
    def test_shift_costs_equal_uncapped_slices(self, rows, cols, c, d, k):
        inst = weighted_grid(rows, cols, c, d)
        assert tddp.cap_demands(inst)[1]
        (levels,) = components(inst)
        res = baker_solve(inst, k, SPLIT)
        assert verify_solution(inst, res.solution, SPLIT).passed
        uncapped = [
            sum(
                solve_td(sub, make_nice(heuristic_decomposition(sub)), SPLIT).cost
                for sub, _ in make_slices(inst, levels, k, r)
            )
            for r in range(k)
        ]
        assert res.comments == shift_lines([uncapped])

    def test_band_cap_is_input_cap_on_kept_vertices(self):
        # N[v] of a kept vertex lies inside its band and ids keep their
        # order, so capping each band equals capping the input once
        capped_bands = 0
        for seed in range(120):
            inst = random_instance(2 + seed % 29, (0.1, 0.2, 0.4)[seed % 3], 5, 4, 12, seed)
            demands, routed = tddp.cap_demands(inst)
            for levels in components(inst):
                level = level_of(levels)
                for k in (2, 3, 4):
                    for r in range(k):
                        bands = zip(make_slices(inst, levels, k, r), band_bounds(levels, k, r), strict=True)
                        for (sub, orig), (low, high) in bands:
                            kept = {v for v in orig if low < level[v] < high}
                            band, band_routed = tddp.cap_demands(sub)
                            capped_bands += bool(band_routed)
                            for v in sub.vertices():
                                want = demands.demands[orig[v - 1]] if orig[v - 1] in kept else 0
                                assert band.demands[v] == want
                            assert {(orig[c - 1], orig[s - 1]): t for (c, s), t in band_routed.items()} == {
                                key: t for key, t in routed.items() if key[0] in kept
                            }
        assert capped_bands > 2000

    def test_unit_capacity_grid_builds_no_table(self, monkeypatch):
        # c = 1 gives B(v) = 0 everywhere, so every demand is set aside
        calls = []
        solve_td_of = tddp.solve_td
        monkeypatch.setattr(tddp, "solve_td", lambda *args: calls.append(args) or solve_td_of(*args))
        inst = weighted_grid(10, 10, 1, 1)
        res = baker_solve(inst, 3, SPLIT)
        assert calls == []
        assert verify_solution(inst, res.solution, SPLIT).passed
