from fractions import Fraction

import pytest

from capdom import tddp
from capdom.baker import (
    Disconnected,
    MergeConflict,
    Slice,
    baker_solve,
    bfs_levels,
    make_slices,
    merge_solutions,
)
from capdom.core import (
    DemandModel,
    Solution,
    random_instance,
    verify_solution,
)
from capdom.oracle import exact_unsplittable
from capdom.tddp import solve_td
from capdom.treewidth import heuristic_decomposition, make_nice

from conftest import cycle_instance, grid_instance, mk, path_instance

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


class TestLevels:
    def test_path_levels(self, p3):
        levels = bfs_levels(p3, 1)
        assert levels.level == {1: 0, 2: 1, 3: 2}
        assert levels.num_levels == 3

    def test_star_levels(self):
        inst = mk([(1, 1, 1)] * 4, [(1, 2), (1, 3), (1, 4)])
        levels = bfs_levels(inst, 1)
        assert levels.level == {1: 0, 2: 1, 3: 1, 4: 1}

    def test_grid_corner_levels(self):
        inst = grid_instance(3, 3)
        levels = bfs_levels(inst, 1)
        expected = {
            1: 0, 2: 1, 3: 2,
            4: 1, 5: 2, 6: 3,
            7: 2, 8: 3, 9: 4,
        }
        assert levels.level == expected

    def test_disconnected_raises(self):
        inst = mk([(1, 1, 1)] * 3, [(1, 2)])
        with pytest.raises(Disconnected):
            bfs_levels(inst, 1)

    def test_edge_level_gap_at_most_one(self):
        for seed in range(20):
            inst = random_instance(9, 0.45, 3, 3, 3, seed)
            try:
                levels = bfs_levels(inst, 1)
            except Disconnected:
                continue
            for u, v in inst.edges:
                assert abs(levels.level[u] - levels.level[v]) <= 1


class TestSlices:
    @pytest.mark.parametrize("k,r", [(2, 0), (2, 1), (3, 0), (3, 2), (5, 4)])
    def test_structural_invariants(self, k, r):
        inst = grid_instance(3, 4, attr=(1, 2, 1))
        levels = bfs_levels(inst, 1)
        slices = make_slices(inst, levels, k, r)
        membership = {v: 0 for v in inst.vertices()}
        keepers = {v: 0 for v in inst.vertices()}
        for piece in slices:
            assert piece.high_level - piece.low_level == k + 1
            for orig in piece.orig_of:
                membership[orig] += 1
            for orig in piece.kept:
                keepers[orig] += 1
        assert all(1 <= membership[v] <= 2 for v in inst.vertices())
        assert all(keepers[v] == 1 for v in inst.vertices())

    def test_whole_graph_when_shift_covers_levels(self, p3):
        levels = bfs_levels(p3, 1)
        slices = make_slices(p3, levels, 5, 2)
        assert len(slices) == 1
        piece = slices[0]
        assert piece.instance == p3 and piece.zeroed == frozenset()

    def test_boundary_demands_zeroed(self):
        inst = path_instance([(1, 1, 1)] * 5)
        levels = bfs_levels(inst, 1)
        slices = make_slices(inst, levels, 2, 0)
        for piece in slices:
            for new_id, orig in enumerate(piece.orig_of, 1):
                if orig in piece.zeroed:
                    assert piece.instance.demand(new_id) == 0
                else:
                    assert piece.instance.demand(new_id) == inst.demand(orig)

    def test_five_level_band_spans(self):
        # path on 5 levels, k=2, r=0: bands over levels {0,1}, {0..3}, {2..4}
        inst = path_instance([(1, 1, 1)] * 5)
        levels = bfs_levels(inst, 1)
        slices = make_slices(inst, levels, 2, 0)
        spans = [
            sorted(levels.level[orig] for orig in piece.orig_of) for piece in slices
        ]
        assert spans == [[0, 1], [0, 1, 2, 3], [2, 3, 4]]
        zeroed_levels = [
            sorted(levels.level[orig] for orig in piece.zeroed) for piece in slices
        ]
        assert zeroed_levels == [[1], [0, 3], [2]]

    def test_slice_width_tracks_band_width(self):
        # recorded constant: heuristic slice width <= 2k on grid instances
        for rows, cols in [(3, 4), (4, 4), (3, 6)]:
            inst = grid_instance(rows, cols, attr=(1, 2, 1))
            levels = bfs_levels(inst, 1)
            for k in (2, 3, 5):
                for r in range(k):
                    for piece in make_slices(inst, levels, k, r):
                        width = heuristic_decomposition(piece.instance).width
                        assert width <= 2 * k


class TestMerge:
    def test_disjoint_slices_costs_add(self):
        inst = path_instance([(1, 1, 1)] * 4)
        levels = bfs_levels(inst, 1)
        slices = make_slices(inst, levels, 2, 1)
        pairs = []
        for piece in slices:
            td = heuristic_decomposition(piece.instance)
            pairs.append((piece, solve_td(piece.instance, make_nice(td), UNSPLIT)))
        merged = merge_solutions([(piece.orig_of, sol) for piece, sol in pairs])
        assert merged.cost == sum(sol.cost for _, sol in pairs)
        assert verify_solution(inst, merged, UNSPLIT).passed

    def test_double_buy_counts_twice(self):
        inst = path_instance([(1, 2, 1)] * 3)
        a = Slice(inst, (1, 2, 3), frozenset({1, 2}), frozenset({3}), 0, 3)
        b = Slice(inst, (1, 2, 3), frozenset({3}), frozenset({1, 2}), 2, 5)
        sol_a = Solution({2: 1}, {(1, 2): 1, (2, 2): 1}, 1)
        sol_b = Solution({2: 1}, {(3, 2): 1}, 1)
        merged = merge_solutions([(a.orig_of, sol_a), (b.orig_of, sol_b)])
        assert merged.multiplicity == {2: 2}
        assert merged.cost == 2

    def test_empty_list(self):
        merged = merge_solutions([])
        assert merged.cost == 0 and merged.multiplicity == {}

    def test_conflict_detected(self):
        inst = path_instance([(1, 2, 1)] * 3)
        a = Slice(inst, (1, 2, 3), frozenset({1}), frozenset({2, 3}), 0, 3)
        b = Slice(inst, (1, 2, 3), frozenset({1}), frozenset({2, 3}), 2, 5)
        sol = Solution({1: 1}, {(1, 1): 1}, 1)
        with pytest.raises(MergeConflict):
            merge_solutions([(a.orig_of, sol), (b.orig_of, sol)])


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
                levels = bfs_levels(inst, 1)
                if k >= levels.num_levels:
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
        assert len(res.shift_costs) == 2

    def test_feasible_even_off_planar(self):
        for seed in range(15):
            inst = random_instance(8, 0.5, 3, 3, 3, seed)
            res = baker_solve(inst, 3, UNSPLIT)
            assert verify_solution(inst, res.solution, UNSPLIT).passed

    def test_shift_costs_recorded_per_shift(self, p3):
        res = baker_solve(p3, 3, UNSPLIT)
        assert len(res.shift_costs) == 1 and len(res.shift_costs[0]) == 3

    def test_every_shift_merges_feasibly(self):
        inst = grid_instance(3, 4, attr=(1, 2, 1))
        levels = bfs_levels(inst, 1)
        for k in (2, 3):
            for r in range(k):
                pairs = []
                for piece in make_slices(inst, levels, k, r):
                    td = heuristic_decomposition(piece.instance)
                    pairs.append(
                        (piece, solve_td(piece.instance, make_nice(td), UNSPLIT))
                    )
                merged = merge_solutions([(piece.orig_of, sol) for piece, sol in pairs])
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
        levels = bfs_levels(inst, 1)
        res = baker_solve(inst, k, SPLIT)
        assert verify_solution(inst, res.solution, SPLIT).passed
        uncapped = [
            sum(
                solve_td(piece.instance, make_nice(heuristic_decomposition(piece.instance)), SPLIT).cost
                for piece in make_slices(inst, levels, k, r)
            )
            for r in range(k)
        ]
        assert res.shift_costs == [uncapped]

    def test_unit_capacity_grid_builds_no_table(self, monkeypatch):
        # c = 1 gives B(v) = 0 everywhere, so every demand is set aside
        calls = []
        solve_td_of = tddp.solve_td
        monkeypatch.setattr(tddp, "solve_td", lambda *args: calls.append(args) or solve_td_of(*args))
        inst = weighted_grid(10, 10, 1, 1)
        res = baker_solve(inst, 3, SPLIT)
        assert calls == []
        assert verify_solution(inst, res.solution, SPLIT).passed
