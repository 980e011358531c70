import dataclasses
import random

import pytest

from capdom import tddp
from capdom.core import (
    DemandModel,
    InfeasibleInstance,
    Instance,
    random_instance,
    verify_solution,
)
from capdom.oracle import exact_splittable, exact_unsplittable
from capdom.tddp import (
    DPRow,
    DPTable,
    EmptyTable,
    dp_forget,
    dp_introduce,
    dp_join,
    dp_leaf,
    solve_td,
)
from capdom.treewidth import (
    decomposition_from_order,
    heuristic_decomposition,
    make_nice,
)

from conftest import mk

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


def nice_for(inst):
    return make_nice(heuristic_decomposition(inst))


def reference_join(inst, left, right, bag=None):
    """The plain join over every pair of sorted row keys, one check per pair.

    Slow reference for `dp_join`, which must build exactly this table:
    the same keys in the same order, with the same costs and back-pointers.
    """
    if left.bag != right.bag or left.model is not right.model:
        raise ValueError("join needs sibling tables over the same bag and model")
    if bag is not None and tuple(sorted(bag)) != left.bag:
        raise ValueError("bag does not match the children")
    vs = left.bag
    caps = [inst.capacity(u) for u in vs]
    weights = [inst.weight(u) for u in vs]
    demands = [inst.demand(u) for u in vs]
    unsplit = left.model is DemandModel.UNSPLITTABLE
    rows = {}
    for k1 in sorted(left.rows):
        state1, rc1 = k1
        served1 = set(state1)
        for k2 in sorted(right.rows):
            state2, rc2 = k2
            if unsplit:
                overlap = served1 & set(state2)
                if any(demands[vs.index(u)] > 0 for u in overlap):
                    continue
                merged_state = tuple(sorted(served1 | set(state2)))
            else:
                merged = [a + b - d for a, b, d in zip(state1, state2, demands)]
                if any(x < 0 for x in merged):
                    continue
                merged_state = tuple(merged)
            refund = 0
            rc_merged = []
            for s1, s2, c, w in zip(rc1, rc2, caps, weights):
                if c > 0:
                    refund += w * ((s1 + s2) // c)
                    rc_merged.append((s1 + s2) % c)
                else:
                    rc_merged.append(0)
            key = (merged_state, tuple(rc_merged))
            cost = left.rows[k1].cost + right.rows[k2].cost - refund
            if key not in rows or cost < rows[key].cost:
                rows[key] = DPRow(cost, (), (k1, k2))
    return DPTable(left.model, vs, rows)


class TestLeaf:
    def test_two_rows_with_spare_capacity(self):
        # 3 copies hold demand 7, leaving 2 spare units in the last copy
        inst = mk([(2, 3, 7)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert table.rows[((), (0,))].cost == 0
        assert table.rows[((1,), (2,))].cost == 6
        assert len(table.rows) == 2

    def test_zero_demand_single_served_row(self):
        inst = mk([(1, 5, 0)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [((1,), (0,))]
        assert table.rows[((1,), (0,))].cost == 0

    def test_zero_capacity_only_unserved_row(self):
        inst = mk([(1, 0, 2), (1, 5, 0)], [(1, 2)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [((), (0,))]

    def test_splittable_enumerates_portions(self):
        inst = mk([(1, 2, 3)])
        table = dp_leaf(inst, 1, SPLIT)
        # portions 0..3 of the demand self-served
        assert table.rows[((3,), (0,))].cost == 0
        assert table.rows[((2,), (1,))].cost == 1
        assert table.rows[((0,), (1,))].cost == 2
        assert len(table.rows) == 4


class TestIntroduce:
    def test_spare_absorbs_then_buys(self):
        # child: u served with spare 2 of c(u)=5; introduce v with d=3 routed to u
        inst = mk([(1, 5, 8), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        assert child.rows[((1,), (2,))].cost == 2
        table = dp_introduce(inst, child, 2, (1, 2))
        row = table.rows[((1, 2), (4, 0))]
        assert row.cost == 3  # one extra copy covers the deficit of 1
    def test_unassigned_carries_over(self):
        inst = mk([(1, 5, 0), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        table = dp_introduce(inst, child, 2, (1, 2))
        assert table.rows[((1,), (0, 0))].cost == 0

    def test_spare_fully_absorbs(self):
        inst = mk([(1, 5, 2), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        assert child.rows[((1,), (3,))].cost == 1
        table = dp_introduce(inst, child, 2, (1, 2))
        assert table.rows[((1, 2), (0, 0))].cost == 1  # 3 spare units absorb d=3


class TestForget:
    def test_drops_unserved_rows(self):
        inst = mk([(2, 3, 7)])
        table = dp_forget(dp_leaf(inst, 1, UNSPLIT), 1)
        assert list(table.rows) == [((), ())]
        assert table.rows[((), ())].cost == 6

    def test_collision_keeps_cheaper(self):
        inst = mk([(1, 2, 2), (1, 4, 2)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        step = dp_introduce(inst, child, 2, (1, 2))
        table = dp_forget(step, 2)
        # every surviving configuration carries the minimum over its preimages
        assert all(
            row.cost == min(r.cost for k, r in step.rows.items()
                            if 2 in k[0] and tuple(u for u in k[0] if u != 2) == key[0]
                            and k[1][:1] == key[1])
            for key, row in table.rows.items()
        )

    def test_empty_table_raised(self):
        inst = mk([(1, 0, 2), (1, 5, 0)], [(1, 2)])
        with pytest.raises(EmptyTable):
            dp_forget(dp_leaf(inst, 1, UNSPLIT), 1)


class TestJoin:
    def test_spares_merge_into_refund(self):
        # one bag vertex with c=5, w=2; spares 3 and 4 fuse into one copy back
        inst = mk([(2, 5, 12)])
        left = dp_leaf(inst, 1, UNSPLIT)
        right = dp_leaf(inst, 1, UNSPLIT)
        # craft rows via self-serve: 12 -> 3 copies, spare 3; fake other side spare 4
        from capdom.tddp import DPRow, DPTable

        a = DPTable(UNSPLIT, (1,), {((1,), (3,)): DPRow(6, (), ())})
        b = DPTable(UNSPLIT, (1,), {((), (4,)): DPRow(4, (), ())})
        merged = dp_join(inst, a, b, (1,))
        row = merged.rows[((1,), (2,))]
        assert row.cost == 6 + 4 - 2  # refund w * floor((3+4)/5) = 2

    def test_zero_spares_no_refund(self):
        from capdom.tddp import DPRow, DPTable

        inst = mk([(2, 5, 12)])
        a = DPTable(UNSPLIT, (1,), {((1,), (0,)): DPRow(6, (), ())})
        b = DPTable(UNSPLIT, (1,), {((), (0,)): DPRow(4, (), ())})
        merged = dp_join(inst, a, b, (1,))
        assert merged.rows[((1,), (0,))].cost == 10

    def test_incompatible_pairs_skipped(self):
        from capdom.tddp import DPRow, DPTable

        inst = mk([(2, 5, 12)])
        a = DPTable(UNSPLIT, (1,), {((1,), (0,)): DPRow(6, (), ())})
        merged = dp_join(inst, a, a, (1,))
        assert merged.rows == {}

    def test_zero_demand_overlap_combines(self):
        # vertex 1 has no demand, so both sides may mark it served; vertex 2
        # has demand, so a side serving it only pairs with a side that does not
        inst = mk([(1, 2, 0), (1, 2, 1)], [(1, 2)])
        a = DPTable(UNSPLIT, (1, 2), {
            ((1,), (0, 0)): DPRow(1, (), ()),
            ((1, 2), (0, 0)): DPRow(2, (), ()),
        })
        b = DPTable(UNSPLIT, (1, 2), {
            ((1,), (0, 0)): DPRow(3, (), ()),
            ((1, 2), (0, 0)): DPRow(4, (), ()),
        })
        merged = dp_join(inst, a, b, (1, 2))
        assert merged.rows == {
            ((1,), (0, 0)): DPRow(4, (), (((1,), (0, 0)), ((1,), (0, 0)))),
            ((1, 2), (0, 0)): DPRow(5, (), (((1,), (0, 0)), ((1, 2), (0, 0)))),
        }
        assert merged.rows == reference_join(inst, a, b, (1, 2)).rows

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_join_equals_reference(self, model, monkeypatch):
        # weights, capacities and demands in [0,3], zero weights included
        fast = tddp.dp_join
        joins = 0

        def checked(inst, left, right, bag=None):
            nonlocal joins
            table = fast(inst, left, right, bag)
            expected = reference_join(inst, left, right, bag)
            assert list(table.rows.items()) == list(expected.rows.items())
            joins += 1
            return table

        monkeypatch.setattr(tddp, "dp_join", checked)
        for seed in range(60):
            base = random_instance(7 + seed % 6, 0.2, 3, 3, 3, seed)
            rng = random.Random(seed)
            attrs = tuple(dataclasses.replace(a, weight=rng.randint(0, 3)) for a in base.attrs)
            inst = Instance(base.n, attrs, base.edges)
            sol = solve_td(inst, nice_for(inst), model)
            assert verify_solution(inst, sol, model).passed
        assert joins >= 100


class TestSolve:
    def test_p3_unsplittable(self, p3):
        sol = solve_td(p3, nice_for(p3), UNSPLIT)
        assert sol.cost == 3
        assert verify_solution(p3, sol, UNSPLIT).passed

    def test_single_vertex(self):
        inst = mk([(2, 3, 7)])
        assert solve_td(inst, nice_for(inst), UNSPLIT).cost == 6

    def test_pair_splittable(self):
        inst = mk([(1, 2, 3), (1, 2, 0)], [(1, 2)])
        sol = solve_td(inst, nice_for(inst), SPLIT)
        assert sol.cost == 2
        assert verify_solution(inst, sol, SPLIT).passed

    def test_infeasible_raises(self):
        inst = mk([(1, 0, 2)])
        with pytest.raises(InfeasibleInstance):
            solve_td(inst, nice_for(inst), UNSPLIT)

    def test_matches_oracle_unsplittable(self):
        for seed in range(60):
            n = 2 + seed % 8
            inst = random_instance(n, 0.35, 3, 3, 3, seed)
            sol = solve_td(inst, nice_for(inst), UNSPLIT)
            assert sol.cost == exact_unsplittable(inst).cost
            assert verify_solution(inst, sol, UNSPLIT).passed

    def test_matches_oracle_splittable(self):
        for seed in range(40):
            n = 2 + seed % 7
            inst = random_instance(n, 0.3, 3, 3, 3, seed)
            sol = solve_td(inst, nice_for(inst), SPLIT)
            assert sol.cost == exact_splittable(inst).cost
            assert verify_solution(inst, sol, SPLIT).passed

    def test_cost_invariant_under_decomposition(self):
        for seed in range(20):
            n = 3 + seed % 6
            inst = random_instance(n, 0.4, 3, 3, 3, seed)
            forward = decomposition_from_order(inst, list(inst.vertices()))
            backward = decomposition_from_order(inst, list(reversed(list(inst.vertices()))))
            cost_f = solve_td(inst, make_nice(forward), UNSPLIT).cost
            cost_b = solve_td(inst, make_nice(backward), UNSPLIT).cost
            assert cost_f == cost_b == exact_unsplittable(inst).cost


class TestTableSizes:
    def test_unsplittable_bound_per_node(self):
        from capdom.tddp import DPTable
        from capdom.treewidth import FORGET, INTRODUCE, LEAF

        for seed in range(10):
            inst = random_instance(7, 0.4, 3, 3, 3, seed)
            ntd = nice_for(inst)
            tables = {}
            for node in ntd.post_order():
                if node.kind == LEAF:
                    (v,) = node.bag
                    t = dp_leaf(inst, v, UNSPLIT)
                elif node.kind == INTRODUCE:
                    t = dp_introduce(
                        inst, tables[id(node.children[0])], node.vertex,
                        tuple(sorted(node.bag)),
                    )
                elif node.kind == FORGET:
                    t = dp_forget(tables[id(node.children[0])], node.vertex)
                else:
                    t = dp_join(
                        inst,
                        tables[id(node.children[0])],
                        tables[id(node.children[1])],
                        tuple(sorted(node.bag)),
                    )
                tables[id(node)] = t
                bound = 2 ** len(node.bag)
                for u in node.bag:
                    bound *= max(inst.capacity(u), 1)
                assert len(t.rows) <= bound
