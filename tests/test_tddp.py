import dataclasses
import itertools
import random
import time
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capdom import tddp, treewidth
from capdom.core import (
    DemandModel,
    InfeasibleInstance,
    Instance,
    VertexAttrs,
    ceil_div,
    random_instance,
    verify_solution,
)
from capdom.oracle import exact_splittable, exact_unsplittable
from capdom.tddp import (
    DPRow,
    DPTable,
    EmptyTable,
    decode_key,
    dp_forget,
    dp_introduce,
    dp_join,
    dp_leaf,
    choose_decomposition,
    encode_key,
    layout,
    predicted_work,
    solve_td,
)
from capdom.treewidth import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    bfs_order,
    decomposition_from_order,
    heuristic_decomposition,
    make_nice,
)

from conftest import grid_instance, mk, path_instance, small_instances

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


def nice_for(inst):
    return make_nice(heuristic_decomposition(inst))


@dataclasses.dataclass
class TupleTable:
    """A DP table keyed by (residuals, spares) tuples, as the references
    build and read them."""

    model: DemandModel
    bag: tuple
    rows: dict


def decoded(table, kids=()):
    """`table` with tuple keys, its back-pointers decoded with the bags of
    the child tables `kids`."""
    rows = {}
    for key, row in table.rows.items():
        prev = tuple(decode_key(kid, p) for kid, p in zip(kids, row.prev))
        rows[decode_key(table, key)] = DPRow(row.cost, row.triples, prev)
    return TupleTable(table.model, table.bag, rows)


def table_of(inst, model, bag, rows):
    """An int-keyed table over `bag` holding `rows`, keyed by tuple pairs."""
    table = DPTable(model, bag, {}, layout(inst, bag))
    for (state, rc), row in rows.items():
        table.rows[encode_key(table, state, rc)] = row
    return table


def row_at(table, state, rc):
    return table.rows[encode_key(table, state, rc)]


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
    rows = {}
    for k1 in sorted(left.rows):
        state1, rc1 = k1
        for k2 in sorted(right.rows):
            state2, rc2 = k2
            # residuals left by both sides; negative where d is served twice over
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
    return TupleTable(left.model, vs, rows)


def _dedup_stage(rows, expand):
    """Apply one micro-transition, keeping the cheapest row per configuration.

    Rows are visited in sorted key order and a candidate replaces a row only
    when strictly cheaper, so ties keep the first candidate offered.
    """
    out = {}
    for key in sorted(rows):
        cost, triples, origin = rows[key]
        for new_key, dcost, dtriples in expand(key):
            candidate = (cost + dcost, triples + dtriples, origin)
            old = out.get(new_key)
            if old is None or candidate[0] < old[0]:
                out[new_key] = candidate
    return out


def reference_introduce(inst, child, v, bag):
    """Introduce with one generator per micro-transition and no shortcuts.

    Slow reference for `dp_introduce`, which must build exactly this table.
    Every pull stage runs, even for a neighbor without demand, and every
    ceiling goes through `ceil_div`.
    """
    new_bag = tuple(sorted(set(child.bag) | {v}))
    if tuple(sorted(bag)) != new_bag:
        raise ValueError("bag must be the child bag plus the introduced vertex")
    idx = new_bag.index(v)
    nbrs = inst.neighbors(v)
    cv, wv, dv = inst.capacity(v), inst.weight(v), inst.demand(v)
    unsplit = child.model is DemandModel.UNSPLITTABLE
    server_pos = [
        (pos, u)
        for pos, u in enumerate(new_bag)
        if (u == v or u in nbrs) and inst.capacity(u) > 0
    ]

    rows = {}
    for key in sorted(child.rows):
        state, rc = key
        row = child.rows[key]
        seeded = (state[:idx] + (dv,) + state[idx:], rc[:idx] + (0,) + rc[idx:])
        old = rows.get(seeded)
        if old is None or row.cost < old[0]:
            rows[seeded] = (row.cost, (), key)

    if cv > 0:
        for pos, u in enumerate(new_bag):
            if u == v or u not in nbrs:
                continue

            if unsplit:
                def pull(key, pos=pos, u=u, du=inst.demand(u)):
                    state, rc = key
                    yield key, 0, ()
                    if du > 0 and state[pos] == du:
                        spare = rc[idx]
                        dcost = wv * ceil_div(max(0, du - spare), cv)
                        rc2 = rc[:idx] + ((spare - du) % cv,) + rc[idx + 1 :]
                        state2 = state[:pos] + (0,) + state[pos + 1 :]
                        yield (state2, rc2), dcost, ((u, v, du),)
            else:
                def pull(key, pos=pos, u=u):
                    state, rc = key
                    yield key, 0, ()
                    spare = rc[idx]
                    for take in range(1, state[pos] + 1):
                        dcost = wv * ceil_div(max(0, take - spare), cv)
                        rc2 = rc[:idx] + ((spare - take) % cv,) + rc[idx + 1 :]
                        state2 = state[:pos] + (state[pos] - take,) + state[pos + 1 :]
                        yield (state2, rc2), dcost, ((u, v, take),)

            rows = _dedup_stage(rows, pull)

    if unsplit:
        def route(key):
            state, rc = key
            yield key, 0, ()
            if state[idx] == 0:
                return
            served = state[:idx] + (0,) + state[idx + 1 :]
            for pos, s in server_pos:
                cs = inst.capacity(s)
                spare = rc[pos]
                dcost = inst.weight(s) * ceil_div(max(0, dv - spare), cs)
                rc2 = rc[:pos] + ((spare - dv) % cs,) + rc[pos + 1 :]
                yield (served, rc2), dcost, ((v, s, dv),)

        rows = _dedup_stage(rows, route)
    else:
        for pos, s in server_pos:
            cs = inst.capacity(s)
            ws = inst.weight(s)

            def spread(key, pos=pos, s=s, cs=cs, ws=ws):
                state, rc = key
                yield key, 0, ()
                spare = rc[pos]
                for give in range(1, state[idx] + 1):
                    dcost = ws * ceil_div(max(0, give - spare), cs)
                    rc2 = rc[:pos] + ((spare - give) % cs,) + rc[pos + 1 :]
                    state2 = state[:idx] + (state[idx] - give,) + state[idx + 1 :]
                    yield (state2, rc2), dcost, ((v, s, give),)

            rows = _dedup_stage(rows, spread)

    table = TupleTable(child.model, new_bag, {})
    for key in sorted(rows):
        cost, triples, origin = rows[key]
        if key not in table.rows or cost < table.rows[key].cost:
            table.rows[key] = DPRow(cost, triples, (origin,))
    return table


def reference_forget(child, v):
    """Forget by splicing v's entries out of the tuple keys whose residual
    at v is 0, keeping the cheapest row per key; slow reference for
    `dp_forget`."""
    idx = child.bag.index(v)
    table = TupleTable(child.model, child.bag[:idx] + child.bag[idx + 1 :], {})
    for key in sorted(child.rows):
        state, rc = key
        if state[idx] == 0:
            new_key = (state[:idx] + state[idx + 1 :], rc[:idx] + rc[idx + 1 :])
            cost = child.rows[key].cost
            if new_key not in table.rows or cost < table.rows[new_key].cost:
                table.rows[new_key] = DPRow(cost, (), (key,))
    if not table.rows:
        raise EmptyTable(f"no configuration survives forgetting vertex {v}")
    return table


def weighted_instances(seeds, n_min, n_max, edge_prob=0.2, max_c=3, max_d=3):
    """Seeded instances with weights, capacities and demands from 0 up,
    zero weights included; n cycles through [n_min, n_max]."""
    for seed in seeds:
        n = n_min + seed % (n_max - n_min + 1)
        base = random_instance(n, edge_prob, 3, max_c, max_d, seed)
        rng = random.Random(seed)
        attrs = tuple(dataclasses.replace(a, weight=rng.randint(0, 3)) for a in base.attrs)
        yield Instance(base.n, attrs, base.edges)


def solve_checked(monkeypatch, name, reference, model, instances):
    """Solve every instance with tddp.<name> checked against `reference`
    on each call; returns the arguments of every call.  The reference
    reads the child tables decoded to tuple keys; the fast table is
    decoded, back-pointers with the child bags, before the comparison."""
    fast = getattr(tddp, name)
    calls = []

    def checked(*args):
        table = fast(*args)
        kids = [a for a in args if isinstance(a, DPTable)]
        expected = reference(*(decoded(a) if isinstance(a, DPTable) else a for a in args))
        assert table.bag == expected.bag
        assert list(decoded(table, kids).rows.items()) == list(expected.rows.items())
        calls.append(args)
        return table

    monkeypatch.setattr(tddp, name, checked)
    for inst in instances:
        sol = solve_td(inst, nice_for(inst), model)
        assert verify_solution(inst, sol, model).passed
    return calls


class TestLeaf:
    def test_two_rows_with_spare_capacity(self):
        # 3 copies hold demand 7, leaving 2 spare units in the last copy
        inst = mk([(2, 3, 7)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert row_at(table, (7,), (0,)).cost == 0
        assert row_at(table, (0,), (2,)).cost == 6
        assert len(table.rows) == 2

    def test_zero_demand_single_served_row(self):
        inst = mk([(1, 5, 0)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [encode_key(table, (0,), (0,))]
        assert row_at(table, (0,), (0,)).cost == 0

    def test_zero_capacity_only_unserved_row(self):
        inst = mk([(1, 0, 2), (1, 5, 0)], [(1, 2)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [encode_key(table, (2,), (0,))]

    def test_splittable_enumerates_portions(self):
        inst = mk([(1, 2, 3)])
        table = dp_leaf(inst, 1, SPLIT)
        # portions 0..3 of the demand self-served
        assert row_at(table, (3,), (0,)).cost == 0
        assert row_at(table, (2,), (1,)).cost == 1
        assert row_at(table, (0,), (1,)).cost == 2
        assert len(table.rows) == 4


class TestIntroduce:
    def test_spare_absorbs_then_buys(self):
        # child: u served with spare 2 of c(u)=5; introduce v with d=3 routed to u
        inst = mk([(1, 5, 8), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        assert row_at(child, (0,), (2,)).cost == 2
        table = dp_introduce(inst, child, 2, (1, 2))
        row = row_at(table, (0, 0), (4, 0))
        assert row.cost == 3  # one extra copy covers the deficit of 1
    def test_unassigned_carries_over(self):
        inst = mk([(1, 5, 0), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        table = dp_introduce(inst, child, 2, (1, 2))
        assert row_at(table, (0, 3), (0, 0)).cost == 0

    def test_spare_fully_absorbs(self):
        inst = mk([(1, 5, 2), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        assert row_at(child, (0,), (3,)).cost == 1
        table = dp_introduce(inst, child, 2, (1, 2))
        assert row_at(table, (0, 0), (0, 0)).cost == 1  # 3 spare units absorb d=3

    def test_vertex_already_in_bag_rejected(self):
        # re-introducing a bag vertex would give keys longer than the bag
        inst = mk([(1, 2, 1), (1, 2, 1)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        with pytest.raises(ValueError):
            dp_introduce(inst, child, 1, (1,))

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_introduce_equals_reference(self, model, monkeypatch):
        # weights, capacities and demands in [0,3], zero weights included
        instances = weighted_instances(range(60), 7, 12)
        calls = solve_checked(monkeypatch, "dp_introduce", reference_introduce, model, instances)
        assert len(calls) >= 500


class TestForget:
    def test_drops_unserved_rows(self):
        inst = mk([(2, 3, 7)])
        table = dp_forget(dp_leaf(inst, 1, UNSPLIT), 1)
        assert list(table.rows) == [encode_key(table, (), ())]
        assert row_at(table, (), ()).cost == 6

    def test_collision_keeps_cheaper(self):
        inst = mk([(1, 2, 2), (1, 4, 2)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        step = dp_introduce(inst, child, 2, (1, 2))
        table = dp_forget(step, 2)
        preimages = decoded(step).rows
        # every surviving configuration carries the minimum over its preimages
        assert all(
            row.cost == min(r.cost for k, r in preimages.items()
                            if k[0][1] == 0 and k[0][:1] == key[0] and k[1][:1] == key[1])
            for key, row in decoded(table).rows.items()
        )

    def test_empty_table_raised(self):
        inst = mk([(1, 0, 2), (1, 5, 0)], [(1, 2)])
        with pytest.raises(EmptyTable):
            dp_forget(dp_leaf(inst, 1, UNSPLIT), 1)

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_forget_equals_reference(self, model, monkeypatch):
        # weights, capacities and demands in [0,3], zero weights included
        instances = weighted_instances(range(60), 7, 12)
        calls = solve_checked(monkeypatch, "dp_forget", reference_forget, model, instances)
        assert len(calls) >= 500


class TestJoin:
    def test_spares_merge_into_refund(self):
        # one bag vertex with c=5, w=2; spares 3 and 4 fuse into one copy back
        inst = mk([(2, 5, 12)])
        left = dp_leaf(inst, 1, UNSPLIT)
        right = dp_leaf(inst, 1, UNSPLIT)
        # craft rows via self-serve: 12 -> 3 copies, spare 3; fake other side spare 4
        a = table_of(inst, UNSPLIT, (1,), {((0,), (3,)): DPRow(6, (), ())})
        b = table_of(inst, UNSPLIT, (1,), {((12,), (4,)): DPRow(4, (), ())})
        merged = dp_join(inst, a, b, (1,))
        row = row_at(merged, (0,), (2,))
        assert row.cost == 6 + 4 - 2  # refund w * floor((3+4)/5) = 2

    def test_zero_spares_no_refund(self):
        inst = mk([(2, 5, 12)])
        a = table_of(inst, UNSPLIT, (1,), {((0,), (0,)): DPRow(6, (), ())})
        b = table_of(inst, UNSPLIT, (1,), {((12,), (0,)): DPRow(4, (), ())})
        merged = dp_join(inst, a, b, (1,))
        assert row_at(merged, (0,), (0,)).cost == 10

    def test_incompatible_pairs_skipped(self):
        inst = mk([(2, 5, 12)])
        a = table_of(inst, UNSPLIT, (1,), {((0,), (0,)): DPRow(6, (), ())})
        merged = dp_join(inst, a, a, (1,))
        assert merged.rows == {}

    def test_zero_demand_overlap_combines(self):
        # vertex 1 has no demand, so both sides have it served (rd = 0);
        # vertex 2 has demand, so a side serving it only pairs with a side
        # that does not.  Both pairs reaching ((0, 0), ...) cost 5; the
        # sorted-first left key, which serves vertex 2, wins the tie.
        inst = mk([(1, 2, 0), (1, 2, 1)], [(1, 2)])
        a = table_of(inst, UNSPLIT, (1, 2), {
            ((0, 1), (0, 0)): DPRow(1, (), ()),
            ((0, 0), (0, 0)): DPRow(2, (), ()),
        })
        b = table_of(inst, UNSPLIT, (1, 2), {
            ((0, 1), (0, 0)): DPRow(3, (), ()),
            ((0, 0), (0, 0)): DPRow(4, (), ()),
        })
        merged = decoded(dp_join(inst, a, b, (1, 2)), (a, b))
        assert merged.rows == {
            ((0, 1), (0, 0)): DPRow(4, (), (((0, 1), (0, 0)), ((0, 1), (0, 0)))),
            ((0, 0), (0, 0)): DPRow(5, (), (((0, 0), (0, 0)), ((0, 1), (0, 0)))),
        }
        assert merged.rows == reference_join(inst, decoded(a), decoded(b), (1, 2)).rows

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_join_equals_reference(self, model, monkeypatch):
        # weights, capacities and demands in [0,3], zero weights included
        instances = weighted_instances(range(60), 7, 12)
        assert len(solve_checked(monkeypatch, "dp_join", reference_join, model, instances)) >= 100

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_large_demand_joins_equal_reference(self, model, monkeypatch):
        # Demands up to 8: split served amounts are packed in digits one bit
        # wider than the largest bag demand, so 4 bits for 4-7, 5 bits for 8.
        instances = weighted_instances(range(200, 220), 6, 6, edge_prob=0.3, max_c=1, max_d=8)
        calls = solve_checked(monkeypatch, "dp_join", reference_join, model, instances)
        peaks = {max(inst.demand(u) for u in left.bag) for inst, left, right, bag in calls}
        assert peaks & {4, 5, 6, 7} and 8 in peaks


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


def reference_rows(inst, u, model):
    """Rows a bag vertex multiplies a table by: served-states times spares."""
    d = inst.demand(u)
    states = (2 if d else 1) if model is UNSPLIT else d + 1
    return states * max(inst.capacity(u), 1)


class TestTableSizes:
    def _check_tables(self, model):
        # Every state entry is a residual in the model's domain, and each
        # table holds at most the rows `reference_predicted_work` counts.
        for seed in range(10):
            inst = random_instance(7, 0.4, 3, 3, 3, seed)
            ntd = nice_for(inst)
            tables = {}
            for node in ntd.post_order():
                kids = [tables[id(child)] for child in node.children]
                if node.kind == LEAF:
                    (v,) = node.bag
                    t = dp_leaf(inst, v, model)
                elif node.kind == INTRODUCE:
                    t = dp_introduce(inst, kids[0], node.vertex, tuple(sorted(node.bag)))
                elif node.kind == FORGET:
                    t = dp_forget(kids[0], node.vertex)
                else:
                    t = dp_join(inst, *kids, tuple(sorted(node.bag)))
                tables[id(node)] = t
                demands = [inst.demand(u) for u in t.bag]
                for state, rc in decoded(t).rows:
                    for r, d in zip(state, demands):
                        assert r in (0, d) if model is UNSPLIT else 0 <= r <= d
                    assert all(0 <= s < max(inst.capacity(u), 1) for s, u in zip(rc, t.bag))
                bound = 1
                for u in node.bag:
                    bound *= reference_rows(inst, u, model)
                assert len(t.rows) <= bound

    def test_unsplittable_bound_per_node(self):
        self._check_tables(UNSPLIT)

    def test_splittable_bound_per_node(self):
        self._check_tables(SPLIT)


def bfs_decomposition(inst):
    return decomposition_from_order(inst, bfs_order(inst))


def reference_predicted_work(inst, td, model):
    """The same prediction counted on the nodes of make_nice(td)."""

    def merges(u):
        d = inst.demand(u)
        pairs = (3 if d else 1) if model is UNSPLIT else (d + 1) * (d + 2) // 2
        return pairs * max(inst.capacity(u), 1) ** 2

    work = 0
    for node in make_nice(td).post_order():
        if node.kind == INTRODUCE:
            product = 1
            for u in node.bag:
                product *= reference_rows(inst, u, model)
            work += tddp.INTRODUCE_ROW_WORK * product
        elif node.kind == JOIN:
            product = 1
            for u in node.bag:
                product *= merges(u)
            work += product
    return work


# The grids of the decomposition comparison in ROADMAP.md (unit weights):
# (rows, cols, capacity, demand, model, order the measured DP time favors).
# Both orders have the same width on the first four.
CHOICE_GRIDS = [
    (3, 3, 3, 3, SPLIT, "bfs"),
    (4, 4, 2, 2, SPLIT, "bfs"),
    (5, 5, 2, 1, UNSPLIT, "bfs"),
    (3, 3, 2, 2, SPLIT, "bfs"),
    (3, 5, 3, 2, UNSPLIT, "min-fill"),
    (3, 6, 2, 2, SPLIT, "min-fill"),
]

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


# (weight, capacity, demand) draws as in `small_instances`
SMALL_ATTRS = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3))


@st.composite
def branching_instances(draw, max_n=7, attr=SMALL_ATTRS):
    """A random tree plus up to two more edges, so min-fill decompositions
    have joins; attributes drawn from `attr`."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return mk(draw(st.lists(attr, min_size=n, max_size=n)), sorted(edges))


def _cost(inst, td, model):
    try:
        sol = solve_td(inst, make_nice(td), model)
    except InfeasibleInstance:
        return None
    assert verify_solution(inst, sol, model).passed
    return sol.cost


class TestDecompositionChoice:
    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_prediction_matches_nice_nodes(self, model):
        for inst in weighted_instances(range(40), 1, 14, edge_prob=0.3):
            for td in (heuristic_decomposition(inst), bfs_decomposition(inst)):
                assert predicted_work(inst, td, model) == reference_predicted_work(inst, td, model)

    @pytest.mark.parametrize(
        "rows, cols, c, d, model, expected",
        CHOICE_GRIDS,
        ids=[f"{r}x{c}-{m.value}-c{cap}d{d}" for r, c, cap, d, m, _ in CHOICE_GRIDS],
    )
    def test_choice_on_grids(self, rows, cols, c, d, model, expected):
        inst = grid_instance(rows, cols, (1, c, d))
        candidates = {"min-fill": heuristic_decomposition(inst), "bfs": bfs_decomposition(inst)}
        assert candidates["min-fill"] != candidates["bfs"]
        assert choose_decomposition(inst, model) == candidates[expected]

    def test_exact_tie_keeps_min_fill(self, monkeypatch):
        inst = grid_instance(3, 3, (1, 2, 2))
        bfs = bfs_decomposition(inst)
        assert choose_decomposition(inst, SPLIT) == bfs
        # both candidates now score BFS's work, which no single BFS bag
        # reaches, so BFS is built in full and loses only on the tie
        work = predicted_work(inst, bfs, SPLIT)
        built = []
        monkeypatch.setattr(tddp, "predicted_work", lambda inst, td, model: built.append(td) or work)
        assert choose_decomposition(inst, SPLIT) == heuristic_decomposition(inst)
        assert built == [heuristic_decomposition(inst), bfs]

    @pytest.mark.parametrize("attr", [(1, 2, 2), (1, 0, 0)], ids=["c2d2", "c0d0"])
    @pytest.mark.parametrize("shape", ["star", "binary-tree"])
    def test_large_trees_abandon_bfs(self, shape, attr, monkeypatch):
        # BFS eliminates parents first, so each level of a tree fills into
        # a clique; built in full that takes about n^3/3 steps.  With
        # c = d = 0 every vertex has one row, so only the fill-in bound
        # stops it; otherwise one wide bag's rows do, within a few levels.
        n = 2000
        parent = (lambda v: 1) if shape == "star" else (lambda v: v // 2)
        inst = mk([attr] * n, [(parent(v), v) for v in range(2, n + 1)])
        min_fill = heuristic_decomposition(inst)
        assert min_fill.width == 1
        build = treewidth.decomposition_from_order
        bags_seen, abandoned = [], []

        def spy(inst, order, give_up=None):
            if give_up is None:  # the min-fill candidate
                return build(inst, order)

            def counted(bag, fill_work):
                bags_seen.append(len(bag))
                return give_up(bag, fill_work)

            try:
                return build(inst, order, counted)
            except treewidth.Abandoned:
                abandoned.append(len(bags_seen))
                raise

        monkeypatch.setattr(treewidth, "decomposition_from_order", spy)
        for model in (UNSPLIT, SPLIT):
            bags_seen.clear()
            started = time.perf_counter()
            assert choose_decomposition(inst, model) == min_fill
            assert time.perf_counter() - started < 10
            assert len(bags_seen) < 100
        assert len(abandoned) == 2

    @PROPERTY
    @given(inst=st.one_of(small_instances(), branching_instances()))
    def test_cost_does_not_depend_on_decomposition(self, inst):
        for model in (UNSPLIT, SPLIT):
            tds = (
                heuristic_decomposition(inst),
                bfs_decomposition(inst),
                choose_decomposition(inst, model),
            )
            costs = {_cost(inst, td, model) for td in tds}
            assert len(costs) == 1


def dp_cost(inst, model):
    return _cost(inst, choose_decomposition(inst, model), model)


def disjoint_union(a, b):
    """a on ids 1..a.n, then b shifted to a.n + 1..a.n + b.n."""
    shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
    return Instance(a.n + b.n, a.attrs + b.attrs, a.edges + shifted)


class TestMetamorphic:
    @PROPERTY
    @given(a=small_instances(max_n=5), b=small_instances(max_n=5))
    def test_disjoint_union_adds_optima(self, a, b):
        union = disjoint_union(a, b)
        for model in (UNSPLIT, SPLIT):
            parts = [dp_cost(a, model), dp_cost(b, model)]
            expected = None if None in parts else sum(parts)
            assert dp_cost(union, model) == expected

    @PROPERTY
    @given(inst=small_instances(), weight=st.integers(0, 4), spot=st.integers(0, 6))
    def test_isolated_zero_vertex_changes_nothing(self, inst, weight, spot):
        # a vertex with c = d = 0 and no edges, inserted as id `at`; the
        # ids from `at` up shift by one
        at = 1 + spot % (inst.n + 1)
        relabel = {v: v + (v >= at) for v in inst.vertices()}
        attrs = inst.attrs[: at - 1] + (VertexAttrs(weight, 0, 0),) + inst.attrs[at - 1 :]
        edges = tuple((relabel[u], relabel[v]) for u, v in inst.edges)
        grown = Instance(inst.n + 1, attrs, edges)
        for model in (UNSPLIT, SPLIT):
            assert dp_cost(grown, model) == dp_cost(inst, model)


# Demands up to 12 over capacities 1..3: most demands exceed their bound
# B(v), and the uncapped oracle still solves five vertices quickly.
CAPPED_ATTRS = st.tuples(st.integers(0, 4), st.integers(1, 3), st.integers(0, 12))


class TestDemandCap:
    def test_rule_on_a_path(self):
        # Vertex 2's servers: 1 (rate 4/2), 2 (3/3) and 3 (1/1).  The tie at
        # rate 1 goes to id 2, so u* = 2 and B = (lcm(2, 3) - 1) +
        # (lcm(1, 3) - 1) = 7: one copy of 2 (3 units) is set aside and 7
        # stay.  Vertex 1 has B = 5 >= d = 1 and keeps its demand.
        inst = mk([(4, 2, 1), (3, 3, 10), (1, 1, 0)], [(1, 2), (2, 3)])
        capped, routed = tddp.cap_demands(inst)
        assert routed == {(2, 2): 3}
        assert [a.demand for a in capped.attrs] == [1, 7, 0]
        assert (capped.edges, [a.weight for a in capped.attrs]) == (inst.edges, [4, 3, 1])

    def test_lone_server_takes_every_full_copy(self):
        # B = 0 with a single server: all whole copies are set aside
        inst = mk([(2, 3, 7), (5, 0, 0)], [(1, 2)])
        capped, routed = tddp.cap_demands(inst)
        assert routed == {(1, 1): 6} and capped.demand(1) == 1

    def test_nothing_capped_returns_the_instance(self):
        inst = grid_instance(3, 3, attr=(1, 2, 1))
        capped, routed = tddp.cap_demands(inst)
        assert capped is inst and routed == {}

    def test_unsplittable_is_not_capped(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tddp, "cap_demands", lambda inst: calls.append(inst))
        inst = mk([(2, 3, 7), (5, 1, 0)], [(1, 2)])
        assert tddp.solve(inst, UNSPLIT).cost == exact_unsplittable(inst).cost
        assert calls == []

    def test_no_demand_left_builds_no_table(self, monkeypatch):
        monkeypatch.setattr(tddp, "solve_td", None)  # any table build would fail
        inst = path_instance([(2, 1, 3), (4, 0, 0), (3, 1, 2)])
        sol = tddp.solve(inst, SPLIT)
        assert sol.assignment == {(1, 1): 3, (3, 3): 2} and sol.cost == 12

    @PROPERTY
    @given(inst=branching_instances(max_n=5, attr=CAPPED_ATTRS))
    def test_capped_optimum_plus_set_aside_is_optimum(self, inst):
        capped, routed = tddp.cap_demands(inst)
        set_aside = sum(amount // inst.capacity(u) * inst.weight(u) for (_, u), amount in routed.items())
        assert dp_cost(capped, SPLIT) + set_aside == exact_splittable(inst).cost

    @PROPERTY
    @given(inst=branching_instances(max_n=5, attr=CAPPED_ATTRS))
    def test_lifted_solution_is_a_verified_optimum(self, inst):
        sol = tddp.solve(inst, SPLIT)
        assert verify_solution(inst, sol, SPLIT).passed
        assert sol.cost == exact_splittable(inst).cost


@st.composite
def keyed_bags(draw):
    """An edgeless instance and an empty table over a bag of its vertices:
    demands 0..9 and capacities 0..4, so zero demands and capacities and
    demands of 8 and more all occur."""
    n = draw(st.integers(1, 6))
    attr = st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 9))
    inst = mk(draw(st.lists(attr, min_size=n, max_size=n)))
    bag = tuple(sorted(draw(st.sets(st.integers(1, n), max_size=4))))
    return inst, DPTable(draw(st.sampled_from([UNSPLIT, SPLIT])), bag, {}, layout(inst, bag))


def key_pairs(inst, bag):
    """(residuals, spares) pairs with every entry inside its radix."""
    return st.tuples(
        st.tuples(*(st.integers(0, inst.demand(u)) for u in bag)),
        st.tuples(*(st.integers(0, max(inst.capacity(u), 1) - 1) for u in bag)),
    )


class TestKeyLayout:
    @PROPERTY
    @given(bag=keyed_bags(), data=st.data())
    def test_round_trip_in_tuple_order(self, bag, data):
        inst, table = bag
        pairs = data.draw(st.lists(key_pairs(inst, table.bag), min_size=2, max_size=6))
        keys = [encode_key(table, *pair) for pair in pairs]
        assert [decode_key(table, key) for key in keys] == pairs
        for a, key_a in zip(pairs, keys):
            for b, key_b in zip(pairs, keys):
                assert (a < b) == (key_a < key_b)
        radices = [range(inst.demand(u) + 1) for u in table.bag]
        radices += [range(max(inst.capacity(u), 1)) for u in table.bag]
        if prod(map(len, radices)) <= 600:
            # every pair, in tuple order, encodes to 0, 1, 2, ... in turn
            k = len(table.bag)
            every = [encode_key(table, d[:k], d[k:]) for d in itertools.product(*radices)]
            assert every == list(range(table.places[0]))

    def test_out_of_radix_digit_rejected(self):
        inst = mk([(1, 2, 3)])
        table = dp_leaf(inst, 1, SPLIT)
        for state, rc in [((4,), (0,)), ((0,), (2,)), ((-1,), (0,)), ((0, 0), (0, 0))]:
            with pytest.raises(ValueError):
                encode_key(table, state, rc)

    @PROPERTY
    @given(bag=keyed_bags(), data=st.data())
    def test_introduce_inserts_two_digits(self, bag, data):
        # v has no neighbors, so the rows keeping its whole demand are
        # exactly the seeded ones: each child key with v's digits spliced in
        inst, child = bag
        outside = [u for u in inst.vertices() if u not in child.bag]
        assume(outside)
        v = data.draw(st.sampled_from(outside))
        pairs = data.draw(st.lists(key_pairs(inst, child.bag), unique=True, max_size=8))
        for cost, pair in enumerate(pairs):
            child.rows[encode_key(child, *pair)] = DPRow(cost, (), ())
        table = dp_introduce(inst, child, v, tuple(sorted(child.bag + (v,))))
        assert table.places == layout(inst, table.bag)
        idx, dv = table.bag.index(v), inst.demand(v)
        seeded = {
            (state[:idx] + (dv,) + state[idx:], rc[:idx] + (0,) + rc[idx:]): DPRow(cost, (), ((state, rc),))
            for cost, (state, rc) in enumerate(pairs)
        }
        rows = decoded(table, [child]).rows
        assert [(key, row) for key, row in rows.items() if key[0][idx] == dv] == sorted(seeded.items())

    @PROPERTY
    @given(bag=keyed_bags(), data=st.data())
    def test_forget_drops_two_digits(self, bag, data):
        inst, child = bag
        assume(child.bag)
        v = data.draw(st.sampled_from(child.bag))
        pairs = data.draw(st.lists(key_pairs(inst, child.bag), unique=True, min_size=1, max_size=8))
        for cost, pair in enumerate(pairs):
            child.rows[encode_key(child, *pair)] = DPRow(cost % 3, (), ())  # ties collide
        try:
            expected = reference_forget(decoded(child), v)
        except EmptyTable:
            with pytest.raises(EmptyTable):
                dp_forget(child, v)
            return
        table = dp_forget(child, v)
        assert table.places == layout(inst, expected.bag)
        assert list(decoded(table, [child]).rows.items()) == list(expected.rows.items())
