import dataclasses
import itertools
import random
import time
import weakref
from math import prod
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capdom import tddp, treewidth
from capdom.core import (
    DemandModel,
    InfeasibleInstance,
    Instance,
    ceil_div,
    random_instance,
    verify_solution,
)
from capdom.oracle import exact_splittable, exact_unsplittable
from capdom.tddp import (
    DPTable,
    dp_forget,
    dp_introduce,
    dp_join,
    dp_leaf,
    choose_decomposition,
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
    project_nice,
)

from conftest import grid_instance, mk, partial_two_tree, path_instance, small_instances, triples

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


def nice_for(inst):
    return make_nice(heuristic_decomposition(inst))


class DPRow(NamedTuple):
    """A decoded table row with named fields: its cost, the triples it
    routes and the child keys it came from.  Kernels write flat tuples
    (cost, triple, *sources), which `decoded` turns into these."""

    cost: int
    triples: tuple
    prev: tuple


@dataclasses.dataclass
class TupleTable:
    """A DP table keyed by (residuals, spares) tuples, as the references
    build and read them."""

    model: DemandModel
    bag: tuple
    rows: dict


def encode_key(table: DPTable, state: tuple[int, ...], rc: tuple[int, ...]) -> int:
    """The key of residuals `state` and spares `rc` over the table's bag."""
    places, digits = table.places, state + rc
    if len(rc) != len(state) or len(digits) + 1 != len(places):
        raise ValueError("a key has one residual and one spare per bag vertex")
    if any(not 0 <= x < hi // lo for x, hi, lo in zip(digits, places, places[1:])):
        raise ValueError("a key digit is outside its radix")
    return sum(x * lo for x, lo in zip(digits, places[1:]))


def decode_key(table: DPTable, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (residuals, spares) pair that `key` encodes."""
    places, k = table.places, len(table.bag)
    digits = tuple(key % hi // lo for hi, lo in zip(places, places[1:]))
    return digits[:k], digits[k:]


def decoded(table, kids=()):
    """`table` with tuple keys.  Given the child tables `kids`, each row's
    prev rows become the child keys they sit under, matched by identity.
    A join row points at one row of each child.  An introduce or forget row
    is a child row itself or a chain of forget moves back to one: its
    triples are collected along the chain in stage order.  Without `kids`,
    prev is empty."""
    keys = [{id(row): key for key, row in kid.rows.items()} for kid in kids]
    rows = {}
    for key, row in table.rows.items():
        cost, triple, *sources = row
        triples = (triple,) if triple else ()
        if len(kids) == 1:
            triples = ()
            while id(row) not in keys[0]:
                _, triple, row = row
                assert triple, "a step that routes nothing reuses its row"
                triples = (triple,) + triples
            sources = (row,)
        prev = tuple(decode_key(kid, index[id(p)]) for kid, index, p in zip(kids, keys, sources))
        rows[decode_key(table, key)] = DPRow(cost, triples, prev)
    return TupleTable(table.model, table.bag, rows)


def table_of(inst, model, bag, rows):
    """An int-keyed table over `bag` holding `rows`, keyed by tuple pairs."""
    table = DPTable(model, bag, {}, layout(inst, bag))
    for (state, rc), row in rows.items():
        table.rows[encode_key(table, state, rc)] = row
    return table


def row_at(table, state, rc):
    return decoded(table).rows[state, rc]


def reference_leaf(inst, v, model):
    """The one leaf row: v unserved, with no copies bought.  Slow reference
    for `dp_leaf`, keyed like it; the row routes no triple and has no
    source rows, since v's demand is routed when v is forgotten."""
    table = DPTable(model, (v,), {}, layout(inst, (v,)))
    table.rows[encode_key(table, (inst.demands[v],), (0,))] = (0, None)
    return table


def reference_join(inst, left, right):
    """The plain join over every pair of sorted row keys, one check per pair.

    Slow reference for `dp_join`, which must build exactly this table:
    the same keys in the same order, with the same costs and prev keys.
    """
    if left.bag != right.bag or left.model is not right.model:
        raise ValueError("join needs sibling tables over the same bag and model")
    vs = left.bag
    caps = [inst.capacities[u] for u in vs]
    weights = [inst.weights[u] for u in vs]
    demands = [inst.demands[u] for u in vs]
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


def reference_introduce(inst, child, v):
    """Introduce by splicing v's entries into the tuple keys: v unserved
    with spare 0, one row per child row, in the child's order.  Slow
    reference for `dp_introduce`, which must build exactly this table."""
    if v in child.bag:
        raise ValueError(f"vertex {v} is already in the child bag")
    new_bag = tuple(sorted(child.bag + (v,)))
    idx = new_bag.index(v)
    table = TupleTable(child.model, new_bag, {})
    for (state, rc), row in child.rows.items():
        key = (state[:idx] + (inst.demands[v],) + state[idx:], rc[:idx] + (0,) + rc[idx:])
        table.rows[key] = DPRow(row.cost, (), ((state, rc),))
    return table


def reference_route(inst, rows, bag, v, model, pulls_first=False):
    """v's routing stages over tuple-keyed `rows` on `bag`, one generator
    per micro-transition and no shortcuts: v's residual goes to the
    positive-capacity vertices of N[v] in the bag, then v serves each bag
    neighbor, or the other way round with `pulls_first`.  No row is
    dropped, not even one that leaves v's demand unrouted: `cut` drops
    those.  Every pull stage runs, even for a neighbor without demand, and
    every ceiling goes through `ceil_div`.  Rows are (cost, triples, origin)."""
    idx = bag.index(v)
    nbrs = inst.adj[v]
    cv, wv, dv = inst.capacities[v], inst.weights[v], inst.demands[v]
    unsplit = model is DemandModel.UNSPLITTABLE
    server_pos = [
        (pos, u)
        for pos, u in enumerate(bag)
        if (u == v or u in nbrs) and inst.capacities[u] > 0
    ]
    routes, pulls = [], []

    if unsplit:
        def route(key):
            state, rc = key
            yield key, 0, ()
            if state[idx] == 0:
                return
            served = state[:idx] + (0,) + state[idx + 1 :]
            for pos, s in server_pos:
                cs = inst.capacities[s]
                spare = rc[pos]
                dcost = inst.weights[s] * ceil_div(max(0, dv - spare), cs)
                rc2 = rc[:pos] + ((spare - dv) % cs,) + rc[pos + 1 :]
                yield (served, rc2), dcost, ((v, s, dv),)

        routes.append(route)
    else:
        for pos, s in server_pos:
            cs = inst.capacities[s]
            ws = inst.weights[s]

            def spread(key, pos=pos, s=s, cs=cs, ws=ws):
                state, rc = key
                yield key, 0, ()
                spare = rc[pos]
                for give in range(1, state[idx] + 1):
                    dcost = ws * ceil_div(max(0, give - spare), cs)
                    rc2 = rc[:pos] + ((spare - give) % cs,) + rc[pos + 1 :]
                    state2 = state[:idx] + (state[idx] - give,) + state[idx + 1 :]
                    yield (state2, rc2), dcost, ((v, s, give),)

            routes.append(spread)

    if cv > 0:
        for pos, u in enumerate(bag):
            if u == v or u not in nbrs:
                continue

            if unsplit:
                def pull(key, pos=pos, u=u, du=inst.demands[u]):
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

            pulls.append(pull)

    for stage in pulls + routes if pulls_first else routes + pulls:
        rows = _dedup_stage(rows, stage)
    return rows


def seeded(table):
    """A table's rows as (cost, triples, origin), each its own origin."""
    return {key: (row.cost, (), key) for key, row in table.rows.items()}


def cut(model, bag, rows, v):
    """The rows with residual 0 at v, v's entries cut out of their keys,
    keeping the cheapest row per key (the first in sorted order on ties);
    `rows` hold (cost, triples, origin).  Raises when no row survives."""
    idx = bag.index(v)
    table = TupleTable(model, bag[:idx] + bag[idx + 1 :], {})
    for key in sorted(rows):
        state, rc = key
        if state[idx] == 0:
            new_key = (state[:idx] + state[idx + 1 :], rc[:idx] + rc[idx + 1 :])
            cost, triples, origin = rows[key]
            if new_key not in table.rows or cost < table.rows[new_key].cost:
                table.rows[new_key] = DPRow(cost, triples, (origin,))
    if not table.rows:
        raise InfeasibleInstance(f"no configuration survives forgetting vertex {v}")
    return table


def reference_forget(inst, child, v):
    """Forget by routing v's edges with `reference_route`, then cutting v
    out of the rows that route all of its demand.  Slow reference for
    `dp_forget`, which must build exactly this table."""
    rows = reference_route(inst, seeded(child), child.bag, v, child.model)
    return cut(child.model, child.bag, rows, v)


def introduce_time_cost(inst, ntd, model):
    """The optimum with routing at introduce nodes, as the DP routed before
    it moved to forget nodes: each leaf and introduce runs v's stages over
    its new bag, so an edge is routed at the introduce of its later
    endpoint in every branch holding both, and a forget only cuts v out.
    None when no row survives a forget."""
    tables = {}
    for node in ntd.post_order():
        kids = [tables[id(child)] for child in node.children]
        if node.kind == JOIN:
            table = reference_join(inst, *kids)
        elif node.kind == FORGET:
            try:
                table = cut(model, kids[0].bag, seeded(kids[0]), node.vertex)
            except InfeasibleInstance:
                return None
        else:
            (v,) = node.bag if node.kind == LEAF else (node.vertex,)
            child = kids[0] if kids else TupleTable(model, (), {((), ()): DPRow(0, (), ())})
            spliced = reference_introduce(inst, child, v)
            rows = reference_route(inst, seeded(spliced), spliced.bag, v, model)
            table = TupleTable(model, spliced.bag, {key: DPRow(*row) for key, row in rows.items()})
        tables[id(node)] = table
    return tables[id(ntd.root)].rows[((), ())].cost


def routed(inst, child, v):
    """The rows `dp_forget(inst, child, v)` builds before it cuts v out, as
    a tuple-keyed table over the child's bag: the last stage's output, or
    the child's rows when no stage runs, decoded against the child.  Rows
    that leave v's demand unrouted are never built: once v has demand, its
    residual is 0 in every row."""
    stage, outputs = tddp._stage, [child.rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tddp, "_stage", lambda *args, **kw: outputs.append(stage(*args, **kw)) or outputs[-1])
        try:
            dp_forget(inst, child, v)
        except InfeasibleInstance:
            pass
    return decoded(DPTable(child.model, child.bag, outputs[-1], child.places), [child])


def weighted_instances(seeds, n_min, n_max, edge_prob=0.2, max_c=3, max_d=3):
    """Seeded instances with weights, capacities and demands from 0 up,
    zero weights included; n cycles through [n_min, n_max]."""
    for seed in seeds:
        n = n_min + seed % (n_max - n_min + 1)
        base = random_instance(n, edge_prob, 3, max_c, max_d, seed)
        rng = random.Random(seed)
        attrs = tuple((rng.randint(0, 3), c, d) for _, c, d in triples(base))
        yield Instance(base.n, attrs, base.edges)


def solve_checked(monkeypatch, name, reference, model, instances):
    """Solve every instance with tddp.<name> checked against `reference`
    on each call; returns the arguments of every call.  The reference
    reads the child tables decoded to tuple keys; the fast table is
    decoded, its prev rows against the child tables, before the comparison."""
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
        # the leaf holds v unserved; its forget routes v to itself, where 3
        # copies hold demand 7, leaving 2 spare units in the last copy, and
        # builds no row that leaves v unserved
        inst = mk([(2, 3, 7)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [encode_key(table, (7,), (0,))]
        assert routed(inst, table, 1).rows == {
            ((0,), (2,)): DPRow(6, ((1, 1, 7),), (((7,), (0,)),)),
        }

    def test_zero_demand_single_served_row(self):
        inst = mk([(1, 5, 0)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [encode_key(table, (0,), (0,))]
        assert row_at(table, (0,), (0,)).cost == 0
        assert list(routed(inst, table, 1).rows) == [((0,), (0,))]

    def test_zero_capacity_only_unserved_row(self):
        inst = mk([(1, 0, 2), (1, 5, 0)], [(1, 2)])
        table = dp_leaf(inst, 1, UNSPLIT)
        assert list(table.rows) == [encode_key(table, (2,), (0,))]
        # no server of v is in the bag, so routing v keeps no row
        assert routed(inst, table, 1).rows == {}

    def test_splittable_enumerates_portions(self):
        # v (c = 2, d = 3) serves portions 0..3 of its demand itself, and its
        # neighbor (c = 5) takes the rest
        inst = mk([(1, 2, 3), (1, 5, 0)], [(1, 2)])
        table = routed(inst, dp_introduce(inst, dp_leaf(inst, 1, SPLIT), 2), 1)
        assert {key: (row.cost, row.triples) for key, row in table.rows.items()} == {
            ((0, 0), (0, 2)): (1, ((1, 2, 3),)),
            ((0, 0), (1, 3)): (2, ((1, 1, 1), (1, 2, 2))),
            ((0, 0), (0, 4)): (2, ((1, 1, 2), (1, 2, 1))),
            ((0, 0), (1, 0)): (2, ((1, 1, 3),)),
        }

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_leaf_equals_reference(self, model):
        instances = itertools.chain(
            weighted_instances(range(40), 4, 8),
            weighted_instances(range(200, 220), 6, 6, edge_prob=0.3, max_c=3, max_d=8),
        )
        leaves = [(inst, v) for inst in instances for v in inst.vertices()]
        weights, capacities, demands = zip(
            *((inst.weights[v], inst.capacities[v], inst.demands[v]) for inst, v in leaves)
        )
        # zero weights, capacities and demands all occur, and demand 8
        assert min(weights) == min(capacities) == 0
        assert {0, 8} <= set(demands)
        for inst, v in leaves:
            table, expected = dp_leaf(inst, v, model), reference_leaf(inst, v, model)
            assert (table.bag, table.places) == (expected.bag, expected.places)
            assert table.rows == expected.rows
            # the leaf's own forget routes v to itself
            try:
                forgotten = reference_forget(inst, decoded(table), v)
            except InfeasibleInstance:
                with pytest.raises(InfeasibleInstance):
                    dp_forget(inst, table, v)
                continue
            assert decoded(dp_forget(inst, table, v), [table]).rows == forgotten.rows


class TestIntroduce:
    def test_spare_absorbs_then_buys(self):
        # u = 1 (c = 5, d = 8) is forgotten with v = 2 (d = 3) in its bag: u
        # routes its own 8 units to itself, two copies with spare 2, then
        # pulls v's 3 units into that spare and one more copy: 3 copies,
        # spare 4
        inst = mk([(1, 5, 8), (1, 1, 3)], [(1, 2)])
        table = dp_introduce(inst, dp_leaf(inst, 1, UNSPLIT), 2)
        assert list(decoded(table).rows) == [((8, 3), (0, 0))]
        row = routed(inst, table, 1).rows[(0, 0), (4, 0)]
        assert row.cost == 3 and sorted(row.triples) == [(1, 1, 8), (2, 1, 3)]

    def test_unassigned_carries_over(self):
        inst = mk([(1, 5, 0), (1, 1, 3)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        table = dp_introduce(inst, child, 2)
        assert list(table.rows) == [encode_key(table, (0, 3), (0, 0))]
        assert row_at(table, (0, 3), (0, 0)).cost == 0
        assert routed(inst, table, 1).rows[(0, 3), (0, 0)].cost == 0

    def test_spare_fully_absorbs(self):
        # u's one copy holds v's 3 units and u's own 2
        inst = mk([(1, 5, 2), (1, 1, 3)], [(1, 2)])
        table = dp_introduce(inst, dp_leaf(inst, 1, UNSPLIT), 2)
        assert routed(inst, table, 1).rows[(0, 0), (0, 0)].cost == 1

    def test_vertex_already_in_bag_rejected(self):
        # re-introducing a bag vertex would give keys longer than the bag
        inst = mk([(1, 2, 1), (1, 2, 1)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        with pytest.raises(ValueError):
            dp_introduce(inst, child, 1)

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_introduce_equals_reference(self, model, monkeypatch):
        # weights, capacities and demands in [0,3], zero weights included
        instances = weighted_instances(range(60), 7, 12)
        calls = solve_checked(monkeypatch, "dp_introduce", reference_introduce, model, instances)
        assert len(calls) >= 500


class TestForget:
    def test_drops_unserved_rows(self):
        inst = mk([(2, 3, 7)])
        table = dp_forget(inst, dp_leaf(inst, 1, UNSPLIT), 1)
        assert list(table.rows) == [encode_key(table, (), ())]
        assert row_at(table, (), ()).cost == 6

    def test_collision_keeps_cheaper(self):
        inst = mk([(1, 2, 2), (1, 4, 2)], [(1, 2)])
        child = dp_leaf(inst, 1, UNSPLIT)
        step = dp_introduce(inst, child, 2)
        table = dp_forget(inst, step, 2)
        preimages = routed(inst, step, 2).rows
        # every surviving configuration carries the minimum over its preimages
        assert all(
            row.cost == min(r.cost for k, r in preimages.items()
                            if k[0][1] == 0 and k[0][:1] == key[0] and k[1][:1] == key[1])
            for key, row in decoded(table).rows.items()
        )

    def test_empty_table_raised(self):
        inst = mk([(1, 0, 2), (1, 5, 0)], [(1, 2)])
        with pytest.raises(InfeasibleInstance):
            dp_forget(inst, dp_leaf(inst, 1, UNSPLIT), 1)

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_every_forget_equals_reference(self, model, monkeypatch):
        # weights, capacities and demands in [0,3], zero weights included
        instances = weighted_instances(range(60), 7, 12)
        calls = solve_checked(monkeypatch, "dp_forget", reference_forget, model, instances)
        assert len(calls) >= 500

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_child_table_left_as_it_was(self, model, monkeypatch):
        # the stages update a copy of the child's rows: on the child itself
        # they would add the keys moves land on and replace rows with moves
        forget, routing = tddp.dp_forget, []

        def checked(inst, child, v):
            before = list(child.rows.items())
            table = forget(inst, child, v)
            after = list(child.rows.items())
            assert [key for key, _ in after] == [key for key, _ in before]
            assert all(row is kept for (_, row), (_, kept) in zip(after, before))
            kept = {id(row) for _, row in before}
            routing.append(any(id(row) not in kept for row in table.rows.values()))
            return table

        monkeypatch.setattr(tddp, "dp_forget", checked)
        for inst in weighted_instances(range(30), 7, 12):
            assert verify_solution(inst, solve_td(inst, nice_for(inst), model), model).passed
        # most forgets keep a row that one of their own stages moved
        assert len(routing) >= 250 and sum(routing) >= len(routing) // 2


    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_stage_order_keeps_keys_and_costs(self, model, monkeypatch):
        # Routing v's own demand before or after v serves its neighbors
        # reaches the same configurations at the same costs, since the
        # copies a server needs depend only on its total load.
        forget, both = tddp.dp_forget, []

        def checked(inst, child, v):
            rows = seeded(decoded(child))
            costs = [
                {key: row.cost for key, row in cut(model, child.bag, routing, v).rows.items()}
                for routing in (
                    reference_route(inst, rows, child.bag, v, model),
                    reference_route(inst, rows, child.bag, v, model, pulls_first=True),
                )
            ]
            assert costs[0] == costs[1]
            nbrs = inst.adj[v]
            both.append(bool(inst.demands[v] and inst.capacities[v]) and any(
                u in nbrs and inst.demands[u] for u in child.bag
            ))
            return forget(inst, child, v)

        monkeypatch.setattr(tddp, "dp_forget", checked)
        for inst in weighted_instances(range(60), 7, 12):
            assert verify_solution(inst, solve_td(inst, nice_for(inst), model), model).passed
        # many forgets route v and let v serve a neighbor too
        assert len(both) >= 500 and sum(both) >= 100

    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    def test_no_pull_stage_reads_an_unfinished_row(self, model, monkeypatch):
        # v's routing drops every row that leaves v's demand unrouted before
        # v serves its neighbors: a pull stage sees residual 0 at v only
        stage, forget = tddp._stage, tddp.dp_forget
        forgetting, pulls = [], []

        def spied_stage(rows, places, src, servers, *rest, **kw):
            idx, dv = forgetting[-1]
            if src != idx:
                unit, radix = places[idx + 1], places[idx] // places[idx + 1]
                assert not any(key // unit % radix for key in rows)
                pulls.append(dv)
            return stage(rows, places, src, servers, *rest, **kw)

        def spied_forget(inst, child, v):
            forgetting.append((child.bag.index(v), inst.demands[v]))
            try:
                return forget(inst, child, v)
            finally:
                forgetting.pop()

        monkeypatch.setattr(tddp, "_stage", spied_stage)
        monkeypatch.setattr(tddp, "dp_forget", spied_forget)
        for inst in weighted_instances(range(60), 7, 12):
            assert verify_solution(inst, solve_td(inst, nice_for(inst), model), model).passed
        # most pull stages follow the routing of a v with demand
        assert len(pulls) >= 200 and sum(map(bool, pulls)) >= len(pulls) // 2


class TestJoin:
    def test_spares_merge_into_refund(self):
        # one bag vertex with c=5, w=2; spares 3 and 4 fuse into one copy back
        inst = mk([(2, 5, 12)])
        left = dp_leaf(inst, 1, UNSPLIT)
        right = dp_leaf(inst, 1, UNSPLIT)
        # craft rows via self-serve: 12 -> 3 copies, spare 3; fake other side spare 4
        a = table_of(inst, UNSPLIT, (1,), {((0,), (3,)): DPRow(6, (), ())})
        b = table_of(inst, UNSPLIT, (1,), {((12,), (4,)): DPRow(4, (), ())})
        merged = dp_join(inst, a, b)
        row = row_at(merged, (0,), (2,))
        assert row.cost == 6 + 4 - 2  # refund w * floor((3+4)/5) = 2

    def test_zero_spares_no_refund(self):
        inst = mk([(2, 5, 12)])
        a = table_of(inst, UNSPLIT, (1,), {((0,), (0,)): DPRow(6, (), ())})
        b = table_of(inst, UNSPLIT, (1,), {((12,), (0,)): DPRow(4, (), ())})
        merged = dp_join(inst, a, b)
        assert row_at(merged, (0,), (0,)).cost == 10

    def test_incompatible_pairs_skipped(self):
        inst = mk([(2, 5, 12)])
        a = table_of(inst, UNSPLIT, (1,), {((0,), (0,)): DPRow(6, (), ())})
        merged = dp_join(inst, a, a)
        assert merged.rows == {}

    def test_siblings_over_other_bags_or_models_rejected(self):
        inst = mk([(1, 2, 1), (1, 2, 1)], [(1, 2)])
        one, two = dp_leaf(inst, 1, UNSPLIT), dp_leaf(inst, 2, UNSPLIT)
        for right in (two, dp_leaf(inst, 1, SPLIT)):
            with pytest.raises(ValueError):
                dp_join(inst, one, right)

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
        merged = decoded(dp_join(inst, a, b), (a, b))
        assert merged.rows == {
            ((0, 1), (0, 0)): DPRow(4, (), (((0, 1), (0, 0)), ((0, 1), (0, 0)))),
            ((0, 0), (0, 0)): DPRow(5, (), (((0, 0), (0, 0)), ((0, 1), (0, 0)))),
        }
        assert merged.rows == reference_join(inst, decoded(a), decoded(b)).rows

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
        peaks = {max(inst.demands[u] for u in left.bag) for inst, left, right in calls}
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
    d = inst.demands[u]
    states = (2 if d else 1) if model is UNSPLIT else d + 1
    return states * max(inst.capacities[u], 1)


def joins_on_a_path(ntd):
    """The most join nodes on one path from the root down, the node's own
    included."""
    most, stack = 0, [(ntd.root, 0)]
    while stack:
        node, joins = stack.pop()
        joins += node.kind == JOIN
        most = max(most, joins)
        stack.extend((child, joins) for child in node.children)
    return most


class TestTableRelease:
    @pytest.mark.parametrize("model", [UNSPLIT, SPLIT])
    @pytest.mark.parametrize("shape", ["bfs-grid", "min-fill-partial-2-tree"])
    def test_child_tables_are_freed_once_their_parent_is_built(self, shape, model, monkeypatch):
        if shape == "bfs-grid":
            inst = grid_instance(5, 5, (2, 2, 1))
            ntd = make_nice(bfs_decomposition(inst))
        else:
            inst = partial_two_tree(300, 5)
            ntd = nice_for(inst)
        # A finished branch's table waits for its sibling at each join above
        # it; a kernel holds at most two child tables and its result.  So the
        # live tables never outnumber the joins on a path plus two, a bound
        # far below the node count, so keeping every table fails it.
        tables, live = [], []
        for name in ("dp_leaf", "dp_introduce", "dp_forget", "dp_join"):

            def recorded(*args, kernel=getattr(tddp, name)):
                table = kernel(*args)
                tables.append(weakref.ref(table))
                # a leaf's table comes back from dp_leaf and its dp_introduce
                live.append(len({id(t) for t in (ref() for ref in tables) if t is not None}))
                return table

            monkeypatch.setattr(tddp, name, recorded)
        assert verify_solution(inst, solve_td(inst, ntd, model), model).passed
        bound = joins_on_a_path(ntd) + 2
        assert max(live) <= bound < len(ntd.post_order()) // 10


class TestTableSizes:
    def _check_tables(self, model):
        # Every state entry is a residual in the model's domain, and each
        # table, and the rows each forget routes before it cuts its vertex
        # out, hold at most the rows `predicted_work` counts for their bag.
        def check(inst, table):
            demands = [inst.demands[u] for u in table.bag]
            bound = 1
            for u in table.bag:
                bound *= reference_rows(inst, u, model)
            for state, rc in table.rows:
                for r, d in zip(state, demands):
                    assert r in (0, d) if model is UNSPLIT else 0 <= r <= d
                assert all(0 <= s < max(inst.capacities[u], 1) for s, u in zip(rc, table.bag))
            assert len(table.rows) <= bound

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
                    t = dp_introduce(inst, kids[0], node.vertex)
                elif node.kind == FORGET:
                    check(inst, routed(inst, kids[0], node.vertex))
                    t = dp_forget(inst, kids[0], node.vertex)
                else:
                    t = dp_join(inst, *kids)
                tables[id(node)] = t
                assert t.bag == tuple(sorted(node.bag))
                check(inst, decoded(t))

    def test_unsplittable_bound_per_node(self):
        self._check_tables(UNSPLIT)

    def test_splittable_bound_per_node(self):
        self._check_tables(SPLIT)


def bfs_decomposition(inst):
    return decomposition_from_order(inst, bfs_order(inst))


# The grids of the decomposition comparison in ROADMAP.md (unit weights):
# (rows, cols, capacity, demand, model, order chosen).  Both orders have
# the same width on the first four.  Each choice was the faster one when
# edges were routed at introduces.  With routing at forgets the 5x5 grid
# is near a tie and now picks min-fill (37,440 predicted rows against
# 41,424): in-process `solve_td`, 2-core VM, min-fill measured 50-73
# against BFS's 67-87 ms in one session and a median of 85-87 against
# 80-81 ms over 61 alternating pairs in another.  The two are within
# noise on the 3x3 grid with c = d = 2.
CHOICE_GRIDS = [
    (3, 3, 3, 3, SPLIT, "bfs"),
    (4, 4, 2, 2, SPLIT, "bfs"),
    (5, 5, 2, 1, UNSPLIT, "min-fill"),
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


def _cost(inst, ntd, model):
    try:
        sol = solve_td(inst, ntd, model)
    except InfeasibleInstance:
        return None
    assert verify_solution(inst, sol, model).passed
    return sol.cost


class TestRoutingPlace:
    @PROPERTY
    @given(inst=st.one_of(small_instances(), branching_instances()))
    def test_introduce_time_routing_gives_the_same_optimum(self, inst):
        ntd = nice_for(inst)
        for model in (UNSPLIT, SPLIT):
            assert introduce_time_cost(inst, ntd, model) == _cost(inst, ntd, model)

    def test_each_pair_is_offered_once_at_a_forget(self, monkeypatch):
        # Every (consumer, server) pair with demand, capacity and u in N[s]
        # is offered to `_stage` exactly once per solve, inside dp_forget.
        stage, forget, join = tddp._stage, tddp.dp_forget, tddp.dp_join
        offered, forgetting, joins = [], [], []

        def counted_stage(rows, places, src, servers, *rest, **kw):
            assert forgetting, "a stage ran outside dp_forget"
            offered.extend((consumer, server) for *_, consumer, server in servers)
            return stage(rows, places, src, servers, *rest, **kw)

        def counted_forget(*args):
            forgetting.append(True)
            try:
                return forget(*args)
            finally:
                forgetting.pop()

        monkeypatch.setattr(tddp, "_stage", counted_stage)
        monkeypatch.setattr(tddp, "dp_forget", counted_forget)
        monkeypatch.setattr(tddp, "dp_join", lambda *args: joins.append(1) or join(*args))
        for inst in weighted_instances(range(200), 6, 11, edge_prob=0.3):
            for model in (UNSPLIT, SPLIT):
                offered.clear()
                solve_td(inst, nice_for(inst), model)
                expected = [
                    (u, s)
                    for u in inst.vertices()
                    for s in sorted(inst.adj[u] | {u})
                    if inst.demands[u] and inst.capacities[s]
                ]
                assert sorted(offered) == expected
        assert len(joins) >= 500


class TestDecompositionChoice:
    @pytest.mark.parametrize(
        "rows, cols, c, d, model, expected",
        CHOICE_GRIDS,
        ids=[f"{r}x{c}-{m.value}-c{cap}d{d}" for r, c, cap, d, m, _ in CHOICE_GRIDS],
    )
    def test_choice_on_grids(self, rows, cols, c, d, model, expected):
        inst = grid_instance(rows, cols, (1, c, d))
        candidates = {"min-fill": heuristic_decomposition(inst), "bfs": bfs_decomposition(inst)}
        assert candidates["min-fill"] != candidates["bfs"]
        chosen = choose_decomposition(inst, model)
        assert project_nice(chosen) == project_nice(make_nice(candidates[expected]))

    def test_predicted_work_sums_introduce_rows(self):
        # The work model is the rows each introduce's bag can hold, summed,
        # and nothing else: no join term and no per-row constant.
        cases = [grid_instance(r, c, (1, cap, d)) for r, c, cap, d, *_ in CHOICE_GRIDS]
        cases += [random_instance(3 + seed % 8, 0.4, 3, 3, 3, seed) for seed in range(30)]
        joins = 0
        for inst in cases:
            for td in (heuristic_decomposition(inst), bfs_decomposition(inst)):
                ntd = make_nice(td)
                introduces = [node.bag for node in ntd.post_order() if node.kind == INTRODUCE]
                joins += sum(node.kind == JOIN for node in ntd.post_order())
                for model in (UNSPLIT, SPLIT):
                    expected = sum(prod(reference_rows(inst, u, model) for u in bag) for bag in introduces)
                    assert predicted_work(inst, ntd, model) == expected
        assert joins >= 20

    def test_exact_tie_keeps_min_fill(self, monkeypatch):
        inst = grid_instance(3, 3, (1, 2, 2))
        bfs = project_nice(make_nice(bfs_decomposition(inst)))
        min_fill = project_nice(make_nice(heuristic_decomposition(inst)))
        chosen = choose_decomposition(inst, SPLIT)
        assert project_nice(chosen) == bfs
        # both candidates now score BFS's work, which no single BFS bag
        # reaches, so BFS is built in full and loses only on the tie
        work = predicted_work(inst, chosen, SPLIT)
        scored = []
        monkeypatch.setattr(
            tddp, "predicted_work", lambda inst, ntd, model: scored.append(project_nice(ntd)) or work
        )
        assert project_nice(choose_decomposition(inst, SPLIT)) == min_fill
        assert scored == [min_fill, bfs]

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
        min_fill_nice = project_nice(make_nice(min_fill))
        build = treewidth.decomposition_from_order
        bags_seen, abandoned = [], []

        def spy(inst, order, give_up):
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
            assert project_nice(choose_decomposition(inst, model)) == min_fill_nice
            assert time.perf_counter() - started < 10
            assert len(bags_seen) < 100
        assert len(abandoned) == 2

    @PROPERTY
    @given(inst=st.one_of(small_instances(), branching_instances()))
    def test_cost_does_not_depend_on_decomposition(self, inst):
        for model in (UNSPLIT, SPLIT):
            ntds = (
                make_nice(heuristic_decomposition(inst)),
                make_nice(bfs_decomposition(inst)),
                choose_decomposition(inst, model),
            )
            costs = {_cost(inst, ntd, model) for ntd in ntds}
            assert len(costs) == 1


def dp_cost(inst, model):
    return _cost(inst, choose_decomposition(inst, model), model)


def disjoint_union(a, b):
    """a on ids 1..a.n, then b shifted to a.n + 1..a.n + b.n."""
    shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
    return Instance(a.n + b.n, triples(a) + triples(b), a.edges + shifted)


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
        old = triples(inst)
        attrs = old[: at - 1] + ((weight, 0, 0),) + old[at - 1 :]
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
        assert capped.demands[1:] == (1, 7, 0)
        assert (capped.edges, capped.weights[1:]) == (inst.edges, (4, 3, 1))

    def test_lone_server_takes_every_full_copy(self):
        # B = 0 with a single server: all whole copies are set aside
        inst = mk([(2, 3, 7), (5, 0, 0)], [(1, 2)])
        capped, routed = tddp.cap_demands(inst)
        assert routed == {(1, 1): 6} and capped.demands[1] == 1

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
        set_aside = sum(amount // inst.capacities[u] * inst.weights[u] for (_, u), amount in routed.items())
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


def key_pairs(inst, bag, model=SPLIT):
    """(residuals, spares) pairs with every entry inside its radix, and
    each residual 0 or the whole demand for `model` UNSPLIT."""
    residual = (lambda d: st.sampled_from((0, d))) if model is UNSPLIT else (lambda d: st.integers(0, d))
    return st.tuples(
        st.tuples(*(residual(inst.demands[u]) for u in bag)),
        st.tuples(*(st.integers(0, max(inst.capacities[u], 1) - 1) for u in bag)),
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
        radices = [range(inst.demands[u] + 1) for u in table.bag]
        radices += [range(max(inst.capacities[u], 1)) for u in table.bag]
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
        # every row is a child row object with v's digits spliced in, in
        # the child's order
        inst, child = bag
        outside = [u for u in inst.vertices() if u not in child.bag]
        assume(outside)
        v = data.draw(st.sampled_from(outside))
        pairs = data.draw(st.lists(key_pairs(inst, child.bag), unique=True, max_size=8))
        for cost, pair in enumerate(pairs):
            child.rows[encode_key(child, *pair)] = DPRow(cost, (), ())
        table = dp_introduce(inst, child, v)
        assert table.places == layout(inst, table.bag)
        idx, dv = table.bag.index(v), inst.demands[v]
        seeded = [
            ((state[:idx] + (dv,) + state[idx:], rc[:idx] + (0,) + rc[idx:]), DPRow(cost, (), ((state, rc),)))
            for cost, (state, rc) in enumerate(pairs)
        ]
        assert list(decoded(table, [child]).rows.items()) == seeded
        assert all(row is child.rows[encode_key(child, *pair)] for pair, row in zip(pairs, table.rows.values()))

    @PROPERTY
    @given(bag=keyed_bags(), data=st.data())
    def test_forget_drops_two_digits(self, bag, data):
        inst, child = bag
        assume(child.bag)
        v = data.draw(st.sampled_from(child.bag))
        pairs = data.draw(st.lists(key_pairs(inst, child.bag, child.model), unique=True, min_size=1, max_size=8))
        for cost, pair in enumerate(pairs):
            child.rows[encode_key(child, *pair)] = DPRow(cost % 3, (), ())  # ties collide
        # v has no neighbors, so its forget can only route v to itself
        try:
            expected = reference_forget(inst, decoded(child), v)
        except InfeasibleInstance:
            with pytest.raises(InfeasibleInstance):
                dp_forget(inst, child, v)
            return
        table = dp_forget(inst, child, v)
        assert table.places == layout(inst, expected.bag)
        assert list(decoded(table, [child]).rows.items()) == list(expected.rows.items())
