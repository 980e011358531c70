"""Exact dynamic programming over a nice tree decomposition.

Table rows pair a served-state for the current bag with the spare
capacity rc(u) in [0, c(u)) left inside copies already bought:

* unsplittable: served-state is the subset of bag vertices whose whole
  demand is already routed (zero-demand vertices count as served)
* splittable: served-state is the residual demand 0 <= rd(u) <= d(u)

Spare capacities merge additively at joins: two half-filled copies fuse
into one full copy, refunding w(u) per completed copy.  Costs obey
cost = sum_u w(u) * ceil(load_u / c(u)) for the routing the back-pointers
reconstruct, which is re-derived and checked after every solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    Solution,
    ceil_div,
    is_feasible,
    minimum_multiplicities,
)
from . import treewidth
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDecomposition, TreeDecomposition

Triple = tuple[int, int, int]
Key = tuple[tuple[int, ...], tuple[int, ...]]


class EmptyTable(CapdomError):
    """No configuration survived a forget node; propagates infeasibility."""


@dataclass
class DPRow:
    cost: int
    triples: tuple[Triple, ...]
    prev: tuple[Key, ...]


@dataclass
class DPTable:
    model: DemandModel
    bag: tuple[int, ...]
    rows: dict[Key, DPRow]


def _insert(table: DPTable, key: Key, cost: int, triples: tuple[Triple, ...], prev: tuple[Key, ...]):
    row = table.rows.get(key)
    if row is None or cost < row.cost:
        table.rows[key] = DPRow(cost, triples, prev)


def _spare(load: int, c: int) -> int:
    # Unused capacity of the ceil(load/c) copies holding the load.
    return (-load) % c if c > 0 else 0


def dp_leaf(inst: Instance, v: int, model: DemandModel) -> DPTable:
    """Leaf table: v unserved, or v fully routed to itself.

    Zero-demand vertices collapse to a single already-served row; the
    splittable model keeps one row per self-served portion.
    """
    d, c, w = inst.demand(v), inst.capacity(v), inst.weight(v)
    table = DPTable(model, (v,), {})
    if model is DemandModel.UNSPLITTABLE:
        if d == 0:
            _insert(table, ((v,), (0,)), 0, (), ())
        else:
            _insert(table, ((), (0,)), 0, (), ())
            if c > 0:
                _insert(table, ((v,), (_spare(d, c),)), w * ceil_div(d, c), ((v, v, d),), ())
    else:
        if d == 0:
            _insert(table, ((0,), (0,)), 0, (), ())
        else:
            _insert(table, ((d,), (0,)), 0, (), ())
            if c > 0:
                for amount in range(1, d + 1):
                    _insert(
                        table,
                        ((d - amount,), (_spare(amount, c),)),
                        w * ceil_div(amount, c),
                        ((v, v, amount),),
                        (),
                    )
    return table


# A row under construction: (cost, triples so far, child key).
_Partial = tuple[int, tuple[Triple, ...], Key]


def _unsplit_stage(
    rows: dict[Key, _Partial],
    consumer: int,
    amount: int,
    servers: list[tuple[int, int, int, tuple[Triple, ...]]],
) -> dict[Key, _Partial]:
    """One unsplittable micro-transition: keep each row, or route the whole
    `amount` of an unserved `consumer` to one of `servers`, given as
    (bag position, capacity, weight, triple) in the order they are offered.
    """
    out: dict[Key, _Partial] = {}
    get = out.get
    for key in sorted(rows):
        entry = rows[key]
        cost = entry[0]
        old = get(key)
        if old is None or cost < old[0]:
            out[key] = entry
        state, rc = key
        if consumer in state:
            continue
        served = tuple(sorted(state + (consumer,)))
        for pos, c, w, triple in servers:
            spare = rc[pos]
            new_cost = cost + w * -((spare - amount) // c) if amount > spare else cost
            new_key = (served, rc[:pos] + ((spare - amount) % c,) + rc[pos + 1 :])
            old = get(new_key)
            if old is None or new_cost < old[0]:
                out[new_key] = (new_cost, entry[1] + triple, entry[2])
    return out


def _split_stage(
    rows: dict[Key, _Partial], src: int, dst: int, c: int, w: int, consumer: int, server: int
) -> dict[Key, _Partial]:
    """One splittable micro-transition: keep each row, or move 1..rd units of
    the residual demand at bag position `src` onto the copies of the server
    at position `dst`, which has capacity c > 0 and weight w.

    A move lowers the residual at `src` and changes no other state entry,
    so it lands on a key that sorts before its source row.  Keys are
    visited in sorted order, so no row reaches a key before that key's own
    keep move, and the keep move needs no cost test.
    """
    out: dict[Key, _Partial] = {}
    get = out.get
    for key in sorted(rows):
        entry = rows[key]
        out[key] = entry
        cost = entry[0]
        state, rc = key
        left = state[src]
        if not left:
            continue
        spare = rc[dst]
        state_head, state_tail = state[:src], state[src + 1 :]
        rc_head, rc_tail = rc[:dst], rc[dst + 1 :]
        for amount in range(1, left + 1):
            new_cost = cost + w * -((spare - amount) // c) if amount > spare else cost
            new_key = (
                state_head + (left - amount,) + state_tail,
                rc_head + ((spare - amount) % c,) + rc_tail,
            )
            old = get(new_key)
            if old is None or new_cost < old[0]:
                out[new_key] = (new_cost, entry[1] + ((consumer, server, amount),), entry[2])
    return out


def dp_introduce(inst: Instance, child: DPTable, v: int, bag: tuple[int, ...]) -> DPTable:
    """Introduce v: optionally serve bag vertices with v, then route v's demand.

    Serving choices cover every subset of unserved bag neighbors of v
    (unsplittable) or every portion split (splittable); v's own demand may
    go to any positive-capacity vertex of the new bag inside N[v], stay
    pending, or split across several of them in the splittable model.
    Transitions run one bag vertex at a time with dedup in between, so the
    work stays proportional to the configuration space, not to the number
    of assignment paths.  Dedup is sound because completion cost depends
    only on the configuration, never on how it was reached.  Each stage
    walks its rows in sorted key order, offers a row's keep move before its
    other moves and lets only a strictly cheaper candidate replace a row,
    so ties always resolve the same way.
    """
    new_bag = tuple(sorted(set(child.bag) | {v}))
    if v in child.bag or tuple(sorted(bag)) != new_bag:
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

    # Seed: v joins the bag with no copies bought, so spare 0.  Child keys
    # map one-to-one onto seeded keys, so no two rows collide.
    rows: dict[Key, _Partial] = {}
    for key, row in child.rows.items():
        state, rc = key
        if not unsplit:
            state = state[:idx] + (dv,) + state[idx:]
        rows[(state, rc[:idx] + (0,) + rc[idx:])] = (row.cost, (), key)

    if cv > 0:
        # Pull stages: serve bag neighbors with copies of v, one at a time.
        # A neighbor without demand has nothing to pull: its stage would
        # only keep every row.
        for pos, u in enumerate(new_bag):
            du = inst.demand(u)
            if u == v or u not in nbrs or du == 0:
                continue
            if unsplit:
                rows = _unsplit_stage(rows, u, du, [(idx, cv, wv, ((u, v, du),))])
            else:
                rows = _split_stage(rows, pos, idx, cv, wv, u, v)

    # Routing stage: v's own demand.
    if unsplit and dv == 0:
        # v counts as served; v is in no state yet, so keys stay distinct.
        rows = {(tuple(sorted(state + (v,))), rc): entry for (state, rc), entry in rows.items()}
    elif unsplit:
        servers = [
            (pos, inst.capacity(s), inst.weight(s), ((v, s, dv),)) for pos, s in server_pos
        ]
        rows = _unsplit_stage(rows, v, dv, servers)
    elif dv > 0:
        for pos, s in server_pos:
            rows = _split_stage(rows, idx, pos, inst.capacity(s), inst.weight(s), v, s)

    table = DPTable(child.model, new_bag, {})
    for key in sorted(rows):
        cost, triples, origin = rows[key]
        table.rows[key] = DPRow(cost, triples, (origin,))
    return table


def dp_forget(child: DPTable, v: int) -> DPTable:
    """Drop v, keeping only rows where v's demand is fully routed."""
    idx = child.bag.index(v)
    new_bag = child.bag[:idx] + child.bag[idx + 1 :]
    table = DPTable(child.model, new_bag, {})
    unsplit = child.model is DemandModel.UNSPLITTABLE
    for key in sorted(child.rows):
        state, rc = key
        if unsplit:
            if v not in state:
                continue
            new_state = tuple(u for u in state if u != v)
        else:
            if state[idx] != 0:
                continue
            new_state = state[:idx] + state[idx + 1 :]
        new_rc = rc[:idx] + rc[idx + 1 :]
        _insert(table, (new_state, new_rc), child.rows[key].cost, (), (key,))
    if not table.rows:
        raise EmptyTable(f"no configuration survives forgetting vertex {v}")
    return table


def dp_join(inst: Instance, left: DPTable, right: DPTable, bag: tuple[int, ...] | None = None) -> DPTable:
    """Merge sibling tables over one bag.

    Rows combine when no positive demand is served twice; spare capacities
    add, and every completed copy u refunds w(u).

    Whether two rows combine depends only on their served-states, so rows
    are bucketed by state and each pair of states is tested once; every row
    of a left bucket then meets every row of each compatible right bucket.
    Spare merges depend only on the two spare vectors and are memoized per
    join.  The work grows with compatible state pairs times their
    spare-vector pairs, not with all row pairs.  Pairs are visited in
    sorted (left key, right key) order and only a strictly cheaper pair
    replaces a row, so keys, costs, back-pointers and row order are those
    of a plain double loop over the sorted keys.
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

    # Served-states become ints, so a pair of states is tested with one
    # `&`.  Unsplittable: a bitmask over bag positions; two states clash
    # when they share a position with positive demand.  Splittable: the
    # served amounts d - rd packed as B-bit digits, with B one bit wider
    # than the largest demand so no digit sum carries.  Left codes carry a
    # guard of 2^(B-1) - 1 - d per digit, so a digit of the sum reaches its
    # top bit exactly when the two served amounts exceed d.  Either way
    # `merged_of` maps the combined int back to the merged state tuple.
    if unsplit:
        pos_of = {u: i for i, u in enumerate(vs)}
        clash = sum(1 << i for i, d in enumerate(demands) if d > 0)
        guard = 0

        def code(state: tuple[int, ...]) -> int:
            return sum(1 << pos_of[u] for u in state)

        def merged_of(combined: int) -> tuple[int, ...]:
            return tuple(u for i, u in enumerate(vs) if combined >> i & 1)
    else:
        width = max(demands, default=0).bit_length() + 1
        digit = (1 << width) - 1
        clash = sum(1 << (width * i + width - 1) for i in range(len(vs)))
        guard = sum(((1 << (width - 1)) - 1 - d) << (width * i) for i, d in enumerate(demands))

        def code(state: tuple[int, ...]) -> int:
            return sum((d - r) << (width * i) for i, (d, r) in enumerate(zip(demands, state)))

        def merged_of(combined: int) -> tuple[int, ...]:
            combined -= guard
            return tuple(d - (combined >> (width * i) & digit) for i, d in enumerate(demands))

    Bucket = list[tuple[tuple[int, ...], int, Key]]  # (spare vector, cost, key)

    def buckets(table: DPTable, offset: int) -> list[tuple[int, Bucket]]:
        # (state code + offset, bucket), both levels in sorted key order
        by_state: dict[tuple[int, ...], Bucket] = {}
        for key in sorted(table.rows):
            by_state.setdefault(key[0], []).append((key[1], table.rows[key].cost, key))
        return [(code(state) + offset, rows) for state, rows in by_state.items()]

    def merge_spares(rc1: tuple[int, ...], rc2: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        refund = 0
        rc_merged = []
        for s1, s2, c, w in zip(rc1, rc2, caps, weights):
            if c > 0:
                refund += w * ((s1 + s2) // c)
                rc_merged.append((s1 + s2) % c)
            else:
                rc_merged.append(0)
        return refund, tuple(rc_merged)

    right_buckets = buckets(right, 0)
    merged_states: dict[int, tuple[int, ...]] = {}
    spares: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, tuple[int, ...]]]] = {}
    # merged state -> merged spare vector -> (cost, left key, right key);
    # `order` records each merged key when first reached.
    best: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, Key, Key]]] = {}
    order: list[Key] = []
    for code1, rows1 in buckets(left, guard):
        partners = []
        for code2, rows2 in right_buckets:
            if unsplit:
                if code1 & code2 & clash:
                    continue
                combined = code1 | code2
            else:
                combined = code1 + code2
                if combined & clash:
                    continue
            merged_state = merged_states.get(combined)
            if merged_state is None:
                merged_state = merged_states[combined] = merged_of(combined)
            partners.append((merged_state, best.setdefault(merged_state, {}), rows2))
        for rc1, cost1, k1 in rows1:
            memo = spares.setdefault(rc1, {})
            for merged_state, out, rows2 in partners:
                for rc2, cost2, k2 in rows2:
                    merged = memo.get(rc2)
                    if merged is None:
                        merged = memo[rc2] = merge_spares(rc1, rc2)
                    refund, rc = merged
                    cost = cost1 + cost2 - refund
                    old = out.get(rc)
                    if old is None:
                        order.append((merged_state, rc))
                        out[rc] = (cost, k1, k2)
                    elif cost < old[0]:
                        out[rc] = (cost, k1, k2)
    rows = {}
    for state, rc in order:
        cost, k1, k2 = best[state][rc]
        rows[(state, rc)] = DPRow(cost, (), (k1, k2))
    return DPTable(left.model, vs, rows)


# Cost of one predicted introduce row over that of one predicted join pair.
# Calibrated from one traced `dp_grid` pass (`perfbench/run.py --workload
# dp_grid --seed 7 --trace 1`, Python 3.11 on a 2-core VM): introduce_s /
# introduce_rows = 0.142 s / 27,787 = 5.1 us per row and join_s /
# join_pairs = 0.218 s / 4,657,173 = 0.047 us per pair, a ratio of about
# 109.  The trace counts every row pair of a join, the prediction only the
# compatible ones; the ranking tolerates that: any value from 43 to 2,248
# orders min-fill and BFS on CHOICE_GRIDS in tests/test_tddp.py and on the
# `dp_grid` grids as their measured DP times do.
INTRODUCE_ROW_WORK = 100


def _vertex_factors(inst: Instance, model: DemandModel) -> tuple[list[int], list[int]]:
    """Per vertex id: the table rows and the compatible join pairs it
    multiplies a bag's count by.

    Rows: served-states times spare values.  Join pairs: pairs of
    served-states that may merge, times pairs of spare values.
    """
    unsplit = model is DemandModel.UNSPLITTABLE
    rows, pairs = [1], [1]  # vertex ids start at 1
    for a in inst.attrs:
        spares = a.capacity or 1
        if unsplit:
            states, merges = (2, 3) if a.demand else (1, 1)
        else:
            states, merges = a.demand + 1, (a.demand + 1) * (a.demand + 2) // 2
        rows.append(states * spares)
        pairs.append(merges * spares * spares)
    return rows, pairs


def predicted_work(inst: Instance, td: TreeDecomposition, model: DemandModel) -> int:
    """Predicted DP work on make_nice(td), read off the plain decomposition.

    Walks the bags as `make_nice` roots and chains them, without building
    the nice form.  Each introduce costs INTRODUCE_ROW_WORK per row of its
    bag; each join costs the rows of its two children multiplied, times the
    fraction of compatible served-states.  Rows are the product over the
    bag of served-states times spare values, an upper bound on what the
    tables hold.  Leaves and forgets are not counted.
    """
    rows_of, pairs_of = _vertex_factors(inst, model)

    def chain(rows: int, added: list[int]) -> int:
        # rows of the introduces that add `added` in order to `rows` rows
        total = 0
        for v in added:
            rows *= rows_of[v]
            total += rows
        return total

    adj = td.neighbors()
    lowest = min(min(bag) for bag in td.bags.values())
    root = min(i for i, bag in td.bags.items() if lowest in bag)
    introduce_rows = join_pairs = 0
    stack: list[tuple[int, int | None]] = [(root, None)]
    while stack:
        bag_id, parent = stack.pop()
        bag = td.bags[bag_id]
        kids = adj[bag_id] - {parent}
        stack.extend((k, bag_id) for k in kids)
        if kids:
            join_pairs += (len(kids) - 1) * prod(pairs_of[u] for u in bag)
        else:
            # leaf chain: the smallest vertex, then the rest in order
            first, *rest = sorted(bag)
            introduce_rows += chain(rows_of[first], rest)
        if parent is not None:
            # bridge to the parent: forgets, then introduces in order
            above = td.bags[parent]
            introduce_rows += chain(prod(rows_of[u] for u in bag & above), sorted(above - bag))
    return INTRODUCE_ROW_WORK * introduce_rows + join_pairs


def choose_decomposition(inst: Instance, model: DemandModel) -> TreeDecomposition:
    """The min-fill or the BFS decomposition, whichever predicts less work.

    Ties keep min-fill.  Min-fill is reached through
    `treewidth.heuristic_decomposition`, so callers that patch it see it.
    The BFS candidate is abandoned once it cannot pay: when one of its
    bags alone predicts at least min-fill's work (every bag of two or more
    vertices ends in an introduce of all its rows), or when its fill-in
    work passes min-fill's predicted work, so that building it would cost
    more than it could save (one fill-in step and one join pair take
    about the same time).  On trees and stars, where BFS levels fill into
    cliques, this stops it within the first few levels.
    """
    min_fill = treewidth.heuristic_decomposition(inst)
    bound = predicted_work(inst, min_fill, model)
    rows_of, _ = _vertex_factors(inst, model)

    def hopeless(bag: frozenset[int], fill_work: int) -> bool:
        return fill_work > bound or (
            len(bag) > 1 and INTRODUCE_ROW_WORK * prod(rows_of[u] for u in bag) >= bound
        )

    try:
        bfs = treewidth.decomposition_from_order(inst, treewidth.bfs_order(inst), hopeless)
    except treewidth.Abandoned:
        return min_fill
    return bfs if predicted_work(inst, bfs, model) < bound else min_fill


def solve_td(inst: Instance, ntd: NiceTreeDecomposition, model: DemandModel) -> Solution:
    """Bottom-up evaluation plus back-pointer reconstruction.

    The returned solution's cost always equals the root table's optimum;
    a mismatch would mean a table rule is wrong, so it is re-checked here.
    """
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")
    tables: dict[int, DPTable] = {}
    try:
        for node in ntd.post_order():
            if node.kind == LEAF:
                (v,) = node.bag
                tables[id(node)] = dp_leaf(inst, v, model)
            elif node.kind == INTRODUCE:
                child = tables[id(node.children[0])]
                tables[id(node)] = dp_introduce(
                    inst, child, node.vertex, tuple(sorted(node.bag))
                )
            elif node.kind == FORGET:
                tables[id(node)] = dp_forget(tables[id(node.children[0])], node.vertex)
            elif node.kind == JOIN:
                tables[id(node)] = dp_join(
                    inst,
                    tables[id(node.children[0])],
                    tables[id(node.children[1])],
                    tuple(sorted(node.bag)),
                )
            else:
                raise ValueError(f"unknown node kind {node.kind!r}")
    except EmptyTable as exc:
        raise InfeasibleInstance(str(exc)) from exc

    root_key: Key = ((), ())
    root_row = tables[id(ntd.root)].rows.get(root_key)
    if root_row is None:
        raise InfeasibleInstance("no feasible configuration at the root")
    best_cost = root_row.cost

    assignment: dict[tuple[int, int], int] = {}
    stack: list[tuple[object, Key]] = [(ntd.root, root_key)]
    while stack:
        node, key = stack.pop()
        row = tables[id(node)].rows[key]
        for consumer, server, amount in row.triples:
            pair = (consumer, server)
            assignment[pair] = assignment.get(pair, 0) + amount
        for child, child_key in zip(node.children, row.prev):
            stack.append((child, child_key))

    solution = minimum_multiplicities(inst, assignment) if assignment else Solution.empty()
    if solution.cost != best_cost:
        raise CapdomError(
            f"reconstruction cost {solution.cost} disagrees with table cost {best_cost}"
        )
    return solution
