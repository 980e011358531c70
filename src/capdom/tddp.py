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
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDecomposition

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


_Partial = tuple[int, tuple[Triple, ...], Key]  # cost, triples so far, child key


def _dedup_stage(rows: dict[Key, _Partial], expand) -> dict[Key, _Partial]:
    """Apply one micro-transition, keeping the cheapest row per configuration.

    Sound because completion cost depends only on the configuration, never
    on how it was reached; iteration over sorted keys keeps ties stable.
    """
    out: dict[Key, _Partial] = {}
    for key in sorted(rows):
        cost, triples, origin = rows[key]
        for new_key, dcost, dtriples in expand(key):
            candidate = (cost + dcost, triples + dtriples, origin)
            old = out.get(new_key)
            if old is None or candidate[0] < old[0]:
                out[new_key] = candidate
    return out


def dp_introduce(inst: Instance, child: DPTable, v: int, bag: tuple[int, ...]) -> DPTable:
    """Introduce v: optionally serve bag vertices with v, then route v's demand.

    Serving choices cover every subset of unserved bag neighbors of v
    (unsplittable) or every portion split (splittable); v's own demand may
    go to any positive-capacity vertex of the new bag inside N[v], stay
    pending, or split across several of them in the splittable model.
    Transitions run one bag vertex at a time with dedup in between, so the
    work stays proportional to the configuration space, not to the number
    of assignment paths.
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

    # Seed: v joins the bag with no copies bought, so spare 0.
    rows: dict[Key, _Partial] = {}
    for key in sorted(child.rows):
        state, rc = key
        row = child.rows[key]
        rc_full = rc[:idx] + (0,) + rc[idx:]
        if unsplit:
            seeded: Key = (state, rc_full)
        else:
            seeded = (state[:idx] + (dv,) + state[idx:], rc_full)
        old = rows.get(seeded)
        if old is None or row.cost < old[0]:
            rows[seeded] = (row.cost, (), key)

    if cv > 0:
        # Pull stage: serve bag neighbors with copies of v, one at a time.
        for pos, u in enumerate(new_bag):
            if u == v or u not in nbrs:
                continue
            du = inst.demand(u)

            if unsplit:
                def pull(key, pos=pos, u=u, du=du):
                    state, rc = key
                    yield key, 0, ()
                    if du > 0 and u not in state:
                        spare = rc[idx]
                        dcost = wv * ceil_div(max(0, du - spare), cv)
                        rc2 = rc[:idx] + ((spare - du) % cv,) + rc[idx + 1 :]
                        yield (tuple(sorted(state + (u,))), rc2), dcost, ((u, v, du),)
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

    # Routing stage: v's own demand.
    if unsplit:
        if dv == 0:
            def route(key):
                state, rc = key
                yield (tuple(sorted(state + (v,))), rc), 0, ()
        else:
            def route(key):
                state, rc = key
                yield key, 0, ()  # v stays pending
                served = tuple(sorted(state + (v,)))
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

    table = DPTable(child.model, new_bag, {})
    for key in sorted(rows):
        cost, triples, origin = rows[key]
        _insert(table, key, cost, triples, (origin,))
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
    positive = {u for u, d in zip(vs, demands) if d > 0}

    def buckets(table: DPTable) -> dict[tuple[int, ...], list[tuple[tuple[int, ...], int, Key]]]:
        # state -> [(spare vector, cost, key)], both levels in sorted key order
        out: dict[tuple[int, ...], list[tuple[tuple[int, ...], int, Key]]] = {}
        for key in sorted(table.rows):
            out.setdefault(key[0], []).append((key[1], table.rows[key].cost, key))
        return out

    def merge_states(state1: tuple[int, ...], state2: tuple[int, ...]) -> tuple[int, ...] | None:
        if unsplit:
            if not positive.intersection(state1).isdisjoint(state2):
                return None
            return tuple(sorted(set(state1).union(state2)))
        merged = tuple(a + b - d for a, b, d in zip(state1, state2, demands))
        return None if any(x < 0 for x in merged) else merged

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

    right_buckets = buckets(right)
    spares: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, tuple[int, ...]]]] = {}
    # merged state -> merged spare vector -> (cost, left key, right key);
    # `order` records each merged key when first reached.
    best: dict[tuple[int, ...], dict[tuple[int, ...], tuple[int, Key, Key]]] = {}
    order: list[Key] = []
    for state1, rows1 in buckets(left).items():
        partners = []
        for state2, rows2 in right_buckets.items():
            merged_state = merge_states(state1, state2)
            if merged_state is not None:
                partners.append((merged_state, rows2))
        for rc1, cost1, k1 in rows1:
            memo = spares.setdefault(rc1, {})
            for merged_state, rows2 in partners:
                out = best.setdefault(merged_state, {})
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
