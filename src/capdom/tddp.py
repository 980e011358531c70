"""Exact dynamic programming over a nice tree decomposition.

Table rows pair the residual demand 0 <= rd(u) <= d(u) still unserved at
each bag vertex with the spare capacity rc(u) in [0, c(u)) left inside
copies already bought.  Both demand models share this encoding; the
unsplittable model routes each demand whole, so its residuals are 0 or
d(u), while the splittable model moves any portion.  A zero-demand vertex
has rd = 0 in both.

A row's key is one int over the sorted bag u_0 < ... < u_{k-1}, with
mixed-radix digits rd(u_0..u_{k-1}) and then rc(u_0..u_{k-1}), most
significant first; a residual has radix d(u) + 1, a spare max(c(u), 1).
Every digit is below its radix and all residuals sit above all spares,
so int order is the order of the tuple pair (residuals, spares), and
sorts and tie-breaks are those of tuple keys.  Kernels work on the place
values in `DPTable.places`.

A table row is one flat tuple (cost, triple, *sources): its cost, None
or the one (consumer, server, amount) triple its step routes, and the
rows it came from.  The empty bag's row is (0, None); a forget's move is
(cost, triple, moved row) and a join row (cost, None, left row, right
row).  A step that routes nothing reuses its child's row, as an
introduce does for every row.  Reconstruction walks rows, not tables, so
`solve_td` frees each table once its parent is built.  Demand is routed
only where a vertex is forgotten, so a leaf, an introduce into the
one-row table over the empty bag, holds v unserved.  A forget routes v's
own residual first and keeps no row that leaves any of it unrouted, and
only then lets v serve its bag neighbors.

Splittable demands are capped by capacity before a solve (`cap_demands`,
used by `solve`), so residual radices depend on capacities, not demands.

Spare capacities merge additively at joins: two half-filled copies fuse
into one full copy, refunding w(u) per completed copy.  Costs obey
cost = sum_u w(u) * ceil(load_u / c(u)) for the routing the rows' sources
reconstruct, which is re-derived and checked after every solve.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm, prod

from .core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    Solution,
    minimum_multiplicities,
    require_feasible,
    verify_solution,
    with_demands,
)
from . import treewidth
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDecomposition, TreeDecomposition

# (cost, (consumer, server, amount) or None, *source rows), as the module docstring describes
Row = tuple


@dataclass
class DPTable:
    model: DemandModel
    bag: tuple[int, ...]
    rows: dict[int, Row]
    # places[j] is the product of the radices of key digits j onward, so
    # digit j has place value places[j + 1] and every key is below places[0].
    places: tuple[int, ...]


def layout(inst: Instance, bag: tuple[int, ...]) -> tuple[int, ...]:
    """The place values of keys over `bag`; the kernels derive theirs from their child's."""
    places = [1]
    for radix in reversed([inst.demands[u] + 1 for u in bag] + [max(inst.capacities[u], 1) for u in bag]):
        places.append(places[-1] * radix)
    return tuple(reversed(places))


def dp_leaf(inst: Instance, v: int, model: DemandModel) -> DPTable:
    """Leaf table: v introduced into the one-row table over the empty bag."""
    return dp_introduce(inst, DPTable(model, (), {0: (0, None)}, (1,)), v)


# A server offered by a stage: (place of its spare digit, capacity > 0,
# weight, consumer, server), the last two naming the triple a move records.
_Server = tuple[int, int, int, int, int]


def _stage(
    rows: dict[int, Row], places: tuple[int, ...], src: int, servers: list[_Server], whole: bool,
    finish: bool = False,
) -> dict[int, Row]:
    """One micro-transition: keep each row, or move the residual demand at
    bag position `src` onto the copies of one of `servers`, offered in
    order.  A move routes the whole residual (`whole`) or any 1..rd units.
    Updates and returns `rows`; with `finish` (and `whole`), returns a new
    table of the rows with residual 0 at `src`, kept or moved, instead.

    A move lowers the residual at `src` and changes no other residual, so
    it lands on a key that sorts before its source row.  Keys are visited
    in ascending order from a sorted snapshot, so each row is read before
    a move lands on it, and lookups see what a separate table would hold.
    """
    unit, radix = places[src + 1], places[src] // places[src + 1]
    out = {} if finish else rows
    get = out.get
    for key in sorted(rows):
        entry = rows[key]
        left = key // unit % radix
        if not left:
            if finish:
                out[key] = entry
            continue
        cost = entry[0]
        amounts = (left,) if whole else range(1, left + 1)
        for at, c, w, consumer, server in servers:
            spare = key // at % c
            base = key - spare * at
            for amount in amounts:
                new_cost = cost + w * -((spare - amount) // c) if amount > spare else cost
                new_key = base - amount * unit + (spare - amount) % c * at
                old = get(new_key)
                if old is None or new_cost < old[0]:
                    out[new_key] = (new_cost, (consumer, server, amount), entry)
    return out


def dp_introduce(inst: Instance, child: DPTable, v: int) -> DPTable:
    """Introduce v unserved and with no copies bought, so spare 0.

    v's residual and spare digits are spliced into each child key at bag
    position idx, so child keys map one-to-one onto the new keys, in the
    child's order.  Nothing is routed here: `dp_forget` routes v's edges.
    """
    if v in child.bag:
        raise ValueError(f"vertex {v} is already in the child bag")
    new_bag = tuple(sorted(child.bag + (v,)))
    idx, k, p = new_bag.index(v), len(new_bag), child.places
    # v's residual and spare radices are spliced into the child's place values
    r, s = inst.demands[v] + 1, max(inst.capacities[v], 1)
    places = tuple(x * r * s for x in p[: idx + 1]) + tuple(x * s for x in p[idx : k + idx]) + p[k - 1 + idx :]
    high, low = p[idx], p[k - 1 + idx]
    top, mid, seed = places[idx], places[k + idx], inst.demands[v] * places[idx + 1]
    rows = {
        key // high * top + seed + key % high // low * mid + key % low: row for key, row in child.rows.items()
    }
    return DPTable(child.model, new_bag, rows, places)


def dp_forget(inst: Instance, child: DPTable, v: int) -> DPTable:
    """Route v's edges inside the bag, then drop v.

    v's own residual goes first to the positive-capacity vertices of N[v]
    in the bag, whole (unsplittable) or in portions (splittable), and the
    last of these stages builds no row that leaves any of it unrouted.
    Then v serves each bag neighbor with demand, on the surviving rows.
    The bags holding u and those holding v are intersecting subtrees, so
    the first of u and v to be forgotten still has the other in its bag,
    and no bag vertex was forgotten below it: each edge, and each vertex
    serving itself, is offered at exactly one node.  Stages run one bag
    vertex at a time with dedup in between, in any order, because the
    copies a server needs depend only on its total load; no pull stage
    changes v's residual, so no dropped row could have been kept.  Each
    stage runs in sorted key order and keeps a row unless a strictly
    cheaper one replaces it, so ties resolve the same way.  The last
    routing stage builds a new table; the others update that table or one
    copy of the child's rows in place.
    """
    idx, k, places = child.bag.index(v), len(child.bag), child.places
    nbrs, cv, wv = inst.adj[v], inst.capacities[v], inst.weights[v]
    whole = child.model is DemandModel.UNSPLITTABLE
    rows = child.rows
    if inst.demands[v]:
        # Routing stages: v's own demand goes whole to one server, or in
        # portions to each server in turn, the last one taking the rest.
        servers = [
            (places[k + pos + 1], inst.capacities[s], inst.weights[s], v, s)
            for pos, s in enumerate(child.bag)
            if (s == v or s in nbrs) and inst.capacities[s] > 0
        ]
        *portions, last = [[s] for s in servers] if servers and not whole else [servers]
        rows = dict(rows) if portions else rows
        for group in portions:
            rows = _stage(rows, places, idx, group, False)
        rows = _stage(rows, places, idx, last, True, finish=True)
    if cv > 0:
        # Pull stages: v serves bag neighbors one at a time.  A neighbor
        # without demand gets none: its stage would only keep every row.
        pulls = [(pos, u) for pos, u in enumerate(child.bag) if u in nbrs and inst.demands[u]]
        rows = dict(rows) if pulls and rows is child.rows else rows
        for pos, u in pulls:
            rows = _stage(rows, places, pos, [(places[k + idx + 1], cv, wv, u, v)], whole)
    # Every row has v's residual digit 0; v's two digits are cut out and
    # the digits above, between and below them close up.
    high, unit, mid, low = places[idx], places[idx + 1], places[k + idx], places[k + idx + 1]
    r, s = high // unit, mid // low
    cut = tuple(x // (r * s) for x in places[:idx]) + tuple(x // s for x in places[idx + 1 : k + idx])
    table = DPTable(child.model, child.bag[:idx] + child.bag[idx + 1 :], {}, cut + places[k + idx + 1 :])
    top, out = table.places[idx], table.rows
    for key in sorted(rows):
        new_key = key // high * top + key % unit // mid * low + key % low
        entry, old = rows[key], out.get(new_key)
        if old is None or entry[0] < old[0]:
            out[new_key] = entry
    if not out:
        raise InfeasibleInstance(f"no configuration survives forgetting vertex {v}")
    return table


def dp_join(inst: Instance, left: DPTable, right: DPTable) -> DPTable:
    """Merge sibling tables over one bag.

    Rows combine when no bag vertex has more than its demand served by the
    two sides together (unsplittable: no positive demand is served on both
    sides); spare capacities add, and every completed copy u refunds w(u).

    Whether two rows combine depends only on their served-states, so rows
    are bucketed by state and each pair of states is tested once, by one
    `&` on packed codes; the merged state part then comes from key
    arithmetic, not from the codes.  Every row of a left bucket meets every
    row of each compatible right bucket.  Spare merges depend only on the
    two spare vectors and are memoized per join.  The work grows with
    compatible state pairs times their spare-vector pairs, not with all row
    pairs.  Pairs are visited in sorted (left key, right key) order and only
    a strictly cheaper pair replaces a row, so keys, costs, source rows
    and row order are those of a plain double loop over the sorted keys.
    """
    if left.bag != right.bag or left.model is not right.model:
        raise ValueError("join needs sibling tables over the same bag and model")
    vs, places = left.bag, left.places
    k = len(vs)
    # A key is its state part (residual digits at their places, a multiple
    # of `spares`) plus its spare part.  A compatible pair's merged residual
    # is rd1 + rd2 - d per bag vertex, within [0, d], so no digit carries or
    # borrows: the merged state part is state1 + state2 - unserved.
    spares = places[k]
    demands = [inst.demands[u] for u in vs]
    spare_digits = [
        (place, inst.capacities[u], inst.weights[u]) for place, u in zip(places[k + 1 :], vs) if inst.capacities[u]
    ]
    unserved = sum(d * place for d, place in zip(demands, places[1:]))

    # Compatibility is one `&` on ints: the served amounts d - rd packed as
    # B-bit digits, with B one bit wider than the largest demand so no digit
    # sum carries.  Left codes carry a guard of 2^(B-1) - 1 - d per digit,
    # so a digit of the sum reaches its top bit exactly when the two served
    # amounts exceed d.
    width = max(demands, default=0).bit_length() + 1
    clash = sum(1 << (width * i + width - 1) for i in range(k))
    guard = sum(((1 << (width - 1)) - 1 - d) << (width * i) for i, d in enumerate(demands))
    residual_digits = [(d, place, width * i) for i, (d, place) in enumerate(zip(demands, places[1:]))]

    def code(state: int) -> int:
        return sum((d - state // place % (d + 1)) << shift for d, place, shift in residual_digits)

    Bucket = list[tuple[int, int, Row]]  # (spare part, cost, row)

    def buckets(table: DPTable, offset: int) -> list[tuple[int, int, Bucket]]:
        # (state code + offset, state part, bucket), both levels in sorted key order
        by_state: dict[int, Bucket] = {}
        for key in sorted(table.rows):
            rc, row = key % spares, table.rows[key]
            by_state.setdefault(key - rc, []).append((rc, row[0], row))
        return [(code(state) + offset, state, rows) for state, rows in by_state.items()]

    def merge_spares(rc1: int, rc2: int) -> tuple[int, int]:
        refund = rc = 0
        for place, c, w in spare_digits:
            total = rc1 // place % c + rc2 // place % c
            refund += w * (total // c)
            rc += total % c * place
        return refund, rc

    right_buckets = buckets(right, 0)
    merges: dict[int, dict[int, tuple[int, int]]] = {}
    # merged key -> row, in the order first reached
    best: dict[int, Row] = {}
    for code1, state1, rows1 in buckets(left, guard):
        base = state1 - unserved
        partners = [(base + s2, rows2) for c2, s2, rows2 in right_buckets if not (code1 + c2) & clash]
        for rc1, cost1, row1 in rows1:
            memo = merges.setdefault(rc1, {})
            for state, rows2 in partners:
                for rc2, cost2, row2 in rows2:
                    merged = memo.get(rc2)
                    if merged is None:
                        merged = memo[rc2] = merge_spares(rc1, rc2)
                    refund, rc = merged
                    cost = cost1 + cost2 - refund
                    key = state + rc
                    old = best.get(key)
                    if old is None or cost < old[0]:
                        best[key] = (cost, None, row1, row2)
    return DPTable(left.model, vs, best, places)


def _vertex_rows(inst: Instance, model: DemandModel) -> list[int]:
    """Per vertex id: the rows it multiplies a bag's table by, its
    served-states times its spare values (1 at the padding id 0)."""
    unsplit = model is DemandModel.UNSPLITTABLE
    return [
        ((2 if d else 1) if unsplit else d + 1) * (c or 1) for d, c in zip(inst.demands, inst.capacities)
    ]


def predicted_work(inst: Instance, ntd: NiceTreeDecomposition, model: DemandModel) -> int:
    """Predicted DP work on `ntd`: the rows its introduces splice, summed.

    An introduce's rows are the product over its bag of served-states
    times spare values, an upper bound on what its table holds.  Every bag
    of two or more vertices ends in an introduce, so this is the total
    state space of the tree (Kjaerulff, 1990); what a forget routes and a
    join meets grows with the same bags, so neither is counted apart.
    """
    rows_of = _vertex_rows(inst, model)
    return sum(prod(rows_of[u] for u in node.bag) for node in ntd.post_order() if node.kind == INTRODUCE)


def choose_decomposition(inst: Instance, model: DemandModel) -> NiceTreeDecomposition:
    """The nice min-fill or BFS decomposition, whichever predicts less work.

    Ties keep min-fill.  Decompositions and nice forms are reached through
    `treewidth` module attributes, so callers that patch them see them.
    The BFS candidate is abandoned once it cannot pay: when one of its
    bags alone predicts at least min-fill's work (every bag of two or more
    vertices ends in an introduce of all its rows), or when its fill-in
    work passes min-fill's predicted work, so that building it would cost
    more than it could save.  On trees and stars, where BFS levels fill
    into cliques, this stops it within the first few levels.
    """
    min_fill = treewidth.make_nice(treewidth.heuristic_decomposition(inst))
    bound = predicted_work(inst, min_fill, model)
    rows_of = _vertex_rows(inst, model)

    def hopeless(bag: frozenset[int], fill_work: int) -> bool:
        return fill_work > bound or (len(bag) > 1 and prod(rows_of[u] for u in bag) >= bound)

    try:
        bfs = treewidth.decomposition_from_order(inst, treewidth.bfs_order(inst), hopeless)
    except treewidth.Abandoned:
        return min_fill
    bfs = treewidth.make_nice(bfs)
    return bfs if predicted_work(inst, bfs, model) < bound else min_fill


def solve_td(inst: Instance, ntd: NiceTreeDecomposition, model: DemandModel) -> Solution:
    """Bottom-up evaluation, then reconstruction along the root row's sources.

    The returned solution's cost always equals the root table's optimum;
    a mismatch would mean a table rule is wrong, so it is re-checked here.
    """
    require_feasible(inst)
    tables: dict[int, DPTable] = {}
    for node in ntd.post_order():
        kids = [tables.pop(id(child)) for child in node.children]
        if node.kind == LEAF:
            (v,) = node.bag
            tables[id(node)] = dp_leaf(inst, v, model)
        elif node.kind == INTRODUCE:
            tables[id(node)] = dp_introduce(inst, kids[0], node.vertex)
        elif node.kind == FORGET:
            tables[id(node)] = dp_forget(inst, kids[0], node.vertex)
        elif node.kind == JOIN:
            tables[id(node)] = dp_join(inst, *kids)
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")

    root_row = tables.pop(id(ntd.root)).rows.get(0)
    if root_row is None:
        raise InfeasibleInstance("no feasible configuration at the root")
    best_cost = root_row[0]

    assignment: dict[tuple[int, int], int] = {}
    stack: list[Row] = [root_row]
    while stack:
        row = stack.pop()
        if row[1]:
            consumer, server, amount = row[1]
            assignment[consumer, server] = assignment.get((consumer, server), 0) + amount
        stack.extend(row[2:])

    solution = minimum_multiplicities(inst, assignment)
    if solution.cost != best_cost:
        raise CapdomError(
            f"reconstruction cost {solution.cost} disagrees with table cost {best_cost}"
        )
    return solution


def cap_demands(inst: Instance) -> tuple[Instance, dict[tuple[int, int], int]]:
    """Splittable demands capped by capacity, and the units routed ahead.

    For each v with demand, u* is the server of N[v] with the least rate
    w/c (ties to the smallest id) and B(v) is the sum of
    lcm(c(u), c(u*)) - 1 over the other servers u of N[v].  If d(v) > B(v),
    t = (d(v) - B(v)) // c(u*) full copies of u* are set aside for v:
    t * c(u*) units of v route to u* ahead of the DP and v keeps the rest.

    Exchange: a server u != u* carrying lcm(c(u), c(u*)) units of v can
    hand them to u*, dropping lcm/c(u) copies of u for lcm/c(u*) copies
    of u*, which costs no more.  So some optimum routes at least
    d(v) - B(v) units of v to u*, and removing t * c(u*) of them frees
    exactly t copies: OPT = OPT(capped) + sum of t * w(u*).  That holds in
    the splittable model only.  Returns `inst` itself when nothing is
    capped.
    """
    weights, capacities = inst.weights, inst.capacities
    # d(v) - B(v) >= c(u*) needs d(v) >= every capacity in N[v], so a
    # demand below the least positive capacity is never capped.
    least = min((c for c in capacities if c), default=0)
    demands: dict[int, int] = {}
    routed: dict[tuple[int, int], int] = {}
    for v, d in enumerate(inst.demands):
        if not d or d < least:
            continue
        servers = [u for u in (v, *inst.adj[v]) if capacities[u]]
        if not servers:
            continue
        star = servers[0]
        for u in servers:
            # u's rate is below star's, or equal with the smaller id
            below = weights[u] * capacities[star] - weights[star] * capacities[u]
            if below < 0 or (below == 0 and u < star):
                star = u
        cs = capacities[star]
        slack = d - sum(lcm(capacities[u], cs) - 1 for u in servers if u != star)
        t = slack // cs
        if t > 0:
            demands[v] = d - t * cs
            routed[(v, star)] = t * cs
    if not routed:
        return inst, routed
    return with_demands(inst, demands), routed


def solve(inst: Instance, model: DemandModel, td: TreeDecomposition | None = None) -> Solution:
    """The DP optimum of `inst`, over `td` or the chosen decomposition.

    Splittable demands are capped first (`cap_demands`), so the tables'
    residual digits depend on capacities rather than on demands; the
    capped optimum is lifted by adding the units routed ahead, and the
    lifted solution is verified against `inst`.  An instance left without
    demand builds no table.  Decompositions and nice forms are reached
    through the `treewidth` and `tddp` module attributes, so callers that
    patch them see every call.
    """
    capped, routed = (inst, {}) if model is DemandModel.UNSPLITTABLE else cap_demands(inst)
    if not sum(capped.demands):
        solution = Solution({}, {}, 0)
    else:
        ntd = choose_decomposition(capped, model) if td is None else treewidth.make_nice(td)
        solution = solve_td(capped, ntd, model)
    if not routed:
        return solution
    assignment = dict(solution.assignment)
    for pair, amount in routed.items():
        assignment[pair] = assignment.get(pair, 0) + amount
    lifted = minimum_multiplicities(inst, assignment)
    expected = solution.cost + sum(
        amount // inst.capacities[u] * inst.weights[u] for (_, u), amount in routed.items()
    )
    report = verify_solution(inst, lifted, model)
    if lifted.cost != expected or not report.passed:
        raise CapdomError(f"lifted solution of cost {lifted.cost} (expected {expected}): {report}")
    return lifted
