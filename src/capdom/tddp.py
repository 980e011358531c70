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
values in `DPTable.places`; `encode_key` and `decode_key` are for tests.

Splittable demands are capped by capacity before a solve (`cap_demands`,
used by `solve`), so residual radices depend on capacities, not demands.

Spare capacities merge additively at joins: two half-filled copies fuse
into one full copy, refunding w(u) per completed copy.  Costs obey
cost = sum_u w(u) * ceil(load_u / c(u)) for the routing the back-pointers
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
    ceil_div,
    is_feasible,
    minimum_multiplicities,
    verify_solution,
    with_demands,
)
from . import treewidth
from .treewidth import FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDecomposition, TreeDecomposition

Triple = tuple[int, int, int]


class EmptyTable(CapdomError):
    """No configuration survived a forget node; propagates infeasibility."""


@dataclass
class DPRow:
    cost: int
    triples: tuple[Triple, ...]
    prev: tuple[int, ...]


@dataclass
class DPTable:
    model: DemandModel
    bag: tuple[int, ...]
    rows: dict[int, DPRow]
    # places[j] is the product of the radices of key digits j onward, so
    # digit j has place value places[j + 1] and every key is below places[0].
    places: tuple[int, ...]


def _places(radices: list[int]) -> tuple[int, ...]:
    places = [1]
    for radix in reversed(radices):
        places.append(places[-1] * radix)
    return tuple(reversed(places))


def layout(inst: Instance, bag: tuple[int, ...]) -> tuple[int, ...]:
    """The place values of keys over `bag` (see `DPTable.places`)."""
    return _places([inst.demand(u) + 1 for u in bag] + [max(inst.capacity(u), 1) for u in bag])


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


def _insert(table: DPTable, key: int, cost: int, triples: tuple[Triple, ...], prev: tuple[int, ...]):
    row = table.rows.get(key)
    if row is None or cost < row.cost:
        table.rows[key] = DPRow(cost, triples, prev)


def _spare(load: int, c: int) -> int:
    # Unused capacity of the ceil(load/c) copies holding the load.
    return (-load) % c if c > 0 else 0


def dp_leaf(inst: Instance, v: int, model: DemandModel) -> DPTable:
    """Leaf table: v unserved, or v's demand routed to itself.

    The unsplittable model routes the whole demand, the splittable model
    any portion of it.  A zero-demand vertex has the single row rd = 0.
    """
    d, c, w = inst.demand(v), inst.capacity(v), inst.weight(v)
    table = DPTable(model, (v,), {}, layout(inst, (v,)))
    _insert(table, d * table.places[1], 0, (), ())
    if d and c > 0:
        amounts = (d,) if model is DemandModel.UNSPLITTABLE else range(1, d + 1)
        for amount in amounts:
            _insert(
                table,
                (d - amount) * table.places[1] + _spare(amount, c),
                w * ceil_div(amount, c),
                ((v, v, amount),),
                (),
            )
    return table


# A row under construction: (cost, triples so far, child key).
_Partial = tuple[int, tuple[Triple, ...], int]

# A server offered by a stage: (place of its spare digit, capacity > 0,
# weight, consumer, server), the last two naming the triple a move records.
_Server = tuple[int, int, int, int, int]


def _stage(
    rows: dict[int, _Partial], places: tuple[int, ...], src: int, servers: list[_Server], whole: bool
) -> dict[int, _Partial]:
    """One micro-transition: keep each row, or move the residual demand at
    bag position `src` onto the copies of one of `servers`, offered in
    order.  A move routes the whole residual (`whole`) or any 1..rd units.

    A move lowers the residual at `src` and changes no other residual, so
    it lands on a key that sorts before its source row.  Keys are visited
    in sorted order, so no row reaches a key before that key's own keep
    move, and the keep move needs no cost test.
    """
    unit, radix = places[src + 1], places[src] // places[src + 1]
    out: dict[int, _Partial] = {}
    get = out.get
    for key in sorted(rows):
        entry = rows[key]
        out[key] = entry
        left = key // unit % radix
        if not left:
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
                    out[new_key] = (new_cost, entry[1] + ((consumer, server, amount),), entry[2])
    return out


def dp_introduce(inst: Instance, child: DPTable, v: int, bag: tuple[int, ...]) -> DPTable:
    """Introduce v: optionally serve bag neighbors with v, then route v's demand.

    Serving choices cover every unserved bag neighbor of v, whole
    (unsplittable) or in any portion (splittable); v's own demand may go
    to any positive-capacity vertex of the new bag inside N[v], stay
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
    idx, k, places = new_bag.index(v), len(new_bag), layout(inst, new_bag)
    nbrs = inst.neighbors(v)
    cv, wv, dv = inst.capacity(v), inst.weight(v), inst.demand(v)
    whole = child.model is DemandModel.UNSPLITTABLE

    # Seed: v joins the bag unserved with no copies bought, so spare 0.
    # Its residual and spare digits are spliced into each child key at bag
    # position idx, so child keys map one-to-one onto seeded keys.
    high, low = child.places[idx], child.places[k - 1 + idx]
    top, mid, seed = places[idx], places[k + idx], dv * places[idx + 1]
    rows: dict[int, _Partial] = {}
    for key, row in child.rows.items():
        rows[key // high * top + seed + key % high // low * mid + key % low] = (row.cost, (), key)

    if cv > 0:
        # Pull stages: serve bag neighbors with copies of v, one at a time.
        # A neighbor without demand has nothing to pull: its stage would
        # only keep every row.
        for pos, u in enumerate(new_bag):
            if u in nbrs and inst.demand(u):
                rows = _stage(rows, places, pos, [(places[k + idx + 1], cv, wv, u, v)], whole)

    # Routing stages: v's own demand goes whole to one server, or in
    # portions to each server in turn.
    if dv:
        servers = [
            (places[k + pos + 1], inst.capacity(s), inst.weight(s), v, s)
            for pos, s in enumerate(new_bag)
            if (s == v or s in nbrs) and inst.capacity(s) > 0
        ]
        for group in [servers] if whole else [[s] for s in servers]:
            rows = _stage(rows, places, idx, group, whole)

    table = DPTable(child.model, new_bag, {}, places)
    for key in sorted(rows):
        cost, triples, origin = rows[key]
        table.rows[key] = DPRow(cost, triples, (origin,))
    return table


def dp_forget(child: DPTable, v: int) -> DPTable:
    """Drop v, keeping only rows where v's demand is fully routed."""
    idx, k, places = child.bag.index(v), len(child.bag), child.places
    radices = [hi // lo for hi, lo in zip(places, places[1:])]
    del radices[k + idx], radices[idx]
    table = DPTable(child.model, child.bag[:idx] + child.bag[idx + 1 :], {}, _places(radices))
    # Rows keep v's residual digit 0; v's two digits are cut out and the
    # digits above, between and below them close up.
    high, unit, mid, low = places[idx], places[idx + 1], places[k + idx], places[k + idx + 1]
    top = table.places[idx]
    for key in sorted(child.rows):
        if key % high >= unit:
            continue
        new_key = key // high * top + key % unit // mid * low + key % low
        _insert(table, new_key, child.rows[key].cost, (), (key,))
    if not table.rows:
        raise EmptyTable(f"no configuration survives forgetting vertex {v}")
    return table


def dp_join(inst: Instance, left: DPTable, right: DPTable, bag: tuple[int, ...] | None = None) -> DPTable:
    """Merge sibling tables over one bag.

    Rows combine when no bag vertex has more than its demand served by the
    two sides together (unsplittable: no positive demand is served on both
    sides); spare capacities add, and every completed copy u refunds w(u).

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
    vs, places = left.bag, left.places
    k = len(vs)
    # A key is its state part (the residual digits) times `spares`, plus
    # its spare part (the spare digits).
    spares = places[k]
    demands = [inst.demand(u) for u in vs]
    spare_digits = [
        (place, inst.capacity(u), inst.weight(u)) for place, u in zip(places[k + 1 :], vs) if inst.capacity(u)
    ]

    # Served-states become ints, so a pair of states is tested with one
    # `&`: the served amounts d - rd packed as B-bit digits, with B one bit
    # wider than the largest demand so no digit sum carries.  Left codes
    # carry a guard of 2^(B-1) - 1 - d per digit, so a digit of the sum
    # reaches its top bit exactly when the two served amounts exceed d.
    # `merged_of` maps the combined int back to the merged state part.
    width = max(demands, default=0).bit_length() + 1
    digit = (1 << width) - 1
    clash = sum(1 << (width * i + width - 1) for i in range(k))
    guard = sum(((1 << (width - 1)) - 1 - d) << (width * i) for i, d in enumerate(demands))
    residual_digits = [(d, place, width * i) for i, (d, place) in enumerate(zip(demands, places[1:]))]

    def code(key: int) -> int:
        return sum((d - key // place % (d + 1)) << shift for d, place, shift in residual_digits)

    def merged_of(combined: int) -> int:
        combined -= guard
        return sum((d - (combined >> shift & digit)) * place for d, place, shift in residual_digits)

    Bucket = list[tuple[int, int, int]]  # (spare part, cost, key)

    def buckets(table: DPTable, offset: int) -> list[tuple[int, Bucket]]:
        # (state code + offset, bucket), both levels in sorted key order
        by_state: dict[int, Bucket] = {}
        for key in sorted(table.rows):
            by_state.setdefault(key // spares, []).append((key % spares, table.rows[key].cost, key))
        return [(code(rows[0][2]) + offset, rows) for rows in by_state.values()]

    def merge_spares(rc1: int, rc2: int) -> tuple[int, int]:
        refund = rc = 0
        for place, c, w in spare_digits:
            total = rc1 // place % c + rc2 // place % c
            refund += w * (total // c)
            rc += total % c * place
        return refund, rc

    right_buckets = buckets(right, 0)
    merged_states: dict[int, int] = {}
    merges: dict[int, dict[int, tuple[int, int]]] = {}
    # merged key -> (cost, left key, right key), in the order first reached
    best: dict[int, tuple[int, int, int]] = {}
    for code1, rows1 in buckets(left, guard):
        partners = []
        for code2, rows2 in right_buckets:
            combined = code1 + code2
            if combined & clash:
                continue
            state = merged_states.get(combined)
            if state is None:
                state = merged_states[combined] = merged_of(combined)
            partners.append((state, rows2))
        for rc1, cost1, k1 in rows1:
            memo = merges.setdefault(rc1, {})
            for state, rows2 in partners:
                for rc2, cost2, k2 in rows2:
                    merged = memo.get(rc2)
                    if merged is None:
                        merged = memo[rc2] = merge_spares(rc1, rc2)
                    refund, rc = merged
                    cost = cost1 + cost2 - refund
                    key = state + rc
                    old = best.get(key)
                    if old is None or cost < old[0]:
                        best[key] = (cost, k1, k2)
    rows = {key: DPRow(cost, (), (k1, k2)) for key, (cost, k1, k2) in best.items()}
    return DPTable(left.model, vs, rows, places)


# Cost of one predicted introduce row over that of one predicted join pair.
# Calibrated from three traced `dp_grid` passes with int keys (`perfbench/
# run.py --workload dp_grid --seed 7 --trace 1`, Python 3.11, 2-core VM):
# introduce_s / introduce_rows = 1.6-2.0 us per row (27,910 rows) and
# join_s / join_pairs = 0.024-0.029 us per pair (831,981 pairs), a ratio of
# 65-71, near the low end of the range that works.  The trace counts every
# row pair of a join, the prediction only the compatible ones; the ranking
# tolerates that: any value from 43 to 2,248 orders min-fill and BFS on
# CHOICE_GRIDS in tests/test_tddp.py and on the `dp_grid` grids as their
# measured DP times do.
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
    introduce_rows = join_pairs = 0
    stack: list[tuple[int, int | None]] = [(td.root_id(), None)]
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

    root_row = tables[id(ntd.root)].rows.get(0)
    if root_row is None:
        raise InfeasibleInstance("no feasible configuration at the root")
    best_cost = root_row.cost

    assignment: dict[tuple[int, int], int] = {}
    stack: list[tuple[object, int]] = [(ntd.root, 0)]
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
    attrs, closed = inst.attrs, inst.closed
    # d(v) - B(v) >= c(u*) needs d(v) >= every capacity in N[v], so a
    # demand below the least positive capacity is never capped.
    least = min((a.capacity for a in attrs if a.capacity), default=0)
    demands: dict[int, int] = {}
    routed: dict[tuple[int, int], int] = {}
    for v, a in enumerate(attrs, 1):
        d = a.demand
        if not d or d < least:
            continue
        servers = [(u, attrs[u - 1]) for u in closed[v] if attrs[u - 1].capacity]
        if not servers:
            continue
        star, best = servers[0]
        for u, b in servers:
            # b's rate is below best's, or equal with the smaller id
            below = b.weight * best.capacity - best.weight * b.capacity
            if below < 0 or (below == 0 and u < star):
                star, best = u, b
        cs = best.capacity
        slack = d - sum(lcm(b.capacity, cs) - 1 for u, b in servers if u != star)
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
    if not capped.total_demand():
        solution = Solution.empty()
    else:
        if td is None:
            td = choose_decomposition(capped, model)
        solution = solve_td(capped, treewidth.make_nice(td), model)
    if not routed:
        return solution
    assignment = dict(solution.assignment)
    for pair, amount in routed.items():
        assignment[pair] = assignment.get(pair, 0) + amount
    lifted = minimum_multiplicities(inst, assignment)
    expected = solution.cost + sum(
        amount // inst.capacity(u) * inst.weight(u) for (_, u), amount in routed.items()
    )
    report = verify_solution(inst, lifted, model)
    if lifted.cost != expected or not report.passed:
        raise CapdomError(f"lifted solution of cost {lifted.cost} (expected {expected}): {report}")
    return lifted
