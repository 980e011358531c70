"""Tree decompositions: validation, a min-fill heuristic, and nice form.

The solvers downstream only need *some* valid decomposition; no width
optimality is claimed.  Nice decompositions are rooted with an empty root
bag and use exactly four node kinds: leaf, introduce, forget, join.

PACE-style .td files are the on-disk format:
    s td <#bags> <max_bag_size> <n>
    b <bag_id> <v...>
    <bag_id> <bag_id>          (tree edges)
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .core import CapdomError, Instance, ParseError, Report, parse_ints, records


class InvalidDecomposition(CapdomError):
    """The given decomposition breaks a structural requirement."""


@dataclass
class TreeDecomposition:
    """Bags indexed by id plus tree edges between bag ids, and a loaded file's header n."""

    bags: dict[int, frozenset[int]]
    tree_edges: list[tuple[int, int]]
    n: int | None = field(default=None, compare=False)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    def neighbors(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in self.bags}
        for a, b in self.tree_edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def validate_td(inst: Instance, td: TreeDecomposition) -> Report:
    """Check tree shape, vertex and edge coverage, and bag connectivity."""
    problems: list[str] = []
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
    if bfs_parents(min(ids), td.neighbors()).keys() != ids:
        problems.append("bag graph is disconnected")
    if problems:
        return Report(False, problems)

    holding: dict[int, set[int]] = {}
    for i, bag in td.bags.items():
        for v in bag:
            holding.setdefault(v, set()).add(i)
    if td.n is not None and td.n != inst.n:
        problems.append(f"header declares {td.n} vertices, instance has {inst.n}")
    vertices = set(inst.vertices())
    missing = vertices - holding.keys()
    if missing:
        problems.append(f"vertices in no bag: {sorted(missing)}")
    for v in sorted(holding.keys() - vertices):
        problems.append(f"bag contains unknown vertex {v}")
    for u, v in inst.edges:
        if u not in holding or holding[u].isdisjoint(holding.get(v, ())):
            problems.append(f"edge ({u},{v}) not covered by any bag")
    # The bag graph is a tree, so the bags holding v are connected exactly
    # when the tree edges joining two of them are one fewer than the bags.
    inside = dict.fromkeys(holding, 0)
    for a, b in td.tree_edges:
        for v in td.bags[a] & td.bags[b]:
            inside[v] += 1
    for v in inst.vertices():
        if v in holding and inside[v] != len(holding[v]) - 1:
            problems.append(f"bags containing vertex {v} are not connected")
    return Report(not problems, problems)


def min_fill_order(inst: Instance) -> tuple[list[int], list[frozenset[int]]]:
    """Elimination order greedily minimizing fill edges, ties by vertex id,
    with the bag N(x) + x of each eliminated x, in that order.

    fill[v] counts the non-adjacent pairs in N(v).  It is kept by deltas:
    eliminating x and adding the fill edges that make N(x) a clique only
    moves the counts of N(x) and of the common neighbors of each new edge.
    The least (fill, id) comes off a heap that gets a fresh entry whenever
    a count moves; an entry whose count is no longer current is skipped.
    """
    adj: dict[int, set[int]] = {v: set(inst.adj[v]) for v in inst.vertices()}
    fill = {
        v: sum(len(nbrs) - len(nbrs & adj[a]) - 1 for a in nbrs) // 2 for v, nbrs in adj.items()
    }
    heap = sorted((f, v) for v, f in fill.items())  # a sorted list is a heap
    order: list[int] = []
    bags: list[frozenset[int]] = []
    while fill:
        f, x = heapq.heappop(heap)
        if fill.get(x) != f:
            continue
        del fill[x]
        nbrs = adj.pop(x)
        moved = set(nbrs)
        for a in nbrs:
            # x leaves N(a), and with it the pairs (x, b), b not in N(x)
            adj[a].discard(x)
            fill[a] -= len(adj[a]) - len(adj[a] & nbrs)
        for a in nbrs:
            if not f:  # the f missing pairs of N(x) are all filled
                break
            for b in nbrs - adj[a]:
                if a < b:
                    f -= 1
                    # (a, b) stops being a missing pair of every common
                    # neighbor; a gains the missing pairs (b, c) for c in
                    # N(a) - N(b), and b the mirror ones
                    common = adj[a] & adj[b]
                    for w in common:
                        fill[w] -= 1
                    moved |= common
                    fill[a] += len(adj[a]) - len(common)
                    fill[b] += len(adj[b]) - len(common)
                    adj[a].add(b)
                    adj[b].add(a)
        for v in moved:
            heapq.heappush(heap, (fill[v], v))
        order.append(x)
        bags.append(frozenset(nbrs) | {x})
    return order, bags


def bfs_parents(
    root: int, neighbors: Mapping[int, Iterable[int]] | Sequence[Iterable[int]]
) -> dict[int, int | None]:
    """Breadth-first search from `root`, visiting neighbors in id order.

    Maps each node reached to the node it was first reached from, in
    visiting order; the root maps to None.
    """
    parent: dict[int, int | None] = {root: None}
    queue = [root]
    for u in queue:
        for v in sorted(neighbors[u]):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def components(inst: Instance) -> Iterator[list[list[int]]]:
    """BFS levels of each component, searched from its smallest vertex id,
    in order of that id.  Level i lists the vertices at distance i in
    visiting order; adjacent vertices differ by at most one level."""
    seen: set[int] = set()
    for start in inst.vertices():
        if start not in seen:
            depth: dict[int, int] = {}
            levels: list[list[int]] = []
            for v, u in bfs_parents(start, inst.adj).items():
                depth[v] = 0 if u is None else depth[u] + 1
                if depth[v] == len(levels):
                    levels.append([])
                levels[-1].append(v)
            seen.update(depth)
            yield levels


def bfs_order(inst: Instance) -> list[int]:
    """Breadth-first elimination order (Cuthill–McKee style).

    The visiting orders of the `components`, concatenated.  On grid-like
    graphs this sweeps level by level, which gives a path-like
    decomposition without join nodes.
    """
    return [v for levels in components(inst) for level in levels for v in level]


class Abandoned(Exception):
    """`decomposition_from_order` stopped because `give_up` said so."""


def decomposition_from_order(
    inst: Instance,
    order: list[int],
    give_up: Callable[[frozenset[int], int], bool] | None = None,
) -> TreeDecomposition:
    """Standard fill-in construction along an elimination order.

    `give_up`, if given, sees each new bag before its fill-in, with the
    fill-in work done so far including this bag's (the sum of |N(v)|^2
    over the eliminated v).  When it returns true, `Abandoned` is raised
    before that work is done.
    """
    if sorted(order) != list(inst.vertices()):
        raise ValueError("order must be a permutation of the vertices")
    adj: dict[int, set[int]] = {v: set(inst.adj[v]) for v in inst.vertices()}
    bags: list[frozenset[int]] = []
    fill_work = 0
    for v in order:
        nbrs = adj.pop(v)
        bags.append(frozenset(nbrs) | {v})
        fill_work += len(nbrs) ** 2
        if give_up is not None and give_up(bags[-1], fill_work):
            raise Abandoned
        for a in nbrs:
            adj[a] |= nbrs
            adj[a] -= {a, v}
    return _tree_from_elimination(order, bags)


def _tree_from_elimination(order: list[int], bags: list[frozenset[int]]) -> TreeDecomposition:
    """The tree of an elimination, where bags[i] holds order[i] and its
    later neighbors.  Each bag hangs below the bag of its first-eliminated
    later neighbor, and the roots are chained.  One pass in bag order then
    contracts each bag that is a subset of a current neighbor into the
    lowest such neighbor; the survivors keep their order, renumbered from 1.
    """
    position = {v: i for i, v in enumerate(order)}
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for i, (v, bag) in enumerate(zip(order, bags)):
        if len(bag) > 1:
            edges.append((i, min(position[u] for u in bag if u != v)))
        else:
            roots.append(i)
    edges += zip(roots, roots[1:])
    adj = TreeDecomposition(dict(enumerate(bags)), edges).neighbors()
    kept: list[int] = []
    for i, bag in enumerate(bags):
        into = min((j for j in adj[i] if bag <= bags[j]), default=None)
        if into is None:
            kept.append(i)
            continue
        adj[into].discard(i)
        for other in adj[i] - {into}:
            adj[other].discard(i)
            adj[other].add(into)
            adj[into].add(other)
    rename = {old: new for new, old in enumerate(kept, 1)}
    return TreeDecomposition(
        {rename[i]: bags[i] for i in kept},
        sorted((rename[a], rename[b]) for a in kept for b in adj[a] if a < b),
    )


def heuristic_decomposition(inst: Instance) -> TreeDecomposition:
    """Valid decomposition via min-fill; deterministic, no width guarantee."""
    return _tree_from_elimination(*min_fill_order(inst))


LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass
class NiceNode:
    kind: str
    bag: frozenset[int]
    vertex: int | None = None
    children: list["NiceNode"] = field(default_factory=list)


@dataclass
class NiceTreeDecomposition:
    """Rooted nice decomposition; the root bag is always empty."""

    root: NiceNode

    def post_order(self) -> list[NiceNode]:
        out: list[NiceNode] = []
        stack: list[NiceNode] = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children)
        out.reverse()
        return out

    @property
    def width(self) -> int:
        return max(len(n.bag) for n in self.post_order()) - 1

    def node_count(self) -> int:
        return len(self.post_order())


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form of the same width.

    Rooted at the lowest-id bag holding the smallest vertex id;
    forget/introduce chains bridge adjacent bags, the children of a bag
    are joined in id order along a binary spine, and a final forget chain
    empties the root bag.  An empty bag without children adds no node,
    so nice forms, whose root bag is empty, convert again.  Bags are
    built children first from a breadth-first listing, so deep
    decompositions need no recursion.
    """
    if not td.bags:
        raise InvalidDecomposition("no bags")
    if not any(td.bags.values()):
        raise InvalidDecomposition("empty bag")

    def adapt(node: NiceNode, target: frozenset[int]) -> NiceNode:
        for v in sorted(node.bag - target):
            node = NiceNode(FORGET, node.bag - {v}, vertex=v, children=[node])
        for v in sorted(target - node.bag):
            node = NiceNode(INTRODUCE, node.bag | {v}, vertex=v, children=[node])
        return node

    lowest = min(min(bag) for bag in td.bags.values() if bag)
    root = min(i for i, bag in td.bags.items() if lowest in bag)
    parent = bfs_parents(root, td.neighbors())
    subtrees: dict[int, list[NiceNode]] = {bag_id: [] for bag_id in parent}
    for bag_id in reversed(parent):
        bag = td.bags[bag_id]
        below = subtrees.pop(bag_id)[::-1]  # children finish last-visited first
        if not below and bag:
            below = [adapt(NiceNode(LEAF, frozenset({min(bag)})), bag)]
        node = below[0] if below else None
        for other in below[1:]:
            node = NiceNode(JOIN, bag, children=[node, other])
        up = parent[bag_id]
        if up is not None and node is not None:
            subtrees[up].append(adapt(node, td.bags[up]))
    return NiceTreeDecomposition(adapt(node, frozenset()))  # the root's node, built last


def project_nice(ntd: NiceTreeDecomposition) -> TreeDecomposition:
    """Forget the node types: bags plus parent-child tree edges."""
    nodes = ntd.post_order()
    index = {id(node): i + 1 for i, node in enumerate(nodes)}
    bags = {index[id(node)]: node.bag for node in nodes}
    edges = [
        (index[id(child)], index[id(node)])
        for node in nodes
        for child in node.children
    ]
    return TreeDecomposition(bags, edges)


def load_td(text: str) -> TreeDecomposition:
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    lines = records(text, "s td")
    line_no, parts = next(lines)
    if len(parts) != 5 or parts[1] != "td":
        raise ParseError(line_no, "header must be 's td <#bags> <max_bag_size> <n>'")
    num_bags, max_bag, n = parse_ints(parts[2:], line_no)
    for line_no, parts in lines:
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError(line_no, "bag line must be 'b <bag_id> <v...>'")
            bag_id, *members = parse_ints(parts[1:], line_no)
            if bag_id in bags:
                raise ParseError(line_no, f"duplicate bag {bag_id}")
            if not all(1 <= v <= n for v in members):
                raise ParseError(line_no, f"bag {bag_id} holds a vertex outside 1..{n}")
            bags[bag_id] = frozenset(members)
        else:
            if len(parts) != 2:
                raise ParseError(line_no, "tree edge must be '<bag> <bag>'")
            a, b = parse_ints(parts, line_no)
            edges.append((a, b))
    if len(bags) != num_bags:
        raise ParseError(0, f"header declares {num_bags} bags, found {len(bags)}")
    largest = max(map(len, bags.values()), default=0)
    if largest != max_bag:
        raise ParseError(0, f"header declares max bag size {max_bag}, found {largest}")
    return TreeDecomposition(bags, edges, n)


def save_td(td: TreeDecomposition, n: int) -> str:
    max_bag = max((len(b) for b in td.bags.values()), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {n}"]
    for i in sorted(td.bags):
        lines.append("b " + " ".join([str(i)] + [str(v) for v in sorted(td.bags[i])]))
    for a, b in sorted((min(e), max(e)) for e in td.tree_edges):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
