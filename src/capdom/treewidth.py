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

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from .core import CapdomError, Instance, ParseError, Report, is_comment, parse_ints


class InvalidDecomposition(CapdomError):
    """The given decomposition breaks a structural requirement."""


@dataclass
class TreeDecomposition:
    """Bags indexed by id plus tree edges between bag ids."""

    bags: dict[int, frozenset[int]]
    tree_edges: list[tuple[int, int]]

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
    adj = td.neighbors()
    start = min(ids)
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if seen != ids:
        problems.append("bag graph is disconnected")
    if problems:
        return Report(False, problems)

    covered = frozenset().union(*td.bags.values())
    missing = set(inst.vertices()) - covered
    if missing:
        problems.append(f"vertices in no bag: {sorted(missing)}")
    for v in sorted(covered - set(inst.vertices())):
        problems.append(f"bag contains unknown vertex {v}")
    for u, v in inst.edges:
        if not any(u in bag and v in bag for bag in td.bags.values()):
            problems.append(f"edge ({u},{v}) not covered by any bag")
    for v in inst.vertices():
        holding = {i for i, bag in td.bags.items() if v in bag}
        if not holding:
            continue
        start = min(holding)
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt in holding and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if seen != holding:
            problems.append(f"bags containing vertex {v} are not connected")
    return Report(not problems, problems)


def min_fill_order(inst: Instance) -> list[int]:
    """Elimination order greedily minimizing fill edges, ties by vertex id.

    fill[v] counts the non-adjacent pairs in N(v).  It is kept by deltas:
    eliminating x and adding the fill edges that make N(x) a clique only
    moves the counts of N(x) and of the common neighbors of each new edge.
    """
    adj: dict[int, set[int]] = {v: set(inst.neighbors(v)) for v in inst.vertices()}
    fill = {
        v: sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2 for v, nbrs in adj.items()
    }
    order: list[int] = []
    while fill:
        _, x = min((f, v) for v, f in fill.items())
        del fill[x]
        nbrs = adj.pop(x)
        for a in nbrs:
            # x leaves N(a), and with it the pairs (x, b), b not in N(x)
            adj[a].discard(x)
            fill[a] -= len(adj[a] - nbrs)
        for a in nbrs:
            for b in nbrs:
                if a < b and b not in adj[a]:
                    # (a, b) stops being a missing pair of every common
                    # neighbor; a gains the missing pairs (b, c) for c in
                    # N(a) \ N(b), and b the mirror ones
                    for w in adj[a] & adj[b]:
                        fill[w] -= 1
                    fill[a] += len(adj[a] - adj[b])
                    fill[b] += len(adj[b] - adj[a])
                    adj[a].add(b)
                    adj[b].add(a)
        order.append(x)
    return order


def bfs_order(inst: Instance) -> list[int]:
    """Breadth-first elimination order (Cuthill–McKee style).

    Each component is searched from its smallest vertex id, neighbors in
    increasing id; components follow in order of their smallest id.  On
    grid-like graphs this sweeps level by level, which gives a path-like
    decomposition without join nodes.
    """
    seen: set[int] = set()
    order: list[int] = []
    for start in inst.vertices():
        if start in seen:
            continue
        seen.add(start)
        head = len(order)
        order.append(start)
        while head < len(order):
            u = order[head]
            head += 1
            for v in sorted(inst.neighbors(u)):
                if v not in seen:
                    seen.add(v)
                    order.append(v)
    return order


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
    position = {v: i for i, v in enumerate(order)}
    adj: dict[int, set[int]] = {v: set(inst.neighbors(v)) for v in inst.vertices()}
    bag_of: dict[int, int] = {}
    bags: dict[int, frozenset[int]] = {}
    later_neighbor: dict[int, int | None] = {}
    fill_work = 0
    for idx, v in enumerate(order, 1):
        nbrs = set(adj[v])
        bags[idx] = frozenset(nbrs | {v})
        if give_up is not None:
            fill_work += len(nbrs) ** 2
            if give_up(bags[idx], fill_work):
                raise Abandoned
        bag_of[v] = idx
        later_neighbor[idx] = min(nbrs, key=lambda u: position[u]) if nbrs else None
        for a in nbrs:
            adj[a].discard(v)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        del adj[v]
    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for idx in sorted(bags):
        nxt = later_neighbor[idx]
        if nxt is None:
            roots.append(idx)
        else:
            edges.append((idx, bag_of[nxt]))
    for a, b in zip(roots, roots[1:]):
        edges.append((a, b))
    td = TreeDecomposition(bags, edges)
    return _absorb_subset_bags(td)


def _absorb_subset_bags(td: TreeDecomposition) -> TreeDecomposition:
    """Contract bags that are subsets of a neighbor; then reindex densely."""
    bags = dict(td.bags)
    adj = td.neighbors()
    changed = True
    while changed:
        changed = False
        for i in sorted(bags):
            for j in sorted(adj[i]):
                if bags[i] <= bags[j]:
                    for other in adj[i]:
                        if other != j:
                            adj[other].discard(i)
                            adj[other].add(j)
                            adj[j].add(other)
                    adj[j].discard(i)
                    del bags[i]
                    del adj[i]
                    changed = True
                    break
            if changed:
                break
    rename = {old: new for new, old in enumerate(sorted(bags), 1)}
    new_bags = {rename[i]: bag for i, bag in bags.items()}
    new_edges = sorted(
        (min(rename[a], rename[b]), max(rename[a], rename[b]))
        for a in adj
        for b in adj[a]
        if a < b
    )
    return TreeDecomposition(new_bags, new_edges)


def heuristic_decomposition(inst: Instance) -> TreeDecomposition:
    """Valid decomposition via min-fill; deterministic, no width guarantee."""
    return decomposition_from_order(inst, min_fill_order(inst))


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

    Rooted at the bag holding the smallest vertex id; forget/introduce
    chains bridge adjacent bags, joins get a binary spine, and a final
    forget chain empties the root bag.  `tddp.predicted_work` walks the
    plain decomposition the same way (root, sorted leaf chains, bridges,
    one join per extra child) and must change with it.
    """
    if not td.bags:
        raise InvalidDecomposition("no bags")
    if any(not bag for bag in td.bags.values()):
        raise InvalidDecomposition("empty bag")
    adj = td.neighbors()
    lowest = min(min(bag) for bag in td.bags.values())
    root_id = min(i for i, bag in td.bags.items() if lowest in bag)

    def build_leaf_chain(bag: frozenset[int]) -> NiceNode:
        ordered = sorted(bag)
        node = NiceNode(LEAF, frozenset([ordered[0]]))
        for v in ordered[1:]:
            node = NiceNode(INTRODUCE, node.bag | {v}, vertex=v, children=[node])
        return node

    def adapt(node: NiceNode, target: frozenset[int]) -> NiceNode:
        for v in sorted(node.bag - target):
            node = NiceNode(FORGET, node.bag - {v}, vertex=v, children=[node])
        for v in sorted(target - node.bag):
            node = NiceNode(INTRODUCE, node.bag | {v}, vertex=v, children=[node])
        return node

    def build(bag_id: int, parent: int | None) -> NiceNode:
        bag = td.bags[bag_id]
        kids = sorted(k for k in adj[bag_id] if k != parent)
        if not kids:
            return build_leaf_chain(bag)
        subtrees = [adapt(build(k, bag_id), bag) for k in kids]
        node = subtrees[0]
        for other in subtrees[1:]:
            node = NiceNode(JOIN, bag, children=[node, other])
        return node

    top = build(root_id, None)
    for v in sorted(top.bag):
        top = NiceNode(FORGET, top.bag - {v}, vertex=v, children=[top])
    return NiceTreeDecomposition(top)


def validate_nice(ntd: NiceTreeDecomposition) -> Report:
    """Structural checks on node kinds, bag deltas, and the empty root."""
    problems: list[str] = []
    if ntd.root.bag:
        problems.append("root bag is not empty")
    for node in ntd.post_order():
        if node.kind == LEAF:
            if node.children or len(node.bag) != 1:
                problems.append("leaf must be childless with a singleton bag")
        elif node.kind == INTRODUCE:
            if len(node.children) != 1 or node.vertex is None:
                problems.append("introduce needs one child and a vertex")
            elif node.bag != node.children[0].bag | {node.vertex} or node.vertex in node.children[0].bag:
                problems.append(f"introduce of {node.vertex} has wrong bags")
        elif node.kind == FORGET:
            if len(node.children) != 1 or node.vertex is None:
                problems.append("forget needs one child and a vertex")
            elif node.bag != node.children[0].bag - {node.vertex} or node.vertex not in node.children[0].bag:
                problems.append(f"forget of {node.vertex} has wrong bags")
        elif node.kind == JOIN:
            if len(node.children) != 2:
                problems.append("join needs two children")
            elif any(child.bag != node.bag for child in node.children):
                problems.append("join children bags must equal the join bag")
        else:
            problems.append(f"unknown node kind {node.kind!r}")
    return Report(not problems, problems)


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
    declared = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or is_comment(line):
            continue
        parts = line.split()
        if parts[0] == "s":
            if declared is not None:
                raise ParseError(line_no, "duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(line_no, "header must be 's td <#bags> <max_bag_size> <n>'")
            declared = parse_ints(parts[2:], line_no)
        elif parts[0] == "b":
            if declared is None:
                raise ParseError(line_no, "bag line before header")
            if len(parts) < 2:
                raise ParseError(line_no, "bag line must be 'b <bag_id> <v...>'")
            bag_id, *members = parse_ints(parts[1:], line_no)
            if bag_id in bags:
                raise ParseError(line_no, f"duplicate bag {bag_id}")
            bags[bag_id] = frozenset(members)
        else:
            if declared is None:
                raise ParseError(line_no, "tree edge before header")
            if len(parts) != 2:
                raise ParseError(line_no, "tree edge must be '<bag> <bag>'")
            a, b = parse_ints(parts, line_no)
            edges.append((a, b))
    if declared is None:
        raise ParseError(0, "missing 's td' header")
    if len(bags) != declared[0]:
        raise ParseError(0, f"header declares {declared[0]} bags, found {len(bags)}")
    return TreeDecomposition(bags, edges)


def save_td(td: TreeDecomposition, n: int) -> str:
    max_bag = max((len(b) for b in td.bags.values()), default=0)
    lines = [f"s td {len(td.bags)} {max_bag} {n}"]
    for i in sorted(td.bags):
        lines.append("b " + " ".join([str(i)] + [str(v) for v in sorted(td.bags[i])]))
    for a, b in sorted((min(e), max(e)) for e in td.tree_edges):
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
