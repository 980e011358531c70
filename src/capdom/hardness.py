"""Generator for the clique-to-domination gadget plus its verifiers.

A k-partitioned clique question becomes a domination instance built from
stars and bridges: selector nodes force one member per star, bridge
capacities are exactly one label short of their neighborhood's demand,
and paired propagation nodes (label, N - label) make the shortfalls cancel
only when the star choices are mutually consistent, i.e. form a clique.

Budget for the yes-side: every bridge once (2k(k-1) nodes), one member
per vertex star (k) and per edge star (k(k-1)/2), so
k* = 2k(k-1) + k(k+1)/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .core import (
    CapdomError,
    InfeasibleInstance,
    Instance,
    ParseError,
    Report,
    Solution,
    parse_edge,
    parse_ints,
    records,
    DemandModel,
)
from .oracle import CostBoundExceeded, SearchBudget, exact_solve


class InvalidCliqueInstance(CapdomError):
    """The k-partitioned input breaks one of its invariants."""


@dataclass(frozen=True)
class CliqueInstance:
    """k disjoint independent parts over vertices labeled 1..N, cross edges."""

    k: int
    parts: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.k < 2 or len(self.parts) != self.k:
            raise InvalidCliqueInstance("need k >= 2 nonempty parts")
        flat = [v for part in self.parts for v in part]
        if not flat or sorted(flat) != list(range(1, len(flat) + 1)):
            raise InvalidCliqueInstance("parts must partition labels 1..N")
        if any(not part for part in self.parts):
            raise InvalidCliqueInstance("every part must be nonempty")
        color = self.color_of()
        for u, v in self.edges:
            if u not in color or v not in color:
                raise InvalidCliqueInstance(f"edge ({u},{v}) names a label outside 1..N")
            if u >= v:
                raise InvalidCliqueInstance(f"edge ({u},{v}) not normalized u < v")
            if color[u] == color[v]:
                raise InvalidCliqueInstance(f"edge ({u},{v}) inside one color class")

    @property
    def num_labels(self) -> int:
        return sum(len(part) for part in self.parts)

    def color_of(self) -> dict[int, int]:
        return {v: i for i, part in enumerate(self.parts, 1) for v in part}

    def cross_edges(self, i: int, j: int) -> list[tuple[int, int]]:
        color = self.color_of()
        out = []
        for u, v in sorted(self.edges):
            if {color[u], color[v]} == {i, j}:
                out.append((u, v) if color[u] == i else (v, u))
        return sorted(out)

    def has_clique(self) -> bool:
        """Exhaustive check for one-vertex-per-part cliques."""
        for pick in product(*self.parts):
            if all(
                (min(a, b), max(a, b)) in self.edges
                for idx, a in enumerate(pick)
                for b in pick[idx + 1 :]
            ):
                return True
        return False


def budget_for(k: int) -> int:
    return 2 * k * (k - 1) + k * (k + 1) // 2


@dataclass(frozen=True)
class GadgetInstance:
    instance: Instance
    roles: dict[int, str]
    budget: int
    k: int
    num_labels: int

    def nodes_with_role(self, prefix: str) -> list[int]:
        return sorted(v for v, tag in self.roles.items() if tag.split(":")[0] == prefix)


def reduce(cq: CliqueInstance) -> GadgetInstance:
    """Build the domination gadget for a k-partitioned clique question.

    Node order is deterministic: vertex selectors, vertex nodes, edge
    selectors, edge nodes, bridges per ordered color pair, vertex
    propagation pairs, then edge propagation pairs.  Bridge capacities are
    demand-sum minus N, clamped at zero (sparse pairs can push the formula
    negative, which only ever makes the no-side harder to dominate).
    """
    k, n_labels = cq.k, cq.num_labels
    k_star = budget_for(k)
    heavy = k_star + 1
    attrs: list[tuple[int, int, int]] = []
    roles: dict[int, str] = {}
    edges: list[tuple[int, int]] = []

    def new_node(tag: str, weight: int, capacity: int, demand: int) -> int:
        attrs.append((weight, capacity, demand))
        node = len(attrs)
        roles[node] = tag
        return node

    vertex_selector: dict[int, int] = {}
    vertex_node: dict[int, int] = {}
    for i, part in enumerate(cq.parts, 1):
        vertex_selector[i] = new_node(f"vsel:{i}", heavy, 0, 1)
        for u in part:
            vertex_node[u] = new_node(f"vnode:{u}", 1, 1 + (k - 1) * n_labels, 0)
            edges.append((vertex_selector[i], vertex_node[u]))

    edge_selector: dict[tuple[int, int], int] = {}
    edge_node: dict[tuple[int, int], int] = {}
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            edge_selector[(i, j)] = new_node(f"esel:{i}:{j}", heavy, 0, 1)
            for u, v in cq.cross_edges(i, j):
                edge_node[(u, v)] = new_node(f"enode:{u}:{v}", 1, 1 + 2 * n_labels, 0)
                edges.append((edge_selector[(i, j)], edge_node[(u, v)]))

    ordered_pairs = [
        (i, j) for i in range(1, k + 1) for j in range(1, k + 1) if i != j
    ]
    bridge: dict[tuple[int, int, int], int] = {}
    for i, j in sorted(ordered_pairs):
        for alpha in (1, 2):
            bridge[(alpha, i, j)] = new_node(f"bridge:{alpha}:{i}:{j}", 1, 0, 1)
    # each bridge's closed-neighborhood demand: its own 1 plus its propagators'
    load = dict.fromkeys(bridge, 1)

    def propagate(tag: str, demand: int, target: int, key: tuple[int, int, int]) -> None:
        node = new_node(tag, heavy, 0, demand)
        edges.append((node, target))
        edges.append((node, bridge[key]))
        load[key] += demand

    for i, j in sorted(ordered_pairs):
        for v in cq.parts[i - 1]:
            demands = {1: v, 2: n_labels - v}
            for alpha in (1, 2):
                propagate(f"vprop:{alpha}:{v}:{i}:{j}", demands[alpha], vertex_node[v], (alpha, i, j))

    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for u, v in cq.cross_edges(i, j):
                enode = edge_node[(u, v)]
                for a, b, end in ((i, j, u), (j, i, v)):
                    demands = {1: n_labels - end, 2: end}
                    for alpha in (1, 2):
                        propagate(
                            f"eprop:{alpha}:{u}:{v}:{a}:{b}", demands[alpha], enode, (alpha, a, b)
                        )

    for key, node in bridge.items():
        attrs[node - 1] = (1, max(0, load[key] - n_labels), 1)

    inst = Instance(len(attrs), tuple(attrs), tuple(edges))
    return GadgetInstance(inst, roles, k_star, k, n_labels)


def verify_structure(g: GadgetInstance) -> Report:
    """Audit the attribute schedule and the forest left by deleting bridges."""
    problems: list[str] = []
    inst, n_labels, k = g.instance, g.num_labels, g.k
    bridges = set(g.nodes_with_role("bridge"))

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in inst.edges:
        if u in bridges or v in bridges:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            problems.append(f"cycle through edge ({u},{v}) after deleting bridges")
        else:
            parent[ru] = rv

    for b in sorted(bridges):
        demand_sum = sum(inst.demands[u] for u in (b, *inst.adj[b]))
        expected = max(0, demand_sum - n_labels)
        if inst.capacities[b] != expected:
            problems.append(
                f"bridge {b} capacity {inst.capacities[b]} != expected {expected}"
            )
    for role, name, expected in (
        ("vnode", "vertex node", 1 + (k - 1) * n_labels),
        ("enode", "edge node", 1 + 2 * n_labels),
    ):
        for v in g.nodes_with_role(role):
            if inst.capacities[v] != expected:
                problems.append(f"{name} {v} capacity != {expected}")
            demand_sum = sum(inst.demands[u] for u in (v, *inst.adj[v]))
            if demand_sum != expected:
                problems.append(f"{name} {v} neighborhood demand {demand_sum} != {expected}")
    return Report(not problems, problems)


def verify_semantics(
    cq: CliqueInstance,
    g: GadgetInstance,
    budget: SearchBudget = SearchBudget(),
    model: DemandModel = DemandModel.UNSPLITTABLE,
) -> Report:
    """Check: a one-per-part clique exists iff the gadget optimum is <= k*.

    The gadget side runs the exact solver capped just above the budget; a
    search that hits its node limit raises `BudgetExhausted`.
    """
    clique = cq.has_clique()
    optimum: int | None = None
    try:
        optimum = exact_solve(g.instance, model, SearchBudget(budget.max_nodes, g.budget + 1)).cost
    except (CostBoundExceeded, InfeasibleInstance):
        pass
    if clique == (optimum is not None and optimum <= g.budget):
        return Report(True, [])
    found = f"none at or below {g.budget + 1}" if optimum is None else optimum
    return Report(False, [f"clique={clique}, gadget optimum={found}, budget={g.budget}"])


def clique_witness_solution(
    cq: CliqueInstance, g: GadgetInstance, pick: tuple[int, ...]
) -> Solution:
    """Budget-cost solution encoding a clique, for the yes-side check.

    Buys one copy of every bridge and of the star nodes of the picked
    labels and pairs.  Each demand goes whole to a bought node of its
    closed neighborhood, a star node before a bridge, then the lowest id.
    """
    color = cq.color_of()
    if sorted(color.get(v, 0) for v in pick) != list(range(1, cq.k + 1)):
        raise ValueError(f"pick {pick} does not hold one label per part")
    pairs = list(combinations(sorted(pick, key=color.__getitem__), 2))
    for a, b in pairs:
        if (min(a, b), max(a, b)) not in cq.edges:
            raise ValueError(f"pick {pick} is no clique: labels {a} and {b} share no edge")
    stars = {f"vnode:{v}" for v in pick} | {f"enode:{a}:{b}" for a, b in pairs}
    inst, bridges = g.instance, set(g.nodes_with_role("bridge"))
    bought = bridges | {node for node, tag in g.roles.items() if tag in stars}
    assignment = {}
    for v in inst.vertices():
        if inst.demands[v] > 0:
            server = min(bought & (inst.adj[v] | {v}), key=lambda u: (u in bridges, u))
            assignment[(v, server)] = inst.demands[v]
    cost = sum(inst.weights[v] for v in bought)
    return Solution(dict.fromkeys(sorted(bought), 1), assignment, cost)


def load_clique_instance(text: str) -> CliqueInstance:
    """Parse 'p mcq <k> <N> <|E|>' followed by part and edge lines."""
    parts: dict[int, tuple[int, ...]] = {}
    color: dict[int, int] = {}  # label -> its part
    edges: set[tuple[int, int]] = set()
    edge_lines: list[tuple[int, tuple[int, int]]] = []
    lines = records(text, "p mcq")
    line_no, tokens = next(lines)
    if len(tokens) != 5 or tokens[1] != "mcq":
        raise ParseError(line_no, "header must be 'p mcq <k> <N> <|E|>'")
    k, n, m = parse_ints(tokens[2:], line_no)
    if k < 2 or min(n, m) < 0:
        raise ParseError(line_no, "need k >= 2, N >= 0 and |E| >= 0")
    for line_no, tokens in lines:
        if tokens[0] == "part":
            if len(tokens) < 3:
                raise ParseError(line_no, "part line must be 'part <index> <v...>'")
            idx, *members = parse_ints(tokens[1:], line_no)
            if not 1 <= idx <= k:
                raise ParseError(line_no, f"part index {idx} out of range 1..{k}")
            if idx in parts:
                raise ParseError(line_no, f"duplicate part {idx}")
            for x in members:
                if not 1 <= x <= n:
                    raise ParseError(line_no, f"label {x} out of range 1..{n}")
                if x in color:
                    raise ParseError(line_no, f"duplicate label {x}")
                color[x] = idx
            parts[idx] = tuple(sorted(members))
        elif tokens[0] == "e":
            edge_lines.append((line_no, parse_edge(tokens, line_no, n, edges)))
        else:
            raise ParseError(line_no, f"unknown line tag {tokens[0]!r}")
    if len(parts) != k:
        raise ParseError(0, f"need part lines 1..{k}, found {len(parts)}")
    if len(edges) != m:
        raise ParseError(0, f"header declares {m} edges, found {len(edges)}")
    if len(color) != n:
        raise ParseError(0, f"header declares {n} vertices, parts hold {len(color)}")
    for line_no, (u, v) in edge_lines:
        if color[u] == color[v]:
            raise ParseError(line_no, f"edge ({u},{v}) inside part {color[u]}")
    return CliqueInstance(k, tuple(parts[i] for i in range(1, k + 1)), frozenset(edges))


def save_clique_instance(cq: CliqueInstance) -> str:
    lines = [f"p mcq {cq.k} {cq.num_labels} {len(cq.edges)}"]
    for i, part in enumerate(cq.parts, 1):
        lines.append("part " + " ".join([str(i)] + [str(v) for v in part]))
    for u, v in sorted(cq.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def role_lines(g: GadgetInstance) -> list[str]:
    return [f"role {node} {tag}" for node, tag in sorted(g.roles.items())]
