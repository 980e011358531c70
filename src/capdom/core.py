"""Instance and solution model for soft-capacitated domination.

Every vertex carries a cost (weight), a per-copy capacity, and a demand.
A solution buys copies of vertices (multiplicities) and routes every
vertex's demand to servers inside its closed neighborhood.  Capacities
are soft: a vertex may be bought any number of times.
"""
from __future__ import annotations

import copy
import random
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

INT64_MAX = 2**63 - 1
ORACLE_MAX_NODES = 5_000_000  # the exact oracle's default node budget


class CapdomError(Exception):
    """Base class for errors raised by this package; the command line exits
    with `exit_code` and writes `label: message` to stderr."""

    exit_code, label = 1, "error"


class ParseError(CapdomError):
    """Malformed instance or solution text."""

    exit_code, label = 2, "parse error"

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def lines(text: str) -> list[str]:
    r"""The lines of text.  \r\n and \r end a line like \n, and nothing else
    does: str.splitlines would also cut comments at \x0c or U+2028."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def records(text: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of every record of a text format, header first.

    Blank lines and lines whose first token is 'c' are skipped.  The first
    record must carry the tag of `header` (say "p capdom" for tag 'p') and
    no later one may; a record before the header and a second header are
    ParseErrors at their line, a file without a header one at line 0.
    """
    tag = header.split()[0]
    seen = False
    for line_no, raw in enumerate(lines(text), 1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        if (tokens[0] == tag) is seen:  # a header once seen, or a record before it
            reason = "duplicate header line" if seen else f"{tokens[0]!r} record before header"
            raise ParseError(line_no, reason)
        seen = True
        yield line_no, tokens
    if not seen:
        raise ParseError(0, f"missing {header!r} header")


def parse_ints(parts: list[str], line_no: int) -> list[int]:
    """Tokens as integers; a non-integer token is a ParseError at line_no."""
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ParseError(line_no, f"expected integer, got {p!r}") from None
    return out


def parse_edge(parts: list[str], line_no: int, n: int, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """The edge (u, v) with u < v of an 'e <u> <v>' line over ids 1..n.

    A malformed line, a self-loop, an id out of range or an edge already
    in `seen` is a ParseError at line_no; otherwise the edge joins `seen`.
    """
    if len(parts) != 3:
        raise ParseError(line_no, "edge line must be 'e <u> <v>'")
    u, v = parse_ints(parts[1:], line_no)
    if u == v:
        raise ParseError(line_no, f"self-loop at vertex {u}")
    if not (1 <= u <= n and 1 <= v <= n):
        raise ParseError(line_no, f"edge ({u},{v}) out of range")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ParseError(line_no, f"duplicate edge ({u},{v})")
    seen.add(key)
    return key


class InfeasibleInstance(CapdomError):
    """Some vertex has positive demand but only zero-capacity closed neighbors."""

    exit_code, label = 3, "infeasible instance"


class ZeroCapacityServer(CapdomError):
    """An assignment routes demand to a vertex whose capacity is zero."""

    def __init__(self, vertex: int):
        super().__init__(f"assignment targets zero-capacity server {vertex}")
        self.vertex = vertex


class DemandModel(Enum):
    """Whether a vertex's demand may be split across several servers."""

    SPLITTABLE = "split"
    UNSPLITTABLE = "unsplit"


@dataclass(frozen=True)
class Instance:
    """A simple undirected graph with tri-weighted vertices, ids 1..n.

    Built from one (weight, capacity, demand) triple per vertex and edges in
    any order, it stores only tuples indexed by vertex id: the columns
    weights, capacities and demands, and adj the open neighborhoods; N[v]
    is adj[v] plus v.  Index 0 is padding (0 in the columns, adj[0] empty).
    Equality compares n, adj and the three columns; edges is read off adj.
    """

    n: int
    triples: InitVar[tuple[tuple[int, int, int], ...]]
    edges: InitVar[Iterable[tuple[int, int]]]
    weights: tuple[int, ...] = field(init=False)
    capacities: tuple[int, ...] = field(init=False)
    demands: tuple[int, ...] = field(init=False)
    adj: tuple[frozenset[int], ...] = field(init=False)

    def __post_init__(self, triples, edges):
        if self.n < 1:
            raise ValueError("instance needs at least one vertex")
        if len(triples) != self.n:
            raise ValueError("need one (weight, capacity, demand) triple per vertex")
        if any(x < 0 for t in triples for x in t):
            raise ValueError("vertex attributes must be nonnegative")
        seen = set()
        for u, v in edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
        self._index(triples, seen)

    @classmethod
    def trusted(cls, n: int, triples: tuple[tuple[int, int, int], ...], edges: Iterable[tuple[int, int]]) -> "Instance":
        """An instance from input checked as the constructor would: n >= 1, n
        nonnegative triples, distinct edges (u, v) with 1 <= u < v <= n in any order."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "n", n)
        inst._index(triples, edges)
        return inst

    def _index(self, triples: tuple[tuple[int, int, int], ...], edges: Iterable[tuple[int, int]]):
        weights, capacities, demands = zip(*triples, strict=True)  # strict: mixed lengths raise
        neighbor_sets: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in edges:
            neighbor_sets[u].append(v)
            neighbor_sets[v].append(u)
        for name, value in (
            ("adj", tuple(map(frozenset, neighbor_sets))),
            ("weights", (0, *weights)),
            ("capacities", (0, *capacities)),
            ("demands", (0, *demands)),
        ):
            object.__setattr__(self, name, value)
        self._audit_overflow()

    def _audit_overflow(self):
        # Keeps every sum any solver can form inside signed 64-bit range.
        sum_d = sum(self.demands)
        sum_c = sum(self.capacities)
        sum_w = sum(self.weights)
        if sum_d > INT64_MAX or sum_c * self.n > INT64_MAX or sum_w * max(sum_d, 1) > INT64_MAX:
            raise OverflowError("instance attribute sums exceed the 64-bit budget")

    def vertices(self) -> range:
        return range(1, self.n + 1)


# Sorted edges (u, v), u < v.  Out of the class body, where it would become `edges`'s default.
Instance.edges = property(lambda self: tuple((u, v) for u in self.vertices() for v in sorted(self.adj[u]) if u < v))


def ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for integers, b > 0."""
    return -(-a // b)


def is_feasible(inst: Instance) -> bool:
    """False iff some vertex has demand but no positive-capacity server in N[v]."""
    for v in inst.vertices():
        if inst.demands[v] > 0 and all(inst.capacities[u] == 0 for u in (v, *inst.adj[v])):
            return False
    return True


def require_feasible(inst: Instance) -> None:
    """Raise `InfeasibleInstance` unless the instance `is_feasible`."""
    if not is_feasible(inst):
        raise InfeasibleInstance("a vertex with demand has no usable server")


def with_demands(inst: Instance, demands: Mapping[int, int]) -> Instance:
    """Copy of the instance with the listed vertices' demands replaced, sharing
    its other fields; an id outside 1..n or a negative demand raises."""
    column = list(inst.demands)
    for v, d in demands.items():
        if not 1 <= v <= inst.n:
            raise ValueError(f"vertex {v} out of range")
        if d < 0:
            raise ValueError("vertex attributes must be nonnegative")
        column[v] = d
    changed = copy.copy(inst)
    object.__setattr__(changed, "demands", tuple(column))
    changed._audit_overflow()
    return changed


def induced_instance(
    inst: Instance, vertices: Iterable[int], zero_demand: Iterable[int] = ()
) -> tuple[Instance, tuple[int, ...]]:
    """Induced sub-instance on the given vertices, reindexed densely from 1.

    Demands of vertices listed in zero_demand are set to 0.  Returns the
    sub-instance and the tuple mapping new id i+1 back to the original id.
    """
    orig = tuple(sorted(set(vertices)))
    if not orig:
        raise ValueError("induced instance needs at least one vertex")
    if orig[0] < 1 or orig[-1] > inst.n:
        raise ValueError(f"induced vertices must lie in 1..{inst.n}")
    zeroed = set(zero_demand)
    new_id = {v: i + 1 for i, v in enumerate(orig)}
    triples = tuple(
        (inst.weights[v], inst.capacities[v], 0 if v in zeroed else inst.demands[v])
        for v in orig
    )
    # new_id keeps the order of ids, so every edge keeps u < v
    edges = [(new_id[u], new_id[v]) for u in orig for v in inst.adj[u] if u < v and v in new_id]
    return Instance.trusted(len(orig), triples, edges), orig


@dataclass(frozen=True)
class Solution:
    """Bought copies per vertex plus the demand routing that they support.

    multiplicity holds only nonzero counts; assignment maps
    (consumer, server) to a positive amount.
    """

    multiplicity: dict[int, int]
    assignment: dict[tuple[int, int], int]
    cost: int


@dataclass(frozen=True)
class SolveResult:
    """What a solver run hands the command line: the solution, the trace
    entries `--trace` prints through their `line()`, and comment lines."""

    solution: Solution
    trace: Sequence = ()
    comments: Sequence[str] = ()


@dataclass
class Report:
    """Outcome of a check: PASS, or FAIL with one line per problem."""

    passed: bool
    problems: list[str]

    def __str__(self):
        return "PASS" if self.passed else "FAIL\n" + "\n".join(self.problems)


def verify_solution(
    inst: Instance, sol: Solution, model: DemandModel
) -> Report:
    """Check demand, capacity, cost, and model constraints.

    Violations are report content, never exceptions; the report lists every
    broken constraint with the vertex ids involved.
    """
    problems: list[str] = []

    for v, count in sorted(sol.multiplicity.items()):
        if not 1 <= v <= inst.n:
            problems.append(f"multiplicity names unknown vertex {v}")
        elif count < 0:
            problems.append(f"negative multiplicity at vertex {v}")

    served: dict[int, int] = {v: 0 for v in inst.vertices()}
    load: dict[int, int] = {v: 0 for v in inst.vertices()}
    triples_per_consumer: dict[int, list[tuple[int, int]]] = {}
    for (consumer, server), amount in sorted(sol.assignment.items()):
        if not (1 <= consumer <= inst.n and 1 <= server <= inst.n):
            problems.append(f"assignment names unknown vertex pair ({consumer},{server})")
            continue
        if amount <= 0:
            problems.append(f"nonpositive amount on assignment ({consumer},{server})")
            continue
        if server != consumer and server not in inst.adj[consumer]:
            problems.append(
                f"server {server} is outside the closed neighborhood of {consumer}"
            )
        served[consumer] += amount
        load[server] += amount
        triples_per_consumer.setdefault(consumer, []).append((server, amount))

    for v in inst.vertices():
        if served[v] < inst.demands[v]:
            problems.append(
                f"demand violated at vertex {v}: served {served[v]} < {inst.demands[v]}"
            )
    for v in inst.vertices():
        available = inst.capacities[v] * sol.multiplicity.get(v, 0)
        if load[v] > available:
            problems.append(
                f"capacity violated at vertex {v}: load {load[v]} > {available}"
            )

    true_cost = sum(
        inst.weights[v] * count
        for v, count in sol.multiplicity.items()
        if 1 <= v <= inst.n
    )
    if sol.cost != true_cost:
        problems.append(f"cost field {sol.cost} != computed cost {true_cost}")

    if model is DemandModel.UNSPLITTABLE:
        for v in inst.vertices():
            triples = triples_per_consumer.get(v, [])
            if inst.demands[v] > 0:
                if len(triples) != 1 or triples[0][1] != inst.demands[v]:
                    problems.append(
                        f"unsplittable model violated at vertex {v}: "
                        f"needs one triple of amount {inst.demands[v]}"
                    )
            elif triples:
                problems.append(
                    f"unsplittable model violated at vertex {v}: "
                    "zero-demand vertex carries an assignment"
                )

    return Report(not problems, problems)


def minimum_multiplicities(
    inst: Instance, assignment: Mapping[tuple[int, int], int]
) -> Solution:
    """Smallest copy counts supporting the given routing.

    Buys ceil(load / capacity) copies of every server, so the result passes
    the capacity constraint by construction.
    """
    load: dict[int, int] = {}
    for (consumer, server), amount in assignment.items():
        if amount > 0:
            load[server] = load.get(server, 0) + amount
    multiplicity: dict[int, int] = {}
    for server in sorted(load):
        c = inst.capacities[server]
        if c == 0:
            raise ZeroCapacityServer(server)
        multiplicity[server] = ceil_div(load[server], c)
    cost = sum(inst.weights[v] * x for v, x in multiplicity.items())
    clean = {pair: amt for pair, amt in sorted(assignment.items()) if amt > 0}
    return Solution(multiplicity, clean, cost)


def random_instance(
    n: int,
    edge_prob: float,
    max_w: int,
    max_c: int,
    max_d: int,
    seed: int,
) -> Instance:
    """Seeded random instance, feasible by construction.

    Weights are uniform in [1, max_w]; capacities and demands in [0, max_c]
    and [0, max_d] so that zero-capacity servers and zero-demand vertices
    occur.  A post-pass raises c(v) to 1 wherever v has demand but no
    positive-capacity closed neighbor.
    """
    if n < 1 or max_w < 1 or max_c < 1 or max_d < 1:
        raise ValueError("n and attribute bounds must be at least 1")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < edge_prob
    ]
    triples = [
        (rng.randint(1, max_w), rng.randint(0, max_c), rng.randint(0, max_d))
        for _ in range(n)
    ]
    neighbor_caps: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        neighbor_caps[u].append(v)
        neighbor_caps[v].append(u)
    for v, (w, c, d) in enumerate(triples, 1):
        if d > 0 and c == 0 and all(triples[u - 1][1] == 0 for u in neighbor_caps[v]):
            triples[v - 1] = (w, 1, d)
    return Instance(n, tuple(triples), tuple(edges))
