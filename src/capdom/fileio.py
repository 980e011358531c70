"""Line-based text formats for instances and solutions.

Instance files:
    c <comment>
    p capdom <n> <m>
    v <id> <weight> <capacity> <demand>     (one line per vertex)
    e <u> <v>                               (one line per edge, u != v)

Solution files:
    s capdom <cost> <split|unsplit>
    x <vertex> <count>                      (nonzero multiplicities)
    a <consumer> <server> <amount>          (nonzero assignments)

Both serializers emit a canonical order so files are diffable and
byte-stable: vertices ascending, edges with the smaller endpoint first
sorted lexicographically, assignments sorted by (consumer, server).
"""
from __future__ import annotations

from typing import Sequence

from .core import (
    DemandModel,
    Instance,
    ParseError,
    Solution,
    parse_edge,
    parse_ints,
    records,
)


def load_instance(text: str) -> Instance:
    """Parse instance text, rejecting every format violation with a line number."""
    attrs: dict[int, tuple[int, int, int]] = {}
    edges: list[tuple[int, int]] = []
    edge_keys: set[tuple[int, int]] = set()
    lines = records(text, "p capdom")
    line_no, parts = next(lines)
    if len(parts) != 4 or parts[1] != "capdom":
        raise ParseError(line_no, "header must be 'p capdom <n> <m>'")
    n, m = parse_ints(parts[2:], line_no)
    if n < 1 or m < 0:
        raise ParseError(line_no, "need n >= 1 and m >= 0")
    for line_no, parts in lines:
        tag = parts[0]
        if tag == "v":
            if len(parts) != 5:
                raise ParseError(line_no, "vertex line must be 'v <id> <w> <c> <d>'")
            vid, w, c, d = parse_ints(parts[1:], line_no)
            if not 1 <= vid <= n:
                raise ParseError(line_no, f"vertex id {vid} out of range 1..{n}")
            if vid in attrs:
                raise ParseError(line_no, f"duplicate vertex line for {vid}")
            if min(w, c, d) < 0:
                raise ParseError(line_no, "vertex attributes must be nonnegative")
            attrs[vid] = (w, c, d)
        elif tag == "e":
            edges.append(parse_edge(parts, line_no, n, edge_keys))
        else:
            raise ParseError(line_no, f"unknown line tag {tag!r}")
    if len(attrs) != n:
        # The first three missing ids are at most len(attrs) + 3, so the
        # message stays short whatever n the header declares.
        first = [v for v in range(1, min(n, len(attrs) + 3) + 1) if v not in attrs][:3]
        raise ParseError(0, f"missing vertex lines for {n - len(attrs)} ids, first {first}")
    if len(edges) != m:
        raise ParseError(0, f"header declares {m} edges, found {len(edges)}")
    # parse_edge has checked every edge the way the Instance constructor would
    return Instance.trusted(n, tuple(attrs[v] for v in range(1, n + 1)), edges)


def save_instance(inst: Instance, comments: list[str] | None = None) -> str:
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"p capdom {inst.n} {len(inst.edges)}")
    for v in inst.vertices():
        lines.append(f"v {v} {inst.weights[v]} {inst.capacities[v]} {inst.demands[v]}")
    for u, v in sorted(inst.edges):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def load_solution(text: str) -> tuple[Solution, DemandModel]:
    """Parse a solution file; trace lines ('t ...') after the header are ignored."""
    multiplicity: dict[int, int] = {}
    assignment: dict[tuple[int, int], int] = {}
    lines = records(text, "s capdom")
    line_no, parts = next(lines)
    if len(parts) != 4 or parts[1] != "capdom":
        raise ParseError(line_no, "header must be 's capdom <cost> <model>'")
    (cost,) = parse_ints(parts[2:3], line_no)
    try:
        model = DemandModel(parts[3])
    except ValueError:
        raise ParseError(line_no, f"unknown model {parts[3]!r}") from None
    for line_no, parts in lines:
        tag = parts[0]
        if tag == "x":
            if len(parts) != 3:
                raise ParseError(line_no, "multiplicity line must be 'x <vertex> <count>'")
            v, count = parse_ints(parts[1:], line_no)
            if count < 1:
                raise ParseError(line_no, "multiplicity lines carry nonzero counts")
            if v in multiplicity:
                raise ParseError(line_no, f"duplicate multiplicity line for {v}")
            multiplicity[v] = count
        elif tag == "a":
            if len(parts) != 4:
                raise ParseError(line_no, "assignment line must be 'a <consumer> <server> <amount>'")
            consumer, server, amount = parse_ints(parts[1:], line_no)
            if amount < 1:
                raise ParseError(line_no, "assignment lines carry positive amounts")
            if (consumer, server) in assignment:
                raise ParseError(line_no, f"duplicate assignment line ({consumer},{server})")
            assignment[(consumer, server)] = amount
        elif tag != "t":
            raise ParseError(line_no, f"unknown line tag {tag!r}")
    return Solution(multiplicity, assignment, cost), model


def save_solution(
    sol: Solution,
    model: DemandModel,
    trace_lines: Sequence[str] | None = None,
    comments: Sequence[str] | None = None,
) -> str:
    lines = [f"c {c}" for c in comments or []]
    lines.append(f"s capdom {sol.cost} {model.value}")
    for v, count in sorted(sol.multiplicity.items()):
        if count:
            lines.append(f"x {v} {count}")
    for (consumer, server), amount in sorted(sol.assignment.items()):
        if amount:
            lines.append(f"a {consumer} {server} {amount}")
    lines.extend(trace_lines or [])
    return "\n".join(lines) + "\n"
