"""Shared brute-force oracles and instance builders.

The brute forcers enumerate raw assignment spaces directly and never call
the package's search or DP code, so they stay independent of the paths
they are used to check.  Keep them on tiny instances only.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from capdom.core import Instance, VertexAttrs


def mk(triples, edges=()) -> Instance:
    """Instance from a list of (weight, capacity, demand) triples."""
    attrs = tuple(VertexAttrs(w, c, d) for w, c, d in triples)
    return Instance(len(attrs), attrs, tuple(edges))


@st.composite
def small_instances(draw, max_n=6, max_cd=3):
    """Hypothesis instances: weights in [0,4], capacities and demands in
    [0,max_cd], any edge set, so zero weights and capacities and
    infeasible and disconnected instances all occur."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    attr = st.tuples(st.integers(0, 4), st.integers(0, max_cd), st.integers(0, max_cd))
    return mk(draw(st.lists(attr, min_size=n, max_size=n)), edges)


def path_instance(triples) -> Instance:
    edges = [(i, i + 1) for i in range(1, len(triples))]
    return mk(triples, edges)


def cycle_instance(triples) -> Instance:
    n = len(triples)
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return mk(triples, edges)


def grid_instance(rows, cols, attr=(1, 1, 1)) -> Instance:
    n = rows * cols
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c + 1
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return mk([attr] * n, edges)


def p3_instance() -> Instance:
    """Three-vertex path with a cheap high-capacity middle vertex."""
    return path_instance([(1, 1, 1), (3, 10, 1), (1, 1, 1)])


def _ceil(a, b):
    return -(-a // b)


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def brute_unsplittable(inst: Instance):
    """(best cost, set of optimal multiplicity vectors) by full enumeration."""
    consumers = [v for v in inst.vertices() if inst.demand(v) > 0]
    if not consumers:
        return 0, {tuple(0 for _ in inst.vertices())}
    options = []
    for v in consumers:
        servers = [u for u in sorted(inst.closed_neighborhood(v)) if inst.capacity(u) > 0]
        if not servers:
            return None, set()
        options.append(servers)
    best = None
    vectors = set()
    for choice in itertools.product(*options):
        loads: dict[int, int] = {}
        for v, u in zip(consumers, choice):
            loads[u] = loads.get(u, 0) + inst.demand(v)
        cost = sum(inst.weight(u) * _ceil(load, inst.capacity(u)) for u, load in loads.items())
        vec = tuple(
            _ceil(loads[u], inst.capacity(u)) if u in loads else 0 for u in inst.vertices()
        )
        if best is None or cost < best:
            best = cost
            vectors = {vec}
        elif cost == best:
            vectors.add(vec)
    return best, vectors


def brute_unsplittable_cost(inst: Instance):
    return brute_unsplittable(inst)[0]


def _compositions(total, bins):
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def brute_splittable_cost(inst: Instance):
    """Optimal splittable cost by enumerating whole assignment matrices."""
    consumers = [v for v in inst.vertices() if inst.demand(v) > 0]
    if not consumers:
        return 0
    options = []
    for v in consumers:
        servers = [u for u in sorted(inst.closed_neighborhood(v)) if inst.capacity(u) > 0]
        if not servers:
            return None
        options.append(servers)
    best = None

    def descend(i, loads):
        nonlocal best
        partial = sum(
            inst.weight(u) * _ceil(load, inst.capacity(u)) for u, load in loads.items()
        )
        if best is not None and partial >= best:
            return
        if i == len(consumers):
            best = partial
            return
        v = consumers[i]
        servers = options[i]
        for split in _compositions(inst.demand(v), len(servers)):
            grown = dict(loads)
            for u, amount in zip(servers, split):
                if amount:
                    grown[u] = grown.get(u, 0) + amount
            descend(i + 1, grown)

    descend(0, {})
    return best


def brute_assignment_exists(inst: Instance, multiplicity) -> bool:
    """Backtracking check that the copy counts support some integral routing."""
    caps = {
        u: inst.capacity(u) * multiplicity.get(u, 0)
        for u in inst.vertices()
    }
    consumers = [v for v in inst.vertices() if inst.demand(v) > 0]

    def place(i):
        if i == len(consumers):
            return True
        v = consumers[i]
        servers = sorted(inst.closed_neighborhood(v))

        def distribute(need, idx):
            if need == 0:
                return place(i + 1)
            if idx == len(servers):
                return False
            u = servers[idx]
            most = min(need, caps[u])
            for take in range(most, -1, -1):
                caps[u] -= take
                if distribute(need - take, idx + 1):
                    caps[u] += take
                    return True
                caps[u] += take
            return False

        return distribute(inst.demand(v), 0)

    return place(0)


@pytest.fixture(scope="session")
def p3():
    return p3_instance()
