"""Shared brute-force oracles, instance builders and fixtures.

The brute forcers enumerate raw assignment spaces directly and never call
the package's search or DP code, so they stay independent of the paths
they are used to check.  Keep them on tiny instances only.
"""
from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from capdom import baker
from capdom.core import Instance


def mk(triples, edges=()) -> Instance:
    """Instance from a list of (weight, capacity, demand) triples."""
    triples = tuple(triples)
    return Instance(len(triples), triples, tuple(edges))


def triples(inst: Instance) -> tuple[tuple[int, int, int], ...]:
    """The (weight, capacity, demand) triple of every vertex, in id order."""
    return tuple(zip(inst.weights[1:], inst.capacities[1:], inst.demands[1:]))


@st.composite
def small_instances(draw, max_n=6, max_cd=3):
    """Hypothesis instances: n uniform in [1,max_n], weights in [0,4],
    capacities and demands in [0,max_cd], any edge set.  Unless a drawn
    flag keeps the draw as it is, `random_instance`'s post-pass raises c(v)
    to 1 wherever v has demand and no server with capacity in N[v].  Zero
    weights and capacities and infeasible and disconnected instances all
    occur."""
    n = draw(st.sampled_from(range(1, max_n + 1)))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    attr = st.tuples(st.integers(0, 4), st.integers(0, max_cd), st.integers(0, max_cd))
    triples = draw(st.lists(attr, min_size=n, max_size=n))
    if not draw(st.booleans()):
        for v, (w, c, d) in enumerate(triples, 1):
            closed = {v}.union(*(e for e in edges if v in e))
            if d > 0 and all(triples[u - 1][1] == 0 for u in closed):
                triples[v - 1] = (w, 1, d)
    return mk(triples, edges)


def path_instance(triples) -> Instance:
    edges = [(i, i + 1) for i in range(1, len(triples))]
    return mk(triples, edges)


def partial_two_tree(n, seed) -> Instance:
    """`perfbench.workloads.partial_ktree` with k = 2 and keep 0.8, unit
    weights, capacities and demands."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return mk([(1, 1, 1)] * n, workloads.partial_ktree(random.Random(seed), n, 2, 0.8))


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
    consumers = [v for v in inst.vertices() if inst.demands[v] > 0]
    if not consumers:
        return 0, {tuple(0 for _ in inst.vertices())}
    options = []
    for v in consumers:
        servers = [u for u in sorted(inst.adj[v] | {v}) if inst.capacities[u] > 0]
        if not servers:
            return None, set()
        options.append(servers)
    best = None
    vectors = set()
    for choice in itertools.product(*options):
        loads: dict[int, int] = {}
        for v, u in zip(consumers, choice):
            loads[u] = loads.get(u, 0) + inst.demands[v]
        cost = sum(inst.weights[u] * _ceil(load, inst.capacities[u]) for u, load in loads.items())
        vec = tuple(
            _ceil(loads[u], inst.capacities[u]) if u in loads else 0 for u in inst.vertices()
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
    consumers = [v for v in inst.vertices() if inst.demands[v] > 0]
    if not consumers:
        return 0
    options = []
    for v in consumers:
        servers = [u for u in sorted(inst.adj[v] | {v}) if inst.capacities[u] > 0]
        if not servers:
            return None
        options.append(servers)
    best = None

    def descend(i, loads):
        nonlocal best
        partial = sum(
            inst.weights[u] * _ceil(load, inst.capacities[u]) for u, load in loads.items()
        )
        if best is not None and partial >= best:
            return
        if i == len(consumers):
            best = partial
            return
        v = consumers[i]
        servers = options[i]
        for split in _compositions(inst.demands[v], len(servers)):
            grown = dict(loads)
            for u, amount in zip(servers, split):
                if amount:
                    grown[u] = grown.get(u, 0) + amount
            descend(i + 1, grown)

    descend(0, {})
    return best


def hall_condition_holds(inst: Instance, multiplicity) -> bool:
    """Whether every set S of consumers has d(S) <= the room c(u) * x(u)
    summed over N[S]: the supply-demand condition for a routing to exist."""
    consumers = [v for v in inst.vertices() if inst.demands[v] > 0]
    for size in range(1, len(consumers) + 1):
        for subset in itertools.combinations(consumers, size):
            reach = set().union(*((inst.adj[v] | {v}) for v in subset))
            room = sum(inst.capacities[u] * multiplicity.get(u, 0) for u in reach)
            if sum(inst.demands[v] for v in subset) > room:
                return False
    return True


def brute_assignment_exists(inst: Instance, multiplicity) -> bool:
    """Backtracking check that the copy counts support some integral routing."""
    caps = {
        u: inst.capacities[u] * multiplicity.get(u, 0)
        for u in inst.vertices()
    }
    consumers = [v for v in inst.vertices() if inst.demands[v] > 0]

    def place(i):
        if i == len(consumers):
            return True
        v = consumers[i]
        servers = sorted(inst.adj[v] | {v})

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

        return distribute(inst.demands[v], 0)

    return place(0)


@pytest.fixture(scope="session")
def p3():
    return p3_instance()


@pytest.fixture
def baker_shifts(monkeypatch):
    """The shift r of every `baker.make_slices` call, in order.

    The 13th call fails at once, so a run that tries far too many shifts
    stops there instead of running on.
    """
    shifts = []
    make_slices = baker.make_slices

    def counted(inst, levels, k, r):
        shifts.append(r)
        assert len(shifts) <= 12, "too many shifts"
        return make_slices(inst, levels, k, r)

    monkeypatch.setattr(baker, "make_slices", counted)
    return shifts
