"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints one PASS/FAIL line.  Zero-violation criteria assert on a
collected violation list so a failure names every offending case.  Session
fixtures share the exact-oracle batches between the ratio, trace, and
DP-equivalence criteria.
"""
from fractions import Fraction
from itertools import combinations

import pytest

from capdom.baker import baker_solve
from capdom.core import (
    DemandModel,
    random_instance,
    verify_solution,
)
from capdom.cli import main
from capdom.greedy import (
    greedy_splittable,
    greedy_unsplittable,
    greedy_unweighted_splittable,
)
from capdom.hardness import CliqueInstance, reduce, verify_semantics, verify_structure
from capdom.oracle import SearchBudget, exact_splittable, exact_unsplittable
from capdom.tddp import solve_td
from capdom.treewidth import bfs_levels, heuristic_decomposition, make_nice

from conftest import cycle_instance, grid_instance, harmonic, mk
from greedy_reference import reference_greedy_splittable

UNSPLIT = DemandModel.UNSPLITTABLE
SPLIT = DemandModel.SPLITTABLE


def _report(number: int, violations: list, description: str):
    status = "PASS" if not violations else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description}")
    assert not violations, f"criterion {number}: {violations[:5]}"


def _adaptive(n: float) -> float:
    return min(0.5, 2.8 / n)


@pytest.fixture(scope="session")
def oracle_unsplit_batch():
    batch = []
    for i in range(200):
        n = 1 + i % 9
        inst = random_instance(n, 0.4, 4, 3, 3, 1000 + i)
        batch.append((inst, exact_unsplittable(inst)))
    return batch


@pytest.fixture(scope="session")
def oracle_split_batch():
    batch = []
    for i in range(200):
        n = 1 + i % 9
        inst = random_instance(n, 0.3, 4, 3, 3, 2000 + i)
        batch.append((inst, exact_splittable(inst)))
    return batch


@pytest.fixture(scope="session")
def oracle_unweighted_batch():
    batch = []
    for i in range(200):
        n = 1 + i % 9
        inst = random_instance(n, 0.35, 1, 3, 3, 3000 + i)
        batch.append((inst, exact_splittable(inst)))
    return batch


class TestCriterion1Feasibility:
    def test_every_solver_output_verifies(self, oracle_unsplit_batch):
        violations = []
        instances = runs = 0

        def check(inst, sol, model, label):
            nonlocal runs
            runs += 1
            report = verify_solution(inst, sol, model)
            if not report.passed:
                violations.append((label, report.problems[:2]))

        for i in range(220):
            n = 1 + i % 12
            inst = random_instance(n, _adaptive(n), 5, 4, 4, 4000 + i)
            instances += 1
            check(inst, greedy_unsplittable(inst).solution, UNSPLIT, f"greedy-unsplit {i}")
            check(inst, greedy_splittable(inst).solution, SPLIT, f"greedy-split {i}")
            ntd = make_nice(heuristic_decomposition(inst))
            check(inst, solve_td(inst, ntd, UNSPLIT), UNSPLIT, f"dp-unsplit {i}")
            check(inst, baker_solve(inst, 3, UNSPLIT).solution, UNSPLIT, f"baker {i}")
        for i in range(120):
            n = 1 + i % 12
            inst = random_instance(n, min(0.5, 2.2 / n), 1, 3, 3, 5000 + i)
            instances += 1
            check(inst, greedy_unweighted_splittable(inst).solution, SPLIT, f"greedy-unweighted {i}")
            td = heuristic_decomposition(inst)
            if td.width <= 3:  # splittable tables are pseudo-polynomial in M*N
                check(inst, solve_td(inst, make_nice(td), SPLIT), SPLIT, f"dp-split {i}")
        for inst, sol in oracle_unsplit_batch:
            instances += 1
            check(inst, sol, UNSPLIT, "oracle-unsplit")
        assert instances >= 500
        _report(1, violations, f"feasibility universal: {runs} solver runs over {instances} instances")


class TestCriterion2GreedyRatios:
    def test_unsplittable_ratio(self, oracle_unsplit_batch):
        violations = []
        for idx, (inst, opt) in enumerate(oracle_unsplit_batch):
            cost = greedy_unsplittable(inst).solution.cost
            if opt.cost == 0:
                if cost != 0:
                    violations.append(idx)
            elif Fraction(cost) > harmonic(inst.n) * opt.cost:
                violations.append((idx, cost, opt.cost))
        _report(2, violations, "greedy-unsplit cost <= H_n * OPT on 200 instances")

    def test_splittable_ratio(self, oracle_split_batch):
        violations = []
        for idx, (inst, opt) in enumerate(oracle_split_batch):
            cost = greedy_splittable(inst).solution.cost
            if opt.cost == 0:
                if cost != 0:
                    violations.append(idx)
            elif Fraction(cost) > (4 * harmonic(inst.n) + 2) * opt.cost:
                violations.append((idx, cost, opt.cost))
        _report(2, violations, "greedy-split cost <= (4 H_n + 2) * OPT on 200 instances")

    def test_unweighted_ratio(self, oracle_unweighted_batch):
        violations = []
        for idx, (inst, opt) in enumerate(oracle_unweighted_batch):
            cost = greedy_unweighted_splittable(inst).solution.cost
            if opt.cost == 0:
                if cost != 0:
                    violations.append(idx)
            elif Fraction(cost) > (2 * harmonic(inst.n) + 1) * opt.cost:
                violations.append((idx, cost, opt.cost))
        _report(2, violations, "greedy-unweighted cost <= (2 H_n + 1) * OPT on 200 instances")


class TestCriterion3HalfResidue:
    def test_no_iteration_leaves_small_residue(self, oracle_split_batch):
        violations = []
        instances = [inst for inst, _ in oracle_split_batch]
        for i in range(100):
            n = 1 + i % 12
            instances.append(random_instance(n, _adaptive(n), 4, 4, 4, 6000 + i))
        for idx, inst in enumerate(instances):
            result, boundary = reference_greedy_splittable(inst)
            if greedy_splittable(inst) != result:
                violations.append((idx, "package run differs from the reference run"))
            for snapshot in boundary:
                for v, residue in snapshot.items():
                    if 0 < residue < -(-inst.demands[v] // 2):
                        violations.append((idx, v, residue))
        _report(3, violations, f"residues never below half across {len(instances)} runs")


class TestCriterion4PrepassBound:
    def test_phase0_within_optimum(self, oracle_unweighted_batch):
        violations = []
        for idx, (inst, opt) in enumerate(oracle_unweighted_batch):
            trace = greedy_unweighted_splittable(inst).trace
            phase0 = sum(t.iter_cost for t in trace if t.phase == 0)
            if phase0 > opt.cost:
                violations.append((idx, phase0, opt.cost))
        _report(4, violations, "pre-pass cost <= OPT on 200 unit-weight instances")


class TestCriterion5DpEqualsOracle:
    def test_unsplittable(self, oracle_unsplit_batch):
        violations = []
        for idx, (inst, opt) in enumerate(oracle_unsplit_batch):
            ntd = make_nice(heuristic_decomposition(inst))
            cost = solve_td(inst, ntd, UNSPLIT).cost
            if cost != opt.cost:
                violations.append((idx, cost, opt.cost))
        _report(5, violations, "dp == oracle on 200 unsplittable instances")

    def test_splittable(self, oracle_split_batch):
        violations = []
        for idx, (inst, opt) in enumerate(oracle_split_batch):
            ntd = make_nice(heuristic_decomposition(inst))
            cost = solve_td(inst, ntd, SPLIT).cost
            if cost != opt.cost:
                violations.append((idx, cost, opt.cost))
        _report(5, violations, "dp == oracle on 200 splittable instances")


def _planar_family():
    """Grids and outerplanar graphs with seeded small attributes."""
    import random as _random

    rng = _random.Random(77)
    family = []
    for rows, cols in [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)]:
        base = grid_instance(rows, cols)
        attrs = [
            (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3))
            for _ in range(base.n)
        ]
        family.append(mk(attrs, base.edges))
    for size in (6, 8, 10):
        attrs = [(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)) for _ in range(size)]
        family.append(cycle_instance(attrs))
    # fan: path plus an apex joined to every path vertex (outerplanar)
    for size in (7, 9):
        attrs = [(rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 3)) for _ in range(size)]
        edges = [(i, i + 1) for i in range(2, size)] + [(1, i) for i in range(2, size + 1)]
        family.append(mk(attrs, edges))
    return family


class TestCriterion6BakerRatio:
    def test_bands_within_ratio(self):
        violations = []
        for idx, inst in enumerate(_planar_family()):
            opt = exact_unsplittable(inst).cost
            levels = bfs_levels(inst, 1)
            for k in (2, 3, 5):
                result = baker_solve(inst, k, UNSPLIT)
                if not verify_solution(inst, result.solution, UNSPLIT).passed:
                    violations.append((idx, k, "infeasible"))
                if Fraction(result.solution.cost) > (1 + Fraction(4, k - 1)) * opt:
                    violations.append((idx, k, result.solution.cost, opt))
                if k >= levels.num_levels and result.solution.cost != opt:
                    violations.append((idx, k, "not exact", result.solution.cost, opt))
        _report(6, violations, "band solutions within (1 + 4/(k-1)) of optimal, exact for large k")


class TestCriterion7HardnessSemantics:
    def test_exhaustive_two_colors(self):
        violations = []
        cases = 0
        for n in (2, 3):
            labels = list(range(1, n + 1))
            for mask in range(1, 2**n - 1):
                part1 = tuple(v for i, v in enumerate(labels) if mask >> i & 1)
                part2 = tuple(v for i, v in enumerate(labels) if not mask >> i & 1)
                cross = [(min(a, b), max(a, b)) for a in part1 for b in part2]
                for picks in range(2 ** len(cross)):
                    edges = frozenset(
                        e for i, e in enumerate(cross) if picks >> i & 1
                    )
                    cq = CliqueInstance(2, (part1, part2), edges)
                    gadget = reduce(cq)
                    report = verify_semantics(
                        cq, gadget, SearchBudget(max_nodes=20_000_000)
                    )
                    cases += 1
                    if not report.passed:
                        violations.append((part1, part2, sorted(edges), str(report)))
        _report(7, violations, f"clique iff gadget optimum <= budget on {cases} cases")


class TestCriterion8HardnessStructure:
    def test_structural_sweep(self):
        import random as _random

        violations = []
        cases = 0
        shapes = [
            (2, (4, 4)),
            (2, (5, 3)),
            (3, (3, 3, 2)),
            (3, (2, 2, 2)),
            (4, (2, 2, 2, 2)),
        ]
        for k, sizes in shapes:
            start = 1
            parts = []
            for s in sizes:
                parts.append(tuple(range(start, start + s)))
                start += s
            color = {v: i for i, part in enumerate(parts) for v in part}
            cross = [
                (a, b)
                for a, b in combinations(range(1, start), 2)
                if color[a] != color[b]
            ]
            rng = _random.Random(k * 100 + start)
            for density in (1.0, 0.6, 0.3):
                edges = frozenset(e for e in cross if rng.random() < density)
                gadget = reduce(CliqueInstance(k, tuple(parts), edges))
                report = verify_structure(gadget)
                cases += 1
                if not report.passed:
                    violations.append((k, sizes, density, report.problems[:2]))
        _report(8, violations, f"gadget structure audits pass on {cases} gadgets (k <= 4, N <= 8)")


class TestCriterion9Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        violations = []
        inst_args = ["gen", "random", "--n", "10", "--edge-prob", "0.3", "--seed", "31"]
        a, b = tmp_path / "a.cd", tmp_path / "b.cd"
        assert main(inst_args + ["-o", str(a)]) == 0
        assert main(inst_args + ["-o", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            violations.append("gen random")
        for algo in ("greedy-unsplit", "greedy-split", "dp", "baker"):
            # only the greedy algorithms write trace lines and take --trace
            extra = {"dp": [], "baker": ["--k", "3"]}.get(algo, ["--trace"])
            s1, s2 = tmp_path / f"{algo}1.cd", tmp_path / f"{algo}2.cd"
            assert main(["solve", "--algo", algo, *extra, "-o", str(s1), str(a)]) == 0
            assert main(["solve", "--algo", algo, *extra, "-o", str(s2), str(a)]) == 0
            if s1.read_bytes() != s2.read_bytes():
                violations.append(f"solve {algo}")
        bench_args = ["bench", "--n", "6", "--batch", "10", "--seed", "17", "--model", "unsplit"]
        c1, c2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        assert main(bench_args + ["-o", str(c1)]) == 0
        assert main(bench_args + ["-o", str(c2)]) == 0
        if c1.read_bytes() != c2.read_bytes():
            violations.append("bench csv")
        _report(9, violations, "repeated runs produce byte-identical outputs")
