"""Runs one workload in a fresh process and prints its result as JSON.

Started by run.py as `python3 perfbench/worker.py <workload> <seed>
<seconds> <trace> <workdir>` with capdom's `src` directory first on
sys.path.  Ops run one after another (a closed loop with one client):
each is one in-process `capdom.cli.main(argv)` call, timed from outside.
Its output is checked after the timer stops.
"""
from __future__ import annotations

import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

from capdom import cli, fileio, tddp, treewidth
from capdom.core import DemandModel, verify_solution

import hostspeed
import workloads
from tracing import COUNT_METRICS, TIME_METRICS, Tracer

OP_TIMEOUT_S = 60


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so capdom's handlers let it through."""


def _alarm(signum, frame):
    raise OpTimeout()


def dp_cost(inst_path: str, model: str) -> int:
    inst = fileio.load_instance(Path(inst_path).read_text(encoding="utf-8"))
    ntd = treewidth.make_nice(treewidth.heuristic_decomposition(inst))
    return tddp.solve_td(inst, ntd, DemandModel(model)).cost


def check(op: workloads.Op, rc, first_digest: dict) -> tuple[str | None, int]:
    """Problem with the op's output (None when it passes), and its cost."""
    if rc != 0:
        return f"exit code {rc}", 0
    text = Path(op.output).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if first_digest.setdefault(op.name, digest) != digest:
        return "output differs from the first pass", 0
    inst = fileio.load_instance(Path(op.instance).read_text(encoding="utf-8"))
    if op.kind == "td":
        report = treewidth.validate_td(inst, treewidth.load_td(text))
        return (None if report.passed else f"invalid decomposition: {report}"), 0
    solution, model = fileio.load_solution(text)
    if model.value != op.model:
        return f"solution model {model.value}, expected {op.model}", 0
    report = verify_solution(inst, solution, model)
    if not report.passed:
        return f"verification failed: {report}", 0
    if op.ref_cost is not None and solution.cost != op.ref_cost:
        return f"cost {solution.cost}, reference {op.ref_cost}", 0
    return None, solution.cost


def run_passes(ops, seconds, tracer=None):
    """Closed loop over the op list for about `seconds` (at least one pass).

    Returns the pass records, every op's latencies scaled to the reference
    host speed (one per pass), and the attempted/failed counts and problems
    of the checks.  The calibration kernel runs before every op and after
    the last; an op is scaled by the mean of the two kernel times around it.
    """
    passes, problems = [], []
    latencies = [[] for _ in ops]
    first_digest: dict[str, str] = {}
    attempted = failed = 0
    begin = last = time.perf_counter()
    # Start another pass only if one as long as the last still fits.
    while not passes or 2 * time.perf_counter() - last - begin <= seconds:
        last = time.perf_counter()
        pass_time, cost = 0.0, 0
        elapsed_ops, kernel = [], [hostspeed.kernel_seconds()]
        if tracer:
            tracer.reset_pass()
        for index, op in enumerate(ops):
            if tracer:
                tracer.op = index
            attempted += 1
            if index:
                kernel.append(hostspeed.kernel_seconds())
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            start = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            except OpTimeout:
                rc = "timeout"
            except SystemExit as exc:
                rc = exc.code
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            pass_time += elapsed
            elapsed_ops.append(elapsed)
            problem, op_cost = check(op, rc, first_digest)
            cost += op_cost
            if problem:
                failed += 1
                problems.append(f"{op.name}: {problem}")
        kernel.append(hostspeed.kernel_seconds())
        for index, elapsed in enumerate(elapsed_ops):
            latencies[index].append(hostspeed.scale(elapsed, kernel[index], kernel[index + 1]))
        record = {"wall": pass_time, "cost": cost}
        if tracer:
            record["self"] = dict(tracer.self_time)
            record["counts"] = dict(tracer.counts)
        passes.append(record)
    return passes, latencies, attempted, failed, problems


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1] if len(values) > 1 else values[0]


def main():
    workload, seed, seconds, trace, workdir = sys.argv[1:6]
    seed, seconds, trace, workdir = int(seed), float(seconds), trace == "1", Path(workdir)
    signal.signal(signal.SIGALRM, _alarm)
    ops = workloads.build(workload, seed, workdir)
    if workload == "oracle_small":
        ops = [replace(op, ref_cost=dp_cost(op.instance, op.model)) for op in ops]

    untraced = seconds / 2 if trace else seconds
    passes, latencies, attempted, failed, problems = run_passes(ops, untraced)
    typical = [statistics.median(samples) for samples in latencies]
    costs = {p["cost"] for p in passes}
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "passes": len(passes),
        "pass_median_s": statistics.median(p["wall"] for p in passes),
        "wall_s": sum(typical),
        "op_p50_ms": 1000 * percentile(typical, 50),
        "op_p90_ms": 1000 * percentile(typical, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cost_total": min(costs),
    }
    if len(costs) > 1:
        result["problems"].append(f"pass costs differ: {sorted(costs)}")
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_latencies, t_attempted, t_failed, t_problems = run_passes(ops, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(workdir / "spans.tsv")
        result["attempted"] += t_attempted
        result["failed"] += t_failed
        result["problems"] += t_problems[:20]
        layers = {f"{name}_s": statistics.median(p["self"].get(name, 0.0) for p in traced) for name in TIME_METRICS}
        counts = traced[0]["counts"]
        if any(p["counts"] != counts for p in traced):
            result["problems"].append("counters differ between traced passes")
        for name in COUNT_METRICS:
            layers[name] = counts.get(name, 0)
        layers["greedy.quotes_per_pick"] = counts.get("greedy.quotes", 0) / max(1, counts.get("greedy.picks", 0))
        layers["tddp.join_yield"] = counts.get("tddp.join_rows", 0) / max(1, counts.get("tddp.join_pairs", 0))
        layers["oracle.flow_yield"] = counts.get("oracle.flow_feasible", 0) / max(1, counts.get("oracle.flow_calls", 0))
        traced_wall = sum(statistics.median(samples) for samples in traced_latencies)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
