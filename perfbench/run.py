"""capdom benchmark: times whole CLI runs per workload, checks every output.

    python3 perfbench/run.py --workload dp_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from anywhere inside a checkout of the repository; capdom is imported
from its `src` directory.  Each workload runs in a fresh worker process
(worker.py) under a wall-clock limit.  `--trace 0` prints the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer ones from a traced
run.  The last line of stdout is one JSON object; the exit code is 1 when
any op failed or produced an output that fails its checks.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Interpreter start-ups timed per run, half before and half after the
# worker, so that a burst of host load at either end moves few of them.
SETUP_SAMPLES = 21


def capdom_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # Users run capdom with its bytecode cached; without the cache every
    # start-up compiles capdom, and setup_s read 0.10 s instead of 0.07 s.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_samples(env, count) -> list[float]:
    """Wall times of `count` fresh interpreters each importing capdom.cli,
    scaled to the reference host speed by the kernel timed around each."""
    argv = [sys.executable, "-c", "import capdom.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    samples = []
    kernel = hostspeed.kernel_seconds()
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        after = hostspeed.kernel_seconds()
        samples.append(hostspeed.scale(elapsed, kernel, after))
        kernel = after
    return samples


def run_worker(workload, seed, seconds, trace, env) -> dict:
    workdir = ROOT / ".perfbench_work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(int(trace)), str(workdir)]
    limit = min(170, 2 * seconds + 90)
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "problems": [f"worker killed after {limit} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "problems": [f"worker exited with code {proc.returncode}"]}
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, spec, env):
    """Runs one workload; returns (attempted, failed, problems, metrics)."""
    setup = [] if trace else setup_samples(env, SETUP_SAMPLES // 2)
    result = run_worker(workload, seed, seconds, trace, env)
    problems = result["problems"]
    if trace:
        values = dict(result.get("layers", {}), fail_ratio=result["failed"] / result["attempted"])
        wanted = spec["per_layer"]
    else:
        setup += setup_samples(env, SETUP_SAMPLES - len(setup))
        values = dict(result, setup_s=statistics.median(setup)) if "wall_s" in result else {}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif not problems:
            problems.append(f"metric {m['name']} missing")
    if "passes" in result:
        print(f"{workload}: {result['passes']} passes; median pass {result['pass_median_s']:.4g} s")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"{workload}: FAILED {problem}")
    return result["attempted"], result["failed"], problems, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "capdom" / "cli.py").is_file():
        sys.stderr.write(f"capdom sources not found under {SRC}; run from a checkout of the repository\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = capdom_env()
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        a, f, problems, m = measure(name, args.seed, args.seconds, args.trace, spec, env)
        attempted, failed, correct = attempted + a, failed + f, correct and not problems
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
