"""Checks that the traced run's counters repeat exactly.

    python3 perfbench/check_counters.py [--seed 7] [workload ...]

Runs the traced pass of each workload (default: all four) twice, each
time in a fresh process, and compares every per-layer metric that is
not a time: row and pair counts, quotes, picks, widths, slices, flow
calls and the ratios derived from them.  Exits 1 on any difference, so
these counts can be cited as counts.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def counters(workload: str, seed: int) -> dict:
    # --seconds 0 runs exactly one untraced and one traced pass.
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload}: traced run failed:\n{proc.stdout}")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(WORKLOADS)}")
    args = parser.parse_args()
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    status = 0
    for workload in args.workloads or list(WORKLOADS):
        first, second = counters(workload, args.seed), counters(workload, args.seed)
        differ = sorted(k for k in first if first[k] != second.get(k))
        nonzero = {k: v for k, v in first.items() if v}
        print(f"{workload}: {'DIFFER ' + ', '.join(differ) if differ else 'identical'} {json.dumps(nonzero)}")
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
