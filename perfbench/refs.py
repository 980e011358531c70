"""Regenerates dp_grid_refs.json, the stored optimum of every dp_grid op.

    python3 perfbench/refs.py            # from the repository root

For each of the DP_GRID_SEEDS weight draws it solves every dp_grid
instance with the tree DP and, independently, with the exact oracle
under a node budget.  Where the oracle finishes, the two must agree;
the script stops on any disagreement.  Run it only when the dp_grid
op list or its generator changes, never to absorb a changed answer.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from capdom import fileio, oracle  # noqa: E402
from capdom.core import DemandModel  # noqa: E402

import workloads  # noqa: E402
from worker import dp_cost  # noqa: E402

ORACLE_NODES = 300_000


def main():
    workdir = ROOT / ".perfbench_work" / "refs"
    workdir.mkdir(parents=True, exist_ok=True)
    refs, confirmed, total = {}, 0, 0
    for seed in range(workloads.DP_GRID_SEEDS):
        w = workloads._Writer(workdir)
        workloads.dp_grid_ops(seed, w)
        costs = []
        for op in w.ops:
            cost = dp_cost(op.instance, op.model)
            inst = fileio.load_instance(Path(op.instance).read_text(encoding="utf-8"))
            total += 1
            try:
                exact = oracle.exact_solve(inst, DemandModel(op.model), oracle.SearchBudget(ORACLE_NODES)).cost
            except oracle.BudgetExhausted:
                exact = None
            if exact is not None:
                if exact != cost:
                    sys.exit(f"seed {seed} {op.name}: dp {cost} != oracle {exact}")
                confirmed += 1
            costs.append(cost)
        refs[str(seed)] = costs
        print(seed, costs, flush=True)
    lines = ",\n".join(f" {json.dumps(seed)}: {json.dumps(costs)}" for seed, costs in refs.items())
    (Path(__file__).parent / "dp_grid_refs.json").write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    print(f"{confirmed}/{total} costs confirmed by the oracle")


if __name__ == "__main__":
    main()
