"""The DP counters of the benchmark's tracer equal direct counts.

`perfbench/tracing.py` wraps the public DP kernels from outside capdom:
it counts `len(result.rows)` of every table and multiplies the row counts
of `dp_join`'s second and third arguments.  These tests install that
tracer, run the CLI, and count the same things by parameter name, so a
kernel change that breaks what the tracer reads fails here.
"""
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

from capdom import baker, cli, tddp
from capdom.fileio import save_instance

from conftest import mk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# A spider: center 1 with three legs of two vertices.  Min-fill gives it
# joins, and Baker with k = 2 solves it in several slices.
SPIDER = mk([(2, 2, 1)] * 7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])

COUNTERS = (
    "tddp.introduce_rows",
    "tddp.forget_rows",
    "tddp.join_rows",
    "tddp.join_pairs",
    "tddp.table_rows_max",
    "tddp.solves",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def count_directly(monkeypatch) -> Counter:
    """Wrap the DP kernels to count rows, join pairs and solves."""
    counts = Counter()

    def observe(module, name, record):
        fn = getattr(module, name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(signature.bind(*args, **kwargs).arguments, result)
            return result

        monkeypatch.setattr(module, name, wrapper)

    def rows(counter):
        def record(arguments, table):
            if counter:
                counts[counter] += len(table.rows)
            counts["tddp.table_rows_max"] = max(counts["tddp.table_rows_max"], len(table.rows))
            if counter == "tddp.join_rows":
                counts["tddp.join_pairs"] += len(arguments["left"].rows) * len(arguments["right"].rows)
        return record

    observe(tddp, "dp_leaf", rows(None))
    observe(tddp, "dp_introduce", rows("tddp.introduce_rows"))
    observe(tddp, "dp_forget", rows("tddp.forget_rows"))
    observe(tddp, "dp_join", rows("tddp.join_rows"))
    for module in (tddp, baker):  # baker keeps the solve_td it imported
        observe(module, "solve_td", lambda arguments, solution: counts.update(["tddp.solves"]))
    return counts


@pytest.mark.parametrize(
    "algo, model",
    [(["dp"], "unsplit"), (["baker", "--k", "2"], "unsplit"), (["dp"], "split"), (["baker", "--k", "2"], "split")],
    ids=["dp", "baker", "dp-split", "baker-split"],
)
def test_traced_dp_counters_equal_direct_counts(algo, model, tmp_path, monkeypatch):
    # The spider's demands (d = 1 against c = 2) stay uncapped in the
    # split model, so its tables are built there too.
    path = tmp_path / "spider.cd"
    path.write_text(save_instance(SPIDER))
    direct = count_directly(monkeypatch)
    main, tracer = cli.main, load_tracer()
    tracer.install()
    try:
        argv = ["solve", "--algo", *algo, "--model", model, "-o", str(tmp_path / "out.cd"), str(path)]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert cli.main is main
    for name in COUNTERS:
        assert tracer.counts[name] == direct[name] > 0, name
