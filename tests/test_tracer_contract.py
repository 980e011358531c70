"""The DP, Baker and greedy counters of the benchmark's tracer equal
direct counts.

`perfbench/tracing.py` wraps the public DP kernels from outside capdom:
it counts `len(result.rows)` of every table and multiplies the row counts
of `dp_join`'s second and third arguments.  For Baker it counts the calls
of `baker.make_slices` as shifts and the bands they return as slices.
For the greedies it counts the calls of `unsplit_efficiency` and
`split_efficiency` as quotes and the phase-1 trace entries as picks.
These tests install that tracer, run the CLI, and count the same things
by parameter name or from the written trace, so a change that breaks
what the tracer reads fails here.
"""
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import pytest

from capdom import baker, cli, greedy, tddp
from capdom.core import random_instance
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
BAKER_COUNTERS = ("baker.shifts", "baker.slices")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def count_directly(monkeypatch) -> Counter:
    """Wrap the DP kernels and Baker's slicer to count rows, join pairs,
    solves, shifts and bands."""
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

    def sliced(arguments, bands):
        counts["baker.shifts"] += 1
        counts["baker.slices"] += len(bands)

    observe(baker, "make_slices", sliced)
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
    for name in COUNTERS + (BAKER_COUNTERS if algo[0] == "baker" else ()):
        assert tracer.counts[name] == direct[name] > 0, name


@pytest.mark.parametrize("algo", ["greedy-unsplit", "greedy-split", "greedy-unweighted"])
def test_traced_greedy_counters_equal_direct_counts(algo, tmp_path, monkeypatch):
    # Unit weights, so the unweighted greedy runs on it too.
    path = tmp_path / "unit.cd"
    path.write_text(save_instance(random_instance(12, 0.3, 1, 3, 3, 5)))
    quotes = 0
    for name in ("unsplit_efficiency", "split_efficiency"):
        def counted(*args, _efficiency=getattr(greedy, name)):
            nonlocal quotes
            quotes += 1
            return _efficiency(*args)

        monkeypatch.setattr(greedy, name, counted)
    tracer = load_tracer()
    tracer.install()
    try:
        out = tmp_path / "out.cd"
        assert cli.main(["solve", "--algo", algo, "--trace", "-o", str(out), str(path)]) == 0
    finally:
        tracer.uninstall()
    trace = [line.split() for line in out.read_text().splitlines() if line.startswith("t ")]
    picks = sum(1 for fields in trace if fields[5] == "1")  # t <iter> <chosen> <prefix> <cost> <phase>
    assert tracer.counts["greedy.quotes"] == quotes > 0
    assert tracer.counts["greedy.picks"] == picks > 0
