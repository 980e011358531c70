"""Per-layer tracing for the traced run, installed from outside capdom.

`Tracer.install()` replaces public functions of each capdom layer with
wrappers that record a span (name, start, end, parent, op id) and update
per-layer counters.  Names bound with `from ... import` are wrapped in
every module that imported them, because rebinding the defining module
does not reach those copies.  The untraced run never calls `install`.

A layer's self time is its spans' duration minus the time covered by
its child spans.  Quote calls (about 300 per greedy pick) are folded
into their parent span as a count and a total time instead of one span
each, which would hold ~100 MB per pass on `sparse_large`.
"""
from __future__ import annotations

import time
from collections import Counter

from capdom import baker, cli, fileio, greedy, oracle, tddp, treewidth

TIME_METRICS = (
    "cli.self",
    "fileio.load_instance",
    "fileio.save_solution",
    "core.verify",
    "greedy.solve",
    "greedy.quote",
    "treewidth.min_fill",
    "treewidth.from_order",
    "treewidth.make_nice",
    "tddp.leaf",
    "tddp.introduce",
    "tddp.forget",
    "tddp.join",
    "tddp.reconstruct",
    "baker.self",
    "baker.slice",
    "baker.merge",
    "oracle.search",
    "oracle.incumbent",
    "oracle.flow",
)

COUNT_METRICS = (
    "fileio.bytes_in",
    "core.verify_calls",
    "greedy.quotes",
    "greedy.picks",
    "treewidth.width_max",
    "treewidth.nice_nodes",
    "tddp.introduce_rows",
    "tddp.forget_rows",
    "tddp.join_rows",
    "tddp.join_pairs",
    "tddp.table_rows_max",
    "tddp.solves",
    "baker.slices",
    "baker.shifts",
    "oracle.flow_calls",
    "oracle.budget_exhausted",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []  # op, parent, name, start, end
        self.op = -1
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span index, child time]
        self._originals: list[tuple[object, str, object]] = []

    def reset_pass(self):
        self.self_time.clear()
        self.counts.clear()

    def _wrap(self, module, attr, name, observe=None):
        fn = getattr(module, attr)
        stack, spans, self_time = self._stack, self.spans, self.self_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (self.op, parent, name, start, end)
                self_time[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                if observe is not None:
                    observe(args, result, exc)

        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _fold(self, module, attr, name, count_name):
        """Leaf wrapper: adds its time to the parent span, records no span."""
        fn = getattr(module, attr)
        stack, self_time, counts = self._stack, self.self_time, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[name] += elapsed
                counts[count_name] += 1
                if stack:
                    stack[-1][1] += elapsed

        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self):
        c = self.counts

        def count(name, amount=1):
            def observe(args, result, exc):
                if exc is None:
                    c[name] += amount(args, result) if callable(amount) else amount
            return observe

        def picks(args, result, exc):
            if exc is None:
                c["greedy.picks"] += sum(1 for t in result.trace if t.phase == 1)

        def decomposed(args, result, exc):
            if exc is None:
                c["treewidth.width_max"] = max(c["treewidth.width_max"], result.width)

        def nice(args, result, exc):
            if exc is None:
                c["treewidth.nice_nodes"] += result.node_count()

        def table(rows_name, pairs=False):
            def observe(args, result, exc):
                if exc is not None:
                    return
                rows = len(result.rows)
                if rows_name:
                    c[rows_name] += rows
                if pairs:
                    c["tddp.join_pairs"] += len(args[1].rows) * len(args[2].rows)
                c["tddp.table_rows_max"] = max(c["tddp.table_rows_max"], rows)
            return observe

        def sliced(args, result, exc):
            if exc is None:
                c["baker.shifts"] += 1
                c["baker.slices"] += len(result)

        def flow(args, result, exc):
            if exc is None:
                c["oracle.flow_calls"] += 1
                c["oracle.flow_feasible"] += result is not None

        def search(args, result, exc):
            if isinstance(exc, oracle.BudgetExhausted):
                c["oracle.budget_exhausted"] += 1

        self._wrap(cli, "main", "cli.self")
        self._wrap(fileio, "load_instance", "fileio.load_instance",
                   count("fileio.bytes_in", lambda args, _: len(args[0].encode())))
        self._wrap(fileio, "save_solution", "fileio.save_solution")
        self._wrap(cli, "verify_solution", "core.verify", count("core.verify_calls"))
        for attr in ("greedy_unsplittable", "greedy_splittable", "greedy_unweighted_splittable"):
            self._wrap(greedy, attr, "greedy.solve", picks)
        for attr in ("greedy_unsplittable", "greedy_splittable"):
            self._wrap(oracle, attr, "oracle.incumbent", picks)
        for attr in ("unsplit_efficiency", "split_efficiency"):
            self._fold(greedy, attr, "greedy.quote", "greedy.quotes")
        for module in (treewidth, baker):
            self._wrap(module, "heuristic_decomposition", "treewidth.from_order", decomposed)
            self._wrap(module, "make_nice", "treewidth.make_nice", nice)
        self._wrap(treewidth, "min_fill_order", "treewidth.min_fill")
        for module in (tddp, baker):
            self._wrap(module, "solve_td", "tddp.reconstruct", count("tddp.solves"))
        self._wrap(tddp, "dp_leaf", "tddp.leaf", table(None))
        self._wrap(tddp, "dp_introduce", "tddp.introduce", table("tddp.introduce_rows"))
        self._wrap(tddp, "dp_forget", "tddp.forget", table("tddp.forget_rows"))
        self._wrap(tddp, "dp_join", "tddp.join", table("tddp.join_rows", pairs=True))
        self._wrap(baker, "baker_solve", "baker.self")
        self._wrap(baker, "make_slices", "baker.slice", sliced)
        self._wrap(baker, "merge_solutions", "baker.merge")
        self._wrap(oracle, "exact_solve", "oracle.search", search)
        self._wrap(oracle, "feasibility_flow", "oracle.flow", flow)

    def uninstall(self):
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tparent\tname\tstart\tend\n")
            for op, parent, name, start, end in self.spans:
                out.write(f"{op}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
