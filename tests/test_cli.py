import hashlib
import io
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capdom import cli, greedy, oracle, tddp, treewidth
from capdom.core import Solution, SolveResult, verify_solution
from capdom.cli import main
from capdom.fileio import load_solution, save_instance

from conftest import grid_instance, mk, p3_instance, path_instance

P3_TEXT = "p capdom 3 2\nv 1 1 1 1\nv 2 3 10 1\nv 3 1 1 1\ne 1 2\ne 2 3\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.cd"
    path.write_text(P3_TEXT)
    return path


# Past the instance's 64-bit audit as any one attribute.
BIG = "99999999999999999999"


@pytest.fixture
def oversized_file(tmp_path):
    path = tmp_path / "oversized.cd"
    path.write_text(f"p capdom 1 0\nv 1 1 1 {BIG}\n")
    return path


def assert_audit_error(capsys, kind):
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{kind}: ") and "64-bit" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def run(*argv):
    return main([str(a) for a in argv])


def run_peak(*argv):
    """`run`, plus the peak bytes Python allocated during the call."""
    tracemalloc.start()
    try:
        return run(*argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The `solve` algorithms in their --algo order, and each solve-only flag
# with its values (FILE: an existing path) and the algorithms that read it.
ALGO_NAMES = ["greedy-unsplit", "greedy-split", "greedy-unweighted", "dp", "baker", "oracle"]
SOLVE_ONLY = {
    "--td": (("FILE",), ("dp",)),
    "--k": (("2",), ("baker",)),
    "--budget": (("5",), ("oracle",)),
    "--trace": ((), ("greedy-unsplit", "greedy-split", "greedy-unweighted")),
}


def misapplied(flag):
    return f"usage error: {flag} applies only to --algo {', '.join(SOLVE_ONLY[flag][1])}\n"


class TestSolve:
    def test_tab_comment_is_skipped(self, p3_file, tmp_path, capsys):
        commented = tmp_path / "commented.cd"
        commented.write_text("c\tp3 with a tab\n" + P3_TEXT.replace("\nv 2", "\nc\tmiddle\nv 2"))
        assert run("solve", "--algo", "greedy-unsplit", p3_file) == 0
        plain = capsys.readouterr().out
        assert run("solve", "--algo", "greedy-unsplit", commented) == 0
        assert capsys.readouterr().out == plain

    def test_greedy_unsplit(self, p3_file, tmp_path):
        out = tmp_path / "sol.cd"
        assert run("solve", "--algo", "greedy-unsplit", "-o", out, p3_file) == 0
        solution, model = load_solution(out.read_text())
        assert solution.cost == 3
        assert model.value == "unsplit"

    def test_trace_appended(self, p3_file, tmp_path):
        out = tmp_path / "sol.cd"
        assert run("solve", "--algo", "greedy-unsplit", "--trace", "-o", out, p3_file) == 0
        lines = out.read_text().splitlines()
        assert any(line.startswith("t ") for line in lines)

    @pytest.mark.parametrize("algo", ["greedy-split", "dp", "oracle"])
    def test_other_algos(self, algo, p3_file, tmp_path):
        out = tmp_path / "sol.cd"
        assert run("solve", "--algo", algo, "-o", out, p3_file) == 0
        solution, _ = load_solution(out.read_text())
        assert solution.cost == 3

    def test_baker_emits_shift_table(self, p3_file, tmp_path, capsys):
        assert run("solve", "--algo", "baker", "--k", 2, p3_file) == 0
        captured = capsys.readouterr().out
        shift_lines = [l for l in captured.splitlines() if l.startswith("c shift")]
        assert len(shift_lines) == 2
        assert shift_lines[0] == f"c shift component=0 r=0 cost={3}"

    def test_baker_shifts_stop_at_bfs_depth(self, p3_file, capsys, baker_shifts):
        # p3 has three BFS levels: every shift r >= 2 repeats the one band
        # of r = 2, so a huge k solves the k = 3 shifts and no more.
        assert run("solve", "--algo", "baker", "--k", 3, p3_file) == 0
        at_three = capsys.readouterr().out
        assert run("solve", "--algo", "baker", "--k", 10**6, p3_file) == 0
        at_million = capsys.readouterr().out
        assert baker_shifts == [0, 1, 2] * 2
        assert len([l for l in at_million.splitlines() if l.startswith("c shift")]) == 3
        assert at_million == at_three

    def test_baker_numbers_shifts_per_component(self, tmp_path, capsys):
        # {1, 2} costs 2 under both shifts; the capacity-2 pair {3, 4}
        # costs 2 when shift 0 cuts it and 1 as the one band of shift 1
        two = tmp_path / "two.cd"
        two.write_text("p capdom 4 2\nv 1 1 1 1\nv 2 1 1 1\nv 3 1 2 1\nv 4 1 2 1\ne 1 2\ne 3 4\n")
        assert run("solve", "--algo", "baker", "--k", 2, two) == 0
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("c ")] == [
            "c shift component=0 r=0 cost=2",
            "c shift component=0 r=1 cost=2",
            "c shift component=1 r=0 cost=2",
            "c shift component=1 r=1 cost=1",
        ]
        assert out.splitlines()[4] == "s capdom 3 unsplit"

    @pytest.mark.parametrize("name", list(cli.ALGOS))
    def test_every_runner_returns_a_solve_result(self, name):
        # greedy-unweighted rejects p3's weight 3
        inst = path_instance([(1, 1, 1)] * 3) if name == "greedy-unweighted" else p3_instance()
        extra = ["--k", "2"] if name == "baker" else []
        args = cli._build_parser().parse_args(["solve", "--algo", name, *extra, "unused.cd"])
        model = cli._model_for(name, None)
        result = cli.ALGOS[name].run(inst, model, args)
        assert isinstance(result, SolveResult)
        assert bool(result.trace) == (name in ("greedy-unsplit", "greedy-split", "greedy-unweighted"))
        assert bool(result.comments) == (name == "baker")
        assert verify_solution(inst, result.solution, model).passed

    def test_dp_with_supplied_decomposition(self, p3_file, tmp_path):
        td_path = tmp_path / "p3.td"
        assert run("td", "compute", p3_file, "-o", td_path) == 0
        out = tmp_path / "sol.cd"
        assert run("solve", "--algo", "dp", "--td", td_path, "-o", out, p3_file) == 0
        solution, _ = load_solution(out.read_text())
        assert solution.cost == 3

    def test_conflicting_model_usage_error(self, p3_file):
        assert run("solve", "--algo", "greedy-unsplit", "--model", "split", p3_file) == 2

    def test_baker_requires_k(self, p3_file):
        assert run("solve", "--algo", "baker", p3_file) == 2

    @pytest.mark.parametrize("k", ["1", "0", "-2"])
    def test_baker_small_k_is_usage_error(self, k, p3_file, capsys):
        assert run("solve", "--algo", "baker", "--k", k, p3_file) == 2
        assert "--k >= 2" in capsys.readouterr().err

    def test_unweighted_rejects_weights(self, p3_file, capsys):
        assert run("solve", "--algo", "greedy-unweighted", p3_file) == 2
        assert capsys.readouterr().err == "usage error: every vertex weight must be 1\n"

    @pytest.mark.parametrize(
        "flag, value, algo",
        [("--td", "TD", "oracle"), ("--td", "TD", "greedy-unsplit"), ("--k", "2", "dp"),
         ("--k", "3", "greedy-split"), ("--budget", "5", "baker"), ("--budget", "5", "dp")],
    )
    def test_flag_of_another_algo_is_usage_error(
        self, flag, value, algo, p3_file, tmp_path, capsys
    ):
        td_path = tmp_path / "p3.td"
        assert run("td", "compute", p3_file, "-o", td_path) == 0
        value = td_path if value == "TD" else value
        assert run("solve", "--algo", algo, flag, value, p3_file) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: {flag} applies only to --algo ")
        assert captured.out == ""

    @pytest.mark.parametrize("algo, extra", [("dp", ()), ("baker", ("--k", "2")), ("oracle", ())])
    def test_trace_without_greedy_is_usage_error(self, algo, extra, p3_file, capsys):
        assert run("solve", "--algo", algo, *extra, "--trace", p3_file) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: --trace applies only to --algo "
            "greedy-unsplit, greedy-split, greedy-unweighted\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, algo",
        [(flag, algo) for flag, (_, readers) in SOLVE_ONLY.items() for algo in ALGO_NAMES if algo not in readers],
    )
    def test_every_misapplied_flag_message(self, flag, algo, p3_file, capsys):
        values = [p3_file if v == "FILE" else v for v in SOLVE_ONLY[flag][0]]
        assert run("solve", "--algo", algo, flag, *values, p3_file) == 2
        assert capsys.readouterr() == ("", misapplied(flag))

    @pytest.mark.parametrize(
        "algo, flags, reported",
        [
            ("oracle", ("--td", "FILE", "--k", "2"), "--td"),
            ("greedy-split", ("--budget", "5", "--k", "2"), "--k"),
            ("dp", ("--trace", "--budget", "5", "--k", "2"), "--k"),
            ("baker", ("--trace", "--k", "2", "--budget", "5"), "--budget"),
            ("oracle", ("--budget", "5", "--trace", "--k", "2", "--td", "FILE"), "--td"),
        ],
    )
    def test_misapplied_flags_report_the_first_in_order(self, algo, flags, reported, p3_file, capsys):
        # Of several misapplied flags, --td is reported first, then --k,
        # then --budget, then --trace, whatever their order on the line.
        flags = [p3_file if f == "FILE" else f for f in flags]
        assert run("solve", "--algo", algo, *flags, p3_file) == 2
        assert capsys.readouterr() == ("", misapplied(reported))

    def test_consecutive_calls_share_one_parser(self, p3_file, capsys):
        # The parser is built once per process; a usage error in one call
        # must leave the next call's parse, exit code and output unchanged.
        ok = ("solve", "--algo", "greedy-unsplit", "--trace", p3_file)
        assert run(*ok) == 0
        first = capsys.readouterr()
        assert run("solve", "--algo", "dp", "--k", "2", p3_file) == 2
        assert capsys.readouterr().err == "usage error: --k applies only to --algo baker\n"
        with pytest.raises(SystemExit) as info:
            run("solve", "--algo", "nope", p3_file)
        assert info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert run(*ok) == 0
        assert capsys.readouterr() == first
        assert run("solve", "--algo", "greedy-unsplit", p3_file) == 0
        assert not any(line.startswith("t ") for line in capsys.readouterr().out.splitlines())

    def test_oracle_budget_defaults_to_five_million_nodes(self, p3_file, monkeypatch):
        budgets = []
        solve = oracle.exact_solve

        def spy(inst, model, budget):
            budgets.append(budget.max_nodes)
            return solve(inst, model, budget)

        monkeypatch.setattr(oracle, "exact_solve", spy)
        assert run("solve", "--algo", "oracle", p3_file) == 0
        assert run("solve", "--algo", "oracle", "--budget", 77, p3_file) == 0
        assert budgets == [5_000_000, 77]
        bench = ("bench", "--n", 4, "--batch", 2, "--seed", 1, "--model", "unsplit")
        assert run(*bench) == 0
        assert run(*bench, "--budget", 88) == 0
        assert budgets == [5_000_000, 77] + [5_000_000] * 2 + [88] * 2

    @pytest.mark.parametrize(
        "argv, code, prefix",
        [
            (("--algo", "baker", "--k", "1", "P3"), 2, "usage error: "),
            (("--algo", "greedy-unsplit", "INFEASIBLE"), 3, "infeasible instance: "),
            (("--algo", "oracle", "--budget", "1", "GRID"), 4, "budget exhausted: "),
            (("--algo", "greedy-unsplit", "MISSING"), 1, "error: "),
        ],
        ids=["usage", "infeasible", "budget", "missing-file"],
    )
    def test_error_exit_code_and_label(self, argv, code, prefix, p3_file, tmp_path, capsys):
        # Each CapdomError subclass carries the exit code and stderr label
        # that main reports; OSError exits 1 as a plain error.
        files = {"P3": p3_file, "INFEASIBLE": tmp_path / "bad.cd", "GRID": tmp_path / "grid.cd",
                 "MISSING": tmp_path / "missing.cd"}
        files["INFEASIBLE"].write_text("p capdom 1 0\nv 1 1 0 2\n")
        files["GRID"].write_text(save_instance(grid_instance(3, 3)))
        assert run("solve", *(files.get(a, a) for a in argv)) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_budget_help_shows_the_search_default(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            run(command, "--help")
        assert info.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # argparse wraps at the terminal width
        assert f"(default {oracle.SearchBudget().max_nodes})" in out
        assert oracle.SearchBudget().max_nodes == 5_000_000

    def test_infeasible_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cd"
        bad.write_text("p capdom 1 0\nv 1 1 0 2\n")
        assert run("solve", "--algo", "greedy-unsplit", bad) == 3

    def test_oversized_header_is_short_parse_error(self, tmp_path, capsys):
        # A header declaring 10^6 vertices and no vertex lines: the error
        # must not list every missing id or allocate per declared vertex.
        bad = tmp_path / "big.cd"
        bad.write_text("p capdom 1000000 0\n")
        code, peak = run_peak("solve", "--algo", "greedy-unsplit", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 0: missing vertex lines") and len(err) < 200
        assert peak < 4_000_000

    def test_budget_exhausted_exit_code(self, tmp_path):
        inst = tmp_path / "inst.cd"
        assert run("gen", "random", "--n", 8, "--seed", 5, "-o", inst) == 0
        assert run("solve", "--algo", "oracle", "--budget", 1, inst) == 4

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_is_usage_error(self, budget, p3_file, capsys):
        with pytest.raises(SystemExit) as info:
            run("solve", "--algo", "oracle", "--budget", budget, p3_file)
        assert info.value.code == 2
        assert "--budget" in capsys.readouterr().err

    def test_oversized_attributes_are_parse_error(self, oversized_file, capsys):
        assert run("solve", "--algo", "greedy-unsplit", oversized_file) == 2
        assert_audit_error(capsys, "parse error")


class TestVerify:
    def test_pass_and_fail(self, p3_file, tmp_path, capsys):
        sol = tmp_path / "sol.cd"
        assert run("solve", "--algo", "greedy-unsplit", "-o", sol, p3_file) == 0
        assert run("verify", "--model", "unsplit", p3_file, sol) == 0
        assert capsys.readouterr().out.strip().endswith("PASS")
        tampered = sol.read_text().replace("s capdom 3", "s capdom 2")
        sol.write_text(tampered)
        assert run("verify", "--model", "unsplit", p3_file, sol) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "cost field" in out

    def test_model_from_file_header(self, p3_file, tmp_path):
        sol = tmp_path / "sol.cd"
        assert run("solve", "--algo", "greedy-split", "-o", sol, p3_file) == 0
        assert run("verify", p3_file, sol) == 0

    def test_oversized_attributes_are_parse_error(self, oversized_file, tmp_path, capsys):
        sol = tmp_path / "sol.cd"
        sol.write_text("s capdom 1 unsplit\nx 1 1\n")
        assert run("verify", oversized_file, sol) == 2
        assert_audit_error(capsys, "parse error")


class TestGen:
    def test_random_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.cd", tmp_path / "b.cd"
        args = ["gen", "random", "--n", 9, "--edge-prob", 0.3, "--seed", 11]
        assert run(*args, "-o", a) == 0
        assert run(*args, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mcq_reduce_with_roles(self, tmp_path):
        clique = tmp_path / "c.mcq"
        clique.write_text("p mcq 2 2 1\npart 1 1\npart 2 2\ne 1 2\n")
        out = tmp_path / "gadget.cd"
        assert run("gen", "mcq-reduce", "-o", out, clique) == 0
        text = out.read_text()
        assert text.startswith("c budget 7\n")
        assert "p capdom 18" in text
        roles = Path(str(out) + ".roles").read_text().splitlines()
        assert len(roles) == 18

    @pytest.mark.parametrize(
        "text, line_no",
        [("p mcq 2 x 1\n", 1), ("p mcq 2 2 1\npart 1 1\npart\n", 3),
         ("p mcq 2 2 1\npart 1 1\np mcq 2 2 0\npart 2 2\n", 3), ("p mcq -1 2 1\n", 1),
         ("p mcq 2 2 1\npart 1 1\npart 2 2\ne 1 1\n", 4),
         ("p mcq 2 2 1\npart 1 1\npart 2 2\ne 1 9\n", 4),
         ("p mcq 2 2 1\npart 1 1 1\npart 2 2\n", 2),
         ("p mcq 2 2 0\npart 1 1\npart 2 3\n", 3),
         ("p mcq 2 2 1\npart 1 1\npart 2 2\ne 1 2\ne 2 1\n", 5),
         ("p mcq 1 1 0\npart 1 1\n", 1),
         ("p mcq 2 2 0\npart 1 1\npart 2\n", 3),
         ("p mcq 2 3 0\npart 1 1\npart 2 3\n", 0),
         ("p mcq 2 3 1\npart 1 1 2\npart 2 3\ne 1 2\n", 4)],
        ids=["non-integer-header", "bare-part", "duplicate-header", "negative-header",
             "self-loop", "edge-label-out-of-range", "repeated-part-label", "part-label-out-of-range",
             "duplicate-edge", "one-part", "empty-part", "labels-skip-one", "edge-inside-part"],
    )
    def test_malformed_mcq_is_parse_error(self, text, line_no, tmp_path, capsys):
        clique = tmp_path / "bad.mcq"
        clique.write_text(text)
        assert run("gen", "mcq-reduce", clique) == 2
        assert capsys.readouterr().err.startswith(f"parse error: line {line_no}: ")

    def test_oversized_mcq_header_is_short_parse_error(self, tmp_path, capsys):
        # 10^6 declared parts and none given: checked without a list of k ids
        clique = tmp_path / "big.mcq"
        clique.write_text("p mcq 1000000 0 0\n")
        code, peak = run_peak("gen", "mcq-reduce", clique)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 0: need part lines") and len(err) < 200
        assert peak < 4_000_000

    def test_part_index_out_of_range_is_parse_error(self, tmp_path, capsys):
        clique = tmp_path / "bad.mcq"
        clique.write_text("p mcq 2 2 0\npart 1 1\npart 3 2\n")
        assert run("gen", "mcq-reduce", clique) == 2
        assert capsys.readouterr().err == "parse error: line 3: part index 3 out of range 1..2\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "0"), ("--max-w", "0"), ("--max-c", "-1"), ("--max-d", "0"),
         ("--edge-prob", "1.5"), ("--edge-prob", "-1")],
    )
    def test_nonpositive_size_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            run("gen", "random", "--n", 5, "--seed", 1, flag, value)
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_oversized_max_d_is_usage_error(self, capsys):
        assert run("gen", "random", "--n", 3, "--seed", 1, "--max-d", BIG) == 2
        assert_audit_error(capsys, "usage error")


class TestTd:
    def test_compute_validate_nice(self, p3_file, tmp_path, capsys):
        td_path = tmp_path / "p3.td"
        assert run("td", "compute", p3_file, "-o", td_path) == 0
        assert run("td", "validate", p3_file, td_path) == 0
        assert capsys.readouterr().out.strip() == "PASS"
        nice_path = tmp_path / "nice.td"
        assert run("td", "nice", p3_file, td_path, "-o", nice_path) == 0
        assert run("td", "validate", p3_file, nice_path) == 0

    def test_nice_computes_heuristic_when_no_file(self, p3_file, tmp_path):
        nice_path = tmp_path / "nice.td"
        assert run("td", "nice", p3_file, "-o", nice_path) == 0
        assert run("td", "validate", p3_file, nice_path) == 0

    @pytest.mark.parametrize("model", ["unsplit", "split"])
    def test_nice_output_round_trips(self, model, p3_file, tmp_path):
        # A nice form ends in an empty root bag; it must convert again and
        # solve at the cost of the DP's own choice of decomposition.
        one, nice, again = tmp_path / "one.td", tmp_path / "nice.td", tmp_path / "again.td"
        one.write_text("s td 1 3 3\nb 1 1 2 3\n")
        assert run("td", "nice", p3_file, one, "-o", nice) == 0
        assert "b 6\n" in nice.read_text()
        assert run("td", "nice", p3_file, nice, "-o", again) == 0
        costs = []
        for extra in ((), ("--td", nice), ("--td", again)):
            out = tmp_path / "sol.cd"
            assert run("solve", "--algo", "dp", "--model", model, *extra, "-o", out, p3_file) == 0
            costs.append(load_solution(out.read_text())[0].cost)
        assert costs == [3, 3, 3]

    def test_tab_comment_is_skipped(self, p3_file, tmp_path, capsys):
        td_path = tmp_path / "p3.td"
        td_path.write_text("c\tone bag\ns td 1 3 3\nc\tits members\nb 1 1 2 3\n")
        assert run("td", "validate", p3_file, td_path) == 0
        assert capsys.readouterr().out == "PASS\n"

    @pytest.mark.parametrize(
        "argv", [("td", "nice", "P3", "TD"), ("solve", "--algo", "dp", "--td", "TD", "P3")],
        ids=["nice", "solve-dp"],
    )
    def test_invalid_decomposition_is_one_error(self, argv, p3_file, tmp_path, capsys):
        td_path = tmp_path / "broken.td"
        td_path.write_text("s td 2 1 3\nb 1 1\nb 2 3\n1 2\n")
        files = {"P3": p3_file, "TD": td_path}
        assert run(*(files.get(a, a) for a in argv)) == 1
        assert capsys.readouterr().err.startswith("error: decomposition is invalid: FAIL\n")

    def test_nice_validates_its_own_decomposition(self, p3_file, monkeypatch, capsys):
        broken = treewidth.TreeDecomposition({1: frozenset({1, 2})}, [])
        monkeypatch.setattr(treewidth, "heuristic_decomposition", lambda inst: broken)
        assert run("td", "nice", p3_file) == 1
        assert capsys.readouterr().err.startswith("error: decomposition is invalid: FAIL\n")

    def test_validate_rejects_broken_file(self, p3_file, tmp_path):
        td_path = tmp_path / "broken.td"
        td_path.write_text("s td 2 1 3\nb 1 1\nb 2 3\n1 2\n")
        assert run("td", "validate", p3_file, td_path) == 1

    @pytest.mark.parametrize(
        "text", ["s td 1 2 3\nb 1 x 2\n", "s td 1 2 3\nb\n"], ids=["non-integer", "bare-b"]
    )
    @pytest.mark.parametrize(
        "argv",
        [("td", "validate", "P3", "TD"), ("td", "nice", "P3", "TD"),
         ("solve", "--algo", "dp", "--td", "TD", "P3")],
        ids=["validate", "nice", "solve-dp"],
    )
    def test_malformed_file_is_parse_error(self, text, argv, p3_file, tmp_path, capsys):
        td_path = tmp_path / "bad.td"
        td_path.write_text(text)
        files = {"P3": p3_file, "TD": td_path}
        assert run(*(files.get(a, a) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("parse error: line 2: ")

    @pytest.mark.parametrize(
        "text",
        ["s td 2 9 99\nb 1 1 2\nb 2 2 3\n1 2\n", "s td 2 2 2\nb 1 1 2\nb 2 2 3\n1 2\n"],
        ids=["max-bag-size", "vertex-above-n"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("td", "validate", "P3", "TD"), ("td", "nice", "P3", "TD"),
         ("solve", "--algo", "dp", "--td", "TD", "P3")],
        ids=["validate", "nice", "solve-dp"],
    )
    def test_header_disagreeing_with_bags_is_parse_error(self, text, argv, p3_file, tmp_path, capsys):
        td_path = tmp_path / "bad.td"
        td_path.write_text(text)
        files = {"P3": p3_file, "TD": td_path}
        assert run(*(files.get(a, a) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.parametrize(
        "argv",
        [("td", "validate", "P3", "TD"), ("td", "nice", "P3", "TD"),
         ("solve", "--algo", "dp", "--td", "TD", "P3")],
        ids=["validate", "nice", "solve-dp"],
    )
    def test_header_vertex_count_must_match_instance(self, argv, p3_file, tmp_path, capsys):
        td_path = tmp_path / "wrong-n.td"
        td_path.write_text("s td 2 2 99\nb 1 1 2\nb 2 2 3\n1 2\n")
        files = {"P3": p3_file, "TD": td_path}
        assert run(*(files.get(a, a) for a in argv)) == 1
        captured = capsys.readouterr()
        assert "header declares 99 vertices, instance has 3\n" in captured.out + captured.err

    def test_validate_without_file_is_usage_error(self, p3_file, capsys):
        assert run("td", "validate", p3_file) == 2
        assert "decomposition file" in capsys.readouterr().err

    def test_compute_with_second_file_is_usage_error(self, p3_file, tmp_path, capsys):
        td_path = tmp_path / "p3.td"
        assert run("td", "compute", p3_file, td_path) == 2
        captured = capsys.readouterr()
        assert "-o" in captured.err and captured.out == ""
        assert not td_path.exists()

    def test_oversized_attributes_are_parse_error(self, oversized_file, tmp_path, capsys):
        td_path = tmp_path / "out.td"
        assert run("td", "compute", oversized_file, "-o", td_path) == 2
        assert_audit_error(capsys, "parse error")
        assert not td_path.exists()


class TestBench:
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_nonpositive_budget_is_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as info:
            run("bench", "--n", 5, "--batch", 2, "--seed", 1, "--model", "unsplit",
                "--budget", budget)
        assert info.value.code == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--n", "0"), ("--max-w", "-1"), ("--max-c", "0"), ("--max-d", "0"),
         ("--batch", "-2"), ("--batch", "0"), ("--edge-prob", "1.5"), ("--edge-prob", "-1")],
    )
    def test_nonpositive_size_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            run("bench", "--n", 5, "--batch", 2, "--seed", 1, "--model", "unsplit",
                flag, value)
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_oversized_max_w_is_usage_error(self, capsys):
        assert run("bench", "--n", 3, "--batch", 1, "--seed", 1, "--model", "unsplit",
                   "--max-w", BIG) == 2
        assert_audit_error(capsys, "usage error")

    def test_csv_schema_and_bounds(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert (
            run(
                "bench",
                "--n", 6, "--batch", 8, "--seed", 3,
                "--model", "unsplit", "-o", out,
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "index,n,m,algo,model,cost,opt,opt_algo,ratio,bound"
        assert len(lines) == 9
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] == "greedy-unsplit" and fields[7] == "oracle"
            assert float(fields[8]) <= float(fields[9])

    def test_dp_reference_above_threshold(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert (
            run(
                "bench",
                "--n", 7, "--batch", 3, "--seed", 2, "--model", "split",
                "--oracle-threshold", 5, "--max-c", 3, "--max-d", 3, "-o", out,
            )
            == 0
        )
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[7] == "dp"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--n", 5, "--batch", 6, "--seed", 9, "--model", "unsplit"]
        assert run(*args, "-o", a) == 0
        assert run(*args, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unverified_solution_fails_without_csv(self, tmp_path, monkeypatch, capsys):
        empty = SolveResult(Solution({}, {}, 0))
        monkeypatch.setattr(greedy, "greedy_unsplittable", lambda inst: empty)
        out = tmp_path / "bench.csv"
        assert run("bench", "--n", 5, "--batch", 2, "--seed", 1, "--model", "unsplit", "-o", out) == 1
        assert capsys.readouterr().err.startswith("internal error: produced solution failed verification\n")
        assert not out.exists()

    def test_unweighted_requires_unit_weights(self, tmp_path):
        assert (
            run(
                "bench",
                "--n", 5, "--batch", 2, "--seed", 1, "--model", "split",
                "--algo", "greedy-unweighted",
            )
            == 2
        )
        out = tmp_path / "u.csv"
        assert (
            run(
                "bench",
                "--n", 5, "--batch", 4, "--seed", 1, "--model", "split",
                "--algo", "greedy-unweighted", "--max-w", 1, "-o", out,
            )
            == 0
        )
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[3] == "greedy-unweighted"


# Each command that reads a file: its argv with the drawn bytes as FILE, and
# the well-formed text of that file, which the drawn bytes may be spliced into.
MCQ_TEXT = "p mcq 2 2 1\npart 1 1\npart 2 2\ne 1 2\n"
READERS = {
    "solve": (("solve", "--algo", "greedy-unsplit", "FILE"), "P3"),
    "verify-instance": (("verify", "FILE", "SOL"), "P3"),
    "verify-solution": (("verify", "P3", "FILE"), "SOL"),
    "td-validate": (("td", "validate", "P3", "FILE"), "TD"),
    "mcq-reduce": (("gen", "mcq-reduce", "FILE"), "MCQ"),
}
LABELS = {"error": 1, "parse error": 2, "usage error": 2, "infeasible instance": 3, "budget exhausted": 4}


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    files = {name: root / name for name in ("P3", "SOL", "TD", "MCQ", "FILE")}
    files["P3"].write_text(P3_TEXT)
    files["MCQ"].write_text(MCQ_TEXT)
    assert main(["solve", "--algo", "greedy-unsplit", "-o", str(files["SOL"]), str(files["P3"])]) == 0
    assert main(["td", "compute", "-o", str(files["TD"]), str(files["P3"])]) == 0
    return files


@pytest.mark.parametrize("command", READERS)
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_arbitrary_bytes_exit_with_one_labelled_line(command, data, reader_files):
    # Any bytes as the file, or bytes spliced into a well-formed one: the
    # command returns an exit code and writes one labelled stderr line or
    # none (a PASS/FAIL report or a solution on stdout); it never raises.
    argv, valid = READERS[command]
    text = reader_files[valid].read_bytes()
    at = data.draw(st.integers(0, len(text)))
    drawn = data.draw(st.binary() | st.binary(max_size=4).map(lambda b: text[:at] + b + text[at:]))
    reader_files["FILE"].write_bytes(drawn)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = main([str(reader_files.get(a, a)) for a in argv])
    stderr = err.getvalue()
    if stderr:
        assert stderr.count("\n") == 1 and stderr.endswith("\n") and "Traceback" not in stderr
        assert LABELS[stderr.partition(": ")[0]] == code
    else:
        assert code in (0, 1)


def test_large_split_demands_solve_fast(tmp_path, monkeypatch):
    # 3x4 grid, c = 2, d = 8: the uncapped split DP took over a minute here;
    # 212 is its optimum, computed once with that DP.  With demands capped
    # the chosen decomposition has no join, and the routing stages return
    # 70,618 rows (283,196 when this test was written, 189,556 when v's
    # pull stages ran before its own routing); the solve fails as soon as
    # stage and join rows together pass twice 283,196, a bound that does
    # not depend on the host.
    weights = [5, 4, 7, 6, 4, 6, 5, 7, 6, 4, 5, 7]
    path = tmp_path / "grid.cd"
    path.write_text(save_instance(mk([(w, 2, 8) for w in weights], grid_instance(3, 4).edges)))
    rows, bound = 0, 2 * 283_196

    def counted(kernel):
        def wrapper(*args, **kw):
            nonlocal rows
            built = kernel(*args, **kw)
            rows += len(getattr(built, "rows", built))
            if rows > bound:
                pytest.fail(f"the DP built more than {bound} rows")
            return built
        return wrapper

    for name in ("_stage", "dp_join"):
        monkeypatch.setattr(tddp, name, counted(getattr(tddp, name)))
    out = tmp_path / "sol.cd"
    assert run("solve", "--algo", "dp", "--model", "split", "-o", out, path) == 0
    assert load_solution(out.read_text())[0].cost == 212


@pytest.fixture(scope="module")
def long_path(tmp_path_factory):
    # 2,000 vertices with w = 1, c = 2, d = 1: one copy per two vertices
    path = tmp_path_factory.mktemp("long") / "path.cd"
    path.write_text(save_instance(path_instance([(1, 2, 1)] * 2000)))
    return path


@pytest.mark.parametrize("model", ["unsplit", "split"])
def test_long_path_solves_by_dp(model, long_path, tmp_path):
    # its decompositions are 2,000 bags deep; a recursive nice-form build
    # overflowed the stack here
    out = tmp_path / "sol.cd"
    start = time.perf_counter()
    assert run("solve", "--algo", "dp", "--model", model, "-o", out, long_path) == 0
    assert time.perf_counter() - start < 10
    assert load_solution(out.read_text())[0].cost == 1000


def test_long_path_nice_decomposition(long_path, tmp_path):
    assert run("td", "nice", long_path, "-o", tmp_path / "nice.td") == 0


# sha256 of stdout for commands on two `gen random` instances, A is
# `--n 9 --seed 5` and U is `--n 8 --seed 4 --max-w 1`, and on the 3-part
# clique question M.  A digest changes only when an output byte changes, so
# refactors must leave every one of them alone.
PINNED_STDOUT = [
    (("solve", "--algo", "greedy-unsplit", "A"),
     "5ace7a518ebcb612076125f04e59d21f75084cfe2f4a3339a8e0a51082af0e46"),
    (("solve", "--algo", "greedy-split", "A"),
     "d813ae8469d13666ffaf2d45f2653a24a6ca292c954104b522d07fd8be033453"),
    (("solve", "--algo", "greedy-unweighted", "U"),
     "967e083d238d60a447c49150ec3b1e1b6f7beeebed27b2855761d649296fe478"),
    (("solve", "--algo", "greedy-unsplit", "--trace", "A"),
     "523697bedc9ae21f0467a46b61a87443718c5252b9bd060c115aeb4ea0035c09"),
    (("solve", "--algo", "greedy-split", "--trace", "A"),
     "e7fc428f95fced4a4c0ad03f94ab40e297016718083bb025acaf5b531b62cdb1"),
    (("solve", "--algo", "greedy-unweighted", "--trace", "U"),
     "6afa6bf675f87ac5ea393b3c095a6c0da4451fcf3d4267b03e85e5fe903bd60a"),
    (("solve", "--algo", "dp", "--model", "unsplit", "A"),
     "5ace7a518ebcb612076125f04e59d21f75084cfe2f4a3339a8e0a51082af0e46"),
    (("solve", "--algo", "dp", "--model", "split", "A"),
     "7a4e9b233733e3eb812b6dbe6d07fca7bea572e996205274093a0c959d59ef27"),
    (("solve", "--algo", "baker", "--k", "2", "--model", "unsplit", "A"),
     "bed7b17c79f8009948b8dc7ed4dfc1e72ec89995dd7dc697877aaf8cf7fe9515"),
    (("solve", "--algo", "baker", "--k", "2", "--model", "split", "A"),
     "42cbb997d003db9bd7c00b2696a82100b44721dedfe83d20e52fbb5ed8d838c7"),
    (("solve", "--algo", "oracle", "--model", "unsplit", "A"),
     "44fb2f20f3c4d62ba6fe52bc5d511ad9d1c6c4f9e86d089f8f5bf2a6e47b34ce"),
    (("solve", "--algo", "oracle", "--model", "split", "A"),
     "5e530c0fbb03e18ea80b128a9ac45aba06182e960d6dbe48eff0e6f93c8c071c"),
    (("bench", "--n", "6", "--batch", "4", "--seed", "3", "--model", "unsplit"),
     "bb1f5a48601456573f49a8ae3e95226134267088beb10e927418a757ae83bd60"),
    (("bench", "--n", "6", "--batch", "4", "--seed", "3", "--model", "split"),
     "080eace9e2b3551c54d8e0df684516b021b0f2f0e011c5affafd7e1662870ddf"),
    (("bench", "--n", "7", "--batch", "3", "--seed", "2", "--model", "split",
      "--oracle-threshold", "5"),
     "b797ff95de1578e48c3f98f0e21e1a215b59cb39fddb0d943ce76ed035836033"),
    (("td", "compute", "A"),
     "8d139ed2cdbea5f7f203567c32faf1b2a7004d7b3d812e5dbb412d1bc1586a03"),
    (("td", "nice", "A"),
     "5a260ebc92d122d1fa1490890151843426154bd078287f21b6b06a0c20312ac5"),
    (("gen", "mcq-reduce", "M"),
     "b7f29b78fddd39331565b3a7183079b9a5eb655de060eac3472f62faf2ab1698"),
]


@pytest.fixture(scope="module")
def pinned_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    files = {"A": root / "a.cd", "U": root / "u.cd", "M": root / "m.mcq"}
    assert run("gen", "random", "--n", 9, "--seed", 5, "-o", files["A"]) == 0
    assert run("gen", "random", "--n", 8, "--seed", 4, "--max-w", 1, "-o", files["U"]) == 0
    files["M"].write_text(
        "p mcq 3 6 5\npart 1 1 2\npart 2 3 4\npart 3 5 6\n"
        "e 1 3\ne 1 5\ne 2 4\ne 3 5\ne 4 6\n"
    )
    return files


@pytest.mark.parametrize(
    "argv,digest",
    PINNED_STDOUT,
    ids=["-".join(a.lstrip("-") for a in argv) for argv, _ in PINNED_STDOUT],
)
def test_pinned_stdout(argv, digest, pinned_instances, capsys):
    assert run(*(pinned_instances.get(a, a) for a in argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
