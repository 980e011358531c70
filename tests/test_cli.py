import hashlib
import time
import tracemalloc
from pathlib import Path

import pytest

from capdom import oracle
from capdom.cli import main
from capdom.fileio import load_solution, save_instance

from conftest import grid_instance, mk

P3_TEXT = "p capdom 3 2\nv 1 1 1 1\nv 2 3 10 1\nv 3 1 1 1\ne 1 2\ne 2 3\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.cd"
    path.write_text(P3_TEXT)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_peak(*argv):
    """`run`, plus the peak bytes Python allocated during the call."""
    tracemalloc.start()
    try:
        return run(*argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolve:
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
         ("p mcq 2 2 1\npart 1 1\np mcq 2 2 0\npart 2 2\n", 3), ("p mcq -1 2 1\n", 1)],
        ids=["non-integer-header", "bare-part", "duplicate-header", "negative-header"],
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

    def test_validate_without_file_is_usage_error(self, p3_file, capsys):
        assert run("td", "validate", p3_file) == 2
        assert "decomposition file" in capsys.readouterr().err

    def test_compute_with_second_file_is_usage_error(self, p3_file, tmp_path, capsys):
        td_path = tmp_path / "p3.td"
        assert run("td", "compute", p3_file, td_path) == 2
        captured = capsys.readouterr()
        assert "-o" in captured.err and captured.out == ""
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


def test_large_split_demands_solve_fast(tmp_path):
    # 3x4 grid, c = 2, d = 8: the uncapped split DP took over a minute here;
    # 212 is its optimum, computed once with that DP.
    weights = [5, 4, 7, 6, 4, 6, 5, 7, 6, 4, 5, 7]
    path = tmp_path / "grid.cd"
    path.write_text(save_instance(mk([(w, 2, 8) for w in weights], grid_instance(3, 4).edges)))
    out = tmp_path / "sol.cd"
    start = time.perf_counter()
    assert run("solve", "--algo", "dp", "--model", "split", "-o", out, path) == 0
    assert time.perf_counter() - start < 2
    assert load_solution(out.read_text())[0].cost == 212


# sha256 of stdout for commands on two `gen random` instances: A is
# `--n 9 --seed 5`, U is `--n 8 --seed 4 --max-w 1`.  A digest changes only
# when an output byte changes, so refactors must leave every one of them alone.
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
     "44fb2f20f3c4d62ba6fe52bc5d511ad9d1c6c4f9e86d089f8f5bf2a6e47b34ce"),
    (("solve", "--algo", "dp", "--model", "split", "A"),
     "c9ab1c9215f2705a8d76fef635a3dfb0257ebab05b39e3477bf99b008d351fe6"),
    (("solve", "--algo", "baker", "--k", "2", "--model", "unsplit", "A"),
     "bed7b17c79f8009948b8dc7ed4dfc1e72ec89995dd7dc697877aaf8cf7fe9515"),
    (("solve", "--algo", "baker", "--k", "2", "--model", "split", "A"),
     "cbbd037412f41248086b9d4d1553886b295a1d01f6cc668755b94eed6e8f43f9"),
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
]


@pytest.fixture(scope="module")
def pinned_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    files = {"A": root / "a.cd", "U": root / "u.cd"}
    assert run("gen", "random", "--n", 9, "--seed", 5, "-o", files["A"]) == 0
    assert run("gen", "random", "--n", 8, "--seed", 4, "--max-w", 1, "-o", files["U"]) == 0
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
