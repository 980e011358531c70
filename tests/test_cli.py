from pathlib import Path

import pytest

from capdom.cli import main
from capdom.fileio import load_solution

P3_TEXT = "p capdom 3 2\nv 1 1 1 1\nv 2 3 10 1\nv 3 1 1 1\ne 1 2\ne 2 3\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.cd"
    path.write_text(P3_TEXT)
    return path


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_unweighted_rejects_weights(self, p3_file):
        assert run("solve", "--algo", "greedy-unweighted", p3_file) == 1

    def test_infeasible_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cd"
        bad.write_text("p capdom 1 0\nv 1 1 0 2\n")
        assert run("solve", "--algo", "greedy-unsplit", bad) == 3

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
