"""Command-line entry point.

    capdom solve --algo <name> [flags] <instance>
    capdom verify --model <m> <instance> <solution>
    capdom gen random|mcq-reduce [flags]
    capdom td compute|validate|nice [flags]
    capdom bench [flags]

Exit codes: 0 success / verification PASS, 1 verification FAIL,
2 usage error, 3 infeasible instance, 4 search budget exhausted.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import fileio
from .core import (
    ORACLE_MAX_NODES,
    CapdomError,
    DemandModel,
    Instance,
    ParseError,
    Solution,
    SolveResult,
    random_instance,
    verify_solution,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .treewidth import TreeDecomposition

# Each command imports the solver modules it runs when it runs, so start-up
# loads none of them; every CapdomError carries its own exit code.
EXIT_OK = 0
EXIT_FAIL = 1


def _read(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError at their line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:  # a ValueError, which main does not report
        line_no = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ParseError(line_no, f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


class _Usage(CapdomError):
    exit_code, label = 2, "usage error"


def _load_instance(path: str) -> Instance:
    """Parse an instance file; attributes past the 64-bit audit are a parse error."""
    text = _read(path)
    try:
        return fileio.load_instance(text)
    except OverflowError as exc:
        raise ParseError(0, str(exc)) from None


def _random_instance(args, seed: int) -> Instance:
    """`random_instance` from the flags; attributes past the 64-bit audit are a usage error."""
    try:
        return random_instance(args.n, args.edge_prob, args.max_w, args.max_c, args.max_d, seed)
    except OverflowError as exc:
        raise _Usage(f"{exc}; lower --max-w, --max-c or --max-d") from None


def _checked_td(inst: Instance, td: TreeDecomposition) -> TreeDecomposition:
    """The decomposition itself; one that fails `validate_td` on inst is an error."""
    from . import treewidth
    report = treewidth.validate_td(inst, td)
    if not report.passed:
        raise CapdomError(f"decomposition is invalid: {report}")
    return td


def _run_dp(inst, model, args):
    from . import tddp, treewidth
    td = None
    if getattr(args, "td", None):  # bench has no --td flag
        td = _checked_td(inst, treewidth.load_td(_read(args.td)))
    return SolveResult(tddp.solve(inst, model, td))


def _run_baker(inst, model, args):
    if args.k is None:
        raise _Usage("--algo baker requires --k")
    if args.k < 2:
        raise _Usage(f"--algo baker needs --k >= 2, got {args.k}")
    from . import baker
    return baker.baker_solve(inst, args.k, model)


def _run_oracle(inst, model, args):
    from . import oracle
    # --budget is unset unless given; SearchBudget() holds the default.
    budget = oracle.SearchBudget() if args.budget is None else oracle.SearchBudget(args.budget)
    return SolveResult(oracle.exact_solve(inst, model, budget))


def _greedy(name: str):
    """Runner for `greedy.<name>`, looked up when it runs."""
    def run(inst, model, args):
        from . import greedy
        return getattr(greedy, name)(inst)
    return run


class Algo(NamedTuple):
    """One algorithm as `solve` and `bench` run it.  run maps (instance,
    model, parsed args) to a `SolveResult`; runners look solvers up through
    their modules at call time, so anything that patches those module
    attributes sees every call."""

    model: DemandModel | None  # the demand model it forces, if any
    bound: Callable[[Fraction], Fraction] | None  # greedy ratio bound of H_n; only these bench
    run: Callable
    flags: tuple[str, ...]  # the `solve` flags, by argparse dest, that only it reads


ALGOS = {
    "greedy-unsplit": Algo(DemandModel.UNSPLITTABLE, lambda h: h, _greedy("greedy_unsplittable"), ("trace",)),
    "greedy-split": Algo(DemandModel.SPLITTABLE, lambda h: 4 * h + 2, _greedy("greedy_splittable"), ("trace",)),
    "greedy-unweighted": Algo(
        DemandModel.SPLITTABLE, lambda h: 2 * h + 1, _greedy("greedy_unweighted_splittable"), ("trace",)
    ),
    "dp": Algo(None, None, _run_dp, ("td",)),
    "baker": Algo(None, None, _run_baker, ("k",)),
    "oracle": Algo(None, None, _run_oracle, ("budget",)),
}


def _model_for(algo: str, flag: str | None) -> DemandModel:
    forced = ALGOS[algo].model
    if forced is None:
        return DemandModel(flag) if flag else DemandModel.UNSPLITTABLE
    if flag is not None and DemandModel(flag) is not forced:
        raise _Usage(f"--model {flag} conflicts with --algo {algo}")
    return forced


def _unverified(inst: Instance, solution: Solution, model: DemandModel) -> bool:
    """True, after reporting it, when a solver's output fails `verify_solution`."""
    report = verify_solution(inst, solution, model)
    if not report.passed:
        sys.stderr.write(f"internal error: produced solution failed verification\n{report}\n")
    return not report.passed


def _solve(args) -> int:
    readers: dict[str, list[str]] = {}
    for name, algo in ALGOS.items():
        for dest in algo.flags:
            readers.setdefault(dest, []).append(name)
    # A flag with one reader is reported before a shared one, each in ALGOS order.
    for dest, names in sorted(readers.items(), key=lambda item: len(item[1])):
        if getattr(args, dest) is not None and args.algo not in names:
            raise _Usage(f"--{dest} applies only to --algo {', '.join(names)}")
    inst = _load_instance(args.instance)
    model = _model_for(args.algo, args.model)
    result = ALGOS[args.algo].run(inst, model, args)
    if _unverified(inst, result.solution, model):
        return EXIT_FAIL
    trace_lines = [t.line() for t in result.trace] if args.trace else None
    _emit(fileio.save_solution(result.solution, model, trace_lines, result.comments), args.output)
    return EXIT_OK


def _verify(args) -> int:
    inst = _load_instance(args.instance)
    solution, file_model = fileio.load_solution(_read(args.solution))
    model = DemandModel(args.model) if args.model else file_model
    report = verify_solution(inst, solution, model)
    sys.stdout.write(str(report) + "\n")
    return EXIT_OK if report.passed else EXIT_FAIL


def _gen(args) -> int:
    if args.kind == "random":
        inst = _random_instance(args, args.seed)
        _emit(fileio.save_instance(inst), args.output)
        return EXIT_OK
    from . import hardness
    cq = hardness.load_clique_instance(_read(args.clique))
    gadget = hardness.reduce(cq)
    _emit(
        fileio.save_instance(gadget.instance, comments=[f"budget {gadget.budget}"]),
        args.output,
    )
    roles_path = args.roles
    if roles_path is None and args.output is not None:
        roles_path = args.output + ".roles"
    if roles_path is not None:
        _emit("\n".join(hardness.role_lines(gadget)) + "\n", roles_path)
    return EXIT_OK


def _td(args) -> int:
    if args.action == "validate" and args.td_file is None:
        raise _Usage("td validate needs a decomposition file")
    if args.action == "compute" and args.td_file is not None:
        raise _Usage("td compute takes no decomposition file; write one with -o")
    from . import treewidth
    inst = _load_instance(args.instance)
    td = treewidth.load_td(_read(args.td_file)) if args.td_file else treewidth.heuristic_decomposition(inst)
    if args.action == "validate":
        report = treewidth.validate_td(inst, td)
        sys.stdout.write(str(report) + "\n")
        return EXIT_OK if report.passed else EXIT_FAIL
    if args.action == "nice":
        td = treewidth.project_nice(treewidth.make_nice(_checked_td(inst, td)))
    _emit(treewidth.save_td(td, inst.n), args.output)
    return EXIT_OK


def _bench(args) -> int:
    model = DemandModel(args.model)
    algo = args.algo
    if algo is None:
        algo = "greedy-unsplit" if model is DemandModel.UNSPLITTABLE else "greedy-split"
    bench_algo = ALGOS[algo]
    if bench_algo.model is not model:
        raise _Usage(f"--algo {algo} does not solve the {model.value} model")
    if algo == "greedy-unweighted" and args.max_w != 1:
        raise _Usage("greedy-unweighted requires --max-w 1")

    from fractions import Fraction
    opt_algo = "oracle" if args.n <= args.oracle_threshold else "dp"
    harmonic = sum((Fraction(1, j) for j in range(1, args.n + 1)), Fraction(0))
    bound = float(bench_algo.bound(harmonic))
    rng = random.Random(args.seed)
    rows = ["index,n,m,algo,model,cost,opt,opt_algo,ratio,bound"]
    for index in range(args.batch):
        inst = _random_instance(args, rng.randrange(2**32))
        solutions = [ALGOS[name].run(inst, model, args).solution for name in (algo, opt_algo)]
        if any(_unverified(inst, solution, model) for solution in solutions):
            return EXIT_FAIL
        cost, opt = (solution.cost for solution in solutions)
        ratio = 1.0 if opt == 0 else cost / opt
        rows.append(
            f"{index},{inst.n},{len(inst.edges)},{algo},{model.value},"
            f"{cost},{opt},{opt_algo},{ratio:.6f},{bound:.6f}"
        )
    _emit("\n".join(rows) + "\n", args.output)
    return EXIT_OK


def _positive_int(text: str) -> int:
    """argparse type for sizes and limits: anything but an int > 0 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _probability(text: str) -> float:
    """argparse type for --edge-prob: anything but a float in [0, 1] is a usage error."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="capdom", description="Soft-capacitated domination toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve.add_argument("--algo", required=True, choices=list(ALGOS))
    solve.add_argument("--model", choices=[m.value for m in DemandModel])
    solve.add_argument("--k", type=int, help="band width for the shifting scheme")
    solve.add_argument("--td", help="tree decomposition file for --algo dp")
    solve.add_argument(
        "--trace", action="store_true", default=None, help="append greedy iteration trace lines"
    )
    budget_help = f"oracle node limit (default {ORACLE_MAX_NODES})"
    solve.add_argument("--budget", type=_positive_int, help=budget_help)
    solve.add_argument("-o", "--output")
    solve.add_argument("instance")

    verify = sub.add_parser("verify", help="check a solution file")
    verify.add_argument("--model", choices=[m.value for m in DemandModel])
    verify.add_argument("instance")
    verify.add_argument("solution")

    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_random = gen_sub.add_parser("random")
    gen_random.add_argument("--n", type=_positive_int, required=True)
    gen_random.add_argument("--edge-prob", type=_probability, default=0.3)
    gen_random.add_argument("--max-w", type=_positive_int, default=5)
    gen_random.add_argument("--max-c", type=_positive_int, default=5)
    gen_random.add_argument("--max-d", type=_positive_int, default=5)
    gen_random.add_argument("--seed", type=int, required=True)
    gen_random.add_argument("-o", "--output")
    gen_mcq = gen_sub.add_parser("mcq-reduce")
    gen_mcq.add_argument("--roles", help="sidecar file for node roles")
    gen_mcq.add_argument("-o", "--output")
    gen_mcq.add_argument("clique")

    td = sub.add_parser("td", help="tree decomposition utilities")
    td.add_argument("action", choices=["compute", "validate", "nice"])
    td.add_argument("instance")
    td.add_argument("td_file", nargs="?")
    td.add_argument("-o", "--output")

    bench = sub.add_parser("bench", help="greedy-vs-exact ratio table as CSV")
    bench.add_argument("--n", type=_positive_int, required=True)
    bench.add_argument("--batch", type=_positive_int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--model", required=True, choices=[m.value for m in DemandModel])
    bench.add_argument("--algo", choices=[name for name, algo in ALGOS.items() if algo.bound])
    bench.add_argument("--edge-prob", type=_probability, default=0.3)
    bench.add_argument("--max-w", type=_positive_int, default=5)
    bench.add_argument("--max-c", type=_positive_int, default=4)
    bench.add_argument("--max-d", type=_positive_int, default=4)
    bench.add_argument("--oracle-threshold", type=int, default=9)
    bench.add_argument("--budget", type=_positive_int, help=budget_help)
    bench.add_argument("-o", "--output")
    return parser


COMMANDS = {"solve": _solve, "verify": _verify, "gen": _gen, "td": _td, "bench": _bench}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CapdomError as exc:
        sys.stderr.write(f"{exc.label}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
