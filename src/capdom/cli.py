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
from fractions import Fraction

from . import baker, fileio, greedy, hardness, oracle, tddp, treewidth
from .core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    ParseError,
    Solution,
    random_instance,
    verify_solution,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


class _Usage(Exception):
    pass


def _greedy_result(result: greedy.GreedyResult) -> tuple[Solution, list[str], list[str]]:
    return result.solution, result.trace_lines(), []


def _run_dp(inst, model, args):
    td = None
    if getattr(args, "td", None):  # bench has no --td flag
        td = treewidth.load_td(_read(args.td))
        report = treewidth.validate_td(inst, td)
        if not report.passed:
            raise CapdomError(f"supplied decomposition is invalid: {report}")
    return tddp.solve(inst, model, td), [], []


def _run_baker(inst, model, args):
    if args.k is None:
        raise _Usage("--algo baker requires --k")
    if args.k < 2:
        raise _Usage(f"--algo baker needs --k >= 2, got {args.k}")
    result = baker.baker_solve(inst, args.k, model)
    comments = [
        f"shift component={comp} r={r} cost={cost}"
        for comp, costs in enumerate(result.shift_costs)
        for r, cost in enumerate(costs)
    ]
    return result.solution, [], comments


def _run_oracle(inst, model, args):
    # `solve` leaves --budget unset unless given; SearchBudget() holds the default.
    budget = oracle.SearchBudget() if args.budget is None else oracle.SearchBudget(args.budget)
    return oracle.exact_solve(inst, model, budget), [], []


# name -> (model the algorithm forces or None, greedy ratio bound as a
# function of H_n or None, runner).  Algorithms with a bound can be benched.
# A runner maps (instance, model, parsed args) to (solution, trace lines,
# comment lines).  Runners look solvers up through their modules at call
# time, so anything that patches those module attributes sees every call.
ALGOS = {
    "greedy-unsplit": (
        DemandModel.UNSPLITTABLE,
        lambda h: h,
        lambda inst, model, args: _greedy_result(greedy.greedy_unsplittable(inst)),
    ),
    "greedy-split": (
        DemandModel.SPLITTABLE,
        lambda h: 4 * h + 2,
        lambda inst, model, args: _greedy_result(greedy.greedy_splittable(inst)),
    ),
    "greedy-unweighted": (
        DemandModel.SPLITTABLE,
        lambda h: 2 * h + 1,
        lambda inst, model, args: _greedy_result(greedy.greedy_unweighted_splittable(inst)),
    ),
    "dp": (None, None, _run_dp),
    "baker": (None, None, _run_baker),
    "oracle": (None, None, _run_oracle),
}


def _model_for(algo: str, flag: str | None) -> DemandModel:
    forced = ALGOS[algo][0]
    if forced is None:
        return DemandModel(flag) if flag else DemandModel.UNSPLITTABLE
    if flag is not None and DemandModel(flag) is not forced:
        raise _Usage(f"--model {flag} conflicts with --algo {algo}")
    return forced


# `solve` flags that only some algorithms read, by argparse dest.  Only
# the greedy runners return trace lines.
SOLVE_ONLY_FLAGS = {
    "td": ("dp",),
    "k": ("baker",),
    "budget": ("oracle",),
    "trace": ("greedy-unsplit", "greedy-split", "greedy-unweighted"),
}


def _solve(args) -> int:
    for dest, algos in SOLVE_ONLY_FLAGS.items():
        if getattr(args, dest) is not None and args.algo not in algos:
            raise _Usage(f"--{dest} applies only to --algo {', '.join(algos)}")
    inst = fileio.load_instance(_read(args.instance))
    model = _model_for(args.algo, args.model)
    solution, trace_lines, comments = ALGOS[args.algo][2](inst, model, args)
    report = verify_solution(inst, solution, model)
    if not report.passed:
        sys.stderr.write(f"internal error: produced solution failed verification\n{report}\n")
        return EXIT_FAIL
    _emit(
        fileio.save_solution(
            solution,
            model,
            trace_lines=trace_lines if args.trace else None,
            comments=comments or None,
        ),
        args.output,
    )
    return EXIT_OK


def _verify(args) -> int:
    inst = fileio.load_instance(_read(args.instance))
    solution, file_model = fileio.load_solution(_read(args.solution))
    model = DemandModel(args.model) if args.model else file_model
    report = verify_solution(inst, solution, model)
    sys.stdout.write(str(report) + "\n")
    return EXIT_OK if report.passed else EXIT_FAIL


def _gen(args) -> int:
    if args.kind == "random":
        inst = random_instance(
            args.n, args.edge_prob, args.max_w, args.max_c, args.max_d, args.seed
        )
        _emit(fileio.save_instance(inst), args.output)
        return EXIT_OK
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
    inst = fileio.load_instance(_read(args.instance))
    if args.action == "compute":
        td = treewidth.heuristic_decomposition(inst)
        _emit(treewidth.save_td(td, inst.n), args.output)
        return EXIT_OK
    if args.action == "validate":
        td = treewidth.load_td(_read(args.td_file))
        report = treewidth.validate_td(inst, td)
        sys.stdout.write(str(report) + "\n")
        return EXIT_OK if report.passed else EXIT_FAIL
    td = (
        treewidth.load_td(_read(args.td_file))
        if args.td_file
        else treewidth.heuristic_decomposition(inst)
    )
    report = treewidth.validate_td(inst, td)
    if not report.passed:
        raise CapdomError(f"decomposition is invalid: {report}")
    ntd = treewidth.make_nice(td)
    projected = treewidth.project_nice(ntd)
    _emit(treewidth.save_td(projected, inst.n), args.output)
    return EXIT_OK


def _harmonic(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def _bench(args) -> int:
    model = DemandModel(args.model)
    algo = args.algo
    if algo is None:
        algo = "greedy-unsplit" if model is DemandModel.UNSPLITTABLE else "greedy-split"
    forced, bound_of, runner = ALGOS[algo]
    if forced is not model:
        raise _Usage(f"--algo {algo} does not solve the {model.value} model")
    if algo == "greedy-unweighted" and args.max_w != 1:
        raise _Usage("greedy-unweighted requires --max-w 1")

    rng = random.Random(args.seed)
    rows = ["index,n,m,algo,model,cost,opt,opt_algo,ratio,bound"]
    for index in range(args.batch):
        inst = random_instance(
            args.n,
            args.edge_prob,
            args.max_w,
            args.max_c,
            args.max_d,
            rng.randrange(2**32),
        )
        cost = runner(inst, model, args)[0].cost
        opt_algo = "oracle" if args.n <= args.oracle_threshold else "dp"
        opt = ALGOS[opt_algo][2](inst, model, args)[0].cost
        ratio = 1.0 if opt == 0 else cost / opt
        bound = float(bound_of(_harmonic(args.n)))
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
    solve.add_argument("--budget", type=_positive_int, help="oracle node limit (default 5000000)")
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
    bench.add_argument("--algo", choices=[name for name, entry in ALGOS.items() if entry[1]])
    bench.add_argument("--edge-prob", type=_probability, default=0.3)
    bench.add_argument("--max-w", type=_positive_int, default=5)
    bench.add_argument("--max-c", type=_positive_int, default=4)
    bench.add_argument("--max-d", type=_positive_int, default=4)
    bench.add_argument("--oracle-threshold", type=int, default=9)
    bench.add_argument("--budget", type=_positive_int, default=5_000_000)
    bench.add_argument("-o", "--output")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _solve(args)
        if args.command == "verify":
            return _verify(args)
        if args.command == "gen":
            return _gen(args)
        if args.command == "td":
            return _td(args)
        if args.command == "bench":
            return _bench(args)
        parser.error(f"unknown command {args.command}")
    except (_Usage, greedy.NotUnweighted) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_USAGE
    except InfeasibleInstance as exc:
        sys.stderr.write(f"infeasible instance: {exc}\n")
        return EXIT_INFEASIBLE
    except oracle.BudgetExhausted as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return EXIT_BUDGET
    except (CapdomError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
