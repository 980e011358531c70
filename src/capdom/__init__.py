"""Solvers for soft-capacitated domination on vertex-weighted graphs."""

from .core import (
    CapdomError,
    DemandModel,
    InfeasibleInstance,
    Instance,
    ParseError,
    Report,
    Solution,
    VertexAttrs,
    induced_instance,
    is_feasible,
    minimum_multiplicities,
    random_instance,
    verify_solution,
    with_demands,
)
from .fileio import load_instance, load_solution, save_instance, save_solution
from .greedy import (
    GreedyResult,
    greedy_splittable,
    greedy_unsplittable,
    greedy_unweighted_splittable,
)
from .oracle import (
    BudgetExhausted,
    CostBoundExceeded,
    SearchBudget,
    exact_solve,
    exact_splittable,
    exact_unsplittable,
    feasibility_flow,
)
from .treewidth import (
    NiceTreeDecomposition,
    TreeDecomposition,
    heuristic_decomposition,
    make_nice,
    validate_td,
)
from .tddp import solve_td
from .baker import baker_solve, bfs_levels, make_slices, merge_solutions
from .hardness import (
    CliqueInstance,
    GadgetInstance,
    load_clique_instance,
    reduce,
    save_clique_instance,
    verify_semantics,
    verify_structure,
)
