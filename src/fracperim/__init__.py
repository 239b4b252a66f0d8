"""Fractional s-perimeters of discretized sets on uniform grids.

Subpackages: grid geometry, singular-kernel quadrature tables, the
interaction functionals and their exact identities, mollification-based
approximation, exact minimization by a minimum cut with exhaustive oracles,
and cylinder / subgraph experiments.
"""

from .errors import FracPerimError
from .grid import (
    AnalyticTail,
    CellSet,
    DomainWindow,
    GridSpec,
    ScalarField,
    TruncateAtRadius,
    full_window,
    read_grid_file,
    write_grid_file,
)
from .kernel import InteractionTable, KernelParams, build_table
from .functional import (
    PerimeterBreakdown,
    coarea_check,
    decomposition_check,
    divergence_probe_1d,
    interaction,
    perimeter,
    relaxed_energy,
)
from .approx import MollifierSpec, approximate_set, mollify, superlevel
from .minimize import (
    MinimizationProblem,
    SolverReport,
    brute_force_minimum,
    check_minimality_equivalence,
    solve_and_threshold,
    solve_locally_minimal,
    solve_relaxed,
    threshold_minimizer,
)
from .cylinder import (
    SubgraphSet,
    graph_area_asymptotics,
    nonlocal_divergence_scan,
    truncated_cylinder_perimeter,
    vertical_confinement_check,
)

__version__ = "0.1.0"

__all__ = [
    "FracPerimError",
    "GridSpec",
    "CellSet",
    "ScalarField",
    "DomainWindow",
    "AnalyticTail",
    "TruncateAtRadius",
    "full_window",
    "read_grid_file",
    "write_grid_file",
    "KernelParams",
    "InteractionTable",
    "build_table",
    "PerimeterBreakdown",
    "perimeter",
    "interaction",
    "relaxed_energy",
    "coarea_check",
    "decomposition_check",
    "divergence_probe_1d",
    "MollifierSpec",
    "mollify",
    "superlevel",
    "approximate_set",
    "MinimizationProblem",
    "SolverReport",
    "solve_relaxed",
    "solve_and_threshold",
    "solve_locally_minimal",
    "threshold_minimizer",
    "brute_force_minimum",
    "check_minimality_equivalence",
    "SubgraphSet",
    "truncated_cylinder_perimeter",
    "nonlocal_divergence_scan",
    "vertical_confinement_check",
    "graph_area_asymptotics",
    "__version__",
]
