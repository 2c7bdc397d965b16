"""Exact solver toolkit for budget-coupled spend adjustment.

Activities carry a separable concave quadratic revenue response; changes
from the baseline plan are capped by a budget row, per-activity bounds, a
minimum-change requirement, and a cardinality cap on how many activities
may move.  The package provides the instance model, two mixed-integer
model builders (indicator big-M and activation-scaled cone form), a
Lagrangian-bounded branch-and-bound, a seeded instance generator, and CSV
/ SVG / LP exporters behind the ``mixopt`` command line.
"""

from .bnb import (BRUTE_FORCE_MAX_N, SolveParams, SolveResult,
                  branch_and_bound, brute_force)
from .gen import (CORRELATIONS, STRONG, UNCORRELATED, WEAK, Cell, GenConfig,
                  batch, generate, mix_seed, paper_cells)
from .hull import (ConeRow, LinearRow, ModelIR, Variable, build_miqp,
                   build_misocp, check_minlp_feasible, perspective_value)
from .instance import (Instance, InstanceError, InvalidActivityError,
                       InvalidInstanceError, LinearConstraint, ParseError,
                       Region, SchemaError, Solution, UnsupportedInstanceError,
                       ValidationReport, load_json, save_json, validate)
from .lp import export_lp, write_lp
from .relax import (MIQP, PERSPECTIVE, FixedOutcome, Formulation, NodeState,
                    RelaxResult, dual_value, root_bounds,
                    solve_fixed_assignment, solve_node_relaxation)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_MAX_N", "Cell", "ConeRow", "CORRELATIONS",
    "FixedOutcome", "Formulation", "GenConfig",
    "Instance", "InstanceError", "InvalidActivityError",
    "InvalidInstanceError", "LinearConstraint", "LinearRow", "MIQP",
    "ModelIR", "NodeState", "ParseError", "PERSPECTIVE", "Region",
    "RelaxResult",
    "SchemaError", "Solution", "SolveParams", "SolveResult", "STRONG",
    "UNCORRELATED", "UnsupportedInstanceError", "ValidationReport",
    "Variable", "WEAK", "batch", "branch_and_bound", "brute_force",
    "build_miqp", "build_misocp", "check_minlp_feasible",
    "dual_value", "export_lp", "generate", "load_json",
    "mix_seed", "paper_cells",
    "perspective_value", "root_bounds", "save_json",
    "solve_fixed_assignment", "solve_node_relaxation", "validate",
    "write_lp",
]
