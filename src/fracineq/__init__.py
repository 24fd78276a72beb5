"""Verified endpoint-average inequalities for fractional integrals.

The package evaluates left and right Riemann-Liouville integrals with
certified adaptive quadrature, checks a weighted endpoint identity for
differentiable functions, and verifies a family of Hermite-Hadamard type
bounds that hold when |f'| or |f'|^q is s-convex (or s-concave) in the
second sense. A certifier decides the hypothesis: it proves or refutes it
from the power-sum terms where a rule applies, refutes it at a boundary
triple where one fails, and samples it otherwise; bounds are only asserted
on certified instances. Batch sweeps over
parameter grids produce CSV records and tightness summaries, also
available from the ``fracineq`` command line tool.
"""

from .errors import (
    CsvSchemaError,
    DerivativeSingularityError,
    DomainError,
    FracineqError,
    ParseError,
    QuadratureToleranceError,
)
from .specfun import beta, gamma, log_gamma
from .funcmodel import (
    CertificationReport,
    FunctionModel,
    PowerTerm,
    certify_model,
    certify_pointwise,
    parse_function,
)
from .rlint import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    integrate_adaptive,
    rl_left_with_error,
    rl_right_with_error,
)
from .hh_core import (
    BoundReport,
    ProblemInstance,
    TheoremId,
    bound,
    bound_classical,
    bound_t21,
    bound_t22,
    bound_t23,
    bound_t24,
    conjugate_exponent,
    hh_sandwich_with_error,
    identity_lhs_with_error,
    identity_rhs_with_error,
    proof_constants,
)
from .sweep import (
    CSV_COLUMNS,
    SweepGrid,
    SweepRecord,
    SweepSummary,
    apply_derivative_shrink,
    format_summary,
    grid_from_config_text,
    is_violation,
    read_csv,
    render_svg,
    run_sweep,
    standard_config_text,
    standard_grid,
    summarize,
    write_csv,
)
from .cli import ExitCode, main

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FracineqError",
    "DomainError",
    "ParseError",
    "DerivativeSingularityError",
    "QuadratureToleranceError",
    "CsvSchemaError",
    "gamma",
    "log_gamma",
    "beta",
    "PowerTerm",
    "FunctionModel",
    "parse_function",
    "CertificationReport",
    "certify_model",
    "certify_pointwise",
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "integrate_adaptive",
    "rl_left_with_error",
    "rl_right_with_error",
    "TheoremId",
    "ProblemInstance",
    "BoundReport",
    "conjugate_exponent",
    "proof_constants",
    "identity_lhs_with_error",
    "identity_rhs_with_error",
    "bound",
    "bound_t21",
    "bound_t22",
    "bound_t23",
    "bound_t24",
    "bound_classical",
    "hh_sandwich_with_error",
    "CSV_COLUMNS",
    "SweepGrid",
    "SweepRecord",
    "SweepSummary",
    "run_sweep",
    "is_violation",
    "summarize",
    "format_summary",
    "write_csv",
    "read_csv",
    "render_svg",
    "grid_from_config_text",
    "apply_derivative_shrink",
    "standard_config_text",
    "standard_grid",
    "ExitCode",
    "main",
]
