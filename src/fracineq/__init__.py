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

# Each module's __all__ declares its public names and the package re-exports
# them; importing a submodule binds its name here, so errors.__all__ resolves.
from .errors import *
from .specfun import *
from .funcmodel import *
from .rlint import *
from .hh_core import *
from .sweep import *
from .cli import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *specfun.__all__,
    *funcmodel.__all__,
    *rlint.__all__,
    *hh_core.__all__,
    *sweep.__all__,
    *cli.__all__,
]
