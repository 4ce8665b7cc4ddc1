"""multiell: high-precision evaluation and numerical verification of
multiple elliptic integral identities.

The package couples an AGM-based complete elliptic integral, a
double-exponential quadrature engine, Legendre/Clausen/Ramanujan series
machinery, and finite-difference certification of the annihilating
differential operators behind the identities, all threaded through an
explicit PrecisionContext.
"""

from .diffop import (Residual, apply_annihilator_fd, laplace_residual,
                     laplace_residual_of, ode_annihilator_residual,
                     ode_annihilator_residual_closed_form)
from .elliptic import (agm, ellipk, ellipk_complementary, ellipk_series,
                       generating_integral_closed_form)
from .errors import (BridgeInconsistencyError, DomainError,
                     IntegrandFailureError, NonConvergenceError,
                     OutOfDomainError, SingularityError)
from .gammafn import gamma
from .identities import (IdentityRecord, ParamSpec, VerificationReport,
                         export, get_identity, list_identities, sweep, verify)
from .legendre import orthogonality_gram
from .precision import PrecisionContext
from .quadrature import INF, MAX_LEVEL, IntegralSpec, QuadResult, integrate
from .selftest import CheckResult, run_selftest
from .series import (BridgeCoefficients, SeriesId, clausen_sum, clausen_sum_da,
                     legendre_sum, linear_bridge, ramanujan_sum, ramanujan_target)
from .singular import lambda_star, rhs_constant, singular_value_residual

__version__ = "0.1.0"

__all__ = [
    "PrecisionContext", "gamma",
    "agm", "ellipk", "ellipk_series",
    "ellipk_complementary", "generating_integral_closed_form",
    "IntegralSpec", "QuadResult", "integrate",
    "INF", "MAX_LEVEL", "orthogonality_gram",
    "SeriesId", "BridgeCoefficients", "clausen_sum",
    "clausen_sum_da", "legendre_sum", "ramanujan_sum", "ramanujan_target",
    "linear_bridge",
    "lambda_star", "singular_value_residual", "rhs_constant",
    "Residual", "ode_annihilator_residual",
    "ode_annihilator_residual_closed_form", "laplace_residual",
    "laplace_residual_of", "apply_annihilator_fd",
    "IdentityRecord", "ParamSpec", "VerificationReport", "list_identities",
    "get_identity", "verify", "sweep", "export",
    "CheckResult", "run_selftest",
    "DomainError", "SingularityError", "OutOfDomainError",
    "NonConvergenceError", "IntegrandFailureError", "BridgeInconsistencyError",
]
