"""Sparse drift estimation for discretely observed ergodic diffusions.

The package has three layers:

* ``model`` / ``simulate`` -- drift families (3s-slope-plus-cosines, linear
  interaction matrices) and trajectory samplers (Euler-Maruyama with
  sub-stepping, exact Ornstein-Uhlenbeck transitions).
* ``estimate`` -- the discretized least-squares contrast assembled as an
  explicit quadratic, an exact homotopy path of the l1-penalized fit with KKT
  certification, an unpenalized (minimum-norm) solver, and blocked
  cross-validation for the penalty weight.
* ``theory`` / ``metrics`` -- closed-form tuning thresholds, event-set
  statistics from instrumented simulations, Monte Carlo audits of the
  concentration bounds, the oracle-inequality check of one fit, and
  error/support/rate scoring.

``experiments`` and ``cli`` wrap everything into a configuration-driven,
deterministic experiment runner emitting CSV tables and static SVG figures.
"""

from .errors import (
    ConfigError,
    DiagonalizationFailed,
    InstrumentationRequired,
    NumericDegeneracy,
    SimulationDiverged,
    UnstableMatrix,
)
from .model import DriftBasis
from .simulate import (
    NoiseRecord,
    OUModel,
    RecordFlags,
    Trajectory,
    ou_spectral_constants,
    simulate_linear,
    simulate_ou_exact,
    stationary_covariance,
    transition_covariance,
)
from .estimate import (
    EstimationResult,
    GramSystem,
    LassoPath,
    build_gram,
    cross_validate,
    lasso_path,
    mle_solve,
)
from .theory import (
    EventStatistics,
    ModelConstants,
    TuningConstants,
    concentration_audit_linear,
    concentration_audit_ou,
    event_statistics,
    h0,
    oracle_check,
    rate_regime,
    tuning_constants_linear,
    tuning_constants_ou,
)
from .metrics import SupportScore, error_norms, rate_fit, support_score

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DiagonalizationFailed",
    "InstrumentationRequired",
    "NumericDegeneracy",
    "SimulationDiverged",
    "UnstableMatrix",
    "DriftBasis",
    "Trajectory",
    "NoiseRecord",
    "RecordFlags",
    "OUModel",
    "simulate_linear",
    "simulate_ou_exact",
    "stationary_covariance",
    "transition_covariance",
    "ou_spectral_constants",
    "GramSystem",
    "EstimationResult",
    "LassoPath",
    "build_gram",
    "mle_solve",
    "lasso_path",
    "cross_validate",
    "ModelConstants",
    "TuningConstants",
    "EventStatistics",
    "tuning_constants_linear",
    "tuning_constants_ou",
    "h0",
    "event_statistics",
    "concentration_audit_linear",
    "concentration_audit_ou",
    "oracle_check",
    "rate_regime",
    "SupportScore",
    "error_norms",
    "support_score",
    "rate_fit",
]
