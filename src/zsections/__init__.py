"""Numerical laboratory for sections of the Hardy Z function.

The package evaluates the Z function through two independent reference
engines (Riemann-Siegel with first-order remainder, Euler-Maclaurin
continuation of zeta rotated onto the critical line), plain truncated
cosine sections with selectable cutoffs, and a binomially accelerated
section family, then compares their zero sets and error-decay laws.

Typical entry points:

>>> from zsections import z_euler_maclaurin, spira, section
>>> z_euler_maclaurin(100.0).z      # reference value of Z(100)
>>> spira(100.0)                    # half-cutoff section approximation
>>> section(100.0, 12)              # plain section with 12 terms

The ``zsections`` console script exposes the experiment harness.
"""

__version__ = "0.1.0"

from .errors import ConfigError, ConvergenceError, DomainError, ResourceLimitError
from .special_functions import theta, theta_grid
from .sections_engine import (
    CoefficientVector,
    afe,
    cosine_terms,
    section,
    spira,
    z_custom,
)
from .reference_engine import ReferenceValue, z_euler_maclaurin, z_riemann_siegel
from .acceleration_engine import (
    AcceleratedCoefficients,
    accelerated_coefficients,
    accelerated_triangle,
    accelerated_vertical,
    closing_coefficient,
    coefficient_direct_sum,
    coefficient_l2_distance,
    step_coefficients,
)
from .schemes import (
    SchemeEvaluator,
    SchemeKind,
    SchemeSpec,
    evaluate_grid,
    parse_scheme_kind,
)
from .zero_scanner import (
    ConjectureSummary,
    DipEvent,
    ScanResult,
    SchemeMatch,
    ZeroComparison,
    ZeroRecord,
    compare_zero_sets,
    conjecture_sweep,
    grid_points,
    scan_zeros,
)

__all__ = [
    "__version__",
    "ConfigError", "ConvergenceError", "DomainError", "ResourceLimitError",
    "theta", "theta_grid",
    "CoefficientVector", "afe", "cosine_terms", "section",
    "spira", "z_custom",
    "ReferenceValue", "z_euler_maclaurin", "z_riemann_siegel",
    "AcceleratedCoefficients", "accelerated_coefficients",
    "accelerated_triangle", "accelerated_vertical", "closing_coefficient",
    "coefficient_direct_sum", "coefficient_l2_distance", "step_coefficients",
    "SchemeEvaluator", "SchemeKind", "SchemeSpec", "evaluate_grid",
    "parse_scheme_kind",
    "ConjectureSummary", "DipEvent", "ScanResult", "SchemeMatch",
    "ZeroComparison", "ZeroRecord", "compare_zero_sets", "conjecture_sweep",
    "grid_points", "scan_zeros",
]
