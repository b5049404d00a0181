"""Certified numerics for the shift map on Taylor coefficient streams.

The differential operator on functions sum a_n x^n / n! acts on the
coefficient stream (a_n) by dropping the first entry.  This package
carries out that identification with certified interval enclosures:
tail-sum thresholds, the stream metrics and L^p distances, the
shift/derivative commuting squares, and the constructions that witness
dense periodic points, transitivity, and sensitive dependence on
finite-alphabet families.  The `chaos-lab` entry point in `cli` exposes
the property suites and constructions from the shell.
"""

from .coeffspace import (
    Alphabet,
    CoeffSeq,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    derivative_sup_bound,
    evaluate,
    from_json,
    from_payload,
    same_stream,
    shift,
    to_json,
    to_payload,
    word_start_index,
)
from .conjugacy import (
    check_commuting_square,
    check_translation_isometry,
    nearby_distinct_point,
    translate,
    untranslate,
)
from .constructions import (
    bernstein_approx,
    dense_orbit_point,
    ef_approximation,
    ensure_two_coeff_values,
    filtration,
    orbit_search,
    periodic_approx_in_EF,
    periodic_point_in_cinf,
    sensitivity_witness,
    transitivity_witness,
)
from .errors import (
    CertificationFailure,
    ChaosLabError,
    ConfigError,
    DomainError,
    InfeasibleTolerance,
    ToleranceUnreachable,
)
from .intervals import BoundInterval
from .metrics import (
    FACTORIAL_WEIGHTS,
    UNIT_WEIGHTS,
    LpSpec,
    Weights,
    d_E,
    d_lambda,
    holder_compare,
    rho_p,
    series_norm,
    weighted_product_metric,
)
from .tailmath import (
    alpha,
    compute_m_gamma,
    compute_n_gamma,
    eta,
    separation_lower_bound,
    xi,
    xi_decrement,
    zeta,
)
from .verify import VerifyConfig, run_suites

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BoundInterval",
    "CertificationFailure",
    "ChaosLabError",
    "CoeffSeq",
    "ConfigError",
    "DomainError",
    "EventuallyPeriodic",
    "FACTORIAL_WEIGHTS",
    "FiniteSupport",
    "InfeasibleTolerance",
    "LpSpec",
    "SeriesFn",
    "ToleranceUnreachable",
    "UNIT_WEIGHTS",
    "VerifyConfig",
    "Weights",
    "WordEnumeration",
    "alpha",
    "bernstein_approx",
    "check_commuting_square",
    "check_translation_isometry",
    "compute_m_gamma",
    "compute_n_gamma",
    "d_E",
    "d_lambda",
    "dense_orbit_point",
    "derivative_sup_bound",
    "ef_approximation",
    "ensure_two_coeff_values",
    "eta",
    "evaluate",
    "filtration",
    "from_json",
    "from_payload",
    "holder_compare",
    "nearby_distinct_point",
    "orbit_search",
    "periodic_approx_in_EF",
    "periodic_point_in_cinf",
    "rho_p",
    "run_suites",
    "same_stream",
    "sensitivity_witness",
    "separation_lower_bound",
    "series_norm",
    "shift",
    "to_json",
    "to_payload",
    "transitivity_witness",
    "translate",
    "untranslate",
    "weighted_product_metric",
    "word_start_index",
    "xi",
    "xi_decrement",
    "zeta",
]
