"""Complex-order moments for probability distributions.

The package computes moments of the form E[(s*i*X)^(-g)] for complex
exponents g on a horizontal line in the complex plane, and uses them to
rebuild characteristic functions and densities as finite sums.  The
fractional-calculus operators that give those moments their meaning
(Riemann-Liouville, Marchaud, Riesz, Mellin) are implemented against
characteristic functions so every pipeline step can be cross-checked.

Modules
-------
distributions
    Closed-form catalog: densities, characteristic functions, exact
    complex moments, fundamental strips, samplers.
moments
    Grid construction (closed form / quadrature / Monte Carlo),
    truncation suggestion, CSV round-trip.
fracops
    One-sided and symmetric fractional operators evaluated at the
    origin of a characteristic function, the composition check, and
    the identity suite behind ``fracmom verify``.
quadrature
    Vectorised integration engine: a family of integrals (one per grid
    node) in one pass, with a value and an error estimate per member.
reconstruct
    CF and PDF series from a moment grid, classical Taylor and residue
    baselines, curve sampling and CSV output.
special
    Array layer over SciPy: complex gamma, the reflection product and
    signed complex powers.
cli
    ``fracmom`` command-line front end.
"""

from .distributions import (
    FAMILIES,
    DistributionSpec,
    FundamentalStrip,
    closed_form_moment,
    exact_cf,
    exact_pdf,
    make_spec,
    sample,
    spec_from_config,
)
from .errors import (
    AllSamplesDegenerateError,
    ArgumentError,
    DomainError,
    FracmomError,
    PoleError,
    QuadratureError,
    StripError,
    UnsupportedError,
)
from .fracops import (
    CompositionReport,
    composition_check,
    identity_suite,
    marchaud_derivative_at_zero,
    mellin_forward,
    riesz_derivative_at_zero,
    riesz_integral_at_zero,
    rl_integral_at_zero,
)
from .moments import (
    GRID_METHODS,
    GridParams,
    MomentGrid,
    MonteCarloMoment,
    TruncationSuggestion,
    make_grid,
    moment_monte_carlo,
    moment_quadrature,
    read_grid_csv,
    suggest_truncation,
    working_strip,
    write_grid_csv,
)
from .reconstruct import (
    CurveResult,
    cf_series,
    classical_taylor_cf,
    pdf_series,
    residue_partial_sum,
    sample_curve,
    write_curve_csv,
)
from .special import complex_gamma, reflection_product, signed_complex_power

__version__ = "0.1.0"

__all__ = [
    "AllSamplesDegenerateError",
    "ArgumentError",
    "CompositionReport",
    "CurveResult",
    "DistributionSpec",
    "DomainError",
    "FAMILIES",
    "FracmomError",
    "FundamentalStrip",
    "GRID_METHODS",
    "GridParams",
    "MomentGrid",
    "MonteCarloMoment",
    "PoleError",
    "QuadratureError",
    "StripError",
    "TruncationSuggestion",
    "UnsupportedError",
    "cf_series",
    "classical_taylor_cf",
    "closed_form_moment",
    "complex_gamma",
    "composition_check",
    "exact_cf",
    "exact_pdf",
    "identity_suite",
    "make_grid",
    "make_spec",
    "marchaud_derivative_at_zero",
    "mellin_forward",
    "moment_monte_carlo",
    "moment_quadrature",
    "pdf_series",
    "read_grid_csv",
    "reflection_product",
    "residue_partial_sum",
    "riesz_derivative_at_zero",
    "riesz_integral_at_zero",
    "rl_integral_at_zero",
    "sample",
    "sample_curve",
    "signed_complex_power",
    "spec_from_config",
    "suggest_truncation",
    "working_strip",
    "write_curve_csv",
    "write_grid_csv",
    "__version__",
]
