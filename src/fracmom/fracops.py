"""Fractional operators evaluated on a characteristic function at zero.

This is the verification layer: each operator here integrates a
caller-supplied CF directly, so its output can be compared against the
closed-form moment of the same order computed in a completely different
way.  Implemented are the left/right fractional integral, the Marchaud
fractional derivative, both Riesz combinations, the forward Mellin
transform, a two-path composition (semigroup) check, and
:func:`identity_suite`, which checks every operator on a catalog CF
against moments by quadrature of the density.

Only orders with real part in (0, 1) are supported for the derivative
forms — that window covers every identity the reconstruction machinery
relies on and avoids numerical differentiation of the CF.

Conventions.  ``side`` selects which half-line of the argument function
enters the integral: ``"plus"`` integrates f(-xi), ``"minus"``
integrates f(+xi) over xi in (0, inf).  With that pairing,

    rl_integral_at_zero(cf, g, side)       == E[(s i X)^(-g)]
    marchaud_derivative_at_zero(cf, g, side) == E[(s i X)^(+g)]

for s = +1 ("plus") / -1 ("minus"), which is verified numerically in the
test suite for every catalog family.

Every integral here is one call of :func:`fracmom.moments.mirrored_integral`,
the integral of u^(-order) f(-s u) over a stretch of the half-line, which
also gives the quadrature moments:

* the Mellin integral J_s = int_0^inf xi^(gamma-1) cf(-s xi) d xi is
  order 1 - gamma on (0, inf), and the fractional integral is
  J_s / Gamma(gamma); the Mellin transform is J_s itself, so the
  identity suite's ``mellin_two_path`` row checks the Gamma(gamma)
  normalisation of one shared integral, not a second quadrature;
* the Marchaud derivative is order 1 + gamma, of cf(0) - cf on (0, 1)
  and of cf on (1, inf);
* the composition check's Weyl integral is order 1 - gamma, on
  (0, inf), of the shifted function v -> f(y - s v).

The integrand is formed for all requested orders at once on arrays of
abscissae, so ``gamma`` may be a scalar (complex result) or a 1-D array
of orders (array result), and the CF is called once per panel sequence
of the engine in :mod:`fracmom.quadrature` rather than once per point.
The engine halves its panels toward the singularity at the origin and
doubles them toward infinity, with Wynn extrapolation of the panel
sums.  For CFs with a slowly decaying oscillatory tail (the uniform
family's sinc) the ``oscillation`` hint switches the part beyond
xi = 1 to integration between consecutive zeros with
repeated-averaging (Euler) acceleration, accurate to ~1e-11 even at
Re(gamma) close to 1.  Whenever any order's error estimate exceeds
1e-7 a :class:`QuadratureError` naming that order is raised.  An order
outside an operator's strip of real parts raises :class:`StripError`
before any quadrature.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import DistributionSpec, FundamentalStrip, exact_cf
from .errors import DomainError
from .moments import MOMENT_TOL, GridParams, half_line_integrals, mirrored_integral
from .quadrature import Estimate, require
from .special import as_orders, complex_gamma, cosine_normaliser, like_orders

ComplexFunc = Callable[[np.ndarray], np.ndarray]

# error target of every operator value
_TOL = 1e-7
_SIDES = ("plus", "minus")
# real parts of the fractional integral, the Marchaud derivative and
# the composition check's combined order
_UNIT = FundamentalStrip(0.0, 1.0)


# ----------------------------------------------------------------------
# the shared integrals
# ----------------------------------------------------------------------


def _fractional_integral(mellin: Estimate, gamma) -> np.ndarray:
    # the Mellin integral over Gamma(gamma), held to the operators' tol
    gam = complex_gamma(gamma)
    result = Estimate(mellin.value / gam, mellin.error / np.abs(gam))
    require(result, _TOL, "fractional integral",
            np.broadcast_to(gamma, result.error.shape))
    return result.value


def _marchaud(
    cf: ComplexFunc, gamma: np.ndarray, side: str, oscillation: float | None
) -> np.ndarray:
    c0 = complex(cf(0.0))
    head = mirrored_integral(lambda t: c0 - cf(t), side, 1.0 + gamma, 0.0, 1.0)
    tail = mirrored_integral(cf, side, 1.0 + gamma, 1.0, math.inf, oscillation=oscillation)
    front = gamma / complex_gamma(1.0 - gamma)
    result = Estimate(
        front * (head.value + c0 / gamma - tail.value),
        (head.error + tail.error) * np.abs(front),
    )
    require(result, _TOL, "Marchaud derivative", gamma)
    return result.value


def _riesz(plus: np.ndarray, minus: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    return (plus + minus) / cosine_normaliser(gamma)


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------


def rl_integral_at_zero(
    cf: ComplexFunc,
    gamma,
    side: str,
    *,
    oscillation: float | None = None,
):
    """Fractional integral of order ``gamma`` of ``cf``, evaluated at 0.

        (1 / Gamma(gamma)) * int_0^inf  xi^(gamma-1) cf(-s xi) d xi

    The engine splits at xi = 1: the inner part handles the
    xi^(gamma-1) endpoint singularity, the outer part the decay of the
    CF (with the ``oscillation`` hint when the tail rings).  Raises
    :class:`QuadratureError` when the error estimate of any returned
    value exceeds 1e-7.
    """
    g = as_orders(gamma)
    _UNIT.require(g.real, "Re(gamma)", "fractional-integral")
    mellin = mirrored_integral(cf, side, 1.0 - g, 0.0, math.inf, oscillation=oscillation)
    return like_orders(gamma, _fractional_integral(mellin, g))


def marchaud_derivative_at_zero(
    cf: ComplexFunc,
    gamma,
    side: str,
    *,
    oscillation: float | None = None,
):
    """Marchaud fractional derivative of ``cf`` at 0, order in (0, 1).

        (gamma / Gamma(1 - gamma)) *
            int_0^inf (cf(0) - cf(-s xi)) xi^(-1-gamma) d xi

    The difference against cf(0) regularizes the origin; beyond xi = 1
    the constant part integrates analytically to cf(0)/gamma and only
    the CF term needs quadrature.
    """
    g = as_orders(gamma)
    _UNIT.require(g.real, "Re(gamma)", "Marchaud-derivative")
    return like_orders(gamma, _marchaud(cf, g, side, oscillation))


def riesz_derivative_at_zero(
    cf: ComplexFunc,
    gamma,
    *,
    oscillation: float | None = None,
):
    """Riesz fractional derivative of ``cf`` at 0: the two Marchaud
    derivatives combined with the -1/(2 cos(pi gamma/2)) normaliser.

    The negated return value equals E[|X|^gamma] when ``cf`` is the CF
    of X.
    """
    g = as_orders(gamma)
    plus, minus = (
        marchaud_derivative_at_zero(cf, g, side, oscillation=oscillation)
        for side in _SIDES
    )
    return like_orders(gamma, -_riesz(plus, minus, g))


def riesz_integral_at_zero(
    cf: ComplexFunc,
    gamma,
    *,
    oscillation: float | None = None,
):
    """Riesz fractional integral of ``cf`` at 0: both one-sided
    integrals over 2 cos(pi gamma / 2); equals E[|X|^(-gamma)] for a CF.
    """
    g = as_orders(gamma)
    plus, minus = (
        rl_integral_at_zero(cf, g, side, oscillation=oscillation)
        for side in _SIDES
    )
    return like_orders(gamma, _riesz(plus, minus, g))


def mellin_forward(
    f: ComplexFunc,
    gamma,
    side: str,
    *,
    oscillation: float | None = None,
):
    """Forward Mellin transform int_0^inf xi^(gamma-1) f(-s xi) d xi.

    This is the integral J_s that :func:`rl_integral_at_zero` divides
    by Gamma(gamma), so the identity suite's ``mellin_two_path`` row
    checks that normalisation of one shared integral, not a second
    quadrature.  The universal lower strip edge Re(gamma) > 0 is
    enforced here; convergence at the upper end depends on the decay of
    ``f`` and is reported through the quadrature error estimate instead.
    """
    g = as_orders(gamma)
    FundamentalStrip(0.0, math.inf).require(g.real, "Re(gamma)", "Mellin")
    result = mirrored_integral(f, side, 1.0 - g, 0.0, math.inf, oscillation=oscillation)
    require(result, _TOL, "Mellin transform", g)
    return like_orders(gamma, result.value)


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------


def identity_suite(spec: DistributionSpec, params: GridParams) -> dict[str, float]:
    """Check every operator on the exact CF of ``spec`` against moments
    by quadrature of its density, on the nodes of ``params``.

    Returns the rows ``rl_integral_plus``, ``rl_integral_minus``,
    ``marchaud_plus``, ``marchaud_minus``, ``riesz_derivative``,
    ``riesz_integral`` and ``mellin_two_path``, each the maximum over
    the nodes of |got - want| / (1 + |want|).  The oracle is the pair
    of :func:`~fracmom.moments.half_line_integrals` passes of ``spec``
    at u^(-gamma) and u^(+gamma), which read its density and support
    and refuse a density whose mass they miss; each signed and absolute
    moment drawn from them must meet 1e-9.
    Each operator integral (J_+, J_-, and the Marchaud K_+, K_-) is
    integrated once and must meet the operators' 1e-7.  The Riesz rows combine the one-sided values, and
    ``mellin_two_path`` compares J_- with Gamma(gamma) times the
    fractional integral made from it.  A missed target raises
    :class:`QuadratureError`.  The oracle needs both E|X|^(-rho) and
    E|X|^(+rho), and the operators 0 < rho < 1, so ``rho`` outside the
    moment strip, its mirror image and (0, 1) raises
    :class:`StripError` before any quadrature.
    """
    strip = spec.moment_strip
    strip.intersect(-strip).intersect(_UNIT).require(
        params.rho, "rho", "identity-suite", spec.label())
    cf = lambda t: exact_cf(spec, t)  # noqa: E731
    osc = spec.record.oscillation(spec.params)
    g = params.nodes()

    # Independent oracle: quadrature of the density.  The half-line
    # integrals of u^(-g) and u^(+g) give all four signed moments and
    # both absolute ones; none of their error estimates is dropped.
    below = half_line_integrals(spec, g)
    above = half_line_integrals(spec, -g)

    def oracle(estimate: Estimate) -> np.ndarray:
        require(estimate, MOMENT_TOL, "moment quadrature", g)
        return estimate.value

    mom = {side: oracle(below.signed(g, side)) for side in _SIDES}
    dmom = {side: oracle(above.signed(-g, side)) for side in _SIDES}
    abs_plus = oracle(above.absolute())  # E|X|^g
    abs_minus = oracle(below.absolute())  # E|X|^(-g)

    mellin = {side: mirrored_integral(cf, side, 1.0 - g, 0.0, math.inf, oscillation=osc)
              for side in _SIDES}
    rl = {side: _fractional_integral(mellin[side], g) for side in _SIDES}
    ma = {side: _marchaud(cf, g, side, osc) for side in _SIDES}

    def dev(got: np.ndarray, want: np.ndarray) -> float:
        return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))

    rows = {f"rl_integral_{side}": dev(rl[side], mom[side]) for side in _SIDES}
    rows.update({f"marchaud_{side}": dev(ma[side], dmom[side]) for side in _SIDES})
    rows["riesz_derivative"] = dev(-_riesz(ma["plus"], ma["minus"], g), -abs_plus)
    rows["riesz_integral"] = dev(_riesz(rl["plus"], rl["minus"], g), abs_minus)
    j = mellin["minus"]
    require(j, _TOL, "Mellin transform", g)
    two_path = np.abs(j.value - complex_gamma(g) * rl["minus"])
    rows["mellin_two_path"] = float(np.max(two_path / (1.0 + np.abs(j.value))))
    return rows


# ----------------------------------------------------------------------
# composition (semigroup) check
# ----------------------------------------------------------------------


class CompositionReport(NamedTuple):
    max_deviation: float
    points: tuple[float, ...]
    direct: tuple[complex, ...]
    nested: tuple[complex, ...]


# evaluation points per engine call on the nested path; bounds the
# (points x abscissae) integrand block held in memory
_NESTED_CHUNK = 256


def _weyl_integral(g: complex, func: ComplexFunc, y, side: str) -> np.ndarray:
    # (I^g func)(y) = 1/Gamma(g) int_0^inf u^(g-1) func(y - s u) du,
    # for every entry of the array y at once, held to the operators' tol
    y = np.asarray(y, dtype=float)
    if g == 0:
        return np.asarray(func(y), dtype=complex)
    mellin = mirrored_integral(lambda t: func(y[..., None] + t), side, 1.0 - g, 0.0, math.inf)
    return _fractional_integral(mellin, g)


def composition_check(
    gamma1: complex,
    gamma2: complex,
    f: ComplexFunc,
    *,
    points: Sequence[float] = (0.0,),
    side: str = "minus",
) -> CompositionReport:
    """Verify the semigroup property: applying orders gamma1 then gamma2
    equals a single application of order gamma1 + gamma2.

    Order zero means the identity operator, so ``gamma2 = 0`` produces a
    deviation of exactly zero by construction (both paths evaluate the
    same integral).  The nested path re-integrates the inner operator
    at every outer abscissa, in blocks of evaluation points.  Every
    engine result (the direct integral, the outer nested one and each
    inner block) must meet the operators' error target of 1e-7, or
    :class:`QuadratureError` is raised; the deviation itself carries
    no error estimate.  Each order needs a nonnegative real part
    (:class:`DomainError`), and their sum one in (0, 1)
    (:class:`StripError`).
    """
    gamma1, gamma2 = complex(gamma1), complex(gamma2)
    if gamma1.real < 0.0 or gamma2.real < 0.0:
        raise DomainError("composition orders need nonnegative real part")
    total = gamma1 + gamma2
    _UNIT.require(total.real, "Re(gamma1 + gamma2)", "composition")

    def inner(t: np.ndarray) -> np.ndarray:
        flat = t.ravel()
        blocks = np.array_split(flat, -(-flat.size // _NESTED_CHUNK))
        values = [_weyl_integral(gamma2, f, b, side) for b in blocks]
        return np.concatenate(values).reshape(t.shape)

    y = np.asarray(points, dtype=float)
    direct = _weyl_integral(total, f, y, side)
    nested = _weyl_integral(gamma1, f if gamma2 == 0 else inner, y, side)
    deviation = float(np.max(np.abs(direct - nested)))
    return CompositionReport(
        max_deviation=deviation,
        points=tuple(points),
        direct=tuple(complex(v) for v in direct),
        nested=tuple(complex(v) for v in nested),
    )
