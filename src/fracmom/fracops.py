"""Fractional operators evaluated on a characteristic function at zero.

This is the verification layer: each operator here integrates a
caller-supplied CF directly, so its output can be compared against the
closed-form moment of the same order computed in a completely different
way.  Implemented are the left/right fractional integral, the Marchaud
fractional derivative, both Riesz combinations, the forward Mellin
transform, and a two-path composition (semigroup) check.

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

Every operator is one or two calls of the vectorised engine in
:mod:`fracmom.quadrature`: the integrand is formed for all requested
orders at once on arrays of abscissae, so ``gamma`` may be a scalar
(complex result) or a 1-D array of orders (array result), and the
CF is called once per panel sequence rather than once per point.  The
engine halves its panels toward the xi^(gamma-1) singularity at the
origin and doubles them toward infinity, with Wynn extrapolation of
the panel sums.  For CFs with a slowly decaying oscillatory tail (the
uniform family's sinc) the ``oscillation`` hint switches the part
beyond xi = 1 to integration between consecutive zeros with
repeated-averaging (Euler) acceleration, accurate to ~1e-11 even at
Re(gamma) close to 1.  Whenever any order's error estimate exceeds
``tol`` a :class:`QuadratureError` naming that order is raised.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, PoleError, StripError
from .quadrature import Estimate, integrate, require
from .special import complex_gamma, sign_value

ComplexFunc = Callable[[np.ndarray], np.ndarray]


# ----------------------------------------------------------------------
# order handling
# ----------------------------------------------------------------------


def _orders(gamma) -> np.ndarray:
    return np.atleast_1d(np.asarray(gamma, dtype=complex))


def _shaped(gamma, values: np.ndarray):
    # a scalar order gives a complex, an array of orders an array
    return complex(values[0]) if np.ndim(gamma) == 0 else values


def _power(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    # x^p for every exponent (rows) and abscissa (columns), x > 0
    return np.exp(np.multiply.outer(exponents, np.log(x)))


def _gammas(z: np.ndarray) -> np.ndarray:
    return np.array([complex_gamma(v) for v in z])


def _require_unit_strip(gamma: np.ndarray, what: str) -> None:
    outside = ~((gamma.real > 0.0) & (gamma.real < 1.0))
    if outside.any():
        raise DomainError(
            f"{what} implemented for 0 < Re(gamma) < 1 only, "
            f"got {complex(gamma[outside][0])}"
        )


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------


def rl_integral_at_zero(
    cf: ComplexFunc,
    gamma,
    side: str,
    *,
    tol: float = 1e-7,
    oscillation: float | None = None,
):
    """Fractional integral of order ``gamma`` of ``cf``, evaluated at 0.

        (1 / Gamma(gamma)) * int_0^inf  xi^(gamma-1) cf(-s xi) d xi

    The engine splits at xi = 1: the inner part handles the
    xi^(gamma-1) endpoint singularity, the outer part the decay of the
    CF (with the ``oscillation`` hint when the tail rings).  Raises
    :class:`QuadratureError` when the error estimate of any returned
    value exceeds ``tol``.
    """
    g = _orders(gamma)
    _require_unit_strip(g, "fractional integral")
    s = sign_value(side)
    raw = integrate(
        lambda xi: _power(xi, g - 1.0) * cf(-s * xi),
        0.0, math.inf, oscillation=oscillation,
    )
    gam = _gammas(g)
    result = Estimate(raw.value / gam, raw.error / np.abs(gam))
    require(result, tol, "fractional integral", g)
    return _shaped(gamma, result.value)


def marchaud_derivative_at_zero(
    cf: ComplexFunc,
    gamma,
    side: str,
    *,
    tol: float = 1e-7,
    oscillation: float | None = None,
):
    """Marchaud fractional derivative of ``cf`` at 0, order in (0, 1).

        (gamma / Gamma(1 - gamma)) *
            int_0^inf (cf(0) - cf(-s xi)) xi^(-1-gamma) d xi

    The difference against cf(0) regularizes the origin; beyond xi = 1
    the constant part integrates analytically to cf(0)/gamma and only
    the CF term needs quadrature.
    """
    g = _orders(gamma)
    _require_unit_strip(g, "Marchaud derivative")
    s = sign_value(side)
    c0 = complex(cf(0.0))
    head = integrate(
        lambda xi: (c0 - cf(-s * xi)) * _power(xi, -1.0 - g), 0.0, 1.0
    )
    tail = integrate(
        lambda xi: cf(-s * xi) * _power(xi, -1.0 - g),
        1.0, math.inf, oscillation=oscillation,
    )
    front = g / _gammas(1.0 - g)
    result = Estimate(
        front * (head.value + c0 / g - tail.value),
        (head.error + tail.error) * np.abs(front),
    )
    require(result, tol, "Marchaud derivative", g)
    return _shaped(gamma, result.value)


def _cosine_normaliser(gamma: np.ndarray) -> np.ndarray:
    cos_half = np.cos(math.pi * gamma / 2.0)
    vanishing = np.abs(cos_half) <= 1e-12
    if vanishing.any():
        raise PoleError(
            "Riesz normaliser 2 cos(pi gamma / 2) vanishes at gamma = "
            f"{complex(gamma[vanishing][0])}"
        )
    return 2.0 * cos_half


def riesz_derivative_at_zero(
    cf: ComplexFunc,
    gamma,
    *,
    tol: float = 1e-7,
    oscillation: float | None = None,
):
    """Riesz fractional derivative of ``cf`` at 0: the two Marchaud
    derivatives combined with the -1/(2 cos(pi gamma/2)) normaliser.

    The negated return value equals E[|X|^gamma] when ``cf`` is the CF
    of X.
    """
    g = _orders(gamma)
    norm = _cosine_normaliser(g)
    plus = marchaud_derivative_at_zero(
        cf, g, "plus", tol=tol, oscillation=oscillation
    )
    minus = marchaud_derivative_at_zero(
        cf, g, "minus", tol=tol, oscillation=oscillation
    )
    return _shaped(gamma, -(plus + minus) / norm)


def riesz_integral_at_zero(
    cf: ComplexFunc,
    gamma,
    *,
    tol: float = 1e-7,
    oscillation: float | None = None,
):
    """Riesz fractional integral of ``cf`` at 0: both one-sided
    integrals over 2 cos(pi gamma / 2); equals E[|X|^(-gamma)] for a CF.
    """
    g = _orders(gamma)
    norm = _cosine_normaliser(g)
    plus = rl_integral_at_zero(
        cf, g, "plus", tol=tol, oscillation=oscillation
    )
    minus = rl_integral_at_zero(
        cf, g, "minus", tol=tol, oscillation=oscillation
    )
    return _shaped(gamma, (plus + minus) / norm)


def mellin_forward(
    f: ComplexFunc,
    gamma,
    side: str,
    *,
    tol: float = 1e-7,
    oscillation: float | None = None,
):
    """Forward Mellin transform int_0^inf xi^(gamma-1) f(-s xi) d xi.

    Differs from :func:`rl_integral_at_zero` exactly by the Gamma(gamma)
    factor — the two-path agreement is one of the module's tested
    identities.  The universal lower strip edge Re(gamma) > 0 is
    enforced here; convergence at the upper end depends on the decay of
    ``f`` and is reported through the quadrature error estimate instead.
    """
    g = _orders(gamma)
    if not (g.real > 0.0).all():
        raise StripError(
            f"Mellin transform needs Re(gamma) > 0, "
            f"got {complex(g[~(g.real > 0.0)][0])}"
        )
    s = sign_value(side)
    result = integrate(
        lambda xi: _power(xi, g - 1.0) * f(-s * xi),
        0.0, math.inf, oscillation=oscillation,
    )
    require(result, tol, "Mellin transform", g)
    return _shaped(gamma, result.value)


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


def _weyl_integral(g: complex, func: ComplexFunc, y, s: int) -> np.ndarray:
    # (I^g func)(y) = 1/Gamma(g) int_0^inf u^(g-1) func(y - s u) du,
    # for every entry of the array y at once
    y = np.asarray(y, dtype=float)
    if g == 0:
        return np.asarray(func(y), dtype=complex)
    raw = integrate(
        lambda u: np.exp((g - 1.0) * np.log(u)) * func(y[..., None] - s * u),
        0.0, math.inf,
    )
    return raw.value / complex_gamma(g)


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
    at every outer abscissa, in blocks of evaluation points.  The
    reported deviation includes the quadrature error of both paths.
    """
    gamma1, gamma2 = complex(gamma1), complex(gamma2)
    if gamma1.real < 0.0 or gamma2.real < 0.0:
        raise DomainError("composition orders need nonnegative real part")
    total = gamma1 + gamma2
    if not 0.0 < total.real < 1.0:
        raise DomainError(
            f"combined order must satisfy 0 < Re < 1, got {total}"
        )
    s = sign_value(side)

    def inner(t: np.ndarray) -> np.ndarray:
        flat = t.ravel()
        blocks = np.array_split(flat, -(-flat.size // _NESTED_CHUNK))
        values = [_weyl_integral(gamma2, f, b, s) for b in blocks]
        return np.concatenate(values).reshape(t.shape)

    y = np.asarray(points, dtype=float)
    direct = _weyl_integral(total, f, y, s)
    nested = _weyl_integral(gamma1, f if gamma2 == 0 else inner, y, s)
    deviation = float(np.max(np.abs(direct - nested)))
    return CompositionReport(
        max_deviation=deviation,
        points=tuple(points),
        direct=tuple(complex(v) for v in direct),
        nested=tuple(complex(v) for v in nested),
    )
