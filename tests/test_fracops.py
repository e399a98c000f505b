"""Fractional operators applied to characteristic functions.

Each operator is tested against an independently computed moment — the
closed forms of the catalog, or a hand-derived value for synthetic
inputs like the point-mass CF e^{i theta}.
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from fracmom.distributions import closed_form_moment, exact_cf, make_spec
from fracmom.errors import DomainError, QuadratureError, StripError
from fracmom.fracops import (
    composition_check,
    marchaud_derivative_at_zero,
    mellin_forward,
    riesz_derivative_at_zero,
    riesz_integral_at_zero,
    rl_integral_at_zero,
)

UNIFORM = make_spec("uniform", a=2.0)
RAYLEIGH = make_spec("rayleigh", sigma=2.0)
CAUCHY = make_spec("cauchy")

_RAYLEIGH_CF = lambda t: exact_cf(RAYLEIGH, t)  # noqa: E731
_UNIFORM_CF = lambda t: exact_cf(UNIFORM, t)  # noqa: E731
_CAUCHY_CF = lambda t: exact_cf(CAUCHY, t)  # noqa: E731
_POINT_MASS_CF = lambda t: np.exp(1j * t)  # noqa: E731  (X = 1 a.s.)


# ----------------------------------------------------------------------
# one-sided integral
# ----------------------------------------------------------------------


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("gamma", [0.4, 0.4 + 0.4j, 0.7 - 1.2j])
def test_rl_matches_closed_moment(side, gamma):
    got = rl_integral_at_zero(_RAYLEIGH_CF, gamma, side)
    want = closed_form_moment(RAYLEIGH, gamma, side)
    assert abs(got - want) <= 1e-8


def test_rl_point_mass():
    # E[(-i*1)^(-1/2)] = e^{i pi/4}; the CF of a point mass never
    # decays, so the tail is only conditionally convergent and needs
    # the oscillation hint (angular frequency = the atom's location)
    got = rl_integral_at_zero(_POINT_MASS_CF, 0.5, "minus", oscillation=1.0)
    want = cmath.exp(1j * math.pi / 4.0)
    assert abs(got - want) <= 1e-10


def test_rl_oscillatory_tail_hint():
    """The sinc CF decays only like 1/xi; the plain adaptive tail
    integration cannot see its cancellation, the zero-split accelerated
    path can.  Hard case: order close to the strip's upper edge."""
    gamma = 0.999
    got = rl_integral_at_zero(_UNIFORM_CF, gamma, "minus", oscillation=2.0)
    want = closed_form_moment(UNIFORM, gamma, "minus")
    assert abs(got - want) <= 1e-8


def test_rl_outside_unit_strip():
    for bad in (0.0, 1.0, 1.3, -0.2, complex(1.01, 0.5)):
        with pytest.raises(DomainError):
            rl_integral_at_zero(_RAYLEIGH_CF, bad, "minus")


def test_rl_unreachable_tolerance():
    with pytest.raises(QuadratureError) as info:
        rl_integral_at_zero(_RAYLEIGH_CF, 0.4, "minus", tol=1e-16)
    assert info.value.achieved > 1e-16


# ----------------------------------------------------------------------
# Marchaud derivative
# ----------------------------------------------------------------------


@pytest.mark.parametrize("side", ["plus", "minus"])
@pytest.mark.parametrize("gamma", [0.3, 0.4 + 0.8j])
def test_marchaud_matches_negated_order_moment(side, gamma):
    got = marchaud_derivative_at_zero(_RAYLEIGH_CF, gamma, side)
    want = closed_form_moment(RAYLEIGH, -gamma, side)
    assert abs(got - want) <= 1e-8


def test_marchaud_point_mass():
    # E[(-i*1)^{+1/2}] = e^{-i pi/4}, same hint story as the integral
    got = marchaud_derivative_at_zero(
        _POINT_MASS_CF, 0.5, "minus", oscillation=1.0
    )
    want = cmath.exp(-1j * math.pi / 4.0)
    assert abs(got - want) <= 1e-10


def test_marchaud_uniform_with_hint():
    got = marchaud_derivative_at_zero(_UNIFORM_CF, 0.5, "minus", oscillation=2.0)
    want = closed_form_moment(UNIFORM, -0.5, "minus")
    assert abs(got - want) <= 1e-8


# ----------------------------------------------------------------------
# symmetric (two-sided) operators
# ----------------------------------------------------------------------


def test_riesz_derivative_uniform():
    """-E|X|^(1/2) for X ~ uniform(-2,2) is -(2/3)sqrt(2)."""
    got = riesz_derivative_at_zero(_UNIFORM_CF, 0.5, oscillation=2.0)
    want = -2.0 * math.sqrt(2.0) / 3.0
    assert abs(got - want) <= 1e-8
    assert abs(got.imag) <= 1e-10


def test_riesz_integral_cauchy():
    # E|X|^(-1/2) of the unit Cauchy is sqrt(2)
    got = riesz_integral_at_zero(_CAUCHY_CF, 0.5)
    assert abs(got - math.sqrt(2.0)) <= 1e-8


def test_riesz_integral_uniform():
    # E|X|^(-1/2) of uniform(-2,2) is also sqrt(2): (1/2) int_0^2 x^(-1/2)
    got = riesz_integral_at_zero(_UNIFORM_CF, 0.5, oscillation=2.0)
    assert abs(got - math.sqrt(2.0)) <= 1e-8


def test_riesz_real_orders_against_direct_quadrature():
    """Real orders 1/4, 1/2, 3/4 across bounded, light- and heavy-
    tailed families: the symmetric derivative recovers -E|X|^g and the
    symmetric integral recovers E|X|^(-g), each checked against a
    direct integral of the density (measured devs are ~1e-10)."""
    from scipy.integrate import quad as _quad

    from fracmom.distributions import exact_pdf

    for spec in (make_spec("uniform", a=2.0),
                 make_spec("gaussian", mu=2.0, sigma=1.0),
                 make_spec("cauchy")):
        cf = lambda t: exact_cf(spec, t)  # noqa: E731
        pdf = lambda u: float(exact_pdf(spec, u))  # noqa: E731
        osc = spec.params["a"] if spec.family == "uniform" else None
        lo, hi = spec.support

        def abs_moment(g):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                total = 0.0
                for a, b, orient in ((max(lo, 0.0), hi, 1.0),
                                     (max(0.0, -hi), -lo, -1.0)):
                    if b > a:
                        total += _quad(lambda u: u ** g * pdf(orient * u),
                                       a, b, epsabs=1e-11, limit=200)[0]
            return total

        for g in (0.25, 0.5, 0.75):
            deriv = riesz_derivative_at_zero(cf, g, oscillation=osc)
            assert abs(deriv - (-abs_moment(g))) <= 1e-4, (spec.family, g)
            integ = riesz_integral_at_zero(cf, g, oscillation=osc)
            assert abs(integ - abs_moment(-g)) <= 1e-4, (spec.family, g)


def test_riesz_complex_order_consistency():
    """At complex order the symmetric combinations must still equal the
    cosine-weighted sum of the one-sided values they are built from."""
    g = 0.4 + 0.6j
    norm = 2.0 * cmath.cos(math.pi * g / 2.0)
    rl_p = rl_integral_at_zero(_CAUCHY_CF, g, "plus")
    rl_m = rl_integral_at_zero(_CAUCHY_CF, g, "minus")
    got = riesz_integral_at_zero(_CAUCHY_CF, g)
    assert abs(got - (rl_p + rl_m) / norm) <= 1e-9


# ----------------------------------------------------------------------
# Mellin transform
# ----------------------------------------------------------------------


def test_mellin_exponential():
    # int_0^inf xi^(-1/2) e^(-xi) d xi = Gamma(1/2) = sqrt(pi)
    got = mellin_forward(lambda t: np.exp(-abs(t)), 0.5, "minus")
    assert abs(got - math.sqrt(math.pi)) <= 1e-9


def test_mellin_rational():
    # int_0^inf xi^(-1/2) / (1 + xi) d xi = pi
    got = mellin_forward(lambda t: 1.0 / (1.0 + abs(t)), 0.5, "minus")
    assert abs(got - math.pi) <= 1e-7


def test_mellin_strip_edge():
    with pytest.raises(StripError):
        mellin_forward(_CAUCHY_CF, 0.0, "minus")
    with pytest.raises(StripError):
        mellin_forward(_CAUCHY_CF, -0.3 + 1j, "minus")


def test_mellin_gamma_factor_vs_rl():
    from fracmom.special import complex_gamma

    g = 0.6 + 0.5j
    me = mellin_forward(_RAYLEIGH_CF, g, "minus")
    rl = rl_integral_at_zero(_RAYLEIGH_CF, g, "minus")
    assert abs(me - complex_gamma(g) * rl) <= 1e-8 * max(abs(me), 1.0)


# ----------------------------------------------------------------------
# composition (semigroup) rule
# ----------------------------------------------------------------------


def test_composition_eigenfunction():
    """e^{-y} is an eigenfunction of the right-sided integral for every
    order, so nesting two orders must match the single combined order
    essentially exactly."""
    rep = composition_check(0.3, 0.25, lambda u: np.exp(-u), points=(0.0, 0.7))
    assert rep.max_deviation <= 1e-9
    assert rep.points == (0.0, 0.7)
    assert len(rep.direct) == len(rep.nested) == 2


def test_composition_zero_inner_order():
    # gamma2 = 0 collapses the inner operator to the identity; the
    # check then compares an integral against itself
    rep = composition_check(0.4, 0.0, lambda u: np.exp(-u), points=(0.0,))
    assert rep.max_deviation == 0.0


def test_composition_gaussian_cf():
    rep = composition_check(
        0.2, 0.2, lambda u: np.exp(-0.5 * u * u), points=(0.0, 0.5)
    )
    assert rep.max_deviation <= 1e-6


def test_composition_validation():
    with pytest.raises(DomainError):
        composition_check(-0.1, 0.3, lambda u: np.exp(-u))
    with pytest.raises(DomainError):
        composition_check(0.6, 0.6, lambda u: np.exp(-u))  # sum >= 1


# ----------------------------------------------------------------------
# sign conventions, cross-checked between operators
# ----------------------------------------------------------------------


def test_side_pairing_consistency():
    """For an asymmetric distribution the two sides differ, and each
    must line up with its own closed-form moment, not the other's."""
    g = 0.4
    p = rl_integral_at_zero(_RAYLEIGH_CF, g, "plus")
    m = rl_integral_at_zero(_RAYLEIGH_CF, g, "minus")
    cp = closed_form_moment(RAYLEIGH, g, "plus")
    cm = closed_form_moment(RAYLEIGH, g, "minus")
    assert abs(p - m) > 0.1  # genuinely distinct
    assert abs(p - cp) <= 1e-8 and abs(m - cm) <= 1e-8
    assert abs(p - cm) > 0.1 and abs(m - cp) > 0.1
