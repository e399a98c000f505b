"""The vectorised quadrature engine and the layers built on it.

Engine-level checks use integrals with known values; the layer checks
hold one array call against per-node scalar calls on the identity grid
(rho = delta = 0.4, m = 5) and against the catalog closed forms.
"""

import math

import numpy as np
import pytest
from scipy import special as sp_special

from fracmom.distributions import closed_form_moment, exact_cf, make_spec
from fracmom.errors import QuadratureError
from fracmom.fracops import (
    marchaud_derivative_at_zero,
    mellin_forward,
    riesz_derivative_at_zero,
    riesz_integral_at_zero,
    rl_integral_at_zero,
)
from fracmom.moments import GridParams, half_line_integrals, moment_quadrature
from fracmom.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    Estimate,
    integrate,
    require,
)

ALL_SPECS = (
    make_spec("uniform", a=2.0),
    make_spec("rayleigh", sigma=2.0),
    make_spec("cauchy"),
    make_spec("levy"),
    make_spec("gaussian", mu=2.0, sigma=1.0),
)
NODES = GridParams(rho=0.4, delta=0.4, m=5).nodes()


def _osc(spec):
    return spec.params["a"] if spec.family == "uniform" else None


# ----------------------------------------------------------------------
# rule and engine
# ----------------------------------------------------------------------


def test_kronrod_rule_degrees():
    # 21-point Kronrod exact through degree 31, embedded Gauss through 19
    for k in range(32):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        assert KRONROD_WEIGHTS @ KRONROD_NODES**k == pytest.approx(exact, abs=1e-14)
        if k < 20:
            assert GAUSS_WEIGHTS @ KRONROD_NODES**k == pytest.approx(exact, abs=1e-14)
    gauss, _ = np.polynomial.legendre.leggauss(10)
    assert np.allclose(np.sort(KRONROD_NODES[GAUSS_WEIGHTS > 0]), gauss, atol=1e-15)


def test_singular_power_all_rows():
    # int_0^1 x^(g-1) dx = 1/g, for a whole row of orders at once
    g = np.array([0.05, 0.4 - 2.0j, 0.4, 0.4 + 2.0j, 0.95])
    est = integrate(lambda x: np.exp(np.multiply.outer(g - 1.0, np.log(x))), 0.0, 1.0)
    assert est.value.shape == est.error.shape == g.shape
    err = np.abs(est.value - 1.0 / g)
    assert np.all(err <= np.maximum(est.error, 1e-14))
    assert np.all(est.error <= 1e-9)


def test_gamma_integral_half_line():
    # int_0^inf x^(g-1) e^(-x) dx = Gamma(g)
    g = np.array([0.3, 0.7 + 1.5j, 2.5])
    est = integrate(
        lambda x: np.exp(np.multiply.outer(g - 1.0, np.log(x)) - x), 0.0, math.inf
    )
    want = sp_special.gamma(g)
    assert np.all(np.abs(est.value - want) <= np.maximum(est.error, 1e-14))
    assert np.max(np.abs(est.value - want)) <= 1e-12


def test_power_tail_extrapolated():
    # a pure power tail: doubling panels give a geometric sequence
    est = integrate(lambda x: x**-1.5, 1.0, math.inf)
    assert est.value.shape == ()
    assert abs(est.value - 2.0) <= max(float(est.error), 1e-14)
    assert abs(est.value - 2.0) <= 1e-12


def test_oscillatory_tail():
    # int_1^inf sin(x)/x dx = pi/2 - Si(1)
    est = integrate(lambda x: np.sin(x) / x, 1.0, math.inf, oscillation=1.0)
    want = math.pi / 2.0 - sp_special.sici(1.0)[0]
    assert abs(est.value - want) <= 1e-10
    assert abs(est.value - want) <= max(float(est.error), 1e-14)


def test_integrand_called_once_per_panel_sequence():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x)

    integrate(f, 0.0, math.inf)
    assert len(calls) == 2  # [0, 1] halving, [1, inf) doubling


def test_require_names_worst_node():
    est = Estimate(np.zeros(3), np.array([1e-12, 5e-3, 1e-4]))
    nodes = np.array([0.4 - 0.4j, 0.4 + 0j, 0.4 + 0.4j])
    with pytest.raises(QuadratureError, match=r"gamma = \(0\.4\+0j\)") as info:
        require(est, 1e-6, "test integral", nodes)
    assert info.value.achieved == 5e-3
    require(est, 1e-2, "test integral", nodes)  # within target: silent


def test_require_accepts_an_empty_estimate():
    # an argmax over no rows used to raise a raw ValueError
    require(Estimate(np.zeros(0, dtype=complex), np.zeros(0)), 1e-9, "test integral",
            np.zeros(0, dtype=complex))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_no_orders_give_no_values(spec):
    """An empty order array gives an empty array from every operator and
    moment estimator, as it does from the closed forms."""
    cf = lambda t: exact_cf(spec, t)  # noqa: E731
    none = np.zeros(0, dtype=complex)
    osc = _osc(spec)
    for got in (rl_integral_at_zero(cf, none, "minus", oscillation=osc),
                marchaud_derivative_at_zero(cf, none, "plus", oscillation=osc),
                riesz_derivative_at_zero(cf, none, oscillation=osc),
                moment_quadrature(spec, none, "minus"),
                closed_form_moment(spec, none, "minus")):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_scalar_only_callable_is_refused():
    # the engine evaluates on arrays; a math.* integrand cannot be used
    with pytest.raises(TypeError):
        integrate(lambda x: math.exp(-x), 0.0, 1.0)


# ----------------------------------------------------------------------
# one array call against per-node scalar calls
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_moment_quadrature_array_matches_scalar_and_closed_form(spec):
    for sign in ("plus", "minus"):
        whole = moment_quadrature(spec, NODES, sign)
        each = np.array([moment_quadrature(spec, g, sign) for g in NODES])
        assert np.max(np.abs(whole - each)) <= 1e-12
        est = half_line_integrals(spec, NODES).signed(NODES, sign)
        want = np.array([closed_form_moment(spec, g, sign) for g in NODES])
        assert np.all(np.abs(est.value - want) <= np.maximum(est.error, 1e-12))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_operators_array_matches_scalar(spec):
    cf = lambda t: exact_cf(spec, t)  # noqa: E731
    osc = _osc(spec)
    one_sided = (rl_integral_at_zero, marchaud_derivative_at_zero)
    for op in one_sided:
        for side in ("plus", "minus"):
            whole = op(cf, NODES, side, oscillation=osc)
            each = np.array([op(cf, g, side, oscillation=osc) for g in NODES])
            assert np.max(np.abs(whole - each)) <= 1e-12, (op.__name__, side)
    for op in (riesz_derivative_at_zero, riesz_integral_at_zero):
        whole = op(cf, NODES, oscillation=osc)
        each = np.array([op(cf, g, oscillation=osc) for g in NODES])
        assert np.max(np.abs(whole - each)) <= 1e-12, op.__name__
    whole = mellin_forward(cf, NODES, "minus", oscillation=osc)
    each = np.array([mellin_forward(cf, g, "minus", oscillation=osc) for g in NODES])
    assert np.max(np.abs(whole - each)) <= 1e-12


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_operators_reproduce_closed_forms(spec):
    cf = lambda t: exact_cf(spec, t)  # noqa: E731
    osc = _osc(spec)
    for side in ("plus", "minus"):
        rl = rl_integral_at_zero(cf, NODES, side, oscillation=osc)
        want = np.array([closed_form_moment(spec, g, side) for g in NODES])
        assert np.max(np.abs(rl - want)) <= 1e-10, side
        ma = marchaud_derivative_at_zero(cf, NODES, side, oscillation=osc)
        want = np.array([closed_form_moment(spec, -g, side) for g in NODES])
        assert np.max(np.abs(ma - want)) <= 1e-10, side


def test_scalar_order_gives_complex_array_gives_array():
    cf = lambda t: exact_cf(ALL_SPECS[2], t)  # noqa: E731
    assert isinstance(rl_integral_at_zero(cf, 0.4, "minus"), complex)
    out = rl_integral_at_zero(cf, NODES, "minus")
    assert isinstance(out, np.ndarray) and out.shape == NODES.shape
