"""The vectorised quadrature engine and the layers built on it.

Engine-level checks use integrals with known values; the layer checks
hold one array call against per-node scalar calls on the identity grid
(rho = delta = 0.4, m = 5) and against the catalog closed forms.
"""

import math

import numpy as np
import pytest
from scipy import special as sp_special

from fracmom import quadrature
from fracmom.distributions import closed_form_moment, exact_cf, make_spec
from fracmom.errors import ArgumentError, QuadratureError
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


def test_panel_sequence_extrapolates_each_row_alone(monkeypatch):
    """Rows whose last sums have reached roundoff (a zero row, a fast
    decay) and rows that still move (power tails) share a block; only the
    moving rows enter the epsilon table, and every row gets the bits it
    gets alone."""
    rows = [lambda x: 0.0 * x, lambda x: x**-1.5, lambda x: np.exp(-x),
            lambda x: x**-1.2 * np.cos(x), lambda x: x**-1.8]
    block = quadrature._panel_sequence(lambda x: np.stack([r(x) for r in rows]), 1.0, math.inf)
    for i, row in enumerate(rows):
        alone = quadrature._panel_sequence(row, 1.0, math.inf)
        assert block.value[i].tobytes() == alone.value.tobytes(), i
        assert block.error[i].tobytes() == alone.error.tobytes(), i
    tabled, wynn = [], quadrature._wynn

    def spy(sums, *rest):
        tabled.append(len(sums))
        return wynn(sums, *rest)

    monkeypatch.setattr(quadrature, "_wynn", spy)
    quadrature._panel_sequence(lambda x: np.stack([r(x) for r in rows]), 1.0, math.inf)
    assert tabled == [3]


# uniform(a) with the hint oscillation = a: its first zero at or past 1
# is pi / a, far out, where the old absolute tolerance put it at 0
_FAR_ZERO = (1e-12, 1e-13)


def _uniform(a):
    spec = make_spec("uniform", a=a)
    return spec, lambda t: exact_cf(spec, t)


@pytest.mark.parametrize("a", _FAR_ZERO)
@pytest.mark.parametrize("g", [0.4, 0.4 + 1j])
def test_fractional_integral_finds_a_far_first_zero(a, g):
    # was 80350.8 for 85075.9 at a = 1e-12, g = 0.4, with no error
    spec, cf = _uniform(a)
    want = closed_form_moment(spec, g, "minus")
    assert abs(rl_integral_at_zero(cf, g, "minus", oscillation=a) - want) <= 1e-9 * abs(want)


def test_fractional_integral_past_its_panels_is_refused():
    # was 1.2735e120 for 1.3484e120 with no error
    _, cf = _uniform(1e-300)
    with pytest.raises(QuadratureError, match="fractional integral"):
        rl_integral_at_zero(cf, 0.4, "minus", oscillation=1e-300)


@pytest.mark.parametrize("a, g", [pytest.param(a, 0.4, id=str(a)) for a in _FAR_ZERO]
                         + [(1e-300, 0.4), (1e-300, 0.4 + 1j)])
def test_marchaud_derivative_with_a_far_first_zero_is_right_or_refused(a, g):
    # was 0.6714 for 9.2e-6 (a = 1e-12) and 3.6e-6 (a = 1e-13), with no
    # error: the zero-to-zero pieces ran from 0, outside [1, inf).  At
    # a = 1e-300 it was 0.6715 (1.339-1.390i at 0.4+1i) for 5.8e-121,
    # with an estimate under 1e-7: the panels of [1, pi / a] halved
    # toward 1, and their innermost, [1, 7e290], held no abscissa near 1
    spec, cf = _uniform(a)
    want = closed_form_moment(spec, -g, "minus")
    try:
        got = marchaud_derivative_at_zero(cf, g, "minus", oscillation=a)
    except QuadratureError:
        return
    assert abs(got - want) <= 1e-9 * abs(want)


def test_a_stretch_whose_innermost_panel_passes_its_start_has_no_bound():
    """[a, b] with a > 0 halves toward a: once (b - a) 2^-32 > a, its
    innermost panel is wider than a and no abscissa sees the scale near
    a, so every row's estimate is infinite.  A stretch from 0, or with a
    narrower innermost panel, keeps its estimate."""
    def f(x):
        return np.stack([np.exp(-x), 1.0 / (1.0 + x * x)])

    assert np.all(np.isinf(integrate(f, 1.0, 2.0**33).error))
    assert np.all(np.isfinite(integrate(f, 1.0, 2.0**32 + 1.0).error))
    for a, want in ((0.0, [1.0, math.pi / 2.0]), (1.0, [math.exp(-1.0), math.pi / 4.0])):
        got = integrate(f, a, 2.0**20)
        assert np.all(got.error <= 1e-11)
        assert np.allclose(got.value, want, rtol=0.0, atol=2e-6)


@pytest.mark.parametrize("freq", [0.0, -2.0, math.nan, math.inf, 1e-320])
def test_a_bad_oscillation_is_refused_before_any_integrand(freq):
    # was a raw ZeroDivisionError (0), an estimate of nan (-2), a raw
    # ValueError (nan) or OverflowError (inf), and a RuntimeWarning
    # (1e-320, whose half-period pi / 1e-320 overflows)
    def never(x):
        raise AssertionError("integrand evaluated")

    with pytest.raises(ArgumentError, match="^oscillation must be finite and > 0"):
        integrate(never, 0.0, math.inf, oscillation=freq)
    _, cf = _uniform(2.0)
    for op in (rl_integral_at_zero, marchaud_derivative_at_zero):
        with quadrature.counting() as tally, pytest.raises(ArgumentError):
            op(cf, 0.4, "minus", oscillation=freq)
        assert not tally["passes"], op.__name__


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
