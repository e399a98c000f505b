"""Fractional operators applied to characteristic functions.

Each operator is tested against an independently computed moment — the
closed forms of the catalog, or a hand-derived value for synthetic
inputs like the point-mass CF e^{i theta}.
"""

import cmath
import logging
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracmom import fracops, quadrature
from fracmom.cli import main
from fracmom.distributions import closed_form_moment, exact_cf, make_spec
from fracmom.errors import ArgumentError, DomainError, QuadratureError, StripError
from fracmom.fracops import (
    composition_check,
    identity_suite,
    marchaud_derivative_at_zero,
    mellin_forward,
    riesz_derivative_at_zero,
    riesz_integral_at_zero,
    rl_integral_at_zero,
)
from fracmom.moments import GridParams, half_line_integrals, make_grid, moment_quadrature
from fracmom.quadrature import integrate
from fracmom.special import complex_gamma, sign_value

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


@pytest.mark.parametrize("side", ["plus", "minus"])
def test_rl_on_a_cf_that_decays_late(side):
    # the CF of rayleigh(1e-6) hardly moves before xi ~ 1e6; Wynn
    # extrapolation of those flat panel sums used to return ~1e-15
    spec = make_spec("rayleigh", sigma=1e-6)
    got = rl_integral_at_zero(lambda t: exact_cf(spec, t), 0.4, side)
    want = closed_form_moment(spec, 0.4, side)
    assert abs(got - want) <= 1e-9 * abs(want)


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
    # the point-mass CF never decays; without its oscillation hint the
    # tail cannot converge, and the estimate is reported, not dropped
    with pytest.raises(QuadratureError) as info:
        rl_integral_at_zero(_POINT_MASS_CF, 0.5, "minus")
    assert info.value.achieved > 1e-7


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


def _powers_of_ten(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


_GAUSSIAN_MEANS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]),
              _powers_of_ten(-3.0, 3.0)),
)
_LAWS = st.one_of(
    _powers_of_ten(-6.0, 1.0).map(lambda a: make_spec("uniform", a=a)),
    _powers_of_ten(-8.0, 8.0).map(lambda sigma: make_spec("rayleigh", sigma=sigma)),
    st.builds(lambda mu, sigma: make_spec("gaussian", mu=mu, sigma=sigma),
              _GAUSSIAN_MEANS, _powers_of_ten(-3.0, 3.0)),
    st.just(CAUCHY),
    st.just(make_spec("levy")),
)


@given(_LAWS, st.sampled_from([0.4, 0.4 + 2j, 0.4 - 2j]), st.sampled_from(["plus", "minus"]))
@example(make_spec("uniform", a=0.01), 0.4 + 2j, "minus")
@example(make_spec("rayleigh", sigma=1e-6), 0.4, "minus")
@example(make_spec("rayleigh", sigma=1e-8), 0.4 + 2j, "plus")
@example(make_spec("rayleigh", sigma=1.0592537251772898e-8), 0.4 - 2j, "minus")
@settings(max_examples=60, deadline=None)
def test_operators_at_any_scale_are_right_or_refused(spec, gamma, side):
    # a 24-point head piece from 1 to the sinc's first zero, and Wynn
    # extrapolation of panel sums before the CF decays, used to give
    # wrong values within their own estimates
    cf = lambda t: exact_cf(spec, t)  # noqa: E731
    osc = spec.record.oscillation(spec.params)
    for operator, order in ((rl_integral_at_zero, gamma),
                            (marchaud_derivative_at_zero, -gamma)):
        try:
            got = operator(cf, gamma, side, oscillation=osc)
        except QuadratureError:
            continue
        try:
            want = closed_form_moment(spec, order, side)
        except DomainError:
            continue
        assert abs(got - want) <= 2e-7 + 1e-9 * abs(want), operator.__name__


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


def test_composition_zero_outer_order():
    # gamma1 = 0 makes the outer operator the identity, so the nested
    # path evaluates the direct path's integral at the same points
    rep = composition_check(0.0, 0.3, lambda u: np.exp(-u), points=(0.0, 0.7))
    assert rep.max_deviation == 0.0


def test_composition_gaussian_cf():
    rep = composition_check(
        0.2, 0.2, lambda u: np.exp(-0.5 * u * u), points=(0.0, 0.5)
    )
    assert rep.max_deviation <= 1e-6


def test_composition_reports_unreachable_error_target():
    """cos never decays, so the Weyl integrals of order 0.5 cannot
    converge; their estimates are checked instead of dropped."""
    with pytest.raises(QuadratureError) as info:
        composition_check(0.2, 0.3, np.cos, points=(0.0, 0.5))
    assert info.value.achieved > 1e-7


@pytest.mark.parametrize("gamma2", [0.2, 0.0])
def test_composition_refuses_empty_points(gamma2):
    """No points used to end in a raw ValueError from ``np.array_split``,
    or with gamma2 = 0 from ``np.max`` of an empty array."""
    with pytest.raises(ArgumentError, match="^composition check needs a 1-D sequence of at "
                                            "least one point$"):
        composition_check(0.2, gamma2, _untouched, points=[])


@pytest.mark.parametrize("points", [0.5, [[0.0, 0.5]]], ids=["scalar", "2-D"])
def test_composition_refuses_points_that_are_not_a_sequence(points):
    """A scalar or a nested sequence used to end in a raw TypeError, the
    nested one after both paths were integrated."""
    with pytest.raises(ArgumentError, match="^composition check needs a 1-D sequence"):
        composition_check(0.2, 0.2, _untouched, points=points)


def test_composition_validation():
    with pytest.raises(DomainError):
        composition_check(-0.1, 0.3, lambda u: np.exp(-u))
    with pytest.raises(DomainError):
        composition_check(0.6, 0.6, lambda u: np.exp(-u))  # sum >= 1


# ----------------------------------------------------------------------
# strip checks
# ----------------------------------------------------------------------


def _untouched(t):
    # a CF that must not be integrated: every strip check comes first
    pytest.fail("integrated an order outside the strip")


# orders whose first offender in array order is the middle one
_ORDERS = np.array([0.4 + 1j, 1.3, -0.2 - 1j])

_STRIP_SITES = {
    "closed_form_moment": (
        lambda: closed_form_moment(CAUCHY, np.array([0.4, 1.3, -1.2]), "plus"),
        "Re(gamma) = 1.3 outside moment strip (-1, 1) of cauchy"),
    "make_grid": (
        lambda: make_grid(CAUCHY, GridParams(rho=1.3, delta=0.4, m=2)),
        "rho = 1.3 outside usable strip (0, 1) of cauchy"),
    "rl_integral": (
        lambda: rl_integral_at_zero(_untouched, _ORDERS, "minus"),
        "Re(gamma) = 1.3 outside fractional-integral strip (0, 1)"),
    "marchaud_derivative": (
        lambda: marchaud_derivative_at_zero(_untouched, _ORDERS, "plus"),
        "Re(gamma) = 1.3 outside Marchaud-derivative strip (0, 1)"),
    "riesz_derivative": (
        lambda: riesz_derivative_at_zero(_untouched, _ORDERS),
        "Re(gamma) = 1.3 outside Marchaud-derivative strip (0, 1)"),
    "riesz_integral": (
        lambda: riesz_integral_at_zero(_untouched, _ORDERS),
        "Re(gamma) = 1.3 outside fractional-integral strip (0, 1)"),
    "mellin_forward": (
        lambda: mellin_forward(_untouched, np.array([0.4, -0.3, -0.5]), "minus"),
        "Re(gamma) = -0.3 outside Mellin strip (0, inf)"),
    "identity_suite": (
        lambda: identity_suite(make_spec("levy"), GridParams(rho=0.7, delta=0.4, m=2)),
        "rho = 0.7 outside identity-suite strip (0, 0.5) of levy"),
    "composition_check": (
        lambda: composition_check(0.5, 0.8 + 1j, _untouched),
        "Re(gamma1 + gamma2) = 1.3 outside composition strip (0, 1)"),
}


@pytest.mark.parametrize("site", _STRIP_SITES)
def test_every_strip_site_raises_one_strip_error(site):
    """Each operation's strip check raises :class:`StripError` naming
    the first offending real part in array order, before any
    quadrature, with the message of ``FundamentalStrip.require``."""
    call, message = _STRIP_SITES[site]
    with pytest.raises(StripError) as info:
        call()
    assert str(info.value) == message


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


# ----------------------------------------------------------------------
# shared integrals against direct integrands, and the identity suite
# ----------------------------------------------------------------------

# the benchmark's families and grid
_FAMILIES = {
    "uniform": {"a": 2.0},
    "rayleigh": {"sigma": 2.0},
    "cauchy": {},
    "levy": {},
    "gaussian": {"mu": 2.0, "sigma": 1.0},
}
_GRID = GridParams(rho=0.4, delta=0.4, m=5)


def _family(name):
    spec = make_spec(name, **_FAMILIES[name])
    cf = lambda t: exact_cf(spec, t)  # noqa: E731
    osc = spec.params["a"] if name == "uniform" else None
    return spec, cf, osc


def _power(x, exponents):
    return np.exp(np.multiply.outer(exponents, np.log(x)))


def _direct_mellin(f, g, side, osc):
    s = sign_value(side)
    return integrate(
        lambda xi: _power(xi, g - 1.0) * f(-s * xi),
        0.0, math.inf, oscillation=osc,
    ).value


def _direct_marchaud(cf, g, side, osc):
    s = sign_value(side)
    c0 = complex(cf(0.0))
    head = integrate(lambda xi: (c0 - cf(-s * xi)) * _power(xi, -1.0 - g), 0.0, 1.0)
    tail = integrate(
        lambda xi: cf(-s * xi) * _power(xi, -1.0 - g),
        1.0, math.inf, oscillation=osc,
    )
    front = g / complex_gamma(1.0 - g)
    return front * (head.value + c0 / g - tail.value)


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_operators_match_direct_integrands(name):
    """Every operator on the shared half-line integrals equals the same
    operator built on its own integrand, one engine call per part."""
    _, cf, osc = _family(name)
    g = _GRID.nodes()
    norm = 2.0 * np.cos(math.pi * g / 2.0)
    gam = complex_gamma(g)
    rl, ma = {}, {}
    for side in ("plus", "minus"):
        mellin = _direct_mellin(cf, g, side, osc)
        rl[side] = mellin / gam
        ma[side] = _direct_marchaud(cf, g, side, osc)
        got = mellin_forward(cf, g, side, oscillation=osc)
        assert _close(got, mellin), side
        got = rl_integral_at_zero(cf, g, side, oscillation=osc)
        assert _close(got, rl[side]), side
        got = marchaud_derivative_at_zero(cf, g, side, oscillation=osc)
        assert _close(got, ma[side]), side
    got = riesz_derivative_at_zero(cf, g, oscillation=osc)
    assert _close(got, -(ma["plus"] + ma["minus"]) / norm)
    got = riesz_integral_at_zero(cf, g, oscillation=osc)
    assert _close(got, (rl["plus"] + rl["minus"]) / norm)


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_identity_suite_matches_public_operators(name):
    """The suite's rows are the deviations of the public operators from
    quadrature moments, each transform integrated once."""
    spec, cf, osc = _family(name)
    g = _GRID.nodes()

    def dev(got, want):
        return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))

    want = {}
    for side in ("plus", "minus"):
        got = rl_integral_at_zero(cf, g, side, oscillation=osc)
        want[f"rl_integral_{side}"] = dev(
            got, moment_quadrature(spec, g, side)
        )
    for side in ("plus", "minus"):
        got = marchaud_derivative_at_zero(cf, g, side, oscillation=osc)
        want[f"marchaud_{side}"] = dev(
            got, moment_quadrature(spec, -g, side)
        )
    abs_plus = half_line_integrals(spec, -g).absolute().value
    abs_minus = half_line_integrals(spec, g).absolute().value
    got = riesz_derivative_at_zero(cf, g, oscillation=osc)
    want["riesz_derivative"] = dev(got, -abs_plus)
    got = riesz_integral_at_zero(cf, g, oscillation=osc)
    want["riesz_integral"] = dev(got, abs_minus)
    me = mellin_forward(cf, g, "minus", oscillation=osc)
    rl = rl_integral_at_zero(cf, g, "minus", oscillation=osc)
    want["mellin_two_path"] = float(
        np.max(np.abs(me - complex_gamma(g) * rl) / (1.0 + np.abs(me)))
    )

    rows = identity_suite(spec, _GRID)
    assert list(rows) == list(want)
    for row, value in want.items():
        assert abs(rows[row] - value) <= 1e-15, row


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_verify_integrates_each_transform_once(name, monkeypatch, capsys):
    """Oracle (one pass over the orders gamma and -gamma), then J and the
    Marchaud parts together: one pass on (0, 1) and one on (1, inf), over
    the orders 1 - gamma and 1 + gamma; each call takes both sides.  A
    half-line is one panel sequence per finite part, two in all.  A
    ringing tail (uniform) is panels up to its first zero, then the
    zero-to-zero pieces, and its density's finite support one panel
    sequence; a half-line density (rayleigh, levy) has one side only."""
    calls = []
    for attr in ("_panel_sequence", "_oscillatory"):
        real = getattr(quadrature, attr)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(quadrature, attr, counted)
    argv = ["verify", "--family", name, "--rho", "0.4", "--delta", "0.4",
            "--m", "5", "--sign", "minus"]
    for key, value in _FAMILIES[name].items():
        argv += ["--param", f"{key}={value:g}"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("PASS") == 7
    assert len(calls) == 4


def test_identity_suite_logs_its_engine_work_under_debug(monkeypatch, caplog):
    spec = make_spec("gaussian", **_FAMILIES["gaussian"])
    with caplog.at_level(logging.DEBUG, logger="fracmom"):
        identity_suite(spec, _GRID)
    [line] = [r.getMessage() for r in caplog.records if r.name == "fracmom.fracops"]
    # 4 panel sequences of 2 x 32 x 21 abscissae; the oracle has 2 sides
    # x (22 orders + the mass), J and the Marchaud parts 2 sides x 22;
    # each pass forms 6 phases (|Im gamma| = 0, 0.4, ..., 2) per abscissa
    assert re.fullmatch(r"identity suite of gaussian\(mu=2, sigma=1\): 4 engine passes, "
                        r"5376 abscissae, 241920 integrand values, 32256 phase exponentials, "
                        r"\d+\.\d{3} s", line)

    # with debug logging off, nothing is counted
    def refuse():
        raise AssertionError("counted with debug logging off")

    monkeypatch.setattr(fracops, "counting", refuse)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="fracmom"):
        identity_suite(spec, _GRID)
    assert quadrature._tally.get() is None
    assert not caplog.records
