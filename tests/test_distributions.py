"""Catalog closed forms: densities, CFs, complex moments, strips, samplers.

The moment goldens were pinned from quadrature of the defining integral
plus extended-precision evaluation of each closed form — two independent
routes agreeing to 1e-13 before a value was frozen here.
"""

import logging
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from fracmom import distributions
from fracmom.distributions import (
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
from fracmom.errors import ArgumentError, DomainError, StripError
from fracmom.moments import GridParams

UNIFORM = make_spec("uniform", a=2.0)
RAYLEIGH = make_spec("rayleigh", sigma=2.0)
CAUCHY = make_spec("cauchy")
LEVY = make_spec("levy")
GAUSS21 = make_spec("gaussian", mu=2.0, sigma=1.0)
GAUSS01 = make_spec("gaussian", mu=0.0, sigma=1.0)

ALL_SPECS = [UNIFORM, RAYLEIGH, CAUCHY, LEVY, GAUSS21]


# ----------------------------------------------------------------------
# spec construction and validation
# ----------------------------------------------------------------------


def test_families_tuple():
    assert FAMILIES == ("uniform", "rayleigh", "cauchy", "levy", "gaussian")


def test_defaults_applied():
    assert make_spec("uniform").params == {"a": 2.0}
    assert make_spec("rayleigh").params == {"sigma": 2.0}
    assert make_spec("gaussian").params == {"mu": 2.0, "sigma": 1.0}
    assert make_spec("cauchy").params == {}


@pytest.mark.parametrize(
    "family,params",
    [
        ("nosuch", {}),
        ("uniform", {"b": 1.0}),
        ("uniform", {"a": -1.0}),
        ("uniform", {"a": 0.0}),
        ("rayleigh", {"sigma": -2.0}),
        ("gaussian", {"sigma": 0.0}),
        ("cauchy", {"scale": 1.0}),
        ("rayleigh", {"sigma": "x"}),
        ("rayleigh", {"sigma": None}),
        ("rayleigh", {"sigma": "2"}),
        ("gaussian", {"sigma": True}),
        ("uniform", 5),
        ("cauchy", ["scale"]),
        ("rayleigh", {"sigma": math.inf}),
        ("uniform", {"a": math.inf}),
        ("gaussian", {"mu": math.nan}),
        ("gaussian", {"mu": -math.inf}),
    ],
)
def test_bad_specs_rejected(family, params):
    with pytest.raises(ArgumentError):
        DistributionSpec(family, params)


def test_spec_parameters_accept_any_finite_real():
    spec = DistributionSpec("gaussian", {"mu": np.float32(0.5), "sigma": 3})
    assert spec.params == {"mu": 0.5, "sigma": 3.0}
    assert all(type(v) is float for v in spec.params.values())


def test_gaussian_mu_zero_allowed():
    # location may be any real, including zero and negatives
    assert make_spec("gaussian", mu=0.0).params["mu"] == 0.0
    assert make_spec("gaussian", mu=-3.5).params["mu"] == -3.5


def test_spec_from_config_roundtrip():
    spec = spec_from_config({"family": "rayleigh", "params": {"sigma": 2.0}})
    assert spec == RAYLEIGH
    with pytest.raises(ArgumentError):
        spec_from_config({"family": "rayleigh", "extra": 1})
    with pytest.raises(ArgumentError):
        spec_from_config({"params": {}})
    with pytest.raises(ArgumentError):
        spec_from_config([1, 2])


def test_specs_frozen_and_hashable():
    assert len({UNIFORM, CAUCHY, UNIFORM}) == 2
    with pytest.raises(Exception):
        UNIFORM.family = "cauchy"  # type: ignore[misc]


def test_labels():
    assert UNIFORM.label() == "uniform(a=2)"
    assert GAUSS21.label() == "gaussian(mu=2, sigma=1)"
    assert CAUCHY.label() == "cauchy"


# ----------------------------------------------------------------------
# strips
# ----------------------------------------------------------------------


def test_moment_strips():
    assert UNIFORM.moment_strip == FundamentalStrip(-math.inf, 1.0)
    assert RAYLEIGH.moment_strip == FundamentalStrip(-math.inf, 2.0)
    assert CAUCHY.moment_strip == FundamentalStrip(-1.0, 1.0)
    assert LEVY.moment_strip == FundamentalStrip(-0.5, math.inf)
    assert GAUSS21.moment_strip == FundamentalStrip(-math.inf, 1.0)


def test_strip_behaviour():
    s = FundamentalStrip(-1.0, 1.0)
    s.require(np.array([0.4, 0.999, -0.999]), "x", "test")
    for edge in (1.0, -1.0, math.nan):  # open interval
        message = rf"^x = {edge} outside test strip \(-1, 1\)$"
        with pytest.raises(StripError, match=message):
            s.require(edge, "x", "test")
    assert s.intersect(FundamentalStrip(0.0, 3.0)) == FundamentalStrip(0.0, 1.0)
    assert str(FundamentalStrip(0.0, math.inf)) == "(0, inf)"
    assert str(s) == "(-1, 1)"


# ----------------------------------------------------------------------
# densities and characteristic functions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
def test_pdf_normalized(spec):
    lo, hi = spec.support
    mass, _ = quad(lambda x: float(exact_pdf(spec, x)), lo, hi, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_pdf_support_edges():
    assert float(exact_pdf(UNIFORM, 2.5)) == 0.0
    assert float(exact_pdf(UNIFORM, 1.5)) == 0.25
    assert float(exact_pdf(RAYLEIGH, -0.3)) == 0.0
    assert float(exact_pdf(LEVY, 0.0)) == 0.0  # essential singularity limit
    arr = exact_pdf(LEVY, np.array([-1.0, 0.0, 1.0]))
    assert arr[0] == 0.0 and arr[1] == 0.0 and arr[2] > 0.0
    # exp(-1/(2x)) underflows first, and x^1.5 below x ~ 1e-216: no 0/0
    assert exact_pdf(LEVY, 1e-300) == 0.0 == exact_pdf(LEVY, 5e-324)
    assert exact_pdf(LEVY, 1e-4) == 0.0 < exact_pdf(LEVY, 1e-3)


def test_cf_at_zero_is_one():
    for spec in ALL_SPECS:
        assert complex(exact_cf(spec, 0.0)) == pytest.approx(1.0 + 0j)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
@given(theta=st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=60)
def test_cf_hermitian_and_bounded(spec, theta):
    v = complex(exact_cf(spec, theta))
    w = complex(exact_cf(spec, -theta))
    assert abs(v) <= 1.0 + 1e-12
    assert abs(w - v.conjugate()) <= 1e-14


@pytest.mark.parametrize("family", FAMILIES)
@given(x=st.floats(allow_nan=False, allow_infinity=False),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       mu=st.floats(min_value=-1e3, max_value=1e3))
@example(x=1e-300, scale=1.0, mu=0.0)
@example(x=1e200, scale=1e-3, mu=0.0)
@example(x=1.7976931348623157e308, scale=1e3, mu=1e3)
@example(x=math.inf, scale=1.0, mu=2.0)
@example(x=-math.inf, scale=1e-3, mu=0.0)
@settings(max_examples=100, deadline=None)
def test_pdf_and_cf_are_finite_on_the_whole_double_range(family, x, scale, mu):
    # the levy density's 0/0 below x ~ 1e-216, the overflowing squares
    # of the rayleigh, cauchy and gaussian tails, the uniform sinc's NaN,
    # the gaussian CF's 0 * inf at +-inf
    params = {"uniform": {"a": scale}, "rayleigh": {"sigma": scale},
              "gaussian": {"mu": mu, "sigma": scale}}.get(family, {})
    spec = make_spec(family, **params)
    points = np.array([x, -x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [exact_pdf(spec, x), exact_cf(spec, x),
                  *exact_pdf(spec, points), *exact_cf(spec, points)]
    assert all(np.isfinite(v) for v in values)


def test_gaussian_cf_where_mu_theta_leaves_double_range():
    # the phase exp(i mu theta) is NaN there: 0 where the modulus has
    # underflowed as well, NaN without a warning where it has not
    theta = np.array([1e308, -1e308, 1e10, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = exact_cf(make_spec("gaussian", mu=10.0, sigma=1e-200), theta)
        narrow = exact_cf(make_spec("gaussian", mu=1e300, sigma=1e-300), theta)
        scalar = exact_cf(make_spec("gaussian", mu=10.0, sigma=1e-200), 1e308)
    assert np.array_equal(tiny[:2], [0.0, 0.0]) and scalar == 0.0
    assert np.array_equal(tiny[2:], np.exp(1j * 10.0 * theta[2:]))
    assert np.isnan(narrow[2]) and np.isfinite(narrow[3])


def _rayleigh_pdf_50_digits(sigma, x):
    with mpmath.workdps(50):
        z = mpmath.mpf(x) / sigma
        return float(z / sigma * mpmath.exp(-z * z / 2)) if z > 0 else 0.0


@pytest.mark.parametrize("sigma,x", [
    (1e200, [1.0, 1.5, 2.0, 1e200, 3e201]),
    (9.78e-300, [1e-300, 1.5e-300, 2e-300, 3.5e-298]),
    (1e-160, [1e-160, 1e-158, -1e-160]),
    (2.0, [1e-3, 0.7, 3.0, 70.0]),
])
def test_rayleigh_pdf_at_extreme_scales(sigma, x):
    # sigma^2 leaves double range past about 1e154 and below about
    # 1e-154; x/sigma does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exact_pdf(make_spec("rayleigh", sigma=sigma), np.array(x))
    want = np.array([_rayleigh_pdf_50_digits(sigma, v) for v in x])
    # z = x/sigma is rounded once, so the exponent -z^2/2 is off by up to
    # about 2 eps z^2, plus a few roundings of the value
    z = np.abs(np.array(x) / sigma)
    assert np.all(np.abs(got - want) <= 2.3e-16 * (4.0 + 2.0 * z * z) * want)


def test_rayleigh_pdf_at_a_power_of_two_scale_is_the_plain_formula():
    # x/sigma and x/sigma^2 round alike when sigma is a power of two
    x = np.random.default_rng(0).uniform(0.0, 90.0, 10_000)
    got = exact_pdf(RAYLEIGH, x)
    assert np.array_equal(got, x / 4.0 * np.exp(-x * x / 8.0))


def test_uniform_cf_is_real_sinc():
    th = np.array([0.3, 1.0, math.pi / 2.0])
    got = exact_cf(UNIFORM, th)
    want = np.sin(2.0 * th) / (2.0 * th)
    assert np.allclose(got.imag, 0.0, atol=1e-15)
    assert np.allclose(got.real, want, atol=1e-14)


def test_cf_golden_spots():
    """CF values pinned from series/erfc oracles."""
    got = complex(exact_cf(RAYLEIGH, 1.3))
    assert got == pytest.approx(
        complex(-0.24048159569289050325, 0.11094760653205558909), abs=1e-13
    )
    got = complex(exact_cf(LEVY, 1.0))
    assert got == pytest.approx(
        complex(0.19876611034641294063, 0.30955987565311219844), abs=1e-13
    )
    got = complex(exact_cf(LEVY, 0.7))
    assert got == pytest.approx(
        complex(0.29019043041227447683, 0.32157833546618648661), abs=1e-13
    )
    got = complex(exact_cf(GAUSS21, 0.9))
    want = np.exp(1j * 2.0 * 0.9 - 0.5 * 0.81)
    assert got == pytest.approx(want, abs=1e-14)
    got = complex(exact_cf(CAUCHY, -2.2))
    assert got == pytest.approx(math.exp(-2.2) + 0j, abs=1e-15)


def test_rayleigh_cf_against_direct_quadrature():
    # independent route: integrate cos/sin against the density
    for theta in (0.4, 2.7):
        re, _ = quad(lambda x: math.cos(theta * x) * float(exact_pdf(RAYLEIGH, x)),
                     0.0, np.inf, limit=200)
        im, _ = quad(lambda x: math.sin(theta * x) * float(exact_pdf(RAYLEIGH, x)),
                     0.0, np.inf, limit=200)
        assert complex(exact_cf(RAYLEIGH, theta)) == pytest.approx(
            complex(re, im), abs=1e-10
        )


def _rayleigh_cf_60_digits(theta):
    # 1 - q e^(-q^2/2) sqrt(pi/2) (erfi(q/sqrt2) - i), q = sigma theta
    import mpmath

    with mpmath.workdps(60):
        q = 2 * mpmath.mpf(theta)
        x = q / mpmath.sqrt(2)
        re = 1 - q * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-x * x) * mpmath.erfi(x)
        im = q * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-x * x)
        return complex(re, im)


@pytest.mark.parametrize("theta", [1e3, 1e6, 1e8, 1e10, -1e8])
def test_rayleigh_cf_far_tail_against_mpmath(theta):
    """The Faddeeva form cancels like eps (sigma theta)^2: at theta = 1e8
    it returned 0 and at 1e10 the wrong sign.  The real part ~ -1/q^2
    must keep full relative accuracy."""
    want = _rayleigh_cf_60_digits(theta)
    got = complex(exact_cf(RAYLEIGH, theta))
    assert abs(got - want) <= 1e-14 * abs(want)


def test_rayleigh_cf_at_infinity_is_zero():
    got = exact_cf(RAYLEIGH, np.array([np.inf, -np.inf]))
    assert np.array_equal(got, np.zeros(2))


def test_rayleigh_cf_unchanged_up_to_q_40():
    # every figure and curve uses |sigma theta| <= 40, where the
    # Faddeeva form is kept bit for bit
    from scipy import special as sp_special

    theta = np.concatenate([np.linspace(-20.0, 20.0, 40001), [-20.0, 20.0]])
    q = 2.0 * theta
    amp = q * math.sqrt(math.pi / 2.0)
    direct = (1.0 - amp * np.imag(sp_special.wofz(q / math.sqrt(2.0)))
              + 1j * amp * np.exp(-0.5 * q * q))
    assert np.array_equal(exact_cf(RAYLEIGH, theta), direct)


# ----------------------------------------------------------------------
# closed-form complex moments
# ----------------------------------------------------------------------

# E[(-iX)^(-g)]  (sign="minus"), frozen at 20 significant digits
_MOMENT_GOLDEN = [
    (UNIFORM, 0.4, 1.0218670508021311238 + 0.0j),
    (UNIFORM, 0.4 + 0.4j, 1.1012874845829181832 - 0.081342717255843320903j),
    (RAYLEIGH, 0.4, 0.62141012678150267854 + 0.45148088443996476849j),
    (RAYLEIGH, 0.4 + 0.4j, 0.36086184067051393167 + 0.15244913423869832523j),
    (CAUCHY, 0.4, 1.0 + 0.0j),
    (CAUCHY, 0.4 + 0.4j, 1.0 + 0.0j),
    (LEVY, 0.4, 0.64360815922480643063 + 0.46760869904806769432j),
    (LEVY, 0.9 + 0.4j, -0.048564718834974885696 + 0.45737758069382240151j),
    (GAUSS21, 0.4, 0.69880781859592321711 + 0.45049486458653253158j),
    (GAUSS21, 0.4 + 0.4j, 0.42896341438873440768 + 0.20493896706446344038j),
    (GAUSS01, 0.4, 1.1887094945136154797 + 0.0j),
]


@pytest.mark.parametrize(
    "spec,gamma,want",
    _MOMENT_GOLDEN,
    ids=[f"{s.family}-{g}" for s, g, _ in _MOMENT_GOLDEN],
)
def test_moment_golden(spec, gamma, want):
    got = closed_form_moment(spec, gamma, "minus")
    assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_moment_of_order_zero_is_one():
    for spec in ALL_SPECS:
        assert closed_form_moment(spec, 0.0, "minus") == pytest.approx(
            1.0 + 0j, abs=1e-12
        )


def test_moment_outside_strip_raises():
    with pytest.raises(StripError):
        closed_form_moment(UNIFORM, 1.0, "minus")  # upper edge excluded
    with pytest.raises(StripError):
        closed_form_moment(CAUCHY, -1.2, "plus")
    with pytest.raises(StripError):
        closed_form_moment(LEVY, -0.5, "minus")


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
@given(
    rho=st.floats(min_value=-0.4, max_value=0.9),
    eta=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=40, deadline=None)
def test_moment_conjugation_symmetry(spec, rho, eta):
    """conj E[(-iX)^(-g)] = E[(+iX)^(-conj g)] — from conjugating the
    defining integral."""
    g = complex(rho, eta)
    strip = spec.moment_strip
    if not strip.lo < g.real < strip.hi:
        return
    lhs = closed_form_moment(spec, g, "minus").conjugate()
    rhs = closed_form_moment(spec, g.conjugate(), "plus")
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.family)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_closed_form_array_equals_scalar_calls(spec, sign, data):
    """One array call gives exactly the per-element scalar results."""
    strip = spec.moment_strip
    size = 4 if spec.family == "gaussian" else 16
    n = data.draw(st.integers(min_value=1, max_value=size))
    rho = st.floats(min_value=max(strip.lo, -3.0), max_value=min(strip.hi, 3.0),
                    exclude_min=True, exclude_max=True)
    eta = st.floats(min_value=-300.0, max_value=300.0)
    g = np.array(data.draw(st.lists(st.builds(complex, rho, eta),
                                    min_size=n, max_size=n)))
    got = closed_form_moment(spec, g, sign)
    scalar = [closed_form_moment(spec, gk, sign) for gk in g]
    assert all(type(v) is complex for v in scalar)
    assert got.shape == g.shape
    assert np.array_equal(got, np.array(scalar))


def test_closed_form_array_strip_checked_everywhere():
    g = np.array([0.4, 0.4 + 1j, 1.5 + 2j, 1.2])
    with pytest.raises(StripError, match=r"Re\(gamma\) = 1\.5 "):
        closed_form_moment(UNIFORM, g, "minus")


def test_closed_form_array_names_first_non_finite_order():
    # the uniform cosine leaves double range past |Im gamma| ~ 452
    g = 0.4 + 1j * np.array([10.0, 600.0, -700.0, -460.0])
    with pytest.raises(DomainError, match=re.escape("gamma = (0.4+600j)")):
        closed_form_moment(UNIFORM, g, "minus")


def test_gaussian_closed_form_far_out_matches_50_digits():
    # both half-line phases exp(+-pi |Im gamma| / 2) leave double range
    # at |Im gamma| = 520; the moment, |M| ~ 1.8e190, does not
    gamma = 0.4 - 520j
    got = closed_form_moment(GAUSS21, gamma, "minus")
    with mpmath.workdps(50):
        g = mpmath.mpc(gamma)
        r = mpmath.mpf(2)  # mu / sigma
        t = mpmath.exp(1j * g * mpmath.pi / 2)
        want = complex(
            mpmath.gamma(1 - g) * mpmath.exp(-r * r / 4)
            / mpmath.sqrt(2 * mpmath.pi)
            * (t * mpmath.pcfd(g - 1, -r) + mpmath.pcfd(g - 1, r) / t)
        )
    assert abs(got - want) <= 1e-12 * abs(want)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_gaussian_shared_pairs_equal_scalar_calls(sign):
    """The conjugate-pair sharing keeps every node bit for bit as its
    own scalar call gives it, on a grid and on a set with a repeated
    node and a real one."""
    for nodes in (
        GridParams(0.4, 0.2, 50).nodes(),
        np.array([0.4 - 3j, 0.7, 0.4 + 3j, 0.4 - 3j, 0.4 + 0j, -0.2 + 5j]),
    ):
        got = closed_form_moment(GAUSS21, nodes, sign)
        scalar = [closed_form_moment(GAUSS21, g, sign) for g in nodes]
        assert np.array_equal(_bits(got), _bits(scalar))


def _decline_double_paths(monkeypatch):
    # with no double-precision path every node takes the 30-digit formula
    monkeypatch.setattr(distributions, "_GAUSSIAN_PATHS", ())


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_gaussian_conjugated_factors_equal_direct_evaluation(sign, monkeypatch):
    # mpmath's D_{conj v}(r) and Gamma(conj z) are the exact conjugates
    # of D_v(r) and Gamma(z), so nodes below the axis, which take their
    # factors from the node above it, agree bit for bit with the
    # unshared 30-digit formula
    _decline_double_paths(monkeypatch)
    nodes = np.array([0.4 - 0.2j, 0.4 - 7.4j, 0.9 - 33.0j, -1.5 - 120.6j])
    with mpmath.workdps(30):
        r = mpmath.mpf(2.0) / 1.0
        want = []
        for gamma in nodes:
            g = mpmath.mpc(gamma)
            t = mpmath.exp(-(1 if sign == "plus" else -1) * 1j * g * mpmath.pi / 2)
            halves = t * mpmath.pcfd(g - 1, -r) + mpmath.pcfd(g - 1, r) / t
            front = mpmath.power(1.0, -g) * mpmath.gamma(1 - g) * mpmath.exp(-r * r / 4)
            want.append(complex(front * halves / mpmath.sqrt(2 * mpmath.pi)))
    got = closed_form_moment(GAUSS21, nodes, sign)
    assert np.array_equal(_bits(got), _bits(want))


def _count_pcfd(monkeypatch):
    calls = []
    pcfd = mpmath.pcfd

    def counting(*args):
        calls.append(args)
        return pcfd(*args)

    monkeypatch.setattr(mpmath, "pcfd", counting)
    return calls


def test_gaussian_pcfd_once_per_conjugate_pair(monkeypatch):
    calls = _count_pcfd(monkeypatch)
    m = 10
    grid = GridParams(0.4, 0.2, m).nodes()
    # every node of this grid passes a double-precision path
    closed_form_moment(GAUSS21, grid, "minus")
    assert calls == []
    # Re g <= 0 is never tried in double precision: two pairs, one of
    # them the real node, cost D_{g-1}(-r) and D_{g-1}(r) each
    closed_form_moment(GAUSS21, np.array([-0.5 + 1j, 0.4 + 2j, -0.5 - 1j, -0.3]), "minus")
    assert len(calls) == 2 * 2
    calls.clear()
    _decline_double_paths(monkeypatch)
    closed_form_moment(GAUSS21, grid, "minus")
    # the real node and each of m pairs
    assert len(calls) == 2 * (m + 1)


def _pcfd_moments(nodes, mu, sigma):
    """The 30-digit formula for both signs, one pcfd trio per node."""
    out = {"plus": [], "minus": []}
    with mpmath.workdps(30):
        r = mpmath.mpf(mu) / sigma
        for gamma in nodes:
            g = mpmath.mpc(gamma)
            d_minus, d_plus = mpmath.pcfd(g - 1, -r), mpmath.pcfd(g - 1, r)
            front = (mpmath.power(sigma, -g) * mpmath.gamma(1 - g)
                     * mpmath.exp(-r * r / 4) / mpmath.sqrt(2 * mpmath.pi))
            for sign, s in (("plus", 1), ("minus", -1)):
                t = mpmath.exp(-s * 1j * g * mpmath.pi / 2)
                out[sign].append(complex(front * (t * d_minus + d_plus / t)))
    return {sign: np.array(v) for sign, v in out.items()}


def _relative_error(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("rho", [0.4, 0.9])
@pytest.mark.parametrize("mu", [0.0, 2.0])
def test_gaussian_double_precision_matches_30_digits(mu, rho):
    """Every node of the benchmark-sized grids, both signs, within 1e-12
    of the 30-digit formula; the grid is its own conjugate, so one pcfd
    trio per pair serves both signs."""
    spec = make_spec("gaussian", mu=mu, sigma=1.0)
    nodes = GridParams(rho, 0.2, 200).nodes()
    upper = _pcfd_moments(nodes[200:], mu, 1.0)
    for sign, other in (("plus", "minus"), ("minus", "plus")):
        # E_s(conj g) = conj E_(-s)(g)
        want = np.concatenate([np.conj(upper[other][:0:-1]), upper[sign]])
        got = closed_form_moment(spec, nodes, sign)
        assert _relative_error(got, want) <= 1e-12, sign


@given(
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(0.5, 2.0),
    rho=st.floats(0.01, 0.99),
    eta=st.floats(-60.0, 60.0),
)
@settings(max_examples=40, deadline=None)
def test_gaussian_double_precision_random_nodes(mu, sigma, rho, eta):
    gamma = complex(rho, eta)
    want = _pcfd_moments([gamma], mu, sigma)
    spec = make_spec("gaussian", mu=mu, sigma=sigma)
    for sign in ("plus", "minus"):
        got = closed_form_moment(spec, gamma, sign)
        assert abs(got - want[sign][0]) <= 1e-12 * abs(want[sign][0]), sign


@pytest.mark.parametrize("sigma", [2.0 / 30.0, 1e-3])
def test_gaussian_far_mean_bounded_work_and_exact(sigma):
    # r = mu/sigma = 30 and 2000: no path's work may grow with r^2, and
    # whatever path a node takes, it matches the 30-digit formula
    spec = make_spec("gaussian", mu=2.0, sigma=sigma)
    nodes = GridParams(0.4, 0.2, 20).nodes()
    want = _pcfd_moments(nodes, 2.0, sigma)
    tracemalloc.start()
    try:
        got = {sign: closed_form_moment(spec, nodes, sign) for sign in want}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    for sign in want:
        assert _relative_error(got[sign], want[sign]) <= 1e-12, sign


def test_gaussian_declined_nodes_are_traced_once(monkeypatch, caplog):
    """Where no node has a usable path (r = mu/sigma = 30), the coarse
    trace runs once per block of nodes and no node is refined at any
    step h: every node goes straight to the 30-digit formula."""
    spec = make_spec("gaussian", mu=2.0, sigma=0.0666)
    nodes = GridParams(0.4, 0.4, 20).nodes()
    newton = distributions._path_newton
    coarse, refined = [], []

    def spy(saddle, v, tau, *args):
        # a coarse step solves one tau per direction, a refinement all
        (coarse if tau.shape[-1] == 1 else refined).append(v.shape[0])
        return newton(saddle, v, tau, *args)

    monkeypatch.setattr(distributions, "_path_newton", spy)
    with caplog.at_level(logging.DEBUG, logger="fracmom"):
        closed_form_moment(spec, nodes, "minus")
    [line] = [r.getMessage() for r in caplog.records if r.name == "fracmom.distributions"]
    assert line == "gaussian closed form: 41 nodes, 0 contour, 0 series, 41 mpmath in 21 pcfd pairs"
    blocks = -(-nodes.size // distributions._BLOCK)
    steps = round(distributions._REACH / distributions._COARSE)
    assert len(coarse) == blocks * steps
    assert refined == []


def test_gaussian_logs_node_counts_by_path(caplog):
    nodes = np.concatenate([GridParams(0.4, 0.2, 10).nodes(), [-0.5 + 1j, -0.5 - 1j]])
    with caplog.at_level(logging.DEBUG, logger="fracmom"):
        closed_form_moment(GAUSS21, nodes, "minus")
    [line] = [r.getMessage() for r in caplog.records if r.name == "fracmom.distributions"]
    counts = re.fullmatch(r"gaussian closed form: 23 nodes, (\d+) contour, (\d+) series, "
                          r"2 mpmath in 1 pcfd pairs", line)
    assert counts is not None, line
    assert int(counts[1]) + int(counts[2]) == 21


def test_symmetric_families_sign_invariant():
    # for an even density both signs give the same moment
    for spec in (UNIFORM, CAUCHY, GAUSS01):
        for g in (0.3, 0.5 + 1.1j):
            a = closed_form_moment(spec, g, "plus")
            b = closed_form_moment(spec, g, "minus")
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def test_sample_shapes_and_determinism():
    for spec in ALL_SPECS:
        x = sample(spec, 1000, seed=7)
        y = sample(spec, 1000, seed=7)
        z = sample(spec, 1000, seed=8)
        assert x.shape == (1000,)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


def test_sample_size_is_checked_before_drawing(monkeypatch):
    # no generator is made, so no array is allocated, for a refused size
    monkeypatch.setattr(np.random, "default_rng", None)
    for n in (0, 10_000_001, 10**20):
        with pytest.raises(ArgumentError, match="sample size must be"):
            sample(CAUCHY, n, seed=0)


def test_sample_support():
    assert np.all(np.abs(sample(UNIFORM, 5000, seed=1)) <= 2.0)
    assert np.all(sample(RAYLEIGH, 5000, seed=1) > 0.0)
    assert np.all(sample(LEVY, 5000, seed=1) > 0.0)


def test_sample_uniform_mean_and_spread():
    x = sample(UNIFORM, 200_000, seed=3)
    assert abs(x.mean()) < 0.02
    assert x.var() == pytest.approx(4.0 / 3.0, rel=0.02)


def test_sample_gaussian_moments():
    x = sample(GAUSS21, 200_000, seed=5)
    assert x.mean() == pytest.approx(2.0, abs=0.02)
    assert x.std() == pytest.approx(1.0, rel=0.02)


def test_sample_levy_cdf_spot():
    """P(X <= 1) for the standard one-sided stable half-law equals
    erfc(1/sqrt(2)) — value pinned from the complementary error
    function: 0.31731050786291410283."""
    x = sample(LEVY, 100_000, seed=11)
    frac = float(np.mean(x <= 1.0))
    p = 0.31731050786291410283
    sigma = math.sqrt(p * (1.0 - p) / x.size)
    assert abs(frac - p) <= 4.0 * sigma


def test_sample_cauchy_median_and_tails():
    x = sample(CAUCHY, 100_000, seed=13)
    assert abs(np.median(x)) < 0.02
    # P(|X| > 10) = 2/pi * arctan(1/10)
    want = 2.0 / math.pi * math.atan(0.1)
    frac = float(np.mean(np.abs(x) > 10.0))
    assert frac == pytest.approx(want, rel=0.15)


# ----------------------------------------------------------------------
# each catalog record agrees with itself
# ----------------------------------------------------------------------


def _fourier_integral(spec, theta):
    # E[e^(i theta X)] by quad of the density over each half of the
    # support, with QUADPACK's Fourier weights: x = side * u, u >= 0
    lo, hi = spec.support
    value = 0j
    for side, (a, b) in ((1, (max(lo, 0.0), hi)), (-1, (max(-hi, 0.0), -lo))):
        if a < b:
            f = lambda u: exact_pdf(spec, side * u)  # noqa: E731
            value += quad(f, a, b, weight="cos", wvar=theta)[0]
            value += side * 1j * quad(f, a, b, weight="sin", wvar=theta)[0]
    return value


@pytest.mark.parametrize("family", FAMILIES)
def test_record_pdf_cf_and_sampler_agree(family):
    """The density, the CF and the sampler of every record describe one
    law: the CF is the Fourier integral of the density, and seeded sample
    means of cos(theta X) and sin(theta X) fall within 5 standard errors
    of it."""
    spec = DistributionSpec(family)
    thetas = np.array([0.3, 1.0, 2.5])
    cf = exact_cf(spec, thetas)
    for theta, want in zip(thetas, cf):
        assert abs(_fourier_integral(spec, theta) - want) < 1e-8, theta
    x = sample(spec, 40_000, seed=7)
    for theta, want in zip(thetas, cf):
        for part, got in ((want.real, np.cos(theta * x)), (want.imag, np.sin(theta * x))):
            stderr = got.std(ddof=1) / math.sqrt(got.size)
            assert abs(got.mean() - part) < 5.0 * stderr + 1e-12, (theta, part)
