"""Grid construction, estimator agreement, conversions, CSV round-trip."""

import functools
import io
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracmom.distributions import closed_form_moment, exact_pdf, make_spec, sample
from fracmom.errors import (
    AllSamplesDegenerateError,
    ArgumentError,
    DomainError,
    FracmomError,
    PoleError,
    QuadratureError,
    StripError,
)
from fracmom.moments import (
    GRID_METHODS,
    GridParams,
    MomentGrid,
    convert_moment,
    make_grid,
    moment_monte_carlo,
    moment_quadrature,
    read_grid_csv,
    suggest_truncation,
    working_strip,
    write_grid_csv,
)

UNIFORM = make_spec("uniform", a=2.0)
RAYLEIGH = make_spec("rayleigh", sigma=2.0)
CAUCHY = make_spec("cauchy")
LEVY = make_spec("levy")
GAUSS21 = make_spec("gaussian", mu=2.0, sigma=1.0)
GAUSS01 = make_spec("gaussian", mu=0.0, sigma=1.0)


# ----------------------------------------------------------------------
# grid parameters and node layout
# ----------------------------------------------------------------------


def test_grid_params_nodes():
    gp = GridParams(rho=0.4, delta=0.4, m=2)
    nodes = gp.nodes()
    assert nodes.shape == (5,)
    assert nodes[2] == 0.4 + 0j
    assert nodes[0] == pytest.approx(0.4 - 0.8j)
    assert gp.node(1) == pytest.approx(0.4 + 0.4j)
    assert gp.node(-2) == nodes[0]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(rho=0.4, delta=0.0, m=3),
        dict(rho=0.4, delta=-0.1, m=3),
        dict(rho=0.4, delta=0.4, m=0),
        dict(rho=0.4, delta=0.4, m=3, sign="up"),
        dict(rho=0.4, delta=math.inf, m=3),
    ],
)
def test_grid_params_validation(kwargs):
    with pytest.raises(ArgumentError):
        GridParams(**kwargs)


def test_grid_params_m_cap():
    # the truncation search's cap is the largest grid GridParams accepts
    assert GridParams(rho=0.4, delta=0.4, m=10_000).m == 10_000
    with pytest.raises(ArgumentError, match="10000"):
        GridParams(rho=0.4, delta=0.4, m=10_001)


def test_moment_grid_shape_check():
    gp = GridParams(rho=0.4, delta=0.4, m=2)
    with pytest.raises(ArgumentError):
        MomentGrid(gp, np.ones(4, dtype=complex))
    grid = MomentGrid(gp, np.ones(5, dtype=complex))
    assert grid.value(0) == 1.0 + 0j
    with pytest.raises(ArgumentError):
        grid.value(3)


def test_grid_methods_tuple():
    assert GRID_METHODS == ("closed_form", "quadrature", "monte_carlo")
    with pytest.raises(ArgumentError):
        make_grid(CAUCHY, GridParams(rho=0.4, delta=0.4, m=1), "nope")


# ----------------------------------------------------------------------
# estimator agreement
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [UNIFORM, RAYLEIGH, CAUCHY, LEVY, GAUSS21], ids=lambda s: s.family
)
def test_closed_vs_quadrature_default_grid(spec):
    """Module invariant: the two deterministic estimators agree to
    1e-9 relative on a ten-node-per-side grid."""
    gp = GridParams(rho=0.4, delta=0.4, m=10)
    gc = make_grid(spec, gp, "closed_form")
    gq = make_grid(spec, gp, "quadrature")
    rel = np.max(np.abs(gc.values - gq.values) / np.abs(gc.values))
    assert rel <= 1e-9


def test_monte_carlo_matches_closed_form():
    gp = GridParams(rho=0.4, delta=0.4, m=3)
    x = sample(GAUSS21, 400_000, seed=101)
    gc = make_grid(GAUSS21, gp, "closed_form")
    for k in range(-3, 4):
        est = moment_monte_carlo(x, gp.node(k), "minus")
        assert abs(est.value - gc.value(k)) <= 5.0 * est.stderr
        assert est.stderr > 0.0
        assert est.dropped == 0


def test_monte_carlo_consistency_positive_support_families():
    """The two families outside the acceptance Monte-Carlo gate, at the
    same sample size: estimator within four standard errors of the
    closed form on every node (measured worst 0.7 at this seed)."""
    gp = GridParams(rho=0.4, delta=0.4, m=5)
    for spec in (RAYLEIGH, LEVY):
        x = sample(spec, 1_000_000, seed=20090814)
        gc = make_grid(spec, gp, "closed_form")
        for k in range(-5, 6):
            est = moment_monte_carlo(x, gp.node(k), "minus")
            assert abs(est.value - gc.value(k)) <= 4.0 * est.stderr, spec.family


def test_signed_moment_is_phase_times_absolute_on_positive_support():
    """For a nonnegative-support distribution the signed moment factors
    exactly into exp(-s*i*pi*order/2) times the plain absolute moment;
    both sides evaluated by independent quadratures."""
    from scipy.integrate import quad as _quad

    for spec in (RAYLEIGH, LEVY):
        pdf = lambda u: exact_pdf(spec, u)  # noqa: E731
        for order in (0.4 + 0.0j, 0.4 + 0.8j):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                absolute = complex(
                    _quad(
                        lambda u: (np.exp(-order * np.log(u))).real * pdf(u),
                        0.0, np.inf, epsabs=1e-12, limit=200,
                    )[0],
                    _quad(
                        lambda u: (np.exp(-order * np.log(u))).imag * pdf(u),
                        0.0, np.inf, epsabs=1e-12, limit=200,
                    )[0],
                )
            for side, s in (("plus", 1.0), ("minus", -1.0)):
                signed = moment_quadrature(pdf, spec.support, order, side)
                want = np.exp(-s * 1j * order * np.pi / 2.0) * absolute
                assert abs(signed - want) <= 1e-8, (spec.family, order, side)


def test_grid_value_conjugacy_for_symmetric_families():
    # a symmetric density makes the two sign conventions coincide, so
    # within one grid value(-k) must mirror value(k)
    gp = GridParams(rho=0.4, delta=0.4, m=5)
    for spec in (UNIFORM, CAUCHY, make_spec("gaussian", mu=0.0, sigma=1.0)):
        grid = make_grid(spec, gp, "closed_form")
        for k in range(6):
            assert abs(grid.value(-k) - grid.value(k).conjugate()) <= 1e-10


def test_make_grid_monte_carlo_path():
    gp = GridParams(rho=0.4, delta=0.4, m=2)
    x = sample(CAUCHY, 100_000, seed=55)
    g1 = make_grid(CAUCHY, gp, "monte_carlo", samples=x)
    g2 = make_grid(CAUCHY, gp, "monte_carlo", samples=x)
    assert np.array_equal(g1.values, g2.values)
    gc = make_grid(CAUCHY, gp, "closed_form")
    assert np.max(np.abs(g1.values - gc.values)) < 0.05
    with pytest.raises(ArgumentError):
        make_grid(CAUCHY, gp, "monte_carlo")  # samples missing


def test_monte_carlo_node_array_equals_scalar_calls():
    gp = GridParams(rho=0.4, delta=0.4, m=3)
    x = np.concatenate([[0.0], sample(RAYLEIGH, 5_000, seed=8)])
    est = moment_monte_carlo(x, gp.nodes(), "plus")
    assert est.value.shape == est.stderr.shape == (7,)
    assert est.dropped == 1
    for i, g in enumerate(gp.nodes()):
        one = moment_monte_carlo(x, g, "plus")
        assert est.value[i] == one.value and est.stderr[i] == one.stderr
    grid = make_grid(RAYLEIGH, GridParams(0.4, 0.4, 3, "plus"),
                     "monte_carlo", samples=x)
    ladder = moment_monte_carlo(x, GridParams(0.4, 0.4, 3, "plus"), "plus")
    assert np.array_equal(grid.values, ladder.value)
    assert np.all(np.abs(grid.values - est.value) <= 1e-12 * est.stderr)


def _monte_carlo_oracle(samples, gamma, sign):
    # the per-sample expression with separate log|x| and sgn(x) arrays
    s = 1.0 if sign == "plus" else -1.0
    x = samples[samples != 0.0]
    vals = np.exp(-gamma * np.log(np.abs(x))
                  - s * gamma * (1j * math.pi / 2.0) * np.sign(x))
    mean = vals.mean()
    centred = vals - mean
    n = x.size
    return mean, math.sqrt(np.vdot(centred, centred).real / (n - 1) / n)


@pytest.mark.parametrize("spec", [CAUCHY, LEVY, RAYLEIGH], ids=lambda s: s.family)
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_monte_carlo_matches_per_sample_oracle(spec, sign):
    gp = GridParams(rho=0.4, delta=0.4, m=10)
    x = sample(spec, 20_000, seed=5)
    est = moment_monte_carlo(x, gp.nodes(), sign)
    for i, g in enumerate(gp.nodes()):
        value, stderr = _monte_carlo_oracle(x, g, sign)
        assert abs(est.value[i] - value) <= 1e-12 * stderr
        assert abs(est.stderr[i] - stderr) <= 1e-14 * stderr


@pytest.mark.parametrize("spec", [CAUCHY, LEVY, RAYLEIGH], ids=lambda s: s.family)
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_monte_carlo_ladder_matches_per_sample_oracle(spec, sign):
    gp = GridParams(rho=0.4, delta=0.4, m=10, sign=sign)
    x = sample(spec, 200_000, seed=5)
    est = moment_monte_carlo(x, gp, sign)
    for i, g in enumerate(gp.nodes()):
        value, stderr = _monte_carlo_oracle(x, g, sign)
        assert abs(est.value[i] - value) <= 1e-12 * stderr
        assert abs(est.stderr[i] - stderr) <= 1e-14 * stderr


def _real_arithmetic_mean(x, gamma, sign):
    # mean of (s i x)^(-gamma) with the exponent formed in real
    # arithmetic: -gamma ln|x| -/+ s sgn(x) gamma i pi/2, every product
    # and sum rounded once
    g = -complex(gamma)
    a = np.log(np.abs(x))
    turn = (1.0 if sign == "plus" else -1.0) * np.sign(x)
    exponent = np.empty(x.shape, dtype=complex)
    exponent.real = g.real * a - turn * (g.imag * (math.pi / 2.0))
    exponent.imag = g.imag * a + turn * (g.real * (math.pi / 2.0))
    return np.exp(exponent).mean()


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_monte_carlo_direct_path_is_the_real_arithmetic_power(sign):
    x = np.concatenate([[0.0], sample(CAUCHY, 3_000, seed=21)])
    kept = x[x != 0.0]
    nodes = GridParams(rho=0.3, delta=0.7, m=4).nodes()
    for g in (np.complex128(0.3 - 2.1j), np.array([0.3 - 2.1j]), nodes):
        est = moment_monte_carlo(x, g, sign)
        want = [_real_arithmetic_mean(kept, o, sign) for o in np.atleast_1d(g)]
        assert np.array_equal(np.atleast_1d(est.value), want)


@given(
    rho=st.floats(min_value=0.05, max_value=0.95),
    delta=st.floats(min_value=0.01, max_value=0.4),
    m=st.integers(min_value=1, max_value=2000),
    n=st.integers(min_value=2, max_value=2000),
    spec=st.sampled_from([CAUCHY, LEVY, RAYLEIGH]),
    sign=st.sampled_from(["plus", "minus"]),
    seed=st.integers(0, 2**16),
)
# two near-equal samples: a rounding-level 3.4e-14 of |M| = 1.9e42 at
# node 324 is 1.24e-12 of the stderr 5.2e40 there
@example(rho=0.5, delta=0.390625, m=162, n=2, spec=LEVY, sign="plus", seed=0)
@settings(max_examples=30, deadline=None)
def test_monte_carlo_ladder_matches_direct_path(rho, delta, m, n, spec, sign, seed):
    m = min(m, int(200.0 / delta))
    x = sample(spec, n, seed=seed)
    gp = GridParams(rho=rho, delta=delta, m=m, sign=sign)
    ladder = moment_monte_carlo(x, gp, sign)
    direct = moment_monte_carlo(x, gp.nodes(), sign)
    # Either path rounds each power to a relative error of a few eps
    # times the exponent, |Re exponent| <= rho |ln|x|| + m delta pi/2
    # (~7e-14 at m delta = 200), so values and standard errors are
    # compared in the units that rounding scales with, the mean |V| and
    # sqrt(sum |V|^2 / (n (n-1))): against the standard error or their
    # own size, close samples would magnify it without bound
    a = np.log(np.abs(x))
    turn = (1.0 if sign == "plus" else -1.0) * np.sign(x) * (math.pi / 2.0)
    reach = rho * float(np.max(np.abs(a))) + m * delta * math.pi / 2.0
    tol = 1e-14 + 4.0 * np.finfo(float).eps * reach
    for i, k in enumerate(range(-m, m + 1)):
        size = np.exp(k * delta * turn - rho * a)
        assert abs(ladder.value[i] - direct.value[i]) <= tol * np.mean(size)
        unit = math.sqrt(np.sum(size * size) / (n * (n - 1)))
        assert abs(ladder.stderr[i] - direct.stderr[i]) <= tol * unit


def test_monte_carlo_ladder_holds_two_sample_arrays():
    # the step and the running power; a third sample-length complex
    # array would take the peak past 3
    x = np.random.default_rng(4).standard_cauchy(1_000_000)
    gp = GridParams(rho=0.4, delta=0.4, m=2)
    moment_monte_carlo(x, gp, "minus")
    tracemalloc.start()
    try:
        moment_monte_carlo(x, gp, "minus")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.size * 16


def test_monte_carlo_ladder_logs_its_cost(caplog):
    x = np.concatenate([[0.0, 0.0], sample(LEVY, 1_000, seed=2)])
    with caplog.at_level(logging.DEBUG, logger="fracmom"):
        make_grid(LEVY, GridParams(rho=0.4, delta=0.4, m=20), "monte_carlo", samples=x)
    lines = [r.getMessage() for r in caplog.records if r.name == "fracmom.moments"]
    assert len(lines) == 1
    # anchors at k = 0, 16, -1, -17 and the step; 41 - 4 ladder steps
    assert lines[0].startswith(
        "monte carlo grid: 1000 samples used, 2 zeros dropped, 41 nodes, "
        "5 exact exponentials, 37 ladder multiplies, ")
    assert lines[0].endswith(" s")


def test_monte_carlo_grid_sign_must_match():
    with pytest.raises(ArgumentError, match="sign"):
        moment_monte_carlo(np.ones(4), GridParams(0.4, 0.4, 2, "plus"), "minus")


def test_monte_carlo_degenerate_inputs():
    with pytest.raises(AllSamplesDegenerateError):
        moment_monte_carlo(np.zeros(10), 0.5, "minus")
    est = moment_monte_carlo(np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0]), 0.5, "minus")
    assert est.dropped == 2
    # four identical points: the estimate is the exact value
    # (-i)^(-1/2) = e^{i pi/4}
    est = moment_monte_carlo(np.ones(4), 0.5, "minus")
    want = complex(math.sqrt(0.5), math.sqrt(0.5))
    assert est.value == pytest.approx(want, abs=1e-15)
    assert est.stderr == pytest.approx(0.0, abs=1e-16)


def test_rho_outside_working_range():
    with pytest.raises(StripError):
        make_grid(CAUCHY, GridParams(rho=1.2, delta=0.4, m=2))
    with pytest.raises(StripError):
        make_grid(CAUCHY, GridParams(rho=-0.2, delta=0.4, m=2))
    with pytest.raises(StripError):
        make_grid(LEVY, GridParams(rho=-0.45, delta=0.4, m=2))


def test_quadrature_failure_is_reported():
    # at Re gamma -> 1 the integrand x^(-rho) is barely integrable at
    # the origin and the requested tolerance cannot be met
    with pytest.raises(QuadratureError) as info:
        moment_quadrature(
            lambda x: exact_pdf(CAUCHY, x),
            CAUCHY.support,
            1.0 - 1e-9,
            "minus",
        )
    assert info.value.achieved is not None
    assert info.value.achieved > 1e-9


def test_moment_quadrature_plus_minus_conjugation():
    g = 0.4 + 0.8j
    pdf = lambda x: exact_pdf(GAUSS21, x)  # noqa: E731
    a = moment_quadrature(pdf, GAUSS21.support, g, "minus").conjugate()
    b = moment_quadrature(pdf, GAUSS21.support, g.conjugate(), "plus")
    assert abs(a - b) <= 1e-10


# ----------------------------------------------------------------------
# conversions between moment kinds
# ----------------------------------------------------------------------


class TestConvertMoment:
    def test_signed_minus_to_plain_integer_check(self):
        # E[X^2] of uniform(-2,2) is 4/3; feed the signed moment of
        # exponent z=2, i.e. E[(-iX)^2] = -E[X^2]
        signed = -4.0 / 3.0 + 0j
        got = convert_moment("signed_minus", "plain", 2.0, signed)
        assert got == pytest.approx(4.0 / 3.0 + 0j, abs=1e-12)

    def test_signed_plus_to_absolute_needs_plain(self):
        with pytest.raises(ArgumentError):
            convert_moment("signed_plus", "absolute", 0.5, 1.0 + 0j)

    def test_absolute_halfmoment_of_cauchy(self):
        """E|X|^(1/2) of the unit Cauchy is sqrt(2).

        For a symmetric X the two inputs are exactly expressible in
        terms of that absolute moment: E[(iX)^z] = cos(pi z/2)E|X|^z
        and E[X^z] = e^{i pi z/2} cos(pi z/2) E|X|^z (principal branch
        on the negative axis).  The conversion must unwind both phases.
        """
        z = 0.5
        want = math.sqrt(2.0)
        half_cos = math.cos(math.pi * z / 2.0)
        signed_plus = complex(want * half_cos, 0.0)
        plain = want * half_cos * complex(
            math.cos(math.pi * z / 2.0), math.sin(math.pi * z / 2.0)
        )
        got = convert_moment("signed_plus", "absolute", z, signed_plus, plain)
        assert got == pytest.approx(want + 0j, rel=1e-12)

    def test_pole_at_cosine_zero(self):
        with pytest.raises(PoleError):
            convert_moment("signed_plus", "absolute", 1.0, 1.0 + 0j, 1.0 + 0j)

    @pytest.mark.parametrize(
        "kind_in,kind_out,extra",
        [("signed_minus", "plain", ()), ("signed_plus", "absolute", (1.0 + 0j,))],
    )
    def test_overflow_is_typed(self, kind_in, kind_out, extra):
        # i^gamma, and 2 cos(pi gamma / 2), leave double range here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"gamma = \(0\.4-500j\)"):
                convert_moment(kind_in, kind_out, 0.4 - 500j, 1.0 + 0j, *extra)

    def test_unsupported_pairing(self):
        with pytest.raises(ArgumentError):
            convert_moment("plain", "signed_minus", 0.5, 1.0 + 0j)


# ----------------------------------------------------------------------
# working strip and truncation suggestion
# ----------------------------------------------------------------------


def test_working_strips():
    assert str(working_strip(GAUSS21)) == "(0, inf)"
    assert str(working_strip(CAUCHY)) == "(0, 1)"
    assert str(working_strip(UNIFORM)) == "(0, 1)"
    assert str(working_strip(LEVY)) == "(0, 1)"
    for spec in (UNIFORM, RAYLEIGH, CAUCHY, LEVY, GAUSS21):
        assert not working_strip(spec).is_empty


def test_suggest_truncation_frozen():
    """Pinned from a direct sweep of the envelope bound."""
    s = suggest_truncation(GAUSS21, 0.4, 0.4, "minus", 1e-8)
    assert s.m == 80 and not s.capped
    s = suggest_truncation(CAUCHY, 0.4, 0.4, "minus", 1e-6)
    assert s.m == 24 and not s.capped


def test_suggest_truncation_monotone_in_tol():
    ms = [
        suggest_truncation(CAUCHY, 0.4, 0.4, "minus", tol).m
        for tol in (1e-2, 1e-4, 1e-6, 1e-8)
    ]
    assert ms == sorted(ms)
    assert ms[0] >= 1


def test_suggest_truncation_cap():
    s = suggest_truncation(GAUSS21, 0.4, 0.0004, "minus", 1e-8)
    assert s.capped and s.m == 10_000


def test_suggest_truncation_caps_on_overflowing_moments():
    # the uniform envelope decays only polynomially, so the sweep runs
    # until the closed form leaves double range at m*delta ~ 451
    assert suggest_truncation(UNIFORM, 0.4, 0.2, "minus", 1e-10) == (10_000, True)


def test_suggest_truncation_propagates_foreign_errors(monkeypatch):
    def broken(spec, gamma, sign):
        raise ZeroDivisionError("not a fracmom failure")

    monkeypatch.setattr("fracmom.moments.closed_form_moment", broken)
    with pytest.raises(ZeroDivisionError):
        suggest_truncation(CAUCHY, 0.4, 0.4, "minus", 1e-6)


_CAP = 10_000


def _sweep_envelope(spec, rho, delta, sign):
    """The truncation envelope, memoised so that one sweep serves every tol."""

    @functools.lru_cache(maxsize=None)
    def envelope(m):
        eta = m * delta
        gamma_mod = (
            math.sqrt(2.0 * math.pi)
            * eta ** (rho - 0.5)
            * math.exp(-math.pi * eta / 2.0)
        )
        if gamma_mod == 0.0:
            return 0.0
        ends = np.array([complex(rho, eta), complex(rho, -eta)])
        return gamma_mod * float(np.max(np.abs(closed_form_moment(spec, ends, sign))))

    return envelope


def _linear_sweep(envelope, tol):
    """Oracle: the linear sweep over m = 1..10^4 that the search replaced."""
    try:
        if envelope(_CAP) > tol:
            return (_CAP, True)
    except FracmomError:
        return (_CAP, True)
    for m in range(1, _CAP + 1):
        try:
            bound = envelope(m)
        except FracmomError:
            break
        if bound <= tol:
            return (m, False)
    return (_CAP, True)


_SEARCH_TOLS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)
_SEARCH_CASES = [
    (spec, rho, delta, sign)
    for spec, rhos in (
        (UNIFORM, (0.4, 0.9)),
        (RAYLEIGH, (0.4, 1.5)),
        (CAUCHY, (0.1, 0.9)),
        (LEVY, (0.4, 0.9, 3.0)),
        (GAUSS01, (0.4, 0.9)),
    )
    for rho in rhos
    for delta in (0.4, 0.2, 0.05)
    # GAUSS01 is symmetric, so its two signs give the same moments
    for sign in (("minus",) if spec is GAUSS01 else ("minus", "plus"))
] + [
    (GAUSS21, 0.4, delta, sign) for delta in (0.4, 0.2, 0.05) for sign in ("minus", "plus")
]


@pytest.mark.parametrize(
    "spec, rho, delta, sign", _SEARCH_CASES,
    ids=[f"{c[0].label().replace(' ', '')}-{c[1]}-{c[2]}-{c[3]}" for c in _SEARCH_CASES],
)
def test_suggest_truncation_matches_linear_sweep(spec, rho, delta, sign):
    envelope = _sweep_envelope(spec, rho, delta, sign)
    for tol in _SEARCH_TOLS:
        want = _linear_sweep(envelope, tol)
        assert suggest_truncation(spec, rho, delta, sign, tol) == want, tol


@pytest.mark.parametrize(
    "spec, rho, delta, tol, want",
    [
        # capped where the uniform closed form leaves double range
        (UNIFORM, 0.4, 0.2, 1e-10, (_CAP, True)),
        # capped by the shortcut: even m = 10^4 misses the target
        (GAUSS21, 0.4, 0.0004, 1e-8, (_CAP, True)),
        # met at the first step
        (CAUCHY, 0.4, 10.0, 1e-4, (1, False)),
        (LEVY, 0.9, 10.0, 1e-4, (1, False)),
    ],
)
def test_suggest_truncation_edge_cases_match_linear_sweep(spec, rho, delta, tol, want):
    envelope = _sweep_envelope(spec, rho, delta, "minus")
    assert _linear_sweep(envelope, tol) == want
    assert suggest_truncation(spec, rho, delta, "minus", tol) == want


@pytest.mark.parametrize(
    "spec, rho, want",
    [
        (UNIFORM, 0.4, (_CAP, True)),
        (RAYLEIGH, 0.4, (159, False)),
        (CAUCHY, 0.4, (76, False)),
        (LEVY, 0.4, (81, False)),
        (LEVY, 0.9, (92, False)),
        (GAUSS21, 0.4, (194, False)),
    ],
    ids=lambda v: v.family if hasattr(v, "family") else None,
)
def test_suggest_truncation_evaluation_count(monkeypatch, spec, rho, want):
    calls = []

    def counting(*args):
        calls.append(args)
        return closed_form_moment(*args)

    monkeypatch.setattr("fracmom.moments.closed_form_moment", counting)
    assert suggest_truncation(spec, rho, 0.2, "minus", 1e-10) == want
    # a linear sweep made up to 2,263 calls (uniform) here
    assert len(calls) <= 25


def test_suggest_truncation_validation():
    with pytest.raises(ArgumentError):
        suggest_truncation(CAUCHY, 0.4, 0.4, "minus", 0.0)


# ----------------------------------------------------------------------
# CSV round-trip
# ----------------------------------------------------------------------


def _roundtrip(grid, **meta):
    buf = io.StringIO()
    write_grid_csv(grid, buf, **meta)
    return read_grid_csv(io.StringIO(buf.getvalue()))


def test_csv_roundtrip_bitwise():
    gp = GridParams(rho=0.4, delta=0.4, m=4, sign="plus")
    grid = make_grid(RAYLEIGH, gp, "closed_form")
    back, meta = _roundtrip(
        grid, family="rayleigh", params={"sigma": 2.0}, method="closed_form"
    )
    assert back.params == gp
    assert np.array_equal(back.values, grid.values)  # bit-exact via repr
    assert meta["family"] == "rayleigh"
    assert meta["params"] == {"sigma": 2.0}
    assert meta["method"] == "closed_form"


@given(
    rho=st.floats(min_value=0.05, max_value=0.95),
    delta=st.floats(min_value=0.01, max_value=2.0),
    m=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip_random_values(rho, delta, m, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
    grid = MomentGrid(GridParams(rho=rho, delta=delta, m=m), vals)
    back, _ = _roundtrip(grid, family="cauchy", params={}, method="closed_form")
    assert back.params.rho == rho and back.params.m == m
    assert back.params.delta == delta
    assert np.array_equal(back.values, vals)


def test_csv_read_rejects_malformed():
    gp = GridParams(rho=0.4, delta=0.4, m=1)
    grid = MomentGrid(gp, np.ones(3, dtype=complex))
    buf = io.StringIO()
    write_grid_csv(grid, buf, family="cauchy", params={}, method="closed_form")
    text = buf.getvalue()

    # header tampering
    with pytest.raises(ArgumentError):
        read_grid_csv(io.StringIO(text.replace("k,rho,eta,re,im", "a,b,c,d,e")))
    # drop a body row -> k coverage breaks
    lines = text.strip().split("\n")
    with pytest.raises(ArgumentError):
        read_grid_csv(io.StringIO("\n".join(lines[:-1])))
    # remove the sign metadata
    with pytest.raises(ArgumentError):
        read_grid_csv(io.StringIO(text.replace("# sign: minus\n", "")))


def _grid_text(m=2, delta=0.4):
    gp = GridParams(rho=0.4, delta=delta, m=m)
    buf = io.StringIO()
    write_grid_csv(make_grid(CAUCHY, gp, "closed_form"), buf,
                   family="cauchy", params={}, method="closed_form")
    return buf.getvalue()


def test_csv_read_rejects_single_row():
    # a one-row grid used to reach rows[m + 1] and raise IndexError
    one_row = "# sign: minus\nk,rho,eta,re,im\n0,0.4,0.0,1.0,0.0\n"
    with pytest.raises(ArgumentError, match="at least 3 rows"):
        read_grid_csv(io.StringIO(one_row))


@pytest.mark.parametrize("column", [1, 2, 3, 4])
def test_csv_read_rejects_non_finite(column):
    lines = _grid_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("1,"))
    parts = lines[row].split(",")
    parts[column] = "nan"
    lines[row] = ",".join(parts)
    with pytest.raises(ArgumentError, match="non-finite"):
        read_grid_csv(io.StringIO("\n".join(lines)))


def test_csv_read_rejects_non_numeric():
    # float("abc") used to escape as a raw ValueError
    lines = _grid_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("0,"))
    lines[row] = "0,0.4,0.0,abc,0.0"
    with pytest.raises(ArgumentError, match="non-numeric"):
        read_grid_csv(io.StringIO("\n".join(lines)))


def test_csv_read_rejects_inconsistent_eta():
    lines = _grid_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("2,"))
    parts = lines[row].split(",")
    parts[2] = "0.9"  # k = 2 with delta = 0.4 must sit at eta = 0.8
    lines[row] = ",".join(parts)
    with pytest.raises(ArgumentError, match="k \\* delta"):
        read_grid_csv(io.StringIO("\n".join(lines)))


def test_csv_read_accepts_hand_written_eta():
    # a decimal eta like 1.2 for k = 3 is k * delta up to rounding
    rows = [f"{k},0.4,{round(0.4 * k, 10)},1.0,0.0" for k in range(-3, 4)]
    text = "# sign: minus\nk,rho,eta,re,im\n" + "\n".join(rows) + "\n"
    grid, _ = read_grid_csv(io.StringIO(text))
    assert grid.params.m == 3 and grid.params.delta == 0.4


def test_moment_quadrature_array_unreachable_tol():
    """Over a node array, one order missing the target is enough to
    raise, and the error carries the estimate it achieved.  The nodes
    reach |Im gamma| = 12, past the |Im gamma| ~ 8 where the phase
    e^(pi |Im gamma| / 2) lifts the estimate above 1e-9."""
    nodes = GridParams(rho=0.4, delta=0.4, m=30).nodes()
    with pytest.raises(QuadratureError) as info:
        moment_quadrature(lambda x: exact_pdf(GAUSS21, x), GAUSS21.support,
                          nodes, "minus")
    assert info.value.achieved is not None
    assert info.value.achieved > 1e-9
    assert "gamma = " in str(info.value)
