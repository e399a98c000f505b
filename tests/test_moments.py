"""Grid construction, estimator agreement, CSV round-trip."""

import dataclasses
import functools
import io
import logging
import math
import os
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from fracmom import _forkjoin, cli, distributions, moments, quadrature
from fracmom.distributions import (
    FAMILIES,
    DistributionSpec,
    closed_form_moment,
    exact_cf,
    exact_pdf,
    make_spec,
    sample,
)
from fracmom.errors import (
    AllSamplesDegenerateError,
    ArgumentError,
    DomainError,
    FracmomError,
    QuadratureError,
    StripError,
)
from fracmom.fracops import identity_suite
from fracmom.moments import (
    GRID_METHODS,
    GridParams,
    MomentGrid,
    make_grid,
    mirrored_integral,
    moment_monte_carlo,
    moment_quadrature,
    read_grid_csv,
    suggest_truncation,
    working_strip,
    write_grid_csv,
    write_table,
)
from fracmom.special import branch_power, signed_log

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
        # a reach m * delta = 3e308 used to give eta = inf rows
        dict(rho=0.4, delta=1e308, m=3),
        # m = 2.5 used to give a 6-node grid, and m = True a 3-node one
        dict(rho=0.4, delta=0.2, m=2.5),
        dict(rho=0.4, delta=0.2, m=True),
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
                signed = moment_quadrature(spec, order, side)
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
    g1 = make_grid(CAUCHY, gp, "monte_carlo", n_samples=100_000, seed=55)
    g2 = make_grid(CAUCHY, gp, "monte_carlo", n_samples=100_000, seed=55)
    assert np.array_equal(g1.values, g2.values)
    gc = make_grid(CAUCHY, gp, "closed_form")
    assert np.max(np.abs(g1.values - gc.values)) < 0.05
    with pytest.raises(ArgumentError, match="^monte_carlo needs n_samples$"):
        make_grid(CAUCHY, gp, "monte_carlo", seed=55)
    # the size and seed rules are the sampler's alone
    with pytest.raises(ArgumentError, match="^sample size must be >= 1$"):
        make_grid(CAUCHY, gp, "monte_carlo", n_samples=0)
    with pytest.raises(ArgumentError, match="^seed must be >= 0, got -1$"):
        make_grid(CAUCHY, gp, "monte_carlo", n_samples=10, seed=-1)


def test_make_grid_monte_carlo_counts_must_be_integers():
    """``n_samples=100.5`` ended in NumPy's raw TypeError, a float seed
    in SeedSequence's, and ``n_samples=True`` drew a one-sample grid."""
    gp = GridParams(rho=0.4, delta=0.4, m=2)
    for n, seed, message in ((100.5, 1, "^sample size must be an integer, got 100.5$"),
                             (True, 1, "^sample size must be an integer, got True$"),
                             (100, 1.5, "^seed must be an integer, got 1.5$")):
        with pytest.raises(ArgumentError, match=message):
            make_grid(CAUCHY, gp, "monte_carlo", n_samples=n, seed=seed)
    got = make_grid(CAUCHY, gp, "monte_carlo", n_samples=np.int64(100), seed=np.int64(1))
    want = make_grid(CAUCHY, gp, "monte_carlo", n_samples=100, seed=1)
    assert got.values.tobytes() == want.values.tobytes()


def test_monte_carlo_node_array_equals_scalar_calls():
    gp = GridParams(rho=0.4, delta=0.4, m=3)
    x = np.concatenate([[0.0], sample(RAYLEIGH, 5_000, seed=8)])
    est = moment_monte_carlo(x, gp.nodes(), "plus")
    assert est.value.shape == est.stderr.shape == (7,)
    assert est.dropped == 1
    for i, g in enumerate(gp.nodes()):
        one = moment_monte_carlo(x, g, "plus")
        assert est.value[i] == one.value and est.stderr[i] == one.stderr
    ladder = moment_monte_carlo(x, GridParams(0.4, 0.4, 3, "plus"), "plus")
    assert np.all(np.abs(ladder.value - est.value) <= 1e-12 * est.stderr)


def _two_pass(vals):
    # mean and standard error over the whole array at once, two-pass
    mean = vals.mean()
    centred = vals - mean
    n = vals.size
    return mean, math.sqrt(np.vdot(centred, centred).real / (n - 1) / n)


def _monte_carlo_oracle(samples, gamma, sign):
    # the per-sample expression with separate log|x| and sgn(x) arrays
    s = 1.0 if sign == "plus" else -1.0
    x = samples[samples != 0.0]
    return _two_pass(np.exp(-gamma * np.log(np.abs(x))
                            - s * gamma * (1j * math.pi / 2.0) * np.sign(x)))


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


def _full_array_ladder(x, params):
    """The node ladder over every nonzero sample at once, each node's
    mean and standard error two-pass over the whole array: the Monte
    Carlo grid estimator without blocks."""
    branch = signed_log(x[x != 0.0], params.sign)
    step = branch_power(branch, -1j * params.delta)
    m = params.m
    moments = [None] * (2 * m + 1)
    for k in (*range(m + 1), *range(-1, -m - 1, -1)):
        if (k if k >= 0 else -1 - k) % 16 == 0:
            power = branch_power(branch, -params.node(k))
        else:
            power = power * step if k > 0 else power / step
        moments[k + m] = _two_pass(power)
    value, stderr = zip(*moments)
    return np.array(value), np.array(stderr)


def _full_array_oracles(x, params):
    # (estimate, oracle value, oracle stderr) for the ladder and the
    # direct path; both oracles raise the same per-sample powers
    branch = signed_log(x[x != 0.0], params.sign)
    direct = [_two_pass(branch_power(branch, -g)) for g in params.nodes()]
    return [
        (moment_monte_carlo(x, params, params.sign), *_full_array_ladder(x, params)),
        (moment_monte_carlo(x, params.nodes(), params.sign), *map(np.array, zip(*direct))),
    ]


@pytest.mark.parametrize("n", [8191, 8192, 8193, 3 * 8192 + 5])
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_monte_carlo_blocks_merge_to_the_full_array_two_pass(n, sign):
    # one block, one full block, a block of one, and a ragged fourth
    x = sample(CAUCHY, n, seed=n)
    for est, value, stderr in _full_array_oracles(x, GridParams(0.4, 0.4, 20, sign)):
        if n <= 8192:
            assert np.array_equal(est.value, value)
            assert np.array_equal(est.stderr, stderr)
        assert np.all(np.abs(est.value - value) <= 1e-12 * stderr)
        assert np.all(np.abs(est.stderr - stderr) <= 1e-14 * stderr)


def test_monte_carlo_grid_csv_of_one_block_is_the_full_array_ladder(tmp_path, capsys):
    # a grid of at most 8192 samples writes the bytes of the estimator
    # without blocks
    out = tmp_path / "grid.csv"
    assert cli.main(["moments", "--family", "cauchy", "--rho", "0.4", "--delta", "0.4",
                     "--m", "20", "--method", "mc", "--n-samples", "8192",
                     "--seed", "11", "--out", str(out)]) == 0
    capsys.readouterr()
    gp = GridParams(0.4, 0.4, 20)
    value, _ = _full_array_ladder(sample(CAUCHY, 8192, seed=11), gp)
    want = io.StringIO()
    write_grid_csv(MomentGrid(gp, value, CAUCHY), want, method="monte_carlo")
    assert out.read_text() == want.getvalue()


def test_monte_carlo_block_merge_keeps_a_mean_far_above_the_spread():
    # |mean| / spread ~ 1e7: each block mean's rounding, ~eps |mean|, is
    # ~1e-7 of its distance from the running mean, which a merge on
    # rounded means would carry into the standard error as ~1e-12
    # relative
    x = 3.0 + 1e-6 * np.random.default_rng(7).standard_normal(100_000)
    for est, value, stderr in _full_array_oracles(x, GridParams(0.4, 0.4, 20, "minus")):
        assert np.all(np.abs(est.stderr - stderr) <= 1e-14 * stderr)
        # 1e-12 of a standard error is below one ulp of the mean, so
        # the values agree to the rounding of the mean itself
        assert np.all(np.abs(est.value - value) <= 4.0 * np.finfo(float).eps * np.abs(value))


def _real_arithmetic_power(x, gamma, sign):
    # (s i x)^(-gamma) with the exponent formed in real arithmetic:
    # -gamma ln|x| -/+ s sgn(x) gamma i pi/2, every product and sum
    # rounded once; x and gamma broadcast
    g = -np.asarray(gamma, dtype=complex)
    a = np.log(np.abs(x))
    turn = (1.0 if sign == "plus" else -1.0) * np.sign(x)
    exponent = np.empty(np.broadcast_shapes(np.shape(a), g.shape), dtype=complex)
    exponent.real = g.real * a - turn * (g.imag * (math.pi / 2.0))
    exponent.imag = g.imag * a + turn * (g.real * (math.pi / 2.0))
    return np.exp(exponent)


def _real_arithmetic_mean(x, gamma, sign):
    return _real_arithmetic_power(x, gamma, sign).mean()


_ORDERS = st.complex_numbers(max_magnitude=30.0, allow_nan=False, allow_infinity=False)


@given(
    xs=st.lists(st.floats(min_value=-1e6, max_value=1e6).filter(
        lambda v: abs(v) >= 1e-6), min_size=1, max_size=20),
    gamma=_ORDERS,
    gammas=st.lists(_ORDERS, min_size=1, max_size=8),
    sign=st.sampled_from(["plus", "minus"]),
)
@settings(max_examples=200)
def test_branch_power_is_the_real_arithmetic_power(xs, gamma, gammas, sign):
    # both signs of x in one array, and one branch against many orders
    # the way HalfLineIntegrals.signed forms its half-line phases
    x = np.array(xs)
    got = branch_power(signed_log(x, sign), -gamma)
    assert np.array_equal(got, _real_arithmetic_power(x, gamma, sign), equal_nan=True)
    g = np.array(gammas, dtype=complex)
    got = branch_power(signed_log(1.0, sign), -g)
    assert np.array_equal(got, _real_arithmetic_power(1.0, g, sign), equal_nan=True)


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_monte_carlo_direct_path_is_the_real_arithmetic_power(sign):
    x = np.concatenate([[0.0], sample(CAUCHY, 3_000, seed=21)])
    kept = x[x != 0.0]
    nodes = GridParams(rho=0.3, delta=0.7, m=4).nodes()
    for g in (np.complex128(0.3 - 2.1j), np.array([0.3 - 2.1j]), nodes):
        est = moment_monte_carlo(x, g, sign)
        want = [_real_arithmetic_mean(kept, o, sign) for o in np.atleast_1d(g)]
        assert np.array_equal(np.atleast_1d(est.value), want)


# rounding of one complex exponential and of one complex multiply or
# divide, relative, in units of eps
_EXP_ROUNDING = 2.0
_PRODUCT_ROUNDING = 4.0


def _ladder_excess(rho, delta, m, n, spec, sign, seed):
    """The largest ratio, over the nodes, of the ladder's distance from
    the direct path to the rounding bound below; values and standard
    errors alike.

    For sample x_j, with a_j = ln|x_j|, the power at node k is
    V_jk = exp(E_jk) with E_jk = -(rho + i k delta)(a_j + i s sgn(x_j) pi/2),
    so |Re E_jk| + |Im E_jk| <= (rho + |k| delta)(|a_j| + pi/2).
    * The direct path forms E_jk in real arithmetic, each product and
      sum rounded once, and takes one exponential: a relative error of
      at most eps ((rho + |k| delta)(|a_j| + pi/2) + _EXP_ROUNDING).
    * The ladder takes the exact power at its last anchor k0 and then
      r <= _LADDER_RUN - 1 products by the step z_j, whose exponent
      delta (|a_j| + pi/2) rounds like any other.  The exponent terms add
      up to (rho + |k0| delta + r delta)(|a_j| + pi/2), the direct path's,
      plus r (_EXP_ROUNDING + _PRODUCT_ROUNDING) for the rounding of each
      z_j and of each product.
    So the two powers differ by at most eps w_jk |V_jk|, with
    w_jk = 2 (rho + |k| delta)(|a_j| + pi/2) + 2 _EXP_ROUNDING
           + 15 (_EXP_ROUNDING + _PRODUCT_ROUNDING),
    the means by the average of that, and the standard errors, which
    move by at most the root-mean-square change of the centred powers,
    by eps sqrt(sum w_jk^2 |V_jk|^2 / (n (n - 1))).  Summing the block
    adds 1e-14 of mean |V_jk| (or of sqrt(sum |V_jk|^2 / (n (n - 1)))):
    about 2 log2(8192) eps for the two paths' pairwise sums.  The
    bound holds per sample, with no cancellation between samples; 15
    is _LADDER_RUN - 1 as the ladder is built, so with its anchors gone
    the ladder's own rounding grows past it.
    """
    m = min(m, int(200.0 / delta))
    x = sample(spec, n, seed=seed)
    gp = GridParams(rho=rho, delta=delta, m=m, sign=sign)
    ladder = moment_monte_carlo(x, gp, sign)
    direct = moment_monte_carlo(x, gp.nodes(), sign)
    eps = np.finfo(float).eps
    a = np.log(np.abs(x))
    turn = (1.0 if sign == "plus" else -1.0) * np.sign(x) * (math.pi / 2.0)
    excess = 0.0
    for i, k in enumerate(range(-m, m + 1)):
        size = np.exp(k * delta * turn - rho * a)
        weight = eps * (2.0 * (rho + abs(k) * delta) * (np.abs(a) + math.pi / 2.0)
                        + 2.0 * _EXP_ROUNDING
                        + 15.0 * (_EXP_ROUNDING + _PRODUCT_ROUNDING))
        value_bound = 1e-14 * np.mean(size) + np.mean(weight * size)
        stderr_bound = (1e-14 * math.sqrt(np.sum(size * size) / (n * (n - 1)))
                        + math.sqrt(np.sum((weight * size) ** 2) / (n * (n - 1))))
        excess = max(excess,
                     abs(ladder.value[i] - direct.value[i]) / value_bound,
                     abs(ladder.stderr[i] - direct.stderr[i]) / stderr_bound)
    return excess


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
# node k = -47, 14 divides from its anchor at k = -33: the ladder is off
# by 115 eps mean |V| there and the direct path by 49, past a bound
# that left out the ladder's products
@example(rho=0.75, delta=0.2935230291554545, m=47, n=199, spec=CAUCHY, sign="plus",
         seed=3709)
@settings(max_examples=30, deadline=None)
def test_monte_carlo_ladder_matches_direct_path(rho, delta, m, n, spec, sign, seed):
    # compared in the units that rounding scales with, |V| and
    # sqrt(sum |V|^2 / (n (n-1))): against the standard error or their
    # own size, close samples would magnify it without bound
    assert _ladder_excess(rho, delta, m, n, spec, sign, seed) <= 1.0


@pytest.mark.parametrize("n", [2, 20])
def test_monte_carlo_ladder_bound_fails_without_anchors(monkeypatch, n):
    # a single run from k = 0 of 2000 products at delta = 0.01: each
    # z_j's own rounding is carried into every node above it
    monkeypatch.setattr(moments, "_LADDER_RUN", 10**9)
    assert _ladder_excess(0.5, 0.01, 2000, n, RAYLEIGH, "minus", 1) > 1.0


def _traced_peak(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("path", ["ladder", "direct"])
def test_monte_carlo_peak_does_not_grow_with_samples(path):
    # a few block-sized buffers (0.9 MB); one sample-length complex array
    # at n = 1e6 would take 16 MB
    gp = GridParams(rho=0.4, delta=0.4, m=2)
    orders = gp if path == "ladder" else gp.nodes()
    peaks = [
        _traced_peak(lambda: moment_monte_carlo(x, orders, "minus"))
        for x in (np.random.default_rng(4).standard_cauchy(n) for n in (200_000, 1_000_000))
    ]
    assert peaks[1] <= 2_000_000
    assert peaks[1] - peaks[0] <= 16_384


def test_a_drawn_monte_carlo_grid_holds_no_sample_array():
    # levy's sampler forms two arrays per draw: 32 MB at 2e6 samples
    # when the whole sample is drawn first
    gp = GridParams(rho=0.4, delta=0.4, m=10)
    peak = _traced_peak(lambda: make_grid(LEVY, gp, "monte_carlo", n_samples=2_000_000,
                                          seed=1))
    assert peak <= 2_000_000


def test_monte_carlo_ladder_logs_its_cost(caplog, monkeypatch):
    # two CPUs, whatever the host has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    x = np.concatenate([[0.0, 0.0], sample(LEVY, 1_000, seed=2)])
    with caplog.at_level(logging.DEBUG, logger="fracmom"):
        moment_monte_carlo(x, GridParams(rho=0.4, delta=0.4, m=20), "minus")
    lines = [r.getMessage() for r in caplog.records if r.name == "fracmom.moments"]
    assert len(lines) == 1
    # anchors at k = 0, 16, -1, -17 and the step; 41 - 4 ladder steps
    assert lines[0].startswith(
        "monte carlo grid: 1000 samples used, 2 zeros dropped, 41 nodes, "
        "5 exact exponentials, 37 ladder multiplies, 1 block in 1 process, ")
    assert lines[0].endswith(" s")
    # four blocks at m = 2 are milliseconds of work, less than a fork
    # pays for, unless any work is worth a process
    for n, share_s, blocks in ((3 * 8192 + 1, _forkjoin._SHARE_S, "4 blocks in 1 process"),
                               (2 * 8192 + 1, 0.0, "3 blocks in 2 processes")):
        monkeypatch.setattr(_forkjoin, "_SHARE_S", share_s)
        caplog.clear()
        x = sample(LEVY, n, seed=2)
        with caplog.at_level(logging.DEBUG, logger="fracmom"):
            moment_monte_carlo(x, GridParams(rho=0.4, delta=0.4, m=2), "minus")
        lines = [r.getMessage() for r in caplog.records if r.name == "fracmom.moments"]
        assert len(lines) == 1
        assert lines[0].startswith(
            f"monte carlo grid: {n} samples used, 0 zeros dropped, 5 nodes, "
            f"3 exact exponentials, 3 ladder multiplies, {blocks}, ")


def test_monte_carlo_grid_sign_must_match():
    with pytest.raises(ArgumentError, match="sign"):
        moment_monte_carlo(np.ones(4), GridParams(0.4, 0.4, 2, "plus"), "minus")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_monte_carlo_samples_must_be_finite(monkeypatch, bad):
    # NaN used to give a NaN grid, and +/-inf NaN nodes on the ladder
    # where the direct path was finite
    x = np.array([1.0, bad, 2.0])
    gp = GridParams(rho=0.4, delta=0.4, m=1)
    for gamma in (gp, gp.nodes(), 0.4 + 0.4j):
        with pytest.raises(ArgumentError, match="^samples must be finite$"):
            moment_monte_carlo(x, gamma, "minus")
    # a draw that is not finite stops a drawn grid the same way
    monkeypatch.setitem(distributions._CATALOG, "cauchy", dataclasses.replace(
        CAUCHY.record, sample=lambda p, rng, n: np.where(np.arange(n) == 1, bad, 1.0)))
    with pytest.raises(ArgumentError, match="^samples must be finite$"):
        make_grid(CAUCHY, gp, "monte_carlo", n_samples=3)


def test_monte_carlo_degenerate_inputs():
    with pytest.raises(ArgumentError, match="^samples must be nonempty$"):
        moment_monte_carlo([], 0.5, "minus")
    with pytest.raises(AllSamplesDegenerateError, match="^all 10 samples are exactly zero$"):
        moment_monte_carlo(np.zeros(10), 0.5, "minus")
    with pytest.raises(AllSamplesDegenerateError, match="^all 24581 samples are exactly zero$"):
        moment_monte_carlo(np.zeros(3 * 8192 + 5), GridParams(0.4, 0.4, 2), "minus")
    # a block of zeros alone adds nothing but its count
    x = sample(CAUCHY, 100, seed=4)
    for gamma in (0.5, GridParams(0.4, 0.4, 2)):
        est, want = (moment_monte_carlo(v, gamma, "minus") for v in (np.r_[np.zeros(8192), x], x))
        assert np.array_equal(est.value, want.value) and np.array_equal(est.stderr, want.stderr)
        assert (est.dropped, want.dropped) == (8192, 0)
    est = moment_monte_carlo(np.array([0.0, 1.0, 1.0, 0.0, 1.0, 1.0]), 0.5, "minus")
    assert est.dropped == 2
    # four identical points: the estimate is the exact value
    # (-i)^(-1/2) = e^{i pi/4}
    est = moment_monte_carlo(np.ones(4), 0.5, "minus")
    want = complex(math.sqrt(0.5), math.sqrt(0.5))
    assert est.value == pytest.approx(want, abs=1e-15)
    assert est.stderr == pytest.approx(0.0, abs=1e-16)
    # one nonzero sample has no spread to measure: an infinite error
    est = moment_monte_carlo(np.array([0.0, 2.0, 0.0]), 0.5, "minus")
    assert (est.stderr, est.dropped) == (math.inf, 2)
    est = moment_monte_carlo(np.array([2.0]), GridParams(0.4, 0.4, 2), "minus")
    assert np.all(est.stderr == math.inf) and np.all(np.isfinite(est.value))


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
        moment_quadrature(CAUCHY, 1.0 - 1e-9, "minus")
    assert info.value.achieved is not None
    assert info.value.achieved > 1e-9


_SCALES = st.floats(min_value=-15.0, max_value=15.0).map(lambda e: 10.0**e)


@st.composite
def _scaled_laws(draw):
    family = draw(st.sampled_from(["uniform", "rayleigh", "gaussian"]))
    scale = draw(_SCALES)
    if family == "uniform":
        return make_spec("uniform", a=scale)
    if family == "rayleigh":
        return make_spec("rayleigh", sigma=scale)
    mu = draw(st.sampled_from([0.0, 1.0, -1.0])) * draw(_SCALES)
    return make_spec("gaussian", mu=mu, sigma=scale)


@given(_scaled_laws(), st.sampled_from(["plus", "minus"]))
@example(make_spec("rayleigh", sigma=0.01), "minus")
@example(make_spec("rayleigh", sigma=1e-6), "plus")
@example(make_spec("rayleigh", sigma=1e20), "minus")
@example(make_spec("gaussian", mu=50.0, sigma=0.001), "minus")
@example(make_spec("gaussian", mu=1e12, sigma=1.0), "plus")
@settings(max_examples=60, deadline=None)
def test_quadrature_moments_at_any_scale_are_right_or_refused(spec, sign):
    # Wynn extrapolation of panels before a density's mass, and mass
    # past the panels' reach, used to give wrong moments with exit 0
    nodes = GridParams(0.4, 0.4, 2).nodes()
    try:
        got = moment_quadrature(spec, nodes, sign)
    except QuadratureError:
        return
    try:
        want = closed_form_moment(spec, nodes, sign)
    except DomainError:
        reject()
    assert np.all(np.abs(got - want) <= 2e-9 + 1e-12 * np.abs(want))


def test_density_mass_past_the_panels_is_refused():
    with pytest.raises(QuadratureError, match="mass") as info:
        moment_quadrature(make_spec("rayleigh", sigma=1e20), 0.4, "minus")
    assert info.value.achieved == pytest.approx(1.0)


# The power integral int_a^b u^(-g) f(u) du is the "minus" side of
# mirrored_integral, which evaluates f at u itself.  Its orders lie on
# both sides of the origin, with and without an imaginary part.
_POWER_ORDERS = np.array([0.3, 0.5 + 2j, -1.5 + 0.7j, 2.5 - 1j])


@pytest.mark.parametrize("a, b", [(0.5, 3.0), (2.0, 2.5), (1.0, math.inf)])
def test_power_integral_against_incomplete_gamma(a, b):
    """int_a^b u^(-g) e^(-u) du is the incomplete gamma function
    Gamma(1 - g, a) - Gamma(1 - g, b), in mpmath at 30 digits."""
    got = mirrored_integral(lambda u: np.exp(-u), "minus", _POWER_ORDERS, a, b)
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.gammainc(1 - mpmath.mpc(g), a, b))
                         for g in _POWER_ORDERS])
    assert np.all(np.abs(got.value - want) <= 1e-14 * np.abs(want))
    assert np.all(got.error <= 1e-13 * np.abs(want))


def test_power_integral_array_equals_per_order_calls():
    f = lambda u: np.exp(-u) * np.cos(u)  # noqa: E731
    for a, b in ((0.0, 1.0), (0.5, 3.0), (1.0, math.inf), (0.0, math.inf)):
        whole = mirrored_integral(f, "minus", _POWER_ORDERS, a, b)
        each = [mirrored_integral(f, "minus", g, a, b) for g in _POWER_ORDERS]
        for got, want in zip(whole, zip(*each)):
            assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (0.0, -0.0)])
def test_power_integral_empty_range_is_zero(a, b):
    def never(u):
        raise AssertionError("integrand evaluated")

    value, error = mirrored_integral(never, "minus", _POWER_ORDERS, a, b)
    assert value.dtype == complex and value.shape == error.shape == (4,)
    assert not value.any() and not error.any()
    assert mirrored_integral(never, "minus", 0.5, a, b) == (0j, 0.0)
    value, error = mirrored_integral(never, ("plus", "minus"), _POWER_ORDERS, a, b)
    assert value.shape == error.shape == (2, 4)
    assert not value.any() and not error.any()


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, math.inf), (0.0, math.inf)])
@pytest.mark.parametrize("ringing", [False, True])
def test_two_sided_mirrored_integral_is_two_one_sided_calls(name, a, b, ringing):
    """Both sides share the kernel and the panels, and each side's row
    is bit for bit the one-sided call, for a density and for a CF."""
    spec = make_spec(name)
    osc = (spec.record.oscillation(spec.params) or 1.0) if ringing else None
    orders = np.array([0.3, 0.5 + 2j, 0.7 - 1j])
    for f in (lambda x: exact_pdf(spec, x), lambda t: exact_cf(spec, t)):
        both = mirrored_integral(f, ("plus", "minus"), orders, a, b, oscillation=osc)
        assert both.value.shape == both.error.shape == (2, 3)
        for row, side in enumerate(("plus", "minus")):
            one = mirrored_integral(f, side, orders, a, b, oscillation=osc)
            assert np.array_equal(both.value[row], one.value), side
            assert np.array_equal(both.error[row], one.error), side


def test_identity_suite_peak_does_not_grow_with_the_shared_sides():
    # 1_478_361 bytes: this measurement of the gaussian call on the tree
    # before the sides shared one engine pass (commit 4475dfd), where
    # each side formed its own kernel.  Both sides, and the Mellin and
    # Marchaud orders, now fill one array four times the size, so the
    # engine drops it before the Wynn table and takes |f| half of its
    # rows at a time, and the kernel forms one phase row at a time.
    gp = GridParams(rho=0.4, delta=0.4, m=5, sign="minus")
    for name in FAMILIES:
        assert _traced_peak(lambda: identity_suite(make_spec(name), gp)) <= 1_478_361, name


# abscissae of both panel sequences of [0, inf)
_ABSCISSAE = np.concatenate([quadrature._layout(0.0, 1.0)[0],
                             quadrature._layout(1.0, math.inf)[0]])
# real parts drawn often enough to repeat, and |Im gamma| likewise
_PARTS = st.sampled_from([0.0, 0.4, -0.4, 1.4]) | st.floats(-3.0, 3.0)


@given(st.lists(st.tuples(_PARTS, _PARTS | st.floats(-30.0, 30.0)), min_size=1, max_size=6),
       st.booleans())
@example([(0.4, 0.0), (0.4, 0.4), (-0.4, -0.4), (0.0, 0.0)], True)
def test_power_kernel_is_the_complex_exponential(parts, stacked):
    """Each row of the kernel is exp(-gamma ln u) within a few roundings
    of the exponent, for orders with repeated real parts, Im gamma = 0
    and conjugate pairs, flat or stacked as a (2, n) array."""
    g = np.array([complex(re, im) for re, im in parts])
    g = np.stack([g, g.conj()]) if stacked else np.concatenate([g, g.conj()])
    exponent = np.multiply.outer(-g, np.log(_ABSCISSAE))
    want = np.exp(exponent)
    block = np.empty(g.shape + _ABSCISSAE.shape, dtype=complex)
    got = moments.power_kernel(g, _ABSCISSAE, block)
    assert got is block
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - want) <= 8.0 * eps * (1.0 + np.abs(exponent)) * np.abs(want))


def test_power_kernel_far_out_is_not_finite_and_quiet():
    """u^-180 leaves double range near u = 0; the engine's estimate
    reports the non-finite row, so the kernel does not warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = moments.power_kernel(np.array([180.0, 180.0 - 2j, 0.4]), _ABSCISSAE,
                                   np.empty((3,) + _ABSCISSAE.shape, dtype=complex))
    assert not np.isfinite(got[:2]).all(axis=1).any()
    assert np.isfinite(got[2]).all()


def test_power_kernel_counts_one_phase_row_per_distinct_imaginary_part():
    g = GridParams(rho=0.4, delta=0.4, m=5).nodes()
    with quadrature.counting() as tally:
        mirrored_integral(lambda x: np.exp(-x), "minus", np.stack([1.0 - g, 1.0 + g]), 0.0, 1.0)
    # |Im gamma| = 0, 0.4, ..., 2.0 over the 2 x 32 x 21 abscissae
    assert tally["phases"] == 6 * 1344
    assert tally["passes"] == 1 and tally["values"] == 22 * 1344


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.4, math.nan), (-1.0, 1.0),
                                  (-2.0, -3.0)])
def test_mirrored_integral_refuses_a_nan_or_negative_end(a, b):
    """A NaN end used to give an exact zero with zero error, and a
    negative lower end a raw ValueError from the engine."""
    def never(u):
        raise AssertionError("integrand evaluated")

    with pytest.raises(ArgumentError, match=r"^need 0 <= a and a b that is not NaN"):
        mirrored_integral(never, "minus", 0.4, a, b)


def test_moment_quadrature_plus_minus_conjugation():
    g = 0.4 + 0.8j
    a = moment_quadrature(GAUSS21, g, "minus").conjugate()
    b = moment_quadrature(GAUSS21, g.conjugate(), "plus")
    assert abs(a - b) <= 1e-10


# ----------------------------------------------------------------------
# working strip and truncation suggestion
# ----------------------------------------------------------------------


def test_working_strips():
    """The moment strip cut to (0, inf), or (0, inf) with no family."""
    assert str(working_strip(GAUSS21)) == "(0, 1)"
    assert str(working_strip(CAUCHY)) == "(0, 1)"
    assert str(working_strip(UNIFORM)) == "(0, 1)"
    assert str(working_strip(LEVY)) == "(0, inf)"
    assert str(working_strip(RAYLEIGH)) == "(0, 2)"
    assert str(working_strip(None)) == "(0, inf)"


@pytest.mark.parametrize("spec", [UNIFORM, RAYLEIGH, CAUCHY, LEVY, GAUSS21],
                         ids=lambda s: s.family)
def test_working_strip_ends_are_usable(spec):
    """``fracmom strip`` prints the working strip; a grid line just inside
    either end of it must pass the check every grid of ``spec`` makes."""
    strip = working_strip(spec)
    for rho in (np.nextafter(strip.lo, strip.hi), np.nextafter(strip.hi, strip.lo)):
        MomentGrid(GridParams(rho=float(rho), delta=0.4, m=1), np.ones(3), spec)


@pytest.mark.parametrize("spec, rho", [(CAUCHY, 1.2), (LEVY, -0.45), (None, 0.0),
                                       (None, -0.5)])
def test_moment_grid_checks_its_line(spec, rho):
    """A grid's line must lie in the usable strip of its distribution,
    or of no family when it has none."""
    gp = GridParams(rho=rho, delta=0.4, m=1)
    of = "" if spec is None else f" of {spec.label()}"
    with pytest.raises(StripError, match=rf"^rho = {rho} outside usable strip "
                                         rf"\(0, .+\){of}$"):
        MomentGrid(gp, np.ones(3), spec)


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


@pytest.mark.parametrize("delta, sign, message", [
    (0.2, "sideways", "sign must be 'plus' or 'minus', got 'sideways'"),
    (math.inf, "minus", "delta must be finite and > 0"),
    (1j, "minus", "rho and delta must be real numbers"),
], ids=["sign", "infinite-delta", "complex-delta"])
def test_suggest_truncation_checks_delta_and_sign(delta, sign, message):
    """GridParams' rules: a bad sign used to answer m = 10^4 capped, an
    infinite delta m = 1, and a complex one raised a TypeError."""
    with pytest.raises(ArgumentError, match=rf"^{re.escape(message)}$"):
        suggest_truncation(CAUCHY, 0.4, delta, sign, 1e-10)


def test_suggest_truncation_caps_only_on_overflow(monkeypatch):
    """Only a moment that leaves double range ends the search capped;
    any other package error propagates."""
    def refused(spec, gamma, sign):
        raise QuadratureError("not an overflow")

    monkeypatch.setattr("fracmom.moments.closed_form_moment", refused)
    with pytest.raises(QuadratureError, match="^not an overflow$"):
        suggest_truncation(CAUCHY, 0.4, 0.4, "minus", 1e-6)


@pytest.mark.parametrize("rho, tol, message", [
    (0.4j, 1e-10, "rho and delta must be real numbers"),
    (0.4, 1j, "tol must be a real number > 0"),
    (0.4, "x", "tol must be a real number > 0"),
], ids=["complex-rho", "complex-tol", "text-tol"])
def test_suggest_truncation_refuses_non_real_rho_and_tol(rho, tol, message):
    """Each of these used to raise a raw TypeError, from the strip check
    or from the comparison of ``tol`` with 0."""
    with pytest.raises(ArgumentError, match=rf"^{re.escape(message)}$"):
        suggest_truncation(CAUCHY, rho, 0.2, "minus", tol)


@pytest.mark.parametrize("rho", [1.5, -0.5, math.nan])
def test_suggest_truncation_checks_the_line(rho):
    """A line outside the usable strip used to answer m = 10^4 capped
    (rho = 1.5) or m = 68 (rho = -0.5, a line make_grid refuses)."""
    with pytest.raises(StripError, match=rf"^rho = {rho} outside usable strip "
                                         r"\(0, 1\) of cauchy$"):
        suggest_truncation(CAUCHY, rho, 0.4, "minus", 1e-6)


# ----------------------------------------------------------------------
# CSV round-trip
# ----------------------------------------------------------------------


def _roundtrip(grid, method=None):
    buf = io.StringIO()
    write_grid_csv(grid, buf, method=method)
    return read_grid_csv(io.StringIO(buf.getvalue()))


def test_csv_roundtrip_bitwise():
    gp = GridParams(rho=0.4, delta=0.4, m=4, sign="plus")
    grid = make_grid(RAYLEIGH, gp, "closed_form")
    back, meta = _roundtrip(grid, method="closed_form")
    assert back.params == gp
    assert back.spec == RAYLEIGH
    assert np.array_equal(back.values, grid.values)  # bit-exact via repr
    assert meta["family"] == "rayleigh"
    assert meta["params"] == {"sigma": 2.0}
    assert meta["method"] == "closed_form"


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_PARAM_VALUES = {"a": _POSITIVE, "sigma": _POSITIVE,
                 "mu": st.floats(allow_nan=False, allow_infinity=False)}


def _random_spec(family):
    names = DistributionSpec(family).params
    params = st.fixed_dictionaries({name: _PARAM_VALUES[name] for name in names})
    return params.map(lambda p: DistributionSpec(family, p))


@given(
    rho=st.floats(min_value=0.05, max_value=0.95),
    delta=st.floats(min_value=0.01, max_value=2.0),
    m=st.integers(min_value=1, max_value=12),
    types=st.tuples(st.sampled_from([float, np.float64]),
                    st.sampled_from([float, np.float64]),
                    st.sampled_from([int, np.int64, np.int32])),
    seed=st.integers(min_value=0, max_value=2**31),
    spec=st.sampled_from(FAMILIES).flatmap(_random_spec),
)
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip_random_values(rho, delta, m, types, seed, spec):
    # NumPy scalars for rho, delta and m used to reach the CSV as
    # np.float64(...) text, which read_grid_csv refused
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
    rho_type, delta_type, m_type = types
    params = GridParams(rho=rho_type(rho), delta=delta_type(delta), m=m_type(m))
    assert (type(params.rho), type(params.delta), type(params.m)) == (float, float, int)
    grid = MomentGrid(params, vals, spec)
    back, _ = _roundtrip(grid, method="closed_form")
    assert back.params == params
    assert back.params.rho == rho and back.params.m == m
    assert back.params.delta == delta
    assert back.spec == spec
    assert np.array_equal(back.values, vals)


def test_csv_read_rejects_malformed():
    text = _grid_text()  # cauchy, rho = 0.4, delta = 0.4, m = 2
    lines = text.strip().split("\n")
    row_one = next(ln for ln in lines if ln.startswith("1,"))

    def with_row_one(new):
        return text.replace(row_one, new)

    cases = [
        ("unexpected grid CSV header", text.replace("k,rho,eta,re,im", "a,b,c,d,e")),
        # five rows less the last leave k = -2..1, which is no -m..m
        ("cover k = -m..m", "\n".join(lines[:-1])),
        # k = -1, 0, 2 passes the 3-row check and fails on the gap
        ("cover k = -m..m", "\n".join(ln for ln in lines
                                       if not ln.startswith(("-2,", "1,")))),
        ("missing '# sign:'", text.replace("# sign: minus\n", "")),
        ("malformed grid CSV row", with_row_one(row_one.rsplit(",", 1)[0])),
        ("malformed grid CSV row", with_row_one(row_one + ",0.0")),
        ("disagree on rho", with_row_one(row_one.replace(",0.4,", ",0.5,", 1))),
    ]
    for message, bad in cases:
        with pytest.raises(ArgumentError, match=re.escape(message)):
            read_grid_csv(io.StringIO(bad))
    # blank lines between rows are skipped
    spaced, _ = read_grid_csv(io.StringIO(text.replace("\n", "\n\n")))
    plain, _ = read_grid_csv(io.StringIO(text))
    assert spaced.params == plain.params and spaced.spec == plain.spec
    assert np.array_equal(spaced.values, plain.values)


def test_write_table_format():
    """A head value of None writes no line and a column of None empty
    cells; every other head value is written with ``str`` and every
    cell with ``repr``, integers and floats alike."""
    buf = io.StringIO()
    write_table(buf, {"kind": "cf", "family": None, "m": 3, "rho": 0.1},
                {"k": np.arange(-1, 2), "x": [0.1, np.float64(1.0) / 3.0, -0.0],
                 "exact": None, "n": np.array([7, 8, 9], dtype=np.int32)})
    assert buf.getvalue() == ("# kind: cf\n# m: 3\n# rho: 0.1\n"
                              "k,x,exact,n\n"
                              "-1,0.1,,7\n0,0.3333333333333333,,8\n1,-0.0,,9\n")


@pytest.mark.parametrize("m, delta", [(3, 0.4), (10_000, 0.3), (10_000, 1e304),
                                      (10_000, 5e-324)])
def test_grid_rows_are_the_row_by_row_reference(m, delta):
    """The grid's columns give the rows of a per-node loop, with eta the
    Python product k * delta, out to the cap on m and the extremes of
    delta."""
    rng = np.random.default_rng(m)
    values = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
    grid = MomentGrid(GridParams(0.4, delta, m), values)
    buf = io.StringIO()
    write_grid_csv(grid, buf)
    rows = [f"{k},{0.4!r},{k * delta!r},{grid.value(k).real!r},{grid.value(k).imag!r}"
            for k in range(-m, m + 1)]
    assert buf.getvalue().splitlines() == ["# sign: minus", "k,rho,eta,re,im", *rows]


@given(st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
                max_size=20))
@settings(max_examples=60, deadline=None)
def test_write_table_floats_read_back_bit_exact(pairs):
    columns = np.array(pairs, dtype=float).reshape(-1, 2)
    buf = io.StringIO()
    write_table(buf, {"rows": len(pairs)}, {"a": columns[:, 0], "b": columns[:, 1]})
    lines = buf.getvalue().splitlines()
    assert lines[:2] == [f"# rows: {len(pairs)}", "a,b"]
    back = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]])
    assert back.reshape(-1, 2).tobytes() == columns.tobytes()


def _grid_text(m=2, delta=0.4):
    gp = GridParams(rho=0.4, delta=delta, m=m)
    buf = io.StringIO()
    write_grid_csv(make_grid(CAUCHY, gp, "closed_form"), buf, method="closed_form")
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


_BAD_CELLS = ["nan", "inf", "-inf", "abc", "", "1" * 30, "-" + "9" * 30, "0x1p3"]
_HEAD_LINES = ["# sign: plus", "# sign: sideways", "# family: levy", "# family: nosuch",
               '# params: {"sigma": -1.0}', "# params: [", "# params: " + "[" * 5000,
               "# params: " + "1" * 5000, "# method: mc", "#", "# no colon"]


@st.composite
def _mutated_grid_lines(draw):
    """The lines of a written grid, with cells replaced, rows dropped,
    duplicated or given an extra cell, and head lines added."""
    spec = draw(st.sampled_from([None, CAUCHY, RAYLEIGH, GAUSS21]))
    params = GridParams(rho=0.4, delta=draw(st.sampled_from([0.4, 1e-3])),
                        m=draw(st.integers(min_value=1, max_value=3)),
                        sign=draw(st.sampled_from(["plus", "minus"])))
    values = (np.ones(2 * params.m + 1) if spec is None
              else make_grid(spec, params, "closed_form").values)
    buf = io.StringIO()
    write_grid_csv(MomentGrid(params, values, spec), buf, method="closed_form")
    lines = buf.getvalue().splitlines()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        op = draw(st.sampled_from(["cell", "drop", "duplicate", "extra", "head"]))
        # three drops leave lines: a written grid has six or more
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        if op == "head":
            lines.insert(i, draw(st.sampled_from(_HEAD_LINES)))
        elif op == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(min_value=0, max_value=len(cells) - 1))] = draw(
                st.sampled_from(_BAD_CELLS))
            lines[i] = ",".join(cells)
        elif op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] += ",0.0"
    return lines


@given(_mutated_grid_lines())
@settings(max_examples=150, deadline=None)
def test_csv_read_is_total(lines):
    """Whatever is done to a written grid, the reader returns a grid or
    raises a typed error, and a grid it returns writes back to the same
    bytes."""
    try:
        grid, meta = read_grid_csv(lines)
    except FracmomError:
        return
    written = []
    for _ in range(2):
        buf = io.StringIO()
        write_grid_csv(grid, buf, method=meta.get("method"))
        written.append(buf.getvalue())
        grid, meta = read_grid_csv(io.StringIO(buf.getvalue()))
    assert written[0] == written[1]


def test_moment_quadrature_array_unreachable_tol():
    """Over a node array, one order missing the target is enough to
    raise, and the error carries the estimate it achieved.  The nodes
    reach |Im gamma| = 12, past the |Im gamma| ~ 8 where the phase
    e^(pi |Im gamma| / 2) lifts the estimate above 1e-9."""
    nodes = GridParams(rho=0.4, delta=0.4, m=30).nodes()
    with pytest.raises(QuadratureError) as info:
        moment_quadrature(GAUSS21, nodes, "minus")
    assert info.value.achieved is not None
    assert info.value.achieved > 1e-9
    assert "gamma = " in str(info.value)
