"""Series reconstruction of CFs and PDFs, plus the classical baselines.

Error bars here were frozen from first verified runs and asserted at
1.5x the measured value, so they catch regressions without flaking on
rounding jitter.  Where a value has an independent closed form (the
residue partial sums, the symmetry properties) it is asserted tightly.
"""

import functools
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracmom.distributions import exact_cf, exact_pdf, make_spec
from fracmom.errors import ArgumentError, DomainError, UnsupportedError
from fracmom.moments import GridParams, MomentGrid, make_grid
from fracmom.reconstruct import (
    CurveResult,
    cf_series,
    classical_taylor_cf,
    pdf_series,
    residue_partial_sum,
    sample_curve,
    write_curve_csv,
)
from fracmom.special import complex_gamma

UNIFORM = make_spec("uniform", a=2.0)
RAYLEIGH = make_spec("rayleigh", sigma=2.0)
CAUCHY = make_spec("cauchy")
LEVY = make_spec("levy")
GAUSS21 = make_spec("gaussian", mu=2.0, sigma=1.0)
GAUSS01 = make_spec("gaussian", mu=0.0, sigma=1.0)


def _grid(spec, m, rho=0.4, delta=0.4, sign="minus"):
    return make_grid(spec, GridParams(rho=rho, delta=delta, m=m, sign=sign))


def _unlabelled(grid):
    # the same nodes and values with no distribution, so no reference
    return MomentGrid(grid.params, grid.values)


# ----------------------------------------------------------------------
# CF series
# ----------------------------------------------------------------------


def test_cf_series_rayleigh_smoke():
    # frozen first-run error 7.4196e-3 at theta = 1.3 with 15 node pairs
    grid = _grid(RAYLEIGH, 15)
    err = abs(cf_series(grid, 1.3) - complex(exact_cf(RAYLEIGH, 1.3)))
    assert err <= 1.5 * 7.4196e-3


def test_cf_series_point_examples():
    # cauchy with 25 node pairs at theta = 2: comfortably inside 1e-2
    grid = _grid(CAUCHY, 25)
    err = abs(cf_series(grid, 2.0) - math.exp(-2.0))
    assert err <= 1e-2

    # uniform at theta = 1 measures 1.1899e-2 at this grid size — the
    # compact support keeps log-axis oscillation energy above the
    # grid's resolving bandwidth, so the error cannot reach 1e-2 here
    # (it needs roughly four times the reach); frozen, non-regression
    grid = _grid(UNIFORM, 25)
    err = abs(cf_series(grid, 1.0) - math.sin(2.0) / 2.0)
    assert err <= 1.5 * 1.1899e-2


def test_cf_series_refines_with_delta():
    """Halving the node spacing (at fixed eta reach) must improve the
    theta=1 error; the three frozen levels double as regression bars."""
    frozen = {
        "uniform": [5.8758e-2, 1.5277e-2, 1.2930e-2],
        "cauchy": [4.5149e-2, 1.8709e-3, 3.4991e-6],
    }
    for spec in (UNIFORM, CAUCHY):
        errs = []
        for delta, m in [(0.8, 13), (0.4, 26), (0.2, 52)]:
            grid = _grid(spec, m, delta=delta)
            errs.append(abs(cf_series(grid, 1.0) - complex(exact_cf(spec, 1.0))))
        bars = frozen[spec.family]
        assert errs[0] > errs[1] > errs[2]
        for err, bar in zip(errs, bars):
            assert err <= 1.5 * bar


def test_cf_series_hermitian_exact():
    grid = _grid(RAYLEIGH, 8)
    for theta in (0.3, 1.7, 12.0):
        direct = cf_series(grid, theta)
        mirrored = cf_series(grid, -theta)
        assert mirrored == direct.conjugate()  # exact by construction


def test_cf_series_plus_grid_orientation():
    """A plus-signed grid natively covers theta < 0; both grid signs
    must give identical values for a symmetric family."""
    gm = _grid(CAUCHY, 10, sign="minus")
    gp = _grid(CAUCHY, 10, sign="plus")
    for theta in (-2.0, 0.7):
        assert abs(cf_series(gm, theta) - cf_series(gp, theta)) <= 1e-12


def test_cf_series_rejects_origin():
    with pytest.raises(DomainError):
        cf_series(_grid(CAUCHY, 5), 0.0)


@given(theta=st.floats(min_value=0.05, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_cf_series_bounded_on_axis(theta):
    # the truncated series needn't stay below 1, but it must stay
    # finite and modest for a well-conditioned grid
    grid = _grid(CAUCHY, 10)
    val = cf_series(grid, theta)
    assert abs(val) < 2.0


def test_cf_series_vanishing_at_infinity():
    """The series decays like theta^(-rho) in envelope, and in value
    until it reaches the node-spacing aliasing floor exp(-2*pi*rho/delta)
    (about 1.9e-3 at the default spacing).  Below that floor the
    magnitude plateaus, so a strict 1 > 10 > 100 decay chain holds only
    while the exact CF is still above the floor; rayleigh at theta = 10
    is already far below it (phase cancellation leaves 6.7e-4) and the
    floor at theta = 100 sits higher.  The envelope inequality itself
    is a triangle-inequality theorem and is asserted for every grid."""
    cases = [
        (UNIFORM, 0.4, True),
        (RAYLEIGH, 0.4, False),  # the documented plateau counterexample
        (CAUCHY, 0.4, True),
        (LEVY, 0.4, True),
        (LEVY, 0.9, True),
        (GAUSS21, 0.4, True),
    ]
    for spec, rho, chain_holds in cases:
        grid = _grid(spec, 25, rho=rho)
        coeff = grid.params.delta / (2.0 * math.pi) * sum(
            abs(complex_gamma(grid.params.node(k)) * grid.value(k))
            for k in range(-25, 26)
        )
        mags = {t: abs(cf_series(grid, t)) for t in (1.0, 10.0, 100.0)}
        for t, mag in mags.items():
            assert mag <= coeff * t ** (-rho) * (1.0 + 1e-12), (spec.family, t)
        assert mags[10.0] < mags[1.0] and mags[100.0] < mags[1.0], spec.family
        if chain_holds:
            assert mags[100.0] < mags[10.0], spec.family
        else:
            assert mags[10.0] < math.exp(-2.0 * math.pi * rho / 0.4)


# ----------------------------------------------------------------------
# PDF series
# ----------------------------------------------------------------------


def test_pdf_series_point_smokes():
    # frozen first-run errors at representative abscissae; the first
    # three points additionally carry a hard 1e-2 contract (density
    # recovered at the mode / unit abscissa from 31 resp. 11 moments)
    cases = [
        (GAUSS21, 15, 2.0, 7.3555e-3, 1e-2),
        (CAUCHY, 5, 1.0, 5.0653e-3, 1e-2),
        (LEVY, 5, 1.0, 9.4056e-3, 1e-2),
        (GAUSS21, 15, 2.5, 1.2337e-2, None),  # off-mode, frozen only
    ]
    for spec, m, x, frozen, hard in cases:
        grid = _grid(spec, m)
        err = abs(pdf_series(grid, x) - float(exact_pdf(spec, x)))
        assert err <= 1.5 * frozen, spec.family
        if hard is not None:
            assert err <= hard, spec.family


def test_pdf_series_returns_float():
    grid = _grid(CAUCHY, 5)
    val = pdf_series(grid, 0.5)
    assert isinstance(val, float)


def test_pdf_series_rejects_plus_grids_and_origin():
    with pytest.raises(ArgumentError):
        pdf_series(_grid(CAUCHY, 5, sign="plus"), 1.0)
    with pytest.raises(DomainError):
        pdf_series(_grid(CAUCHY, 5), 0.0)


def test_pdf_series_symmetric_families_even():
    """For an even density the reconstruction is even to rounding,
    although each half carries an O(1) imaginary (Hilbert) component
    before the real part is taken."""
    for spec in (UNIFORM, CAUCHY, GAUSS01):
        grid = _grid(spec, 10)
        for x in (0.3, 1.1, 4.0):
            assert abs(pdf_series(grid, x) - pdf_series(grid, -x)) <= 1e-10


def test_levy_pdf_reaches_past_the_per_node_kernel_overflow():
    # |Im gamma| up to 520: a per-node kernel (ix)^(gamma-1) leaves double
    # range past |Im gamma| ~ 451 while its weight underflows, and used to
    # make this curve a DomainError; the Horner sum forms no power of z
    grid = _grid(LEVY, 1300, rho=0.9, delta=0.4)
    curve = sample_curve(grid, "pdf", np.linspace(0.1, 10.0, 100))
    assert np.all(curve.abs_err <= 1e-8)  # measured 3.55e-9


def test_levy_grid_right_of_one_rebuilds_cf_and_pdf():
    # levy's usable strip is (0, inf), so a line past 1 is a grid too;
    # frozen first-run errors 2.97e-14 (CF) and 8.9e-16 (PDF)
    grid = _grid(LEVY, 200, rho=1.5, delta=0.2)
    points = np.linspace(0.1, 10.0, 200)
    assert np.max(sample_curve(grid, "cf", points).abs_err) <= 1.5 * 2.97e-14
    assert np.max(sample_curve(grid, "pdf", points).abs_err) <= 1.5 * 8.9e-16


# ----------------------------------------------------------------------
# classical Taylor baseline
# ----------------------------------------------------------------------


def test_taylor_uniform_frozen_spot():
    got = classical_taylor_cf(UNIFORM, 0.5, 8)
    want = 0.84147100970017636684  # partial sum, pinned by hand
    assert abs(got - want) <= 1e-14
    # and it is close to, but distinct from, the true sinc value
    exact = 0.84147098480789650665
    assert abs(got - exact) <= 1e-7
    assert got.real != pytest.approx(exact, abs=1e-9)


def test_taylor_uniform_diverges_far_out():
    vals = [abs(classical_taylor_cf(UNIFORM, t, 8)) for t in (5.0, 8.0, 10.0)]
    assert vals[-1] > 100.0  # wildly above any CF magnitude
    assert vals == sorted(vals)


def test_taylor_gaussian_converges_near_origin():
    got = classical_taylor_cf(GAUSS21, 0.3, 24)
    want = complex(exact_cf(GAUSS21, 0.3))
    assert abs(got - want) <= 1e-12


def test_taylor_rayleigh_entire():
    # all integer moments exist, so the expansion converges (slowly)
    got = classical_taylor_cf(RAYLEIGH, 0.5, 30)
    want = complex(exact_cf(RAYLEIGH, 0.5))
    assert abs(got - want) <= 1e-10


def test_taylor_rejects_heavy_tails_and_bad_order():
    with pytest.raises(UnsupportedError):
        classical_taylor_cf(CAUCHY, 0.5, 4)
    with pytest.raises(UnsupportedError):
        classical_taylor_cf(LEVY, 0.5, 4)
    with pytest.raises(ArgumentError):
        classical_taylor_cf(UNIFORM, 0.5, -1)


@pytest.mark.parametrize("spec", [make_spec("rayleigh", sigma=1e200),
                                  make_spec("uniform", a=1e200),
                                  make_spec("gaussian", mu=1e200)],
                         ids=lambda s: s.family)
def test_taylor_moment_out_of_double_range_is_typed(spec):
    # E[X^2] = 2 sigma^2, a^2 / 3 or mu^2 + sigma^2 is past 1e308, by a
    # Python float power (OverflowError) or a product (inf)
    with pytest.raises(DomainError, match=r"E\[X\^2\]"):
        classical_taylor_cf(spec, 1.0, 8)


def test_taylor_order_zero():
    assert classical_taylor_cf(UNIFORM, 3.0, 0) == pytest.approx(1.0 + 0j)


def test_taylor_at_origin_is_one():
    for spec in (UNIFORM, RAYLEIGH, GAUSS21):
        assert classical_taylor_cf(spec, 0.0, 8) == 1.0 + 0j


# ----------------------------------------------------------------------
# residue partial sums (standard normal CF)
# ----------------------------------------------------------------------


def test_residue_partial_sum_frozen():
    got = residue_partial_sum(GAUSS01, 1.0, 6)
    assert abs(got - 0.60651041666666666667) <= 1e-14
    assert abs(got - math.exp(-0.5)) <= 1e-4


def test_residue_partial_sum_small_theta():
    # theta = 0.1, three terms: truncation error is the genuine Taylor
    # remainder theta^6 * 15/720 = 2.08e-8, nothing smaller
    got = residue_partial_sum(GAUSS01, 0.1, 3)
    want = math.exp(-0.005)
    assert abs(got - want) <= 3e-8
    assert abs(got - want) > 1e-9


def test_residue_partial_sum_converges():
    errs = [
        abs(residue_partial_sum(GAUSS01, 1.0, n) - math.exp(-0.5))
        for n in (2, 4, 8, 12)
    ]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] <= 1e-12


def test_residue_matches_taylor_two_path():
    # same arithmetic reached through two code paths: K residue terms
    # against the order-(2K-2) power series (odd moments vanish)
    for terms in (1, 2, 3, 6, 10):
        for theta in (0.3, 1.0, 2.5):
            a = residue_partial_sum(GAUSS01, theta, terms)
            b = classical_taylor_cf(GAUSS01, theta, 2 * terms - 2)
            assert abs(a - b) <= 1e-14


def test_residue_requires_standard_normal():
    with pytest.raises(ArgumentError):
        residue_partial_sum(GAUSS21, 1.0, 4)
    with pytest.raises(ArgumentError):
        residue_partial_sum(CAUCHY, 1.0, 4)
    with pytest.raises(ArgumentError):
        residue_partial_sum(GAUSS01, 1.0, 0)


# ----------------------------------------------------------------------
# curve sampling and CSV output
# ----------------------------------------------------------------------


def test_sample_curve_attaches_exact_reference():
    grid = _grid(CAUCHY, 10)
    xs = np.array([0.5, 1.0, 3.0])
    curve = sample_curve(grid, "cf", xs)
    assert curve.spec == CAUCHY
    assert curve.exact is not None and curve.abs_err is not None
    assert np.all(curve.abs_err >= 0.0)
    want = np.exp(-np.abs(xs))
    assert np.allclose(curve.exact.real, want, atol=1e-14)


def test_sample_curve_without_reference():
    grid = _unlabelled(_grid(CAUCHY, 5))
    curve = sample_curve(grid, "pdf", np.array([1.0, 2.0]))
    assert curve.spec is None
    assert curve.exact is None and curve.abs_err is None


def test_sample_curve_validation():
    grid = _grid(CAUCHY, 5)
    with pytest.raises(ArgumentError):
        sample_curve(grid, "density", np.array([1.0]))
    with pytest.raises(DomainError):
        sample_curve(grid, "cf", np.array([0.5, 0.0]))
    empty = sample_curve(grid, "cf", np.array([]))
    assert empty.values.size == 0


@pytest.mark.parametrize("kind", ["cf", "pdf"])
@pytest.mark.parametrize("exact", [True, False])
def test_sample_curve_empty_input(kind, exact):
    grid = _grid(CAUCHY, 5)
    curve = sample_curve(grid if exact else _unlabelled(grid), kind, [])
    assert curve.abscissae.dtype == float and curve.abscissae.shape == (0,)
    assert curve.values.dtype == complex and curve.values.shape == (0,)
    if exact:
        assert curve.exact.dtype == complex and curve.exact.shape == (0,)
        assert curve.abs_err.dtype == float and curve.abs_err.shape == (0,)
    else:
        assert curve.exact is None and curve.abs_err is None


@pytest.mark.parametrize("kind", ["cf", "pdf"])
@pytest.mark.parametrize("abscissae", [1.0, [[0.5, 1.0]]])
def test_sample_curve_rejects_non_vector_points(kind, abscissae):
    with pytest.raises(ArgumentError, match="one-dimensional"):
        sample_curve(_grid(CAUCHY, 5), kind, abscissae)


def _curve_peak_bytes(kind, points):
    grid = _grid(CAUCHY, 200, delta=0.2)
    x = np.linspace(-10.0, 10.0, points)
    sample_curve(grid, kind, x)
    tracemalloc.start()
    try:
        sample_curve(grid, kind, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pdf_curve_builds_no_points_by_nodes_array():
    # the node ladder keeps a few arrays of one value per point; the
    # points x nodes kernel it replaced took 64.6 MB here
    assert _curve_peak_bytes("pdf", 10_000) <= 5e6


def test_cf_curve_builds_no_points_by_nodes_array():
    # the node ladder keeps a few arrays of one value per point
    assert _curve_peak_bytes("cf", 2000) <= 0.1 * 2000 * (2 * 200 + 1) * 16


def _direct_cf(grid, x):
    # the CF series with one exponential per (point, node): |theta|^(-gamma_k)
    # = exp(-gamma_k ln|theta|), summed over the nodes, and the scale of its
    # rounding, |theta|^(-rho) sum |w_k|
    p = grid.params
    nodes = p.nodes()
    weights = p.delta / (2.0 * math.pi) * complex_gamma(nodes) * grid.values
    values = np.exp(np.multiply.outer(-np.log(np.abs(x)), nodes)) @ weights
    mirrored = (x < 0.0) if p.sign == "minus" else (x > 0.0)
    scale = np.abs(x) ** -p.rho * np.sum(np.abs(weights))
    return np.where(mirrored, np.conj(values), values), scale


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_cf_ladder_matches_direct_kernel(data):
    spec = data.draw(st.sampled_from([UNIFORM, RAYLEIGH, CAUCHY, LEVY, GAUSS01]))
    sign = data.draw(st.sampled_from(["minus", "plus"]))
    delta = data.draw(st.floats(min_value=0.05, max_value=0.4))
    m = data.draw(st.integers(min_value=1, max_value=min(2000, int(200.0 / delta))))
    magnitudes = st.floats(min_value=0.05, max_value=50.0)
    points = st.one_of(magnitudes, magnitudes.map(lambda v: -v))
    xs = np.array(data.draw(st.lists(points, min_size=1, max_size=8)))
    grid = _grid(spec, m, delta=delta, sign=sign)
    want, scale = _direct_cf(grid, xs)
    assert np.all(np.abs(sample_curve(grid, "cf", xs).values - want) <= 1e-13 * scale)


def test_sample_curve_empty_pdf_still_checks_the_grid_sign():
    # no points are no reason to skip the grid check
    with pytest.raises(ArgumentError):
        sample_curve(_grid(CAUCHY, 5, sign="plus"), "pdf", [])


@pytest.mark.parametrize("sign", ["minus", "plus"])
def test_cf_curve_mirrored_points_are_conjugates(sign):
    grid = _grid(LEVY, 12, sign=sign)
    xs = np.array([-7.5, -1.0, -0.3, 0.2, 1.0, 4.0])
    curve = sample_curve(grid, "cf", xs)
    mirrored = sample_curve(grid, "cf", -xs)
    assert np.array_equal(curve.values, np.conj(mirrored.values))


# ----------------------------------------------------------------------
# batch independence: a point's value does not depend on its company
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _widest_grid(spec, sign):
    return _grid(spec, 300, sign=sign)


def _central_grid(spec, sign, m):
    # the nodes k = -m..m of the m = 300 grid: the grid make_grid builds
    # at half-width m, without tabulating it again
    wide = _widest_grid(spec, sign)
    return MomentGrid(
        GridParams(rho=0.4, delta=0.4, m=m, sign=sign), wide.values[300 - m : 301 + m]
    )


def _alone(grid, kind, xs):
    if kind == "cf":
        return np.array([cf_series(grid, x) for x in xs])
    return np.array([pdf_series(grid, x) for x in xs])


def _in_batch(grid, kind, xs):
    values = sample_curve(grid, kind, xs).values
    return values if kind == "cf" else values.real


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_series_value_is_independent_of_the_batch(data):
    spec = data.draw(st.sampled_from([UNIFORM, RAYLEIGH, CAUCHY, LEVY, GAUSS01]))
    sign = data.draw(st.sampled_from(["minus", "plus"]))
    kind = data.draw(st.sampled_from(["cf", "pdf"] if sign == "minus" else ["cf"]))
    m = data.draw(st.integers(min_value=1, max_value=300))
    magnitudes = st.floats(min_value=0.05, max_value=50.0)
    points = st.one_of(magnitudes, magnitudes.map(lambda v: -v))
    xs = np.array(data.draw(st.lists(points, min_size=2, max_size=12)))
    order = np.array(data.draw(st.permutations(range(xs.size))))
    sub = order[: data.draw(st.integers(min_value=1, max_value=xs.size))]

    grid = _central_grid(spec, sign, m)
    batch = _in_batch(grid, kind, xs)
    assert np.array_equal(batch, _alone(grid, kind, xs))
    assert np.array_equal(batch[sub], _in_batch(grid, kind, xs[sub]))


def test_levy_cf_wide_grid_is_independent_of_the_batch():
    # 5001 nodes: a one-row product and a matrix-vector product used to
    # round differently here
    grid = _grid(LEVY, 2500, rho=0.9, delta=0.2)
    xs = np.array([1.0, 5.0, 20.0])
    assert np.array_equal(_in_batch(grid, "cf", xs), _alone(grid, "cf", xs))


def test_cauchy_pdf_figure_points_are_independent_of_the_batch():
    grid = _grid(CAUCHY, 10)
    xs = np.round(np.arange(-10.0, 10.0 + 1e-9, 0.1), 10)
    xs = xs[xs != 0.0]
    assert xs.size == 200
    assert np.array_equal(_in_batch(grid, "pdf", xs), _alone(grid, "pdf", xs))


def test_curve_csv_roundtrip_text():
    grid = _grid(RAYLEIGH, 6)
    xs = np.array([0.5, 1.5, 2.5])
    curve = sample_curve(grid, "cf", xs)
    buf = io.StringIO()
    write_curve_csv(curve, buf)
    text = buf.getvalue()
    assert text.startswith("# kind: cf\n# family: rayleigh\n")
    lines = text.strip().split("\n")
    header = lines[lines.index("x,re,im,exact_re,exact_im,abs_err")]
    assert header
    body = lines[lines.index("x,re,im,exact_re,exact_im,abs_err") + 1 :]
    assert len(body) == 3
    first = body[0].split(",")
    assert float(first[0]) == 0.5
    # repr round-trip: parsing the text recovers the exact double
    assert float(first[1]) == curve.values[0].real


@pytest.mark.parametrize("exact", [True, False])
def test_curve_csv_rows_are_per_value_reprs(exact):
    """The column-wise writer gives the bytes of a row-by-row repr."""
    grid = _grid(CAUCHY, 4)
    xs = np.array([-3.0, -1e-7, 0.25, 1.0 / 3.0, 7.5])
    curve = sample_curve(grid if exact else _unlabelled(grid), "pdf", xs)
    buf = io.StringIO()
    write_curve_csv(curve, buf)
    want = []
    for i, x in enumerate(xs):
        v = complex(curve.values[i])
        tail = ",,"
        if exact:
            e = complex(curve.exact[i])
            tail = f"{e.real!r},{e.imag!r},{float(curve.abs_err[i])!r}"
        want.append(f"{float(x)!r},{v.real!r},{v.imag!r},{tail}")
    body = buf.getvalue().split("x,re,im,exact_re,exact_im,abs_err\n")[1]
    assert body == "".join(row + "\n" for row in want)


def test_curve_csv_empty_reference_columns():
    grid = _unlabelled(_grid(CAUCHY, 4))
    curve = sample_curve(grid, "pdf", np.array([1.0]))
    buf = io.StringIO()
    write_curve_csv(curve, buf)
    last = buf.getvalue().strip().split("\n")[-1]
    assert last.endswith(",,")
