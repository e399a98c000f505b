"""Series reconstruction of a characteristic function and its density
from one grid of complex-order moments.

The CF series on the line Re(gamma) = rho is the rectangle-rule
discretization

    cf(theta) ~ (delta / 2 pi) * sum_k Gamma(gamma_k) M_k |theta|^(-gamma_k)

valid directly for theta > 0 on a minus-sign grid (theta < 0 on a plus
grid); the opposite half-axis follows from Hermitian symmetry.  The
density series reuses the *same* minus-sign grid:

    pdf(x) ~ (delta / 2 pi^2) *
             Re sum_k Gamma(gamma_k) Gamma(1-gamma_k) M_k (i x)^(gamma_k - 1)

with the signed-power branch of :func:`fracmom.special.signed_log`.
Both series are singular at the origin — the origin is rejected, not
patched.

The two series share their weights: per kind only the weight factor
(Gamma(gamma_k), or the reflection product Gamma(gamma_k) Gamma(1-gamma_k))
and the scale differ.  The density sums a points x nodes kernel.  The CF
kernel needs no such array: the nodes are evenly spaced, so
|theta|^(-gamma_k) = |theta|^(-rho) z^k with z = |theta|^(-i delta) of
unit modulus and z^(-k) = conj(z)^k.  Per point it takes one real power,
one unit-modulus exponential and a Horner sum outward from the centre
node on each side, one complex multiply-add per node (in real
arithmetic), in place of one complex exponential per node; against the
per-node exponentials it differs by at most about 3e-15 of
|theta|^(-rho) sum |w_k| up to m = 2000.  The CF is evaluated at |theta|
for every point, and points on the grid's far half-axis take the complex
conjugate (the Hermitian fold), so cf(-theta) = conj(cf(theta)) holds bit
for bit.  Every step is elementwise over the points: a point's value does
not depend on the other points evaluated with it, and :func:`cf_series` /
:func:`pdf_series` at a point equal :func:`sample_curve` at that point in
any batch, bit for bit.

Two classical baselines complete the module: the integer-moment Taylor
expansion of the CF (which visibly diverges for heavy tails — the
motivating failure mode) and the residue partial sum for the standard
Gaussian, which reproduces that Taylor series term by term from the
pole structure of the moment integrand.

Truncation behavior worth knowing when choosing m: the grid resolves
oscillation frequencies of |theta|^(-i eta) only up to eta_max = m*delta,
so reconstruction error grows once ln|theta| (CF) or |ln x| (PDF)
exceeds roughly eta_max / 2; and the rectangle rule itself contributes
an aliasing floor of order exp(-2 pi rho / delta).  Both effects are
properties of the discretized line integral, not of the moment values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DistributionSpec, exact_cf, exact_pdf
from .errors import ArgumentError, DomainError, UnsupportedError
from .moments import GridParams, MomentGrid
from .special import complex_gamma, reflection_product, signed_complex_power

# ----------------------------------------------------------------------
# scalar series evaluation
# ----------------------------------------------------------------------


def cf_series(grid: MomentGrid, theta: float) -> complex:
    """Reconstructed CF at one point: :func:`sample_curve` at ``theta``.

    A minus-sign grid covers theta > 0 directly; a plus-sign grid covers
    theta < 0.  The other half-axis is filled in by the Hermitian
    extension cf(-theta) = conj(cf(theta)).  theta = 0 raises
    :class:`DomainError` (the series has no finite value there; the CLI
    layer may insert the exact CF(0) = 1 separately).
    """
    return complex(sample_curve(grid, "cf", [float(theta)]).values[0])


def pdf_series(grid: MomentGrid, x: float) -> float:
    """Reconstructed density at one point: :func:`sample_curve` at ``x``.

    Only grids tabulating E[(-iX)^(-gamma)] are accepted — the density
    series is written for that convention, and evaluating it on a plus
    grid would silently produce the density of -X.
    """
    return float(sample_curve(grid, "pdf", [float(x)]).values[0].real)


# ----------------------------------------------------------------------
# classical baselines
# ----------------------------------------------------------------------


def classical_taylor_cf(
    spec: DistributionSpec, theta: float, order: int
) -> complex:
    """Truncated Taylor expansion of the CF through ``(i theta)^order``.

    Supported for the families with finite integer moments of every
    order (uniform, Gaussian, Rayleigh); Cauchy and Levy raise
    :class:`UnsupportedError`.  At moderate ``theta`` the truncation
    error explodes — that divergence is the behavior this baseline
    exists to demonstrate.
    """
    if order < 0:
        raise ArgumentError("order must be >= 0")
    if spec.record.integer_moment is None:
        raise UnsupportedError(
            f"{spec.family} has no finite integer moments; its Taylor CF "
            "expansion is a sum of divergent terms"
        )
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j  # (i theta)^j / j!
    for j in range(order + 1):
        if j > 0:
            term *= 1j * theta / j
        total += term * spec.record.integer_moment(spec.params, j)
    return total


def residue_partial_sum(
    spec: DistributionSpec, theta: float, terms: int
) -> complex:
    """Partial sum of the residue expansion of the standard Gaussian CF.

    The poles of the moment-line integrand at gamma = 0, -2, -4, ...
    contribute exactly the even Taylor terms (i theta)^(2k) (2k-1)!! / (2k)!,
    so ``terms`` residues reproduce :func:`classical_taylor_cf` at order
    2(terms-1) — the test suite asserts the two code paths agree to
    1e-14.
    """
    if spec.family != "gaussian" or spec.params != {"mu": 0.0, "sigma": 1.0}:
        raise ArgumentError(
            "residue expansion is established for the standard Gaussian only"
        )
    if terms < 1:
        raise ArgumentError("terms must be >= 1")
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j  # (i theta)^(2k) (2k-1)!! / (2k)!
    for k in range(terms):
        if k > 0:
            # ratio between consecutive summands: (i theta)^2 / (2k)
            term *= (1j * theta) * (1j * theta) / (2.0 * k)
        total += term
    return total


# ----------------------------------------------------------------------
# curve sampling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CurveResult:
    """A reconstructed curve, optionally with a pointwise exact reference.

    ``im_max`` is a diagnostic on density curves: the largest |imaginary
    part| of the series *before* the real-part projection.  It is of the
    same order as the density itself (the un-projected sum carries the
    conjugate Hilbert-transform component), so it is reported rather
    than asserted small.
    """

    abscissae: np.ndarray
    values: np.ndarray
    exact: np.ndarray | None
    abs_err: np.ndarray | None
    params: GridParams
    kind: str
    im_max: float | None = None


def _horner(coefficients: np.ndarray, zr: np.ndarray, zi: np.ndarray):
    # sum_j coefficients[j] z^j at every z = zr + i zi by Horner's rule,
    # in real arithmetic: every product is one rounding, whatever loop
    # NumPy picks for the batch (an in-place complex multiply fuses a
    # multiply-add on some array lengths and not on others)
    re = np.full(zr.shape, coefficients[-1].real)
    im = np.full(zr.shape, coefficients[-1].imag)
    for c in coefficients[-2::-1]:
        re, im = re * zr - im * zi + c.real, re * zi + im * zr + c.imag
    return re, im


def _series(grid: MomentGrid, kind: str, x: np.ndarray) -> np.ndarray:
    p = grid.params
    nodes = p.nodes()
    if kind == "cf":
        factor, scale = complex_gamma(nodes), p.delta / (2.0 * math.pi)
    else:
        factor, scale = reflection_product(nodes), p.delta / (2.0 * math.pi**2)
    weights = scale * factor * grid.values
    if kind == "pdf":
        # (i x)^(gamma_k - 1) on the plus branch of the signed power; an
        # in-place product and a row sum: no second points x nodes array,
        # and no BLAS call whose summation order depends on the batch
        kernel = signed_complex_power(x[:, None], nodes - 1.0, "plus")
        return np.multiply(kernel, weights, out=kernel).sum(axis=1)
    # |theta|^(-gamma_k) = |theta|^(-rho) z^k with z = |theta|^(-i delta)
    # of unit modulus, so z^-k = conj(z)^k: one Horner sum on each side
    # of the centre node, where the weights are largest
    log_abs = np.log(np.abs(x))
    z = np.exp(-1j * p.delta * log_abs)
    m = p.m
    up_re, up_im = _horner(weights[m:], z.real, z.imag)
    down_re, down_im = _horner(
        np.concatenate(([0.0], weights[m - 1 :: -1])), z.real, -z.imag
    )
    anchor = np.exp(-p.rho * log_abs)
    values = np.empty(x.shape, dtype=complex)
    values.real = (up_re + down_re) * anchor
    values.imag = (up_im + down_im) * anchor
    mirrored = (x < 0.0) if p.sign == "minus" else (x > 0.0)
    return np.where(mirrored, np.conj(values), values)


def sample_curve(
    grid: MomentGrid,
    kind: str,
    abscissae: Sequence[float],
    exact_spec: DistributionSpec | None = None,
) -> CurveResult:
    """Evaluate the CF or PDF series on a one-dimensional array of points.

    Points must exclude the origin.  When ``exact_spec`` is given, the
    matching exact curve and pointwise absolute errors are attached.
    An empty abscissae array produces an empty result (the grid is
    still checked).  A point's value does not depend on the other
    points in ``abscissae``.  A series that
    is not finite at some point (its weights or kernel left double
    range) raises :class:`DomainError` naming the first such point.
    """
    if kind not in ("cf", "pdf"):
        raise ArgumentError(f"kind must be 'cf' or 'pdf', got {kind!r}")
    x = np.asarray(abscissae, dtype=float)
    if x.ndim != 1:
        raise ArgumentError(f"abscissae must be one-dimensional, got shape {x.shape}")
    if np.any(x == 0.0):
        raise DomainError(f"{kind} series is singular at the origin")
    if kind == "pdf" and grid.params.sign != "minus":
        raise ArgumentError("density series needs a grid built with sign='minus'")
    # an overflowing weight or kernel (times an underflowed partner)
    # shows as a non-finite sum, reported as a typed error rather than
    # as NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        series = _series(grid, kind, x)
    bad = ~np.isfinite(series)
    if bad.any():
        raise DomainError(f"{kind} series is not finite at x = {float(x[bad][0])!r}")

    im_max: float | None = None
    values = series
    if kind == "pdf":
        im_max = float(np.max(np.abs(series.imag), initial=0.0))
        values = series.real.astype(complex)
    exact = None
    if exact_spec is not None:
        exact_fn = exact_cf if kind == "cf" else exact_pdf
        exact = np.asarray(exact_fn(exact_spec, x), dtype=complex)
    abs_err = np.abs(values - exact) if exact is not None else None
    return CurveResult(
        abscissae=x,
        values=values,
        exact=exact,
        abs_err=abs_err,
        params=grid.params,
        kind=kind,
        im_max=im_max,
    )


def write_curve_csv(result: CurveResult, out, *, family: str | None = None) -> None:
    """Write `x,re,im,exact_re,exact_im,abs_err` rows with `#` metadata.

    Exact columns are left empty when the curve carries no reference.
    Floats use ``repr`` for bit-exact round-tripping.
    """
    p = result.params
    out.write(f"# kind: {result.kind}\n")
    if family is not None:
        out.write(f"# family: {family}\n")
    out.write(f"# rho: {p.rho!r}\n")
    out.write(f"# delta: {p.delta!r}\n")
    out.write(f"# m: {p.m}\n")
    out.write(f"# sign: {p.sign}\n")
    out.write("x,re,im,exact_re,exact_im,abs_err\n")
    x = np.asarray(result.abscissae, dtype=float).tolist()
    values = np.asarray(result.values, dtype=complex)
    real, imag = values.real.tolist(), values.imag.tolist()
    if result.exact is None:
        out.writelines(f"{a!r},{b!r},{c!r},,,\n" for a, b, c in zip(x, real, imag))
        return
    exact = np.asarray(result.exact, dtype=complex)
    err = np.asarray(result.abs_err, dtype=float).tolist()
    out.writelines(
        f"{a!r},{b!r},{c!r},{d!r},{e!r},{f!r}\n"
        for a, b, c, d, e, f in zip(
            x, real, imag, exact.real.tolist(), exact.imag.tolist(), err
        )
    )
