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

The two series share their weights and one kernel.  The nodes are
evenly spaced, so each kernel is a geometric progression in k,

    kernel_k(x) = exp((turn gamma_k - shift) branch) = anchor e^(k step),
    step = turn i delta branch,  anchor = exp((turn rho - shift) branch),

and per kind only the weight factor, the scale, the branch and two signs
differ: the CF has Gamma(gamma_k), delta / 2 pi, branch ln|theta|,
turn = -1 and shift = 0; the density has the reflection product
Gamma(gamma_k) Gamma(1-gamma_k), delta / 2 pi^2, branch
``signed_log(x, "plus")``, turn = +1 and shift = 1.  Per point the series
takes one real size and one unit phase for the anchor, e^step and
e^-step, and a Horner sum outward from the centre node on each side
(e^step above it, e^-step below), one complex multiply-add per node in
real arithmetic; no points x nodes array is formed.  For the CF,
|e^step| = 1 and e^-step = conj(e^step); against per-node exponentials
the sum differs by at most about 3e-15 of |theta|^(-rho) sum |w_k| up
to m = 2000.  For the density, |e^step| = e^(-+ delta pi / 2) and
Horner's rule never forms a power of it, so no kernel term leaves double
range where the weights underflow: a levy density at rho = 0.9,
delta = 0.4, m = 1300 (|Im gamma| up to 520) stays within 3.6e-9 of
the exact one on [0.1, 10], where a per-node kernel (ix)^(gamma-1)
overflows past |Im gamma| ~ 451.  The CF is evaluated at |theta| for
every point, and points on the grid's far half-axis take the complex
conjugate (the Hermitian fold), so cf(-theta) = conj(cf(theta)) holds
bit for bit; the density's branch carries the sign of x, so it needs no
fold.  Every step is elementwise over the points: a point's value does
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
an aliasing floor of order exp(-2 pi d / delta), where d is the distance
from rho to the nearest singularity of the weighted moments (an edge of
the moment strip or a pole of the weight factor; d = rho for the pole
of Gamma at 0).  Both effects are properties of the discretized line
integral, not of the moment values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import DistributionSpec, exact_cf, exact_pdf
from .errors import ArgumentError, DomainError, UnsupportedError
from .moments import GridParams, MomentGrid
from .special import complex_gamma, reflection_product, signed_log

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
    :class:`UnsupportedError`, and a moment E[X^j] that leaves double
    range raises :class:`DomainError`.  At moderate ``theta`` the
    truncation error explodes — that divergence is the behavior this
    baseline exists to demonstrate.
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
        try:
            moment = spec.record.integer_moment(spec.params, j)
        except OverflowError:  # a Python float power
            moment = math.inf
        if not math.isfinite(moment):
            raise DomainError(f"E[X^{j}] of {spec.label()} overflows double precision")
        total += term * moment
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
    """A reconstructed curve, with a pointwise exact reference when its
    grid's distribution ``spec`` is known."""

    abscissae: np.ndarray
    values: np.ndarray
    exact: np.ndarray | None
    abs_err: np.ndarray | None
    params: GridParams
    kind: str
    spec: DistributionSpec | None = None


def _ladder_sum(weights: np.ndarray, step: np.ndarray):
    # sum_k weights[k] e^((k - m) step) over the 2m+1 nodes: a Horner sum
    # outward from the centre node on each side, in e^step above it and
    # e^-step below, so no power of e^step is ever formed.  Real
    # arithmetic: every product is one rounding, whatever loop NumPy
    # picks for the batch (an in-place complex multiply fuses a
    # multiply-add on some array lengths and not on others)
    m = weights.size // 2
    re = im = 0.0
    for coefficients, z in ((weights[m:], np.exp(step)),
                            (np.r_[0.0, weights[m - 1 :: -1]], np.exp(-step))):
        side_re = side_im = np.zeros(step.shape)
        for c in coefficients[::-1]:
            side_re, side_im = (side_re * z.real - side_im * z.imag + c.real,
                                side_re * z.imag + side_im * z.real + c.imag)
        re, im = re + side_re, im + side_im
    return re, im


def _series(grid: MomentGrid, kind: str, x: np.ndarray) -> np.ndarray:
    p = grid.params
    nodes = p.nodes()
    # kernel_k = exp((turn gamma_k - shift) branch) = anchor e^(k step)
    if kind == "cf":
        # |theta|^(-gamma_k); the far half-axis is folded in below
        factor, scale = complex_gamma(nodes), p.delta / (2.0 * math.pi)
        branch, turn, shift = np.log(np.abs(x)), -1.0, 0.0
    else:
        # (i x)^(gamma_k - 1): the branch carries the sign of x
        factor, scale = reflection_product(nodes), p.delta / (2.0 * math.pi**2)
        branch, turn, shift = signed_log(x, "plus"), 1.0, 1.0
    re, im = _ladder_sum(scale * factor * grid.values, turn * p.delta * 1j * branch)
    # a real size times a unit phase: the CF's anchor is real, and its
    # product with each part of the sum is exact to one rounding
    power = turn * p.rho - shift
    anchor = np.exp(power * np.real(branch)) * np.exp(1j * power * np.imag(branch))
    values = np.empty(x.shape, dtype=complex)
    values.real = re * anchor.real - im * anchor.imag
    values.imag = re * anchor.imag + im * anchor.real
    if kind == "pdf":
        return values
    mirrored = (x < 0.0) if p.sign == "minus" else (x > 0.0)
    return np.where(mirrored, np.conj(values), values)


def sample_curve(grid: MomentGrid, kind: str, abscissae: Sequence[float]) -> CurveResult:
    """Evaluate the CF or PDF series on a one-dimensional array of points.

    Points must exclude the origin.  When the grid carries its
    distribution (``grid.spec``), the matching exact curve and pointwise
    absolute errors are attached, and the result carries the spec.
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

    values = series.real.astype(complex) if kind == "pdf" else series
    exact = None
    if grid.spec is not None:
        exact_fn = exact_cf if kind == "cf" else exact_pdf
        exact = np.asarray(exact_fn(grid.spec, x), dtype=complex)
    abs_err = np.abs(values - exact) if exact is not None else None
    return CurveResult(
        abscissae=x,
        values=values,
        exact=exact,
        abs_err=abs_err,
        params=grid.params,
        kind=kind,
        spec=grid.spec,
    )


def write_curve_rows(out, x, values, exact=None) -> None:
    """Write the `x,re,im,exact_re,exact_im,abs_err` header and one row
    per point of ``x``.

    ``values`` and ``exact`` are complex per point, and ``abs_err`` is
    |values - exact|.  The exact columns are left empty when ``exact``
    is None.  Floats use ``repr`` for bit-exact round-tripping.
    """
    out.write("x,re,im,exact_re,exact_im,abs_err\n")
    x = np.asarray(x, dtype=float).tolist()
    values = np.asarray(values, dtype=complex)
    real, imag = values.real.tolist(), values.imag.tolist()
    if exact is None:
        rows = (f"{a!r},{b!r},{c!r},,,\n" for a, b, c in zip(x, real, imag))
    else:
        exact = np.asarray(exact, dtype=complex)
        columns = (x, real, imag, exact.real.tolist(), exact.imag.tolist(),
                   np.abs(values - exact).tolist())
        rows = (f"{a!r},{b!r},{c!r},{d!r},{e!r},{f!r}\n"
                for a, b, c, d, e, f in zip(*columns))
    out.writelines(rows)


def write_curve_csv(result: CurveResult, out) -> None:
    """Write a curve's `#` metadata lines, then :func:`write_curve_rows`.

    A curve with a ``spec`` gets a `# family:` line.
    """
    p = result.params
    out.write(f"# kind: {result.kind}\n")
    if result.spec is not None:
        out.write(f"# family: {result.spec.family}\n")
    out.write(f"# rho: {p.rho!r}\n")
    out.write(f"# delta: {p.delta!r}\n")
    out.write(f"# m: {p.m}\n")
    out.write(f"# sign: {p.sign}\n")
    write_curve_rows(out, result.abscissae, result.values, result.exact)
