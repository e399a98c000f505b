"""Complex-order moment grids and their estimators.

A grid is the family of values E[(s i X)^(-gamma_k)] on the vertical
line gamma_k = rho + i k delta, k = -m..m.  Three interchangeable
estimators are provided — catalog closed forms, vectorised quadrature
of the defining integral, and a Monte Carlo average over samples — plus
conversion between signed / plain / absolute moment flavors, strip
arithmetic, a truncation heuristic, and a CSV round-trip format.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .distributions import (
    DistributionSpec,
    FundamentalStrip,
    closed_form_moment,
    exact_pdf,
)
from .errors import (
    AllSamplesDegenerateError,
    ArgumentError,
    DomainError,
    EmptyStripError,
    FracmomError,
    StripError,
)
from .quadrature import Estimate, integrate, require
from .special import (
    branch_power,
    cosine_normaliser,
    sign_value,
    signed_complex_power,
    signed_log,
)

log = logging.getLogger(__name__)

GRID_METHODS = ("closed_form", "quadrature", "monte_carlo")

# the largest grid half-width: GridParams rejects a larger m, and the
# truncation search answers capped here
_M_CAP = 10_000

# samples per block of the Monte Carlo passes that need temporaries
_BLOCK = 1 << 16

# nodes per run of the Monte Carlo node ladder: one exact power, then a
# step per node
_LADDER_RUN = 16


# ----------------------------------------------------------------------
# grid types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GridParams:
    """Line abscissa, imaginary step, half-width and sign of a grid."""

    rho: float
    delta: float
    m: int
    sign: str = "minus"

    def __post_init__(self):
        sign_value(self.sign)  # validates
        if not 0.0 < self.delta < math.inf:
            raise ArgumentError("delta must be finite and > 0")
        if not 1 <= self.m <= _M_CAP:
            raise ArgumentError(f"m must be between 1 and {_M_CAP}")
        if not math.isfinite(self.rho):
            raise ArgumentError("rho must be finite")

    def node(self, k: int) -> complex:
        return complex(self.rho, k * self.delta)

    def nodes(self) -> np.ndarray:
        k = np.arange(-self.m, self.m + 1)
        return self.rho + 1j * self.delta * k


@dataclass(frozen=True)
class MomentGrid:
    """2m+1 moment values tabulated on the nodes of ``params``."""

    params: GridParams
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * self.params.m + 1,):
            raise ArgumentError(
                f"grid needs {2 * self.params.m + 1} values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def value(self, k: int) -> complex:
        m = self.params.m
        if not -m <= k <= m:
            raise ArgumentError(f"node index {k} outside [-{m}, {m}]")
        return complex(self.values[k + m])


# ----------------------------------------------------------------------
# estimators
# ----------------------------------------------------------------------

class HalfLineIntegrals(NamedTuple):
    """int_0^inf u^(-gamma) pdf(+/-u) du per order: the x > 0 half
    (``positive``) and the x < 0 half mapped to u = -x (``negative``).

    Every moment flavor is a combination of the two: the signed moment
    attaches a constant phase to each half, the absolute moment adds
    them.
    """

    positive: Estimate
    negative: Estimate

    def signed(self, gamma, sign: str) -> Estimate:
        """E[(s i X)^(-gamma)]: (s i x)^(-g) = |x|^(-g) (s i)^(-/+g)."""
        phase = signed_complex_power(1.0, -np.asarray(gamma), sign)
        return Estimate(
            phase * self.positive.value + self.negative.value / phase,
            np.abs(phase) * self.positive.error
            + self.negative.error / np.abs(phase),
        )

    def absolute(self) -> Estimate:
        """E[|X|^(-gamma)]."""
        return Estimate(
            self.positive.value + self.negative.value,
            self.positive.error + self.negative.error,
        )


def half_line_integrals(
    pdf: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float],
    gamma,
    *,
    oscillation: float | None = None,
) -> HalfLineIntegrals:
    """Both half-line integrals of u^(-gamma) pdf(+/-u), one engine call
    per half of the support that is not empty; ``gamma`` may be a
    scalar or an array of orders, and ``pdf`` is called on arrays.

    ``pdf`` may be any function, not only a density: the fractional
    operators pass a characteristic function and a ``support`` that
    marks the stretch of one half-line they need.  ``oscillation`` is
    handed to :func:`~fracmom.quadrature.integrate`.
    """
    g = np.asarray(gamma, dtype=complex)
    lo, hi = support
    halves = []

    def integrand(u, orient):
        density = pdf(orient * u)
        # far out in Re gamma the power overflows near u = 0; the
        # resulting non-finite estimate is reported by ``require``
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(np.multiply.outer(-g, np.log(u))) * density

    for a, b, orient in ((max(lo, 0.0), hi, 1.0), (max(0.0, -hi), -lo, -1.0)):
        if b > a:
            halves.append(integrate(
                lambda u: integrand(u, orient), a, b, oscillation=oscillation
            ))
        else:
            zero = np.zeros(g.shape)
            halves.append(Estimate(zero + 0j, zero))
    return HalfLineIntegrals(*halves)


def moment_quadrature(
    pdf: Callable[[np.ndarray], np.ndarray],
    support: tuple[float, float],
    gamma,
    sign: str,
    *,
    tol: float = 1e-9,
):
    """E[(s i X)^(-gamma)] by quadrature of the defining integral.

    The integral is split at the origin.  On each half-line the phase
    exp(-/+ s gamma i pi/2) is constant and is factored out, leaving
    u^(-gamma) pdf(+/-u), which the vectorised engine integrates for
    every order in ``gamma`` at once, calling ``pdf`` on arrays of
    abscissae.  Each half's error estimate is scaled by its phase
    magnitude, so the combined estimate is an estimate of the returned
    value's error; if it exceeds ``tol`` at any order a
    :class:`QuadratureError` naming that order and carrying its
    estimate is raised.  A scalar ``gamma`` gives a complex result, an
    array of orders an array.
    """
    g = np.atleast_1d(np.asarray(gamma, dtype=complex))
    result = half_line_integrals(pdf, support, g).signed(g, sign)
    require(result, tol, "moment quadrature", g)
    return complex(result.value[0]) if np.ndim(gamma) == 0 else result.value


class MonteCarloMoment(NamedTuple):
    """Sample mean and standard error per order (scalars for a scalar
    order, arrays for an array of orders or a grid's nodes) and the
    zeros dropped."""

    value: complex | np.ndarray
    stderr: float | np.ndarray
    dropped: int


def _mean_stderr(vals: np.ndarray) -> tuple[complex, float]:
    # the mean of one order's per-sample powers and its standard error;
    # the two-pass sum of squares is centred one block at a time in a
    # small buffer, so ``vals`` is left as it was
    n = vals.size
    mean = vals.mean()
    if n == 1:
        return mean, math.inf
    buf = np.empty(min(n, _BLOCK), dtype=complex)
    squares = 0.0
    for start in range(0, n, _BLOCK):
        part = buf[: min(_BLOCK, n - start)]
        np.subtract(vals[start : start + _BLOCK], mean, out=part)
        squares += np.vdot(part, part).real
    return mean, math.sqrt(squares / (n - 1) / n)


def _sample_power(xs: np.ndarray, gamma: complex, sign: str, out: np.ndarray) -> None:
    # (s i x)^gamma at every sample into ``out``, one block of samples at
    # a time, so the branch and exponent temporaries stay block-sized
    for start in range(0, xs.size, _BLOCK):
        part = slice(start, start + _BLOCK)
        out[part] = branch_power(signed_log(xs[part], sign), gamma)


def _node_ladder(xs: np.ndarray, params: GridParams):
    # per-node mean and standard error over the grid's nodes; returns
    # them with the number of exact anchors
    m = params.m
    value = np.empty(2 * m + 1, dtype=complex)
    stderr = np.empty(2 * m + 1)
    # the ratio z = exp(-i delta Log(s i x)) between consecutive nodes,
    # and the running power exp(-gamma_k Log(s i x)): the only two
    # sample-length arrays
    step = np.empty(xs.shape, dtype=complex)
    _sample_power(xs, -1j * params.delta, params.sign, step)
    power = np.empty_like(step)
    anchors = 0
    # outward from the centre, where the mean is largest against its
    # standard error (so a step's rounding weighs least there): up from
    # k = 0 by multiplying by z, down from k = -1 by dividing
    for k in (*range(m + 1), *range(-1, -m - 1, -1)):
        if (k if k >= 0 else -1 - k) % _LADDER_RUN == 0:
            _sample_power(xs, -params.node(k), params.sign, power)
            anchors += 1
        elif k > 0:
            np.multiply(power, step, out=power)
        else:
            np.divide(power, step, out=power)
        value[k + m], stderr[k + m] = _mean_stderr(power)
    return value, stderr, anchors


def moment_monte_carlo(samples, gamma, sign: str) -> MonteCarloMoment:
    """Sample-average estimate of E[(s i X)^(-gamma)] with a standard error.

    ``gamma`` may be a scalar, an array of orders or a :class:`GridParams`
    (whose sign must equal ``sign``).  Exact zeros are dropped (the
    integrand is singular there for Re gamma > 0) and counted in the
    result.  The standard error is the delete-one jackknife of the
    mean, which for a plain average is the classical sqrt(Var/n); for a
    complex estimate the variance is taken as E|V - mean|^2.

    A scalar or array of orders takes the direct path: the branch
    Log(s i x) of :func:`~fracmom.special.signed_log` is formed once per
    sample, and each order is one exact exponential of it
    (:func:`~fracmom.special.branch_power`).  A grid's nodes take the
    node ladder instead.  Consecutive nodes differ by i delta, so
    (s i x)^(-gamma_(k+1)) = (s i x)^(-gamma_k) z with
    z = exp(-i delta Log(s i x)): each node is one in-place multiply or
    divide by z.  The ladder walks outward from the centre, up from
    k = 0 by multiplying and down from k = -1 by dividing, and an exact
    exponential starts it again every 16 nodes, so no node is more than
    15 steps from an exact power.  It holds two sample-length arrays,
    the step and the running power.  Its values differ from the direct
    path's by rounding only (about 1e-13 of a standard error at 2e5
    samples).  With ``FRACMOM_LOG=debug`` the ladder logs its samples,
    zeros, nodes, exact exponentials, multiplies (a divide counts as
    one) and time.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ArgumentError("samples must be nonempty")
    nonzero = x != 0.0
    n = int(np.count_nonzero(nonzero))
    if n == 0:
        raise AllSamplesDegenerateError(
            f"all {x.size} samples are exactly zero"
        )
    xs = x.ravel() if n == x.size else x[nonzero]
    if isinstance(gamma, GridParams):
        if gamma.sign != sign:
            raise ArgumentError(f"grid sign {gamma.sign!r} differs from sign {sign!r}")
        start = time.perf_counter()
        value, stderr, anchors = _node_ladder(xs, gamma)
        log.debug("monte carlo grid: %d samples used, %d zeros dropped, %d nodes, "
                  "%d exact exponentials, %d ladder multiplies, %.3f s",
                  n, x.size - n, value.size, anchors + 1, value.size - anchors,
                  time.perf_counter() - start)
        return MonteCarloMoment(value, stderr, x.size - n)
    branch = signed_log(xs, sign)
    orders = np.asarray(gamma, dtype=complex)
    value = np.empty(orders.shape, dtype=complex)
    stderr = np.empty(orders.shape)
    for i, g in np.ndenumerate(orders):
        value[i], stderr[i] = _mean_stderr(branch_power(branch, -g))
    if orders.ndim == 0:
        value, stderr = complex(value), float(stderr)
    return MonteCarloMoment(value, stderr, x.size - n)


def require_usable_rho(spec: DistributionSpec, rho: float) -> None:
    """Raise :class:`StripError` unless a grid line at ``rho`` lies in
    the family's moment strip intersected with the positive axis."""
    allowed = spec.moment_strip.intersect(FundamentalStrip(0.0, math.inf))
    if rho not in allowed:
        raise StripError(
            f"rho = {rho} outside usable strip {allowed} of {spec.label()}"
        )


def make_grid(
    spec: DistributionSpec,
    params: GridParams,
    method: str = "closed_form",
    *,
    samples=None,
) -> MomentGrid:
    """Tabulate the moment grid by one of the three estimators.

    ``rho`` must lie in the family's moment strip intersected with the
    positive axis.  ``samples`` is required (nonempty) for the
    ``monte_carlo`` method and ignored otherwise.
    """
    if method not in GRID_METHODS:
        raise ArgumentError(
            f"method must be one of {GRID_METHODS}, got {method!r}"
        )
    require_usable_rho(spec, params.rho)

    if method == "monte_carlo":
        if samples is None or np.asarray(samples).size == 0:
            raise ArgumentError("monte_carlo needs a nonempty samples array")
        estimate = moment_monte_carlo(samples, params, params.sign)
        return MomentGrid(params, estimate.value)

    if method == "closed_form":
        values = closed_form_moment(spec, params.nodes(), params.sign)
    else:
        values = moment_quadrature(
            lambda x: exact_pdf(spec, x), spec.support, params.nodes(),
            params.sign,
        )
    return MomentGrid(params, values)


# ----------------------------------------------------------------------
# moment-flavor conversion
# ----------------------------------------------------------------------


def _i_power(gamma: complex) -> complex:
    # i^gamma on the signed-power branch, typed when it leaves range
    with np.errstate(over="ignore", invalid="ignore"):
        power = signed_complex_power(1.0, gamma, "plus")
    if not np.isfinite(power):
        raise DomainError(f"i^(+/-gamma) overflows at gamma = {gamma}")
    return power


def convert_moment(
    kind_in: str,
    kind_out: str,
    gamma: complex,
    signed_value: complex,
    plain_value: complex | None = None,
) -> complex:
    """Convert a signed moment E[(±iX)^g] into the plain or absolute flavor.

    ``gamma`` is the literal exponent g carried by every moment in the
    identity (pass a negative value for negative-order moments).  The
    two solvable directions are:

    * ``signed_minus -> plain``:    E[X^g]   = i^g  E[(-iX)^g]
    * ``signed_plus  -> absolute``: E[|X|^g] = (E[(iX)^g] + i^(-g) E[X^g])
                                              / (2 cos(pi g / 2)),
      which additionally needs ``plain_value`` = E[X^g].

    Plain moments of sign-changing variables are understood on the
    principal branch, x^g = |x|^g e^(i pi g) for x < 0.  Every other
    in/out pairing, including an unknown kind, raises
    :class:`ArgumentError`; the cosine zeros of the absolute direction
    raise :class:`PoleError`, and a factor i^(+/-g) or a cosine outside
    double range raises :class:`DomainError`.
    """
    gamma = complex(gamma)
    if (kind_in, kind_out) == ("signed_minus", "plain"):
        return _i_power(gamma) * signed_value
    if (kind_in, kind_out) == ("signed_plus", "absolute"):
        if plain_value is None:
            raise ArgumentError("signed_plus -> absolute needs the plain moment too")
        normaliser = cosine_normaliser(gamma)
        return (signed_value + _i_power(-gamma) * plain_value) / normaliser
    raise ArgumentError(f"no identity links {kind_in!r} to {kind_out!r}; supported: "
                        "signed_minus->plain, signed_plus->absolute")


# ----------------------------------------------------------------------
# strip arithmetic and truncation
# ----------------------------------------------------------------------


def working_strip(spec: DistributionSpec) -> FundamentalStrip:
    """Guaranteed-usable line abscissas for reconstruction.

    The moment strip intersected with (0, 1) — except the Gaussian,
    whose reconstruction line extends over the whole positive axis by
    analytic continuation of its rapidly decaying CF.
    """
    if spec.family == "gaussian":
        strip = FundamentalStrip(0.0, math.inf)
    else:
        strip = spec.moment_strip.intersect(FundamentalStrip(0.0, 1.0))
    if strip.is_empty:
        raise EmptyStripError(
            f"no admissible line abscissa for {spec.label()}"
        )
    return strip


class TruncationSuggestion(NamedTuple):
    m: int
    capped: bool


def suggest_truncation(
    spec: DistributionSpec,
    rho: float,
    delta: float,
    sign: str,
    tol: float,
) -> TruncationSuggestion:
    """Smallest half-width m whose tail term falls below ``tol``.

    The tail magnitude at eta = m*delta is bounded by the asymptotic
    |Gamma(rho + i eta)| ~ sqrt(2 pi) |eta|^(rho - 1/2) e^(-pi |eta|/2)
    times the larger of the two grid endpoint moment magnitudes — an
    envelope, not an exact term, so the suggestion is conservative.
    The search gallops (m = 1, 2, 4, ..., 10^4) to the first m whose
    envelope is at most ``tol`` or whose endpoint moment cannot be
    evaluated, then bisects back to the first such m: about 2 log2 m
    envelope evaluations.  Like the linear sweep it replaces, it takes
    that stop test to hold at every m past the first that meets it.
    It answers ``capped=True`` with m = 10^4
    when the target is unreachable, or when an endpoint moment stops
    being evaluable before the target is met.
    """
    if not tol > 0.0:
        raise ArgumentError("tol must be > 0")
    if not delta > 0.0:
        raise ArgumentError("delta must be > 0")

    def envelope(m: int) -> float:
        eta = m * delta
        gamma_mod = (
            math.sqrt(2.0 * math.pi)
            * eta ** (rho - 0.5)
            * math.exp(-math.pi * eta / 2.0)
        )
        if gamma_mod == 0.0:
            # the exponential factor underflowed; in-strip moments are
            # finite, so the bound is zero regardless of their size
            return 0.0
        ends = np.array([complex(rho, eta), complex(rho, -eta)])
        moduli = np.abs(closed_form_moment(spec, ends, sign))
        return gamma_mod * float(np.max(moduli))

    def reached(m: int) -> bool | None:
        # None: the endpoint moment is not evaluable this far out, and
        # the envelope is treated as unreachable from here on
        try:
            return envelope(m) <= tol
        except FracmomError:
            return None

    # The envelope decays like e^(-pi m delta / 2); if even the cap
    # endpoint misses the target, searching below it cannot help.
    if not reached(_M_CAP):
        return TruncationSuggestion(_M_CAP, True)

    # gallop until reached(hi) is not False, which the cap guarantees;
    # reached(lo) stays False (lo = 0: nothing tried yet)
    lo, hi, found = 0, 1, reached(1)
    while found is False:
        lo, hi = hi, min(2 * hi, _M_CAP)
        found = reached(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        outcome = reached(mid)
        if outcome is False:
            lo = mid
        else:
            hi, found = mid, outcome
    if found:
        return TruncationSuggestion(hi, False)
    return TruncationSuggestion(_M_CAP, True)


# ----------------------------------------------------------------------
# CSV round trip
# ----------------------------------------------------------------------


def write_grid_csv(
    grid: MomentGrid,
    out: TextIO,
    *,
    family: str | None = None,
    params: dict | None = None,
    method: str | None = None,
) -> None:
    """Write a grid as `k,rho,eta,re,im` rows with `#` metadata lines.

    Floats are written with ``repr`` so the read side reproduces them
    bit for bit.
    """
    if family is not None:
        out.write(f"# family: {family}\n")
    if params is not None:
        out.write(f"# params: {json.dumps(params, sort_keys=True)}\n")
    out.write(f"# sign: {grid.params.sign}\n")
    if method is not None:
        out.write(f"# method: {method}\n")
    out.write("k,rho,eta,re,im\n")
    p = grid.params
    for k in range(-p.m, p.m + 1):
        v = grid.value(k)
        eta = k * p.delta
        out.write(f"{k},{p.rho!r},{eta!r},{v.real!r},{v.imag!r}\n")


def read_grid_csv(lines) -> tuple[MomentGrid, dict]:
    """Parse a grid written by :func:`write_grid_csv`.

    Accepts an iterable of lines (a file object works).  Returns the
    grid plus a metadata dict with whatever `#` keys were present.
    Raises :class:`ArgumentError` unless the rows cover k = -m..m with
    m >= 1, every value is finite, and eta = k * delta on every row.
    """
    meta: dict[str, object] = {}
    rows: list[tuple[int, float, float, complex]] = []
    header_seen = False
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                key = key.strip()
                val = val.strip()
                if key == "params":
                    try:
                        meta[key] = json.loads(val)
                    except json.JSONDecodeError:
                        meta[key] = val
                else:
                    meta[key] = val
            continue
        if not header_seen:
            if line != "k,rho,eta,re,im":
                raise ArgumentError(
                    f"unexpected grid CSV header: {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise ArgumentError(f"malformed grid CSV row: {line!r}")
        try:
            k = int(parts[0])
            rho, eta, re, im = (float(p) for p in parts[1:])
        except ValueError:
            raise ArgumentError(f"non-numeric grid CSV row: {line!r}") from None
        rows.append((k, rho, eta, complex(re, im)))

    if len(rows) < 3:
        raise ArgumentError(
            f"grid CSV needs at least 3 rows (k = -1..1), got {len(rows)}"
        )
    if "sign" not in meta:
        raise ArgumentError("grid CSV missing '# sign:' metadata")
    rows.sort(key=lambda r: r[0])
    ks = [r[0] for r in rows]
    m = (len(rows) - 1) // 2
    if ks != list(range(-m, m + 1)):
        raise ArgumentError("grid CSV rows must cover k = -m..m exactly")
    for k, rho_k, eta, value in rows:
        if not np.isfinite([rho_k, eta, value.real, value.imag]).all():
            raise ArgumentError(f"grid CSV row k = {k} has a non-finite value")
    rho = rows[0][1]
    if any(r[1] != rho for r in rows):
        raise ArgumentError("grid CSV rows disagree on rho")
    delta = rows[m + 1][2]  # eta at k = 1
    params = GridParams(rho=rho, delta=delta, m=m, sign=str(meta["sign"]))
    for k, _, eta, _ in rows:
        if not math.isclose(eta, k * delta, rel_tol=1e-9, abs_tol=1e-12 * delta):
            raise ArgumentError(
                f"grid CSV eta = {eta!r} at k = {k} is not k * delta "
                f"(delta = {delta!r} from k = 1)"
            )
    values = np.array([r[3] for r in rows], dtype=complex)
    return MomentGrid(params, values), meta
