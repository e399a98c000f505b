"""Distribution catalog: densities, characteristic functions, exact
complex-order moments, and sampling.

Five families are supported: symmetric uniform on (-a, a), Rayleigh,
standard Cauchy, standard Levy (one-sided stable 1/2), and Gaussian.
Each is one :class:`Family` record in the catalog, which holds
everything the package knows about it: parameter defaults, moment
strip and support; an exact density, an exact CF, a
closed-form value of E[(s i X)^(-gamma)] for s = +/-1, and a seeded
sampler; and the facts other modules need beyond these (the integer
moments of the Taylor baseline and the CF's oscillation frequency).
Adding a family means adding one record.  The record's pdf, cf, moment and sampler are
reached only through the module functions :func:`exact_pdf`,
:func:`exact_cf`, :func:`closed_form_moment` and :func:`sample`, so the
three moment estimators in :mod:`fracmom.moments` can be cross-checked
against each other on every family.  The record's ``integer_moment``
and ``oscillation`` are called directly, by
:func:`fracmom.reconstruct.classical_taylor_cf` and
:func:`fracmom.fracops.identity_suite`.

The moment formulas in closed form:

* uniform(a):    a^(-g) cos(g pi/2) / (1 - g), either sign
* rayleigh(sig): sig^(-g) 2^(-g/2) Gamma(1 - g/2) exp(-s i g pi/2)
* cauchy:        1 (both signs, -1 < Re g < 1)
* levy:          2^g Gamma(g + 1/2) / sqrt(pi) * exp(-s i g pi/2)
* gaussian:      sig^(-g) / Gamma(g) * int_0^inf t^(g-1) e^(-t^2/2 - i s r t) dt,
                 r = mu/sig, for Re g > 0 (the paper's identity: the RL
                 integral of the CF at zero); in 30 digits, split at
                 the origin into parabolic cylinder functions
                 D_{g-1}(±r) with the half-line phases (s i)^(∓g)

The gamma factors decay and the phases grow like exp(pi |Im g| / 2),
so the Rayleigh and Levy moments are formed as one exponential of
their logarithm, and the Gaussian one with all its large factors in
one exponent, or as a single 30-digit mpmath expression; each stays
finite for as long as the moment itself fits in a double.  The phases
are exponentials of g times Log(s i) = s i pi/2, the branch of
:func:`fracmom.special.signed_log`; the Gaussian's 30-digit phase
t = (s i)^(-g) is the same branch, written in mpmath.  Only the uniform
cosine is evaluated as it stands: it leaves double range near
|Im g| = 452, within about 1% of where the moment does.

The Gaussian integral is evaluated in double precision where that can
be checked, node by node.  With t = e^w the integrand exp(psi(w)),
psi(w) = g w - e^(2w)/2 - i s r e^w, is entire; the integral runs
along the steepest-descent path through a saddle, psi = psi* - tau^2,
traced by predictor and Newton steps and summed by the trapezoid rule
in tau (|tau| <= 6.5, h = 0.1).  A path is used only when its left end
decays through the power term alone and its right end lies in the
valley |Im w| < pi/4.  Where no single path joins the two, two paths
do, through both saddles and a valley between them.  A node is
accepted when its Newton steps have converged, its sums at h and 2h
agree to 1e-13, and the rounding of its exponent stays below 5e-13.
The path classes and the rounding do not depend on h, so a node that
fails them declines after the coarse trace; nodes that fail at h = 0.1
are retried at h = 0.05 and 0.025.  Before
the contour, a Taylor series in r takes the nodes near the real axis
whose terms cancel by at most 30x (tried only for r <= 4; at mu = 0 it
is exact in one term).  On the grids rho in {0.4, 0.9}, delta = 0.2,
m = 200, mu in {0, 2}, both signs, every node is accepted and within
3.9e-14 of the 30-digit formula; the
far nodes lose about |Im g| eps to the exponent, so past
|Im g| ~ 300 (for mu = 2, sigma = 1) the nodes decline.  From r ~ 5
the contour declines more and more nodes: on the grid rho = 0.4,
delta = 0.2, m = 200, sign minus, it declines 3 of the 401 at r = 3,
59 at r = 5, 240 at r = 10 and 310 at r = 20.  The rest (Re g <= 0,
far-out nodes, r past about 5) take the 30-digit formula, whose
parabolic cylinder and gamma factors are evaluated once per conjugate
pair of declined orders: for real r, mpmath's values at conj g are the
exact conjugates of those at g, and every such moment is bit-identical
to its unshared value.  ``FRACMOM_LOG=debug`` logs the node counts of
each call by path.

All five were validated against adaptive quadrature of the defining
integral before being frozen here (the uniform and Rayleigh ones also
against high-precision arbitrary-precision integration).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy import special as sp_special

from .errors import ArgumentError, DomainError, StripError
from .special import as_orders, like_orders, scalar_or_array, sign_value, signed_log

log = logging.getLogger(__name__)

# ----------------------------------------------------------------------
# strip and family record types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalStrip:
    """Open interval of admissible real parts, endpoints possibly infinite."""

    lo: float
    hi: float

    def require(self, re, name: str, kind: str, owner: str | None = None) -> None:
        """Raise :class:`StripError` unless every real part in ``re`` (a
        scalar or an array) lies inside this open strip.

        The message names the first offending value in array order:
        ``"{name} = {value} outside {kind} strip {self}"``, followed by
        ``" of {owner}"`` when an owner is given.
        """
        values = np.asarray(re, dtype=float)
        outside = ~((values > self.lo) & (values < self.hi))
        if outside.any():
            of = "" if owner is None else f" of {owner}"
            raise StripError(f"{name} = {float(values[outside][0])} outside "
                             f"{kind} strip {self}{of}")

    def intersect(self, other: "FundamentalStrip") -> "FundamentalStrip":
        return FundamentalStrip(max(self.lo, other.lo), min(self.hi, other.hi))

    def __neg__(self) -> "FundamentalStrip":
        return FundamentalStrip(-self.hi, -self.lo)

    def __str__(self) -> str:
        def fmt(v: float) -> str:
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            if v == int(v):
                return str(int(v))
            return repr(v)

        return f"({fmt(self.lo)}, {fmt(self.hi)})"


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one distribution family.

    Every callable takes the spec's normalized parameters first.
    ``pdf(p, x)`` and ``cf(p, theta)`` take a float array;
    ``moment(p, gamma, sign)`` takes an array of orders inside ``strip``
    and gives E[(s i X)^(-gamma)]; ``sample(p, rng, n)`` draws from a
    NumPy generator.  ``integer_moment(p, j)`` is E[X^j] for the
    classical Taylor baseline, None for a family without finite integer
    moments.  ``oscillation(p)`` is the frequency of an undamped
    oscillation of the CF, which the fractional operators integrate
    with a Fourier rule (None: no such oscillation).
    """

    defaults: Mapping[str, float]
    strip: FundamentalStrip
    support: Callable[[Mapping[str, float]], tuple[float, float]]
    pdf: Callable
    cf: Callable
    moment: Callable
    sample: Callable
    integer_moment: Callable | None = None
    oscillation: Callable = lambda p: None


# ----------------------------------------------------------------------
# the per-family pieces too long for the catalog table
# ----------------------------------------------------------------------


def _rayleigh_pdf(p, x):
    # in units of sigma, so no power of sigma leaves double range; where
    # exp(-z^2/2) has underflowed the density is 0, and z/sigma is not
    # formed there, since its overflow would give inf*0 = NaN.  Below
    # sigma ~ 2e-307 z/sigma can overflow where the density is finite,
    # and there sigma divides the product with the tail instead
    z = x / p["sigma"]
    tail = np.exp(-0.5 * z * z)
    live = (z > 0.0) & (tail > 0.0)
    z = np.where(live, z, 0.0)
    ratio = z / p["sigma"]
    return np.where(live, np.where(np.isfinite(ratio), ratio * tail,
                                   z * tail / p["sigma"]), 0.0)


def _levy_pdf(p, x):
    # at x <= 1e-4, exp(-1/(2x)) has underflowed to the density's 0;
    # below x ~ 1e-216 x^1.5 would too, and 0/0 give NaN
    live = x > 1e-4
    safe = np.where(live, x, 1.0)
    return np.where(live, np.exp(-0.5 / safe) / (np.sqrt(2.0 * math.pi) * safe**1.5), 0.0)


def _uniform_cf(p, t):
    # np.sinc forms pi*x, whose overflow past |a t| ~ 1.8e308 gives
    # sin(inf) = NaN; the CF is below 1e-308 there, so 0
    x = p["a"] * t / math.pi
    far = np.isinf(math.pi * x)
    return np.where(far, 0.0, np.sinc(np.where(far, 0.0, x))).astype(complex)


def _gaussian_cf(p, t):
    # where mu t leaves double range the phase exp(i inf) is NaN: the CF
    # is 0 where its modulus has underflowed too, and NaN, silently, else
    with np.errstate(invalid="ignore"):
        out = np.exp(1j * p["mu"] * t - 0.5 * (p["sigma"] * t) ** 2)
    return np.where(np.isnan(out) & (np.exp(-0.5 * (p["sigma"] * t) ** 2) == 0.0), 0.0, out)


_RAYLEIGH_NEAR = 40.0


def _rayleigh_cf(p, t):
    # 1F1-type closed form written through the Faddeeva function:
    #   phi(t) = 1 - q Im w(q/sqrt(2))*sqrt(pi/2)... folded below.
    # Its real part cancels as q = sigma*t grows (relative error
    # ~eps q^2), so beyond |q| = 40 the asymptotic series takes
    # over; there the imaginary part has underflowed to 0 anyway.
    q = p["sigma"] * t
    near = np.abs(q) <= _RAYLEIGH_NEAR
    qn = np.where(near, q, 0.0)
    w = sp_special.wofz(qn / math.sqrt(2.0))
    amp = qn * math.sqrt(math.pi / 2.0)
    body = 1.0 - amp * np.imag(w) + 1j * amp * np.exp(-0.5 * qn * qn)
    return np.where(near, body, _rayleigh_cf_far(np.where(near, 1.0, q)))


def _rayleigh_cf_far(q: np.ndarray) -> np.ndarray:
    # Re phi ~ -sum_k (2k-1)!! / q^(2k); eight terms reach double
    # precision for |q| >= 40, and 1/q^2 -> 0 gives phi(+-inf) = 0
    r = 1.0 / (q * q)
    acc = np.ones_like(r)
    for k in range(7, 0, -1):
        acc = 1.0 + (2 * k + 1) * r * acc
    return (-r * acc).astype(complex)


def _phase(g: np.ndarray, sign: str) -> np.ndarray:
    # half-line phase (s i)^(-g), kept in the exponent
    return -g * signed_log(1.0, sign)


def _rayleigh_moment(p, g, sign):
    log_scale = -g * (math.log(p["sigma"]) + 0.5 * math.log(2.0))
    return np.exp(log_scale + sp_special.loggamma(1.0 - 0.5 * g) + _phase(g, sign))


def _levy_moment(p, g, sign):
    log_scale = g * math.log(2.0) - 0.5 * math.log(math.pi)
    return np.exp(log_scale + sp_special.loggamma(g + 0.5) + _phase(g, sign))


# Gaussian moments.  For Re g > 0 the paper's identity (a moment is the
# RL integral of the CF at zero) gives, with t = e^w, c = -i s mu/sig,
#   E[(s i X)^(-g)] = sig^(-g) / Gamma(g) * int_R exp(psi(w)) dw,
#   psi(w) = g w - e^(2w)/2 + c e^w,
# an entire integrand whose saddles are e^w = (c +- sqrt(c^2 + 4g))/2.
# A steepest-descent contour and a Taylor series in c take the nodes in
# turn (_GAUSSIAN_PATHS); each declines (NaN) a node whose own checks
# fail, and the 30-digit pcfd formula takes whatever is left.

_REACH = 6.5         # |tau| <= 6.5 on a path: exp(-tau^2) < 5e-19
_COARSE = 0.5        # the path is traced at this step in tau, then refined
_DECAY = -25.0       # the left end decays by the power term alone
_NEWTON_TOL = 1e-7   # last Newton correction on a path, relative to 1 + |v|
_AGREE = 1e-13       # trapezoid sums at h and 2h agree to this relative
_ROUNDING = 5e-13    # bound on the exponent's rounding, relative
_CANCEL = 30.0       # sum of |parts| at most this times |sum|
_SERIES_R_MAX = 4.0  # past |mu/sig| = 4 the series cancels too deeply
_LEFT = math.inf     # end class of a path that leaves through the power term
_BLOCK = 64          # nodes per pass: a path array at h = 0.025 holds 1 MB
# the sign of tau along each direction of a path, on the (direction) axis
_AHEAD = np.array([1.0, -1.0]).reshape(1, 1, 2, 1)
# trapezoid steps in tau, each tried on the nodes the coarser ones declined;
# the finer ones where a second saddle sits close to the path
_STEPS = (0.1, 0.05, 0.025)


def _expm1_pair(v):
    e1 = np.expm1(v)
    e1_plus_2 = e1 + 2.0
    return e1, e1 * e1_plus_2  # expm1(v), expm1(2v)


def _path_slope(saddle, v, tau):
    # v'(tau) = -2 tau / psi'(w* + v)
    g, half_u2, u2, cu, d0 = saddle
    e1, e2 = _expm1_pair(v)
    return -2.0 * tau / (d0 - u2 * e2 + cu * e1)


def _path_newton(saddle, v, tau, iterations=3):
    # solves psi(w* + v) - psi(w*) + tau^2 = 0 for v; also gives the last
    # correction, which is the square root of the error left
    g, half_u2, u2, cu, d0 = saddle
    for _ in range(iterations):
        e1, e2 = _expm1_pair(v)
        moved = (g * v - half_u2 * e2 + cu * e1 + tau * tau) / (d0 - u2 * e2 + cu * e1)
        v = v - moved
    return v, moved


def _contour(g: np.ndarray, c: complex, log_front: np.ndarray) -> np.ndarray:
    # Steepest-descent paths psi(w* + v(tau)) = psi(w*) - tau^2 through
    # both saddles w*; along one the integral is
    # exp(psi*) int exp(-tau^2) v'(tau) dtau, summed by the trapezoid rule.
    # Arrays are (node, saddle, direction, tau), so each node is reduced
    # over a row of its own.  Written in v,
    #   psi(w* + v) - psi(w*) = g v - (u*^2/2) expm1(2v) + c u* expm1(v)
    # keeps full relative precision near the saddle.  Complex products
    # take named operands: on large arrays NumPy computes x * (temporary)
    # in place as (temporary) * x, its complex product is not bitwise
    # commutative, and a node's bits would depend on its batch.
    n = g.size
    gn = g.reshape(n, 1, 1, 1)
    disc = np.sqrt(c * c + 4.0 * gn)
    q = 0.5 * (c + np.where((np.conj(c) * disc).real >= 0.0, disc, -disc))
    u = np.concatenate([q, -gn / q], axis=1)  # both roots, without cancellation
    w, u2, cu = np.log(u), u * u, c * u
    half_u2 = 0.5 * u2
    saddle = (gn, half_u2, u2, cu, gn - u2 + cu)  # the last is psi'(w*) ~ 0
    psi = (gn * w - half_u2 + cu)[..., 0, 0]
    slope0 = np.sqrt(-2.0 / (cu - 2.0 * u2))
    slope0 = np.where(slope0.real < 0.0, -slope0, slope0)  # left to right

    # coarse trace: Heun predictor, Newton corrector
    v = np.zeros((n, 2, 2, 1), dtype=complex)
    dv = np.repeat(slope0, 2, axis=2)
    vs, dvs = [v], [dv]
    for j in range(1, round(_REACH / _COARSE) + 1):
        tau = _AHEAD * (_COARSE * j)
        guess = v + (_AHEAD * _COARSE) * dv
        mean = dv + _path_slope(saddle, guess, tau)
        v, _ = _path_newton(saddle, v + (_AHEAD * 0.5 * _COARSE) * mean, tau)
        dv = _path_slope(saddle, v, tau)
        vs.append(v)
        dvs.append(dv)

    # where each path leaves, per (node, saddle): by the power term (the
    # left end), into the valley |Im w - m pi| < pi/4 (class m), or
    # neither (NaN)
    w = w[..., 0, 0]

    def leaves(end):
        m = np.round(end.imag / math.pi)
        valley = np.where(np.abs(end.imag - m * math.pi) < math.pi / 4, m, np.nan)
        return np.where((g[:, None] * end).real - psi.real < _DECAY, _LEFT, valley)

    start, end = leaves(w + v[..., 1, 0]), leaves(w + v[..., 0, 0])
    # orient each path to run from the left end, or else into valley 0
    flip = (end == _LEFT) | ((start == 0) & np.isfinite(end) & (end != 0))
    start, end = np.where(flip, end, start), np.where(flip, start, end)
    # one path from the left end into valley 0, or two: the left end into
    # valley m, then valley m' into valley 0, the first path moved by
    # 2 pi i (m' - m)/2 (psi gains 2 pi i g per turn)
    use = (start == _LEFT) & (end == 0)
    use[:, 1] &= ~use[:, 0]
    turns = np.zeros(psi.shape)
    for a, b in ((0, 1), (1, 0)):
        chain = (~use.any(axis=1)
                 & (start[:, a] == _LEFT) & np.isfinite(end[:, a]) & (end[:, a] != 0)
                 & np.isfinite(start[:, b]) & (start[:, b] != 0) & (end[:, b] == 0)
                 & ((start[:, b] - end[:, a]) % 2 == 0))
        use[:, a] |= chain
        use[:, b] |= chain
        turns[:, a] = np.where(chain, (start[:, b] - end[:, a]) / 2, turns[:, a])

    # the path and the exponent's rounding do not depend on the step h:
    # a node without a usable path, or rounded past 5e-13, declines here
    gturns = 2j * math.pi * turns * g[:, None]
    exponent = np.where(use, psi + gturns + log_front[:, None], -np.inf)
    front = np.where(flip, -1.0, 1.0) * np.exp(exponent)
    rounding = np.finfo(float).eps * np.where(use, np.abs(psi) + np.abs(log_front[:, None]), 0.0)
    keep = np.flatnonzero(use.any(axis=1) & (rounding.max(axis=1) <= _ROUNDING))
    path = tuple(np.concatenate(xs, axis=3)[..., None] for xs in (vs, dvs))
    out = np.full(n, np.nan, dtype=complex)
    for step in _STEPS:
        if not keep.size:
            break
        sums, converged = _refine(tuple(x[keep] for x in saddle),
                                  *(x[keep] for x in path), slope0[keep, :, 0, 0], step)
        parts = front[keep] * np.where(use[keep], sums, 0.0)
        value, coarse = parts[0, :, 0] + parts[0, :, 1], parts[1, :, 0] + parts[1, :, 1]
        ok = (~(use[keep] & ~converged).any(axis=1) & np.isfinite(value)
              & (np.abs(value - coarse) <= _AGREE * np.abs(value))
              & (np.abs(parts[0, :, 0]) + np.abs(parts[0, :, 1]) <= _CANCEL * np.abs(value)))
        out[keep[ok]] = value[ok]
        keep = keep[~ok]
    return out


def _refine(saddle, v, dv, slope0, step: float):
    # every node of a traced path at step h: a Hermite guess inside its
    # coarse interval, then Newton; gives the trapezoid sums at h and 2h
    # and whether each path's Newton steps converged
    k = slope0.shape[0]
    t = np.arange(1, round(_COARSE / step) + 1) / round(_COARSE / step)
    dtau = _AHEAD[..., None] * _COARSE
    guess = ((1 + 2 * t) * (1 - t) ** 2 * v[..., :-1, :] + t * (1 - t) ** 2 * dtau * dv[..., :-1, :]
             + t * t * (3 - 2 * t) * v[..., 1:, :] + t * t * (t - 1) * dtau * dv[..., 1:, :])
    steps = round(_REACH / step)
    tau = _AHEAD * step * np.arange(1, steps + 1)
    v, moved = _path_newton(saddle, guess.reshape(k, 2, 2, steps), tau)
    converged = (np.abs(moved) <= _NEWTON_TOL * (1.0 + np.abs(v))).all(axis=(2, 3))
    dv = _path_slope(saddle, v, tau)
    weighted = np.exp(-tau * tau) * dv
    sums = np.empty((2, k, 2), dtype=complex)  # at h and at 2h
    sums[0] = step * (slope0 + weighted.reshape(k, 2, 2 * steps).sum(axis=-1))
    sums[1] = 2.0 * step * (slope0 + weighted[..., 1::2].reshape(k, 2, steps // 2 * 2).sum(axis=-1))
    return sums, converged


def _series(g: np.ndarray, c: complex, log_front: np.ndarray) -> np.ndarray:
    # int_0^inf t^(g-1) e^(-t^2/2 + c t) dt
    #   = sum_n c^n/n! 2^((g+n)/2 - 1) Gamma((g+n)/2),
    # at a length fixed by |c| alone, and only where it can pass the
    # cancellation test: its terms peak near e^(|c|^2/2) times the sum
    r = abs(c)
    if r > _SERIES_R_MAX:
        return np.full(g.shape, np.nan, dtype=complex)
    n = np.arange(40 + math.ceil(4.0 * r * r))
    half = (g[:, None] + n) / 2.0  # one row per node
    scale = c**n / sp_special.factorial(n)
    growth = np.exp((half - 1.0) * math.log(2.0) + sp_special.loggamma(half)
                    + log_front[:, None])
    terms = scale * growth  # named operands, as in _contour
    value = terms.sum(axis=1)
    ok = (np.isfinite(value)
          & (np.abs(terms).sum(axis=1) <= _CANCEL * np.abs(value))
          & (np.abs(terms[:, -1]) <= np.finfo(float).eps * np.abs(value)))
    return np.where(ok, value, np.nan)


# the double-precision paths, each tried on the nodes the earlier ones
# declined: the series near the real axis (exact in one term at mu = 0),
# then the contour
_GAUSSIAN_PATHS = (("series", _series), ("contour", _contour))


def _gaussian_moment(p, g: np.ndarray, sign: str) -> np.ndarray:
    mu, sig = p["mu"], p["sigma"]
    c = complex(0.0, -sign_value(sign) * mu / sig)
    flat = g.ravel()
    out = np.full(flat.shape, np.nan, dtype=complex)
    counts = {"series": 0, "contour": 0}
    todo = np.flatnonzero(flat.real > 0.0)
    # sig^(-g) / Gamma(g), kept in the exponent with psi*
    front = -flat[todo] * math.log(sig) - sp_special.loggamma(flat[todo])
    with np.errstate(all="ignore"):
        for name, path in _GAUSSIAN_PATHS:
            if not todo.size:
                break
            value = np.concatenate([
                path(flat[todo[i:i + _BLOCK]], c, front[i:i + _BLOCK])
                for i in range(0, todo.size, _BLOCK)])
            done = ~np.isnan(value)
            out[todo[done]] = value[done]
            counts[name] += int(done.sum())
            todo, front = todo[~done], front[~done]
    rest = np.flatnonzero(np.isnan(out))
    out[rest], pairs = _gaussian_pcfd(p, flat[rest], sign)
    log.debug("gaussian closed form: %d nodes, %d contour, %d series, "
              "%d mpmath in %d pcfd pairs", flat.size, counts["contour"],
              counts["series"], rest.size, pairs)
    return out.reshape(g.shape)


def _gaussian_pcfd(p, g: np.ndarray, sign: str) -> tuple[np.ndarray, int]:
    # halves of the real line give parabolic cylinder functions, each
    # with its half-line phase t^(+-1); the whole product is formed at
    # 30 digits, where no factor leaves range, and rounded once per
    # node.  D_{g-1}(-+r) and Gamma(1 - g) are evaluated at Im g >= 0
    # only; below the axis they are the exact mpmath conjugates.  mpmath
    # is imported here, so a call that declines no node does not load it
    import mpmath

    s, mu, sig = sign_value(sign), p["mu"], p["sigma"]
    out = np.empty(g.shape, dtype=complex)
    shared: dict[complex, tuple] = {}
    with mpmath.workdps(30):
        r = mpmath.mpf(mu) / sig
        scale = mpmath.exp(-r * r / 4)
        root = mpmath.sqrt(2 * mpmath.pi)
        for i, gamma in np.ndenumerate(g):
            upper = complex(gamma.real, abs(gamma.imag))
            if upper not in shared:
                u = mpmath.mpc(upper)
                shared[upper] = (
                    mpmath.pcfd(u - 1, -r), mpmath.pcfd(u - 1, r), mpmath.gamma(1 - u)
                )
            factors = shared[upper]
            if gamma.imag < 0.0:
                factors = [mpmath.conj(v) for v in factors]
            d_minus, d_plus, gamma_factor = factors
            gm = mpmath.mpc(gamma)
            # (s i)^(-g) at 30 digits: the branch of special.signed_log
            t = mpmath.exp(-s * 1j * gm * mpmath.pi / 2)
            halves = t * d_minus + d_plus / t
            front = mpmath.power(sig, -gm) * gamma_factor * scale
            out[i] = complex(front * halves / root)
    return out, len(shared)


def _gaussian_integer_moment(p, j: int) -> float:
    mu, sig = p["mu"], p["sigma"]
    if j == 0:
        return 1.0
    m_prev, m_cur = 1.0, mu  # E[X^0], E[X^1]
    for n in range(2, j + 1):
        m_prev, m_cur = m_cur, mu * m_cur + (n - 1) * sig * sig * m_prev
    return m_cur


# ----------------------------------------------------------------------
# the catalog
# ----------------------------------------------------------------------

# Defaults match the figures: uniform half-width 2, Rayleigh scale 2,
# Gaussian mean 2 / unit standard deviation.
_CATALOG: dict[str, Family] = {
    "uniform": Family(
        defaults={"a": 2.0},
        strip=FundamentalStrip(-math.inf, 1.0),
        support=lambda p: (-p["a"], p["a"]),
        pdf=lambda p, x: np.where(np.abs(x) <= p["a"], 1.0 / (2.0 * p["a"]), 0.0),
        cf=_uniform_cf,
        moment=lambda p, g, sign: (np.exp(-g * math.log(p["a"]))
                                   * np.cos(g * math.pi / 2.0) / (1.0 - g)),
        sample=lambda p, rng, n: rng.uniform(-p["a"], p["a"], size=n),
        integer_moment=lambda p, j: 0.0 if j % 2 else p["a"] ** j / (j + 1),
        # the sinc's undamped sin(a t) / t
        oscillation=lambda p: p["a"],
    ),
    "rayleigh": Family(
        defaults={"sigma": 2.0},
        strip=FundamentalStrip(-math.inf, 2.0),
        support=lambda p: (0.0, math.inf),
        pdf=_rayleigh_pdf,
        cf=_rayleigh_cf,
        moment=_rayleigh_moment,
        sample=lambda p, rng, n: rng.rayleigh(p["sigma"], size=n),
        integer_moment=lambda p, j: (p["sigma"] ** j * 2.0 ** (j / 2.0)
                                     * math.gamma(1.0 + j / 2.0)),
    ),
    "cauchy": Family(
        defaults={},
        strip=FundamentalStrip(-1.0, 1.0),
        support=lambda p: (-math.inf, math.inf),
        pdf=lambda p, x: 1.0 / (math.pi * (1.0 + x * x)),
        cf=lambda p, t: np.exp(-np.abs(t)).astype(complex),
        moment=lambda p, g, sign: np.ones(g.shape, dtype=complex),
        sample=lambda p, rng, n: rng.standard_cauchy(size=n),
    ),
    "levy": Family(
        defaults={},
        strip=FundamentalStrip(-0.5, math.inf),
        support=lambda p: (0.0, math.inf),
        pdf=_levy_pdf,
        cf=lambda p, t: np.exp(-np.sqrt(np.abs(t)) * (1.0 - 1j * np.sign(t))),
        moment=_levy_moment,
        sample=lambda p, rng, n: 1.0 / np.square(rng.standard_normal(size=n)),
    ),
    "gaussian": Family(
        defaults={"mu": 2.0, "sigma": 1.0},
        strip=FundamentalStrip(-math.inf, 1.0),
        support=lambda p: (-math.inf, math.inf),
        pdf=lambda p, x: (np.exp(-0.5 * ((x - p["mu"]) / p["sigma"]) ** 2)
                          / (p["sigma"] * math.sqrt(2.0 * math.pi))),
        cf=_gaussian_cf,
        moment=_gaussian_moment,
        sample=lambda p, rng, n: rng.normal(p["mu"], p["sigma"], size=n),
        integer_moment=_gaussian_integer_moment,
    ),
}

FAMILIES: tuple[str, ...] = tuple(_CATALOG)


# ----------------------------------------------------------------------
# spec type
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable description of one catalog distribution.

    ``params`` is normalized on construction: missing keys get the
    catalog defaults, and scale parameters must be positive.  Anything
    but a mapping of known names to finite real numbers raises
    :class:`ArgumentError`.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArgumentError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if not isinstance(self.params, Mapping):
            raise ArgumentError(f"params must be a mapping, got {self.params!r}")
        unknown = set(self.params) - set(self.record.defaults)
        if unknown:
            raise ArgumentError(
                f"unknown parameter(s) for {self.family}: {sorted(unknown)}"
            )
        merged = dict(self.record.defaults)
        for key, value in self.params.items():
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and math.isfinite(value)):
                raise ArgumentError(f"{self.family}: {key} must be a finite real "
                                    f"number, got {value!r}")
            merged[key] = float(value)
        for key in ("a", "sigma"):
            if key in merged and not merged[key] > 0.0:
                raise ArgumentError(f"{self.family}: {key} must be > 0")
        object.__setattr__(self, "params", merged)

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items()))))

    @property
    def record(self) -> Family:
        """The catalog record of this spec's family."""
        return _CATALOG[self.family]

    @property
    def moment_strip(self) -> FundamentalStrip:
        """Open strip of Re(gamma) where E[(s i X)^(-gamma)] converges."""
        return self.record.strip

    @property
    def support(self) -> tuple[float, float]:
        return self.record.support(self.params)

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner})"


def make_spec(family: str, **params: float) -> DistributionSpec:
    """Convenience constructor: ``make_spec("rayleigh", sigma=2)``."""
    return DistributionSpec(family, params)


def spec_from_config(obj: object) -> DistributionSpec:
    """Build a spec from a parsed JSON config ``{"family": ..., "params": {...}}``."""
    if not isinstance(obj, dict):
        raise ArgumentError("distribution config must be a JSON object")
    extra = set(obj) - {"family", "params"}
    if extra:
        raise ArgumentError(f"unknown config key(s): {sorted(extra)}")
    if "family" not in obj:
        raise ArgumentError("distribution config missing 'family'")
    return DistributionSpec(str(obj["family"]), obj.get("params", {}))


# ----------------------------------------------------------------------
# exact density and characteristic function
# ----------------------------------------------------------------------


def exact_pdf(spec: DistributionSpec, x):
    """Density at ``x`` (scalar or array); zero outside the support."""
    xv = np.asarray(x, dtype=float)
    # a square or a power that overflows is a tail, where the formulas
    # then give the value's underflow to 0
    with np.errstate(over="ignore"):
        return scalar_or_array(spec.record.pdf(spec.params, xv))


def exact_cf(spec: DistributionSpec, theta):
    """Characteristic function at ``theta`` (scalar or array); 0 at
    +-inf, as for every distribution with a density."""
    tv = np.asarray(theta, dtype=float)
    # the formulas see finite points only: at +-inf, 1j * mu * t would
    # form the gaussian's 0 * inf = NaN
    far = np.isinf(tv)
    with np.errstate(over="ignore"):
        return scalar_or_array(
            np.where(far, 0.0, spec.record.cf(spec.params, np.where(far, 0.0, tv))))


# ----------------------------------------------------------------------
# closed-form complex moments
# ----------------------------------------------------------------------


def closed_form_moment(spec: DistributionSpec, gamma, sign: str):
    """Exact value of E[(s i X)^(-gamma)], s = +1 ("plus") or -1 ("minus").

    ``gamma`` may be a scalar (gives a complex) or an array of orders
    (gives an array of the same shape); a scalar is evaluated as a
    one-element array, so an array call equals the per-element scalar
    calls exactly.  Raises :class:`StripError`, naming the first
    offending real part, when any order leaves the family's
    convergence strip.  All poles of the gamma factors lie outside the
    strips, so no separate pole handling is needed here.  Each moment
    is evaluated whole, so it is non-finite only where the moment
    itself leaves double range: past |Im gamma| of about 452 for the
    uniform family, about 901 for Rayleigh (sigma = 2), never on a
    fixed line for Levy.  The first non-finite order in array order
    raises :class:`DomainError` naming it.
    """
    sign_value(sign)  # validates before the strip check
    g = as_orders(gamma)
    spec.moment_strip.require(g.real, "Re(gamma)", "moment", spec.label())
    with np.errstate(over="ignore", invalid="ignore"):
        value = spec.record.moment(spec.params, g, sign)
    bad = ~np.isfinite(value)
    if bad.any():
        raise DomainError(
            f"closed-form evaluation of the {spec.label()} moment "
            f"overflows double precision at gamma = {complex(g[bad][0])}"
        )
    return like_orders(gamma, value)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


# Largest sample size.  Nothing sample-length is held while the Monte
# Carlo estimator draws, so its memory does not grow with n; only
# :func:`sample` returns an array of n doubles (80 MB at the cap).
_N_CAP = 10_000_000

# draws per block: :func:`sample_blocks` draws one block at a time, and
# the Monte Carlo estimator in :mod:`fracmom.moments` estimates one
# block at a time, so a block's branch, powers and centred copy stay in
# cache
SAMPLE_BLOCK = 1 << 13


def sample_blocks(spec: DistributionSpec, n: int,
                  seed: int | None = None) -> Callable[[int], np.ndarray]:
    """The ``n`` draws of :func:`sample` as a block source: ``take(b)``
    gives draws ``b * SAMPLE_BLOCK`` to ``(b + 1) * SAMPLE_BLOCK - 1``
    (fewer in the last block) of one ``np.random.default_rng(seed)``.

    The blocks must be taken in increasing order; a block that is
    skipped is drawn and dropped, so every block holds the same draws
    whichever blocks were taken before it.  A forked process inherits
    the generator where its parent left it.  ``n`` and ``seed`` are
    checked here, before anything is drawn.
    """
    if n < 1:
        raise ArgumentError("sample size must be >= 1")
    if n > _N_CAP:
        raise ArgumentError(f"sample size must be <= {_N_CAP}, got {n}")
    if seed is not None and seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    drawn = 0  # blocks drawn so far

    def take(b: int) -> np.ndarray:
        nonlocal drawn
        while True:
            size = min(SAMPLE_BLOCK, n - drawn * SAMPLE_BLOCK)
            block = spec.record.sample(spec.params, rng, size)
            drawn += 1
            if drawn > b:
                return block

    return take


def sample(spec: DistributionSpec, n: int, seed: int | None = None) -> np.ndarray:
    """Draw ``n`` i.i.d. variates, 1 <= n <= 10^7; deterministic for a
    fixed seed.  The draws are the blocks of :func:`sample_blocks` in
    order, so the Monte Carlo grid of a seed is the estimate on this
    array."""
    take = sample_blocks(spec, n, seed)
    out = np.empty(n)
    for b in range(-(-n // SAMPLE_BLOCK)):
        out[b * SAMPLE_BLOCK : (b + 1) * SAMPLE_BLOCK] = take(b)
    return out
