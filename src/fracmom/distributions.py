"""Distribution catalog: densities, characteristic functions, exact
complex-order moments, and sampling.

Five families are supported: symmetric uniform on (-a, a), Rayleigh,
standard Cauchy, standard Levy (one-sided stable 1/2), and Gaussian.
Each is one :class:`Family` record in the catalog, which holds
everything the package knows about it: parameter defaults, moment
strip, support and symmetry test; an exact density, an exact CF, a
closed-form value of E[(s i X)^(-gamma)] for s = +/-1, and a seeded
sampler; and the facts other modules need beyond these (the integer
moments of the Taylor baseline, the CF's oscillation frequency, and a
reconstruction strip that differs from the default).  Adding a family
means adding one record.  The record's pdf, cf, moment and sampler are
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
* gaussian:      split at the origin; each half is a parabolic cylinder
                 function D_{g-1}(±mu/sig) with the half-line phase
                 (s i)^(∓g) attached

The gamma factors decay and the phases grow like exp(pi |Im g| / 2),
so the Rayleigh and Levy moments are formed as one exponential of
their logarithm, and the Gaussian one as a single 30-digit mpmath
expression; each stays finite for as long as the moment itself fits
in a double.  The phases are exponentials of g times
Log(s i) = s i pi/2, the branch of :func:`fracmom.special.signed_log`;
the Gaussian's 30-digit phase t = (s i)^(-g) is the same branch, written
in mpmath.  Only the uniform cosine is evaluated as it stands: it
leaves double range near |Im g| = 452, within about 1% of where the
moment does.

The Gaussian's parabolic cylinder and gamma factors are evaluated once
per conjugate pair of orders: for real mu/sig, mpmath's values at
conj g are the exact conjugates of those at g, so a grid
rho + i k delta, k = -m..m, costs m + 1 factor evaluations, not 2m + 1,
and every moment is bit-identical to its unshared value.

All five were validated against adaptive quadrature of the defining
integral before being frozen here (the uniform and Rayleigh ones also
against high-precision arbitrary-precision integration).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping

import mpmath
import numpy as np
from scipy import special as sp_special

from .errors import ArgumentError, DomainError, StripError
from .special import sign_value, signed_log

# ----------------------------------------------------------------------
# strip and family record types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalStrip:
    """Open interval of admissible real parts, endpoints possibly infinite."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return not self.lo < self.hi

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
    with a Fourier rule (None: no such oscillation).  ``working_strip``,
    when set, replaces the moment strip intersected with (0, 1) as the
    reconstruction strip.
    """

    defaults: Mapping[str, float]
    strip: FundamentalStrip
    support: Callable[[Mapping[str, float]], tuple[float, float]]
    pdf: Callable
    cf: Callable
    moment: Callable
    sample: Callable
    symmetric: Callable[[Mapping[str, float]], bool] = lambda p: False
    integer_moment: Callable | None = None
    oscillation: Callable = lambda p: None
    working_strip: FundamentalStrip | None = None


# ----------------------------------------------------------------------
# the per-family pieces too long for the catalog table
# ----------------------------------------------------------------------


def _rayleigh_pdf(p, x):
    sig2 = p["sigma"] ** 2
    safe = np.where(x > 0.0, x, 0.0)
    return np.where(x > 0.0, safe / sig2 * np.exp(-safe * safe / (2.0 * sig2)), 0.0)


def _levy_pdf(p, x):
    safe = np.where(x > 0.0, x, 1.0)
    with np.errstate(over="ignore"):
        body = np.exp(-0.5 / safe) / (np.sqrt(2.0 * math.pi) * safe**1.5)
    return np.where(x > 0.0, body, 0.0)


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


def _gaussian_moment(p, g: np.ndarray, sign: str) -> np.ndarray:
    # halves of the real line give parabolic cylinder functions, each
    # with its half-line phase t^(+-1); the whole product is formed at
    # 30 digits, where no factor leaves range, and rounded once per
    # node.  D_{g-1}(-+r) and Gamma(1 - g) are evaluated at Im g >= 0
    # only; below the axis they are the exact mpmath conjugates
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
    return out


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
        cf=lambda p, t: np.sinc(p["a"] * t / math.pi).astype(complex),
        moment=lambda p, g, sign: (np.exp(-g * math.log(p["a"]))
                                   * np.cos(g * math.pi / 2.0) / (1.0 - g)),
        sample=lambda p, rng, n: rng.uniform(-p["a"], p["a"], size=n),
        symmetric=lambda p: True,
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
        symmetric=lambda p: True,
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
        cf=lambda p, t: np.exp(1j * p["mu"] * t - 0.5 * (p["sigma"] * t) ** 2),
        moment=_gaussian_moment,
        sample=lambda p, rng, n: rng.normal(p["mu"], p["sigma"], size=n),
        symmetric=lambda p: p["mu"] == 0.0,
        integer_moment=_gaussian_integer_moment,
        # the rapidly decaying CF continues analytically past Re g = 1
        working_strip=FundamentalStrip(0.0, math.inf),
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

    @property
    def symmetric(self) -> bool:
        return self.record.symmetric(self.params)

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
    out = spec.record.pdf(spec.params, xv)
    return float(out) if xv.ndim == 0 else out


def exact_cf(spec: DistributionSpec, theta):
    """Characteristic function at ``theta`` (scalar or array)."""
    tv = np.asarray(theta, dtype=float)
    out = spec.record.cf(spec.params, tv)
    return complex(out) if tv.ndim == 0 else out


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
    g = np.atleast_1d(np.asarray(gamma, dtype=complex))
    spec.moment_strip.require(g.real, "Re(gamma)", "moment", spec.label())
    with np.errstate(over="ignore", invalid="ignore"):
        value = spec.record.moment(spec.params, g, sign)
    bad = ~np.isfinite(value)
    if bad.any():
        raise DomainError(
            f"closed-form evaluation of the {spec.label()} moment "
            f"overflows double precision at gamma = {complex(g[bad][0])}"
        )
    return complex(value[0]) if np.ndim(gamma) == 0 else value


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


# Largest sample size: the Monte Carlo node ladder holds about 40 bytes
# per sample, so 0.4 GB at the cap.
_N_CAP = 10_000_000


def sample(spec: DistributionSpec, n: int, seed: int | None = None) -> np.ndarray:
    """Draw ``n`` i.i.d. variates, 1 <= n <= 10^7; deterministic for a
    fixed seed."""
    if n < 1:
        raise ArgumentError("sample size must be >= 1")
    if n > _N_CAP:
        raise ArgumentError(f"sample size must be <= {_N_CAP}, got {n}")
    if seed is not None and seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    return spec.record.sample(spec.params, np.random.default_rng(seed), n)
