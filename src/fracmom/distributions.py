"""Distribution catalog: densities, characteristic functions, exact
complex-order moments, and sampling.

Five families are supported: symmetric uniform on (-a, a), Rayleigh,
standard Cauchy, standard Levy (one-sided stable 1/2), and Gaussian.
Each exposes the same small surface — an exact density, an exact CF,
a closed-form value of E[(s i X)^(-gamma)] for s = +/-1, and a seeded
sampler — so the three moment estimators in :mod:`fracmom.moments` can
be cross-checked against each other on every family.

The moment formulas in closed form:

* uniform(a):    a^(-g) cos(g pi/2) / (1 - g), either sign
* rayleigh(sig): sig^(-g) 2^(-g/2) Gamma(1 - g/2) exp(-s i g pi/2)
* cauchy:        1 (both signs, -1 < Re g < 1)
* levy:          2^g Gamma(g + 1/2) / sqrt(pi) * exp(-s i g pi/2)
* gaussian:      split at the origin; each half is a parabolic cylinder
                 function D_{g-1}(±mu/sig) with the half-line phase
                 exp(∓ s i g pi/2) attached

All five were validated against adaptive quadrature of the defining
integral before being frozen here (the uniform and Rayleigh ones also
against high-precision arbitrary-precision integration).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping

import mpmath
import numpy as np
from scipy import special as sp_special

from .errors import ArgumentError, StripError
from .special import complex_gamma, sign_value

FAMILIES: tuple[str, ...] = ("uniform", "rayleigh", "cauchy", "levy", "gaussian")

_PARAM_KEYS: dict[str, tuple[str, ...]] = {
    "uniform": ("a",),
    "rayleigh": ("sigma",),
    "cauchy": (),
    "levy": (),
    "gaussian": ("mu", "sigma"),
}

# Figure-matching defaults: uniform half-width 2, Rayleigh scale 2,
# Gaussian mean 2 / unit standard deviation.
_DEFAULTS: dict[str, dict[str, float]] = {
    "uniform": {"a": 2.0},
    "rayleigh": {"sigma": 2.0},
    "cauchy": {},
    "levy": {},
    "gaussian": {"mu": 2.0, "sigma": 1.0},
}


# ----------------------------------------------------------------------
# strip and spec types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalStrip:
    """Open interval of admissible real parts, endpoints possibly infinite."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return not self.lo < self.hi

    def __contains__(self, rho: float) -> bool:
        return self.lo < float(rho) < self.hi

    def intersect(self, other: "FundamentalStrip") -> "FundamentalStrip":
        return FundamentalStrip(max(self.lo, other.lo), min(self.hi, other.hi))

    def __str__(self) -> str:
        def fmt(v: float) -> str:
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            if v == int(v):
                return str(int(v))
            return repr(v)

        return f"({fmt(self.lo)}, {fmt(self.hi)})"


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable description of one catalog distribution.

    ``params`` is normalized on construction: missing keys get the
    catalog defaults, unknown keys raise :class:`ArgumentError`, and
    scale parameters must be positive.
    """

    family: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ArgumentError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        allowed = _PARAM_KEYS[self.family]
        unknown = set(self.params) - set(allowed)
        if unknown:
            raise ArgumentError(
                f"unknown parameter(s) for {self.family}: {sorted(unknown)}"
            )
        merged = dict(_DEFAULTS[self.family])
        for key, value in self.params.items():
            merged[key] = float(value)
        for key in ("a", "sigma"):
            if key in merged and not merged[key] > 0.0:
                raise ArgumentError(f"{self.family}: {key} must be > 0")
        object.__setattr__(self, "params", merged)

    def __hash__(self):
        return hash((self.family, tuple(sorted(self.params.items()))))

    @property
    def moment_strip(self) -> FundamentalStrip:
        """Open strip of Re(gamma) where E[(s i X)^(-gamma)] converges."""
        inf = math.inf
        return {
            "uniform": FundamentalStrip(-inf, 1.0),
            "rayleigh": FundamentalStrip(-inf, 2.0),
            "cauchy": FundamentalStrip(-1.0, 1.0),
            "levy": FundamentalStrip(-0.5, inf),
            "gaussian": FundamentalStrip(-inf, 1.0),
        }[self.family]

    @property
    def support(self) -> tuple[float, float]:
        a = self.params.get("a", 0.0)
        return {
            "uniform": (-a, a),
            "rayleigh": (0.0, math.inf),
            "cauchy": (-math.inf, math.inf),
            "levy": (0.0, math.inf),
            "gaussian": (-math.inf, math.inf),
        }[self.family]

    @property
    def symmetric(self) -> bool:
        if self.family in ("uniform", "cauchy"):
            return True
        if self.family == "gaussian":
            return self.params["mu"] == 0.0
        return False

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
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ArgumentError("'params' must be an object")
    return DistributionSpec(str(obj["family"]), params)


# ----------------------------------------------------------------------
# exact density and characteristic function
# ----------------------------------------------------------------------


def exact_pdf(spec: DistributionSpec, x):
    """Density at ``x`` (scalar or array); zero outside the support."""
    xv = np.asarray(x, dtype=float)
    p = spec.params
    if spec.family == "uniform":
        a = p["a"]
        out = np.where(np.abs(xv) <= a, 1.0 / (2.0 * a), 0.0)
    elif spec.family == "rayleigh":
        sig2 = p["sigma"] ** 2
        safe = np.where(xv > 0.0, xv, 0.0)
        out = np.where(
            xv > 0.0, safe / sig2 * np.exp(-safe * safe / (2.0 * sig2)), 0.0
        )
    elif spec.family == "cauchy":
        out = 1.0 / (math.pi * (1.0 + xv * xv))
    elif spec.family == "levy":
        safe = np.where(xv > 0.0, xv, 1.0)
        with np.errstate(over="ignore"):
            body = np.exp(-0.5 / safe) / (np.sqrt(2.0 * math.pi) * safe**1.5)
        out = np.where(xv > 0.0, body, 0.0)
    else:  # gaussian
        mu, sig = p["mu"], p["sigma"]
        out = np.exp(-0.5 * ((xv - mu) / sig) ** 2) / (
            sig * math.sqrt(2.0 * math.pi)
        )
    if xv.ndim == 0:
        return float(out)
    return out


def exact_cf(spec: DistributionSpec, theta):
    """Characteristic function at ``theta`` (scalar or array)."""
    tv = np.asarray(theta, dtype=float)
    p = spec.params
    if spec.family == "uniform":
        out = np.sinc(p["a"] * tv / math.pi).astype(complex)
    elif spec.family == "rayleigh":
        # 1F1-type closed form written through the Faddeeva function:
        #   phi(t) = 1 - q Im w(q/sqrt(2))*sqrt(pi/2)... folded below.
        # Its real part cancels as q = sigma*t grows (relative error
        # ~eps q^2), so beyond |q| = 40 the asymptotic series takes
        # over; there the imaginary part has underflowed to 0 anyway.
        q = p["sigma"] * tv
        near = np.abs(q) <= _RAYLEIGH_NEAR
        qn = np.where(near, q, 0.0)
        w = sp_special.wofz(qn / math.sqrt(2.0))
        amp = qn * math.sqrt(math.pi / 2.0)
        body = 1.0 - amp * np.imag(w) + 1j * amp * np.exp(-0.5 * qn * qn)
        out = np.where(near, body, _rayleigh_cf_far(np.where(near, 1.0, q)))
    elif spec.family == "cauchy":
        out = np.exp(-np.abs(tv)).astype(complex)
    elif spec.family == "levy":
        root = np.sqrt(np.abs(tv))
        out = np.exp(-root * (1.0 - 1j * np.sign(tv)))
    else:  # gaussian
        mu, sig = p["mu"], p["sigma"]
        out = np.exp(1j * mu * tv - 0.5 * (sig * tv) ** 2)
    if tv.ndim == 0:
        return complex(out)
    return out


_RAYLEIGH_NEAR = 40.0


def _rayleigh_cf_far(q: np.ndarray) -> np.ndarray:
    # Re phi ~ -sum_k (2k-1)!! / q^(2k); eight terms reach double
    # precision for |q| >= 40, and 1/q^2 -> 0 gives phi(+-inf) = 0
    r = 1.0 / (q * q)
    acc = np.ones_like(r)
    for k in range(7, 0, -1):
        acc = 1.0 + (2 * k + 1) * r * acc
    return (-r * acc).astype(complex)


# ----------------------------------------------------------------------
# closed-form complex moments
# ----------------------------------------------------------------------


def _require_in_strip(spec: DistributionSpec, gamma: complex) -> None:
    if complex(gamma).real not in spec.moment_strip:
        raise StripError(
            f"Re(gamma) = {complex(gamma).real} outside moment strip "
            f"{spec.moment_strip} of {spec.label()}"
        )


def _pcf_d(order: complex, z: float) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.pcfd(mpmath.mpc(order), mpmath.mpf(z)))


def closed_form_moment(spec: DistributionSpec, gamma: complex, sign: str) -> complex:
    """Exact value of E[(s i X)^(-gamma)], s = +1 ("plus") or -1 ("minus").

    Raises :class:`StripError` when Re(gamma) leaves the family's
    convergence strip.  All poles of the gamma factors lie outside the
    strips, so no separate pole handling is needed here.
    """
    gamma = complex(gamma)
    s = sign_value(sign)
    _require_in_strip(spec, gamma)
    p = spec.params

    if spec.family == "uniform":
        a = p["a"]
        return (
            cmath.exp(-gamma * math.log(a))
            * cmath.cos(gamma * math.pi / 2.0)
            / (1.0 - gamma)
        )
    if spec.family == "rayleigh":
        sig = p["sigma"]
        plain = (
            cmath.exp(-gamma * (math.log(sig) + 0.5 * math.log(2.0)))
            * complex_gamma(1.0 - 0.5 * gamma)
        )
        return plain * cmath.exp(-s * 1j * gamma * math.pi / 2.0)
    if spec.family == "cauchy":
        return 1.0 + 0.0j
    if spec.family == "levy":
        plain = (
            cmath.exp(gamma * math.log(2.0))
            * complex_gamma(gamma + 0.5)
            / math.sqrt(math.pi)
        )
        return plain * cmath.exp(-s * 1j * gamma * math.pi / 2.0)

    # gaussian: halves of the real line give parabolic cylinder functions
    mu, sig = p["mu"], p["sigma"]
    ratio = mu / sig
    front = (
        cmath.exp(-gamma * math.log(sig))
        * complex_gamma(1.0 - gamma)
        * math.exp(-0.25 * ratio * ratio)
        / math.sqrt(2.0 * math.pi)
    )
    pos_half = cmath.exp(-s * 1j * gamma * math.pi / 2.0) * _pcf_d(gamma - 1.0, -ratio)
    neg_half = cmath.exp(+s * 1j * gamma * math.pi / 2.0) * _pcf_d(gamma - 1.0, +ratio)
    return front * (pos_half + neg_half)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def sample(spec: DistributionSpec, n: int, seed: int | None = None) -> np.ndarray:
    """Draw ``n`` i.i.d. variates; deterministic for a fixed seed."""
    if n < 1:
        raise ArgumentError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    p = spec.params
    if spec.family == "uniform":
        return rng.uniform(-p["a"], p["a"], size=n)
    if spec.family == "rayleigh":
        return rng.rayleigh(p["sigma"], size=n)
    if spec.family == "cauchy":
        return rng.standard_cauchy(size=n)
    if spec.family == "levy":
        z = rng.standard_normal(size=n)
        return 1.0 / (z * z)
    return rng.normal(p["mu"], p["sigma"], size=n)
