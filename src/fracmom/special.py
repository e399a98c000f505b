"""Complex gamma, the reflection product and signed complex powers, as
array functions.

Each function takes a scalar or an array.  A scalar gives a Python
``complex``; an array gives an array, broadcast elementwise, so a
caller holding the 2m+1 nodes of a grid makes one call.  Scalar and
array inputs run the same code, so an array call equals the
per-element scalar calls exactly.

``complex_gamma`` is ``exp(loggamma(z))`` on SciPy's complex
``loggamma``, which stays finite far from the real axis where Gamma
itself decays like exp(-pi |Im z| / 2).

``reflection_product`` is Gamma(g) Gamma(1 - g) written as
pi / sin(pi g), independently of ``complex_gamma`` so the two can be
checked against each other.  Past |Im g| = 100, before sin(pi g) would
overflow (around |Im g| ~ 225), it switches to log space with the
asymptotic expansion of log sin(pi g).

Signed powers follow the convention

    (s i x)^g = exp(g ln|x| + s g (i pi / 2) sgn x),   s in {+1, -1},

i.e. the branch obtained by continuously rotating |x| onto the
imaginary axis.  The origin is excluded.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp_special

from .errors import ArgumentError, DomainError, PoleError

_POLE_TOL = 1e-12

# Beyond this |Im z| the reflection product switches to log space.  The
# direct path would still be exact up to ~225 but there is no reason to
# run close to the cliff.
_LOG_REFLECTION_IMAG = 100.0

_SIGN_VALUES = {"plus": 1, "minus": -1}


def sign_value(sign: str) -> int:
    """Map a side label (``"plus"``/``"minus"``) to +1/-1."""
    try:
        return _SIGN_VALUES[sign]
    except KeyError:
        raise ArgumentError(
            f"sign must be 'plus' or 'minus', got {sign!r}"
        ) from None


def _shaped(values: np.ndarray):
    # a scalar in gives a complex out, an array an array
    return complex(values) if values.ndim == 0 else values


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    # Asymptotic form of log sin(pi z) for |Im z| >> 1: the dominant
    # exponential is pulled out so nothing overflows.  The remaining
    # factor 1 - exp(2i pi z s) has |exp(...)| < exp(-2 pi * 100) on
    # this branch, far below double-precision resolution, so the plain
    # log is exact here.
    s = np.where(z.imag >= 0.0, 1.0, -1.0)
    correction = 1.0 - np.exp(2j * math.pi * z * s)
    return (
        -math.log(2.0)
        + 1j * s * math.pi / 2.0
        - 1j * s * math.pi * z
        + np.log(correction)
    )


def complex_gamma(z):
    """Gamma function of a complex scalar or array.

    Raises :class:`PoleError` when any element lies within 1e-12 of a
    pole (a non-positive integer).
    """
    zv = np.asarray(z, dtype=complex)
    n = np.round(zv.real)
    poles = (n <= 0.0) & (np.abs(zv - n) <= _POLE_TOL)
    if poles.any():
        raise PoleError(f"gamma evaluated at pole: z = {complex(zv[poles][0])}")
    return _shaped(np.exp(sp_special.loggamma(zv)))


def reflection_product(gamma):
    """The product Gamma(g) * Gamma(1 - g), computed as pi / sin(pi g).

    The closed form avoids evaluating two gammas that individually decay
    like exp(-pi |Im g| / 2) and then multiplying them back up.  Poles sit
    at every integer; an element on one raises :class:`PoleError`.
    """
    g = np.asarray(gamma, dtype=complex)
    n = np.round(g.real)
    poles = np.abs(g - n) <= _POLE_TOL
    if poles.any():
        raise PoleError(
            f"reflection product has a pole at integer order {int(n[poles][0])}"
        )
    near = np.abs(g.imag) <= _LOG_REFLECTION_IMAG
    out = np.empty(g.shape, dtype=complex)
    out[near] = math.pi / np.sin(math.pi * g[near])
    out[~near] = math.pi * np.exp(-_log_sin_pi(g[~near]))
    return _shaped(out)


def signed_complex_power(x, gamma, sign: str):
    """Evaluate ``(s i x)^gamma`` with ``s = +1`` ("plus") or ``-1`` ("minus").

    This is the branch fixed by writing the base in polar form with
    argument ``s * sgn(x) * pi/2``:

        (s i x)^g = exp(g ln|x| + s g (i pi/2) sgn x).

    ``x`` and ``gamma`` broadcast against each other.  The origin has no
    admissible value on this branch; any ``x == 0`` raises
    :class:`DomainError`.
    """
    s = sign_value(sign)
    xv = np.asarray(x, dtype=float)
    if np.any(xv == 0.0):
        raise DomainError("signed power is undefined at x = 0")
    g = np.asarray(gamma, dtype=complex)
    return _shaped(np.exp(
        g * np.log(np.abs(xv)) + s * g * (1j * math.pi / 2.0) * np.sign(xv)
    ))
