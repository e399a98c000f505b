"""Complex gamma, the reflection product, the signed-power branch and
the cosine normaliser, as array functions.

Each function takes a scalar or an array.  A scalar gives a Python
``complex``; an array gives an array, broadcast elementwise, so a
caller holding the 2m+1 nodes of a grid makes one call.  Scalar and
array inputs run the same code, so an array call equals the
per-element scalar calls exactly.

``complex_gamma`` is ``exp(loggamma(z))`` on SciPy's complex
``loggamma``, which stays finite far from the real axis where Gamma
itself decays like exp(-pi |Im z| / 2).

``reflection_product`` is Gamma(g) Gamma(1 - g) = pi / sin(pi g),
independently of ``complex_gamma`` so the two can be checked against
each other.  It is evaluated as 2 pi i s w / expm1(2 pi i s g) with
w = exp(i pi s g) and s the sign of Im g (+1 on the real axis), one
formula at every Im g: |w| <= 1, so nothing overflows where
sin(pi g) itself would (around |Im g| ~ 225).

``signed_log`` is the one statement of the signed-power branch,

    Log(s i x) = ln|x| + s sgn(x) i pi/2,   s in {+1, -1},

i.e. the branch obtained by continuously rotating |x| onto the
imaginary axis; the origin is excluded.  Every phase of a signed
moment E[(s i X)^(-g)] is an exponential of g times it:
``branch_power`` is (s i x)^g = exp(g Log(s i x)) from a branch formed
beforehand (a caller raising one branch to many orders takes the
logarithm once), ``signed_complex_power`` is ``branch_power`` of
``signed_log``, and at x = 1 it gives the half-line phases (s i)^g.

``cosine_normaliser`` is 2 cos(pi g / 2), the denominator of the Riesz
operators and of the absolute-moment conversion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp_special

from .errors import ArgumentError, DomainError, PoleError

_POLE_TOL = 1e-12

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
    # with w = exp(i pi s g), pi / sin(pi g) = 2 pi i s w / (w^2 - 1);
    # |w| = exp(-pi |Im g|) <= 1, so nothing overflows
    s = np.where(g.imag < 0.0, -1.0, 1.0)
    phase = 1j * math.pi * s * g
    return _shaped(2j * math.pi * s * np.exp(phase) / np.expm1(2.0 * phase))


def signed_log(x, sign: str):
    """``Log(s i x) = ln|x| + s sgn(x) i pi/2`` with ``s = +1`` ("plus")
    or ``-1`` ("minus"): the branch of every signed power.

    The origin has no admissible value on this branch; any ``x == 0``
    raises :class:`DomainError`.
    """
    s = sign_value(sign)
    xv = np.asarray(x, dtype=float)
    if np.any(xv == 0.0):
        raise DomainError("signed power is undefined at x = 0")
    out = np.array(np.log(np.abs(xv)), dtype=complex)
    out.imag = s * math.pi / 2.0 * np.sign(xv)
    return _shaped(out)


def branch_power(branch, gamma):
    """``exp(gamma * branch)`` for a branch ``branch = signed_log(x, sign)``
    formed beforehand: ``(s i x)^gamma`` without taking the logarithm again.

    ``branch`` and ``gamma`` broadcast against each other; the exponent
    is the only complex array of the broadcast shape, exponentiated in
    place.
    """
    g = np.asarray(gamma, dtype=complex)
    b = np.asarray(branch)
    # the product gamma * branch in real arithmetic, every product and
    # sum rounded once (a complex multiply may fuse them), so an array
    # call equals the scalar calls bit for bit
    re = g.real * b.real - g.imag * b.imag
    power = np.empty(re.shape, dtype=complex)
    power.real = re
    power.imag = g.imag * b.real + g.real * b.imag
    return _shaped(np.exp(power, out=power))


def signed_complex_power(x, gamma, sign: str):
    """Evaluate ``(s i x)^gamma = exp(gamma * signed_log(x, sign))``.

    ``x`` and ``gamma`` broadcast against each other (see
    :func:`branch_power`).  Any ``x == 0`` raises :class:`DomainError`.
    """
    return branch_power(signed_log(x, sign), gamma)


def cosine_normaliser(gamma):
    """``2 cos(pi gamma / 2)``, the Riesz normaliser.

    Raises :class:`PoleError` where it vanishes (within 1e-12, at odd
    integers) and :class:`DomainError` where it leaves double range.
    """
    g = np.asarray(gamma, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        cos_half = np.cos(math.pi * g / 2.0)
    for bad, error, what in ((np.abs(cos_half) <= _POLE_TOL, PoleError, "vanishes"),
                             (~np.isfinite(cos_half), DomainError, "overflows")):
        if bad.any():
            raise error(f"2 cos(pi gamma / 2) {what} at gamma = {complex(g[bad][0])}")
    return _shaped(2.0 * cos_half)
