"""Vectorised quadrature: a family of integrals sharing one set of abscissae.

Every integral in this package comes in families — one per grid node,
one per side, one per evaluation point — whose integrands differ only
in an exponent or a shift.  The engine here integrates a whole family
in one pass: the integrand ``f`` receives a 1-D array of abscissae
``x`` and returns an array of shape ``(..., x.size)``, and each leading
index is an independent integral with its own value and its own error
estimate.  ``f`` is called once per panel sequence, never once per
point.

:func:`integrate` covers ``[a, b]`` with ``0 <= a < b <= inf`` the way
QUADPACK's QAGS/QAGI do (Piessens et al., *QUADPACK*, 1983), with the
adaptive bisection replaced by a fixed geometric layout:

* panels halve toward the lower end ``a``, where the integrands here
  are singular (``x^(gamma-1)`` and friends), and double toward an
  infinite upper end; ``[0, inf)`` is split at 1;
* each panel is cut in two and integrated by the 21-point
  Gauss-Kronrod rule (QUADPACK's ``qk21``); the embedded 10-point
  Gauss rule gives the panel's error estimate;
* the partial sums over panels converge like a sum of geometric
  sequences (one per power in the integrand's expansion at the
  singular end), which Wynn's epsilon algorithm removes.  The
  candidates are the even-column entries of the epsilon table built
  only from the converging tail: the partial sums after which the
  increments |s_(k+1) - s_k| never grow again.  An entry built from
  earlier sums (empty panels before the integrand's mass, all near 0,
  or sums still growing toward an anti-limit) has tiny differences and
  a wrong value.  Each row takes the candidate whose successive
  differences are smallest, unless the plain partial sum's last two
  increments are smaller.  QUADPACK's ``qelg`` (Piessens et al.,
  1983) takes its candidates from the newest diagonal of the table
  only, each built from the latest sums; here the whole table is
  formed at once, and the tail rule stands in for that.  A row whose
  last panel sums have reached roundoff keeps its plain partial sum
  and skips extrapolation.

The estimate per row is the chosen candidate's differences, plus the
Gauss-Kronrod estimates of all panels, plus a roundoff floor of
50 eps times the integral of ``|f|``.

Panel counts are fixed (:data:`PANELS` doublings), so every call
evaluates ``f`` on arrays of a known size and memory stays bounded;
an adaptive rule grows its workspace with the hardest row.  They also
fix the reach: ``[0, inf)`` is seen from 2^-32 to 2^32, and an
integrand whose mass lies beyond reads as 0 with a tiny estimate, so
the quadrature moments check the density's mass as well.

For integrands that ring without decaying fast (the sinc CF of the
uniform law, the never-decaying CF of a point mass) an ``oscillation``
frequency switches the infinite part to integration between
consecutive zeros — 64 pieces of 24-point Gauss-Legendre, all in one
call — with repeated (Euler) averaging of the alternating partial sums.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureError

# Gauss-Kronrod 10/21 on [-1, 1] (QUADPACK qk21), positive half
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208745815101,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
# weights of the embedded 10-point Gauss rule at _XGK[1], _XGK[3], ...
_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

KRONROD_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
GAUSS_WEIGHTS = np.zeros(21)
GAUSS_WEIGHTS[1:10:2] = _WG
GAUSS_WEIGHTS[11::2] = _WG[::-1]

# Doublings per panel sequence, and equal sub-panels per doubling.
# The sub-panels resolve integrands with a scale of their own (a
# Gaussian density centred away from the origin) on the wide outer
# doublings.
PANELS = 32
SUBPANELS = 2

_OSC_PIECES = 64
_OSC_NODES, _OSC_WEIGHTS = np.polynomial.legendre.leggauss(24)

_EPS = np.finfo(float).eps

Integrand = Callable[[np.ndarray], np.ndarray]


class Estimate(NamedTuple):
    """Integral values and absolute error estimates, one per row."""

    value: np.ndarray
    error: np.ndarray


def integrate(
    f: Integrand, a: float, b: float, *, oscillation: float | None = None
) -> Estimate:
    """Integrate every row of ``f`` over ``[a, b]``, ``0 <= a < b <= inf``.

    ``f`` maps a 1-D array of abscissae to an array of shape
    ``(..., x.size)``; the result holds arrays of shape ``(...)``.
    With ``oscillation`` set, the part beyond ``max(a, 1)`` of an
    infinite interval is integrated between the zeros of an oscillation
    at that angular frequency instead of over doubling panels.
    """
    if not 0.0 <= a < b:
        raise ValueError(f"need 0 <= a < b, got [{a}, {b}]")
    if math.isfinite(b):
        return _panel_sequence(f, a, b)
    split = max(a, 1.0)
    if oscillation is not None:
        tail = _oscillatory(f, split, oscillation)
    else:
        tail = _panel_sequence(f, split, math.inf)
    if split == a:
        return tail
    head = _panel_sequence(f, a, split)
    return Estimate(head.value + tail.value, head.error + tail.error)


def require(estimate: Estimate, tol: float, what: str, nodes) -> None:
    """Raise :class:`QuadratureError` if any row's error exceeds ``tol``.

    The message names the worst row's node; ``achieved`` is its error.
    """
    error = np.asarray(estimate.error, dtype=float).ravel()
    worst = int(np.argmax(error))
    achieved = float(error[worst])
    if not achieved <= tol:
        node = complex(np.ravel(nodes)[worst])
        raise QuadratureError(
            f"{what} estimate {achieved:.3e} exceeds {tol:.3e} "
            f"at gamma = {node}",
            achieved=achieved,
        )


# ----------------------------------------------------------------------
# geometric panels
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _layout(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and sub-panel half-widths of one panel sequence.

    ``b`` finite: halving from b toward a; ``b`` infinite: doubling
    from a.  Read-only, since every call with the same ends shares them.
    """
    if math.isfinite(b):
        edges = a + (b - a) * 2.0 ** -np.arange(PANELS + 1.0)
    else:
        edges = a * 2.0 ** np.arange(PANELS + 1.0)
    start = np.minimum(edges[:-1], edges[1:])
    width = np.abs(np.diff(edges))
    cuts = start[:, None] + width[:, None] * np.linspace(0.0, 1.0, SUBPANELS + 1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    half = 0.5 * (hi - lo)
    x = ((0.5 * (lo + hi))[..., None] + half[..., None] * KRONROD_NODES).ravel()
    x.flags.writeable = half.flags.writeable = False
    return x, half


def _panel_sequence(f: Integrand, a: float, b: float) -> Estimate:
    x, half = _layout(a, b)
    y = np.asarray(f(x))
    lead = y.shape[:-1]
    y = y.reshape(-1, PANELS, SUBPANELS, KRONROD_NODES.size)
    # a non-finite integrand gives a non-finite estimate, which
    # ``require`` reports; the rule sums need not warn about it too
    with np.errstate(over="ignore", invalid="ignore"):
        kronrod = (y @ KRONROD_WEIGHTS * half).sum(-1)
        gauss_err = (np.abs(y @ (KRONROD_WEIGHTS - GAUSS_WEIGHTS)) * half).sum(-1)
        abs_int = (np.abs(y) @ KRONROD_WEIGHTS * half).sum(-1)

    sums = np.cumsum(kronrod, axis=1)
    roundoff = 50.0 * _EPS * abs_int.sum(axis=1)
    value = sums[:, -1]
    error = np.abs(sums[:, -1] - sums[:, -2]) + np.abs(sums[:, -2] - sums[:, -3])
    pending = error > roundoff
    if pending.any():
        value, error = _wynn(sums, value, error, pending)
    error = error + gauss_err.sum(axis=1) + roundoff
    return Estimate(value.reshape(lead), error.reshape(lead))


def _wynn(sums, value, error, pending):
    """Replace ``value``/``error`` where ``pending`` by the epsilon-table
    entry of the converging tail with the smallest error, if that beats
    the plain partial sum.

    Rhombus rule eps[k+1][j] = eps[k-1][j+1] + 1/(eps[k][j+1] - eps[k][j]),
    with eps[-1] = 0 and eps[0] the partial sums.  An even-column entry
    built from e0, e1, e2 (three successive entries two columns back)
    gets the error |res - e2| + |e2 - e1| + |e1 - e0|.
    """
    rows, n = sums.shape
    table = np.full((n, rows, n), np.nan, dtype=sums.dtype)
    table[0] = sums
    older = np.zeros((rows, n + 1), dtype=sums.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n):
            cur = table[k - 1, :, : n - k + 1]
            step = 1.0 / (cur[:, 1:] - cur[:, :-1])
            table[k, :, : n - k] = older[:, 1 : n - k + 1] + step
            older = cur
        even = table[::2]
        e0, e1, e2 = even[:-1, :, :-2], even[:-1, :, 1:-1], even[:-1, :, 2:]
        res = even[1:, :, :-2]
        cand = np.abs(res - e2) + np.abs(e2 - e1) + np.abs(e1 - e0)
    cand[~np.isfinite(cand)] = np.inf
    # only the converging tail: an entry built from a partial sum after
    # which the increments still grow is no candidate
    inc = np.abs(np.diff(sums, axis=1))
    grows = inc[:, 1:] > inc[:, :-1]
    cand[:, np.logical_or.accumulate(grows[:, ::-1], axis=1)[:, ::-1]] = np.inf
    cand = cand.transpose(1, 0, 2).reshape(rows, -1)
    res = res.transpose(1, 0, 2).reshape(rows, -1)
    pick = np.argmin(cand, axis=1)
    at = np.arange(rows)
    better = pending & (cand[at, pick] < error)
    return (
        np.where(better, res[at, pick], value),
        np.where(better, cand[at, pick], error),
    )


# ----------------------------------------------------------------------
# oscillatory tail
# ----------------------------------------------------------------------


def _oscillatory(f: Integrand, start: float, freq: float) -> Estimate:
    """Integrate over [start, inf) for an integrand ringing at ``freq``.

    The axis is cut at the oscillation's sign-change points (spacing
    pi/freq); piece integrals form an alternating sequence whose
    partial sums are accelerated by repeated averaging.  The spread of
    the last averaging pair serves as the error estimate.
    """
    half = math.pi / freq
    z0 = math.ceil(start * freq / math.pi - 1e-12) * half
    edges = z0 + half * np.arange(_OSC_PIECES + 1.0)
    if z0 > start:
        edges = np.concatenate([[start], edges])
    lo, hi = edges[:-1], edges[1:]
    mid, width = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = (mid[:, None] + width[:, None] * _OSC_NODES).ravel()

    y = np.asarray(f(x))
    lead = y.shape[:-1]
    pieces = y.reshape(-1, lo.size, _OSC_NODES.size) @ _OSC_WEIGHTS * width
    head = pieces[:, 0] if z0 > start else 0.0
    s = np.cumsum(pieces[:, lo.size - _OSC_PIECES:], axis=1)
    while s.shape[1] > 2:
        s = 0.5 * (s[:, 1:] + s[:, :-1])
    spread = np.abs(s[:, 1] - s[:, 0])
    value = head + 0.5 * (s[:, 1] + s[:, 0])
    return Estimate(value.reshape(lead), spread.reshape(lead))
