"""Complex-order moment grids and their estimators.

A grid is the family of values E[(s i X)^(-gamma_k)] on the vertical
line gamma_k = rho + i k delta, k = -m..m.  Three interchangeable
estimators are provided.  Two take the distribution: catalog closed
forms (:func:`~fracmom.distributions.closed_form_moment`) and
vectorised quadrature of the defining integral over its density
(:func:`moment_quadrature`), both called as ``(spec, gamma, sign)``.
The third is a Monte Carlo average over samples
(:func:`moment_monte_carlo`).  The module also provides strip
arithmetic, a truncation heuristic, and the CSV format of every file
the CLI writes: :func:`write_table` writes `# key: value` head lines, a
header and ``repr`` cells, and a grid makes the round trip through
:func:`write_grid_csv` and :func:`read_grid_csv`.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, TextIO

import numpy as np

from ._forkjoin import fork_join
from .distributions import (
    SAMPLE_BLOCK,
    DistributionSpec,
    FundamentalStrip,
    closed_form_moment,
    exact_pdf,
    sample_blocks,
)
from .errors import (
    AllSamplesDegenerateError,
    ArgumentError,
    DomainError,
    QuadratureError,
    require_integer,
)
from .quadrature import Estimate, count, integrate, require
from .special import (
    as_orders,
    branch_power,
    like_orders,
    scalar_or_array,
    sign_value,
    signed_complex_power,
    signed_log,
)

log = logging.getLogger(__name__)

GRID_METHODS = ("closed_form", "quadrature", "monte_carlo")

# the largest grid half-width: GridParams rejects a larger m, and the
# truncation search answers capped here
_M_CAP = 10_000

# nodes per run of the Monte Carlo node ladder: one exact power, then a
# step per node
_LADDER_RUN = 16

# error target of every moment by quadrature of a density: the
# quadrature grids, the identity suite's oracle and the density's mass
MOMENT_TOL = 1e-9


# ----------------------------------------------------------------------
# grid types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GridParams:
    """Line abscissa, imaginary step, half-width and sign of a grid.

    ``rho`` and ``delta`` are stored as ``float`` and ``m`` as ``int``
    (NumPy scalars are accepted), so every writer prints plain numbers.
    An ``m`` that is not an integer or is a bool, a ``rho`` or
    ``delta`` that is not a real number, and a reach ``m * delta`` that
    overflows raise :class:`ArgumentError`.
    """

    rho: float
    delta: float
    m: int
    sign: str = "minus"

    def __post_init__(self):
        sign_value(self.sign)  # validates
        require_integer(self.m, "m")
        if not all(isinstance(v, numbers.Real) for v in (self.rho, self.delta)):
            raise ArgumentError("rho and delta must be real numbers")
        for name, kind in (("rho", float), ("delta", float), ("m", int)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if not 0.0 < self.delta < math.inf:
            raise ArgumentError("delta must be finite and > 0")
        if not 1 <= self.m <= _M_CAP:
            raise ArgumentError(f"m must be between 1 and {_M_CAP}")
        if not math.isfinite(self.m * self.delta):
            raise ArgumentError("the grid's reach m * delta must be finite")
        if not math.isfinite(self.rho):
            raise ArgumentError("rho must be finite")

    def node(self, k: int) -> complex:
        return complex(self.rho, k * self.delta)

    def nodes(self) -> np.ndarray:
        k = np.arange(-self.m, self.m + 1)
        return self.rho + 1j * self.delta * k


@dataclass(frozen=True)
class MomentGrid:
    """2m+1 moment values tabulated on the nodes of ``params``, with the
    distribution they are moments of when it is known.

    The line must lie in :func:`working_strip` of ``spec`` (of no family
    when ``spec`` is None), or :class:`StripError` is raised.  A grid
    with a ``spec`` carries its exact reference and its CSV family lines.
    """

    params: GridParams
    values: np.ndarray
    spec: DistributionSpec | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (2 * self.params.m + 1,):
            raise ArgumentError(
                f"grid needs {2 * self.params.m + 1} values, got shape {vals.shape}"
            )
        owner = None if self.spec is None else self.spec.label()
        working_strip(self.spec).require(self.params.rho, "rho", "usable", owner)
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
        """E[(s i X)^(-gamma)]: (s i x)^(-g) = |x|^(-g) (s i)^(-/+g).

        Past |Im gamma| ~ 452 the phase (s i)^(-/+g) leaves double range;
        the estimate then is not finite, which ``require`` reports, and
        nothing warns.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


def power_kernel(gamma, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """u^(-gamma) = exp(-gamma ln u) for every order in ``gamma`` (an
    array of any shape) at every abscissa of the 1-D ``u``, formed in
    ``out``, a C-contiguous complex block of shape
    ``gamma.shape + u.shape``, which is returned.

    Each row is one real power u^(-Re gamma) times one unit phase
    exp(-i |Im gamma| ln u), conjugated where Im gamma < 0; there is one
    power per distinct Re gamma and one phase per distinct |Im gamma|,
    so a grid line rho + i k delta (k = -m..m) and its mirror share m + 1
    phases, and an order given again is a copy of its first row.  Far
    out in Re gamma the power overflows near u = 0, and below a
    subnormal end u rounds to 0; such a row is not finite, which the
    engine's estimate reports, and nothing warns.  Inside
    :func:`~fracmom.quadrature.counting` the phases count as ``phases``.
    """
    g = np.asarray(gamma, dtype=complex).ravel()
    rows = out.reshape(g.size, u.size)
    real, conj = g.real.tolist(), (g.imag < 0).tolist()
    # the rows of each order, grouped by |Im gamma| in nested dicts:
    # np.unique would sort, and its first call pages in a quarter
    # megabyte of sort kernels
    shared: dict[float, dict[complex, list[int]]] = {}
    for r, value in enumerate(g.tolist()):
        shared.setdefault(abs(value.imag), {}).setdefault(value, []).append(r)
    count(phases=len(shared) * u.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_u = np.log(u)
        power = {value: np.exp(-value * log_u) for value in dict.fromkeys(real)}
        # one phase row at a time, into the rows that share it
        phase = np.empty(u.shape, dtype=complex)
        for value, orders in shared.items():
            angle = -value * log_u
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            # one row per order, copied to the rows of the same order
            for r, *copies in orders.values():
                row = rows[r]
                np.multiply(phase, power[real[r]], out=row)
                if conj[r]:
                    np.conjugate(row, out=row)
                if copies:
                    rows[copies] = row
    return out


def mirrored_integral(f: Callable[[np.ndarray], np.ndarray], sides, gamma,
                      a: float, b: float, *, oscillation: float | None = None) -> Estimate:
    """int_a^b u^(-gamma) f(-s u) du, s = +1 (``"plus"``) or -1
    (``"minus"``), for every order in ``gamma`` (a scalar or an array),
    ``0 <= a < b <= inf``, in one engine call: the half-line integral of
    the densities here and of every fractional operator in
    :mod:`fracmom.fracops`.  ``sides`` is one side, or a tuple of sides
    whose results come back stacked along a leading axis; every side
    shares the kernel u^(-gamma) of :func:`power_kernel` and the
    engine's panels.  ``f`` is called on arrays of abscissae, once per
    side, and its values broadcast against the kernel's block of shape
    ``gamma.shape + u.shape``, which they may not widen: an ``f`` that
    returns one row per leading index of a stacked ``gamma`` (a
    ``(2, n)`` array of orders and values of shape ``(2, 1, points)``)
    integrates a different function against each stack of orders in the
    same pass, and one that returns a row per order (a ``(n,)`` array
    of orders and values of shape ``(n, points)``) a different function
    against each order.  ``oscillation`` is handed to
    :func:`~fracmom.quadrature.integrate`.  An empty range (``b <= a``)
    gives zeros with zero error, without a call of ``f``; a negative or
    NaN ``a`` and a NaN ``b`` raise :class:`ArgumentError`.
    """
    signs = [sign_value(side) for side in ((sides,) if isinstance(sides, str) else sides)]
    g = np.asarray(gamma, dtype=complex)
    if not a >= 0.0 or math.isnan(b):
        raise ArgumentError(f"need 0 <= a and a b that is not NaN, got [{a}, {b}]")
    if not b > a:
        shape = g.shape if isinstance(sides, str) else (len(signs),) + g.shape
        return Estimate(np.zeros(shape, dtype=complex), np.zeros(shape))

    def integrand(u):
        # the last side's f, and the temporaries it frees, before the
        # block is allocated: the other way round, a 256-point Weyl
        # integral of the composition check ran about 1.7 times slower
        values = f(-signs[-1] * u)
        # one (sides,) + gamma.shape + u.shape block: the kernel is formed
        # in place in row block 0, and each side's rows are it times
        # f(-s u), the last side first, so block 0 is overwritten last
        out = np.empty((len(signs),) + g.shape + u.shape, dtype=complex)
        kernel = power_kernel(g, u, out[0])
        # a non-finite kernel row stays non-finite, which ``require``
        # reports
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(kernel, values, out=out[-1])
            for row in range(len(signs) - 2, -1, -1):
                np.multiply(kernel, f(-signs[row] * u), out=out[row])
        return out[0] if isinstance(sides, str) else out

    return integrate(integrand, a, b, oscillation=oscillation)


def half_line_integrals(spec: DistributionSpec, gamma) -> HalfLineIntegrals:
    """Both half-line integrals of u^(-gamma) pdf(+/-u) for the density
    of ``spec`` over its support, in one :func:`mirrored_integral` of
    both sides when the two halves cover the same range, and else one
    per half that is not empty; ``gamma`` may be a scalar or an array of
    orders.

    This is the one place a moment quadrature reads a density
    (:func:`~fracmom.distributions.exact_pdf`, on arrays) and its
    support.  The density's mass rides along as one more order (0) of
    the same engine calls.  The engine's panels reach from 2^-32 to
    2^32, and mass beyond them reads as 0, so a mass that misses 1 by
    more than 1e-9 (the moments' error target, at order 0) raises
    :class:`QuadratureError` rather than give moments of a density the
    panels cannot see.  A density outside the catalog still has
    :func:`mirrored_integral`, and a :class:`HalfLineIntegrals` of two
    such calls gives its signed and absolute moments.
    """
    g = np.asarray(gamma, dtype=complex)
    orders = np.append(g.ravel(), 0.0)  # the last order gives the mass
    lo, hi = spec.support
    pdf = lambda x: exact_pdf(spec, x)  # noqa: E731
    # f(-s u) is pdf(+u) on the "minus" side and pdf(-u) on the "plus" side
    ranges = {"minus": (max(lo, 0.0), hi), "plus": (max(0.0, -hi), -lo)}
    if ranges["minus"] == ranges["plus"]:
        both = mirrored_integral(pdf, tuple(ranges), orders, *ranges["minus"])
        halves = [Estimate(value, error) for value, error in zip(*both)]
    else:
        halves = [mirrored_integral(pdf, side, orders, *ends) for side, ends in ranges.items()]
    miss = abs(halves[0].value[-1] + halves[1].value[-1] - 1.0)
    if not miss <= MOMENT_TOL:
        raise QuadratureError(f"the {spec.label()} density's mass on the quadrature panels "
                              f"(2^-32 to 2^32) misses 1 by {miss:.3e}", achieved=miss)
    return HalfLineIntegrals(*(Estimate(*(part[:-1].reshape(g.shape) for part in half))
                               for half in halves))


def moment_quadrature(spec: DistributionSpec, gamma, sign: str):
    """E[(s i X)^(-gamma)] by quadrature of the defining integral over
    the density of ``spec``; the same arguments as
    :func:`~fracmom.distributions.closed_form_moment`.

    The integral is split at the origin (:func:`half_line_integrals`,
    which refuses a density whose mass the panels miss).  On each
    half-line the phase exp(-/+ s gamma i pi/2) is constant and is
    factored out, leaving u^(-gamma) pdf(+/-u), which the vectorised
    engine integrates for every order in ``gamma`` at once.  Each
    half's error estimate is scaled by its phase magnitude, so the
    combined estimate is an estimate of the returned value's error; if
    it exceeds 1e-9 at any order a :class:`QuadratureError` naming that
    order and carrying its estimate is raised.  A scalar ``gamma`` gives
    a complex result, an array of orders an array.
    """
    g = as_orders(gamma)
    result = half_line_integrals(spec, g).signed(g, sign)
    require(result, MOMENT_TOL, "moment quadrature", g)
    return like_orders(gamma, result.value)


class MonteCarloMoment(NamedTuple):
    """Sample mean and standard error per order (scalars for a scalar
    order, arrays for an array of orders or a grid's nodes) and the
    zeros dropped."""

    value: complex | np.ndarray
    stderr: float | np.ndarray
    dropped: int


def _block_moments(take: Callable[[int], np.ndarray], blocks: int, sign: str,
                   count: int, powers):
    # per-order mean and standard error of the per-sample powers that
    # ``powers(branch)`` yields for one block's branch Log(s i x), as
    # (order index, powers) pairs, over the blocks take(0) ..
    # take(blocks - 1) of samples; then the samples used, the zeros
    # dropped and the number of processes the blocks ran in.  Each block
    # is checked to be finite and loses its exact zeros, and within it
    # the sum of squares is two-pass, centred on the block's mean.  A
    # block's statistics depend on that block alone, so the blocks are
    # computed by :func:`~fracmom._forkjoin.fork_join`, each process
    # taking its blocks in increasing order, and merged in block order
    # by the pairwise update of Chan, Golub & LeVeque (Am. Stat. 37,
    # 1983), on block means taken relative to the first nonempty
    # block's and corrected by the sum of their centred powers, so a
    # mean far larger than the spread costs no digits.  One block gives
    # the full-array two-pass values.

    def block(b: int) -> bytes:
        raw = take(b)
        # min and max carry any NaN, and need no block-length temporary
        if not (math.isfinite(raw.min()) and math.isfinite(raw.max())):
            raise ArgumentError("samples must be finite")
        size = int(np.count_nonzero(raw))
        # rows: the block sums, the centred sums of squares (real) and
        # the centred sums; then the block's used and dropped counts
        stats = np.zeros((3, count), dtype=complex)
        if size:
            branch = signed_log(raw if size == raw.size else raw[raw != 0.0], sign)
            centred = np.empty(size, dtype=complex)
            for j, power in powers(branch):
                stats[0, j] = power.sum()
                np.subtract(power, stats[0, j] / size, out=centred)
                stats[1, j] = np.vdot(centred, centred).real
                stats[2, j] = centred.sum()
        return stats.tobytes() + np.array([size, raw.size - size], dtype=np.int64).tobytes()

    total = np.zeros(count, dtype=complex)
    first = mean = squares = None
    used = dropped = 0

    def merge(b: int, frame: bytes) -> None:
        nonlocal first, mean, squares, used, dropped
        rows = np.frombuffer(frame, dtype=complex, count=3 * count)
        sums, block_squares, drift = rows.reshape(3, count)
        size, zeros = map(int, np.frombuffer(frame, dtype=np.int64, offset=rows.nbytes))
        dropped += zeros
        if not size:
            return
        if not used:
            first, mean, squares = sums / size, 0.0, 0.0
        # the block's mean less the running mean of the ``used`` samples
        # merged so far, both relative to the first block's (for the
        # first block, its drift alone)
        gap = (sums / size - first) + drift / size - mean
        squares = squares + block_squares.real + (gap.real**2 + gap.imag**2) * (
            used * size / (used + size))
        mean = mean + gap * (size / (used + size))
        np.add(total, sums, out=total)
        used += size

    processes = fork_join(blocks, block, merge)
    if not used:
        raise AllSamplesDegenerateError(f"all {dropped} samples are exactly zero")
    value = total / used
    stderr = np.sqrt(squares / (used - 1) / used) if used > 1 else np.full(count, math.inf)
    return value, stderr, used, dropped, processes


def _ladder(params: GridParams):
    # the node powers of one block in ladder order, and the number of
    # exact anchors among them: outward from the centre, where the mean
    # is largest against its standard error (so a step's rounding weighs
    # least there), up from k = 0 by multiplying by the step z and down
    # from k = -1 by dividing, with an exact power every _LADDER_RUN nodes
    m = params.m
    order = (*range(m + 1), *range(-1, -m - 1, -1))
    exact = {k for k in order if (k if k >= 0 else -1 - k) % _LADDER_RUN == 0}

    def powers(branch):
        step = branch_power(branch, -1j * params.delta)
        for k in order:
            if k in exact:
                power = branch_power(branch, -params.node(k))
            elif k > 0:
                np.multiply(power, step, out=power)
            else:
                np.divide(power, step, out=power)
            yield k + m, power

    return powers, len(exact)


def moment_monte_carlo(samples, gamma, sign: str) -> MonteCarloMoment:
    """Sample-average estimate of E[(s i X)^(-gamma)] with a standard error.

    ``gamma`` may be a scalar, an array of orders or a :class:`GridParams`
    (whose sign must equal ``sign``).  Samples must be finite
    (:class:`ArgumentError` otherwise).  Exact zeros are dropped (the
    integrand is singular there for Re gamma > 0) and counted in the
    result.  The standard error is the delete-one jackknife of the
    mean, which for a plain average is the classical sqrt(Var/n); for a
    complex estimate the variance is taken as E|V - mean|^2.

    Both paths run one block of 8192 consecutive samples at a time
    (:data:`~fracmom.distributions.SAMPLE_BLOCK`), with the block's
    exact zeros dropped: the branch Log(s i x) of
    :func:`~fracmom.special.signed_log` is formed once per block, every
    order's powers of the block are summed and their block-centred
    squares added, and the blocks are merged in order by the exact
    pairwise update of Chan, Golub & LeVeque, on the samples each block
    used.  Samples that fit in one block get the full-array two-pass
    mean and standard error; more differ from them by summation order
    only.  When the blocks' work pays for a fork, one forked child
    computes the odd blocks and the caller the even ones
    (:func:`~fracmom._forkjoin.fork_join`), and since each block's
    statistics depend on that block alone and the merge runs in block
    order, the result does not depend on the number of processes, bit
    for bit.  A block of a contiguous float array is a view, so nothing
    sample-length is allocated, in any process.  :func:`make_grid`
    runs the same estimator on blocks drawn where they are estimated.

    A scalar or array of orders takes the direct path: each order is one
    exact exponential of the branch
    (:func:`~fracmom.special.branch_power`).  A grid's nodes take the
    node ladder instead.  Consecutive nodes differ by i delta, so
    (s i x)^(-gamma_(k+1)) = (s i x)^(-gamma_k) z with
    z = exp(-i delta Log(s i x)): each node is one in-place multiply or
    divide by z.  The ladder walks outward from the centre, up from
    k = 0 by multiplying and down from k = -1 by dividing, and an exact
    exponential starts it again every 16 nodes, so no node is more than
    15 steps from an exact power.  Its values differ from the direct
    path's by rounding only (about 1e-13 of a standard error at 2e5
    samples).  With ``FRACMOM_LOG=debug`` the ladder logs its samples,
    zeros, nodes, exact exponentials, multiplies (a divide counts as
    one), blocks, processes and time.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ArgumentError("samples must be nonempty")
    return _monte_carlo(lambda b: x[b * SAMPLE_BLOCK : (b + 1) * SAMPLE_BLOCK],
                        x.size, gamma, sign)


def _monte_carlo(take: Callable[[int], np.ndarray], n: int, gamma,
                 sign: str) -> MonteCarloMoment:
    # :func:`moment_monte_carlo` on the ``n`` samples of the blocks
    # take(0), take(1), ...
    blocks = -(-n // SAMPLE_BLOCK)
    if not isinstance(gamma, GridParams):
        orders = np.asarray(gamma, dtype=complex)
        value, stderr, _, dropped, _ = _block_moments(
            take, blocks, sign, orders.size, lambda branch: (
                (i, branch_power(branch, -g)) for i, g in enumerate(orders.flat)))
        return MonteCarloMoment(*(scalar_or_array(a.reshape(orders.shape))
                                  for a in (value, stderr)), dropped)
    if gamma.sign != sign:
        raise ArgumentError(f"grid sign {gamma.sign!r} differs from sign {sign!r}")
    start = time.perf_counter()
    powers, anchors = _ladder(gamma)
    nodes = 2 * gamma.m + 1
    value, stderr, used, dropped, processes = _block_moments(take, blocks, sign, nodes, powers)
    log.debug("monte carlo grid: %d samples used, %d zeros dropped, %d nodes, "
              "%d exact exponentials, %d ladder multiplies, %d block%s in %d process%s, "
              "%.3f s", used, dropped, nodes, anchors + 1, nodes - anchors,
              blocks, "" if blocks == 1 else "s", processes,
              "" if processes == 1 else "es", time.perf_counter() - start)
    return MonteCarloMoment(value, stderr, dropped)


def make_grid(
    spec: DistributionSpec,
    params: GridParams,
    method: str = "closed_form",
    *,
    n_samples: int | None = None,
    seed: int | None = None,
) -> MomentGrid:
    """Tabulate the moment grid of ``spec`` by one of the three estimators.

    ``rho`` must lie in :func:`working_strip` of ``spec``, which is
    checked before any moment is estimated.  The two deterministic
    methods take the same arguments, ``(spec, nodes, sign)``.  The
    ``monte_carlo`` method needs ``n_samples`` (``seed`` is optional,
    as for :func:`~fracmom.distributions.sample`; both are ignored by
    the other methods).  It draws each 8192-sample block of
    :func:`~fracmom.distributions.sample_blocks` where the block is
    estimated, so no process holds more than one block of samples,
    and its grid equals ``moment_monte_carlo(sample(spec, n_samples,
    seed), params, params.sign)`` bit for bit.
    """
    if method not in GRID_METHODS:
        raise ArgumentError(
            f"method must be one of {GRID_METHODS}, got {method!r}"
        )
    working_strip(spec).require(params.rho, "rho", "usable", spec.label())

    if method == "monte_carlo":
        if n_samples is None:
            raise ArgumentError("monte_carlo needs n_samples")
        take = sample_blocks(spec, n_samples, seed)
        values = _monte_carlo(take, n_samples, params, params.sign).value
    else:
        estimator = closed_form_moment if method == "closed_form" else moment_quadrature
        values = estimator(spec, params.nodes(), params.sign)
    return MomentGrid(params, values, spec)


# ----------------------------------------------------------------------
# strip arithmetic and truncation
# ----------------------------------------------------------------------


def working_strip(spec: DistributionSpec | None) -> FundamentalStrip:
    """The usable strip: where a grid line Re gamma = rho may sit.

    It is the family's moment strip intersected with (0, inf), or
    (0, inf) itself when no family is known (``spec`` is None).  This is
    the one statement of the rule: :class:`MomentGrid`, :func:`make_grid`
    and :func:`suggest_truncation` check a line against it, and
    ``fracmom strip`` prints it.
    """
    positive = FundamentalStrip(0.0, math.inf)
    return positive if spec is None else spec.moment_strip.intersect(positive)


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
    One bisection over m = 1..10^4 finds the first m whose envelope is
    at most ``tol`` or whose endpoint moment cannot be evaluated: about
    log2(10^4) + 1 = 15 envelope evaluations.  Like the linear sweep it
    replaces, it takes that stop test to hold at every m past the first
    that meets it.  It answers ``capped=True`` with m = 10^4 when the
    target is unreachable, or when an endpoint moment stops being
    evaluable, that is when it leaves double range
    (:class:`DomainError`), before the target is met; any other error
    propagates.  A ``tol`` that is not a real number > 0 raises
    :class:`ArgumentError`, a real ``rho`` outside :func:`working_strip`
    (NaN included) :class:`StripError`, and a ``rho``, ``delta`` or
    ``sign`` that :class:`GridParams` refuses its :class:`ArgumentError`,
    all before the search.
    """
    if not (isinstance(tol, numbers.Real) and tol > 0.0):
        raise ArgumentError("tol must be a real number > 0")
    if isinstance(rho, numbers.Real):  # GridParams refuses any other
        working_strip(spec).require(rho, "rho", "usable", spec.label())
    GridParams(rho, delta, 1, sign)  # validates rho, delta and sign

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
        except DomainError:
            return None

    # the first m whose stop test does not fail (or _M_CAP + 1)
    first = 1 + bisect.bisect_left(
        range(1, _M_CAP + 1), True, key=lambda m: reached(m) is not False
    )
    if first <= _M_CAP and reached(first):
        return TruncationSuggestion(first, False)
    return TruncationSuggestion(_M_CAP, True)


# ----------------------------------------------------------------------
# CSV round trip
# ----------------------------------------------------------------------


def write_table(out: TextIO, head: Mapping[str, object],
                columns: Mapping[str, object]) -> None:
    """Write one CSV table: the format of every file the CLI writes.

    First a `# key: value` line per ``head`` entry whose value is not
    None, in order (the value written with ``str``, which for a Python
    float is its ``repr``), then the header of the column names, then
    one row per entry.  Each cell is the ``repr`` of a Python scalar, so
    a float reads back bit for bit, and a column given as None is left
    empty.
    """
    out.writelines(f"# {key}: {value}\n" for key, value in head.items()
                   if value is not None)
    out.write(",".join(columns) + "\n")
    # Python scalars per column; their reprs are formed row by row, so
    # no table of strings is held
    cells = [None if c is None else np.asarray(c).tolist() for c in columns.values()]
    n = max((len(c) for c in cells if c is not None), default=0)
    rows = zip(*(map(repr, c) if c is not None else itertools.repeat("", n) for c in cells))
    out.writelines(",".join(row) + "\n" for row in rows)


def write_grid_csv(grid: MomentGrid, out: TextIO, *, method: str | None = None) -> None:
    """Write a grid as a :func:`write_table` of `k,rho,eta,re,im` rows.

    A grid with a ``spec`` gets `# family:` and `# params:` lines, every
    grid a `# sign:` line, and ``method`` a `# method:` line.
    """
    p, spec = grid.params, grid.spec
    k = np.arange(-p.m, p.m + 1)
    family = {} if spec is None else {
        "family": spec.family, "params": json.dumps(spec.params, sort_keys=True)}
    write_table(out, {**family, "sign": p.sign, "method": method},
                {"k": k, "rho": np.full(k.size, p.rho), "eta": k * p.delta,
                 "re": grid.values.real, "im": grid.values.imag})


def read_grid_csv(lines) -> tuple[MomentGrid, dict]:
    """Parse a grid written by :func:`write_grid_csv`.

    Accepts an iterable of lines (a file object works).  Returns the
    grid plus a metadata dict with whatever `#` keys were present.  A
    `# family:` line (with its `# params:` line, if any) becomes the
    grid's ``spec``.  Raises :class:`ArgumentError` unless the rows
    cover k = -m..m with m >= 1, every value is finite, eta = k * delta
    on every row and the family lines name a valid distribution, and
    :class:`StripError` when rho lies outside :func:`working_strip` of
    that distribution (of no family without a `# family:` line).
    """
    lines = [line.strip() for line in lines]
    meta: dict[str, object] = {}
    for key, colon, value in (line[1:].partition(":") for line in lines
                              if line.startswith("#")):
        if colon:
            meta[key.strip()] = value.strip()
    table = [line for line in lines if line and not line.startswith("#")]
    if table and table[0] != "k,rho,eta,re,im":
        raise ArgumentError(f"unexpected grid CSV header: {table[0]!r}")
    rows = []
    for line in table[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            raise ArgumentError(f"malformed grid CSV row: {line!r}")
        try:
            rows.append((int(cells[0]), *map(float, cells[1:])))
        except ValueError:
            raise ArgumentError(f"non-numeric grid CSV row: {line!r}") from None

    if len(rows) < 3:
        raise ArgumentError(
            f"grid CSV needs at least 3 rows (k = -1..1), got {len(rows)}"
        )
    if "sign" not in meta:
        raise ArgumentError("grid CSV missing '# sign:' metadata")
    # rows of one k are refused below, whatever their order
    rows.sort()
    m = (len(rows) - 1) // 2
    ks, rhos, etas, res, ims = zip(*rows)
    if ks != tuple(range(-m, m + 1)):
        raise ArgumentError("grid CSV rows must cover k = -m..m exactly")
    for k, *cells in rows:
        if not all(map(math.isfinite, cells)):
            raise ArgumentError(f"grid CSV row k = {k} has a non-finite value")
    if any(rho != rhos[0] for rho in rhos):
        raise ArgumentError("grid CSV rows disagree on rho")
    delta = etas[m + 1]  # eta at k = 1
    params = GridParams(rho=rhos[0], delta=delta, m=m, sign=meta["sign"])
    for k, eta in zip(ks, etas):
        if not math.isclose(eta, k * delta, rel_tol=1e-9, abs_tol=1e-12 * delta):
            raise ArgumentError(
                f"grid CSV eta = {eta!r} at k = {k} is not k * delta "
                f"(delta = {delta!r} from k = 1)"
            )
    if "params" in meta:
        # text that does not decode stays raw, and the spec refuses it
        with contextlib.suppress(ValueError, RecursionError):
            meta["params"] = json.loads(meta["params"])
    spec = DistributionSpec(meta["family"], meta.get("params", {})) if "family" in meta else None
    return MomentGrid(params, np.array(list(map(complex, res, ims))), spec), meta
