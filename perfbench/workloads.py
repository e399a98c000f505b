"""The benchmark's three workloads: operation lists and output gates.

Every operation goes through a public entry point, almost always the
in-process CLI ``fracmom.cli.main([...])``.  Each one has a gate that
checks its output and returns the errors that feed ``min_digits`` and
``mean_digits``.  Curve errors are recomputed here against references
written with NumPy/SciPy, independent of ``fracmom.distributions``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special as sp_special

FAMILY_PARAMS = {
    "uniform": {"a": 2.0},
    "rayleigh": {"sigma": 2.0},
    "cauchy": {},
    "levy": {},
    "gaussian": {"mu": 2.0, "sigma": 1.0},
}

# Gate bounds.  IDENTITY_TOL is the tolerance `fracmom verify` applies to
# each row.  The CF and PDF bounds are the acceptance suite's (criteria 3,
# 5, 6, 7); rayleigh and gaussian CFs have no stated bound and take the
# cauchy one.  Monte Carlo curves (n = 1e6, m = 10) have no stated bound
# either; 0.1 is about three times the worst error over seeds 0..9
# (rayleigh's 3.6e-2, which is truncation at m = 10, not sampling noise).
IDENTITY_TOL = 1e-4
CF_BOUND = {"uniform": 1.5 * 7.306e-2, "rayleigh": 1e-2, "cauchy": 1e-2,
            "levy": 2e-2, "gaussian": 1e-2}
PDF_BOUND = 1e-2
MC_CURVE_BOUND = 0.1

# An output that matches its reference exactly counts as this many digits.
DIGITS_CAP = 16.0

IDENTITY_ROWS = ("rl_integral_plus", "rl_integral_minus", "marchaud_plus",
                 "marchaud_minus", "riesz_derivative", "riesz_integral",
                 "mellin_two_path")

# figure -> (kind, family, bound); fig3a is the divergent Taylor baseline
# of criterion 4, gated on finiteness only and kept out of the digits.
FIGURES = {
    "fig3a": ("cf", "uniform", math.inf),
    "fig3b": ("cf", "uniform", CF_BOUND["uniform"]),
    "fig4a": ("cf", "rayleigh", CF_BOUND["rayleigh"]),
    "fig4b": ("cf", "rayleigh", CF_BOUND["rayleigh"]),
    "fig5": ("cf", "cauchy", CF_BOUND["cauchy"]),
    "fig6a": ("cf", "levy", CF_BOUND["levy"]),
    "fig6b": ("cf", "levy", CF_BOUND["levy"]),
    "fig7": ("pdf", "gaussian", PDF_BOUND),
    "fig8": ("pdf", "cauchy", PDF_BOUND),
    "fig9": ("pdf", "levy", PDF_BOUND),
}
# panels b repeat panel a's curve, so each curve's error is counted once
FIGURE_DIGITS = ("fig3b", "fig4a", "fig5", "fig6a", "fig7", "fig8", "fig9")


class GateMiss(Exception):
    """An operation's output is missing, malformed, non-finite or out of bound."""


@dataclass
class Op:
    """One operation: ``invoke`` calls fracmom, ``check`` gates the result.

    ``check(value, stdout)`` returns the output errors that count toward
    the digits metrics, or raises :class:`GateMiss`.
    """

    label: str
    invoke: Callable[[], object]
    check: Callable[[object, str], list[float]]
    cli: bool = True
    outputs: tuple[Path, ...] = ()


# ----------------------------------------------------------------------
# independent references
# ----------------------------------------------------------------------


def reference_cf(family: str, t: np.ndarray) -> np.ndarray:
    p = FAMILY_PARAMS[family]
    if family == "uniform":
        return np.sin(p["a"] * t) / (p["a"] * t) + 0j
    if family == "rayleigh":
        q = p["sigma"] * t
        # 1 - q e^{-q^2/2} sqrt(pi/2) (erfi(q/sqrt2) - i), through Dawson's F
        return (1.0 - q * math.sqrt(2.0) * sp_special.dawsn(q / math.sqrt(2.0))
                + 1j * q * math.sqrt(math.pi / 2.0) * np.exp(-0.5 * q * q))
    if family == "cauchy":
        return np.exp(-np.abs(t)) + 0j
    if family == "levy":
        return np.exp(-np.sqrt(np.abs(t)) * (1.0 - 1j * np.sign(t)))
    return np.exp(1j * p["mu"] * t - 0.5 * (p["sigma"] * t) ** 2)


def reference_pdf(family: str, x: np.ndarray) -> np.ndarray:
    if family == "cauchy":
        return 1.0 / (math.pi * (1.0 + x * x))
    if family == "levy":
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, np.exp(-0.5 / safe) / np.sqrt(2.0 * math.pi * safe**3), 0.0)
    if family == "gaussian":
        p = FAMILY_PARAMS[family]
        z = (x - p["mu"]) / p["sigma"]
        return np.exp(-0.5 * z * z) / (p["sigma"] * math.sqrt(2.0 * math.pi))
    raise ValueError(f"no PDF reference for {family}")


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------


def _read_numeric_csv(path: Path, header: str) -> np.ndarray:
    try:
        text = path.read_text()
    except OSError as exc:
        raise GateMiss(f"{path.name}: not written ({exc})") from None
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise GateMiss(f"{path.name}: expected header {header!r}")
    width = header.count(",") + 1
    try:
        rows = [[float(v) if v else math.nan for v in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise GateMiss(f"{path.name}: {exc}") from None
    if any(len(r) != width for r in rows):
        raise GateMiss(f"{path.name}: ragged rows")
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _require_ok(value: object) -> None:
    if value != 0:
        raise GateMiss(f"exit code {value}")


def check_verify(value: object, stdout: str) -> list[float]:
    _require_ok(value)
    rows = dict(re.findall(r"^\s+(\w+)\s+max dev (\S+)\s+(?:PASS|FAIL)\s*$",
                           stdout, re.M))
    if tuple(rows) != IDENTITY_ROWS:
        raise GateMiss(f"verify rows {tuple(rows)}")
    devs = [float(v) for v in rows.values()]
    bad = [n for n, d in zip(rows, devs) if not d <= IDENTITY_TOL]
    if bad:
        raise GateMiss(f"identity rows over {IDENTITY_TOL:g}: {bad}")
    return devs


def grid_check(path: Path, m: int) -> Callable[[object, str], list[float]]:
    def check(value: object, stdout: str) -> list[float]:
        _require_ok(value)
        rows = _read_numeric_csv(path, "k,rho,eta,re,im")
        if rows.shape[0] != 2 * m + 1:
            raise GateMiss(f"{path.name}: {rows.shape[0]} rows, want {2 * m + 1}")
        if not np.all(np.isfinite(rows)):
            raise GateMiss(f"{path.name}: non-finite moment")
        return []
    return check


def curve_error(path: Path, kind: str, family: str, n_points: int | None) -> float:
    """Max abs error of a curve CSV against the independent reference."""
    rows = _read_numeric_csv(path, "x,re,im,exact_re,exact_im,abs_err")
    if n_points is not None and rows.shape[0] != n_points:
        raise GateMiss(f"{path.name}: {rows.shape[0]} points, want {n_points}")
    x, value = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    if not np.all(np.isfinite(value)):
        raise GateMiss(f"{path.name}: non-finite curve value")
    ref = reference_cf(family, x) if kind == "cf" else reference_pdf(family, x)
    return float(np.max(np.abs(value - ref)))


def curve_check(path: Path, kind: str, family: str, n_points: int,
                bound: float) -> Callable[[object, str], list[float]]:
    def check(value: object, stdout: str) -> list[float]:
        _require_ok(value)
        err = curve_error(path, kind, family, n_points)
        if not err <= bound:
            raise GateMiss(f"{path.name}: max abs error {err:.3e} over {bound:.3e}")
        return [err]
    return check


def figures_check(out_dir: Path) -> Callable[[object, str], list[float]]:
    def check(value: object, stdout: str) -> list[float]:
        _require_ok(value)
        errors = {}
        for name, (kind, family, bound) in FIGURES.items():
            err = curve_error(out_dir / f"{name}.csv", kind, family, None)
            if not err <= bound:
                raise GateMiss(f"{name}: max abs error {err:.3e} over {bound:.3e}")
            errors[name] = err
        return [errors[name] for name in FIGURE_DIGITS]
    return check


def truncation_check(value: object, stdout: str) -> list[float]:
    m = getattr(value, "m", None)
    if not isinstance(m, int) or not 1 <= m <= 10_000:
        raise GateMiss(f"truncation suggestion {value!r}")
    return []


# ----------------------------------------------------------------------
# operation lists
# ----------------------------------------------------------------------


def _param_args(family: str) -> list[str]:
    out: list[str] = []
    for key, val in FAMILY_PARAMS[family].items():
        out += ["--param", f"{key}={val:g}"]
    return out


def _range_points(text: str) -> int:
    lo, hi, count = text.split(":")
    pts = np.linspace(float(lo), float(hi), int(count))
    return int(np.count_nonzero(pts))


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The operation list of one workload; ``seed`` reaches montecarlo only."""
    import fracmom.cli as cli
    import fracmom.moments as moments
    from fracmom.distributions import DistributionSpec

    def cli_op(label, argv, check, outputs=()):
        return Op(label, lambda: cli.main(list(argv)), check, True, tuple(outputs))

    ops: list[Op] = []
    if workload == "identity":
        for family in FAMILY_PARAMS:
            argv = ["verify", "--family", family, *_param_args(family),
                    "--rho", "0.4", "--delta", "0.4", "--m", "5", "--sign", "minus"]
            ops.append(cli_op(f"verify {family}", argv, check_verify))
        return ops

    if workload == "reconstruct":
        pdf_windows = {"gaussian": "-2:6:10000", "cauchy": "-10:10:10000",
                       "levy": "0.1:10:10000"}
        for family in FAMILY_PARAMS:
            rho = 0.9 if family == "levy" else 0.4
            spec = DistributionSpec(family, FAMILY_PARAMS[family])
            ops.append(Op(
                f"suggest_truncation {family}",
                lambda spec=spec, rho=rho: moments.suggest_truncation(
                    spec, rho, 0.2, "minus", 1e-10),
                truncation_check, cli=False))
            grid = work / f"grid_{family}.csv"
            ops.append(cli_op(
                f"moments {family}",
                ["moments", "--family", family, *_param_args(family),
                 "--rho", f"{rho:g}", "--delta", "0.2", "--m", "200", "--out", str(grid)],
                grid_check(grid, 200), [grid]))
            curves = [("cf", "0.1:20:10000", CF_BOUND[family])]
            if family in pdf_windows:
                curves.append(("pdf", pdf_windows[family], PDF_BOUND))
            for kind, span, bound in curves:
                out = work / f"{kind}_{family}.csv"
                ops.append(cli_op(
                    f"reconstruct-{kind} {family}",
                    [f"reconstruct-{kind}", "--grid-in", str(grid), "--range", span,
                     "--out", str(out)],
                    curve_check(out, kind, family, _range_points(span), bound), [out]))
        fig_dir = work / "figures"
        ops.append(cli_op("figures", ["figures", "--out-dir", str(fig_dir)],
                          figures_check(fig_dir),
                          [fig_dir / f"{name}.csv" for name in FIGURES]))
        return ops

    if workload == "montecarlo":
        windows = {"cauchy": "-10:10:2000", "levy": "0.1:10:2000"}
        for family in ("cauchy", "levy", "rayleigh"):
            grid = work / f"mc_{family}.csv"
            ops.append(cli_op(
                f"moments mc {family}",
                ["moments", "--family", family, *_param_args(family), "--method", "mc",
                 "--n-samples", "1000000", "--m", "10", "--seed", str(seed),
                 "--out", str(grid)],
                grid_check(grid, 10), [grid]))
            curves = [("cf", "0.1:10:2000")]
            if family in windows:
                curves.append(("pdf", windows[family]))
            for kind, span in curves:
                out = work / f"mc_{kind}_{family}.csv"
                ops.append(cli_op(
                    f"reconstruct-{kind} {family}",
                    [f"reconstruct-{kind}", "--grid-in", str(grid), "--range", span,
                     "--out", str(out)],
                    curve_check(out, kind, family, _range_points(span), MC_CURVE_BOUND),
                    [out]))
        return ops

    raise ValueError(f"unknown workload {workload!r}")
