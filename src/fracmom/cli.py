"""Command-line front end.

Subcommands: ``moments`` (tabulate a grid to CSV), ``reconstruct-cf`` /
``reconstruct-pdf`` (evaluate the series on a point range), ``verify``
(identity suite of the fractional operators against quadrature moments),
``strip`` (print the usable line-abscissa interval) and ``figures``
(one-shot emission of every reproduction curve with pinned parameters).

Exit codes: 0 success, 1 argument/configuration problems or a stdout
closed by its reader (``| head``: the command stops quietly, with nothing
on stderr), 2 numerical failure (quadrature that could not reach its
error target; the message names the operation that failed).  Output
files are written atomically (temp file + rename) and are
byte-deterministic for a fixed configuration and seed.  Set ``FRACMOM_LOG`` to error/warn/info/debug
to adjust verbosity.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import (
    FAMILIES,
    DistributionSpec,
    exact_cf,
    sample,
    spec_from_config,
)
from .errors import ArgumentError, FracmomError, QuadratureError
from .fracops import identity_suite
from .moments import (
    GridParams,
    MomentGrid,
    make_grid,
    read_grid_csv,
    require_usable_rho,
    working_strip,
    write_grid_csv,
)
from .reconstruct import (
    classical_taylor_cf,
    sample_curve,
    write_curve_csv,
)

log = logging.getLogger("fracmom")

_METHODS = {"closed": "closed_form", "quad": "quadrature", "mc": "monte_carlo"}

_IDENTITY_TOL = 1e-4

_RANGE_CAP = 1_000_000

_FIGURE_TABLE = """\
figure parameters (all grids rho=0.4, delta=0.4, sign=minus unless noted):
  fig3a   uniform(a=2)    classical Taylor order 8      theta 0.1..10 step 0.05
  fig3b   uniform(a=2)    CF series m=25                theta 0.1..20 step 0.1
  fig4a/b rayleigh(s=2)   CF series m=25 (re/im panels) theta 0.1..10 step 0.05
  fig5    cauchy          CF series m=25                theta 0.1..10 step 0.05
  fig6a/b levy            CF series m=25, rho=0.9       theta 0.1..10 step 0.05
  fig7    gaussian(2,1)   PDF series m=30               x -2..6 step 0.05
  fig8    cauchy          PDF series m=10               x -10..10 step 0.1
  fig9    levy            PDF series m=10               x 0.1..10 step 0.05
PDF grids count conjugate-pair moments once per independent node (30
moments -> half-width m=30); the README's accuracy notes record the
measured errors behind this choice."""


# ----------------------------------------------------------------------
# config plumbing
# ----------------------------------------------------------------------


@dataclass
class RunConfig:
    """Everything one invocation needs, normalized from argv."""

    command: str
    spec: DistributionSpec | None
    grid: GridParams
    method: str
    n_samples: int
    seed: int
    abscissae: np.ndarray | None
    out: Path | None
    grid_in: Path | None
    out_dir: Path


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # package's validation error instead so the CLI contract (1 =
    # validation) holds.
    def error(self, message):
        raise ArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fracmom", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    dist = common.add_mutually_exclusive_group()
    dist.add_argument("--dist", type=Path, metavar="PATH.json",
                      help="distribution config file")
    dist.add_argument("--family", choices=FAMILIES)
    common.add_argument("--param", action="append", default=[],
                        metavar="K=V", help="family parameter (repeatable)")
    common.add_argument("--rho", type=float, default=0.4)
    common.add_argument("--delta", type=float, default=0.4)
    common.add_argument("--m", type=int, default=5)
    common.add_argument("--sign", choices=("plus", "minus"), default="minus")
    common.add_argument("--method", choices=tuple(_METHODS), default="closed")
    common.add_argument("--n-samples", type=int, default=100_000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=Path, metavar="PATH.csv")

    p = sub.add_parser("moments", parents=[common],
                       help="tabulate a moment grid as CSV")

    for kind in ("cf", "pdf"):
        p = sub.add_parser(f"reconstruct-{kind}", parents=[common],
                           help=f"evaluate the {kind.upper()} series on a range")
        p.add_argument("--range", dest="range_", metavar="LO:HI:COUNT",
                       default="0.1:10:100",
                       help="evaluation points (0 is dropped if hit)")
        p.add_argument("--grid-in", type=Path, metavar="PATH.csv",
                       help="reuse a grid CSV instead of rebuilding")

    sub.add_parser("verify", parents=[common],
                   help="fractional-operator identity suite vs quadrature")
    sub.add_parser("strip", parents=[common],
                   help="print the usable line-abscissa interval")

    p = sub.add_parser("figures", parents=[common],
                       help="emit all reproduction curves",
                       epilog=_FIGURE_TABLE,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out-dir", type=Path, default=Path("figures"))
    return parser


def _parse_params(items: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for item in items:
        key, sep, val = item.partition("=")
        if not sep or not key:
            raise ArgumentError(f"--param expects K=V, got {item!r}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ArgumentError(f"--param {key}: {val!r} is not a number") from None
    return out


def _load_spec(args) -> DistributionSpec | None:
    if args.dist is not None:
        if args.param:
            raise ArgumentError("--param cannot be combined with --dist")
        try:
            text = args.dist.read_text()
        except OSError as exc:
            raise ArgumentError(f"cannot read {args.dist}: {exc}") from None
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"{args.dist}: invalid JSON ({exc})") from None
        return spec_from_config(obj)
    if args.family is not None:
        return DistributionSpec(args.family, _parse_params(args.param))
    return None


def _parse_range(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ArgumentError(f"--range expects LO:HI:COUNT, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ArgumentError(f"--range has non-numeric pieces: {text!r}") from None
    if not 2 <= count <= _RANGE_CAP:
        raise ArgumentError(f"--range needs 2 <= count <= {_RANGE_CAP}")
    if not hi > lo:
        raise ArgumentError("--range needs hi > lo")
    points = np.linspace(lo, hi, count)
    nonzero = points[points != 0.0]
    if nonzero.size < points.size:
        log.info("dropped %d origin point(s) from the range",
                 points.size - nonzero.size)
    return nonzero


def _config_from_args(args) -> RunConfig:
    grid = GridParams(rho=args.rho, delta=args.delta, m=args.m, sign=args.sign)
    abscissae = None
    if hasattr(args, "range_"):
        abscissae = _parse_range(args.range_)
    return RunConfig(
        command=args.command,
        spec=_load_spec(args),
        grid=grid,
        method=_METHODS[args.method],
        n_samples=args.n_samples,
        seed=args.seed,
        abscissae=abscissae,
        out=args.out,
        grid_in=getattr(args, "grid_in", None),
        out_dir=getattr(args, "out_dir", Path("figures")),
    )


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(path: Path | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(path, text)
        log.info("wrote %s", path)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _require_spec(config: RunConfig) -> DistributionSpec:
    if config.spec is None:
        raise ArgumentError("this command needs --family or --dist")
    return config.spec


def _build_grid(config: RunConfig, spec: DistributionSpec) -> MomentGrid:
    samples = None
    if config.method == "monte_carlo":
        samples = sample(spec, config.n_samples, seed=config.seed)
    return make_grid(spec, config.grid, config.method, samples=samples)


def _cmd_moments(config: RunConfig) -> int:
    spec = _require_spec(config)
    grid = _build_grid(config, spec)
    buf = io.StringIO()
    write_grid_csv(grid, buf, family=spec.family, params=spec.params,
                   method=config.method)
    _emit(config.out, buf.getvalue())
    return 0


def _cmd_reconstruct(config: RunConfig, kind: str) -> int:
    if config.grid_in is not None:
        try:
            with open(config.grid_in) as handle:
                grid, meta = read_grid_csv(handle)
        except OSError as exc:
            raise ArgumentError(f"cannot read {config.grid_in}: {exc}") from None
        family = meta.get("family")
        spec = None
        if family is not None:
            spec = DistributionSpec(str(family), meta.get("params", {}))
            require_usable_rho(spec, grid.params.rho)
    else:
        spec = _require_spec(config)
        family = spec.family
        grid = _build_grid(config, spec)

    curve = sample_curve(grid, kind, config.abscissae, exact_spec=spec)
    buf = io.StringIO()
    write_curve_csv(curve, buf, family=family)
    _emit(config.out, buf.getvalue())
    if curve.abs_err is not None and curve.abs_err.size:
        print(f"{kind}: {curve.abscissae.size} points, "
              f"max abs error = {float(np.max(curve.abs_err)):.6e}")
    else:
        print(f"{kind}: {curve.abscissae.size} points (no exact reference)")
    return 0


def _cmd_verify(config: RunConfig) -> int:
    spec = _require_spec(config)
    checks = identity_suite(spec, config.grid)
    failed = [n for n, d in checks.items() if d > _IDENTITY_TOL]
    width = max(len(n) for n in checks)
    print(f"identity suite: {spec.label()}, rho={config.grid.rho:g}, "
          f"delta={config.grid.delta:g}, m={config.grid.m}")
    for name, dev in checks.items():
        status = "FAIL" if dev > _IDENTITY_TOL else "PASS"
        print(f"  {name:<{width}}  max dev {dev:.3e}  {status}")
    if failed:
        raise QuadratureError(
            f"identity suite failed for: {', '.join(failed)}"
        )
    return 0


def _cmd_strip(config: RunConfig) -> int:
    spec = _require_spec(config)
    print(str(working_strip(spec)))
    return 0


def _cmd_figures(config: RunConfig) -> int:
    out_dir = config.out_dir
    cf_range = np.round(np.arange(0.1, 10.0 + 1e-9, 0.05), 10)

    def curve_csv(name: str, curve, family: str, panel: str | None = None):
        buf = io.StringIO()
        if panel is not None:
            buf.write(f"# panel: {panel}\n")
        write_curve_csv(curve, buf, family=family)
        _atomic_write(out_dir / f"{name}.csv", buf.getvalue())
        err = float(np.max(curve.abs_err)) if curve.abs_err is not None else math.nan
        print(f"{name}.csv  n={curve.abscissae.size}  max_abs_err={err:.6e}")

    # fig3a: the diverging classical baseline, written without a grid
    uni = DistributionSpec("uniform", {"a": 2.0})
    taylor = np.array([classical_taylor_cf(uni, t, 8) for t in cf_range])
    ref = exact_cf(uni, cf_range)
    buf = io.StringIO()
    buf.write("# kind: cf-taylor\n# family: uniform\n# order: 8\n")
    buf.write("x,re,im,exact_re,exact_im,abs_err\n")
    for t, v, e in zip(cf_range.tolist(), taylor.tolist(), ref.tolist()):
        buf.write(f"{t!r},{v.real!r},{v.imag!r},{e.real!r},{e.imag!r},"
                  f"{abs(v - e)!r}\n")
    _atomic_write(out_dir / "fig3a.csv", buf.getvalue())
    print(f"fig3a.csv  n={cf_range.size}  "
          f"max_abs_err={float(np.max(np.abs(taylor - ref))):.6e}")

    def figure(name: str, kind: str, spec: DistributionSpec, lo: float,
               hi: float, step: float, m: int = 25, rho: float = 0.4,
               panels: tuple[str, ...] = ("",)):
        points = np.round(np.arange(lo, hi + 1e-9, step), 10)
        points = points[points != 0.0]
        grid = make_grid(spec, GridParams(rho=rho, delta=0.4, m=m, sign="minus"))
        curve = sample_curve(grid, kind, points, exact_spec=spec)
        for panel in panels:
            label = {"a": "real", "b": "imag"}.get(panel)
            curve_csv(f"{name}{panel}", curve, spec.family, panel=label)

    rayleigh = DistributionSpec("rayleigh", {"sigma": 2.0})
    gaussian = DistributionSpec("gaussian", {"mu": 2.0, "sigma": 1.0})
    figure("fig3b", "cf", uni, 0.1, 20.0, 0.1)
    figure("fig4", "cf", rayleigh, 0.1, 10.0, 0.05, panels=("a", "b"))
    figure("fig5", "cf", DistributionSpec("cauchy"), 0.1, 10.0, 0.05)
    figure("fig6", "cf", DistributionSpec("levy"), 0.1, 10.0, 0.05, rho=0.9,
           panels=("a", "b"))
    figure("fig7", "pdf", gaussian, -2.0, 6.0, 0.05, m=30)
    figure("fig8", "pdf", DistributionSpec("cauchy"), -10.0, 10.0, 0.1, m=10)
    figure("fig9", "pdf", DistributionSpec("levy"), 0.1, 10.0, 0.05, m=10)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run(config: RunConfig) -> int:
    """Execute one parsed configuration; returns the exit status."""
    if config.command == "moments":
        return _cmd_moments(config)
    if config.command == "reconstruct-cf":
        return _cmd_reconstruct(config, "cf")
    if config.command == "reconstruct-pdf":
        return _cmd_reconstruct(config, "pdf")
    if config.command == "verify":
        return _cmd_verify(config)
    if config.command == "strip":
        return _cmd_strip(config)
    if config.command == "figures":
        return _cmd_figures(config)
    raise ArgumentError(f"unknown command {config.command!r}")


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FRACMOM_LOG", "warn").lower()
    level_map = {"error": logging.ERROR, "warn": logging.WARNING,
                 "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=level_map.get(level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")

    if argv is None:
        argv = sys.argv[1:]
    # argparse would mistake a leading-minus range like -10:10:201 for
    # an option; gluing the pair into --range=... sidesteps that
    glued = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok == "--range" and i + 1 < len(argv):
            glued.append(f"--range={argv[i + 1]}")
            skip = True
        else:
            glued.append(tok)

    parser = _build_parser()
    try:
        args = parser.parse_args(glued)
        config = _config_from_args(args)
        status = run(config)
        # a reader that closed stdout early shows up here at the latest
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # nobody reads stdout any more (`| head`): stop quietly, and point
        # stdout at devnull so the flush at interpreter exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except FracmomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
