"""Command-line front end.

Subcommands: ``moments`` (tabulate a grid to CSV), ``reconstruct-cf`` /
``reconstruct-pdf`` (evaluate the series on a point range), ``verify``
(identity suite of the fractional operators against quadrature moments),
``strip`` (print the usable strip, where a grid line may sit) and
``figures`` (one-shot emission of every reproduction curve with pinned
parameters).

Each command accepts only the flags of its groups below; any other flag
is an ``unrecognized arguments`` error.  ``verify`` accepts ``--sign``
and ignores it, since it checks both signs::

    command               dist  grid  build  own flags
    moments                x     x     x
    reconstruct-cf/-pdf    x     x     x     --range, --grid-in
    verify                 x     x
    strip                  x
    figures                                  --out-dir

    dist   --dist PATH.json | --family NAME, --param K=V (repeatable)
    grid   --rho, --delta, --m, --sign
    build  --method, --n-samples, --seed, --out

``--grid-in`` reads the distribution and the grid from the grid CSV, so
it cannot be combined with the dist or grid flags, nor with a build flag
but ``--out`` (not even one passed at its default value).  ``moments``,
``reconstruct-cf/-pdf`` and ``--grid-in`` need rho inside the usable
strip that ``strip`` prints: the family's moment strip intersected with
(0, inf), or (0, inf) itself for a grid CSV without a ``# family:``
line.  ``verify``
needs rho inside the family's moment strip, its mirror image and
(0, 1), because its oracle integrates the density at u^(-gamma) and
u^(+gamma).
``--m`` is at most 10^4 and ``--n-samples`` at most 10^7 (the Monte
Carlo estimator draws each block of 8192 samples where it estimates
it, so it holds about 1 MB of block buffers per process, whatever the
sample count, and runs up to two processes; the bytes written do not
depend on the CPU count).

Exit codes: 0 success, 1 argument/configuration problems (an input
file named by ``--dist``/``--grid-in`` that cannot be read or is not
text, and a path named by ``--out``/``--out-dir`` that cannot be
written, included) or a stdout closed by its reader (``| head``: the
command stops quietly, with nothing on stderr), 2 numerical failure
(quadrature that could not reach its error target; the message names
the operation that failed), 3 internal error (an exception the package
does not raise on purpose: one ``internal error:`` line on stderr, the
traceback under ``FRACMOM_LOG=debug``).  Output files are written
atomically (temp file + rename) and are byte-deterministic for a fixed
configuration and seed.  Set ``FRACMOM_LOG`` to error/warn/info/debug
to adjust verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import sys
import tempfile
from functools import cache, partial
from pathlib import Path

import numpy as np

from .distributions import (
    FAMILIES,
    DistributionSpec,
    exact_cf,
    spec_from_config,
)
from .errors import ArgumentError, FracmomError, QuadratureError
from .fracops import identity_suite
from .moments import (
    GridParams,
    MomentGrid,
    make_grid,
    read_grid_csv,
    working_strip,
    write_grid_csv,
    write_table,
)
from .reconstruct import (
    classical_taylor_cf,
    curve_columns,
    sample_curve,
    write_curve_csv,
)

log = logging.getLogger("fracmom")

_METHODS = {"closed": "closed_form", "quad": "quadrature", "mc": "monte_carlo"}

_IDENTITY_TOL = 1e-4

_RANGE_CAP = 1_000_000

# Defaults of the grid and build flags (``--out`` has none).  The parser
# leaves an omitted flag at None, so ``--grid-in`` can reject each one
# that was passed.
_FLAG_DEFAULTS = {"rho": 0.4, "delta": 0.4, "m": 5, "sign": "minus",
                  "method": "closed", "n_samples": 100_000, "seed": 0}

# The figure set, one row per figure: name, kind, family and parameters,
# points lo..hi by step, m, rho and the a/b panels.  Every grid has
# delta=0.4 and sign=minus; fig3a, the diverging classical Taylor
# baseline, is written without a grid, and its m is the Taylor order.
_FIGURES = (
    ("fig3a", "cf-taylor", "uniform", {"a": 2.0}, (0.1, 10.0, 0.05), 8, None, ""),
    ("fig3b", "cf", "uniform", {"a": 2.0}, (0.1, 20.0, 0.1), 25, 0.4, ""),
    ("fig4", "cf", "rayleigh", {"sigma": 2.0}, (0.1, 10.0, 0.05), 25, 0.4, "ab"),
    ("fig5", "cf", "cauchy", {}, (0.1, 10.0, 0.05), 25, 0.4, ""),
    ("fig6", "cf", "levy", {}, (0.1, 10.0, 0.05), 25, 0.9, "ab"),
    ("fig7", "pdf", "gaussian", {"mu": 2.0, "sigma": 1.0}, (-2.0, 6.0, 0.05), 30, 0.4, ""),
    ("fig8", "pdf", "cauchy", {}, (-10.0, 10.0, 0.1), 10, 0.4, ""),
    ("fig9", "pdf", "levy", {}, (0.1, 10.0, 0.05), 10, 0.4, ""),
)


def _figure_help() -> str:
    # the figures --help epilog: one line per row of _FIGURES
    row = "  {:<9}{:<11}{:<25}{:<15}{}".format
    lines = ["figure parameters (every grid: delta=0.4, sign=minus):",
             row("file", "kind", "distribution", "series", "points")]
    for name, kind, family, params, (lo, hi, step), m, rho, panels in _FIGURES:
        series = f"order {m}" if rho is None else f"m={m}, rho={rho:g}"
        lines.append(row(name + "/".join(panels), kind, DistributionSpec(family, params).label(),
                         series, f"{lo:g}..{hi:g} step {step:g}"))
    return "\n".join(lines + ["A PDF grid's m counts each conjugate pair of moments once "
                               "(see the README's accuracy notes)."])


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the
    # package's validation error instead so the CLI contract (1 =
    # validation) holds.
    def error(self, message):
        raise ArgumentError(message)


# one parser per process, for callers that run many commands in one
# (perfbench does): parsing leaves it unchanged, since every flag that
# can repeat copies its default
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="fracmom", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups; each command takes only the groups it reads
    dist = argparse.ArgumentParser(add_help=False)
    which = dist.add_mutually_exclusive_group()
    which.add_argument("--dist", type=Path, metavar="PATH.json",
                       help="distribution config file")
    which.add_argument("--family", choices=FAMILIES)
    dist.add_argument("--param", action="append", default=[],
                      metavar="K=V", help="family parameter (repeatable)")
    # grid and build flags default to None; _flag supplies the defaults
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--rho", type=float)
    grid.add_argument("--delta", type=float)
    grid.add_argument("--m", type=int)
    grid.add_argument("--sign", choices=("plus", "minus"))
    build = argparse.ArgumentParser(add_help=False)
    build.add_argument("--method", choices=tuple(_METHODS))
    build.add_argument("--n-samples", type=int)
    build.add_argument("--seed", type=int)
    build.add_argument("--out", type=Path, metavar="PATH.csv")

    p = sub.add_parser("moments", parents=[dist, grid, build],
                       help="tabulate a moment grid as CSV")
    p.set_defaults(run=_cmd_moments)

    for kind in ("cf", "pdf"):
        p = sub.add_parser(f"reconstruct-{kind}", parents=[dist, grid, build],
                           help=f"evaluate the {kind.upper()} series on a range")
        p.add_argument("--range", dest="range_", metavar="LO:HI:COUNT",
                       default="0.1:10:100",
                       help="evaluation points (0 is dropped if hit)")
        p.add_argument("--grid-in", type=Path, metavar="PATH.csv",
                       help="reuse a grid CSV instead of rebuilding")
        p.set_defaults(run=partial(_cmd_reconstruct, kind=kind))

    p = sub.add_parser("verify", parents=[dist, grid],
                       help="fractional-operator identity suite vs quadrature")
    p.set_defaults(run=_cmd_verify)
    p = sub.add_parser("strip", parents=[dist],
                       help="print the usable line-abscissa interval")
    p.set_defaults(run=_cmd_strip)

    # no abbreviations here, or --out would pass for --out-dir
    p = sub.add_parser("figures", allow_abbrev=False,
                       help="emit all reproduction curves",
                       epilog=_figure_help(),
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out-dir", type=Path, default=Path("figures"))
    p.set_defaults(run=_cmd_figures)
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


def _read_text(path: Path) -> str:
    # the one reader of an input file: a file that cannot be read or
    # decoded is an argument error
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from None


def _load_spec(args) -> DistributionSpec | None:
    if args.dist is not None:
        if args.param:
            raise ArgumentError("--param cannot be combined with --dist")
        text = _read_text(args.dist)
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
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
    if not math.isfinite(hi - lo):
        raise ArgumentError("--range needs finite LO, HI and HI - LO")
    if not hi > lo:
        raise ArgumentError("--range needs hi > lo")
    points = np.linspace(lo, hi, count)
    nonzero = points[points != 0.0]
    if nonzero.size < points.size:
        log.info("dropped %d origin point(s) from the range",
                 points.size - nonzero.size)
    return nonzero


def _flag(args, name: str):
    value = getattr(args, name)
    return _FLAG_DEFAULTS[name] if value is None else value


def _grid_params(args) -> GridParams:
    names = ("rho", "delta", "m", "sign")
    return GridParams(**{name: _flag(args, name) for name in names})


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------


def _emit(path: Path | None, write) -> None:
    # the one place an output is rendered and sent: ``write(out)`` into
    # a buffer, then to stdout, or to ``path`` atomically (a temp file
    # and a rename)
    buf = io.StringIO()
    write(buf)
    if path is None:
        sys.stdout.write(buf.getvalue())
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc}") from None
    log.info("wrote %s", path)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _require_spec(args) -> DistributionSpec:
    spec = _load_spec(args)
    if spec is None:
        raise ArgumentError("this command needs --family or --dist")
    return spec


def _build_grid(args, spec: DistributionSpec, params: GridParams) -> MomentGrid:
    return make_grid(spec, params, _METHODS[_flag(args, "method")],
                     n_samples=_flag(args, "n_samples"), seed=_flag(args, "seed"))


def _cmd_moments(args) -> int:
    params = _grid_params(args)
    spec = _require_spec(args)
    grid = _build_grid(args, spec, params)
    _emit(args.out, partial(write_grid_csv, grid, method=_METHODS[_flag(args, "method")]))
    return 0


def _cmd_reconstruct(args, kind: str) -> int:
    params = _grid_params(args) if args.grid_in is None else None
    abscissae = _parse_range(args.range_)
    if args.grid_in is None:
        grid = _build_grid(args, _require_spec(args), params)
    else:
        # the spec is still read first, so a bad one keeps its own error
        if _load_spec(args) is not None or args.param:
            raise ArgumentError("--grid-in cannot be combined with --dist, "
                                "--family or --param")
        # the grid and how it was built come from the CSV too
        passed = [f"--{name.replace('_', '-')}" for name in _FLAG_DEFAULTS
                  if getattr(args, name) is not None]
        if passed:
            raise ArgumentError(f"--grid-in cannot be combined with "
                                f"{', '.join(passed)}")
        grid = read_grid_csv(_read_text(args.grid_in).splitlines())[0]

    curve = sample_curve(grid, kind, abscissae)
    _emit(args.out, partial(write_curve_csv, curve))
    if curve.abs_err is not None and curve.abs_err.size:
        print(f"{kind}: {curve.abscissae.size} points, "
              f"max abs error = {float(np.max(curve.abs_err)):.6e}")
    else:
        print(f"{kind}: {curve.abscissae.size} points (no exact reference)")
    return 0


def _cmd_verify(args) -> int:
    params = _grid_params(args)
    spec = _require_spec(args)
    checks = identity_suite(spec, params)
    failed = [n for n, d in checks.items() if d > _IDENTITY_TOL]
    width = max(len(n) for n in checks)
    print(f"identity suite: {spec.label()}, rho={params.rho:g}, "
          f"delta={params.delta:g}, m={params.m}")
    for name, dev in checks.items():
        status = "FAIL" if dev > _IDENTITY_TOL else "PASS"
        print(f"  {name:<{width}}  max dev {dev:.3e}  {status}")
    if failed:
        raise QuadratureError(
            f"identity suite failed for: {', '.join(failed)}"
        )
    return 0


def _cmd_strip(args) -> int:
    spec = _require_spec(args)
    print(str(working_strip(spec)))
    return 0


def _points(lo: float, hi: float, step: float) -> np.ndarray:
    # a figure's abscissae: lo to hi by step, rounded to 10 decimals,
    # without the origin
    points = np.round(np.arange(lo, hi + 1e-9, step), 10)
    return points[points != 0.0]


def _cmd_figures(args) -> int:
    for name, kind, family, params, (lo, hi, step), m, rho, panels in _FIGURES:
        spec, points = DistributionSpec(family, params), _points(lo, hi, step)
        if rho is None:
            head = {"kind": kind, "family": family, "order": m}
            taylor = np.array([classical_taylor_cf(spec, t, m) for t in points])
            columns = curve_columns(points, taylor, exact_cf(spec, points))
        else:
            grid = make_grid(spec, GridParams(rho=rho, delta=0.4, m=m, sign="minus"))
            curve = sample_curve(grid, kind, points)
            head, columns = curve.head(), curve_columns(points, curve.values, curve.exact)
        # one file per panel (a panel's line comes first) and its summary line
        for panel in panels or [""]:
            panel_head = {"panel": {"a": "real", "b": "imag"}.get(panel), **head}
            _emit(args.out_dir / f"{name}{panel}.csv",
                  partial(write_table, head=panel_head, columns=columns))
            print(f"{name}{panel}.csv  n={points.size}  "
                  f"max_abs_err={float(np.max(columns['abs_err'])):.6e}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def _glue_range(argv: list[str]) -> list[str]:
    # argparse would mistake a leading-minus range like -10:10:201 for
    # an option; gluing the pair into --range=... sidesteps that
    glued, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--range" else None
        glued.append(tok if value is None else f"--range={value}")
    return glued


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("FRACMOM_LOG", "warn").lower()
    level_map = {"error": logging.ERROR, "warn": logging.WARNING,
                 "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=level_map.get(level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")

    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_glue_range(argv))
        status = args.run(args)
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
    except Exception as exc:
        # not raised on purpose, so a defect: one line, traceback at debug
        log.debug("unexpected failure", exc_info=True)
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
