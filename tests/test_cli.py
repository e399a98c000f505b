"""End-to-end command-line behaviour, run in-process through main().

The contract under test: exit code 0/1/2 split (success / bad
configuration / numerical failure), byte-deterministic output files,
and bit-identical results whether a grid is built in-process or passed
back in through ``--grid-in``.
"""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fracmom
from fracmom.cli import _build_parser, _parse_range, main
from fracmom.distributions import FAMILIES, DistributionSpec
from fracmom.errors import ArgumentError, StripError
from fracmom.moments import suggest_truncation


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# moments
# ----------------------------------------------------------------------


def test_moments_to_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, err = _run(
        ["moments", "--family", "rayleigh", "--param", "sigma=2",
         "--m", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0 and err == ""
    text = out.read_text()
    assert "# family: rayleigh" in text
    assert '# params: {"sigma": 2.0}' in text
    assert "# sign: minus" in text
    assert "k,rho,eta,re,im" in text
    body = [l for l in text.strip().split("\n") if not l.startswith("#")]
    assert len(body) == 1 + 7  # header + 2m+1 rows


def test_moments_to_stdout(capsys):
    code, out, _ = _run(["moments", "--family", "cauchy", "--m", "1"], capsys)
    assert code == 0
    assert "k,rho,eta,re,im" in out


def test_moments_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["moments", "--family", "gaussian", "--m", "4", "--method", "quad"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_moments_monte_carlo_seeded(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["moments", "--family", "uniform", "--m", "2", "--method", "mc",
            "--n-samples", "20000"]
    assert main(base + ["--seed", "42", "--out", str(a)]) == 0
    assert main(base + ["--seed", "42", "--out", str(b)]) == 0
    assert main(base + ["--seed", "43", "--out", str(c)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize(
    "family,m,gamma",
    [("uniform", "1300", "(0.4-520j)"), ("rayleigh", "2300", "(0.4-920j)")],
    ids=["uniform", "rayleigh"],
)
def test_moments_out_of_double_range_is_typed(family, m, gamma, capsys):
    # with delta = 0.4 the first node 0.4 - i m delta is past where the
    # moment itself leaves double range: |Im gamma| ~ 452 for the
    # uniform cosine, ~ 901 for Rayleigh(sigma=2)
    code, _, err = _run(
        ["moments", "--family", family, "--m", m, "--delta", "0.4"], capsys
    )
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"gamma = {gamma}" in err


@pytest.mark.parametrize(
    "family,want",
    [
        ("levy", 10.322057817870423 - 20.293968595798543j),
        ("rayleigh", 1.9302317433813654e178 - 6.923429970263232e177j),
    ],
    ids=["levy", "rayleigh"],
)
def test_moments_past_the_phase_overflow(family, want, capsys):
    # at |Im gamma| = 520 the half-line phase exp(pi |Im gamma| / 2)
    # alone leaves double range, the moment does not; ``want`` is the
    # k = -1300 moment from 30-digit mpmath
    code, out, err = _run(
        ["moments", "--family", family, "--m", "1300", "--delta", "0.4"], capsys
    )
    assert code == 0 and err == ""
    row = next(l for l in out.splitlines() if l.startswith("-1300,"))
    re, im = (float(v) for v in row.split(",")[3:])
    assert abs(complex(re, im) - want) <= 1e-12 * abs(want)


def test_moments_cauchy_large_m(capsys):
    code, out, _ = _run(
        ["moments", "--family", "cauchy", "--m", "1300", "--delta", "0.4"], capsys
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 2601  # header + 2m+1 rows


def test_moments_infinite_delta_is_validation(capsys):
    """delta = inf used to pass GridParams, warn in nodes() and then
    fail with a misleading Re(gamma) = nan strip error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(
            ["moments", "--family", "cauchy", "--delta", "inf", "--m", "1"],
            capsys,
        )
    assert code == 1
    assert out == ""
    assert err == "error: delta must be finite and > 0\n"
    assert caught == []


def test_dist_config_file(tmp_path, capsys):
    cfg = tmp_path / "dist.json"
    cfg.write_text(json.dumps({"family": "rayleigh", "params": {"sigma": 2.0}}))
    out = tmp_path / "grid.csv"
    code, _, _ = _run(
        ["moments", "--dist", str(cfg), "--m", "2", "--out", str(out)], capsys
    )
    assert code == 0
    assert "# family: rayleigh" in out.read_text()


# ----------------------------------------------------------------------
# reconstruct round trip
# ----------------------------------------------------------------------


def test_reconstruct_roundtrip_bitwise(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    direct = tmp_path / "direct.csv"
    via = tmp_path / "via.csv"
    fam = ["--family", "rayleigh", "--param", "sigma=2", "--m", "6"]
    assert main(["moments", *fam, "--out", str(grid)]) == 0
    assert main(
        ["reconstruct-cf", *fam, "--range", "0.5:3:6", "--out", str(direct)]
    ) == 0
    assert main(
        ["reconstruct-cf", "--grid-in", str(grid), "--range", "0.5:3:6",
         "--out", str(via)]
    ) == 0
    capsys.readouterr()
    assert direct.read_bytes() == via.read_bytes()


def test_reconstruct_pdf_smoke_cauchy(tmp_path, capsys):
    """Five node pairs are enough for 1e-2 absolute accuracy away from
    the origin on the heavy-tailed symmetric case."""
    out = tmp_path / "pdf.csv"
    code, stdout, _ = _run(
        ["reconstruct-pdf", "--family", "cauchy", "--m", "5",
         "--range", "-10:10:201", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert "max abs error" in stdout
    reported = float(stdout.strip().split("=")[-1])
    assert reported <= 1e-2
    # x = 0 is dropped: 200 data rows remain
    body = [l for l in out.read_text().strip().split("\n")
            if not l.startswith("#")][1:]
    assert len(body) == 200
    assert not any(row.startswith("0.0,") for row in body)


@pytest.mark.parametrize("case", ["one_row", "nan", "eta"])
def test_reconstruct_rejects_bad_grid_csv(tmp_path, capsys, case):
    """A one-row grid used to end in an IndexError traceback, and NaN
    values or an eta off k*delta in a NaN curve with exit 0."""
    rows = [f"{k},0.4,{0.4 * k!r},1.0,0.0" for k in range(-2, 3)]
    if case == "one_row":
        rows = ["0,0.4,0.0,1.0,0.0"]
    elif case == "nan":
        rows[3] = "1,0.4,0.4,nan,0.0"
    else:
        rows[4] = "2,0.4,1.3,1.0,0.0"
    grid = tmp_path / "grid.csv"
    grid.write_text("# sign: minus\nk,rho,eta,re,im\n" + "\n".join(rows) + "\n")
    out = tmp_path / "cf.csv"
    code, _, err = _run(["reconstruct-cf", "--grid-in", str(grid),
                         "--range", "0.5:3:6", "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("error: grid CSV")
    assert not out.exists()


def _cauchy_grid_csv(tmp_path, rho, family_line=True):
    rows = [f"{k},{rho!r},{0.4 * k!r},1.0,0.0" for k in range(-2, 3)]
    head = "# family: cauchy\n" if family_line else ""
    grid = tmp_path / "grid.csv"
    grid.write_text(head + "# sign: minus\nk,rho,eta,re,im\n"
                    + "\n".join(rows) + "\n")
    return grid


@pytest.mark.parametrize("kind", ["cf", "pdf"])
def test_reconstruct_checks_grid_csv_rho_against_strip(tmp_path, capsys, kind):
    """A cauchy grid moved to rho = 1.5, outside its strip (-1, 1), used
    to give a wrong curve with exit 0."""
    grid = _cauchy_grid_csv(tmp_path, 1.5)
    code, _, err = _run([f"reconstruct-{kind}", "--grid-in", str(grid),
                         "--range", "0.5:3:6"], capsys)
    assert code == 1
    assert err.startswith("error: rho = 1.5 outside usable strip")


@pytest.mark.parametrize("rho", [-0.5, 0.0])
@pytest.mark.parametrize("kind", ["cf", "pdf"])
def test_grid_csv_without_family_needs_a_positive_line(tmp_path, capsys, kind, rho):
    """With no family line the usable strip is (0, inf).  At rho = -0.5
    such a grid used to rebuild CF - 1 with exit 0."""
    grid = _cauchy_grid_csv(tmp_path, rho, family_line=False)
    code, out, err = _run([f"reconstruct-{kind}", "--grid-in", str(grid),
                           "--range", "0.5:3:6"], capsys)
    assert _one_error_line(code, out, err)
    assert err == f"error: rho = {rho} outside usable strip (0, inf)\n"


def test_grid_csv_without_family_has_no_reference(tmp_path, capsys):
    """A grid CSV with no family line inside (0, inf) rebuilds a curve
    with empty reference columns and says so."""
    grid = _cauchy_grid_csv(tmp_path, 0.4, family_line=False)
    out = tmp_path / "cf.csv"
    code, stdout, err = _run(["reconstruct-cf", "--grid-in", str(grid),
                              "--range", "0.5:3:6", "--out", str(out)], capsys)
    assert (code, stdout, err) == (0, "cf: 6 points (no exact reference)\n", "")
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(body) == 6
    assert all(row.endswith(",,,") for row in body)


def test_grid_in_missing_file_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "nothere.csv"
    code, out, err = _run(["reconstruct-cf", "--grid-in", str(missing)], capsys)
    assert _one_error_line(code, out, err)
    assert err.startswith(f"error: cannot read {missing}: ")


def _grid_csv(path, family, rho):
    rows = [f"{k},{rho!r},{0.4 * k!r},1.0,0.0" for k in range(-2, 3)]
    path.write_text(f"# family: {family}\n# sign: minus\nk,rho,eta,re,im\n"
                    + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("family", FAMILIES)
def test_strip_bounds_every_line_check(family, tmp_path, capsys):
    """``strip`` prints the usable strip.  Nudged inward, both of its
    ends are accepted by ``moments --rho``, by ``--grid-in`` and by
    suggest_truncation; nudged outward, each of the three refuses them.
    An infinite end stands in as 4 past the other end inward, and as
    inf itself outward."""
    code, out, _ = _run(["strip", "--family", family], capsys)
    assert code == 0
    lo, hi = (float(end) for end in out.strip()[1:-1].split(", "))
    spec = DistributionSpec(family)
    nudge = 1e-6
    grid = tmp_path / "grid.csv"
    for rho in (lo + nudge, (hi if math.isfinite(hi) else lo + 4.0) - nudge):
        code, _, err = _run(["moments", "--family", family, f"--rho={rho!r}",
                             "--out", str(grid)], capsys)
        assert (code, err) == (0, ""), rho
        code, _, err = _run(["reconstruct-cf", "--grid-in", str(grid),
                             "--range", "0.5:3:6"], capsys)
        assert (code, err) == (0, ""), rho
        suggest_truncation(spec, rho, 0.4, "minus", 1e-6)
    for rho in (lo - nudge, hi + nudge):
        argv = ["moments", "--family", family, f"--rho={rho!r}"]
        assert _one_error_line(*_run(argv, capsys)), rho
        argv = ["reconstruct-cf", "--grid-in", str(_grid_csv(grid, family, rho))]
        assert _one_error_line(*_run(argv, capsys)), rho
        with pytest.raises(StripError):
            suggest_truncation(spec, rho, 0.4, "minus", 1e-6)


@pytest.mark.parametrize("case", ["pdf_csv_rho_300", "csv_rho_180"])
def test_reconstruct_non_finite_series_is_typed(tmp_path, capsys, case):
    """Series whose weights or kernels leave double range used to print
    NumPy overflow warnings and a NaN curve with exit 0."""
    if case == "pdf_csv_rho_300":
        # the anchor |x|^(rho - 1) leaves double range past x ~ 10.7
        rho, argv = 300.5, ["reconstruct-pdf", "--range", "1:20:5"]
    else:
        # Gamma(180 + ...) overflows
        rho, argv = 180.0, ["reconstruct-cf"]
    # no family line, so no strip check
    argv += ["--grid-in", str(_cauchy_grid_csv(tmp_path, rho, family_line=False))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "series is not finite at x = " in err
    assert len(err.splitlines()) == 1


def test_reconstruct_range_validation(capsys):
    for bad in ("1:2", "1:2:1", "2:1:5", "a:b:c"):
        code, _, err = _run(
            ["reconstruct-cf", "--family", "cauchy", "--range", bad], capsys
        )
        assert code == 1, bad
        assert "error:" in err


def test_closed_stdout_exits_quietly():
    """A reader that stops after one line (`| head -1`) used to leave a
    BrokenPipeError traceback on stderr."""
    src = str(Path(fracmom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fracmom.cli", "reconstruct-cf", "--family", "cauchy",
         "--range", "0.1:10:200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"# kind: cf\n"
    assert proc.returncode == 1
    assert err == b""


def test_range_count_cap():
    # parsing only: no grid and no curve is built at the cap
    assert _parse_range("1:2:1000000").size == 1_000_000
    with pytest.raises(ArgumentError, match="count"):
        _parse_range("1:2:1000001")


@pytest.mark.parametrize(
    "argv",
    [["reconstruct-cf", "--family", "cauchy", "--range", "1:2:1000001"],
     ["moments", "--family", "cauchy", "--m", "10001"],
     # numpy refuses these two sizes before allocating; they used to end
     # in "internal error: ValueError: ..." with exit 3
     *(["moments", "--family", "cauchy", "--method", "mc", "--n-samples", n]
       for n in ("100000000000000000000", "9223372036854775807"))],
)
def test_caps_give_one_error_line(argv, capsys):
    # every cap is checked before any work
    code, out, err = _run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["moments", "--family", "cauchy", "--delta", "1e308", "--m", "3"],
     *(["reconstruct-cf", "--family", "cauchy", f"--range={bad}"]
       for bad in ("1:inf:5", "-inf:1:5", "nan:1:5", "-1.7e308:1.7e308:5"))],
)
def test_overflowing_grid_or_range_gives_one_error_line(argv, capsys):
    # a grid reach or a range that leaves double range used to print a
    # NumPy warning and go on with inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, code", [
    (["reconstruct-pdf", "--family", "rayleigh", "--param", "sigma=1e200",
      "--range", "1:2:3"], 0),
    # the density lies past the quadrature panels' reach: its mass is
    # refused, where it used to give a PASS on moments of 0
    (["verify", "--family", "rayleigh", "--param", "sigma=1e200"], 2),
    (["reconstruct-pdf", "--family", "rayleigh", "--param", "sigma=9.78e-300",
      "--range", "1e-300:2e-300:3"], 0),
], ids=["large", "large-verify", "small"])
def test_rayleigh_extreme_scales_are_finite(argv, code, capsys):
    # sigma^2 is past double range at the large scale and 0 at the small
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = _run(argv, capsys)
    assert got == code
    if code == 0:
        assert err == ""
        assert "nan" not in out and "inf" not in out
    else:
        assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1


def test_gaussian_verify_past_double_range_gives_one_line(capsys):
    # mu t leaves double range in the CF; its RuntimeWarning used to
    # leak before the typed failure line
    argv = ["verify", "--family", "gaussian", "--param", "mu=-7e300",
            "--param", "sigma=4e-20"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = _run(argv, capsys)
    assert code == 2
    assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1


def test_reconstruct_needs_a_distribution(capsys):
    code, _, err = _run(["reconstruct-cf", "--range", "1:2:3"], capsys)
    assert code == 1
    assert "family" in err or "dist" in err


def test_reconstruct_pdf_rejects_plus_grid(capsys):
    code, _, err = _run(
        ["reconstruct-pdf", "--family", "cauchy", "--sign", "plus",
         "--range", "1:2:3"],
        capsys,
    )
    assert code == 1


# ----------------------------------------------------------------------
# strip / verify
# ----------------------------------------------------------------------


def test_strip_output(capsys):
    code, out, _ = _run(["strip", "--family", "cauchy"], capsys)
    assert code == 0 and out.strip() == "(0, 1)"
    code, out, _ = _run(["strip", "--family", "gaussian"], capsys)
    assert code == 0 and out.strip() == "(0, 1)"


def test_verify_cauchy_table(capsys):
    code, out, _ = _run(["verify", "--family", "cauchy", "--m", "2"], capsys)
    assert code == 0
    for row in ("rl_integral_plus", "marchaud_minus", "riesz_derivative",
                "riesz_integral", "mellin_two_path"):
        assert row in out
    assert "FAIL" not in out
    assert out.count("PASS") == 7


@pytest.mark.parametrize("argv", [
    # a CF that decays only at 1/sigma: Wynn used to extrapolate the
    # panel sums before it
    "--family rayleigh --param sigma=1e-6",
    # a sinc whose first zero lies far past 1: an unestimated head piece
    # used to reach it
    "--family uniform --param a=0.01",
    # slow geometric tails lie far from their last sum: a bound on Wynn's
    # reach by a flat multiple of the plain estimate refused these
    "--family gaussian --rho 0.01", "--family gaussian --rho 0.99",
    "--family uniform --rho 0.01", "--family uniform --rho 0.99",
    "--family cauchy --rho 0.01",
])
def test_verify_passes_every_row(argv, capsys):
    code, out, err = _run(["verify", *argv.split()], capsys)
    assert (code, err) == (0, "")
    assert out.count("PASS") == 7


def test_verify_keeps_every_oracle_estimate(capsys):
    """No quadrature in verify may warn and carry on: every oracle and
    operator estimate is checked against its target instead."""
    import warnings

    from scipy.integrate import IntegrationWarning

    params = {"uniform": ["--param", "a=2"], "rayleigh": ["--param", "sigma=2"],
              "cauchy": [], "levy": [],
              "gaussian": ["--param", "mu=2", "--param", "sigma=1"]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for family, extra in params.items():
            code, out, _ = _run(["verify", "--family", family, *extra,
                                 "--m", "2"], capsys)
            assert code == 0, family
            assert out.count("PASS") == 7, family
    assert not [w for w in caught if issubclass(w.category, IntegrationWarning)]


def test_far_rho_is_a_verify_strip_error_and_a_quiet_quadrature_nan(capsys):
    """At Re gamma = 180 the power u^(-gamma) overflows near u = 0.
    ``verify`` rejects that rho before any quadrature, and
    ``moment_quadrature`` reports its NaN estimate once, as a numerical
    failure; NumPy used to print four RuntimeWarnings before it."""
    from fracmom import DistributionSpec, GridParams, moment_quadrature
    from fracmom.errors import QuadratureError

    levy = DistributionSpec("levy")
    nodes = GridParams(rho=180.0, delta=0.4, m=2).nodes()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(["verify", "--family", "levy", "--rho", "180",
                               "--m", "2"], capsys)
        with pytest.raises(QuadratureError,
                           match="^moment quadrature estimate nan"):
            moment_quadrature(levy, nodes, "minus")
    assert (code, out) == (1, "")
    assert err == "error: rho = 180.0 outside identity-suite strip (0, 0.5) of levy\n"
    assert caught == []


@pytest.mark.parametrize(
    "family, rho, strip, label",
    [("cauchy", "1.5", "(0, 1)", "cauchy"), ("levy", "0.6", "(0, 0.5)", "levy"),
     ("uniform", "-0.2", "(0, 1)", "uniform(a=2)"),
     ("gaussian", "1.0", "(0, 1)", "gaussian(mu=2, sigma=1)")],
)
def test_verify_checks_rho_against_the_oracle_strip(family, rho, strip, label,
                                                    capsys, monkeypatch):
    """The oracle integrates the density at u^(-gamma) and u^(+gamma), so
    rho must lie in the moment strip and its mirror image.  cauchy at 1.5
    used to end in a quadrature-estimate line (exit 2); levy at 0.6 passed
    all seven rows on the analytic continuation of a divergent integral."""
    import fracmom.fracops

    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(fracmom.fracops, "half_line_integrals", no_quadrature)
    code, out, err = _run(["verify", "--family", family, "--rho", rho], capsys)
    assert (code, out) == (1, "")
    assert err == (f"error: rho = {float(rho)} outside identity-suite strip "
                   f"{strip} of {label}\n")


# ----------------------------------------------------------------------
# exit codes and validation
# ----------------------------------------------------------------------


def test_unknown_family_is_validation_error(capsys):
    code, _, err = _run(["moments", "--family", "nosuch"], capsys)
    assert code == 1
    assert "error:" in err


def test_bad_param_syntax(capsys):
    for bad in ("sigma", "sigma=abc", "=2"):
        code, _, err = _run(
            ["moments", "--family", "rayleigh", "--param", bad], capsys
        )
        assert code == 1, bad


def test_param_conflicts_with_dist(tmp_path, capsys):
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"family": "cauchy", "params": {}}))
    code, _, err = _run(
        ["moments", "--dist", str(cfg), "--param", "a=1"], capsys
    )
    assert code == 1


def _one_error_line(code, out, err):
    return code == 1 and out == "" and err.startswith("error: ") \
        and len(err.splitlines()) == 1


@pytest.mark.parametrize("params", [{"sigma": "x"}, {"sigma": None}, 5])
def test_dist_file_with_bad_params_is_validation(tmp_path, capsys, params):
    # "x" used to end in a raw ValueError, null in a raw TypeError
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"family": "rayleigh", "params": params}))
    assert _one_error_line(*_run(["moments", "--dist", str(cfg)], capsys))


@pytest.mark.parametrize(
    "family,param",
    [("rayleigh", "sigma=inf"), ("uniform", "a=inf"), ("gaussian", "mu=nan")],
)
def test_non_finite_param_is_validation(capsys, family, param):
    # infinite scales used to write an all-zero grid with exit 0, and
    # mu = nan to be reported as a double-precision overflow
    code, out, err = _run(["moments", "--family", family, "--param", param], capsys)
    assert _one_error_line(code, out, err)
    assert "must be a finite real number" in err


def test_grid_csv_with_non_mapping_params_is_validation(tmp_path, capsys):
    # 5 used to end in TypeError: 'int' object is not iterable; a line
    # that is not JSON is kept as its text, which is no mapping either
    rows = [f"{k},0.4,{0.4 * k!r},1.0,0.0" for k in range(-2, 3)]
    grid = tmp_path / "grid.csv"
    for params in ("5", "{sigma: 2"):
        grid.write_text(f"# family: cauchy\n# params: {params}\n# sign: minus\n"
                        "k,rho,eta,re,im\n" + "\n".join(rows) + "\n")
        code, out, err = _run(["reconstruct-cf", "--grid-in", str(grid),
                               "--range", "0.5:3:6"], capsys)
        assert _one_error_line(code, out, err), params
        assert "params must be a mapping" in err, params


def test_rho_outside_strip_is_validation(capsys):
    code, _, err = _run(
        ["moments", "--family", "cauchy", "--rho", "1.5"], capsys
    )
    assert code == 1


def test_numerical_failure_exit_two(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = _run(
        ["moments", "--family", "cauchy", "--rho", "0.999999999",
         "--method", "quad", "--m", "1", "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "numerical failure" in err
    assert "quadrature" in err  # names the failing operation
    assert not out.exists()  # atomic write: no partial file


def test_missing_dist_file(capsys):
    code, _, err = _run(["moments", "--dist", "/no/such/file.json"], capsys)
    assert code == 1


def test_dist_file_of_invalid_json_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "d.json"
    cfg.write_text("{family: cauchy")
    code, out, err = _run(["moments", "--dist", str(cfg)], capsys)
    assert _one_error_line(code, out, err)
    assert err.startswith(f"error: {cfg}: invalid JSON (")


def test_verify_row_over_tolerance_exits_two(monkeypatch, capsys):
    """A row over 1e-4 is printed FAIL, and the suite ends in a
    numerical failure that names it."""
    rows = {"rl_integral_plus": 1e-9, "riesz_integral": 2e-4}
    monkeypatch.setattr(fracmom.cli, "identity_suite", lambda spec, params: rows)
    code, out, err = _run(["verify", "--family", "cauchy"], capsys)
    assert code == 2
    assert out.splitlines()[1:] == [
        "  rl_integral_plus  max dev 1.000e-09  PASS",
        "  riesz_integral    max dev 2.000e-04  FAIL"]
    assert err == "numerical failure: identity suite failed for: riesz_integral\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------


def test_figures_full_set(tmp_path, capsys):
    code, out, _ = _run(
        ["figures", "--out-dir", str(tmp_path / "figs")], capsys
    )
    assert code == 0
    names = [f"fig{n}.csv" for n in
             ("3a", "3b", "4a", "4b", "5", "6a", "6b", "7", "8", "9")]
    assert sorted(p.name for p in (tmp_path / "figs").iterdir()) == names
    # one summary line per file, in name order
    assert [line.split()[0] for line in out.splitlines()] == names
    # the summary lines carry the achieved errors; spot-check two
    for line in out.strip().split("\n"):
        if line.startswith("fig7.csv"):
            assert float(line.split("=")[-1]) <= 1e-2
        if line.startswith("fig5.csv"):
            assert float(line.split("=")[-1]) <= 1e-2


def test_figures_fig3a_rows_are_the_taylor_baseline(tmp_path, capsys):
    from fracmom.distributions import exact_cf
    from fracmom.reconstruct import classical_taylor_cf

    assert main(["figures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "fig3a.csv").read_text().splitlines()
    assert lines[:4] == ["# kind: cf-taylor", "# family: uniform", "# order: 8",
                         "x,re,im,exact_re,exact_im,abs_err"]
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 199
    theta = [float(row[0]) for row in rows]
    assert theta[0] == 0.1 and theta[-1] == 10.0
    uniform = DistributionSpec("uniform", {"a": 2.0})
    exact = exact_cf(uniform, np.array(theta)).tolist()
    for row, t, e in zip(rows, theta, exact):
        v = classical_taylor_cf(uniform, t, 8)
        assert row == [repr(t), repr(v.real), repr(v.imag), repr(e.real),
                       repr(e.imag), repr(abs(v - e))]


# ----------------------------------------------------------------------
# flag surface: each command takes only the flags it reads
# ----------------------------------------------------------------------


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["strip", "--family", "cauchy", "--m", "0"],
        ["strip", "--family", "cauchy", "--out", "OUT"],
        ["verify", "--family", "cauchy", "--method", "mc"],
        ["verify", "--family", "cauchy", "--n-samples", "10"],
        ["verify", "--family", "cauchy", "--seed", "1"],
        ["verify", "--family", "cauchy", "--out", "OUT"],
        ["figures", "--out-dir", "OUT", "--family", "levy"],
        ["figures", "--out-dir", "OUT", "--m", "99"],
        ["figures", "--out", "OUT"],
    ],
    ids=["strip-m", "strip-out", "verify-method", "verify-n-samples",
         "verify-seed", "verify-out", "figures-family", "figures-m",
         "figures-out"],
)
def test_flags_a_command_does_not_read_are_rejected(argv, tmp_path, monkeypatch,
                                                    capsys):
    # each used to be accepted and ignored; figures --out must also not
    # pass as an abbreviation of --out-dir
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    code, out, err = _run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: unrecognized arguments: ")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def _parse(argv):
    from fracmom.cli import _build_parser, _glue_range

    return _build_parser().parse_args(_glue_range(argv))


def test_benchmark_and_script_argv_still_parse(tmp_path, monkeypatch):
    import importlib.util

    import fracmom.cli

    seen = []
    monkeypatch.setattr(fracmom.cli, "main", lambda argv: seen.append(argv) or 0)

    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for workload in ("identity", "reconstruct", "montecarlo"):
        for op in workloads.build(workload, 1, tmp_path):
            if op.cli:
                op.invoke()
    # 5 verify; 5 grids and 8 curves plus figures; 3 grids and 5 curves
    assert len(seen) == 5 + 14 + 8
    for argv in seen:
        _parse(argv)
    assert {argv[0] for argv in seen} == {
        "verify", "moments", "reconstruct-cf", "reconstruct-pdf", "figures"}


def test_readme_cli_examples_parse():
    import shlex

    text = (REPO / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [l for l in block.splitlines() if l.startswith("fracmom ")]
    assert len(lines) >= 8
    for line in lines:
        _parse(shlex.split(line)[1:])


# ----------------------------------------------------------------------
# --grid-in and the distribution flags
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cf", "pdf"])
@pytest.mark.parametrize("flags", ["family", "dist", "param"])
def test_grid_in_conflicts_with_distribution_flags(kind, flags, tmp_path, capsys):
    """--grid-in with --family levy used to rebuild the CSV's cauchy
    curve silently."""
    grid = _cauchy_grid_csv(tmp_path, 0.4)
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({"family": "levy", "params": {}}))
    extra = {"family": ["--family", "levy"], "dist": ["--dist", str(cfg)],
             "param": ["--param", "sigma=2"]}[flags]
    out = tmp_path / "curve.csv"
    code, stdout, err = _run([f"reconstruct-{kind}", "--grid-in", str(grid), *extra,
                              "--range", "0.5:3:6", "--out", str(out)], capsys)
    assert _one_error_line(code, stdout, err)
    assert err == ("error: --grid-in cannot be combined with --dist, "
                   "--family or --param\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [(["--m", "0"], "--m"),
     (["--m", "7", "--rho", "0.3"], "--rho, --m"),
     (["--delta", "0.2", "--sign", "plus"], "--delta, --sign"),
     (["--method", "mc", "--seed", "3"], "--method, --seed"),
     (["--n-samples", "10"], "--n-samples"),
     (["--rho", "0.4"], "--rho")],
)
def test_grid_in_rejects_the_grid_and_build_flags(flags, named, tmp_path, capsys):
    """The grid comes from the CSV, so a grid or build flag would be
    ignored; --m 0 used to fail on its own range check.  Passing a flag
    at its default value is rejected too."""
    grid = _cauchy_grid_csv(tmp_path, 0.4)
    out = tmp_path / "curve.csv"
    code, stdout, err = _run(["reconstruct-cf", "--grid-in", str(grid), *flags,
                              "--range", "0.5:3:6", "--out", str(out)], capsys)
    assert _one_error_line(code, stdout, err)
    assert err == f"error: --grid-in cannot be combined with {named}\n"
    assert not out.exists()
    # --range and --out stay allowed
    code, stdout, _ = _run(["reconstruct-cf", "--grid-in", str(grid),
                            "--range", "0.5:3:6", "--out", str(out)], capsys)
    assert code == 0 and out.exists()


def test_one_parser_serves_every_call_and_keeps_no_flag(tmp_path, capsys):
    """The parser is built once per process; a flag passed to one call
    reaches no later call, and --grid-in still rejects a grid flag that
    an earlier call passed."""
    assert _build_parser() is _build_parser()
    for extra, params in ((["--param", "a=3"], '{"a": 3.0}'), ([], '{"a": 2.0}')):
        code, out, _ = _run(["moments", "--family", "uniform", *extra, "--m", "1"], capsys)
        assert code == 0 and f"# params: {params}\n" in out
    grid = _cauchy_grid_csv(tmp_path, 0.4)
    curve = ["--range", "0.5:3:6", "--out", str(tmp_path / "curve.csv")]
    assert _run(["reconstruct-cf", "--family", "cauchy", "--m", "7", *curve], capsys)[0] == 0
    assert _run(["reconstruct-cf", "--grid-in", str(grid), *curve], capsys)[0] == 0
    code, out, err = _run(["reconstruct-cf", "--grid-in", str(grid), "--m", "7", *curve],
                          capsys)
    assert _one_error_line(code, out, err)
    assert err == "error: --grid-in cannot be combined with --m\n"


# ----------------------------------------------------------------------
# one stderr line for every failure
# ----------------------------------------------------------------------


def test_negative_seed_is_validation(capsys):
    # used to end in numpy's ValueError traceback
    code, out, err = _run(["moments", "--family", "cauchy", "--method", "mc",
                           "--n-samples", "100", "--seed", "-1"], capsys)
    assert _one_error_line(code, out, err)
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["moments", "reconstruct-cf", "figures"])
def test_unwritable_output_path_is_one_error_line(command, tmp_path, capsys):
    # a parent that is a file used to end in a FileExistsError traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    target = blocker / "sub" / "x.csv"
    argv = {"moments": ["moments", "--family", "cauchy", "--m", "1",
                        "--out", str(target)],
            "reconstruct-cf": ["reconstruct-cf", "--family", "cauchy", "--m", "1",
                               "--out", str(target)],
            "figures": ["figures", "--out-dir", str(target)]}[command]
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert err.startswith(f"error: cannot write {blocker / 'sub'}")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in out + err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_failed_rename_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    """The temp file is removed when the rename fails, so the output
    directory holds nothing."""
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    target = tmp_path / "x.csv"
    code, out, err = _run(["moments", "--family", "cauchy", "--m", "1",
                           "--out", str(target)], capsys)
    assert _one_error_line(code, out, err)
    assert err == f"error: cannot write {target}: rename refused\n"
    assert list(tmp_path.iterdir()) == []


def test_foreign_exception_is_one_line_exit_three(monkeypatch, capsys, caplog):
    import logging

    import fracmom.cli

    def broken(spec):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(fracmom.cli, "working_strip", broken)
    with caplog.at_level(logging.DEBUG, logger="fracmom"):
        code, out, err = _run(["strip", "--family", "cauchy"], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: RuntimeError: boom second line\n"
    # the traceback is kept for FRACMOM_LOG=debug
    [record] = [r for r in caplog.records if r.exc_info]
    assert record.levelno == logging.DEBUG
    assert record.exc_info[0] is RuntimeError


# ----------------------------------------------------------------------
# any input
# ----------------------------------------------------------------------

_FAMILY_PARAMS = {"uniform": ("a",), "rayleigh": ("sigma",), "cauchy": (),
                  "levy": (), "gaussian": ("mu", "sigma")}
_COMMANDS = {"moments-closed": ["moments", "--method", "closed"],
             "moments-quad": ["moments", "--method", "quad"],
             "reconstruct-cf": ["reconstruct-cf"], "reconstruct-pdf": ["reconstruct-pdf"],
             "verify": ["verify"]}


def _magnitudes():
    return st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@st.composite
def _cli_calls(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    family = draw(st.sampled_from(FAMILIES))
    argv = [*_COMMANDS[command], "--family", family]
    for key in _FAMILY_PARAMS[family]:
        value = draw(_magnitudes())
        if key == "mu":
            value *= draw(st.sampled_from([-1.0, 0.0, 1.0]))
        argv += ["--param", f"{key}={value!r}"]
    argv += ["--rho", repr(draw(st.floats(min_value=0.01, max_value=0.99))),
             "--delta", repr(draw(st.floats(min_value=-3.0, max_value=1.0).map(
                 lambda e: 10.0**e))),
             "--m", str(draw(st.integers(min_value=1, max_value=3)))]
    if command.startswith("reconstruct"):
        lo = draw(st.sampled_from([-1.0, 1.0])) * draw(_magnitudes())
        hi = lo + abs(lo) * draw(st.floats(min_value=-3.0, max_value=1.0).map(
            lambda e: 10.0**e))
        argv += [f"--range={lo!r}:{hi!r}:3"]
    return argv


@given(_cli_calls())
# rayleigh sigma**2 past double range (exit 3)
@example(["reconstruct-pdf", "--family", "rayleigh", "--param", "sigma=1.5e154",
          "--range", "1:2:3"])
@example(["verify", "--family", "rayleigh", "--param", "sigma=1.5e154"])
# rayleigh sigma**2 rounded to 0 (nan with exit 0, two warnings)
@example(["reconstruct-pdf", "--family", "rayleigh", "--param", "sigma=9.78e-300",
          "--range", "1e-300:2e-300:3"])
# a gaussian CF warning before the typed failure line
@example(["verify", "--family", "gaussian", "--param", "mu=-7e300", "--param", "sigma=4e-20"])
# a subnormal support end, whose halving panels reach u = 0
@example(["moments", "--method", "quad", "--family", "uniform", "--param", "a=1e-320"])
@settings(max_examples=40, deadline=None)
def test_no_internal_error_on_any_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 0:
        assert "nan" not in out.getvalue()
    else:
        assert len(err.getvalue().splitlines()) == 1
