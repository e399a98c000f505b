"""End-to-end command-line behaviour, run in-process through main().

The contract under test: exit code 0/1/2 split (success / bad
configuration / numerical failure), byte-deterministic output files,
and bit-identical results whether a grid is built in-process or passed
back in through ``--grid-in``.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fracmom
from fracmom.cli import _parse_range, main
from fracmom.errors import ArgumentError


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


@pytest.mark.parametrize("case", ["levy_pdf_far_nodes", "csv_rho_180"])
def test_reconstruct_non_finite_series_is_typed(tmp_path, capsys, case):
    """Series whose weights or kernels leave double range used to print
    NumPy overflow warnings and a NaN curve with exit 0."""
    if case == "levy_pdf_far_nodes":
        # the closed forms reach |Im gamma| = 520; the PDF kernel
        # (ix)^(gamma-1) does not
        argv = ["reconstruct-pdf", "--family", "levy", "--rho", "0.9",
                "--m", "1300", "--delta", "0.4"]
    else:
        # no family line, so no strip check: Gamma(180 + ...) overflows
        grid = _cauchy_grid_csv(tmp_path, 180.0, family_line=False)
        argv = ["reconstruct-cf", "--grid-in", str(grid)]
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
     ["moments", "--family", "cauchy", "--m", "10001"]],
)
def test_caps_give_one_error_line(argv, capsys):
    # both caps are checked while the arguments are read, before any work
    code, out, err = _run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


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
    assert code == 0 and out.strip() == "(0, inf)"


def test_verify_cauchy_table(capsys):
    code, out, _ = _run(["verify", "--family", "cauchy", "--m", "2"], capsys)
    assert code == 0
    for row in ("rl_integral_plus", "marchaud_minus", "riesz_derivative",
                "riesz_integral", "mellin_two_path"):
        assert row in out
    assert "FAIL" not in out
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


def test_verify_far_rho_reports_nan_estimate_without_warnings(capsys):
    """At Re gamma = 180 the power u^(-gamma) overflows near u = 0; the
    NaN estimate is reported once, as a numerical failure, and NumPy
    used to print four RuntimeWarnings before it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(["verify", "--family", "levy", "--rho", "180",
                               "--m", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure: moment quadrature estimate nan")
    assert len(err.splitlines()) == 1
    assert caught == []


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
    # used to end in TypeError: 'int' object is not iterable
    rows = [f"{k},0.4,{0.4 * k!r},1.0,0.0" for k in range(-2, 3)]
    grid = tmp_path / "grid.csv"
    grid.write_text("# family: cauchy\n# params: 5\n# sign: minus\n"
                    "k,rho,eta,re,im\n" + "\n".join(rows) + "\n")
    code, out, err = _run(["reconstruct-cf", "--grid-in", str(grid),
                           "--range", "0.5:3:6"], capsys)
    assert _one_error_line(code, out, err)
    assert "params must be a mapping" in err


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
    for name in names:
        assert (tmp_path / "figs" / name).exists(), name
        assert name in out
    # the summary lines carry the achieved errors; spot-check two
    for line in out.strip().split("\n"):
        if line.startswith("fig7.csv"):
            assert float(line.split("=")[-1]) <= 1e-2
        if line.startswith("fig5.csv"):
            assert float(line.split("=")[-1]) <= 1e-2
