#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees, artifact by artifact.

Runs one fixed corpus of ``fracmom`` commands against each tree.  Every
command runs in a fresh interpreter with ``TREE/src`` on ``PYTHONPATH``,
inside a scratch working directory of the tree's own, so files written
by one command can be read by a later one.  The corpus:

* ``verify`` and ``strip`` for every family (``verify`` checks both
  signs in one run), and ``verify`` on a rayleigh law of scale 1e-6
  and a uniform law of half-width 0.01;
* ``moments`` by closed form, quadrature and Monte Carlo, and two
  gaussian closed-form grids whose nodes the double-precision paths
  decline: every node at mu/sigma = 30, most at mu/sigma = 10, and the
  nodes past |Im gamma| ~ 300 on a wide grid;
* ``reconstruct-cf`` and ``reconstruct-pdf`` curves with their summary
  lines, one of them from a grid CSV, and a levy density out to
  |Im gamma| = 520;
* Monte Carlo grids of 62 sample blocks at m = 10, cauchy and levy
  (whose sampler forms two arrays per draw), which on a host with more
  than one CPU are computed in two processes, and a cauchy density
  rebuilt from a Monte Carlo grid;
* rayleigh densities at scales 1e200 and 9.78e-300, whose square
  leaves double range, and at 1e-310, where x/sigma^2 does; and a
  rayleigh quadrature grid at scale 0.01, whose mass lies in a few of
  the panels;
* ``figures`` and its CSVs;
* argvs that must fail with one ``error:`` line, and a quadrature grid
  of a density past the panels' reach, which must fail with one
  ``numerical failure:`` line.

Each artifact (exit status, stdout, stderr, every file written) prints
one line: ``identical``; or, when only numbers differ, the largest
absolute and relative deviation among them; or the first line whose
text differs, or a note that only line endings differ.  The exit status
is 0 when every artifact is identical.  In a CSV row, each pair of
``re``/``im`` (or ``NAME_re``/``NAME_im``) columns counts as one complex
number, whose deviation is relative to its modulus, so a small real or
imaginary part does not magnify it; every other number counts alone.

With ``--dispatch-floor`` the old tree runs a second time with NumPy's
own switch ``NPY_DISABLE_CPU_FEATURES`` set to turn off its AVX2 and
AVX-512 loops (AVX-512F itself stays on); it acts on NumPy's process
only.  Each line then also gives, as ``floor:``, how far that rerun
moved the artifact: the host-rounding floor beside the change.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE
    python scripts/compare_outputs.py --dispatch-floor OLD_TREE NEW_TREE
"""

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FAMILIES = ("uniform", "rayleigh", "cauchy", "levy", "gaussian")

# points of the PDF curves: the one-sided families stay off the origin
_PDF_RANGES = {"rayleigh": "0.1:8:160", "levy": "0.1:8:160"}

_MAIN = "import sys; from fracmom.cli import main; sys.exit(main(sys.argv[1:]))"

# the CPU features NumPy's dispatch skips in the floor rerun
_DISPATCH_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}

# a decimal number, inf or nan; the text between them is the skeleton
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def corpus() -> list[tuple[str, list[str]]]:
    """(label, argv) pairs in the order they run."""
    out = [(f"verify-{fam}", ["verify", "--family", fam]) for fam in FAMILIES]
    # a CF that decays only at 1/sigma, and a sinc whose first zero lies
    # far past 1
    out += [("verify-rayleigh-small-scale",
             ["verify", "--family", "rayleigh", "--param", "sigma=1e-6"]),
            ("verify-uniform-narrow", ["verify", "--family", "uniform", "--param", "a=0.01"])]
    out += [(f"strip-{fam}", ["strip", "--family", fam]) for fam in FAMILIES]
    for fam in FAMILIES:
        for method in ("closed", "quad", "mc"):
            argv = ["moments", "--family", fam, "--method", method, "--m", "6",
                    "--out", f"moments-{fam}-{method}.csv"]
            if method == "mc":
                argv += ["--n-samples", "20000", "--seed", "1"]
            out.append((f"moments-{fam}-{method}", argv))
    for label, extra in (("far-mean", ["--param", "sigma=0.0666", "--m", "20"]),
                         ("mid-mean", ["--param", "mu=10", "--delta", "0.2", "--m", "100"]),
                         ("far-out", ["--m", "400", "--delta", "0.8"])):
        out.append((f"moments-gaussian-{label}",
                    ["moments", "--family", "gaussian", "--method", "closed", *extra,
                     "--out", f"moments-gaussian-{label}.csv"]))
    for fam in FAMILIES:
        out.append((f"cf-{fam}", ["reconstruct-cf", "--family", fam, "--m", "25",
                                  "--range", "0.1:10:200", "--out", f"cf-{fam}.csv"]))
        out.append((f"pdf-{fam}", ["reconstruct-pdf", "--family", fam, "--m", "20",
                                   "--range", _PDF_RANGES.get(fam, "-6:6:241"),
                                   "--out", f"pdf-{fam}.csv"]))
    out.append(("cf-grid-in", ["reconstruct-cf", "--grid-in",
                               "moments-levy-closed.csv", "--range", "0.1:10:50",
                               "--out", "cf-grid-in.csv"]))
    # blocks of samples split across processes: about 0.1 s of work, well
    # above the share that pays for a fork
    for fam in ("cauchy", "levy"):
        out.append((f"moments-{fam}-mc-blocks",
                    ["moments", "--family", fam, "--method", "mc", "--m", "10",
                     "--n-samples", "500000", "--seed", "2",
                     "--out", f"moments-{fam}-mc-blocks.csv"]))
    out.append(("pdf-cauchy-mc", ["reconstruct-pdf", "--family", "cauchy", "--method", "mc",
                                  "--n-samples", "50000", "--seed", "3", "--m", "10",
                                  "--range", "-6:6:121", "--out", "pdf-cauchy-mc.csv"]))
    # past |Im gamma| ~ 451, where a per-node PDF kernel leaves double range
    out.append(("pdf-levy-reach", ["reconstruct-pdf", "--family", "levy", "--rho", "0.9",
                                   "--m", "1300", "--delta", "0.4",
                                   "--out", "pdf-levy-reach.csv"]))
    # rayleigh scales whose square leaves double range, and one where
    # x/sigma^2 does at points of a finite density
    for label, sigma, points in (("large", "1e200", "1:2:3"),
                                 ("small", "9.78e-300", "1e-300:2e-300:3"),
                                 ("tiny", "1e-310", "2e-309:3e-309:3")):
        out.append((f"pdf-rayleigh-{label}-scale",
                    ["reconstruct-pdf", "--family", "rayleigh", "--param",
                     f"sigma={sigma}", "--range", points]))
    out.append(("moments-rayleigh-quad-small",
                ["moments", "--family", "rayleigh", "--param", "sigma=0.01",
                 "--method", "quad", "--m", "6",
                 "--out", "moments-rayleigh-quad-small.csv"]))
    out.append(("figures", ["figures", "--out-dir", "figs"]))
    errors = [
        ["moments", "--family", "nosuch"],
        ["moments", "--family", "cauchy", "--rho", "1.5"],
        ["moments", "--family", "rayleigh", "--param", "sigma=-1"],
        ["moments", "--family", "uniform", "--m", "1300"],
        ["moments", "--family", "cauchy", "--method", "mc", "--n-samples", "0"],
        ["moments", "--family", "cauchy", "--method", "mc", "--seed", "-1"],
        ["reconstruct-cf", "--family", "cauchy", "--range", "1:0:5"],
        ["reconstruct-cf", "--grid-in", "missing.csv"],
        ["reconstruct-cf", "--grid-in", "moments-levy-closed.csv",
         "--family", "levy"],
        ["reconstruct-cf", "--grid-in", "moments-levy-closed.csv", "--m", "7"],
        ["verify", "--family", "cauchy", "--rho", "1.5"],
        ["verify", "--family", "levy", "--rho", "0.6"],
        ["strip", "--m", "3"],
        ["moments", "--family", "cauchy", "--method", "mc",
         "--n-samples", "100000000000000000000", "--m", "2"],
        ["moments", "--family", "cauchy", "--delta", "1e308", "--m", "3"],
        ["reconstruct-cf", "--family", "cauchy", "--range", "1:inf:5"],
        ["moments", "--family", "rayleigh", "--param", "sigma=1e20",
         "--method", "quad", "--m", "1"],
    ]
    out += [(f"error-{i:02d}", argv) for i, argv in enumerate(errors)]
    return out


def run_tree(tree: Path, commands, workdir: Path, extra_env=None) -> dict[str, bytes]:
    """Run ``commands`` against ``tree`` in ``workdir``, with the
    variables ``extra_env`` set; artifacts by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **(extra_env or {}))
    env.pop("FRACMOM_LOG", None)
    artifacts = {}
    for label, argv in commands:
        done = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=workdir,
                              env=env, capture_output=True, timeout=600)
        artifacts[f"{label}:exit"] = str(done.returncode).encode()
        artifacts[f"{label}:stdout"] = done.stdout
        artifacts[f"{label}:stderr"] = done.stderr
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        artifacts[f"file:{path.relative_to(workdir)}"] = path.read_bytes()
    return artifacts


def _numbers(text: str) -> tuple[str, list[float]]:
    return _NUMBER.sub("#", text), [float(t) for t in _NUMBER.findall(text)]


def _pairs(header: list[str]) -> list[tuple[int, int]]:
    # (re, im) column index pairs of a CSV header: re/im and NAME_re/NAME_im
    return [(i, header.index(name[:-2] + "im")) for i, name in enumerate(header)
            if (name == "re" or name.endswith("_re")) and name[:-2] + "im" in header]


def _quantities(old: str, new: str):
    """(old, new) pairs of the numbers of two texts of one skeleton; the
    (re, im) columns of a CSV row give one complex number each."""
    header: list[str] = []
    for line_old, line_new in zip(old.splitlines(), new.splitlines()):
        cells_old, cells_new = line_old.split(","), line_new.split(",")
        if line_old.startswith("#"):
            yield from zip(_numbers(line_old)[1], _numbers(line_new)[1])
            continue
        if len(cells_old) > 1 and not _NUMBER.search(line_old):
            header = cells_old
            continue
        if len(cells_old) == len(header):
            paired = set()
            for i, j in _pairs(header):
                if cells_old[i] and cells_old[j]:
                    yield (complex(float(cells_old[i]), float(cells_old[j])),
                           complex(float(cells_new[i]), float(cells_new[j])))
                    paired |= {i, j}
            line_old = ",".join(c for k, c in enumerate(cells_old) if k not in paired)
            line_new = ",".join(c for k, c in enumerate(cells_new) if k not in paired)
        yield from zip(_numbers(line_old)[1], _numbers(line_new)[1])


def compare_text(old: str, new: str) -> str:
    """``identical``, the deviations of the numbers, or the first text change."""
    if old == new:
        return "identical"
    skel_old = _numbers(old)[0]
    skel_new = _numbers(new)[0]
    if skel_old != skel_new:
        old_lines, new_lines = old.splitlines(), new.splitlines()
        for i in range(max(len(old_lines), len(new_lines))):
            a = old_lines[i] if i < len(old_lines) else "<none>"
            b = new_lines[i] if i < len(new_lines) else "<none>"
            if a != b:
                return f"text differs at line {i + 1}: {a!r} -> {b!r}"
        return "text differs in line endings or trailing newline"
    worst_abs = worst_rel = 0.0
    for a, b in _quantities(old, new):
        if a == b or (a != a and b != b):
            continue
        dev = abs(a - b)
        if not math.isfinite(dev):
            # NaN or an infinity on one side only
            worst_abs = worst_rel = math.inf
            continue
        worst_abs = max(worst_abs, dev)
        worst_rel = max(worst_rel, dev / max(abs(a), abs(b)))
    return f"max abs {worst_abs:.3e}  max rel {worst_rel:.3e}"


def _verdict(old: dict, new: dict, name: str) -> str:
    if name not in old or name not in new:
        return f"only in {'new' if name in new else 'old'}"
    return compare_text(old[name].decode(errors="replace"),
                        new[name].decode(errors="replace"))


def compare(old_tree: Path, new_tree: Path, commands, dispatch_floor: bool = False) -> int:
    """Run ``commands`` against both trees and print one verdict per
    artifact, with its dispatch floor when ``dispatch_floor`` is set;
    0 when every artifact is identical, else 1."""
    runs = [(old_tree, None), (new_tree, None)]
    if dispatch_floor:
        runs.append((old_tree, _DISPATCH_OFF))
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp, str(i)) for i in range(len(runs))]
        for d in dirs:
            d.mkdir()
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            old, new, *floor = pool.map(
                lambda run, d: run_tree(run[0].resolve(), commands, d, run[1]), runs, dirs)

    names = list(old) + [name for name in new if name not in old]
    differing = 0
    for name in names:
        verdict = _verdict(old, new, name)
        differing += verdict != "identical"
        if floor:
            # the floor moves the old tree's artifacts only
            floor_verdict = _verdict(old, floor[0], name) if name in old else "-"
            verdict = f"{verdict:<40} floor: {floor_verdict}"
        print(f"{name:<40} {verdict}")
    print(f"{differing} of {len(names)} artifacts differ")
    return 1 if differing else 0


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="tree of the reference version")
    ap.add_argument("new", type=Path, help="tree of the changed version")
    ap.add_argument("--dispatch-floor", action="store_true",
                    help="also rerun the old tree without NumPy's AVX2 and AVX-512 "
                         "loops, and print how far that moves each artifact")
    args = ap.parse_args(argv)
    return compare(args.old, args.new, corpus(), args.dispatch_floor)


if __name__ == "__main__":
    sys.exit(run())
