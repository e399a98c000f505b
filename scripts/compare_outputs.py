#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees, artifact by artifact.

Runs one fixed corpus of ``fracmom`` commands against each tree.  Every
command runs in a fresh interpreter with ``TREE/src`` on ``PYTHONPATH``,
inside a scratch working directory of the tree's own, so files written
by one command can be read by a later one.  The corpus:

* ``verify`` and ``strip`` for every family (``verify`` checks both
  signs in one run);
* ``moments`` by closed form, quadrature and Monte Carlo, and two
  gaussian closed-form grids whose nodes the double-precision paths
  decline: every node at mu/sigma = 30, and the nodes past
  |Im gamma| ~ 300 on a wide grid;
* ``reconstruct-cf`` and ``reconstruct-pdf`` curves with their summary
  lines, one of them from a grid CSV, and a levy density out to
  |Im gamma| = 520;
* a Monte Carlo grid of 62 sample blocks at m = 10, which on a host
  with more than one CPU is computed in two processes;
* rayleigh densities at scales 1e200 and 9.78e-300, whose square
  leaves double range, and a rayleigh quadrature grid at scale 0.01,
  whose mass lies in a few of the panels;
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

    python scripts/compare_outputs.py OLD_TREE NEW_TREE
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

# a decimal number, inf or nan; the text between them is the skeleton
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def corpus() -> list[tuple[str, list[str]]]:
    """(label, argv) pairs in the order they run."""
    out = [(f"verify-{fam}", ["verify", "--family", fam]) for fam in FAMILIES]
    out += [(f"strip-{fam}", ["strip", "--family", fam]) for fam in FAMILIES]
    for fam in FAMILIES:
        for method in ("closed", "quad", "mc"):
            argv = ["moments", "--family", fam, "--method", method, "--m", "6",
                    "--out", f"moments-{fam}-{method}.csv"]
            if method == "mc":
                argv += ["--n-samples", "20000", "--seed", "1"]
            out.append((f"moments-{fam}-{method}", argv))
    for label, extra in (("far-mean", ["--param", "sigma=0.0666", "--m", "20"]),
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
    out.append(("moments-cauchy-mc-blocks",
                ["moments", "--family", "cauchy", "--method", "mc", "--m", "10",
                 "--n-samples", "500000", "--seed", "2",
                 "--out", "moments-cauchy-mc-blocks.csv"]))
    # past |Im gamma| ~ 451, where a per-node PDF kernel leaves double range
    out.append(("pdf-levy-reach", ["reconstruct-pdf", "--family", "levy", "--rho", "0.9",
                                   "--m", "1300", "--delta", "0.4",
                                   "--out", "pdf-levy-reach.csv"]))
    # rayleigh scales whose square leaves double range
    for label, sigma, points in (("large", "1e200", "1:2:3"),
                                 ("small", "9.78e-300", "1e-300:2e-300:3")):
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


def run_tree(tree: Path, commands, workdir: Path) -> dict[str, bytes]:
    """Run ``commands`` against ``tree`` in ``workdir``; artifacts by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
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


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="tree of the reference version")
    ap.add_argument("new", type=Path, help="tree of the changed version")
    args = ap.parse_args(argv)
    commands = corpus()

    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp, "old"), Path(tmp, "new")]
        for d in dirs:
            d.mkdir()
        with ThreadPoolExecutor(max_workers=2) as pool:
            old, new = pool.map(lambda tree, d: run_tree(tree.resolve(), commands, d),
                                (args.old, args.new), dirs)

    names = list(old) + [name for name in new if name not in old]
    differing = 0
    for name in names:
        if name not in old or name not in new:
            verdict = f"only in {'new' if name in new else 'old'}"
        else:
            verdict = compare_text(old[name].decode(errors="replace"),
                                   new[name].decode(errors="replace"))
        differing += verdict != "identical"
        print(f"{name:<40} {verdict}")
    print(f"{differing} of {len(names)} artifacts differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(run())
