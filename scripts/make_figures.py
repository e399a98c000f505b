#!/usr/bin/env python3
"""Regenerate every figure data file into ./figures (or --out-dir).

Thin wrapper over ``fracmom figures`` so the whole set can be rebuilt
with one command from a fresh checkout:

    python scripts/make_figures.py
    python scripts/make_figures.py --out-dir /tmp/figs

Each output is a CSV with a comment header recording the family,
parameters, grid and method — enough to re-derive the curve from the
CLI by hand.  Runs in about a second.
"""

import sys

from fracmom.cli import main


def run(argv=None):
    return main(["figures", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(run())
