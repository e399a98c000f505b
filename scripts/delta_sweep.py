#!/usr/bin/env python3
"""Node-spacing refinement study for the CF series.

Holds the imaginary reach m*delta fixed while halving the spacing, and
reports the series error at a few probe points.  Two effects compete:

* a finer spacing pushes the aliasing floor exp(-2*pi*rho/delta) down,
* the fixed reach caps how fast the log-axis oscillations of heavy
  tails can be resolved, so families differ in how much of the finer
  grid they can actually use.

The cauchy family shows the aliasing floor almost exactly (its signed
moments are constant along the line); the uniform family is reach-
limited and improves much more slowly.  Run:

    python scripts/delta_sweep.py
    python scripts/delta_sweep.py --family cauchy --reach 15 --thetas 1,5,20
    python scripts/delta_sweep.py --family levy --rho 0.9 --reach 500
"""

import argparse
import math
import sys

from fracmom.distributions import FAMILIES, exact_cf, make_spec
from fracmom.moments import GridParams, make_grid
from fracmom.reconstruct import cf_series


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=FAMILIES, default="uniform")
    ap.add_argument("--rho", type=float, default=0.4)
    ap.add_argument("--reach", type=float, default=10.4,
                    help="fixed m*delta (default 10.4)")
    ap.add_argument("--deltas", default="0.8,0.4,0.2,0.1",
                    help="comma-separated spacings, coarse to fine")
    ap.add_argument("--thetas", default="1,5,20",
                    help="comma-separated probe arguments")
    args = ap.parse_args(argv)

    spec = make_spec(args.family)
    deltas = [float(s) for s in args.deltas.split(",")]
    thetas = [float(s) for s in args.thetas.split(",")]

    head = "delta      m   floor      " + "".join(f"err@{t:<9g}" for t in thetas)
    print(f"family: {spec.label()}   rho={args.rho}   reach m*delta={args.reach}")
    print(head)
    print("-" * len(head))
    for delta in deltas:
        m = max(1, round(args.reach / delta))
        grid = make_grid(spec, GridParams(rho=args.rho, delta=delta, m=m), "closed_form")
        floor = math.exp(-2.0 * math.pi * args.rho / delta)
        errs = [abs(cf_series(grid, t) - complex(exact_cf(spec, t))) for t in thetas]
        print(f"{delta:<9g}{m:>4}   {floor:.2e}   "
              + "".join(f"{e:<13.4e}" for e in errs))
    return 0


if __name__ == "__main__":
    sys.exit(run())
