#!/usr/bin/env python3
"""Print the operator/moment identity table for one family or all of them.

For every node of a complex-order grid this cross-checks each fractional
operator applied to the exact characteristic function against the moment
computed by direct quadrature of the density — the central consistency
property of the whole package.  Exit status is nonzero if any row misses
the tolerance.

    python scripts/identity_report.py                    # all families
    python scripts/identity_report.py --family levy --m 8
"""

import argparse
import sys

from fracmom.cli import main as cli_main
from fracmom.distributions import FAMILIES


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=FAMILIES, help="single family (default: all)")
    ap.add_argument("--m", type=int, default=5, help="grid half-width (default 5)")
    ap.add_argument("--rho", type=float, default=0.4)
    ap.add_argument("--delta", type=float, default=0.4)
    args = ap.parse_args(argv)

    families = [args.family] if args.family else list(FAMILIES)
    worst_rc = 0
    for fam in families:
        print(f"=== {fam} ===")
        rc = cli_main(
            [
                "verify", "--family", fam,
                "--m", str(args.m), "--rho", str(args.rho),
                "--delta", str(args.delta),
            ]
        )
        worst_rc = max(worst_rc, rc)
        print()
    return worst_rc


if __name__ == "__main__":
    sys.exit(run())
