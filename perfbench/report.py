"""Baseline report: every workload, untraced and traced, in one command.

    python3 perfbench/report.py --seed 0

Runs ``perfbench/run.py`` once per workload and mode, each in its own
process so ``peak_rss_mb`` is that workload's, streams each run's report,
and ends with one table of the end-to-end metrics (and ``fail_frac``)
plus ``trace.overhead_s`` per workload.  Exits 1 if any run fails or any
output misses its gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        print(f"{workload} trace={trace}: exit code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        results[name] = (run(name, args.seed, args.seconds, 0),
                         run(name, args.seed, args.seconds, 1))

    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    print()
    print(f"{'metric':<20}" + "".join(f"{n:>16}" for n in names))
    ok = True
    for metric, unit in e2e + [("fail_frac", "ratio"), ("trace.overhead_s", "s")]:
        cells = []
        for name in names:
            plain, traced = results[name]
            res = traced if metric == "trace.overhead_s" else plain
            if res is None:
                cells.append("n/a")
            elif metric == "fail_frac":
                cells.append(f"{res['failed'] / res['attempted']:.4f}")
            else:
                cells.append(f"{res['metrics'][metric]['value']:.4f}")
        print(f"{metric + ' [' + unit + ']':<20}" + "".join(f"{c:>16}" for c in cells))
    for name in names:
        for res in results[name]:
            ok = ok and res is not None and res["correct"]
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
