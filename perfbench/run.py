"""fracmom benchmark: one workload, one closed-loop run, one JSON result line.

    python3 perfbench/run.py --workload identity --seed 0 --seconds 35 --trace 0

Run it from the root of a fracmom checkout; it imports the package from
``src/``.  One client in one process runs the workload's operation list
over and over, each operation starting when the previous one has
finished, for as many whole passes as fit in ``--seconds`` (at least
two, so ``wall_s`` is never a single sample).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``setup_s`` (median over fresh interpreters of import plus input
generation), ``peak_rss_mb``, ``min_digits`` and ``mean_digits``.  Both
times are rescaled to a fixed host speed, measured by a reference kernel
timed between operations (see ``reference_seconds``); the report prints
the raw times next to them.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``tracing.py``) and ``trace.overhead_s``.

A human-readable report goes to stdout first; the last line is the JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Working files
live under ``.perfbench_work/`` in the checkout; the spans of the first
traced pass are kept there as ``trace-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from scipy.integrate import IntegrationWarning

import tracing
import workloads
from workloads import GateMiss

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# fresh interpreters whose set-up time is measured; the median is reported
SETUP_REPEATS = 5

# The host is a shared virtual machine whose speed for the same fixed work
# drifts by up to 2x over minutes, so raw times from runs minutes apart
# do not compare.  A fixed reference kernel is timed at operation
# boundaries (at most every SAMPLE_EVERY_S seconds, and before and after
# every pass), and each operation's time is multiplied by
# REFERENCE_S / (mean kernel time just before and just after it): the
# time the operation would take on a host where the kernel takes
# REFERENCE_S.  The kernel runs no fracmom code, so a change to fracmom
# moves the rescaled times as much as the raw ones.
REFERENCE_S = 0.008
SAMPLE_EVERY_S = 0.5


def load_spec() -> dict:
    """BENCHMARK.json: workload names and the metrics each mode reports.

    Per-layer time metrics that read 0.0 on every run of a workload that
    bypasses the layer (fracops on reconstruct, say) are not listed there;
    the traced report prints them with the rest.
    """
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def prepare(workload: str, seed: int, work: Path) -> list:
    """Set-up: import the CLI and generate the workload's inputs."""
    sys.path.insert(0, str(SRC))
    import fracmom.cli  # noqa: F401  (the import is part of set-up)

    return workloads.build(workload, seed, work)


def reference_seconds() -> float:
    """Time of the fixed reference kernel on the host as it is now.

    The kernel is a scalar Python integer loop.  Of the kernels tried
    (this loop, Python float calls, NumPy in cache, NumPy over 1e6
    doubles), its time tracked the operations' times most closely on all
    three workloads.  The median of three runs drops a run that a
    preemption hit.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# running operations
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    seconds: float
    failure: str | None = None
    errors: list[float] = field(default_factory=list)
    exit_code: int | None = None
    integration_warnings: int = 0
    other_warnings: list[str] = field(default_factory=list)
    bytes_out: int = 0
    # mean reference-kernel time around the operation (see run_pass)
    reference: float = math.nan

    @property
    def scaled(self) -> float:
        """``seconds`` at the host speed where the kernel takes REFERENCE_S."""
        return self.seconds * REFERENCE_S / self.reference


def run_op(op) -> Outcome:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    buf = io.StringIO()
    value = None
    failure = None
    # record every warning instead of letting the once-per-location
    # filter hide repeats; nothing is discarded, all are counted
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                value = op.invoke()
        except Exception as exc:  # an operation that raises is a failed operation
            failure = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    stdout = buf.getvalue()
    out = Outcome(op.label, seconds)
    out.integration_warnings = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    out.other_warnings = [f"{w.category.__name__}: {w.message}" for w in caught
                          if not issubclass(w.category, IntegrationWarning)]
    if op.cli and failure is None:
        out.exit_code = value if isinstance(value, int) else -1
    if failure is None:
        try:
            errs = op.check(value, stdout)
        except GateMiss as exc:
            failure = f"gate: {exc}"
        else:
            out.errors = errs
    out.failure = failure
    out.bytes_out = len(stdout.encode()) + sum(
        p.stat().st_size for p in op.outputs if p.is_file())
    return out


def run_pass(ops) -> list[Outcome]:
    """Run every operation once, sampling the reference kernel between them.

    Each operation gets the mean of the samples taken just before and
    just after it; operations between the same two samples share them.
    """
    outcomes: list[Outcome] = []
    pending: list[Outcome] = []
    last = reference_seconds()
    sampled_at = time.perf_counter()
    for i, op in enumerate(ops):
        pending.append(run_op(op))
        if i == len(ops) - 1 or time.perf_counter() - sampled_at >= SAMPLE_EVERY_S:
            now = reference_seconds()
            sampled_at = time.perf_counter()
            for o in pending:
                o.reference = 0.5 * (last + now)
            outcomes += pending
            pending = []
            last = now
    return outcomes


def pass_seconds(outcomes: list[Outcome]) -> float:
    """Raw pass time: the operations only, not the checks or the kernel."""
    return sum(o.seconds for o in outcomes)


def pass_scaled(outcomes: list[Outcome]) -> float:
    return sum(o.scaled for o in outcomes)


def speed_factor(outcomes: list[Outcome]) -> float:
    """Raw over rescaled pass time: above 1 when the host runs slow."""
    return pass_seconds(outcomes) / pass_scaled(outcomes)


def another_fits(start: float, last: float, seconds: float) -> bool:
    """Whether one more round, as long as the last, ends within ``seconds``."""
    return time.perf_counter() - start + last <= seconds


def digits(err: float, cap: float) -> float:
    return cap if err <= 0.0 else min(cap, -math.log10(err))


def tail_percentile(samples: list[float]):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, math.ceil(p / 100.0 * n) - 1)]
    return None


# ----------------------------------------------------------------------
# set-up measurement
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int, work: Path) -> None:
    prepare(workload, seed, work)
    print(repr(monotonic()), flush=True)


def measure_setup(args, work: Path) -> tuple[list[float], list[float]]:
    """Raw and rescaled set-up times of SETUP_REPEATS fresh interpreters.

    The reference kernel is timed just before and just after each one.
    """
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(work)]
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
        after = reference_seconds()
        scaled.append(raw[-1] * REFERENCE_S / (0.5 * (before + after)))
        before = after
    return raw, scaled


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


def describe_failures(passes: list[list[Outcome]]) -> list[str]:
    lines = []
    for i, outcomes in enumerate(passes):
        for o in outcomes:
            if o.failure:
                lines.append(f"  FAILED pass {i}: {o.label}: {o.failure}")
    return lines


def op_table(passes: list[list[Outcome]]) -> list[str]:
    lines = ["  per-operation median seconds, rescaled (raw):"]
    for j, first in enumerate(passes[0]):
        scaled = statistics.median(p[j].scaled for p in passes)
        raw = statistics.median(p[j].seconds for p in passes)
        lines.append(f"    {first.label:<32} {scaled:9.4f} s  ({raw:.4f} s)")
    return lines


def warning_lines(outcomes: list[Outcome]) -> list[str]:
    lines = []
    for o in outcomes:
        if o.integration_warnings:
            lines.append(f"    {o.label}: {o.integration_warnings} IntegrationWarning")
        for text in sorted(set(o.other_warnings)):
            lines.append(f"    {o.label}: {text[:120]}")
    return lines


def end_to_end(args, work: Path, ops) -> tuple[dict, list[list[Outcome]], list[str]]:
    setup_raw, setup = measure_setup(args, work)
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(ops))
        if len(passes) >= 2 and not another_fits(
                start, time.perf_counter() - began, args.seconds):
            break
    walls = [pass_scaled(p) for p in passes]
    raw_walls = [pass_seconds(p) for p in passes]
    first = passes[0]
    errors = [(o.label, e) for o in first for e in o.errors]
    cap = workloads.DIGITS_CAP
    digs = [digits(e, cap) for _, e in errors]
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if o.failure)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "min_digits": min(digs) if digs else 0.0,
        "mean_digits": statistics.fmean(digs) if digs else 0.0,
    }
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                 f"no percentile has 10 samples beyond it at n={len(walls)}")
    worst = min(errors, key=lambda le: digits(le[1], cap))[0] if errors else "-"
    lines = [
        f"  wall_s       {metrics['wall_s']:.4f} s   median of {len(walls)} passes "
        f"({', '.join(f'{w:.3f}' for w in walls)}); {tail_text}",
        f"    raw        {statistics.median(raw_walls):.4f} s   host speed factor "
        f"{', '.join(f'{speed_factor(p):.3f}' for p in passes)} "
        f"(raw / rescaled; kernel {REFERENCE_S * 1e3:g} ms at factor 1)",
        f"  setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} fresh "
        f"interpreters ({', '.join(f'{t:.3f}' for t in setup)})",
        f"    raw        {statistics.median(setup_raw):.4f} s   "
        f"({', '.join(f'{t:.3f}' for t in setup_raw)})",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        f"  min_digits   {metrics['min_digits']:.4f} digits (worst output: {worst})",
        f"  mean_digits  {metrics['mean_digits']:.4f} digits over {len(digs)} outputs",
        f"  fail_frac    {failed / attempted:.4f} ({failed} of {attempted} operations)",
    ]
    lines += op_table(passes)
    warn = warning_lines(first)
    if warn:
        lines += ["  warnings in one pass (recorded, not suppressed):", *warn]
    return metrics, passes, lines


def traced(args, ops, per_layer) -> tuple[dict, list[list[Outcome]], list[str]]:
    tracing.resolve_boundaries()  # fail before any pass if a name is gone
    tracer = tracing.Tracer()
    plain: list[list[Outcome]] = []
    runs: list[tuple[list[Outcome], dict, dict]] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(run_pass(ops))
        tracer.reset()
        tracer.install()
        try:
            outcomes = run_pass(ops)
        finally:
            tracer.uninstall()
        runs.append((outcomes, tracer.metrics(), tracer.layer_seconds()))
        if len(runs) == 1:
            dump = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            with open(dump, "w") as handle:
                tracer.dump(handle)
        if not another_fits(start, time.perf_counter() - began, args.seconds):
            break

    first_outcomes, first_metrics, first_layers = runs[0]
    traced_walls = [pass_scaled(o) for o, _, _ in runs]
    plain_walls = [pass_scaled(p) for p in plain]
    counts = [n for n in first_metrics if tracing.UNITS[n] not in tracing.TIME_UNITS]
    every = dict(first_metrics)
    for name in first_metrics:
        if name not in counts:
            every[name] = statistics.median(m[name] for _, m, _ in runs)
    every["cli.bytes_out"] = sum(o.bytes_out for o in first_outcomes)
    every["cli.nonzero_exits"] = sum(1 for o in first_outcomes
                                     if o.exit_code not in (None, 0))
    every["cli.integration_warnings"] = sum(o.integration_warnings for o in first_outcomes)
    every["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics = {name: every[name] for name in per_layer}

    wall = pass_seconds(first_outcomes)
    layer_total = sum(first_layers.values())
    lines = [f"  untraced wall {statistics.median(plain_walls):.4f} s, traced wall "
             f"{statistics.median(traced_walls):.4f} s, rescaled ({len(runs)} traced passes)",
             "  share of traced time by layer (self time, first traced pass):"]
    for layer, secs in sorted(first_layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<14} {secs:9.4f} s  {100.0 * secs / wall:6.2f} %")
    lines.append(f"    {'outside spans':<14} {wall - layer_total:9.4f} s  "
                 f"{100.0 * (wall - layer_total) / wall:6.2f} %  (benchmark loop, gates)")
    lines.append("  per-layer metrics (* = also in the JSON line):")
    for name, value in every.items():
        star = "*" if name in per_layer else " "
        lines.append(f"   {star}{name:<34} {value:.6g} {tracing.UNITS[name]}")
    if len(runs) > 1:
        again = runs[1][1]
        same = all(again[n] == first_metrics[n] for n in counts)
        lines.append(f"  count metrics repeat in the second traced pass: {'yes' if same else 'no'}")
    warn = warning_lines(first_outcomes)
    if warn:
        lines += ["  warnings in one pass (recorded, not suppressed):", *warn]
    return metrics, plain + [o for o, _, _ in runs], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0

    if not (SRC / "fracmom" / "cli.py").is_file():
        print(f"perfbench: no fracmom sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = prepare(args.workload, args.seed, work)
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            metrics, passes, lines = traced(args, ops, units)
        else:
            metrics, passes, lines = end_to_end(args, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p if o.failure)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  "
          f"{len(ops)} operations per pass, closed loop, one client")
    for line in lines + describe_failures(passes):
        print(line)
    print(f"  verdict      {'PASS' if failed == 0 else 'FAIL'}: "
          f"fail_frac {failed / attempted:.4f} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
