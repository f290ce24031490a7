"""diffalg benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The engine is imported from ``src/``.
With ``--trace 0`` the run repeats passes over the workload's ops until
``--seconds`` have elapsed (always at least one whole pass) and reports
the end-to-end metrics.  With ``--trace 1`` it does the same untraced,
then one more pass with every layer's entry points wrapped in spans, and
reports the per-layer metrics of that pass.  Times are scaled to a
fixed reference CPU speed, measured while they run (see speed.py).  The
last line of standard output is the JSON result; the lines before it
name every metric with its unit and workload.  See README.md beside
this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is measured in fresh processes, this many times per run.
SETUP_PROBES = 7

# Percentiles tried for verdict_tail_ms, highest first.  The first one
# with at least ten verdicts of a pass beyond it is reported.
TAIL_GRID = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "right_verdict_share": "share",
    "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diffalg", "__init__.py")):
        print(f"error: no diffalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            workloads.build(args.workload, args.seed, workdir)
            print("ready", flush=True)
            print(speed.probe_now(), flush=True)
            return 0
        setup_s = None if args.trace else measure_setup(args.workload,
                                                        args.seed)
        wl = workloads.build(args.workload, args.seed, workdir)
        return run(wl, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int) -> float:
    """Median time from process start to ready-for-the-first-op: the
    interpreter, the imports, input generation, documents and towers.
    Each probe process reports its core's speed right after, and its
    time is scaled to the reference speed like every other time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            t1 = time.perf_counter()
            rest = proc.stdout.read().split()
            rc = proc.wait(timeout=120)
        if rc != 0 or ready.strip() != "ready" or len(rest) != 1:
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        times.append((t1 - t0) * speed.scale(float(rest[0])))
    return statistics.median(times)


@dataclass
class Pass:
    """One pass: its wall time and per-op times, in seconds at the
    reference speed (see speed.py), and the pass's own scale factor."""
    elapsed: float
    times: list
    factor: float


class Tally:
    """Verdicts attempted and wrong, over every op run."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.reported = False

    def run_pass(self, ops) -> Pass:
        """One closed-loop pass.  Results are checked after the pass,
        outside its timing."""
        clock = time.perf_counter
        sampler = speed.Sampler()
        results = []
        intervals = []
        with sampler:
            p0 = clock() - sampler.spent
            for op in ops:
                t0 = clock() - sampler.spent
                try:
                    res, err = op.run(), None
                except Exception:  # any raise is a wrong verdict
                    res, err = None, traceback.format_exc()
                intervals.append((t0, clock() - sampler.spent))
                results.append((op, res, err))
            p1 = clock() - sampler.spent
        if not sampler.samples:
            sampler.samples = [(p1, speed.probe_now())]
        times = [(t1 - t0) * speed.scale(sampler.slowness(t0, t1))
                 for t0, t1 in intervals]
        factor = speed.scale(sampler.slowness(p0, p1))
        for op, res, err in results:
            self.attempted += 1
            if err is None and op.check(res):
                continue
            self.wrong += 1
            if not self.reported:
                self.reported = True
                print(f"wrong verdict on {op.label}: {err or repr(res)}",
                      file=sys.stderr)
        return Pass((p1 - p0) * factor, times, factor)

    def run_for(self, ops, seconds: float) -> list:
        """Sampled passes until `seconds` have elapsed, at least one."""
        passes = []
        started = time.perf_counter()
        while True:
            passes.append(self.run_pass(ops))
            if time.perf_counter() - started >= seconds:
                return passes


def tail_percentile(n: int) -> float:
    for p in TAIL_GRID:
        if n * (1 - p / 100) >= 10:
            return p
    return 100.0


def nearest_rank(sorted_vals: list, p: float) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[k - 1]


def end_to_end(passes, tally: Tally, setup_s: float) -> tuple:
    n = len(passes[0].times)
    p = tail_percentile(n)
    p50 = statistics.median(statistics.median(ps.times) for ps in passes)
    tail = statistics.median(nearest_rank(sorted(ps.times), p)
                             for ps in passes)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(ps.elapsed for ps in passes),
        "verdict_p50_ms": p50 * 1e3,
        "verdict_tail_ms": tail * 1e3,
        "right_verdict_share": (tally.attempted - tally.wrong)
                               / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024,
    }
    note = (f"verdict_tail_ms is p{p:g} of n={n} verdicts per pass, "
            f"median over {len(passes)} passes")
    if p == 100.0:
        note += " (fewer than 11 verdicts per pass, so the slowest)"
    return metrics, END_TO_END_UNITS, note


def run(wl, args, setup_s: float | None) -> int:
    tally = Tally()
    passes = tally.run_for(wl.ops, args.seconds)
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = tally.run_pass(wl.ops)
        finally:
            tracer.uninstall()
        untraced = statistics.median(ps.elapsed for ps in passes)
        metrics = spans.layer_metrics(tracer, traced.factor,
                                      traced.elapsed - untraced)
        units = spans.PER_LAYER_UNITS
        path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        tracer.write(path)
        note = (f"{tracer.span_count()} spans of one traced pass "
                f"written to {os.path.relpath(path, ROOT)}")
    else:
        metrics, units, note = end_to_end(passes, tally, setup_s)

    for name, value in metrics.items():
        print(f"{wl.name}\t{name}\t{value:.6g}\t{units[name]}")
    print(f"{wl.name}: {note}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.wrong,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
