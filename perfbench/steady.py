"""Run one workload several times and show how steady each metric is.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload serve-mix --runs 10 --seconds 40

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``,
then the next ones).  For every metric the table gives the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread between them
as a share of the median, and the min-max spread.  Each run's line also
gives its reference-loop timings, taken before and after it, and the share
of the machine's CPU time stolen by the hypervisor during it: they show how
fast the shared machine was at the time, and are context, not metrics.  Its
wall time, set-up and start-up included, shows what a run costs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CONTEXT = re.compile(r"^# (?:reference loop (before|after)|cpu (steal) during the run): "
                     r"([0-9.]+|nan)")


def one_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"run with seed {seed} exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    context = {
        match.group(1) or match.group(2): float(match.group(3))
        for match in map(CONTEXT.match, lines) if match
    }
    context["wall"] = time.perf_counter() - started
    return json.loads(lines[-1]), context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, context = one_run(args.workload, seed, args.seconds)
        share = result["failed"] / result["attempted"]
        print(f"seed {seed:3d}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({share:.4%}); reference loop "
              f"{context.get('before', float('nan')):.2f} -> "
              f"{context.get('after', float('nan')):.2f} ms; cpu steal "
              f"{context.get('steal', float('nan')):.1f}%; wall {context['wall']:.1f} s", flush=True)
        print("          " + "  ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{'metric':32s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'(max-min)/med':>14s}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
        scale = abs(median) if median else float("nan")
        print(f"{name:32s} {units[name]:>6s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{(q3 - q1) / scale:8.3f} {(max(series) - min(series)) / scale:14.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
