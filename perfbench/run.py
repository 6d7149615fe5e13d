"""Run one benchmark workload in this process and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload nary-output --seed 1 --seconds 40 --trace 0

The workload is set up, its answers are computed apart from the program,
and whole rounds of its operations run for ``--seconds`` with one operation
outstanding at a time.  Every answer is checked outside the operation's
time.  The workload is set up again four times between rounds, spread over
the run, and ``setup_s`` is the median of the five set-ups.  With
``--trace 1`` the workload is set up once, the first half of the time runs
untraced and the second half calls each layer separately, and the
per-layer metrics are printed instead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    ("xpath.parse_ms", "ms", "lower"),
    ("core.translate_ms", "ms", "lower"),
    ("hcl.sharing.normalize_ms", "ms", "lower"),
    ("pplbin.relations_ms", "ms", "lower"),
    ("pplbin.relations_built", "count", "lower"),
    ("pplbin.compose_ops", "count", "lower"),
    ("pplbin.row_union_ops", "count", "lower"),
    ("trees.matrix_cache_hit_ratio", "ratio", "higher"),
    ("hcl.mc_ms", "ms", "lower"),
    ("hcl.mc_entries", "count", "lower"),
    ("hcl.answering.vals_ms", "ms", "lower"),
    ("trees.xml_io.parse_ms", "ms", "lower"),
    ("corpus.parse_count", "count", "lower"),
    ("corpus.answer_cache_hit_ratio", "ratio", "higher"),
    ("session.compile_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.exec_ms", "ms", "lower"),
    ("serve.protocol_ms", "ms", "lower"),
]
#: Counters read from the program over the untraced pass, per operation.
COUNTED = ("pplbin.relations_built", "pplbin.compose_ops", "pplbin.row_union_ops",
           "corpus.parse_count")


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def cpu_times() -> list:
    """The machine-wide CPU time counters (``/proc/stat``), or [] if unreadable."""
    try:
        with open("/proc/stat") as stat:
            return [int(field) for field in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list, after: list) -> float:
    """Share of the machine's CPU time the hypervisor kept (the 8th counter)."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else float("nan")


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Pass:
    """Whole rounds of operations for at least ``seconds``; checked, timed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, workload, seconds: float, perform, between_rounds=None) -> "Pass":
        """``between_rounds(elapsed)``, if given, runs after each round but the
        last and returns how long it took, which does not count as run time."""
        started = time.perf_counter()
        while True:
            for op in workload.ops:
                self.attempted += 1
                began = time.perf_counter()
                try:
                    out = perform(op)
                except Exception as error:  # counted, reported, and the run goes on
                    self.failed += 1
                    if self.failed == 1:
                        print(f"# first failed operation: {error!r}", file=sys.stderr)
                    continue
                self.latencies.append(time.perf_counter() - began)
                if not workload.check(op, out):
                    self.wrong += 1
            elapsed = time.perf_counter() - started
            if elapsed >= seconds:
                return self
            if between_rounds is not None:
                started += between_rounds(elapsed)


def timed_setup(workload) -> float:
    started = time.perf_counter()
    workload.setup()
    return time.perf_counter() - started


def timed_run(workload, seconds: float, setups: list) -> Pass:
    """Time whole rounds for ``seconds``, setting up again between rounds.

    The workload is set up before the first round and again after each round
    that ends a further fifth of the run, so the set-ups meet the machine
    over the whole run, as the operations do, and not in its first seconds
    only.  Each set-up starts from scratch and rebuilds the same corpus;
    its time is added to ``setups``, which holds the first one already.
    """
    def set_up_again(elapsed: float) -> float:
        if elapsed < len(setups) * seconds / SETUP_REPEATS or len(setups) == SETUP_REPEATS:
            return 0.0
        started = time.perf_counter()
        workload.close()
        setups.append(timed_setup(workload))
        return time.perf_counter() - started

    timed = Pass().run(workload, seconds, workload.execute, set_up_again)
    while len(setups) < SETUP_REPEATS:  # rounds too long to fit them all in
        workload.close()
        setups.append(timed_setup(workload))
    return timed


def end_to_end(workload, setups: list, timed: Pass) -> dict:
    latencies = timed.latencies
    print(f"# {len(latencies)} latency samples, "
          f"{timed.attempted // len(workload.ops)} rounds of {len(workload.ops)} operations")
    print(f"# set-ups: {', '.join(f'{setup:.3f}' for setup in setups)} s")
    return {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        # Timed run = the operations' own intervals; checks are excluded.
        "throughput_ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload, seconds: float) -> tuple[dict, Pass, Pass]:
    from workloads import Layers

    before = workload.counters()
    untraced = Pass().run(workload, seconds / 2, workload.execute)
    after = workload.counters()
    matrix_hits, matrix_misses = workload.matrix_counts()
    operations = len(untraced.latencies)
    values = {name: (after[name] - before[name]) / operations for name in COUNTED}
    values["corpus.answer_cache_hit_ratio"] = ratio(
        after["answer_hits"] - before["answer_hits"],
        after["answer_misses"] - before["answer_misses"],
    )
    values["trees.matrix_cache_hit_ratio"] = ratio(matrix_hits, matrix_misses)

    layers = Layers()
    workload.start_trace()
    traced = Pass().run(workload, seconds / 2, lambda op: workload.traced(op, layers))
    count = len(traced.latencies)
    for name, unit, _ in PER_LAYER:
        if unit == "ms":
            values[name] = layers.seconds[name] / count * 1e3
    values["hcl.mc_entries"] = layers.counts["hcl.mc_entries"] / count

    untraced_median = statistics.median(untraced.latencies) * 1e3
    untraced_mean = statistics.fmean(untraced.latencies) * 1e3
    traced_mean = statistics.fmean(traced.latencies) * 1e3
    layer_sum = sum(values[name] for name in workload.TOP_LAYERS)
    print(f"# traced pass: {count} operations; untraced pass: {operations}")
    for name, unit, _ in PER_LAYER:
        per_op = "" if unit == "ratio" else "/op"
        print(f"#   {name:32s} {values[name]:12.4f} {unit}{per_op}")
    print(f"# layers summed ({' + '.join(workload.TOP_LAYERS)}): {layer_sum:.3f} ms/op = "
          f"{layer_sum / untraced_median:.1%} of the untraced median operation "
          f"({untraced_median:.3f} ms), {layer_sum / untraced_mean:.1%} of the untraced "
          f"mean ({untraced_mean:.3f} ms)")
    print(f"# tracing overhead: traced mean {traced_mean:.3f} ms/op vs untraced "
          f"{untraced_mean:.3f} ms/op ({traced_mean / untraced_mean - 1:+.1%})")
    print("# the traced pass materialises every leaf relation in full; the untraced "
          "path probes leaf rows on demand, so relation and MC times differ from it")
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: (values[name], units[name]) for name, _, _ in PER_LAYER}, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print(f"# workload {workload.name}: {workload.scale}")
    print(f"# commit {commit()}; usable cores {len(os.sched_getaffinity(0))}; "
          f"python {platform.python_version()}; numpy {numpy.__version__}; "
          f"seed {args.seed}; seconds {args.seconds:g}; trace {args.trace}")
    print(f"# reference loop before: {reference_loop_ms():.3f} ms")
    cpu_before = cpu_times()

    setups = [timed_setup(workload)]
    workload.expected()
    try:
        if args.trace:
            metrics, *passes = per_layer(workload, args.seconds)
        else:
            timed = timed_run(workload, args.seconds, setups)
            metrics, passes = end_to_end(workload, setups, timed), [timed]
    finally:
        workload.close()
    print(f"# cpu steal during the run: {steal_share(cpu_before, cpu_times()):.1%}")
    print(f"# reference loop after: {reference_loop_ms():.3f} ms")

    result = {
        "correct": all(p.wrong == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
