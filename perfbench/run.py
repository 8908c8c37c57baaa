"""schurkit benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; schurkit is imported from ./src.
With --trace 0 the run measures the end-to-end metrics with no wrappers
installed; its timings are calibrated against the machine's speed (see
calibration.py).  With --trace 1 every op runs twice, untraced and traced
(see tracing.py), and the run reports the per-layer metrics per traced op
and the tracing overhead.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Workloads, metrics and the layer table are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibration import REF_S, Calibration
from tracing import Tracer, layer_metric_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch files and span dumps; listed in .gitignore
OUT = ROOT / ".perfbench_out"
MODULES = (
    "errors", "partitions", "field", "poly", "circuits", "symmetric",
    "independence", "transforms", "derivatives", "cli",
)
#: set-up is repeated and its median reported, so one slow import is not the figure
SETUP_REPEATS = 7
#: op_tail_s is the highest of these with at least 10 samples above it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_schurkit() -> dict:
    """A fresh import of every schurkit module (name -> module)."""
    for name in [m for m in sys.modules if m == "schurkit" or m.startswith("schurkit.")]:
        del sys.modules[name]
    mods = {"schurkit": importlib.import_module("schurkit")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"schurkit.{name}")
    if not Path(mods["schurkit"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"schurkit imported from {mods['schurkit'].__file__}, not {SRC}")
    return mods


def set_up(workload_cls, seed: int, scratch: Path, calibration: Calibration):
    """Import, input generation and warm-up, repeated; returns the last
    workload and the median calibrated set-up time."""
    durations = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        samples = [calibration.sample(), calibration.sample()]
        start = time.perf_counter()
        workload = workload_cls(import_schurkit(), seed, scratch)
        workload.warm_up()
        elapsed = time.perf_counter() - start
        samples += [calibration.sample(), calibration.sample()]
        speed = statistics.fmean(samples)
        durations.append(elapsed * REF_S / speed)
    return workload, statistics.median(durations)


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.phases = defaultdict(list)
        self.gate_s: list[float] = []


def execute(workload, key, stats: Stats, tracer=None, calibration=None):
    """One op: fresh inputs, the timed call, then the gate.  Returns the
    op latency, or None if the op raised or failed its gate.  With a
    calibration the latency and phases are in reference-speed seconds."""
    stats.attempted += 1
    inputs = workload.prepare(key)
    phases = {}
    op = None
    gc.collect()
    try:
        if tracer is not None:
            op = tracer.begin_op()
        if calibration is not None:
            calibration.begin()
        start = time.perf_counter()
        try:
            output = workload.run(key, inputs, phases)
        finally:
            stopped = calibration.end() if calibration is not None else time.perf_counter()
            if tracer is not None:
                tracer.end_op()
        gate_start = time.perf_counter()
        workload.check(key, inputs, output)
        stats.gate_s.append(time.perf_counter() - gate_start)
    except Exception:
        sys.stderr.write(f"op {key!r} failed:\n")
        traceback.print_exc(file=sys.stderr)
        stats.failed += 1
        return None
    finally:
        extra = workload.release(key, inputs)
        if op is not None:
            for name, value in extra.items():
                tracer.note(op, name, value)
    elapsed = stopped - start
    scale = 1.0
    if calibration is not None:
        # drop the sampling handler's share, then convert to reference speed
        scale = (elapsed - calibration.handler_s) / elapsed * calibration.factor
    stats.raw_latencies.append(elapsed)
    stats.latencies.append(elapsed * scale)
    for name, value in phases.items():
        stats.phases[name].append(value * scale)
    return elapsed * scale


def measure(workload, seconds: float, stats: Stats, tracer=None, calibration=None):
    """Whole rounds; another one starts only if, at the mean round time so
    far, it would end less than half a round past `seconds`.

    Returns the (untraced, traced) latency pairs when tracing, the list of
    traced op keys in op-id order, and the number of rounds.
    """
    pairs, traced_keys = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for key in workload.round():
            if tracer is None:
                execute(workload, key, stats, calibration=calibration)
                continue
            # the untraced copy goes first on an op kind's first pair, so
            # lazily filled caches are warm for every traced copy; after
            # that the order alternates, as the first of two large ops
            # runs on a colder heap
            traced_first = key in traced_keys and (len(traced_keys) + workload.seed) % 2
            if traced_first:
                traced = execute(workload, key, stats, tracer)
            plain = execute(workload, key, stats)
            if not traced_first:
                traced = execute(workload, key, stats, tracer)
            traced_keys.append(key)
            if plain is not None and traced is not None:
                pairs.append((plain, traced))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return pairs, traced_keys, rounds


def tail(latencies: list[float]):
    """(percentile, value) of the highest listed percentile with at least
    TAIL_BEYOND samples above its rank, or None for too few samples."""
    ordered = sorted(latencies)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(len(ordered) * p / 100)
        if rank >= 1 and len(ordered) - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def environment(mods) -> dict:
    rat = mods["field"].Rat
    return {
        "python": platform.python_version(),
        "rat_backend": f"{rat.__module__}.{rat.__qualname__}",
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def summary(stats: Stats, rounds: int, setup_s: float):
    print(f"{stats.attempted} ops attempted in {rounds} rounds, {stats.failed} failed "
          f"(failed_frac {stats.failed / stats.attempted:.4f})")
    print(f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS} set-ups)")


def end_to_end(stats: Stats, setup_s: float) -> dict:
    lat = stats.latencies
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not lat:
        return {"setup_s": setup_s, "ops_per_s": 0.0, "op_p50_s": 0.0, "peak_rss_mb": rss_mb}
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "peak_rss_mb": rss_mb,
    }
    raw = stats.raw_latencies
    print(f"ops_per_s {metrics['ops_per_s']:.4f} 1/s, op_p50_s {metrics['op_p50_s']:.4f} s "
          f"({len(lat)} verified ops), peak_rss_mb {rss_mb:.1f} MB")
    print(f"  uncalibrated: ops_per_s {len(raw) / sum(raw):.4f} 1/s, "
          f"op_p50_s {statistics.median(raw):.4f} s")
    found = tail(lat)
    if found is None:
        print(f"op_tail_s not reported: {len(lat)} ops, a tail needs {TAIL_BEYOND}+ beyond it")
    else:
        p, value = found
        print(f"op_tail_s p{p:g} {value:.4f} s ({len(lat)} samples)")
    for name, values in sorted(stats.phases.items()):
        print(f"{name} {statistics.median(values):.4f} s (median of {len(values)} ops)")
    if stats.gate_s:
        print(f"gate_s {statistics.median(stats.gate_s):.4f} s per op, not in the op latency")
    return metrics


def per_layer(tracer, pairs, traced_keys, units: dict) -> tuple[dict, list]:
    """Per-op layer metrics from the traced copies, and any op kinds whose
    call counts differed between repeats."""
    ops = max(len(traced_keys), 1)
    per_op = tracer.per_op_calls()
    totals = defaultdict(float, tracer.self_times())
    for counts in per_op:
        for name, value in counts.items():
            if name == "circuits.expand.peak_terms":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
    metrics = {}
    for name in units:
        value = totals.get(name, 0.0)
        metrics[name] = value if name.endswith("peak_terms") else value / ops
    if pairs:
        plain = sum(p for p, _ in pairs)
        traced = sum(t for _, t in pairs)
        metrics["trace.overhead_s"] = (traced - plain) / len(pairs)
        metrics["trace.overhead_frac"] = (traced - plain) / plain
        print(f"trace overhead {metrics['trace.overhead_s']:.4f} s per op "
              f"({100 * metrics['trace.overhead_frac']:.1f} % of {plain / len(pairs):.4f} s untraced)")
    seen, unstable = {}, []
    for key, counts in zip(traced_keys, per_op):
        calls = {k: v for k, v in counts.items() if k.endswith(".calls")}
        first = seen.setdefault(repr(key), calls)
        if first != calls:
            differing = sorted(k for k in first.keys() | calls.keys() if first.get(k) != calls.get(k))
            unstable.append((key, differing))
    return metrics, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schurkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no schurkit sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        calibration = Calibration()
        workload, setup_s = set_up(WORKLOADS[args.workload], args.seed, scratch, calibration)
        print(f"schurkit benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print("environment " + json.dumps(environment(workload.mods), sort_keys=True))
        stats = Stats()
        if args.trace:
            tracer = Tracer()
            tracer.install(workload.mods)
            try:
                pairs, traced_keys, rounds = measure(workload, args.seconds, stats, tracer)
            finally:
                tracer.uninstall()
            units = layer_metric_units()
            summary(stats, rounds, setup_s)
            values, unstable = per_layer(tracer, pairs, traced_keys, units)
            if unstable:
                print(f"call counts differ between repeats of an op: {unstable}")
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(tracer.spans))
            print(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
            correct = stats.failed == 0 and not unstable
        else:
            _, _, rounds = measure(workload, args.seconds, stats, calibration=calibration)
            summary(stats, rounds, setup_s)
            values = end_to_end(stats, setup_s)
            units = END_TO_END_UNITS
            correct = stats.failed == 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
