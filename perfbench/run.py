"""Benchmark runner: one workload, one process, one thread, closed loop, one caller.

    python3 perfbench/run.py --workload agent_heavy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory and from nowhere else.  ``--trace 0`` measures the
end-to-end metrics with nothing patched.  ``--trace 1`` alternates untraced
and traced sweeps over the workload's fixed prefix of instances and reports
per-layer self time, call counts, result counts and the tracing overhead.
Every output is checked; the last line of standard output is one JSON object,
and the exit code is 1 when any check failed.  Times are corrected for
machine speed (see ``speed.py``); the uncorrected ones are printed too.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import Scaler
from tracing import SPAN_NAMES, Tracer
from workloads import WORKLOADS, check, generate, result_counts, work

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "subsidy_fairdiv"
MODULES = ("model", "ido", "fbta", "graph", "split", "rounding", "oracle")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "throughput_inst_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COUNT_UNITS = {
    "graph.max_tree_edges": "count",
    "rounding.max_denominator_bits": "bits",
    "rounding.threshold_win_ratio": "ratio",
    "rounding.subsidy_to_bound": "ratio",
    "oracle.cap_exceeded": "count",
    "oracle.gap_mean": "subsidy",
}


def import_library() -> dict:
    """Fresh import of the package from ``ROOT/src``; module name -> module."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    mods = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
    origin = Path(mods["model"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {ROOT / 'src'}")
    return mods


def setup(workload, seed: int, scaler: Scaler):
    """Import plus generation and serialization of the prefix, timed.

    Repeated ``SETUP_REPEATS`` times; the last repetition's modules and
    instances are the ones the run uses.  Returns (modules, prefix, raw
    times, corrected times).
    """
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = import_library()
        prefix = []
        for k in range(workload.prefix):
            inst = generate(mods["model"], workload, seed, k)
            prefix.append((inst, mods["model"].serialize_instance(inst)))
        raw.append(time.perf_counter() - t0)
        corrected.append(raw[-1] * scaler.factor())
    return mods, prefix, raw, corrected


def run_one(mods, workload, k: int, inst, text: str):
    """Time the library calls for one instance, then check the outputs.

    Returns (outcome, latency s, busy s including the check, failures);
    the outcome is None when the instance failed.
    """
    t0 = time.perf_counter()
    try:
        out = work(mods, workload, inst, text)
    except Exception:  # a failing instance is counted, the run goes on
        elapsed = time.perf_counter() - t0
        return None, elapsed, elapsed, [f"instance {k} raised:\n{traceback.format_exc()}"]
    t1 = time.perf_counter()
    try:
        bad = check(workload, out)
    except Exception:
        bad = [f"check raised:\n{traceback.format_exc()}"]
    busy = time.perf_counter() - t0
    return (None if bad else out), t1 - t0, busy, [f"instance {k}: {b}" for b in bad]


def tail_percentile(count: int) -> int:
    """Highest whole percentile with ``TAIL_BEYOND`` samples beyond it, at least 50."""
    for p in range(99, 50, -1):
        if count - math.ceil(p * count / 100) >= TAIL_BEYOND:
            return p
    return 50


def percentile(ordered: list[float], p: int) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(math.ceil(p * len(ordered) / 100) - 1, 0)]


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def output_digest(outcomes) -> str:
    return digest(b"<failed>" if out is None else out.emitted for out in outcomes)


def measure(mods, workload, seed, prefix, seconds, scaler):
    """Closed loop over instances 0, 1, 2, ... until ``seconds`` have passed.

    The prefix always completes.  Instances past the prefix are generated
    outside the timed regions.  Returns raw and corrected (latency, busy)
    samples, the failure messages, the failed count and the prefix outcomes.
    """
    raw, corrected, pending, failures, first = [], [], [], [], []
    failed = 0
    start = last = time.perf_counter()
    step = k = 0
    # stop before an instance that would, at the last one's pace, end late
    while k < len(prefix) or last + step - start < seconds:
        if k < len(prefix):
            inst, text = prefix[k]
        else:
            inst = generate(mods["model"], workload, seed, k)
            text = mods["model"].serialize_instance(inst)
        out, latency, busy, bad = run_one(mods, workload, k, inst, text)
        failures.extend(bad)
        failed += out is None
        if k < len(prefix):
            first.append(out)
        pending.append((latency, busy))
        k += 1
        step = time.perf_counter() - last
        last += step
        if scaler.due():
            scale = scaler.factor()
            corrected += [(lat * scale, b * scale) for lat, b in pending]
            raw += pending
            pending = []
    if pending:
        scale = scaler.factor()
        corrected += [(lat * scale, b * scale) for lat, b in pending]
        raw += pending
    return raw, corrected, failures, failed, first


def timing_metrics(samples) -> tuple[dict[str, float], int]:
    ordered = sorted(lat for lat, _ in samples)
    p = tail_percentile(len(ordered))
    return {
        "throughput_inst_per_s": len(samples) / sum(b for _, b in samples),
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_tail_ms": 1e3 * percentile(ordered, p),
    }, p


def run_untraced(mods, workload, seed, prefix, seconds, setup_times, scaler, lines):
    raw, corrected, failures, failed, outcomes = measure(
        mods, workload, seed, prefix, seconds, scaler
    )
    count = len(corrected)
    metrics, p = timing_metrics(corrected)
    metrics["setup_s"] = statistics.median(setup_times[1])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw_metrics, _ = timing_metrics(raw)
    raw_metrics["setup_s"] = statistics.median(setup_times[0])
    beyond = count - math.ceil(p * count / 100)
    lines.append(f"samples {count}; latency_tail_ms is p{p}, {beyond} samples beyond it")
    lines.append(
        "uncorrected " + ", ".join(f"{name} {value:.6g}" for name, value in raw_metrics.items())
    )
    lines.append(f"speed probe median {1e3 * statistics.median(scaler.probes):.3f} ms")
    lines.append(f"failed_share {failed / count:.6g} ({failed} of {count} instances)")
    if None not in outcomes:
        counts = result_counts(outcomes)
        lines.append(f"subsidy_to_bound {counts['rounding.subsidy_to_bound']:.6g} (prefix)")
        if workload.oracle:
            lines.append(f"oracle_gap_mean {counts['oracle.gap_mean']:.6g} (prefix)")
    lines.append(f"digest.outputs {output_digest(outcomes)}")
    metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
    return metrics, count, failed, failures


def sweep(mods, workload, prefix, failures, tracer=None):
    """Run and check every prefix instance once; returns (outcomes, wall s)."""
    outcomes = []
    t0 = time.perf_counter()
    for k, (inst, text) in enumerate(prefix):
        if tracer is not None:
            tracer.request = k
        out, _, _, bad = run_one(mods, workload, k, inst, text)
        failures.extend(bad)
        outcomes.append(out)
    return outcomes, time.perf_counter() - t0


def run_traced(mods, workload, prefix, seconds, scaler, lines):
    """Alternate untraced and traced sweeps over the prefix until time is up."""
    tracer = Tracer(PACKAGE)
    failures = []
    walls = {"untraced": 0.0, "traced": 0.0}
    self_ns: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
    calls: dict[str, int] = dict.fromkeys(SPAN_NAMES, 0)
    digests = set()
    sweeps = failed = 0
    outcomes = []
    start = last = time.perf_counter()
    step = 0.0
    while sweeps == 0 or last + step - start < seconds:
        plain, wall = sweep(mods, workload, prefix, failures)
        walls["untraced"] += wall * scaler.factor()
        first_span = len(tracer.spans)
        tracer.install()
        try:
            outcomes, wall = sweep(mods, workload, prefix, failures, tracer)
        finally:
            tracer.uninstall()
        scale = scaler.factor()
        walls["traced"] += wall * scale
        for span in tracer.spans[first_span:]:
            self_ns[span[3]] += span[6] * scale
            calls[span[3]] += 1
        digests.update((output_digest(plain), output_digest(outcomes)))
        failed += plain.count(None) + outcomes.count(None)
        sweeps += 1
        step = time.perf_counter() - last
        last += step
    if len(digests) != 1:
        failures.append("digest: traced and untraced sweeps emitted different bytes")
        failed += 1
    instances = sweeps * len(prefix)
    traced = walls["traced"] / instances
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9 / instances, "s/inst")
        metrics[f"{name}.calls"] = (calls[name] / instances, "count/inst")
    metrics["trace.wall_s"] = (traced, "s/inst")
    metrics["trace.unspanned_s"] = (traced - sum(self_ns.values()) / 1e9 / instances, "s/inst")
    metrics["trace.overhead_ratio"] = (walls["traced"] / walls["untraced"] - 1, "ratio")
    metrics["trace.absent_functions"] = (len(tracer.absent), "count")
    if None not in outcomes:
        for name, value in result_counts(outcomes).items():
            metrics[name] = (value, COUNT_UNITS.get(name, "count/inst"))
    lines.append(f"traced sweeps {sweeps} x {len(prefix)} instances, {len(tracer.spans)} spans")
    lines.append("absent " + (", ".join(tracer.absent) or "none"))
    lines.append(f"digest.outputs {digests.pop() if len(digests) == 1 else 'MISMATCH'}")
    for name in SPAN_NAMES:
        share = metrics[f"{name}.self_s"][0] / traced
        lines.append(f"share {name} {100 * share:.1f}% of traced wall")
    tracer.write(ROOT / "perfbench" / "out" / f"spans_{workload.name}.jsonl")
    return metrics, instances, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    scaler = Scaler()
    try:
        mods, prefix, *setup_times = setup(workload, args.seed, scaler)
    except ImportError as exc:
        print(f"error: cannot import the library: {exc}", file=sys.stderr)
        return 2
    lines = [
        f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        f"env python {platform.python_version()}, nproc {os.cpu_count()}, "
        "1 process, 1 thread, closed loop with 1 caller",
        f"digest.inputs {digest(text.encode() for _, text in prefix)}",
    ]
    if args.trace:
        metrics, attempted, failed, failures = run_traced(
            mods, workload, prefix, args.seconds, scaler, lines
        )
    else:
        metrics, attempted, failed, failures = run_untraced(
            mods, workload, args.seed, prefix, args.seconds, setup_times, scaler, lines
        )
    for failure in failures:
        print(failure, file=sys.stderr)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
