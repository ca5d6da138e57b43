"""The repository benchmark: one command, four seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-engines --seed 1 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs the same units twice, untraced then
traced, and reports the per-layer metrics, the traced run's coverage of
wall time and the tracing overhead; it also writes a Chrome trace and a
per-layer table under ``.perfbench-out/``.  Every run checks the
program's outputs.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 0 only when every check held.

The end-to-end metrics, on every workload:

``setup_s``
    launch of a fresh process to its first timed operation (for
    ``admission``: ``repro serve`` launch to ``/health`` ready), median
    of :data:`SETUP_SAMPLES` launches.
``peak_rss_mb``
    peak resident set of this process, plus the server's for
    ``admission``.
``throughput_per_s``
    the workload's work per second: engine rows (``sweep-engines``),
    fuzz cells (``fuzz-multihop``), simulated events (``simulate``), or
    answered requests per second of their round trips at the fixed
    offered rate (``admission``: the pace the server sets, not the
    schedule's).
``latency_p50_ms``
    median time one unit of user work takes: a whole sweep, a batch of
    eight fuzz cells, one simulate campaign, or one request timed from
    when it was due.  The ``admission`` p99 is printed, not gated: over
    ten seeds its spread was 41% (rare 20-150 ms stalls sit right at the
    1% tail), wider than any bound allowed.

Failed operations are counted in ``failed``, never in a metric: a
metric must not read zero.  Times are in reference seconds (wall time
scaled by the host's speed while it elapsed, see :mod:`perfbench.speed`);
the human-readable lines give the raw wall figures too.  Load comes from
this one process (and, for ``admission``, one server process driven over
one HTTP connection), because the reference host has two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parser(names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or all of them).")
    parser.add_argument("--workload", required=True,
                        choices=list(names) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample (self-tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------

def _probe_setup(args) -> tuple[float, float]:
    """Launch a process that sets the workload up: (launch, ready)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--setup-probe"]
    if args.smoke:
        command.append("--smoke")
    launched = time.perf_counter()
    process = subprocess.Popen(command, cwd=str(ROOT),
                               stdout=subprocess.PIPE, text=True)
    line = process.stdout.readline()
    ready = time.perf_counter()
    process.stdout.read()
    process.stdout.close()
    if process.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return launched, ready


def _setup_intervals(workload, args) -> list[tuple[float, float]]:
    """Launch-to-ready intervals, one per fresh process."""
    count = 1 if args.smoke else SETUP_SAMPLES
    if workload.name == "admission":
        # Launch to /health ready; the last server stays up for the run.
        intervals = []
        for _ in range(count - 1):
            server = workload.launch()
            intervals.append((server.launched, server.ready))
            server.stop()
        workload.setup()
        intervals.append((workload.server.launched, workload.server.ready))
        return intervals
    intervals = [_probe_setup(args) for _ in range(count)]
    workload.setup()
    return intervals


def run_end_to_end(workload, args, sampler) -> tuple[dict, object]:
    from perfbench.workloads import peak_rss_mb, percentile
    intervals = _setup_intervals(workload, args)
    measured = workload.measure(args.seconds)
    rss = peak_rss_mb()
    server = getattr(workload, "server", None)
    if server is not None:
        rss += server.peak_rss_mb()
    measured.finalize(sampler)
    workload.describe(measured)
    setups = [sampler.reference_seconds(*interval) for interval in intervals]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": measured.throughput,
        "latency_p50_ms": percentile(measured.latencies, 0.5) * 1e3,
    }
    walls = [end - start for start, end in intervals]
    print(f"setup samples: {', '.join(f'{value:.4f}' for value in setups)} "
          f"reference s ({', '.join(f'{value:.4f}' for value in walls)} "
          f"wall s)")
    print(f"{measured.units} units, {len(measured.latencies)} latency "
          f"samples, throughput in {workload.unit} per reference second; "
          f"{measured.busy_s:.3f} reference s in {measured.wall_s:.3f} "
          f"wall s")
    return metrics, measured


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

def _layer_metrics(data: dict, *, wall_s: float, overhead_s: float,
                   predicted: str, stats: dict | None) -> tuple[dict, list]:
    """Per-layer metrics, the per-layer table and the prediction note."""
    from perfbench.tracer import BOOKKEEPING_SPANS
    spans = data["spans"]
    counters = data["counters"]
    metrics: dict[str, float] = {}
    for name, (calls, self_ns, _total) in spans.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_ns / 1e9
    metrics.update(counters)
    metrics["topology.route.reuse_ratio"] = (
        data["route_keys"] / data["route_calls"] if data["route_calls"]
        else 0.0)
    run_total = spans.get("simulation.run", [0, 0, 0])[2] / 1e9
    metrics["simulation.events_per_busy_s"] = (
        counters.get("simulation.events", 0) / run_total if run_total
        else 0.0)
    cell_total = spans.get("exec.cell", [0, 0, 0])[2] / 1e9
    map_total = spans.get("exec.map", [0, 0, 0])[2] / 1e9
    metrics["exec.map.overhead_s"] = max(0.0, map_total - cell_total)
    layers = {name: values for name, values in spans.items()
              if name not in BOOKKEEPING_SPANS}
    covered = sum(values[1] for values in layers.values()) / 1e9
    metrics["trace.coverage_share"] = covered / wall_s if wall_s else 0.0
    metrics["trace.uncovered_s"] = max(0.0, wall_s - covered)
    metrics["trace.overhead_s"] = overhead_s
    top = max(layers, key=lambda name: layers[name][1], default="")
    metrics["trace.prediction_met"] = 1 if top == predicted else 0
    if stats is not None:
        hits = stats.get("incremental_hits", 0)
        total = hits + stats.get("full_recomputes", 0)
        metrics["serve.engine.incremental_ratio"] = hits / total if total \
            else 0.0
        for counter in ("shed", "degraded", "errors"):
            metrics[f"serve.{counter}"] = stats.get(counter, 0)
    table = sorted(((name, values[0], values[1] / 1e9)
                    for name, values in spans.items()),
                   key=lambda row: -row[2])
    note = (f"top layer by self time: {top or '-'} (predicted {predicted}: "
            f"{'met' if top == predicted else 'MISSED'})")
    return metrics, [table, note]


def _write_layer_table(path: Path, table, wall_s: float) -> list[str]:
    lines = [f"{'span':58} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for name, calls, self_s in table:
        share = self_s / wall_s if wall_s else 0.0
        lines.append(f"{name:58} {calls:9d} {self_s:10.4f} {share:7.1%}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return lines


def run_traced(workload, args, sampler) -> tuple[dict, object]:
    """The same units untraced, then traced; layers come from the latter.

    Span times are wall seconds, so coverage is a share of the traced
    wall time.  The tracing overhead compares the two runs in reference
    seconds.
    """
    from perfbench.tracer import Tracer, write_chrome_trace
    half = args.seconds / 2
    workload.setup()
    if workload.name == "admission":
        plain = workload.measure(half, max_units=1)
        workload.close()
        workload.traced = True
        workload.setup()
        traced = workload.measure(half, max_units=1)
        stats = workload.server_stats
        data = workload.server.stop()
        workload.server = None
        data["counters"]["serve.queue_wait_s"] = data["queue_wait_s"]
        submit = {int(seq): value for seq, value in data["submit_s"].items()}
        # The server idles between requests: its wall time is the sum of
        # the client's round trips, and what submit does not cover is HTTP.
        wall_s = sum(workload.round_trips.values())
        data["counters"]["serve.http_s"] = sum(
            rtt - submit.get(seq, 0.0)
            for seq, rtt in workload.round_trips.items())
    else:
        stats = None
        plain = workload.measure(half)
        workload.setup()
        tracer = Tracer()
        workload.tracer = tracer
        with tracer:
            traced = workload.measure(float("inf"), max_units=plain.units)
        workload.tracer = None
        data = tracer.export()
    plain.finalize(sampler)
    traced.finalize(sampler)
    if workload.name != "admission":
        wall_s = traced.wall_s
    overhead = traced.busy_s - plain.busy_s
    metrics, (table, note) = _layer_metrics(
        data, wall_s=wall_s, overhead_s=overhead,
        predicted=workload.predicted_top, stats=stats)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{workload.name}-seed{args.seed}"
    write_chrome_trace(stem.with_suffix(".json"), data["events"])
    lines = _write_layer_table(stem.with_suffix(".txt"), table, wall_s)
    print(f"traced {traced.units} units in {wall_s:.3f} wall s; tracing "
          f"overhead {overhead:.3f} reference s ({traced.busy_s:.3f} traced "
          f"vs {plain.busy_s:.3f} untraced)")
    print(f"layer spans cover {metrics['trace.coverage_share']:.1%} of the "
          f"traced wall time; uncovered {metrics['trace.uncovered_s']:.3f} s")
    for line in lines:
        print(line)
    print(note)
    print(f"wrote {stem.with_suffix('.json').relative_to(ROOT)} and "
          f"{stem.with_suffix('.txt').relative_to(ROOT)}")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.problems.extend(traced.problems)
    if plain.digest != traced.digest:
        plain.problems.append("traced and untraced runs of the same units "
                              "produced different results")
    return metrics, plain


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [workload["name"] for workload in _spec()["workloads"]]:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        process = subprocess.run(command, cwd=str(ROOT), text=True,
                                 stdout=subprocess.PIPE)
        lines = process.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        combined["correct"] &= process.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro sources under {ROOT / 'src'}; "
                         f"run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.speed import SpeedSampler
    from perfbench.workloads import WORKLOADS, remove_tree

    args = _parser(WORKLOADS).parse_args(argv)
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    if args.workload == "all":
        return _run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
    try:
        if args.setup_probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        with SpeedSampler() as sampler:
            if args.trace:
                metrics, measured = run_traced(workload, args, sampler)
                wanted = _spec()["per_layer"]
            else:
                metrics, measured = run_end_to_end(workload, args, sampler)
                wanted = _spec()["end_to_end"]
    finally:
        workload.close()
        remove_tree(workdir)
    for name, (value, unit) in measured.extra.items():
        print(f"metric {name} {value:.6g} {unit}")
    report = {}
    for metric in wanted:
        value = float(metrics.get(metric["name"], 0.0))
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"metric {metric['name']} {value:.6g} {metric['unit']}")
    print(f"digest {measured.digest} (canonical-JSON sha256 of the first "
          f"unit's results)")
    for problem in measured.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not measured.problems and measured.failed == 0
    print(json.dumps({"correct": correct, "attempted": measured.attempted,
                      "failed": measured.failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
