#!/usr/bin/env python3
"""Machine-readable benchmark trajectory: write ``BENCH_report.json``.

The benchmark harness persists every exhibit as human-oriented tables
under ``benchmarks/results/``; CI wants one machine-readable summary it
can upload as an artifact and plot across runs.  This script distils the
key performance trajectory — simulation kernel events/second, Monte-Carlo
grid wall time, analytic sweep wall time, campaign memoization speedup,
result-store warm-run numbers, fuzz cell and scenario-generation rates,
the admission service's warm-server throughput, the cross-engine
(``--engine all``) campaign rate and the routing rates — from those
committed CSVs into a single JSON document.

Run after the benchmarks (``pytest benchmarks -q``)::

    python tools/bench_report.py [--output BENCH_report.json]

Missing inputs are reported in the JSON (``"missing"``) rather than
failing, so a partial benchmark run still produces a useful artifact.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
DEFAULT_OUTPUT = "BENCH_report.json"


def _number(text: str) -> float | str:
    """Parse ``'809,379'`` / ``'1.08'`` / ``'141x'``-style cells."""
    cleaned = text.strip().rstrip("x%").replace(",", "").strip()
    try:
        return float(cleaned)
    except ValueError:
        return text.strip()


def _metric_rows(name: str) -> dict[str, str]:
    """A two-column ``metric,value`` CSV as a dict (empty if absent)."""
    path = RESULTS_DIR / f"{name}.csv"
    if not path.is_file():
        return {}
    with path.open(newline="") as handle:
        return {row["metric"]: row["value"]
                for row in csv.DictReader(handle)}


def _sim_throughput() -> dict:
    path = RESULTS_DIR / "sim_throughput.csv"
    if not path.is_file():
        return {}
    with path.open(newline="") as handle:
        return {row["policy"]: {
            "events_per_sec": _number(row["events_per_sec"]),
            "speedup_over_pre_rewrite": _number(row["speedup"]),
        } for row in csv.DictReader(handle)}


def _engine_sweep() -> dict:
    """The ``--engine all`` row of ``engines.csv`` (empty if absent)."""
    path = RESULTS_DIR / "engines.csv"
    if not path.is_file():
        return {}
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            if row["mode"] == "--engine all":
                return {
                    "scenarios": _number(row["scenarios"]),
                    "flows": _number(row["flows"]),
                    "route_lookups": _number(row["route lookups"]),
                    "engine_rows": _number(row["engine rows"]),
                    "best_run_ms": _number(
                        row["best run"].removesuffix(" ms")),
                    "rows_per_sec": _number(row["rows/s"]),
                }
    return {}


def build_report() -> dict:
    """The benchmark-trajectory document, section by section."""
    report: dict = {"missing": []}

    simulation = _sim_throughput()
    if simulation:
        report["simulation_kernel"] = simulation
    else:
        report["missing"].append("sim_throughput.csv")

    grid = _metric_rows("monte_carlo_grid")
    if grid:
        report["monte_carlo_grid"] = {
            "cells": _number(grid.get("cells", "")),
            "events_total": _number(grid.get("events_total", "")),
            "wall_time_s": _number(grid.get("wall_time_s", "")),
        }
    else:
        report["missing"].append("monte_carlo_grid.csv")

    scaling = _metric_rows("perf_scaling")
    if scaling:
        report["analytic_sweep"] = {
            "wall_time_s": _number(scaling.get("wall_time_s", "")),
            "speedup_over_seed": _number(scaling.get("speedup", "")),
            "messages_at_64x": _number(scaling.get("messages_at_64x", "")),
        }
    else:
        report["missing"].append("perf_scaling.csv")

    campaign_path = RESULTS_DIR / "campaign.csv"
    if campaign_path.is_file():
        with campaign_path.open(newline="") as handle:
            report["campaign_memoization"] = list(csv.DictReader(handle))
    else:
        report["missing"].append("campaign.csv")

    store = _metric_rows("store_warm")
    if store:
        report["result_store"] = {
            "cold_s": _number(store.get("cold_s", "")),
            "warm_s": _number(store.get("warm_s", "")),
            "warm_speedup": _number(store.get("speedup", "")),
            "warm_recomputations": _number(
                store.get("warm_recomputations", "")),
            "warm_hit_rate_percent": _number(
                store.get("warm_hit_rate", "")),
        }
    else:
        report["missing"].append("store_warm.csv")

    fuzz = _metric_rows("fuzz_throughput")
    if fuzz:
        report["fuzz_throughput"] = {
            "cells_per_sec": _number(fuzz.get("cells_per_sec", "")),
            "generated_per_sec": _number(fuzz.get("generated_per_sec", "")),
            "events_total": _number(fuzz.get("events_total", "")),
        }
    else:
        report["missing"].append("fuzz_throughput.csv")

    serve = _metric_rows("serve_throughput")
    if serve:
        report["serve_throughput"] = {
            "submit_qps": _number(serve.get("submit_qps", "")),
            "http_qps": _number(serve.get("http_qps", "")),
            "keepalive_round_trip_ms": _number(
                serve.get("keepalive_round_trip_ms", "")),
            "mutation_ops_per_s": _number(
                serve.get("mutation_ops_per_s", "")),
            "worker_p99_ms": _number(serve.get("worker_p99_ms", "")),
        }
    else:
        report["missing"].append("serve_throughput.csv")

    engines = _engine_sweep()
    if engines:
        report["engines"] = engines
    else:
        report["missing"].append("engines.csv")

    routing = _metric_rows("routing_throughput")
    if routing:
        report["routing_throughput"] = {
            "routes": _number(routing.get("routes", "")),
            "routes_per_sec": _number(routing.get("routes_per_sec", "")),
            "multihop_cells": _number(routing.get("multihop_cells", "")),
            "cells_per_sec": _number(routing.get("cells_per_sec", "")),
            "violations": _number(routing.get("violations", "")),
        }
    else:
        report["missing"].append("routing_throughput.csv")

    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"where to write the JSON document "
                             f"(default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    report = build_report()
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    sections = sorted(key for key in report if key != "missing")
    print(f"bench-report: wrote {output} ({', '.join(sections)}"
          f"{'; missing: ' + ', '.join(report['missing']) if report['missing'] else ''})")
    return 0 if sections else 1


if __name__ == "__main__":
    raise SystemExit(main())
