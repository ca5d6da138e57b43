"""``tools/bench_report.py`` distils the committed benchmark CSVs."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_bench_report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "tools" / "bench_report.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_report", module)
    spec.loader.exec_module(module)
    return module


bench_report = _load_bench_report()


def test_report_carries_the_monte_carlo_grid(tmp_path, capsys):
    output = tmp_path / "BENCH_report.json"
    assert bench_report.main(["--output", str(output)]) == 0
    assert "monte_carlo_grid" in capsys.readouterr().out
    grid = json.loads(output.read_text())["monte_carlo_grid"]
    assert sorted(grid) == ["cells", "events_total", "wall_time_s"]
    committed = bench_report._metric_rows("monte_carlo_grid")
    assert grid["cells"] == float(committed["cells"])
    assert grid["events_total"] == float(committed["events_total"])
    assert grid["wall_time_s"] == float(committed["wall_time_s"])
    assert grid["wall_time_s"] > 0


def test_report_carries_the_serve_throughput(tmp_path, capsys):
    output = tmp_path / "BENCH_report.json"
    assert bench_report.main(["--output", str(output)]) == 0
    assert "serve_throughput" in capsys.readouterr().out
    serve = json.loads(output.read_text())["serve_throughput"]
    assert sorted(serve) == ["http_qps", "keepalive_round_trip_ms",
                             "mutation_ops_per_s", "submit_qps",
                             "worker_p99_ms"]
    committed = bench_report._metric_rows("serve_throughput")
    for name, value in serve.items():
        assert value == float(committed[name]), name
    assert serve["http_qps"] > 0
    assert serve["keepalive_round_trip_ms"] > 0


def test_report_carries_the_fuzz_throughput(tmp_path, capsys):
    output = tmp_path / "BENCH_report.json"
    assert bench_report.main(["--output", str(output)]) == 0
    assert "fuzz_throughput" in capsys.readouterr().out
    fuzz = json.loads(output.read_text())["fuzz_throughput"]
    assert sorted(fuzz) == ["cells_per_sec", "events_total",
                            "generated_per_sec"]
    committed = bench_report._metric_rows("fuzz_throughput")
    assert fuzz["cells_per_sec"] == float(committed["cells_per_sec"])
    assert fuzz["events_total"] == float(committed["events_total"])
    assert fuzz["generated_per_sec"] == float(
        committed["generated_per_sec"].replace(",", ""))
    assert fuzz["cells_per_sec"] > 0


def test_a_missing_fuzz_table_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_report, "RESULTS_DIR", tmp_path)
    report = bench_report.build_report()
    assert "fuzz_throughput" not in report
    assert "fuzz_throughput.csv" in report["missing"]


def test_a_missing_serve_table_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_report, "RESULTS_DIR", tmp_path)
    report = bench_report.build_report()
    assert "serve_throughput" not in report
    assert "serve_throughput.csv" in report["missing"]


def test_report_carries_the_engine_sweep(tmp_path, capsys):
    output = tmp_path / "BENCH_report.json"
    assert bench_report.main(["--output", str(output)]) == 0
    assert "engines" in capsys.readouterr().out
    engines = json.loads(output.read_text())["engines"]
    assert sorted(engines) == ["best_run_ms", "engine_rows", "flows",
                               "route_lookups", "rows_per_sec", "scenarios"]
    with (bench_report.RESULTS_DIR / "engines.csv").open(
            newline="") as handle:
        row = next(row for row in csv.DictReader(handle)
                   if row["mode"] == "--engine all")
    assert engines["scenarios"] == float(row["scenarios"])
    assert engines["flows"] == float(row["flows"])
    assert engines["route_lookups"] == float(row["route lookups"])
    assert engines["engine_rows"] == float(row["engine rows"])
    assert engines["best_run_ms"] == float(
        row["best run"].removesuffix(" ms"))
    assert engines["rows_per_sec"] == float(row["rows/s"].replace(",", ""))
    assert engines["rows_per_sec"] > 0
    # Routing asks once per distinct (source, destination) pair, so a
    # sweep looks up fewer routes than it bounds flows.
    assert 0 < engines["route_lookups"] < engines["flows"]


def test_report_carries_the_routing_throughput(tmp_path, capsys):
    output = tmp_path / "BENCH_report.json"
    assert bench_report.main(["--output", str(output)]) == 0
    assert "routing_throughput" in capsys.readouterr().out
    routing = json.loads(output.read_text())["routing_throughput"]
    assert sorted(routing) == ["cells_per_sec", "multihop_cells", "routes",
                               "routes_per_sec", "violations"]
    committed = bench_report._metric_rows("routing_throughput")
    for name, value in routing.items():
        assert value == float(committed[name].replace(",", "")), name
    assert routing["routes_per_sec"] > 0


def test_missing_engine_and_routing_tables_are_reported(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(bench_report, "RESULTS_DIR", tmp_path)
    report = bench_report.build_report()
    assert "engines" not in report and "routing_throughput" not in report
    assert "engines.csv" in report["missing"]
    assert "routing_throughput.csv" in report["missing"]
