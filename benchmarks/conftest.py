"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one exhibit of the paper (see DESIGN.md's
experiment index) on the seeded synthetic case study, prints the rows the
paper reports and writes them as both a text table and a CSV file, so
they can be inspected or re-plotted afterwards.

The tables land in the committed ``benchmarks/results/`` only when
``REPRO_BENCH_UPDATE=1`` is set (the CI jobs that publish the benchmark
trajectory set it); otherwise they go to a session temporary directory,
so a plain test run leaves the working tree clean.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow running the benchmarks from a source checkout even when the package
# has not been pip-installed (the offline environment lacks the ``wheel``
# package needed by PEP 517 editable installs).
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import os

import pytest

from repro import MessageSet
from repro.reporting import render_table, write_csv
from repro.store import STORE_DIR_ENV
from repro.workloads import RealCaseParameters, generate_real_case


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory) -> None:
    """Keep benchmark runs from touching the checkout's result store."""
    os.environ[STORE_DIR_ENV] = str(tmp_path_factory.mktemp("repro-store"))

#: Where the benchmark harness drops its tables and CSV files when
#: :data:`UPDATE_ENV` is ``1``.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Opt-in switch for rewriting the committed ``benchmarks/results/``.
UPDATE_ENV = "REPRO_BENCH_UPDATE"


@pytest.fixture(scope="session")
def real_case() -> MessageSet:
    """The default seeded case study (the paper's 'real traffic' stand-in)."""
    return generate_real_case()


@pytest.fixture(scope="session")
def small_case() -> MessageSet:
    """A reduced case study for the simulation-heavy experiments."""
    return generate_real_case(
        RealCaseParameters(station_count=8), seed=3, name="small-case")


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """``benchmarks/results/`` if ``REPRO_BENCH_UPDATE=1``, else a tmp dir."""
    if os.environ.get(UPDATE_ENV) != "1":
        return tmp_path_factory.mktemp("bench-results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_values(results_dir):
    """Return a helper merging ``bench.*`` keys into BENCH_values.json.

    Several benchmarks contribute docs-facing numbers; each merges its
    own keys so running one benchmark never drops another's values.
    """
    import json

    path = results_dir / "BENCH_values.json"

    def _merge(values: dict) -> None:
        existing = {}
        if path.is_file():
            try:
                existing = json.loads(path.read_text(encoding="utf-8"))
            except ValueError:
                existing = {}
        existing.update(values)
        path.write_text(
            json.dumps(existing, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    return _merge


@pytest.fixture(scope="session")
def report(results_dir):
    """Return a helper that prints a table and persists it under results/."""

    def _report(name: str, title: str, headers, rows) -> None:
        table = render_table(headers, rows, title=title)
        print()
        print(table)
        (results_dir / f"{name}.txt").write_text(table)
        write_csv(results_dir / f"{name}.csv", headers, rows)

    return _report
