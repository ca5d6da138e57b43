"""Self-tests of the benchmark: smoke runs, seeded inputs, tracer hygiene.

Run with ``python -m pytest perfbench/tests``.  The smoke runs use tiny
inputs (``--smoke``) and only check that every metric of
``BENCHMARK.json`` is reported with its unit and that the output checks
hold; they measure nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import tracer as perf_tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)


def test_spec_names_the_implemented_workloads():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace,
                                                      section):
    process = _run(workload, trace)
    assert process.returncode == 0, process.stdout + process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: value["unit"] for name, value
            in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"metric {name} " in process.stdout
    if section == "end_to_end":
        assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    def encoded(seed: int) -> str:
        return json.dumps(WORKLOADS[workload](seed, tmp_path).inputs(),
                          sort_keys=True)

    # A second process (another hash seed) must draw the same bytes.
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; "
            "from perfbench.workloads import WORKLOADS; "
            "print(json.dumps(WORKLOADS[sys.argv[3]](5, None).inputs(), "
            "sort_keys=True))")
    other = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT), workload],
        capture_output=True, text=True, check=True, timeout=120)
    assert other.stdout.strip() == encoded(5)
    assert encoded(5) != encoded(6)


def _bindings() -> dict:
    """Every binding the hooks patch, mapped to the object it holds."""
    import importlib
    found = {}
    for hook in perf_tracer.LAYER_HOOKS:
        module = importlib.import_module(hook.module)
        owner_name, _, attribute = hook.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            found[(id(owner), attribute)] = (owner, attribute,
                                             vars(owner).get(attribute))
        else:
            original = getattr(module, attribute)
            for bound, name in perf_tracer._bindings(original):
                found[(id(bound), name)] = (bound, name, original)
    return found


def test_tracing_wrappers_restore_the_original_functions():
    import repro.cli  # noqa: F401 - the tracer patches every loaded module
    before = _bindings()
    tracer = perf_tracer.Tracer()
    with tracer:
        for owner, name, original in before.values():
            assert vars(owner)[name] is not original, name
        from repro.store import fingerprint
        fingerprint({"key": [1, 2.5, "x"]})
    for owner, name, original in before.values():
        assert vars(owner)[name] is original, name
    # fingerprint -> canonical_json is one merged store.fingerprint span.
    assert tracer.spans["store.fingerprint"][0] == 1
    assert tracer.counters["store.fingerprint.bytes"] > 0


def test_benchmark_run_leaves_git_status_unchanged():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")

    def status() -> str:
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=str(ROOT), capture_output=True, text=True, check=True,
            timeout=60).stdout

    before = status()
    # Every workload, traced: store dirs, code-version hashing, the
    # server's journal and the trace files must all stay out of git.
    process = _run("all", 1)
    assert process.returncode == 0, process.stdout + process.stderr
    assert status() == before
