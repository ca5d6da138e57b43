"""Bound engines — cross-engine throughput and default-path overhead.

Three regressions the engine sweep must never see:

1. running **every** engine (``--engine all``) over a campaign must stay
   batch-friendly — a cells/s floor over the cross-engine rows,
2. the sweep lowers and routes each scenario **once**: every engine ×
   policy evaluation shares one network and one routed template, and
   the calculus engine reuses the rows the runner just computed.  This
   is pinned deterministically by counting ``scenario_inputs``,
   ``RoutingEngine.route_flow`` and ``scenario_rows`` calls; and every
   fixed point over a template with a feed-forward schedule runs each
   port's rule exactly once, pinned by counting rule calls per
   ``run_fixed_point``,
3. the default (``calculus``-only) campaign path must stay the
   pre-engine path — the engine hook is a single tuple comparison per
   scenario and never calls into the engine registry, which is pinned
   deterministically (a wall-clock gate between two sequential timing
   blocks is too noisy to hold at a few percent).
"""

import time

from repro.analysis.engines import engine_names
from repro.campaigns import CampaignRunner, get, select

#: Timing loops; the runs are sub-second so best-of keeps noise out.
ROUNDS = 5

#: Cross-engine throughput floor, in engine-verdict rows per second.
#: Every row is one (scenario, engine, policy, class) bound.  The x8
#: ladder rung dominates: 1,152 routed flows under the iterative
#: engines.  With one routed template per scenario, per-(port, level)
#: trajectory aggregates, a feed-forward fixed point (each port once)
#: and the calculus rows reused from the runner, a 2-vCPU Xeon host
#: measures ~400 rows/s on this campaign, so the floor sits far below
#: that to absorb CI noise.
ENGINE_ROWS_PER_S_FLOOR = 30.0


def _scenarios():
    """The benchmark's campaign: the ladder plus two routed fabrics."""
    return list(select("ladder")) + [get("graph-diamond"),
                                     get("graph-ring")]


def _time_run(make_runner, scenarios) -> tuple[float, object]:
    """Best-of-ROUNDS wall-clock seconds for one campaign run."""
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        runner = make_runner()
        started = time.perf_counter()
        result = runner.run(scenarios)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_bench_engines(benchmark, report, monkeypatch):
    scenarios = _scenarios()
    all_engines = tuple(engine_names())

    # 1. every engine over every cell.
    all_time, all_result = _time_run(
        lambda: CampaignRunner(engines=all_engines), scenarios)
    engine_rows = all_result.engine_rows()
    engine_rate = len(engine_rows) / all_time

    # ... lowering and routing each scenario exactly once for all
    # engines × policies, and computing its campaign rows once.
    from repro.analysis.engines import calculus as calculus_module
    from repro.analysis.engines import iteration
    from repro.campaigns import runner as runner_module
    from repro.topology.routing import RoutingEngine

    lowered = []

    def counting_inputs(scenario):
        lowered.append(scenario.name)
        return original_inputs(scenario)

    row_calls = []

    def counting_rows(scenario, policy, *args, **kwargs):
        row_calls.append((scenario.name, policy))
        return original_rows(scenario, policy, *args, **kwargs)

    routed = []

    def counting_route_flow(self, flow):
        routed.append(flow.name)
        return original_route_flow(self, flow)

    # (ports, has a schedule, rule calls) of every fixed point.
    fixed_points = []

    def counting_fixed_point(states, ports, rule, schedule=None):
        calls = []

        def counted(port):
            calls.append(port)
            rule(port)

        converged = original_fixed_point(states, ports, counted, schedule)
        fixed_points.append((len(ports), schedule is not None, len(calls)))
        return converged

    original_inputs = runner_module.scenario_inputs
    original_rows = runner_module.scenario_rows
    original_route_flow = RoutingEngine.route_flow
    monkeypatch.setattr(runner_module, "scenario_inputs", counting_inputs)
    monkeypatch.setattr("repro.analysis.engines.base.scenario_inputs",
                        counting_inputs)
    monkeypatch.setattr(runner_module, "scenario_rows", counting_rows)
    monkeypatch.setattr(calculus_module, "scenario_rows", counting_rows)
    monkeypatch.setattr(RoutingEngine, "route_flow", counting_route_flow)
    original_fixed_point = iteration.run_fixed_point
    for module in ("repro.analysis.engines.holistic",
                   "repro.analysis.engines.trajectory",
                   "repro.core.endtoend"):
        monkeypatch.setattr(f"{module}.run_fixed_point",
                            counting_fixed_point)
    route_calls = {}
    for scenario in scenarios:
        routed.clear()
        CampaignRunner(engines=all_engines).run([scenario])
        route_calls[scenario.name] = len(routed)
    monkeypatch.undo()

    # 2. the default path, engines machinery live (the shipped code) but
    # the registry lookup the runner binds made to fail if it is ever
    # reached ...
    def no_registry(name):
        raise AssertionError(
            f"the default campaign asked the engine registry for {name!r}")

    monkeypatch.setattr("repro.campaigns.runner.get_engine", no_registry)
    default_time, default_result = _time_run(CampaignRunner, scenarios)
    monkeypatch.undo()
    # ... vs the pre-engine baseline: the identical runner with the
    # engine hook compiled out.
    monkeypatch.setattr(CampaignRunner, "_engine_rows",
                        lambda self, scenario, rows_by_policy, lowering: [])
    baseline_result = CampaignRunner().run(scenarios)
    monkeypatch.undo()

    benchmark.pedantic(
        lambda: CampaignRunner(engines=all_engines).run(scenarios),
        rounds=3, iterations=1)

    report(
        "engines", "Bound engines: cross-engine campaign throughput",
        ["mode", "scenarios", "engine rows", "best run", "rows/s"],
        [("--engine all", len(scenarios), len(engine_rows),
          f"{all_time * 1e3:.2f} ms", f"{engine_rate:,.0f}"),
         ("default (calculus)", len(scenarios), 0,
          f"{default_time * 1e3:.2f} ms", "-")])

    # The cross-engine run covers every engine on every scenario ...
    assert {row.engine for row in engine_rows} == set(all_engines)
    # ... lowers each scenario once, whatever the engine × policy count,
    # computes its campaign rows once per policy ...
    assert sorted(lowered) == sorted(scenario.name for scenario in scenarios)
    assert sorted(row_calls) == sorted(
        (scenario.name, policy) for scenario in scenarios
        for policy in scenario.policies)
    # ... and routes each flow once: only the template routes, and the
    # graph rows of every policy analyse that template too.
    for scenario in scenarios:
        flows = len(scenario.workload.build().messages)
        assert route_calls[scenario.name] == flows, scenario.name
    # ... and runs each port's rule once wherever the template has a
    # feed-forward schedule (every template of this campaign).
    scheduled = [(ports, calls) for ports, has_schedule, calls
                 in fixed_points if has_schedule]
    assert scheduled and len(scheduled) == len(fixed_points)
    assert all(calls == ports for ports, calls in scheduled), scheduled
    # ... at batch-friendly throughput.
    assert engine_rate >= ENGINE_ROWS_PER_S_FLOOR, (
        f"cross-engine throughput {engine_rate:,.0f} rows/s fell below "
        f"the {ENGINE_ROWS_PER_S_FLOOR:,.0f} rows/s floor")
    # The default path computes no engine rows, never reached the
    # registry (the patched lookup would have raised) and stays
    # bit-identical to the pre-engine runner's output.
    assert default_result.engine_rows() == []
    assert [str(row) for row in default_result.rows()] == \
        [str(row) for row in baseline_result.rows()]
