"""Bound engines — cross-engine throughput and default-path overhead.

Three regressions the engine sweep must never see:

1. running **every** engine (``--engine all``) over a campaign must stay
   batch-friendly — a cells/s floor over the cross-engine rows,
2. the sweep lowers and routes each scenario **once**: every engine ×
   policy evaluation shares one network and one routed template, and
   the calculus engine reuses the rows the runner just computed.  This
   is pinned deterministically by counting ``scenario_inputs`` and
   ``scenario_rows`` calls, and routing calls: the template asks
   ``RoutingEngine.shortest_path`` once per distinct (source,
   destination) pair and never calls ``RoutingEngine.route_flow``; and
   every fixed point over a template with a feed-forward schedule runs
   each port's rule exactly once, pinned by counting rule calls per
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

    def counting_inputs(scenario, *args, **kwargs):
        lowered.append(scenario.name)
        return original_inputs(scenario, *args, **kwargs)

    row_calls = []

    def counting_rows(scenario, policy, *args, **kwargs):
        row_calls.append((scenario.name, policy))
        return original_rows(scenario, policy, *args, **kwargs)

    routed = []

    def counting_route_flow(self, flow):
        routed.append(flow.name)
        return original_route_flow(self, flow)

    looked_up = []

    def counting_shortest_path(self, source, destination):
        looked_up.append((source, destination))
        return original_shortest_path(self, source, destination)

    # (ports, has a schedule, rule calls) of every fixed point.
    fixed_points = []

    def counting_fixed_point(template, run, rule, schedule=None):
        calls = []

        def counted(template, run, port):
            calls.append(port)
            return rule(template, run, port)

        converged = original_fixed_point(template, run, counted, schedule)
        fixed_points.append((len(template.ports), schedule is not None,
                             len(calls)))
        return converged

    original_inputs = runner_module.scenario_inputs
    original_rows = runner_module.scenario_rows
    original_route_flow = RoutingEngine.route_flow
    original_shortest_path = RoutingEngine.shortest_path
    monkeypatch.setattr(runner_module, "scenario_inputs", counting_inputs)
    monkeypatch.setattr("repro.analysis.engines.base.scenario_inputs",
                        counting_inputs)
    monkeypatch.setattr(runner_module, "scenario_rows", counting_rows)
    monkeypatch.setattr(calculus_module, "scenario_rows", counting_rows)
    monkeypatch.setattr(RoutingEngine, "route_flow", counting_route_flow)
    monkeypatch.setattr(RoutingEngine, "shortest_path",
                        counting_shortest_path)
    original_fixed_point = iteration.run_fixed_point
    for module in ("repro.analysis.engines.holistic",
                   "repro.analysis.engines.trajectory",
                   "repro.core.endtoend"):
        monkeypatch.setattr(f"{module}.run_fixed_point",
                            counting_fixed_point)
    lookups = {}
    for scenario in scenarios:
        looked_up.clear()
        CampaignRunner(engines=all_engines).run([scenario])
        lookups[scenario.name] = list(looked_up)
    monkeypatch.undo()
    # The default path's lookups, for the table.
    monkeypatch.setattr(RoutingEngine, "shortest_path",
                        counting_shortest_path)
    looked_up.clear()
    CampaignRunner().run(scenarios)
    default_lookups = len(looked_up)
    monkeypatch.undo()
    flows = {scenario.name: scenario.workload.build().messages
             for scenario in scenarios}

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

    flow_count = sum(len(messages) for messages in flows.values())
    report(
        "engines", "Bound engines: cross-engine campaign throughput",
        ["mode", "scenarios", "flows", "route lookups", "engine rows",
         "best run", "rows/s"],
        [("--engine all", len(scenarios), flow_count,
          sum(len(pairs) for pairs in lookups.values()), len(engine_rows),
          f"{all_time * 1e3:.2f} ms", f"{engine_rate:,.0f}"),
         ("default (calculus)", len(scenarios), flow_count, default_lookups,
          0, f"{default_time * 1e3:.2f} ms", "-")])

    # The cross-engine run covers every engine on every scenario ...
    assert {row.engine for row in engine_rows} == set(all_engines)
    # ... lowers each scenario once, whatever the engine × policy count,
    # computes its campaign rows once per policy ...
    assert sorted(lowered) == sorted(scenario.name for scenario in scenarios)
    assert sorted(row_calls) == sorted(
        (scenario.name, policy) for scenario in scenarios
        for policy in scenario.policies)
    # ... and looks each distinct (source, destination) pair up once:
    # only the template routes, it routes no flow one by one, and the
    # graph rows of every policy analyse that template too.
    assert not routed
    for scenario in scenarios:
        pairs = {(message.source, message.destination)
                 for message in flows[scenario.name]}
        assert sorted(lookups[scenario.name]) == sorted(pairs), scenario.name
        assert len(pairs) < len(flows[scenario.name]), scenario.name
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
