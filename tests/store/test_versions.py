"""Code-version tokens: closures, invalidation scope, edit sensitivity."""

import shutil
from pathlib import Path

import pytest

from repro.store import (
    SUBSYSTEMS,
    ModuleGraph,
    all_code_versions,
    code_version,
    combined_token,
)

_SRC = Path(__file__).resolve().parents[2] / "src"


#: The simulator: the Ethernet models and the event kernel.
#: ``repro.simulation.statistics`` is not among them: it is plain summary
#: statistics, which the campaign closed forms also use.
SIMULATOR_MODULES = (
    "repro.ethernet.network_sim", "repro.ethernet.station",
    "repro.ethernet.switch", "repro.ethernet.link", "repro.ethernet.traffic",
    "repro.simulation.campaign", "repro.simulation.engine",
    "repro.simulation.events", "repro.simulation.randomness",
    "repro.simulation.trace")


class TestClosures:
    def test_campaigns_excludes_the_simulators(self):
        graph = ModuleGraph(_SRC)
        closure = graph.closure(SUBSYSTEMS["campaigns"])
        assert "repro.campaigns.runner" in closure
        assert "repro.core.multiplexer" in closure
        assert all(graph.module_file(module) is not None
                   for module in SIMULATOR_MODULES)
        assert not set(SIMULATOR_MODULES) & set(closure)
        assert not any(module.startswith("repro.simulation.")
                       and module != "repro.simulation.statistics"
                       for module in closure)

    @pytest.mark.parametrize("subsystem", ["campaigns", "engines"])
    def test_lowering_and_framing_are_in_the_bound_closures(self, subsystem):
        # Stored ``--engine all`` cells and graph campaign rows bound
        # the wire-level lowering: the framing and the lowering must move
        # their tokens, while the simulator stays out.
        closure = ModuleGraph(_SRC).closure(SUBSYSTEMS[subsystem])
        assert "repro.ethernet.frame" in closure
        assert "repro.analysis.engines.base" in closure
        assert not set(SIMULATOR_MODULES) & set(closure)

    def test_simulation_includes_the_event_kernel(self):
        closure = ModuleGraph(_SRC).closure(SUBSYSTEMS["simulation"])
        assert "repro.simulation.engine" in closure
        assert "repro.ethernet.network_sim" in closure

    def test_reports_cover_both_engines(self):
        graph = ModuleGraph(_SRC)
        reports = set(graph.closure(SUBSYSTEMS["reports"]))
        assert set(graph.closure(SUBSYSTEMS["campaigns"])) <= reports
        assert set(graph.closure(SUBSYSTEMS["simulation"])) <= reports

    def test_no_subsystem_follows_the_top_level_reexports(self):
        # Following repro/__init__ would collapse every closure into the
        # whole tree and defeat per-subsystem invalidation.
        graph = ModuleGraph(_SRC)
        for roots in SUBSYSTEMS.values():
            assert "repro" not in graph.closure(roots)

    def test_unknown_modules_are_ignored(self):
        graph = ModuleGraph(_SRC)
        assert graph.closure(["repro.does.not.exist"]) == []
        assert graph.module_file("numpy") is None


class TestTokens:
    def test_tokens_are_stable_within_a_tree(self):
        graph = ModuleGraph(_SRC)
        for name, roots in SUBSYSTEMS.items():
            assert graph.token(roots) == graph.token(roots)
            assert code_version(name) == code_version(name)

    def test_code_version_mixes_in_the_environment(self):
        # A numpy/python upgrade must invalidate stored results, so the
        # live token is source closure + environment, not source alone.
        from repro.store.versions import environment_token
        graph = ModuleGraph(_SRC)
        assert len(environment_token()) == 64
        for name, roots in SUBSYSTEMS.items():
            assert code_version(name) != graph.token(roots)

    def test_subsystem_tokens_differ(self):
        tokens = all_code_versions()
        assert len(set(tokens.values())) == len(tokens)

    def test_combined_token_is_a_digest_of_all(self):
        token = combined_token()
        assert len(token) == 64
        assert token not in all_code_versions().values()


class TestEditSensitivity:
    """Edit a copy of the real tree and watch exactly the right tokens move."""

    def _tokens(self, src_root: Path) -> dict[str, str]:
        graph = ModuleGraph(src_root)
        return {name: graph.token(roots)
                for name, roots in SUBSYSTEMS.items()}

    def test_editing_the_simulator_spares_the_analytic_campaigns(
            self, tmp_path):
        copy = tmp_path / "src"
        shutil.copytree(_SRC / "repro", copy / "repro")
        before = self._tokens(copy)
        engine = copy / "repro" / "simulation" / "engine.py"
        engine.write_text(engine.read_text() + "\n# edited\n")
        after = self._tokens(copy)
        assert after["simulation"] != before["simulation"]
        assert after["reports"] != before["reports"]
        assert after["campaigns"] == before["campaigns"]

    def test_editing_the_framing_moves_the_bound_tokens(self, tmp_path):
        copy = tmp_path / "src"
        shutil.copytree(_SRC / "repro", copy / "repro")
        before = self._tokens(copy)
        frame = copy / "repro" / "ethernet" / "frame.py"
        frame.write_text(frame.read_text() + "\n# edited\n")
        after = self._tokens(copy)
        assert after["campaigns"] != before["campaigns"]
        assert after["engines"] != before["engines"]

    def test_editing_the_campaign_cache_spares_the_simulation(
            self, tmp_path):
        copy = tmp_path / "src"
        shutil.copytree(_SRC / "repro", copy / "repro")
        before = self._tokens(copy)
        cache = copy / "repro" / "campaigns" / "cache.py"
        cache.write_text(cache.read_text() + "\n# edited\n")
        after = self._tokens(copy)
        assert after["campaigns"] != before["campaigns"]
        assert after["reports"] != before["reports"]
        assert after["simulation"] == before["simulation"]

    def test_editing_a_shared_core_module_moves_every_token(self, tmp_path):
        copy = tmp_path / "src"
        shutil.copytree(_SRC / "repro", copy / "repro")
        before = self._tokens(copy)
        units = copy / "repro" / "units.py"
        units.write_text(units.read_text() + "\n# edited\n")
        after = self._tokens(copy)
        assert all(after[name] != before[name] for name in SUBSYSTEMS)

    def test_a_comment_only_edit_still_invalidates(self, tmp_path):
        # The store must prefer recomputation over ever being stale, so
        # tokens hash bytes, not semantics.
        copy = tmp_path / "src"
        shutil.copytree(_SRC / "repro", copy / "repro")
        before = self._tokens(copy)
        runner = copy / "repro" / "campaigns" / "runner.py"
        runner.write_text(runner.read_text() + "\n# cosmetic\n")
        assert self._tokens(copy)["campaigns"] != before["campaigns"]
