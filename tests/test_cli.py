"""Command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser, main

EXAMPLE_TOPOLOGY = Path(__file__).resolve().parents[1] / \
    "examples" / "topologies" / "diamond.json"

#: Arguments completing each command for an end-to-end run on a small
#: workload; ``None`` marks commands needing per-test extras (export).
WORKLOAD_ARGS = ["--stations", "6", "--seed", "3"]


#: Extra arguments completing the commands whose subparser has required
#: arguments of its own.
_REQUIRED_EXTRAS = {"export": ["--output", "x.csv"], "store": ["stats"],
                    "topology": ["validate", "t.json"]}


class TestParser:
    def test_every_command_is_registered(self):
        parser = build_parser()
        for command in ("figure1", "violations", "baseline-1553", "compare",
                        "validate", "jitter", "buffers", "export",
                        "campaign", "simulate", "fuzz", "topology",
                        "report", "store", "serve"):
            args = parser.parse_args(
                [command] + _REQUIRED_EXTRAS.get(command, []))
            assert args.command == command

    def test_the_dispatch_table_drives_the_parser(self):
        assert [spec.name for spec in COMMANDS] == [
            "figure1", "violations", "baseline-1553", "compare", "validate",
            "jitter", "buffers", "export", "campaign", "simulate", "fuzz",
            "topology", "report", "store", "serve"]

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_shared_exec_flags_reach_every_batch_command(self):
        """The parent parsers give campaign/simulate/fuzz/report/serve
        identical execution flags without copy-pasted blocks."""
        parser = build_parser()
        for command, extras in (("campaign", []), ("simulate", []),
                                ("fuzz", []), ("report", []), ("serve", [])):
            args = parser.parse_args(
                [command, *extras, "--retries", "5", "--timeout", "1.5",
                 "--faults", "exc@3", "--no-store"])
            assert args.retries == 5
            assert args.timeout == 1.5
            assert args.faults == "exc@3"
            assert args.no_store is True

    def test_version_prints_package_version_and_store_key(self, capsys):
        from repro import __version__
        from repro.store import combined_token
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert f"repro {__version__}" in output
        assert f"store key {combined_token()}" in output


class TestEveryCommandEndToEnd:
    """Each subcommand runs on the synthetic case study and prints a table."""

    @pytest.mark.parametrize("command", [
        spec.name for spec in COMMANDS
        # export needs --output; serve is a long-lived server and has its
        # own end-to-end suite in tests/test_serve_server.py.
        if spec.name not in ("export", "serve")])
    def test_command_exits_zero_with_output(self, command, capsys, tmp_path):
        argv = WORKLOAD_ARGS + [command]
        if command == "campaign":
            argv = ["campaign", "--run", "paper-real-case"]
        elif command == "report":
            argv = ["report", "--experiment", "figure1",
                    "--output", str(tmp_path / "artifacts")]
        elif command == "fuzz":
            argv = ["fuzz", "--count", "2", "--no-store", "--no-corpus"]
        elif command == "store":
            argv = ["store", "stats", "--store", str(tmp_path / "store")]
        elif command == "topology":
            argv = ["topology", "validate", str(EXAMPLE_TOPOLOGY)]
        exit_code = main(argv)
        output = capsys.readouterr().out
        assert exit_code == 0
        assert output.strip()

    def test_export_writes_the_message_set(self, tmp_path, capsys):
        target = tmp_path / "set.csv"
        assert main(WORKLOAD_ARGS + ["export", "--output",
                                     str(target)]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out


class TestCampaignCommand:
    def test_list_shows_at_least_eight_scenarios(self, capsys):
        assert main(["campaign", "--list"]) == 0
        output = capsys.readouterr().out
        assert "Registered scenarios" in output
        for name in ("paper-real-case", "overload", "scalability-x8"):
            assert name in output

    def test_bare_campaign_defaults_to_the_listing(self, capsys):
        assert main(["campaign"]) == 0
        assert "Registered scenarios" in capsys.readouterr().out

    def test_run_all_prints_the_combined_tables(self, capsys):
        assert main(["campaign", "--run", "all"]) == 0
        output = capsys.readouterr().out
        assert "Campaign summary" in output
        assert "Per-class worst-case bounds" in output
        assert "scalability-x8" in output and "overload" in output
        assert "(memoized)" in output

    def test_run_by_tag_and_naive_mode(self, capsys):
        assert main(["campaign", "--run", "ladder", "--naive"]) == 0
        output = capsys.readouterr().out
        assert "(naive)" in output
        assert "scalability-x2" in output

    def test_markdown_rendering(self, capsys):
        assert main(["campaign", "--run", "paper-real-case",
                     "--markdown"]) == 0
        assert "### Campaign summary" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        assert main(["campaign", "--run", "paper-real-case", "--csv",
                     str(target)]) == 0
        assert target.exists()
        assert target.read_text().startswith("scenario,policy,priority")

    def test_unknown_scenario_fails_with_a_message(self, capsys):
        assert main(["campaign", "--run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_workload_flags_are_flagged_as_ignored(self, capsys):
        assert main(["--stations", "8", "campaign", "--run",
                     "paper-real-case"]) == 0
        err = capsys.readouterr().err
        assert "ignoring --stations" in err

    def test_no_warning_with_default_flags(self, capsys):
        assert main(["campaign", "--list"]) == 0
        assert capsys.readouterr().err == ""


class TestEngineFlag:
    """The shared ``--engine`` parent parser across the batch commands."""

    def test_every_batch_command_accepts_the_flag(self):
        parser = build_parser()
        for command in ("campaign", "simulate", "fuzz", "report", "serve"):
            args = parser.parse_args([command, "--engine", "all"])
            assert args.engine == "all"

    def test_version_reports_the_active_engine_and_token(self, capsys):
        from repro.store import code_version
        with pytest.raises(SystemExit):
            main(["--version"])
        output = capsys.readouterr().out
        assert "engine calculus" in output
        assert "calculus, holistic, trajectory" in output
        assert f"engines token {code_version('engines')}" in output

    def test_campaign_engine_all_adds_the_cross_engine_table(self, capsys):
        assert main(["campaign", "--run", "paper-real-case", "--no-store",
                     "--engine", "all"]) == 0
        output = capsys.readouterr().out
        assert "Cross-engine bounds" in output
        assert "holistic" in output and "trajectory" in output

    def test_default_campaign_output_has_no_engine_table(self, capsys):
        assert main(["campaign", "--run", "paper-real-case",
                     "--no-store"]) == 0
        assert "Cross-engine bounds" not in capsys.readouterr().out

    def test_fuzz_engine_all_validates_every_engine(self, capsys):
        assert main(["fuzz", "--count", "2", "--no-store", "--no-corpus",
                     "--engine", "all"]) == 0
        output = capsys.readouterr().out
        assert "engines: calculus, holistic, trajectory" in output

    @pytest.mark.parametrize("command", ["campaign", "simulate", "fuzz",
                                         "report", "serve"])
    def test_unknown_engine_exits_two_with_one_error_line(self, command,
                                                          capsys):
        assert main([command, "--engine", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown engine 'bogus'" in err

    def test_serve_only_supports_the_calculus_engine(self, capsys):
        assert main(["serve", "--engine", "holistic"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "calculus" in err


class TestCommands:
    def test_figure1_prints_the_table_and_succeeds(self, capsys):
        exit_code = main(["--stations", "8", "--seed", "3", "figure1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Delay bounds for the two approaches" in output
        assert "P0 urgent sporadic" in output

    def test_violations_command(self, capsys):
        exit_code = main(["--stations", "8", "--seed", "3", "violations"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "10 Mbps" in output and "100 Mbps" in output

    def test_compare_command(self, capsys):
        exit_code = main(["--stations", "8", "--seed", "3", "compare"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "1553B" in output

    def test_validate_command_reports_holding_bounds(self, capsys):
        exit_code = main(["--stations", "6", "--seed", "3", "validate"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "strict-priority" in output

    def test_validate_on_an_overloaded_link_prints_unbounded_rows(
            self, capsys):
        exit_code = main(["--stations", "6", "--seed", "3",
                          "--capacity-mbps", "0.1", "validate"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert output.count("unbounded") == 8

    def test_buffers_simulate_at_the_given_capacity(self, capsys):
        assert main(["--stations", "6", "--seed", "3", "buffers"]) == 0
        slow_output = capsys.readouterr().out
        assert main(["--stations", "6", "--seed", "3",
                     "--capacity-mbps", "100", "buffers"]) == 0
        fast_output = capsys.readouterr().out
        observed = [[line.split("|")[3].strip()
                     for line in output.splitlines() if "->" in line]
                    for output in (slow_output, fast_output)]
        assert observed[0] != observed[1]

    def test_export_then_reuse_as_workload(self, tmp_path, capsys):
        target = tmp_path / "exported.csv"
        assert main(["--stations", "6", "--seed", "3", "export",
                     "--output", str(target)]) == 0
        assert target.exists()
        exit_code = main(["--workload", str(target), "figure1"])
        assert exit_code == 0
        assert "Delay bounds" in capsys.readouterr().out

    def test_capacity_override_changes_the_result(self, capsys):
        main(["--stations", "8", "--seed", "3",
              "--capacity-mbps", "100", "figure1"])
        fast_output = capsys.readouterr().out
        main(["--stations", "8", "--seed", "3", "figure1"])
        slow_output = capsys.readouterr().out
        assert fast_output != slow_output


class TestTopologyCommand:
    """``repro topology validate``: the lint path and its negatives."""

    def test_valid_file_prints_the_summary(self, capsys):
        assert main(["topology", "validate", str(EXAMPLE_TOPOLOGY)]) == 0
        output = capsys.readouterr().out
        assert "example-diamond" in output
        assert "fingerprint" in output
        assert "longest route" in output

    def test_csv_topology_validates_too(self, tmp_path, capsys):
        path = tmp_path / "net.csv"
        path.write_text("ES,station-00\nES,station-01\nSW,sw-1\n"
                        "LINK,l0,station-00,0,sw-1,1\n"
                        "LINK,l1,station-01,0,sw-1,2\n")
        assert main(["topology", "validate", str(path)]) == 0
        assert "2 end systems" in capsys.readouterr().out

    def _expect_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:"), err
        assert "\n" not in err, f"expected a one-line error, got: {err!r}"
        return err

    def test_malformed_json_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        err = self._expect_error(
            ["topology", "validate", str(path)], capsys)
        assert "not a valid JSON document" in err

    def test_unknown_keys_are_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(
            {"name": "odd", "nodes": [], "links": [], "routing": "ospf"}))
        err = self._expect_error(
            ["topology", "validate", str(path)], capsys)
        assert "unknown keys" in err

    def test_cyclic_link_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(
            {"name": "loop",
             "nodes": [{"name": "es-a", "kind": "end-system"},
                       {"name": "sw", "kind": "switch"}],
             "links": [{"source": "es-a", "target": "sw"},
                       {"source": "sw", "target": "sw"}]}))
        err = self._expect_error(
            ["topology", "validate", str(path)], capsys)
        assert "cyclic link: 'sw' connects to itself" in err

    def test_disconnected_topology_is_a_one_line_error(
            self, tmp_path, capsys):
        path = tmp_path / "islands.json"
        path.write_text(json.dumps(
            {"name": "islands",
             "nodes": [{"name": "es-a", "kind": "end-system"},
                       {"name": "es-b", "kind": "end-system"},
                       {"name": "sw-1", "kind": "switch"},
                       {"name": "sw-2", "kind": "switch"}],
             "links": [{"source": "es-a", "target": "sw-1"},
                       {"source": "es-b", "target": "sw-2"}]}))
        err = self._expect_error(
            ["topology", "validate", str(path)], capsys)
        assert "disconnected" in err

    @pytest.mark.parametrize("entry,message", [
        ('"latency_us": NaN', "latency must be finite"),
        ('"directed": "false"', "'directed' must be true or false")])
    def test_malformed_link_number_is_a_one_line_error(
            self, tmp_path, capsys, entry, message):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"name": "nan", "nodes": [{"name": "es-a", "kind": '
            '"end-system"}, {"name": "es-b", "kind": "end-system"}, '
            '{"name": "sw", "kind": "switch"}], "links": [{"source": '
            '"es-a", "target": "sw", ' + entry + '}, {"source": "es-b", '
            '"target": "sw"}]}')
        err = self._expect_error(
            ["topology", "validate", str(path)], capsys)
        assert message in err

    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        err = self._expect_error(
            ["topology", "validate", str(tmp_path / "absent.json")],
            capsys)
        assert "absent.json" in err

    def test_unknown_extension_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "net.yaml"
        path.write_text("nodes: []\n")
        err = self._expect_error(
            ["topology", "validate", str(path)], capsys)
        assert "unknown topology format" in err


class TestSimulateGraphTopologies:
    """``repro simulate --topology``: families, files, and mismatches."""

    def test_family_name_runs_the_graph_scenario(self, capsys):
        assert main(["--stations", "6", "--seed", "3", "simulate",
                     "--topology", "diamond", "--no-store"]) == 0
        output = capsys.readouterr().out
        assert output.strip()

    def test_topology_file_runs_when_stations_match(self, capsys):
        assert main(["--stations", "8", "--seed", "3", "simulate",
                     "--topology", str(EXAMPLE_TOPOLOGY),
                     "--no-store"]) == 0
        assert capsys.readouterr().out.strip()

    def test_station_count_mismatch_is_a_clean_error(self, capsys):
        assert main(["--stations", "6", "--seed", "3", "simulate",
                     "--topology", str(EXAMPLE_TOPOLOGY),
                     "--no-store"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "8 end systems" in err

    def test_topology_conflicts_with_workload_file(self, tmp_path, capsys):
        workload = tmp_path / "set.csv"
        assert main(WORKLOAD_ARGS + ["export", "--output",
                                     str(workload)]) == 0
        capsys.readouterr()
        assert main(["--workload", str(workload), "simulate",
                     "--topology", "diamond", "--no-store"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_list_shows_the_experiment_catalogue(self, capsys):
        assert main(["report", "--list"]) == 0
        output = capsys.readouterr().out
        assert "Registered experiments" in output
        for name in ("figure1", "baseline-1553", "campaign"):
            assert name in output

    def test_partial_run_writes_artifacts_and_warns(self, tmp_path, capsys):
        target = tmp_path / "artifacts"
        assert main(["report", "--experiment", "figure1", "--output",
                     str(target)]) == 0
        output = capsys.readouterr().out
        assert (target / "figure1" / "bounds.md").is_file()
        assert "partial run" in output

    def test_check_fails_on_a_hand_edit(self, tmp_path, capsys):
        target = tmp_path / "artifacts"
        assert main(["report", "--experiment", "violations", "--output",
                     str(target)]) == 0
        capsys.readouterr()
        table = target / "violations" / "violations.md"
        table.write_text(table.read_text() + "tampered\n")
        assert main(["report", "--experiment", "violations", "--check",
                     "--output", str(target)]) == 1
        assert "stale artifact" in capsys.readouterr().err

    def test_check_passes_right_after_a_run(self, tmp_path, capsys):
        target = tmp_path / "artifacts"
        assert main(["report", "--experiment", "violations", "--output",
                     str(target)]) == 0
        assert main(["report", "--experiment", "violations", "--check",
                     "--output", str(target)]) == 0
        assert "report-check: OK" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["report", "--experiment", "no-such"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_invalid_job_count_fails_cleanly(self, capsys):
        assert main(["report", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_committed_artifacts_match_the_code(self):
        # The acceptance gate: the committed artifacts/ tree is exactly
        # what the code generates today.
        from pathlib import Path
        committed = Path(__file__).resolve().parents[1] / "artifacts"
        assert main(["report", "--check", "--output", str(committed)]) == 0


class TestCampaignJobs:
    def test_parallel_jobs_run_and_report_the_mode(self, capsys):
        assert main(["campaign", "--run", "ladder", "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "(memoized, 2 jobs)" in output
        assert "scalability-x8" in output

    def test_invalid_job_count_fails_cleanly(self, capsys):
        assert main(["campaign", "--run", "ladder", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


class TestErrorPaths:
    """Every subcommand fails with a one-line error, never a traceback."""

    MISSING = "/no/such/workload.csv"

    @pytest.mark.parametrize("command", [
        spec.name for spec in COMMANDS if spec.needs_workload])
    def test_missing_workload_is_a_one_line_error(self, command, capsys):
        argv = ["--workload", self.MISSING, command]
        if command == "export":
            argv += ["--output", "x.csv"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_invalid_station_count_is_a_one_line_error(self, capsys):
        assert main(["--stations", "2", "figure1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "station" in err

    @pytest.mark.parametrize("argv", [
        ["campaign", "--run", "no-such-scenario"],
        ["campaign", "--run", "ladder", "--jobs", "0"],
        ["simulate", "--scenarios", "warp"],
        ["simulate", "--size-factors", "two"],
        ["simulate", "--seeds", "0"],
        ["fuzz", "--count", "0", "--no-store", "--no-corpus"],
        ["fuzz", "--seed", "-1", "--no-store", "--no-corpus"],
        ["fuzz", "--jobs", "0", "--no-store", "--no-corpus"],
        ["report", "--experiment", "no-such"],
        ["report", "--jobs", "0"],
    ])
    def test_bad_subcommand_arguments_fail_cleanly(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert "Traceback" not in err

    def test_bad_store_action_is_rejected_by_the_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "frobnicate"])
        assert excinfo.value.code == 2

    def test_unwritable_export_path_is_a_one_line_error(self, capsys):
        assert main(WORKLOAD_ARGS + [
            "export", "--output", "/no/such/dir/set.csv"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestStoreCommand:
    def test_stats_on_an_empty_store(self, tmp_path, capsys):
        assert main(["store", "stats", "--store",
                     str(tmp_path / "empty")]) == 0
        output = capsys.readouterr().out
        assert "Result store" in output
        assert "0 records" in output

    def test_key_prints_one_hex_token_line(self, capsys):
        assert main(["store", "key"]) == 0
        output = capsys.readouterr().out.strip()
        assert len(output.splitlines()) == 1
        assert len(output) == 64
        assert all(char in "0123456789abcdef" for char in output)

    def test_campaign_populates_then_gc_keeps_then_clear_empties(
            self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["campaign", "--run", "paper-real-case", "--store",
                     store_dir]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", store_dir]) == 0
        assert "campaign-scenario" in capsys.readouterr().out
        assert main(["store", "gc", "--store", store_dir]) == 0
        assert "removed 0 stale" in capsys.readouterr().out
        assert main(["store", "clear", "--store", store_dir]) == 0
        assert "removed 1 records" in capsys.readouterr().out

    def test_campaign_resume_reuses_the_previous_run(self, tmp_path,
                                                     capsys):
        store_dir = str(tmp_path / "store")
        assert main(["campaign", "--run", "ladder", "--store",
                     store_dir]) == 0
        assert "resumed 0/4 scenarios" in capsys.readouterr().out
        assert main(["campaign", "--run", "ladder", "--store", store_dir,
                     "--resume"]) == 0
        assert "resumed 4/4 scenarios" in capsys.readouterr().out

    def test_no_store_disables_persistence(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["campaign", "--run", "paper-real-case", "--store",
                     str(store_dir), "--no-store"]) == 0
        assert "store:" not in capsys.readouterr().out
        assert not store_dir.exists()

    def test_report_warm_run_recomputes_nothing(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        args = ["report", "--experiment", "figure1", "--store", store_dir]
        assert main(args + ["--output", str(tmp_path / "a")]) == 0
        assert "resumed 0/1 experiments" in capsys.readouterr().out
        assert main(args + ["--output", str(tmp_path / "b")]) == 0
        assert "resumed 1/1 experiments" in capsys.readouterr().out
        first = (tmp_path / "a" / "figure1" / "bounds.md").read_bytes()
        second = (tmp_path / "b" / "figure1" / "bounds.md").read_bytes()
        assert first == second

    def test_simulate_resume_reports_resumed_cells(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        argv = ["--stations", "6", "--seed", "3", "simulate", "--seeds",
                "1", "--scenarios", "synchronized", "--policies", "fcfs",
                "--store", store_dir]
        assert main(argv) == 0
        assert "resumed 0/1 cells" in capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert "resumed 1/1 cells" in capsys.readouterr().out


class TestFuzzCommand:
    #: The smallest useful campaign, isolated from the real store/corpus.
    SMALL = ["fuzz", "--count", "2", "--no-store", "--no-corpus"]

    def test_small_campaign_prints_table_and_exits_zero(self, capsys):
        assert main(self.SMALL) == 0
        output = capsys.readouterr().out
        assert "Tightest fuzzed cells" in output
        assert "invariants hold: yes" in output
        assert "2 cells, 0 violations" in output

    def test_help_documents_the_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ("--count", "--seed", "--jobs", "--resume", "--store",
                     "--corpus", "--tightness"):
            assert flag in help_text

    def test_invalid_count_is_a_one_line_error(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--count" in err
        assert len(err.strip().splitlines()) == 1

    def test_negative_seed_is_a_one_line_error(self, capsys):
        assert main(["fuzz", "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "--seed" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_jobs_rejected(self, capsys):
        assert main(["fuzz", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_store_resume_reports_hit_and_miss(self, tmp_path, capsys):
        argv = ["fuzz", "--count", "2", "--no-corpus",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "resumed 0/2 cells" in first
        assert "0 hits" in first
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed 2/2 cells" in second
        assert "2 hits" in second
        assert "all cells resumed" in second

    def test_same_seed_reruns_are_identical(self, capsys):
        assert main(self.SMALL) == 0
        first = capsys.readouterr().out
        assert main(self.SMALL) == 0
        second = capsys.readouterr().out
        # Wall-clock timings differ; the tables and verdicts must not.
        assert first.splitlines()[:-1] == second.splitlines()[:-1]

    def test_corpus_persistence_writes_under_the_given_dir(
            self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        # Threshold 0 makes every holding cell near-tight, so the corpus
        # receives entries even from a tiny campaign.
        assert main(["fuzz", "--count", "1", "--no-store",
                     "--tightness", "0.01",
                     "--corpus", str(corpus)]) == 0
        output = capsys.readouterr().out
        assert "corpus: 1 added, 0 updated, 0 unchanged" in output
        assert len(list(corpus.glob("near-tight-*.json"))) == 1

    def test_markdown_and_csv_outputs(self, tmp_path, capsys):
        path = tmp_path / "fuzz.csv"
        assert main(self.SMALL + ["--markdown", "--csv", str(path)]) == 0
        output = capsys.readouterr().out
        assert "### Tightest fuzzed cells" in output
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert "tightness" in header and "violations" in header


class TestSimulateCommand:
    def test_small_grid_prints_table_and_exits_zero(self, capsys):
        assert main(["--stations", "8", "--seed", "3", "simulate",
                     "--seeds", "2", "--scenarios", "synchronized",
                     "--policies", "fcfs"]) == 0
        output = capsys.readouterr().out
        assert "Monte-Carlo bound validation" in output
        assert "bounds hold: yes" in output
        assert "2 cells" in output

    def test_markdown_rendering(self, capsys):
        assert main(["--stations", "8", "--seed", "3", "simulate",
                     "--seeds", "1", "--scenarios", "synchronized",
                     "--policies", "fcfs", "--markdown"]) == 0
        assert "### Monte-Carlo bound validation" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "mc.csv"
        assert main(["--stations", "8", "--seed", "3", "simulate",
                     "--seeds", "1", "--scenarios", "synchronized",
                     "--policies", "fcfs", "--csv", str(path)]) == 0
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert "bound_holds" in header

    def test_jobs_fan_out(self, capsys):
        assert main(["--stations", "8", "--seed", "3", "simulate",
                     "--seeds", "2", "--scenarios", "synchronized",
                     "--policies", "fcfs", "--jobs", "2"]) == 0
        assert "2 jobs" in capsys.readouterr().out

    def test_rate_counts_each_seed_free_simulation_once(self, capsys):
        """Seeds 2 and 3 of a synchronized grid copy seed 1's outcome, so
        the status line reports the events of one run per policy."""
        argv = ["--stations", "6", "--seed", "3", "simulate",
                "--scenarios", "synchronized", "--duration-ms", "40",
                "--no-store", "--seeds"]
        events = []
        for seeds in ("1", "3"):
            assert main(argv + [seeds]) == 0
            match = re.search(r"(\d+) cells, \d+ rows, (\d+) events in",
                              capsys.readouterr().out)
            events.append((int(match[1]), int(match[2])))
        (one_seed_cells, two_runs), (cells, reported) = events
        assert (one_seed_cells, cells) == (2, 6)
        assert two_runs > 0 and reported == two_runs

    def test_invalid_seeds_rejected(self, capsys):
        assert main(["simulate", "--seeds", "0"]) == 2
        assert "--seeds" in capsys.readouterr().err

    def test_invalid_size_factors_rejected(self, capsys):
        assert main(["simulate", "--size-factors", "two"]) == 2
        assert "--size-factors" in capsys.readouterr().err

    def test_unknown_scenario_rejected(self, capsys):
        assert main(["simulate", "--scenarios", "warp"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_workload_csv_restricted_to_factor_one(self, tmp_path, capsys):
        workload = tmp_path / "set.csv"
        assert main(["--stations", "8", "--seed", "3", "export",
                     "--output", str(workload)]) == 0
        capsys.readouterr()
        assert main(["--workload", str(workload), "simulate",
                     "--seeds", "1", "--size-factors", "2"]) == 2
        assert "--size-factors" in capsys.readouterr().err
        assert main(["--workload", str(workload), "simulate",
                     "--seeds", "1", "--scenarios", "synchronized",
                     "--policies", "fcfs"]) == 0
