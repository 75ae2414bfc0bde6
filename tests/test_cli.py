"""Command-line interface."""

import csv
import io

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.pcap"])
        assert args.seed == 1993
        assert args.duration == 3600

    def test_sample_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "x", "--method", "bogus"])


def _bad_trace(tmp_path, kind):
    """A trace path that cannot be read, and the error it must print."""
    if kind == "missing":
        path = tmp_path / "missing.pcap"
        return str(path), "error: trace file not found: %s" % path
    if kind == "directory":
        return str(tmp_path), "error: %s is a directory, not a pcap file" % tmp_path
    path = tmp_path / "garbage.pcap"
    path.write_bytes(b"this is not a pcap file at all, sorry......")
    return str(path), "error: unreadable trace %s: " % path


class TestErrorPaths:
    def test_missing_pcap_file(self, tmp_path, capsys):
        path, message = _bad_trace(tmp_path, "missing")
        assert main(["describe", path]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_garbage_pcap_file(self, tmp_path, capsys):
        path, message = _bad_trace(tmp_path, "garbage")
        assert main(["sample", path]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("kind", ["missing", "directory", "garbage"])
    @pytest.mark.parametrize(
        "command",
        [
            "describe",
            "validate",
            "sample",
            "samplesize",
            "netmon",
            "fidelity",
            "experiment",
            "reproduce",
        ],
    )
    def test_unreadable_trace_fails_cleanly(self, tmp_path, capsys, command, kind):
        path, message = _bad_trace(tmp_path, kind)
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bad_granularity_type(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sample", "x", "--granularity", "not-a-number"]
            )

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [["monitor", "x"], ["flows", "x", "aggregate"], ["adapt", "x"]],
        ids=["monitor", "flows", "adapt"],
    )
    def test_fastpath_flag_is_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--fastpath", "off"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["flows", "{trace}", "sample", "--max-flows", "0"],
                "max_flows must be >= 1, got 0",
            ),
            (
                ["flows", "{trace}", "aggregate", "--idle-timeout", "-1"],
                "idle timeout must be positive, got -1000000",
            ),
            (
                [
                    "flows", "{trace}", "compare", "--granularity", "10",
                    "--idle-timeout", "20", "--active-timeout", "10",
                ],
                "active timeout (10000000) must be >= idle timeout "
                "(20000000)",
            ),
            (
                ["monitor", "{trace}", "--heartbeat-every", "-1"],
                "heartbeat_every must be >= 0",
            ),
        ],
        ids=["max-flows", "idle-timeout", "active-below-idle", "heartbeat"],
    )
    def test_bad_flags_fail_cleanly(self, tmp_path, capsys, argv, message):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        argv = [arg.format(trace=trace_path) for arg in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: %s\n" % message


class TestCommands:
    def test_generate_and_describe(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        assert main(["generate", path, "--duration", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        assert main(["describe", path]) == 0
        out = capsys.readouterr().out
        assert "packet size" in out
        assert "interarrival" in out

    def test_sample_on_generated_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "4"])
        capsys.readouterr()
        assert main(["sample", path, "--granularity", "25"]) == 0
        out = capsys.readouterr().out
        assert "systematic 1/25" in out
        assert "phi=" in out

    def test_experiment_on_generated_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "20", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "experiment",
                    path,
                    "--methods",
                    "systematic",
                    "stratified",
                    "--max-log2-granularity",
                    "4",
                    "--replications",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mean phi" in out
        assert "systematic" in out
        assert "stratified" in out

    def test_experiment_save_csv(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = str(tmp_path / "sweep.csv")
        main(["generate", trace_path, "--duration", "10", "--seed", "6"])
        capsys.readouterr()
        assert (
            main(
                [
                    "experiment",
                    trace_path,
                    "--methods",
                    "systematic",
                    "--max-log2-granularity",
                    "3",
                    "--replications",
                    "1",
                    "--save",
                    csv_path,
                ]
            )
            == 0
        )
        from repro.core.evaluation.persistence import load_result

        # 3 granularities x 1 replication on the CLI's single target.
        assert len(load_result(csv_path)) == 3

    def test_samplesize_command(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "7"])
        capsys.readouterr()
        assert main(["samplesize", path, "--accuracy", "2"]) == 0
        out = capsys.readouterr().out
        assert "packet size" in out
        assert "sample 1 in" in out

    def test_netmon_command(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "8"])
        capsys.readouterr()
        assert main(["netmon", path, "--capacity", "200"]) == 0
        out = capsys.readouterr().out
        assert "SNMP forwarding-path total" in out
        assert "discrepancy" in out

    def test_netmon_sampled_agrees(self, tmp_path, capsys):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "10", "--seed", "9"])
        capsys.readouterr()
        main(["netmon", path, "--capacity", "200", "--granularity", "50"])
        out = capsys.readouterr().out
        dropped_line = [
            l for l in out.splitlines() if "dropped by collector" in l
        ][0]
        assert int(dropped_line.split()[-3]) == 0

    def test_fidelity_command(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "30", "--seed", "13"])
        capsys.readouterr()
        assert (
            main(
                [
                    "fidelity",
                    trace_path,
                    "--window",
                    "10",
                    "--granularity",
                    "20",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "windowed fidelity" in out
        assert "worst window" in out
        # 30 s of traffic in 10 s windows -> three data rows.
        assert len([l for l in out.splitlines() if l.strip().endswith(tuple("0123456789"))]) >= 3

    def test_describe_empty_synthetic_keyword(self, capsys):
        # 'synthetic' builds a 10-minute trace; smoke-check it summarizes.
        assert main(["describe", "synthetic"]) == 0
        out = capsys.readouterr().out
        assert "packets:" in out


class TestEngineFlags:
    def test_experiment_engine_defaults(self):
        args = build_parser().parse_args(["experiment", "x"])
        assert args.jobs == 1
        assert args.run_dir == ""
        assert args.resume is False

    def test_reproduce_engine_defaults(self):
        args = build_parser().parse_args(["reproduce", "x"])
        assert args.jobs == 1
        assert args.resume is False

    def test_experiment_with_run_dir_writes_checkpoint(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        run_dir = str(tmp_path / "run")
        main(["generate", trace_path, "--duration", "10", "--seed", "7"])
        capsys.readouterr()
        argv = [
            "experiment",
            trace_path,
            "--methods",
            "systematic",
            "--max-log2-granularity",
            "3",
            "--replications",
            "2",
            "--jobs",
            "1",
            "--run-dir",
            run_dir,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "run" / "checkpoint.jsonl").exists()
        assert (tmp_path / "run" / "manifest.json").exists()

        # A resumed invocation replays the checkpoint and prints the
        # same table.
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "mean phi" in out
        import json

        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["shards_executed"] == 0
        assert manifest["shards_skipped"] == manifest["shards_total"]


class TestCacheCommand:
    @pytest.fixture()
    def capture(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        main(["generate", path, "--duration", "5", "--seed", "7"])
        return path

    def test_parser_accepts_global_flag(self):
        args = build_parser().parse_args(
            ["--trace-cache", "/tmp/c", "cache", "t.pcap", "info"]
        )
        assert args.trace_cache == "/tmp/c"
        assert args.action == "info"

    def test_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "t.pcap", "frobnicate"])

    def test_requires_configured_cache(self, capture, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert main(["cache", capture, "build"]) == 2
        assert "no trace cache configured" in capsys.readouterr().err

    def test_synthetic_is_never_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["--trace-cache", cache, "cache", "synthetic", "build"]) == 2
        assert "never cached" in capsys.readouterr().err

    def test_build_info_verify_clear(self, tmp_path, capture, capsys):
        cache = str(tmp_path / "cache")
        base = ["--trace-cache", cache, "cache", capture]

        assert main(base + ["build"]) == 0
        assert "built cache entry" in capsys.readouterr().out

        assert main(base + ["info"]) == 0
        out = capsys.readouterr().out
        assert "packets:" in out and "timestamps_us" in out

        assert main(base + ["verify"]) == 0
        assert "intact" in capsys.readouterr().out

        assert main(base + ["clear"]) == 0
        assert "removed 1 cache entry" in capsys.readouterr().out

        assert main(base + ["info"]) == 1
        assert "no cache entry" in capsys.readouterr().out

    def test_build_missing_trace(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        missing = str(tmp_path / "missing.pcap")
        assert main(["--trace-cache", cache, "cache", missing, "build"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_env_var_configures_cache(self, tmp_path, capture, capsys,
                                      monkeypatch):
        cache = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_TRACE_CACHE", cache)
        assert main(["cache", capture, "build"]) == 0
        capsys.readouterr()
        assert main(["cache", capture, "verify"]) == 0

    def test_commands_warm_and_use_the_cache(self, tmp_path, capture, capsys):
        import os

        cache = str(tmp_path / "cache")
        assert main(["--trace-cache", cache, "describe", capture]) == 0
        capsys.readouterr()
        # The first load populated an entry; subsequent runs hit it.
        assert os.path.isdir(cache) and os.listdir(cache)
        assert main(["--trace-cache", cache, "cache", capture, "verify"]) == 0


class TestDocParserAgreement:
    """The module docstring's subcommand bullets track the parser.

    The docstring used to hardcode a subcommand count ("Eleven
    subcommands..."), which silently went stale every time a command
    was added.  Now the prose derives nothing it can get wrong — and
    this test pins the one thing it still states: exactly one
    ``* ``name`` —`` bullet per registered subparser.
    """

    @staticmethod
    def _registered_subcommands():
        import argparse

        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return set(action.choices)
        raise AssertionError("parser has no subparsers")

    @staticmethod
    def _documented_subcommands():
        import re

        import repro.cli

        return set(re.findall(r"^\* ``(\w+)``", repro.cli.__doc__, re.M))

    def test_every_subcommand_is_documented(self):
        registered = self._registered_subcommands()
        documented = self._documented_subcommands()
        assert registered <= documented, (
            "subcommands missing a docstring bullet: %s"
            % sorted(registered - documented)
        )

    def test_no_stale_documentation(self):
        registered = self._registered_subcommands()
        documented = self._documented_subcommands()
        assert documented <= registered, (
            "docstring bullets for unregistered subcommands: %s"
            % sorted(documented - registered)
        )

    def test_no_hardcoded_count(self):
        """No spelled-out or numeric subcommand count to go stale."""
        import re

        import repro.cli

        first_paragraph = repro.cli.__doc__.split("*")[0]
        assert not re.search(
            r"(?i)\b(eleven|twelve|thirteen|fourteen|\d+)\s+subcommands",
            first_paragraph,
        )


class TestFlowsCommand:
    def test_flows_parser_defaults(self):
        args = build_parser().parse_args(["flows", "x", "aggregate"])
        assert args.granularity == 100
        assert args.method == "systematic"
        assert args.max_flows == 65536

    def test_flows_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flows", "x", "bogus-mode"])

    def test_flows_aggregate_and_csv(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "flows.csv"
        main(["generate", trace_path, "--duration", "10", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(["flows", trace_path, "aggregate", "--csv", str(csv_path)])
            == 0
        )
        out = capsys.readouterr().out
        assert "flow records" in out
        assert "exported (flush)" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("src_net,dst_net,src_port,dst_port")

    def test_flows_sample_reports_detection(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "10", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(["flows", trace_path, "sample", "--granularity", "20"]) == 0
        )
        out = capsys.readouterr().out
        assert "parent:" in out
        assert "sampled:" in out
        assert "detected fraction" in out

    def test_flows_sample_honours_flow_cache_flags(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "10", "--seed", "5"])
        capsys.readouterr()
        argv = ["flows", trace_path, "sample", "--granularity", "10"]
        outputs = []
        for extra in ([], ["--idle-timeout", "0.5", "--active-timeout", "1"]):
            assert main(argv + extra) == 0
            outputs.append(
                [
                    line
                    for line in capsys.readouterr().out.splitlines()
                    if "flows, mean" in line
                ]
            )
        default, short = outputs
        assert len(default) == len(short) == 2
        # Shorter timeouts split flows: more records on both sides.
        for line_default, line_short in zip(default, short):
            assert int(line_short.split()[1]) > int(line_default.split()[1])

    def test_flows_compare_scores_both_estimators(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "scores.csv"
        main(["generate", trace_path, "--duration", "30", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "flows",
                    trace_path,
                    "compare",
                    "--granularity",
                    "20",
                    "--csv",
                    str(csv_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "naive" in out
        assert "em" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "estimator,phi,l1_cost,chi2_significance"
        assert len(lines) == 3

    def test_flows_invert_rejects_granularity_one(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(["flows", trace_path, "invert", "--granularity", "1"]) == 2
        )
        err = capsys.readouterr().err
        assert "granularity" in err

    def test_flows_missing_trace_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.pcap")
        assert main(["flows", missing, "aggregate"]) == 2
        err = capsys.readouterr().err
        assert "not found" in err


class TestAdaptCommand:
    def test_adapt_parser_defaults(self):
        args = build_parser().parse_args(["adapt", "x"])
        assert args.objective == "accuracy"
        assert args.initial_granularity == 64
        assert args.cooldown == 2

    def test_adapt_objective_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapt", "x", "--objective", "bogus"])

    def test_adapt_runs_and_reports(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "120", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--window", "10",
                    "--min-scored", "2",
                    "--initial-granularity", "1024",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "objective accuracy" in out
        assert "rate changes, final rate 1/" in out
        assert "mean windowed phi" in out

    def test_adapt_decision_csv_and_run_dir(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "decisions.csv"
        run_dir = tmp_path / "run"
        main(["generate", trace_path, "--duration", "120", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--window", "10",
                    "--min-scored", "2",
                    "--csv", str(csv_path),
                    "--run-dir", str(run_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("window,start_us,end_us,offered,sampled")
        assert len(lines) >= 2
        events = (run_dir / "events.jsonl").read_text()
        assert "adapt_start" in events
        assert "adaptive_decision" in events
        assert "adapt_end" in events
        metrics = (run_dir / "metrics.prom").read_text()
        assert "adaptive_granularity" in metrics

    def test_adapt_fastpath_toggle_is_invisible(self, tmp_path, capsys):
        """The chunked decision log equals a per-packet ``offer`` run's."""
        from repro.adaptive import (
            AccuracyFirstPolicy,
            AdaptiveController,
            AdaptivePipeline,
            ControllerConfig,
        )
        from repro.obs.live import QualityMonitor
        from repro.trace.pcap import read_pcap

        trace_path = str(tmp_path / "t.pcap")
        csv_path = tmp_path / "decisions.csv"
        main(["generate", trace_path, "--duration", "120", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--window", "10",
                    "--min-scored", "2",
                    "--csv", str(csv_path),
                ]
            )
            == 0
        )
        capsys.readouterr()

        trace = read_pcap(trace_path)
        controller = AdaptiveController(
            AccuracyFirstPolicy(phi_tol=0.05, p_floor=0.01),
            ControllerConfig(),
        )
        pipeline = AdaptivePipeline(
            "systematic",
            controller,
            QualityMonitor(window_us=10_000_000, min_scored=2),
        )
        for timestamp, size in zip(
            trace.timestamps_us.tolist(), trace.sizes.tolist()
        ):
            pipeline.offer(timestamp, float(size))
        pipeline.flush()
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))[1:]
        assert len(rows) == len(controller.decisions) >= 2
        assert rows == [
            [
                str(value)
                for value in (
                    d.window, d.start_us, d.end_us, d.offered, d.sampled,
                    d.policy, d.proposed, d.applied, d.granularity_before,
                    d.granularity_after, d.reason,
                )
            ]
            for d in controller.decisions
        ]

    def test_adapt_budget_objective_needs_budget(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert main(["adapt", trace_path, "--objective", "budget"]) == 2
        err = capsys.readouterr().err
        assert "budget" in err

    def test_adapt_rejects_bad_config(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        assert (
            main(
                [
                    "adapt", trace_path,
                    "--min-granularity", "512",
                    "--max-granularity", "8",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "granularity" in err

    def test_adapt_rejects_out_of_range_phase(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        for phase in ("500", "-3"):
            argv = ["adapt", trace_path, "--method", "systematic"]
            assert main(argv + ["--phase", phase]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                "error: phase must be in [0, 64), got %s\n" % phase
            )
            assert "done:" not in captured.out

    def test_adapt_rejects_negative_timer_period(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.pcap")
        main(["generate", trace_path, "--duration", "5", "--seed", "5"])
        capsys.readouterr()
        argv = ["adapt", trace_path, "--method", "timer-systematic"]
        assert main(argv + ["--period-us", "-5"]) == 2
        captured = capsys.readouterr()
        assert "positive" in captured.err
        assert "done:" not in captured.out

    def test_adapt_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main(["adapt", str(tmp_path / "nope.pcap")]) == 2
        err = capsys.readouterr().err
        assert "not found" in err
