"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.cache import clear_all_caches
from repro.cli import (
    EXPERIMENT_REGISTRY,
    build_parser,
    format_cache_stats,
    main,
)
from repro.config import SolverConfig
from repro.runner.registry import experiment_ids


class TestParser:
    def test_registry_covers_all_paper_experiments(self):
        expected = {"FIG2", "FIG3", "FIG4", "FIG5", "FIG7", "FIG8", "FIG9",
                    "FIG10", "FIG11", "FIG12", "THM4", "THM5", "LEM4", "THM6",
                    "REG"}
        assert set(EXPERIMENT_REGISTRY) == expected
        assert set(experiment_ids()) == expected

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "FIG2"])
        assert args.command == "run"
        assert args.experiment == "FIG2"
        args = parser.parse_args(["regimes", "--nu", "150"])
        assert args.nu == 150.0
        args = parser.parse_args(["reproduce-all", "--workers", "4",
                                  "--scale", "smoke"])
        assert args.workers == 4
        assert args.scale == "smoke"

    def test_serve_subcommand_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.window_ms == 2.0
        assert args.naive is False
        assert args.max_requests is None
        assert not hasattr(args, "backend")

    def test_serve_subcommand_flags(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--window-ms",
                                  "5", "--naive", "--max-requests", "100"])
        assert args.port == 0
        assert args.window_ms == 5.0
        assert args.naive is True
        assert args.max_requests == 100

    def test_serve_unknown_backend_rejected(self):
        # The solver has one kernel: --backend is gone, even for the
        # value that used to be the default.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--backend", "reference"])

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "FIG99"])

    def test_unknown_scale_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "FIG2", "--scale", "huge"])


class TestMain:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "FIG2" in output
        assert "THM5" in output

    def test_run_fig2(self, capsys):
        assert main(["run", "FIG2"]) == 0
        output = capsys.readouterr().out
        assert "FIG2" in output
        assert "findings" in output

    def test_run_with_count_override(self, capsys):
        assert main(["run", "THM4", "--count", "60", "--max-rows", "4"]) == 0
        output = capsys.readouterr().out
        assert "kappa_one_dominates_everywhere" in output

    def test_run_smoke_scale(self, capsys):
        assert main(["run", "THM4", "--scale", "smoke"]) == 0
        assert "kappa_one_dominates_everywhere" in capsys.readouterr().out

    def test_run_seed_override_changes_population(self, capsys):
        assert main(["run", "THM4", "--scale", "smoke", "--seed", "5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["seed"] == 5

    def test_run_json_artifact(self, capsys):
        assert main(["run", "FIG2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "FIG2"
        assert payload["schema"] == 1

    def test_run_without_backend_flag_still_records_solver(self, capsys):
        assert main(["run", "FIG2", "--scale", "smoke", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["solver"] == SolverConfig().provenance()

    def test_unknown_backend_rejected(self):
        parser = build_parser()
        for command in (["run", "FIG2"], ["reproduce-all"]):
            with pytest.raises(SystemExit):
                parser.parse_args(command + ["--backend", "reference"])

    def test_reproduce_all_records_solver_in_manifest(self, tmp_path, capsys):
        assert main(["reproduce-all", "--scale", "smoke", "--only", "FIG2",
                     "--output", str(tmp_path)]) == 0
        manifest = json.loads(
            (tmp_path / "smoke" / "manifest.json").read_text())
        assert manifest["solver"] == SolverConfig().provenance()
        artifact = json.loads((tmp_path / "smoke" / "FIG2.json").read_text())
        assert artifact["parameters"]["solver"] == manifest["solver"]

    def test_population_command(self, capsys):
        assert main(["population", "--count", "50"]) == 0
        output = capsys.readouterr().out
        assert "count" in output
        assert "unconstrained_per_capita_load" in output


class TestCacheStats:
    def test_cache_stats_command_lists_solver_caches(self, capsys):
        assert main(["cache-stats"]) == 0
        output = capsys.readouterr().out
        for name in ("class_caps", "partition_outcomes"):
            assert name in output
        assert "hit_rate" in output

    def test_cache_stats_json_is_machine_readable(self, capsys):
        assert main(["cache-stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "class_caps" in payload
        assert {"size", "maxsize", "hits", "misses", "hit_rate"} \
            <= set(payload["class_caps"])
        # Class rows come from the caps: no equilibrium or profile caches.
        assert "equilibria" not in payload
        assert "maxmin_profiles" not in payload

    def test_run_cache_stats_flag_reports_solver_activity(self, capsys):
        clear_all_caches()
        assert main(["run", "THM4", "--scale", "smoke", "--cache-stats"]) == 0
        captured = capsys.readouterr()
        # The report goes to stdout, the counters to stderr.
        assert "class_caps" in captured.err
        assert "class_caps" not in captured.out

    def test_reproduce_all_cache_stats_flag(self, tmp_path, capsys):
        assert main(["reproduce-all", "--scale", "smoke", "--only", "THM4",
                     "--output", str(tmp_path), "--cache-stats"]) == 0
        assert "class_caps" in capsys.readouterr().err

    def test_format_cache_stats_renders_given_mapping(self):
        stats = {"demo": {"size": 1, "maxsize": 4096, "hits": 3,
                          "misses": 1, "hit_rate": 0.75}}
        table = format_cache_stats(stats)
        assert "demo" in table and "75.0%" in table and "4096" in table
        assert json.loads(format_cache_stats(stats, as_json=True)) == stats


class TestIgnoredFlagWarnings:
    def test_count_ignored_for_fig2_warns(self, capsys):
        assert main(["run", "FIG2", "--count", "500"]) == 0
        captured = capsys.readouterr()
        assert "FIG2 does not take --count" in captured.err
        assert "FIG2" in captured.out  # the run still happens

    def test_seed_ignored_for_fig3_warns(self, capsys):
        assert main(["run", "FIG3", "--seed", "9", "--max-rows", "3"]) == 0
        assert "FIG3 does not take --seed" in capsys.readouterr().err

    def test_count_aware_experiment_does_not_warn(self, capsys):
        assert main(["run", "THM4", "--scale", "smoke", "--count", "40"]) == 0
        assert capsys.readouterr().err == ""


class TestServe:
    def test_invalid_window_rejected(self, capsys):
        assert main(["serve", "--window-ms", "-1"]) == 2
        assert "--window-ms" in capsys.readouterr().err

    def test_solver_threads_flag_is_gone(self):
        # Solves run on the event loop: there is no solver thread pool.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--solver-threads", "2"])

    def test_serve_and_loadgen_end_to_end(self):
        """CLI server + load generator over real sockets, clean shutdown.

        --expect-coalescing proves cross-request sharing engaged over the
        wire; a zero server exit code after SIGINT proves the clean
        interrupt-shutdown path (the bounded --max-requests shutdown is
        covered at the server level in tests/service/test_server.py).
        """
        import re
        import signal
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=root)
        try:
            banner = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            host, port = match.group(1), match.group(2)
            loadgen = subprocess.run(
                [sys.executable, str(root / "scripts" / "service_loadgen.py"),
                 "--host", host, "--port", port, "--distribution", "hot",
                 "--requests", "40", "--concurrency", "8",
                 "--count", "200", "--expect-coalescing"],
                capture_output=True, text=True, env=env, timeout=120)
            assert loadgen.returncode == 0, loadgen.stderr
            report = json.loads(loadgen.stdout)
            assert report["coalesced"] > 0
            assert report["errors"] == 0
            server.send_signal(signal.SIGINT)
            assert server.wait(timeout=30) == 0
        finally:
            if server.poll() is None:
                server.kill()
            server.communicate()  # reaps it and closes both pipes


class TestErrorExitCodes:
    def test_population_negative_count(self, capsys):
        assert main(["population", "--count", "-5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_regimes_negative_count(self, capsys):
        assert main(["regimes", "--count", "-3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_regimes_ok_exit_code(self, capsys):
        assert main(["regimes", "--count", "60", "--nu", "150"]) == 0
        assert "ordering" in capsys.readouterr().out

    def test_reproduce_all_unknown_id(self, capsys, tmp_path):
        assert main(["reproduce-all", "--only", "FIG99",
                     "--output", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestReproduceAll:
    def test_writes_artifacts_and_manifest(self, capsys, tmp_path):
        assert main(["reproduce-all", "--scale", "smoke", "--only", "FIG2",
                     "--only", "THM4", "--output", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "reproduced 2 experiments" in output
        run_dir = tmp_path / "smoke"
        assert (run_dir / "FIG2.json").exists()
        assert (run_dir / "THM4.json").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["experiments"]) == {"FIG2", "THM4"}
        assert (run_dir / "run_info.json").exists()

    def test_parallel_run_matches_serial(self, capsys, tmp_path):
        ids = ["FIG2", "FIG3", "THM4", "LEM4"]
        argv = ["reproduce-all", "--scale", "smoke"]
        for experiment_id in ids:
            argv += ["--only", experiment_id]
        assert main(argv + ["--output", str(tmp_path / "serial"),
                            "--workers", "1"]) == 0
        assert main(argv + ["--output", str(tmp_path / "parallel"),
                            "--workers", "2"]) == 0
        capsys.readouterr()
        serial = (tmp_path / "serial/smoke/manifest.json").read_bytes()
        parallel = (tmp_path / "parallel/smoke/manifest.json").read_bytes()
        assert serial == parallel

    def test_ignored_count_warns_per_experiment(self, capsys, tmp_path):
        assert main(["reproduce-all", "--scale", "smoke", "--only", "FIG2",
                     "--count", "80", "--output", str(tmp_path)]) == 0
        assert "FIG2 does not take --count" in capsys.readouterr().err

    def test_full_suite_warns_for_count_unaware_experiments(self, capsys,
                                                            tmp_path):
        assert main(["reproduce-all", "--scale", "smoke", "--count", "30",
                     "--output", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "FIG2 does not take --count" in err
        assert "FIG3 does not take --count" in err

    def test_strict_findings_flag_accepted(self, capsys, tmp_path):
        assert main(["reproduce-all", "--scale", "smoke", "--only", "THM4",
                     "--strict-findings", "--output", str(tmp_path)]) == 0
