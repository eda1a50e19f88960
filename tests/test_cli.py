"""Tests for the repro.cli experiment driver."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import EXIT_DIFF, EXIT_INVALID, EXIT_OK, _announce_and_wait, main
from repro.obs import load_report, validate_report


class TestCli:
    def test_single_experiment_runs(self, capsys):
        code = main(["--scale", "small", "--experiments", "table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "IxMapper, Skitter" in out

    def test_multiple_experiments(self, capsys):
        code = main(
            ["--scale", "small", "--experiments", "table4", "table6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HOMOGENEITY" in out
        assert "INTERDOMAIN" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiments", "table99"])

    def test_seed_override(self, capsys):
        code = main(["--scale", "small", "--seed", "5", "--experiments", "table1"])
        assert code == 0

    def test_edgescape_mapper(self, capsys):
        code = main(
            [
                "--scale", "small", "--mapper", "EdgeScape",
                "--experiments", "figure2",
            ]
        )
        assert code == 0
        assert "FIGURE 2" in capsys.readouterr().out

    def test_parallel_jobs_and_profile(self, capsys):
        code = main(
            [
                "--scale", "small", "--jobs", "4", "--profile",
                "--experiments", "table1",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "TABLE I" in captured.out
        assert "PIPELINE STAGE PROFILE" in captured.err

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["--jobs", "0", "--experiments", "table1"])

    def test_cache_dir_warm_run_hits_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = [
            "--scale", "small", "--cache-dir", cache_dir,
            "--profile", "--experiments", "table1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        # Every stage of the warm run is served from the cache.
        profile = capsys.readouterr().err
        assert profile.count("cache-hit") == 10

    def test_run_subcommand_is_explicit_alias(self, capsys):
        code = main(["run", "--scale", "small", "--experiments", "table1"])
        assert code == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_verbose_emits_json_logs(self, capsys):
        code = main(
            ["--scale", "small", "--experiments", "table1", "--verbose"]
        )
        assert code == 0
        err = capsys.readouterr().err
        started = [
            line for line in err.splitlines()
            if line.startswith("{") and '"run starting"' in line
        ]
        assert started, err
        payload = json.loads(started[0])
        assert payload["scale"] == "small"
        assert payload["jobs"] == 1

    def test_pipeline_error_exits_cleanly(self, capsys, monkeypatch):
        from repro.core import experiments
        from repro.errors import ReproError

        def explode(config, **kwargs):
            raise ReproError("synthetic pipeline failure")

        monkeypatch.setattr(experiments, "prepare_result", explode)
        code = main(["--scale", "small", "--experiments", "table1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "synthetic pipeline failure" in captured.err
        assert "Traceback" not in captured.err


class TestClusterServeInterrupt:
    """SIGINT while the shard fleet starts must not orphan a shard."""

    def test_interrupt_during_fleet_start_stops_the_fleet(
        self, monkeypatch, tmp_path
    ):
        from repro.cluster.manager import ShardManager

        stopped: list[ShardManager] = []

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(ShardManager, "start", interrupted)
        monkeypatch.setattr(
            ShardManager, "stop_all", lambda self: stopped.append(self)
        )
        with pytest.raises(KeyboardInterrupt):
            main(["cluster", "serve", "--snapshot", str(tmp_path / "s.npz"),
                  "--port", "0"])
        assert len(stopped) == 1

    def test_interrupt_before_banners_terminates_spawned_workers(
        self, monkeypatch, tmp_path
    ):
        import numpy as np

        from repro.cluster import coordinator, manager

        spawned: list[object] = []
        terminated: list[object] = []

        def spawn(self, rng):
            spawned.append(object())
            return spawned[-1]

        def no_banner(proc, timeout_s):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            coordinator, "_snapshot_addresses",
            lambda path: np.arange(100, dtype=np.int64),
        )
        monkeypatch.setattr(manager.ShardManager, "_spawn", spawn)
        monkeypatch.setattr(manager, "_read_banner", no_banner)
        monkeypatch.setattr(manager, "_terminate", terminated.append)
        fleet = manager.ShardManager(tmp_path / "s.npz", n_ranges=2, replicas=2)
        with pytest.raises(KeyboardInterrupt):
            fleet.start()
        assert len(spawned) == 4 and terminated == spawned
        assert fleet.shards == []


class TestReportCli:
    """The --report flag and the `repro report` subcommand."""

    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("reports") / "run.json"
        code = main(
            [
                "run", "--scale", "small", "--experiments", "table1",
                "--jobs", "2", "--report", str(path),
            ]
        )
        assert code == 0
        return path

    def test_report_is_schema_valid_with_deep_spans(self, report_path):
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        report = load_report(report_path)
        # run -> pipeline -> stage:* -> geoloc.locate_batch
        assert report.span_depth() >= 3
        assert report.counter("geoloc.addresses") > 0
        assert report.counter("bgp.lookups") > 0
        assert len(report.stage_events) == 10
        assert len(report.artifacts) == 4

    def test_report_show(self, report_path, capsys):
        assert main(["report", "show", str(report_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "RUN REPORT" in out
        assert "SPAN TREE" in out

    def test_report_diff_identical_is_clean(self, report_path, capsys):
        code = main(["report", "diff", str(report_path), str(report_path)])
        assert code == EXIT_OK
        assert "no regressions" in capsys.readouterr().out

    def test_report_diff_flags_regression(self, report_path, tmp_path, capsys):
        payload = json.loads(report_path.read_text())
        for event in payload["stage_events"]:
            event["wall_s"] = event["wall_s"] * 10 + 1.0
        slowed = tmp_path / "slowed.json"
        slowed.write_text(json.dumps(payload))
        code = main(["report", "diff", str(report_path), str(slowed)])
        assert code == EXIT_DIFF
        assert "REGRESSION" in capsys.readouterr().out

    def test_report_diff_threshold_is_tunable(self, report_path, tmp_path):
        payload = json.loads(report_path.read_text())
        for event in payload["stage_events"]:
            event["wall_s"] = event["wall_s"] * 10 + 1.0
        slowed = tmp_path / "slowed.json"
        slowed.write_text(json.dumps(payload))
        args = ["report", "diff", str(report_path), str(slowed)]
        assert main(args + ["--threshold", "1e9"]) == EXIT_OK

    def test_report_commands_reject_invalid_files(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["report", "show", str(bad)]) == EXIT_INVALID
        assert main(["report", "diff", str(bad), str(bad)]) == EXIT_INVALID
        assert (
            main(["report", "show", str(tmp_path / "missing.json")])
            == EXIT_INVALID
        )
        assert "error:" in capsys.readouterr().err


class TestTelemetryCli:
    """The live-telemetry CLI surface: profiler, trace, follow, bench."""

    @pytest.fixture()
    def campaign(self, tmp_path):
        """A tiny finished synthetic campaign behind a result store."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "clismoke",
            "seeds": [1, 2],
            "synthetic": [{"duration_s": 0.01}],
        }))
        db = tmp_path / "sweep.db"
        code = main(["sweep", "run", str(spec), "--db", str(db),
                     "--workers", "0"])
        assert code == 0
        return db

    def test_sweep_run_profile_sampling_writes_collapsed(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "profiled",
            "seeds": [1, 2, 3, 4],
            "synthetic": [{"duration_s": 0.05}],
        }))
        out = tmp_path / "profile.collapsed"
        code = main([
            "sweep", "run", str(spec), "--db", str(tmp_path / "p.db"),
            "--workers", "0", "--profile-sampling", str(out),
            "--sampling-hz", "200",
        ])
        assert code == 0
        body = out.read_text()
        assert body, "profiler collected nothing during the campaign"
        stack, _, count = body.splitlines()[0].rpartition(" ")
        assert int(count) >= 1 and ";" in stack

    def test_sweep_trace_renders_and_jsons(self, campaign, capsys):
        code = main(["sweep", "trace", "clismoke", "--db", str(campaign)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "campaign:clismoke" in out
        assert out.count("sweep:trial") == 2

        code = main(["sweep", "trace", "clismoke", "--db", str(campaign),
                     "--json"])
        assert code == EXIT_OK
        tree = json.loads(capsys.readouterr().out)
        assert len(tree["children"]) == 2

    def test_sweep_trace_unknown_campaign_fails(self, campaign, capsys):
        code = main(["sweep", "trace", "ghost", "--db", str(campaign)])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_sweep_status_follow_replays_finished_campaign(
        self, campaign, capsys
    ):
        code = main(["sweep", "status", "clismoke", "--db", str(campaign),
                     "--follow", "--interval", "0.01"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count(" start ") + out.count(" start  ") >= 2
        assert "clismoke: done" in out

    def test_sweep_status_follow_requires_campaign(self, campaign):
        with pytest.raises(SystemExit):
            main(["sweep", "status", "--db", str(campaign), "--follow"])

    @staticmethod
    def _history_line(bench, rev, created, headline):
        return json.dumps({
            "schema": "repro-bench",
            "schema_version": 1,
            "bench": bench,
            "git_rev": rev,
            "created_unix": created,
            "machine": {},
            "headline": {
                name: {"value": value, "better": better}
                for name, (value, better) in headline.items()
            },
        })

    def test_bench_history_renders_and_checks(self, tmp_path, capsys):
        history = tmp_path / "BENCH_history.jsonl"
        history.write_text("\n".join([
            self._history_line("serve", "aaa", 1.0,
                               {"p99_ms": (1.0, "lower")}),
            self._history_line("serve", "bbb", 2.0,
                               {"p99_ms": (2.0, "lower")}),
        ]) + "\n")
        code = main(["bench", "history", str(tmp_path)])
        assert code == EXIT_OK  # informational without --check
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "regressed" in captured.err

        code = main(["bench", "history", str(tmp_path), "--check"])
        assert code == EXIT_DIFF
        # a generous threshold waves the same history through
        code = main(["bench", "history", str(tmp_path), "--check",
                     "--threshold", "5.0"])
        assert code == EXIT_OK

    def test_bench_history_rejects_empty_dir(self, tmp_path, capsys):
        code = main(["bench", "history", str(tmp_path)])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


class TestStopOnSigint:
    """Long-running commands stop on one SIGINT, whichever thread takes it."""

    def test_wait_wakes_when_a_worker_thread_takes_the_signal(self, capsys):
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        main_thread = threading.get_ident()
        # Thread-directed at a worker: the main thread never sees it.
        worker = threading.Timer(
            0.2, lambda: signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        )
        # Should the wait miss the worker's signal, this one ends it.
        watchdog = threading.Timer(
            5.0, signal.pthread_kill, (main_thread, signal.SIGINT)
        )
        try:
            worker.start()
            watchdog.start()
            start = time.monotonic()
            _announce_and_wait("ready")
            elapsed = time.monotonic() - start
        finally:
            worker.cancel()
            watchdog.cancel()
            signal.signal(signal.SIGINT, previous)
        assert elapsed < 4.0, "woke only on the watchdog's signal"
        assert signal.getsignal(signal.SIGINT) is previous
        assert capsys.readouterr().out == "ready\n"

    def test_cluster_serve_exits_zero_on_one_sigint(
        self, pipeline_small, tmp_path
    ):
        from repro.datasets.serialize import save_dataset

        snapshot = tmp_path / "snapshot.npz"
        save_dataset(pipeline_small.dataset("IxMapper", "Skitter"), snapshot)
        # The child restores the default SIGINT handler itself, in case
        # this test runs with SIGINT ignored (a background job inherits
        # SIG_IGN, which the program deliberately leaves in force).
        launcher = (
            "import signal, sys\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-c", launcher, "cluster", "serve",
            "--snapshot", str(snapshot), "--ranges", "1", "--replicas", "1",
            "--port", "0",
        ]
        for attempt in range(5):
            proc = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
                start_new_session=True,  # so a failure can reap the shards
            )
            try:
                for line in proc.stdout:
                    if line.startswith("cluster coordinator on"):
                        break
                else:
                    pytest.fail(f"cluster serve exited {proc.wait()}")
                proc.send_signal(signal.SIGINT)
                out, _ = proc.communicate(timeout=5.0)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
            assert proc.returncode == 0, f"attempt {attempt}: {out[-2000:]}"
