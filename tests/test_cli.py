"""Unit tests for the repro-experiments command-line interface."""

import io
import os

import pytest

from repro.cli import available_experiments, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRegistry:
    def test_all_figures_and_ablations_are_registered(self):
        registry = available_experiments()
        for figure in range(5, 24):
            assert f"fig{figure:02d}" in registry
        assert "ablation_alpha_min" in registry
        assert "ablation_sub_buckets" in registry
        assert "ablation_repartition_threshold" in registry


class TestListCommand:
    def test_list_prints_every_experiment(self):
        code, output = _run(["list"])
        assert code == 0
        assert "fig05" in output
        assert "fig23" in output
        assert "ablation_alpha_min" in output


class TestRunCommand:
    def test_run_single_figure(self, tmp_path):
        code, output = _run(
            [
                "run",
                "fig22",
                "--scale",
                "0.01",
                "--runs",
                "1",
                "--csv-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "fig22" in output
        assert "histogram + union" in output
        assert (tmp_path / "fig22.csv").exists()

    def test_run_unknown_experiment_fails_cleanly(self):
        code, output = _run(["run", "fig99"])
        assert code == 2
        assert "unknown experiment" in output

    def test_run_requires_arguments(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestCompareCommand:
    def test_compare_prints_leaderboard(self):
        code, output = _run(["compare", "--scale", "0.02", "--memory-kb", "0.25"])
        assert code == 0
        assert "DADO" in output
        assert "EQUI_WIDTH" in output
        assert "KS statistic" in output


class TestServeCommand:
    def test_serve_binds_and_exits_after_duration(self):
        code, output = _run(
            [
                "serve",
                "--port",
                "0",
                "--attribute",
                "age:dc:0.5",
                "-a",
                "price:dado",
                "--duration",
                "0.05",
            ]
        )
        assert code == 0
        assert "statistics service listening on http://127.0.0.1:" in output
        assert "attributes: age, price" in output

    def test_serve_accepts_live_requests(self):
        import io
        import re
        import threading
        import time

        from repro.service import StatisticsClient

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(["serve", "--port", "0", "-a", "age:dc:0.5", "--duration", "1.5"],),
            kwargs={"out": out},
        )
        thread.start()
        try:
            deadline = time.time() + 5.0
            match = None
            while match is None and time.time() < deadline:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", out.getvalue())
                if match is None:
                    time.sleep(0.01)
            assert match is not None, "server never reported its address"
            client = StatisticsClient("127.0.0.1", int(match.group(1)))
            client.ingest("age", insert=[float(v % 50) for v in range(500)])
            deadline = time.time() + 5.0
            while client.total_count("age") < 500 and time.time() < deadline:
                time.sleep(0.01)
            assert client.total_count("age") == pytest.approx(500.0)
            client.close()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_serve_rejects_bad_attribute_spec(self):
        code, output = _run(["serve", "--port", "0", "-a", "a:b:c:d", "--duration", "0"])
        assert code == 2
        assert "invalid attribute spec" in output


class TestStoreStatsCommand:
    def test_store_stats_pretty_prints_live_server(self):
        from repro.service import HistogramStore, StatisticsServer

        store = HistogramStore()
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [float(v % 90) for v in range(2000)])
        with StatisticsServer(store) as server:
            host, port = server.address
            code, output = _run(["store-stats", "--host", host, "--port", str(port)])
        assert code == 0
        assert "age" in output
        assert "serving" in output
        assert "2000" in output

    def test_store_stats_unreachable_server_fails_cleanly(self):
        code, output = _run(["store-stats", "--port", "1"])
        assert code == 2
        assert "cannot reach statistics server" in output


class TestFormatStoreStats:
    def test_format_contains_all_columns(self):
        from repro.cli import format_store_stats
        from repro.service import HistogramStore

        store = HistogramStore()
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [1.0, 2.0, 3.0])
        table = format_store_stats([s.to_dict() for s in store.stats_all()])
        assert "attribute" in table
        assert "age" in table
        assert "dc" in table


class TestServeClusterCommand:
    def test_serve_cluster_binds_and_exits_after_duration(self):
        code, output = _run(
            [
                "serve-cluster",
                "--port", "0",
                "--shards", "3",
                "-a", "age:dc:0.5",
                "-p", "hot:100,200",
                "--duration", "0.05",
            ]
        )
        assert code == 0
        assert "statistics cluster listening on http://127.0.0.1:" in output
        assert "shards: shard-0, shard-1, shard-2" in output
        assert "age" in output and "hot (partitioned)" in output

    def test_serve_cluster_accepts_live_requests(self):
        import io
        import re
        import threading
        import time

        from repro.cluster import ClusterClient

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(
                ["serve-cluster", "--port", "0", "--shards", "2",
                 "-p", "hot:500", "--duration", "1.5"],
            ),
            kwargs={"out": out},
        )
        thread.start()
        try:
            deadline = time.time() + 5.0
            match = None
            while match is None and time.time() < deadline:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", out.getvalue())
                if match is None:
                    time.sleep(0.01)
            assert match is not None, "cluster server never reported its address"
            client = ClusterClient("127.0.0.1", int(match.group(1)))
            client.ingest("hot", insert=[float(v % 1000) for v in range(400)])
            assert client.total_count("hot") == pytest.approx(400.0)
            stats = client.cluster_stats()
            assert "hot" in stats["placement"]["partitions"]
            client.close()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_serve_cluster_rejects_bad_partition_spec(self):
        code, output = _run(
            ["serve-cluster", "--port", "0", "-p", "hot:abc", "--duration", "0"]
        )
        assert code == 2
        assert "invalid partition spec" in output

    def test_serve_cluster_rejects_zero_shards(self):
        code, output = _run(["serve-cluster", "--shards", "0", "--duration", "0"])
        assert code == 2
        assert "--shards" in output

    def test_serve_cluster_rejects_zero_spawn_shards(self):
        code, output = _run(
            ["serve-cluster", "--spawn-shards", "0", "--duration", "0"]
        )
        assert code == 2
        assert "--spawn-shards" in output

    def test_serve_cluster_interrupt_during_duration_tears_down(self, monkeypatch):
        """Regression: Ctrl-C while sleeping out ``--duration`` must still
        run the shutdown path.  Before the fix the sleep had no try/finally,
        so the fan-out executor's non-daemon threads survived the
        KeyboardInterrupt and the process could never exit cleanly.
        """
        import threading
        import time as time_module

        real_sleep = time_module.sleep
        sentinel = 987.0

        def interrupting_sleep(seconds):
            if seconds == sentinel:
                raise KeyboardInterrupt
            real_sleep(seconds)

        monkeypatch.setattr("repro.cli.time.sleep", interrupting_sleep)
        with pytest.raises(KeyboardInterrupt):
            _run(
                ["serve-cluster", "--port", "0", "--shards", "2",
                 "-a", "age:dc:0.5", "--duration", str(sentinel)]
            )
        leaked = [
            thread
            for thread in threading.enumerate()
            if not thread.daemon and thread.name.startswith("repro-")
        ]
        assert leaked == []

    def test_serve_cluster_spawn_shards_runs_worker_processes(self, tmp_path):
        code, output = _run(
            ["serve-cluster", "--port", "0", "--spawn-shards", "2",
             "-a", "age:dc:0.5", "--duration", "0.05",
             "--wal-dir", str(tmp_path / "wal")]
        )
        assert code == 0
        assert "statistics cluster listening on http://127.0.0.1:" in output
        # The fleet line reports real processes, not in-process shards.
        assert "shard-0 (pid " in output and "shard-1 (pid " in output
        assert "worker-owned" in output
        # Each worker opened its own WAL under the shared root.
        assert (tmp_path / "wal" / "shard-0" / "wal.log").exists()
        assert (tmp_path / "wal" / "shard-1" / "wal.log").exists()


class TestDurableServe:
    def test_serve_wal_dir_recovers_catalog_across_restarts(self, tmp_path):
        from repro.service import HistogramStore

        wal_dir = tmp_path / "wal"
        # First life: create + ingest durably, then "crash" (exit).
        code, output = _run(
            ["serve", "--port", "0", "-a", "age:dc:0.5",
             "--flush-interval", "0", "--duration", "0.05",
             "--wal-dir", str(wal_dir)]
        )
        assert code == 0
        assert "fresh log" in output
        store = HistogramStore.recover(wal_dir)
        store.insert("age", [float(v % 50) for v in range(200)])
        store.close()
        # Second life: the catalog comes back with its data.
        code, output = _run(
            ["serve", "--port", "0", "--flush-interval", "0",
             "--duration", "0.05", "--wal-dir", str(wal_dir)]
        )
        assert code == 0
        assert "recovered existing catalog" in output
        assert "attributes: age" in output

    def test_serve_cluster_replication_and_wal_flags(self, tmp_path):
        code, output = _run(
            ["serve-cluster", "--port", "0", "--shards", "3",
             "--replication-factor", "2", "-a", "age:dc:0.5",
             "--wal-dir", str(tmp_path / "cluster-wal"), "--duration", "0.05"]
        )
        assert code == 0
        assert "replication factor: 2" in output
        assert "per-shard WALs" in output
        assert (tmp_path / "cluster-wal" / "shard-0" / "wal.log").exists()

    def test_serve_cluster_rejects_bad_replication_factor(self):
        code, output = _run(
            ["serve-cluster", "--shards", "2", "--replication-factor", "3",
             "--duration", "0"]
        )
        assert code == 2
        assert "--replication-factor" in output


class TestResyncCommand:
    def test_resync_heals_a_stale_replica_over_http(self):
        from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard, ShardRouter
        from fault_injection import FlakyShard

        shards = [FlakyShard(LocalShard(f"shard-{i}")) for i in range(3)]
        router = ShardRouter([s.shard_id for s in shards], replication_factor=2)
        coordinator = ClusterCoordinator(shards, router=router)
        coordinator.create("age", "dc", memory_kb=0.5)
        primary_id, follower_id = coordinator.router.replicas_for("age")
        by_id = {s.shard_id: s for s in shards}
        by_id[follower_id].down = True
        coordinator.ingest("age", insert=[float(v) for v in range(100)])
        by_id[follower_id].down = False
        with ClusterServer(coordinator) as server:
            host, port = server.address
            code, output = _run(["resync", follower_id, "--host", host, "--port", str(port)])
        assert code == 0
        assert f"age <- {primary_id}" in output
        assert by_id[follower_id].inner.store.total_count("age") == pytest.approx(100.0)

    def test_resync_unreachable_server_fails_cleanly(self):
        code, output = _run(["resync", "shard-0", "--port", "1"])
        assert code == 2
        assert "failed" in output


class TestClusterStatsCommand:
    def test_cluster_stats_pretty_prints_live_cluster(self):
        from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard

        coordinator = ClusterCoordinator([LocalShard("shard-0"), LocalShard("shard-1")])
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dc", partition_boundaries=[100.0])
        coordinator.ingest("hot", insert=[50.0, 150.0])
        coordinator.total_count("hot")
        with ClusterServer(coordinator) as server:
            host, port = server.address
            code, output = _run(["cluster-stats", "--host", host, "--port", str(port)])
        assert code == 0
        assert "2 shard(s)" in output
        assert "[shard-0]" in output and "[shard-1]" in output
        assert "range partitions:" in output
        assert "merged global histograms (cached):" in output

    def test_cluster_stats_unreachable_server_fails_cleanly(self):
        code, output = _run(["cluster-stats", "--port", "1"])
        assert code == 2
        assert "cannot reach cluster server" in output


class TestMetricsWatchCommand:
    def _serving(self):
        from repro.obs import MetricsRegistry
        from repro.service import HistogramStore, StatisticsServer

        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        return StatisticsServer(store, metrics=registry)

    def test_watch_reports_counter_deltas_and_gauge_values(self):
        import threading
        import time

        from repro.service import StatisticsClient

        with self._serving() as server:
            host, port = server.address
            client = StatisticsClient(host, port)
            client.create("age", "dc", memory_kb=0.5)

            def churn():
                for _ in range(10):
                    client.ingest("age", insert=[1.0, 2.0, 3.0])
                    time.sleep(0.02)

            worker = threading.Thread(target=churn)
            worker.start()
            code, output = _run(
                ["metrics", "--host", host, "--port", str(port), "--watch", "0.3"]
            )
            worker.join()
            client.close()
        assert code == 0
        assert "metrics delta over" in output
        # Counters that moved show a signed delta and a rate.
        assert "repro_store_mutations_total" in output
        assert "+" in output
        # Gauges show current values, not deltas.
        assert "repro_process_threads" in output
        # Histogram bucket series are folded away.
        assert "_bucket" not in output

    def test_watch_rejects_nonpositive_interval(self):
        with self._serving() as server:
            host, port = server.address
            code, output = _run(
                ["metrics", "--host", host, "--port", str(port), "--watch", "0"]
            )
        assert code == 2
        assert "positive" in output

    def test_watch_unreachable_server_fails_cleanly(self):
        code, output = _run(["metrics", "--port", "1", "--watch", "0.1"])
        assert code == 2
        assert "cannot reach server" in output

    def test_parse_exposition_roundtrip(self):
        from repro.cli import parse_exposition

        text = (
            "# HELP x_total help\n"
            "# TYPE x_total counter\n"
            'x_total{a="1"} 5\n'
            "# TYPE y gauge\n"
            "y 2.5\n"
        )
        types, samples = parse_exposition(text)
        assert types == {"x_total": "counter", "y": "gauge"}
        assert samples == {'x_total{a="1"}': 5.0, "y": 2.5}


class TestServeProfileFlag:
    def test_serve_with_profile_exposes_attribution(self):
        import io
        import re
        import threading
        import time

        from repro.service import StatisticsClient

        out = io.StringIO()
        done = threading.Event()

        def run_server():
            main(
                [
                    "serve", "--port", "0", "--duration", "0.8",
                    "--attribute", "age:dc:0.5", "--profile",
                ],
                out=out,
            )
            done.set()

        thread = threading.Thread(target=run_server)
        thread.start()
        try:
            deadline = time.time() + 5.0
            port = None
            while time.time() < deadline and port is None:
                match = re.search(r"http://[\d.]+:(\d+)", out.getvalue())
                if match:
                    port = int(match.group(1))
                else:
                    time.sleep(0.02)
            assert port is not None, out.getvalue()
            client = StatisticsClient("127.0.0.1", port)
            client.ingest("age", insert=[float(v % 90) for v in range(2000)])
            profile = client._request("GET", "/profile")
            assert "samples" in profile and "hot_stacks" in profile
            client.close()
        finally:
            assert done.wait(10.0)
            thread.join()


def _live_worker(pid):
    """True while ``pid`` is a running (not zombie) shard worker process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
        with open(f"/proc/{pid}/cmdline", "rb") as cmdline:
            command = cmdline.read()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z" and b"repro.cluster.worker" in command


def _port_bound(port):
    import socket

    try:
        with socket.create_connection(("127.0.0.1", port), timeout=0.5):
            return True
    except OSError:
        return False


class TestServerTeardown:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc to find workers")
    def test_sigterm_stops_spawned_workers(self):
        """Regression: SIGTERM used to kill ``serve-cluster`` outright and
        leave every spawned worker running with its port bound."""
        import re
        import signal
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve-cluster", "--port", "0",
             "--spawn-shards", "2", "-a", "age:dc:0.5"],
            stdout=subprocess.PIPE,
            env=env,
        )
        workers = {}
        port = None
        try:
            banner = ""
            while "attributes:" not in banner:
                line = process.stdout.readline().decode()
                assert line, f"server exited during start-up: {banner!r}"
                banner += line
            port = int(re.search(r"http://127\.0\.0\.1:(\d+)", banner).group(1))
            workers = {
                int(pid): int(worker_port)
                for pid, worker_port in re.findall(r"pid (\d+), port (\d+)", banner)
            }
            assert len(workers) == 2
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            process.kill()
            process.wait()
            process.stdout.close()
            survivors = [pid for pid in workers if _live_worker(pid)]
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
        assert survivors == []
        bound = [p for p in [port, *workers.values()] if p is not None and _port_bound(p)]
        assert bound == []

    @pytest.mark.parametrize(
        "fleet", [["--shards", "2"], ["--spawn-shards", "1"]], ids=["local", "spawned"]
    )
    def test_interrupt_while_writing_the_banner_tears_down(
        self, fleet, monkeypatch, tmp_path
    ):
        """Regression: the banner used to be written before the teardown
        ``try``, so a Ctrl-C landing on it leaked the workers and WALs."""
        from repro.cluster import ClusterServer, ShardSupervisor
        from repro.service import HistogramStore

        closed = []
        worker_pids = []

        def recording(owner, method, label):
            original = getattr(owner, method)

            def wrapper(self):
                closed.append(label)
                if label == "supervisor":
                    worker_pids.extend(info["pid"] for info in self.describe().values())
                return original(self)

            monkeypatch.setattr(owner, method, wrapper)

        recording(HistogramStore, "close", "store")
        recording(ShardSupervisor, "close", "supervisor")
        recording(ClusterServer, "stop", "server")

        class InterruptingOut:
            def write(self, text):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            main(
                ["serve-cluster", "--port", "0", *fleet, "-a", "age:dc:0.5",
                 "--wal-dir", str(tmp_path), "--duration", "30"],
                out=InterruptingOut(),
            )
        if fleet[0] == "--shards":
            assert sorted(closed) == ["server", "store", "store"]
        else:
            assert sorted(closed) == ["server", "supervisor"]
            assert len(worker_pids) == 1
            assert not any(_live_worker(pid) for pid in worker_pids)
