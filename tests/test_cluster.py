"""Cluster mode: the ring, membership, and the sharded coordinator.

The load-bearing contract is the same one the resilience layer keeps:
**degraded means slower, never different**.  A sweep sharded over a
worker fleet — including one that loses a worker mid-sweep — must
produce results byte-identical to the single-node serial oracle.  The
unit layers (hash ring determinism and minimal movement, membership
liveness with an injected clock, wire-payload reconstruction) each pin
one ingredient of that identity; the integration tests boot real
worker subprocesses and check the whole loop.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import (
    CompileRequest,
    SimulateRequest,
    SweepRequest,
    dedup_key,
    execute,
)
from repro.cluster import (
    ClusterCoordinator,
    ClusterMembership,
    HashRing,
    expand_sweep_points,
)
from repro.cluster.coordinator import _simulation_from_payload
from repro.analysis.sweep import clear_sweep_cache, plan_shards
from repro.resilience import RequeueLadder
from repro.serve import ReproServer, ServeClient, ServerConfig


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class TestHashRing:
    def test_assignment_is_deterministic_across_instances(self):
        a, b = HashRing(), HashRing()
        for node in ("w1", "w2", "w3"):
            a.add(node)
        for node in ("w3", "w1", "w2"):  # insertion order must not matter
            b.add(node)
        keys = [f"CompileRequest:{{\"kernel\":\"k{i}\"}}" for i in range(64)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_every_node_gets_a_reasonable_share(self):
        ring = HashRing()
        nodes = [f"w{i}" for i in range(4)]
        for node in nodes:
            ring.add(node)
        keys = [f"point-{i}" for i in range(400)]
        shares = {node: 0 for node in nodes}
        for key in keys:
            shares[ring.owner(key)] += 1
        # 64 vnodes/node keeps the spread tight; 10% is a loose floor.
        assert min(shares.values()) >= 40, shares

    def test_removal_moves_only_the_dead_nodes_keys(self):
        ring = HashRing()
        for node in ("w1", "w2", "w3"):
            ring.add(node)
        keys = [f"point-{i}" for i in range(300)]
        before = {key: ring.owner(key) for key in keys}
        ring.remove("w2")
        for key in keys:
            if before[key] != "w2":
                # Consistent hashing's whole point: survivors keep
                # their shards (memo + compile-cache locality).
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) in ("w1", "w3")

    def test_alive_filter_equals_preference_failover(self):
        ring = HashRing()
        for node in ("w1", "w2", "w3"):
            ring.add(node)
        for key in (f"point-{i}" for i in range(50)):
            preference = list(ring.preference(key))
            assert sorted(preference) == ["w1", "w2", "w3"]
            assert preference[0] == ring.owner(key)
            dead = preference[0]
            survivors = [n for n in ("w1", "w2", "w3") if n != dead]
            assert ring.owner(key, survivors) == preference[1]

    def test_empty_ring_owns_nothing(self):
        assert HashRing().owner("anything") is None


class TestPlanShards:
    def test_partitions_preserve_index_order(self):
        keys = ["a", "b", "c", "d", "e"]
        assign = {"a": "w1", "b": "w2", "c": "w1", "d": None, "e": "w2"}
        shards = plan_shards(keys, assign.get)
        assert shards == {"w1": [0, 2], "w2": [1, 4], None: [3]}


class TestMembership:
    def make(self):
        clock = [100.0]
        membership = ClusterMembership(
            heartbeat_timeout_s=5.0, clock=lambda: clock[0]
        )
        return membership, clock

    def test_register_heartbeat_and_timeout(self):
        membership, clock = self.make()
        membership.register("w1", "127.0.0.1", 4001, pid=123)
        assert membership.alive() == ["w1"]
        clock[0] += 4.0
        assert membership.heartbeat("w1") is True
        clock[0] += 4.0
        assert membership.alive() == ["w1"]  # heartbeat reset the clock
        clock[0] += 2.0
        assert membership.alive() == []  # 6s silent > 5s timeout

    def test_unknown_heartbeat_requests_reregistration(self):
        membership, _ = self.make()
        assert membership.heartbeat("stranger") is False

    def test_mark_dead_counts_once_and_heartbeat_revives(self):
        membership, _ = self.make()
        membership.register("w1", "127.0.0.1", 4001)
        membership.mark_dead("w1", error="boom at 127.0.0.1:4001")
        membership.mark_dead("w1", error="boom again")
        stats = membership.stats()
        assert stats["deaths"] == 1
        assert stats["alive"] == 0
        assert "boom" in stats["workers"][0]["last_error"]
        membership.heartbeat("w1")
        assert membership.alive() == ["w1"]

    def test_wait_for_workers_times_out_and_succeeds(self):
        membership = ClusterMembership(heartbeat_timeout_s=5.0)
        assert membership.wait_for_workers(1, timeout_s=0.05) is False
        membership.register("w1", "127.0.0.1", 4001)
        assert membership.wait_for_workers(1, timeout_s=0.05) is True


class TestRequeueLadder:
    def test_rounds_are_bounded(self):
        ladder = RequeueLadder(max_rounds=2, backoff_base=0.001)
        assert ladder.allow_round(0) is True
        assert ladder.allow_round(1) is True
        assert ladder.allow_round(2) is False

    def test_stats_accounting(self):
        ladder = RequeueLadder(max_rounds=2, backoff_base=0.001)
        ladder.record_requeued(5)
        ladder.record_recovered(4)
        ladder.record_exhausted(1)
        stats = ladder.stats()
        assert stats["requeued"] == 5
        assert stats["recovered"] == 4
        assert stats["exhausted"] == 1


class TestSweepPointExpansion:
    @pytest.mark.parametrize(
        "target", ("fig13", "fig14", "table5", "fig15", "headline")
    )
    def test_points_are_unique_and_typed(self, target):
        points = expand_sweep_points(SweepRequest(target, apps=True))
        assert points
        keys = [dedup_key(p) for p in points]
        assert len(keys) == len(set(keys))
        assert all(
            isinstance(p, (CompileRequest, SimulateRequest)) for p in points
        )

    def test_fig13_grid_shape(self):
        # 6 kernels x 4 distinct configs (the baseline (8,5) coincides
        # with the N=5 study point and must dedup away).
        points = expand_sweep_points(SweepRequest("fig13"))
        assert len(points) == 24
        assert all(isinstance(p, CompileRequest) for p in points)

    def test_headline_apps_flag_adds_simulations(self):
        bare = expand_sweep_points(SweepRequest("headline"))
        full = expand_sweep_points(SweepRequest("headline", apps=True))
        assert all(isinstance(p, CompileRequest) for p in bare)
        assert len(full) > len(bare)
        assert any(isinstance(p, SimulateRequest) for p in full)


class TestPayloadReconstruction:
    def test_simulation_round_trips_bit_identically(self):
        """Worker wire payload -> local memo value -> wire payload must
        be a fixed point: every derived metric recomputes exactly."""
        from repro.api import SimulateResult

        direct = execute(SimulateRequest("fft1k", 8, 5))
        rebuilt = _simulation_from_payload(direct)
        assert rebuilt.records == ()
        assert (
            SimulateResult.from_simulation(rebuilt, "fft1k").to_json()
            == direct.to_json()
        )


# --- integration: a real coordinator with real worker subprocesses ----


@contextlib.contextmanager
def _in_process_server(**overrides):
    import asyncio

    overrides.setdefault("port", 0)
    config = ServerConfig(**overrides)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = ReproServer(config)
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(
            server.drain_and_stop(10), loop
        ).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()


def _spawn_worker(coordinator_port, tmp_path, index):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_COMPILE_CACHE_DIR"] = str(tmp_path / f"wcache{index}")
    env.pop("REPRO_SWEEP_CHECKPOINT", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--join", f"127.0.0.1:{coordinator_port}",
            "--heartbeat-interval", "0.5",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@contextlib.contextmanager
def _cluster(tmp_path, workers=2, **overrides):
    """In-process coordinator + ``workers`` real worker subprocesses."""
    with _in_process_server(**overrides) as server:
        procs = [
            _spawn_worker(server.port, tmp_path, i) for i in range(workers)
        ]
        try:
            assert server.coordinator.wait_for_workers(workers, 60.0), (
                "workers never registered"
            )
            yield server, procs
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5)


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.mark.slow
class TestClusterIntegration:
    def test_sharded_sweep_matches_serial_oracle(self, tmp_path):
        oracle = execute(SweepRequest("fig13")).to_json()
        with _cluster(tmp_path, workers=2) as (server, _procs):
            clear_sweep_cache()
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.sweep("fig13")
            assert response.status == 200
            assert _canonical(response.data) == oracle
            stats = server.coordinator.membership.stats()
            # Both shards did real work.
            assert all(w["points_ok"] > 0 for w in stats["workers"])
            assert sum(w["points_ok"] for w in stats["workers"]) == 24

    def test_single_point_routes_to_ring_owner(self, tmp_path):
        direct = execute(SimulateRequest("fft1k", 8, 5)).to_json()
        with _cluster(tmp_path, workers=1) as (server, _procs):
            clear_sweep_cache()
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.simulate("fft1k", 8, 5)
            assert response.status == 200
            assert _canonical(response.data) == direct
            stats = server.coordinator.membership.stats()
            assert stats["workers"][0]["points_ok"] == 1

    def test_dead_worker_requeues_and_names_target(self, tmp_path):
        """A registered-but-unreachable worker: its shard requeues on
        the survivor and the failure names ``host:port``."""
        oracle = execute(SweepRequest("fig14")).to_json()
        ghost_port = _free_port()
        with _cluster(tmp_path, workers=1) as (server, _procs):
            server.coordinator.membership.register(
                "ghost", "127.0.0.1", ghost_port
            )
            clear_sweep_cache()
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.sweep("fig14")
            assert response.status == 200
            assert _canonical(response.data) == oracle
            stats = server.coordinator.stats()
            assert stats["deaths"] >= 1
            ghost = next(
                w for w in stats["workers"] if w["worker_id"] == "ghost"
            )
            assert f"127.0.0.1:{ghost_port}" in ghost["last_error"]
            assert stats["last_requeue"]["requeued"] >= 1
            assert stats["last_requeue"]["exhausted"] == 0

    def test_worker_killed_mid_sweep_still_bit_identical(self, tmp_path):
        """The chaos contract: SIGKILL one worker while its shard is in
        flight; the sweep must still match the serial oracle."""
        oracle = execute(SweepRequest("table5")).to_json()
        with _cluster(tmp_path, workers=2) as (server, _procs):
            clear_sweep_cache()
            killed = threading.Event()

            def _assassin():
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline and not killed.is_set():
                    stats = server.coordinator.membership.stats()
                    for worker in stats["workers"]:
                        if worker["points_ok"] >= 3 and worker["pid"]:
                            os.kill(worker["pid"], signal.SIGKILL)
                            killed.set()
                            return
                    time.sleep(0.02)

            assassin = threading.Thread(target=_assassin, daemon=True)
            assassin.start()
            with ServeClient(
                "127.0.0.1", server.port, timeout=300.0
            ) as client:
                response = client.sweep("table5")
            killed.set()
            assassin.join(5)
            assert response.status == 200
            assert _canonical(response.data) == oracle

    def test_cluster_stats_route_and_heartbeat_protocol(self, tmp_path):
        with _cluster(tmp_path, workers=1) as (server, procs):
            with ServeClient("127.0.0.1", server.port) as client:
                stats = client.cluster_stats()
                assert stats.status == 200
                assert stats.data["alive"] == 1
                assert stats.data["registered"] == 1
                worker = stats.data["workers"][0]
                assert worker["pid"] == procs[0].pid
                # Unknown heartbeats ask the worker to re-register.
                response = client.request(
                    "POST", "/v1/cluster/heartbeat",
                    {"worker_id": "stranger"},
                )
                assert response.status == 200
                assert response.data["known"] is False
                # Daemon stats fold the cluster view in.
                assert client.stats().data["cluster"]["alive"] == 1


class TestCoordinatorLocalFallback:
    def test_empty_fleet_executes_locally(self):
        coordinator = ClusterCoordinator()
        direct = execute(CompileRequest("fft", 8, 5))
        assert coordinator.execute(CompileRequest("fft", 8, 5)) == direct

    def test_analytical_sweeps_stay_local(self):
        coordinator = ClusterCoordinator()
        coordinator.membership.register("w1", "127.0.0.1", 1)
        request = SweepRequest("fig13", mode="analytical")
        # A live fleet must not shard analytical sweeps (per-point cost
        # is microseconds; dispatch would only add overhead) — and the
        # bogus worker above must therefore never be contacted.
        assert (
            coordinator.execute(request).to_json()
            == execute(request).to_json()
        )
