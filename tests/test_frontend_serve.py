"""User-defined kernels over the wire: daemon routes + fleet identity.

The acceptance contract for the open frontend: a kernel document
``POST``-ed to ``/v1/kernels`` must be sweepable by its ``kernel:<hash>``
reference with results **byte-identical** to the built-in path — through
a single daemon, and through a coordinator sharding over real worker
subprocesses (registrations are broadcast to the fleet and persisted in
a shared registry directory, so every shard resolves the same bytes).
"""

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis.sweep import clear_sweep_cache
from repro.api import SweepRequest, dedup_key, execute
from repro.cluster.coordinator import expand_sweep_points
from repro.frontend import document_from_graph
from repro.frontend.registry import configure_default_registry
from repro.kernels.suite import get_kernel
from repro.serve import ReproServer, ServeClient, ServerConfig


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def running_server(**overrides):
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


@pytest.fixture()
def registry(tmp_path):
    registry = configure_default_registry(tmp_path / "kernels")
    try:
        yield registry
    finally:
        configure_default_registry(enabled=False)


def fft_document():
    return document_from_graph(get_kernel("fft"))


class TestKernelRoutes:
    def test_register_list_get_round_trip(self, registry):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                posted = client.register_kernel(fft_document())
                assert posted.status == 200
                ref = posted.data["ref"]
                assert ref.startswith("kernel:")
                assert posted.data["name"] == "fft"

                # Idempotent: same content -> same address, same bytes.
                again = client.register_kernel(fft_document())
                assert again.status == 200
                assert _canonical(again.data) == _canonical(posted.data)

                listed = client.list_kernels()
                assert listed.status == 200
                assert [k["ref"] for k in listed.data["kernels"]] == [ref]

                fetched = client.get_kernel(ref)
                assert fetched.status == 200
                assert fetched.data["document"] == fft_document()

                # Prefix lookup, with and without the scheme.
                short = ref.split(":", 1)[1][:12]
                for spec in (short, f"kernel:{short}"):
                    assert client.get_kernel(spec).data["ref"] == ref

    def test_unknown_and_invalid_kernels(self, registry):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                missing = client.get_kernel("kernel:" + "0" * 64)
                assert missing.status == 404
                assert missing.error["code"] == "not_found"

                empty = client.list_kernels()
                assert empty.status == 200
                assert empty.data["kernels"] == []

                bad = client.register_kernel(
                    {"schema_version": 1, "name": "x", "nodes": "nope"}
                )
                assert bad.status == 400
                assert "E_FIELD_TYPE" in bad.error["message"]

                method = client.request("POST", "/v1/kernels/abc")
                assert method.status == 405

    def test_sweep_by_ref_matches_builtin_through_daemon(self, registry):
        ref = registry.register(fft_document()).ref
        with running_server() as server:
            clear_sweep_cache()
            with ServeClient("127.0.0.1", server.port) as client:
                by_ref = client.sweep("fig13", kernel=ref)
                assert by_ref.status == 200
                builtin = client.sweep("fig13", kernel="fft")
                assert builtin.status == 200
                assert _canonical(by_ref.data) == _canonical(builtin.data)
                assert len(by_ref.data["rows"]) == 8

    def test_simulate_by_ref_matches_library(self, registry):
        from repro.api import SimulateRequest

        ref = registry.register(fft_document()).ref
        direct = execute(SimulateRequest(ref, 8, 5)).to_json()
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.simulate(ref, 8, 5)
                assert response.status == 200
                assert _canonical(response.data) == direct


# --- fleet identity -----------------------------------------------------


def _spawn_worker(coordinator_port, tmp_path, registry_dir, index):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_COMPILE_CACHE_DIR"] = str(tmp_path / f"wcache{index}")
    env["REPRO_KERNEL_REGISTRY_DIR"] = str(registry_dir)
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


@pytest.mark.slow
class TestFleetIdentity:
    def test_registered_kernel_sweeps_identically_through_fleet(
        self, tmp_path, registry
    ):
        """Register through the coordinator, sweep by ref across two
        real workers: rows byte-identical to the built-in kernel."""
        with running_server() as server:
            procs = [
                _spawn_worker(
                    server.port, tmp_path, tmp_path / "kernels", i
                )
                for i in range(2)
            ]
            try:
                assert server.coordinator.wait_for_workers(2, 60.0), (
                    "workers never registered"
                )
                clear_sweep_cache()
                with ServeClient("127.0.0.1", server.port) as client:
                    ref = client.register_kernel(fft_document()).data["ref"]
                    by_ref = client.sweep("fig13", kernel=ref)
                    assert by_ref.status == 200
                    # Every point went to its ring owner.  (Which worker
                    # owns which of the four points depends on the
                    # workers' ephemeral ports, so both need not get
                    # one.)
                    membership = server.coordinator.membership
                    alive = membership.alive()
                    expected = {worker: 0 for worker in alive}
                    for point in expand_sweep_points(
                        SweepRequest("fig13", kernel=ref)
                    ):
                        owner = membership.ring.owner(
                            dedup_key(point), alive
                        )
                        expected[owner] += 1
                    served = {
                        w["worker_id"]: w["points_ok"]
                        for w in membership.stats()["workers"]
                    }
                    assert served == expected, "points missed their owners"
                oracle = execute(
                    SweepRequest("fig13", kernel="fft")
                ).to_json()
                assert _canonical(by_ref.data) == oracle
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
