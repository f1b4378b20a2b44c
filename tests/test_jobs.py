"""The async job layer: tenancy, fair share, persistence, resume.

Four walls:

* **Admission units** — :class:`TokenBucket`, :class:`TenantRegistry`,
  and :class:`FairShareScheduler` with an injected clock: rate limits,
  quota charging, and the weighted-fairness invariants are exact, no
  sockets, no sleeps.
* **Manager units** — :class:`JobManager` with injected point/assembly
  runners, driven one scheduling quantum at a time: the state machine,
  cancellation, failure capture, and the 1:3 weighted completion ratio
  under saturation.
* **Route semantics** — an in-process daemon (open and closed mode):
  202 lifecycle, byte-identical results vs the synchronous sweep
  route, typed error envelopes (401/403/404/409/429), tenant
  isolation, the removed singular sweep route, and tenant-namespaced
  progress replay.
* **Crash resume** — a real ``python -m repro serve`` process is
  SIGKILLed mid-sweep; the restarted daemon re-queues the job from the
  store, replays checkpointed points as memo hits, and produces a
  result byte-identical to the in-process oracle.
"""

import contextlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import JobRequest, SweepRequest, SweepResult, execute
from repro.obs.metrics import MetricsRegistry
from repro.serve import ReproServer, ServeClient, ServerConfig
from repro.serve.jobs import JobManager, JobRecord, JobStore
from repro.serve.tenancy import (
    FairShareScheduler,
    Tenant,
    TenantRegistry,
    TokenBucket,
)


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# --- admission units ----------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=3.0, clock=clock)
        assert all(bucket.try_take()[0] for _ in range(3))
        ok, wait = bucket.try_take()
        assert not ok
        assert wait == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_take()[0]

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(2.0)

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=0.0, burst=1.0, clock=clock)
        assert bucket.try_take()[0]
        ok, wait = bucket.try_take()
        assert not ok and wait == float("inf")


class TestTenantRegistry:
    def _registry(self, clock=None, **limits):
        tenants = [Tenant(name="alice", api_key="ka", **limits)]
        return TenantRegistry(tenants, clock=clock or FakeClock())

    def test_open_mode_everyone_is_public(self):
        registry = TenantRegistry()
        assert registry.open
        tenant, code = registry.identify(None)
        assert tenant.name == "public" and code == ""
        tenant, code = registry.identify("whatever")
        assert tenant.name == "public" and code == ""

    def test_closed_mode_auth(self):
        registry = self._registry()
        assert not registry.open
        assert registry.identify("ka")[0].name == "alice"
        assert registry.identify(None) == (None, "unauthorized")
        assert registry.identify("wrong") == (None, "forbidden")
        # resolve() never fails: it exists for event namespacing.
        assert registry.resolve("wrong").name == "public"
        assert registry.resolve("ka").name == "alice"

    def test_quota_charged_atomically_at_admission(self):
        registry = self._registry(quota_points=10)
        alice = registry.get("alice")
        assert registry.admit(alice, 6).ok
        assert registry.quota_remaining("alice") == 4
        decision = registry.admit(alice, 5)
        assert not decision.ok
        assert decision.code == "quota_exceeded"
        assert decision.pointer == "/sweep"
        # The failed admission charged nothing.
        assert registry.quota_remaining("alice") == 4
        assert registry.admit(alice, 4).ok
        assert registry.quota_remaining("alice") == 0

    def test_rate_limit_with_clocked_bucket(self):
        clock = FakeClock()
        registry = self._registry(clock=clock, rate_per_s=1.0, burst=1.0)
        alice = registry.get("alice")
        assert registry.admit(alice, 1).ok
        decision = registry.admit(alice, 1)
        assert not decision.ok
        assert decision.code == "rate_limited"
        assert decision.retry_after_s > 0.0
        clock.advance(1.0)
        assert registry.admit(alice, 1).ok

    def test_unlimited_tenant_never_rejected(self):
        registry = self._registry()
        alice = registry.get("alice")
        for _ in range(100):
            assert registry.admit(alice, 10_000).ok

    def test_load_valid_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({
            "tenants": [
                {"name": "a", "api_key": "ka", "weight": 3.0,
                 "quota_points": 100},
                {"name": "b", "api_key": "kb", "rate_per_s": 5.0},
            ]
        }))
        registry = TenantRegistry.load(path)
        assert not registry.open
        assert registry.get("a").weight == 3.0
        assert registry.get("b").rate_per_s == 5.0
        assert registry.stats()["a"]["quota_remaining"] == 100

    @pytest.mark.parametrize("document,fragment", [
        ("not json {", "cannot read"),
        ('{"tenants": []}', "non-empty"),
        ('{"tenants": [{"name": "a"}]}', "api_key"),
        ('{"tenants": [{"api_key": "k"}]}', "name"),
        ('{"tenants": [{"name": "a", "api_key": "k", "typo": 1}]}',
         "unknown field"),
    ])
    def test_malformed_file_fails_loudly(self, tmp_path, document,
                                         fragment):
        path = tmp_path / "tenants.json"
        path.write_text(document)
        with pytest.raises(ValueError, match=fragment):
            TenantRegistry.load(path)


class TestFairShareScheduler:
    def _drain(self, scheduler, picks):
        """Run ``picks`` scheduling quanta, charging one point each."""
        order = []
        for _ in range(picks):
            picked = scheduler.next()
            if picked is None:
                break
            tenant, _ = picked
            scheduler.charge(tenant, 1.0)
            order.append(tenant)
        return order

    def test_weighted_ratio_under_saturation(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue("heavy", 3.0, "job-h")
        scheduler.enqueue("light", 1.0, "job-l")
        order = self._drain(scheduler, 80)
        assert order.count("heavy") == 60
        assert order.count("light") == 20

    def test_fifo_within_tenant(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue("a", 1.0, "job-1")
        scheduler.enqueue("a", 1.0, "job-2")
        assert scheduler.next() == ("a", "job-1")
        scheduler.finish("a", "job-1")
        assert scheduler.next() == ("a", "job-2")
        scheduler.finish("a", "job-2")
        assert scheduler.next() is None

    def test_reactivation_is_not_credit(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue("busy", 1.0, "job-b")
        self._drain(scheduler, 50)
        # A sleeper waking up is advanced to the active minimum: it
        # must not monopolize the runner to "catch up" 50 points.
        scheduler.enqueue("sleeper", 1.0, "job-s")
        order = self._drain(scheduler, 20)
        assert 8 <= order.count("busy") <= 12

    def test_deterministic_tie_break(self):
        scheduler = FairShareScheduler()
        scheduler.enqueue("b", 1.0, "job-b")
        scheduler.enqueue("a", 1.0, "job-a")
        assert scheduler.next()[0] == "a"  # name breaks the tie


# --- manager units ------------------------------------------------------


def _stub_assemble(sweep):
    return SweepResult(target=sweep.target, rows=({"stub": True},))


def _make_manager(tmp_path=None, registry=None, point_runner=None,
                  assemble=_stub_assemble, **kwargs):
    store = JobStore(tmp_path if tmp_path is not None else None)
    manager = JobManager(
        store=store,
        registry=registry or TenantRegistry(),
        point_runner=point_runner or (lambda point: None),
        assemble=assemble,
        **kwargs,
    )
    # Unit tests never touch the global engine's checkpoint.
    manager._checkpoint_ready = True
    return manager


def _quantum(manager):
    """One scheduling quantum, exactly as the runner loop executes it."""
    picked = manager._scheduler.next()
    if picked is None:
        return False
    tenant, job_id = picked
    record = manager.get(job_id)
    if record is None or record.state in ("done", "failed", "cancelled"):
        manager._scheduler.finish(tenant, job_id)
        return True
    if manager._advance(record):
        manager._scheduler.finish(tenant, job_id)
    return True


class RecordingBus:
    """A progress bus that keeps every published event."""

    def __init__(self):
        self.events = []

    def publish(self, event, **fields):
        self.events.append((event, fields))

    def names(self):
        return [event for event, _ in self.events]


class RunnerGate:
    """A ``JobManager.runner_gate`` that holds the runner at one site
    until the test releases it."""

    def __init__(self, site):
        self.site = site
        self.reached = threading.Event()
        self.release = threading.Event()

    def __call__(self, site, record):
        if site == self.site and not self.reached.is_set():
            self.reached.set()
            self.release.wait(10)


def _submit(manager, tenant, target="fig13", kernel="fft",
            mode="simulated"):
    sweep = SweepRequest(target, mode=mode, kernel=kernel)
    points = 0
    if mode == "simulated":
        from repro.cluster.coordinator import expand_sweep_points

        points = len(expand_sweep_points(sweep))
    return manager.submit(
        tenant, JobRequest(sweep=sweep.to_dict()), points
    )


class TestJobManagerStateMachine:
    def test_full_lifecycle_single_quantum_steps(self):
        manager = _make_manager()
        record = _submit(manager, manager.registry.public)
        assert record.state == "queued"
        _quantum(manager)  # queued -> running
        assert record.state == "running"
        for _ in range(record.points_total):
            _quantum(manager)
        assert record.points_done == record.points_total
        _quantum(manager)  # assembly
        assert record.state == "done"
        assert record.result == {"target": "fig13",
                                 "rows": [{"stub": True}]}
        assert record.queue_wait_s is not None
        assert record.run_s is not None
        assert manager._scheduler.pending() == 0

    def test_point_failure_finalizes_failed(self):
        def boom(point):
            raise RuntimeError("kaput")

        manager = _make_manager(point_runner=boom)
        record = _submit(manager, manager.registry.public)
        _quantum(manager)
        _quantum(manager)
        assert record.state == "failed"
        assert "kaput" in record.error
        assert manager._scheduler.pending() == 0

    def test_cancel_queued_job_is_immediate(self):
        manager = _make_manager()
        record = _submit(manager, manager.registry.public)
        ok, code = manager.cancel(record.job_id)
        assert ok and code == ""
        assert record.state == "cancelled"
        assert manager.cancel(record.job_id) == (False, "conflict")
        assert manager.cancel("job-nope") == (False, "not_found")

    def test_cancel_running_job_between_points(self):
        manager = _make_manager()
        record = _submit(manager, manager.registry.public)
        _quantum(manager)  # -> running
        _quantum(manager)  # one point
        assert manager.cancel(record.job_id)[0]
        _quantum(manager)
        assert record.state == "cancelled"
        assert 0 < record.points_done < record.points_total

    def test_cancel_racing_the_runner_ends_the_job_once(self):
        """The runner picks a queued job, a cancel lands, then the
        runner advances the job it picked: one end, counted once."""
        bus = RecordingBus()
        metrics = MetricsRegistry()
        manager = _make_manager(bus=bus, metrics=metrics)
        record = _submit(manager, manager.registry.public)
        _, job_id = manager._scheduler.next()
        assert manager.get(job_id).state == "queued"
        assert manager.cancel(job_id) == (True, "")
        assert manager._advance(record)
        assert record.state == "cancelled"
        assert bus.names().count("job_end") == 1
        assert metrics.snapshot()["serve.jobs.cancelled"] == 1

    def test_runner_gate_forces_cancel_between_pick_and_advance(self):
        """Hold the real runner thread after it picked the job; cancel;
        release.  The job ends once and leaves the scheduler once."""
        bus = RecordingBus()
        metrics = MetricsRegistry()
        manager = _make_manager(bus=bus, metrics=metrics)
        finishes = []
        finish = manager._scheduler.finish
        manager._scheduler.finish = lambda tenant, job_id: (
            finishes.append(job_id), finish(tenant, job_id)
        )
        gate = RunnerGate("advance")
        manager.runner_gate = gate
        record = _submit(manager, manager.registry.public)
        manager.start()
        try:
            assert gate.reached.wait(10), "runner never reached the gate"
            assert manager.cancel(record.job_id) == (True, "")
        finally:
            gate.release.set()
            manager.stop()
        assert record.state == "cancelled"
        assert bus.names().count("job_end") == 1
        assert metrics.snapshot()["serve.jobs.cancelled"] == 1
        assert finishes == [record.job_id]

    def test_concurrent_cancels_end_each_job_once(self):
        """Stress: more cancelling threads than cores against a live
        runner, with a tiny switch interval.  Whatever wins each race,
        every job ends exactly once."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            bus = RecordingBus()
            metrics = MetricsRegistry()
            manager = _make_manager(bus=bus, metrics=metrics)
            records = [
                _submit(manager, manager.registry.public) for _ in range(6)
            ]
            manager.start()
            threads = [
                threading.Thread(
                    target=lambda r=record: [
                        manager.cancel(r.job_id) for _ in range(3)
                    ]
                )
                for record in records for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            deadline = time.monotonic() + 30
            while any(r.state not in ("done", "cancelled") for r in records):
                assert time.monotonic() < deadline, "jobs never ended"
                time.sleep(0.01)
            manager.stop()
        finally:
            sys.setswitchinterval(previous)
        ends = [f["job_id"] for e, f in bus.events if e == "job_end"]
        assert sorted(ends) == sorted(r.job_id for r in records)
        snapshot = metrics.snapshot()
        ended = sum(
            snapshot[name] for name in
            ("serve.jobs.done", "serve.jobs.cancelled") if name in snapshot
        )
        assert ended == len(records)
        assert manager._scheduler.pending() == 0

    def test_terminal_states_are_final(self):
        manager = _make_manager()
        record = _submit(manager, manager.registry.public)
        assert manager._transition(record, "cancelled")
        for state in ("queued", "running", "done", "failed", "cancelled"):
            assert not manager._transition(record, state)
        assert record.state == "cancelled"

    def test_analytical_jobs_skip_the_point_walk(self):
        manager = _make_manager()
        record = _submit(manager, manager.registry.public,
                         mode="analytical")
        record.points_total = 4
        _quantum(manager)  # -> running, empty pending
        _quantum(manager)  # straight to assembly
        assert record.state == "done"
        assert record.points_done == record.points_total


class TestJobManagerFairShare:
    def test_weighted_tenants_complete_points_in_ratio(self):
        """Two saturating tenants with 1:3 weights advance 1:3 (the
        ISSUE acceptance bound is +/-20%)."""
        registry = TenantRegistry([
            Tenant(name="heavy", api_key="kh", weight=3.0),
            Tenant(name="light", api_key="kl", weight=1.0),
        ])
        manager = _make_manager(registry=registry)
        for _ in range(3):  # 3 x 20 points each: both stay saturated
            _submit(manager, registry.get("heavy"), target="table5")
            _submit(manager, registry.get("light"), target="table5")

        def points(tenant):
            return sum(r.points_done for r in manager.list(tenant))

        while points("heavy") + points("light") < 40:
            assert _quantum(manager)
        ratio = points("heavy") / max(points("light"), 1)
        assert 2.4 <= ratio <= 3.6, (points("heavy"), points("light"))


class TestJobStorePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        record = JobRecord(
            job_id="job-abc123def456",
            tenant="alice",
            sweep=SweepRequest("fig13", kernel="fft"),
            state="running",
            points_total=4,
            points_done=2,
            seq=7,
            submitted_unix=123.0,
            queue_wait_s=0.5,
        )
        store.save(record)
        loaded = store.load_all()
        assert len(loaded) == 1
        restored = loaded[0]
        assert restored.to_persist() == record.to_persist()

    def test_damaged_and_foreign_files_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        (tmp_path / "job-damaged.json").write_text("{not json")
        (tmp_path / "job-oldschema.json").write_text(
            json.dumps({"schema_version": 999, "job_id": "job-x"})
        )
        (tmp_path / "notes.txt").write_text("ignored")
        assert store.load_all() == []

    def test_v1_job_files_are_skipped(self, tmp_path):
        """Schema 1 files persisted the sweep with ``workers`` (API v5);
        schema 2 skips them instead of failing to parse them."""
        from repro.serve.jobs import STORE_SCHEMA_VERSION

        assert STORE_SCHEMA_VERSION == 2
        store = JobStore(tmp_path)
        record = JobRecord(job_id="job-v1", tenant="public",
                           sweep=SweepRequest("fig13", kernel="fft"))
        old = dict(record.to_persist(), schema_version=1)
        old["sweep"] = dict(old["sweep"], workers=None)
        (tmp_path / "job-v1.json").write_text(json.dumps(old))
        assert store.load_all() == []
        store.save(record)
        assert [r.job_id for r in store.load_all()] == ["job-v1"]

    def test_memory_only_store_is_noop(self):
        store = JobStore(None)
        assert not store.enabled
        store.save(JobRecord(job_id="job-x", tenant="public",
                             sweep=SweepRequest("fig13")))
        assert store.load_all() == []

    def test_restart_requeues_interrupted_jobs(self, tmp_path):
        manager = _make_manager(tmp_path=tmp_path)
        interrupted = _submit(manager, manager.registry.public)
        _quantum(manager)  # -> running
        _quantum(manager)  # one point lands on disk
        assert interrupted.state == "running"
        finished = _submit(manager, manager.registry.public)

        revived = _make_manager(tmp_path=tmp_path)
        revived.start()
        try:
            record = revived.get(interrupted.job_id)
            deadline = time.monotonic() + 30.0
            while record.state != "done" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert record.state == "done"
            # Interrupted progress was discarded and re-walked, not
            # trusted: points_done was reset at restore time.
            assert record.points_done == record.points_total
            # The job that never started is restored as queued too.
            assert revived.get(finished.job_id) is not None
        finally:
            revived.stop()


# --- route semantics ----------------------------------------------------


@contextlib.contextmanager
def running_server(**overrides):
    """An in-process daemon on an ephemeral port, drained on exit."""
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


@pytest.fixture()
def no_checkpoint(monkeypatch):
    """Job execution must not attach a checkpoint to the global engine
    during in-process tests (state would leak across the suite)."""
    monkeypatch.setenv("REPRO_SWEEP_CHECKPOINT", "off")
    from repro.analysis.sweep import default_engine

    engine = default_engine()
    previous = engine.checkpoint
    engine.configure_checkpoint(None)
    yield
    engine.configure_checkpoint(previous)


@pytest.fixture(scope="module")
def tenants_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tenants") / "tenants.json"
    path.write_text(json.dumps({
        "tenants": [
            {"name": "alice", "api_key": "key-alice", "weight": 3.0},
            {"name": "bob", "api_key": "key-bob", "weight": 1.0,
             "rate_per_s": 0.001, "burst": 1.0},
            {"name": "carol", "api_key": "key-carol",
             "quota_points": 5},
        ]
    }))
    return str(path)


class TestJobRoutesOpenMode:
    def test_job_result_byte_identical_to_sync_sweep(
        self, no_checkpoint
    ):
        sweep = SweepRequest("fig13", mode="analytical", kernel="fft")
        oracle = execute(sweep)
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                submitted = client.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                assert submitted.status == 202
                assert submitted.payload["kind"] == "job"
                job_id = submitted.data["job_id"]
                assert submitted.data["state"] == "queued"

                final = client.wait_job(job_id, timeout_s=60)
                assert final.data["state"] == "done"
                assert final.data["points_done"] == 4

                result = client.job_result(job_id)
                assert result.status == 200
                assert _canonical(result.data["result"]) \
                    == oracle.to_json()
                assert "queue_wait_ms" in result.payload["meta"]
                assert "run_ms" in result.payload["meta"]

    def test_simulated_job_walks_points_and_matches_sync(
        self, no_checkpoint
    ):
        sweep = SweepRequest("fig13", kernel="fft")
        oracle = execute(sweep)
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                submitted = client.submit_job("fig13", kernel="fft")
                assert submitted.status == 202
                job_id = submitted.data["job_id"]
                final = client.wait_job(job_id, timeout_s=120)
                assert final.data["state"] == "done"
                result = client.job_result(job_id)
                assert _canonical(result.data["result"]) \
                    == oracle.to_json()
        # The per-point walk really happened.
        snapshot = server.metrics.snapshot().as_dict()
        assert snapshot.get("serve.jobs.points", 0) >= 4

    def test_invalid_sweep_rejected_with_pointer(self, no_checkpoint):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                response = client.request(
                    "POST", "/v1/jobs",
                    {"sweep": {"target": "nonsense"}},
                )
                assert response.status == 400
                assert response.error["code"] == "bad_request"
                assert response.error["pointer"] == "/sweep"

    def test_result_before_done_is_conflict(self, no_checkpoint):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                submitted = client.submit_job("table5", kernel="fft")
                job_id = submitted.data["job_id"]
                response = client.job_result(job_id)
                if response.status == 200:  # tiny race: already done
                    return
                assert response.status == 409
                assert response.error["code"] == "conflict"
                client.cancel_job(job_id)

    def test_cancel_then_cancel_again_conflicts(self, no_checkpoint):
        with running_server() as server:
            # Hold the runner before the job's first point, so the
            # cancel always lands while the job is live.
            gate = RunnerGate("point")
            server.jobs.runner_gate = gate
            with ServeClient("127.0.0.1", server.port) as client:
                submitted = client.submit_job("table5", kernel="fft")
                job_id = submitted.data["job_id"]
                try:
                    assert gate.reached.wait(30), "runner never started"
                    first = client.cancel_job(job_id)
                finally:
                    gate.release.set()
                assert first.status == 200
                final = client.wait_job(job_id, timeout_s=30)
                assert final.data["state"] == "cancelled"
                second = client.cancel_job(job_id)
                assert second.status == 409
                assert second.error["code"] == "conflict"

    def test_events_stream_ends_with_job_end(self, no_checkpoint):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                submitted = client.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                job_id = submitted.data["job_id"]
                events = list(client.job_events(job_id, max_s=30))
                assert events, "stream yielded nothing"
                assert events[-1]["event"] == "job_end"
                assert events[-1]["state"] == "done"
                assert events[-1]["job_id"] == job_id

    def test_unknown_job_routes_are_not_found(self, no_checkpoint):
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.job_status("job-missing").status == 404
                response = client.request(
                    "GET", "/v1/jobs/job-x/bogus"
                )
                assert response.status == 404
                assert response.error["code"] == "not_found"


class TestJobRoutesClosedMode:
    def test_auth_and_isolation(self, no_checkpoint, tenants_file):
        with running_server(tenants_path=tenants_file) as server:
            port = server.port
            with ServeClient("127.0.0.1", port) as anonymous:
                response = anonymous.list_jobs()
                assert response.status == 401
                assert response.error["code"] == "unauthorized"
            with ServeClient("127.0.0.1", port,
                             api_key="wrong") as intruder:
                response = intruder.list_jobs()
                assert response.status == 403
                assert response.error["code"] == "forbidden"
            with ServeClient("127.0.0.1", port,
                             api_key="key-alice") as alice:
                submitted = alice.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                assert submitted.status == 202
                assert submitted.data["tenant"] == "alice"
                job_id = submitted.data["job_id"]
                assert alice.wait_job(job_id, 60).data["state"] == "done"
                mine = alice.list_jobs()
                assert [j["job_id"] for j in mine.data["jobs"]] \
                    == [job_id]
            with ServeClient("127.0.0.1", port,
                             api_key="key-carol") as carol:
                # Foreign jobs answer 404, not 403: job ids are
                # capabilities and existence is information.
                assert carol.job_status(job_id).status == 404
                assert carol.job_result(job_id).status == 404
                assert carol.cancel_job(job_id).status == 404
                assert carol.list_jobs().data["jobs"] == []

    def test_rate_limit_and_quota_envelopes(
        self, no_checkpoint, tenants_file
    ):
        with running_server(tenants_path=tenants_file) as server:
            port = server.port
            with ServeClient("127.0.0.1", port, api_key="key-bob",
                             backpressure_retries=0) as bob:
                first = bob.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                assert first.status == 202
                second = bob.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                assert second.status == 429
                assert second.error["code"] == "rate_limited"
                assert second.retry_after is not None
            with ServeClient("127.0.0.1", port,
                             api_key="key-carol") as carol:
                # fig13/fft is 4 points against carol's quota of 5 —
                # one fits, the next must not, and the rejection names
                # the offending field.
                first = carol.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                assert first.status == 202
                second = carol.submit_job(
                    "fig13", mode="analytical", kernel="fft"
                )
                assert second.status == 403
                assert second.error["code"] == "quota_exceeded"
                assert second.error["pointer"] == "/sweep"
            snapshot = server.metrics.snapshot().as_dict()
            assert snapshot["serve.jobs.rejected.rate_limited"] == 1
            assert snapshot["serve.jobs.rejected.quota_exceeded"] == 1

    def test_progress_replay_is_tenant_namespaced(
        self, no_checkpoint, tenants_file
    ):
        with running_server(tenants_path=tenants_file) as server:
            port = server.port
            with ServeClient("127.0.0.1", port,
                             api_key="key-alice") as alice:
                response = alice.costs(8, 5, request_id="alice-rid-01")
                assert response.status == 200

            def replay(api_key):
                client = ServeClient("127.0.0.1", port, api_key=api_key)
                try:
                    return list(client.progress(
                        request_id="alice-rid-01", max_s=2.0
                    ))
                finally:
                    client.close()

            mine = replay("key-alice")
            assert any(
                e.get("event") == "request_end" and e.get("replay")
                for e in mine
            )
            # Another tenant replaying the same id sees nothing.
            assert replay("key-carol") == []


class TestRemovedRoutes:
    def test_singular_sweep_route_is_not_found(self, no_checkpoint):
        """API v6 removed the ``/v1/sweep`` alias that v5 deprecated;
        ``/v1/sweeps`` (and the client's ``"sweep"`` kind) still work."""
        with running_server() as server:
            with ServeClient("127.0.0.1", server.port) as client:
                body = SweepRequest("fig13", mode="analytical",
                                    kernel="fft").to_dict()
                old = client.request("POST", "/v1/sweep", body)
                new = client.request("POST", "/v1/sweeps", body)
                via_kind = client.post("sweep", body)
                assert old.status == 404
                assert old.error["code"] == "not_found"
                assert "deprecation" not in old.headers
                assert new.status == via_kind.status == 200
                assert "deprecation" not in new.headers
                assert _canonical(new.data) == _canonical(via_kind.data)


# --- crash resume -------------------------------------------------------


class TestJobCrashResume:
    def test_sigkill_mid_sweep_resumes_byte_identical(self, tmp_path):
        """Kill -9 a daemon mid-job; the restarted daemon re-queues the
        job from the store, replays the checkpoint, and finishes with a
        result byte-identical to the in-process oracle."""
        sweep = SweepRequest("table5", kernel="fft")
        oracle = execute(sweep)

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Cold caches in tmp: points take real work (kill lands
        # mid-run) and both durability layers live where we can see
        # them.
        env["REPRO_COMPILE_CACHE_DIR"] = str(tmp_path / "cache")
        env["REPRO_SWEEP_CHECKPOINT_DIR"] = str(tmp_path / "ckpt")
        env["REPRO_JOB_DIR"] = str(tmp_path / "jobs")

        def boot():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            ready = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", ready)
            assert match, f"no ready line: {ready!r}"
            return proc, int(match.group(1))

        proc, port = boot()
        job_id = None
        try:
            with ServeClient("127.0.0.1", port) as client:
                submitted = client.submit_job("table5", kernel="fft")
                assert submitted.status == 202
                job_id = submitted.data["job_id"]
                # Kill as soon as real progress exists but (almost
                # certainly) before the 20-point sweep finishes.
                deadline = time.monotonic() + 120.0
                while time.monotonic() < deadline:
                    status = client.job_status(job_id).data
                    if status["points_done"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    pytest.fail("job never made progress")
            proc.send_signal(signal.SIGKILL)
            proc.communicate(timeout=30)

            # Durability on disk: the job file and at least one
            # checkpointed point survived the kill.
            job_files = list((tmp_path / "jobs").glob("job-*.json"))
            assert job_files, "no persisted job file"
            assert any((tmp_path / "ckpt").rglob("*")), \
                "no checkpointed points"

            proc, port = boot()
            with ServeClient("127.0.0.1", port) as client:
                final = client.wait_job(job_id, timeout_s=300,
                                        poll_s=0.1)
                assert final.data["state"] == "done", final.payload
                assert final.data["points_done"] == \
                    final.data["points_total"]
                result = client.job_result(job_id)
                assert result.status == 200
                assert _canonical(result.data["result"]) \
                    == oracle.to_json()
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
