"""Tests for the fault-injection and resilient-execution layer.

Covers the :mod:`repro.resilience` package directly — plan semantics,
executor recovery ladders, checkpoint storage — plus the regression
guarantees the satellites demand: interrupts are never retried, and the
sweep/compile fan-out paths propagate them instead of degrading.
The end-to-end chaos runs (faults injected under real sweeps) live in
``tests/test_chaos.py``.
"""

import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import SweepEngine
from repro.compiler import clear_cache
from repro.compiler.pipeline import compile_batch
from repro.core.config import ProcessorConfig
from repro.kernels.suite import get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    ResilientExecutor,
    SweepCheckpoint,
    clear_plan,
    install_plan,
)
from repro.resilience import faults as faults_module
from repro.resilience.checkpoint import (
    SCHEMA_VERSION,
    default_checkpoint_root,
)

#: The directory a checkpoint keeps its current-schema entries in.
ENTRIES = f"v{SCHEMA_VERSION}"


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Fault plans are process-global: always start and end clean."""
    clear_plan()
    yield
    clear_plan()


# --- picklable task functions for pool tests ---------------------------


def _double(x):
    return 2 * x


def _faulty_double(x):
    """Worker body with its own (glob-matched) fault site."""
    faults_module.fault_point("sweep.point")
    return 2 * x


def _interrupt(x):
    raise KeyboardInterrupt


def _exit(x):
    raise SystemExit(5)


def _flaky_value_error(x):
    raise ValueError(f"always broken: {x}")


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule(site="sweep.point", kind="transient", at=(0, 2)),
                FaultRule(site="cache.*", kind="corrupt", probability=0.5),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="sweep.point", kind="meltdown")

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="sweep.typo", kind="transient")

    def test_glob_site_allowed(self):
        rule = FaultRule(site="cache.*", kind="corrupt", at=(0,))
        assert rule.matches("cache.load")
        assert rule.matches("cache.store")
        assert not rule.matches("sweep.point")

    def test_probability_bounds_checked(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="sim.run", kind="transient", probability=1.5)

    def test_at_indices_fire_exactly(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(1, 3)),)
        )
        decisions = [plan.decide("sim.run", i) for i in range(5)]
        assert [d is not None for d in decisions] == [
            False, True, False, True, False,
        ]

    def test_decide_is_pure(self):
        plan = FaultPlan(
            seed=7,
            rules=(
                FaultRule(
                    site="sweep.point", kind="transient", probability=0.3
                ),
            ),
        )
        first = [plan.decide("sweep.point", i) for i in range(64)]
        second = [plan.decide("sweep.point", i) for i in range(64)]
        assert first == second
        assert any(d is not None for d in first)
        assert any(d is None for d in first)

    def test_different_seeds_differ(self):
        rule = FaultRule(
            site="sweep.point", kind="transient", probability=0.5
        )
        a = FaultPlan(seed=1, rules=(rule,))
        b = FaultPlan(seed=2, rules=(rule,))
        fires_a = [a.decide("sweep.point", i) is not None for i in range(64)]
        fires_b = [b.decide("sweep.point", i) is not None for i in range(64)]
        assert fires_a != fires_b

    def test_env_adoption(self):
        plan = FaultPlan(
            seed=3,
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),),
        )
        os.environ[faults_module.PLAN_ENV] = plan.to_json()
        faults_module._ENV_CHECKED = False  # as a fresh process would be
        try:
            assert faults_module.active_plan() == plan
        finally:
            clear_plan()

    def test_active_injector_exposed(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(9,)),)
        )
        injector = install_plan(plan)
        assert faults_module.active_injector() is injector
        assert faults_module.active_plan() == plan

    def test_garbage_env_plan_ignored(self):
        os.environ[faults_module.PLAN_ENV] = "{not json"
        faults_module._ENV_CHECKED = False
        try:
            assert faults_module.active_plan() is None
        finally:
            clear_plan()

    def test_fault_point_checks_env_lazily(self):
        plan = FaultPlan(
            rules=(FaultRule(site="sim.run", kind="transient", at=(0,)),)
        )
        os.environ[faults_module.PLAN_ENV] = plan.to_json()
        faults_module._ENV_CHECKED = False
        faults_module._INJECTOR = None
        try:
            with pytest.raises(InjectedFault):
                faults_module.fault_point("sim.run")
        finally:
            clear_plan()

    def test_corrupt_empty_file_is_noop(self, tmp_path):
        target = tmp_path / "empty"
        target.write_bytes(b"")
        faults_module._corrupt_file(target)
        assert target.read_bytes() == b""

    def test_injector_counts_fires_and_respects_max(self):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="sim.run", kind="transient", at=(0, 1), max_fires=1
                ),
            )
        )
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.fire("sim.run")
        injector.fire("sim.run")  # capped by max_fires: no raise
        injector.fire("sim.run")  # index 2: rule does not match
        assert injector.fired == [("sim.run", 0, "transient")]


# Hypothesis: a plan's injected-fault schedule is a pure function of
# (plan, site, index) — the cross-process determinism the chaos suite
# leans on (workers rebuild the plan from REPRO_FAULT_PLAN and replay
# identical decisions).
_rules = st.builds(
    FaultRule,
    site=st.sampled_from(sorted(FAULT_SITES)),
    kind=st.sampled_from(("transient", "hang", "oom")),
    at=st.lists(st.integers(0, 15), max_size=3).map(tuple),
    probability=st.floats(0.0, 1.0, allow_nan=False),
    hang_seconds=st.just(0.0),
)
_plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**32),
    rules=st.lists(_rules, max_size=4).map(tuple),
)


class TestFaultPlanProperties:
    @given(plan=_plans, site=st.sampled_from(sorted(FAULT_SITES)))
    @settings(max_examples=60, deadline=None)
    def test_decisions_survive_json_round_trip(self, plan, site):
        clone = FaultPlan.from_json(plan.to_json())
        for index in range(32):
            assert plan.decide(site, index) == clone.decide(site, index)

    @given(plan=_plans)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_independent_injectors_fire_identically(self, plan):
        """Two processes replaying the same call sequence inject the
        same faults (simulated here with two fresh injectors)."""
        sequence = [(site, i) for site in sorted(FAULT_SITES)
                    for i in range(8)]

        def replay():
            injector = FaultInjector(plan)
            for site, _ in sequence:
                try:
                    injector.fire(site)
                except (InjectedFault, MemoryError):
                    pass
            return injector.fired

        assert replay() == replay()


class TestResilientExecutor:
    def test_serial_map(self):
        executor = ResilientExecutor(1)
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert executor.stats()["tasks_ok"] == 3
        assert executor.stats()["retries"] == 0

    def test_empty_map(self):
        assert ResilientExecutor(4).map(_double, []) == []

    def test_pooled_map_clean(self):
        executor = ResilientExecutor(2, timeout=60)
        assert executor.map(_double, list(range(6))) == [
            0, 2, 4, 6, 8, 10,
        ]
        stats = executor.stats()
        assert stats["tasks_ok"] == 6
        assert stats["pool_failures"] == 0

    def test_transient_fault_retried_in_pool(self):
        install_plan(FaultPlan(rules=(
            FaultRule(site="sweep.point", kind="transient", at=(0,)),
        )))
        metrics = MetricsRegistry()
        executor = ResilientExecutor(2, timeout=60, metrics=metrics)
        assert executor.map(_faulty_double, [5]) == [10]
        stats = executor.stats()
        assert stats["retries"] >= 1
        assert stats["tasks_ok"] == 1
        snapshot = metrics.snapshot()
        assert snapshot["resilience.retries"] == stats["retries"]

    def test_oom_fault_retried(self):
        install_plan(FaultPlan(rules=(
            FaultRule(site="sweep.point", kind="oom", at=(0,)),
        )))
        executor = ResilientExecutor(2, timeout=60)
        assert executor.map(_faulty_double, [5]) == [10]
        assert executor.stats()["retries"] >= 1

    def test_crash_breaks_pool_then_recovers(self):
        # Every fresh worker dies on its first task; after the pool
        # budget burns out the serial path (workers_only keeps it
        # fault-free) finishes the work.
        install_plan(FaultPlan(rules=(
            FaultRule(
                site="sweep.point", kind="crash", at=(0,),
                workers_only=True,
            ),
        )))
        executor = ResilientExecutor(2, timeout=60, max_pool_failures=1)
        assert executor.map(_faulty_double, [1, 2]) == [2, 4]
        stats = executor.stats()
        assert stats["pool_failures"] >= 2
        assert stats["serial_fallbacks"] == 1
        assert stats["quarantined_workers"] >= 1
        assert stats["tasks_ok"] == 2

    def test_hang_times_out_then_recovers(self):
        # Every fresh worker sleeps 2s on its first task; with a 0.3s
        # budget the executor must declare it hung, quarantine the
        # pool, and eventually escalate to the serial path.
        install_plan(FaultPlan(rules=(
            FaultRule(
                site="sweep.point", kind="hang", at=(0,),
                hang_seconds=2.0, workers_only=True,
            ),
        )))
        executor = ResilientExecutor(
            2, timeout=0.3, max_retries=1, backoff_base=0.0
        )
        assert executor.map(_faulty_double, [7]) == [14]
        stats = executor.stats()
        assert stats["timeouts"] >= 1
        assert stats["tasks_ok"] == 1
        assert stats["quarantined_workers"] >= 1

    def test_persistent_failure_raises_last_error(self):
        executor = ResilientExecutor(1, max_retries=1, backoff_base=0.0)
        with pytest.raises(ValueError, match="always broken"):
            executor.map(_flaky_value_error, [9])
        stats = executor.stats()
        assert stats["retries"] == 2  # initial + one retry
        assert stats["tasks_failed"] == 1

    def test_keyboard_interrupt_never_retried_serial(self):
        executor = ResilientExecutor(1)
        with pytest.raises(KeyboardInterrupt):
            executor.map(_interrupt, [1])
        assert executor.stats()["retries"] == 0

    def test_system_exit_never_retried_serial(self):
        executor = ResilientExecutor(1)
        with pytest.raises(SystemExit):
            executor.map(_exit, [1])
        assert executor.stats()["retries"] == 0

    def test_keyboard_interrupt_propagates_from_pool(self):
        executor = ResilientExecutor(2, timeout=60)
        with pytest.raises(KeyboardInterrupt):
            executor.map(_interrupt, [1, 2])
        assert executor.stats()["retries"] == 0

    def test_unbuildable_pool_degrades_to_serial(self, monkeypatch):
        """Platforms where no pool can be spawned at all: every build
        attempt counts a pool failure, then serial finishes the work."""
        import concurrent.futures

        def _no_pools(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pools
        )

        class _Recorder:
            enabled = True

            def __init__(self):
                self.labels = []

            def instant(self, resource, label, t, **detail):
                self.labels.append((resource, label))

        tracer = _Recorder()
        executor = ResilientExecutor(
            2, max_pool_failures=1, backoff_base=0.0, tracer=tracer
        )
        assert executor.map(_double, [1, 2, 3]) == [2, 4, 6]
        stats = executor.stats()
        assert stats["pool_failures"] == 2
        assert stats["serial_fallbacks"] == 1
        assert stats["tasks_ok"] == 3
        assert ("resilience", "serial fallback") in tracer.labels

    def test_crash_downgrades_outside_workers(self):
        # In the main process the crash kind must never os._exit.
        install_plan(FaultPlan(rules=(
            FaultRule(site="sim.run", kind="crash", at=(0,)),
        )))
        with pytest.raises(InjectedCrash):
            faults_module.fault_point("sim.run")


class _InterruptingExecutor:
    """Stand-in executor whose map raises KeyboardInterrupt."""

    def __init__(self, *args, **kwargs):
        pass

    def map(self, fn, items):
        raise KeyboardInterrupt

    def stats(self):
        return {}


class TestFanOutInterruptAudit:
    """The fan-out paths' broad ``except Exception`` recovery must not
    swallow interrupts into the degraded-serial path."""

    def test_sweep_fan_out_propagates_interrupt(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.sweep.ResilientExecutor",
            _InterruptingExecutor,
        )
        engine = SweepEngine()
        with pytest.raises(KeyboardInterrupt):
            engine.simulate_many(
                [("fft1k", ProcessorConfig(8, 5)),
                 ("fft1k", ProcessorConfig(16, 5))],
                workers=2,
            )

    def test_compile_fan_out_propagates_interrupt(self, monkeypatch):
        monkeypatch.setattr(
            "repro.resilience.executor.ResilientExecutor",
            _InterruptingExecutor,
        )
        clear_cache()
        jobs = [
            (get_kernel("fft"), ProcessorConfig(8, 5)),
            (get_kernel("dct"), ProcessorConfig(8, 5)),
        ]
        with pytest.raises(KeyboardInterrupt):
            compile_batch(jobs, workers=2)


class TestSweepCheckpoint:
    def test_disabled_checkpoint_is_inert(self):
        checkpoint = SweepCheckpoint(None)
        checkpoint.store("rate", ("fft", 1), 2.5)
        assert list(checkpoint.entries()) == []
        assert not checkpoint.enabled

    def test_round_trip(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.store("rate", ("fft", "cfg"), 12.5)
        checkpoint.store("sim", ("fft1k", "cfg"), {"cycles": 99})
        entries = sorted(list(checkpoint.entries()))
        assert entries == [
            ("rate", ("fft", "cfg"), 12.5),
            ("sim", ("fft1k", "cfg"), {"cycles": 99}),
        ]
        assert checkpoint.stats()["writes"] == 2
        assert checkpoint.stats()["loads"] == 2

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown checkpoint kind"):
            SweepCheckpoint(tmp_path).store("bogus", "k", 1)

    def test_corrupt_entry_dropped_and_counted(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.store("rate", "a", 1.0)
        checkpoint.store("rate", "b", 2.0)
        victim = sorted((tmp_path / ENTRIES).glob("*.ckpt"))[0]
        data = victim.read_bytes()
        middle = len(data) // 2
        victim.write_bytes(
            data[:middle] + bytes([data[middle] ^ 0xFF]) + data[middle + 1:]
        )
        survivors = list(checkpoint.entries())
        assert len(survivors) == 1
        assert checkpoint.stats()["corrupt"] == 1
        assert not victim.exists()  # damaged file evicted

    def test_truncated_entry_dropped(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.store("rate", "a", 1.0)
        victim = next((tmp_path / ENTRIES).glob("*.ckpt"))
        victim.write_bytes(victim.read_bytes()[:10])
        assert list(checkpoint.entries()) == []
        assert checkpoint.stats()["corrupt"] == 1

    def test_atomic_store_leaves_no_temp_files(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        for i in range(5):
            checkpoint.store("rate", f"key{i}", float(i))
        leftovers = list((tmp_path / ENTRIES).glob(".tmp-*"))
        assert leftovers == []

    def test_clear(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        checkpoint.store("rate", "a", 1.0)
        checkpoint.clear()
        assert list(checkpoint.entries()) == []

    def test_default_root_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CHECKPOINT", "off")
        assert default_checkpoint_root() is None
        monkeypatch.setenv("REPRO_SWEEP_CHECKPOINT", "1")
        monkeypatch.setenv("REPRO_SWEEP_CHECKPOINT_DIR", "/tmp/ckpt-here")
        assert str(default_checkpoint_root()) == "/tmp/ckpt-here"
        monkeypatch.delenv("REPRO_SWEEP_CHECKPOINT_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg-cache")
        root = default_checkpoint_root()
        assert str(root).startswith("/tmp/xdg-cache")
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert default_checkpoint_root() is not None  # falls back to ~

    def test_metrics_mirroring(self, tmp_path):
        metrics = MetricsRegistry()
        checkpoint = SweepCheckpoint(tmp_path, metrics=metrics)
        checkpoint.store("rate", "a", 1.0)
        list(checkpoint.entries())
        assert metrics.counter("resilience.checkpoint.writes").value == 1
        assert metrics.counter("resilience.checkpoint.loads").value == 1

    def test_version_skewed_entry_dropped(self, tmp_path):
        import hashlib
        import json
        import pickle

        checkpoint = SweepCheckpoint(tmp_path)
        body = pickle.dumps({"kind": "rate", "key": "k", "value": 1.0})
        header = json.dumps({
            "version": 999,
            "kind": "rate",
            "checksum": hashlib.sha256(body).hexdigest(),
        }).encode()
        entry_dir = tmp_path / ENTRIES
        entry_dir.mkdir()
        (entry_dir / "stale.ckpt").write_bytes(header + b"\n" + body)
        assert list(checkpoint.entries()) == []
        assert checkpoint.stats()["corrupt"] == 1

    def test_header_body_kind_mismatch_dropped(self, tmp_path):
        import hashlib
        import json
        import pickle

        checkpoint = SweepCheckpoint(tmp_path)
        body = pickle.dumps({"kind": "rate", "key": "k", "value": 1.0})
        header = json.dumps({
            "version": 1,
            "kind": "sim",  # disagrees with the body
            "checksum": hashlib.sha256(body).hexdigest(),
        }).encode()
        entry_dir = tmp_path / ENTRIES
        entry_dir.mkdir()
        (entry_dir / "lied.ckpt").write_bytes(header + b"\n" + body)
        assert list(checkpoint.entries()) == []
        assert checkpoint.stats()["corrupt"] == 1

    def test_vanished_entry_counts_as_skipped(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        missing = tmp_path / ENTRIES / "gone.ckpt"
        assert checkpoint._decode(missing) is None
        assert checkpoint.stats()["skipped"] == 1

    def test_clear_tolerates_disabled_and_empty(self, tmp_path):
        SweepCheckpoint(None).clear()  # disabled: no-op
        SweepCheckpoint(tmp_path).clear()  # no entries yet: no-op


class TestSweepEngineCheckpointing:
    POINTS = [
        ("fft1k", ProcessorConfig(8, 5)),
        ("fft1k", ProcessorConfig(16, 5)),
        ("fft1k", ProcessorConfig(32, 5)),
        ("fft1k", ProcessorConfig(8, 10)),
    ]

    @pytest.fixture(scope="class")
    def gold(self):
        """The fault-free serial results (the bit-identity oracle)."""
        return SweepEngine().simulate_many(self.POINTS)

    def test_interrupted_sweep_resumes_without_recompute(
        self, tmp_path, gold
    ):
        first = SweepEngine(checkpoint=SweepCheckpoint(tmp_path))
        first.simulate_many(self.POINTS[:2])  # "interrupted" here

        second = SweepEngine(checkpoint=SweepCheckpoint(tmp_path))
        assert second.resume() == 2
        results = second.simulate_many(self.POINTS)
        assert results == gold
        # The two restored points were served from the checkpoint.
        assert second.stats()["sim_misses"] == len(self.POINTS) - 2

    def test_rate_points_checkpointed_too(self, tmp_path):
        config = ProcessorConfig(8, 5)
        first = SweepEngine(checkpoint=SweepCheckpoint(tmp_path))
        rate = first.kernel_rate("fft", config)
        # Schema v2: a rate is keyed by (kernel, config), no mode.
        assert [
            (kind, key) for kind, key, _ in SweepCheckpoint(tmp_path).entries()
        ] == [("rate", ("fft", config))]

        second = SweepEngine(checkpoint=SweepCheckpoint(tmp_path))
        assert second.resume() == 1
        assert second.kernel_rate("fft", config) == rate
        assert second.stats()["rate_misses"] == 0
        assert second.stats()["rate_hits"] == 1

    @given(prefix=st.integers(min_value=0, max_value=4))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_prefix_resumes_to_identical_result(
        self, prefix, tmp_path_factory, gold
    ):
        """Checkpoint round-trip property: whatever prefix of points a
        killed run managed to complete, the resumed run reproduces the
        full sweep bit-identically and recomputes only the suffix."""
        root = tmp_path_factory.mktemp("ckpt")
        checkpoint = SweepCheckpoint(root)
        writer = SweepEngine(checkpoint=checkpoint)
        writer.simulate_many(self.POINTS[:prefix])

        resumed = SweepEngine(checkpoint=SweepCheckpoint(root))
        assert resumed.resume() == prefix
        assert resumed.simulate_many(self.POINTS) == gold
        assert resumed.stats()["sim_misses"] == len(self.POINTS) - prefix
