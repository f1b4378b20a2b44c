"""Chaos suite: the paper's grids under injected faults.

Sweeps and batch compiles run in one process, so two layers can still
fail under them: storage (the schedule cache and sweep checkpoints)
and the serving daemon's batch pool (``repro serve --workers N``, a
:class:`repro.resilience.ResilientExecutor` over :mod:`repro.api`
requests).  Every test here runs a real figure-13-style kernel grid or
figure-15-style application points with a :mod:`repro.resilience`
fault plan active, and asserts two things:

* **bit-identity** — whenever the run succeeds, its results equal the
  fault-free serial oracle exactly (no "close enough" tolerance);
* **accounted recovery** — the retry/fallback counters match what the
  injected plan must have caused (exact where the plan is
  deterministic, lower-bounded where pool scheduling varies).

The pool tests map :func:`repro.api.execute` itself: the daemon maps
:func:`repro.api.safe_execute`, which hands a request's exception back
as an error outcome, so only crashes and hangs would reach the
executor's recovery ladder; mapping the runner lets transient and OOM
faults reach it too.

``REPRO_CHAOS_SEED`` reseeds the probabilistic plans (CI runs several
seeds); every assertion below must hold for *any* seed, which is the
point — recovery may take different paths, results may not differ.
"""

import os

import pytest

from repro.analysis.sweep import SweepEngine, clear_sweep_cache
from repro.api import CompileRequest, SimulateRequest, execute
from repro.compiler import (
    clear_cache,
    configure_default_cache,
    default_cache,
)
from repro.core.config import ProcessorConfig
from repro.kernels.suite import PERFORMANCE_SUITE
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    ResilientExecutor,
    SweepCheckpoint,
    clear_plan,
    install_plan,
)

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: Figure-13 cut: the kernel suite across intracluster scaling points.
FIG13_GRID = [
    (name, ProcessorConfig(8, n))
    for name in PERFORMANCE_SUITE
    for n in (5, 10)
]

#: Table-5 / figure-15 cut: applications across machine points.
APP_POINTS = [
    ("fft1k", ProcessorConfig(8, 5)),
    ("fft1k", ProcessorConfig(16, 5)),
    ("depth", ProcessorConfig(8, 5)),
]

#: The same two cuts as the requests a daemon's batch pool runs.
COMPILE_REQUESTS = [
    CompileRequest(name, config.clusters, config.alus_per_cluster)
    for name, config in FIG13_GRID
]
SIMULATE_REQUESTS = [
    SimulateRequest(application, config.clusters, config.alus_per_cluster)
    for application, config in APP_POINTS
]


@pytest.fixture(scope="module")
def gold_rates():
    """Fault-free kernel rates (values independent of cache state)."""
    return SweepEngine().compile_kernels(FIG13_GRID)


@pytest.fixture(scope="module")
def gold_sims():
    """Fault-free serial application results — the identity oracle."""
    return SweepEngine().simulate_many(APP_POINTS)


@pytest.fixture(scope="module")
def gold_compiles():
    """Fault-free compile results for the pooled grid."""
    return [execute(request) for request in COMPILE_REQUESTS]


@pytest.fixture(scope="module")
def gold_simulates():
    """Fault-free simulate results for the pooled points."""
    return [execute(request) for request in SIMULATE_REQUESTS]


@pytest.fixture(autouse=True)
def _chaos_sandbox(tmp_path):
    """Each test: no leaked plan, cold compile and sweep memos, private
    disk cache (so pooled requests really compute in the workers
    instead of hitting warm caches)."""
    clear_plan()
    clear_cache()
    clear_sweep_cache()
    configure_default_cache(cache_dir=tmp_path / "schedules")
    yield
    clear_plan()
    clear_cache()
    clear_sweep_cache()
    configure_default_cache()  # back to the env-configured default


def _pool(**kwargs) -> ResilientExecutor:
    """A two-worker pool, the daemon's ``--workers 2``."""
    return ResilientExecutor(2, **kwargs)


class TestCompileChaos:
    def test_transient_faults_grid_bit_identical(self, gold_compiles):
        """Probabilistic transient failures in compile workers: every
        task retries to success and the grid matches the oracle."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.kernel", kind="transient",
                      probability=0.35, max_fires=40, workers_only=True),
        )))
        metrics = MetricsRegistry()
        pool = _pool(timeout=120, metrics=metrics)
        assert pool.map(execute, COMPILE_REQUESTS) == gold_compiles
        # Every grid point was ultimately produced by the pool ladder
        # (retried, escalated serially, or clean) — none lost.
        assert metrics.counter("resilience.tasks_ok").value == len(
            FIG13_GRID
        )
        assert pool.stats()["tasks_failed"] == 0

    def test_oom_storm_degrades_to_serial_compiles(self, gold_compiles):
        """Allocation failure on *every* pooled compile: each task burns
        its retries in the pool, then the in-process serial path (which
        ``workers_only`` keeps fault-free) builds the exact grid."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.kernel", kind="oom", probability=1.0,
                      workers_only=True),
        )))
        pool = _pool(timeout=120, max_retries=1, backoff_base=0.0)
        assert pool.map(execute, COMPILE_REQUESTS) == gold_compiles
        stats = pool.stats()
        assert stats["serial_fallbacks"] == len(FIG13_GRID)
        assert stats["retries"] >= 2 * len(FIG13_GRID)
        assert stats["tasks_ok"] == len(FIG13_GRID)
        assert stats["tasks_failed"] == 0


class TestSweepChaos:
    def test_crashing_workers_exact_recovery_ladder(self, gold_simulates):
        """Every fresh worker dies on its first walk.  The plan is fully
        deterministic, so the ladder is too: three broken pools burn the
        budget (max_pool_failures=2), then one serial fallback — which
        the ``workers_only`` restriction keeps fault-free — finishes."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="sim.run", kind="crash", at=(0,),
                      workers_only=True),
        )))
        pool = _pool(timeout=120)
        assert pool.map(execute, SIMULATE_REQUESTS) == gold_simulates
        stats = pool.stats()
        assert stats["pool_failures"] == 3
        assert stats["serial_fallbacks"] == 1
        assert stats["tasks_ok"] == len(APP_POINTS)
        assert stats["tasks_failed"] == 0
        assert stats["quarantined_workers"] >= 2

    def test_hung_workers_time_out_and_recover(self, gold_simulates):
        """First walk of every fresh worker stalls past the task
        timeout; the executor quarantines the pool and the results
        still match the oracle exactly."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="sim.run", kind="hang", at=(0,),
                      hang_seconds=30.0, workers_only=True),
        )))
        pool = _pool(timeout=0.5, max_retries=1)
        assert pool.map(execute, SIMULATE_REQUESTS) == gold_simulates
        stats = pool.stats()
        assert stats["timeouts"] >= 1
        assert stats["quarantined_workers"] >= 1
        assert stats["tasks_ok"] == len(APP_POINTS)
        assert stats["tasks_failed"] == 0

    def test_transient_sweep_faults_bit_identical(self, gold_simulates):
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            # workers_only keeps the serial escalation path fault-free,
            # so every task completes no matter what the seed draws.
            FaultRule(site="sim.run", kind="transient",
                      probability=0.5, max_fires=10, workers_only=True),
        )))
        pool = _pool(timeout=120)
        assert pool.map(execute, SIMULATE_REQUESTS) == gold_simulates
        assert pool.stats()["tasks_ok"] == len(APP_POINTS)


class TestStorageChaos:
    def test_corrupt_cache_entries_are_recompiled(self, gold_rates):
        """Every schedule-cache write is bit-flipped on disk the moment
        it lands.  A later cold process must detect the damage via the
        checksum and recompile — same rates, never a wrong schedule."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="cache.store", kind="corrupt",
                      probability=1.0),
        )))
        first = SweepEngine()
        assert first.compile_kernels(FIG13_GRID) == gold_rates

        # Fresh-process view: cold memo, same (damaged) disk cache.
        clear_plan()
        clear_cache()
        engine = SweepEngine()
        assert engine.compile_kernels(FIG13_GRID) == gold_rates
        cache_stats = default_cache().stats()
        assert cache_stats["misses"] >= len(FIG13_GRID)
        assert cache_stats["evictions"] >= len(FIG13_GRID)

    def test_corrupt_cache_reads_fall_back_to_recompile(self, gold_rates):
        """Damage injected at read time (disk rot): same contract."""
        SweepEngine().compile_kernels(FIG13_GRID)  # populate the cache
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="cache.load", kind="corrupt",
                      probability=1.0),
        )))
        clear_cache()
        assert SweepEngine().compile_kernels(FIG13_GRID) == gold_rates

    def test_corrupt_checkpoint_entry_recomputed_on_resume(
        self, tmp_path, gold_sims
    ):
        """A checkpointed sweep whose first entry rots on disk resumes
        the intact points and recomputes only the damaged one — final
        results identical to the oracle."""
        writer = SweepEngine(
            checkpoint=SweepCheckpoint(tmp_path / "ckpt")
        )
        assert writer.simulate_many(APP_POINTS) == gold_sims

        # The first entry read during resume gets bit-flipped.
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="checkpoint.load", kind="corrupt", at=(0,)),
        )))
        resumed = SweepEngine(
            checkpoint=SweepCheckpoint(tmp_path / "ckpt")
        )
        assert resumed.resume() == len(APP_POINTS) - 1
        assert resumed.checkpoint.stats()["corrupt"] == 1
        clear_plan()
        assert resumed.simulate_many(APP_POINTS) == gold_sims
        assert resumed.stats()["sim_misses"] == 1

    def test_checkpointed_chaos_sweep_resumes_identically(
        self, tmp_path, gold_sims
    ):
        """End-to-end: a checkpointing sweep dies on a fault at its last
        point; a clean resume restores every point that landed and
        recomputes only the one that did not."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="sim.run", kind="transient",
                      at=(len(APP_POINTS) - 1,)),
        )))
        chaotic = SweepEngine(
            checkpoint=SweepCheckpoint(tmp_path / "ckpt")
        )
        with pytest.raises(InjectedFault):
            chaotic.simulate_many(APP_POINTS)

        clear_plan()
        resumed = SweepEngine(
            checkpoint=SweepCheckpoint(tmp_path / "ckpt")
        )
        assert resumed.resume() == len(APP_POINTS) - 1
        assert resumed.simulate_many(APP_POINTS) == gold_sims
        assert resumed.stats()["sim_misses"] == 1


class TestEveryFaultKindAtOnce:
    def test_mixed_plan_full_sweep_bit_identical(
        self, gold_compiles, gold_simulates
    ):
        """One plan wielding every fault kind across both grid shapes
        on the batch pool; results must still match the oracle bit for
        bit."""
        install_plan(FaultPlan(seed=CHAOS_SEED, rules=(
            FaultRule(site="compile.kernel", kind="transient",
                      probability=0.25, max_fires=20, workers_only=True),
            FaultRule(site="compile.kernel", kind="oom",
                      probability=0.1, max_fires=5, workers_only=True),
            FaultRule(site="sim.run", kind="crash", at=(0,),
                      workers_only=True),
            FaultRule(site="sim.run", kind="hang", at=(1,),
                      hang_seconds=30.0, workers_only=True),
            FaultRule(site="cache.store", kind="corrupt",
                      probability=0.5),
        )))
        pool = _pool(
            metrics=MetricsRegistry(), timeout=0.5, max_retries=1
        )
        assert pool.map(execute, COMPILE_REQUESTS) == gold_compiles
        assert pool.map(execute, SIMULATE_REQUESTS) == gold_simulates
        assert pool.stats()["tasks_failed"] == 0
