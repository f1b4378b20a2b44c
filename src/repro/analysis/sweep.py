"""Memoized sweep engine for design-space studies.

Every performance regeneration walks the same ``(application, config)``
and ``(kernel, config)`` grids: Figures 13/14 compile the six suite
kernels across configurations, Table 5 compiles them again, Figure 15
simulates the six applications over a ``C x N`` grid, the harmonic-mean
speedups re-simulate the C=8/N=5 baseline, and ``validate`` runs all of
the above.  The engine gives those studies one shared, keyed memo cache
(simulation results and kernel rates), so each distinct point is paid
for exactly once per process.  Every grid runs in the calling process:
on the one cached timing engine the largest grid takes under a second,
and a process pool of two measured no faster (``docs/performance.md``,
section 5).

Instrumentation rides on the PR-1 observability layer: the engine's
:class:`~repro.obs.profile.PhaseProfiler` accumulates per-point wall
time and a :class:`~repro.obs.metrics.MetricsRegistry` (optional)
counts cache hits/misses and observes per-point latency histograms —
the raw material for the "profile a slow sweep" recipe in
``docs/performance.md``.

Resilience rides on :mod:`repro.resilience`: an optional
:class:`~repro.resilience.checkpoint.SweepCheckpoint` persists every
completed point so an interrupted sweep resumes without recomputation,
and a resumed sweep is bit-identical to an uninterrupted one.

The module-level :func:`default_engine` is what the public functions in
:mod:`repro.analysis.perf` share; library users embedding sweeps can
instantiate private engines with their own instrumentation.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.cache import default_cache
from ..compiler.pipeline import compile_batch, compile_kernel
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..kernels.suite import get_kernel
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..obs.progress import ProgressBus, default_bus
from ..resilience.checkpoint import SweepCheckpoint
from ..sim.engine import Recorder
from ..sim.metrics import SimulationResult
from .model import EXECUTION_MODES, check_mode, evaluate

__all__ = [
    "EXECUTION_MODES",
    "SweepEngine",
    "SweepPoint",
    "clear_sweep_cache",
    "default_engine",
    "plan_shards",
]

#: One application-simulation grid point: ``(application, config)``.
SweepPoint = Tuple[str, ProcessorConfig]

_SimKey = Tuple[str, ProcessorConfig, TechnologyNode, float, str]


class SweepEngine:
    """Shared memo cache for application points and kernel rates.

    Parameters
    ----------
    profiler:
        Receives ``sweep.simulate`` / ``sweep.kernel_rate`` wall-time
        phases (one fresh profiler per engine by default).
    metrics:
        Optional registry; when present the engine counts
        ``sweep.sim.{hits,misses}`` / ``sweep.rate.{hits,misses}`` and
        observes a ``sweep.point_seconds`` histogram per cold point.
    checkpoint:
        Optional :class:`~repro.resilience.checkpoint.SweepCheckpoint`;
        when enabled every completed point is persisted as it lands and
        :meth:`resume` replays a prior run's points into the memo
        caches with zero recomputation.
    progress:
        The :class:`~repro.obs.progress.ProgressBus` per-point
        completion events go to (the shared :func:`default_bus` unless
        a private one is injected, e.g. by tests).  Publishing is free
        when nothing subscribes, so batch runs are unaffected.
    """

    def __init__(
        self,
        profiler: Optional[PhaseProfiler] = None,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint: Optional[SweepCheckpoint] = None,
        progress: Optional[ProgressBus] = None,
    ):
        self.profiler = profiler if profiler is not None else PhaseProfiler()
        self.metrics = metrics
        self.checkpoint = checkpoint
        self._progress = progress
        #: Reentrant guard: the serving daemon (and any threaded
        #: embedder) may drive one shared engine from several threads;
        #: holding the lock across a cold point also means concurrent
        #: identical queries compute once, not twice.
        self._lock = threading.RLock()
        self._sim_cache: Dict[_SimKey, SimulationResult] = {}
        self._rate_cache: Dict[Tuple[str, ProcessorConfig], float] = {}
        self.sim_hits = 0
        self.sim_misses = 0
        self.rate_hits = 0
        self.rate_misses = 0
        if metrics is not None:
            # Surface the persistent schedule store's counters alongside
            # the engine's own (compile_cache.{hits,misses,...}).
            default_cache().attach_metrics(metrics)
            if checkpoint is not None:
                checkpoint.attach_metrics(metrics)

    # --- bookkeeping ---------------------------------------------------

    def clear(self) -> None:
        """Drop every cached result (hit/miss statistics survive)."""
        with self._lock:
            self._sim_cache.clear()
            self._rate_cache.clear()

    # --- checkpointing --------------------------------------------------

    def configure_checkpoint(
        self, checkpoint: Optional[SweepCheckpoint]
    ) -> None:
        """Attach (or detach, with ``None``) a sweep checkpoint."""
        self.checkpoint = checkpoint
        if checkpoint is not None and self.metrics is not None:
            checkpoint.attach_metrics(self.metrics)

    def resume(self) -> int:
        """Replay the checkpoint's completed points into the memo
        caches; returns how many points were restored.

        A resumed point is the pickled result the interrupted run
        computed — bit-identical to recomputing it — so a resumed sweep
        finishes with zero recomputation of restored points (damaged
        entries are dropped and simply recomputed).
        """
        if self.checkpoint is None or not self.checkpoint.enabled:
            return 0
        restored = 0
        with self._lock:
            for kind, key, value in self.checkpoint.entries():
                if kind == "sim" and key not in self._sim_cache:
                    self._sim_cache[key] = value
                    restored += 1
                elif kind == "rate" and key not in self._rate_cache:
                    self._rate_cache[key] = value
                    restored += 1
        return restored

    def _checkpoint_store(self, kind: str, key, value) -> None:
        if self.checkpoint is not None:
            self.checkpoint.store(kind, key, value)

    # --- remote seeding (cluster mode) ----------------------------------

    def seed_rate(
        self,
        kernel: str,
        config: ProcessorConfig,
        rate: float,
    ) -> bool:
        """Install a kernel rate computed elsewhere (a cluster worker).

        The value is the *complete* memo payload — kernel rates are
        plain floats and JSON round-trips floats exactly — so a seeded
        entry is indistinguishable from a locally computed one: later
        :meth:`kernel_rate`/:meth:`compile_kernels` calls hit it, and
        it checkpoints like any other point.  Returns ``False`` when
        the key was already cached (the local value wins; both sides
        are deterministic so they cannot disagree).
        """
        key = (kernel, config)
        with self._lock:
            if key in self._rate_cache:
                return False
            self._rate_cache[key] = rate
            self._checkpoint_store("rate", key, rate)
            if self.metrics is not None:
                self.metrics.counter("sweep.rate.seeded").inc()
            return True

    def seed_simulation(
        self,
        application: str,
        config: ProcessorConfig,
        node: TechnologyNode,
        clock_ghz: float,
        mode: str,
        result: SimulationResult,
    ) -> bool:
        """Install a simulation result computed elsewhere.

        ``result`` is rebuilt from a worker's wire payload: every raw
        field (cycles, op counts, busy cycles, bandwidth words) is an
        int or an exactly-round-tripped float, so all derived metrics
        (gops, utilizations, speedups) recompute bit-identically — the
        property the cluster's serial-oracle equivalence rests on.
        The one divergence is the per-op timeline: ``records`` is empty
        (it never crosses the wire), the same shape the analytical
        backend's results already have in this cache.
        """
        check_mode(mode)
        key = (application, config, node, clock_ghz, mode)
        with self._lock:
            if key in self._sim_cache:
                return False
            self._sim_cache[key] = result
            self._checkpoint_store("sim", key, result)
            if self.metrics is not None:
                self.metrics.counter("sweep.sim.seeded").inc()
            return True

    def has_rate(self, kernel: str, config: ProcessorConfig) -> bool:
        """Whether a kernel rate is already memoized (no side effects:
        hit/miss statistics are untouched — this is a peek, used by the
        cluster coordinator to skip dispatching warm points)."""
        with self._lock:
            return (kernel, config) in self._rate_cache

    def has_simulation(
        self,
        application: str,
        config: ProcessorConfig,
        node: TechnologyNode,
        clock_ghz: float,
        mode: str,
    ) -> bool:
        """Whether a simulation result is already memoized (a peek;
        statistics untouched)."""
        with self._lock:
            return (
                application, config, node, clock_ghz, mode
            ) in self._sim_cache

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters, for reports and tests."""
        return {
            "sim_hits": self.sim_hits,
            "sim_misses": self.sim_misses,
            "rate_hits": self.rate_hits,
            "rate_misses": self.rate_misses,
            "sim_cached": len(self._sim_cache),
            "rate_cached": len(self._rate_cache),
        }

    def _count(self, name: str, hit: bool) -> None:
        if name == "sim":
            if hit:
                self.sim_hits += 1
            else:
                self.sim_misses += 1
        else:
            if hit:
                self.rate_hits += 1
            else:
                self.rate_misses += 1
        if self.metrics is not None:
            outcome = "hits" if hit else "misses"
            self.metrics.counter(f"sweep.{name}.{outcome}").inc()

    def _observe_point(self, seconds: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram("sweep.point_seconds").observe(seconds)

    # --- progress events ------------------------------------------------

    @property
    def progress(self) -> ProgressBus:
        """The bus point events go to (resolved lazily so engines built
        at import time still honor a later bus reset in tests)."""
        return self._progress if self._progress is not None else default_bus()

    def _publish(self, event: str, **fields) -> None:
        """Publish one progress event; a no-op without subscribers."""
        bus = self.progress
        if bus.subscriber_count() == 0:
            return
        bus.publish(event, **fields)

    def _hit_rate(self) -> float:
        looked_up = self.sim_hits + self.sim_misses
        return round(self.sim_hits / looked_up, 4) if looked_up else 0.0

    def _progress_event(
        self, completed: int, total: int, started: float
    ) -> None:
        """One ``sweep_progress`` event: live counts, hit rate, ETA."""
        bus = self.progress
        if bus.subscriber_count() == 0:
            return
        elapsed = time.perf_counter() - started
        eta = (
            elapsed / completed * (total - completed) if completed else None
        )
        bus.publish(
            "sweep_progress",
            completed=completed,
            total=total,
            elapsed_s=round(elapsed, 3),
            eta_s=round(eta, 3) if eta is not None else None,
            cache_hit_rate=self._hit_rate(),
        )

    # --- memoized primitives -------------------------------------------

    def simulate_application(
        self,
        application: str,
        config: ProcessorConfig,
        node: TechnologyNode = TECH_45NM,
        clock_ghz: float = 1.0,
        mode: str = "simulated",
    ) -> SimulationResult:
        """One application point through
        :func:`repro.analysis.model.evaluate`, memoized.

        ``mode`` chooses the result's shape, not its numbers:
        ``"simulated"`` attaches a recorder (per-op records),
        ``"analytical"`` does not (totals only).  The mode is part of
        the memo key (and the checkpoint key), so the two shapes can
        never alias.
        """
        check_mode(mode)
        key = (application, config, node, clock_ghz, mode)
        with self._lock:
            cached = self._sim_cache.get(key)
            if cached is not None:
                self._count("sim", hit=True)
                return cached
            self._count("sim", hit=False)
            with self.profiler.phase("sweep.simulate"):
                started = time.perf_counter()
                result = evaluate(
                    application, config, node, clock_ghz,
                    Recorder() if mode == "simulated" else None,
                    self.profiler,
                )
                elapsed = time.perf_counter() - started
                self._observe_point(elapsed)
            self._sim_cache[key] = result
            self._checkpoint_store("sim", key, result)
            # Publish on *miss* only: the collection pass at the end of
            # simulate_many re-reads every point through this method,
            # and those hits must not double-count progress.
            self._publish(
                "point",
                kind="sim",
                application=application,
                clusters=config.clusters,
                alus=config.alus_per_cluster,
                mode=mode,
                seconds=round(elapsed, 6),
            )
            return result

    def kernel_rate(self, kernel: str, config: ProcessorConfig) -> float:
        """Sustained whole-chip ops/cycle of a suite kernel, memoized.

        Sits above the compiler's own schedule cache: a hit skips the
        machine-description build and cache-key construction too.
        """
        key = (kernel, config)
        with self._lock:
            cached = self._rate_cache.get(key)
            if cached is not None:
                self._count("rate", hit=True)
                return cached
            self._count("rate", hit=False)
            with self.profiler.phase("sweep.kernel_rate"):
                started = time.perf_counter()
                rate = compile_kernel(
                    get_kernel(kernel), config
                ).ops_per_cycle()
                elapsed = time.perf_counter() - started
            self._rate_cache[key] = rate
            self._checkpoint_store("rate", key, rate)
            self._publish(
                "point",
                kind="rate",
                kernel=kernel,
                clusters=config.clusters,
                alus=config.alus_per_cluster,
                seconds=round(elapsed, 6),
            )
            return rate

    # --- grids ----------------------------------------------------------

    def compile_kernels(
        self, points: Sequence[Tuple[str, ProcessorConfig]]
    ) -> List[float]:
        """Compile a (kernel, config) grid; whole-chip rates in order.

        The cold points go through :func:`repro.compiler.compile_batch`
        in one call — deduplicated up front and persisted to the
        on-disk schedule cache — so regenerating Figure 13/14 or
        Table 5 compiles each unique schedule at most once, ever.
        Values are identical to repeated :meth:`kernel_rate` calls.
        """
        with self._lock:
            missing: List[Tuple[str, ProcessorConfig]] = []
            seen = set()
            for kernel, config in points:
                key = (kernel, config)
                if key not in self._rate_cache and key not in seen:
                    seen.add(key)
                    missing.append(key)
            self._publish(
                "sweep_start",
                kind="compile",
                total=len(points),
                cached=len(points) - len(missing),
            )
            started = time.perf_counter()
            if missing:
                with self.profiler.phase("sweep.compile_batch"):
                    schedules = compile_batch(
                        [
                            (get_kernel(kernel), config)
                            for kernel, config in missing
                        ]
                    )
                for done, (key, schedule) in enumerate(
                    zip(missing, schedules), start=1
                ):
                    rate = schedule.ops_per_cycle()
                    self._rate_cache[key] = rate
                    self._count("rate", hit=False)
                    self._checkpoint_store("rate", key, rate)
                    self._progress_event(done, len(missing), started)
            self._publish(
                "sweep_end",
                kind="compile",
                total=len(points),
                computed=len(missing),
                seconds=round(time.perf_counter() - started, 3),
            )
            return [
                self.kernel_rate(kernel, config) for kernel, config in points
            ]

    def simulate_many(
        self,
        points: Sequence[SweepPoint],
        node: TechnologyNode = TECH_45NM,
        clock_ghz: float = 1.0,
        mode: str = "simulated",
    ) -> List[SimulationResult]:
        """Simulate a grid of points; results in input order.

        Cached points are served from the memo cache and the cold ones
        run in order; every result lands in the cache for later
        single-point lookups.  ``mode="analytical"`` asks for totals
        only.
        """
        check_mode(mode)
        with self._lock:
            missing: List[SweepPoint] = []
            seen = set()
            for application, config in points:
                key = (application, config, node, clock_ghz, mode)
                if key not in self._sim_cache and key not in seen:
                    seen.add(key)
                    missing.append((application, config))

            self._publish(
                "sweep_start",
                kind="simulate",
                total=len(points),
                cached=len(points) - len(missing),
            )
            started = time.perf_counter()
            for done, (application, config) in enumerate(missing, start=1):
                self.simulate_application(
                    application, config, node, clock_ghz, mode
                )
                self._progress_event(done, len(missing), started)

            self._publish(
                "sweep_end",
                kind="simulate",
                total=len(points),
                computed=len(missing),
                seconds=round(time.perf_counter() - started, 3),
                cache_hit_rate=self._hit_rate(),
            )
            return [
                self.simulate_application(
                    application, config, node, clock_ghz, mode
                )
                for application, config in points
            ]


def plan_shards(
    keys: Sequence[str],
    assign,
) -> "Dict[Optional[str], List[int]]":
    """Partition sweep points into per-worker shards.

    Cluster mode splits a grid into one shard per worker daemon.
    ``keys`` are the points' :func:`repro.api.dedup_key` strings (the
    sharding identity — hashing the canonical request JSON is what
    keeps a point on the same worker across requests) and ``assign``
    maps a key to a worker id (the coordinator passes the consistent-
    hash ring's ``owner``), or to ``None`` for points that must be
    computed locally (empty ring).

    Returns ``{worker_id: [point indices]}`` with indices ascending
    within each shard, so per-shard dispatch order is deterministic and
    reassembly by index restores exact input order.  Duplicate keys
    land on the same worker by construction (same key, same hash).
    """
    shards: Dict[Optional[str], List[int]] = {}
    for index, key in enumerate(keys):
        shards.setdefault(assign(key), []).append(index)
    return shards


_DEFAULT_ENGINE = SweepEngine()


def default_engine() -> SweepEngine:
    """The process-wide engine the :mod:`repro.analysis.perf` grids share."""
    return _DEFAULT_ENGINE


def clear_sweep_cache() -> None:
    """Drop the shared engine's memoized results (benchmarks use this
    to measure cold regenerations)."""
    _DEFAULT_ENGINE.clear()
