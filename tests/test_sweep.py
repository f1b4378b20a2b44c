"""Tests for the memoized sweep engine and its perf.py integration."""

import pytest

from repro.analysis.model import clear_summary_cache
from repro.analysis.perf import (
    BASELINE,
    application_harmonic_speedup,
    figure15_application_performance,
    kernel_rate,
)
from repro.analysis.sweep import SweepEngine, clear_sweep_cache, default_engine
from repro.apps.suite import APPLICATION_ORDER, get_application
from repro.compiler.pipeline import compile_kernel
from repro.core.config import ProcessorConfig
from repro.kernels.suite import get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.sim.processor import simulate

SMALL_APPS = ("fft1k", "depth")
SMALL_CONFIGS = (ProcessorConfig(8, 5), ProcessorConfig(16, 5))


class TestMemoization:
    def test_simulation_cached(self):
        engine = SweepEngine()
        first = engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        second = engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        assert second is first  # served from cache, not recomputed
        stats = engine.stats()
        assert stats["sim_misses"] == 1
        assert stats["sim_hits"] == 1
        assert stats["sim_cached"] == 1

    def test_distinct_keys_not_conflated(self):
        engine = SweepEngine()
        base = engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        other_config = engine.simulate_application(
            "fft1k", ProcessorConfig(16, 5)
        )
        other_clock = engine.simulate_application(
            "fft1k", ProcessorConfig(8, 5), clock_ghz=2.0
        )
        assert other_config.cycles != base.cycles
        assert other_clock.clock_ghz != base.clock_ghz
        assert engine.stats()["sim_misses"] == 3

    def test_cached_result_matches_direct_simulate(self):
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        via_engine = engine.simulate_application("fft1k", config)
        direct = simulate(get_application("fft1k"), config)
        assert via_engine == direct

    def test_kernel_rate_cached(self):
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        rate = engine.kernel_rate("convolve", config)
        again = engine.kernel_rate("convolve", config)
        assert again == rate
        expected = compile_kernel(
            get_kernel("convolve"), config
        ).ops_per_cycle()
        assert rate == expected
        stats = engine.stats()
        assert stats["rate_misses"] == 1
        assert stats["rate_hits"] == 1

    def test_clear_drops_results_keeps_stats(self):
        engine = SweepEngine()
        engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        engine.clear()
        assert engine.stats()["sim_cached"] == 0
        engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        assert engine.stats()["sim_misses"] == 2


class TestSimulateMany:
    def grid(self):
        return [
            (app, config) for app in SMALL_APPS for config in SMALL_CONFIGS
        ]

    def test_results_in_input_order(self):
        engine = SweepEngine()
        points = self.grid()
        results = engine.simulate_many(points)
        for (app, config), result in zip(points, results):
            assert result.program == get_application(app).name
            assert result.config == config

    def test_duplicates_simulated_once(self):
        engine = SweepEngine()
        points = self.grid() + self.grid()
        results = engine.simulate_many(points)
        assert len(results) == len(points)
        assert engine.stats()["sim_misses"] == len(self.grid())


class TestPerfIntegration:
    def test_figure15_matches_direct_simulation(self):
        """Grid values and ordering are byte-identical to naive nested
        simulate() calls."""
        engine = SweepEngine()
        points = figure15_application_performance(
            c_values=(8, 16),
            n_values=(5,),
            applications=SMALL_APPS,
            engine=engine,
        )
        baseline_config = ProcessorConfig(*BASELINE)
        expected = []
        for app in SMALL_APPS:
            baseline = simulate(get_application(app), baseline_config)
            for c in (8, 16):
                config = ProcessorConfig(c, 5)
                result = simulate(get_application(app), config)
                expected.append(
                    (app, config, result.speedup_over(baseline), result.gops)
                )
        got = [
            (p.application, p.config, p.speedup, p.gops) for p in points
        ]
        assert got == expected

    def test_figure15_warm_repeat_is_all_hits(self):
        engine = SweepEngine()
        first = figure15_application_performance(
            c_values=(8, 16),
            n_values=(5,),
            applications=SMALL_APPS,
            engine=engine,
        )
        misses = engine.stats()["sim_misses"]
        second = figure15_application_performance(
            c_values=(8, 16),
            n_values=(5,),
            applications=SMALL_APPS,
            engine=engine,
        )
        assert second == first
        assert engine.stats()["sim_misses"] == misses  # no new work

    def test_harmonic_speedup_shares_baselines(self):
        """Repeated harmonic-speedup calls re-simulate only the new
        configuration, never the baselines."""
        engine = SweepEngine()
        application_harmonic_speedup(ProcessorConfig(16, 5), engine=engine)
        misses = engine.stats()["sim_misses"]
        assert misses == 2 * len(APPLICATION_ORDER)
        application_harmonic_speedup(ProcessorConfig(32, 5), engine=engine)
        assert (
            engine.stats()["sim_misses"] == misses + len(APPLICATION_ORDER)
        )

    def test_default_engine_backs_module_functions(self):
        clear_sweep_cache()
        engine = default_engine()
        before = engine.stats()["rate_misses"]
        config = ProcessorConfig(8, 5)
        kernel_rate("convolve", config)
        kernel_rate("convolve", config)
        after = engine.stats()
        assert after["rate_misses"] == before + 1
        assert after["rate_hits"] >= 1


class TestExecutionModes:
    """The analytical backend shares the engine but never its cache
    entries: ``mode`` is part of every memo and checkpoint key."""

    def test_modes_cached_separately(self):
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        simulated = engine.simulate_application("fft1k", config)
        analytical = engine.simulate_application(
            "fft1k", config, mode="analytical"
        )
        # Two cold points, not one hit: the modes never alias.
        assert engine.stats()["sim_misses"] == 2
        assert analytical is not simulated
        # The model is exact, so the answers still agree.
        assert analytical.cycles == simulated.cycles
        assert analytical.bandwidth == simulated.bandwidth
        # Each mode's repeat is a hit on its own entry.
        assert engine.simulate_application(
            "fft1k", config, mode="analytical"
        ) is analytical
        assert engine.simulate_application("fft1k", config) is simulated
        assert engine.stats()["sim_hits"] == 2

    def test_kernel_rate_key_has_no_mode(self):
        """A rate is one schedule closed form whatever the application
        mode, so its memo key is ``(kernel, config)``: asked twice, it
        is one miss plus one hit."""
        engine = SweepEngine()
        config = ProcessorConfig(8, 5)
        first = engine.kernel_rate("convolve", config)
        assert engine.kernel_rate("convolve", config) == first
        assert engine.has_rate("convolve", config)
        stats = engine.stats()
        assert (stats["rate_misses"], stats["rate_hits"]) == (1, 1)

    def test_unknown_mode_rejected(self):
        engine = SweepEngine()
        with pytest.raises(ValueError) as excinfo:
            engine.simulate_application(
                "fft1k", ProcessorConfig(8, 5), mode="oracular"
            )
        message = str(excinfo.value)
        assert "simulated" in message and "analytical" in message

    def test_simulate_many_analytical_matches_simulated(self):
        points = [
            (app, config)
            for app in SMALL_APPS
            for config in SMALL_CONFIGS
        ]
        simulated = SweepEngine().simulate_many(points)
        analytical = SweepEngine().simulate_many(points, mode="analytical")
        for sim, model in zip(simulated, analytical):
            assert model.cycles == sim.cycles
            assert model.bandwidth == sim.bandwidth

    def test_checkpoint_never_aliases_modes(self, tmp_path):
        """A checkpointed analytical sweep must not satisfy a simulated
        resume (or vice versa): the on-disk keys carry the mode too."""
        from repro.resilience.checkpoint import SweepCheckpoint

        config = ProcessorConfig(8, 5)
        writer = SweepEngine(checkpoint=SweepCheckpoint(tmp_path))
        writer.simulate_application("fft1k", config, mode="analytical")

        resumed = SweepEngine(checkpoint=SweepCheckpoint(tmp_path))
        assert resumed.resume() == 1
        # The restored entry serves the analytical repeat...
        resumed.simulate_application("fft1k", config, mode="analytical")
        assert resumed.stats()["sim_hits"] == 1
        assert resumed.stats()["sim_misses"] == 0
        # ...but a simulated request at the same point is still cold.
        resumed.simulate_application("fft1k", config)
        assert resumed.stats()["sim_misses"] == 1


class TestInstrumentation:
    def test_profiler_phases_accumulate(self):
        # The application tables outlive engines; drop them so this
        # point derives its tables (and charges sim.compile) afresh.
        clear_summary_cache()
        engine = SweepEngine()
        engine.simulate_application("fft1k", ProcessorConfig(8, 5))
        engine.kernel_rate("convolve", ProcessorConfig(8, 5))
        profiler = engine.profiler
        assert profiler.calls("sweep.simulate") == 1
        assert profiler.seconds("sweep.simulate") > 0.0
        assert profiler.calls("sweep.kernel_rate") == 1
        # simulate() charges its inner phases to the same profiler.
        assert profiler.calls("sim.run") == 1
        assert profiler.calls("sim.compile") >= 1

    def test_metrics_counters_and_histogram(self):
        metrics = MetricsRegistry()
        engine = SweepEngine(metrics=metrics)
        config = ProcessorConfig(8, 5)
        engine.simulate_application("fft1k", config)
        engine.simulate_application("fft1k", config)
        engine.kernel_rate("convolve", config)
        snapshot = metrics.snapshot().as_dict()
        assert snapshot["sweep.sim.misses"] == 1
        assert snapshot["sweep.sim.hits"] == 1
        assert snapshot["sweep.rate.misses"] == 1
        assert snapshot["sweep.point_seconds.count"] == 1
        assert snapshot["sweep.point_seconds.total"] > 0.0

    def test_uninstrumented_engine_has_no_metrics(self):
        engine = SweepEngine()
        assert engine.metrics is None
        engine.simulate_application("fft1k", ProcessorConfig(8, 5))
