"""The two batch workloads: ``sim-grid`` and ``dse-analytical``.

Both run in the benchmark's own process and call only public entry
points of the program (``repro.analysis.sweep``, ``repro.compiler``,
``repro.analysis.model``, ``repro.api``).  A pass repeats whole
repetitions ("reps") until its timed share reaches the requested
seconds; each rep starts from the state its workload defines, so reps
do equal work and the per-rep rate has a steady median.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

import gen
from common import (
    BATCH_IMPORTS, WORK, HostSpeed, Outcome, fresh_dir, import_seconds,
    isolated_env, median, op_stats, remove_dir, self_peak_rss_mb,
)
from tracing import Tracer

#: The five simulated statistics a speed-only change must leave as is.
SIM_TOTALS = (
    "sim.stream_ops", "sim.cycles_total", "sim.spill_words_total",
    "sim.memory_words_total", "sim.ucode_reloads_total",
)


def _sim_stats(result) -> Tuple[int, int, int, int, int]:
    return (
        len(result.records), result.cycles, result.spill_words,
        result.bandwidth.memory_words, result.ucode_reloads,
    )


class SimGrid:
    """Cycle-accurate simulation of a stratified sample of points.

    Set-up warms a fresh on-disk schedule cache for the sample; every
    rep then starts with a fresh ``SweepEngine`` and an empty in-memory
    compile memo, so the simulator and the warm compile-lookup path do
    the work.
    """

    name = "sim-grid"

    def __init__(self, seed: int):
        self.seed = seed
        self.points = gen.sim_grid_points(seed)
        self.base = None
        self._predicted: Dict[tuple, int] = {}

    def setup(self) -> float:
        from repro.apps.suite import get_application
        from repro.compiler.cache import configure_default_cache
        from repro.compiler.pipeline import clear_cache, compile_batch
        from repro.core.config import ProcessorConfig

        started = time.perf_counter()
        self.close()
        self.base = fresh_dir(self.name)
        env = isolated_env(self.base)
        import_seconds(BATCH_IMPORTS, env)
        configure_default_cache(env["REPRO_COMPILE_CACHE_DIR"])
        clear_cache()
        compile_batch([
            (call.kernel, ProcessorConfig(c, n))
            for app, c, n in self.points
            for call in get_application(app).kernel_calls()
        ])
        return time.perf_counter() - started

    def run(self, seconds: float, tracer: Tracer) -> dict:
        from repro.analysis.sweep import SweepEngine
        from repro.compiler.pipeline import clear_cache
        from repro.core.config import ProcessorConfig

        configs = {(c, n): ProcessorConfig(c, n) for _, c, n in self.points}
        host = HostSpeed()
        reps: List[List[tuple]] = []
        rates, raw_rates, scales, latencies = [], [], [], []
        phases, engine_stats = [], []
        timed = 0.0
        while timed < seconds or not reps:
            rep_started = time.perf_counter()
            clear_cache()
            engine = SweepEngine()
            profiler = engine.profiler
            rep: List[tuple] = []
            # (seconds, calibration sample) of every point, and whether
            # the point succeeded
            timed_ops: List[Tuple[float, int]] = []
            succeeded: List[bool] = []
            for index, (app, c, n) in enumerate(self.points):
                op = f"r{len(reps)}.p{index}"
                host.sample()
                run_before = profiler.seconds("sim.run")
                compile_before = profiler.seconds("sim.compile")
                started = time.perf_counter()
                try:
                    with tracer.span("sim-grid.point", op):
                        with tracer.span("analysis.sweep.simulate_many", op):
                            result = engine.simulate_many(
                                [(app, configs[c, n])], mode="simulated"
                            )[0]
                except Exception as exc:  # counted, the run goes on
                    timed_ops.append((time.perf_counter() - started,
                                      len(host.samples) - 1))
                    succeeded.append(False)
                    rep.append((app, c, n, None, repr(exc)))
                    continue
                timed_ops.append((time.perf_counter() - started,
                                  len(host.samples) - 1))
                succeeded.append(True)
                stats = _sim_stats(result)
                rep.append((app, c, n, stats, None))
                if tracer.enabled:
                    phases.append((
                        profiler.seconds("sim.run") - run_before,
                        profiler.seconds("sim.compile") - compile_before,
                        stats[0],
                    ))
            host.sample()
            scaled = host.scaled(timed_ops)
            latencies.extend(t for t, ok in zip(scaled, succeeded) if ok)
            busy = sum(t for t, _ in timed_ops)
            rates.append(len(self.points) / sum(scaled))
            raw_rates.append(len(self.points) / busy)
            scales.append(sum(scaled) / busy)
            reps.append(rep)
            engine_stats.append(engine.stats())
            timed += time.perf_counter() - rep_started
        return {
            **op_stats(latencies, median(rates)),
            "raw_throughput": median(raw_rates),
            "host_scale": median(scales),
            "reps": reps,
            "phases": phases,
            "engine_stats": engine_stats,
        }

    def _reference(self, first_rep) -> Dict[str, list]:
        """Per-point statistics of the first run in this checkout that
        simulated the point; later runs must repeat them exactly."""
        path = WORK / "reference" / f"{self.name}-{self.seed}.json"
        reference = json.loads(path.read_text()) if path.exists() else {}
        unseen = {
            f"{app},{c},{n}": list(stats)
            for app, c, n, stats, _ in first_rep
            if stats is not None and f"{app},{c},{n}" not in reference
        }
        if unseen:
            reference.update(unseen)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(reference, sort_keys=True))
        return reference

    def check(self, result: dict, outcome: Outcome) -> None:
        """Every point's cycles equal ``predict_application``, and its
        simulated statistics equal the seed's reference."""
        from repro.analysis.model import predict_application
        from repro.core.config import ProcessorConfig

        for app, c, n in self.points:
            if (app, c, n) not in self._predicted:
                self._predicted[app, c, n] = predict_application(
                    app, ProcessorConfig(c, n)
                ).cycles
        reference = self._reference(result["reps"][0])
        for rep in result["reps"]:
            outcome.attempted += len(rep)
            for app, c, n, stats, error in rep:
                if error is not None:
                    outcome.fail(1, f"{app} C={c} N={n} raised {error}")
                elif stats[1] != self._predicted[app, c, n]:
                    outcome.fail(1, f"{app} C={c} N={n} cycles {stats[1]} "
                                    f"!= model {self._predicted[app, c, n]}")
                elif list(stats) != reference.get(f"{app},{c},{n}"):
                    outcome.fail(1, f"{app} C={c} N={n} statistics differ "
                                    "from this seed's reference")

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_metrics(self, result: dict, tracer: Tracer) -> Dict[str, float]:
        from repro.apps.suite import get_application
        from repro.compiler.pipeline import compile_batch, compile_kernel
        from repro.core.config import ProcessorConfig

        run_s = [p[0] for p in result["phases"]]
        compile_s = [p[1] for p in result["phases"]]
        metrics = {
            "sim.run_ms": median(run_s) * 1e3,
            "sim.compile_ms": median(compile_s) * 1e3,
            "sim.walk_ms": median([r - c for r, c in zip(run_s, compile_s)])
            * 1e3,
            "sim.host_us_per_stream_op": median(
                [run / ops for run, _, ops in result["phases"]]
            ) * 1e6,
        }
        first = [stats for *_, stats, _ in result["reps"][0] if stats]
        for position, name in enumerate(SIM_TOTALS):
            metrics[name] = sum(stats[position] for stats in first)
        stats = result["engine_stats"][0]
        metrics["sweep.sim_hits"] = stats["sim_hits"]
        metrics["sweep.sim_misses"] = stats["sim_misses"]
        # What sim.compile would cost if every lookup were a warm memo
        # hit: the simulator's compile_batch plus one compile_kernel per
        # kernel call, timed here on a warm memo.
        hit_path = []
        for app, c, n in self.points:
            config = ProcessorConfig(c, n)
            calls = get_application(app).kernel_calls()
            jobs = [(call.kernel, config) for call in calls]
            compile_batch(jobs)
            started = time.perf_counter()
            compile_batch(jobs)
            for call in calls:
                compile_kernel(call.kernel, config)
            hit_path.append(time.perf_counter() - started)
        metrics["sim.compile_hit_est_ms"] = median(hit_path) * 1e3
        return metrics

    def close(self) -> None:
        if self.base is not None:
            remove_dir(self.base)
            self.base = None


class DseAnalytical:
    """A first design-space exploration on a fresh machine.

    A rep runs the seed's explorations one after another.  Each starts
    with an empty schedule-cache directory and empty in-process memos,
    then for each config queries the cost model, compiles the seven
    suite kernels and evaluates the six applications with the
    analytical model: cold modulo scheduling and the model do the work,
    the simulator does none.
    """

    name = "dse-analytical"

    def __init__(self, seed: int):
        self.seed = seed
        self.explorations = gen.dse_explorations(seed)
        self.base = None

    def setup(self) -> float:
        started = time.perf_counter()
        self.close()
        self.base = fresh_dir(self.name)
        import_seconds(BATCH_IMPORTS, isolated_env(self.base))
        return time.perf_counter() - started

    def run(self, seconds: float, tracer: Tracer) -> dict:
        from repro.analysis.model import clear_summary_cache
        from repro.analysis.sweep import SweepEngine
        from repro.api import CostQuery, run_cost_query
        from repro.compiler.cache import configure_default_cache
        from repro.compiler.pipeline import clear_cache
        from repro.core.config import ProcessorConfig

        explorations = [
            [ProcessorConfig(c, n) for c, n in configs]
            for configs in self.explorations
        ]
        host = HostSpeed()
        rates, raw_rates, scales, latencies = [], [], [], []
        reps, rep_dirs = [], []
        timed = 0.0
        while timed < seconds or not reps:
            rep_started = time.perf_counter()
            rep = {"outputs": [], "errors": [], "cache": [], "engine": [],
                   "reread": []}
            timed_ops: List[Tuple[float, int]] = []
            succeeded: List[bool] = []
            for number, configs in enumerate(explorations):
                rep_dir = self.base / f"rep{len(reps)}-{number}"
                rep_dir.mkdir()
                rep_dirs.append(rep_dir)
                cache = configure_default_cache(rep_dir)
                clear_cache()
                clear_summary_cache()
                engine = SweepEngine()
                outputs = []
                for index, config in enumerate(configs):
                    op = f"r{len(reps)}.e{number}.c{index}"
                    kernels = [(k, config) for k in gen.SUITE_KERNELS]
                    apps = [(a, config) for a in gen.APPLICATIONS]
                    host.sample()
                    started = time.perf_counter()
                    try:
                        with tracer.span("dse.config", op):
                            with tracer.span("api.run_cost_query", op):
                                run_cost_query(CostQuery(
                                    config.clusters, config.alus_per_cluster
                                ))
                            with tracer.span(
                                "analysis.sweep.compile_kernels", op
                            ):
                                kernel_rates = engine.compile_kernels(kernels)
                            with tracer.span(
                                "analysis.sweep.simulate_many", op
                            ):
                                results = engine.simulate_many(
                                    apps, mode="analytical"
                                )
                    except Exception as exc:  # counted, the run goes on
                        timed_ops.append((time.perf_counter() - started,
                                          len(host.samples) - 1))
                        succeeded.append(False)
                        rep["errors"].append(f"{config}: {exc!r}")
                        continue
                    timed_ops.append((time.perf_counter() - started,
                                      len(host.samples) - 1))
                    succeeded.append(True)
                    outputs.append(
                        (config, kernel_rates, [r.cycles for r in results])
                    )
                rep["outputs"].extend(outputs)
                rep["cache"].append(cache.stats())
                rep["engine"].append(engine.stats())
                rep["reread"].extend(self._reread(outputs))
            host.sample()
            scaled = host.scaled(timed_ops)
            latencies.extend(t for t, ok in zip(scaled, succeeded) if ok)
            busy = sum(t for t, _ in timed_ops)
            rates.append(len(timed_ops) / sum(scaled))
            raw_rates.append(len(timed_ops) / busy)
            scales.append(sum(scaled) / busy)
            reps.append(rep)
            timed += time.perf_counter() - rep_started
        # Deleting files costs disk work that would slow the next rep.
        for rep_dir in rep_dirs:
            remove_dir(rep_dir)
        return {
            **op_stats(latencies, median(rates)),
            "raw_throughput": median(raw_rates),
            "host_scale": median(scales),
            "reps": reps,
        }

    @staticmethod
    def _reread(outputs) -> List[str]:
        """Re-read every kernel rate from the disk cache the rep just
        wrote (empty memos, so each lookup must be a disk hit) and
        return one message per config whose rates differ."""
        from repro.analysis.sweep import SweepEngine
        from repro.compiler.cache import default_cache
        from repro.compiler.pipeline import clear_cache

        clear_cache()
        engine = SweepEngine()
        cache = default_cache()
        wrong = []
        for config, cold_rates, _ in outputs:
            misses = cache.stats()["misses"]
            warm = engine.compile_kernels(
                [(k, config) for k in gen.SUITE_KERNELS]
            )
            if warm != cold_rates:
                wrong.append(f"{config}: re-read rates {warm} != {cold_rates}")
            elif cache.stats()["misses"] != misses:
                wrong.append(f"{config}: rates missing from the disk cache")
        return wrong

    def check(self, result: dict, outcome: Outcome) -> None:
        """Rates re-read from disk equal the cold compile's, and every
        rep computes the same analytical results."""
        first = {str(c): cycles for c, _, cycles in result["reps"][0]["outputs"]}
        for rep in result["reps"]:
            outcome.attempted += sum(len(e) for e in self.explorations)
            outcome.fail(len(rep["errors"]), "; ".join(rep["errors"]))
            outcome.fail(len(rep["reread"]), "; ".join(rep["reread"]))
            changed = [
                str(c) for c, _, cycles in rep["outputs"]
                if first.get(str(c)) != cycles
            ]
            outcome.fail(len(changed), f"analytical cycles changed: {changed}")

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_metrics(self, result: dict, tracer: Tracer) -> Dict[str, float]:
        # Counts of one exploration (the first of the first rep).
        cache = result["reps"][0]["cache"][0]
        return {
            "compiler.cache.hits": cache["hits"],
            "compiler.cache.misses": cache["misses"],
            "compiler.cache.stores": cache["writes"],
            "sweep.rate_misses": result["reps"][0]["engine"][0]["rate_misses"],
        }

    def close(self) -> None:
        if self.base is not None:
            remove_dir(self.base)
            self.base = None

