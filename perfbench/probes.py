"""Layer probes for the traced run: each times one public call of one
layer, outside any workload, on fresh isolated state."""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import gen
from common import fresh_dir, import_seconds, isolated_env, median, remove_dir

_PROBE_CONFIGS = ((8, 5), (32, 10), (128, 16))


def _timed(call: Callable[[], object], repeat: int = 1) -> float:
    """Median seconds of ``repeat`` calls."""
    samples: List[float] = []
    for _ in range(repeat):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return median(samples)


def layer_probes() -> Dict[str, float]:
    from repro.analysis.model import (
        build_summary, clear_summary_cache, predict_application,
    )
    from repro.api import CostQuery, run_cost_query
    from repro.apps.suite import get_application
    from repro.compiler.cache import ScheduleCache, configure_default_cache
    from repro.compiler.pipeline import clear_cache, compile_batch, compile_kernel
    from repro.core.config import ProcessorConfig
    from repro.kernels.suite import get_kernel

    base = fresh_dir("probes")
    try:
        env = isolated_env(base)
        configure_default_cache(env["REPRO_COMPILE_CACHE_DIR"])
        clear_cache()
        clear_summary_cache()
        configs = [ProcessorConfig(c, n) for c, n in _PROBE_CONFIGS]
        kernels = [get_kernel(name) for name in gen.SUITE_KERNELS]
        metrics: Dict[str, float] = {}

        metrics["apps.build_ms"] = median([
            _timed(lambda a=app: get_application(a), 5)
            for app in gen.APPLICATIONS
        ]) * 1e3
        metrics["isa.stats_us"] = median([
            _timed(kernel.stats, 20) for kernel in kernels
        ]) * 1e6

        cold = []
        for config in configs:
            for kernel in kernels:
                clear_cache()
                cold.append(_timed(lambda k=kernel, c=config: compile_kernel(
                    k, c, cache=ScheduleCache(None))))
        metrics["compiler.cold_ms"] = median(cold) * 1e3

        # Fill the disk cache, then time disk hits on an empty memo and
        # memo hits on a warm one.
        clear_cache()
        compile_batch([(k, c) for c in configs for k in kernels])
        disk = []
        for config in configs:
            for kernel in kernels:
                clear_cache()
                disk.append(_timed(lambda k=kernel, c=config: compile_kernel(
                    k, c)))
        metrics["compiler.disk_hit_ms"] = median(disk) * 1e3
        compile_batch([(k, c) for c in configs for k in kernels])
        metrics["compiler.hit_us"] = median([
            _timed(lambda k=kernel, c=config: compile_kernel(k, c), 5)
            for config in configs for kernel in kernels
        ]) * 1e6
        batch = []
        for app in gen.APPLICATIONS:
            for config in configs:
                jobs = [(call.kernel, config)
                        for call in get_application(app).kernel_calls()]
                compile_batch(jobs)
                batch.append(_timed(lambda j=jobs: compile_batch(j), 3))
        metrics["compiler.batch_hit_ms"] = median(batch) * 1e3

        metrics["core.cost_us"] = median([
            _timed(lambda c=c, n=n: run_cost_query(CostQuery(c, n)), 5)
            for c, n in gen.DOMAIN[::7]
        ]) * 1e6
        metrics["model.summary_ms"] = median([
            _timed(lambda a=app: build_summary(get_application(a)))
            for app in gen.APPLICATIONS
        ]) * 1e3
        for app in gen.APPLICATIONS:  # summaries warm
            predict_application(app, configs[0])
        unseen = [ProcessorConfig(c, n) for c, n in gen.DOMAIN[1::9]]
        metrics["model.predict_cold_ms"] = median([
            _timed(lambda a=app, c=config: predict_application(a, c))
            for config in unseen for app in gen.APPLICATIONS
        ]) * 1e3
        metrics["model.predict_warm_us"] = median([
            _timed(lambda a=app, c=config: predict_application(a, c), 5)
            for config in unseen for app in gen.APPLICATIONS
        ]) * 1e6
        metrics["cli.import_ms"] = median([
            import_seconds("import repro.cli", env) for _ in range(3)
        ]) * 1e3
        return metrics
    finally:
        remove_dir(base)
