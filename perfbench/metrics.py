"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` are reported by untraced runs (``--trace 0``) of every
workload.  Each workload defines its own operation, so one metric name
covers the per-workload metrics the reproduction cares about:

=================  ==============  ===============  ===============
workload           operation       throughput_per_s latency_p*_ms
=================  ==============  ===============  ===============
sim-grid           simulated point sim_points_per_s per point
dse-analytical     explored config dse_configs_per_s per config
serve-mixed        request         serve_rps        serve_p50/p75_ms
serve-jobs         job             jobs_per_s       job_p50/p75_ms
=================  ==============  ===============  ===============

``LAYERS`` are reported by the traced run (``--trace 1``), each with
the end-to-end metric it should move and the workload it is taken on.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p75_ms": ("ms", "lower"),
}

#: Per-workload name and unit of ``throughput_per_s``, as printed.
THROUGHPUT_NAMES = {
    "sim-grid": ("sim_points_per_s", "points/s"),
    "dse-analytical": ("dse_configs_per_s", "configs/s"),
    "serve-mixed": ("serve_rps", "req/s"),
    "serve-jobs": ("jobs_per_s", "jobs/s"),
}
#: Per-workload prefix of the latency percentiles, as printed.
LATENCY_PREFIXES = {
    "sim-grid": "point_",
    "dse-analytical": "config_",
    "serve-mixed": "serve_",
    "serve-jobs": "job_",
}

SG, DSE, SM, SJ = "sim-grid", "dse-analytical", "serve-mixed", "serve-jobs"
_SIM = "sim_points_per_s"
_DSE = "dse_configs_per_s"

#: name -> (unit, better, end-to-end metric it should move, workload)
LAYERS = {
    "apps.build_ms": ("ms", "lower", _SIM, SG),
    "isa.stats_us": ("us", "lower", _SIM, SG),
    "compiler.hit_us": ("us", "lower", _SIM, SG),
    "compiler.batch_hit_ms": ("ms", "lower", _SIM, SG),
    "compiler.disk_hit_ms": ("ms", "lower", f"{_SIM},setup_s", SG),
    "compiler.cold_ms": ("ms", "lower", _DSE, DSE),
    "compiler.cache.hits": ("count", "higher", _DSE, DSE),
    "compiler.cache.misses": ("count", "lower", _DSE, DSE),
    "compiler.cache.stores": ("count", "lower", _DSE, DSE),
    "sim.run_ms": ("ms", "lower", _SIM, SG),
    "sim.compile_ms": ("ms", "lower", _SIM, SG),
    "sim.compile_hit_est_ms": ("ms", "lower", _SIM, SG),
    "sim.walk_ms": ("ms", "lower", _SIM, SG),
    "sim.host_us_per_stream_op": ("us", "lower", _SIM, SG),
    "sim.stream_ops": ("count", "lower", "none", SG),
    "sim.cycles_total": ("cycles", "lower", "none", SG),
    "sim.spill_words_total": ("words", "lower", "none", SG),
    "sim.memory_words_total": ("words", "lower", "none", SG),
    "sim.ucode_reloads_total": ("count", "lower", "none", SG),
    "sweep.sim_hits": ("count", "higher", _SIM, SG),
    "sweep.sim_misses": ("count", "lower", _SIM, SG),
    "sweep.rate_misses": ("count", "lower", _DSE, DSE),
    "core.cost_us": ("us", "lower", f"{_DSE},serve_p50_ms", f"{DSE},{SM}"),
    "model.summary_ms": ("ms", "lower", f"{_DSE},job_p50_ms", f"{DSE},{SJ}"),
    "model.predict_cold_ms": ("ms", "lower", _DSE, DSE),
    "model.predict_warm_us": ("us", "lower", "job_p50_ms", SJ),
    "serve.server_p50_ms": ("ms", "lower", "serve_p50_ms,serve_rps", SM),
    "serve.batch_p50_ms": ("ms", "lower", "serve_p50_ms,serve_rps", SM),
    "serve.batch_size_mean": ("count", "higher", "serve_p50_ms,serve_rps", SM),
    "serve.batches": ("count", "lower", "serve_p50_ms,serve_rps", SM),
    "serve.dedup_hits": ("count", "higher", "serve_p50_ms,serve_rps", SM),
    "frontend.register_ms": ("ms", "lower", "setup_s,serve_p50_ms", SM),
    "frontend.resolve_us": ("us", "lower", "setup_s,serve_p50_ms", SM),
    "serve.ready_s": ("s", "lower", "setup_s", f"{SM},{SJ}"),
    "cli.import_ms": ("ms", "lower", "setup_s", f"{SM},{SJ}"),
    "jobs.submit_ms": ("ms", "lower", "job_p50_ms,jobs_per_s", SJ),
    "jobs.done_ms": ("ms", "lower", "job_p50_ms,jobs_per_s", SJ),
    "jobs.result_ms": ("ms", "lower", "job_p50_ms,jobs_per_s", SJ),
    "jobs.queue_wait_p50_ms": ("ms", "lower", "job_p50_ms", SJ),
    "jobs.queue_wait_p99_ms": ("ms", "lower", "job_p99_ms", SJ),
    "jobs.store_bytes": ("bytes", "lower", "jobs_per_s,peak_rss_mb", SJ),
    "jobs.store_files": ("count", "lower", "jobs_per_s,peak_rss_mb", SJ),
}
for _kind in ("costs", "compile", "simulate", "sweep"):
    LAYERS[f"api.execute_us.{_kind}"] = ("us", "lower", "serve_p50_ms", SM)
    LAYERS[f"serve.client_p50_ms.{_kind}"] = ("ms", "lower", "serve_p50_ms", SM)
    LAYERS[f"serve.client_p99_ms.{_kind}"] = ("ms", "lower", "serve_p99_ms", SM)
    LAYERS[f"serve.overhead_p50_ms.{_kind}"] = ("ms", "lower", "serve_p50_ms", SM)
for _workload in (SG, DSE, SM, SJ):
    LAYERS[f"trace.overhead_pct.{_workload}"] = ("%", "lower", "none", _workload)
