"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``costs``      evaluate the VLSI cost model at one (C, N) point
``compile``    compile a suite kernel and report its schedule
``simulate``   run one of the six applications on a configuration
``trace``      simulate with full event tracing (Perfetto-loadable)
``figures``    regenerate the paper's tables and figures (text form)
``report``     the performance studies plus a compile/cache summary
``headline``   check the paper's headline claims
``serve``      long-running JSON-over-HTTP daemon (see docs/serving.md)
``loadgen``    drive a live daemon and report latency/throughput SLOs

Commands that compile kernels take ``--cache-dir`` (re-point the
persistent schedule cache) and ``--no-compile-cache`` (disable it).

``--log-level``/``--log-json`` (top-level, also on ``serve`` and
``loadgen``) turn on structured logging to stderr; unlogged runs emit
nothing and stay bit-identical to previous releases.  When logging is
on, the run gets a correlation id (``REPRO_REQUEST_ID`` when the caller
set one, else a fresh one) that tracer instants and log lines join on.

``costs``, ``compile``, ``simulate``, ``report`` and ``headline`` take
``--json``: machine-readable output as one versioned envelope
(:func:`repro.obs.manifest.build_envelope`) whose ``data`` is exactly
the :mod:`repro.api` result payload the serving daemon returns for the
same query — the two surfaces share one schema by construction.
Volatile context (wall-clock timings, the run manifest, cache and
checkpoint statistics) rides in the envelope's ``meta``.

Examples
--------
::

    python -m repro costs --clusters 128 --alus 5
    python -m repro compile fft --clusters 8 --alus 10
    python -m repro simulate depth --clusters 128 --alus 10
    python -m repro simulate fft1k --json > manifest.json
    python -m repro trace depth --out trace.json
    python -m repro figures --only fig9 fig13
    python -m repro report --no-compile-cache
    python -m repro headline
    python -m repro serve --port 8712 --workers 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import List, Optional

from .analysis import (
    figure6_area_intracluster,
    figure7_energy_intracluster,
    figure8_delay_intracluster,
    figure9_area_intercluster,
    figure10_energy_intercluster,
    figure11_delay_intercluster,
    figure13_kernel_speedups,
    figure14_kernel_speedups,
    headline_640,
    headline_1280,
    render_delay_figure,
    render_grid,
    render_speedup_figure,
    render_stack_figure,
    table5_performance_per_area,
)
from .analysis.perf import TABLE5_C_VALUES, TABLE5_N_VALUES
from .apps import APPLICATION_ORDER
from .compiler import configure_default_cache, default_cache
from .core import ProcessorConfig
from .obs import (
    NULL_TRACER, MetricsRegistry, PhaseProfiler, Tracer, build_manifest,
)
from .sim import DEFAULT_MAX_EVENTS


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--clusters", "-c", type=int, default=8, help="clusters (C)"
    )
    parser.add_argument(
        "--alus", "-n", type=int, default=5, help="ALUs per cluster (N)"
    )


def _config(args: argparse.Namespace) -> ProcessorConfig:
    return ProcessorConfig(args.clusters, args.alus)


def _add_logging_arguments(
    parser: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """``--log-level``/``--log-json``; ``suppress`` is for subparsers
    that repeat the top-level flags (argparse lets the subparser's
    *default* clobber a value parsed by the main parser — SUPPRESS
    leaves the attribute alone unless the flag actually appears)."""
    parser.add_argument(
        "--log-level", metavar="LEVEL",
        default=argparse.SUPPRESS if suppress else None,
        help="enable structured logging at LEVEL (DEBUG/INFO/WARNING...)"
    )
    parser.add_argument(
        "--log-json", action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="log JSON lines (one object per line) instead of "
             "human-readable text"
    )


def _apply_logging_arguments(args: argparse.Namespace) -> Optional[str]:
    """Configure structured logging when asked; silent otherwise.

    Returns the run's correlation id: the ``REPRO_REQUEST_ID`` its
    caller set, if any (read once, never written), else a fresh one
    when logging is on, else ``None``.  :func:`main` binds it for the
    command's extent, so tracer instants join the run's log lines.
    """
    from .obs.log import REQUEST_ID_ENV, configure, new_request_id

    inherited = os.environ.get(REQUEST_ID_ENV) or None
    json_lines = getattr(args, "log_json", False)
    level = getattr(args, "log_level", None)
    if not json_lines and level is None:
        return inherited
    configure(json_lines=json_lines, level=level or "INFO")
    return inherited or new_request_id()


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent schedule-cache directory "
             "(default: $REPRO_COMPILE_CACHE_DIR or ~/.cache)"
    )
    parser.add_argument(
        "--no-compile-cache", action="store_true",
        help="disable the persistent schedule cache for this run"
    )


def _apply_cache_arguments(args: argparse.Namespace) -> None:
    """Honor ``--cache-dir`` / ``--no-compile-cache`` when present."""
    if getattr(args, "no_compile_cache", False):
        configure_default_cache(enabled=False)
    elif getattr(args, "cache_dir", None):
        configure_default_cache(cache_dir=args.cache_dir)


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir", metavar="PATH", default=None,
        help="sweep checkpoint directory (default: "
             "$REPRO_SWEEP_CHECKPOINT_DIR or ~/.cache)"
    )
    parser.add_argument(
        "--no-checkpoint", action="store_true",
        help="do not persist completed sweep points for this run"
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay an interrupted run's checkpointed points before "
             "sweeping (restored points are never recomputed)"
    )


def _apply_checkpoint_arguments(args: argparse.Namespace) -> None:
    """Honor the sweep-checkpoint knobs on commands that carry them."""
    if not hasattr(args, "no_checkpoint"):
        return
    from .analysis.sweep import default_engine
    from .resilience.checkpoint import (
        SweepCheckpoint,
        default_checkpoint_root,
    )

    if args.no_checkpoint:
        root = None
    elif args.checkpoint_dir:
        root = args.checkpoint_dir
    else:
        root = default_checkpoint_root()
    engine = default_engine()
    engine.configure_checkpoint(
        SweepCheckpoint(root) if root is not None else None
    )
    if getattr(args, "resume", False):
        restored = engine.resume()
        print(f"resumed {restored} checkpointed sweep points")


def _cache_summary() -> str:
    """One-line compile-cache statistics for human-readable output."""
    cache = default_cache()
    if not cache.enabled:
        return "compile cache: disabled"
    stats = cache.stats()
    return (f"compile cache: {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} written")


def _emit_envelope(kind: str, data: dict, meta: Optional[dict] = None) -> int:
    """Print one versioned envelope (the ``--json`` output contract)."""
    from .obs.manifest import build_envelope

    print(json.dumps(build_envelope(kind, data=data, meta=meta), indent=2))
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    from .api import ApiError, CostQuery, run_cost_query

    try:
        result = run_cost_query(CostQuery(args.clusters, args.alus))
    except ApiError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        return _emit_envelope("costs", result.to_dict())
    print(result.config_description)
    print(f"  area:   {result.area_total / 1e6:.1f} Mgrids "
          f"({result.area_per_alu / 1e6:.2f} per ALU)")
    for name, value in result.area.items():
        print(f"    {name:20s} {value / 1e6:10.1f} Mgrids "
              f"({value / result.area_total:5.1%})")
    print(f"  energy: {result.energy_per_alu_op / 1e6:.2f} ME_w per ALU op")
    for name, value in result.energy.items():
        print(f"    {name:20s} {value / result.energy_total:5.1%}")
    print(f"  delays: intracluster {result.delays['intracluster']:.1f} FO4, "
          f"intercluster {result.delays['intercluster']:.1f} FO4")
    print(f"  at 45nm/1GHz: {result.feasibility['peak_gops']:.0f} GOPS peak, "
          f"{result.feasibility['area_mm2']:.1f} mm^2, "
          f"{result.feasibility['power_watts']:.1f} W")
    if args.floorplan:
        from .analysis.floorplan import render_floorplan

        print()
        print(render_floorplan(_config(args)))
    return 0


def _register_kernel_file(path: str) -> Optional[str]:
    """Register the kernel document at ``path``; its ``kernel:<hash>``
    ref on success, ``None`` (with the error on stderr) otherwise."""
    from .frontend import KernelValidationError
    from .frontend.registry import default_registry

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"cannot read kernel file {path}: {exc}", file=sys.stderr)
        return None
    except ValueError as exc:
        print(f"kernel file {path} is not JSON: {exc}", file=sys.stderr)
        return None
    try:
        return default_registry().register(document).ref
    except KernelValidationError as exc:
        print(f"invalid kernel document {path}: {exc}", file=sys.stderr)
        return None


def cmd_compile(args: argparse.Namespace) -> int:
    from .api import ApiError, CompileRequest, run_compile

    if args.kernel_file:
        ref = _register_kernel_file(args.kernel_file)
        if ref is None:
            return 2
        args.kernel = ref
    if not args.kernel:
        print("compile: a kernel name or --kernel-file is required",
              file=sys.stderr)
        return 2
    try:
        result = run_compile(
            CompileRequest(args.kernel, args.clusters, args.alus)
        )
    except ApiError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        return _emit_envelope(
            "compile", result.to_dict(), meta={"cache": _cache_summary()}
        )
    print(f"kernel '{args.kernel}' on {_config(args).describe()}:")
    print(f"  unroll factor:      {result.unroll_factor}")
    print(f"  initiation interval {result.ii} "
          f"({result.ii_per_iteration:.2f} per iteration; "
          f"resource MII {result.resource_mii}, "
          f"recurrence MII {result.recurrence_mii})")
    print(f"  schedule length:    {result.length} cycles")
    print(f"  registers:          {result.max_live}"
          f"/{result.register_capacity}")
    print(f"  sustained rate:     {result.ops_per_cycle:.1f} ops/cycle "
          f"({result.efficiency:.0%} of ALU-issue bound)")
    return 0


def _evaluate(args: argparse.Namespace, records: bool = True,
              tracer: Tracer = NULL_TRACER,
              metrics: Optional[MetricsRegistry] = None):
    """Shared simulate/trace plumbing: one application point through
    :func:`repro.analysis.model.evaluate`, timed.

    ``records`` attaches a recorder (with ``tracer``, ``metrics`` and
    the ``--max-events`` budget).  Returns ``(result, profiler)``; the
    profiler has a ``simulate`` wall-clock phase, with ``sim.run`` and
    ``sim.compile`` (schedule lookups) inside it.
    """
    from .analysis.model import evaluate
    from .sim.engine import Recorder

    recorder = Recorder(tracer, metrics, args.max_events) if records else None
    profiler = PhaseProfiler()
    with profiler.phase("simulate"):
        result = evaluate(
            args.application, _config(args),
            recorder=recorder, profiler=profiler,
        )
    return result, profiler


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.kernel_file:
        ref = _register_kernel_file(args.kernel_file)
        if ref is None:
            return 2
        args.application = ref
    if not args.application:
        print("simulate: an application name or --kernel-file is required",
              file=sys.stderr)
        return 2
    is_kernel_ref = args.application.startswith("kernel:")
    if not is_kernel_ref and args.application not in APPLICATION_ORDER:
        print(f"unknown application {args.application!r}; "
              f"available: {', '.join(APPLICATION_ORDER)} "
              f"(or a registered kernel:<hash> reference)", file=sys.stderr)
        return 2
    config = _config(args)
    analytical = args.mode == "analytical"
    if analytical and (args.timeline or args.gantt or args.trace_out):
        print("mode 'analytical' returns totals without a per-op "
              "timeline; --timeline/--gantt/--trace-out need "
              "--mode simulated", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace_out else NULL_TRACER
    result, profiler = _evaluate(
        args, records=not analytical, tracer=tracer,
        metrics=MetricsRegistry() if args.json and not analytical else None,
    )
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            handle.write(tracer.to_chrome_json(indent=2))
    if args.json:
        from .api import SimulateResult

        manifest = build_manifest(
            result,
            application=args.application,
            timings=profiler.as_dict(),
        )
        meta = {
            "manifest": manifest,
            "compile_cache": default_cache().stats(),
        }
        if analytical:
            meta["mode"] = "analytical"
        return _emit_envelope(
            "simulate",
            SimulateResult.from_simulation(
                result, args.application
            ).to_dict(),
            meta=meta,
        )
    suffix = " (analytical model)" if analytical else ""
    print(f"{args.application} on {config.describe()}{suffix}:")
    print(f"  cycles:       {result.cycles}")
    print(f"  sustained:    {result.gops:.1f} GOPS "
          f"({result.alu_utilization:.1%} of peak)")
    print(f"  memory busy:  {result.memory_utilization:.1%}")
    print(f"  cluster busy: {result.cluster_utilization:.1%}")
    print(f"  SRF spills:   {result.spill_words} words out, "
          f"{result.reload_words} back")
    lrf, srf, mem = result.bandwidth.gbps(result.cycles, result.clock_ghz)
    print(f"  bandwidth:    LRF {lrf:.0f} / SRF {srf:.1f} / "
          f"memory {mem:.2f} GB/s "
          f"({result.bandwidth.locality_fraction:.1%} on-chip)")
    print(f"  {_cache_summary()}")
    if analytical:
        print(f"  predicted in {profiler.seconds('simulate') * 1e3:.2f} ms "
              "(totals only; --mode simulated adds the per-op timeline)")
    if args.timeline:
        for record in result.records:
            print(f"    [{record.start:>9}..{record.finish:>9}] "
                  f"{record.label}")
    if args.gantt:
        from .analysis.timeline import render_gantt

        print()
        print(render_gantt(result))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.application not in APPLICATION_ORDER:
        print(f"unknown application {args.application!r}; "
              f"available: {', '.join(APPLICATION_ORDER)}", file=sys.stderr)
        return 2
    from .analysis.timeline import render_trace

    tracer = Tracer()
    result, profiler = _evaluate(
        args, tracer=tracer, metrics=MetricsRegistry()
    )
    print(render_trace(tracer, max_rows_per_resource=args.rows))
    print(f"({result.cycles} cycles simulated in "
          f"{profiler.seconds('simulate') * 1e3:.1f} ms wall, "
          f"{profiler.seconds('sim.compile') * 1e3:.1f} ms of it compile)")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(tracer.to_chrome_json(indent=2))
        print(f"wrote Chrome-trace JSON to {args.out} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.manifest_out:
        from .analysis.export import export_run_manifest

        export_run_manifest(
            result,
            args.manifest_out,
            application=args.application,
            timings=profiler.as_dict(),
        )
        print(f"wrote run manifest to {args.manifest_out}")
    return 0


def cmd_schedules(args: argparse.Namespace) -> int:
    from .analysis.kernelreport import (
        compilation_report,
        render_compilation_report,
    )

    print(render_compilation_report(compilation_report()))
    return 0


#: Figure renderers: the VLSI cost figures (6-11) and the kernel
#: studies (13/14/table5) the sweep engine memoizes.
_FIGURES = {
    "fig6": lambda: render_stack_figure(
        "Figure 6: area/ALU, intracluster (C=8, norm N=5)",
        figure6_area_intracluster(), "N"),
    "fig7": lambda: render_stack_figure(
        "Figure 7: energy/op, intracluster (C=8, norm N=5)",
        figure7_energy_intracluster(), "N"),
    "fig8": lambda: render_delay_figure(
        "Figure 8: delays, intracluster (C=8)",
        figure8_delay_intracluster(), "N"),
    "fig9": lambda: render_stack_figure(
        "Figure 9: area/ALU, intercluster (N=5, norm C=8)",
        figure9_area_intercluster(), "C"),
    "fig10": lambda: render_stack_figure(
        "Figure 10: energy/op, intercluster (N=5, norm C=8)",
        figure10_energy_intercluster(), "C"),
    "fig11": lambda: render_delay_figure(
        "Figure 11: delays, intercluster (N=5)",
        figure11_delay_intercluster(), "C"),
    "fig13": lambda: render_speedup_figure(
        "Figure 13: intracluster kernel speedup",
        figure13_kernel_speedups(), "N"),
    "fig14": lambda: render_speedup_figure(
        "Figure 14: intercluster kernel speedup",
        figure14_kernel_speedups(), "C"),
    "table5": lambda: render_grid(
        "Table 5: kernel performance per unit area",
        table5_performance_per_area(),
        TABLE5_C_VALUES, TABLE5_N_VALUES),
}


def cmd_figures(args: argparse.Namespace) -> int:
    names = args.only or sorted(_FIGURES)
    for name in names:
        if name not in _FIGURES:
            print(f"unknown figure {name!r}; "
                  f"available: {', '.join(sorted(_FIGURES))}",
                  file=sys.stderr)
            return 2
        print(_FIGURES[name]())
        print()
    return 0


def _sweep_meta(engine, elapsed: float) -> dict:
    """Volatile sweep context for ``--json`` envelopes: engine memo and
    compile-cache counters, checkpoint statistics, wall-clock."""
    cache = default_cache()
    meta = {
        "elapsed_s": round(elapsed, 6),
        "engine": engine.stats(),
        "compile_cache": {**cache.stats(), "hit_rate": cache.hit_rate},
    }
    if engine.checkpoint is not None and engine.checkpoint.enabled:
        meta["checkpoint"] = {
            **engine.checkpoint.stats(),
            "root": str(engine.checkpoint.root),
        }
    return meta


def cmd_report(args: argparse.Namespace) -> int:
    """Figures 13/14 + Table 5 (and Figure 15 with ``--apps``) in one
    run, followed by a one-line compile/cache summary."""
    import time

    from .analysis.sweep import default_engine

    started = time.perf_counter()
    if args.json:
        from .api import SweepRequest, run_sweep

        targets = ["fig13", "fig14", "table5"]
        if args.apps:
            targets.append("fig15")
        studies = {
            target: run_sweep(
                SweepRequest(target, mode=args.mode)
            ).to_dict()
            for target in targets
        }
        elapsed = time.perf_counter() - started
        meta = _sweep_meta(default_engine(), elapsed)
        meta["mode"] = args.mode
        return _emit_envelope(
            "report",
            {"studies": studies},
            meta=meta,
        )
    for name in ("fig13", "fig14", "table5"):
        print(_FIGURES[name]())
        print()
    if args.apps:
        from .analysis.perf import figure15_application_performance

        print("Figure 15: application performance (speedup over C=8/N=5)")
        for point in figure15_application_performance(mode=args.mode):
            config = point.config
            print(f"  {point.application:10s} C={config.clusters:3d} "
                  f"N={config.alus_per_cluster:2d}  "
                  f"{point.speedup:6.2f}x  {point.gops:7.1f} GOPS")
        print()
    elapsed = time.perf_counter() - started
    engine = default_engine()
    engine_stats = engine.stats()
    print(f"compile summary: {engine_stats['rate_cached']} kernel-config "
          f"points ({engine_stats['rate_misses']} compiled, "
          f"{engine_stats['rate_hits']} memo hits); "
          f"{_cache_summary()}; {elapsed:.2f}s wall")
    if args.mode == "analytical":
        print("mode: analytical (closed-form model: the same totals, "
              "without per-op records)")
    if engine.checkpoint is not None and engine.checkpoint.enabled:
        ck = engine.checkpoint.stats()
        print(f"checkpoint: {ck['loads']} points restored, "
              f"{ck['writes']} written, {ck['corrupt']} corrupt "
              f"({engine.checkpoint.root})")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from .analysis.export import export_all

    written = export_all(args.out, include_applications=args.apps)
    for path in written:
        print(path)
    print(f"wrote {len(written)} CSV files to {args.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from .analysis.validate import render_validation, validate_all

    results = validate_all(include_apps=args.apps)
    print(render_validation(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_headline(args: argparse.Namespace) -> int:
    if args.json:
        import time

        from .analysis.sweep import default_engine
        from .api import SweepRequest, run_sweep

        started = time.perf_counter()
        result = run_sweep(SweepRequest("headline", apps=args.apps))
        elapsed = time.perf_counter() - started
        return _emit_envelope(
            "headline",
            result.to_dict(),
            meta=_sweep_meta(default_engine(), elapsed),
        )
    h1 = headline_640(include_apps=args.apps)
    h2 = headline_1280(include_apps=args.apps)
    print("640-ALU (C=128 N=5) vs 40-ALU baseline:")
    print(f"  area/ALU overhead:  {h1.area_per_alu_overhead - 1:+.1%} "
          "(paper +2%)")
    print(f"  energy/op overhead: {h1.energy_per_op_overhead - 1:+.1%} "
          "(paper +7%)")
    print(f"  kernel speedup:     {h1.kernel_speedup:.1f}x (paper 15.3x)")
    if args.apps:
        print(f"  app speedup:        {h1.application_speedup:.1f}x "
              "(paper 8.0x)")
    print(f"  kernel GOPS:        {h1.kernel_gops:.0f} (paper >300)")
    print("1280-ALU (C=128 N=10):")
    print(f"  kernel speedup:     {h2.kernel_speedup:.1f}x (paper 27.9x)")
    if args.apps:
        print(f"  app speedup:        {h2.application_speedup:.1f}x "
              "(paper ~10x)")
    print(f"  peak:               {h2.peak_gops:.0f} GOPS at "
          f"{h2.power_watts:.1f} W (paper >1 TFLOP, <10 W)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .resilience.checkpoint import default_checkpoint_root
    from .serve.daemon import ServerConfig, run_server

    # Real daemons persist jobs by default (next to the sweep
    # checkpoints, so both survive the same restart); in-process test
    # servers stay memory-only unless they opt in.
    job_dir = args.job_dir
    if job_dir is None:
        job_dir = os.environ.get("REPRO_JOB_DIR")
    if job_dir is None:
        checkpoint_root = default_checkpoint_root()
        if checkpoint_root is not None:
            job_dir = str(checkpoint_root.parent / "jobs")
    return run_server(
        ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            request_timeout_s=args.timeout,
            trace_path=args.trace_out,
            fleet=args.fleet,
            join=args.join,
            heartbeat_interval_s=args.heartbeat_interval,
            heartbeat_timeout_s=args.heartbeat_timeout,
            tenants_path=args.tenants,
            job_dir=job_dir,
        )
    )


def cmd_loadgen(args: argparse.Namespace) -> int:
    from .obs.loadgen import (
        LoadgenConfig,
        build_loadgen_envelope,
        render_report,
        run_loadgen,
    )
    from .serve.client import ServeConnectionError

    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        duration_s=args.duration,
        concurrency=args.concurrency,
        mode=args.mode,
        rate=args.rate,
        mix=args.mix,
        request_timeout_s=args.timeout,
        cluster_workers=args.cluster,
        jobs=args.jobs,
        api_key=args.api_key,
    )
    try:
        report = run_loadgen(config)
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:  # bad --mix / --mode
        print(exc, file=sys.stderr)
        return 2
    envelope = build_loadgen_envelope(
        report, meta={"target": f"{args.host}:{args.port}"}
    )
    if args.out:
        # Append one compact line per run: the perf-trajectory file
        # (BENCH_serve.json) grows by one point per CI run.
        with open(args.out, "a") as handle:
            handle.write(
                json.dumps(envelope, sort_keys=True,
                           separators=(",", ":")) + "\n"
            )
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        print(render_report(report))
    return 0 if report["overall"]["ok"] > 0 else 1


def _job_client(args: argparse.Namespace):
    from .serve.client import ServeClient

    return ServeClient(
        args.host, args.port,
        timeout=getattr(args, "timeout", 120.0),
        api_key=args.api_key,
    )


def _print_job_status(status: dict, meta: Optional[dict] = None) -> None:
    print(f"job {status.get('job_id')}: {status.get('state')}")
    print(f"  target:   {status.get('target')} "
          f"(mode={status.get('mode')}"
          + (f", kernel={status['kernel']}" if status.get("kernel") else "")
          + ")")
    print(f"  tenant:   {status.get('tenant')}")
    print(f"  points:   {status.get('points_done')}/"
          f"{status.get('points_total')}")
    if status.get("error"):
        print(f"  error:    {status['error']}")
    if meta:
        wait = meta.get("queue_wait_ms")
        run = meta.get("run_ms")
        if wait is not None:
            print(f"  queued:   {wait} ms")
        if run is not None:
            print(f"  running:  {run} ms")


def _job_failure(response) -> int:
    error = response.error or {}
    code = error.get("code", f"http_{response.status}")
    message = error.get("message", "request failed")
    print(f"error [{code}]: {message}", file=sys.stderr)
    return 2


def cmd_job_submit(args: argparse.Namespace) -> int:
    from .serve.client import ServeConnectionError

    client = _job_client(args)
    try:
        response = client.submit_job(
            args.target,
            apps=args.apps,
            mode=args.mode,
            kernel=args.kernel or "",
        )
        if response.status != 202:
            return _job_failure(response)
        status = response.data or {}
        job_id = status.get("job_id", "")
        if args.wait:
            response = client.wait_job(job_id, timeout_s=args.timeout)
            status = response.data or {}
        if args.json:
            print(json.dumps(response.payload, indent=2))
            return 0 if status.get("state") in ("queued", "done") else 1
        _print_job_status(status, (response.payload or {}).get("meta"))
        if not args.wait:
            print(f"  poll:     repro job status {job_id}")
            print(f"  watch:    repro job watch {job_id}")
        return 0 if status.get("state") in ("queued", "done") else 1
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_job_status(args: argparse.Namespace) -> int:
    from .serve.client import ServeConnectionError

    client = _job_client(args)
    try:
        response = client.job_status(args.job_id)
        if response.status != 200:
            return _job_failure(response)
        if args.json:
            print(json.dumps(response.payload, indent=2))
        else:
            _print_job_status(response.data or {},
                              (response.payload or {}).get("meta"))
        return 0
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_job_result(args: argparse.Namespace) -> int:
    from .serve.client import ServeConnectionError

    client = _job_client(args)
    try:
        response = client.job_result(args.job_id)
        if response.status != 200:
            return _job_failure(response)
        print(json.dumps(response.payload, indent=2))
        return 0
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_job_watch(args: argparse.Namespace) -> int:
    from .serve.client import ServeConnectionError

    client = _job_client(args)
    final_state = None
    try:
        for event in client.job_events(args.job_id, max_s=args.timeout):
            kind = event.get("event")
            if kind == "error":
                print(f"error [{event.get('code')}]: stream rejected",
                      file=sys.stderr)
                return 2
            if kind == "job_point":
                print(f"  point {event.get('points_done')}/"
                      f"{event.get('points_total')}")
            elif kind == "job_state":
                print(f"  state -> {event.get('state')}")
            elif kind == "job_end":
                final_state = event.get("state")
                print(f"job {args.job_id}: {final_state}")
                break
        if final_state is None:
            print("stream ended before job_end (daemon restart or "
                  "deadline); poll `repro job status`", file=sys.stderr)
            return 1
        return 0 if final_state == "done" else 1
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_job_cancel(args: argparse.Namespace) -> int:
    from .serve.client import ServeConnectionError

    client = _job_client(args)
    try:
        response = client.cancel_job(args.job_id)
        if response.status != 200:
            return _job_failure(response)
        status = response.data or {}
        print(f"job {args.job_id}: {status.get('state')}")
        return 0
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_job_list(args: argparse.Namespace) -> int:
    from .serve.client import ServeConnectionError

    client = _job_client(args)
    try:
        response = client.list_jobs()
        if response.status != 200:
            return _job_failure(response)
        if args.json:
            print(json.dumps(response.payload, indent=2))
            return 0
        jobs = (response.data or {}).get("jobs", [])
        if not jobs:
            print("no jobs")
            return 0
        print(f"{'job id':<18} {'state':<10} {'target':<10} "
              f"{'points':>9} tenant")
        for status in jobs:
            print(f"{status.get('job_id', ''):<18} "
                  f"{status.get('state', ''):<10} "
                  f"{status.get('target', ''):<10} "
                  f"{status.get('points_done', 0):>4}/"
                  f"{status.get('points_total', 0):<4} "
                  f"{status.get('tenant', '')}")
        return 0
    except ServeConnectionError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        client.close()


def cmd_kernel_register(args: argparse.Namespace) -> int:
    from .api import ApiError, RegisterKernelRequest, run_register

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"cannot read kernel file {args.file}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"kernel file {args.file} is not JSON: {exc}",
              file=sys.stderr)
        return 2
    try:
        result = run_register(RegisterKernelRequest(document))
    except ApiError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.json:
        return _emit_envelope("kernels", result.to_dict())
    print(f"registered kernel '{result.name}'")
    print(f"  ref:      {result.ref}")
    print(f"  nodes:    {result.nodes} "
          f"({result.alu_ops} ALU ops, {result.srf_accesses} SRF, "
          f"{result.comms} comms, {result.sp_accesses} scratchpad)")
    print(f"  inputs:   {', '.join(result.input_streams) or '-'}")
    print(f"  outputs:  {', '.join(result.output_streams) or '-'}")
    print(f"  compile:  repro compile {result.ref}")
    print(f"  simulate: repro simulate {result.ref}")
    return 0


def cmd_kernel_list(args: argparse.Namespace) -> int:
    from .frontend.registry import default_registry

    kernels = default_registry().list()
    if args.json:
        return _emit_envelope("kernels", {"kernels": kernels})
    if not kernels:
        print("no registered kernels")
        return 0
    for entry in kernels:
        print(f"{entry['ref']}")
        print(f"  name: {entry['name']}  nodes: {entry['nodes']}  "
              f"alu_ops: {entry['alu_ops']}")
    return 0


def cmd_kernel_show(args: argparse.Namespace) -> int:
    from .frontend.registry import (
        KERNEL_REF_PREFIX,
        default_registry,
        summarize,
    )

    registry = default_registry()
    ref = args.ref
    if not ref.startswith(KERNEL_REF_PREFIX):
        ref = KERNEL_REF_PREFIX + ref
    try:
        entry = registry.resolve(ref)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    document = entry.document
    summary = dict(summarize(entry.kernel_id, document))
    if args.json:
        summary["document"] = document
        return _emit_envelope("kernel", summary)
    print(f"kernel '{summary['name']}' ({summary['ref']})")
    print(f"  nodes:    {summary['nodes']} "
          f"({summary['alu_ops']} ALU ops, {summary['srf_accesses']} SRF, "
          f"{summary['comms']} comms, {summary['sp_accesses']} scratchpad)")
    print(f"  inputs:   {', '.join(summary['input_streams']) or '-'}")
    print(f"  outputs:  {', '.join(summary['output_streams']) or '-'}")
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream-processor VLSI scalability (HPCA 2003) tools",
    )
    _add_logging_arguments(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    costs = sub.add_parser("costs", help="evaluate the VLSI cost model")
    _add_config_arguments(costs)
    costs.add_argument("--floorplan", action="store_true",
                       help="print the Figure 4/5 physical geometry")
    costs.add_argument("--json", action="store_true",
                       help="emit a versioned JSON envelope")
    costs.set_defaults(func=cmd_costs)

    comp = sub.add_parser("compile", help="compile a suite kernel")
    comp.add_argument("kernel", nargs="?", default=None,
                      help="kernel name (e.g. fft) or a registered "
                           "kernel:<hash> reference")
    comp.add_argument("--kernel-file", metavar="PATH", default=None,
                      help="register the kernel document at PATH and "
                           "compile it")
    _add_config_arguments(comp)
    comp.add_argument("--json", action="store_true",
                      help="emit a versioned JSON envelope")
    _add_cache_arguments(comp)
    comp.set_defaults(func=cmd_compile)

    kern = sub.add_parser(
        "kernel",
        help="register and inspect user kernel documents",
    )
    ksub = kern.add_subparsers(dest="kernel_command", required=True)
    kreg = ksub.add_parser(
        "register", help="validate + register a kernel document"
    )
    kreg.add_argument("file", help="path to a kernel JSON document")
    kreg.add_argument("--json", action="store_true",
                      help="emit a versioned JSON envelope")
    kreg.set_defaults(func=cmd_kernel_register)
    klist = ksub.add_parser("list", help="list registered kernels")
    klist.add_argument("--json", action="store_true",
                       help="emit a versioned JSON envelope")
    klist.set_defaults(func=cmd_kernel_list)
    kshow = ksub.add_parser(
        "show", help="print one registered kernel's document"
    )
    kshow.add_argument("ref", help="kernel:<hash> ref, bare hash, or a "
                                   "unique prefix (>= 8 hex chars)")
    kshow.add_argument("--json", action="store_true",
                       help="emit a versioned JSON envelope")
    kshow.set_defaults(func=cmd_kernel_show)

    sim = sub.add_parser("simulate", help="simulate an application")
    sim.add_argument("application", nargs="?", default=None,
                     help="application name (e.g. depth) or a "
                          "registered kernel:<hash> reference")
    sim.add_argument("--kernel-file", metavar="PATH", default=None,
                     help="register the kernel document at PATH and "
                          "simulate its microbenchmark")
    _add_config_arguments(sim)
    sim.add_argument("--timeline", action="store_true",
                     help="print the stream-operation timeline")
    sim.add_argument("--gantt", action="store_true",
                     help="draw a proportional ASCII Gantt chart")
    sim.add_argument("--json", action="store_true",
                     help="emit a machine-readable run manifest instead "
                          "of the human summary")
    sim.add_argument("--trace-out", metavar="PATH",
                     help="also write a Chrome-trace-format JSON trace")
    sim.add_argument("--max-events", type=int, default=DEFAULT_MAX_EVENTS,
                     help="event budget before declaring livelock")
    sim.add_argument("--mode", choices=("simulated", "analytical"),
                     default="simulated",
                     help="simulated (default): totals plus the per-op "
                          "timeline; analytical: totals only")
    _add_cache_arguments(sim)
    sim.set_defaults(func=cmd_simulate)

    trace = sub.add_parser(
        "trace", help="simulate with full event tracing"
    )
    trace.add_argument("application", help="application name (e.g. depth)")
    _add_config_arguments(trace)
    trace.add_argument("--out", metavar="PATH",
                       help="write Chrome-trace JSON (Perfetto-loadable)")
    trace.add_argument("--manifest-out", metavar="PATH",
                       help="write the run manifest JSON")
    trace.add_argument("--rows", type=int, default=40,
                       help="max timeline rows per resource")
    trace.add_argument("--max-events", type=int, default=DEFAULT_MAX_EVENTS,
                       help="event budget before declaring livelock")
    _add_cache_arguments(trace)
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser(
        "schedules", help="per-kernel compilation report (II, bounds...)"
    )
    report.set_defaults(func=cmd_schedules)

    figs = sub.add_parser("figures", help="regenerate tables/figures")
    figs.add_argument("--only", nargs="*",
                      help=f"subset: {', '.join(sorted(_FIGURES))}")
    _add_cache_arguments(figs)
    _add_checkpoint_arguments(figs)
    figs.set_defaults(func=cmd_figures)

    rep = sub.add_parser(
        "report",
        help="performance studies (figs 13/14, table 5) + cache summary",
    )
    rep.add_argument("--apps", action="store_true",
                     help="include the Figure 15 application sweep (slower)")
    rep.add_argument("--json", action="store_true",
                     help="emit every study as one versioned JSON envelope")
    rep.add_argument("--mode", choices=("simulated", "analytical"),
                     default="simulated",
                     help="records (simulated) or totals only "
                          "(analytical); the studies are identical")
    _add_cache_arguments(rep)
    _add_checkpoint_arguments(rep)
    rep.set_defaults(func=cmd_report)

    head = sub.add_parser("headline", help="check the headline claims")
    head.add_argument("--apps", action="store_true",
                      help="include application simulations (slower)")
    head.add_argument("--json", action="store_true",
                      help="emit a versioned JSON envelope")
    head.set_defaults(func=cmd_headline)

    serve = sub.add_parser(
        "serve",
        help="long-running batched JSON-over-HTTP daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8712,
                       help="bind port; 0 picks an ephemeral port")
    serve.add_argument("--workers", type=int, default=1,
                       help="batch executor width; 1 (default) runs "
                            "in-process and shares the warm caches")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="pending-request bound before 429 responses")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="largest batch handed to the executor")
    serve.add_argument("--timeout", type=float, default=60.0,
                       help="per-request seconds before a 504 response")
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome trace of the serving window "
                            "on shutdown")
    serve.add_argument("--fleet", type=int, default=0,
                       help="cluster mode: spawn N local worker daemons "
                            "and shard sweeps over them")
    serve.add_argument("--join", metavar="HOST:PORT", default=None,
                       help="cluster mode: register this daemon as a "
                            "worker with the coordinator at HOST:PORT")
    serve.add_argument("--heartbeat-interval", type=float, default=2.0,
                       help="worker heartbeat period in seconds")
    serve.add_argument("--heartbeat-timeout", type=float, default=6.0,
                       help="seconds without a heartbeat before the "
                            "coordinator declares a worker dead")
    serve.add_argument("--tenants", metavar="FILE", default=None,
                       help="tenant registry JSON (API keys, weights, "
                            "rate limits, quotas); omit for open mode")
    serve.add_argument("--job-dir", metavar="DIR", default=None,
                       help="persistent job store directory (default: "
                            "$REPRO_JOB_DIR, else a `jobs` dir next to "
                            "the sweep checkpoints)")
    _add_cache_arguments(serve)
    _add_logging_arguments(serve, suppress=True)
    serve.set_defaults(func=cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a live daemon with a mixed workload; report SLOs",
    )
    loadgen.add_argument("--host", default="127.0.0.1",
                         help="daemon address (default: 127.0.0.1)")
    loadgen.add_argument("--port", type=int, default=8712,
                         help="daemon port (default: 8712)")
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="seconds to drive load (default: 5)")
    loadgen.add_argument("--concurrency", type=int, default=4,
                         help="client workers (default: 4)")
    loadgen.add_argument("--mode", choices=("closed", "open"),
                         default="closed",
                         help="closed: saturation-seeking (one in-flight "
                              "request per worker); open: fixed-rate "
                              "arrivals")
    loadgen.add_argument("--rate", type=float, default=50.0,
                         help="open-loop offered requests/second")
    loadgen.add_argument("--mix", default="costs=6,compile=2,simulate=1",
                         help="endpoint weights, e.g. "
                              "costs=6,compile=2,simulate=1,sweep=1")
    loadgen.add_argument("--timeout", type=float, default=120.0,
                         help="per-request client timeout seconds")
    loadgen.add_argument("--cluster", type=int, default=None,
                         help="record this worker-fleet size in the SLO "
                              "report (default: auto-detect from the "
                              "daemon's /v1/cluster/stats)")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the SLO report as a versioned "
                              "JSON envelope")
    loadgen.add_argument("--out", metavar="PATH", default=None,
                         help="append the envelope as one compact JSON "
                              "line (perf-trajectory file)")
    loadgen.add_argument("--jobs", action="store_true",
                         help="drive the async job surface (submit + "
                              "poll analytical jobs) instead of the "
                              "synchronous mix; the report gains "
                              "server-side queue-wait percentiles")
    loadgen.add_argument("--api-key", default=None,
                         help="X-Api-Key for multi-tenant daemons")
    _add_logging_arguments(loadgen, suppress=True)
    loadgen.set_defaults(func=cmd_loadgen)

    job = sub.add_parser(
        "job",
        help="submit and track async sweep jobs on a daemon",
    )
    jsub = job.add_subparsers(dest="job_command", required=True)

    def _add_job_client_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default="127.0.0.1",
                            help="daemon address (default: 127.0.0.1)")
        parser.add_argument("--port", type=int, default=8712,
                            help="daemon port (default: 8712)")
        parser.add_argument("--api-key", default=None,
                            help="X-Api-Key for multi-tenant daemons")
        parser.add_argument("--timeout", type=float, default=600.0,
                            help="client wait/stream budget in seconds")

    jsubmit = jsub.add_parser(
        "submit", help="POST a sweep as an async job (202 + job id)"
    )
    jsubmit.add_argument("target",
                         help="figure/table study (fig13, fig14, fig15, "
                              "table5, headline)")
    jsubmit.add_argument("--apps", action="store_true",
                         help="include application simulations")
    jsubmit.add_argument("--mode", choices=("simulated", "analytical"),
                         default="simulated",
                         help="records (simulated) or totals only "
                              "(analytical) for the sweep points")
    jsubmit.add_argument("--kernel", default="",
                         help="restrict a kernel study to one suite "
                              "name or kernel:<hash> reference")
    jsubmit.add_argument("--wait", action="store_true",
                         help="block until the job reaches a terminal "
                              "state")
    jsubmit.add_argument("--json", action="store_true",
                         help="emit the job envelope as JSON")
    _add_job_client_args(jsubmit)
    jsubmit.set_defaults(func=cmd_job_submit)

    jstatus = jsub.add_parser("status", help="poll one job's state")
    jstatus.add_argument("job_id", help="job id from `repro job submit`")
    jstatus.add_argument("--json", action="store_true",
                         help="emit the job envelope as JSON")
    _add_job_client_args(jstatus)
    jstatus.set_defaults(func=cmd_job_status)

    jresult = jsub.add_parser(
        "result", help="fetch a done job's sweep result (JSON envelope)"
    )
    jresult.add_argument("job_id", help="job id from `repro job submit`")
    _add_job_client_args(jresult)
    jresult.set_defaults(func=cmd_job_result)

    jwatch = jsub.add_parser(
        "watch", help="stream a job's per-point events until it ends"
    )
    jwatch.add_argument("job_id", help="job id from `repro job submit`")
    _add_job_client_args(jwatch)
    jwatch.set_defaults(func=cmd_job_watch)

    jcancel = jsub.add_parser("cancel", help="cancel a queued/running job")
    jcancel.add_argument("job_id", help="job id from `repro job submit`")
    _add_job_client_args(jcancel)
    jcancel.set_defaults(func=cmd_job_cancel)

    jlist = jsub.add_parser("list", help="list this tenant's jobs")
    jlist.add_argument("--json", action="store_true",
                       help="emit the jobs envelope as JSON")
    _add_job_client_args(jlist)
    jlist.set_defaults(func=cmd_job_list)

    val = sub.add_parser(
        "validate", help="check every paper anchor (exit 1 on failure)"
    )
    val.add_argument("--apps", action="store_true",
                     help="include application simulations (slower)")
    val.set_defaults(func=cmd_validate)

    export = sub.add_parser(
        "export", help="write every figure/table as CSV"
    )
    export.add_argument("--out", default="paper_data",
                        help="output directory (default: paper_data)")
    export.add_argument("--apps", action="store_true",
                        help="include the Figure 15 sweep (slower)")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .obs.log import bind_request_id

    args = build_parser().parse_args(argv)
    request_id = _apply_logging_arguments(args)
    scope = (
        bind_request_id(request_id)
        if request_id is not None else nullcontext()
    )
    with scope:
        _apply_cache_arguments(args)
        _apply_checkpoint_arguments(args)
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
