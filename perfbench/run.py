"""Benchmark of the stream-processor reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures one workload untraced and reports the end-to-end
metrics; ``--trace 1`` is the traced run that reports the per-layer
metrics (see ``metrics.py`` and ``README.md``).  ``--workload all``
runs the four workloads one after another, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

from common import (
    ROOT, SRC, WORK, HostSpeed, Outcome, fresh_dir, isolated_env, median,
    remove_dir, settle,
)
from metrics import END_TO_END, LATENCY_PREFIXES, LAYERS, THROUGHPUT_NAMES
from tracing import Tracer

#: Set-up repetitions per untraced run; setup_s is their median.
SETUPS = 5
#: Calibration samples taken before and after each set-up.
SETUP_SAMPLES = 5


def _workloads():
    from batch import DseAnalytical, SimGrid
    from serving import ServeJobs, ServeMixed

    return {w.name: w for w in (SimGrid, DseAnalytical, ServeMixed, ServeJobs)}


WORKLOAD_ORDER = ("sim-grid", "dse-analytical", "serve-mixed", "serve-jobs")


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: SETUPS set-ups, one measured pass, checks."""
    bench = _workloads()[workload](seed)
    host = HostSpeed()
    outcome = Outcome()
    setups, raw_setups = [], []
    try:
        # Set-up is interpreter start-up, imports and first computations
        # in every workload, so its time is host-scaled too.
        for _ in range(SETUPS):
            first_sample = len(host.samples)
            host.sample(SETUP_SAMPLES)
            raw_setups.append(bench.setup())
            host.sample(SETUP_SAMPLES)
            setups.append(raw_setups[-1] * host.scale(first_sample))
        settle()
        result = bench.run(seconds, Tracer(enabled=False))
        rss = bench.peak_rss_mb()
        bench.check(result, outcome)
    finally:
        bench.close()
        settle()
    values = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": result["throughput"],
        "latency_p50_ms": result["latency_p50"] * 1e3,
        "latency_p75_ms": result["latency_p75"] * 1e3,
    }
    operations = result["operations"]
    print(f"# {workload} seed={seed} seconds={seconds} "
          f"operations={operations}")
    prefix = LATENCY_PREFIXES[workload]
    for name, value in values.items():
        unit = END_TO_END[name][0]
        if name == "throughput_per_s":
            name, unit = THROUGHPUT_NAMES[workload]
        print(f"{name.replace('latency_', prefix)} = {value:.6g} {unit}")
    print(f"# setup_s is scaled to the reference host speed; unscaled "
          f"{median(raw_setups):.6g} s")
    if "raw_throughput" in result:
        print(f"# pass times are scaled too; unscaled "
              f"{THROUGHPUT_NAMES[workload][0]} = "
              f"{result['raw_throughput']:.6g}, host scale "
              f"{result['host_scale']:.4f}")
    # The tail is printed but not scored: between runs on a shared
    # machine it does not hold steady (see README.md).
    for q in (90, 99):
        beyond = int(operations * (100 - q) / 100)
        print(f"{prefix}p{q}_ms = {result[f'latency_p{q}'] * 1e3:.6g} ms "
              f"({beyond} of {operations} beyond; not scored)")
    return _result(outcome, {
        name: {"value": value, "unit": END_TO_END[name][0]}
        for name, value in values.items()
    })


def traced(workload: str, seed: int, seconds: float) -> dict:
    """The traced run: every workload runs an untraced and a traced
    pass of equal length (the named workload longest), so each layer
    metric comes from the workload it maps to and the difference of the
    two passes is the tracing overhead."""
    from probes import layer_probes

    outcome = Outcome()
    layers = {}
    tracers = []
    order = [workload] + [w for w in WORKLOAD_ORDER if w != workload]
    for name in order:
        length = seconds / 2 if name == workload else max(1.0, seconds / 5)
        bench = _workloads()[name](seed)
        try:
            bench.setup()
            settle()
            plain = bench.run(length, Tracer(enabled=False))
            tracer = Tracer()
            result = bench.run(length, tracer)
            bench.check(plain, outcome)
            bench.check(result, outcome)
            for key, value in bench.layer_metrics(result, tracer).items():
                layers.setdefault(key, value)
        finally:
            bench.close()
            settle()
        layers[f"trace.overhead_pct.{name}"] = (
            (plain["throughput"] - result["throughput"])
            / plain["throughput"] * 100.0
        )
        tracers.append((name, tracer))
    layers.update(layer_probes())
    out_dir = WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, tracer in tracers:
        tracer.write(out_dir / f"{workload}-seed{seed}-{name}.json",
                     {"workload": name, "seed": seed})
    print(f"# traced run: {workload} seed={seed} seconds={seconds}; "
          f"spans in {out_dir.relative_to(ROOT)}")
    for name in sorted(LAYERS):
        unit, _, moves, on = LAYERS[name]
        print(f"{name} = {layers[name]:.6g} {unit}  (moves {moves}; on {on})")
    return _result(outcome, {
        name: {"value": layers[name], "unit": LAYERS[name][0]}
        for name in LAYERS
    })


def _result(outcome: Outcome, metrics: dict) -> dict:
    """Print the error rate and failed checks; build the result line."""
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1
    print(f"error_rate = {error_rate:.6g} fraction "
          f"({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes[:20]:
        print(f"# check: {note}")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own process; metrics keyed workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_ORDER:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited {completed.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_ORDER + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC.relative_to(ROOT)}/repro;"
              " run it from the root of a checkout", file=sys.stderr)
        return 2
    # Finally-blocks must run (and stop the daemons) on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        # Everything this process writes goes under the checkout's
        # scratch space, never the user's ~/.cache.
        base = fresh_dir("process")
        os.environ.update(isolated_env(base))
        try:
            run = traced if args.trace else untraced
            result = run(args.workload, args.seed, args.seconds)
        finally:
            remove_dir(base)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
