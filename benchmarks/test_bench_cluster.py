"""Cluster mode: cold-cache sweep throughput vs a single worker.

The coordinator's reason to exist (ISSUE 8 acceptance): sharding a
cold-cache ``table5`` sweep (120 kernel-compile points) over a
4-worker local fleet must be at least 3x faster than the same sweep
through a 1-worker fleet (2.5x relaxed floor for noisy shared
runners), while the reassembled rows stay byte-identical.

Both measurements run the *same* code path — ``repro serve --fleet N``
subprocesses, sweep dispatched through the coordinator — so the ratio
isolates shard parallelism: worker boot, registration, and coordinator
assembly are excluded from the timed window, and every run starts with
a fresh empty compile-cache directory (cold caches are the expensive,
honest case; warm caches would measure memo lookups).

Needs >= 4 usable cores to mean anything (workers are separate
processes pinned by the scheduler); skipped below that.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

from conftest import perf_floor, run_once

from repro.serve.client import ServeClient

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: Sweep points in a cold table5 run (6 kernels x 4 N x 5 C).
TABLE5_POINTS = 120


def _boot_fleet(fleet: int, cache_dir: pathlib.Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_COMPILE_CACHE_DIR"] = str(cache_dir)
    env.pop("REPRO_SWEEP_CHECKPOINT", None)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--fleet", str(fleet),
            "--heartbeat-interval", "0.5",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc


def _await_ready(proc: subprocess.Popen) -> int:
    port = None
    for line in proc.stdout:
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            port = int(match.group(1))
        if "fleet ready" in line:
            assert port is not None
            return port
        if "fleet DEGRADED" in line:
            raise AssertionError(f"fleet failed to boot: {line!r}")
    raise AssertionError("daemon exited before the fleet came up")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def _cold_sweep(fleet: int, cache_dir: pathlib.Path):
    """(seconds, sweep-rows JSON, per-worker shard stats)."""
    proc = _boot_fleet(fleet, cache_dir)
    try:
        port = _await_ready(proc)
        with ServeClient("127.0.0.1", port, timeout=600.0) as client:
            started = time.perf_counter()
            response = client.sweep("table5")
            elapsed = time.perf_counter() - started
            assert response.status == 200, response.payload
            shard_stats = client.cluster_stats().data["workers"]
        return elapsed, response.data, shard_stats
    finally:
        _stop(proc)


@pytest.mark.slow
def test_cluster_sweep_scales_over_workers(benchmark, archive, tmp_path):
    """fleet=4 must beat fleet=1 by >=2.5x (>=3x on quiet machines) on
    a cold table5 sweep, with byte-identical rows."""
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(
            f"needs >=4 cores to measure shard parallelism (found {cores})"
        )

    # Best-of-3 per configuration: each repetition is a fresh fleet on
    # a fresh cache directory, and the minimum is the standard
    # noise-robust estimator for a deterministic workload.
    single_runs = [
        _cold_sweep(1, tmp_path / f"cache1-{i}") for i in range(3)
    ]
    single_s = min(run[0] for run in single_runs)
    single_rows = single_runs[0][1]
    fleet_runs = [_cold_sweep(4, tmp_path / "cache4-0")]
    fleet_runs.append(_cold_sweep(4, tmp_path / "cache4-1"))
    last_s, fleet_rows, shards = run_once(
        benchmark, _cold_sweep, 4, tmp_path / "cache4-2"
    )
    fleet_s = min([run[0] for run in fleet_runs] + [last_s])
    assert fleet_rows == single_rows  # identity before speed
    assert all(run[1] == single_rows for run in single_runs + fleet_runs)

    speedup = single_s / fleet_s
    lines = [
        f"cluster sweep (table5, {TABLE5_POINTS} cold points):",
        f"  fleet=1: {single_s:8.2f} s",
        f"  fleet=4: {fleet_s:8.2f} s   speedup {speedup:5.2f}x",
        "  per-worker shards:",
    ]
    for worker in shards:
        total = max(1, sum(w["points_ok"] for w in shards))
        share = worker["points_ok"] / total
        lines.append(
            f"    {worker['worker_id']:<22} points={worker['points_ok']:>4} "
            f"({share:5.1%})"
        )
    archive("\n".join(lines))

    out = os.environ.get("REPRO_BENCH_CLUSTER_OUT")
    if out:
        envelope = {
            "kind": "bench_cluster",
            "data": {
                "points": TABLE5_POINTS,
                "single_worker_s": round(single_s, 3),
                "fleet4_s": round(fleet_s, 3),
                "speedup": round(speedup, 3),
                "shards": [
                    {"worker": w["worker_id"], "points_ok": w["points_ok"]}
                    for w in shards
                ],
            },
        }
        with open(out, "a") as handle:
            handle.write(
                json.dumps(envelope, sort_keys=True,
                           separators=(",", ":")) + "\n"
            )

    floor = perf_floor(strict=3.0, relaxed=2.5)
    assert speedup >= floor, (
        f"4-worker fleet only {speedup:.2f}x over a single worker "
        f"(floor {floor}x) — shard dispatch is not scaling"
    )
