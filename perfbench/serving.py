"""The two served workloads: ``serve-mixed`` and ``serve-jobs``.

Each drives a ``repro serve`` daemon, started as a subprocess with
default flags on an ephemeral port, from two closed-loop clients in
this process.  Every daemon gets its own schedule-cache, checkpoint,
kernel-registry and job directories, and is stopped and reaped even
when a run fails.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import gen
from common import (
    Outcome, child_env, fresh_dir, isolated_env, median, percentile,
    op_stats, pid_peak_rss_mb, remove_dir,
)
from tracing import Tracer

CLIENTS = 2
READY_TIMEOUT_S = 60.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class Daemon:
    """One ``repro serve`` subprocess with isolated on-disk state."""

    def __init__(self, label: str):
        self.base = fresh_dir(label)
        self.env = isolated_env(self.base)
        self.job_dir = Path(self.env["REPRO_JOB_DIR"])
        self.log = self.base / "daemon.log"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn the daemon; returns seconds until ``/healthz`` is 200."""
        from repro.serve.client import ServeClient, ServeConnectionError

        started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--job-dir", str(self.job_dir)],
                env=child_env(self.env), stdout=log,
                stderr=subprocess.STDOUT, cwd=self.base,
            )
        deadline = started + READY_TIMEOUT_S
        while not self.port:
            match = _LISTENING.search(self.log.read_text(errors="replace"))
            if match:
                self.port = int(match.group(2))
            elif self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    f"daemon did not start: {self.log.read_text()[-2000:]}"
                )
            else:
                time.sleep(0.005)
        while True:
            try:
                with ServeClient("127.0.0.1", self.port, timeout=5) as probe:
                    if probe.health().status == 200:
                        return time.perf_counter() - started
            except (ServeConnectionError, OSError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.005)

    def client(self):
        from repro.serve.client import ServeClient

        # No backpressure retries: a 429/503 is a refused operation.
        return ServeClient("127.0.0.1", self.port, timeout=60,
                           backpressure_retries=0)

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then SIGKILL if it lingers;
        always reaps the process and removes its directories."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        remove_dir(self.base)


def _rate(end_times: List[float], start: float, seconds: float) -> float:
    """Operations completed inside the window, per second."""
    return sum(1 for end in end_times if end < start + seconds) / seconds


def _kernel_document() -> dict:
    """A user kernel: the suite's ``update`` kernel exported as a
    document under its own name, so it registers under a new hash."""
    from repro.frontend.loader import document_from_graph
    from repro.kernels.suite import get_kernel

    document = document_from_graph(get_kernel("update"))
    document["name"] = "user_update"
    return document


def _quantile_from_buckets(buckets: Dict[float, float], q: float) -> float:
    """Quantile of a cumulative bucket histogram (upper bound of the
    bucket that crosses ``q``)."""
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total <= 0:
        return 0.0
    for bound in bounds:
        if buckets[bound] >= q * total:
            return bound
    return bounds[-1]


def _parse_prometheus(text: str) -> Dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


def _histogram_delta(before, after, prom: str) -> Dict[float, float]:
    buckets = {}
    prefix = f'{prom}_bucket{{le="'
    for key, value in after.items():
        if key.startswith(prefix):
            bound = key[len(prefix):-2]
            le = float("inf") if bound == "+Inf" else float(bound)
            buckets[le] = value - before.get(key, 0.0)
    return buckets


class _Served:
    """Shared set-up and teardown of the two served workloads."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.daemon: Optional[Daemon] = None
        self.ready_s = 0.0
        self.register_ms = 0.0
        self.kernel_ref = ""

    def setup(self) -> float:
        started = time.perf_counter()
        self.close()
        self.daemon = Daemon(self.name)
        self.ready_s = self.daemon.start()
        with self.daemon.client() as client:
            registered = time.perf_counter()
            response = client.register_kernel(_kernel_document())
            self.register_ms = (time.perf_counter() - registered) * 1e3
            if not response.ok:
                raise RuntimeError(f"kernel registration failed: "
                                   f"{response.status} {response.payload}")
            self.kernel_ref = response.data["ref"]
            self.warm(client)
        return time.perf_counter() - started

    def warm(self, client) -> None:
        raise NotImplementedError

    def _point_in_process_at_daemon_state(self) -> None:
        """Point this process's registry and schedule cache at the
        daemon's directories, for the in-process reference outputs."""
        from repro.compiler.cache import configure_default_cache
        from repro.frontend.registry import configure_default_registry

        configure_default_registry(self.daemon.env["REPRO_KERNEL_REGISTRY_DIR"])
        configure_default_cache(self.daemon.env["REPRO_COMPILE_CACHE_DIR"])

    def peak_rss_mb(self) -> float:
        return self.daemon.peak_rss_mb()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _drive(self, seconds: float, worker) -> float:
        """Run ``worker(client_index, deadline)`` on CLIENTS threads;
        returns the window start."""
        errors: List[BaseException] = []

        def guarded(index: int, deadline: float) -> None:
            try:
                worker(index, deadline)
            except BaseException as exc:  # re-raised in the caller
                errors.append(exc)

        start = time.perf_counter()
        deadline = start + seconds
        threads = [
            threading.Thread(target=guarded, args=(i, deadline), daemon=True)
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("a client thread did not finish")
        if errors:
            raise errors[0]
        return start


class ServeMixed(_Served):
    """Cheap reads against a warm daemon: costs, compiles (suite and
    registered kernels), analytical and warmed simulated points, and
    single-kernel analytical sweeps."""

    name = "serve-mixed"

    def warm(self, client) -> None:
        self.pool = gen.serve_mixed_pool(self.seed, self.kernel_ref)
        for kind, body in self.pool:
            response = client.post(kind, body)
            if not response.ok:
                raise RuntimeError(f"warm-up {kind} {body} failed: "
                                   f"{response.status} {response.payload}")

    def run(self, seconds: float, tracer: Tracer) -> dict:
        samples: List[List[tuple]] = [[] for _ in range(CLIENTS)]
        length = int(seconds * 2000) + len(self.pool)
        orders = [
            gen.request_order(self.seed, len(self.pool), i, length)
            for i in range(CLIENTS)
        ]
        metrics_before = metrics_after = None
        if tracer.enabled:
            with self.daemon.client() as client:
                metrics_before = _parse_prometheus(client.prometheus_metrics())

        def worker(index: int, deadline: float) -> None:
            out = samples[index]
            with self.daemon.client() as client:
                for count, pool_index in enumerate(orders[index]):
                    if time.perf_counter() >= deadline:
                        return
                    kind, body = self.pool[pool_index]
                    started = time.perf_counter()
                    try:
                        with tracer.span(f"serve.{kind}", f"c{index}.{count}"):
                            response = client.post(kind, body)
                        ended = time.perf_counter()
                        data = response.data if response.ok else None
                        out.append((pool_index, response.status, data,
                                    ended - started, ended))
                    except OSError as exc:
                        ended = time.perf_counter()
                        out.append((pool_index, repr(exc), None,
                                    ended - started, ended))

        start = self._drive(seconds, worker)
        if tracer.enabled:
            with self.daemon.client() as client:
                metrics_after = _parse_prometheus(client.prometheus_metrics())
        flat = [s for client_samples in samples for s in client_samples]
        ok = [s for s in flat if s[2] is not None]
        return {
            **op_stats([s[3] for s in ok], _rate([s[4] for s in ok], start,
                                                 seconds)),
            "samples": flat,
            "metrics": (metrics_before, metrics_after),
        }

    def check(self, result: dict, outcome: Outcome) -> None:
        """Each distinct response body equals in-process
        ``repro.api.execute(req).to_json()`` byte for byte."""
        from repro.api import execute, request_from_dict

        self._point_in_process_at_daemon_state()
        expected: Dict[int, str] = {}
        outcome.attempted += len(result["samples"])
        for pool_index, status, data, _, _ in result["samples"]:
            if data is None:
                outcome.fail(1, f"request {self.pool[pool_index]} -> {status}")
                continue
            if pool_index not in expected:
                kind, body = self.pool[pool_index]
                expected[pool_index] = execute(
                    request_from_dict(kind, body)
                ).to_json()
            if _canonical(data) != expected[pool_index]:
                outcome.fail(1, f"response to {self.pool[pool_index]} "
                                "differs from in-process execute")

    def layer_metrics(self, result: dict, tracer: Tracer) -> Dict[str, float]:
        from repro.api import execute, request_from_dict
        from repro.frontend.registry import default_registry

        metrics: Dict[str, float] = {}
        execute_us: Dict[str, List[float]] = {}
        for kind, body in self.pool:
            request = request_from_dict(kind, body)
            execute(request).to_json()
            started = time.perf_counter()
            execute(request).to_json()
            execute_us.setdefault(kind, []).append(
                (time.perf_counter() - started) * 1e6
            )
        for kind in ("costs", "compile", "simulate", "sweep"):
            client_ms = [d * 1e3 for d in tracer.durations(f"serve.{kind}")]
            metrics[f"serve.client_p50_ms.{kind}"] = percentile(client_ms, 50)
            metrics[f"serve.client_p99_ms.{kind}"] = percentile(client_ms, 99)
            metrics[f"api.execute_us.{kind}"] = median(execute_us[kind])
            metrics[f"serve.overhead_p50_ms.{kind}"] = (
                metrics[f"serve.client_p50_ms.{kind}"]
                - metrics[f"api.execute_us.{kind}"] / 1e3
            )
        before, after = result["metrics"]
        metrics["serve.server_p50_ms"] = _quantile_from_buckets(
            _histogram_delta(before, after, "repro_serve_request_seconds"),
            0.5) * 1e3
        metrics["serve.batch_p50_ms"] = _quantile_from_buckets(
            _histogram_delta(before, after, "repro_serve_batch_seconds"),
            0.5) * 1e3

        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        batches = delta("repro_serve_batch_size_count")
        metrics["serve.batch_size_mean"] = (
            delta("repro_serve_batch_size_sum") / batches if batches else 0.0
        )
        metrics["serve.batches"] = delta("repro_serve_batches")
        metrics["serve.dedup_hits"] = delta("repro_serve_dedup_hits")
        registry = default_registry()
        resolve_us = []
        for _ in range(200):
            started = time.perf_counter()
            registry.resolve(self.kernel_ref)
            resolve_us.append((time.perf_counter() - started) * 1e6)
        metrics["frontend.resolve_us"] = median(resolve_us)
        metrics["frontend.register_ms"] = self.register_ms
        metrics["serve.ready_s"] = self.ready_s
        return metrics


class ServeJobs(_Served):
    """Analytical sweep jobs carried from submit to fetched result: the
    daemon's durable path (job store, runner, fair-share scheduler)."""

    name = "serve-jobs"

    def warm(self, client) -> None:
        self.pool = gen.job_pool(self.seed)
        for body in self.pool:
            response = client.post("sweep", body)
            if not response.ok:
                raise RuntimeError(f"warm-up sweep {body} failed: "
                                   f"{response.status} {response.payload}")

    def _one_job(self, client, body: dict, tracer: Tracer, op: str) -> tuple:
        """Submit, wait for ``job_end`` on the event stream, fetch the
        result; returns (state or error, result data, phase seconds,
        queue wait ms)."""
        times = [time.perf_counter()]
        with tracer.span("jobs.job", op):
            with tracer.span("jobs.submit", op):
                submitted = client.submit_job(**body)
            times.append(time.perf_counter())
            if submitted.status != 202:
                return (f"submit {submitted.status}", None, None, None)
            job_id = submitted.data["job_id"]
            state = None
            with tracer.span("jobs.done", op):
                for event in client.job_events(job_id, max_s=60.0):
                    if event.get("event") == "job_end":
                        state = event.get("state")
                        break
            times.append(time.perf_counter())
            if state != "done":
                return (f"job ended {state}", None, None, None)
            with tracer.span("jobs.result", op):
                fetched = client.job_result(job_id)
            times.append(time.perf_counter())
        if not fetched.ok:
            return (f"result {fetched.status}", None, None, None)
        phases = [b - a for a, b in zip(times, times[1:])]
        return ("done", fetched.data["result"], phases,
                fetched.payload.get("meta", {}).get("queue_wait_ms"))

    def run(self, seconds: float, tracer: Tracer) -> dict:
        samples: List[List[tuple]] = [[] for _ in range(CLIENTS)]
        length = int(seconds * 500) + len(self.pool)
        orders = [
            gen.request_order(self.seed, len(self.pool), i, length)
            for i in range(CLIENTS)
        ]

        def worker(index: int, deadline: float) -> None:
            with self.daemon.client() as client:
                for count, pool_index in enumerate(orders[index]):
                    if time.perf_counter() >= deadline:
                        return
                    started = time.perf_counter()
                    try:
                        outcome = self._one_job(
                            client, self.pool[pool_index], tracer,
                            f"c{index}.{count}",
                        )
                    except OSError as exc:
                        outcome = (repr(exc), None, None, None)
                    ended = time.perf_counter()
                    samples[index].append(
                        (pool_index, *outcome, ended - started, ended)
                    )

        start = self._drive(seconds, worker)
        flat = [s for client_samples in samples for s in client_samples]
        ok = [s for s in flat if s[2] is not None]
        return {
            **op_stats([s[5] for s in ok], _rate([s[6] for s in ok], start,
                                                 seconds)),
            "samples": flat,
        }

    def check(self, result: dict, outcome: Outcome) -> None:
        """Each job's result equals the synchronous ``run_sweep`` of
        the same request."""
        from repro.api import SweepRequest, run_sweep

        self._point_in_process_at_daemon_state()
        expected: Dict[int, str] = {}
        outcome.attempted += len(result["samples"])
        for pool_index, state, data, *_ in result["samples"]:
            if data is None:
                outcome.fail(1, f"job {self.pool[pool_index]}: {state}")
                continue
            if pool_index not in expected:
                expected[pool_index] = run_sweep(
                    SweepRequest.from_dict(self.pool[pool_index])
                ).to_json()
            if _canonical(data) != expected[pool_index]:
                outcome.fail(1, f"job {self.pool[pool_index]} result "
                                "differs from run_sweep")

    def layer_metrics(self, result: dict, tracer: Tracer) -> Dict[str, float]:
        done = [s for s in result["samples"] if s[2] is not None]
        waits = [s[4] for s in done if s[4] is not None]
        files = [p for p in self.daemon.job_dir.rglob("*") if p.is_file()]
        return {
            "jobs.submit_ms": median([s[3][0] for s in done]) * 1e3,
            "jobs.done_ms": median([s[3][1] for s in done]) * 1e3,
            "jobs.result_ms": median([s[3][2] for s in done]) * 1e3,
            "jobs.queue_wait_p50_ms": percentile(waits, 50),
            "jobs.queue_wait_p99_ms": percentile(waits, 99),
            "jobs.store_bytes": sum(p.stat().st_size for p in files),
            "jobs.store_files": len(files),
            "serve.ready_s": self.ready_s,
        }
