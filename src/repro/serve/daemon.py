"""The batched serving daemon: JSON-over-HTTP on a warm process.

``python -m repro serve`` starts a long-running asyncio server that
answers every :mod:`repro.api` request kind over a tiny JSON protocol:

* ``GET  /healthz`` — liveness (plain JSON, no envelope)
* ``GET  /v1/stats`` — cache/queue/dedup/executor counters
* ``GET  /v1/metrics`` — the full metrics-registry snapshot
* ``GET  /metrics`` — the same registry in Prometheus text format
* ``GET  /v1/progress?request_id=...`` — SSE-style progress stream
* ``POST /v1/costs`` — :class:`repro.api.CostQuery`
* ``POST /v1/compile`` — :class:`repro.api.CompileRequest`
* ``POST /v1/simulate`` — :class:`repro.api.SimulateRequest`
* ``POST /v1/sweeps`` — :class:`repro.api.SweepRequest`
* ``POST /v1/kernels`` — :class:`repro.api.RegisterKernelRequest`
  (register a user kernel document; idempotent by content hash)
* ``GET  /v1/kernels`` — registered-kernel summaries
* ``GET  /v1/kernels/{id}`` — one kernel's summary plus its canonical
  document (``{id}`` is the ``kernel:<hash>`` ref, the bare hash, or a
  unique prefix of at least 8 hex characters)
* ``GET  /v1/cluster/stats`` — fleet membership and shard statistics
* ``POST /v1/cluster/register`` / ``/v1/cluster/heartbeat`` — worker
  liveness protocol (see :mod:`repro.cluster`)

With ``--fleet N`` the daemon is a **cluster coordinator**: it boots
``N`` local workers and shards simulated-mode sweeps over the fleet by
consistent hash of each point's ``dedup_key`` (cache affinity), then
reassembles byte-identical results; with ``--join HOST:PORT`` it is a
worker that registers and heartbeats.  Liveness routes are answered
inline on the event loop — never through the batcher — so a long sweep
cannot starve heartbeats.

Every request gets a **correlation id**: the sanitized ``X-Request-Id``
header if the client sent one, else a freshly minted id.  The id comes
back in the ``X-Request-Id`` response header and the envelope's
``meta.request_id``, is bound (:func:`repro.obs.log.bind_request_id`)
around execution so structured log lines, tracer instant events, and
progress-bus events all carry it, and rides through micro-batch
coalescing — one batch logs the ids of *all* its member requests.

Request bodies are the request dataclass's ``to_dict()`` JSON; responses
are versioned envelopes (:func:`repro.obs.manifest.build_envelope`)
whose ``data`` is byte-for-byte the ``to_dict()`` of the result the
in-process library call would return — volatile context (durations,
batch ids) rides in ``meta`` only.

The daemon exists because process startup dominates small queries: a
cold ``python -m repro costs`` pays interpreter boot, imports and cache
warming per query, while the daemon pays them once and answers
steady-state traffic from the shared
:func:`~repro.analysis.sweep.default_engine` memo and compile caches.
Requests are micro-batched and deduplicated by
:class:`~repro.serve.batching.MicroBatcher` and executed through a
persistent :class:`~repro.resilience.executor.ResilientExecutor`.

Operational behavior:

* **backpressure** — a full pending queue answers ``429`` and a
  draining server answers ``503``, both with ``Retry-After``;
* **timeouts** — a request older than ``request_timeout_s`` answers
  ``504`` (the underlying computation keeps running and still warms
  the caches for the retry);
* **graceful drain** — ``SIGTERM``/``SIGINT`` stop accepting, finish
  queued work, flush the optional Chrome trace, and exit 0.

Implementation note: HTTP/1.1 parsing is hand-rolled on asyncio streams
(request line + headers + ``Content-Length`` body, keep-alive) because
the stdlib's ``http.server`` is thread-per-request and this daemon is
deliberately stdlib-only.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from ..api import (
    ApiError,
    JobRequest,
    REQUEST_KINDS,
    dedup_key,
    request_from_dict,
    safe_execute,
)
from ..obs.log import (
    bind_request_id,
    current_request_id,
    get_logger,
    log_event,
    new_request_id,
    sanitize_request_id,
)
from ..obs.manifest import build_envelope
from ..obs.metrics import MetricsRegistry, render_prometheus
from ..obs.progress import default_bus
from ..obs.tracer import NULL_TRACER, Tracer
from ..resilience.executor import ResilientExecutor
from .batching import MicroBatcher, QueueFull
from .jobs import JobManager, JobStore, count_sweep_points
from .tenancy import TenantRegistry

__all__ = ["ERROR_CODES", "ReproServer", "ServerConfig", "run_server"]

#: HTTP reason phrases for the statuses the daemon emits.
_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The stable error-code registry (the frontend's ``E_*`` pattern,
#: serving flavor).  Every error response is the typed envelope
#: ``{code, message, pointer?}``: ``code`` is drawn from this table
#: and never renamed within an API version, ``message`` is
#: human-readable and free to change, and ``pointer`` (RFC 6901,
#: optional) locates the offending field of the request body.
ERROR_CODES = {
    "bad_request": "malformed JSON, unknown field, or unknown name",
    "unauthorized": "a valid X-Api-Key is required on this route",
    "forbidden": "the API key does not grant access to this resource",
    "not_found": "no such route, kernel, or job",
    "method_not_allowed": "the route exists but not for this verb",
    "conflict": "the operation is invalid in the resource's state",
    "payload_too_large": "request body exceeds the configured limit",
    "queue_full": "admission queue at capacity; honor Retry-After",
    "rate_limited": "tenant token bucket empty; honor Retry-After",
    "quota_exceeded": "tenant point quota cannot cover this job",
    "internal": "unexpected server-side failure",
    "draining": "server is shutting down; retry against a peer",
    "timeout": "request exceeded the server-side deadline",
}

#: Executor-outcome error codes to HTTP statuses.
_ERROR_STATUS = {"bad_request": 400, "internal": 500}

#: ``/v1/<segment>`` routes to request-kind names: the sweep route is
#: plural, its payload kind keeps the singular envelope spelling.
_ROUTE_KINDS = {
    ("sweeps" if kind == "sweep" else kind): kind for kind in REQUEST_KINDS
}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`ReproServer` instance.

    ``port=0`` binds an ephemeral port (the bound port is reported by
    :attr:`ReproServer.port` and printed on the ready line).
    ``workers<=1`` executes batches serially on the dispatcher thread —
    the cache-bound sweet spot — while larger values fan each batch out
    over a persistent process pool.
    """

    host: str = "127.0.0.1"
    port: int = 8712
    workers: int = 1
    max_queue: int = 64
    max_batch: int = 16
    request_timeout_s: Optional[float] = 60.0
    max_body_bytes: int = 1 << 20
    #: Write a Chrome trace of the serving window here on drain.
    trace_path: Optional[str] = None
    #: Cluster mode: spawn this many local worker daemons and shard
    #: sweeps over them (coordinator role; see ``docs/serving.md``).
    fleet: int = 0
    #: Cluster mode: register with the coordinator at ``host:port``
    #: (worker role).  Mutually exclusive with ``fleet``.
    join: Optional[str] = None
    heartbeat_interval_s: float = 2.0
    heartbeat_timeout_s: float = 6.0
    #: Multi-tenancy: a ``{"tenants": [...]}`` JSON file of API keys,
    #: weights, rate limits, and point quotas.  ``None`` runs open
    #: (every caller is the unlimited anonymous ``public`` tenant).
    tenants_path: Optional[str] = None
    #: Persist job records here so jobs survive daemon restarts.
    #: ``None`` keeps the job table in memory only (the CLI defaults
    #: this next to the sweep checkpoints; in-process test servers
    #: stay memory-only).
    job_dir: Optional[str] = None


class ReproServer:
    """One serving instance: HTTP front end, batcher, warm executor.

    Lifecycle: :meth:`start` (binds and begins accepting),
    :meth:`drain_and_stop` (stop accepting, finish queued work, release
    the pool).  The test-suite drives it in-process; ``run_server``
    wires it to signals for real deployments.
    """

    def __init__(self, config: ServerConfig):
        self.config = config
        self.metrics = MetricsRegistry()
        self.tracer = Tracer() if config.trace_path else NULL_TRACER
        self.executor = ResilientExecutor(
            workers=config.workers,
            metrics=self.metrics,
            persistent=True,
        )
        self.batcher = MicroBatcher(
            self._run_batch,
            max_queue=config.max_queue,
            max_batch=config.max_batch,
            metrics=self.metrics,
        )
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._started_monotonic = 0.0
        self._log = get_logger("serve")
        self._bus = default_bus()
        # Every daemon can coordinate: the coordinator object is cheap
        # and its routes only matter once workers register.  The fleet
        # supervisor and heartbeat agent attach in start() (they need
        # the bound port).
        from ..cluster import ClusterCoordinator

        self.coordinator = ClusterCoordinator(
            metrics=self.metrics,
            heartbeat_timeout_s=config.heartbeat_timeout_s,
            point_timeout_s=config.request_timeout_s or 60.0,
            progress=self._bus,
        )
        self.fleet = None
        self._heartbeat_agent = None
        # Recently finished request ids, so a /v1/progress subscriber
        # that connects after its request completed gets an immediate
        # request_end instead of hanging until its deadline.  Entries
        # are (request_id, tenant, status): replay is namespaced by
        # tenant so one tenant cannot read another's progress events.
        self._finished: Deque[Tuple[str, str, int]] = deque(maxlen=256)
        #: In-flight request id -> owning tenant (live-stream isolation).
        self._active: Dict[str, str] = {}
        # Multi-tenant admission + the async job layer.  Admission
        # (auth -> rate limit -> quota -> fair-share enqueue) runs
        # inline at POST /v1/jobs, ahead of the batcher's 429/503.
        self.tenants = (
            TenantRegistry.load(Path(config.tenants_path))
            if config.tenants_path
            else TenantRegistry()
        )
        self.jobs = JobManager(
            store=JobStore(
                Path(config.job_dir) if config.job_dir else None
            ),
            registry=self.tenants,
            metrics=self.metrics,
            bus=self._bus,
            coordinator=self.coordinator,
        )

    # --- execution ------------------------------------------------------

    def _run_batch(
        self, requests: Sequence[Any], request_ids: Sequence[List[str]]
    ) -> list:
        """Dispatcher-thread batch body: fan the batch through the
        persistent executor (serial in-process when ``workers<=1``).

        One log line carries *every* member id — coalesced waiters
        included — so a request id always joins the batch that served
        it.  Each request executes under its originating (first) id.
        """
        members = [rid for rids in request_ids for rid in rids]
        log_event(
            self._log, "serve.batch",
            size=len(requests), request_ids=members,
        )
        items = [
            (rids[0] if rids else None, request)
            for request, rids in zip(requests, request_ids)
        ]
        if self.coordinator.membership.alive():
            # Coordinator role with a live fleet: route through the
            # cluster (sweeps shard over workers, points go to their
            # ring owner).  Sequential per batch — the parallelism
            # lives inside the sharded dispatch.
            return [
                safe_execute(item, self.coordinator.execute)
                for item in items
            ]
        return self.executor.map(safe_execute, items)

    # --- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the dispatch loop."""
        self._started_monotonic = time.perf_counter()
        await self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        # Persisted jobs from a previous process re-queue here; their
        # points resume as memo hits off the sweep checkpoint.
        self.jobs.start()
        if self.config.fleet > 0:
            from ..cluster import LocalFleet

            self.fleet = LocalFleet(
                self.config.fleet,
                self.config.host,
                self.port,
                heartbeat_interval_s=self.config.heartbeat_interval_s,
            )
            self.fleet.start()
        if self.config.join:
            from ..cluster import HeartbeatAgent

            host, _, port = self.config.join.rpartition(":")
            self._heartbeat_agent = HeartbeatAgent(
                host or "127.0.0.1",
                int(port),
                self.config.host,
                self.port,
                interval_s=self.config.heartbeat_interval_s,
                stats_fn=self._worker_stats,
            )
            self._heartbeat_agent.start()

    def _worker_stats(self) -> Dict[str, Any]:
        """The lightweight per-worker stats heartbeats carry (shard
        hit-rates for the coordinator's ``/v1/cluster/stats``)."""
        from ..analysis.sweep import default_engine
        from ..compiler.cache import default_cache

        cache = default_cache()
        engine = default_engine()
        return {
            "engine": engine.stats(),
            "compile_cache": {
                **cache.stats(), "hit_rate": cache.hit_rate,
            },
        }

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` ephemerals)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def drain_and_stop(self, timeout: Optional[float] = 30.0) -> bool:
        """Graceful shutdown: stop accepting, finish queued work,
        release the worker pool, flush the trace.  Returns ``True`` when
        every queued request finished within ``timeout``."""
        self.draining = True
        if self._heartbeat_agent is not None:
            self._heartbeat_agent.stop()
        # Jobs stop after their in-flight point; interrupted jobs stay
        # queued/running on disk and resume on the next boot — drain
        # must not wait out a multi-minute sweep.
        self.jobs.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        clean = await self.batcher.drain(timeout)
        if self.fleet is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.fleet.stop
            )
        self.coordinator.close()
        # Kick idle keep-alive connections loose so their handler
        # coroutines finish instead of waiting on a dead socket.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        await self.batcher.stop()
        self.executor.close()
        if self.config.trace_path and self.tracer.enabled:
            with open(self.config.trace_path, "w") as handle:
                handle.write(self.tracer.to_chrome_json())
        return clean

    # --- observability --------------------------------------------------

    def _now_us(self) -> int:
        return int((time.perf_counter() - self._started_monotonic) * 1e6)

    def stats(self) -> Dict[str, Any]:
        """Everything ``/v1/stats`` reports: queue/dedup counters, the
        sweep-engine memo, compile caches, and executor recoveries."""
        from ..analysis.sweep import default_engine
        from ..compiler.cache import default_cache
        from ..compiler.pipeline import memo_size

        cache = default_cache()
        return {
            "draining": self.draining,
            "batcher": self.batcher.stats(),
            "executor": self.executor.stats(),
            "engine": default_engine().stats(),
            "compile_cache": {**cache.stats(), "hit_rate": cache.hit_rate},
            "compile_memo_entries": memo_size(),
            "cluster": self.coordinator.stats(),
            "jobs": self.jobs.stats(),
            "tenants": self.tenants.stats(),
        }

    # --- HTTP plumbing --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                request_id = headers.get("x-request-id", "").strip()
                request_id = (
                    sanitize_request_id(request_id)
                    if request_id
                    else new_request_id()
                )
                api_key = headers.get("x-api-key", "").strip() or None
                tenant = self.tenants.resolve(api_key)
                base_path = path.split("?", 1)[0]
                if base_path == "/v1/progress":
                    # Streaming endpoint: writes its own response and
                    # always closes the connection afterwards.
                    await self._handle_progress(
                        writer, method, path, tenant.name
                    )
                    break
                if (
                    base_path.startswith("/v1/jobs/")
                    and base_path.endswith("/events")
                ):
                    await self._handle_job_events(
                        writer, method, path, api_key
                    )
                    break
                started = time.perf_counter()
                self._active[request_id] = tenant.name
                try:
                    with bind_request_id(request_id):
                        status, payload = await self._route(
                            method, path, body, api_key
                        )
                finally:
                    self._active.pop(request_id, None)
                self._observe(
                    method, path, status, started, request_id,
                    tenant=tenant.name,
                )
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                await self._write_response(
                    writer, status, payload, keep_alive,
                    extra_headers=[f"X-Request-Id: {request_id}"],
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on a closed connection."""
        try:
            line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if not raw or raw in (b"\r\n", b"\n"):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.config.max_body_bytes:
            # Drain what we can without buffering it, then refuse.
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
            return (method, path, headers, b"__too_large__")
        body = await reader.readexactly(length) if length else b""
        return (method, path, headers, body)

    def _observe(
        self,
        method: str,
        path: str,
        status: int,
        started: float,
        request_id: Optional[str] = None,
        tenant: str = "public",
    ) -> None:
        endpoint = path.rsplit("/", 1)[-1] or "root"
        self.metrics.counter(f"serve.requests.{endpoint}").inc()
        self.metrics.counter(f"serve.responses.{status}").inc()
        elapsed = time.perf_counter() - started
        self.metrics.histogram("serve.request_seconds").observe(elapsed)
        self.metrics.histogram(f"serve.request_seconds.{endpoint}").observe(
            elapsed
        )
        if self.tracer.enabled:
            finish = self._now_us()
            self.tracer.span(
                "serve.http",
                f"{method} {path}",
                max(0, finish - int(elapsed * 1e6)),
                finish,
                status=status,
            )
            self.tracer.instant(
                "serve.http",
                "serve.request",
                finish,
                request_id=request_id,
                status=status,
                path=path,
            )
        log_event(
            self._log, "serve.request",
            request_id=request_id,
            method=method, path=path, status=status,
            duration_ms=round(elapsed * 1000.0, 3),
        )
        kind = (
            _ROUTE_KINDS.get(path[len("/v1/"):])
            if path.startswith("/v1/") else None
        )
        if kind is not None and request_id is not None:
            self._finished.append((request_id, tenant, status))
            self._bus.publish(
                "request_end",
                request_id=request_id, kind=kind, status=status,
            )

    # --- routing --------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        api_key: Optional[str] = None,
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        """Dispatch one parsed request to its handler; never raises.

        Payloads are JSON dictionaries except ``GET /metrics``, which
        returns pre-rendered Prometheus text.
        """
        try:
            if body == b"__too_large__":
                return self._error(
                    path, 413, "payload_too_large",
                    f"body exceeds {self.config.max_body_bytes} bytes",
                )
            if path == "/healthz":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (200, {"status": "ok", "draining": self.draining})
            if path == "/v1/stats":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (200, build_envelope("stats", data=self.stats()))
            if path == "/v1/metrics":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (
                    200,
                    build_envelope(
                        "metrics",
                        data={"metrics": self.metrics.snapshot().as_dict()},
                    ),
                )
            if path == "/metrics":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (200, render_prometheus(self.metrics))
            if path == "/v1/cluster/stats":
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return (
                    200,
                    build_envelope(
                        "cluster_stats", data=self.coordinator.stats()
                    ),
                )
            if path in ("/v1/cluster/register", "/v1/cluster/heartbeat"):
                # Liveness traffic is handled inline on the event loop
                # — never through the batcher — so a fleet stays
                # registered even while the dispatcher is buried in a
                # long sweep.
                if method != "POST":
                    return self._error(
                        path, 405, "method_not_allowed", "use POST"
                    )
                try:
                    data = json.loads(body.decode("utf-8")) if body else {}
                except ValueError as exc:
                    return self._error(
                        path, 400, "bad_request",
                        f"invalid JSON body ({exc})",
                    )
                try:
                    if path.endswith("register"):
                        ack = self.coordinator.register_worker(data)
                    else:
                        ack = self.coordinator.worker_heartbeat(data)
                except ApiError as exc:
                    return self._error(path, 400, "bad_request", str(exc))
                return (200, build_envelope("cluster", data=ack))
            if path == "/v1/kernels" and method == "GET":
                # Listing shares the POST path's URL; it must be
                # answered before the REQUEST_KINDS fall-through or a
                # bare GET would bounce off the 405 there.
                from ..frontend.registry import default_registry

                return (
                    200,
                    build_envelope(
                        "kernels",
                        data={"kernels": default_registry().list()},
                    ),
                )
            if path.startswith("/v1/kernels/"):
                if method != "GET":
                    return self._error(
                        path, 405, "method_not_allowed", "use GET"
                    )
                return self._handle_kernel_lookup(
                    path, path[len("/v1/kernels/"):]
                )
            if path == "/v1/jobs":
                if method == "GET":
                    return self._handle_job_list(api_key)
                if method != "POST":
                    return self._error(
                        path, 405, "method_not_allowed", "use POST or GET"
                    )
                return self._handle_job_submit(body, api_key)
            if path.startswith("/v1/jobs/"):
                return self._handle_job_route(method, path, api_key)
            if path.startswith("/v1/"):
                kind = _ROUTE_KINDS.get(path[len("/v1/"):])
                if kind is not None:
                    if method != "POST":
                        return self._error(
                            path, 405, "method_not_allowed", "use POST"
                        )
                    return await self._handle_api(kind, body)
            return self._error(
                path, 404, "not_found", f"no route for {path}"
            )
        except Exception as exc:  # last-resort guard: keep serving
            return self._error(
                path, 500, "internal", f"{type(exc).__name__}: {exc}"
            )

    def _handle_kernel_lookup(
        self, path: str, ref: str
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/kernels/{id}``: summary plus canonical document."""
        from ..frontend.registry import (
            KERNEL_REF_PREFIX,
            default_registry,
            summarize,
        )

        registry = default_registry()
        if not ref.startswith(KERNEL_REF_PREFIX):
            ref = KERNEL_REF_PREFIX + ref
        try:
            entry = registry.resolve(ref)
        except KeyError as exc:
            return self._error(path, 404, "not_found", str(exc))
        document = entry.document
        data = dict(summarize(entry.kernel_id, document))
        data["document"] = document
        return (200, build_envelope("kernel", data=data))

    def _error(
        self,
        path: str,
        status: int,
        code: str,
        message: str,
        pointer: str = "",
    ) -> Tuple[int, Dict[str, Any]]:
        assert code in ERROR_CODES, f"unregistered error code {code!r}"
        kind = path.rsplit("/", 1)[-1] or "request"
        error: Dict[str, Any] = {"code": code, "message": message}
        if pointer:
            error["pointer"] = pointer
        return (status, build_envelope(kind, error=error))

    # --- async jobs ------------------------------------------------------

    def _job_auth(
        self, path: str, api_key: Optional[str]
    ) -> Tuple[Optional[Any], Optional[Tuple[int, Dict[str, Any]]]]:
        """Strict auth for job routes: ``(tenant, None)`` or
        ``(None, error_response)``."""
        tenant, code = self.tenants.identify(api_key)
        if tenant is None:
            status = 401 if code == "unauthorized" else 403
            self.metrics.counter(f"serve.jobs.rejected.{code}").inc()
            return None, self._error(
                path, status, code, ERROR_CODES[code]
            )
        return tenant, None

    def _handle_job_submit(
        self, body: bytes, api_key: Optional[str]
    ) -> Tuple[int, Dict[str, Any]]:
        """``POST /v1/jobs``: auth -> rate limit -> quota -> fair-share
        enqueue.  Answers 202 immediately; rejections carry the typed
        error envelope and never touch the batcher queue."""
        path = "/v1/jobs"
        if self.draining:
            return self._error(
                path, 503, "draining", "server is draining; retry elsewhere"
            )
        tenant, denied = self._job_auth(path, api_key)
        if denied is not None:
            return denied
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except ValueError as exc:
            return self._error(
                path, 400, "bad_request", f"invalid JSON body ({exc})"
            )
        try:
            request = JobRequest.from_dict(data)
            request.validate()
            sweep = request.sweep_request()
            from ..api import validate_request

            validate_request(sweep)
            points = count_sweep_points(sweep)
        except ApiError as exc:
            return self._error(
                path, 400, "bad_request", str(exc), pointer="/sweep"
            )
        decision = self.tenants.admit(tenant, points)
        if not decision.ok:
            status = 429 if decision.code == "rate_limited" else 403
            self.metrics.counter(
                f"serve.jobs.rejected.{decision.code}"
            ).inc()
            return self._error(
                path, status, decision.code, decision.message,
                pointer=decision.pointer,
            )
        record = self.jobs.submit(tenant, request, points)
        return (
            202,
            build_envelope(
                "job", data=record.status().to_dict(),
                meta={"points": points},
            ),
        )

    def _handle_job_route(
        self, method: str, path: str, api_key: Optional[str]
    ) -> Tuple[int, Dict[str, Any]]:
        """``/v1/jobs/{id}``, ``/v1/jobs/{id}/result``,
        ``/v1/jobs/{id}/cancel`` (events stream separately)."""
        rest = path[len("/v1/jobs/"):]
        job_id, _, action = rest.partition("/")
        if action not in ("", "result", "cancel"):
            return self._error(
                path, 404, "not_found", f"no route for {path}"
            )
        tenant, denied = self._job_auth(path, api_key)
        if denied is not None:
            return denied
        record = self.jobs.get(job_id)
        if record is None or (
            not self.tenants.open and record.tenant != tenant.name
        ):
            # A foreign tenant's job answers not_found, not forbidden:
            # job ids are capabilities and existence is information.
            return self._error(
                path, 404, "not_found", f"no such job {job_id!r}"
            )
        if action == "cancel":
            if method != "POST":
                return self._error(
                    path, 405, "method_not_allowed", "use POST"
                )
            ok, code = self.jobs.cancel(job_id)
            if not ok and code == "conflict":
                return self._error(
                    path, 409, "conflict",
                    f"job {job_id} already {record.state}",
                )
            return (
                200,
                build_envelope(
                    "job", data=self.jobs.get(job_id).status().to_dict()
                ),
            )
        if method != "GET":
            return self._error(path, 405, "method_not_allowed", "use GET")
        if action == "result":
            from ..api import JobResult

            if record.state != "done":
                return self._error(
                    path, 409, "conflict",
                    f"job {job_id} is {record.state}, not done",
                )
            result = JobResult(
                job_id=record.job_id,
                state=record.state,
                result=record.result or {},
            )
            return (
                200,
                build_envelope(
                    "job_result", data=result.to_dict(), meta=record.meta()
                ),
            )
        return (
            200,
            build_envelope(
                "job", data=record.status().to_dict(), meta=record.meta()
            ),
        )

    def _handle_job_list(
        self, api_key: Optional[str]
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /v1/jobs``: the calling tenant's jobs, oldest first."""
        tenant, denied = self._job_auth("/v1/jobs", api_key)
        if denied is not None:
            return denied
        scope = None if self.tenants.open else tenant.name
        records = self.jobs.list(scope)
        return (
            200,
            build_envelope(
                "jobs",
                data={"jobs": [r.status().to_dict() for r in records]},
            ),
        )

    async def _handle_api(
        self, kind: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        """Validate, enqueue (with dedup), await, envelope."""
        path = f"/v1/{kind}"
        if self.draining:
            return self._error(
                path, 503, "draining", "server is draining; retry elsewhere"
            )
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except ValueError as exc:
            return self._error(path, 400, "bad_request",
                               f"invalid JSON body ({exc})")
        try:
            request = request_from_dict(kind, data)
        except ApiError as exc:
            return self._error(path, 400, "bad_request", str(exc))
        request_id = current_request_id()
        try:
            future = self.batcher.submit(
                dedup_key(request), request, request_id=request_id
            )
        except QueueFull as exc:
            envelope = self._error(path, 429, "queue_full", str(exc))
            return envelope
        started = time.perf_counter()
        try:
            # shield(): a timeout abandons *this waiter*, not the
            # computation — coalesced waiters and the cache warm-up
            # still complete.
            outcome = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            return self._error(
                path, 504, "timeout",
                f"request exceeded {self.config.request_timeout_s}s",
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # batch-level failure surfaced
            return self._error(
                path, 500, "internal", f"{type(exc).__name__}: {exc}"
            )
        status_tag, value = outcome
        if status_tag == "error":
            code, message = value
            return self._error(
                path, _ERROR_STATUS.get(code, 500), code, message
            )
        meta: Dict[str, Any] = {
            "duration_ms": round(
                (time.perf_counter() - started) * 1000.0, 3
            ),
        }
        if request_id is not None:
            meta["request_id"] = request_id
        return (200, build_envelope(kind, data=value.to_dict(), meta=meta))

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], str],
        keep_alive: bool,
        extra_headers: Optional[List[str]] = None,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if status in (429, 503):
            headers.append("Retry-After: 1")
        headers.extend(extra_headers or [])
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    # --- progress streaming ---------------------------------------------

    async def _handle_progress(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        tenant: str = "public",
    ) -> None:
        """Stream progress-bus events as SSE-style ``data:`` lines.

        ``GET /v1/progress?request_id=<id>&max_s=<seconds>`` subscribes
        to the in-process bus (filtered to one request when an id is
        given) and writes one ``data: {json}`` line per event over a
        close-delimited chunk stream.  The stream ends when the watched
        request publishes ``request_end``, when ``max_s`` expires, or
        when the client disconnects — a stuck consumer can only ever
        drop its own events (the bus queue is bounded), never stall a
        sweep.
        """
        query = parse_qs(urlsplit(path).query)
        request_id = (query.get("request_id") or [None])[0]
        if request_id:
            request_id = sanitize_request_id(request_id)
        try:
            max_s = float((query.get("max_s") or ["600"])[0])
        except ValueError:
            max_s = 600.0
        if method != "GET":
            await self._write_response(
                writer,
                405,
                self._error(path, 405, "method_not_allowed", "use GET")[1],
                keep_alive=False,
            )
            return
        await self._start_event_stream(writer)
        # A request in flight for (or finished by) another tenant is
        # invisible here: the watched id's events belong to its owner.
        if request_id is not None:
            owner = self._active.get(request_id)
            if owner is not None and owner != tenant:
                await self._send_event(
                    writer,
                    {
                        "event": "error",
                        "code": "forbidden",
                        "request_id": request_id,
                    },
                )
                return
        subscription = self._bus.subscribe(request_id)
        self.metrics.counter("serve.progress.streams").inc()
        try:
            # A request that finished before this subscriber attached
            # would never publish again; answer from the finished ring
            # — tenant-namespaced, so replay never leaks across keys.
            if request_id is not None:
                for done_id, owner, status in self._finished:
                    if done_id == request_id and owner == tenant:
                        await self._send_event(
                            writer,
                            {
                                "event": "request_end",
                                "request_id": request_id,
                                "status": status,
                                "replay": True,
                            },
                        )
                        return
            await self._pump_events(
                writer, subscription, max_s,
                end_event="request_end" if request_id is not None else None,
            )
        except (ConnectionError, OSError):
            pass  # client went away; unsubscribe below
        finally:
            subscription.close()

    async def _start_event_stream(
        self, writer: asyncio.StreamWriter
    ) -> None:
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()

    async def _pump_events(
        self,
        writer: asyncio.StreamWriter,
        subscription,
        max_s: float,
        end_event: Optional[str] = None,
    ) -> None:
        """Forward bus events until ``end_event``, ``max_s``, or
        disconnect; shared by ``/v1/progress`` and job event streams."""
        loop = asyncio.get_running_loop()
        deadline = time.perf_counter() + max_s
        idle_polls = 0
        while time.perf_counter() < deadline:
            event = await loop.run_in_executor(
                None, subscription.get, 0.5
            )
            if event is None:
                idle_polls += 1
                if idle_polls >= 10:
                    # Comment line per SSE: keeps half-open
                    # connections detectable without fabricating
                    # events.
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    idle_polls = 0
                continue
            idle_polls = 0
            await self._send_event(writer, event)
            if end_event is not None and event.get("event") == end_event:
                return

    async def _handle_job_events(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        api_key: Optional[str],
    ) -> None:
        """``GET /v1/jobs/{id}/events``: the job's lifecycle and
        per-point completion events as an SSE stream, ending at
        ``job_end`` (terminal jobs replay it immediately)."""
        base = urlsplit(path)
        query = parse_qs(base.query)
        try:
            max_s = float((query.get("max_s") or ["600"])[0])
        except ValueError:
            max_s = 600.0
        job_id = base.path[len("/v1/jobs/"):-len("/events")]
        if method != "GET":
            await self._write_response(
                writer,
                405,
                self._error(path, 405, "method_not_allowed", "use GET")[1],
                keep_alive=False,
            )
            return
        tenant, denied = self._job_auth(base.path, api_key)
        if tenant is None:
            status, payload = denied
            await self._write_response(
                writer, status, payload, keep_alive=False
            )
            return
        record = self.jobs.get(job_id)
        if record is None or (
            not self.tenants.open and record.tenant != tenant.name
        ):
            status, payload = self._error(
                base.path, 404, "not_found", f"no such job {job_id!r}"
            )
            await self._write_response(
                writer, status, payload, keep_alive=False
            )
            return
        # Subscribe *before* the terminal check: a job finishing in
        # between publishes into the subscription, not past it.
        subscription = self._bus.subscribe(job_id)
        self.metrics.counter("serve.progress.streams").inc()
        try:
            await self._start_event_stream(writer)
            if record.state in ("done", "failed", "cancelled"):
                await self._send_event(
                    writer,
                    {
                        "event": "job_end",
                        "request_id": job_id,
                        "job_id": job_id,
                        "state": record.state,
                        "replay": True,
                    },
                )
                return
            await self._pump_events(
                writer, subscription, max_s, end_event="job_end"
            )
        except (ConnectionError, OSError):
            pass  # client went away; unsubscribe below
        finally:
            subscription.close()

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: Dict[str, Any]
    ) -> None:
        line = json.dumps(event, sort_keys=True, separators=(",", ":"))
        writer.write(f"data: {line}\n\n".encode("utf-8"))
        await writer.drain()
        self.metrics.counter("serve.progress.events").inc()


def run_server(config: ServerConfig) -> int:
    """Run the daemon until SIGTERM/SIGINT, then drain; returns the
    process exit code (0 for a clean drain, 2 when the port is taken)."""
    import signal
    import sys

    async def _serve() -> int:
        server = ReproServer(config)
        try:
            await server.start()
        except OSError as exc:
            # The common operational mistake — another daemon already
            # on the port — deserves one actionable line, not a
            # traceback.
            print(
                f"repro serve: cannot bind "
                f"{config.host}:{config.port} ({exc.strerror or exc})",
                file=sys.stderr,
                flush=True,
            )
            return 2
        stop = asyncio.get_running_loop().create_future()

        def _request_stop(*_args) -> None:
            if not stop.done():
                stop.set_result(None)

        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, _request_stop)
            loop.add_signal_handler(signal.SIGINT, _request_stop)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support (e.g. Windows
            # proactor): fall back to the default KeyboardInterrupt.
            signal.signal(signal.SIGTERM, _request_stop)
        print(
            f"repro serve: listening on http://{config.host}:{server.port} "
            f"(workers={config.workers}, queue={config.max_queue}, "
            f"max_batch={config.max_batch})",
            flush=True,
        )
        if config.fleet > 0:
            # Registration arrives over this very event loop, so the
            # wait must not block it.
            ready = await loop.run_in_executor(
                None,
                server.coordinator.wait_for_workers,
                config.fleet,
                60.0,
            )
            registered = len(server.coordinator.membership.alive())
            print(
                f"repro serve: fleet {'ready' if ready else 'DEGRADED'} "
                f"({registered}/{config.fleet} workers registered)",
                flush=True,
            )
        await stop
        print("repro serve: draining...", flush=True)
        clean = await server.drain_and_stop()
        snapshot = server.metrics.snapshot().as_dict()
        summary = {
            "clean_drain": clean,
            "requests": int(
                sum(
                    value
                    for name, value in snapshot.items()
                    if name.startswith("serve.requests.")
                )
            ),
            "batches": server.batcher.batches,
            "deduped": server.batcher.deduped,
            "mean_request_ms": round(
                snapshot.get("serve.request_seconds.mean", 0.0) * 1000.0, 3
            ),
        }
        print(f"repro serve: drained {json.dumps(summary)}", flush=True)
        return 0 if clean else 1

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0
