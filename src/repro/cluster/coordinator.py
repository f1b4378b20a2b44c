"""The coordinator: shard dispatch, requeue, serial-identical results.

One :class:`ClusterCoordinator` lives inside a coordinator daemon
(``repro serve --fleet N`` or any daemon workers registered with) and
replaces the local-execute step of the batching pipeline:

* **sweeps** are expanded into their primitive grid points (compile
  requests for the kernel studies, simulate requests for the
  application studies), each point is consistent-hashed by its
  :func:`repro.api.dedup_key` to a worker, shards are dispatched in
  parallel over the workers' ordinary ``POST /v1/compile|simulate``
  endpoints, the results seed the local
  :class:`~repro.analysis.sweep.SweepEngine` memo, and the sweep is
  then assembled **locally** by the very same
  :func:`repro.api.run_sweep` a single node runs — every lookup is a
  memo hit, so rows, ordering, and floats are byte-identical to the
  single-node serial oracle;
* **single compile/simulate requests** route to their ring owner (the
  worker whose caches are warm for that key), falling back to local
  execution when the fleet is empty or the owner dies mid-request;
* **cost queries** are pure arithmetic with no cache to keep warm, so
  they always run locally — a network hop would only add latency.

Failure handling reuses the resilience ladder's shape
(:class:`~repro.resilience.requeue.RequeueLadder`): a connection
error/timeout marks the worker dead (heartbeat timeout catches the
quiet deaths), its unfinished points requeue on the surviving ring for
a bounded number of backoff rounds, and whatever still fails is
computed locally.  Combined with the engine's checkpoint store (seeded
points persist like locally computed ones), a worker killed mid-sweep
costs time, never changes a row.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..api import (
    AnyRequest,
    AnyResult,
    ApiError,
    CompileRequest,
    CompileResult,
    CostQuery,
    RegisterKernelRequest,
    SimulateRequest,
    SimulateResult,
    SweepRequest,
    dedup_key,
    execute,
)
from ..obs.log import current_request_id, get_logger, log_event
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressBus, default_bus
from ..resilience.faults import fault_point
from ..resilience.requeue import RequeueLadder
from .membership import ClusterMembership

__all__ = [
    "ClusterCoordinator",
    "compute_point_locally",
    "expand_sweep_points",
]

#: URL path segment for each point request type.
_POINT_KINDS = {CompileRequest: "compile", SimulateRequest: "simulate"}


def expand_sweep_points(request: SweepRequest) -> List[AnyRequest]:
    """The primitive grid points one sweep target resolves through.

    Exactly the grids :func:`repro.api.run_sweep` walks (baselines
    included), expressed as API point requests so they can ship to
    workers over the existing protocol.  Duplicates are removed with
    first-occurrence order preserved — ``dedup_key`` equality means
    result equality, so one computation serves every occurrence.
    """
    from ..analysis.perf import (
        BASELINE,
        FIG13_N_VALUES,
        FIG14_C_VALUES,
        FIG15_N_VALUES,
        TABLE5_C_VALUES,
        TABLE5_N_VALUES,
    )
    from ..apps.suite import APPLICATION_ORDER
    from ..kernels.suite import PERFORMANCE_SUITE

    base_c, base_n = BASELINE
    # A kernel-restricted study (SweepRequest.kernel) shards the same
    # way as the full suite — its points just cover one kernel.
    suite = (request.kernel,) if request.kernel else PERFORMANCE_SUITE
    configs: List[Tuple[int, int]]
    points: List[AnyRequest] = []
    if request.target == "fig13":
        configs = [(base_c, base_n)] + [(base_c, n) for n in FIG13_N_VALUES]
        points = [
            CompileRequest(kernel, c, n)
            for kernel in suite
            for c, n in configs
        ]
    elif request.target == "fig14":
        configs = [(base_c, base_n)] + [(c, base_n) for c in FIG14_C_VALUES]
        points = [
            CompileRequest(kernel, c, n)
            for kernel in suite
            for c, n in configs
        ]
    elif request.target == "table5":
        points = [
            CompileRequest(kernel, c, n)
            for kernel in suite
            for n in TABLE5_N_VALUES
            for c in TABLE5_C_VALUES
        ]
    elif request.target == "fig15":
        configs = [(base_c, base_n)] + [
            (c, n) for n in FIG15_N_VALUES for c in FIG14_C_VALUES
        ]
        points = [
            SimulateRequest(app, c, n, mode=request.mode)
            for app in APPLICATION_ORDER
            for c, n in configs
        ]
    elif request.target == "headline":
        # H1/H2 machines (C=128, N=5/10) versus the baseline.
        configs = [(base_c, base_n), (128, 5), (128, 10)]
        points = [
            CompileRequest(kernel, c, n)
            for kernel in PERFORMANCE_SUITE
            for c, n in configs
        ]
        if request.apps:
            points.extend(
                SimulateRequest(app, c, n, mode=request.mode)
                for app in APPLICATION_ORDER
                for c, n in configs
            )
    else:  # pragma: no cover - validate_request rejects earlier
        raise ApiError(f"unknown sweep target {request.target!r}")

    seen = set()
    unique: List[AnyRequest] = []
    for point in points:
        key = dedup_key(point)
        if key not in seen:
            seen.add(key)
            unique.append(point)
    return unique


def compute_point_locally(point: AnyRequest) -> None:
    """Fill the local engine memo (and sweep checkpoint) for one point.

    The exact code path a single-node sweep takes — `engine.kernel_rate`
    / `engine.simulate_application` memoize *and* checkpoint, so a
    caller walking a sweep's points one at a time (the cluster's serial
    fallback, the job runner) leaves the final assembly all memo hits
    and the checkpoint resumable after a crash.
    """
    from ..analysis.sweep import default_engine
    from ..core.config import ProcessorConfig
    from ..core.params import TECH_45NM

    engine = default_engine()
    if isinstance(point, CompileRequest):
        engine.kernel_rate(
            point.kernel, ProcessorConfig(point.clusters, point.alus)
        )
    else:
        engine.simulate_application(
            point.application,
            ProcessorConfig(point.clusters, point.alus),
            TECH_45NM,
            point.clock_ghz,
            point.mode,
        )


def _simulation_from_payload(payload: SimulateResult):
    """Rebuild the engine's memo value from a worker's wire payload.

    Every raw field is an int (exact) or a JSON-round-tripped float
    (exact in Python), so the derived properties — gops, utilizations,
    speedups — recompute bit-identically.  The per-op timeline does
    not cross the wire: ``records`` is empty, the same shape the
    analytical backend's memo entries already have.
    """
    from ..core.config import ProcessorConfig
    from ..sim.metrics import BandwidthReport, SimulationResult

    bandwidth = payload.bandwidth
    result = SimulationResult(
        program=payload.application,
        config=ProcessorConfig(payload.clusters, payload.alus),
        clock_ghz=payload.clock_ghz,
        cycles=payload.cycles,
        useful_alu_ops=payload.useful_alu_ops,
        records=(),
        spill_words=payload.spill_words,
        reload_words=payload.reload_words,
        memory_busy_cycles=payload.memory_busy_cycles,
        cluster_busy_cycles=payload.cluster_busy_cycles,
        ucode_reloads=payload.ucode_reloads,
        bandwidth=BandwidthReport(
            lrf_words=int(bandwidth.get("lrf_words", 0)),
            srf_words=int(bandwidth.get("srf_words", 0)),
            memory_words=int(bandwidth.get("memory_words", 0)),
        ),
    )
    # Cross-check the round trip: the rebuilt result's derived metrics
    # must equal the worker's reported ones *exactly*; any drift means
    # an API-payload mismatch and must not silently poison the memo.
    rebuilt = SimulateResult.from_simulation(result, payload.application)
    if rebuilt != payload:
        raise ApiError(
            "worker payload does not reconstruct bit-identically for "
            f"{payload.application} C={payload.clusters} N={payload.alus} "
            "(api version skew between coordinator and worker?)"
        )
    return result


class ClusterCoordinator:
    """Shards work over registered worker daemons (see module docs).

    ``execute`` runs on the daemon's single batch-dispatcher thread;
    sharded sweeps fan out over short-lived per-worker threads that do
    nothing but blocking HTTP — the GIL is irrelevant to their
    parallelism because the compute happens in the worker *processes*.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        heartbeat_timeout_s: float = 6.0,
        point_timeout_s: float = 60.0,
        max_requeue_rounds: int = 3,
        backoff_base: float = 0.05,
        progress: Optional[ProgressBus] = None,
        clock=time.monotonic,
    ):
        self.metrics = metrics
        self.point_timeout_s = point_timeout_s
        self.max_requeue_rounds = max_requeue_rounds
        self.backoff_base = backoff_base
        self.membership = ClusterMembership(
            heartbeat_timeout_s=heartbeat_timeout_s, clock=clock
        )
        self._progress = progress
        self._log = get_logger("cluster")
        #: Dispatcher-thread keep-alive clients for single-point routing.
        self._route_clients: Dict[str, Any] = {}
        self.last_ladder_stats: Optional[Dict[str, int]] = None

    # --- registration surface (called from the HTTP routes) -------------

    def register_worker(self, data: Dict[str, Any]) -> Dict[str, Any]:
        """Handle ``POST /v1/cluster/register``; returns the ack body."""
        try:
            host = str(data["host"])
            port = int(data["port"])
        except (KeyError, TypeError, ValueError):
            raise ApiError(
                "cluster register: body must carry host (str) and "
                "port (int)"
            )
        worker_id = str(data.get("worker_id") or f"{host}:{port}")
        pid = data.get("pid")
        info = self.membership.register(
            worker_id, host, port,
            pid=int(pid) if pid is not None else None,
            stats=data.get("stats") or None,
        )
        self._count("cluster.registrations")
        self._gauge_alive()
        log_event(
            self._log, "cluster.register",
            worker=info.worker_id, host=host, port=port, pid=info.pid,
        )
        return {"worker_id": info.worker_id, "registered": True}

    def worker_heartbeat(self, data: Dict[str, Any]) -> Dict[str, Any]:
        """Handle ``POST /v1/cluster/heartbeat``.

        Unknown workers get ``known=False`` and re-register (the agent
        does this automatically) — the case where a coordinator
        restarted and lost its membership while the fleet survived.
        """
        worker_id = str(data.get("worker_id") or "")
        if not worker_id:
            raise ApiError("cluster heartbeat: worker_id is required")
        known = self.membership.heartbeat(
            worker_id, stats=data.get("stats") or None
        )
        self._count("cluster.heartbeats")
        self._gauge_alive()
        return {"worker_id": worker_id, "known": known}

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/cluster/stats`` payload."""
        doc = self.membership.stats()
        doc["point_timeout_s"] = self.point_timeout_s
        if self.last_ladder_stats is not None:
            doc["last_requeue"] = dict(self.last_ladder_stats)
        return doc

    def wait_for_workers(self, count: int, timeout_s: float = 30.0) -> bool:
        """Block until ``count`` workers registered (fleet boot)."""
        return self.membership.wait_for_workers(count, timeout_s)

    # --- metrics / progress helpers -------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None and value:
            self.metrics.counter(name).inc(value)

    def _gauge_alive(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("cluster.workers_alive").set(
                len(self.membership.alive())
            )

    @property
    def progress(self) -> ProgressBus:
        return self._progress if self._progress is not None else default_bus()

    def _publish(self, event: str, request_id: Optional[str], **fields) -> None:
        bus = self.progress
        if bus.subscriber_count() == 0:
            return
        if request_id is not None:
            fields["request_id"] = request_id
        bus.publish(event, **fields)

    # --- execution ------------------------------------------------------

    def execute(self, request: AnyRequest) -> AnyResult:
        """Answer one API request through the fleet (or locally).

        Sharding policy: simulated-mode sweeps with a live fleet shard;
        analytical sweeps run locally (per-point cost is microseconds,
        below one HTTP round trip);
        compile/simulate route to their ring owner; cost queries are
        local arithmetic.
        """
        alive = self.membership.alive()
        if isinstance(request, SweepRequest):
            if alive and request.mode == "simulated":
                return self._sharded_sweep(request)
            self._count("cluster.points_local")
            return execute(request)
        if isinstance(request, RegisterKernelRequest):
            # Registration is local-first (the shared disk registry is
            # the durable sharing path), then broadcast best-effort so
            # workers with memory-only registries can still resolve the
            # ref when a sharded point lands on them.
            result = execute(request)
            if alive:
                self._broadcast_registration(request, alive)
            return result
        if isinstance(request, CostQuery) or not alive:
            if not isinstance(request, CostQuery):
                self._count("cluster.points_local")
            return execute(request)
        return self._route_point(request)

    def _broadcast_registration(
        self, request: RegisterKernelRequest, alive: List[str]
    ) -> None:
        """Best-effort fan-out of one registration to the live fleet.

        Failures are swallowed: registration already succeeded locally
        and on the shared disk registry, and a worker that missed the
        broadcast re-reads the document from disk on first resolve.
        """
        for worker_id in alive:
            client = self._client_for(worker_id)
            if client is None:
                continue
            try:
                client.post("kernels", request.to_dict())
                self._count("cluster.kernel_broadcasts")
            except (ConnectionError, OSError):
                self._drop_client(worker_id, self._route_clients)

    # --- single-point routing -------------------------------------------

    def _client_for(self, worker_id: str, cache: Optional[dict] = None):
        """A keep-alive client for ``worker_id`` (per-thread caches)."""
        from ..serve.client import ServeClient

        if cache is None:
            cache = self._route_clients
        client = cache.get(worker_id)
        if client is None:
            endpoint = self.membership.endpoint(worker_id)
            if endpoint is None:
                return None
            # Backpressure retries off: the requeue ladder owns retry
            # policy here, and a worker 503 should fail over fast.
            client = ServeClient(
                endpoint[0], endpoint[1],
                timeout=self.point_timeout_s,
                backpressure_retries=0,
            )
            cache[worker_id] = client
        return client

    def _drop_client(self, worker_id: str, cache: dict) -> None:
        client = cache.pop(worker_id, None)
        if client is not None:
            client.close()

    def _send_point(
        self,
        worker_id: str,
        request: AnyRequest,
        cache: dict,
        request_id: Optional[str] = None,
    ) -> Optional[AnyResult]:
        """One point to one worker; ``None`` marks the worker dead.

        Worker-side request errors (``bad_request``) re-raise as
        :class:`~repro.api.ApiError` — they are deterministic and must
        not burn requeue rounds, mirroring the executor's rule that
        retries are reserved for infrastructure failures.
        """
        kind = _POINT_KINDS.get(type(request))
        if kind is None:
            raise ApiError(
                f"not a routable point request: {type(request).__name__}"
            )
        client = self._client_for(worker_id, cache)
        if client is None:
            return None
        fault_point("cluster.dispatch")
        try:
            response = client.post(
                kind, request.to_dict(), request_id=request_id
            )
        except (ConnectionError, OSError) as exc:
            self._drop_client(worker_id, cache)
            self.membership.mark_dead(worker_id, error=str(exc))
            self.membership.record_point(worker_id, ok=False)
            self._count("cluster.worker_deaths")
            self._gauge_alive()
            log_event(
                self._log, "cluster.worker_dead",
                worker=worker_id, error=str(exc),
            )
            return None
        if response.status != 200:
            error = response.error or {}
            if error.get("code") == "bad_request":
                self.membership.record_point(worker_id, ok=False)
                raise ApiError(str(error.get("message", "bad request")))
            # 5xx / drain / timeout: treat as a dead worker for this
            # point; its heartbeat revives it once it recovers.
            self.membership.mark_dead(
                worker_id,
                error=f"HTTP {response.status} from {client.host}:"
                      f"{client.port}: {error.get('message')}",
            )
            self.membership.record_point(worker_id, ok=False)
            self._count("cluster.worker_deaths")
            self._gauge_alive()
            return None
        result_cls = CompileResult if kind == "compile" else SimulateResult
        try:
            result = result_cls.from_dict(response.data)
        except ApiError as exc:
            self.membership.mark_dead(worker_id, error=str(exc))
            self.membership.record_point(worker_id, ok=False)
            self._count("cluster.worker_deaths")
            return None
        self.membership.record_point(worker_id, ok=True)
        self._count("cluster.points_remote")
        return result

    def _route_point(self, request: AnyRequest) -> AnyResult:
        """Route one compile/simulate to its shard owner, walking the
        ring's failover order; local execution is the last rung."""
        key = dedup_key(request)
        request_id = current_request_id()
        with self.membership._lock:
            preference = list(self.membership.ring.preference(key))
        for worker_id in preference:
            if worker_id not in self.membership.alive():
                continue
            result = self._send_point(
                worker_id, request, self._route_clients,
                request_id=request_id,
            )
            if result is not None:
                self._seed_point(request, result)
                return result
            self._count("cluster.requeue.requeued")
        self._count("cluster.points_local")
        return execute(request)

    # --- sharded sweeps --------------------------------------------------

    def _have_locally(self, engine, point: AnyRequest) -> bool:
        from ..core.config import ProcessorConfig
        from ..core.params import TECH_45NM

        if isinstance(point, CompileRequest):
            return engine.has_rate(
                point.kernel, ProcessorConfig(point.clusters, point.alus)
            )
        return engine.has_simulation(
            point.application,
            ProcessorConfig(point.clusters, point.alus),
            TECH_45NM,
            point.clock_ghz,
            point.mode,
        )

    def _seed_point(self, point: AnyRequest, result: AnyResult) -> None:
        """Install one worker-computed point in the local engine memo
        (and therefore the sweep checkpoint)."""
        from ..analysis.sweep import default_engine
        from ..core.config import ProcessorConfig
        from ..core.params import TECH_45NM

        engine = default_engine()
        if isinstance(point, CompileRequest):
            engine.seed_rate(
                point.kernel,
                ProcessorConfig(point.clusters, point.alus),
                result.ops_per_cycle,
            )
        else:
            engine.seed_simulation(
                point.application,
                ProcessorConfig(point.clusters, point.alus),
                TECH_45NM,
                point.clock_ghz,
                point.mode,
                _simulation_from_payload(result),
            )

    def _compute_locally(self, point: AnyRequest) -> None:
        """Serial fallback: fill the memo through the engine primitives
        (the exact code path a single-node sweep takes)."""
        compute_point_locally(point)
        self._count("cluster.points_local")

    def _sharded_sweep(self, request: SweepRequest) -> AnyResult:
        """Shard one sweep's points over the fleet, then assemble
        locally (see the module docstring for the full story)."""
        from ..analysis.sweep import default_engine, plan_shards

        engine = default_engine()
        request_id = current_request_id()
        points = expand_sweep_points(request)
        keys = [dedup_key(point) for point in points]
        pending = [
            index
            for index, point in enumerate(points)
            if not self._have_locally(engine, point)
        ]
        ladder = RequeueLadder(
            max_rounds=self.max_requeue_rounds,
            backoff_base=self.backoff_base,
            metrics=self.metrics,
            prefix="cluster.requeue",
        )
        self._count("cluster.sweeps_sharded")
        self._publish(
            "cluster_sweep_start", request_id,
            target=request.target, total=len(points), remote=len(pending),
            workers=self.membership.alive(),
        )
        started = time.perf_counter()
        round_index = 0
        while pending:
            alive = self.membership.alive()
            with self.membership._lock:
                ring = self.membership.ring
                shards = plan_shards(
                    [keys[index] for index in pending],
                    lambda key: ring.owner(key, alive),
                )
            local_positions = shards.pop(None, [])
            failed: List[int] = []
            failed_lock = threading.Lock()
            done_counter = [0]

            def _run_shard(worker_id: str, positions: List[int]) -> None:
                cache: Dict[str, Any] = {}
                indices = [pending[position] for position in positions]
                for cursor, index in enumerate(indices):
                    result = None
                    try:
                        result = self._send_point(
                            worker_id, points[index], cache,
                            request_id=request_id,
                        )
                    except ApiError:
                        # Deterministic failure: requeueing cannot fix
                        # it; let the local fallback raise it properly.
                        result = None
                    if result is None:
                        with failed_lock:
                            failed.extend(indices[cursor:])
                        break
                    self._seed_point(points[index], result)
                    with failed_lock:
                        done_counter[0] += 1
                        done = done_counter[0]
                    self._publish(
                        "cluster_point", request_id,
                        worker=worker_id,
                        kind=_POINT_KINDS[type(points[index])],
                        completed=done,
                        total=len(pending),
                    )
                for client in cache.values():
                    client.close()

            threads = [
                threading.Thread(
                    target=_run_shard,
                    args=(worker_id, positions),
                    name=f"cluster-shard-{worker_id}",
                    daemon=True,
                )
                for worker_id, positions in shards.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for position in local_positions:
                # No owner on the ring (empty/dead fleet): compute here.
                self._compute_locally(points[pending[position]])

            still_failed = sorted(set(failed))
            recovered = (
                len(pending) - len(local_positions) - len(still_failed)
            )
            if round_index > 0 and recovered > 0:
                ladder.record_recovered(recovered)
            if not still_failed:
                break
            ladder.record_requeued(len(still_failed))
            self._publish(
                "cluster_requeue", request_id,
                points=len(still_failed), round=round_index,
                workers=self.membership.alive(),
            )
            log_event(
                self._log, "cluster.requeue",
                points=len(still_failed), round=round_index,
            )
            if not ladder.allow_round(round_index):
                ladder.record_exhausted(len(still_failed))
                for index in still_failed:
                    self._compute_locally(points[index])
                break
            round_index += 1
            pending = still_failed

        self.last_ladder_stats = ladder.stats()
        self._publish(
            "cluster_sweep_end", request_id,
            target=request.target, total=len(points),
            seconds=round(time.perf_counter() - started, 3),
            requeue=self.last_ladder_stats,
        )
        # Every point is now in the local memo; this is the single-node
        # serial assembly path, so rows/ordering/floats are identical
        # to a single-node run by construction.
        return execute(request)

    def close(self) -> None:
        """Release routing clients (coordinator drain)."""
        for client in self._route_clients.values():
            client.close()
        self._route_clients.clear()
