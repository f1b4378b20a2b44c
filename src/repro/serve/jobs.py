"""The async job layer: persistent sweep jobs with checkpointed resume.

``POST /v1/jobs`` accepts any :class:`~repro.api.SweepRequest` and
answers immediately with a job id; a single runner thread then walks
the job's primitive grid points **one at a time**, interleaving points
across tenants under the fair-share scheduler
(:mod:`repro.serve.tenancy`).  Each point executes through the sweep
engine's memoizing primitives — the exact code path a synchronous
sweep takes — so every completed point lands in the engine memo *and*
the sweep checkpoint.  The final assembly step then replays the whole
sweep out of the memo, which is why a job's result is byte-identical
to the synchronous ``/v1/sweeps`` route, and why resume is free: after
a daemon crash the new process replays the checkpoint into the memo
and re-walks the point list, where every previously completed point is
a memo hit.

Point routing composes with cluster mode: when the daemon has a live
worker fleet, each point dispatches to its consistent-hash ring owner
via the coordinator (which seeds the local memo with the result), so
jobs shard over the fleet exactly like synchronous sweeps.

Analytical-mode jobs skip the per-point walk — their whole grid costs
milliseconds — and run as one assembly step.

State machine (persisted per transition, one atomic JSON file per job
under the job directory)::

    queued ──> running ──> done
       │          │  └───> failed
       │          └──────> cancelled
       └─────────────────> cancelled

    (restart: running ──> queued, points replay as memo hits)

Every state change goes through :meth:`JobManager._transition`, under
the manager's lock and against :data:`TRANSITIONS`: a terminal state is
final, so a cancel racing the runner ends a job — its ``job_end``
event, its ``serve.jobs.<state>`` count, its scheduler removal —
exactly once.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..api import (
    ApiError,
    JobRequest,
    JobStatus,
    SweepRequest,
    SweepResult,
    safe_execute,
)
from ..obs.log import bind_request_id, get_logger, log_event
from .tenancy import FairShareScheduler, Tenant, TenantRegistry

__all__ = [
    "JobManager",
    "JobRecord",
    "JobStore",
    "count_sweep_points",
]

#: Bump when the persisted job layout changes (old files are skipped).
#: v2: the persisted sweep lost ``workers`` (API v6).
STORE_SCHEMA_VERSION = 2

#: Legal state changes.  Terminal states have no entry: they are final.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "queued": ("running", "cancelled"),
    "running": ("queued", "done", "failed", "cancelled"),
}
TERMINAL_STATES = ("done", "failed", "cancelled")


def count_sweep_points(sweep: SweepRequest) -> int:
    """How many primitive grid points one sweep resolves through.

    The unit quotas and fair-share weights are denominated in — the
    same expansion cluster sharding uses, so an analytical job charges
    the same budget as its simulated twin (the *grid* is the product,
    not the backend).
    """
    from ..cluster.coordinator import expand_sweep_points

    return len(expand_sweep_points(sweep))


@dataclass
class JobRecord:
    """One job's full runtime state (the store persists a projection)."""

    job_id: str
    tenant: str
    sweep: SweepRequest
    state: str = "queued"
    points_total: int = 0
    points_done: int = 0
    error: str = ""
    result: Optional[Dict[str, Any]] = None
    seq: int = 0
    submitted_unix: float = 0.0
    queue_wait_s: Optional[float] = None
    run_s: Optional[float] = None
    #: Runtime-only: the not-yet-executed point requests (None until
    #: the runner first picks the job up).
    pending: Optional[Deque[Any]] = None
    cancel: threading.Event = field(default_factory=threading.Event)
    _started_monotonic: float = 0.0
    _submitted_monotonic: Optional[float] = None

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            tenant=self.tenant,
            target=self.sweep.target,
            mode=self.sweep.mode,
            kernel=self.sweep.kernel,
            points_total=self.points_total,
            points_done=self.points_done,
            error=self.error,
        )

    def meta(self) -> Dict[str, Any]:
        """Volatile wall-clock facts, for envelope ``meta``."""
        out: Dict[str, Any] = {}
        if self.queue_wait_s is not None:
            out["queue_wait_ms"] = round(self.queue_wait_s * 1000.0, 3)
        if self.run_s is not None:
            out["run_ms"] = round(self.run_s * 1000.0, 3)
        return out

    def to_persist(self) -> Dict[str, Any]:
        return {
            "schema_version": STORE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "tenant": self.tenant,
            "sweep": self.sweep.to_dict(),
            "state": self.state,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "error": self.error,
            "result": self.result,
            "seq": self.seq,
            "submitted_unix": self.submitted_unix,
            "queue_wait_s": self.queue_wait_s,
            "run_s": self.run_s,
        }

    @classmethod
    def from_persist(cls, data: Dict[str, Any]) -> "JobRecord":
        sweep = SweepRequest.from_dict(data["sweep"])
        record = cls(
            job_id=str(data["job_id"]),
            tenant=str(data["tenant"]),
            sweep=sweep,  # type: ignore[arg-type]
            state=str(data["state"]),
            points_total=int(data.get("points_total", 0)),
            points_done=int(data.get("points_done", 0)),
            error=str(data.get("error", "")),
            result=data.get("result"),
            seq=int(data.get("seq", 0)),
            submitted_unix=float(data.get("submitted_unix", 0.0)),
            queue_wait_s=data.get("queue_wait_s"),
            run_s=data.get("run_s"),
        )
        return record


class JobStore:
    """One directory of job files, written atomically per transition.

    ``root=None`` builds a memory-only store (in-process test servers):
    saves are no-ops and :meth:`load_all` yields nothing, so the
    manager never branches on persistence.  Follows the sweep
    checkpoint's storage discipline — tempfile + ``os.replace`` in the
    target directory, damaged files skipped on load.
    """

    def __init__(self, root: Optional[Path]):
        self.root = Path(root).expanduser() if root is not None else None

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, job_id: str) -> Path:
        assert self.root is not None
        return self.root / f"{job_id}.json"

    def save(self, record: JobRecord) -> None:
        if self.root is None:
            return
        import json
        import os
        import tempfile

        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record.to_persist(), sort_keys=True)
        fd, temp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{record.job_id}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(temp_name, self._path(record.job_id))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def load_all(self) -> List[JobRecord]:
        """Every readable job file, oldest submission first."""
        if self.root is None or not self.root.is_dir():
            return []
        import json

        records: List[JobRecord] = []
        for path in sorted(self.root.glob("job-*.json")):
            try:
                data = json.loads(path.read_text())
                if data.get("schema_version") != STORE_SCHEMA_VERSION:
                    continue
                records.append(JobRecord.from_persist(data))
            except (OSError, ValueError, KeyError, ApiError):
                continue
        records.sort(key=lambda r: (r.seq, r.job_id))
        return records


class JobManager:
    """Owns the job table, the fair-share queue, and the runner thread.

    ``point_runner`` and ``assemble`` are injectable for the clocked
    scheduler tests; the defaults are the real engine paths
    (:func:`repro.cluster.coordinator.compute_point_locally` and
    :func:`repro.api.execute`).
    """

    def __init__(
        self,
        store: JobStore,
        registry: TenantRegistry,
        metrics=None,
        bus=None,
        coordinator=None,
        point_runner: Optional[Callable[[Any], None]] = None,
        assemble: Optional[Callable[[SweepRequest], SweepResult]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.store = store
        self.registry = registry
        self.metrics = metrics
        self._bus = bus
        self.coordinator = coordinator
        self._point_runner = point_runner
        self._assemble = assemble
        self._clock = clock
        self._log = get_logger("jobs")
        self._jobs: Dict[str, JobRecord] = {}
        self._scheduler = FairShareScheduler()
        self._lock = threading.RLock()
        self._seq = 0
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._checkpoint_ready = False
        #: Test hook, like :func:`repro.resilience.faults.fault_point`:
        #: when set, the runner calls ``runner_gate(site, record)`` at
        #: ``"advance"`` (a picked job, before its quantum) and
        #: ``"point"`` (before running one point), so a test can hold
        #: the runner there and force an interleaving.
        self.runner_gate: Optional[Callable[[str, JobRecord], None]] = None

    # --- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Load persisted jobs (interrupted ones re-queue) and start
        the runner thread."""
        restored = 0
        for record in self.store.load_all():
            with self._lock:
                self._seq = max(self._seq, record.seq + 1)
                self._jobs[record.job_id] = record
            if record.state in ("queued", "running"):
                record.points_done = 0
                if not self._transition(record, "queued"):
                    self.store.save(record)  # it was already queued
                weight = self._weight(record.tenant)
                self._scheduler.enqueue(record.tenant, weight, record.job_id)
                restored += 1
        if restored:
            log_event(self._log, "jobs.restored", count=restored)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="job-runner", daemon=True
        )
        self._thread.start()
        self._wake.set()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop after the in-flight point; interrupted jobs stay
        ``running`` on disk and re-queue on the next start."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _weight(self, tenant_name: str) -> float:
        tenant = self.registry.get(tenant_name)
        return tenant.weight if tenant is not None else 1.0

    # --- submission / queries -------------------------------------------

    def submit(
        self, tenant: Tenant, request: JobRequest, points: int
    ) -> JobRecord:
        """Admit one already-authorized job into the queue."""
        sweep = request.sweep_request()
        with self._lock:
            seq = self._seq
            self._seq += 1
            record = JobRecord(
                job_id=f"job-{uuid.uuid4().hex[:12]}",
                tenant=tenant.name,
                sweep=sweep,
                points_total=points,
                seq=seq,
                submitted_unix=time.time(),
            )
            record._submitted_monotonic = self._clock()
            self._jobs[record.job_id] = record
        self.store.save(record)
        self._count("serve.jobs.submitted")
        self._publish(
            "job_state", record, state="queued"
        )
        self._scheduler.enqueue(tenant.name, tenant.weight, record.job_id)
        self._wake.set()
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            records = sorted(
                self._jobs.values(), key=lambda r: (r.seq, r.job_id)
            )
        if tenant is not None:
            records = [r for r in records if r.tenant == tenant]
        return records

    def cancel(self, job_id: str) -> Tuple[bool, str]:
        """Request cancellation; ``(False, reason)`` once terminal."""
        record = self.get(job_id)
        if record is None:
            return False, "not_found"
        with self._lock:
            if record.state in TERMINAL_STATES:
                return False, "conflict"
            record.cancel.set()
            # A queued job cancels immediately (the runner may be
            # blocked on another tenant's long point; don't make the
            # caller wait).  A running one ends at its next quantum.
            if record.state == "queued":
                self._transition(record, "cancelled")
        self._wake.set()
        return True, ""

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
        return {"jobs": states, "queued_points": self._scheduler.pending()}

    # --- runner ---------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            picked = self._scheduler.next()
            if picked is None:
                self._wake.wait(0.1)
                self._wake.clear()
                continue
            tenant_name, job_id = picked
            record = self.get(job_id)
            if record is None:
                self._scheduler.finish(tenant_name, job_id)
                continue
            if record.state in TERMINAL_STATES:
                continue  # its terminal transition already dequeued it
            self._gate("advance", record)
            try:
                self._advance(record)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # runner must survive any job bug
                self._transition(
                    record, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                )

    def _advance(self, record: JobRecord) -> bool:
        """Run one scheduling quantum of ``record``: its state
        transition, one point, or the final assembly.  Returns ``True``
        once the job left the queue."""
        if record.cancel.is_set():
            self._transition(record, "cancelled")
            return True
        if record.state == "queued":
            self._ensure_checkpoint()
            if not self._transition(record, "running"):
                return True
            record.pending = deque(self._points_for(record.sweep))
            return False
        if record.pending:
            point = record.pending.popleft()
            self._gate("point", record)
            ok, error = self._run_point(record, point)
            if record.cancel.is_set():
                self._transition(record, "cancelled")
                return True
            if not ok:
                self._transition(record, "failed", error=error)
                return True
            record.points_done += 1
            self._count("serve.jobs.points")
            self._count(f"serve.jobs.points.{record.tenant}")
            self.store.save(record)
            self._scheduler.charge(record.tenant, 1.0)
            self._publish(
                "job_point", record,
                done=record.points_done, total=record.points_total,
            )
            return False
        return self._finish_assembly(record)

    def _finish_assembly(self, record: JobRecord) -> bool:
        """Assemble the final rows (all memo hits for simulated jobs)."""
        with bind_request_id(record.job_id):
            try:
                result = self._run_assemble(record.sweep)
            except ApiError as exc:
                self._transition(record, "failed", error=str(exc))
                return True
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                self._transition(
                    record, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
                return True
        self._transition(record, "done", result=result.to_dict())
        return True

    def _transition(
        self, record: JobRecord, state: str, error: str = "",
        result: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Move ``record`` to ``state`` if :data:`TRANSITIONS` allows it.

        Returns ``False`` (and changes nothing) otherwise.  The check,
        the change, its persistence and its events happen under the
        lock, so concurrent callers see one order and a job reaches a
        terminal state — and emits its end events — exactly once.
        """
        with self._lock:
            if state not in TRANSITIONS.get(record.state, ()):
                return False
            record.state = state
            if state == "running":
                record._started_monotonic = self._clock()
                submitted = record._submitted_monotonic
                if submitted is not None:
                    record.queue_wait_s = max(
                        0.0, record._started_monotonic - submitted
                    )
                    if self.metrics is not None:
                        self.metrics.histogram(
                            "serve.jobs.queue_wait_seconds"
                        ).observe(record.queue_wait_s)
            if state in TERMINAL_STATES:
                record.error = error
                if result is not None:
                    record.result = result
                    record.points_done = record.points_total
                if record._started_monotonic:
                    record.run_s = max(
                        0.0, self._clock() - record._started_monotonic
                    )
            self.store.save(record)
            self._publish("job_state", record, state=state)
            if state not in TERMINAL_STATES:
                return True
            self._scheduler.finish(record.tenant, record.job_id)
            self._count(f"serve.jobs.{state}")
            self._publish(
                "job_end", record, state=state,
                **({"error": error} if error else {}),
            )
            log_event(
                self._log, "jobs.finished",
                job_id=record.job_id, tenant=record.tenant, state=state,
                points=record.points_done, error=error or None,
            )
            return True

    def _gate(self, site: str, record: JobRecord) -> None:
        if self.runner_gate is not None:
            self.runner_gate(site, record)

    # --- execution plumbing ---------------------------------------------

    def _points_for(self, sweep: SweepRequest) -> List[Any]:
        """The per-point walk; analytical grids run whole (they cost
        milliseconds)."""
        if sweep.mode != "simulated":
            return []
        from ..cluster.coordinator import expand_sweep_points

        return expand_sweep_points(sweep)

    def _run_point(self, record: JobRecord, point: Any) -> Tuple[bool, str]:
        """One point through the fleet (ring owner) or locally; either
        path lands the result in the local engine memo + checkpoint."""
        try:
            if self._point_runner is not None:
                with bind_request_id(record.job_id):
                    self._point_runner(point)
                return True, ""
            coordinator = self.coordinator
            if (
                coordinator is not None
                and coordinator.membership.alive()
            ):
                status, value = safe_execute(
                    (record.job_id, point), coordinator.execute
                )
                if status != "ok":
                    return False, str(value[1])
                return True, ""
            from ..cluster.coordinator import compute_point_locally

            with bind_request_id(record.job_id):
                compute_point_locally(point)
            return True, ""
        except ApiError as exc:
            return False, str(exc)
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            return False, f"{type(exc).__name__}: {exc}"

    def _run_assemble(self, sweep: SweepRequest) -> SweepResult:
        if self._assemble is not None:
            return self._assemble(sweep)
        from ..api import execute

        return execute(sweep)  # type: ignore[return-value]

    def _ensure_checkpoint(self) -> None:
        """Attach the sweep checkpoint to the engine (once) and replay
        completed points, so resumed jobs re-walk their grids as memo
        hits.  The daemon never configures this otherwise — only job
        execution needs durability."""
        if self._checkpoint_ready:
            return
        self._checkpoint_ready = True
        try:
            from ..analysis.sweep import default_engine
            from ..resilience.checkpoint import (
                SweepCheckpoint,
                default_checkpoint_root,
            )

            engine = default_engine()
            checkpoint = getattr(engine, "checkpoint", None)
            if checkpoint is None or not checkpoint.enabled:
                root = default_checkpoint_root()
                if root is None:
                    return
                engine.configure_checkpoint(
                    SweepCheckpoint(root, metrics=self.metrics)
                )
            restored = engine.resume()
            if restored:
                log_event(self._log, "jobs.resume", points=restored)
        except Exception as exc:  # durability is best-effort
            import logging

            log_event(
                self._log, "jobs.checkpoint_error",
                level=logging.WARNING, error=str(exc),
            )

    # --- observability ---------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _publish(self, event: str, record: JobRecord, **fields) -> None:
        if self._bus is None:
            return
        self._bus.publish(
            event,
            request_id=record.job_id,
            job_id=record.job_id,
            tenant=record.tenant,
            target=record.sweep.target,
            **fields,
        )
