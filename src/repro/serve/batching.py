"""Micro-batching and in-flight deduplication for the serving daemon.

The workload shape the daemon exists for — many small cost/compile/
simulate queries sharing warm state — rewards two queueing tricks:

* **micro-batching**: a request that arrives while the executor is
  idle goes straight to it; requests that queue while a batch runs are
  drained together once it finishes and executed as one batch on the
  worker executor, so per-dispatch overhead (thread hop, pool
  submission) is paid per *batch*, not per request, and no request
  ever waits for anything but the batch ahead of it;
* **deduplication**: identical queries (same :func:`repro.api.dedup_key`)
  that are queued or executing coalesce onto one computation — every
  waiter receives the same result object.  The API's runners are
  deterministic, so coalescing is invisible to callers.

The batcher also owns the daemon's **backpressure**: the pending queue
is bounded, and a submit against a full queue raises :class:`QueueFull`
— the HTTP layer turns that into ``429 Retry-After`` rather than
letting latency grow without bound.

Everything here runs on the asyncio event loop except the batch bodies
themselves, which execute on a single dispatcher thread (keeping the
warm :func:`~repro.analysis.sweep.default_engine` and compile caches
accessed from one compute thread at a time).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import (
    Any, Callable, Deque, Dict, List, NamedTuple, Optional, Sequence,
)

from ..obs.metrics import MetricsRegistry

__all__ = ["MicroBatcher", "QueueFull"]


class QueueFull(RuntimeError):
    """The pending queue is at capacity; the caller should retry later."""


class _Entry(NamedTuple):
    """One pending (then executing) computation and its waiters."""

    key: str
    request: Any
    future: "asyncio.Future"
    #: Member correlation ids; coalesced waiters append theirs, so the
    #: list is mutable and shared with the in-flight table.
    request_ids: List[str]
    #: ``time.perf_counter()`` at submit, for ``serve.queue_wait_seconds``.
    submitted: float


class MicroBatcher:
    """Coalescing, bounded dispatcher for API requests that dispatches
    as soon as its executor is idle.

    Parameters
    ----------
    runner:
        ``runner(requests, request_ids) -> outcomes`` executed on the
        dispatcher thread; ``request_ids`` is one list of correlation
        ids per request (coalesced waiters contribute theirs to the
        same list).  Must return one outcome per request, in order, and
        never raise for per-request failures (wrap them in the outcome)
        — a raise fails the whole batch.
    max_queue:
        Bound on *pending* (not yet executing) requests; beyond it
        :meth:`submit` raises :class:`QueueFull`.
    max_batch:
        Largest batch handed to ``runner`` in one call.
    metrics:
        Optional registry: ``serve.queue_depth`` gauge,
        ``serve.dedup_hits``/``serve.batches`` counters and
        ``serve.batch_size``/``serve.batch_seconds``/
        ``serve.queue_wait_seconds`` histograms land here.
    """

    def __init__(
        self,
        runner: Callable[[Sequence[Any], Sequence[List[str]]], List[Any]],
        *,
        max_queue: int = 64,
        max_batch: int = 16,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.runner = runner
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.metrics = metrics
        self.submitted = 0
        self.deduped = 0
        self.batches = 0
        self.executed = 0
        self._pending: Deque[_Entry] = deque()
        self._inflight: Dict[str, _Entry] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch"
        )
        self._idle: Optional[asyncio.Event] = None

    # --- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Create the dispatch task on the running loop."""
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until nothing is pending or executing.

        Returns ``True`` on a clean drain, ``False`` if ``timeout``
        expired first (work may still be running).
        """
        assert self._idle is not None, "batcher not started"
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    async def stop(self) -> None:
        """Cancel the dispatch task and release the dispatcher thread."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._pool.shutdown(wait=True)

    # --- queueing -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Requests currently pending (queued, not yet executing)."""
        return len(self._pending)

    def stats(self) -> Dict[str, int]:
        """Submission/dedup/batch counters, for ``/v1/stats`` and tests."""
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "batches": self.batches,
            "executed": self.executed,
            "queue_depth": len(self._pending),
        }

    def _gauge_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("serve.queue_depth").set(len(self._pending))

    def submit(
        self, key: str, request: Any, request_id: Optional[str] = None
    ) -> "asyncio.Future":
        """Enqueue ``request`` (or coalesce onto an identical in-flight
        one); returns the future every coalesced waiter shares.

        ``request_id`` joins the member-id list of whichever batch entry
        serves this waiter — coalesced requests share one computation
        but each keeps its own correlation id.

        Must be called from the event-loop thread.  Raises
        :class:`QueueFull` when the pending queue is at capacity.
        """
        self.submitted += 1
        existing = self._inflight.get(key)
        if existing is not None and not existing.future.done():
            self.deduped += 1
            if request_id is not None:
                existing.request_ids.append(request_id)
            if self.metrics is not None:
                self.metrics.counter("serve.dedup_hits").inc()
            return existing.future
        if len(self._pending) >= self.max_queue:
            raise QueueFull(
                f"pending queue at capacity ({self.max_queue} requests)"
            )
        entry = _Entry(
            key,
            request,
            asyncio.get_running_loop().create_future(),
            [] if request_id is None else [request_id],
            time.perf_counter(),
        )
        self._inflight[key] = entry
        self._pending.append(entry)
        self._gauge_depth()
        assert self._wakeup is not None and self._idle is not None
        self._idle.clear()
        self._wakeup.set()
        return entry.future

    # --- dispatch -------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Run batches back to back while anything is pending, then
        go idle until the next submit."""
        assert self._wakeup is not None and self._idle is not None
        while True:
            await self._wakeup.wait()
            while self._pending:
                batch = [
                    self._pending.popleft()
                    for _ in range(min(self.max_batch, len(self._pending)))
                ]
                self._gauge_depth()
                await self._execute(batch)
            # No await since the check above, so no submit can slip in
            # between it and going idle.
            self._wakeup.clear()
            self._idle.set()

    async def _execute(self, batch: List[_Entry]) -> None:
        """Hand ``batch`` to the runner and settle every waiter's future."""
        self.batches += 1
        started = time.perf_counter()
        if self.metrics is not None:
            self.metrics.counter("serve.batches").inc()
            self.metrics.histogram("serve.batch_size").observe(len(batch))
            waits = self.metrics.histogram("serve.queue_wait_seconds")
            for entry in batch:
                waits.observe(started - entry.submitted)
        requests = [entry.request for entry in batch]
        # Snapshot the id lists at hand-off: coalesces that arrive later
        # still share the future but are not part of this batch's record.
        request_ids = [list(entry.request_ids) for entry in batch]
        try:
            outcomes = await asyncio.get_running_loop().run_in_executor(
                self._pool, self.runner, requests, request_ids
            )
        except asyncio.CancelledError:
            for entry in batch:
                if not entry.future.done():
                    entry.future.cancel()
            raise
        except BaseException as exc:  # runner bug: fail the batch
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
                self._forget(entry)
            return
        if self.metrics is not None:
            self.metrics.histogram("serve.batch_seconds").observe(
                time.perf_counter() - started
            )
        for entry, outcome in zip(batch, outcomes):
            self.executed += 1
            if not entry.future.done():
                entry.future.set_result(outcome)
            self._forget(entry)

    def _forget(self, entry: _Entry) -> None:
        """Drop the in-flight entry once its computation completed (a
        *new* identical request afterwards recomputes — and hits the
        warm caches — rather than reusing a stale future forever)."""
        if self._inflight.get(entry.key) is entry:
            del self._inflight[entry.key]
