"""Resilient process-pool fan-out: timeouts, retries, serial fallback.

:class:`ResilientExecutor` is a hardened ``ProcessPoolExecutor.map``;
the serving daemon runs its batches on one (``repro serve --workers``).
It keeps a batch alive through hung workers (per-task
timeouts), crashed workers (broken pools are quarantined and rebuilt),
and transient task exceptions (bounded exponential-backoff retries),
and when the pool machinery itself keeps failing it degrades to serial
in-process execution — *degraded means slower, never different*: the
task functions are deterministic, so any path that ultimately succeeds
returns exactly what a fault-free serial run returns.

Two failure classes are never absorbed:

* ``KeyboardInterrupt`` / ``SystemExit`` propagate immediately — the
  user's ^C must never be "retried" into a hang;
* a task that still fails after every retry *and* the final serial
  attempt raises its last error to the caller.

Every recovery action is counted (see :meth:`ResilientExecutor.stats`)
and mirrored into an attached
:class:`~repro.obs.metrics.MetricsRegistry` under ``resilience.*``;
an attached :class:`~repro.obs.tracer.Tracer` receives instant events
on the ``resilience`` lane so recoveries show up on timelines.
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.log import get_logger, log_event
from ..obs.tracer import NULL_TRACER, Tracer
from .faults import mark_worker_process

__all__ = ["ResilientExecutor"]

_LOG = get_logger("resilience")

#: Counter names the executor maintains (mirrored as ``resilience.<name>``).
COUNTERS = (
    "tasks_ok",
    "retries",
    "timeouts",
    "pool_failures",
    "serial_fallbacks",
    "quarantined_workers",
    "tasks_failed",
)


def _worker_init() -> None:
    """Pool initializer: mark the child as a resilience worker so the
    fault injector's ``crash``/``workers_only`` semantics engage."""
    mark_worker_process()


class ResilientExecutor:
    """Ordered ``map`` over a process pool that survives partial failure.

    Parameters
    ----------
    workers:
        Pool width; ``<= 1`` means run serially from the start.
    timeout:
        Per-task seconds before a running task is declared hung; the
        whole pool is then retired (its workers quarantined — one of
        them is wedged) and the task retried on a fresh pool.  ``None``
        disables timeouts.
    max_retries:
        Pool attempts per task beyond the first; a task that exceeds
        them escalates to the in-process serial path.
    max_pool_failures:
        Broken/unbuildable pools tolerated before the remaining work
        abandons pooling entirely and finishes serially.
    backoff_base / backoff_cap:
        Exponential backoff between retry rounds, in seconds
        (deterministic: no jitter, so chaos runs are reproducible).
    persistent:
        Keep the process pool alive *between* :meth:`map` calls.  A
        one-shot map pays pool startup once and tears it down; a
        long-running server calling :meth:`map` per micro-batch would
        pay it per batch, so persistent mode reuses one warm pool until
        :meth:`close` (retired pools — broken or hung — are still
        replaced with fresh ones, exactly as in one-shot mode).
    """

    def __init__(
        self,
        workers: int,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        max_pool_failures: int = 2,
        backoff_base: float = 0.01,
        backoff_cap: float = 1.0,
        metrics=None,
        tracer: Tracer = NULL_TRACER,
        persistent: bool = False,
    ):
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_pool_failures = max_pool_failures
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.metrics = metrics
        self.tracer = tracer
        self.persistent = persistent
        self.quarantined_pids: List[int] = []
        self._pool = None  # the kept pool, persistent mode only
        self._counters: Dict[str, int] = {name: 0 for name in COUNTERS}

    # --- bookkeeping ----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """The recovery counters (also mirrored as ``resilience.*``)."""
        return dict(self._counters)

    def _count(self, name: str, amount: int = 1) -> None:
        self._counters[name] += amount
        if self.metrics is not None:
            self.metrics.counter(f"resilience.{name}").inc(amount)

    def _event(self, label: str, **detail) -> None:
        """One recovery event, to both the tracer (instant on the
        ``resilience`` lane, request id auto-attached when bound) and
        the structured log — recoveries are exactly what an operator
        greps a request id for."""
        if self.tracer.enabled:
            self.tracer.instant("resilience", label, 0, **detail)
        log_event(
            _LOG, f"resilience.{label}",
            level=logging.WARNING, **detail,
        )

    def _backoff(self, round_index: int) -> None:
        if self.backoff_base <= 0:
            return
        time.sleep(
            min(self.backoff_cap, self.backoff_base * (2 ** round_index))
        )

    # --- pool plumbing --------------------------------------------------

    def _make_pool(self, width: int):
        """A (possibly kept) pool, or ``None`` when the platform cannot
        spawn one (counted as a pool failure so the fallback engages)."""
        from concurrent.futures import ProcessPoolExecutor

        if self.persistent and self._pool is not None:
            return self._pool
        try:
            pool = ProcessPoolExecutor(
                max_workers=max(1, min(self.workers, width)),
                initializer=_worker_init,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            return None
        if self.persistent:
            self._pool = pool
        return pool

    def close(self) -> None:
        """Shut down a persistent pool (no-op otherwise, or when the
        pool was never built)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ResilientExecutor":
        """Context-manager support: ``close()`` on exit."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close the persistent pool when the ``with`` block ends."""
        self.close()

    def _retire_pool(self, pool, reason: str) -> None:
        """Quarantine a suspect pool: record its worker pids, stop
        feeding it, and let its processes drain without being waited on."""
        if pool is self._pool:
            self._pool = None  # never hand a retired pool out again
        try:
            pids = [p.pid for p in getattr(pool, "_processes", {}).values()]
        except Exception:
            pids = []
        self.quarantined_pids.extend(pids)
        self._count("quarantined_workers", max(1, len(pids)))
        self._event(f"pool retired: {reason}", pids=pids)
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # cancel_futures needs 3.9+; repo floor is 3.9
            pool.shutdown(wait=False)

    # --- serial path ----------------------------------------------------

    def _call_serial(self, fn: Callable, item: Any) -> Any:
        """Run one task in-process with bounded retries.

        The last attempt re-raises the task's own error so callers see
        the true cause, and interrupts always pass straight through —
        retrying a ^C is the one unforgivable move for an executor.
        """
        for attempt in range(self.max_retries + 1):
            try:
                return fn(item)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                self._count("retries")
                if attempt == self.max_retries:
                    self._count("tasks_failed")
                    raise
                self._backoff(attempt)

    # --- the public fan-out ---------------------------------------------

    def map(self, fn: Callable, items: Sequence[Any]) -> List[Any]:
        """``[fn(item) for item in items]``, resiliently; results in order.

        ``fn`` must be a picklable module-level callable (the usual
        process-pool constraint); with ``workers <= 1`` the pool is
        skipped entirely.
        """
        items = list(items)
        if not items:
            return []
        results: Dict[int, Any] = {}
        if self.workers <= 1:
            for i, item in enumerate(items):
                results[i] = self._call_serial(fn, item)
                self._count("tasks_ok")
            return [results[i] for i in range(len(items))]
        self._pooled_map(fn, items, results)
        return [results[i] for i in range(len(items))]

    def _pooled_map(
        self, fn: Callable, items: List[Any], results: Dict[int, Any]
    ) -> None:
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        pending: List[Tuple[int, Any]] = list(enumerate(items))
        attempts: Dict[int, int] = {i: 0 for i, _ in pending}
        pool = None
        pool_failures = 0
        round_index = 0
        try:
            while pending:
                if pool_failures > self.max_pool_failures:
                    # The pool machinery itself is unreliable here; the
                    # serial path finishes the remaining work correctly.
                    self._count("serial_fallbacks")
                    self._event("serial fallback", remaining=len(pending))
                    for i, item in pending:
                        results[i] = self._call_serial(fn, item)
                        self._count("tasks_ok")
                    return
                if pool is None:
                    pool = self._make_pool(len(pending))
                    if pool is None:
                        pool_failures += 1
                        self._count("pool_failures")
                        continue
                futures = [
                    (i, item, pool.submit(fn, item)) for i, item in pending
                ]
                requeue: List[Tuple[int, Any]] = []
                pool_broken = False
                pool_suspect = False
                for i, item, future in futures:
                    if pool_broken or (pool_suspect and not future.done()):
                        # Siblings of a crash/hang: not their fault, so
                        # no attempt is charged — just run them again.
                        future.cancel()
                        requeue.append((i, item))
                        continue
                    try:
                        results[i] = future.result(timeout=self.timeout)
                        self._count("tasks_ok")
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except FuturesTimeout:
                        self._count("timeouts")
                        self._event(
                            "task timeout", index=i, attempt=attempts[i]
                        )
                        attempts[i] += 1
                        # One wedged worker poisons pool throughput;
                        # retire them all rather than guess which.
                        pool_suspect = True
                        if attempts[i] > self.max_retries:
                            self._count("serial_fallbacks")
                            results[i] = self._call_serial(fn, item)
                            self._count("tasks_ok")
                        else:
                            requeue.append((i, item))
                    except BrokenProcessPool:
                        self._count("pool_failures")
                        pool_failures += 1
                        pool_broken = True
                        attempts[i] += 1
                        requeue.append((i, item))
                    except Exception:
                        self._count("retries")
                        attempts[i] += 1
                        if attempts[i] > self.max_retries:
                            self._count("serial_fallbacks")
                            results[i] = self._call_serial(fn, item)
                            self._count("tasks_ok")
                        else:
                            requeue.append((i, item))
                if pool_broken or pool_suspect:
                    self._retire_pool(
                        pool, "broken" if pool_broken else "task timeout"
                    )
                    pool = None
                pending = requeue
                if pending:
                    self._backoff(round_index)
                    round_index += 1
        finally:
            if pool is not None and not (
                self.persistent and pool is self._pool
            ):
                pool.shutdown(wait=True)
