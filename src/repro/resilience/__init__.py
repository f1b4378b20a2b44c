"""Fault injection and resilient execution for the execution layer.

Four pieces, threaded through the compile pipeline, the timing engine,
the serving daemon and the cluster coordinator (see
``docs/robustness.md``):

* :mod:`repro.resilience.faults`     — deterministic, seed-driven
  :class:`FaultPlan`/:class:`FaultInjector` with named fault points
  (``REPRO_FAULT_PLAN`` env knob).
* :mod:`repro.resilience.executor`   — :class:`ResilientExecutor`, the
  serving daemon's batch pool with per-task timeouts, bounded retries,
  dead-worker quarantine, and serial fallback.
* :mod:`repro.resilience.checkpoint` — :class:`SweepCheckpoint`, the
  atomic/versioned/checksummed store that lets interrupted sweeps
  resume without recomputation.
* :mod:`repro.resilience.requeue`    — :class:`RequeueLadder`, the
  bounded-round/backoff policy the cluster coordinator reuses for
  requeue-on-dead-worker (same shape as the executor's pool retries).

The invariant every piece preserves: with any fault plan active, a run
that ultimately succeeds produces results bit-identical to the
fault-free serial path — degraded means slower, never different.
"""

from .checkpoint import SweepCheckpoint, default_checkpoint_root
from .executor import ResilientExecutor
from .faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_point,
    in_worker_process,
    install_plan,
    mark_worker_process,
)
from .requeue import RequeueLadder

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "RequeueLadder",
    "ResilientExecutor",
    "SweepCheckpoint",
    "active_plan",
    "clear_plan",
    "default_checkpoint_root",
    "fault_point",
    "in_worker_process",
    "install_plan",
    "mark_worker_process",
]
