"""Cluster mode: a coordinator sharding sweeps over a worker fleet.

The paper scales arithmetic by partitioning it across replicated
clusters behind an explicit interconnect; this package applies the
same shape to serving.  A **coordinator** daemon consistent-hashes
every sweep point's :func:`repro.api.dedup_key` onto a ring of
**worker** daemons (plain ``repro serve`` processes that registered
over HTTP), dispatches each shard over the existing JSON protocol,
and reassembles results in serial-identical order by seeding its local
:class:`~repro.analysis.sweep.SweepEngine` memo and re-running the
sweep — every row is then byte-identical to a single-node serial run.

Pieces:

* :mod:`repro.cluster.ring`        — the consistent-hash ring
  (shard affinity + minimal movement on death).
* :mod:`repro.cluster.membership`  — registration, heartbeats,
  heartbeat-timeout death detection, per-worker accounting.
* :mod:`repro.cluster.coordinator` — point expansion, shard dispatch,
  requeue-on-dead-worker, memo seeding, row reassembly.
* :mod:`repro.cluster.fleet`       — ``repro serve --fleet N`` local
  supervision plus the worker-side heartbeat agent.

Failure semantics: a dead or hung worker's in-flight points requeue on
the surviving ring (bounded rounds through the resilience backoff
ladder), and whatever still fails is computed locally — degraded means
slower, never different, the same invariant the daemon's resilient
batch pool holds.
"""

from .coordinator import ClusterCoordinator, expand_sweep_points
from .fleet import HeartbeatAgent, LocalFleet
from .membership import ClusterMembership, WorkerInfo
from .ring import HashRing

__all__ = [
    "ClusterCoordinator",
    "ClusterMembership",
    "HashRing",
    "HeartbeatAgent",
    "LocalFleet",
    "WorkerInfo",
    "expand_sweep_points",
]
