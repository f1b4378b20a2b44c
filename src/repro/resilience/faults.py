"""Deterministic, seed-driven fault injection for the execution layer.

The serving daemon runs batches on a process pool, the cluster fleet
sends points to worker daemons, and every sweep persists results in
on-disk caches — exactly the machinery that fails in production:
workers crash or hang, transient exceptions fire, cache entries rot on
disk, allocations fail.  This module makes every one of those failures
*injectable on demand* at named fault points, so the chaos suite can
prove the recovery paths keep results bit-identical to a fault-free
serial run.

Model
-----
A :class:`FaultPlan` is a seed plus an ordered list of
:class:`FaultRule`\\ s.  Each rule names a fault *site* (glob pattern
over the registry in :data:`FAULT_SITES`), a fault *kind*, and when to
fire: either an explicit list of invocation indices (``at``) or a
probability evaluated through a pure hash of ``(seed, rule, site,
index)`` — never :mod:`random` state — so the same plan injects the
same faults in every process that replays the same call sequence.

The process-wide :class:`FaultInjector` owns the active plan and the
per-site invocation counters.  Instrumented code calls
:func:`fault_point` at each site; with no plan installed that is a
single global load and compare, so production runs pay nothing.

Plans propagate to worker processes through the ``REPRO_FAULT_PLAN``
environment variable (JSON, see :meth:`FaultPlan.to_json`), which
:func:`install_plan` sets automatically.

Fault kinds
-----------
``transient``
    raises :class:`InjectedFault` (a retryable error).
``crash``
    hard-kills the process via ``os._exit`` when it is a resilience
    worker (see :func:`mark_worker_process`); in a non-worker process
    it degrades to raising :class:`InjectedCrash` so a stray plan can
    never kill a user's session.
``hang``
    sleeps ``hang_seconds`` and then continues normally — the executor
    side observes a task timeout; a serial run is merely slower.
``oom``
    raises :class:`MemoryError` (simulated allocation failure).
``corrupt``
    flips bytes of the file named by the fault point's ``path`` context
    (cache entries, checkpoint entries); the checksum-validating
    loaders must treat the damage as a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "active_plan",
    "clear_plan",
    "fault_point",
    "in_worker_process",
    "install_plan",
    "mark_worker_process",
]

#: Environment variable carrying the active plan (JSON) to subprocesses.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Environment flag marking a process as a resilience pool worker (set
#: by the executor's pool initializer; gates the ``crash`` kind).
WORKER_ENV = "REPRO_RESILIENCE_WORKER"

#: The supported fault kinds (see module docstring).
FAULT_KINDS = ("transient", "crash", "hang", "oom", "corrupt")

#: Registry of the named fault points instrumented across the codebase.
#: Purely descriptive — :func:`fault_point` accepts any site name — but
#: rules are validated against it unless they use a glob, and
#: ``docs/robustness.md`` renders this table.
FAULT_SITES: Dict[str, str] = {
    "compile.kernel": "compile_kernel, before the II search",
    "cache.load": "ScheduleCache.load, before reading an entry (path)",
    "cache.store": "ScheduleCache.store, after writing an entry (path)",
    "checkpoint.load": "SweepCheckpoint load, before reading (path)",
    "checkpoint.store": "SweepCheckpoint store, after writing (path)",
    "sim.run": "evaluate / StreamProcessor.run, before the engine's walk",
    "cluster.dispatch": "coordinator, before sending one point to a "
                        "worker daemon",
}


class InjectedFault(RuntimeError):
    """A transient failure injected by the active :class:`FaultPlan`."""


class InjectedCrash(InjectedFault):
    """A worker-crash fault fired outside a worker process (downgraded
    from ``os._exit`` so it can never kill the user's session)."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, and when to fire.

    ``at`` (explicit invocation indices) and ``probability`` compose:
    an index listed in ``at`` always fires, otherwise the hash draw
    against ``probability`` decides.  ``max_fires`` is a per-process
    safety valve so recovery paths can eventually make progress; the
    pure decision function itself (:meth:`FaultPlan.decide`) ignores
    it.
    """

    site: str
    kind: str
    at: Tuple[int, ...] = ()
    probability: float = 0.0
    max_fires: Optional[int] = None
    hang_seconds: float = 0.05
    #: Restrict the rule to resilience pool workers; the serial
    #: recovery path then runs fault-free by construction.
    workers_only: bool = False

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be within [0, 1]")
        if ("*" not in self.site and "?" not in self.site
                and self.site not in FAULT_SITES):
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"one of {sorted(FAULT_SITES)} (or a glob)"
            )

    def matches(self, site: str) -> bool:
        from fnmatch import fnmatchcase

        return fnmatchcase(site, self.site)

    def as_dict(self) -> Dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "at": list(self.at),
            "probability": self.probability,
            "max_fires": self.max_fires,
            "hang_seconds": self.hang_seconds,
            "workers_only": self.workers_only,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultRule":
        return cls(
            site=data["site"],
            kind=data["kind"],
            at=tuple(int(i) for i in data.get("at", ())),
            probability=float(data.get("probability", 0.0)),
            max_fires=data.get("max_fires"),
            hang_seconds=float(data.get("hang_seconds", 0.05)),
            workers_only=bool(data.get("workers_only", False)),
        )


def _hash_draw(seed: int, rule_index: int, site: str, index: int) -> float:
    """A pure uniform draw in [0, 1) — identical in every process."""
    digest = hashlib.sha256(
        f"{seed}|{rule_index}|{site}|{index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus ordered rules; the unit of chaos-test configuration."""

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    def decide(self, site: str, index: int) -> Optional[FaultRule]:
        """The rule firing at invocation ``index`` of ``site``, if any.

        A pure function of ``(plan, site, index)`` — no process state —
        which is what makes injected fault sequences reproducible
        across processes (the chaos suite's determinism property).
        """
        for rule_index, rule in enumerate(self.rules):
            if not rule.matches(site):
                continue
            if index in rule.at:
                return rule
            if rule.probability > 0.0 and (
                _hash_draw(self.seed, rule_index, site, index)
                < rule.probability
            ):
                return rule
        return None

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "rules": [r.as_dict() for r in self.rules]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(
                FaultRule.from_dict(rule) for rule in data.get("rules", ())
            ),
        )


class FaultInjector:
    """Process-wide owner of the active plan and per-site counters."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._indices: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}
        self.fired: List[Tuple[str, int, str]] = []  # (site, index, kind)

    def fire(self, site: str, path: Optional[os.PathLike] = None) -> None:
        """Evaluate the plan at ``site``; inject the matched fault."""
        index = self._indices.get(site, 0)
        self._indices[site] = index + 1
        rule = self.plan.decide(site, index)
        if rule is None:
            return
        rule_id = id(rule)
        if rule.max_fires is not None:
            if self._fires.get(rule_id, 0) >= rule.max_fires:
                return
        if rule.workers_only and not in_worker_process():
            return
        self._fires[rule_id] = self._fires.get(rule_id, 0) + 1
        self.fired.append((site, index, rule.kind))
        self._execute(rule, site, index, path)

    def _execute(
        self,
        rule: FaultRule,
        site: str,
        index: int,
        path: Optional[os.PathLike],
    ) -> None:
        label = f"injected {rule.kind} at {site}[{index}]"
        if rule.kind == "transient":
            raise InjectedFault(label)
        if rule.kind == "oom":
            raise MemoryError(label)
        if rule.kind == "hang":
            time.sleep(rule.hang_seconds)
            return
        if rule.kind == "crash":
            if in_worker_process():
                os._exit(73)
            raise InjectedCrash(label)
        # corrupt: damage the file behind the fault point, if any; the
        # checksum-validating loader must shrug it off as a miss.
        if path is not None:
            _corrupt_file(path)


def _corrupt_file(path: os.PathLike) -> None:
    """Deterministically flip bytes in ``path`` (best effort)."""
    try:
        with open(path, "r+b") as handle:
            data = handle.read()
            if not data:
                return
            middle = len(data) // 2
            damaged = (
                data[:middle]
                + bytes([data[middle] ^ 0xFF])
                + data[middle + 1:]
            )
            handle.seek(0)
            handle.write(damaged)
            handle.truncate()
    except OSError:
        pass


# --- process-wide state -------------------------------------------------

_INJECTOR: Optional[FaultInjector] = None
_ENV_CHECKED = False
_IN_WORKER = False


def install_plan(plan: FaultPlan) -> FaultInjector:
    """Activate ``plan`` process-wide; returns the live injector.

    The plan is also exported as ``REPRO_FAULT_PLAN`` so pool workers
    and worker daemons (fork *or* spawn) inherit it.
    """
    global _INJECTOR, _ENV_CHECKED
    _INJECTOR = FaultInjector(plan)
    _ENV_CHECKED = True
    os.environ[PLAN_ENV] = plan.to_json()
    return _INJECTOR


def clear_plan() -> None:
    """Deactivate fault injection and drop the env propagation."""
    global _INJECTOR, _ENV_CHECKED
    _INJECTOR = None
    _ENV_CHECKED = True
    os.environ.pop(PLAN_ENV, None)


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, if any (checks the env lazily)."""
    _check_env()
    return _INJECTOR.plan if _INJECTOR is not None else None


def active_injector() -> Optional[FaultInjector]:
    """The live injector, if a plan is active."""
    _check_env()
    return _INJECTOR


def _check_env() -> None:
    """Adopt a plan from ``REPRO_FAULT_PLAN`` once per process."""
    global _ENV_CHECKED, _INJECTOR
    if _ENV_CHECKED:
        return
    _ENV_CHECKED = True
    text = os.environ.get(PLAN_ENV)
    if text:
        try:
            _INJECTOR = FaultInjector(FaultPlan.from_json(text))
        except (ValueError, KeyError, TypeError):
            _INJECTOR = None


def fault_point(site: str, path: Optional[os.PathLike] = None) -> None:
    """Declare one named fault point; fires the active plan, if any.

    The no-plan fast path is a module-global load and an ``if`` — cheap
    enough for once-per-task and once-per-compile sites.
    """
    if not _ENV_CHECKED:
        _check_env()
    if _INJECTOR is not None:
        _INJECTOR.fire(site, path=path)


def mark_worker_process() -> None:
    """Mark this process as a resilience pool worker (enables the real
    ``crash`` kind and ``workers_only`` rules).  Called by the
    executor's pool initializer."""
    global _IN_WORKER
    _IN_WORKER = True
    os.environ[WORKER_ENV] = "1"


def in_worker_process() -> bool:
    """True inside a resilience pool worker."""
    return _IN_WORKER or bool(os.environ.get(WORKER_ENV))
