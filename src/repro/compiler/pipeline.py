"""Kernel compilation driver: kernel graph + (C, N) -> schedule + rates.

Mirrors the paper's toolchain step "each kernel ... was then recompiled
for different architectures" (section 5): pick an unroll factor, software-
pipeline the body with the modulo scheduler, enforce LRF register
pressure, and report the initiation interval and schedule length that the
performance analysis and the application simulator consume.

Compilation results are cached at two levels:

* an **in-memory** cache (exact object reuse within one process), and
* the **persistent** content-addressed store of
  :mod:`repro.compiler.cache`, so fresh processes (CI, ``repro report``,
  notebook restarts) reuse schedules compiled by earlier ones.

:func:`compile_batch` compiles whole (kernel, config) grids at once:
duplicates are deduplicated before any work is done.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.config import ProcessorConfig
from ..isa.kernel import KernelGraph
from ..resilience.faults import fault_point
from .cache import ScheduleCache, default_cache, schedule_key
from .listsched import list_schedule
from .machine import MachineDescription, build_machine
from .modulo import (
    ModuloSchedule,
    recurrence_mii,
    resource_mii,
    try_modulo_schedule,
    verify_schedule,
)
from .pressure import max_live
from .unroll import SchedGraph, build_sched_graph, choose_unroll_factor

#: Upper bound on the II search: a kernel that cannot be pipelined below
#: this multiple of its MII (plus slack) indicates a modeling bug.
MAX_II_SLACK = 64

#: One compilation job: a kernel and the configuration to compile it for.
CompileJob = Tuple[KernelGraph, ProcessorConfig]


@dataclass(frozen=True)
class KernelSchedule:
    """The compiled form of one kernel for one processor configuration."""

    kernel_name: str
    config: ProcessorConfig
    unroll_factor: int
    #: Initiation interval of the *unrolled* body (cycles).
    ii: int
    #: Cycles from first issue to last writeback of one body (prologue
    #: depth of the software pipeline).
    length: int
    max_live: int
    register_capacity: int
    resource_mii: int
    recurrence_mii: int
    alu_ops_per_iteration: int

    @property
    def ii_per_iteration(self) -> float:
        """Steady-state cycles per original kernel-loop iteration."""
        return self.ii / self.unroll_factor

    @property
    def ops_per_cycle_per_cluster(self) -> float:
        """Sustained ALU operations per cycle in one cluster."""
        return self.alu_ops_per_iteration / self.ii_per_iteration

    def ops_per_cycle(self) -> float:
        """Sustained whole-chip ALU operations per cycle (C clusters)."""
        return self.ops_per_cycle_per_cluster * self.config.clusters

    def inner_loop_cycles(self, iterations: int) -> int:
        """Cycles to run ``iterations`` per-cluster loop iterations.

        One schedule-length pass covers the pipeline fill and drain
        (prologue, priming, epilogue); each further unrolled body costs
        one II.  Short streams pay the fixed ``length`` over few
        iterations — the paper's short-stream effect.
        """
        if iterations <= 0:
            return 0
        bodies = -(-iterations // self.unroll_factor)
        return self.length + self.ii * max(0, bodies - 1)

    @property
    def instruction_count(self) -> int:
        """VLIW words the kernel occupies in microcode storage."""
        return self.length

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the ALU-issue bound (1.0 = perfect)."""
        peak = self.alu_ops_per_iteration * self.unroll_factor / (
            self.config.alus_per_cluster
        )
        return peak / self.ii


class CompilationError(RuntimeError):
    """The scheduler could not produce a valid schedule."""


def compile_kernel(
    kernel: KernelGraph,
    config: ProcessorConfig,
    unroll_factor: Optional[int] = None,
    verify: bool = True,
    alu_mix: Optional[Dict[str, float]] = None,
    cache: Optional[ScheduleCache] = None,
) -> KernelSchedule:
    """Compile ``kernel`` for ``config`` (cached; see :func:`clear_cache`).

    Searches IIs upward from the MII until both the modulo scheduler
    succeeds and the schedule's MaxLive fits the cluster's LRF capacity —
    register pressure is what makes very small IIs unprofitable at large
    ``N``, the paper's intracluster roll-off.

    ``alu_mix`` compiles against a heterogeneous ALU pool (see
    :func:`repro.compiler.machine.build_machine`); the default is the
    paper's homogeneous-ALU abstraction.

    ``cache`` overrides the persistent schedule store (default: the
    process-wide :func:`repro.compiler.cache.default_cache`); a disk hit
    skips the II search entirely and reconstructs the exact schedule the
    cold compile produced.
    """
    machine = build_machine(config, alu_mix)
    if unroll_factor is None:
        unroll_factor = choose_unroll_factor(kernel, machine)
    key = _cache_key(kernel, machine, unroll_factor)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached

    disk = cache if cache is not None else default_cache()
    disk_key: Optional[str] = None
    if disk.enabled:
        disk_key = schedule_key(kernel, machine, unroll_factor)
        payload = disk.load(disk_key)
        if payload is not None:
            result = _schedule_from_payload(kernel, machine, config, payload)
            if result is not None:
                _CACHE[key] = result
                _CACHE_KERNELS[id(kernel)] = kernel  # pin to keep ids unique
                return result
            # Decodable but semantically stale (e.g. fails verification):
            # drop it and recompile from scratch.
            disk.evict(disk_key)

    fault_point("compile.kernel")
    # Register pressure may defeat an aggressive unroll at every II; the
    # compiler then backs off to smaller bodies (less ILP, same result).
    graph = None
    schedule = None
    pressure = 0
    while True:
        graph = build_sched_graph(kernel, machine, unroll_factor)
        try:
            schedule, pressure = _search_ii(graph, machine, verify=verify)
            break
        except CompilationError:
            if unroll_factor == 1:
                raise
            unroll_factor //= 2
    result = KernelSchedule(
        kernel_name=kernel.name,
        config=config,
        unroll_factor=unroll_factor,
        ii=schedule.ii,
        length=schedule.length,
        max_live=pressure,
        register_capacity=machine.register_capacity,
        resource_mii=schedule.resource_mii,
        recurrence_mii=schedule.recurrence_mii,
        alu_ops_per_iteration=graph.alu_ops_per_iteration,
    )
    _CACHE[key] = result
    _CACHE_KERNELS[id(kernel)] = kernel  # pin to keep ids unique
    if disk_key is not None:
        disk.store(disk_key, _schedule_to_payload(result, schedule))
    return result


def compile_batch(
    jobs: Sequence[CompileJob],
    verify: bool = True,
    alu_mix: Optional[Dict[str, float]] = None,
    cache: Optional[ScheduleCache] = None,
) -> List[KernelSchedule]:
    """Compile a grid of (kernel, config) jobs; results in input order.

    Identical jobs are deduplicated *before* any compilation happens, so
    a full Figure-13/14/15 + Table 5 regeneration compiles each unique
    schedule exactly once.  The returned schedules are the ones serial
    ``compile_kernel`` calls return, and every result lands in the
    in-memory cache.
    """
    results: Dict[Tuple[int, ProcessorConfig], KernelSchedule] = {}
    order: List[Tuple[int, ProcessorConfig]] = []
    for kernel, config in jobs:
        dedup = (id(kernel), config)
        if dedup not in results:
            results[dedup] = compile_kernel(
                kernel, config, verify=verify, alu_mix=alu_mix, cache=cache
            )
        order.append(dedup)
    return [results[dedup] for dedup in order]


def _search_ii(
    graph: SchedGraph, machine: MachineDescription, verify: bool
) -> Tuple[ModuloSchedule, int]:
    """Find the smallest feasible II; returns (schedule, MaxLive).

    Searches upward from the MII exactly as before, with two additions
    that never change the result for feasible kernels:

    * the MII bounds are computed once and shared across attempts;
    * once an attempt exhausts its backtracking budget, the search's
      upper bound drops to the list-schedule length (a list schedule is
      a valid modulo schedule at II = its length, so scanning past it
      is pointless), and if every II below that bound fails the list
      schedule itself is the deterministic fallback.
    """
    r_bound = resource_mii(graph, machine)
    c_bound = recurrence_mii(graph, machine)
    mii = max(r_bound, c_bound)
    hard_upper = mii * 4 + MAX_II_SLACK
    upper = hard_upper
    fallback = None
    last_failure = "no attempt"
    ii = mii
    while ii < upper:
        schedule = try_modulo_schedule(
            graph,
            machine,
            ii,
            resource_bound=r_bound,
            recurrence_bound=c_bound,
        )
        if schedule is None:
            last_failure = f"scheduler budget exhausted at II={ii}"
            if fallback is None:
                fallback = list_schedule(graph, machine)
                upper = min(upper, fallback.length)
            ii += 1
            continue
        pressure = max_live(graph, schedule.start, ii)
        if pressure > machine.register_capacity:
            last_failure = (
                f"MaxLive {pressure} exceeds {machine.register_capacity} "
                f"registers at II={ii}"
            )
            ii += 1
            continue
        if verify:
            verify_schedule(graph, machine, schedule)
        return schedule, pressure
    if fallback is not None and fallback.length <= hard_upper:
        schedule = fallback.as_modulo_schedule(r_bound, c_bound)
        pressure = max_live(graph, schedule.start, schedule.ii)
        if pressure <= machine.register_capacity:
            if verify:
                verify_schedule(graph, machine, schedule)
            return schedule, pressure
        last_failure = (
            f"MaxLive {pressure} exceeds {machine.register_capacity} "
            f"registers at fallback II={schedule.ii}"
        )
    raise CompilationError(
        f"cannot schedule kernel '{graph.name}' on {machine.describe()}: "
        f"{last_failure}"
    )


# --- persistent-cache payloads -----------------------------------------


def _schedule_to_payload(
    result: KernelSchedule, schedule: ModuloSchedule
) -> Dict[str, Any]:
    """Serialize one compile for :class:`~repro.compiler.cache.ScheduleCache`.

    The start map is kept so a loaded entry can be re-verified against a
    freshly built scheduling graph (see ``REPRO_COMPILE_CACHE_VERIFY``).
    """
    return {
        "kind": "modulo",
        "kernel": result.kernel_name,
        "unroll_factor": result.unroll_factor,
        "ii": result.ii,
        "length": result.length,
        "max_live": result.max_live,
        "resource_mii": result.resource_mii,
        "recurrence_mii": result.recurrence_mii,
        "start": sorted(schedule.start.items()),
    }


def _schedule_from_payload(
    kernel: KernelGraph,
    machine: MachineDescription,
    config: ProcessorConfig,
    payload: Dict[str, Any],
) -> Optional[KernelSchedule]:
    """Reconstruct a :class:`KernelSchedule` from a cache payload.

    Returns ``None`` when the payload is structurally or semantically
    unusable — the caller treats that exactly like a cache miss.  With
    ``REPRO_COMPILE_CACHE_VERIFY=1`` every load additionally rebuilds
    the scheduling graph and runs :func:`verify_schedule` on the stored
    start times (tests use this; the checksum already guards against
    plain corruption on the default path).
    """
    import os

    try:
        unroll_factor = int(payload["unroll_factor"])
        ii = int(payload["ii"])
        length = int(payload["length"])
        pressure = int(payload["max_live"])
        r_bound = int(payload["resource_mii"])
        c_bound = int(payload["recurrence_mii"])
        start_items = payload["start"]
        if payload["kind"] != "modulo":
            return None
        if unroll_factor < 1 or ii < 1 or length < ii:
            return None
        if pressure > machine.register_capacity:
            return None
        if os.environ.get("REPRO_COMPILE_CACHE_VERIFY"):
            graph = build_sched_graph(kernel, machine, unroll_factor)
            start = {int(v): int(t) for v, t in start_items}
            schedule = ModuloSchedule(
                ii=ii,
                start=start,
                length=length,
                resource_mii=r_bound,
                recurrence_mii=c_bound,
            )
            verify_schedule(graph, machine, schedule)
            if max_live(graph, start, ii) != pressure:
                return None
    except (KeyError, TypeError, ValueError, AssertionError):
        return None
    return KernelSchedule(
        kernel_name=kernel.name,
        config=config,
        unroll_factor=unroll_factor,
        ii=ii,
        length=length,
        max_live=pressure,
        register_capacity=machine.register_capacity,
        resource_mii=r_bound,
        recurrence_mii=c_bound,
        alu_ops_per_iteration=kernel.stats().alu_ops,
    )


# --- compilation cache -------------------------------------------------

_CACHE: Dict[Tuple, KernelSchedule] = {}
_CACHE_KERNELS: Dict[int, KernelGraph] = {}


def _cache_key(
    kernel: KernelGraph, machine: MachineDescription, unroll_factor: int
) -> Tuple:
    slots = tuple(sorted(machine.issue_slots.items()))
    return (
        id(kernel),
        kernel.name,
        machine.config.clusters,
        machine.config.alus_per_cluster,
        slots,
        machine.extra_pipeline_stages,
        machine.comm_latency,
        machine.register_capacity,
        unroll_factor,
    )


def clear_cache() -> None:
    """Drop all in-memory compilations (tests that mutate kernels use
    this); the persistent store is untouched — use
    ``default_cache().clear()`` for that."""
    _CACHE.clear()
    _CACHE_KERNELS.clear()


def memo_size() -> int:
    """Number of schedules in the in-memory cache (serving stats)."""
    return len(_CACHE)
