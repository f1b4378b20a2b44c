"""The one cached entry to the timing engine (the paper's static
analysis).

The source paper derives kernel and application performance largely by
*static analysis* of compiled schedules: the steady-state initiation
interval and the schedule-length prologue/epilogue give kernel run
time, stream lengths over the machine's bandwidth ceilings give
transfer time, and the section-5.3 inventory of short-stream overheads
covers the rest.  :mod:`repro.sim.engine` is that analysis, as the one
in-order recurrence every result comes from.  :func:`evaluate` runs it
for one named application on one design point, from a per-application
summary, a per-(node, clock) memory service table and per-configuration
tables that it caches across a grid.  Sweeps, the pool workers, the API
and the CLI all reach the engine through it.

``mode`` (:data:`EXECUTION_MODES`) only decides whether that call gets
a :class:`~repro.sim.engine.Recorder`: ``"simulated"`` returns the
per-op records, ``"analytical"`` totals only.  The numbers are the
same; the sweep memo keys application points by mode so a
records-bearing result and a totals-only one never alias.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Dict, Optional, Tuple

from ..apps.streamc import StreamProgram
from ..apps.suite import get_application
from ..compiler.pipeline import KernelSchedule
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..obs.profile import PhaseProfiler
from ..resilience.faults import fault_point
from ..sim.engine import (
    DISPATCH_CYCLES,
    ConfigTables,
    ProgramSummary,
    Recorder,
    build_summary,
    config_tables,
    kernel_call_cycles,
    memory_words_per_cycle,
    run,
    service_table,
    ucode_load_cycles,
)
from ..sim.metrics import SimulationResult

__all__ = [
    "EXECUTION_MODES",
    "ProgramSummary",
    "build_summary",
    "check_mode",
    "clear_summary_cache",
    "evaluate",
    "predict_application",
    "predict_kernel_call_cycles",
    "predict_program",
    "program_summary",
]

#: The two ways a sweep can ask for an application point: ``simulated``
#: returns per-op records, ``analytical`` totals only.
#: (:data:`repro.api.SWEEP_MODES` mirrors this tuple so the light-weight
#: API module never has to import the engine.)
EXECUTION_MODES = ("simulated", "analytical")


def check_mode(mode: str, who: str = "mode") -> str:
    """Validate an execution-mode name; returns it unchanged."""
    if mode not in EXECUTION_MODES:
        raise ValueError(
            f"unknown {who} {mode!r}; "
            f"allowed modes: {', '.join(EXECUTION_MODES)}"
        )
    return mode


def predict_kernel_call_cycles(
    schedule: KernelSchedule,
    work_items: int,
    include_dispatch: bool = True,
    ucode_reload: bool = False,
) -> int:
    """Cycles for one kernel invocation (paper section 5.3).

    ``DISPATCH + reload + L + II x (bodies - 1)`` where ``bodies`` is
    the number of unrolled software-pipeline bodies each cluster runs:
    ``ceil(ceil(work_items / C) / unroll)``.
    """
    cycles = kernel_call_cycles(schedule, work_items)
    if not include_dispatch:
        cycles -= DISPATCH_CYCLES
    if ucode_reload:
        cycles += ucode_load_cycles(schedule.instruction_count)
    return cycles


_SUMMARIES: Dict[str, ProgramSummary] = {}
_SERVICE_TABLES: Dict[tuple, Tuple[int, ...]] = {}
_CONFIG_TABLES: Dict[tuple, ConfigTables] = {}
_SUMMARY_LOCK = threading.Lock()


def program_summary(application: str) -> ProgramSummary:
    """The cached static digest of one suite application."""
    summary = _SUMMARIES.get(application)
    if summary is None:
        with _SUMMARY_LOCK:
            summary = _SUMMARIES.get(application)
            if summary is None:
                summary = build_summary(get_application(application))
                _SUMMARIES[application] = summary
    return summary


def clear_summary_cache() -> None:
    """Drop every cached digest and derived table (tests that mutate
    the application registry, or count compiles, use this)."""
    with _SUMMARY_LOCK:
        _SUMMARIES.clear()
        _SERVICE_TABLES.clear()
        _CONFIG_TABLES.clear()


def evaluate(
    application: str,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
    recorder: Optional[Recorder] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> SimulationResult:
    """One application point: the engine's walk over cached tables.

    ``application`` is a suite name or a ``kernel:<hash>`` reference.
    With a ``recorder`` the result carries per-op records (and the
    recorder's trace spans and metrics); without one, totals only.
    ``profiler`` is charged ``sim.run`` for the call and, nested in
    it, ``sim.compile`` when this configuration's tables are derived.
    """
    fault_point("sim.run")
    with profiler.phase("sim.run") if profiler else nullcontext():
        summary = program_summary(application)
        key = (application, node, clock_ghz, config.params.b)
        service = _SERVICE_TABLES.get(key)
        if service is None:
            service = _SERVICE_TABLES[key] = service_table(
                summary, memory_words_per_cycle(config, node, clock_ghz)
            )
        tables = _CONFIG_TABLES.get((application, config))
        if tables is None:
            tables = _CONFIG_TABLES[application, config] = config_tables(
                summary, config, profiler
            )
        return run(summary, config, node, clock_ghz, tables, service,
                   recorder)


def predict_application(
    application: str,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
) -> SimulationResult:
    """Totals only: :func:`evaluate` without a recorder (empty
    ``records``, no metrics)."""
    return evaluate(application, config, node, clock_ghz)


def predict_program(
    program: StreamProgram,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
) -> SimulationResult:
    """Like :func:`predict_application`, for an ad-hoc program object
    (no caching — library embedders with custom programs)."""
    return run(build_summary(program), config, node, clock_ghz)
