"""The stream processor: executes StreamC programs end to end.

The stream controller issues a program's stream operations in order,
and loads and stores overlap kernel execution whenever dependences
allow — the application-level concurrency of paper section 2.2.  The
timing is :func:`repro.sim.engine.run`; this module wraps it with a
:class:`~repro.sim.engine.Recorder`, so every run returns its per-op
timeline and, when asked, trace spans and metrics.
"""

from __future__ import annotations

from typing import Optional

from ..apps.streamc import StreamProgram
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..obs.tracer import NULL_TRACER, Tracer
from ..resilience.faults import fault_point
from .engine import (
    DEFAULT_MAX_EVENTS, Recorder, build_summary, config_tables, run,
)
from .metrics import SimulationResult


class StreamProcessor:
    """One simulated stream processor instance (single program runs).

    Pass a :class:`~repro.obs.tracer.Tracer` and/or a
    :class:`~repro.obs.metrics.MetricsRegistry` to instrument the run;
    both default to off and never change the simulated result.
    """

    def __init__(
        self,
        config: ProcessorConfig,
        node: TechnologyNode = TECH_45NM,
        clock_ghz: float = 1.0,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        profiler: Optional[PhaseProfiler] = None,
    ):
        self.config = config
        self.node = node
        self.clock_ghz = clock_ghz
        self.tracer = tracer
        self.metrics = metrics
        self.max_events = max_events
        #: Wall-clock profiler charged with ``sim.compile`` (the
        #: schedule lookups inside the run) when present; sweeps use it
        #: to tell compile time from simulation time.
        self.profiler = profiler

    def run(self, program: StreamProgram) -> SimulationResult:
        """Execute ``program`` and return its timing and statistics."""
        fault_point("sim.run")
        summary = build_summary(program)
        return run(
            summary,
            self.config,
            self.node,
            self.clock_ghz,
            tables=config_tables(summary, self.config, self.profiler),
            recorder=Recorder(self.tracer, self.metrics, self.max_events),
        )


def simulate(
    program: StreamProgram,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
    tracer: Tracer = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    profiler: Optional[PhaseProfiler] = None,
) -> SimulationResult:
    """Convenience wrapper: run ``program`` on a fresh processor."""
    processor = StreamProcessor(
        config,
        node,
        clock_ghz,
        tracer=tracer,
        metrics=metrics,
        max_events=max_events,
        profiler=profiler,
    )
    if profiler is not None:
        with profiler.phase("sim.run"):
            return processor.run(program)
    return processor.run(program)
