"""The stream processor: executes ad-hoc StreamC programs end to end.

The stream controller issues a program's stream operations in order,
and loads and stores overlap kernel execution whenever dependences
allow — the application-level concurrency of paper section 2.2.  The
timing is :func:`repro.sim.engine.run`; this module wraps it with a
:class:`~repro.sim.engine.Recorder`, so every run returns its per-op
timeline and, when asked, trace spans and metrics.  Named suite
applications go through the cached
:func:`repro.analysis.model.evaluate` instead; this path digests and
compiles its program on every call.
"""

from __future__ import annotations

from typing import Optional

from ..apps.streamc import StreamProgram
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, Tracer
from ..resilience.faults import fault_point
from .engine import DEFAULT_MAX_EVENTS, Recorder, build_summary, run
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
    ):
        self.config = config
        self.node = node
        self.clock_ghz = clock_ghz
        self.tracer = tracer
        self.metrics = metrics
        self.max_events = max_events

    def run(self, program: StreamProgram) -> SimulationResult:
        """Execute ``program`` and return its timing and statistics."""
        fault_point("sim.run")
        return run(
            build_summary(program), self.config, self.node, self.clock_ghz,
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
) -> SimulationResult:
    """Convenience wrapper: run ``program`` on a fresh processor."""
    return StreamProcessor(
        config, node, clock_ghz, tracer=tracer, metrics=metrics,
        max_events=max_events,
    ).run(program)
