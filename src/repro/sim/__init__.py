"""Stream-processor application simulator (the C++ simulator substitute)."""

from .engine import DEFAULT_MAX_EVENTS, CapacityError
from .metrics import BandwidthReport, OpRecord, SimulationResult
from .partitioned import PartitionedRun, simulate_partitioned
from .processor import StreamProcessor, simulate

__all__ = [
    "BandwidthReport",
    "CapacityError",
    "DEFAULT_MAX_EVENTS",
    "OpRecord",
    "PartitionedRun",
    "SimulationResult",
    "StreamProcessor",
    "simulate",
    "simulate_partitioned",
]
