"""In-memory spans recorded around the benchmark's calls into each layer.

A span has a name, start and end (``perf_counter`` seconds), the index
of its parent span, and an operation id shared by every span of one
operation (a grid point, a config, a request, a job).  Spans stay in
memory while the workload runs and are written out once, when the run
ends.  A span's self time is its duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._local = threading.local()  # per-thread stack of open spans
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op: str, **attrs) -> Iterator[dict]:
        """Time the enclosed block as one span; yields its attribute
        dict so the caller can attach facts learned inside the block."""
        if not self.enabled:
            yield attrs
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "op": op,
            "parent": stack[-1] if stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        with self._lock:
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
        try:
            yield attrs
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def durations(self, name: str) -> List[float]:
        """Durations in seconds of every span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name."""
        children: Dict[int, List[dict]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = _union_length(
                (c["start"], c["end"]) for c in children.get(index, ())
            )
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path, meta: Optional[dict] = None) -> None:
        """Write every span, and the self-time totals, as one JSON file."""
        with open(path, "w") as handle:
            json.dump(
                {"meta": meta or {}, "self_seconds": self.self_times(),
                 "spans": self.spans},
                handle,
            )


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total
