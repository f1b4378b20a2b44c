"""Shared helpers: percentiles, isolated directories, run bookkeeping."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; never the user's ~/.cache.
WORK = ROOT / ".perfbench"

#: Modules a batch workload imports before its first call.
BATCH_IMPORTS = "import repro.analysis.sweep, repro.analysis.model, repro.api"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def fresh_dir(label: str) -> Path:
    """A new empty directory under the checkout's scratch space."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def isolated_env(base: Path) -> Dict[str, str]:
    """Environment that points every on-disk store of the program at
    ``base``: schedule cache, sweep checkpoints, kernel registry, jobs."""
    env = {
        "XDG_CACHE_HOME": str(base / "xdg"),
        "REPRO_COMPILE_CACHE_DIR": str(base / "schedules"),
        "REPRO_SWEEP_CHECKPOINT_DIR": str(base / "checkpoints"),
        "REPRO_KERNEL_REGISTRY_DIR": str(base / "kernels"),
        "REPRO_JOB_DIR": str(base / "jobs"),
    }
    for path in env.values():
        Path(path).mkdir(parents=True, exist_ok=True)
    return env


def child_env(extra: Dict[str, str]) -> Dict[str, str]:
    """Environment for a child Python process of the program."""
    env = dict(os.environ)
    env.update(extra)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds(statement: str, env: Dict[str, str]) -> float:
    """Wall time of a fresh interpreter running ``statement``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", statement], env=child_env(env), check=True,
        stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - started


def settle() -> None:
    """Flush dirty file data to disk, so that writeback of files a
    set-up or an earlier run wrote does not land in a timed window."""
    os.sync()


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: Seconds one calibration sample takes on the reference host: the
#: median on the 2-core VM the benchmark was tuned on.  Host-scaled
#: times read as if the host always ran at that speed.
REFERENCE_CALIBRATION_S = 0.0025


class _Cell:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int):
        self.scale = scale
        self.offset = offset

    def step(self, value: int) -> int:
        return (self.scale * value + self.offset) & 0xFFFF


class _Task:
    __slots__ = ("name", "cost", "preds", "start")

    def __init__(self, name: str, cost: int):
        self.name = name
        self.cost = cost
        self.preds: List["_Task"] = []
        self.start = 0


def _toy_schedule(size: int = 90) -> str:
    """List-schedule a fixed random task graph onto four units, then
    sort, serialise and hash the result: the mix of object, dict, heap
    and library work the program's compiler does, on inputs of its own."""
    rng = random.Random(2003)
    tasks = [_Task(f"t{i}", rng.randint(1, 9)) for i in range(size)]
    for i, task in enumerate(tasks[1:], 1):
        task.preds.extend(tasks[j] for j in rng.sample(range(i), min(i, 3)))
    finish: Dict[str, int] = {}
    units = [0, 0, 0, 0]
    for task in tasks:
        ready = max((finish[p.name] for p in task.preds), default=0)
        unit = min(range(4), key=lambda u: max(units[u], ready))
        task.start = max(units[unit], ready)
        finish[task.name] = units[unit] = task.start + task.cost
    heap = [(task.start, task.name) for task in tasks]
    heapq.heapify(heap)
    order = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    text = json.dumps({"order": order, "finish": finish}, sort_keys=True)
    rows = sorted(((finish[name] % 7, name) for name in order), reverse=True)
    return hashlib.sha256(text.encode()).hexdigest() + "".join(
        f"{a}:{b};" for a, b in rows[:20]
    )


def _interpreter_loop(rounds: int = 8000) -> int:
    """Dict lookups, attribute reads, method calls and integer
    arithmetic in a tight loop."""
    table = {key: key * 7 for key in range(64)}
    cells = tuple(_Cell(key, key + 1) for key in range(16))
    total = 0
    for i in range(rounds):
        total = cells[i & 15].step(total + table[i & 63])
    return total


def _calibration_work() -> None:
    """Fixed pure-Python work, independent of the program.  It mixes
    two kinds of code so that no single one sets its speed (a tight
    loop alone changes speed with where a process happens to lay out
    its memory, by a few percent from one process to the next)."""
    _toy_schedule()
    _toy_schedule()
    _interpreter_loop()


class HostSpeed:
    """Tracks the speed of the host the benchmark runs on.

    On a shared VM the speed of the host moves by a quarter or more
    within minutes, which no run length averages away (a fixed Python
    loop timed over 30-second windows spread by 0.2-0.3 of its median).
    So the batch workloads time fixed calibration work before every
    operation, outside their timed windows, and scale each operation's
    time by ``REFERENCE_CALIBRATION_S`` over the median of the
    calibration samples around it: a change to the program moves the
    scaled times, a change in host speed mostly does not.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        gc.disable()
        try:
            for _ in range(count):
                started = time.perf_counter()
                _calibration_work()
                self.samples.append(time.perf_counter() - started)
        finally:
            gc.enable()

    def scale(self, since: int = 0) -> float:
        """Factor that turns times measured since sample ``since`` into
        reference-host times."""
        return REFERENCE_CALIBRATION_S / median(self.samples[since:])

    def scale_at(self, index: int, radius: int = 4) -> float:
        """Factor for an operation timed next to sample ``index``: the
        median of the samples around it, so that the scaling follows
        host speed changes of a few seconds."""
        window = self.samples[max(0, index - radius):index + radius + 1]
        return REFERENCE_CALIBRATION_S / median(window)

    def scaled(self, timed: List[Tuple[float, int]]) -> List[float]:
        """``(seconds, sample index)`` pairs as reference-host seconds."""
        return [seconds * self.scale_at(index) for seconds, index in timed]


def op_stats(latencies: List[float], throughput: float) -> Dict[str, float]:
    """Throughput and latency percentiles (seconds) of one pass."""
    return {
        "throughput": throughput,
        "operations": len(latencies),
        **{f"latency_p{q}": percentile(latencies, q) for q in (50, 75, 90, 99)},
    }


class Outcome:
    """What one workload pass or run produced.

    ``attempted``/``failed`` count operations; an operation fails when
    it raised, was refused, timed out, or returned a wrong output.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} failed: {why}")
