"""The timing engine: one in-order recurrence over a program summary.

The paper gets application performance by applying per-(kernel, config)
constants from the compiled schedules to an in-order stream timeline
(sections 1 and 5).  This module is that timeline, written once.  A
:class:`ProgramSummary` digests a stream program into flat integer
tables; :func:`config_tables` derives the per-configuration constants
(schedules, kernel-call durations, microcode reloads); :func:`run`
walks the operations once and returns a
:class:`~repro.sim.metrics.SimulationResult`.

Per stream operation the walk applies every effect the paper's section
5.3 analysis names:

* **host channel** — each stream instruction takes
  ``64 B / host bandwidth`` cycles to deliver, and the stream-controller
  scoreboard keeps the host at most :data:`SCOREBOARD_DEPTH` operations
  ahead of completion;
* **memory pipe** — ``words / (BW x pattern efficiency)`` cycles of
  shared bandwidth (memory-access scheduling sustains peak only for
  unit-stride streams) plus the fixed ``T_mem`` access latency;
* **cluster array** — ``DISPATCH + ucode reload + L + II x (bodies-1)``
  cycles per kernel call, where ``bodies = ceil(ceil(work/C)/unroll)``
  is the per-cluster strip length of the software pipeline;
* **microcode store** — an LRU over the ``r_uc`` instruction words;
  evicted kernels pay a reload before running again;
* **SRF capacity** — an LRU over the ``r_m x T x N x C`` stream words
  with pinning and writeback: when an application's working set
  overflows the SRF (FFT4K and QRD on small machines), idle streams
  spill to memory and are reloaded before the kernels that read them.

A configuration whose SRF covers the program's peak no-eviction
residency provably never evicts, so the walk skips SRF bookkeeping
there; that choice is made from the two numbers, not by the caller.

With a :class:`Recorder` the same walk also produces the per-operation
:class:`~repro.sim.metrics.OpRecord` timeline, tracer spans and
metrics; without one it produces totals only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..apps.streamc import KernelCall, LoadOp, StoreOp, StreamProgram
from ..compiler.pipeline import KernelSchedule, compile_batch
from ..core.config import ProcessorConfig
from ..core.params import TECH_45NM, TechnologyNode
from ..isa.values import AccessPattern
from ..obs.metrics import MetricsRegistry
from ..obs.profile import PhaseProfiler
from ..obs.tracer import NULL_TRACER, Tracer
from .metrics import BandwidthReport, OpRecord, SimulationResult

#: Bytes of one stream instruction (descriptor: opcode, stream base /
#: length / stride registers, kernel microcode handle...).
STREAM_INSTRUCTION_BYTES = 64

#: Outstanding stream instructions the stream controller scoreboard holds.
SCOREBOARD_DEPTH = 16

#: Fixed dispatch cost per kernel invocation: the stream controller hands
#: the call to the microcontroller and the cluster pipeline fills.
DISPATCH_CYCLES = 16

#: Microcode store reload rate: VLIW words written per cycle from the SRF.
UCODE_WORDS_PER_CYCLE = 1

#: Default completion budget before a recorded run declares livelock.
DEFAULT_MAX_EVENTS = 10_000_000

#: Op kinds in the encoded tables, and the op class each one names.
_LOAD, _STORE, _KERNEL = 0, 1, 2
_KIND_NAMES = ("LoadOp", "StoreOp", "KernelCall")

#: Trace lane and metric suffix per op kind.
_OP_LANES = ("stream.load", "stream.store", "stream.kernel")


class CapacityError(ValueError):
    """A single working set larger than the entire SRF."""


# --- closed forms -----------------------------------------------------------


def host_cycles_per_instruction(
    node: TechnologyNode, clock_ghz: float
) -> int:
    """Channel cycles to deliver one stream instruction (at least 1)."""
    bytes_per_cycle = node.host_bw_gbps / clock_ghz
    return max(1, int(round(STREAM_INSTRUCTION_BYTES / bytes_per_cycle)))


def memory_words_per_cycle(
    config: ProcessorConfig, node: TechnologyNode, clock_ghz: float
) -> float:
    """Peak memory bandwidth in words per processor cycle."""
    if clock_ghz <= 0:
        raise ValueError("clock must be positive")
    word_bytes = config.params.b / 8.0
    words_per_cycle = (node.memory_bw_gbps / clock_ghz) / word_bytes
    if words_per_cycle <= 0:
        raise ValueError("memory bandwidth must be positive")
    return words_per_cycle


def memory_service_cycles(
    words: int, words_per_cycle: float, efficiency: float = 1.0
) -> int:
    """Pipe cycles one transfer occupies: ``words / (BW x efficiency)``."""
    if words < 0:
        raise ValueError("transfer size cannot be negative")
    return int(round(words / (words_per_cycle * efficiency)))


def kernel_call_cycles(schedule: KernelSchedule, work_items: int) -> int:
    """Cycles of one kernel call with its microcode resident.

    ``work_items`` inner-loop iterations spread SIMD-fashion over the
    ``C`` clusters: each runs ``ceil(work_items / C)`` of them (idle
    lanes on the ragged last batch are the short-stream waste).
    """
    if work_items < 1:
        raise ValueError("kernel call needs at least one work item")
    iterations = -(-work_items // schedule.config.clusters)
    return DISPATCH_CYCLES + schedule.inner_loop_cycles(iterations)


def ucode_load_cycles(words: int) -> int:
    """Cycles to write ``words`` VLIW words into the microcode store."""
    return -(-words // UCODE_WORDS_PER_CYCLE)


# --- the two LRU stores -----------------------------------------------------


class MicrocodeStore:
    """LRU residency of kernel microcode in the ``r_uc``-word store."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._resident: "OrderedDict[str, int]" = OrderedDict()
        self._used = 0

    def load(self, kernel: str, words: int) -> int:
        """Make ``kernel`` resident; returns the reload cycles it cost
        (0 when it already was)."""
        if kernel in self._resident:
            self._resident.move_to_end(kernel)
            return 0
        while self._resident and self._used + words > self.capacity:
            self._used -= self._resident.popitem(last=False)[1]
        self._resident[kernel] = words
        self._used += words
        return ucode_load_cycles(words)


class SRFState:
    """LRU allocation of stream storage in the SRF, with pinning.

    Streams are hashable handles (the engine uses summary stream ids).
    :meth:`allocate` returns the evictions that made room, each as
    ``(stream, words, writeback)``; ``writeback`` marks data produced on
    chip, which the caller writes back if it is still needed.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.used = 0
        self.peak = 0
        self.evictions = 0
        self.spill_words = 0
        self.pinned: set = set()
        self._resident: Dict[Hashable, int] = {}
        self._dirty: set = set()
        self._last_touch: Dict[Hashable, int] = {}

    def is_resident(self, stream: Hashable) -> bool:
        return stream in self._resident

    def allocate(
        self, stream: Hashable, words: int, now: int, dirty: bool,
        name: str = "",
    ) -> List[Tuple[Hashable, int, bool]]:
        """Make ``stream`` resident at op ``now``; returns the evictions."""
        self._last_touch[stream] = now
        if stream in self._resident:
            if dirty:
                self._dirty.add(stream)
            return []
        if words > self.capacity:
            raise CapacityError(
                f"stream {name or stream!r} ({words} words) exceeds the "
                f"whole SRF ({self.capacity} words); the application "
                "must strip-mine"
            )
        evictions = []
        while self.capacity - self.used < words:
            evictions.append(self._evict(self._victim()))
        self._resident[stream] = words
        self.used += words
        if dirty:
            self._dirty.add(stream)
        if self.used > self.peak:
            self.peak = self.used
        return evictions

    def _victim(self) -> Hashable:
        """The least recently touched unpinned stream."""
        victim = None
        oldest = None
        for stream in self._resident:
            if stream in self.pinned:
                continue
            touch = self._last_touch[stream]
            if oldest is None or touch < oldest:
                victim, oldest = stream, touch
        if victim is None:
            raise CapacityError(
                "SRF working set of one operation exceeds capacity; "
                "the application must strip-mine"
            )
        return victim

    def _evict(self, stream: Hashable) -> Tuple[Hashable, int, bool]:
        words = self._resident.pop(stream)
        self.used -= words
        writeback = stream in self._dirty
        self._dirty.discard(stream)
        self.evictions += 1
        if writeback:
            self.spill_words += words
        return stream, words, writeback

    def release(self, stream: Hashable) -> None:
        """Drop a stream that will never be used again (no writeback)."""
        words = self._resident.pop(stream, None)
        if words is not None:
            self.used -= words
        self._dirty.discard(stream)
        self.pinned.discard(stream)


# --- the program summary ----------------------------------------------------


@dataclass(frozen=True)
class ProgramSummary:
    """Config-independent static digest of one stream program.

    Everything :func:`run` needs per design point is derived from these
    flat tables plus the compiled schedules, so program construction and
    graph walks happen once per program, not once per grid point.
    """

    name: str
    #: Per op: :data:`_LOAD`/:data:`_STORE`/:data:`_KERNEL`.
    kinds: Tuple[int, ...]
    #: Per op: stream id for loads/stores, kernel id for kernel calls.
    subject: Tuple[int, ...]
    #: Per op: ``work_items`` for kernel calls, 0 otherwise.
    work: Tuple[int, ...]
    #: Per op: the record label (``load x``, ``kernel fft``...).
    labels: Tuple[str, ...]
    #: Per op: producer-op indices this op waits on.
    deps: Tuple[Tuple[int, ...], ...]
    #: Per op: input / output stream ids (kernel calls only).
    inputs: Tuple[Tuple[int, ...], ...]
    outputs: Tuple[Tuple[int, ...], ...]
    #: Per op: stream ids whose last use is this op (released after it).
    releases: Tuple[Tuple[int, ...], ...]
    #: Per stream: name, SRF footprint in words, memory access pattern.
    stream_names: Tuple[str, ...]
    stream_words: Tuple[int, ...]
    stream_patterns: Tuple[AccessPattern, ...]
    #: Per stream: index of the last op touching it (-1 = never).
    stream_last_use: Tuple[int, ...]
    #: Streams resident in the SRF before cycle 0.
    preloaded: Tuple[int, ...]
    #: Unique kernels, in first-call order (graphs are what compile).
    kernels: Tuple[object, ...]
    #: Totals that do not depend on the configuration.
    total_alu_ops: int
    lrf_words: int
    srf_access_words: int
    #: Peak simultaneous SRF residency assuming no evictions; a config
    #: whose capacity covers this provably never spills.
    peak_resident_words: int

    @property
    def op_count(self) -> int:
        return len(self.kinds)


def build_summary(program: StreamProgram) -> ProgramSummary:
    """Digest ``program`` into the engine's flat tables (one pass)."""
    program.validate()
    stream_ids: Dict[object, int] = {}
    streams: List[object] = []

    def sid(stream) -> int:
        known = stream_ids.get(stream)
        if known is None:
            known = stream_ids[stream] = len(streams)
            streams.append(stream)
        return known

    kernel_ids: Dict[int, int] = {}
    kernels: List[object] = []
    kernel_stats: List[object] = []
    kinds: List[int] = []
    subject: List[int] = []
    work: List[int] = []
    inputs: List[Tuple[int, ...]] = []
    outputs: List[Tuple[int, ...]] = []
    total_alu_ops = lrf_words = srf_access_words = 0

    for op in program.ops:
        if isinstance(op, (LoadOp, StoreOp)):
            kinds.append(_LOAD if isinstance(op, LoadOp) else _STORE)
            subject.append(sid(op.stream))
            work.append(0)
            inputs.append(())
            outputs.append(())
            continue
        call: KernelCall = op
        kid = kernel_ids.get(id(call.kernel))
        if kid is None:
            kid = kernel_ids[id(call.kernel)] = len(kernels)
            kernels.append(call.kernel)
            kernel_stats.append(call.kernel.stats())
        kinds.append(_KERNEL)
        subject.append(kid)
        work.append(call.work_items)
        inputs.append(tuple(sid(s) for s in call.inputs))
        outputs.append(tuple(sid(s) for s in call.outputs))
        # Register-hierarchy traffic (paper section 2.2): every executed
        # operation reads two LRFs and writes one; every SRF access moves
        # one word through a streambuffer.
        stats = kernel_stats[kid]
        per_item = (
            stats.alu_ops + stats.srf_accesses + stats.comms
            + stats.sp_accesses
        )
        total_alu_ops += call.work_items * stats.alu_ops
        lrf_words += 3 * per_item * call.work_items
        srf_access_words += stats.srf_accesses * call.work_items

    preloaded = tuple(sid(s) for s in program.preloaded)
    releases: List[List[int]] = [[] for _ in kinds]
    last_use = [-1] * len(streams)
    for stream, op_index in program.last_use().items():
        s = sid(stream)
        last_use[s] = op_index
        releases[op_index].append(s)
    stream_words = tuple(int(s.words) for s in streams)

    # Peak no-eviction residency: replay allocations and releases with
    # unlimited capacity.  If a configuration's SRF covers this peak,
    # the LRU allocator can never need room.
    resident = set(preloaded)
    used = peak = sum(stream_words[s] for s in resident)
    for i, kind in enumerate(kinds):
        if kind == _LOAD:
            touched: Sequence[int] = (subject[i],)
        else:
            touched = inputs[i] + outputs[i]
        for s in touched:
            if s not in resident:
                resident.add(s)
                used += stream_words[s]
        peak = max(peak, used)
        for s in releases[i]:
            if s in resident:
                resident.discard(s)
                used -= stream_words[s]

    return ProgramSummary(
        name=program.name,
        kinds=tuple(kinds),
        subject=tuple(subject),
        work=tuple(work),
        labels=tuple(op.describe for op in program.ops),
        deps=tuple(
            tuple(program.dependencies(i)) for i in range(len(kinds))
        ),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        releases=tuple(tuple(r) for r in releases),
        stream_names=tuple(s.name for s in streams),
        stream_words=stream_words,
        stream_patterns=tuple(s.pattern for s in streams),
        stream_last_use=tuple(last_use),
        preloaded=preloaded,
        kernels=tuple(kernels),
        total_alu_ops=total_alu_ops,
        lrf_words=lrf_words,
        srf_access_words=srf_access_words,
        peak_resident_words=peak,
    )


# --- per-configuration tables -----------------------------------------------


@dataclass(frozen=True)
class ConfigTables:
    """Per-(program, config) constants the walk consumes.

    The microcode store's state depends only on the order of kernel
    calls, never on their timing, so its LRU runs here once and each
    call's reload folds into its duration.
    """

    schedules: Tuple[KernelSchedule, ...]
    #: Per op: cluster cycles of a kernel call (reload included), else 0.
    durations: Tuple[int, ...]
    #: Per op: microcode reload cycles of a kernel call, else 0.
    reload_cycles: Tuple[int, ...]
    ucode_reloads: int


def config_tables(
    summary: ProgramSummary,
    config: ProcessorConfig,
    profiler: Optional[PhaseProfiler] = None,
) -> ConfigTables:
    """Compile the program's kernels for ``config`` and tabulate every
    kernel call's duration.  ``profiler`` is charged ``sim.compile``
    for the schedule lookups."""
    jobs = [(kernel, config) for kernel in summary.kernels]
    if profiler is not None:
        with profiler.phase("sim.compile"):
            schedules = tuple(compile_batch(jobs))
    else:
        schedules = tuple(compile_batch(jobs))
    store = MicrocodeStore(int(config.params.r_uc))
    durations = [0] * len(summary.kinds)
    reload_cycles = [0] * len(summary.kinds)
    call_cycles: Dict[Tuple[int, int], int] = {}
    ucode_reloads = 0
    for i, kind in enumerate(summary.kinds):
        if kind != _KERNEL:
            continue
        kid = summary.subject[i]
        schedule = schedules[kid]
        key = (kid, summary.work[i])
        cycles = call_cycles.get(key)
        if cycles is None:
            cycles = call_cycles[key] = kernel_call_cycles(
                schedule, summary.work[i]
            )
        reload = store.load(schedule.kernel_name, schedule.instruction_count)
        if reload:
            ucode_reloads += 1
            reload_cycles[i] = reload
        durations[i] = cycles + reload
    return ConfigTables(
        schedules=schedules,
        durations=tuple(durations),
        reload_cycles=tuple(reload_cycles),
        ucode_reloads=ucode_reloads,
    )


def service_table(
    summary: ProgramSummary, words_per_cycle: float
) -> Tuple[int, ...]:
    """Memory service cycles per stream (independent of ``C`` and
    ``N``: one table covers a whole grid for a node and clock)."""
    return tuple(
        memory_service_cycles(words, words_per_cycle, pattern.efficiency)
        for words, pattern in zip(
            summary.stream_words, summary.stream_patterns
        )
    )


# --- the walk ---------------------------------------------------------------


def run(
    summary: ProgramSummary,
    config: ProcessorConfig,
    node: TechnologyNode = TECH_45NM,
    clock_ghz: float = 1.0,
    tables: Optional[ConfigTables] = None,
    service: Optional[Sequence[int]] = None,
    recorder: Optional["Recorder"] = None,
) -> SimulationResult:
    """Time ``summary`` on ``config``: the one in-order recurrence.

    ``tables`` and ``service`` are computed when not supplied (callers
    that sweep grids cache them).  Without a ``recorder`` the result
    carries totals only (empty ``records``, no metrics).
    """
    words_per_cycle = memory_words_per_cycle(config, node, clock_ghz)
    cpi = host_cycles_per_instruction(node, clock_ghz)
    latency = int(config.params.t_mem)
    if service is None:
        service = service_table(summary, words_per_cycle)
    if tables is None:
        tables = config_tables(summary, config)
    if recorder is not None:
        recorder.begin(summary, tables, config, latency)

    kinds = summary.kinds
    subject = summary.subject
    deps = summary.deps
    stream_words = summary.stream_words
    patterns = summary.stream_patterns
    durations = tables.durations
    n_ops = len(kinds)
    completion = [0] * n_ops
    channel_free = cluster_free = cluster_busy = 0
    memory_free = memory_busy = memory_words = transfers = 0

    def transfer(words: int, cost: int, earliest: int,
                 pattern: AccessPattern = AccessPattern.SEQUENTIAL) -> int:
        """Queue one transfer on the memory pipe; returns the cycle its
        last word has moved (data is usable ``latency`` later)."""
        nonlocal memory_free, memory_busy, memory_words, transfers
        start = earliest if earliest > memory_free else memory_free
        done = memory_free = start + cost
        memory_busy += cost
        memory_words += words
        transfers += 1
        if recorder is not None:
            recorder.transfer(words, pattern, earliest, start, done)
        return done

    srf = None
    capacity = int(config.srf_capacity_words)
    if capacity < summary.peak_resident_words:
        srf = SRFState(capacity)
        last_use = summary.stream_last_use
        names = summary.stream_names

        def make_room(s: int, i: int, dirty: bool, earliest: int) -> int:
            """Make stream ``s`` resident for op ``i``; returns the cycle
            by which its space is free (evicted streams that are still
            needed are written back first)."""
            t = earliest
            for victim, words, writeback in srf.allocate(
                s, stream_words[s], i, dirty, names[s]
            ):
                if writeback and last_use[victim] > i:
                    t = transfer(
                        words, memory_service_cycles(words, words_per_cycle), t
                    )
            return t

        for s in summary.preloaded:
            srf.allocate(s, stream_words[s], -1, True, names[s])

    reload_words = 0
    depth = SCOREBOARD_DEPTH
    for i in range(n_ops):
        # Stream-instruction delivery, gated by the scoreboard.
        gate = completion[i - depth] if i >= depth else 0
        if channel_free > gate:
            gate = channel_free
        channel_free = gate + cpi
        if recorder is not None:
            recorder.host(gate, channel_free)
        ready = channel_free
        for d in deps[i]:
            if completion[d] > ready:
                ready = completion[d]
        kind = kinds[i]
        start = ready
        if kind == _KERNEL:
            if srf is not None:
                ins, outs = summary.inputs[i], summary.outputs[i]
                srf.pinned.update(ins)
                srf.pinned.update(outs)
                for s in ins:  # bring spilled inputs back from memory
                    if not srf.is_resident(s):
                        start = make_room(s, i, False, start)
                        start = transfer(
                            stream_words[s], service[s], start, patterns[s]
                        ) + latency
                        reload_words += stream_words[s]
                for s in outs:
                    start = make_room(s, i, True, start)
                srf.pinned.difference_update(ins)
                srf.pinned.difference_update(outs)
            if cluster_free > start:
                start = cluster_free
            duration = durations[i]
            finish = cluster_free = start + duration
            cluster_busy += duration
            if recorder is not None:
                recorder.kernel(i, start, finish)
        else:
            s = subject[i]
            if kind == _LOAD and srf is not None:
                start = make_room(s, i, False, start)
            finish = transfer(
                stream_words[s], service[s], start, patterns[s]
            ) + latency
        completion[i] = finish
        if recorder is not None:
            recorder.op(i, ready, finish)
        if srf is not None:
            for s in summary.releases[i]:
                srf.release(s)

    result = SimulationResult(
        program=summary.name,
        config=config,
        clock_ghz=clock_ghz,
        cycles=max(completion, default=0),
        useful_alu_ops=summary.total_alu_ops,
        records=(),
        spill_words=srf.spill_words if srf is not None else 0,
        reload_words=reload_words,
        memory_busy_cycles=memory_busy,
        cluster_busy_cycles=cluster_busy,
        ucode_reloads=tables.ucode_reloads,
        bandwidth=BandwidthReport(
            lrf_words=summary.lrf_words,
            # Memory transfers transit the SRF on their way in/out.
            srf_words=summary.srf_access_words + memory_words,
            memory_words=memory_words,
        ),
    )
    if recorder is None:
        return result
    if srf is None:
        return recorder.finish(result, transfers, 0,
                               summary.peak_resident_words)
    return recorder.finish(result, transfers, srf.evictions, srf.peak)


# --- the recorder -----------------------------------------------------------


def completion_order(records: Sequence[OpRecord]) -> List[OpRecord]:
    """Records in completion order: by finish cycle, ties in op order."""
    return sorted(records, key=lambda r: (r.finish, r.index))


class Recorder:
    """Observer of one walk: per-op records, trace spans and metrics.

    Every number it reports is one the walk already computed.  After
    the walk, op completions replay in time order (ties in op order)
    into the tracer's ``events`` and ``stream.*`` lanes and the
    ``ops.*``/``events.*`` metrics; ``max_events`` bounds that replay
    (one event per op) and raises :class:`RuntimeError` past it.
    """

    def __init__(
        self,
        tracer: Tracer = NULL_TRACER,
        metrics: Optional[MetricsRegistry] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.max_events = max_events
        self._trace = tracer.enabled
        self.records: List[OpRecord] = []

    def begin(self, summary: ProgramSummary, tables: ConfigTables,
              config: ProcessorConfig, latency: int) -> None:
        """Bind the run's tables (called by :func:`run`)."""
        self._summary = summary
        self._tables = tables
        self._clusters = config.clusters
        self._latency = latency
        self.records = []

    def host(self, start: int, done: int) -> None:
        """One stream instruction crossed the host channel."""
        if self._trace:
            self.tracer.span("host", "stream instruction", start, done)

    def transfer(self, words: int, pattern: AccessPattern, requested: int,
                 start: int, done: int) -> None:
        """One transfer occupied the memory pipe."""
        if self._trace:
            self.tracer.span(
                "memory",
                f"{words}w {pattern.name.lower()}",
                start,
                done,
                words=words,
                pattern=pattern.name,
                requested=requested,
                data_ready=done + self._latency,
            )

    def kernel(self, i: int, start: int, finish: int) -> None:
        """Op ``i``, a kernel call, ran on the clusters."""
        if not self._trace:
            return
        schedule = self._tables.schedules[self._summary.subject[i]]
        reload = self._tables.reload_cycles[i]
        work = self._summary.work[i]
        if reload:
            self.tracer.span(
                "microcontroller",
                f"ucode {schedule.kernel_name}",
                start + DISPATCH_CYCLES,
                start + DISPATCH_CYCLES + reload,
                words=schedule.instruction_count,
            )
        self.tracer.span(
            "clusters",
            schedule.kernel_name,
            start,
            finish,
            work_items=work,
            iterations=-(-work // self._clusters),
            ucode_reload_cycles=reload,
        )

    def op(self, i: int, start: int, finish: int) -> None:
        """Op ``i`` was ready at ``start`` and completed at ``finish``."""
        self.records.append(OpRecord(
            index=i,
            kind=_KIND_NAMES[self._summary.kinds[i]],
            label=self._summary.labels[i],
            start=start,
            finish=finish,
        ))

    def finish(self, result: SimulationResult, transfers: int,
               evictions: int, peak_words: int) -> SimulationResult:
        """Replay completions, fold run totals into the registry and
        return ``result`` with its records and metrics snapshot."""
        metrics = self.metrics
        if metrics is not None:
            if peak_words:
                metrics.gauge("srf.peak_words").set(peak_words)
            if evictions:
                metrics.counter("srf.evictions").inc(evictions)
            if result.spill_words:
                metrics.counter("srf.spill_words").inc(result.spill_words)
            if result.reload_words:
                metrics.counter("srf.reload_words").inc(result.reload_words)
        if (self._trace or metrics is not None
                or self.max_events != DEFAULT_MAX_EVENTS):
            self._replay()
        if metrics is not None:
            reload_cycles = sum(self._tables.reload_cycles)
            for name, value in (
                ("host.instructions", len(self.records)),
                ("memory.busy_cycles", result.memory_busy_cycles),
                ("memory.words", result.bandwidth.memory_words),
                ("memory.transfers", transfers),
                ("clusters.busy_cycles", result.cluster_busy_cycles),
                ("clusters.ucode_reloads", result.ucode_reloads),
                ("clusters.ucode_reload_cycles", reload_cycles),
                ("bandwidth.lrf_words", result.bandwidth.lrf_words),
                ("bandwidth.srf_words", result.bandwidth.srf_words),
            ):
                metrics.counter(name).inc(value)
        return replace(
            result,
            records=tuple(self.records),
            metrics=metrics.snapshot() if metrics is not None else None,
        )

    def _replay(self) -> None:
        """Completions in time order (FIFO at equal times)."""
        metrics = self.metrics
        occupancy = (
            metrics.histogram("events.queue_occupancy")
            if metrics is not None else None
        )
        kinds = self._summary.kinds
        order = completion_order(self.records)
        total = len(order)
        now = None
        for position, record in enumerate(order):
            if record.finish != now:
                now = record.finish
                if occupancy is not None:
                    occupancy.observe(total - position)
            if position >= self.max_events:
                raise RuntimeError(
                    f"event budget of {self.max_events} exceeded "
                    f"(livelock?): {position} events processed this run, "
                    f"now at cycle {now}, {total - position - 1} events "
                    "still pending"
                )
            lane = _OP_LANES[kinds[record.index]]
            if self._trace:
                self.tracer.instant(
                    "events", f"complete {record.label}", record.finish
                )
                self.tracer.span(
                    lane, record.label, record.start, record.finish,
                    index=record.index,
                )
            if metrics is not None:
                metrics.histogram("ops.latency_cycles").observe(
                    record.cycles
                )
                metrics.counter(f"ops.{lane.split('.')[-1]}").inc()
        if metrics is not None:
            metrics.counter("events.processed").inc(total)

