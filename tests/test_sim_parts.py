"""Tests for the timing engine's parts: completion replay, memory pipe,
host channel and scoreboard, cluster array and microcode store, and
SRF stream allocation."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.streamc import StreamProgram
from repro.compiler.pipeline import compile_kernel
from repro.core.config import BASELINE_CONFIG, ProcessorConfig
from repro.core.params import IMAGINE_PARAMETERS, TECH_45NM
from repro.kernels import get_kernel
from repro.obs.tracer import Tracer
from repro.sim.engine import (
    DISPATCH_CYCLES,
    SCOREBOARD_DEPTH,
    CapacityError,
    MicrocodeStore,
    SRFState,
    build_summary,
    completion_order,
    config_tables,
    host_cycles_per_instruction,
    kernel_call_cycles,
    memory_service_cycles,
    memory_words_per_cycle,
)
from repro.sim.metrics import OpRecord
from repro.sim.processor import simulate


def loads_program(*sizes: int) -> StreamProgram:
    """Independent loads of the given word counts."""
    p = StreamProgram("loads")
    for i, words in enumerate(sizes):
        p.load(p.stream(f"in{i}", elements=words, in_memory=True))
    return p


def traced(program, config=BASELINE_CONFIG):
    tracer = Tracer()
    result = simulate(program, config, tracer=tracer)
    return result, tracer


def lane(tracer: Tracer, resource: str):
    return [s for s in tracer.spans if s.resource == resource]


def record(index: int, finish: int) -> OpRecord:
    return OpRecord(index, "LoadOp", f"op{index}", 0, finish)


class TestEventQueue:
    """Completions replay into the tracer as a sort over the records."""

    def test_runs_in_time_order(self):
        order = completion_order([record(0, 5), record(1, 1), record(2, 9)])
        assert [r.index for r in order] == [1, 0, 2]

    def test_fifo_at_equal_times(self):
        order = completion_order([record(0, 3), record(1, 3)])
        assert [r.index for r in order] == [0, 1]

    def test_replay_follows_completion_order(self):
        result, tracer = traced(loads_program(40_000, 4))
        times = [s.start for s in tracer.instants]
        assert times == sorted(r.finish for r in result.records)


class TestMemorySystem:
    def test_bandwidth(self):
        """16 GB/s at 1 GHz and 4-byte words = 4 words per cycle."""
        assert memory_words_per_cycle(
            BASELINE_CONFIG, TECH_45NM, 1.0
        ) == pytest.approx(4.0)
        assert int(BASELINE_CONFIG.params.t_mem) == 55

    def test_transfer_timing(self):
        assert memory_service_cycles(4000, 4.0) == 1000
        result, tracer = traced(loads_program(4000))
        (span,) = lane(tracer, "memory")
        issued = host_cycles_per_instruction(TECH_45NM, 1.0)
        assert (span.start, span.finish) == (issued, issued + 1000)
        assert result.records[0].finish == issued + 1000 + 55

    def test_transfers_serialize_on_the_pipe(self):
        _, tracer = traced(loads_program(400, 400))
        first, second = lane(tracer, "memory")
        assert second.start == first.finish

    def test_pipe_idles_until_ready(self):
        _, tracer = traced(loads_program(4, 4))
        first, second = lane(tracer, "memory")
        assert first.finish < second.start
        assert second.start == dict(second.detail)["requested"]

    def test_utilization(self):
        result = simulate(loads_program(4000), BASELINE_CONFIG)
        assert result.memory_busy_cycles == 1000
        assert result.memory_utilization == pytest.approx(
            1000 / result.cycles
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            memory_service_cycles(-1, 4.0)

    @given(st.lists(st.integers(1, 10_000), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_bandwidth_conservation(self, sizes):
        """Total busy time equals total words / bandwidth (rounded)."""
        result = simulate(loads_program(*sizes), BASELINE_CONFIG)
        expected = sum(int(round(w / 4.0)) for w in sizes)
        assert result.memory_busy_cycles == expected


class TestHost:
    def test_issue_rate(self):
        """64-byte stream instructions over 2 GB/s at 1 GHz: 32 cycles."""
        assert host_cycles_per_instruction(TECH_45NM, 1.0) == 32

    def test_serial_channel(self):
        _, tracer = traced(loads_program(4, 4))
        assert [(s.start, s.finish) for s in lane(tracer, "host")] == [
            (0, 32), (32, 64),
        ]

    def test_idle_channel_waits(self):
        """The scoreboard gate: op ``depth`` cannot issue before op 0
        completes, so the channel idles until then."""
        sizes = [40_000] + [4] * SCOREBOARD_DEPTH
        result, tracer = traced(loads_program(*sizes))
        gated = lane(tracer, "host")[SCOREBOARD_DEPTH]
        assert gated.start == result.records[0].finish
        assert gated.finish == result.records[0].finish + 32


class TestClusterArray:
    def test_kernel_run_timing(self):
        schedule = compile_kernel(get_kernel("blocksad"), BASELINE_CONFIG)
        # 800 items on 8 clusters = 100 iterations.
        assert kernel_call_cycles(schedule, 800) == (
            DISPATCH_CYCLES + schedule.inner_loop_cycles(100)
        )
        p = StreamProgram("one")
        raw = p.stream("raw", elements=800, in_memory=True)
        p.load(raw)
        p.kernel(get_kernel("blocksad"), [raw],
                 [p.stream("out", elements=800)], work_items=800)
        _, tracer = traced(p)
        (span,) = lane(tracer, "clusters")
        assert span.cycles == (
            kernel_call_cycles(schedule, 800) + schedule.instruction_count
        )
        assert dict(span.detail)["iterations"] == 100

    def test_serial_resource(self):
        p = StreamProgram("two")
        for i in range(2):
            raw = p.stream(f"raw{i}", elements=80, in_memory=True)
            p.load(raw)
            p.kernel(get_kernel("noise"), [raw],
                     [p.stream(f"out{i}", elements=80)], work_items=80)
        _, tracer = traced(p)
        a, b = lane(tracer, "clusters")
        assert b.start == a.finish

    def test_ucode_cached_after_first_run(self):
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        store = MicrocodeStore(int(BASELINE_CONFIG.params.r_uc))
        assert store.load("noise", schedule.instruction_count) > 0
        assert store.load("noise", schedule.instruction_count) == 0

    def test_ragged_last_batch_rounds_up(self):
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        # 9 items on 8 clusters = 2 iterations.
        assert kernel_call_cycles(schedule, 9) == (
            DISPATCH_CYCLES + schedule.inner_loop_cycles(2)
        )

    def test_rejects_empty_call(self):
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        with pytest.raises(ValueError):
            kernel_call_cycles(schedule, 0)

    def test_ucode_lru_evicts_least_recent(self):
        store = MicrocodeStore(100)
        assert store.load("a", 60) == 60
        assert store.load("b", 30) == 30
        assert store.load("a", 60) == 0   # a is now most recent
        assert store.load("c", 30) == 30  # evicts b, not a
        assert store.load("a", 60) == 0
        assert store.load("b", 30) == 30

    def test_ucode_reload_folds_into_calls(self):
        """With a store too small for both kernels, alternating calls
        reload every time, and each reload lengthens that call."""
        params = dataclasses.replace(IMAGINE_PARAMETERS, r_uc=40.0)
        config = ProcessorConfig(8, 5, params=params)
        p = StreamProgram("alternate")
        stream = p.stream("seed", elements=800, in_memory=True)
        p.load(stream)
        for i, name in enumerate(["noise", "blocksad", "noise"]):
            nxt = p.stream(f"s{i}", elements=800)
            p.kernel(get_kernel(name), [stream], [nxt], work_items=800)
            stream = nxt
        summary = build_summary(p)
        tables = config_tables(summary, config)
        reloads = [tables.reload_cycles[i] for i in (1, 2, 3)]
        assert all(cycles > 0 for cycles in reloads)
        assert tables.ucode_reloads == 3
        for i in (1, 2, 3):
            schedule = tables.schedules[summary.subject[i]]
            assert tables.durations[i] == (
                kernel_call_cycles(schedule, 800) + tables.reload_cycles[i]
            )


CAPACITY = int(BASELINE_CONFIG.srf_capacity_words)


class TestSRFAllocator:
    def test_capacity_from_config(self):
        assert CAPACITY == 44_000

    def test_allocate_and_release(self):
        srf = SRFState(CAPACITY)
        assert srf.allocate("a", 1000, 0, dirty=False) == []
        assert srf.is_resident("a")
        assert srf.used == 1000
        srf.release("a")
        assert srf.used == 0

    def test_oversized_stream_rejected(self):
        srf = SRFState(CAPACITY)
        with pytest.raises(CapacityError, match="huge"):
            srf.allocate(0, 50_000, 0, dirty=False, name="huge")

    def test_lru_eviction(self):
        srf = SRFState(CAPACITY)
        srf.allocate("old", 20_000, 0, dirty=False)
        srf.allocate("newer", 20_000, 1, dirty=False)
        evictions = srf.allocate("incoming", 20_000, 2, dirty=False)
        assert [victim for victim, _, _ in evictions] == ["old"]
        assert not srf.is_resident("old")
        assert srf.is_resident("newer")

    def test_dirty_eviction_marks_writeback(self):
        srf = SRFState(CAPACITY)
        srf.allocate("produced", 30_000, 0, dirty=True)
        evictions = srf.allocate("next", 30_000, 1, dirty=False)
        assert evictions == [("produced", 30_000, True)]
        assert srf.spill_words == 30_000

    def test_pinned_streams_never_evicted(self):
        srf = SRFState(CAPACITY)
        srf.allocate("pinned", 30_000, 0, dirty=False)
        srf.pinned.add("pinned")
        with pytest.raises(CapacityError):
            srf.allocate("big", 30_000, 1, dirty=False)

    def test_pins_redirect_the_victim(self):
        """The least recent *unpinned* stream goes, not the oldest."""
        srf = SRFState(CAPACITY)
        srf.allocate("oldest", 20_000, 0, dirty=False)
        srf.allocate("older", 20_000, 1, dirty=False)
        srf.pinned.add("oldest")
        evictions = srf.allocate("incoming", 20_000, 2, dirty=False)
        assert [victim for victim, _, _ in evictions] == ["older"]

    def test_double_allocate_is_idempotent(self):
        srf = SRFState(CAPACITY)
        srf.allocate("s", 5_000, 0, dirty=False)
        assert srf.allocate("s", 5_000, 1, dirty=True) == []
        assert srf.used == 5_000
        # The second allocation marked it dirty: evicting it writes back.
        assert srf.allocate("big", 40_000, 2, dirty=False) == [
            ("s", 5_000, True)
        ]

    @given(st.lists(st.integers(100, 9000), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant(self, sizes):
        """The allocator never oversubscribes the SRF."""
        srf = SRFState(CAPACITY)
        for i, words in enumerate(sizes):
            srf.allocate(i, words, i, dirty=(i % 2 == 0))
            assert srf.used <= srf.capacity

    def test_program_spills_and_reloads(self):
        """End to end: a working set past the SRF spills the idle
        produced stream and reloads it before its consumer."""
        p = StreamProgram("spill")
        a = p.stream("a", elements=10_000, in_memory=True)
        p.load(a)
        produced = p.stream("produced", elements=20_000)
        p.kernel(get_kernel("noise"), [a], [produced], work_items=800)
        b = p.stream("b", elements=30_000, in_memory=True)
        p.load(b)  # evicts the dirty, still-needed ``produced``
        p.store(b)
        out = p.stream("out", elements=800)
        p.kernel(get_kernel("noise"), [produced], [out], work_items=800)
        config = ProcessorConfig(8, 5)
        assert build_summary(p).peak_resident_words > CAPACITY
        result = simulate(p, config)
        assert result.spill_words == 20_000
        assert result.reload_words == 20_000
