"""Tests for repro.sim.processor (whole-program execution)."""

import pytest

from repro.apps.streamc import StreamProgram
from repro.compiler.pipeline import compile_kernel
from repro.core.config import BASELINE_CONFIG, ProcessorConfig
from repro.kernels import get_kernel
from repro.sim.engine import DISPATCH_CYCLES, SCOREBOARD_DEPTH
from repro.sim.processor import StreamProcessor, simulate


def one_kernel_program(work_items=800, elements=800):
    p = StreamProgram("one")
    raw = p.stream("raw", elements=elements, in_memory=True)
    out = p.stream("out", elements=elements)
    p.load(raw)
    p.kernel(get_kernel("noise"), [raw], [out], work_items=work_items)
    p.store(out)
    return p


class TestBasicExecution:
    def test_end_to_end_timing_components(self):
        result = simulate(one_kernel_program(), BASELINE_CONFIG)
        schedule = compile_kernel(get_kernel("noise"), BASELINE_CONFIG)
        kernel_cycles = (
            DISPATCH_CYCLES
            + schedule.instruction_count  # first-run microcode load
            + schedule.inner_loop_cycles(100)
        )
        load_cycles = 800 / 4 + 55
        store_cycles = 800 / 4 + 55
        floor = kernel_cycles + load_cycles + store_cycles
        assert result.cycles >= floor * 0.9
        # Host issue adds bounded overhead on a three-op program.
        assert result.cycles <= floor + 3 * 32 + 64

    def test_useful_ops_counted(self):
        result = simulate(one_kernel_program(work_items=800), BASELINE_CONFIG)
        assert result.useful_alu_ops == 800 * get_kernel("noise").stats().alu_ops

    def test_gops_consistency(self):
        result = simulate(one_kernel_program(), BASELINE_CONFIG)
        assert result.gops == pytest.approx(
            result.useful_alu_ops / result.cycles, rel=1e-6
        )
        assert 0 < result.alu_utilization <= 1.0

    def test_records_cover_all_ops(self):
        program = one_kernel_program()
        result = simulate(program, BASELINE_CONFIG)
        assert len(result.records) == len(program.ops)
        for record in result.records:
            assert record.finish >= record.start


class TestOverlap:
    def test_loads_overlap_kernels(self):
        """Two independent load+kernel chains: the second load runs
        during the first kernel (application-level concurrency)."""
        p = StreamProgram("overlap")
        raw1 = p.stream("raw1", elements=8000, in_memory=True)
        raw2 = p.stream("raw2", elements=8000, in_memory=True)
        out1 = p.stream("out1", elements=8000)
        out2 = p.stream("out2", elements=8000)
        p.load(raw1)
        p.load(raw2)
        p.kernel(get_kernel("noise"), [raw1], [out1], work_items=8000)
        p.kernel(get_kernel("noise"), [raw2], [out2], work_items=8000)
        result = simulate(p, BASELINE_CONFIG)

        serial = StreamProgram("serial")
        raw1s = serial.stream("raw1", elements=8000, in_memory=True)
        raw2s = serial.stream("raw2", elements=8000, in_memory=True)
        out1s = serial.stream("out1", elements=8000)
        out2s = serial.stream("out2", elements=8000)
        serial.load(raw1s)
        serial.kernel(get_kernel("noise"), [raw1s], [out1s], work_items=8000)
        serial.load(raw2s)
        serial.kernel(get_kernel("noise"), [raw2s], [out2s], work_items=8000)
        result_serial = simulate(serial, BASELINE_CONFIG)
        # Note: in-order issue still overlaps the second load with the
        # first kernel in both cases; the pipelined order is never slower.
        assert result.cycles <= result_serial.cycles

    def test_dependent_kernels_serialize(self):
        p = StreamProgram("chain")
        raw = p.stream("raw", elements=800, in_memory=True)
        mid = p.stream("mid", elements=800)
        out = p.stream("out", elements=800)
        p.load(raw)
        p.kernel(get_kernel("noise"), [raw], [mid], work_items=800)
        p.kernel(get_kernel("noise"), [mid], [out], work_items=800)
        result = simulate(p, BASELINE_CONFIG)
        k1 = result.records[1]
        k2 = result.records[2]
        assert k2.start >= k1.finish


class TestSpilling:
    def test_working_set_overflow_spills_and_reloads(self):
        """Three streams that cannot coexist: the first spills (dirty)
        and is reloaded for its consumer."""
        config = ProcessorConfig(8, 5)  # 44,000-word SRF
        p = StreamProgram("spill")
        a = p.stream("a", elements=20_000, in_memory=True)
        b = p.stream("b", elements=20_000, in_memory=True)
        c = p.stream("c", elements=20_000, in_memory=True)
        outs = [p.stream(f"o{i}", elements=100) for i in range(3)]
        p.load(a)
        p.load(b)
        p.load(c)  # evicts a (LRU; all three streams are consumed later)
        p.kernel(get_kernel("noise"), [a], [outs[0]], work_items=100)
        p.kernel(get_kernel("noise"), [b], [outs[1]], work_items=100)
        p.kernel(get_kernel("noise"), [c], [outs[2]], work_items=100)
        result = simulate(p, config)
        assert result.reload_words >= 20_000

    def test_preloaded_inputs_live_in_srf(self):
        p = StreamProgram("preloaded")
        data = p.input_in_srf("data", elements=1000)
        out = p.stream("out", elements=1000)
        p.kernel(get_kernel("noise"), [data], [out], work_items=1000)
        result = simulate(p, BASELINE_CONFIG)
        # No loads: no memory traffic at all (no spills either).
        assert result.memory_busy_cycles == 0
        assert result.spill_words == 0


class TestShortStreams:
    def test_small_work_pays_fixed_overheads(self):
        """A 16x shorter call is far less than 16x faster."""
        big = simulate(one_kernel_program(work_items=12_800), BASELINE_CONFIG)
        small = simulate(one_kernel_program(work_items=800), BASELINE_CONFIG)
        assert big.cycles < 16 * small.cycles

    def test_fixed_dataset_short_stream_effect(self):
        """The same tiny program speeds up sublinearly from C=8 to
        C=128 (iterations per cluster hit 1)."""
        small_machine = simulate(
            one_kernel_program(work_items=256), ProcessorConfig(8, 5)
        )
        big_machine = simulate(
            one_kernel_program(work_items=256), ProcessorConfig(128, 5)
        )
        speedup = small_machine.cycles / big_machine.cycles
        assert speedup < 8.0  # nowhere near the 16x cluster ratio


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        a = simulate(one_kernel_program(), BASELINE_CONFIG)
        b = simulate(one_kernel_program(), BASELINE_CONFIG)
        assert a.cycles == b.cycles
        assert a.records == b.records
        assert a.bandwidth == b.bandwidth


class TestScoreboard:
    def test_host_cannot_run_unboundedly_ahead(self):
        """With a deep chain of slow dependent kernels, the host's issue
        of op k is gated by the completion of op k - depth: the last
        op's start time grows with the chain, not just with the issue
        rate."""
        chain_length = SCOREBOARD_DEPTH + 8
        p = StreamProgram("deepchain")
        stream = p.stream("seed", elements=8000, in_memory=True)
        p.load(stream)
        for i in range(chain_length):
            nxt = p.stream(f"s{i}", elements=8000)
            p.kernel(get_kernel("noise"), [stream], [nxt],
                     work_items=8000)
            stream = nxt
        result = simulate(p, BASELINE_CONFIG)
        last = result.records[-1]
        issue_only_bound = len(p.ops) * 32
        assert last.start > issue_only_bound


class TestSpeedupHelper:
    def test_speedup_requires_same_program(self):
        a = simulate(one_kernel_program(), BASELINE_CONFIG)
        p2 = one_kernel_program()
        p2.name = "other"
        b = simulate(p2, BASELINE_CONFIG)
        with pytest.raises(ValueError):
            b.speedup_over(a)

    def test_processor_reuse_is_fresh_per_run(self):
        processor = StreamProcessor(BASELINE_CONFIG)
        first = processor.run(one_kernel_program())
        assert first.cycles > 0
