"""Tests for the access-pattern memory model (Rixner-style memory
access scheduling, paper reference [17])."""

import pytest

from repro.apps.streamc import Stream, StreamProgram
from repro.core.config import BASELINE_CONFIG
from repro.core.params import TECH_45NM
from repro.isa.values import AccessPattern
from repro.kernels import get_kernel
from repro.sim.engine import memory_service_cycles, memory_words_per_cycle
from repro.sim.processor import simulate


class TestAccessPattern:
    def test_efficiency_ordering(self):
        assert (
            AccessPattern.SEQUENTIAL.efficiency
            > AccessPattern.STRIDED.efficiency
            > AccessPattern.INDEXED.efficiency
        )

    def test_sequential_is_peak(self):
        assert AccessPattern.SEQUENTIAL.efficiency == 1.0


WORDS_PER_CYCLE = memory_words_per_cycle(BASELINE_CONFIG, TECH_45NM, 1.0)


class TestDeratedTransfers:
    def test_strided_transfer_takes_longer(self):
        seq = memory_service_cycles(
            4000, WORDS_PER_CYCLE, AccessPattern.SEQUENTIAL.efficiency
        )
        strided = memory_service_cycles(
            4000, WORDS_PER_CYCLE, AccessPattern.STRIDED.efficiency
        )
        assert strided > seq

    def test_indexed_much_slower(self):
        indexed = memory_service_cycles(
            4000, WORDS_PER_CYCLE, AccessPattern.INDEXED.efficiency
        )
        assert indexed == pytest.approx(4000 / (4.0 * 0.40), rel=0.01)

    def test_default_is_sequential(self):
        assert memory_service_cycles(4000, WORDS_PER_CYCLE) == 1000


class TestProgramLevel:
    def _program(self, pattern):
        p = StreamProgram("patterned")
        raw = p.stream(
            "raw", elements=40_000, in_memory=True, pattern=pattern
        )
        out = p.stream("out", elements=100)
        p.load(raw)
        p.kernel(get_kernel("noise"), [raw], [out], work_items=100)
        return p

    def test_stream_pattern_slows_loads(self):
        seq = simulate(
            self._program(AccessPattern.SEQUENTIAL), BASELINE_CONFIG
        )
        indexed = simulate(
            self._program(AccessPattern.INDEXED), BASELINE_CONFIG
        )
        assert indexed.cycles > seq.cycles
        assert indexed.memory_busy_cycles > 2 * seq.memory_busy_cycles

    def test_qrd_tags_strided_blocks(self):
        from repro.apps import get_application

        qrd = get_application("qrd")
        strided = [
            s for s in qrd.streams if s.pattern is AccessPattern.STRIDED
        ]
        assert len(strided) == 4  # the four matrix column blocks
