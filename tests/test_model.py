"""Tests for the totals-only entry points (repro.analysis.model).

Both modes run one timing engine; these tests pin that the totals-only
path (summaries and tables cached across a grid, no recorder) reports
exactly what a recorded :func:`simulate` run reports — field for field
— on every regime: spill-free programs, heavy spill/reload traffic,
microcode-store overflow, non-default clocks, and the kernel-call
closed form at short and long stream lengths.  The values themselves
are pinned by ``tests/test_golden_sim.py``.
"""

import dataclasses

import pytest

from repro.analysis.model import (
    EXECUTION_MODES,
    build_summary,
    check_mode,
    clear_summary_cache,
    predict_application,
    predict_kernel_call_cycles,
    predict_program,
    program_summary,
)
from repro.apps.streamc import StreamProgram
from repro.apps.suite import APPLICATION_ORDER, get_application
from repro.compiler.pipeline import compile_kernel
from repro.core.config import ProcessorConfig
from repro.core.params import IMAGINE_PARAMETERS
from repro.kernels.suite import PERFORMANCE_SUITE, get_kernel
from repro.sim.engine import config_tables
from repro.sim.processor import simulate


def calls_program(kernel: str, work_items: int, calls: int) -> StreamProgram:
    """load -> ``calls`` chained calls of ``kernel`` -> store."""
    p = StreamProgram("calls")
    stream = p.stream("raw", elements=work_items, in_memory=True)
    p.load(stream)
    for i in range(calls):
        nxt = p.stream(f"s{i}", elements=work_items)
        p.kernel(get_kernel(kernel), [stream], [nxt], work_items)
        stream = nxt
    p.store(stream)
    return p


def assert_exact(result, expected) -> None:
    """Every total the simulator reports, matched field for field."""
    assert result.cycles == expected.cycles
    assert result.useful_alu_ops == expected.useful_alu_ops
    assert result.spill_words == expected.spill_words
    assert result.reload_words == expected.reload_words
    assert result.memory_busy_cycles == expected.memory_busy_cycles
    assert result.cluster_busy_cycles == expected.cluster_busy_cycles
    assert result.ucode_reloads == expected.ucode_reloads
    assert result.bandwidth == expected.bandwidth


class TestApplicationExactness:
    @pytest.mark.parametrize("application", APPLICATION_ORDER)
    def test_baseline_exact(self, application):
        config = ProcessorConfig(8, 5)
        assert_exact(
            predict_application(application, config),
            simulate(get_application(application), config),
        )

    @pytest.mark.parametrize(
        "application,clusters,alus",
        [
            # qrd and fft4k at C=8 N=5 overflow the SRF and spill
            # megabytes — the LRU replay must match exactly.
            ("qrd", 8, 5),
            ("fft4k", 8, 5),
            # Large machines: fast path (SRF never pressured).
            ("depth", 128, 14),
            ("render", 64, 10),
        ],
    )
    def test_regimes_exact(self, application, clusters, alus):
        config = ProcessorConfig(clusters, alus)
        expected = simulate(get_application(application), config)
        assert_exact(predict_application(application, config), expected)

    def test_spill_regime_actually_spills(self):
        """Guard the parametrization above: qrd at the baseline must
        exercise the spill path, or the 'heavy spill' case is vacuous."""
        result = predict_application("qrd", ProcessorConfig(8, 5))
        assert result.spill_words > 0
        assert result.reload_words > 0

    def test_ucode_overflow_exact(self):
        """Shrink the microcode store until kernels evict each other:
        the model's reload accounting must still match the simulator."""
        for r_uc in (40.0, 100.0):
            params = dataclasses.replace(IMAGINE_PARAMETERS, r_uc=r_uc)
            config = ProcessorConfig(8, 5, params=params)
            expected = simulate(get_application("render"), config)
            assert expected.ucode_reloads > 1  # eviction really happened
            assert_exact(predict_application("render", config), expected)

    def test_clock_scaling(self):
        config = ProcessorConfig(8, 5)
        fast = predict_application("fft1k", config, clock_ghz=2.0)
        expected = simulate(
            get_application("fft1k"), config, clock_ghz=2.0
        )
        assert fast.clock_ghz == 2.0
        assert_exact(fast, expected)

    def test_predict_program_matches_predict_application(self):
        config = ProcessorConfig(16, 5)
        via_name = predict_application("depth", config)
        via_program = predict_program(get_application("depth"), config)
        assert via_program == via_name


class TestKernelClosedForm:
    @pytest.mark.parametrize("kernel", PERFORMANCE_SUITE)
    @pytest.mark.parametrize("work_items", [64, 1024, 8192])
    def test_call_cycles_exact(self, kernel, work_items):
        """The public closed form is the duration the walk charges a
        first (microcode-loading) call."""
        config = ProcessorConfig(8, 5)
        schedule = compile_kernel(get_kernel(kernel), config)
        tables = config_tables(
            build_summary(calls_program(kernel, work_items, 1)), config
        )
        assert predict_kernel_call_cycles(
            schedule, work_items, ucode_reload=True
        ) == tables.durations[1]

    def test_warm_call_skips_reload(self):
        """Second invocation of a resident kernel: no microcode reload."""
        config = ProcessorConfig(8, 5)
        schedule = compile_kernel(get_kernel("fft"), config)
        tables = config_tables(
            build_summary(calls_program("fft", 1024, 2)), config
        )
        assert tables.reload_cycles[2] == 0
        assert predict_kernel_call_cycles(schedule, 1024) == (
            tables.durations[2]
        )


class TestSummaryCaching:
    def test_summary_cached_per_application(self):
        clear_summary_cache()
        first = program_summary("fft1k")
        assert program_summary("fft1k") is first

    def test_clear_drops_cache(self):
        first = program_summary("fft1k")
        clear_summary_cache()
        assert program_summary("fft1k") is not first

    def test_build_summary_counts_static_work(self):
        summary = build_summary(get_application("fft1k"))
        result = simulate(get_application("fft1k"), ProcessorConfig(8, 5))
        assert summary.total_alu_ops == result.useful_alu_ops
        assert summary.lrf_words == result.bandwidth.lrf_words


class TestModeValidation:
    def test_check_mode_accepts_known_modes(self):
        for mode in EXECUTION_MODES:
            assert check_mode(mode) == mode

    def test_check_mode_names_allowed_modes(self):
        with pytest.raises(ValueError) as excinfo:
            check_mode("oracular")
        message = str(excinfo.value)
        assert "oracular" in message
        for mode in EXECUTION_MODES:
            assert mode in message

    def test_api_modes_mirror_model_modes(self):
        """repro.api re-declares the mode list (to stay import-light);
        the two must never drift apart."""
        from repro.api import SWEEP_MODES

        assert SWEEP_MODES == EXECUTION_MODES
