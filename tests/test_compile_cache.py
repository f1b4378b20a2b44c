"""The persistent schedule cache and the batch compile API.

Covers the acceptance criteria of the compile-cache work: cold/warm
behavior, corruption tolerance, compiler-fingerprint invalidation,
cross-process reuse, bit-identical schedules against golden data
captured from the original scheduler, and deterministic scheduling
across interpreter hash seeds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compiler import (
    clear_cache,
    compile_batch,
    compile_kernel,
    configure_default_cache,
    default_cache,
    schedule_key,
)
from repro.compiler import cache as cache_mod
from repro.compiler.machine import IMAGINE_ALU_MIX, build_machine
from repro.compiler.unroll import choose_unroll_factor
from repro.core.config import ProcessorConfig
from repro.kernels import get_kernel

CONFIG = ProcessorConfig(8, 5)
GOLDEN = Path(__file__).parent / "data" / "golden_schedules.json"

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Subprocess body: compile three kernels, print the cache counters.
_SUBPROCESS_COMPILE = """
import json
from repro.compiler import compile_kernel, default_cache
from repro.core.config import ProcessorConfig
from repro.kernels import get_kernel

for name in ("blocksad", "fft", "noise"):
    compile_kernel(get_kernel(name), ProcessorConfig(8, 5))
print(json.dumps(default_cache().stats()))
"""


@pytest.fixture
def cache_dir(tmp_path):
    """Point the process-wide cache at a private directory."""
    configure_default_cache(cache_dir=tmp_path)
    clear_cache()
    yield tmp_path
    clear_cache()
    configure_default_cache()  # back to the environment default


def _entry_files(root: Path):
    return sorted(root.rglob("*.json"))


def _fields(schedule):
    return (
        schedule.kernel_name,
        schedule.unroll_factor,
        schedule.ii,
        schedule.length,
        schedule.max_live,
        schedule.resource_mii,
        schedule.recurrence_mii,
        schedule.alu_ops_per_iteration,
    )


class TestColdWarm:
    def test_cold_compile_writes_an_entry(self, cache_dir):
        compile_kernel(get_kernel("fft"), CONFIG)
        stats = default_cache().stats()
        assert stats["writes"] >= 1
        assert stats["misses"] >= 1
        assert _entry_files(cache_dir)

    def test_warm_hit_reproduces_the_schedule(self, cache_dir):
        cold = compile_kernel(get_kernel("fft"), CONFIG)
        clear_cache()  # drop the in-memory layer, keep the disk layer
        warm = compile_kernel(get_kernel("fft"), CONFIG)
        assert warm is not cold
        assert _fields(warm) == _fields(cold)
        assert default_cache().stats()["hits"] >= 1

    def test_disabled_cache_still_compiles(self, cache_dir):
        configure_default_cache(enabled=False)
        schedule = compile_kernel(get_kernel("fft"), CONFIG)
        assert schedule.ii >= 1
        assert default_cache().stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "writes": 0,
        }

    def test_warm_hits_verify(self, cache_dir, monkeypatch):
        """Loaded entries pass full schedule verification."""
        cold = compile_kernel(get_kernel("convolve"), CONFIG)
        clear_cache()
        monkeypatch.setenv("REPRO_COMPILE_CACHE_VERIFY", "1")
        warm = compile_kernel(get_kernel("convolve"), CONFIG)
        assert _fields(warm) == _fields(cold)
        assert default_cache().stats()["hits"] >= 1

    def test_heterogeneous_machines_cached_separately(self, cache_dir):
        plain = compile_kernel(get_kernel("fft"), CONFIG)
        mixed = compile_kernel(get_kernel("fft"), CONFIG, alu_mix=IMAGINE_ALU_MIX)
        assert plain.ii != mixed.ii or plain.length != mixed.length


class TestRobustness:
    def test_corrupted_entry_recovers(self, cache_dir):
        cold = compile_kernel(get_kernel("fft"), CONFIG)
        (entry,) = _entry_files(cache_dir)
        entry.write_text("not json {{{")
        clear_cache()
        warm = compile_kernel(get_kernel("fft"), CONFIG)
        assert _fields(warm) == _fields(cold)
        stats = default_cache().stats()
        assert stats["evictions"] >= 1
        # The recompile rewrote a valid entry in place.
        (entry,) = _entry_files(cache_dir)
        assert json.loads(entry.read_text())["kernel"] == "fft"

    def test_truncated_entry_recovers(self, cache_dir):
        cold = compile_kernel(get_kernel("noise"), CONFIG)
        (entry,) = _entry_files(cache_dir)
        entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2])
        clear_cache()
        assert _fields(compile_kernel(get_kernel("noise"), CONFIG)) == _fields(cold)

    def test_checksum_detects_tampered_fields(self, cache_dir):
        cold = compile_kernel(get_kernel("fft"), CONFIG)
        (entry,) = _entry_files(cache_dir)
        payload = json.loads(entry.read_text())
        payload["ii"] = payload["ii"] + 1  # bit-flip, checksum now stale
        entry.write_text(json.dumps(payload))
        clear_cache()
        warm = compile_kernel(get_kernel("fft"), CONFIG)
        assert warm.ii == cold.ii
        assert default_cache().stats()["evictions"] >= 1

    def test_stale_fingerprint_is_rejected(self, cache_dir):
        """An entry written by a different compiler version never loads,
        even if its checksum is internally consistent."""
        compile_kernel(get_kernel("fft"), CONFIG)
        (entry,) = _entry_files(cache_dir)
        payload = json.loads(entry.read_text())
        payload["fingerprint"] = "0" * 64
        del payload["checksum"]
        payload["checksum"] = cache_mod._payload_checksum(payload)
        entry.write_text(json.dumps(payload))
        key = entry.stem
        assert default_cache().load(key) is None
        assert not entry.exists()  # evicted

    def test_unreadable_root_degrades_to_no_cache(self, tmp_path):
        victim = tmp_path / "file-not-dir"
        victim.write_text("occupied")
        # Using a *file* as the cache root makes every write fail.
        configure_default_cache(cache_dir=victim)
        clear_cache()
        try:
            schedule = compile_kernel(get_kernel("fft"), CONFIG)
            assert schedule.ii >= 1
            assert default_cache().stats()["writes"] == 0
        finally:
            clear_cache()
            configure_default_cache()


class TestInvalidation:
    def test_fingerprint_change_changes_the_key(self, cache_dir, monkeypatch):
        kernel = get_kernel("fft")
        machine = build_machine(CONFIG, None)
        unroll = choose_unroll_factor(kernel, machine)
        before = schedule_key(kernel, machine, unroll)
        monkeypatch.setattr(cache_mod, "_fingerprint_memo", "f" * 64)
        after = schedule_key(kernel, machine, unroll)
        assert before != after

    def test_compiler_edit_forces_recompile(self, cache_dir, monkeypatch):
        cold = compile_kernel(get_kernel("fft"), CONFIG)
        writes_before = default_cache().stats()["writes"]
        clear_cache()
        # Simulate an edited compiler: new fingerprint, same algorithms.
        monkeypatch.setattr(cache_mod, "_fingerprint_memo", "e" * 64)
        warm = compile_kernel(get_kernel("fft"), CONFIG)
        assert _fields(warm) == _fields(cold)
        # The old entry was not reused; a fresh one was written.
        assert default_cache().stats()["writes"] > writes_before


class TestCrossProcess:
    def test_second_process_reuses_the_cache(self, tmp_path):
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_COMPILE_CACHE_DIR=str(tmp_path),
        )

        def run():
            proc = subprocess.run(
                [sys.executable, "-c", _SUBPROCESS_COMPILE],
                env=env, capture_output=True, text=True, check=True,
            )
            return json.loads(proc.stdout.strip().splitlines()[-1])

        first = run()
        assert first["writes"] >= 3
        second = run()
        assert second["misses"] == 0  # zero recompiles
        assert second["writes"] == 0
        assert second["hits"] >= 3


class TestGoldenSchedules:
    """Schedules are bit-identical to the pre-optimization compiler.

    ``tests/data/golden_schedules.json`` was captured from the original
    scheduler before the reservation-table/II-search/MaxLive rewrites
    and before the persistent cache existed; every (kernel, C, N) point
    must reproduce its II, length, MaxLive, MII bounds and finish times
    exactly — cold, and again through the disk cache.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def _compile(self, entry):
        kernel = get_kernel(entry["kernel"])
        config = ProcessorConfig(entry["clusters"], entry["alus"])
        mix = IMAGINE_ALU_MIX if entry["alu_mix"] == "imagine" else None
        return compile_kernel(kernel, config, alu_mix=mix)

    def _check(self, entry, schedule):
        got = {
            "unroll": schedule.unroll_factor,
            "ii": schedule.ii,
            "length": schedule.length,
            "max_live": schedule.max_live,
            "resource_mii": schedule.resource_mii,
            "recurrence_mii": schedule.recurrence_mii,
            "finish": [schedule.inner_loop_cycles(i) for i in (1, 7, 100)],
        }
        want = {key: entry[key] for key in got}
        assert got == want, (
            f"{entry['kernel']} C={entry['clusters']} N={entry['alus']} "
            f"mix={entry['alu_mix']} diverged from the golden schedule"
        )

    def test_cold_compiles_match_golden(self, golden, cache_dir):
        for entry in golden:
            self._check(entry, self._compile(entry))

    def test_disk_cached_compiles_match_golden(self, golden, cache_dir):
        for entry in golden:
            self._compile(entry)  # populate the disk cache
        clear_cache()
        for entry in golden:
            self._check(entry, self._compile(entry))
        assert default_cache().stats()["hits"] >= len(golden)


class TestCompileBatch:
    def test_results_in_input_order_with_dedup(self, cache_dir):
        jobs = [
            (get_kernel("fft"), CONFIG),
            (get_kernel("noise"), ProcessorConfig(8, 10)),
            (get_kernel("fft"), CONFIG),  # duplicate
        ]
        results = compile_batch(jobs)
        assert len(results) == 3
        assert results[0] is results[2]  # deduplicated, not recompiled
        assert results[0].kernel_name == "fft"
        assert results[1].kernel_name == "noise"

    def test_matches_serial_compiles(self, cache_dir):
        jobs = [
            (get_kernel(name), ProcessorConfig(c, n))
            for name in ("blocksad", "update")
            for c in (8, 32)
            for n in (2, 5)
        ]
        batch = compile_batch(jobs)
        for (kernel, config), schedule in zip(jobs, batch):
            assert schedule is compile_kernel(kernel, config)


class TestDeterminism:
    def test_repeated_compiles_are_identical(self, cache_dir):
        first = _fields(compile_kernel(get_kernel("dct"), CONFIG))
        clear_cache()
        default_cache().clear()
        second = _fields(compile_kernel(get_kernel("dct"), CONFIG))
        assert first == second

    def test_eviction_order_is_hash_seed_independent(self, tmp_path):
        """The scheduler's forced-placement eviction must not depend on
        interpreter hash randomization (it orders by height, not by any
        set/dict iteration)."""
        script = """
import json
from repro.compiler import compile_kernel, configure_default_cache
from repro.compiler.pipeline import _search_ii
from repro.compiler.machine import build_machine
from repro.compiler.unroll import build_sched_graph, choose_unroll_factor
from repro.core.config import ProcessorConfig
from repro.kernels import get_kernel

configure_default_cache(enabled=False)
out = []
for name in ("fft", "dct", "irast"):
    for n in (5, 14):
        kernel = get_kernel(name)
        config = ProcessorConfig(8, n)
        machine = build_machine(config, None)
        graph = build_sched_graph(
            kernel, machine, choose_unroll_factor(kernel, machine))
        schedule, pressure = _search_ii(graph, machine, verify=True)
        out.append([name, n, schedule.ii, pressure,
                    sorted(schedule.start.items())])
print(json.dumps(out))
"""
        outputs = []
        for seed in ("0", "1", "4242"):
            env = dict(
                os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=seed
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(proc.stdout.strip().splitlines()[-1])
        assert outputs[0] == outputs[1] == outputs[2]
