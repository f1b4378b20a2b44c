"""The frozen timing oracle: every engine result pinned to a golden table.

``tests/data/golden_sim.json`` was generated once, by the cycle-level
simulator as it stood before the timing engine was unified, and is
never regenerated by the code it checks.  Each test below recomputes
one section of the table with the current engine and compares it
exactly:

* ``applications`` — the six applications on the Table-5 ``C`` values
  x the Figure-15 ``N`` values (90 points): every scalar field of the
  :class:`~repro.sim.metrics.SimulationResult`, plus a sha256 of the
  per-op ``(index, kind, label, start, finish)`` records.  The same 90
  golden entries are checked three ways: through ``simulate`` on an
  ad-hoc program, and through a
  :class:`~repro.analysis.sweep.SweepEngine` in records mode (scalars
  plus digest) and in totals mode (scalars);
* ``kernel_calls`` — one call of each suite kernel on the Table-5 grid
  at three stream lengths (360 points), microcode load included;
* ``variants`` — non-default clocks, technology nodes and microcode
  stores;
* ``partitioned`` — two :func:`~repro.sim.simulate_partitioned` runs;
* ``byte_exact`` — the Chrome-trace JSON and the metrics snapshot of a
  spill-heavy and a spill-free run, compared as bytes (sha256).

Run as a script (``python tests/test_golden_sim.py``) it prints
``golden: N/N points exact`` (checked points, so the application
entries count three times) and exits non-zero on any mismatch.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.model import clear_summary_cache
from repro.analysis.sweep import SweepEngine
from repro.apps.suite import APPLICATION_ORDER, get_application
from repro.compiler.pipeline import compile_kernel
from repro.core.config import ProcessorConfig
from repro.core.params import IMAGINE_PARAMETERS, TECH_45NM, TECH_180NM
from repro.kernels.suite import PERFORMANCE_SUITE, get_kernel
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.sim import simulate, simulate_partitioned
from repro.sim.engine import MicrocodeStore, kernel_call_cycles

GOLDEN = Path(__file__).parent / "data" / "golden_sim.json"

#: The grids (literal, so the oracle never moves with the figures).
C_VALUES = (8, 16, 32, 64, 128)
APP_N_VALUES = (5, 10, 14)
KERNEL_N_VALUES = (2, 5, 10, 14)
KERNEL_WORK_ITEMS = (64, 1024, 8192)

#: (label, application, clusters, alus, clock_ghz, node, r_uc).
VARIANTS = (
    ("fft1k@2GHz", "fft1k", 8, 5, 2.0, "45nm", None),
    ("fft4k@0.5GHz", "fft4k", 8, 5, 0.5, "45nm", None),
    ("render@180nm", "render", 8, 5, 1.0, "180nm", None),
    ("qrd@180nm", "qrd", 16, 5, 1.0, "180nm", None),
    ("render@ruc40", "render", 8, 5, 1.0, "45nm", 40.0),
    ("render@ruc100", "render", 8, 5, 1.0, "45nm", 100.0),
)
NODES = {"45nm": TECH_45NM, "180nm": TECH_180NM}

#: (label, application, clusters, alus, processors).
PARTITIONED = (
    ("render@128x5/4", "render", 128, 5, 4),
    ("qrd@32x5/2", "qrd", 32, 5, 2),
)

#: (label, application, clusters, alus): one run that spills heavily
#: and one that never touches the SRF's eviction path.
BYTE_EXACT = (
    ("fft4k@8x5", "fft4k", 8, 5),
    ("depth@32x10", "depth", 32, 10),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: The record-derived fields; totals-only results carry none.
RECORD_FIELDS = ("records", "records_sha256")


def result_fields(result) -> dict:
    """Every scalar a :class:`SimulationResult` reports, plus a digest
    of its per-op timeline."""
    records = [
        [r.index, r.kind, r.label, r.start, r.finish] for r in result.records
    ]
    return {
        "cycles": result.cycles,
        "useful_alu_ops": result.useful_alu_ops,
        "spill_words": result.spill_words,
        "reload_words": result.reload_words,
        "memory_busy_cycles": result.memory_busy_cycles,
        "cluster_busy_cycles": result.cluster_busy_cycles,
        "ucode_reloads": result.ucode_reloads,
        "lrf_words": result.bandwidth.lrf_words,
        "srf_words": result.bandwidth.srf_words,
        "memory_words": result.bandwidth.memory_words,
        "records": len(records),
        "records_sha256": _sha256(json.dumps(records)),
    }


def application_points() -> dict:
    return {
        f"{app}@{c}x{n}": result_fields(
            simulate(get_application(app), ProcessorConfig(c, n))
        )
        for app in APPLICATION_ORDER
        for c in C_VALUES
        for n in APP_N_VALUES
    }


def scalar_fields(fields: dict) -> dict:
    return {k: v for k, v in fields.items() if k not in RECORD_FIELDS}


def engine_points(mode: str) -> dict:
    """The application grid through a fresh sweep engine in ``mode``
    (the cached path sweeps, pool workers and the daemon share), its
    tables derived afresh."""
    clear_summary_cache()
    grid = [
        (f"{app}@{c}x{n}", app, ProcessorConfig(c, n))
        for app in APPLICATION_ORDER
        for c in C_VALUES
        for n in APP_N_VALUES
    ]
    results = SweepEngine().simulate_many(
        [(app, config) for _, app, config in grid], mode=mode
    )
    points = {
        label: result_fields(result)
        for (label, _, _), result in zip(grid, results)
    }
    if mode == "simulated":
        return points
    return {label: scalar_fields(fields) for label, fields in points.items()}


def first_call_cycles(schedule, work_items: int) -> int:
    """Cycles of one call on a fresh cluster array (microcode load
    included)."""
    store = MicrocodeStore(int(schedule.config.params.r_uc))
    reload = store.load(schedule.kernel_name, schedule.instruction_count)
    return reload + kernel_call_cycles(schedule, work_items)


def kernel_call_points() -> dict:
    points = {}
    for kernel in PERFORMANCE_SUITE:
        for c in C_VALUES:
            for n in KERNEL_N_VALUES:
                schedule = compile_kernel(
                    get_kernel(kernel), ProcessorConfig(c, n)
                )
                for items in KERNEL_WORK_ITEMS:
                    points[f"{kernel}@{c}x{n}/{items}"] = first_call_cycles(
                        schedule, items
                    )
    return points


def variant_points() -> dict:
    points = {}
    for label, app, c, n, clock, node, r_uc in VARIANTS:
        params = IMAGINE_PARAMETERS
        if r_uc is not None:
            params = dataclasses.replace(params, r_uc=r_uc)
        result = simulate(
            get_application(app),
            ProcessorConfig(c, n, params=params),
            node=NODES[node],
            clock_ghz=clock,
        )
        points[label] = result_fields(result)
    return points


def partitioned_points() -> dict:
    points = {}
    for label, app, c, n, processors in PARTITIONED:
        run = simulate_partitioned(
            get_application(app), ProcessorConfig(c, n), processors
        )
        points[label] = {
            "stage_cycles": list(run.stage_cycles),
            "glue_words": run.glue_words,
            "batches": run.batches,
            "cycles": run.cycles,
        }
    return points


def instrumented_texts(app: str, c: int, n: int):
    """The Chrome-trace JSON and the serialized metrics snapshot of one
    traced, metered run."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = simulate(
        get_application(app), ProcessorConfig(c, n),
        tracer=tracer, metrics=metrics,
    )
    snapshot = json.dumps({
        "entries": [[e.name, e.kind, e.value] for e in result.metrics.entries],
        "warnings": list(result.metrics.warnings),
    })
    return tracer.to_chrome_json(), snapshot


def byte_exact_points() -> dict:
    points = {}
    for label, app, c, n in BYTE_EXACT:
        trace, snapshot = instrumented_texts(app, c, n)
        points[label] = {
            "trace_bytes": len(trace),
            "trace_sha256": _sha256(trace),
            "metrics_sha256": _sha256(snapshot),
            "metrics": json.loads(snapshot),
        }
    return points


def _whole(entry):
    return entry


#: Check name -> (golden section, compute, projection of the golden
#: entries onto what the check computes).
SECTIONS = {
    "applications": ("applications", application_points, _whole),
    "engine_records": (
        "applications", lambda: engine_points("simulated"), _whole,
    ),
    "engine_totals": (
        "applications", lambda: engine_points("analytical"), scalar_fields,
    ),
    "kernel_calls": ("kernel_calls", kernel_call_points, _whole),
    "variants": ("variants", variant_points, _whole),
    "partitioned": ("partitioned", partitioned_points, _whole),
    "byte_exact": ("byte_exact", byte_exact_points, _whole),
}


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def expected(golden: dict, check: str) -> dict:
    """The golden entries ``check`` must reproduce."""
    section, _, project = SECTIONS[check]
    return {key: project(entry) for key, entry in golden[section].items()}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def _mismatches(expected: dict, actual: dict) -> list:
    return sorted(
        key for key in set(expected) | set(actual)
        if expected.get(key) != actual.get(key)
    )


class TestGoldenTable:
    def test_grid_sizes(self, golden):
        assert len(golden["applications"]) == 90
        assert len(golden["kernel_calls"]) == 360
        assert len(golden["partitioned"]) == 2
        assert len(golden["byte_exact"]) == 2

    def test_spill_point_really_spills(self, golden):
        """Guard the byte-exact pair: one must spill, one must not."""
        assert golden["applications"]["fft4k@8x5"]["spill_words"] > 0
        assert golden["applications"]["depth@32x10"]["spill_words"] == 0

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_section_exact(self, golden, section):
        actual = SECTIONS[section][1]()
        assert _mismatches(expected(golden, section), actual) == []


def main() -> int:
    golden = load_golden()
    total = exact = 0
    for check, (_, compute, _) in SECTIONS.items():
        wanted = expected(golden, check)
        bad = _mismatches(wanted, compute())
        total += len(wanted)
        exact += len(wanted) - len(bad)
        for key in bad:
            print(f"MISMATCH {check}/{key}", file=sys.stderr)
    print(f"golden: {exact}/{total} points exact")
    return 0 if exact == total else 1


if __name__ == "__main__":
    sys.exit(main())
