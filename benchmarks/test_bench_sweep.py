"""Full-grid sweep wall time in both modes, against absolute floors.

One cached entry to the timing engine answers both modes, so the
grid's two passes differ only in what they return: ``simulated``
attaches a recorder and builds every point's per-op records,
``analytical`` returns totals.  Both read the summaries and tables
cached across the grid.  Each pass must stay under an absolute
wall-time floor for the 90-point grid (every suite application on the
Table-5 cluster counts and Figure-15 ALU counts), and the two must
agree cycle for cycle.  The ratio between them is printed and
recorded, never gated: a ratio punishes speeding up either side.

Both modes run on fresh engines with warm compile caches (the grid
pays kernel compilation once, ever).  The analytical pass is timed
twice — with cold summary caches (reported) and warm (gated).  Set
``REPRO_BENCH_SWEEP_OUT=PATH`` to append the measured trajectory point
as one compact envelope line — the same format CI publishes as
``BENCH_sweep.json``, mirroring ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import perf_floor, run_once

from repro.analysis.model import clear_summary_cache
from repro.analysis.perf import FIG15_N_VALUES, TABLE5_C_VALUES
from repro.analysis.sweep import SweepEngine
from repro.apps.suite import APPLICATION_ORDER
from repro.core.config import ProcessorConfig
from repro.obs.manifest import build_envelope

#: The grid both backends answer: 6 applications x 5 cluster counts
#: x 3 ALU counts = 90 points (the union of the Figure-15 sweep and
#: Table 5's cluster axis).
GRID = [
    (application, ProcessorConfig(c, n))
    for application in APPLICATION_ORDER
    for c in TABLE5_C_VALUES
    for n in FIG15_N_VALUES
]


def _sweep_seconds(mode: str) -> tuple:
    """Answer the full grid on a fresh engine; (seconds, results)."""
    engine = SweepEngine()
    started = time.perf_counter()
    results = engine.simulate_many(GRID, mode=mode)
    return time.perf_counter() - started, results


#: Wall-time floors (seconds) for the 90-point grid, as
#: ``(strict, relaxed)`` for :func:`perf_floor`.  Set from a shared
#: 2-core VM (Python 3.11): there the simulated pass took 0.46-0.59 s,
#: the warm analytical pass 16-29 ms and the cold one 63-113 ms.  The
#: separate simulator this engine replaced took 3.2-4.3 s for the
#: simulated pass on the same VM; its analytical cold pass, 76-153 ms.
SIMULATED_FLOOR_S = (0.75, 1.5)
ANALYTICAL_FLOOR_S = (0.04, 0.08)


def test_sweep_analytical_vs_simulated(benchmark, archive):
    """Both modes answer the full grid under their absolute wall-time
    floors and agree point-by-point."""
    # Warm the persistent compile caches once for both passes.
    _sweep_seconds("analytical")
    simulated_s, simulated = _sweep_seconds("simulated")
    clear_summary_cache()
    analytical_cold_s, _ = _sweep_seconds("analytical")
    analytical_s, analytical = run_once(benchmark, _sweep_seconds,
                                        "analytical")

    for (application, config), sim, model in zip(
        GRID, simulated, analytical
    ):
        assert model.cycles == sim.cycles, (
            f"{application} C={config.clusters} N={config.alus_per_cluster}: "
            f"totals {model.cycles} vs records {sim.cycles} cycles"
        )
        assert len(sim.records) > 0 and model.records == ()

    points = len(GRID)
    ratio = simulated_s / analytical_s
    data = {
        "bench_version": 2,
        "grid_points": points,
        "simulated_s": round(simulated_s, 6),
        "analytical_s": round(analytical_s, 6),
        "analytical_cold_s": round(analytical_cold_s, 6),
        "simulated_points_per_s": round(points / simulated_s, 3),
        "analytical_points_per_s": round(points / analytical_s, 3),
        "speedup": round(ratio, 3),
    }
    archive(
        f"Full-grid sweep ({points} application points: "
        f"{len(APPLICATION_ORDER)} apps x C{list(TABLE5_C_VALUES)} "
        f"x N{list(FIG15_N_VALUES)})\n"
        f"  simulated:         {simulated_s * 1e3:10.1f} ms "
        f"({points / simulated_s:10.1f} points/s)\n"
        f"  analytical (cold): {analytical_cold_s * 1e3:10.1f} ms\n"
        f"  analytical (warm): {analytical_s * 1e3:10.1f} ms "
        f"({points / analytical_s:10.1f} points/s)\n"
        f"  ratio:             {ratio:10.1f}x (reported, not gated)"
    )

    out = os.environ.get("REPRO_BENCH_SWEEP_OUT", "").strip()
    if out:
        envelope = build_envelope("bench-sweep", data=data)
        with open(out, "a") as handle:
            handle.write(json.dumps(
                envelope, sort_keys=True, separators=(",", ":")
            ) + "\n")

    simulated_floor = perf_floor(*SIMULATED_FLOOR_S)
    analytical_floor = perf_floor(*ANALYTICAL_FLOOR_S)
    assert simulated_s <= simulated_floor, (
        f"simulated grid took {simulated_s:.3f} s "
        f"(floor {simulated_floor} s)"
    )
    assert analytical_s <= analytical_floor, (
        f"analytical grid took {analytical_s * 1e3:.1f} ms "
        f"(floor {analytical_floor * 1e3:.0f} ms)"
    )
