"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same inputs, and nothing here imports the program under test, so the
inputs cannot depend on the code being measured.  Samples are
stratified (per application over C and N, one config per ALU count)
so that every seed costs about the same host time.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: The six Figure-15 applications.
APPLICATIONS = ("render", "depth", "conv", "qrd", "fft1k", "fft4k")
#: Cluster counts C of the domain.
CLUSTERS = (8, 16, 24, 32, 48, 64, 96, 128)
#: ALUs per cluster N of the domain.  It starts at 5 because ``qrd`` and
#: ``fft4k`` overflow the SRF at C=8 with N<=4.
ALUS = tuple(range(5, 17))
#: Every (C, N) config of the domain.
DOMAIN = tuple((c, n) for c in CLUSTERS for n in ALUS)
#: The seven suite kernels (compile requests).
SUITE_KERNELS = (
    "blocksad", "convolve", "update", "fft", "dct", "noise", "irast",
)
#: The six kernels the Figure-13/14 and Table-5 studies cover.
STUDY_KERNELS = ("blocksad", "convolve", "update", "fft", "noise", "irast")
#: Sweep targets the served and job workloads use (analytical mode).
SWEEP_TARGETS = ("table5", "fig13", "fig14")

Config = Tuple[int, int]
Request = Tuple[str, Dict]


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def in_domain(clusters: int, alus: int) -> bool:
    """True when ``(C, N)`` lies in the benchmark's design-space domain."""
    return clusters in CLUSTERS and alus in ALUS


#: Applications whose points take 30-200 ms of host time, and those
#: that take 2-5 ms.
LONG_APPLICATIONS = ("render", "depth", "qrd")
SHORT_APPLICATIONS = ("conv", "fft1k", "fft4k")
#: N strata of a long application: at every C it draws one N from each
#: half of the ALU range.
LONG_ALU_STRATA = (tuple(range(5, 11)), tuple(range(11, 17)))
#: N strata of a short application, and the configs drawn from each.
SHORT_ALU_STRATA = ((5, 6, 7), (8, 9, 10), (11, 12, 13), (14, 15, 16))
SHORT_PER_STRATUM = 5


def sim_grid_points(seed: int) -> List[Tuple[str, int, int]]:
    """108 (application, C, N) points, stratified per application.

    A long application gets every cluster count twice, with one N from
    each half of the ALU range (16 points); a short one gets five
    distinct configs from each of four N strata (20 points).  Host time
    depends on the application and on (C, N), so the fixed strata keep
    the cost of every seed about the same while the seed still picks
    the points.  The counts also keep the percentiles of point latency
    away from the gaps between applications, where the sampled configs
    would move them: the median lies among the short applications
    (2-5 ms a point, nearly flat over the domain) and the 75th
    percentile among the lower ``depth`` points, past ``render``.
    """
    rng = _rng("sim-grid", seed)
    points = []
    for app in APPLICATIONS:
        if app in LONG_APPLICATIONS:
            for c in CLUSTERS:
                points.extend((app, c, rng.choice(stratum))
                              for stratum in LONG_ALU_STRATA)
        else:
            for stratum in SHORT_ALU_STRATA:
                configs = [(c, n) for c in CLUSTERS for n in stratum]
                points.extend((app, c, n) for c, n in
                              rng.sample(configs, SHORT_PER_STRATUM))
    return points


#: Explorations in one dse-analytical rep.
DSE_EXPLORATIONS = 4


def dse_explorations(seed: int) -> List[List[Config]]:
    """``DSE_EXPLORATIONS`` explorations of one (C, N) config per ALU
    count N each, in order of N.

    Cold-compile time depends mostly on N, so one config per N keeps
    the work of an exploration about equal across seeds, and several
    explorations per rep average out the part that depends on C.  One
    config per N also keeps configs from sharing schedules on disk,
    which a sample with repeated N would do by chance.  Every C appears
    at least once in every exploration.  The order is fixed because the
    first config also builds the program summaries.
    """
    rng = _rng("dse-analytical", seed)
    explorations = []
    for _ in range(DSE_EXPLORATIONS):
        clusters = list(CLUSTERS) + rng.sample(
            CLUSTERS, len(ALUS) - len(CLUSTERS)
        )
        rng.shuffle(clusters)
        explorations.append(list(zip(clusters, ALUS)))
    return explorations


def serve_mixed_pool(seed: int, registered_ref: str) -> List[Request]:
    """The distinct requests of the served mix, as ``(kind, body)``.

    The kind counts are fixed; the seed picks distinct configs, kernels
    and applications.  ``registered_ref`` is the ``kernel:<hash>``
    reference of the kernel registered during set-up.
    """
    rng = _rng("serve-mixed", seed)
    configs = iter(rng.sample(DOMAIN, 8 + 8 + len(APPLICATIONS)))
    pool: List[Request] = []
    for _ in range(8):
        c, n = next(configs)
        pool.append(("costs", {"clusters": c, "alus": n}))
    kernels = list(rng.sample(SUITE_KERNELS, 6)) + [registered_ref] * 2
    for kernel in kernels:
        c, n = next(configs)
        pool.append(("compile", {"kernel": kernel, "clusters": c, "alus": n}))
    for app in APPLICATIONS:
        c, n = next(configs)
        pool.append(("simulate", {
            "application": app, "clusters": c, "alus": n,
            "mode": "analytical",
        }))
    for app, c, n in sim_points_to_warm(seed):
        pool.append(("simulate", {
            "application": app, "clusters": c, "alus": n,
            "mode": "simulated",
        }))
    for target in ("table5", "fig13"):
        for kernel in rng.sample(STUDY_KERNELS, 2):
            pool.append(("sweep", {
                "target": target, "mode": "analytical", "kernel": kernel,
            }))
    return pool


def sim_points_to_warm(seed: int) -> List[Tuple[str, int, int]]:
    """The few cycle-accurate points the served mix repeats (warmed
    during set-up, so they are memo hits in the measured window)."""
    rng = _rng("serve-mixed-sim", seed)
    apps = rng.sample(APPLICATIONS, 2)
    return [(app, rng.choice(CLUSTERS), rng.choice(ALUS)) for app in apps]


def job_pool(seed: int, size: int = 9) -> List[Dict]:
    """Distinct analytical sweep jobs: ``size // 3`` per target."""
    rng = _rng("serve-jobs", seed)
    jobs = []
    for target in SWEEP_TARGETS:
        for kernel in rng.sample(STUDY_KERNELS, size // len(SWEEP_TARGETS)):
            jobs.append({"target": target, "mode": "analytical",
                         "kernel": kernel})
    return jobs


def request_order(seed: int, pool_size: int, client: int,
                  length: int) -> List[int]:
    """Indices into a request pool for one closed-loop client.

    Whole seeded permutations of the pool are concatenated, so every
    request appears equally often and the kind mix stays fixed.
    """
    rng = _rng(f"order-{client}", seed)
    order: List[int] = []
    while len(order) < length:
        block = list(range(pool_size))
        rng.shuffle(block)
        order.extend(block)
    return order[:length]

