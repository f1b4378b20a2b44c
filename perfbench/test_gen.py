"""Tests of the seeded input generators (``python3 -m pytest perfbench``)."""

import json
from pathlib import Path

import pytest

import gen
from metrics import END_TO_END, LAYERS
from run import WORKLOAD_ORDER

SEEDS = range(1, 21)
REF = "kernel:" + "ab" * 32


def _all_inputs(seed):
    return {
        "sim": gen.sim_grid_points(seed),
        "dse": gen.dse_explorations(seed),
        "mixed": gen.serve_mixed_pool(seed, REF),
        "warm": gen.sim_points_to_warm(seed),
        "jobs": gen.job_pool(seed),
        "order": gen.request_order(seed, 24, 0, 100),
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_same_inputs(seed):
    assert _all_inputs(seed) == _all_inputs(seed)


@pytest.mark.parametrize("name", ["sim", "dse", "mixed", "warm", "jobs", "order"])
def test_different_seeds_different_inputs(name):
    distinct = {json.dumps(_all_inputs(seed)[name]) for seed in SEEDS}
    assert len(distinct) == len(SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_sim_grid_in_domain_and_stratified(seed):
    points = gen.sim_grid_points(seed)
    assert len(set(points)) == len(points) == 108
    assert all(gen.in_domain(c, n) for _, c, n in points)
    for app in gen.LONG_APPLICATIONS:
        for c in gen.CLUSTERS:
            alus = sorted(n for a, c2, n in points if (a, c2) == (app, c))
            assert len(alus) == len(gen.LONG_ALU_STRATA)
            assert all(n in s for n, s in zip(alus, gen.LONG_ALU_STRATA))
    for app in gen.SHORT_APPLICATIONS:
        alus = [n for a, _, n in points if a == app]
        for stratum in gen.SHORT_ALU_STRATA:
            assert sum(n in stratum for n in alus) == gen.SHORT_PER_STRATUM


@pytest.mark.parametrize("seed", SEEDS)
def test_dse_one_config_per_alu_count(seed):
    explorations = gen.dse_explorations(seed)
    assert len(explorations) == gen.DSE_EXPLORATIONS
    for configs in explorations:
        assert all(gen.in_domain(c, n) for c, n in configs)
        assert [n for _, n in configs] == list(gen.ALUS)
        assert set(c for c, _ in configs) == set(gen.CLUSTERS)


@pytest.mark.parametrize("seed", SEEDS)
def test_serve_pool_fixed_mix_in_domain(seed):
    pool = gen.serve_mixed_pool(seed, REF)
    kinds = [kind for kind, _ in pool]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "costs": 8, "compile": 8, "simulate": 8, "sweep": 4,
    }
    assert len({json.dumps(p, sort_keys=True) for p in pool}) == len(pool)
    for kind, body in pool:
        if "clusters" in body:
            assert gen.in_domain(body["clusters"], body["alus"])
        if kind == "compile":
            assert body["kernel"] in gen.SUITE_KERNELS or body["kernel"] == REF
        if kind == "simulate":
            assert body["application"] in gen.APPLICATIONS
        if kind == "sweep":
            assert body["mode"] == "analytical"
            assert body["kernel"] in gen.STUDY_KERNELS
    assert sum(body.get("kernel") == REF for _, body in pool) == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_job_pool_balanced_over_targets(seed):
    jobs = gen.job_pool(seed)
    assert [j["target"] for j in jobs].count("table5") == len(jobs) // 3
    assert len({json.dumps(j, sort_keys=True) for j in jobs}) == len(jobs)
    assert all(j["kernel"] in gen.STUDY_KERNELS for j in jobs)


def test_request_order_visits_pool_evenly():
    order = gen.request_order(3, 7, 1, 70)
    assert sorted(order) == sorted(list(range(7)) * 10)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).parent.parent / "BENCHMARK.json")
                      .read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_ORDER)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(LAYERS)
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert (metric["unit"], metric["better"]) == LAYERS[metric["name"]][:2]
