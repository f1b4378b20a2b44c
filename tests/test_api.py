"""The typed ``repro.api`` facade: round-trips, strictness, dispatch.

The facade is the single schema both the CLI's ``--json`` output and
the serving daemon speak, so these tests pin down the properties the
other surfaces rely on: canonical serialization (dedup keys), strict
parsing (remote callers get real errors, not silent defaults), and
runner results that match the underlying library exactly.
"""

import json

import pytest

from repro.api import (
    API_VERSION,
    ApiError,
    CompileRequest,
    CostQuery,
    CostResult,
    REQUEST_KINDS,
    SimulateRequest,
    SimulateResult,
    SweepRequest,
    dedup_key,
    execute,
    request_from_dict,
    run_compile,
    run_cost_query,
    run_simulate,
    run_sweep,
    validate_request,
)


class TestRoundTrips:
    CASES = (
        CostQuery(16, 10),
        CompileRequest("fft", 8, 5),
        SimulateRequest("fft1k", 8, 5, 1.5, 2_000_000),
        SimulateRequest("fft1k", 8, 5, mode="analytical"),
        SweepRequest("table5", apps=False, kernel="fft"),
        SweepRequest("fig13", mode="analytical"),
    )

    @pytest.mark.parametrize("request_obj", CASES, ids=lambda r: type(r).__name__)
    def test_json_round_trip(self, request_obj):
        cls = type(request_obj)
        assert cls.from_json(request_obj.to_json()) == request_obj

    @pytest.mark.parametrize("request_obj", CASES, ids=lambda r: type(r).__name__)
    def test_canonical_serialization(self, request_obj):
        # Sorted keys + compact separators: the exact property the
        # daemon's dedup keys and byte-identity tests rest on.
        text = request_obj.to_json()
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )

    def test_dedup_key_distinguishes_kinds(self):
        # Same field values, different request types: must not collide.
        assert dedup_key(CostQuery(8, 5)) != dedup_key(
            CompileRequest("fft", 8, 5)
        )

    def test_dedup_key_equal_for_equal_requests(self):
        assert dedup_key(SimulateRequest("depth")) == dedup_key(
            SimulateRequest("depth")
        )


class TestStrictParsing:
    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError, match="unknown field"):
            CostQuery.from_dict({"clusters": 8, "aluss": 5})

    def test_non_object_rejected(self):
        with pytest.raises(ApiError, match="expected a JSON object"):
            CostQuery.from_dict([1, 2])

    def test_invalid_json_rejected(self):
        with pytest.raises(ApiError, match="invalid JSON"):
            CostQuery.from_json("{nope")

    def test_int_coerced_to_float_field(self):
        request = SimulateRequest.from_dict(
            {"application": "fft1k", "clock_ghz": 2}
        )
        assert isinstance(request.clock_ghz, float)
        assert request.clock_ghz == 2.0

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(ApiError, match="clusters"):
            CostQuery(0, 5).validate()
        with pytest.raises(ApiError, match="kernel name"):
            CompileRequest("").validate()
        with pytest.raises(ApiError, match="clock_ghz"):
            SimulateRequest("fft1k", clock_ghz=0.0).validate()
        with pytest.raises(ApiError, match="target"):
            SweepRequest("fig99").validate()

    def test_validate_request_checks_names(self):
        with pytest.raises(ApiError, match="unknown kernel"):
            validate_request(CompileRequest("doom"))
        with pytest.raises(ApiError, match="unknown application"):
            validate_request(SimulateRequest("doom"))

    def test_request_from_dict_dispatch(self):
        request = request_from_dict("costs", {"clusters": 4, "alus": 3})
        assert request == CostQuery(4, 3)
        with pytest.raises(ApiError, match="unknown request kind"):
            request_from_dict("frobnicate", {})

    def test_request_kinds_cover_every_runner(self):
        assert set(REQUEST_KINDS) == {
            "costs", "compile", "simulate", "sweep", "kernels"
        }


class TestRunners:
    def test_cost_query_matches_cost_model(self):
        from repro.core import CostModel, ProcessorConfig

        result = run_cost_query(CostQuery(8, 5))
        model = CostModel(ProcessorConfig(8, 5))
        assert result.area_total == model.area().total
        assert result.energy_per_alu_op == model.energy_per_alu_op()
        assert result.total_alus == 40
        assert result.config_description == "C=8 N=5 (40 ALUs)"
        # Result payloads survive their own round-trip.
        assert CostResult.from_json(result.to_json()) == result

    def test_compile_matches_pipeline(self):
        from repro.compiler import compile_kernel
        from repro.core import ProcessorConfig
        from repro.kernels import get_kernel

        result = run_compile(CompileRequest("fft", 8, 5))
        schedule = compile_kernel(get_kernel("fft"), ProcessorConfig(8, 5))
        assert result.ii == schedule.ii
        assert result.ops_per_cycle == schedule.ops_per_cycle()

    def test_simulate_matches_simulator(self):
        result = run_simulate(SimulateRequest("fft1k", 8, 5))
        assert result.cycles > 0
        assert result.application == "fft1k"
        assert set(result.bandwidth) == {
            "lrf_words", "srf_words", "memory_words", "locality_fraction"
        }
        # Repeat query: deterministic, so payloads are byte-identical
        # (this is the dedup/memo correctness contract).
        again = run_simulate(SimulateRequest("fft1k", 8, 5))
        assert again.to_json() == result.to_json()

    def test_simulate_result_round_trip(self):
        result = run_simulate(SimulateRequest("fft1k", 8, 5))
        assert SimulateResult.from_json(result.to_json()) == result

    def test_sweep_table5_rows(self):
        result = run_sweep(SweepRequest("table5"))
        assert result.target == "table5"
        assert all(
            set(row) == {"clusters", "alus", "perf_per_area"}
            for row in result.rows
        )
        assert all(row["perf_per_area"] > 0 for row in result.rows)
        assert any(
            row["clusters"] == 8 and row["alus"] == 5 for row in result.rows
        )

    def test_execute_dispatches(self):
        assert execute(CostQuery(8, 5)) == run_cost_query(CostQuery(8, 5))
        with pytest.raises(ApiError, match="not an API request"):
            execute("costs")  # type: ignore[arg-type]

    def test_api_version_is_four(self):
        # 2: requests grew the ``mode`` field.  3: SimulateResult grew
        # the raw busy-cycle fields cluster workers ship back.
        # 4: kernel registration (RegisterKernelRequest/KernelRef) and
        # SweepRequest.kernel.  5: the async job surface (/v1/jobs),
        # the canonical /v1/sweeps route, and error-envelope pointers.
        # 6: SweepRequest.workers and the /v1/sweep alias removed.
        assert API_VERSION == 6

    def test_sweep_workers_field_is_gone(self):
        # API v6: sweeps run in the answering process; a v5 payload
        # that still sends ``workers`` is told so, not silently obeyed.
        with pytest.raises(ApiError, match="unknown field.*workers"):
            SweepRequest.from_dict({"target": "fig13", "workers": 2})


class TestExecutionModes:
    """The ``mode`` field: strict validation and backend equivalence."""

    def test_mode_round_trips(self):
        request = SweepRequest("fig13", mode="analytical")
        assert SweepRequest.from_json(request.to_json()) == request
        assert json.loads(request.to_json())["mode"] == "analytical"

    def test_unknown_mode_names_allowed_modes(self):
        from repro.api import SWEEP_MODES

        for cls, kwargs in (
            (SweepRequest, {"target": "fig13"}),
            (SimulateRequest, {"application": "fft1k"}),
        ):
            with pytest.raises(ApiError) as excinfo:
                cls(mode="oracular", **kwargs).validate()
            message = str(excinfo.value)
            assert "oracular" in message
            for mode in SWEEP_MODES:
                assert mode in message

    def test_unknown_mode_rejected_from_json(self):
        with pytest.raises(ApiError, match="allowed modes"):
            execute(SweepRequest.from_dict(
                {"target": "fig13", "mode": "oracular"}
            ))

    def test_dedup_key_distinguishes_modes(self):
        assert dedup_key(SweepRequest("fig13")) != dedup_key(
            SweepRequest("fig13", mode="analytical")
        )

    def test_analytical_max_events_rejected(self):
        # max_events budgets the event loop; the model has none.
        with pytest.raises(ApiError, match="max_events"):
            SimulateRequest(
                "fft1k", max_events=1_000_000, mode="analytical"
            ).validate()

    def test_analytical_simulate_matches_simulated(self):
        simulated = run_simulate(SimulateRequest("fft1k", 8, 5))
        analytical = run_simulate(
            SimulateRequest("fft1k", 8, 5, mode="analytical")
        )
        assert analytical.to_json() == simulated.to_json()

    @pytest.mark.parametrize("target", ("fig13", "fig14", "table5"))
    def test_analytical_sweep_matches_simulated(self, target):
        simulated = run_sweep(SweepRequest(target))
        analytical = run_sweep(SweepRequest(target, mode="analytical"))
        assert analytical.rows == simulated.rows
        assert analytical.to_json() == simulated.to_json()
