"""Stable, typed public facade over the repro library.

Every externally consumable query the toolchain answers — cost-model
evaluations, kernel compiles, application simulations, figure/table
sweeps — is expressed as one frozen request dataclass here, paired with
a frozen result dataclass, and executed by one ``run_*`` function.  The
CLI commands and the serving daemon (:mod:`repro.serve`) both consume
this module verbatim, so the two surfaces cannot drift: a JSON payload
produced by ``python -m repro ... --json`` or by an HTTP endpoint is
exactly ``result.to_dict()`` of the same dataclass a library caller
receives.

Design rules
------------
* Requests and results are **frozen dataclasses of JSON-native values**
  (ints, floats, strings, dicts, lists) with ``to_json()/from_json()``
  round-trips.  ``to_json()`` is canonical (sorted keys, compact
  separators) so identical queries serialize to identical bytes —
  the serving daemon's deduplication keys on it.
* This module imports **nothing heavy at the top level**: numpy, the
  simulator and the analysis grids load only when a ``run_*`` function
  executes, so ``from repro.api import SimulateRequest`` is cheap
  enough for thin clients.
* Results are **deterministic**: no wall-clock times, hostnames or pids
  ever appear in a result payload (volatile context belongs in an
  envelope's ``meta``, see :func:`repro.obs.manifest.build_envelope`),
  which is what makes byte-identity between surfaces testable.

The version of this surface is :data:`API_VERSION`; it is bumped
whenever a field is added, removed, or changes meaning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

__all__ = [
    "API_VERSION",
    "JOB_STATES",
    "SWEEP_MODES",
    "ApiError",
    "CompileRequest",
    "CompileResult",
    "CostQuery",
    "CostResult",
    "JobRequest",
    "JobResult",
    "JobStatus",
    "KernelRef",
    "REQUEST_KINDS",
    "RegisterKernelRequest",
    "SimulateRequest",
    "SimulateResult",
    "SweepRequest",
    "SweepResult",
    "dedup_key",
    "execute",
    "request_from_dict",
    "run_compile",
    "run_cost_query",
    "run_register",
    "run_simulate",
    "run_sweep",
    "safe_execute",
    "validate_request",
]

#: Bumped whenever a request or result field is added, removed, or
#: changes meaning.  v4 added registered kernels: the ``kernels``
#: request kind (RegisterKernelRequest -> KernelRef), ``kernel:<hash>``
#: references in compile/simulate requests, and SweepRequest.kernel.
#: v5 added the async job surface (JobRequest/JobStatus/JobResult,
#: ``/v1/jobs``), made ``/v1/sweeps`` the canonical sweep route (the
#: singular alias answers with a ``Deprecation`` header for one
#: version), and gave every error envelope an optional RFC 6901
#: ``pointer`` alongside its stable ``code``.  v6 removed
#: ``SweepRequest.workers`` (every sweep runs in the answering process)
#: and the singular ``/v1/sweep`` route; ``mode`` is still accepted.
API_VERSION = 6

#: Sweep targets :func:`run_sweep` understands.
SWEEP_TARGETS = ("fig13", "fig14", "table5", "fig15", "headline")

#: Modes simulate/sweep requests accept: ``simulated`` (totals plus
#: per-op records) or ``analytical`` (totals only) — one engine, the
#: same numbers; kept in API v6, and in the application-point memo and
#: checkpoint keys, so the two result shapes never alias (kernel
#: studies ignore it).  Mirrors
#: :data:`repro.analysis.model.EXECUTION_MODES` (asserted by the test
#: suite) without importing the heavy analysis stack at request-build
#: time.
SWEEP_MODES = ("simulated", "analytical")


class ApiError(ValueError):
    """A request is malformed or names an unknown kernel/application."""


def _canonical(data: Any) -> str:
    """Canonical JSON: sorted keys, compact separators, stable bytes."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class _Payload:
    """Shared ``to/from_json`` plumbing for requests and results.

    ``from_dict`` is strict: unknown keys and missing required keys
    raise :class:`ApiError` so a typo'd field never silently becomes a
    default — the error message is the contract a remote caller debugs
    against.
    """

    def to_dict(self) -> Dict[str, Any]:
        """The payload as a plain JSON-native dictionary."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = [dict(v) if isinstance(v, dict) else v for v in value]
            elif isinstance(value, dict):
                value = dict(value)
            out[spec.name] = value
        return out

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact): stable across runs."""
        return _canonical(self.to_dict())

    @classmethod
    def from_dict(cls, data: Any) -> "_Payload":
        """Parse a dictionary strictly; raises :class:`ApiError`."""
        if not isinstance(data, dict):
            raise ApiError(
                f"{cls.__name__}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        specs = {spec.name: spec for spec in fields(cls)}
        unknown = sorted(set(data) - set(specs))
        if unknown:
            raise ApiError(
                f"{cls.__name__}: unknown field(s) {', '.join(unknown)}"
            )
        kwargs: Dict[str, Any] = {}
        for name, spec in specs.items():
            if name in data:
                value = data[name]
                if spec.type in ("float", "Optional[float]") and isinstance(
                    value, int
                ) and not isinstance(value, bool):
                    value = float(value)
                if isinstance(value, list):
                    value = tuple(
                        dict(v) if isinstance(v, dict) else v for v in value
                    )
                kwargs[name] = value
        try:
            instance = cls(**kwargs)
        except TypeError as exc:
            raise ApiError(f"{cls.__name__}: {exc}") from None
        return instance

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "_Payload":
        """Parse canonical (or any) JSON text; raises :class:`ApiError`."""
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ApiError(f"{cls.__name__}: invalid JSON ({exc})") from None
        return cls.from_dict(data)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ApiError(message)


def _check_mode(mode: Any, who: str) -> None:
    _require(
        mode in SWEEP_MODES,
        f"{who}: unknown mode {mode!r}; "
        f"allowed modes: {', '.join(SWEEP_MODES)}",
    )


def _check_config(clusters: Any, alus: Any, who: str) -> None:
    _require(
        isinstance(clusters, int) and not isinstance(clusters, bool)
        and clusters >= 1,
        f"{who}: clusters must be an integer >= 1",
    )
    _require(
        isinstance(alus, int) and not isinstance(alus, bool) and alus >= 1,
        f"{who}: alus must be an integer >= 1",
    )


# --- requests -----------------------------------------------------------


@dataclass(frozen=True)
class CostQuery(_Payload):
    """Evaluate the VLSI cost model at one ``(C, N)`` design point."""

    clusters: int = 8
    alus: int = 5

    def validate(self) -> None:
        """Raise :class:`ApiError` unless the query is well-formed."""
        _check_config(self.clusters, self.alus, "CostQuery")


@dataclass(frozen=True)
class CompileRequest(_Payload):
    """Compile one suite kernel for one ``(C, N)`` configuration."""

    kernel: str = ""
    clusters: int = 8
    alus: int = 5

    def validate(self) -> None:
        """Raise :class:`ApiError` unless the request is well-formed."""
        _require(
            isinstance(self.kernel, str) and bool(self.kernel),
            "CompileRequest: kernel name is required",
        )
        _check_config(self.clusters, self.alus, "CompileRequest")


@dataclass(frozen=True)
class SimulateRequest(_Payload):
    """Simulate one application on one ``(C, N)`` configuration.

    One timing engine answers both ``mode`` values with the same
    numbers: ``"simulated"`` (the default) also records the per-op
    timeline, ``"analytical"`` returns totals only.  ``max_events``
    bounds the recorded run's completion replay (one event per op), so
    it is only meaningful with ``mode="simulated"``.
    """

    application: str = ""
    clusters: int = 8
    alus: int = 5
    clock_ghz: float = 1.0
    #: ``None`` uses the simulator's default livelock budget.
    max_events: Optional[int] = None
    mode: str = "simulated"

    def validate(self) -> None:
        """Raise :class:`ApiError` unless the request is well-formed."""
        _require(
            isinstance(self.application, str) and bool(self.application),
            "SimulateRequest: application name is required",
        )
        _check_config(self.clusters, self.alus, "SimulateRequest")
        _require(
            isinstance(self.clock_ghz, (int, float))
            and not isinstance(self.clock_ghz, bool)
            and self.clock_ghz > 0,
            "SimulateRequest: clock_ghz must be > 0",
        )
        _require(
            self.max_events is None
            or (isinstance(self.max_events, int)
                and not isinstance(self.max_events, bool)
                and self.max_events >= 1),
            "SimulateRequest: max_events must be None or an integer >= 1",
        )
        _check_mode(self.mode, "SimulateRequest")
        _require(
            not (self.mode == "analytical" and self.max_events is not None),
            "SimulateRequest: max_events budgets the recorded run and "
            "cannot be combined with mode='analytical'",
        )


@dataclass(frozen=True)
class SweepRequest(_Payload):
    """Regenerate one figure/table study as structured rows.

    ``target`` is one of :data:`SWEEP_TARGETS`; ``apps`` additionally
    runs the (slower) application simulations where the target supports
    them (``headline``); ``mode`` (:data:`SWEEP_MODES`) chooses per-op
    records or totals only for application points — the rows are
    identical.
    """

    target: str = ""
    apps: bool = False
    mode: str = "simulated"
    #: Restrict a kernel study (fig13/fig14/table5) to one kernel — a
    #: suite name or a registered ``kernel:<hash>`` reference.  Empty
    #: means the full performance suite.
    kernel: str = ""

    def validate(self) -> None:
        """Raise :class:`ApiError` unless the request is well-formed."""
        _require(
            self.target in SWEEP_TARGETS,
            f"SweepRequest: target must be one of {', '.join(SWEEP_TARGETS)}",
        )
        _require(
            isinstance(self.apps, bool),
            "SweepRequest: apps must be a boolean",
        )
        _check_mode(self.mode, "SweepRequest")
        _require(
            isinstance(self.kernel, str),
            "SweepRequest: kernel must be a string",
        )
        _require(
            not self.kernel or self.target in ("fig13", "fig14", "table5"),
            "SweepRequest: kernel only applies to the kernel studies "
            "(fig13, fig14, table5)",
        )


@dataclass(frozen=True)
class RegisterKernelRequest(_Payload):
    """Register one kernel document (see :mod:`repro.frontend`).

    ``document`` is a schema-versioned JSON DFG; registration
    validates it (every rejection names a JSON pointer and a stable
    error code), canonicalizes it, and stores it under the SHA-256 of
    the canonical bytes.  Idempotent: re-registering the same content
    returns the same :class:`KernelRef`.
    """

    document: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`ApiError` unless the request is well-formed."""
        _require(
            isinstance(self.document, dict) and bool(self.document),
            "RegisterKernelRequest: document must be a non-empty "
            "JSON object",
        )


# --- results ------------------------------------------------------------


@dataclass(frozen=True)
class CostResult(_Payload):
    """Area/energy/delay/feasibility of one design point (paper Table 3)."""

    clusters: int = 0
    alus: int = 0
    total_alus: int = 0
    #: Whole-chip area by component, in grids.
    area: Dict[str, float] = field(default_factory=dict)
    area_total: float = 0.0
    area_per_alu: float = 0.0
    #: Per-cycle energy by component, in multiples of ``E_w``.
    energy: Dict[str, float] = field(default_factory=dict)
    energy_total: float = 0.0
    energy_per_alu_op: float = 0.0
    #: Intra/intercluster traversal delays, in FO4s.
    delays: Dict[str, float] = field(default_factory=dict)
    #: Absolute feasibility at 45 nm / 1 GHz (GOPS, mm^2, watts).
    feasibility: Dict[str, float] = field(default_factory=dict)

    @property
    def config_description(self) -> str:
        """The human label, e.g. ``C=8 N=5 (40 ALUs)``."""
        return f"C={self.clusters} N={self.alus} ({self.total_alus} ALUs)"


@dataclass(frozen=True)
class CompileResult(_Payload):
    """One kernel's compiled schedule for one configuration."""

    kernel: str = ""
    clusters: int = 0
    alus: int = 0
    unroll_factor: int = 0
    ii: int = 0
    ii_per_iteration: float = 0.0
    resource_mii: int = 0
    recurrence_mii: int = 0
    length: int = 0
    max_live: int = 0
    register_capacity: int = 0
    ops_per_cycle: float = 0.0
    efficiency: float = 0.0


@dataclass(frozen=True)
class SimulateResult(_Payload):
    """One application run's deterministic metrics (no wall-clock).

    The payload carries both the derived metrics (gops, utilizations)
    and the raw integer accounting they derive from (cycles, op counts,
    busy cycles, bandwidth words).  The raw fields make the payload
    *reconstructible*: the cluster coordinator rebuilds a full
    :class:`~repro.sim.metrics.SimulationResult` from a worker's wire
    payload and every derived metric recomputes bit-identically — ints
    are exact and Python's JSON round-trips floats exactly.
    """

    application: str = ""
    clusters: int = 0
    alus: int = 0
    clock_ghz: float = 1.0
    cycles: int = 0
    useful_alu_ops: int = 0
    gops: float = 0.0
    alu_utilization: float = 0.0
    memory_utilization: float = 0.0
    cluster_utilization: float = 0.0
    #: Raw busy-cycle accounting (what the utilizations divide).
    memory_busy_cycles: int = 0
    cluster_busy_cycles: int = 0
    spill_words: int = 0
    reload_words: int = 0
    ucode_reloads: int = 0
    #: lrf/srf/memory words moved plus the on-chip locality fraction.
    bandwidth: Dict[str, Union[int, float]] = field(default_factory=dict)

    @classmethod
    def from_simulation(
        cls, result: Any, application: Optional[str] = None
    ) -> "SimulateResult":
        """Build the payload from a :class:`~repro.sim.metrics.\
SimulationResult` (duck-typed, so this module never imports the
        simulator)."""
        return cls(
            application=application or result.program,
            clusters=result.config.clusters,
            alus=result.config.alus_per_cluster,
            clock_ghz=result.clock_ghz,
            cycles=result.cycles,
            useful_alu_ops=result.useful_alu_ops,
            gops=result.gops,
            alu_utilization=result.alu_utilization,
            memory_utilization=result.memory_utilization,
            cluster_utilization=result.cluster_utilization,
            memory_busy_cycles=result.memory_busy_cycles,
            cluster_busy_cycles=result.cluster_busy_cycles,
            spill_words=result.spill_words,
            reload_words=result.reload_words,
            ucode_reloads=result.ucode_reloads,
            bandwidth={
                "lrf_words": result.bandwidth.lrf_words,
                "srf_words": result.bandwidth.srf_words,
                "memory_words": result.bandwidth.memory_words,
                "locality_fraction": result.bandwidth.locality_fraction,
            },
        )


@dataclass(frozen=True)
class SweepResult(_Payload):
    """One study's rows, each a flat JSON-native dictionary."""

    target: str = ""
    rows: Tuple[Dict[str, Any], ...] = ()


@dataclass(frozen=True)
class KernelRef(_Payload):
    """A registered kernel's address and deterministic summary.

    ``ref`` (``kernel:<sha256>``) is what compile/simulate/sweep
    requests accept wherever a built-in kernel name is accepted.  The
    payload is deterministic (content-derived, no timestamps), so
    registration coalesces through the daemon's dedup like any query.
    """

    kernel_id: str = ""
    ref: str = ""
    name: str = ""
    schema_version: int = 0
    nodes: int = 0
    alu_ops: int = 0
    srf_accesses: int = 0
    comms: int = 0
    sp_accesses: int = 0
    input_streams: Tuple[str, ...] = ()
    output_streams: Tuple[str, ...] = ()


# --- async jobs ---------------------------------------------------------


#: The job state machine, in lifecycle order.  ``queued -> running``
#: then exactly one of the three terminal states.  A daemon restart
#: moves ``running`` back to ``queued`` (the work resumes from the
#: sweep checkpoint, so replayed points are memo hits).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclass(frozen=True)
class JobRequest(_Payload):
    """An async sweep submission (``POST /v1/jobs``).

    Wraps a full :class:`SweepRequest` payload rather than flattening
    its fields so the job surface never chases sweep-shape changes:
    whatever ``/v1/sweeps`` accepts synchronously, ``/v1/jobs`` accepts
    asynchronously.
    """

    #: A :class:`SweepRequest` payload, verbatim.
    sweep: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        _require(
            isinstance(self.sweep, dict) and bool(self.sweep),
            "JobRequest: sweep must be a non-empty JSON object "
            "(a SweepRequest payload)",
        )
        self.sweep_request().validate()

    def sweep_request(self) -> "SweepRequest":
        """The wrapped sweep, parsed strictly."""
        return SweepRequest.from_dict(self.sweep)  # type: ignore[return-value]


@dataclass(frozen=True)
class JobStatus(_Payload):
    """One job's position in the state machine (``GET /v1/jobs/{id}``).

    Deterministic job facts only — queue-wait and run-time live in the
    envelope ``meta`` (volatile wall-clock stays out of ``data``).
    """

    job_id: str = ""
    state: str = "queued"
    tenant: str = ""
    target: str = ""
    mode: str = "simulated"
    kernel: str = ""
    points_total: int = 0
    points_done: int = 0
    error: str = ""

    def validate(self) -> None:
        _require(bool(self.job_id), "JobStatus: job_id is required")
        _require(
            self.state in JOB_STATES,
            f"JobStatus: unknown state {self.state!r}; "
            f"allowed states: {', '.join(JOB_STATES)}",
        )

    @property
    def terminal(self) -> bool:
        """True once the job can never change state again."""
        return self.state in ("done", "failed", "cancelled")


@dataclass(frozen=True)
class JobResult(_Payload):
    """A finished job's payload (``GET /v1/jobs/{id}/result``).

    ``result`` is the :class:`SweepResult` dictionary exactly as the
    synchronous ``/v1/sweeps`` route would have returned it — the
    byte-identity contract the job tests pin.
    """

    job_id: str = ""
    state: str = "done"
    #: The :class:`SweepResult` payload (empty until ``state == done``).
    result: Dict[str, Any] = field(default_factory=dict)

    def sweep_result(self) -> "SweepResult":
        """The wrapped sweep result, parsed strictly."""
        return SweepResult.from_dict(self.result)  # type: ignore[return-value]


#: Request-kind names, as the serving endpoints and envelopes spell them.
#: Jobs are deliberately absent: job submissions bypass the
#: micro-batcher (admission control runs ahead of 429/503 backpressure)
#: and are handled by :mod:`repro.serve.jobs`.
REQUEST_KINDS: Dict[str, Type[_Payload]] = {
    "costs": CostQuery,
    "compile": CompileRequest,
    "simulate": SimulateRequest,
    "sweep": SweepRequest,
    "kernels": RegisterKernelRequest,
}

AnyRequest = Union[
    CostQuery, CompileRequest, SimulateRequest, SweepRequest,
    RegisterKernelRequest,
]
AnyResult = Union[
    CostResult, CompileResult, SimulateResult, SweepResult, KernelRef,
]


def request_from_dict(kind: str, data: Any) -> AnyRequest:
    """Build (and shallow-validate) the ``kind`` request from a dict."""
    cls = REQUEST_KINDS.get(kind)
    if cls is None:
        raise ApiError(
            f"unknown request kind {kind!r}; "
            f"available: {', '.join(sorted(REQUEST_KINDS))}"
        )
    request = cls.from_dict(data)
    request.validate()  # type: ignore[union-attr]
    return request  # type: ignore[return-value]


def dedup_key(request: AnyRequest) -> str:
    """The canonical identity of a request: kind plus canonical JSON.

    Two requests with equal keys are guaranteed to produce equal
    results (all ``run_*`` functions are deterministic), which is what
    lets the serving daemon coalesce identical in-flight queries.
    """
    return f"{type(request).__name__}:{request.to_json()}"


def validate_request(request: AnyRequest) -> None:
    """Full validation: shape plus kernel/application name existence.

    Name checks import the suites, so thin clients that only build
    requests can skip this; the CLI and server call it before doing any
    work so a bad name fails fast with a helpful message.
    """
    request.validate()
    if isinstance(request, CompileRequest):
        if request.kernel.startswith("kernel:"):
            _check_kernel_ref(request.kernel)
        else:
            from .kernels.suite import KERNELS

            _require(
                request.kernel in KERNELS,
                f"unknown kernel {request.kernel!r}; "
                f"available: {', '.join(sorted(KERNELS))}",
            )
    elif isinstance(request, SimulateRequest):
        if request.application.startswith("kernel:"):
            _check_kernel_ref(request.application)
        else:
            from .apps.suite import APPLICATION_ORDER

            _require(
                request.application in APPLICATION_ORDER,
                f"unknown application {request.application!r}; "
                f"available: {', '.join(APPLICATION_ORDER)}",
            )
    elif isinstance(request, SweepRequest):
        if request.kernel.startswith("kernel:"):
            _check_kernel_ref(request.kernel)
        elif request.kernel:
            from .kernels.suite import KERNELS

            _require(
                request.kernel in KERNELS,
                f"unknown kernel {request.kernel!r}; "
                f"available: {', '.join(sorted(KERNELS))}",
            )
    elif isinstance(request, RegisterKernelRequest):
        from .frontend.loader import parse_document
        from .frontend.schema import KernelValidationError

        try:
            parse_document(request.document)
        except KernelValidationError as exc:
            # str(exc) carries "<code> at <pointer>: <message>" — the
            # JSON-pointer contract survives into the API error.
            raise ApiError(f"invalid kernel document: {exc}") from None


def _check_kernel_ref(ref: str) -> None:
    """A ``kernel:<hash>`` name must resolve in the default registry."""
    from .frontend.registry import default_registry

    try:
        default_registry().resolve(ref)
    except KeyError as exc:
        raise ApiError(str(exc.args[0] if exc.args else exc)) from None


# --- execution ----------------------------------------------------------


def run_cost_query(query: CostQuery) -> CostResult:
    """Evaluate the cost model; pure arithmetic, no caching needed."""
    validate_request(query)
    from .core.config import ProcessorConfig
    from .core.costs import CostModel
    from .core.technology import TECH_45NM, feasibility

    config = ProcessorConfig(query.clusters, query.alus)
    model = CostModel(config)
    area = model.area()
    energy = model.energy()
    delay = model.delay()
    feas = feasibility(config, TECH_45NM)
    return CostResult(
        clusters=query.clusters,
        alus=query.alus,
        total_alus=config.total_alus,
        area=dict(area.as_dict()),
        area_total=area.total,
        area_per_alu=model.area_per_alu(),
        energy=dict(energy.as_dict()),
        energy_total=energy.total,
        energy_per_alu_op=model.energy_per_alu_op(),
        delays={
            "intracluster": delay.intracluster,
            "intercluster": delay.intercluster,
        },
        feasibility={
            "peak_gops": feas.peak_gops,
            "area_mm2": feas.area_mm2,
            "power_watts": feas.power_watts,
        },
    )


def run_compile(request: CompileRequest) -> CompileResult:
    """Compile the kernel (through the warm in-memory + disk caches)."""
    validate_request(request)
    from .compiler.pipeline import compile_kernel
    from .core.config import ProcessorConfig
    from .kernels.suite import get_kernel

    config = ProcessorConfig(request.clusters, request.alus)
    schedule = compile_kernel(get_kernel(request.kernel), config)
    return CompileResult(
        kernel=request.kernel,
        clusters=request.clusters,
        alus=request.alus,
        unroll_factor=schedule.unroll_factor,
        ii=schedule.ii,
        ii_per_iteration=schedule.ii_per_iteration,
        resource_mii=schedule.resource_mii,
        recurrence_mii=schedule.recurrence_mii,
        length=schedule.length,
        max_live=schedule.max_live,
        register_capacity=schedule.register_capacity,
        ops_per_cycle=schedule.ops_per_cycle(),
        efficiency=schedule.efficiency,
    )


def run_simulate(request: SimulateRequest) -> SimulateResult:
    """Simulate the application (through the shared sweep memo).

    Default-budget runs resolve through
    :func:`repro.analysis.sweep.default_engine`, so a repeated query is
    a memo hit — the property the serving daemon's steady-state
    throughput rests on.  A custom ``max_events`` bypasses the memo
    and gives the cached entry a recorder with that budget (the budget
    changes failure behavior, never results).
    """
    validate_request(request)
    from .core.config import ProcessorConfig

    config = ProcessorConfig(request.clusters, request.alus)
    if request.max_events is None:
        from .analysis.sweep import default_engine

        result = default_engine().simulate_application(
            request.application,
            config,
            clock_ghz=request.clock_ghz,
            mode=request.mode,
        )
    else:
        from .analysis.model import evaluate
        from .sim.engine import Recorder

        result = evaluate(
            request.application,
            config,
            clock_ghz=request.clock_ghz,
            recorder=Recorder(max_events=request.max_events),
        )
    return SimulateResult.from_simulation(result, request.application)


def _config_row(config: Any) -> Dict[str, Any]:
    return {"clusters": config.clusters, "alus": config.alus_per_cluster}


def run_sweep(request: SweepRequest) -> SweepResult:
    """Regenerate one study as rows (shared sweep-engine memo underneath).

    ``request.kernel`` restricts the kernel studies to one kernel.  Row
    labels always carry the kernel graph's *own* name, so sweeping a
    registered copy of a built-in yields rows byte-identical to sweeping
    the built-in directly — the frontend conformance contract.
    """
    validate_request(request)
    kernels = (request.kernel,) if request.kernel else None
    label = request.kernel
    if request.kernel.startswith("kernel:"):
        from .kernels.suite import get_kernel

        label = get_kernel(request.kernel).name
    rows: list = []
    if request.target in ("fig13", "fig14"):
        from .analysis.perf import (
            figure13_kernel_speedups,
            figure14_kernel_speedups,
        )

        series = (
            figure13_kernel_speedups(kernels=kernels)
            if request.target == "fig13"
            else figure14_kernel_speedups(kernels=kernels)
        )
        for entry in series:
            name = label if entry.kernel == request.kernel else entry.kernel
            for config, speedup in entry.points:
                rows.append(
                    {"kernel": name, **_config_row(config),
                     "speedup": speedup}
                )
    elif request.target == "table5":
        from .analysis.perf import table5_performance_per_area

        grid = table5_performance_per_area(kernels=kernels)
        for (c, n), value in sorted(grid.items()):
            rows.append({"clusters": c, "alus": n, "perf_per_area": value})
    elif request.target == "fig15":
        from .analysis.perf import figure15_application_performance

        for point in figure15_application_performance(mode=request.mode):
            rows.append(
                {
                    "application": point.application,
                    **_config_row(point.config),
                    "speedup": point.speedup,
                    "gops": point.gops,
                }
            )
    else:  # headline
        from .analysis.headline import headline_640, headline_1280

        for name, report in (
            ("640alu",
             headline_640(include_apps=request.apps, mode=request.mode)),
            ("1280alu",
             headline_1280(include_apps=request.apps, mode=request.mode)),
        ):
            rows.append(
                {
                    "machine": name,
                    "config": report.config_name,
                    "area_per_alu_overhead": report.area_per_alu_overhead,
                    "energy_per_op_overhead": report.energy_per_op_overhead,
                    "kernel_speedup": report.kernel_speedup,
                    "application_speedup": report.application_speedup,
                    "kernel_gops": report.kernel_gops,
                    "peak_gops": report.peak_gops,
                    "power_watts": report.power_watts,
                    "perf_per_area_drop": report.perf_per_area_drop,
                }
            )
    return SweepResult(target=request.target, rows=tuple(rows))


def run_register(request: RegisterKernelRequest) -> KernelRef:
    """Validate + register one kernel document; returns its address.

    Registration goes to the process-wide default registry
    (:func:`repro.frontend.registry.default_registry`), which persists
    to disk so separate processes — CLI invocations, cluster workers —
    resolve the same references.
    """
    validate_request(request)
    from .frontend.registry import default_registry, summarize

    entry = default_registry().register(request.document)
    summary = summarize(entry.kernel_id, entry.document)
    return KernelRef(
        kernel_id=summary["kernel_id"],
        ref=summary["ref"],
        name=summary["name"],
        schema_version=summary["schema_version"],
        nodes=summary["nodes"],
        alu_ops=summary["alu_ops"],
        srf_accesses=summary["srf_accesses"],
        comms=summary["comms"],
        sp_accesses=summary["sp_accesses"],
        input_streams=tuple(summary["input_streams"]),
        output_streams=tuple(summary["output_streams"]),
    )


_RUNNERS = {
    CostQuery: run_cost_query,
    CompileRequest: run_compile,
    SimulateRequest: run_simulate,
    SweepRequest: run_sweep,
    RegisterKernelRequest: run_register,
}


def execute(request: AnyRequest) -> AnyResult:
    """Dispatch any API request to its runner; raises :class:`ApiError`
    for malformed requests and unknown names."""
    runner = _RUNNERS.get(type(request))
    if runner is None:
        raise ApiError(
            f"not an API request: {type(request).__name__}"
        )
    return runner(request)  # type: ignore[operator]


def safe_execute(
    item: Tuple[Optional[str], AnyRequest],
    runner: Callable[[AnyRequest], AnyResult] = execute,
) -> Tuple[str, Any]:
    """Run one ``(request_id, request)`` pair through ``runner``, never
    raising for per-request failures.

    Returns ``("ok", result)``, or ``("error", (code, message))`` with
    code ``bad_request`` for an :class:`ApiError` and ``internal`` for
    any other exception, so a resilient executor never burns retries on
    deterministic failures.  The request id is bound around the run, so
    every log line, tracer instant and progress event it emits carries
    it.  Module-level with a module-level default runner, so the serving
    daemon's process pool can pickle it; the cluster coordinator passes
    its own ``execute``.
    """
    from .obs.log import bind_request_id

    request_id, request = item
    with bind_request_id(request_id):
        try:
            return ("ok", runner(request))
        except ApiError as exc:
            return ("error", ("bad_request", str(exc)))
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            return ("error", ("internal", f"{type(exc).__name__}: {exc}"))
