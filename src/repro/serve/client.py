"""A thin blocking client for the serving daemon.

:class:`ServeClient` wraps ``http.client`` (stdlib, no dependencies)
and speaks the daemon's JSON protocol: request dataclasses go out as
their ``to_dict()`` JSON, envelopes come back as plain dictionaries.
It deliberately imports nothing heavy — only :mod:`repro.api` request
types, which are lazy themselves — so scripts and tests can hammer a
daemon without paying the library's import bill.

The client is *transport-thin* with one deliberate exception: it
honors the daemon's explicit backpressure.  A ``429``/``503`` response
carries ``Retry-After``, and the client sleeps that long and retries,
bounded by ``backpressure_retries`` (pass ``0`` to opt out and see the
raw statuses — load generators and backpressure tests do).  Everything
else stays thin: no connection pooling across threads, no envelope
interpretation beyond JSON decoding (see ``docs/serving.md``).
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Any, Dict, Iterator, Optional, Tuple

from ..api import (
    CompileRequest,
    CostQuery,
    JobRequest,
    RegisterKernelRequest,
    SimulateRequest,
    SweepRequest,
)

__all__ = ["ServeClient", "ServeConnectionError", "ServeResponse"]

#: Request kinds whose route is spelled differently from the payload
#: kind (the sweep route is plural: ``/v1/sweeps``).
_CANONICAL_ROUTES = {"sweep": "sweeps"}


class ServeConnectionError(ConnectionError):
    """The daemon is unreachable; the message names the target address
    so "connection refused" is immediately actionable."""


class ServeResponse:
    """One daemon reply: HTTP status, headers, decoded JSON payload.

    ``text`` carries the raw body for non-JSON responses (Prometheus
    exposition); ``payload`` is then ``{}``.
    """

    def __init__(
        self,
        status: int,
        headers: Dict[str, str],
        payload: Dict[str, Any],
        text: str = "",
    ):
        self.status = status
        self.headers = headers
        self.payload = payload
        self.text = text

    @property
    def ok(self) -> bool:
        """True for a 200/202 with an ``ok`` envelope."""
        return self.status in (200, 202) and bool(
            self.payload.get("ok", True)
        )

    @property
    def data(self) -> Optional[Dict[str, Any]]:
        """The envelope's ``data`` (the deterministic result payload)."""
        return self.payload.get("data")

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        """The envelope's ``error`` object, if the request failed."""
        return self.payload.get("error")

    @property
    def retry_after(self) -> Optional[float]:
        """Seconds the server asked us to wait (429/503), else ``None``."""
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None

    @property
    def request_id(self) -> Optional[str]:
        """The correlation id the daemon assigned (``X-Request-Id``)."""
        return self.headers.get("x-request-id")


class ServeClient:
    """Blocking JSON client over one keep-alive HTTP connection.

    One client == one connection == one in-flight request at a time;
    spin up one client per thread for concurrency tests.  Usable as a
    context manager.

    ``backpressure_retries`` bounds how many times a ``429``/``503``
    answer is retried after sleeping the server-suggested
    ``Retry-After`` (capped at ``max_retry_after_s`` so a confused
    server cannot park the client).  ``0`` disables the retries and
    surfaces the raw backpressure statuses.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 120.0,
        backpressure_retries: int = 4,
        max_retry_after_s: float = 5.0,
        api_key: Optional[str] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.backpressure_retries = backpressure_retries
        self.max_retry_after_s = max_retry_after_s
        #: Sent as ``X-Api-Key`` on every request (multi-tenant mode).
        self.api_key = api_key
        #: How many backpressure sleeps this client has taken (tests
        #: and load reports read this).
        self.backpressure_waits = 0
        self._conn: Optional[HTTPConnection] = None

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Close the underlying connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        """Context-manager entry: returns self."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: closes the connection."""
        self.close()

    # --- transport ------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """One request, with bounded backpressure retries.

        A ``429``/``503`` answer sleeps the server's ``Retry-After``
        (``1s`` if the header is missing, capped at
        ``max_retry_after_s``) and retries, up to
        ``backpressure_retries`` times; the last response is returned
        either way so callers still see the terminal status.  Raises
        :class:`ServeConnectionError` (naming ``host:port``) when the
        daemon cannot be reached at all.
        """
        retries = self.backpressure_retries
        while True:
            response = self._round_trip(method, path, body, request_id)
            if response.status not in (429, 503) or retries <= 0:
                return response
            retries -= 1
            delay = response.retry_after
            delay = 1.0 if delay is None else max(delay, 0.0)
            self.backpressure_waits += 1
            time.sleep(min(delay, self.max_retry_after_s))

    def _round_trip(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """One raw round-trip; reconnects once if the keep-alive went
        stale (``request_id`` rides as ``X-Request-Id`` so the daemon
        adopts the caller's correlation id instead of minting one)."""
        payload = (
            json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
            if body is not None
            else None
        )
        headers: Dict[str, str] = {}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        if self.api_key is not None:
            headers["X-Api-Key"] = self.api_key
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                response_headers = {
                    name.lower(): value
                    for name, value in response.getheaders()
                }
                content_type = response_headers.get("content-type", "")
                if raw and "application/json" in content_type:
                    return ServeResponse(
                        response.status,
                        response_headers,
                        json.loads(raw.decode("utf-8")),
                    )
                return ServeResponse(
                    response.status,
                    response_headers,
                    {},
                    text=raw.decode("utf-8") if raw else "",
                )
            except ConnectionRefusedError as exc:
                self.close()
                raise ServeConnectionError(
                    f"cannot reach repro daemon at "
                    f"{self.host}:{self.port} (connection refused — is "
                    f"`repro serve` running?)"
                ) from exc
            except (ConnectionError, BrokenPipeError, OSError):
                self.close()
                if attempt:
                    raise
        raise RuntimeError("unreachable")  # pragma: no cover

    def post(
        self,
        kind: str,
        body: Dict[str, Any],
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """POST one API request body to its canonical ``/v1/`` route."""
        route = _CANONICAL_ROUTES.get(kind, kind)
        return self.request("POST", f"/v1/{route}", body, request_id)

    # --- typed helpers --------------------------------------------------

    def costs(
        self,
        clusters: int = 8,
        alus: int = 5,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Query the cost model at ``(clusters, alus)``."""
        return self.post(
            "costs", CostQuery(clusters, alus).to_dict(), request_id
        )

    def compile(
        self,
        kernel: str,
        clusters: int = 8,
        alus: int = 5,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Compile ``kernel`` for ``(clusters, alus)``."""
        return self.post(
            "compile",
            CompileRequest(kernel, clusters, alus).to_dict(),
            request_id,
        )

    def simulate(
        self,
        application: str,
        clusters: int = 8,
        alus: int = 5,
        clock_ghz: float = 1.0,
        max_events: Optional[int] = None,
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Simulate ``application`` on ``(clusters, alus)``."""
        return self.post(
            "simulate",
            SimulateRequest(
                application, clusters, alus, clock_ghz, max_events
            ).to_dict(),
            request_id,
        )

    def sweep(
        self,
        target: str,
        apps: bool = False,
        mode: str = "simulated",
        kernel: str = "",
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Regenerate the ``target`` figure/table study.

        ``kernel`` restricts a kernel study to one suite name or
        registered ``kernel:<hash>`` reference.
        """
        return self.post(
            "sweep",
            SweepRequest(
                target=target, apps=apps, mode=mode, kernel=kernel
            ).to_dict(),
            request_id,
        )

    def register_kernel(
        self,
        document: Dict[str, Any],
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Register one kernel document (``POST /v1/kernels``)."""
        return self.post(
            "kernels", RegisterKernelRequest(document).to_dict(), request_id
        )

    def list_kernels(self) -> ServeResponse:
        """List registered-kernel summaries (``GET /v1/kernels``)."""
        return self.request("GET", "/v1/kernels")

    def get_kernel(self, ref: str) -> ServeResponse:
        """Fetch one registered kernel's summary and document."""
        return self.request("GET", f"/v1/kernels/{ref}")

    def stats(self) -> ServeResponse:
        """Fetch the daemon's cache/queue/dedup counters."""
        return self.request("GET", "/v1/stats")

    def cluster_stats(self) -> ServeResponse:
        """Fetch the coordinator's fleet membership and shard stats."""
        return self.request("GET", "/v1/cluster/stats")

    def metrics(self) -> ServeResponse:
        """Fetch the full metrics-registry snapshot."""
        return self.request("GET", "/v1/metrics")

    def prometheus_metrics(self) -> str:
        """Fetch ``GET /metrics`` as raw Prometheus exposition text."""
        return self.request("GET", "/metrics").text

    def health(self) -> ServeResponse:
        """Liveness probe (``/healthz``)."""
        return self.request("GET", "/healthz")

    # --- async jobs -----------------------------------------------------

    def submit_job(
        self,
        target: str,
        apps: bool = False,
        mode: str = "simulated",
        kernel: str = "",
        request_id: Optional[str] = None,
    ) -> ServeResponse:
        """Submit ``target`` as an async job (``POST /v1/jobs``, 202).

        The ``data`` payload is the job's initial :class:`JobStatus`;
        poll :meth:`job_status` or stream :meth:`job_events` with its
        ``job_id``.
        """
        sweep = SweepRequest(
            target=target, apps=apps, mode=mode, kernel=kernel
        )
        return self.request(
            "POST",
            "/v1/jobs",
            JobRequest(sweep=sweep.to_dict()).to_dict(),
            request_id,
        )

    def job_status(self, job_id: str) -> ServeResponse:
        """Poll one job's state (``GET /v1/jobs/{id}``)."""
        return self.request("GET", f"/v1/jobs/{job_id}")

    def job_result(self, job_id: str) -> ServeResponse:
        """Fetch a done job's rows (``GET /v1/jobs/{id}/result``)."""
        return self.request("GET", f"/v1/jobs/{job_id}/result")

    def list_jobs(self) -> ServeResponse:
        """List this tenant's jobs (``GET /v1/jobs``)."""
        return self.request("GET", "/v1/jobs")

    def cancel_job(self, job_id: str) -> ServeResponse:
        """Request cancellation (``POST /v1/jobs/{id}/cancel``)."""
        return self.request("POST", f"/v1/jobs/{job_id}/cancel", {})

    def wait_job(
        self,
        job_id: str,
        timeout_s: float = 600.0,
        poll_s: float = 0.2,
    ) -> ServeResponse:
        """Poll until the job reaches a terminal state (or timeout);
        returns the last status response either way."""
        deadline = time.monotonic() + timeout_s
        while True:
            response = self.job_status(job_id)
            state = (response.data or {}).get("state")
            if (
                not response.ok
                or state in ("done", "failed", "cancelled")
                or time.monotonic() >= deadline
            ):
                return response
            time.sleep(poll_s)

    def job_events(
        self,
        job_id: str,
        max_s: float = 600.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield one job's lifecycle/point events as they land
        (``GET /v1/jobs/{id}/events``); ends at ``job_end``."""
        return self._stream(f"/v1/jobs/{job_id}/events?max_s={max_s}", max_s)

    # --- progress streaming ---------------------------------------------

    def progress(
        self,
        request_id: Optional[str] = None,
        max_s: float = 600.0,
    ) -> Iterator[Dict[str, Any]]:
        """Yield progress events from ``GET /v1/progress`` as they land.

        Filtered to ``request_id`` when given; ends at server deadline,
        on the watched request's ``request_end`` event, or when the
        generator is closed.
        """
        query = f"max_s={max_s}"
        if request_id is not None:
            query = f"request_id={request_id}&{query}"
        return self._stream(f"/v1/progress?{query}", max_s)

    def _stream(self, path: str, max_s: float) -> Iterator[Dict[str, Any]]:
        """Consume one SSE-style endpoint as decoded ``data:`` events.

        Runs on a dedicated connection (the stream is close-delimited,
        so it cannot share the keep-alive one); the API key rides along
        so tenant-scoped streams authenticate.
        """
        headers: Dict[str, str] = {}
        if self.api_key is not None:
            headers["X-Api-Key"] = self.api_key
        conn = HTTPConnection(self.host, self.port, timeout=max_s + 30.0)
        try:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if not line or line.startswith(b":"):
                    continue  # heartbeat / separator
                if line.startswith(b"data: "):
                    yield json.loads(line[len(b"data: "):].decode("utf-8"))
        except ServeConnectionError:
            raise
        except ConnectionRefusedError as exc:
            raise ServeConnectionError(
                f"cannot reach repro daemon at {self.host}:{self.port} "
                f"(connection refused — is `repro serve` running?)"
            ) from exc
        finally:
            conn.close()
