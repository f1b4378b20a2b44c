"""Worker-side heartbeat agent and the local fleet supervisor.

Two small pieces that make cluster mode turnkey:

* :class:`HeartbeatAgent` runs *inside a worker daemon* started with
  ``repro serve --join HOST:PORT``.  After the worker binds its socket
  it registers with the coordinator (retrying until the coordinator is
  up) and then heartbeats on a fixed interval; a coordinator that
  restarted and forgot the fleet answers ``known=False`` and the agent
  simply re-registers.  Registration carries the worker's *actual*
  bound host/port/pid, so ``--port 0`` workers need no port plumbing.
* :class:`LocalFleet` runs *inside the coordinator* started with
  ``repro serve --fleet N``: it spawns N worker daemons as child
  processes (``python -m repro serve --port 0 --join ...``) and waits
  for them all to register.  Workers inherit the parent environment,
  so one ``REPRO_COMPILE_CACHE_DIR`` warms the whole fleet's compile
  caches.  Stopping the fleet is SIGTERM + wait (workers drain
  cleanly), escalating to SIGKILL only for stragglers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..obs.log import get_logger, log_event

__all__ = ["HeartbeatAgent", "LocalFleet"]


class HeartbeatAgent:
    """Registers a worker with its coordinator and keeps it alive.

    Runs a daemon thread; failures are absorbed and retried on the
    next tick (a worker must keep serving even while its coordinator
    is down — points already dispatched to it still deserve answers).
    """

    def __init__(
        self,
        coordinator_host: str,
        coordinator_port: int,
        worker_host: str,
        worker_port: int,
        interval_s: float = 2.0,
        worker_id: Optional[str] = None,
        stats_fn: Optional[Callable[[], Dict[str, Any]]] = None,
    ):
        self.coordinator_host = coordinator_host
        self.coordinator_port = coordinator_port
        self.worker_host = worker_host
        self.worker_port = worker_port
        self.interval_s = interval_s
        self.worker_id = worker_id or f"{worker_host}:{worker_port}"
        self.stats_fn = stats_fn
        self.registered = False
        self.beats = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._log = get_logger("cluster.agent")

    def _body(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "worker_id": self.worker_id,
            "host": self.worker_host,
            "port": self.worker_port,
            "pid": os.getpid(),
        }
        if self.stats_fn is not None:
            try:
                body["stats"] = self.stats_fn()
            except Exception:  # stats are best-effort decoration
                pass
        return body

    def _client(self):
        from ..serve.client import ServeClient

        return ServeClient(
            self.coordinator_host,
            self.coordinator_port,
            timeout=max(5.0, self.interval_s * 2),
        )

    def _register(self, client) -> bool:
        response = client.request(
            "POST", "/v1/cluster/register", self._body()
        )
        ok = response.status == 200
        if ok and not self.registered:
            self.registered = True
            log_event(
                self._log, "cluster.agent.registered",
                coordinator=f"{self.coordinator_host}:"
                            f"{self.coordinator_port}",
                worker=self.worker_id,
            )
        return ok

    def _loop(self) -> None:
        client = self._client()
        try:
            while not self._stop.is_set():
                try:
                    if not self.registered:
                        self._register(client)
                    else:
                        response = client.request(
                            "POST", "/v1/cluster/heartbeat", self._body()
                        )
                        if response.status == 200:
                            self.beats += 1
                            data = response.data or {}
                            if not data.get("known", True):
                                # Coordinator restarted: re-introduce
                                # ourselves immediately.
                                self.registered = False
                                self._register(client)
                        else:
                            client.close()
                except (ConnectionError, OSError):
                    client.close()
                self._stop.wait(self.interval_s)
        finally:
            client.close()

    def start(self) -> None:
        """Start the background register/heartbeat loop."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="cluster-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop heartbeating (worker drain)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 5.0)
            self._thread = None


class LocalFleet:
    """Spawns and supervises N local worker daemons.

    The workers are full ``repro serve`` processes listening on
    ephemeral ports with ``--join`` pointed back at the coordinator;
    discovery happens entirely through registration, so the fleet
    object never parses worker output.
    """

    def __init__(
        self,
        size: int,
        coordinator_host: str,
        coordinator_port: int,
        heartbeat_interval_s: float = 2.0,
        extra_args: Optional[List[str]] = None,
    ):
        self.size = size
        self.coordinator_host = coordinator_host
        self.coordinator_port = coordinator_port
        self.heartbeat_interval_s = heartbeat_interval_s
        self.extra_args = list(extra_args or [])
        self.procs: List[subprocess.Popen] = []
        self._log = get_logger("cluster.fleet")

    def start(self) -> None:
        """Launch the worker processes (does not wait for registration
        — pair with ``ClusterCoordinator.wait_for_workers``)."""
        join = f"{self.coordinator_host}:{self.coordinator_port}"
        for index in range(self.size):
            command = [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--join", join,
                "--heartbeat-interval", str(self.heartbeat_interval_s),
            ] + self.extra_args
            proc = subprocess.Popen(
                command,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                start_new_session=True,
            )
            self.procs.append(proc)
            log_event(
                self._log, "cluster.fleet.spawned",
                index=index, pid=proc.pid,
            )

    def pids(self) -> List[int]:
        """PIDs of the live worker processes."""
        return [proc.pid for proc in self.procs if proc.poll() is None]

    def alive_count(self) -> int:
        """How many worker processes are still running."""
        return len(self.pids())

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM every worker (clean drain), SIGKILL stragglers."""
        for proc in self.procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout_s
        for proc in self.procs:
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.1, remaining))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
        self.procs.clear()
