"""The ``service_fleet`` subprocesses: one ``serve`` plus one worker on loopback.

Every wait here has a deadline, and :meth:`Fleet.stop` runs on every exit
path (the workload owns it through ``try``/``finally``; ``run.py`` turns
SIGTERM into ``SystemExit`` so ``finally`` blocks run under it too).
"""

from __future__ import annotations

import os
import secrets
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List

from repro.distrib.client import ServiceClient
from repro.distrib.errors import DistribError

#: Seconds the service, then the worker, may take to come up.
START_TIMEOUT_S = 30.0
#: Seconds a terminated subprocess gets before it is killed.
STOP_TIMEOUT_S = 5.0


class FleetError(RuntimeError):
    """The fleet did not come up (or went away) within its deadline."""


def free_port() -> int:
    """A loopback port that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Fleet:
    """``python -m repro.campaign serve --dispatch distributed`` and one
    ``python -m repro.distrib.worker --slots 1 --no-store``."""

    def __init__(self, workdir: Path, source_root: Path) -> None:
        self.workdir = Path(workdir)
        self.address = ""
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = str(source_root)
        self._env["REPRO_DISTRIB_AUTHKEY"] = secrets.token_hex(16)
        self._processes: List[subprocess.Popen] = []
        self._logs: List[object] = []

    def _spawn(self, label: str, arguments: List[str]) -> subprocess.Popen:
        log = open(self.workdir / f"{label}.log", "w")
        self._logs.append(log)
        process = subprocess.Popen(
            [sys.executable, "-m", *arguments],
            env=self._env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self._processes.append(process)
        return process

    def _wait_until(self, ready, process: subprocess.Popen, what: str) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while not ready():
            if process.poll() is not None:
                raise FleetError(f"{what} exited with status {process.returncode}")
            if time.monotonic() > deadline:
                raise FleetError(f"{what} not ready after {START_TIMEOUT_S:g}s")
            time.sleep(0.01)

    def start(self) -> None:
        """Spawn both processes; returns once ``ping()`` answers and the
        worker has registered.  Raises :class:`FleetError` on a deadline."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.address = f"127.0.0.1:{free_port()}"
        worker_plane = f"127.0.0.1:{free_port()}"
        serve = self._spawn("serve", [
            "repro.campaign", "serve", "--bind", self.address,
            "--dispatch", "distributed", "--serve-workers", worker_plane,
            "--min-workers", "1",
        ])

        def pings() -> bool:
            try:
                with ServiceClient(self.address, timeout=START_TIMEOUT_S) as client:
                    client.ping()
                return True
            except (OSError, DistribError):
                return False

        self._wait_until(pings, serve, "service")
        worker = self._spawn("worker", [
            "repro.distrib.worker", "--connect", worker_plane,
            "--slots", "1", "--no-store",
        ])
        worker_log = self.workdir / "worker.log"
        self._wait_until(
            lambda: "connected to" in worker_log.read_text(), worker, "worker"
        )

    def client(self, timeout: float) -> ServiceClient:
        return ServiceClient(self.address, timeout=timeout)

    def log_tail(self, limit: int = 400) -> str:
        """The end of both logs, for a failure message."""
        tails = []
        for label in ("serve", "worker"):
            path = self.workdir / f"{label}.log"
            if path.exists():
                tails.append(f"[{label}] {path.read_text()[-limit:].strip()}")
        return "\n".join(tails)

    def stop(self) -> None:
        """Terminate and reap both processes (worker first), then close logs.
        Safe to call twice and after a failed :meth:`start`."""
        for process in reversed(self._processes):
            if process.poll() is None:
                process.terminate()
        for process in reversed(self._processes):
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self._processes.clear()
        for log in self._logs:
            log.close()
        self._logs.clear()
