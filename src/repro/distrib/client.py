"""The tuning-service client: submit jobs, stream generations, read bills.

Speaks only the pickle-free wire format of :mod:`repro.distrib.wire`.  One
:class:`ServiceClient` holds a persistent request/response connection (a
lock serializes callers, so one client is safe to share across threads);
:meth:`stream` opens a *dedicated* connection per stream so generation
events never interleave with request traffic.  Every ``error`` frame the
service answers becomes a raised :class:`~repro.distrib.errors.ServiceError`
whose ``code`` is the stable contract (``bad-budget``, ``unknown-family``,
``unauthorized``, ...).

The stream is resumable by design: events are seq-numbered, so a client
that loses its connection mid-stream reconnects and continues from the
last ``seq`` it saw — the service keeps no per-connection state.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, Iterator, Optional

from repro.distrib import transport
from repro.distrib.errors import ConnectionClosed, ServiceError
from repro.distrib.jobs import TERMINAL_EVENTS
from repro.distrib.protocol import parse_address
from repro.distrib.wire import make_message, recv_wire, send_wire


class ServiceClient:
    """A tenant-side connection to one tuning service (``TuningService``)."""

    def __init__(self, address: str, token: Optional[str] = None,
                 timeout: float = 60.0) -> None:
        self.host, self.port = parse_address(address)
        self.token = token
        self.timeout = timeout
        self._lock = threading.Lock()
        self._sock = self._connect(timeout)

    def _connect(self, timeout: float) -> socket.socket:
        """Open one lane (request or stream) and consume its welcome frame."""
        sock = transport.connect(self.host, self.port, timeout)
        try:
            welcome = recv_wire(sock)
            if welcome["type"] != "welcome":
                raise ServiceError(
                    "bad-handshake",
                    f"expected a welcome frame, got {welcome['type']!r}",
                )
        except BaseException:
            transport.close(sock)
            raise
        self.service = welcome["service"]
        self.families = list(welcome["families"])
        return sock

    def _request(self, kind: str, **fields: object) -> Dict[str, object]:
        """One request/response round trip; error frames raise."""
        if self.token is not None:
            fields.setdefault("token", self.token)
        message = make_message(kind, **fields)
        with self._lock:
            send_wire(self._sock, message)
            reply = recv_wire(self._sock)
        if reply["type"] == "error":
            raise ServiceError(reply["code"], reply["message"])
        return reply

    # -- the job API ------------------------------------------------------------------

    def submit(self, tenant: str, program: str, source: str, family: str,
               generations: int, population: int = 8, stall_window: int = 60,
               priority: int = 0) -> str:
        """Submit one tuning job; returns its job id (or raises typed)."""
        budget = {"generations": generations, "population": population,
                  "stall_window": stall_window}
        reply = self._request(
            "submit", tenant=tenant, program=program, source=source,
            family=family, budget=budget, priority=priority,
        )
        return reply["job_id"]

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("status", job_id=job_id)["job"]

    def jobs(self, tenant: Optional[str] = None) -> list:
        return self._request("jobs", tenant=tenant)["rows"]

    def accounting(self, tenant: Optional[str] = None) -> Dict[str, object]:
        return self._request("accounting", tenant=tenant)["tenants"]

    def cancel(self, job_id: str) -> str:
        """Request cancellation; returns the job's state after the request."""
        return self._request("cancel", job_id=job_id)["state"]

    def ping(self) -> float:
        return float(self._request("ping").get("uptime_seconds", 0.0))

    # -- streaming --------------------------------------------------------------------

    def stream(self, job_id: str, from_seq: int = 0,
               timeout: Optional[float] = None) -> Iterator[Dict[str, object]]:
        """Yield the job's events (``{"seq", "kind", "data"}``) until terminal.

        Runs on its own connection; generation summaries arrive as the
        turnstile grants the job turns, ending with one of
        :data:`~repro.distrib.jobs.TERMINAL_EVENTS`.
        """
        fields: Dict[str, object] = {"job_id": job_id, "from_seq": from_seq}
        if self.token is not None:
            fields["token"] = self.token
        sock = self._connect(self.timeout if timeout is None else timeout)
        try:
            send_wire(sock, make_message("stream", **fields))
            while True:
                try:
                    frame = recv_wire(sock)
                except ConnectionClosed:
                    return
                if frame["type"] == "error":
                    raise ServiceError(frame["code"], frame["message"])
                event = {"seq": frame["seq"], "kind": frame["kind"],
                         "data": frame["data"]}
                yield event
                if frame["kind"] in TERMINAL_EVENTS:
                    return
        finally:
            transport.close(sock)

    def wait(self, job_id: str, timeout: Optional[float] = None
             ) -> Dict[str, object]:
        """Block until the job is terminal; returns its final status row."""
        for event in self.stream(job_id, timeout=timeout):
            if event["kind"] in TERMINAL_EVENTS:
                break
        return self.status(job_id)

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            transport.close(self._sock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["ServiceClient"]
