"""The distrib plane's one transport seam: TCP sockets and frame bytes.

The pickled worker protocol (:mod:`repro.distrib.protocol`) and the
pickle-free client wire (:mod:`repro.distrib.wire`) ride the same frames: a
4-byte big-endian length, then that many payload bytes, in **one** ``sendall``.
This is the only module under ``repro.distrib`` that connects, accepts,
configures or closes a TCP socket or writes a frame; it knows bytes and sockets
only (no pickle, no JSON) — limits, codecs, type checks and auth stay with them.

Every connected socket is ``TCP_NODELAY``.  The protocols are full of
write-write-read sequences — telemetry then the batch reply, mesh pushes and
heartbeats ahead of a reply, event after event to a streaming client,
``auth-ok`` then ``Hello`` — and under Nagle's algorithm the second small
frame waits for the peer's delayed ACK of the first (~40 ms per batch on
Linux loopback, a round trip plus that timer on a real network).  Because a
frame is already a single write, turning Nagle off adds no small-packet
storm; frames are never merged or reordered to dodge the stall.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Callable, Tuple

from repro.distrib.errors import ConnectionClosed

_HEADER = struct.Struct(">I")


def _no_delay(sock: socket.socket) -> socket.socket:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def connect(host: str, port: int, timeout: float) -> socket.socket:
    """Open a connection; ``timeout`` stays on the socket until changed."""
    return _no_delay(socket.create_connection((host, port), timeout=timeout))


def close(sock: socket.socket) -> None:
    """Close a connection whose peer may already be gone."""
    try:
        sock.close()
    except OSError:
        pass


def send_frame(sock: socket.socket, payload: bytes, during: str = "send") -> None:
    """Write one length-prefixed frame as a single ``sendall``."""
    try:
        sock.sendall(_HEADER.pack(len(payload)) + payload)
    except OSError as exc:
        raise ConnectionClosed(f"peer went away mid-{during}: {exc}") from exc


def recv_length(sock: socket.socket) -> int:
    """Read a frame header; callers check the length against their own limit first."""
    return _HEADER.unpack(recv_exact(sock, _HEADER.size))[0]


def recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except TimeoutError:
            raise  # the coordinator turns per-batch timeouts into WorkerLost
        except OSError as exc:
            raise ConnectionClosed(f"peer went away mid-frame: {exc}") from exc
        if not chunk:
            raise ConnectionClosed(
                f"peer closed the connection with {remaining} of {count} bytes unread"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class Listener:
    """A bound, listening socket and the daemon thread that accepts on it.

    Each accepted connection is handed to ``handler(conn, peer)`` on the
    accept thread, so a handler that must not hold up later peers does its
    slow work elsewhere; it owns ``conn`` and must not raise.
    """

    def __init__(self, host: str, port: int, backlog: int,
                 handler: Callable[[socket.socket, Tuple], None], name: str) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
            self._sock.listen(backlog)
        except OSError:
            self._sock.close()
            raise
        self.host, self.port = self._sock.getsockname()[:2]
        self._handler = handler
        self._closed = False
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"{name}:{self.port}", daemon=True)

    def start(self) -> threading.Thread:
        self._thread.start()
        return self._thread

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, peer = self._sock.accept()
            except OSError:
                continue  # close() woke us, or a queued peer reset before accept
            try:
                _no_delay(conn)
            except OSError:
                close(conn)  # reset between accept and here
                continue
            self._handler(conn, peer)

    def close_copy(self) -> None:
        """In a forked child: close its copy, leaving the parent listening."""
        self._sock.close()

    def close(self) -> None:
        """Stop accepting; returns once the accept thread has exited."""
        self._closed = True
        try:
            # Closing an fd does not interrupt another thread's blocking
            # accept() on Linux; shutting the listener down does.
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # BSDs refuse this on a listener, but there close() wakes accept
        self._sock.close()
        if self._thread.is_alive():
            self._thread.join()
