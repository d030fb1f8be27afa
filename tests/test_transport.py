"""Tests for the distrib plane's transport seam (``repro.distrib.transport``).

Three guarantees, each of which failed at the commit before the seam:

* every connected socket of both planes is ``TCP_NODELAY`` on *both* ends —
  the deterministic witness for "no Nagle x delayed-ACK stall between a
  batch's interleaved frames" (a latency assertion would be flaky: Linux
  starts connections in quick-ACK mode);
* closing a listener wakes its acceptor: ``Coordinator.close()`` and
  ``TuningService.close()`` return promptly and leave no thread parked in
  ``accept()`` on a dead fd;
* the framing folded out of ``protocol`` and ``wire`` round-trips and keeps
  every error type and text the two planes raised before.

Loopback-gated like the rest of the distrib tests.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest
from _helpers import loopback_available
from test_distrib import thread_workers

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="no AF_INET loopback in this sandbox"
)

from repro.distrib import Coordinator, ConnectionClosed  # noqa: E402
from repro.distrib import protocol, transport  # noqa: E402
from repro.distrib.client import ServiceClient  # noqa: E402
from repro.distrib.errors import AuthenticationError  # noqa: E402
from repro.distrib.service import ServiceConfig, TuningService  # noqa: E402
from repro.distrib.wire import FrameTooLarge, make_message, recv_wire, send_wire  # noqa: E402

SOURCE = "int main(void) { int s = 0; for (int i = 0; i < 9; i++) s += i * 3; return s & 0xff; }"


def no_delay(sock: socket.socket) -> bool:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


@pytest.fixture
def tcp_sockets(monkeypatch):
    """Every TCP socket this process connects or accepts while the fixture
    is live, in creation order — recorded beneath the seam, at the stdlib
    calls, so the test does not depend on how the seam is written."""
    recorded = []
    real_connect, real_accept = socket.create_connection, socket.socket.accept

    def create_connection(*args, **kwargs):
        sock = real_connect(*args, **kwargs)
        recorded.append(sock)
        return sock

    def accept(listener):
        conn, peer = real_accept(listener)
        recorded.append(conn)
        return conn, peer

    monkeypatch.setattr(socket, "create_connection", create_connection)
    monkeypatch.setattr(socket.socket, "accept", accept)
    return recorded


class TestNoDelayOnEveryHop:
    def test_worker_plane_both_ends(self, tcp_sockets):
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1) as (worker,):
                (handle,) = coordinator.workers()
                # One connect (the worker's side, shared by its heartbeats
                # and the mesh) and one accept (the handle's socket).
                assert len(tcp_sockets) == 2 and handle.sock in tcp_sockets
                assert all(no_delay(sock) for sock in tcp_sockets)
        worker.join(timeout=10)
        assert not worker.is_alive()

    def test_client_plane_request_and_stream_lanes_both_ends(self, tcp_sockets):
        with TuningService(ServiceConfig()) as service:
            with ServiceClient(service.address_string()) as client:
                # The welcome frame is written after the accept side is
                # configured, so both ends of the request lane exist now.
                assert len(tcp_sockets) == 2 and client._sock in tcp_sockets
                assert all(no_delay(sock) for sock in tcp_sockets)
                job_id = client.submit("alice", "tiny", SOURCE, "gcc",
                                       generations=2, population=4)
                events = client.stream(job_id)
                first = next(events)
                # The generator is suspended mid-stream: its dedicated lane
                # is open on both ends (the service side waits for this
                # client's next request even once the job is terminal).
                assert len(tcp_sockets) == 4
                assert all(no_delay(sock) for sock in tcp_sockets[2:])
                kinds = [first["kind"]] + [event["kind"] for event in events]
                assert kinds[-1] == "done"

    def test_seam_connect_and_accept(self):
        accepted = []
        ready = threading.Event()

        def handler(conn, peer):
            accepted.append(conn)
            ready.set()

        listener = transport.Listener("127.0.0.1", 0, 4, handler, "test-accept")
        listener.start()
        try:
            sock = transport.connect(listener.host, listener.port, 5.0)
            assert ready.wait(5)
            assert no_delay(sock) and no_delay(accepted[0])
            assert sock.gettimeout() == 5.0
            sock.close()
            accepted[0].close()
        finally:
            listener.close()


class TestCloseWakesTheAcceptor:
    """With the acceptor already parked in ``accept()``, ``close()`` returns
    at once and the accept thread is gone (it used to sleep through the
    close on a dead fd and cost a 2 s join per listener)."""

    BUDGET_S = 0.5

    @staticmethod
    def timed_close(closeable) -> float:
        time.sleep(0.1)  # let every accept thread reach its blocking accept()
        started = time.monotonic()
        closeable.close()
        return time.monotonic() - started

    def test_coordinator(self):
        coordinator = Coordinator()
        assert coordinator._accept_thread.is_alive()
        assert self.timed_close(coordinator) < self.BUDGET_S
        assert not coordinator._accept_thread.is_alive()
        coordinator.close()  # idempotent

    @pytest.mark.parametrize("dispatch", ["serial", "distributed"])
    def test_tuning_service(self, dispatch):
        service = TuningService(ServiceConfig(dispatch=dispatch))
        threads = [service._accept_thread]
        if dispatch == "distributed":
            threads.append(service._pool.coordinator._accept_thread)
        assert all(thread.is_alive() for thread in threads)
        assert self.timed_close(service) < self.BUDGET_S
        assert not any(thread.is_alive() for thread in threads)

    def test_listener_keeps_accepting_until_closed_then_refuses(self):
        served = []
        done = threading.Event()

        def handler(conn, peer):
            served.append(peer)
            conn.close()
            if len(served) == 3:
                done.set()

        listener = transport.Listener("127.0.0.1", 0, 4, handler, "test-accept")
        thread = listener.start()
        assert thread.name == f"test-accept:{listener.port}"
        for _ in range(3):
            transport.connect(listener.host, listener.port, 5.0).close()
        assert done.wait(5)
        assert self.timed_close(listener) < self.BUDGET_S
        assert not thread.is_alive()
        with pytest.raises(OSError):
            transport.connect(listener.host, listener.port, 1.0)
        listener.close()  # idempotent

    def test_close_before_start_and_bind_failure(self):
        listener = transport.Listener("127.0.0.1", 0, 1, lambda c, p: None, "t")
        with pytest.raises(OSError):  # the port is taken, SO_REUSEADDR or not
            transport.Listener("127.0.0.1", listener.port, 1, lambda c, p: None, "t")
        listener.close()  # never started: nothing to join


class TestFoldedFraming:
    """One ``send_frame`` / ``recv_length`` / ``recv_exact`` under both
    planes: same bytes, same exceptions, same texts."""

    @pytest.fixture
    def pair(self):
        left, right = socket.socketpair()
        right.settimeout(5)
        yield left, right
        left.close()
        right.close()

    def test_frame_round_trip_and_wire_bytes(self, pair):
        left, right = pair
        for payload in (b"", b"x", b"J{}", bytes(range(256)) * 300):
            transport.send_frame(left, payload)
            assert transport.recv_length(right) == len(payload)
            assert transport.recv_exact(right, len(payload)) == payload
        # The header is 4 bytes, big-endian, and travels in the same write.
        transport.send_frame(left, b"abc")
        assert right.recv(64) == b"\x00\x00\x00\x03abc"

    def test_both_planes_share_the_frames(self, pair):
        left, right = pair
        protocol.send_message(left, protocol.Hello(slots=2))
        assert protocol.recv_message(right) == protocol.Hello(slots=2)
        send_wire(left, make_message("ping"))
        assert recv_wire(right) == make_message("ping")

    def test_send_failures_name_their_phase(self, pair):
        left, _right = pair
        left.close()
        with pytest.raises(ConnectionClosed, match="^peer went away mid-send: "):
            protocol.send_message(left, protocol.Shutdown())
        with pytest.raises(ConnectionClosed, match="^peer went away mid-send: "):
            send_wire(left, make_message("ping"))
        with pytest.raises(ConnectionClosed, match="^peer went away mid-handshake: "):
            protocol.authenticate(left, b"key", server=True)

    @pytest.mark.parametrize("recv", [protocol.recv_message, recv_wire])
    def test_recv_failures_keep_their_texts(self, pair, recv):
        left, right = pair
        left.sendall(b"\x00\x00")  # half a header, then hang up
        left.close()
        with pytest.raises(ConnectionClosed) as excinfo:
            recv(right)
        assert str(excinfo.value) == (
            "peer closed the connection with 2 of 4 bytes unread")
        right.close()  # now the local socket is dead: the OSError arm
        with pytest.raises(ConnectionClosed, match="^peer went away mid-frame: "):
            recv(right)

    def test_timeout_propagates_untouched(self, pair):
        _left, right = pair
        right.settimeout(0.01)
        for recv in (protocol.recv_message, recv_wire):
            with pytest.raises(TimeoutError) as excinfo:
                recv(right)
            assert not isinstance(excinfo.value, ConnectionClosed)

    def test_limits_are_checked_before_the_payload_is_read(self, pair):
        """Only a header is ever sent: a limit checked after the read would
        block into the socket timeout instead of raising the typed error."""
        left, right = pair
        left.sendall((11).to_bytes(4, "big"))
        with pytest.raises(FrameTooLarge) as wire_error:
            recv_wire(right, max_frame_bytes=10)
        assert wire_error.value.code == "frame-too-large"
        assert str(wire_error.value) == "frame announces 11 bytes (limit 10)"
        left.sendall((257).to_bytes(4, "big"))
        with pytest.raises(AuthenticationError, match=(
                "^handshake frame of 257 bytes \\(limit 256\\); peer is not "
                "speaking the authentication protocol$")):
            protocol.authenticate(right, b"key", server=False)
