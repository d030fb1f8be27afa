"""Protocol fuzz battery for the pickle-free client wire format.

Three layers of assurance:

1. **Round-trip identity** — hypothesis generates schema-conforming messages
   for *every* type in :data:`repro.distrib.wire.SCHEMAS` (the strategies are
   derived from the table, so a new message type is enrolled automatically)
   and asserts ``decode(encode(m)) == m``.
2. **Garbage corpus** — truncated, oversized, type-confused, and outright
   garbage frames each raise a *typed* :class:`WireError` at the codec layer,
   and when thrown at a live service socket are answered with a clean
   ``error`` frame — never a traceback, never a hangup (except the one
   documented unrecoverable case, an oversized announcement) — and the
   accept loop keeps serving.
3. **The no-unpickle proof** — ``pickle.loads`` and ``pickle.Unpickler`` are
   replaced with booby traps for the duration of a full client session
   (including hostile frames); if any client-originated byte reached pickle,
   the test would detonate.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.distrib.errors import ConnectionClosed, ServiceError
from repro.distrib.wire import (
    MAX_WIRE_FRAME_BYTES,
    SCHEMAS,
    WIRE_VERSION,
    FrameTooLarge,
    WireError,
    decode_payload,
    encode_payload,
    make_message,
    recv_wire,
    send_wire,
    validate_message,
)

from _helpers import loopback_available

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="sandbox forbids AF_INET loopback"
)

_HEADER = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Strategies derived from the schema table
# ---------------------------------------------------------------------------

_SAFE_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=64
)
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**31, 2**31), _SAFE_TEXT
)
_JSON_VALUE = st.recursive(
    _JSON_SCALAR,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_SAFE_TEXT, children, max_size=4),
    ),
    max_leaves=8,
)


def _field_strategy(types: tuple) -> st.SearchStrategy:
    options = []
    for accepted in types:
        if accepted is None:
            options.append(st.none())
        elif accepted is str:
            options.append(_SAFE_TEXT)
        elif accepted is bool:
            options.append(st.booleans())
        elif accepted is int:
            options.append(st.integers(-2**31, 2**31))
        elif accepted is float:
            options.append(
                st.floats(allow_nan=False, allow_infinity=False, width=32)
            )
        elif accepted is dict:
            options.append(st.dictionaries(_SAFE_TEXT, _JSON_VALUE, max_size=4))
        elif accepted is list:
            options.append(st.lists(_JSON_VALUE, max_size=4))
    return st.one_of(options)


def _message_strategy(kind: str) -> st.SearchStrategy:
    schema = SCHEMAS[kind]
    fields = {}
    for name, (types, required) in schema.items():
        strategy = _field_strategy(types)
        fields[name] = strategy if required else st.one_of(st.nothing(), strategy)

    def build(present: dict) -> dict:
        message = {"v": WIRE_VERSION, "type": kind}
        message.update(present)
        return message

    required_names = [n for n, (_t, req) in schema.items() if req]
    return st.fixed_dictionaries(
        {n: fields[n] for n in required_names},
        optional={n: fields[n] for n in schema if n not in required_names},
    ).map(build)


_ANY_MESSAGE = st.one_of([_message_strategy(kind) for kind in sorted(SCHEMAS)])


class TestRoundTrip:
    @given(message=_ANY_MESSAGE)
    @settings(max_examples=200, deadline=None)
    def test_every_schema_round_trips_identically(self, message):
        """decode(encode(m)) == m for schema-conforming m of every type."""
        # None-valued optional fields are droppable on encode only via
        # make_message; raw encode must preserve them exactly as sent.
        assert decode_payload(encode_payload(message)) == message

    @given(message=_ANY_MESSAGE)
    @settings(max_examples=50, deadline=None)
    def test_encoding_is_deterministic(self, message):
        assert encode_payload(message) == encode_payload(message)

    def test_make_message_drops_none_fields(self):
        message = make_message("error", code="x", message="y", job_id=None)
        assert "job_id" not in message
        assert decode_payload(encode_payload(message)) == message

    def test_msgpack_tag_is_refused_with_bad_codec(self):
        """``J`` is the only codec: an ``M`` frame — here a well-formed
        msgpack ``ping`` — is refused by its tag, whether or not the host
        happens to have a msgpack module, and nothing can ask to send one."""
        with pytest.raises(WireError) as excinfo:
            decode_payload(MSGPACK_PING)
        assert excinfo.value.code == "bad-codec"
        with pytest.raises(TypeError):
            encode_payload(make_message("ping"), codec="msgpack")
        assert encode_payload(make_message("ping"))[:1] == b"J"


# ---------------------------------------------------------------------------
# Codec-level garbage corpus
# ---------------------------------------------------------------------------

def _payload(obj) -> bytes:
    return b"J" + json.dumps(obj).encode()


#: ``{"v": 1, "type": "ping"}`` as msgpack behind the retired ``M`` tag.
MSGPACK_PING = b"M" + b"\x82\xa1v\x01\xa4type\xa4ping"


#: (payload bytes, expected error code).  Every entry must raise WireError —
#: never any other exception, never succeed.
GARBAGE_CORPUS = [
    (b"", "bad-codec"),                                  # empty frame
    (b"\x80\x04\x95pickle", "bad-codec"),                # a pickled worker frame
    (b"Q" + b"{}", "bad-codec"),                         # unknown codec tag
    (b"J" + b"\xff\xfe garbage", "bad-json"),            # not UTF-8
    (b"J" + b"{not json", "bad-json"),                   # not JSON
    (b"J" + b"[1,2,3]", "bad-schema"),                   # JSON but not an object
    (b"J" + b"null", "bad-schema"),
    (_payload({"type": "ping"}), "bad-version"),         # missing version
    (_payload({"v": "1", "type": "ping"}), "bad-version"),   # string version
    (_payload({"v": True, "type": "ping"}), "bad-version"),  # bool-as-int version
    (_payload({"v": 99, "type": "ping"}), "bad-version"),    # wrong version
    (_payload({"v": 1}), "bad-schema"),                  # missing type
    (_payload({"v": 1, "type": "evil"}), "bad-type"),    # unknown type
    (_payload({"v": 1, "type": "ping", "extra": 1}), "bad-schema"),  # unknown field
    (_payload({"v": 1, "type": "submit"}), "bad-schema"),  # missing required
    (_payload({"v": 1, "type": "submit", "tenant": 7, "program": "p",
               "source": "s", "family": "gcc", "budget": {}}), "bad-schema"),
    (_payload({"v": 1, "type": "submit", "tenant": "t", "program": "p",
               "source": "s", "family": "gcc", "budget": []}), "bad-schema"),
    (_payload({"v": 1, "type": "stream", "job_id": "j",
               "from_seq": True}), "bad-schema"),        # bool where int expected
    (_payload({"v": 1, "type": "submitted", "job_id": "j",
               "position": 1.5}), "bad-schema"),         # float where int expected
    (MSGPACK_PING, "bad-codec"),                         # the deleted msgpack codec
]


class TestGarbageCorpus:
    @pytest.mark.parametrize(
        "payload,code", GARBAGE_CORPUS,
        ids=[f"{i:02d}-{code}" for i, (_p, code) in enumerate(GARBAGE_CORPUS)],
    )
    def test_codec_rejects_with_typed_error(self, payload, code):
        with pytest.raises(WireError) as excinfo:
            decode_payload(payload)
        assert excinfo.value.code == code

    @given(blob=st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_never_crash_the_decoder(self, blob):
        """Arbitrary bytes either decode to a valid message or raise typed."""
        try:
            message = decode_payload(blob)
        except WireError:
            return
        validate_message(message)  # anything accepted must be schema-valid

    def test_bool_never_satisfies_int(self):
        with pytest.raises(WireError):
            validate_message({"v": WIRE_VERSION, "type": "event", "job_id": "j",
                              "seq": True, "kind": "k", "data": {}})


# ---------------------------------------------------------------------------
# Live-service corpus: error frames, surviving accept loop, no unpickle
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service():
    from repro.distrib.service import ServiceConfig, TuningService

    svc = TuningService(ServiceConfig(max_frame_bytes=64 * 1024))
    yield svc
    svc.close()


def _connect(service) -> socket.socket:
    sock = socket.create_connection((service.host, service.port), timeout=10)
    welcome = recv_wire(sock)
    assert welcome["type"] == "welcome"
    return sock


def _send_raw(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(_HEADER.pack(len(payload)) + payload)


class TestLiveService:
    def test_garbage_frames_get_error_frames_and_the_loop_survives(self, service):
        """Every corpus entry is answered with an ``error`` frame on one
        persistent connection — the handler never dies mid-session."""
        sock = _connect(service)
        try:
            for payload, code in GARBAGE_CORPUS:
                _send_raw(sock, payload)
                reply = recv_wire(sock)
                assert reply["type"] == "error", (payload, reply)
                assert reply["code"] == code
            # The same connection still serves well-formed requests.
            send_wire(sock, make_message("ping"))
            assert recv_wire(sock)["type"] == "pong"
        finally:
            sock.close()

    def test_oversized_frame_is_refused_then_hung_up(self, service):
        """An oversized announcement is the one unrecoverable case: a typed
        error frame, then the service hangs up (the payload was never read,
        so the stream cannot be resynchronized)."""
        sock = _connect(service)
        try:
            limit = service.config.max_frame_bytes
            sock.sendall(_HEADER.pack(limit + 1))
            reply = recv_wire(sock)
            assert reply["type"] == "error"
            assert reply["code"] == "frame-too-large"
            assert reply["message"] == f"frame announces {limit + 1} bytes (limit {limit})"
            with pytest.raises(ConnectionClosed):
                recv_wire(sock)
        finally:
            sock.close()

    def test_truncated_frame_then_disconnect_leaves_service_alive(self, service):
        """A client that announces N bytes, sends fewer, and vanishes must
        not wedge or kill anything."""
        sock = _connect(service)
        sock.sendall(_HEADER.pack(1000) + b"J{only a fragment")
        sock.close()
        fresh = _connect(service)
        try:
            send_wire(fresh, make_message("ping"))
            assert recv_wire(fresh)["type"] == "pong"
        finally:
            fresh.close()

    def test_server_bound_types_are_refused_as_requests(self, service):
        """Schema-valid but service->client types bounce with bad-type."""
        sock = _connect(service)
        try:
            send_wire(sock, make_message("pong", uptime_seconds=1.0))
            reply = recv_wire(sock)
            assert reply["type"] == "error"
            assert reply["code"] == "bad-type"
        finally:
            sock.close()

    @given(blob=st.binary(min_size=0, max_size=512))
    @settings(max_examples=25, deadline=None)
    def test_random_payloads_against_live_socket(self, service, blob):
        """Random bytes as a frame payload: always an answer or a clean
        close, never silence past the timeout and never a crash."""
        sock = _connect(service)
        try:
            _send_raw(sock, blob)
            try:
                reply = recv_wire(sock)
            except ConnectionClosed:
                pass  # refused hard — acceptable, as long as the next works
            else:
                assert reply["type"] in ("error", "pong")
        finally:
            sock.close()

    def test_no_client_bytes_ever_reach_pickle(self, service, monkeypatch):
        """THE acceptance-criterion test: a full client session — hostile
        frames included — runs with pickle booby-trapped.  Any path from a
        client socket into ``pickle.loads``/``Unpickler`` detonates."""

        def bomb(*args, **kwargs):
            raise AssertionError(
                "client-originated bytes reached pickle — wire format breached"
            )

        monkeypatch.setattr(pickle, "loads", bomb)
        monkeypatch.setattr(pickle, "load", bomb)
        monkeypatch.setattr(pickle, "Unpickler", bomb)

        from repro.distrib.client import ServiceClient

        with ServiceClient(service.address_string()) as client:
            client.ping()
            with pytest.raises(ServiceError) as excinfo:
                client.submit("mallory", "x", "int main(){return 0;}", "no-such",
                              generations=1)
            assert excinfo.value.code == "unknown-family"
            job_id = client.submit(
                "alice", "tiny",
                "int main(void) { int a = 3; return a * a; }", "gcc",
                generations=1, population=2,
            )
            events = list(client.stream(job_id))
            assert events[-1]["kind"] == "done"
        # Hostile raw frames under the same booby trap (0x80 is the pickle
        # protocol-4 opcode — exactly what a worker frame starts with).
        sock = _connect(service)
        try:
            for payload in (b"\x80\x04\x95\x00\x00", b"", b"Jnull"):
                _send_raw(sock, payload)
                assert recv_wire(sock)["type"] == "error"
        finally:
            sock.close()
