"""The client-plane wire format: versioned, schema'd, pickle-free.

The worker plane (:mod:`repro.distrib.protocol`) pickles its frames — fine
between mutually authenticated machines the operator controls, untenable for
a public-facing job API: ``pickle.loads`` on client bytes is remote code
execution.  The service plane therefore rides the *same* length-prefixed
frames (:mod:`repro.distrib.transport`) but carries JSON, decoded with
:func:`json.loads` and validated field-by-field against an explicit schema
before any handler sees it.  No code path from a client socket ever reaches
``pickle.loads`` — the fuzz battery in ``tests/test_wire.py`` asserts exactly
that with a booby-trapped pickle.

Every message is a JSON object carrying ``"v"`` (the wire version) and
``"type"`` (one of :data:`SCHEMAS`); unknown types, unknown fields, missing
required fields, and type-confused values all raise :class:`WireError` with
a stable machine-readable ``code`` — the service answers those with a clean
``error`` frame and keeps accepting.  Frames announcing more than the
configured byte cap are refused *before* the payload is read.

The payload's first byte is the codec tag, and ``J`` (JSON) is the only
one: a peer speaking anything else — a pickled worker frame, which starts
``0x80``, or the ``M`` (msgpack) tag no client of ours ever sent — is
rejected as ``bad-codec`` instead of being parsed.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Optional, Sequence, Tuple

from repro.distrib.errors import ServiceError
from repro.distrib.transport import recv_exact, recv_length, send_frame

#: Bumped on any schema change; both sides send it in every frame and the
#: decoder rejects mismatches, so version skew is a typed error, not a
#: field-by-field surprise.
WIRE_VERSION = 1

#: Default cap on one client frame.  Sources are capped far below this by
#: admission control; everything else on the client plane is tiny.
MAX_WIRE_FRAME_BYTES = 8 * 1024 * 1024

_CODEC_JSON = b"J"


class WireError(ServiceError):
    """A frame the wire layer refuses; ``code`` is the stable error status."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(code, message)


class FrameTooLarge(WireError):
    """The header announces more bytes than the configured cap.

    The stream cannot be resynchronized after this (the oversized payload
    was never read), so the service answers one error frame and hangs up.
    """

    def __init__(self, announced: int, limit: int) -> None:
        super().__init__(
            "frame-too-large",
            f"frame announces {announced} bytes (limit {limit})",
        )


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------
#
# A field spec is (types, required).  ``types`` is a tuple of accepted Python
# types after JSON decoding; ``bool`` is never accepted where ``int`` is
# (JSON ``true`` must not pass as 1).  ``None`` in
# ``types`` marks the field nullable.  Semantic validation (budget ranges,
# source caps) belongs to admission control in :mod:`repro.distrib.jobs` —
# the wire layer owns shape only.

_STR = ((str,), True)
_STR_OPT = ((str, None), False)
_INT = ((int,), True)
_INT_OPT = ((int, None), False)
_NUM_OPT = ((int, float, None), False)
_DICT = ((dict,), True)
_DICT_OPT = ((dict, None), False)
_LIST = ((list,), True)
_BOOL_OPT = ((bool, None), False)

#: type name -> {field name: (accepted types, required)}.  The fuzz battery
#: iterates this table, so adding a message type automatically enrolls it in
#: the round-trip and garbage corpora.
SCHEMAS: Dict[str, Dict[str, Tuple[tuple, bool]]] = {
    # client -> service
    "submit": {
        "tenant": _STR,
        "program": _STR,
        "source": _STR,
        "family": _STR,
        "budget": _DICT,
        "priority": _INT_OPT,
        "token": _STR_OPT,
    },
    "status": {"job_id": _STR, "token": _STR_OPT},
    "jobs": {"tenant": _STR_OPT, "token": _STR_OPT},
    "stream": {"job_id": _STR, "from_seq": _INT_OPT, "token": _STR_OPT},
    "cancel": {"job_id": _STR, "token": _STR_OPT},
    "accounting": {"tenant": _STR_OPT, "token": _STR_OPT},
    "ping": {"token": _STR_OPT},
    # service -> client
    "welcome": {"service": _STR, "families": _LIST},
    "submitted": {"job_id": _STR, "position": _INT},
    "job": {"job": _DICT},
    "job_list": {"rows": _LIST},
    "event": {"job_id": _STR, "seq": _INT, "kind": _STR, "data": _DICT},
    "accounts": {"tenants": _DICT},
    "pong": {"uptime_seconds": _NUM_OPT},
    "error": {"code": _STR, "message": _STR, "job_id": _STR_OPT},
    "cancelled": {"job_id": _STR, "state": _STR},
}


def _type_ok(value: object, types: tuple) -> bool:
    for accepted in types:
        if accepted is None:
            if value is None:
                return True
        elif isinstance(value, accepted):
            # JSON has distinct bool/int; a bool must never satisfy an int
            # (or float) slot unless bool itself is in the accepted set.
            if isinstance(value, bool) and bool not in types:
                continue
            return True
    return False


def validate_message(message: object) -> Dict[str, object]:
    """Schema-check one decoded payload; returns it typed as a dict.

    Raises :class:`WireError` with a stable code on every violation —
    the single choke point between client bytes and service handlers.
    """
    if not isinstance(message, dict):
        raise WireError(
            "bad-schema", f"expected a JSON object, got {type(message).__name__}"
        )
    version = message.get("v")
    if not isinstance(version, int) or isinstance(version, bool):
        raise WireError("bad-version", "missing or non-integer wire version 'v'")
    if version != WIRE_VERSION:
        raise WireError(
            "bad-version", f"wire version {version} (this side speaks {WIRE_VERSION})"
        )
    kind = message.get("type")
    if not isinstance(kind, str):
        raise WireError("bad-schema", "missing message 'type'")
    schema = SCHEMAS.get(kind)
    if schema is None:
        raise WireError("bad-type", f"unknown message type {kind!r}")
    for name, value in message.items():
        if name in ("v", "type"):
            continue
        spec = schema.get(name)
        if spec is None:
            raise WireError("bad-schema", f"{kind}: unknown field {name!r}")
        types, _required = spec
        if not _type_ok(value, types):
            raise WireError(
                "bad-schema",
                f"{kind}.{name}: expected "
                f"{'/'.join('null' if t is None else t.__name__ for t in types)}, "
                f"got {type(value).__name__}",
            )
    for name, (types, required) in schema.items():
        if required and name not in message:
            raise WireError("bad-schema", f"{kind}: missing required field {name!r}")
    return message


def make_message(msg_type: str, **fields: object) -> Dict[str, object]:
    """Build and validate one outgoing message (None-valued fields dropped).

    The first parameter is positional-only in spirit (named ``msg_type``
    so it cannot collide with schema fields like ``event.kind``).
    """
    message: Dict[str, object] = {"v": WIRE_VERSION, "type": msg_type}
    message.update({name: value for name, value in fields.items() if value is not None})
    return validate_message(message)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

def encode_payload(message: Dict[str, object]) -> bytes:
    """Validated message -> codec tag + encoded bytes."""
    validate_message(message)
    return _CODEC_JSON + json.dumps(
        message, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_payload(payload: bytes) -> Dict[str, object]:
    """Codec tag + bytes -> validated message.  Never touches pickle."""
    if not payload:
        raise WireError("bad-codec", "empty frame")
    tag, body = payload[:1], payload[1:]
    if tag != _CODEC_JSON:
        raise WireError("bad-codec", f"unknown codec tag 0x{tag.hex()}")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError("bad-json", f"frame is not valid JSON: {exc}") from None
    return validate_message(message)


# ---------------------------------------------------------------------------
# Framed socket I/O
# ---------------------------------------------------------------------------

def send_wire(sock: socket.socket, message: Dict[str, object]) -> None:
    """Write one validated message as a length-prefixed frame."""
    send_frame(sock, encode_payload(message))


def recv_wire(sock: socket.socket,
              max_frame_bytes: int = MAX_WIRE_FRAME_BYTES) -> Dict[str, object]:
    """Read one frame and decode/validate it.

    Raises :class:`FrameTooLarge` before reading an oversized payload,
    :class:`WireError` for anything that read fully but failed to decode,
    and :class:`~repro.distrib.errors.ConnectionClosed` on EOF/truncation.
    """
    length = recv_length(sock)
    if length > max_frame_bytes:
        raise FrameTooLarge(length, max_frame_bytes)
    return decode_payload(recv_exact(sock, length))


def error_message(code: str, message: str,
                  job_id: Optional[str] = None) -> Dict[str, object]:
    """The canonical error frame (trimmed: a reason, never a traceback)."""
    return make_message("error", code=code, message=message[:500], job_id=job_id)


__all__ = [
    "WIRE_VERSION",
    "MAX_WIRE_FRAME_BYTES",
    "SCHEMAS",
    "WireError",
    "FrameTooLarge",
    "validate_message",
    "make_message",
    "encode_payload",
    "decode_payload",
    "send_wire",
    "recv_wire",
    "error_message",
]
