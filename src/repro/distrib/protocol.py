"""Wire protocol of the distributed evaluation service.

Every message is one *frame* of :mod:`repro.distrib.transport`: a 4-byte
big-endian unsigned length, then that many bytes of pickle.  Framing over
plain stream sockets (instead of ``multiprocessing.connection``) keeps the
transport inspectable — per-message timeouts, bounded frame sizes, and an
exact EOF story — without any dependency beyond the stdlib.

The conversation is strictly request/response per worker:

* worker → coordinator: :class:`Hello` (registration and heartbeat cadence);
* coordinator → worker: :class:`Welcome` (the assigned worker id);
* coordinator → worker: :class:`EvalBatch` — an evaluator id, an optional
  pickle-once evaluator blob (sent only when the coordinator believes the
  worker does not hold that evaluator), and ``(index, FlagKey)`` tasks;
* worker → coordinator: :class:`BatchResult` (indexed results),
  :class:`BatchFailure` (the evaluator raised — a programming error, not a
  transport failure), or :class:`EvaluatorMissing` (the worker's bounded
  cache evicted that evaluator; the coordinator re-sends with the blob);
* coordinator → worker: :class:`Shutdown`.

Results travel with their submission *index*, never their completion order:
the mapper slots them back by index, which is what keeps distributed runs
bit-for-bit identical to serial ones.

The **artifact plane** rides inside the same conversation.  While a batch is
evaluating (the only time a worker has artifact traffic), the worker may
interleave mesh frames ahead of its batch reply, exactly like heartbeats:

* :class:`ArtifactFetch` (worker → coordinator) asks for one tier-2 entry;
  the coordinator answers with :class:`ArtifactData` frames — the entry's
  encoded payload, chunked so no frame approaches :data:`MAX_FRAME_BYTES`
  (``part_count == 0`` is a miss);
* :class:`ArtifactHave` (worker → coordinator) is the membership probe
  behind batched pushes: the worker only uploads entries the coordinator
  does not already hold, answered by :class:`ArtifactHaveReply`;
* :class:`ArtifactPush` (worker → coordinator) carries freshly produced
  entries, each as ``(key, part_index, part_count, chunk)`` quads using the
  same chunking, fire-and-forget (the stream is ordered, so every push is
  absorbed before the batch reply is parsed).

Payloads are :meth:`~repro.tuner.store.ArtifactStore.encode_entry` bytes —
digest plus embedded key — so every receiver re-verifies them on arrival
and on every later load: a corrupt, truncated, or aliased transfer reads as
a miss by construction, never as a wrong artifact.
"""

from __future__ import annotations

import hmac
import os
import pickle
import socket
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.distrib.errors import AuthenticationError, ProtocolError
from repro.distrib.transport import recv_exact, recv_length, send_frame

#: Corruption guard, not a budget: an evaluator blob (compiler + baseline
#: image + source) is tens of kilobytes, a batch of flag keys far less.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hello:
    """Worker registration: one session, one evaluation slot.

    ``heartbeat_interval`` is the cadence (seconds) this worker promises
    :class:`Heartbeat` frames at, so the coordinator can derive its
    staleness windows per worker instead of guessing; ``0`` means the
    worker sends no heartbeats.  Defaulted for version skew: an older
    worker's Hello reads as the stock 15s cadence.
    """

    heartbeat_interval: float = 15.0


@dataclass(frozen=True)
class Welcome:
    """Coordinator's handshake reply: the worker's assigned id.

    ``mesh`` advertises whether this coordinator serves the artifact plane;
    ``mesh_budget_bytes`` is the per-machine transfer budget it enforces
    (``None`` = unbounded).  ``telemetry`` advertises that this coordinator
    aggregates :class:`TelemetrySummary` frames.  Workers built against an
    older coordinator see the defaults and simply never send the
    corresponding frames.
    """

    worker_id: int
    mesh: bool = False
    mesh_budget_bytes: Optional[int] = None
    telemetry: bool = False


@dataclass(frozen=True)
class EvalBatch:
    """A slice of one generation: ``(submission index, flag key)`` tasks.

    ``blob`` is the pickled evaluator, included only when the coordinator
    believes this worker has never seen (or has evicted) ``evaluator_id``.
    """

    evaluator_id: int
    tasks: Tuple[Tuple[int, Tuple[str, ...]], ...]
    blob: Optional[bytes] = None


@dataclass(frozen=True)
class BatchResult:
    """Indexed :class:`~repro.tuner.evaluation.CandidateResult` objects."""

    evaluator_id: int
    results: Tuple[Tuple[int, object], ...]


@dataclass(frozen=True)
class BatchFailure:
    """The worker's evaluator raised — a programming error to propagate,
    never a reason to re-dispatch.  ``exception`` is the original exception
    when it survives pickling, else ``None`` (``message`` always survives)."""

    evaluator_id: int
    message: str
    exception: Optional[BaseException] = None


@dataclass(frozen=True)
class EvaluatorMissing:
    """The worker does not hold ``evaluator_id`` (bounded cache eviction)."""

    evaluator_id: int


@dataclass(frozen=True)
class Heartbeat:
    """Worker → coordinator, while a batch is evaluating: still alive.

    Each frame arrives inside the coordinator's per-recv timeout window and
    resets it, so a batch that legitimately outlives the nominal per-task
    budget (a pathological candidate, a slow machine) no longer reads as a
    dead worker — the worker only fails when it stops *sending*, not when it
    stops *finishing*.
    """

    worker_id: int = 0


@dataclass(frozen=True)
class TelemetrySummary:
    """Worker → coordinator, interleaved ahead of a batch reply: a compact
    snapshot of this session's utilization counters (batches, candidates,
    busy seconds, per-stage seconds, cache-tier hits, mesh bytes).
    Observe-only by construction — the coordinator records it for
    the fleet view and never acts on it.  Sent only when the
    :class:`Welcome` advertised ``telemetry=True``, so version skew in
    either direction degrades to "no fleet view", never to an error.
    """

    worker_id: int
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Shutdown:
    """Coordinator → worker: drain and exit cleanly."""


# -- artifact plane ---------------------------------------------------------

#: Chunk size for artifact payload transfer.  Entries are split into parts of
#: at most this many bytes so a single artifact can never produce a frame
#: anywhere near :data:`MAX_FRAME_BYTES`, and a slow transfer keeps feeding
#: the receiver's per-recv timeout window frame by frame.
ARTIFACT_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class ArtifactHave:
    """Worker → coordinator: which of ``keys`` does the mesh already hold?

    Sent before a batched push so the worker only uploads entries the
    coordinator is missing — the mesh must never amplify traffic by
    re-sending artifacts every machine already has.
    """

    keys: Tuple[object, ...]


@dataclass(frozen=True)
class ArtifactHaveReply:
    """Coordinator → worker: membership bits, aligned with the probe's keys."""

    present: Tuple[bool, ...]


@dataclass(frozen=True)
class ArtifactFetch:
    """Worker → coordinator: serve one tier-2 entry from the mesh store."""

    key: object


@dataclass(frozen=True)
class ArtifactData:
    """Coordinator → worker: one chunk of a fetched entry's encoded payload.

    Parts arrive in order, ``part_index`` running ``0 .. part_count - 1``.
    ``part_count == 0`` (with empty ``data``) is a miss — the mesh does not
    hold the entry, or serving it would exceed the machine's byte budget.
    """

    key: object
    part_index: int
    part_count: int
    data: bytes


@dataclass(frozen=True)
class ArtifactPush:
    """Worker → coordinator: freshly produced entries, fire-and-forget.

    ``entries`` holds ``(key, part_index, part_count, chunk)`` quads; large
    payloads span consecutive quads (and may span consecutive pushes), small
    ones batch many-per-frame.  Receivers re-verify each reassembled payload
    before storing it, so a tampered push is dropped, never served.
    """

    entries: Tuple[Tuple[object, int, int, bytes], ...]


def chunk_payload(payload: bytes) -> Tuple[bytes, ...]:
    """Split an encoded entry into :data:`ARTIFACT_CHUNK_BYTES`-sized parts."""
    if not payload:
        return (b"",)
    return tuple(
        payload[offset:offset + ARTIFACT_CHUNK_BYTES]
        for offset in range(0, len(payload), ARTIFACT_CHUNK_BYTES)
    )


MESSAGE_TYPES = (
    Hello, Welcome, EvalBatch, BatchResult, BatchFailure, EvaluatorMissing,
    Heartbeat, TelemetrySummary, Shutdown,
    ArtifactHave, ArtifactHaveReply, ArtifactFetch, ArtifactData, ArtifactPush,
)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def send_message(sock: socket.socket, message: object) -> None:
    """Pickle ``message`` and write it as one length-prefixed frame."""
    if not isinstance(message, MESSAGE_TYPES):
        raise ProtocolError(f"refusing to send non-protocol object {type(message).__name__}")
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"{type(message).__name__} frame of {len(payload)} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte limit"
        )
    send_frame(sock, payload)


def recv_message(sock: socket.socket) -> object:
    """Read one frame and unpickle it; type-checked against the protocol."""
    length = recv_length(sock)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame announces {length} bytes (limit {MAX_FRAME_BYTES}); "
            "the stream is corrupt or the peer speaks another protocol"
        )
    payload = recv_exact(sock, length)
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        raise ProtocolError(f"frame did not unpickle: {exc}") from exc
    if not isinstance(message, MESSAGE_TYPES):
        raise ProtocolError(f"unexpected message type {type(message).__name__}")
    return message


# ---------------------------------------------------------------------------
# Authentication
# ---------------------------------------------------------------------------
#
# ``pickle.loads`` on attacker-controlled bytes is remote code execution, so
# a coordinator bound beyond loopback must never unpickle before the peer
# proves knowledge of the shared ``authkey``.  The handshake is a *mutual*
# HMAC-SHA256 challenge-response over raw (never pickled) frames — the same
# scheme as ``multiprocessing.connection``, both directions: the coordinator
# challenges the worker first, then the worker challenges the coordinator
# (a rogue "coordinator" must not be able to feed workers poisoned blobs).

#: Raw handshake frames are tiny; anything bigger is not our handshake.
_MAX_AUTH_FRAME = 256
_CHALLENGE_PREFIX = b"repro-distrib-challenge:"
_DIGEST_PREFIX = b"repro-distrib-digest:"
_AUTH_OK = b"repro-distrib-ok"


def _recv_raw(sock: socket.socket) -> bytes:
    length = recv_length(sock)
    if length > _MAX_AUTH_FRAME:
        raise AuthenticationError(
            f"handshake frame of {length} bytes (limit {_MAX_AUTH_FRAME}); "
            "peer is not speaking the authentication protocol"
        )
    return recv_exact(sock, length)


def normalize_authkey(authkey: Union[str, bytes, None]) -> Optional[bytes]:
    if authkey is None:
        return None
    return authkey.encode() if isinstance(authkey, str) else bytes(authkey)


def _challenge(sock: socket.socket, authkey: bytes) -> None:
    """Challenge the peer; raises :class:`AuthenticationError` on mismatch."""
    nonce = os.urandom(32)
    send_frame(sock, _CHALLENGE_PREFIX + nonce, during="handshake")
    reply = _recv_raw(sock)
    expected = _DIGEST_PREFIX + hmac.new(authkey, nonce, "sha256").digest()
    if not hmac.compare_digest(reply, expected):
        raise AuthenticationError("peer failed the authkey challenge")
    send_frame(sock, _AUTH_OK, during="handshake")


def _respond(sock: socket.socket, authkey: bytes) -> None:
    """Answer the peer's challenge; raises on rejection."""
    frame = _recv_raw(sock)
    if not frame.startswith(_CHALLENGE_PREFIX):
        raise AuthenticationError("peer did not send an authkey challenge")
    nonce = frame[len(_CHALLENGE_PREFIX):]
    digest = hmac.new(authkey, nonce, "sha256").digest()
    send_frame(sock, _DIGEST_PREFIX + digest, during="handshake")
    if _recv_raw(sock) != _AUTH_OK:
        raise AuthenticationError("peer rejected our authkey digest")


def authenticate(sock: socket.socket, authkey: bytes, server: bool) -> None:
    """Run the mutual handshake (coordinator passes ``server=True``)."""
    if server:
        _challenge(sock, authkey)
        _respond(sock, authkey)
    else:
        _respond(sock, authkey)
        _challenge(sock, authkey)


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------

def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; a bare ``":0"`` means loopback."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not port.lstrip("-").isdigit():
        raise ValueError(f"expected HOST:PORT, got {address!r}")
    number = int(port)
    if not 0 <= number <= 65535:
        raise ValueError(f"port {number} out of range in {address!r}")
    return (host or "127.0.0.1", number)


def format_address(host: str, port: int) -> str:
    return f"{host}:{port}"
