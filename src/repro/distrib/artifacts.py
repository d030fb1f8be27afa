"""The artifact plane: tier-2 entries exchanged through the coordinator.

PR 5 gave every machine its own disk-backed :class:`~repro.tuner.store.
ArtifactStore`, which made *restarts* warm but left the fleet's economics
lopsided: two machines in one campaign routinely pay the same
``(compiler, source, flags)`` compile twice, and a worker joining
mid-campaign starts cold.  The mesh closes that gap with two moves, both
riding the existing worker connection (no second socket, no new listener):

* **push-after-put** — when a batch finishes, the worker offers every
  freshly produced tier-2 entry to the coordinator in one batched exchange:
  an :class:`~repro.distrib.protocol.ArtifactHave` membership probe first,
  then :class:`~repro.distrib.protocol.ArtifactPush` frames carrying only
  the entries the coordinator does not already hold (the mesh must never
  amplify traffic by re-uploading what every machine has);
* **fetch-on-miss** — when a worker's own memory and disk tiers miss, it
  asks the coordinator (:class:`~repro.distrib.protocol.ArtifactFetch`)
  before paying the compile, so any machine's past work serves the whole
  fleet.

Trust and integrity are inherited from the store, not re-invented: payloads
travel in :meth:`~repro.tuner.store.ArtifactStore.encode_entry` form (magic,
payload digest, embedded full key) and every receiver re-verifies before
storing or using them — a poisoned, corrupt, or aliased transfer reads as a
*miss* by construction, never as a wrong artifact.  The transport is already
authenticated (the distrib handshake), so the mesh adds no new unpickle
surface beyond what evaluator blobs established.

Failure policy: the mesh is an *optimization*.  Every network error on the
worker side is absorbed internally and permanently disables the client for
the session (all further lookups read as misses); it must never convert a
healthy evaluation into a :class:`~repro.distrib.protocol.BatchFailure`.

Traffic is bounded per machine: ``budget_bytes`` caps the total artifact
bytes a worker may move (both directions).  Pushes are budgeted by the
worker (it knows each payload's size before sending); fetches are budgeted
by the coordinator (it knows the payload size before serving and answers an
over-budget request with a miss), so the cap holds even against a
non-conforming client.

Both ends count through one :class:`~repro.telemetry.Counters` each (prefix
``mesh``): their ``stats()`` and ``/metrics`` carry the same names and
values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.distrib.errors import ConnectionClosed, ProtocolError
from repro.telemetry import Counters, get_sink
from repro.distrib.protocol import (
    ArtifactData,
    ArtifactFetch,
    ArtifactHave,
    ArtifactHaveReply,
    ArtifactPush,
    Shutdown,
    chunk_payload,
    recv_message,
)
from repro.tuner.store import ArtifactStore

#: Entries above this size never travel the mesh (pushes skip them, pushed
#: reassemblies above it are dropped): one pathological artifact must not
#: eat a machine's whole transfer budget or the coordinator's memory.
MESH_MAX_ENTRY_BYTES = 32 * 1024 * 1024

#: A single :class:`ArtifactPush` frame batches entry chunks up to roughly
#: this many payload bytes — small entries share frames, large ones span
#: several, and no frame approaches ``MAX_FRAME_BYTES``.
PUSH_FRAME_BUDGET = 4 * 1024 * 1024

#: Bound on the worker-side offer queue: a batch that produces more fresh
#: entries than this pushes only the most recent ones (older offers are the
#: most likely to have been pushed by whoever raced us to the key anyway).
OFFER_QUEUE_LIMIT = 512


class CoordinatorArtifactPlane:
    """Coordinator-side mesh endpoint: one shared store, many workers.

    Stateless across requests except for the store itself and per-handle
    budget/reassembly state (which lives on the :class:`WorkerHandle`, so a
    discarded worker's half-pushed entries vanish with it).  All methods are
    called from :meth:`Coordinator.run_batch` while it holds the handle's
    lock, so per-handle state needs no extra locking; the counters are
    shared across workers and lock themselves.
    """

    def __init__(self, store: ArtifactStore, budget_bytes: Optional[int] = None) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1 or None, got {budget_bytes}")
        self.store = store
        self.budget_bytes = budget_bytes
        #: ``pushes_rejected`` covers tampered, orphaned, oversize and
        #: over-budget pushes; ``fetches_missed`` absent and over-budget
        #: fetches; ``bytes_in`` counts accepted pushes only.
        self.counters = Counters(
            "mesh", "pushes_accepted", "pushes_rejected", "fetches_served",
            "fetches_missed", "budget_denied", "bytes_in", "bytes_out",
        )

    # -- request handlers (one per worker-initiated frame type) ------------------

    def handle(self, handle, message, send: Callable[[object], None]) -> None:
        if isinstance(message, ArtifactHave):
            send(ArtifactHaveReply(
                tuple(self.store.contains(key) for key in message.keys)
            ))
        elif isinstance(message, ArtifactFetch):
            self._serve_fetch(handle, message.key, send)
        elif isinstance(message, ArtifactPush):
            self._absorb_push(handle, message.entries)
        else:  # pragma: no cover - callers dispatch on type first
            raise ProtocolError(f"not an artifact frame: {type(message).__name__}")

    def _serve_fetch(self, handle, key, send: Callable[[object], None]) -> None:
        payload = self.store.get_encoded(key)
        if payload is None:
            self.counters.incr("fetches_missed")
            send(ArtifactData(key, 0, 0, b""))
            return
        if (self.budget_bytes is not None
                and handle.mesh_bytes + len(payload) > self.budget_bytes):
            # The budget is enforced here, where the payload size is known
            # *before* any byte travels: an over-budget machine just sees
            # misses from now on and pays its own compiles locally.
            self.counters.incr("budget_denied")
            self.counters.incr("fetches_missed")
            send(ArtifactData(key, 0, 0, b""))
            return
        parts = chunk_payload(payload)
        for index, part in enumerate(parts):
            send(ArtifactData(key, index, len(parts), part))
        handle.mesh_bytes += len(payload)
        self.counters.incr("fetches_served")
        self.counters.incr("bytes_out", len(payload))
        get_sink().observe("mesh.transfer.bytes", float(len(payload)))

    def _absorb_push(self, handle, entries) -> None:
        for key, part_index, part_count, chunk in entries:
            pending = handle.mesh_parts.get(repr(key))
            if part_index == 0:
                pending = {"key": key, "count": part_count, "parts": [], "size": 0}
                handle.mesh_parts[repr(key)] = pending
            elif (pending is None or pending["count"] != part_count
                    or len(pending["parts"]) != part_index):
                # Out-of-order or orphaned chunk: drop the whole reassembly.
                handle.mesh_parts.pop(repr(key), None)
                self.counters.incr("pushes_rejected")
                continue
            pending["parts"].append(chunk)
            pending["size"] += len(chunk)
            if pending["size"] > MESH_MAX_ENTRY_BYTES:
                handle.mesh_parts.pop(repr(key), None)
                self.counters.incr("pushes_rejected")
                continue
            if len(pending["parts"]) < pending["count"]:
                continue
            handle.mesh_parts.pop(repr(key), None)
            payload = b"".join(pending["parts"])
            handle.mesh_bytes += len(payload)
            if (self.budget_bytes is not None
                    and handle.mesh_bytes - len(payload) >= self.budget_bytes):
                # The bytes already traveled (a conforming client would not
                # have sent them), but an over-budget machine's pushes are
                # not absorbed.
                self.counters.incr("budget_denied")
                self.counters.incr("pushes_rejected")
                continue
            # ``put_encoded`` re-verifies digest + embedded key: a tampered
            # or corrupt push is rejected here, never stored.
            if self.store.put_encoded(pending["key"], payload):
                self.counters.incr("pushes_accepted")
                self.counters.incr("bytes_in", len(payload))
                get_sink().observe("mesh.transfer.bytes", float(len(payload)))
            else:
                self.counters.incr("pushes_rejected")

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters for campaign summaries and manifests."""
        return {
            **self.counters.snapshot(),
            "budget_bytes": self.budget_bytes,
            "store": self.store.stats(),
        }


def handle_artifact_message(plane: Optional[CoordinatorArtifactPlane],
                            handle, message,
                            send: Callable[[object], None]) -> None:
    """Dispatch one worker-initiated artifact frame.

    A coordinator without a mesh store still *answers* (everything is a
    miss, pushes are dropped) rather than erroring: a worker that was told
    ``mesh=False`` in its Welcome never sends these, but a clean degrade
    beats a protocol kill if one does.
    """
    if plane is not None:
        plane.handle(handle, message, send)
    elif isinstance(message, ArtifactHave):
        send(ArtifactHaveReply(tuple(False for _ in message.keys)))
    elif isinstance(message, ArtifactFetch):
        send(ArtifactData(message.key, 0, 0, b""))
    # ArtifactPush without a plane: silently dropped.


class WorkerMeshClient:
    """Worker-side mesh endpoint: fetch-on-miss, batched push-after-batch.

    Lives for one worker session and shares the session's socket.  All
    outbound frames go through ``sender.send`` (the heartbeat sender's
    write lock — two threads interleaving ``sendall`` would corrupt
    framing) and each full request/reply round trip is serialized under
    ``_rpc_lock``, because the cache it hooks is process-global and any
    thread that reads that cache may miss into it.

    The client is *armed* only between :meth:`begin_batch` and
    :meth:`end_batch` — the only window in which the worker owns the socket
    for reading (the main loop is blocked in evaluation, and the
    coordinator's ``run_batch`` sends nothing unprompted).  Outside that
    window :meth:`fetch` returns ``None`` immediately.

    Any transport or protocol error expires the client for good: the mesh
    degrades to misses, the batch still completes, and the main loop
    discovers the dead socket itself — a mesh hiccup must never surface as
    a :class:`~repro.distrib.protocol.BatchFailure`.
    """

    def __init__(self, sock, sender, budget_bytes: Optional[int] = None,
                 log: Optional[Callable[[str], None]] = None) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError(f"budget_bytes must be >= 1 or None, got {budget_bytes}")
        self._sock = sock
        self._sender = sender
        self.budget_bytes = budget_bytes
        self._log = log if log is not None else (lambda message: None)
        self._rpc_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._active = False
        self._dead = False
        self.shutdown_seen = False
        #: key -> value offers accumulated during the current batch.
        self._pending: "OrderedDict[Tuple, object]" = OrderedDict()
        #: Keys the coordinator is known to hold (probed present, or pushed
        #: by us): never offered again.
        self._known_remote: Set[str] = set()
        self._caches: List[object] = []
        #: ``push_skipped`` counts entries over :data:`MESH_MAX_ENTRY_BYTES`;
        #: ``budget_denied`` fetches and pushes refused by ``budget_bytes``.
        self.counters = Counters(
            "mesh", "fetches", "fetch_hits", "fetch_misses", "verify_failures",
            "pushes_sent", "push_skipped", "budget_denied", "bytes_sent",
            "bytes_received",
        )

    # -- lifecycle ---------------------------------------------------------------

    def begin_batch(self) -> None:
        with self._state_lock:
            self._active = True

    def end_batch(self) -> None:
        with self._state_lock:
            self._active = False
            self._pending.clear()

    def track_cache(self, cache) -> None:
        """Remember a cache this client was attached to, for :meth:`detach`."""
        with self._state_lock:
            if cache is not None and cache not in self._caches:
                self._caches.append(cache)

    def detach(self) -> None:
        """Unhook this client from every cache it was attached to.

        Caches are process-global (shared by store directory); a finished
        session's mesh client must not linger on them and serve a later
        session's lookups over a closed socket.
        """
        with self._state_lock:
            caches, self._caches = self._caches, []
        for cache in caches:
            if getattr(cache, "mesh", None) is self:
                cache.mesh = None

    def _expire(self, reason: str) -> None:
        with self._state_lock:
            if self._dead:
                return
            self._dead = True
        self._log(f"worker mesh: disabled for this session: {reason}")

    def _usable(self) -> bool:
        with self._state_lock:
            return self._active and not self._dead

    def _budget_left(self) -> Optional[int]:
        if self.budget_bytes is None:
            return None
        counts = self.counters.snapshot()
        return max(0, self.budget_bytes - counts["bytes_sent"] - counts["bytes_received"])

    # -- fetch-on-miss -----------------------------------------------------------

    def fetch(self, key: Tuple) -> Optional[object]:
        """The mesh's value for ``key``, verified, or ``None`` (miss)."""
        if not self._usable():
            return None
        left = self._budget_left()
        if left is not None and left <= 0:
            self.counters.incr("budget_denied")
            return None
        with self._rpc_lock:
            if not self._usable():
                return None
            self.counters.incr("fetches")
            try:
                self._sender.send(ArtifactFetch(key))
                payload = self._recv_payload(key)
            except (ConnectionClosed, ProtocolError, OSError, TimeoutError) as exc:
                self._expire(f"{type(exc).__name__}: {exc}")
                return None
        if payload is None:
            self.counters.incr("fetch_misses")
            return None
        self.counters.incr("bytes_received", len(payload))
        get_sink().observe("mesh.transfer.bytes", float(len(payload)))
        value, ok = ArtifactStore.decode_entry(payload, key)
        if not ok:
            # Corruption or tampering in flight: a verified miss, by
            # construction — the caller falls through to compiling.
            self.counters.incr("verify_failures")
            return None
        self.counters.incr("fetch_hits")
        # The coordinator holds it; no point offering it back.
        self._known_remote.add(repr(key))
        return value

    def _recv_payload(self, key: Tuple) -> Optional[bytes]:
        """Collect one fetch reply's :class:`ArtifactData` parts, in order."""
        parts: List[bytes] = []
        expected_count: Optional[int] = None
        received = 0
        while True:
            message = recv_message(self._sock)
            if isinstance(message, Shutdown):
                # The coordinator is tearing down mid-batch; remember it so
                # the session can exit cleanly instead of reporting a loss.
                self.shutdown_seen = True
                self._expire("coordinator shut down mid-fetch")
                return None
            if not isinstance(message, ArtifactData) or message.key != key:
                raise ProtocolError(
                    f"expected ArtifactData for our fetch, got {type(message).__name__}"
                )
            if message.part_count == 0:
                return None  # an honest miss (absent, corrupt, or over budget)
            if expected_count is None:
                expected_count = message.part_count
            if (message.part_count != expected_count
                    or message.part_index != len(parts)):
                raise ProtocolError("artifact chunks arrived out of order")
            received += len(message.data)
            if received > MESH_MAX_ENTRY_BYTES:
                raise ProtocolError(
                    f"artifact transfer exceeded {MESH_MAX_ENTRY_BYTES} bytes"
                )
            parts.append(message.data)
            if len(parts) == expected_count:
                return b"".join(parts)

    # -- push-after-put ----------------------------------------------------------

    def offer(self, key: Tuple, value: object) -> None:
        """Queue a freshly produced entry for the end-of-batch push."""
        with self._state_lock:
            if not self._active or self._dead:
                return
            if repr(key) in self._known_remote:
                return
            self._pending[key] = value
            self._pending.move_to_end(key)
            while len(self._pending) > OFFER_QUEUE_LIMIT:
                self._pending.popitem(last=False)

    def flush(self) -> None:
        """Push the batch's fresh entries the coordinator does not hold.

        One membership probe, then only the absent entries travel — batched
        into frames of roughly :data:`PUSH_FRAME_BUDGET` payload bytes.
        Called once per batch, before the batch reply, so the ordered
        stream guarantees the coordinator absorbs every push first.
        """
        with self._state_lock:
            pending = list(self._pending.items())
            self._pending.clear()
        if not pending or not self._usable():
            return
        keys = tuple(key for key, _value in pending)
        with self._rpc_lock:
            try:
                self._sender.send(ArtifactHave(keys))
                reply = self._recv_have_reply(len(keys))
                if reply is None:
                    return
                quads: List[Tuple[Tuple, int, int, bytes]] = []
                frame_bytes = 0
                for (key, value), present in zip(pending, reply):
                    if present:
                        self._known_remote.add(repr(key))
                        continue
                    try:
                        payload = ArtifactStore.encode_entry(key, value)
                    except Exception:
                        continue  # unpicklable value: nothing to share
                    if len(payload) > MESH_MAX_ENTRY_BYTES:
                        self.counters.incr("push_skipped")
                        continue
                    left = self._budget_left()
                    if left is not None and len(payload) > left:
                        self.counters.incr("budget_denied")
                        continue
                    parts = chunk_payload(payload)
                    for index, part in enumerate(parts):
                        if quads and frame_bytes + len(part) > PUSH_FRAME_BUDGET:
                            self._sender.send(ArtifactPush(tuple(quads)))
                            quads, frame_bytes = [], 0
                        quads.append((key, index, len(parts), part))
                        frame_bytes += len(part)
                    self.counters.incr("pushes_sent")
                    self.counters.incr("bytes_sent", len(payload))
                    get_sink().observe("mesh.transfer.bytes", float(len(payload)))
                    self._known_remote.add(repr(key))
                if quads:
                    self._sender.send(ArtifactPush(tuple(quads)))
            except (ConnectionClosed, ProtocolError, OSError, TimeoutError) as exc:
                self._expire(f"{type(exc).__name__}: {exc}")

    def _recv_have_reply(self, count: int) -> Optional[Tuple[bool, ...]]:
        message = recv_message(self._sock)
        if isinstance(message, Shutdown):
            self.shutdown_seen = True
            self._expire("coordinator shut down mid-push")
            return None
        if not isinstance(message, ArtifactHaveReply) or len(message.present) != count:
            raise ProtocolError(
                f"expected an ArtifactHaveReply of {count}, got {type(message).__name__}"
            )
        return message.present

    # -- introspection -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._state_lock:
            dead = self._dead
        return {**self.counters.snapshot(), "budget_bytes": self.budget_bytes, "dead": dead}
