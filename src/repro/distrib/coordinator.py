"""The coordinator: the campaign-side endpoint workers register with.

The coordinator owns the listening socket and the worker registry; it does
*not* own any scheduling policy.  :class:`~repro.distrib.mapper.
DistributedMapper` decides which keys go to which worker and what happens
when one dies — the coordinator only offers the two primitives that policy
needs: a snapshot of live workers and a synchronous per-worker batch RPC
(:meth:`Coordinator.run_batch`).

Evaluator blobs are pickled once per program (by the mapper) and shipped to
each worker at most once: :meth:`run_batch` tracks which evaluator ids a
worker holds and omits the blob afterwards.  The worker's cache is bounded,
so that book-keeping can go stale — the :class:`~repro.distrib.protocol.
EvaluatorMissing` reply self-heals it by re-sending the blob.
"""

from __future__ import annotations

import functools
import itertools
import logging
import socket
import statistics
import threading
import time
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.distrib import transport
from repro.distrib.artifacts import CoordinatorArtifactPlane, handle_artifact_message
from repro.distrib.errors import (
    ConnectionClosed,
    DistribError,
    ProtocolError,
    WorkerLost,
)
from repro.distrib.protocol import (
    ArtifactFetch,
    ArtifactHave,
    ArtifactPush,
    BatchFailure,
    BatchResult,
    EvalBatch,
    EvaluatorMissing,
    Heartbeat,
    Hello,
    Shutdown,
    Welcome,
    authenticate,
    format_address,
    normalize_authkey,
    recv_message,
    send_message,
)
from repro.telemetry import get_sink
from repro.telemetry.live import Histogram
from repro.tuner.evaluation import EvaluationStats

logger = logging.getLogger("repro.distrib.coordinator")

#: Worker health states, derived from the last-seen monotonic timestamp
#: (updated on *every* frame read from a worker, heartbeats included) and
#: the staleness windows below.  ``lost`` is sticky once a worker is
#: discarded.
HEALTHY, STALE, LOST = "healthy", "stale", "lost"

#: Per-*task* reply budget (seconds): a batch of N tasks may take N times
#: this before its worker is declared lost (a fixed per-batch timeout would
#: discard healthy-but-busy workers on large generations).
TASK_TIMEOUT = 120.0
#: Deadline (seconds) of the authkey + ``Hello`` / ``Welcome`` handshake,
#: and the fixed part of every batch's reply budget.
HANDSHAKE_TIMEOUT = 5.0

#: Staleness windows (seconds): a worker silent for longer than
#: ``STALE_AFTER`` is suspect, longer than ``LOST_AFTER`` is gone.  Every
#: worker session beats every 15 s (``repro.distrib.worker.
#: HEARTBEAT_INTERVAL``), so these are 2.5 and 8 missed beats.
STALE_AFTER = 37.5
LOST_AFTER = 120.0

#: Straggler detection: a worker whose per-task EWMA exceeds this multiple
#: of the fleet median (with at least two workers reporting) is flagged.
STRAGGLER_FACTOR = 2.0
#: EWMA smoothing for per-task batch durations (higher = more reactive).
EWMA_ALPHA = 0.3


def _is_loopback(host: str) -> bool:
    return host == "localhost" or host.startswith("127.") or host == "::1"


class WorkerHandle:
    """Coordinator-side state of one registered worker connection."""

    def __init__(self, worker_id: int, sock: socket.socket, peer: str) -> None:
        self.worker_id = worker_id
        self.sock = sock
        self.peer = peer
        #: Evaluator ids this worker is believed to hold (see module docs).
        self.known_evaluators: Set[int] = set()
        #: One in-flight conversation per worker: the protocol is strictly
        #: request/response, so concurrent mapper threads must serialize.
        self.lock = threading.Lock()
        self.batches_completed = 0
        #: What this worker's accepted replies carried, summed, and when it
        #: registered: its fleet row (:meth:`row`) is read off these.
        self.stats = EvaluationStats()
        self.registered = time.monotonic()
        #: Artifact-plane state: bytes this machine has moved over the mesh
        #: (both directions, budget-checked), and in-flight push
        #: reassemblies (``repr(key)`` -> partial chunks) — all touched only
        #: under ``self.lock`` from :meth:`Coordinator.run_batch`.
        self.mesh_bytes = 0
        self.mesh_parts: Dict[str, Dict] = {}
        #: Health tracking: monotonic timestamp of the last frame read from
        #: this worker (any frame — heartbeats, artifact traffic, batch
        #: replies), whether an RPC conversation is in flight, and the
        #: per-task batch-duration EWMA the straggler detector compares
        #: against the fleet median.
        self.last_seen = time.monotonic()
        self.busy = False
        self.ewma_task_seconds: Optional[float] = None
        #: When :meth:`Coordinator.discard` dropped it (its uptime ends there).
        self.discarded_at: Optional[float] = None

    def row(self, health: str) -> Dict[str, object]:
        """This worker's fleet row: ``/status``, the ``fleet.worker`` events
        and the end-of-run summary all read it.  Busy time is what the
        worker measured evaluating (the results' ``elapsed_seconds``),
        uptime runs from registration to now or to the worker's loss."""
        stats = self.stats
        end = time.monotonic() if self.discarded_at is None else self.discarded_at
        uptime = end - self.registered
        return {
            "worker_id": self.worker_id,
            "peer": self.peer,
            "health": health,
            "batches": self.batches_completed,
            "candidates": stats.evaluated,
            "busy_seconds": round(stats.worker_seconds, 6),
            "uptime_seconds": round(uptime, 6),
            "busy_ratio": round(stats.worker_seconds / uptime, 4) if uptime > 0 else 0.0,
            "compile_seconds": round(stats.compile_seconds, 6),
            "measure_seconds": round(stats.measure_seconds, 6),
            "score_seconds": round(stats.score_seconds, 6),
            "artifact_hits": stats.artifact_hits,
            "artifact_store_hits": stats.artifact_store_hits,
            "artifact_mesh_hits": stats.artifact_mesh_hits,
            "artifact_misses": stats.artifact_misses,
            "mesh_bytes": self.mesh_bytes,
        }

    def __repr__(self) -> str:
        return (f"WorkerHandle(id={self.worker_id}, peer={self.peer!r}, "
                f"batches={self.batches_completed})")


class Coordinator:
    """Listens on ``host:port`` and registers workers as they connect.

    A daemon accept-thread performs the :class:`Hello`/:class:`Welcome`
    handshake and publishes each worker to the registry; ``wait_for_workers``
    lets a campaign block until enough capacity has joined.  All sockets are
    torn down by :meth:`close` (workers receive :class:`Shutdown` first, so a
    clean campaign end does not read as a crash on the worker side).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        authkey: Union[str, bytes, None] = None,
        artifact_store=None,
        mesh_budget_bytes: Optional[int] = None,
    ) -> None:
        #: Shared secret for the mutual HMAC handshake.  ``None`` skips
        #: authentication, which is why the check below *refuses* a keyless
        #: bind beyond loopback rather than documenting a warning: frames
        #: are pickled, and unpickling bytes from an unauthenticated network
        #: peer is arbitrary code execution.
        self.authkey = normalize_authkey(authkey)
        #: The artifact mesh: when an :class:`~repro.tuner.store.ArtifactStore`
        #: is given (the run owner's, read off its artifact cache), this
        #: coordinator serves the artifact plane from it — workers push
        #: fresh tier-2 entries here and fetch their misses from it,
        #: budget-capped per machine by ``mesh_budget_bytes``.
        self.artifact_plane: Optional[CoordinatorArtifactPlane] = None
        if artifact_store is not None:
            self.artifact_plane = CoordinatorArtifactPlane(
                artifact_store, budget_bytes=mesh_budget_bytes
            )
        if self.authkey is None and not _is_loopback(host):
            raise ValueError(
                f"refusing to bind a coordinator without an authkey on "
                f"{host!r}: any peer that reaches this port could execute "
                f"code via a crafted pickle frame.  Pass authkey= (CLI: "
                f"--authkey / $REPRO_DISTRIB_AUTHKEY) or bind 127.0.0.1."
            )
        self._listener = transport.Listener(
            host, port, 64, self._register, "coordinator-accept")
        self.host, self.port = self._listener.host, self._listener.port
        self._workers: Dict[int, WorkerHandle] = {}
        #: Every handle ever registered, the discarded ones included: the
        #: fleet view describes the whole run, not just the live registry.
        self._handles: Dict[int, WorkerHandle] = {}
        #: The fleet's ``worker.batch.seconds``: one observation per
        #: accepted reply (its summed ``elapsed_seconds``), for ``/metrics``.
        self._batch_seconds = Histogram()
        self._batch_seconds_lock = threading.Lock()
        self._registry_lock = threading.Lock()
        self._joined = threading.Condition(self._registry_lock)
        self._worker_ids = itertools.count(1)
        self._closed = False
        self._accept_thread = self._listener.start()

    # -- registry ---------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def address_string(self) -> str:
        return format_address(self.host, self.port)

    def workers(self) -> List[WorkerHandle]:
        """Snapshot of live workers, ordered by registration (worker id)."""
        with self._registry_lock:
            return [self._workers[key] for key in sorted(self._workers)]

    def worker_count(self) -> int:
        with self._registry_lock:
            return len(self._workers)

    def wait_for_workers(self, count: int, timeout: Optional[float] = None) -> int:
        """Block until at least ``count`` workers registered; returns the
        live count, raising :class:`DistribError` on timeout."""
        with self._joined:
            if not self._joined.wait_for(lambda: len(self._workers) >= count, timeout):
                raise DistribError(
                    f"only {len(self._workers)} of {count} workers registered with "
                    f"{self.address_string()} within {timeout}s"
                )
            return len(self._workers)

    def discard(self, handle: WorkerHandle) -> None:
        """Drop a dead worker: close its socket, remove it from the registry.

        The worker's fleet row flips to ``lost`` — stickily: a discarded
        worker stays visible (and lost) in ``/status``, the ``fleet.worker``
        events and the end-of-run fleet summary, because the fleet view
        describes the campaign, not just the current registry.
        """
        if handle.discarded_at is None:
            handle.discarded_at = time.monotonic()
        with self._registry_lock:
            dropped = self._workers.pop(handle.worker_id, None)
        if dropped is not None:
            logger.warning(
                "worker %d (%s) discarded after %d completed batch(es)",
                handle.worker_id, handle.peer, handle.batches_completed,
            )
            get_sink().event("fleet.worker", **handle.row(LOST))
        transport.close(handle.sock)

    # -- registration -----------------------------------------------------------------

    def _register(self, sock: socket.socket, peer) -> None:
        """Handshake one accepted connection and publish it as a worker."""
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            if self.authkey is not None:
                # Before any pickle byte is parsed: unauthenticated
                # peers never reach recv_message.
                authenticate(sock, self.authkey, server=True)
            hello = recv_message(sock)
            if not isinstance(hello, Hello):
                raise ProtocolError(f"bad handshake from {peer}: {hello!r}")
            worker_id = next(self._worker_ids)
            plane = self.artifact_plane
            send_message(sock, Welcome(
                worker_id,
                mesh=plane is not None,
                mesh_budget_bytes=plane.budget_bytes if plane is not None else None,
            ))
            sock.settimeout(TASK_TIMEOUT)
        except Exception as exc:
            # One bad peer (version skew, scanner, crafted payload) must
            # never take the accept thread — and with it all future
            # registration — down.  But a rejection must not be *silent*
            # either: an operator whose worker never joins needs to see
            # the auth failure / protocol error here.
            logger.warning(
                "rejected connection from %s: %s: %s",
                format_address(*peer[:2]), type(exc).__name__, exc,
            )
            get_sink().incr("coordinator.rejected_connections")
            transport.close(sock)
            return
        handle = WorkerHandle(worker_id, sock, format_address(*peer[:2]))
        with self._joined:
            if self._closed:
                transport.close(sock)
                return
            self._workers[worker_id] = self._handles[worker_id] = handle
            self._joined.notify_all()
        logger.info("worker %d registered from %s", worker_id, handle.peer)
        get_sink().incr("coordinator.workers_registered")

    # -- the batch RPC ----------------------------------------------------------------

    def run_batch(self, handle, evaluator_id: int, blob: bytes, tasks) -> List[Tuple[int, object]]:
        """Send one :class:`EvalBatch` to ``handle`` and await its reply.

        Raises :class:`WorkerLost` on *transport* failure — EOF or timeout
        (the reply budget scales with the batch: :data:`HANDSHAKE_TIMEOUT`
        plus :data:`TASK_TIMEOUT` per task)
        — and the caller discards the worker and re-dispatches.  Failures
        that would deterministically repeat on another worker propagate
        instead: a :class:`BatchFailure` re-raises the remote evaluator's
        exception, and a malformed or mismatched reply raises
        :class:`ProtocolError` (a version-skewed worker must not silently
        wipe the whole fleet one re-dispatch at a time).
        """
        tasks = tuple(tasks)
        expected = {index for index, _key in tasks}
        rpc_started = time.monotonic()
        with get_sink().span(
            "coordinator.rpc", worker=handle.worker_id, tasks=len(tasks)
        ), handle.lock:
            handle.busy = True
            try:
                handle.sock.settimeout(
                    HANDSHAKE_TIMEOUT + TASK_TIMEOUT * max(1, len(tasks))
                )
                include_blob = evaluator_id not in handle.known_evaluators
                send_message(
                    handle.sock,
                    EvalBatch(evaluator_id, tasks, blob if include_blob else None),
                )
                while True:
                    reply = recv_message(handle.sock)
                    # Any frame is proof of life; heartbeats exist for
                    # exactly this timestamp.
                    handle.last_seen = time.monotonic()
                    if isinstance(reply, Heartbeat):
                        # The worker is mid-evaluation and provably alive;
                        # each frame restarts the socket's silence budget, so
                        # a batch may legitimately outlive the nominal
                        # per-task timeout as long as heartbeats keep coming.
                        continue
                    if isinstance(reply, EvaluatorMissing) and reply.evaluator_id == evaluator_id:
                        # The worker's bounded cache evicted this evaluator
                        # since we last shipped it; re-send with the blob.
                        handle.known_evaluators.discard(evaluator_id)
                        send_message(handle.sock, EvalBatch(evaluator_id, tasks, blob))
                        continue
                    if isinstance(reply, (ArtifactFetch, ArtifactHave, ArtifactPush)):
                        # Artifact-plane traffic interleaves with the batch
                        # exactly like heartbeats: serve it and keep waiting
                        # for the batch reply.  The handle's lock is already
                        # held, so the per-handle mesh state is safe.
                        handle_artifact_message(
                            self.artifact_plane, handle, reply,
                            functools.partial(send_message, handle.sock),
                        )
                        continue
                    break
            except (ConnectionClosed, OSError, TimeoutError) as exc:
                raise WorkerLost(
                    f"worker {handle.worker_id} ({handle.peer}) lost with "
                    f"{len(tasks)} task(s) in flight: {exc}",
                    worker_id=handle.worker_id,
                    pending=len(tasks),
                ) from exc
            finally:
                handle.busy = False
        if isinstance(reply, BatchFailure):
            if reply.exception is not None:
                raise reply.exception
            from repro.distrib.errors import RemoteEvaluationError

            raise RemoteEvaluationError(
                f"worker {handle.worker_id} evaluator {evaluator_id} raised: {reply.message}"
            )
        if not isinstance(reply, BatchResult) or {i for i, _ in reply.results} != expected:
            raise ProtocolError(
                f"worker {handle.worker_id} ({handle.peer}) returned a mismatched "
                f"batch reply ({type(reply).__name__}); the worker is likely "
                f"running a different repro version"
            )
        handle.known_evaluators.add(evaluator_id)
        handle.batches_completed += 1
        # The fleet row is read off the accepted reply: observe-only, it
        # feeds /status, /metrics and the fleet.worker events, never results.
        for _index, result in reply.results:
            handle.stats.absorb(result)
        with self._batch_seconds_lock:
            self._batch_seconds.observe(
                sum(result.elapsed_seconds for _index, result in reply.results))
        get_sink().event("fleet.worker", **handle.row(HEALTHY))
        # Per-task EWMA feeds the straggler detector: batch wall clock
        # normalized by task count, smoothed so one slow candidate does not
        # brand a machine.
        per_task = (time.monotonic() - rpc_started) / max(1, len(tasks))
        if handle.ewma_task_seconds is None:
            handle.ewma_task_seconds = per_task
        else:
            handle.ewma_task_seconds = (
                EWMA_ALPHA * per_task + (1.0 - EWMA_ALPHA) * handle.ewma_task_seconds
            )
        return list(reply.results)

    # -- the artifact plane -----------------------------------------------------------

    def mesh_stats(self) -> Optional[Dict[str, object]]:
        """The artifact plane's counters, or ``None`` when no mesh is served."""
        if self.artifact_plane is None:
            return None
        return self.artifact_plane.stats()

    # -- worker health ----------------------------------------------------------------

    def _probe_idle(self, handle: WorkerHandle) -> None:
        """Refresh an *idle* worker's liveness without consuming frames.

        Between batches nothing reads the socket, so buffered heartbeats
        do not advance ``last_seen`` and a dead peer's EOF goes unseen.  A
        non-blocking ``MSG_PEEK`` under the handle lock settles both: data
        waiting means the worker spoke since the last batch, EOF or a
        reset means it is gone.  Skipped entirely when an RPC holds the
        lock — the recv loop is already tracking liveness there.
        """
        if not handle.lock.acquire(blocking=False):
            return
        try:
            if handle.discarded_at is not None:
                return
            sock = handle.sock
            previous_timeout = sock.gettimeout()
            try:
                sock.setblocking(False)
                try:
                    data = sock.recv(1, socket.MSG_PEEK)
                except (BlockingIOError, InterruptedError):
                    return  # no frames waiting: silence, judged by the windows
                except OSError:
                    data = b""
            finally:
                try:
                    sock.settimeout(previous_timeout)
                except OSError:
                    pass
            if data:
                handle.last_seen = time.monotonic()
        finally:
            handle.lock.release()
        if not data:
            # EOF / reset: the peer is gone; make the loss official so the
            # mapper never dispatches to a socket known to be dead.
            self.discard(handle)

    def _health_state(self, handle: WorkerHandle, now: float) -> str:
        if handle.discarded_at is not None:
            return LOST
        age = now - handle.last_seen
        if age > LOST_AFTER:
            return LOST
        if age > STALE_AFTER:
            return STALE
        return HEALTHY

    def _stragglers(self, handles: List[WorkerHandle]) -> Set[int]:
        ewmas = {
            handle.worker_id: handle.ewma_task_seconds
            for handle in handles
            if handle.ewma_task_seconds is not None
        }
        if len(ewmas) < 2:
            return set()  # a fleet of one has no median to lag behind
        median = statistics.median(ewmas.values())
        if median <= 0:
            return set()
        return {
            worker_id for worker_id, ewma in ewmas.items()
            if ewma > STRAGGLER_FACTOR * median
        }

    def fleet_status(self) -> List[Dict[str, object]]:
        """Every worker's fleet row (:meth:`WorkerHandle.row`) with live
        health, last-seen age, per-task EWMA and the straggler flag, for
        ``/status``.  Discarded workers stay in the list as ``lost``.
        """
        now = time.monotonic()
        with self._registry_lock:
            live = list(self._workers.values())
            handles = [self._handles[key] for key in sorted(self._handles)]
        for handle in live:
            if not handle.busy:
                self._probe_idle(handle)
        stragglers = self._stragglers(live)
        rows = []
        for handle in handles:
            row = handle.row(self._health_state(handle, now))
            row.update(
                last_seen_age_seconds=round(max(0.0, now - handle.last_seen), 3),
                straggler=handle.worker_id in stragglers,
            )
            if handle.ewma_task_seconds is not None:
                row["ewma_task_seconds"] = round(handle.ewma_task_seconds, 6)
            rows.append(row)
        return rows

    def fleet_metrics(self) -> Dict[str, object]:
        """A registry snapshot of fleet-level gauges and the fleet's
        worker batch-duration histogram, merged into ``/metrics``."""
        states = {HEALTHY: 0, STALE: 0, LOST: 0}
        stragglers = 0
        for row in self.fleet_status():
            states[row["health"]] += 1
            stragglers += row["straggler"]
        gauges = {
            f"fleet.workers.{state}": float(count) for state, count in states.items()
        }
        gauges["fleet.workers.straggling"] = float(stragglers)
        histograms = {}
        with self._batch_seconds_lock:
            if self._batch_seconds.count:
                histograms["worker.batch.seconds"] = self._batch_seconds.snapshot()
        return {"counters": {}, "gauges": gauges, "histograms": histograms}

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Shut down: tell every worker to exit, then close all sockets."""
        with self._joined:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
        for handle in workers:
            with handle.lock:
                try:
                    send_message(handle.sock, Shutdown())
                except DistribError:
                    pass
                transport.close(handle.sock)
        self._listener.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
