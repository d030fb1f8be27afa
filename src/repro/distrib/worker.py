"""The worker loop and its CLI: ``python -m repro.distrib.worker``.

A worker is one process (on this machine or another) that connects to a
coordinator, advertises its capacity, and serves evaluation batches until
told to shut down::

    python -m repro.distrib.worker --connect HOST:PORT [--slots N] [--reconnect]

Evaluators arrive as pickle-once blobs keyed by monotonic evaluator ids;
each is deserialized at most once and kept in a bounded FIFO cache
(:data:`~repro.tuner.evaluation.EVALUATOR_CACHE_LIMIT`), so a long campaign
over many programs cannot pile baselines up in worker memory.  Evicted
evaluators are recovered via the :class:`~repro.distrib.protocol.
EvaluatorMissing` reply — the coordinator re-sends the blob.

A session is one slot: it evaluates each batch key by key in its own
thread, through :func:`~repro.tuner.evaluation.evaluate_keys` — the loop the
inline mapper runs.  ``--slots N`` runs N sessions: this process plus N-1
children forked by :func:`fork_sessions` — the one way to start local
sessions, a ``"process"`` pool's included — each with its own connection,
heartbeat, mesh client, reconnect loop and telemetry file (compile, emulate
and score are pure Python, so N threads in one interpreter would claim N
slots and deliver one).  From registration to shutdown each session
sends :class:`~repro.distrib.protocol.Heartbeat` frames so a long batch —
or an idle wait between batches — is distinguishable from a dead machine
(historically a busy worker could only fail at batch boundaries or the
coordinator's timeout, and an idle one aged silently); the advertised
cadence rides in :class:`~repro.distrib.protocol.Hello` so the coordinator
sizes its staleness windows to it.

``--reconnect`` keeps the worker alive across coordinator outages and its
own restarts: a refused connection or a dropped coordinator triggers an
exponentially backed-off retry (a clean :class:`~repro.distrib.protocol.
Shutdown` still exits), so a rebooted machine rejoins a running campaign
without operator action.  ``--store-dir`` gives the worker a *local*
disk-backed artifact store (:mod:`repro.tuner.store`): staged evaluators
are re-pointed at it as they arrive, so the compiles and traces this
machine pays persist across batches, evaluator-cache evictions, and the
reconnects above — a worker that rejoins is warm, not amnesiac.  Without
the flag, a staged evaluator keeps the store its blob derives from the
orchestrator's artifact cache (correct for same-machine workers; remote
machines should pass their own path, or ``--no-store`` to detach the tier
so the orchestrator's path is never created on this machine).

An evaluator exception is reported back as a :class:`~repro.distrib.
protocol.BatchFailure` (programming errors must propagate to the campaign,
exactly as they do in-process); a transport failure toward the coordinator
ends the session.  ``--max-batches N`` is the failure-injection knob behind
the worker-loss determinism tests: the worker serves N batches, then dies
*without replying* on the next one, like a machine crash mid-generation.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import pickle
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.distrib import transport
from repro.distrib.artifacts import WorkerMeshClient
from repro.distrib.errors import AuthenticationError, ConnectionClosed, ProtocolError
from repro.distrib.protocol import (
    BatchFailure,
    BatchResult,
    EvalBatch,
    EvaluatorMissing,
    Heartbeat,
    Hello,
    Shutdown,
    TelemetrySummary,
    Welcome,
    authenticate,
    normalize_authkey,
    parse_address,
    recv_message,
    send_message,
)
from repro import telemetry
from repro.telemetry import get_sink
from repro.telemetry.live import Histogram
from repro.tuner.evaluation import EVALUATOR_CACHE_LIMIT, EvaluationStats, evaluate_keys

logger = logging.getLogger("repro.distrib.worker")

#: The worker command's name in usage and error lines.
PROG = "python -m repro.distrib.worker"

#: Exit status of a ``--max-batches`` induced crash (distinct from clean 0).
CRASH_EXIT_STATUS = 17

#: Exit status of a session that ended because the *coordinator* went away
#: (distinct from a clean Shutdown): the reconnect loop retries on this.
CONNECTION_LOST_STATUS = 4

#: Exit status of a failed handshake (wrong/missing authkey, version skew).
#: Deterministic — never retried.
HANDSHAKE_FAILED_STATUS = 3

#: Default seconds between Heartbeat frames while a batch evaluates.
DEFAULT_HEARTBEAT_INTERVAL = 15.0

#: Default seconds to establish the TCP connection *and* complete the
#: handshake.  Historically there was no deadline at all, so a blackholed
#: coordinator address (firewall drop, dead NAT entry) or a
#: bound-but-never-accepting socket hung a connecting worker forever — and
#: with it the ``--reconnect`` backoff that exists precisely for that case.
DEFAULT_CONNECT_TIMEOUT = 30.0

#: Ceiling (seconds) of the ``--reconnect`` backoff, which doubles from
#: ``backoff_base`` per consecutive failure.
BACKOFF_CAP = 60.0


def _exception_survives_pickle(exc: BaseException) -> bool:
    try:
        pickle.loads(pickle.dumps(exc))
        return True
    except Exception:
        return False


class _SessionTelemetry:
    """One session's utilization counters, forwarded as compact
    :class:`~repro.distrib.protocol.TelemetrySummary` frames.

    Sums what each batch's :class:`~repro.tuner.evaluation.CandidateResult`
    objects already carry (per-stage wall clock, cache-tier provenance) plus
    wall-clock busy time, so the coordinator's fleet view costs the wire one
    small dict per batch and the worker no extra measurement.  Observe-only:
    nothing here feeds results, fingerprints, or scheduling.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self._started = time.perf_counter()
        self.batches = 0
        self.busy_seconds = 0.0
        self.stats = EvaluationStats()
        #: Batch wall-clock distribution, shipped as a mergeable snapshot so
        #: the coordinator can fold every worker's into one fleet-wide
        #: ``worker.batch.seconds`` histogram for ``/metrics``.
        self.batch_seconds = Histogram()

    def absorb(self, results, busy_seconds: float) -> None:
        self.batches += 1
        self.busy_seconds += busy_seconds
        self.batch_seconds.observe(busy_seconds)
        for _index, value in results:
            self.stats.absorb(value)

    def payload(self, mesh_client: Optional[WorkerMeshClient]) -> Dict[str, object]:
        data: Dict[str, object] = {
            "batches": self.batches,
            "candidates": self.stats.evaluated,
            "busy_seconds": round(self.busy_seconds, 6),
            "uptime_seconds": round(time.perf_counter() - self._started, 6),
            "compile_seconds": round(self.stats.compile_seconds, 6),
            "measure_seconds": round(self.stats.measure_seconds, 6),
            "score_seconds": round(self.stats.score_seconds, 6),
            "artifact_hits": self.stats.artifact_hits,
            "artifact_store_hits": self.stats.artifact_store_hits,
            "artifact_mesh_hits": self.stats.artifact_mesh_hits,
            "artifact_misses": self.stats.artifact_misses,
            "batch_seconds_hist": self.batch_seconds.snapshot(),
        }
        if mesh_client is not None:
            stats = mesh_client.stats()
            data["mesh_bytes_sent"] = stats["bytes_sent"]
            data["mesh_bytes_received"] = stats["bytes_received"]
        return data


class _HeartbeatSender:
    """Sends :class:`Heartbeat` frames for the lifetime of a session.

    Historically the beat ran only while a batch evaluated, so an *idle*
    worker was indistinguishable from a dead one until its next dispatch;
    now the thread spans the whole session (started right after
    registration) and the coordinator's health tracking reads the idle
    frames off the buffered stream.  Socket writes are serialized with the
    main loop's replies through ``send`` (two threads interleaving
    ``sendall`` would corrupt framing); send failures just stop the beat —
    the main loop will observe the dead socket itself on its next reply.
    """

    def __init__(self, sock: socket.socket, worker_id: int, interval: float) -> None:
        self._sock = sock
        self._worker_id = worker_id
        self.interval = interval
        self._lock = threading.Lock()
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    def send(self, message) -> None:
        with self._lock:
            send_message(self._sock, message)

    def start(self) -> None:
        if self.interval > 0 and self._thread is None:
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._beat, name="worker-heartbeat", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        if self._stop is not None:
            self._stop.set()
            self._thread.join(timeout=1.0)
            self._stop = None
            self._thread = None

    def _beat(self) -> None:
        stop = self._stop
        while not stop.wait(self.interval):
            try:
                self.send(Heartbeat(self._worker_id))
            except Exception:
                return


def serve(
    connect: str,
    max_batches: Optional[int] = None,
    hard_exit: bool = False,
    log: Optional[Callable[[str], None]] = None,
    authkey=None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    on_registered: Optional[Callable[[int], None]] = None,
    store_dir: Optional[str] = None,
    store_max_bytes: Optional[int] = None,
    no_store: bool = False,
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    mesh: bool = True,
    mesh_budget_bytes: Optional[int] = None,
) -> int:
    """Run one worker session until shutdown; returns a process exit status.

    The session is one slot: each batch is evaluated key by key in this
    thread.  Deserialized evaluators are kept in a FIFO
    cache of :data:`~repro.tuner.evaluation.EVALUATOR_CACHE_LIMIT` entries.
    ``hard_exit=True`` (the CLI default) makes the ``--max-batches`` crash
    an ``os._exit`` — a real process death.  Tests that run workers as
    threads pass ``False`` so the crash degrades to closing the socket and
    returning, which the coordinator observes identically (EOF mid-batch).

    Returns 0 after a clean :class:`Shutdown`,
    :data:`CONNECTION_LOST_STATUS` when the coordinator went away (the
    :func:`run_worker` reconnect loop retries on exactly this), and
    :data:`HANDSHAKE_FAILED_STATUS` on a failed handshake.
    ``on_registered`` fires with the assigned worker id right after the
    handshake — the reconnect loop uses it to reset its backoff.

    ``store_dir`` points arriving staged evaluators at a *worker-local*
    disk-backed artifact store (overriding any path baked into the blob by
    the orchestrator, which may not exist on this machine): compiles and
    traces this worker pays persist across batches, evaluator-cache
    evictions, reconnects, and its own restarts.  ``store_max_bytes`` sizes
    the local tier's GC budget for *this* machine's disk (``None`` keeps the
    budget the orchestrator baked into the blob).  ``no_store`` detaches the
    store instead, so an evaluator's baked-in orchestrator path is never
    created or written on this machine at all.

    ``connect_timeout`` bounds both the TCP connect and the whole handshake
    (a coordinator that accepts the connection but never answers used to
    hang the worker forever); a handshake that times out returns
    :data:`CONNECTION_LOST_STATUS` — a stalled coordinator may heal, so the
    reconnect loop must back off and retry it, not give up.  Once the
    Welcome arrives the deadline comes off: batches may legitimately be
    minutes apart.

    ``mesh`` (on by default) joins the coordinator's artifact plane when it
    advertises one: this worker's tier-2 misses are served from other
    machines' past work before paying a compile, and its fresh artifacts
    are pushed back after each batch.  ``mesh_budget_bytes`` caps this
    machine's total artifact transfer (default: the budget the coordinator
    advertises).
    """
    if connect_timeout is not None and connect_timeout <= 0:
        raise ValueError(f"connect_timeout must be > 0, got {connect_timeout}")
    emit = log if log is not None else (lambda message: None)
    authkey = normalize_authkey(authkey)
    host, port = parse_address(connect)
    # The timeout set here persists on the socket through the handshake
    # below, so every recv between connect and Welcome shares the deadline.
    sock = transport.connect(host, port, connect_timeout)
    mesh_client: Optional[WorkerMeshClient] = None
    sender: Optional[_HeartbeatSender] = None
    try:
        try:
            if authkey is not None:
                authenticate(sock, authkey, server=False)
            send_message(
                sock,
                Hello(heartbeat_interval=max(0.0, heartbeat_interval)),
            )
            welcome = recv_message(sock)
            if not isinstance(welcome, Welcome):
                raise ProtocolError(f"expected Welcome, got {type(welcome).__name__}")
        except TimeoutError:
            # The coordinator accepted the connection but never completed
            # the handshake — bound-but-not-accepting listen backlog, a
            # stalled process, a blackholing middlebox.  Transient: the
            # reconnect loop must back off and retry, exactly like a peer
            # that vanished mid-handshake.
            emit(f"worker: handshake with {connect} timed out "
                 f"after {connect_timeout:g}s")
            return CONNECTION_LOST_STATUS
        except ConnectionClosed as exc:
            # The peer vanished mid-handshake — a coordinator dying between
            # accept and Welcome, or a handshake squeezed out by an accept
            # storm.  That is a *transient* loss (the reconnect loop must
            # retry it), not a deterministic handshake rejection.
            emit(f"worker: {connect} went away during the handshake: {exc}")
            return CONNECTION_LOST_STATUS
        except (AuthenticationError, ProtocolError) as exc:
            # Key mismatch presents as either an explicit rejection or the
            # coordinator's challenge frame failing to unpickle; both mean
            # "wrong or missing authkey", not a crash.
            emit(f"worker: handshake with {connect} failed: {exc}")
            return HANDSHAKE_FAILED_STATUS
        # Registered: the deadline comes off — batches can be arbitrarily
        # far apart, and the coordinator owns liveness from here on.
        sock.settimeout(None)
        emit(f"worker {welcome.worker_id}: connected to {connect}")
        if on_registered is not None:
            on_registered(welcome.worker_id)
        sender = _HeartbeatSender(sock, welcome.worker_id, heartbeat_interval)
        # Session-long liveness: beats flow from registration onward, so an
        # idle worker (between batches, or never dispatched to) stays
        # `healthy` in the coordinator's fleet view instead of aging into
        # `stale` the moment the campaign pauses.
        sender.start()
        if mesh and getattr(welcome, "mesh", False):
            budget = mesh_budget_bytes
            if budget is None:
                budget = getattr(welcome, "mesh_budget_bytes", None)
            mesh_client = WorkerMeshClient(sock, sender, budget_bytes=budget, log=log)
            emit(f"worker {welcome.worker_id}: joined the artifact mesh"
                 + (f" (budget {budget} bytes)" if budget is not None else ""))
        #: evaluator id -> deserialized evaluator, FIFO-bounded like
        #: the shared pool's per-process cache.
        evaluators: Dict[int, object] = {}
        batches_done = 0
        # Forward fleet telemetry only when the coordinator advertised it:
        # version skew in either direction degrades to "no fleet view".
        session = (
            _SessionTelemetry(welcome.worker_id)
            if getattr(welcome, "telemetry", False) else None
        )
        while True:
            try:
                message = recv_message(sock)
            except ConnectionClosed:
                emit(f"worker {welcome.worker_id}: coordinator went away")
                return CONNECTION_LOST_STATUS
            if isinstance(message, Shutdown):
                emit(f"worker {welcome.worker_id}: shutdown after {batches_done} batch(es)")
                return 0
            if not isinstance(message, EvalBatch):
                raise ProtocolError(f"unexpected message {type(message).__name__}")
            if max_batches is not None and batches_done >= max_batches:
                # Failure injection: die without replying, mid-batch.
                emit(f"worker {welcome.worker_id}: injected crash on batch {batches_done + 1}")
                transport.close(sock)
                if hard_exit:
                    os._exit(CRASH_EXIT_STATUS)
                return CRASH_EXIT_STATUS
            evaluator = evaluators.get(message.evaluator_id)
            if evaluator is None:
                if message.blob is None:
                    send_message(sock, EvaluatorMissing(message.evaluator_id))
                    continue
                evaluator = pickle.loads(message.blob)
                if store_dir is not None or no_store:
                    attach = getattr(evaluator, "attach_store", None)
                    if attach is not None:
                        if no_store:
                            attach(None)
                        else:
                            attach(store_dir, max_bytes=store_max_bytes)
                if mesh_client is not None:
                    # After any store override: attach_store swaps the cache,
                    # and the mesh must hook the cache actually in use.
                    attach_mesh = getattr(evaluator, "attach_mesh", None)
                    if attach_mesh is not None:
                        mesh_client.track_cache(attach_mesh(mesh_client))
                while len(evaluators) >= EVALUATOR_CACHE_LIMIT:
                    evaluators.pop(next(iter(evaluators)))
                evaluators[message.evaluator_id] = evaluator
            try:
                if mesh_client is not None:
                    # Arm the mesh only while this worker owns the socket
                    # for reading (the coordinator sends nothing unprompted
                    # mid-batch, so fetch replies are unambiguous).
                    mesh_client.begin_batch()
                try:
                    busy_started = time.perf_counter()
                    with get_sink().span(
                        "worker.batch",
                        worker=welcome.worker_id,
                        tasks=len(message.tasks),
                    ):
                        # Results carry their submission indices, so
                        # scheduling never reorders anything.
                        results = tuple(zip(
                            [index for index, _key in message.tasks],
                            evaluate_keys(
                                evaluator, [key for _index, key in message.tasks]),
                        ))
                    busy_seconds = time.perf_counter() - busy_started
                    if mesh_client is not None:
                        # Fresh artifacts travel *before* the batch reply:
                        # the ordered stream guarantees the coordinator has
                        # absorbed them when the reply is parsed, so the
                        # next machine's fetches already see them.
                        mesh_client.flush()
                finally:
                    if mesh_client is not None:
                        mesh_client.end_batch()
            except Exception as exc:
                sender.send(
                    BatchFailure(
                        message.evaluator_id,
                        f"{type(exc).__name__}: {exc}",
                        exc if _exception_survives_pickle(exc) else None,
                    )
                )
                continue  # the error was deterministic; keep serving
            if mesh_client is not None and mesh_client.shutdown_seen:
                # The coordinator shut down while we were mid-batch (its
                # Shutdown frame surfaced inside a mesh round trip): exit
                # cleanly instead of reporting a lost connection.
                emit(f"worker {welcome.worker_id}: shutdown after {batches_done} batch(es)")
                return 0
            if session is not None:
                session.absorb(results, busy_seconds)
                try:
                    # Interleaved ahead of the reply, like heartbeats and
                    # mesh pushes: the ordered stream guarantees the
                    # coordinator absorbs it before parsing the reply.
                    sender.send(
                        TelemetrySummary(welcome.worker_id, session.payload(mesh_client))
                    )
                except Exception:
                    # Telemetry must never fail a healthy batch; a real
                    # transport loss surfaces on the BatchResult send below.
                    pass
            try:
                sender.send(BatchResult(message.evaluator_id, results))
            except ConnectionClosed:
                # The coordinator vanished while we were evaluating (e.g. it
                # gave up on this batch); a preceding interleaved frame may
                # have already triggered the RST that surfaces here.  Same
                # retryable loss as a failed read.
                emit(f"worker {welcome.worker_id}: coordinator went away")
                return CONNECTION_LOST_STATUS
            batches_done += 1
    finally:
        if sender is not None:
            sender.stop()
        if mesh_client is not None:
            # The caches are process-global and outlive this session; a
            # dead session's client must not serve later lookups.
            mesh_client.detach()
        transport.close(sock)


def run_worker(
    connect: str,
    reconnect: bool = False,
    max_retries: Optional[int] = None,
    backoff_base: float = 1.0,
    log: Optional[Callable[[str], None]] = None,
    **serve_kwargs,
) -> int:
    """:func:`serve`, wrapped in the auto-reconnect policy.

    With ``reconnect=False`` (the historical default) this is one session:
    a refused connection raises, a lost coordinator returns.  With
    ``reconnect=True`` the worker survives both — it retries with
    exponential backoff (``backoff_base`` doubling up to :data:`BACKOFF_CAP`
    seconds, at most ``max_retries`` consecutive failures, unbounded when
    ``None``) so a restarted machine rejoins a running campaign without
    operator action.  Any ``OSError`` reaching the coordinator counts as
    transient and retries — on a machine that is itself booting, refused
    connections, unreachable networks and *unresolvable hostnames* are all
    states that heal on their own, so only ``--max-retries`` bounds them.
    A successful registration resets the backoff; a clean
    :class:`Shutdown`, an injected crash, and a failed handshake (a
    deterministic authkey/version problem) never retry.
    """
    if backoff_base <= 0:
        raise ValueError(f"backoff_base must be > 0, got {backoff_base}")
    emit = log if log is not None else (lambda message: None)
    registered = threading.Event()
    #: Last assigned worker id, so retry lines identify which fleet member
    #: is flapping (``None`` until the first successful registration).
    last_worker = {"id": None}

    def on_registered(worker_id: int) -> None:
        last_worker["id"] = worker_id
        registered.set()

    delay = backoff_base
    failures = 0
    while True:
        registered.clear()
        reason = "coordinator went away mid-session"
        try:
            status = serve(connect, log=log, on_registered=on_registered, **serve_kwargs)
        except (ConnectionRefusedError, OSError) as exc:
            if not reconnect:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            emit(f"worker: cannot reach {connect}: {exc}")
            status = CONNECTION_LOST_STATUS
        if status != CONNECTION_LOST_STATUS or not reconnect:
            return status
        if registered.is_set():
            # The session was live before it dropped; start backing off from
            # scratch rather than where the last outage left off.
            delay = backoff_base
            failures = 0
        failures += 1
        who = (
            f"worker {last_worker['id']}" if last_worker["id"] is not None
            else "worker (never registered)"
        )
        if max_retries is not None and failures > max_retries:
            emit(f"{who}: giving up on {connect} after {max_retries} retries "
                 f"(last failure: {reason})")
            return status
        emit(f"{who}: reconnecting to {connect} in {delay:.1f}s "
             f"(attempt {failures}; last failure: {reason})")
        time.sleep(delay)
        delay = min(delay * 2, BACKOFF_CAP)


def run_session(telemetry_dir, connect: str, **worker_args) -> int:
    """:func:`run_worker` under this process's own sink (``worker-<pid>.jsonl``
    under ``telemetry_dir``, else the null sink — never an inherited one)."""
    with contextlib.ExitStack() as session:
        if telemetry_dir is not None:
            session.enter_context(telemetry.recording(telemetry_dir, label="worker"))
        else:
            session.callback(telemetry.set_sink, telemetry.set_sink(None))
        return run_worker(connect, **worker_args)


def fork_sessions(count: int, session: Callable[[], int]) -> List[int]:
    """Fork ``count`` children that each run ``session()`` with the caller's
    imports loaded; returns their pids, which :func:`end_sessions` reaps.

    The children wait on a pipe until the last one exists, so no session
    connects — and no connection exists to be inherited — before all are
    forked.  A child restores the default SIGINT / SIGTERM actions and leaves
    only through ``os._exit`` (``session()``'s status, or 1 if it raised), so
    it never closes or flushes the caller's sink, exit stack or coordinator.
    """
    hold, release = os.pipe()
    pids: List[int] = []
    try:
        for _ in range(count):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    signal.signal(signal.SIGINT, signal.SIG_DFL)
                    signal.signal(signal.SIGTERM, signal.SIG_DFL)
                    os.close(release)
                    os.read(hold, 1)  # EOF: the caller and every sibling let go
                    os.close(hold)
                    status = session()
                except BaseException:
                    logger.exception("worker session %d failed", os.getpid())
                finally:
                    os._exit(status)
            pids.append(pid)
    except BaseException:
        end_sessions(pids, grace=0.0)
        raise
    finally:
        os.close(hold)
        os.close(release)
    return pids


def end_sessions(pids: Sequence[int], grace: Optional[float] = None) -> List[int]:
    """Reap forked sessions; returns their exit codes (``-N``: signal N).
    With a ``grace``, one still running that many seconds from now is sent
    SIGTERM first; without, they run as long as they like."""
    deadline = None if grace is None else time.monotonic() + grace
    codes = []
    for pid in pids:
        status, flags = 0, (0 if deadline is None else os.WNOHANG)
        try:
            while True:
                done, status = os.waitpid(pid, flags)
                if done:
                    break
                if time.monotonic() < deadline:
                    time.sleep(0.01)
                    continue
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGTERM)
                flags = 0
        except ChildProcessError:
            pass
        codes.append(os.waitstatus_to_exitcode(status))
    return codes


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def common_flags() -> argparse.ArgumentParser:
    """The flags ``run``, ``serve`` and the worker share, declared once:
    pass as ``parents=[common_flags()]``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--authkey", default=os.environ.get("REPRO_DISTRIB_AUTHKEY"),
                        help="shared secret of the worker-plane handshake "
                             "(default: $REPRO_DISTRIB_AUTHKEY; required when "
                             "the coordinator serves beyond loopback)")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="write this process's telemetry as JSONL here "
                             "(the report subcommand renders it); "
                             "observe-only.  A run with --checkpoint-dir or "
                             "--state-dir records under DIR/telemetry "
                             "instead and refuses this flag")
    chatter = parser.add_mutually_exclusive_group()
    chatter.add_argument("--verbose", action="store_true",
                         help="debug-level log lines on stderr")
    chatter.add_argument("--quiet", action="store_true",
                         help="warnings and errors only on stderr")
    return parser


def build_parser(prog: str = PROG) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Serve candidate evaluations for a distributed campaign.",
        parents=[common_flags()],
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to register with")
    parser.add_argument("--slots", dest="sessions", type=int, default=1,
                        help="worker sessions to run: this process plus N-1 "
                             "forked children, each registering on its own "
                             "connection (default: 1)")
    parser.add_argument("--max-batches", type=int, default=None,
                        help="failure injection: serve N batches, then crash "
                             "without replying (worker-loss tests/demos)")
    parser.add_argument("--reconnect", action="store_true",
                        help="retry with exponential backoff when the "
                             "coordinator is unreachable or goes away, so a "
                             "restarted machine rejoins a running campaign "
                             "(a clean Shutdown still exits)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="with --reconnect: give up after N consecutive "
                             "failed attempts (default: retry forever)")
    parser.add_argument("--backoff", type=float, default=1.0, metavar="SECONDS",
                        help="with --reconnect: initial retry delay, doubled "
                             f"per consecutive failure up to {BACKOFF_CAP:g}s "
                             "(default: 1.0)")
    parser.add_argument("--heartbeat", type=float, default=DEFAULT_HEARTBEAT_INTERVAL,
                        metavar="SECONDS",
                        help="interval between keep-alive frames while a batch "
                             f"is evaluating; 0 disables (default: "
                             f"{DEFAULT_HEARTBEAT_INTERVAL:g})")
    store = parser.add_mutually_exclusive_group()
    store.add_argument("--store-dir", type=str, default=None,
                       help="worker-local disk-backed artifact store: "
                            "compiles/traces this worker pays persist across "
                            "batches, reconnects and restarts, so a "
                            "rejoining worker starts warm")
    store.add_argument("--no-store", action="store_true",
                       help="detach any orchestrator-configured artifact "
                            "store from arriving evaluators: no local "
                            "persistence, and the orchestrator's store path "
                            "is never created on this machine")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        help="with --store-dir: byte budget of the local "
                             "store's LRU garbage collection, sized for this "
                             "machine's disk (default: the budget the "
                             "orchestrator configured)")
    parser.add_argument("--connect-timeout", type=float,
                        default=DEFAULT_CONNECT_TIMEOUT, metavar="SECONDS",
                        help="deadline for the TCP connect plus handshake; a "
                             "coordinator that never answers fails the "
                             "attempt (and --reconnect backs off) instead of "
                             f"hanging forever (default: "
                             f"{DEFAULT_CONNECT_TIMEOUT:g})")
    mesh = parser.add_mutually_exclusive_group()
    mesh.add_argument("--no-mesh", action="store_true",
                      help="do not join the coordinator's artifact mesh "
                           "even when it serves one: no artifact fetches "
                           "or pushes from this machine")
    mesh.add_argument("--mesh-budget-bytes", type=int, default=None,
                      help="cap on this machine's total artifact-mesh "
                           "transfer, both directions (default: the "
                           "budget the coordinator advertises)")
    return parser


def configure_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Point the ``repro`` logger tree at stderr (idempotent).

    Progress goes through :mod:`logging` so operators can tune it; stdout
    stays reserved for machine-readable output (``--json`` etc.).
    """
    root = logging.getLogger("repro")
    if not any(isinstance(h, logging.StreamHandler) for h in root.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
    if quiet:
        root.setLevel(logging.WARNING)
    elif verbose:
        root.setLevel(logging.DEBUG)
    else:
        root.setLevel(logging.INFO)


def main(argv: Optional[Sequence[str]] = None, prog: str = PROG) -> int:
    """The worker CLI; ``prog`` names the command in usage and error lines.

    ``--slots N`` forks N-1 child sessions (:func:`fork_sessions`) under the
    same flags, then serves the Nth session itself and waits for them.  It
    returns the first nonzero status among (this session, child 1, ...),
    else 0.  A child still running when the parent raises or is interrupted
    (Ctrl-C or SIGTERM) is terminated.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(prog)
    args = parser.parse_args(argv)
    if args.store_max_bytes is not None and args.store_dir is None:
        parser.error("--store-max-bytes requires --store-dir")
    if args.connect_timeout is not None and args.connect_timeout <= 0:
        parser.error("--connect-timeout must be > 0")
    if args.sessions < 1:
        parser.error(f"--slots must be >= 1, got {args.sessions}")
    try:
        parse_address(args.connect)
    except ValueError as exc:
        parser.error(str(exc))
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    pids: List[int] = []
    if args.sessions > 1:
        # SIGTERM unwinds like Ctrl-C, so the finally below reaps the children.
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        pids = fork_sessions(args.sessions - 1, lambda: _run_session(args, hard_exit=False))
        # With children this process must outlive an injected crash of its
        # own session to wait for them, so that crash closes the socket and
        # returns instead of calling os._exit.
        statuses = [_run_session(args, hard_exit=not pids)]
        statuses += end_sessions(pids)
        pids = []
    finally:
        end_sessions(pids, grace=0.0)
        if args.sessions > 1:
            signal.signal(signal.SIGTERM, previous)
    return next((status for status in statuses if status), 0)


def _run_session(args: argparse.Namespace, hard_exit: bool) -> int:
    """One session of this command: :func:`run_session` under the CLI flags."""
    try:
        return run_session(
            args.telemetry_dir,
            args.connect,
            reconnect=args.reconnect,
            max_retries=args.max_retries,
            backoff_base=args.backoff,
            max_batches=args.max_batches,
            hard_exit=hard_exit,
            log=logger.info,
            authkey=args.authkey,
            heartbeat_interval=args.heartbeat,
            store_dir=args.store_dir,
            store_max_bytes=args.store_max_bytes,
            no_store=args.no_store,
            connect_timeout=args.connect_timeout,
            mesh=not args.no_mesh,
            mesh_budget_bytes=args.mesh_budget_bytes,
        )
    except ConnectionRefusedError:
        logger.error("no coordinator listening at %s", args.connect)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
