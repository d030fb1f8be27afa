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
sessions, a pool's ``workers`` included — each with its own connection,
heartbeat, mesh client, reconnect loop and telemetry file (compile, emulate
and score are pure Python, so N threads in one interpreter would claim N
slots and deliver one).  From registration to shutdown each session
sends a :class:`~repro.distrib.protocol.Heartbeat` frame every
:data:`HEARTBEAT_INTERVAL` seconds, so a long batch — or an idle wait
between batches — is distinguishable from a dead machine; the
coordinator's staleness windows are fixed multiples of that cadence.  A
session keeps no account of its own work: the coordinator reads each
worker's fleet row off its :class:`~repro.distrib.protocol.BatchResult`
replies.

``--reconnect`` keeps the worker alive across coordinator outages and its
own restarts: a refused connection or a dropped coordinator triggers an
exponentially backed-off retry (:data:`BACKOFF_BASE` doubling up to
:data:`BACKOFF_CAP`; a clean :class:`~repro.distrib.protocol.Shutdown`
still exits), so a rebooted machine rejoins a running campaign
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
the worker-loss determinism tests: the worker serves N batches, then closes
its connection *without replying* on the next one and exits with
:data:`CRASH_EXIT_STATUS` — to the coordinator, a machine crash
mid-generation (EOF mid-batch).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import pickle
import signal
import socket
import struct
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
    Welcome,
    authenticate,
    normalize_authkey,
    parse_address,
    recv_message,
    send_message,
)
from repro import telemetry
from repro.telemetry import get_sink
from repro.tuner.evaluation import EVALUATOR_CACHE_LIMIT, evaluate_keys

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

#: Seconds between a session's Heartbeat frames, from registration on.
#: The coordinator's ``STALE_AFTER`` / ``LOST_AFTER`` windows assume it.
HEARTBEAT_INTERVAL = 15.0

#: Seconds to establish the TCP connection *and* complete the handshake.
#: Without a deadline a blackholed coordinator address (firewall drop, dead
#: NAT entry) or a bound-but-never-accepting socket hangs a connecting
#: worker forever — and with it the ``--reconnect`` backoff that exists
#: precisely for that case.
CONNECT_TIMEOUT = 30.0

#: The ``--reconnect`` backoff: the first retry waits ``BACKOFF_BASE``
#: seconds, doubling per consecutive failure up to ``BACKOFF_CAP``; after
#: ``MAX_RETRIES`` consecutive failures the worker gives up (``None``:
#: never).
BACKOFF_BASE = 1.0
BACKOFF_CAP = 60.0
MAX_RETRIES: Optional[int] = None


def _exception_survives_pickle(exc: BaseException) -> bool:
    try:
        pickle.loads(pickle.dumps(exc))
        return True
    except Exception:
        return False


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

    def __init__(self, sock: socket.socket, worker_id: int) -> None:
        self._sock = sock
        self._worker_id = worker_id
        self._lock = threading.Lock()
        self._stop: Optional[threading.Event] = None
        self._thread: Optional[threading.Thread] = None

    def send(self, message) -> None:
        with self._lock:
            send_message(self._sock, message)

    def start(self) -> None:
        if self._thread is None:
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
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                self.send(Heartbeat(self._worker_id))
            except Exception:
                return


def serve(
    connect: str,
    max_batches: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    authkey=None,
    on_registered: Optional[Callable[[int], None]] = None,
    store_dir: Optional[str] = None,
    store_max_bytes: Optional[int] = None,
    no_store: bool = False,
    mesh: bool = True,
    mesh_budget_bytes: Optional[int] = None,
) -> int:
    """Run one worker session until shutdown; returns a process exit status.

    The session is one slot: each batch is evaluated key by key in this
    thread.  Deserialized evaluators are kept in a FIFO
    cache of :data:`~repro.tuner.evaluation.EVALUATOR_CACHE_LIMIT` entries.

    Returns 0 after a clean :class:`Shutdown`,
    :data:`CONNECTION_LOST_STATUS` when the coordinator went away (the
    :func:`run_worker` reconnect loop retries on exactly this),
    :data:`HANDSHAKE_FAILED_STATUS` on a failed handshake, and
    :data:`CRASH_EXIT_STATUS` after the ``max_batches`` crash: the socket
    closes mid-batch, which the coordinator cannot tell from a process
    death (EOF mid-batch either way).
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

    :data:`CONNECT_TIMEOUT` bounds both the TCP connect and the whole
    handshake (a coordinator that accepts the connection but never answers
    would otherwise hang the worker forever); a handshake that times out
    returns :data:`CONNECTION_LOST_STATUS` — a stalled coordinator may heal, so the
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
    emit = log if log is not None else (lambda message: None)
    authkey = normalize_authkey(authkey)
    host, port = parse_address(connect)
    # The timeout set here persists on the socket through the handshake
    # below, so every recv between connect and Welcome shares the deadline.
    sock = transport.connect(host, port, CONNECT_TIMEOUT)
    mesh_client: Optional[WorkerMeshClient] = None
    sender: Optional[_HeartbeatSender] = None
    try:
        try:
            if authkey is not None:
                authenticate(sock, authkey, server=False)
            send_message(sock, Hello())
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
                 f"after {CONNECT_TIMEOUT:g}s")
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
        sender = _HeartbeatSender(sock, welcome.worker_id)
        # Session-long liveness: beats flow from registration onward, so an
        # idle worker (between batches, or never dispatched to) stays
        # `healthy` in the coordinator's fleet view instead of aging into
        # `stale` the moment the campaign pauses.
        sender.start()
        if mesh and welcome.mesh:
            budget = mesh_budget_bytes
            if budget is None:
                budget = welcome.mesh_budget_bytes
            mesh_client = WorkerMeshClient(sock, sender, budget_bytes=budget, log=log)
            emit(f"worker {welcome.worker_id}: joined the artifact mesh"
                 + (f" (budget {budget} bytes)" if budget is not None else ""))
        #: evaluator id -> deserialized evaluator, FIFO-bounded like
        #: the shared pool's per-process cache.
        evaluators: Dict[int, object] = {}
        batches_done = 0
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
                return CRASH_EXIT_STATUS
            evaluator = evaluators.get(message.evaluator_id)
            if evaluator is None and message.blob is None:
                sender.send(EvaluatorMissing(message.evaluator_id))
                continue
            try:
                if evaluator is None:
                    # A blob no worker can load is as deterministic as an
                    # evaluator that raises: report it, keep serving.
                    evaluator = pickle.loads(message.blob)
                    if store_dir is not None or no_store:
                        attach = getattr(evaluator, "attach_store", None)
                        if attach is not None:
                            if no_store:
                                attach(None)
                            else:
                                attach(store_dir, max_bytes=store_max_bytes)
                    if mesh_client is not None:
                        # After any store override: attach_store swaps the
                        # cache, and the mesh must hook the cache in use.
                        attach_mesh = getattr(evaluator, "attach_mesh", None)
                        if attach_mesh is not None:
                            mesh_client.track_cache(attach_mesh(mesh_client))
                    while len(evaluators) >= EVALUATOR_CACHE_LIMIT:
                        evaluators.pop(next(iter(evaluators)))
                    evaluators[message.evaluator_id] = evaluator
                if mesh_client is not None:
                    # Arm the mesh only while this worker owns the socket
                    # for reading (the coordinator sends nothing unprompted
                    # mid-batch, so fetch replies are unambiguous).
                    mesh_client.begin_batch()
                try:
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
    log: Optional[Callable[[str], None]] = None,
    **serve_kwargs,
) -> int:
    """:func:`serve`, wrapped in the auto-reconnect policy.

    With ``reconnect=False`` this is one session: a refused connection
    raises, a lost coordinator returns.  With ``reconnect=True`` the worker
    survives both — it retries with exponential backoff
    (:data:`BACKOFF_BASE` doubling up to :data:`BACKOFF_CAP` seconds, at
    most :data:`MAX_RETRIES` consecutive failures, unbounded when ``None``)
    so a restarted machine rejoins a running campaign without operator
    action.  Any ``OSError`` reaching the coordinator counts as transient
    and retries — on a machine that is itself booting, refused
    connections, unreachable networks and *unresolvable hostnames* are all
    states that heal on their own.  A successful registration resets the
    backoff; a clean :class:`Shutdown`, an injected crash, and a failed
    handshake (a deterministic authkey/version problem) never retry.
    """
    emit = log if log is not None else (lambda message: None)
    registered = threading.Event()
    #: Last assigned worker id, so retry lines identify which fleet member
    #: is flapping (``None`` until the first successful registration).
    last_worker = {"id": None}

    def on_registered(worker_id: int) -> None:
        last_worker["id"] = worker_id
        registered.set()

    delay = BACKOFF_BASE
    failures = 0
    while True:
        registered.clear()
        reason = "coordinator went away mid-session"
        try:
            status = serve(connect, log=log, on_registered=on_registered, **serve_kwargs)
        except OSError as exc:
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
            delay = BACKOFF_BASE
            failures = 0
        failures += 1
        who = (
            f"worker {last_worker['id']}" if last_worker["id"] is not None
            else "worker (never registered)"
        )
        if MAX_RETRIES is not None and failures > MAX_RETRIES:
            emit(f"{who}: giving up on {connect} after {MAX_RETRIES} retries "
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


#: What a held child reads off the pipe: the port its session connects to.
_PORT = struct.Struct(">H")


def fork_sessions(count: int, session: Callable[[int], int],
                  listen: Callable[[], int] = lambda: 0) -> List[int]:
    """Fork ``count`` children that each run ``session(port)`` with the
    caller's imports loaded; returns their pids, which :func:`end_sessions`
    reaps.

    The children are held on a pipe while the caller runs ``listen()`` —
    which builds what they connect to and returns its port — and each then
    reads that port off the pipe: every child exists before that listener,
    its accept thread or any connection does, so none inherits one.  If
    ``listen()`` raises, the children read EOF, exit without a session and
    are reaped before the error propagates.  A child restores the default
    SIGINT / SIGTERM actions and leaves only through ``os._exit``
    (``session()``'s status, else 1), so it never closes or flushes the
    caller's sink, exit stack or coordinator.
    """
    hold, release = os.pipe()
    pids: List[int] = []
    try:
        try:
            for _ in range(count):
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        signal.signal(signal.SIGINT, signal.SIG_DFL)
                        signal.signal(signal.SIGTERM, signal.SIG_DFL)
                        os.close(release)
                        record = os.read(hold, _PORT.size)  # b"": the caller gave up
                        if len(record) == _PORT.size:
                            status = session(*_PORT.unpack(record))
                    except BaseException:
                        logger.exception("worker session %d failed", os.getpid())
                    finally:
                        os._exit(status)
                pids.append(pid)
            record = _PORT.pack(listen())
            for _ in pids:
                os.write(release, record)  # one atomic record per child
        finally:
            os.close(hold)
            os.close(release)
    except BaseException:
        end_sessions(pids, grace=1.0)
        raise
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
        description="Serve candidate evaluations to a campaign's or a "
                    "tuning service's worker fleet (its --serve-workers).",
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
                        help="retry with exponential backoff (from "
                             f"{BACKOFF_BASE:g}s, doubling up to "
                             f"{BACKOFF_CAP:g}s) when the coordinator is "
                             "unreachable or goes away, so a restarted "
                             "machine rejoins a running campaign (a clean "
                             "Shutdown still exits)")
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
        pids = fork_sessions(args.sessions - 1, lambda _port: _run_session(args, prog))
        statuses = [_run_session(args, prog)]
        statuses += end_sessions(pids)
        pids = []
    finally:
        end_sessions(pids, grace=0.0)
        if args.sessions > 1:
            signal.signal(signal.SIGTERM, previous)
    return next((status for status in statuses if status), 0)


def _run_session(args: argparse.Namespace, prog: str) -> int:
    """One session of this command: :func:`run_session` under the CLI flags;
    a coordinator it cannot reach is one ``error:`` line and status 2."""
    try:
        return run_session(
            args.telemetry_dir,
            args.connect,
            reconnect=args.reconnect,
            max_batches=args.max_batches,
            log=logger.info,
            authkey=args.authkey,
            store_dir=args.store_dir,
            store_max_bytes=args.store_max_bytes,
            no_store=args.no_store,
            mesh=not args.no_mesh,
            mesh_budget_bytes=args.mesh_budget_bytes,
        )
    except OSError as exc:  # refused, timed out, unreachable, unresolvable
        print(f"{prog}: error: cannot reach the coordinator at {args.connect}: "
              f"{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
