"""The tuning service: a long-lived, multi-tenant job API over the substrate.

This inverts the coordinator relationship: instead of one campaign owning
one fleet for one run, a :class:`TuningService` owns the worker pool, the
shared content-addressed artifact cache/store, and a durable job table —
and *clients* come and go, submitting tuning jobs over the pickle-free wire
format (:mod:`repro.distrib.wire`) and streaming generation summaries back.
It is the other owner of a run beside
:class:`~repro.campaign.campaign.Campaign`: the same session, job runner
and job table.

Two planes, two trust levels:

* the **client plane** (this module's listener) speaks schema-validated
  JSON frames; malformed, oversized, or type-confused input is answered
  with a typed ``error`` frame and the accept loop survives — no byte a
  client sends is ever unpickled;
* the **worker plane** is the existing trusted
  :mod:`repro.distrib.protocol` (HMAC handshake, pickle payloads) behind
  the shared :class:`~repro.campaign.pool.SharedWorkerPool`, unchanged.

What a client may submit is :mod:`repro.distrib.jobs`; what the service
keeps per admitted job is a :class:`Job`, and per tenant a
:class:`TenantAccounting` row.

Scheduling is fair share, by one key (:meth:`TenantAccounting.fair_share_key`:
the tenant that consumed least, then priority, then arrival), at two
grains.  The admission queue starts the next job by it, and the
:class:`_GenerationGate` turnstile admits one generation at a time by it,
so fairness holds *within* long jobs, not just between them.  That
ordering is the dedupe economics: when tenant B submits the same (source,
family) as tenant A, B is always the lighter tenant when its generation g
comes up, so A has already compiled those exact candidates into the shared
cache and B's generation is all artifact hits — per-tenant accounting shows
B's compile cost at ~0.  Because every job keeps its *own* database shard
and its own GA sequence, each job's fingerprint is bit-for-bit identical to
a solo run of the same spec: shared caches are content-addressed and can
change only timing, never results.

A job runs through :func:`repro.campaign.campaign.run_job`, which
checkpoints the job's shard every generation.  ``state_dir`` is laid out as
a campaign checkpoint is, one :meth:`Job.as_row` per job in the shared job
table (``next_seq`` in its header), so ``python -m repro.campaign report``
reads it too.  A service restarted over the same ``state_dir`` re-queues
unfinished jobs, replaying their shards so the resumed run converges to the
identical fingerprint; finished jobs come back with their terminal event.
"""

from __future__ import annotations

import hmac
import logging
import socket
import threading
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro import telemetry
from repro.campaign.campaign import (DATABASE_DIR, STORE_DIR, default_compiler_provider,
                                     read_checkpoint, run_job, session_telemetry_dir,
                                     write_job_table)
from repro.campaign.database import CampaignDatabase
from repro.campaign.pool import open_session
from repro.distrib import transport
from repro.distrib.errors import ConnectionClosed, ServiceError
from repro.distrib.jobs import (
    JOB_STATES,
    TERMINAL_EVENTS,
    AdmissionError,
    AdmissionLimits,
    JobSpec,
    validate_submission,
)
from repro.distrib.protocol import format_address
from repro.distrib.wire import (
    FrameTooLarge,
    WireError,
    error_message,
    make_message,
    recv_wire,
    send_wire,
)
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec, EvaluationStats
from repro.tuner.pipeline import ArtifactCache

logger = logging.getLogger("repro.campaign.service")

#: Per-connection socket timeout (seconds): a wedged client cannot pin its
#: handler thread forever.
CLIENT_TIMEOUT = 300.0

#: The service's name: its welcome frame, ``/status`` section and database.
SERVICE_NAME = "repro-tuning"


class _ServiceStopping(Exception):
    """Internal: the service is draining; the job re-queues, not fails."""


class _JobCancelled(Exception):
    """Internal: the job's tenant asked for cancellation."""


# ---------------------------------------------------------------------------
# Jobs and tenants
# ---------------------------------------------------------------------------

#: Bound on a job's retained event log (a budget-capped job emits far fewer).
MAX_JOB_EVENTS = 4096


class Job:
    """One admitted job: lifecycle, event log, per-job accounting.

    The event log is the streaming contract: seq-numbered, append-only,
    replayable from any offset — a client that disconnects mid-stream
    reconnects and asks for ``from_seq`` without the service keeping any
    per-connection state.  All mutation goes through the condition lock;
    waiters are woken on every append.
    """

    def __init__(self, job_id: str, spec: JobSpec, submitted_seq: int) -> None:
        self.job_id = job_id
        self.spec = spec
        self.submitted_seq = submitted_seq
        self.state = "queued"
        self.error: Optional[Dict[str, str]] = None
        self.result: Optional[Dict[str, object]] = None
        self.generations_done = 0
        self.stats = EvaluationStats()
        self.created = time.time()
        self.cancel_requested = False
        self._events: List[Dict[str, object]] = []
        self._cond = threading.Condition()

    # -- events -----------------------------------------------------------------------

    def append_event(self, kind: str, data: Dict[str, object]) -> None:
        with self._cond:
            if len(self._events) >= MAX_JOB_EVENTS:
                # Keep the log bounded but never drop the terminal event's
                # slot: trim from the middle of the generation stream.
                del self._events[1 : len(self._events) // 2]
            self._events.append(
                {"seq": len(self._events) and self._events[-1]["seq"] + 1 or 1,
                 "kind": kind, "data": data}
            )
            self._cond.notify_all()

    def events_since(self, from_seq: int, timeout: Optional[float] = None
                     ) -> List[Dict[str, object]]:
        """Events with ``seq > from_seq``; blocks up to ``timeout`` for one."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                fresh = [event for event in self._events if event["seq"] > from_seq]
                if fresh or self.state in TERMINAL_EVENTS:
                    return fresh
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(timeout=remaining)

    # -- state ------------------------------------------------------------------------

    def set_state(self, state: str) -> None:
        assert state in JOB_STATES, state
        with self._cond:
            self.state = state
            self._cond.notify_all()

    def finish(self, state: str, data: Dict[str, object]) -> None:
        """Append the terminal event and enter its state as *one* step: a
        reader must never see the event before the state, or the reverse."""
        with self._cond:
            self.append_event(state, data)
            self.set_state(state)

    def request_cancel(self) -> None:
        with self._cond:
            self.cancel_requested = True
            self._cond.notify_all()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_EVENTS

    @property
    def shard_program(self) -> str:
        """Per-job shard key: dedupe must stay per-job so every job's shard
        carries its own full record sequence (the fingerprint-parity
        contract); two tenants tuning the same program share *artifacts*,
        never database records."""
        return f"{self.job_id}.{self.spec.program}"

    def as_row(self) -> Dict[str, object]:
        """This job's row of the job table; ``(family, program)`` is its
        shard key."""
        with self._cond:
            return {
                "family": self.spec.family,
                "program": self.shard_program,
                "state": self.state,
                "result": self.result,
                "stats": self.stats.as_dict(),
                "job_id": self.job_id,
                "submitted_seq": self.submitted_seq,
                "spec": self.spec.as_dict(),
                "generations_done": self.generations_done,
                "error": self.error,
            }

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "Job":
        """Inverse of :meth:`as_row`: a terminal job with its terminal event
        (so a stream or ``wait`` after a restart ends), any other ``queued``."""
        job = cls(row["job_id"], JobSpec.from_dict(row["spec"]), int(row["submitted_seq"]))
        job.generations_done = int(row.get("generations_done", 0))
        job.error = row.get("error")
        job.result = row.get("result")
        job.stats = EvaluationStats.from_dict(row.get("stats", {}))
        state = row.get("state", "queued")
        if state in TERMINAL_EVENTS:
            job.finish(state, dict(job.result or job.error or {}))
        return job

    def status_row(self) -> Dict[str, object]:
        with self._cond:
            row: Dict[str, object] = {
                "job_id": self.job_id,
                "tenant": self.spec.tenant,
                "program": self.spec.program,
                "family": self.spec.family,
                "state": self.state,
                "priority": self.spec.priority,
                "generations_done": self.generations_done,
                "budget": self.spec.budget.as_dict(),
                "evaluated": self.stats.evaluated,
                "compile_seconds": round(self.stats.compile_seconds, 6),
                "events": len(self._events),
            }
            if self.error is not None:
                row["error"] = dict(self.error)
            if self.result is not None:
                row["result"] = dict(self.result)
            return row


def stable_job_id(seq: int) -> str:
    return f"job-{seq:05d}"


class TenantAccounting:
    """Per-tenant totals: the ``/status`` billing view and the fair-share cost.

    Two things live here because no :class:`Job` holds them: refused
    submissions (``jobs_rejected``) and each tenant's sum of engine stats,
    folded in once per generation.  ``candidates`` evaluated is the
    fair-share cost signal; the artifact-tier counters are the dedupe
    economics made visible — a tenant whose submissions repeat another's
    shows compile seconds near zero and hits near 100%.  The job counts
    are read off the service's jobs when a view is rendered.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rejected: Counter = Counter()
        self._stats: Dict[str, EvaluationStats] = {}

    def reject(self, tenant: str) -> None:
        with self._lock:
            self._rejected[tenant] += 1

    def absorb(self, tenant: str, delta: EvaluationStats) -> None:
        """Fold one generation's engine-stat delta into the tenant's totals."""
        with self._lock:
            self._stats[tenant] = self._stats.get(tenant, EvaluationStats()).add(delta)

    def fair_share_key(self, job: Job) -> Tuple[int, int, int]:
        """The fair-share order, smallest first: the tenant that consumed
        least (candidates evaluated), then higher priority, then arrival.
        The admission queue and the generation turnstile both sort by it."""
        with self._lock:
            stats = self._stats.get(job.spec.tenant)
        cost = stats.evaluated if stats is not None else 0
        return (cost, -job.spec.priority, job.submitted_seq)

    def snapshot(self, jobs: Iterable[Job]) -> Dict[str, Dict[str, object]]:
        """One row per tenant with a job, a rejection or stats, by name."""
        states: Dict[str, Counter] = {}
        for job in jobs:
            states.setdefault(job.spec.tenant, Counter())[job.state] += 1
        with self._lock:
            tenants = sorted(set(states) | set(self._rejected) | set(self._stats))
            out: Dict[str, Dict[str, object]] = {}
            for tenant in tenants:
                counts = states.get(tenant, Counter())
                stats = self._stats.get(tenant, EvaluationStats())
                out[tenant] = {
                    "jobs_submitted": sum(counts.values()),
                    "jobs_rejected": self._rejected[tenant],
                    "jobs_done": counts["done"],
                    "jobs_failed": counts["failed"],
                    "jobs_cancelled": counts["cancelled"],
                    "candidates_evaluated": stats.evaluated,
                    "compile_seconds": round(stats.compile_seconds, 6),
                    "worker_seconds": round(stats.worker_seconds, 6),
                    "artifact_hits": stats.artifact_hits,
                    "artifact_misses": stats.artifact_misses,
                    "tier2_hits": stats.artifact_store_hits,
                    "mesh_hits": stats.artifact_mesh_hits,
                    "database_hits": stats.database_hits,
                }
            return out


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    #: Client-plane bind address.  Loopback by default; the wire format is
    #: pickle-free so a wider bind is safe *transport-wise*, but pair it
    #: with ``token`` — the endpoints mutate state.
    host: str = "127.0.0.1"
    port: int = 0
    #: Shared bearer token every request must carry (``None``: open —
    #: appropriate on loopback only).  Constant-time compared.
    token: Optional[str] = None
    #: Durability root: job table, per-job database shards, artifact store.
    #: ``None`` keeps everything in memory (tests, demos).
    state_dir: Optional[Path] = None
    #: The worker pool's two facts, exactly the campaign knobs: local
    #: sessions to fork, and the ``HOST:PORT`` where remote workers join
    #: (the *worker*-plane coordinator's bind; ``None`` admits none).
    workers: int = 1
    serve_workers: Optional[str] = None
    authkey: Optional[str] = None
    limits: AdmissionLimits = field(default_factory=AdmissionLimits)
    #: How many job runner threads may exist at once.  Generations are
    #: serialized by the fair-share turnstile regardless; this only caps
    #: thread count and checkpoint-replay concurrency.
    max_active_jobs: int = 4
    obs_port: Optional[int] = None
    obs_host: str = "127.0.0.1"
    #: Write tenant-tagged telemetry (``service.job`` / ``service.generation``
    #: spans) as JSONL here when there is no ``state_dir``; with one it goes
    #: to ``state_dir/telemetry`` and setting both is an error.
    #: ``python -m repro.campaign report`` renders the per-tenant fair-share
    #: table from it.  Observe-only, as ever.
    telemetry_dir: Optional[Path] = None


class _GenerationGate:
    """The fair-share turnstile: one generation runs at a time, the waiting
    job that is first by :meth:`TenantAccounting.fair_share_key` (the
    admission queue's order).  Stop/cancel wake waiters immediately instead
    of letting them queue for a turn that never comes."""

    def __init__(self, accounting: TenantAccounting) -> None:
        self._accounting = accounting
        self._cond = threading.Condition()
        self._waiting: List[Job] = []
        self._busy = False
        self._stopped = False

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    @contextmanager
    def turn(self, job: Job):
        with self._cond:
            self._waiting.append(job)
            try:
                while True:
                    if job.cancel_requested:
                        raise _JobCancelled()
                    if self._stopped:
                        raise _ServiceStopping()
                    if (not self._busy and
                            min(self._waiting, key=self._accounting.fair_share_key) is job):
                        break
                    self._cond.wait(timeout=1.0)
            finally:
                self._waiting.remove(job)
            self._busy = True
        try:
            yield
        finally:
            with self._cond:
                self._busy = False
                self._cond.notify_all()


class TuningService:
    """Accepts tuning jobs from many tenants over one shared substrate."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self._lock = threading.Lock()
        self._db_lock = threading.Lock()
        #: Held across snapshot *and* write so the job table never goes back
        #: in time; taken before ``_lock``, never while holding it.
        self._persist_lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._next_seq = 1
        self._accounting = TenantAccounting()
        #: The admission queue, guarded by ``_lock``: a tenant's cap check
        #: and the append are one step, and the next job is the
        #: fair-share minimum (:meth:`TenantAccounting.fair_share_key`).
        self._queued: List[Job] = []
        self._gate = _GenerationGate(self._accounting)
        self._active = 0
        self._runners: List[threading.Thread] = []
        self._stopping = False
        self._started = time.time()
        self.rejected_frames = 0
        self.rejected_connections = 0
        self.connections = 0

        state_dir = self.config.state_dir
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._database_dir = (
            self._state_dir / DATABASE_DIR if self._state_dir is not None else None
        )
        self._database = CampaignDatabase(name=SERVICE_NAME)
        # The service owns the cache every job's tuner borrows: its store is
        # attached here, once, and the mesh serves that same store.
        self._artifact_cache = ArtifactCache().ensure_store(
            self._state_dir / STORE_DIR if self._state_dir is not None else None
        )

        # Everything with a lifetime is entered here in order — the session
        # (sink, pool, observability server), then the client listener — and
        # closed by :meth:`close` in reverse; a constructor that fails
        # part-way (a taken port) unwinds the same way.
        with ExitStack() as stack:
            #: ``obs_server`` is the ``/metrics`` + ``/status`` server
            #: (``None`` without a port).  The mesh is served from the
            #: service store when remote workers may join.
            self._pool, self.obs_server = open_session(
                stack, "service", self.status_snapshot, self.metrics_snapshot,
                telemetry_dir=session_telemetry_dir(self._state_dir,
                                                    self.config.telemetry_dir),
                obs_port=self.config.obs_port,
                obs_host=self.config.obs_host,
                workers=self.config.workers,
                serve_workers=self.config.serve_workers,
                authkey=self.config.authkey,
                mesh_store=(self._artifact_cache.store
                            if self.config.serve_workers is not None else None),
            )
            if self._state_dir is not None:
                self._restore_state()
            # Client plane: pickle-free listener, crash-proof accept loop.
            self._listener = transport.Listener(
                self.config.host, self.config.port, 32, self._admit, "service-accept")
            self._session = stack.pop_all()
        self.host, self.port = self._listener.host, self._listener.port
        self._accept_thread = self._listener.start()
        logger.info("tuning service listening on %s", self.address_string())
        self._maybe_start_jobs()

    # -- addresses / fleet ------------------------------------------------------------

    def address_string(self) -> str:
        return format_address(self.host, self.port)

    def worker_address(self) -> Optional[str]:
        """The worker-plane coordinator address (only with ``serve_workers``)."""
        if self.config.serve_workers is None:
            return None
        return self._pool.address_string()

    def wait_for_workers(self, count: int, timeout: Optional[float] = None) -> int:
        return self._pool.wait_for_workers(count, timeout)

    # -- durability -------------------------------------------------------------------

    def _persist(self) -> None:
        if self._state_dir is None:
            return
        with self._persist_lock:
            with self._lock:
                rows = [job.as_row() for job in self._jobs.values()]
                next_seq = self._next_seq
            write_job_table(self._state_dir, SERVICE_NAME, rows, next_seq=next_seq)

    def _restore_state(self) -> None:
        """Reload the job table and database shards; unfinished jobs re-queue.

        A job that was running when the previous process died resumes from
        its per-generation shard checkpoint: the replayed search hits the
        database for every already-evaluated candidate, so the finished
        fingerprint equals an uninterrupted run's.  No readable table, no
        database: its shard keys name job ids this service would hand out again.
        """
        try:
            database, table = read_checkpoint(self._state_dir)
        except (OSError, ValueError) as exc:
            logger.warning("ignoring unreadable state under %s: %s", self._state_dir, exc)
            return
        if table is None:
            if database is not None:
                logger.warning("ignoring the database under %s: no job table", self._state_dir)
            return
        if database is not None:
            self._database = database
        restored = 0
        for row in table["jobs"]:
            try:
                job = Job.from_row(row)
            except (KeyError, TypeError, ValueError) as exc:
                logger.warning("skipping corrupt job row: %s", exc)
                continue
            self._accounting.absorb(job.spec.tenant, job.stats)
            if not job.terminal:
                job.append_event("queued", {"resumed": True})
                self._queued.append(job)
                restored += 1
            self._jobs[job.job_id] = job
            self._next_seq = max(self._next_seq, job.submitted_seq + 1)
        self._next_seq = max(self._next_seq, int(table.get("next_seq", 1)))
        if restored:
            logger.info("restored %d unfinished job(s) from %s", restored, self._state_dir)

    # -- scheduling -------------------------------------------------------------------

    def _maybe_start_jobs(self) -> None:
        while True:
            with self._lock:
                if (self._stopping or self._active >= self.config.max_active_jobs
                        or not self._queued):
                    return
                job = min(self._queued, key=self._accounting.fair_share_key)
                self._queued.remove(job)
                self._active += 1
                thread = threading.Thread(
                    target=self._runner, args=(job,),
                    name=f"service-job:{job.job_id}", daemon=True,
                )
                self._runners.append(thread)
            thread.start()

    def _runner(self, job: Job) -> None:
        try:
            self._run_job(job)
        except _ServiceStopping:
            # Not a failure: back to the queue, durable, resumed next start.
            job.set_state("queued")
        except _JobCancelled:
            job.finish("cancelled", {"reason": "client request"})
        except Exception as exc:  # noqa: BLE001 — a job bug must not kill the service
            logger.exception("job %s failed", job.job_id)
            job.error = {"code": "job-failed", "message": f"{type(exc).__name__}: {exc}"}
            job.finish("failed", dict(job.error))
        finally:
            self._persist()
            with self._lock:
                self._active -= 1
            self._maybe_start_jobs()

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        job.set_state("running")
        job.append_event("started", {"tenant": spec.tenant, "family": spec.family,
                                     "program": spec.program})
        self._persist()
        program = job.shard_program
        with self._db_lock:
            shard = self._database.shard(spec.family, program)
        tuner = BinTuner(
            default_compiler_provider(spec.family),
            BuildSpec(name=spec.program, source=spec.source),
            # The budget mapping is JobBudget's single source of truth — a
            # solo BinTuner built from the same kwargs runs the identical search.
            BinTunerConfig(**spec.budget.tuner_config_kwargs()),
            database=shard,
            mapper_factory=self._pool.mapper,
            artifact_cache=self._artifact_cache,
        )

        def checkpoint() -> None:
            if self._database_dir is not None:
                with self._db_lock:
                    self._database.save_shard(spec.family, program, self._database_dir)

        def on_generation(engine, delta) -> None:
            job.stats = job.stats.add(delta)
            job.generations_done = engine.stats.batches
            self._accounting.absorb(spec.tenant, delta)
            job.append_event("generation", {
                "generation": engine.stats.batches,
                "evaluated": delta.evaluated,
                "evaluated_total": engine.stats.evaluated,
                "best_fitness": engine.database.best_fitness(),
                "compile_seconds": round(delta.compile_seconds, 6),
                "artifact_hits": delta.artifact_hits,
                "artifact_misses": delta.artifact_misses,
                "tier2_hits": delta.artifact_store_hits,
                "mesh_hits": delta.artifact_mesh_hits,
            })

        # The turnstile serializes the shared artifact cache: the baseline build
        # takes a turn too, and accounting lands before the next turn is chosen.
        result = run_job(
            tuner, "service",
            {"tenant": spec.tenant, "job": job.job_id,
             "family": spec.family, "program": spec.program},
            checkpoint,
            on_generation,
            turn=lambda: self._gate.turn(job),
        )
        job.result = {
            "best_flags": list(result.best_flags.sorted_names()),
            "best_fitness": result.best_fitness,
            "iterations": result.iterations,
            "fingerprint": shard.fingerprint(),
            "elapsed_seconds": round(result.elapsed_seconds, 6),
        }
        job.finish("done", dict(job.result))

    # -- client plane -----------------------------------------------------------------

    def _admit(self, conn: socket.socket, peer) -> None:
        """Give one accepted connection its own handler thread."""
        try:
            conn.settimeout(CLIENT_TIMEOUT)
            with self._lock:
                self.connections += 1
            threading.Thread(
                target=self._serve_client, args=(conn, peer),
                name=f"service-client:{peer[0]}:{peer[1]}", daemon=True,
            ).start()
        except Exception as exc:  # noqa: BLE001 — accept loop must survive
            with self._lock:
                self.rejected_connections += 1
            logger.warning("client connection from %s rejected: %s", peer, exc)
            transport.close(conn)

    def _serve_client(self, conn: socket.socket, peer) -> None:
        try:
            send_wire(conn, make_message(
                "welcome", service=SERVICE_NAME,
                families=list(self.config.limits.families),
            ))
            while not self._stopping:
                try:
                    message = recv_wire(conn)
                except FrameTooLarge as exc:
                    # The oversized payload was never read, so the stream
                    # cannot be resynchronized: one typed error, then hang up.
                    with self._lock:
                        self.rejected_frames += 1
                    send_wire(conn, error_message(exc.code, str(exc)))
                    return
                except WireError as exc:
                    # Payload fully read but refused: answer and keep going.
                    with self._lock:
                        self.rejected_frames += 1
                    send_wire(conn, error_message(exc.code, str(exc)))
                    continue
                try:
                    self._dispatch(conn, message)
                except ServiceError as exc:
                    send_wire(conn, error_message(exc.code, str(exc)))
                except ConnectionClosed:
                    raise
                except Exception as exc:  # noqa: BLE001 — never a traceback on the wire
                    logger.exception("handler failed for %s from %s",
                                     message.get("type"), peer)
                    send_wire(conn, error_message(
                        "internal", f"{type(exc).__name__} while handling "
                        f"{message.get('type')!r}"))
        except (ConnectionClosed, TimeoutError, OSError):
            pass  # client went away — routine, not an incident
        finally:
            transport.close(conn)

    def _authorized(self, message: Dict[str, object]) -> bool:
        token = self.config.token
        if token is None:
            return True
        offered = message.get("token")
        return isinstance(offered, str) and hmac.compare_digest(offered, token)

    def _dispatch(self, conn: socket.socket, message: Dict[str, object]) -> None:
        kind = message["type"]
        if kind == "ping":
            send_wire(conn, make_message(
                "pong", uptime_seconds=round(time.time() - self._started, 3)))
            return
        if not self._authorized(message):
            raise ServiceError("unauthorized", "missing or invalid token")
        if kind == "submit":
            send_wire(conn, self._handle_submit(message))
        elif kind == "status":
            send_wire(conn, make_message(
                "job", job=self._get_job(message["job_id"]).status_row()))
        elif kind == "jobs":
            tenant = message.get("tenant")
            with self._lock:
                rows = [job.status_row() for job in self._jobs.values()
                        if tenant is None or job.spec.tenant == tenant]
            rows.sort(key=lambda row: row["job_id"])
            send_wire(conn, make_message("job_list", rows=rows))
        elif kind == "cancel":
            send_wire(conn, self._handle_cancel(message))
        elif kind == "accounting":
            tenants = self._tenants()
            tenant = message.get("tenant")
            if tenant is not None:
                tenants = {name: row for name, row in tenants.items()
                           if name == tenant}
            send_wire(conn, make_message("accounts", tenants=tenants))
        elif kind == "stream":
            self._handle_stream(conn, message)
        else:
            # A schema-valid but server-bound type (e.g. a client replaying
            # "welcome" back) is a protocol misuse, not a crash.
            raise ServiceError("bad-type", f"{kind!r} is not a client request")

    def _get_job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("unknown-job", f"no such job {job_id!r}")
        return job

    def _handle_submit(self, message: Dict[str, object]) -> Dict[str, object]:
        limits = self.config.limits
        try:
            spec = validate_submission(message, limits)
        except AdmissionError as exc:
            with self._lock:
                self.rejected_frames += 1
            tenant = message.get("tenant")
            if isinstance(tenant, str) and tenant:
                self._accounting.reject(tenant[:64])
            return error_message(exc.code, str(exc))
        with self._lock:
            waiting = sum(1 for queued in self._queued if queued.spec.tenant == spec.tenant)
            full = waiting >= limits.max_queued_per_tenant
            if not full:
                seq = self._next_seq
                self._next_seq += 1
                job = Job(stable_job_id(seq), spec, seq)
                self._jobs[job.job_id] = job
                position = len(self._queued)  # jobs ahead of it right now
                self._queued.append(job)
                job.append_event("queued", {"position": position})
        if full:
            self._accounting.reject(spec.tenant)
            return error_message(
                "queue-full",
                f"tenant {spec.tenant!r} already has "
                f"{limits.max_queued_per_tenant} queued job(s)",
            )
        telemetry.get_sink().incr("service.jobs.submitted")
        self._persist()
        self._maybe_start_jobs()
        return make_message("submitted", job_id=job.job_id, position=position)

    def _handle_cancel(self, message: Dict[str, object]) -> Dict[str, object]:
        job = self._get_job(message["job_id"])
        if job.terminal:
            return make_message("cancelled", job_id=job.job_id, state=job.state)
        with self._lock:
            queued = job in self._queued
            if queued:
                self._queued.remove(job)
        if queued:
            job.finish("cancelled", {"reason": "client request"})
            self._persist()
            return make_message("cancelled", job_id=job.job_id, state="cancelled")
        # Running: the turnstile check picks it up before the next generation.
        job.request_cancel()
        return make_message("cancelled", job_id=job.job_id, state=job.state)

    def _handle_stream(self, conn: socket.socket,
                       message: Dict[str, object]) -> None:
        """Stream a job's events from ``from_seq``; ends after the terminal
        event.  The log lives on the job, so a client that disconnects and
        reconnects replays from any offset — no per-connection state."""
        job = self._get_job(message["job_id"])
        seq = message.get("from_seq", 0)
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
            raise ServiceError("bad-schema", "from_seq must be a non-negative integer")
        while True:
            events = job.events_since(seq, timeout=0.5)
            for event in events:
                seq = event["seq"]
                send_wire(conn, make_message(
                    "event", job_id=job.job_id, seq=seq,
                    kind=event["kind"], data=event["data"],
                ))
            if self._stopping:
                return
            if not events and job.terminal:
                return

    # -- observability ----------------------------------------------------------------

    def _tenants(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant accounting, the job counts read off the jobs."""
        with self._lock:
            jobs = list(self._jobs.values())
        return self._accounting.snapshot(jobs)

    def status_snapshot(self) -> Dict[str, object]:
        with self._lock:
            rows = [job.status_row() for job in self._jobs.values()]
            queue_depth = len(self._queued)
            active = self._active
            connections = self.connections
            rejected = self.rejected_frames
        rows.sort(key=lambda row: row["job_id"])
        return {
            "name": SERVICE_NAME,
            "address": self.address_string(),
            "uptime_seconds": round(time.time() - self._started, 3),
            "active_jobs": active,
            "queue_depth": queue_depth,
            "connections": connections,
            "rejected_frames": rejected,
            "jobs": rows,
            "tenants": self._tenants(),
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Per-tenant counters for ``/metrics`` (merged into the sink's)."""
        counters: Dict[str, float] = {}
        with self._lock:
            counters["service.connections"] = float(self.connections)
            counters["service.rejected_frames"] = float(self.rejected_frames)
            counters["service.rejected_connections"] = float(
                self.rejected_connections)
            counters["service.jobs"] = float(len(self._jobs))
        for tenant, row in self._tenants().items():
            prefix = f"service.tenant.{tenant}"
            counters[f"{prefix}.candidates"] = float(row["candidates_evaluated"])
            counters[f"{prefix}.compile_seconds"] = float(row["compile_seconds"])
            counters[f"{prefix}.tier2_hits"] = float(row["tier2_hits"])
            counters[f"{prefix}.mesh_hits"] = float(row["mesh_hits"])
            counters[f"{prefix}.jobs_done"] = float(row["jobs_done"])
            counters[f"{prefix}.jobs_rejected"] = float(row["jobs_rejected"])
        return {"counters": counters}

    # -- queries used by tests / the CLI ----------------------------------------------

    def job(self, job_id: str) -> Job:
        return self._get_job(job_id)

    # -- lifecycle --------------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Drain: stop accepting, park running jobs back in the queue
        (durably, when ``state_dir`` is set), shut the pool down."""
        self._stopping = True
        self._gate.stop()
        self._listener.close()
        deadline = time.monotonic() + timeout
        for thread in self._runners:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        self._persist()
        self._session.close()  # server first, then the pool, then the sink

    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_forever(service: TuningService) -> None:
    """Block until interrupted (the CLI's foreground mode)."""
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        logger.info("interrupt: draining service")
    finally:
        service.close()


__all__ = [
    "ServiceConfig",
    "TuningService",
    "serve_forever",
]
