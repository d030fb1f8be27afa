"""The tuning service: a long-lived, multi-tenant job API over the substrate.

This inverts the coordinator relationship: instead of one campaign owning
one fleet for one run, a :class:`TuningService` owns the worker pool, the
shared content-addressed artifact cache/store, and a durable job table —
and *clients* come and go, submitting tuning jobs over the pickle-free wire
format (:mod:`repro.distrib.wire`) and streaming generation summaries back.

Two planes, two trust levels:

* the **client plane** (this module's listener) speaks schema-validated
  JSON frames; malformed, oversized, or type-confused input is answered
  with a typed ``error`` frame and the accept loop survives — no byte a
  client sends is ever unpickled;
* the **worker plane** is the existing trusted
  :mod:`repro.distrib.protocol` (HMAC handshake, pickle payloads) behind
  the shared :class:`~repro.campaign.pool.SharedWorkerPool`, unchanged.

Scheduling is generation-granular fair share: each admitted job runs its
deterministic :class:`~repro.tuner.tuner.BinTuner` in its own thread, but
every generation passes through a turnstile that admits exactly one at a
time, always the waiting tenant with the least accumulated work.  That
ordering is the dedupe economics: when tenant B submits the same (source,
family) as tenant A, B is always the lighter tenant when its generation g
comes up, so A has already compiled those exact candidates into the shared
cache and B's generation is all artifact hits — per-tenant accounting shows
B's compile cost at ~0.  Because every job keeps its *own* database shard
and its own GA sequence, each job's fingerprint is bit-for-bit identical to
a solo run of the same spec: shared caches are content-addressed and can
change only timing, never results.

Durability rides :mod:`repro.campaign.database`: each generation checkpoints
the job's shard, the job table persists under ``state_dir``, and a service
restarted over the same ``state_dir`` re-queues unfinished jobs, replaying
their shards so the resumed run converges to the identical fingerprint.
"""

from __future__ import annotations

import hmac
import json
import logging
import socket
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro import telemetry
from repro.distrib import transport
from repro.distrib.errors import ConnectionClosed, ServiceError
from repro.distrib.jobs import (
    AdmissionError,
    AdmissionLimits,
    TERMINAL_EVENTS,
    FairShareQueue,
    Job,
    JobSpec,
    TenantAccounting,
    stable_job_id,
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
from repro.campaign.database import CampaignDatabase
from repro.campaign.campaign import DATABASE_DIR, STORE_DIR, default_compiler_provider
from repro.campaign.pool import open_session
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec, EvaluationStats
from repro.tuner.database import write_text_atomic
from repro.tuner.pipeline import ArtifactCache

logger = logging.getLogger("repro.distrib.service")

JOBS_FILE = "jobs.json"
STATE_VERSION = 1

#: Per-connection socket timeout (seconds): a wedged client cannot pin its
#: handler thread forever.
CLIENT_TIMEOUT = 300.0

#: The service's name: its welcome frame, ``/status`` section and database.
SERVICE_NAME = "repro-tuning"


class _ServiceStopping(Exception):
    """Internal: the service is draining; the job re-queues, not fails."""


class _JobCancelled(Exception):
    """Internal: the job's tenant asked for cancellation."""


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
    #: Worker-pool substrate, exactly the campaign knobs.
    dispatch: Optional[str] = "serial"
    workers: int = 1
    #: ``HOST:PORT`` the *worker*-plane coordinator binds (distributed only).
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
    #: spans) as JSONL here; ``python -m repro.telemetry report`` renders the
    #: per-tenant fair-share table from it.  Observe-only, as ever.
    telemetry_dir: Optional[Path] = None


class _GenerationGate:
    """The fair-share turnstile: one generation runs at a time, least-served
    tenant first (then priority, then arrival).  Stop/cancel wake waiters
    immediately instead of letting them queue for a turn that never comes."""

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

    def _next(self) -> Optional[Job]:
        if not self._waiting:
            return None
        return min(self._waiting, key=self._accounting.fair_share_key)

    @contextmanager
    def turn(self, job: Job):
        with self._cond:
            self._waiting.append(job)
            try:
                while True:
                    if self._stopped:
                        raise _ServiceStopping()
                    if job.cancel_requested:
                        raise _JobCancelled()
                    if not self._busy and self._next() is job:
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
        #: Held across snapshot *and* write so ``jobs.json`` never goes back in
        #: time; taken before ``_lock``, never while holding it.
        self._persist_lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._next_seq = 1
        self._accounting = TenantAccounting()
        self._queue = FairShareQueue(self._accounting)
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
            #: service store when the fleet is distributed.
            self._pool, self.obs_server = open_session(
                stack, "service", self.status_snapshot, self.metrics_snapshot,
                telemetry_dir=self.config.telemetry_dir,
                obs_port=self.config.obs_port,
                obs_host=self.config.obs_host,
                dispatch=self.config.dispatch,
                workers=self.config.workers,
                serve=self.config.serve_workers,
                authkey=self.config.authkey,
                mesh_store=(self._artifact_cache.store
                            if self.config.dispatch == "distributed" else None),
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
        """The worker-plane coordinator address (distributed dispatch only)."""
        if self._pool.coordinator is None:
            return None
        return self._pool.address_string()

    def wait_for_workers(self, count: int, timeout: Optional[float] = None) -> int:
        return self._pool.wait_for_workers(count, timeout)

    # -- durability -------------------------------------------------------------------

    def _jobs_path(self) -> Optional[Path]:
        if self._state_dir is None:
            return None
        return self._state_dir / JOBS_FILE

    def _persist(self) -> None:
        path = self._jobs_path()
        if path is None:
            return
        with self._persist_lock:
            with self._lock:
                rows = []
                for job in self._jobs.values():
                    rows.append(
                        {
                            "job_id": job.job_id,
                            "submitted_seq": job.submitted_seq,
                            "spec": job.spec.as_dict(),
                            "state": job.state,
                            "generations_done": job.generations_done,
                            "error": job.error,
                            "result": job.result,
                            "stats": job.stats.as_dict(),
                        }
                    )
                payload = {"version": STATE_VERSION, "next_seq": self._next_seq,
                           "jobs": rows}
            path.parent.mkdir(parents=True, exist_ok=True)
            write_text_atomic(path, json.dumps(payload, indent=2))

    def _restore_state(self) -> None:
        """Reload the job table and database shards; unfinished jobs re-queue.

        A job that was running when the previous process died resumes from
        its per-generation shard checkpoint: the replayed search hits the
        database for every already-evaluated candidate, so the finished
        fingerprint equals an uninterrupted run's.
        """
        if self._database_dir is not None and CampaignDatabase.saved_in(
            self._database_dir
        ):
            with self._db_lock:
                self._database = CampaignDatabase.load(self._database_dir)
        path = self._jobs_path()
        if path is None or not path.exists():
            return
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("ignoring unreadable job table %s: %s", path, exc)
            return
        restored = 0
        for row in payload.get("jobs", []):
            try:
                spec = JobSpec.from_dict(row["spec"])
                job = Job(row["job_id"], spec, int(row["submitted_seq"]))
            except (KeyError, TypeError, ValueError) as exc:
                logger.warning("skipping corrupt job row: %s", exc)
                continue
            job.generations_done = int(row.get("generations_done", 0))
            job.error = row.get("error")
            job.result = row.get("result")
            job.stats = EvaluationStats.from_dict(row.get("stats", {}))
            state = row.get("state", "queued")
            self._accounting.bump(spec.tenant, "jobs_submitted")
            self._accounting.absorb(spec.tenant, job.stats)
            if state in TERMINAL_EVENTS:
                job.set_state(state)
                counter = {"done": "jobs_done", "failed": "jobs_failed",
                           "cancelled": "jobs_cancelled"}[state]
                self._accounting.bump(spec.tenant, counter)
            else:
                # queued *and* running both restart from the checkpoint.
                job.set_state("queued")
                job.append_event("queued", {"resumed": True})
                self._queue.push(job)
                restored += 1
            self._jobs[job.job_id] = job
            self._next_seq = max(self._next_seq, job.submitted_seq + 1)
        self._next_seq = max(self._next_seq, int(payload.get("next_seq", 1)))
        if restored:
            logger.info("restored %d unfinished job(s) from %s", restored, path)

    # -- scheduling -------------------------------------------------------------------

    def _maybe_start_jobs(self) -> None:
        while True:
            with self._lock:
                if self._stopping or self._active >= self.config.max_active_jobs:
                    return
                job = self._queue.pop()
                if job is None:
                    return
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
            self._accounting.bump(job.spec.tenant, "jobs_cancelled")
        except Exception as exc:  # noqa: BLE001 — a job bug must not kill the service
            logger.exception("job %s failed", job.job_id)
            job.error = {"code": "job-failed", "message": f"{type(exc).__name__}: {exc}"}
            job.finish("failed", dict(job.error))
            self._accounting.bump(job.spec.tenant, "jobs_failed")
        finally:
            self._persist()
            with self._lock:
                self._active -= 1
            self._maybe_start_jobs()

    def _shard_program(self, job: Job) -> str:
        """Per-job shard key: dedupe must stay per-job so every job's shard
        carries its own full record sequence (the fingerprint-parity
        contract); two tenants tuning the same program share *artifacts*,
        never database records."""
        return f"{job.job_id}.{job.spec.program}"

    def _save_shard(self, job: Job) -> None:
        if self._database_dir is None:
            return
        with self._db_lock:
            self._database.save_shard(
                job.spec.family, self._shard_program(job), self._database_dir
            )

    def _run_job(self, job: Job) -> None:
        spec = job.spec
        job.set_state("running")
        job.append_event("started", {"tenant": spec.tenant, "family": spec.family,
                                     "program": spec.program})
        self._persist()
        compiler = default_compiler_provider(spec.family)
        build = BuildSpec(name=spec.program, source=spec.source)
        # The budget mapping is JobBudget's single source of truth — a solo
        # BinTuner built from the same kwargs runs the identical search.
        config = BinTunerConfig(**spec.budget.tuner_config_kwargs())
        with self._db_lock:
            shard = self._database.shard(spec.family, self._shard_program(job))
        tuner = BinTuner(
            compiler,
            build,
            config,
            database=shard,
            mapper_factory=self._pool.mapper,
            artifact_cache=self._artifact_cache,
        )
        # The shared artifact cache is synchronized by the turnstile, so the
        # baseline build (which feeds it) takes a turn like any generation.
        with self._gate.turn(job):
            engine = tuner.evaluation_engine()

        original_evaluate = engine.evaluate_batch

        def gated_evaluate(batch):
            if job.cancel_requested:
                raise _JobCancelled()
            with self._gate.turn(job):
                before = replace(engine.stats)
                with telemetry.get_sink().span(
                    "service.generation",
                    tenant=spec.tenant, job=job.job_id,
                    family=spec.family, program=spec.program,
                    generation=engine.stats.batches,
                ):
                    scores = original_evaluate(batch)
                delta = engine.stats.since(before)
                job.stats = job.stats.add(delta)
                job.generations_done = engine.stats.batches
                self._accounting.absorb(spec.tenant, delta)
                job.append_event(
                    "generation",
                    {
                        "generation": engine.stats.batches,
                        "evaluated": delta.evaluated,
                        "evaluated_total": engine.stats.evaluated,
                        "best_fitness": engine.database.best_fitness(),
                        "compile_seconds": round(delta.compile_seconds, 6),
                        "artifact_hits": delta.artifact_hits,
                        "artifact_misses": delta.artifact_misses,
                        "tier2_hits": delta.artifact_store_hits,
                        "mesh_hits": delta.artifact_mesh_hits,
                    },
                )
            return scores

        engine.evaluate_batch = gated_evaluate
        engine.on_batch = lambda _engine: self._save_shard(job)

        with telemetry.get_sink().span(
            "service.job",
            tenant=spec.tenant, job=job.job_id,
            family=spec.family, program=spec.program,
        ) as span:
            result = tuner.run()
            span.set(iterations=result.iterations,
                     best_fitness=result.best_fitness)
        self._save_shard(job)
        job.result = {
            "best_flags": list(result.best_flags.sorted_names()),
            "best_fitness": result.best_fitness,
            "iterations": result.iterations,
            "fingerprint": shard.fingerprint(),
            "elapsed_seconds": round(result.elapsed_seconds, 6),
        }
        job.finish("done", dict(job.result))
        self._accounting.bump(spec.tenant, "jobs_done")

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
            tenants = self._accounting.snapshot()
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
                self._accounting.bump(tenant[:64], "jobs_rejected")
            return error_message(exc.code, str(exc))
        if self._queue.queued_for(spec.tenant) >= limits.max_queued_per_tenant:
            self._accounting.bump(spec.tenant, "jobs_rejected")
            return error_message(
                "queue-full",
                f"tenant {spec.tenant!r} already has "
                f"{limits.max_queued_per_tenant} queued job(s)",
            )
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            job = Job(stable_job_id(seq), spec, seq)
            self._jobs[job.job_id] = job
        self._accounting.bump(spec.tenant, "jobs_submitted")
        position = self._queue.push(job)
        job.append_event("queued", {"position": position})
        telemetry.get_sink().incr("service.jobs.submitted")
        self._persist()
        self._maybe_start_jobs()
        return make_message("submitted", job_id=job.job_id, position=position)

    def _handle_cancel(self, message: Dict[str, object]) -> Dict[str, object]:
        job = self._get_job(message["job_id"])
        if job.terminal:
            return make_message("cancelled", job_id=job.job_id, state=job.state)
        if self._queue.remove(job):
            job.finish("cancelled", {"reason": "client request"})
            self._accounting.bump(job.spec.tenant, "jobs_cancelled")
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

    def status_snapshot(self) -> Dict[str, object]:
        with self._lock:
            rows = [job.status_row() for job in self._jobs.values()]
            active = self._active
            connections = self.connections
            rejected = self.rejected_frames
        rows.sort(key=lambda row: row["job_id"])
        return {
            "name": SERVICE_NAME,
            "address": self.address_string(),
            "uptime_seconds": round(time.time() - self._started, 3),
            "active_jobs": active,
            "queue_depth": len(self._queue),
            "connections": connections,
            "rejected_frames": rejected,
            "jobs": rows,
            "tenants": self._accounting.snapshot(),
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
        for tenant, row in self._accounting.snapshot().items():
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

    def database(self) -> CampaignDatabase:
        return self._database

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
    "JOBS_FILE",
]
