"""The campaign orchestrator: suite-scale tuning over a programs × compilers matrix.

The paper's headline numbers (Table 1, Figs. 5-8) are *suite* results — every
SPEC/Coreutils/OpenSSL benchmark tuned per compiler — while :class:`BinTuner`
drives exactly one program.  :class:`Campaign` is the layer between them:

* it iterates a deterministic job list (one ``(compiler family, program)``
  pair per job) and drives one :class:`BinTuner` per job;
* all jobs share a single :class:`~repro.campaign.pool.SharedWorkerPool`, so
  a multi-worker campaign pays process spawn once, not once per program;
  with ``dispatch="distributed"`` that pool is a network coordinator
  (:mod:`repro.distrib`) and the workers may live on other machines;
* every job's records land in its shard of one
  :class:`~repro.campaign.database.CampaignDatabase` — dedup stays
  per-program, aggregation is campaign-wide;
* with a ``checkpoint_dir``, the campaign writes a JSON checkpoint after
  every completed generation and every completed program.  A killed campaign
  resumes from the last completed generation: finished programs are
  reconstructed from the manifest, and the in-progress program *replays* its
  seeded search against the checkpointed shard — every already-evaluated
  candidate is a database hit, so the resumed run converges to a database
  bit-for-bit identical (timing aside) to an uninterrupted one, for any
  worker count;
* the best flag vectors of finished programs seed the initial GA population
  of later same-family programs (cross-program warm starts) — a scenario the
  serial per-program design could not express;
* each run happens inside one **session** owning everything with a
  lifetime — telemetry sink, pool, ``/metrics`` + ``/status`` server —
  built one way for every dispatch mode.  ``run()`` opens one for its own
  duration; ``with campaign:`` opens it ahead of ``run()`` so the caller
  can read the bound addresses off ``campaign.pool`` / ``.obs_server``.
"""

from __future__ import annotations

import json
import logging
import shutil
import socket
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.backend.binary import BinaryImage
from repro.compilers import SimGCC, SimLLVM
from repro.compilers.base import Compiler
from repro.campaign.database import CampaignDatabase, ShardKey
from repro.campaign.pool import SharedWorkerPool
from repro.tuner.database import write_text_atomic
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec, EvaluationStats, TuningResult
from repro.tuner.pipeline import DEFAULT_ARTIFACT_CACHE_SIZE, ArtifactCache
from repro.tuner.store import DEFAULT_STORE_MAX_BYTES
from repro.workloads import benchmark, suite_benchmarks

logger = logging.getLogger("repro.campaign")

MANIFEST_VERSION = 1

#: Subdirectory of the checkpoint dir holding the sharded database.
DATABASE_DIR = "database"

#: Default subdirectory of the checkpoint dir holding the artifact store —
#: checkpoint resume is warm *by construction*: the same ``--checkpoint-dir``
#: that replays the database also serves every compile from disk.
STORE_DIR = "store"


@dataclass(frozen=True)
class ProgramJob:
    """One unit of campaign work: tune one program with one compiler family."""

    family: str
    program: str

    def key(self) -> ShardKey:
        return (self.family, self.program)


def default_compiler_provider(family: str) -> Compiler:
    """Fresh simulated compiler per job (no cross-program compiler state)."""
    if family == "gcc":
        return SimGCC()
    if family == "llvm":
        return SimLLVM()
    raise KeyError(f"unknown compiler family {family!r}")


def workload_spec_provider(job: ProgramJob) -> BuildSpec:
    """Default spec source: the benchmark workload corpus."""
    workload = benchmark(job.program)
    return BuildSpec(
        name=workload.name,
        source=workload.source,
        arguments=workload.arguments,
        inputs=workload.inputs,
    )


@dataclass
class CampaignConfig:
    """Knobs of one campaign run."""

    name: str = "campaign"
    tuner: BinTunerConfig = field(default_factory=BinTunerConfig)
    #: Worker-pool knobs, shared across every program of the campaign (they
    #: override the per-tuner ``executor``/``workers`` fields).
    workers: int = 1
    #: Execution substrate of the shared pool ("serial" | "process" |
    #: "thread" | "distributed"); ``None`` is serial, and ``None`` or
    #: "serial" with ``workers > 1`` is the process pool.
    dispatch: Optional[str] = None
    #: ``HOST:PORT`` the distributed coordinator binds (default: loopback on
    #: an ephemeral port; enter the campaign and read it off
    #: ``campaign.pool.address_string()``).
    serve: Optional[str] = None
    #: Shared secret for the worker handshake (required when serving beyond
    #: loopback: the transport is pickle, and unpickling bytes from an
    #: unauthenticated peer is code execution).
    authkey: Optional[str] = None
    #: With distributed dispatch, block until this many remote workers have
    #: registered before tuning starts (0: start immediately; candidates are
    #: evaluated in-process until workers join).
    min_workers: int = 0
    #: How long :attr:`min_workers` may take before the campaign errors out.
    worker_wait_timeout: float = 120.0
    #: Bound (entries) of the campaign-wide artifact cache shared by every
    #: job's evaluator.
    artifact_cache_size: int = DEFAULT_ARTIFACT_CACHE_SIZE
    #: Directory of the disk-backed artifact store behind the campaign cache
    #: (:mod:`repro.tuner.store`).  ``None`` defaults to
    #: ``checkpoint_dir/store`` when checkpointing is on, so a killed-and-
    #: restarted campaign re-pays no compile or emulation it already did;
    #: without a checkpoint dir the cache stays memory-only.  The path
    #: travels to worker processes, so every local worker opens the store.
    store_dir: Optional[Path] = None
    #: Byte budget of the store's LRU garbage collection (``None``: unbounded).
    store_max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES
    #: Serve the artifact mesh from the campaign's store (distributed
    #: dispatch only): workers push freshly compiled tier-2 entries to the
    #: coordinator and fetch their misses from other machines' past work
    #: before paying a compile.  Requires a store directory (explicit, or
    #: the checkpoint-derived default).
    mesh: bool = False
    #: Per-machine byte cap on mesh transfer, both directions
    #: (``None``: unbounded).
    mesh_budget_bytes: Optional[int] = None
    #: Seed later programs' GA populations with earlier programs' best flags.
    warm_start: bool = True
    #: At most this many prior bests are injected per program.
    warm_start_limit: int = 4
    #: Where checkpoints live; ``None`` disables checkpointing.
    checkpoint_dir: Optional[Path] = None
    #: Directory for structured telemetry (:mod:`repro.telemetry`).  When
    #: set, the campaign's session records JSONL there through the one
    #: :class:`~repro.telemetry.JsonlSink`; workers of a distributed fleet
    #: additionally forward compact summaries to the coordinator.  Telemetry
    #: is observe-only — fingerprints, checkpoints, and recorded results are
    #: bit-for-bit identical with it on or off.  With neither this nor
    #: ``obs_port`` set the zero-cost null sink stays.
    telemetry_dir: Optional[Path] = None
    #: Port of the live observability HTTP server (``/metrics`` +
    #: ``/status``); ``0`` binds an ephemeral port (read it off
    #: ``campaign.obs_server`` inside ``with campaign:``), ``None`` disables
    #: it.  The session owns the server for every dispatch mode: ``campaign``
    #: progress, plus ``fleet`` health when the pool has a coordinator, over
    #: the same sink as ``telemetry_dir``.  Observe-only, like the JSONL sink.
    obs_port: Optional[int] = None
    #: Bind address of the observability server — loopback by default; the
    #: endpoints are unauthenticated read-only JSON/text, so exposing them
    #: beyond loopback is an explicit operator decision.
    obs_host: str = "127.0.0.1"


class CampaignProgress:
    """Thread-safe live view of a running campaign, for ``/status``.

    The campaign thread updates it at job boundaries and after every
    generation (via the engine's ``on_batch`` hook); the observability
    server's handler threads call :meth:`snapshot` concurrently.  Strictly
    observe-only: nothing here feeds back into tuning, checkpoints or
    fingerprints.
    """

    def __init__(self, name: str) -> None:
        self._lock = threading.Lock()
        self.name = name
        self._state: Dict[str, object] = {"name": name, "state": "idle"}

    def begin(self, jobs_total: int, jobs_completed: int = 0) -> None:
        with self._lock:
            self._state = {
                "name": self.name,
                "state": "running",
                "jobs_total": jobs_total,
                "jobs_completed": jobs_completed,
                "generations_total": 0,
                "started_epoch": time.time(),
            }

    def job_started(self, job: "ProgramJob") -> None:
        with self._lock:
            self._state["current"] = {
                "family": job.family,
                "program": job.program,
                "generation": 0,
                "evaluated": 0,
                "best_fitness": None,
            }

    def generation_finished(
        self, generation: int, best_fitness: Optional[float], evaluated: int
    ) -> None:
        with self._lock:
            current = self._state.get("current")
            if isinstance(current, dict):
                current["generation"] = generation
                current["evaluated"] = evaluated
                current["best_fitness"] = best_fitness
            total = self._state.get("generations_total")
            self._state["generations_total"] = (
                total + 1 if isinstance(total, int) else 1
            )

    def job_finished(self, best_fitness: Optional[float] = None) -> None:
        with self._lock:
            completed = self._state.get("jobs_completed")
            self._state["jobs_completed"] = (
                completed + 1 if isinstance(completed, int) else 1
            )
            last = self._state.pop("current", None)
            if isinstance(last, dict):
                if best_fitness is not None:
                    last["best_fitness"] = best_fitness
                self._state["last_job"] = last

    def finish(self, interrupted: bool = False) -> None:
        with self._lock:
            self._state["state"] = "interrupted" if interrupted else "finished"

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            snapshot = dict(self._state)
            current = snapshot.get("current")
            if isinstance(current, dict):
                snapshot["current"] = dict(current)
            last = snapshot.get("last_job")
            if isinstance(last, dict):
                snapshot["last_job"] = dict(last)
            return snapshot


@dataclass
class ProgramResult:
    """Outcome of one job (live-tuned, or reconstructed from a checkpoint).

    ``best_image`` is the ``tuning`` result's (resolved on first read);
    ``None`` for a job reconstructed from a checkpoint.
    """

    job: ProgramJob
    best_flags: Tuple[str, ...]
    best_fitness: float
    iterations: int
    elapsed_seconds: float
    warm_start: Tuple[Tuple[str, ...], ...] = ()
    #: True when this job finished in a *previous* run and was reconstructed
    #: from the checkpoint manifest instead of being re-tuned.
    resumed: bool = False
    evaluation_stats: Optional[EvaluationStats] = None
    tuning: Optional[TuningResult] = None

    @property
    def best_image(self) -> Optional[BinaryImage]:
        return self.tuning.best_image if self.tuning is not None else None

    def as_manifest_entry(self) -> Dict[str, object]:
        entry = {
            "family": self.job.family,
            "program": self.job.program,
            "best_flags": list(self.best_flags),
            "best_fitness": self.best_fitness,
            "iterations": self.iterations,
            "elapsed_seconds": self.elapsed_seconds,
            "warm_start": [list(flags) for flags in self.warm_start],
        }
        if self.evaluation_stats is not None:
            # Per-stage wall clock + artifact-cache accounting survive into
            # the checkpoint so ``repro.campaign report`` can surface them
            # without re-running anything.
            entry["evaluation"] = self.evaluation_stats.as_dict()
        return entry

    @classmethod
    def from_manifest_entry(cls, entry: Dict[str, object]) -> "ProgramResult":
        evaluation = entry.get("evaluation")
        return cls(
            job=ProgramJob(family=entry["family"], program=entry["program"]),
            best_flags=tuple(entry["best_flags"]),
            best_fitness=entry["best_fitness"],
            iterations=entry["iterations"],
            elapsed_seconds=entry["elapsed_seconds"],
            warm_start=tuple(tuple(flags) for flags in entry.get("warm_start", [])),
            resumed=True,
            evaluation_stats=(
                EvaluationStats.from_dict(evaluation) if evaluation else None
            ),
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    database: CampaignDatabase
    programs: List[ProgramResult]
    elapsed_seconds: float
    #: True when ``run(limit=...)`` stopped before the job list was done.
    interrupted: bool = False
    #: Snapshot of the campaign-wide artifact cache after the run.
    artifact_cache_stats: Dict[str, object] = field(default_factory=dict)
    #: The coordinator's artifact-plane counters and per-worker fleet rows,
    #: taken before the session tears the pool down (``None`` for local
    #: dispatch; ``mesh_stats`` also ``None`` when no mesh was served).
    mesh_stats: Optional[Dict[str, object]] = None
    fleet: Optional[List[Dict[str, object]]] = None

    def result_for(self, family: str, program: str) -> ProgramResult:
        for result in self.programs:
            if result.job.key() == (family, program):
                return result
        raise KeyError(f"no result for {(family, program)!r}")

    def evaluation_stats(self) -> EvaluationStats:
        """Field-wise sum of every program's per-run evaluation counters."""
        total = EvaluationStats()
        for program in self.programs:
            if program.evaluation_stats is not None:
                total = total.add(program.evaluation_stats)
        return total

    def fingerprint(self) -> str:
        return self.database.fingerprint()

    def summary_rows(self) -> List[Dict[str, object]]:
        return self.database.summary_rows()


class Campaign:
    """Drives one :class:`BinTuner` per job over a shared pool and database."""

    def __init__(
        self,
        jobs: Iterable[ProgramJob],
        config: Optional[CampaignConfig] = None,
        compiler_provider: Callable[[str], Compiler] = default_compiler_provider,
        spec_provider: Callable[[ProgramJob], BuildSpec] = workload_spec_provider,
        database: Optional[CampaignDatabase] = None,
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.jobs = list(jobs)
        if len({job.key() for job in self.jobs}) != len(self.jobs):
            raise ValueError("duplicate (family, program) jobs in campaign")
        self.config = config or CampaignConfig()
        self.compiler_provider = compiler_provider
        self.spec_provider = spec_provider
        self.database = database if database is not None else CampaignDatabase(
            name=self.config.name
        )
        #: Live progress for the observability plane (``/status``): always
        #: present, costs one lock hop per generation, feeds nothing back.
        self.progress = CampaignProgress(self.config.name)
        # One content-addressed cache spans every job: a configuration that
        # warm starts (or simply recurs) in a later program of the same
        # family is a compile-stage hit, not a recompile.  Injectable so a
        # rerun campaign (same process) can start warm.  With a store dir
        # (explicit, or defaulted under the checkpoint dir) the cache gains
        # a disk-backed second tier, so a campaign restarted in a *fresh
        # process* starts warm too.
        self.store_dir = self._resolve_store_dir()
        if self.config.mesh:
            if self.config.dispatch != "distributed":
                raise ValueError(
                    "mesh=True requires dispatch='distributed' (the artifact "
                    "mesh is served by the network coordinator)"
                )
            if self.store_dir is None:
                raise ValueError(
                    "mesh=True requires a store: pass store_dir= or "
                    "checkpoint_dir= so the coordinator has a disk-backed "
                    "ArtifactStore to serve the mesh from"
                )
        if self.config.mesh_budget_bytes is not None and not self.config.mesh:
            raise ValueError("mesh_budget_bytes requires mesh=True")
        if artifact_cache is not None:
            self.artifact_cache = artifact_cache
        else:
            self.artifact_cache = ArtifactCache(
                self.config.artifact_cache_size
            ).ensure_store(self.store_dir, self.config.store_max_bytes)
        #: The open session (see :meth:`__enter__`): the pool jobs run on,
        #: and the observability server when ``obs_port`` is set.
        self.pool: Optional[SharedWorkerPool] = None
        self.obs_server = None
        self._session: Optional[ExitStack] = None

    def _resolve_store_dir(self) -> Optional[Path]:
        """The effective store directory (explicit, or under the checkpoint
        dir); ``None`` for unstored, uncheckpointed runs."""
        if self.config.store_dir is not None:
            return Path(self.config.store_dir)
        if self.config.checkpoint_dir is not None:
            return Path(self.config.checkpoint_dir) / STORE_DIR
        return None

    @classmethod
    def from_suites(
        cls,
        suites: Sequence[str],
        families: Sequence[str] = ("llvm", "gcc"),
        config: Optional[CampaignConfig] = None,
        **kwargs,
    ) -> "Campaign":
        """The paper's matrix: every suite benchmark × every compiler family,
        honouring the per-compiler build-error exclusions (§5, footnote 2)."""
        jobs = [
            ProgramJob(family=family, program=workload.name)
            for family in families
            for suite in suites
            for workload in suite_benchmarks(suite, family)
        ]
        return cls(jobs, config=config, **kwargs)

    # -- checkpointing ----------------------------------------------------------------

    def _manifest_path(self) -> Optional[Path]:
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / "manifest.json"

    def _database_dir(self) -> Optional[Path]:
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / DATABASE_DIR

    def _write_manifest(self, completed: List[ProgramResult]) -> None:
        path = self._manifest_path()
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": MANIFEST_VERSION,
            "name": self.config.name,
            "jobs": [[job.family, job.program] for job in self.jobs],
            "completed": [result.as_manifest_entry() for result in completed],
        }
        write_text_atomic(path, json.dumps(manifest, indent=2))

    def _discard_checkpoint(self) -> None:
        path = self._manifest_path()
        if path is not None and path.exists():
            path.unlink()
        database_dir = self._database_dir()
        if database_dir is not None and database_dir.exists():
            shutil.rmtree(database_dir)

    def _load_checkpoint(self) -> Dict[ShardKey, ProgramResult]:
        """Restore the database and completed-job map from the checkpoint.

        The database is loaded independently of the manifest: a campaign
        killed inside its *first* program has checkpointed generations on
        disk but no completed-program manifest yet, and those generations
        must still be replayed as cache hits on resume.
        """
        database_dir = self._database_dir()
        if database_dir is not None and (database_dir / "index.json").exists():
            self.database = CampaignDatabase.load(database_dir)
        path = self._manifest_path()
        if path is None or not path.exists():
            return {}
        manifest = json.loads(path.read_text())
        stored_jobs = [tuple(pair) for pair in manifest.get("jobs", [])]
        if stored_jobs != [job.key() for job in self.jobs]:
            raise ValueError(
                f"checkpoint at {path.parent} was written for a different job "
                f"list; pass resume=False (or a fresh checkpoint_dir) to discard it"
            )
        return {
            (entry["family"], entry["program"]): ProgramResult.from_manifest_entry(entry)
            for entry in manifest.get("completed", [])
        }

    # -- warm starts ------------------------------------------------------------------

    def _warm_seeds(self, job: ProgramJob, prior: List[ProgramResult]) -> Tuple[Tuple[str, ...], ...]:
        """Best flag tuples of finished same-family programs, fittest first.

        Flag names are compiler-specific, so cross-*family* seeding would
        inject unknown names (the tuner drops them, degrading the seed to
        noise); the campaign therefore warm-starts within a family only.
        """
        if not self.config.warm_start:
            return ()
        donors = [
            result for result in prior
            if result.job.family == job.family and result.best_flags
            and result.best_fitness > 0.0
        ]
        donors.sort(key=lambda result: (-result.best_fitness, result.job.program))
        return tuple(result.best_flags for result in donors[: self.config.warm_start_limit])

    # -- execution --------------------------------------------------------------------

    def _run_job(
        self,
        job: ProgramJob,
        pool: SharedWorkerPool,
        prior: List[ProgramResult],
    ) -> ProgramResult:
        spec = self.spec_provider(job)
        compiler = self.compiler_provider(job.family)
        warm = self._warm_seeds(job, prior)
        tuner = BinTuner(
            compiler,
            spec,
            replace(
                self.config.tuner,
                warm_start=warm,
                artifact_cache_size=self.config.artifact_cache_size,
                store_dir=self.store_dir,
                store_max_bytes=self.config.store_max_bytes,
            ),
            database=self.database.shard(job.family, job.program),
            mapper_factory=pool.mapper,
            artifact_cache=self.artifact_cache,
        )
        database_dir = self._database_dir()
        progress = self.progress
        progress.job_started(job)

        def on_batch(engine) -> None:
            # Live progress first (observe-only, can never raise past the
            # lock), then the per-generation checkpoint: every batch that
            # produced new records flushes this job's shard (plus the
            # index) to disk.
            progress.generation_finished(
                generation=engine.stats.batches,
                best_fitness=engine.database.best_fitness(),
                evaluated=engine.stats.evaluated,
            )
            if database_dir is not None:
                self.database.save_shard(job.family, job.program, database_dir)

        tuner.evaluation_engine().on_batch = on_batch
        with telemetry.get_sink().span(
            "campaign.job", family=job.family, program=job.program
        ) as span:
            result = tuner.run()
            span.set(
                iterations=result.iterations,
                best_fitness=result.best_fitness,
                warm_seeds=len(warm),
            )
        return ProgramResult(
            job=job,
            best_flags=tuple(result.best_flags.sorted_names()),
            best_fitness=result.best_fitness,
            iterations=result.iterations,
            elapsed_seconds=result.elapsed_seconds,
            warm_start=warm,
            evaluation_stats=result.evaluation_stats,
            tuning=result,
        )

    # -- the session -----------------------------------------------------------------

    def _build_pool(self) -> SharedWorkerPool:
        config = self.config
        pool = SharedWorkerPool(
            config.dispatch,
            config.workers,
            serve=config.serve,
            authkey=config.authkey,
            # The mesh serves the *campaign's* store: the orchestrator's own
            # baselines and every worker's pushed compile become fetchable
            # by the whole fleet.
            mesh_store=self.store_dir if config.mesh else None,
            mesh_budget_bytes=config.mesh_budget_bytes,
        )
        if pool.coordinator is None:
            return pool
        bound = pool.address_string()
        host, _sep, port = bound.rpartition(":")
        if host in ("0.0.0.0", "::", ""):
            # The wildcard bind is not a reachable address; point the
            # copy-paste line at something remote machines can use.
            connect = f"{socket.gethostname()}:{port}"
            note = f" (listening on all interfaces; {bound})"
        else:
            connect, note = bound, ""
        logger.info(
            "coordinator listening on %s%s — start workers with\n"
            "  python -m repro.distrib.worker --connect %s%s",
            connect, note, connect, " --authkey ..." if config.authkey else "",
        )
        if config.mesh:
            budget = (f", per-machine budget {config.mesh_budget_bytes} bytes"
                      if config.mesh_budget_bytes is not None else "")
            logger.info("artifact mesh on: serving %s%s", self.store_dir, budget)
        return pool

    def _open(self, pool: Optional[SharedWorkerPool] = None) -> None:
        """Open the session: sink, pool, observability server — in that
        order, so closing (the reverse) takes the server down first and a
        scrape racing teardown gets its 503 while the state it reads is
        still there.  An injected ``pool`` is used as-is and left open."""
        if self._session is not None:
            raise RuntimeError("this campaign's session is already open")
        config = self.config
        with ExitStack() as stack:
            if config.telemetry_dir is not None or config.obs_port is not None:
                # One sink feeds the JSONL file *and* /metrics; with only a
                # port it is registry only and nothing touches disk.
                stack.enter_context(
                    telemetry.recording(config.telemetry_dir, label="campaign")
                )
            own_pool = pool is None
            if own_pool:
                pool = stack.enter_context(self._build_pool())
            server = None
            if config.obs_port is not None:
                from repro.distrib import obsserver

                server = stack.enter_context(obsserver.ObservabilityServer(
                    host=config.obs_host, port=config.obs_port
                ))
                server.add_source("campaign", self.progress.snapshot)
                server.add_source("process", obsserver.process_status)
                server.add_metrics_source(obsserver.process_metrics)
                if pool.coordinator is not None:
                    server.add_source("fleet", pool.coordinator.fleet_status)
                    server.add_metrics_source(pool.coordinator.fleet_metrics)
                logger.info("observability: GET %s/metrics (Prometheus) and "
                            "%s/status (JSON)", server.url(), server.url())
            if own_pool and pool.coordinator is not None and config.min_workers > 0:
                logger.info("waiting for %d worker(s)...", config.min_workers)
                pool.wait_for_workers(
                    config.min_workers, timeout=config.worker_wait_timeout
                )
            self.pool, self.obs_server = pool, server
            self._session = stack.pop_all()

    def _close(self) -> None:
        session, self._session = self._session, None
        self.pool = self.obs_server = None
        if session is not None:
            session.close()

    def __enter__(self) -> "Campaign":
        self._open()
        return self

    def __exit__(self, *exc_info) -> None:
        self._close()

    def run(
        self,
        limit: Optional[int] = None,
        resume: bool = True,
        pool: Optional[SharedWorkerPool] = None,
    ) -> CampaignResult:
        """Run (or resume) the campaign.

        ``limit`` caps how many *not-yet-completed* jobs run before returning
        with ``interrupted=True`` — the programmatic stand-in for killing the
        process, used by the resume tests and incremental CLI runs.  With
        ``resume=False`` an existing checkpoint is *deleted* before anything
        runs: keeping a stale manifest around while fresh shards overwrite
        the database would poison a later resume with contradictory state.
        The artifact store is deliberately *not* deleted by ``resume=False``:
        its entries are content-addressed, so stale ones can never produce a
        wrong answer — a fresh run merely starts warm.
        An injected ``pool`` is used as-is and *not* closed — its lifetime
        belongs to the caller.

        The run happens inside the campaign's session (:meth:`_open`): the
        one the caller opened with ``with campaign:``, else one opened here
        for the duration of this call.  What the session adds is
        observe-only: it never feeds fingerprints, checkpoints, or results.
        """
        own_session = self._session is None
        if own_session:
            self._open(pool)
        try:
            with telemetry.get_sink().span(
                "campaign.run", campaign=self.config.name, jobs=len(self.jobs)
            ):
                return self._run(
                    pool if pool is not None else self.pool, limit=limit, resume=resume
                )
        finally:
            if own_session:
                self._close()

    def _run(
        self,
        pool: SharedWorkerPool,
        limit: Optional[int] = None,
        resume: bool = True,
    ) -> CampaignResult:
        started = time.perf_counter()
        if resume:
            completed = self._load_checkpoint()
        else:
            completed = {}
            self._discard_checkpoint()
        if self._manifest_path() is not None:
            # Written up front (not just per completed program) so the
            # job-list mismatch guard protects even a campaign killed inside
            # its first program.
            self._write_manifest(
                [completed[job.key()] for job in self.jobs if job.key() in completed]
            )
        programs: List[ProgramResult] = []
        ran = 0
        interrupted = False
        self.progress.begin(
            len(self.jobs),
            jobs_completed=sum(1 for job in self.jobs if job.key() in completed),
        )
        try:
            for job in self.jobs:
                restored = completed.get(job.key())
                if restored is not None:
                    programs.append(restored)
                    continue
                if limit is not None and ran >= limit:
                    interrupted = True
                    break
                result = self._run_job(job, pool, programs)
                programs.append(result)
                self.progress.job_finished(best_fitness=result.best_fitness)
                ran += 1
                database_dir = self._database_dir()
                if database_dir is not None:
                    self.database.save_shard(job.family, job.program, database_dir)
                    self._write_manifest(programs)
        finally:
            self.progress.finish(interrupted)
        return CampaignResult(
            database=self.database,
            programs=programs,
            elapsed_seconds=time.perf_counter() - started,
            interrupted=interrupted,
            artifact_cache_stats=self.artifact_cache.stats(),
            mesh_stats=pool.mesh_stats(),
            fleet=pool.fleet_status(),
        )
