"""The campaign orchestrator: suite-scale tuning over a programs × compilers matrix.

The paper's headline numbers (Table 1, Figs. 5-8) are *suite* results — every
SPEC/Coreutils/OpenSSL benchmark tuned per compiler — while :class:`BinTuner`
drives exactly one program.  :class:`Campaign` is the layer between them:

* it iterates a deterministic job list (one ``(compiler family, program)``
  pair per job), each run by :func:`run_job`, the tuning service's runner too;
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
  reconstructed from the job table, and the in-progress program *replays*
  its seeded search against the checkpointed shard — every already-evaluated
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

A checkpoint dir (a campaign's, or the tuning service's ``state_dir``)
holds ``database/``, ``store/``, ``telemetry/`` and one job table,
``jobs.json``: a row per job, ``{family, program, state, result?, stats?}``
keyed by its shard.  :func:`write_job_table` writes it,
:func:`read_checkpoint` reads it (and an older ``manifest.json``).  Campaign
rows are ``queued`` or ``done`` and add ``warm_start``; service rows add
:meth:`repro.campaign.service.Job.as_row`'s keys.  :func:`session_telemetry_dir`
places the session's JSONL, and ``python -m repro.campaign report`` reads
both halves back.
"""

from __future__ import annotations

import json
import logging
import shutil
import threading
import time
from contextlib import AbstractContextManager, ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.backend.binary import BinaryImage
from repro.compilers import SimGCC, SimLLVM
from repro.compilers.base import Compiler
from repro.campaign.database import CampaignDatabase, ShardKey
from repro.campaign.pool import SharedWorkerPool, open_session
from repro.tuner.database import write_text_atomic
from repro.tuner import (BinTuner, BinTunerConfig, BuildSpec, EvaluationEngine,
                         EvaluationStats, TuningResult)
from repro.tuner.pipeline import ArtifactCache
from repro.tuner.store import DEFAULT_STORE_MAX_BYTES
from repro.workloads import benchmark, suite_benchmarks

logger = logging.getLogger("repro.campaign")

#: Subdirectory of the checkpoint dir holding the sharded database, and the
#: job table beside it.
DATABASE_DIR = "database"
JOB_TABLE = "jobs.json"
#: The campaign's job table before the service shared it: read, never written.
OLD_MANIFEST = "manifest.json"

#: Default subdirectory of the checkpoint dir holding the artifact store —
#: checkpoint resume is warm *by construction*: the same ``--checkpoint-dir``
#: that replays the database also serves every compile from disk.
STORE_DIR = "store"

#: Subdirectory of the checkpoint dir the run's session records its
#: telemetry JSONL in, one file per process and session; ``report`` reads it.
TELEMETRY_DIR = "telemetry"

#: At most this many prior bests seed a program's GA population.
WARM_START_LIMIT = 4

#: How long ``min_workers`` may take to register before the campaign errors
#: out (seconds).
WORKER_WAIT_TIMEOUT = 120.0


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
    #: Worker-pool knobs, shared across every program of the campaign.
    workers: int = 1
    #: Execution substrate of the shared pool ("serial" | "process" |
    #: "distributed"); ``None`` is serial, and ``None`` or "serial" with
    #: ``workers > 1`` is the process pool.
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
    #: evaluated in-process until workers join; the wait errors out after
    #: :data:`WORKER_WAIT_TIMEOUT`).
    min_workers: int = 0
    #: Directory of the disk-backed artifact store behind the campaign cache
    #: (:mod:`repro.tuner.store`).  ``None`` defaults to
    #: ``checkpoint_dir/store`` when checkpointing is on, so a killed-and-
    #: restarted campaign re-pays no compile or emulation it already did;
    #: without a checkpoint dir the cache stays memory-only (or keeps an
    #: injected cache's store; one backed by another directory is an
    #: error).  Process workers derive the path from the evaluator they are
    #: sent, so every local worker opens the same store.
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
    #: Seed later programs' GA populations with earlier programs' best flags
    #: (at most :data:`WARM_START_LIMIT` per program).
    warm_start: bool = True
    #: Where checkpoints live; ``None`` disables checkpointing.
    checkpoint_dir: Optional[Path] = None
    #: Directory for structured telemetry (:mod:`repro.telemetry`) of a run
    #: *without* a ``checkpoint_dir``; a checkpointed run always records
    #: under ``checkpoint_dir/telemetry`` (:data:`TELEMETRY_DIR`), and
    #: setting both is an error.  The session records JSONL there through
    #: the one :class:`~repro.telemetry.JsonlSink`, and ``report`` renders
    #: it; workers of a distributed fleet additionally forward compact
    #: summaries to the coordinator.  Telemetry is observe-only —
    #: fingerprints, checkpoints, and recorded results are bit-for-bit
    #: identical with it on or off.  With no telemetry directory and no
    #: ``obs_port`` the zero-cost null sink stays.
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
    generation (:func:`run_job`'s ``on_generation``); the observability
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

    def finish(self, state: str) -> None:  # finished | interrupted | failed
        with self._lock:
            self._state["state"] = state

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
    #: from the checkpoint's job table instead of being re-tuned.
    resumed: bool = False
    evaluation_stats: Optional[EvaluationStats] = None
    tuning: Optional[TuningResult] = None

    @property
    def best_image(self) -> Optional[BinaryImage]:
        return self.tuning.best_image if self.tuning is not None else None

    def as_row(self) -> Dict[str, object]:
        row = {
            "family": self.job.family,
            "program": self.job.program,
            "state": "done",
            "result": {
                "best_flags": list(self.best_flags),
                "best_fitness": self.best_fitness,
                "iterations": self.iterations,
                "elapsed_seconds": self.elapsed_seconds,
            },
            "warm_start": [list(flags) for flags in self.warm_start],
        }
        if self.evaluation_stats is not None:  # ``report`` sums these
            row["stats"] = self.evaluation_stats.as_dict()
        return row

    @classmethod
    def from_row(cls, row: Dict[str, object]) -> "ProgramResult":
        result, stats = row["result"], row.get("stats")
        return cls(
            job=ProgramJob(family=row["family"], program=row["program"]),
            best_flags=tuple(result["best_flags"]),
            best_fitness=result["best_fitness"],
            iterations=result["iterations"],
            elapsed_seconds=result["elapsed_seconds"],
            warm_start=tuple(tuple(flags) for flags in row.get("warm_start", [])),
            resumed=True,
            evaluation_stats=EvaluationStats.from_dict(stats) if stats else None,
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


def summary_row_line(row: Dict[str, object]) -> str:
    """The per-program line of ``run``'s summary and of ``report`` (each
    appends its own suffix)."""
    return (f"  {row['compiler']:5s} {row['benchmark']:18s} "
            f"iterations {row['iterations']:4d}  "
            f"best fitness {row['best_fitness']}")


def top_flag_lines(frequency: Dict[str, float], top: int = 10) -> List[str]:
    """The top-flags table: the ``top`` most-enabled flags, ties by name."""
    ranked = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
    return [f"  {flag:28s} {share:.0%}" for flag, share in ranked[:top]]


def session_telemetry_dir(durable_dir: Optional[Path],
                          telemetry_dir: Optional[Path]) -> Optional[Path]:
    """Where a run records its telemetry: ``DIR/telemetry`` under its
    durable directory (a checkpoint dir, a service ``state_dir``), else
    ``telemetry_dir``; ``None`` records no JSONL.  A run given both is
    refused, so one run has one telemetry directory."""
    if durable_dir is None:
        return telemetry_dir
    if telemetry_dir is not None:
        raise ValueError(
            f"telemetry_dir (--telemetry-dir) is for runs without a durable "
            f"directory; this run records under {Path(durable_dir) / TELEMETRY_DIR}"
        )
    return Path(durable_dir) / TELEMETRY_DIR


def write_job_table(directory: Path, name: str, rows: List[Dict[str, object]],
                    **header: object) -> None:
    """The one writer of the job table: ``{"name", **header, "jobs": rows}``
    to ``directory/jobs.json``, atomically.  An older ``manifest.json``
    beside it goes, so a directory holds one table."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_text_atomic(directory / JOB_TABLE,
                      json.dumps({"name": name, **header, "jobs": rows}, indent=2))
    (directory / OLD_MANIFEST).unlink(missing_ok=True)


def _manifest_as_table(manifest: Dict[str, object]) -> Dict[str, object]:
    """An older ``manifest.json`` as a job table: a completed entry is a
    ``done`` row's ``result`` (its ``evaluation`` the ``stats``)."""
    completed = {(entry["family"], entry["program"]): entry
                 for entry in manifest.get("completed", [])}
    rows = [{"family": family, "program": program, "state": "queued"}
            for family, program in manifest.get("jobs", [])]
    for row in rows:
        entry = completed.get((row["family"], row["program"]))
        if entry is not None:
            row.update(state="done", result=entry, stats=entry.get("evaluation"),
                       warm_start=entry.get("warm_start", []))
    return {"name": manifest.get("name", "campaign"), "jobs": rows}


def read_checkpoint(directory: Path) -> Tuple[
    Optional[CampaignDatabase], Optional[Dict[str, object]]
]:
    """The one reader of a checkpoint dir, its ``database/`` or any
    :meth:`CampaignDatabase.save` dir, for resume, the service's restart and
    ``report``: ``(database, table)``, each ``None`` when absent.  An
    unreadable table raises before the database loads; the database loads
    without a table too (a campaign killed inside its *first* program).
    """
    directory = Path(directory)
    table = None
    if (directory / JOB_TABLE).exists():
        table = json.loads((directory / JOB_TABLE).read_text())
    elif (directory / OLD_MANIFEST).exists():
        table = _manifest_as_table(json.loads((directory / OLD_MANIFEST).read_text()))
    if table is not None and not (isinstance(table, dict)
                                  and isinstance(table.get("jobs"), list)):
        raise ValueError(f"job table under {directory} has no list of jobs")
    database = None
    for candidate in (directory / DATABASE_DIR, directory):
        if CampaignDatabase.saved_in(candidate):
            database = CampaignDatabase.load(candidate)
            break
    return database, table


def done_results(table: Optional[Dict[str, object]]) -> List[ProgramResult]:
    """The finished jobs of a job table, in table order."""
    rows = table["jobs"] if table is not None else []
    return [ProgramResult.from_row(row) for row in rows if row.get("state") == "done"]


def run_job(tuner: BinTuner, owner: str, attrs: Dict[str, object],
            checkpoint: Callable[[], None],
            on_generation: Callable[[EvaluationEngine, EvaluationStats], None],
            turn: Callable[[], AbstractContextManager] = nullcontext) -> TuningResult:
    """Tune one job: the baseline, then each generation, reported and checkpointed.

    The engine (the ``-O0`` baseline) and every generation run inside
    ``turn()``; a generation is an ``{owner}.generation`` span, then
    ``on_generation(engine, delta)``, all-hit replays included.
    ``checkpoint()`` runs after each batch with new records and after the
    ``{owner}.job`` span around ``tuner.run()``.  Both spans carry ``attrs``.
    """
    with turn():
        engine = tuner.evaluation_engine()
    evaluate = engine.evaluate_batch

    def generation(batch):
        with turn():
            before = replace(engine.stats)
            with telemetry.get_sink().span(
                f"{owner}.generation", generation=engine.stats.batches, **attrs
            ):
                scores = evaluate(batch)
            on_generation(engine, engine.stats.since(before))
        return scores

    engine.evaluate_batch = generation
    engine.on_batch = lambda _engine: checkpoint()
    try:
        with telemetry.get_sink().span(f"{owner}.job", **attrs) as span:
            result = tuner.run()
            span.set(iterations=result.iterations, best_fitness=result.best_fitness)
    finally:
        del engine.evaluate_batch  # it holds the engine: a cycle refcounts can't free
    checkpoint()
    return result


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
        if self.config.mesh and self.config.dispatch != "distributed":
            raise ValueError(
                "mesh=True requires dispatch='distributed' (the artifact "
                "mesh is served by the network coordinator)"
            )
        if self.config.mesh_budget_bytes is not None and not self.config.mesh:
            raise ValueError("mesh_budget_bytes requires mesh=True")
        # One content-addressed cache spans every job: a configuration that
        # warm starts (or simply recurs) in a later program of the same
        # family is a compile-stage hit, not a recompile.  Injectable so a
        # rerun campaign (same process) can start warm.  With a store dir
        # (explicit, or defaulted under the checkpoint dir) the cache gains
        # a disk-backed second tier, so a campaign restarted in a *fresh
        # process* starts warm too.  The campaign owns the cache: the store
        # is attached here, once, and every tuner, evaluator, process worker
        # and the mesh read it off the cache.
        store_dir = self.config.store_dir
        if store_dir is None and self.config.checkpoint_dir is not None:
            store_dir = Path(self.config.checkpoint_dir) / STORE_DIR
        self.artifact_cache = (
            artifact_cache if artifact_cache is not None
            else ArtifactCache()
        ).ensure_store(store_dir, self.config.store_max_bytes)
        if self.config.mesh and self.artifact_cache.store is None:
            raise ValueError(
                "mesh=True requires a store: pass store_dir= or "
                "checkpoint_dir= so the coordinator has a disk-backed "
                "ArtifactStore to serve the mesh from"
            )
        #: Where the session records JSONL (``None``: nowhere).
        self.telemetry_dir = session_telemetry_dir(
            self.config.checkpoint_dir, self.config.telemetry_dir)
        #: The open session (see :meth:`__enter__`): the pool jobs run on,
        #: and the observability server when ``obs_port`` is set.
        self.pool: Optional[SharedWorkerPool] = None
        self.obs_server = None
        self._session: Optional[ExitStack] = None

    @property
    def store_dir(self) -> Optional[Path]:
        """The directory of the store behind the campaign cache; ``None``
        for a memory-only cache."""
        store = self.artifact_cache.store
        return store.directory if store is not None else None

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

    def _database_dir(self) -> Optional[Path]:
        if self.config.checkpoint_dir is None:
            return None
        return Path(self.config.checkpoint_dir) / DATABASE_DIR

    def _write_table(self, completed: Dict[ShardKey, ProgramResult]) -> None:
        """One row per job: its result once done, else ``queued``."""
        if self.config.checkpoint_dir is None:
            return
        rows = [
            completed[job.key()].as_row() if job.key() in completed
            else {"family": job.family, "program": job.program, "state": "queued"}
            for job in self.jobs
        ]
        write_job_table(self.config.checkpoint_dir, self.config.name, rows)

    def _discard_checkpoint(self, pool: SharedWorkerPool) -> None:
        """Delete the job table, the database and the discarded runs'
        telemetry; the store stays, and so do this session's own files,
        opened before ``run`` discards: its sink's and those of the pool's
        local sessions (``worker-<pid>...``)."""
        if self.config.checkpoint_dir is None:
            return
        directory = Path(self.config.checkpoint_dir)
        for name in (JOB_TABLE, OLD_MANIFEST):
            (directory / name).unlink(missing_ok=True)
        database_dir = self._database_dir()
        if database_dir.exists():
            shutil.rmtree(database_dir)
        recording = getattr(telemetry.get_sink(), "path", None)
        sessions = tuple(f"worker-{pid}{end}" for pid in pool.pids for end in (".", "-"))
        for path in (directory / TELEMETRY_DIR).glob("*.jsonl"):
            if path != recording and not path.name.startswith(sessions):
                path.unlink(missing_ok=True)

    def _load_checkpoint(self) -> Dict[ShardKey, ProgramResult]:
        """Restore the database and completed-job map from the checkpoint;
        a resume refused for its job list adopts nothing."""
        if self.config.checkpoint_dir is None:
            return {}
        database, table = read_checkpoint(self.config.checkpoint_dir)
        if table is not None and [
            (row["family"], row["program"]) for row in table["jobs"]
        ] != [job.key() for job in self.jobs]:
            raise ValueError(
                f"checkpoint at {Path(self.config.checkpoint_dir)} was written for a "
                f"different job list; pass resume=False (or a fresh "
                f"checkpoint_dir) to discard it"
            )
        if database is not None:
            self.database = database
        return {result.job.key(): result for result in done_results(table)}

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
        return tuple(result.best_flags for result in donors[:WARM_START_LIMIT])

    # -- execution --------------------------------------------------------------------

    def _run_job(
        self,
        job: ProgramJob,
        pool: SharedWorkerPool,
        prior: List[ProgramResult],
    ) -> ProgramResult:
        warm = self._warm_seeds(job, prior)
        tuner = BinTuner(
            self.compiler_provider(job.family),
            self.spec_provider(job),
            replace(self.config.tuner, warm_start=warm),
            database=self.database.shard(job.family, job.program),
            mapper_factory=pool.mapper,
            artifact_cache=self.artifact_cache,
        )
        database_dir = self._database_dir()
        self.progress.job_started(job)

        def checkpoint() -> None:  # this job's shard, plus the index
            if database_dir is not None:
                self.database.save_shard(job.family, job.program, database_dir)

        result = run_job(
            tuner, "campaign",
            {"family": job.family, "program": job.program, "warm_seeds": len(warm)},
            checkpoint,
            lambda engine, _delta: self.progress.generation_finished(
                generation=engine.stats.batches,
                best_fitness=engine.database.best_fitness(),
                evaluated=engine.stats.evaluated,
            ),
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

    def _open(self, pool: Optional[SharedWorkerPool] = None) -> None:
        """Open the session (:func:`~repro.campaign.pool.open_session`):
        sink, pool, observability server.  An injected ``pool`` is used
        as-is and left open."""
        if self._session is not None:
            raise RuntimeError("this campaign's session is already open")
        config = self.config
        own_pool = pool is None
        with ExitStack() as stack:
            pool, server = open_session(
                stack, "campaign", self.progress.snapshot,
                telemetry_dir=self.telemetry_dir,
                obs_port=config.obs_port,
                obs_host=config.obs_host,
                pool=pool,
                dispatch=config.dispatch,
                workers=config.workers,
                serve=config.serve,
                authkey=config.authkey,
                # The mesh serves the *campaign's* store: the orchestrator's
                # own baselines and every worker's pushed compile become
                # fetchable by the whole fleet.
                mesh_store=self.artifact_cache.store if config.mesh else None,
                mesh_budget_bytes=config.mesh_budget_bytes,
            )
            if own_pool and config.mesh:
                budget = (f", per-machine budget {config.mesh_budget_bytes} bytes"
                          if config.mesh_budget_bytes is not None else "")
                logger.info("artifact mesh on: serving %s%s", self.store_dir, budget)
            if own_pool and pool.coordinator is not None and config.min_workers > 0:
                logger.info("waiting for %d worker(s)...", config.min_workers)
                pool.wait_for_workers(config.min_workers, timeout=WORKER_WAIT_TIMEOUT)
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
        runs: keeping a stale job table around while fresh shards overwrite
        the database would poison a later resume with contradictory state.
        Its telemetry goes too, so ``report`` counts this run's sessions
        alone.
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
            self._discard_checkpoint(pool)
        # Written up front (not just per completed program) so the job-list
        # mismatch guard protects even a campaign killed inside its first
        # program.
        self._write_table(completed)
        programs: List[ProgramResult] = []
        ran = 0
        interrupted = False
        self.progress.begin(
            len(self.jobs),
            jobs_completed=sum(1 for job in self.jobs if job.key() in completed),
        )
        state = "failed"  # unless the loop below runs to its end
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
                completed[job.key()] = result
                self.progress.job_finished(best_fitness=result.best_fitness)
                ran += 1
                self._write_table(completed)
            state = "interrupted" if interrupted else "finished"
        finally:
            self.progress.finish(state)
        return CampaignResult(
            database=self.database,
            programs=programs,
            elapsed_seconds=time.perf_counter() - started,
            interrupted=interrupted,
            artifact_cache_stats=self.artifact_cache.stats(),
            mesh_stats=pool.mesh_stats(),
            fleet=pool.fleet_status(),
        )
