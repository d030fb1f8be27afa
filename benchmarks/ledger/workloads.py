"""The four ledger workloads: what one timed cycle of each one does.

A *cycle* is a fixed amount of work on the real user paths (``Campaign``,
``BinTuner``, ``serve`` + worker + ``ServiceClient``).  ``run.py`` repeats
cycles until ``--seconds`` is spent and reports the best over them, so every
cycle of a run must do the same work: the ``--seed`` salts each program's
source with a comment (new content addresses everywhere, same code, same
search) and picks nothing else.  Program choice and search seed are fixed
here, with the reason beside each.
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.emulator import reset_decoded_programs, run_program
from repro.campaign.campaign import (
    Campaign,
    CampaignConfig,
    CampaignProgress,
    ProgramJob,
    default_compiler_provider,
)
from repro.distrib.errors import DistribError
from repro.distrib.jobs import JobBudget
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec, EvaluationStats, GAParameters
from repro.tuner.database import IterationRecord
from repro.tuner.pipeline import shutdown_compile_lane
from repro.tuner.store import reset_persistent_stores
from repro.workloads import benchmark, generate_program

from fleet import Fleet, FleetError

#: GA population of every workload (the issue's size; small generations keep
#: many generation gaps inside one short cycle).
POPULATION = 6
#: No run may end early on the GA's stall criterion: the candidate count is pinned.
NO_STALL = 10**6
#: Seconds one service job may take, submit to terminal event.
JOB_TIMEOUT_S = 60.0


# ---------------------------------------------------------------------------
# Data the replay and the report consume
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    """One input program, before the seed's salt is applied."""

    name: str
    source: str
    arguments: Tuple[int, ...] = ()
    inputs: Tuple[int, ...] = ()

    def sha256(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()

    def spec(self, salt: str) -> BuildSpec:
        return BuildSpec(name=self.name, source=salt + self.source,
                         arguments=self.arguments, inputs=self.inputs)


@dataclass
class JobRun:
    """What one tuning job did: enough to replay it layer by layer."""

    family: str
    spec: BuildSpec
    max_iterations: int
    requested: int
    fingerprint: str
    best_fitness: float
    #: The evaluated candidates in order (``None``: a service job, whose
    #: records the replay recovers from a solo rerun of the same spec).
    records: Optional[List[IterationRecord]] = None
    warm_start: Tuple[Tuple[str, ...], ...] = ()
    #: Service jobs: the events this job streamed, for the wire replay.
    events: List[Dict[str, object]] = field(default_factory=list)

    def key(self) -> str:
        return f"{self.family}/{self.spec.name}"


@dataclass
class Cycle:
    """The measurements of one timed cycle."""

    wall_s: float
    jobs: List[JobRun]
    first_generation_s: List[float]
    generation_gaps_s: List[float]
    #: Operations that are neither a candidate nor a job (restart cycles).
    extra_operations: int = 0
    failures: List[str] = field(default_factory=list)
    stats: EvaluationStats = field(default_factory=EvaluationStats)
    campaign_overhead_s: float = 0.0
    #: service_fleet only: per-job client-side timings and accounting deltas.
    service: Optional[Dict[str, object]] = None

    @property
    def requested(self) -> int:
        return sum(job.requested for job in self.jobs)

    @property
    def operations(self) -> int:
        return self.requested + len(self.jobs) + self.extra_operations


class PinDrift(RuntimeError):
    """A pinned program's generated source no longer hashes to its pin."""


def gaps(marks: Sequence[float]) -> List[float]:
    return [later - earlier for earlier, later in zip(marks, marks[1:])]


class _GenerationClock(CampaignProgress):
    """Campaign progress that also timestamps every finished generation."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.marks: List[List[float]] = []

    def job_started(self, job) -> None:
        super().job_started(job)
        self.marks.append([])

    def generation_finished(self, generation, best_fitness, evaluated) -> None:
        super().generation_finished(generation, best_fitness, evaluated)
        self.marks[-1].append(time.perf_counter())


def tuner_config(iterations: int, **extra) -> BinTunerConfig:
    return BinTunerConfig(
        max_iterations=iterations,
        ga=GAParameters(population_size=POPULATION),
        stall_window=NO_STALL,
        **extra,
    )


# ---------------------------------------------------------------------------
# The workload base: pins, salt, failure accounting
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, one cycle, and tear-down of one workload."""

    name = ""
    #: Compiler families whose ``-O0`` build of every program is checked
    #: against the pinned behaviour during set-up.
    families: Tuple[str, ...] = ("gcc",)

    def __init__(self, seed: int, workdir: Path, pins: Dict[str, object],
                 source_root: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.source_root = Path(source_root)
        self.tiny = tiny
        self.salt = f"/* ledger seed {seed} */\n"
        self._program_pins: Dict[str, Dict[str, object]] = pins.get("programs", {})
        #: Fingerprints and candidate counts are pinned at the standard
        #: budget only; ``--selftest`` budgets check behaviour alone.
        self._pins: Optional[Dict[str, object]] = (
            None if tiny else pins.get("workloads", {}).get(self.name)
        )
        self.pinned = self._pins is not None
        self.setup_checks = 0
        self.setup_failures: List[str] = []
        self._scratch = 0

    # -- what subclasses provide --------------------------------------------------

    def programs(self) -> List[Program]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Workload-specific set-up after the behaviour checks (may be empty)."""

    def cycle(self, index: int) -> Cycle:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`prepare` acquired; safe after a failed set-up."""

    def replay_store_dir(self) -> Optional[Path]:
        """The disk tier the ``--trace`` replay should use (``None``: the
        workload runs without a store)."""
        return None

    # -- shared -------------------------------------------------------------------

    def pick(self, standard, tiny):
        """The standard size, or the ``--selftest`` one."""
        return tiny if self.tiny else standard

    def scratch_dir(self) -> Path:
        self._scratch += 1
        path = self.workdir / f"{self.name}-{self._scratch}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Generate the programs, check each ``-O0`` build against its pinned
        behaviour (this is also the interpreter's warm-up compile), then run
        the workload's own preparation.  Repeatable: a second call releases
        what the first one acquired."""
        self.teardown()
        self.setup_checks = 0
        self.setup_failures = []
        for program in self.programs():
            pin = self._program_pins.get(program.name)
            if pin is None:
                raise PinDrift(f"{program.name}: no pinned expectation "
                               "(run with --update-expected)")
            if pin["source_sha256"] != program.sha256():
                raise PinDrift(f"{program.name}: generated source hashes to "
                               f"{program.sha256()[:12]}, pinned {pin['source_sha256'][:12]}")
            spec = program.spec(self.salt)
            for family in self.families:
                self.setup_checks += 1
                image = default_compiler_provider(family).compile_level(
                    spec.source, "O0", name=spec.name).image
                state = run_program(image, args=spec.arguments, inputs=spec.inputs)
                if list(state.observable_state()) != list(pin["o0"]):
                    self.setup_failures.append(
                        f"{family}/{program.name}: -O0 behaviour "
                        f"{state.observable_state()!r} differs from pinned {pin['o0']!r}")
        self.prepare()

    def check_pins(self, cycle: Cycle, count: bool = True) -> None:
        """Count the run's failed operations: penalty records always; at the
        pinned budget also the candidate count (unless ``count`` is off) and
        every job fingerprint, a mismatch failing every operation of the cycle."""
        for _ in range(cycle.stats.invalid):
            cycle.failures.append("a candidate scored the invalid-fitness penalty")
        if self._pins is None:
            return
        problems = []
        if count and cycle.requested != self._pins["candidates"]:
            problems.append(f"requested {cycle.requested} candidates, "
                            f"pinned {self._pins['candidates']}")
        for job in cycle.jobs:
            pinned = self._pins["fingerprints"].get(job.key())
            if job.fingerprint != pinned:
                problems.append(f"{job.key()} fingerprint {str(job.fingerprint)[:12]} "
                                f"differs from pinned {str(pinned)[:12]}")
        if problems:
            # A run that left the pinned path fails every operation of the cycle.
            padding = max(0, cycle.operations - len(problems))
            cycle.failures.extend(problems + problems[:1] * padding)


def benchmark_programs(names: Sequence[str]) -> List[Program]:
    return [
        Program(w.name, w.source, tuple(w.arguments), tuple(w.inputs))
        for w in map(benchmark, names)
    ]


def _fresh_process_state() -> None:
    """Forget the process-wide caches a restarted interpreter would not have."""
    reset_persistent_stores()
    reset_decoded_programs()
    shutdown_compile_lane()


def _campaign_cycle(workload: Workload, jobs: List[ProgramJob],
                    specs: Dict[str, BuildSpec], iterations: int,
                    store_dir: Path, artifact_cache=None):
    """Run one ``Campaign`` and return ``(cycle, campaign)``."""
    campaign = Campaign(
        jobs,
        CampaignConfig(name=workload.name, tuner=tuner_config(iterations),
                       store_dir=store_dir),
        spec_provider=lambda job: specs[job.program],
        artifact_cache=artifact_cache,
    )
    clock = _GenerationClock(workload.name)
    campaign.progress = clock
    started = time.perf_counter()
    result = campaign.run()
    wall = time.perf_counter() - started
    runs = []
    for program in result.programs:
        shard = result.database.shard(program.job.family, program.job.program)
        runs.append(JobRun(
            family=program.job.family,
            spec=specs[program.job.program],
            max_iterations=iterations,
            requested=program.evaluation_stats.requested,
            fingerprint=shard.fingerprint(),
            best_fitness=program.best_fitness,
            records=list(shard.records),
            warm_start=program.warm_start,
        ))
    cycle = Cycle(
        wall_s=wall,
        jobs=runs,
        first_generation_s=[clock.marks[0][0] - started],
        generation_gaps_s=[gap for marks in clock.marks for gap in gaps(marks)],
        stats=result.evaluation_stats(),
        campaign_overhead_s=wall - sum(p.elapsed_seconds for p in result.programs),
    )
    return cycle, campaign


# ---------------------------------------------------------------------------
# cold_tune
# ---------------------------------------------------------------------------

class ColdTune(Workload):
    name = "cold_tune"
    families = ("llvm", "gcc")
    #: 429.mcf and 648.exchange2_s: built for both families (not in EXCLUDED),
    #: and the two cheapest to compile, so a cycle stays near three seconds
    #: and several fit in one run.  Three generations per job, so crossover
    #: and mutation run, not just the seeded first generation.
    program_names = ("429.mcf", "648.exchange2_s")
    iterations = 3 * POPULATION
    #: Two generations: the smallest budget with a generation gap to time.
    tiny_iterations = 2 * POPULATION

    def programs(self) -> List[Program]:
        return benchmark_programs(self.program_names)

    def prepare(self) -> None:
        self._specs = {p.name: p.spec(self.salt) for p in self.programs()}
        self._jobs = [ProgramJob(family, name)
                      for family in self.pick(self.families, self.families[:1])
                      for name in self.program_names]

    def cycle(self, index: int) -> Cycle:
        _fresh_process_state()
        store_dir = self.scratch_dir() / "store"
        cycle, _campaign = _campaign_cycle(
            self, self._jobs, self._specs,
            self.pick(self.iterations, self.tiny_iterations), store_dir)
        shutil.rmtree(store_dir.parent, ignore_errors=True)
        self.check_pins(cycle)
        return cycle

    def replay_store_dir(self) -> Path:
        return self.scratch_dir() / "store"


# ---------------------------------------------------------------------------
# long_trace
# ---------------------------------------------------------------------------

class LongTrace(Workload):
    name = "long_trace"
    #: generate_program seeds whose two fragments include a numeric kernel and
    #: that run 1.0-1.2M steps at -O0 in <= 40 source lines (steps=100); seeds
    #: with two numeric kernels run 1.67M steps, and some flag vectors push
    #: those past the 2M-step limit into penalty records, so they are left out.
    generator_seeds = (20, 23, 30)
    generator_steps = 100
    #: Two generations per program.
    iterations = 2 * POPULATION
    tiny_iterations = 2 * POPULATION

    def programs(self) -> List[Program]:
        seeds = self.generator_seeds[:1] if self.tiny else self.generator_seeds
        return [
            Program(w.name, w.source)
            for w in (
                generate_program(f"trace-{seed}", seed, emphasis=("_numeric_kernel",),
                                 fragment_count=2, steps=self.generator_steps)
                for seed in seeds
            )
        ]

    def prepare(self) -> None:
        self._specs = [p.spec(self.salt) for p in self.programs()]

    def cycle(self, index: int) -> Cycle:
        _fresh_process_state()
        iterations = self.pick(self.iterations, self.tiny_iterations)
        runs, firsts, all_gaps = [], [], []
        stats = EvaluationStats()
        started = time.perf_counter()
        for spec in self._specs:
            marks: List[float] = []
            tuner = BinTuner(default_compiler_provider("gcc"), spec,
                             tuner_config(iterations))
            job_started = time.perf_counter()
            tuner.evaluation_engine().on_batch = (
                lambda _engine, marks=marks: marks.append(time.perf_counter()))
            try:
                result = tuner.run()
            finally:
                tuner.close()
            firsts.append(marks[0] - job_started)
            all_gaps.extend(gaps(marks))
            stats = stats.add(result.evaluation_stats)
            runs.append(JobRun(
                family="gcc", spec=spec, max_iterations=iterations,
                requested=result.evaluation_stats.requested,
                fingerprint=result.database.fingerprint(),
                best_fitness=result.best_fitness,
                records=list(result.database.records),
            ))
        cycle = Cycle(wall_s=time.perf_counter() - started, jobs=runs,
                      first_generation_s=firsts, generation_gaps_s=all_gaps,
                      stats=stats)
        self.check_pins(cycle)
        return cycle


# ---------------------------------------------------------------------------
# warm_restart
# ---------------------------------------------------------------------------

class WarmRestart(Workload):
    name = "warm_restart"
    #: The same two programs cold_tune writes, so this is the read side of
    #: the layer that workload is the write side of.
    program_names = ColdTune.program_names
    iterations = ColdTune.iterations
    tiny_iterations = ColdTune.tiny_iterations

    def programs(self) -> List[Program]:
        return benchmark_programs(self.program_names)

    def prepare(self) -> None:
        """Populate a store with one cold campaign (the bulk of ``setup_s``)."""
        self._specs = {p.name: p.spec(self.salt) for p in self.programs()}
        self._jobs = [ProgramJob("gcc", name) for name in self.program_names]
        self._iterations = self.pick(self.iterations, self.tiny_iterations)
        _fresh_process_state()
        self._store_dir = self.scratch_dir() / "store"
        cold, _campaign = _campaign_cycle(
            self, self._jobs, self._specs, self._iterations, self._store_dir)
        self.setup_checks += cold.operations
        self.check_pins(cold, count=False)
        self.setup_failures.extend(cold.failures)

    def replay_store_dir(self) -> Path:
        return self._store_dir

    def cycle(self, index: int) -> Cycle:
        _fresh_process_state()
        disk, campaign = _campaign_cycle(
            self, self._jobs, self._specs, self._iterations, self._store_dir)
        memory, _campaign = _campaign_cycle(
            self, self._jobs, self._specs, self._iterations, self._store_dir,
            artifact_cache=campaign.artifact_cache)
        # Timing samples come from the disk-tier rerun alone: that is the
        # restart a user waits for, and mixing the two tiers' gaps would put
        # the median between two clusters.
        cycle = Cycle(
            wall_s=disk.wall_s + memory.wall_s,
            jobs=disk.jobs + memory.jobs,
            first_generation_s=disk.first_generation_s,
            generation_gaps_s=disk.generation_gaps_s,
            extra_operations=1,
            stats=disk.stats.add(memory.stats),
            campaign_overhead_s=disk.campaign_overhead_s + memory.campaign_overhead_s,
        )
        if cycle.stats.artifact_misses:
            cycle.failures.append(
                f"restart cycle paid {cycle.stats.artifact_misses} compile/emulation "
                "miss(es); expected zero")
        if not disk.stats.artifact_store_hits or memory.stats.artifact_store_hits:
            cycle.failures.append("disk-tier / memory-tier hits not where expected")
        self.check_pins(cycle)
        return cycle


# ---------------------------------------------------------------------------
# service_fleet
# ---------------------------------------------------------------------------

class ServiceFleet(Workload):
    name = "service_fleet"
    families = ("gcc", "llvm")
    #: Four tiny programs (two fragments, two steps: a compile is ~10 ms);
    #: generator seeds 100..103 are simply the first four tried.  Tenant a
    #: runs programs 0-2 and tenant b programs 1-3, so two of the three jobs
    #: of each tenant meet the other tenant's artifacts (cross-tenant dedupe).
    #: Every cycle runs the same plan: cycles must do equal work.
    generator_seeds = (100, 101, 102, 103)
    jobs_per_tenant = 3
    generations = 4
    tiny_jobs_per_tenant = 1
    tiny_generations = 2
    _fleet: Optional[Fleet] = None

    def programs(self) -> List[Program]:
        return [
            Program(w.name, w.source)
            for w in (
                generate_program(f"tiny-{index}", seed, fragment_count=2, steps=2)
                for index, seed in enumerate(self.generator_seeds)
            )
        ]

    @staticmethod
    def family_of(index: int) -> str:
        return "gcc" if index % 2 == 0 else "llvm"

    def prepare(self) -> None:
        """Spawn the fleet and run one warm-up job through it, so both
        subprocesses have paid their lazy imports and first compile."""
        self._programs = self.programs()
        self._jobs = self.pick(self.jobs_per_tenant, self.tiny_jobs_per_tenant)
        self._generations = self.pick(self.generations, self.tiny_generations)
        self._fleet = Fleet(self.scratch_dir(), self.source_root)
        try:
            self._fleet.start()
            with self._fleet.client(JOB_TIMEOUT_S) as client:
                warm = self._run_job(client, "warmup", 0, f"/* warm-up {self.seed} */\n")
        except (FleetError, OSError, DistribError) as exc:
            logs = self._fleet.log_tail()
            self.teardown()
            raise FleetError(f"service fleet did not come up: {exc}\n{logs}") from exc
        self.setup_checks += 1
        if warm["state"] != "done":
            self.setup_failures.append(f"warm-up job ended {warm['state']}")

    def teardown(self) -> None:
        if self._fleet is not None:
            self._fleet.stop()
            self._fleet = None

    def _run_job(self, client, tenant: str, program_index: int,
                 salt: str) -> Dict[str, object]:
        """Submit one job and stream it to its terminal event (or a typed
        failure: any error or timeout ends the job as ``failed``)."""
        program = self._programs[program_index]
        spec = program.spec(salt)
        family = self.family_of(program_index)
        row: Dict[str, object] = {
            "tenant": tenant, "family": family, "spec": spec, "state": "failed",
            "events": [], "marks": [], "started_at": time.perf_counter(),
        }
        try:
            job_id = client.submit(tenant, spec.name, spec.source, family,
                                   generations=self._generations,
                                   population=POPULATION, stall_window=NO_STALL)
            row["submit_rtt_s"] = time.perf_counter() - row["started_at"]
            for event in client.stream(job_id, timeout=JOB_TIMEOUT_S):
                now = time.perf_counter()
                row["events"].append(event)
                if event["kind"] == "started":
                    row["queue_wait_s"] = now - row["started_at"]
                elif event["kind"] == "generation":
                    row["marks"].append(now)
                row["state"] = event["kind"]
                row["result"] = event["data"]
        except (OSError, DistribError) as exc:
            row["state"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["ended_at"] = time.perf_counter()
        return row

    def _tenant_loop(self, tenant: str, plan: Sequence[int], salt: str,
                     rows: List[Dict[str, object]]) -> None:
        try:
            with self._fleet.client(JOB_TIMEOUT_S) as client:
                for program_index in plan:
                    rows.append(self._run_job(client, tenant, program_index, salt))
        except (OSError, DistribError) as exc:
            rows.append({"state": "failed", "tenant": tenant,
                         "error": f"{type(exc).__name__}: {exc}"})

    def cycle(self, index: int) -> Cycle:
        # A fresh salt per cycle: the service and the worker keep their
        # caches across cycles, and every cycle must be equally cold.
        salt = f"/* ledger seed {self.seed} cycle {index} */\n"
        window = list(range(self._jobs + 1))
        plans = {"tenant-a": window[:-1], "tenant-b": window[1:]}
        with self._fleet.client(JOB_TIMEOUT_S) as control:
            before = control.accounting()
            rows: Dict[str, List[Dict[str, object]]] = {name: [] for name in plans}
            threads = [
                threading.Thread(target=self._tenant_loop,
                                 args=(name, plan, salt, rows[name]), daemon=True)
                for name, plan in plans.items()
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOB_TIMEOUT_S * self._jobs)
            after = control.accounting()
        done = [row for name in plans for row in rows[name] if row["state"] == "done"]
        planned = sum(len(plan) for plan in plans.values())
        budget = JobBudget(self._generations, POPULATION, NO_STALL)
        cycle = Cycle(
            wall_s=(max(row["ended_at"] for row in done)
                    - min(row["started_at"] for row in done)) if done else 0.0,
            jobs=[
                JobRun(family=row["family"], spec=row["spec"],
                       max_iterations=budget.max_iterations,
                       requested=budget.max_iterations,
                       fingerprint=row["result"]["fingerprint"],
                       best_fitness=row["result"]["best_fitness"],
                       events=row["events"])
                for row in done
            ],
            first_generation_s=[row["marks"][0] - row["started_at"] for row in done],
            generation_gaps_s=[gap for row in done for gap in gaps(row["marks"])],
            # Jobs that never reached ``done`` still count as attempted.
            extra_operations=planned - len(done),
        )
        for name in plans:
            for row in rows[name]:
                if row["state"] != "done":
                    cycle.failures.append(
                        f"{name} job ended {row['state']}: {row.get('error', '')}")
        unreported = planned - len(done) - len(cycle.failures)
        cycle.failures.extend(["a planned job never ran (timeout)"] * max(0, unreported))

        def delta(field_name: str) -> float:
            return sum(row[field_name] for row in after.values()) - sum(
                row[field_name] for row in before.values())

        cycle.service = {
            "submit_rtt_s": [row["submit_rtt_s"] for row in done],
            "queue_wait_s": [row["queue_wait_s"] for row in done],
            "job_done_s": [row["ended_at"] - row["started_at"] for row in done],
            "jobs": len(done),
            "rejected": delta("jobs_rejected"),
            "compile_s": delta("compile_seconds"),
            "artifact_hits": delta("artifact_hits"),
        }
        self.check_pins(cycle)
        return cycle


WORKLOADS = {cls.name: cls for cls in (ColdTune, LongTrace, WarmRestart, ServiceFleet)}
