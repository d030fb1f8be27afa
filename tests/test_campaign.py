"""Tests for the campaign orchestration subsystem.

The load-bearing guarantees:

* a campaign interrupted (at program or generation granularity) and resumed
  from its checkpoint converges to a database identical — records, ordering,
  fingerprints — to an uninterrupted run, for serial and process-pool
  engines;
* sharded dedup never leaks one program's records into another's shard;
* the tuning-database JSON round-trip preserves ``started_at`` and tolerates
  unknown keys (checkpoints must survive schema growth);
* cross-program warm starts actually inject earlier bests into later
  programs' initial populations, deterministically;
* a campaign restarted in a fresh process with the same ``--store-dir``
  performs zero redundant compiles for previously seen configurations and
  converges to a database fingerprint identical to an uninterrupted run,
  on the serial, process, and distributed executors.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from _helpers import fresh_process_state, loopback_available

from repro.campaign import (
    Campaign,
    CampaignConfig,
    CampaignDatabase,
    ProgramJob,
    SharedWorkerPool,
)
from repro.campaign.campaign import STORE_DIR, TELEMETRY_DIR
from repro.tuner import (
    ArtifactCache,
    BinTuner,
    BinTunerConfig,
    BuildSpec,
    GAParameters,
    IterationRecord,
    LocalMapper,
    TuningDatabase,
    persistent_store,
    reset_persistent_stores,
)

#: A checkpoint written by the parent commit (``run_campaign(checkpoint_dir=
#: ..., limit=1)`` of this module, store left out): its manifest still
#: carries the since-removed ``"pipeline": "staged"`` key.
PARENT_CHECKPOINT = Path(__file__).parent / "data" / "parent_checkpoint"

#: Two small but distinct programs; different sources guarantee different
#: fingerprints for identical flag keys, which the leak test relies on.
TINY_A = """
int acc[16];
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { acc[i % 16] = i * 3; s += acc[i % 16]; } return s; }
int main() { int s = work(40); print_int(s); return s % 101; }
"""

TINY_B = """
int grid[24];
int mix(int n) { int i; int s = 1; for (i = 1; i < n; i++) { grid[i % 24] = s ^ (i * 5); s += grid[i % 24] % 7; } return s; }
int pick(int x) { switch (x) { case 0: return 3; case 1: return 11; default: return 2; } }
int main() { int s = mix(30); int i; for (i = 0; i < 5; i++) s += pick(i % 3); print_int(s); return s % 97; }
"""

SOURCES = {"tiny-a": TINY_A, "tiny-b": TINY_B}

JOBS = [ProgramJob("llvm", "tiny-a"), ProgramJob("llvm", "tiny-b")]


def tiny_spec(job: ProgramJob) -> BuildSpec:
    return BuildSpec(name=job.program, source=SOURCES[job.program])


def tiny_config(checkpoint_dir=None, workers=1, warm_start=True, **config_kwargs) -> CampaignConfig:
    return CampaignConfig(
        tuner=BinTunerConfig(
            max_iterations=16, ga=GAParameters(population_size=6, seed=9), stall_window=12
        ),
        workers=workers,  # > 1 with no dispatch named: the process pool
        warm_start=warm_start,
        checkpoint_dir=checkpoint_dir,
        **config_kwargs,
    )


def span_counts(directory: Path, pattern: str) -> Counter:
    """Span records per name across the JSONL files ``pattern`` matches."""
    return Counter(
        record["name"]
        for path in directory.glob(pattern)
        for record in map(json.loads, path.read_text().splitlines())
        if record.get("type") == "span"
    )


def run_campaign(checkpoint_dir=None, workers=1, warm_start=True,
                 compiler_provider=None, config_kwargs=None, **run_kwargs):
    campaign = Campaign(
        JOBS,
        tiny_config(checkpoint_dir, workers, warm_start, **(config_kwargs or {})),
        spec_provider=tiny_spec,
        **({"compiler_provider": compiler_provider} if compiler_provider else {}),
    )
    return campaign.run(**run_kwargs)


class TestDatabaseRoundTrip:
    def _database(self) -> TuningDatabase:
        db = TuningDatabase(program="p", compiler="llvm")
        db.record(IterationRecord(iteration=1, flags=("-dce",), fitness=0.4,
                                  code_size=10, fingerprint="fp1", elapsed_seconds=0.5))
        return db

    def test_started_at_survives(self, tmp_path):
        db = self._database()
        db.started_at = 123456.75
        db.save(tmp_path / "db.json")
        restored = TuningDatabase.load(tmp_path / "db.json")
        assert restored.started_at == 123456.75

    def test_unknown_keys_are_tolerated(self, tmp_path):
        """A checkpoint written by a future schema must still load."""
        db = self._database()
        path = tmp_path / "db.json"
        db.save(path)
        payload = json.loads(path.read_text())
        payload["future_top_level_field"] = {"nested": True}
        payload["records"][0]["future_record_field"] = 42
        path.write_text(json.dumps(payload))
        restored = TuningDatabase.load(path)
        assert len(restored) == 1
        assert restored.records[0].fitness == 0.4
        assert restored.lookup(("-dce",)) is not None

    def test_round_trip_preserves_lookup_and_order(self, tmp_path):
        db = self._database()
        db.record(IterationRecord(iteration=2, flags=("-adce", "-dce"), fitness=0.9,
                                  code_size=12, fingerprint="fp2", elapsed_seconds=0.1,
                                  generation=1, valid=True))
        db.save(tmp_path / "db.json")
        restored = TuningDatabase.load(tmp_path / "db.json")
        assert [r.flags for r in restored.records] == [r.flags for r in db.records]
        assert restored.lookup(("-dce", "-adce")).fitness == 0.9


class TestCampaignDatabase:
    def test_shards_are_isolated(self):
        db = CampaignDatabase()
        db.shard("llvm", "a").record(
            IterationRecord(iteration=1, flags=("-dce",), fitness=0.5,
                            code_size=1, fingerprint="fa", elapsed_seconds=0.0))
        assert db.shard("llvm", "b").lookup(("-dce",)) is None
        assert db.shard("gcc", "a").lookup(("-dce",)) is None
        assert len(db.shard("llvm", "a")) == 1

    def test_save_load_fingerprint_stable(self, tmp_path):
        result = run_campaign()
        result.database.save(tmp_path / "db")
        restored = CampaignDatabase.load(tmp_path / "db")
        assert restored.fingerprint() == result.database.fingerprint()
        assert restored.record_signatures() == result.database.record_signatures()

    def test_aggregates(self):
        result = run_campaign()
        frequency = result.database.flag_frequency("llvm")
        assert frequency, "expected non-empty flag frequency"
        assert all(0.0 < share <= 1.0 for share in frequency.values())
        overlap = result.database.best_overlap("llvm")
        value = overlap[("llvm", "tiny-a")][("llvm", "tiny-b")]
        assert 0.0 <= value <= 1.0
        rows = result.database.summary_rows()
        assert {row["benchmark"] for row in rows} == {"tiny-a", "tiny-b"}


class TestCampaignRun:
    def test_every_job_produces_a_result(self):
        result = run_campaign()
        assert [p.job for p in result.programs] == JOBS
        assert all(p.best_fitness > 0.0 for p in result.programs)
        # resolved on first read, by the job's own tuning result
        assert all(p.best_image is p.tuning.best_image for p in result.programs)
        assert all(
            p.best_image.fingerprint()
            == max(p.tuning.database.records, key=lambda r: r.fitness).fingerprint
            for p in result.programs
        )
        assert not result.interrupted

    def test_no_leak_between_shards(self):
        """Per-shard records equal what a solo run of that program produces:
        dedup shares nothing across programs (same flags, same search seed,
        but each program's fingerprints are its own)."""
        result = run_campaign(warm_start=False)
        for job in JOBS:
            solo = BinTuner(
                Campaign([job], spec_provider=tiny_spec).compiler_provider(job.family),
                tiny_spec(job),
                tiny_config().tuner,
            ).run()
            shard = result.database.shard(job.family, job.program)
            assert [(r.flags, r.fitness, r.fingerprint) for r in shard.records] == [
                (r.flags, r.fitness, r.fingerprint) for r in solo.database.records
            ]

    def test_duplicate_jobs_rejected(self):
        with pytest.raises(ValueError):
            Campaign([JOBS[0], JOBS[0]])

    @pytest.mark.parametrize("knob", [
        {"executor": "distributed"}, {"workers": 4}, {"serve": "127.0.0.1:0"},
    ])
    def test_tuner_substrate_knobs_rejected(self, knob):
        """Every job runs on the campaign's shared pool, so a tuner-level
        ``executor`` / ``workers`` / ``serve`` could only be silently
        ignored: the tuner config has no such field to set."""
        with pytest.raises(TypeError, match="unexpected keyword"):
            BinTunerConfig(**knob)

    def test_warm_start_seeds_later_programs(self):
        result = run_campaign()
        first, second = result.programs
        assert first.warm_start == ()
        assert second.warm_start == (first.best_flags,)
        # The seeded individual was actually evaluated in generation 0
        # (repair is a no-op on an already-valid best vector).
        generation0 = [r.flags for r in
                       result.database.shard("llvm", "tiny-b").records if r.generation == 0]
        assert first.best_flags in generation0

    def test_warm_start_campaigns_are_reproducible(self):
        assert run_campaign().fingerprint() == run_campaign().fingerprint()

    def test_a_job_that_raises_reports_failed(self):
        """A campaign whose second job raises must not read ``finished`` on
        ``/status``: the progress records ``failed`` after the one job that
        completed."""
        def spec_provider(job):
            if job.program == "tiny-b":
                raise RuntimeError("no source for tiny-b")
            return tiny_spec(job)

        campaign = Campaign(JOBS, tiny_config(), spec_provider=spec_provider)
        with pytest.raises(RuntimeError, match="no source"):
            campaign.run()
        snapshot = campaign.progress.snapshot()
        assert snapshot["state"] == "failed"
        assert snapshot["jobs_completed"] == 1

    def test_a_finished_job_frees_its_engine_without_the_cycle_collector(self):
        """The per-generation wrapper ``run_job`` installs holds the engine;
        it is removed after the run, so a finished job's engine (evaluator,
        mapper, baseline) is freed by reference counting instead of waiting
        for a full cyclic collection."""
        import gc

        from repro.tuner import EvaluationEngine

        def live_engines():
            return sum(isinstance(o, EvaluationEngine) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = live_engines()
            run_campaign()
            assert live_engines() == before
        finally:
            gc.enable()

    def test_warm_seeds_survive_small_populations(self):
        """Seeds outrank trailing presets when presets + seeds overflow the
        population, instead of being silently truncated away."""
        from repro.opt.flags import FlagVector, build_gcc_registry
        from repro.tuner import ConstraintEngine, GAParameters, GeneticAlgorithm

        registry = build_gcc_registry()
        constraints = ConstraintEngine(registry)
        seed = constraints.repair(registry.preset("O2"))
        algorithm = GeneticAlgorithm(
            registry, constraints,
            GAParameters(population_size=len(registry.presets)),  # no free slots
            seeds=[seed],
        )
        population = algorithm._seed_population()
        assert len(population) == len(registry.presets)
        assert seed.sorted_names() in [vector.sorted_names() for vector in population]


class TestCheckpointResume:
    def _assert_identical(self, left, right):
        assert left.database.record_signatures() == right.database.record_signatures()
        assert left.fingerprint() == right.fingerprint()

    def test_program_level_resume_matches_uninterrupted(self, tmp_path):
        uninterrupted = run_campaign()
        first = run_campaign(checkpoint_dir=tmp_path / "ckpt", limit=1)
        assert first.interrupted and len(first.programs) == 1
        resumed = run_campaign(checkpoint_dir=tmp_path / "ckpt")
        assert resumed.programs[0].resumed and not resumed.programs[1].resumed
        self._assert_identical(resumed, uninterrupted)

    def test_generation_level_resume_matches_uninterrupted(self, tmp_path):
        """Kill mid-program: only generation 0 of the first shard survives on
        disk.  The resumed campaign replays the seeded search — everything
        checkpointed is a database hit — and converges bit-for-bit."""
        uninterrupted = run_campaign(checkpoint_dir=tmp_path / "full")
        ckpt = tmp_path / "cut"
        database_dir = ckpt / "database"
        db = CampaignDatabase.load(tmp_path / "full" / "database")
        shard = db.shard("llvm", "tiny-a")
        shard.records = [r for r in shard.records if r.generation == 0]
        shard._by_flags = {r.flag_key(): r for r in shard.records}
        cut = CampaignDatabase(name=db.name, shards={("llvm", "tiny-a"): shard})
        cut.save(database_dir)
        table = json.loads((tmp_path / "full" / "jobs.json").read_text())
        for row in table["jobs"]:
            row["state"] = "queued"
        ckpt.mkdir(exist_ok=True)
        (ckpt / "jobs.json").write_text(json.dumps(table))
        resumed = run_campaign(checkpoint_dir=ckpt)
        self._assert_identical(resumed, uninterrupted)

    def test_resumed_campaign_reports_every_generation(self, tmp_path):
        """The same cut checkpoint (generation 0 of the first shard only):
        the replayed, all-hit generation is reported to ``/status`` progress
        like any other, so the first job reports ``1..N`` with no gap and
        ``generations_total`` counts every engine batch."""
        run_campaign(checkpoint_dir=tmp_path / "full")
        ckpt = tmp_path / "cut"
        db = CampaignDatabase.load(tmp_path / "full" / "database")
        shard = db.shard("llvm", "tiny-a")
        shard.records = [r for r in shard.records if r.generation == 0]
        shard._by_flags = {r.flag_key(): r for r in shard.records}
        CampaignDatabase(name=db.name, shards={("llvm", "tiny-a"): shard}).save(
            ckpt / "database")
        campaign = Campaign(JOBS, tiny_config(ckpt), spec_provider=tiny_spec)
        reported = []
        report = campaign.progress.generation_finished

        def spy(**kwargs):
            program = campaign.progress.snapshot()["current"]["program"]
            reported.append((program, kwargs["generation"]))
            report(**kwargs)

        campaign.progress.generation_finished = spy
        resumed = campaign.run()
        first = [generation for program, generation in reported if program == "tiny-a"]
        batches = resumed.programs[0].evaluation_stats.batches
        assert first == list(range(1, batches + 1))
        assert campaign.progress.snapshot()["generations_total"] == sum(
            program.evaluation_stats.batches for program in resumed.programs)

    def test_resume_without_manifest_still_replays_generations(self, tmp_path):
        """A kill inside the *first* program can predate any manifest write;
        the checkpointed generations must still be loaded and replayed."""
        uninterrupted = run_campaign(checkpoint_dir=tmp_path / "full")
        ckpt = tmp_path / "cut"
        db = CampaignDatabase.load(tmp_path / "full" / "database")
        shard = db.shard("llvm", "tiny-a")
        shard.records = [r for r in shard.records if r.generation == 0]
        shard._by_flags = {r.flag_key(): r for r in shard.records}
        cut = CampaignDatabase(name=db.name, shards={("llvm", "tiny-a"): shard})
        cut.save(ckpt / "database")
        assert not (ckpt / "jobs.json").exists()
        resumed = run_campaign(checkpoint_dir=ckpt)
        self._assert_identical(resumed, uninterrupted)

    def test_resume_false_ignores_checkpoint(self, tmp_path):
        run_campaign(checkpoint_dir=tmp_path / "ckpt", limit=1)
        fresh = run_campaign(checkpoint_dir=tmp_path / "ckpt", resume=False)
        assert not any(p.resumed for p in fresh.programs)
        assert fresh.fingerprint() == run_campaign().fingerprint()

    def test_resume_false_discards_stale_checkpoint_upfront(self, tmp_path):
        """A fresh run must delete the old manifest *before* running: a fresh
        run killed early would otherwise leave a stale manifest pointing at
        overwritten shards, poisoning the next resume."""
        ckpt = tmp_path / "ckpt"
        run_campaign(checkpoint_dir=ckpt, limit=1)
        stale = json.loads((ckpt / "jobs.json").read_text())
        assert any(row["state"] == "done" for row in stale["jobs"]), \
            "first run should have checkpointed a completion"
        interrupted_fresh = run_campaign(checkpoint_dir=ckpt, resume=False, limit=0)
        assert interrupted_fresh.interrupted and not interrupted_fresh.programs
        # The stale table and shards are gone; the fresh run rewrites a
        # table with nothing done up front so the job-list guard applies
        # immediately.
        fresh_table = json.loads((ckpt / "jobs.json").read_text())
        assert [row["state"] for row in fresh_table["jobs"]] == ["queued", "queued"]
        assert not (ckpt / "database").exists()

    def test_two_fresh_runs_in_one_process_leave_one_runs_telemetry(self, tmp_path):
        """Each session records its own file, so a second ``resume=False``
        run in the same process discards the first one's spans with its
        checkpoint."""
        ckpt = tmp_path / "ckpt"
        for _ in range(2):
            Campaign(JOBS[:1], tiny_config(ckpt), spec_provider=tiny_spec).run(resume=False)
        assert span_counts(ckpt / TELEMETRY_DIR, "*.jsonl")["campaign.job"] == 1

    def test_mismatched_job_list_rejected(self, tmp_path):
        run_campaign(checkpoint_dir=tmp_path / "ckpt", limit=1)
        other = Campaign(
            [ProgramJob("llvm", "tiny-b")],
            tiny_config(tmp_path / "ckpt"),
            spec_provider=tiny_spec,
        )
        with pytest.raises(ValueError):
            other.run()

    def test_refused_resume_leaves_the_database_alone(self, tmp_path):
        """A resume refused for its job list must not adopt the checkpoint's
        database: the ``resume=False`` retry on the same campaign then tunes
        from scratch, where replaying the discarded shard would evaluate
        nothing and report the other source's best."""
        run_campaign(checkpoint_dir=tmp_path / "ckpt", limit=1)

        def tiny_b_source(job: ProgramJob) -> BuildSpec:
            return BuildSpec(name=job.program, source=TINY_B)

        jobs = [ProgramJob("llvm", "tiny-a")]
        retry = Campaign(jobs, tiny_config(tmp_path / "ckpt"), spec_provider=tiny_b_source)
        with pytest.raises(ValueError):
            retry.run()
        fresh = Campaign(jobs, tiny_config(), spec_provider=tiny_b_source).run()
        assert retry.run(resume=False).fingerprint() == fresh.fingerprint()

    @pytest.mark.slow
    def test_four_worker_resume_matches_serial_uninterrupted(self, tmp_path):
        """The acceptance scenario: interrupted after the first program,
        resumed on a 4-worker shared pool, equal to the uninterrupted serial
        run — campaign checkpointing preserves PR 1's determinism guarantee
        across worker counts."""
        uninterrupted = run_campaign()
        first = run_campaign(checkpoint_dir=tmp_path / "ckpt", workers=4, limit=1)
        assert first.interrupted
        resumed = run_campaign(checkpoint_dir=tmp_path / "ckpt", workers=4)
        self._assert_identical(resumed, uninterrupted)


def counting_compiler_provider(log):
    """A compiler provider whose ``compile`` records every build it performs
    (the compile-count probe behind the zero-redundant-compiles assertions).
    Serial-executor only: the instance-level closure does not pickle."""
    from repro.compilers import SimLLVM

    def provider(family):
        assert family == "llvm"
        compiler = SimLLVM()
        original = compiler.compile

        def counting_compile(source, flags=None, name="program"):
            log.append((name, tuple(flags.sorted_names()) if flags is not None else ()))
            return original(source, flags, name=name)

        compiler.compile = counting_compile
        return compiler

    return provider


class TestStoreRestartWarmth:
    def test_store_defaults_under_checkpoint_dir(self, tmp_path):
        """``--checkpoint-dir`` implies ``checkpoint_dir/store``: checkpoint
        resume is warm by construction."""
        ckpt = tmp_path / "ckpt"
        campaign = Campaign(JOBS, tiny_config(ckpt), spec_provider=tiny_spec)
        assert campaign.store_dir == ckpt / STORE_DIR
        campaign.run()
        assert any((ckpt / STORE_DIR / "objects").iterdir())
        # No checkpointing, no store dir.
        assert Campaign(JOBS, tiny_config(), spec_provider=tiny_spec).store_dir is None

    def test_fresh_process_restart_compiles_nothing(self, tmp_path):
        """The headline: restart the whole campaign in a 'fresh process'
        with the same store — zero compiles (baselines included), identical
        fingerprint."""
        fresh_process_state()
        cold = run_campaign(checkpoint_dir=tmp_path / "cold-ckpt")
        fresh_process_state()
        compiles = []
        restarted = run_campaign(
            checkpoint_dir=tmp_path / "restart-ckpt",
            config_kwargs={"store_dir": tmp_path / "cold-ckpt" / STORE_DIR},
            compiler_provider=counting_compiler_provider(compiles),
        )
        assert restarted.fingerprint() == cold.fingerprint()
        assert compiles == []
        stats = restarted.evaluation_stats()
        assert stats.evaluated == cold.evaluation_stats().evaluated
        assert stats.artifact_misses == 0
        assert stats.artifact_store_hits > 0

    def test_generation_level_restart_replays_from_disk(self, tmp_path):
        """Kill mid-program: the lost generations are re-*evaluated* on
        resume (they are not in the checkpointed shard), but with the store
        they are never re-*compiled* — and the database still converges
        bit-for-bit to the uninterrupted run's."""
        fresh_process_state()
        uninterrupted = run_campaign(checkpoint_dir=tmp_path / "full")
        ckpt = tmp_path / "cut"
        db = CampaignDatabase.load(tmp_path / "full" / "database")
        shard = db.shard("llvm", "tiny-a")
        shard.records = [r for r in shard.records if r.generation == 0]
        shard._by_flags = {r.flag_key(): r for r in shard.records}
        cut = CampaignDatabase(name=db.name, shards={("llvm", "tiny-a"): shard})
        cut.save(ckpt / "database")
        table = json.loads((tmp_path / "full" / "jobs.json").read_text())
        for row in table["jobs"]:
            row["state"] = "queued"
        ckpt.mkdir(exist_ok=True)
        (ckpt / "jobs.json").write_text(json.dumps(table))
        fresh_process_state()
        compiles = []
        resumed = run_campaign(
            checkpoint_dir=ckpt,
            config_kwargs={"store_dir": tmp_path / "full" / STORE_DIR},
            compiler_provider=counting_compiler_provider(compiles),
        )
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed.database.record_signatures() == (
            uninterrupted.database.record_signatures()
        )
        assert compiles == []  # every replayed candidate came from the store

    def test_fresh_run_keeps_the_store(self, tmp_path):
        """``resume=False`` discards the checkpoint but not the store:
        content addressing makes stale entries harmless, so a fresh run
        merely starts warm."""
        fresh_process_state()
        ckpt = tmp_path / "ckpt"
        run_campaign(checkpoint_dir=ckpt)
        fresh_process_state()
        compiles = []
        fresh = run_campaign(
            checkpoint_dir=ckpt,
            resume=False,
            compiler_provider=counting_compiler_provider(compiles),
        )
        assert not any(program.resumed for program in fresh.programs)
        assert compiles == []  # the store made the fresh run free anyway

    @pytest.mark.slow
    @pytest.mark.parametrize("dispatch", ["serial", "process", "distributed"])
    def test_restarted_campaign_is_warm_on_every_executor(self, tmp_path, dispatch):
        """The acceptance criterion, per executor: a campaign restarted in a
        fresh process with the same store performs zero redundant compiles
        and lands on the identical database fingerprint."""
        if dispatch == "distributed" and not loopback_available():
            pytest.skip("no AF_INET loopback in this sandbox")
        store = tmp_path / "store"

        def run(checkpoint_dir):
            workers = 4 if dispatch == "process" else 1
            config_kwargs = {"store_dir": store}
            pool = None
            threads = []
            if dispatch == "distributed":
                from repro.distrib.worker import serve

                config_kwargs["dispatch"] = "distributed"
                pool = SharedWorkerPool(dispatch="distributed")
                threads = [
                    threading.Thread(
                        target=serve,
                        kwargs=dict(connect=pool.address_string(), hard_exit=False,
                                    heartbeat_interval=0.5),
                        daemon=True,
                    )
                    for _ in range(2)
                ]
                for thread in threads:
                    thread.start()
                pool.wait_for_workers(2, timeout=10)
            try:
                return run_campaign(
                    checkpoint_dir=checkpoint_dir, workers=workers,
                    config_kwargs=config_kwargs, pool=pool,
                )
            finally:
                if pool is not None:
                    pool.close()

        fresh_process_state()
        cold = run(tmp_path / "cold-ckpt")
        fresh_process_state()
        restarted = run(tmp_path / "restart-ckpt")
        assert restarted.fingerprint() == cold.fingerprint()
        stats = restarted.evaluation_stats()
        assert stats.evaluated == cold.evaluation_stats().evaluated
        assert stats.artifact_misses == 0  # zero redundant compiles/emulations
        assert stats.artifact_store_hits > 0


class TestOneStorePerCampaign:
    """The campaign owns its cache's store: every dispatch mode persists to
    it, process workers included (they derive the directory from the
    evaluator they are sent), and a second directory is refused instead of
    splitting one campaign's artifacts over two stores."""

    def test_every_dispatch_persists_to_the_injected_caches_store(self, tmp_path):
        entries = {}
        for dispatch, workers in (("serial", 1), ("process", 2)):
            fresh_process_state()
            cache = ArtifactCache(64).ensure_store(tmp_path / dispatch)
            Campaign(
                JOBS[:1], tiny_config(dispatch=dispatch, workers=workers),
                spec_provider=tiny_spec, artifact_cache=cache,
            ).run()
            entries[dispatch] = len(persistent_store(tmp_path / dispatch))
        assert entries["serial"] > 2  # more than the baseline's image + trace
        assert entries == dict.fromkeys(entries, entries["serial"])

    def test_a_second_store_directory_is_refused(self, tmp_path):
        cache = ArtifactCache(64).ensure_store(tmp_path / "a")
        with pytest.raises(ValueError, match="already backed by the store"):
            Campaign(JOBS[:1], tiny_config(store_dir=tmp_path / "b"),
                     spec_provider=tiny_spec, artifact_cache=cache)
        # The same directory, spelled differently and reopened after the
        # store registry was reset, is the same store.
        reset_persistent_stores()
        campaign = Campaign(
            JOBS[:1], tiny_config(store_dir=tmp_path / "b" / ".." / "a"),
            spec_provider=tiny_spec, artifact_cache=cache,
        )
        assert campaign.store_dir == tmp_path / "a"


class TestSharedWorkerPool:
    def test_serial_pool_hands_out_serial_mappers(self):
        pool = SharedWorkerPool("serial", 1)
        mapper = pool.mapper(lambda key: key)
        assert isinstance(mapper, LocalMapper)
        assert mapper.map([("-a",), ("-b",)]) == [("-a",), ("-b",)]
        pool.close()

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            SharedWorkerPool("threads", 2)
        with pytest.raises(ValueError):
            SharedWorkerPool("serial", 0)

    @pytest.mark.slow
    def test_one_pool_serves_multiple_evaluators(self):
        """Two programs' evaluators share one process pool; results come back
        in submission order for each."""
        from repro.compilers import SimLLVM
        from repro.tuner import StagedCandidateEvaluator

        compiler = SimLLVM()
        with SharedWorkerPool("process", 2) as pool:
            mappers = {}
            for name, source in SOURCES.items():
                baseline = compiler.compile_level(source, "O0", name=name).image
                evaluator = StagedCandidateEvaluator(
                    compiler=compiler, source=source, name=name, baseline=baseline
                )
                mappers[name] = (pool.mapper(evaluator), evaluator)
            keys = [tuple(compiler.preset(level).sorted_names()) for level in ("O1", "O2")]
            for name, (mapper, evaluator) in mappers.items():
                pooled = mapper.map(keys)
                local = [evaluator(key) for key in keys]
                assert [r.fitness for r in pooled] == [r.fitness for r in local]
                assert [r.fingerprint for r in pooled] == [r.fingerprint for r in local]


def test_tuning_processes_import_no_numeric_library():
    """Every pool worker, ``serve`` and ``repro.distrib.worker`` process pays
    these imports; the diffing tools, feature vectors and experiment tables
    that need numpy, scipy or networkx import them at their call sites."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import repro.campaign, repro.distrib.worker, repro.campaign.service; "
        "print([name for name in ('numpy', 'scipy', 'networkx') if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_serve_startup_imports_no_report_table():
    """``serve`` starts through ``repro.campaign.cli``; the telemetry
    tables ``report`` prints, and the ``tail`` client, load only when
    those subcommands run."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import repro.campaign.cli; "
        "print([name for name in ('repro.telemetry.report', 'urllib.request') "
        "if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.stdout.strip() == "[]"


class TestParentCheckpointCompatibility:
    def test_parent_manifest_resumes_and_reports(self, tmp_path, capsys):
        """The ``pipeline`` key an older manifest carries is tolerated: the
        checkpoint resumes to the uninterrupted fingerprint and renders
        under ``report``."""
        from repro.campaign.cli import main

        ckpt = tmp_path / "ckpt"
        shutil.copytree(PARENT_CHECKPOINT, ckpt)
        assert json.loads((ckpt / "manifest.json").read_text())["pipeline"] == "staged"
        assert main(["report", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "tiny-a" in out and "pipeline stages" in out
        resumed = run_campaign(checkpoint_dir=ckpt)
        assert [program.resumed for program in resumed.programs] == [True, False]
        assert resumed.fingerprint() == run_campaign().fingerprint()
        assert not (ckpt / "manifest.json").exists()
        assert "pipeline" not in json.loads((ckpt / "jobs.json").read_text())


class TestCampaignCLI:
    def test_cli_runs_and_resumes(self, tmp_path, capsys):
        from repro.campaign.cli import main

        args = [
            "--benchmarks", "462.libquantum,429.mcf",
            "--families", "llvm",
            "--max-iterations", "10",
            "--population", "6",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--json", str(tmp_path / "summary.json"),
        ]
        assert main(args + ["--limit", "1"]) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "resumed" in out and "database fingerprint" in out
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(summary["summary"]) == 2
        assert not summary["interrupted"]

    def test_cli_rejects_empty_selection(self, capsys):
        from repro.campaign.cli import main

        assert main(["--families", ""]) == 2

    def test_cli_fresh_restart_is_served_by_the_store(self, tmp_path, capsys):
        """``--fresh`` re-runs everything, but the artifact store under the
        checkpoint dir makes the restart warm: the CLI reports tier-2 hits
        and both runs agree on the fingerprint."""
        from repro.campaign.cli import main

        args = [
            "--benchmarks", "462.libquantum",
            "--families", "llvm",
            "--max-iterations", "10",
            "--population", "6",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        fresh_process_state()
        assert main(args + ["--json", str(tmp_path / "cold.json")]) == 0
        assert any((tmp_path / "ckpt" / STORE_DIR / "objects").iterdir())
        capsys.readouterr()
        fresh_process_state()
        assert main(args + ["--fresh", "--json", str(tmp_path / "warm.json")]) == 0
        out = capsys.readouterr().out
        assert "tier-2 (disk) hits" in out and "artifact store" in out
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["evaluation"]["artifact_store_hits"] > 0
        assert warm["evaluation"]["artifact_misses"] == 0

    def test_report_subcommand_regenerates_tables(self, tmp_path, capsys):
        """``report`` rebuilds summary/potency/overlap from checkpoints
        alone — same fingerprint as the run that wrote them, no re-tuning."""
        from repro.campaign.cli import main

        assert main([
            "--benchmarks", "462.libquantum,429.mcf",
            "--families", "llvm",
            "--max-iterations", "10",
            "--population", "6",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--json", str(tmp_path / "run.json"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", str(tmp_path / "ckpt"), "--json", str(tmp_path / "report.json"),
        ]) == 0
        out = capsys.readouterr().out
        assert "per-flag potency" in out and "best-config overlap" in out
        run_payload = json.loads((tmp_path / "run.json").read_text())
        report_payload = json.loads((tmp_path / "report.json").read_text())
        assert report_payload["fingerprint"] == run_payload["fingerprint"]
        assert len(report_payload["summary"]) == 2
        assert report_payload["flag_frequency"]["llvm"]
        assert len(report_payload["best_overlap"]) == 1  # one unordered pair

    def test_report_subcommand_rejects_missing_checkpoint(self, tmp_path, capsys):
        from repro.campaign.cli import main

        assert main(["report", str(tmp_path / "nowhere")]) == 2

    def test_report_matches_the_golden_output(self, tmp_path, capsys):
        """``report`` stdout and ``--json`` on the stored checkpoint are
        byte-identical to the golden files beside it: a checkpoint with no
        telemetry reports exactly its results half."""
        from repro.campaign.cli import main

        out = tmp_path / "report.json"
        assert main(["report", str(PARENT_CHECKPOINT), "--json", str(out)]) == 0
        data = PARENT_CHECKPOINT.parent
        assert capsys.readouterr().out == (data / "parent_report.txt").read_text()
        assert out.read_bytes() == (data / "parent_report.json").read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["report", str(PARENT_CHECKPOINT), "--top", "0"], "--top must be >= 1, got 0"),
        (["report", str(PARENT_CHECKPOINT), "--top", "-2"], "--top must be >= 1, got -2"),
        (["report", str(PARENT_CHECKPOINT), "--buckets", "0"],
         "--buckets must be >= 1, got 0"),
        (["tail", "127.0.0.1:1", "--interval", "-1"], "--interval must be >= 0, got -1.0"),
    ])
    def test_an_out_of_range_count_is_one_usage_error(self, argv, message, capsys):
        """``--top -2`` listed 28 of 30 flags (a ``[:-2]`` slice), and
        ``tail --interval -1`` raised out of ``time.sleep``."""
        from repro.campaign.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (error,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert error == f"python -m repro.campaign {argv[0]}: error: {message}"

    def test_report_into_a_closed_pipe_exits_quietly(self):
        """``report | head``: the reader left before the tables were
        written, so the command exits 141 with no traceback."""
        src = Path(__file__).resolve().parents[1] / "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "report", str(PARENT_CHECKPOINT)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 141
        assert err == ""

    def test_tail_interrupted_exits_130(self, monkeypatch):
        from repro.campaign.cli import main
        from repro.telemetry import live

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(live, "tail", interrupted)
        assert main(["tail", "127.0.0.1:1"]) == 130

    def test_resumed_campaign_adds_a_session_and_report_merges_both(self, tmp_path):
        """Each process records its own ``campaign-<pid>.jsonl`` under
        ``CKPT/telemetry``; ``report`` reads both sessions as one run."""
        src = Path(__file__).resolve().parents[1] / "src"
        ckpt = tmp_path / "ckpt"
        args = [sys.executable, "-m", "repro.campaign",
                "--benchmarks", "462.libquantum,429.mcf", "--families", "llvm",
                "--max-iterations", "6", "--population", "3",
                "--checkpoint-dir", str(ckpt), "--quiet"]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for extra in (["--limit", "1"], ["--json", str(tmp_path / "run.json")]):
            subprocess.run(args + extra, check=True, capture_output=True, env=env,
                           timeout=120)
        sessions = sorted((ckpt / TELEMETRY_DIR).glob("campaign-*.jsonl"))
        assert len(sessions) == 2
        done = subprocess.run(
            [sys.executable, "-m", "repro.campaign", "report", str(ckpt),
             "--json", str(tmp_path / "report.json")],
            check=True, capture_output=True, text=True, env=env, timeout=60,
        )
        assert f"from 2 process(es) under {ckpt / TELEMETRY_DIR}" in done.stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["fingerprint"] == json.loads(
            (tmp_path / "run.json").read_text())["fingerprint"]
        breakdown = {row["name"]: row["count"]
                     for row in report["telemetry"]["breakdown"]}
        assert breakdown["campaign.run"] == 2
        assert breakdown["campaign.job"] == 2  # one per job, across sessions

    def test_fresh_run_discards_the_old_sessions_telemetry(self, tmp_path):
        """``--fresh`` discards the job table and the database, and the
        telemetry of the runs they came from: ``report`` then counts one
        process and one ``campaign.job`` span beside its one summary row."""
        src = Path(__file__).resolve().parents[1] / "src"
        ckpt = tmp_path / "ckpt"
        args = [sys.executable, "-m", "repro.campaign",
                "--benchmarks", "462.libquantum", "--families", "llvm",
                "--max-iterations", "6", "--population", "3",
                "--checkpoint-dir", str(ckpt), "--quiet"]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for extra in ([], ["--fresh"]):
            subprocess.run(args + extra, check=True, capture_output=True, env=env,
                           timeout=120)
        done = subprocess.run(
            [sys.executable, "-m", "repro.campaign", "report", str(ckpt),
             "--json", str(tmp_path / "report.json")],
            check=True, capture_output=True, text=True, env=env, timeout=60,
        )
        assert f"from 1 process(es) under {ckpt / TELEMETRY_DIR}" in done.stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["summary"]) == 1
        breakdown = {row["name"]: row["count"]
                     for row in report["telemetry"]["breakdown"]}
        assert breakdown["campaign.job"] == 1

    @pytest.mark.skipif(not loopback_available(), reason="no AF_INET loopback")
    def test_local_sessions_record_their_own_telemetry(self, tmp_path):
        """``--workers 2`` forks two local sessions, each with its own sink:
        the campaign's file holds the compiles of its baselines only, the
        sessions' ``worker-<pid>.jsonl`` files the candidates', and
        ``report`` counts three processes."""
        src = Path(__file__).resolve().parents[1] / "src"
        ckpt = tmp_path / "ckpt"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run(
            [sys.executable, "-m", "repro.campaign",
             "--benchmarks", "462.libquantum,429.mcf", "--families", "llvm",
             "--max-iterations", "6", "--population", "3", "--workers", "2",
             "--checkpoint-dir", str(ckpt), "--quiet"],
            check=True, capture_output=True, env=env, timeout=120)
        telemetry_dir = ckpt / TELEMETRY_DIR
        owner = span_counts(telemetry_dir, "campaign-*.jsonl")
        assert owner["stage.compile"] == 2 and owner["worker.batch"] == 0
        assert len(list(telemetry_dir.glob("worker-*.jsonl"))) == 2
        sessions = span_counts(telemetry_dir, "worker-*.jsonl")
        assert sessions["stage.compile"] > 0 and sessions["worker.batch"] > 0
        assert sessions["campaign.job"] == 0
        done = subprocess.run(
            [sys.executable, "-m", "repro.campaign", "report", str(ckpt)],
            check=True, capture_output=True, text=True, env=env, timeout=60)
        assert f"from 3 process(es) under {telemetry_dir}" in done.stdout

    @pytest.mark.skipif(not loopback_available(), reason="no AF_INET loopback")
    def test_fresh_run_keeps_its_local_sessions_telemetry(self, tmp_path):
        """``--workers 2 --fresh``: the sessions open their files when the
        pool starts, before the run discards the old ones, and survive it."""
        src = Path(__file__).resolve().parents[1] / "src"
        ckpt = tmp_path / "ckpt"
        args = [sys.executable, "-m", "repro.campaign",
                "--benchmarks", "462.libquantum", "--families", "llvm",
                "--max-iterations", "6", "--population", "3", "--workers", "2",
                "--checkpoint-dir", str(ckpt), "--quiet"]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for extra in ([], ["--fresh"]):
            subprocess.run(args + extra, check=True, capture_output=True, env=env,
                           timeout=120)
        done = subprocess.run(
            [sys.executable, "-m", "repro.campaign", "report", str(ckpt),
             "--json", str(tmp_path / "report.json")],
            check=True, capture_output=True, text=True, env=env, timeout=60,
        )
        assert f"from 3 process(es) under {ckpt / TELEMETRY_DIR}" in done.stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["summary"]) == 1
        breakdown = {row["name"]: row["count"]
                     for row in report["telemetry"]["breakdown"]}
        assert breakdown["campaign.job"] == 1 and breakdown["worker.batch"] > 0

    def test_report_writes_its_json_before_a_closed_pipe(self, tmp_path):
        """``report --json OUT | head``: the file is written before the first
        line of stdout, so a reader that leaves early does not cost it."""
        src = Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "report.json"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "report", str(PARENT_CHECKPOINT),
             "--json", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        process.stdout.close()
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 141
        assert err == ""
        assert json.loads(out.read_text())["summary"]
