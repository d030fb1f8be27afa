"""Tests for the staged evaluation pipeline (:mod:`repro.tuner.pipeline`).

The load-bearing guarantees:

* the staged evaluator produces results — records, order, database
  fingerprints — bit-for-bit identical to the unstaged reference closure
  (the oracle in ``_helpers.reference_evaluator``) on serial, thread,
  process and distributed worker pools;
* the :class:`ArtifactCache` is a correct bounded LRU with honest hit/miss/
  eviction accounting, and eviction never changes any result;
* compile artifacts are content-addressed (compiler, source digest, flags)
  and traces by (image digest, workload), so shared caches are safe across
  evaluators, programs and reruns — a warm-started rerun stops recompiling;
* the final best-candidate build is served from the cache instead of being
  recompiled from scratch, and ``compare_levels`` goes through the stages;
* with a disk-backed store (:mod:`repro.tuner.store`) behind the cache, a
  run restarted in a *fresh process* is bit-for-bit identical to — and
  compiles nothing already compiled by — the cold run, on every pool,
  with the store cold, warm, or GC-thrashed mid-run (the property-based
  harness at the bottom randomizes seeds and flag domains over exactly
  that invariant).
"""

from __future__ import annotations

import pickle
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from _helpers import (
    fresh_process_state,
    loopback_available,
    reference_evaluator,
    reference_mapper,
    run_tuner,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.emulator import EmulationError, run_program
from repro.campaign import Campaign, CampaignConfig, ProgramJob, SharedWorkerPool
from repro.compilers.base import CompilationError
from repro.difftools import NCDFitness
from repro.opt.flags import FlagVector
from repro.tuner import (
    ArtifactCache,
    BinTuner,
    BinTunerConfig,
    BuildSpec,
    CompileStage,
    ConstraintEngine,
    GAParameters,
    LocalMapper,
    MeasureStage,
    ScoreStage,
    StagedCandidateEvaluator,
    persistent_store,
    shared_artifact_cache,
)
from repro.tuner.pipeline import MEMORY_TIER, MISS_TIER

TINY_SOURCE = """
int acc[16];
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { acc[i % 16] = i * 3; s += acc[i % 16]; } return s; }
int pick(int x) { switch (x) { case 0: return 5; case 1: return 9; case 2: return 13; default: return 1; } }
int main() { int s = work(40); int i; for (i = 0; i < 6; i++) s += pick(i % 4); print_int(s); return s % 101; }
"""

TINY_B = """
int grid[24];
int mix(int n) { int i; int s = 1; for (i = 1; i < n; i++) { grid[i % 24] = s ^ (i * 5); s += grid[i % 24] % 7; } return s; }
int main() { int s = mix(30); print_int(s); return s % 97; }
"""

SOURCES = {"tiny-a": TINY_SOURCE, "tiny-b": TINY_B}
JOBS = [ProgramJob("llvm", "tiny-a"), ProgramJob("llvm", "tiny-b")]


def tiny_spec(job: ProgramJob) -> BuildSpec:
    return BuildSpec(name=job.program, source=SOURCES[job.program])


def signature(record):
    """Identity fields of one record (everything but wall-clock timing)."""
    return (record.iteration, record.flags, record.fitness, record.code_size,
            record.fingerprint, record.generation, record.valid)


def tune(llvm, dispatch="serial", workers=1, cache=None, max_iterations=16,
         remote_workers=0, **tuner_kwargs):
    config = BinTunerConfig(
        max_iterations=max_iterations,
        ga=GAParameters(population_size=6, seed=9),
        stall_window=12,
    )
    return run_tuner(
        llvm, BuildSpec(name="tiny", source=TINY_SOURCE), config, dispatch, workers,
        remote_workers, artifact_cache=cache, **tuner_kwargs,
    )


def tune_reference(llvm):
    """The same seeded run, every candidate evaluated by the test oracle."""
    return tune(llvm, mapper_factory=reference_mapper)


# ---------------------------------------------------------------------------
# the artifact cache
# ---------------------------------------------------------------------------

class TestArtifactCache:
    def test_hit_miss_accounting(self):
        cache = ArtifactCache(max_entries=8)
        assert cache.get(("image", "a")) is None
        cache.put(("image", "a"), "artifact-a")
        assert cache.get(("image", "a")) == "artifact-a"
        counts = cache.counters.snapshot()
        assert (counts["memory_hits"], counts["misses"]) == (1, 1)
        assert 0.0 < cache.hit_ratio < 1.0
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["evictions"] == 0

    def test_lru_eviction_order(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(("k", 1), "one")
        cache.put(("k", 2), "two")
        assert cache.get(("k", 1)) == "one"  # 1 becomes most recent
        cache.put(("k", 3), "three")         # evicts 2, the LRU entry
        assert cache.get(("k", 2)) is None
        assert cache.get(("k", 1)) == "one"
        assert cache.get(("k", 3)) == "three"
        assert cache.counters.snapshot()["evictions"] == 1
        assert len(cache) == 2

    def test_bound_is_enforced(self):
        cache = ArtifactCache(max_entries=3)
        for index in range(10):
            cache.put(("k", index), index)
        assert len(cache) == 3
        assert cache.counters.snapshot()["evictions"] == 7

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries=0)

    def test_clear(self):
        cache = ArtifactCache()
        cache.put(("k",), 1)
        cache.clear()
        assert len(cache) == 0 and cache.get(("k",)) is None


# ---------------------------------------------------------------------------
# the stages
# ---------------------------------------------------------------------------

class TestStages:
    def test_compile_stage_content_addressing(self, llvm):
        cache = ArtifactCache()
        stage = CompileStage(llvm, TINY_SOURCE, "tiny", cache, compressor="lzma")
        key = tuple(llvm.preset("O2").sorted_names())
        cold = stage.run(key)
        warm = stage.run(key)
        assert (cold.tier, warm.tier) == (MISS_TIER, MEMORY_TIER)
        assert warm.value is cold.value  # the artifact itself, not a copy
        assert cold.value.image.fingerprint() == (
            llvm.compile(TINY_SOURCE, llvm.preset("O2"), name="tiny").image.fingerprint()
        )
        # The precomputed compressed size is exactly what scoring would use.
        import lzma

        assert cold.value.text_compressed_size == len(
            lzma.compress(cold.value.image.text, preset=6)
        )

    def test_compile_stage_key_separates_sources_and_flags(self, llvm):
        cache = ArtifactCache()
        stage_a = CompileStage(llvm, TINY_SOURCE, "a", cache)
        stage_b = CompileStage(llvm, TINY_B, "b", cache)
        key = tuple(llvm.preset("O1").sorted_names())
        assert stage_a.key(key) != stage_b.key(key)
        assert stage_a.key(key) != stage_a.key(tuple(llvm.preset("O2").sorted_names()))
        stage_a.run(key)
        # The other source is a different address: no false sharing.
        assert stage_b.run(key).tier == MISS_TIER

    def test_measure_stage_keyed_by_image_digest(self, llvm):
        cache = ArtifactCache()
        stage = MeasureStage(arguments=(), inputs=(), max_steps=2_000_000, cache=cache)
        image = llvm.compile_level(TINY_SOURCE, "O1", name="tiny").image
        cold = stage.run(image)
        warm = stage.run(image)
        assert (cold.tier, warm.tier) == (MISS_TIER, MEMORY_TIER)
        assert warm.value.behaviour == cold.value.behaviour
        assert cold.value.steps > 0 and cold.value.cycles > 0
        # A different workload is a different address.
        other = MeasureStage(arguments=(3,), inputs=(), max_steps=2_000_000, cache=cache)
        assert other.key(image) != stage.key(image)

    def test_score_stage_matches_plain_fitness(self, llvm):
        from repro.difftools import CachedNCDFitness

        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        cache = ArtifactCache()
        compile_stage = CompileStage(llvm, TINY_SOURCE, "tiny", cache, compressor="lzma")
        fitness = CachedNCDFitness(baseline)
        stage = ScoreStage(fitness)
        plain = NCDFitness(baseline)
        for level in ("O1", "O2", "O3"):
            artifact = compile_stage.run(tuple(llvm.preset(level).sorted_names())).value
            assert stage.run(artifact).value == plain(artifact.image)


# ---------------------------------------------------------------------------
# the staged evaluator
# ---------------------------------------------------------------------------

@pytest.fixture
def evaluator_pair(llvm):
    baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
    common = dict(compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline)
    return (
        StagedCandidateEvaluator(artifact_cache=ArtifactCache(), **common),
        reference_evaluator(**common),
    )


class TestStagedEvaluator:
    def test_results_match_monolithic(self, llvm, evaluator_pair):
        staged, reference = evaluator_pair
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2", "O3", "Os")]
        keys.append(("-fpartial-inlining",))  # constraint violation: invalid
        for key in keys:
            lhs, rhs = staged(key), reference(key)
            assert (lhs.fitness, lhs.code_size, lhs.fingerprint, lhs.valid) == (
                rhs.fitness, rhs.code_size, rhs.fingerprint, rhs.valid
            )
        assert not staged(keys[-1]).valid

    def test_batch_matches_sequential_in_order(self, llvm, evaluator_pair):
        staged, _reference = evaluator_pair
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2", "O3")]
        keys.append(("-fpartial-inlining",))
        sequential = [staged(key) for key in keys]
        fresh = StagedCandidateEvaluator(
            compiler=staged.compiler, source=staged.source, name=staged.name,
            baseline=staged.baseline, artifact_cache=ArtifactCache(),
        )
        batched = LocalMapper(fresh).map(keys)
        assert [
            (r.fitness, r.code_size, r.fingerprint, r.valid) for r in batched
        ] == [
            (r.fitness, r.code_size, r.fingerprint, r.valid) for r in sequential
        ]

    def test_artifact_hits_reported_per_candidate(self, llvm):
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        cache = ArtifactCache()
        common = dict(compiler=llvm, source=TINY_SOURCE, name="tiny",
                      baseline=baseline, artifact_cache=cache)
        key = tuple(llvm.preset("O2").sorted_names())
        cold = StagedCandidateEvaluator(**common)(key)
        assert cold.artifact_hits == 0 and cold.artifact_misses >= 1
        # A second evaluator sharing the cache reuses the compiled artifact.
        warm = StagedCandidateEvaluator(**common)(key)
        assert warm.artifact_hits >= 1
        assert (warm.fitness, warm.fingerprint) == (cold.fitness, cold.fingerprint)
        assert cache.counters.snapshot()["memory_hits"] >= 1

    def test_cached_unchecked_compile_cannot_bypass_constraints(self, llvm):
        """compare_levels compiles without a constraint check (a preset
        needs none); a conflicting key it happened to cache must still
        score invalid when the *search* evaluates it."""
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            artifact_cache=ArtifactCache(),
        )
        conflicting = ("-fpartial-inlining",)  # missing its prerequisite
        evaluator.score_flags(conflicting)  # unchecked: compiles and caches
        result = evaluator(conflicting)     # search path: constraint-checked
        assert not result.valid and result.fingerprint == "invalid"

    def test_shared_cache_across_compressors_keeps_scores_exact(self, llvm):
        """The precomputed C(.text) is compressor-specific, so the compile
        artifact's address must be too — a shared cache must never serve one
        compressor's size to another's scoring."""
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        cache = ArtifactCache()
        key = tuple(llvm.preset("O2").sorted_names())
        common = dict(compiler=llvm, source=TINY_SOURCE, name="tiny",
                      baseline=baseline, artifact_cache=cache)
        lzma_result = StagedCandidateEvaluator(compressor="lzma", **common)(key)
        zlib_result = StagedCandidateEvaluator(compressor="zlib", **common)(key)
        reference = reference_evaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            compressor="zlib",
        )(key)
        assert zlib_result.fitness == reference.fitness
        assert zlib_result.fitness != lzma_result.fitness  # sanity: they differ

    def test_pickle_round_trip_adopts_shared_cache(self, llvm, evaluator_pair):
        staged, _reference = evaluator_pair
        key = tuple(llvm.preset("O1").sorted_names())
        original = staged(key)
        clone = pickle.loads(pickle.dumps(staged))
        assert clone.artifact_cache is shared_artifact_cache()
        assert clone(key).fitness == original.fitness

    @pytest.mark.parametrize("broken", ["compile", "run_program", "fitness"])
    def test_programming_errors_propagate_from_batch(self, llvm, monkeypatch, broken):
        """A ``TypeError`` is a bug, not an invalid candidate, whichever
        stage it comes from."""
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            baseline_behaviour=run_program(baseline).observable_state(),
            artifact_cache=ArtifactCache(),
        )

        def bug(*args, **kwargs):
            raise TypeError("injected bug")

        if broken == "compile":
            monkeypatch.setattr(evaluator.compiler, "compile", bug)
        elif broken == "run_program":
            monkeypatch.setattr("repro.tuner.pipeline.run_program", bug)
        else:
            evaluator._fitness = bug
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2")]
        with pytest.raises(TypeError):
            LocalMapper(evaluator).map(keys)

    @pytest.mark.parametrize(
        "failure, cold_lookups, warm_lookups",
        [
            # (artifact_hits, artifact_misses) of the first and of a repeated
            # evaluation: only stages that returned an outcome are counted.
            ("constraint conflict", (0, 0), (0, 0)),
            ("CompilationError", (0, 0), (0, 0)),
            ("emulation fault", (0, 1), (1, 0)),
            ("behaviour mismatch", (0, 2), (2, 0)),
            ("fitness ValueError", (0, 2), (2, 0)),
        ],
    )
    def test_every_invalid_path_scores_the_penalty(
        self, llvm, monkeypatch, failure, cold_lookups, warm_lookups
    ):
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        behaviour = run_program(baseline).observable_state()
        if failure == "behaviour mismatch":
            behaviour = (behaviour[0] + 1, behaviour[1])
        # A penalty no real score could equal.
        monkeypatch.setattr("repro.tuner.pipeline.INVALID_FITNESS", -7.5)
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            baseline_behaviour=behaviour, artifact_cache=ArtifactCache(),
        )
        key = tuple(llvm.preset("O2").sorted_names())

        def raising(error):
            def fail(*args, **kwargs):
                raise error
            return fail

        if failure == "constraint conflict":
            key = ("-fpartial-inlining",)  # missing its prerequisite
        elif failure == "CompilationError":
            monkeypatch.setattr(
                evaluator.compiler, "compile", raising(CompilationError("injected"))
            )
        elif failure == "emulation fault":
            monkeypatch.setattr(
                "repro.tuner.pipeline.run_program", raising(EmulationError("injected"))
            )
        elif failure == "fitness ValueError":
            evaluator._fitness = raising(ValueError("injected"))
        for lookups in (cold_lookups, warm_lookups):
            result = evaluator(key)
            assert not result.valid
            assert (result.fingerprint, result.code_size) == ("invalid", 0)
            assert result.fitness == -7.5
            assert (result.artifact_hits, result.artifact_misses) == lookups
            assert (result.artifact_store_hits, result.artifact_mesh_hits) == (0, 0)
            assert result.score_seconds == 0.0
            assert (
                result.compile_seconds + result.measure_seconds
                <= result.elapsed_seconds
            )

    def test_stage_seconds_are_additive(self, llvm):
        """A candidate's stages run back to back in one thread, so over a
        serial run compile + measure + score seconds fit inside the wall
        clock.

        Deliberately *not* asserted for ``dispatch="process"``: workers
        each attribute their own wall clock, so their stage seconds
        legitimately sum past the elapsed wall.
        """
        started = time.perf_counter()
        result, _tuner = tune(llvm)
        wall = time.perf_counter() - started
        stats = result.evaluation_stats
        assert stats.evaluated > 0 and stats.compile_seconds > 0
        assert (
            stats.compile_seconds + stats.measure_seconds + stats.score_seconds <= wall
        )


# ---------------------------------------------------------------------------
# tuner integration: parity, cache reuse, the best-image fast path
# ---------------------------------------------------------------------------

class TestTunerPipelineParity:
    def test_staged_serial_matches_monolithic(self, llvm):
        mono, _tuner = tune_reference(llvm)
        staged, _tuner = tune(llvm)
        assert staged.database.fingerprint() == mono.database.fingerprint()
        assert staged.best_flags.sorted_names() == mono.best_flags.sorted_names()
        assert [signature(r) for r in staged.database.records] == [
            signature(r) for r in mono.database.records
        ]
        assert staged.best_image.fingerprint() == mono.best_image.fingerprint()

    def test_staged_process_matches_monolithic_serial(self, llvm):
        mono, _tuner = tune_reference(llvm)
        staged, _tuner = tune(llvm, dispatch="process", workers=2)
        assert staged.database.fingerprint() == mono.database.fingerprint()

    @pytest.mark.slow
    def test_staged_process_four_workers_matches_monolithic_serial(self, llvm):
        mono, _tuner = tune_reference(llvm)
        staged, _tuner = tune(llvm, dispatch="process", workers=4)
        assert staged.database.fingerprint() == mono.database.fingerprint()
        assert staged.best_flags.sorted_names() == mono.best_flags.sorted_names()

    def test_unknown_pipeline_rejected(self, llvm):
        """The inert ``pipeline`` field accepts exactly ``"staged"``."""
        assert BinTunerConfig(pipeline="staged").pipeline == "staged"
        with pytest.raises(ValueError):
            BinTunerConfig(pipeline="quantum")
        with pytest.raises(ValueError, match="removed"):
            BinTunerConfig(pipeline="monolithic")


def count_compiles(monkeypatch, compiler):
    calls = []
    original = compiler.compile

    def counting_compile(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(compiler, "compile", counting_compile)
    return calls


class TestTunerCacheReuse:
    def test_best_image_served_from_cache_not_recompiled(self, llvm, monkeypatch):
        """run() compiles the O0 baseline and each constraint-clean candidate
        exactly once; reading the best image afterwards costs no further
        compile (a serial run's candidates are in this process's cache)."""
        calls = count_compiles(monkeypatch, llvm)
        result, _tuner = tune(llvm)
        constraints = ConstraintEngine(llvm.registry)
        compiled_candidates = sum(
            constraints.is_valid(FlagVector(llvm.registry, frozenset(record.flags)))
            for record in result.database.records
        )
        assert compiled_candidates > 0
        assert len(calls) == 1 + compiled_candidates
        best = max(result.database.records, key=lambda record: record.fitness)
        assert result.best_image.fingerprint() == best.fingerprint
        assert len(calls) == 1 + compiled_candidates

    def test_compare_levels_matches_and_caches(self, llvm, monkeypatch):
        staged_result, staged_tuner = tune(llvm)
        baseline = staged_result.baseline_image
        reference = reference_evaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline
        )
        levels = staged_tuner.compare_levels()
        assert set(levels) == {"O1", "O2", "O3", "Os"}
        for level, fitness in levels.items():
            assert fitness == reference(tuple(llvm.preset(level).sorted_names())).fitness
        calls = count_compiles(monkeypatch, llvm)
        staged_tuner.compare_levels()  # every preset is already an artifact
        assert calls == []

    def test_warm_rerun_hits_artifact_cache(self, llvm):
        cache = ArtifactCache()
        cold, _tuner = tune(llvm, cache=cache)
        warm, _tuner = tune(llvm, cache=cache)
        assert warm.database.fingerprint() == cold.database.fingerprint()
        stats = warm.evaluation_stats
        assert stats.artifact_hits > 0
        assert stats.artifact_hit_ratio == 1.0  # every stage was cached
        assert warm.evaluation_stats.evaluated == cold.evaluation_stats.evaluated

    def test_eviction_never_changes_results(self, llvm):
        unbounded, _tuner = tune(llvm, cache=ArtifactCache())
        tiny_cache = ArtifactCache(max_entries=2)
        bounded, _tuner = tune(llvm, cache=tiny_cache)
        assert tiny_cache.counters.snapshot()["evictions"] > 0
        assert bounded.database.fingerprint() == unbounded.database.fingerprint()
        assert bounded.best_image.fingerprint() == unbounded.best_image.fingerprint()


def pickled_copy_mapper(evaluator):
    """``mapper_factory`` of a remote dispatch: candidates are evaluated by a
    pickle round-trip copy of the evaluator — what a pool or fleet worker
    receives — and the orchestrator's own evaluator is never called."""
    return LocalMapper(pickle.loads(pickle.dumps(evaluator)))


class TestBuiltAtFirstUse:
    """The fitness is built by the first *score* in a process and the best
    image by its first *read*: an orchestrator that dispatches elsewhere
    holds no encoder and compiles nothing it was not asked for."""

    def test_remote_orchestrator_does_no_candidate_work(self, llvm, monkeypatch):
        fresh_process_state()
        result, tuner = tune(llvm, mapper_factory=pickled_copy_mapper)
        orchestrator_side = tuner.evaluation_engine().evaluator
        assert orchestrator_side._fitness is None
        assert orchestrator_side._score_stage is None
        calls = count_compiles(monkeypatch, llvm)
        best = max(result.database.records, key=lambda record: record.fitness)
        assert result.best_image.fingerprint() == best.fingerprint
        assert len(calls) == 1  # compiled on the "worker": a miss here
        assert result.best_image is result.best_image
        assert len(calls) == 1
        # still no fitness: cached_image / peek never build one
        assert orchestrator_side._fitness is None
        reference, _tuner = tune_reference(llvm)
        assert result.database.fingerprint() == reference.database.fingerprint()
        assert result.best_image.fingerprint() == reference.best_image.fingerprint()

    @pytest.mark.parametrize("route", ["serial", "process", "pickled", "score_flags"])
    def test_unknown_compressor_is_an_error_not_a_penalty(self, llvm, route):
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            compressor="zstd", artifact_cache=ArtifactCache(),
        )
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2")]
        with pytest.raises(ValueError, match="unknown compressor"):
            if route == "score_flags":
                evaluator.score_flags(keys[0])
            elif route == "pickled":
                pickled_copy_mapper(evaluator).map(keys)
            else:
                with SharedWorkerPool(route, 2) as pool:
                    pool.mapper(evaluator).map(keys)

    def test_unbuildable_fitness_is_an_error_not_a_penalty(self, llvm, monkeypatch):
        """The compile stage accepted the configuration, the fitness
        constructor did not: its ``ValueError`` is raised outside the
        domain-error ``try`` and never becomes an ``INVALID_FITNESS`` record."""
        def refuse(*args, **kwargs):
            raise ValueError("fitness refused its configuration")

        monkeypatch.setattr("repro.tuner.pipeline.make_fitness", refuse)
        tuner = BinTuner(
            llvm, BuildSpec(name="tiny", source=TINY_SOURCE),
            BinTunerConfig(max_iterations=6, ga=GAParameters(population_size=4, seed=9)),
        )
        with pytest.raises(ValueError, match="refused"):
            tuner.run()
        assert len(tuner.database) == 0
        with pytest.raises(ValueError, match="refused"):
            tuner.compare_levels(["O1"])

    def test_eight_racing_threads_build_one_fitness(self, llvm, monkeypatch):
        """Any thread may call an evaluator: when the first scores race,
        exactly one of them may compress the baseline."""
        from repro.difftools.ncd import _COMPRESSORS

        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        key = tuple(llvm.preset("O2").sorted_names())
        cache = ArtifactCache()
        common = dict(compiler=llvm, source=TINY_SOURCE, name="tiny",
                      baseline=baseline, artifact_cache=cache)
        expected = StagedCandidateEvaluator(**common)(key)  # warms the compile
        baseline_compressions = []
        plain_lzma = _COMPRESSORS["lzma"]

        def counting_lzma(data):
            if data == baseline.text:
                baseline_compressions.append(threading.get_ident())
                time.sleep(0.05)  # hold the check-then-set window open
            return plain_lzma(data)

        monkeypatch.setitem(_COMPRESSORS, "lzma", counting_lzma)
        evaluator = StagedCandidateEvaluator(**common)
        barrier = threading.Barrier(8)
        seen, results, errors = [], [], []

        def race():
            try:
                barrier.wait(timeout=30)
                results.append(evaluator(key))
                seen.append(evaluator.fitness_function())
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=race, daemon=True) for _ in range(8)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not errors and not any(thread.is_alive() for thread in threads)
        assert len(baseline_compressions) == 1
        assert len(seen) == 8 and all(fitness is seen[0] for fitness in seen)
        assert {result.fitness for result in results} == {expected.fitness}


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------

class TestCampaignPipeline:
    def _campaign(self, artifact_cache=None, **config_kwargs):
        config = CampaignConfig(
            tuner=BinTunerConfig(
                max_iterations=12, ga=GAParameters(population_size=6, seed=9),
                stall_window=10,
            ),
            **config_kwargs,
        )
        return Campaign(JOBS, config, spec_provider=tiny_spec,
                        artifact_cache=artifact_cache)

    def test_staged_campaign_matches_monolithic(self):
        """The same campaign (warm starts and all) with every candidate
        evaluated by the oracle, injected through ``run(pool=...)``."""
        from repro.campaign import SharedWorkerPool

        oracle_pool = SharedWorkerPool()  # serial; only its mapper is swapped
        oracle_pool.mapper = reference_mapper
        mono = self._campaign().run(pool=oracle_pool)
        staged = self._campaign().run()
        assert staged.database.fingerprint() == mono.database.fingerprint()
        assert staged.artifact_cache_stats["misses"] > 0

    def test_eviction_under_warm_started_campaign(self):
        """A 2-entry campaign cache thrashes constantly (warm starts and all)
        yet the database is identical to the generously cached run."""
        roomy = self._campaign(warm_start=True).run()
        tight = self._campaign(artifact_cache=ArtifactCache(2), warm_start=True).run()
        assert tight.artifact_cache_stats["evictions"] > 0
        assert tight.database.fingerprint() == roomy.database.fingerprint()

    def test_evaluation_stats_survive_checkpoint_manifest(self, tmp_path):
        first = self._campaign(checkpoint_dir=tmp_path / "ckpt").run()
        resumed = self._campaign(checkpoint_dir=tmp_path / "ckpt").run()
        assert all(program.resumed for program in resumed.programs)
        assert [p.job for p in resumed.programs] == [p.job for p in first.programs]
        for program, live in zip(resumed.programs, first.programs):
            stats = program.evaluation_stats
            assert stats is not None and stats.evaluated > 0
            assert stats.evaluated == live.evaluation_stats.evaluated
            assert stats.artifact_misses == live.evaluation_stats.artifact_misses
        assert resumed.database.fingerprint() == first.database.fingerprint()


# ---------------------------------------------------------------------------
# distributed parity (loopback-gated, slow: 4 worker threads)
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.skipif(not loopback_available(), reason="no AF_INET loopback in this sandbox")
def test_staged_distributed_four_workers_matches_monolithic_serial(llvm):
    mono, _tuner = tune_reference(llvm)
    staged, _tuner = tune(llvm, dispatch="distributed", remote_workers=4)
    assert staged.database.fingerprint() == mono.database.fingerprint()
    assert staged.best_flags.sorted_names() == mono.best_flags.sorted_names()


# ---------------------------------------------------------------------------
# the disk store behind the cache: worker rehydration + pool parity
# ---------------------------------------------------------------------------

def tune_with_store(
    llvm,
    store_dir,
    ga_seed=9,
    population=6,
    warm_start=(),
    dispatch="serial",
    workers=1,
    store_max_bytes=None,
    max_iterations=12,
    stall_window=10,
    remote_workers=0,
):
    config = BinTunerConfig(
        max_iterations=max_iterations,
        ga=GAParameters(population_size=population, seed=ga_seed),
        stall_window=stall_window,
        warm_start=warm_start,
    )
    result, _tuner = run_tuner(
        llvm, BuildSpec(name="tiny", source=TINY_SOURCE), config, dispatch, workers,
        remote_workers,
        artifact_cache=ArtifactCache().ensure_store(store_dir, store_max_bytes),
    )
    return result


class TestStoreBackedEvaluator:
    def test_fresh_worker_process_is_warm_from_store(self, llvm, tmp_path, monkeypatch):
        """The worker-side fix: the process-global cache only shares state
        within one interpreter, so a *fresh* worker process used to start
        cold.  With the store's directory derived into the evaluator blob,
        the rehydrated evaluator consults the disk tier before compiling
        anything."""
        fresh_process_state()
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            artifact_cache=ArtifactCache().ensure_store(tmp_path / "store"),
        )
        key = tuple(llvm.preset("O2").sorted_names())
        original = evaluator(key)
        assert original.artifact_store_hits == 0  # cold: really compiled
        blob = pickle.dumps(evaluator)
        fresh_process_state()  # the next unpickle acts like a new interpreter
        clone = pickle.loads(blob)

        def recompile_is_a_bug(*_args, **_kwargs):
            raise AssertionError("fresh worker recompiled a stored configuration")

        monkeypatch.setattr(clone.compiler, "compile", recompile_is_a_bug)
        result = clone(key)
        assert (result.fitness, result.code_size, result.fingerprint, result.valid) == (
            original.fitness, original.code_size, original.fingerprint, original.valid
        )
        assert result.artifact_store_hits >= 1 and result.artifact_misses == 0

    def test_attach_store_repoints_at_a_worker_local_tier(self, llvm, tmp_path):
        """The distributed worker's ``--store-dir`` override: the
        orchestrator's path is replaced by the worker's own before any
        evaluation, so artifacts land in the local tier."""
        fresh_process_state()
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            artifact_cache=ArtifactCache().ensure_store(tmp_path / "orchestrator"),
        )
        clone = pickle.loads(pickle.dumps(evaluator))
        clone.attach_store(tmp_path / "worker-local")
        clone(tuple(llvm.preset("O1").sorted_names()))
        local = persistent_store(tmp_path / "worker-local")
        assert len(local) > 0
        # The foreign path was never even created, let alone written.
        assert not (tmp_path / "orchestrator").exists()

    def test_attach_store_none_detaches_the_disk_tier(self, llvm, tmp_path):
        """The worker's ``--no-store``: the orchestrator's baked-in path is
        dropped entirely — no local persistence, no foreign directories."""
        fresh_process_state()
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            artifact_cache=ArtifactCache().ensure_store(tmp_path / "orchestrator"),
        )
        clone = pickle.loads(pickle.dumps(evaluator))
        clone.attach_store(None)
        result = clone(tuple(llvm.preset("O1").sorted_names()))
        assert result.valid and result.artifact_store_hits == 0
        assert clone.artifact_cache.store is None
        assert not (tmp_path / "orchestrator").exists()

    def test_rehydration_keeps_the_owners_cache_sizing(self, llvm, tmp_path):
        """A worker sizes its shared cache and store from the owner's cache,
        not from defaults; ``attach_store`` moves the directory and keeps
        both bounds."""
        fresh_process_state()
        budget = 3 * 1024 * 1024
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline,
            artifact_cache=ArtifactCache(7).ensure_store(tmp_path / "d", max_bytes=budget),
        )
        blob = pickle.dumps(evaluator)
        fresh_process_state()
        clone = pickle.loads(blob)
        cache = clone.artifact_cache
        assert cache is shared_artifact_cache(store_dir=tmp_path / "d")
        assert cache.max_entries == 7
        assert cache.store.directory.resolve() == (tmp_path / "d").resolve()
        assert cache.store.max_bytes == budget
        clone.attach_store(tmp_path / "other")
        moved = clone.artifact_cache
        assert moved.max_entries == 7 and moved.store.max_bytes == budget
        assert moved.store.directory.resolve() == (tmp_path / "other").resolve()

    def test_eviction_of_the_memory_tier_falls_back_to_disk(self, llvm, tmp_path):
        """A 1-entry memory tier thrashes constantly; results still come
        from the store, not from recompilation, and stay identical."""
        fresh_process_state()
        reference = tune_with_store(llvm, tmp_path / "store")
        fresh_process_state()
        config = BinTunerConfig(
            max_iterations=12, ga=GAParameters(population_size=6, seed=9),
            stall_window=10,
        )
        tuner = BinTuner(
            llvm, BuildSpec(name="tiny", source=TINY_SOURCE), config,
            artifact_cache=ArtifactCache(1).ensure_store(tmp_path / "store"),
        )
        try:
            tiny_memory = tuner.run()
        finally:
            tuner.close()
        assert tiny_memory.database.fingerprint() == reference.database.fingerprint()
        assert tiny_memory.evaluation_stats.artifact_misses == 0
        assert tiny_memory.evaluation_stats.artifact_store_hits > 0


class TestStoreParityProperties:
    """The property-based harness: for randomized GA seeds, populations, and
    warm-start flag domains, serial == process == restart-warm == GC-evicted
    fingerprints, and a restart-warm run recompiles nothing."""

    @settings(max_examples=4, deadline=None, database=None)
    @given(data=st.data())
    def test_cold_warm_restart_and_gc_runs_are_identical(self, llvm, data):
        ga_seed = data.draw(st.integers(0, 2**16), label="ga_seed")
        population = data.draw(st.integers(4, 8), label="population")
        names = sorted(llvm.registry.flag_names())
        warm_start = tuple(
            tuple(sorted(set(subset)))
            for subset in data.draw(
                st.lists(
                    st.lists(st.sampled_from(names), min_size=1, max_size=4),
                    max_size=2,
                ),
                label="warm_start",
            )
        )
        knobs = dict(ga_seed=ga_seed, population=population, warm_start=warm_start,
                     max_iterations=10)
        root = Path(tempfile.mkdtemp(prefix="repro-store-prop-"))
        try:
            fresh_process_state()
            cold = tune_with_store(llvm, root / "store", **knobs)
            fingerprint = cold.database.fingerprint()

            # Restart-warm: a fresh process over the same store must be
            # bit-for-bit identical to the cold run and compile nothing.
            fresh_process_state()
            restarted = tune_with_store(llvm, root / "store", **knobs)
            assert restarted.database.fingerprint() == fingerprint
            stats = restarted.evaluation_stats
            assert stats.artifact_misses == 0
            assert stats.artifact_store_hits > 0
            assert stats.evaluated == cold.evaluation_stats.evaluated

            # A process pool over the same (now warm) store.
            fresh_process_state()
            pooled = tune_with_store(
                llvm, root / "store", dispatch="process", workers=2, **knobs
            )
            assert pooled.database.fingerprint() == fingerprint

            # A byte budget smaller than one entry: GC evicts mid-run,
            # constantly; eviction must never change any result.
            fresh_process_state()
            thrashed = tune_with_store(
                llvm, root / "tiny-store", store_max_bytes=1024, **knobs
            )
            assert thrashed.database.fingerprint() == fingerprint
            assert persistent_store(root / "tiny-store").counters.snapshot()["gc_evictions"] > 0
        finally:
            shutil.rmtree(root, ignore_errors=True)


@pytest.mark.slow
class TestStoreParitySlow:
    """Restart-warm parity on the multi-process pools (CI's determinism
    job): fresh worker processes must be served by the disk tier."""

    def test_process_pool_restart_warm_matches_cold(self, llvm, tmp_path):
        fresh_process_state()
        cold = tune_with_store(
            llvm, tmp_path / "store", dispatch="process", workers=4, max_iterations=16
        )
        fresh_process_state()
        restarted = tune_with_store(
            llvm, tmp_path / "store", dispatch="process", workers=4, max_iterations=16
        )
        assert restarted.database.fingerprint() == cold.database.fingerprint()
        stats = restarted.evaluation_stats
        assert stats.artifact_misses == 0 and stats.artifact_store_hits > 0

    @pytest.mark.skipif(not loopback_available(),
                        reason="no AF_INET loopback in this sandbox")
    def test_distributed_restart_warm_matches_cold(self, llvm, tmp_path):
        def run():
            return tune_with_store(
                llvm, tmp_path / "store", dispatch="distributed", remote_workers=2,
                max_iterations=16, stall_window=12,
            )

        fresh_process_state()
        cold = run()
        fresh_process_state()  # worker threads shared this process's caches
        restarted = run()
        assert restarted.database.fingerprint() == cold.database.fingerprint()
        stats = restarted.evaluation_stats
        assert stats.artifact_misses == 0 and stats.artifact_store_hits > 0
