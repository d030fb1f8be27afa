"""Tests for the generation-batched evaluation engine and the cached NCD
fitness: batch dedup, submission-order recording, the mapper contract on
every local pool (inline, and the forked local fleet), serial/process-pool
equivalence, and exact agreement between cached and uncached NCD."""

from __future__ import annotations

import os
import pickle
import weakref

import pytest
from _helpers import run_tuner

from repro.backend.binary import BinaryImage, Section
from repro.campaign import SharedWorkerPool
from repro.difftools import CachedNCDFitness, NCDFitness
from repro.opt.flags import FlagVector, build_gcc_registry
from repro.tuner import (
    BinTuner,
    BinTunerConfig,
    BuildSpec,
    CandidateResult,
    EvaluationEngine,
    GAParameters,
    LocalMapper,
    StagedCandidateEvaluator,
    TuningDatabase,
)
from repro.distrib.mapper import DistributedMapper
from repro.tuner.evaluation import EVALUATOR_CACHE_LIMIT
from repro.tuner.pipeline import INVALID_FITNESS

TINY_SOURCE = """
int acc[16];
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { acc[i % 16] = i * 3; s += acc[i % 16]; } return s; }
int pick(int x) { switch (x) { case 0: return 5; case 1: return 9; case 2: return 13; default: return 1; } }
int main() { int s = work(40); int i; for (i = 0; i < 6; i++) s += pick(i % 4); print_int(s); return s % 101; }
"""


class _ExplodingEvaluator:
    """Simulates a programming error inside a worker (must be picklable)."""

    def __call__(self, key):
        raise TypeError("injected bug")


class _CountingEvaluator:
    """Fake candidate evaluator: deterministic score, call counting."""

    def __init__(self):
        self.calls = []

    def __call__(self, key):
        self.calls.append(key)
        return CandidateResult(
            fitness=float(len(key)),
            code_size=10 * len(key),
            fingerprint=f"fp-{len(key)}",
            valid=True,
            elapsed_seconds=0.001,
        )


@pytest.fixture
def registry():
    return build_gcc_registry()


@pytest.fixture
def vectors(registry):
    names = registry.flag_names()
    return [FlagVector(registry, frozenset(names[:i])) for i in range(1, 6)]


class TestEvaluationEngine:
    def test_scores_align_with_batch_order(self, vectors):
        evaluator = _CountingEvaluator()
        engine = EvaluationEngine(evaluator)
        scores = engine.evaluate_batch(vectors)
        assert scores == [float(len(v)) for v in vectors]

    def test_intra_batch_duplicates_evaluated_once(self, vectors):
        evaluator = _CountingEvaluator()
        engine = EvaluationEngine(evaluator)
        batch = [vectors[0], vectors[1], vectors[0], vectors[1], vectors[0]]
        scores = engine.evaluate_batch(batch)
        assert len(evaluator.calls) == 2
        assert scores[0] == scores[2] == scores[4]
        assert scores[1] == scores[3]
        assert engine.stats.intra_batch_hits == 3
        assert engine.stats.evaluated == 2

    def test_database_fingerprints_never_reevaluated(self, vectors):
        """A flag key already in the TuningDatabase is never recompiled."""
        evaluator = _CountingEvaluator()
        engine = EvaluationEngine(evaluator)
        engine.evaluate_batch(vectors[:3])
        calls_before = len(evaluator.calls)
        scores = engine.evaluate_batch(vectors)  # first three are warm
        assert len(evaluator.calls) == calls_before + 2
        assert engine.stats.database_hits == 3
        assert scores[:3] == [float(len(v)) for v in vectors[:3]]

    def test_prewarmed_database_is_respected(self, vectors):
        """Dedup extends to records made before the engine existed."""
        evaluator = _CountingEvaluator()
        database = TuningDatabase()
        EvaluationEngine(_CountingEvaluator(), database=database).evaluate_batch(vectors)
        engine = EvaluationEngine(evaluator, database=database)
        engine.evaluate_batch(vectors)
        assert evaluator.calls == []
        assert engine.stats.database_hits == len(vectors)

    def test_records_in_submission_order_with_generations(self, vectors):
        engine = EvaluationEngine(_CountingEvaluator())
        engine.evaluate_batch([vectors[2], vectors[0]])
        engine.evaluate_batch([vectors[1]])
        records = engine.database.records
        assert [r.iteration for r in records] == [1, 2, 3]
        assert [r.flags for r in records] == [
            tuple(vectors[2].sorted_names()),
            tuple(vectors[0].sorted_names()),
            tuple(vectors[1].sorted_names()),
        ]
        assert [r.generation for r in records] == [0, 0, 1]

    def test_duplicate_of_database_hit_counts_as_intra_batch(self, vectors):
        evaluator = _CountingEvaluator()
        engine = EvaluationEngine(evaluator)
        engine.evaluate_batch([vectors[0]])
        engine.evaluate_batch([vectors[0], vectors[0], vectors[0]])
        assert engine.stats.database_hits == 1  # one lookup per batch, not three
        assert engine.stats.intra_batch_hits == 2
        assert len(evaluator.calls) == 1

    def test_single_evaluate_is_a_batch_of_one(self, vectors):
        engine = EvaluationEngine(_CountingEvaluator())
        score = engine.evaluate(vectors[3])
        assert score == float(len(vectors[3]))
        assert len(engine.database) == 1

    def test_without_a_pool_the_engine_evaluates_inline(self):
        """A parallel substrate only ever comes from a SharedWorkerPool: the
        engine's own default is the inline mapper, which evaluates in the
        calling process and takes no dispatch mode to be anything else."""
        engine = EvaluationEngine(_PidEcho())
        assert isinstance(engine.mapper, LocalMapper)
        assert {r.code_size for r in engine.mapper.map(MAPPER_KEYS)} == {os.getpid()}
        with pytest.raises(TypeError):
            LocalMapper(_CountingEvaluator(), "process", 2)


class _PidEcho:
    """Picklable fake: every result names the process that evaluated it, so
    the partition is observable from the other side of a local fleet."""

    def __call__(self, key):
        return CandidateResult(fitness=float(len(key)), code_size=os.getpid(),
                               fingerprint="pid", valid=True, elapsed_seconds=0.0)


class _DiesOutsideOwner:
    """Kills any process but its owner's that evaluates it (a crashed local
    session); in the owner it answers like :class:`_CountingEvaluator`."""

    def __init__(self):
        self.owner = os.getpid()

    def __call__(self, key):
        if os.getpid() != self.owner:
            os._exit(13)
        return _CountingEvaluator()(key)


#: Live :class:`_Census` instances of this process.
_CENSUS = weakref.WeakSet()


class _Census:
    """Answers with the number of its kind alive in the evaluating process:
    the size of a worker session's evaluator cache."""

    def __init__(self):
        self.counted = True  # a state to unpickle, so __setstate__ runs
        _CENSUS.add(self)

    def __setstate__(self, state):
        self.__dict__.update(state)
        _CENSUS.add(self)

    def __call__(self, key):
        return CandidateResult(fitness=float(len(key)), code_size=len(_CENSUS),
                               fingerprint="census", valid=True, elapsed_seconds=0.0)


MAPPER_KEYS = [tuple(f"-f{i}" for i in range(size)) for size in range(1, 9)]


@pytest.fixture(params=("serial", "process"))
def local_mapper(request):
    """``(kind, pool, build)``: ``build(evaluator)`` is a
    :class:`SharedWorkerPool`'s ``mapper``, which borrows the pool's
    substrate."""
    kind = request.param
    workers = 1 if kind == "serial" else 3  # "serial" with more means "process"
    with SharedWorkerPool(dispatch=kind, workers=workers) as pool:
        yield kind, pool, pool.mapper


class TestLocalMapperContract:
    """Both local pools — inline, and the forked local fleet — keep the one
    mapper contract: one result per key, in submission order."""

    def test_submission_order_and_chunk_partition(self, local_mapper):
        kind, pool, build = local_mapper
        mapper = build(_PidEcho())
        assert isinstance(mapper, LocalMapper if kind == "serial" else DistributedMapper)
        assert len(pool.pids) == (0 if kind == "serial" else 3)
        results = mapper.map(MAPPER_KEYS)
        assert [r.fitness for r in results] == [float(len(key)) for key in MAPPER_KEYS]
        # Inline, the batch is one chunk; a fleet deals it round-robin over
        # its three sessions, each in its own forked process.
        pids = [r.code_size for r in results]
        if kind == "serial":
            assert set(pids) == {os.getpid()}
        else:
            assert pids == [pids[index % 3] for index in range(len(pids))]
            assert sorted(pids[:3]) == sorted(pool.pids)
        assert mapper.map([]) == []

    def test_dead_local_sessions_end_in_the_serial_result(self, registry):
        """Every session that evaluates the batch dies: each is a lost
        worker, and the chunk ends where no worker is left — in the owner,
        on the inline result."""
        evaluator = _DiesOutsideOwner()
        names = registry.flag_names()
        batch = [FlagVector(registry, frozenset(names[:i])) for i in range(1, 4)]
        serial = EvaluationEngine(_CountingEvaluator()).evaluate_batch(batch)
        with SharedWorkerPool(dispatch="process", workers=2) as pool:
            mapper = pool.mapper(evaluator)
            engine = EvaluationEngine(evaluator, mapper=mapper)
            assert engine.evaluate_batch(batch) == serial
            assert mapper.fallback_evaluations == len(batch)
            assert pool.coordinator.workers() == []
            assert [row["health"] for row in pool.fleet_status()] == ["lost", "lost"]

    def test_serial_with_several_workers_means_the_process_pool(self):
        with SharedWorkerPool("serial", 2) as pool:
            assert pool.dispatch == "process" and len(pool.pids) == 2
            assert isinstance(pool.mapper(_PidEcho()), DistributedMapper)

    def test_worker_side_evaluator_cache_is_bounded(self):
        """A campaign's evaluators pass through one worker session; it keeps
        at most EVALUATOR_CACHE_LIMIT of them and re-reads an evicted one
        from the blob the coordinator re-sends."""
        with SharedWorkerPool(dispatch="process", workers=1) as pool:
            mappers = [pool.mapper(_Census()) for _ in range(EVALUATOR_CACHE_LIMIT + 2)]
            assert len({mapper.evaluator_id for mapper in mappers}) == len(mappers)
            held = [mapper.map(MAPPER_KEYS[:2])[0].code_size for mapper in mappers]
            assert held[-1] == EVALUATOR_CACHE_LIMIT
            evicted = mappers[0].map(MAPPER_KEYS[:2])
            assert [r.fitness for r in evicted] == [1.0, 2.0]
            assert {r.code_size for r in evicted} == {EVALUATOR_CACHE_LIMIT}
            assert mappers[0].fallback_evaluations == 0


class TestTunerCandidateEvaluator:
    """The tuner's candidate evaluator — :class:`StagedCandidateEvaluator`,
    the only one — as a plain ``FlagKey -> CandidateResult`` callable."""

    @pytest.fixture(scope="class")
    def evaluator(self, llvm):
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        return StagedCandidateEvaluator(
            compiler=llvm,
            source=TINY_SOURCE,
            name="tiny",
            baseline=baseline,
        )

    def test_valid_candidate_scores_positive(self, llvm, evaluator):
        result = evaluator(tuple(llvm.preset("O2").sorted_names()))
        assert result.valid and result.fitness > 0.0
        assert result.fingerprint != "invalid"

    def test_conflicting_flags_score_penalty(self, evaluator):
        result = evaluator(("-fpartial-inlining",))  # missing prerequisite
        assert not result.valid
        assert result.fitness == INVALID_FITNESS
        assert result.fingerprint == "invalid"

    def test_survives_pickling(self, llvm, evaluator):
        clone = pickle.loads(pickle.dumps(evaluator))
        key = tuple(llvm.preset("O1").sorted_names())
        assert clone(key).fitness == evaluator(key).fitness

    def test_programming_errors_propagate(self, llvm, monkeypatch):
        baseline = llvm.compile_level(TINY_SOURCE, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_SOURCE, name="tiny", baseline=baseline
        )

        def broken_compile(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(evaluator.compiler, "compile", broken_compile)
        with pytest.raises(TypeError):
            evaluator(tuple(llvm.preset("O1").sorted_names()))


class TestCachedNCDFitness:
    @pytest.mark.parametrize("compressor", ["lzma", "zlib", "bz2"])
    def test_matches_uncached_ncd_exactly(self, sample_images_llvm, compressor):
        baseline = sample_images_llvm["O0"]
        plain = NCDFitness(baseline, compressor=compressor)
        cached = CachedNCDFitness(baseline, compressor=compressor)
        for level in ("O0", "O1", "O2", "O3", "Os"):
            candidate = sample_images_llvm[level]
            assert cached(candidate) == plain(candidate)
            assert cached(candidate) == plain(candidate)  # warm path too

    @pytest.mark.parametrize("compressor", ["lzma", "zlib", "bz2"])
    def test_empty_text_sections(self, compressor):
        empty = BinaryImage(name="empty", sections={".text": Section(".text", b"")})
        nonempty = BinaryImage(name="x", sections={".text": Section(".text", b"\x90" * 64)})
        for baseline, candidate in [
            (empty, empty),
            (empty, nonempty),
            (nonempty, empty),
        ]:
            plain = NCDFitness(baseline, compressor=compressor)
            cached = CachedNCDFitness(baseline, compressor=compressor)
            assert cached(candidate) == plain(candidate)

    def test_cache_hits_are_counted_and_bounded(self, sample_images_llvm):
        cached = CachedNCDFitness(sample_images_llvm["O0"], max_entries=2)
        # O3 evicts O1 (LRU), so the fourth call re-misses; the fifth hits.
        for level in ("O1", "O2", "O3", "O1", "O1"):
            cached(sample_images_llvm[level])
        assert cached.hits == 1 and cached.misses == 4
        assert 0.0 < cached.cache_hit_ratio < 1.0
        assert len(cached._cache) <= 2

    def test_eviction_preserves_values(self, sample_images_llvm):
        baseline = sample_images_llvm["O0"]
        plain = NCDFitness(baseline)
        cached = CachedNCDFitness(baseline, max_entries=1)
        for level in ("O1", "O2", "O1", "O2"):  # every call evicts the other
            assert cached(sample_images_llvm[level]) == plain(sample_images_llvm[level])

    def test_unknown_compressor_rejected(self, sample_images_llvm):
        with pytest.raises(ValueError):
            CachedNCDFitness(sample_images_llvm["O0"], compressor="zstd")

    def test_survives_pickling(self, sample_images_llvm):
        cached = CachedNCDFitness(sample_images_llvm["O0"])
        value = cached(sample_images_llvm["O3"])
        clone = pickle.loads(pickle.dumps(cached))
        assert clone(sample_images_llvm["O3"]) == value
        assert clone.hits == 0 and clone.misses == 1  # cache state is per-process


def _tune(llvm, strategy, dispatch, workers, max_iterations=16):
    spec = BuildSpec(name="tiny", source=TINY_SOURCE)
    config = BinTunerConfig(
        max_iterations=max_iterations,
        ga=GAParameters(population_size=6, seed=9),
        stall_window=12,
        search_strategy=strategy,
    )
    return run_tuner(llvm, spec, config, dispatch, workers)[0]


class TestSerialParallelEquivalence:
    """Same seed => identical results regardless of worker count."""

    def test_result_stats_are_per_run(self, llvm):
        spec = BuildSpec(name="tiny", source=TINY_SOURCE)
        config = BinTunerConfig(
            max_iterations=12, ga=GAParameters(population_size=6, seed=9), stall_window=8
        )
        tuner = BinTuner(llvm, spec, config)
        first = tuner.run()
        second = tuner.run()  # warm database: everything is a cache hit
        assert first.evaluation_stats.evaluated > 0
        # The identical seeded search replays against a warm database ...
        assert second.evaluation_stats.requested == first.evaluation_stats.requested
        assert second.evaluation_stats.evaluated == 0
        # ... and the counters describe this run only, not the engine lifetime.
        assert second.evaluation_stats.cache_hits == second.evaluation_stats.requested

    @pytest.mark.parametrize("strategy", ["genetic", "hillclimb", "random"])
    def test_serial_runs_are_reproducible(self, llvm, strategy):
        first = _tune(llvm, strategy, "serial", 1)
        second = _tune(llvm, strategy, "serial", 1)
        assert first.best_flags.sorted_names() == second.best_flags.sorted_names()
        assert first.ncd_history() == second.ncd_history()

    @pytest.mark.slow
    @pytest.mark.parametrize("strategy", ["genetic", "hillclimb", "random"])
    def test_four_workers_match_serial(self, llvm, strategy):
        serial = _tune(llvm, strategy, "serial", 1)
        parallel = _tune(llvm, strategy, "process", 4)
        assert serial.best_flags.sorted_names() == parallel.best_flags.sorted_names()
        assert serial.best_fitness == parallel.best_fitness
        assert serial.ncd_history() == parallel.ncd_history()
        assert [r.flags for r in serial.database.records] == [
            r.flags for r in parallel.database.records
        ]
        for result in (serial, parallel):
            stats = result.evaluation_stats
            assert stats.evaluated + stats.cache_hits == stats.requested
            if strategy == "genetic":
                # Elitism resubmits the elites every generation, so dedup
                # always saves work.
                assert stats.cache_hits > 0

    @pytest.mark.slow
    def test_worker_pool_propagates_programming_errors(self, registry):
        evaluator = _ExplodingEvaluator()
        with SharedWorkerPool(dispatch="process", workers=2) as pool:
            engine = EvaluationEngine(evaluator, mapper=pool.mapper(evaluator))
            with pytest.raises(TypeError):
                engine.evaluate(FlagVector(registry, frozenset()))

    @pytest.mark.slow
    def test_run_leaves_the_borrowed_pool_open(self, llvm):
        """A standalone tuner on a borrowed process pool answers ``evaluate``
        after ``run()`` on the very same fleet: the run never closes
        what it does not own."""
        spec = BuildSpec(name="tiny", source=TINY_SOURCE)
        config = BinTunerConfig(
            max_iterations=12, ga=GAParameters(population_size=6, seed=9), stall_window=8
        )
        with SharedWorkerPool(dispatch="process", workers=2) as pool:
            tuner = BinTuner(llvm, spec, config, mapper_factory=pool.mapper)
            result = tuner.run()
            fleet = pool.coordinator
            assert fleet is not None and result.evaluation_stats.evaluated > 0
            served = sum(row["batches"] for row in pool.fleet_status())
            unseen = next(
                FlagVector(llvm.registry, frozenset({name}))
                for name in llvm.registry.flag_names()
                if tuner.database.lookup((name,)) is None
            )
            evaluated = tuner.evaluation_engine().stats.evaluated
            assert tuner.evaluate(unseen) == tuner.evaluate(unseen)
            assert tuner.evaluation_engine().stats.evaluated == evaluated + 1
            assert pool.coordinator is fleet
            assert sum(row["batches"] for row in pool.fleet_status()) == served + 1
