"""Tests for the generation-batched evaluation engine and the cached NCD
fitness: batch dedup, submission-order recording, the one in-process
mapper's contract on every substrate, serial/process-pool equivalence, and
exact agreement between cached and uncached NCD."""

from __future__ import annotations

import os
import pickle

import pytest

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
    MapperTransportError,
    StagedCandidateEvaluator,
    TuningDatabase,
    make_mapper,
)
from repro.tuner import evaluation
from repro.tuner.evaluation import EVALUATOR_CACHE_LIMIT, split_into_chunks

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


class _ChunkEcho:
    """Picklable batch-aware fake: every result names the chunk it rode in,
    so the partition is observable from the other side of a process pool."""

    def __call__(self, key):
        return self.evaluate_batch([key])[0]

    def evaluate_batch(self, keys):
        chunk = repr([tuple(key) for key in keys])
        return [
            CandidateResult(fitness=float(len(key)), code_size=os.getpid(),
                            fingerprint=chunk, valid=True, elapsed_seconds=0.0)
            for key in keys
        ]


class _DiesInWorker:
    """Kills whichever process evaluates it (a crashed pool worker)."""

    def __call__(self, key):
        os._exit(13)


def _worker_evaluator_cache_size():
    return len(evaluation._POOL_EVALUATORS)


MAPPER_KEYS = [tuple(f"-f{i}" for i in range(size)) for size in range(1, 9)]


@pytest.fixture(
    params=[(kind, owner) for kind in LocalMapper.KINDS for owner in ("owned", "borrowed")],
    ids=lambda param: "-".join(param),
)
def local_mapper(request):
    """``(kind, pool, build)``: ``build(evaluator)`` is :func:`make_mapper`
    (the mapper owns its executor) or a :class:`SharedWorkerPool`'s
    ``mapper`` (it borrows the pool's); ``pool`` is ``None`` when owned."""
    kind, owner = request.param
    workers = 1 if kind == "serial" else 3  # "serial" with more means "process"
    pool = SharedWorkerPool(dispatch=kind, workers=workers) if owner == "borrowed" else None
    mappers = []

    def build(evaluator):
        mapper = (
            pool.mapper(evaluator) if pool is not None
            else make_mapper(evaluator, executor=kind, workers=workers)
        )
        mappers.append(mapper)
        return mapper

    yield kind, pool, build
    for mapper in mappers:
        mapper.close()
    if pool is not None:
        pool.close()


class TestLocalMapperContract:
    """One class serves inline, thread and process dispatch, owning its
    executor or borrowing a pool's: the same contract on all six."""

    def test_submission_order_and_chunk_partition(self, local_mapper):
        kind, _pool, build = local_mapper
        mapper = build(_ChunkEcho())
        assert isinstance(mapper, LocalMapper) and mapper.kind == kind
        assert mapper.workers == (1 if kind == "serial" else 3)
        assert (mapper.evaluator_id is not None) == (kind == "process")
        results = mapper.map(MAPPER_KEYS)
        assert [r.fitness for r in results] == [float(len(key)) for key in MAPPER_KEYS]
        assert [r.fingerprint for r in results] == [
            repr(chunk)
            for chunk in split_into_chunks(MAPPER_KEYS, mapper.workers)
            for _key in chunk
        ]
        assert ({r.code_size for r in results} == {os.getpid()}) == (kind != "process")
        assert mapper.map([]) == []

    def test_close_respects_ownership_and_map_reopens(self, local_mapper):
        kind, pool, build = local_mapper
        mapper = build(_ChunkEcho())
        first = mapper.map(MAPPER_KEYS)
        mapper.close()
        if pool is not None and kind != "serial":
            borrowed = pool._pool
            assert borrowed is not None  # the pool's executor survived close()
        assert mapper._owned_executor is None
        again = mapper.map(MAPPER_KEYS)  # BinTuner.run() closed; evaluate() reopens
        assert [r.fingerprint for r in again] == [r.fingerprint for r in first]
        if kind != "serial":
            assert (mapper._owned_executor is None) == (pool is not None)
        if pool is not None and kind != "serial":
            assert pool._pool is borrowed
        mapper.close()
        mapper.close()  # idempotent

    @pytest.mark.parametrize("owner", ["owned", "borrowed"])
    def test_broken_pool_is_a_transport_error(self, owner, registry):
        evaluator = _DiesInWorker()
        pool = SharedWorkerPool(dispatch="process", workers=2) if owner == "borrowed" else None
        mapper = (
            pool.mapper(evaluator) if pool is not None
            else make_mapper(evaluator, executor="process", workers=2)
        )
        engine = EvaluationEngine(evaluator, mapper=mapper)
        names = registry.flag_names()
        batch = [FlagVector(registry, frozenset(names[:i])) for i in range(1, 4)]
        try:
            with pytest.raises(MapperTransportError) as caught:
                engine.evaluate_batch(batch)
        finally:
            mapper.close()
            if pool is not None:
                pool.close()
        assert caught.value.evaluator_id == mapper.evaluator_id
        assert list(caught.value.keys) == [tuple(v.sorted_names()) for v in batch]

    def test_serial_with_several_workers_means_the_process_pool(self):
        assert make_mapper(_ChunkEcho(), executor="serial", workers=2).kind == "process"
        with SharedWorkerPool("serial", 2) as pool:
            assert pool.mapper(_ChunkEcho()).kind == "process"

    def test_worker_side_evaluator_cache_is_bounded(self):
        """A campaign's evaluators pass through one pool worker; it keeps at
        most EVALUATOR_CACHE_LIMIT of them and re-reads an evicted one from
        the blob every task carries."""
        with SharedWorkerPool(dispatch="process", workers=1) as pool:
            mappers = [pool.mapper(_ChunkEcho()) for _ in range(EVALUATOR_CACHE_LIMIT + 2)]
            assert len({mapper.evaluator_id for mapper in mappers}) == len(mappers)
            for mapper in mappers:
                mapper.map(MAPPER_KEYS[:2])
            executor = pool._ensure_executor()
            assert executor.submit(_worker_evaluator_cache_size).result() == (
                EVALUATOR_CACHE_LIMIT
            )
            evicted = mappers[0].map(MAPPER_KEYS[:2])
            assert [r.fitness for r in evicted] == [1.0, 2.0]
            assert executor.submit(_worker_evaluator_cache_size).result() == (
                EVALUATOR_CACHE_LIMIT
            )


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
        assert result.fitness == evaluator.invalid_fitness
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


def _tune(llvm, strategy, executor, workers, max_iterations=16):
    spec = BuildSpec(name="tiny", source=TINY_SOURCE)
    config = BinTunerConfig(
        max_iterations=max_iterations,
        ga=GAParameters(population_size=6, seed=9),
        stall_window=12,
        search_strategy=strategy,
        executor=executor,
        workers=workers,
    )
    tuner = BinTuner(llvm, spec, config)
    try:
        return tuner.run()
    finally:
        tuner.close()


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

    @pytest.mark.slow
    def test_worker_pool_propagates_programming_errors(self, registry):
        engine = EvaluationEngine(_ExplodingEvaluator(), executor="process", workers=2)
        try:
            with pytest.raises(TypeError):
                engine.evaluate(FlagVector(registry, frozenset()))
        finally:
            engine.close()
