"""Tests for BinTuner: constraints, search engines, database, tuning runs,
potency analysis."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.opt.flags import FlagVector, build_gcc_registry, build_llvm_registry
from repro.tuner import (
    BinTuner,
    BinTunerConfig,
    BuildSpec,
    ConstraintEngine,
    ConstraintViolation,
    GAParameters,
    GeneticAlgorithm,
    HillClimber,
    IterationRecord,
    RandomSearch,
    TuningDatabase,
    flag_potency,
    jaccard_with_level,
)


@pytest.fixture(scope="module")
def registry():
    return build_gcc_registry()


@pytest.fixture(scope="module")
def engine(registry):
    return ConstraintEngine(registry)


TINY_SOURCE = """
int acc[16];
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { acc[i % 16] = i * 3; s += acc[i % 16]; } return s; }
int pick(int x) { switch (x) { case 0: return 5; case 1: return 9; case 2: return 13; default: return 1; } }
int main() { int s = work(40); int i; for (i = 0; i < 6; i++) s += pick(i % 4); print_int(s); return s % 101; }
"""


class TestConstraints:
    def test_presets_are_valid(self, registry, engine):
        for level in registry.presets:
            assert engine.is_valid(registry.preset(level))

    def test_missing_prerequisite_detected(self, registry, engine):
        vector = FlagVector(registry, frozenset({"-fpartial-inlining"}))
        assert not engine.is_valid(vector)
        assert any("requires" in problem for problem in engine.violations(vector))

    def test_conflict_detected(self, registry, engine):
        vector = FlagVector(registry, frozenset({"-fconserve-stack", "-falign-loops"}))
        assert any("conflicts" in problem for problem in engine.violations(vector))

    def test_check_raises_on_invalid(self, registry, engine):
        with pytest.raises(ConstraintViolation):
            engine.check(FlagVector(registry, frozenset({"-fpartial-inlining"})))

    def test_repair_adds_prerequisites(self, registry, engine):
        repaired = engine.repair(FlagVector(registry, frozenset({"-fpartial-inlining"})))
        assert "-finline-functions" in repaired

    def test_repair_resolves_conflicts(self, registry, engine):
        repaired = engine.repair(
            FlagVector(registry, frozenset({"-fconserve-stack", "-falign-loops", "-falign-functions"}))
        )
        assert engine.is_valid(repaired)

    def test_constraint_counts(self, engine):
        requires, conflicts = engine.constraint_count()
        assert requires >= 5 and conflicts >= 3

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_repair_always_produces_valid_vectors(self, registry, engine, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(registry), max_size=len(registry)))
        repaired = engine.sanitize_bits(bits)
        assert engine.is_valid(repaired)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_repair_is_idempotent(self, registry, engine, data):
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(registry), max_size=len(registry)))
        once = engine.sanitize_bits(bits)
        assert engine.repair(once).enabled == once.enabled

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 20210620])
    def test_sanitize_invariants_over_seeded_bit_vectors(self, registry, engine, seed):
        """Seeded randomized sweep: sanitize is always valid and idempotent."""
        rng = random.Random(seed)
        for _ in range(40):
            density = rng.random()
            bits = [1 if rng.random() < density else 0 for _ in range(len(registry))]
            repaired = engine.sanitize_bits(bits)
            assert engine.is_valid(repaired)
            again = engine.repair(repaired)
            assert again.enabled == repaired.enabled


class _CountingFitness:
    """A cheap synthetic fitness: rewards vectors close to a hidden target."""

    def __init__(self, registry, seed=5):
        rng = random.Random(seed)
        names = registry.flag_names()
        self.target = {name for name in names if rng.random() < 0.5}
        self.calls = 0

    def __call__(self, flags):
        self.calls += 1
        overlap = len(self.target & flags.enabled)
        miss = len(flags.enabled - self.target)
        return (overlap - 0.3 * miss) / max(len(self.target), 1)


class TestSearchEngines:
    def test_genetic_algorithm_improves_over_random_start(self, registry, engine):
        fitness = _CountingFitness(registry)
        ga = GeneticAlgorithm(registry, engine, GAParameters(population_size=10, seed=3))
        best_flags, best_fitness, evaluations = ga.run(fitness, max_iterations=120)
        assert evaluations <= 120
        assert best_fitness > 0.3
        assert engine.is_valid(best_flags)

    def test_ga_respects_iteration_budget(self, registry, engine):
        fitness = _CountingFitness(registry)
        ga = GeneticAlgorithm(registry, engine, GAParameters(population_size=8, seed=1))
        _, _, evaluations = ga.run(fitness, max_iterations=25)
        assert evaluations <= 25

    def test_ga_observer_sees_every_evaluation(self, registry, engine):
        seen = []
        ga = GeneticAlgorithm(registry, engine, GAParameters(population_size=6, seed=2))
        ga.run(_CountingFitness(registry), max_iterations=18, observer=lambda i, f, s: seen.append(i))
        assert len(seen) <= 18 and seen == sorted(seen)

    def test_ga_terminates_on_plateau(self, registry, engine):
        constant = lambda flags: 0.5
        ga = GeneticAlgorithm(registry, engine, GAParameters(population_size=8, seed=4))
        _, _, evaluations = ga.run(constant, max_iterations=500, stall_window=20)
        assert evaluations < 500

    def test_hill_climber_and_random_search_run(self, registry, engine):
        fitness = _CountingFitness(registry)
        best, score, evals = HillClimber(registry, engine).run(fitness, max_iterations=40)
        assert evals == 40 and engine.is_valid(best)
        best, score, evals = RandomSearch(registry, engine).run(fitness, max_iterations=30)
        assert evals == 30 and engine.is_valid(best)

    def test_strategies_accept_batch_evaluators(self, registry, engine):
        """The batch-first protocol: a batch object sees whole generations."""

        class BatchFitness:
            def __init__(self, inner):
                self.inner = inner
                self.batch_sizes = []

            def evaluate_batch(self, batch):
                self.batch_sizes.append(len(batch))
                return [self.inner(vector) for vector in batch]

        for strategy in (
            GeneticAlgorithm(registry, engine, GAParameters(population_size=6, seed=2)),
            HillClimber(registry, engine),
            RandomSearch(registry, engine),
        ):
            fitness = BatchFitness(_CountingFitness(registry))
            best, _, evals = strategy.run(fitness, max_iterations=20)
            assert evals == sum(fitness.batch_sizes) == 20
            assert max(fitness.batch_sizes) > 1  # generations, not singletons
            assert engine.is_valid(best)


class TestMutationGuarantee:
    def _ga(self, registry, engine, **kwargs):
        return GeneticAlgorithm(registry, engine, GAParameters(**kwargs))

    def test_fallback_never_reverts_a_flip(self, registry, engine):
        """Regression: with mutation_rate=0 the fallback loop used to pick an
        already-flipped index and revert it, so "at least N mutations" could
        silently become zero.  On a 3-bit chromosome collisions are frequent;
        every outcome must differ in exactly must_mutate_count positions."""
        ga = self._ga(registry, engine, mutation_rate=0.0, must_mutate_count=2, seed=0)
        for _ in range(300):
            bits = [0, 0, 0]
            mutated = ga._mutate_bits(list(bits))
            assert sum(a != b for a, b in zip(bits, mutated)) == 2

    def test_minimum_flips_across_seeds(self, registry, engine):
        for seed in range(25):
            ga = self._ga(registry, engine, mutation_rate=0.02, must_mutate_count=3, seed=seed)
            bits = [0] * len(registry)
            mutated = ga._mutate_bits(list(bits))
            assert sum(a != b for a, b in zip(bits, mutated)) >= 3

    def test_must_mutate_count_capped_by_chromosome_length(self, registry, engine):
        ga = self._ga(registry, engine, mutation_rate=0.0, must_mutate_count=10, seed=1)
        mutated = ga._mutate_bits([0, 1])
        assert sum(a != b for a, b in zip([0, 1], mutated)) == 2  # all bits, no hang

    def test_mutate_returns_valid_vector(self, registry, engine):
        ga = self._ga(registry, engine, seed=5)
        vector = registry.preset("O2")
        assert engine.is_valid(ga._mutate(vector))


class TestStallDetection:
    def test_exactly_window_length_history_is_not_stalled(self):
        history = [0.5] * 20
        assert not GeneticAlgorithm._stalled(history, window=20, threshold=0.01)
        assert GeneticAlgorithm._stalled([0.5] * 21, window=20, threshold=0.01)

    def test_empty_and_short_history(self):
        assert not GeneticAlgorithm._stalled([], window=10, threshold=0.01)
        assert not GeneticAlgorithm._stalled([1.0], window=10, threshold=0.01)

    def test_non_positive_previous_best(self):
        # previous == 0: stalled only if no growth at all.
        assert GeneticAlgorithm._stalled([0.0, 0.0, 0.0], window=1, threshold=0.01)
        assert not GeneticAlgorithm._stalled([0.0, 0.0, 0.5], window=1, threshold=0.01)
        # previous < 0 (penalty scores): any climb above it keeps searching.
        assert not GeneticAlgorithm._stalled([-1.0, -1.0, 0.4], window=1, threshold=0.01)
        assert GeneticAlgorithm._stalled([-1.0, -1.0, -1.0], window=1, threshold=0.01)

    def test_relative_growth_threshold(self):
        grown = [1.0, 1.0, 1.02]
        assert not GeneticAlgorithm._stalled(grown, window=1, threshold=0.01)
        flat = [1.0, 1.0, 1.005]
        assert GeneticAlgorithm._stalled(flat, window=1, threshold=0.01)


class TestDatabase:
    def _record(self, i, fitness):
        return IterationRecord(
            iteration=i, flags=(f"-f{i}",), fitness=fitness, code_size=100 + i,
            fingerprint=f"fp{i}", elapsed_seconds=0.01,
        )

    def test_best_and_history(self):
        db = TuningDatabase(program="p", compiler="c")
        for i, fitness in enumerate([0.2, 0.5, 0.4, 0.9, 0.7], start=1):
            db.record(self._record(i, fitness))
        assert db.best().fitness == 0.9
        assert db.fitness_history() == [0.2, 0.5, 0.5, 0.9, 0.9]
        assert len(db) == 5

    def test_lookup_by_flags(self):
        db = TuningDatabase()
        db.record(self._record(1, 0.3))
        assert db.lookup(("-f1",)).fitness == 0.3
        assert db.lookup(("-other",)) is None

    def test_growth_rate_reaches_plateau(self):
        db = TuningDatabase()
        for i in range(40):
            db.record(self._record(i, 0.5))
        assert db.growth_rate(window=10) == 0.0

    def test_json_roundtrip(self, tmp_path):
        db = TuningDatabase(program="p", compiler="c")
        db.record(self._record(1, 0.4))
        path = tmp_path / "db.json"
        db.save(path)
        restored = TuningDatabase.load(path)
        assert restored.program == "p" and len(restored) == 1
        assert restored.best().fitness == 0.4


class TestBinTunerEndToEnd:
    @pytest.fixture(scope="class")
    def tuning_result(self, llvm):
        spec = BuildSpec(name="tiny", source=TINY_SOURCE)
        config = BinTunerConfig(max_iterations=18, ga=GAParameters(population_size=6, seed=9), stall_window=12)
        tuner = BinTuner(llvm, spec, config)
        return tuner, tuner.run()

    def test_run_produces_best_binary(self, tuning_result):
        tuner, result = tuning_result
        assert result.best_fitness > 0.0
        assert result.best_image.code_size() > 0
        assert result.iterations <= 18
        assert len(result.database) == result.iterations

    def test_tuned_binary_behaves_like_baseline(self, tuning_result):
        from repro.analysis import run_program

        tuner, result = tuning_result
        assert (
            run_program(result.best_image).observable_state()
            == run_program(result.baseline_image).observable_state()
        )

    def test_bintuner_beats_or_matches_default_levels(self, tuning_result):
        tuner, result = tuning_result
        levels = tuner.compare_levels()
        assert result.best_fitness >= max(levels.values()) - 0.02

    def test_database_caches_repeat_evaluations(self, tuning_result):
        tuner, result = tuning_result
        size_before = len(tuner.database)
        tuner.evaluate(result.best_flags)
        assert len(tuner.database) == size_before

    def test_invalid_vector_scores_penalty(self, llvm):
        spec = BuildSpec(name="tiny", source=TINY_SOURCE)
        tuner = BinTuner(llvm, spec, BinTunerConfig(max_iterations=5))
        registry = llvm.registry
        invalid = FlagVector(registry, frozenset({"-fpartial-inlining"}))
        assert tuner.evaluate(invalid) == tuner.config.invalid_fitness

    def test_programming_errors_escape_evaluate(self, llvm, monkeypatch):
        """Only domain failures may score the penalty; an injected TypeError
        must propagate instead of becoming an invalid_fitness record."""
        spec = BuildSpec(name="tiny", source=TINY_SOURCE)
        tuner = BinTuner(llvm, spec, BinTunerConfig(max_iterations=5))
        tuner.evaluation_engine()  # build the baseline before breaking compile

        def broken_compile(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr(llvm, "compile", broken_compile)
        records_before = len(tuner.database)
        with pytest.raises(TypeError):
            tuner.evaluate(llvm.preset("O1"))
        assert len(tuner.database) == records_before  # no bogus penalty record

    def test_parallel_config_knobs_default_to_serial(self):
        config = BinTunerConfig()
        assert config.workers == 1 and config.executor == "serial"

    def test_every_config_dataclass_has_resolvable_annotations(self):
        """``typing.get_type_hints`` is what doc and schema tools call; an
        annotation naming something its module never imported raises there."""
        import typing

        from repro.campaign import CampaignConfig
        from repro.distrib.jobs import AdmissionLimits, JobBudget, JobSpec
        from repro.distrib.service import ServiceConfig

        for config_class in (BinTunerConfig, GAParameters, CampaignConfig,
                             ServiceConfig, AdmissionLimits, JobBudget, JobSpec):
            hints = typing.get_type_hints(config_class)
            assert set(hints) >= set(config_class.__dataclass_fields__), config_class

    def test_flag_potency_report(self, llvm, tuning_result):
        tuner, result = tuning_result
        report = flag_potency(llvm, TINY_SOURCE, result.best_flags, program_name="tiny", max_flags=6)
        assert abs(sum(report.shares.values()) - 1.0) < 1e-6 or not report.shares
        assert 0.0 <= report.jaccard_with_o3 <= 1.0
        assert report.top(3)

    def test_jaccard_with_level_helper(self, llvm):
        assert jaccard_with_level(llvm, llvm.preset("O3"), "O3") == 1.0
