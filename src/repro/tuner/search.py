"""Metaheuristic search engines.

The paper's rationale (§4.1) for a genetic algorithm is that flag combinations
with optimal effect are rare but local minima are frequent, so biased random
search beats pure hill climbing.  The GA here follows the appendix's Figure 9:
chromosomes are flag bit-vectors, selection is fitness-proportional with
elitism, then crossover, mutation and constraint repair produce the next
generation.  Hill climbing and random search are provided as the baselines
used in the ablation benches.

All three strategies are *batch-first*: candidates are generated first and
submitted as whole batches — the GA submits generations, the baselines submit
probe batches — so an :class:`repro.tuner.evaluation.EvaluationEngine` can
dedup and parallelize each batch.  A plain per-candidate callable still works
everywhere; it is wrapped into a serial batch adapter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, Union

from repro.opt.flags import FlagRegistry, FlagVector
from repro.tuner.constraints import ConstraintEngine

#: A fitness evaluator: flag vector -> score (higher is better).  The tuner
#: supplies one that compiles the program and measures NCD against O0.
FitnessFunction = Callable[[FlagVector], float]


class BatchFitnessFunction(Protocol):
    """Batch evaluator: one score per submitted vector, in submission order."""

    def evaluate_batch(self, batch: Sequence[FlagVector]) -> List[float]: ...


#: What a strategy's ``run`` accepts: a batch engine or a plain callable.
AnyFitness = Union[BatchFitnessFunction, FitnessFunction]


class _CallableBatchAdapter:
    """Wraps a per-candidate callable into the batch protocol (serial map)."""

    def __init__(self, fitness: FitnessFunction) -> None:
        self._fitness = fitness

    def evaluate_batch(self, batch: Sequence[FlagVector]) -> List[float]:
        return [self._fitness(vector) for vector in batch]


def as_batch_fitness(fitness: AnyFitness) -> BatchFitnessFunction:
    """Coerce ``fitness`` to the batch protocol."""
    if hasattr(fitness, "evaluate_batch"):
        return fitness  # type: ignore[return-value]
    return _CallableBatchAdapter(fitness)  # type: ignore[arg-type]


class _ProgressTracker:
    """Shared bookkeeping: budget truncation and best-so-far.

    Batches are truncated to the remaining budget *before* evaluation, and
    results are folded in submission order, so runs are reproducible for any
    evaluator (serial callable, serial engine, process-pool engine).
    """

    def __init__(self, fitness: AnyFitness, max_iterations: int) -> None:
        self._evaluator = as_batch_fitness(fitness)
        self._max_iterations = max_iterations
        self.evaluations = 0
        self.best_flags: Optional[FlagVector] = None
        self.best_fitness = float("-inf")
        self.history: List[float] = []

    @property
    def budget_left(self) -> int:
        return self._max_iterations - self.evaluations

    def evaluate(self, batch: Sequence[FlagVector]) -> List[Tuple[float, FlagVector]]:
        batch = list(batch)[: max(self.budget_left, 0)]
        if not batch:
            return []
        scores = self._evaluator.evaluate_batch(batch)
        scored: List[Tuple[float, FlagVector]] = []
        for individual, score in zip(batch, scores):
            self.evaluations += 1
            if score > self.best_fitness:
                self.best_fitness = score
                self.best_flags = individual
            self.history.append(self.best_fitness)
            scored.append((score, individual))
        return scored


@dataclass
class GAParameters:
    """The four GA parameters BinTuner exposes (§4.1) plus population control."""

    population_size: int = 24
    mutation_rate: float = 0.08
    crossover_rate: float = 0.8
    must_mutate_count: int = 1
    crossover_strength: float = 0.5
    elite_count: int = 2
    tournament_size: int = 3
    seed: int = 20210620


@dataclass
class GeneticAlgorithm:
    """Genetic search over flag vectors."""

    registry: FlagRegistry
    constraints: ConstraintEngine
    parameters: GAParameters = field(default_factory=GAParameters)
    #: Warm-start individuals injected into the initial population after the
    #: -Ox presets (best configurations from other programs in a campaign).
    #: They pass through constraint repair like every other individual; their
    #: order is preserved so seeded runs stay deterministic.
    seeds: Sequence[FlagVector] = ()

    def __post_init__(self) -> None:
        self._rng = random.Random(self.parameters.seed)

    # -- population initialization ---------------------------------------------------

    def _seed_population(self) -> List[FlagVector]:
        presets = [self.registry.preset(level) for level in ("O1", "O2", "O3", "Os")
                   if level in self.registry.presets]
        # Warm-start seeds carry cross-program information the GA cannot
        # rediscover cheaply, so when presets + seeds overflow the population
        # they win slots over trailing presets rather than being silently
        # truncated away.
        size = self.parameters.population_size
        seeded = [self.constraints.repair(seed) for seed in self.seeds][:size]
        population = [self.constraints.repair(preset)
                      for preset in presets[: max(size - len(seeded), 0)]]
        population.extend(seeded)
        names = self.registry.flag_names()
        while len(population) < self.parameters.population_size:
            density = self._rng.uniform(0.2, 0.8)
            bits = [1 if self._rng.random() < density else 0 for _ in names]
            population.append(self.constraints.sanitize_bits(bits))
        return population[: self.parameters.population_size]

    # -- genetic operators --------------------------------------------------------------

    def _crossover(self, mother: FlagVector, father: FlagVector) -> FlagVector:
        if self._rng.random() > self.parameters.crossover_rate:
            return mother
        mother_bits = mother.to_bits()
        father_bits = father.to_bits()
        strength = self.parameters.crossover_strength
        child_bits = [
            m if self._rng.random() < strength else f
            for m, f in zip(mother_bits, father_bits)
        ]
        return self.constraints.sanitize_bits(child_bits)

    def _mutate_bits(self, bits: List[int]) -> List[int]:
        """Flip bits in place; guarantees >= ``must_mutate_count`` net flips.

        The fallback loop only picks indices that were *not* already flipped
        — re-flipping one would revert it and void the guarantee.
        """
        flipped = set()
        for index in range(len(bits)):
            if self._rng.random() < self.parameters.mutation_rate:
                bits[index] ^= 1
                flipped.add(index)
        required = min(self.parameters.must_mutate_count, len(bits))
        while len(flipped) < required:
            index = self._rng.randrange(len(bits))
            if index in flipped:
                continue
            bits[index] ^= 1
            flipped.add(index)
        return bits

    def _mutate(self, individual: FlagVector) -> FlagVector:
        return self.constraints.sanitize_bits(self._mutate_bits(individual.to_bits()))

    def _select(self, scored: List[Tuple[float, FlagVector]]) -> FlagVector:
        contenders = [self._rng.choice(scored) for _ in range(self.parameters.tournament_size)]
        return max(contenders, key=lambda item: item[0])[1]

    # -- main loop -------------------------------------------------------------------------

    def run(
        self,
        fitness: AnyFitness,
        max_iterations: int = 600,
        target_growth_rate: float = 0.0035,
        stall_window: int = 60,
    ) -> Tuple[FlagVector, float, int]:
        """Run the GA until a termination criterion fires.

        Termination (appendix B): iteration budget exhausted, or the relative
        growth of the best fitness over the last ``stall_window`` evaluations
        drops below ``target_growth_rate``.
        Returns (best flags, best fitness, evaluations used).
        """
        population = self._seed_population()
        tracker = _ProgressTracker(fitness, max_iterations)
        tracker.best_flags = population[0]

        scored = tracker.evaluate(population)
        while tracker.budget_left > 0:
            scored.sort(key=lambda item: -item[0])
            elites = [individual for _, individual in scored[: self.parameters.elite_count]]
            next_generation: List[FlagVector] = list(elites)
            while len(next_generation) < self.parameters.population_size:
                mother = self._select(scored)
                father = self._select(scored)
                child = self._mutate(self._crossover(mother, father))
                next_generation.append(child)
            scored = tracker.evaluate(next_generation)
            if self._stalled(tracker.history, stall_window, target_growth_rate):
                break
            if not scored:
                break
        assert tracker.best_flags is not None
        return tracker.best_flags, tracker.best_fitness, tracker.evaluations

    @staticmethod
    def _stalled(history: Sequence[float], window: int, threshold: float) -> bool:
        if len(history) <= window:
            return False
        previous = history[-window - 1]
        current = history[-1]
        if previous <= 0:
            return current <= previous
        return (current - previous) / previous < threshold


@dataclass
class HillClimber:
    """Single-flag hill climbing baseline (local search).

    Batch-first: each round probes ``probe_batch_size`` random single-flag
    neighbours of the current point at once and moves to the best improving
    one — the parallel analogue of the classic accept-first walk.
    """

    registry: FlagRegistry
    constraints: ConstraintEngine
    seed: int = 7
    probe_batch_size: int = 8

    def run(
        self,
        fitness: AnyFitness,
        max_iterations: int = 300,
        start_level: str = "O2",
    ) -> Tuple[FlagVector, float, int]:
        rng = random.Random(self.seed)
        tracker = _ProgressTracker(fitness, max_iterations)
        current = self.constraints.repair(self.registry.preset(start_level))
        scored_start = tracker.evaluate([current])
        if not scored_start:  # zero evaluation budget
            return current, float("-inf"), 0
        [(current_fitness, _)] = scored_start
        names = self.registry.flag_names()
        while tracker.budget_left > 0:
            probes: List[FlagVector] = []
            for _ in range(min(self.probe_batch_size, tracker.budget_left)):
                name = rng.choice(names)
                probes.append(self.constraints.repair(current.with_flag(name, name not in current)))
            scored = tracker.evaluate(probes)
            if not scored:
                break
            best_score, best_candidate = max(scored, key=lambda item: item[0])
            if best_score > current_fitness:
                current, current_fitness = best_candidate, best_score
        return current, current_fitness, tracker.evaluations


@dataclass
class RandomSearch:
    """Uniform random sampling baseline."""

    registry: FlagRegistry
    constraints: ConstraintEngine
    seed: int = 11
    probe_batch_size: int = 16

    def run(
        self,
        fitness: AnyFitness,
        max_iterations: int = 300,
    ) -> Tuple[FlagVector, float, int]:
        rng = random.Random(self.seed)
        names = self.registry.flag_names()
        tracker = _ProgressTracker(fitness, max_iterations)
        while tracker.budget_left > 0:
            batch: List[FlagVector] = []
            for _ in range(min(self.probe_batch_size, tracker.budget_left)):
                density = rng.uniform(0.1, 0.9)
                bits = [1 if rng.random() < density else 0 for _ in names]
                batch.append(self.constraints.sanitize_bits(bits))
            if not tracker.evaluate(batch):
                break
        assert tracker.best_flags is not None
        return tracker.best_flags, tracker.best_fitness, tracker.evaluations
