"""The BinTuner orchestrator.

Wires together the pieces of Figure 4: the build-spec analyzer, the compiler
interface, the constraint engine, the fitness function (NCD against the O0
baseline by default, BinHunt score optionally) and the genetic-algorithm
search, recording every iteration in the tuning database and returning the
best configuration plus its binary.

Candidate evaluation itself lives in :mod:`repro.tuner.evaluation` and
:mod:`repro.tuner.pipeline`: the orchestrator builds an
:class:`EvaluationEngine` around the picklable staged compile+emulate+score
evaluator, and the search strategies submit whole generations to it.
``BinTunerConfig.workers`` / ``executor`` choose between the deterministic
serial executor and a process pool; results are recorded in generation order
either way, so runs are reproducible for any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend.binary import BinaryImage
from repro.compilers.base import Compiler
from repro.difftools.binhunt import BinHunt
from repro.opt.flags import FlagVector
from repro.tuner.constraints import ConstraintEngine
from repro.tuner.database import TuningDatabase
from repro.tuner.evaluation import EvaluationEngine, EvaluationStats
from repro.tuner.pipeline import (
    DEFAULT_ARTIFACT_CACHE_SIZE,
    ArtifactCache,
    CompileStage,
    MeasureStage,
    StagedCandidateEvaluator,
)
from repro.tuner.store import DEFAULT_STORE_MAX_BYTES
from repro.tuner.search import GAParameters, GeneticAlgorithm, HillClimber, RandomSearch


@dataclass
class BuildSpec:
    """The "makefile analyzer" output: everything needed to build one target.

    The real BinTuner drives ``scan-build`` over a project's makefile to learn
    source files, configuration and the initial optimization flags; mini-C
    programs are single translation units, so the spec carries the source
    text, the program name, the workload arguments used for functional-
    correctness checks, and any flags the original build system requested.
    """

    name: str
    source: str
    arguments: Sequence[int] = ()
    inputs: Sequence[int] = ()
    initial_flags: Sequence[str] = ()
    check_output: bool = True

    @classmethod
    def from_source(cls, name: str, source: str, **kwargs) -> "BuildSpec":
        return cls(name=name, source=source, **kwargs)


@dataclass
class BinHuntFitness:
    """The expensive fitness alternative (§4.2 'Challenges').

    Measures the BinHunt difference score against the baseline.  Used by the
    fitness-function ablation bench; it is orders of magnitude slower than
    NCD, which is exactly the trade-off the paper quantifies.
    """

    baseline: BinaryImage

    def __post_init__(self) -> None:
        self._binhunt = BinHunt()

    def __call__(self, candidate: BinaryImage) -> float:
        return self._binhunt.difference(self.baseline, candidate)

    def name(self) -> str:
        return "binhunt"


@dataclass
class BinTunerConfig:
    """Knobs of one tuning run."""

    max_iterations: int = 400
    target_growth_rate: float = 0.0035
    stall_window: int = 60
    ga: GAParameters = field(default_factory=GAParameters)
    search_strategy: str = "genetic"  # "genetic" | "hillclimb" | "random"
    fitness_kind: str = "ncd"  # "ncd" | "binhunt"
    compressor: str = "lzma"
    require_functional_correctness: bool = True
    invalid_fitness: float = -1.0
    max_emulation_steps: int = 2_000_000
    #: Evaluation-engine knobs: "serial" runs candidates in-process (the
    #: deterministic default), "process" dispatches each generation to a
    #: ``ProcessPoolExecutor`` with ``workers`` processes, "thread" to a
    #: ``ThreadPoolExecutor`` (free-threaded builds), and "distributed"
    #: serves them to remote workers over the network (see
    #: :mod:`repro.distrib`).  ``workers > 1`` with the default executor
    #: implies the process pool.  Results are identical across every mode.
    executor: str = "serial"
    workers: int = 1
    #: ``HOST:PORT`` the coordinator binds when ``executor="distributed"``
    #: (default: loopback on an ephemeral port; read the bound address off
    #: ``tuner.evaluation_engine().mapper.coordinator``).
    serve: Optional[str] = None
    #: Warm-start flag tuples injected into the GA's initial population —
    #: best configurations of already-tuned programs in a campaign.  Names
    #: unknown to the target compiler's registry are dropped silently.
    warm_start: Tuple[Tuple[str, ...], ...] = ()
    #: Inert: the only value is ``"staged"``, read nowhere; kept only because
    #: the byte-frozen ``benchmarks/ledger/replay.py`` still passes it.
    pipeline: str = "staged"
    #: Bound of the evaluator's artifact cache (entries, not bytes).
    #: Only sizes a cache this tuner creates; an injected or process-shared
    #: cache keeps its own bound.
    artifact_cache_size: int = DEFAULT_ARTIFACT_CACHE_SIZE
    #: Directory of the disk-backed artifact store — the artifact cache's
    #: persistent second tier (:mod:`repro.tuner.store`).  ``None`` (the
    #: default) keeps the cache memory-only; with a path, compile and trace
    #: artifacts survive the process, so a restarted run starts warm.  The
    #: path travels to worker processes with the evaluator, so every local
    #: worker opens the same store.
    store_dir: Optional[Path] = None
    #: Byte budget of the store's LRU garbage collection (``None``: unbounded).
    store_max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES

    def __post_init__(self) -> None:
        if self.pipeline != "staged":
            raise ValueError(
                f"pipeline={self.pipeline!r} is not supported: the monolithic "
                f"pipeline mode was removed and 'staged' is the only evaluator"
            )


@dataclass
class TuningResult:
    """Outcome of one BinTuner run.

    ``best_image`` is resolved on first read (``image_source``: the tuner's
    artifact cache, else one compile) and kept; a caller that only wants the
    flags and the database — the tuning service, a campaign whose candidates
    were compiled in other processes — never pays for it.
    """

    program: str
    compiler: str
    best_flags: FlagVector
    best_fitness: float
    image_source: Callable[[FlagVector], BinaryImage] = field(repr=False)
    iterations: int
    elapsed_seconds: float
    database: TuningDatabase
    baseline_image: BinaryImage
    evaluation_stats: Optional[EvaluationStats] = None

    @cached_property
    def best_image(self) -> BinaryImage:
        return self.image_source(self.best_flags)

    def ncd_history(self) -> List[float]:
        return self.database.fitness_history()


class BinTuner:
    """Auto-tunes compiler flags to maximize binary code difference."""

    def __init__(
        self,
        compiler: Compiler,
        spec: BuildSpec,
        config: Optional[BinTunerConfig] = None,
        database: Optional[TuningDatabase] = None,
        mapper_factory=None,
        artifact_cache: Optional[ArtifactCache] = None,
    ) -> None:
        self.compiler = compiler
        self.spec = spec
        self.config = config or BinTunerConfig()
        self.constraints = ConstraintEngine(compiler.registry)
        # A campaign injects its shard as ``database`` (so dedup extends to a
        # checkpointed prior run), its shared worker pool as ``mapper_factory``
        # (evaluator -> mapper; the pool owns its lifetime), and its
        # campaign-wide ``artifact_cache`` (content-addressed, so sharing
        # across programs is safe and warm starts reuse compiled artifacts).
        self.database = database if database is not None else TuningDatabase(
            program=spec.name, compiler=compiler.registry.compiler
        )
        self._mapper_factory = mapper_factory
        self._artifact_cache = artifact_cache
        self._baseline: Optional[BinaryImage] = None
        self._baseline_behaviour = None
        self._evaluator: Optional[StagedCandidateEvaluator] = None
        self._engine: Optional[EvaluationEngine] = None

    # -- baseline -------------------------------------------------------------------

    def _staged_cache(self) -> ArtifactCache:
        """The artifact cache every stage of this tuner shares.

        The campaign-injected cache when there is one; otherwise built here
        (with the configured disk store attached) so the baseline build and
        the candidate evaluator reuse one cache instead of two.
        """
        if self._artifact_cache is None:
            self._artifact_cache = ArtifactCache(self.config.artifact_cache_size)
        return self._artifact_cache.ensure_store(
            self.config.store_dir, self.config.store_max_bytes
        )

    def baseline_image(self) -> BinaryImage:
        """The O0 build every candidate is measured against (§5.1).

        The baseline goes through the compile/measure stages like any
        candidate, so its image and trace are content-addressed cache
        entries too — a restarted campaign with a disk store re-pays
        *nothing*, baselines included.
        """
        if self._baseline is None:
            cache = self._staged_cache()
            stage = CompileStage(
                self.compiler, self.spec.source, self.spec.name, cache,
                compressor=None,
            )
            key = tuple(self.compiler.preset("O0").sorted_names())
            # The preset needs no constraint check.
            self._baseline = stage.run(key, check_constraints=False).value.image
            if self.config.require_functional_correctness and self.spec.check_output:
                measure = MeasureStage(
                    self.spec.arguments,
                    self.spec.inputs,
                    self.config.max_emulation_steps,
                    cache,
                )
                self._baseline_behaviour = measure.run(self._baseline).value.behaviour
        return self._baseline

    # -- evaluation --------------------------------------------------------------------

    def _build_evaluator(self) -> StagedCandidateEvaluator:
        if self._evaluator is None:
            self._evaluator = StagedCandidateEvaluator(
                compiler=self.compiler,
                source=self.spec.source,
                name=self.spec.name,
                baseline=self.baseline_image(),
                baseline_behaviour=self._baseline_behaviour,
                arguments=tuple(self.spec.arguments),
                inputs=tuple(self.spec.inputs),
                fitness_kind=self.config.fitness_kind,
                compressor=self.config.compressor,
                invalid_fitness=self.config.invalid_fitness,
                max_emulation_steps=self.config.max_emulation_steps,
                cache_size=self.config.artifact_cache_size,
                artifact_cache=self._staged_cache(),
                store_dir=(
                    str(self.config.store_dir)
                    if self.config.store_dir is not None else None
                ),
                store_max_bytes=self.config.store_max_bytes,
            )
        return self._evaluator

    def evaluation_engine(self) -> EvaluationEngine:
        """The batched evaluation engine (built lazily, shared by all runs)."""
        if self._engine is None:
            evaluator = self._build_evaluator()
            mapper = self._mapper_factory(evaluator) if self._mapper_factory else None
            self._engine = EvaluationEngine(
                evaluator,
                database=self.database,
                executor=self.config.executor,
                workers=self.config.workers,
                mapper=mapper,
                serve=self.config.serve,
            )
        return self._engine

    def evaluate(self, flags: FlagVector) -> float:
        """Compile with ``flags`` and return the fitness score (cached)."""
        return self.evaluation_engine().evaluate(flags)

    def evaluate_batch(self, batch: Sequence[FlagVector]) -> List[float]:
        """Evaluate a whole generation through the engine."""
        return self.evaluation_engine().evaluate_batch(batch)

    def close(self) -> None:
        """Shut down evaluation workers (serial runs: no-op)."""
        if self._engine is not None:
            self._engine.close()

    # -- search -----------------------------------------------------------------------

    def _warm_start_vectors(self) -> List[FlagVector]:
        registry = self.compiler.registry
        known = set(registry.flag_names())
        return [
            FlagVector(registry, frozenset(name for name in names if name in known))
            for names in self.config.warm_start
        ]

    def _build_search(self):
        if self.config.search_strategy == "hillclimb":
            return HillClimber(self.compiler.registry, self.constraints)
        if self.config.search_strategy == "random":
            return RandomSearch(self.compiler.registry, self.constraints)
        return GeneticAlgorithm(
            self.compiler.registry,
            self.constraints,
            self.config.ga,
            seeds=self._warm_start_vectors(),
        )

    def run(self, observer=None) -> TuningResult:
        """Run the full tuning loop and return the best configuration found."""
        started = time.perf_counter()
        baseline = self.baseline_image()
        engine = self.evaluation_engine()
        stats_before = replace(engine.stats)
        search = self._build_search()
        try:
            if isinstance(search, GeneticAlgorithm):
                best_flags, best_fitness, evaluations = search.run(
                    engine,
                    max_iterations=self.config.max_iterations,
                    target_growth_rate=self.config.target_growth_rate,
                    stall_window=self.config.stall_window,
                    observer=observer,
                )
            else:
                best_flags, best_fitness, evaluations = search.run(
                    engine,
                    max_iterations=self.config.max_iterations,
                    observer=observer,
                )
        finally:
            # Worker processes do not outlive the run; the engine (and its
            # database/stats) stays usable for follow-up evaluate() calls.
            engine.close()
        return TuningResult(
            program=self.spec.name,
            compiler=self.compiler.registry.compiler,
            best_flags=best_flags,
            best_fitness=best_fitness,
            image_source=self._best_image,
            # The paper counts *compilation* iterations; repeated evaluations of
            # an already-seen flag vector hit the database and do not recompile.
            iterations=len(self.database),
            elapsed_seconds=time.perf_counter() - started,
            database=self.database,
            baseline_image=baseline,
            # Per-run counters: the engine is shared across runs of this
            # tuner, so report only what this run accrued.
            evaluation_stats=engine.stats.since(stats_before),
        )

    def _best_image(self, best_flags: FlagVector) -> BinaryImage:
        """The winning configuration's binary, served from the artifact cache.

        Called by the first read of :attr:`TuningResult.best_image`, not by
        :meth:`run`.  Where the search compiled the best candidate in this
        process (or into a shared store) that read is a cache hit; a miss
        (eviction, or a candidate compiled only inside a worker process)
        falls back to compiling.
        """
        cached = self._build_evaluator().cached_image(tuple(best_flags.sorted_names()))
        if cached is not None:
            return cached
        return self.compiler.compile(self.spec.source, best_flags, name=self.spec.name).image

    # -- convenience -------------------------------------------------------------------

    def compare_levels(self, levels: Sequence[str] = ("O1", "O2", "O3", "Os")) -> Dict[str, float]:
        """Fitness (difference from O0) of the default -Ox levels.

        The presets go through the compile/score stages, so a preset the
        search already built (or a repeated ``compare_levels`` call) is an
        artifact-cache hit, not a recompile.
        """
        evaluator = self._build_evaluator()
        return {
            level: evaluator.score_flags(tuple(self.compiler.preset(level).sorted_names()))
            for level in levels
            if level in self.compiler.registry.presets
        }
