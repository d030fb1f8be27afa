"""BinTuner: search-based iterative compilation for binary code difference.

This is the paper's primary contribution (§4).  The package provides:

* :mod:`repro.tuner.constraints` — the flag-constraint engine (the Z3 stand-in
  of §4.1's "Constraints Verification" component);
* :mod:`repro.tuner.search` — the genetic algorithm plus hill-climbing and
  random-search baselines;
* :mod:`repro.tuner.database` — the iteration database that records every
  compilation, its flag vector, fitness and binary fingerprint;
* :mod:`repro.tuner.evaluation` — the generation-batched evaluation engine
  (batch dedup against the database, the one in-process mapper,
  submission-order recording for reproducibility);
* :mod:`repro.tuner.pipeline` — the one candidate evaluator: compile,
  measure and score as first-class stages over a content-addressed
  :class:`~repro.tuner.pipeline.ArtifactCache`, run back to back in the
  calling thread;
* :mod:`repro.tuner.store` — the disk-backed
  :class:`~repro.tuner.store.ArtifactStore`, the artifact cache's
  persistent second tier: atomic content-addressed entries with digest
  verification and size-budgeted LRU garbage collection, so restarted
  runs start warm;
* :mod:`repro.tuner.tuner` — the :class:`BinTuner` orchestrator (compiler
  interface + fitness function + termination criteria) and the build-spec
  ("makefile analyzer") front door;
* :mod:`repro.tuner.potency` — per-flag potency analysis and the Jaccard
  index of Figure 7.
"""

from repro.tuner.constraints import ConstraintEngine, ConstraintViolation
from repro.tuner.search import (
    GeneticAlgorithm,
    GAParameters,
    HillClimber,
    RandomSearch,
)
from repro.tuner.database import TuningDatabase, IterationRecord
from repro.tuner.evaluation import (
    CandidateResult,
    EvaluationEngine,
    EvaluationStats,
    LocalMapper,
    MapperTransportError,
    next_evaluator_id,
)
from repro.tuner.pipeline import (
    ArtifactCache,
    CompiledArtifact,
    CompileStage,
    MeasureStage,
    ScoreStage,
    StagedCandidateEvaluator,
    TraceArtifact,
    reset_shared_artifact_caches,
    shared_artifact_cache,
)
from repro.tuner.store import (
    DEFAULT_STORE_MAX_BYTES,
    ArtifactStore,
    persistent_store,
    reset_persistent_stores,
)
from repro.tuner.tuner import (
    BinTuner,
    BinTunerConfig,
    TuningResult,
    BuildSpec,
    BinHuntFitness,
)
from repro.tuner.potency import flag_potency, jaccard_with_level

__all__ = [
    "ConstraintEngine",
    "ConstraintViolation",
    "GeneticAlgorithm",
    "GAParameters",
    "HillClimber",
    "RandomSearch",
    "TuningDatabase",
    "IterationRecord",
    "CandidateResult",
    "EvaluationEngine",
    "EvaluationStats",
    "LocalMapper",
    "MapperTransportError",
    "next_evaluator_id",
    "ArtifactCache",
    "ArtifactStore",
    "CompiledArtifact",
    "CompileStage",
    "DEFAULT_STORE_MAX_BYTES",
    "MeasureStage",
    "ScoreStage",
    "StagedCandidateEvaluator",
    "TraceArtifact",
    "persistent_store",
    "reset_persistent_stores",
    "reset_shared_artifact_caches",
    "shared_artifact_cache",
    "BinTuner",
    "BinTunerConfig",
    "TuningResult",
    "BuildSpec",
    "BinHuntFitness",
    "flag_potency",
    "jaccard_with_level",
]
