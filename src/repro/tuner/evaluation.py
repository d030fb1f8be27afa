"""Generation-batched candidate evaluation.

Fitness evaluation is BinTuner's bottleneck (§4.1–4.2): every candidate is
compiled, emulated for functional correctness, and scored by NCD against the
O0 baseline.  The :class:`EvaluationEngine` pulls that hot path out of the
orchestrator into a composable subsystem:

* search strategies submit whole *batches* of flag vectors (a GA generation,
  a hill-climbing probe set, a random-sampling slice);
* the engine dedupes the batch against the :class:`TuningDatabase` and
  against itself, so a fingerprint that was ever compiled is never compiled
  again and intra-batch duplicates are evaluated exactly once;
* the surviving misses are dispatched to a worker mapper: the inline
  :class:`LocalMapper`, or :class:`~repro.distrib.mapper.DistributedMapper`
  over worker sessions (forked locally, or on other machines).  Only
  :class:`~repro.campaign.pool.SharedWorkerPool` builds a substrate and
  hands out mappers that borrow it; a worker session evaluates its batch
  with :func:`evaluate_keys`, as the inline mapper does;
* results are recorded in *submission* order regardless of worker completion
  order, so a run is bit-for-bit reproducible for any worker or machine
  count.

The worker side is the picklable
:class:`~repro.tuner.pipeline.StagedCandidateEvaluator`, the one candidate
evaluator — like every evaluator, a plain ``FlagKey -> CandidateResult``
callable; :func:`evaluate_keys` is the one loop that maps a chunk of keys
through it, for every mapper.
"""

from __future__ import annotations

import operator
import pickle
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import get_sink, ratio

from repro.opt.flags import FlagVector
from repro.tuner.database import IterationRecord, TuningDatabase

#: Flag vectors travel to workers as their canonical sorted-name tuples: tiny
#: to pickle, hashable, and exactly the :class:`TuningDatabase` lookup key.
FlagKey = Tuple[str, ...]


@dataclass(frozen=True)
class CandidateResult:
    """Everything one evaluation produces (mirrors an :class:`IterationRecord`).

    Besides the record fields it reports per-stage wall clock and
    artifact-cache provenance (zero when a plain callable built the result).
    They travel with the result through every mapper — local and remote
    worker sessions included — so the engine's :class:`EvaluationStats` can
    account for caches it cannot see."""

    fitness: float
    code_size: int
    fingerprint: str
    valid: bool
    elapsed_seconds: float
    compile_seconds: float = 0.0
    measure_seconds: float = 0.0
    score_seconds: float = 0.0
    artifact_hits: int = 0
    artifact_misses: int = 0
    #: Of ``artifact_hits``, how many were served by the disk-backed store
    #: (tier 2) rather than the in-memory LRU (tier 1).
    artifact_store_hits: int = 0
    #: Of ``artifact_hits``, how many were served by the artifact mesh —
    #: another machine's past work fetched through the coordinator.
    artifact_mesh_hits: int = 0
    #: Inert: read nowhere; kept only because the byte-frozen
    #: ``benchmarks/ledger/replay.py`` constructs results with ``staged=True``.
    staged: bool = True


#: A candidate evaluator: canonical flag key -> result.  Must be picklable to
#: be shipped to worker sessions.
CandidateEvaluator = Callable[[FlagKey], CandidateResult]

#: Bound on a worker session's evaluator cache: campaign jobs run
#: sequentially, so evaluators of long-finished programs (each holding a
#: source plus the O0 baseline image) must not pile up for the life of the
#: campaign.
EVALUATOR_CACHE_LIMIT = 4

class MapperTransportError(RuntimeError):
    """The mapper's *transport* failed — a broken connection, a
    malformed reply, an unpicklable payload — as opposed to the evaluator
    itself raising.  Carries the evaluator id and the offending
    :data:`FlagKey` batch slice so the error is actionable instead of a bare
    pickle/EOF traceback.
    """

    def __init__(
        self,
        message: str,
        evaluator_id: Optional[int] = None,
        keys: Sequence[FlagKey] = (),
    ) -> None:
        super().__init__(message)
        self.evaluator_id = evaluator_id
        self.keys = tuple(keys)


# ---------------------------------------------------------------------------
# The inline mapper
# ---------------------------------------------------------------------------

def evaluate_keys(evaluator: CandidateEvaluator, keys: Sequence[FlagKey]) -> List[CandidateResult]:
    """Run ``keys`` through ``evaluator`` one by one, in submission order:
    the loop of the inline mapper and of every worker session."""
    return [evaluator(key) for key in keys]


class LocalMapper:
    """The inline mapper: every batch is evaluated in the calling thread.

    It is the engine's default without a pool and what a ``"serial"``
    :class:`~repro.campaign.pool.SharedWorkerPool` hands out; every other
    substrate is a fleet of worker sessions behind
    :class:`~repro.distrib.mapper.DistributedMapper`.  Exceptions raised by
    the evaluator (anything it does not classify as an invalid candidate)
    propagate to the caller.
    """

    def __init__(self, evaluator: CandidateEvaluator) -> None:
        self._evaluator = evaluator

    def map(self, keys: Sequence[FlagKey]) -> List[CandidateResult]:
        return evaluate_keys(self._evaluator, list(keys))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class EvaluationStats:
    """Dedup/caching counters of one engine (run summaries and ``report``).

    The ``compile_seconds`` / ``measure_seconds`` / ``score_seconds`` and
    ``artifact_*`` fields aggregate the per-candidate stage reports, which
    is what makes them correct even when the artifact caches live in worker
    processes or on remote machines the engine never sees.
    """

    requested: int = 0
    evaluated: int = 0
    database_hits: int = 0
    intra_batch_hits: int = 0
    batches: int = 0
    invalid: int = 0
    worker_seconds: float = 0.0
    compile_seconds: float = 0.0
    measure_seconds: float = 0.0
    score_seconds: float = 0.0
    artifact_hits: int = 0
    artifact_misses: int = 0
    #: Tier-2 share of ``artifact_hits``: artifacts served by the disk-backed
    #: store instead of the in-memory LRU — the "restarted warm" signal.
    artifact_store_hits: int = 0
    #: Mesh share of ``artifact_hits``: artifacts served by another
    #: machine's past work through the coordinator — the "joined warm"
    #: signal of a distributed campaign.
    artifact_mesh_hits: int = 0

    def _combine(self, other: "EvaluationStats", op) -> "EvaluationStats":
        return EvaluationStats(**{
            f.name: op(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        })

    def since(self, baseline: "EvaluationStats") -> "EvaluationStats":
        """Counters accrued after ``baseline`` was snapshot (per-run stats)."""
        return self._combine(baseline, operator.sub)

    def add(self, other: "EvaluationStats") -> "EvaluationStats":
        """Field-wise sum (campaign summaries aggregate per-program stats)."""
        return self._combine(other, operator.add)

    def absorb(self, result: CandidateResult) -> None:
        """Count one evaluated candidate, in place: the one sum over a
        :class:`CandidateResult`'s stage seconds and cache provenance."""
        self.evaluated += 1
        self.worker_seconds += result.elapsed_seconds
        self.compile_seconds += result.compile_seconds
        self.measure_seconds += result.measure_seconds
        self.score_seconds += result.score_seconds
        self.artifact_hits += result.artifact_hits
        self.artifact_misses += result.artifact_misses
        self.artifact_store_hits += result.artifact_store_hits
        self.artifact_mesh_hits += result.artifact_mesh_hits
        if not result.valid:
            self.invalid += 1

    @property
    def cache_hits(self) -> int:
        return self.database_hits + self.intra_batch_hits

    @property
    def hit_ratio(self) -> float:
        return ratio(self.cache_hits, self.requested)

    @property
    def artifact_hit_ratio(self) -> float:
        return ratio(self.artifact_hits, self.artifact_hits + self.artifact_misses)

    @property
    def artifact_store_hit_ratio(self) -> float:
        """Share of stage lookups served by the *disk* tier specifically."""
        return ratio(self.artifact_store_hits, self.artifact_hits + self.artifact_misses)

    @property
    def artifact_mesh_hit_ratio(self) -> float:
        """Share of stage lookups served by the artifact *mesh* specifically."""
        return ratio(self.artifact_mesh_hits, self.artifact_hits + self.artifact_misses)

    def summary_line(self, label: str) -> str:
        """Candidates, stage seconds and artifact tiers on one line: the run
        summary's ``evaluation`` line and ``report``'s ``pipeline stages``."""
        line = (f"{label}: {self.evaluated} compiled, {self.cache_hits} database hits; "
                f"stages compile {self.compile_seconds:.1f}s / "
                f"measure {self.measure_seconds:.1f}s / score {self.score_seconds:.1f}s; "
                f"artifact cache {self.artifact_hits} hits / {self.artifact_misses} misses "
                f"(hit ratio {self.artifact_hit_ratio:.1%})")
        if self.artifact_store_hits:
            line += (f"; {self.artifact_store_hits} tier-2 (disk) hits "
                     f"({self.artifact_store_hit_ratio:.1%} of stage lookups)")
        if self.artifact_mesh_hits:
            line += (f"; {self.artifact_mesh_hits} mesh hits "
                     f"({self.artifact_mesh_hit_ratio:.1%} of stage lookups)")
        return line

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe counters (job-table ``stats``, ``--json`` output)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EvaluationStats":
        """Inverse of :meth:`as_dict`; unknown keys are ignored so job tables
        written by a newer schema still load."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


class EvaluationEngine:
    """Batch-dedup-dispatch-record pipeline over a candidate evaluator.

    The engine is the single writer of its :class:`TuningDatabase`: every
    cache miss becomes one :class:`IterationRecord`, appended in submission
    order with the batch index as its ``generation``.  ``evaluate_batch``
    returns one score per submitted vector (duplicates included), so search
    strategies never need to know about the dedup.
    """

    def __init__(
        self,
        evaluator: CandidateEvaluator,
        database: Optional[TuningDatabase] = None,
        mapper=None,
    ) -> None:
        self.database = database if database is not None else TuningDatabase()
        self.stats = EvaluationStats()
        self.evaluator = evaluator
        #: Called as ``on_batch(engine)`` after a batch that produced new
        #: records, by ``run_job`` (to checkpoint) and the ledger's
        #: ``long_trace`` (to time generations); all-hit replays skip it.
        self.on_batch: Optional[Callable[["EvaluationEngine"], None]] = None
        # A fleet's mapper comes from a SharedWorkerPool, which owns the
        # substrate; without one the engine evaluates inline.
        self._mapper = mapper if mapper is not None else LocalMapper(evaluator)

    @property
    def mapper(self):
        return self._mapper

    def evaluate_batch(self, batch: Sequence[FlagVector]) -> List[float]:
        """Evaluate a generation; returns scores aligned with ``batch``.

        With a telemetry sink installed, every generation is recorded as an
        ``engine.generation`` span carrying that batch's dedup and
        artifact-tier deltas — the data behind the report's hit-ratios-over-
        time table.  Telemetry only *observes* the stats counters; nothing
        it touches reaches the database or any fingerprinted structure.
        """
        sink = get_sink()
        if not sink.enabled:
            return self._evaluate_batch(batch)
        before = replace(self.stats)
        with sink.span(
            "engine.generation",
            generation=self.stats.batches, requested=len(batch),
        ) as span:
            scores = self._evaluate_batch(batch)
            delta = self.stats.since(before)
            span.set(
                evaluated=delta.evaluated,
                database_hits=delta.database_hits,
                intra_batch_hits=delta.intra_batch_hits,
                invalid=delta.invalid,
                worker_seconds=round(delta.worker_seconds, 6),
                artifact_hits=delta.artifact_hits,
                artifact_store_hits=delta.artifact_store_hits,
                artifact_mesh_hits=delta.artifact_mesh_hits,
                artifact_misses=delta.artifact_misses,
            )
        sink.incr("engine.batches")
        sink.incr("engine.requested", len(batch))
        sink.incr("engine.evaluated", delta.evaluated)
        sink.incr("engine.database_hits", delta.database_hits)
        sink.incr("engine.intra_batch_hits", delta.intra_batch_hits)
        return scores

    def _evaluate_batch(self, batch: Sequence[FlagVector]) -> List[float]:
        generation = self.stats.batches
        self.stats.batches += 1
        self.stats.requested += len(batch)
        keys: List[FlagKey] = [tuple(vector.sorted_names()) for vector in batch]
        scores: Dict[FlagKey, float] = {}
        misses: Dict[FlagKey, None] = {}  # insertion-ordered unique misses
        for key in keys:
            if key in misses or key in scores:  # duplicate within this batch
                self.stats.intra_batch_hits += 1
                continue
            cached = self.database.lookup(key)
            if cached is not None:
                self.stats.database_hits += 1
                scores[key] = cached.fitness
            else:
                misses[key] = None
        results = self._dispatch(list(misses), generation)
        for key, result in zip(misses, results):
            self.stats.absorb(result)
            self.database.record(
                IterationRecord(
                    iteration=len(self.database) + 1,
                    flags=key,
                    fitness=result.fitness,
                    code_size=result.code_size,
                    fingerprint=result.fingerprint,
                    elapsed_seconds=result.elapsed_seconds,
                    generation=generation,
                    valid=result.valid,
                )
            )
            scores[key] = result.fitness
        if misses and self.on_batch is not None:
            self.on_batch(self)
        return [scores[key] for key in keys]

    def _dispatch(self, miss_keys: List[FlagKey], generation: int) -> List[CandidateResult]:
        """``mapper.map`` with transport failures made actionable.

        A broken transport otherwise surfaces as a bare ``EOFError`` /
        pickle traceback with no hint of *which* evaluator or candidates were
        in flight; domain and programming errors from the evaluator itself
        pass through untouched.  (A lost worker session is not an error: the
        distributed mapper re-dispatches its chunk.)
        """
        from repro.distrib.errors import ProtocolError

        try:
            return self._mapper.map(miss_keys)
        except MapperTransportError:
            raise
        except (EOFError, ConnectionError, pickle.PickleError, ProtocolError) as exc:
            evaluator_id = getattr(self._mapper, "evaluator_id", None)
            preview = ", ".join(
                "+".join(key) if key else "<no flags>" for key in miss_keys[:3]
            )
            if len(miss_keys) > 3:
                preview += ", ..."
            raise MapperTransportError(
                f"mapper transport failed for evaluator id {evaluator_id} on batch "
                f"{generation} ({len(miss_keys)} candidate(s): {preview}): "
                f"{type(exc).__name__}: {exc}",
                evaluator_id=evaluator_id,
                keys=miss_keys,
            ) from exc

    def evaluate(self, vector: FlagVector) -> float:
        """Single-candidate convenience wrapper (a batch of one)."""
        return self.evaluate_batch([vector])[0]
