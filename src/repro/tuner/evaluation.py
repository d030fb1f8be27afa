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
* the surviving misses are dispatched to a worker mapper.  There are two:
  :class:`LocalMapper`, the one in-process mapper (inline, or contiguous
  per-worker chunks on a thread or process executor it owns or borrows),
  and the multi-machine :class:`~repro.distrib.mapper.DistributedMapper`;
* results are recorded in *submission* order regardless of worker completion
  order, so a run is bit-for-bit reproducible for any worker count — or, with
  the distributed mapper, any machine count.

The worker side is the picklable
:class:`~repro.tuner.pipeline.StagedCandidateEvaluator`, the one candidate
evaluator — like every evaluator, a plain ``FlagKey -> CandidateResult``
callable; :func:`evaluate_keys` is the one loop that maps a chunk of keys
through it, for every mapper.
"""

from __future__ import annotations

import functools
import itertools
import operator
import pickle
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import get_sink

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
    They travel with the result through every mapper — process pools and
    remote workers included — so the engine's :class:`EvaluationStats` can
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
#: be used with a process executor or the distributed mapper.
CandidateEvaluator = Callable[[FlagKey], CandidateResult]

#: Bound on the per-worker evaluator cache: campaign jobs run sequentially,
#: so evaluators of long-finished programs (each holding a source plus the
#: O0 baseline image) must not pile up for the life of the campaign.  Shared
#: by the process pool's worker-global cache and the remote worker loop.
EVALUATOR_CACHE_LIMIT = 4

#: One process-wide monotonic counter behind every evaluator-carrying
#: mapper: ids can never alias, whether a campaign mixes dispatch modes or
#: not.  (`next` on an ``itertools.count`` is atomic under the GIL.)
_EVALUATOR_IDS = itertools.count(1)


def next_evaluator_id() -> int:
    """The next process-unique evaluator id (shared across dispatch modes)."""
    return next(_EVALUATOR_IDS)


class MapperTransportError(RuntimeError):
    """The mapper's *transport* failed — a broken process-pool pipe, a dead
    remote worker, an unpicklable payload — as opposed to the evaluator
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
# Worker mappers
# ---------------------------------------------------------------------------

def split_into_chunks(items: Sequence, chunks: int) -> List[List]:
    """Deterministic contiguous split into at most ``chunks`` non-empty slices.

    The partition depends only on ``len(items)`` and ``chunks`` — never on
    timing — so chunk-granular dispatch preserves the engine's
    reproducibility contract for any worker count.
    """
    items = list(items)
    count = min(len(items), max(1, chunks))
    if not items:
        return []
    base, extra = divmod(len(items), count)
    out: List[List] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def evaluate_keys(evaluator: CandidateEvaluator, keys: Sequence[FlagKey]) -> List[CandidateResult]:
    """Run ``keys`` through ``evaluator`` one by one, in submission order.

    The ``evaluate_batch`` probe is a test seam: no production evaluator
    offers the method, but a fake that does sees each chunk whole, which is
    how the mapper tests observe the chunk partition.
    """
    batch = getattr(evaluator, "evaluate_batch", None)
    if batch is not None:
        return list(batch(keys))
    return [evaluator(key) for key in keys]


def map_pipelined(executor, evaluate_chunk, keys: Sequence[FlagKey],
                  workers: int) -> List[CandidateResult]:
    """Dispatch contiguous per-worker chunks and flatten results in order.

    The single policy point for chunked dispatch: :class:`LocalMapper` on
    any executor and the distributed worker's slots funnel through here, so
    a chunking change lands in all of them at once.
    ``evaluate_chunk(chunk) -> List[CandidateResult]`` must be picklable for
    process executors (a module-level function or a ``functools.partial``
    over one).
    """
    futures = [
        executor.submit(evaluate_chunk, chunk)
        for chunk in split_into_chunks(list(keys), workers)
    ]
    return [result for future in futures for result in future.result()]


#: Worker-process global: evaluator id -> deserialized evaluator.  Ids come
#: from :func:`next_evaluator_id`, so they can never alias.  Bounded
#: (:data:`EVALUATOR_CACHE_LIMIT`) because campaign jobs run sequentially.
_POOL_EVALUATORS: Dict[int, CandidateEvaluator] = {}


def _pool_evaluator(evaluator_id: int, blob: bytes) -> CandidateEvaluator:
    evaluator = _POOL_EVALUATORS.get(evaluator_id)
    if evaluator is None:
        evaluator = pickle.loads(blob)
        while len(_POOL_EVALUATORS) >= EVALUATOR_CACHE_LIMIT:
            _POOL_EVALUATORS.pop(next(iter(_POOL_EVALUATORS)))
        _POOL_EVALUATORS[evaluator_id] = evaluator
    return evaluator


def _pool_call_batch(evaluator_id: int, blob: bytes,
                     keys: Sequence[FlagKey]) -> List[CandidateResult]:
    """One process-pool task = one contiguous key chunk.  Dispatched as
    ``functools.partial(_pool_call_batch, id, blob)``: every task ships the
    same bytes object and a worker deserializes it at most once."""
    return evaluate_keys(_pool_evaluator(evaluator_id, blob), list(keys))


def new_pool_executor(kind: str, workers: int):
    """A fresh ``"thread"`` or ``"process"`` executor with ``workers`` lanes."""
    if kind == "thread":
        from concurrent.futures import ThreadPoolExecutor

        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="evaluation-mapper"
        )
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


class LocalMapper:
    """The one in-process mapper: inline, thread pool, or process pool.

    ``kind="serial"`` evaluates the batch inline (deterministic default and
    fallback).  ``"thread"`` and ``"process"`` dispatch every batch as
    contiguous per-worker chunks (:func:`map_pipelined`), each evaluated
    key by key in its worker, so the partition — hence every fingerprint —
    depends only on the batch length and the worker count.  Threads share
    the process and call the evaluator directly; a process executor gets the evaluator as an id plus a blob
    pickled once per mapper, which each worker deserializes at most once
    (bounded cache, :data:`EVALUATOR_CACHE_LIMIT`).

    ``executor_source`` is a zero-argument callable returning a *borrowed*
    executor (a campaign's or the service's shared pool): ``close`` leaves
    it alone.  Without one the mapper owns its executor: created lazily on
    first ``map``, shut down and dropped by ``close``, recreated by a later
    ``map`` — :meth:`BinTuner.run` closes the engine and a follow-up
    ``evaluate()`` must keep working.

    Exceptions raised by the evaluator (anything it does not classify as an
    invalid candidate) propagate to the caller on every kind.
    """

    KINDS = ("serial", "thread", "process")

    def __init__(
        self,
        evaluator: CandidateEvaluator,
        kind: str = "serial",
        workers: int = 1,
        executor_source: Optional[Callable[[], object]] = None,
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown mapper kind {kind!r} (use one of {', '.join(self.KINDS)})")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.kind = kind
        self.workers = 1 if kind == "serial" else workers
        self._executor_source = executor_source
        self._owned_executor = None
        #: Only a pickle blob that leaves the process needs an id.
        self.evaluator_id: Optional[int] = None
        if kind == "process":
            self.evaluator_id = next_evaluator_id()
            self._evaluate_chunk = functools.partial(
                _pool_call_batch, self.evaluator_id, pickle.dumps(evaluator)
            )
        else:
            self._evaluate_chunk = functools.partial(evaluate_keys, evaluator)

    def _executor(self):
        if self._executor_source is not None:
            return self._executor_source()
        if self._owned_executor is None:
            self._owned_executor = new_pool_executor(self.kind, self.workers)
        return self._owned_executor

    def map(self, keys: Sequence[FlagKey]) -> List[CandidateResult]:
        if self.kind == "serial":
            return self._evaluate_chunk(list(keys))
        if not keys:
            return []
        return map_pipelined(self._executor(), self._evaluate_chunk, keys, self.workers)

    def close(self) -> None:
        if self._owned_executor is not None:
            self._owned_executor.shutdown()
            self._owned_executor = None


#: The execution substrates ``dispatch`` (``BinTunerConfig.executor``) names.
EXECUTORS = ("serial", "process", "thread", "distributed")


def resolve_dispatch(dispatch: Optional[str], workers: int) -> str:
    """The substrate a ``(dispatch, workers)`` pair means, validated.

    The one place the default is decided: no mode (or ``"serial"``) with
    several workers means the process pool, for a standalone tuner's mapper
    and a campaign's shared pool alike.
    """
    mode = dispatch if dispatch is not None else "serial"
    if mode not in EXECUTORS:
        raise ValueError(f"unknown dispatch {mode!r} (use one of {', '.join(EXECUTORS)})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode == "serial" and workers > 1:
        return "process"
    return mode


def make_mapper(
    evaluator: CandidateEvaluator,
    executor: str = "serial",
    workers: int = 1,
    serve: Optional[str] = None,
):
    """Resolve the (executor, workers) knobs into a mapper that owns its substrate.

    ``serve`` applies to ``executor="distributed"`` only: the ``HOST:PORT``
    the coordinator binds (``"127.0.0.1:0"`` — loopback, ephemeral port — by
    default; read the bound address off ``mapper.coordinator``).  The
    returned distributed mapper owns its coordinator and tears it down on
    ``close``; campaigns that want one substrate spanning many programs
    build their mappers through the shared pool instead.
    """
    executor = resolve_dispatch(executor, workers)
    if executor == "distributed":
        from repro.distrib.coordinator import Coordinator
        from repro.distrib.mapper import DistributedMapper
        from repro.distrib.protocol import parse_address

        host, port = parse_address(serve) if serve else ("127.0.0.1", 0)
        return DistributedMapper(
            Coordinator(host=host, port=port), evaluator, own_coordinator=True
        )
    return LocalMapper(evaluator, executor, workers)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@dataclass
class EvaluationStats:
    """Dedup/caching counters of one engine (reported by the speedup bench).

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
        return self.cache_hits / self.requested if self.requested else 0.0

    @property
    def artifact_hit_ratio(self) -> float:
        total = self.artifact_hits + self.artifact_misses
        return self.artifact_hits / total if total else 0.0

    @property
    def artifact_store_hit_ratio(self) -> float:
        """Share of stage lookups served by the *disk* tier specifically."""
        total = self.artifact_hits + self.artifact_misses
        return self.artifact_store_hits / total if total else 0.0

    @property
    def artifact_mesh_hit_ratio(self) -> float:
        """Share of stage lookups served by the artifact *mesh* specifically."""
        total = self.artifact_hits + self.artifact_misses
        return self.artifact_mesh_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe counters (campaign manifests, the pipeline bench)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EvaluationStats":
        """Inverse of :meth:`as_dict`; unknown keys are ignored so manifests
        written by a newer schema still load."""
        known = {f.name for f in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

    def as_row(self) -> Dict[str, object]:
        return {
            "requested": self.requested,
            "evaluated": self.evaluated,
            "db hits": self.database_hits,
            "intra-batch hits": self.intra_batch_hits,
            "hit ratio": round(self.hit_ratio, 3),
            "batches": self.batches,
            "artifact hits": self.artifact_hits,
            "artifact hit ratio": round(self.artifact_hit_ratio, 3),
            "tier-2 hits": self.artifact_store_hits,
            "mesh hits": self.artifact_mesh_hits,
        }


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
        executor: str = "serial",
        workers: int = 1,
        mapper=None,
        serve: Optional[str] = None,
    ) -> None:
        self.database = database if database is not None else TuningDatabase()
        self.stats = EvaluationStats()
        self.evaluator = evaluator
        #: Called as ``on_batch(engine)`` after a batch that produced new
        #: records is recorded — the campaign layer's per-generation
        #: checkpoint hook.  All-hit replay batches do not fire it.
        self.on_batch: Optional[Callable[["EvaluationEngine"], None]] = None
        # An injected mapper (e.g. a campaign's shared worker pool) wins over
        # the (executor, workers) knobs; its lifetime belongs to the injector.
        self._mapper = mapper if mapper is not None else make_mapper(
            evaluator, executor=executor, workers=workers, serve=serve
        )

    @property
    def mapper(self):
        return self._mapper

    @property
    def workers(self) -> int:
        return self._mapper.workers

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

        A dead worker process or remote machine otherwise surfaces as a bare
        ``BrokenProcessPool``/``EOFError``/pickle traceback with no hint of
        *which* evaluator or candidates were in flight; domain and
        programming errors from the evaluator itself pass through untouched.
        """
        from concurrent.futures import BrokenExecutor

        from repro.distrib.errors import ProtocolError

        try:
            return self._mapper.map(miss_keys)
        except MapperTransportError:
            raise
        except (BrokenExecutor, EOFError, ConnectionError, pickle.PickleError,
                ProtocolError) as exc:
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

    def close(self) -> None:
        """Release worker processes (no-op for the serial mapper)."""
        self._mapper.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
