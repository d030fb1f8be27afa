"""The candidate evaluator: compile → measure → score, staged over artifacts.

Every candidate is compiled, emulated for functional correctness and scored
by NCD.  Run as one opaque closure, every flag vector would pay all three
even when only one stage's inputs changed — re-scoring a checkpointed
campaign recompiles, ``compare_levels`` recompiles presets the search already
built, a warm-started rerun recompiles every configuration it saw last time.
So the stages are first-class, cacheable units:

* :class:`CompileStage` — constraint check + compilation.  Artifacts are
  content-addressed by ``(compiler family, compiler version, source digest,
  canonical flag key)``: the same configuration of the same source under the
  same compiler is compiled exactly once per cache.
* :class:`MeasureStage` — emulation of the candidate on the workload
  (functional-correctness trace plus step/cycle statistics), addressed by
  ``(image digest, workload)``.
* :class:`ScoreStage` — the fitness function.  For NCD it consumes the
  compile stage's precomputed compressed ``.text`` size
  (:meth:`~repro.difftools.ncd.CachedNCDFitness.score_artifact`), so scoring
  a compile-cache hit never recompresses the candidate.
* :class:`ArtifactCache` — the bounded, thread-safe LRU between stages.
  Content addressing makes one cache safe to share across evaluators,
  programs, and whole campaigns: a campaign injects one campaign-wide
  cache, worker processes adopt a process-shared one
  (:func:`shared_artifact_cache`), and a standalone evaluator defaults to
  a private one.  An optional second tier — the disk-backed
  :class:`~repro.tuner.store.ArtifactStore` — sits behind the in-memory
  LRU: a memory miss consults the store before anything is compiled or
  emulated, and every new artifact is written through, so a *restarted*
  process (a fresh campaign, a respawned worker, a reconnected
  distributed slot) starts warm instead of re-paying its history.

:class:`StagedCandidateEvaluator` — the one candidate evaluator — composes
the stages behind the ``FlagKey -> CandidateResult`` contract.  Results are
bit-for-bit identical (fitness, code size, fingerprint, validity; only
timing fields differ) to the unstaged compile → ``run_program`` → fitness
closure, which lives on as the test oracle
(``tests/_helpers.py::reference_evaluator``), for any executor and worker
count.  :meth:`~StagedCandidateEvaluator.evaluate_batch` adds the overlap:
inside a worker, candidate *k+1*'s compile proceeds on a second lane while
candidate *k*'s emulation and scoring execute.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.emulator import EmulationError, block_template_stats, run_program
from repro.backend.binary import BinaryImage
from repro.compilers.base import CompilationError, Compiler
from repro.difftools.ncd import CachedNCDFitness
from repro.opt.flags import FlagVector
from repro.telemetry import get_sink
from repro.tuner.constraints import ConstraintEngine, ConstraintViolation
from repro.tuner.evaluation import CandidateResult, FlagKey
from repro.tuner.store import DEFAULT_STORE_MAX_BYTES, ArtifactStore, persistent_store

#: Default bound of an artifact cache.  Artifacts are small (a linked image
#: plus an integer), but campaigns evaluate thousands of candidates; the
#: bound keeps a long-lived shared cache from growing monotonically.
DEFAULT_ARTIFACT_CACHE_SIZE = 1024


#: :meth:`ArtifactCache.lookup` tiers: a miss, the in-memory LRU, the disk
#: store, and the artifact mesh (another machine's past work, served via the
#: coordinator — see :mod:`repro.distrib.artifacts`).
MISS_TIER, MEMORY_TIER, STORE_TIER, MESH_TIER = 0, 1, 2, 3


class ArtifactCache:
    """Content-addressed bounded LRU shared between pipeline stages.

    Keys are flat tuples whose first element names the artifact kind
    (``"image"`` / ``"trace"``) and whose remaining elements are content
    digests, so one cache is safe to share across evaluators, programs and
    compilers: equal keys imply equal artifacts.  All operations are
    thread-safe — the compile lane and the measure/score lane of one
    evaluator, and every evaluator of a thread pool, share one instance.

    ``store`` attaches a disk-backed second tier
    (:class:`~repro.tuner.store.ArtifactStore`): a memory miss falls
    through to the store (a hit is promoted back into memory), and every
    :meth:`put` writes through, so artifacts outlive the process.  Memory
    eviction never touches the store — the LRU bound trades memory, the
    store's byte budget trades disk, independently.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_ARTIFACT_CACHE_SIZE,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.store = store
        #: Optional third tier: a :class:`~repro.distrib.artifacts.
        #: WorkerMeshClient` (or anything with ``fetch``/``offer``).  A
        #: store miss falls through to it before the caller compiles, and
        #: every fresh :meth:`put` is offered for the end-of-batch push.
        self.mesh = None
        self.hits = 0
        self.store_hits = 0
        self.mesh_hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = Lock()

    def lookup(self, key: Tuple) -> Tuple[Optional[object], int]:
        """``(value, tier)``: tier-1 memory, tier-2 disk, or a miss.

        Disk reads happen outside the memory lock — the store has its own
        synchronization, and a store read under this lock would stall the
        other pipeline lane for the duration of an unpickle.

        Every outcome also bumps the telemetry metrics registry
        (``artifact.*`` counters), which is the one place tier accounting
        is unified across orchestrator, pool workers and remote machines —
        the instance counters below stay per-cache.
        """
        sink = get_sink()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                sink.incr("artifact.memory_hits")
                return self._entries[key], MEMORY_TIER
        store = self.store
        if store is not None:
            value = store.get(key)
            if value is not None:
                # Promote into memory without writing back to the store
                # (the value came *from* there).
                with self._lock:
                    self.store_hits += 1
                    self._insert(key, value)
                sink.incr("artifact.store_hits")
                return value, STORE_TIER
        mesh = self.mesh
        if mesh is not None:
            value = mesh.fetch(key)
            if value is not None:
                # Another machine's past work, verified in flight.  Promote
                # into memory and persist to the local disk tier directly —
                # *not* via :meth:`put`, whose offer hook would push the
                # entry straight back to the mesh it just came from.
                with self._lock:
                    self.mesh_hits += 1
                    self._insert(key, value)
                if store is not None:
                    store.put(key, value)
                sink.incr("artifact.mesh_hits")
                return value, MESH_TIER
        with self._lock:
            self.misses += 1
        sink.incr("artifact.misses")
        return None, MISS_TIER

    def get(self, key: Tuple) -> Optional[object]:
        return self.lookup(key)[0]

    def ensure_store(
        self,
        store_dir,
        max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES,
    ) -> "ArtifactCache":
        """Attach the persistent store for ``store_dir`` if none is attached.

        The single attachment policy point for every layer (tuner, staged
        evaluator, campaign, shared worker caches): a no-op when
        ``store_dir`` is ``None`` or a store is already attached — an
        injected cache's existing tier always wins.  Returns ``self`` for
        construction chaining.
        """
        if store_dir is not None and self.store is None:
            self.store = persistent_store(store_dir, max_bytes=max_bytes)
        return self

    def _insert(self, key: Tuple, value: object) -> None:
        """Memory-tier insertion + LRU eviction; caller holds the lock."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def put(self, key: Tuple, value: object) -> None:
        get_sink().incr("artifact.puts")
        with self._lock:
            self._insert(key, value)
        if self.store is not None:
            self.store.put(key, value)
        mesh = self.mesh
        if mesh is not None:
            # Freshly produced on this machine: offer it for the batched
            # end-of-batch push so the rest of the fleet never re-pays it.
            mesh.offer(key, value)

    def clear(self) -> None:
        """Drop the in-memory tier (the disk store, if any, is untouched)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        served = self.hits + self.store_hits + self.mesh_hits
        total = served + self.misses
        return served / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Counters for campaign summaries and the pipeline bench."""
        return {
            "entries": len(self),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "store_hits": self.store_hits,
            "mesh_hits": self.mesh_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio, 4),
            "store": self.store.stats() if self.store is not None else None,
        }


#: Process-global caches used by *worker-side* evaluators (which arrive as
#: pickle blobs with the cache field stripped): every program a worker
#: serves shares one, so identical configurations are reused across
#: evaluators for the life of the worker.  Keyed by the evaluator's
#: ``store_dir`` (``None`` for the purely in-memory cache) so evaluators
#: backed by the same disk store share one memory tier in front of it.  In
#: the orchestrating process the cache is evaluator-private unless a tuner
#: or campaign injects a shared one — cache lifetime is an explicit choice
#: there, not ambient state.
_SHARED_CACHES: Dict[Optional[str], ArtifactCache] = {}
_SHARED_CACHE_LOCK = Lock()


def shared_artifact_cache(
    max_entries: int = DEFAULT_ARTIFACT_CACHE_SIZE,
    store_dir=None,
    store_max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES,
) -> ArtifactCache:
    """The process-wide artifact cache for ``store_dir`` (created on first use).

    ``max_entries`` / ``store_max_bytes`` only size the cache and its disk
    tier at creation; later callers share the existing instances unchanged
    (growing them for one evaluator would silently grow them for every
    other).
    """
    key = str(Path(store_dir).resolve()) if store_dir is not None else None
    with _SHARED_CACHE_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = ArtifactCache(max_entries).ensure_store(store_dir, store_max_bytes)
            _SHARED_CACHES[key] = cache
        return cache


def reset_shared_artifact_caches() -> None:
    """Forget every process-global cache (test hook: simulates the memory
    state of a freshly started process; disk stores are untouched)."""
    with _SHARED_CACHE_LOCK:
        _SHARED_CACHES.clear()


#: Compile-lane lookahead: how many candidates the lane may run ahead of
#: the measure/score lane within one batch.  Every compiled artifact is
#: already resident in the :class:`ArtifactCache` when the lane returns it,
#: so the window bounds scheduling, not memory.
COMPILE_LOOKAHEAD = 4

_COMPILE_LANE: Optional[Tuple[int, ThreadPoolExecutor]] = None
_COMPILE_LANE_LOCK = Lock()


def shared_compile_lane() -> ThreadPoolExecutor:
    """The process-wide compile-lane executor (created on first use).

    One lane is shared by every staged evaluator in the process — including
    all workers of a thread mapper — so batches stop paying executor
    construction and thread spawn per generation (a measured cold-run
    regression).  The singleton is keyed by pid: a
    fork-spawned pool worker inherits the parent's executor object *without*
    its threads, and submitting to that husk would hang forever, so each
    process lazily builds its own.
    """
    global _COMPILE_LANE
    pid = os.getpid()
    with _COMPILE_LANE_LOCK:
        if _COMPILE_LANE is None or _COMPILE_LANE[0] != pid:
            _COMPILE_LANE = (
                pid,
                ThreadPoolExecutor(
                    max_workers=min(8, max(2, os.cpu_count() or 2)),
                    thread_name_prefix="compile-lane",
                ),
            )
        return _COMPILE_LANE[1]


def shutdown_compile_lane() -> None:
    """Tear down the process-wide compile lane (test hook / clean exit)."""
    global _COMPILE_LANE
    with _COMPILE_LANE_LOCK:
        lane = _COMPILE_LANE
        _COMPILE_LANE = None
    if lane is not None and lane[0] == os.getpid():
        lane[1].shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True)
class CompiledArtifact:
    """The compile stage's output: the linked image plus score-stage inputs.

    ``text_compressed_size`` is ``C(candidate .text)`` under the evaluator's
    compressor — precomputed on the compile lane so the score stage (and any
    later re-score of a cached artifact) only compresses the *joint* string.
    ``None`` when the fitness is not NCD-based.
    """

    image: BinaryImage
    text_compressed_size: Optional[int] = None


@dataclass(frozen=True)
class TraceArtifact:
    """The measure stage's output: observable behaviour plus trace stats."""

    behaviour: Tuple[int, str]
    steps: int
    cycles: int


@dataclass(frozen=True)
class StageOutcome:
    """One stage execution: the artifact, its wall clock, and cache provenance.

    ``from_store`` marks a hit served by the disk tier and ``from_mesh``
    one served by the artifact mesh (``cached`` is True for all hit tiers)
    — the counters behind the tier-2/mesh accounting in
    :class:`~repro.tuner.evaluation.EvaluationStats`.
    """

    value: object
    seconds: float
    cached: bool
    from_store: bool = False
    from_mesh: bool = False


def _tier_label(outcome: StageOutcome) -> str:
    """The serving tier of a cached outcome, as a telemetry span attribute."""
    if outcome.from_mesh:
        return "mesh"
    if outcome.from_store:
        return "store"
    return "memory"


class CompileStage:
    """Constraint check + compilation, content-addressed by configuration."""

    name = "compile"

    def __init__(
        self,
        compiler,
        source: str,
        program: str,
        cache: ArtifactCache,
        compressor: Optional[str] = None,
    ) -> None:
        self.compiler = compiler
        self.source = source
        self.program = program
        self.cache = cache
        self._constraints = ConstraintEngine(compiler.registry)
        self._compress = None
        if compressor is not None:
            from repro.difftools.ncd import _COMPRESSORS

            try:
                self._compress = _COMPRESSORS[compressor]
            except KeyError as exc:
                raise ValueError(f"unknown compressor {compressor!r}") from exc
        # The compressor is part of the address because the artifact carries
        # the precomputed C(.text) *under that compressor*: a shared cache
        # serving evaluator A's lzma size to evaluator B's zlib scoring
        # would silently corrupt fitness values.
        self._key_prefix = (
            "image",
            compiler.family,
            compiler.version,
            hashlib.sha256(source.encode()).hexdigest(),
            compressor,
        )

    def key(self, flag_key: FlagKey) -> Tuple:
        """The content address of one configuration's compiled artifact."""
        return self._key_prefix + (tuple(flag_key),)

    def peek(self, flag_key: FlagKey) -> Optional[CompiledArtifact]:
        """Cache lookup without compiling (the best-image fast path).

        Consults both tiers: a restarted campaign serves even its final
        best-candidate build from the disk store.
        """
        artifact = self.cache.get(self.key(flag_key))
        return artifact if isinstance(artifact, CompiledArtifact) else None

    def run(self, flag_key: FlagKey, check_constraints: bool = True) -> StageOutcome:
        with get_sink().span("stage.compile", program=self.program) as span:
            outcome = self._run(flag_key, check_constraints)
            if outcome.cached:
                span.set(tier=_tier_label(outcome))
            return outcome

    def _run(self, flag_key: FlagKey, check_constraints: bool = True) -> StageOutcome:
        started = time.perf_counter()
        # Constraints are verified *before* the cache is consulted: a
        # conflicting key must raise even when its artifact is cached (e.g.
        # compiled earlier through the unchecked compare_levels path).
        flags = FlagVector(self.compiler.registry, frozenset(flag_key))
        if check_constraints:
            flags = self._constraints.check(flags)
        cache_key = self.key(flag_key)
        artifact, tier = self.cache.lookup(cache_key)
        if artifact is not None:
            return StageOutcome(
                artifact, time.perf_counter() - started, True,
                tier == STORE_TIER, tier == MESH_TIER,
            )
        image = self.compiler.compile(self.source, flags, name=self.program).image
        compressed = len(self._compress(image.text)) if self._compress else None
        artifact = CompiledArtifact(image, compressed)
        self.cache.put(cache_key, artifact)
        return StageOutcome(artifact, time.perf_counter() - started, False)


class MeasureStage:
    """Emulation of a candidate image on the workload, addressed by content.

    The cache key is the *image* digest plus the workload, not the flag key:
    distinct configurations routinely produce identical binaries, and those
    share one trace.
    """

    name = "measure"

    def __init__(
        self,
        arguments: Sequence[int],
        inputs: Sequence[int],
        max_steps: int,
        cache: ArtifactCache,
    ) -> None:
        self.arguments = tuple(arguments)
        self.inputs = tuple(inputs)
        self.max_steps = max_steps
        self.cache = cache

    def key(self, image: BinaryImage) -> Tuple:
        return ("trace", image.sha256(), self.arguments, self.inputs, self.max_steps)

    def run(self, image: BinaryImage) -> StageOutcome:
        with get_sink().span("stage.measure") as span:
            outcome = self._run(image)
            if outcome.cached:
                span.set(tier=_tier_label(outcome))
            return outcome

    def _run(self, image: BinaryImage) -> StageOutcome:
        started = time.perf_counter()
        cache_key = self.key(image)
        artifact, tier = self.cache.lookup(cache_key)
        if artifact is not None:
            return StageOutcome(
                artifact, time.perf_counter() - started, True,
                tier == STORE_TIER, tier == MESH_TIER,
            )
        sink = get_sink()
        shapes_before = block_template_stats() if sink.enabled else None
        emulate_started = time.perf_counter()
        result = run_program(
            image, args=self.arguments, inputs=self.inputs, max_steps=self.max_steps
        )
        if shapes_before is not None:
            emulate_seconds = time.perf_counter() - emulate_started
            sink.incr("emulator.steps", result.steps)
            sink.incr("emulator.blocks", result.blocks)
            # Process-wide deltas: what this emulation had to build.  A run
            # whose blocks were all built and shapes all compiled reads 0 / 0.
            shapes = block_template_stats()
            for counter in ("shapes_compiled", "blocks_built"):
                sink.incr(f"emulator.{counter}", shapes[counter] - shapes_before[counter])
            if emulate_seconds > 0:
                sink.gauge("measure.steps_per_second", result.steps / emulate_seconds)
        artifact = TraceArtifact(
            behaviour=result.observable_state(), steps=result.steps, cycles=result.cycles
        )
        # Emulation faults are *not* cached: they raise out of run_program
        # before this point, and the emulator is deterministic, so a retry
        # costs exactly one re-run of a rare path.
        self.cache.put(cache_key, artifact)
        return StageOutcome(artifact, time.perf_counter() - started, False)


class ScoreStage:
    """The fitness function over a compiled artifact.

    NCD fitness consumes the artifact's precomputed compressed size instead
    of recompressing the candidate text; other fitness kinds (BinHunt) score
    the image directly.  Values are bit-identical either way.
    """

    name = "score"

    def __init__(self, fitness) -> None:
        self.fitness = fitness

    def run(self, artifact: CompiledArtifact) -> StageOutcome:
        with get_sink().span("stage.score"):
            return self._run(artifact)

    def _run(self, artifact: CompiledArtifact) -> StageOutcome:
        started = time.perf_counter()
        if (
            artifact.text_compressed_size is not None
            and isinstance(self.fitness, CachedNCDFitness)
        ):
            value = self.fitness.score_artifact(
                artifact.image, artifact.text_compressed_size
            )
        else:
            value = self.fitness(artifact.image)
        return StageOutcome(value, time.perf_counter() - started, False)


def make_fitness(
    kind: str, baseline: BinaryImage, compressor: str = "lzma"
) -> Callable[[BinaryImage], float]:
    """The single ``fitness_kind`` dispatch, shared by orchestrator and workers."""
    if kind == "binhunt":
        from repro.tuner.tuner import BinHuntFitness

        return BinHuntFitness(baseline)
    return CachedNCDFitness(baseline, compressor=compressor)


@dataclass
class StagedCandidateEvaluator:
    """Compile + emulate + score one candidate; picklable for worker pools.

    Domain failures — a constraint conflict, a failed compilation, a
    miscompiled binary caught by the behaviour check — score
    ``invalid_fitness``.  Anything else (a genuine programming error)
    propagates: converting a ``TypeError`` into a penalty record would bury
    real bugs in the tuning log.

    Carries the build-spec fields plus the artifact-cache knobs.  Per-process
    state never crosses a process boundary: pickling strips the cache, the
    stages and the lazily built fitness (its NCD cache), and the worker side
    falls back to its process-shared cache, so every worker accumulates
    reusable artifacts across programs.

    ``store_dir`` *does* cross the boundary: it is plain configuration, so a
    freshly spawned process-pool worker (or a remote worker on the same
    machine) rehydrates with the same disk tier attached and consults it
    before compiling anything — a restarted worker is warm immediately.
    A distributed worker on a machine where that path is wrong overrides it
    with its own local tier via :meth:`attach_store`
    (``repro.distrib.worker --store-dir``).
    """

    compiler: Compiler
    source: str
    name: str
    baseline: BinaryImage
    baseline_behaviour: object = None
    arguments: Sequence[int] = ()
    inputs: Sequence[int] = ()
    fitness_kind: str = "ncd"
    compressor: str = "lzma"
    invalid_fitness: float = -1.0
    max_emulation_steps: int = 2_000_000
    cache_size: int = DEFAULT_ARTIFACT_CACHE_SIZE
    artifact_cache: Optional[ArtifactCache] = None
    store_dir: Optional[str] = None
    store_max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES

    def __post_init__(self) -> None:
        if self.store_dir is not None:
            self.store_dir = str(self.store_dir)  # Path-friendly, pickle-clean
        self._fitness: Optional[Callable[[BinaryImage], float]] = None
        self._compile_stage: Optional[CompileStage] = None
        self._measure_stage: Optional[MeasureStage] = None
        self._score_stage: Optional[ScoreStage] = None
        self._stage_lock = Lock()

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_fitness"] = None
        state["artifact_cache"] = None
        state["_compile_stage"] = None
        state["_measure_stage"] = None
        state["_score_stage"] = None
        state["_stage_lock"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._stage_lock = Lock()
        # Worker side of a pickle round trip: adopt the process-shared cache
        # (keyed by the disk store, when configured) so every program this
        # worker serves reuses artifacts — and, with a store, so a *fresh*
        # worker process starts warm from disk instead of recompiling.
        self.artifact_cache = shared_artifact_cache(
            self.cache_size,
            store_dir=self.store_dir,
            store_max_bytes=self.store_max_bytes,
        )

    def fitness_function(self) -> Callable[[BinaryImage], float]:
        if self._fitness is None:
            self._fitness = make_fitness(self.fitness_kind, self.baseline, self.compressor)
        return self._fitness

    def attach_store(self, store_dir, max_bytes: Optional[int] = None) -> None:
        """Re-point this evaluator at the disk store under ``store_dir``.

        The distributed worker's ``--store-dir`` override: the orchestrator's
        path travels in the evaluator blob but may not exist on a remote
        machine, so the worker substitutes its own local tier right after
        unpickling, before any candidate is evaluated.  ``store_dir=None``
        detaches the disk tier entirely (the worker's ``--no-store``): the
        evaluator falls back to the plain in-memory shared cache and never
        touches the orchestrator's foreign path.  Built stages are discarded
        (they captured the old cache) and rebuilt lazily.
        """
        self.store_dir = str(store_dir) if store_dir is not None else None
        if max_bytes is not None:
            self.store_max_bytes = max_bytes
        with self._stage_lock:
            self._compile_stage = None
            self._measure_stage = None
            self._score_stage = None
        self.artifact_cache = shared_artifact_cache(
            self.cache_size,
            store_dir=self.store_dir,
            store_max_bytes=self.store_max_bytes,
        )

    def attach_mesh(self, mesh) -> ArtifactCache:
        """Hook this evaluator's cache up to the artifact mesh.

        The distributed worker calls this right after unpickling an arriving
        evaluator (and after any :meth:`attach_store` override), handing it
        the session's :class:`~repro.distrib.artifacts.WorkerMeshClient`:
        store misses then fall through to the coordinator before compiling,
        and fresh artifacts are offered back.  Returns the cache that was
        hooked, so the caller can unhook it when the session ends (the cache
        is process-global and outlives the session).
        """
        cache = self.cache()
        cache.mesh = mesh
        return cache

    # -- stage construction -------------------------------------------------------

    def cache(self) -> ArtifactCache:
        if self.artifact_cache is None:
            self.artifact_cache = ArtifactCache(self.cache_size)
        # An injected cache (e.g. the campaign-wide one) gains the
        # configured disk tier: content addressing makes the attachment
        # safe, and every evaluator sharing the cache shares it.
        return self.artifact_cache.ensure_store(self.store_dir, self.store_max_bytes)

    def _ensure_stages(self) -> Tuple[CompileStage, Optional[MeasureStage], ScoreStage]:
        # Thread mappers run evaluate_batch concurrently on one shared
        # evaluator; without the lock two threads could each build a private
        # cache and stage set, silently halving reuse.  ``_compile_stage``
        # is assigned last, so the unlocked fast path only ever observes a
        # fully built pipeline.
        if self._compile_stage is None:
            with self._stage_lock:
                if self._compile_stage is None:
                    cache = self.cache()
                    # Built before any candidate is touched so configuration
                    # errors (an unknown compressor) propagate instead of
                    # scoring a penalty.
                    fitness = self.fitness_function()
                    self._score_stage = ScoreStage(fitness)
                    if self.baseline_behaviour is not None:
                        self._measure_stage = MeasureStage(
                            self.arguments, self.inputs, self.max_emulation_steps, cache
                        )
                    self._compile_stage = CompileStage(
                        self.compiler,
                        self.source,
                        self.name,
                        cache,
                        compressor=(
                            self.compressor
                            if isinstance(fitness, CachedNCDFitness) else None
                        ),
                    )
        return self._compile_stage, self._measure_stage, self._score_stage

    # -- candidate evaluation -----------------------------------------------------

    def _compile_outcome(self, key: FlagKey):
        """Compile-lane half: a :class:`StageOutcome`, or a caught domain error.

        Domain failures are returned (not raised) so the compile lane can run
        ahead of the measure/score lane without losing them; programming
        errors propagate through the lane's future.
        """
        compile_stage, _measure, _score = self._ensure_stages()
        started = time.perf_counter()
        try:
            return compile_stage.run(key)
        except (CompilationError, EmulationError, ConstraintViolation, ValueError):
            return StageOutcome(None, time.perf_counter() - started, False)

    def _finish(self, outcome: StageOutcome) -> CandidateResult:
        """Measure/score-lane half: trace, behaviour check, fitness, result."""
        _compile, measure_stage, score_stage = self._ensure_stages()
        if outcome.value is None:  # the compile lane caught a domain failure
            return self._invalid_result(
                elapsed=outcome.seconds, compile_seconds=outcome.seconds
            )
        artifact: CompiledArtifact = outcome.value
        measure_seconds = 0.0
        measure_cached = False
        measure_from_store = False
        measure_from_mesh = False
        measured = False
        try:
            if measure_stage is not None:
                trace_outcome = measure_stage.run(artifact.image)
                measure_seconds = trace_outcome.seconds
                measure_cached = trace_outcome.cached
                measure_from_store = trace_outcome.from_store
                measure_from_mesh = trace_outcome.from_mesh
                measured = True
                if trace_outcome.value.behaviour != self.baseline_behaviour:
                    raise CompilationError("tuned binary changed observable behaviour")
            score_outcome = score_stage.run(artifact)
        except (CompilationError, EmulationError, ConstraintViolation, ValueError):
            return self._invalid_result(
                elapsed=outcome.seconds + measure_seconds,
                compile_seconds=outcome.seconds,
                measure_seconds=measure_seconds,
                artifact_hits=int(outcome.cached) + int(measure_cached),
                artifact_misses=int(not outcome.cached) + int(measured and not measure_cached),
                artifact_store_hits=int(outcome.from_store) + int(measure_from_store),
                artifact_mesh_hits=int(outcome.from_mesh) + int(measure_from_mesh),
            )
        return CandidateResult(
            fitness=score_outcome.value,
            code_size=artifact.image.code_size(),
            fingerprint=artifact.image.fingerprint(),
            valid=True,
            elapsed_seconds=outcome.seconds + measure_seconds + score_outcome.seconds,
            compile_seconds=outcome.seconds,
            measure_seconds=measure_seconds,
            score_seconds=score_outcome.seconds,
            artifact_hits=int(outcome.cached) + int(measure_cached),
            artifact_misses=int(not outcome.cached) + int(measured and not measure_cached),
            artifact_store_hits=int(outcome.from_store) + int(measure_from_store),
            artifact_mesh_hits=int(outcome.from_mesh) + int(measure_from_mesh),
        )

    def _invalid_result(
        self,
        elapsed: float,
        compile_seconds: float = 0.0,
        measure_seconds: float = 0.0,
        artifact_hits: int = 0,
        artifact_misses: int = 0,
        artifact_store_hits: int = 0,
        artifact_mesh_hits: int = 0,
    ) -> CandidateResult:
        return CandidateResult(
            fitness=self.invalid_fitness,
            code_size=0,
            fingerprint="invalid",
            valid=False,
            elapsed_seconds=elapsed,
            compile_seconds=compile_seconds,
            measure_seconds=measure_seconds,
            artifact_hits=artifact_hits,
            artifact_misses=artifact_misses,
            artifact_store_hits=artifact_store_hits,
            artifact_mesh_hits=artifact_mesh_hits,
        )

    def __call__(self, key: FlagKey) -> CandidateResult:
        return self._finish(self._compile_outcome(key))

    def evaluate_batch(self, keys: Sequence[FlagKey]) -> List[CandidateResult]:
        """Evaluate a batch with the compile lane overlapping measure+score.

        Compiles run on the persistent process-wide lane
        (:func:`shared_compile_lane` — built once, not per generation), at
        most :data:`COMPILE_LOOKAHEAD` submissions ahead of the
        measure/score lane: while candidate *k* is being measured the lane
        is already compiling *k+1* .. *k+lookahead*.  Results are consumed
        in submission order, so ordering — and therefore every record and
        fingerprint downstream — is identical to the sequential path
        regardless of lane width or lookahead.
        """
        keys = list(keys)
        if len(keys) < 2:
            return [self(key) for key in keys]
        self._ensure_stages()
        lane = shared_compile_lane()
        pending = deque()
        next_index = 0
        results: List[CandidateResult] = []
        while len(results) < len(keys):
            # Refill the window *before* finishing the head outcome, so the
            # lane keeps compiling while this thread emulates and scores.
            while next_index < len(keys) and len(pending) < COMPILE_LOOKAHEAD:
                pending.append(lane.submit(self._compile_outcome, keys[next_index]))
                next_index += 1
            results.append(self._finish(pending.popleft().result()))
        return results

    # -- artifact reuse beyond the search loop ------------------------------------

    def cached_image(self, key: FlagKey) -> Optional[BinaryImage]:
        """The compiled image of ``key`` if (and only if) it is cached.

        Never compiles: the tuner uses this to serve the final best-candidate
        build from the cache and falls back to a real compile on a miss.
        """
        compile_stage, _measure, _score = self._ensure_stages()
        artifact = compile_stage.peek(key)
        return artifact.image if artifact is not None else None

    def score_flags(self, key: FlagKey) -> float:
        """Compile (through the cache) and score one configuration.

        The ``compare_levels`` path: no functional-correctness measurement
        and no constraint check, mirroring the direct ``compile_level`` +
        fitness call it replaces — but preset builds that the search already
        produced are now cache hits instead of recompilations.
        """
        compile_stage, _measure, score_stage = self._ensure_stages()
        outcome = compile_stage.run(key, check_constraints=False)
        return score_stage.run(outcome.value).value
