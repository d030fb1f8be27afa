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
count.  A candidate's three stages run back to back in the calling thread,
so a result's stage seconds sum to (at most) its wall clock; parallelism
lives one layer up, in the mappers (:mod:`repro.tuner.evaluation`) and the
distributed fleet.

The compile and measure stages are built at the evaluator's first use, the
fitness and its :class:`ScoreStage` at the first *score* in this process:
an orchestrator whose mapper evaluates elsewhere never builds one (the NCD
fitness compresses the baseline, and an LZMA encoder's 16 MiB match-finder
table stays resident in the building thread's malloc arena).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from threading import Lock
from typing import Callable, Dict, Optional, Sequence, Tuple

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

#: The serving tier of a hit, as the ``tier`` attribute of a stage span.
_TIER_NAMES = {MEMORY_TIER: "memory", STORE_TIER: "store", MESH_TIER: "mesh"}


class ArtifactCache:
    """Content-addressed bounded LRU shared between pipeline stages.

    Keys are flat tuples whose first element names the artifact kind
    (``"image"`` / ``"trace"``) and whose remaining elements are content
    digests, so one cache is safe to share across evaluators, programs and
    compilers: equal keys imply equal artifacts.  All operations are
    thread-safe — every thread of a thread mapper, and every slot of a
    distributed worker, shares one instance.

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
        synchronization, and a store read under this lock would stall every
        other thread sharing the cache for the duration of an unpickle.

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


def shutdown_compile_lane() -> None:
    """Does nothing — there is no compile lane; the byte-frozen
    ``benchmarks/ledger/workloads.py`` still imports and calls this."""


@dataclass(frozen=True)
class CompiledArtifact:
    """The compile stage's output: the linked image plus score-stage inputs.

    ``text_compressed_size`` is ``C(candidate .text)`` under the evaluator's
    compressor — precomputed by the compile stage so the score stage (and any
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
    """One stage execution: the artifact, its wall clock, and the tier that
    served it (:data:`MISS_TIER` when the stage did the work itself)."""

    value: object
    seconds: float
    tier: int = MISS_TIER


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
            if outcome.tier != MISS_TIER:
                span.set(tier=_TIER_NAMES[outcome.tier])
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
            return StageOutcome(artifact, time.perf_counter() - started, tier)
        image = self.compiler.compile(self.source, flags, name=self.program).image
        compressed = len(self._compress(image.text)) if self._compress else None
        artifact = CompiledArtifact(image, compressed)
        self.cache.put(cache_key, artifact)
        return StageOutcome(artifact, time.perf_counter() - started)


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
            if outcome.tier != MISS_TIER:
                span.set(tier=_TIER_NAMES[outcome.tier])
            return outcome

    def _run(self, image: BinaryImage) -> StageOutcome:
        started = time.perf_counter()
        cache_key = self.key(image)
        artifact, tier = self.cache.lookup(cache_key)
        if artifact is not None:
            return StageOutcome(artifact, time.perf_counter() - started, tier)
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
        return StageOutcome(artifact, time.perf_counter() - started)


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
        return StageOutcome(value, time.perf_counter() - started)


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
        return self._scorer().fitness

    def attach_store(self, store_dir, max_bytes: Optional[int] = None) -> None:
        """Re-point this evaluator at the disk store under ``store_dir``.

        The distributed worker's ``--store-dir`` override: the orchestrator's
        path travels in the evaluator blob but may not exist on a remote
        machine, so the worker substitutes its own local tier right after
        unpickling, before any candidate is evaluated.  ``store_dir=None``
        detaches the disk tier entirely (the worker's ``--no-store``): the
        evaluator falls back to the plain in-memory shared cache and never
        touches the orchestrator's foreign path.  The built compile and
        measure stages are discarded (they captured the old cache) and
        rebuilt lazily.
        """
        self.store_dir = str(store_dir) if store_dir is not None else None
        if max_bytes is not None:
            self.store_max_bytes = max_bytes
        with self._stage_lock:
            self._compile_stage = None
            self._measure_stage = None
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

    def _ensure_stages(self) -> Tuple[CompileStage, Optional[MeasureStage]]:
        # Thread mappers and worker slots call one shared evaluator
        # concurrently; without the lock two threads could each build a private
        # cache and stage set, silently halving reuse.  ``_compile_stage``
        # is assigned last, so the unlocked fast path only ever observes both
        # stages built.
        if self._compile_stage is None:
            with self._stage_lock:
                if self._compile_stage is None:
                    cache = self.cache()
                    if self.baseline_behaviour is not None:
                        self._measure_stage = MeasureStage(
                            self.arguments, self.inputs, self.max_emulation_steps, cache
                        )
                    # Raises on an unknown compressor before any candidate is
                    # touched; only the NCD fitness consumes C(.text).
                    self._compile_stage = CompileStage(
                        self.compiler,
                        self.source,
                        self.name,
                        cache,
                        compressor=(
                            self.compressor if self.fitness_kind != "binhunt" else None
                        ),
                    )
        return self._compile_stage, self._measure_stage

    def _scorer(self) -> ScoreStage:
        # Built by the first score in this process, never by
        # ``cached_image``.  Under the stage lock for the stages' reason: two
        # scoring threads must share one fitness (one baseline compression,
        # one LRU).
        if self._score_stage is None:
            with self._stage_lock:
                if self._score_stage is None:
                    if self._fitness is None:
                        self._fitness = make_fitness(
                            self.fitness_kind, self.baseline, self.compressor
                        )
                    self._score_stage = ScoreStage(self._fitness)
        return self._score_stage

    # -- candidate evaluation -----------------------------------------------------

    def __call__(self, key: FlagKey) -> CandidateResult:
        """Compile → measure → score ``key`` in the calling thread.

        A domain failure ends the candidate at the stage that raised it; the
        result is built below from whichever stage outcomes exist, so its
        seconds and cache provenance describe exactly the work that ran.
        """
        compile_stage, measure_stage = self._ensure_stages()
        # Outside the ``try``: a fitness that cannot be built is a
        # configuration error and propagates; it is never a penalty record.
        score_stage = self._scorer()
        compiled = trace = scored = None
        started = time.perf_counter()
        try:
            compiled = compile_stage.run(key)
            if measure_stage is not None:
                trace = measure_stage.run(compiled.value.image)
                if trace.value.behaviour != self.baseline_behaviour:
                    raise CompilationError("tuned binary changed observable behaviour")
            scored = score_stage.run(compiled.value)
        except (CompilationError, EmulationError, ConstraintViolation, ValueError):
            pass
        elapsed = time.perf_counter() - started
        valid = scored is not None
        image = compiled.value.image if valid else None
        tiers = [outcome.tier for outcome in (compiled, trace) if outcome is not None]
        return CandidateResult(
            fitness=scored.value if valid else self.invalid_fitness,
            code_size=image.code_size() if valid else 0,
            fingerprint=image.fingerprint() if valid else "invalid",
            valid=valid,
            elapsed_seconds=elapsed,
            # A compile that raised still cost its time.
            compile_seconds=compiled.seconds if compiled is not None else elapsed,
            measure_seconds=trace.seconds if trace is not None else 0.0,
            score_seconds=scored.seconds if valid else 0.0,
            artifact_hits=len(tiers) - tiers.count(MISS_TIER),
            artifact_misses=tiers.count(MISS_TIER),
            artifact_store_hits=tiers.count(STORE_TIER),
            artifact_mesh_hits=tiers.count(MESH_TIER),
        )

    # -- artifact reuse beyond the search loop ------------------------------------

    def cached_image(self, key: FlagKey) -> Optional[BinaryImage]:
        """The compiled image of ``key`` if (and only if) it is cached.

        Never compiles: the tuner uses this to serve the final best-candidate
        build from the cache and falls back to a real compile on a miss.
        """
        compile_stage, _measure = self._ensure_stages()
        artifact = compile_stage.peek(key)
        return artifact.image if artifact is not None else None

    def score_flags(self, key: FlagKey) -> float:
        """Compile (through the cache) and score one configuration.

        The ``compare_levels`` path: no functional-correctness measurement
        and no constraint check, mirroring the direct ``compile_level`` +
        fitness call it replaces — but preset builds that the search already
        produced are now cache hits instead of recompilations.
        """
        compile_stage, _measure = self._ensure_stages()
        score_stage = self._scorer()
        outcome = compile_stage.run(key, check_constraints=False)
        return score_stage.run(outcome.value).value
