"""The per-layer replay behind ``--trace 1``.

The program's own ``stage_seconds`` are not additive (compile-lane threads
time each other's GIL waits), so the ledger takes the candidates one untraced
cycle evaluated and runs them again, *serially*, through each layer's public
functions with a span around every call.  Every replayed candidate is also
checked: its decomposed compile must link to the same image as
``Compiler.compile``, its behaviour must equal the pinned ``-O0`` state, and
its fitness and image fingerprint must equal what the run recorded.

The replay mirrors the run's two-tier lookup (memory cache, then store, then
produce) so each workload exercises the tiers it really used: cold runs
produce and write, the disk-tier rerun reads the store, the memory-tier rerun
only hits the cache.
"""

from __future__ import annotations

import pickle
import socket
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.emulator import decoded_program, reset_decoded_programs, run_program
from repro.backend.codegen import generate_module
from repro.backend.linker import link_module
from repro.backend.regalloc import allocate_registers
from repro.campaign.campaign import default_compiler_provider
from repro.difftools.ncd import CachedNCDFitness, compressed_size
from repro.distrib.jobs import JobBudget
from repro.distrib.protocol import BatchResult, EvalBatch, recv_message, send_message
from repro.distrib.wire import decode_payload, encode_payload, make_message
from repro.ir.builder import build_module
from repro.minic.parser import parse_program
from repro.minic.semantic import analyze
from repro.opt.flags import FlagVector
from repro.opt.pass_manager import optimization_report
from repro.tuner import (
    ArtifactCache,
    BinTuner,
    BinTunerConfig,
    CandidateResult,
    CompiledArtifact,
    CompileStage,
    ConstraintEngine,
    GAParameters,
    GeneticAlgorithm,
    MeasureStage,
    TraceArtifact,
    TuningDatabase,
)
from repro.tuner.store import ArtifactStore

from tracer import Tracer
from workloads import NO_STALL, POPULATION, Cycle, JobRun

COMPRESSOR = BinTunerConfig.compressor
MAX_STEPS = BinTunerConfig.max_emulation_steps

#: Spans whose self time counts toward ``trace.accounted_share``: one per
#: layer call the run itself makes.  ``compilers.compile`` (the whole the
#: decomposition is checked against), ``backend.regalloc`` (done again inside
#: ``backend.codegen``) and the replay's own glue are left out.
LAYER_SPANS = (
    "minic.frontend", "ir.build", "ir.clone", "opt.passes", "backend.codegen",
    "backend.link", "emulator.decode", "emulator.run", "ncd.compress",
    "ncd.joint", "search.propose", "constraints.check", "database.fingerprint",
    "cache.lookup", "cache.put", "store.get", "store.put",
)


class _RecordedFitness:
    """The timing proxy engine: answers the GA from the recorded fitness of
    each flag key, so ``search.propose`` self time is the GA's own work."""

    def __init__(self, tracer: Tracer, records) -> None:
        self._tracer = tracer
        self._fitness = {record.flag_key(): record.fitness for record in records}
        self.requested = 0

    def evaluate_batch(self, batch: Sequence[FlagVector]) -> List[float]:
        with self._tracer.span("replay.proxy"):
            self.requested += len(batch)
            return [self._fitness[tuple(vector.sorted_names())] for vector in batch]


class Replay:
    """Replays one cycle's jobs into a :class:`Tracer`."""

    def __init__(self, tracer: Tracer, program_pins: Dict[str, Dict[str, object]],
                 scratch: Path, store_dir: Optional[Path]) -> None:
        self.tracer = tracer
        self.failures: List[str] = []
        self._pins = program_pins
        self._scratch = Path(scratch)
        self._cache = ArtifactCache()
        #: The disk tier the run used: its own populated store (warm_restart),
        #: an empty scratch one (cold_tune), or none.
        self._store = ArtifactStore(store_dir) if store_dir is not None else None

    # -- the two-tier lookup --------------------------------------------------------

    def _artifact(self, key: Tuple, produce):
        span = self.tracer.span
        with span("cache.lookup"):
            value, _tier = self._cache.lookup(key)
        if value is not None:
            return value
        if self._store is not None:
            with span("store.get"):
                value = self._store.get(key)
        if value is None:
            value = produce()
            if self._store is not None:
                with span("store.put"):
                    self._store.put(key, value)
        with span("cache.put"):
            self._cache.put(key, value)
        return value

    # -- layers ---------------------------------------------------------------------

    def _compile(self, compiler, module, job: JobRun, flags: FlagVector,
                 compress: bool) -> CompiledArtifact:
        span, count = self.tracer.span, self.tracer.count
        name = job.spec.name
        with span("compilers.compile"):
            whole = compiler.compile(job.spec.source, flags, name=name).image
        count("compilers.compiles")
        with span("ir.clone"):
            work = module.clone()
        with span("opt.passes"):
            optimized = compiler.pass_manager.run(work, flags, clone=False)
        count("opt.passes_applied", sum(optimization_report(optimized).values()))
        count("opt.ir_instructions_after", optimized.total_instructions())
        # The family's codegen personality is a private hook of the driver;
        # there is no public way to obtain the options compile() uses.
        options = compiler._personalize_codegen(
            compiler.pass_manager.codegen_options(flags), flags)
        with span("backend.regalloc"):
            for function in optimized.functions.values():
                allocate_registers(function, enable=options.regalloc)
        with span("backend.codegen"):
            codes = generate_module(optimized, options)
        with span("backend.link"):
            image = link_module(optimized, codes=codes, options=options, name=name)
        count("backend.code_bytes", image.code_size())
        if image.sha256() != whole.sha256():
            self.failures.append(
                f"{job.key()}: layer-by-layer compile differs from Compiler.compile")
        if not compress:
            return CompiledArtifact(whole)
        with span("ncd.compress"):
            size = compressed_size(whole.text, COMPRESSOR)
        count("ncd.bytes", len(whole.text))
        return CompiledArtifact(whole, size)

    def _measure(self, job: JobRun, image) -> TraceArtifact:
        span, count = self.tracer.span, self.tracer.count
        with span("emulator.decode"):
            decoded_program(image.text)
        with span("emulator.run"):
            result = run_program(image, args=job.spec.arguments,
                                 inputs=job.spec.inputs, max_steps=MAX_STEPS)
        count("emulator.steps", result.steps)
        count("emulator.blocks", result.blocks)
        return TraceArtifact(result.observable_state(), result.steps, result.cycles)

    def _candidate(self, compiler, module, job: JobRun, stages, flag_key,
                   compress: bool = True):
        """Image and behaviour of one flag key through the two-tier lookup."""
        compile_stage, measure_stage = stages
        flags = FlagVector(compiler.registry, frozenset(flag_key))
        artifact = self._artifact(
            compile_stage.key(flag_key),
            lambda: self._compile(compiler, module(), job, flags, compress))
        trace = self._artifact(
            measure_stage.key(artifact.image),
            lambda: self._measure(job, artifact.image))
        pinned = self._pins[job.spec.name]["o0"]
        if list(trace.behaviour) != list(pinned):
            self.failures.append(
                f"{job.key()} {'+'.join(flag_key) or '-O0'}: behaviour "
                f"{trace.behaviour!r} differs from pinned {pinned!r}")
        return artifact

    def _job(self, job: JobRun) -> None:
        span, count = self.tracer.span, self.tracer.count
        compiler = default_compiler_provider(job.family)
        constraints = ConstraintEngine(compiler.registry)
        frontend: List[object] = []

        def module():
            """The frontend's IR, built on the first real compile only (a
            warm rerun never parses)."""
            if not frontend:
                with span("minic.frontend"):
                    program = parse_program(job.spec.source, name=job.spec.name)
                    info = analyze(program)
                with span("ir.build"):
                    frontend.append(build_module(program, info))
                count("ir.instructions", frontend[0].total_instructions())
            return frontend[0]

        stages = (
            CompileStage(compiler, job.spec.source, job.spec.name, self._cache,
                         compressor=COMPRESSOR),
            MeasureStage(job.spec.arguments, job.spec.inputs, MAX_STEPS, self._cache),
        )
        # The tuner's baseline artifact carries no precomputed size, and its
        # content address says so.
        baseline = self._candidate(
            compiler, module, job,
            (CompileStage(compiler, job.spec.source, job.spec.name, self._cache),
             stages[1]),
            tuple(compiler.preset("O0").sorted_names()), compress=False)
        with span("ncd.compress"):
            fitness = CachedNCDFitness(baseline.image, compressor=COMPRESSOR)
        count("ncd.bytes", len(baseline.image.text))

        database = TuningDatabase(program=job.spec.name, compiler=job.family)
        for record in job.records:
            with span("replay.candidate"):
                flags = FlagVector(compiler.registry, frozenset(record.flags))
                with span("constraints.check"):
                    constraints.check(flags)
                artifact = self._candidate(compiler, module, job, stages, record.flag_key())
                with span("ncd.joint"):
                    value = fitness.score_artifact(
                        artifact.image, artifact.text_compressed_size)
                count("ncd.bytes", len(baseline.image.text) + len(artifact.image.text))
                if (value != record.fitness
                        or artifact.image.fingerprint() != record.fingerprint):
                    self.failures.append(
                        f"{job.key()} iteration {record.iteration}: replay scored "
                        f"{value!r}, the run recorded {record.fitness!r}")
                database.record(record)

        registry = compiler.registry
        known = set(registry.flag_names())
        search = GeneticAlgorithm(
            registry, constraints, GAParameters(population_size=POPULATION),
            seeds=[FlagVector(registry, frozenset(n for n in names if n in known))
                   for names in job.warm_start])
        proxy = _RecordedFitness(self.tracer, job.records)
        try:
            with span("search.propose"):
                search.run(proxy, max_iterations=job.max_iterations,
                           target_growth_rate=BinTunerConfig.target_growth_rate,
                           stall_window=NO_STALL)
        except KeyError:
            self.failures.append(f"{job.key()}: replayed search left the recorded path")
        if proxy.requested != job.requested:
            self.failures.append(
                f"{job.key()}: replayed search requested {proxy.requested}, "
                f"the run {job.requested}")
        with span("database.fingerprint"):
            fingerprint = database.fingerprint()
        if fingerprint != job.fingerprint:
            self.failures.append(f"{job.key()}: replayed database fingerprint differs")
        with span("database.save"):
            database.save(self._scratch / "replay-database.json")

    # -- the service's own layers ---------------------------------------------------

    def _solo(self, job: JobRun) -> bytes:
        """Recover a service job's records from a solo run of its spec (the
        service's parity contract) and return the evaluator blob a worker
        would have been sent."""
        tuner = BinTuner(
            default_compiler_provider(job.family), job.spec,
            BinTunerConfig(pipeline="staged", **JobBudget(
                job.max_iterations // POPULATION, POPULATION,
                NO_STALL).tuner_config_kwargs()))
        try:
            result = tuner.run()
            blob = pickle.dumps(tuner.evaluation_engine().evaluator)
        finally:
            tuner.close()
        job.records = list(result.database.records)
        if result.database.fingerprint() != job.fingerprint:
            self.failures.append(
                f"{job.key()}: service fingerprint differs from a solo run's")
        return blob

    def _wire(self, job: JobRun) -> None:
        span, count = self.tracer.span, self.tracer.count
        messages = [make_message(
            "submit", tenant="tenant", program=job.spec.name, source=job.spec.source,
            family=job.family, priority=0,
            budget={"generations": job.max_iterations // POPULATION,
                    "population": POPULATION, "stall_window": NO_STALL})]
        messages += [
            make_message("event", job_id="job-00000", seq=event["seq"],
                         kind=event["kind"], data=event["data"])
            for event in job.events
        ]
        for message in messages:
            with span("wire.encode"):
                payload = encode_payload(message)
            with span("wire.decode"):
                decode_payload(payload)
            count("wire.bytes", len(payload))

    def _protocol(self, job: JobRun, blob: bytes, left, right, pool) -> None:
        generations: Dict[int, list] = {}
        for record in job.records:
            generations.setdefault(record.generation, []).append(record)
        for index, (_generation, records) in enumerate(sorted(generations.items())):
            batch = EvalBatch(
                evaluator_id=1,
                tasks=tuple((slot, record.flag_key()) for slot, record in enumerate(records)),
                blob=blob if index == 0 else None)
            reply = BatchResult(1, tuple(
                (slot, CandidateResult(record.fitness, record.code_size,
                                       record.fingerprint, record.valid,
                                       record.elapsed_seconds, staged=True))
                for slot, record in enumerate(records)))
            with self.tracer.span("protocol.roundtrip"):
                for sender, receiver, message in ((left, right, batch), (right, left, reply)):
                    received = pool.submit(recv_message, receiver)
                    send_message(sender, message)
                    received.result(timeout=30)
            self.tracer.count(
                "protocol.bytes",
                len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL))
                + len(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)))

    # -- entry ----------------------------------------------------------------------

    def run(self, cycle: Cycle) -> None:
        reset_decoded_programs()
        service_jobs = [job for job in cycle.jobs if job.records is None]
        blobs = [self._solo(job) for job in service_jobs]
        with self.tracer.span("replay"):
            for job in cycle.jobs:
                with self.tracer.span("replay.job"):
                    self._job(job)
            if service_jobs:
                left, right = socket.socketpair()
                try:
                    with ThreadPoolExecutor(max_workers=1) as pool:
                        for job, blob in zip(service_jobs, blobs):
                            self._wire(job)
                            self._protocol(job, blob, left, right, pool)
                finally:
                    left.close()
                    right.close()

    def cache_and_store_counts(self) -> Dict[str, float]:
        store = self._store.stats() if self._store is not None else {}
        return {
            "cache.hit_ratio": self._cache.hit_ratio,
            "cache.entries": len(self._cache),
            "store.bytes": store.get("bytes", 0),
            "store.entries": store.get("entries", 0),
            "store.hit_ratio": self._store.hit_ratio if self._store is not None else 0.0,
        }
