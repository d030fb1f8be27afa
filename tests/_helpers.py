"""Shared test helpers (importable, unlike conftest: ``benchmarks/`` has its
own conftest.py that wins the ``conftest`` module name in full-repo runs)."""

from __future__ import annotations

import inspect
import socket
import time


def reference_evaluator(
    compiler,
    source,
    name,
    baseline,
    baseline_behaviour=None,
    arguments=(),
    inputs=(),
    fitness_kind="ncd",
    compressor="lzma",
    invalid_fitness=-1.0,
    max_emulation_steps=2_000_000,
):
    """The test oracle: compile -> ``run_program`` -> fitness as one closure.

    A plain ``FlagKey -> CandidateResult`` callable with no stages and no
    artifact cache — the evaluator the staged pipeline
    replaced, kept here as the reference every staged result must equal
    (fitness, code size, fingerprint, validity; timing differs).
    """
    from repro.analysis.emulator import EmulationError, run_program
    from repro.compilers.base import CompilationError
    from repro.opt.flags import FlagVector
    from repro.tuner import CandidateResult, ConstraintEngine, ConstraintViolation
    from repro.tuner.pipeline import make_fitness

    constraints = ConstraintEngine(compiler.registry)
    # Built up front so configuration errors (an unknown compressor)
    # propagate instead of scoring a penalty.
    fitness_fn = make_fitness(fitness_kind, baseline, compressor)

    def evaluate(key):
        started = time.perf_counter()
        try:
            flags = constraints.check(FlagVector(compiler.registry, frozenset(key)))
            image = compiler.compile(source, flags, name=name).image
            if baseline_behaviour is not None:
                behaviour = run_program(
                    image, args=arguments, inputs=inputs, max_steps=max_emulation_steps
                ).observable_state()
                if behaviour != baseline_behaviour:
                    raise CompilationError("tuned binary changed observable behaviour")
            return CandidateResult(
                fitness=fitness_fn(image),
                code_size=image.code_size(),
                fingerprint=image.fingerprint(),
                valid=True,
                elapsed_seconds=time.perf_counter() - started,
            )
        except (CompilationError, EmulationError, ConstraintViolation, ValueError):
            return CandidateResult(
                fitness=invalid_fitness,
                code_size=0,
                fingerprint="invalid",
                valid=False,
                elapsed_seconds=time.perf_counter() - started,
            )

    return evaluate


def reference_mapper(staged):
    """``BinTuner(..., mapper_factory=reference_mapper)``: a whole *run*
    evaluated inline by the oracle built from the staged evaluator's fields,
    so the reference fingerprint needs no production knob."""
    from repro.tuner import LocalMapper

    # The oracle's parameters are exactly the build-spec fields it shares
    # with the staged evaluator.
    fields = inspect.signature(reference_evaluator).parameters
    return LocalMapper(
        reference_evaluator(**{name: getattr(staged, name) for name in fields})
    )


def fresh_process_state() -> None:
    """Forget every process-global artifact cache and store instance.

    A freshly started interpreter holds no in-memory artifact state; this
    puts the test process in the same position, so that any warmth a
    subsequent run shows can only have come from the disk-backed store.
    Shared by the restart-warmth tests across modules — a new process-global
    registry must be added here, once, to keep all of them honest.
    """
    from repro.analysis.emulator import reset_decoded_programs
    from repro.tuner import reset_persistent_stores, reset_shared_artifact_caches

    reset_shared_artifact_caches()
    reset_persistent_stores()
    reset_decoded_programs()


def loopback_available() -> bool:
    """Whether this sandbox can bind AF_INET loopback (distrib test gate)."""
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False
