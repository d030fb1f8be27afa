#!/usr/bin/env python3
"""Quickstart: tune one benchmark with BinTuner and compare against -Ox.

Compiles the 462.libquantum-style workload with SimLLVM at every default
optimization level, runs a short BinTuner search, and prints the NCD and
BinHunt difference scores of each setting against the -O0 baseline — a
single-benchmark slice of the paper's Figure 5.  The search runs twice,
serially and on a ``SharedWorkerPool("process", 4)`` — a local fleet of
four forked worker sessions — that the tuner borrows; the script exits
non-zero unless the two agree bit-for-bit.

Run:  python examples/quickstart.py
"""

import sys

from repro.analysis import run_program
from repro.campaign import SharedWorkerPool
from repro.compilers import SimLLVM
from repro.difftools import BinHunt, ncd_images
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec, GAParameters
from repro.workloads import benchmark


def main() -> None:
    workload = benchmark("462.libquantum")
    compiler = SimLLVM()

    print(f"== workload: {workload.name} ({workload.line_count()} lines of mini-C)")
    images = {}
    for level in ("O0", "O1", "O2", "O3"):
        result = compiler.compile_level(workload.source, level, name=workload.name)
        images[level] = result.image
        print(f"  {level}: {result.code_size:6d} bytes of code, "
              f"{len(result.flags):2d} flags, compiled in {result.elapsed_seconds:.2f}s")

    print("\n== running BinTuner (genetic algorithm, NCD fitness)")
    spec = BuildSpec(name=workload.name, source=workload.source)
    config = BinTunerConfig(max_iterations=60, ga=GAParameters(population_size=12))
    tuner = BinTuner(compiler, spec, config)
    tuned = tuner.run()
    print(f"  iterations: {tuned.iterations}, best NCD vs O0: {tuned.best_fitness:.3f}")
    print(f"  tuned flag count: {len(tuned.best_flags)} "
          f"(O3 has {len(compiler.preset('O3'))})")
    print(f"  Jaccard(O3, BinTuner) = {tuned.best_flags.jaccard(compiler.preset('O3')):.2f}")
    stats = tuned.evaluation_stats
    print(f"  evaluation engine: {stats.evaluated}/{stats.requested} candidates compiled, "
          f"{stats.cache_hits} cache hits (hit ratio {stats.hit_ratio:.0%})")

    print("\n== same search on a 4-session local fleet (identical results by design)")
    # The pool owns the forked worker sessions; the tuner only borrows them.
    with SharedWorkerPool("process", 4) as pool:
        parallel = BinTuner(SimLLVM(), spec, config, mapper_factory=pool.mapper).run()
    agree = (parallel.best_flags.sorted_names() == tuned.best_flags.sorted_names()
             and parallel.ncd_history() == tuned.ncd_history())
    print(f"  best NCD vs O0: {parallel.best_fitness:.3f} "
          f"({pool.workers} workers, generation-batched)")
    print(f"  serial and parallel runs agree bit-for-bit: {agree}")
    if not agree:
        sys.exit("serial and local-fleet runs disagree: determinism is broken")

    print("\n== difference from the O0 baseline (higher = more different)")
    binhunt = BinHunt()
    print(f"  {'setting':10s} {'NCD':>6s} {'BinHunt':>8s}")
    for level in ("O1", "O2", "O3"):
        print(f"  {level:10s} {ncd_images(images['O0'], images[level]):6.3f} "
              f"{binhunt.difference(images['O0'], images[level]):8.3f}")
    print(f"  {'BinTuner':10s} {ncd_images(images['O0'], tuned.best_image):6.3f} "
          f"{binhunt.difference(images['O0'], tuned.best_image):8.3f}")

    print("\n== functional correctness")
    baseline = run_program(images["O0"])
    tuned_run = run_program(tuned.best_image)
    assert baseline.observable_state() == tuned_run.observable_state()
    print(f"  O0 and tuned builds agree: output={baseline.output_text.strip()!r}, "
          f"return={baseline.return_value}")


if __name__ == "__main__":
    main()
