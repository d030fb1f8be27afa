"""Experiments built around BinTuner runs and BinHunt scores.

Covers Figure 5 (BinHunt difference scores of -Ox vs BinTuner), Table 1
(search cost), Figure 6 (NCD variation over iterations), Tables 4/5 (cross
comparisons), Figure 10 (NCD vs BinHunt correlation) and Tables 7/8 (matched
code-representation ratios).

Multi-benchmark drivers (Fig. 5, Table 1, Tables 7/8) run on the campaign
layer via :func:`tune_suite` — one shared worker pool and one sharded
database per suite — instead of hand-written per-benchmark loops.  Campaign
warm starting stays off in the drivers to preserve the paper's independent
per-program methodology.  Single-benchmark drivers keep
:func:`tune_benchmark`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign import Campaign, CampaignConfig, ProgramJob, ProgramResult
from repro.compilers import SimGCC, SimLLVM
from repro.compilers.base import Compiler
from repro.difftools import BinHunt, matched_ratios, ncd_images
from repro.tuner import BinTuner, BinTunerConfig, BuildSpec, GAParameters, TuningResult
from repro.workloads import benchmark, suite_benchmarks, SUITES

#: Benchmarks used when ``quick`` mode trims the corpus.
QUICK_BENCHMARKS = ["462.libquantum", "429.mcf", "445.gobmk", "coreutils", "openssl"]

#: Default levels compared against the O0 baseline, per compiler.
LEVELS = {"gcc": ["Os", "O1", "O2", "O3"], "llvm": ["O1", "O2", "O3"]}


def make_compiler(family: str) -> Compiler:
    return SimGCC() if family == "gcc" else SimLLVM()


def quick_config(max_iterations: int = 60) -> BinTunerConfig:
    """A reduced-budget configuration preserving the experiment shape."""
    return BinTunerConfig(
        max_iterations=max_iterations,
        ga=GAParameters(population_size=12, elite_count=2),
        stall_window=30,
    )


def tune_benchmark(
    family: str,
    name: str,
    config: Optional[BinTunerConfig] = None,
) -> TuningResult:
    """Run BinTuner on one benchmark with one compiler family."""
    workload = benchmark(name)
    compiler = make_compiler(family)
    spec = BuildSpec(
        name=workload.name,
        source=workload.source,
        arguments=workload.arguments,
        inputs=workload.inputs,
    )
    tuner = BinTuner(compiler, spec, config or quick_config())
    return tuner.run()


def tune_suite(
    family: str,
    names: Sequence[str],
    config: Optional[BinTunerConfig] = None,
    workers: int = 1,
    warm_start: bool = False,
) -> Dict[str, ProgramResult]:
    """Tune several benchmarks as one campaign (the suite-scale replacement
    for per-benchmark ``tune_benchmark`` loops): one shared worker pool and
    one sharded database.  Warm starting defaults *off* here — the paper
    tunes every program independently, and Table 1's search costs would be
    understated if benchmark N were seeded with benchmarks 1..N-1's bests —
    so cross-program seeding is an explicit opt-in.  Returns one
    :class:`ProgramResult` per benchmark name."""
    campaign = Campaign(
        [ProgramJob(family, name) for name in names],
        CampaignConfig(
            tuner=config or quick_config(),
            workers=workers,
            warm_start=warm_start,
        ),
    )
    result = campaign.run()
    return {program.job.program: program for program in result.programs}


@dataclass
class BenchmarkScores:
    """One bar group of Figure 5."""

    benchmark: str
    family: str
    level_scores: Dict[str, float]
    bintuner_score: float
    bintuner_vs_o3: float
    iterations: int
    hours: float
    improvement_over_o3: float

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"benchmark": self.benchmark, "compiler": self.family}
        row.update({f"{level} vs O0": round(score, 3) for level, score in self.level_scores.items()})
        row["BinTuner vs O0"] = round(self.bintuner_score, 3)
        row["BinTuner vs O3"] = round(self.bintuner_vs_o3, 3)
        row["improvement over O3"] = f"{self.improvement_over_o3:+.1%}"
        row["iterations"] = self.iterations
        return row


def run_fig5_binhunt_scores(
    family: str = "llvm",
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[BinTunerConfig] = None,
) -> List[BenchmarkScores]:
    """Figure 5: BinHunt difference scores under -Ox and BinTuner settings."""
    names = list(benchmarks) if benchmarks is not None else QUICK_BENCHMARKS
    binhunt = BinHunt()
    tuned_suite = tune_suite(family, names, config)
    results: List[BenchmarkScores] = []
    for name in names:
        compiler = make_compiler(family)
        workload = benchmark(name)
        images = {
            level: compiler.compile_level(workload.source, level, name=name).image
            for level in ["O0"] + LEVELS[family]
        }
        tuned = tuned_suite[name]
        level_scores = {
            level: binhunt.difference(images["O0"], images[level]) for level in LEVELS[family]
        }
        bintuner_score = binhunt.difference(images["O0"], tuned.best_image)
        o3_score = level_scores.get("O3", max(level_scores.values()))
        results.append(
            BenchmarkScores(
                benchmark=name,
                family=family,
                level_scores=level_scores,
                bintuner_score=bintuner_score,
                bintuner_vs_o3=binhunt.difference(images["O3"], tuned.best_image),
                iterations=tuned.iterations,
                hours=tuned.elapsed_seconds / 3600.0,
                improvement_over_o3=(bintuner_score - o3_score) / o3_score if o3_score else 0.0,
            )
        )
    return results


def run_table1_search_cost(
    families: Sequence[str] = ("llvm", "gcc"),
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[BinTunerConfig] = None,
) -> List[Dict[str, object]]:
    """Table 1: iteration counts and wall-clock hours per suite (min/max/median)."""
    import numpy as np
    names = list(benchmarks) if benchmarks is not None else QUICK_BENCHMARKS
    rows: List[Dict[str, object]] = []
    for family in families:
        tuned_suite = tune_suite(family, names, config)
        iterations = [tuned_suite[name].iterations for name in names]
        hours = [tuned_suite[name].elapsed_seconds / 3600.0 for name in names]
        rows.append(
            {
                "compiler": family,
                "benchmarks": len(names),
                "iterations (min, max, median)": (
                    int(np.min(iterations)),
                    int(np.max(iterations)),
                    int(np.median(iterations)),
                ),
                "hours (min, max, median)": (
                    round(float(np.min(hours)), 4),
                    round(float(np.max(hours)), 4),
                    round(float(np.median(hours)), 4),
                ),
            }
        )
    return rows


def run_fig6_ncd_variation(
    cases: Sequence[Tuple[str, str]] = (
        ("llvm", "462.libquantum"),
        ("llvm", "445.gobmk"),
        ("gcc", "coreutils"),
        ("gcc", "429.mcf"),
    ),
    config: Optional[BinTunerConfig] = None,
) -> Dict[str, Dict[str, object]]:
    """Figure 6: best-so-far NCD over BinTuner iterations, with -Ox reference lines."""
    out: Dict[str, Dict[str, object]] = {}
    for family, name in cases:
        compiler = make_compiler(family)
        workload = benchmark(name)
        result = tune_benchmark(family, name, config)
        o0 = compiler.compile_level(workload.source, "O0", name=name).image
        reference_lines = {
            level: ncd_images(o0, compiler.compile_level(workload.source, level, name=name).image)
            for level in LEVELS[family]
        }
        out[f"{family}:{name}"] = {
            "ncd_curve": result.ncd_history(),
            "reference": {level: round(value, 4) for level, value in reference_lines.items()},
            "final": round(result.best_fitness, 4),
            "iterations": result.iterations,
        }
    return out


def run_table45_cross_comparison(
    family: str = "llvm",
    name: str = "462.libquantum",
    config: Optional[BinTunerConfig] = None,
) -> Dict[str, Dict[str, float]]:
    """Tables 4/5: all-pairs BinHunt cross comparison among -Ox and BinTuner."""
    compiler = make_compiler(family)
    workload = benchmark(name)
    levels = ["O0"] + LEVELS[family]
    images = {
        level: compiler.compile_level(workload.source, level, name=name).image for level in levels
    }
    images["BinTuner"] = tune_benchmark(family, name, config).best_image
    binhunt = BinHunt()
    matrix: Dict[str, Dict[str, float]] = {}
    for left in images:
        matrix[left] = {}
        for right in images:
            if left == right:
                continue
            matrix[left][right] = round(binhunt.difference(images[left], images[right]), 3)
        matrix[left]["Sum"] = round(sum(matrix[left].values()), 3)
    return matrix


def run_fig10_ncd_binhunt_correlation(
    cases: Sequence[Tuple[str, str]] = (("llvm", "462.libquantum"), ("gcc", "429.mcf")),
    samples: int = 24,
) -> Dict[str, float]:
    """Figure 10: Pearson correlation between NCD and BinHunt difference scores.

    Random valid flag vectors are compiled; both metrics are computed against
    the O0 baseline and correlated.
    """
    import random as _random

    import numpy as np

    from repro.tuner.constraints import ConstraintEngine

    out: Dict[str, float] = {}
    binhunt = BinHunt()
    for family, name in cases:
        compiler = make_compiler(family)
        workload = benchmark(name)
        baseline = compiler.compile_level(workload.source, "O0", name=name).image
        engine = ConstraintEngine(compiler.registry)
        # crc32, not hash(): str hashing is salted per process.
        rng = _random.Random(3 + zlib.crc32(name.encode()) % 1000)
        ncd_values: List[float] = []
        binhunt_values: List[float] = []
        flag_names = compiler.registry.flag_names()
        for _ in range(samples):
            density = rng.uniform(0.15, 0.85)
            bits = [1 if rng.random() < density else 0 for _ in flag_names]
            flags = engine.sanitize_bits(bits)
            image = compiler.compile(workload.source, flags, name=name).image
            ncd_values.append(ncd_images(baseline, image))
            binhunt_values.append(binhunt.difference(baseline, image))
        if np.std(ncd_values) == 0 or np.std(binhunt_values) == 0:
            correlation = 0.0
        else:
            correlation = float(np.corrcoef(ncd_values, binhunt_values)[0, 1])
        out[f"{family}:{name}"] = round(correlation, 3)
    return out


def run_table78_matched_ratios(
    family: str = "llvm",
    benchmarks: Optional[Sequence[str]] = None,
    config: Optional[BinTunerConfig] = None,
) -> List[Dict[str, object]]:
    """Tables 7/8: matched basic-block / CFG-edge / function ratios per setting."""
    names = list(benchmarks) if benchmarks is not None else QUICK_BENCHMARKS[:3]
    binhunt = BinHunt()
    tuned_suite = tune_suite(family, names, config)
    rows: List[Dict[str, object]] = []
    for name in names:
        compiler = make_compiler(family)
        workload = benchmark(name)
        o0 = compiler.compile_level(workload.source, "O0", name=name).image
        row: Dict[str, object] = {"benchmark": name, "compiler": family}
        settings: Dict[str, object] = {
            level: compiler.compile_level(workload.source, level, name=name).image
            for level in LEVELS[family]
        }
        settings["BinTuner"] = tuned_suite[name].best_image
        for setting, image in settings.items():
            ratios = matched_ratios(binhunt.compare(o0, image))
            row[f"{setting} vs O0"] = ratios.as_tuple_text()
            row[f"{setting} vs O0 (block ratio)"] = round(ratios.block_ratio, 3)
        rows.append(row)
    return rows
