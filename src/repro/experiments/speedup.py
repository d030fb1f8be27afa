"""Table 3: execution speedup of -O3 and BinTuner builds over -O0.

The tuning half runs as one campaign per compiler family (shared pool,
sharded database) rather than a per-benchmark loop.  This module measures
the speed of the *tuned programs*; the tuner's own speed is measured in one
place, the performance ledger (``BENCHMARK.json`` -> ``benchmarks/ledger/``)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.cost_model import CostModel
from repro.experiments.scores import make_compiler, tune_suite
from repro.tuner import BinTunerConfig
from repro.workloads import benchmark


def run_table3_speedup(
    families: Sequence[str] = ("gcc", "llvm"),
    benchmarks: Sequence[str] = ("462.libquantum", "429.mcf", "coreutils", "openssl"),
    config: Optional[BinTunerConfig] = None,
) -> List[Dict[str, object]]:
    """Average speedup (in %) of O3 and BinTuner builds relative to O0.

    The paper reports hardware wall-clock speedups; here the deterministic
    emulator cycle counts play that role.  The expected shape: BinTuner's
    outputs are usually a bit slower than -O3 (NCD is the only objective), the
    exception being crypto-style workloads where the extra unrolling pays off.
    """
    rows: List[Dict[str, object]] = []
    for family in families:
        tuned_suite = tune_suite(family, list(benchmarks), config)
        for name in benchmarks:
            compiler = make_compiler(family)
            workload = benchmark(name)
            model = CostModel(args=workload.arguments, inputs=workload.inputs)
            o0 = compiler.compile_level(workload.source, "O0", name=name).image
            o3 = compiler.compile_level(workload.source, "O3", name=name).image
            tuned = tuned_suite[name].best_image
            o3_speedup = model.speedup(o0, o3) - 1.0
            tuned_speedup = model.speedup(o0, tuned) - 1.0
            rows.append(
                {
                    "compiler": family,
                    "benchmark": name,
                    "O3 speedup": f"{o3_speedup:+.1%}",
                    "BinTuner speedup": f"{tuned_speedup:+.1%}",
                    "o3_speedup": o3_speedup,
                    "bintuner_speedup": tuned_speedup,
                }
            )
    return rows
