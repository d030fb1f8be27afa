"""Table 3: execution speedup comparison (O3 vs BinTuner, relative to O0)."""

from conftest import run_once

from repro.experiments import run_table3_speedup


def test_table3_speedup(benchmark, tuning_config, bench_benchmarks):
    rows = run_once(
        benchmark,
        run_table3_speedup,
        families=("llvm",),
        benchmarks=bench_benchmarks[:2],
        config=tuning_config,
    )
    print("\nTable 3 — speedup over O0 (emulator cycle counts):")
    for row in rows:
        print(f"  {row['compiler']:5s} {row['benchmark']:16s} "
              f"O3 {row['O3 speedup']:>8s}   BinTuner {row['BinTuner speedup']:>8s}")
    # Both optimized builds must beat the O0 baseline.
    assert all(row["o3_speedup"] > 0 for row in rows)
    assert all(row["bintuner_speedup"] > -0.2 for row in rows)
