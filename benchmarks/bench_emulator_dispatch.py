"""Hot-path engine bench: emulator dispatch and incremental NCD.

Measures the table engine (one compiled Python function per block, generated
once per block shape) against the reference interpreter (steps/sec on the
2-program demo), and ``JointCompressor`` against the one-shot
``compressed_size(prefix + suffix)`` per compressor — each section
parity-checked, and the whole report appended to the ``BENCH_pipeline.json``
trajectory for the CI artifact."""

import json
import os
from pathlib import Path

from conftest import run_once

from repro.experiments import run_emulator_dispatch_bench


def test_emulator_dispatch(benchmark, bench_benchmarks):
    report = run_once(
        benchmark,
        run_emulator_dispatch_bench,
        family="llvm",
        benchmark_names=tuple(bench_benchmarks[:2]),
    )
    dispatch = report["dispatch"]
    print("\nEmulator dispatch — reference vs. table/superinstruction engine:")
    for row in dispatch["rows"]:
        print(f"  {row['benchmark']:16s} {row['steps']:>9d} steps  "
              f"reference {row['reference_seconds']:6.3f}s "
              f"({row['reference_steps_per_second']:>12,.0f} steps/s)   "
              f"table {row['table_seconds']:6.3f}s "
              f"({row['table_steps_per_second']:>12,.0f} steps/s)   "
              f"{row['speedup']:.2f}x, {row['blocks']} blocks")
    print(f"  aggregate: {dispatch['aggregate_speedup']:.2f}x "
          f"({dispatch['reference_steps_per_second']:,.0f} -> "
          f"{dispatch['table_steps_per_second']:,.0f} steps/s)")
    ncd = report["ncd"]
    print("  joint compression — one-shot compressed_size vs. JointCompressor:")
    for row in ncd["rows"]:
        path = "incremental" if row["incremental_available"] else "one-shot fallback"
        print(f"    {row['compressor']:5s} one-shot {row['exact_seconds']:6.3f}s  "
              f"joint {row['incremental_seconds']:6.3f}s  "
              f"({row['speedup']:.2f}x, {path})")

    # Parity is the contract: the fast paths must be observationally
    # invisible before any speed number counts.
    assert dispatch["identical_results"]
    assert ncd["identical_values"]
    # The acceptance criterion: >= 5x steps/sec over the reference engine
    # on the 2-program demo (measured 7.5x with per-shape compiled blocks).
    assert dispatch["aggregate_speedup"] >= 5.0
    # The zlib incremental path must actually engage and win.
    zlib_row = next(r for r in ncd["rows"] if r["compressor"] == "zlib")
    assert zlib_row["incremental_available"]
    assert zlib_row["speedup"] > 1.0

    # Append to the same trajectory file the pipeline bench uses, so one CI
    # artifact carries both reports ($REPRO_BENCH_PIPELINE_JSON overrides).
    out_path = Path(
        os.environ.get("REPRO_BENCH_PIPELINE_JSON")
        or Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    )
    trajectory = []
    if out_path.exists():
        try:
            previous = json.loads(out_path.read_text())
        except (OSError, json.JSONDecodeError):
            previous = []
        if isinstance(previous, dict):
            trajectory = [previous]
        elif isinstance(previous, list):
            trajectory = previous
    trajectory.append(report)
    out_path.write_text(json.dumps(trajectory, indent=2))
