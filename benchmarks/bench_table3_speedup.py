"""Table 3: execution speedup comparison (O3 vs BinTuner, relative to O0),
plus the evaluation-engine serial-vs-parallel wall-clock / cache-hit report
and the cold / warm / restart pipeline comparison (per-stage wall clock,
artifact-cache hit ratio, plus the cold-vs-warm-*restart* wall clock,
tier-2 disk-store hit ratio, the cold-join-vs-mesh-join wall clock and
mesh hit ratio of a fresh machine joining over the artifact mesh, and the
telemetry overhead — enabled-vs-disabled wall clock of the same rerun;
exported to ``$REPRO_BENCH_PIPELINE_JSON`` for the CI artifact)."""

import json
import os
from pathlib import Path

from conftest import run_once

from repro.experiments import (
    run_parallel_evaluation_speedup,
    run_pipeline_comparison,
    run_table3_speedup,
)


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


def test_parallel_evaluation_speedup(benchmark, tuning_config, bench_benchmarks):
    report = run_once(
        benchmark,
        run_parallel_evaluation_speedup,
        family="llvm",
        name=bench_benchmarks[0],
        config=tuning_config,
        workers=4,
    )
    print("\nEvaluation engine — serial vs. 4-worker process pool:")
    print(f"  serial   {report['serial_seconds']:7.2f}s")
    print(f"  parallel {report['parallel_seconds']:7.2f}s  "
          f"(wall-clock speedup {report['wall_clock_speedup']:.2f}x; "
          f"values < 1 mean process spawn dominated on this hardware)")
    print(f"  engine dedup: {report['evaluated']}/{report['requested']} compiled, "
          f"{report['cache_hits']} cache hits "
          f"(hit ratio {report['cache_hit_ratio']:.1%})")
    # The reproducibility contract is hardware-independent: both engines must
    # agree bit-for-bit, and dedup must have saved at least one compile.
    assert report["identical_best_flags"] and report["identical_history"]
    assert report["evaluated"] + report["cache_hits"] == report["requested"]
    # GA elitism resubmits elites every generation, so dedup always saves work.
    assert report["cache_hits"] > 0


def test_pipeline_comparison(benchmark, tuning_config, bench_benchmarks):
    report = run_once(
        benchmark,
        run_pipeline_comparison,
        family="llvm",
        benchmarks=tuple(bench_benchmarks[:2]),
        config=tuning_config,
    )
    stages = report["stage_seconds"]
    print("\nEvaluation pipeline — cold vs. warm vs. restart (2-program campaign):")
    print(f"  staged cold {report['staged_seconds']:7.2f}s  "
          f"(compile {stages['compile']:.2f}s, measure {stages['measure']:.2f}s, "
          f"score {stages['score']:.2f}s)")
    print(f"  staged warm {report['warm_rerun_seconds']:7.2f}s  "
          f"(rerun against the populated artifact cache, "
          f"{report['warm_rerun_speedup']:.2f}x vs cold)")
    print(f"  warm restart {report['warm_restart_seconds']:6.2f}s  "
          f"(fresh cache over the same disk store — a restarted process — "
          f"{report['warm_restart_speedup']:.2f}x vs cold, "
          f"tier-2 hit ratio {report['restart_tier2_hit_ratio']:.1%}, "
          f"{report['restart_tier2_hits']} disk hits)")
    print(f"  artifact cache: warm hit ratio {report['warm_artifact_hit_ratio']:.1%} "
          f"({report['warm_artifact_hits']} hits), "
          f"{report['artifact_cache']['entries']} entries, "
          f"{report['artifact_cache']['evictions']} evictions")
    # Determinism is the contract: all three runs, one fingerprint.  (The
    # cold path's cost gate is the ledger's cold_tune wall_s bound.)
    assert report["identical_fingerprints"]
    # The warm rerun must actually reuse artifacts (the acceptance criterion:
    # artifact-cache hit ratio > 0 on a warm-started campaign rerun).
    assert report["warm_artifact_hits"] > 0
    assert report["warm_artifact_hit_ratio"] > 0.0
    # The restart must be served by the *disk* tier: nothing recompiled.
    assert report["restart_artifact_misses"] == 0
    assert report["restart_tier2_hits"] > 0
    observed = report["telemetry"]
    print(f"  telemetry   {observed['enabled_seconds']:7.2f}s enabled vs "
          f"{observed['disabled_seconds']:.2f}s disabled "
          f"(overhead ratio {observed['overhead_ratio']:.3f}, "
          f"{observed['events']} events recorded)")
    # Observe-only: recording every span must not change a single record.
    assert observed["identical_fingerprints"]
    assert observed["events"] > 0
    live = report["observability"]
    scrape = ("scrape ok" if live["scrape_ok"]
              else "scrape skipped (no loopback)" if live["scrape_ok"] is None
              else "SCRAPE FAILED")
    print(f"  observability {live['enabled_seconds']:5.2f}s with live "
          f"/metrics + histograms vs {live['disabled_seconds']:.2f}s without "
          f"(overhead ratio {live['overhead_ratio']:.3f}, {scrape})")
    # The live plane is read-only too: same fingerprint, and where loopback
    # exists the mid-run scrape must have returned real histogram series.
    assert live["identical_fingerprints"]
    assert live["scrape_ok"] is not False
    mesh = report["mesh_join"]
    if mesh is None:
        print("  mesh join: skipped (no AF_INET loopback in this sandbox)")
    else:
        print(f"  cold join   {mesh['cold_join_seconds']:7.2f}s  "
              f"(empty-store worker, no mesh: every compile re-paid)")
        print(f"  mesh join   {mesh['mesh_join_seconds']:7.2f}s  "
              f"({mesh['mesh_join_speedup']:.2f}x vs cold join, "
              f"mesh hit ratio {mesh['mesh_hit_ratio']:.1%}, "
              f"{mesh['mesh_hits']} fetched artifacts)")
        # Joining over the mesh must be warm: identical results, zero
        # redundant compiles, and the fetches actually happened.
        assert mesh["identical_fingerprints"]
        assert mesh["mesh_join_artifact_misses"] == 0
        assert mesh["mesh_hits"] > 0
        assert mesh["mesh"]["fetches_served"] > 0
    # The pipeline snapshot lands in the repo-root trajectory file by
    # default ($REPRO_BENCH_PIPELINE_JSON overrides), appending rather than
    # overwriting so successive runs accumulate a comparable history.  A
    # legacy single-snapshot file (one JSON object) is wrapped in place.
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
