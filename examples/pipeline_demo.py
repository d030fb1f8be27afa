#!/usr/bin/env python3
"""Pipeline demo: staged evaluation, a shared artifact cache, and a disk
store that makes a *restarted process* start warm.

Runs the same two-program campaign three times:

1. **cold**, populating one content-addressed
   :class:`~repro.tuner.pipeline.ArtifactCache` (backed by a disk
   :class:`~repro.tuner.store.ArtifactStore`) and overlapping each
   candidate's compile with the previous candidate's emulation;
2. **rerun against the populated cache** — the shape of a re-scoring pass
   or a warm-started campaign in the *same* process: every compile and
   every trace is a memory-tier (tier-1) hit;
3. **restarted in a fresh Python process** (a real ``subprocess``) with the
   same ``store_dir`` — the in-memory cache is gone, and every compile and
   trace is served by the *disk* tier (tier-2) instead of being re-paid.

All three runs produce bit-for-bit identical databases (records, order,
fingerprint) — the cache and its store change the cost, never the result.

Run:  python examples/pipeline_demo.py
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.campaign import Campaign, CampaignConfig, ProgramJob
from repro.tuner import ArtifactCache, BinTunerConfig, GAParameters

JOBS = [ProgramJob("llvm", "462.libquantum"), ProgramJob("llvm", "429.mcf")]


def run_campaign(cache: ArtifactCache, store_dir):
    config = CampaignConfig(
        tuner=BinTunerConfig(
            max_iterations=40, ga=GAParameters(population_size=10), stall_window=20
        ),
        store_dir=store_dir,
    )
    campaign = Campaign(JOBS, config, artifact_cache=cache)
    started = time.perf_counter()
    result = campaign.run()
    return result, time.perf_counter() - started


def restarted_process_run(store_dir: Path) -> dict:
    """Run the same campaign in this very script, as a subprocess.

    A new interpreter holds no in-memory artifact state, so whatever warmth
    it shows can only have come from the disk store.
    """
    restart = run_campaign(ArtifactCache(8192), store_dir)[0]
    stats = restart.evaluation_stats()
    return {
        "fingerprint": restart.fingerprint(),
        "evaluated": stats.evaluated,
        "tier2_hits": stats.artifact_store_hits,
        "tier2_hit_ratio": stats.artifact_store_hit_ratio,
        "artifact_misses": stats.artifact_misses,
    }


def main() -> None:
    programs = [job.program for job in JOBS]
    store_root = Path(tempfile.mkdtemp(prefix="repro-pipeline-demo-"))
    store_dir = store_root / "store"

    print("== campaign over", programs, "- cold artifact cache + disk store")
    cache = ArtifactCache(8192)
    cold, cold_seconds = run_campaign(cache, store_dir)
    stats = cold.evaluation_stats()
    print(f"  {cold_seconds:6.2f}s  fingerprint {cold.fingerprint()[:16]}…")
    print(f"  stages: compile {stats.compile_seconds:.2f}s, "
          f"measure {stats.measure_seconds:.2f}s, score {stats.score_seconds:.2f}s")
    print(f"  cache after cold run: {len(cache)} artifacts, "
          f"{cache.hits} hits / {cache.misses} misses; "
          f"store persisted {len(cache.store)} entries "
          f"({cache.store.total_bytes()} bytes) at {store_dir}")

    print("\n== campaign RERUN against the populated cache (same process)")
    warm, warm_seconds = run_campaign(cache, store_dir)
    warm_stats = warm.evaluation_stats()
    speedup = cold_seconds / warm_seconds if warm_seconds else float("inf")
    print(f"  {warm_seconds:6.2f}s  fingerprint {warm.fingerprint()[:16]}…")
    print(f"  artifact hit ratio {warm_stats.artifact_hit_ratio:.0%} "
          f"({warm_stats.artifact_hits} hits, all tier-1 memory) "
          f"→ {speedup:.1f}x faster than cold")

    print("\n== campaign RESTARTED in a fresh process (same --store-dir)")
    started = time.perf_counter()
    output = subprocess.run(
        [sys.executable, __file__, "--restarted-run", str(store_dir)],
        check=True, capture_output=True, text=True,
    ).stdout
    restart_seconds = time.perf_counter() - started
    restart = json.loads(output.splitlines()[-1])
    restart_speedup = cold_seconds / restart_seconds if restart_seconds else float("inf")
    print(f"  {restart_seconds:6.2f}s (incl. interpreter startup)  "
          f"fingerprint {restart['fingerprint'][:16]}…")
    print(f"  tier-2 (disk) hit ratio {restart['tier2_hit_ratio']:.0%} "
          f"({restart['tier2_hits']} disk hits, {restart['artifact_misses']} misses) "
          f"→ {restart_speedup:.1f}x faster than cold, with zero recompiles")

    identical = cold.fingerprint() == warm.fingerprint() == restart["fingerprint"]
    print(f"\ncold == warm rerun == fresh-process restart "
          f"(records, order, fingerprints): {identical}")
    assert identical
    assert warm_stats.artifact_hits > 0
    assert restart["tier2_hits"] > 0 and restart["artifact_misses"] == 0

    import shutil

    shutil.rmtree(store_root, ignore_errors=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--restarted-run":
        # The child side of the demo: a genuinely fresh interpreter.
        print(json.dumps(restarted_process_run(Path(sys.argv[2]))))
    else:
        main()
