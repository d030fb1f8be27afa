"""``python -m repro.campaign``: run, scale out, and report tuning campaigns.

Examples::

    # Tune the whole Coreutils suite under both compiler families
    python -m repro.campaign --suites coreutils --families llvm,gcc

    # A quick resumable two-program campaign (kill it and rerun to resume;
    # the artifact store under /tmp/campaign/store makes the restart warm:
    # already-compiled configurations are read from disk, not recompiled)
    python -m repro.campaign --benchmarks 462.libquantum,429.mcf \\
        --families llvm --max-iterations 24 --checkpoint-dir /tmp/campaign

    # Same campaign on a shared 4-worker process pool
    python -m repro.campaign --benchmarks 462.libquantum,429.mcf \\
        --families llvm --workers 4

    # Distributed: serve candidates to workers on this or other machines ...
    python -m repro.campaign --suites coreutils --dispatch distributed \\
        --serve 0.0.0.0:7099 --min-workers 2 --checkpoint-dir /tmp/campaign

    # ... each worker being (anywhere that can reach the coordinator):
    python -m repro.campaign worker --connect COORDINATOR_HOST:7099 --slots 2

    # Regenerate the report tables from checkpoints alone (no re-tuning)
    python -m repro.campaign report /tmp/campaign

    # Run the multi-tenant tuning service (pickle-free client wire format)
    python -m repro.campaign serve --bind 127.0.0.1:7410 --state-dir /tmp/svc

    # ... and submit a job to it, streaming generation summaries
    python -m repro.campaign submit --connect 127.0.0.1:7410 \\
        --tenant alice --program work --source work.c --generations 8 --stream
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import threading
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.campaign.campaign import (
    DATABASE_DIR,
    Campaign,
    CampaignConfig,
    CampaignResult,
    ProgramJob,
)
from repro.campaign.database import CampaignDatabase
from repro.distrib.worker import configure_logging
from repro.telemetry.live import tail
from repro.tuner import BinTunerConfig, EvaluationStats, GAParameters
from repro.workloads import SUITES

logger = logging.getLogger("repro.campaign.cli")

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Tune a benchmark suite x compiler matrix with BinTuner. "
                    "Subcommands: 'report CHECKPOINT_DIR' regenerates the "
                    "summary/potency/overlap tables from checkpoints; "
                    "'worker --connect HOST:PORT' serves a distributed campaign.",
    )
    parser.add_argument("--suites", default="",
                        help=f"comma-separated suites ({', '.join(SUITES)}); "
                             "default: all suites unless --benchmarks is given")
    parser.add_argument("--benchmarks", default="",
                        help="comma-separated benchmark names (overrides --suites)")
    parser.add_argument("--families", default="llvm,gcc",
                        help="comma-separated compiler families (default: llvm,gcc)")
    parser.add_argument("--max-iterations", type=int, default=60,
                        help="per-program evaluation budget (default: 60)")
    parser.add_argument("--population", type=int, default=12,
                        help="GA population size (default: 12)")
    parser.add_argument("--stall-window", type=int, default=30,
                        help="GA stall window (default: 30)")
    parser.add_argument("--workers", type=int, default=1,
                        help="shared worker-pool size; >1 implies a process pool")
    parser.add_argument("--dispatch",
                        choices=("serial", "process", "thread", "distributed"),
                        default=None,
                        help="execution substrate of the shared pool "
                             "(default: serial)")
    parser.add_argument("--serve", default=None, metavar="HOST:PORT",
                        help="with --dispatch distributed: address the "
                             "coordinator binds (default: 127.0.0.1:0)")
    parser.add_argument("--min-workers", type=int, default=0,
                        help="with --dispatch distributed: wait for this many "
                             "registered workers before tuning starts")
    parser.add_argument("--authkey", default=os.environ.get("REPRO_DISTRIB_AUTHKEY"),
                        help="with --dispatch distributed: shared secret for the "
                             "worker handshake (default: $REPRO_DISTRIB_AUTHKEY; "
                             "required when serving beyond loopback)")
    parser.add_argument("--artifact-cache-size", type=int, default=None,
                        help="bound (entries) of the campaign-wide artifact "
                             "cache shared by every program's evaluator")
    parser.add_argument("--store-dir", type=Path, default=None,
                        help="disk-backed artifact store (the artifact "
                             "cache's persistent second tier): compiles "
                             "and traces survive the process, so a restarted "
                             "campaign starts warm.  Defaults to "
                             "CHECKPOINT_DIR/store when --checkpoint-dir is "
                             "given")
    parser.add_argument("--store-max-bytes", type=int, default=None,
                        help="byte budget of the store's LRU garbage "
                             "collection (default: 256 MiB)")
    parser.add_argument("--mesh", action="store_true",
                        help="with --dispatch distributed: serve the artifact "
                             "mesh from the campaign store — workers push "
                             "freshly compiled artifacts to the coordinator "
                             "and fetch their misses from other machines' "
                             "past work, so a fresh machine joins warm")
    parser.add_argument("--mesh-budget-bytes", type=int, default=None,
                        help="with --mesh: per-machine cap on artifact-mesh "
                             "transfer, both directions (default: unbounded)")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="enable per-generation checkpointing under this directory")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore an existing checkpoint instead of resuming")
    parser.add_argument("--limit", type=int, default=None,
                        help="run at most N not-yet-completed programs, then stop")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="disable cross-program warm-start seeding")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write the summary (rows + aggregates) to this JSON file")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="write structured telemetry (spans, counters, "
                             "fleet summaries) as JSONL under this directory; "
                             "inspect with python -m repro.telemetry report. "
                             "Observe-only: results and fingerprints are "
                             "identical with or without it")
    parser.add_argument("--obs-port", type=int, default=None, metavar="PORT",
                        help="serve the live observability endpoints "
                             "(/metrics in Prometheus text format, /status "
                             "as JSON with campaign progress and per-worker "
                             "health) on this port; 0 picks an ephemeral "
                             "port.  Observe-only: results and fingerprints "
                             "are identical with or without it")
    parser.add_argument("--obs-host", default="127.0.0.1", metavar="HOST",
                        help="bind address of the observability server "
                             "(default: 127.0.0.1; exposing the read-only "
                             "endpoints beyond loopback is an explicit "
                             "operator decision)")
    parser.add_argument("--live", action="store_true",
                        help="render an in-place refreshing progress view "
                             "(generations/sec, stage p95s, worker health) "
                             "on stderr while the campaign runs; implies an "
                             "ephemeral --obs-port when none is given")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level progress lines on stderr")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stderr (the summary "
                             "tables on stdout are unaffected)")
    return parser


def _build_campaign(args: argparse.Namespace) -> Campaign:
    pipeline_knobs = {}
    if args.artifact_cache_size is not None:
        pipeline_knobs["artifact_cache_size"] = args.artifact_cache_size
    if args.store_dir is not None:
        pipeline_knobs["store_dir"] = args.store_dir
    if args.store_max_bytes is not None:
        pipeline_knobs["store_max_bytes"] = args.store_max_bytes
    config = CampaignConfig(
        tuner=BinTunerConfig(
            max_iterations=args.max_iterations,
            ga=GAParameters(population_size=args.population),
            stall_window=args.stall_window,
        ),
        workers=args.workers,
        dispatch=args.dispatch,
        serve=args.serve,
        min_workers=args.min_workers,
        authkey=args.authkey,
        mesh=args.mesh,
        mesh_budget_bytes=args.mesh_budget_bytes,
        warm_start=not args.no_warm_start,
        checkpoint_dir=args.checkpoint_dir,
        telemetry_dir=args.telemetry_dir,
        # --live without an explicit port still needs a server to poll; an
        # ephemeral loopback port costs nothing and keeps the flag one word.
        obs_port=0 if args.live and args.obs_port is None else args.obs_port,
        obs_host=args.obs_host,
        **pipeline_knobs,
    )
    families = [family for family in args.families.split(",") if family]
    if args.benchmarks:
        names = [name for name in args.benchmarks.split(",") if name]
        jobs = [ProgramJob(family, name) for family in families for name in names]
        return Campaign(jobs, config)
    suites = [suite for suite in args.suites.split(",") if suite] or list(SUITES)
    # The library owns the suite x family matrix (exclusions included).
    return Campaign.from_suites(suites, families, config)


@contextlib.contextmanager
def _live_tail(url: str) -> Iterator[None]:
    """The ``--live`` view: poll ``url`` from a daemon thread for the block."""
    stop = threading.Event()
    thread = threading.Thread(
        target=tail, args=(url,), kwargs={"interval": 1.0, "stop": stop},
        name="campaign-live-tail", daemon=True,
    )
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=3.0)


def run_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.store_max_bytes is not None
            and args.store_dir is None and args.checkpoint_dir is None):
        parser.error("--store-max-bytes requires an active store "
                     "(--store-dir or --checkpoint-dir)")
    if args.verbose and args.quiet:
        parser.error("--verbose and --quiet are mutually exclusive")
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        campaign = _build_campaign(args)
    except ValueError as exc:
        # Knob combinations are validated once, by the library (mesh needs
        # distributed dispatch and a store, ...); the CLI only reports them.
        parser.error(str(exc))
    if not campaign.jobs:
        logger.error("no jobs to run (empty suite/family selection)")
        return 2
    logger.info(
        "campaign: %d jobs (%s dispatch, %d worker%s, warm-start %s)",
        len(campaign.jobs), args.dispatch or "serial", args.workers,
        "s" if args.workers != 1 else "", "off" if args.no_warm_start else "on",
    )
    # The session (sink, pool, /metrics server) is the campaign's; entering
    # it ahead of run() is what lets --live learn the bound address.
    with contextlib.ExitStack() as stack:
        stack.enter_context(campaign)
        if args.live:
            stack.enter_context(_live_tail(campaign.obs_server.url()))
        result = campaign.run(limit=args.limit, resume=not args.fresh)
    _print_summary(result, args)
    return 0


def _print_summary(result: CampaignResult, args: argparse.Namespace) -> None:
    mesh_summary, fleet = result.mesh_stats, result.fleet
    programs = {program.job.key(): program for program in result.programs}
    for row in result.summary_rows():
        # A shard can exist without a program result: a campaign killed (or
        # --limit'ed) mid-program leaves its partial records checkpointed.
        program = programs.get((row["compiler"], row["benchmark"]))
        if program is None:
            marker = " (in progress)"
        elif program.resumed:
            marker = " (resumed)"
        else:
            marker = ""
        print(f"  {row['compiler']:5s} {row['benchmark']:18s} "
              f"iterations {row['iterations']:4d}  "
              f"best fitness {row['best_fitness']}{marker}")
    if result.interrupted:
        print(f"interrupted after --limit {args.limit}; rerun to resume")

    frequency = result.database.flag_frequency()
    if frequency:
        top = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))[:10]
        print("top flags across best configurations:")
        for flag, share in top:
            print(f"  {flag:28s} {share:.0%}")
    stats = result.evaluation_stats()
    if stats.evaluated or stats.cache_hits:
        line = (f"evaluation: {stats.evaluated} compiled, "
                f"{stats.cache_hits} database hits"
                f"; stages compile {stats.compile_seconds:.1f}s / "
                f"measure {stats.measure_seconds:.1f}s / "
                f"score {stats.score_seconds:.1f}s")
        if stats.artifact_store_hits:
            line += (f"; {stats.artifact_store_hits} tier-2 (disk) hits "
                     f"({stats.artifact_store_hit_ratio:.1%} of stage lookups)")
        if stats.artifact_mesh_hits:
            line += (f"; {stats.artifact_mesh_hits} mesh hits "
                     f"({stats.artifact_mesh_hit_ratio:.1%} of stage lookups)")
        print(line)
    cache = result.artifact_cache_stats
    mesh_part = (f"{cache['mesh_hits']} mesh hits / "
                 if cache.get("mesh_hits") else "")
    print(f"artifact cache: {cache['hits']} memory hits / "
          f"{cache['store_hits']} disk hits / {mesh_part}"
          f"{cache['misses']} misses "
          f"(hit ratio {cache['hit_ratio']:.1%}), "
          f"{cache['entries']}/{cache['max_entries']} entries, "
          f"{cache['evictions']} evictions")
    store = cache.get("store")
    if store is not None:
        print(f"artifact store ({store['path']}): {store['entries']} entries "
              f"/ {store['bytes']} bytes, {store['hits']} hits, "
              f"{store['puts']} writes, {store['gc_evictions']} GC evictions")
    if mesh_summary is not None:
        denied = (f", {mesh_summary['budget_denied']} budget-denied"
                  if mesh_summary["budget_denied"] else "")
        print(f"artifact mesh: {mesh_summary['pushes_accepted']} pushes absorbed "
              f"({mesh_summary['pushes_rejected']} rejected), "
              f"{mesh_summary['fetches_served']} fetches served / "
              f"{mesh_summary['fetches_missed']} missed, "
              f"{mesh_summary['bytes_in']}B in / {mesh_summary['bytes_out']}B out"
              f"{denied}")
    if fleet:
        print("fleet utilization:")
        for row in fleet:
            busy = float(row.get("busy_seconds", 0.0) or 0.0)
            uptime = float(row.get("uptime_seconds", 0.0) or 0.0)
            utilization = busy / uptime if uptime > 0 else 0.0
            mesh_bytes = (int(row.get("mesh_bytes_sent", 0) or 0)
                          + int(row.get("mesh_bytes_received", 0) or 0))
            health = str(row.get("health", "healthy"))
            straggler = " STRAGGLER" if row.get("straggler") else ""
            print(f"  worker {row.get('worker_id', '?'):>3} "
                  f"({row.get('peer', '?')}): "
                  f"{row.get('batches', 0)} batches / "
                  f"{row.get('candidates', 0)} candidates, "
                  f"busy {busy:.1f}s of {uptime:.1f}s "
                  f"({utilization:.0%}), mesh {mesh_bytes}B, "
                  f"{health}{straggler}")
    print(f"database fingerprint: {result.fingerprint()}")
    print(f"elapsed: {result.elapsed_seconds:.1f}s over {result.database.total_records()} records")

    if args.json_out is not None:
        payload = {
            "summary": result.summary_rows(),
            "flag_frequency": frequency,
            "fingerprint": result.fingerprint(),
            "interrupted": result.interrupted,
            "evaluation": stats.as_dict(),
            "artifact_cache": result.artifact_cache_stats,
            "mesh": mesh_summary,
        }
        if fleet is not None:
            payload["fleet"] = fleet
        args.json_out.write_text(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# report: regenerate the experiment tables from checkpoints alone
# ---------------------------------------------------------------------------

def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign report",
        description="Regenerate summary, per-flag potency and best-config "
                    "overlap tables from CampaignDatabase checkpoints, "
                    "without re-running any tuning.",
    )
    parser.add_argument("checkpoint_dir", type=Path,
                        help="a campaign --checkpoint-dir (or its database/ "
                             "subdirectory, or any CampaignDatabase.save dir)")
    parser.add_argument("--family", default=None,
                        help="restrict potency/overlap tables to one compiler family")
    parser.add_argument("--top", type=int, default=10,
                        help="how many flags the potency table lists (default: 10)")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write all tables to this JSON file")
    return parser


def _locate_database(checkpoint_dir: Path) -> Optional[Path]:
    """Accept the checkpoint dir, its ``database/`` child, or a bare save dir."""
    for candidate in (checkpoint_dir / DATABASE_DIR, checkpoint_dir):
        if (candidate / "index.json").exists():
            return candidate
    return None


def _manifest_evaluation_stats(checkpoint_dir: Path) -> Optional[EvaluationStats]:
    """Summed per-program evaluation counters from the checkpoint manifest.

    ``None`` when there is no manifest, it predates per-stage accounting, or
    no stage activity was recorded (a pure checkpoint replay, or a campaign
    an older version ran without stages) — i.e. whenever a "pipeline stages"
    line would be an all-zero fabrication.
    """
    manifest_path = Path(checkpoint_dir) / "manifest.json"
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    entries = [entry.get("evaluation") for entry in manifest.get("completed", [])]
    entries = [entry for entry in entries if entry]
    if not entries:
        return None
    total = EvaluationStats()
    for entry in entries:
        total = total.add(EvaluationStats.from_dict(entry))
    stage_seconds = total.compile_seconds + total.measure_seconds + total.score_seconds
    if stage_seconds == 0.0 and total.artifact_hits + total.artifact_misses == 0:
        return None
    return total


def report_main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_report_parser().parse_args(argv)
    database_dir = _locate_database(args.checkpoint_dir)
    if database_dir is None:
        print(f"no campaign database under {args.checkpoint_dir} "
              f"(expected {args.checkpoint_dir / DATABASE_DIR / 'index.json'})",
              file=sys.stderr)
        return 2
    database = CampaignDatabase.load(database_dir)
    families = sorted({family for family, _program in database.shard_keys()})
    if args.family is not None:
        if args.family not in families:
            print(f"family {args.family!r} not in checkpoint (has: {', '.join(families)})",
                  file=sys.stderr)
            return 2
        families = [args.family]

    print(f"campaign {database.name!r}: {len(database)} shard(s), "
          f"{database.total_records()} records")
    print("\nper-program summary:")
    for row in database.summary_rows():
        print(f"  {row['compiler']:5s} {row['benchmark']:18s} "
              f"iterations {row['iterations']:4d}  "
              f"best fitness {row['best_fitness']}  "
              f"flags {row['best_flag_count']:2d}  hours {row['hours']}")

    # Staged-pipeline accounting, when the manifest checkpointed it: the
    # per-stage wall clock and artifact-cache hit counters each completed
    # program accrued (regenerated without re-running any tuning).
    pipeline_stats = _manifest_evaluation_stats(args.checkpoint_dir)
    if pipeline_stats is not None:
        line = (f"\npipeline stages (completed programs): "
                f"compile {pipeline_stats.compile_seconds:.1f}s / "
                f"measure {pipeline_stats.measure_seconds:.1f}s / "
                f"score {pipeline_stats.score_seconds:.1f}s; "
                f"artifact cache {pipeline_stats.artifact_hits} hits / "
                f"{pipeline_stats.artifact_misses} misses "
                f"(hit ratio {pipeline_stats.artifact_hit_ratio:.1%})")
        if pipeline_stats.artifact_store_hits:
            line += (f", {pipeline_stats.artifact_store_hits} served by the "
                     f"disk store (tier 2)")
        if pipeline_stats.artifact_mesh_hits:
            line += (f", {pipeline_stats.artifact_mesh_hits} served by the "
                     f"artifact mesh ({pipeline_stats.artifact_mesh_hit_ratio:.1%})")
        print(line)

    potency: Dict[str, Dict[str, float]] = {}
    for family in families:
        frequency = database.flag_frequency(family)
        potency[family] = frequency
        if not frequency:
            continue
        top = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))[: args.top]
        print(f"\nper-flag potency ({family}): share of best configurations enabling it")
        for flag, share in top:
            print(f"  {flag:28s} {share:.0%}")

    overlap_out: Dict[str, Dict[str, float]] = {}
    for family in families:
        overlap = database.best_overlap(family)
        if not overlap:
            continue
        print(f"\nbest-config overlap ({family}): pairwise Jaccard of best flag sets")
        pairs: List[str] = []
        for left in sorted(overlap):
            for right in sorted(overlap[left]):
                if left < right:  # each unordered pair once
                    value = overlap[left][right]
                    overlap_out[f"{left[0]}/{left[1]}|{right[0]}/{right[1]}"] = value
                    pairs.append(f"  {left[1]:18s} ~ {right[1]:18s} {value:.2f}")
        print("\n".join(pairs) if pairs else "  (single program: no pairs)")

    print(f"\ndatabase fingerprint: {database.fingerprint()}")

    if args.json_out is not None:
        payload = {
            "name": database.name,
            "summary": database.summary_rows(),
            "flag_frequency": potency,
            "best_overlap": overlap_out,
            "fingerprint": database.fingerprint(),
            "evaluation": pipeline_stats.as_dict() if pipeline_stats else None,
        }
        args.json_out.write_text(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------------------
# serve / submit: the tuning service and its client
# ---------------------------------------------------------------------------

def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign serve",
        description="Run the multi-tenant tuning service: clients submit "
                    "jobs over the pickle-free wire format; a fair-share "
                    "queue interleaves tenants' generations over one shared "
                    "worker fleet and artifact mesh.",
    )
    parser.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="client-plane listen address (default: 127.0.0.1:0)")
    parser.add_argument("--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
                        help="shared bearer token clients must send "
                             "(default: $REPRO_SERVICE_TOKEN; unset = open, "
                             "loopback only)")
    parser.add_argument("--state-dir", type=Path, default=None,
                        help="durability root: job table, per-job database "
                             "shards, artifact store; restart over the same "
                             "directory to resume unfinished jobs")
    parser.add_argument("--dispatch",
                        choices=("serial", "process", "thread", "distributed"),
                        default="serial",
                        help="worker-plane substrate (default: serial)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--serve-workers", default=None, metavar="HOST:PORT",
                        help="with --dispatch distributed: address the "
                             "worker-plane coordinator binds")
    parser.add_argument("--authkey", default=os.environ.get("REPRO_DISTRIB_AUTHKEY"),
                        help="worker-plane handshake secret "
                             "(default: $REPRO_DISTRIB_AUTHKEY)")
    parser.add_argument("--min-workers", type=int, default=0,
                        help="with --dispatch distributed: wait for this many "
                             "workers before serving clients' jobs")
    parser.add_argument("--max-active-jobs", type=int, default=4,
                        help="concurrent job runner cap (default: 4); the "
                             "fair-share turnstile serializes generations "
                             "regardless")
    parser.add_argument("--max-source-bytes", type=int, default=None,
                        help="admission cap on submitted source size "
                             "(default: 262144)")
    parser.add_argument("--max-generations", type=int, default=None,
                        help="admission cap on budget.generations (default: 512)")
    parser.add_argument("--obs-port", type=int, default=None, metavar="PORT",
                        help="serve /metrics + /status (per-tenant accounting "
                             "included) on this port; 0 = ephemeral")
    parser.add_argument("--obs-host", default="127.0.0.1", metavar="HOST")
    parser.add_argument("--telemetry-dir", type=Path, default=None,
                        help="write tenant-tagged spans as JSONL here "
                             "(render with python -m repro.telemetry report)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.verbose and args.quiet:
        parser.error("--verbose and --quiet are mutually exclusive")
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    from repro.distrib.protocol import parse_address
    from repro.distrib.service import ServiceConfig, TuningService, serve_forever
    from repro.distrib.jobs import AdmissionLimits

    host, port = parse_address(args.bind)
    limit_knobs = {}
    if args.max_source_bytes is not None:
        limit_knobs["max_source_bytes"] = args.max_source_bytes
    if args.max_generations is not None:
        limit_knobs["max_generations"] = args.max_generations
    service = TuningService(ServiceConfig(
        host=host, port=port, token=args.token, state_dir=args.state_dir,
        dispatch=args.dispatch, workers=args.workers,
        serve_workers=args.serve_workers, authkey=args.authkey,
        limits=AdmissionLimits(**limit_knobs),
        max_active_jobs=args.max_active_jobs,
        obs_port=args.obs_port, obs_host=args.obs_host,
        telemetry_dir=args.telemetry_dir,
    ))
    logger.info("tuning service: clients connect to %s", service.address_string())
    if service.worker_address() is not None:
        logger.info("worker plane: python -m repro.distrib.worker --connect %s",
                    service.worker_address())
        if args.min_workers > 0:
            logger.info("waiting for %d worker(s)...", args.min_workers)
            service.wait_for_workers(args.min_workers)
    if service.obs_server is not None:
        logger.info("observability: %s/status", service.obs_server.url())
    serve_forever(service)
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign submit",
        description="Submit one tuning job to a running service and "
                    "(optionally) stream its generation summaries.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--token", default=os.environ.get("REPRO_SERVICE_TOKEN"))
    parser.add_argument("--tenant", required=True)
    parser.add_argument("--program", required=True)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--source", type=Path, default=None,
                        help="file whose text is the program source")
    source.add_argument("--benchmark", default=None,
                        help="a bundled workload name instead of a file")
    parser.add_argument("--family", default="gcc")
    parser.add_argument("--generations", type=int, default=8)
    parser.add_argument("--population", type=int, default=8)
    parser.add_argument("--stall-window", type=int, default=60)
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--stream", action="store_true",
                        help="stream generation events until the job finishes")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write the final status row to this JSON file")
    return parser


def submit_main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_submit_parser().parse_args(argv)
    from repro.distrib.client import ServiceClient
    from repro.distrib.errors import ServiceError

    if args.source is not None:
        source_text = args.source.read_text()
    else:
        from repro.workloads import benchmark

        source_text = benchmark(args.benchmark).source
    try:
        with ServiceClient(args.connect, token=args.token) as client:
            job_id = client.submit(
                args.tenant, args.program, source_text, args.family,
                generations=args.generations, population=args.population,
                stall_window=args.stall_window, priority=args.priority,
            )
            print(f"submitted {job_id}")
            if args.stream:
                for event in client.stream(job_id):
                    data = event["data"]
                    if event["kind"] == "generation":
                        print(f"  gen {data['generation']:3d}: "
                              f"evaluated {data['evaluated_total']:4d}, "
                              f"best fitness {data['best_fitness']}, "
                              f"compile {data['compile_seconds']}s")
                    else:
                        print(f"  {event['kind']}")
                row = client.status(job_id)
            else:
                row = client.wait(job_id)
            result = row.get("result")
            if result is not None:
                print(f"{row['state']}: best fitness {result['best_fitness']} "
                      f"over {result['iterations']} iterations")
                print(f"fingerprint: {result['fingerprint']}")
            else:
                print(f"{row['state']}: {row.get('error')}")
            if args.json_out is not None:
                args.json_out.write_text(json.dumps(row, indent=2))
            return 0 if row["state"] == "done" else 1
    except ServiceError as exc:
        print(f"rejected [{exc.code}]: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "worker":
        from repro.distrib.worker import main as worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    return run_main(argv)
