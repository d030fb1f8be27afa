"""``python -m repro.campaign``: run, scale out, and report tuning campaigns.

Examples::

    # Tune the whole Coreutils suite under both compiler families
    python -m repro.campaign --suites coreutils --families llvm,gcc

    # A quick resumable two-program campaign (kill it and rerun to resume;
    # the artifact store under /tmp/campaign/store makes the restart warm:
    # already-compiled configurations are read from disk, not recompiled)
    python -m repro.campaign --benchmarks 462.libquantum,429.mcf \\
        --families llvm --max-iterations 24 --checkpoint-dir /tmp/campaign

    # Same campaign on a local fleet of 4 forked worker sessions
    python -m repro.campaign --benchmarks 462.libquantum,429.mcf \\
        --families llvm --workers 4

    # 4 local sessions plus workers on this or other machines joining ...
    python -m repro.campaign --suites coreutils --workers 4 --authkey "$KEY" \\
        --serve-workers 0.0.0.0:7099 --min-workers 6 --checkpoint-dir /tmp/campaign

    # ... each worker being (anywhere that can reach the coordinator):
    python -m repro.campaign worker --connect COORDINATOR_HOST:7099 --slots 2

    # Regenerate the report tables from checkpoints alone (no re-tuning),
    # then where the run's time went (its telemetry under /tmp/campaign)
    python -m repro.campaign report /tmp/campaign

    # Watch a run started with --obs-port 9099 (or a serve) live
    python -m repro.campaign tail 127.0.0.1:9099

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
import signal
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.campaign import (
    DATABASE_DIR,
    TELEMETRY_DIR,
    Campaign,
    CampaignConfig,
    CampaignResult,
    ProgramJob,
    ProgramResult,
    default_compiler_provider,
    done_results,
    read_checkpoint,
    summary_row_line,
    top_flag_lines,
)
from repro.campaign.database import INDEX_NAME
from repro.distrib.errors import DistribError
from repro.distrib.worker import common_flags, configure_logging
from repro.tuner import BinTunerConfig, GAParameters
from repro.workloads import SUITES, benchmark

logger = logging.getLogger("repro.campaign.cli")


def fleet_flags() -> argparse.ArgumentParser:
    """The worker-pool and observability flags ``run`` and ``serve`` share,
    declared once with :class:`CampaignConfig`'s defaults: pass as
    ``parents=[fleet_flags()]``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workers", type=int, default=CampaignConfig.workers,
                        help="local worker sessions to fork (default: 1, "
                             "none: candidates are evaluated inline)")
    parser.add_argument("--serve-workers", default=CampaignConfig.serve_workers,
                        metavar="HOST:PORT",
                        help="address where remote workers ('worker --connect "
                             "HOST:PORT') may join, beside any --workers "
                             "sessions (default: none join)")
    parser.add_argument("--min-workers", type=int, default=CampaignConfig.min_workers,
                        help="with --serve-workers: wait for this many "
                             "registered workers before work starts")
    parser.add_argument("--obs-port", type=int, default=CampaignConfig.obs_port,
                        metavar="PORT",
                        help="serve /metrics (Prometheus text) and /status "
                             "(JSON: progress, worker health, tenants) on this "
                             "port; 0 picks an ephemeral port.  Observe-only")
    parser.add_argument("--obs-host", default=CampaignConfig.obs_host, metavar="HOST",
                        help="bind address of the observability server "
                             "(default: 127.0.0.1; exposing the read-only "
                             "endpoints beyond loopback is an explicit "
                             "operator decision)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Tune a benchmark suite x compiler matrix with BinTuner. "
                    "Subcommands: 'report CHECKPOINT_DIR' regenerates the "
                    "summary/potency/overlap tables from checkpoints, then "
                    "the run's telemetry tables; 'tail HOST:PORT' follows a "
                    "running --obs-port live; "
                    "'worker --connect HOST:PORT' joins a --serve-workers "
                    "fleet; 'serve --bind HOST:PORT' runs the "
                    "multi-tenant tuning service; 'submit --connect "
                    "HOST:PORT' submits a job to it.",
        parents=[fleet_flags(), common_flags()],
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
    parser.add_argument("--store-dir", type=Path, default=None,
                        help="disk-backed artifact store (the artifact "
                             "cache's persistent second tier): compiles "
                             "and traces survive the process, so a restarted "
                             "campaign starts warm.  Defaults to "
                             "CHECKPOINT_DIR/store when --checkpoint-dir is "
                             "given")
    parser.add_argument("--store-max-bytes", type=int,
                        default=CampaignConfig.store_max_bytes,
                        help="byte budget of the store's LRU garbage "
                             "collection (default: 256 MiB)")
    parser.add_argument("--mesh", action="store_true",
                        help="with --serve-workers: serve the artifact "
                             "mesh from the campaign store — workers push "
                             "freshly compiled artifacts to the coordinator "
                             "and fetch their misses from other machines' "
                             "past work, so a fresh machine joins warm")
    parser.add_argument("--mesh-budget-bytes", type=int, default=None,
                        help="with --mesh: per-machine cap on artifact-mesh "
                             "transfer, both directions (default: unbounded)")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        help="enable per-generation checkpointing under this "
                             "directory; the run's telemetry is recorded under "
                             "CHECKPOINT_DIR/telemetry")
    parser.add_argument("--fresh", action="store_true",
                        help="ignore an existing checkpoint instead of resuming")
    parser.add_argument("--limit", type=int, default=None,
                        help="run at most N not-yet-completed programs, then stop")
    parser.add_argument("--no-warm-start", action="store_true",
                        help="disable cross-program warm-start seeding")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write the summary (rows + aggregates) to this JSON file")
    return parser


def _build_campaign(args: argparse.Namespace) -> Campaign:
    config = CampaignConfig(
        tuner=BinTunerConfig(
            max_iterations=args.max_iterations,
            ga=GAParameters(population_size=args.population),
            stall_window=args.stall_window,
        ),
        workers=args.workers,
        serve_workers=args.serve_workers,
        min_workers=args.min_workers,
        authkey=args.authkey,
        store_dir=args.store_dir,
        store_max_bytes=args.store_max_bytes,
        mesh=args.mesh,
        mesh_budget_bytes=args.mesh_budget_bytes,
        warm_start=not args.no_warm_start,
        checkpoint_dir=args.checkpoint_dir,
        telemetry_dir=args.telemetry_dir,
        obs_port=args.obs_port,
        obs_host=args.obs_host,
    )
    families = [family for family in args.families.split(",") if family]
    # Every name resolves here, before the session opens: a typo is a usage
    # error, not a KeyError out of the first job with a checkpoint written.
    for family in families:
        default_compiler_provider(family)
    if args.benchmarks:
        names = [name for name in args.benchmarks.split(",") if name]
        for name in names:
            benchmark(name)
        jobs = [ProgramJob(family, name) for family in families for name in names]
        return Campaign(jobs, config)
    suites = [suite for suite in args.suites.split(",") if suite] or list(SUITES)
    # The library owns the suite x family matrix (exclusions included).
    return Campaign.from_suites(suites, families, config)


def _reason(exc: Exception) -> str:
    """The message of a library ``ValueError`` / ``KeyError`` (a
    ``KeyError``'s ``str`` is the repr of its argument)."""
    return str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)


def run_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.store_max_bytes != CampaignConfig.store_max_bytes
            and args.store_dir is None and args.checkpoint_dir is None):
        parser.error("--store-max-bytes requires an active store "
                     "(--store-dir or --checkpoint-dir)")
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    try:
        campaign = _build_campaign(args)
    except (KeyError, ValueError) as exc:
        # Names and knob combinations are validated once, by the library
        # (mesh needs --serve-workers and a store, ...); the CLI only
        # reports them.
        parser.error(_reason(exc))
    if not campaign.jobs:
        logger.error("no jobs to run (empty suite/family selection)")
        return 2
    # The session (sink, pool, /metrics server) is the campaign's; entering
    # it ahead of run() is what lets the log line name the fleet's bound
    # address.
    with contextlib.ExitStack() as stack:
        try:
            pool = stack.enter_context(campaign).pool
        except (KeyError, ValueError) as exc:
            # A fleet the library refuses (--workers 0, a malformed
            # --serve-workers, a keyless wildcard bind), before any checkpoint.
            parser.error(_reason(exc))
        except DistribError as exc:
            # --min-workers not met in time: the session is already unwound.
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            return 2
        fleet = f"{len(pool.pids)} local sessions" if pool.pids else "inline"
        if args.serve_workers is not None:
            fleet += f", workers join at {pool.address_string()}"
        logger.info("campaign: %d jobs (%s, warm-start %s)", len(campaign.jobs),
                    fleet, "off" if args.no_warm_start else "on")
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
        print(summary_row_line(row) + marker)
    if result.interrupted:
        print(f"interrupted after --limit {args.limit}; rerun to resume")

    frequency = result.database.flag_frequency()
    if frequency:
        print("top flags across best configurations:")
        print("\n".join(top_flag_lines(frequency)))
    stats = result.evaluation_stats()
    if stats.evaluated or stats.cache_hits:
        print(stats.summary_line("evaluation"))
    cache = result.artifact_cache_stats
    mesh_part = (f"{cache['mesh_hits']} mesh hits / "
                 if cache.get("mesh_hits") else "")
    print(f"artifact cache: {cache['memory_hits']} memory hits / "
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
        # busy_ratio and mesh_bytes are the coordinator's, derived once.
        for row in fleet:
            straggler = " STRAGGLER" if row.get("straggler") else ""
            print(f"  worker {row.get('worker_id', '?'):>3} "
                  f"({row.get('peer', '?')}): "
                  f"{row.get('batches', 0)} batches / "
                  f"{row.get('candidates', 0)} candidates, "
                  f"busy {row.get('busy_seconds', 0.0):.1f}s of "
                  f"{row.get('uptime_seconds', 0.0):.1f}s "
                  f"({row.get('busy_ratio', 0.0):.0%}), "
                  f"mesh {row.get('mesh_bytes', 0)}B, "
                  f"{row.get('health', 'healthy')}{straggler}")
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
# report: regenerate the experiment tables, and the run's telemetry tables
# ---------------------------------------------------------------------------

def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign report",
        description="Regenerate summary, per-flag potency and best-config "
                    "overlap tables from CampaignDatabase checkpoints, "
                    "without re-running any tuning; then, from the run's "
                    "telemetry, the per-stage time, artifact-tier, tenant, "
                    "worker, latency and counter tables.",
    )
    parser.add_argument("checkpoint_dir", type=Path,
                        help="a campaign --checkpoint-dir or a serve --state-dir "
                             "(or its database/ subdirectory, or any "
                             "CampaignDatabase.save dir), or a --telemetry-dir")
    parser.add_argument("--family", default=None,
                        help="restrict potency/overlap tables to one compiler family")
    parser.add_argument("--top", type=int, default=10,
                        help="how many flags the potency table lists (default: 10)")
    parser.add_argument("--buckets", type=int, default=8,
                        help="time windows in the tier-ratio table (default: 8)")
    parser.add_argument("--chrome-trace", type=Path, default=None, metavar="OUT.json",
                        help="additionally export every span in Chrome/Perfetto "
                             "trace-event format (load in chrome://tracing or "
                             "ui.perfetto.dev)")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write all tables to this JSON file")
    return parser


def report_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_report_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--top", args.top), ("--buckets", args.buckets)):
        if value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    directory = args.checkpoint_dir
    if not directory.is_dir():
        print(f"no checkpoint directory at {directory}", file=sys.stderr)
        return 2
    try:
        database, table = read_checkpoint(directory)
        completed = done_results(table)
    except (OSError, ValueError, KeyError) as exc:
        print(f"unreadable checkpoint under {directory}: {exc}", file=sys.stderr)
        return 2
    # The telemetry tables are imported by ``report`` alone, not at module
    # level: ``serve`` starts through this module and needs none of them.
    from repro.telemetry.report import load_events

    # A durable directory keeps its events under telemetry/; a bare
    # --telemetry-dir holds them itself.
    events_dir = directory / TELEMETRY_DIR
    if not events_dir.is_dir():
        events_dir = directory
    events, skipped = load_events(events_dir)
    if database is None and not events:
        # What a crashed-before-first-flush or not-yet-started run leaves
        # behind: vacuous, not an error, so scripts iterating run dirs go on.
        print(f"warning: no campaign database (expected "
              f"{directory / DATABASE_DIR / INDEX_NAME}) and no telemetry events "
              f"(expected *.jsonl files) under {directory}; nothing to report",
              file=sys.stderr)
        return 0
    lines: List[str] = []
    payload: Dict[str, object] = {}
    if database is not None:
        families = sorted({family for family, _program in database.shard_keys()})
        if args.family is not None:
            if args.family not in families:
                print(f"family {args.family!r} not in checkpoint "
                      f"(has: {', '.join(families)})", file=sys.stderr)
                return 2
            families = [args.family]
        lines, payload = _results_tables(database, completed, families, args.top)
    if events:
        if database is not None:
            lines.append("")
        telemetry_lines, payload["telemetry"] = _telemetry_tables(
            events, skipped, events_dir, args)
        lines += telemetry_lines
    # The file before stdout: a reader that leaves early (``report | head``)
    # must not cost the --json file.
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(payload, indent=2))
    print("\n".join(lines))
    return 0


def _results_tables(database, completed: List[ProgramResult], families: List[str],
                    top: int) -> Tuple[List[str], Dict[str, object]]:
    """The results half: summary, stage line, potency and overlap tables.
    Returns its stdout lines and its ``--json`` keys."""
    lines: List[str] = []
    say = lines.append
    say(f"campaign {database.name!r}: {len(database)} shard(s), "
        f"{database.total_records()} records")
    say("\nper-program summary:")
    for row in database.summary_rows():
        say(summary_row_line(row)
            + f"  flags {row['best_flag_count']:2d}  hours {row['hours']}")

    # The per-stage seconds and artifact-cache counters the done jobs
    # accrued, summed as a live run sums them; all zero (a pure checkpoint
    # replay, or no job table) would be a fabrication, so no line.
    stages = CampaignResult(database, completed, 0.0).evaluation_stats()
    staged = (stages.compile_seconds + stages.measure_seconds + stages.score_seconds > 0.0
              or stages.artifact_hits + stages.artifact_misses > 0)
    if staged:
        say("\n" + stages.summary_line("pipeline stages (completed programs)"))

    potency: Dict[str, Dict[str, float]] = {}
    for family in families:
        frequency = database.flag_frequency(family)
        potency[family] = frequency
        if not frequency:
            continue
        say(f"\nper-flag potency ({family}): share of best configurations enabling it")
        say("\n".join(top_flag_lines(frequency, top)))

    overlap_out: Dict[str, Dict[str, float]] = {}
    for family in families:
        overlap = database.best_overlap(family)
        if not overlap:
            continue
        say(f"\nbest-config overlap ({family}): pairwise Jaccard of best flag sets")
        pairs: List[str] = []
        for left in sorted(overlap):
            for right in sorted(overlap[left]):
                if left < right:  # each unordered pair once
                    value = overlap[left][right]
                    overlap_out[f"{left[0]}/{left[1]}|{right[0]}/{right[1]}"] = value
                    pairs.append(f"  {left[1]:18s} ~ {right[1]:18s} {value:.2f}")
        say("\n".join(pairs) if pairs else "  (single program: no pairs)")

    say(f"\ndatabase fingerprint: {database.fingerprint()}")
    return lines, {
        "name": database.name,
        "summary": database.summary_rows(),
        "flag_frequency": potency,
        "best_overlap": overlap_out,
        "fingerprint": database.fingerprint(),
        "evaluation": stages.as_dict() if staged else None,
    }


def _telemetry_tables(events: List[Dict[str, object]], skipped: int, events_dir: Path,
                      args: argparse.Namespace) -> Tuple[List[str], Dict[str, object]]:
    """The telemetry half: per-stage time, tier ratios over time, tenants,
    workers, latency percentiles and counters.  Returns its stdout lines and
    its ``--json`` object (the Chrome trace, if asked for, is written)."""
    from repro.telemetry import report as tables

    lines: List[str] = []
    say = lines.append

    if not tables.spans(events):
        print(f"warning: no spans under {events_dir}; time-breakdown "
              f"tables will be empty", file=sys.stderr)
    processes = sorted({record["pid"] for record in events})
    say(f"telemetry: {len(events)} records from {len(processes)} process(es) "
        f"under {events_dir}"
        + (f" ({skipped} malformed lines skipped)" if skipped else ""))

    breakdown = tables.span_breakdown(events)
    if breakdown:
        say("\nper-stage time breakdown:")
        say(f"  {'span':24s} {'count':>7s} {'total s':>9s} {'mean ms':>9s}")
        for row in breakdown:
            say(f"  {row['name']:24s} {row['count']:7d} "
                f"{row['seconds']:9.2f} {row['mean_ms']:9.2f}")

    tiers = tables.tier_ratio_rows(events, buckets=args.buckets)
    if tiers:
        say("\nartifact tier hit ratios over time (per stage lookup):")
        say(f"  {'generations':>12s} {'lookups':>8s} {'tier-1':>7s} "
            f"{'tier-2':>7s} {'mesh':>7s} {'miss':>7s}")
        for row in tiers:
            say(f"  {row['generations']:>12s} {row['lookups']:8d} "
                f"{row['tier1_ratio']:6.1%} {row['tier2_ratio']:6.1%} "
                f"{row['mesh_ratio']:6.1%} {row['miss_ratio']:6.1%}")

    tenants = tables.tenant_breakdown(events)
    if tenants:
        say("\nper-tenant service time (fair-share view):")
        say(f"  {'tenant':20s} {'jobs':>5s} {'generations':>12s} {'total s':>9s}")
        for row in tenants:
            say(f"  {row['tenant']:20s} {row['jobs']:5d} "
                f"{row['generations']:12d} {row['seconds']:9.2f}")

    fleet = tables.worker_rows(events)
    if fleet:
        say("\nworker utilization:")
        say(f"  {'worker':>6s} {'peer':20s} {'batches':>7s} "
            f"{'cands':>6s} {'busy s':>7s} {'util':>6s} {'mesh B':>10s}")
        for row in fleet:
            say(f"  {row['worker_id']:6d} {str(row['peer']):20s} "
                f"{row['batches']:7d} {row['candidates']:6d} "
                f"{row['busy_seconds']:7.1f} {row['utilization']:5.1%} "
                f"{row['mesh_bytes']:10d}")

    latencies = tables.latency_rows(events)
    if latencies:
        say("\nlatency percentiles (merged across processes):")
        say(f"  {'histogram':28s} {'count':>7s} {'p50 ms':>9s} "
            f"{'p95 ms':>9s} {'p99 ms':>9s}")
        for row in latencies:
            say(f"  {row['name']:28s} {row['count']:7d} "
                f"{1000.0 * row['p50']:9.2f} {1000.0 * row['p95']:9.2f} "
                f"{1000.0 * row['p99']:9.2f}")

    counters = tables.merged_counters(events)
    if counters:
        say("\ncounters (all processes):")
        for name in sorted(counters):
            value = counters[name]
            rendered = f"{value:g}" if isinstance(value, float) else str(value)
            say(f"  {name:32s} {rendered}")

    if args.chrome_trace is not None:
        trace = tables.chrome_trace(events)
        args.chrome_trace.write_text(json.dumps(trace))
        say(f"\nchrome trace: {len(trace['traceEvents'])} span(s) -> "
            f"{args.chrome_trace} (load in chrome://tracing or ui.perfetto.dev)")

    return lines, {
        "records": len(events),
        "processes": processes,
        "breakdown": breakdown,
        "tier_ratios": tiers,
        "tenants": tenants,
        "fleet": fleet,
        "latency": latencies,
        "counters": counters,
    }


# ---------------------------------------------------------------------------
# tail: follow a running campaign's or service's /status
# ---------------------------------------------------------------------------

def build_tail_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign tail",
        description="Live in-place progress view of a running campaign's or "
                    "service's /status endpoint, on stderr.",
    )
    parser.add_argument("address", metavar="HOST:PORT",
                        help="the --obs-port endpoint of a running campaign "
                             "(HOST:PORT or a full http:// URL)")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="poll period in seconds (default: 1.0)")
    parser.add_argument("--max-polls", type=int, default=None,
                        help="stop after this many polls (default: until the "
                             "server goes away or the campaign finishes)")
    return parser


def tail_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_tail_parser()
    args = parser.parse_args(argv)
    if args.interval < 0:
        parser.error(f"--interval must be >= 0, got {args.interval}")
    from repro.telemetry.live import tail

    return tail(args.address, interval=args.interval, max_polls=args.max_polls)


# ---------------------------------------------------------------------------
# serve / submit: the tuning service and its client
# ---------------------------------------------------------------------------

def token_flag() -> argparse.ArgumentParser:
    """``--token``, which ``serve`` and ``submit`` share, declared once: pass
    as ``parents=[token_flag()]``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--token", default=os.environ.get("REPRO_SERVICE_TOKEN"),
                        help="the service's shared bearer token, sent with "
                             "every client request (default: "
                             "$REPRO_SERVICE_TOKEN; unset = open, loopback only)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    from repro.distrib.jobs import AdmissionLimits

    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign serve",
        description="Run the multi-tenant tuning service: clients submit "
                    "jobs over the pickle-free wire format; a fair-share "
                    "queue interleaves tenants' generations over one shared "
                    "worker fleet and artifact mesh.",
        parents=[fleet_flags(), common_flags(), token_flag()],
    )
    parser.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="client-plane listen address (default: 127.0.0.1:0)")
    parser.add_argument("--state-dir", type=Path, default=None,
                        help="durability root: job table, per-job database "
                             "shards, artifact store; restart over the same "
                             "directory to resume unfinished jobs")
    # Hidden and inert: benchmarks/ledger/fleet.py still starts serve with
    # ``--dispatch distributed --serve-workers``.  ROADMAP item 1's fleet.py
    # bullet drops it there, and then it goes from here.
    parser.add_argument("--dispatch", choices=("distributed",), help=argparse.SUPPRESS)
    parser.add_argument("--max-active-jobs", type=int, default=4,
                        help="concurrent job runner cap (default: 4); the "
                             "fair-share turnstile serializes generations "
                             "regardless")
    parser.add_argument("--max-source-bytes", type=int,
                        default=AdmissionLimits.max_source_bytes,
                        help="admission cap on submitted source size "
                             "(default: %(default)s)")
    parser.add_argument("--max-generations", type=int,
                        default=AdmissionLimits.max_generations,
                        help="admission cap on budget.generations "
                             "(default: %(default)s)")
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    if args.serve_workers is None:
        if args.dispatch is not None:
            parser.error("--dispatch distributed requires --serve-workers")
        if args.min_workers > 0:
            parser.error("--min-workers requires --serve-workers")
    configure_logging(verbose=args.verbose, quiet=args.quiet)
    from repro.distrib.protocol import parse_address
    from repro.campaign.service import ServiceConfig, TuningService, serve_forever
    from repro.distrib.jobs import AdmissionLimits

    try:
        host, port = parse_address(args.bind)
        # Building the service opens its session: the same refusals as a
        # campaign's (--workers 0, a keyless wildcard --serve-workers).
        service = TuningService(ServiceConfig(
            host=host, port=port, token=args.token, state_dir=args.state_dir,
            workers=args.workers, serve_workers=args.serve_workers,
            authkey=args.authkey,
            limits=AdmissionLimits(max_source_bytes=args.max_source_bytes,
                                   max_generations=args.max_generations),
            max_active_jobs=args.max_active_jobs,
            obs_port=args.obs_port, obs_host=args.obs_host,
            telemetry_dir=args.telemetry_dir,
        ))
    except (KeyError, ValueError) as exc:
        parser.error(_reason(exc))
    # SIGTERM drains exactly like Ctrl-C: jobs parked, pool children reaped.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        logger.info("tuning service: clients connect to %s", service.address_string())
        if args.min_workers > 0:
            logger.info("waiting for %d worker(s)...", args.min_workers)
            service.wait_for_workers(args.min_workers)
        serve_forever(service)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def build_submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign submit",
        description="Submit one tuning job to a running service and "
                    "(optionally) stream its generation summaries.",
        parents=[token_flag()],
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
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
    parser = build_submit_parser()
    args = parser.parse_args(argv)
    from repro.distrib.client import ServiceClient
    from repro.distrib.errors import ServiceError
    from repro.distrib.protocol import parse_address

    try:
        parse_address(args.connect)
        source_text = (args.source.read_text() if args.source is not None
                       else benchmark(args.benchmark).source)
    except (KeyError, OSError, ValueError) as exc:
        parser.error(_reason(exc))
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
    except ServiceError as exc:
        print(f"rejected [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach the tuning service at {args.connect}: {exc}",
              file=sys.stderr)
        return 2
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


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    readers = {"report": report_main, "tail": tail_main}
    if argv and argv[0] in readers:
        try:
            code = readers[argv[0]](argv[1:])
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return code
        except BrokenPipeError:
            # The reader left (``report ... | head``): the conventional quiet
            # exit, not a traceback.  Point stdout at devnull so the
            # interpreter's teardown flush cannot raise the same error again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
        except KeyboardInterrupt:
            # Ctrl-C is how a tail session ends; no traceback.
            return 130
    if argv and argv[0] == "worker":
        from repro.distrib.worker import main as worker_main

        return worker_main(argv[1:], prog="python -m repro.campaign worker")
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    return run_main(argv)
