#!/usr/bin/env python3
"""The performance ledger: one command for every metric in BENCHMARK.json.

    python3 benchmarks/ledger/run.py --workload cold_tune --seed 7 --seconds 15 --trace 0
    python3 benchmarks/ledger/run.py --workload cold_tune --trace 1      # per-layer replay
    python3 benchmarks/ledger/run.py --repeat 10 --out A.json            # every workload x10
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --selftest
    python3 benchmarks/ledger/run.py --update-expected

With ``--workload`` (and ``--repeat 1``) the run happens in this process and
the last line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: every end-to-end metric with ``--trace 0``, every
per-layer metric with ``--trace 1``.  Otherwise this process only starts one
child per run and collects their results.  Exit status: 0 on success, 1 when
an operation failed a check (or ``--compare`` found a metric worse), 2 when
the ledger refuses to run (no source tree, a pinned program drifted).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
SOURCE_ROOT = ROOT / "src"
WORK_ROOT = LEDGER / ".work"
OUT_DIR = LEDGER / "out"
EXPECTED_PATH = LEDGER / "expected.json"

CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in CATALOGUE["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in CATALOGUE["per_layer"]}
WORKLOAD_NAMES = [workload["name"] for workload in CATALOGUE["workloads"]]

#: Set-ups per run; ``setup_s`` reports their median (plus the one-off import).
SETUP_REPEATS = 3
#: Seconds a child run may take before the parent kills it.
CHILD_TIMEOUT_S = 180
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

REFUSED = 2


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the children it spawns on one CPU.
    The tuner's compile lane adds threads to the main one, all bound by the
    GIL; on a shared two-core host the hand-offs between cores follow the
    neighbours' load, not the program (measured on ``cold_tune``: cycles of
    2.9-3.1 s pinned, 3.4-4.6 s unpinned), so an unpinned run measures the
    scheduler."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_layers() -> float:
    """Put the source tree on the path and import it; returns the seconds the
    imports took (a share of ``setup_s`` every fresh process pays)."""
    if not (SOURCE_ROOT / "repro").is_dir():
        print(f"ledger: no source tree at {SOURCE_ROOT}", file=sys.stderr)
        raise SystemExit(REFUSED)
    sys.path.insert(0, str(SOURCE_ROOT))
    started = time.perf_counter()
    import replay  # noqa: F401 — imports workloads and every layer with it
    return time.perf_counter() - started


def load_pins() -> Dict[str, object]:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (all equal to the value for a single sample)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def best(samples) -> float:
    """The fastest of the samples that time one piece of work.  What disturbs
    a cycle on a shared host (a neighbour on the core, a throttled phase of
    ten to thirty seconds) only ever adds time, so the fastest cycle is the
    steadiest estimate of what the program itself costs, as ``timeit``'s
    documentation argues; a median follows the host instead whenever the slow
    phase covers half the run."""
    return min(samples, default=0.0)


def positional_median(per_cycle: Sequence[Sequence[float]]) -> float:
    """Median over positions of the best over cycles.  The k-th sample of
    every cycle times the same piece of work (same job, same generation), so
    the inner ``best`` is a robust estimate of that piece; pooling all samples
    instead would put the median on the edge between two kinds of work."""
    width = min((len(samples) for samples in per_cycle), default=0)
    return median(best(samples[k] for samples in per_cycle) for k in range(width))


def peak_rss_mib() -> float:
    """Max RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# One run, in this process
# ---------------------------------------------------------------------------

def make_workload(name: str, seed: int, pins: Dict[str, object], tiny: bool):
    from workloads import WORKLOADS

    workdir = WORK_ROOT / f"{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](seed, workdir, pins, SOURCE_ROOT, tiny=tiny)


def release(workload) -> None:
    workload.teardown()
    shutil.rmtree(workload.workdir, ignore_errors=True)


def result_line(attempted: int, failures: List[str],
                metrics: Dict[str, float], catalogue: Dict[str, dict]) -> Dict[str, object]:
    failed = min(len(failures), attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": catalogue[name]["unit"]}
                    for name in catalogue},
    }


def report(result: Dict[str, object], notes: Sequence[str], failures: Sequence[str]) -> None:
    """Every metric by name and unit, then the result as the last line."""
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(note)
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    if len(failures) > 10:
        print(f"FAILED: ... and {len(failures) - 10} more")
    print(json.dumps(result))


def measure(name: str, seed: int, seconds: float, import_s: float,
            pins: Dict[str, object], tiny: bool = False):
    """The untraced run: set up, repeat cycles until ``seconds`` are spent,
    report the best over the cycles.  Returns ``(result, notes, failures)``."""
    workload = make_workload(name, seed, pins, tiny)
    try:
        setup_samples = []
        for _ in range(1 if tiny else SETUP_REPEATS):
            started = time.perf_counter()
            workload.setup()
            setup_samples.append(time.perf_counter() - started)
        cycles = []
        started = time.perf_counter()
        while True:
            cycles.append(workload.cycle(len(cycles)))
            elapsed = time.perf_counter() - started
            # Stop when another cycle of the average length would overrun.
            if tiny or elapsed + elapsed / len(cycles) > seconds:
                break
    finally:
        release(workload)

    failures = workload.setup_failures + [f for cycle in cycles for f in cycle.failures]
    attempted = workload.setup_checks + sum(cycle.operations for cycle in cycles)
    timed = [cycle for cycle in cycles if cycle.wall_s > 0]
    if not timed:
        failures.append("no cycle completed a job")
    gaps = [s for cycle in timed for s in cycle.generation_gaps_s]
    fitness = [job.best_fitness for cycle in timed for job in cycle.jobs]
    metrics = {
        "wall_s": best(c.wall_s for c in timed),
        "candidates_per_s": max((c.requested / c.wall_s for c in timed), default=0.0),
        "first_generation_s": positional_median([c.first_generation_s for c in timed]),
        "generation_p50_s": positional_median([c.generation_gaps_s for c in timed]),
        "peak_rss_mb": peak_rss_mib(),
        "best_ncd": statistics.fmean(fitness) if fitness else 0.0,
        "ok_share": 1.0 - min(len(failures), attempted) / attempted,
        "setup_s": import_s + median(setup_samples),
    }
    notes = [
        f"# workload={name} seed={seed} pinned={str(workload.pinned).lower()} "
        f"cycles={len(cycles)} candidates/cycle={cycles[0].requested} "
        f"generation gaps={len(gaps)} (pooled p75 "
        f"{quartiles(gaps)[2] if gaps else 0.0:.6g} s, not gated) "
        f"failed_share={1.0 - metrics['ok_share']:.6g}"
    ]
    return result_line(attempted, failures, metrics, END_TO_END), notes, failures


def trace(name: str, seed: int, pins: Dict[str, object], tiny: bool = False):
    """The traced run: one untraced cycle, then its candidates replayed
    serially through each layer.  Returns ``(result, notes, failures, tracer)``."""
    from replay import LAYER_SPANS, Replay
    from tracer import Tracer

    workload = make_workload(name, seed, pins, tiny)
    tracer = Tracer(name)
    try:
        workload.setup()
        cycle = workload.cycle(0)
        replay = Replay(tracer, pins.get("programs", {}), workload.workdir,
                        workload.replay_store_dir())
        replay.run(cycle)
        counts = replay.cache_and_store_counts()
    finally:
        release(workload)

    seconds = tracer.totals()
    own = tracer.self_times()
    stats = cycle.stats
    service = cycle.service or {}
    evaluated = sum(len(job.records) for job in cycle.jobs)
    run_s = seconds.get("emulator.run", 0.0)
    compile_parts = sum(seconds.get(part, 0.0) for part in
                        ("ir.clone", "opt.passes", "backend.codegen", "backend.link"))

    layers_s = sum(own.get(layer, 0.0) for layer in LAYER_SPANS)
    metrics = {metric: seconds.get(metric[:-2], 0.0)
               for metric in PER_LAYER if metric.endswith("_s")}
    metrics.update({metric: float(tracer.counts.get(metric, 0))
                    for metric in PER_LAYER if not metric.endswith("_s")})
    metrics.update(counts)
    metrics.update({
        "compilers.unaccounted_s": seconds.get("compilers.compile", 0.0) - compile_parts,
        "emulator.steps_per_s": tracer.counts["emulator.steps"] / run_s if run_s else 0.0,
        "engine.requested": float(cycle.requested),
        "engine.evaluated": float(evaluated),
        "engine.dedupe_ratio": 1.0 - evaluated / cycle.requested if cycle.requested else 0.0,
        "stage.compile_s": stats.compile_seconds,
        "stage.measure_s": stats.measure_seconds,
        "stage.score_s": stats.score_seconds,
        "stage.artifact_hits": float(stats.artifact_hits),
        "stage.artifact_misses": float(stats.artifact_misses),
        "service.submit_rtt_s": median(service.get("submit_rtt_s", ())),
        "service.queue_wait_s": median(service.get("queue_wait_s", ())),
        "service.job_done_s": median(service.get("job_done_s", ())),
        "service.jobs": float(service.get("jobs", 0)),
        "service.rejected": float(service.get("rejected", 0)),
        "service.compile_s": float(service.get("compile_s", 0.0)),
        "service.artifact_hits": float(service.get("artifact_hits", 0)),
        # The turnstile runs one generation at a time on one worker slot, so
        # wall minus the replayed compute is what orchestration cost.  (The
        # worker's own report cannot be the subtrahend: it sums the
        # non-additive stage seconds and exceeds the wall.)
        "fleet.dispatch_overhead_s": cycle.wall_s - layers_s if service else 0.0,
        "campaign.overhead_s": cycle.campaign_overhead_s,
        "trace.accounted_share": layers_s / cycle.wall_s if cycle.wall_s else 0.0,
        "trace.overhead_ratio": (
            seconds.get("replay", 0.0) / cycle.wall_s if cycle.wall_s else 0.0),
    })
    failures = (workload.setup_failures + cycle.failures + replay.failures
                + tracer.nesting_violations())
    attempted = workload.setup_checks + cycle.operations
    shares = sorted(((own.get(layer, 0.0), layer) for layer in LAYER_SPANS), reverse=True)
    notes = [f"# workload={name} seed={seed} untraced cycle {cycle.wall_s:.3f} s, "
             f"replay {seconds.get('replay', 0.0):.3f} s; largest layers by self time:"]
    notes += [f"#   {layer:22s} {value:8.3f} s  {value / cycle.wall_s:6.1%} of the cycle"
              for value, layer in shares[:6] if cycle.wall_s]
    return result_line(attempted, failures, metrics, PER_LAYER), notes, failures, tracer


def run_one(args) -> int:
    """``--workload NAME``: one run here, result as the last line."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    pin_to_one_cpu()
    import_s = import_layers()
    from workloads import PinDrift
    from fleet import FleetError

    pins = load_pins()
    try:
        if args.trace:
            result, notes, failures, tracer = trace(args.workload, args.seed, pins)
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            path.write_text(json.dumps(tracer.chrome_trace()))
            notes.append(f"# chrome trace: {path.relative_to(ROOT)}")
        else:
            result, notes, failures = measure(
                args.workload, args.seed, args.seconds, import_s, pins)
    except (PinDrift, FleetError) as exc:
        print(f"ledger: refusing to run {args.workload}: {exc}", file=sys.stderr)
        return REFUSED
    report(result, notes, failures)
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Many runs, one child each
# ---------------------------------------------------------------------------

def run_children(args) -> int:
    """No ``--workload``, or ``--repeat K``: one child per run (fresh
    interpreter, like the driver), seeds ``seed .. seed+K-1``."""
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    runs, status = [], 0
    for name in names:
        for offset in range(args.repeat):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed + offset),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
            result, why = None, "timeout"
            try:
                child = subprocess.run(command, capture_output=True, text=True,
                                       timeout=CHILD_TIMEOUT_S)
                why = (child.stderr.strip() or "\n".join(
                    line for line in child.stdout.splitlines()
                    if line.startswith("FAILED")))[-400:]
                result = json.loads(child.stdout.strip().splitlines()[-1])
            except subprocess.TimeoutExpired:
                pass
            except (IndexError, json.JSONDecodeError):
                why = why or "no result line"
            if result is None or not result["correct"]:
                status = 1
                print(f"{name} seed {args.seed + offset}: FAILED ({why})")
            if result is not None:
                runs.append({"workload": name, "seed": args.seed + offset,
                             "trace": args.trace, "result": result})
    for name in names:
        print(f"== {name}")
        for metric, samples in samples_by_metric(runs, name).items():
            q1, median, q3 = quartiles(samples)
            print(f"{metric:28s} {median:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"{samples_unit(runs, name, metric)}  n={len(samples)}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1))
    return status


def samples_by_metric(runs: List[dict], workload: str) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    for run in runs:
        if run["workload"] == workload:
            for metric, entry in run["result"]["metrics"].items():
                out.setdefault(metric, []).append(entry["value"])
    return out


def samples_unit(runs: List[dict], workload: str, metric: str) -> str:
    return next(run["result"]["metrics"][metric]["unit"]
                for run in runs if run["workload"] == workload)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def verdict(before: Sequence[float], after: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """The choosing-metrics guide's rule (section 6, step 5) for one pairing of
    workload and end-to-end metric."""
    q_before, q_after = quartiles(before), quartiles(after)
    base = abs(q_before[1]) or 1.0
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (q_after[1] - q_before[1]) / base
    spread = max((q_before[2] - q_before[0]) / base,
                 (q_after[2] - q_after[0]) / (abs(q_after[1]) or 1.0))
    every_run_better = all(sign * (a - b) < 0 for a in after for b in before)
    if worse_by > bound:
        word = "worse"
    elif spread > bound:
        word = "better" if every_run_better else "unresolved"
    elif -worse_by > (q_before[2] - q_before[0]) / base and worse_by < 0:
        word = "better"
    else:
        word = "unchanged"
    return {"before": q_before, "after": q_after, "delta": -worse_by,
            "spread": spread, "verdict": word}


def compare(path_a: str, path_b: str) -> int:
    runs_a = json.loads(Path(path_a).read_text())["runs"]
    runs_b = json.loads(Path(path_b).read_text())["runs"]
    status = 0
    print(f"{'workload':14s} {'metric':20s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'delta':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOAD_NAMES:
        samples_a = samples_by_metric(runs_a, workload)
        samples_b = samples_by_metric(runs_b, workload)
        for metric, spec in END_TO_END.items():
            if metric not in samples_a or metric not in samples_b:
                continue
            row = verdict(samples_a[metric], samples_b[metric],
                          spec["better"], spec["bound"])
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                     for q in (row["before"], row["after"])]
            print(f"{workload:14s} {metric:20s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{row['delta']:+8.1%} {spec['bound']:6.0%}  {row['verdict']}")
            if row["verdict"] == "worse":
                status = 1
    print("delta > 0 is an improvement of B over A, in the metric's own direction")
    return status


# ---------------------------------------------------------------------------
# --update-expected
# ---------------------------------------------------------------------------

def update_expected(seed: int) -> int:
    """Freeze the expectations: each program's source hash and ``-O0``
    observable state as the *reference* emulator engine produces it, then one
    traced run per workload for the candidate count and the fingerprints."""
    import_layers()
    from repro.analysis.emulator import DISPATCH_ENV, REFERENCE_DISPATCH, run_program
    from repro.campaign.campaign import default_compiler_provider
    from workloads import WORKLOADS

    pins: Dict[str, object] = {
        "note": "Frozen by run.py --update-expected; never rewritten by a normal run.",
        "seed": seed, "programs": {}, "workloads": {},
    }
    os.environ[DISPATCH_ENV] = REFERENCE_DISPATCH
    try:
        for cls in WORKLOADS.values():
            for program in cls(seed, WORK_ROOT, {}, SOURCE_ROOT).programs():
                image = default_compiler_provider("gcc").compile_level(
                    program.source, "O0", name=program.name).image
                state = run_program(image, args=program.arguments, inputs=program.inputs)
                pins["programs"][program.name] = {
                    "source_sha256": program.sha256(),
                    "o0": list(state.observable_state()),
                }
    finally:
        del os.environ[DISPATCH_ENV]
    for name in WORKLOAD_NAMES:
        workload = make_workload(name, seed, pins, tiny=False)
        try:
            workload.setup()
            cycle = workload.cycle(0)
        finally:
            release(workload)
        problems = workload.setup_failures + cycle.failures
        if problems:
            print(f"ledger: {name} fails its own checks, not pinning: {problems[0]}",
                  file=sys.stderr)
            return 1
        pins["workloads"][name] = {
            "candidates": cycle.requested,
            "fingerprints": {job.key(): job.fingerprint for job in cycle.jobs},
        }
        # The replay checks every candidate's behaviour against the new pins.
        result, _notes, failures, _tracer = trace(name, seed, pins)
        if failures:
            print(f"ledger: {name} replay disagrees, not pinning: {failures[0]}",
                  file=sys.stderr)
            return 1
    EXPECTED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------------
# --selftest
# ---------------------------------------------------------------------------

def selftest() -> int:
    """Tiny budgets, under 20 s: the ledger checks itself."""
    import copy

    import_s = import_layers()
    pins = load_pins()
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    names = WORKLOAD_NAMES + list(END_TO_END) + list(PER_LAYER)
    expect(all(NAME_RE.match(name) for name in names), "a catalogue name is malformed")
    expect(len(set(names)) == len(names), "a catalogue name is used twice")
    collected = [p.name for p in LEDGER.rglob("*.py")
                 if p.name.startswith("test_") or p.name.endswith("_test.py")]
    expect(not collected, f"pytest would collect {collected}")

    from workloads import WORKLOADS
    expect(sorted(WORKLOADS) == sorted(WORKLOAD_NAMES),
           "BENCHMARK.json and workloads.py name different workloads")
    for name in WORKLOAD_NAMES:
        result, _notes, failures = measure(name, 1, 0.0, import_s, pins, tiny=True)
        expect(set(result["metrics"]) == set(END_TO_END),
               f"{name}: end-to-end metrics differ from BENCHMARK.json")
        expect(all(entry["value"] > 0 for entry in result["metrics"].values()),
               f"{name}: an end-to-end metric is zero")
        expect(result["correct"], f"{name}: {failures[:1]}")

    result, _notes, failures, tracer = trace("cold_tune", 1, pins, tiny=True)
    expect(set(result["metrics"]) == set(PER_LAYER),
           "cold_tune: per-layer metrics differ from BENCHMARK.json")
    expect(result["correct"], f"cold_tune trace: {failures[:1]}")
    expect(tracer.spans and not tracer.nesting_violations(), "trace spans do not nest")
    expect(all(s.parent is None or s.parent < i for i, s in enumerate(tracer.spans)),
           "a span precedes its parent")

    corrupted = copy.deepcopy(pins)
    victim = corrupted["programs"]["429.mcf"]
    victim["o0"] = [victim["o0"][0] + 1, victim["o0"][1]]
    result, _notes, _failures = measure("cold_tune", 1, 0.0, import_s, corrupted, tiny=True)
    expect(result["failed"] > 0 and not result["correct"]
           and result["metrics"]["ok_share"]["value"] < 1.0,
           "a corrupted expectation went unnoticed")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CATALOGUE["run_seconds"],
                        help="how long one untraced run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: one cycle plus its per-layer replay")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds seed..seed+K-1, one child each")
    parser.add_argument("--out", help="write every child's result to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--update-expected", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selftest:
            return selftest()
        if args.update_expected:
            return update_expected(args.seed)
        if args.workload and args.repeat == 1 and not args.out:
            return run_one(args)
        return run_children(args)
    finally:
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
