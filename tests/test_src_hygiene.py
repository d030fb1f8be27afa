"""Source hygiene: the environment is not a configuration channel.

Behaviour under ``src/repro`` is selected by arguments and config objects.
Every line that touches ``os.environ`` / ``getenv`` is pinned here, so a new
escape hatch fails CI the day it is written instead of waiting for a
re-anchor to find it.  What is allowed: the CLI defaults for the two secrets
(``--authkey`` / ``--token``, which must not appear on a command line) and
the emulator's ``DISPATCH_ENV`` read.

The artifact tiers' counters are pinned the same way: no literal sink bump
of an ``artifact.`` / ``store.`` / ``mesh.`` name anywhere under ``src/repro``.
So is the owner of every evaluation substrate: ``SharedWorkerPool`` builds
the coordinator a mapper borrows, for a local fleet as for a distributed one.  And
the owner of every run's session: ``open_session`` next to it is the only
place that builds the observability server or installs a sink, apart from
the remote worker's own ``--telemetry-dir``.  And the owner of every shared
CLI flag and of the checkpoint format: ``run`` / ``serve`` / ``worker``
declare their common flags once, in parent parsers (``serve`` and
``submit`` share ``--token`` the same way), and only
``campaign/campaign.py`` names the job table (``jobs.json``, which a
campaign checkpoint and a service state dir share) and the older
``manifest.json`` it still reads; its constants name the rest of that
directory (``database/``, ``store/``, ``telemetry/``).  And the owner of
the artifact cache: the run's owner (a campaign, the tuning service)
attaches the store once, a worker's shared cache is the only other
attachment, and no tuner or evaluator field re-passes the store's
configuration.  The checkpoint database's own layout (``index.json``) is
named only by ``campaign/database.py``.

And the order of the packages: every ``repro.*`` import under
``src/repro`` names its own package or one earlier in ``PACKAGE_ORDER`` —
module-level, inside a function or under ``TYPE_CHECKING`` alike — so no
two packages import each other.  The one pinned exception is
``LATE_IMPORTS``'s: the evaluation engine names the worker plane's
``ProtocolError``, which the mapper must raise on a mismatched reply.

And every option: the fields of the config objects and the parameters of
the coordinator are pinned by name.  A new option needs a shipped caller
(``src/``, ``benchmarks/``, ``examples/``, CI or the README) that sets a
non-default value; a value only a test changes is a module constant the
test monkeypatches.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Any mention at all (a bare ``environ`` alias would dodge ``ENV_NAME``).
ENV_MENTION = re.compile(r"\benviron\b|\bgetenv\b")
#: The variable a mention reads, writes or pops: a literal or a constant.
ENV_NAME = re.compile(r"""(?:\benviron(?:\.\w+)?|\bgetenv)\s*[\[(]\s*["']?(\w+)""")

#: ``(file under src/repro, variable) -> lines that touch it``.
ALLOWED = Counter({
    ("campaign/cli.py", "REPRO_SERVICE_TOKEN"): 1,
    ("distrib/worker.py", "REPRO_DISTRIB_AUTHKEY"): 1,
    ("analysis/emulator.py", "DISPATCH_ENV"): 1,
})

#: ``(file under src/repro, constructor) -> calls``: one substrate owner.
SUBSTRATE_OWNERS = Counter({
    ("campaign/pool.py", "Coordinator"): 1,
})

#: ``(file under src/repro, call) -> calls``: one session owner.
SESSION_OWNERS = Counter({
    ("campaign/pool.py", "ObservabilityServer"): 1,
    ("campaign/pool.py", "telemetry.recording"): 1,
    ("distrib/worker.py", "telemetry.recording"): 1,
})


#: Flags two or three CLIs share: each ``add_argument`` appears once.
COMMON_FLAGS = (
    "--authkey", "--telemetry-dir", "--verbose", "--quiet",
    "--dispatch", "--workers", "--min-workers", "--obs-port", "--obs-host",
    "--token",
)

#: ``(file under src/repro, enclosing function) -> ensure_store calls``.
STORE_OWNERS = Counter({
    ("campaign/campaign.py", "__init__"): 1,
    ("campaign/service.py", "__init__"): 1,
    ("tuner/pipeline.py", "shared_artifact_cache"): 1,
})

#: Store configuration that only the cache's owner may hold.
STORE_KNOBS = {"store_dir", "store_max_bytes", "cache_size", "artifact_cache_size"}

#: The packages under ``src/repro``, lowest first: each imports only from
#: itself and the packages before it.
PACKAGE_ORDER = (
    "telemetry", "minic", "ir", "backend", "opt", "compilers", "analysis",
    "difftools", "provenance", "workloads", "malware", "tuner", "distrib",
    "campaign", "experiments",
)

#: ``(file under src/repro, imported module)``: the imports allowed to reach
#: a later package.  ``tuner/evaluation.py`` raises the worker plane's
#: ``ProtocolError`` for a reply that answers another batch, a lazy import
#: ``test_mismatched_reply_is_protocol_error_not_worker_loss`` pins.
LATE_IMPORTS = {("tuner/evaluation.py", "repro.distrib.errors")}


def test_common_cli_flags_are_declared_once():
    """``run``, ``serve`` and ``worker`` take these from parent parsers; a
    second declaration is a second default and a second help text."""
    declaration = re.compile(r"""add_argument\(\s*["'](--[\w-]+)["']""")
    found = Counter(
        flag
        for path in sorted(SRC.rglob("*.py"))
        for flag in declaration.findall(path.read_text())
        if flag in COMMON_FLAGS
    )
    assert found == Counter(COMMON_FLAGS)


def test_the_run_owner_attaches_the_store():
    """``ensure_store`` is called by a campaign, the service and a worker's
    shared cache, nowhere else: a tuner, an evaluator or the mesh that
    attached a store of its own would be a second owner."""
    found = Counter()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "ensure_store"):
                    found[(path.relative_to(SRC).as_posix(), function.name)] += 1
    assert found == STORE_OWNERS


def test_no_store_knob_below_the_owner():
    from repro.tuner import BinTunerConfig, StagedCandidateEvaluator

    for owned in (BinTunerConfig, StagedCandidateEvaluator):
        names = {field.name for field in dataclasses.fields(owned)}
        assert not names & STORE_KNOBS, (owned.__name__, names & STORE_KNOBS)


def test_one_module_names_the_checkpoint_manifest():
    """One job table for every checkpoint directory: ``write_job_table`` is
    its only writer and ``read_checkpoint`` its only reader (campaign
    resume, the service's restart and ``report``), and only the latter
    reads the campaign's older manifest."""
    for name, owner in (("jobs.json", "campaign/campaign.py"),
                        ("manifest.json", "campaign/campaign.py"),
                        ("index.json", "campaign/database.py")):
        found = [
            path.relative_to(SRC).as_posix()
            for path in sorted(SRC.rglob("*.py"))
            if name in path.read_text()
        ]
        assert found == [owner], name


def test_one_module_names_the_run_directory_layout():
    """``database/``, ``store/`` and ``telemetry/`` under a checkpoint dir
    or a ``serve --state-dir`` are ``campaign/campaign.py``'s constants; a
    path joined with the bare name anywhere else is a second layout."""
    from repro.campaign import campaign

    assert (campaign.DATABASE_DIR, campaign.STORE_DIR, campaign.TELEMETRY_DIR,
            campaign.JOB_TABLE) == ("database", "store", "telemetry", "jobs.json")
    joined = re.compile(r"""/\s*["'](?:database|store|telemetry)["']""")
    found = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if joined.search(line)
    ]
    assert found == []
    users = {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "TELEMETRY_DIR" in path.read_text() or "session_telemetry_dir" in path.read_text()
    }
    assert users == {"campaign/campaign.py", "campaign/cli.py", "campaign/service.py"}


def test_one_owner_builds_every_evaluation_substrate():
    """A second place that constructs a coordinator or an executor is a
    second substrate owner: it fails here the day it is written."""
    call = re.compile(r"\b(Coordinator|ProcessPoolExecutor|ThreadPoolExecutor)\(")
    found = Counter(
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        for name in call.findall(line)
    )
    assert found == SUBSTRATE_OWNERS


def test_one_function_opens_every_session():
    """A campaign and the service open sink -> pool -> ``/metrics`` through
    ``open_session``; a second place that builds the server or installs a
    sink is a second session with its own rules."""
    call = re.compile(r"\b(ObservabilityServer|telemetry\.recording)\(")
    found = Counter(
        (path.relative_to(SRC).as_posix(), name)
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text().splitlines()
        for name in call.findall(line)
    )
    assert found == SESSION_OWNERS


def test_tier_counters_bump_through_one_type():
    """The artifact cache, store and both mesh ends count through
    ``repro.telemetry.Counters`` (the instance and the sink together); a
    literal ``incr("artifact.…")`` / ``store.`` / ``mesh.`` bump would count
    on ``/metrics`` alone and split the vocabulary again."""
    literal = re.compile(r"""incr\(\s*f?["'](?:artifact|store|mesh)\.""")
    found = [
        f"{path.relative_to(SRC).as_posix()}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if literal.search(line)
    ]
    assert found == []


def _repro_imports(tree: ast.AST):
    """Every ``repro.*`` module ``tree`` imports; ``from repro import x``
    names ``repro.x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "repro":
            names = [f"repro.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import under src/repro"
            names = [node.module]
        else:
            continue
        for name in names:
            if name.startswith("repro."):
                yield name


def test_packages_import_in_one_order():
    """A package imports its own modules and earlier packages' only, so
    ``campaign`` may use ``distrib`` and never the reverse: the service,
    which runs jobs as a campaign does, lives in ``campaign``."""
    rank = {package: index for index, package in enumerate(PACKAGE_ORDER)}
    packages = {path.name for path in SRC.iterdir() if (path / "__init__.py").exists()}
    assert packages == set(PACKAGE_ORDER)
    late = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if len(relative.parts) < 2:
            continue
        for name in _repro_imports(ast.parse(path.read_text())):
            if rank[name.split(".")[1]] > rank[relative.parts[0]]:
                late.add((relative.as_posix(), name))
    assert late == LATE_IMPORTS


def test_environment_reads_are_pinned():
    found = Counter()
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text().splitlines():
            if ENV_MENTION.search(line):
                match = ENV_NAME.search(line)
                name = match.group(1) if match else f"<unparsed: {line.strip()}>"
                found[(path.relative_to(SRC).as_posix(), name)] += 1
    assert found == ALLOWED, (
        "environment access under src/repro changed — pass configuration as "
        "arguments, or update ALLOWED with the reason in this file's docstring: "
        f"new {dict(found - ALLOWED)}, gone {dict(ALLOWED - found)}"
    )


#: Every option, by owner, in declaration order.
OPTIONS = {
    "CampaignConfig": (
        "name", "tuner", "workers", "dispatch", "serve", "authkey",
        "min_workers", "store_dir", "store_max_bytes", "mesh",
        "mesh_budget_bytes", "warm_start", "checkpoint_dir", "telemetry_dir",
        "obs_port", "obs_host",
    ),
    "ServiceConfig": (
        "host", "port", "token", "state_dir", "dispatch", "workers",
        "serve_workers", "authkey", "limits", "max_active_jobs", "obs_port",
        "obs_host", "telemetry_dir",
    ),
    "BinTunerConfig": (
        "max_iterations", "target_growth_rate", "stall_window", "ga",
        "search_strategy", "fitness_kind", "compressor", "max_emulation_steps",
        "warm_start", "pipeline",
    ),
    "BuildSpec": ("name", "source", "arguments", "inputs"),
    "StagedCandidateEvaluator": (
        "compiler", "source", "name", "baseline", "baseline_behaviour",
        "arguments", "inputs", "fitness_kind", "compressor",
        "max_emulation_steps", "artifact_cache",
    ),
    "Coordinator.__init__": (
        "host", "port", "authkey", "artifact_store", "mesh_budget_bytes",
    ),
}


def test_config_options_are_pinned():
    """A field or parameter added here needs a shipped caller that sets a
    non-default value; one only a test sets is a module constant."""
    import inspect

    from repro.campaign import CampaignConfig
    from repro.distrib.coordinator import Coordinator
    from repro.campaign.service import ServiceConfig
    from repro.tuner import BinTunerConfig, BuildSpec, StagedCandidateEvaluator

    found = {
        owner.__name__: tuple(field.name for field in dataclasses.fields(owner))
        for owner in (CampaignConfig, ServiceConfig, BinTunerConfig, BuildSpec,
                      StagedCandidateEvaluator)
    }
    found["Coordinator.__init__"] = tuple(
        inspect.signature(Coordinator.__init__).parameters)[1:]
    assert found == OPTIONS
