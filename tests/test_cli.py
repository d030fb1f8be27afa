"""The three command lines share their common flags by construction.

``python -m repro.campaign`` (``run``), ``... serve`` and
``python -m repro.distrib.worker`` build their parsers from the same parent
parsers, so a flag they share has one spelling, one ``dest`` and one
default; ``serve`` and ``submit`` share ``--token`` the same way, and the
worker's conflicting flag pairs are argparse groups.  Also here: the CLI's
two user-facing error paths that used to print the wrong thing (an
unreachable service, the run's substrate log).
"""

from __future__ import annotations

import logging
import socket

import pytest
from _helpers import loopback_available

from repro.campaign.cli import build_parser, build_serve_parser, build_submit_parser
from repro.distrib.worker import build_parser as build_worker_parser
from repro.distrib.worker import main as worker_main

PARSERS = {
    "run": build_parser,
    "serve": build_serve_parser,
    "submit": build_submit_parser,
    "worker": build_worker_parser,
}

#: Flags every CLI that talks to a worker plane takes.
COMMON_FLAGS = ("--authkey", "--telemetry-dir", "--verbose", "--quiet")
#: Flags of the two CLIs that own a worker pool and a /metrics server.
FLEET_FLAGS = ("--dispatch", "--workers", "--min-workers", "--obs-port", "--obs-host")


def _action(parser, flag):
    (action,) = [action for action in parser._actions if flag in action.option_strings]
    return action


@pytest.mark.parametrize(
    "flag, names",
    [(flag, ("run", "serve", "worker")) for flag in COMMON_FLAGS]
    + [(flag, ("run", "serve")) for flag in FLEET_FLAGS]
    + [("--token", ("serve", "submit"))],
)
def test_common_flag_has_one_dest_and_default(flag, names):
    actions = [_action(PARSERS[name](), flag) for name in names]
    assert len({action.dest for action in actions}) == 1
    assert len({repr(action.default) for action in actions}) == 1
    assert len({action.help for action in actions}) == 1


@pytest.mark.parametrize("name", ["run", "serve", "worker"])
def test_verbose_and_quiet_are_mutually_exclusive(name, capsys):
    argv = ["--verbose", "--quiet"]
    if name == "worker":
        argv += ["--connect", "127.0.0.1:1"]
    with pytest.raises(SystemExit) as exit_info:
        PARSERS[name]().parse_args(argv)
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("conflict", [
    ["--store-dir", "local-store", "--no-store"],
    ["--no-mesh", "--mesh-budget-bytes", "1024"],
])
def test_worker_flag_conflicts_are_argparse_groups(conflict, capsys):
    """Each conflicting pair is refused by the parser itself, with exit 2."""
    with pytest.raises(SystemExit) as exit_info:
        build_worker_parser().parse_args(["--connect", "127.0.0.1:1", *conflict])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_worker_store_budget_requires_a_store_dir(capsys):
    with pytest.raises(SystemExit) as exit_info:
        worker_main(["--connect", "127.0.0.1:1", "--store-max-bytes", "4096"])
    assert exit_info.value.code == 2
    assert "--store-max-bytes requires --store-dir" in capsys.readouterr().err


def test_serve_defaults_keep_serial_dispatch():
    """``serve`` with no ``--dispatch`` runs serial, and ``--workers 2``
    means the process pool — the pool's one resolution rule."""
    from repro.campaign.pool import resolve_dispatch

    args = build_serve_parser().parse_args([])
    assert resolve_dispatch(args.dispatch, args.workers) == "serial"
    args = build_serve_parser().parse_args(["--workers", "2"])
    assert resolve_dispatch(args.dispatch, args.workers) == "process"


@pytest.mark.skipif(not loopback_available(), reason="no loopback networking")
def test_submit_to_an_unreachable_service_prints_one_line(capsys):
    from repro.campaign.cli import main

    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    address = f"127.0.0.1:{port}"
    assert main(["submit", "--connect", address, "--tenant", "a",
                 "--program", "p", "--benchmark", "429.mcf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert address in line and "Traceback" not in captured.err


def test_run_logs_the_substrate_the_pool_resolved(tmp_path, caplog, capsys):
    """``--workers 2`` without ``--dispatch`` is a process pool, and the
    progress line says so."""
    from repro.campaign.cli import main

    caplog.set_level(logging.INFO, logger="repro.campaign.cli")
    assert main([
        "--benchmarks", "462.libquantum", "--families", "llvm",
        "--max-iterations", "4", "--population", "2", "--workers", "2",
    ]) == 0
    (message,) = [record.getMessage() for record in caplog.records
                  if record.getMessage().startswith("campaign:")]
    assert "(process dispatch, 2 workers" in message


#: A mistyped argument to each subcommand: a usage error naming it, never a
#: traceback.  The run cases all name a checkpoint dir that must stay absent.
MISTYPED = [
    ["--benchmarks", "nope"],
    ["--benchmarks", "429.mcf", "--dispatch", "thread"],
    ["--benchmarks", "429.mcf", "--families", "foo"],
    ["--suites", "nope"],
    ["--benchmarks", "429.mcf", "--workers", "0"],
    ["--benchmarks", "429.mcf", "--dispatch", "distributed", "--serve", "nope"],
    ["--benchmarks", "429.mcf", "--dispatch", "distributed", "--serve", "0.0.0.0:0"],
    ["serve", "--bind", "nope"],
    ["serve", "--workers", "0"],
    ["serve", "--dispatch", "distributed", "--serve-workers", "0.0.0.0:0"],
    ["worker", "--connect", "nope"],
    ["worker", "--connect", "127.0.0.1:1", "--slots", "0"],
    ["submit", "--connect", "nope", "--tenant", "a", "--program", "p",
     "--benchmark", "429.mcf"],
    ["submit", "--connect", "127.0.0.1:1", "--tenant", "a", "--program", "p",
     "--benchmark", "nope"],
    ["submit", "--connect", "127.0.0.1:1", "--tenant", "a", "--program", "p",
     "--source", "no-such-file.c"],
]


@pytest.mark.parametrize("argv", MISTYPED, ids=[" ".join(argv) for argv in MISTYPED])
def test_a_mistyped_argument_is_one_usage_error(argv, tmp_path, monkeypatch, capsys):
    from repro.campaign.cli import main

    monkeypatch.delenv("REPRO_DISTRIB_AUTHKEY", raising=False)
    checkpoint = tmp_path / "ckpt"
    if argv[0].startswith("--"):
        argv = [*argv, "--checkpoint-dir", str(checkpoint)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (error,) = [line for line in err.splitlines() if "error:" in line]
    command = "run" if argv[0].startswith("--") else argv[0]
    prog = "python -m repro.campaign" + ("" if command == "run" else f" {command}")
    assert error.startswith(f"{prog}: error:")
    assert f"usage: {prog} " in err
    assert not checkpoint.exists()
