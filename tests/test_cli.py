"""The three command lines share their common flags by construction.

``python -m repro.campaign`` (``run``), ``... serve`` and
``python -m repro.distrib.worker`` build their parsers from the same parent
parsers, so a flag they share has one spelling, one ``dest`` and one
default; ``serve`` and ``submit`` share ``--token`` the same way, and the
worker's conflicting flag pairs are argparse groups.  Also here: the CLI's
user-facing error paths that used to print the wrong thing (an unreachable
service or coordinator, a fleet that never fills, the run's fleet log).
"""

from __future__ import annotations

import contextlib
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
FLEET_FLAGS = ("--serve-workers", "--workers", "--min-workers", "--obs-port", "--obs-host")


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


@pytest.mark.parametrize("flag", ["--max-retries", "--backoff", "--heartbeat",
                                  "--connect-timeout"])
def test_worker_session_constants_are_not_flags(flag, capsys):
    """The retry, heartbeat and connect settings are module constants: a
    value on the command line is one usage error, not a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        worker_main(["--connect", "127.0.0.1:1", flag, "0"])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"python -m repro.distrib.worker: error: unrecognized "
                      f"arguments: {flag} 0"]


def test_serve_defaults_keep_serial_dispatch():
    """``serve`` with no fleet flags evaluates inline: one worker, and no
    address for remote ones to join."""
    args = build_serve_parser().parse_args([])
    assert (args.workers, args.serve_workers) == (1, None)
    args = build_serve_parser().parse_args(["--workers", "2"])
    assert (args.workers, args.serve_workers) == (2, None)


def test_serve_keeps_one_hidden_dispatch_spelling():
    """``serve --dispatch distributed --serve-workers ...`` still parses (the
    benchmark ledger's fleet starts serve so), adds nothing to the fleet and
    is in no help text; ``run`` has no ``--dispatch`` at all."""
    parser = build_serve_parser()
    args = parser.parse_args(["--dispatch", "distributed", "--serve-workers", "127.0.0.1:0"])
    assert (args.workers, args.serve_workers) == (1, "127.0.0.1:0")
    assert "--dispatch" not in parser.format_help()
    assert not any("--dispatch" in action.option_strings
                   for action in build_parser()._actions)


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
    """``--workers 2`` forks two local sessions, and the progress line says
    so."""
    from repro.campaign.cli import main

    caplog.set_level(logging.INFO, logger="repro.campaign.cli")
    assert main([
        "--benchmarks", "462.libquantum", "--families", "llvm",
        "--max-iterations", "4", "--population", "2", "--workers", "2",
    ]) == 0
    (message,) = [record.getMessage() for record in caplog.records
                  if record.getMessage().startswith("campaign:")]
    assert "(2 local sessions, warm-start on)" in message


#: A mistyped argument to each subcommand: a usage error naming it, never a
#: traceback.  The run cases all name a checkpoint dir that must stay absent.
MISTYPED = [
    ["--benchmarks", "nope"],
    ["--benchmarks", "429.mcf", "--families", "foo"],
    ["--suites", "nope"],
    ["--benchmarks", "429.mcf", "--workers", "0"],
    ["--benchmarks", "429.mcf", "--serve-workers", "nope"],
    ["--benchmarks", "429.mcf", "--serve-workers", "0.0.0.0:0"],
    ["--benchmarks", "429.mcf", "--workers", "2", "--min-workers", "3"],
    ["--benchmarks", "429.mcf", "--mesh"],
    ["serve", "--bind", "nope"],
    ["serve", "--workers", "0"],
    ["serve", "--serve-workers", "0.0.0.0:0"],
    ["serve", "--dispatch", "distributed", "--serve-workers", "0.0.0.0:0"],
    ["serve", "--dispatch", "distributed"],
    ["serve", "--dispatch", "process", "--serve-workers", "127.0.0.1:0"],
    ["serve", "--min-workers", "1"],
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


@pytest.mark.parametrize("argv, durable", [
    (["--benchmarks", "429.mcf"], "--checkpoint-dir"),
    (["serve"], "--state-dir"),
])
def test_a_telemetry_dir_beside_a_durable_dir_is_one_usage_error(
        argv, durable, tmp_path, capsys):
    """A run with a durable directory records under ``DIR/telemetry``; a
    second telemetry directory is refused before anything is written."""
    from repro.campaign.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main([*argv, durable, str(tmp_path / "durable"),
              "--telemetry-dir", str(tmp_path / "telemetry")])
    assert exit_info.value.code == 2
    (error,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert "telemetry_dir (--telemetry-dir)" in error
    assert not any(tmp_path.iterdir())


def _unresolvable(monkeypatch, stack):
    """An address no resolver knows, without asking one."""
    def no_such_name(*_args, **_kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socket, "getaddrinfo", no_such_name)
    return "nosuchhost.invalid:7000"


def _full_backlog(monkeypatch, stack):
    """A listener whose accept queue is full: the next SYN is dropped, so a
    connect waits out ``CONNECT_TIMEOUT``."""
    from repro.distrib import worker

    monkeypatch.setattr(worker, "CONNECT_TIMEOUT", 0.5)
    listener = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    for _ in range(3):
        filler = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_STREAM))
        filler.setblocking(False)
        filler.connect_ex(listener.getsockname())
    return f"127.0.0.1:{listener.getsockname()[1]}"


@pytest.mark.skipif(not loopback_available(), reason="no loopback networking")
@pytest.mark.parametrize("coordinator, reason", [
    (_unresolvable, "Name or service not known"),
    (_full_backlog, "timed out"),
], ids=["unresolvable-host", "connect-timeout"])
def test_a_worker_that_cannot_connect_prints_one_error_line(
        coordinator, reason, monkeypatch, capsys):
    """Any ``OSError`` of the first connect — not only a refusal — is one
    ``error:`` line naming the address and the reason, and status 2."""
    with contextlib.ExitStack() as stack:
        address = coordinator(monkeypatch, stack)
        assert worker_main(["--connect", address, "--no-store"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert line.startswith(f"python -m repro.distrib.worker: error: "
                           f"cannot reach the coordinator at {address}: ")
    assert line.endswith(reason)


@pytest.mark.skipif(not loopback_available(), reason="no loopback networking")
def test_a_fleet_that_never_fills_is_one_error_line(tmp_path, monkeypatch, capsys):
    """``--min-workers`` that no worker meets in time ends the run with one
    ``error:`` line and status 2, before any checkpoint is written."""
    from repro.campaign import campaign as campaign_module
    from repro.campaign.cli import main

    monkeypatch.setattr(campaign_module, "WORKER_WAIT_TIMEOUT", 0.5)
    # The run logs while it waits: on this test's stderr, not an earlier one's.
    monkeypatch.setattr(logging.getLogger("repro"), "handlers", [])
    checkpoint = tmp_path / "ckpt"
    assert main(["--benchmarks", "429.mcf", "--families", "llvm",
                 "--serve-workers", "127.0.0.1:0", "--min-workers", "1",
                 "--checkpoint-dir", str(checkpoint)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = [line for line in captured.err.splitlines() if "error:" in line]
    assert line.startswith("python -m repro.campaign: error: only 0 of 1 workers "
                           "registered with 127.0.0.1:")
    assert not (checkpoint / "jobs.json").exists()
    assert not (checkpoint / "database").exists()
