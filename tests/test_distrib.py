"""Tests for the distributed evaluation service.

The load-bearing guarantees:

* the wire protocol round-trips messages and fails loudly on corruption;
* ``DistributedMapper.map`` returns submission-order results for any worker
  count, survives worker death mid-batch via bounded re-dispatch, and falls
  back to in-process evaluation when no workers remain;
* remote evaluator exceptions propagate as programming errors (never
  re-dispatched), and transport failures surface as
  :class:`MapperTransportError` with the evaluator id and key slice;
* a tuner or campaign on a fleet — forked local sessions (``workers``),
  workers joining ``serve_workers``, or both — produces a database
  bit-for-bit identical to the serial run — including after killing a
  worker mid-generation and resuming from a checkpoint;
* ``--slots N`` is N one-slot worker sessions: the parent process plus
  N-1 children, each registering on its own connection.

All socket tests bind loopback only and skip cleanly on sandboxes without
AF_INET loopback.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import List

import pytest
from _helpers import fresh_process_state, loopback_available, run_tuner, thread_workers

from repro.campaign import (
    Campaign,
    CampaignConfig,
    ProgramJob,
    SharedWorkerPool,
)
from repro.campaign import campaign as campaign_module
from repro.opt.flags import FlagVector, build_gcc_registry
from repro.tuner import (
    BinTunerConfig,
    BuildSpec,
    CandidateResult,
    EvaluationEngine,
    GAParameters,
    MapperTransportError,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Sandboxes without AF_INET loopback cannot host the coordinator at all;
#: every test in this module at least imports it, so gate the whole module.
pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="no AF_INET loopback in this sandbox"
)

from repro.distrib import (  # noqa: E402  (import after the loopback gate)
    ConnectionClosed,
    Coordinator,
    DistribError,
    DistributedMapper,
    ProtocolError,
    parse_address,
    serve,
)
from repro.distrib import coordinator as coordinator_module  # noqa: E402
from repro.distrib import protocol  # noqa: E402


TINY_A = """
int acc[16];
int work(int n) { int i; int s = 0; for (i = 0; i < n; i++) { acc[i % 16] = i * 3; s += acc[i % 16]; } return s; }
int main() { int s = work(40); print_int(s); return s % 101; }
"""

TINY_B = """
int grid[24];
int mix(int n) { int i; int s = 1; for (i = 1; i < n; i++) { grid[i % 24] = s ^ (i * 5); s += grid[i % 24] % 7; } return s; }
int main() { int s = mix(30); print_int(s); return s % 97; }
"""

SOURCES = {"tiny-a": TINY_A, "tiny-b": TINY_B}
JOBS = [ProgramJob("llvm", "tiny-a"), ProgramJob("llvm", "tiny-b")]


def tiny_spec(job: ProgramJob) -> BuildSpec:
    return BuildSpec(name=job.program, source=SOURCES[job.program])


def tiny_campaign_config(**kwargs) -> CampaignConfig:
    return CampaignConfig(
        tuner=BinTunerConfig(
            max_iterations=16, ga=GAParameters(population_size=6, seed=9), stall_window=12
        ),
        **kwargs,
    )


class FakeEvaluator:
    """Picklable deterministic evaluator (tagged so tests can tell whose
    results came back when several evaluators share one coordinator)."""

    def __init__(self, tag: str = "fake") -> None:
        self.tag = tag

    def __call__(self, key) -> CandidateResult:
        return CandidateResult(
            fitness=float(len(key)),
            code_size=10 * len(key),
            fingerprint=f"{self.tag}:{'+'.join(key)}",
            valid=True,
            elapsed_seconds=0.0,
        )


class ExplodingEvaluator:
    """Raises a programming error remotely (must be picklable)."""

    def __call__(self, key):
        raise TypeError("injected bug")


def spawn_worker_process(address: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.distrib.worker", "--connect", address,
         "--quiet", *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_messages_round_trip(self):
        left, right = socket.socketpair()
        try:
            for message in (
                protocol.Hello(),
                protocol.Welcome(worker_id=7),
                protocol.EvalBatch(5, ((0, ("-a",)), (1, ("-b", "-c"))), blob=b"blob"),
                protocol.BatchResult(5, ((0, "r0"), (1, "r1"))),
                protocol.EvaluatorMissing(5),
                protocol.Shutdown(),
            ):
                protocol.send_message(left, message)
                assert protocol.recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_non_protocol_objects_rejected(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(ProtocolError):
                protocol.send_message(left, {"not": "a message"})
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_is_connection_closed(self):
        left, right = socket.socketpair()
        left.sendall(b"\x00\x00")  # half a header, then hang up
        left.close()
        try:
            with pytest.raises(ConnectionClosed, match="with 2 of 4 bytes unread$"):
                protocol.recv_message(right)
        finally:
            right.close()

    def test_oversized_frame_announcement_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            right.settimeout(5)  # refused on the header alone: no payload follows
            with pytest.raises(ProtocolError, match="^incoming frame announces"):
                protocol.recv_message(right)
        finally:
            left.close()
            right.close()

    def test_parse_address(self):
        assert parse_address("10.0.0.2:7099") == ("10.0.0.2", 7099)
        assert parse_address(":0") == ("127.0.0.1", 0)
        for bad in ("nohost", "host:port", "host:-1", "host:99999"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# coordinator + worker registration
# ---------------------------------------------------------------------------

class TestCoordinator:
    def test_workers_register_and_shut_down(self):
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 2) as threads:
                assert coordinator.worker_count() == 2
                ids = [handle.worker_id for handle in coordinator.workers()]
                assert ids == sorted(ids)
        for thread in threads:
            thread.join(timeout=5)
        assert not any(thread.is_alive() for thread in threads)

    def test_wait_for_workers_times_out(self):
        with Coordinator() as coordinator:
            with pytest.raises(DistribError):
                coordinator.wait_for_workers(1, timeout=0.05)

    def test_garbage_connection_is_ignored(self, monkeypatch):
        """A non-worker peer (port scanner, wrong protocol) must not wedge
        the accept loop or land in the registry."""
        monkeypatch.setattr(coordinator_module, "HANDSHAKE_TIMEOUT", 0.2)
        with Coordinator() as coordinator:
            rogue = socket.create_connection(coordinator.address)
            rogue.sendall(b"GET / HTTP/1.1\r\n\r\n")
            rogue.close()
            with thread_workers(coordinator, 1):
                assert coordinator.worker_count() == 1

    def test_authkey_gates_registration(self, monkeypatch):
        """With an authkey, only workers holding the secret register — and
        no pickle byte from an unauthenticated peer is ever parsed."""
        monkeypatch.setattr(coordinator_module, "HANDSHAKE_TIMEOUT", 0.2)
        with Coordinator(authkey="s3cret") as coordinator:
            # A keyless worker's Hello pickle lands where the HMAC digest is
            # expected: rejected without being unpickled.
            rejected = threading.Thread(
                target=serve,
                kwargs=dict(connect=coordinator.address_string()),
                daemon=True,
            )
            rejected.start()
            rejected.join(timeout=5)
            assert coordinator.worker_count() == 0
            with thread_workers(coordinator, 1, authkey="s3cret"):
                assert coordinator.worker_count() == 1
                mapper = DistributedMapper(coordinator, FakeEvaluator("auth"))
                results = mapper.map(KEYS[:2])
                assert [r.fingerprint for r in results] == [
                    f"auth:{'+'.join(key)}" for key in KEYS[:2]
                ]
                assert mapper.fallback_evaluations == 0

    def test_keyless_non_loopback_bind_refused(self):
        """A coordinator without an authkey must refuse to listen beyond
        loopback — an unauthenticated pickle endpoint is remote code
        execution by misconfiguration."""
        with pytest.raises(ValueError, match="authkey"):
            Coordinator(host="0.0.0.0", port=0)
        Coordinator(host="0.0.0.0", port=0, authkey="k").close()  # keyed: fine

    def test_malformed_hello_does_not_kill_accept_loop(self, monkeypatch):
        """A handshake whose first frame is not a Hello (version skew,
        crafted peer) must be dropped without taking the accept thread down."""
        monkeypatch.setattr(coordinator_module, "HANDSHAKE_TIMEOUT", 0.2)
        with Coordinator() as coordinator:
            rogue = socket.create_connection(coordinator.address)
            protocol.send_message(rogue, protocol.Heartbeat(2))
            rogue.close()
            with thread_workers(coordinator, 1):  # registration still works
                assert coordinator.worker_count() == 1

    def test_wrong_authkey_rejected(self, monkeypatch):
        monkeypatch.setattr(coordinator_module, "HANDSHAKE_TIMEOUT", 0.2)
        with Coordinator(authkey="right") as coordinator:
            wrong = threading.Thread(
                target=serve,
                kwargs=dict(connect=coordinator.address_string(), authkey="wrong"),
                daemon=True,
            )
            wrong.start()
            wrong.join(timeout=5)
            assert coordinator.worker_count() == 0


# ---------------------------------------------------------------------------
# the distributed mapper
# ---------------------------------------------------------------------------

KEYS = [("-a",), ("-a", "-b"), ("-b", "-c", "-d"), ("-e",), ("-a", "-e"), ("-f",)]


class TestDistributedMapper:
    def test_round_robin_deal_is_deterministic_and_total(self):
        """A batch's partition over the live workers depends only on the
        batch and the worker count — never on timing — so dealt dispatch
        keeps the reproducibility contract for any worker count."""
        tasks = list(enumerate(KEYS * 3))[:11]
        workers = ["w1", "w2", "w3", "w4"]
        dealt = DistributedMapper._assign(tasks, workers)
        assert sorted(task for _worker, chunk in dealt for task in chunk) == tasks
        assert [len(chunk) for _worker, chunk in dealt] == [3, 3, 3, 2]
        assert DistributedMapper._assign(tasks, workers) == dealt
        assert DistributedMapper._assign([], workers) == []
        assert DistributedMapper._assign(tasks[:2], workers * 2) == [
            ("w1", [tasks[0]]), ("w2", [tasks[1]])]

    def test_submission_order_for_any_worker_count(self):
        expected = [FakeEvaluator("tag")(key) for key in KEYS]
        for workers in (1, 2, 3):
            with Coordinator() as coordinator:
                with thread_workers(coordinator, workers):
                    mapper = DistributedMapper(coordinator, FakeEvaluator("tag"))
                    assert mapper.map(KEYS) == expected
                    assert mapper.fallback_evaluations == 0

    def test_no_workers_falls_back_in_process(self):
        with Coordinator() as coordinator:
            mapper = DistributedMapper(coordinator, FakeEvaluator("local"))
            results = mapper.map(KEYS)
            assert [r.fingerprint for r in results] == [
                f"local:{'+'.join(key)}" for key in KEYS
            ]
            assert mapper.fallback_evaluations == len(KEYS)
            assert coordinator.worker_count() == 0  # the in-process lane

    def test_worker_death_mid_batch_redispatches(self):
        """One worker dies on its first batch: its keys are re-dispatched to
        the survivor and the results are indistinguishable from a healthy
        run — the determinism story under partial failure."""
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1, max_batches=0):
                with thread_workers(coordinator, 1):
                    assert coordinator.worker_count() == 2
                    mapper = DistributedMapper(coordinator, FakeEvaluator("tag"))
                    assert mapper.map(KEYS) == [FakeEvaluator("tag")(k) for k in KEYS]
                    assert coordinator.worker_count() == 1  # the dead one was discarded

    def test_all_workers_dead_falls_back(self):
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 2, max_batches=0):
                mapper = DistributedMapper(coordinator, FakeEvaluator("tag"))
                assert mapper.map(KEYS) == [FakeEvaluator("tag")(k) for k in KEYS]
                assert mapper.fallback_evaluations == len(KEYS)
                assert coordinator.worker_count() == 0

    def test_remote_programming_errors_propagate(self):
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 2):
                mapper = DistributedMapper(coordinator, ExplodingEvaluator())
                with pytest.raises(TypeError, match="injected bug"):
                    mapper.map(KEYS)
                # The error was deterministic, not transport: nobody died.
                assert coordinator.worker_count() == 2

    def test_bounded_evaluator_cache_self_heals(self, monkeypatch):
        """With a 1-entry worker cache, alternating evaluators forces the
        EvaluatorMissing -> re-send-blob path on every switch; results must
        still come from the right evaluator."""
        monkeypatch.setattr("repro.distrib.worker.EVALUATOR_CACHE_LIMIT", 1)
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1):
                mapper_a = DistributedMapper(coordinator, FakeEvaluator("a"))
                mapper_b = DistributedMapper(coordinator, FakeEvaluator("b"))
                for _round in range(2):
                    assert [r.fingerprint for r in mapper_a.map(KEYS[:2])] == [
                        f"a:{'+'.join(key)}" for key in KEYS[:2]
                    ]
                    assert [r.fingerprint for r in mapper_b.map(KEYS[:2])] == [
                        f"b:{'+'.join(key)}" for key in KEYS[:2]
                    ]

    def test_slot_weighting_reaches_every_worker(self):
        """Every worker session is one slot: the round-robin deal gives each
        registered worker a share of the batch."""
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 2):
                mapper = DistributedMapper(coordinator, FakeEvaluator("tag"))
                mapper.map(KEYS)
                assert all(
                    handle.batches_completed > 0 for handle in coordinator.workers()
                )

    def test_mismatched_reply_is_protocol_error_not_worker_loss(self):
        """A version-skewed worker (reply indices that don't match the
        batch) must surface as ProtocolError, not silently wipe the fleet
        one re-dispatch at a time."""
        def skewed_worker(address):
            sock = socket.create_connection(parse_address(address))
            try:
                protocol.send_message(sock, protocol.Hello())
                protocol.recv_message(sock)  # Welcome
                batch = protocol.recv_message(sock)
                protocol.send_message(
                    sock, protocol.BatchResult(batch.evaluator_id, ((999, None),))
                )
                with contextlib.suppress(Exception):
                    protocol.recv_message(sock)  # await Shutdown
            finally:
                sock.close()

        with Coordinator() as coordinator:
            thread = threading.Thread(
                target=skewed_worker, args=(coordinator.address_string(),), daemon=True
            )
            thread.start()
            coordinator.wait_for_workers(1, timeout=10)
            mapper = DistributedMapper(coordinator, FakeEvaluator("tag"))
            with pytest.raises(ProtocolError, match="mismatched"):
                mapper.map(KEYS[:2])
            assert coordinator.worker_count() == 1  # not discarded as lost

    def test_unloadable_evaluator_blob_is_reported_not_worker_loss(self):
        """A blob no worker can load fails the same way on every worker, so
        it must come back as the typed error — a lost worker would wipe the
        fleet one re-dispatch at a time — and the worker keeps serving."""
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1):
                (handle,) = coordinator.workers()
                with pytest.raises(pickle.UnpicklingError):
                    coordinator.run_batch(handle, 99, b"\x80\x04not a pickle", [(0, KEYS[0])])
                assert coordinator.workers() == [handle]
                blob = pickle.dumps(FakeEvaluator("good"))
                results = coordinator.run_batch(handle, 100, blob, list(enumerate(KEYS[:2])))
                assert [result.fingerprint for _index, result in results] == [
                    FakeEvaluator("good")(key).fingerprint for key in KEYS[:2]
                ]

    def test_evaluator_missing_reply_shares_the_heartbeat_lock(self, monkeypatch):
        """Every session write, ``EvaluatorMissing`` included, goes through
        the heartbeat sender's lock, so no two frames interleave."""
        from repro.distrib import worker

        sent = []
        send = worker._HeartbeatSender.send

        def recording_send(sender, message):
            sent.append(type(message).__name__)
            send(sender, message)

        monkeypatch.setattr(worker._HeartbeatSender, "send", recording_send)
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1):
                (handle,) = coordinator.workers()
                # The coordinator believes the worker holds evaluator 7, so
                # the blob stays home and the worker must ask for it.
                handle.known_evaluators.add(7)
                blob = pickle.dumps(FakeEvaluator("missing"))
                results = coordinator.run_batch(handle, 7, blob, [(0, KEYS[0])])
                assert [result.fingerprint for _index, result in results] == [
                    FakeEvaluator("missing")(KEYS[0]).fingerprint
                ]
        assert sent.count("EvaluatorMissing") == 1
        assert "BatchResult" in sent

    def test_worker_process_cli_round_trip(self, llvm):
        """A real ``python -m repro.distrib.worker`` subprocess serves
        batches (the evaluator blob must unpickle in a fresh interpreter, so
        this uses the production evaluator) and exits 0 on shutdown."""
        from repro.tuner import StagedCandidateEvaluator

        baseline = llvm.compile_level(TINY_A, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_A, name="tiny", baseline=baseline
        )
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2", "O3")]
        with Coordinator() as coordinator:
            process = spawn_worker_process(coordinator.address_string())
            try:
                coordinator.wait_for_workers(1, timeout=30)
                mapper = DistributedMapper(coordinator, evaluator)
                results = mapper.map(keys)
                assert mapper.fallback_evaluations == 0
                assert [r.fingerprint for r in results] == [
                    evaluator(key).fingerprint for key in keys
                ]
                coordinator.close()
                assert process.wait(timeout=10) == 0
            finally:
                if process.poll() is None:
                    process.kill()

    def test_worker_cli_refuses_dead_address(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here now
        from repro.distrib.worker import main as worker_main

        assert worker_main(["--connect", f"127.0.0.1:{port}", "--quiet"]) == 2


# ---------------------------------------------------------------------------
# --slots N: N one-slot sessions, this process plus N-1 children
# ---------------------------------------------------------------------------

def _processes_connecting_to(address: str) -> List[int]:
    """Pids of live processes whose argv holds ``address`` (from ``/proc``)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                argv = (entry / "cmdline").read_bytes().split(b"\0")
            except OSError:
                continue
            if address.encode() in argv:
                pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
class TestSlotSessions:
    def test_two_slots_are_two_workers_with_the_serial_fingerprint(self, llvm):
        spec = BuildSpec(name="tiny", source=TINY_A)
        config = BinTunerConfig(
            max_iterations=12, ga=GAParameters(population_size=6, seed=9),
            stall_window=10,
        )
        serial, _tuner = run_tuner(llvm, spec, config)
        with SharedWorkerPool(serve_workers="127.0.0.1:0") as pool:
            address = pool.address_string()
            process = spawn_worker_process(address, "--slots", "2")
            try:
                assert pool.wait_for_workers(2, timeout=30) == 2
                assert len(_processes_connecting_to(address)) == 2
                distributed, _tuner = run_tuner(
                    llvm, spec, config, mapper_factory=pool.mapper)
                assert all(row["batches"] > 0 for row in pool.fleet_status())
                pool.close()  # Shutdown to both sessions
                assert process.wait(timeout=10) == 0
                assert _processes_connecting_to(address) == []
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert distributed.database.fingerprint() == serial.database.fingerprint()

    def test_terminating_the_parent_terminates_every_session(self):
        with Coordinator() as coordinator:
            address = coordinator.address_string()
            process = spawn_worker_process(address, "--slots", "3")
            try:
                coordinator.wait_for_workers(3, timeout=30)
                process.terminate()
                process.wait(timeout=10)
                assert _processes_connecting_to(address) == []
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()

    def test_a_failed_child_session_fails_the_command(self):
        with Coordinator() as coordinator:
            address = coordinator.address_string()
            process = spawn_worker_process(address, "--slots", "2")
            try:
                coordinator.wait_for_workers(2, timeout=30)
                (child,) = set(_processes_connecting_to(address)) - {process.pid}
                os.kill(child, signal.SIGKILL)
                coordinator.close()  # the parent's own session ends cleanly
                assert process.wait(timeout=10) != 0
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()

    def test_a_crashed_session_is_the_exit_status(self, llvm):
        from repro.distrib.worker import CRASH_EXIT_STATUS
        from repro.tuner import StagedCandidateEvaluator

        baseline = llvm.compile_level(TINY_A, "O0", name="tiny").image
        evaluator = StagedCandidateEvaluator(
            compiler=llvm, source=TINY_A, name="tiny", baseline=baseline
        )
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2", "O3")]
        with Coordinator() as coordinator:
            address = coordinator.address_string()
            process = spawn_worker_process(address, "--slots", "2", "--max-batches", "0")
            try:
                coordinator.wait_for_workers(2, timeout=30)
                mapper = DistributedMapper(coordinator, evaluator)
                assert [r.fingerprint for r in mapper.map(keys)] == [
                    evaluator(key).fingerprint for key in keys
                ]
                assert mapper.fallback_evaluations == len(keys)
                coordinator.close()
                assert process.wait(timeout=10) == CRASH_EXIT_STATUS
                assert _processes_connecting_to(address) == []
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()


# ---------------------------------------------------------------------------
# engine integration: transport errors, process mapper
# ---------------------------------------------------------------------------

class _EOFMapper:
    workers = 1
    evaluator_id = 77

    def map(self, keys):
        raise EOFError("remote worker pipe broke")


class TestEngineIntegration:
    def test_transport_failures_are_actionable(self):
        registry = build_gcc_registry()
        engine = EvaluationEngine(FakeEvaluator(), mapper=_EOFMapper())
        vector = FlagVector(registry, frozenset(registry.flag_names()[:2]))
        with pytest.raises(MapperTransportError) as error:
            engine.evaluate_batch([vector])
        assert error.value.evaluator_id == 77
        assert error.value.keys == (tuple(vector.sorted_names()),)
        assert "evaluator id 77" in str(error.value)
        assert vector.sorted_names()[0] in str(error.value)
        assert isinstance(error.value.__cause__, EOFError)

    def test_process_mapper_matches_serial(self, llvm):
        spec = BuildSpec(name="tiny", source=TINY_A)
        config = BinTunerConfig(
            max_iterations=12, ga=GAParameters(population_size=6, seed=9),
            stall_window=10,
        )
        serial, _tuner = run_tuner(llvm, spec, config)
        pooled, _tuner = run_tuner(llvm, spec, config, workers=2)
        assert pooled.best_flags.sorted_names() == serial.best_flags.sorted_names()
        assert pooled.ncd_history() == serial.ncd_history()
        assert [r.flags for r in pooled.database.records] == [
            r.flags for r in serial.database.records
        ]

    def test_tuner_distributed_matches_serial(self, llvm):
        spec = BuildSpec(name="tiny", source=TINY_A)
        config = BinTunerConfig(
            max_iterations=12, ga=GAParameters(population_size=6, seed=9),
            stall_window=10,
        )
        serial, _tuner = run_tuner(llvm, spec, config)
        distributed, _tuner = run_tuner(llvm, spec, config, remote_workers=2)
        assert distributed.best_flags.sorted_names() == serial.best_flags.sorted_names()
        assert distributed.ncd_history() == serial.ncd_history()
        assert [r.flags for r in distributed.database.records] == [
            r.flags for r in serial.database.records
        ]


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------

class TestDistributedCampaign:
    def test_pool_dispatch_modes(self):
        """``workers=2`` is a local fleet behind the distributed mapper: two
        forked sessions registered on loopback under the pool's own key and
        no mesh; closing the pool leaves no child process.  ``serve_workers``
        alone is a fleet of no local session."""
        pool = SharedWorkerPool(workers=2)
        try:
            mapper = pool.mapper(FakeEvaluator())
            assert isinstance(mapper, DistributedMapper)
            assert pool.coordinator.worker_count() == 2 and len(pool.pids) == 2
            assert pool.coordinator.authkey is not None
            assert pool.mesh_stats() is None
            host, _port = parse_address(pool.address_string())
            assert host == "127.0.0.1"
            assert mapper.map(KEYS) == [FakeEvaluator()(key) for key in KEYS]
            sessions = list(pool.pids)
        finally:
            pool.close()
        assert pool.pids == [] and pool.coordinator is None
        for pid in sessions:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        try:
            assert isinstance(pool.mapper(FakeEvaluator()), DistributedMapper)
            host, port = parse_address(pool.address_string())
            assert host == "127.0.0.1" and port > 0
            assert pool.pids == [] and pool.coordinator.worker_count() == 0
        finally:
            pool.close()

    def test_local_sessions_are_forked_before_the_coordinator_listens(self, monkeypatch):
        """No forked session inherits the coordinator's listener or its
        accept thread: at every ``fork()`` the pool makes, no accept thread
        has started yet."""
        before = set(threading.enumerate())
        seen = []
        fork = os.fork

        def recording_fork():
            seen.append(sorted(thread.name for thread in threading.enumerate()
                               if thread not in before))
            return fork()

        monkeypatch.setattr(os, "fork", recording_fork)
        with SharedWorkerPool(workers=2) as pool:
            monkeypatch.undo()
            assert pool.coordinator.worker_count() == 2
            assert pool.mapper(FakeEvaluator()).map(KEYS) == [
                FakeEvaluator()(key) for key in KEYS]
        assert seen == [[], []]

    def test_a_local_fleet_whose_coordinator_fails_leaves_no_session(self, monkeypatch):
        """A coordinator that cannot be built ends the held sessions: they
        read EOF instead of a port, exit, and are reaped."""
        forked = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        def refuse(*args, **kwargs):
            raise OSError("no port for you")

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(coordinator_module, "Coordinator", refuse)
        with pytest.raises(OSError, match="no port for you"):
            SharedWorkerPool(workers=2)
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_a_killed_local_session_is_a_lost_worker(self):
        """``kill -9`` of one local session mid-campaign: the survivor takes
        its chunks, and the campaign lands on the uninterrupted serial
        fingerprint."""
        serial = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        pool = SharedWorkerPool(workers=2)
        victim = pool.pids[0]

        def spec_killing_a_session(job):
            if job == JOBS[-1]:  # the last program starts one session short
                os.kill(victim, signal.SIGKILL)
            return tiny_spec(job)

        try:
            result = Campaign(
                JOBS, tiny_campaign_config(workers=2),
                spec_provider=spec_killing_a_session,
            ).run(pool=pool)
            health = sorted(row["health"] for row in pool.fleet_status())
        finally:
            pool.close()
        assert result.fingerprint() == serial.fingerprint()
        assert (result.database.record_signatures()
                == serial.database.record_signatures())
        assert health == ["healthy", "lost"]

    def test_a_hybrid_fleet_loses_a_remote_and_a_local_session(self):
        """Two forked local sessions and one remote worker on one
        coordinator: mid-campaign the remote crashes (``max_batches``) and
        one local session is ``kill -9``'d.  The survivor takes their chunks,
        the campaign lands on the serial fingerprint, and both losses are
        ``lost`` fleet rows."""
        serial = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        config = tiny_campaign_config(workers=2, serve_workers="127.0.0.1:0")
        pool = SharedWorkerPool(config.workers, config.serve_workers)
        victim = pool.pids[0]

        def spec_killing_a_session(job):
            if job == JOBS[-1]:  # the last program starts one session short
                os.kill(victim, signal.SIGKILL)
            return tiny_spec(job)

        try:
            with thread_workers(pool.coordinator, 1, max_batches=1):
                result = Campaign(
                    JOBS, config, spec_provider=spec_killing_a_session,
                ).run(pool=pool)
            health = sorted(row["health"] for row in pool.fleet_status())
        finally:
            pool.close()
        assert result.fingerprint() == serial.fingerprint()
        assert (result.database.record_signatures()
                == serial.database.record_signatures())
        assert health == ["healthy", "lost", "lost"]

    def test_min_workers_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "WORKER_WAIT_TIMEOUT", 0.05)
        campaign = Campaign(
            JOBS,
            tiny_campaign_config(serve_workers="127.0.0.1:0", min_workers=1),
            spec_provider=tiny_spec,
        )
        with pytest.raises(DistribError):
            campaign.run()

    def test_campaign_distributed_matches_serial(self):
        """Two loopback workers; the resulting CampaignDatabase is identical
        in records, order and fingerprint to the serial run, and the remote
        workers actually evaluated batches."""
        serial = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        try:
            with thread_workers(pool.coordinator, 2):
                distributed = Campaign(
                    JOBS, tiny_campaign_config(serve_workers="127.0.0.1:0"),
                    spec_provider=tiny_spec,
                ).run(pool=pool)
                assert all(
                    handle.batches_completed > 0 for handle in pool.coordinator.workers()
                )
        finally:
            pool.close()
        assert distributed.fingerprint() == serial.fingerprint()
        assert (distributed.database.record_signatures()
                == serial.database.record_signatures())

    @pytest.mark.slow
    def test_worker_loss_and_resume_match_serial(self, tmp_path):
        """The acceptance scenario end to end, with real worker processes:
        a checkpointed distributed campaign loses one of its two workers
        mid-run (``--max-batches`` crash), is interrupted after the first
        program, and resumes on fresh workers — records, order and
        fingerprint equal the uninterrupted serial run's."""
        serial = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()

        checkpoint = tmp_path / "ckpt"
        pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        workers = []
        try:
            address = pool.address_string()
            workers.append(spawn_worker_process(address))
            # The second worker crashes without replying after two batches —
            # mid-generation, from the campaign's point of view.
            workers.append(spawn_worker_process(address, "--max-batches", "2"))
            pool.wait_for_workers(2, timeout=60)
            first = Campaign(
                JOBS,
                tiny_campaign_config(
                    serve_workers="127.0.0.1:0", checkpoint_dir=checkpoint
                ),
                spec_provider=tiny_spec,
            ).run(limit=1, pool=pool)
            assert first.interrupted and len(first.programs) == 1
        finally:
            pool.close()
            for process in workers:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
        # The injected crash really happened: one worker exited abnormally.
        assert sorted(process.returncode for process in workers) != [0, 0]

        resumed_pool = SharedWorkerPool(serve_workers="127.0.0.1:0")
        workers = []
        try:
            address = resumed_pool.address_string()
            workers = [spawn_worker_process(address) for _ in range(2)]
            resumed_pool.wait_for_workers(2, timeout=60)
            resumed = Campaign(
                JOBS,
                tiny_campaign_config(
                    serve_workers="127.0.0.1:0", checkpoint_dir=checkpoint
                ),
                spec_provider=tiny_spec,
            ).run(pool=resumed_pool)
        finally:
            resumed_pool.close()
            for process in workers:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.kill()
        assert resumed.programs[0].resumed and not resumed.programs[1].resumed
        assert resumed.fingerprint() == serial.fingerprint()
        assert (resumed.database.record_signatures()
                == serial.database.record_signatures())


class TestCampaignWorkerSubcommand:
    def test_worker_subcommand_delegates(self):
        """``python -m repro.campaign worker`` is the same worker CLI."""
        from repro.campaign.cli import main

        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["worker", "--connect", f"127.0.0.1:{port}", "--quiet"]) == 2


# ---------------------------------------------------------------------------
# worker resilience: reconnect/backoff and mid-batch heartbeats
# ---------------------------------------------------------------------------

class _SleepyEvaluator:
    """Picklable evaluator slower than a tiny coordinator timeout."""

    def __init__(self, delay: float = 1.0) -> None:
        self.delay = delay

    def __call__(self, key):
        import time

        time.sleep(self.delay)
        return CandidateResult(
            fitness=float(len(key)), code_size=1, fingerprint="slow:" + "+".join(key),
            valid=True, elapsed_seconds=self.delay,
        )


class TestWorkerResilience:
    def _free_port(self) -> int:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_reconnect_joins_late_coordinator_and_rejoins_after_drop(self, monkeypatch):
        """--reconnect semantics end to end: the worker starts before any
        coordinator exists (refused connections back off and retry), joins
        once one binds, re-registers after its connection is dropped without
        a Shutdown (the restarted-machine scenario), and still exits cleanly
        on a real Shutdown."""
        from repro.distrib import worker
        from repro.distrib.worker import run_worker

        monkeypatch.setattr(worker, "BACKOFF_CAP", 0.2)
        monkeypatch.setattr(worker, "BACKOFF_BASE", 0.05)
        port = self._free_port()
        address = f"127.0.0.1:{port}"
        outcome = {}

        def target():
            outcome["status"] = run_worker(address, reconnect=True)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        with Coordinator(host="127.0.0.1", port=port) as coordinator:
            coordinator.wait_for_workers(1, timeout=10)
            first = coordinator.workers()[0]
            # Sanity: the late-joining worker actually evaluates.
            mapper = DistributedMapper(coordinator, FakeEvaluator("reconnect"))
            assert [r.fingerprint for r in mapper.map(KEYS[:2])] == [
                FakeEvaluator("reconnect")(key).fingerprint for key in KEYS[:2]
            ]
            # Network drop without Shutdown: the worker must come back.
            coordinator.discard(first)
            coordinator.wait_for_workers(1, timeout=10)
            assert coordinator.workers()[0].worker_id != first.worker_id
        # Coordinator.close() sent Shutdown: the reconnect loop must stop.
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["status"] == 0

    def test_reconnect_gives_up_after_max_retries(self, monkeypatch):
        from repro.distrib import worker
        from repro.distrib.worker import CONNECTION_LOST_STATUS, run_worker

        monkeypatch.setattr(worker, "MAX_RETRIES", 2)
        monkeypatch.setattr(worker, "BACKOFF_BASE", 0.01)
        port = self._free_port()  # nothing ever listens here
        status = run_worker(f"127.0.0.1:{port}", reconnect=True)
        assert status == CONNECTION_LOST_STATUS

    def test_without_reconnect_refused_connection_raises(self):
        from repro.distrib.worker import run_worker

        with pytest.raises(OSError):
            run_worker(f"127.0.0.1:{self._free_port()}")

    def test_heartbeats_keep_slow_batches_alive(self, monkeypatch):
        """A batch slower than the per-task budget survives as long as the
        worker keeps beating — the coordinator only discards silence."""
        from repro.distrib import worker

        monkeypatch.setattr(coordinator_module, "HANDSHAKE_TIMEOUT", 0.2)
        monkeypatch.setattr(coordinator_module, "TASK_TIMEOUT", 0.2)
        monkeypatch.setattr(worker, "HEARTBEAT_INTERVAL", 0.05)
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1):
                mapper = DistributedMapper(coordinator, _SleepyEvaluator(delay=1.0))
                results = mapper.map(KEYS[:1])
                assert mapper.fallback_evaluations == 0
                assert coordinator.worker_count() == 1
                assert results[0].fingerprint.startswith("slow:")

    def test_without_heartbeats_slow_batch_reads_as_worker_loss(self, monkeypatch):
        """The control case: no heartbeat inside the batch (the cadence is
        far longer than it), so the same slow batch times out, the worker is
        discarded, and the mapper falls back in-process."""
        from repro.distrib import worker

        monkeypatch.setattr(coordinator_module, "HANDSHAKE_TIMEOUT", 0.2)
        monkeypatch.setattr(coordinator_module, "TASK_TIMEOUT", 0.2)
        monkeypatch.setattr(worker, "HEARTBEAT_INTERVAL", 60.0)
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1):
                mapper = DistributedMapper(coordinator, _SleepyEvaluator(delay=1.0))
                results = mapper.map(KEYS[:1])
                assert mapper.fallback_evaluations == 1
                assert coordinator.worker_count() == 0
                assert results[0].fingerprint.startswith("slow:")

    def test_heartbeat_frames_round_trip(self):
        left, right = socket.socketpair()
        try:
            protocol.send_message(left, protocol.Heartbeat(worker_id=9))
            message = protocol.recv_message(right)
            assert isinstance(message, protocol.Heartbeat) and message.worker_id == 9
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# the worker-local persistent artifact tier (--store-dir)
# ---------------------------------------------------------------------------

class TestWorkerStore:
    """A distributed slot's disk-backed tier must survive everything the
    in-memory caches cannot: worker restarts, reconnects, and evaluator-
    cache evictions."""

    def _staged_evaluator(self, llvm, store_dir=None):
        from repro.tuner import ArtifactCache, StagedCandidateEvaluator

        baseline = llvm.compile_level(TINY_A, "O0", name="tiny").image
        return StagedCandidateEvaluator(
            compiler=llvm, source=TINY_A, name="tiny", baseline=baseline,
            artifact_cache=ArtifactCache().ensure_store(store_dir),
        )

    def test_restarted_worker_thread_is_warm_from_its_store(self, llvm, tmp_path):
        """serve(store_dir=...) attaches a worker-local tier: a 'restarted'
        worker (new serve loop, process-global caches wiped) serves the same
        keys from disk instead of recompiling."""
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2", "O3")]
        store_dir = tmp_path / "worker-store"

        def one_session():
            with Coordinator() as coordinator:
                with thread_workers(coordinator, 1, store_dir=str(store_dir)):
                    mapper = DistributedMapper(coordinator, self._staged_evaluator(llvm))
                    results = mapper.map(keys)
                    assert mapper.fallback_evaluations == 0
                    return results

        fresh_process_state()
        cold = one_session()
        assert sum(result.artifact_store_hits for result in cold) == 0
        fresh_process_state()  # the restarted worker's memory is gone
        warm = one_session()
        assert [(r.fitness, r.fingerprint) for r in warm] == [
            (r.fitness, r.fingerprint) for r in cold
        ]
        assert all(result.artifact_store_hits >= 1 for result in warm)
        assert sum(result.artifact_misses for result in warm) == 0

    @pytest.mark.slow
    def test_worker_process_cli_store_dir_survives_a_real_restart(self, llvm, tmp_path):
        """End to end with real processes: a worker started with --store-dir
        compiles a batch, dies, and a *new* worker process over the same
        store serves the identical batch without recompiling."""
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2")]
        store_dir = tmp_path / "worker-store"

        def one_worker_session():
            with Coordinator() as coordinator:
                process = spawn_worker_process(
                    coordinator.address_string(), "--store-dir", str(store_dir)
                )
                try:
                    coordinator.wait_for_workers(1, timeout=30)
                    mapper = DistributedMapper(coordinator, self._staged_evaluator(llvm))
                    results = mapper.map(keys)
                    assert mapper.fallback_evaluations == 0
                    coordinator.close()
                    assert process.wait(timeout=10) == 0
                    return results
                finally:
                    if process.poll() is None:
                        process.kill()

        cold = one_worker_session()
        warm = one_worker_session()  # a brand-new interpreter, same store
        assert [(r.fitness, r.fingerprint) for r in warm] == [
            (r.fitness, r.fingerprint) for r in cold
        ]
        assert all(result.artifact_store_hits >= 1 for result in warm)
        assert sum(result.artifact_misses for result in warm) == 0

    def test_no_store_worker_never_touches_the_orchestrator_path(self, llvm, tmp_path):
        """--no-store: an evaluator blob carrying the orchestrator's store
        path evaluates normally, but the foreign path is never created."""
        foreign = tmp_path / "orchestrator-store"
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2")]
        fresh_process_state()
        reference = [self._staged_evaluator(llvm)(key) for key in keys]
        fresh_process_state()
        with Coordinator() as coordinator:
            with thread_workers(coordinator, 1, no_store=True):
                mapper = DistributedMapper(
                    coordinator, self._staged_evaluator(llvm, store_dir=foreign)
                )
                results = mapper.map(keys)
                assert mapper.fallback_evaluations == 0
        assert [(r.fitness, r.fingerprint) for r in results] == [
            (r.fitness, r.fingerprint) for r in reference
        ]
        assert not foreign.exists()
