"""Tests for the artifact mesh and the distrib hang/validation fixes.

The load-bearing guarantees:

* the worker's connect **and** handshake are bounded by a deadline: a
  bound-but-never-accepting coordinator (the historical forever-hang) fails
  the attempt with :data:`CONNECTION_LOST_STATUS` so ``--reconnect`` can
  back off and retry;
* the coordinator's artifact plane absorbs pushed tier-2 entries and serves
  fetches chunked, verifying every payload — a tampered, corrupt, or
  aliased transfer reads as a *miss* on every reader, never a wrong
  artifact, and per-machine byte budgets hold server-side;
* end to end, a second machine joining with an **empty** local store is
  warm from the first machine's pushed work: zero redundant compiles, mesh
  hits accounted on every result, and a fingerprint identical to serial.

All socket tests bind loopback only and skip cleanly on sandboxes without
AF_INET loopback (same gate as ``test_distrib``).
"""

from __future__ import annotations

import socket
import time

import pytest
from _helpers import fresh_process_state, loopback_available

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="no AF_INET loopback in this sandbox"
)

from repro.campaign import Campaign, SharedWorkerPool  # noqa: E402
from repro.distrib import (  # noqa: E402
    ConnectionClosed,
    Coordinator,
    DistributedMapper,
)
from repro.distrib import artifacts, protocol  # noqa: E402
from repro.distrib.artifacts import (  # noqa: E402
    CoordinatorArtifactPlane,
    handle_artifact_message,
)
from repro.distrib.worker import (  # noqa: E402
    CONNECTION_LOST_STATUS,
    run_worker,
    serve,
)
from repro.tuner.store import ArtifactStore, persistent_store  # noqa: E402
from test_distrib import (  # noqa: E402
    JOBS,
    TINY_A,
    thread_workers,
    tiny_campaign_config,
    tiny_spec,
)


def _staged_evaluator(llvm, store_dir=None):
    from repro.tuner import ArtifactCache, StagedCandidateEvaluator

    baseline = llvm.compile_level(TINY_A, "O0", name="tiny").image
    return StagedCandidateEvaluator(
        compiler=llvm, source=TINY_A, name="tiny", baseline=baseline,
        artifact_cache=ArtifactCache().ensure_store(store_dir),
    )


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ---------------------------------------------------------------------------
# the connect/handshake deadline (the hang bugfix)
# ---------------------------------------------------------------------------

class TestConnectTimeout:
    def test_never_accepting_coordinator_fails_within_the_deadline(self):
        """The regression: a socket that is bound and listening but never
        accepts (a wedged coordinator, a firewall blackhole's cousin) used
        to hang the worker in ``recv`` forever.  Now the handshake deadline
        fires and the session ends with the *retryable* status."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)  # the kernel completes the TCP handshake...
            port = listener.getsockname()[1]
            start = time.monotonic()
            # ...but no Welcome ever comes: the worker must not wait forever.
            status = serve(
                f"127.0.0.1:{port}", connect_timeout=0.5, hard_exit=False
            )
            elapsed = time.monotonic() - start
        finally:
            listener.close()
        assert status == CONNECTION_LOST_STATUS
        assert elapsed < 10  # seconds, not forever (generous CI margin)

    def test_reconnect_backs_off_and_retries_the_stalled_handshake(self):
        """CONNECTION_LOST (not HANDSHAKE_FAILED) is the whole point: a
        stalled coordinator may heal, so --reconnect must retry it."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            port = listener.getsockname()[1]
            status = run_worker(
                f"127.0.0.1:{port}", reconnect=True, max_retries=1,
                backoff_base=0.05, hard_exit=False, connect_timeout=0.3,
            )
        finally:
            listener.close()
        assert status == CONNECTION_LOST_STATUS  # retried, then gave up

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            serve(f"127.0.0.1:{_free_port()}", connect_timeout=0.0)
        from repro.distrib.worker import main as worker_main

        with pytest.raises(SystemExit):
            worker_main(["--connect", "127.0.0.1:1", "--connect-timeout", "0"])

    def test_mesh_flags_mutually_exclusive(self):
        from repro.distrib.worker import main as worker_main

        with pytest.raises(SystemExit):
            worker_main(["--connect", "127.0.0.1:1", "--no-mesh",
                         "--mesh-budget-bytes", "1024"])


# ---------------------------------------------------------------------------
# the artifact frames and chunking
# ---------------------------------------------------------------------------

KEY = ("image", "llvm", "1.0", "srcdigest", "lzma", ("-dce", "-licm"))


class TestArtifactProtocol:
    def test_artifact_frames_round_trip(self):
        left, right = socket.socketpair()
        try:
            for message in (
                protocol.ArtifactHave((KEY, ("trace", "abc", (1,)))),
                protocol.ArtifactHaveReply((True, False)),
                protocol.ArtifactFetch(KEY),
                protocol.ArtifactData(KEY, 0, 2, b"\x00\x01"),
                protocol.ArtifactData(KEY, 0, 0, b""),  # the miss reply
                protocol.ArtifactPush(((KEY, 0, 1, b"payload"),)),
            ):
                protocol.send_message(left, message)
                assert protocol.recv_message(right) == message
        finally:
            left.close()
            right.close()

    def test_chunk_payload_covers_boundaries(self):
        assert protocol.chunk_payload(b"") == (b"",)
        assert protocol.chunk_payload(b"small") == (b"small",)
        exact = b"x" * protocol.ARTIFACT_CHUNK_BYTES
        assert protocol.chunk_payload(exact) == (exact,)
        parts = protocol.chunk_payload(exact + b"y")
        assert len(parts) == 2 and b"".join(parts) == exact + b"y"

    def test_welcome_defaults_are_meshless(self):
        """A pre-mesh Welcome (and the default constructor) advertises no
        plane — workers only arm the mesh client when told to."""
        welcome = protocol.Welcome(worker_id=7)
        assert welcome.mesh is False and welcome.mesh_budget_bytes is None


# ---------------------------------------------------------------------------
# the coordinator-side plane
# ---------------------------------------------------------------------------

class _FakeHandle:
    """Just the per-worker mesh state the plane touches."""

    def __init__(self):
        self.mesh_bytes = 0
        self.mesh_parts = {}


def _push_entries(key, value, parts=1):
    payload = ArtifactStore.encode_entry(key, value)
    size = max(1, (len(payload) + parts - 1) // parts)
    chunks = [payload[i : i + size] for i in range(0, len(payload), size)] or [b""]
    return tuple(
        (key, index, len(chunks), chunk) for index, chunk in enumerate(chunks)
    )


class TestCoordinatorArtifactPlane:
    def test_push_then_fetch_round_trips_chunked(self, tmp_path):
        plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
        handle = _FakeHandle()
        sent = []
        plane.handle(
            handle, protocol.ArtifactPush(_push_entries(KEY, "artifact", parts=3)),
            sent.append,
        )
        assert plane.counters.snapshot()["pushes_accepted"] == 1
        assert not sent  # pushes get no reply
        assert plane.store.get(KEY) == "artifact"
        plane.handle(handle, protocol.ArtifactHave((KEY, ("image", "no"))), sent.append)
        assert sent.pop() == protocol.ArtifactHaveReply((True, False))
        plane.handle(handle, protocol.ArtifactFetch(KEY), sent.append)
        payload = b"".join(frame.data for frame in sent)
        assert all(frame.part_count == len(sent) for frame in sent)
        value, ok = ArtifactStore.decode_entry(payload, KEY)
        assert ok and value == "artifact"
        counts = plane.counters.snapshot()
        assert counts["fetches_served"] == 1 and counts["bytes_out"] == len(payload)

    def test_transfers_feed_the_byte_size_histogram(self, tmp_path):
        from repro import telemetry

        with telemetry.recording() as sink:  # no directory: registry only
            plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
            handle = _FakeHandle()
            plane.handle(
                handle, protocol.ArtifactPush(_push_entries(KEY, "artifact")),
                lambda _message: None,
            )
            plane.handle(handle, protocol.ArtifactFetch(KEY), lambda _m: None)
        histogram = sink.metrics_snapshot()["histograms"]["mesh.transfer.bytes"]
        # One push absorbed + one fetch served, both the same payload.
        assert histogram["count"] == 2
        assert histogram["sum"] == 2.0 * plane.counters.snapshot()["bytes_out"]

    def test_tampered_and_aliased_pushes_never_land(self, tmp_path):
        plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
        handle = _FakeHandle()
        flipped = bytearray(ArtifactStore.encode_entry(KEY, "artifact"))
        flipped[-1] ^= 0xFF  # bit rot / tampering in flight
        aliased = ArtifactStore.encode_entry(("image", "other"), "foreign")
        for payload in (bytes(flipped), aliased, b"garbage"):
            plane.handle(
                handle, protocol.ArtifactPush(((KEY, 0, 1, payload),)),
                lambda _message: None,
            )
        counts = plane.counters.snapshot()
        assert counts["pushes_rejected"] == 3 and counts["pushes_accepted"] == 0
        assert not plane.store.contains(KEY)
        assert len(plane.store) == 0  # nothing landed under any key

    def test_out_of_order_and_orphaned_chunks_rejected(self, tmp_path):
        plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
        handle = _FakeHandle()
        entries = _push_entries(KEY, "artifact", parts=2)
        # Part 1 without part 0: an orphan; the reassembly must be dropped.
        plane.handle(
            handle, protocol.ArtifactPush((entries[1],)), lambda _m: None
        )
        assert plane.counters.snapshot()["pushes_rejected"] == 1 and not handle.mesh_parts
        assert len(plane.store) == 0

    def test_oversize_reassembly_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "MESH_MAX_ENTRY_BYTES", 64)
        plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
        handle = _FakeHandle()
        plane.handle(
            handle,
            protocol.ArtifactPush(_push_entries(KEY, "x" * 500, parts=2)),
            lambda _m: None,
        )
        # The oversize chunk kills the reassembly; its orphaned successors
        # count as further rejections.  What matters: nothing was stored.
        counts = plane.counters.snapshot()
        assert counts["pushes_rejected"] >= 1 and counts["pushes_accepted"] == 0
        assert len(plane.store) == 0
        assert not handle.mesh_parts  # the partial reassembly was dropped

    def test_fetch_miss_replies_zero_parts(self, tmp_path):
        plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
        sent = []
        plane.handle(_FakeHandle(), protocol.ArtifactFetch(KEY), sent.append)
        assert sent == [protocol.ArtifactData(KEY, 0, 0, b"")]
        assert plane.counters.snapshot()["fetches_missed"] == 1

    def test_fetch_budget_is_enforced_per_machine(self, tmp_path):
        store = ArtifactStore(tmp_path / "plane")
        store.put(KEY, "artifact")
        plane = CoordinatorArtifactPlane(store, budget_bytes=1)
        over, fresh = _FakeHandle(), _FakeHandle()
        sent = []
        plane.handle(over, protocol.ArtifactFetch(KEY), sent.append)
        # The payload would blow the 1-byte budget: served as a miss, and
        # no byte ever travels (the strict, size-known-in-advance check).
        assert sent == [protocol.ArtifactData(KEY, 0, 0, b"")]
        assert plane.counters.snapshot()["budget_denied"] == 1 and over.mesh_bytes == 0
        assert fresh.mesh_bytes == 0  # budgets are per handle, not global

    def test_planeless_coordinator_still_answers(self):
        """handle_artifact_message with no plane: everything is a miss and
        pushes vanish — a degrade, never a protocol kill."""
        handle, sent = _FakeHandle(), []
        handle_artifact_message(None, handle, protocol.ArtifactHave((KEY,)), sent.append)
        assert sent.pop() == protocol.ArtifactHaveReply((False,))
        handle_artifact_message(None, handle, protocol.ArtifactFetch(KEY), sent.append)
        assert sent.pop() == protocol.ArtifactData(KEY, 0, 0, b"")
        handle_artifact_message(
            None, handle, protocol.ArtifactPush(((KEY, 0, 1, b"x"),)), sent.append
        )
        assert not sent


# ---------------------------------------------------------------------------
# end to end: the mesh over a real coordinator + worker
# ---------------------------------------------------------------------------

class TestMeshEndToEnd:
    def _session(self, llvm, keys, mesh_store, worker_store, budget=None, **kwargs):
        """One coordinator+worker lifetime; returns (results, mesh stats)."""
        with Coordinator(
            artifact_store=persistent_store(mesh_store), mesh_budget_bytes=budget
        ) as coordinator:
            with thread_workers(
                coordinator, 1, store_dir=str(worker_store), **kwargs
            ):
                mapper = DistributedMapper(coordinator, _staged_evaluator(llvm))
                results = mapper.map(keys)
                assert mapper.fallback_evaluations == 0
                return results, coordinator.mesh_stats()

    def test_second_machine_is_warm_from_the_first_machines_pushes(
        self, llvm, tmp_path
    ):
        """The tentpole scenario in miniature: machine A compiles and pushes;
        machine B (fresh process, empty local store) serves every key from
        the mesh — zero compiles, zero misses, identical results."""
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2", "O3")]
        mesh_store = tmp_path / "mesh-store"

        fresh_process_state()
        cold, cold_stats = self._session(
            llvm, keys, mesh_store, tmp_path / "machine-a"
        )
        assert cold_stats["pushes_accepted"] > 0  # fresh compiles traveled up
        assert sum(result.artifact_mesh_hits for result in cold) == 0

        fresh_process_state()  # machine B: a different, amnesiac interpreter
        warm, warm_stats = self._session(
            llvm, keys, mesh_store, tmp_path / "machine-b"
        )
        assert [(r.fitness, r.fingerprint) for r in warm] == [
            (r.fitness, r.fingerprint) for r in cold
        ]
        assert all(result.artifact_mesh_hits >= 1 for result in warm)
        assert sum(result.artifact_misses for result in warm) == 0  # no recompile
        assert warm_stats["fetches_served"] > 0
        assert warm_stats["bytes_out"] > 0

    def test_no_mesh_worker_never_touches_the_plane(self, llvm, tmp_path):
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2")]
        fresh_process_state()
        results, stats = self._session(
            llvm, keys, tmp_path / "mesh-store", tmp_path / "worker", mesh=False
        )
        assert sum(result.artifact_mesh_hits for result in results) == 0
        assert stats["pushes_accepted"] == 0 and stats["fetches_served"] == 0
        assert stats["fetches_missed"] == 0  # not even a probe arrived

    def test_transfer_budget_degrades_to_local_compiles(self, llvm, tmp_path):
        """Over budget, the mesh answers misses: the joining machine pays
        its own compiles, results stay correct, and the denials are
        accounted — never an error."""
        keys = [tuple(llvm.preset(level).sorted_names()) for level in ("O1", "O2")]
        mesh_store = tmp_path / "mesh-store"
        fresh_process_state()
        cold, _stats = self._session(llvm, keys, mesh_store, tmp_path / "machine-a")

        fresh_process_state()
        warm, stats = self._session(
            llvm, keys, mesh_store, tmp_path / "machine-b", budget=1
        )
        assert [(r.fitness, r.fingerprint) for r in warm] == [
            (r.fitness, r.fingerprint) for r in cold
        ]
        assert sum(result.artifact_mesh_hits for result in warm) == 0
        assert stats["fetches_served"] == 0 and stats["budget_denied"] > 0
        assert stats["bytes_out"] == 0  # the cap held before any byte moved


# ---------------------------------------------------------------------------
# campaign surface: config validation and the warm-join acceptance run
# ---------------------------------------------------------------------------

class TestMeshCampaignConfig:
    def test_mesh_requires_distributed_staged_and_a_store(self, tmp_path):
        with pytest.raises(ValueError, match="distributed"):
            Campaign(
                JOBS, tiny_campaign_config(mesh=True, store_dir=tmp_path / "s"),
                spec_provider=tiny_spec,
            )
        with pytest.raises(ValueError, match="store"):
            Campaign(
                JOBS, tiny_campaign_config(dispatch="distributed", mesh=True),
                spec_provider=tiny_spec,
            )
        with pytest.raises(ValueError, match="mesh_budget_bytes"):
            Campaign(
                JOBS, tiny_campaign_config(mesh_budget_bytes=1024),
                spec_provider=tiny_spec,
            )


class TestMeshWarmJoin:
    @pytest.mark.slow
    def test_joining_machine_compiles_nothing_and_matches_serial(self, tmp_path):
        """The acceptance scenario: a full mesh campaign on machine A, then
        a fresh machine B (empty worker store, fresh process) runs the same
        campaign against the same mesh — zero candidate compiles (every
        stage lookup lands in a cache tier, the cold ones in the mesh), and
        a database fingerprint identical to the serial run."""
        serial = Campaign(JOBS, tiny_campaign_config(), spec_provider=tiny_spec).run()
        mesh_store = tmp_path / "campaign-store"

        def mesh_run(worker_store):
            pool = SharedWorkerPool(
                dispatch="distributed", mesh_store=persistent_store(mesh_store)
            )
            try:
                with thread_workers(pool.coordinator, 1, store_dir=str(worker_store)):
                    result = Campaign(
                        JOBS,
                        tiny_campaign_config(
                            dispatch="distributed", mesh=True, store_dir=mesh_store
                        ),
                        spec_provider=tiny_spec,
                    ).run(pool=pool)
                    # Before close(): an owned coordinator's plane dies with it.
                    return result, pool.mesh_stats()
            finally:
                pool.close()

        fresh_process_state()
        cold, cold_stats = mesh_run(tmp_path / "machine-a")
        assert cold.fingerprint() == serial.fingerprint()
        assert cold_stats["pushes_accepted"] > 0

        fresh_process_state()
        warm, warm_stats = mesh_run(tmp_path / "machine-b")
        assert warm.fingerprint() == serial.fingerprint()
        assert (warm.database.record_signatures()
                == serial.database.record_signatures())
        stats = warm.evaluation_stats()
        assert stats.artifact_misses == 0  # zero redundant compiles, fleet-wide
        assert stats.artifact_mesh_hits > 0
        assert warm_stats["fetches_served"] > 0
