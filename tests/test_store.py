"""Tests for the disk-backed artifact store (:mod:`repro.tuner.store`).

The load-bearing guarantees:

* writes are atomic (temp file + ``os.replace``): a crash mid-write leaves a
  stray temp file that is ignored by reads and collected by GC, never a
  truncated entry;
* loads verify a digest and the stored key: corruption, truncation, or an
  aliased entry reads as a *miss* — never as a wrong artifact;
* garbage collection respects the byte budget and evicts in LRU order
  (reads refresh recency);
* concurrent readers and writers (a thread mapper's workers, or several
  worker slots) always observe consistent entries;
* the :class:`~repro.tuner.pipeline.ArtifactCache` write-through tier
  accounting distinguishes memory (tier-1) from disk (tier-2) hits;
* the cache, the store and both mesh ends count once: each counter of their
  ``stats()`` equals the telemetry sink's ``{prefix}.{name}``.
"""

from __future__ import annotations

import os
import pickle
import socket
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.distrib import artifacts
from repro.distrib.artifacts import CoordinatorArtifactPlane, WorkerMeshClient
from repro.distrib.protocol import (
    ArtifactData,
    ArtifactFetch,
    ArtifactHaveReply,
    ArtifactPush,
    send_message,
)
from repro.tuner import ArtifactCache, ArtifactStore, persistent_store
from repro.tuner.pipeline import MEMORY_TIER, MESH_TIER, MISS_TIER, STORE_TIER
from repro.tuner.store import (
    ENTRY_SUFFIX,
    MAGIC,
    OBJECTS_DIR,
    TMP_PREFIX,
    reset_persistent_stores,
)


def entry_files(store: ArtifactStore):
    return sorted(
        path for path in (store.directory / OBJECTS_DIR).iterdir()
        if path.name.endswith(ENTRY_SUFFIX) and not path.name.startswith(TMP_PREFIX)
    )


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "llvm", "1.0", "srcdigest", "lzma", ("-dce", "-licm"))
        value = {"payload": b"\x00\x01binary", "size": 42}
        assert store.get(key) is None  # cold
        assert store.put(key, value)
        assert store.get(key) == value
        assert store.counters.snapshot() == {
            "hits": 1, "misses": 1, "puts": 1, "corrupt_dropped": 0, "gc_evictions": 0,
        }

    def test_entries_survive_a_new_instance(self, tmp_path):
        """The whole point: a fresh process (a new instance) reads the old
        process's artifacts."""
        ArtifactStore(tmp_path / "store").put(("trace", "abc", (1,)), (7, "out"))
        restarted = ArtifactStore(tmp_path / "store")
        assert restarted.get(("trace", "abc", (1,))) == (7, "out")

    def test_distinct_keys_are_distinct_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(("image", "a"), 1)
        store.put(("image", "b"), 2)
        assert store.get(("image", "a")) == 1
        assert store.get(("image", "b")) == 2
        assert len(store) == 2

    def test_unpicklable_value_degrades_to_false(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert not store.put(("image", "bad"), lambda: None)  # lambdas don't pickle
        assert store.get(("image", "bad")) is None

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path / "store", max_bytes=0)


class TestCrashAndCorruption:
    def test_partial_temp_files_are_ignored(self, tmp_path):
        """A kill mid-write strands a temp file; reads never see it and GC
        collects it once it is stale."""
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "a")
        store.put(key, "artifact")
        # Simulate a writer killed mid-write: a partial temp file next to
        # (and newer than) the real entry.
        stranded = store.directory / OBJECTS_DIR / f"{TMP_PREFIX}999-0-partial.art"
        stranded.write_bytes(MAGIC + b"deadbeef")  # truncated garbage
        assert store.get(key) == "artifact"
        assert len(store) == 1  # the temp file is not an entry
        store.gc()
        assert stranded.exists()  # fresh temp files might be in-flight writes
        os.utime(stranded, (1, 1))  # make it stale
        store.gc()
        assert not stranded.exists()

    def test_first_put_sweeps_stale_temps_without_budget_pressure(self, tmp_path):
        """Crash leftovers must go even on stores whose byte budget never
        forces a GC: the next process's first put sweeps them."""
        first = ArtifactStore(tmp_path / "store", max_bytes=None)
        first.put(("image", "a"), "artifact")
        stranded = first.directory / OBJECTS_DIR / f"{TMP_PREFIX}777-0-crash.art"
        stranded.write_bytes(b"partial")
        os.utime(stranded, (1, 1))  # long-dead writer
        second = ArtifactStore(tmp_path / "store", max_bytes=None)  # "next process"
        second.put(("image", "b"), "artifact")
        assert not stranded.exists()
        assert second.get(("image", "a")) == "artifact"

    def test_directories_are_created_owner_only_and_lazily(self, tmp_path):
        """Entries are pickles, so the directory is a trust boundary: 0700,
        and nothing is created before the first put (a foreign path baked
        into an evaluator blob must not grow junk trees)."""
        store = ArtifactStore(tmp_path / "store")
        assert not (tmp_path / "store").exists()  # construction is side-effect free
        assert store.get(("image", "a")) is None  # reads tolerate absence too
        store.put(("image", "a"), "artifact")
        assert (tmp_path / "store").stat().st_mode & 0o777 == 0o700
        assert (tmp_path / "store" / OBJECTS_DIR).stat().st_mode & 0o777 == 0o700

    def test_truncated_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "a")
        store.put(key, "artifact")
        path = entry_files(store)[0]
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])  # simulated torn write
        assert store.get(key) is None
        assert store.counters.snapshot()["corrupt_dropped"] == 1
        assert not path.exists()  # dropped, so it cannot mislead again

    def test_bit_rot_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "a")
        store.put(key, "artifact")
        path = entry_files(store)[0]
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF  # flip a payload bit; the digest no longer matches
        path.write_bytes(bytes(payload))
        assert store.get(key) is None
        assert store.counters.snapshot()["corrupt_dropped"] == 1

    def test_foreign_magic_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "a")
        store.put(key, "artifact")
        path = entry_files(store)[0]
        path.write_bytes(b"not-an-artifact-store-entry")
        assert store.get(key) is None

    def test_aliased_key_is_a_miss_not_a_wrong_answer(self, tmp_path):
        """An entry whose embedded key differs from the requested one (the
        digest-collision case) must read as a miss."""
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "a")
        store.put(key, "artifact")
        path = entry_files(store)[0]
        # Rewrite the entry in place with a *different* embedded key but a
        # valid digest — only the key check can catch this.
        body = pickle.dumps((("image", "other"), "foreign artifact"))
        import hashlib

        path.write_bytes(MAGIC + hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
        assert store.get(key) is None

    def test_corruption_recovery_recompiles_once(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = ("image", "a")
        store.put(key, "artifact")
        entry_files(store)[0].write_bytes(b"garbage")
        assert store.get(key) is None  # miss, dropped
        store.put(key, "artifact")  # the caller recompiled and re-stored
        assert store.get(key) == "artifact"


class TestEncodedEntrySurface:
    """The mesh-facing surface: entries travel in their on-disk encoding and
    every receiver re-verifies before storing or using them — tampering,
    corruption, and key aliasing all read as a *miss*, never as a wrong
    artifact (the tentpole's by-construction poisoning defense)."""

    KEY = ("image", "llvm", "1.0", "srcdigest", "lzma", ("-dce",))

    def test_encode_decode_round_trip(self):
        payload = ArtifactStore.encode_entry(self.KEY, {"blob": b"\x00\x01"})
        value, ok = ArtifactStore.decode_entry(payload, self.KEY)
        assert ok and value == {"blob": b"\x00\x01"}

    def test_flipped_byte_reads_as_verified_miss(self):
        payload = bytearray(ArtifactStore.encode_entry(self.KEY, "artifact"))
        payload[-1] ^= 0xFF
        value, ok = ArtifactStore.decode_entry(bytes(payload), self.KEY)
        assert not ok and value is None

    def test_aliased_key_reads_as_verified_miss(self):
        """A payload whose digest is intact but whose embedded key is not
        the requested one (an aliasing push) must not decode."""
        payload = ArtifactStore.encode_entry(("image", "other"), "foreign")
        value, ok = ArtifactStore.decode_entry(payload, self.KEY)
        assert not ok and value is None

    def test_put_encoded_rejects_tampering(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        good = ArtifactStore.encode_entry(self.KEY, "artifact")
        flipped = bytearray(good)
        flipped[-1] ^= 0xFF
        assert not store.put_encoded(self.KEY, bytes(flipped))
        assert not store.put_encoded(
            self.KEY, ArtifactStore.encode_entry(("image", "other"), "foreign")
        )
        assert not store.put_encoded(self.KEY, b"garbage")
        assert store.counters.snapshot()["corrupt_dropped"] == 3
        assert not store.contains(self.KEY)  # nothing ever landed
        assert store.put_encoded(self.KEY, good)  # the honest payload does
        assert store.get(self.KEY) == "artifact"

    def test_get_encoded_verifies_and_drops_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put(self.KEY, "artifact")
        assert store.get_encoded(self.KEY) == ArtifactStore.encode_entry(
            self.KEY, "artifact"
        )
        entry_files(store)[0].write_bytes(b"rotted")
        assert store.get_encoded(self.KEY) is None
        assert store.counters.snapshot()["corrupt_dropped"] == 1
        assert not store.contains(self.KEY)  # dropped, like get()

    @pytest.mark.parametrize("read", ["get", "get_encoded"])
    def test_both_read_surfaces_count_on_the_sink(self, tmp_path, read):
        """A mesh fetch served through ``get_encoded`` is as visible on
        ``/metrics`` as a local ``get``: one read path, one counting site."""
        with telemetry.recording() as sink:
            store = ArtifactStore(tmp_path / "store")
            store.put(self.KEY, "artifact")
            fetch = getattr(store, read)
            assert fetch(self.KEY) is not None            # hit
            assert fetch(("image", "absent")) is None     # miss
            entry_files(store)[0].write_bytes(b"rotted")
            assert fetch(self.KEY) is None                # corrupt: dropped, a miss
            counters = sink.counters()
        assert counters == {
            "store.puts": 1, "store.hits": 1, "store.misses": 2,
            "store.corrupt_dropped": 1,
        }
        counts = store.counters.snapshot()
        assert (counts["hits"], counts["misses"], counts["corrupt_dropped"]) == (1, 2, 1)

    def test_rejected_push_counts_on_the_sink(self, tmp_path):
        with telemetry.recording() as sink:
            store = ArtifactStore(tmp_path / "store")
            assert not store.put_encoded(self.KEY, b"garbage")
            assert store.put_encoded(
                self.KEY, ArtifactStore.encode_entry(self.KEY, "artifact")
            )
            counters = sink.counters()
        assert counters == {"store.corrupt_dropped": 1, "store.puts": 1}
        counts = store.counters.snapshot()
        assert (counts["corrupt_dropped"], counts["puts"]) == (1, 1)

    def test_contains_is_existence_only(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert not store.contains(self.KEY)
        store.put(self.KEY, "artifact")
        before = store.counters.snapshot()
        assert store.contains(self.KEY)
        # No verification and no counter traffic: a membership probe must
        # stay cheap enough to answer for whole batches at a time.
        assert store.counters.snapshot() == before


class TestGarbageCollection:
    def _put_sized(self, store, name, size, mtime):
        key = ("image", name)
        store.put(key, b"x" * size)
        os.utime(store._entry_path(key), (mtime, mtime))
        return key

    def test_gc_respects_byte_budget_in_lru_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=10_000_000)  # no auto-GC yet
        # Equal-length keys and values => equal entry sizes, so the budget
        # arithmetic below forces exactly one eviction.
        old = self._put_sized(store, "k1", 400, 1_000)
        middle = self._put_sized(store, "k2", 400, 2_000)
        new = self._put_sized(store, "k3", 400, 3_000)
        total = store.total_bytes()
        # Budget of ~2.5 entries: over budget by one, and one eviction also
        # satisfies the low-water mark (0.9 * budget > two entries).
        store.max_bytes = total * 5 // 6
        evicted = store.gc()
        assert evicted == 1
        assert store.get(old) is None          # the coldest entry went first
        assert store.get(middle) is not None
        assert store.get(new) is not None
        assert store.total_bytes() <= store.max_bytes
        assert store.counters.snapshot()["gc_evictions"] == 1

    def test_reads_refresh_recency(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=10_000_000)
        old = self._put_sized(store, "old", 400, 1_000)
        new = self._put_sized(store, "new", 400, 2_000)
        assert store.get(old) is not None  # os.utime: "old" is now the MRU
        store.max_bytes = store.total_bytes() - 1
        store.gc()
        assert store.get(old) is not None
        assert store.get(new) is None

    def test_put_triggers_gc_over_budget(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=2_000)
        for index in range(32):
            store.put(("image", index), b"y" * 256)
        assert store.total_bytes() <= store.max_bytes
        assert store.counters.snapshot()["gc_evictions"] > 0

    def test_put_landing_during_the_scan_stays_counted(self, tmp_path, monkeypatch):
        """A put that lands between GC's directory scan and its byte-total
        assignment keeps its bytes: dropping them hid the next overrun from
        every later put, so the store stayed over budget (the
        ``test_concurrent_writers_under_gc_pressure`` race, made
        deterministic)."""
        store = ArtifactStore(tmp_path / "store", max_bytes=10_000_000)
        store.put(("image", "first"), b"a" * 1_000)  # the first put's sweep
        scan = store._entries

        def scan_then_put():
            found = scan()
            monkeypatch.setattr(store, "_entries", scan)
            store.put(("image", "late"), b"b" * 1_000)
            return found

        monkeypatch.setattr(store, "_entries", scan_then_put)
        store.gc()
        assert store._approx_bytes == store.total_bytes()
        store.max_bytes = store.total_bytes() + 500
        store.put(("image", "over"), b"c" * 1_000)  # over budget: must collect
        assert store.total_bytes() <= store.max_bytes

    def test_unbounded_store_never_collects_entries(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=None)
        for index in range(16):
            store.put(("image", index), b"z" * 512)
        store.gc()
        assert len(store) == 16 and store.counters.snapshot()["gc_evictions"] == 0


class TestConcurrency:
    def test_concurrent_readers_and_writers_see_consistent_entries(self, tmp_path):
        """Hammer one store from a thread pool: every successful get must
        return exactly the value content-addressed by its key."""
        store = ArtifactStore(tmp_path / "store")
        # index // 2 decouples the key from the reader/writer role below, so
        # writers (odd indexes) cover all eight keys.
        keys = [("image", (index // 2) % 8) for index in range(160)]

        def worker(index):
            key = keys[index]
            if index % 2:
                assert store.put(key, ("artifact", key[1]))
                return True
            value = store.get(key)
            assert value is None or value == ("artifact", key[1])
            return value is not None

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(worker, range(len(keys))))
        assert any(outcomes)  # at least some reads hit
        for index in range(8):  # final state: every key readable and correct
            assert store.get(("image", index)) == ("artifact", index)

    def test_concurrent_writers_under_gc_pressure(self, tmp_path):
        """Writers racing a byte budget small enough to GC constantly must
        never surface an error or a wrong value."""
        store = ArtifactStore(tmp_path / "store", max_bytes=4_096)

        def worker(index):
            key = ("image", index % 16)
            store.put(key, b"v" * 200 + bytes([index % 16]))
            value = store.get(key)
            assert value is None or value == b"v" * 200 + bytes([index % 16])

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(200)))
        assert store.total_bytes() <= store.max_bytes

    def test_two_instances_share_one_directory(self, tmp_path):
        """Two store objects on one directory (two processes in miniature):
        writes through either are visible through both."""
        left = ArtifactStore(tmp_path / "store")
        right = ArtifactStore(tmp_path / "store")
        left.put(("image", "l"), "from-left")
        right.put(("image", "r"), "from-right")
        assert left.get(("image", "r")) == "from-right"
        assert right.get(("image", "l")) == "from-left"


class TestPersistentStoreRegistry:
    def test_one_instance_per_resolved_path(self, tmp_path):
        reset_persistent_stores()
        try:
            first = persistent_store(tmp_path / "store")
            again = persistent_store(tmp_path / "store")
            other = persistent_store(tmp_path / "other")
            assert first is again and first is not other
        finally:
            reset_persistent_stores()


class TestTieredCache:
    def test_write_through_and_tier_accounting(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = ArtifactCache(max_entries=8, store=store)
        key = ("image", "k")
        value, tier = first.lookup(key)
        assert value is None and tier == MISS_TIER
        first.put(key, "artifact")
        value, tier = first.lookup(key)
        assert value == "artifact" and tier == MEMORY_TIER
        # A fresh cache over the same store: first lookup is a tier-2 hit
        # promoted into memory, the second a tier-1 hit.
        second = ArtifactCache(max_entries=8, store=store)
        value, tier = second.lookup(key)
        assert value == "artifact" and tier == STORE_TIER
        value, tier = second.lookup(key)
        assert tier == MEMORY_TIER
        counts = second.counters.snapshot()
        assert (counts["store_hits"], counts["memory_hits"], counts["misses"]) == (1, 1, 0)
        stats = second.stats()
        assert stats["store_hits"] == 1 and stats["store"]["puts"] == 1

    def test_memory_eviction_keeps_the_disk_tier(self, tmp_path):
        cache = ArtifactCache(max_entries=1, store=ArtifactStore(tmp_path / "store"))
        cache.put(("image", "a"), "first")
        cache.put(("image", "b"), "second")  # evicts "a" from memory only
        assert cache.counters.snapshot()["evictions"] == 1
        value, tier = cache.lookup(("image", "a"))
        assert value == "first" and tier == STORE_TIER

    def test_corrupt_store_entry_falls_back_to_recompute_path(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        warm = ArtifactCache(max_entries=8, store=store)
        warm.put(("image", "a"), "artifact")
        for path in entry_files(store):
            path.write_bytes(b"garbage")
        cold = ArtifactCache(max_entries=8, store=store)
        value, tier = cold.lookup(("image", "a"))
        assert value is None and tier == MISS_TIER  # a miss, never garbage

    def test_storeless_cache_unchanged(self):
        cache = ArtifactCache(max_entries=2)
        cache.put(("k",), 1)
        assert cache.lookup(("k",)) == (1, MEMORY_TIER)
        assert cache.stats()["store"] is None


class TestTierCounters:
    """Every artifact tier counts once, on the instance and the sink
    together: after a scripted hit / miss / corrupt or rejected entry /
    eviction / over-budget sequence, each key of a component's counter
    snapshot (and of its ``stats()``) equals the sink's ``{prefix}.{key}``."""

    KEY = ("image", "a")

    class _Mesh:
        """A third tier that serves one key (``ArtifactCache.mesh``)."""

        def fetch(self, key):
            return "from the mesh" if key == ("image", "remote") else None

        def offer(self, key, value):
            pass

    def _cache(self, tmp_path, _monkeypatch):
        cache = ArtifactCache(max_entries=1, store=ArtifactStore(tmp_path / "store"))
        cache.mesh = self._Mesh()
        assert cache.lookup(self.KEY)[1] == MISS_TIER
        cache.put(self.KEY, "first")
        assert cache.lookup(self.KEY)[1] == MEMORY_TIER
        cache.put(("image", "b"), "second")                     # evicts KEY from memory
        assert cache.lookup(self.KEY)[1] == STORE_TIER          # ... evicting "b"
        assert cache.lookup(("image", "remote"))[1] == MESH_TIER  # ... evicting KEY
        return cache

    def _store(self, tmp_path, _monkeypatch):
        """Both read surfaces count: a mesh fetch served through
        ``get_encoded`` is as visible on ``/metrics`` as a local ``get``."""
        store = ArtifactStore(tmp_path / "store")
        store.put(self.KEY, "artifact")
        assert store.get(self.KEY) == "artifact"
        assert store.get_encoded(self.KEY) is not None
        assert store.get(("image", "absent")) is None
        assert store.get_encoded(("image", "absent")) is None
        entry_files(store)[0].write_bytes(b"rotted")
        assert store.get_encoded(self.KEY) is None              # corrupt: dropped, a miss
        assert not store.put_encoded(self.KEY, b"garbage")      # a rejected push
        store.put(("image", "b"), b"x" * 400)
        store.max_bytes = 1
        assert store.gc() == 1
        return store

    def _plane(self, tmp_path, _monkeypatch):
        plane = CoordinatorArtifactPlane(ArtifactStore(tmp_path / "plane"))
        handle, sent = SimpleNamespace(mesh_bytes=0, mesh_parts={}), []
        good = ArtifactStore.encode_entry(self.KEY, "artifact")
        plane.handle(handle, ArtifactPush(((self.KEY, 0, 1, good),)), sent.append)
        plane.handle(handle, ArtifactPush(((self.KEY, 0, 1, b"garbage"),)), sent.append)
        plane.handle(handle, ArtifactFetch(self.KEY), sent.append)            # served
        plane.handle(handle, ArtifactFetch(("image", "absent")), sent.append)  # missed
        plane.budget_bytes = 1
        plane.handle(handle, ArtifactFetch(self.KEY), sent.append)            # over budget
        return plane

    def _client(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "MESH_MAX_ENTRY_BYTES", 4096)
        mine, peer = socket.socketpair()
        client = WorkerMeshClient(
            mine, SimpleNamespace(send=lambda message: send_message(mine, message))
        )
        good = ArtifactStore.encode_entry(self.KEY, "artifact")
        client.begin_batch()
        try:
            # Replies are queued on the peer end before each request.
            send_message(peer, ArtifactData(self.KEY, 0, 1, good))
            assert client.fetch(self.KEY) == "artifact"
            send_message(peer, ArtifactData(("image", "absent"), 0, 0, b""))
            assert client.fetch(("image", "absent")) is None
            send_message(peer, ArtifactData(("image", "torn"), 0, 1, good[:-1]))
            assert client.fetch(("image", "torn")) is None      # fails verification
            client.offer(("image", "fresh"), "small")
            client.offer(("image", "huge"), "x" * 8192)         # over the entry cap
            send_message(peer, ArtifactHaveReply((False, False)))
            client.flush()
            client.budget_bytes = 1
            assert client.fetch(self.KEY) is None               # over budget: never sent
        finally:
            client.end_batch()
            mine.close()
            peer.close()
        return client

    @pytest.mark.parametrize("component, prefix, expected", [
        ("cache", "artifact", {"memory_hits": 1, "store_hits": 1, "mesh_hits": 1,
                               "misses": 1, "puts": 2, "evictions": 3}),
        ("store", "store", {"hits": 2, "misses": 3, "puts": 2, "corrupt_dropped": 2,
                            "gc_evictions": 1}),
        ("plane", "mesh", {"pushes_accepted": 1, "pushes_rejected": 1,
                           "fetches_served": 1, "fetches_missed": 2, "budget_denied": 1}),
        ("client", "mesh", {"fetches": 3, "fetch_hits": 1, "fetch_misses": 1,
                            "verify_failures": 1, "pushes_sent": 1, "push_skipped": 1,
                            "budget_denied": 1}),
    ], ids=["cache", "store", "plane", "client"])
    def test_counters_equal_the_sink(self, tmp_path, monkeypatch, component, prefix, expected):
        with telemetry.recording() as sink:
            counted = getattr(self, f"_{component}")(tmp_path, monkeypatch)
            on_sink = sink.counters()
        snapshot = counted.counters.snapshot()
        assert snapshot == {name: on_sink.get(f"{prefix}.{name}", 0) for name in snapshot}
        stats = counted.stats()
        assert {name: stats[name] for name in snapshot} == snapshot
        sizes = {name for name in snapshot if name.startswith("bytes_")}
        assert {name: snapshot[name] for name in snapshot.keys() - sizes} == expected
        assert all(snapshot[name] > 0 for name in sizes)
