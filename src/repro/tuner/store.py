"""The disk-backed artifact store: the artifact cache's persistent second tier.

The staged pipeline's :class:`~repro.tuner.pipeline.ArtifactCache` makes
same-process reruns nearly free, but it dies with the process — a restarted
campaign re-pays every compile and every emulation it already did, which is
the single largest avoidable cost of suite-scale tuning under repeated
budgets and compiler families.  :class:`ArtifactStore` persists the same
content-addressed artifacts on disk:

* **keys are the cache's keys** — compile artifacts addressed by
  ``("image", compiler family, version, source sha256, compressor,
  canonical flags)`` and traces by ``("trace", image sha256, workload)`` —
  so the store is safe to share across programs, campaigns, worker
  processes on one machine, and restarts: equal keys imply equal artifacts;
* **writes are atomic** — a unique sibling temp file plus ``os.replace``,
  the same discipline as checkpoints — so a kill mid-write leaves a stray
  temp file (ignored, eventually collected), never a truncated entry;
* **loads verify a digest** — every entry embeds the SHA-256 of its payload
  and the full key it was stored under; a corrupt, truncated, or aliased
  entry is treated as a *miss* (and dropped), never a wrong answer;
* **space is bounded** — ``max_bytes`` caps the store, and a least-recently
  *used* (entry mtime; reads touch it) garbage collection deletes the
  coldest entries first.

Concurrency: one store directory may be open in many processes at once (the
orchestrator, every local worker session, distributed worker sessions on
the same machine).  In the orchestrator the run's owner (a campaign or the
tuning service) attaches it to the artifact cache it owns; a worker process
never configures one — it derives the directory and byte budget from the
evaluator blob it is sent and opens the same store through
:func:`persistent_store`.  Atomic replace keeps readers consistent, digest
verification catches anything else, and because entries are
content-addressed two writers racing on one key write identical bytes.

Trust: entries are pickled, and the digest proves *integrity*, not
*authorship* — whoever can write the store directory can execute code in
every process that reads it, exactly like the distributed layer's evaluator
blobs (which is why that layer authenticates peers before unpickling).  The
store therefore creates its directories owner-only (0700) and must only be
pointed at paths writable solely by mutually trusting users; never share a
store directory across trust domains.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import time
from pathlib import Path
from threading import Lock
from typing import Dict, List, Optional, Tuple

from repro.telemetry import Counters, ratio

#: Default byte budget of a store's LRU garbage collection (256 MiB —
#: thousands of compiled mini-C images; pass ``max_bytes=None`` to unbound).
DEFAULT_STORE_MAX_BYTES = 256 * 1024 * 1024

#: Entry-file preamble; bumping the trailing version invalidates (as misses,
#: never as errors) entries whose payload schema this code cannot trust.
MAGIC = b"repro-artifact-store-v1\n"

#: Subdirectory holding the entry files.
OBJECTS_DIR = "objects"

#: Entry-file suffix (anything else under ``objects/`` is ignored).
ENTRY_SUFFIX = ".art"

#: Prefix of in-flight temp files; a crash strands them, GC collects them.
TMP_PREFIX = ".tmp-"

#: Stranded temp files older than this are crash leftovers, not in-flight
#: writes, and are removed by :meth:`ArtifactStore.gc`.
STALE_TEMP_SECONDS = 300.0

#: Garbage collection evicts below this fraction of ``max_bytes`` (the
#: low-water mark): stopping exactly at the budget would leave the store at
#: the boundary, turning every subsequent put into a full synchronous GC.
GC_LOW_WATER = 0.9

_HEX_LEN = 64  # sha256 hexdigest length


def _key_digest(key: Tuple) -> str:
    """Stable file name for one content address.

    Keys are flat tuples of primitives (strings, ints, ``None``, nested
    tuples), for which ``repr`` is canonical and unambiguous; the stored
    entry additionally embeds the full key, so even a repr collision can
    only ever read as a miss.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


class ArtifactStore:
    """Disk-backed content-addressed key/value store with LRU garbage collection.

    All methods are safe to call from multiple threads of one process and
    tolerate other processes using the same directory concurrently.  The
    entries are shared through the filesystem; :attr:`counters` (prefix
    ``store``) count this instance's reads, writes, drops and evictions on
    the instance and the telemetry sink together.
    """

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self._objects = self.directory / OBJECTS_DIR
        #: ``corrupt_dropped`` counts corrupt entries dropped on read and
        #: pushed payloads refused by :meth:`put_encoded`.
        self.counters = Counters(
            "store", "hits", "misses", "puts", "corrupt_dropped", "gc_evictions"
        )
        self._lock = Lock()
        self._gc_lock = Lock()
        self._tmp_counter = itertools.count()
        #: Approximate byte total maintained by this instance's puts; the
        #: authoritative number is a directory scan (see :meth:`gc`).
        self._approx_bytes: Optional[int] = None
        #: Monotonic sum of every put's byte delta: :meth:`gc` snapshots it
        #: before its scan and re-adds what arrived while it was scanning.
        self._added_bytes = 0
        #: One stale-temp sweep per instance, at the first put: crash
        #: leftovers from a previous process get collected even when the
        #: byte budget never forces a GC.
        self._swept = False
        # Construction deliberately touches nothing on disk: evaluator blobs
        # carry the orchestrator's store path to every worker, and a remote
        # machine that overrides it (worker --store-dir), detaches it
        # (--no-store), or never evaluates must not grow junk directory
        # trees at a foreign path.  The first put creates the directories.

    # -- paths -------------------------------------------------------------------

    def _entry_path(self, key: Tuple) -> Path:
        return self._objects / (_key_digest(key) + ENTRY_SUFFIX)

    # -- encoding ----------------------------------------------------------------

    # The mesh transfers entries in their on-disk encoding, so every hop
    # re-runs the same digest + embedded-key verification as a local load.

    @staticmethod
    def encode_entry(key: Tuple, value: object) -> bytes:
        """The self-verifying wire/disk encoding of ``(key, value)``."""
        body = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(body).hexdigest().encode()
        return MAGIC + digest + b"\n" + body

    @staticmethod
    def decode_entry(payload: bytes, key: Tuple) -> Tuple[Optional[object], bool]:
        """``(value, ok)``; ``ok=False`` marks a corrupt/foreign entry.

        Truncation, bit rot, a partial legacy write, or a payload pickled by
        an incompatible schema all land here — every failure mode reads as a
        miss, never as a wrong artifact.
        """
        header_len = len(MAGIC) + _HEX_LEN + 1
        if len(payload) < header_len or not payload.startswith(MAGIC):
            return None, False
        digest = payload[len(MAGIC) : len(MAGIC) + _HEX_LEN]
        if payload[len(MAGIC) + _HEX_LEN : header_len] != b"\n":
            return None, False
        body = payload[header_len:]
        if hashlib.sha256(body).hexdigest().encode() != digest:
            return None, False
        try:
            stored_key, value = pickle.loads(body)
        except Exception:
            return None, False
        if stored_key != key:
            # A digest collision between two distinct keys: not corruption,
            # but not our artifact either.  Reading it would be the one
            # unforgivable failure mode, so it is a miss.
            return None, False
        return value, True

    # -- the key/value surface ---------------------------------------------------

    def _read_verified(self, key: Tuple) -> Tuple[Optional[bytes], Optional[object]]:
        """``(payload, value)`` of ``key``'s entry, ``(None, None)`` on a miss.

        The one read path and the one place reads are counted: a corrupt
        entry is dropped and reads as a miss, a hit refreshes LRU recency.
        """
        path = self._entry_path(key)
        try:
            payload = path.read_bytes()
        except OSError:
            payload = None
        value, ok = (None, False) if payload is None else self.decode_entry(payload, key)
        if not ok:
            if payload is not None:  # present, but corrupt or foreign
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
                self.counters.incr("corrupt_dropped")
            self.counters.incr("misses")
            return None, None
        try:
            os.utime(path)  # reads refresh LRU recency
        except OSError:
            pass
        self.counters.incr("hits")
        return payload, value

    def get(self, key: Tuple) -> Optional[object]:
        """The stored value of ``key``, or ``None`` (miss) — never garbage."""
        return self._read_verified(key)[1]

    def put(self, key: Tuple, value: object) -> bool:
        """Persist ``value`` under ``key`` atomically; returns success.

        An unpicklable value (or a full disk) degrades to ``False`` — the
        store is a cache, so failing to persist must never fail the compile
        that produced the artifact.
        """
        try:
            payload = self.encode_entry(key, value)
        except Exception:
            return False
        return self._write_payload(key, payload)

    def _write_payload(self, key: Tuple, payload: bytes) -> bool:
        """Atomically land an already-encoded entry; shared by put paths."""
        path = self._entry_path(key)
        temporary = self._objects / (
            f"{TMP_PREFIX}{os.getpid()}-{next(self._tmp_counter)}-{path.name}"
        )
        try:
            self._make_directories()
            # Best-effort old size: an overwrite (two processes racing one
            # content-addressed key) replaces, not adds, bytes — without
            # this the approximate total drifts up and triggers spurious
            # GCs long before the real usage reaches the budget.
            try:
                replaced = path.stat().st_size
            except OSError:
                replaced = 0
            temporary.write_bytes(payload)
            os.replace(temporary, path)
        except OSError:
            try:
                temporary.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self.counters.incr("puts")
        with self._lock:
            self._added_bytes += len(payload) - replaced
            if self._approx_bytes is None:
                self._approx_bytes = self._scan_bytes()
            else:
                self._approx_bytes += len(payload) - replaced
            over_budget = (
                self.max_bytes is not None and self._approx_bytes > self.max_bytes
            )
            sweep = not self._swept
            self._swept = True
        if over_budget or sweep:
            self.gc()
        return True

    # -- the encoded-entry surface (artifact mesh) -------------------------------

    def contains(self, key: Tuple) -> bool:
        """Whether an entry file exists for ``key`` — no verification, no
        counter traffic.  A present-but-corrupt entry answers ``True`` here
        and then reads as a verified miss on the actual fetch, which costs
        one wasted round trip, never a wrong artifact.
        """
        try:
            return self._entry_path(key).is_file()
        except OSError:
            return False

    def get_encoded(self, key: Tuple) -> Optional[bytes]:
        """The verified encoded payload of ``key``, or ``None`` (miss).

        Used to serve mesh fetches: the payload is re-verified here before
        it travels (a corrupt entry is dropped, exactly as in :meth:`get`)
        and verified again by the receiver on arrival.
        """
        return self._read_verified(key)[0]

    def put_encoded(self, key: Tuple, payload: bytes) -> bool:
        """Store an already-encoded entry, verifying it first; returns success.

        The verification gate of the artifact plane: a pushed payload whose
        digest, magic, or embedded key does not match is rejected here —
        tampering or transfer corruption never lands in the store.
        """
        _value, ok = self.decode_entry(payload, key)
        if not ok:
            self.counters.incr("corrupt_dropped")
            return False
        return self._write_payload(key, payload)

    def _make_directories(self) -> None:
        """Create the store layout, owner-only.

        0700 because entries are pickles: integrity is verified but
        authorship is not, so write access to this directory is code
        execution in every reader (see the module docstring).  Permissions
        of a pre-existing directory are respected, not tightened.
        """
        if not self.directory.exists():
            self.directory.mkdir(parents=True, exist_ok=True, mode=0o700)
        self._objects.mkdir(parents=True, exist_ok=True, mode=0o700)

    # -- garbage collection ------------------------------------------------------

    def _entries(self) -> List[Tuple[Path, int, float]]:
        """``(path, size, mtime)`` of every entry file, freshly scanned."""
        out: List[Tuple[Path, int, float]] = []
        try:
            names = os.listdir(self._objects)
        except OSError:
            return out
        for name in names:
            # Temp names embed the final entry name, so the suffix check
            # alone would count (and GC would reap) in-flight writes.
            if not name.endswith(ENTRY_SUFFIX) or name.startswith(TMP_PREFIX):
                continue
            path = self._objects / name
            try:
                stat = path.stat()
            except OSError:
                continue  # deleted by a concurrent GC
            out.append((path, stat.st_size, stat.st_mtime))
        return out

    def _scan_bytes(self) -> int:
        return sum(size for _path, size, _mtime in self._entries())

    def gc(self) -> int:
        """Collect stale temp files, then enforce ``max_bytes`` LRU-first.

        Triggered by the first put of each instance (so one process's crash
        leftovers are swept by the next process, budget or not) and
        thereafter only when the store is over budget — and then it evicts
        down to the :data:`GC_LOW_WATER` mark rather than the budget
        itself, because a store left exactly at the boundary would
        re-trigger a full synchronous collection on every subsequent put.
        Returns the number of entries evicted.  Concurrent collectors in
        other processes are tolerated: a file someone else already deleted
        just stops counting.
        """
        with self._gc_lock:
            now = time.time()
            try:
                names = os.listdir(self._objects)
            except OSError:
                names = []
            for name in names:
                if not name.startswith(TMP_PREFIX):
                    continue
                path = self._objects / name
                try:
                    if now - path.stat().st_mtime >= STALE_TEMP_SECONDS:
                        path.unlink(missing_ok=True)
                except OSError:
                    continue
            evicted = 0
            with self._lock:
                added_before_scan = self._added_bytes
            entries = self._entries()
            total = sum(size for _path, size, _mtime in entries)
            if self.max_bytes is not None and total > self.max_bytes:
                target = int(self.max_bytes * GC_LOW_WATER)
                entries.sort(key=lambda entry: (entry[2], entry[0].name))
                for path, size, _mtime in entries:
                    if total <= target:
                        break
                    try:
                        path.unlink()
                    except OSError:
                        continue  # lost the race to another collector
                    total -= size
                    evicted += 1
                self.counters.incr("gc_evictions", evicted)
            with self._lock:
                # A put that lands after the scan counted itself into
                # ``_approx_bytes`` already; keep it (one that landed before
                # is counted twice — an early GC, never a missed one).
                self._approx_bytes = total + self._added_bytes - added_before_scan
            return evicted

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries())

    def total_bytes(self) -> int:
        return self._scan_bytes()

    @property
    def hit_ratio(self) -> float:
        counts = self.counters.snapshot()
        return ratio(counts["hits"], counts["hits"] + counts["misses"])

    def stats(self) -> Dict[str, object]:
        """JSON-safe counters for campaign summaries and the ledger."""
        entries = self._entries()
        return {
            **self.counters.snapshot(),
            "path": str(self.directory),
            "entries": len(entries),
            "bytes": sum(size for _path, size, _mtime in entries),
            "max_bytes": self.max_bytes,
            "hit_ratio": round(self.hit_ratio, 4),
        }


#: Process-wide store registry: one :class:`ArtifactStore` per resolved
#: directory, so every evaluator, program, and campaign of a process that
#: names the same directory shares one instance (and its counters).
#: ``max_bytes`` only applies at creation, mirroring
#: :func:`~repro.tuner.pipeline.shared_artifact_cache` semantics.
_STORES: Dict[str, ArtifactStore] = {}
_STORES_LOCK = Lock()


def persistent_store(
    directory, max_bytes: Optional[int] = DEFAULT_STORE_MAX_BYTES
) -> ArtifactStore:
    """The process-wide :class:`ArtifactStore` for ``directory`` (created once)."""
    key = str(Path(directory).resolve())
    with _STORES_LOCK:
        store = _STORES.get(key)
        if store is None:
            store = ArtifactStore(directory, max_bytes=max_bytes)
            _STORES[key] = store
        return store


def reset_persistent_stores() -> None:
    """Forget every registered store instance (test hook: simulates a fresh
    process; the on-disk entries are untouched)."""
    with _STORES_LOCK:
        _STORES.clear()
