"""Normalized compression distance (NCD).

NCD(x, y) = (C(x·y) - min(C(x), C(y))) / max(C(x), C(y))

where C is the compressed length under a lossless compressor.  The paper uses
LZMA (§5, Experimental Setup); zlib and bz2 are provided for the compressor
ablation bench.  NCD over the ``.text`` sections of two binaries is BinTuner's
fitness function: cheap (no disassembly) yet correlated with BinHunt's
difference score (Appendix C).

LZMA is preset 6 with a dictionary of the smallest power of two >= max(4 KiB,
``len(data)``), at most 8 MiB: preset 6's fixed 8 MiB costs a ~16 MiB match
finder per call.  Lengths, all NCD reads, equal preset 6's (tests pin it).
"""

from __future__ import annotations

import bz2
import hashlib
import lzma
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.backend.binary import BinaryImage


def _lzma_compress(data: bytes) -> bytes:
    dict_size = min(1 << max(12, (len(data) - 1).bit_length()), 8 << 20)
    return lzma.compress(
        data, filters=[{"id": lzma.FILTER_LZMA2, "preset": 6, "dict_size": dict_size}]
    )


_COMPRESSORS: Dict[str, Callable[[bytes], bytes]] = {
    "lzma": _lzma_compress,
    "zlib": lambda data: zlib.compress(data, 9),
    "bz2": lambda data: bz2.compress(data, 9),
}


def get_compressor(name: str) -> Callable[[bytes], bytes]:
    """The compress function registered as ``name`` (``ValueError`` if none is)."""
    try:
        return _COMPRESSORS[name]
    except KeyError as exc:
        raise ValueError(f"unknown compressor {name!r}") from exc


class JointCompressor:
    """``len(C(prefix + suffix))`` without recompressing ``prefix`` per call.

    Every joint compression of a tuning campaign shares the same prefix (the
    O0 baseline ``.text``), so the prefix's compression work is a loop
    invariant.  For **zlib**, deflate output is a pure function of the input
    byte stream and the compression parameters — chunk boundaries between
    ``compress()`` calls leave no trace in the output — so priming one
    ``zlib.compressobj`` with the prefix and ``copy()``-ing it per candidate
    yields totals byte-identical to ``zlib.compress(prefix + suffix, 9)``
    while paying only the suffix's compression.  **lzma** and **bz2** fall
    back to the exact one-shot path: CPython's ``lzma`` module exposes
    neither a compressor ``copy()`` nor a preset-dictionary filter, and
    ``bz2`` has no streaming-state clone either, so an incremental path
    cannot be made length-exact for them (and fingerprints embed these
    sizes via fitness values, so exact lengths are non-negotiable).  The
    oracle for every compressor is the public one-shot
    ``compressed_size(prefix + suffix, compressor)``.
    """

    __slots__ = (
        "prefix",
        "compressor",
        "incremental_available",
        "incremental_joints",
        "exact_joints",
        "_compress",
        "_primed",
        "_primed_length",
    )

    def __init__(self, prefix: bytes, compressor: str = "lzma") -> None:
        self._compress = get_compressor(compressor)
        self.prefix = prefix
        self.compressor = compressor
        self.incremental_joints = 0
        self.exact_joints = 0
        self._primed = None
        self._primed_length = 0
        if compressor == "zlib":
            primed = zlib.compressobj(9)
            self._primed_length = len(primed.compress(prefix))
            self._primed = primed
        self.incremental_available = self._primed is not None

    def joint_size(self, suffix: bytes) -> int:
        """Length of the joint compression ``C(prefix + suffix)``."""
        primed = self._primed
        if primed is not None:
            # compressobj.copy() snapshots the primed deflate state; the
            # clone is private to this call, so concurrent scorers only
            # contend on the (internally locked) copy itself.
            clone = primed.copy()
            self.incremental_joints += 1
            return self._primed_length + len(clone.compress(suffix)) + len(clone.flush())
        self.exact_joints += 1
        return len(self._compress(self.prefix + suffix))


def compressed_size(data: bytes, compressor: str = "lzma") -> int:
    """Length in bytes of ``data`` under the chosen compressor."""
    return len(get_compressor(compressor)(data))


def _ncd_from_sizes(c_x: int, c_y: int, c_xy: int) -> float:
    """The NCD formula over precomputed compressed sizes, clamped to [0, 1]."""
    denominator = max(c_x, c_y)
    if denominator == 0:
        return 0.0
    value = (c_xy - min(c_x, c_y)) / denominator
    return max(0.0, min(value, 1.0))


def ncd(x: bytes, y: bytes, compressor: str = "lzma") -> float:
    """NCD between two byte strings (0.0 identical .. ~1.0 unrelated)."""
    if not x and not y:
        return 0.0
    c_x = compressed_size(x, compressor)
    c_y = compressed_size(y, compressor)
    c_xy = compressed_size(x + y, compressor)
    return _ncd_from_sizes(c_x, c_y, c_xy)


def ncd_images(left: BinaryImage, right: BinaryImage, compressor: str = "lzma") -> float:
    """NCD over the code (.text) sections of two binaries."""
    return ncd(left.text, right.text, compressor)


@dataclass
class NCDFitness:
    """BinTuner fitness function: distance of a candidate from the baseline.

    The baseline is normally the ``-O0`` build (the paper measures every
    candidate against O0, §5.1).  Higher is fitter.
    """

    baseline: BinaryImage
    compressor: str = "lzma"

    def __call__(self, candidate: BinaryImage) -> float:
        return ncd_images(self.baseline, candidate, self.compressor)

    def name(self) -> str:
        return f"ncd-{self.compressor}"


@dataclass
class CachedNCDFitness:
    """Drop-in :class:`NCDFitness` that never recompresses the baseline.

    In a tuning run every candidate is measured against the *same* O0
    baseline, so ``C(baseline)`` is a constant that plain :func:`ncd`
    recomputes on every call.  This variant compresses the baseline ``.text``
    once, resolves the compressor callable once, routes the joint
    ``C(baseline || candidate)`` through a :class:`JointCompressor` (so under
    zlib only the candidate suffix is compressed), and keeps an LRU of
    results keyed by the candidate ``.text`` fingerprint — search strategies
    revisit binaries that map to identical code far more often than flag
    vectors repeat.  Returned values are bit-identical to
    :class:`NCDFitness`.
    """

    baseline: BinaryImage
    compressor: str = "lzma"
    max_entries: int = 4096
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._materialize()

    def _materialize(self) -> None:
        self._compress = get_compressor(self.compressor)
        self._baseline_text = self.baseline.text
        self._baseline_size = len(self._compress(self._baseline_text))
        self._joint = JointCompressor(self._baseline_text, self.compressor)
        self._cache: "OrderedDict[str, float]" = OrderedDict()
        # Thread mappers share one fitness across workers; the LRU's
        # get/move_to_end/popitem sequence is not atomic without this (a
        # concurrent eviction between get and move_to_end raises KeyError,
        # routinely so on free-threaded builds).  Compression itself runs
        # outside the lock.
        self._cache_lock = threading.Lock()

    # The resolved compressor is a module-level lambda and the cache is
    # per-process state; rebuild both after unpickling (e.g. in pool workers).
    def __getstate__(self):
        return {
            "baseline": self.baseline,
            "compressor": self.compressor,
            "max_entries": self.max_entries,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.hits = 0
        self.misses = 0
        self._materialize()

    def __call__(self, candidate: BinaryImage) -> float:
        return self.score_artifact(candidate)

    def score_artifact(
        self, candidate: BinaryImage, compressed_size: Optional[int] = None
    ) -> float:
        """Score ``candidate``, reusing a precomputed ``C(candidate .text)``.

        The staged pipeline's compile stage computes the candidate's own
        compressed size (and caches it with the image artifact),
        so scoring only pays the *joint* compression here.  Passing ``None``
        is the plain :meth:`__call__` path.  Values are bit-identical either
        way — the precomputed size is exactly what :meth:`_score` would have
        recomputed.
        """
        text = candidate.text
        key = hashlib.sha256(text).hexdigest()
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        value = self._score(text, compressed_size)
        with self._cache_lock:
            self._cache[key] = value
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
        return value

    def _score(self, text: bytes, compressed_size: Optional[int] = None) -> float:
        # Same contract as ncd(), with C(baseline) precomputed.
        if not self._baseline_text and not text:
            return 0.0
        c_y = len(self._compress(text)) if compressed_size is None else compressed_size
        c_xy = self._joint.joint_size(text)
        return _ncd_from_sizes(self._baseline_size, c_y, c_xy)

    @property
    def cache_hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def name(self) -> str:
        return f"ncd-{self.compressor}-cached"
