"""The tuning database.

BinTuner's architecture (Fig. 4) stores every iteration — the flag selection,
the fitness score and the produced binary's fingerprint — in a database shared
between the search engine and the compiler interface so previously evaluated
configurations are never recompiled.  An in-memory store with optional JSON
persistence reproduces that role.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Record fields that take part in cross-run identity.  Wall-clock fields
#: (``elapsed_seconds``, ``started_at``) are deliberately excluded: two runs
#: of the same search evaluate identical candidates but never at identical
#: speeds.  Shared by :meth:`TuningDatabase.fingerprint` and the campaign
#: database's cross-shard fingerprint.
SIGNATURE_FIELDS = ("iteration", "flags", "fitness", "code_size", "fingerprint",
                    "generation", "valid")


def write_text_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file + ``os.replace``.

    Checkpoints are written after every generation precisely so a kill can
    land at any moment; a plain ``write_text`` interrupted mid-write leaves
    truncated JSON that poisons every later resume.  The temp file's name is
    unique per concurrent call (process and thread id; same directory, so the
    replace stays atomic): two threads writing the same path must not replace
    each other's temp file away.
    """
    path = Path(path)
    temporary = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        temporary.write_text(text)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


@dataclass
class IterationRecord:
    """One evaluated configuration."""

    iteration: int
    flags: Tuple[str, ...]
    fitness: float
    code_size: int
    fingerprint: str
    elapsed_seconds: float
    generation: int = 0
    valid: bool = True

    def flag_key(self) -> Tuple[str, ...]:
        return tuple(sorted(self.flags))


@dataclass
class TuningDatabase:
    """Records every iteration of one tuning run."""

    program: str = ""
    compiler: str = ""
    records: List[IterationRecord] = field(default_factory=list)
    _by_flags: Dict[Tuple[str, ...], IterationRecord] = field(default_factory=dict, repr=False)
    started_at: float = field(default_factory=time.time)

    # -- insertion / lookup --------------------------------------------------------

    def lookup(self, flags: Sequence[str]) -> Optional[IterationRecord]:
        return self._by_flags.get(tuple(sorted(flags)))

    def record(self, record: IterationRecord) -> None:
        self.records.append(record)
        self._by_flags[record.flag_key()] = record

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def best(self) -> Optional[IterationRecord]:
        if not self.records:
            return None
        return max(self.records, key=lambda r: (r.fitness, -r.iteration))

    def best_fitness(self) -> float:
        best = self.best()
        return best.fitness if best else 0.0

    def fitness_history(self) -> List[float]:
        """Per-iteration best-so-far fitness (the curves of Figure 6)."""
        history: List[float] = []
        best = float("-inf")
        for record in self.records:
            best = max(best, record.fitness)
            history.append(best)
        return history

    def raw_fitness_series(self) -> List[float]:
        return [record.fitness for record in self.records]

    def elapsed_hours(self) -> float:
        return sum(record.elapsed_seconds for record in self.records) / 3600.0

    # -- identity ----------------------------------------------------------------------

    def record_signatures(self) -> List[Tuple]:
        """Record tuples over :data:`SIGNATURE_FIELDS`, in insertion order."""
        return [
            tuple(getattr(record, name) for name in SIGNATURE_FIELDS)
            for record in self.records
        ]

    def fingerprint(self) -> str:
        """SHA-256 over the ordered record signatures.

        Two runs with the same fingerprint evaluated the same candidates in
        the same order with the same outcomes — the serial/parallel/
        distributed equivalence contract (timing fields excluded).
        """
        payload = json.dumps(self.record_signatures(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def growth_rate(self, window: int = 20) -> float:
        """Relative growth of best-so-far fitness over the last ``window`` records."""
        history = self.fitness_history()
        if len(history) <= window:
            return float("inf")
        previous = history[-window - 1]
        current = history[-1]
        if previous <= 0:
            return float("inf") if current > previous else 0.0
        return (current - previous) / previous

    # -- persistence -------------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "program": self.program,
            "compiler": self.compiler,
            "started_at": self.started_at,
            "records": [asdict(record) for record in self.records],
        }
        return json.dumps(payload, indent=2)

    def save(self, path: Path) -> None:
        write_text_atomic(Path(path), self.to_json())

    @classmethod
    def load(cls, path: Path) -> "TuningDatabase":
        """Rebuild a database from :meth:`save` output.

        Unknown keys — in the top-level payload or inside records — are
        ignored rather than raised on, so checkpoints written by a newer
        schema still load (campaign resume depends on this tolerance).
        """
        payload = json.loads(Path(path).read_text())
        database = cls(program=payload.get("program", ""), compiler=payload.get("compiler", ""))
        if "started_at" in payload:
            database.started_at = payload["started_at"]
        known = {f.name for f in fields(IterationRecord)}
        for raw in payload.get("records", []):
            raw = {key: value for key, value in raw.items() if key in known}
            raw["flags"] = tuple(raw["flags"])
            database.record(IterationRecord(**raw))
        return database
