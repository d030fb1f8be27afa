"""The campaign database: per-program shards under one store.

The per-program :class:`~repro.tuner.database.TuningDatabase` stays the unit
of dedup — a flag key compiled for one program must never satisfy a lookup
for another, since the same flags produce different binaries per source —
but a campaign needs one store that owns all shards: it is what gets
checkpointed, resumed and aggregated.  The aggregations are the raw material
of the paper's cross-program artefacts: per-flag potency across best
configurations (Fig. 7) and best-config overlap between programs
(Tables 7/8's "how similar are tuned sequences" question).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.tuner.database import SIGNATURE_FIELDS, TuningDatabase, write_text_atomic

#: Shard key: (compiler family, program name).
ShardKey = Tuple[str, str]

#: The file of a saved database that names its shard files.
INDEX_NAME = "index.json"


def _shard_filename(key: ShardKey) -> str:
    family, program = key
    return f"{family}__{program}.json"


@dataclass
class CampaignDatabase:
    """All tuning databases of one campaign, sharded by (family, program)."""

    name: str = "campaign"
    shards: Dict[ShardKey, TuningDatabase] = field(default_factory=dict)

    # -- shard access -----------------------------------------------------------------

    def shard(self, family: str, program: str) -> TuningDatabase:
        """The (created-on-demand) tuning database of one program."""
        key = (family, program)
        if key not in self.shards:
            self.shards[key] = TuningDatabase(program=program, compiler=family)
        return self.shards[key]

    def shard_keys(self) -> List[ShardKey]:
        return sorted(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def total_records(self) -> int:
        return sum(len(shard) for shard in self.shards.values())

    # -- cross-program aggregation ----------------------------------------------------

    def best_configs(self, family: Optional[str] = None) -> Dict[ShardKey, Tuple[str, ...]]:
        """Best flag tuple per shard (shards with no valid best are skipped)."""
        out: Dict[ShardKey, Tuple[str, ...]] = {}
        for key in self.shard_keys():
            if family is not None and key[0] != family:
                continue
            best = self.shards[key].best()
            if best is not None:
                out[key] = best.flag_key()
        return out

    def flag_frequency(self, family: Optional[str] = None) -> Dict[str, float]:
        """Share of programs whose *best* configuration enables each flag.

        This is the campaign-level potency signal: a flag enabled by the
        winning sequence of most programs is potent suite-wide, not just on
        one workload (Fig. 7's aggregation across benchmarks).
        """
        bests = self.best_configs(family)
        if not bests:
            return {}
        counts: Dict[str, int] = {}
        for flags in bests.values():
            for flag in flags:
                counts[flag] = counts.get(flag, 0) + 1
        return {flag: counts[flag] / len(bests) for flag in sorted(counts)}

    def best_overlap(self, family: Optional[str] = None) -> Dict[ShardKey, Dict[ShardKey, float]]:
        """Pairwise Jaccard index between programs' best flag sets."""
        bests = self.best_configs(family)
        matrix: Dict[ShardKey, Dict[ShardKey, float]] = {}
        for left, left_flags in bests.items():
            matrix[left] = {}
            for right, right_flags in bests.items():
                if left == right:
                    continue
                union = set(left_flags) | set(right_flags)
                inter = set(left_flags) & set(right_flags)
                matrix[left][right] = len(inter) / len(union) if union else 1.0
        return matrix

    def summary_rows(self) -> List[Dict[str, object]]:
        """One row per shard: the campaign CLI / experiment report table."""
        rows: List[Dict[str, object]] = []
        for family, program in self.shard_keys():
            shard = self.shards[(family, program)]
            best = shard.best()
            rows.append(
                {
                    "compiler": family,
                    "benchmark": program,
                    "iterations": len(shard),
                    "best_fitness": round(best.fitness, 4) if best else None,
                    "best_flag_count": len(best.flags) if best else 0,
                    "hours": round(shard.elapsed_hours(), 4),
                }
            )
        return rows

    # -- identity ---------------------------------------------------------------------

    def record_signatures(self) -> Dict[ShardKey, List[Tuple]]:
        """Per-shard record tuples over :data:`SIGNATURE_FIELDS`, in order."""
        return {key: self.shards[key].record_signatures() for key in self.shard_keys()}

    def fingerprint(self) -> str:
        """SHA-256 over every shard's ordered record signatures.

        Two campaigns with the same fingerprint evaluated the same candidates
        in the same order with the same outcomes — the resume-equivalence
        contract (timing fields excluded, see :data:`SIGNATURE_FIELDS`).
        """
        signatures = self.record_signatures()
        payload = json.dumps(
            [[key, signatures[key]] for key in self.shard_keys()],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- persistence ------------------------------------------------------------------

    def _write_index(self, directory: Path) -> None:
        index = {
            "name": self.name,
            "shards": [
                {"compiler": family, "program": program,
                 "file": _shard_filename((family, program))}
                for family, program in self.shard_keys()
            ],
        }
        write_text_atomic(directory / INDEX_NAME, json.dumps(index, indent=2))

    def save(self, directory: Path) -> None:
        """Write one JSON file per shard plus an index under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for key in self.shard_keys():
            self.shards[key].save(directory / _shard_filename(key))
        self._write_index(directory)

    def save_shard(self, family: str, program: str, directory: Path) -> None:
        """Write a single shard (the per-generation checkpoint hot path).

        The index is refreshed too, so a campaign killed mid-program leaves a
        checkpoint that :meth:`load` accepts — the in-progress shard included.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        key = (family, program)
        self.shard(family, program).save(directory / _shard_filename(key))
        self._write_index(directory)

    @staticmethod
    def saved_in(directory: Path) -> bool:
        """Whether ``directory`` holds a :meth:`save` (or a checkpointed
        :meth:`save_shard`) that :meth:`load` can read."""
        return (Path(directory) / INDEX_NAME).exists()

    @classmethod
    def load(cls, directory: Path) -> "CampaignDatabase":
        directory = Path(directory)
        index = json.loads((directory / INDEX_NAME).read_text())
        database = cls(name=index.get("name", "campaign"))
        for entry in index["shards"]:
            shard = TuningDatabase.load(directory / entry["file"])
            database.shards[(entry["compiler"], entry["program"])] = shard
        return database
