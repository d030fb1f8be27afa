"""Shared interface for binary diffing tools.

Every tool compares two recovered programs (typically a baseline ``-O0`` build
against an optimized/tuned build of the same source) and produces, for each
function of the source program, a ranked list of candidate functions in the
target program.  The evaluation harness turns those rankings into Precision@1
exactly as the paper does (§5.4): a function is counted as correctly matched
when its true counterpart (same symbol name, since both binaries come from the
same source) is the rank-1 candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.disassembler import RecoveredFunction, RecoveredProgram, disassemble
from repro.backend.binary import BinaryImage


@dataclass
class MatchResult:
    """Ranked candidates for every source function."""

    tool: str
    #: source function name -> list of (target function name, similarity score),
    #: sorted by decreasing similarity.
    rankings: Dict[str, List[Tuple[str, float]]] = field(default_factory=dict)

    def top_match(self, name: str) -> Optional[str]:
        candidates = self.rankings.get(name)
        if not candidates:
            return None
        return candidates[0][0]


class DiffTool:
    """Base class for diffing tools."""

    name = "difftool"

    def compare(self, source: BinaryImage, target: BinaryImage) -> MatchResult:
        """Compare two binary images (convenience wrapper over programs)."""
        return self.compare_programs(disassemble(source), disassemble(target))

    def compare_programs(
        self, source: RecoveredProgram, target: RecoveredProgram
    ) -> MatchResult:
        result = MatchResult(tool=self.name)
        target_functions = list(target.functions.values())
        for name, function in source.functions.items():
            scored = [
                (candidate.name, self.function_similarity(function, candidate, source, target))
                for candidate in target_functions
            ]
            scored.sort(key=lambda item: (-item[1], item[0]))
            result.rankings[name] = scored
        return result

    def function_similarity(
        self,
        source_function: RecoveredFunction,
        target_function: RecoveredFunction,
        source: RecoveredProgram,
        target: RecoveredProgram,
    ) -> float:
        """Similarity in [0, 1]; higher means more similar.  Override me."""
        raise NotImplementedError
