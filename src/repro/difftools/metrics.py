"""Evaluation metrics shared by the experiments.

* Precision@1 (§5.4): the fraction of source functions whose true counterpart
  (same symbol, since both binaries are built from the same source) is the
  rank-1 candidate reported by a diffing tool.
* Matched ratios (Tables 7/8): the fraction of basic blocks, CFG edges and
  functions that BinHunt still manages to match between two builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.difftools.base import MatchResult
from repro.difftools.binhunt import BinHuntResult


def precision_at_1(
    result: MatchResult,
    ignore: Iterable[str] = (),
    min_candidates: int = 1,
) -> float:
    """Fraction of functions whose rank-1 candidate is the true counterpart."""
    ignored = set(ignore)
    total = 0
    correct = 0
    for name, candidates in result.rankings.items():
        if name in ignored or len(candidates) < min_candidates:
            continue
        total += 1
        if candidates and candidates[0][0] == name:
            correct += 1
    return correct / total if total else 0.0


def precision_at_k(result: MatchResult, k: int = 5, ignore: Iterable[str] = ()) -> float:
    """Fraction of functions whose true counterpart appears in the top-k."""
    ignored = set(ignore)
    total = 0
    hits = 0
    for name, candidates in result.rankings.items():
        if name in ignored:
            continue
        total += 1
        if name in {candidate for candidate, _ in candidates[:k]}:
            hits += 1
    return hits / total if total else 0.0


@dataclass
class MatchedRatios:
    """The (matched, total) ratios reported in the paper's Tables 7 and 8."""

    matched_blocks: int
    total_blocks: int
    matched_edges: int
    total_edges: int
    matched_functions: int
    total_functions: int

    @property
    def block_ratio(self) -> float:
        return self.matched_blocks / self.total_blocks if self.total_blocks else 0.0

    def as_tuple_text(self) -> str:
        """The "(12K/30K, ...)" style cell used in the paper's appendix tables."""
        return (
            f"({self.matched_blocks}/{self.total_blocks}, "
            f"{self.matched_edges}/{self.total_edges}, "
            f"{self.matched_functions}/{self.total_functions})"
        )


def matched_ratios(result: BinHuntResult) -> MatchedRatios:
    """Extract Tables 7/8 style matched ratios from a BinHunt comparison."""
    total_blocks = max(result.total_blocks)
    total_edges = max(result.total_edges)
    total_functions = max(result.total_functions)
    return MatchedRatios(
        matched_blocks=result.matched_blocks,
        total_blocks=total_blocks,
        matched_edges=result.matched_edges,
        total_edges=total_edges,
        matched_functions=result.matched_functions,
        total_functions=total_functions,
    )
