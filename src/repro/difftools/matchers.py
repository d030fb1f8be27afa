"""The prominent binary diffing tools compared in the paper's Figure 8.

Each class re-implements the *core matching idea* of the corresponding tool on
top of the shared recovery substrate.  None of them looks at symbol names —
names are only used afterwards by the evaluation metrics as ground truth.

* :class:`BinDiffMatcher` — three-level statistical features (function, basic
  block, CFG/CG topology) with greedy matching, the industry-standard
  BinDiff approach (§2.3);
* :class:`BinSlayer`      — Hungarian-algorithm bipartite CFG matching over
  block features (Bourquin et al., PPREW'13);
* :class:`Asm2Vec`        — lexical embeddings of instruction token
  "sentences" per function (Ding et al., S&P'19), modelled with hashed
  token/bigram frequency vectors;
* :class:`InnerEye`       — basic-block embedding similarity (Zuo et al.,
  NDSS'19): functions match when their block embeddings align;
* :class:`VulSeeker`      — numeric CFG + DFG feature vectors per function
  (Gao et al., ASE'18);
* :class:`IMFSim`         — in-memory fuzzing: execute both functions on the
  same random arguments and compare observable results (Wang & Wu, ASE'17);
* :class:`CoP`            — basic-block semantic equivalence plus longest
  common subsequence of linearly independent paths (Luo et al., FSE'14);
* :class:`MultiMH`        — per-block input/output sampling signatures
  (Pewny et al., S&P'15), approximated by canonical block hashes.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.disassembler import RecoveredBlock, RecoveredFunction, RecoveredProgram
from repro.analysis.emulator import EmulationError, run_function
from repro.analysis.features import extract_function_features, feature_distance
from repro.difftools.base import DiffTool, MatchResult
from repro.difftools.binhunt import block_match_score, canonical_block


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    import numpy as np
    denominator = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denominator == 0.0:
        return 1.0 if np.array_equal(a, b) else 0.0
    return float(np.dot(a, b) / denominator)


# ---------------------------------------------------------------------------
# BinDiff-style statistical matcher
# ---------------------------------------------------------------------------


class BinDiffMatcher(DiffTool):
    """Three-level statistical feature matching in the style of BinDiff."""

    name = "bindiff"

    def function_similarity(self, source_function, target_function, source, target) -> float:
        sf = extract_function_features(source_function)
        tf = extract_function_features(target_function)
        # Primary signal: (blocks, edges, calls) triple, BinDiff's classic key.
        triple_s = (sf.values["blocks"], sf.values["edges"], sf.values["calls_out"])
        triple_t = (tf.values["blocks"], tf.values["edges"], tf.values["calls_out"])
        exact_bonus = 0.3 if triple_s == triple_t else 0.0
        similarity = 1.0 - feature_distance(sf, tf)
        return min(1.0, 0.7 * similarity + exact_bonus)


# ---------------------------------------------------------------------------
# BinSlayer
# ---------------------------------------------------------------------------


class BinSlayer(DiffTool):
    """Hungarian-algorithm bipartite matching of basic blocks."""

    name = "binslayer"

    def _block_vector(self, block: RecoveredBlock) -> np.ndarray:
        import numpy as np
        counts = Counter(instr.name for _, instr in block.instructions)
        keys = ["add", "sub", "mul", "ld", "st", "ldx", "stx", "call", "jmp", "beqz",
                "bnez", "cmpeq", "cmplt", "movi", "movis", "mov", "ret", "select", "syscall"]
        vector = np.array([counts.get(key, 0) for key in keys] + [len(block)], dtype=float)
        return vector

    def function_similarity(self, source_function, target_function, source, target) -> float:
        source_blocks = [self._block_vector(b) for b in source_function.blocks.values()]
        target_blocks = [self._block_vector(b) for b in target_function.blocks.values()]
        if not source_blocks or not target_blocks:
            return 0.0
        if len(source_blocks) * len(target_blocks) > 20000:
            # Guard against quadratic blowup on huge functions.
            source_blocks = source_blocks[:140]
            target_blocks = target_blocks[:140]
        import numpy as np
        cost = np.zeros((len(source_blocks), len(target_blocks)))
        for i, sv in enumerate(source_blocks):
            for j, tv in enumerate(target_blocks):
                cost[i, j] = 1.0 - _cosine(sv, tv)
        # Imported at its one use: ~0.4 s no tuning process needs.
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
        matched_similarity = sum(1.0 - cost[r, c] for r, c in zip(rows, cols))
        # Normalize by the larger CFG so structural growth is penalized (graph
        # edit distance flavour).
        return matched_similarity / max(len(source_blocks), len(target_blocks))


# ---------------------------------------------------------------------------
# Asm2Vec
# ---------------------------------------------------------------------------


class Asm2Vec(DiffTool):
    """Lexical embedding of instruction token streams per function."""

    name = "asm2vec"
    dimensions = 128

    def _token_stream(self, function: RecoveredFunction) -> List[str]:
        tokens: List[str] = []
        for start in sorted(function.blocks):
            for _, instr in function.blocks[start].instructions:
                tokens.append(instr.name)
                for fmt, operand in zip(instr.spec.operands, instr.operands):
                    if fmt in ("r", "v"):
                        tokens.append(f"r{operand}")
                    elif abs(operand) < 4096:
                        tokens.append(f"#{operand}")
        return tokens

    def _embed(self, function: RecoveredFunction) -> np.ndarray:
        import numpy as np
        vector = np.zeros(self.dimensions)
        tokens = self._token_stream(function)
        for index, token in enumerate(tokens):
            slot = int(hashlib.blake2s(token.encode(), digest_size=4).hexdigest(), 16) % self.dimensions
            vector[slot] += 1.0
            if index + 1 < len(tokens):
                bigram = token + "|" + tokens[index + 1]
                slot = int(hashlib.blake2s(bigram.encode(), digest_size=4).hexdigest(), 16) % self.dimensions
                vector[slot] += 0.5
        return vector

    def function_similarity(self, source_function, target_function, source, target) -> float:
        return max(0.0, _cosine(self._embed(source_function), self._embed(target_function)))


# ---------------------------------------------------------------------------
# INNEREYE
# ---------------------------------------------------------------------------


class InnerEye(DiffTool):
    """Basic-block embedding alignment (neural machine translation analogy)."""

    name = "innereye"
    dimensions = 64

    def _block_embedding(self, block: RecoveredBlock) -> np.ndarray:
        import numpy as np
        vector = np.zeros(self.dimensions)
        for _, instr in block.instructions:
            token = instr.name
            slot = int(hashlib.blake2s(token.encode(), digest_size=4).hexdigest(), 16) % self.dimensions
            vector[slot] += 1.0
        return vector

    def function_similarity(self, source_function, target_function, source, target) -> float:
        source_blocks = [self._block_embedding(b) for b in source_function.blocks.values()]
        target_blocks = [self._block_embedding(b) for b in target_function.blocks.values()]
        if not source_blocks or not target_blocks:
            return 0.0
        total = 0.0
        for sv in source_blocks:
            total += max((_cosine(sv, tv) for tv in target_blocks), default=0.0)
        # Penalize block-count inflation (merged/split blocks lower the score).
        coverage = total / len(source_blocks)
        size_penalty = min(len(source_blocks), len(target_blocks)) / max(len(source_blocks), len(target_blocks))
        return coverage * (0.5 + 0.5 * size_penalty)


# ---------------------------------------------------------------------------
# VulSeeker
# ---------------------------------------------------------------------------


class VulSeeker(DiffTool):
    """CFG + data-flow numeric feature vectors per function."""

    name = "vulseeker"

    def _vector(self, function: RecoveredFunction) -> np.ndarray:
        import numpy as np
        features = extract_function_features(function)
        base = features.vector()
        # Add a crude data-flow dimension: counts of def-use instruction kinds.
        loads = features.values.get("mem", 0.0)
        moves = features.values.get("move", 0.0)
        arith = features.values.get("arith", 0.0)
        dfg = np.array([loads, moves, arith, loads + moves + arith])
        return np.concatenate([base, dfg])

    def function_similarity(self, source_function, target_function, source, target) -> float:
        return max(0.0, _cosine(self._vector(source_function), self._vector(target_function)))


# ---------------------------------------------------------------------------
# IMF-SIM
# ---------------------------------------------------------------------------


class IMFSim(DiffTool):
    """In-memory fuzzing: run both functions on shared random inputs."""

    name = "imf-sim"

    def __init__(self, samples: int = 6, seed: int = 1234, max_steps: int = 30_000) -> None:
        self.samples = samples
        self.seed = seed
        self.max_steps = max_steps
        self._behaviour_cache: Dict[Tuple[int, str], Tuple] = {}

    def compare_programs(self, source: RecoveredProgram, target: RecoveredProgram) -> MatchResult:
        # Pre-compute behaviour signatures once per function.
        self._behaviour_cache.clear()
        return super().compare_programs(source, target)

    def _argument_sets(self, arity_guess: int) -> List[List[int]]:
        rng = random.Random(self.seed)
        sets = []
        for _ in range(self.samples):
            sets.append([rng.randint(-64, 256) for _ in range(max(arity_guess, 1))])
        return sets

    def _behaviour(self, program: RecoveredProgram, function: RecoveredFunction) -> Tuple:
        key = (id(program), function.name)
        if key in self._behaviour_cache:
            return self._behaviour_cache[key]
        signature: List[Tuple] = []
        for args in self._argument_sets(3):
            try:
                result = run_function(program.image, function.name, args, max_steps=self.max_steps)
                signature.append((result.return_value % (1 << 32), len(result.output_text)))
            except EmulationError:
                signature.append(("fault", 0))
        behaviour = tuple(signature)
        self._behaviour_cache[key] = behaviour
        return behaviour

    def function_similarity(self, source_function, target_function, source, target) -> float:
        source_behaviour = self._behaviour(source, source_function)
        target_behaviour = self._behaviour(target, target_function)
        agreements = sum(1 for a, b in zip(source_behaviour, target_behaviour) if a == b)
        return agreements / max(len(source_behaviour), 1)


# ---------------------------------------------------------------------------
# CoP
# ---------------------------------------------------------------------------


class CoP(DiffTool):
    """Block-equivalence + longest common subsequence of block sequences."""

    name = "cop"

    def _block_sequence(self, function: RecoveredFunction) -> List[Tuple]:
        return [canonical_block(function.blocks[start], keep_registers=False)
                for start in sorted(function.blocks)]

    def function_similarity(self, source_function, target_function, source, target) -> float:
        left = self._block_sequence(source_function)
        right = self._block_sequence(target_function)
        if not left or not right:
            return 0.0
        if len(left) * len(right) > 40000:
            left, right = left[:200], right[:200]
        # Longest common subsequence over semantically equivalent blocks.
        previous = [0] * (len(right) + 1)
        for i in range(1, len(left) + 1):
            current = [0] * (len(right) + 1)
            for j in range(1, len(right) + 1):
                if left[i - 1] == right[j - 1]:
                    current[j] = previous[j - 1] + 1
                else:
                    current[j] = max(previous[j], current[j - 1])
            previous = current
        return previous[len(right)] / max(len(left), len(right))


# ---------------------------------------------------------------------------
# Multi-MH
# ---------------------------------------------------------------------------


class MultiMH(DiffTool):
    """Per-block I/O sampling signatures, approximated by canonical block hashes."""

    name = "multi-mh"

    def _signatures(self, function: RecoveredFunction) -> Counter:
        signatures: Counter = Counter()
        for block in function.blocks.values():
            digest = hashlib.blake2s(
                repr(canonical_block(block, keep_registers=False)).encode(), digest_size=8
            ).hexdigest()
            signatures[digest] += 1
        return signatures

    def function_similarity(self, source_function, target_function, source, target) -> float:
        source_signatures = self._signatures(source_function)
        target_signatures = self._signatures(target_function)
        if not source_signatures or not target_signatures:
            return 0.0
        intersection = sum((source_signatures & target_signatures).values())
        union = sum((source_signatures | target_signatures).values())
        return intersection / union if union else 0.0


#: Factory table used by the Figure 8 experiment.
ALL_TOOLS = {
    "BinDiff": BinDiffMatcher,
    "BinSlayer": BinSlayer,
    "Asm2Vec": Asm2Vec,
    "INNEREYE": InnerEye,
    "VulSeeker": VulSeeker,
    "IMF-SIM": IMFSim,
    "CoP": CoP,
    "Multi-MH": MultiMH,
}


def make_tool(name: str) -> DiffTool:
    """Instantiate a diffing tool by its display name."""
    try:
        return ALL_TOOLS[name]()
    except KeyError as exc:
        raise ValueError(f"unknown diffing tool {name!r}") from exc
