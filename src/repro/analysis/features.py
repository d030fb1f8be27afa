"""Statistical per-function features over recovered binaries.

These descriptive numeric features are the common currency of the scalable
diffing approaches the paper surveys (§3.2): numbers of blocks, edges, calls,
transfer instructions, arithmetic instructions, and so on.  Several of the
re-implemented tools (BinDiff-like matching, VulSeeker, Multi-MH's block
signatures, the provenance classifier, the anti-virus feature scanners) share
this module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.disassembler import RecoveredFunction, RecoveredProgram

#: Instruction categories used for the numeric feature vectors.
CATEGORIES: Dict[str, str] = {
    "add": "arith", "sub": "arith", "mul": "arith", "div": "arith", "mod": "arith",
    "addi": "arith", "subi": "arith", "muli": "arith", "neg": "arith",
    "and": "logic", "or": "logic", "xor": "logic", "shl": "logic", "shr": "logic",
    "andi": "logic", "ori": "logic", "xori": "logic", "shli": "logic", "shri": "logic",
    "bnot": "logic", "not": "logic",
    "cmpeq": "cmp", "cmpne": "cmp", "cmplt": "cmp", "cmple": "cmp",
    "cmpgt": "cmp", "cmpge": "cmp", "select": "cmp",
    "ld": "mem", "st": "mem", "ldx": "mem", "stx": "mem", "ldg": "mem",
    "stg": "mem", "leag": "mem", "leas": "mem",
    "jmp": "transfer", "beqz": "transfer", "bnez": "transfer", "ijmp": "transfer",
    "call": "call", "tcall": "call", "syscall": "call", "ret": "transfer",
    "movi": "move", "movis": "move", "mov": "move",
    "vld": "vector", "vst": "vector", "vadd": "vector", "vsub": "vector", "vmul": "vector",
    "spadd": "stack", "nop": "nop", "hlt": "transfer",
}

FEATURE_NAMES = [
    "blocks",
    "edges",
    "instructions",
    "bytes",
    "arith",
    "logic",
    "cmp",
    "mem",
    "transfer",
    "call",
    "move",
    "vector",
    "stack",
    "nop",
    "constants",
    "calls_out",
    "loops",
    "max_block_size",
]


@dataclass
class FunctionFeatures:
    """A numeric feature vector describing one recovered function."""

    name: str
    values: Dict[str, float] = field(default_factory=dict)

    def vector(self) -> np.ndarray:
        # numpy is imported at its uses: ``repro.analysis`` imports this
        # module into every tuner, worker and ``serve`` process, and none
        # of them computes a feature vector (~0.1 s and ~12 MiB each).
        import numpy as np
        return np.array([self.values.get(key, 0.0) for key in FEATURE_NAMES], dtype=float)

    def normalized(self) -> np.ndarray:
        import numpy as np
        vector = self.vector()
        norm = np.linalg.norm(vector)
        return vector / norm if norm else vector


def extract_function_features(function: RecoveredFunction) -> FunctionFeatures:
    """Compute the feature vector of a recovered function."""
    counts: Counter = Counter()
    constants = 0
    for block in function.blocks.values():
        for _, instr in block.instructions:
            counts[CATEGORIES.get(instr.name, "other")] += 1
            if instr.name in ("movi", "movis"):
                constants += 1
    cfg = function.cfg()
    try:
        loop_count = sum(1 for _ in __import__("networkx").simple_cycles(cfg)) if function.block_count <= 40 else _back_edge_count(function)
    except Exception:
        loop_count = _back_edge_count(function)
    features = {
        "blocks": float(function.block_count),
        "edges": float(function.edge_count),
        "instructions": float(function.instruction_count),
        "bytes": float(function.end - function.start),
        "constants": float(constants),
        "calls_out": float(len(function.calls) + len(function.tail_calls) + len(function.syscalls)),
        "loops": float(loop_count),
        "max_block_size": float(max((len(b) for b in function.blocks.values()), default=0)),
    }
    for category in ("arith", "logic", "cmp", "mem", "transfer", "call", "move", "vector", "stack", "nop"):
        features[category] = float(counts.get(category, 0))
    return FunctionFeatures(name=function.name, values=features)


def _back_edge_count(function: RecoveredFunction) -> int:
    """Cheap loop estimate: edges that target an earlier (dominating-ish) block."""
    count = 0
    for start, block in function.blocks.items():
        for successor in block.successors:
            if successor <= start:
                count += 1
    return count


def extract_program_features(program: RecoveredProgram) -> Dict[str, FunctionFeatures]:
    """Feature vectors for every recovered function."""
    return {
        name: extract_function_features(function)
        for name, function in program.functions.items()
    }


def feature_distance(left: FunctionFeatures, right: FunctionFeatures) -> float:
    """Cosine distance between two normalized feature vectors (0 = identical)."""
    a = left.normalized()
    b = right.normalized()
    similarity = float(a.dot(b))
    return 1.0 - max(min(similarity, 1.0), -1.0)
