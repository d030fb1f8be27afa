"""BinComp-style compiler provenance recovery.

Figure 1(a) needs per-sample provenance labels (compiler family + whether a
default ``-Ox`` level was used).  BinComp (Rahimian et al., 2015) recovers
provenance with stratified features over the binary; here a nearest-centroid
classifier over program-level opcode/section statistics is trained on labelled
compilations generated by the simulated compilers and then applied to unseen
samples.  The classifier never reads the image's ground-truth metadata.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.disassembler import disassemble
from repro.backend.binary import BinaryImage

_OPCODES_OF_INTEREST = [
    "movi", "movis", "mov", "add", "addi", "sub", "subi", "mul", "muli", "div",
    "shl", "shli", "shr", "shri", "and", "or", "xor", "cmpeq", "cmpne", "cmplt",
    "cmple", "cmpgt", "cmpge", "ld", "st", "ldx", "stx", "ldg", "stg", "leag",
    "leas", "jmp", "beqz", "bnez", "call", "tcall", "ret", "ijmp", "syscall",
    "select", "spadd", "vld", "vst", "vadd", "vmul", "nop",
]


@dataclass(frozen=True)
class ProvenanceLabel:
    """A provenance verdict."""

    compiler_family: str
    setting: str  # "default" (one of the -Ox presets) or "non-default"

    def __str__(self) -> str:
        return f"{self.compiler_family}/{self.setting}"


def _feature_vector(image: BinaryImage) -> np.ndarray:
    import numpy as np
    program = disassemble(image)
    counts: Counter = Counter()
    total = 0
    block_count = 0
    edge_count = 0
    for function in program.functions.values():
        block_count += function.block_count
        edge_count += function.edge_count
        for block in function.blocks.values():
            for _, instr in block.instructions:
                counts[instr.name] += 1
                total += 1
    total = max(total, 1)
    histogram = np.array([counts.get(name, 0) / total for name in _OPCODES_OF_INTEREST])
    shape = np.array(
        [
            len(program.functions),
            block_count / max(len(program.functions), 1),
            edge_count / max(block_count, 1),
            image.code_size() / 1024.0,
            len(image.data) / 1024.0,
        ]
    )
    return np.concatenate([histogram, shape])


class BinComp:
    """Nearest-centroid provenance classifier."""

    def __init__(self) -> None:
        self._centroids: Dict[ProvenanceLabel, np.ndarray] = {}
        self._samples: Dict[ProvenanceLabel, List[np.ndarray]] = {}

    def fit(self, labelled_images: Sequence[Tuple[BinaryImage, ProvenanceLabel]]) -> None:
        """Train on images whose provenance is known (generated from source)."""
        import numpy as np
        self._samples.clear()
        for image, label in labelled_images:
            self._samples.setdefault(label, []).append(_feature_vector(image))
        self._centroids = {
            label: np.mean(np.stack(vectors), axis=0)
            for label, vectors in self._samples.items()
        }

    def predict(self, image: BinaryImage) -> ProvenanceLabel:
        if not self._centroids:
            raise RuntimeError("BinComp.predict called before fit")
        import numpy as np
        vector = _feature_vector(image)
        best_label: Optional[ProvenanceLabel] = None
        best_distance = float("inf")
        for label, centroid in self._centroids.items():
            distance = float(np.linalg.norm(vector - centroid))
            if distance < best_distance:
                best_distance = distance
                best_label = label
        assert best_label is not None
        return best_label

    def accuracy(self, labelled_images: Sequence[Tuple[BinaryImage, ProvenanceLabel]]) -> float:
        if not labelled_images:
            return 0.0
        correct = sum(
            1 for image, label in labelled_images if self.predict(image) == label
        )
        return correct / len(labelled_images)
