"""Helpers for duplicating IR fragments (inlining, unrolling, peeling).

Both function inlining and loop unrolling need to copy sets of basic blocks
while renaming temporaries (to preserve single assignment), block labels, and
optionally local variable slots.  This module centralizes that machinery.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.function import BasicBlock, IRFunction
from repro.ir.instructions import (
    AddrOf,
    Instruction,
    LoadVar,
    StoreVar,
)
from repro.ir.values import Value


class CloneNamer:
    """Generates fresh, collision-free names for cloned entities."""

    def __init__(self, function: IRFunction, tag: str) -> None:
        self.function = function
        self.tag = tag

    def temp_map(self, instructions: Iterable[Instruction]) -> Dict[Value, Value]:
        """Old temp -> fresh temp for every temp the instructions define.

        Built once per cloned region and handed to every
        :func:`rename_instruction` call of that region, where it doubles as
        the ``replace_uses`` substitution.
        """
        mapping: Dict[Value, Value] = {}
        for instr in instructions:
            for temp in instr.defs():
                if temp not in mapping:
                    mapping[temp] = self.function.new_temp(f"{self.tag}_")
        return mapping

    def label_map(self, labels: Iterable[str]) -> Dict[str, str]:
        return {label: self.function.new_label(f"{label}.{self.tag}") for label in labels}


def rename_instruction(
    instr: Instruction,
    temp_map: Dict[Value, Value],
    label_map: Optional[Dict[str, str]] = None,
    var_map: Optional[Dict[str, str]] = None,
) -> Instruction:
    """Clone ``instr`` applying temp, label and variable-slot renamings."""
    clone = instr.clone()
    # Rewrite the defined temp, then the used ones.
    dest = getattr(clone, "dest", None)
    if dest is not None and dest in temp_map:
        clone.dest = temp_map[dest]
    clone.replace_uses(temp_map)
    if label_map:
        clone.retarget(label_map)
    if var_map:
        if isinstance(clone, (LoadVar, AddrOf, StoreVar)) and clone.var in var_map:
            clone.var = var_map[clone.var]
    return clone


def clone_blocks(
    function: IRFunction,
    labels: List[str],
    tag: str,
    var_map: Optional[Dict[str, str]] = None,
    exit_retarget: Optional[Dict[str, str]] = None,
) -> Tuple[Dict[str, str], List[BasicBlock]]:
    """Clone the blocks named by ``labels`` inside ``function``.

    Returns the label mapping (old -> new) and the new blocks (already added
    to the function).  Branches to labels *outside* the cloned set are left
    unchanged unless ``exit_retarget`` supplies a mapping for them.
    """
    namer = CloneNamer(function, tag)
    all_instructions = [
        instr for label in labels for instr in function.blocks[label].instructions
    ]
    temp_map = namer.temp_map(all_instructions)
    label_map = namer.label_map(labels)
    effective_label_map = dict(label_map)
    if exit_retarget:
        for old, new in exit_retarget.items():
            effective_label_map.setdefault(old, new)
    new_blocks: List[BasicBlock] = []
    for label in labels:
        source = function.blocks[label]
        block = function.add_block(label_map[label])
        block.align = source.align
        for instr in source.instructions:
            block.append(rename_instruction(instr, temp_map, effective_label_map, var_map))
        new_blocks.append(block)
    return label_map, new_blocks
