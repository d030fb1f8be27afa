"""Dataflow analyses over the IR.

The passes only need lightweight analyses: temp def/use maps, per-block
variable liveness (for dead store elimination and if-conversion safety), and
block-local reaching constant information (used by constant propagation).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.ir.function import IRFunction
from repro.ir.instructions import Instruction, LoadVar, StoreVar
from repro.ir.values import Temp, Value
from repro.ir import cfg


def temp_definitions(function: IRFunction) -> Dict[str, Tuple[str, int]]:
    """Map temp name -> (block label, instruction index) of its definition."""
    defs: Dict[str, Tuple[str, int]] = {}
    for label, block in function.blocks.items():
        for index, instr in enumerate(block.instructions):
            for temp in instr.defs():
                defs[temp.name] = (label, index)
    return defs


def temp_uses(function: IRFunction) -> Dict[str, int]:
    """Map temp name -> number of uses across the function."""
    uses: Dict[str, int] = {}
    for block in function.blocks.values():
        for instr in block.instructions:
            for value in instr.uses():
                if isinstance(value, Temp):
                    uses[value.name] = uses.get(value.name, 0) + 1
    return uses


def used_temps(function: IRFunction) -> Set[str]:
    return set(temp_uses(function))


def defined_temps(function: IRFunction) -> Set[str]:
    return set(temp_definitions(function))


def _var_accesses(instr: Instruction) -> Tuple[Set[str], Set[str]]:
    """Return (vars read, vars written) for scalar variable slots."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    if isinstance(instr, LoadVar):
        reads.add(instr.var)
    elif isinstance(instr, StoreVar):
        writes.add(instr.var)
    return reads, writes


def block_var_use_def(function: IRFunction) -> Dict[str, Tuple[Set[str], Set[str]]]:
    """Per block: (vars read before written, vars written) for scalar slots."""
    result: Dict[str, Tuple[Set[str], Set[str]]] = {}
    for label, block in function.blocks.items():
        upward: Set[str] = set()
        written: Set[str] = set()
        for instr in block.instructions:
            reads, writes = _var_accesses(instr)
            upward |= reads - written
            written |= writes
        result[label] = (upward, written)
    return result


def block_liveness(function: IRFunction) -> Dict[str, Set[str]]:
    """Live scalar variables at the *exit* of each block (backward dataflow)."""
    use_def = block_var_use_def(function)
    succs = cfg.successors_map(function)
    live_in: Dict[str, Set[str]] = {label: set() for label in function.blocks}
    live_out: Dict[str, Set[str]] = {label: set() for label in function.blocks}
    changed = True
    while changed:
        changed = False
        for label in function.blocks:
            use, define = use_def[label]
            out = set()
            for succ in succs[label]:
                if succ in live_in:
                    out |= live_in[succ]
            new_in = use | (out - define)
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_out
