"""Linear-scan register allocation for IR temporaries.

Temporaries are single-assignment, so each one has a simple live interval:
from the first position where it is defined or used to the last, measured over
the function's linearized instruction order (layout order of blocks).  The
allocator hands out the callee-window registers ``r7``..``r14``; temporaries
that do not fit are spilled to stack slots, which the code generator folds
into the frame.

When allocation is disabled (``-O0``-style code generation) every temporary is
spilled, which reproduces the boilerplate load/compute/store rhythm that makes
unoptimized binaries so compressible (the paper's observation in §4.2 about O0
code regularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.function import IRFunction
from repro.ir.instructions import VecBinOp, VecLoad, VecStore
from repro.ir.values import Temp

#: General registers available to hold temporaries.
TEMP_REGISTERS: Tuple[int, ...] = (7, 8, 9, 10, 11, 12, 13, 14)


@dataclass
class RegisterAssignment:
    """Result of register allocation for one function."""

    #: temp name -> register index
    registers: Dict[str, int] = field(default_factory=dict)
    #: temp name -> spill slot ordinal (frame offsets assigned by codegen)
    spills: Dict[str, int] = field(default_factory=dict)
    #: vector temp name -> vector register index
    vector_registers: Dict[str, int] = field(default_factory=dict)

    def location(self, temp_name: str) -> Tuple[str, int]:
        """Return ("reg", r) or ("spill", slot) for a temporary."""
        if temp_name in self.registers:
            return "reg", self.registers[temp_name]
        if temp_name in self.spills:
            return "spill", self.spills[temp_name]
        raise KeyError(temp_name)

    def spill_count(self) -> int:
        return len(self.spills)


def _linearize(function: IRFunction) -> List:
    instructions = []
    for block in function.iter_blocks():
        instructions.extend(block.instructions)
    return instructions


def _live_intervals(function: IRFunction) -> Dict[str, Tuple[int, int]]:
    """Map temp name -> (first position, last position) over the linear order.

    Temporaries whose uses span basic blocks get the whole-function interval:
    with arbitrary block layouts (inlining, reordering, unrolling) a purely
    positional interval can miss layout positions the value is live across,
    which would let the allocator clobber it.  Block-local temps — the vast
    majority — keep their tight intervals.
    """
    intervals: Dict[str, List[int]] = {}  # name -> [first, last], updated in place
    defining_block: Dict[str, str] = {}
    # name -> the one block that uses it, or None once a second block does
    using_block: Dict[str, Optional[str]] = {}
    position = 0
    for block in function.iter_blocks():
        label = block.label
        for instr in block.instructions:
            for temp in instr.defs():
                name = temp.name
                defining_block.setdefault(name, label)
                if name in intervals:
                    intervals[name][1] = position
                else:
                    intervals[name] = [position, position]
            for value in instr.uses():
                if isinstance(value, Temp):
                    name = value.name
                    if name in intervals:
                        intervals[name][1] = position
                    else:
                        intervals[name] = [position, position]
                    if using_block.setdefault(name, label) != label:
                        using_block[name] = None
            position += 1
    # A temp used outside its defining block (wherever that sits in the
    # layout) is live across the whole function.
    for name, label in using_block.items():
        if defining_block.get(name, label) != label:
            intervals[name] = [0, position]
    return {name: (first, last) for name, (first, last) in intervals.items()}


def _vector_temps(function: IRFunction) -> List[str]:
    return [
        instr.dest.name
        for block in function.blocks.values()
        for instr in block.instructions
        if isinstance(instr, (VecLoad, VecBinOp))
    ]


def allocate_registers(function: IRFunction, enable: bool = True) -> RegisterAssignment:
    """Allocate registers for ``function``'s temporaries.

    With ``enable=False`` all scalar temporaries are spilled (O0-style).
    Vector temporaries always receive vector registers (round-robin; the
    vectorizer keeps at most a handful live at once).
    """
    assignment = RegisterAssignment()
    vector_names = set(_vector_temps(function))
    for index, name in enumerate(sorted(vector_names)):
        assignment.vector_registers[name] = index % 8

    intervals = {
        name: interval
        for name, interval in _live_intervals(function).items()
        if name not in vector_names
    }
    if not enable:
        for slot, name in enumerate(sorted(intervals)):
            assignment.spills[name] = slot
        return assignment

    # Standard linear scan (Poletto & Sarkar): sweep intervals by start point,
    # expire finished intervals, spill the interval with the furthest end when
    # no register is free.
    ordered = sorted(intervals.items(), key=lambda item: (item[1][0], item[1][1]))
    free = list(TEMP_REGISTERS)
    active: List[Tuple[int, str]] = []  # (end position, temp name)
    spill_slots = 0

    for name, (start, end) in ordered:
        # ``active`` is sorted by end position: nothing expires unless its head does.
        if active and active[0][0] < start:
            active = [entry for entry in active if not _expire(entry, start, assignment, free)]
        if free:
            register = free.pop(0)
            assignment.registers[name] = register
            active.append((end, name))
            active.sort()
        else:
            furthest_end, furthest_name = active[-1]
            if furthest_end > end:
                # Steal the register from the interval that ends last.
                register = assignment.registers.pop(furthest_name)
                assignment.spills[furthest_name] = spill_slots
                spill_slots += 1
                assignment.registers[name] = register
                active.pop()
                active.append((end, name))
                active.sort()
            else:
                assignment.spills[name] = spill_slots
                spill_slots += 1
    return assignment


def _expire(
    entry: Tuple[int, str],
    position: int,
    assignment: RegisterAssignment,
    free: List[int],
) -> bool:
    end, name = entry
    if end < position:
        register = assignment.registers.get(name)
        if register is not None and register not in free:
            free.append(register)
            free.sort()
        return True
    return False
