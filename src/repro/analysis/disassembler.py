"""Disassembly and structure recovery (the IDA Pro stand-in).

Given a linked :class:`BinaryImage`, the disassembler decodes every function's
byte range, splits it into basic blocks at branch targets, reconstructs the
intra-procedural CFG (including indirect jumps through jump tables, recovered
by scanning ``.rodata`` for code addresses that fall inside the function), and
builds the inter-procedural call graph.

Diffing tools consume the recovered structures only — never the IR — so the
pipeline "compile, strip to bytes, recover, compare" matches how the paper's
tools operate on real binaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.backend.binary import BinaryImage, Symbol
from repro.backend.isa import MachInstr, decode_stream


@dataclass
class RecoveredBlock:
    """A recovered basic block: [start, end) byte range in .text."""

    start: int
    end: int
    instructions: List[Tuple[int, MachInstr]] = field(default_factory=list)
    successors: List[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.end - self.start

    def mnemonics(self) -> List[str]:
        return [instr.name for _, instr in self.instructions]

    def raw_bytes(self, text: bytes) -> bytes:
        return text[self.start : self.end]

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class RecoveredFunction:
    """A recovered function with its CFG."""

    name: str
    start: int
    end: int
    blocks: Dict[int, RecoveredBlock] = field(default_factory=dict)
    calls: List[int] = field(default_factory=list)
    tail_calls: List[int] = field(default_factory=list)
    syscalls: List[int] = field(default_factory=list)

    @property
    def entry(self) -> int:
        return self.start

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def edge_count(self) -> int:
        return sum(len(block.successors) for block in self.blocks.values())

    @property
    def instruction_count(self) -> int:
        return sum(len(block) for block in self.blocks.values())

    def cfg(self) -> "nx.DiGraph":
        import networkx as nx  # at its use: ~0.1 s no tuning process needs

        graph = nx.DiGraph()
        for start, block in self.blocks.items():
            graph.add_node(start, size=block.size, instructions=len(block))
        for start, block in self.blocks.items():
            for successor in block.successors:
                if successor in self.blocks:
                    graph.add_edge(start, successor)
        return graph

    def mnemonic_sequence(self) -> List[str]:
        out: List[str] = []
        for start in sorted(self.blocks):
            out.extend(self.blocks[start].mnemonics())
        return out


@dataclass
class RecoveredProgram:
    """All recovered functions plus the call graph of an image."""

    image: BinaryImage
    functions: Dict[str, RecoveredFunction] = field(default_factory=dict)

    def function_names(self) -> List[str]:
        return list(self.functions)

    def non_library_functions(self) -> List[RecoveredFunction]:
        return list(self.functions.values())

    def total_blocks(self) -> int:
        return sum(fn.block_count for fn in self.functions.values())

    def total_edges(self) -> int:
        return sum(fn.edge_count for fn in self.functions.values())

    def call_graph(self) -> "nx.DiGraph":
        import networkx as nx

        graph = nx.DiGraph()
        by_offset = {fn.start: name for name, fn in self.functions.items()}
        for name in self.functions:
            graph.add_node(name)
        for name, fn in self.functions.items():
            for target in fn.calls + fn.tail_calls:
                callee = by_offset.get(target)
                if callee is None:
                    containing = self.image.function_at(target)
                    callee = containing.name if containing else None
                if callee is not None:
                    graph.add_edge(name, callee)
        return graph


class Disassembler:
    """Recovers functions, basic blocks, CFGs and the call graph."""

    def __init__(self, image: BinaryImage) -> None:
        self.image = image
        self.text = image.text
        self._rodata_code_addresses = self._collect_rodata_code_addresses()

    def _collect_rodata_code_addresses(self) -> List[int]:
        """Words in .rodata that look like code addresses (jump-table entries)."""
        addresses: List[int] = []
        rodata = self.image.rodata
        for index in range(len(rodata) // 8):
            value = struct.unpack_from("<q", rodata, index * 8)[0]
            if 0 <= value < len(self.text):
                addresses.append(value)
        return addresses

    # -- function recovery -----------------------------------------------------

    def disassemble(self) -> RecoveredProgram:
        program = RecoveredProgram(image=self.image)
        for symbol in self.image.function_symbols():
            program.functions[symbol.name] = self._recover_function(symbol)
        return program

    def _recover_function(self, symbol: Symbol) -> RecoveredFunction:
        start, end = symbol.offset, symbol.offset + symbol.size
        decoded = decode_stream(self.text, start, end)
        by_offset = {offset: instr for offset, instr in decoded}
        sizes = {offset: instr.size for offset, instr in decoded}

        leaders: Set[int] = {start}
        calls: List[int] = []
        tail_calls: List[int] = []
        syscalls: List[int] = []
        for offset, instr in decoded:
            next_offset = offset + instr.size
            if instr.name in ("jmp", "beqz", "bnez"):
                relative = instr.operands[-1]
                target = next_offset + relative
                if start <= target < end:
                    leaders.add(target)
                if next_offset < end:
                    leaders.add(next_offset)
            elif instr.name in ("ret", "hlt", "ijmp", "tcall"):
                if next_offset < end:
                    leaders.add(next_offset)
                if instr.name == "tcall":
                    tail_calls.append(instr.operands[0])
            elif instr.name == "call":
                calls.append(instr.operands[0])
            elif instr.name == "syscall":
                syscalls.append(instr.operands[0])
        for address in self._rodata_code_addresses:
            if start <= address < end:
                leaders.add(address)

        ordered_leaders = sorted(leaders)
        function = RecoveredFunction(
            name=symbol.name,
            start=start,
            end=end,
            calls=calls,
            tail_calls=tail_calls,
            syscalls=syscalls,
        )
        for index, leader in enumerate(ordered_leaders):
            block_end = ordered_leaders[index + 1] if index + 1 < len(ordered_leaders) else end
            block = RecoveredBlock(start=leader, end=block_end)
            offset = leader
            while offset < block_end and offset in by_offset:
                block.instructions.append((offset, by_offset[offset]))
                offset += sizes[offset]
            block.end = offset if block.instructions else block_end
            function.blocks[leader] = block

        self._connect_blocks(function, end)
        return function

    def _connect_blocks(self, function: RecoveredFunction, end: int) -> None:
        block_starts = sorted(function.blocks)
        for leader, block in function.blocks.items():
            if not block.instructions:
                continue
            last_offset, last = block.instructions[-1]
            fall_through = last_offset + last.size
            successors: List[int] = []
            if last.name == "jmp":
                successors.append(fall_through + last.operands[0])
            elif last.name in ("beqz", "bnez"):
                successors.append(fall_through + last.operands[1])
                if fall_through < end:
                    successors.append(fall_through)
            elif last.name in ("ret", "hlt", "tcall"):
                pass
            elif last.name == "ijmp":
                successors.extend(
                    address
                    for address in self._rodata_code_addresses
                    if function.start <= address < function.end
                )
            else:
                if fall_through < end:
                    successors.append(fall_through)
            seen: Set[int] = set()
            for successor in successors:
                if successor in function.blocks and successor not in seen:
                    seen.add(successor)
                    block.successors.append(successor)


def disassemble(image: BinaryImage) -> RecoveredProgram:
    """Convenience wrapper around :class:`Disassembler`."""
    return Disassembler(image).disassemble()
