"""Static linker: lays out function code and global data into a BinaryImage.

The linker performs the final address assignment:

* functions are placed sequentially in ``.text`` (honouring per-function
  alignment), and alignment padding requested for loop headers is inserted as
  ``nop`` bytes;
* global variables (and interned strings) are placed word-by-word in
  ``.data``; switch jump tables are placed in ``.rodata`` as arrays of
  absolute code addresses;
* every symbolic operand (branch label, callee, data symbol, jump table) is
  resolved and patched before instructions are encoded.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence

from repro.backend.binary import GLOBAL_BASE, BinaryImage, Symbol
from repro.backend.codegen import CodegenOptions, FunctionCode, generate_function
from repro.backend.isa import MachInstr, encode_instruction
from repro.ir.function import IRModule


class LinkError(Exception):
    """Raised when a symbol cannot be resolved during linking."""


def _align_up(value: int, alignment: int) -> int:
    if alignment <= 1:
        return value
    remainder = value % alignment
    return value if remainder == 0 else value + (alignment - remainder)


class _Layout:
    """Mutable state while laying out one link unit."""

    def __init__(self) -> None:
        self.function_offsets: Dict[str, int] = {}
        self.function_sizes: Dict[str, int] = {}
        # (function name, label) -> absolute byte offset
        self.label_offsets: Dict[tuple, int] = {}
        # per-function: instruction index -> absolute byte offset
        self.instruction_offsets: Dict[str, List[int]] = {}
        # per-function: instruction index -> padding nops inserted before it
        self.padding_before: Dict[str, Dict[int, int]] = {}
        self.data_addresses: Dict[str, int] = {}
        self.table_addresses: Dict[str, int] = {}


def link_module(
    module: IRModule,
    codes: Optional[Sequence[FunctionCode]] = None,
    options: Optional[CodegenOptions] = None,
    name: Optional[str] = None,
    metadata: Optional[Dict[str, str]] = None,
) -> BinaryImage:
    """Generate (if needed) and link a module into a :class:`BinaryImage`."""
    options = options or CodegenOptions()
    if codes is None:
        codes = [generate_function(fn, options) for fn in module.functions.values()]
    layout = _Layout()

    # ---- pass 1: assign .text offsets ------------------------------------
    offset = 0
    for code in codes:
        offset = _align_up(offset, code.align)
        layout.function_offsets[code.name] = offset
        offsets: List[int] = []
        padding: Dict[int, int] = {}
        # instruction index -> strictest alignment requested by a label there
        alignments: Dict[int, int] = {}
        for label, alignment in code.block_aligns.items():
            index = code.label_positions.get(label)
            if index is not None and alignment > alignments.get(index, 1):
                alignments[index] = alignment
        for index, instr in enumerate(code.instructions):
            if index in alignments:
                aligned = _align_up(offset, alignments[index])
                if aligned != offset:
                    padding[index] = aligned - offset
                    offset = aligned
            offsets.append(offset)
            offset += instr.size
        layout.instruction_offsets[code.name] = offsets
        layout.padding_before[code.name] = padding
        layout.function_sizes[code.name] = offset - layout.function_offsets[code.name]
        end_offset = offset
        for label, index in code.label_positions.items():
            if index < len(offsets):
                layout.label_offsets[(code.name, label)] = offsets[index]
            else:
                layout.label_offsets[(code.name, label)] = end_offset

    # ---- pass 2: assign data addresses ------------------------------------
    data_words: List[int] = []
    for data in module.globals.values():
        layout.data_addresses[data.name] = GLOBAL_BASE + len(data_words)
        values = list(data.init) + [0] * (data.size - len(data.init))
        data_words.extend(values[: max(data.size, len(data.init))])
    rodata_base = GLOBAL_BASE + len(data_words)
    rodata_words: List[int] = []
    for code in codes:
        for table_name, targets in code.jump_tables.items():
            layout.table_addresses[table_name] = rodata_base + len(rodata_words)
            for label in targets:
                key = (code.name, label)
                if key not in layout.label_offsets:
                    raise LinkError(f"jump table target {label!r} missing in {code.name}")
                rodata_words.append(layout.label_offsets[key])

    # ---- pass 3: patch and encode ------------------------------------------
    text = bytearray()
    for code in codes:
        # nop (0x00) padding between functions and before aligned blocks
        text += bytes(layout.function_offsets[code.name] - len(text))
        offsets = layout.instruction_offsets[code.name]
        padding = layout.padding_before[code.name]
        for index, instr in enumerate(code.instructions):
            if index in padding:
                text += bytes(padding[index])
            if instr.target is not None or instr.symbol is not None:
                _patch_instruction(instr, code, offsets[index], layout)
            text += encode_instruction(instr)

    data_bytes = bytearray()
    for word in data_words:
        wrapped = word & ((1 << 64) - 1)
        if wrapped >= 1 << 63:
            wrapped -= 1 << 64
        data_bytes += struct.pack("<q", wrapped)
    rodata_bytes = bytearray()
    for word in rodata_words:
        rodata_bytes += struct.pack("<q", word)

    image = BinaryImage(name=name or module.name)
    image.set_section(".text", bytes(text))
    image.set_section(".data", bytes(data_bytes))
    image.set_section(".rodata", bytes(rodata_bytes))
    image.metadata = dict(metadata or {})
    image.metadata["rodata_base"] = str(rodata_base)

    for code in codes:
        image.symbols.append(
            Symbol(
                name=code.name,
                section=".text",
                offset=layout.function_offsets[code.name],
                size=layout.function_sizes[code.name],
                kind="func",
                is_static=code.is_static,
            )
        )
    for data in module.globals.values():
        image.symbols.append(
            Symbol(
                name=data.name,
                section=".data",
                offset=layout.data_addresses[data.name],
                size=data.size,
                kind="object",
            )
        )
    for table_name, address in layout.table_addresses.items():
        image.symbols.append(
            Symbol(name=table_name, section=".rodata", offset=address, size=0, kind="table")
        )
    if "main" in layout.function_offsets:
        image.entry_point = layout.function_offsets["main"]
    return image


def _patch_instruction(
    instr: MachInstr,
    code: FunctionCode,
    instr_offset: int,
    layout: _Layout,
) -> None:
    """Resolve the symbolic branch/call target and data symbol of ``instr``."""
    if instr.target is not None:
        if instr.name in ("jmp",):
            target = _resolve_label(code, instr.target, layout)
            instr.operands[0] = target - (instr_offset + instr.size)
        elif instr.name in ("beqz", "bnez"):
            target = _resolve_label(code, instr.target, layout)
            instr.operands[1] = target - (instr_offset + instr.size)
        elif instr.name in ("call", "tcall"):
            if instr.target not in layout.function_offsets:
                raise LinkError(f"unresolved call target {instr.target!r}")
            instr.operands[0] = layout.function_offsets[instr.target]
        else:  # pragma: no cover - defensive
            raise LinkError(f"unexpected symbolic target on {instr.name}")
    if instr.symbol is not None:
        address = _resolve_data_symbol(instr.symbol, layout)
        if instr.name in ("leag", "ldg"):
            instr.operands[1] = address
        elif instr.name == "stg":
            instr.operands[0] = address
        else:  # pragma: no cover - defensive
            raise LinkError(f"unexpected data symbol on {instr.name}")


def _resolve_label(code: FunctionCode, label: str, layout: _Layout) -> int:
    key = (code.name, label)
    if key not in layout.label_offsets:
        raise LinkError(f"unresolved branch target {label!r} in {code.name}")
    return layout.label_offsets[key]


def _resolve_data_symbol(symbol: str, layout: _Layout) -> int:
    if symbol in layout.data_addresses:
        return layout.data_addresses[symbol]
    if symbol in layout.table_addresses:
        return layout.table_addresses[symbol]
    if symbol in layout.function_offsets:
        return layout.function_offsets[symbol]
    raise LinkError(f"unresolved data symbol {symbol!r}")
