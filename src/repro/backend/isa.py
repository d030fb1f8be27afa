"""The SIM64 instruction set: opcodes, operand formats, encode/decode.

SIM64 is a 64-bit, word-addressed-data / byte-addressed-code machine with
sixteen general registers (``r0``..``r15``; ``r15`` is the stack pointer) and
eight 4-lane vector registers (``v0``..``v7``).

ABI (the "register window" convention used by all generated code):

* arguments in ``r1``..``r6``, return value in ``r0``;
* ``CALL`` saves registers ``r7``..``r14`` and the return address on an
  emulator-internal control stack; ``RET`` restores them, so temporaries held
  in ``r7``..``r14`` survive calls without explicit spills;
* ``TCALL`` transfers to another function without pushing a frame (proper
  tail call): the callee's ``RET`` returns to the original caller;
* builtin library routines are invoked with ``SYSCALL``.

Every instruction encodes to ``opcode byte + operand bytes``; several
operations exist in both register/long-immediate and short-immediate forms so
that instruction selection choices show up as byte-level differences (which is
what NCD, the paper's fitness function, measures).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Stack pointer register index.
SP = 15

#: Human-readable register names.
REG_NAMES = {i: f"r{i}" for i in range(15)}
REG_NAMES[SP] = "sp"

#: Operand format characters and their ``struct`` codes (all little-endian):
#:   r  - general register (1 byte)
#:   v  - vector register (1 byte)
#:   i16 - signed 16-bit immediate
#:   i32 - signed 32-bit immediate
#:   i64 - signed 64-bit immediate
#:   u8  - unsigned 8-bit immediate
_STRUCT_CODES = {"r": "B", "v": "B", "i16": "h", "i32": "i", "i64": "q", "u8": "B"}

#: Formats whose value must lie in ``[low, high]``, and the error otherwise.
#: ``v`` and ``u8`` operands are truncated to a byte instead; ``i64`` is left
#: to ``struct``.
_OPERAND_BOUNDS = {
    "r": (0, 15, "register index out of range: {}"),
    "i16": (-(1 << 15), (1 << 15) - 1, "immediate does not fit in 16 bits: {}"),
    "i32": (-(1 << 31), (1 << 31) - 1, "immediate does not fit in 32 bits: {}"),
}


@dataclass(frozen=True)
class OpcodeSpec:
    """Static description of one opcode."""

    code: int
    name: str
    operands: Tuple[str, ...]
    #: Abstract latency in cycles, used by the cost model (Table 3).
    cycles: int = 1
    #: Byte layout of the whole instruction: opcode byte, then the operands.
    layout: struct.Struct = field(init=False, repr=False, compare=False)
    #: Encoded size in bytes.
    size: int = field(init=False, repr=False, compare=False)
    #: (operand index, low, high, error template) per range-checked operand.
    checked: Tuple[Tuple[int, int, int, str], ...] = field(init=False, repr=False, compare=False)
    #: Indices of the operands truncated to one byte.
    truncated: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        layout = struct.Struct("<B" + "".join(_STRUCT_CODES[fmt] for fmt in self.operands))
        checked = tuple(
            (index, *_OPERAND_BOUNDS[fmt])
            for index, fmt in enumerate(self.operands)
            if fmt in _OPERAND_BOUNDS
        )
        truncated = tuple(index for index, fmt in enumerate(self.operands) if fmt in ("v", "u8"))
        # The dataclass is frozen; these are derived once, here.
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "size", layout.size)
        object.__setattr__(self, "checked", checked)
        object.__setattr__(self, "truncated", truncated)


_SPECS: List[OpcodeSpec] = [
    OpcodeSpec(0x00, "nop", ()),
    OpcodeSpec(0x01, "movi", ("r", "i64"), 1),
    OpcodeSpec(0x02, "movis", ("r", "i16"), 1),
    OpcodeSpec(0x03, "mov", ("r", "r"), 1),
    # Register-register ALU.
    OpcodeSpec(0x10, "add", ("r", "r", "r"), 1),
    OpcodeSpec(0x11, "sub", ("r", "r", "r"), 1),
    OpcodeSpec(0x12, "mul", ("r", "r", "r"), 3),
    OpcodeSpec(0x13, "div", ("r", "r", "r"), 20),
    OpcodeSpec(0x14, "mod", ("r", "r", "r"), 20),
    OpcodeSpec(0x15, "and", ("r", "r", "r"), 1),
    OpcodeSpec(0x16, "or", ("r", "r", "r"), 1),
    OpcodeSpec(0x17, "xor", ("r", "r", "r"), 1),
    OpcodeSpec(0x18, "shl", ("r", "r", "r"), 1),
    OpcodeSpec(0x19, "shr", ("r", "r", "r"), 1),
    # Short-immediate ALU forms (instruction selection / peephole targets).
    OpcodeSpec(0x20, "addi", ("r", "r", "i16"), 1),
    OpcodeSpec(0x21, "subi", ("r", "r", "i16"), 1),
    OpcodeSpec(0x22, "muli", ("r", "r", "i16"), 3),
    OpcodeSpec(0x23, "shli", ("r", "r", "i16"), 1),
    OpcodeSpec(0x24, "shri", ("r", "r", "i16"), 1),
    OpcodeSpec(0x25, "andi", ("r", "r", "i16"), 1),
    OpcodeSpec(0x26, "ori", ("r", "r", "i16"), 1),
    OpcodeSpec(0x27, "xori", ("r", "r", "i16"), 1),
    # Comparisons producing 0/1.
    OpcodeSpec(0x30, "cmpeq", ("r", "r", "r"), 1),
    OpcodeSpec(0x31, "cmpne", ("r", "r", "r"), 1),
    OpcodeSpec(0x32, "cmplt", ("r", "r", "r"), 1),
    OpcodeSpec(0x33, "cmple", ("r", "r", "r"), 1),
    OpcodeSpec(0x34, "cmpgt", ("r", "r", "r"), 1),
    OpcodeSpec(0x35, "cmpge", ("r", "r", "r"), 1),
    OpcodeSpec(0x38, "not", ("r", "r"), 1),
    OpcodeSpec(0x39, "neg", ("r", "r"), 1),
    OpcodeSpec(0x3A, "bnot", ("r", "r"), 1),
    # Memory.  Data memory is addressed in 8-byte words.
    OpcodeSpec(0x40, "ld", ("r", "r", "i16"), 3),
    OpcodeSpec(0x41, "st", ("r", "i16", "r"), 3),
    OpcodeSpec(0x42, "ldx", ("r", "r", "r"), 3),
    OpcodeSpec(0x43, "stx", ("r", "r", "r"), 3),
    OpcodeSpec(0x44, "leag", ("r", "i32"), 1),
    OpcodeSpec(0x45, "leas", ("r", "i16"), 1),
    OpcodeSpec(0x46, "ldg", ("r", "i32"), 3),
    OpcodeSpec(0x47, "stg", ("i32", "r"), 3),
    # Control flow.  Branch offsets are byte-relative to the *end* of the
    # instruction; CALL/TCALL take absolute byte addresses in .text.
    OpcodeSpec(0x50, "jmp", ("i32",), 1),
    OpcodeSpec(0x51, "beqz", ("r", "i32"), 1),
    OpcodeSpec(0x52, "bnez", ("r", "i32"), 1),
    OpcodeSpec(0x53, "call", ("i32",), 2),
    OpcodeSpec(0x54, "ret", (), 2),
    OpcodeSpec(0x55, "ijmp", ("r",), 2),
    OpcodeSpec(0x56, "syscall", ("u8",), 10),
    OpcodeSpec(0x57, "tcall", ("i32",), 2),
    # Conditional move and stack management.
    OpcodeSpec(0x60, "select", ("r", "r", "r", "r"), 1),
    OpcodeSpec(0x61, "spadd", ("i16",), 1),
    # Vector operations (4 lanes of 64-bit).
    OpcodeSpec(0x70, "vld", ("v", "r", "r"), 4),
    OpcodeSpec(0x71, "vst", ("v", "r", "r"), 4),
    OpcodeSpec(0x72, "vadd", ("v", "v", "v"), 1),
    OpcodeSpec(0x73, "vsub", ("v", "v", "v"), 1),
    OpcodeSpec(0x74, "vmul", ("v", "v", "v"), 3),
    OpcodeSpec(0xFF, "hlt", (), 1),
]

OPCODES: Dict[int, OpcodeSpec] = {spec.code: spec for spec in _SPECS}
OPCODES_BY_NAME: Dict[str, OpcodeSpec] = {spec.name: spec for spec in _SPECS}

#: Builtin library routines reachable via SYSCALL.
BUILTIN_IDS: Dict[str, int] = {
    "print_int": 1,
    "print_char": 2,
    "print_str": 3,
    "read_int": 4,
    "abs": 5,
    "min": 6,
    "max": 7,
    "strcpy": 8,
    "strcmp": 9,
    "strlen": 10,
    "memset": 11,
    "memcpy": 12,
    "malloc": 13,
    "free": 14,
    "rand": 15,
    "srand": 16,
    "exit": 17,
    "assert": 18,
}
BUILTIN_NAMES: Dict[int, str] = {num: name for name, num in BUILTIN_IDS.items()}


class EncodingError(Exception):
    """Raised when an instruction cannot be encoded or decoded."""


@dataclass
class MachInstr:
    """One machine instruction.

    Before linking, control-flow operands may still be symbolic: ``target``
    holds a block label (for ``jmp``/``beqz``/``bnez``) or a function name
    (for ``call``/``tcall``), and ``symbol`` holds a data-symbol name for
    ``leag``/``ldg``/``stg``.  The linker resolves them and fills in the
    numeric operands prior to encoding.
    """

    name: str
    operands: List[int] = field(default_factory=list)
    target: Optional[str] = None
    symbol: Optional[str] = None
    comment: str = ""

    @property
    def spec(self) -> OpcodeSpec:
        try:
            return OPCODES_BY_NAME[self.name]
        except KeyError as exc:  # pragma: no cover - programming error
            raise EncodingError(f"unknown mnemonic {self.name!r}") from exc

    @property
    def size(self) -> int:
        return self.spec.size

    @property
    def is_branch(self) -> bool:
        return self.name in ("jmp", "beqz", "bnez")

    def __str__(self) -> str:
        spec = self.spec
        parts = []
        for fmt, operand in zip(spec.operands, self.operands):
            if fmt == "r":
                parts.append(REG_NAMES.get(operand, f"r{operand}"))
            elif fmt == "v":
                parts.append(f"v{operand}")
            else:
                parts.append(str(operand))
        text = f"{self.name} " + ", ".join(parts) if parts else self.name
        if self.target is not None:
            text += f"  <{self.target}>"
        return text.strip()


def encode_instruction(instr: MachInstr) -> bytes:
    """Encode one instruction to bytes.  Symbolic operands must be resolved."""
    spec = instr.spec
    if len(instr.operands) != len(spec.operands):
        raise EncodingError(
            f"{instr.name}: expected {len(spec.operands)} operands, got {len(instr.operands)}"
        )
    values = [int(operand) for operand in instr.operands]
    for index, low, high, message in spec.checked:
        if not low <= values[index] <= high:
            raise EncodingError(message.format(values[index]))
    for index in spec.truncated:
        values[index] &= 0xFF
    return spec.layout.pack(spec.code, *values)


def decode_instruction(data: bytes, offset: int = 0) -> Tuple[MachInstr, int]:
    """Decode one instruction at ``offset``; return (instruction, next offset)."""
    if offset >= len(data):
        raise EncodingError("decode past end of code")
    code = data[offset]
    spec = OPCODES.get(code)
    if spec is None:
        raise EncodingError(f"unknown opcode 0x{code:02x} at offset {offset}")
    end = offset + spec.size
    if end > len(data):
        raise EncodingError(f"truncated instruction at offset {offset}")
    return MachInstr(spec.name, list(spec.layout.unpack_from(data, offset)[1:])), end


def decode_stream(data: bytes, start: int = 0, end: Optional[int] = None) -> List[Tuple[int, MachInstr]]:
    """Decode a contiguous byte range into (offset, instruction) pairs."""
    end = len(data) if end is None else end
    out: List[Tuple[int, MachInstr]] = []
    offset = start
    while offset < end:
        instr, next_offset = decode_instruction(data, offset)
        out.append((offset, instr))
        offset = next_offset
    return out
