"""SIM64 emulator.

Interprets the machine code inside a :class:`repro.backend.binary.BinaryImage`.
It is used in three roles:

1. *functional correctness*: every BinTuner output must behave identically to
   the ``-O0`` build on the program's test inputs (the paper runs the test
   suites shipped with its benchmarks; we diff emulator outputs);
2. *dynamic diffing tools*: IMF-SIM-style random-sampling function comparison
   executes recovered functions with concrete arguments;
3. *cost model*: dynamic cycle counts drive the Table 3 speedup comparison.

The machine is word-addressed for data (8-byte words) and byte-addressed for
code.  ``CALL`` uses a register-window convention: the return address and
registers ``r7``..``r14`` (plus vector registers) are saved on an internal
control stack and restored by ``RET``; ``TCALL`` transfers without pushing.

Dispatch
--------

Emulation is the dominant per-candidate cost of a tuning campaign (the
``MeasureStage`` seam), so the interpreter ships two dispatch engines:

* the **reference** engine — decode one instruction at a time through a
  per-emulator cache and execute it through an if/elif chain over mnemonic
  names (:meth:`Emulator._execute`).  Slow, but a direct transcription of the
  ISA semantics; it is the oracle the table engine is differentially tested
  against, and ``REPRO_EMULATOR_DISPATCH=reference`` forces it.
* the **table** engine (the default) — programs are pre-decoded *once per
  process* into a :class:`DecodedProgram` (keyed by the sha256 of ``.text``,
  so the thousands of near-identical candidates of a campaign never re-decode
  a byte they share with a previous binary) whose basic blocks are fused into
  superinstructions: every block is *one* generated Python function — general
  registers in locals, the 64-bit wrap inlined, the control-flow tail inlined
  and returning the next pc — with the block's step and cycle cost pre-summed,
  so the run loop makes one call per block, not per instruction.  The
  generated code is keyed by the block's *shape* (its sequence of opcodes and
  register numbers); immediates and branch targets are bound when a block is
  instantiated.  A campaign re-emulates near-identical binaries, so the
  process-wide shape table (:data:`SHAPE_TABLE_SIZE`, LRU) saturates within
  the first few candidates and ``compile()`` is paid per process, not per
  image; :func:`block_template_stats` is its probe.

Value ranges.  Every word of memory and every vector lane is a signed 64-bit
value: every writer wraps, and initial memory is unpacked as ``<q``.  A
register need not be — ``spadd`` / ``leas`` sums are unwrapped in both
engines, and ``malloc`` / ``min`` / ``max`` pass such values on — so a block
treats every register as of unknown range at entry, and knows one is in range
after ``movi`` / ``movis`` / ``leag``, a load, a compare, ``not``, a wrapped
ALU op, ``div`` / ``mod``, or a ``mov`` / ``select`` of known registers.  A
store of a known value skips the wrap; an ALU wrap is one range check, dropped
for bitwise ops and right shifts of known operands; ``div`` / ``mod`` use
Python's ``//`` / ``%`` where they agree with C (dividend in ``[0, 2**63)``,
divisor positive).  The facts come from the shape alone.

Both engines produce bit-for-bit identical :class:`ExecutionResult` values
(output, return value, steps, cycles) and raise the same exceptions at the
same program points — a machine fault (illegal instruction, division by zero,
wild jump) is always an :class:`EmulationError`, raised when the faulting pc
is reached.  The step budget is enforced exactly by finishing under the
reference engine when a block straddles the limit.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.backend.binary import BinaryImage, GLOBAL_BASE, HEAP_BASE, STACK_TOP
from repro.backend.isa import (
    BUILTIN_NAMES,
    EncodingError,
    MachInstr,
    OPCODES_BY_NAME,
    SP,
    decode_instruction,
)
from repro.ir.values import wrap64

#: Environment knob selecting the dispatch engine: ``"table"`` (default) or
#: ``"reference"``.  Read per :meth:`Emulator.run`, so a test or CI job can
#: flip engines without rebuilding anything.
DISPATCH_ENV = "REPRO_EMULATOR_DISPATCH"
TABLE_DISPATCH = "table"
REFERENCE_DISPATCH = "reference"

#: Bound on fused superinstruction length.  Long straight-line runs are split
#: so the budget fast path (``steps + block_len <= max_steps``) stays tight.
MAX_BLOCK_OPS = 64

#: Bound on the process-level decoded-program cache (entries, LRU).  Each
#: entry holds one ``.text`` plus its decoded blocks; campaigns revisit a
#: small working set of distinct binaries per program.
PROGRAM_CACHE_SIZE = 256

#: Bound on the process-level block-shape table (entries, LRU).  One entry is
#: one compiled factory, ~2.3 KB; a two-program, two-family campaign reaches
#: ~700 shapes.
SHAPE_TABLE_SIZE = 4096


def dispatch_mode() -> str:
    """The configured dispatch engine (``"table"`` unless overridden)."""
    mode = os.environ.get(DISPATCH_ENV, TABLE_DISPATCH).strip().lower()
    return REFERENCE_DISPATCH if mode == REFERENCE_DISPATCH else TABLE_DISPATCH


class EmulationError(Exception):
    """Raised on machine faults (bad opcode, division by zero, bad jump...)."""


class EmulationLimitExceeded(EmulationError):
    """Raised when the step budget is exhausted (possible non-termination)."""


@dataclass
class ExecutionResult:
    """Outcome of one emulation run."""

    return_value: int = 0
    output: List[str] = field(default_factory=list)
    steps: int = 0
    cycles: int = 0
    exited: bool = False
    exit_code: int = 0
    assertion_failed: bool = False
    #: Superinstruction blocks executed (table dispatch only; the reference
    #: engine leaves it 0).  Telemetry — never part of observable behaviour.
    blocks: int = 0

    @property
    def output_text(self) -> str:
        return "".join(self.output)

    def observable_state(self) -> Tuple[int, str]:
        """The externally visible behaviour used for equivalence checks."""
        return (self.return_value, self.output_text)


# ---------------------------------------------------------------------------
# Instruction semantics shared by both engines
# ---------------------------------------------------------------------------


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise EmulationError("integer division by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return wrap64(quotient)


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise EmulationError("integer modulo by zero")
    return wrap64(a - _c_div(a, b) * b)


_ALU_REG = {
    "add": lambda a, b: wrap64(a + b),
    "sub": lambda a, b: wrap64(a - b),
    "mul": lambda a, b: wrap64(a * b),
    "div": _c_div,
    "mod": _c_mod,
    "and": lambda a, b: wrap64(a & b),
    "or": lambda a, b: wrap64(a | b),
    "xor": lambda a, b: wrap64(a ^ b),
    "shl": lambda a, b: wrap64(a << (b & 63)),
    "shr": lambda a, b: wrap64(a >> (b & 63)),
}
_ALU_IMM = {
    "addi": lambda a, imm: wrap64(a + imm),
    "subi": lambda a, imm: wrap64(a - imm),
    "muli": lambda a, imm: wrap64(a * imm),
    "shli": lambda a, imm: wrap64(a << (imm & 63)),
    "shri": lambda a, imm: wrap64(a >> (imm & 63)),
    "andi": lambda a, imm: wrap64(a & imm),
    "ori": lambda a, imm: wrap64(a | imm),
    "xori": lambda a, imm: wrap64(a ^ imm),
}
_CMP = {
    "cmpeq": lambda a, b: a == b,
    "cmpne": lambda a, b: a != b,
    "cmplt": lambda a, b: a < b,
    "cmple": lambda a, b: a <= b,
    "cmpgt": lambda a, b: a > b,
    "cmpge": lambda a, b: a >= b,
}

_VEC = {
    "vadd": lambda a, b: a + b,
    "vsub": lambda a, b: a - b,
    "vmul": lambda a, b: a * b,
}

#: Size of the register file each register-kind operand indexes.
_REGISTER_FILES = {"r": 16, "v": 8}


def _decode_checked(text: bytes, offset: int) -> Tuple[MachInstr, int]:
    """Decode the instruction at ``offset``; a machine fault is a typed error.

    An undecodable byte sequence or a register / vector operand outside its
    register file (``decode_instruction`` does not range-check what
    ``encode_instruction`` does) is what a wild jump into data looks like: an
    :class:`EmulationError` naming the pc, never a bare ``EncodingError`` or
    an ``IndexError`` out of the register file.  Both engines decode here.
    """
    try:
        instr, next_offset = decode_instruction(text, offset)
    except EncodingError as exc:
        raise EmulationError(f"illegal instruction at pc={offset}: {exc}") from None
    for kind, value in zip(instr.spec.operands, instr.operands):
        if kind in _REGISTER_FILES and value >= _REGISTER_FILES[kind]:
            raise EmulationError(
                f"illegal instruction at pc={offset}: "
                f"{instr.name} operand {kind}{value} out of range"
            )
    return instr, next_offset


# ---------------------------------------------------------------------------
# Table dispatch: one compiled Python function per block *shape*
# ---------------------------------------------------------------------------
#
# A block's *shape* is the tuple of ``(mnemonic, register / vector operand
# numbers...)`` of its instructions (plus ``("split",)`` when the block ends
# without a control-flow instruction); everything else — immediates and the
# absolute taken / fall-through / call / return targets — is its flat list of
# *immediates*.  Each opcode has one source template below; a shape's source
# is its templates laid end to end with the general registers it touches held
# in Python locals (loaded at first read, stored back before the tail), and it
# is compiled once per process into a factory.  A block is ``factory(*imms)``:
# a function ``block(emu, regs, mem, mem_get, result) -> next_pc | None`` with
# its immediates bound as argument defaults (plain fast locals).  All machine
# state arrives as arguments, so one DecodedProgram is shareable across every
# Emulator instance — and every thread — of the process.
#
# Template fields: ``{d}`` a general register written; ``{a}`` ``{b}`` ``{c}``
# general registers read; ``{v}`` a general register read whose value is
# stored to memory (spliced wrapped unless it is known to be in range);
# ``{x}`` ``{y}`` ``{z}`` vector register numbers (spliced as literals:
# ``_pop_frame`` rebinds ``emu.vector_registers``, so vectors are reached
# through the emulator at every use); ``{i}`` the instruction's immediate.
# The role string gives one of those letters per ISA operand.  Three more
# fields are implicit operands: ``{s}`` reads and ``{p}`` writes the stack
# pointer, ``{n}`` is a trailing immediate the block builder supplies (the
# next pc; ``len(text)`` for ``ijmp``).  ``{w}`` is the line that wraps
# ``{d}`` into 64 bits — empty where the result is provably in range.


def _fit(value: str) -> str:
    """Source for ``wrap64(value)``: one range check, the mask only when it fails."""
    return (
        f"{value} if -0x8000000000000000 <= {value} <= 0x7FFFFFFFFFFFFFFF "
        f"else (({value} + 0x8000000000000000) & 0xFFFFFFFFFFFFFFFF) - 0x8000000000000000"
    )


def _native(operator: str, fallback: str) -> str:
    """Source for C ``div`` / ``mod``: Python's operator where the two agree."""
    return (
        f"{{d}} = {{a}} {operator} {{b}} if 0 <= {{a}} <= 0x7FFFFFFFFFFFFFFF and {{b}} > 0 "
        f"else {fallback}({{a}}, {{b}})"
    )


_TEMPLATES: Dict[str, Tuple[str, str]] = {
    "nop": ("", "pass"),
    "movi": ("di", "{d} = {i}"),
    "movis": ("di", "{d} = {i}"),
    "mov": ("da", "{d} = {a}"),
    "div": ("dab", _native("//", "_c_div")),
    "mod": ("dab", _native("%", "_c_mod")),
    "shl": ("dab", "{d} = {a} << ({b} & 63)\n{w}"),
    "shr": ("dab", "{d} = {a} >> ({b} & 63)\n{w}"),
    "shli": ("dai", "{d} = {a} << ({i} & 63)\n{w}"),
    "shri": ("dai", "{d} = {a} >> ({i} & 63)\n{w}"),
    "not": ("da", "{d} = 1 if {a} == 0 else 0"),
    "neg": ("da", "{d} = -{a}\n{w}"),
    "bnot": ("da", "{d} = ~{a}\n{w}"),
    "ld": ("dai", "{d} = mem_get({a} + {i}, 0)"),
    "st": ("aiv", "mem[{a} + {i}] = {v}"),
    "ldx": ("dab", "{d} = mem_get({a} + {b}, 0)"),
    "stx": ("abv", "mem[{a} + {b}] = {v}"),
    "leag": ("di", "{d} = {i}"),
    "leas": ("di", "{d} = {s} + {i}"),
    "ldg": ("di", "{d} = mem_get({i}, 0)"),
    "stg": ("iv", "mem[{i}] = {v}"),
    "select": ("dabc", "{d} = {b} if {a} != 0 else {c}"),
    "spadd": ("i", "{p} = {s} + {i}"),
    "vld": (
        "xab",
        "t = {a} + {b}\n"
        "emu.vector_registers[{x}] = "
        "[mem_get(t, 0), mem_get(t + 1, 0), mem_get(t + 2, 0), mem_get(t + 3, 0)]",
    ),
    "vst": (
        "xab",
        "t = {a} + {b}\n"
        "for k, lane in enumerate(emu.vector_registers[{x}]): mem[t + k] = lane",
    ),
    # Block tails: every one returns the next pc, or None to stop.
    "hlt": ("", "return None"),
    "jmp": ("i", "return {i}"),
    "beqz": ("ai", "return {i} if {a} == 0 else {n}"),
    "bnez": ("ai", "return {i} if {a} != 0 else {n}"),
    "call": ("i", "emu._push_frame({n})\nreturn {i}"),
    "tcall": ("i", "return {i}"),
    "ret": ("", "return emu._pop_frame() if emu.control_stack else None"),
    "ijmp": (
        "a",
        "if not 0 <= {a} < {n}: "
        "raise EmulationError('indirect jump out of range: %d' % {a})\n"
        "return {a}",
    ),
    "syscall": ("i", "return None if emu._syscall({i}, result) else {n}"),
    # The tail that is not an instruction: continue at ``{n}``.  Ends a block
    # where a straight-line run is split (the MAX_BLOCK_OPS bound, an illegal
    # instruction *past* the entry, or running off the end of ``.text``) —
    # the next dispatch of that pc raises any fault exactly where the
    # reference engine would, because blocks are built lazily from reached pcs.
    "split": ("", "return {n}"),
}
for _name, _operator in (
    ("add", "+"), ("sub", "-"), ("mul", "*"), ("and", "&"), ("or", "|"), ("xor", "^")
):
    _TEMPLATES[_name] = ("dab", f"{{d}} = {{a}} {_operator} {{b}}\n{{w}}")
    _TEMPLATES[_name + "i"] = ("dai", f"{{d}} = {{a}} {_operator} {{i}}\n{{w}}")
for _name, _operator in (
    ("cmpeq", "=="), ("cmpne", "!="), ("cmplt", "<"), ("cmple", "<="), ("cmpgt", ">"), ("cmpge", ">=")
):
    _TEMPLATES[_name] = ("dab", f"{{d}} = 1 if {{a}} {_operator} {{b}} else 0")
for _name, _operator in (("vadd", "+"), ("vsub", "-"), ("vmul", "*")):
    _TEMPLATES[_name] = (
        "xyz",
        "v = emu.vector_registers\n"
        f"v[{{x}}] = [wrap64(p {_operator} q) for p, q in zip(v[{{y}}], v[{{z}}])]",
    )
assert _TEMPLATES.keys() - {"split"} == OPCODES_BY_NAME.keys()

_TAILS = frozenset(
    ("hlt", "jmp", "beqz", "bnez", "call", "tcall", "ret", "ijmp", "syscall", "split")
)

_Shape = Tuple[Tuple, ...]
_BlockFn = Callable[["Emulator", List[int], Dict[int, int], Callable, ExecutionResult], Optional[int]]

_BLOCK_GLOBALS = {
    "EmulationError": EmulationError,
    "wrap64": wrap64,
    "_c_div": _c_div,
    "_c_mod": _c_mod,
}


def _shape_source(shape: _Shape) -> str:
    """Python source of ``factory(*immediates) -> block`` for one shape."""
    body: List[str] = []
    held = set()  # general registers currently in locals
    dirty = set()  # ... and written since block entry
    known = set()  # ... and holding a value in signed 64-bit range
    immediates: List[str] = []

    def read(number: int) -> str:
        if number not in held:
            held.add(number)
            body.append(f"r{number} = regs[{number}]")
        return f"r{number}"

    def immediate() -> str:
        immediates.append(f"i{len(immediates)}")
        return immediates[-1]

    for name, *numbers in shape:
        roles, template = _TEMPLATES[name]
        fields: Dict[str, str] = {}
        written: List[int] = []
        sources: List[int] = []
        operands = iter(numbers)
        for role in roles:
            if role == "i":
                fields[role] = immediate()
            elif role in "xyz":
                fields[role] = str(next(operands))
            elif role == "d":
                written.append(next(operands))
                fields[role] = f"r{written[-1]}"
            else:
                sources.append(next(operands))
                fields[role] = read(sources[-1])
                if role == "v" and sources[-1] not in known:
                    fields[role] = _fit(fields[role])
        if "{s}" in template:
            sources.append(SP)
            fields["s"] = read(SP)
        if "{p}" in template:
            written.append(SP)
            fields["p"] = f"r{SP}"
        if "{n}" in template:
            fields["n"] = immediate()
        in_range = known.issuperset(sources)
        if "{w}" in template:
            # Bitwise ops and right shifts of in-range operands stay in range.
            closed = in_range and name in ("and", "or", "xor", "andi", "ori", "xori", "shr", "shri", "bnot")
            fields["w"] = "" if closed else f"{fields['d']} = {_fit(fields['d'])}"
        # Reads are loaded above, before this instruction's own write makes
        # the register count as held (``add r1, r1, r2`` must load r1).
        held.update(written)
        dirty.update(written)
        # Every result is wrapped, 0 / 1, a word of memory or an ISA immediate
        # — except a stack-pointer sum, or a copy of an unknown register.
        if name in ("leas", "spadd") or (name in ("mov", "select") and not in_range):
            known.difference_update(written)
        else:
            known.update(written)
        if name in _TAILS:
            # _push_frame, _pop_frame, _syscall and the next block all see
            # the register file, never this function's locals.
            body.extend(f"regs[{number}] = r{number}" for number in sorted(dirty))
        body.extend(line for line in template.format(**fields).split("\n") if line)
    defaults = "".join(f", {name}={name}" for name in immediates)
    return (
        f"def factory({', '.join(immediates)}):\n"
        f"    def block(emu, regs, mem, mem_get, result{defaults}):\n"
        + "".join(f"        {line}\n" for line in body)
        + "    return block\n"
    )


_SHAPES: "OrderedDict[_Shape, Callable[..., _BlockFn]]" = OrderedDict()
_SHAPES_LOCK = threading.Lock()
_SHAPE_COUNTS = {"shapes_compiled": 0, "shape_evictions": 0, "blocks_built": 0}


def _instantiate(shape: _Shape, immediates: Sequence[int]) -> _BlockFn:
    """The block function of ``shape`` with ``immediates`` bound.

    The shape table is process-wide and LRU-bounded by
    :data:`SHAPE_TABLE_SIZE`: codegen and ``compile()`` are paid once per
    distinct shape, not once per image.  Evicting a shape only drops the
    factory; blocks already instantiated from it keep their code.
    """
    with _SHAPES_LOCK:
        _SHAPE_COUNTS["blocks_built"] += 1
        factory = _SHAPES.get(shape)
        if factory is not None:
            _SHAPES.move_to_end(shape)
        else:
            namespace: Dict[str, Callable[..., _BlockFn]] = {}
            exec(compile(_shape_source(shape), "<sim64 block>", "exec"), _BLOCK_GLOBALS, namespace)
            factory = _SHAPES[shape] = namespace["factory"]
            _SHAPE_COUNTS["shapes_compiled"] += 1
            while len(_SHAPES) > SHAPE_TABLE_SIZE:
                _SHAPES.popitem(last=False)
                _SHAPE_COUNTS["shape_evictions"] += 1
    return factory(*immediates)


def block_template_stats() -> Dict[str, int]:
    """Shape-table probe (bench/telemetry): ``shapes_resident`` plus the
    monotonic ``shapes_compiled`` / ``shape_evictions`` / ``blocks_built``."""
    with _SHAPES_LOCK:
        return {"shapes_resident": len(_SHAPES), **_SHAPE_COUNTS}


#: A fused superinstruction: ``(fn, step_count, cycles)``.  ``step_count``
#: counts real instructions (tail included when it is one); ``cycles`` is
#: their pre-summed abstract latency.
BasicBlock = Tuple[_BlockFn, int, int]


class DecodedProgram:
    """The decoded, block-compiled view of one ``.text`` section.

    Blocks are built lazily from actually-reached pcs (so decode faults keep
    their runtime timing) and memoized forever: the object is immutable input
    plus a monotonically growing block map, safe to share across emulators
    and threads.  Jumping into the middle of an existing block simply builds
    a second, overlapping block starting at the target — blocks are pure
    decoded views, not a partition.
    """

    __slots__ = ("text", "blocks")

    def __init__(self, text: bytes) -> None:
        self.text = text
        self.blocks: Dict[int, BasicBlock] = {}

    def block_at(self, pc: int) -> BasicBlock:
        """The block starting at ``pc`` (built and memoized on first use)."""
        text = self.text
        text_len = len(text)
        if not 0 <= pc < text_len:
            raise EmulationError(f"program counter out of range: {pc}")
        shape: List[Tuple] = []
        immediates: List[int] = []
        cycles = 0
        offset = pc
        while True:
            try:
                instr, next_offset = _decode_checked(text, offset)
            except EmulationError:
                if offset == pc:
                    # The entry itself is illegal: raise now, which *is*
                    # runtime for a lazily built block — the reference engine
                    # faults at exactly this pc.
                    raise
                break
            name = instr.name
            spec = OPCODES_BY_NAME[name]
            cycles += spec.cycles
            entry = [name]
            for kind, value in zip(spec.operands, instr.operands):
                (entry if kind in _REGISTER_FILES else immediates).append(value)
            shape.append(tuple(entry))
            if name in _TAILS:
                if instr.is_branch:  # relative to the end of the instruction
                    immediates[-1] += next_offset
                if "{n}" in _TEMPLATES[name][1]:
                    immediates.append(text_len if name == "ijmp" else next_offset)
                break
            offset = next_offset
            if offset >= text_len or len(shape) >= MAX_BLOCK_OPS:
                break
        count = len(shape)
        if shape[-1][0] not in _TAILS:
            shape.append(("split",))
            immediates.append(offset)
        block = (_instantiate(tuple(shape), immediates), count, cycles)
        self.blocks[pc] = block
        return block


_PROGRAM_CACHE: "OrderedDict[bytes, DecodedProgram]" = OrderedDict()
_PROGRAM_CACHE_LOCK = threading.Lock()


def decoded_program(text: bytes) -> DecodedProgram:
    """The process-level :class:`DecodedProgram` for ``text``.

    Keyed by ``sha256(text)`` and bounded by :data:`PROGRAM_CACHE_SIZE`
    (LRU), so a campaign's near-identical candidates share decode work and
    already-built blocks across every emulation — including across the
    threads of one process, which all read one instance.
    """
    key = hashlib.sha256(text).digest()
    with _PROGRAM_CACHE_LOCK:
        program = _PROGRAM_CACHE.get(key)
        if program is not None:
            _PROGRAM_CACHE.move_to_end(key)
            return program
    program = DecodedProgram(text)
    with _PROGRAM_CACHE_LOCK:
        existing = _PROGRAM_CACHE.get(key)
        if existing is not None:
            return existing
        _PROGRAM_CACHE[key] = program
        while len(_PROGRAM_CACHE) > PROGRAM_CACHE_SIZE:
            _PROGRAM_CACHE.popitem(last=False)
    return program


def reset_decoded_programs() -> None:
    """Forget every cached decoded program (test hook)."""
    with _PROGRAM_CACHE_LOCK:
        _PROGRAM_CACHE.clear()


def decoded_program_cache_size() -> int:
    """Number of decoded programs currently cached (bench/telemetry probe)."""
    with _PROGRAM_CACHE_LOCK:
        return len(_PROGRAM_CACHE)


class Emulator:
    """A single-program SIM64 interpreter."""

    def __init__(self, image: BinaryImage, inputs: Optional[Sequence[int]] = None) -> None:
        self.image = image
        self.text = image.text
        self.registers: List[int] = [0] * 16
        self.vector_registers: List[List[int]] = [[0, 0, 0, 0] for _ in range(8)]
        self.memory: Dict[int, int] = {}
        self.inputs: List[int] = list(inputs or [])
        self._input_cursor = 0
        self.output: List[str] = []
        self.heap_pointer = HEAP_BASE
        self.rand_state = 0x2545F4914F6CDD1D
        self.control_stack: List[Tuple[int, List[int], List[List[int]]]] = []
        self.cycles = 0
        self._decode_cache: Dict[int, Tuple[MachInstr, int]] = {}
        self._load_initial_memory()
        self.registers[15] = STACK_TOP

    # -- memory -------------------------------------------------------------

    def _load_initial_memory(self) -> None:
        self.memory.update(self.image.initial_memory())
        rodata = self.image.rodata
        rodata_base = int(self.image.metadata.get("rodata_base", GLOBAL_BASE))
        for index in range(len(rodata) // 8):
            value = struct.unpack_from("<q", rodata, index * 8)[0]
            self.memory[rodata_base + index] = value

    def read_word(self, address: int) -> int:
        return self.memory.get(address, 0)

    def write_word(self, address: int, value: int) -> None:
        self.memory[address] = wrap64(value)

    def read_string(self, address: int, limit: int = 4096) -> str:
        chars: List[str] = []
        for offset in range(limit):
            word = self.read_word(address + offset)
            if word == 0:
                break
            chars.append(chr(word & 0x10FFFF))
        return "".join(chars)

    # -- execution ------------------------------------------------------------

    def _decode(self, offset: int) -> Tuple[MachInstr, int]:
        cached = self._decode_cache.get(offset)
        if cached is None:
            if not 0 <= offset < len(self.text):
                raise EmulationError(f"program counter out of range: {offset}")
            cached = _decode_checked(self.text, offset)
            self._decode_cache[offset] = cached
        return cached

    def run(
        self,
        entry: Optional[int] = None,
        args: Optional[Sequence[int]] = None,
        max_steps: int = 2_000_000,
    ) -> ExecutionResult:
        """Run from ``entry`` (default: the image entry point) until return."""
        result = ExecutionResult()
        pc = self.image.entry_point if entry is None else entry
        for index, value in enumerate(args or []):
            self.registers[index + 1] = wrap64(value)
        # Each run's cycle count stands alone: a reused emulator instance
        # (run_function-style probing) must not leak the previous run's
        # cycles into this run's cost-model numbers.
        self.cycles = 0
        if dispatch_mode() == REFERENCE_DISPATCH:
            steps = self._run_reference(pc, 0, max_steps, result)
        else:
            steps = self._run_table(pc, max_steps, result)
        result.steps = steps
        result.cycles = self.cycles
        result.return_value = wrap64(self.registers[0])
        result.output = self.output
        return result

    def _run_reference(
        self, pc: int, steps: int, max_steps: int, result: ExecutionResult
    ) -> int:
        """The reference engine: decode-and-execute one instruction per loop.

        Also the table engine's exact-budget continuation: when a fused block
        would overshoot ``max_steps``, execution hands over here (at most one
        block's worth of instructions remain before the limit), preserving
        the limit check — and its exception — instruction by instruction.
        """
        while True:
            if steps >= max_steps:
                raise EmulationLimitExceeded(
                    f"exceeded {max_steps} steps at pc={pc} in {self.image.name}"
                )
            instr, next_pc = self._decode(pc)
            steps += 1
            self.cycles += instr.spec.cycles
            new_pc = self._execute(instr, pc, next_pc, result)
            if new_pc is None:
                return steps
            pc = new_pc

    def _run_table(self, pc: int, max_steps: int, result: ExecutionResult) -> int:
        """The table engine: one compiled block function per loop."""
        program = decoded_program(self.text)
        blocks = program.blocks
        regs = self.registers
        mem = self.memory
        mem_get = mem.get
        steps = 0
        cycles = 0
        executed_blocks = 0
        while pc is not None:
            try:
                fn, count, block_cycles = blocks[pc]
            except KeyError:
                fn, count, block_cycles = program.block_at(pc)
            if steps + count > max_steps:
                # The block straddles the step budget: flush the fast-path
                # counters and finish under the reference engine so the
                # limit is enforced at exactly the right instruction.
                self.cycles += cycles
                result.blocks = executed_blocks
                return self._run_reference(pc, steps, max_steps, result)
            steps += count
            cycles += block_cycles
            executed_blocks += 1
            pc = fn(self, regs, mem, mem_get, result)
        self.cycles += cycles
        result.blocks = executed_blocks
        return steps

    # -- instruction semantics ---------------------------------------------------

    def _execute(
        self, instr: MachInstr, pc: int, next_pc: int, result: ExecutionResult
    ) -> Optional[int]:
        name = instr.name
        ops = instr.operands
        regs = self.registers

        if name == "nop":
            return next_pc
        if name == "hlt":
            return None
        if name == "movi" or name == "movis":
            regs[ops[0]] = wrap64(ops[1])
            return next_pc
        if name == "mov":
            regs[ops[0]] = regs[ops[1]]
            return next_pc
        if name in _ALU_REG:
            regs[ops[0]] = _ALU_REG[name](regs[ops[1]], regs[ops[2]])
            return next_pc
        if name in _ALU_IMM:
            regs[ops[0]] = _ALU_IMM[name](regs[ops[1]], ops[2])
            return next_pc
        if name in _CMP:
            regs[ops[0]] = int(_CMP[name](regs[ops[1]], regs[ops[2]]))
            return next_pc
        if name == "not":
            regs[ops[0]] = int(regs[ops[1]] == 0)
            return next_pc
        if name == "neg":
            regs[ops[0]] = wrap64(-regs[ops[1]])
            return next_pc
        if name == "bnot":
            regs[ops[0]] = wrap64(~regs[ops[1]])
            return next_pc
        if name == "ld":
            regs[ops[0]] = self.read_word(regs[ops[1]] + ops[2])
            return next_pc
        if name == "st":
            self.write_word(regs[ops[0]] + ops[1], regs[ops[2]])
            return next_pc
        if name == "ldx":
            regs[ops[0]] = self.read_word(regs[ops[1]] + regs[ops[2]])
            return next_pc
        if name == "stx":
            self.write_word(regs[ops[0]] + regs[ops[1]], regs[ops[2]])
            return next_pc
        if name == "leag":
            regs[ops[0]] = ops[1]
            return next_pc
        if name == "leas":
            regs[ops[0]] = regs[15] + ops[1]
            return next_pc
        if name == "ldg":
            regs[ops[0]] = self.read_word(ops[1])
            return next_pc
        if name == "stg":
            self.write_word(ops[0], regs[ops[1]])
            return next_pc
        if name == "jmp":
            return next_pc + ops[0]
        if name == "beqz":
            return next_pc + ops[1] if regs[ops[0]] == 0 else next_pc
        if name == "bnez":
            return next_pc + ops[1] if regs[ops[0]] != 0 else next_pc
        if name == "call":
            self._push_frame(next_pc)
            return ops[0]
        if name == "tcall":
            return ops[0]
        if name == "ret":
            if not self.control_stack:
                return None
            return self._pop_frame()
        if name == "ijmp":
            target = regs[ops[0]]
            if not 0 <= target < len(self.text):
                raise EmulationError(f"indirect jump out of range: {target}")
            return target
        if name == "syscall":
            return None if self._syscall(ops[0], result) else next_pc
        if name == "select":
            regs[ops[0]] = regs[ops[2]] if regs[ops[1]] != 0 else regs[ops[3]]
            return next_pc
        if name == "spadd":
            regs[15] = regs[15] + ops[0]
            return next_pc
        if name == "vld":
            base = regs[ops[1]] + regs[ops[2]]
            self.vector_registers[ops[0]] = [self.read_word(base + lane) for lane in range(4)]
            return next_pc
        if name == "vst":
            base = regs[ops[1]] + regs[ops[2]]
            for lane in range(4):
                self.write_word(base + lane, self.vector_registers[ops[0]][lane])
            return next_pc
        if name in _VEC:
            op = _VEC[name]
            left = self.vector_registers[ops[1]]
            right = self.vector_registers[ops[2]]
            self.vector_registers[ops[0]] = [wrap64(op(a, b)) for a, b in zip(left, right)]
            return next_pc
        raise EmulationError(f"unimplemented instruction {name}")  # pragma: no cover

    def _push_frame(self, return_address: int) -> None:
        if len(self.control_stack) > 4096:
            raise EmulationError("call stack overflow (likely runaway recursion)")
        saved_regs = self.registers[7:15].copy()
        saved_vectors = [lane.copy() for lane in self.vector_registers]
        self.control_stack.append((return_address, saved_regs, saved_vectors))

    def _pop_frame(self) -> int:
        return_address, saved_regs, saved_vectors = self.control_stack.pop()
        self.registers[7:15] = saved_regs
        self.vector_registers = saved_vectors
        return return_address

    # -- builtins ------------------------------------------------------------------

    def _syscall(self, number: int, result: ExecutionResult) -> bool:
        """Execute a builtin.  Returns True when the program should halt."""
        name = BUILTIN_NAMES.get(number)
        regs = self.registers
        if name is None:
            raise EmulationError(f"unknown syscall number {number}")
        if name == "print_int":
            self.output.append(str(wrap64(regs[1])))
            self.output.append("\n")
        elif name == "print_char":
            self.output.append(chr(regs[1] & 0x10FFFF))
        elif name == "print_str":
            self.output.append(self.read_string(regs[1]))
        elif name == "read_int":
            if self._input_cursor < len(self.inputs):
                regs[0] = wrap64(self.inputs[self._input_cursor])
                self._input_cursor += 1
            else:
                regs[0] = 0
        elif name == "abs":
            regs[0] = wrap64(abs(regs[1]))
        elif name == "min":
            regs[0] = min(regs[1], regs[2])
        elif name == "max":
            regs[0] = max(regs[1], regs[2])
        elif name == "strcpy":
            destination, source = regs[1], regs[2]
            offset = 0
            while True:
                word = self.read_word(source + offset)
                self.write_word(destination + offset, word)
                offset += 1
                if word == 0 or offset > 65536:
                    break
            regs[0] = destination
        elif name == "strcmp":
            left, right = regs[1], regs[2]
            offset = 0
            value = 0
            while offset <= 65536:
                a = self.read_word(left + offset)
                b = self.read_word(right + offset)
                if a != b:
                    value = -1 if a < b else 1
                    break
                if a == 0:
                    break
                offset += 1
            regs[0] = value
        elif name == "strlen":
            address = regs[1]
            length = 0
            while self.read_word(address + length) != 0 and length <= 65536:
                length += 1
            regs[0] = length
        elif name == "memset":
            destination, value, count = regs[1], regs[2], regs[3]
            for offset in range(max(count, 0)):
                self.write_word(destination + offset, value)
            regs[0] = destination
        elif name == "memcpy":
            destination, source, count = regs[1], regs[2], regs[3]
            for offset in range(max(count, 0)):
                self.write_word(destination + offset, self.read_word(source + offset))
            regs[0] = destination
        elif name == "malloc":
            size = max(regs[1], 1)
            regs[0] = self.heap_pointer
            self.heap_pointer += size
        elif name == "free":
            regs[0] = 0
        elif name == "rand":
            self.rand_state = wrap64(self.rand_state * 6364136223846793005 + 1442695040888963407)
            regs[0] = (self.rand_state >> 17) & 0x7FFFFFFF
        elif name == "srand":
            self.rand_state = wrap64(regs[1] or 1)
        elif name == "exit":
            result.exited = True
            result.exit_code = wrap64(regs[1])
            regs[0] = regs[1]
            return True
        elif name == "assert":
            if regs[1] == 0:
                result.assertion_failed = True
                regs[0] = 0
                return True
            regs[0] = 1
        else:  # pragma: no cover - defensive
            raise EmulationError(f"unimplemented builtin {name}")
        return False


def run_program(
    image: BinaryImage,
    args: Optional[Sequence[int]] = None,
    inputs: Optional[Sequence[int]] = None,
    max_steps: int = 2_000_000,
) -> ExecutionResult:
    """Run ``main`` of a linked image and return its observable behaviour."""
    return Emulator(image, inputs=inputs).run(args=args, max_steps=max_steps)


def run_function(
    image: BinaryImage,
    name: str,
    args: Sequence[int],
    inputs: Optional[Sequence[int]] = None,
    max_steps: int = 200_000,
) -> ExecutionResult:
    """Run a single function by symbol name with concrete arguments."""
    symbol = image.symbol(name)
    emulator = Emulator(image, inputs=inputs)
    return emulator.run(entry=symbol.offset, args=args, max_steps=max_steps)
