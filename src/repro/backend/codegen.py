"""Instruction selection: IR functions -> SIM64 machine code.

The code generator walks each basic block in layout order and emits
:class:`repro.backend.isa.MachInstr` sequences.  Its behaviour is controlled by
:class:`CodegenOptions`, which the compiler drivers derive from the user's
optimization flags — this is where several of the paper's "syntax changing"
decisions live:

* register allocation on/off (O0 keeps every temporary in a stack slot),
* short-immediate instruction forms,
* constant-offset addressing for array accesses,
* switch lowering strategy (linear chain, jump table, or binary search),
* machine-level peephole cleanup,
* function and loop-header alignment padding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backend.isa import BUILTIN_IDS, MachInstr
from repro.backend.regalloc import RegisterAssignment, allocate_registers
from repro.ir.function import IRFunction, IRModule
from repro.ir.instructions import (
    AddrOf,
    BinOp,
    Branch,
    Call,
    Jump,
    LoadIndex,
    LoadVar,
    Move,
    Nop,
    Ret,
    Select,
    StoreIndex,
    StoreVar,
    Switch,
    UnOp,
    VecBinOp,
    VecLoad,
    VecStore,
)
from repro.ir.values import ConstInt, SymbolRef, Temp, Value

#: Scratch registers used to materialize operands (never hold live temps).
SCRATCH_DEST = 0
SCRATCH_A = 5
SCRATCH_B = 6

_ALU_OPS = {
    "add": "add",
    "sub": "sub",
    "mul": "mul",
    "div": "div",
    "mod": "mod",
    "and": "and",
    "or": "or",
    "xor": "xor",
    "shl": "shl",
    "shr": "shr",
}
_ALU_IMM_OPS = {
    "add": "addi",
    "sub": "subi",
    "mul": "muli",
    "shl": "shli",
    "shr": "shri",
    "and": "andi",
    "or": "ori",
    "xor": "xori",
}
_CMP_OPS = {
    "eq": "cmpeq",
    "ne": "cmpne",
    "lt": "cmplt",
    "le": "cmple",
    "gt": "cmpgt",
    "ge": "cmpge",
}
_VEC_OPS = {"add": "vadd", "sub": "vsub", "mul": "vmul"}


class CodegenError(Exception):
    """Raised when the IR cannot be lowered to machine code."""


@dataclass
class CodegenOptions:
    """Flag-derived knobs that change instruction selection and layout."""

    regalloc: bool = True
    short_immediates: bool = True
    offset_addressing: bool = True
    use_jump_tables: bool = True
    switch_binary_search: bool = True
    jump_table_min_cases: int = 4
    jump_table_max_holes: int = 3
    machine_peephole: bool = True
    align_functions: int = 1
    align_loop_headers: bool = False
    enable_tail_calls: bool = True


@dataclass
class FunctionCode:
    """Machine code for one function, prior to linking."""

    name: str
    instructions: List[MachInstr] = field(default_factory=list)
    #: block / synthetic label -> index into ``instructions``
    label_positions: Dict[str, int] = field(default_factory=dict)
    #: jump tables required by this function: table symbol -> target labels
    jump_tables: Dict[str, List[str]] = field(default_factory=dict)
    align: int = 1
    is_static: bool = False
    #: label -> requested byte alignment of the block start
    block_aligns: Dict[str, int] = field(default_factory=dict)
    frame_size: int = 0
    spill_count: int = 0


class _FunctionEmitter:
    """Stateful emitter for a single function."""

    def __init__(self, function: IRFunction, options: CodegenOptions) -> None:
        self.function = function
        self.options = options
        self.assignment: RegisterAssignment = allocate_registers(
            function, enable=options.regalloc
        )
        self.code = FunctionCode(
            name=function.name,
            align=max(1, options.align_functions),
            is_static=function.is_static,
        )
        self._synthetic_label_counter = 0
        self._slot_offsets: Dict[str, int] = {}
        self._frame_size = 0
        self._layout = function.block_order()
        self._compute_frame()

    # -- frame layout --------------------------------------------------------

    def _compute_frame(self) -> None:
        offset = 0
        for name in self.function.params:
            self._slot_offsets[name] = offset
            offset += 1
        for name, local in self.function.locals.items():
            if name in self._slot_offsets:
                continue
            self._slot_offsets[name] = offset
            offset += max(1, local.size)
        self._spill_base = offset
        offset += self.assignment.spill_count()
        self._frame_size = offset
        self.code.frame_size = offset
        self.code.spill_count = self.assignment.spill_count()

    def _spill_offset(self, temp_name: str) -> int:
        return self._spill_base + self.assignment.spills[temp_name]

    # -- emit helpers ---------------------------------------------------------

    def _emit(self, name: str, operands: List[int], target: Optional[str] = None,
              symbol: Optional[str] = None, comment: str = "") -> MachInstr:
        instr = MachInstr(name, operands, target=target, symbol=symbol, comment=comment)
        self.code.instructions.append(instr)
        return instr

    def _mark_label(self, label: str) -> None:
        self.code.label_positions[label] = len(self.code.instructions)

    def _new_synthetic_label(self, hint: str) -> str:
        self._synthetic_label_counter += 1
        return f"{self.function.name}.{hint}.{self._synthetic_label_counter}"

    def _emit_load_immediate(self, register: int, value: int) -> None:
        if -(1 << 15) <= value < (1 << 15) and self.options.short_immediates:
            self._emit("movis", [register, value])
        else:
            self._emit("movi", [register, value])

    def _is_global(self, var: str) -> bool:
        return var not in self._slot_offsets

    def _value_to_register(self, value: Value, scratch: int) -> int:
        """Ensure ``value`` is in a register; return the register index."""
        if isinstance(value, ConstInt):
            self._emit_load_immediate(scratch, value.value)
            return scratch
        if isinstance(value, SymbolRef):
            self._emit("leag", [scratch, 0], symbol=value.name)
            return scratch
        if isinstance(value, Temp):
            if value.name in self.assignment.vector_registers:
                raise CodegenError(f"vector temp {value.name} used as scalar")
            kind, location = self.assignment.location(value.name)
            if kind == "reg":
                return location
            self._emit("ld", [scratch, 15, self._spill_offset(value.name)])
            return scratch
        raise CodegenError(f"cannot materialize value {value!r}")

    def _dest_register(self, temp: Temp) -> Tuple[int, bool]:
        """Register to compute into and whether a spill store is needed after."""
        kind, location = self.assignment.location(temp.name)
        if kind == "reg":
            return location, False
        return SCRATCH_DEST, True

    def _finish_dest(self, temp: Temp, register: int, needs_store: bool) -> None:
        if needs_store:
            self._emit("st", [15, self._spill_offset(temp.name), register])

    def _vector_register(self, temp: Temp) -> int:
        try:
            return self.assignment.vector_registers[temp.name]
        except KeyError as exc:
            raise CodegenError(f"temp {temp.name} is not a vector register") from exc

    # -- function body ---------------------------------------------------------

    def emit_function(self) -> FunctionCode:
        self._emit_prologue()
        for position, label in enumerate(self._layout):
            block = self.function.blocks[label]
            self._mark_label(label)
            if block.align > 1 or (
                self.options.align_loop_headers and self._is_loop_header(label)
            ):
                self.code.block_aligns[label] = max(block.align, 8)
            next_label = self._layout[position + 1] if position + 1 < len(self._layout) else None
            self._emit_block(block, next_label)
        return self.code

    def _is_loop_header(self, label: str) -> bool:
        # A cheap syntactic test: loop headers created by the builder/unroller
        # carry "cond" or "header" in their label.
        return ".cond" in label or "header" in label or label.startswith("while") or label.startswith("for")

    def _emit_prologue(self) -> None:
        self._mark_label(f"{self.function.name}.__prologue")
        if self._frame_size:
            self._emit("spadd", [-self._frame_size])
        if len(self.function.params) > 6:
            raise CodegenError(
                f"{self.function.name}: more than 6 parameters are not supported"
            )
        for index, name in enumerate(self.function.params):
            self._emit("st", [15, self._slot_offsets[name], index + 1])

    def _emit_epilogue_and_ret(self) -> None:
        if self._frame_size:
            self._emit("spadd", [self._frame_size])
        self._emit("ret", [])

    def _emit_block(self, block, next_label: Optional[str]) -> None:
        skip_next_ret = False
        for instr in block.instructions:
            if skip_next_ret and isinstance(instr, Ret):
                skip_next_ret = False
                continue
            skip_next_ret = False
            if isinstance(instr, Call) and instr.is_tail and self.options.enable_tail_calls \
                    and instr.callee not in BUILTIN_IDS:
                self._emit_tail_call(instr)
                skip_next_ret = True
                continue
            self._emit_instruction(instr, next_label)

    # -- per-instruction lowering ----------------------------------------------

    def _emit_instruction(self, instr, next_label: Optional[str]) -> None:
        if isinstance(instr, BinOp):
            self._emit_binop(instr)
        elif isinstance(instr, UnOp):
            self._emit_unop(instr)
        elif isinstance(instr, Move):
            self._emit_move(instr)
        elif isinstance(instr, LoadVar):
            self._emit_load_var(instr)
        elif isinstance(instr, StoreVar):
            self._emit_store_var(instr)
        elif isinstance(instr, LoadIndex):
            self._emit_load_index(instr)
        elif isinstance(instr, StoreIndex):
            self._emit_store_index(instr)
        elif isinstance(instr, AddrOf):
            self._emit_addr_of(instr)
        elif isinstance(instr, Call):
            self._emit_call(instr)
        elif isinstance(instr, Ret):
            self._emit_ret(instr)
        elif isinstance(instr, Branch):
            self._emit_branch(instr, next_label)
        elif isinstance(instr, Jump):
            if instr.label != next_label:
                self._emit("jmp", [0], target=instr.label)
        elif isinstance(instr, Switch):
            self._emit_switch(instr)
        elif isinstance(instr, Select):
            self._emit_select(instr)
        elif isinstance(instr, VecLoad):
            base = self._value_to_register(instr.base, SCRATCH_A)
            index = self._value_to_register(instr.index, SCRATCH_B)
            self._emit("vld", [self._vector_register(instr.dest), base, index])
        elif isinstance(instr, VecStore):
            base = self._value_to_register(instr.base, SCRATCH_A)
            index = self._value_to_register(instr.index, SCRATCH_B)
            value = instr.value
            if not isinstance(value, Temp):
                raise CodegenError("vector store source must be a vector temp")
            self._emit("vst", [self._vector_register(value), base, index])
        elif isinstance(instr, VecBinOp):
            if instr.op not in _VEC_OPS:
                raise CodegenError(f"unsupported vector op {instr.op}")
            lhs = instr.lhs
            rhs = instr.rhs
            if not isinstance(lhs, Temp) or not isinstance(rhs, Temp):
                raise CodegenError("vector operands must be vector temps")
            self._emit(
                _VEC_OPS[instr.op],
                [
                    self._vector_register(instr.dest),
                    self._vector_register(lhs),
                    self._vector_register(rhs),
                ],
            )
        elif isinstance(instr, Nop):
            self._emit("nop", [])
        else:  # pragma: no cover - defensive
            raise CodegenError(f"cannot lower {type(instr).__name__}")

    def _emit_binop(self, instr: BinOp) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        if instr.op in _CMP_OPS:
            lhs = self._value_to_register(instr.lhs, SCRATCH_A)
            rhs = self._value_to_register(instr.rhs, SCRATCH_B)
            self._emit(_CMP_OPS[instr.op], [dest, lhs, rhs])
            self._finish_dest(instr.dest, dest, needs_store)
            return
        if instr.op not in _ALU_OPS:
            raise CodegenError(f"unknown binary op {instr.op}")
        use_immediate = (
            self.options.short_immediates
            and isinstance(instr.rhs, ConstInt)
            and -(1 << 15) <= instr.rhs.value < (1 << 15)
            and instr.op in _ALU_IMM_OPS
        )
        lhs = self._value_to_register(instr.lhs, SCRATCH_A)
        if use_immediate:
            self._emit(_ALU_IMM_OPS[instr.op], [dest, lhs, instr.rhs.value])
        else:
            rhs = self._value_to_register(instr.rhs, SCRATCH_B)
            self._emit(_ALU_OPS[instr.op], [dest, lhs, rhs])
        self._finish_dest(instr.dest, dest, needs_store)

    def _emit_unop(self, instr: UnOp) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        operand = self._value_to_register(instr.operand, SCRATCH_A)
        if instr.op == "neg":
            self._emit("neg", [dest, operand])
        elif instr.op == "bnot":
            self._emit("bnot", [dest, operand])
        elif instr.op == "not":
            self._emit("not", [dest, operand])
        else:
            raise CodegenError(f"unknown unary op {instr.op}")
        self._finish_dest(instr.dest, dest, needs_store)

    def _emit_move(self, instr: Move) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        if isinstance(instr.src, ConstInt):
            self._emit_load_immediate(dest, instr.src.value)
        elif isinstance(instr.src, SymbolRef):
            self._emit("leag", [dest, 0], symbol=instr.src.name)
        else:
            source = self._value_to_register(instr.src, SCRATCH_A)
            if source != dest:
                self._emit("mov", [dest, source])
        self._finish_dest(instr.dest, dest, needs_store)

    def _emit_load_var(self, instr: LoadVar) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        if self._is_global(instr.var):
            self._emit("ldg", [dest, 0], symbol=instr.var)
        else:
            self._emit("ld", [dest, 15, self._slot_offsets[instr.var]])
        self._finish_dest(instr.dest, dest, needs_store)

    def _emit_store_var(self, instr: StoreVar) -> None:
        value = self._value_to_register(instr.value, SCRATCH_A)
        if self._is_global(instr.var):
            self._emit("stg", [0, value], symbol=instr.var)
        else:
            self._emit("st", [15, self._slot_offsets[instr.var], value])

    def _emit_load_index(self, instr: LoadIndex) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        base = self._value_to_register(instr.base, SCRATCH_A)
        if (
            self.options.offset_addressing
            and isinstance(instr.index, ConstInt)
            and -(1 << 15) <= instr.index.value < (1 << 15)
        ):
            self._emit("ld", [dest, base, instr.index.value])
        else:
            index = self._value_to_register(instr.index, SCRATCH_B)
            self._emit("ldx", [dest, base, index])
        self._finish_dest(instr.dest, dest, needs_store)

    def _emit_store_index(self, instr: StoreIndex) -> None:
        base = self._value_to_register(instr.base, SCRATCH_A)
        if (
            self.options.offset_addressing
            and isinstance(instr.index, ConstInt)
            and -(1 << 15) <= instr.index.value < (1 << 15)
        ):
            value = self._value_to_register(instr.value, SCRATCH_B)
            self._emit("st", [base, instr.index.value, value])
        else:
            index = self._value_to_register(instr.index, SCRATCH_B)
            value = self._value_to_register(instr.value, SCRATCH_DEST)
            self._emit("stx", [base, index, value])

    def _emit_addr_of(self, instr: AddrOf) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        if self._is_global(instr.var):
            self._emit("leag", [dest, 0], symbol=instr.var)
        else:
            self._emit("leas", [dest, self._slot_offsets[instr.var]])
        self._finish_dest(instr.dest, dest, needs_store)

    def _emit_call_arguments(self, args: List[Value]) -> None:
        if len(args) > 6:
            raise CodegenError("more than 6 call arguments are not supported")
        for index, arg in enumerate(args):
            register = index + 1
            if isinstance(arg, ConstInt):
                self._emit_load_immediate(register, arg.value)
            elif isinstance(arg, SymbolRef):
                self._emit("leag", [register, 0], symbol=arg.name)
            elif isinstance(arg, Temp):
                kind, location = self.assignment.location(arg.name)
                if kind == "reg":
                    self._emit("mov", [register, location])
                else:
                    self._emit("ld", [register, 15, self._spill_offset(arg.name)])
            else:
                raise CodegenError(f"unsupported call argument {arg!r}")

    def _emit_call(self, instr: Call) -> None:
        self._emit_call_arguments(instr.args)
        if instr.callee in BUILTIN_IDS:
            self._emit("syscall", [BUILTIN_IDS[instr.callee]])
        else:
            self._emit("call", [0], target=instr.callee)
        if instr.dest is not None:
            kind, location = self.assignment.location(instr.dest.name)
            if kind == "reg":
                self._emit("mov", [location, 0])
            else:
                self._emit("st", [15, self._spill_offset(instr.dest.name), 0])

    def _emit_tail_call(self, instr: Call) -> None:
        self._emit_call_arguments(instr.args)
        if self._frame_size:
            self._emit("spadd", [self._frame_size])
        self._emit("tcall", [0], target=instr.callee)

    def _emit_ret(self, instr: Ret) -> None:
        if instr.value is not None:
            if isinstance(instr.value, ConstInt):
                self._emit_load_immediate(0, instr.value.value)
            elif isinstance(instr.value, SymbolRef):
                self._emit("leag", [0, 0], symbol=instr.value.name)
            else:
                register = self._value_to_register(instr.value, SCRATCH_A)
                if register != 0:
                    self._emit("mov", [0, register])
        self._emit_epilogue_and_ret()

    def _emit_branch(self, instr: Branch, next_label: Optional[str]) -> None:
        cond = self._value_to_register(instr.cond, SCRATCH_A)
        if instr.false_label == next_label:
            self._emit("bnez", [cond, 0], target=instr.true_label)
        elif instr.true_label == next_label:
            self._emit("beqz", [cond, 0], target=instr.false_label)
        else:
            self._emit("bnez", [cond, 0], target=instr.true_label)
            self._emit("jmp", [0], target=instr.false_label)

    def _emit_select(self, instr: Select) -> None:
        dest, needs_store = self._dest_register(instr.dest)
        cond = self._value_to_register(instr.cond, SCRATCH_A)
        if_true = self._value_to_register(instr.if_true, SCRATCH_B)
        if_false = self._value_to_register(instr.if_false, SCRATCH_DEST if dest != SCRATCH_DEST else 4)
        self._emit("select", [dest, cond, if_true, if_false])
        self._finish_dest(instr.dest, dest, needs_store)

    # -- switch lowering --------------------------------------------------------

    def _emit_switch(self, instr: Switch) -> None:
        if not instr.cases:
            self._emit("jmp", [0], target=instr.default_label)
            return
        cases = sorted(instr.cases, key=lambda item: item[0])
        value = self._value_to_register(instr.value, SCRATCH_A)
        if value != SCRATCH_A:
            self._emit("mov", [SCRATCH_A, value])
            value = SCRATCH_A
        min_case = cases[0][0]
        max_case = cases[-1][0]
        span = max_case - min_case + 1
        holes = span - len(cases)
        dense_enough = (
            self.options.use_jump_tables
            and len(cases) >= self.options.jump_table_min_cases
            and holes <= self.options.jump_table_max_holes
            and span <= 512
        )
        if dense_enough:
            self._emit_jump_table(instr, cases, value, min_case, span)
        elif self.options.switch_binary_search and len(cases) > 4:
            self._emit_binary_search(cases, value, instr.default_label)
        else:
            self._emit_linear_switch(cases, value, instr.default_label)

    def _emit_linear_switch(self, cases, value: int, default_label: str) -> None:
        for case_value, label in cases:
            self._emit_load_immediate(SCRATCH_B, case_value)
            self._emit("cmpeq", [SCRATCH_DEST, value, SCRATCH_B])
            self._emit("bnez", [SCRATCH_DEST, 0], target=label)
        self._emit("jmp", [0], target=default_label)

    def _emit_binary_search(self, cases, value: int, default_label: str) -> None:
        def recurse(subset) -> None:
            if len(subset) <= 2:
                for case_value, label in subset:
                    self._emit_load_immediate(SCRATCH_B, case_value)
                    self._emit("cmpeq", [SCRATCH_DEST, value, SCRATCH_B])
                    self._emit("bnez", [SCRATCH_DEST, 0], target=label)
                self._emit("jmp", [0], target=default_label)
                return
            mid = len(subset) // 2
            mid_value, mid_label = subset[mid]
            low_label = self._new_synthetic_label("bslow")
            self._emit_load_immediate(SCRATCH_B, mid_value)
            self._emit("cmplt", [SCRATCH_DEST, value, SCRATCH_B])
            self._emit("bnez", [SCRATCH_DEST, 0], target=low_label)
            self._emit("cmpeq", [SCRATCH_DEST, value, SCRATCH_B])
            self._emit("bnez", [SCRATCH_DEST, 0], target=mid_label)
            recurse(subset[mid + 1 :])
            self._mark_label(low_label)
            recurse(subset[:mid])

        recurse(cases)

    def _emit_jump_table(self, instr: Switch, cases, value: int, min_case: int, span: int) -> None:
        table_symbol = self._new_synthetic_label("jt")
        targets = []
        case_map = dict(cases)
        for offset in range(span):
            targets.append(case_map.get(min_case + offset, instr.default_label))
        self.code.jump_tables[table_symbol] = targets
        if min_case:
            self._emit("subi", [SCRATCH_A, value, min_case])
            value = SCRATCH_A
        # Out-of-range values fall back to the default label.
        self._emit_load_immediate(SCRATCH_B, 0)
        self._emit("cmplt", [SCRATCH_DEST, value, SCRATCH_B])
        self._emit("bnez", [SCRATCH_DEST, 0], target=instr.default_label)
        self._emit_load_immediate(SCRATCH_B, span - 1)
        self._emit("cmpgt", [SCRATCH_DEST, value, SCRATCH_B])
        self._emit("bnez", [SCRATCH_DEST, 0], target=instr.default_label)
        self._emit("leag", [SCRATCH_B, 0], symbol=table_symbol)
        self._emit("add", [SCRATCH_B, SCRATCH_B, value])
        self._emit("ld", [SCRATCH_DEST, SCRATCH_B, 0])
        self._emit("ijmp", [SCRATCH_DEST])


def machine_peephole(code: FunctionCode) -> int:
    """Local machine-level cleanup (the ``-fpeephole2`` analog).

    Returns the number of rewrites applied.  Deletions keep label positions
    consistent by remapping them onto the following instruction.
    """
    rewrites = 0
    instructions = code.instructions
    keep: List[MachInstr] = []
    index_map: Dict[int, int] = {}
    previous: Optional[MachInstr] = None
    for index, instr in enumerate(instructions):
        index_map[index] = len(keep)
        replacement: Optional[MachInstr] = instr
        if instr.name == "mov" and instr.operands[0] == instr.operands[1]:
            replacement = None
        elif instr.name in ("addi", "subi") and instr.operands[2] == 0:
            if instr.operands[0] == instr.operands[1]:
                replacement = None
            else:
                replacement = MachInstr("mov", [instr.operands[0], instr.operands[1]])
            rewrites += 1
        elif instr.name == "muli" and instr.operands[2] == 1:
            if instr.operands[0] == instr.operands[1]:
                replacement = None
            else:
                replacement = MachInstr("mov", [instr.operands[0], instr.operands[1]])
            rewrites += 1
        elif instr.name == "muli" and instr.operands[2] > 1 and (instr.operands[2] & (instr.operands[2] - 1)) == 0:
            shift = instr.operands[2].bit_length() - 1
            replacement = MachInstr("shli", [instr.operands[0], instr.operands[1], shift])
            rewrites += 1
        elif instr.name == "movis" and instr.operands[1] == 0:
            replacement = MachInstr("xor", [instr.operands[0], instr.operands[0], instr.operands[0]])
            rewrites += 1
        elif (
            instr.name == "spadd"
            and previous is not None
            and previous.name == "spadd"
            and keep
            and keep[-1] is previous
            and not _is_label_target(code, index)
        ):
            previous.operands[0] += instr.operands[0]
            if previous.operands[0] == 0:
                keep.pop()
            replacement = None
            rewrites += 1
        if replacement is None:
            if instr.name == "mov" and instr.operands[0] == instr.operands[1]:
                rewrites += 1
            previous = keep[-1] if keep else None
            continue
        keep.append(replacement)
        previous = replacement
    index_map[len(instructions)] = len(keep)
    code.instructions = keep
    code.label_positions = {
        label: index_map[position] for label, position in code.label_positions.items()
    }
    return rewrites


def _is_label_target(code: FunctionCode, index: int) -> bool:
    return any(position == index for position in code.label_positions.values())


def generate_function(function: IRFunction, options: Optional[CodegenOptions] = None) -> FunctionCode:
    """Generate machine code for one IR function."""
    options = options or CodegenOptions()
    emitter = _FunctionEmitter(function, options)
    code = emitter.emit_function()
    if options.machine_peephole:
        machine_peephole(code)
    return code


def generate_module(module: IRModule, options: Optional[CodegenOptions] = None) -> List[FunctionCode]:
    """Generate machine code for every function in a module (layout order)."""
    options = options or CodegenOptions()
    return [generate_function(fn, options) for fn in module.functions.values()]
