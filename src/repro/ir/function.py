"""IR containers: basic blocks, functions, modules, global data."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.ir.instructions import Instruction, Jump, Ret, TERMINATORS
from repro.ir.values import Temp


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    label: str
    instructions: List[Instruction] = field(default_factory=list)
    align: int = 1

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def body(self) -> List[Instruction]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def is_terminated(self) -> bool:
        return self.terminator is not None

    def clone(self, new_label: Optional[str] = None) -> "BasicBlock":
        block = BasicBlock(new_label or self.label, align=self.align)
        block.instructions = [instr.clone() for instr in self.instructions]
        return block

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {instr}" for instr in self.instructions)
        return "\n".join(lines)


@dataclass
class LocalVariable:
    """A named local slot (scalar or fixed-size array)."""

    name: str
    size: int = 1  # number of 8-byte elements; 1 means scalar
    is_array: bool = False


@dataclass
class IRFunction:
    """A function: ordered basic blocks plus local slot declarations."""

    name: str
    params: List[str] = field(default_factory=list)
    blocks: Dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    locals: Dict[str, LocalVariable] = field(default_factory=dict)
    returns_value: bool = True
    is_static: bool = False
    _temp_counter: int = 0
    _label_counter: int = 0

    # -- construction helpers ---------------------------------------------

    def new_temp(self, hint: str = "t") -> Temp:
        self._temp_counter += 1
        return Temp(f"{hint}{self._temp_counter}")

    def new_label(self, hint: str = "bb") -> str:
        self._label_counter += 1
        label = f"{hint}{self._label_counter}"
        while label in self.blocks:
            self._label_counter += 1
            label = f"{hint}{self._label_counter}"
        return label

    def add_block(self, label: str) -> BasicBlock:
        if label in self.blocks:
            raise ValueError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self.blocks[label] = block
        return block

    def declare_local(self, name: str, size: int = 1, is_array: bool = False) -> None:
        self.locals[name] = LocalVariable(name, size, is_array)

    # -- queries -----------------------------------------------------------

    def block_order(self) -> List[str]:
        """Block labels in layout order (entry first)."""
        labels = list(self.blocks.keys())
        if self.entry in labels:
            labels.remove(self.entry)
            labels.insert(0, self.entry)
        return labels

    def iter_blocks(self) -> Iterator[BasicBlock]:
        for label in self.block_order():
            yield self.blocks[label]

    def instructions(self) -> Iterator[Instruction]:
        for block in self.iter_blocks():
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block.instructions) for block in self.blocks.values())

    def entry_block(self) -> BasicBlock:
        return self.blocks[self.entry]

    def has_calls(self) -> bool:
        from repro.ir.instructions import Call

        return any(isinstance(instr, Call) for instr in self.instructions())

    def called_functions(self) -> List[str]:
        from repro.ir.instructions import Call

        names = []
        for instr in self.instructions():
            if isinstance(instr, Call):
                names.append(instr.callee)
        return names

    # -- mutation helpers ---------------------------------------------------

    def remove_block(self, label: str) -> None:
        del self.blocks[label]

    def reorder_blocks(self, order: Iterable[str]) -> None:
        """Set the block layout order.  All labels must be present."""
        order = list(order)
        if set(order) != set(self.blocks):
            raise ValueError("reorder_blocks requires a permutation of all labels")
        self.blocks = {label: self.blocks[label] for label in order}

    def clone(self) -> "IRFunction":
        """An independent copy: fresh blocks, instructions and local slots.

        Operand values (``Temp``/``ConstInt``/``SymbolRef``) are immutable and
        stay shared.
        """
        return IRFunction(
            name=self.name,
            params=list(self.params),
            blocks={label: block.clone() for label, block in self.blocks.items()},
            entry=self.entry,
            locals={
                name: LocalVariable(local.name, local.size, local.is_array)
                for name, local in self.locals.items()
            },
            returns_value=self.returns_value,
            is_static=self.is_static,
            _temp_counter=self._temp_counter,
            _label_counter=self._label_counter,
        )

    def ensure_terminated(self) -> None:
        """Append a trailing return to any unterminated block."""
        for block in self.blocks.values():
            if not block.is_terminated():
                from repro.ir.values import ConstInt

                block.append(Ret(ConstInt(0) if self.returns_value else None))

    def __str__(self) -> str:
        params = ", ".join(self.params)
        lines = [f"func {self.name}({params}):"]
        for block in self.iter_blocks():
            lines.append(str(block))
        return "\n".join(lines)


@dataclass
class GlobalData:
    """A global data object: scalar, array or string constant."""

    name: str
    size: int = 1  # number of 8-byte elements
    init: List[int] = field(default_factory=list)
    is_const: bool = False
    is_string: bool = False

    def byte_size(self) -> int:
        return self.size * 8


@dataclass
class IRModule:
    """A compiled translation unit before code generation."""

    name: str
    functions: Dict[str, IRFunction] = field(default_factory=dict)
    globals: Dict[str, GlobalData] = field(default_factory=dict)

    def add_function(self, function: IRFunction) -> None:
        self.functions[function.name] = function

    def add_global(self, data: GlobalData) -> None:
        self.globals[data.name] = data

    def function(self, name: str) -> IRFunction:
        return self.functions[name]

    def function_names(self) -> List[str]:
        return list(self.functions.keys())

    def clone(self) -> "IRModule":
        """An independent copy of every function and global (see ``IRFunction.clone``)."""
        return IRModule(
            name=self.name,
            functions={name: function.clone() for name, function in self.functions.items()},
            globals={
                name: GlobalData(data.name, data.size, list(data.init), data.is_const, data.is_string)
                for name, data in self.globals.items()
            },
        )

    def total_instructions(self) -> int:
        return sum(fn.instruction_count() for fn in self.functions.values())

    def reorder_functions(self, order: Iterable[str]) -> None:
        order = list(order)
        if set(order) != set(self.functions):
            raise ValueError("reorder_functions requires a permutation of all names")
        self.functions = {name: self.functions[name] for name in order}

    def __str__(self) -> str:
        return "\n\n".join(str(fn) for fn in self.functions.values())
