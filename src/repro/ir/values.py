"""IR value kinds.

Instruction operands are one of:

* :class:`Temp` -- a single-assignment virtual register (``%t3``),
* :class:`ConstInt` -- a 64-bit signed integer constant,
* :class:`SymbolRef` -- the address of a named object (global array, string
  constant, or function) used by ``AddrOf``/``Call``/jump-table payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


MASK64 = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap an arbitrary Python integer to signed 64-bit two's complement."""
    value &= MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


@dataclass(frozen=True)
class Temp:
    """A virtual register.  Names are unique within a function."""

    name: str

    def __str__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class ConstInt:
    """A signed 64-bit integer constant."""

    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", wrap64(self.value))

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class SymbolRef:
    """The address of a named symbol (global data or function)."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


Value = Union[Temp, ConstInt, SymbolRef]


def format_value(value: Value) -> str:
    """Human-readable form of an operand."""
    return str(value)


def is_const(value: Value) -> bool:
    return isinstance(value, ConstInt)
