"""AST node definitions for mini-C.

Every node is a small dataclass.  Nodes keep the source line so that semantic
errors can point back at the program text.  The AST is deliberately close to
C's surface syntax; the interesting lowering decisions (short-circuit
evaluation, loop shapes, switch dispatch) are made in :mod:`repro.ir.builder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Type:
    """A mini-C type.

    ``kind`` is one of ``int``, ``char``, ``long``, ``void``.  Arrays are
    expressed with ``array_size`` (None means "not an array").  Pointers are
    modelled as arrays of unknown size (``array_size == -1``) which is enough
    for the benchmark corpus (array parameters decay to pointers).
    """

    kind: str
    array_size: Optional[int] = None
    unsigned: bool = False

    @property
    def is_array(self) -> bool:
        return self.array_size is not None

    @property
    def is_void(self) -> bool:
        return self.kind == "void" and not self.is_array

    def __str__(self) -> str:
        base = ("unsigned " if self.unsigned else "") + self.kind
        if self.array_size is None:
            return base
        if self.array_size < 0:
            return f"{base}*"
        return f"{base}[{self.array_size}]"


INT = Type("int")
LONG = Type("long")
CHAR = Type("char")
VOID = Type("void")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions."""

    line: int = 0


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class StringLiteral(Expr):
    value: str = ""


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class ArrayRef(Expr):
    name: str = ""
    index: Expr = None


@dataclass
class UnaryOp(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class TernaryOp(Expr):
    cond: Expr = None
    then: Expr = None
    otherwise: Expr = None


@dataclass
class Call(Expr):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Assignment(Expr):
    """Assignment expression: ``target = value`` or ``target op= value``."""

    target: Expr = None
    value: Expr = None
    op: str = "="


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    """Base class for statements."""

    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class VarDecl(Stmt):
    name: str = ""
    type: Type = None
    init: Optional[Expr] = None
    init_list: Optional[List[Expr]] = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class DoWhile(Stmt):
    body: Stmt = None
    cond: Expr = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class SwitchCase:
    """One ``case`` arm (or ``default`` when ``value`` is None)."""

    value: Optional[int]
    body: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class Switch(Stmt):
    expr: Expr = None
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param:
    name: str
    type: Type
    line: int = 0


@dataclass
class FunctionDef:
    name: str
    return_type: Type
    params: List[Param]
    body: Block
    line: int = 0
    is_static: bool = False


@dataclass
class GlobalVar:
    name: str
    type: Type
    init: Optional[Expr] = None
    init_list: Optional[List[Expr]] = None
    line: int = 0
    is_const: bool = False


@dataclass
class Program:
    """A full translation unit."""

    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[GlobalVar] = field(default_factory=list)
    name: str = "program"

    def function(self, name: str) -> FunctionDef:
        """Return the function definition called ``name``."""
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)

    def function_names(self) -> List[str]:
        return [fn.name for fn in self.functions]


def walk_expr(expr: Expr) -> Sequence[Expr]:
    """Yield ``expr`` and all sub-expressions (pre-order)."""
    out = [expr]
    if isinstance(expr, ArrayRef) and expr.index is not None:
        out.extend(walk_expr(expr.index))
    elif isinstance(expr, UnaryOp):
        out.extend(walk_expr(expr.operand))
    elif isinstance(expr, BinaryOp):
        out.extend(walk_expr(expr.left))
        out.extend(walk_expr(expr.right))
    elif isinstance(expr, TernaryOp):
        out.extend(walk_expr(expr.cond))
        out.extend(walk_expr(expr.then))
        out.extend(walk_expr(expr.otherwise))
    elif isinstance(expr, Call):
        for arg in expr.args:
            out.extend(walk_expr(arg))
    elif isinstance(expr, Assignment):
        out.extend(walk_expr(expr.target))
        out.extend(walk_expr(expr.value))
    return out


def walk_stmts(stmt: Stmt) -> Sequence[Stmt]:
    """Yield ``stmt`` and all nested statements (pre-order)."""
    out = [stmt]
    if isinstance(stmt, Block):
        for inner in stmt.statements:
            out.extend(walk_stmts(inner))
    elif isinstance(stmt, If):
        out.extend(walk_stmts(stmt.then))
        if stmt.otherwise is not None:
            out.extend(walk_stmts(stmt.otherwise))
    elif isinstance(stmt, While):
        out.extend(walk_stmts(stmt.body))
    elif isinstance(stmt, DoWhile):
        out.extend(walk_stmts(stmt.body))
    elif isinstance(stmt, For):
        if stmt.init is not None:
            out.extend(walk_stmts(stmt.init))
        out.extend(walk_stmts(stmt.body))
    elif isinstance(stmt, Switch):
        for case in stmt.cases:
            for inner in case.body:
                out.extend(walk_stmts(inner))
    return out
