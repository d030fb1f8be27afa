"""Semantic analysis for mini-C.

The analyzer builds symbol tables, checks that every referenced variable and
function exists, validates call arities, array usage, ``break``/``continue``
placement, and annotates the program with the set of builtin library functions
it uses.  All scalar values are 64-bit integers in the simulated machine, so
type checking is mostly about array-vs-scalar shape rather than width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.minic import ast_nodes as ast


class SemanticError(Exception):
    """Raised when the program violates mini-C's static rules."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"{message} (line {line})" if line else message)
        self.line = line


#: Builtin library functions available to every program.  The value is the
#: arity; -1 means variadic.  These correspond to the libc calls that the
#: paper's benchmarks lean on (and that GCC may expand inline, see Fig. 3(d)).
BUILTIN_FUNCTIONS: Dict[str, int] = {
    "print_int": 1,
    "print_char": 1,
    "print_str": 1,
    "read_int": 0,
    "abs": 1,
    "min": 2,
    "max": 2,
    "strcpy": 2,
    "strcmp": 2,
    "strlen": 1,
    "memset": 3,
    "memcpy": 3,
    "malloc": 1,
    "free": 1,
    "rand": 0,
    "srand": 1,
    "exit": 1,
    "assert": 1,
}


@dataclass
class VariableInfo:
    """Resolved information about one variable."""

    name: str
    type: ast.Type
    is_global: bool
    is_param: bool = False
    address_taken: bool = False


@dataclass
class FunctionInfo:
    """Resolved information about one function."""

    name: str
    return_type: ast.Type
    param_types: List[ast.Type]
    is_builtin: bool = False
    is_static: bool = False


@dataclass
class ProgramInfo:
    """Result of semantic analysis over a whole program."""

    program: ast.Program
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    globals: Dict[str, VariableInfo] = field(default_factory=dict)
    locals: Dict[str, Dict[str, VariableInfo]] = field(default_factory=dict)
    used_builtins: Set[str] = field(default_factory=set)

class SemanticAnalyzer:
    """Checks a parsed program and produces a :class:`ProgramInfo`."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.info = ProgramInfo(program=program)
        self._scopes: List[Dict[str, VariableInfo]] = []
        self._current_function: Optional[ast.FunctionDef] = None
        self._loop_depth = 0
        self._switch_depth = 0

    # -- public API --------------------------------------------------------

    def analyze(self) -> ProgramInfo:
        self._collect_globals()
        self._collect_functions()
        for function in self.program.functions:
            self._check_function(function)
        if "main" not in self.info.functions:
            raise SemanticError("program has no 'main' function")
        return self.info

    # -- collection --------------------------------------------------------

    def _collect_globals(self) -> None:
        for var in self.program.globals:
            if var.name in self.info.globals:
                raise SemanticError(f"duplicate global variable {var.name!r}", var.line)
            if var.type.is_array and var.type.array_size is not None:
                if var.type.array_size is not None and var.type.array_size == 0:
                    raise SemanticError(
                        f"global array {var.name!r} has zero size", var.line
                    )
            self.info.globals[var.name] = VariableInfo(
                name=var.name, type=var.type, is_global=True
            )

    def _collect_functions(self) -> None:
        for name, arity in BUILTIN_FUNCTIONS.items():
            self.info.functions[name] = FunctionInfo(
                name=name,
                return_type=ast.INT,
                param_types=[ast.INT] * max(arity, 0),
                is_builtin=True,
            )
        for function in self.program.functions:
            if (
                function.name in self.info.functions
                and not self.info.functions[function.name].is_builtin
            ):
                raise SemanticError(
                    f"duplicate function definition {function.name!r}", function.line
                )
            self.info.functions[function.name] = FunctionInfo(
                name=function.name,
                return_type=function.return_type,
                param_types=[param.type for param in function.params],
                is_static=function.is_static,
            )

    # -- per-function checking ---------------------------------------------

    def _check_function(self, function: ast.FunctionDef) -> None:
        self._current_function = function
        self._scopes = [{}]
        seen_params: Set[str] = set()
        for param in function.params:
            if param.name in seen_params:
                raise SemanticError(
                    f"duplicate parameter {param.name!r} in {function.name}",
                    param.line,
                )
            seen_params.add(param.name)
            self._declare(
                VariableInfo(name=param.name, type=param.type, is_global=False, is_param=True),
                param.line,
            )
        self._check_block(function.body)
        flat: Dict[str, VariableInfo] = {}
        for scope in self._all_declared:
            flat.update(scope)
        self.info.locals[function.name] = flat
        self._current_function = None

    @property
    def _all_declared(self) -> List[Dict[str, VariableInfo]]:
        # The analyzer records every scope ever pushed so that the IR builder
        # can see the union of local declarations.
        if not hasattr(self, "_scope_history"):
            self._scope_history: List[Dict[str, VariableInfo]] = []
        return self._scope_history

    def _push_scope(self) -> None:
        scope: Dict[str, VariableInfo] = {}
        self._scopes.append(scope)
        self._all_declared.append(scope)

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _declare(self, var: VariableInfo, line: int) -> None:
        scope = self._scopes[-1]
        if var.name in scope:
            raise SemanticError(f"duplicate declaration of {var.name!r}", line)
        scope[var.name] = var
        if len(self._scopes) == 1:
            self._all_declared.append({var.name: var})

    def _lookup(self, name: str, line: int) -> VariableInfo:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self.info.globals:
            return self.info.globals[name]
        raise SemanticError(f"use of undeclared variable {name!r}", line)

    # -- statements --------------------------------------------------------

    def _check_block(self, block: ast.Block) -> None:
        self._push_scope()
        for stmt in block.statements:
            self._check_statement(stmt)
        self._pop_scope()

    def _check_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            if stmt.type.is_array and stmt.type.array_size == 0:
                raise SemanticError(f"array {stmt.name!r} has zero size", stmt.line)
            if stmt.init is not None:
                self._check_expression(stmt.init)
            if stmt.init_list is not None:
                for value in stmt.init_list:
                    self._check_expression(value)
            self._declare(
                VariableInfo(name=stmt.name, type=stmt.type, is_global=False), stmt.line
            )
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expression(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._check_expression(stmt.cond)
            self._check_statement(stmt.then)
            if stmt.otherwise is not None:
                self._check_statement(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            self._check_expression(stmt.cond)
            self._loop_depth += 1
            self._check_statement(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self._loop_depth += 1
            self._check_statement(stmt.body)
            self._loop_depth -= 1
            self._check_expression(stmt.cond)
        elif isinstance(stmt, ast.For):
            self._push_scope()
            if stmt.init is not None:
                self._check_statement(stmt.init)
            if stmt.cond is not None:
                self._check_expression(stmt.cond)
            if stmt.step is not None:
                self._check_expression(stmt.step)
            self._loop_depth += 1
            self._check_statement(stmt.body)
            self._loop_depth -= 1
            self._pop_scope()
        elif isinstance(stmt, ast.Switch):
            self._check_expression(stmt.expr)
            seen_values: Set[int] = set()
            default_count = 0
            self._switch_depth += 1
            for case in stmt.cases:
                if case.value is None:
                    default_count += 1
                    if default_count > 1:
                        raise SemanticError("multiple default labels", case.line)
                else:
                    if case.value in seen_values:
                        raise SemanticError(
                            f"duplicate case label {case.value}", case.line
                        )
                    seen_values.add(case.value)
                self._push_scope()
                for inner in case.body:
                    self._check_statement(inner)
                self._pop_scope()
            self._switch_depth -= 1
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0 and self._switch_depth == 0:
                raise SemanticError("'break' outside of loop or switch", stmt.line)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise SemanticError("'continue' outside of loop", stmt.line)
        elif isinstance(stmt, ast.Return):
            assert self._current_function is not None
            if stmt.value is not None:
                self._check_expression(stmt.value)
            elif not self._current_function.return_type.is_void:
                # C permits falling off; we only reject explicit `return;`
                # from a non-void function to keep the corpus honest.
                raise SemanticError(
                    f"non-void function {self._current_function.name!r} returns no value",
                    stmt.line,
                )
        else:  # pragma: no cover - defensive
            raise SemanticError(f"unknown statement node {type(stmt).__name__}", stmt.line)

    # -- expressions -------------------------------------------------------

    def _check_expression(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.IntLiteral, ast.StringLiteral)):
            return
        if isinstance(expr, ast.VarRef):
            self._lookup(expr.name, expr.line)
            return
        if isinstance(expr, ast.ArrayRef):
            var = self._lookup(expr.name, expr.line)
            if not var.type.is_array:
                raise SemanticError(f"{expr.name!r} is not an array", expr.line)
            self._check_expression(expr.index)
            return
        if isinstance(expr, ast.UnaryOp):
            self._check_expression(expr.operand)
            return
        if isinstance(expr, ast.BinaryOp):
            self._check_expression(expr.left)
            self._check_expression(expr.right)
            return
        if isinstance(expr, ast.TernaryOp):
            self._check_expression(expr.cond)
            self._check_expression(expr.then)
            self._check_expression(expr.otherwise)
            return
        if isinstance(expr, ast.Assignment):
            if not isinstance(expr.target, (ast.VarRef, ast.ArrayRef)):
                raise SemanticError("invalid assignment target", expr.line)
            self._check_expression(expr.target)
            self._check_expression(expr.value)
            return
        if isinstance(expr, ast.Call):
            info = self.info.functions.get(expr.name)
            if info is None:
                raise SemanticError(f"call to undefined function {expr.name!r}", expr.line)
            if info.is_builtin:
                self.info.used_builtins.add(expr.name)
                arity = BUILTIN_FUNCTIONS[expr.name]
                if arity >= 0 and len(expr.args) != arity:
                    raise SemanticError(
                        f"builtin {expr.name!r} expects {arity} arguments, "
                        f"got {len(expr.args)}",
                        expr.line,
                    )
            else:
                if len(expr.args) != len(info.param_types):
                    raise SemanticError(
                        f"function {expr.name!r} expects {len(info.param_types)} "
                        f"arguments, got {len(expr.args)}",
                        expr.line,
                    )
            for arg in expr.args:
                self._check_expression(arg)
            return
        raise SemanticError(f"unknown expression node {type(expr).__name__}", expr.line)


def analyze(program: ast.Program) -> ProgramInfo:
    """Run semantic analysis over ``program``."""
    return SemanticAnalyzer(program).analyze()
