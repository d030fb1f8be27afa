"""Scalar and CFG cleanup passes.

* constant folding and block-local constant/copy propagation,
* dead code elimination (unused temps, unreachable blocks, dead local stores),
* block-local common subexpression elimination,
* CFG simplification (jump threading, straight-line block merging),
* basic-block layout reordering (the ``-freorder-blocks`` analog).

Every entry point takes an :class:`IRFunction` (or module) and mutates it in
place, returning the number of rewrites so callers (and tests) can observe
whether anything happened.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir import cfg
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
)
from repro.ir.values import ConstInt, SymbolRef, Temp, Value, wrap64


def _fold_binop(op: str, left: int, right: int) -> Optional[int]:
    try:
        if op == "add":
            return wrap64(left + right)
        if op == "sub":
            return wrap64(left - right)
        if op == "mul":
            return wrap64(left * right)
        if op == "div":
            if right == 0:
                return None
            quotient = abs(left) // abs(right)
            return wrap64(-quotient if (left < 0) != (right < 0) else quotient)
        if op == "mod":
            if right == 0:
                return None
            quotient = abs(left) // abs(right)
            quotient = -quotient if (left < 0) != (right < 0) else quotient
            return wrap64(left - quotient * right)
        if op == "and":
            return wrap64(left & right)
        if op == "or":
            return wrap64(left | right)
        if op == "xor":
            return wrap64(left ^ right)
        if op == "shl":
            return wrap64(left << (right & 63))
        if op == "shr":
            return wrap64(left >> (right & 63))
        if op == "eq":
            return int(left == right)
        if op == "ne":
            return int(left != right)
        if op == "lt":
            return int(left < right)
        if op == "le":
            return int(left <= right)
        if op == "gt":
            return int(left > right)
        if op == "ge":
            return int(left >= right)
    except OverflowError:  # pragma: no cover - wrap64 prevents this
        return None
    return None


_IDENTITY_RULES = {
    ("add", 0): "lhs",
    ("sub", 0): "lhs",
    ("mul", 1): "lhs",
    ("div", 1): "lhs",
    ("shl", 0): "lhs",
    ("shr", 0): "lhs",
    ("or", 0): "lhs",
    ("xor", 0): "lhs",
    ("and", 0): "zero",
    ("mul", 0): "zero",
}


def constant_fold_function(function: IRFunction) -> int:
    """Fold constant expressions and algebraic identities.  Returns #rewrites."""
    rewrites = 0
    known: Dict[Value, Value]
    for block in function.blocks.values():
        known = {}
        new_instructions = []
        for instr in block.instructions:
            # Substitute temps already known to be constants/copies.
            if known:
                instr.replace_uses(known)
            replacement = instr
            if isinstance(instr, BinOp):
                lhs, rhs = instr.lhs, instr.rhs
                if isinstance(lhs, ConstInt) and isinstance(rhs, ConstInt):
                    folded = _fold_binop(instr.op, lhs.value, rhs.value)
                    if folded is not None:
                        replacement = Move(instr.dest, ConstInt(folded))
                        rewrites += 1
                elif isinstance(rhs, ConstInt):
                    rule = _IDENTITY_RULES.get((instr.op, rhs.value))
                    if rule == "lhs":
                        replacement = Move(instr.dest, lhs)
                        rewrites += 1
                    elif rule == "zero":
                        replacement = Move(instr.dest, ConstInt(0))
                        rewrites += 1
            elif isinstance(instr, UnOp) and isinstance(instr.operand, ConstInt):
                value = instr.operand.value
                if instr.op == "neg":
                    replacement = Move(instr.dest, ConstInt(wrap64(-value)))
                elif instr.op == "bnot":
                    replacement = Move(instr.dest, ConstInt(wrap64(~value)))
                elif instr.op == "not":
                    replacement = Move(instr.dest, ConstInt(int(value == 0)))
                rewrites += 1
            elif isinstance(instr, Select) and isinstance(instr.cond, ConstInt):
                chosen = instr.if_true if instr.cond.value != 0 else instr.if_false
                replacement = Move(instr.dest, chosen)
                rewrites += 1
            elif isinstance(instr, Branch) and isinstance(instr.cond, ConstInt):
                target = instr.true_label if instr.cond.value != 0 else instr.false_label
                replacement = Jump(target)
                rewrites += 1
            # Track constants and copies for in-block propagation.
            if isinstance(replacement, Move) and isinstance(replacement.src, (ConstInt, SymbolRef, Temp)):
                known[replacement.dest] = replacement.src
            new_instructions.append(replacement)
        block.instructions = new_instructions
    return rewrites


def propagate_copies_function(function: IRFunction) -> int:
    """Block-local store-to-load forwarding for scalar variable slots."""
    rewrites = 0
    address_taken = {
        instr.var for instr in function.instructions() if isinstance(instr, AddrOf)
    }
    for block in function.blocks.values():
        last_store: Dict[str, Value] = {}
        new_instructions = []
        for instr in block.instructions:
            if isinstance(instr, LoadVar) and instr.var in last_store and instr.var not in address_taken:
                new_instructions.append(Move(instr.dest, last_store[instr.var]))
                rewrites += 1
                continue
            if isinstance(instr, StoreVar):
                last_store[instr.var] = instr.value
            elif isinstance(instr, Call):
                # A call may modify globals; forget knowledge about globals.
                last_store = {
                    var: value for var, value in last_store.items() if var in function.locals
                }
            new_instructions.append(instr)
        block.instructions = new_instructions
    return rewrites


def eliminate_dead_code(function: IRFunction) -> int:
    """Remove unused pure temps, dead local stores and unreachable blocks."""
    removed = 0
    # Unreachable blocks.
    reachable = cfg.reachable_blocks(function)
    for label in list(function.blocks):
        if label not in reachable:
            removed += len(function.blocks[label].instructions)
            function.remove_block(label)

    # Count every temp's uses and every slot's observers (loads, address-of)
    # once; then removing an instruction only touches its own operands, and a
    # count reaching zero puts the instructions it was keeping alive back on
    # the worklist.
    instructions = [instr for block in function.blocks.values() for instr in block.instructions]
    defined: List[List[str]] = []
    used: List[List[str]] = []
    uses: Dict[str, int] = {}
    definers: Dict[str, List[int]] = {}
    observers: Dict[str, int] = {}
    stores: Dict[str, List[int]] = {}
    for index, instr in enumerate(instructions):
        defined.append([temp.name for temp in instr.defs()])
        used.append([value.name for value in instr.uses() if isinstance(value, Temp)])
        for name in defined[index]:
            definers.setdefault(name, []).append(index)
        for name in used[index]:
            uses[name] = uses.get(name, 0) + 1
        if isinstance(instr, (LoadVar, AddrOf)):
            observers[instr.var] = observers.get(instr.var, 0) + 1
        elif isinstance(instr, StoreVar):
            stores.setdefault(instr.var, []).append(index)

    dead = [False] * len(instructions)
    worklist = list(range(len(instructions)))
    while worklist:
        index = worklist.pop()
        if dead[index]:
            continue
        instr = instructions[index]
        if isinstance(instr, StoreVar):
            if instr.var not in function.locals or observers.get(instr.var):
                continue
        elif (
            instr.has_side_effects
            or instr.is_terminator
            or not defined[index]
            or any(uses.get(name) for name in defined[index])
        ):
            continue
        dead[index] = True
        removed += 1
        for name in used[index]:
            uses[name] -= 1
            if not uses[name]:
                worklist.extend(definers.get(name, ()))
        if isinstance(instr, (LoadVar, AddrOf)):
            observers[instr.var] -= 1
            if not observers[instr.var]:
                worklist.extend(stores.get(instr.var, ()))

    start = 0
    for block in function.blocks.values():
        end = start + len(block.instructions)
        if any(dead[start:end]):
            block.instructions = [
                instr for instr, gone in zip(block.instructions, dead[start:end]) if not gone
            ]
        start = end
    return removed


def common_subexpression_elimination(function: IRFunction) -> int:
    """Block-local CSE over pure binary/unary operations."""
    rewrites = 0
    for block in function.blocks.values():
        available: Dict[Tuple, Temp] = {}
        substitution: Dict[Value, Value] = {}
        for instr in block.instructions:
            if substitution:
                instr.replace_uses(substitution)
            key = None
            if isinstance(instr, BinOp):
                key = ("bin", instr.op, str(instr.lhs), str(instr.rhs))
            elif isinstance(instr, UnOp):
                key = ("un", instr.op, str(instr.operand))
            elif isinstance(instr, LoadIndex):
                # Loads are not safely reusable across stores; invalidate below.
                key = ("ldx", str(instr.base), str(instr.index))
            if isinstance(instr, (StoreIndex, Call, StoreVar)):
                available = {k: v for k, v in available.items() if k[0] != "ldx"}
            if key is not None:
                if key in available:
                    substitution[instr.defs()[0]] = available[key]
                    rewrites += 1
                else:
                    available[key] = instr.defs()[0]
        if substitution:
            # Remove instructions whose result was replaced.
            replaced = {temp.name for temp in substitution if isinstance(temp, Temp)}
            block.instructions = [
                instr
                for instr in block.instructions
                if not (instr.defs() and instr.defs()[0].name in replaced)
            ]
    return rewrites


def simplify_cfg(function: IRFunction) -> int:
    """Thread trivial jumps and merge straight-line block pairs."""
    rewrites = 0
    changed = True
    while changed:
        changed = False
        # Jump threading: a block containing only `jmp X` can be bypassed.
        trivial: Dict[str, str] = {}
        for label, block in function.blocks.items():
            if label == function.entry:
                continue
            if len(block.instructions) == 1 and isinstance(block.instructions[0], Jump):
                target = block.instructions[0].label
                if target != label:
                    trivial[label] = target
        # Resolve chains a->b->c.
        def resolve(label: str, seen=None) -> str:
            seen = seen or set()
            while label in trivial and label not in seen:
                seen.add(label)
                label = trivial[label]
            return label

        if trivial:
            mapping = {label: resolve(label) for label in trivial}
            for block in function.blocks.values():
                terminator = block.terminator
                if terminator is not None:
                    before = terminator.targets()
                    terminator.retarget(mapping)
                    if before != terminator.targets():
                        changed = True
                        rewrites += 1
        # Drop now-unreachable trivial blocks.
        graph = cfg.CFG(function)
        reachable = cfg.reachable_blocks(function, graph)
        for label in list(function.blocks):
            if label not in reachable:
                function.remove_block(label)
                changed = True
        # Merge A -> B when A's only successor is B and B's only predecessor is A.
        # The map is this loop's own copy (edges from the blocks just dropped
        # left out) and is kept current across merges.
        preds = {
            label: [pred for pred in graph.predecessors[label] if pred in reachable]
            for label in function.blocks
        }
        for label in list(function.blocks):
            if label not in function.blocks:
                continue
            block = function.blocks[label]
            terminator = block.terminator
            if not isinstance(terminator, Jump):
                continue
            target = terminator.label
            if target == label or target == function.entry:
                continue
            if len(preds.get(target, [])) != 1:
                continue
            successor = function.blocks[target]
            block.instructions = block.instructions[:-1] + successor.instructions
            function.remove_block(target)
            # The merged block takes over the absorbed block's out-edges.
            del preds[target]
            for succ in cfg.successors(function, label):
                if succ in preds:
                    sources = preds[succ]
                    sources[sources.index(target)] = label
            changed = True
            rewrites += 1
    return rewrites


def reorder_blocks(function: IRFunction, strategy: str = "rpo") -> int:
    """Change the block layout order (``-freorder-blocks`` analog).

    ``rpo`` lays blocks out in reverse postorder; ``cold_last`` additionally
    sinks blocks that terminate in a plain return of a constant (error/exit
    paths) to the end of the function.
    """
    original = function.block_order()
    order = [label for label in cfg.reverse_postorder(function) if label in function.blocks]
    remaining = [label for label in original if label not in order]
    order.extend(remaining)
    if strategy == "cold_last":
        hot, cold = [], []
        for label in order:
            block = function.blocks[label]
            terminator = block.terminator
            is_cold = (
                isinstance(terminator, Ret)
                and len(block.instructions) <= 2
                and label != function.entry
            )
            (cold if is_cold else hot).append(label)
        order = hot + cold
    if order == original:
        return 0
    function.reorder_blocks(order)
    return 1


def run_scalar_cleanups(function: IRFunction) -> int:
    """The standard cleanup bundle run between major transformations."""
    total = 0
    total += constant_fold_function(function)
    total += propagate_copies_function(function)
    total += constant_fold_function(function)
    total += eliminate_dead_code(function)
    return total


def module_scalar_cleanups(module: IRModule) -> int:
    return sum(run_scalar_cleanups(fn) for fn in module.functions.values())
