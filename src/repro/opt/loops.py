"""Loop transformations: unrolling, peeling, invariant hoisting, vectorization.

All passes operate on the canonical loop shape produced by the frontend's
``for``/``while`` lowering:

* a *header* (condition) block of the form
  ``t = load i; c = cmp t, bound; br c, body, exit``
* a single *body* block ending in a jump to the *step* block (or directly back
  to the header for ``while`` loops),
* an optional *step* block ``i = i (+|-)= constant`` jumping back to the header.

Loops that already lost this shape (because earlier passes rewrote them) are
left untouched, which mirrors how real loop passes bail out on non-canonical
regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir import cfg
from repro.ir.function import IRFunction, IRModule
from repro.ir.instructions import (
    BinOp,
    Branch,
    Call,
    Jump,
    LoadIndex,
    LoadVar,
    Move,
    StoreIndex,
    StoreVar,
    VecBinOp,
    VecLoad,
    VecStore,
)
from repro.ir.values import ConstInt, Temp, Value
from repro.opt.cloning import clone_blocks


@dataclass
class CountedLoop:
    """A recognized counted loop ``for (i = start; i <cmp> bound; i += step)``."""

    header: str
    body: str
    step_block: Optional[str]
    exit: str
    counter: str
    compare_op: str
    bound: Value
    step: int
    start: Optional[int]  # known constant initial value, if any
    #: scalar variable the bound was loaded from in the header, if any
    bound_var: Optional[str] = None


def _single_body_loops(function: IRFunction, graph: cfg.CFG) -> List[CountedLoop]:
    """Find canonical counted loops with a single body block.

    ``graph`` is the caller's snapshot of ``function`` as it is now.
    """
    loops: List[CountedLoop] = []
    preds = graph.predecessors
    for loop in cfg.natural_loops(function, graph):
        header = function.blocks.get(loop.header)
        if header is None:
            continue
        # Header: load counter, [load bound,] compare, conditional branch.
        instructions = header.instructions
        bound_var: Optional[str] = None
        if len(instructions) == 3:
            load, compare, branch = instructions
        elif len(instructions) == 4:
            load, bound_load, compare, branch = instructions
            if not (
                isinstance(bound_load, LoadVar)
                and isinstance(compare, BinOp)
                and isinstance(compare.rhs, Temp)
                and compare.rhs.name == bound_load.dest.name
            ):
                continue
            bound_var = bound_load.var
        else:
            continue
        if not (isinstance(load, LoadVar) and isinstance(compare, BinOp) and isinstance(branch, Branch)):
            continue
        if compare.op not in ("lt", "le", "gt", "ge", "ne"):
            continue
        if not (isinstance(compare.lhs, Temp) and compare.lhs.name == load.dest.name):
            continue
        body_label = branch.true_label
        exit_label = branch.false_label
        if body_label not in loop.blocks or exit_label in loop.blocks:
            continue
        loop_members = loop.blocks - {loop.header}
        if len(loop_members) == 1:
            body_label_only = next(iter(loop_members))
            body = function.blocks[body_label_only]
            step_label: Optional[str] = None
            step_value = None
            # while-style: body jumps straight back to the header and the
            # counter update lives inside the body.
            terminator = body.terminator
            if not isinstance(terminator, Jump) or terminator.label != loop.header:
                continue
            step_value, counter_ok = _trailing_counter_update(body, load.var)
            if not counter_ok:
                continue
            loops.append(
                CountedLoop(
                    header=loop.header,
                    body=body_label_only,
                    step_block=None,
                    exit=exit_label,
                    counter=load.var,
                    compare_op=compare.op,
                    bound=compare.rhs,
                    step=step_value,
                    start=_constant_initial_value(function, loop.header, load.var, preds, loop),
                    bound_var=bound_var,
                )
            )
        elif len(loop_members) == 2:
            # for-style: body -> step -> header.
            body_label2 = branch.true_label
            if body_label2 not in loop_members:
                continue
            body = function.blocks[body_label2]
            terminator = body.terminator
            if not isinstance(terminator, Jump):
                continue
            step_label = terminator.label
            if step_label not in loop_members or step_label == body_label2:
                continue
            step_block = function.blocks[step_label]
            step_terminator = step_block.terminator
            if not isinstance(step_terminator, Jump) or step_terminator.label != loop.header:
                continue
            step_value, counter_ok = _trailing_counter_update(step_block, load.var)
            if not counter_ok:
                continue
            loops.append(
                CountedLoop(
                    header=loop.header,
                    body=body_label2,
                    step_block=step_label,
                    exit=exit_label,
                    counter=load.var,
                    compare_op=compare.op,
                    bound=compare.rhs,
                    step=step_value,
                    start=_constant_initial_value(function, loop.header, load.var, preds, loop),
                    bound_var=bound_var,
                )
            )
    return loops


def _trailing_counter_update(block, counter: str) -> Tuple[int, bool]:
    """Check the block updates ``counter`` by a constant exactly once."""
    update = 0
    count = 0
    instructions = block.body
    for index, instr in enumerate(instructions):
        if isinstance(instr, StoreVar) and instr.var == counter:
            count += 1
            # Expect: t1 = load counter ; t2 = add t1, C ; store counter, t2
            if index >= 1 and isinstance(instructions[index - 1], BinOp):
                binop = instructions[index - 1]
                if (
                    binop.op in ("add", "sub")
                    and isinstance(binop.rhs, ConstInt)
                    and isinstance(instr.value, Temp)
                    and instr.value.name == binop.dest.name
                ):
                    delta = binop.rhs.value if binop.op == "add" else -binop.rhs.value
                    update = delta
                    continue
            return 0, False
    if count != 1 or update == 0:
        return 0, False
    return update, True


def _constant_initial_value(function, header, counter, preds, loop) -> Optional[int]:
    """The counter's constant value on loop entry, if provable."""
    entries = [p for p in preds.get(header, []) if p not in loop.blocks]
    if len(entries) != 1:
        return None
    block = function.blocks[entries[0]]
    value: Optional[int] = None
    for instr in block.instructions:
        if isinstance(instr, StoreVar) and instr.var == counter:
            value = instr.value.value if isinstance(instr.value, ConstInt) else None
    return value


def _trip_count(loop: CountedLoop) -> Optional[int]:
    if loop.start is None or not isinstance(loop.bound, ConstInt):
        return None
    bound = loop.bound.value
    start = loop.start
    step = loop.step
    if step == 0:
        return None
    if loop.compare_op == "lt" and step > 0:
        count = max(0, -(-(bound - start) // step)) if bound > start else 0
    elif loop.compare_op == "le" and step > 0:
        count = max(0, (bound - start) // step + 1) if bound >= start else 0
    elif loop.compare_op == "gt" and step < 0:
        count = max(0, -(-(start - bound) // -step)) if start > bound else 0
    elif loop.compare_op == "ge" and step < 0:
        count = max(0, (start - bound) // -step + 1) if start >= bound else 0
    else:
        return None
    return count


# ---------------------------------------------------------------------------
# Unrolling and peeling
# ---------------------------------------------------------------------------


def unroll_loops(
    function: IRFunction,
    full_threshold: int = 8,
    partial_factor: int = 2,
    max_body_instructions: int = 40,
    allow_partial: bool = True,
) -> int:
    """Fully unroll small constant-trip-count loops; otherwise duplicate the
    body ``partial_factor`` times inside the loop (keeping intermediate exit
    tests, so the transformation is always safe).  Returns #loops changed."""
    changed = 0
    for loop in _single_body_loops(function, cfg.CFG(function)):
        body = function.blocks.get(loop.body)
        header = function.blocks.get(loop.header)
        if body is None or header is None:
            continue
        if len(body.instructions) > max_body_instructions:
            continue
        trip = _trip_count(loop)
        if trip is not None and 0 < trip <= full_threshold:
            _fully_unroll(function, loop, trip)
            changed += 1
        elif allow_partial and partial_factor > 1:
            if _partially_unroll(function, loop, partial_factor):
                changed += 1
    return changed


def _loop_body_labels(loop: CountedLoop) -> List[str]:
    labels = [loop.body]
    if loop.step_block:
        labels.append(loop.step_block)
    return labels


def _loop_entries(graph: cfg.CFG, loop: CountedLoop) -> List[str]:
    """Predecessors of the loop header from outside the loop."""
    inside = _loop_body_labels(loop) + [loop.header]
    return [p for p in graph.predecessors.get(loop.header, []) if p not in inside]


def _fully_unroll(function: IRFunction, loop: CountedLoop, trip: int) -> None:
    """Replace the whole loop with ``trip`` chained copies of its body."""
    labels = _loop_body_labels(loop)
    chain_entry: Optional[str] = None
    previous_tail: Optional[str] = None
    for iteration in range(trip):
        label_map, new_blocks = clone_blocks(function, labels, f"unroll{iteration}")
        first = label_map[labels[0]]
        last_label = label_map[labels[-1]]
        last_block = function.blocks[last_label]
        # The copy's jump back to the header becomes a fallthrough to the next
        # copy (patched on the following iteration) or to the exit.
        if isinstance(last_block.terminator, Jump):
            last_block.instructions[-1] = Jump(loop.exit)
        if chain_entry is None:
            chain_entry = first
        if previous_tail is not None:
            tail_block = function.blocks[previous_tail]
            if isinstance(tail_block.terminator, Jump):
                tail_block.instructions[-1] = Jump(first)
        previous_tail = last_label
    # Redirect every entry into the old header to the first copy; the header's
    # original compare is no longer needed.
    header_block = function.blocks[loop.header]
    header_block.instructions = [Jump(chain_entry if chain_entry else loop.exit)]
    # Remove the original body/step blocks (now unreachable).
    for label in labels:
        if label in function.blocks:
            function.remove_block(label)


def _partially_unroll(function: IRFunction, loop: CountedLoop, factor: int) -> bool:
    """Duplicate header+body inside the loop ``factor-1`` extra times."""
    labels = [loop.header] + _loop_body_labels(loop)
    previous_back_source = function.blocks[_loop_body_labels(loop)[-1]]
    for copy in range(factor - 1):
        label_map, _ = clone_blocks(function, labels, f"pu{copy}")
        # Previous copy's back edge now targets the cloned header.
        if isinstance(previous_back_source.terminator, Jump):
            previous_back_source.instructions[-1] = Jump(label_map[loop.header])
        else:
            return False
        cloned_tail_label = label_map[_loop_body_labels(loop)[-1]]
        previous_back_source = function.blocks[cloned_tail_label]
    # Close the loop: the last copy branches back to the original header.
    if isinstance(previous_back_source.terminator, Jump):
        previous_back_source.instructions[-1] = Jump(loop.header)
    return True


def peel_loops(function: IRFunction, iterations: int = 1) -> int:
    """Peel the first iteration(s) of canonical loops (``-fpeel-loops``)."""
    changed = 0
    graph = cfg.CFG(function)
    for loop in _single_body_loops(function, graph):
        entries = _loop_entries(graph, loop)
        if len(entries) != 1:
            continue
        entry_block = function.blocks[entries[0]]
        labels = [loop.header] + _loop_body_labels(loop)
        label_map, new_blocks = clone_blocks(function, labels, "peel")
        # The peeled copy's back edge continues into the original loop header.
        tail = function.blocks[label_map[labels[-1]]]
        if isinstance(tail.terminator, Jump):
            tail.instructions[-1] = Jump(loop.header)
        # Entry now flows into the peeled header copy.
        terminator = entry_block.terminator
        if terminator is not None:
            terminator.retarget({loop.header: label_map[loop.header]})
        graph = cfg.CFG(function)  # the peeled copy changed control flow
        changed += 1
    return changed


# ---------------------------------------------------------------------------
# Loop-invariant code motion
# ---------------------------------------------------------------------------


def hoist_loop_invariants(function: IRFunction) -> int:
    """Hoist pure, loop-invariant computations into a preheader block."""
    hoisted = 0
    graph = cfg.CFG(function)
    for loop in _single_body_loops(function, graph):
        body = function.blocks.get(loop.body)
        if body is None:
            continue
        entries = _loop_entries(graph, loop)
        if len(entries) != 1:
            continue
        stored_vars = {
            instr.var
            for label in [loop.body] + ([loop.step_block] if loop.step_block else [])
            for instr in function.blocks[label].instructions
            if isinstance(instr, StoreVar)
        }
        has_calls = any(
            isinstance(instr, Call) for instr in body.instructions
        )
        invariant: List = []
        invariant_temps = set()
        for instr in body.body:
            if isinstance(instr, LoadVar) and instr.var not in stored_vars and not has_calls:
                if instr.var in function.locals or not has_calls:
                    invariant.append(instr)
                    invariant_temps.add(instr.dest.name)
                    continue
            if isinstance(instr, (BinOp, Move)) and not instr.has_side_effects:
                if isinstance(instr, BinOp) and instr.op in ("div", "mod"):
                    # Hoisting a division could trap on a zero divisor that the
                    # loop guard was protecting against.
                    continue
                operands = instr.uses()
                if all(
                    isinstance(op, ConstInt)
                    or (isinstance(op, Temp) and op.name in invariant_temps)
                    for op in operands
                ):
                    invariant.append(instr)
                    for temp in instr.defs():
                        invariant_temps.add(temp.name)
        if not invariant:
            continue
        # Create a preheader between the entry and the loop header.
        preheader_label = function.new_label(f"{loop.header}.pre")
        preheader = function.blocks.get(preheader_label)
        if preheader is None:
            preheader = function.add_block(preheader_label)
        for instr in invariant:
            body.instructions.remove(instr)
            preheader.append(instr)
        preheader.append(Jump(loop.header))
        entry_terminator = function.blocks[entries[0]].terminator
        if entry_terminator is not None:
            entry_terminator.retarget({loop.header: preheader_label})
        graph = cfg.CFG(function)  # the preheader changed control flow
        hoisted += len(invariant)
    return hoisted


# ---------------------------------------------------------------------------
# Loop vectorization
# ---------------------------------------------------------------------------


def vectorize_loops(function: IRFunction, width: int = 4) -> int:
    """Vectorize element-wise array loops: ``c[i] = a[i] OP b[i]``.

    The loop is rewritten into a vector loop processing ``width`` elements per
    iteration followed by the original scalar loop as the remainder handler —
    the classic strip-mining shape, and exactly the kind of transformation
    shown in the paper's Figure 3(c).
    """
    vectorized = 0
    graph = cfg.CFG(function)
    for loop in _single_body_loops(function, graph):
        if loop.step != 1 or loop.compare_op != "lt":
            continue
        if isinstance(loop.bound, Temp) and loop.bound_var is None:
            # The bound temporary is defined inside the header and would not
            # dominate the new vector header; bail out.
            continue
        body = function.blocks.get(loop.body)
        header = function.blocks.get(loop.header)
        if body is None or header is None:
            continue
        pattern = _match_elementwise_body(body, loop)
        if pattern is None:
            continue
        load_a, load_b, binop, store_c = pattern
        if binop.op not in ("add", "sub", "mul"):
            continue
        entries = _loop_entries(graph, loop)
        if len(entries) != 1:
            continue
        entry_block = function.blocks[entries[0]]

        vheader_label = function.new_label("vec.cond")
        vbody_label = function.new_label("vec.body")
        vheader = function.add_block(vheader_label)
        vbody = function.add_block(vbody_label)

        # Vector header: continue while i + width <= bound.
        counter_temp = function.new_temp("vi")
        limit_temp = function.new_temp("vl")
        cond_temp = function.new_temp("vc")
        vheader.append(LoadVar(counter_temp, loop.counter))
        vheader.append(BinOp(limit_temp, "add", counter_temp, ConstInt(width)))
        bound_value = loop.bound
        if isinstance(loop.bound, Temp) and loop.bound_var is not None:
            bound_value = function.new_temp("vbnd")
            vheader.append(LoadVar(bound_value, loop.bound_var))
        vheader.append(BinOp(cond_temp, "le", limit_temp, bound_value))
        vheader.append(Branch(cond_temp, vbody_label, loop.header))

        # Vector body: vload, vop, vstore, i += width.
        index_temp = function.new_temp("vx")
        vec_a = function.new_temp("va")
        vec_b = function.new_temp("vb")
        vec_r = function.new_temp("vr")
        next_temp = function.new_temp("vn")
        vbody.append(LoadVar(index_temp, loop.counter))
        base_a = _rematerialize_base(function, vbody, body, load_a.base)
        vbody.append(VecLoad(vec_a, base_a, index_temp, width))
        base_b = _rematerialize_base(function, vbody, body, load_b.base)
        vbody.append(VecLoad(vec_b, base_b, index_temp, width))
        vbody.append(VecBinOp(vec_r, binop.op, vec_a, vec_b, width))
        base_c = _rematerialize_base(function, vbody, body, store_c.base)
        vbody.append(VecStore(base_c, index_temp, vec_r, width))
        vbody.append(BinOp(next_temp, "add", index_temp, ConstInt(width)))
        vbody.append(StoreVar(loop.counter, next_temp))
        vbody.append(Jump(vheader_label))

        # Entry flows into the vector loop; its exit is the scalar loop header.
        entry_terminator = entry_block.terminator
        if entry_terminator is not None:
            entry_terminator.retarget({loop.header: vheader_label})
        graph = cfg.CFG(function)  # the vector loop changed control flow
        vectorized += 1
    return vectorized


def _match_elementwise_body(body, loop: CountedLoop):
    """Match a body of the exact shape a[i] OP b[i] -> c[i] (plus counter update)."""
    loads: List[LoadIndex] = []
    stores: List[StoreIndex] = []
    binops: List[BinOp] = []
    index_temps = set()
    for instr in body.body:
        if isinstance(instr, LoadVar) and instr.var == loop.counter:
            index_temps.add(instr.dest.name)
        elif isinstance(instr, LoadVar):
            return None
        elif isinstance(instr, LoadIndex):
            loads.append(instr)
        elif isinstance(instr, StoreIndex):
            stores.append(instr)
        elif isinstance(instr, BinOp):
            binops.append(instr)
        elif isinstance(instr, StoreVar):
            if instr.var != loop.counter:
                return None
        elif isinstance(instr, Move):
            continue
        elif type(instr).__name__ == "AddrOf":
            continue
        elif isinstance(instr, (Jump, Branch)):
            continue
        else:
            return None
    if len(loads) != 2 or len(stores) != 1:
        return None
    # Apart from the matched element-wise operation, the only arithmetic
    # allowed is the counter update (a BinOp with a constant operand).
    for candidate in binops:
        if isinstance(candidate.rhs, ConstInt) or isinstance(candidate.lhs, ConstInt):
            continue
        if not (
            isinstance(candidate.lhs, Temp)
            and isinstance(candidate.rhs, Temp)
            and candidate.lhs.name in {loads[0].dest.name, loads[1].dest.name}
            and candidate.rhs.name in {loads[0].dest.name, loads[1].dest.name}
        ):
            return None
    arithmetic = [b for b in binops if b.op in ("add", "sub", "mul")
                  and isinstance(b.lhs, Temp) and isinstance(b.rhs, Temp)
                  and b.lhs.name in {loads[0].dest.name, loads[1].dest.name}
                  and b.rhs.name in {loads[0].dest.name, loads[1].dest.name}]
    if len(arithmetic) != 1:
        return None
    binop = arithmetic[0]
    store = stores[0]
    if not (isinstance(store.value, Temp) and store.value.name == binop.dest.name):
        return None
    # All indices must be the loop counter.
    def uses_counter(value: Value) -> bool:
        return isinstance(value, Temp) and value.name in index_temps

    if not (uses_counter(loads[0].index) and uses_counter(loads[1].index) and uses_counter(store.index)):
        return None
    return loads[0], loads[1], binop, store


def _rematerialize_base(function: IRFunction, target_block, source_block, base: Value) -> Value:
    """Recompute an array base address inside the vector body."""
    if not isinstance(base, Temp):
        return base
    for instr in source_block.instructions:
        if instr.defs() and instr.defs()[0].name == base.name:
            clone = instr.clone()
            new_temp = function.new_temp("vbase")
            clone.dest = new_temp  # type: ignore[attr-defined]
            target_block.append(clone)
            return new_temp
    return base


def module_loop_pass(module: IRModule, pass_fn, **kwargs) -> int:
    """Apply a per-function loop pass across a module."""
    return sum(pass_fn(fn, **kwargs) for fn in module.functions.values())
