"""Control-flow-graph utilities over :class:`repro.ir.function.IRFunction`.

Provides successor/predecessor maps, reachability, reverse postorder,
dominator computation (iterative dataflow), and natural loop detection.  These
underpin the loop optimizations, if-conversion, block merging and the CFG
features consumed by the binary diffing tools.

The facts live on :class:`CFG`, a snapshot a pass takes of a function and
queries as often as it likes; the module-level functions answer the same
questions for callers that ask once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set

from repro.ir.function import IRFunction


def successors(function: IRFunction, label: str) -> List[str]:
    """Successor labels of a block, in terminator order."""
    terminator = function.blocks[label].terminator
    if terminator is None:
        return []
    targets = terminator.targets()  # a fresh list, safe to hand out
    if len(targets) < 2:
        return targets
    if len(targets) == 2:
        return targets if targets[0] != targets[1] else targets[:1]
    return list(dict.fromkeys(targets))


def successors_map(function: IRFunction) -> Dict[str, List[str]]:
    return {label: successors(function, label) for label in function.blocks}


def predecessors_map(function: IRFunction) -> Dict[str, List[str]]:
    return CFG(function).predecessors


@dataclass
class Loop:
    """A natural loop: header plus the set of blocks in the loop body."""

    header: str
    blocks: Set[str] = field(default_factory=set)
    back_edges: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.blocks)

    def __contains__(self, label: str) -> bool:
        return label in self.blocks


class CFG:
    """A snapshot of one function's control-flow graph.

    The successor table is read off the terminators once, at construction;
    every other fact is derived from it on first use.  A snapshot belongs to
    the pass invocation that built it: a pass takes one when it starts, takes
    a new one wherever it has changed control flow, and never stores it on
    the function or anywhere a later pass could read it stale.  Treat its
    tables as read-only.
    """

    def __init__(self, function: IRFunction) -> None:
        self.entry = function.entry
        self.successors: Dict[str, List[str]] = successors_map(function)

    @cached_property
    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {label: [] for label in self.successors}
        for label, succs in self.successors.items():
            for succ in succs:
                if succ in preds:
                    preds[succ].append(label)
        return preds

    @cached_property
    def reachable(self) -> Set[str]:
        """Labels reachable from the entry block."""
        seen: Set[str] = set()
        stack = [self.entry]
        while stack:
            label = stack.pop()
            if label in seen or label not in self.successors:
                continue
            seen.add(label)
            stack.extend(self.successors[label])
        return seen

    @cached_property
    def reverse_postorder(self) -> List[str]:
        """Reverse postorder over reachable blocks (entry first)."""
        succs = self.successors
        if self.entry not in succs:
            return []
        visited: Set[str] = {self.entry}
        order: List[str] = []
        stack = [(self.entry, iter(succs[self.entry]))]
        while stack:
            current, it = stack[-1]
            for succ in it:
                if succ not in visited and succ in succs:
                    visited.add(succ)
                    stack.append((succ, iter(succs[succ])))
                    break
            else:
                order.append(current)
                stack.pop()
        order.reverse()
        return order

    @cached_property
    def dominators(self) -> Dict[str, Set[str]]:
        """Map each reachable block to the set of blocks that dominate it."""
        reachable = self.reachable
        preds = self.predecessors
        dom: Dict[str, Set[str]] = {label: set(reachable) for label in reachable}
        if self.entry in dom:
            dom[self.entry] = {self.entry}
        changed = True
        while changed:
            changed = False
            for label in self.reverse_postorder:
                if label == self.entry:
                    continue
                pred_doms = [dom[p] for p in preds[label] if p in reachable]
                if pred_doms:
                    new_set = set.intersection(*pred_doms) | {label}
                else:
                    new_set = {label}
                if new_set != dom[label]:
                    dom[label] = new_set
                    changed = True
        return dom

    @cached_property
    def loops(self) -> List[Loop]:
        """Natural loops via back edges (edge to a dominator), by header."""
        dom = self.dominators
        preds = self.predecessors
        loops: Dict[str, Loop] = {}
        for label, dominators in dom.items():
            for succ in self.successors[label]:
                if succ in dominators:
                    # label -> succ is a back edge; succ is the loop header.
                    loop = loops.setdefault(succ, Loop(header=succ, blocks={succ}))
                    loop.back_edges.append(label)
                    # Collect the loop body by walking predecessors from the tail.
                    stack = [label]
                    while stack:
                        current = stack.pop()
                        if current in loop.blocks:
                            continue
                        loop.blocks.add(current)
                        stack.extend(p for p in preds.get(current, []) if p in dom)
        return sorted(loops.values(), key=lambda loop: loop.header)


# The four analyses below take the snapshot a pass already holds; without one
# they read the function afresh.


def reachable_blocks(function: IRFunction, graph: Optional[CFG] = None) -> Set[str]:
    """Labels reachable from the entry block."""
    return (graph or CFG(function)).reachable


def reverse_postorder(function: IRFunction, graph: Optional[CFG] = None) -> List[str]:
    """Reverse postorder over reachable blocks (entry first)."""
    return (graph or CFG(function)).reverse_postorder


def compute_dominators(function: IRFunction, graph: Optional[CFG] = None) -> Dict[str, Set[str]]:
    """Map each reachable block to the set of blocks that dominate it."""
    return (graph or CFG(function)).dominators


def natural_loops(function: IRFunction, graph: Optional[CFG] = None) -> List[Loop]:
    """Detect natural loops via back edges (edge to a dominator)."""
    return (graph or CFG(function)).loops


def immediate_dominators(function: IRFunction) -> Dict[str, str]:
    """Map each reachable non-entry block to its immediate dominator."""
    dom = compute_dominators(function)
    idom: Dict[str, str] = {}
    for label, dominators in dom.items():
        if label == function.entry:
            continue
        strict = dominators - {label}
        # The immediate dominator is the strict dominator dominated by all
        # other strict dominators.
        for candidate in strict:
            if all(candidate in dom[other] or other == candidate for other in strict):
                idom[label] = candidate
                break
    return idom


def edge_count(function: IRFunction) -> int:
    """Total number of CFG edges (counting duplicate targets once per block)."""
    return sum(len(successors(function, label)) for label in function.blocks)
