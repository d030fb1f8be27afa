"""Compile-path identity: the images are a frozen contract.

``tests/data/image_digests.json`` was produced by
``tests/data/generate_image_digests.py`` run against the *parent* of the
change that made the compile path cheaper (see that script for the
regenerate command), so the reference is not the compiler under test.  The
test never regenerates it.

Beside the digests, the substrate the speed-up rests on is checked against
independent oracles: ``IRModule.clone()`` against ``copy.deepcopy``, the CFG
snapshot against the from-scratch algorithms it replaced (kept below) after
every pass of a sample of those compiles, and the table-driven instruction
encoder against its decoder and its documented range errors.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest

from repro.backend.isa import (
    OPCODES_BY_NAME,
    EncodingError,
    MachInstr,
    decode_instruction,
    encode_instruction,
)
from repro.ir import cfg
from repro.ir.function import IRFunction
from repro.ir.instructions import Jump
from repro.opt import pass_manager
from repro.workloads.suites import benchmark

sys.path.insert(0, str(Path(__file__).parent / "data"))
import generate_image_digests as golden  # noqa: E402

GOLDEN = json.loads(golden.DIGEST_FILE.read_text())


# ---------------------------------------------------------------------------
# From-scratch CFG oracle: the seed's algorithms, reading the instruction
# lists on every query.
# ---------------------------------------------------------------------------


def _oracle_successors(function: IRFunction, label: str) -> List[str]:
    terminator = function.blocks[label].terminator
    out: List[str] = []
    for target in terminator.targets() if terminator is not None else []:
        if target not in out:
            out.append(target)
    return out


def _oracle_predecessors(function: IRFunction) -> Dict[str, List[str]]:
    preds: Dict[str, List[str]] = {label: [] for label in function.blocks}
    for label in function.blocks:
        for succ in _oracle_successors(function, label):
            if succ in preds:
                preds[succ].append(label)
    return preds


def _oracle_reachable(function: IRFunction) -> Set[str]:
    seen: Set[str] = set()
    stack = [function.entry]
    while stack:
        label = stack.pop()
        if label not in seen and label in function.blocks:
            seen.add(label)
            stack.extend(_oracle_successors(function, label))
    return seen


def _oracle_dominators(function: IRFunction, preds) -> Dict[str, Set[str]]:
    reachable = _oracle_reachable(function)
    dom = {label: set(reachable) for label in reachable}
    dom[function.entry] = {function.entry}
    changed = True
    while changed:
        changed = False
        for label in reachable - {function.entry}:
            incoming = [dom[p] for p in preds[label] if p in reachable]
            new = (set.intersection(*incoming) if incoming else set()) | {label}
            if new != dom[label]:
                dom[label], changed = new, True
    return dom


def _oracle_loops(function: IRFunction, dom, preds) -> Dict[str, tuple]:
    """header -> (body blocks, sorted back-edge sources)."""
    loops: Dict[str, tuple] = {}
    for label in dom:
        for succ in _oracle_successors(function, label):
            if succ in dom[label]:
                body, tails = loops.setdefault(succ, ({succ}, []))
                tails.append(label)
                stack = [label]
                while stack:
                    current = stack.pop()
                    if current not in body:
                        body.add(current)
                        stack.extend(p for p in preds[current] if p in dom)
    return {header: (body, sorted(tails)) for header, (body, tails) in loops.items()}


def _check_cfg_facts(function: IRFunction) -> None:
    """Snapshot, snapshot-taking free functions and bare free functions all
    agree with the oracle on ``function`` as it is right now."""
    graph = cfg.CFG(function)
    preds = _oracle_predecessors(function)
    dominators = _oracle_dominators(function, preds)
    loops = _oracle_loops(function, dominators, preds)
    assert graph.predecessors == cfg.predecessors_map(function) == preds
    assert graph.reachable == cfg.reachable_blocks(function) == set(dominators)
    assert cfg.compute_dominators(function, graph) == cfg.compute_dominators(function) == dominators
    for found in (cfg.natural_loops(function, graph), cfg.natural_loops(function)):
        assert {loop.header: (loop.blocks, sorted(loop.back_edges)) for loop in found} == loops
    order = cfg.reverse_postorder(function, graph)
    assert order[:1] == [function.entry] and set(order) == graph.reachable
    assert order == cfg.reverse_postorder(function)


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench", golden.BENCHMARKS)
def test_images_match_golden_digests(bench):
    source = benchmark(bench).source
    seen = 0
    for compiler_name, factory in golden.COMPILERS.items():
        compiler = factory()
        for vector_name, flags in golden.flag_vectors(compiler.registry):
            image = compiler.compile(source, flags, name=bench).image
            assert golden.image_record(image) == GOLDEN[f"{bench}/{compiler_name}/{vector_name}"], (
                f"{bench}/{compiler_name}/{vector_name}: image differs from the frozen digest"
            )
            seen += 1
    assert seen == len([key for key in GOLDEN if key.startswith(f"{bench}/")]) == 24


# ---------------------------------------------------------------------------
# CFG snapshot vs. the oracle, after every pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench", ("429.mcf", "648.exchange2_s", "458.sjeng"))
def test_cfg_snapshot_matches_oracle_after_every_pass(bench, monkeypatch):
    verify = pass_manager.verify_module
    stages = 0

    def verify_and_check_cfg(module):
        nonlocal stages
        stages += 1
        for function in module.functions.values():
            _check_cfg_facts(function)
        return verify(module)

    monkeypatch.setattr(pass_manager, "verify_module", verify_and_check_cfg)
    source = benchmark(bench).source
    compiles = 0
    for compiler_name in ("SimGCC", "SimLLVM"):
        compiler = golden.COMPILERS[compiler_name](verify_each_stage=True)
        for vector_name, flags in golden.flag_vectors(compiler.registry):
            if vector_name in ("O3", "random-11"):
                image = compiler.compile(source, flags, name=bench).image
                assert image.sha256() == GOLDEN[f"{bench}/{compiler_name}/{vector_name}"]["sha256"]
                compiles += 1
    assert compiles == 4 and stages > 10 * compiles  # the oracle ran between passes


# ---------------------------------------------------------------------------
# Structural clone vs. deepcopy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench", golden.BENCHMARKS)
def test_clone_equals_deepcopy_and_is_independent(bench):
    compiler = golden.COMPILERS["SimLLVM"]()
    pristine = compiler.frontend(benchmark(bench).source, name=bench)
    optimized = compiler.pass_manager.run(pristine, compiler.preset("O3"))
    for module in (pristine, optimized):
        reference = copy.deepcopy(module)
        clone = module.clone()
        assert clone == reference
        # Nothing mutable is shared: wreck the clone, the original stays put.
        for function in clone.functions.values():
            function.declare_local("__wrecked", 3, True)
            function.params.append("__wrecked")
            function.new_temp()
            for local in function.locals.values():
                local.size += 1
            for block in function.blocks.values():
                for instr in block.instructions:
                    instr.replace_uses({value: None for value in instr.uses()})
                    instr.retarget({target: "__nowhere" for target in instr.targets()})
                    for name in ("args", "cases"):
                        if hasattr(instr, name):
                            getattr(instr, name).append(None)
                block.instructions.append(Jump("__nowhere"))
                block.align += 1
            function.blocks["__wrecked"] = function.blocks.pop(function.entry)
        for data in clone.globals.values():
            data.init.append(99)
            data.size += 1
        clone.functions.clear()
        clone.globals.clear()
        assert module == reference


# ---------------------------------------------------------------------------
# Table-driven encoder
# ---------------------------------------------------------------------------

_EXTREMES = {
    "r": (0, 15),
    "v": (0, 7),
    "u8": (0, 255),
    "i16": (-(1 << 15), (1 << 15) - 1),
    "i32": (-(1 << 31), (1 << 31) - 1),
    "i64": (-(1 << 63), (1 << 63) - 1),
}


@pytest.mark.parametrize("side", (0, 1))
def test_every_opcode_roundtrips_at_its_operand_bounds(side):
    for spec in OPCODES_BY_NAME.values():
        operands = [_EXTREMES[fmt][side] for fmt in spec.operands]
        data = encode_instruction(MachInstr(spec.name, operands))
        assert data[0] == spec.code and len(data) == spec.size
        decoded, end = decode_instruction(b"\x00" + data, 1)
        assert (decoded.name, decoded.operands, end) == (spec.name, operands, 1 + spec.size)


def test_vector_and_u8_operands_are_truncated_to_a_byte():
    assert encode_instruction(MachInstr("syscall", [0x1FF])) == bytes([0x56, 0xFF])
    assert encode_instruction(MachInstr("vadd", [256 + 1, 2, 3])) == bytes([0x72, 1, 2, 3])


@pytest.mark.parametrize(
    "instr, message",
    [
        (MachInstr("mov", [16, 0]), "register index out of range: 16"),
        (MachInstr("mov", [0, -1]), "register index out of range: -1"),
        (MachInstr("addi", [1, 2, 1 << 15]), "immediate does not fit in 16 bits: 32768"),
        (MachInstr("addi", [1, 2, -(1 << 15) - 1]), "immediate does not fit in 16 bits: -32769"),
        (MachInstr("jmp", [1 << 31]), "immediate does not fit in 32 bits: 2147483648"),
        (MachInstr("leag", [1, -(1 << 31) - 1]), "immediate does not fit in 32 bits: -2147483649"),
        (MachInstr("add", [1, 2]), "add: expected 3 operands, got 2"),
        (MachInstr("ret", [0]), "ret: expected 0 operands, got 1"),
        # The first offending operand is the one reported.
        (MachInstr("st", [99, 1 << 20, 99]), "register index out of range: 99"),
    ],
)
def test_encoder_rejects_out_of_range_operands(instr, message):
    with pytest.raises(EncodingError) as caught:
        encode_instruction(instr)
    assert str(caught.value) == message
