"""The per-shape compiled block engine, pinned harder than minic programs can.

``tests/test_emulator_dispatch.py`` drives both engines over *compiled*
programs; here blocks are assembled directly with ``encode_instruction`` so
every opcode, boundary immediate, tail kind, wild jump and illegal encoding is
reached, and the shape table (one compiled factory per distinct ``(opcode,
register)`` sequence, immediates bound at instantiation) is probed for
sharing, eviction and thread safety.  The reference if/elif engine is the
oracle throughout.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.analysis import emulator as emulator_module
from repro.analysis.emulator import (
    MAX_BLOCK_OPS,
    REFERENCE_DISPATCH,
    TABLE_DISPATCH,
    EmulationError,
    EmulationLimitExceeded,
    Emulator,
    block_template_stats,
    decoded_program,
    reset_decoded_programs,
    run_program,
)
from repro.backend.binary import GLOBAL_BASE, BinaryImage
from repro.backend.isa import BUILTIN_IDS, OPCODES_BY_NAME, SP, MachInstr, encode_instruction
from repro.tuner.pipeline import INVALID_FITNESS, StagedCandidateEvaluator

from test_emulator_dispatch import assert_results_equal, dispatch

TAILS = ("hlt", "jmp", "beqz", "bnez", "call", "tcall", "ret", "ijmp", "syscall")
STRAIGHT = tuple(name for name in OPCODES_BY_NAME if name not in TAILS)
#: Everything but the two opcodes that fault on a zero register.
COMMON = tuple(name for name in STRAIGHT if name not in ("div", "mod"))
#: Targets of these are absolute; of the other branches, relative to the end.
ABSOLUTE = ("call", "tcall")

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
BOUNDARY_VALUES = (0, 1, -1, 2, 3, 7, 63, 64, 65, 127, -64, I64_MAX, I64_MIN, I64_MAX - 1)
#: Register values no 64-bit word holds, as ``spadd`` / ``leas`` / ``malloc``
#: / ``min`` / ``max`` can leave them.
OUT_OF_RANGE = (I64_MAX + 1, I64_MAX + 70, I64_MIN - 1, 1 << 64, -(1 << 64) - 3, 1 << 70)
#: Every sign, both edges of the range, zero, a shift count.
EDGE_VALUES = (I64_MAX, I64_MAX - 1, 63, 7, 1, 0, -1, -7, I64_MIN + 1, I64_MIN)
ALU_REG = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr")
ALU_IMM = ("addi", "subi", "muli", "shli", "shri", "andi", "ori", "xori")
#: The opcodes whose block templates depend on whether a register is known
#: to hold a signed 64-bit value.
RANGE_CONSUMERS = ("st", "stx", "stg", "mov", "select", "neg", "bnot", "not", "div", "mod") + ALU_REG + ALU_IMM
IMMEDIATES = {
    "i16": st.one_of(
        st.sampled_from((0, 1, -1, 63, 64, 65, 200, -(1 << 15), (1 << 15) - 1)),
        st.integers(-(1 << 15), (1 << 15) - 1),
    ),
    "i32": st.one_of(
        st.sampled_from((0, 1, GLOBAL_BASE, GLOBAL_BASE + 3, -(1 << 31), (1 << 31) - 1)),
        st.integers(-(1 << 31), (1 << 31) - 1),
    ),
    "i64": st.one_of(st.sampled_from(BOUNDARY_VALUES), st.integers(I64_MIN, I64_MAX)),
}
#: Builtins whose cost does not depend on a register (no memset / memcpy /
#: strcpy with a random count), plus two numbers no builtin has.
SYSCALLS = tuple(
    BUILTIN_IDS[name]
    for name in ("print_int", "print_char", "print_str", "read_int", "abs", "min", "max",
                 "malloc", "free", "rand", "srand", "exit", "assert")
) + (0, 99)


def asm(name: str, *operands: int) -> bytes:
    return encode_instruction(MachInstr(name, list(operands)))


def image_of(text: bytes, name: str = "hand") -> BinaryImage:
    image = BinaryImage(name)
    image.set_section(".text", text)
    return image


def machine_state(emulator: Emulator):
    return (
        list(emulator.registers),
        [list(lanes) for lanes in emulator.vector_registers],
        dict(emulator.memory),
        list(emulator.output),
        emulator.heap_pointer,
        emulator.rand_state,
        len(emulator.control_stack),
    )


def run_engine(mode, image, registers=None, vectors=None, memory=None, inputs=(), max_steps=4000):
    """Run from pc 0 under ``mode``; returns ``(result | fault, emulator)``."""
    emulator = Emulator(image, inputs=inputs)
    if registers is not None:
        emulator.registers[:] = registers
    if vectors is not None:
        emulator.vector_registers = [list(lanes) for lanes in vectors]
    emulator.memory.update(memory or {})
    with dispatch(mode):
        try:
            outcome = emulator.run(entry=0, max_steps=max_steps)
        except EmulationError as exc:
            outcome = (type(exc), str(exc))
    return outcome, emulator


def expected_blocks(image, trace_names) -> int:
    """``ExecutionResult.blocks`` of a run that executed ``trace_names``: a
    block ends after a tail instruction or :data:`MAX_BLOCK_OPS` straight ones."""
    blocks = straight = 0
    at_entry = True
    for name in trace_names:
        if at_entry:
            blocks += 1
            straight = 0
            at_entry = False
        if name in TAILS:
            at_entry = True
        else:
            straight += 1
            at_entry = straight == MAX_BLOCK_OPS
    return blocks


def assert_engines_agree(image, max_steps=4000, **state):
    """Both engines, same start state: same fault text / memory / output, or
    the same result and the same full machine state."""
    trace = []
    original = Emulator._execute

    def tracing(self, instr, pc, next_pc, result):
        trace.append(instr.name)
        return original(self, instr, pc, next_pc, result)

    Emulator._execute = tracing
    try:
        ref, ref_emulator = run_engine(REFERENCE_DISPATCH, image, max_steps=max_steps, **state)
    finally:
        Emulator._execute = original
    tab, tab_emulator = run_engine(TABLE_DISPATCH, image, max_steps=max_steps, **state)
    if isinstance(ref, tuple):
        assert tab == ref
        # A fault inside a block leaves registers unflushed; what the world
        # can see — memory, vectors, output — is exact.
        assert machine_state(tab_emulator)[1:] == machine_state(ref_emulator)[1:]
        return ref
    assert not isinstance(tab, tuple), tab
    assert_results_equal(ref, tab)
    assert machine_state(tab_emulator) == machine_state(ref_emulator)
    assert tab.blocks == expected_blocks(image, trace)
    return tab


# ---------------------------------------------------------------------------
# (a) hypothesis: directly assembled blocks, every opcode, every tail
# ---------------------------------------------------------------------------

def out_of_range_prologue(draw) -> bytes:
    """Push the stack pointer — or a ``leas`` of it — past the signed 64-bit
    range, then read it at once (in the same block or, past a ``jmp``, the
    next) in a few of the :data:`RANGE_CONSUMERS`, partnered with r3, each
    followed by a store of what it wrote."""
    x = draw(st.sampled_from((SP, 9)))
    edge, step = draw(st.sampled_from(
        ((I64_MAX, 1), (I64_MAX, (1 << 15) - 1), (I64_MIN, -1), (I64_MIN, -(1 << 15)))))
    code = asm("movi", SP, edge) + (asm("spadd", step) if x == SP else asm("leas", x, step))
    code += asm("movi", 3, draw(st.sampled_from(EDGE_VALUES + (64,))))
    code += draw(st.sampled_from((b"", asm("jmp", 0))))
    for slot in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(RANGE_CONSUMERS))
        operands = []
        for position, kind in enumerate(OPCODES_BY_NAME[name].operands):
            if kind != "r":
                operands.append(draw(IMMEDIATES[kind]))
            elif position == 0 and name not in ("st", "stx"):
                operands.append(2)
            else:
                operands.append(draw(st.sampled_from((x, x, 3))))
        code += asm(name, *operands) + asm("stg", GLOBAL_BASE + slot, 2)
    return code


@st.composite
def machine_programs(draw):
    """``(image, registers, vectors, memory, inputs)``: random instructions
    over all 55 opcodes with boundary immediates; control flow lands on
    instruction boundaries or — sometimes — anywhere, mid-instruction and
    out of ``.text`` included (a wild jump must fault identically).  Half the
    programs open with :func:`out_of_range_prologue`."""
    text = out_of_range_prologue(draw) if draw(st.booleans()) else b""
    padding = draw(st.sampled_from((0, 0, 0, 5, MAX_BLOCK_OPS - 1, MAX_BLOCK_OPS, MAX_BLOCK_OPS + 6)))
    names = draw(st.lists(st.sampled_from(STRAIGHT), min_size=padding, max_size=padding))
    names += draw(st.lists(st.sampled_from(COMMON * 3 + TAILS * 4 + ("div", "mod")), min_size=1, max_size=40))
    names += draw(st.sampled_from((["hlt"], ["hlt"], ["hlt"], ["ret"], [])))  # [] runs off the end
    offsets = [len(text)]
    for name in names:
        offsets.append(offsets[-1] + OPCODES_BY_NAME[name].size)
    targets = st.one_of(st.sampled_from(offsets), st.integers(-2, offsets[-1] + 2))
    for index, name in enumerate(names):
        operands = []
        for kind in OPCODES_BY_NAME[name].operands:
            if kind == "r":
                operands.append(draw(st.integers(0, 15)))
            elif kind == "v":
                operands.append(draw(st.integers(0, 7)))
            elif kind == "u8":
                operands.append(draw(st.sampled_from(SYSCALLS)))
            elif name in TAILS:
                target = draw(targets)
                operands.append(target if name in ABSOLUTE else target - offsets[index + 1])
            else:
                operands.append(draw(IMMEDIATES[kind]))
        text += asm(name, *operands)
    # Registers hold boundary values, small word addresses and valid code
    # offsets (so ``ijmp`` is sometimes legal and ``ld`` sometimes hits) —
    # and, being unknown at block entry, sometimes no 64-bit value at all.
    # Vector lanes and memory words are always in range: every writer wraps.
    values = st.one_of(
        st.sampled_from(BOUNDARY_VALUES + tuple(offsets)),
        st.integers(0, 12),
        st.integers(I64_MIN, I64_MAX),
    )
    registers = draw(st.lists(st.one_of(values, st.sampled_from(OUT_OF_RANGE)), min_size=16, max_size=16))
    vectors = draw(st.lists(st.lists(values, min_size=4, max_size=4), min_size=8, max_size=8))
    memory = draw(st.dictionaries(st.integers(-4, 24), st.integers(I64_MIN, I64_MAX), max_size=12))
    inputs = draw(st.lists(st.integers(I64_MIN, I64_MAX), max_size=3))
    return image_of(text), registers, vectors, memory, inputs


@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(program=machine_programs())
def test_assembled_blocks_differential(program):
    image, registers, vectors, memory, inputs = program
    assert_engines_agree(
        image, max_steps=600, registers=registers, vectors=vectors, memory=memory, inputs=inputs
    )


@settings(max_examples=100, deadline=None, suppress_health_check=list(HealthCheck))
@given(program=machine_programs())
def test_memory_words_and_vector_lanes_stay_in_range(program):
    """The invariant the block templates lean on: whatever the registers
    hold, every word of memory and every vector lane is a signed 64-bit
    value after a run — faulting runs included, under both engines."""
    image, registers, vectors, memory, inputs = program
    for mode in (REFERENCE_DISPATCH, TABLE_DISPATCH):
        _, emulator = run_engine(mode, image, registers=registers, vectors=vectors,
                                 memory=memory, inputs=inputs, max_steps=600)
        assert all(I64_MIN <= word <= I64_MAX for word in emulator.memory.values())
        assert all(I64_MIN <= lane <= I64_MAX for lanes in emulator.vector_registers for lane in lanes)


def test_every_opcode_once():
    """One straight-line block holding every non-tail opcode, then each tail
    kind (and each way a block can end) in its own little program."""
    # Sources are r3..r5, never written below, so no divisor is zero.
    text = asm("movi", 3, 12345) + asm("movi", 4, -7) + asm("movi", 5, GLOBAL_BASE)
    for index, name in enumerate(STRAIGHT):
        operands = []
        for position, kind in enumerate(OPCODES_BY_NAME[name].operands):
            if kind == "r":
                written = position == 0 and name not in ("st", "stx")
                operands.append(6 + index % 4 if written else 3 + position % 3)
            elif kind == "v":
                operands.append((index + position) % 8)
            else:
                operands.append({"i16": 3, "i32": GLOBAL_BASE + 2, "i64": I64_MIN}[kind])
        text += asm(name, *operands)
    result = assert_engines_agree(image_of(text + asm("hlt")))
    assert result.steps == len(STRAIGHT) + 4

    def size(*names):
        return sum(OPCODES_BY_NAME[name].size for name in names)

    print_r1 = asm("syscall", BUILTIN_IDS["print_int"])
    callee = asm("movi", 1, 9) + print_r1 + asm("ret")
    tail_programs = {
        "jmp": asm("jmp", size("hlt")) + asm("hlt") + asm("movi", 0, 5) + asm("hlt"),
        "beqz": asm("beqz", 2, size("hlt")) + asm("hlt") + asm("movi", 0, 6) + asm("hlt"),
        "bnez": asm("bnez", 2, size("hlt")) + asm("movi", 0, 7) + asm("hlt"),
        "call": asm("movi", 1, 4) + asm("call", size("movi", "call", "syscall", "hlt"))
        + print_r1 + asm("hlt") + callee,
        "tcall": asm("movi", 1, 4) + asm("tcall", size("movi", "tcall", "hlt")) + asm("hlt") + callee,
        "ijmp": asm("movi", 2, size("movi", "ijmp", "hlt")) + asm("ijmp", 2) + asm("hlt")
        + asm("movi", 0, 8) + asm("hlt"),
        "ijmp-out-of-range": asm("movi", 2, 10**6) + asm("ijmp", 2),
        "syscall-exit": asm("movi", 1, 4) + asm("syscall", BUILTIN_IDS["exit"]) + asm("hlt"),
        "syscall-unknown": asm("syscall", 99),
        "off-the-end": asm("movi", 0, 1),
    }
    for label, program in tail_programs.items():
        assert_engines_agree(image_of(program, label))


# ---------------------------------------------------------------------------
# (b) the step budget at every boundary
# ---------------------------------------------------------------------------

LOOP_SOURCE = """
int a[4];
int main() {
  int i;
  int s = 3;
  for (i = 0; i < 12; i++) { s = s + i * 3; a[i % 4] = s; }
  print_int(s + a[1]);
  return s % 50;
}
"""

RECURSIVE_SOURCE = """
int rec(int n) {
  if (n < 1) return 1;
  return rec(n - 1) + n % 3;
}
int main() {
  print_int(rec(7));
  return rec(3);
}
"""


@pytest.mark.parametrize("source", [LOOP_SOURCE, RECURSIVE_SOURCE], ids=["loop", "recursive"])
def test_every_step_budget(gcc, source):
    image = gcc.compile_level(source, "O1", name="budget").image
    natural = run_program(image).steps
    assert 50 < natural < 2500
    for limit in range(1, natural + 1):
        outcomes = []
        for mode in (REFERENCE_DISPATCH, TABLE_DISPATCH):
            with dispatch(mode):
                try:
                    outcomes.append(run_program(image, max_steps=limit))
                except EmulationLimitExceeded as exc:
                    outcomes.append(str(exc))
        ref, tab = outcomes
        if limit < natural:
            assert isinstance(ref, str) and ref == tab, limit
        else:
            assert_results_equal(ref, tab)


# ---------------------------------------------------------------------------
# (c) a fault in the middle of a block
# ---------------------------------------------------------------------------

def test_mid_block_fault_keeps_memory_and_output():
    text = (
        asm("movi", 1, 5) + asm("syscall", BUILTIN_IDS["print_int"])  # an earlier block
        + asm("movi", 2, GLOBAL_BASE) + asm("movi", 3, 77) + asm("st", 2, 1, 3)
        + asm("movi", 4, 0) + asm("div", 5, 3, 4)  # faults after the store
        + asm("st", 2, 2, 3) + asm("hlt")
    )
    fault = assert_engines_agree(image_of(text))
    assert fault == (EmulationError, "integer division by zero")
    _, emulator = run_engine(TABLE_DISPATCH, image_of(text))
    assert emulator.memory == {GLOBAL_BASE + 1: 77}
    assert emulator.output == ["5", "\n"]


# ---------------------------------------------------------------------------
# satellite: machine faults are typed, and fire when reached
# ---------------------------------------------------------------------------

BAD_OPCODE = 0x99
assert BAD_OPCODE not in {spec.code for spec in OPCODES_BY_NAME.values()}
PROLOGUE = asm("movi", 1, 3) + asm("syscall", BUILTIN_IDS["print_int"]) + asm("movi", 2, GLOBAL_BASE)
STORE = asm("st", 2, 0, 1)


@pytest.mark.parametrize(
    "label, bad, reason",
    [
        ("unknown-opcode", bytes([BAD_OPCODE, 1, 2]), "unknown opcode 0x99"),
        ("truncated", asm("movi", 1, 1)[:5], "truncated instruction"),
        ("register-operand", bytes([OPCODES_BY_NAME["mov"].code, 200, 1]), "mov operand r200"),
        ("vector-operand", asm("vadd", 9, 0, 0), "vadd operand v9"),
    ],
)
def test_illegal_instruction_is_an_emulation_error_when_reached(label, bad, reason):
    bad_pc = len(PROLOGUE + STORE)
    # Reached past a block's entry: the store and the print before it happen.
    fault = assert_engines_agree(image_of(PROLOGUE + STORE + bad, label))
    assert fault[0] is EmulationError
    assert fault[1].startswith(f"illegal instruction at pc={bad_pc}: ") and reason in fault[1]
    _, emulator = run_engine(TABLE_DISPATCH, image_of(PROLOGUE + STORE + bad, label))
    assert emulator.memory == {GLOBAL_BASE: 3} and emulator.output == ["3", "\n"]
    # Never reached: no fault, under either engine.
    assert_engines_agree(image_of(PROLOGUE + STORE + asm("hlt") + bad, label))
    # Reached as a block's entry (straight after a tail).
    fault = assert_engines_agree(image_of(asm("jmp", 0) + bad, label))
    assert fault[1].startswith(f"illegal instruction at pc={len(asm('jmp', 0))}: ")
    with dispatch(TABLE_DISPATCH), pytest.raises(EmulationError, match="illegal instruction"):
        run_program(image_of(bad, label))


def test_jump_into_the_middle_of_an_instruction():
    # The movi's immediate bytes are not code: 0x99 0x99 ...
    movi = asm("movi", 1, int.from_bytes(bytes([BAD_OPCODE]) * 8, "little", signed=True))
    text = asm("jmp", 2) + movi + asm("hlt")
    fault = assert_engines_agree(image_of(text))
    assert fault == (
        EmulationError,
        f"illegal instruction at pc={len(asm('jmp', 2)) + 2}: "
        f"unknown opcode 0x99 at offset {len(asm('jmp', 2)) + 2}",
    )


def test_evaluator_scores_a_wild_jump_as_a_penalty(llvm, monkeypatch):
    """ROADMAP aim 3: a candidate that jumps into garbage is an
    ``INVALID_FITNESS`` record, not a traceback out of the campaign."""
    source = "int main() { print_int(41); return 1; }"
    baseline = llvm.compile_level(source, "O0", name="wild").image
    evaluator = StagedCandidateEvaluator(
        compiler=llvm, source=source, name="wild", baseline=baseline,
        baseline_behaviour=run_program(baseline).observable_state(),
    )
    key = tuple(llvm.preset("O1").sorted_names())
    assert evaluator(key).valid
    compile_ = evaluator.compiler.compile

    def miscompile(*args, **kwargs):
        image = compile_(*args, **kwargs).image
        text = bytearray(image.text)
        text[image.entry_point] = BAD_OPCODE
        image.set_section(".text", bytes(text))
        return SimpleNamespace(image=image)

    monkeypatch.setattr(evaluator.compiler, "compile", miscompile)
    result = evaluator(tuple(llvm.preset("O2").sorted_names()))
    assert not result.valid
    assert result.fitness == INVALID_FITNESS
    assert result.fingerprint == "invalid"


# ---------------------------------------------------------------------------
# (d) the shape table: sharing, eviction, threads, and its probe
# ---------------------------------------------------------------------------

@pytest.fixture
def cold_shapes(monkeypatch):
    """An empty shape table (and no decoded programs) for one test."""
    monkeypatch.setattr(emulator_module, "_SHAPES", OrderedDict())
    reset_decoded_programs()
    yield
    reset_decoded_programs()


def counts_since(before):
    after = block_template_stats()
    return {name: after[name] - before[name] for name in after if name != "shapes_resident"}


#: Three blocks of one shape — movi r13 / xori r12 / jmp — with different
#: immediates and targets, then a fourth of another shape.
SAME_SHAPE = (
    asm("movi", 13, 5) + asm("xori", 12, 13, 3) + asm("jmp", 0)
    + asm("movi", 13, 40) + asm("xori", 12, 13, 1) + asm("jmp", 0)
    + asm("movi", 13, -9) + asm("xori", 12, 13, 255) + asm("jmp", 0)
    + asm("mov", 0, 12) + asm("hlt")
)


def test_one_shape_compiles_once(cold_shapes):
    before = block_template_stats()
    result = assert_engines_agree(image_of(SAME_SHAPE))
    assert result.return_value == -9 ^ 255 and result.blocks == 4
    assert counts_since(before) == {"shapes_compiled": 2, "shape_evictions": 0, "blocks_built": 4}
    assert block_template_stats()["shapes_resident"] == 2
    # Another image, another evaluator, same shapes: nothing to compile.
    before = block_template_stats()
    other = asm("movi", 13, 1) + asm("xori", 12, 13, 2) + asm("jmp", 0) + asm("mov", 0, 12) + asm("hlt")
    with dispatch(TABLE_DISPATCH):
        assert run_program(image_of(other)).return_value == 3
    assert counts_since(before) == {"shapes_compiled": 0, "shape_evictions": 0, "blocks_built": 2}


def test_evicted_shape_leaves_built_blocks_working(cold_shapes, monkeypatch):
    monkeypatch.setattr(emulator_module, "SHAPE_TABLE_SIZE", 2)
    text = (
        asm("movi", 1, 20) + asm("jmp", 0)
        + asm("addi", 1, 1, 1) + asm("jmp", 0)
        + asm("muli", 1, 1, 2) + asm("jmp", 0)
        + asm("mov", 0, 1) + asm("hlt")
    )
    image = image_of(text)
    before = block_template_stats()
    with dispatch(TABLE_DISPATCH):
        assert run_program(image).return_value == 42
        assert counts_since(before) == {"shapes_compiled": 4, "shape_evictions": 2, "blocks_built": 4}
        assert block_template_stats()["shapes_resident"] == 2
        # The blocks of the two evicted shapes still run ...
        program = decoded_program(image.text)
        assert len(program.blocks) == 4
        assert run_program(image).return_value == 42
        assert counts_since(before)["blocks_built"] == 4
        # ... and a fresh decode compiles them again.
        reset_decoded_programs()
        assert run_program(image).return_value == 42
    assert counts_since(before)["shapes_compiled"] > 4
    assert block_template_stats()["shapes_resident"] == 2


def test_threads_build_cold_shapes_concurrently(cold_shapes, sample_images_gcc):
    image = sample_images_gcc["O2"]
    with dispatch(REFERENCE_DISPATCH):
        reference = run_program(image)
    before = block_template_stats()
    threads = 8
    barrier = threading.Barrier(threads)
    results, errors = [], []

    def work():
        try:
            barrier.wait()
            results.append(run_program(image))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    with dispatch(TABLE_DISPATCH):
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    assert not errors
    assert len(results) == threads
    for result in results:
        assert_results_equal(reference, result)
    built = counts_since(before)
    # Each distinct shape compiled exactly once, whoever got there first.
    assert built["shapes_compiled"] == block_template_stats()["shapes_resident"] > 0
    assert built["blocks_built"] >= len(decoded_program(image.text).blocks)


def test_measure_stage_reports_shape_counters(cold_shapes, llvm):
    source = "int main() { int i; int s = 0; for (i = 0; i < 9; i++) { s = s + i; } return s; }"
    baseline = llvm.compile_level(source, "O0", name="probe").image
    evaluator = StagedCandidateEvaluator(
        compiler=llvm, source=source, name="probe", baseline=baseline,
        baseline_behaviour=run_program(baseline).observable_state(),
    )
    before = block_template_stats()
    with telemetry.recording() as sink:
        assert evaluator(tuple(llvm.preset("O2").sorted_names())).valid
        first = sink.counters()
    built = counts_since(before)
    assert first["emulator.shapes_compiled"] == built["shapes_compiled"] > 0
    assert first["emulator.blocks_built"] == built["blocks_built"] > 0
    assert first["emulator.blocks"] >= first["emulator.blocks_built"]
    # The same binary again, trace cache bypassed: every block already built.
    reset_decoded_programs()
    with telemetry.recording() as sink:
        fresh = StagedCandidateEvaluator(
            compiler=llvm, source=source, name="probe", baseline=baseline,
            baseline_behaviour=evaluator.baseline_behaviour,
        )
        assert fresh(tuple(llvm.preset("O2").sorted_names())).valid
        second = sink.counters()
    assert second["emulator.shapes_compiled"] == 0
    assert second["emulator.blocks_built"] == first["emulator.blocks_built"]


# ---------------------------------------------------------------------------
# (e) value ranges: what a block may assume about a register, and what not
# ---------------------------------------------------------------------------

def syscall(name: str) -> bytes:
    return asm("syscall", BUILTIN_IDS[name])


#: Programs that leave register ``X`` holding a value outside the signed
#: 64-bit range, in every way the ISA allows: a stack-pointer sum, a heap
#: pointer pushed past 2**63, and ``min`` / ``max`` of such values.
PRODUCERS = {
    "spadd-up": (asm("movi", SP, I64_MAX) + asm("spadd", 1), SP),
    "spadd-down": (asm("movi", SP, I64_MIN) + asm("spadd", -(1 << 15)), SP),
    "leas-up": (asm("movi", SP, I64_MAX) + asm("leas", 9, (1 << 15) - 1), 9),
    "leas-down": (asm("movi", SP, I64_MIN) + asm("leas", 9, -1), 9),
    "malloc": (asm("movi", 1, I64_MAX) + syscall("malloc") + syscall("malloc"), 0),
    "min": (asm("movi", SP, I64_MIN) + asm("spadd", -3) + asm("mov", 1, SP)
            + asm("movi", 2, 5) + syscall("min"), 0),
    "max": (asm("movi", SP, I64_MAX) + asm("spadd", 3) + asm("mov", 1, SP)
            + asm("movi", 2, -5) + syscall("max"), 0),
}


def consumers(x: int):
    """``(label, code)`` for every instruction whose template reads a value
    range fact, fed register ``x``; results land in memory word 100 (r14)."""
    base = asm("movi", 14, 100)

    def stored(*registers):
        return b"".join(asm("st", 14, slot, number) for slot, number in enumerate(registers))

    yield "st", base + stored(x)
    yield "stx", base + asm("movi", 13, 1) + asm("stx", 14, 13, x)
    yield "stg", asm("stg", 100, x)
    yield "mov-st", base + asm("mov", 2, x) + stored(2)
    yield "select-st", base + asm("movi", 3, 1) + asm("select", 2, 3, x, 4) + stored(2)
    yield "select-else-st", base + asm("movi", 3, 0) + asm("select", 2, 3, 4, x) + stored(2)
    yield "vst", base + asm("movi", 3, 2) + asm("vst", 0, x, 3)
    for name in ALU_REG:
        for other in (1, -1, 63, 64, I64_MAX, I64_MIN):
            yield name, (base + asm("movi", 3, other) + asm(name, 2, x, 3)
                         + asm(name, 4, 3, x) + asm(name, 5, x, x) + stored(2, 4, 5))
    for name in ALU_IMM:
        for immediate in (1, -1, 63, 64, (1 << 15) - 1, -(1 << 15)):
            yield name, base + asm(name, 2, x, immediate) + stored(2)
    for name in ("neg", "bnot", "not"):
        yield name, base + asm(name, 2, x) + stored(2)
    for name in ("div", "mod"):
        for other in EDGE_VALUES:
            yield name, base + asm("movi", 3, other) + asm(name, 2, x, 3) + stored(2)
            yield name, base + asm("movi", 3, other) + asm(name, 2, 3, x) + stored(2)
        yield name, base + asm(name, 2, x, x) + stored(2)


@pytest.mark.parametrize("split", [False, True], ids=["same-block", "next-block"])
@pytest.mark.parametrize("producer", sorted(PRODUCERS))
def test_out_of_range_registers_reach_every_consumer_exactly(producer, split):
    """Each out-of-range producer into each consumer, in the producer's
    block and (after a ``jmp`` to the next instruction) in the next one:
    registers, memory, output and every result field match the reference."""
    code, x = PRODUCERS[producer]
    _, emulator = run_engine(REFERENCE_DISPATCH, image_of(code + asm("hlt")))
    assert not I64_MIN <= emulator.registers[x] <= I64_MAX
    for label, consumer in consumers(x):
        image = image_of(code + (asm("jmp", 0) if split else b"") + consumer
                         + asm("ld", 6, 14, 0) + asm("hlt"), label)
        assert_engines_agree(image)


@pytest.mark.parametrize("name", ALU_REG + ("div", "mod"))
def test_two_register_ops_at_every_edge(name):
    """Every sign pair, both edges of the range and past them, as
    block-entry registers (unknown range) and as in-block constants (known):
    a known operand must not drop a wrap the result needs, and ``div`` /
    ``mod`` see dividends past 2**63 - 1, negative and zero divisors."""
    code = asm(name, 2, 3, 4) + asm("st", 14, 0, 2) + asm("hlt")
    for a in EDGE_VALUES + OUT_OF_RANGE:
        for b in EDGE_VALUES + OUT_OF_RANGE:
            state = [0] * 14 + [100, 0]
            state[3], state[4] = a, b
            assert_engines_agree(image_of(code, name), registers=state)
            if a in EDGE_VALUES and b in EDGE_VALUES:
                constants = asm("movi", 3, a) + asm("movi", 4, b)
                assert_engines_agree(image_of(constants + code, name), registers=state)


@pytest.mark.parametrize("name", ALU_IMM + ("neg", "bnot", "not", "mov"))
def test_one_register_ops_at_every_edge(name):
    """The same for the immediate and unary forms."""
    if name in ALU_IMM:
        forms = [asm(name, 2, 3, immediate) for immediate in (1, -1, 63, 64, (1 << 15) - 1, -(1 << 15))]
    else:
        forms = [asm(name, 2, 3)]
    for a in EDGE_VALUES + OUT_OF_RANGE:
        for form in forms:
            code = form + asm("st", 14, 0, 2) + asm("hlt")
            state = [0] * 14 + [100, 0]
            state[3] = a
            assert_engines_agree(image_of(code, name), registers=state)
            if a in EDGE_VALUES:
                assert_engines_agree(image_of(asm("movi", 3, a) + code, name), registers=state)


def test_a_dividend_past_i64_max_wraps_before_its_store():
    """The program a guard of ``a >= 0`` alone gets wrong: 2**63 // 1 is
    2**63 in Python, and the word stored must be its wrap, -2**63."""
    text = (asm("movi", 15, I64_MAX) + asm("spadd", 1) + asm("movi", 1, 1)
            + asm("div", 0, 15, 1) + asm("st", 14, 0, 0) + asm("ld", 2, 14, 0) + asm("hlt"))
    state = [0] * 16
    state[14] = 100
    assert_engines_agree(image_of(text), registers=state)
    _, emulator = run_engine(TABLE_DISPATCH, image_of(text), registers=state)
    assert emulator.memory == {100: I64_MIN}
    assert emulator.registers[2] == I64_MIN


def test_in_range_stores_skip_the_wrap():
    """The gain, pinned at the source: a loaded word is stored as is, a
    stack-pointer sum is range-checked on its way to memory."""
    loaded = emulator_module._shape_source((("ld", 0, 14), ("st", 14, 0), ("hlt",)))
    assert "        mem[r14 + i1] = r0\n" in loaded
    assert "0xFFFFFFFFFFFFFFFF" not in loaded
    pushed = emulator_module._shape_source((("spadd",), ("st", 14, 15), ("hlt",)))
    assert "0xFFFFFFFFFFFFFFFF" in pushed
