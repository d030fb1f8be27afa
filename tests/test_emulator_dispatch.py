"""Differential tests: table/superinstruction dispatch vs. the reference engine.

The table engine (process-level :class:`DecodedProgram` cache + one compiled
function per block) must be *observationally indistinguishable* from the
reference if/elif interpreter: identical ``ExecutionResult`` fields, identical
exceptions at identical program points, and identical campaign fingerprints.
These tests drive both engines over randomized minic programs, fault paths,
step-budget boundaries, and a whole tuning campaign; plus the incremental
joint-compression lane's equality with the exact one-shot path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.emulator import (
    DISPATCH_ENV,
    REFERENCE_DISPATCH,
    TABLE_DISPATCH,
    DecodedProgram,
    EmulationError,
    EmulationLimitExceeded,
    Emulator,
    decoded_program,
    decoded_program_cache_size,
    dispatch_mode,
    reset_decoded_programs,
    run_program,
)
from repro.difftools.ncd import (
    _COMPRESSORS,
    CachedNCDFitness,
    JointCompressor,
    NCDFitness,
    compressed_size,
)
from repro.tuner import BinTuner, BinTunerConfig, GAParameters
from repro.tuner.tuner import BuildSpec

from _helpers import fresh_process_state


@contextmanager
def dispatch(mode: str):
    previous = os.environ.get(DISPATCH_ENV)
    os.environ[DISPATCH_ENV] = mode
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(DISPATCH_ENV, None)
        else:
            os.environ[DISPATCH_ENV] = previous


def run_both(image, args=None, inputs=None, max_steps=2_000_000):
    """Run under both engines; return either (result, result) or raise-parity."""
    outcomes = []
    for mode in (REFERENCE_DISPATCH, TABLE_DISPATCH):
        with dispatch(mode):
            try:
                outcomes.append(("ok", run_program(image, args=args, inputs=inputs, max_steps=max_steps)))
            except EmulationError as exc:
                outcomes.append(("raise", (type(exc).__name__, str(exc))))
    (ref_kind, ref), (tab_kind, tab) = outcomes
    assert ref_kind == tab_kind, f"engines disagree on fault-vs-success: {outcomes}"
    if ref_kind == "raise":
        assert ref == tab
        return None, None
    assert_results_equal(ref, tab)
    return ref, tab


def assert_results_equal(ref, tab) -> None:
    # Explicit field list: ``blocks`` is table-only telemetry and excluded
    # from the parity contract by design.
    assert ref.output_text == tab.output_text
    assert ref.return_value == tab.return_value
    assert ref.steps == tab.steps
    assert ref.cycles == tab.cycles
    assert ref.exited == tab.exited
    assert ref.exit_code == tab.exit_code
    assert ref.assertion_failed == tab.assertion_failed
    assert ref.observable_state() == tab.observable_state()


# ---------------------------------------------------------------------------
# randomized program generation
# ---------------------------------------------------------------------------

_SAFE_OPS = ("+", "-", "*", "&", "|", "^")


@st.composite
def minic_programs(draw) -> str:
    """A randomized but always-valid minic program.

    Covers the dispatch surface: straight-line ALU runs (fused blocks),
    array loads/stores, branches and loops (block tails), calls and
    recursion (register-window frames), builtins (syscall tails), and
    modulo with guarded denominators.
    """
    array_size = draw(st.integers(min_value=8, max_value=32))
    loop_count = draw(st.integers(min_value=3, max_value=48))
    seed_value = draw(st.integers(min_value=0, max_value=9999))
    statements = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        op = draw(st.sampled_from(_SAFE_OPS))
        k = draw(st.integers(min_value=-19, max_value=19))
        statements.append(f"s = s {op} (i * {k});")
        if draw(st.booleans()):
            d = draw(st.integers(min_value=2, max_value=11))
            statements.append(f"a[i % {array_size}] = s % {d};")
            statements.append(f"s = s + a[(i * 3) % {array_size}];")
    loop_body = "\n    ".join(statements)
    rec_depth = draw(st.integers(min_value=0, max_value=9))
    use_builtins = draw(st.booleans())
    use_rand = draw(st.booleans())
    builtin_block = (
        "s = s + abs(0 - i) + min(s, i) - max(0 - s, i % 5);" if use_builtins else ""
    )
    rand_block = f"srand({seed_value}); s = s + rand() % 100;" if use_rand else ""
    return f"""
int a[{array_size}];

int rec(int n) {{
  if (n < 1) return 1;
  return rec(n - 1) + n % 3;
}}

int main() {{
  int i;
  int s = {seed_value};
  for (i = 0; i < {loop_count}; i++) {{
    {loop_body}
    {builtin_block}
  }}
  {rand_block}
  s = s + rec({rec_depth});
  if (s % 2 == 0) {{ print_int(s); }} else {{ print_int(0 - s); }}
  print_int(s % 97);
  return s % 127;
}}
"""


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=minic_programs(), family_level=st.sampled_from(
    [("gcc", "O0"), ("gcc", "O2"), ("llvm", "O1"), ("llvm", "O3"), ("llvm", "Os")]
))
def test_randomized_programs_differential(source, family_level):
    from repro.experiments.scores import make_compiler

    family, level = family_level
    image = make_compiler(family).compile_level(source, level, name="rand").image
    ref, tab = run_both(image)
    if ref is not None:
        assert tab.blocks > 0  # the table engine actually ran fused blocks


# ---------------------------------------------------------------------------
# fault and boundary parity
# ---------------------------------------------------------------------------

DIV_FAULT_SOURCE = """
int main() {
  int i;
  int s = 7;
  int z = 0;
  for (i = 0; i < 10; i++) { s = s + i; }
  s = s / z;
  print_int(s);
  return s;
}
"""

ASSERT_SOURCE = """
int main() {
  int s = 5;
  assert(s > 3);
  assert(s > 9);
  print_int(s);
  return s;
}
"""

EXIT_SOURCE = """
int main() {
  print_int(11);
  exit(42);
  print_int(22);
  return 0;
}
"""


class TestFaultParity:
    def test_division_by_zero(self, gcc):
        image = gcc.compile_level(DIV_FAULT_SOURCE, "O0", name="fault").image
        run_both(image)

    def test_assertion_failure(self, llvm):
        image = llvm.compile_level(ASSERT_SOURCE, "O1", name="asserts").image
        ref, tab = run_both(image)
        assert ref.assertion_failed and tab.assertion_failed

    def test_exit_builtin(self, llvm):
        image = llvm.compile_level(EXIT_SOURCE, "O2", name="exits").image
        ref, tab = run_both(image)
        assert ref.exited and tab.exited and ref.exit_code == 42

    def test_step_limit_parity_at_every_boundary(self, gcc, sample_source):
        """The budget must trip at the same pc with the same message even
        when the limit lands in the middle of a fused block."""
        image = gcc.compile_level(sample_source, "O2", name="sample").image
        with dispatch(TABLE_DISPATCH):
            total = run_program(image).steps
        for limit in (1, 2, 7, 63, 64, 65, total - 1):
            run_both(image, max_steps=limit)
        # And exactly at the step count, both succeed.
        run_both(image, max_steps=total)


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------

class TestDispatchPlumbing:
    def test_mode_selection(self):
        with dispatch(REFERENCE_DISPATCH):
            assert dispatch_mode() == REFERENCE_DISPATCH
        with dispatch("TABLE"):
            assert dispatch_mode() == TABLE_DISPATCH
        with dispatch("nonsense"):
            assert dispatch_mode() == TABLE_DISPATCH

    def test_decoded_program_cache_shares_across_emulators(self, sample_images_gcc):
        reset_decoded_programs()
        image = sample_images_gcc["O2"]
        with dispatch(TABLE_DISPATCH):
            Emulator(image).run()
            assert decoded_program_cache_size() == 1
            program = decoded_program(image.text)
            blocks_before = len(program.blocks)
            assert blocks_before > 0
            Emulator(image).run()
            # Second run re-used the same decoded program: no new decode work.
            assert decoded_program_cache_size() == 1
            assert decoded_program(image.text) is program

    def test_blocks_counted_only_by_table_engine(self, sample_images_gcc):
        image = sample_images_gcc["O1"]
        with dispatch(REFERENCE_DISPATCH):
            assert run_program(image).blocks == 0
        with dispatch(TABLE_DISPATCH):
            assert run_program(image).blocks > 0

    def test_bad_entry_pc_raises_like_reference(self, sample_images_gcc):
        program = DecodedProgram(sample_images_gcc["O0"].text)
        with pytest.raises(EmulationError, match="program counter out of range"):
            program.block_at(10**9)

    def test_cycles_reset_between_runs_on_reused_emulator(self, sample_images_gcc):
        """Regression: cycles used to accumulate across run() calls."""
        image = sample_images_gcc["O2"]
        for mode in (REFERENCE_DISPATCH, TABLE_DISPATCH):
            with dispatch(mode):
                emulator = Emulator(image)
                first = emulator.run().cycles
                emulator2 = Emulator(image)
                emulator2.run()
                second = emulator2.run().cycles
                assert first > 0
                assert second == first, mode


# ---------------------------------------------------------------------------
# campaign fingerprints
# ---------------------------------------------------------------------------

def _campaign_fingerprint() -> str:
    from repro.experiments.scores import make_compiler
    from repro.workloads import benchmark

    fresh_process_state()
    reset_decoded_programs()
    workload = benchmark("429.mcf")
    tuner = BinTuner(
        make_compiler("gcc"),
        BuildSpec(
            source=workload.source,
            name="429.mcf",
            arguments=workload.arguments,
            inputs=workload.inputs,
        ),
        BinTunerConfig(
            max_iterations=10,
            ga=GAParameters(population_size=5, seed=23),
            stall_window=8,
        ),
    )
    try:
        tuner.run()
        return tuner.database.fingerprint()
    finally:
        tuner.close()


@pytest.mark.slow
def test_campaign_fingerprints_identical_across_engines():
    with dispatch(REFERENCE_DISPATCH):
        reference_fp = _campaign_fingerprint()
    with dispatch(TABLE_DISPATCH):
        table_fp = _campaign_fingerprint()
    assert reference_fp == table_fp


# ---------------------------------------------------------------------------
# incremental NCD == exact NCD
# ---------------------------------------------------------------------------

# The oracle is the public one-shot function, ``compressed_size(prefix +
# suffix)``.

class TestIncrementalNCD:
    @pytest.mark.parametrize("compressor", sorted(_COMPRESSORS))
    def test_joint_size_matches_one_shot(self, compressor, sample_images_gcc):
        baseline = sample_images_gcc["O0"]
        joint = JointCompressor(baseline.text, compressor)
        for level in ("O1", "O2", "O3", "Os"):
            suffix = sample_images_gcc[level].text
            assert joint.joint_size(suffix) == compressed_size(
                baseline.text + suffix, compressor
            )
        if compressor == "zlib":
            assert joint.incremental_available
            assert joint.incremental_joints == 4
        else:
            assert not joint.incremental_available
            assert joint.exact_joints == 4

    @pytest.mark.parametrize("compressor", sorted(_COMPRESSORS))
    def test_fitness_identical_with_and_without_incremental(
        self, compressor, sample_images_gcc
    ):
        baseline = sample_images_gcc["O0"]
        candidates = [sample_images_gcc[level] for level in ("O1", "O2", "O3", "Os")]
        incremental = CachedNCDFitness(baseline, compressor=compressor)
        exact = NCDFitness(baseline, compressor=compressor)  # one-shot ncd()
        assert [incremental(candidate) for candidate in candidates] == [
            exact(candidate) for candidate in candidates
        ]

    def test_environment_does_not_select_the_path(self, sample_images_gcc, monkeypatch):
        """``joint_size`` takes its path from the compressor alone: no
        environment variable switches it."""
        monkeypatch.setenv("REPRO_NCD_EXACT", "1")
        baseline, suffix = sample_images_gcc["O0"].text, sample_images_gcc["O2"].text
        joint = JointCompressor(baseline, "zlib")
        assert joint.joint_size(suffix) == compressed_size(baseline + suffix, "zlib")
        assert (joint.incremental_joints, joint.exact_joints) == (1, 0)

    def test_empty_prefix_and_suffix(self):
        joint = JointCompressor(b"", "zlib")
        assert joint.joint_size(b"") == len(_COMPRESSORS["zlib"](b""))
        assert joint.joint_size(b"abc") == len(_COMPRESSORS["zlib"](b"abc"))
