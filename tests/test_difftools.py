"""Tests for NCD, BinHunt, the Figure-8 diffing tools and the metrics."""

import lzma
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import disassemble
from repro.difftools import (
    ALL_TOOLS,
    Asm2Vec,
    BinDiffMatcher,
    BinHunt,
    BinSlayer,
    CoP,
    IMFSim,
    InnerEye,
    MultiMH,
    VulSeeker,
    compressed_size,
    make_tool,
    matched_ratios,
    ncd,
    ncd_images,
    precision_at_1,
)
from repro.difftools.metrics import precision_at_k
from repro.difftools.ncd import get_compressor
from repro.workloads import SUITES
from repro.workloads.suites import benchmark

sys.path.insert(0, str(Path(__file__).parent / "data"))
import generate_image_digests as golden  # noqa: E402

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestNCD:
    def test_identical_data_scores_zero(self):
        data = b"the same bytes" * 50
        assert ncd(data, data) < 0.1

    def test_unrelated_data_scores_high(self):
        import os
        import random

        rng = random.Random(1)
        a = bytes(rng.randrange(256) for _ in range(4096))
        b = bytes(rng.randrange(256) for _ in range(4096))
        assert ncd(a, b) > 0.9

    def test_bounds(self):
        assert 0.0 <= ncd(b"aaa" * 100, b"aab" * 100) <= 1.0

    def test_empty_inputs(self):
        assert ncd(b"", b"") == 0.0

    def test_all_compressors_available(self):
        data = b"x" * 1000
        for compressor in ("lzma", "zlib", "bz2"):
            assert compressed_size(data, compressor) < len(data)

    def test_unknown_compressor_rejected(self):
        with pytest.raises(ValueError):
            compressed_size(b"x", "zip9000")
        with pytest.raises(ValueError, match="unknown compressor 'zip9000'"):
            get_compressor("zip9000")

    def test_image_ncd_orders_optimization_levels(self, sample_images_llvm):
        o0 = sample_images_llvm["O0"]
        assert ncd_images(o0, o0) < 0.1
        o1 = ncd_images(o0, sample_images_llvm["O1"])
        o3 = ncd_images(o0, sample_images_llvm["O3"])
        assert 0.0 < o1 <= 1.0 and 0.0 < o3 <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=300), st.binary(min_size=0, max_size=300))
    def test_ncd_always_within_bounds(self, a, b):
        assert 0.0 <= ncd(a, b, "zlib") <= 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=300))
    def test_ncd_symmetric_enough(self, data):
        assert abs(ncd(data, data[::-1], "zlib") - ncd(data[::-1], data, "zlib")) < 0.2


# ---------------------------------------------------------------------------
# The right-sized LZMA dictionary against preset 6
# ---------------------------------------------------------------------------

#: Where a right-sized xz stream may differ from preset 6's: the block
#: header's LZMA2 dictionary byte and the header's CRC32.
LZMA_HEADER_OFFSETS = {16, 20, 21, 22, 23}


def assert_lzma_matches_preset_6(data: bytes) -> None:
    """NCD consumes only lengths: they must equal ``lzma.compress(preset=6)``'s."""
    sized = get_compressor("lzma")(data)
    reference = lzma.compress(data, preset=6)
    assert len(sized) == len(reference), len(data)
    differing = {i for i, (a, b) in enumerate(zip(sized, reference)) if a != b}
    assert differing <= LZMA_HEADER_OFFSETS, (len(data), sorted(differing))


@st.composite
def mutated_repeats(draw):
    """A short block repeated past the 4 KiB and 8 KiB dictionary steps, with
    a few bytes overwritten: long matches at every distance."""
    block = draw(st.binary(min_size=1, max_size=64))
    data = bytearray(block * (draw(st.integers(1, 20_000)) // len(block) + 1))
    for _ in range(draw(st.integers(0, 8))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


class TestRightSizedLZMA:
    @pytest.mark.parametrize("bench", golden.BENCHMARKS)
    def test_golden_images_and_their_joints(self, bench):
        """Every image the image-identity test freezes, alone and joined to
        its compiler's ``-O0`` image (the fitness's joint)."""
        source = benchmark(bench).source
        for factory in golden.COMPILERS.values():
            compiler = factory()
            o0 = compiler.compile_level(source, "O0", name=bench).image.text
            for _name, flags in golden.flag_vectors(compiler.registry):
                text = compiler.compile(source, flags, name=bench).image.text
                assert_lzma_matches_preset_6(text)
                assert_lzma_matches_preset_6(o0 + text)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.binary(max_size=10_000), mutated_repeats()))
    def test_arbitrary_bytes(self, data):
        assert_lzma_matches_preset_6(data)

    @pytest.mark.slow
    def test_corpus_sweep(self):
        """Every benchmark x {gcc, llvm, obfuscator-llvm} x ``-O0..-Os``,
        alone and joined to its ``-O0`` image, plus 1,500 random joints."""
        texts = {}
        for names in SUITES.values():
            for bench in names:
                source = benchmark(bench).source
                for factory in golden.COMPILERS.values():
                    compiler = factory()
                    for level in golden.LEVELS:
                        image = compiler.compile_level(source, level, name=bench).image
                        texts[bench, factory.__name__, level] = image.text
        for (bench, compiler, _level), text in texts.items():
            assert_lzma_matches_preset_6(text)
            assert_lzma_matches_preset_6(texts[bench, compiler, "O0"] + text)
        rng = random.Random(2021)
        corpus = sorted(texts.values())
        for _ in range(1500):
            assert_lzma_matches_preset_6(rng.choice(corpus) + rng.choice(corpus))

    @pytest.mark.slow
    def test_adversarial_inputs(self):
        """Random bytes, zeros, small alphabets, periodic data and mutated
        repeats at every size from 0 B to 200 KB that straddles a dictionary
        step."""
        rng = random.Random(28)
        sizes = [0, 1, 2, 3, 64, 255, 1000]
        for power in range(11, 18):
            sizes += [(1 << power) - 1, 1 << power, (1 << power) + 1]
        sizes += [100_000, 200_000]
        for size in sizes:
            inputs = [rng.randbytes(size), bytes(size)]
            for symbols in (2, 4, 16, 256):
                inputs.append(bytes(rng.randrange(symbols) for _ in range(size)))
            for period in (3, 255, 4096, 5000):
                inputs.append((rng.randbytes(period) * (size // period + 1))[:size])
            for block in (64, 4097):
                data = bytearray((rng.randbytes(block) * (size // block + 1))[:size])
                for _ in range(size // 100):
                    data[rng.randrange(size)] = rng.randrange(256)
                inputs.append(bytes(data))
            for data in inputs:
                assert_lzma_matches_preset_6(data)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmRSS from /proc/self/status")
def test_scoring_threads_keep_no_lzma_table():
    """Each thread that compresses keeps what its malloc arena was given: a
    match finder sized for an 8 MiB dictionary left ~16 MiB per scoring
    thread (23 -> 121 MiB here), one sized to the input leaves ~nothing."""
    code = """
import threading
from pathlib import Path
from repro.compilers import SimGCC
from repro.difftools import compressed_size
from repro.workloads.suites import benchmark

def rss_mib():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024

text = SimGCC().compile_level(benchmark("429.mcf").source, "O0", name="429.mcf").image.text
joint = text + text
before = rss_mib()
barrier = threading.Barrier(6)

def score():
    barrier.wait(timeout=30)
    for _ in range(5):
        compressed_size(joint)

threads = [threading.Thread(target=score) for _ in range(6)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
print(rss_mib() - before)
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)}, timeout=120,
    )
    assert float(done.stdout) < 16, done.stdout


class TestBinHunt:
    def test_identical_images_score_near_zero(self, sample_images_llvm):
        binhunt = BinHunt()
        assert binhunt.difference(sample_images_llvm["O2"], sample_images_llvm["O2"]) < 0.05

    def test_difference_increases_with_optimization_distance(self, sample_images_llvm):
        binhunt = BinHunt()
        o0 = sample_images_llvm["O0"]
        o1 = binhunt.difference(o0, sample_images_llvm["O1"])
        o3 = binhunt.difference(o0, sample_images_llvm["O3"])
        assert 0.0 < o1 < 1.0
        assert o3 >= o1 - 0.05

    def test_score_in_unit_interval(self, sample_images_llvm, sample_images_gcc):
        binhunt = BinHunt()
        score = binhunt.difference(sample_images_llvm["O0"], sample_images_gcc["O3"])
        assert 0.0 <= score <= 1.0

    def test_result_counts_are_consistent(self, sample_images_llvm):
        binhunt = BinHunt()
        result = binhunt.compare(sample_images_llvm["O0"], sample_images_llvm["O2"])
        assert result.matched_blocks <= min(result.total_blocks)
        assert result.matched_functions <= min(result.total_functions)
        assert 0.0 <= result.call_graph_score <= 1.0

    def test_matched_ratios_extraction(self, sample_images_llvm):
        binhunt = BinHunt()
        ratios = matched_ratios(binhunt.compare(sample_images_llvm["O0"], sample_images_llvm["O3"]))
        assert 0.0 <= ratios.block_ratio <= 1.0
        assert "/" in ratios.as_tuple_text()

    def test_wrong_pair_comparison_is_more_different(self, sample_images_llvm, llvm):
        """Comparing unrelated programs should look at least as different as
        comparing two builds of the same program (the paper's Coreutils vs
        OpenSSL observation)."""
        other_source = """
        int acc_data[16];
        int mix(int x) { return (x * 31 + 7) % 1009; }
        int main() { int i; int s = 0; for (i = 0; i < 16; i++) { acc_data[i] = mix(i); s += acc_data[i]; } print_int(s); return s % 97; }
        """
        other = llvm.compile_level(other_source, "O2", name="other").image
        binhunt = BinHunt()
        same_program = binhunt.difference(sample_images_llvm["O0"], sample_images_llvm["O1"])
        wrong_pair = binhunt.difference(sample_images_llvm["O0"], other)
        assert wrong_pair >= same_program - 0.1


class TestTools:
    def test_factory_covers_all_tools(self):
        for name in ALL_TOOLS:
            assert make_tool(name).name

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError):
            make_tool("ghidra")

    @pytest.mark.parametrize("tool_class", [BinDiffMatcher, BinSlayer, Asm2Vec, InnerEye, VulSeeker, CoP, MultiMH])
    def test_self_comparison_is_perfect(self, tool_class, sample_images_llvm):
        tool = tool_class()
        program = disassemble(sample_images_llvm["O2"])
        result = tool.compare_programs(program, program)
        assert precision_at_1(result) == 1.0

    @pytest.mark.parametrize("tool_class", [BinDiffMatcher, Asm2Vec, VulSeeker, CoP, MultiMH, BinSlayer])
    def test_scores_bounded(self, tool_class, sample_images_llvm):
        tool = tool_class()
        result = tool.compare(sample_images_llvm["O0"], sample_images_llvm["O2"])
        for candidates in result.rankings.values():
            for _, score in candidates:
                assert 0.0 <= score <= 1.0 + 1e-9

    def test_precision_degrades_from_o1_to_o3(self, sample_images_llvm):
        """At least the structural tools should find O3 harder than O1."""
        o0 = disassemble(sample_images_llvm["O0"])
        o1 = disassemble(sample_images_llvm["O1"])
        o3 = disassemble(sample_images_llvm["O3"])
        drops = 0
        for tool_class in (BinSlayer, CoP, MultiMH, InnerEye):
            tool = tool_class()
            p1 = precision_at_1(tool.compare_programs(o0, o1))
            p3 = precision_at_1(tool.compare_programs(o0, o3))
            if p3 <= p1:
                drops += 1
        assert drops >= 2

    def test_imfsim_matches_behaviourally_identical_functions(self, sample_images_llvm):
        tool = IMFSim(samples=4)
        result = tool.compare(sample_images_llvm["O1"], sample_images_llvm["O2"])
        assert result.top_match("fib") == "fib"

    def test_precision_at_k_is_not_below_precision_at_1(self, sample_images_llvm):
        tool = Asm2Vec()
        result = tool.compare(sample_images_llvm["O0"], sample_images_llvm["O3"])
        assert precision_at_k(result, 3) >= precision_at_1(result)
