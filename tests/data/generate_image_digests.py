"""Freeze the golden image digests that ``tests/test_image_identity.py`` checks.

The reference must not come from the compiler under test, so run this against
a checkout of the commit whose images are the contract (the parent of the
change being verified), never as part of the test run:

    git clone -q . /tmp/golden && git -C /tmp/golden checkout -q <parent-sha>
    PYTHONPATH=/tmp/golden/src python tests/data/generate_image_digests.py

It rewrites ``tests/data/image_digests.json`` next to this file.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.compilers import ObfuscatorLLVM, SimGCC, SimLLVM
from repro.opt.flags import FlagRegistry, FlagVector
from repro.workloads.suites import benchmark

#: 429.mcf, 458.sjeng and coreutils contain a ``switch``.
BENCHMARKS = ("429.mcf", "648.exchange2_s", "462.libquantum", "458.sjeng", "657.xz_s", "coreutils")
COMPILERS = {"SimGCC": SimGCC, "SimLLVM": SimLLVM, "ObfuscatorLLVM": ObfuscatorLLVM}
LEVELS = ("O0", "O1", "O2", "O3", "Os")
RANDOM_SEEDS = (11, 12, 13)
DIGEST_FILE = Path(__file__).with_name("image_digests.json")


def flag_vectors(registry: FlagRegistry) -> Iterator[Tuple[str, FlagVector]]:
    """The eight vectors per compiler: five presets, three 50 %-density draws."""
    for level in LEVELS:
        yield level, registry.preset(level)
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        enabled = frozenset(name for name in registry.flag_names() if rng.random() < 0.5)
        yield f"random-{seed}", FlagVector(registry, enabled)


def image_record(image) -> Dict[str, object]:
    return {
        "sha256": image.sha256(),
        "entry_point": image.entry_point,
        "symbols": [
            [sym.name, sym.section, sym.offset, sym.size, sym.kind, sym.is_static]
            for sym in image.symbols
        ],
    }


def compute_digests() -> Dict[str, Dict[str, object]]:
    digests: Dict[str, Dict[str, object]] = {}
    for bench in BENCHMARKS:
        source = benchmark(bench).source
        for compiler_name, factory in COMPILERS.items():
            compiler = factory()
            for vector_name, flags in flag_vectors(compiler.registry):
                image = compiler.compile(source, flags, name=bench).image
                digests[f"{bench}/{compiler_name}/{vector_name}"] = image_record(image)
    return digests


if __name__ == "__main__":
    # One compact line per image keeps the file diffable and a third the size.
    lines = [
        f" {json.dumps(key)}: {json.dumps(record, sort_keys=True, separators=(',', ':'))}"
        for key, record in sorted(compute_digests().items())
    ]
    DIGEST_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {DIGEST_FILE}")
