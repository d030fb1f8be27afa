"""Optimization flag registry, presets and constraints.

The registry is the *search space* BinTuner explores.  Each simulated compiler
(SimGCC, SimLLVM) exposes its own flag set; flag names follow the real
compilers where the simulated pass has a faithful counterpart (these are the
names that show up in the paper's Figure 7 potency tables).  Flags marked
``effect="none"`` are accepted but have no effect on the generated code — a
deliberate property of real flag spaces that the genetic algorithm must learn
to ignore.

Constraints come in two forms, mirroring §4.1 ("Constraints Verification"):

* ``requires``: flag A only has meaning when flag B is on (e.g. GCC's
  ``-fpartial-inlining`` requires ``-finline-functions``);
* ``conflicts``: flags A and B must not both be enabled.

The constraint engine that enforces these lives in
:mod:`repro.tuner.constraints`; this module only *declares* them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Flag:
    """One boolean optimization flag."""

    name: str
    description: str
    #: What the flag does in the simulated pipeline.  One of the pass keys
    #: understood by :class:`repro.opt.pass_manager.PassManager`, or "none".
    effect: str = "none"
    #: Optional parameter passed to the pass (e.g. an unroll factor).
    parameter: Optional[int] = None


@dataclass
class FlagRegistry:
    """All flags of one compiler plus presets and constraints."""

    compiler: str
    flags: List[Flag] = field(default_factory=list)
    #: (dependent, prerequisite) pairs: dependent requires prerequisite.
    requires: List[Tuple[str, str]] = field(default_factory=list)
    #: (a, b) pairs that must not be enabled together.
    conflicts: List[Tuple[str, str]] = field(default_factory=list)
    presets: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    #: name -> Flag over ``flags``, built on first lookup (see ``_index``).
    _by_name: Dict[str, Flag] = field(default_factory=dict, init=False, repr=False, compare=False)

    def flag_names(self) -> List[str]:
        return [flag.name for flag in self.flags]

    def _index(self) -> Dict[str, Flag]:
        # ``flags`` is a public list that callers extend by hand, so the index
        # is rebuilt whenever it no longer has one entry per flag.
        if len(self._by_name) != len(self.flags):
            self._by_name = {}
            for flag in self.flags:
                self._by_name.setdefault(flag.name, flag)
        return self._by_name

    def flag(self, name: str) -> Flag:
        return self._index()[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index()

    def __len__(self) -> int:
        return len(self.flags)

    def preset(self, level: str) -> "FlagVector":
        if level not in self.presets:
            raise KeyError(f"unknown optimization level {level!r}")
        return FlagVector(self, frozenset(self.presets[level]))

    def effects(self, enabled: Iterable[str]) -> Dict[str, Optional[int]]:
        """Map of effect-key -> parameter for the enabled flags.

        Flags are visited in sorted order: ``enabled`` is usually a frozenset,
        and iterating it directly would make the last-writer-wins parameter
        resolution depend on the interpreter's hash seed — compiles must be
        identical across processes for parallel evaluation to be reproducible.
        """
        out: Dict[str, Optional[int]] = {}
        index = self._index()
        for name in sorted(enabled):
            flag = index[name]
            if flag.effect != "none":
                out[flag.effect] = flag.parameter if flag.parameter is not None else out.get(flag.effect)
        return out


@dataclass(frozen=True)
class FlagVector:
    """An immutable selection of enabled flags over a registry."""

    registry: FlagRegistry
    enabled: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        unknown = [name for name in self.enabled if name not in self.registry]
        if unknown:
            raise ValueError(f"unknown flags for {self.registry.compiler}: {sorted(unknown)}")

    def __contains__(self, name: str) -> bool:
        return name in self.enabled

    def __len__(self) -> int:
        return len(self.enabled)

    def with_flag(self, name: str, value: bool = True) -> "FlagVector":
        enabled = set(self.enabled)
        if value:
            enabled.add(name)
        else:
            enabled.discard(name)
        return FlagVector(self.registry, frozenset(enabled))

    def without(self, name: str) -> "FlagVector":
        return self.with_flag(name, False)

    def to_bits(self) -> List[int]:
        """Chromosome encoding: one bit per registry flag, in registry order."""
        return [1 if name in self.enabled else 0 for name in self.registry.flag_names()]

    @classmethod
    def from_bits(cls, registry: FlagRegistry, bits: Sequence[int]) -> "FlagVector":
        names = registry.flag_names()
        if len(bits) != len(names):
            raise ValueError(f"expected {len(names)} bits, got {len(bits)}")
        return cls(registry, frozenset(name for name, bit in zip(names, bits) if bit))

    def jaccard(self, other: "FlagVector") -> float:
        """Jaccard index |A ∩ B| / |A ∪ B| (used in the paper's Figure 7)."""
        union = self.enabled | other.enabled
        if not union:
            return 1.0
        return len(self.enabled & other.enabled) / len(union)

    def sorted_names(self) -> List[str]:
        return sorted(self.enabled)

    def __str__(self) -> str:
        return " ".join(self.sorted_names()) or "<no flags>"


# ---------------------------------------------------------------------------
# SimGCC flag set
# ---------------------------------------------------------------------------

GCC_FLAGS: List[Flag] = [
    # Codegen quality / register allocation.
    Flag("-fregister-allocation", "keep temporaries in registers instead of stack slots", "regalloc"),
    Flag("-fomit-frame-pointer", "do not keep a frame pointer (minor layout change)", "none"),
    Flag("-fcombine-stack-adjustments", "merge consecutive stack pointer adjustments", "peephole2"),
    # Scalar optimizations.
    Flag("-ftree-ccp", "conditional constant propagation", "constfold"),
    Flag("-ftree-dce", "dead code elimination", "dce"),
    Flag("-fforward-propagate", "forward copy/constant propagation", "copyprop"),
    Flag("-fgcse", "global (block-local here) common subexpression elimination", "cse"),
    Flag("-fcse-follow-jumps", "extend CSE across jumps", "cse"),
    Flag("-fthread-jumps", "thread trivial jump chains", "simplifycfg"),
    Flag("-fcrossjumping", "merge identical code across jumps", "simplifycfg"),
    Flag("-fexpensive-optimizations", "enable the costlier scalar rewrites", "strength"),
    Flag("-fstrength-reduce", "rewrite multiplications into shift/add sequences", "strength"),
    Flag("-fpeephole2", "machine-level peephole optimization", "peephole2"),
    # Inlining family.
    Flag("-finline-functions", "inline any sufficiently small function", "inline"),
    Flag("-finline-small-functions", "inline only very small functions", "inline_small"),
    Flag("-fpartial-inlining", "inline parts of functions (modelled as extra inlining)", "inline"),
    Flag("-findirect-inlining", "inline indirect calls discovered by analysis", "none"),
    Flag("-fipa-cp", "interprocedural constant propagation", "constfold"),
    Flag("-fipa-icf", "identical code folding", "none"),
    Flag("-foptimize-sibling-calls", "turn tail calls into jumps", "tailcall"),
    # Loop family.
    Flag("-fmove-loop-invariants", "hoist loop-invariant code", "licm"),
    Flag("-funroll-loops", "unroll loops", "unroll"),
    Flag("-funroll-all-loops", "unroll every loop, even with unknown trip count", "unroll_aggressive"),
    Flag("-floop-unroll-and-jam", "unroll outer loops and fuse the copies", "unroll_aggressive"),
    Flag("-fpeel-loops", "peel the first iterations of loops", "peel"),
    Flag("-funswitch-loops", "move invariant conditionals out of loops", "peel"),
    Flag("-ftree-loop-distribute-patterns", "turn loop patterns into library calls / stores", "builtin_expand"),
    Flag("-ftree-vectorize", "auto-vectorize loops", "vectorize"),
    Flag("-ftree-loop-vectorize", "loop vectorization (part of tree-vectorize)", "vectorize"),
    Flag("-ftree-slp-vectorize", "superword-level parallelism vectorization", "vectorize"),
    Flag("-fsplit-loops", "split loops on invariant conditions", "peel"),
    Flag("-fbranch-count-reg", "use counter registers for loop branches", "none"),
    Flag("-fivopts", "induction variable optimizations", "none"),
    # Control-flow / layout family.
    Flag("-fif-conversion", "convert branches into branch-free code", "ifconvert"),
    Flag("-fif-conversion2", "second if-conversion sweep", "ifconvert"),
    Flag("-fjump-tables", "lower dense switches through jump tables", "jump_tables"),
    Flag("-freorder-blocks", "reorder basic blocks for locality", "reorder_blocks"),
    Flag("-freorder-blocks-and-partition", "split hot/cold blocks into sections", "reorder_blocks_cold"),
    Flag("-freorder-functions", "reorder functions in the image", "reorder_functions"),
    Flag("-fguess-branch-probability", "static branch probability estimation", "reorder_blocks"),
    Flag("-falign-functions", "align function entry points", "align_functions"),
    Flag("-falign-loops", "align loop headers", "align_loops"),
    Flag("-falign-jumps", "align branch targets", "align_loops"),
    Flag("-falign-labels", "align all labels", "align_loops"),
    # Data / builtin family.
    Flag("-fmerge-constants", "merge identical constants", "merge_constants"),
    Flag("-fmerge-all-constants", "merge identical constants and variables", "merge_constants"),
    Flag("-fbuiltin", "expand library builtins inline", "builtin_expand"),
    Flag("-fdelete-null-pointer-checks", "assume dereferenced pointers are non-null", "none"),
    Flag("-fwrapv", "assume signed overflow wraps", "none"),
    Flag("-fstrict-aliasing", "enable type-based alias analysis", "none"),
    Flag("-fdefer-pop", "defer popping call arguments", "none"),
    Flag("-fconserve-stack", "minimize stack usage at the cost of speed", "none"),
    Flag("-fcaller-saves", "save registers around calls when profitable", "none"),
    Flag("-fsched-pressure", "register-pressure-aware scheduling", "none"),
    Flag("-fshrink-wrap", "emit prologues only on paths that need them", "none"),
    Flag("-fhoist-adjacent-loads", "hoist adjacent loads above branches", "ifconvert"),
    Flag("-fsplit-wide-types", "split wide types into independent registers", "none"),
    Flag("-ftree-ter", "temporary expression replacement", "copyprop"),
    Flag("-ftree-sra", "scalar replacement of aggregates", "none"),
    Flag("-ftree-pre", "partial redundancy elimination", "cse"),
    Flag("-ftree-switch-conversion", "convert switches into linear expressions", "jump_tables"),
    # Flags outside every -Ox preset (the paper stresses that -O3 covers less
    # than half of the available option space).
    Flag("-frename-registers", "rename registers after allocation", "none"),
    Flag("-flive-range-shrinkage", "shrink live ranges before allocation", "none"),
    Flag("-ftracer", "tail-duplicate hot paths", "peel"),
    Flag("-fgcse-after-reload", "run CSE again after register allocation", "cse"),
    Flag("-fsched2-use-superblocks", "schedule across basic blocks", "reorder_blocks"),
    Flag("-fipa-pta", "interprocedural points-to analysis", "none"),
    Flag("-fsection-anchors", "access data through section anchors", "none"),
    Flag("-fdata-sections", "place each datum in its own section", "none"),
    Flag("-ffunction-sections", "place each function in its own section", "reorder_functions"),
    Flag("-fsplit-paths", "split paths leading to loop back edges", "peel"),
    Flag("-fvariable-expansion-in-unroller", "expand accumulators while unrolling", "none"),
    Flag("-fprefetch-loop-arrays", "emit prefetches for array loops", "none"),
]

GCC_REQUIRES = [
    ("-fpartial-inlining", "-finline-functions"),
    ("-funroll-all-loops", "-funroll-loops"),
    ("-floop-unroll-and-jam", "-funroll-loops"),
    ("-ftree-loop-vectorize", "-ftree-vectorize"),
    ("-ftree-slp-vectorize", "-ftree-vectorize"),
    ("-freorder-blocks-and-partition", "-freorder-blocks"),
    ("-fif-conversion2", "-fif-conversion"),
    ("-fcse-follow-jumps", "-fgcse"),
    ("-fmerge-all-constants", "-fmerge-constants"),
    ("-fipa-cp", "-ftree-ccp"),
    ("-findirect-inlining", "-finline-functions"),
]

GCC_CONFLICTS = [
    ("-fconserve-stack", "-falign-functions"),
    ("-fconserve-stack", "-falign-loops"),
    ("-fconserve-stack", "-funroll-all-loops"),
    ("-freorder-blocks-and-partition", "-falign-labels"),
    ("-fwrapv", "-fstrict-aliasing"),
]

_GCC_O1 = {
    "-fregister-allocation",
    "-ftree-ccp",
    "-ftree-dce",
    "-fforward-propagate",
    "-fthread-jumps",
    "-ftree-ter",
    "-fcombine-stack-adjustments",
    "-fomit-frame-pointer",
    "-fdefer-pop",
    "-fguess-branch-probability",
    "-fif-conversion",
    "-fif-conversion2",
}
_GCC_O2 = _GCC_O1 | {
    "-fgcse",
    "-fcse-follow-jumps",
    "-fcrossjumping",
    "-fexpensive-optimizations",
    "-fstrength-reduce",
    "-fpeephole2",
    "-finline-small-functions",
    "-foptimize-sibling-calls",
    "-fmove-loop-invariants",
    "-freorder-blocks",
    "-freorder-functions",
    "-fjump-tables",
    "-falign-functions",
    "-falign-loops",
    "-falign-jumps",
    "-fmerge-constants",
    "-ftree-pre",
    "-ftree-switch-conversion",
    "-fipa-cp",
    "-fivopts",
    "-fstrict-aliasing",
    "-fbuiltin",
    "-fhoist-adjacent-loads",
    "-fcaller-saves",
    "-fshrink-wrap",
}
_GCC_O3 = _GCC_O2 | {
    "-finline-functions",
    "-fpartial-inlining",
    "-ftree-vectorize",
    "-ftree-loop-vectorize",
    "-ftree-slp-vectorize",
    "-ftree-loop-distribute-patterns",
    "-fpeel-loops",
    "-funswitch-loops",
    "-fsplit-loops",
}
_GCC_OS = (_GCC_O2 - {"-falign-functions", "-falign-loops", "-falign-jumps"}) | {
    "-fconserve-stack",
}

GCC_PRESETS = {
    "O0": frozenset(),
    "O1": frozenset(_GCC_O1),
    "O2": frozenset(_GCC_O2),
    "O3": frozenset(_GCC_O3),
    "Os": frozenset(_GCC_OS),
}


# ---------------------------------------------------------------------------
# SimLLVM flag set
# ---------------------------------------------------------------------------

LLVM_FLAGS: List[Flag] = [
    Flag("-mem2reg", "promote stack slots to registers", "regalloc"),
    Flag("-sccp", "sparse conditional constant propagation", "constfold"),
    Flag("-adce", "aggressive dead code elimination", "dce"),
    Flag("-dce", "dead code elimination", "dce"),
    Flag("-instcombine", "combine and simplify instructions", "copyprop"),
    Flag("-early-cse", "early common subexpression elimination", "cse"),
    Flag("-gvn", "global value numbering", "cse"),
    Flag("-reassociate", "reassociate expressions", "constfold"),
    Flag("-simplifycfg", "simplify the control-flow graph", "simplifycfg"),
    Flag("-jump-threading", "thread conditional jumps", "simplifycfg"),
    Flag("-peephole", "machine-level peephole optimization", "peephole2"),
    Flag("-finline-functions", "inline any sufficiently small function", "inline"),
    Flag("-finline-hint-functions", "inline functions marked inline", "inline_small"),
    Flag("-fpartial-inlining", "partial inlining", "inline"),
    Flag("-fno-escaping-block-tail-calls", "allow tail-call lowering of block tails", "tailcall"),
    Flag("-tailcallelim", "eliminate tail calls", "tailcall"),
    Flag("-licm", "loop-invariant code motion", "licm"),
    Flag("-loop-rotate", "rotate loops into do-while form", "peel"),
    Flag("-loop-unswitch", "unswitch loops on invariant conditions", "peel"),
    Flag("-funroll-loops", "unroll loops", "unroll"),
    Flag("-loop-unroll-and-jam", "unroll outer loops and fuse the copies", "unroll_aggressive"),
    Flag("-floop-unroll-full", "fully unroll loops with constant trip counts", "unroll_aggressive"),
    Flag("-fvectorize", "loop vectorization", "vectorize"),
    Flag("-ftree-vectorize", "auto-vectorization umbrella flag", "vectorize"),
    Flag("-fslp-vectorize", "superword-level parallelism vectorization", "vectorize"),
    Flag("-fjump-tables", "lower dense switches through jump tables", "jump_tables"),
    Flag("-switch-to-lookup", "convert switches into lookup tables", "jump_tables"),
    Flag("-fif-convert", "convert branches into select instructions", "ifconvert"),
    Flag("-speculate-cmov", "speculate conditional moves", "ifconvert"),
    Flag("-fstrength-reduce", "strength-reduce multiplications", "strength"),
    Flag("-fexpand-builtins", "expand library builtins inline", "builtin_expand"),
    Flag("-fmerge-all-constants", "merge identical constants and variables", "merge_constants"),
    Flag("-fmerge-constants", "merge identical constants", "merge_constants"),
    Flag("-freorder-blocks", "reorder basic blocks", "reorder_blocks"),
    Flag("-block-placement", "machine block placement", "reorder_blocks_cold"),
    Flag("-freorder-functions", "reorder functions in the image", "reorder_functions"),
    Flag("-falign-functions", "align function entry points", "align_functions"),
    Flag("-falign-loops", "align loop headers", "align_loops"),
    Flag("-mlong-calls", "use register-indirect long call sequences", "none"),
    Flag("-mstackrealign", "realign the stack in every prologue", "stack_realign"),
    Flag("-fwrapv", "assume signed overflow wraps", "none"),
    Flag("-freg-struct-return", "return small structs in registers", "none"),
    Flag("-fpcc-struct-return", "return structs in memory (PCC-compatible)", "none"),
    Flag("-fstrict-return", "assume functions always return through a return", "none"),
    Flag("-fomit-frame-pointer", "do not keep a frame pointer", "none"),
    Flag("-fstrict-aliasing", "enable type-based alias analysis", "none"),
    Flag("-fstack-protector-off", "disable stack canaries", "none"),
    Flag("-fassociative-math", "allow reassociation of arithmetic", "constfold"),
    Flag("-memcpyopt", "optimize memcpy/memset patterns", "builtin_expand"),
    Flag("-sink", "sink instructions closer to their uses", "none"),
    Flag("-lower-expect", "lower llvm.expect intrinsics", "none"),
    Flag("-indvars", "canonicalize induction variables", "none"),
]

LLVM_REQUIRES = [
    ("-fpartial-inlining", "-finline-functions"),
    ("-loop-unroll-and-jam", "-funroll-loops"),
    ("-floop-unroll-full", "-funroll-loops"),
    ("-fslp-vectorize", "-fvectorize"),
    ("-ftree-vectorize", "-fvectorize"),
    ("-switch-to-lookup", "-fjump-tables"),
    ("-speculate-cmov", "-fif-convert"),
    ("-gvn", "-early-cse"),
    ("-block-placement", "-freorder-blocks"),
    ("-fmerge-all-constants", "-fmerge-constants"),
]

LLVM_CONFLICTS = [
    ("-freg-struct-return", "-fpcc-struct-return"),
    ("-fwrapv", "-fstrict-aliasing"),
    ("-mstackrealign", "-fomit-frame-pointer"),
    ("-fassociative-math", "-fwrapv"),
]

_LLVM_O1 = {
    "-mem2reg",
    "-sccp",
    "-dce",
    "-instcombine",
    "-simplifycfg",
    "-early-cse",
    "-fomit-frame-pointer",
    "-lower-expect",
}
_LLVM_O2 = _LLVM_O1 | {
    "-gvn",
    "-adce",
    "-reassociate",
    "-jump-threading",
    "-peephole",
    "-finline-hint-functions",
    "-tailcallelim",
    "-licm",
    "-loop-rotate",
    "-indvars",
    "-fjump-tables",
    "-switch-to-lookup",
    "-fif-convert",
    "-fstrength-reduce",
    "-fmerge-constants",
    "-freorder-blocks",
    "-block-placement",
    "-falign-functions",
    "-fstrict-aliasing",
    "-fvectorize",
    "-fslp-vectorize",
    "-memcpyopt",
    "-sink",
}
_LLVM_O3 = _LLVM_O2 | {
    "-finline-functions",
    "-fpartial-inlining",
    "-funroll-loops",
    "-floop-unroll-full",
    "-ftree-vectorize",
    "-loop-unswitch",
    "-falign-loops",
}
_LLVM_OS = (_LLVM_O2 - {"-falign-functions", "-funroll-loops"}) | set()

LLVM_PRESETS = {
    "O0": frozenset(),
    "O1": frozenset(_LLVM_O1),
    "O2": frozenset(_LLVM_O2),
    "O3": frozenset(_LLVM_O3),
    "Os": frozenset(_LLVM_OS),
}


def build_gcc_registry() -> FlagRegistry:
    """The SimGCC 10.2 flag space."""
    return FlagRegistry(
        compiler="simgcc-10.2",
        flags=list(GCC_FLAGS),
        requires=list(GCC_REQUIRES),
        conflicts=list(GCC_CONFLICTS),
        presets=dict(GCC_PRESETS),
    )


def build_llvm_registry() -> FlagRegistry:
    """The SimLLVM 11.0 flag space."""
    return FlagRegistry(
        compiler="simllvm-11.0",
        flags=list(LLVM_FLAGS),
        requires=list(LLVM_REQUIRES),
        conflicts=list(LLVM_CONFLICTS),
        presets=dict(LLVM_PRESETS),
    )
