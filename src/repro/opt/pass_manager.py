"""Pass manager: flag vector -> concrete optimization pipeline.

The :class:`PassManager` interprets an enabled-flag set against the fixed
phase ordering below (inter-procedural passes first, then loop passes, then
scalar cleanup and layout), runs the IR passes over a module clone, and
derives the :class:`repro.backend.codegen.CodegenOptions` that the backend
should use.  It is shared by both simulated compilers; the compiler drivers
only differ in their flag registries, default thresholds and a few codegen
personality knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend.codegen import CodegenOptions
from repro.ir.function import IRModule
from repro.ir.verifier import verify_module
from repro.opt.flags import FlagRegistry, FlagVector
from repro.opt.ifconvert import if_convert_module
from repro.opt.inline import inline_functions, tail_call_optimization
from repro.opt.loops import (
    hoist_loop_invariants,
    module_loop_pass,
    peel_loops,
    unroll_loops,
    vectorize_loops,
)
from repro.opt.scalar import (
    common_subexpression_elimination,
    constant_fold_function,
    eliminate_dead_code,
    propagate_copies_function,
    reorder_blocks,
    simplify_cfg,
)
from repro.opt.strength import (
    align_loop_headers,
    expand_builtins,
    merge_constants,
    reorder_functions,
    strength_reduce,
)


@dataclass
class PassPipeline:
    """The resolved plan: which IR passes run, and with what codegen options."""

    ir_passes: List[str] = field(default_factory=list)
    codegen: CodegenOptions = field(default_factory=CodegenOptions)
    pass_statistics: Dict[str, int] = field(default_factory=dict)


def _per_function(module: IRModule, fn) -> int:
    return sum(fn(function) for function in module.functions.values())


class PassManager:
    """Applies the pipeline implied by a flag vector to an IR module."""

    def __init__(
        self,
        registry: FlagRegistry,
        inline_threshold: int = 120,
        small_inline_threshold: int = 30,
        unroll_full_threshold: int = 8,
        unroll_factor: int = 2,
        verify_each_stage: bool = False,
    ) -> None:
        self.registry = registry
        self.inline_threshold = inline_threshold
        self.small_inline_threshold = small_inline_threshold
        self.unroll_full_threshold = unroll_full_threshold
        self.unroll_factor = unroll_factor
        self.verify_each_stage = verify_each_stage

    # -- plan -----------------------------------------------------------------

    def plan(self, flags: FlagVector) -> PassPipeline:
        """Resolve a flag vector into a pipeline description (no execution)."""
        effects = self.registry.effects(flags.enabled)
        pipeline = PassPipeline()
        order = [
            "builtin_expand",
            "inline",
            "inline_small",
            "constfold",
            "copyprop",
            "cse",
            "dce",
            "tailcall",
            "licm",
            "peel",
            "unroll",
            "unroll_aggressive",
            "vectorize",
            "ifconvert",
            "strength",
            "simplifycfg",
            "merge_constants",
            "reorder_blocks",
            "reorder_blocks_cold",
            "align_loops",
            "reorder_functions",
        ]
        pipeline.ir_passes = [key for key in order if key in effects]
        pipeline.codegen = self._codegen_options(effects)
        return pipeline

    def _codegen_options(self, effects: Dict[str, Optional[int]]) -> CodegenOptions:
        options = CodegenOptions(
            regalloc="regalloc" in effects,
            short_immediates="regalloc" in effects,
            offset_addressing="regalloc" in effects,
            use_jump_tables="jump_tables" in effects,
            switch_binary_search=True,
            machine_peephole="peephole2" in effects,
            align_functions=16 if "align_functions" in effects else 1,
            align_loop_headers="align_loops" in effects,
            enable_tail_calls="tailcall" in effects,
        )
        if "stack_realign" in effects:
            options.align_functions = max(options.align_functions, 8)
        return options

    # -- run -------------------------------------------------------------------

    def run(
        self,
        module: IRModule,
        flags: FlagVector,
        clone: bool = True,
        effects: Optional[Dict[str, Optional[int]]] = None,
    ) -> IRModule:
        """Apply the IR pipeline for ``flags`` to ``module`` (clone by default).

        ``effects`` is ``registry.effects(flags.enabled)`` when the caller has
        already resolved it.
        """
        target = module.clone() if clone else module
        if effects is None:
            effects = self.registry.effects(flags.enabled)
        statistics: Dict[str, int] = {}

        def record(name: str, count: int) -> None:
            if count:
                statistics[name] = statistics.get(name, 0) + count
            if self.verify_each_stage:
                verify_module(target)

        if "builtin_expand" in effects:
            record("builtin_expand", expand_builtins(target))
        if "inline" in effects:
            record(
                "inline",
                inline_functions(target, max_instructions=self.inline_threshold),
            )
        elif "inline_small" in effects:
            record(
                "inline_small",
                inline_functions(
                    target,
                    small_only=True,
                    small_threshold=self.small_inline_threshold,
                ),
            )
        if "constfold" in effects:
            record("constfold", _per_function(target, constant_fold_function))
        if "copyprop" in effects:
            record("copyprop", _per_function(target, propagate_copies_function))
            record("constfold", _per_function(target, constant_fold_function))
        if "cse" in effects:
            record("cse", _per_function(target, common_subexpression_elimination))
        if "dce" in effects:
            record("dce", _per_function(target, eliminate_dead_code))
        if "tailcall" in effects:
            record("tailcall", tail_call_optimization(target))
        if "licm" in effects:
            record("licm", module_loop_pass(target, hoist_loop_invariants))
        if "peel" in effects:
            record("peel", module_loop_pass(target, peel_loops))
        if "unroll" in effects or "unroll_aggressive" in effects:
            aggressive = "unroll_aggressive" in effects
            record(
                "unroll",
                module_loop_pass(
                    target,
                    unroll_loops,
                    full_threshold=self.unroll_full_threshold * (2 if aggressive else 1),
                    partial_factor=self.unroll_factor * (2 if aggressive else 1),
                    allow_partial=True,
                ),
            )
        if "vectorize" in effects:
            record("vectorize", module_loop_pass(target, vectorize_loops))
        if "ifconvert" in effects:
            record("ifconvert", if_convert_module(target))
        if "strength" in effects:
            record("strength", _per_function(target, strength_reduce))
        # Cleanup after the structural passes so dead remnants do not linger.
        if "dce" in effects or "constfold" in effects:
            record("cleanup_fold", _per_function(target, constant_fold_function))
            record("cleanup_dce", _per_function(target, eliminate_dead_code))
        if "simplifycfg" in effects:
            record("simplifycfg", _per_function(target, simplify_cfg))
        if "merge_constants" in effects:
            record("merge_constants", merge_constants(target))
        if "reorder_blocks_cold" in effects:
            record(
                "reorder_blocks_cold",
                _per_function(target, lambda fn: reorder_blocks(fn, "cold_last")),
            )
        elif "reorder_blocks" in effects:
            record("reorder_blocks", _per_function(target, lambda fn: reorder_blocks(fn, "rpo")))
        if "align_loops" in effects:
            record("align_loops", align_loop_headers(target))
        if "reorder_functions" in effects:
            record("reorder_functions", reorder_functions(target))

        verify_module(target)
        # Stash the statistics on the module for callers that want a report.
        setattr(target, "_last_pass_statistics", statistics)
        return target

    def codegen_options(
        self, flags: FlagVector, effects: Optional[Dict[str, Optional[int]]] = None
    ) -> CodegenOptions:
        if effects is None:
            effects = self.registry.effects(flags.enabled)
        return self._codegen_options(effects)


def optimization_report(module: IRModule) -> Dict[str, int]:
    """Pass statistics recorded by the most recent PassManager.run call."""
    return dict(getattr(module, "_last_pass_statistics", {}))
