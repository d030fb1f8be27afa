"""Common compiler-driver machinery."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from repro.backend.binary import BinaryImage
from repro.backend.codegen import CodegenOptions
from repro.backend.linker import link_module
from repro.ir.builder import build_module
from repro.ir.function import IRModule
from repro.minic import ast_nodes as ast
from repro.minic.parser import ParseError, parse_program
from repro.minic.semantic import SemanticError, analyze
from repro.opt.flags import FlagRegistry, FlagVector
from repro.opt.pass_manager import PassManager


class CompilationError(Exception):
    """Raised when a program cannot be compiled (front-end or back-end)."""


@dataclass
class CompileResult:
    """The outcome of one compilation."""

    image: BinaryImage
    flags: FlagVector
    pass_statistics: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def code_size(self) -> int:
        return self.image.code_size()


class Compiler:
    """Base class: frontend + pass manager + backend, parameterized by flags."""

    #: Human-readable compiler family ("gcc" / "llvm").
    family: str = "generic"
    #: Version string used in provenance metadata.
    version: str = "1.0"

    def __init__(self, verify_each_stage: bool = False) -> None:
        self.registry: FlagRegistry = self._build_registry()
        self.pass_manager = self._build_pass_manager(verify_each_stage)
        self._frontend_cache: Dict[str, IRModule] = {}

    # -- hooks ----------------------------------------------------------------

    def _build_registry(self) -> FlagRegistry:
        raise NotImplementedError

    def _build_pass_manager(self, verify_each_stage: bool) -> PassManager:
        return PassManager(self.registry, verify_each_stage=verify_each_stage)

    def _personalize_codegen(self, options: CodegenOptions, flags: FlagVector) -> CodegenOptions:
        """Compiler-specific codegen tweaks (overridden by subclasses)."""
        return options

    def _post_ir_passes(self, module: IRModule, flags: FlagVector) -> IRModule:
        """Extra IR work after the standard pipeline (e.g. obfuscation)."""
        return module

    # -- flag helpers -----------------------------------------------------------

    def preset(self, level: str) -> FlagVector:
        """The flag vector of a default optimization level (``O0``..``Os``)."""
        return self.registry.preset(level)

    def empty_flags(self) -> FlagVector:
        return FlagVector(self.registry, frozenset())

    def flags_from_names(self, names) -> FlagVector:
        return FlagVector(self.registry, frozenset(names))

    # -- compilation -------------------------------------------------------------

    def frontend(self, source: Union[str, ast.Program], name: str = "program") -> IRModule:
        """Parse, analyze and lower a program to IR (cached per source text)."""
        cache_key: Optional[str] = None
        if isinstance(source, ast.Program):
            program = source
        else:
            cache_key = hashlib.sha256(source.encode()).hexdigest()
            cached = self._frontend_cache.get(cache_key)
            if cached is not None:
                return cached.clone()
            try:
                program = parse_program(source, name=name)
            except ParseError as exc:
                raise CompilationError(f"parse error: {exc}") from exc
        try:
            info = analyze(program)
            module = build_module(program, info)
        except SemanticError as exc:
            raise CompilationError(f"semantic error: {exc}") from exc
        if cache_key is not None:
            self._frontend_cache[cache_key] = module.clone()
        return module

    def compile(
        self,
        source: Union[str, ast.Program, IRModule],
        flags: Optional[FlagVector] = None,
        name: str = "program",
    ) -> CompileResult:
        """Compile ``source`` with ``flags`` and return the linked image."""
        started = time.perf_counter()
        flags = flags if flags is not None else self.empty_flags()
        if flags.registry is not self.registry and flags.registry.compiler != self.registry.compiler:
            raise CompilationError(
                f"flag vector belongs to {flags.registry.compiler}, not {self.registry.compiler}"
            )
        if isinstance(source, IRModule):
            module = source.clone()
        else:
            module = self.frontend(source, name=name)
        effects = self.registry.effects(flags.enabled)
        optimized = self.pass_manager.run(module, flags, clone=False, effects=effects)
        optimized = self._post_ir_passes(optimized, flags)
        options = self._personalize_codegen(
            self.pass_manager.codegen_options(flags, effects), flags
        )
        from repro.opt.pass_manager import optimization_report

        metadata = {
            "compiler_family": self.family,
            "compiler_version": self.version,
            "flag_count": str(len(flags)),
            "flag_hash": hashlib.sha256(" ".join(flags.sorted_names()).encode()).hexdigest()[:12],
        }
        try:
            image = link_module(optimized, options=options, name=name, metadata=metadata)
        except Exception as exc:
            raise CompilationError(f"backend error: {exc}") from exc
        return CompileResult(
            image=image,
            flags=flags,
            pass_statistics=optimization_report(optimized),
            elapsed_seconds=time.perf_counter() - started,
        )

    def compile_level(self, source, level: str, name: str = "program") -> CompileResult:
        """Compile at a default optimization level (``O0``, ``O1``, ..., ``Os``)."""
        return self.compile(source, self.preset(level), name=name)
