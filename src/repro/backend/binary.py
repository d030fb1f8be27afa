"""Binary image container: sections, symbols, serialization.

A :class:`BinaryImage` is the linker's output and the input to every binary
analysis tool in the repository (disassembler, diffing tools, scanners,
emulator).  It mimics a stripped-down ELF: a ``.text`` section of encoded
instructions, a ``.data`` section of initialized global words, a ``.rodata``
section holding jump tables, and a symbol table.

The symbol table carries *ground-truth* function boundaries.  Diffing tools do
not use symbol names to match functions (that would be cheating); names are
only used by the evaluation harness to compute Precision@1 against the ground
truth, exactly as the paper does with its compiled-from-source datasets.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Word address where global data starts in the emulator's memory.
GLOBAL_BASE = 0x1000
#: Word address of the top of the stack (stack grows down).
STACK_TOP = 0x100000
#: Word address where the bump allocator (malloc) starts.
HEAP_BASE = 0x80000


@dataclass
class Symbol:
    """A named object inside the image."""

    name: str
    section: str
    offset: int          # byte offset in .text, or word address for data
    size: int            # bytes for .text symbols, words for data symbols
    kind: str = "func"   # "func" | "object" | "table"
    is_static: bool = False


@dataclass
class Section:
    """A named byte blob."""

    name: str
    data: bytes = b""

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass
class BinaryImage:
    """A linked program image."""

    name: str
    sections: Dict[str, Section] = field(default_factory=dict)
    symbols: List[Symbol] = field(default_factory=list)
    entry_point: int = 0
    #: Compiler provenance metadata (family, version, flag vector hash).  Real
    #: binaries carry comparable traces in .comment/.note sections; provenance
    #: *recovery* (repro.provenance) never reads this field — it is kept only
    #: as ground truth for evaluating the classifier.
    metadata: Dict[str, str] = field(default_factory=dict)

    # -- section helpers -----------------------------------------------------

    @property
    def text(self) -> bytes:
        return self.sections.get(".text", Section(".text")).data

    @property
    def data(self) -> bytes:
        return self.sections.get(".data", Section(".data")).data

    @property
    def rodata(self) -> bytes:
        return self.sections.get(".rodata", Section(".rodata")).data

    def set_section(self, name: str, data: bytes) -> None:
        self.sections[name] = Section(name, data)

    def code_size(self) -> int:
        return len(self.text)

    # -- symbol helpers ------------------------------------------------------

    def function_symbols(self) -> List[Symbol]:
        return [sym for sym in self.symbols if sym.kind == "func"]

    def symbol(self, name: str) -> Symbol:
        for sym in self.symbols:
            if sym.name == name:
                return sym
        raise KeyError(name)

    def function_at(self, offset: int) -> Optional[Symbol]:
        """The function symbol containing the given .text byte offset."""
        for sym in self.function_symbols():
            if sym.offset <= offset < sym.offset + sym.size:
                return sym
        return None

    # -- data access for the emulator ---------------------------------------

    def initial_memory(self) -> Dict[int, int]:
        """Initial data memory image: word address -> word value."""
        memory: Dict[int, int] = {}
        words = len(self.data) // 8
        for index in range(words):
            value = struct.unpack_from("<q", self.data, index * 8)[0]
            memory[GLOBAL_BASE + index] = value
        return memory

    # -- identity ------------------------------------------------------------

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.sections):
            digest.update(name.encode())
            digest.update(self.sections[name].data)
        return digest.hexdigest()

    def fingerprint(self) -> str:
        """Short content hash used by the tuner database."""
        return self.sha256()[:16]

    # -- (de)serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to a simple container format (header JSON + raw blobs)."""
        header = {
            "name": self.name,
            "entry_point": self.entry_point,
            "metadata": self.metadata,
            "sections": [
                {"name": s.name, "size": s.size} for s in self.sections.values()
            ],
            "symbols": [
                {
                    "name": sym.name,
                    "section": sym.section,
                    "offset": sym.offset,
                    "size": sym.size,
                    "kind": sym.kind,
                    "is_static": sym.is_static,
                }
                for sym in self.symbols
            ],
        }
        header_bytes = json.dumps(header, sort_keys=True).encode()
        blob = bytearray()
        blob += struct.pack("<I", len(header_bytes))
        blob += header_bytes
        for section in self.sections.values():
            blob += section.data
        return bytes(blob)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BinaryImage":
        (header_len,) = struct.unpack_from("<I", raw, 0)
        header = json.loads(raw[4 : 4 + header_len].decode())
        image = cls(name=header["name"], entry_point=header["entry_point"])
        image.metadata = dict(header.get("metadata", {}))
        cursor = 4 + header_len
        for section_info in header["sections"]:
            size = section_info["size"]
            image.set_section(section_info["name"], raw[cursor : cursor + size])
            cursor += size
        for sym in header["symbols"]:
            image.symbols.append(
                Symbol(
                    name=sym["name"],
                    section=sym["section"],
                    offset=sym["offset"],
                    size=sym["size"],
                    kind=sym["kind"],
                    is_static=sym.get("is_static", False),
                )
            )
        return image
