"""The Omniware object file format (OOF).

An object module is the unit the OmniVM assembler and the compiler back
end produce, and what the linker combines into an executable mobile
module.  It contains:

* a **text** section: OmniVM instructions, with symbolic ``label``
  operands still unresolved (both module-local labels and references to
  other objects' symbols);
* a **data** section: raw initialized bytes plus address relocations;
* a **symbol table**: exported (global) and local definitions, each
  naming a section and offset;
* a **bss** size: zero-initialized space appended after data at link time;
* an **import list**: symbols this module expects some other module to
  export.  The static linker treats them like any other undefined
  reference; the dynamic link-loader (:mod:`repro.runtime.linker`) uses
  them to build the inter-module dependency graph and the per-module
  trampoline table.

Object files serialize to a compact binary form (magic ``OOF1``) so the
test suite can round-trip them and examples can ship them between
"machines" as real mobile code bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import ObjectFormatError
from repro.omnivm.encoding import decode_instr, encode_instr
from repro.omnivm.isa import INSTR_SIZE, VMInstr

MAGIC = b"OOF1"


@dataclass
class SymbolDef:
    """A symbol definition within an object module."""

    name: str
    section: str  # 'text' | 'data' | 'bss'
    offset: int  # bytes from section start (text: instr_index * 8)
    is_global: bool = True


@dataclass
class DataReloc:
    """Patch the 32-bit word at ``offset`` (in the data section) with the
    final address of ``symbol`` plus the addend already stored there."""

    offset: int
    symbol: str


@dataclass
class ObjectModule:
    name: str = "object"
    text: list[VMInstr] = field(default_factory=list)
    data: bytes = b""
    bss_size: int = 0
    symbols: list[SymbolDef] = field(default_factory=list)
    data_relocs: list[DataReloc] = field(default_factory=list)
    imports: list[str] = field(default_factory=list)

    def define(self, name: str, section: str, offset: int,
               is_global: bool = True) -> None:
        self.symbols.append(SymbolDef(name, section, offset, is_global))

    def declare_imports(self) -> None:
        """Record every currently-undefined reference as a declared
        import (idempotent; preserves previously declared names)."""
        merged = set(self.imports) | self.undefined_symbols()
        self.imports = sorted(merged)

    def referenced_labels(self) -> set[str]:
        return {i.label for i in self.text if i.label is not None}

    def undefined_symbols(self) -> set[str]:
        defined = {s.name for s in self.symbols}
        refs = self.referenced_labels() | {r.symbol for r in self.data_relocs}
        return {r for r in refs if r not in defined}

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += MAGIC
        out += _pack_str(self.name)
        # Text: count, then per instruction 8 encoded bytes + label string.
        out += struct.pack("<I", len(self.text))
        for instr in self.text:
            label = instr.label
            clone = VMInstr(instr.op, instr.rd, instr.rs, instr.rt,
                            instr.fd, instr.fs, instr.ft, instr.imm,
                            instr.imm2, None)
            out += encode_instr(clone)
            out += _pack_str(label or "")
        out += struct.pack("<I", len(self.data))
        out += self.data
        out += struct.pack("<I", self.bss_size)
        out += struct.pack("<I", len(self.symbols))
        for sym in self.symbols:
            out += _pack_str(sym.name)
            out += _pack_str(sym.section)
            out += struct.pack("<iB", sym.offset, 1 if sym.is_global else 0)
        out += struct.pack("<I", len(self.data_relocs))
        for reloc in self.data_relocs:
            out += struct.pack("<I", reloc.offset)
            out += _pack_str(reloc.symbol)
        # Import list: a trailing section so pre-import blobs (which end
        # exactly after the relocation table) still decode.
        out += struct.pack("<I", len(self.imports))
        for name in self.imports:
            out += _pack_str(name)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ObjectModule":
        try:
            return cls._from_bytes(blob)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise ObjectFormatError(f"truncated or corrupt object: {exc}")

    @classmethod
    def _from_bytes(cls, blob: bytes) -> "ObjectModule":
        if blob[:4] != MAGIC:
            raise ObjectFormatError("bad magic: not an OOF object")
        cursor = [4]
        name = _unpack_str(blob, cursor)
        module = cls(name)
        (count,) = struct.unpack_from("<I", blob, cursor[0])
        cursor[0] += 4
        for _ in range(count):
            instr = decode_instr(blob, cursor[0])
            cursor[0] += INSTR_SIZE
            label = _unpack_str(blob, cursor)
            if label:
                instr.label = label
            module.text.append(instr)
        (data_len,) = struct.unpack_from("<I", blob, cursor[0])
        cursor[0] += 4
        module.data = bytes(blob[cursor[0]:cursor[0] + data_len])
        if len(module.data) != data_len:
            raise ObjectFormatError("truncated data section")
        cursor[0] += data_len
        (module.bss_size,) = struct.unpack_from("<I", blob, cursor[0])
        cursor[0] += 4
        (sym_count,) = struct.unpack_from("<I", blob, cursor[0])
        cursor[0] += 4
        for _ in range(sym_count):
            sym_name = _unpack_str(blob, cursor)
            section = _unpack_str(blob, cursor)
            offset, is_global = struct.unpack_from("<iB", blob, cursor[0])
            cursor[0] += 5
            module.symbols.append(
                SymbolDef(sym_name, section, offset, bool(is_global))
            )
        (reloc_count,) = struct.unpack_from("<I", blob, cursor[0])
        cursor[0] += 4
        for _ in range(reloc_count):
            (offset,) = struct.unpack_from("<I", blob, cursor[0])
            cursor[0] += 4
            symbol = _unpack_str(blob, cursor)
            module.data_relocs.append(DataReloc(offset, symbol))
        if cursor[0] < len(blob):  # import list absent in older blobs
            (import_count,) = struct.unpack_from("<I", blob, cursor[0])
            cursor[0] += 4
            for _ in range(import_count):
                module.imports.append(_unpack_str(blob, cursor))
        return module


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ObjectFormatError("string too long")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(blob: bytes, cursor: list[int]) -> str:
    (length,) = struct.unpack_from("<H", blob, cursor[0])
    cursor[0] += 2
    raw = blob[cursor[0]:cursor[0] + length]
    if len(raw) != length:
        raise ObjectFormatError("truncated string")
    cursor[0] += length
    return raw.decode("utf-8")
