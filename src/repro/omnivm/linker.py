"""The OmniVM linker.

Combines one or more :class:`~repro.omnivm.objfile.ObjectModule` objects
into an executable mobile module: concatenates text and data sections,
assigns absolute addresses inside the standard segment layout, resolves
every symbolic label to a 32-bit address, and applies data relocations.

Because symbols are fully resolved here — before the module ships — the
translated native code never pays dynamic-linking costs; the paper notes
this lets the SPARC translator keep a global pointer set up across calls.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro import metrics
from repro.errors import LinkError
from repro.omnivm.encoding import encode_program
from repro.omnivm.isa import INSTR_SIZE, VMInstr
from repro.omnivm.memory import CODE_BASE, DATA_BASE
from repro.omnivm.objfile import ObjectModule
from repro.sfi.policy import check_sentinel_clearance
from repro.utils.bits import align_up, u32


@dataclass
class LinkedProgram:
    """A fully linked, executable mobile module."""

    name: str
    instrs: list[VMInstr] = field(default_factory=list)
    data_image: bytearray = field(default_factory=bytearray)
    symbols: dict[str, int] = field(default_factory=dict)
    #: name -> (first instruction index, one-past-last index)
    function_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)
    entry_symbol: str = "main"
    #: Index of the first instruction within the code segment.  The
    #: static linker always produces base 0; the dynamic link-loader
    #: builds per-module translation units whose text starts deeper in
    #: the segment (``symbols``/``function_ranges`` use absolute
    #: addresses/indices either way).
    base_index: int = 0
    #: OmniVM byte addresses of control-transfer targets that live in
    #: *other* modules of a dynamic link.  Empty for whole programs.
    extern_addrs: frozenset[int] = frozenset()

    @property
    def entry_address(self) -> int:
        try:
            return self.symbols[self.entry_symbol]
        except KeyError:
            raise LinkError(f"entry symbol {self.entry_symbol!r} not defined")

    @property
    def text_image(self) -> bytes:
        return encode_program(self.instrs)

    def address_of(self, symbol: str) -> int:
        if symbol not in self.symbols:
            raise LinkError(f"unknown symbol {symbol!r}")
        return self.symbols[symbol]


def link(objects: list[ObjectModule], name: str = "a.out",
         entry_symbol: str = "main") -> LinkedProgram:
    """Link *objects* into an executable module."""
    with metrics.stage("link"):
        return _link(objects, name, entry_symbol)


def _link(objects: list[ObjectModule], name: str,
          entry_symbol: str) -> LinkedProgram:
    program = LinkedProgram(name, entry_symbol=entry_symbol)

    # Pass 1: lay out text and data, building the global symbol table.
    # Local (non-global) symbols are mangled with the object index so the
    # same label name can appear in several objects.
    text_base_index: list[int] = []
    data_base: list[int] = []
    instr_cursor = 0
    data_cursor = 0
    for obj in objects:
        text_base_index.append(instr_cursor)
        instr_cursor += len(obj.text)
        data_cursor = align_up(data_cursor, 8)
        data_base.append(data_cursor)
        data_cursor += len(obj.data) + obj.bss_size
    # The last aligned slot of the code segment is the return sentinel;
    # text that reaches it would shadow the halt address.
    check_sentinel_clearance(0, instr_cursor)

    def mangle(obj_index: int, symbol: str, is_global: bool) -> str:
        return symbol if is_global else f"{symbol}@{obj_index}"

    for obj_index, obj in enumerate(objects):
        for sym in obj.symbols:
            key = mangle(obj_index, sym.name, sym.is_global)
            if sym.section == "text":
                if sym.offset % INSTR_SIZE != 0:
                    raise LinkError(f"misaligned text symbol {sym.name!r}")
                address = CODE_BASE + (
                    text_base_index[obj_index] * INSTR_SIZE + sym.offset
                )
            elif sym.section == "data":
                address = DATA_BASE + data_base[obj_index] + sym.offset
            elif sym.section == "bss":
                address = DATA_BASE + data_base[obj_index] + len(obj.data) + sym.offset
            else:
                raise LinkError(f"symbol {sym.name!r} in bad section {sym.section!r}")
            if key in program.symbols:
                if sym.is_global:
                    raise LinkError(f"duplicate symbol {sym.name!r}")
                raise LinkError(f"duplicate local symbol {key!r}")
            program.symbols[key] = u32(address)

    # Pass 2: copy text, resolving labels.
    for obj_index, obj in enumerate(objects):
        local_names = {s.name for s in obj.symbols if not s.is_global}
        for instr in obj.text:
            clone = VMInstr(instr.op, instr.rd, instr.rs, instr.rt,
                            instr.fd, instr.fs, instr.ft, instr.imm,
                            instr.imm2, None)
            if instr.label is not None:
                key = instr.label
                if key in local_names:
                    key = mangle(obj_index, key, False)
                if key not in program.symbols:
                    raise LinkError(
                        f"undefined symbol {instr.label!r} referenced from "
                        f"object {obj.name!r}"
                    )
                clone.imm = program.symbols[key]
            program.instrs.append(clone)

    # Pass 3: copy data and apply relocations.
    program.data_image = bytearray(data_cursor)
    for obj_index, obj in enumerate(objects):
        base = data_base[obj_index]
        program.data_image[base:base + len(obj.data)] = obj.data
        local_names = {s.name for s in obj.symbols if not s.is_global}
        for reloc in obj.data_relocs:
            key = reloc.symbol
            if key in local_names:
                key = mangle(obj_index, key, False)
            if key not in program.symbols:
                raise LinkError(
                    f"undefined symbol {reloc.symbol!r} in data of {obj.name!r}"
                )
            where = base + reloc.offset
            (addend,) = struct.unpack_from("<I", program.data_image, where)
            struct.pack_into(
                "<I", program.data_image, where,
                u32(program.symbols[key] + addend),
            )

    # Pass 4: function ranges (for the verifier and translators).
    _compute_function_ranges(program, objects, text_base_index)
    return program


def _compute_function_ranges(
    program: LinkedProgram,
    objects: list[ObjectModule],
    text_base_index: list[int],
) -> None:
    starts: list[tuple[int, str]] = []
    for obj_index, obj in enumerate(objects):
        for sym in obj.symbols:
            if sym.section == "text" and sym.is_global:
                index = text_base_index[obj_index] + sym.offset // INSTR_SIZE
                starts.append((index, sym.name))
    starts.sort()
    for position, (start, name) in enumerate(starts):
        end = (
            starts[position + 1][0]
            if position + 1 < len(starts)
            else len(program.instrs)
        )
        program.function_ranges[name] = (start, end)
