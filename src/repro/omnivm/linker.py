"""The OmniVM linker.

Combines one or more :class:`~repro.omnivm.objfile.ObjectModule` objects
into an executable mobile module: concatenates text and data sections,
assigns absolute addresses inside the standard segment layout, resolves
every symbolic label to a 32-bit address, and applies data relocations.

Because symbols are fully resolved here — before the module ships — the
translated native code never pays dynamic-linking costs; the paper notes
this lets the SPARC translator keep a global pointer set up across calls.

:func:`link_at` is the one statement of the linking rules (symbol
placement, naming, label resolution, data relocation, function ranges).
:func:`link` runs it at the start of the code and data segments; the
dynamic link-loader (:mod:`repro.runtime.linker`) runs it once per module
at that module's placement, with imports resolved through a hook.

A program is sealed once it is linked: nothing changes its instructions,
data, symbols or function ranges afterwards.  Its encoded text and its
cache digest (:func:`repro.cache.program_digest`) are therefore computed
once, on first use, and kept on the program.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

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
    #: Index of the first instruction within the code segment.  A
    #: whole program starts at 0; each module of a dynamic link is linked
    #: at its own placement deeper in the segment (``symbols`` and
    #: ``function_ranges`` use absolute addresses and indices either way).
    base_index: int = 0
    #: OmniVM byte addresses of control-transfer targets that live in
    #: *other* modules of a dynamic link.  Empty for whole programs.
    extern_addrs: frozenset[int] = frozenset()
    #: The encoded text and the cache digest, once computed.  They are
    #: not init fields, so a copy made with :func:`dataclasses.replace`
    #: computes its own; a shallow :func:`copy.copy` shares them.
    _text_image: bytes | None = field(default=None, init=False,
                                      repr=False, compare=False)
    digest_hint: str | None = field(default=None, init=False,
                                    repr=False, compare=False)

    @property
    def entry_address(self) -> int:
        try:
            return self.symbols[self.entry_symbol]
        except KeyError:
            raise LinkError(f"entry symbol {self.entry_symbol!r} not defined")

    @property
    def text_image(self) -> bytes:
        """The encoded text, computed on first use."""
        if self._text_image is None:
            self._text_image = encode_program(self.instrs)
        return self._text_image

    @text_image.setter
    def text_image(self, text: bytes) -> None:
        # For a linker that builds the text from parts it already holds.
        self._text_image = text

    def address_of(self, symbol: str) -> int:
        if symbol not in self.symbols:
            raise LinkError(f"unknown symbol {symbol!r}")
        return self.symbols[symbol]


def link(objects: list[ObjectModule], name: str = "a.out",
         entry_symbol: str = "main") -> LinkedProgram:
    """Link *objects* into an executable module."""
    with metrics.stage("link"):
        return link_at(objects, name, entry_symbol)


def link_at(objects: list[ObjectModule], name: str, entry_symbol: str,
            base_index: int = 0, data_base: int = DATA_BASE,
            module: str | None = None,
            external: Callable[[str, str | None], int] | None = None,
            ) -> LinkedProgram:
    """Link *objects* with their text from instruction *base_index* of
    the code segment and their data from address *data_base*.

    The naming rule: an object defines each name at most once, local or
    global, and a link defines each global at most once.  A local symbol
    is visible only in its own object and is qualified by the object's
    index (``loop@0``), or by *module* when the objects are one module
    of a dynamic link (whose duplicate errors then name the module).
    A reference to a name no object defines resolves through
    ``external(symbol, kind)``, where *kind* is the referencing
    instruction's kind, or None for a data word; without *external* it
    is an error.
    """
    program = LinkedProgram(name, entry_symbol=entry_symbol,
                            base_index=base_index)

    # Pass 1: lay out text and data, building the symbol table.
    text_base: list[int] = []
    data_offset: list[int] = []
    instr_cursor = base_index
    data_cursor = 0
    for obj in objects:
        text_base.append(instr_cursor)
        instr_cursor += len(obj.text)
        data_cursor = align_up(data_cursor, 8)
        data_offset.append(data_cursor)
        data_cursor += len(obj.data) + obj.bss_size
    # The last aligned slot of the code segment is the return sentinel;
    # text that reaches it would shadow the halt address.
    check_sentinel_clearance(base_index, instr_cursor - base_index)

    # Per object: each name it defines -> its key in program.symbols.
    scopes: list[dict[str, str]] = []
    for obj_index, obj in enumerate(objects):
        scope: dict[str, str] = {}
        qualifier = obj_index if module is None else module
        for sym in obj.symbols:
            key = sym.name if sym.is_global else f"{sym.name}@{qualifier}"
            if sym.section == "text":
                if sym.offset % INSTR_SIZE != 0:
                    raise LinkError(f"misaligned text symbol {sym.name!r}")
                address = (CODE_BASE + text_base[obj_index] * INSTR_SIZE
                           + sym.offset)
            elif sym.section == "data":
                address = data_base + data_offset[obj_index] + sym.offset
            elif sym.section == "bss":
                address = (data_base + data_offset[obj_index]
                           + len(obj.data) + sym.offset)
            else:
                raise LinkError(f"symbol {sym.name!r} in bad section {sym.section!r}")
            if sym.name in scope or key in program.symbols:
                if module is not None:
                    raise LinkError(f"duplicate symbol {sym.name!r} "
                                    f"in module {module!r}")
                if sym.is_global:
                    raise LinkError(f"duplicate symbol {sym.name!r}")
                raise LinkError(f"duplicate local symbol {key!r}")
            scope[sym.name] = key
            program.symbols[key] = u32(address)
        scopes.append(scope)

    def resolve(obj_index: int, symbol: str, kind: str | None) -> int:
        address = program.symbols.get(scopes[obj_index].get(symbol, symbol))
        if address is not None:
            return address
        if external is not None:
            return external(symbol, kind)
        referrer = objects[obj_index].name
        raise LinkError(f"undefined symbol {symbol!r} " + (
            f"in data of {referrer!r}" if kind is None
            else f"referenced from object {referrer!r}"))

    # Pass 2: copy text, resolving labels.
    for obj_index, obj in enumerate(objects):
        for instr in obj.text:
            clone = VMInstr(instr.op, instr.rd, instr.rs, instr.rt,
                            instr.fd, instr.fs, instr.ft, instr.imm,
                            instr.imm2, None)
            if instr.label is not None:
                clone.imm = resolve(obj_index, instr.label, instr.spec.kind)
            program.instrs.append(clone)

    # Pass 3: copy data and apply relocations.
    program.data_image = bytearray(data_cursor)
    for obj_index, obj in enumerate(objects):
        base = data_offset[obj_index]
        program.data_image[base:base + len(obj.data)] = obj.data
        for reloc in obj.data_relocs:
            address = resolve(obj_index, reloc.symbol, None)
            where = base + reloc.offset
            (addend,) = struct.unpack_from("<I", program.data_image, where)
            struct.pack_into("<I", program.data_image, where,
                             u32(address + addend))

    # Pass 4: function ranges (for the verifier and translators).
    starts = sorted(
        (text_base[obj_index] + sym.offset // INSTR_SIZE, sym.name)
        for obj_index, obj in enumerate(objects)
        for sym in obj.symbols
        if sym.section == "text" and sym.is_global
    )
    for position, (start, sym_name) in enumerate(starts):
        end = (starts[position + 1][0] if position + 1 < len(starts)
               else instr_cursor)
        program.function_ranges[sym_name] = (start, end)
    return program
