"""Dynamic linking of separately translated mobile modules.

The paper's deployment story is many mobile modules importing host APIs
*and each other*: millions of users share a few common library modules
with tiny per-user deltas, so the host must be able to translate a
library once and link it into many programs.  This module provides that
link-loader layer on top of the static OmniVM linker:

* a :class:`ModuleRegistry` holds named :class:`ModuleDef` entries —
  object modules that declare imports/exports — with epoch counters so a
  module can be *revoked* or *reloaded* in a running service;
* :func:`dynamic_link` resolves a root set's import closure, rejects
  cycles / missing / duplicate exports, lays the modules out at a
  canonical dependencies-first position in the code segment, and links
  each module with the static linker
  (:func:`~repro.omnivm.linker.link_at`) at that placement, dependencies
  first, routing every cross-module call through an import
  **trampoline** (a single OmniVM ``j`` per imported function, placed
  after the importer's text).  Each module's link is its translation
  unit; the image splices the units;
* the resulting :class:`LinkedImage` *is* a
  :class:`~repro.omnivm.linker.LinkedProgram` — every existing execution
  engine (reference interpreter, threaded engines, all four native
  targets) runs it unmodified — but it additionally remembers the
  per-module layout, so verification can enforce the cross-module rule:
  **a module may only transfer control into another module through an
  exported symbol**;
* :func:`translate_image` verifies the image once, then translates each
  module as its own translation unit (content-addressed in the
  :class:`~repro.cache.TranslationCache`, so a shared library translates
  once no matter how many programs link it), SFI-verifies every unit
  under *that module's*
  :class:`~repro.sfi.policy.SandboxPolicy`, then splices the chunks,
  patching the trampoline fix-ups against the merged address map after
  checking each one targets an exported symbol.

Trampolines keep cross-module control transfer auditable and cheap: at
the OmniVM level a cross-module call is ``jal tramp`` (the return address
written to ``ra`` is an ordinary in-module address) followed by the
trampoline's ``j export``; at the native level the trampoline's jump is
the *only* instruction whose target crosses a translation-unit boundary,
emitted as a self-loop until the link-loader patches it — so an unpatched
or stolen chunk cannot escape its own code.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from dataclasses import dataclass, field

from repro import metrics
from repro.errors import (
    CrossModuleViolation,
    DuplicateExportError,
    DynamicLinkError,
    LinkError,
    ModuleCycleError,
    ModuleRevokedError,
    QuotaExceeded,
    UnresolvedImportError,
)
from repro.omnivm.encoding import encode_instr
from repro.omnivm.isa import INSTR_SIZE, VMInstr
from repro.omnivm.linker import LinkedProgram, link_at
from repro.omnivm.memory import (
    CODE_BASE,
    DATA_BASE,
    DEFAULT_SEGMENT_SIZE,
    PERM_EXEC,
    PERM_READ,
    PERM_WRITE,
    Memory,
    add_heap_and_stack,
    module_segment_size,
)
from repro.omnivm.objfile import ObjectModule
from repro.sfi.policy import (
    DEFAULT_POLICY,
    SandboxPolicy,
    check_sentinel_clearance,
)
from repro.utils.bits import align_up, u32

#: Module text is placed on 64-instruction boundaries; the padding is
#: filled with ``trap`` so control falling off a module's end faults.
TEXT_ALIGN_INSTRS = 64
#: Each module's data+bss block starts on its own 4 KiB-aligned base, so
#: every module gets a private data segment in :func:`image_memory`.
DATA_ALIGN = 4096

#: Instruction kinds that transfer control via a symbolic label and
#: therefore go through a trampoline when the label is imported.
_CONTROL_KINDS = ("branch", "branchi", "jump", "call")

#: Synthetic symbol anchoring each per-module translation unit's entry.
_MODULE_START = "__module_start"

#: The encoded ``trap`` that pads each module's text to its alignment.
_TRAP_TEXT = encode_instr(VMInstr("trap", imm=0xDEAD))


def object_digest(obj: ObjectModule) -> str:
    """Content hash identifying one registered object module."""
    return hashlib.sha256(obj.to_bytes()).hexdigest()


@dataclass
class ModuleDef:
    """One registered module: content, policy, and linkage interface."""

    name: str
    obj: ObjectModule
    policy: SandboxPolicy = DEFAULT_POLICY
    epoch: int = 1
    revoked: bool = False
    digest: str = ""
    #: program digests of every per-layout translation unit built from
    #: this definition (filled during linking; drained on revocation so
    #: the engine can drop exactly this module's cached chunks)
    chunk_digests: set[str] = field(default_factory=set)
    #: sealed translation units linked from this definition, each with
    #: the symbols its link defined, keyed by placement and resolved
    #: import addresses (see :func:`dynamic_link`); changed only under
    #: the registry lock, dropped on revocation
    units: dict[tuple, tuple[LinkedProgram, dict[str, int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    #: the linkage interface — exported symbols with their sections,
    #: and imported names — computed once: a definition's object never
    #: changes after registration
    exports: dict[str, SymbolSection] = field(
        init=False, repr=False, compare=False)
    imports: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = object_digest(self.obj)
        self.exports = {
            s.name: s.section for s in self.obj.symbols if s.is_global
        }
        self.imports = set(self.obj.imports) | self.obj.undefined_symbols()


SymbolSection = str  # 'text' | 'data' | 'bss'


class ModuleRegistry:
    """Named, versioned module definitions shared by an engine/service.

    Thread-safe: registration, revocation, and the snapshot
    :func:`dynamic_link` takes all serialize on one internal lock.
    """

    def __init__(self) -> None:
        self._modules: dict[str, ModuleDef] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._modules)

    def names(self) -> list[str]:
        with self._lock:
            return list(self._modules)

    def register(self, name: str, obj: ObjectModule,
                 policy: SandboxPolicy = DEFAULT_POLICY) -> ModuleDef:
        """Register (or reload) *name*.  Re-registering bumps the epoch,
        clearing any revocation; the caller is responsible for dropping
        the previous definition's cached chunks (see
        ``Engine.register_module``)."""
        with self._lock:
            previous = self._modules.get(name)
            epoch = previous.epoch + 1 if previous is not None else 1
            definition = ModuleDef(name, obj, policy, epoch=epoch)
            self._modules[name] = definition
            metrics.count("link.register")
            return definition

    def lookup(self, name: str) -> ModuleDef | None:
        """The current definition of *name* (revoked or not), or None."""
        with self._lock:
            return self._modules.get(name)

    def get(self, name: str) -> ModuleDef:
        """The live definition of *name*; raises on unknown or revoked."""
        with self._lock:
            definition = self._modules.get(name)
            if definition is None:
                raise DynamicLinkError(f"unknown module {name!r}")
            if definition.revoked:
                raise ModuleRevokedError(name, definition.epoch)
            return definition

    def revoke(self, name: str) -> ModuleDef:
        """Mark *name* revoked.  In-flight executions of images linked
        against it complete; new links raise
        :class:`~repro.errors.ModuleRevokedError`."""
        with self._lock:
            definition = self._modules.get(name)
            if definition is None:
                raise DynamicLinkError(f"unknown module {name!r}")
            definition.revoked = True
            definition.units.clear()
            metrics.count("link.revoke")
            return definition

    def exporters(self, symbol: str) -> list[ModuleDef]:
        """Every non-revoked module exporting *symbol*."""
        with self._lock:
            return [
                d for d in self._modules.values()
                if not d.revoked and symbol in d.exports
            ]

    def revoked_exporters(self, symbol: str) -> list[ModuleDef]:
        """Revoked modules exporting *symbol* (for error reporting)."""
        with self._lock:
            return [
                d for d in self._modules.values()
                if d.revoked and symbol in d.exports
            ]

    @property
    def lock(self) -> threading.RLock:
        return self._lock


@dataclass
class ModuleLayout:
    """Where one module landed inside a :class:`LinkedImage`."""

    name: str
    epoch: int
    digest: str
    policy: SandboxPolicy
    base_index: int  # absolute instruction index of the module's text
    text_len: int    # instructions, including the trampoline table
    tramp_len: int   # trailing trampoline instructions
    data_base: int   # absolute address of the module's data block
    data_len: int    # data + bss bytes
    exports: dict[str, int] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)  # symbol -> provider
    trampolines: dict[str, int] = field(default_factory=dict)  # symbol -> addr
    subprogram: LinkedProgram | None = None

    @property
    def code_lo(self) -> int:
        return CODE_BASE + self.base_index * INSTR_SIZE

    @property
    def code_hi(self) -> int:
        return self.code_lo + self.text_len * INSTR_SIZE

    def contains_code(self, address: int) -> bool:
        return self.code_lo <= address < self.code_hi


@dataclass
class LinkedImage(LinkedProgram):
    """A dynamically linked multi-module program.

    Structurally a :class:`~repro.omnivm.linker.LinkedProgram` (base 0,
    no extern targets) so every execution engine accepts it; the extra
    fields carry the per-module layout for verification, per-module
    translation, and revocation checks."""

    modules: list[ModuleLayout] = field(default_factory=list)
    #: absolute addresses of exported *text* symbols — the only legal
    #: cross-module control-transfer targets
    code_export_addrs: frozenset[int] = frozenset()
    #: (module name, epoch) pairs this image was linked against
    lineage: tuple[tuple[str, int], ...] = ()

    def layout_named(self, name: str) -> ModuleLayout:
        for layout in self.modules:
            if layout.name == name:
                return layout
        raise DynamicLinkError(f"image has no module {name!r}")

    # Called by repro.omnivm.verifier.verify_program via duck typing.
    def verify_cross_module(self) -> None:
        """Enforce the inter-module SFI rule: any control transfer or
        materialized code address crossing a module boundary must target
        an exported symbol."""
        text_hi = CODE_BASE + len(self.instrs) * INSTR_SIZE
        for layout in self.modules:
            lo, hi = layout.code_lo, layout.code_hi
            start = layout.base_index
            for offset in range(layout.text_len):
                instr = self.instrs[start + offset]
                kind = instr.spec.kind
                if kind in _CONTROL_KINDS:
                    target = u32(instr.imm)
                elif kind == "li":
                    target = u32(instr.imm)
                    if not CODE_BASE <= target < text_hi:
                        continue  # not a code address at all
                else:
                    continue
                if lo <= target < hi:
                    continue  # module-local
                if target not in self.code_export_addrs:
                    raise CrossModuleViolation(
                        f"module {layout.name!r} references foreign code "
                        f"address {target:#x} which is not an exported "
                        f"symbol",
                        module=layout.name, target=target,
                    )


def _resolve_closure(
    registry: ModuleRegistry, roots: list[str]
) -> tuple[dict[str, ModuleDef], dict[str, dict[str, str]]]:
    """Pull the import closure of *roots* out of the registry.

    Returns the closure (name -> definition, in discovery order) and
    each member's import resolution (name -> {symbol -> provider}).
    Raises the dynamic-link error family on unknown/revoked modules,
    unresolvable or ambiguous imports.
    """
    closure: dict[str, ModuleDef] = {}
    providers: dict[str, dict[str, str]] = {}
    worklist = list(roots)
    while worklist:
        name = worklist.pop(0)
        if name in closure:
            continue
        definition = registry.get(name)
        closure[name] = definition
        resolved: dict[str, str] = {}
        for symbol in sorted(definition.imports):
            exporters = registry.exporters(symbol)
            if not exporters:
                # Name the real cause when the only provider was revoked
                # rather than reporting a generic unresolved import.
                for revoked in registry.revoked_exporters(symbol):
                    raise ModuleRevokedError(revoked.name, revoked.epoch)
                raise UnresolvedImportError(symbol, importer=name)
            if len(exporters) > 1:
                raise DuplicateExportError(
                    symbol, tuple(sorted(d.name for d in exporters))
                )
            resolved[symbol] = exporters[0].name
            if exporters[0].name not in closure:
                worklist.append(exporters[0].name)
        providers[name] = resolved
    # Duplicate exports *within* the closure are an error even when the
    # symbol is never imported: the image has one flat namespace.
    seen: dict[str, str] = {}
    for name, definition in closure.items():
        for symbol in definition.exports:
            if symbol in seen and seen[symbol] != name:
                raise DuplicateExportError(symbol, (seen[symbol], name))
            seen[symbol] = name
    return closure, providers


def _topological_order(
    closure: dict[str, ModuleDef],
    providers: dict[str, dict[str, str]],
) -> list[str]:
    """Dependencies-first canonical order (stable across link requests:
    ready modules are placed in registry/discovery order), so a shared
    library occupies the same base in every image that links it and its
    translation unit is cacheable.  Cycles are rejected."""
    deps: dict[str, set[str]] = {
        name: {p for p in providers[name].values() if p != name}
        for name in closure
    }
    order: list[str] = []
    placed: set[str] = set()
    remaining = list(closure)  # discovery order
    while remaining:
        ready = [n for n in remaining if deps[n] <= placed]
        if not ready:
            raise ModuleCycleError(_find_cycle(deps, remaining))
        for name in ready:
            order.append(name)
            placed.add(name)
            remaining.remove(name)
    return order


def _find_cycle(deps: dict[str, set[str]], remaining: list[str]
                ) -> tuple[str, ...]:
    """Extract one dependency cycle among *remaining* for the error."""
    trail: list[str] = []
    seen: set[str] = set()
    node = remaining[0]
    while node not in seen:
        seen.add(node)
        trail.append(node)
        successors = [n for n in sorted(deps[node]) if n in remaining]
        if not successors:  # pragma: no cover - defensive
            return tuple(trail)
        node = successors[0]
    start = trail.index(node)
    return tuple(trail[start:])


def dynamic_link(
    registry: ModuleRegistry,
    roots: list[str],
    entry_symbol: str = "main",
    name: str | None = None,
) -> LinkedImage:
    """Link the import closure of *roots* into a :class:`LinkedImage`.

    Layout is canonical (dependencies first, 64-instruction text
    alignment, 4 KiB data alignment), so the translation unit of a
    module that many programs share is byte-identical across links and
    its native translation is served from the cache after the first.

    Each module is linked once per placement: its
    :class:`ModuleDef` memoizes the sealed unit under (base index, data
    base, the addresses its imports resolve to), which is everything
    the unit's content depends on.  A later link with the same key
    splices a shallow copy of that unit under the new image's name, so
    neither :func:`~repro.omnivm.linker.link_at` nor the unit's encoding
    and digest run again.
    """
    with metrics.stage("link.dynamic"), registry.lock:
        image = _dynamic_link(registry, list(roots), entry_symbol, name)
    if metrics.active():
        metrics.count("link.images")
        metrics.count("link.modules", len(image.modules))
    return image


def _dynamic_link(registry: ModuleRegistry, roots: list[str],
                  entry_symbol: str, name: str | None) -> LinkedImage:
    if not roots:
        raise DynamicLinkError("dynamic_link needs at least one root module")
    closure, providers = _resolve_closure(registry, roots)
    order = _topological_order(closure, providers)

    image = LinkedImage(
        name or "+".join(roots),
        entry_symbol=entry_symbol,
        lineage=tuple((n, closure[n].epoch) for n in order),
    )

    # Layout: place text and data.
    layouts: dict[str, ModuleLayout] = {}
    instr_cursor = 0
    data_cursor = 0
    for module_name in order:
        definition = closure[module_name]
        obj = definition.obj
        tramp_syms = sorted({
            i.label for i in obj.text
            if i.label is not None
            and i.label in providers[module_name]
            and i.spec.kind in _CONTROL_KINDS
        })
        base_index = align_up(instr_cursor, TEXT_ALIGN_INSTRS)
        text_len = len(obj.text) + len(tramp_syms)
        data_len = len(obj.data) + obj.bss_size
        layout = ModuleLayout(
            name=module_name,
            epoch=definition.epoch,
            digest=definition.digest,
            policy=definition.policy,
            base_index=base_index,
            text_len=text_len,
            tramp_len=len(tramp_syms),
            data_base=DATA_BASE + data_cursor,
            data_len=data_len,
            imports=providers[module_name],
        )
        tramp_base = layout.code_lo + len(obj.text) * INSTR_SIZE
        layout.trampolines = {
            symbol: tramp_base + i * INSTR_SIZE
            for i, symbol in enumerate(tramp_syms)
        }
        layouts[module_name] = layout
        instr_cursor = base_index + text_len
        data_cursor += align_up(max(data_len, 0), DATA_ALIGN)
    if instr_cursor * INSTR_SIZE > DEFAULT_SEGMENT_SIZE:
        raise LinkError("linked image exceeds the code segment")
    # Stricter than the segment-size check: the segment's *last aligned
    # slot* is the return sentinel, so an image whose text merely fits
    # the segment can still shadow the halt address.
    check_sentinel_clearance(0, instr_cursor)
    if data_cursor > DEFAULT_SEGMENT_SIZE:
        raise LinkError("linked image exceeds the data segment")

    # Link each module at its placement, dependencies first, so every
    # provider's exports are known before its importers link.  Each
    # module's link is its translation unit: absolute addresses
    # (``base_index`` places it), its own symbols and function ranges,
    # and the foreign control targets its trampolines (or stray direct
    # branches) name.  The image splices the units with trap padding,
    # and its text splices the units' encoded texts.
    image.data_image = bytearray(data_cursor)
    text: list[bytes] = []
    for module_name in order:
        definition = closure[module_name]
        layout = layouts[module_name]
        # The unit's content follows from its placement and the
        # addresses its imports resolve to (a module's own exports
        # follow from its placement).
        key = (layout.base_index, layout.data_base, tuple(
            layouts[provider].exports[symbol]
            for symbol, provider in layout.imports.items()
            if provider != module_name))
        memo = definition.units.get(key)
        if memo is None:
            metrics.count("link.unit_miss")
            unit, symbols = definition.units[key] = _link_unit(
                definition, layout, layouts, f"{image.name}:{module_name}")
        else:
            metrics.count("link.unit_hit")
            unit, symbols = memo
            unit = copy.copy(unit)
            unit.name = f"{image.name}:{module_name}"
            layout.exports = _exports(definition.obj, symbols)
        padding = layout.base_index - len(image.instrs)
        image.instrs += [VMInstr("trap", imm=0xDEAD) for _ in range(padding)]
        image.instrs += unit.instrs
        text += (_TRAP_TEXT * padding, unit.text_image)
        data_lo = layout.data_base - DATA_BASE
        image.data_image[data_lo:data_lo + layout.data_len] = \
            unit.data_image
        image.symbols.update(symbols)
        image.function_ranges.update(unit.function_ranges)
        image.modules.append(layout)
        if layout.text_len:
            layout.subprogram = unit
    image.text_image = b"".join(text)

    image.code_export_addrs = frozenset(
        address for layout in image.modules
        for address in layout.exports.values()
        if layout.contains_code(address)
    )
    from repro.cache import program_digest

    image_hash = hashlib.sha256(b"linked-image\x00")
    image_hash.update(f"{image.entry_address}\x00".encode())
    for module_name in order:
        layout = layouts[module_name]
        if layout.text_len:
            digest = program_digest(layout.subprogram)
            closure[module_name].chunk_digests.add(digest)
            image_hash.update(f"{module_name}\x00{digest}\x00".encode())
            if layout.policy != DEFAULT_POLICY:
                # The policy changes the module's native code, and with
                # it the image's predecoded artifact (two registries
                # can share one cache).
                image_hash.update(f"{layout.policy!r}\x00".encode())
        else:
            data_lo = layout.data_base - DATA_BASE
            image_hash.update(f"{module_name}\x00data\x00".encode())
            image_hash.update(
                image.data_image[data_lo:data_lo + layout.data_len])
            image_hash.update(b"\x00")
    # The spliced image also leaves content-addressed residue — the
    # interpreter's predecode artifact and JIT superblocks live under
    # the *image* digest, not any module chunk's.  The digest is
    # composed from the per-module chunk digests already in hand (they
    # cover each module's text slice, data slice, placement, and
    # foreign targets) rather than re-encoding the spliced image,
    # which would tax every warm link.  Charge it to every closure
    # member so revoking (or re-registering) any one of them drops the
    # whole image's cached execution artifacts.
    image_digest = image_hash.hexdigest()
    image.digest_hint = image_digest
    for module_name in order:
        closure[module_name].chunk_digests.add(image_digest)
    return image


def _link_unit(definition: ModuleDef, layout: ModuleLayout,
               layouts: dict[str, ModuleLayout], name: str
               ) -> tuple[LinkedProgram, dict[str, int]]:
    """Link *definition* at *layout*'s placement into its sealed
    translation unit: the module's text, its trampolines, and
    ``__module_start`` as its entry.  Returns the unit and the symbols
    the link defined (the image's share, without that entry anchor),
    and records the module's exports in *layout*."""

    def external(symbol: str, kind: str | None) -> int:
        """An import resolves to the module's trampoline when it is a
        control transfer, else to the provider's export (data references
        and materialized function pointers: the indirect-call map covers
        those at run time)."""
        if kind in _CONTROL_KINDS and symbol in layout.trampolines:
            return layout.trampolines[symbol]
        provider = layout.imports.get(symbol)
        if provider is None:
            raise UnresolvedImportError(symbol, importer=definition.name)
        return layouts[provider].exports[symbol]

    unit = link_at([definition.obj], name, _MODULE_START, layout.base_index,
                   layout.data_base, module=definition.name,
                   external=external)
    symbols = dict(unit.symbols)
    layout.exports = _exports(definition.obj, symbols)
    unit.instrs += [
        VMInstr("j", imm=layouts[layout.imports[symbol]].exports[symbol])
        for symbol in sorted(layout.trampolines)
    ]
    if layout.text_len:
        unit.symbols[_MODULE_START] = layout.code_lo
        unit.extern_addrs = frozenset(
            u32(i.imm) for i in unit.instrs
            if i.spec.kind in _CONTROL_KINDS
            and not layout.contains_code(u32(i.imm))
        )
    return unit, symbols


def _exports(obj: ObjectModule, symbols: dict[str, int]) -> dict[str, int]:
    """Where a link of *obj* that defined *symbols* placed each global."""
    return {sym.name: symbols[sym.name]
            for sym in obj.symbols if sym.is_global}


def translate_image(
    image: LinkedImage,
    arch: str,
    options=None,
    cache=None,
):
    """Translate *image* per module and splice the chunks.

    The whole image is verified once first (structure and the
    cross-module export rule; the image is spliced from its units, so
    no unit is verified again).  Each module translates as its own
    unit — content-addressed in *cache* under the cache's admission
    rule (:func:`~repro.cache.cached_translation`: a module under a
    non-default sandbox policy never enters it), so a library shared by
    many images translates once — and is SFI-verified under its own
    policy *before* splicing.
    Splicing relocates native control targets, merges the
    indirect-entry maps, and patches every trampoline fix-up after
    checking that its target is an exported symbol of the providing
    module (the load-time half of cross-module SFI).
    """
    from repro.cache import cache_key, cached_translation
    from repro.omnivm.verifier import verify_program
    from repro.sfi.verifier import verify_sfi
    from repro.translators import TranslatedModule, target_spec, translate

    with metrics.stage("link.translate"):
        verify_program(image)
        out_instrs = []
        global_map: dict[int, int] = {}
        pending_fixups: list[tuple[int, str, list[tuple[int, int]]]] = []
        for layout in image.modules:
            subprogram = layout.subprogram
            if subprogram is None:
                continue
            missed = False

            def produce():
                nonlocal missed
                missed = True
                chunk = translate(subprogram, arch, options,
                                  policy=layout.policy)
                verify_sfi(chunk, policy=layout.policy)
                return chunk

            chunk = cached_translation(
                cache, cache_key(subprogram, arch, options), produce,
                policy=layout.policy,
            )
            metrics.count("link.chunk_miss" if missed else "link.chunk_hit")
            native_base = len(out_instrs)
            if native_base == 0 and not chunk.extern_fixups:
                # The canonical shared-library fast path: the first
                # module's chunk splices with zero relocation, so its
                # cached instruction objects are shared, not copied.
                out_instrs.extend(chunk.instrs)
            else:
                for instr in chunk.instrs:
                    clone = copy.copy(instr)
                    if clone.target >= 0:
                        clone.target += native_base
                    out_instrs.append(clone)
                if chunk.extern_fixups:
                    pending_fixups.append(
                        (native_base, layout.name, chunk.extern_fixups)
                    )
            for omni, native in chunk.omni_to_native.items():
                global_map[omni] = native + native_base

        # Patch trampoline targets against the merged map; every target
        # must be an exported symbol (load-time cross-module SFI).
        for native_base, module_name, fixups in pending_fixups:
            for native_index, omni_target in fixups:
                if omni_target not in image.code_export_addrs:
                    raise CrossModuleViolation(
                        f"module {module_name!r} trampoline targets "
                        f"non-exported address {omni_target:#x}",
                        module=module_name, target=omni_target,
                    )
                resolved = global_map.get(omni_target)
                if resolved is None:
                    raise CrossModuleViolation(
                        f"module {module_name!r} trampoline target "
                        f"{omni_target:#x} was not translated",
                        module=module_name, target=omni_target,
                    )
                patched = out_instrs[native_base + native_index]
                # Self-loops survived chunk relocation; aim them now.
                patched.target = resolved

        entry_native = global_map.get(image.entry_address)
        if entry_native is None:
            raise LinkError(
                f"entry symbol {image.entry_symbol!r} was not translated"
            )
        return TranslatedModule(
            spec=target_spec(arch, options),
            options=options or _default_options(),
            instrs=out_instrs,
            omni_to_native=global_map,
            entry_native=entry_native,
            program=image,
        )


def _default_options():
    from repro.translators import TranslationOptions

    return TranslationOptions()


def image_memory(image: LinkedImage,
                 segment_size: int | None = None) -> Memory:
    """The multi-module address space: the shape of
    :func:`~repro.omnivm.memory.standard_module_memory` (code and heap
    of :func:`~repro.omnivm.memory.module_segment_size` bytes), except
    that each module's data block gets a *private data segment* (wild
    pointers between modules' data blocks fault at the segment
    boundaries).  Raises :class:`~repro.errors.QuotaExceeded` when the
    code or the data blocks do not fit *segment_size*."""
    size = module_segment_size(segment_size)
    if len(image.data_image) > size:
        raise QuotaExceeded(
            f"image data: {len(image.data_image)}-byte image does not "
            f"fit its {size}-byte segment",
            quota="segment_size", limit=size,
        )
    memory = Memory()
    memory.add_segment("code", CODE_BASE, size,
                       PERM_READ | PERM_EXEC, image.text_image)
    for layout in image.modules:
        if layout.data_len <= 0:
            continue
        block = align_up(layout.data_len, DATA_ALIGN)
        offset = layout.data_base - DATA_BASE
        memory.add_segment(
            f"data:{layout.name}", layout.data_base, block,
            PERM_READ | PERM_WRITE,
            image.data_image[offset:offset + block],
        )
    add_heap_and_stack(memory, size)
    return memory


__all__ = [
    "DATA_ALIGN",
    "TEXT_ALIGN_INSTRS",
    "LinkedImage",
    "ModuleDef",
    "ModuleLayout",
    "ModuleRegistry",
    "dynamic_link",
    "image_memory",
    "object_digest",
    "translate_image",
]
