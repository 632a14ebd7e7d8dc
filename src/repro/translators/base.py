"""Load-time translation from OmniVM to native target code.

This is the core mechanism of the paper: when a host loads a mobile
module, the translator for the host's processor macro-expands each OmniVM
instruction into one or more native instructions, inlining SFI sequences
for unsafe stores and indirect jumps, and running cheap machine-dependent
optimizations (local scheduling, delay-slot filling, a global pointer,
peepholes).  Translation is deliberately fast and local — all global
optimization already happened in the compiler.

The driver here is target-independent; each target subclass implements
``expand_instr`` with its own instruction selection.  Every inserted
instruction is tagged with an expansion category so the harness can
reproduce Figure 1's dynamic expansion breakdown:

``addr``  extra address-formation instructions (indexed mode on MIPS,
          large offsets);
``cmp``   extra compare instructions (condition-code targets, non-zero
          comparisons on MIPS);
``ldi``   extra instructions materializing 32-bit immediates/addresses;
``bnop``  unfilled branch delay slots;
``sfi``   software fault isolation sequences;
``twoop`` x86 two-operand copies;
``sched`` (none at translate time; reserved).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import metrics
from repro.errors import TranslationError
from repro.omnivm.isa import INSTR_SIZE, VMInstr
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import CODE_BASE, DATA_BASE, SANDBOX_BASE, SANDBOX_MASK
from repro.sfi.policy import DEFAULT_POLICY, RETURN_SENTINEL, SandboxPolicy
from repro.targets.base import MInstr, TargetSpec
from repro.translators.sched import finalize_block, schedule_block
from repro.utils.bits import s32, u32


@dataclass(frozen=True)
class TranslationOptions:
    """Configuration for one translation.

    ``sfi``            — inline software fault isolation (mobile default).
    ``schedule``       — local list scheduling + delay-slot filling
                         (Table 5 turns this off).
    ``peephole``       — cheap translator peepholes (FP compare-branch
                         fusion and friends; also part of Table 5's
                         "translator optimizations").
    ``global_pointer`` — use a reserved register pointing into the data
                         segment so nearby global addresses cost one
                         instruction (the paper's SPARC translator does
                         this; ``None`` = target default).
    ``native_profile`` — ``None`` for mobile translation, ``"gcc"`` or
                         ``"cc"`` for the native-compiler stand-ins
                         (see repro.native.profiles).
    """

    sfi: bool = True
    schedule: bool = True
    peephole: bool = True
    global_pointer: bool | None = None
    native_profile: str | None = None
    #: Extension beyond the paper's shipped system: sandbox *loads* too
    #: (the paper notes SFI "can also support efficient read protection"
    #: but Omniware did not incorporate it).  Costs another mask/rebase
    #: pair per unprotected load; measured by the ablation bench.
    sfi_reads: bool = False

    def gp_enabled(self, spec: TargetSpec) -> bool:
        if self.global_pointer is not None:
            return self.global_pointer
        if self.native_profile == "cc":
            return True  # vendor compilers use a global pointer everywhere
        # The paper's mobile translators implement gp only on SPARC (as
        # does our gcc stand-in, which models the same code generator the
        # mobile path came from).
        return spec.name == "sparc"


@dataclass
class TranslatedModule:
    """The output of load-time translation, ready to execute."""

    spec: TargetSpec
    options: TranslationOptions
    instrs: list[MInstr] = field(default_factory=list)
    #: legal indirect-entry points: OmniVM address -> native index
    omni_to_native: dict[int, int] = field(default_factory=dict)
    entry_native: int = 0
    #: direct control transfers whose OmniVM target lies outside this
    #: translation unit (declared via ``program.extern_addrs``): pairs of
    #: (native instruction index, OmniVM byte address).  Until the
    #: dynamic link-loader patches them against the full image they are
    #: emitted as self-loops, so an unpatched chunk can never escape.
    extern_fixups: list[tuple[int, int]] = field(default_factory=list)

    def static_expansion(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for instr in self.instrs:
            counts[instr.category] = counts.get(instr.category, 0) + 1
        return counts


#: Value loaded into the global-pointer register at module start.
def gp_value(spec: TargetSpec) -> int:
    return DATA_BASE + (1 << (spec.imm_bits - 1)) - 8


class BaseTranslator:
    """Target-independent translation driver."""

    #: OmniVM branch predicate tables reused by target expanders.
    BR_PRED = {
        "beq": "eq", "bne": "ne", "blt": "lt", "ble": "le",
        "bgt": "gt", "bge": "ge", "bltu": "ltu", "bleu": "leu",
        "bgtu": "gtu", "bgeu": "geu",
    }

    def __init__(self, spec: TargetSpec,
                 options: TranslationOptions | None = None,
                 policy: SandboxPolicy = DEFAULT_POLICY):
        self.spec = spec
        self.options = options or TranslationOptions()
        self.policy = policy
        self.out: list[MInstr] = []
        self._omni_addr = 0

    # -- target register helpers -------------------------------------------------

    def r(self, omni_reg: int) -> int:
        return self.spec.int_map[omni_reg]

    def f(self, omni_reg: int) -> int:
        return self.spec.fp_map[omni_reg]

    @property
    def at(self) -> int:
        return self.spec.reserved["at"]

    # -- emission ------------------------------------------------------------------

    def emit(self, op: str, category: str = "base", **kw) -> MInstr:
        instr = MInstr(op, omni_addr=self._omni_addr, category=category, **kw)
        self.out.append(instr)
        return instr

    def mat_imm(self, reg: int, value: int, category_extra: str = "ldi") -> None:
        """Materialize a 32-bit constant into *reg* (target-specific cost).

        The first instruction is charged as ``base`` when it replaces the
        OmniVM ``li``; callers materializing *extra* constants (e.g.
        branch immediates on MIPS) pass their own category.
        """
        value = u32(value)
        spec = self.spec
        if spec.imm_bits >= 32:
            self.emit("li", rd=reg, imm=value, category="base"
                      if category_extra == "ldi" else category_extra)
            return
        if spec.fits_imm(value):
            self.emit("li", rd=reg, imm=s32(value), category="base"
                      if category_extra == "ldi" else category_extra)
            return
        # Global pointer shortcut for data-segment addresses.
        if self.options.gp_enabled(spec) and self._gp_reaches(value):
            self.emit("addi", rd=reg, rs=self.spec.reserved["gp"],
                      imm=s32(value - gp_value(spec)),
                      category="base" if category_extra == "ldi"
                      else category_extra)
            return
        self.emit("lui", rd=reg, imm=(value >> 16) & 0xFFFF,
                  category="base" if category_extra == "ldi"
                  else category_extra)
        if value & 0xFFFF:
            self.emit("ori", rd=reg, rs=reg, imm=value & 0xFFFF,
                      category="ldi")

    def _gp_reaches(self, value: int) -> bool:
        if self.spec.reserved.get("gp", -1) < 0:
            return False
        if not (DATA_BASE <= value < DATA_BASE + (1 << 24)):
            return False
        return self.spec.fits_imm(value - gp_value(self.spec))

    def mat_extra_imm(self, value: int) -> int:
        """Materialize an extra constant into the scratch register,
        charging every instruction to ``ldi`` (Figure 1 semantics:
        'additional instructions to load an immediate')."""
        value = u32(value)
        spec = self.spec
        if spec.imm_bits >= 32:
            self.emit("li", rd=self.at, imm=value, category="ldi")
            return self.at
        if spec.fits_imm(value):
            self.emit("li", rd=self.at, imm=s32(value), category="ldi")
            return self.at
        self.emit("lui", rd=self.at, imm=(value >> 16) & 0xFFFF,
                  category="ldi")
        if value & 0xFFFF:
            self.emit("ori", rd=self.at, rs=self.at, imm=value & 0xFFFF,
                      category="ldi")
        return self.at

    # -- the driver ------------------------------------------------------------------

    def translate(self, program: LinkedProgram) -> TranslatedModule:
        # Scheduled blocks whose order the schedule table missed, and hit.
        schedules = [0, 0]
        with metrics.stage("translate"):
            module = self._translate(program, schedules)
        if metrics.active():
            metrics.count("translate.calls")
            metrics.count("translate.omni_instrs", len(program.instrs))
            metrics.count("translate.native_instrs", len(module.instrs))
            metrics.count("translate.schedule_misses", schedules[0])
            metrics.count("translate.schedule_hits", schedules[1])
            for category, total in module.static_expansion().items():
                metrics.count(f"translate.static.{category}", total)
        return module

    def _translate(self, program: LinkedProgram,
                   schedules: list[int]) -> TranslatedModule:
        from repro.sfi import rewrite
        from repro.sfi.policy import check_sentinel_clearance

        base_index = getattr(program, "base_index", 0)
        # The translation unit must stop short of the return-sentinel
        # slot (the last aligned code address is reserved; see policy).
        check_sentinel_clearance(base_index, len(program.instrs))
        # Every entry point starts a block.
        entry_points = self._entry_points(program)
        module = TranslatedModule(self.spec, self.options)
        # Padded policy variant: align every indirect-entry anchor to a
        # pad_align-instruction bundle (padding is meaningless without
        # the SFI machinery it hardens).
        pad = self.policy.pad_align if self.options.sfi else 0

        # Pass 1: expand, one OmniVM instruction at a time, collecting
        # native blocks for scheduling.  Control targets temporarily hold
        # OmniVM byte addresses.
        omni_start_index: dict[int, int] = {}
        block: list[MInstr] = []
        fused_skip = False
        # A module that installs a virtual exception handler observes the
        # register file at a faulting instruction: schedule with memory
        # operations pinned so that delivery is precise.
        precise = any(i.op == "sethnd" for i in program.instrs)

        def flush_block() -> None:
            nonlocal block
            if not block:
                return
            if self.options.schedule and len(block) > 1:
                block, hit = schedule_block(block, self.spec, precise)
                schedules[hit] += 1
            block = finalize_block(block, self.spec, self.options.schedule,
                                   precise)
            module.instrs.extend(block)
            block = []

        for index, instr in enumerate(program.instrs):
            omni_addr = CODE_BASE + (base_index + index) * INSTR_SIZE
            if omni_addr in entry_points:
                flush_block()
                if pad:
                    # The block is empty post-flush, so the anchor's
                    # native index is exactly len(module.instrs): bring
                    # it to the next bundle boundary.  The nops sit
                    # *between* blocks — finalize_block keeps delay
                    # slots inside their block, so padding never lands
                    # in one.
                    module.instrs.extend(rewrite.bundle_padding(
                        self.spec, self.policy, len(module.instrs),
                        omni_addr))
            omni_start_index[omni_addr] = len(module.instrs) + len(block)
            if fused_skip:
                # Second instruction of a fused pair: nothing to emit, but
                # its address maps to the fused sequence's position.
                fused_skip = False
                continue
            self._omni_addr = omni_addr
            self.out = []
            next_instr = (
                program.instrs[index + 1]
                if index + 1 < len(program.instrs) else None
            )
            next_is_boundary = (omni_addr + INSTR_SIZE) in entry_points
            fused_skip = self.expand_instr(
                instr, omni_addr,
                next_instr if (self.options.peephole and not next_is_boundary)
                else None,
            )
            block.extend(self.out)
            if self.out and (self.out[-1].is_branch()
                             or self.out[-1].op in ("bcc", "fbcc")):
                flush_block()
        flush_block()

        # Pass 2: resolve control targets and build the indirect map.
        extern_addrs = getattr(program, "extern_addrs", frozenset())
        for addr in entry_points:
            if addr in omni_start_index:
                module.omni_to_native[addr] = omni_start_index[addr]
        for native_index, native in enumerate(module.instrs):
            if native.target >= 0:
                target_native = omni_start_index.get(native.target)
                if target_native is None:
                    if native.target in extern_addrs:
                        # Cross-module target: leave a self-loop and let
                        # the link-loader patch it after splicing.
                        module.extern_fixups.append(
                            (native_index, native.target)
                        )
                        native.target = native_index
                        continue
                    raise TranslationError(
                        f"control target {native.target:#x} not translated"
                    )
                native.target = target_native
        if self.options.native_profile == "cc":
            from repro.translators.peephole import apply_cc_peepholes

            apply_cc_peepholes(module)
        module.entry_native = module.omni_to_native[program.entry_address]
        return module

    def _entry_points(self, program: LinkedProgram) -> set[int]:
        """Legal indirect-control destinations: function entries, return
        points, every direct branch target, and every code address the
        program can *materialize* — text symbols (covers code addresses
        patched into data, e.g. function-pointer tables) and code-segment
        ``li`` immediates (covers jump-table labels the linker resolved
        into register loads) — so the map is a superset of what
        well-formed code needs.

        For a per-module translation unit (``program.base_index`` > 0 or
        ``extern_addrs`` non-empty) only addresses *inside* the unit
        become entry points; foreign branch/call targets are dropped here
        and resolved by the link-loader against the spliced image."""
        base_index = getattr(program, "base_index", 0)
        code_lo = CODE_BASE + base_index * INSTR_SIZE
        code_hi = code_lo + len(program.instrs) * INSTR_SIZE
        points: set[int] = set()

        def add_code_address(address: int) -> None:
            if code_lo <= address < code_hi and address % INSTR_SIZE == 0:
                points.add(address)

        for name, (start, _end) in program.function_ranges.items():
            add_code_address(CODE_BASE + start * INSTR_SIZE)
        for address in program.symbols.values():
            add_code_address(address)
        for index, instr in enumerate(program.instrs):
            kind = instr.spec.kind
            if kind in ("call", "icall"):
                add_code_address(code_lo + (index + 1) * INSTR_SIZE)
            if kind in ("branch", "branchi", "jump", "call"):
                add_code_address(u32(instr.imm))
            elif kind == "li":
                add_code_address(u32(instr.imm))
        add_code_address(program.entry_address)
        return points

    # -- to be provided per target ------------------------------------------------

    def expand_instr(self, instr: VMInstr, omni_addr: int,
                     next_instr: VMInstr | None) -> bool:
        """Expand one OmniVM instruction into ``self.out``.

        Returns True if *next_instr* was fused into this expansion and
        must be skipped by the driver.
        """
        raise NotImplementedError


def initial_register_state(spec: TargetSpec, machine) -> None:
    """Install the runtime's dedicated-register values into a machine:
    SFI masks/bases, the global pointer, the stack pointer, and the
    return sentinel conventions.  Called by the native loader."""
    from repro.omnivm.memory import STACK_TOP

    reserved = spec.reserved
    if reserved.get("sfi_mask", -1) >= 0:
        machine.regs[reserved["sfi_mask"]] = SANDBOX_MASK
    if reserved.get("sfi_base", -1) >= 0:
        machine.regs[reserved["sfi_base"]] = SANDBOX_BASE
    if reserved.get("sfi_code_base", -1) >= 0:
        machine.regs[reserved["sfi_code_base"]] = CODE_BASE
    if reserved.get("sfi_code_mask", -1) >= 0:
        machine.regs[reserved["sfi_code_mask"]] = DEFAULT_POLICY.code_mask
    if reserved.get("gp", -1) >= 0:
        machine.regs[reserved["gp"]] = gp_value(spec)
    machine.regs[spec.int_map[15]] = STACK_TOP
    machine.regs[spec.reserved["ra"]] = RETURN_SENTINEL
