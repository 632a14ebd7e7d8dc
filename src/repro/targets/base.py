"""Shared machinery for the four simulated target architectures.

Each target (MIPS R4400, SPARC, PowerPC 601, x86/Pentium) is modeled as:

* a **TargetSpec** — register file description, OmniVM→target register
  mapping, dedicated SFI registers, timing parameters (latencies, issue
  rules, branch penalties, delay slots);
* a **translator** (:mod:`repro.translators`) that macro-expands OmniVM
  instructions into target instructions drawn from a *union vocabulary*
  defined here;
* one generic **executor** (:class:`TargetMachine`) that implements the
  union vocabulary functionally and charges cycles according to the
  target's timing model.

The union-vocabulary design means semantics are written once and
differentially testable against the OmniVM reference interpreter, while
each target still has its own instruction selection (which is where the
paper's Figure 1 expansion categories come from) and its own timing
behaviour (which is where the Tables 3–5 cycle ratios come from).

Simplifications (documented in DESIGN.md): all target instructions occupy
one slot (no variable-length x86 encoding); x86's memory-resident OmniVM
registers are modeled as extra register-array entries whose access cost
appears in the timing model, not the semantics; caches are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    SandboxViolation,
    VMRuntimeError,
    VMTrap,
)
from repro.omnivm import semantics
from repro.omnivm.memory import Memory
from repro.utils.bits import (
    add32,
    fits_signed,
    mul32,
    round_f32,
    s32,
    sll32,
    sra32,
    srl32,
    sub32,
    u32,
)

#: Expansion categories, exactly the Figure 1 legend plus bookkeeping ones.
#: ``fused`` marks instructions a cc-profile peephole merged into a
#: neighbour: they execute functionally at zero issue cost.  ``pad``
#: marks bundle-alignment nops emitted under a padded sandbox policy
#: (``SandboxPolicy.pad_align``) so the ablation harness can attribute
#: their static and dynamic cost.
CATEGORIES = ("base", "addr", "cmp", "ldi", "bnop", "sfi", "twoop",
              "sched", "fused", "pad")


@dataclass
class MInstr:
    """One target-machine instruction (union vocabulary).

    ``target`` is a native instruction *index* for direct control flow.
    ``omni_addr`` records which OmniVM instruction this expanded from.
    ``category`` attributes the instruction to a Figure-1 expansion
    category (``base`` = the primary instruction of the expansion).
    """

    op: str
    rd: int = -1
    rs: int = -1
    rt: int = -1
    fd: int = -1
    fs: int = -1
    ft: int = -1
    imm: int = 0
    target: int = -1
    pred: str = ""       # condition-branch / set predicate
    annul: bool = False  # SPARC annulled branch
    omni_addr: int = 0
    category: str = "base"
    # Cached operand sets / issue record / issue class (computed on first
    # use; invariant afterwards — the executor charges millions of
    # dynamic instances of each instruction object).
    creads: tuple | None = None
    cwrites: tuple | None = None
    cissue: tuple | None = None
    cclass: str = ""

    def cached_reads(self) -> tuple:
        if self.creads is None:
            self.creads = tuple(self.reg_reads())
        return self.creads

    def cached_writes(self) -> tuple:
        if self.cwrites is None:
            self.cwrites = tuple(self.reg_writes())
        return self.cwrites

    def __str__(self) -> str:
        fields = []
        for name in ("rd", "rs", "rt"):
            value = getattr(self, name)
            if value >= 0:
                fields.append(f"{name}=r{value}")
        for name in ("fd", "fs", "ft"):
            value = getattr(self, name)
            if value >= 0:
                fields.append(f"{name}=f{value}")
        if self.imm:
            fields.append(f"imm={self.imm:#x}")
        if self.target >= 0:
            fields.append(f"->{self.target}")
        if self.pred:
            fields.append(self.pred)
        tag = f" [{self.category}]" if self.category != "base" else ""
        return f"{self.op} {' '.join(fields)}{tag}"

    # Register read/write sets for scheduling and timing.

    def reg_reads(self) -> list[tuple[str, int]]:
        reads: list[tuple[str, int]] = []
        if self.op in _WRITES_NO_RS:
            pass
        else:
            if self.rs >= 0:
                reads.append(("r", self.rs))
            if self.rt >= 0:
                reads.append(("r", self.rt))
        if self.op in _STORE_OPS and self.rd >= 0:
            reads.append(("r", self.rd))
        if self.fs >= 0:
            reads.append(("f", self.fs))
        if self.ft >= 0:
            reads.append(("f", self.ft))
        if self.op in _TWO_OPERAND_READS_DEST and self.rd >= 0:
            reads.append(("r", self.rd))
        if self.op in ("fcmp", "fcmps"):
            pass
        if self.op in _CC_READERS:
            reads.append(("cc", 0))
        return reads

    def reg_writes(self) -> list[tuple[str, int]]:
        writes: list[tuple[str, int]] = []
        if self.op in _STORE_OPS or self.op in _BRANCH_OPS or self.op in (
            "j", "jr", "trap", "nop", "hostcall_void",
        ):
            pass
        elif self.op in ("jal", "jalr", "hostcall"):
            pass  # handled by the executor (link register is per-target)
        elif self.op.startswith(("lf", "f", "cvtd", "cvts")) and self.fd >= 0:
            writes.append(("f", self.fd))
        elif self.rd >= 0:
            writes.append(("r", self.rd))
        if self.fd >= 0 and ("f", self.fd) not in writes and self.op not in _STORE_OPS:
            writes.append(("f", self.fd))
        if self.op in _CC_WRITERS:
            writes.append(("cc", 0))
        return writes

    def is_branch(self) -> bool:
        return self.op in _BRANCH_OPS or self.op in ("j", "jal", "jr", "jalr")

    def is_load(self) -> bool:
        return self.op in _LOAD_OPS

    def is_store(self) -> bool:
        return self.op in _STORE_OPS


_LOAD_OPS = frozenset(
    "lb lbu lh lhu lw lbx lbux lhx lhux lwx lfs lfd lfsx lfdx".split()
)
_STORE_OPS = frozenset("sb sh sw sbx shx swx sfs sfd sfsx sfdx".split())
_BRANCH_OPS = frozenset(
    "beq bne bltz blez bgtz bgez bcc fbcc".split()
)
_CC_WRITERS = frozenset("cmp cmpi cmplu cmpliu subcc fcmp fcmps".split())
_CC_READERS = frozenset("bcc fbcc setcc".split())
_WRITES_NO_RS = frozenset(("li", "lui"))
#: x86-style two-operand ops that read their destination.
_TWO_OPERAND_READS_DEST = frozenset(())

#: An instruction's shape: the fields that its operand sets, its result
#: latency, its issue record and the dual-issue rules read.  Immediates,
#: targets, predicates, categories and ``omni_addr`` are not part of it,
#: so blocks that differ only in those have one shape.
instr_shape = attrgetter("op", "rd", "rs", "rt", "fd", "fs", "ft")


class ShapeTable:
    """A process-wide memo of a pure function of block shapes, bounded
    by the instructions its keys describe.

    ``entries`` is read with plain ``dict`` reads: under the GIL two
    threads that fill one key compute equal values, so either store may
    win.  A :meth:`put` that would take the table past ``limit``
    instructions first replaces it with an empty one (threads storing at
    that moment may each add one block over the limit), and a value for
    more than ``limit`` instructions is not kept at all.  Callers keep
    the values they already hold, so a clear loses only sharing.
    """

    __slots__ = ("limit", "entries", "held")

    def __init__(self, limit: int):
        self.limit = limit
        self.entries: dict = {}
        self.held = 0

    def put(self, key, value, size: int) -> None:
        """Store *value* for *key*, which describes *size* instructions."""
        if size > self.limit:
            return
        if self.held + size > self.limit:
            self.entries = {}
            self.held = 0
        self.entries[key] = value
        self.held += size


#: The scoreboard is a flat list of ready cycles, one slot per register:
#: integer registers 0-71, FP registers 72-111 and the condition codes
#: at 112.  :meth:`Timing.issue` names the slots an instruction reads
#: and writes.
FP_SLOT = 72
CC_SLOT = 112
SCOREBOARD_SLOTS = CC_SLOT + 1


def scoreboard_slot(key: tuple[str, int]) -> int:
    """The scoreboard slot of an operand key ``(kind, index)``."""
    kind, index = key
    if kind == "r":
        return index
    if kind == "f":
        return FP_SLOT + index
    return CC_SLOT


def _depends_on(instr: MInstr, prev: MInstr) -> bool:
    """Does *instr* read a register *prev* writes?"""
    written = prev.cached_writes()
    if written:
        for read in instr.cached_reads():
            if read in written:
                return True
    return False


@dataclass
class Timing:
    """First-order timing parameters for one target.

    The one statement of a target's issue cost: :meth:`issue` computes
    each instruction's issue record and :meth:`pairs` is the dual-issue
    test.  :meth:`TargetMachine._charge` applies them, one instruction
    at a time; the threaded tier and the native JIT's superblocks call
    it through a :class:`~repro.targets.threaded.BlockCharge`, on a miss
    of its memo.
    """

    name: str = "generic"
    #: result latency by op class: cycles before a consumer may issue.
    load_latency: int = 2
    mul_latency: int = 4
    div_latency: int = 20
    fp_add_latency: int = 3
    fp_mul_latency: int = 4
    fp_div_latency: int = 18
    cmp_latency: int = 1
    #: extra cycles when a taken branch redirects the pipeline
    taken_branch_penalty: int = 1
    has_delay_slot: bool = False
    #: dual issue: 0 = scalar; otherwise a callable deciding if two
    #: consecutive instructions may issue in the same cycle.
    dual_issue: Callable[[MInstr, MInstr], bool] | None = None
    #: additional issue cost for memory-resident register operands (x86)
    memory_reg_threshold: int = 10_000  # register index >= this is memory
    memory_reg_cost: int = 0

    def result_latency(self, instr: MInstr) -> int:
        op = instr.op
        if instr.is_load():
            return self.load_latency
        if op in ("mul", "muli"):
            return self.mul_latency
        if op in ("div", "divu", "rem", "remu"):
            return self.div_latency
        if op in ("fadds", "faddd", "fsubs", "fsubd", "fnegs", "fnegd",
                  "fabss", "fabsd", "cvtds", "cvtsd", "cvtdw", "cvtsw",
                  "cvtdwu", "cvtswu", "cvtwd", "cvtws", "cvtwud", "cvtwus"):
            return self.fp_add_latency
        if op in ("fmuls", "fmuld"):
            return self.fp_mul_latency
        if op in ("fdivs", "fdivd"):
            return self.fp_div_latency
        if op in _CC_WRITERS:
            return self.cmp_latency
        return 1

    def issue(self, instr: MInstr) -> tuple:
        """The issue record of *instr*, cached on the instruction:
        ``(reads, writes, latency, extra)`` — the scoreboard slots it
        reads and writes, its result latency, and the x86
        memory-resident-register surcharge added to its issue cycle.
        """
        record = instr.cissue
        if record is None:
            reads = instr.cached_reads()
            writes = instr.cached_writes()
            extra = 0
            if self.memory_reg_cost:
                operands = 0
                for kind, index in reads + writes:
                    if kind == "r" and index >= self.memory_reg_threshold:
                        operands += 1
                if operands > 1:
                    extra = self.memory_reg_cost * (operands - 1)
            record = instr.cissue = (
                tuple(map(scoreboard_slot, reads)),
                tuple(map(scoreboard_slot, writes)),
                self.result_latency(instr), extra)
        return record

    def pairs(self, prev: MInstr | None, instr: MInstr) -> bool:
        """On a dual-issue target: may *instr* issue in the cycle of
        *prev*, the instruction issued just before it?  Only when the
        target's pairing rule admits the two and *instr* reads no
        register *prev* writes."""
        return (prev is not None and self.dual_issue(prev, instr)
                and not _depends_on(instr, prev))


#: Every field of a :class:`Timing`, as one tuple: with the shapes of a
#: block's instructions, what its cycle charge depends on.
timing_key = attrgetter(*(f.name for f in fields(Timing)))


@dataclass
class TargetSpec:
    """Static description of a simulated target architecture."""

    name: str
    num_regs: int
    num_fregs: int
    #: OmniVM integer register -> target register
    int_map: dict[int, int]
    #: OmniVM FP register -> target FP register
    fp_map: dict[int, int]
    #: dedicated registers reserved by the runtime (SFI masks/bases, gp,
    #: assembler scratch) — documented per target
    reserved: dict[str, int]
    timing: Timing
    #: does this target have load/branch delay slots (MIPS, SPARC)?
    delay_slots: bool = False
    #: does this target have an indexed (reg+reg) addressing mode?
    has_indexed_mem: bool = False
    #: immediate width for ALU/compare/memory-offset immediates
    imm_bits: int = 16
    #: x86: register indexes >= real_regs live in memory
    real_regs: int = 64

    def fits_imm(self, value: int) -> bool:
        return fits_signed(value, self.imm_bits)


class TargetMachine:
    """Generic in-order executor + cycle model over the union vocabulary."""

    def __init__(
        self,
        spec: TargetSpec,
        instrs: list[MInstr],
        memory: Memory,
        omni_to_native: dict[int, int],
        hostcall: Callable[["TargetMachine", int], None] | None = None,
        fuel: int = 100_000_000,
    ):
        self.spec = spec
        self.instrs = instrs
        self.memory = memory
        self.omni_to_native = omni_to_native
        self.hostcall = hostcall
        self.fuel = fuel
        self.regs = [0] * max(spec.num_regs, 72)
        self.fregs = [0.0] * max(spec.num_fregs, 40)
        self.cc = 0  # condition state: result of last cmp (signed tuple)
        self.cc_unsigned = 0
        self.pc = 0
        self.link_reg = spec.reserved.get("ra", 31)
        self.handler_omni = 0  # module access-violation handler address
        self.halted = False
        self.exit_code = 0
        self.instret = 0
        self.cycles = 0
        #: dynamic instruction counts per expansion category (Figure 1)
        self.category_counts: dict[str, int] = {c: 0 for c in CATEGORIES}
        # timing state
        self._ready = [0] * SCOREBOARD_SLOTS
        self._last_issued: MInstr | None = None
        self._last_issue_cycle = -1
        self._pair_open = False

    # -- cycle accounting -----------------------------------------------------

    def _charge(self, instr: MInstr) -> None:
        timing = self.spec.timing
        record = instr.cissue
        if record is None:
            record = timing.issue(instr)
        reads, writes, latency, extra = record
        ready_map = self._ready
        stall_until = 0
        for slot in reads:
            ready = ready_map[slot]
            if ready > stall_until:
                stall_until = ready
        # Dual issue: the previous instruction's issue slot may have room
        # for one partner.  A pair fills the slot (no triple issue).
        if (timing.dual_issue is not None and self._pair_open
                and stall_until <= self._last_issue_cycle
                and timing.pairs(self._last_issued, instr)):
            issue_cycle = self._last_issue_cycle
            self._pair_open = False
        else:
            issue_cycle = max(stall_until, self._last_issue_cycle + 1)
            self._pair_open = True
        issue_cycle += extra
        if issue_cycle > self.cycles:
            self.cycles = issue_cycle
        for slot in writes:
            ready_map[slot] = issue_cycle + latency
        self._last_issued = instr
        self._last_issue_cycle = issue_cycle

    def _branch_taken_penalty(self) -> None:
        self.cycles += self.spec.timing.taken_branch_penalty
        self._last_issue_cycle = self.cycles
        self._last_issued = None
        self._pair_open = False

    # -- host interface ----------------------------------------------------------

    def halt(self, code: int) -> None:
        self.halted = True
        self.exit_code = code

    # -- main loop ------------------------------------------------------------------

    def run(self, entry_native_index: int) -> int:
        start_instret = self.instret
        start_cycles = self.cycles
        start_sfi = self.category_counts.get("sfi", 0)
        try:
            return self._run(entry_native_index)
        finally:
            if metrics.active():
                metrics.count("execute.native.instret",
                              self.instret - start_instret)
                metrics.count("execute.native.cycles",
                              self.cycles - start_cycles)
                sfi = self.category_counts.get("sfi", 0) - start_sfi
                if sfi:
                    metrics.count("execute.sfi.dynamic", sfi)

    def _run(self, entry_native_index: int) -> int:
        self.pc = entry_native_index
        # The return sentinel is an in-segment, aligned module address so
        # it survives SFI masking; reaching it halts the machine.
        from repro.sfi.policy import RETURN_SENTINEL

        self.regs[self.link_reg] = RETURN_SENTINEL
        instrs = self.instrs
        while not self.halted:
            if self.pc == 0xFFFFFFFF or self.pc >= len(instrs):
                if self.pc == 0xFFFFFFFF:
                    break
                raise VMRuntimeError(f"native pc out of range: {self.pc}")
            instr = instrs[self.pc]
            self.instret += 1
            if self.instret > self.fuel:
                raise FuelExhausted("target simulation exceeded fuel")
            self.category_counts[instr.category] += 1
            if instr.category != "fused":
                self._charge(instr)
            next_pc = self.pc + 1
            try:
                redirect = self.execute(instr)
            except AccessViolation as violation:
                redirect = self._deliver_violation(instr, violation)
            if redirect is not None:
                if self.spec.delay_slots and instr.is_branch():
                    # Execute the delay slot instruction, then redirect.
                    slot = instrs[self.pc + 1]
                    if not (instr.annul and redirect == -2):
                        self.instret += 1
                        self.category_counts[slot.category] += 1
                        if slot.category != "fused":
                            self._charge(slot)
                        self.execute(slot)
                    if redirect == -2:  # not-taken branch with delay slot
                        next_pc = self.pc + 2
                    else:
                        next_pc = redirect
                        self._branch_taken_penalty()
                else:
                    if redirect == -2:
                        next_pc = self.pc + 1
                    else:
                        next_pc = redirect
                        self._branch_taken_penalty()
            elif self.spec.delay_slots and instr.is_branch():
                # Untaken branch on a delay-slot machine: the slot runs.
                slot = instrs[self.pc + 1]
                if not instr.annul:
                    self.instret += 1
                    self.category_counts[slot.category] += 1
                    if slot.category != "fused":
                        self._charge(slot)
                    self.execute(slot)
                next_pc = self.pc + 2
            self.pc = next_pc
        return s32(self.exit_code if self.halted else self.regs[
            self.spec.int_map.get(1, 1)])

    def _deliver_violation(self, instr: MInstr, violation: AccessViolation) -> int:
        """The virtual exception model on a translated target: the
        runtime's fault handler reflects the violation to the module's
        registered handler with (cause, address, module pc) in the
        argument registers; without a handler it propagates to the host."""
        if not self.handler_omni:
            raise violation
        cause = {"load": 1, "store": 2, "execute": 3}.get(violation.kind, 2)
        arg_regs = self.spec.int_map
        self.regs[arg_regs[1]] = cause
        self.regs[arg_regs[2]] = u32(violation.address)
        self.regs[arg_regs[3]] = u32(instr.omni_addr)
        return self.map_omni_target(self.handler_omni)

    # -- resolving indirect targets ---------------------------------------------------

    def map_omni_target(self, omni_addr: int) -> int:
        from repro.sfi.policy import RETURN_SENTINEL

        omni_addr = u32(omni_addr)
        if omni_addr in (0xFFFFFFFF, RETURN_SENTINEL):
            return 0xFFFFFFFF
        native = self.omni_to_native.get(omni_addr)
        if native is None:
            raise SandboxViolation(
                f"indirect control transfer to unmapped module address "
                f"{omni_addr:#010x}"
            )
        return native

    # -- semantics ------------------------------------------------------------------

    def execute(self, instr: MInstr) -> int | None:
        """Execute one instruction; return the new pc for taken control
        transfers, -2 for explicitly-untaken branches on delay-slot
        machines, or None."""
        op = instr.op
        regs = self.regs
        fregs = self.fregs
        imm = instr.imm
        if op == "add":
            regs[instr.rd] = add32(regs[instr.rs], regs[instr.rt])
        elif op == "addi":
            regs[instr.rd] = add32(regs[instr.rs], u32(imm))
        elif op == "sub":
            regs[instr.rd] = sub32(regs[instr.rs], regs[instr.rt])
        elif op == "mul":
            regs[instr.rd] = mul32(regs[instr.rs], regs[instr.rt])
        elif op in ("div", "divu", "rem", "remu"):
            regs[instr.rd] = semantics.int_divide(
                op, regs[instr.rs], regs[instr.rt])
        elif op == "and":
            regs[instr.rd] = regs[instr.rs] & regs[instr.rt]
        elif op == "andi":
            regs[instr.rd] = regs[instr.rs] & u32(imm)
        elif op == "or":
            regs[instr.rd] = regs[instr.rs] | regs[instr.rt]
        elif op == "ori":
            regs[instr.rd] = regs[instr.rs] | u32(imm)
        elif op == "xor":
            regs[instr.rd] = regs[instr.rs] ^ regs[instr.rt]
        elif op == "xori":
            regs[instr.rd] = regs[instr.rs] ^ u32(imm)
        elif op == "nor":
            regs[instr.rd] = u32(~(regs[instr.rs] | regs[instr.rt]))
        elif op == "sll":
            regs[instr.rd] = sll32(regs[instr.rs], regs[instr.rt])
        elif op == "slli":
            regs[instr.rd] = sll32(regs[instr.rs], imm)
        elif op == "srl":
            regs[instr.rd] = srl32(regs[instr.rs], regs[instr.rt])
        elif op == "srli":
            regs[instr.rd] = srl32(regs[instr.rs], imm)
        elif op == "sra":
            regs[instr.rd] = sra32(regs[instr.rs], regs[instr.rt])
        elif op == "srai":
            regs[instr.rd] = sra32(regs[instr.rs], imm)
        elif op == "li":
            regs[instr.rd] = u32(imm)
        elif op == "lui":
            regs[instr.rd] = u32(imm) << 16
        elif op == "mov":
            regs[instr.rd] = regs[instr.rs]
        elif op == "slt":
            regs[instr.rd] = 1 if s32(regs[instr.rs]) < s32(regs[instr.rt]) else 0
        elif op == "sltu":
            regs[instr.rd] = 1 if regs[instr.rs] < regs[instr.rt] else 0
        elif op == "slti":
            regs[instr.rd] = 1 if s32(regs[instr.rs]) < s32(imm) else 0
        elif op == "sltiu":
            regs[instr.rd] = 1 if regs[instr.rs] < u32(imm) else 0
        elif op in ("sext8", "sext16", "zext8", "zext16"):
            regs[instr.rd] = semantics.extend(op, regs[instr.rs])
        # -- memory ---------------------------------------------------------
        elif op in ("lb", "lbu", "lh", "lhu", "lw"):
            address = add32(regs[instr.rs], u32(imm))
            size, signed = {"lb": (1, True), "lbu": (1, False),
                            "lh": (2, True), "lhu": (2, False),
                            "lw": (4, False)}[op]
            regs[instr.rd] = u32(self.memory.load(address, size, signed))
        elif op in ("lbx", "lbux", "lhx", "lhux", "lwx"):
            address = add32(regs[instr.rs], regs[instr.rt])
            size, signed = {"lbx": (1, True), "lbux": (1, False),
                            "lhx": (2, True), "lhux": (2, False),
                            "lwx": (4, False)}[op]
            regs[instr.rd] = u32(self.memory.load(address, size, signed))
        elif op in ("sb", "sh", "sw"):
            address = add32(regs[instr.rs], u32(imm))
            size = {"sb": 1, "sh": 2, "sw": 4}[op]
            self.memory.store(address, size, regs[instr.rt])
        elif op in ("sbx", "shx", "swx"):
            address = add32(regs[instr.rs], regs[instr.rd])
            size = {"sbx": 1, "shx": 2, "swx": 4}[op]
            self.memory.store(address, size, regs[instr.rt])
        elif op == "lfs":
            fregs[instr.fd] = self.memory.load_f32(
                add32(regs[instr.rs], u32(imm)))
        elif op == "lfd":
            fregs[instr.fd] = self.memory.load_f64(
                add32(regs[instr.rs], u32(imm)))
        elif op == "lfsx":
            fregs[instr.fd] = self.memory.load_f32(
                add32(regs[instr.rs], regs[instr.rt]))
        elif op == "lfdx":
            fregs[instr.fd] = self.memory.load_f64(
                add32(regs[instr.rs], regs[instr.rt]))
        elif op == "sfs":
            self.memory.store_f32(add32(regs[instr.rs], u32(imm)),
                                  fregs[instr.ft])
        elif op == "sfd":
            self.memory.store_f64(add32(regs[instr.rs], u32(imm)),
                                  fregs[instr.ft])
        elif op == "sfsx":
            self.memory.store_f32(add32(regs[instr.rs], regs[instr.rd]),
                                  fregs[instr.ft])
        elif op == "sfdx":
            self.memory.store_f64(add32(regs[instr.rs], regs[instr.rd]),
                                  fregs[instr.ft])
        # -- FP arithmetic -----------------------------------------------------
        elif op in ("fadds", "fsubs", "fmuls", "fdivs",
                    "faddd", "fsubd", "fmuld", "fdivd"):
            result = semantics.fp_binop(
                op[:-1], fregs[instr.fs], fregs[instr.ft])
            fregs[instr.fd] = round_f32(result) if op.endswith("s") else result
        elif op in ("fnegs", "fnegd", "fabss", "fabsd", "fmovs", "fmovd"):
            result = semantics.fp_unop(op[:-1], fregs[instr.fs])
            fregs[instr.fd] = round_f32(result) if op.endswith("s") else result
        elif op in ("fceqs", "fclts", "fcles", "fceqd", "fcltd", "fcled"):
            a, b = fregs[instr.fs], fregs[instr.ft]
            pred = {"fceq": a == b, "fclt": a < b, "fcle": a <= b}[op[:-1]]
            regs[instr.rd] = 1 if pred else 0
        elif op in ("fcmp", "fcmps"):
            a, b = fregs[instr.fs], fregs[instr.ft]
            self.cc = (a > b) - (a < b)
            self.cc_unsigned = self.cc
        # -- conversions --------------------------------------------------------
        elif op == "cvtdw":
            fregs[instr.fd] = float(s32(regs[instr.rs]))
        elif op == "cvtsw":
            fregs[instr.fd] = round_f32(float(s32(regs[instr.rs])))
        elif op == "cvtdwu":
            fregs[instr.fd] = float(regs[instr.rs])
        elif op == "cvtswu":
            fregs[instr.fd] = round_f32(float(regs[instr.rs]))
        elif op in ("cvtwd", "cvtws"):
            regs[instr.rd] = semantics.f_to_i32(fregs[instr.fs])
        elif op in ("cvtwud", "cvtwus"):
            regs[instr.rd] = semantics.f_to_u32(fregs[instr.fs])
        elif op == "cvtds":
            fregs[instr.fd] = fregs[instr.fs]
        elif op == "cvtsd":
            fregs[instr.fd] = round_f32(fregs[instr.fs])
        # -- condition codes ------------------------------------------------------
        elif op in ("cmp", "subcc"):
            a, b = regs[instr.rs], regs[instr.rt]
            self.cc = (s32(a) > s32(b)) - (s32(a) < s32(b))
            self.cc_unsigned = (a > b) - (a < b)
        elif op == "cmpi":
            a = regs[instr.rs]
            self.cc = (s32(a) > s32(imm)) - (s32(a) < s32(imm))
            self.cc_unsigned = (a > u32(imm)) - (a < u32(imm))
        elif op == "bcc":
            taken = self._cc_predicate(instr.pred)
            return instr.target if taken else (-2 if self.spec.delay_slots
                                               else None)
        elif op == "fbcc":
            taken = self._cc_predicate(instr.pred)
            return instr.target if taken else (-2 if self.spec.delay_slots
                                               else None)
        elif op == "setcc":
            regs[instr.rd] = 1 if self._cc_predicate(instr.pred) else 0
        # -- branches (MIPS-style register forms) -----------------------------------
        elif op == "beq":
            if regs[instr.rs] == regs[instr.rt]:
                return instr.target
            return -2 if self.spec.delay_slots else None
        elif op == "bne":
            if regs[instr.rs] != regs[instr.rt]:
                return instr.target
            return -2 if self.spec.delay_slots else None
        elif op in ("bltz", "blez", "bgtz", "bgez"):
            value = s32(regs[instr.rs])
            taken = {"bltz": value < 0, "blez": value <= 0,
                     "bgtz": value > 0, "bgez": value >= 0}[op]
            if taken:
                return instr.target
            return -2 if self.spec.delay_slots else None
        # -- jumps -------------------------------------------------------------------
        elif op == "j":
            return instr.target
        elif op == "jal":
            # imm holds the OmniVM return address (module-space pointer).
            regs[self.link_reg] = u32(imm)
            return instr.target
        elif op == "jr":
            return self.map_omni_target(regs[instr.rs])
        elif op == "jalr":
            regs[self.link_reg] = u32(imm)
            return self.map_omni_target(regs[instr.rs])
        elif op == "hostcall":
            if self.hostcall is None:
                raise VMRuntimeError("hostcall without attached host")
            self.hostcall(self, imm)
        elif op == "nop":
            pass
        elif op == "trap":
            raise VMTrap(f"module trap {imm}", imm)
        elif op == "sethnd":
            # The runtime catches the host OS fault and reflects it to
            # this module-space handler (the virtual exception model).
            self.handler_omni = regs[instr.rs]
        else:  # pragma: no cover
            raise VMRuntimeError(f"target op {op!r} not implemented")
        return None

    def _cc_predicate(self, pred: str) -> bool:
        signed = self.cc
        unsigned = self.cc_unsigned
        table = {
            "eq": signed == 0, "ne": signed != 0,
            "lt": signed < 0, "le": signed <= 0,
            "gt": signed > 0, "ge": signed >= 0,
            "ltu": unsigned < 0, "leu": unsigned <= 0,
            "gtu": unsigned > 0, "geu": unsigned >= 0,
        }
        return table[pred]
