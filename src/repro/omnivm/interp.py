"""Reference interpreter for OmniVM.

This is the *definition* of OmniVM semantics: the segmented memory model
with host-imposed permissions, the virtual exception model (access
violations are delivered to a handler the module registers with
``sethnd``), and the precise 32-bit / IEEE behaviour of every instruction.
The translators are tested differentially against it: a module must
produce identical observable output interpreted here and translated to
any simulated target.

The interpreter is not the performance path (the paper's whole point is
that translation beats interpretation); it is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
    VMTrap,
)
from repro.omnivm.isa import (
    BRANCH_PREDS,
    INSTR_SIZE,
    REG_RA,
    REG_SP,
    SET_PREDS,
    VMInstr,
)
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import CODE_BASE, Memory, STACK_TOP
from repro.omnivm import semantics
from repro.utils.bits import (
    add32,
    mul32,
    round_f32,
    s32,
    sll32,
    sra32,
    srl32,
    sub32,
    u32,
)

_PRED_FN = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}

#: Exception cause codes delivered to the module handler in r1.
CAUSE_LOAD = 1
CAUSE_STORE = 2
CAUSE_EXEC = 3

#: Immediate-form ALU opcodes and their register-register equivalents.
_IMM_TO_REG_OP = {
    "addi": "add", "muli": "mul", "andi": "and", "ori": "or",
    "xori": "xor", "slli": "sll", "srli": "srl", "srai": "sra",
    "seqi": "seq", "snei": "sne", "slti": "slt", "slei": "sle",
    "sgti": "sgt", "sgei": "sge", "sltui": "sltu", "sleui": "sleu",
    "sgtui": "sgtu", "sgeui": "sgeu",
}

#: Load opcode -> (size in bytes, sign-extending?)
_LOAD_SHAPE = {
    "lb": (1, True), "lbu": (1, False),
    "lh": (2, True), "lhu": (2, False),
    "lw": (4, False),
}

_STORE_SIZE = {"sb": 1, "sh": 2, "sw": 4}


@dataclass
class VMState:
    """Architectural state of one OmniVM instance."""

    regs: list[int] = field(default_factory=lambda: [0] * 16)
    fregs: list[float] = field(default_factory=lambda: [0.0] * 16)
    pc: int = 0
    handler: int = 0  # access-violation handler address (0 = none)
    halted: bool = False
    exit_code: int = 0
    instret: int = 0  # dynamic instruction count


class OmniVM:
    """Executes a linked mobile module under the reference semantics."""

    def __init__(
        self,
        program: LinkedProgram,
        memory: Memory,
        hostcall: Callable[["OmniVM", int], None] | None = None,
        fuel: int = 50_000_000,
    ):
        self.program = program
        self.memory = memory
        self.hostcall = hostcall
        self.fuel = fuel
        self.state = VMState()
        self.state.regs[REG_SP] = STACK_TOP

    # -- control -------------------------------------------------------------

    def run(self, entry: str | int | None = None) -> int:
        """Run from *entry* (symbol or address) until exit; returns the
        module exit code (value of r1 at the final return)."""
        state = self.state
        if entry is None:
            state.pc = self.program.entry_address
        elif isinstance(entry, str):
            state.pc = self.program.address_of(entry)
        else:
            state.pc = entry
        # A sentinel return address outside the code segment stops the run.
        sentinel = 0
        state.regs[REG_RA] = sentinel
        instrs = self.program.instrs
        start_instret = state.instret
        try:
            return self._run_loop(state, instrs, sentinel)
        finally:
            if metrics.active():
                metrics.count("execute.omni.instret",
                              state.instret - start_instret)

    def _run_loop(self, state, instrs, sentinel) -> int:
        while not state.halted:
            if state.pc == sentinel:
                break
            index = (state.pc - CODE_BASE) // INSTR_SIZE
            if not (0 <= index < len(instrs)) or (state.pc - CODE_BASE) % INSTR_SIZE:
                raise AccessViolation(
                    f"execute at bad address {state.pc:#010x}", state.pc, "execute"
                )
            instr = instrs[index]
            state.instret += 1
            if state.instret > self.fuel:
                raise FuelExhausted(
                    f"exceeded fuel of {self.fuel} instructions"
                )
            try:
                self.step(instr)
            except AccessViolation as violation:
                self._deliver_violation(violation)
        return s32(state.regs[1]) if not state.halted else state.exit_code

    def _deliver_violation(self, violation: AccessViolation) -> None:
        """The virtual exception model: jump to the registered handler with
        the cause in r1 and the faulting address in r2; abort otherwise."""
        state = self.state
        if state.handler == 0:
            raise violation
        cause = {"load": CAUSE_LOAD, "store": CAUSE_STORE,
                 "execute": CAUSE_EXEC}.get(violation.kind, CAUSE_STORE)
        state.regs[1] = cause
        state.regs[2] = u32(violation.address)
        # r3 holds the pc of the faulting instruction so handlers can skip.
        state.regs[3] = u32(state.pc)
        state.pc = state.handler

    # -- single step -----------------------------------------------------------

    def step(self, instr: VMInstr) -> None:
        state = self.state
        op = instr.op
        regs = state.regs
        fregs = state.fregs
        next_pc = state.pc + INSTR_SIZE

        kind = instr.spec.kind
        if kind == "alu":
            regs[instr.rd] = self._alu(op, regs[instr.rs], regs[instr.rt])
        elif kind == "alui":
            regs[instr.rd] = self._alu(
                _IMM_TO_REG_OP[op], regs[instr.rs], u32(instr.imm)
            )
        elif kind == "li":
            regs[instr.rd] = u32(instr.imm)
        elif kind == "mov":
            regs[instr.rd] = regs[instr.rs]
        elif kind == "load":
            size, signed = _LOAD_SHAPE[op]
            address = add32(regs[instr.rs], u32(instr.imm))
            regs[instr.rd] = u32(self.memory.load(address, size, signed))
        elif kind == "loadx":
            size, signed = _LOAD_SHAPE[op[:-1]]
            address = add32(regs[instr.rs], regs[instr.rt])
            regs[instr.rd] = u32(self.memory.load(address, size, signed))
        elif kind == "store":
            size = _STORE_SIZE[op]
            address = add32(regs[instr.rs], u32(instr.imm))
            self.memory.store(address, size, regs[instr.rt])
        elif kind == "storex":
            size = _STORE_SIZE[op[:-1]]
            address = add32(regs[instr.rs], regs[instr.rd])
            self.memory.store(address, size, regs[instr.rt])
        elif kind == "fload":
            address = add32(regs[instr.rs], u32(instr.imm))
            fregs[instr.fd] = (
                self.memory.load_f32(address) if op == "lfs"
                else self.memory.load_f64(address)
            )
        elif kind == "floadx":
            address = add32(regs[instr.rs], regs[instr.rt])
            fregs[instr.fd] = (
                self.memory.load_f32(address) if op == "lfsx"
                else self.memory.load_f64(address)
            )
        elif kind == "fstore":
            address = add32(regs[instr.rs], u32(instr.imm))
            if op == "sfs":
                self.memory.store_f32(address, fregs[instr.ft])
            else:
                self.memory.store_f64(address, fregs[instr.ft])
        elif kind == "fstorex":
            address = add32(regs[instr.rs], regs[instr.rd])
            if op == "sfsx":
                self.memory.store_f32(address, fregs[instr.ft])
            else:
                self.memory.store_f64(address, fregs[instr.ft])
        elif kind == "falu":
            fregs[instr.fd] = self._falu(op, instr)
        elif kind == "fcmp":
            regs[instr.rd] = self._fcmp(op, fregs[instr.fs], fregs[instr.ft])
        elif kind == "cvt":
            self._convert(op, instr)
        elif kind == "ext":
            regs[instr.rd] = self._extend(op, regs[instr.rs])
        elif kind == "branch":
            pred, signed = BRANCH_PREDS[op]
            a, b = regs[instr.rs], regs[instr.rt]
            if signed:
                a, b = s32(a), s32(b)
            if _PRED_FN[pred](a, b):
                next_pc = u32(instr.imm)
        elif kind == "branchi":
            base = op[:-1]
            pred, signed = BRANCH_PREDS[base]
            a = s32(regs[instr.rs]) if signed else regs[instr.rs]
            b = instr.imm2 if signed else u32(instr.imm2)
            if _PRED_FN[pred](a, b):
                next_pc = u32(instr.imm)
        elif kind == "jump":
            next_pc = u32(instr.imm)
        elif kind == "call":
            regs[REG_RA] = next_pc
            next_pc = u32(instr.imm)
        elif kind == "ijump":
            next_pc = regs[instr.rs]
        elif kind == "icall":
            regs[REG_RA] = next_pc
            next_pc = regs[instr.rs]
        elif kind == "host":
            if self.hostcall is None:
                raise VMRuntimeError("module made a hostcall but no host is attached")
            self.hostcall(self, instr.imm)
        elif op == "trap":
            raise VMTrap(f"module trap {instr.imm}", instr.imm)
        elif op == "nop":
            pass
        elif op == "sethnd":
            state.handler = regs[instr.rs]
        else:  # pragma: no cover
            raise VMRuntimeError(f"unimplemented opcode {op!r}")
        state.pc = next_pc

    # -- helpers ------------------------------------------------------------------

    def _alu(self, op: str, a: int, b: int) -> int:
        if op in SET_PREDS:
            pred, signed = SET_PREDS[op]
            x, y = (s32(a), s32(b)) if signed else (a, b)
            return 1 if _PRED_FN[pred](x, y) else 0
        if op == "add":
            return add32(a, b)
        if op == "sub":
            return sub32(a, b)
        if op == "mul":
            return mul32(a, b)
        if op in ("div", "divu", "rem", "remu"):
            return semantics.int_divide(op, a, b)
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "xor":
            return a ^ b
        if op == "sll":
            return sll32(a, b)
        if op == "srl":
            return srl32(a, b)
        if op == "sra":
            return sra32(a, b)
        raise VMRuntimeError(f"unknown ALU op {op!r}")  # pragma: no cover

    def _falu(self, op: str, instr: VMInstr) -> float:
        fregs = self.state.fregs
        a = fregs[instr.fs]
        single = op in ("fadds", "fsubs", "fmuls", "fdivs",
                        "fnegs", "fabss", "fmovs")
        if op in ("fmovs", "fmovd", "fnegs", "fnegd", "fabss", "fabsd"):
            result = semantics.fp_unop(op[:-1], a)
        else:
            result = semantics.fp_binop(op[:-1], a, fregs[instr.ft])
        return round_f32(result) if single else result

    def _fcmp(self, op: str, a: float, b: float) -> int:
        pred = {"fceq": "eq", "fclt": "lt", "fcle": "le"}[op[:-1]]
        return 1 if _PRED_FN[pred](a, b) else 0

    def _convert(self, op: str, instr: VMInstr) -> None:
        regs, fregs = self.state.regs, self.state.fregs
        if op == "cvtdw":
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
        else:  # pragma: no cover
            raise VMRuntimeError(f"unknown conversion {op!r}")

    def _extend(self, op: str, value: int) -> int:
        return semantics.extend(op, value)
