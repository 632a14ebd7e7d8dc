"""The OmniVM instruction set architecture.

OmniVM is the paper's *software-defined computer architecture*: a RISC-like
load/store machine with

* 16 integer registers (``r0``–``r15``; ``r15`` is the stack pointer and
  ``r14`` the link register by ABI convention — the hardware treats all 16
  uniformly) and 16 floating-point registers (``f0``–``f15``);
* memory access instructions with full **32-bit immediate offsets** and an
  **indexed (register+register) addressing mode** — the two features the
  paper credits for letting the compiler finish address arithmetic before
  load time;
* general **compare-and-branch** instructions (register/register and
  register/immediate, signed and unsigned) so translators can produce good
  code for both condition-code and compare-to-register branch models;
* endian-neutral sized data types with explicit extension instructions;
* a segmented virtual memory model with host-imposed permissions and a
  virtual exception model (``sethnd`` registers an access-violation
  handler; see :mod:`repro.omnivm.interp`).

Instructions are fixed-width (8 bytes when encoded: one opcode word and one
immediate word), so code addresses are byte offsets that are always
8-aligned — which is also what makes SFI's indirect-jump masking cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NUM_INT_REGS = 16
NUM_FP_REGS = 16

#: Byte size of one encoded instruction.
INSTR_SIZE = 8

# ABI register conventions (the hardware itself is uniform).
REG_ZERO_HINT = 0  # r0 is general-purpose; codegen often keeps 0 here
REG_RV = 1  # return value / first argument
REG_ARGS = (1, 2, 3, 4)
FREG_RV = 1
FREG_ARGS = (1, 2, 3, 4)
REG_TMP = (5, 6, 7)  # caller-saved scratch
REG_SAVED = (8, 9, 10, 11, 12, 13)  # callee-saved
REG_RA = 14  # link register
REG_SP = 15  # stack pointer

INT_REG_NAMES = [f"r{i}" for i in range(NUM_INT_REGS)]
FP_REG_NAMES = [f"f{i}" for i in range(NUM_FP_REGS)]


@dataclass(frozen=True)
class OpSpec:
    """Static description of one OmniVM opcode.

    ``fmt`` encodes the operand list, one character per operand:

    =====  ====================================================
    ``d``  destination integer register
    ``s``  source integer register
    ``t``  second source integer register
    ``i``  32-bit immediate
    ``j``  18-bit signed immediate (imm2; branch compare constants)
    ``D``  destination FP register
    ``S``  source FP register
    ``T``  second source FP register
    ``L``  code label (branch/jump/call target)
    =====  ====================================================

    ``kind`` groups opcodes for the translators and verifier:
    ``alu``, ``alui``, ``li``, ``mov``, ``load``, ``loadx``, ``store``,
    ``storex``, ``fload``, ``floadx``, ``fstore``, ``fstorex``, ``falu``,
    ``fcmp``, ``cvt``, ``ext``, ``branch``, ``branchi``, ``jump``,
    ``call``, ``ijump``, ``icall``, ``host``, ``misc``.
    """

    name: str
    fmt: str
    kind: str
    code: int = field(default=-1, compare=False)

    @property
    def is_branch(self) -> bool:
        return self.kind in ("branch", "branchi")

    @property
    def is_control(self) -> bool:
        return self.kind in (
            "branch", "branchi", "jump", "call", "ijump", "icall",
        )

    @property
    def is_store(self) -> bool:
        return self.kind in ("store", "storex", "fstore", "fstorex")

    @property
    def is_load(self) -> bool:
        return self.kind in ("load", "loadx", "fload", "floadx")


def _specs() -> list[OpSpec]:
    table: list[OpSpec] = []

    def op(name: str, fmt: str, kind: str) -> None:
        table.append(OpSpec(name, fmt, kind))

    # Integer ALU, register-register.
    for name in ("add", "sub", "mul", "div", "divu", "rem", "remu",
                 "and", "or", "xor", "sll", "srl", "sra"):
        op(name, "dst", "alu")
    # Integer ALU, register-immediate (32-bit immediates throughout).
    for name in ("addi", "muli", "andi", "ori", "xori",
                 "slli", "srli", "srai"):
        op(name, "dsi", "alui")
    # Compare-to-register (full predicate set, reg and imm forms).
    for name in ("seq", "sne", "slt", "sle", "sgt", "sge",
                 "sltu", "sleu", "sgtu", "sgeu"):
        op(name, "dst", "alu")
    for name in ("seqi", "snei", "slti", "slei", "sgti", "sgei",
                 "sltui", "sleui", "sgtui", "sgeui"):
        op(name, "dsi", "alui")
    # Constants and moves.
    op("li", "di", "li")
    op("mov", "ds", "mov")
    # Loads: base + imm32, and indexed base + index.
    for name in ("lb", "lbu", "lh", "lhu", "lw"):
        op(name, "dsi", "load")
    for name in ("lbx", "lbux", "lhx", "lhux", "lwx"):
        op(name, "dst", "loadx")
    # Stores: value, base + imm32 / base + index.
    for name in ("sb", "sh", "sw"):
        op(name, "tsi", "store")  # rt = value, rs = base, imm
    for name in ("sbx", "shx", "swx"):
        op(name, "tsd", "storex")  # rt = value, rs = base, rd = index
    # FP loads/stores (f32 suffix s, f64 suffix d).
    op("lfs", "Dsi", "fload")
    op("lfd", "Dsi", "fload")
    op("lfsx", "Dst", "floadx")
    op("lfdx", "Dst", "floadx")
    op("sfs", "Tsi", "fstore")  # T = value, rs = base, imm
    op("sfd", "Tsi", "fstore")
    op("sfsx", "Tsd", "fstorex")
    op("sfdx", "Tsd", "fstorex")
    # FP arithmetic.
    for name in ("fadds", "fsubs", "fmuls", "fdivs",
                 "faddd", "fsubd", "fmuld", "fdivd"):
        op(name, "DST", "falu")
    for name in ("fnegs", "fnegd", "fabss", "fabsd", "fmovs", "fmovd"):
        op(name, "DS", "falu")
    # FP compare to integer register.
    for name in ("fceqs", "fclts", "fcles", "fceqd", "fcltd", "fcled"):
        op(name, "dST", "fcmp")
    # Conversions.
    op("cvtdw", "Ds", "cvt")   # i32 -> f64
    op("cvtsw", "Ds", "cvt")   # i32 -> f32
    op("cvtdwu", "Ds", "cvt")  # u32 -> f64
    op("cvtswu", "Ds", "cvt")  # u32 -> f32
    op("cvtwd", "dS", "cvt")   # f64 -> i32 (truncate)
    op("cvtws", "dS", "cvt")   # f32 -> i32 (truncate)
    op("cvtwud", "dS", "cvt")  # f64 -> u32 (truncate)
    op("cvtwus", "dS", "cvt")  # f32 -> u32 (truncate)
    op("cvtds", "DS", "cvt")   # f32 -> f64
    op("cvtsd", "DS", "cvt")   # f64 -> f32
    # Endian-neutral extension/extraction.
    for name in ("sext8", "sext16", "zext8", "zext16"):
        op(name, "ds", "ext")
    # Compare-and-branch: register/register and register/immediate.
    for name in ("beq", "bne", "blt", "ble", "bgt", "bge",
                 "bltu", "bleu", "bgtu", "bgeu"):
        op(name, "stL", "branch")
    # The immediate compare-and-branch forms carry the compare constant in
    # an 18-bit field (``j`` / imm2) alongside the 32-bit target address;
    # the compiler falls back to li + register branch for larger constants.
    for name in ("beqi", "bnei", "blti", "blei", "bgti", "bgei",
                 "bltui", "bleui", "bgtui", "bgeui"):
        op(name, "sjL", "branchi")
    # Jumps and calls.
    op("j", "L", "jump")
    op("jal", "L", "call")
    op("jr", "s", "ijump")
    op("jalr", "s", "icall")
    # Runtime interface.
    op("hostcall", "i", "host")
    op("trap", "i", "misc")
    op("nop", "", "misc")
    op("sethnd", "s", "misc")  # register access-violation handler

    for code, spec in enumerate(table):
        object.__setattr__(spec, "code", code)
    return table


SPECS: list[OpSpec] = _specs()
SPEC_BY_NAME: dict[str, OpSpec] = {s.name: s for s in SPECS}
SPEC_BY_CODE: dict[int, OpSpec] = {s.code: s for s in SPECS}

#: Branch predicate metadata: opcode prefix -> (python operator key, signed)
BRANCH_PREDS = {
    "beq": ("eq", True), "bne": ("ne", True),
    "blt": ("lt", True), "ble": ("le", True),
    "bgt": ("gt", True), "bge": ("ge", True),
    "bltu": ("lt", False), "bleu": ("le", False),
    "bgtu": ("gt", False), "bgeu": ("ge", False),
}

SET_PREDS = {
    "seq": ("eq", True), "sne": ("ne", True),
    "slt": ("lt", True), "sle": ("le", True),
    "sgt": ("gt", True), "sge": ("ge", True),
    "sltu": ("lt", False), "sleu": ("le", False),
    "sgtu": ("gt", False), "sgeu": ("ge", False),
}


@dataclass
class VMInstr:
    """One OmniVM instruction.

    Register operands are small integers; ``imm`` holds the immediate
    (signed canonical form); ``label`` holds a symbolic code target until
    the linker resolves it into ``imm`` as an absolute byte address.
    """

    op: str
    rd: int = 0
    rs: int = 0
    rt: int = 0
    fd: int = 0
    fs: int = 0
    ft: int = 0
    imm: int = 0
    imm2: int = 0  # branch-immediate compare constant (18-bit signed)
    label: str | None = None

    @property
    def spec(self) -> OpSpec:
        return SPEC_BY_NAME[self.op]

    def __str__(self) -> str:
        spec = self.spec
        parts: list[str] = []
        for ch in spec.fmt:
            if ch == "d":
                parts.append(INT_REG_NAMES[self.rd])
            elif ch == "s":
                parts.append(INT_REG_NAMES[self.rs])
            elif ch == "t":
                parts.append(INT_REG_NAMES[self.rt])
            elif ch == "D":
                parts.append(FP_REG_NAMES[self.fd])
            elif ch == "S":
                parts.append(FP_REG_NAMES[self.fs])
            elif ch == "T":
                parts.append(FP_REG_NAMES[self.ft])
            elif ch == "i":
                parts.append(str(self.imm))
            elif ch == "j":
                parts.append(str(self.imm2))
            elif ch == "L":
                parts.append(self.label if self.label is not None else hex(self.imm))
        return f"{self.op} " + ", ".join(parts) if parts else self.op

    # -- register usage (for verification and translator bookkeeping) ----

    def int_writes(self) -> list[int]:
        spec = self.spec
        if spec.kind in ("storex", "fstorex"):
            return []  # rd is an index operand there
        if spec.kind == "call" or spec.kind == "icall":
            return [REG_RA]
        return [self.rd] if "d" in spec.fmt else []


def make(op: str, **operands) -> VMInstr:
    """Build a :class:`VMInstr`, validating the opcode name."""
    if op not in SPEC_BY_NAME:
        raise KeyError(f"unknown OmniVM opcode {op!r}")
    return VMInstr(op, **operands)
