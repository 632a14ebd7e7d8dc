"""Shared instruction-selection logic for the RISC target translators.

MIPS, SPARC and PowerPC share most expansion logic; they differ in

* the **branch model** (MIPS compare-and-branch-vs-zero vs condition
  codes) — hooks ``emit_branch`` / ``emit_setcc``;
* **addressing** (indexed mode availability, immediate widths) — driven
  by the TargetSpec;
* the **SFI sequences** — :mod:`repro.sfi.rewrite`.

MIPS implements the branch hooks in :mod:`repro.translators.mips`; the
condition-code targets (SPARC, PowerPC, x86) share
:mod:`repro.translators.condcode`, and x86 additionally rewrites
three-operand ALU forms into two-operand ones.
"""

from __future__ import annotations

from repro.errors import TranslationError
from repro.omnivm.isa import VMInstr
from repro.sfi.rewrite import sandbox_jump_target, sandbox_store_address
from repro.translators.base import BaseTranslator
from repro.utils.bits import s32, u32

#: OmniVM ALU opcodes that map straight onto the union vocabulary.
_DIRECT_ALU = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div",
    "divu": "divu", "rem": "rem", "remu": "remu", "and": "and",
    "or": "or", "xor": "xor", "sll": "sll", "srl": "srl", "sra": "sra",
}
_DIRECT_ALUI = {
    "addi": ("addi", "add"), "andi": ("andi", "and"),
    "ori": ("ori", "or"), "xori": ("xori", "xor"),
    "slli": ("slli", "sll"), "srli": ("srli", "srl"),
    "srai": ("srai", "sra"), "muli": (None, "mul"),
}

_SET_PRED = {
    "seq": "eq", "sne": "ne", "slt": "lt", "sle": "le", "sgt": "gt",
    "sge": "ge", "sltu": "ltu", "sleu": "leu", "sgtu": "gtu",
    "sgeu": "geu",
}

_FCMP_PRED = {"fceq": "eq", "fclt": "lt", "fcle": "le"}

_NEG_PRED = {
    "eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt",
    "gt": "le", "ltu": "geu", "geu": "ltu", "leu": "gtu", "gtu": "leu",
}

_LOAD_OPS = {"lb", "lbu", "lh", "lhu", "lw"}
_STORE_OPS = {"sb", "sh", "sw"}
_FLOAD_OPS = {"lfs", "lfd"}
_FSTORE_OPS = {"sfs", "sfd"}


class GenericRISCTranslator(BaseTranslator):
    """Instruction selection shared by the MIPS/SPARC/PPC translators."""

    # ---- per-target hooks -------------------------------------------------

    def emit_branch(self, pred: str, a_reg: int, b_reg: int | None,
                    imm: int, target_omni: int) -> None:
        """Emit a conditional branch ``a pred b`` (b_reg or imm)."""
        raise NotImplementedError

    def emit_setcc(self, dest: int, pred: str, a_reg: int,
                   b_reg: int | None, imm: int) -> None:
        """Emit a compare-to-register sequence."""
        raise NotImplementedError

    def emit_fp_setcc(self, dest: int, pred: str, fs: int, ft: int,
                      single: bool) -> None:
        suffix = "s" if single else ""
        self.emit("fcmp" + suffix, fs=fs, ft=ft)
        self.emit("setcc", rd=dest, pred=pred, category="cmp")

    # ---- main expansion ---------------------------------------------------------

    def expand_instr(self, instr: VMInstr, omni_addr: int,
                     next_instr: VMInstr | None) -> bool:
        op = instr.op
        spec = self.spec
        kind = instr.spec.kind

        if op in _DIRECT_ALU:
            self.alu_rr(_DIRECT_ALU[op], self.r(instr.rd), self.r(instr.rs),
                        self.r(instr.rt))
            return False
        if op in _SET_PRED:
            self.emit_setcc(self.r(instr.rd), _SET_PRED[op],
                            self.r(instr.rs), self.r(instr.rt), 0)
            return False
        if op.endswith("i") and op[:-1] in _SET_PRED:
            self.expand_setcc_imm(instr)
            return False
        if kind == "alui":
            self.expand_alui(instr)
            return False
        if op == "li":
            self.mat_imm(self.r(instr.rd), instr.imm)
            return False
        if op == "mov":
            self.emit("mov", rd=self.r(instr.rd), rs=self.r(instr.rs))
            return False
        if kind in ("load", "loadx", "fload", "floadx"):
            self.expand_load(instr)
            return False
        if kind in ("store", "storex", "fstore", "fstorex"):
            self.expand_store(instr)
            return False
        if kind == "falu":
            self.expand_falu(instr)
            return False
        if kind == "fcmp":
            return self.expand_fcmp(instr, next_instr)
        if kind == "cvt":
            self.emit(op, rd=self.r(instr.rd) if "d" in instr.spec.fmt else -1,
                      rs=self.r(instr.rs) if "s" in instr.spec.fmt else -1,
                      fd=self.f(instr.fd) if "D" in instr.spec.fmt else -1,
                      fs=self.f(instr.fs) if "S" in instr.spec.fmt else -1)
            return False
        if kind == "ext":
            self.emit(op, rd=self.r(instr.rd), rs=self.r(instr.rs))
            return False
        if kind == "branch":
            pred = self.BR_PRED[op]
            self.emit_branch(pred, self.r(instr.rs), self.r(instr.rt), 0,
                             u32(instr.imm))
            return False
        if kind == "branchi":
            pred = self.BR_PRED[op[:-1]]
            self.emit_branch(pred, self.r(instr.rs), None, instr.imm2,
                             u32(instr.imm))
            return False
        if op == "j":
            self.emit("j", target=u32(instr.imm))
            return False
        if op == "jal":
            self.emit("jal", target=u32(instr.imm), imm=omni_addr + 8)
            return False
        if op in ("jr", "jalr"):
            self.expand_indirect(instr, omni_addr)
            return False
        if op == "hostcall":
            self.emit("hostcall", imm=instr.imm)
            return False
        if op == "trap":
            self.emit("trap", imm=instr.imm)
            return False
        if op == "nop":
            self.emit("nop")
            return False
        if op == "sethnd":
            self.emit("sethnd", rs=self.r(instr.rs))
            return False
        raise TranslationError(f"cannot translate {instr}")  # pragma: no cover

    # ---- pieces -------------------------------------------------------------------

    def alu_rr(self, op: str, rd: int, rs: int, rt: int) -> None:
        self.emit(op, rd=rd, rs=rs, rt=rt)

    def alu_ri(self, op: str, rd: int, rs: int, imm: int) -> None:
        self.emit(op, rd=rd, rs=rs, imm=imm)

    def expand_alui(self, instr: VMInstr) -> None:
        imm_name, reg_name = _DIRECT_ALUI[instr.op]
        rd, rs = self.r(instr.rd), self.r(instr.rs)
        imm = instr.imm
        if instr.op in ("slli", "srli", "srai"):
            self.alu_ri(imm_name, rd, rs, imm & 31)
            return
        if imm_name is not None and (
            self.spec.fits_imm(imm)
            or (instr.op in ("andi", "ori", "xori")
                and 0 <= u32(imm) < (1 << self.spec.imm_bits))
        ):
            self.alu_ri(imm_name, rd, rs, s32(imm))
            return
        at = self.mat_extra_imm(imm)
        self.alu_rr(reg_name, rd, rs, at)

    def expand_setcc_imm(self, instr: VMInstr) -> None:
        pred = _SET_PRED[instr.op[:-1]]
        self.emit_setcc(self.r(instr.rd), pred, self.r(instr.rs), None,
                        instr.imm)

    # addressing ----------------------------------------------------------------

    def expand_load(self, instr: VMInstr) -> None:
        spec = self.spec
        op = instr.op
        is_fp = op.startswith("lf")
        indexed = op.endswith("x")
        dest_kw = ({"fd": self.f(instr.fd)} if is_fp
                   else {"rd": self.r(instr.rd)})
        base = self.r(instr.rs)
        if self.options.sfi and self.options.sfi_reads:
            self._expand_sandboxed_load(instr, is_fp, indexed, dest_kw, base)
            return
        if indexed:
            index = self.r(instr.rt)
            if spec.has_indexed_mem:
                self.emit(op, rs=base, rt=index, **dest_kw)
            else:
                self.emit("add", rd=self.at, rs=base, rt=index,
                          category="addr")
                self.emit(op[:-1], rs=self.at, imm=0, **dest_kw)
            return
        offset = instr.imm
        if spec.fits_imm(offset):
            self.emit(op, rs=base, imm=s32(offset), **dest_kw)
            return
        # Large offset: form the high part in the scratch register.
        self.emit("lui", rd=self.at, imm=(u32(offset) >> 16) & 0xFFFF,
                  category="addr")
        self.emit("add", rd=self.at, rs=self.at, rt=base, category="addr")
        low = s32(u32(offset) & 0xFFFF if u32(offset) & 0x8000 == 0
                  else (u32(offset) & 0xFFFF) - 0x10000)
        self.emit(op, rs=self.at, imm=low, **dest_kw)

    def _expand_sandboxed_load(self, instr: VMInstr, is_fp: bool,
                               indexed: bool, dest_kw: dict,
                               base: int) -> None:
        """Read protection (extension): sandbox load addresses exactly
        like store addresses.  sp-relative small offsets stay exempt."""
        offset = 0 if indexed else instr.imm
        index = self.r(instr.rt) if indexed else None
        plain_op = instr.op[:-1] if indexed else instr.op
        indexed_op = instr.op if indexed else instr.op + "x"
        sp_safe = (not indexed and instr.rs == 15
                   and -32768 <= offset <= 32767)
        if sp_safe:
            self.emit(plain_op, rs=base, imm=s32(offset), **dest_kw)
            return
        if not indexed and offset and not self.spec.fits_imm(offset):
            at = self.mat_extra_imm(offset)
            self.emit("add", rd=self.at, rs=base, rt=at, category="addr")
            base, offset = self.at, 0
        prefix, new_base, new_off, new_index = sandbox_store_address(
            self.spec, self.policy, base, offset, index, self._omni_addr
        )
        self.out.extend(prefix)
        if new_index is not None:
            self.emit(indexed_op, rs=new_base, rt=new_index, **dest_kw)
        else:
            self.emit(plain_op, rs=new_base, imm=new_off, **dest_kw)

    def expand_store(self, instr: VMInstr) -> None:
        spec = self.spec
        op = instr.op
        is_fp = op.startswith("sf")
        indexed = op.endswith("x")
        value_kw = ({"ft": self.f(instr.ft)} if is_fp
                    else {"rt": self.r(instr.rt)})
        base = self.r(instr.rs)
        index = self.r(instr.rd) if indexed else None
        offset = 0 if indexed else instr.imm
        plain_op = op[:-1] if indexed else op
        indexed_op = op if indexed else op + "x"

        # Stack-pointer-relative stores with small offsets are provably
        # safe (Wahbe et al.'s dedicated-register optimization): sp is
        # kept inside the sandbox by construction — the verifier rejects
        # modules that modify sp other than by small constants — and the
        # unmapped guard zones around the stack contain small-offset
        # excursions.  These stores need no sandboxing sequence.
        sp_safe = (
            not indexed
            and instr.rs == 15  # OmniVM sp
            and -32768 <= offset <= 32767
        )
        if self.options.sfi and not sp_safe:
            # Fold unfittable offsets into the base first.
            if not indexed and offset and not spec.fits_imm(offset):
                at = self.mat_extra_imm(offset)
                self.emit("add", rd=self.at, rs=base, rt=at, category="addr")
                base, offset = self.at, 0
            prefix, new_base, new_off, new_index = sandbox_store_address(
                spec, self.policy, base, offset, index, self._omni_addr
            )
            self.out.extend(prefix)
            if new_index is not None:
                if is_fp:
                    self.emit(indexed_op, rs=new_base, rd=new_index,
                              **value_kw)
                else:
                    self.emit(indexed_op, rs=new_base, rd=new_index,
                              **value_kw)
            else:
                self.emit(plain_op, rs=new_base, imm=new_off, **value_kw)
            return
        # No SFI: same addressing logic as loads.
        if indexed:
            if spec.has_indexed_mem:
                self.emit(indexed_op, rs=base, rd=index, **value_kw)
            else:
                self.emit("add", rd=self.at, rs=base, rt=index,
                          category="addr")
                self.emit(plain_op, rs=self.at, imm=0, **value_kw)
            return
        if spec.fits_imm(offset):
            self.emit(plain_op, rs=base, imm=s32(offset), **value_kw)
            return
        self.emit("lui", rd=self.at, imm=(u32(offset) >> 16) & 0xFFFF,
                  category="addr")
        self.emit("add", rd=self.at, rs=self.at, rt=base, category="addr")
        low = s32(u32(offset) & 0xFFFF if u32(offset) & 0x8000 == 0
                  else (u32(offset) & 0xFFFF) - 0x10000)
        self.emit(plain_op, rs=self.at, imm=low, **value_kw)

    # FP --------------------------------------------------------------------------

    def expand_falu(self, instr: VMInstr) -> None:
        fmt = instr.spec.fmt
        kwargs = {"fd": self.f(instr.fd), "fs": self.f(instr.fs)}
        if "T" in fmt:
            kwargs["ft"] = self.f(instr.ft)
        self.emit(instr.op, **kwargs)

    def expand_fcmp(self, instr: VMInstr, next_instr: VMInstr | None) -> bool:
        """FP compare to register; fuses with an immediately following
        branch-on-zero of the same register (peephole).

        The fused form still writes the compare result to ``rd`` — the
        destination is architecturally live after the branch — but the
        branch itself reuses the FP condition code instead of
        re-comparing ``rd`` against zero, which is where the fusion wins.
        """
        base = instr.op[:-1]
        single = instr.op.endswith("s")
        pred = _FCMP_PRED[base]
        if (
            next_instr is not None
            and next_instr.op in ("bnei", "beqi")
            and next_instr.rs == instr.rd
            and next_instr.imm2 == 0
        ):
            branch_pred = pred if next_instr.op == "bnei" else _NEG_PRED[pred]
            self.emit_fp_setcc(self.r(instr.rd), pred, self.f(instr.fs),
                               self.f(instr.ft), single)
            self.emit("fbcc", pred=branch_pred, target=u32(next_instr.imm))
            return True
        self.emit_fp_setcc(self.r(instr.rd), pred, self.f(instr.fs),
                           self.f(instr.ft), single)
        return False

    # control ---------------------------------------------------------------------

    def expand_indirect(self, instr: VMInstr, omni_addr: int) -> None:
        target = self.r(instr.rs)
        if self.options.sfi:
            prefix, target = sandbox_jump_target(
                self.spec, self.policy, target, omni_addr
            )
            self.out.extend(prefix)
        if instr.op == "jr":
            self.emit("jr", rs=target)
        else:
            self.emit("jalr", rs=target, imm=omni_addr + 8)
