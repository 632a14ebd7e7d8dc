"""OmniVM → x86 (Pentium) translation.

Two mechanical differences from the RISC targets:

* x86 ALU instructions are **two-operand** (``dst op= src``): the
  translator inserts a ``mov`` when the OmniVM destination differs from
  its first source (category ``twoop``), exploiting commutativity where
  possible;
* there are **no dedicated SFI registers** — the sandbox masks are 32-bit
  immediates, and ``ebp`` serves as the single address scratch.

Immediates are full 32-bit, so x86 never pays ``ldi`` expansion, and its
``cmp`` instructions take immediates directly — x86's compact translated
code is why its mobile ratios in Table 3 track native so closely despite
the tiny register file.  Compares and branches are those of every
condition-code target (:mod:`repro.translators.condcode`).
"""

from __future__ import annotations

from repro.translators.condcode import ConditionCodeTranslator

_COMMUTATIVE = {"add", "mul", "and", "or", "xor"}


class X86Translator(ConditionCodeTranslator):
    """Expansion rules for the Pentium-class x86 model."""

    def alu_rr(self, op: str, rd: int, rs: int, rt: int) -> None:
        if rd == rs:
            self.emit(op, rd=rd, rs=rd, rt=rt)
            return
        if rd == rt:
            if op in _COMMUTATIVE:
                self.emit(op, rd=rd, rs=rd, rt=rs)
                return
            at = self.at
            self.emit("mov", rd=at, rs=rt, category="twoop")
            self.emit("mov", rd=rd, rs=rs, category="twoop")
            self.emit(op, rd=rd, rs=rd, rt=at)
            return
        self.emit("mov", rd=rd, rs=rs, category="twoop")
        self.emit(op, rd=rd, rs=rd, rt=rt)

    def alu_ri(self, op: str, rd: int, rs: int, imm: int) -> None:
        if rd != rs:
            self.emit("mov", rd=rd, rs=rs, category="twoop")
        self.emit(op, rd=rd, rs=rd, imm=imm)
