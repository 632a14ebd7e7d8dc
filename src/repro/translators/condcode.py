"""OmniVM → condition-code targets: PowerPC 601, SPARC and x86.

All three compare into a condition register first (``cmp``/``cmpi``,
category ``cmp``) and then branch or set on it (``bcc``/``setcc``); the
immediate width of the target (:attr:`TargetSpec.imm_bits`) decides when
a constant must first be materialized (category ``ldi``).

* **PowerPC 601**: every conditional branch needs that explicit
  ``cmpw``/``cmpwi`` — the dominant expansion the paper measures on the
  PPC.  Constants usually fit ``cmpwi``'s 16-bit immediate (so
  ``eqntott``'s compare-vs-constant pattern costs ``cmp`` but not
  ``ldi``, unlike MIPS).  Indexed loads/stores map 1:1 and the SFI
  sequence uses the indexed store through the segment-base register.
* **SPARC** (``subcc`` + ``bcc``) has only 13-bit immediates, so more
  constants spill into ``sethi``/``or`` pairs.  What keeps SPARC
  competitive (the paper's best SFI ratio, 1.05) is the **global
  pointer**: the translator addresses globals near ``%g5`` with a single
  add, and resolved-at-link symbols mean the gp never needs
  saving/restoring across calls.
* **x86** immediates are full 32-bit, so its compares never pay ``ldi``;
  :mod:`repro.translators.x86` adds only the two-operand ALU forms.
"""

from __future__ import annotations

from repro.translators.generic import GenericRISCTranslator
from repro.utils.bits import s32


class ConditionCodeTranslator(GenericRISCTranslator):
    """Expansion rules for the compare-then-branch targets."""

    def _compare(self, a_reg: int, b_reg: int | None, imm: int) -> None:
        if b_reg is not None:
            self.emit("cmp", rs=a_reg, rt=b_reg, category="cmp")
        elif self.spec.fits_imm(imm):
            self.emit("cmpi", rs=a_reg, imm=s32(imm), category="cmp")
        else:
            at = self.mat_extra_imm(imm)
            self.emit("cmp", rs=a_reg, rt=at, category="cmp")

    def emit_branch(self, pred: str, a_reg: int, b_reg: int | None,
                    imm: int, target_omni: int) -> None:
        self._compare(a_reg, b_reg, imm)
        self.emit("bcc", pred=pred, target=target_omni)

    def emit_setcc(self, dest: int, pred: str, a_reg: int,
                   b_reg: int | None, imm: int) -> None:
        self._compare(a_reg, b_reg, imm)
        self.emit("setcc", rd=dest, pred=pred, category="cmp")
