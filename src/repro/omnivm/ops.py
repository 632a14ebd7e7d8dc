"""The OmniVM op table: one statement of every opcode's semantics.

Each opcode of :data:`repro.omnivm.isa.SPECS` is either an entry of
:data:`OPS` — a straight-line statement or a compare-and-branch
predicate, with its fault class (see :mod:`repro.optable`) — or one of
the control transfers named in :data:`TERMINATORS`, which the tiers
dispatch themselves.  The threaded closures of
:mod:`repro.omnivm.threaded` and the superblock source of
:mod:`repro.omnivm.jit` are both generated from :data:`TABLE`; the
reference interpreter (:mod:`repro.omnivm.interp`) is the separately
written oracle they are tested against.

Operand fields: those of :func:`repro.optable.common_ops`, plus
``immx`` (``u32(imm)`` biased by ``0x80000000``: a signed compare is an
unsigned one on biased operands, so no sign extension is needed),
``imm2u``/``imm2x`` (the same for a branch's compare constant),
``target`` (``u32(imm)``) and ``next`` (the fall-through pc).
"""

from __future__ import annotations

from repro.omnivm.isa import BRANCH_PREDS, SET_PREDS
from repro.optable import (
    CMP,
    CMP_INV,
    COMMON_FIELDS,
    S32_WIDE,
    Op,
    OpTable,
    common_ops,
    cond,
)

FIELDS = {
    **COMMON_FIELDS,
    "immx": "({i}.imm & 0xffffffff) ^ 0x80000000",
    "imm2u": "{i}.imm2 & 0xffffffff",
    "imm2x": "({i}.imm2 & 0xffffffff) ^ 0x80000000",
    "target": "{i}.imm & 0xffffffff",
    "next": "{at} + 8",
}

#: Control transfers the tiers dispatch themselves.
TERMINATORS = frozenset(("j", "jal", "jr", "jalr", "hostcall"))

def _operands(pred, signed, imm):
    """Left, register-right and immediate-right operands of a compare
    with constant field *imm*: a signed order compares operands biased
    by ``0x80000000`` as unsigned ones."""
    if signed and pred not in ("eq", "ne"):
        return ("(regs[{rs}] ^ 0x80000000)", "(regs[{rt}] ^ 0x80000000)",
                "{" + imm + "x}")
    return "regs[{rs}]", "regs[{rt}]", "{" + imm + "u}"


def _ops() -> dict[str, Op]:
    ops = common_ops()
    ops.update({
        "sra": Op(S32_WIDE + "regs[{rd}] = (_a >> (regs[{rt}] & 31)) "
                  "& 0xffffffff"),
        "srai": Op(S32_WIDE + "regs[{rd}] = (_a >> {sh}) & 0xffffffff"),
        "muli": Op("regs[{rd}] = (regs[{rs}] * {immu}) & 0xffffffff"),
        "sethnd": Op("state.handler = regs[{rs}]"),
    })
    for name, (pred, signed) in SET_PREDS.items():
        a, b, c = _operands(pred, signed, "imm")
        for op, rhs in ((name, b), (name + "i", c)):
            ops[op] = Op(f"regs[{{rd}}] = 1 if {a} {CMP[pred]} {rhs} else 0")
    for name, (pred, signed) in BRANCH_PREDS.items():
        a, b, c = _operands(pred, signed, "imm2")
        for op, rhs in ((name, b), (name + "i", c)):
            ops[op] = cond(f"{a} {CMP[pred]} {rhs}",
                           f"{a} {CMP[CMP_INV[pred]]} {rhs}")
    return ops


OPS: dict[str, Op] = _ops()
TABLE = OpTable(OPS, FIELDS)


def fold_branch(instr):
    """Outcome of a compare-immediate branch whose constant lies outside
    the operand domain — ``True``/``False`` for always/never taken —
    else ``None`` (the predicate templates assume an in-domain
    constant)."""
    if not instr.op.endswith("i") or instr.op[:-1] not in BRANCH_PREDS:
        return None
    pred, signed = BRANCH_PREDS[instr.op[:-1]]
    b = instr.imm2 if signed else instr.imm2 & 0xFFFFFFFF
    lo, hi = (-(1 << 31), 1 << 31) if signed else (0, 1 << 32)
    if lo <= b < hi:
        return None
    if pred == "eq":
        return False
    if pred == "ne":
        return True
    # Ordered compare against an out-of-domain constant: every operand
    # value is on the same side of it.
    if b >= hi:
        return pred in ("lt", "le")
    return pred in ("gt", "ge")
