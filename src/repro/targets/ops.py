"""The native op table: one statement of every union-vocabulary op.

Each op :meth:`repro.targets.base.TargetMachine.execute` implements is
either an entry of :data:`OPS` — a straight-line statement or a
conditional-branch predicate, with its fault class (see
:mod:`repro.optable`) — or one of the control transfers named in
:data:`TERMINATORS`, which the tiers dispatch themselves.  The threaded
closures of :mod:`repro.targets.threaded` and the superblock source of
:mod:`repro.targets.jit` are both generated from :data:`TABLE`;
``TargetMachine.execute`` is the separately written oracle they are
tested against.  Cycle accounting is not part of an op's statement:
the tiers charge it around the statement.

Operand fields: those of :func:`repro.optable.common_ops`, plus
``simm`` (``s32(u32(imm))``), ``lui`` (``u32(imm) << 16``, not
re-masked, as the oracle does) and ``target`` (the native branch
target).  The condition codes are the tier names ``{ccs}`` (signed
three-way compare result) and ``{ccu}`` (unsigned); ``{cc}``/``{ncc}``
are code fields, the condition-code predicate named by the
instruction's ``pred`` and its negation.
"""

from __future__ import annotations

from repro.optable import (
    CMP,
    CMP_INV,
    COMMON_FIELDS,
    Op,
    OpTable,
    common_ops,
    cond,
)

FIELDS = {
    **COMMON_FIELDS,
    "simm": "(({i}.imm & 0xffffffff) ^ 0x80000000) - 0x80000000",
    "lui": "({i}.imm & 0xffffffff) << 16",
    "target": "{i}.target",
}

#: Control transfers the tiers dispatch themselves.
TERMINATORS = frozenset(("j", "jal", "jr", "jalr", "hostcall"))

def _cc_preds(invert):
    """Condition-code predicates (or their negations) by ``pred``; the
    ``u``-suffixed ones read the unsigned result."""
    preds = {}
    for pred in CMP:
        test = CMP[CMP_INV[pred] if invert else pred]
        preds[pred] = f"{{ccs}} {test} 0"
        if pred not in ("eq", "ne"):
            preds[pred + "u"] = f"{{ccu}} {test} 0"
    return preds


#: Sign-extend the locals ``_a`` / ``_b`` in place.
_SIGN_A = "if _a & 0x80000000:\n    _a -= 0x100000000\n"
_SIGN_B = "if _b & 0x80000000:\n    _b -= 0x100000000\n"
_READ_A = "_a = regs[{rs}]\n"
_READ_AB = "_a = regs[{rs}]\n_b = regs[{rt}]\n"


def _ops() -> dict[str, Op]:
    ops = common_ops()
    ops.update({
        "nor": Op("regs[{rd}] = (~(regs[{rs}] | regs[{rt}])) & 0xffffffff"),
        "sra": Op(_READ_A + _SIGN_A
                  + "regs[{rd}] = (_a >> (regs[{rt}] & 31)) & 0xffffffff"),
        "srai": Op(_READ_A + _SIGN_A
                   + "regs[{rd}] = (_a >> {sh}) & 0xffffffff"),
        "lui": Op("regs[{rd}] = {lui}"),
        "slt": Op(_READ_AB + _SIGN_A + _SIGN_B
                  + "regs[{rd}] = 1 if _a < _b else 0"),
        "sltu": Op("regs[{rd}] = 1 if regs[{rs}] < regs[{rt}] else 0"),
        "slti": Op(_READ_A + _SIGN_A + "regs[{rd}] = 1 if _a < {simm} else 0"),
        "sltiu": Op("regs[{rd}] = 1 if regs[{rs}] < {immu} else 0"),
        "cmp": Op(_READ_AB + "{ccu} = (_a > _b) - (_a < _b)\n"
                  + _SIGN_A + _SIGN_B + "{ccs} = (_a > _b) - (_a < _b)"),
        "cmpi": Op(_READ_A + "{ccu} = (_a > {immu}) - (_a < {immu})\n"
                   + _SIGN_A + "{ccs} = (_a > {simm}) - (_a < {simm})"),
        "setcc": Op("regs[{rd}] = 1 if {cc} else 0"),
        "fcmp": Op("_a = fregs[{fs}]\n_b = fregs[{ft}]\n"
                   "{ccs} = (_a > _b) - (_a < _b)\n{ccu} = {ccs}"),
        "sethnd": Op("m.handler_omni = regs[{rs}]"),
        "beq": cond("regs[{rs}] == regs[{rt}]", "regs[{rs}] != regs[{rt}]"),
        "bne": cond("regs[{rs}] != regs[{rt}]", "regs[{rs}] == regs[{rt}]"),
        # Signed compares against zero are sign-bit tests on the raw u32.
        "bltz": cond("regs[{rs}] >= 0x80000000", "regs[{rs}] < 0x80000000"),
        "bgez": cond("regs[{rs}] < 0x80000000", "regs[{rs}] >= 0x80000000"),
        "blez": cond("(regs[{rs}] == 0 or regs[{rs}] >= 0x80000000)",
                     "0 < regs[{rs}] < 0x80000000"),
        "bgtz": cond("0 < regs[{rs}] < 0x80000000",
                     "(regs[{rs}] == 0 or regs[{rs}] >= 0x80000000)"),
        "bcc": cond("{cc}", "{ncc}"),
        "fbcc": cond("{cc}", "{ncc}"),
    })
    ops["subcc"] = ops["cmp"]
    ops["fcmps"] = ops["fcmp"]
    return ops


OPS: dict[str, Op] = _ops()
TABLE = OpTable(
    OPS, FIELDS,
    tier_names={"ccs": ("m.cc", "_ccs"), "ccu": ("m.cc_unsigned", "_ccu")},
    code={"cc": ("pred", _cc_preds(False)), "ncc": ("pred", _cc_preds(True))},
)
