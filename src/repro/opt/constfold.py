"""Constant folding and algebraic simplification.

Folds ``bin``/``cmp``/``cast`` instructions whose operands are constants
into ``copy const``, and applies identity simplifications (``x+0``,
``x*1``, ``x&x`` ...).  Branch folding (``br`` on constants) lives here
too, since it uses the same evaluator.

All arithmetic is performed with the exact 32-bit two's-complement /
IEEE-754 semantics of the simulators, so folding never changes observable
behaviour — a property the test suite checks with hypothesis.
"""

from __future__ import annotations

from repro.ir.ir import Const, Function, Instr, Operand, is_signed
from repro.omnivm import semantics
from repro.utils.bits import (
    add32,
    div32,
    divu32,
    mul32,
    rem32,
    remu32,
    round_f32,
    s32,
    sll32,
    sra32,
    srl32,
    sub32,
    u32,
)


def _as_int(const: Const) -> int:
    return u32(int(const.value))


def eval_binop(subop: str, a: Const, b: Const, ty: str) -> Const | None:
    """Evaluate a binary operation over constants; None if it would trap."""
    if ty in ("f32", "f64"):
        x, y = float(a.value), float(b.value)
        try:
            if subop == "add":
                r = x + y
            elif subop == "sub":
                r = x - y
            elif subop == "mul":
                r = x * y
            elif subop == "div":
                if y == 0.0:
                    return None
                r = x / y
            else:
                return None
        except (OverflowError, ValueError):
            return None
        if ty == "f32":
            r = round_f32(r)
        return Const(r, ty)
    x, y = _as_int(a), _as_int(b)
    signed = is_signed(ty)
    try:
        if subop == "add":
            r = add32(x, y)
        elif subop == "sub":
            r = sub32(x, y)
        elif subop == "mul":
            r = mul32(x, y)
        elif subop == "div":
            r = div32(x, y) if signed else divu32(x, y)
        elif subop == "rem":
            r = rem32(x, y) if signed else remu32(x, y)
        elif subop == "and":
            r = x & y
        elif subop == "or":
            r = x | y
        elif subop == "xor":
            r = x ^ y
        elif subop == "shl":
            r = sll32(x, y)
        elif subop == "shr":
            r = sra32(x, y) if signed else srl32(x, y)
        else:
            return None
    except ZeroDivisionError:
        return None
    value = s32(r) if signed else u32(r)
    return Const(value, ty)


def eval_cmp(pred: str, a: Const, b: Const, cmp_ty: str) -> Const | None:
    if cmp_ty in ("f32", "f64"):
        x, y = float(a.value), float(b.value)
    elif is_signed(cmp_ty):
        x, y = s32(_as_int(a)), s32(_as_int(b))
    else:
        x, y = _as_int(a), _as_int(b)
    table = {
        "eq": x == y,
        "ne": x != y,
        "lt": x < y,
        "le": x <= y,
        "gt": x > y,
        "ge": x >= y,
    }
    if pred not in table:
        return None
    return Const(1 if table[pred] else 0, "i32")


def eval_cast(subop: str, value: Const, dest_ty: str) -> Const | None:
    try:
        if subop == "bitcast":
            if dest_ty in ("i32", "u32"):
                raw = u32(int(value.value))
                return Const(s32(raw) if dest_ty == "i32" else raw, dest_ty)
            return Const(value.value, dest_ty)
        if subop in ("i2f", "u2f"):
            raw = u32(int(value.value))
            as_int = s32(raw) if subop == "i2f" else raw
            result = float(as_int)
            if dest_ty == "f32":
                result = round_f32(result)
            return Const(result, dest_ty)
        if subop == "f2i":
            # Same clamp path as the runtime (repro.omnivm.semantics), so
            # folding cannot change what an out-of-range cast produces.
            if dest_ty == "i32":
                return Const(s32(semantics.f_to_i32(float(value.value))),
                             dest_ty)
            return Const(semantics.f_to_u32(float(value.value)), dest_ty)
        if subop == "fext":
            return Const(float(value.value), "f64")
        if subop == "ftrunc":
            return Const(round_f32(float(value.value)), "f32")
        if subop in ("sext8", "sext16", "zext8", "zext16"):
            raw = u32(int(value.value))
            bits = 8 if subop.endswith("8") else 16
            mask = (1 << bits) - 1
            raw &= mask
            if subop.startswith("sext") and raw & (1 << (bits - 1)):
                raw -= 1 << bits
            raw_norm = s32(raw) if dest_ty == "i32" else u32(raw)
            return Const(raw_norm, dest_ty)
    except (OverflowError, ValueError):
        return None
    return None


def _is_zero(op: Operand) -> bool:
    return isinstance(op, Const) and op.ty not in ("f32", "f64") and int(op.value) == 0


def _is_int_const(op: Operand, value: int) -> bool:
    return (
        isinstance(op, Const)
        and op.ty not in ("f32", "f64")
        and u32(int(op.value)) == u32(value)
    )


def _simplify_identity(instr: Instr) -> Operand | None:
    """Return a replacement operand if the bin op is an identity."""
    subop = instr.subop
    a, b = instr.args
    ty = instr.dest.ty
    if ty in ("f32", "f64"):
        return None  # -0.0 / NaN make float identities unsafe
    if a.__class__ is not Const and b.__class__ is not Const:
        return None  # every identity below has a constant operand
    if subop == "add":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return b
    elif subop == "sub":
        if _is_zero(b):
            return a
    elif subop == "mul":
        if _is_int_const(b, 1):
            return a
        if _is_int_const(a, 1):
            return b
        if _is_zero(a) or _is_zero(b):
            return Const(0, ty)
    elif subop == "div":
        if _is_int_const(b, 1):
            return a
    elif subop in ("and",):
        if _is_int_const(b, 0xFFFFFFFF):
            return a
        if _is_int_const(a, 0xFFFFFFFF):
            return b
        if _is_zero(a) or _is_zero(b):
            return Const(0, ty)
    elif subop in ("or", "xor"):
        if _is_zero(b):
            return a
        if _is_zero(a):
            return b
    elif subop in ("shl", "shr"):
        if _is_zero(b):
            return a
    return None


_FOLDABLE = frozenset(("bin", "cmp", "cast"))


def fold_function(func: Function) -> int:
    """Fold constants in place; returns the number of changes made."""
    changes = 0
    for block in func.blocks:
        instrs = block.instrs
        for index, instr in enumerate(instrs):
            if instr.op in _FOLDABLE:
                folded = _fold_instr(instr)
                if folded is not instr:
                    changes += 1
                    instrs[index] = folded
        term = block.terminator
        if term is not None and term.op == "br":
            a, b = term.args
            if isinstance(a, Const) and isinstance(b, Const):
                result = eval_cmp(term.subop, a, b, term.cmp_ty)
                if result is not None:
                    taken = term.targets[0] if result.value else term.targets[1]
                    block.terminator = Instr("jump", targets=[taken])
                    changes += 1
            elif term.targets[0] == term.targets[1]:
                block.terminator = Instr("jump", targets=[term.targets[0]])
                changes += 1
    return changes


def _fold_instr(instr: Instr) -> Instr:
    if instr.op == "bin":
        a, b = instr.args
        if isinstance(a, Const) and isinstance(b, Const):
            result = eval_binop(instr.subop, a, b, instr.dest.ty)
            if result is not None:
                return Instr("copy", instr.dest, [result])
        replacement = _simplify_identity(instr)
        if replacement is not None:
            return Instr("copy", instr.dest, [replacement])
        # Canonicalize constant to the right for commutative ops, which
        # helps CSE and lets back ends use immediate forms.  A new
        # instruction, so the swap counts as a change like any other.
        if instr.subop in ("add", "mul", "and", "or", "xor") and isinstance(
            a, Const
        ) and not isinstance(b, Const):
            return Instr("bin", instr.dest, [b, a], subop=instr.subop)
        return instr
    if instr.op == "cmp":
        a, b = instr.args
        if isinstance(a, Const) and isinstance(b, Const):
            result = eval_cmp(instr.subop, a, b, instr.cmp_ty)
            if result is not None:
                return Instr("copy", instr.dest, [result])
        return instr
    if instr.op == "cast":
        (a,) = instr.args
        if isinstance(a, Const):
            result = eval_cast(instr.subop, a, instr.dest.ty)
            if result is not None:
                return Instr("copy", instr.dest, [result])
        return instr
    return instr


def run(func: Function) -> int:
    return fold_function(func)
