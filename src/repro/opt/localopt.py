"""Local (per-basic-block) forward optimizations.

Two classic passes share the forward-scan machinery:

* **Copy / constant propagation** — replaces uses of a temp with its known
  copy source or constant value while the binding is valid (invalidated as
  soon as either side is redefined).
* **Common subexpression elimination by local value numbering** — reuses
  the result of an identical pure computation (``bin``/``cmp``/``cast``/
  ``frameaddr``) earlier in the same block.  Loads participate too, with a
  memory generation counter that any store or call bumps, so a load is
  only reused while memory provably hasn't changed.

Temps assigned exactly once in the whole function additionally propagate
*globally* (their binding can never be invalidated), which is what lets
address computations feed cleanly into LICM and the back ends.

Both passes are linear in the size of a block: a redefinition touches
only the bindings a reverse index names for the redefined temp, and a
value number is checked against the latest definitions of its temps
when it is looked up.
"""

from __future__ import annotations

from repro.ir.ir import Const, Function, GlobalRef, Instr, Operand, Temp
from repro.opt.common import definition_counts


def propagate_copies(func: Function) -> int:
    """Copy/constant propagation; returns number of operand replacements."""
    changes = 0

    # Global bindings: temps defined exactly once by a copy of a constant
    # or global address are safe to substitute everywhere.
    global_binding: dict[Temp, Operand] = {}
    constants = [instr for block in func.blocks for instr in block.instrs
                 if instr.op == "copy" and instr.dest is not None
                 and isinstance(instr.args[0], (Const, GlobalRef))]
    if constants:
        def_counts = definition_counts(func)
        for instr in constants:
            if def_counts[instr.dest] == 1:
                global_binding[instr.dest] = instr.args[0]

    for block in func.blocks:
        instrs = block.all_instrs()
        start = 0
        if not global_binding:
            # Bindings start at the block's first copy; nothing before it
            # can change.
            for start, instr in enumerate(instrs):
                if instr.op == "copy":
                    break
            else:
                continue
        local: dict[Temp, Operand] = {}
        # temp -> the temps whose local binding named it when it was made
        # (an entry goes stale when that binding is replaced; a kill
        # re-checks it).
        named_by: dict[Temp, list[Temp]] = {}
        for instr in instrs[start:]:
            args = instr.args
            if local or global_binding:
                for arg in args:
                    if arg.__class__ is Temp and (arg in local or arg in global_binding):
                        args = []
                        for operand in instr.args:
                            operand, hops = _resolve(operand, local, global_binding)
                            args.append(operand)
                            changes += hops
                        instr.args = args
                        break
            dest = instr.dest
            if dest is not None:
                # Redefinition kills bindings of dest and bindings to dest.
                if local:
                    local.pop(dest, None)
                    for key in named_by.pop(dest, ()):
                        if local.get(key) == dest:
                            del local[key]
                if instr.op == "copy":
                    source = args[0]
                    if source.__class__ is Temp:
                        if source != dest:
                            local[dest] = source
                            named_by.setdefault(source, []).append(dest)
                    elif isinstance(source, (Const, GlobalRef)):
                        local[dest] = source
    return changes


def _resolve(op: Operand, local: dict, global_binding: dict) -> tuple[Operand, int]:
    """Follow the bindings from *op*; returns the operand reached and the
    number of bindings followed."""
    hops = 0
    seen: set[Temp] = set()
    while op.__class__ is Temp:
        if op in seen:
            break
        seen.add(op)
        bound = local.get(op) or global_binding.get(op)
        if bound is None:
            break
        op = bound
        hops += 1
    return op, hops


# Instructions with a value number: the pure ones and loads.
_KEYED = frozenset(("bin", "cmp", "cast", "frameaddr", "load"))
# Instructions that may write memory: each starts a new memory generation.
_MEMORY_EFFECTS = frozenset(("store", "call", "icall", "hostcall"))
_COMMUTATIVE = ("add", "mul", "and", "or", "xor")


def _value_key(instr: Instr, memory_gen: int) -> tuple | None:
    # Temps stand for themselves; constants and globals compare by their
    # printed form, so 0.0 and -0.0 (equal as floats) stay distinct.
    op = instr.op
    args = instr.args
    if op == "bin":
        a, b = args
        operands = (a if a.__class__ is Temp else str(a),
                    b if b.__class__ is Temp else str(b))
        if instr.subop in _COMMUTATIVE:
            # Commutative ops: operand order does not matter.  A pair is
            # determined by its set of members, so a frozenset is exact.
            operands = frozenset(operands)
        return ("bin", instr.subop, instr.dest.ty, operands)
    if op == "cmp":
        return ("cmp", instr.subop, instr.cmp_ty,
                tuple(a if a.__class__ is Temp else str(a) for a in args))
    if op == "cast":
        a = args[0]
        return ("cast", instr.subop, instr.dest.ty, a if a.__class__ is Temp else str(a))
    if op == "frameaddr":
        return ("frameaddr", instr.slot)
    if op == "load":
        a = args[0]
        return ("load", instr.mem_ty, a if a.__class__ is Temp else str(a), memory_gen)
    return None


def local_cse(func: Function) -> int:
    """Local value numbering; returns the number of reused computations.

    A value number stays valid until its result temp or one of its
    operand temps is redefined.  Every entry remembers the position of
    the instruction that made it, and a lookup checks that position
    against the latest definitions of the temps involved."""
    changes = 0
    for block in func.blocks:
        # key -> (result temp, position made at, operands)
        available: dict[tuple, tuple[Temp, int, list]] = {}
        defined: dict[Temp, int] = {}  # temp -> position of its latest def
        memory_gen = 0
        rewritten: list[Instr] = []
        for position, instr in enumerate(block.instrs):
            op = instr.op
            key = None
            if op in _KEYED:
                key = _value_key(instr, memory_gen)
            elif op in _MEMORY_EFFECTS:
                memory_gen += 1
            dest = instr.dest
            if key is not None:
                entry = available.get(key)
                if entry is not None:
                    prior, made, operands = entry
                    if (prior.ty == dest.ty and defined[prior] == made
                            and not any(a.__class__ is Temp and defined.get(a, -1) >= made
                                        for a in operands)):
                        rewritten.append(Instr("copy", dest, [prior]))
                        changes += 1
                        defined[dest] = position
                        continue
            if dest is not None:
                defined[dest] = position
                if key is not None:
                    available[key] = (dest, position, instr.args)
            rewritten.append(instr)
        block.instrs = rewritten
    return changes


def run(func: Function) -> int:
    return propagate_copies(func) + local_cse(func)
