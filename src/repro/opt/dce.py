"""Dead code elimination.

Removes pure instructions (and loads) whose results are never used.  A
temp is *live* if it feeds a side-effecting instruction, a terminator, or
an instruction that defines a live temp.  One backward worklist over a
map from each temp to its removable definitions computes that least
fixed point in time linear in the function, so chains of dead
computations disappear in one pass invocation.
"""

from __future__ import annotations

from repro.ir.ir import Function, Instr, Temp
from repro.opt.common import PURE_OPS

# Pure instructions plus loads: removable when their result is dead.  A
# load from a dead address is removable too: our segmented memory model
# has no volatile locations, and any faulting address would equally have
# faulted in the unoptimized program only if the value were used.
_REMOVABLE = PURE_OPS | {"load"}


def run(func: Function) -> int:
    defs: dict[Temp | None, list[Instr]] = {}  # temp -> its removable defs
    roots: list = []  # operands of the instructions that must stay
    for block in func.blocks:
        for instr in block.instrs:
            if instr.op in _REMOVABLE:
                found = defs.get(instr.dest)
                if found is None:
                    defs[instr.dest] = [instr]
                else:
                    found.append(instr)
            else:
                roots.extend(instr.args)
        if block.terminator is not None:
            roots.extend(block.terminator.args)
    live = {a for a in roots if a.__class__ is Temp}
    work = list(live)
    while work:
        for instr in defs.get(work.pop(), ()):
            for arg in instr.args:
                if arg.__class__ is Temp and arg not in live:
                    live.add(arg)
                    work.append(arg)
    dead = {id(instr) for temp, found in defs.items() if temp not in live
            for instr in found}
    if dead:
        for block in func.blocks:
            block.instrs = [instr for instr in block.instrs if id(instr) not in dead]
    return len(dead)
