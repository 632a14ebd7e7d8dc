"""Loop-invariant code motion.

Hoists pure, non-trapping instructions (address arithmetic, casts,
``frameaddr``, comparisons) out of natural loops into a freshly created
preheader block.  The paper calls out exactly this optimization class:
because OmniVM exposes data layout as explicit address arithmetic, the
*compiler* can move the invariant parts of array-index computations out of
loops before the module ever reaches a translator.

Correctness conditions on the non-SSA IR, checked per candidate:

* the instruction is pure (no loads, stores, calls, possible traps);
* every temp operand has **no definitions inside the loop**;
* the destination temp is defined exactly **once in the entire function**
  (so hoisting cannot change which definition reaches any use).

Because hoisted instructions are speculatable (pure and non-trapping),
they may execute even when the loop body would not have — that is safe.
"""

from __future__ import annotations

from repro.ir.ir import BasicBlock, Function, Instr, Temp
from repro.ir.cfg import natural_loops, predecessors
from repro.opt.common import definition_counts, defs_in_blocks


def run(func: Function) -> int:
    hoisted_total = 0
    # Recompute loops after each hoist batch: preheader insertion changes
    # the CFG.  Loop until no loop yields further motion.
    progress = True
    while progress:
        progress = False
        loops = natural_loops(func)
        def_counts = definition_counts(func)
        for loop in loops:
            hoisted = _hoist_from_loop(func, loop.header, loop.body, def_counts)
            if hoisted:
                hoisted_total += hoisted
                progress = True
                break  # CFG changed; recompute loops
    return hoisted_total


def _hoist_from_loop(
    func: Function, header: str, body: set[str], def_counts
) -> int:
    loop_defs = defs_in_blocks(func, body)

    def is_invariant_operand(op) -> bool:
        if isinstance(op, Temp):
            return loop_defs[op] == 0
        return True  # Const / GlobalRef

    candidates: list[tuple[BasicBlock, Instr]] = []
    # Walk the body in function order, never in set order: the order of
    # hoisted instructions shapes register allocation, and a set of
    # labels iterates in an order that follows the string-hash seed.
    for block in func.blocks:
        if block.label not in body:
            continue
        for instr in block.instrs:
            if instr.op not in ("bin", "cmp", "cast", "copy", "frameaddr"):
                continue
            if instr.op == "bin" and instr.subop in ("div", "rem"):
                continue  # may trap; do not speculate
            if instr.dest is None or def_counts[instr.dest] != 1:
                continue
            if not all(is_invariant_operand(a) for a in instr.args):
                continue
            candidates.append((block, instr))

    if not candidates:
        return 0

    preheader = _get_or_create_preheader(func, header, body)
    hoisted = 0
    # Iterate until no more candidates become hoistable (an invariant
    # instruction may depend on another hoisted one).
    moved: set[id] = set()
    changed = True
    while changed:
        changed = False
        loop_defs = defs_in_blocks(func, body)
        for block, instr in candidates:
            if id(instr) in moved:
                continue
            if instr not in block.instrs:
                continue
            if not all(is_invariant_operand(a) for a in instr.args):
                continue
            block.instrs.remove(instr)
            preheader.instrs.append(instr)
            moved.add(id(instr))
            hoisted += 1
            changed = True
    return hoisted


def _get_or_create_preheader(
    func: Function, header: str, body: set[str]
) -> BasicBlock:
    """Return a block that is the unique out-of-loop predecessor of the
    loop header, creating one and rewiring edges if necessary."""
    preds = predecessors(func)
    outside = [p for p in preds[header] if p not in body]
    block_map = func.block_map()
    if len(outside) == 1:
        candidate = block_map[outside[0]]
        term = candidate.terminator
        if term is not None and term.op == "jump" and term.targets == [header]:
            return candidate
    preheader = BasicBlock(f"{header}.pre", [], Instr("jump", targets=[header]))
    for label in outside:
        term = block_map[label].terminator
        if term is not None:
            term.targets = [
                preheader.label if t == header else t for t in term.targets
            ]
    # Insert the preheader just before the header for readable layout.
    index = next(i for i, b in enumerate(func.blocks) if b.label == header)
    func.blocks.insert(index, preheader)
    return preheader
