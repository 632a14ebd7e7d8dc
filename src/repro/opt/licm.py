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

Loops are visited innermost-first, once each.  A loop is hoisted from
again (what it hoisted may free instructions that depend on it) until it
has nothing left; then the next loop.  A settled loop never regains work:
natural loops with different headers are disjoint or nested, a loop's
preheader lies only in the loops that enclose it (which are larger, so
come later), and an instruction a later, enclosing loop could hoist from
an inner one's body would have been hoistable from the inner loop
already (the conditions are the same and the inner loop defines a subset
of what the outer one does).  The loops, their bodies, the predecessor
map and the definition counts are computed once per run and updated in
place when a preheader is inserted, so each visit costs the size of the
loop's body, not of the function.  Hoisting only moves instructions, so
the definition counts never change.
"""

from __future__ import annotations

from repro.ir.cfg import Loop, natural_loops, predecessors
from repro.ir.ir import BasicBlock, Function, Instr, Temp
from repro.opt.common import PURE_OPS, definition_counts


def run(func: Function) -> int:
    preds = predecessors(func)
    loops = natural_loops(func, preds)
    if not loops:
        return 0
    return _Hoister(func, loops, preds).run()


class _Hoister:
    """The state of one LICM run over *func*."""

    def __init__(self, func: Function, loops: list[Loop],
                 preds: dict[str, list[str]]):
        self.func = func
        self.loops = loops
        self.def_counts = definition_counts(func)
        self.blocks = func.block_map()
        self.preds = preds
        # Function order of the blocks.  A new preheader sorts just before
        # its header; it joins func.blocks only when the run ends.
        self.position: dict[str, float] = {
            b.label: i for i, b in enumerate(func.blocks)}
        self.new_preheaders: dict[str, BasicBlock] = {}
        # label -> the loops whose body contains it; built at the first
        # new preheader (most runs create none).
        self.containing: dict[str, list[Loop]] | None = None

    def run(self) -> int:
        total = 0
        for loop in self.loops:
            while hoisted := self._hoist(loop):
                total += hoisted
        if self.new_preheaders:
            blocks: list[BasicBlock] = []
            for block in self.func.blocks:
                preheader = self.new_preheaders.get(block.label)
                if preheader is not None:
                    blocks.append(preheader)
                blocks.append(block)
            self.func.blocks = blocks
        return total

    def _hoist(self, loop: Loop) -> int:
        """Move the loop's invariant instructions to its preheader; returns
        how many moved."""
        def_counts = self.def_counts
        # Walk the body in function order, never in set order: the order of
        # hoisted instructions shapes register allocation, and a set of
        # labels iterates in an order that follows the string-hash seed.
        body = [self.blocks[label]
                for label in sorted(loop.body, key=self.position.__getitem__)]
        loop_defs: set[Temp] = set()
        movable: list[tuple[BasicBlock, Instr]] = []
        for block in body:
            for instr in block.instrs:
                dest = instr.dest
                if dest is None:
                    continue
                loop_defs.add(dest)
                if (instr.op in PURE_OPS and def_counts[dest] == 1
                        and not (instr.op == "bin" and instr.subop in ("div", "rem"))):
                    movable.append((block, instr))  # div/rem may trap
        candidates: list[Instr] = []
        sources: list[BasicBlock] = []
        for block, instr in movable:
            if any(a.__class__ is Temp and a in loop_defs for a in instr.args):
                continue
            candidates.append(instr)
            if not sources or sources[-1] is not block:
                sources.append(block)
        if not candidates:
            return 0
        preheader = self._preheader(loop)
        moved = set(map(id, candidates))
        for block in sources:
            block.instrs = [i for i in block.instrs if id(i) not in moved]
        preheader.instrs.extend(candidates)
        return len(candidates)

    def _preheader(self, loop: Loop) -> BasicBlock:
        """Return a block that is the unique out-of-loop predecessor of the
        loop header, creating one and rewiring edges if necessary."""
        header = loop.header
        outside = [p for p in self.preds[header] if p not in loop.body]
        if len(outside) == 1:
            candidate = self.blocks[outside[0]]
            term = candidate.terminator
            if term is not None and term.op == "jump" and term.targets == [header]:
                return candidate
        preheader = BasicBlock(f"{header}.pre", [], Instr("jump", targets=[header]))
        label = preheader.label
        for pred in outside:
            term = self.blocks[pred].terminator
            if term is not None:
                term.targets = [label if t == header else t for t in term.targets]
        self.blocks[label] = preheader
        self.position[label] = self.position[header] - 0.5
        self.new_preheaders[header] = preheader
        self.preds[label] = outside
        self.preds[header] = [p for p in self.preds[header] if p in loop.body]
        self.preds[header].append(label)
        # The preheader belongs to every loop that encloses this one.
        if self.containing is None:
            self.containing = {}
            for other in self.loops:
                for member in other.body:
                    self.containing.setdefault(member, []).append(other)
        for other in self.containing[header]:
            if other is not loop:
                other.body.add(label)
        return preheader
