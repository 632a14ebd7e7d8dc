"""Control-flow graph cleanup.

* removes unreachable blocks,
* forwards jumps through empty blocks (a block containing only ``jump``),
* merges a block into its unique predecessor when that predecessor's only
  successor is the block (straight-line fusion),
* threads branches whose two targets are identical.

Runs to a fixed point; later passes and the back ends rely on the result
being free of trivial chains.
"""

from __future__ import annotations

from repro.ir.ir import Function, Instr
from repro.ir.cfg import predecessors, remove_unreachable


def _forward_empty_blocks(func: Function) -> int:
    """Map labels of empty jump-only blocks to their final destinations."""
    forward: dict[str, str] = {}
    for block in func.blocks:
        if (
            not block.instrs
            and block.terminator is not None
            and block.terminator.op == "jump"
            and block.terminator.targets[0] != block.label
        ):
            forward[block.label] = block.terminator.targets[0]

    def resolve(label: str) -> str:
        seen = set()
        while label in forward and label not in seen:
            seen.add(label)
            label = forward[label]
        return label

    changes = 0
    entry_label = func.entry.label
    for block in func.blocks:
        term = block.terminator
        if term is None:
            continue
        new_targets = [resolve(t) for t in term.targets]
        if new_targets != term.targets:
            term.targets = new_targets
            changes += 1
    # The entry block must stay first even if empty.
    if entry_label in forward:
        forward.pop(entry_label)
    return changes


def _merge_straight_lines(func: Function) -> int:
    changes = 0
    preds = predecessors(func)
    block_map = func.block_map()
    merged: set[str] = set()
    for block in func.blocks:
        if block.label in merged:
            continue
        while True:
            term = block.terminator
            if term is None or term.op != "jump":
                break
            succ_label = term.targets[0]
            if succ_label == block.label or succ_label == func.entry.label:
                break
            if len(preds[succ_label]) != 1:
                break
            succ = block_map[succ_label]
            if succ.label in merged:
                break
            block.instrs.extend(succ.instrs)
            block.terminator = succ.terminator
            merged.add(succ.label)
            # Fix predecessor info for targets of the absorbed block.
            for target in succ.successors():
                preds[target] = [
                    block.label if p == succ.label else p for p in preds[target]
                ]
            changes += 1
    if merged:
        func.blocks = [b for b in func.blocks if b.label not in merged]
    return changes


def run(func: Function) -> int:
    total = 0
    while True:
        changes = 0
        for block in func.blocks:
            term = block.terminator
            if term is not None and term.op == "br" and term.targets[0] == term.targets[1]:
                block.terminator = Instr("jump", targets=[term.targets[0]])
                changes += 1
        changes += _forward_empty_blocks(func)
        changes += remove_unreachable(func)
        # Merging a block into its only predecessor keeps every block
        # reachable, so no second sweep is needed after it.
        changes += _merge_straight_lines(func)
        total += changes
        if changes == 0:
            return total
