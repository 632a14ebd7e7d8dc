"""Control-flow graph analyses over the IR.

Provides predecessor maps, reverse postorder, iterative dominators, and
natural-loop detection.  These are consumed by the optimizer (LICM needs
loops; DCE and liveness need orderings) and by the register allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ir import BasicBlock, Function


def successors(func: Function) -> dict[str, list[str]]:
    return {b.label: b.successors() for b in func.blocks}


def predecessors(func: Function) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ].append(block.label)
    return preds


def reverse_postorder(func: Function) -> list[str]:
    """Labels in reverse postorder from the entry (unreachable blocks are
    excluded — callers that mutate the function should run
    :func:`remove_unreachable` first)."""
    succ = successors(func)
    visited: set[str] = set()
    order: list[str] = []

    entry = func.entry.label
    # Iterative DFS to avoid recursion limits on long CFGs.
    stack: list[tuple[str, int]] = [(entry, 0)]
    visited.add(entry)
    while stack:
        label, index = stack[-1]
        succs = succ[label]
        if index < len(succs):
            stack[-1] = (label, index + 1)
            child = succs[index]
            if child not in visited:
                visited.add(child)
                stack.append((child, 0))
        else:
            order.append(label)
            stack.pop()
    order.reverse()
    return order


def remove_unreachable(func: Function) -> int:
    """Delete blocks not reachable from the entry; returns removed count."""
    reachable = set(reverse_postorder(func))
    before = len(func.blocks)
    func.blocks = [b for b in func.blocks if b.label in reachable]
    return before - len(func.blocks)


def dominators(func: Function) -> dict[str, set[str]]:
    """Classic iterative dominator sets (adequate for these CFG sizes)."""
    order = reverse_postorder(func)
    preds = predecessors(func)
    entry = func.entry.label
    all_labels = set(order)
    dom: dict[str, set[str]] = {label: set(all_labels) for label in order}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            pred_doms = [dom[p] for p in preds[label] if p in dom]
            new = set.intersection(*pred_doms) if pred_doms else set()
            new.add(label)
            if new != dom[label]:
                dom[label] = new
                changed = True
    return dom


@dataclass
class Loop:
    """A natural loop: header plus the set of member block labels."""

    header: str
    body: set[str] = field(default_factory=set)  # includes the header

    def __contains__(self, label: str) -> bool:
        return label in self.body


def natural_loops(func: Function) -> list[Loop]:
    """Find natural loops from back edges (edges ``t -> h`` where ``h``
    dominates ``t``).  Loops sharing a header are merged.  The returned
    list is sorted innermost-first (by body size) so LICM can process
    inner loops before outer ones."""
    dom = dominators(func)
    succ = successors(func)
    preds = predecessors(func)
    loops: dict[str, Loop] = {}
    for tail_label in dom:
        for head in succ.get(tail_label, []):
            if head in dom.get(tail_label, set()):
                loop = loops.setdefault(head, Loop(head, {head}))
                # Walk predecessors from the tail to collect the body.
                stack = [tail_label]
                while stack:
                    node = stack.pop()
                    if node in loop.body:
                        continue
                    loop.body.add(node)
                    stack.extend(p for p in preds.get(node, []))
    result = list(loops.values())
    result.sort(key=lambda lp: len(lp.body))
    return result


def block_order_for_layout(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder, for final code layout (keeps fallthrough
    chains mostly intact and deterministic)."""
    block_map = func.block_map()
    return [block_map[label] for label in reverse_postorder(func)]
