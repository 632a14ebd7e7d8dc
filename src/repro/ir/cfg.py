"""Control-flow graph analyses over the IR.

Provides predecessor maps, reverse postorder, the dominator tree, and
natural-loop detection.  These are consumed by the optimizer (LICM needs
loops; DCE and liveness need orderings) and by the register allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.ir import BasicBlock, Function


def successors(func: Function) -> dict[str, list[str]]:
    """Label -> successor labels.  The lists are the terminators' own
    target lists: read them, do not change them."""
    return {b.label: b.terminator.targets if b.terminator is not None else []
            for b in func.blocks}


def predecessors(func: Function) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in func.blocks}
    for block in func.blocks:
        if block.terminator is not None:
            for succ in block.terminator.targets:
                preds[succ].append(block.label)
    return preds


def reverse_postorder(
    func: Function, succ: dict[str, list[str]] | None = None
) -> list[str]:
    """Labels in reverse postorder from the entry (unreachable blocks are
    excluded — callers that mutate the function should run
    :func:`remove_unreachable` first).  *succ* is the successor map, if
    the caller has it already."""
    if succ is None:
        succ = successors(func)
    entry = func.entry.label
    visited = {entry}
    order: list[str] = []
    # Iterative DFS to avoid recursion limits on long CFGs; each stack
    # entry resumes its successor iterator where it left off.
    stack = [(entry, iter(succ[entry]))]
    while stack:
        label, pending = stack[-1]
        for child in pending:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(succ[child])))
                break
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


class DominatorTree:
    """Immediate dominators of the blocks reachable from the entry.

    Built with Cooper, Harvey and Kennedy's iterative algorithm ("A
    Simple, Fast Dominance Algorithm", 2001): it intersects predecessors'
    idoms by walking up a reverse-postorder numbering, so each pass over
    the blocks is linear and reducible CFGs converge in two passes.  A
    preorder numbering of the resulting tree, with subtree sizes, answers
    :meth:`dominates` in O(1), with no walk up the idom chain.
    """

    def __init__(self, order: list[str], preds: dict[str, list[str]]):
        """*order* is :func:`reverse_postorder` of the function and *preds*
        its :func:`predecessors` map."""
        #: Reachable labels in reverse postorder from the entry.
        self.order = order
        self._number = number = {label: i for i, label in enumerate(order)}
        count = len(order)
        pred_numbers = [
            [number[p] for p in preds[label] if p in number] for label in order
        ]
        idom = [-1] * count
        idom[0] = 0
        changed = True
        while changed:
            changed = False
            for b in range(1, count):
                new = -1
                for p in pred_numbers[b]:
                    if idom[p] < 0:
                        continue
                    if new < 0:
                        new = p
                        continue
                    while p != new:
                        while p > new:
                            p = idom[p]
                        while new > p:
                            new = idom[new]
                if idom[b] != new:
                    idom[b] = new
                    changed = True
        #: label -> immediate dominator label (the entry maps to itself).
        self.idom = {label: order[idom[i]] for i, label in enumerate(order)}
        # A parent precedes its children in reverse postorder, so one
        # backward sweep sizes every subtree and one forward sweep lays
        # the subtrees out in preorder.
        size = [1] * count
        for b in range(count - 1, 0, -1):
            size[idom[b]] += size[b]
        enter = [0] * count
        free = [1] * count  # next preorder slot inside each subtree
        for b in range(1, count):
            parent = idom[b]
            enter[b] = free[parent]
            free[parent] += size[b]
            free[b] = enter[b] + 1
        self._enter = enter
        self._size = size

    def dominates(self, a: str, b: str) -> bool:
        """True if every path from the entry to *b* passes through *a*
        (a block dominates itself); False if either is unreachable."""
        i = self._number.get(a)
        j = self._number.get(b)
        if i is None or j is None:
            return False
        start = self._enter[i]
        return start <= self._enter[j] < start + self._size[i]


@dataclass
class Loop:
    """A natural loop: header plus the set of member block labels."""

    header: str
    body: set[str] = field(default_factory=set)  # includes the header

    def __contains__(self, label: str) -> bool:
        return label in self.body


def natural_loops(func: Function, preds: dict[str, list[str]]) -> list[Loop]:
    """Find natural loops from back edges (edges ``t -> h`` where ``h``
    dominates ``t``).  Loops sharing a header are merged.  The returned
    list is sorted innermost-first (by body size, then discovery order) so
    LICM can process inner loops before outer ones.  *preds* is the
    function's :func:`predecessors` map."""
    succ = successors(func)
    order = reverse_postorder(func, succ)
    number = {label: i for i, label in enumerate(order)}
    # A dominator precedes what it dominates in reverse postorder, so
    # only retreating edges can be back edges; an acyclic CFG has none
    # and needs no dominator tree.
    retreating = [(tail, head) for i, tail in enumerate(order)
                  for head in succ[tail] if number.get(head, i + 1) <= i]
    if not retreating:
        return []
    tree = DominatorTree(order, preds)
    loops: dict[str, Loop] = {}
    for tail_label, head in retreating:
        if tree.dominates(head, tail_label):
            loop = loops.get(head)
            if loop is None:
                loop = loops[head] = Loop(head, {head})
            # Walk predecessors from the tail to collect the body.
            stack = [tail_label]
            while stack:
                node = stack.pop()
                if node in loop.body:
                    continue
                loop.body.add(node)
                stack.extend(preds[node])
    result = list(loops.values())
    result.sort(key=lambda lp: len(lp.body))
    return result


def block_order_for_layout(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder, for final code layout (keeps fallthrough
    chains mostly intact and deterministic)."""
    block_map = func.block_map()
    return [block_map[label] for label in reverse_postorder(func)]
