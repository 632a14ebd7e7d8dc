"""Shared utilities for optimizer passes (def/use bookkeeping)."""

from __future__ import annotations

from collections import Counter

from repro.ir.ir import Function


def definition_counts(func: Function) -> Counter:
    """How many times each temp is (re)defined in the function.

    Parameters count as one definition (they are defined at entry).
    """
    counts = Counter(func.params)
    counts.update([instr.dest for block in func.blocks
                   for instr in block.instrs if instr.dest is not None])
    return counts


#: Instructions with no side effects and no trap potential other than
#: arithmetic (loads are NOT pure: memory may change).
PURE_OPS = frozenset(("bin", "cmp", "cast", "copy", "frameaddr"))
