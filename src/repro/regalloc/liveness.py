"""Liveness analysis and live intervals over the linearized IR.

The register allocator linearizes a function (blocks in layout order,
instructions numbered consecutively) and needs, for every temp, a single
conservative live interval ``[start, end]`` covering all of its defs and
uses, extended across loop back edges (a temp live into a loop header is
live through the whole loop body).  Classic backward dataflow provides
block-level live-in/live-out; intervals are then grown per instruction.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.ir.cfg import block_order_for_layout
from repro.ir.ir import BasicBlock, Function, Temp


@dataclass
class LinearOrder:
    """A fixed linearization of a function's instructions."""

    blocks: list[BasicBlock]
    #: label -> (first instruction number, last instruction number)
    block_span: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: flattened instructions with their numbers
    numbered: list[tuple[int, object]] = field(default_factory=list)


def linearize(func: Function) -> LinearOrder:
    # Numbering starts at 1: position 0 is reserved for parameter
    # definitions, which happen strictly before the first instruction
    # (critical for call-crossing detection when instruction 1 is a call).
    blocks = block_order_for_layout(func)
    order = LinearOrder(blocks)
    number = 1
    for block in blocks:
        start = number
        for instr in block.all_instrs():
            order.numbered.append((number, instr))
            number += 1
        order.block_span[block.label] = (start, max(start, number - 1))
    return order


def block_liveness(
    func: Function, order: LinearOrder
) -> tuple[dict[str, set[Temp]], dict[str, set[Temp]]]:
    """Compute live-in / live-out sets per block (backward dataflow)."""
    use: dict[str, set[Temp]] = {}
    defs: dict[str, set[Temp]] = {}
    for block in order.blocks:
        used: set[Temp] = set()
        defined: set[Temp] = set()
        for instr in block.all_instrs():
            for temp in instr.used_temps():
                if temp not in defined:
                    used.add(temp)
            if instr.dest is not None:
                defined.add(instr.dest)
        use[block.label] = used
        defs[block.label] = defined

    live_in: dict[str, set[Temp]] = {b.label: set() for b in order.blocks}
    live_out: dict[str, set[Temp]] = {b.label: set() for b in order.blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(order.blocks):
            label = block.label
            out: set[Temp] = set()
            for succ in block.successors():
                out |= live_in.get(succ, set())
            new_in = use[label] | (out - defs[label])
            if out != live_out[label] or new_in != live_in[label]:
                live_out[label] = out
                live_in[label] = new_in
                changed = True
    return live_in, live_out


@dataclass
class Interval:
    """Conservative live interval of one temp."""

    temp: Temp
    start: int
    end: int
    #: True if the interval is live across any call/icall/hostcall site,
    #: in which case it must get a callee-saved register or spill.
    crosses_call: bool = False


def live_intervals(func: Function) -> tuple[list[Interval], LinearOrder]:
    """Build sorted live intervals for all temps in *func*.

    Function parameters receive intervals starting at 0.
    """
    order = linearize(func)
    live_in, live_out = block_liveness(func, order)

    start: dict[Temp, int] = {}
    end: dict[Temp, int] = {}

    def touch(temps, number: int) -> None:
        for temp in temps:
            first = start.get(temp)
            if first is None:
                start[temp] = end[temp] = number
            elif number < first:
                start[temp] = number
            elif number > end[temp]:
                end[temp] = number

    touch(func.params, 0)

    for block in order.blocks:
        span = order.block_span[block.label]
        touch(live_in[block.label], span[0])
        touch(live_out[block.label], span[1])

    for number, instr in order.numbered:
        touch([a for a in instr.args if a.__class__ is Temp], number)
        if instr.dest is not None:
            touch((instr.dest,), number)

    # Sorted call sites: an interval crosses a call if the first site
    # after its start comes before its end.
    call_points = [
        number
        for number, instr in order.numbered
        if instr.op in ("call", "icall", "hostcall")
    ]

    intervals = []
    for temp, first in start.items():
        last = end[temp]
        interval = Interval(temp, first, last)
        after = bisect_right(call_points, first)
        interval.crosses_call = (after < len(call_points)
                                 and call_points[after] < last)
        intervals.append(interval)
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.temp.id))
    return intervals, order
