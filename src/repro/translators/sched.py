"""Local instruction scheduling and delay-slot filling.

The paper's translators perform *local* (basic-block) list scheduling —
"based on the algorithm described in [45]" (Wall's Mahler) — and report
in Table 5 that it recovers a large part of the SFI overhead by hiding
the sandboxing instructions in pipeline interlock slots.  This module
implements:

* a dependence-DAG **list scheduler** with latency-weighted critical-path
  priorities (memory operations keep program order against stores; the
  SFI sequences reorder freely around independent work, which is exactly
  the "scheduling hides SFI" effect);
* a **delay-slot filler** for MIPS/SPARC: the instruction immediately
  preceding a control transfer moves into its slot when independent;
  otherwise a ``nop`` (category ``bnop``) fills it.

Both run on straight-line runs of native instructions between block
boundaries, after translation and before execution.

The scheduler's order is a pure function of the block's instruction
shapes (:data:`~repro.targets.base.instr_shape`), the seven result
latencies of the translator's timing and *precise*, and shapes recur
across programs: the 22,320 blocks of 300 generated cold programs have
227 shapes.  So :func:`schedule_block` keeps each order, as indexes into
the block, in one process-wide table, and applies it to the caller's
own instructions.
"""

from __future__ import annotations

from operator import attrgetter

from repro.targets.base import MInstr, ShapeTable, TargetSpec, instr_shape

#: The schedule table's bound, in instructions over all its keys.  300
#: generated cold programs leave 227 keys holding 1,851 instructions,
#: and the first loads of the four SPEC kernels on the four targets
#: 1,045 keys holding 8,526, so both fit.  Worst case: a full table of
#: two-instruction keys, the shortest block scheduled, takes 250 bytes
#: per instruction (106-131 for keys of 8 to 512), so at most 4 MiB
#: (measured with ``tracemalloc``, CPython 3.11).
SCHEDULE_TABLE_INSTRS = 1 << 14

_ORDERS = ShapeTable(SCHEDULE_TABLE_INSTRS)

_LATENCIES = attrgetter("load_latency", "mul_latency", "div_latency",
                        "fp_add_latency", "fp_mul_latency",
                        "fp_div_latency", "cmp_latency")


def _mem_kind(instr: MInstr) -> str:
    if instr.is_store():
        return "store"
    if instr.is_load():
        return "load"
    if instr.op in ("hostcall", "trap"):
        return "barrier"
    return ""


def build_dependences(
    block: list[MInstr], precise: bool = False
) -> list[list[int]]:
    """Return successor lists: edges i -> j mean j must follow i.

    With *precise* set, every load and store is a full scheduling
    barrier.  Memory operations are the instructions that can raise an
    access violation, and a program that installs a virtual exception
    handler (``sethnd``) observes the register file at the faulting
    instruction — so no effect may be moved across one in either
    direction.  Programs without a handler cannot observe the
    imprecision (a propagated violation terminates the run), and keep
    the full scheduling freedom that hides the SFI sequences.
    """
    n = len(block)
    succs: list[list[int]] = [[] for _ in range(n)]
    last_write: dict[tuple[str, int], int] = {}
    last_reads: dict[tuple[str, int], list[int]] = {}
    last_store = -1
    open_loads: list[int] = []  # loads issued since the last store/barrier
    last_barrier = -1
    for j, instr in enumerate(block):
        reads = instr.cached_reads()
        writes = instr.cached_writes()
        preds: set[int] = set()
        for key in reads:
            if key in last_write:
                preds.add(last_write[key])
        for key in writes:
            if key in last_write:
                preds.add(last_write[key])  # WAW
            preds.update(last_reads.get(key, ()))  # WAR
        kind = _mem_kind(instr)
        if precise and kind in ("load", "store"):
            kind = "barrier"
        if kind == "load":
            if last_store >= 0:
                preds.add(last_store)
        elif kind == "store":
            # A store must follow EVERY load issued since the previous
            # store, not just the most recent memory op — an earlier
            # load may alias the stored address.
            preds.update(open_loads)
            if last_store >= 0:
                preds.add(last_store)
        elif kind == "barrier":
            preds.update(range(j))
        if last_barrier >= 0:
            preds.add(last_barrier)
        for p in preds:
            if p != j:
                succs[p].append(j)
        for key in reads:
            last_reads.setdefault(key, []).append(j)
        for key in writes:
            last_write[key] = j
            last_reads[key] = []
        if kind == "store":
            last_store = j
            open_loads.clear()
        elif kind == "load":
            open_loads.append(j)
        elif kind == "barrier":
            last_barrier = j
            last_store = j
            open_loads.clear()
    return succs


def list_schedule(
    block: list[MInstr], spec: TargetSpec, precise: bool = False
) -> list[MInstr]:
    """Reorder *block* to reduce stalls; the final instruction stays last
    if it is a control transfer.  *precise* pins memory operations (see
    :func:`build_dependences`).

    Latencies come from *spec*, the translator's target description,
    never from an instruction's cached issue record: the machine that
    runs the code may charge a different timing (the cc profile's PPC
    compares), so the scheduler leaves that record alone.
    """
    if len(block) < 2:
        return block
    return schedule_block(block, spec, precise)[0]


def schedule_block(
    block: list[MInstr], spec: TargetSpec, precise: bool = False
) -> tuple[list[MInstr], bool]:
    """*block* in :func:`list_schedule`'s order, and whether the order
    came from the schedule table.

    The key is what the scheduler reads: the latencies, *precise* and
    each instruction's shape.  The stored order is a tuple of indexes,
    applied here to *block*, so the result holds only the caller's
    instructions, never those of the block that filled the entry.
    """
    key = (_LATENCIES(spec.timing), precise, tuple(map(instr_shape, block)))
    order = _ORDERS.entries.get(key)
    hit = order is not None
    if not hit:
        order = _schedule_order(block, spec, precise)
        _ORDERS.put(key, order, len(block))
    return [block[i] for i in order], hit


def _schedule_order(
    block: list[MInstr], spec: TargetSpec, precise: bool
) -> tuple[int, ...]:
    """The list scheduler: the order of *block*, as indexes into it."""
    unchanged = tuple(range(len(block)))
    if len(block) < 2:
        return unchanged
    tail: tuple[int, ...] = ()
    body = block
    if block[-1].is_branch() or block[-1].op in ("bcc", "fbcc"):
        body = block[:-1]
        tail = (len(body),)
        if not body:
            return unchanged
    succs = build_dependences(block, precise)
    n = len(body)
    latency = [spec.timing.result_latency(instr) for instr in body]
    # Predecessor counts and latency-weighted critical-path heights.
    indegree = [0] * n
    height = [0] * n
    for i in range(n - 1, -1, -1):
        best = 0
        for j in succs[i]:
            if j < n:
                indegree[j] += 1
                if height[j] > best:
                    best = height[j]
        height[i] = latency[i] + best
    ready = [i for i in range(n) if indegree[i] == 0]
    # Operand availability times per register, and per ready
    # instruction the time its operands are available.  That time is
    # fixed while the instruction waits: every other writer of a
    # register it reads is ordered before it (and already scheduled) or
    # after it (and not yet ready).
    available: dict[tuple[str, int], int] = {}
    operands_at = [0] * n
    clock = 0
    scheduled: list[int] = []
    while ready:
        # Pick the ready instruction that can issue earliest; break ties
        # by critical-path height, then original order (determinism).
        pick = 0
        chosen = ready[0]
        start = max(clock, operands_at[chosen])
        for position in range(1, len(ready)):
            i = ready[position]
            t = max(clock, operands_at[i])
            if t < start or t == start and (
                    height[i] > height[chosen]
                    or height[i] == height[chosen] and i < chosen):
                pick, chosen, start = position, i, t
        ready[pick] = ready[-1]
        ready.pop()
        clock = start + 1
        done = clock + latency[chosen] - 1
        for key in body[chosen].cached_writes():
            available[key] = done
        scheduled.append(chosen)
        for j in succs[chosen]:
            if j < n:
                indegree[j] -= 1
                if indegree[j] == 0:
                    t = 0
                    for key in body[j].cached_reads():
                        t = max(t, available.get(key, 0))
                    operands_at[j] = t
                    ready.append(j)
    if len(scheduled) != n:  # cycle safety net: keep original order
        return unchanged
    # The branch (if any) must still respect its dependences: it already
    # depended on everything it reads, and nothing was removed, so
    # appending it last is safe.
    return tuple(scheduled) + tail


def finalize_block(
    block: list[MInstr], spec: TargetSpec, schedule: bool,
    precise: bool = False,
) -> list[MInstr]:
    """Append the delay slot for a block ending in a control transfer.

    A block produced by the translator contains at most one control
    transfer, and only as its final instruction.  When *schedule* is on,
    the immediately preceding independent instruction moves into the
    slot; otherwise (or when nothing is movable) a ``nop`` with category
    ``bnop`` fills it.
    """
    if not spec.delay_slots or not block:
        return block
    last = block[-1]
    if not (last.is_branch() or last.op in ("bcc", "fbcc")):
        return block
    filler: MInstr | None = None
    link_reg = spec.reserved.get("ra", -1)
    if precise and len(block) >= 2 and _mem_kind(block[-2]):
        # A faulting op must not slide past the branch (handler programs
        # observe state at the fault point); fill with a nop instead.
        return block + [MInstr("nop", omni_addr=last.omni_addr,
                               category="bnop")]
    if schedule and len(block) >= 2 and _can_fill(block[-2], last, link_reg):
        filler = block[-2]
        block = block[:-2] + [last, filler]
        return block
    return block + [MInstr("nop", omni_addr=last.omni_addr,
                           category="bnop")]


def _can_fill(candidate: MInstr, branch: MInstr, link_reg: int) -> bool:
    """May *candidate* move into *branch*'s delay slot?"""
    if candidate.is_branch() or candidate.op in (
        "bcc", "fbcc", "hostcall", "trap", "nop", "jal", "jalr", "jr", "j",
    ):
        return False
    written = set(candidate.cached_writes())
    if any(read in written for read in branch.cached_reads()):
        return False
    # Calls write the link register BEFORE the delay slot executes, so a
    # candidate that reads or writes it must not move into the slot
    # (the classic $ra-in-jal-delay-slot hazard).
    if branch.op in ("jal", "jalr") and link_reg >= 0:
        touched = set(candidate.cached_reads()) | written
        if ("r", link_reg) in touched:
            return False
    # cc state: a cc-writing candidate cannot slide past a cc-reading
    # branch (checked above via reg sets, which include ("cc", 0)).
    return True
