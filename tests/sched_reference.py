"""The list scheduler as it was before it read cached operands: the
reference :mod:`tests.test_sched` holds :mod:`repro.translators.sched`
to.  It rebuilds each instruction's register sets on every use, re-sorts
the ready list at every pick and asks the timing model for a latency
more than once per instruction; the scheduler must return the same
order for every block.  Keep this copy as it is.
"""

from __future__ import annotations

from repro.targets.base import MInstr, TargetSpec


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
        preds: set[int] = set()
        for key in instr.reg_reads():
            if key in last_write:
                preds.add(last_write[key])
        for key in instr.reg_writes():
            if key in last_write:
                preds.add(last_write[key])  # WAW
            for reader in last_reads.get(key, ()):
                preds.add(reader)  # WAR
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
        for key in instr.reg_reads():
            last_reads.setdefault(key, []).append(j)
        for key in instr.reg_writes():
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
    :func:`build_dependences`)."""
    if len(block) < 2:
        return block
    tail: list[MInstr] = []
    body = block
    if block[-1].is_branch() or block[-1].op in ("bcc", "fbcc"):
        body = block[:-1]
        tail = [block[-1]]
        if not body:
            return block
    succs = build_dependences(block, precise)
    n = len(body)
    indegree = [0] * n
    for i in range(n):
        for j in succs[i]:
            if j < n:
                indegree[j] += 1
    # Critical-path heights (latency-weighted).
    height = [0] * n
    for i in range(n - 1, -1, -1):
        latency = spec.timing.result_latency(body[i])
        best = 0
        for j in succs[i]:
            if j < n:
                best = max(best, height[j])
        height[i] = latency + best
    ready = [i for i in range(n) if indegree[i] == 0]
    # Operand availability times per register.
    available: dict[tuple[str, int], int] = {}
    clock = 0
    scheduled: list[int] = []
    in_ready = set(ready)
    while ready:
        # Pick the ready instruction that can issue earliest; break ties
        # by critical-path height, then original order (determinism).
        def start_time(i: int) -> int:
            t = clock
            for key in body[i].reg_reads():
                t = max(t, available.get(key, 0))
            return t

        ready.sort(key=lambda i: (start_time(i), -height[i], i))
        chosen = ready.pop(0)
        in_ready.discard(chosen)
        clock = max(clock + 1, start_time(chosen) + 1)
        latency = spec.timing.result_latency(body[chosen])
        for key in body[chosen].reg_writes():
            available[key] = clock + latency - 1
        scheduled.append(chosen)
        for j in succs[chosen]:
            if j < n and j not in in_ready and j not in scheduled:
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
                    in_ready.add(j)
    if len(scheduled) != n:  # cycle safety net: keep original order
        return block
    result = [body[i] for i in scheduled]
    # The branch (if any) must still respect its dependences: it already
    # depended on everything it reads, and nothing was removed, so
    # appending it last is safe.
    result.extend(tail)
    return result
