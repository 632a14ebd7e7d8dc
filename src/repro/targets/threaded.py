"""Threaded-code execution engine for the simulated targets.

The native counterpart of :mod:`repro.omnivm.threaded`: translated
modules are predecoded — every :class:`~repro.targets.base.MInstr`
becomes a closure made by its op's factory, which
:data:`repro.targets.ops.TABLE` generates from the op's one statement of
semantics, with register indexes and normalized immediates bound as
cells — and then executed as lazily-discovered basic blocks with
``instret``, the fuel check, and the Figure-1 category counters charged
once per block.

Cycles are charged once per block too.  :meth:`TargetMachine._charge`
is shift-invariant, so a block's charge depends only on the block and
its entry state: the ready times of the scoreboard slots it reads
before writing them, relative to ``_last_issue_cycle`` and clamped at
0, and on a dual-issue target whether its first instruction pairs with
the one issued last.  Each block keeps the last entry state and its
result (a :class:`BlockCharge`); a block entered in that state moves
the issue cursor and writes its slots in one step, and any other state
charges per instruction with ``_charge``, in program order, and
replaces the entry.  So ``cycles`` is bit-identical to the legacy
executor, which stays per-instruction as the oracle.  What the threaded
engine removes is the per-step dispatch chain, the per-step fuel,
category and cycle bookkeeping, and the dict-built condition-code
predicate of ``_cc_predicate`` (generated inline per predicate).  A
block runs one closure per body instruction, then its terminator's.

Delay-slot semantics (MIPS/SPARC) are preserved exactly: the slot
instruction executes outside the violation try (slot faults propagate to
the host, as in the legacy loop), annulled untaken branches skip the
slot, and the taken-branch penalty lands after the slot.  The block
charge includes the slot where the slot always runs; the dispatcher
charges the slot of an annulling branch, and of ``jr``/``jalr`` (whose
target lookup can raise first), when it runs.  When the body raises,
nothing is charged yet, so the dispatcher replays the charges of the
retired prefix.

:meth:`ThreadedTargetMachine._run` is the one native block-dispatch
loop: the superblock JIT (:class:`~repro.targets.jit.JitTargetMachine`)
runs it too, through the superblock probe at each block entry, which
never fires under ``engine="threaded"``.
"""

from __future__ import annotations

import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
)
from repro.jitcore import BlockDispatch, JitState
from repro.targets.base import (
    MInstr,
    ShapeTable,
    TargetMachine,
    TargetSpec,
    Timing,
    instr_shape,
    timing_key,
)
from repro.targets.ops import OPS, TABLE
from repro.utils.bits import s32, u32

#: Terminator classes for the block dispatcher.
_COND = 1   # conditional branch: returns target | -2
_JUMP = 2   # unconditional: always returns a redirect
_HOST = 3   # hostcall: falls through
_TRAP = 4   # raises

_COND_OPS = frozenset(name for name, op in OPS.items() if op.cond)
_JUMP_OPS = frozenset("j jal jr jalr".split())

__all__ = ["ThreadedNativeProgram", "ThreadedTargetMachine",
           "predecode_native"]

#: Closure parameters (terminators return the redirect).
_PARAMS = "m, regs, fregs, memory"

#: Closure lines of the plain jumps, over the op-table fields.
_TAILS = {"j": "return {target}",
          "jr": "return m.map_omni_target(regs[{rs}])"}


def _lines(mi, bound):
    """Closure lines for *mi*: its table statement — for a conditional
    branch, the redirect (-2 when untaken).  The dispatcher charges the
    cycles, once per block."""
    name = mi.op
    if name in _TAILS:
        return [TABLE.text(_TAILS[name], bound)]
    op = OPS.get(name)
    if op is None:
        raise VMRuntimeError(f"target op {name!r} not implemented")
    if op.cond:
        taken = TABLE.text(op.stmt, bound, mi)
        return [TABLE.text(f"return {{target}} if {taken} else -2", bound)]
    return TABLE.lines(name, bound, "fault_native", mi)


def _compile(mi, idx):
    """The closure for one instruction, from its op's factory."""
    key = (mi.op, TABLE.variant(mi.op, mi))
    make = TABLE.factory(key, _PARAMS, lambda bound: _lines(mi, bound))
    return make(mi, idx)


def _compile_native_term(mi, idx, spec):
    """(terminator class, closure) for a block-ending instruction."""
    op = mi.op
    if op in _COND_OPS:
        return _COND, _compile(mi, idx)
    if op in _TAILS:
        return _JUMP, _compile(mi, idx)
    if op == "trap":
        return _TRAP, _compile(mi, idx)
    if op in ("jal", "jalr"):
        link = spec.reserved.get("ra", 31)
        ret = u32(mi.imm)
        target = mi.target
        rs = mi.rs
        if op == "jal":
            def fn(m, regs, fregs, memory):
                regs[link] = ret
                return target
        else:
            def fn(m, regs, fregs, memory):
                regs[link] = ret
                return m.map_omni_target(regs[rs])
        return _JUMP, fn
    if op == "hostcall":
        index = mi.imm

        def fn(m, regs, fregs, memory):
            if m.hostcall is None:
                raise VMRuntimeError("hostcall without attached host")
            m.hostcall(m, index)
            return None
        return _HOST, fn
    raise VMRuntimeError(f"target op {op!r} is not a terminator")


def _is_term_op(op: str) -> bool:
    return op in _COND_OPS or op in _JUMP_OPS or op in ("hostcall", "trap")


# ---------------------------------------------------------------------------
# predecoded program + block cache
# ---------------------------------------------------------------------------

class BlockCharge:
    """The cycle charge of one predecoded block, with a one-entry memo.

    ``instrs`` are the instructions the block charges, in order: the
    body, the terminator, and the delay slot where the slot always runs
    — after a conditional branch that does not annul, and after
    ``j``/``jal``.  A native superblock
    charges each static path through its trace the same way
    (:mod:`repro.targets.jit`); a path also holds ``None`` for each
    taken-branch penalty on it, and starts with an instruction.
    ``reads`` are the scoreboard slots the instructions read before
    writing them, ``writes`` the slots they write, ``first`` and
    ``last`` the first and last items: ``last`` is where the charge
    leaves ``_last_issued``, None after a penalty.

    :meth:`TargetMachine._charge` is shift-invariant, so the block's
    charge depends only on the block and its entry state: the ready
    times of ``reads`` relative to ``_last_issue_cycle``, clamped at 0,
    and, on a dual-issue target, whether ``first`` pairs with the
    instruction issued last.  ``memo`` is the last entry state and its
    result as one tuple, ``(ready, pairs, (advance, pair_open,
    written))``: how far ``_last_issue_cycle`` moves, the exit
    ``_pair_open``, and the ready times of ``writes`` relative to the
    entry.  A penalty keeps the charge shift-invariant: it moves the
    issue cursor to ``cycles`` plus the penalty, and ``cycles ==
    _last_issue_cycle`` after every charge.  Machines that share the
    charge (``serve`` workers, and machines running other programs
    with a block of the same shape) replace the tuple without a lock; a
    reader sees either the old tuple or the new one, and both are a
    correct state and its result.

    The threaded tier takes its block charges from :func:`block_charge`,
    which shares one charge among all blocks of one shape under one
    timing, in any program: so ``instrs``, ``first`` and ``last`` may be
    another translation's instructions.  Everything the charge reads of
    them, in :meth:`TargetMachine._charge`, :meth:`Timing.pairs` and
    ``_last_issued``, is their shape and the timing (their issue
    records are the timing's, computed from the shape), so the cycles
    are the ones the block's own instructions would give.  What
    ``_deliver_violation`` and the fault replay read comes from the
    machine's own ``instrs``, never from a charge.
    """

    __slots__ = ("instrs", "reads", "writes", "first", "last", "memo")

    def __init__(self, instrs: list[MInstr], timing: Timing):
        written: dict[int, None] = {}
        reads: dict[int, None] = {}
        for mi in instrs:
            if mi is None:
                continue
            slots_read, slots_written, _latency, _extra = timing.issue(mi)
            for slot in slots_read:
                if slot not in written:
                    reads[slot] = None
            written.update(dict.fromkeys(slots_written))
        self.instrs = tuple(instrs)
        self.reads = tuple(reads)
        self.writes = tuple(written)
        self.first = instrs[0]
        self.last = instrs[-1]
        self.memo = None


#: The charge table's bound, in instructions over all its keys.  300
#: generated cold programs leave 218 keys holding 1,955 instructions,
#: and the first loads of the four SPEC kernels on the four targets
#: 1,013 keys holding 9,008, so both fit.  Worst case: a full table of
#: one-instruction charges takes 1,275 bytes per instruction, counting
#: the instruction and its operand sets and issue record, which the
#: charge keeps alive (750-800 for charges of 8 to 512), so at most
#: 20 MiB (measured with ``tracemalloc``, CPython 3.11).
CHARGE_TABLE_INSTRS = 1 << 14

_CHARGES = ShapeTable(CHARGE_TABLE_INSTRS)


def block_charge(instrs: list[MInstr], timing: Timing) -> BlockCharge:
    """The :class:`BlockCharge` of *instrs* under *timing*, shared with
    every block of the same shapes under the same timing fields.

    The key covers every :class:`Timing` field (the cc profile's PPC
    timing differs from the default one only in ``cmp_latency``) and
    each instruction's shape.  The table holds charges only: their
    instructions and memo tuples, and nothing else of a program.
    """
    key = (timing_key(timing), tuple(map(instr_shape, instrs)))
    charge = _CHARGES.entries.get(key)
    if charge is None:
        charge = BlockCharge(instrs, timing)
        _CHARGES.put(key, charge, len(instrs))
    return charge


class ThreadedNativeProgram:
    """Predecoded translated module: per-index closures + lazy blocks.

    Holds no machine state — closures receive the machine and its
    register files per call — so one artifact serves every machine
    instance running the same translation (the content-addressed cache
    stores these in its in-memory predecode side table).  ``jit`` is
    the JIT state every :class:`~repro.targets.jit.JitTargetMachine`
    running the translation shares.
    """

    __slots__ = ("spec", "instrs", "steps", "blocks", "length", "jit")

    def __init__(self, spec: TargetSpec, instrs: list[MInstr]):
        self.spec = spec
        self.instrs = instrs
        self.length = len(instrs)
        # steps[i]: (is_term, closure-or-None); terminators are compiled
        # lazily inside build_block (they need block context anyway).
        self.steps = [None] * len(instrs)
        self.blocks: list[tuple | None] = [None] * len(instrs)
        self.jit = JitState(self.length)

    def _body_step(self, index: int):
        step = self.steps[index]
        if step is None:
            step = self.steps[index] = _compile(self.instrs[index], index)
        return step

    def build_block(self, index: int):
        """Build (and memoize) the block entered at native *index*.

        Returns ``(body, cats, total, term_kind, term_fn, term_mi,
        term_end, slot, charge)`` where ``body`` is a tuple of
        closures, one per instruction before the terminator, ``cats``
        the per-category instruction counts for the whole block (body +
        terminator, not the delay slot), ``total`` the number of
        instructions they represent, ``term_end`` the terminator's
        native index, ``slot`` the predecoded delay-slot record
        ``(slot_fn, slot_mi, slot_charge)`` or None — ``slot_charge`` is
        True when the dispatcher charges the slot itself, because it
        does not always run — and ``charge`` the block's
        :class:`BlockCharge` (None when it charges nothing).
        """
        instrs = self.instrs
        spec = self.spec
        n = self.length
        body = []
        cats: dict[str, int] = {}
        total = 0
        term_kind = 0
        term_fn = None
        term_mi = None
        term_end = index - 1
        charged = []
        i = index
        while i < n:
            mi = instrs[i]
            cats[mi.category] = cats.get(mi.category, 0) + 1
            total += 1
            charged.append(mi)
            if _is_term_op(mi.op):
                term_end = i
                term_mi = mi
                term_kind, term_fn = _compile_native_term(mi, i, spec)
                break
            body.append(self._body_step(i))
            i += 1
        slot = None
        if spec.delay_slots and term_kind in (_COND, _JUMP) \
                and term_end + 1 < n:
            slot_mi = instrs[term_end + 1]
            # The slot of an annulling branch runs only when taken, and
            # the slot of jr/jalr only once map_omni_target has not
            # raised: the dispatcher charges those when they run.
            slot_charge = (term_mi.op in ("jr", "jalr") if term_kind == _JUMP
                           else term_mi.annul)
            if not slot_charge:
                charged.append(slot_mi)
            slot = (self._body_step(term_end + 1), slot_mi,
                    slot_charge and slot_mi.category != "fused")
        charged = [mi for mi in charged if mi.category != "fused"]
        charge = block_charge(charged, spec.timing) if charged else None
        block = (tuple(body), tuple(cats.items()), total, term_kind,
                 term_fn, term_mi, term_end, slot, charge)
        self.blocks[index] = block
        return block


def predecode_native(spec: TargetSpec,
                     instrs: list[MInstr]) -> ThreadedNativeProgram:
    """Predecode a translated module, reporting ``execute.predecode_ms``.

    Per-instruction closures and blocks are built lazily on first
    execution; this constructor only sizes the dispatch tables, so the
    predecode cost reported here is the load-time share.
    """
    start = time.perf_counter()
    threaded = ThreadedNativeProgram(spec, instrs)
    if metrics.active():
        metrics.count("execute.predecode_ms",
                      (time.perf_counter() - start) * 1000.0)
    return threaded


# ---------------------------------------------------------------------------
# the threaded machine
# ---------------------------------------------------------------------------

class ThreadedTargetMachine(BlockDispatch, TargetMachine):
    """TargetMachine with block dispatch over a predecoded program.

    ``cycles``, register state, memory, and the virtual exception model
    are bit-identical to the legacy executor; ``instret``/fuel, the
    Figure-1 category counters and the cycles are charged per block, so
    fuel cuts land at block boundaries (at most one block late), exactly
    like the interpreter-side threaded engine.
    """

    COUNTERS = BlockDispatch.COUNTERS + (
        ("execute.charge_misses", "_charge_misses"),)

    def __init__(self, spec, instrs, memory, omni_to_native,
                 hostcall=None, fuel=100_000_000,
                 threaded: ThreadedNativeProgram | None = None):
        if threaded is None:
            threaded = predecode_native(spec, instrs)
        # Use the artifact's instruction list so closure-bound MInstr
        # objects and self.instrs are the same objects (operand/latency
        # caches land in one place).
        super().__init__(spec, threaded.instrs, memory, omni_to_native,
                         hostcall, fuel)
        self._threaded = threaded
        self._init_dispatch(self._threaded.length)
        self._dual = spec.timing.dual_issue is not None
        self._charge_misses = 0

    def _charge_block(self, charge: BlockCharge) -> None:
        """Charge the cycles of a block whose body ran, or of a
        superblock path: from the memo when its entry state matches,
        else item by item with :meth:`_charge` and
        :meth:`_branch_taken_penalty`, which replaces the memo."""
        lic = self._last_issue_cycle
        ready = self._ready
        reads = charge.reads
        if reads and max(map(ready.__getitem__, reads)) > lic:
            state = tuple([r - lic if r > lic else 0
                           for r in map(ready.__getitem__, reads)])
        else:
            state = ()
        pairs = (self._pair_open and self._dual
                 and self.spec.timing.pairs(self._last_issued, charge.first))
        memo = charge.memo
        if memo is not None and memo[0] == state and memo[1] == pairs:
            advance, pair_open, written = memo[2]
            for slot, rel in zip(charge.writes, written):
                ready[slot] = lic + rel
            lic += advance
            self._last_issue_cycle = lic
            if lic > self.cycles:
                self.cycles = lic
            self._pair_open = pair_open
            self._last_issued = charge.last
            return
        self._charge_misses += 1
        for mi in charge.instrs:
            if mi is None:
                self._branch_taken_penalty()
            else:
                self._charge(mi)
        charge.memo = (state, pairs, (
            self._last_issue_cycle - lic, self._pair_open,
            tuple([ready[slot] - lic for slot in charge.writes])))

    def _charge_fault_prefix(self, start: int, fault: int) -> None:
        """Account instret/categories for block instructions up to and
        including the faulting one (the legacy per-instruction loop had
        already retired exactly these)."""
        self.instret += fault - start + 1
        counts = self.category_counts
        instrs = self.instrs
        for i in range(start, fault + 1):
            counts[instrs[i].category] += 1

    def _replay_charges(self, start: int, fault: int) -> None:
        """Charge the cycles of block instructions up to and including
        the faulting one: the body raised before its block charge."""
        instrs = self.instrs
        for i in range(start, fault + 1):
            if instrs[i].category != "fused":
                self._charge(instrs[i])

    def _run(self, entry_native_index: int) -> int:
        self.pc = entry_native_index
        from repro.sfi.policy import RETURN_SENTINEL

        self.regs[self.link_reg] = RETURN_SENTINEL
        program = self._threaded
        blocks = program.blocks
        build = program.build_block
        n = program.length
        regs = self.regs
        fregs = self.fregs
        memory = self.memory
        counts = self.category_counts
        heat = self._heat
        threshold = self._jit_heat
        sb_get = self._superblocks.get
        blocks_run = 0
        sb_run = 0
        try:
            while not self.halted:
                pc = self.pc
                if pc == 0xFFFFFFFF or pc >= n:
                    if pc == 0xFFFFFFFF:
                        break
                    raise VMRuntimeError(f"native pc out of range: {pc}")
                # -- superblock probe (repro.jitcore.SuperblockTier) -----
                fn = sb_get(pc)
                if fn is None:
                    h = heat[pc] + 1
                    heat[pc] = h
                    if h >= threshold:
                        fn = self._compile_entry(pc)
                if fn is not None:
                    sb_run += 1
                    try:
                        fn(self, regs, fregs, memory)
                    except AccessViolation as violation:
                        if getattr(violation, "fault_final", False):
                            # Delay-slot / hostcall-delivery faults: the
                            # superblock already committed (and, for
                            # hostcalls, delivered); propagate as the
                            # threaded tier would.
                            raise
                        # Body fault: state is committed; deliver like a
                        # block fault.
                        self.pc = self._deliver_violation(
                            self.instrs[violation.fault_native], violation)
                        self._branch_taken_penalty()
                        if self.instret > self.fuel:
                            raise FuelExhausted(
                                "target simulation exceeded fuel")
                        continue
                    if self.instret > self.fuel and not self.halted:
                        raise FuelExhausted(
                            "target simulation exceeded fuel")
                    continue
                # -- threaded tier -----------------------------------------
                block = blocks[pc]
                if block is None:
                    block = build(pc)
                (body, cats, total, term_kind, term_fn, term_mi,
                 term_end, slot, charge) = block
                blocks_run += 1
                try:
                    for fn in body:
                        fn(self, regs, fregs, memory)
                except AccessViolation as violation:
                    fault = violation.fault_native
                    self._charge_fault_prefix(pc, fault)
                    self._replay_charges(pc, fault)
                    self.pc = fault
                    redirect = self._deliver_violation(
                        self.instrs[fault], violation)
                    self.pc = redirect
                    self._branch_taken_penalty()
                    if self.instret > self.fuel:
                        raise FuelExhausted("target simulation exceeded fuel")
                    continue
                except VMRuntimeError as err:
                    fault = getattr(err, "fault_native", None)
                    if fault is not None:
                        self._charge_fault_prefix(pc, fault)
                        self.pc = fault
                    else:
                        # An FP divide trap: instret stays at the block
                        # boundary; its cycles are charged.
                        fault = getattr(err, "trap_at", None)
                    if fault is not None:
                        self._replay_charges(pc, fault)
                    raise
                if charge is not None:
                    self._charge_block(charge)
                self.instret += total
                for category, count in cats:
                    counts[category] += count
                if self.instret > self.fuel:
                    raise FuelExhausted("target simulation exceeded fuel")
                if term_fn is None:
                    # Block ran off the end of the code: the legacy loop
                    # faults on the next fetch.
                    self.pc = n
                    continue
                self.pc = term_end
                try:
                    redirect = term_fn(self, regs, fregs, memory)
                except AccessViolation as violation:
                    # Only a hostcall terminator can get here; the legacy
                    # loop delivers and redirects with a taken-branch
                    # penalty.
                    redirect = self._deliver_violation(term_mi, violation)
                    self.pc = redirect
                    self._branch_taken_penalty()
                    continue
                if term_kind == _COND:
                    if slot is not None:
                        slot_fn, slot_mi, slot_charge = slot
                        if not (term_mi.annul and redirect == -2):
                            self.instret += 1
                            counts[slot_mi.category] += 1
                            if slot_charge:
                                self._charge(slot_mi)
                            slot_fn(self, regs, fregs, memory)
                        if redirect == -2:
                            self.pc = term_end + 2
                        else:
                            self.pc = redirect
                            self._branch_taken_penalty()
                    else:
                        if redirect is None or redirect == -2:
                            self.pc = term_end + 1
                        else:
                            self.pc = redirect
                            self._branch_taken_penalty()
                elif term_kind == _JUMP:
                    if slot is not None:
                        slot_fn, slot_mi, slot_charge = slot
                        self.instret += 1
                        counts[slot_mi.category] += 1
                        if slot_charge:
                            self._charge(slot_mi)
                        slot_fn(self, regs, fregs, memory)
                    self.pc = redirect
                    self._branch_taken_penalty()
                else:  # _HOST (trap raises out of the closure)
                    self.pc = term_end + 1
        finally:
            self._blocks_run += blocks_run
            self._superblocks_run += sb_run
        return s32(self.exit_code if self.halted else self.regs[
            self.spec.int_map.get(1, 1)])
