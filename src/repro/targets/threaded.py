"""Threaded-code execution engine for the simulated targets.

The native counterpart of :mod:`repro.omnivm.threaded`: translated
modules are predecoded — every :class:`~repro.targets.base.MInstr`
becomes a closure made by its op's factory, which
:data:`repro.targets.ops.TABLE` generates from the op's one statement of
semantics, with register indexes and normalized immediates bound as
cells — and then executed as lazily-discovered basic blocks with
``instret``, the fuel check, and the Figure-1 category counters charged
once per block.

The cycle-accurate parts stay per-instruction: each closure still calls
:meth:`TargetMachine._charge` in original program order (the scoreboard,
dual-issue pairing, and memory-resident-register costs are stateful), so
``cycles`` is bit-identical to the legacy executor.  What the threaded
engine removes is the per-step dispatch chain, the per-step fuel and
category bookkeeping, and the dict-built condition-code predicate of
``_cc_predicate`` (generated inline per predicate).

Superinstruction fusion is **per-target**: ``TargetSpec.fusion_pairs``
lists the (op, op) pairs the target's translator actually emits hot
(cmp+bcc on the condition-code machines, slt+beq/bne on MIPS, lui+ori
constant synthesis, address+memory pairs).  A fused closure, one
factory per pair, charges and executes both halves in exact legacy
order, so timing and faults are unchanged.

Delay-slot semantics (MIPS/SPARC) are preserved exactly: the slot
instruction executes outside the violation try (slot faults propagate to
the host, as in the legacy loop), annulled untaken branches skip the
slot, and the taken-branch penalty lands after the slot.
"""

from __future__ import annotations

import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
)
from repro.optable import MEM, NONE
from repro.targets.base import MInstr, TargetMachine, TargetSpec
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

#: Tails of the jumps a fused pair can end in, over the op-table fields.
_TAILS = {"j": "return {target}",
          "jr": "return m.map_omni_target(regs[{rs}])"}


def _half(mi, k, bound):
    """Closure lines for *mi* as operand suffix *k*: its cycle charge
    (fused-category ops issue free), then its table statement — for a
    conditional branch, the redirect (-2 when untaken)."""
    lines = [] if mi.category == "fused" else [f"m._charge(i{k})"]
    name = mi.op
    if name in _TAILS:
        return lines + [TABLE.text(_TAILS[name], k, bound)]
    op = OPS.get(name)
    if op is None:
        raise VMRuntimeError(f"target op {name!r} not implemented")
    if op.cond:
        taken = TABLE.text(op.stmt, k, bound, mi)
        return lines + [TABLE.text(f"return {{target}} if {taken} else -2",
                                   k, bound)]
    return lines + TABLE.lines(name, k, bound, "fault_native", mi)


def _compile(mi, idx):
    """The closure for one instruction, from its op's factory."""
    key = (mi.op, mi.category == "fused", TABLE.variant(mi.op, mi))
    make = TABLE.factory(key, _PARAMS, lambda bound: _half(mi, 1, bound))
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
                m._charge(mi)
                regs[link] = ret
                return target
        else:
            def fn(m, regs, fregs, memory):
                m._charge(mi)
                regs[link] = ret
                return m.map_omni_target(regs[rs])
        return _JUMP, fn
    if op == "hostcall":
        index = mi.imm

        def fn(m, regs, fregs, memory):
            m._charge(mi)
            if m.hostcall is None:
                raise VMRuntimeError("hostcall without attached host")
            m.hostcall(m, index)
            return None
        return _HOST, fn
    raise VMRuntimeError(f"target op {op!r} is not a terminator")


def _is_term_op(op: str) -> bool:
    return op in _COND_OPS or op in _JUMP_OPS or op in ("hostcall", "trap")


# ---------------------------------------------------------------------------
# superinstruction fusion (gated per target by TargetSpec.fusion_pairs)
# ---------------------------------------------------------------------------

def _fusable(i1, i2):
    """Can the body op *i1* and *i2* run as one closure?  Both halves
    charge and execute strictly in order, so register aliasing and
    fault delivery behave exactly as unfused.  A fused terminator's
    first half must not fault, so block fault accounting never has to
    unwind a partially-retired terminator."""
    first = OPS[i1.op].fault
    if _is_term_op(i2.op):
        return first == NONE and (i2.op in _COND_OPS or i2.op in _TAILS)
    return first in (NONE, MEM) and OPS[i2.op].fault in (NONE, MEM)


def _fuse(i1, i2, idx1, idx2):
    key = (i1.op, i2.op, TABLE.variant(i1.op, i1),
           TABLE.variant(i2.op, i2))
    make = TABLE.factory(key, _PARAMS, lambda bound: (
        _half(i1, 1, bound) + _half(i2, 2, bound)))
    return make(i1, idx1, i2, idx2)


# ---------------------------------------------------------------------------
# predecoded program + block cache
# ---------------------------------------------------------------------------

class ThreadedNativeProgram:
    """Predecoded translated module: per-index closures + lazy blocks.

    Holds no machine state — closures receive the machine and its
    register files per call — so one artifact serves every machine
    instance running the same translation (the content-addressed cache
    stores these in its in-memory predecode side table).
    """

    __slots__ = ("spec", "instrs", "steps", "blocks", "length", "_fusion")

    def __init__(self, spec: TargetSpec, instrs: list[MInstr]):
        self.spec = spec
        self.instrs = instrs
        self.length = len(instrs)
        self._fusion = frozenset(getattr(spec, "fusion_pairs", ()) or ())
        # steps[i]: (is_term, closure-or-None); terminators are compiled
        # lazily inside build_block (they need block context anyway).
        self.steps = [None] * len(instrs)
        self.blocks: list[tuple | None] = [None] * len(instrs)

    def _body_step(self, index: int):
        step = self.steps[index]
        if step is None:
            step = self.steps[index] = _compile(self.instrs[index], index)
        return step

    def build_block(self, index: int):
        """Build (and memoize) the block entered at native *index*.

        Returns ``(body, cats, total, term_kind, term_fn, term_mi,
        term_end, slot, fused)`` where ``body`` is a tuple of closures,
        ``cats`` the per-category instruction counts for the whole block
        (body + terminator, not the delay slot), ``total`` the number of
        instructions they represent, ``term_end`` the native index of
        the terminator's last instruction, and ``slot`` the predecoded
        delay-slot record ``(slot_fn, slot_mi)`` or None.
        """
        instrs = self.instrs
        spec = self.spec
        n = self.length
        body = []
        cats: dict[str, int] = {}
        total = 0
        fused = 0
        term_kind = 0
        term_fn = None
        term_mi = None
        term_end = index - 1
        i = index
        while i < n:
            mi = instrs[i]
            op = mi.op
            if _is_term_op(op):
                term_end = i
                term_mi = mi
                cats[mi.category] = cats.get(mi.category, 0) + 1
                total += 1
                term_kind, term_fn = _compile_native_term(mi, i, spec)
                break
            nxt = i + 1
            if nxt < n and mi.category != "fused" \
                    and instrs[nxt].category != "fused":
                mi2 = instrs[nxt]
                if (op, mi2.op) in self._fusion and _fusable(mi, mi2):
                    fn = _fuse(mi, mi2, i, nxt)
                    cats[mi.category] = cats.get(mi.category, 0) + 1
                    cats[mi2.category] = cats.get(mi2.category, 0) + 1
                    total += 2
                    fused += 1
                    if _is_term_op(mi2.op):
                        term_end = nxt
                        term_mi = mi2
                        term_kind = _COND if mi2.op in _COND_OPS else _JUMP
                        term_fn = fn
                        break
                    body.append(fn)
                    i += 2
                    continue
            body.append(self._body_step(i))
            cats[mi.category] = cats.get(mi.category, 0) + 1
            total += 1
            i += 1
        slot = None
        if spec.delay_slots and term_kind in (_COND, _JUMP) \
                and term_end + 1 < n:
            slot_mi = instrs[term_end + 1]
            slot = (self._body_step(term_end + 1), slot_mi)
        block = (tuple(body), tuple(cats.items()), total, term_kind,
                 term_fn, term_mi, term_end, slot, fused)
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

class ThreadedTargetMachine(TargetMachine):
    """TargetMachine with block dispatch over a predecoded program.

    ``cycles``, register state, memory, and the virtual exception model
    are bit-identical to the legacy executor; ``instret``/fuel and the
    Figure-1 category counters are charged per block, so fuel cuts land
    at block boundaries (at most one block late), exactly like the
    interpreter-side threaded engine.
    """

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
        self._blocks_run = 0
        self._fused_run = 0

    def run(self, entry_native_index: int) -> int:
        blocks_before = self._blocks_run
        fused_before = self._fused_run
        try:
            return super().run(entry_native_index)
        finally:
            if metrics.active():
                blocks = self._blocks_run - blocks_before
                fused = self._fused_run - fused_before
                if blocks:
                    metrics.count("execute.blocks", blocks)
                if fused:
                    metrics.count("execute.fused", fused)

    def _charge_fault_prefix(self, start: int, fault: int) -> None:
        """Account instret/categories for block instructions up to and
        including the faulting one (the legacy per-instruction loop had
        already retired exactly these)."""
        self.instret += fault - start + 1
        counts = self.category_counts
        instrs = self.instrs
        for i in range(start, fault + 1):
            counts[instrs[i].category] += 1

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
        blocks_run = 0
        fused_run = 0
        try:
            while not self.halted:
                pc = self.pc
                if pc == 0xFFFFFFFF or pc >= n:
                    if pc == 0xFFFFFFFF:
                        break
                    raise VMRuntimeError(f"native pc out of range: {pc}")
                block = blocks[pc]
                if block is None:
                    block = build(pc)
                (body, cats, total, term_kind, term_fn, term_mi,
                 term_end, slot, fused) = block
                blocks_run += 1
                fused_run += fused
                try:
                    for fn in body:
                        fn(self, regs, fregs, memory)
                except AccessViolation as violation:
                    fault = violation.fault_native
                    self._charge_fault_prefix(pc, fault)
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
                    raise
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
                    # Only a hostcall terminator can get here (fused
                    # terminators are non-faulting); the legacy loop
                    # delivers and redirects with a taken-branch penalty.
                    redirect = self._deliver_violation(term_mi, violation)
                    self.pc = redirect
                    self._branch_taken_penalty()
                    continue
                if term_kind == _COND:
                    if slot is not None:
                        slot_fn, slot_mi = slot
                        if not (term_mi.annul and redirect == -2):
                            self.instret += 1
                            counts[slot_mi.category] += 1
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
                        slot_fn, slot_mi = slot
                        self.instret += 1
                        counts[slot_mi.category] += 1
                        slot_fn(self, regs, fregs, memory)
                    self.pc = redirect
                    self._branch_taken_penalty()
                else:  # _HOST (trap raises out of the closure)
                    self.pc = term_end + 1
        finally:
            self._blocks_run += blocks_run
            self._fused_run += fused_run
        return s32(self.exit_code if self.halted else self.regs[
            self.spec.int_map.get(1, 1)])
