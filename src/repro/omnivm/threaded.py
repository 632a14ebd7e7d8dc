"""Threaded-code execution engine for OmniVM.

The reference interpreter (:mod:`repro.omnivm.interp`) re-decodes every
dynamic instruction: one trip through a long ``if``/``elif`` chain, one
``_PRED_FN``/shape-table lookup, one immediate normalization — per step.
This module moves all of that to **load time**, the same place the
paper puts translation cost:

* **predecode** — each :class:`~repro.omnivm.isa.VMInstr` becomes a
  closure made by its op's factory, which
  :data:`repro.omnivm.ops.TABLE` generates from the op's one statement
  of semantics (once per op, on first use): operands are bound as
  cells, immediates pre-normalized.  The closures live in a
  per-program dispatch array indexed by pc;
* **superinstruction fusion** — the dominant dynamic pairs exposed by
  the opcode-count instrumentation on the four SPEC workloads
  (``mov``/``li`` shuffles, ``addi``/``slli``+``mov`` address
  arithmetic, ``lw``+``lw`` / ``sw``+``sw`` block moves,
  ``li``+indexed-load, ``addi``/``li``+``jr`` returns, and
  ``lw``+compare-and-branch) run as single closures, one factory per
  pair generated from the two table statements;
* **basic-block batching** — straight-line runs execute without
  re-entering the dispatch loop; ``instret`` and the fuel check are
  charged once per block, so a fuel cut (including the service
  watchdog's asynchronous ``fuel = -1``) lands at the next block
  boundary, at most one block length late.

Observable semantics are pinned to the reference interpreter: the
difftest fixed-seed corpus must be bit-exact between the two engines
(registers, memory digest, ``instret``, outcome kind and detail).  The
one documented relaxation is fuel granularity, above.

A :class:`ThreadedProgram` binds no VM state — closures receive the
register files and memory as arguments — so one predecoded artifact is
shared by every :class:`ThreadedVM` running the same program and may be
cached in the :class:`~repro.cache.TranslationCache` (in memory only;
closures do not persist to disk).
"""

from __future__ import annotations

import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
)
from repro.omnivm.interp import OmniVM
from repro.omnivm.isa import BRANCH_PREDS, INSTR_SIZE, REG_RA
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.ops import OPS, TABLE, TERMINATORS, fold_branch
from repro.optable import MEM
from repro.utils.bits import s32

__all__ = ["BLOCK_ENDS", "ThreadedProgram", "ThreadedVM", "predecode_program"]

#: Ops that end a basic block: control transfers, ``trap``, and
#: ``sethnd`` (it writes VM state, which body closures do not receive).
BLOCK_ENDS = TERMINATORS | frozenset(
    name for name, op in OPS.items() if op.cond) | {"trap", "sethnd"}

#: Closure parameters: straight-line bodies, and block terminators
#: (which return the next pc).
_BODY = "regs, fregs, memory"
_TERM = "vm, state, regs"

#: Terminator tails over the op-table fields.
_TAILS = {
    "j": "return {target}",
    "jal": f"regs[{REG_RA}] = {{next}}\nreturn {{target}}",
    "jr": "return regs[{rs}]",
    "jalr": f"regs[{REG_RA}] = {{next}}\nreturn regs[{{rs}}]",
    "sethnd": OPS["sethnd"].stmt + "\nreturn {next}",
}


def _tail(instr, k, bound, folded):
    """Closure lines for the block terminator *instr* (operand suffix
    *k*); *folded* is its :func:`~repro.omnivm.ops.fold_branch`."""
    name = instr.op
    if name in _TAILS:
        return TABLE.text(_TAILS[name], k, bound).split("\n")
    if not OPS[name].cond:
        return TABLE.lines(name, k, bound, "fault_pc")  # trap
    if folded is not None:
        return [TABLE.text("return {target}" if folded else "return {next}",
                           k, bound)]
    taken = TABLE.text(OPS[name].stmt, k, bound)
    return [TABLE.text(f"return {{target}} if {taken} else {{next}}",
                       k, bound)]


def _compile_host(instr, pc):
    index = instr.imm
    next_pc = pc + INSTR_SIZE

    def fn(vm, state, regs):
        hostcall = vm.hostcall
        if hostcall is None:
            raise VMRuntimeError(
                "module made a hostcall but no host is attached")
        hostcall(vm, index)
        return next_pc
    return fn


def _compile_step(instr, pc):
    """Predecode one instruction: (is_terminator, closure); the closure
    is None for ``nop``."""
    name = instr.op
    if name in BLOCK_ENDS:
        if name == "hostcall":
            return (True, _compile_host(instr, pc))
        folded = fold_branch(instr)
        make = TABLE.factory(("term", name, folded), _TERM,
                             lambda bound: _tail(instr, 1, bound, folded))
        return (True, make(instr, pc))
    if name == "nop":
        return (False, None)
    make = TABLE.factory(name, _BODY, lambda bound: TABLE.lines(
        name, 1, bound, "fault_pc"))
    return (False, make(instr, pc))


# ---------------------------------------------------------------------------
# superinstruction fusion
# ---------------------------------------------------------------------------
#
# Pair selection is grounded in the dynamic pair frequencies the
# opcode-count instrumentation reports on the four SPEC workloads (li,
# compress, alvinn, eqntott); see DESIGN.md.  A fused closure runs both
# table statements in sequential order, so register aliasing between
# the halves behaves identically to unfused execution, and each memory
# half annotates faults with its own pc so block fault accounting stays
# precise.

_BODY_FUSE = frozenset((
    ("mov", "mov"), ("mov", "li"), ("li", "mov"), ("addi", "mov"),
    ("slli", "mov"), ("lw", "lw"), ("lw", "addi"), ("addi", "lw"),
    ("li", "lw"), ("li", "lwx"), ("sw", "sw"), ("addi", "sw"),
))
_TERM_FUSE = frozenset(
    (("addi", "jr"), ("li", "jr"))
    + tuple(("lw", name + "i") for name in BRANCH_PREDS)
)


def _fuse_body(i1, i2, pc1, pc2):
    make = TABLE.factory(("pair", i1.op, i2.op), _BODY, lambda bound: (
        TABLE.lines(i1.op, 1, bound, "fault_pc")
        + TABLE.lines(i2.op, 2, bound, "fault_pc")))
    return make(i1, pc1, i2, pc2)


def _fuse_term(i1, i2, pc1, pc2):
    folded = fold_branch(i2)

    def build(bound):
        head = ["memory = vm.memory"] if OPS[i1.op].fault == MEM else []
        return (head + TABLE.lines(i1.op, 1, bound, "fault_pc")
                + _tail(i2, 2, bound, folded))
    make = TABLE.factory(("tpair", i1.op, i2.op, folded), _TERM, build)
    return make(i1, pc1, i2, pc2)


# ---------------------------------------------------------------------------
# predecoded program + block cache
# ---------------------------------------------------------------------------

class ThreadedProgram:
    """Predecoded form of one linked program.

    ``steps`` is the per-pc dispatch array of bound closures.  ``blocks``
    memoizes basic blocks lazily: any 8-aligned code address can become a
    block entry (indirect jumps and the violation handler land anywhere),
    so blocks are built on first dispatch rather than by static CFG
    discovery.  The artifact holds no VM state and is safely shared
    between VM instances and threads — concurrent block construction for
    the same entry produces identical tuples and the final list store is
    atomic.
    """

    __slots__ = ("instrs", "steps", "blocks", "length")

    def __init__(self, program):
        instrs = program.instrs
        self.instrs = instrs
        self.length = len(instrs)
        self.steps = [
            _compile_step(instr, CODE_BASE + i * INSTR_SIZE)
            for i, instr in enumerate(instrs)
        ]
        self.blocks: list[tuple | None] = [None] * len(instrs)

    def build_block(self, index):
        """Build (and memoize) the basic block entered at *index*.

        A block is ``(body, body_count, term, term_pc, term_count,
        fused)``: a tuple of straight-line closures, the number of
        instructions they cover, the terminator closure (None when the
        block falls off the end of the code segment), the terminator's
        pc, the number of instructions the terminator covers (2 for a
        fused terminator pair), and the number of fused pairs.
        """
        instrs = self.instrs
        steps = self.steps
        n = self.length
        body = []
        body_count = 0
        fused = 0
        term = None
        term_pc = CODE_BASE + n * INSTR_SIZE
        term_count = 0
        i = index
        while i < n:
            pc = CODE_BASE + i * INSTR_SIZE
            is_term, fn = steps[i]
            if is_term:
                term = fn
                term_pc = pc
                term_count = 1
                break
            nxt = i + 1
            if nxt < n:
                pair = (instrs[i].op, instrs[nxt].op)
                if steps[nxt][0]:
                    if pair in _TERM_FUSE:
                        term = _fuse_term(instrs[i], instrs[nxt], pc,
                                          pc + INSTR_SIZE)
                        term_pc = pc
                        term_count = 2
                        fused += 1
                        break
                elif pair in _BODY_FUSE:
                    body.append(_fuse_body(instrs[i], instrs[nxt], pc,
                                           pc + INSTR_SIZE))
                    body_count += 2
                    fused += 1
                    i += 2
                    continue
            if fn is not None:
                body.append(fn)
            body_count += 1
            i += 1
        block = (tuple(body), body_count, term, term_pc, term_count, fused)
        self.blocks[index] = block
        return block


def predecode_program(program) -> ThreadedProgram:
    """Run the predecode pass, reporting ``execute.predecode_ms``."""
    start = time.perf_counter()
    threaded = ThreadedProgram(program)
    if metrics.active():
        metrics.count("execute.predecode_ms",
                      (time.perf_counter() - start) * 1000.0)
    return threaded


# ---------------------------------------------------------------------------
# the threaded VM
# ---------------------------------------------------------------------------

class ThreadedVM(OmniVM):
    """OmniVM with the threaded-code dispatch loop.

    Semantics match the reference interpreter bit-for-bit on the
    difftest corpus; the only relaxation is fuel granularity — fuel and
    ``instret`` are charged per basic block, so :class:`FuelExhausted`
    (and the service watchdog's deadline cut, which zeroes ``fuel``
    asynchronously) land at the next block boundary, at most one block
    late.  A program that *completes* at exactly its fuel budget still
    completes, as under the legacy engine.

    When ``count_opcodes`` is set the VM falls back to the legacy
    per-instruction loop so instruction-mix instrumentation observes
    every opcode individually (fusion would otherwise fold pairs).
    """

    def __init__(self, program, memory, hostcall=None, fuel=50_000_000,
                 threaded: ThreadedProgram | None = None):
        super().__init__(program, memory, hostcall, fuel)
        self._threaded = (threaded if threaded is not None
                          else predecode_program(program))
        self._blocks_run = 0
        self._fused_run = 0

    def run(self, entry=None):
        blocks_before = self._blocks_run
        fused_before = self._fused_run
        try:
            return super().run(entry)
        finally:
            if metrics.active():
                blocks = self._blocks_run - blocks_before
                fused = self._fused_run - fused_before
                if blocks:
                    metrics.count("execute.blocks", blocks)
                if fused:
                    metrics.count("execute.fused", fused)

    def _run_loop(self, state, instrs, sentinel):
        if self.count_opcodes:
            # Instruction-mix instrumentation needs per-instruction
            # dispatch; the legacy loop is the measurement path.
            return OmniVM._run_loop(self, state, instrs, sentinel)
        program = self._threaded
        blocks = program.blocks
        build = program.build_block
        n = program.length
        regs = state.regs
        fregs = state.fregs
        memory = self.memory
        blocks_run = 0
        fused_run = 0
        try:
            while not state.halted:
                pc = state.pc
                if pc == sentinel:
                    break
                offset = pc - CODE_BASE
                index = offset >> 3
                if offset & 7 or index < 0 or index >= n:
                    raise AccessViolation(
                        f"execute at bad address {pc:#010x}", pc, "execute"
                    )
                block = blocks[index]
                if block is None:
                    block = build(index)
                body, body_count, term, term_pc, term_count, fused = block
                blocks_run += 1
                fused_run += fused
                try:
                    for fn in body:
                        fn(regs, fregs, memory)
                except AccessViolation as violation:
                    # The faulting closure annotated its own pc; charge
                    # exactly the retired prefix, then deliver.
                    fault_pc = violation.fault_pc
                    state.instret += ((fault_pc - pc) >> 3) + 1
                    state.pc = fault_pc
                    self._deliver_violation(violation)
                    if state.instret > self.fuel:
                        raise FuelExhausted(
                            f"exceeded fuel of {self.fuel} instructions"
                        )
                    continue
                except VMRuntimeError as err:
                    fault_pc = getattr(err, "fault_pc", None)
                    if fault_pc is not None:
                        state.instret += ((fault_pc - pc) >> 3) + 1
                        state.pc = fault_pc
                    raise
                state.instret += body_count + term_count
                state.pc = term_pc
                if term is not None:
                    try:
                        state.pc = term(self, state, regs)
                    except AccessViolation as violation:
                        # A faulting fused terminator (or a hostcall that
                        # faulted reading module memory): roll instret
                        # back to the retired prefix, then deliver.
                        fault_pc = getattr(violation, "fault_pc", term_pc)
                        retired = ((fault_pc - term_pc) >> 3) + 1
                        state.instret -= term_count - retired
                        state.pc = fault_pc
                        self._deliver_violation(violation)
                        if state.instret > self.fuel:
                            raise FuelExhausted(
                                f"exceeded fuel of {self.fuel} instructions"
                            )
                        continue
                if state.instret > self.fuel and not state.halted:
                    raise FuelExhausted(
                        f"exceeded fuel of {self.fuel} instructions"
                    )
        finally:
            self._blocks_run += blocks_run
            self._fused_run += fused_run
        return s32(state.regs[1]) if not state.halted else state.exit_code
