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
* **basic-block batching** — a straight-line run executes one closure
  per instruction (``nop`` has none) without re-entering the dispatch
  loop, then its terminator's; ``instret`` and the fuel check are
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
closures do not persist to disk).  It carries the superblock JIT's
:class:`~repro.jitcore.JitState` for the program, so the JIT's heat and
compiled superblocks are cached, evicted and invalidated with it.

:meth:`ThreadedVM._run_loop` is the one OmniVM block-dispatch loop: the
superblock JIT (:class:`~repro.omnivm.jit.JitVM`) runs it too, through
the superblock probe at each block entry, which never fires under
``engine="threaded"``.
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
from repro.omnivm.interp import OmniVM
from repro.omnivm.isa import INSTR_SIZE, REG_RA
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.ops import OPS, TABLE, TERMINATORS, fold_branch
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


def _tail(instr, bound, folded):
    """Closure lines for the block terminator *instr*; *folded* is its
    :func:`~repro.omnivm.ops.fold_branch`."""
    name = instr.op
    if name in _TAILS:
        return TABLE.text(_TAILS[name], bound).split("\n")
    if not OPS[name].cond:
        return TABLE.lines(name, bound, "fault_pc")  # trap
    if folded is not None:
        return [TABLE.text("return {target}" if folded else "return {next}",
                           bound)]
    taken = TABLE.text(OPS[name].stmt, bound)
    return [TABLE.text(f"return {{target}} if {taken} else {{next}}", bound)]


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
                             lambda bound: _tail(instr, bound, folded))
        return (True, make(instr, pc))
    if name == "nop":
        return (False, None)
    make = TABLE.factory(name, _BODY, lambda bound: TABLE.lines(
        name, bound, "fault_pc"))
    return (False, make(instr, pc))


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
    atomic.  ``jit`` is the JIT state every :class:`~repro.omnivm.jit.JitVM`
    running the program shares.
    """

    __slots__ = ("instrs", "steps", "blocks", "length", "jit")

    def __init__(self, program):
        instrs = program.instrs
        self.instrs = instrs
        self.length = len(instrs)
        self.steps = [
            _compile_step(instr, CODE_BASE + i * INSTR_SIZE)
            for i, instr in enumerate(instrs)
        ]
        self.blocks: list[tuple | None] = [None] * len(instrs)
        self.jit = JitState(self.length)

    def build_block(self, index):
        """Build (and memoize) the basic block entered at *index*.

        A block is ``(body, count, term, term_pc)``: a tuple of
        straight-line closures, one per instruction but ``nop``, the
        number of instructions the block covers (its terminator
        included), the terminator closure (None when the block falls off
        the end of the code segment) and the terminator's pc.
        """
        steps = self.steps
        n = self.length
        body = []
        term = None
        i = index
        while i < n:
            is_term, fn = steps[i]
            if is_term:
                term = fn
                break
            if fn is not None:
                body.append(fn)
            i += 1
        count = i - index if term is None else i - index + 1
        block = (tuple(body), count, term, CODE_BASE + i * INSTR_SIZE)
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

class ThreadedVM(BlockDispatch, OmniVM):
    """OmniVM with the threaded-code dispatch loop.

    Semantics match the reference interpreter bit-for-bit on the
    difftest corpus; the only relaxation is fuel granularity — fuel and
    ``instret`` are charged per basic block, so :class:`FuelExhausted`
    (and the service watchdog's deadline cut, which zeroes ``fuel``
    asynchronously) land at the next block boundary, at most one block
    late.  A program that *completes* at exactly its fuel budget still
    completes, as under the legacy engine.
    """

    def __init__(self, program, memory, hostcall=None, fuel=50_000_000,
                 threaded: ThreadedProgram | None = None):
        super().__init__(program, memory, hostcall, fuel)
        self._threaded = (threaded if threaded is not None
                          else predecode_program(program))
        self._init_dispatch(self._threaded.length)

    def _run_loop(self, state, instrs, sentinel):
        program = self._threaded
        blocks = program.blocks
        build = program.build_block
        n = program.length
        regs = state.regs
        fregs = state.fregs
        memory = self.memory
        heat = self._heat
        threshold = self._jit_heat
        sb_get = self._superblocks.get
        blocks_run = 0
        sb_run = 0
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
                # -- superblock probe (repro.jitcore.SuperblockTier) -----
                fn = sb_get(index)
                if fn is None:
                    h = heat[index] + 1
                    heat[index] = h
                    if h >= threshold:
                        fn = self._compile_entry(index)
                if fn is not None:
                    sb_run += 1
                    try:
                        fn(self, state, regs, fregs, memory)
                    except AccessViolation as violation:
                        # The superblock committed the retired prefix and
                        # fault pc before raising; deliver like a block.
                        self._deliver_violation(violation)
                    if state.instret > self.fuel and not state.halted:
                        raise FuelExhausted(
                            f"exceeded fuel of {self.fuel} instructions"
                        )
                    continue
                # -- threaded tier -----------------------------------------
                block = blocks[index]
                if block is None:
                    block = build(index)
                body, count, term, term_pc = block
                blocks_run += 1
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
                state.instret += count
                state.pc = term_pc
                if term is not None:
                    try:
                        state.pc = term(self, state, regs)
                    except AccessViolation as violation:
                        # Only a hostcall faults here, reading module
                        # memory, and ``state.pc`` is already its pc.
                        self._deliver_violation(violation)
                if state.instret > self.fuel and not state.halted:
                    raise FuelExhausted(
                        f"exceeded fuel of {self.fuel} instructions"
                    )
        finally:
            self._blocks_run += blocks_run
            self._superblocks_run += sb_run
        return s32(state.regs[1]) if not state.halted else state.exit_code
