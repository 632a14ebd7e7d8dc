"""Trace-based superblock JIT tier for OmniVM.

The threaded engine (:mod:`repro.omnivm.threaded`) predecodes every
instruction into a bound closure and batches straight-line runs into
basic blocks, but each dynamic instruction still costs at least one
Python call.  This module adds the third tier the ROADMAP names: when a
block entry crosses a heat threshold, the hot chain is stitched across
likely-taken branches into a **superblock** — one entry, many exits —
and the whole superblock is compiled to a *single* generated Python
function via source generation + ``compile()``/``exec``.  Register
indexes, immediates, guard constants and fault pcs are folded into the
emitted source as literals, so a hot loop iteration executes as one
Python frame with no per-instruction dispatch at all.

Tiering contract (the deopt contract):

* superblocks are entered only at their entry pc; every **side exit**
  (mispredicted guard, indirect jump, return, host halt, trace limit)
  commits exact architectural state — ``state.pc`` and
  ``state.instret`` — before returning to the threaded tier, which
  resumes as if it had executed every instruction itself; a
  mispredicted guard also counts one ``execute.deopts``;
* faults inside a superblock (access violations, division traps,
  ``trap``) commit the exact retired prefix and annotate ``fault_pc``
  with the faulting instruction's pc, byte-identical to the threaded
  engine's block fault accounting;
* loop-shaped superblocks close back on their entry and check fuel at
  the backedge, so block-level fuel cuts (including the service
  watchdog's asynchronous ``fuel = -1``) still land promptly.  Fuel
  granularity is the one documented relaxation, as for the threaded
  tier: :class:`~repro.errors.FuelExhausted` lands at the next
  superblock boundary rather than the next basic block.

Trace formation is static and deterministic.  A conditional branch is
resolved three ways, in priority order: an edge back to the trace entry
is predicted toward the entry so loops close regardless of layout (the
front end lays loop tests *below* their bodies, so backedges are often
forward taken branches); a short forward branch over straight-line code
— an ``if``/``then`` or ``if``/``then``/``else`` diamond — has **both
arms inlined** with no side exit at all; anything else falls back to
backward-taken/forward-not-taken with a guarded side exit.  Each
entry's trace is formed once per translation and never re-formed.
Because the two arms of a diamond retire different instruction counts,
a trace containing one switches from compile-time-constant instret
offsets to a runtime retired counter ``_n``, synced once per arm at
each join.  The emitted source for a given program remains a pure
function of the instruction stream — two predecode runs of the same
program produce byte-identical superblock source (pinned by tests; no
``id()`` or hash/dict iteration order may leak into the emitted code).

Compiled superblocks receive the register files and memory as
arguments, but each keeps its per-site inline memory caches in the
cells of its ``_make_superblock`` closure — that is VM state.  So the
program's :class:`~repro.jitcore.JitState`, carried by its predecoded
:class:`~repro.omnivm.threaded.ThreadedProgram`, shares the compiled
*factory* between VM instances, and each VM calls it for a closure of
its own (see :class:`repro.jitcore.SuperblockTier`).  The state is
cached, evicted and invalidated with the artifact, under the
program's one cache key (:func:`repro.cache.cache_key`, arch
``"omnivm"``).
"""

from __future__ import annotations

from repro.jitcore import (
    FLUSH as _FLUSH,
    JIT_HEAT,
    MAX_TRACE_BLOCKS,
    MAX_TRACE_INSTRS,
    Acct as _Acct,
    Emitter as _Emitter,
    SuperblockTier,
    assemble,
    base_exec_globals,
    emit_fuel_check,
    emit_lines,
    emit_mem_access,
)
from repro.omnivm.isa import INSTR_SIZE, REG_RA
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.ops import OPS, TABLE, fold_branch
from repro.omnivm.threaded import BLOCK_ENDS, ThreadedVM
from repro.optable import DIV, FPDIV, FPDIV_RAISE, MEM
from repro.utils.bits import u32

#: Longest arm (in instructions) an inlined branch diamond may have.
MAX_DIAMOND_ARM = 8

__all__ = [
    "JIT_HEAT",
    "JitVM",
    "compile_superblock",
    "superblock_source",
]

#: Names the generated source may reference; a fresh copy becomes the
#: module namespace of each exec'd superblock (shared with the native
#: JIT — see :func:`repro.jitcore.base_exec_globals`).
_EXEC_GLOBALS = base_exec_globals()

#: Binary FP arithmetic: a diamond is not inlined when one follows its
#: join in the same block.  Only ``fdiv`` can trap (unattributed, so
#: per threaded block, which differs per arm past a join); the wider
#: set keeps the formed traces, and so their source, stable.
_FP_TRAPPING = ("fadd", "fsub", "fmul", "fdiv")


def _emit_commit(em, acct, offset, pc, depth=0):
    em.emit(f"state.instret += {acct.expr(offset)}", depth)
    em.emit(f"state.pc = {pc:#x}", depth)


# ---------------------------------------------------------------------------
# straight-line instruction emission
# ---------------------------------------------------------------------------

def _emit_mem_guard(em, acct, pc, offset, depth=0):
    """The access-violation wrapper every slow-path access carries."""
    em.emit("except AccessViolation as violation:", depth)
    em.emit(f"violation.fault_pc = {pc:#x}", depth + 1)
    _emit_commit(em, acct, offset, pc, depth + 1)
    em.emit("raise", depth + 1)


def _emit_body_instr(em, acct, instr, pc, offset, nb, block_pc):
    """Emit one straight-line instruction from its op-table statement.

    ``offset`` counts instructions retired *through this one* since the
    accounting base point; ``nb``/``block_pc`` identify the enclosing
    threaded basic block for unattributed-trap accounting.
    """
    op = OPS[instr.op]
    parts = TABLE.render(instr)
    if op.fault == MEM:
        emit_mem_access(em, op.access, parts[0], parts[1], 0,
                        lambda depth: _emit_mem_guard(em, acct, pc, offset,
                                                      depth))
    elif op.fault == DIV:
        em.emit("try:")
        emit_lines(em, parts[0], 1)
        em.emit("except VMRuntimeError as err:")
        em.emit(f"    err.fault_pc = {pc:#x}")
        _emit_commit(em, acct, offset, pc, 1)
        em.emit("    raise")
    elif op.fault == FPDIV:
        # FP traps are unattributed in the threaded tier: instret stays
        # at the previous block boundary and pc at the block entry.
        em.emit(f"if {parts[1]}:")
        _emit_commit(em, acct, nb, block_pc, 1)
        em.emit("    " + FPDIV_RAISE)
        emit_lines(em, parts[0])
    else:
        emit_lines(em, parts[0])


# ---------------------------------------------------------------------------
# conditional branches: folds, inlined diamonds, guarded side exits
# ---------------------------------------------------------------------------

def _emit_side_exit(em, acct, offset, pc, depth=0):
    _emit_commit(em, acct, offset, pc, depth)
    em.emit("return", depth)


def _straight_line(instrs, start, stop):
    """True when ``instrs[start:stop]`` contains no terminator."""
    for k in range(start, stop):
        if instrs[k].op in BLOCK_ENDS:
            return False
    return True


def _join_blocks_fp_trap(instrs, n, join):
    """True when a trapping FP op appears between *join* and the next
    terminator.  Past a join the enclosing threaded block differs per
    arm, and FP traps are *block*-attributed, so such a region cannot
    share one emission for both arms."""
    k = join
    while k < n:
        instr = instrs[k]
        if instr.op in BLOCK_ENDS:
            return False
        if instr.spec.kind == "falu" and instr.op[:-1] in _FP_TRAPPING:
            return True
        k += 1
    return False


def _find_diamond(instrs, n, pc, target):
    """Recognise a short forward branch over straight-line code.

    Returns ``None`` or ``(join_index, fall_arm, taken_arm, jump)``
    where the arms are ``(start_index, stop_index)`` instruction ranges
    (the taken arm is empty for a plain if/then) and ``jump`` is True
    when the fall arm additionally retires a ``jump`` to the join.
    """
    fall = pc + INSTR_SIZE
    if target <= fall or (target - CODE_BASE) & 7:
        return None
    fall_i = (fall - CODE_BASE) >> 3
    t_i = (target - CODE_BASE) >> 3
    if t_i >= n or t_i - fall_i > MAX_DIAMOND_ARM:
        return None
    if _straight_line(instrs, fall_i, t_i):
        # if/then: the branch skips the arm.
        if _join_blocks_fp_trap(instrs, n, t_i):
            return None
        return t_i, (fall_i, t_i), (t_i, t_i), False
    # if/then/else: fall arm ends in a jump to the join; the taken arm
    # is laid out at the branch target and falls into the join.
    tail = instrs[t_i - 1]
    if tail.spec.kind != "jump" or not _straight_line(instrs, fall_i,
                                                      t_i - 1):
        return None
    join = u32(tail.imm)
    if join < target or (join - CODE_BASE) & 7:
        return None
    j_i = (join - CODE_BASE) >> 3
    if j_i >= n or j_i - t_i > MAX_DIAMOND_ARM:
        return None
    if not _straight_line(instrs, t_i, j_i):
        return None
    if _join_blocks_fp_trap(instrs, n, j_i):
        return None
    return j_i, (fall_i, t_i - 1), (t_i, j_i), True


def _emit_arm(em, acct, instrs, arm, offset, block_pc, depth):
    """Emit one diamond arm (its own threaded block, entered at
    *block_pc* with *offset* instructions retired)."""
    sub = _Emitter(em)
    start, stop = arm
    aoff = offset
    for k in range(start, stop):
        pc = CODE_BASE + k * INSTR_SIZE
        aoff += 1
        _emit_body_instr(sub, acct, instrs[k], pc, aoff, offset, block_pc)
    pad = "    " * depth
    em.lines.extend(pad + line for line in sub.lines)
    return aoff


def _emit_branch(em, acct, instrs, n, instr, pc, offset, entry_pc):
    """Emit a conditional branch and return ``(continuation_pc,
    new_offset, extra_instrs)``.

    *offset* counts retired instructions including this branch.  Most
    branches become a guarded side exit and leave the offset alone; an
    inlined diamond resets it to zero (the join becomes the new
    accounting base) and reports how many arm instructions it emitted.
    """
    target = u32(instr.imm)
    fall = pc + INSTR_SIZE
    folded = fold_branch(instr)
    if folded is not None:
        return (target if folded else fall), offset, 0
    taken, untaken = TABLE.render(instr)
    # Loop closure has priority: an edge back to the trace entry is a
    # backedge regardless of layout, so predict toward the entry.
    if target == entry_pc:
        predict_taken = True
    elif fall == entry_pc:
        predict_taken = False
    else:
        diamond = _find_diamond(instrs, n, pc, target)
        if diamond is not None:
            join_i, fall_arm, taken_arm, jump = diamond
            if fall_arm[0] == fall_arm[1] and taken_arm[0] == taken_arm[1] \
                    and not jump:
                # Branch to the next instruction: both paths agree.
                return target, offset, 0
            sync = "_n +=" if acct.runtime else "_n ="
            taken_len = taken_arm[1] - taken_arm[0]
            fall_len = fall_arm[1] - fall_arm[0] + (1 if jump else 0)
            em.emit(f"if {taken}:")
            _emit_arm(em, acct, instrs, taken_arm, offset, target, 1)
            em.emit(f"{sync} {offset + taken_len}", 1)
            em.emit("else:")
            _emit_arm(em, acct, instrs, fall_arm, offset, fall, 1)
            em.emit(f"{sync} {offset + fall_len}", 1)
            acct.runtime = True
            return (CODE_BASE + join_i * INSTR_SIZE, 0,
                    taken_len + fall_len)
        predict_taken = target <= pc
    exit_pc = fall if predict_taken else target
    em.emit(f"if {untaken if predict_taken else taken}:")
    em.emit("vm._jit_deopts += 1", 1)  # the prediction was wrong
    _emit_side_exit(em, acct, offset, exit_pc, 1)
    return (target if predict_taken else fall), offset, 0


# ---------------------------------------------------------------------------
# trace formation + source generation
# ---------------------------------------------------------------------------

def superblock_source(program, entry_index: int) -> str:
    """Form the superblock entered at *entry_index* and generate its
    Python source.  Deterministic: the output is a pure function of
    ``program.instrs`` and the entry (pinned by the determinism test).
    """
    instrs = program.instrs
    n = program.length
    em = _Emitter()
    acct = _Acct()
    entry_pc = CODE_BASE + entry_index * INSTR_SIZE
    end_pc = CODE_BASE + n * INSTR_SIZE

    visited: set[int] = set()
    index = entry_index
    off = 0    # instructions retired since the accounting base
    total = 0  # instructions emitted, for the header and trace limits
    looped = False
    open_trace = True
    while open_trace:
        if index in visited:
            if index == entry_index:
                looped = True
            else:
                pc = CODE_BASE + index * INSTR_SIZE
                em.emit(f"# rejoin @{pc:#010x}: exit to the threaded tier")
                _emit_side_exit(em, acct, off, pc)
            break
        if len(visited) >= MAX_TRACE_BLOCKS or total >= MAX_TRACE_INSTRS:
            pc = CODE_BASE + index * INSTR_SIZE
            em.emit(f"# trace limit @{pc:#010x}: exit to the threaded tier")
            _emit_side_exit(em, acct, off, pc)
            break
        visited.add(index)
        nb = off
        block_pc = CODE_BASE + index * INSTR_SIZE
        em.emit(f"# block @{block_pc:#010x}")
        # -- straight-line body ------------------------------------------
        i = index
        instr = None
        while i < n:
            instr = instrs[i]
            if instr.op in BLOCK_ENDS:
                break
            pc = CODE_BASE + i * INSTR_SIZE
            off += 1
            total += 1
            _emit_body_instr(em, acct, instr, pc, off, nb, block_pc)
            i += 1
        else:
            # Fell off the end of the code segment: the threaded tier
            # resolves this as an execute fault at the end address.
            _emit_side_exit(em, acct, off, end_pc)
            break
        # -- terminator --------------------------------------------------
        pc = CODE_BASE + i * INSTR_SIZE
        kind = instr.spec.kind
        op = instr.op
        next_pc = pc + INSTR_SIZE
        off += 1
        total += 1
        if kind in ("branch", "branchi"):
            cont, off, extra = _emit_branch(em, acct, instrs, n, instr,
                                            pc, off, entry_pc)
            total += extra
        elif kind == "jump":
            cont = u32(instr.imm)
        elif kind == "call":
            em.emit(f"regs[{REG_RA}] = {next_pc:#x}")
            cont = u32(instr.imm)
        elif kind in ("ijump", "icall"):
            if kind == "icall":
                em.emit(f"regs[{REG_RA}] = {next_pc:#x}")
            em.emit(f"state.instret += {acct.expr(off)}")
            em.emit(f"state.pc = regs[{instr.rs}]")
            em.emit("return")
            break
        elif kind == "host":
            em.emit("if vm.hostcall is None:")
            _emit_commit(em, acct, off, pc, 1)
            em.emit("    raise VMRuntimeError("
                    "'module made a hostcall but no host is attached')")
            em.emit("try:")
            em.emit(f"    vm.hostcall(vm, {instr.imm})")
            em.emit("except AccessViolation as violation:")
            em.emit("    _fp = getattr(violation, 'fault_pc', None)")
            em.emit("    if _fp is None:")
            em.emit(f"        _fp = {pc:#x}")
            em.emit("        violation.fault_pc = _fp", 0)
            em.emit(f"    state.instret += {acct.expr(off)}")
            em.emit("    state.pc = _fp")
            em.emit("    raise")
            # Host services may change segment permissions; drop every
            # inline-cache site (expanded at assembly time, once the
            # full site list is known — a loop can revisit sites that
            # are emitted after this hostcall).
            em.emit(_FLUSH)
            em.emit("if state.halted:")
            _emit_commit(em, acct, off, next_pc, 1)
            em.emit("    return")
            cont = next_pc
        elif op == "trap":
            _emit_commit(em, acct, off, pc)
            em.emit(TABLE.render(instr)[0])
            break
        else:  # sethnd
            em.emit(TABLE.render(instr)[0])
            cont = next_pc
        # -- continuation ------------------------------------------------
        offset = cont - CODE_BASE
        if offset & 7 or offset < 0 or (offset >> 3) >= n:
            # Out-of-segment continuation: the threaded dispatcher owns
            # the resulting execute fault (or sentinel stop).
            _emit_side_exit(em, acct, off, cont)
            break
        index = offset >> 3

    if looped:
        # Backedge: commit the iteration, honour block-level fuel cuts
        # (the watchdog zeroes vm.fuel asynchronously), and go again.
        em.emit(f"# backedge -> @{entry_pc:#010x}")
        em.emit(f"state.instret += {acct.expr(off)}")
        emit_fuel_check(em, "state.instret > vm.fuel",
                        [f"state.pc = {entry_pc:#x}"],
                        "'exceeded fuel of %d instructions' % (vm.fuel,)")
    return assemble(em, f"superblock @{entry_pc:#010x}", len(visited),
                    total, "vm, state, regs, fregs, memory", looped=looped)


def compile_superblock(program, entry_index: int):
    """Compile the superblock entered at *entry_index*.

    Returns ``(source, factory)``: each call of the factory (the
    source's ``_make_superblock``) returns a fresh superblock closure
    ``fn(vm, state, regs, fregs, memory)`` with inline caches of its
    own.  The factory binds no VM state, so the program's
    :class:`~repro.jitcore.JitState` shares it across VMs.
    """
    source = superblock_source(program, entry_index)
    entry_pc = CODE_BASE + entry_index * INSTR_SIZE
    code = compile(source, f"<jit-omni@{entry_pc:#010x}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
    exec(code, namespace)
    return source, namespace["_make_superblock"]


# ---------------------------------------------------------------------------
# the tiering VM
# ---------------------------------------------------------------------------

class JitVM(SuperblockTier, ThreadedVM):
    """ThreadedVM with the superblock JIT tier on top.

    Cold blocks run on the threaded tier while the program's per-entry
    heat counters accumulate; entries that reach the heat threshold
    dispatch to their superblock from then on, compiled by the first VM
    of the program to get there — all through the one dispatch loop,
    :meth:`ThreadedVM._run_loop`, and the tier-up path of
    :class:`repro.jitcore.SuperblockTier`.
    """

    _compile_superblock = staticmethod(compile_superblock)
