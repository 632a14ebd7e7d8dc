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
  resumes as if it had executed every instruction itself;
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
backward-taken/forward-not-taken with a guarded side exit.  Because the
two arms of a diamond retire different instruction counts, a trace
containing one switches from compile-time-constant instret offsets to a
runtime retired counter ``_n``, synced once per arm at each join.  The
emitted source for a given program remains a pure function of the
instruction stream — two predecode runs of the same program produce
byte-identical superblock source (pinned by tests; no ``id()`` or
hash/dict iteration order may leak into the emitted code).

Compiled superblocks bind no VM state (they receive the register files
and memory as arguments), so — like the predecode artifact — they are
shared between VM instances via the in-memory predecode side table of
:class:`~repro.cache.TranslationCache` under ``("jit-omni", digest,
entry)`` keys, which module revocation invalidates together with the
``("predecode-*", ...)`` entries.
"""

from __future__ import annotations

import time

from repro import metrics
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
)
from repro.jitcore import (
    FLUSH as _FLUSH,
    JIT_HEAT,
    MAX_TRACE_BLOCKS,
    MAX_TRACE_INSTRS,
    Acct as _Acct,
    Emitter as _Emitter,
    SideExitPromotion,
    base_exec_globals,
    cache_cells,
    emit_lines,
    emit_mem_access,
)
from repro.omnivm.interp import OmniVM
from repro.omnivm.isa import INSTR_SIZE, REG_RA
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.ops import OPS, TABLE, fold_branch
from repro.omnivm.threaded import BLOCK_ENDS, ThreadedVM
from repro.optable import DIV, FPDIV, FPDIV_RAISE, MEM
from repro.utils.bits import s32, u32

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

def _emit_side_exit(em, acct, offset, pc, depth=0, deopt=None):
    if deopt:
        # A guarded deopt notifies the promotion policy (which also
        # counts it) so hot side exits can be re-formed; *deopt* is the
        # pre-built ``vm._note_exit(...)`` statement.
        em.emit(deopt, depth)
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


def _emit_branch(em, acct, instrs, n, instr, pc, offset, entry_pc,
                 entry_index, overrides):
    """Emit a conditional branch and return ``(continuation_pc,
    new_offset, extra_instrs)``.

    *offset* counts retired instructions including this branch.  Most
    branches become a guarded side exit and leave the offset alone; an
    inlined diamond resets it to zero (the join becomes the new
    accounting base) and reports how many arm instructions it emitted.
    *overrides* maps branch pcs to promoted predictions (see
    :class:`repro.jitcore.SideExitPromotion`); they replace only the
    BTFN default — loop closure and diamonds keep priority.
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
        if pc in overrides:
            predict_taken = overrides[pc]
        else:
            predict_taken = target <= pc
    exit_pc = fall if predict_taken else target
    em.emit(f"if {untaken if predict_taken else taken}:")
    _emit_side_exit(em, acct, offset, exit_pc, 1,
                    deopt=f"vm._note_exit({entry_index}, {pc:#x}, "
                          f"{not predict_taken}, {exit_pc:#x})")
    return (target if predict_taken else fall), offset, 0


# ---------------------------------------------------------------------------
# trace formation + source generation
# ---------------------------------------------------------------------------

def superblock_source(program, entry_index: int, overrides=None) -> str:
    """Form the superblock entered at *entry_index* and generate its
    Python source.  Deterministic: the output is a pure function of
    ``program.instrs``, the entry, and the (per-VM) prediction
    *overrides* (pinned by the determinism test).
    """
    overrides = overrides or {}
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
                                            pc, off, entry_pc,
                                            entry_index, overrides)
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

    # -- assemble ---------------------------------------------------------
    # The superblock is a closure: the inline-cache sites live in cells
    # of the enclosing ``_make_superblock`` scope, so they survive
    # across invocations — a short trace dispatched thousands of times
    # warms each site once, not once per call.  The entry guard flushes
    # every site when the function is handed a different Memory (the
    # compiled fn is shared across VMs of the same program content) or
    # when segment permissions changed since the last call.
    cells, invalidate = cache_cells(em)
    out = [f"# superblock @{entry_pc:#010x} "
           f"({len(visited)} blocks, {total} instrs"
           f"{', looped' if looped else ''})",
           "def _make_superblock():"]
    body = "    "
    if cells:
        out.append("    _mem = None")
        out.append("    _ep = 0")
        out.append(f"    {invalidate} = 0")
        names = " = ".join(f"_ld{s}" for s in em.load_sites)
        if names:
            out.append(f"    {names} = None")
        names = " = ".join(f"_sd{s}" for s in em.store_sites)
        if names:
            out.append(f"    {names} = None")
    out.append("    def _superblock(vm, state, regs, fregs, memory):")
    body = "        "
    if cells:
        decl = ["_mem", "_ep"] + cells
        for i in range(0, len(decl), 8):
            out.append(body + "nonlocal " + ", ".join(decl[i:i + 8]))
        out.append(body + "if _mem is not memory "
                          "or _ep != memory.perm_epoch:")
        out.append(body + "    _mem = memory")
        out.append(body + "    _ep = memory.perm_epoch")
        out.append(body + f"    {invalidate} = 0")
    pad = body
    if looped:
        out.append(body + "while True:")
        pad = body + "    "
    for line in em.lines:
        if line.lstrip() == _FLUSH:
            if cells:
                indent = line[:len(line) - len(line.lstrip())]
                out.append(pad + indent + invalidate + " = 0")
                out.append(pad + indent + "_ep = memory.perm_epoch")
            continue
        out.append(pad + line)
    if looped:
        # Backedge: commit the iteration, honour block-level fuel cuts
        # (the watchdog zeroes vm.fuel asynchronously), and go again.
        out.append(pad + f"# backedge -> @{entry_pc:#010x}")
        out.append(pad + f"state.instret += {acct.expr(off)}")
        out.append(pad + "if state.instret > vm.fuel:")
        out.append(pad + f"    state.pc = {entry_pc:#x}")
        out.append(pad + "    raise FuelExhausted("
                   "'exceeded fuel of %d instructions' % (vm.fuel,))")
    out.append("    return _superblock")
    out.append("_superblock = _make_superblock()")
    return "\n".join(out) + "\n"


def compile_superblock(program, entry_index: int, overrides=None):
    """Compile the superblock entered at *entry_index*.

    Returns ``(source, function)``; the function has the signature
    ``fn(vm, state, regs, fregs, memory)`` and binds no VM state, so it
    is shareable across VMs (and cacheable under ``("jit-omni", digest,
    entry)`` keys — but only when compiled without *overrides*, which
    encode one VM's runtime profile).
    """
    source = superblock_source(program, entry_index, overrides)
    entry_pc = CODE_BASE + entry_index * INSTR_SIZE
    code = compile(source, f"<jit-omni@{entry_pc:#010x}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
    exec(code, namespace)
    return source, namespace["_superblock"]


def _path_reaches(instrs, n, start, entry, limit=MAX_TRACE_BLOCKS):
    """Bounded DFS over the static block graph: can control flow from
    block *start* get back to block *entry* without an indirect jump?
    Used by the promotion policy to tell a mispredicted cycle (worth
    re-forming the trace) from a genuine trace departure."""
    seen: set[int] = set()
    stack = [start]
    while stack and len(seen) < limit:
        idx = stack.pop()
        if idx == entry:
            return True
        if idx in seen or idx < 0 or idx >= n:
            continue
        seen.add(idx)
        i = idx
        while i < n:
            instr = instrs[i]
            if instr.op in BLOCK_ENDS:
                break
            i += 1
        else:
            continue
        instr = instrs[i]
        kind = instr.spec.kind
        if kind in ("branch", "branchi"):
            t = u32(instr.imm) - CODE_BASE
            if not t & 7:
                stack.append(t >> 3)
            stack.append(i + 1)
        elif kind in ("jump", "call"):
            t = u32(instr.imm) - CODE_BASE
            if not t & 7:
                stack.append(t >> 3)
        elif kind == "host" or instr.op == "sethnd":
            stack.append(i + 1)
        # ijump / icall / trap: the walk stops.
    return False


# ---------------------------------------------------------------------------
# the tiering VM
# ---------------------------------------------------------------------------

class JitVM(SideExitPromotion, ThreadedVM):
    """ThreadedVM with the superblock JIT tier on top.

    Cold blocks run on the inherited threaded tier while per-entry heat
    counters accumulate; entries that reach ``heat`` dispatches are
    compiled (or fetched from the shared side table) and dispatch to
    their superblock from then on.  ``count_opcodes`` still forces the
    legacy per-instruction loop, exactly as for :class:`ThreadedVM`.
    Guarded side exits that themselves cross the heat threshold are
    promoted (see :class:`repro.jitcore.SideExitPromotion`): the trace
    is re-formed with the hot direction on trace, or — when the exit
    genuinely leaves the trace's cycle — a trace is anchored at the
    exit target without waiting out the dispatch heat ramp.
    """

    def __init__(self, program, memory, hostcall=None, fuel=50_000_000,
                 threaded=None, cache=None, digest=None, heat=JIT_HEAT):
        super().__init__(program, memory, hostcall, fuel, threaded=threaded)
        self._jit_cache = cache
        self._jit_digest = digest
        self._jit_heat = heat
        self._heat = [0] * self._threaded.length
        self._superblocks: dict[int, object] = {}
        self._jit_sources: dict[int, str] = {}
        self._superblocks_run = 0
        self._superblocks_compiled = 0
        self._jit_deopts = 0
        self._jit_compile_ms = 0.0
        profile = None
        if cache is not None and digest is not None:
            profile_key = ("jit-profile-omni", digest)
            profile = cache.probe_predecoded(profile_key)
            if profile is None:
                profile = self.fresh_profile()
                cache.put_predecoded(profile_key, profile)
        self._init_promotion(profile)
        # Adopted-profile entries dispatch straight to their promoted
        # superblocks (the plain warm path would find the unpromoted
        # form under the ("jit-omni", …) keys).
        self._superblocks.update(self._promoted_fns)

    def run(self, entry=None):
        compiled_before = self._superblocks_compiled
        deopts_before = self._jit_deopts
        ms_before = self._jit_compile_ms
        runs_before = self._superblocks_run
        promotions_before = self._jit_promotions
        try:
            return super().run(entry)
        finally:
            if metrics.active():
                compiled = self._superblocks_compiled - compiled_before
                if compiled:
                    metrics.count("execute.superblocks", compiled)
                deopts = self._jit_deopts - deopts_before
                if deopts:
                    metrics.count("execute.deopts", deopts)
                ms = self._jit_compile_ms - ms_before
                if ms:
                    metrics.count("execute.jit_compile_ms", ms)
                runs = self._superblocks_run - runs_before
                if runs:
                    metrics.count("execute.superblock_runs", runs)
                promotions = self._jit_promotions - promotions_before
                if promotions:
                    metrics.count("execute.jit_promotions", promotions)

    def _compile_entry(self, index):
        """Compile (or fetch from the side table) the superblock at
        *index* and install it in the dispatch map.  Entries with
        promotion overrides are profile-specialized: their compiled
        form travels with the promotion profile, not the plain
        ``("jit-omni", …)`` keys."""
        overrides = self._trace_overrides.get(index)
        cache = self._jit_cache
        key = None
        if overrides:
            fn = self._promoted_fns.get(index)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        elif cache is not None and self._jit_digest is not None:
            key = ("jit-omni", self._jit_digest, index)
            fn = cache.probe_predecoded(key)
            if fn is not None:
                self._superblocks[index] = fn
                return fn
        start = time.perf_counter()
        source, fn = compile_superblock(self._threaded, index, overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        self._superblocks_compiled += 1
        self._jit_sources[index] = source
        self._superblocks[index] = fn
        if overrides:
            self._promoted_fns[index] = fn
        elif key is not None:
            cache.put_predecoded(key, fn)
        return fn

    # -- promotion hooks (repro.jitcore.SideExitPromotion) ---------------

    def _promotion_profitable(self, entry, site, exit_loc):
        instrs = self._threaded.instrs
        n = self._threaded.length
        entry_pc = CODE_BASE + entry * INSTR_SIZE
        b_off = site - CODE_BASE
        if b_off & 7 or not 0 <= (b_off >> 3) < n:
            return False
        branch = instrs[b_off >> 3]
        if u32(branch.imm) == entry_pc or site + INSTR_SIZE == entry_pc:
            # Loop-closure edges are never overridden: their side exit
            # legitimately fires once per superblock entry, and flipping
            # the prediction would destroy the loop trace.
            return False
        e_off = exit_loc - CODE_BASE
        if e_off & 7 or not 0 <= (e_off >> 3) < n:
            return False
        return _path_reaches(instrs, n, e_off >> 3, entry)

    def _repromote_entry(self, entry):
        start = time.perf_counter()
        overrides = self._trace_overrides.get(entry)
        source, fn = compile_superblock(self._threaded, entry, overrides)
        self._jit_compile_ms += (time.perf_counter() - start) * 1000.0
        self._superblocks_compiled += 1
        self._jit_sources[entry] = source
        self._superblocks[entry] = fn
        if overrides:
            self._promoted_fns[entry] = fn
        else:
            # all overrides reverted: the plain trace is current again
            self._promoted_fns.pop(entry, None)

    def _anchor_exit(self, exit_loc):
        off = exit_loc - CODE_BASE
        if off & 7 or not 0 <= (off >> 3) < self._threaded.length:
            return
        index = off >> 3
        if index not in self._superblocks:
            self._compile_entry(index)

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
        heat = self._heat
        threshold = self._jit_heat
        sb_get = self._superblocks.get
        digest = self._jit_digest
        cache_get = (self._jit_cache.probe_predecoded
                     if self._jit_cache is not None and digest is not None
                     else None)
        blocks_run = 0
        fused_run = 0
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
                fn = sb_get(index)
                if fn is None:
                    h = heat[index] + 1
                    heat[index] = h
                    if h >= threshold:
                        fn = self._compile_entry(index)
                    elif h == 1 and cache_get is not None:
                        # Warm process: another VM of the same program
                        # already compiled this entry — install it
                        # without waiting out the heat threshold.
                        fn = cache_get(("jit-omni", digest, index))
                        if fn is not None:
                            self._superblocks[index] = fn
                if fn is not None:
                    # -- superblock tier ---------------------------------
                    sb_run += 1
                    try:
                        fn(self, state, regs, fregs, memory)
                    except AccessViolation as violation:
                        # The superblock committed the retired prefix and
                        # fault pc before raising; deliver like the
                        # threaded tier.
                        self._deliver_violation(violation)
                    if state.instret > self.fuel and not state.halted:
                        raise FuelExhausted(
                            f"exceeded fuel of {self.fuel} instructions"
                        )
                    continue
                # -- threaded tier (identical to ThreadedVM._run_loop) ---
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
            self._superblocks_run += sb_run
        return s32(state.regs[1]) if not state.halted else state.exit_code

