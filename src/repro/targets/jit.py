"""Trace-based superblock JIT tier for the simulated targets.

The native counterpart of :mod:`repro.omnivm.jit`: when a block entry
of the threaded target engine (:mod:`repro.targets.threaded`) crosses a
heat threshold, the hot chain of native blocks is stitched across
likely-taken branches into a **superblock** and compiled to a single
generated Python function.  Register indexes, immediates and category
counts are folded into the emitted source, so a hot loop iteration
executes as one Python frame with no per-instruction dispatch and no
closure chain.

What the generated code keeps bit-identical to the threaded tier
(which is itself bit-identical to the legacy executor):

* **cycle accounting** — charged once per static path, as the threaded
  tier charges once per block.  A path runs from the entry, the loop
  head or the last inlined hostcall to a point where the superblock
  hands its state over: a side exit, a fault handler, a hostcall or
  trap, the run-off-end exit or the backedge.  The trace former
  records the instructions each path charges, in order, with a marker
  for each on-trace taken-branch penalty, builds one
  :class:`~repro.targets.threaded.BlockCharge` for the path at compile
  time, and emits one ``m._charge_block(_cN)`` where the path ends.  A
  superblock thus applies the same memoized charge as the dispatcher:
  the timing state stays on the machine, and the generated code never
  reads or writes the scoreboard or the issue state.
* **SFI dynamic guard chains** — the sandboxing sequences the rewriter
  inserts (``category="sfi"``) are straight-line ALU ops and are
  emitted inline like any other instruction.  The trace former never
  reorders instructions, and it refuses to place a *guarded* side exit
  on a branch that is part of (or immediately follows) a guard chain:
  such a branch ends the trace with an unguarded two-way exit instead,
  so a chain is never split across a deopt and mutated guards fault
  exactly as they do under the threaded tier.
* **per-site inline memory caches** keyed on ``Memory.perm_epoch``
  (shared machinery in :mod:`repro.jitcore`), flushed after inlined
  hostcalls.

Delay slots (MIPS/SPARC) are formed into the trace: the slot of an
on-trace branch executes before the side-exit guard (its fault commits
``pc`` at the branch, exactly like the threaded tier, and propagates to
the host unhandled), annulled untaken branches skip the slot, and the
taken-branch penalty lands after the slot.

The deopt contract matches the omni JIT: every side exit commits
``pc``/``instret``/``cycles``/category counts before returning to the
dispatcher, and a guarded exit the static prediction got wrong also
counts one ``execute.deopts``; faults commit the exact retired prefix
and annotate ``fault_native``; fuel is checked at superblock boundaries
(backedge, hostcall, trap, run-off-end) — the same documented
relaxation as the block-level checks of the threaded tier.  As in the
omni JIT, each entry's trace is formed once per translation and never
re-formed.

Each compiled superblock keeps its per-site inline memory caches in
the cells of its ``_make_superblock`` closure, so the translation's
:class:`~repro.jitcore.JitState`, carried by its predecoded
:class:`~repro.targets.threaded.ThreadedNativeProgram`, shares the
*factory* between machines and each machine calls it for a closure of
its own (see :class:`repro.jitcore.SuperblockTier`).  The path charges
live in the factory's namespace, so machines share their memos, as
they share the threaded tier's.  Digest-filtered invalidation (module
revoke/relink) drops the state together with the predecoded artifact
that carries it (the side-table entry under the translation's cache
key).
"""

from __future__ import annotations

from repro.jitcore import (
    FLUSH as _FLUSH,
    JIT_HEAT,
    MAX_TRACE_BLOCKS,
    MAX_TRACE_INSTRS,
    Emitter as _Emitter,
    SuperblockTier,
    assemble,
    base_exec_globals,
    emit_fuel_check,
    emit_lines,
    emit_mem_access,
)
from repro.optable import DIV, FPDIV, FPDIV_RAISE, MEM
from repro.targets.ops import OPS, TABLE
from repro.targets.threaded import (
    _COND_OPS,
    _JUMP_OPS,
    BlockCharge,
    ThreadedTargetMachine,
    _is_term_op,
)
from repro.utils.bits import u32

#: Assembly-time placeholder for "write the condition codes back to the
#: machine" — expanded once the whole trace is formed, so an exit
#: emitted early in a looped trace also syncs condition codes that a
#: compare later in the iteration wrote.
_SYNC = "_SYNCSTATE_"

__all__ = [
    "JIT_HEAT",
    "JitTargetMachine",
    "compile_native_superblock",
    "native_superblock_source",
]

_EXEC_GLOBALS = base_exec_globals()

#: Ops whose statement reads or writes the condition codes.
_CC_OPS = frozenset(name for name, op in OPS.items()
                    if "{cc" in "".join(op.parts))


class _Unsupported(Exception):
    """Trace formation hit an op outside the emitter's vocabulary."""


# ---------------------------------------------------------------------------
# trace walker state
# ---------------------------------------------------------------------------

class _Trace:
    """Emission state for one native superblock.

    Tracks, entirely at compile time, the retired-but-uncommitted
    instruction count and category tallies, the same at the current
    block's entry (where an FP divide trap commits), and ``path``: the
    instructions the current static path charges, in order, with
    ``None`` for each taken-branch penalty.  ``charges`` holds one
    :class:`~repro.targets.threaded.BlockCharge` per path end; the
    source names the N-th ``_cN``.
    """

    def __init__(self, program, entry):
        self.instrs = program.instrs
        self.n = program.length
        self.timing = program.spec.timing
        self.delay = program.spec.delay_slots
        self.entry = entry
        self.link = program.spec.reserved.get("ra", 31)
        self.em = _Emitter()
        self.uses_cc = False
        self.total = 0
        self.pending = 0
        self.pcats: dict[str, int] = {}
        self.block_entry = entry
        self.block_pending = 0
        self.block_pcats: dict[str, int] = {}
        self.path: list = []
        self.charges: list[BlockCharge] = []

    def retire(self, mi) -> None:
        self.total += 1
        self.pending += 1
        self.pcats[mi.category] = self.pcats.get(mi.category, 0) + 1

    def charge(self, k) -> None:
        """Instruction *k* issues on the current path (a fused one
        issues at no cost and charges nothing)."""
        mi = self.instrs[k]
        if mi.category != "fused":
            self.path.append(mi)

    def start_block(self, index) -> None:
        self.block_entry = index
        self.block_pending = self.pending
        self.block_pcats = dict(self.pcats)

    def commit_reset(self) -> None:
        """An inline hostcall committed and charged everything so far."""
        self.pending = 0
        self.pcats = {}
        self.block_pending = 0
        self.block_pcats = {}
        self.path = []


# ---------------------------------------------------------------------------
# cycle charges
# ---------------------------------------------------------------------------

def _emit_penalty(w, em, depth=0) -> None:
    """An on-trace taken-branch penalty: the next item of the path.  A
    path that has charged nothing yet applies it at once, as the
    dispatcher does: a penalty adds to ``cycles``, which equals the
    issue cursor a path's memo is relative to only after a charge (a
    new machine's ``cycles`` is one past it)."""
    if w.path:
        w.path.append(None)
    else:
        em.emit("m._branch_taken_penalty()", depth)


def _emit_path_charge(w, em, depth=0, penalty=False) -> None:
    """The current path ends here: charge it, and a taken-branch
    penalty after it when *penalty*, with one ``m._charge_block``."""
    if not w.path:
        if penalty:
            em.emit("m._branch_taken_penalty()", depth)
        return
    em.emit(f"m._charge_block(_c{len(w.charges)})", depth)
    w.charges.append(BlockCharge(w.path + [None] if penalty else w.path,
                                 w.timing))


def _emit_fuel_check(em, fuel_exit=()) -> None:
    """The block-boundary fuel check at a superblock boundary."""
    emit_fuel_check(em, "m.instret > m.fuel", fuel_exit,
                    "'target simulation exceeded fuel'")


def _emit_exit_state(w, em, pc, depth=0, pending=None, pcats=None,
                     penalty=False) -> None:
    """Commit architectural state for a side exit / fault / raise: the
    path's charge (with a taken-branch penalty when *penalty*), the
    condition codes (via the ``_SYNC`` placeholder), ``instret``,
    category counts, and ``pc``."""
    _emit_path_charge(w, em, depth, penalty)
    em.emit(_SYNC, depth)
    count = w.pending if pending is None else pending
    cats = w.pcats if pcats is None else pcats
    if count:
        em.emit(f"m.instret += {count}", depth)
    for cat in sorted(cats):
        em.emit(f"_ct[{cat!r}] += {cats[cat]}", depth)
    em.emit(f"m.pc = {pc}", depth)


# ---------------------------------------------------------------------------
# straight-line instruction emission
# ---------------------------------------------------------------------------

def _emit_fault_commit(w, em, k, fault_pc, depth, mark_final) -> None:
    """Handler body for a faulting memory/div access: annotate the
    faulting native index, commit and charge the retired prefix, and
    re-raise."""
    em.emit(f"_v.fault_native = {k}", depth)
    if mark_final:
        em.emit("_v.fault_final = True", depth)
    _emit_exit_state(w, em, fault_pc, depth)
    em.emit("raise", depth)


def _mem_fault_ctx(mode, k, term_k):
    """(fault_pc, mark_final, commit) for the three emission modes."""
    if mode == "body":
        return k, False, True
    if mode == "slot_local":
        return term_k, True, True
    return term_k, True, False  # slot_direct: state already committed


def _emit_instr(w, em, k, depth, mode, term_k) -> None:
    """Charge + op-table statement for one straight-line instruction.

    *mode* selects the fault-commit contract: ``"body"`` (on-trace,
    charged on the path, faults commit with ``pc`` = the faulting
    index), ``"slot_local"`` (on-trace delay slot, faults commit with
    ``pc`` = the branch index and are marked final), ``"slot_direct"``
    (delay slot on an already-committed exit path: charge via
    ``m._charge``, as the dispatcher does, faults just annotate and
    re-raise).
    """
    mi = w.instrs[k]
    if mode != "slot_direct":
        w.charge(k)
    elif mi.category != "fused":
        em.emit(f"m._charge(_instrs[{k}])", depth)
    op = OPS[mi.op]
    parts = TABLE.render(mi)
    fault_pc, mark_final, commit = _mem_fault_ctx(mode, k, term_k)

    def guard(exc, d):
        em.emit(f"except {exc} as _v:", d)
        if commit:
            _emit_fault_commit(w, em, k, fault_pc, d + 1, mark_final)
        else:
            em.emit(f"_v.fault_native = {k}", d + 1)
            em.emit("_v.fault_final = True", d + 1)
            em.emit("raise", d + 1)

    if op.fault == MEM:
        emit_mem_access(em, op.access, parts[0], parts[1], depth,
                        lambda d: guard("AccessViolation", d))
    elif op.fault == DIV:
        em.emit("try:", depth)
        emit_lines(em, parts[0], depth + 1)
        guard("VMRuntimeError", depth)
    elif op.fault == FPDIV:
        # The threaded tier raises an FP divide trap *without* a fault
        # prefix: the block commit stands at the last boundary, and the
        # cycles are charged through the divide.
        em.emit(f"if {parts[1]}:", depth)
        if mode == "body":
            _emit_exit_state(w, em, w.block_entry, depth + 1,
                             pending=w.block_pending, pcats=w.block_pcats)
        elif mode == "slot_local":
            _emit_exit_state(w, em, term_k, depth + 1)
        em.emit("    " + FPDIV_RAISE, depth)
        emit_lines(em, parts[0], depth)
    else:
        if mi.op in _CC_OPS:
            w.uses_cc = True
        emit_lines(em, parts[0], depth)


# ---------------------------------------------------------------------------
# delay slots
# ---------------------------------------------------------------------------

def _emit_slot_local(w, em, slot_k, term_k) -> None:
    """Run the delay slot on-trace: retired into the pending counts,
    charged on the path."""
    w.retire(w.instrs[slot_k])
    _emit_instr(w, em, slot_k, 0, "slot_local", term_k)


def _emit_slot_direct(w, em, slot_k, depth) -> None:
    """Run the delay slot on an exit path whose architectural state is
    already committed — mirror the dispatcher's direct retire+charge
    (``instret``/counts first, then the slot closure)."""
    mi = w.instrs[slot_k]
    em.emit("m.instret += 1", depth)
    em.emit(f"_ct[{mi.category!r}] += 1", depth)
    _emit_instr(w, em, slot_k, depth, "slot_direct", slot_k)


# ---------------------------------------------------------------------------
# terminators
# ---------------------------------------------------------------------------

def _chain_coupled(w, k) -> bool:
    """Is the branch at *k* part of an SFI dynamic guard chain?

    The rewriter only tags straight-line ALU guards with
    ``category="sfi"``, always immediately adjacent to the access they
    protect — but a chain-coupled branch (the branch itself, or its
    immediate predecessor, tagged ``sfi``) must never be predicted: a
    guarded side exit there would split the chain between the trace
    and the dispatcher.  Such branches compile to a both-way unguarded
    exit.
    """
    mi = w.instrs[k]
    if mi.category == "sfi":
        return True
    if k > 0:
        prev = w.instrs[k - 1]
        return prev.category == "sfi" and not _is_term_op(prev.op)
    return False


def _emit_cond(w, em, k, slot_k):
    """Conditional branch. Returns the on-trace continuation index, or
    None when the branch compiles to a both-way exit."""
    mi = w.instrs[k]
    n = w.n
    taken_expr, untaken_expr = TABLE.render(mi)
    if mi.op in _CC_OPS:
        w.uses_cc = True
    target = mi.target
    has_slot = slot_k >= 0
    fall = k + 2 if has_slot else k + 1
    annul = bool(mi.annul) and has_slot
    w.charge(k)

    if _chain_coupled(w, k):
        # SFI guard-chain branch: never predicted.
        if has_slot and not annul:
            em.emit(f"_tk = {taken_expr}")
            _emit_slot_local(w, em, slot_k, k)
            em.emit("if _tk:")
            _emit_exit_state(w, em, target, 1, penalty=True)
            em.emit("    return")
        elif annul:
            em.emit(f"if {taken_expr}:")
            _emit_exit_state(w, em, k, 1)
            _emit_slot_direct(w, em, slot_k, 1)
            em.emit(f"    m.pc = {target}")
            em.emit("    m._branch_taken_penalty()")
            em.emit("    return")
        else:
            em.emit(f"if {taken_expr}:")
            _emit_exit_state(w, em, target, 1, penalty=True)
            em.emit("    return")
        _emit_exit_state(w, em, fall)
        em.emit("return")
        return None

    if target == w.entry and 0 <= target < n:
        predict_taken = True  # loop closure
    elif fall == w.entry:
        predict_taken = False  # loop closure on the fall-through
    else:
        predict_taken = target <= k  # BTFN
    if predict_taken and not 0 <= target < n:
        predict_taken = False

    if predict_taken:
        if has_slot and not annul:
            em.emit(f"_tk = {taken_expr}")
            _emit_slot_local(w, em, slot_k, k)
            em.emit("if not _tk:")
        else:
            # Annulled untaken skips the slot: exit before running it.
            em.emit(f"if {untaken_expr}:")
        em.emit("    m._jit_deopts += 1")
        _emit_exit_state(w, em, fall, 1)
        em.emit("    return")
        if annul:
            _emit_slot_local(w, em, slot_k, k)
        _emit_penalty(w, em)
        return target

    if has_slot and not annul:
        em.emit(f"_tk = {taken_expr}")
        _emit_slot_local(w, em, slot_k, k)
        em.emit("if _tk:")
    else:
        em.emit(f"if {taken_expr}:")
    em.emit("    m._jit_deopts += 1")
    if annul:
        # Annulled taken path runs the slot after the exit commit.
        _emit_exit_state(w, em, k, 1)
        _emit_slot_direct(w, em, slot_k, 1)
        em.emit(f"    m.pc = {target}")
        em.emit("    m._branch_taken_penalty()")
    else:
        _emit_exit_state(w, em, target, 1, penalty=True)
    em.emit("    return")
    return fall


def _emit_term(w, em, k, slot_k):
    """One terminator. Returns the on-trace continuation index or None
    when the trace ends here."""
    mi = w.instrs[k]
    op = mi.op

    if op in ("trap", "hostcall"):
        # Dispatcher order: the block's charge, terminator included ->
        # block commit -> fuel check -> the terminator.  The host
        # observes exact cycle state.
        w.charge(k)
        _emit_exit_state(w, em, w.block_entry)
        _emit_fuel_check(em)
        em.emit(f"m.pc = {k}")
    if op == "trap":
        em.emit(TABLE.render(mi)[0])
        return None

    if op == "hostcall":
        em.emit("if m.hostcall is None:")
        em.emit("    raise VMRuntimeError('hostcall without attached "
                "host')")
        em.emit("try:")
        em.emit(f"    m.hostcall(m, {mi.imm})", 0)
        em.emit("except AccessViolation as _v:")
        # Delivery happens right here (no second commit): mark final so
        # the dispatcher re-raises a handler-less violation unchanged.
        em.emit("    _v.fault_final = True")
        em.emit(f"    m.pc = m._deliver_violation(_instrs[{k}], _v)")
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
        em.emit(_FLUSH)
        em.emit("if m.halted:")
        em.emit(f"    m.pc = {k + 1}")
        em.emit("    return")
        w.commit_reset()
        return k + 1

    if op in ("jr", "jalr"):
        w.charge(k)
        _emit_exit_state(w, em, k)
        if op == "jalr":
            em.emit(f"regs[{w.link}] = {u32(mi.imm)}")
        em.emit(f"_rt = m.map_omni_target(regs[{mi.rs}])")
        if slot_k >= 0:
            _emit_slot_direct(w, em, slot_k, 0)
        em.emit("m.pc = _rt")
        em.emit("m._branch_taken_penalty()")
        em.emit("return")
        return None

    if op in ("j", "jal"):
        w.charge(k)
        if op == "jal":
            em.emit(f"regs[{w.link}] = {u32(mi.imm)}")
        if slot_k >= 0:
            _emit_slot_local(w, em, slot_k, k)
        _emit_penalty(w, em)
        return mi.target

    return _emit_cond(w, em, k, slot_k)


# ---------------------------------------------------------------------------
# trace formation + source assembly
# ---------------------------------------------------------------------------

def _block_traceable(w, index) -> bool:
    """Every body op of the block entered at *index* (plus the delay
    slot, when the terminator has one) has an op-table statement; a
    slot that is itself a terminator is untraceable."""
    instrs = w.instrs
    n = w.n
    i = index
    while i < n:
        mi = instrs[i]
        if _is_term_op(mi.op):
            if w.delay and (mi.op in _COND_OPS or mi.op in _JUMP_OPS) \
                    and i + 1 < n:
                slot = instrs[i + 1]
                if _is_term_op(slot.op) or slot.op not in OPS:
                    return False
            return True
        if mi.op not in OPS:
            return False
        i += 1
    return True  # runs off the end; the trace exits there


def _form(program, entry: int):
    """Form the superblock entered at native index *entry* over a
    :class:`ThreadedNativeProgram`: its source and its path charges,
    ``_c0``, ``_c1``, ... in the source.

    Raises :class:`_Unsupported` when the entry block itself is outside
    the emitter's vocabulary.
    """
    w = _Trace(program, entry)
    em = w.em
    instrs = w.instrs
    n = w.n
    if not (0 <= entry < n) or not _block_traceable(w, entry):
        raise _Unsupported(f"entry block @{entry}")
    visited: set[int] = set()
    looped = False
    index = entry
    while True:
        if index in visited:
            if index == entry:
                looped = True
            else:
                em.emit(f"# rejoin @{index}: hand back to the dispatcher")
                _emit_exit_state(w, em, index)
                em.emit("return")
            break
        if len(visited) >= MAX_TRACE_BLOCKS or w.total >= MAX_TRACE_INSTRS:
            em.emit(f"# trace limit @{index}")
            _emit_exit_state(w, em, index)
            em.emit("return")
            break
        if not _block_traceable(w, index):
            em.emit(f"# untraceable block @{index}")
            _emit_exit_state(w, em, index)
            em.emit("return")
            break
        visited.add(index)
        w.start_block(index)
        em.emit(f"# block @{index}")
        i = index
        mi = None
        while i < n:
            mi = instrs[i]
            if _is_term_op(mi.op):
                break
            w.retire(mi)
            _emit_instr(w, em, i, 0, "body", -1)
            i += 1
        if i >= n:
            # Ran off the end of the code: commit, block-boundary fuel
            # check, then report the out-of-range pc like the threaded
            # dispatcher does.
            _emit_exit_state(w, em, w.block_entry)
            _emit_fuel_check(em)
            em.emit(f"m.pc = {n}")
            em.emit("return")
            break
        w.retire(mi)
        slot_k = -1
        if w.delay and (mi.op in _COND_OPS or mi.op in _JUMP_OPS) \
                and i + 1 < n:
            slot_k = i + 1
        cont = _emit_term(w, em, i, slot_k)
        if cont is None:
            break
        if not 0 <= cont < n:
            em.emit(f"# static continuation out of range -> @{cont}")
            _emit_exit_state(w, em, cont)
            em.emit("return")
            break
        index = cont

    if looped:
        # Backedge: charge the iteration's path, commit its retire
        # counts, and honour the block-level fuel cut.
        em.emit(f"# backedge -> @{entry}")
        _emit_path_charge(w, em)
        if w.pending:
            em.emit(f"m.instret += {w.pending}")
        for cat in sorted(w.pcats):
            em.emit(f"_ct[{cat!r}] += {w.pcats[cat]}")
        _emit_fuel_check(em, (_SYNC, f"m.pc = {entry}"))
    prologue = ["_instrs = m.instrs", "_ct = m.category_counts"]
    sync = []
    if w.uses_cc:
        prologue += ["_ccs = m.cc", "_ccu = m.cc_unsigned"]
        sync = ["m.cc = _ccs", "m.cc_unsigned = _ccu"]
    source = assemble(em, f"native superblock @{entry}", len(visited),
                      w.total, "m, regs, fregs, memory", prologue, looped,
                      {_SYNC: sync})
    return source, w.charges


def native_superblock_source(program, entry: int) -> str:
    """Generate Python source for the superblock entered at native
    index *entry* over a :class:`ThreadedNativeProgram` (see
    :func:`_form`)."""
    return _form(program, entry)[0]


def compile_native_superblock(program, entry: int):
    """Compile the superblock entered at native index *entry*.

    Returns ``(source, factory)``: each call of the factory (the
    source's ``_make_superblock``) returns a fresh superblock closure
    ``fn(m, regs, fregs, memory)`` with inline caches of its own.  The
    factory binds no machine state, so the translation's
    :class:`~repro.jitcore.JitState` shares it across machines.
    Returns ``(None, None)`` when the entry block is untraceable.
    """
    try:
        source, charges = _form(program, entry)
    except _Unsupported:
        return None, None
    code = compile(source, f"<jit-native@{entry}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
    for number, charge in enumerate(charges):
        namespace[f"_c{number}"] = charge
    exec(code, namespace)
    return source, namespace["_make_superblock"]


# ---------------------------------------------------------------------------
# the JIT machine
# ---------------------------------------------------------------------------

class JitTargetMachine(SuperblockTier, ThreadedTargetMachine):
    """ThreadedTargetMachine with the native superblock JIT on top.

    Cold blocks run on the threaded tier while the translation's
    per-entry heat counters accumulate; entries that reach the heat
    threshold dispatch to their superblock from then on, compiled by
    the first machine of the translation to get there — all through the
    one dispatch loop, :meth:`ThreadedTargetMachine._run`, and the
    tier-up path of :class:`repro.jitcore.SuperblockTier`.
    ``cycles``, ``instret``, register/memory state and fault
    attribution (``pc`` at the raise, ``fault_native`` on the
    violation) are bit-identical to the threaded tier; only fuel cuts
    are coarser (superblock boundaries instead of block boundaries).
    """

    COUNTERS = SuperblockTier.COUNTERS + (
        ("execute.charge_misses", "_charge_misses"),)

    _compile_superblock = staticmethod(compile_native_superblock)
