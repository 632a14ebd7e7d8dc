"""Trace-based superblock JIT tier for the simulated targets.

The native counterpart of :mod:`repro.omnivm.jit`: when a block entry
of the threaded target engine (:mod:`repro.targets.threaded`) crosses a
heat threshold, the hot chain of native blocks is stitched across
likely-taken branches into a **superblock** and compiled to a single
generated Python function.  Register indexes, immediates, category
counts and — crucially — the whole per-arch cycle model are folded into
the emitted source, so a hot loop iteration executes as one Python
frame with no per-instruction dispatch, no ``_charge`` calls, and no
closure chain.

What the generated code folds in, bit-identically to the threaded tier
(which is itself bit-identical to the legacy executor):

* **cycle accounting** — the scoreboard (`TargetMachine._ready`), the
  issue cursor, dual-issue pairing (PPC/x86) and the x86
  memory-resident-register surcharge are computed on *locals*; each
  instruction's issue record (read/write keys, latency, surcharge) and
  the pairing test with a statically known predecessor come from the
  target's :class:`~repro.targets.base.Timing` at compile time — the
  same statement ``TargetMachine._charge`` applies at run time — so a
  typical instruction costs one or two integer compares.  Every side
  exit writes the scoreboard back before returning, so ``cycles``
  matches the threaded tier exactly.
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
its own (see :class:`repro.jitcore.SuperblockTier`); digest-filtered
invalidation (module revoke/relink) drops the state together with the
predecoded artifact that carries it (the side-table entry under the
translation's cache key).
"""

from __future__ import annotations

from repro.jitcore import (
    FLUSH as _FLUSH,
    JIT_HEAT,
    MAX_TRACE_BLOCKS,
    MAX_TRACE_INSTRS,
    Emitter as _Emitter,
    SuperblockTier,
    base_exec_globals,
    cache_cells,
    emit_lines,
    emit_mem_access,
)
from repro.optable import DIV, FPDIV, FPDIV_RAISE, MEM
from repro.targets.ops import OPS, TABLE
from repro.targets.threaded import (
    _COND_OPS,
    _JUMP_OPS,
    ThreadedTargetMachine,
    _is_term_op,
)
from repro.utils.bits import u32

#: Assembly-time placeholder for "write the scoreboard/cycle locals and
#: the condition codes back to the machine" — expanded once the full
#: set of touched scoreboard keys is known, so an exit emitted early in
#: a looped trace also syncs keys first written later in the iteration.
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

    Tracks — entirely at compile time — the retired-but-uncommitted
    instruction count and category tallies, the set of scoreboard keys
    the trace touches, the identity of the previously *charged*
    instruction (for dual-issue pairing and ``_last_issued`` restore),
    and the scalar pair-open flag.  ``prev`` is one of ``("static", k)``
    (the instruction at index ``k`` charged last), ``("none",)`` (a
    taken-branch penalty reset the pair window) or ``("runtime",)``
    (nothing charged yet this call — the machine's own state, loaded
    into ``_li``/``_po`` at entry, is current).
    """

    def __init__(self, program, entry):
        self.program = program
        self.instrs = program.instrs
        self.n = program.length
        self.spec = program.spec
        self.timing = program.spec.timing
        self.dual = self.timing.dual_issue is not None
        self.delay = program.spec.delay_slots
        self.entry = entry
        self.link = program.spec.reserved.get("ra", 31)
        self.em = _Emitter()
        self.keys: dict[tuple, str] = {}
        self.uses_cc = False
        self.total = 0
        self.pending = 0
        self.pcats: dict[str, int] = {}
        self.block_entry = entry
        self.block_pending = 0
        self.block_pcats: dict[str, int] = {}
        self.prev: tuple = ("runtime",)
        self.po = "runtime"  # scalar pair-open: "true" | "false" | "runtime"

    def key_name(self, key) -> str:
        name = self.keys.get(key)
        if name is None:
            kind, idx = key
            name = "_tcc" if kind == "cc" else f"_t{kind}{idx}"
            self.keys[key] = name
        return name

    def retire(self, mi) -> None:
        self.total += 1
        self.pending += 1
        self.pcats[mi.category] = self.pcats.get(mi.category, 0) + 1

    def start_block(self, index) -> None:
        self.block_entry = index
        self.block_pending = self.pending
        self.block_pcats = dict(self.pcats)

    def commit_reset(self) -> None:
        """An inline hostcall committed everything retired so far."""
        self.pending = 0
        self.pcats = {}
        self.block_pending = 0
        self.block_pcats = {}


# ---------------------------------------------------------------------------
# cycle model emission
# ---------------------------------------------------------------------------

def _emit_charge(w, em, k, depth=0) -> None:
    """Fold one ``TargetMachine._charge`` into straight-line locals: the
    instruction's issue record (``Timing.issue``) and, where the
    previous charge is known at compile time, the pairing test
    ``Timing.pairs`` are resolved here.

    Invariant (holds for every charge shape): after a charge,
    ``cycles == _last_issue_cycle`` — ``issue_cycle >= _lic + 1 >
    cycles`` unpaired, ``issue_cycle == _lic + extra >= cycles``
    paired — so the generated code updates ``_cy`` unconditionally.
    """
    mi = w.instrs[k]
    if mi.category == "fused":
        return  # zero issue cost; does not touch the pair window
    reads, writes, latency, extra = w.timing.issue(mi)
    rnames = [w.key_name(key) for key in dict.fromkeys(reads)]

    paired_check = None
    if w.dual:
        if w.prev[0] == "static":
            if w.timing.pairs(w.instrs[w.prev[1]], mi):
                paired_check = "_po and {stall} <= _lic"
        elif w.prev[0] == "runtime":
            paired_check = ("_po and _li is not None and {stall} <= _lic "
                            f"and _du(_li, _instrs[{k}]) "
                            f"and not _dp(_instrs[{k}], _li)")

    if paired_check is None:
        em.emit("_ic = _lic + 1", depth)
        for name in rnames:
            em.emit(f"if {name} > _ic:", depth)
            em.emit(f"    _ic = {name}", depth)
        if w.dual:
            em.emit("_po = True", depth)
    else:
        if not rnames:
            cond = paired_check.format(stall="0").replace(
                "0 <= _lic", "_lic >= 0")
        elif len(rnames) == 1:
            cond = paired_check.format(stall=rnames[0])
        else:
            em.emit(f"_st = {rnames[0]}", depth)
            for name in rnames[1:]:
                em.emit(f"if {name} > _st:", depth)
                em.emit(f"    _st = {name}", depth)
            cond = paired_check.format(stall="_st")
        em.emit(f"if {cond}:", depth)
        em.emit("    _ic = _lic", depth)
        em.emit("    _po = False", depth)
        em.emit("else:", depth)
        em.emit("    _ic = _lic + 1", depth)
        for name in rnames:
            em.emit(f"    if {name} > _ic:", depth)
            em.emit(f"        _ic = {name}", depth)
        em.emit("    _po = True", depth)
    if extra:
        em.emit(f"_ic += {extra}", depth)
    em.emit("_cy = _ic", depth)
    for key in dict.fromkeys(writes):
        em.emit(f"{w.key_name(key)} = _ic + {latency}", depth)
    em.emit("_lic = _ic", depth)
    w.prev = ("static", k)
    if not w.dual:
        w.po = "true"


def _emit_penalty(w, em, depth=0) -> None:
    """Local ``_branch_taken_penalty`` for an on-trace taken branch."""
    em.emit(f"_cy += {w.timing.taken_branch_penalty}", depth)
    em.emit("_lic = _cy", depth)
    if w.dual:
        em.emit("_po = False", depth)
    w.prev = ("none",)
    if not w.dual:
        w.po = "false"


def _emit_exit_state(w, em, pc, depth=0, pending=None, pcats=None,
                     prev=None) -> None:
    """Commit architectural state for a side exit / fault / raise:
    scoreboard + cycles (via the ``_SYNC`` placeholder), issue-window
    statics, ``instret``, category counts, and ``pc``."""
    em.emit(_SYNC, depth)
    prev = w.prev if prev is None else prev
    if prev[0] == "static":
        em.emit(f"m._last_issued = _instrs[{prev[1]}]", depth)
    elif prev[0] == "none":
        em.emit("m._last_issued = None", depth)
    else:
        em.emit("m._last_issued = _li", depth)
    if w.dual:
        em.emit("m._pair_open = _po", depth)
    elif w.po == "runtime":
        em.emit("m._pair_open = _po", depth)
    else:
        em.emit(f"m._pair_open = {w.po == 'true'}", depth)
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
    faulting native index, commit the retired prefix (the charge is
    already in the locals), and re-raise."""
    em.emit(f"_v.fault_native = {k}", depth)
    if mark_final:
        em.emit("_v.fault_final = True", depth)
    _emit_exit_state(w, em, fault_pc, depth)
    em.emit("raise", depth)


def _mem_fault_ctx(mode, w, term_k):
    """(fault_pc, mark_final, commit) for the three emission modes."""
    if mode == "body":
        return w.block_entry, False, True
    if mode == "slot_local":
        return term_k, True, True
    return term_k, True, False  # slot_direct: state already committed


def _emit_instr(w, em, k, depth, mode, term_k) -> None:
    """Charge + op-table statement for one straight-line instruction.

    *mode* selects the fault-commit contract: ``"body"`` (on-trace,
    charge in locals, faults commit with ``pc`` = block entry),
    ``"slot_local"`` (on-trace delay slot, faults commit with ``pc`` =
    the branch index and are marked final), ``"slot_direct"`` (delay
    slot on an already-committed exit path: charge via ``m._charge``,
    faults just annotate and re-raise).
    """
    mi = w.instrs[k]
    if mode == "slot_direct":
        if mi.category != "fused":
            em.emit(f"m._charge(_instrs[{k}])", depth)
    else:
        _emit_charge(w, em, k, depth)
    op = OPS[mi.op]
    parts = TABLE.render(mi)
    fault_pc, mark_final, commit = _mem_fault_ctx(mode, w, term_k)

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
        # prefix: the block commit stands at the last boundary (the
        # charge is already done).
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
    charged through the locals."""
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


def _emit_fuel_guard(w, em, depth=0) -> None:
    em.emit("if m.instret > m.fuel:", depth)
    em.emit("    raise FuelExhausted('target simulation exceeded fuel')",
            depth)


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
    if mi.category != "fused":
        _emit_charge(w, em, k)

    if _chain_coupled(w, k):
        # SFI guard-chain branch: never predicted.
        if has_slot and not annul:
            em.emit(f"_tk = {taken_expr}")
            _emit_slot_local(w, em, slot_k, k)
            em.emit("if _tk:")
            _emit_exit_state(w, em, target, 1)
            em.emit("    m._branch_taken_penalty()")
            em.emit("    return")
            _emit_exit_state(w, em, fall)
            em.emit("return")
        elif annul:
            em.emit(f"if {taken_expr}:")
            _emit_exit_state(w, em, k, 1)
            _emit_slot_direct(w, em, slot_k, 1)
            em.emit(f"    m.pc = {target}")
            em.emit("    m._branch_taken_penalty()")
            em.emit("    return")
            _emit_exit_state(w, em, fall)
            em.emit("return")
        else:
            em.emit(f"if {taken_expr}:")
            _emit_exit_state(w, em, target, 1)
            em.emit("    m._branch_taken_penalty()")
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
            em.emit("    m._jit_deopts += 1")
            _emit_exit_state(w, em, fall, 1)
            em.emit("    return")
        elif annul:
            # Annulled untaken skips the slot: exit before running it.
            em.emit(f"if {untaken_expr}:")
            em.emit("    m._jit_deopts += 1")
            _emit_exit_state(w, em, fall, 1)
            em.emit("    return")
            _emit_slot_local(w, em, slot_k, k)
        else:
            em.emit(f"if {untaken_expr}:")
            em.emit("    m._jit_deopts += 1")
            _emit_exit_state(w, em, fall, 1)
            em.emit("    return")
        _emit_penalty(w, em)
        return target

    if has_slot and not annul:
        em.emit(f"_tk = {taken_expr}")
        _emit_slot_local(w, em, slot_k, k)
        em.emit("if _tk:")
        em.emit("    m._jit_deopts += 1")
        _emit_exit_state(w, em, target, 1)
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
    elif annul:
        # Annulled taken path runs the slot after the exit commit.
        em.emit(f"if {taken_expr}:")
        em.emit("    m._jit_deopts += 1")
        _emit_exit_state(w, em, k, 1)
        _emit_slot_direct(w, em, slot_k, 1)
        em.emit(f"    m.pc = {target}")
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
    else:
        em.emit(f"if {taken_expr}:")
        em.emit("    m._jit_deopts += 1")
        _emit_exit_state(w, em, target, 1)
        em.emit("    m._branch_taken_penalty()")
        em.emit("    return")
    return fall


def _emit_term(w, em, k, slot_k):
    """One terminator. Returns the on-trace continuation index or None
    when the trace ends here."""
    mi = w.instrs[k]
    op = mi.op
    charge = mi.category != "fused"

    if op == "trap":
        # Dispatcher order: block commit -> fuel check -> pc = trap
        # index -> charge -> raise.
        _emit_exit_state(w, em, w.block_entry)
        _emit_fuel_guard(w, em)
        em.emit(f"m.pc = {k}")
        if charge:
            em.emit(f"m._charge(_instrs[{k}])")
        em.emit(TABLE.render(mi)[0])
        return None

    if op == "hostcall":
        # Commit + fuel check *before* the terminator charge (the
        # threaded tier charges inside the terminator closure), then
        # re-sync the charge so the host observes exact cycle state.
        _emit_exit_state(w, em, w.block_entry)
        _emit_fuel_guard(w, em)
        if charge:
            _emit_charge(w, em, k)
            em.emit(_SYNC)
            em.emit(f"m._last_issued = _instrs[{k}]")
            if w.dual:
                em.emit("m._pair_open = _po")
            else:
                em.emit("m._pair_open = True")
        em.emit(f"m.pc = {k}")
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
        # Reload cycle state the hostcall may have advanced? It cannot:
        # hosts never touch the scoreboard; locals stay authoritative.
        w.commit_reset()
        return k + 1

    if op in ("jr", "jalr"):
        if charge:
            _emit_charge(w, em, k)
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
        if charge:
            _emit_charge(w, em, k)
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


def native_superblock_source(program, entry: int) -> str:
    """Generate Python source for the superblock entered at native
    index *entry* over a :class:`ThreadedNativeProgram`.

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
            _emit_fuel_guard(w, em)
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

    # -- assemble ---------------------------------------------------------
    cells, invalidate = cache_cells(em)
    sync_lines = []
    if w.keys:
        sync_lines.append("_rm = m._ready")
        for key, name in w.keys.items():
            sync_lines.append(f"_rm[{key!r}] = {name}")
    sync_lines.append("m.cycles = _cy")
    sync_lines.append("m._last_issue_cycle = _lic")
    if w.uses_cc:
        sync_lines.append("m.cc = _ccs")
        sync_lines.append("m.cc_unsigned = _ccu")

    out = [f"# native superblock @{entry} ({len(visited)} blocks, "
           f"{w.total} instrs{', looped' if looped else ''})",
           "def _make_superblock():"]
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
    out.append("    def _superblock(m, regs, fregs, memory):")
    body = "        "
    if cells:
        decl = ["_mem", "_ep"] + cells
        for j in range(0, len(decl), 8):
            out.append(body + "nonlocal " + ", ".join(decl[j:j + 8]))
        out.append(body + "if _mem is not memory "
                          "or _ep != memory.perm_epoch:")
        out.append(body + "    _mem = memory")
        out.append(body + "    _ep = memory.perm_epoch")
        out.append(body + f"    {invalidate} = 0")
    # Entry prologue: pull the scoreboard and cycle state into locals.
    out.append(body + "_instrs = m.instrs")
    out.append(body + "_ct = m.category_counts")
    if w.keys:
        out.append(body + "_rg = m._ready.get")
        for key, name in w.keys.items():
            out.append(body + f"{name} = _rg({key!r}, 0)")
    out.append(body + "_cy = m.cycles")
    out.append(body + "_lic = m._last_issue_cycle")
    out.append(body + "_li = m._last_issued")
    out.append(body + "_po = m._pair_open")
    if w.dual:
        out.append(body + "_du = m.spec.timing.dual_issue")
        out.append(body + "_dp = m._depends_on")
    if w.uses_cc:
        out.append(body + "_ccs = m.cc")
        out.append(body + "_ccu = m.cc_unsigned")
    pad = body
    if looped:
        out.append(body + "while True:")
        pad = body + "    "
    for line in em.lines:
        stripped = line.lstrip()
        indent = line[:len(line) - len(stripped)]
        if stripped == _SYNC:
            for s_line in sync_lines:
                out.append(pad + indent + s_line)
            continue
        if stripped == _FLUSH:
            if cells:
                out.append(pad + indent + invalidate + " = 0")
                out.append(pad + indent + "_ep = memory.perm_epoch")
            continue
        out.append(pad + line)
    if looped:
        # Backedge: commit the iteration's retire counts, honour the
        # block-level fuel cut (the watchdog zeroes m.fuel
        # asynchronously), and go round again.
        out.append(pad + f"# backedge -> @{entry}")
        if w.pending:
            out.append(pad + f"m.instret += {w.pending}")
        for cat in sorted(w.pcats):
            out.append(pad + f"_ct[{cat!r}] += {w.pcats[cat]}")
        out.append(pad + "if m.instret > m.fuel:")
        for s_line in sync_lines:
            out.append(pad + "    " + s_line)
        if w.prev[0] == "static":
            out.append(pad + f"    m._last_issued = _instrs[{w.prev[1]}]")
        elif w.prev[0] == "none":
            out.append(pad + "    m._last_issued = None")
        else:
            out.append(pad + "    m._last_issued = _li")
        if w.dual or w.po == "runtime":
            out.append(pad + "    m._pair_open = _po")
        else:
            out.append(pad + f"    m._pair_open = {w.po == 'true'}")
        out.append(pad + f"    m.pc = {entry}")
        out.append(pad + "    raise FuelExhausted("
                         "'target simulation exceeded fuel')")
        # Iteration >= 2: exits emitted before the first charge read
        # ``_li``/``_po``; refresh them to the end-of-iteration state.
        if w.prev[0] == "static":
            out.append(pad + f"_li = _instrs[{w.prev[1]}]")
        elif w.prev[0] == "none":
            out.append(pad + "_li = None")
        if not w.dual and w.po != "runtime":
            out.append(pad + f"_po = {w.po == 'true'}")
    out.append("    return _superblock")
    out.append("_superblock = _make_superblock()")
    return "\n".join(out) + "\n"


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
        source = native_superblock_source(program, entry)
    except _Unsupported:
        return None, None
    code = compile(source, f"<jit-native@{entry}>", "exec")
    namespace = dict(_EXEC_GLOBALS)
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

    _compile_superblock = staticmethod(compile_native_superblock)
