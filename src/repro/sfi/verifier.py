"""Static SFI verification of translated native code.

SFI's safety argument does not rest on trusting the translator: the
loader can *verify* the translated code before running it, by checking a
machine-checkable invariant — exactly the discipline Wahbe et al.
describe and that later systems (NaCl, WebAssembly validators) adopted.

Verification is a **worklist dataflow analysis over the recovered
native control-flow graph**, not a linear scan:

1. **CFG recovery.**  Basic-block leaders are the module entry, every
   legal indirect-jump destination (the ``omni_to_native`` address map —
   these are the only places a masked ``jr``/``jalr`` can land), every
   direct branch target, and every instruction after a control transfer
   (skipping the delay slot on delay-slot targets).  Edges follow the
   executor's semantics: a conditional branch has a taken edge and a
   fall-through edge; ``j``/``jal`` have only their target edge;
   ``jr``/``jalr`` have no static successors (their dynamic targets are
   exactly the anchors, which the analysis seeds conservatively).  On
   MIPS/SPARC the delay slot belongs to its branch: the slot's transfer
   function applies to the taken edge always and to the fall-through
   edge unless the branch is annulling.

2. **Abstract state.**  Per program point the analysis tracks

   * the *scratch register* in a flat five-point lattice —
     ``UNKNOWN``, ``DATA_MASKED`` (``addr & data_mask``),
     ``DATA_SANDBOXED`` (``(addr & mask) | base``), ``CODE_MASKED``,
     ``CODE_SANDBOXED`` — the meet of two unequal states is
     ``UNKNOWN``;
   * an *sp-excursion interval* ``[lo, hi]``: the cumulative
     displacement of the stack pointer from its value at block-region
     entry.  The meet is the interval hull, accelerated by widening at
     join points that keep growing; an interval that leaves
     ``±SP_EXCURSION_LIMIT`` becomes unbounded (top).

3. **Fixpoint + check.**  Anchor blocks (indirect-entry points) are
   seeded with the conservative state ``(UNKNOWN, [0, 0])``; states
   propagate along edges with a meet at joins until fixpoint, then a
   final pass re-walks every block — including blocks unreachable from
   any anchor, with the conservative entry state — and enforces, at the
   widest state that can reach each instruction:

   * **dedicated registers** (SFI masks/bases, the global pointer) are
     never written, and sp only by small-constant ``addi``;
   * every **store** addresses memory through sp with a small offset
     *while the excursion interval is bounded* (guard zones around the
     stack absorb bounded drift; the interval check is what makes the
     classic "sp is inductively in-sandbox" argument actually inductive
     — without it a long chain of small ``addi sp`` updates could walk
     sp into the host segment), through the scratch register in the
     data-sandboxed state, or through the dedicated segment base with
     the masked scratch as index (the PPC/SPARC indexed form);
   * every **indirect jump** goes through the scratch register in the
     code-sandboxed state.

   A store or indirect jump is rejected if *any* path — any in-edge at
   the join — can reach it with an unsandboxed state; a sandboxing
   sequence that spans a block boundary (e.g. a guard in a branch delay
   slot) verifies exactly when it is safe on every path.

Residual sp assumption, documented rather than hidden: anchors are
seeded with excursion ``[0, 0]``, i.e. the analysis proves drift bounds
*per anchor region*; chaining regions through indirect jumps is bounded
dynamically (each region nets at most ``SP_EXCURSION_LIMIT``, the
runtime's fuel quota caps the number of regions, and every intervening
segment between the stack's guard zones and the host segment is
unmapped, so drifted sp-relative stores fault long before they can
land somewhere writable).

When the module was translated *without* SFI (``options.sfi`` false)
there is no sandbox claim to check and the verifier enforces nothing:
non-SFI translator output legitimately returns through a raw ``jr``
and stores through unmasked registers.  (An earlier revision carried a
dead ``or True`` arm here that pretended to enforce a return-register
rule; it is gone.)  The CFG is still recovered and the metrics still
flow, so callers may verify unconditionally.

Any violation raises :class:`~repro.errors.VerifyError`.  The test
suite checks both directions: all translator output verifies, and
hand-built malicious sequences are rejected; the sandbox-escape
mutation fuzzer (``repro.difftest.sfi_mutator``) additionally mutates
*verified* modules — dropping/reordering/retargeting guard
instructions, widening sp updates, redirecting store bases, clobbering
dedicated registers — and demands a 100% kill-rate on unsafe mutants
while behavior-preserving mutants keep verifying.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import metrics
from repro.errors import VerifyError
from repro.omnivm.memory import SANDBOX_BASE, SANDBOX_MASK
from repro.sfi.policy import DEFAULT_POLICY, SP_EXCURSION_LIMIT, SandboxPolicy
from repro.targets.base import MInstr
from repro.translators.base import TranslatedModule

_STORE_OPS = frozenset("sb sh sw sfs sfd".split())
_STOREX_OPS = frozenset("sbx shx swx sfsx sfdx".split())

# Abstract states of the scratch register (flat lattice; meet of two
# different states is _UNKNOWN).
_UNKNOWN = 0
_DATA_MASKED = 1     # addr & data_mask   (safe as index off sfi_base)
_DATA_SANDBOXED = 2  # (addr & mask) | base  (safe as direct base)
_CODE_MASKED = 3
_CODE_SANDBOXED = 4

#: sp-excursion interval bound: one byte beyond the limit represents
#: "unbounded" (top); intervals are clamped there so the domain is
#: finite.
_SP_TOP = SP_EXCURSION_LIMIT + 1

#: Widening threshold: after this many interval changes at one join
#: point, growing bounds jump straight to top so fixpoint iteration
#: terminates quickly on loops with net sp drift.
_WIDEN_AFTER = 4

#: The conservative state every anchor (legal indirect-entry point) is
#: seeded with, and every unreachable block is checked under.
_ENTRY_STATE = (_UNKNOWN, 0, 0)


@dataclass
class SfiAnalysis:
    """Result of the dataflow verification, for metrics / the fuzzer.

    ``in_scratch[i]`` is the scratch-register abstract state with which
    instruction *i* is checked — the meet over every path that can
    reach it (``_UNKNOWN`` for instructions only reachable
    conservatively).  The mutation fuzzer uses it to decide whether
    dropping a guard is actually unsafe at its site."""

    blocks: int = 0
    edges: int = 0
    joins: int = 0
    stores_checked: int = 0
    ijumps_checked: int = 0
    in_scratch: list[int] = field(default_factory=list)


@dataclass
class _Block:
    start: int
    end: int                 # exclusive
    term: int | None = None  # index of the control transfer, if any
    slot: int | None = None  # index of its delay slot, if any
    #: successors as (leader, slot_executes_on_this_edge)
    succs: list[tuple[int, bool]] = field(default_factory=list)


class _Ctx:
    """Per-module constants the transfer and check functions need."""

    __slots__ = ("instrs", "spec", "reserved", "at", "sp", "protected",
                 "policy", "sfi_on")

    def __init__(self, module: TranslatedModule, policy: SandboxPolicy):
        self.instrs = module.instrs
        self.spec = module.spec
        self.reserved = module.spec.reserved
        self.at = self.reserved["at"]
        self.sp = module.spec.int_map[15]
        self.policy = policy
        self.sfi_on = module.options.sfi
        self.protected = {
            reg
            for name, reg in self.reserved.items()
            if reg >= 0 and name in (
                "sfi_mask", "sfi_base", "sfi_code_base", "sfi_code_mask",
                "gp",
            )
        }


def verify_sfi(module: TranslatedModule,
               policy: SandboxPolicy = DEFAULT_POLICY) -> SfiAnalysis:
    """Check the SFI invariant over a translated module.

    Returns the :class:`SfiAnalysis` (CFG shape, per-instruction
    scratch states) so tooling can reuse the dataflow facts."""
    with metrics.stage("verify.sfi"):
        analysis = analyze_sfi(module, policy)
    if metrics.active():
        metrics.count("verify.sfi.instrs", len(module.instrs))
        metrics.count("verify.sfi.stores_checked", analysis.stores_checked)
        metrics.count("verify.sfi.ijumps_checked", analysis.ijumps_checked)
        metrics.count("verify.sfi.blocks", analysis.blocks)
        metrics.count("verify.sfi.edges", analysis.edges)
        metrics.count("verify.sfi.joins", analysis.joins)
    return analysis


def analyze_sfi(module: TranslatedModule,
                policy: SandboxPolicy = DEFAULT_POLICY) -> SfiAnalysis:
    """Run the CFG/worklist verification; raises VerifyError on the
    first violating instruction, otherwise returns the analysis."""
    analysis = SfiAnalysis()
    n = len(module.instrs)
    analysis.in_scratch = [_UNKNOWN] * n
    if n == 0:
        return analysis
    ctx = _Ctx(module, policy)
    blocks, by_leader = _build_cfg(module)
    analysis.blocks = len(blocks)
    analysis.edges = sum(len(b.succs) for b in blocks)

    # Seed every legal indirect-entry point with the conservative state.
    anchors = {module.entry_native}
    anchors.update(module.omni_to_native.values())
    anchors = sorted(a for a in anchors if a in by_leader)

    in_state: dict[int, tuple[int, int, int]] = {a: _ENTRY_STATE
                                                for a in anchors}
    changes: dict[int, int] = {}
    work = deque(anchors)
    queued = set(anchors)
    while work:
        leader = work.popleft()
        queued.discard(leader)
        outs = _flow_block(ctx, by_leader[leader], in_state[leader])
        for succ, out in outs:
            block = by_leader.get(succ)
            if block is None:
                continue
            cur = in_state.get(succ)
            if cur is None:
                in_state[succ] = out
            else:
                analysis.joins += 1
                new = _meet(cur, out)
                if new == cur:
                    continue
                changed = changes.get(succ, 0) + 1
                changes[succ] = changed
                if changed > _WIDEN_AFTER:
                    new = _widen(cur, new)
                in_state[succ] = new
            if succ not in queued:
                queued.add(succ)
                work.append(succ)

    # Final pass: enforce the rules at the fixpoint state; blocks that
    # no anchor reaches are checked under the conservative entry state
    # (hand-built hostile code must not hide behind unreachability).
    for block in blocks:
        state = in_state.get(block.start, _ENTRY_STATE)
        _flow_block(ctx, block, state, analysis=analysis)
    return analysis


def _build_cfg(module: TranslatedModule
               ) -> tuple[list[_Block], dict[int, _Block]]:
    instrs = module.instrs
    n = len(instrs)
    delay = module.spec.delay_slots
    leaders = {0, module.entry_native}
    leaders.update(module.omni_to_native.values())
    for index, instr in enumerate(instrs):
        if instr.target >= 0:
            leaders.add(instr.target)
        if instr.is_branch():
            leaders.add(index + (2 if delay else 1))
    ordered = sorted(l for l in leaders if 0 <= l < n)

    blocks: list[_Block] = []
    for pos, start in enumerate(ordered):
        end = ordered[pos + 1] if pos + 1 < len(ordered) else n
        block = _Block(start, end)
        # The control transfer sits at the block's end; on delay-slot
        # targets the slot normally follows it inside the block.  A
        # branch directly *into* a delay slot (hostile code) splits the
        # slot into its own block; the slot index is still derived from
        # the branch position so its transfer applies to the edges.
        if delay and end - 2 >= start and instrs[end - 2].is_branch():
            block.term, block.slot = end - 2, end - 1
        elif instrs[end - 1].is_branch():
            block.term = end - 1
            if delay and end < n:
                block.slot = end
        if block.term is None:
            if end < n:
                block.succs.append((end, False))
        else:
            term = instrs[block.term]
            if term.op in ("jr", "jalr"):
                # Dynamic targets can only be anchors (the masked jump
                # plus the address map guarantee it); anchors are seeded
                # with the conservative state, so no static edges.
                pass
            elif term.op == "j":
                if 0 <= term.target < n:
                    block.succs.append((term.target, True))
            elif term.op == "jal":
                # A call starts a new anchor region: the callee entry
                # and the return point are both anchors (function entry
                # / call-return entries in the address map) and get the
                # conservative seed; propagating the caller's
                # sp-excursion into the callee would make recursion
                # look like unbounded drift.
                pass
            else:  # conditional branch
                if 0 <= term.target < n:
                    block.succs.append((term.target, True))
                fall = block.term + (2 if delay else 1)
                if fall < n:
                    # An annulled (SPARC) branch skips its slot on the
                    # untaken path.
                    block.succs.append((fall, not term.annul))
        blocks.append(block)
    return blocks, {b.start: b for b in blocks}


def _flow_block(ctx: _Ctx, block: _Block, state: tuple[int, int, int],
                analysis: SfiAnalysis | None = None,
                ) -> list[tuple[int, tuple[int, int, int]]]:
    """Push *state* through *block*; returns the out-state per edge.
    With *analysis* set, also enforce the rules at each instruction."""
    instrs = ctx.instrs
    last = block.term if block.term is not None else block.end - 1
    for index in range(block.start, last + 1):
        instr = instrs[index]
        if analysis is not None:
            _check_instr(ctx, index, instr, state, analysis)
        state = _step(ctx, instr, state)
    state_no_slot = state
    state_with_slot = state
    if block.slot is not None:
        slot_instr = instrs[block.slot]
        if analysis is not None:
            _check_instr(ctx, block.slot, slot_instr, state_no_slot,
                         analysis)
        state_with_slot = _step(ctx, slot_instr, state_no_slot)
    return [
        (succ, state_with_slot if (with_slot and block.slot is not None)
         else state_no_slot)
        for succ, with_slot in block.succs
    ]


def _meet(a: tuple[int, int, int],
          b: tuple[int, int, int]) -> tuple[int, int, int]:
    scratch = a[0] if a[0] == b[0] else _UNKNOWN
    lo = min(a[1], b[1])
    hi = max(a[2], b[2])
    return (scratch, lo, hi)


def _widen(old: tuple[int, int, int],
           new: tuple[int, int, int]) -> tuple[int, int, int]:
    """Jump still-growing interval bounds to top (keeps fixpoint
    iteration linear on loops with net sp drift)."""
    lo = -_SP_TOP if new[1] < old[1] else new[1]
    hi = _SP_TOP if new[2] > old[2] else new[2]
    return (new[0], lo, hi)


def _step(ctx: _Ctx, instr: MInstr,
          state: tuple[int, int, int]) -> tuple[int, int, int]:
    """The transfer function: abstract state after executing *instr*."""
    scratch, lo, hi = state
    writes = _int_writes(instr)
    if ctx.sp in writes:
        if _is_small_sp_update(instr, ctx.sp):
            lo = max(lo + instr.imm, -_SP_TOP)
            hi = min(hi + instr.imm, _SP_TOP)
        else:
            # Rejected by the check pass; keep the state sound anyway.
            lo, hi = -_SP_TOP, _SP_TOP
    if ctx.at in writes:
        scratch = _next_state(instr, ctx.at, ctx.reserved, ctx.policy,
                              scratch)
    return (scratch, lo, hi)


def _check_instr(ctx: _Ctx, index: int, instr: MInstr,
                 state: tuple[int, int, int],
                 analysis: SfiAnalysis) -> None:
    scratch, lo, hi = state
    analysis.in_scratch[index] = scratch
    if not ctx.sfi_on:
        # No sandbox was requested: there is no invariant to enforce
        # (raw stores and raw indirect jumps are legitimate output of
        # the non-SFI translator); see the module docstring.
        return
    # Rule 0: padding is inert.  The padded policy variant inserts
    # category-"pad" instructions at bundle boundaries; anything but a
    # literal nop hiding under that category would be code the
    # remaining rules never vetted as part of a guard sequence.
    if instr.category == "pad" and instr.op != "nop":
        raise VerifyError(
            f"native[{index}] {instr}: pad-category instruction is "
            f"not a nop"
        )
    # Rule 1: dedicated registers are immutable; sp moves only by
    # small constants.
    for reg in _int_writes(instr):
        if reg in ctx.protected:
            raise VerifyError(
                f"native[{index}] {instr}: writes dedicated register "
                f"r{reg}"
            )
        if reg == ctx.sp and not _is_small_sp_update(instr, ctx.sp):
            raise VerifyError(
                f"native[{index}] {instr}: non-constant stack pointer "
                f"update"
            )
    # Rule 2: stores.
    if instr.op in _STORE_OPS:
        analysis.stores_checked += 1
        if instr.rs == ctx.sp and -32768 <= instr.imm <= 32767:
            if lo < -SP_EXCURSION_LIMIT or hi > SP_EXCURSION_LIMIT:
                raise VerifyError(
                    f"native[{index}] {instr}: sp-relative store with "
                    f"unbounded stack pointer excursion"
                )
        elif (instr.rs == ctx.at and scratch == _DATA_SANDBOXED
              and instr.imm == 0):
            pass
        else:
            raise VerifyError(
                f"native[{index}] {instr}: store through unsandboxed "
                f"address register r{instr.rs}"
            )
    elif instr.op in _STOREX_OPS:
        analysis.stores_checked += 1
        base_ok = (
            instr.rs == ctx.reserved.get("sfi_base")
            and instr.rd == ctx.at
            and scratch == _DATA_MASKED
        )
        if not base_ok:
            raise VerifyError(
                f"native[{index}] {instr}: indexed store outside the "
                f"sandboxed form"
            )
    # Rule 3: indirect control transfers.
    if instr.op in ("jr", "jalr"):
        analysis.ijumps_checked += 1
        if not (instr.rs == ctx.at and scratch == _CODE_SANDBOXED):
            raise VerifyError(
                f"native[{index}] {instr}: unsandboxed indirect "
                f"jump through r{instr.rs}"
            )


def _int_writes(instr: MInstr) -> list[int]:
    """The integer registers *instr* writes, from its cached operand
    set (mutants are verified on clones, whose caches start empty)."""
    return [reg for kind, reg in instr.cached_writes() if kind == "r"]


def _is_small_sp_update(instr: MInstr, sp: int) -> bool:
    return (
        instr.op == "addi"
        and instr.rd == sp
        and instr.rs == sp
        and -32768 <= instr.imm <= 32767
    )


def _next_state(instr: MInstr, at: int, reserved: dict,
                policy: SandboxPolicy, state: int) -> int:
    """Scratch-register transfer for an instruction that writes ``at``."""
    op = instr.op
    mask_reg = reserved.get("sfi_mask", -1)
    base_reg = reserved.get("sfi_base", -1)
    code_base_reg = reserved.get("sfi_code_base", -1)
    code_mask_reg = reserved.get("sfi_code_mask", -1)
    # Masking forms.
    if op == "and" and instr.rd == at and instr.rt == mask_reg:
        return _DATA_MASKED
    if op == "and" and instr.rd == at and instr.rt == code_mask_reg:
        return _CODE_MASKED
    if op == "andi" and instr.rd == at and instr.imm == policy.data_mask:
        return _DATA_MASKED
    if op == "andi" and instr.rd == at and instr.imm == policy.code_mask:
        return _CODE_MASKED
    # Rebasing forms.
    if op == "or" and instr.rd == at and instr.rs == at:
        if instr.rt == base_reg and state == _DATA_MASKED:
            return _DATA_SANDBOXED
        if instr.rt == code_base_reg and state == _CODE_MASKED:
            return _CODE_SANDBOXED
        return _UNKNOWN
    if op == "ori" and instr.rd == at and instr.rs == at:
        # Compare against the *policy's* data base, not the default
        # layout constant — under a scaled-down policy (the model
        # checker's small-model sweep) the two differ, and the
        # hardcoded constant made replay disagree with the policy the
        # caller asked about.
        if instr.imm == policy.data_base and state == _DATA_MASKED:
            return _DATA_SANDBOXED
        if instr.imm == policy.code_base and state == _CODE_MASKED:
            return _CODE_SANDBOXED
        return _UNKNOWN
    return _UNKNOWN


# Public aliases of the scratch-register lattice for tooling (the
# sandbox-escape mutation fuzzer, tests).
SCRATCH_UNKNOWN = _UNKNOWN
SCRATCH_DATA_MASKED = _DATA_MASKED
SCRATCH_DATA_SANDBOXED = _DATA_SANDBOXED
SCRATCH_CODE_MASKED = _CODE_MASKED
SCRATCH_CODE_SANDBOXED = _CODE_SANDBOXED


def scratch_step(instr: MInstr, spec, policy: SandboxPolicy,
                 state: int) -> int:
    """Public scratch-register transfer function for one instruction.

    The mutation fuzzer replays this over a mutated guard chain to
    predict — independently of the full CFG pass — whether the chain
    still establishes the state its consumer needs (some mutations are
    genuinely behavior-preserving, e.g. dropping the address-forming
    ``mov``/``addi`` before the mask only redirects *which* in-sandbox
    address is written)."""
    at = spec.reserved["at"]
    if at in _int_writes(instr):
        return _next_state(instr, at, spec.reserved, policy, state)
    return state


def assert_masks_are_sound() -> None:
    """Static consistency of the policy constants (used by tests)."""
    if SANDBOX_BASE & SANDBOX_MASK:
        raise VerifyError("sandbox base overlaps offset mask bits")
    if DEFAULT_POLICY.code_base & DEFAULT_POLICY.code_mask:
        raise VerifyError("code base overlaps code mask bits")
    if DEFAULT_POLICY.code_mask & 0x7:
        raise VerifyError("code mask does not enforce 8-byte alignment")
