"""Machine-dependent peepholes for the ``cc`` native-compiler profile.

The paper attributes the vendor ``cc`` compilers' edge over gcc (and over
translated OmniVM code) to machine-dependent optimization: "better code
selection and aggressive instruction scheduling", condition-code folding
on the PPC ("folding the setting of the condition codes into a prior
arithmetic instruction"), branch-and-decrement, and Pentium-specific
peepholes.  The ``cc`` profile models these with three transformations
applied after translation:

* **compare folding** (PPC, and x86's flags-setting ALU ops): a
  ``cmpi rs, 0`` whose register was just written by an ALU instruction
  is deleted — the ALU op's record form sets the condition register;
* **branch-and-decrement** (PPC): ``addi r, r, -1`` followed by a folded
  compare-vs-zero and branch models ``bdnz`` — the compare deletion above
  plus this pass removing the decrement when it immediately precedes the
  branch (folded into the branch-and-count instruction);
* **load folding** (x86): a load into a scratch register immediately
  consumed by the next ALU instruction becomes a memory-operand ALU
  instruction (the load is deleted; the ALU op keeps the load's cost via
  the memory-operand timing rule).

These run only for ``native_profile == "cc"``; mobile translation must
stay cheap, which is exactly the gap Tables 3 and 6 measure.
"""

from __future__ import annotations

_ALU_WRITERS = frozenset(
    "add addi sub and andi or ori xor xori sll slli srl srli sra srai".split()
)


def apply_cc_peepholes(module) -> int:
    """Apply the cc-profile peepholes in place; returns removed count."""
    spec = module.spec
    removed = 0
    if spec.name in ("ppc", "x86"):
        removed += _fold_compares(module)
    if spec.name == "ppc":
        removed += _fold_branch_decrement(module)
        removed += _fold_counted_loops(module)
    if spec.name == "x86":
        removed += _fold_loads(module)
        removed += _fold_twoop_moves(module)
    if spec.name == "mips":
        removed += _fill_slots_globally(module)
    return removed


def _protected_indexes(module) -> set[int]:
    """Native indexes that are control-flow targets must not shift."""
    protected = set(module.omni_to_native.values())
    for instr in module.instrs:
        if instr.target >= 0:
            protected.add(instr.target)
    return protected


def _fold_compares(module) -> int:
    """Fold a cmpi-vs-zero right after an ALU write of the same register
    into that ALU instruction (PPC record form / x86 flags).  The compare
    is retagged ``fused``: it still sets the condition state in the
    functional simulator but issues at zero cost and does not retire."""
    protected = _protected_indexes(module)
    count = 0
    instrs = module.instrs
    for index in range(1, len(instrs)):
        instr = instrs[index]
        if instr.op != "cmpi" or instr.imm != 0 or index in protected:
            continue
        prev = instrs[index - 1]
        if prev.op in _ALU_WRITERS and prev.rd == instr.rs:
            instr.category = "fused"
            count += 1
    return count


def _fold_branch_decrement(module) -> int:
    """Model bdnz: delete a decrement immediately before a bcc that was
    already compare-folded against the same register."""
    protected = _protected_indexes(module)
    count = 0
    instrs = module.instrs
    for index in range(len(instrs) - 1):
        instr = instrs[index]
        nxt = instrs[index + 1]
        if (
            instr.op == "addi"
            and instr.imm == -1
            and instr.rd == instr.rs
            and nxt.op == "bcc"
            and index + 1 not in protected
            and index not in protected
        ):
            # The decrement folds into the branch-and-count instruction.
            # A functional simulator still needs its register effect, so
            # it is retagged as "fused": the executor performs it at zero
            # issue cost and does not count it as a retired instruction.
            instr.category = "fused"
            count += 1
    return count


def _fold_counted_loops(module) -> int:
    """PPC branch-and-count: an induction-variable update (addi r, r, ±1)
    followed by a compare of that register feeding a branch folds into
    the CTR machinery (the paper: "the PowerPC branch and count
    instruction can fold an induction variable decrement, test ... and
    branch into a single instruction").  The compare is retagged fused."""
    protected = _protected_indexes(module)
    count = 0
    instrs = module.instrs

    def defining_addi(compare_index: int, reg: int, hops: int = 2) -> bool:
        """Is the nearest in-block definition of *reg* a ±1 addi?  The
        front end routes induction updates through a copy (``addi t, i,
        1; mov i, t``), so up to two mov indirections are chased."""
        for back in range(1, 10):
            j = compare_index - back
            if j < 0 or j + 1 in protected:
                return False
            prev = instrs[j]
            if prev.is_branch():
                return False
            if reg in {r for k, r in prev.reg_writes() if k == "r"}:
                if prev.op == "addi" and prev.imm in (1, -1):
                    return True
                if prev.op == "mov" and hops > 0:
                    return defining_addi(j, prev.rs, hops - 1)
                return False
        return False

    for index, instr in enumerate(instrs):
        if instr.op != "bcc":
            continue
        # Find the compare feeding this branch (the scheduler may have
        # hoisted it several slots up to hide its latency).
        for back in range(1, 8):
            j = index - back
            if j < 0 or j + 1 in protected:
                break
            prev = instrs[j]
            if ("cc", 0) in prev.reg_writes():
                if (prev.op in ("cmp", "cmpi")
                        and prev.category != "fused"
                        and defining_addi(j, prev.rs)):
                    prev.category = "fused"
                    count += 1
                break
            if prev.is_branch():
                break
    return count


def _fill_slots_globally(module) -> int:
    """MIPS cc profile: vendor compilers perform global instruction
    scheduling and fill nearly every branch delay slot from across basic
    blocks; the mobile translator only fills locally.  Model: remaining
    delay-slot nops become fused (zero-cost)."""
    count = 0
    for instr in module.instrs:
        if instr.op == "nop" and instr.category == "bnop":
            instr.category = "fused"
            count += 1
    return count


def _fold_twoop_moves(module) -> int:
    """x86 cc profile: the vendor compiler's register targeting avoids
    most two-operand copy instructions (it allocates the destination of
    an operation into its first source).  Model: `mov` instructions the
    translator inserted for two-operand form, between two machine
    registers, become fused."""
    from repro.targets.x86 import SLOT_BASE

    count = 0
    for instr in module.instrs:
        if (
            instr.op == "mov"
            and instr.category == "twoop"
            and instr.rd < SLOT_BASE
            and instr.rs < SLOT_BASE
        ):
            instr.category = "fused"
            count += 1
    return count


def _fold_loads(module) -> int:
    """x86: fold `lw at, [..]` + ALU consuming `at` into a memory-operand
    ALU op (delete the load, move its address into the ALU op's rt slot —
    semantically modeled by keeping the load but charging it as folded)."""
    protected = _protected_indexes(module)
    count = 0
    instrs = module.instrs
    for index in range(len(instrs) - 1):
        instr = instrs[index]
        if instr.op != "lw" or index + 1 in protected:
            continue
        # The consumer may be adjacent, or one independent instruction
        # later (the translator's two-operand mov often sits between).
        for hop in (1, 2):
            if index + hop >= len(instrs) or index + hop in protected:
                break
            nxt = instrs[index + hop]
            if hop == 2:
                between = instrs[index + 1]
                touches = {r for k, r in between.reg_writes() if k == "r"}
                if instr.rd in touches or between.is_branch():
                    break
            if nxt.op in _ALU_WRITERS and instr.rd >= 0 and (
                nxt.rt == instr.rd and nxt.rd != instr.rd
            ):
                # The pair issues as one memory-operand instruction on
                # x86: the load is fused (zero issue cost).
                instr.category = "fused"
                count += 1
                break
    return count
