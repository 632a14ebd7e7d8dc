"""PowerPC 601 target model.

Characteristics modeled:

* 32 integer registers; OmniVM maps to r8..r23 with the runtime holding
  SFI registers and a global pointer in the high caller-saved range;
* 16-bit immediates (``addis``/``ori`` pairs for 32-bit constants);
* **indexed addressing** (``lwzx``/``stwx``): OmniVM's indexed mode maps
  one-to-one (no ``addr`` expansion, unlike MIPS) and the SFI store
  sequence is one instruction shorter (mask, then store through the
  segment-base register with ``stwx``) — both effects the paper's
  Figure 1 shows;
* condition-register branches: *every* conditional branch needs an
  explicit ``cmpw``/``cmpwi`` first (the dominant ``cmp`` expansion the
  paper reports for PPC), and compares have 2-cycle latency to the
  branch;
* dual issue (601-style): one integer op may pair with one FP op or one
  branch per cycle;
* no delay slots; 2-cycle taken-branch penalty.
"""

from __future__ import annotations

from repro.targets.base import MInstr, TargetSpec, Timing

AT = 0            # r0 (quirky on real PPC; fine as scratch here)
SFI_MASK = 24
SFI_BASE = 25
SFI_CODE_BASE = 26
GP = 27
SP = 1            # PPC convention: r1 is the stack pointer
RA = 31           # stands in for the link register

INT_MAP = {i: 8 + i for i in range(16)}
INT_MAP[15] = SP
INT_MAP[14] = RA

FP_MAP = {i: i for i in range(16)}

_FP_OPS_PREFIXES = ("f", "lf", "sf", "cvt")


def _is_fp_or_branch(instr: MInstr) -> bool:
    if not instr.cclass:
        fpb = (instr.op.startswith(_FP_OPS_PREFIXES) or instr.is_branch()
               or instr.op in ("bcc", "fbcc"))
        instr.cclass = "fpb" if fpb else "int"
    return instr.cclass == "fpb"


def _is_int_op(instr: MInstr) -> bool:
    return not _is_fp_or_branch(instr)


def _dual_issue(first: MInstr, second: MInstr) -> bool:
    """PPC601: integer unit + (FPU or branch unit) issue in parallel."""
    if _is_int_op(first) and _is_fp_or_branch(second):
        return True
    if _is_fp_or_branch(first) and _is_int_op(second):
        return True
    return False


def _timing() -> Timing:
    return Timing(
        name="ppc601",
        load_latency=2,
        mul_latency=5,
        div_latency=36,
        fp_add_latency=4,
        fp_mul_latency=5,
        fp_div_latency=31,
        cmp_latency=2,  # multi-cycle compare latency the paper calls out
        taken_branch_penalty=2,
        has_delay_slot=False,
        dual_issue=_dual_issue,
    )


def spec() -> TargetSpec:
    return TargetSpec(
        name="ppc",
        num_regs=32,
        num_fregs=32,
        int_map=dict(INT_MAP),
        fp_map=dict(FP_MAP),
        reserved={
            "at": AT,
            "sfi_mask": SFI_MASK,
            "sfi_base": SFI_BASE,
            "sfi_code_base": SFI_CODE_BASE,
            "gp": GP,
            "sp": SP,
            "ra": RA,
        },
        timing=_timing(),
        delay_slots=False,
        has_indexed_mem=True,
        imm_bits=16,
    )
