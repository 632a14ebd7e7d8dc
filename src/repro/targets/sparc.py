"""SPARC (SuperSPARC-class) target model.

Characteristics modeled:

* 32 integer registers, flat (register windows are *not* modeled — the
  translator uses a flat mapping exactly like the paper's, which had to
  preserve ABI compatibility anyway); OmniVM registers map to r8..r23
  (``%o``/``%l`` ranges), with ``%g`` registers reserved for the runtime;
* 13-bit immediates (``simm13``): constants beyond that need
  ``sethi``+``or`` (``ldi`` category) — notably *smaller* than MIPS/PPC
  immediates, which is why the **global pointer** optimization matters
  most here (the paper credits SPARC's competitiveness to it);
* condition codes: compare is ``subcc`` (``cmp`` category when OmniVM's
  compare-and-branch splits);
* **branch delay slots with annulment**: the translator uses annulled
  branches to fill slots aggressively;
* scalar timing with 1-cycle taken-branch penalty and 2-cycle loads.
"""

from __future__ import annotations

from repro.targets.base import TargetSpec, Timing

AT = 1           # %g1: translator scratch
SFI_MASK = 2     # %g2
SFI_BASE = 3     # %g3
SFI_CODE_BASE = 4  # %g4
GP = 5           # %g5: global data pointer
SFI_CODE_MASK = 6  # %g6
SP = 14          # %o6
RA = 15          # %o7

INT_MAP = {i: 8 + i for i in range(16)}
INT_MAP[15] = SP
INT_MAP[14] = RA
# r8..r23 collide with SP/RA positions 14/15: shift the middle range.
for omni, native in list(INT_MAP.items()):
    if omni not in (14, 15) and native in (SP, RA):
        INT_MAP[omni] = 24 + (native - 14)  # move to %l6/%l7 range

FP_MAP = {i: i for i in range(16)}

#: simm13 immediate range.
IMM_BITS = 13


def _timing() -> Timing:
    return Timing(
        name="sparc",
        load_latency=2,
        mul_latency=8,
        div_latency=30,
        fp_add_latency=3,
        fp_mul_latency=5,
        fp_div_latency=20,
        cmp_latency=1,
        taken_branch_penalty=1,
        has_delay_slot=True,
        dual_issue=None,
    )


def spec() -> TargetSpec:
    return TargetSpec(
        name="sparc",
        num_regs=32,
        num_fregs=32,
        int_map=dict(INT_MAP),
        fp_map=dict(FP_MAP),
        reserved={
            "at": AT,
            "sfi_mask": SFI_MASK,
            "sfi_base": SFI_BASE,
            "sfi_code_base": SFI_CODE_BASE,
            "sfi_code_mask": SFI_CODE_MASK,
            "gp": GP,
            "sp": SP,
            "ra": RA,
        },
        timing=_timing(),
        delay_slots=True,
        has_indexed_mem=True,  # SPARC has reg+reg addressing
        imm_bits=IMM_BITS,
    )
