"""Load-time verification of OmniVM modules.

Before a mobile module runs (or is translated), the loader checks cheap
structural properties so that a malformed module is rejected outright
rather than mistranslated:

* every instruction decodes to a known opcode with in-range registers
  (guaranteed by the decoder, re-checked here for programmatically built
  modules);
* every direct branch/jump/call target lies inside the code segment and
  is instruction-aligned;
* `hostcall` indices are well-formed;
* the data image fits its segment.

Indirect jumps cannot be checked statically — that is exactly the gap SFI
closes at run time by masking the target register (see
:mod:`repro.sfi.rewrite`).
"""

from __future__ import annotations

from repro import metrics
from repro.errors import ModuleVerifyError
from repro.omnivm.isa import INSTR_SIZE, SPEC_BY_NAME
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import CODE_BASE, DEFAULT_SEGMENT_SIZE, DATA_BASE
from repro.runtime import hostapi


def verify_program(program: LinkedProgram) -> None:
    """Raise :class:`~repro.errors.ModuleVerifyError` if *program* fails
    load-time checks."""
    with metrics.stage("verify.module"):
        _verify_program(program)
    if metrics.active():
        metrics.count("verify.module.instrs", len(program.instrs))


def _verify_program(program: LinkedProgram) -> None:
    # A whole program or a linked image, whose code starts at the
    # segment base.  A dynamic link's per-module translation units are
    # verified as part of their image, never on their own.
    code_size = len(program.instrs) * INSTR_SIZE
    if code_size > DEFAULT_SEGMENT_SIZE:
        raise ModuleVerifyError("code image exceeds the code segment")
    if len(program.data_image) > DEFAULT_SEGMENT_SIZE:
        raise ModuleVerifyError("data image exceeds the data segment")
    code_lo = CODE_BASE
    code_hi = code_lo + code_size
    for index, instr in enumerate(program.instrs):
        spec = SPEC_BY_NAME.get(instr.op)
        if spec is None:
            raise ModuleVerifyError(
                f"instruction {index}: unknown opcode {instr.op!r}")
        for reg in (instr.rd, instr.rs, instr.rt, instr.fd, instr.fs, instr.ft):
            if not 0 <= reg < 16:
                raise ModuleVerifyError(
                    f"instruction {index}: register out of range")
        if instr.label is not None:
            raise ModuleVerifyError(
                f"instruction {index}: unresolved symbol {instr.label!r}"
            )
        if spec.kind in ("branch", "branchi", "jump", "call"):
            target = instr.imm & 0xFFFFFFFF
            if not code_lo <= target < code_hi:
                raise ModuleVerifyError(
                    f"instruction {index}: control target {target:#x} "
                    f"outside code segment"
                )
            if target % INSTR_SIZE:
                raise ModuleVerifyError(
                    f"instruction {index}: misaligned control target"
                )
        if spec.kind == "host":
            if instr.imm not in hostapi.HOST_FUNCTIONS_BY_INDEX:
                raise ModuleVerifyError(
                    f"instruction {index}: bad hostcall index {instr.imm}"
                )
    # The entry point must exist and be sane.
    entry = program.entry_address
    if not code_lo <= entry < code_hi or entry % INSTR_SIZE:
        raise ModuleVerifyError(f"bad entry address {entry:#x}")
    # Data relocations were applied by the linker; spot-check symbols point
    # into the module's own segments.
    for name, address in program.symbols.items():
        in_code = CODE_BASE <= address < CODE_BASE + DEFAULT_SEGMENT_SIZE
        in_data = DATA_BASE <= address < DATA_BASE + DEFAULT_SEGMENT_SIZE
        if not (in_code or in_data):
            raise ModuleVerifyError(f"symbol {name!r} outside module segments")
    # Multi-module images additionally verify that every cross-module
    # reference lands on an exported symbol (the hook avoids an import
    # cycle with repro.runtime.linker, which defines the image type).
    cross_module = getattr(program, "verify_cross_module", None)
    if cross_module is not None:
        with metrics.stage("verify.cross_module"):
            cross_module()
