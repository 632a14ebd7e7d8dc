"""Load-time OmniVM module verification (pre-translation checks)."""

import pytest

from repro.errors import VerifyError
from repro.omnivm.asmparser import assemble
from repro.omnivm.isa import VMInstr
from repro.omnivm.linker import link
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.verifier import verify_program


def program_of(body, name="main"):
    return link([assemble(f"""
        .text
        .globl {name}
    {name}:
    {body}
    """)])


class TestAccepts:
    def test_minimal_module(self):
        verify_program(program_of("jr ra"))

    def test_branches_and_calls(self):
        verify_program(program_of("""
        top:
            beqi r1, 0, top
            jal top
            j top
        """))

    def test_hostcalls(self):
        verify_program(program_of("""
            hostcall 0
            hostcall 21
            jr ra
        """))


class TestRejects:
    def test_branch_outside_code_segment(self):
        program = program_of("j main")
        program.instrs[0].imm = 0x00001000
        with pytest.raises(VerifyError, match="outside code segment"):
            verify_program(program)

    def test_misaligned_branch_target(self):
        program = program_of("j main")
        program.instrs[0].imm = CODE_BASE + 4
        with pytest.raises(VerifyError, match="misaligned"):
            verify_program(program)

    def test_branch_beyond_text_end(self):
        program = program_of("j main")
        program.instrs[0].imm = CODE_BASE + 8 * 1000
        with pytest.raises(VerifyError, match="outside code segment"):
            verify_program(program)

    def test_bad_hostcall_index(self):
        program = program_of("hostcall 1\n jr ra")
        program.instrs[0].imm = 12345
        with pytest.raises(VerifyError, match="hostcall"):
            verify_program(program)

    def test_unresolved_symbol(self):
        program = program_of("jr ra")
        program.instrs.insert(0, VMInstr("jal", label="ghost"))
        with pytest.raises(VerifyError, match="unresolved"):
            verify_program(program)

    def test_register_out_of_range(self):
        program = program_of("jr ra")
        program.instrs[0].rs = 31
        with pytest.raises(VerifyError, match="register"):
            verify_program(program)

    def test_loader_refuses_unverifiable_module(self):
        from repro.runtime.loader import load_for_interpretation

        program = program_of("hostcall 1\n jr ra")
        program.instrs[0].imm = 12345
        with pytest.raises(VerifyError):
            load_for_interpretation(program)
