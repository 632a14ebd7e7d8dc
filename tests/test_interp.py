"""Reference interpreter semantics, instruction by instruction.

Programs are built directly out of VMInstr objects (via the assembler
for readability), so these tests pin the SDCA's semantics independently
of the MiniC compiler.
"""

import pytest

from repro.errors import FuelExhausted, VMRuntimeError, VMTrap
from repro.omnivm.asmparser import assemble
from repro.omnivm.linker import link
from repro.runtime.loader import load_for_interpretation, run_module


def run_asm(body, data="", fuel=1_000_000):
    source = f"""
        .text
        .globl main
    main:
    {body}
        .data
    {data}
    """
    program = link([assemble(source)])
    loaded = load_for_interpretation(program, fuel=fuel)
    code = loaded.run()
    return code, loaded


class TestALU:
    def test_add_sub_wrap(self):
        code, _ = run_asm("""
            li r1, 0x7FFFFFFF
            addi r1, r1, 1
            jr ra
        """)
        assert code == -2147483648

    def test_signed_division(self):
        code, _ = run_asm("""
            li r1, -17
            li r2, 5
            div r1, r1, r2
            jr ra
        """)
        assert code == -3

    def test_unsigned_division(self):
        code, _ = run_asm("""
            li r1, 0xFFFFFFFE
            li r2, 2
            divu r1, r1, r2
            jr ra
        """)
        assert code == 0x7FFFFFFF

    def test_division_by_zero_traps(self):
        with pytest.raises(VMRuntimeError):
            run_asm("""
                li r1, 1
                li r2, 0
                div r1, r1, r2
                jr ra
            """)

    def test_shifts(self):
        code, _ = run_asm("""
            li r1, -16
            srai r1, r1, 2
            jr ra
        """)
        assert code == -4
        code, _ = run_asm("""
            li r1, -16
            srli r1, r1, 28
            jr ra
        """)
        assert code == 15

    def test_set_compares(self):
        code, _ = run_asm("""
            li r2, -5
            li r3, 3
            slt r1, r2, r3      ; signed: -5 < 3 -> 1
            sltu r4, r2, r3     ; unsigned: huge < 3 -> 0
            sll r1, r1, r3
            or r1, r1, r4
            jr ra
        """)
        assert code == 8

    def test_extensions(self):
        code, _ = run_asm("""
            li r1, 0x1234ABCD
            sext8 r1, r1
            jr ra
        """)
        assert code == -51  # 0xCD sign-extended
        code, _ = run_asm("""
            li r1, 0x1234ABCD
            zext16 r1, r1
            jr ra
        """)
        assert code == 0xABCD


class TestMemoryOps:
    def test_word_store_load(self):
        code, _ = run_asm("""
            li r2, @cell
            li r3, 12345
            sw r3, r2, 0
            lw r1, r2, 0
            jr ra
        """, data=".globl cell\ncell:\n  .word 0")
        assert code == 12345

    def test_subword_sign_extension(self):
        code, _ = run_asm("""
            li r2, @cell
            li r3, 0x1FF
            sb r3, r2, 0
            lb r1, r2, 0
            jr ra
        """, data="cell:\n  .word 0")
        assert code == -1

    def test_indexed_addressing(self):
        code, _ = run_asm("""
            li r2, @arr
            li r3, 8
            lwx r1, r2, r3
            jr ra
        """, data="arr:\n  .word 10, 20, 30")
        assert code == 30

    def test_fp_memory(self):
        code, loaded = run_asm("""
            li r2, @vals
            lfd f1, r2, 0
            lfd f2, r2, 8
            faddd f1, f1, f2
            hostcall 3          ; emit_double(f1)
            li r1, 0
            jr ra
        """, data="vals:\n  .double 1.25\n  .double 2.5")
        assert loaded.host.output_values() == [3.75]


class TestControl:
    def test_compare_and_branch(self):
        code, _ = run_asm("""
            li r1, 0
            li r2, 10
        loop:
            add r1, r1, r2
            addi r2, r2, -1
            bgti r2, 0, loop
            jr ra
        """)
        assert code == sum(range(1, 11))

    def test_branch_unsigned_predicates(self):
        code, _ = run_asm("""
            li r1, 111
            li r2, 0xFFFFFFFF
            bltui r2, 10, small
            li r1, 222
        small:
            jr ra
        """)
        assert code == 222  # 0xFFFFFFFF unsigned is not < 10

    def test_call_and_return(self):
        code, _ = run_asm("""
            addi r15, r15, -8
            sw ra, r15, 0
            li r1, 5
            jal helper
            lw ra, r15, 0
            addi r15, r15, 8
            jr ra
            .globl helper
        helper:
            muli r1, r1, 3
            jr ra
        """)
        assert code == 15

    def test_indirect_call(self):
        code, _ = run_asm("""
            li r5, @helper
            li r1, 4
            addi r15, r15, -8
            sw ra, r15, 0
            jalr r5
            lw ra, r15, 0
            addi r15, r15, 8
            jr ra
            .globl helper
        helper:
            muli r1, r1, 7
            jr ra
        """)
        assert code == 28

    def test_trap_instruction(self):
        with pytest.raises(VMTrap) as info:
            run_asm("""
                trap 9
                jr ra
            """)
        assert info.value.code == 9

    def test_fuel_guard(self):
        with pytest.raises(FuelExhausted):
            run_asm("""
            spin:
                j spin
            """, fuel=1000)


class TestFloatOps:
    def test_conversions(self):
        _code, loaded = run_asm("""
            li r2, -7
            cvtdw f1, r2
            hostcall 3
            li r2, 0xFFFFFFFF
            cvtdwu f1, r2
            hostcall 3
            li r1, 0
            jr ra
        """)
        assert loaded.host.output_values() == [-7.0, 4294967295.0]

    def test_fp_compare(self):
        code, _ = run_asm("""
            li r2, 3
            cvtdw f1, r2
            li r2, 4
            cvtdw f2, r2
            fcltd r1, f1, f2
            jr ra
        """)
        assert code == 1

    def test_single_precision_rounding(self):
        _code, loaded = run_asm("""
            li r2, @vals
            lfs f1, r2, 0
            cvtds f1, f1
            hostcall 3
            li r1, 0
            jr ra
        """, data="vals:\n  .float 0.1")
        (value,) = loaded.host.output_values()
        assert value != 0.1 and abs(value - 0.1) < 1e-7


class TestHostInterface:
    def test_emit_and_exit(self):
        source = """
            .text
            .globl main
        main:
            li r1, 7
            hostcall 1
            li r1, 3
            hostcall 0          ; exit(3)
            li r1, 99           ; unreachable
            jr ra
        """
        program = link([assemble(source)])
        code, host = run_module(program)
        assert code == 3
        assert host.output_values() == [7]
