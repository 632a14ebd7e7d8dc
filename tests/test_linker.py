"""Linker: symbol resolution, relocations, multi-object programs."""

import pytest

from repro.errors import LinkError
from repro.omnivm.asmparser import assemble
from repro.omnivm.isa import INSTR_SIZE
from repro.omnivm.linker import link
from repro.omnivm.memory import CODE_BASE, DATA_BASE
from repro.runtime.linker import ModuleRegistry, dynamic_link
from repro.runtime.loader import run_module


class TestSymbolResolution:
    def test_cross_object_call(self):
        caller = assemble("""
            .text
            .globl main
        main:
            addi r15, r15, -8
            sw ra, r15, 0
            li r1, 20
            jal helper
            hostcall 1
            li r1, 0
            lw ra, r15, 0
            addi r15, r15, 8
            jr ra
        """, "caller")
        callee = assemble("""
            .text
            .globl helper
        helper:
            addi r1, r1, 22
            jr ra
        """, "callee")
        code, host = run_module(link([caller, callee]))
        assert host.output_values() == [42]

    def test_cross_object_data(self):
        user = assemble("""
            .text
            .globl main
        main:
            li r2, @shared
            lw r1, r2, 0
            jr ra
        """, "user")
        provider = assemble("""
            .data
            .globl shared
        shared:
            .word 1234
        """, "provider")
        code, _ = run_module(link([user, provider]))
        assert code == 1234

    def test_local_symbols_do_not_collide(self):
        a = assemble("""
            .text
            .globl main
        main:
            jal f_a
            jr ra
            .globl f_a
        f_a:
        local:
            li r1, 1
            jr ra
        """, "a")
        b = assemble("""
            .text
            .globl f_b
        f_b:
        local:
            li r1, 2
            jr ra
        """, "b")
        link([a, b])  # both define local label "local"

    def test_undefined_symbol_rejected(self):
        obj = assemble("""
            .text
            .globl main
        main:
            jal missing
            jr ra
        """)
        with pytest.raises(LinkError, match="missing"):
            link([obj])

    def test_duplicate_global_rejected(self):
        a = assemble(".text\n.globl f\nf:\n jr ra", "a")
        b = assemble(".text\n.globl f\nf:\n jr ra", "b")
        with pytest.raises(LinkError, match="duplicate"):
            link([a, b])

    @pytest.mark.parametrize("global_first, message", [
        (True, "duplicate local symbol 'x@0'"),
        (False, "duplicate symbol 'x'"),
    ])
    def test_local_and_global_of_one_name_rejected(self, global_first,
                                                    message):
        """One naming rule for both linkers: an object defines each name
        once, local or global (the static linker used to accept this
        pair and the dynamic one refused it)."""
        obj = assemble(".text\n.globl main\nmain:\n jr ra\n jr ra", "dup")
        for is_global in (global_first, not global_first):
            obj.define("x", "text", 8 if is_global else 0, is_global)
        with pytest.raises(LinkError, match=message):
            link([obj])
        registry = ModuleRegistry()
        registry.register("dup", obj)
        with pytest.raises(LinkError,
                           match="duplicate symbol 'x' in module 'dup'"):
            dynamic_link(registry, ["dup"])

    def test_same_name_local_in_one_object_global_in_another(self):
        a = assemble(".text\n.globl main\nmain:\n jal x\n jr ra", "a")
        a.define("x", "text", 8, is_global=False)
        b = assemble(".text\n.globl x\nx:\n jr ra", "b")
        program = link([a, b])
        assert program.symbols["x@0"] == CODE_BASE + 8
        assert program.symbols["x"] == CODE_BASE + 16
        assert program.instrs[0].imm == CODE_BASE + 8  # a's own x

    def test_missing_entry_rejected(self):
        obj = assemble(".text\n.globl f\nf:\n jr ra")
        program = link([obj])
        with pytest.raises(LinkError):
            program.entry_address


class TestLayout:
    def test_addresses_in_segments(self):
        obj = assemble("""
            .text
            .globl main
        main:
            jr ra
            .data
            .globl g
        g:
            .word 0
        """)
        program = link([obj])
        assert program.symbols["main"] == CODE_BASE
        assert program.symbols["g"] >= DATA_BASE

    def test_text_concatenation_order(self):
        a = assemble(".text\n.globl main\nmain:\n jr ra", "a")
        b = assemble(".text\n.globl f\nf:\n jr ra\n jr ra", "b")
        program = link([a, b])
        assert program.symbols["f"] == CODE_BASE + 1 * INSTR_SIZE
        assert program.function_ranges["main"] == (0, 1)
        assert program.function_ranges["f"] == (1, 3)

    def test_data_relocation_applied(self):
        obj = assemble("""
            .text
            .globl main
        main:
            li r2, @ptr
            lw r2, r2, 0     ; r2 = *ptr = &value
            lw r1, r2, 0     ; r1 = value
            jr ra
            .data
            .globl ptr
        ptr:
            .word @value
            .globl value
        value:
            .word 777
        """)
        code, _ = run_module(link([obj]))
        assert code == 777

    def test_bss_zero_initialized(self):
        obj = assemble("""
            .text
            .globl main
        main:
            li r2, @buf
            lw r1, r2, 4
            jr ra
        """)
        obj.bss_size = 64
        obj.define("buf", "bss", 0)
        code, _ = run_module(link([obj]))
        assert code == 0

    def test_text_image_is_executable_bytes(self):
        obj = assemble(".text\n.globl main\nmain:\n li r1, 9\n jr ra")
        program = link([obj])
        assert len(program.text_image) == 2 * INSTR_SIZE
