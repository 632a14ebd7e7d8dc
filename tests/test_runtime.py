"""Runtime: host services, heap allocator, loader, exception model."""

import pytest

from repro.compiler import CompileOptions, compile_and_link
from repro.errors import HostCallError, VerifyError
from repro.omnivm.asmparser import assemble
from repro.omnivm.interp import OmniVM
from repro.omnivm.linker import link
from repro.omnivm.memory import standard_module_memory
from repro.runtime import hostapi
from repro.runtime.host import HeapAllocator, Host
from repro.runtime.loader import (
    _OmniVMAdapter,
    load_for_interpretation,
    run_module,
)
from repro.runtime.native_loader import run_on_target
from repro.native.profiles import MOBILE_SFI
from repro.translators import ARCHITECTURES
from tests.conftest import compile_run


class TestHeapAllocator:
    def test_alloc_returns_distinct_blocks(self):
        heap = HeapAllocator()
        a = heap.alloc(100)
        b = heap.alloc(100)
        assert a != b and a != 0 and b != 0

    def test_free_then_realloc_reuses(self):
        heap = HeapAllocator()
        a = heap.alloc(64)
        heap.free(a)
        assert heap.alloc(64) == a

    def test_size_classes_rounded(self):
        heap = HeapAllocator()
        a = heap.alloc(1)
        b = heap.alloc(1)
        assert b - a >= 8

    def test_free_null_is_noop(self):
        HeapAllocator().free(0)

    def test_double_free_detected(self):
        heap = HeapAllocator()
        a = heap.alloc(16)
        heap.free(a)
        from repro.errors import VMRuntimeError

        with pytest.raises(VMRuntimeError):
            heap.free(a)

    def test_exhaustion_returns_null(self):
        heap = HeapAllocator()
        heap.limit = heap.base + 1024
        assert heap.alloc(4096) == 0

    def test_minic_alloc_roundtrip(self, minic):
        src = """
        int main() {
            int *p = (int *) halloc(16);
            int *q = (int *) halloc(16);
            p[0] = 5; q[0] = 6;
            emit_int(p[0] + q[0]);
            hfree(p); hfree(q);
            int *r = (int *) halloc(16);
            emit_int(r == q || r == p);  /* reuse from the free list */
            return 0;
        }
        """
        assert minic(src) == [11, 1]


class TestHostServices:
    def test_output_text_rendering(self, minic):
        _code, host = compile_run("""
        int main() {
            emit_str("x="); emit_int(42); emit_char(10);
            emit_double(1.5);
            return 0;
        }
        """)
        assert host.output_text() == "x=42\n1.5"

    def test_math_exports(self, minic):
        values = minic("""
        int main() {
            emit_double(host_sqrt(9.0));
            emit_double(host_pow(2.0, 8.0));
            emit_double(host_floor(3.9));
            return 0;
        }
        """)
        assert values == [3.0, 256.0, 3.0]

    def test_rng_deterministic(self):
        v1 = compile_run("int main() { emit_int(host_rand()); emit_int(host_rand()); return 0; }")[1]
        v2 = compile_run("int main() { emit_int(host_rand()); emit_int(host_rand()); return 0; }")[1]
        assert v1.output_values() == v2.output_values()

    def test_clock_is_instruction_count(self):
        _code, host = compile_run("""
        int main() {
            int a = host_clock();
            int i; int s = 0;
            for (i = 0; i < 100; i++) s += i;
            int b = host_clock();
            emit_int(b > a);
            return s & 0;
        }
        """)
        assert host.output_values() == [1]

    def test_export_policy_blocks(self):
        host = Host(exports={"exit", "emit_int"})
        with pytest.raises(HostCallError):
            compile_run("int main() { emit_double(1.0); return 0; }", host=host)

    def test_unknown_index_rejected(self):
        program = link([assemble("""
            .text
            .globl main
        main:
            hostcall 1
            jr ra
        """)])
        # Corrupt the index beyond the table.  The loader's verifier
        # refuses such a module, so wire the VM to its host by hand to
        # test the host's own index check.
        program.instrs[0].imm = 999
        vm = OmniVM(program, standard_module_memory(program.text_image,
                                                    program.data_image))
        host = Host()
        vm.hostcall = lambda vm, index: host.hostcall(_OmniVMAdapter(vm),
                                                      index)
        with pytest.raises(HostCallError):
            vm.run()

    def test_verifier_catches_bad_hostcall_index(self):
        program = link([assemble("""
            .text
            .globl main
        main:
            hostcall 999
            jr ra
        """)])
        with pytest.raises(VerifyError):
            load_for_interpretation(program)

    def test_default_exports_exclude_privileged(self):
        assert "host_send" not in hostapi.DEFAULT_EXPORTS
        assert "gfx_draw" not in hostapi.DEFAULT_EXPORTS
        assert "emit_int" in hostapi.DEFAULT_EXPORTS

    def test_mailbox_roundtrip(self):
        host = Host(exports=set(hostapi.DEFAULT_EXPORTS) | {"host_send",
                                                            "host_recv"})
        host.inbox = [b"one", b"two"]
        compile_run("""
        char buf[16];
        int main() {
            int n;
            while ((n = host_recv(buf, 16)) >= 0) host_send(buf, n);
            return 0;
        }
        """, host=host)
        assert host.sent == [b"one", b"two"]


class TestExceptionModel:
    HANDLER_PROGRAM = """
    int faults;
    void handler(int cause, uint addr, uint pc) {
        faults++;
        emit_int(cause);
        emit_uint(addr);
        exit(40 + faults);
    }
    int main() {
        faults = 0;
        sethandler(handler);
        int *p = (int *) 0x08000000;  /* unmapped */
        %s
        return 99;                    /* unreachable */
    }
    """

    def test_load_violation_delivered_interpreter(self):
        code, host = compile_run(self.HANDLER_PROGRAM % "emit_int(*p);")
        assert code == 41
        assert host.output_values() == [1, 0x08000000]  # cause=load

    def test_store_violation_delivered_interpreter(self):
        # Stores on the *interpreter* hit segment permissions directly
        # (SFI applies to translated code; the VM model faults).
        code, host = compile_run(self.HANDLER_PROGRAM % "*p = 3;")
        assert code == 41
        assert host.output_values() == [2, 0x08000000]  # cause=store

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_load_violation_delivered_on_targets(self, arch):
        program = compile_and_link([self.HANDLER_PROGRAM % "emit_int(*p);"])
        code, module = run_on_target(program, arch, MOBILE_SFI)
        assert code == 41
        assert module.host.output_values()[0] == 1

    def test_without_handler_violation_escapes(self):
        from repro.errors import AccessViolation

        with pytest.raises(AccessViolation):
            compile_run("""
            int main() { int *p = (int *) 0x08000000; return *p; }
            """)
