"""Failure injection: corrupted modules, hostile inputs, resource limits.

A mobile-code system's loader is an attack surface: these tests feed it
truncated, bit-flipped, and deliberately malformed inputs and require a
clean typed error every time — never a crash, hang, or silent
misexecution.
"""

import pytest

from repro.compiler import CompileOptions, compile_and_link, compile_to_object
from repro.errors import (
    EncodingError,
    FuelExhausted,
    LinkError,
    ObjectFormatError,
    ReproError,
    VerifyError,
)
from repro.omnivm.encoding import decode_program
from repro.omnivm.linker import link
from repro.omnivm.objfile import ObjectModule
from repro.runtime.loader import load_for_interpretation


def sample_object() -> ObjectModule:
    return compile_to_object("""
    int data[4] = {1, 2, 3, 4};
    int main() { emit_int(data[2]); return 0; }
    """, CompileOptions(module_name="sample"))


class TestCorruptObjects:
    def test_truncations_never_crash(self):
        blob = sample_object().to_bytes()
        for cut in range(0, len(blob), 7):
            with pytest.raises(ReproError):
                ObjectModule.from_bytes(blob[:cut])

    def test_bit_flips_rejected_or_structurally_valid(self):
        blob = bytearray(sample_object().to_bytes())
        flipped = 0
        for position in range(4, len(blob), 11):
            mutated = bytearray(blob)
            mutated[position] ^= 0x40
            try:
                obj = ObjectModule.from_bytes(bytes(mutated))
                # Structurally decodable garbage must then be caught by
                # the linker or the load-time verifier, or be a benign
                # data/symbol change; it must never crash Python.
                try:
                    program = link([obj])
                    load_for_interpretation(program)
                except ReproError:
                    pass
            except ReproError:
                flipped += 1
        assert flipped > 0  # plenty of positions break the format

    def test_wrong_magic(self):
        with pytest.raises(ObjectFormatError):
            ObjectModule.from_bytes(b"ELF\x7f" + b"\x00" * 100)

    def test_garbage_text_section(self):
        with pytest.raises(EncodingError):
            decode_program(b"\xff" * 16)


class TestHostileModules:
    def test_infinite_loop_bounded_by_fuel(self):
        program = compile_and_link(["int main() { while (1) ; return 0; }"])
        loaded = load_for_interpretation(program, fuel=50_000)
        with pytest.raises(FuelExhausted):
            loaded.run()

    def test_runaway_recursion_faults_cleanly(self):
        # Stack exhaustion walks off the stack segment into a guard hole.
        from repro.errors import AccessViolation

        program = compile_and_link(["""
        int boom(int n) { int pad[64]; pad[0] = n; return boom(n + 1) + pad[0]; }
        int main() { return boom(0); }
        """])
        loaded = load_for_interpretation(program, fuel=50_000_000)
        with pytest.raises((AccessViolation, FuelExhausted)):
            loaded.run()

    def test_heap_exhaustion_returns_null_not_crash(self, minic):
        values = minic("""
        int main() {
            int total = 0;
            int i;
            for (i = 0; i < 64; i++) {
                int *p = (int *) halloc(1 << 20);
                if (p == 0) { emit_int(i); return 0; }
                total++;
            }
            emit_int(-1);
            return 0;
        }
        """)
        assert values[0] > 0  # some allocations succeeded, then NULL

    def test_duplicate_entry_symbols_rejected(self):
        a = compile_to_object("int main() { return 1; }",
                              CompileOptions(module_name="a"))
        b = compile_to_object("int main() { return 2; }",
                              CompileOptions(module_name="b"))
        with pytest.raises(LinkError):
            link([a, b])

    def test_module_without_main_cannot_start(self):
        obj = compile_to_object("int helper() { return 1; }",
                                CompileOptions(module_name="lib"))
        program = link([obj])
        with pytest.raises((LinkError, VerifyError)):
            load_for_interpretation(program).run()


class TestServiceFaultInjection:
    """The deterministic fault hooks the module-hosting service exposes
    (repro.service.FaultInjector) and how the host degrades under them."""

    SRC = "int main() { emit_int(7); return 0; }"

    def test_injected_faults_fire_in_arming_order_then_disarm(self):
        from repro.errors import TranslationError
        from repro.service import FaultInjector

        faults = FaultInjector()
        faults.fail_translations(count=2)
        for _ in range(2):
            with pytest.raises(TranslationError):
                faults.on_translate("mips")
        faults.on_translate("mips")  # disarmed: no raise
        assert faults.fired == 2

    def test_arch_filter_only_hits_that_target(self):
        from repro.errors import TranslationError
        from repro.service import FaultInjector

        faults = FaultInjector()
        faults.fail_translations(count=-1, arch="sparc")
        faults.on_translate("mips")  # unaffected
        with pytest.raises(TranslationError):
            faults.on_translate("sparc")
        faults.reset()
        faults.on_translate("sparc")  # reset disarms permanent faults

    def test_corrupted_disk_cache_self_heals_under_service(self, tmp_path):
        from repro.cache import TranslationCache
        from repro.engine import Engine
        from repro.service import FaultInjector, ModuleRequest

        cache = TranslationCache(disk_dir=tmp_path)
        engine = Engine(target="mips", cache=cache)
        program = engine.compile(self.SRC)
        with engine.serve(workers=2) as host:
            assert host.run(ModuleRequest(program=program)).ok
        assert FaultInjector().corrupt_disk_entries(cache) >= 1

        # A restarted host (fresh LRU, same disk) must reject the
        # corrupted entry, re-translate, and still serve the request.
        fresh_cache = TranslationCache(disk_dir=tmp_path)
        fresh_engine = Engine(target="mips", cache=fresh_cache)
        with fresh_engine.serve(workers=2) as fresh_host:
            response = fresh_host.run(ModuleRequest(program=program))
        assert response.ok and response.output == "7"
        assert not response.fallback  # healed by re-translation, not
        assert fresh_cache.stats().disk_rejects >= 1  # degradation

    def test_injected_slowness_trips_the_deadline(self):
        from repro.engine import Engine
        from repro.service import FaultInjector, ModuleRequest

        faults = FaultInjector()
        faults.delay_execution(0.3)
        with Engine(target="mips").serve(workers=1, faults=faults) as host:
            response = host.run(ModuleRequest(program=self.SRC,
                                              deadline_seconds=0.05))
        assert response.error == "DeadlineExceeded"
