"""Multi-module dynamic linking (`repro.runtime.linker`).

Covers the link-loader end to end: the three-module demo bit-exact
against its statically linked equivalent on the interpreter and all
four targets, the dynamic-link error family (unresolved imports,
duplicate exports, cycles, revocation), the shared-library translation
cache (one translation serving many programs, selective invalidation
on hot reload), and the inter-module SFI rule (cross-module control
transfers must land on exported symbols).  All tests are fast and
deterministic (tier-1)."""

import dataclasses
import hashlib
import importlib.util
import threading
from pathlib import Path

import pytest

from repro.cache import cache_key, program_digest
from repro.engine import Engine, RunConfig
from repro.errors import (
    CrossModuleViolation,
    DuplicateExportError,
    DynamicLinkError,
    ModuleCycleError,
    ModuleRevokedError,
    UnresolvedImportError,
    VerifyError,
)
from repro.omnivm import encoding
from repro.omnivm.asmparser import assemble
from repro.omnivm.isa import INSTR_SIZE
from repro.omnivm.memory import CODE_BASE
from repro.omnivm.verifier import verify_program
from repro.runtime import linker as linker_module
from repro.runtime.linker import (
    TEXT_ALIGN_INSTRS,
    ModuleRegistry,
    dynamic_link,
    translate_image,
)
from repro.translators import ARCHITECTURES

BENCH_PATH = (Path(__file__).resolve().parents[1] / "benchmarks"
              / "bench_module_linking.py")

LIB_MATH = """
int scale(int x) { return x * 3; }
int offset(int x) { return x + 1; }
"""

LIB_COMPOSE = """
extern int scale(int x);
extern int offset(int x);
int compose(int x) { return scale(offset(x)); }
"""

APP = """
extern int scale(int x);
extern int compose(int x);
int main() {
    emit_int(scale(10));
    emit_int(compose(6));
    return 0;
}
"""


def make_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.register_module("libmath", LIB_MATH)
    engine.register_module("libcompose", LIB_COMPOSE)
    engine.register_module("app", APP)
    return engine


class TestLinkAndRun:
    def test_three_modules_bit_exact_everywhere(self):
        """The tentpole demo: three dynamically linked modules with
        transitive cross-module calls produce the same output as the
        statically linked program, on every execution engine."""
        engine = make_engine()
        static = engine.compile([LIB_MATH, LIB_COMPOSE, APP])
        _code, ref = engine.run(static)
        expected = ref.host.output_values()
        assert expected == [30, 21]
        for target in ("omnivm",) + tuple(ARCHITECTURES):
            module = engine.load_program(["app"], target=target)
            code = module.run()
            assert code == 0, target
            assert module.host.output_values() == expected, target

    def test_linked_image_verifies(self):
        engine = make_engine()
        image = engine.link_modules(["app"])
        verify_program(image)  # must not raise
        assert [layout.name for layout in image.modules] == [
            "libmath", "libcompose", "app"
        ]
        assert image.modules[0].base_index == 0

    def test_closure_is_minimal(self):
        """Linking a root pulls in only its import closure."""
        engine = make_engine()
        engine.register_module("solo", """
            extern int scale(int x);
            int main() { emit_int(scale(7)); return 0; }
        """)
        image = engine.link_modules(["solo"])
        assert {layout.name for layout in image.modules} == \
            {"libmath", "solo"}

    def test_canonical_layout_shares_library_base(self):
        """A shared library lands at the same base in every image that
        links it, so its translation unit is byte-identical (the
        property the chunk cache keys on)."""
        engine = make_engine()
        engine.register_module("other", """
            extern int offset(int x);
            int main() { emit_int(offset(41)); return 0; }
        """)
        image_a = engine.link_modules(["app"])
        image_b = engine.link_modules(["other"])
        assert image_a.layout_named("libmath").base_index == \
            image_b.layout_named("libmath").base_index
        assert image_a.layout_named("libmath").base_index % \
            TEXT_ALIGN_INSTRS == 0

    def test_run_config_reaches_linked_image(self):
        engine = make_engine()
        module = engine.load_program(
            ["app"], target="mips",
            config=RunConfig(fuel=5_000, engine="legacy"))
        assert module.run() == 0
        assert module.host.output_values() == [30, 21]


class TestLinkErrors:
    def test_unresolved_import(self):
        registry = ModuleRegistry()
        engine = Engine(registry=registry)
        engine.register_module("orphan", """
            extern int nowhere(int x);
            int main() { return nowhere(1); }
        """)
        with pytest.raises(UnresolvedImportError, match="nowhere"):
            dynamic_link(registry, ["orphan"])

    def test_unknown_root(self):
        with pytest.raises(DynamicLinkError, match="ghost"):
            dynamic_link(ModuleRegistry(), ["ghost"])

    def test_duplicate_export(self):
        engine = Engine()
        engine.register_module("a", "int scale(int x) { return x; }")
        engine.register_module("b", "int scale(int x) { return x + x; }")
        engine.register_module("uses", """
            extern int scale(int x);
            int main() { return scale(1); }
        """)
        with pytest.raises(DuplicateExportError, match="scale"):
            engine.link_modules(["uses"])

    def test_duplicate_export_within_closure_without_import(self):
        """Two closure members exporting the same never-imported symbol
        still collide: the image namespace is flat."""
        engine = Engine()
        engine.register_module("a", """
            int shared(int x) { return x; }
            int a_entry(int x) { return x; }
        """)
        engine.register_module("b", """
            extern int a_entry(int x);
            int shared(int x) { return x + 1; }
            int main() { return a_entry(shared(1)); }
        """)
        with pytest.raises(DuplicateExportError, match="shared"):
            engine.link_modules(["b"])

    def test_import_cycle(self):
        engine = Engine()
        engine.register_module("ping", """
            extern int pong(int x);
            int ping(int x) { return pong(x); }
            int main() { return ping(1); }
        """)
        engine.register_module("pong", """
            extern int ping(int x);
            int pong(int x) { return ping(x); }
        """)
        with pytest.raises(ModuleCycleError, match="ping"):
            engine.link_modules(["ping"])

    def test_self_import_is_not_a_cycle(self):
        """A module calling its own export resolves locally."""
        engine = Engine()
        engine.register_module("selfish", """
            int twice(int x) { return x + x; }
            int main() { emit_int(twice(21)); return 0; }
        """)
        module = engine.load_program(["selfish"])
        assert module.run() == 0
        assert module.host.output_values() == [42]


class TestRevocation:
    def test_revoked_module_blocks_new_links(self):
        engine = make_engine()
        engine.revoke_module("libmath")
        with pytest.raises(ModuleRevokedError, match="libmath"):
            engine.link_modules(["app"])

    def test_revoke_while_executing(self):
        """Revocation is a link-time barrier, not an execution abort:
        an image loaded before the revocation runs to completion while
        concurrent new links are refused."""
        engine = make_engine(target="mips")
        module = engine.load_program(["app"])
        failures: list[Exception] = []

        def link_after_revoke():
            try:
                engine.link_modules(["app"])
            except ModuleRevokedError as err:
                failures.append(err)

        engine.revoke_module("libmath")
        thread = threading.Thread(target=link_after_revoke)
        thread.start()
        code = module.run()  # in-flight image unaffected
        thread.join()
        assert code == 0
        assert module.host.output_values() == [30, 21]
        assert len(failures) == 1

    def test_reregistration_clears_revocation(self):
        engine = make_engine()
        engine.revoke_module("libmath")
        engine.register_module("libmath", LIB_MATH)
        module = engine.load_program(["app"])
        assert module.run() == 0

    def test_hot_reload_changes_behavior(self):
        engine = make_engine(target="x86")
        module = engine.load_program(["app"])
        module.run()
        assert module.host.output_values() == [30, 21]
        engine.register_module(
            "libmath", """
            int scale(int x) { return x * 10; }
            int offset(int x) { return x + 1; }
        """)
        module = engine.load_program(["app"])
        module.run()
        assert module.host.output_values() == [100, 70]


class TestSharedLibraryCache:
    def _counters(self, engine: Engine) -> dict:
        return dict(engine.metrics.counters)

    def test_shared_library_translates_once(self):
        """The warm-link property: after the first program, every other
        program linking the same library gets its translation from the
        cache (chunk hits, no chunk misses for the library)."""
        engine = make_engine(target="mips")
        engine.load_program(["app"]).run()
        cold = self._counters(engine)
        assert cold.get("link.chunk_miss", 0) == 3
        engine.register_module("other", """
            extern int scale(int x);
            int main() { emit_int(scale(5)); return 0; }
        """)
        module = engine.load_program(["other"])
        assert module.run() == 0
        warm = self._counters(engine)
        # Second image: libmath served warm, only "other" translated.
        assert warm.get("link.chunk_hit", 0) - \
            cold.get("link.chunk_hit", 0) == 1
        assert warm.get("link.chunk_miss", 0) - \
            cold.get("link.chunk_miss", 0) == 1

    def test_single_module_invalidation_keeps_library_warm(self):
        """Hot-reloading one module drops only its chunks: the next
        link re-translates the reloaded module and still serves the
        untouched library from the cache."""
        engine = make_engine(target="sparc")
        engine.load_program(["app"]).run()
        before = self._counters(engine)
        engine.register_module("app", APP)  # same source, new epoch
        module = engine.load_program(["app"])
        assert module.run() == 0
        after = self._counters(engine)
        assert after.get("link.chunk_hit", 0) - \
            before.get("link.chunk_hit", 0) == 2   # libmath, libcompose
        assert after.get("link.chunk_miss", 0) - \
            before.get("link.chunk_miss", 0) == 1  # reloaded app

    def test_chunk_digests_tracked_per_module(self):
        engine = make_engine(target="ppc")
        image = engine.link_modules(["app"])
        definition = engine.registry.get("libmath")
        layout = image.layout_named("libmath")
        assert definition.chunk_digests
        # The layout's subprogram digest is what the cache keys on.
        assert program_digest(layout.subprogram) in \
            definition.chunk_digests


def fingerprint(image) -> tuple:
    """Everything a link produces: text, data, tables, the image digest
    and per module its placement, unit digest and unit text."""
    return (hashlib.sha256(image.text_image).hexdigest(),
            hashlib.sha256(bytes(image.data_image)).hexdigest(),
            image.digest_hint, tuple(image.symbols.items()),
            tuple(image.function_ranges.items()),
            tuple((layout.name, layout.base_index,
                   tuple(layout.exports.items()),
                   program_digest(layout.subprogram),
                   hashlib.sha256(layout.subprogram.text_image).hexdigest())
                  for layout in image.modules))


class TestUnitMemo:
    """Each module is linked once per placement and resolved import
    addresses; a warm link splices the memoized unit."""

    def _units(self, engine: Engine) -> tuple[int, int]:
        counters = engine.metrics.counters
        return (counters.get("link.unit_hit", 0),
                counters.get("link.unit_miss", 0))

    def _counting(self, monkeypatch, module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_relinking_links_each_module_once(self, monkeypatch):
        expected = fingerprint(make_engine().link_modules(["app"]))
        engine = make_engine()
        links = self._counting(monkeypatch, linker_module, "link_at")
        encoded = self._counting(monkeypatch, encoding, "encode_instr")
        prints = [fingerprint(engine.link_modules(["app"]))
                  for _ in range(5)]
        assert prints == [expected] * 5
        assert sorted(args[1] for args in links) == [
            "app:app", "app:libcompose", "app:libmath"]
        assert self._units(engine) == (12, 3)
        # Only the first link encodes, and only its units.
        image = engine.link_modules(["app"])
        assert len(encoded) == sum(layout.text_len
                                   for layout in image.modules)

    def test_a_unit_hit_keeps_its_image_name(self):
        engine = make_engine()
        engine.register_module("other", """
            extern int scale(int x);
            int main() { emit_int(scale(5)); return 0; }
        """)
        first = engine.link_modules(["app"])
        second = engine.link_modules(["other"])
        assert self._units(engine) == (1, 4)   # libmath shared
        ours = first.layout_named("libmath").subprogram
        theirs = second.layout_named("libmath").subprogram
        assert (ours.name, theirs.name) == ("app:libmath", "other:libmath")
        assert theirs.instrs is ours.instrs
        assert theirs.text_image is ours.text_image
        assert program_digest(theirs) == program_digest(ours)
        assert engine.load(second).run() == 0

    def test_importers_relink_only_when_provider_exports_move(self):
        engine = make_engine()
        image = engine.link_modules(["app"])
        exports = image.layout_named("libmath").exports
        # A new body with the same export addresses: only libmath
        # relinks, and the importers' units still reach the new code.
        engine.register_module("libmath", LIB_MATH.replace("x + 1", "x + 2"))
        before = self._units(engine)
        image = engine.link_modules(["app"])
        assert image.layout_named("libmath").exports == exports
        after = self._units(engine)
        assert (after[0] - before[0], after[1] - before[1]) == (2, 1)
        module = engine.load(image)
        assert module.run() == 0 and module.host.output_values() == [30, 24]
        # A function in front of scale moves every export: all relink.
        engine.register_module(
            "libmath", "int pad(int x) { return x - 1; }\n" + LIB_MATH)
        before = after
        image = engine.link_modules(["app"])
        assert image.layout_named("libmath").exports["scale"] != \
            exports["scale"]
        after = self._units(engine)
        assert (after[0] - before[0], after[1] - before[1]) == (0, 3)
        module = engine.load(image)
        assert module.run() == 0 and module.host.output_values() == [30, 21]

    def test_a_module_importing_its_own_export(self):
        # Its trampoline targets its own export, which the memo key
        # leaves out: the placement already fixes it.
        obj = assemble("""
            .text
            .import f
            .globl main
        main:
            addi r15, r15, -8
            sw ra, r15, 0
            jal f
            lw ra, r15, 0
            addi r15, r15, 8
            jr ra
            .globl f
        f:
            li r1, 5
            jr ra
        """, "selfish")
        engine = Engine()
        engine.register_module("selfish", obj)
        images = [engine.link_modules(["selfish"]) for _ in range(2)]
        assert self._units(engine) == (1, 1)
        assert fingerprint(images[0]) == fingerprint(images[1])
        assert engine.load(images[1]).run() == 5

    def test_revocation_and_reregistration_drop_the_memo(self):
        engine = make_engine()
        engine.link_modules(["app"])
        revoked = engine.registry.lookup("libmath")
        assert revoked.units
        engine.revoke_module("libmath")
        assert not revoked.units
        engine.register_module("libmath", LIB_MATH)
        assert not engine.registry.lookup("libmath").units
        before = self._units(engine)
        engine.link_modules(["app"])
        after = self._units(engine)
        assert (after[0] - before[0], after[1] - before[1]) == (2, 1)
        # Re-registration alone drops the old definition's memo too.
        engine.register_module("app", APP)
        before = after
        engine.link_modules(["app"])
        after = self._units(engine)
        assert (after[0] - before[0], after[1] - before[1]) == (2, 1)

    @pytest.mark.parametrize("target", ["mips", None])
    def test_a_program_is_encoded_and_digested_once(self, target,
                                                    monkeypatch):
        engine = Engine(target=target)
        program = engine.compile(
            "int main() { emit_int(6 * 7); return 0; }")
        encoded = self._counting(monkeypatch, encoding, "encode_instr")
        for _ in range(4):
            code, module = engine.run(program)
            assert code == 0 and module.host.output_values() == [42]
        assert len(encoded) == len(program.instrs)
        # A copy made with dataclasses.replace keeps neither the text
        # nor the digest, so it is encoded and digested again.
        copy = dataclasses.replace(program)
        assert copy.digest_hint is None
        code, module = engine.run(copy)
        assert code == 0 and module.host.output_values() == [42]
        assert len(encoded) == 2 * len(program.instrs)
        assert copy.digest_hint == program.digest_hint


class TestServiceIntegration:
    def test_modules_request_links_and_runs(self):
        engine = make_engine(target="mips")
        from repro.service import ModuleRequest

        with engine.serve(workers=2) as host:
            response = host.run(ModuleRequest(modules=["app"]))
        assert response.ok
        assert response.output == "3021"
        assert response.arch == "mips"

    def test_link_failures_are_typed_and_counted(self):
        engine = make_engine()
        from repro.service import ModuleRequest

        with engine.serve(workers=1) as host:
            host.revoke_module("libcompose")
            revoked = host.run(ModuleRequest(modules=["app"]))
            unknown = host.run(ModuleRequest(modules=["ghost"]))
            host.register_module("cyc_a", """
                extern int cyc_b(int x);
                int cyc_a(int x) { return cyc_b(x); }
                int main() { return cyc_a(1); }
            """)
            host.register_module("cyc_b", """
                extern int cyc_a(int x);
                int cyc_b(int x) { return cyc_a(x); }
            """)
            cyclic = host.run(ModuleRequest(modules=["cyc_a"]))
            counters = host.stats.to_dict()["counters"]
        assert not revoked.ok
        assert revoked.error == "ModuleRevokedError"
        assert not unknown.ok
        assert unknown.error == "DynamicLinkError"
        assert not cyclic.ok
        assert cyclic.error == "ModuleCycleError"
        assert counters["module_revoked"] == 1
        assert counters["link_cycle"] == 1
        assert counters["module_register"] == 2
        assert counters["module_revoke"] == 1
        assert counters["error"] == 3

    def test_request_takes_program_or_modules_not_both(self):
        engine = make_engine()
        from repro.service import ModuleRequest

        with engine.serve(workers=1) as host:
            both = host.run(ModuleRequest(
                program="int main() { return 0; }", modules=["app"]))
            neither = host.run(ModuleRequest())
        assert not both.ok and both.error == "DynamicLinkError"
        assert not neither.ok and neither.error == "DynamicLinkError"

    def test_hot_reload_through_service(self):
        engine = make_engine(target="x86")
        from repro.service import ModuleRequest

        with engine.serve(workers=1) as host:
            first = host.run(ModuleRequest(modules=["app"]))
            host.register_module("libmath", """
                int scale(int x) { return x * 100; }
                int offset(int x) { return x + 1; }
            """)
            second = host.run(ModuleRequest(modules=["app"]))
        assert first.ok and first.output == "3021"
        assert second.ok and second.output == "1000700"


class TestCrossModuleSFI:
    def _image(self):
        engine = make_engine()
        return engine, engine.link_modules(["app"])

    def test_cross_module_call_must_hit_export(self):
        """Redirecting a cross-module call from an exported symbol to a
        private address inside the provider is rejected by the image
        verifier (the per-module SFI rule)."""
        engine, image = self._image()
        lib = image.layout_named("libmath")
        app = image.layout_named("app")
        exports = set(lib.exports.values())
        # A private (non-exported) instruction address inside libmath.
        private = next(
            addr for addr in range(lib.code_lo, lib.code_hi, INSTR_SIZE)
            if addr not in exports
        )
        # Cross-module control flow is funnelled through the module's
        # trampolines, so the trampoline jump is where a malicious
        # image would aim at a private address.
        start = app.base_index
        patched = False
        for offset in range(app.text_len):
            instr = image.instrs[start + offset]
            if instr.spec.kind in ("jump", "call") and \
                    not app.contains_code(instr.imm & 0xFFFFFFFF):
                instr.imm = private
                patched = True
                break
        assert patched, "app should contain a cross-module transfer"
        with pytest.raises(CrossModuleViolation):
            verify_program(image)

    def test_materialized_code_address_checked(self):
        """A li materializing a foreign *private* code address is as
        illegal as jumping to it (it feeds indirect calls)."""
        engine, image = self._image()
        lib = image.layout_named("libmath")
        app = image.layout_named("app")
        private = next(
            addr for addr in range(lib.code_lo, lib.code_hi, INSTR_SIZE)
            if addr not in set(lib.exports.values())
        )
        start = app.base_index
        for offset in range(app.text_len):
            instr = image.instrs[start + offset]
            if instr.spec.kind == "li":
                instr.imm = private
                break
        with pytest.raises(CrossModuleViolation):
            image.verify_cross_module()

    def test_violation_is_a_verify_error(self):
        assert issubclass(CrossModuleViolation, VerifyError)

    def test_trampolines_are_the_only_cross_module_text(self):
        """Every non-trampoline control transfer in a verified image is
        either intra-module or lands on an export."""
        _engine, image = self._image()
        exports = image.code_export_addrs
        for layout in image.modules:
            start = layout.base_index
            own = layout.text_len - layout.tramp_len
            for offset in range(own):
                instr = image.instrs[start + offset]
                if instr.spec.kind in ("branch", "branchi", "jump",
                                       "call"):
                    target = instr.imm & 0xFFFFFFFF
                    assert layout.contains_code(target) or \
                        target in exports

    def test_per_module_translation_respects_layout_policy(self):
        """translate_image verifies each chunk under its own module's
        sandbox policy and splices to the statically-linked result."""
        engine, image = self._image()
        translated = translate_image(image, "mips")
        entry_native = translated.entry_native
        assert translated.instrs
        assert entry_native is not None
        omni_entry = image.entry_address
        assert translated.omni_to_native[omni_entry] == entry_native
        assert CODE_BASE <= omni_entry


class TestBenchmarkSmoke:
    """Tier-1 guard on the BENCH_module_linking.json contract."""

    @pytest.fixture(scope="class")
    def bench(self):
        spec = importlib.util.spec_from_file_location(
            "bench_module_linking", BENCH_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture(scope="class")
    def payload(self, bench):
        return bench.collect_benchmark(programs=10)

    def test_payload_validates(self, bench, payload):
        bench.validate_artifact(payload)
        assert payload["schema_version"] == bench.SCHEMA_VERSION

    def test_library_translates_once(self, payload):
        total_misses = sum(e["chunk_misses"] for e in payload["results"])
        # Cold pays library + its own program; every warm program pays
        # only itself.
        assert total_misses == payload["programs"] + 1

    def test_warm_link_beats_cold_translate(self, bench, payload):
        assert payload["speedup"] >= bench.MIN_SPEEDUP
        assert payload["lib_instrs"] >= 1500
        assert payload["programs"] >= 10

    def test_invalidation_is_selective(self, payload):
        invalidation = payload["invalidation"]
        assert invalidation["chunk_misses"] == 1
        assert invalidation["chunk_hits"] >= 1


class TestExecutionArtifactLifetime:
    """Revoking (or hot-reloading) any module of a linked image must
    also drop the image-level execution artifact — the interpreter's
    predecode, which carries the JIT's compiled superblocks — from the
    cache's side table, not just the module's translation chunks."""

    def _image_side_keys(self, engine, digest):
        return [k for k in engine.cache._predecoded
                if k[0] == digest and k[1] == "omnivm"]

    def _run_interpreted_hot(self, engine, roots):
        from repro.engine import INTERPRETER

        module = engine.load_program(roots, target=INTERPRETER)
        module.vm._jit_heat = 1  # compile superblocks on first dispatch
        module.run()
        return module

    def test_revoke_drops_predecode_and_jit_entries(self):
        engine = make_engine()
        image = engine.link_modules(["app"])
        digest = program_digest(image)
        module = self._run_interpreted_hot(engine, ["app"])
        assert module.host.output_values() == [30, 21]
        keys = self._image_side_keys(engine, digest)
        assert keys == [cache_key(image, "omnivm", None)]
        # The compiled factories live in the artifact's JIT state: one
        # side-table entry per translation, dropped whole on revoke.
        artifact = engine.cache._predecoded[keys[0]]
        assert artifact is module.vm._threaded
        assert artifact.jit.makers
        engine.revoke_module("libmath")
        assert self._image_side_keys(engine, digest) == []
        assert artifact not in engine.cache._predecoded.values()

    def test_reregistration_drops_image_artifacts(self):
        engine = make_engine()
        image = engine.link_modules(["app"])
        digest = program_digest(image)
        self._run_interpreted_hot(engine, ["app"])
        assert self._image_side_keys(engine, digest)
        engine.register_module("libmath", LIB_MATH)  # hot reload
        assert self._image_side_keys(engine, digest) == []

    def test_revoke_then_relink_runs_new_code(self):
        """End to end: revoke, re-register with different behavior,
        relink — the fresh image must execute the new code, never a
        stale cached artifact of the old image."""
        engine = make_engine()
        module = self._run_interpreted_hot(engine, ["app"])
        assert module.host.output_values() == [30, 21]
        engine.revoke_module("libmath")
        engine.register_module(
            "libmath", """
            int scale(int x) { return x * 7; }
            int offset(int x) { return x + 2; }
        """)
        module = self._run_interpreted_hot(engine, ["app"])
        assert module.host.output_values() == [70, 56]
