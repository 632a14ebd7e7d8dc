"""The unified Engine facade and unknown-architecture normalization."""

import gc
import weakref

import pytest

import repro
from repro import Engine
from repro.cache import TranslationCache
from repro.compiler import compile_and_link
from repro.engine import INTERPRETER, RunConfig
from repro.errors import ReproError, UnknownArchitectureError
from repro.native.profiles import MOBILE_NOSFI, MOBILE_SFI
from repro.omnivm.memory import Memory
from repro.runtime.loader import run_module
from repro.runtime.native_loader import load_for_target, run_on_target
from repro.service import ModuleRequest
from repro.translators import (
    ARCHITECTURES,
    make_translator,
    target_spec,
    translate,
)

SRC = """
int main() {
    int i;
    for (i = 1; i <= 4; i = i + 1) {
        emit_int(i * 10);
    }
    return 0;
}
"""
EXPECTED = [10, 20, 30, 40]


class TestEngineBasics:
    def test_default_engine_runs_on_interpreter(self):
        engine = Engine()
        assert engine.target is None  # resolves to INTERPRETER per call
        assert INTERPRETER == "omnivm"
        code, module = engine.run(SRC)
        assert code == 0
        assert module.host.output_values() == EXPECTED

    def test_compile_accepts_str_or_sequence(self):
        engine = Engine()
        single = engine.compile(SRC)
        many = engine.compile([SRC])
        assert single.text_image == many.text_image

    def test_run_accepts_program_or_source(self):
        engine = Engine(target="mips")
        program = engine.compile(SRC)
        code, module = engine.run(program)
        assert (code, module.host.output_values()) == (0, EXPECTED)
        code, module = engine.run(SRC)
        assert (code, module.host.output_values()) == (0, EXPECTED)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_matches_legacy_api_on_every_target(self, arch):
        program = compile_and_link([SRC])
        _code, legacy = run_on_target(program, arch, MOBILE_SFI)
        code, module = Engine(target=arch).run(program)
        assert code == 0
        assert module.host.output_values() == legacy.host.output_values()

    def test_matches_legacy_interpreter(self):
        program = compile_and_link([SRC])
        _code, host = run_module(program)
        _code, module = Engine().run(program)
        assert module.host.output_values() == host.output_values()

    def test_profile_by_name_or_options(self):
        by_name = Engine(target="mips", profile="mobile-nosfi")
        by_options = Engine(target="mips", profile=MOBILE_NOSFI)
        assert by_name.profile == by_options.profile
        assert by_name.profile.sfi is False

    def test_per_call_target_override(self):
        engine = Engine(target="mips")
        code, module = engine.run(SRC, target="x86")
        assert code == 0
        assert module.translated.spec.name == "x86"


class TestEngineCaching:
    def test_translate_is_cached(self):
        engine = Engine(target="sparc")
        program = engine.compile(SRC)
        first = engine.translate(program)
        second = engine.translate(program)
        assert first is second
        stats = engine.cache.stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_warm_run_skips_translate(self):
        engine = Engine(target="ppc")
        program = engine.compile(SRC)
        engine.run(program)
        engine.run(program)
        assert engine.metrics.counters["translate.calls"] == 1
        assert engine.metrics.counters["cache.hit"] == 1
        assert engine.metrics.stage_calls["execute"] == 2

    def test_shared_cache_instance(self):
        cache = TranslationCache()
        program = compile_and_link([SRC])
        Engine(target="mips", cache=cache).run(program)
        Engine(target="mips", cache=cache).run(program)
        assert cache.stats().hits == 1

    def test_cache_disabled(self):
        engine = Engine(target="mips", cache=False)
        program = engine.compile(SRC)
        engine.run(program)
        engine.run(program)
        assert engine.cache is None
        assert engine.metrics.counters["translate.calls"] == 2

    def test_stats_surface(self):
        engine = Engine(target="mips")
        engine.run(SRC)
        stats = engine.stats()
        assert stats["counters"]["translate.calls"] == 1
        assert "execute" in stats["stage_seconds"]
        assert stats["cache"]["misses"] == 1
        assert stats["cache_entries"] == 1
        assert "translate" in engine.stats_text()
        engine.reset_stats()
        assert not engine.metrics.counters

    def test_stats_text_reports_both_tables(self):
        engine = Engine(target="mips")
        engine.run(SRC)
        engine.run(SRC)  # hits the translation and its predecoded artifact
        (line,) = [line for line in engine.stats_text().splitlines()
                   if line.startswith("translation cache:")]
        assert "1 hits (0 from disk), 1 misses, 0 evictions" in line
        assert line.endswith("; predecode 1 hits, 1 misses")

    def test_metrics_disabled(self):
        engine = Engine(target="mips", collect_metrics=False)
        code, _module = engine.run(SRC)
        assert code == 0
        assert engine.metrics is None
        assert engine.stats()["counters"] == {}


class TestAddressSpaceLifetime:
    """A finished request's address space is freed by reference counting
    alone: no cycle runs through the machine (its hostcall hook builds
    the host adapter per call), so no ``Memory`` lingers until a cyclic
    garbage collection."""

    @pytest.fixture
    def memories(self, monkeypatch):
        """Weak references to every Memory built, with the cyclic
        collector off for the test."""
        refs = []
        init = Memory.__init__

        def tracked(memory, *args, **kwargs):
            init(memory, *args, **kwargs)
            refs.append(weakref.ref(memory))

        monkeypatch.setattr(Memory, "__init__", tracked)
        enabled = gc.isenabled()
        gc.disable()
        yield refs
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("target", [INTERPRETER, "x86"])
    def test_engine_run_frees_its_memory(self, memories, target):
        _code, module = Engine().run(SRC, target=target)
        assert module.host.output_values() == EXPECTED
        del module
        assert memories and all(ref() is None for ref in memories)

    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_hosted_request_frees_its_memory(self, memories, target):
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(program=SRC, target=target))
            assert response.ok
            del response
            assert memories and all(ref() is None for ref in memories)


class TestRunForwardsLoadKnobs:
    """Engine.run() must forward ``fuel`` / ``segment_size`` /
    ``verify`` to load() — the regression was a run() signature that
    silently could not express a bounded or unverified run."""

    LOOP_SRC = """
    int main() {
        int i;
        for (i = 0; i < 1000000; i = i + 1) { }
        return 0;
    }
    """

    def test_fuel_forwarded_to_native_load(self):
        from repro.errors import FuelExhausted

        with pytest.raises(FuelExhausted):
            Engine(target="mips").run(
                self.LOOP_SRC, config=RunConfig(fuel=10_000))

    def test_fuel_forwarded_to_interpreter_load(self):
        from repro.errors import FuelExhausted

        with pytest.raises(FuelExhausted):
            Engine().run(self.LOOP_SRC, config=RunConfig(fuel=10_000))

    def test_sufficient_fuel_still_completes(self):
        code, _module = Engine(target="mips").run(
            SRC, config=RunConfig(fuel=10_000_000))
        assert code == 0

    def test_segment_size_forwarded(self):
        code, module = Engine(target="mips").run(
            SRC, config=RunConfig(segment_size=1 << 16))
        assert code == 0
        heap = next(segment for segment in module.machine.memory.segments
                    if segment.name == "heap")
        assert heap.size == 1 << 16


class TestUnknownArchitecture:
    @pytest.fixture
    def program(self):
        return compile_and_link([SRC])

    def test_error_type_and_message(self, program):
        with pytest.raises(UnknownArchitectureError) as info:
            translate(program, "arm")
        assert isinstance(info.value, ReproError)
        assert isinstance(info.value, KeyError)  # backward compat
        message = str(info.value)
        assert "arm" in message
        for arch in ARCHITECTURES:
            assert arch in message

    def test_raised_from_every_entry_point(self, program):
        for trigger in (
            lambda: make_translator("z80"),
            lambda: target_spec("z80"),
            lambda: translate(program, "z80"),
            lambda: load_for_target(program, "z80", MOBILE_SFI),
            lambda: Engine(target="z80").run(program),
        ):
            with pytest.raises(UnknownArchitectureError):
                trigger()

    def test_none_arch_is_normalized_too(self):
        with pytest.raises(UnknownArchitectureError):
            target_spec(None)

    def test_exported_at_package_top_level(self):
        assert repro.UnknownArchitectureError is UnknownArchitectureError
        assert "UnknownArchitectureError" in repro.__all__

    def test_engine_exported_at_top_level(self):
        assert repro.Engine is Engine
        assert repro.TranslationCache is TranslationCache
