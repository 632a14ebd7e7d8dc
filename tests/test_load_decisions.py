"""Each load-time decision has one owner, and every loader calls it.

* Cache admission (:func:`repro.cache.cached_translation`): a load that
  a verifier refuses adds nothing to the shared translation cache, so
  the next load of the same content is verified and refused again —
  for a single program and for a dynamic-link chunk.
* Cache keys: a load derives one key, so it digests its program once;
  an image's key covers its modules' sandbox policies; and an
  arch-filtered invalidation keeps the interpreter's artifacts.
* Address-space shape: images honour ``segment_size`` like single
  programs, and a module too big for its segments, or a segment size
  outside the layout, is a typed :class:`~repro.errors.QuotaExceeded`,
  in the library and in the service, raised before the module is
  verified, translated or admitted to the cache.
* Verification: a load verifies an image once, whole.
* Profile timing: a PPC ``native-cc`` translation carries its compare
  latency from the moment it is made, in memory and from the disk tier.
"""

import pytest

import repro.cache as cache_module
from repro.cache import TranslationCache
from repro.compiler import CompileOptions, compile_to_object
from repro.engine import INTERPRETER, Engine, RunConfig
from repro.errors import QuotaExceeded, VerifyError
from repro.native.profiles import MOBILE_SFI, NATIVE_CC
from repro.omnivm.memory import DEFAULT_SEGMENT_SIZE
from repro.runtime import linker
from repro.service import ModuleRequest, RequestQuota
from repro.sfi.policy import DEFAULT_POLICY, PADDED_POLICY
from repro.workloads import suite

EMIT = "int main() { emit_int(7); return 0; }"

LIBRARY = "int twice(int x) { return x * 2; }"

APP = """
extern int twice(int x);
int main() { emit_int(twice(21)); return 0; }
"""

#: 100,000 ints: a 400,000-byte data image.
BIG_DATA = """
int big[100000];
int main() { big[5] = 1; emit_int(big[5]); return 0; }
"""

SMALL = 1 << 16
MIB = 1 << 20


def bad_hostcalls(instrs):
    """Point every hostcall at an index no host function has."""
    for instr in instrs:
        if instr.spec.kind == "host":
            instr.imm = 9999


def linking_engine(app_source=APP) -> Engine:
    engine = Engine()
    engine.register_module("lib", LIBRARY)
    engine.register_module("app", app_source)
    return engine


class TestRefusedLoadsStayOutOfTheCache:
    @pytest.mark.parametrize("arch", ["mips", "x86"])
    def test_program_is_refused_twice(self, arch):
        engine = Engine()
        program = engine.compile(EMIT)
        bad_hostcalls(program.instrs)
        for _ in ("first", "second"):
            with pytest.raises(VerifyError,
                               match="bad hostcall index 9999"):
                engine.load(program, arch)
        assert engine.cache.stats().stores == 0
        assert len(engine.cache) == 0

    def test_chunk_is_refused_twice(self):
        engine = Engine()
        engine.register_module("lib", LIBRARY)
        app = compile_to_object(APP, CompileOptions(module_name="app"))
        bad_hostcalls(app.text)
        engine.register_module("app", app)
        image = engine.link_modules(["app"])
        # A translation of the image verifies it ...
        with pytest.raises(VerifyError, match="bad hostcall index 9999"):
            linker.translate_image(image, "mips", MOBILE_SFI,
                                   cache=engine.cache)
        # ... and so does the whole load, which finds no chunk stored.
        with pytest.raises(VerifyError, match="bad hostcall index 9999"):
            engine.load(image, "mips")
        assert engine.cache.stats().stores == 0
        assert len(engine.cache) == 0


class TestOneKeyPerLoad:
    @pytest.mark.parametrize("target", ["mips", INTERPRETER])
    def test_cold_and_warm_runs_digest_the_program_once(self, target,
                                                        monkeypatch):
        engine = Engine()
        program = engine.compile(EMIT)
        calls = []
        digest = cache_module.program_digest

        def counting(program):
            calls.append(program)
            return digest(program)

        monkeypatch.setattr(cache_module, "program_digest", counting)
        for _ in ("cold", "warm"):
            calls.clear()
            code, module = engine.run(program, target)
            assert code == 0 and module.host.output_values() == [7]
            assert len(calls) == 1

    def test_a_module_policy_keys_its_images(self):
        # Two registries share one cache; the images differ only in the
        # library's sandbox policy, which changes its native code.
        shared = TranslationCache()
        engines = {policy: Engine(cache=shared)
                   for policy in (DEFAULT_POLICY, PADDED_POLICY)}
        for policy, engine in engines.items():
            engine.register_module("lib", LIBRARY, policy=policy)
            engine.register_module("app", APP)
        for engine in engines.values():
            code, module = engine.run(engine.link_modules(["app"]), "mips",
                                      config=RunConfig(fuel=100_000))
            assert code == 0 and module.host.output_values() == [42]

    def test_arch_filter_keeps_the_interpreters_artifact(self):
        engine = Engine()
        program = engine.compile(EMIT)
        engine.run(program, INTERPRETER)
        misses = engine.cache.stats().predecode_misses
        engine.cache.invalidate(arch="mips")
        engine.run(program, INTERPRETER)
        assert engine.cache.stats().predecode_misses == misses


def _segment_sizes(memory) -> dict[str, int]:
    return {segment.name: segment.size for segment in memory.segments}


class TestImagesHonourTheSegmentSize:
    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_image_maps_code_and_heap_at_the_segment_size(self, target):
        engine = linking_engine()
        module = engine.load_program(
            ["app"], target=target, config=RunConfig(segment_size=MIB))
        sizes = _segment_sizes(module.memory)
        assert sizes["code"] == sizes["heap"] == MIB
        assert module.run() == 0
        assert module.host.output_values() == [42]

    def test_service_link_request_maps_at_the_quota(self, monkeypatch):
        built = []
        image_memory = linker.image_memory

        def recording(image, segment_size=None):
            memory = image_memory(image, segment_size)
            built.append(memory)
            return memory

        monkeypatch.setattr(linker, "image_memory", recording)
        engine = linking_engine()
        with engine.serve(workers=1) as host:
            response = host.run(ModuleRequest(
                modules=["app"], target="mips",
                quota=RequestQuota(segment_size=MIB)))
        assert response.ok and response.output == "42"
        (memory,) = built
        sizes = _segment_sizes(memory)
        assert sizes["code"] == sizes["heap"] == MIB


def assert_no_load_work(engine: Engine) -> None:
    """Nothing was verified, translated or predecoded, and the cache
    admitted nothing."""
    names = [*engine.metrics.counters, *engine.metrics.stage_calls]
    assert [name for name in names if name.startswith(
        ("verify.", "translate", "link.translate", "link.chunk",
         "execute.predecode"))] == []
    stats = engine.cache.stats()
    assert (stats.misses, stats.stores, stats.predecode_misses) == (0, 0, 0)


class TestTooSmallASegmentIsAQuota:
    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_single_program(self, target):
        engine = Engine()
        program = engine.compile(BIG_DATA)
        with pytest.raises(QuotaExceeded) as err:
            engine.load(program, target,
                        config=RunConfig(segment_size=SMALL))
        assert (err.value.quota, err.value.limit) == ("segment_size", SMALL)
        assert_no_load_work(engine)
        code, module = engine.run(program, target)  # fits the default
        assert code == 0 and module.host.output_values() == [1]

    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_image(self, target):
        engine = linking_engine(app_source=BIG_DATA)
        with pytest.raises(QuotaExceeded) as err:
            engine.load_program(["app"], target=target,
                                config=RunConfig(segment_size=SMALL))
        assert (err.value.quota, err.value.limit) == ("segment_size", SMALL)
        assert_no_load_work(engine)

    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_service_answers_with_a_typed_error(self, target):
        with Engine().serve(workers=1) as host:
            response = host.run(ModuleRequest(
                program=BIG_DATA, target=target,
                quota=RequestQuota(segment_size=SMALL)))
        assert not response.ok and not response.fallback
        assert response.error == "QuotaExceeded"
        assert host.stats.counters["quota_exceeded"] == 1
        assert host.stats.completed == 1  # its latency is recorded


class TestSegmentSizeOutOfRange:
    """A segment size the layout cannot hold is a quota, refused before
    anything is mapped: above the default the data segment would
    overlap the heap, and a negative size maps nothing."""

    SIZES = [2 * DEFAULT_SEGMENT_SIZE, -1]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_engine_run(self, target, size):
        engine = linking_engine()
        for program in (engine.compile(EMIT), engine.link_modules(["app"])):
            with pytest.raises(QuotaExceeded) as err:
                engine.run(program, target,
                           config=RunConfig(segment_size=size))
            assert (err.value.quota, err.value.limit) == (
                "segment_size", DEFAULT_SEGMENT_SIZE)
        assert_no_load_work(engine)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("target", [INTERPRETER, "mips"])
    def test_service(self, target, size):
        engine = linking_engine()
        quota = RequestQuota(segment_size=size)
        with engine.serve(workers=1) as host:
            responses = [
                host.run(ModuleRequest(program=EMIT, target=target,
                                       quota=quota)),
                host.run(ModuleRequest(modules=["app"], target=target,
                                       quota=quota)),
            ]
        assert [(r.ok, r.fallback, r.error) for r in responses] == \
            [(False, False, "QuotaExceeded")] * 2
        assert host.stats.counters["quota_exceeded"] == 2
        assert engine.stats()["counters"]["service.quota_exceeded"] == 2


class TestAnImageIsVerifiedOnce:
    """A load verifies an image once, whole (it is spliced from its
    units); each module's native chunk is still SFI-verified under its
    own policy when it is translated."""

    def assert_verified_once(self, engine, image):
        assert engine.metrics.stage_calls["verify.module"] == 1
        assert engine.metrics.counters["verify.module.instrs"] == \
            len(image.instrs)

    def test_cold_and_warm_loads(self):
        engine = linking_engine()
        image = engine.link_modules(["app"])
        engine.reset_stats()
        engine.load(image, "mips")
        self.assert_verified_once(engine, image)
        assert engine.metrics.stage_calls["verify.sfi"] == 2  # lib, app
        engine.reset_stats()
        engine.load(image, "mips")
        self.assert_verified_once(engine, image)
        assert "verify.sfi" not in engine.metrics.stage_calls  # chunk hits

    def test_engine_translate(self):
        engine = linking_engine()
        image = engine.link_modules(["app"])
        engine.reset_stats()
        engine.translate(image, "mips")
        self.assert_verified_once(engine, image)


class TestProfileTimingIsFixedAtTranslation:
    def test_native_cc_compare_latency_before_any_load(self, tmp_path):
        program = suite.build("eqntott")
        engine = Engine(cache=TranslationCache(disk_dir=tmp_path))
        translated = engine.translate(program, "ppc", NATIVE_CC)
        assert translated.spec.timing.cmp_latency == 1
        _code, warm = engine.run(program, "ppc", NATIVE_CC)

        reloaded = Engine(cache=TranslationCache(disk_dir=tmp_path))
        from_disk = reloaded.translate(program, "ppc", NATIVE_CC)
        assert reloaded.cache.stats().disk_hits == 1
        assert from_disk.spec.timing.cmp_latency == 1
        _code, cold = reloaded.run(program, "ppc", NATIVE_CC)
        assert cold.machine.cycles == warm.machine.cycles
