"""The native superblock JIT tier: bit-exactness, SFI, cache, static traces.

:mod:`repro.targets.jit` layers a trace-based superblock JIT over the
threaded native engine.  Its contract is the same as the omni JIT's —
observably identical to the tiers below on every architectural surface
— plus the two native-only obligations the issue calls out: per-arch
cycle accounting folded into the compiled code, and SFI dynamic guard
chains inlined without weakening.  These tests pin:

* a fixed-seed difftest corpus executed bit-exactly by the legacy,
  threaded, and JIT engines on all four targets, comparing registers,
  memory digests, trap outcomes, ``instret``, ``cycles``, and the
  fault ``pc`` (JIT heat forced to 1 so every entry compiles);
* the same parity under the ``cc`` native profile (different cycle
  model, including the ppc cmp-latency override);
* SFI containment: hostile wild-store/wild-jump modules behave
  identically under threaded and JIT, and the host/code segments stay
  intact either way;
* mutated guard chains: unsafe mutants from the SFI mutation fuzzer
  (dropped/retargeted mask guards), run with verification skipped,
  fault identically under both engines — the JIT neither reorders nor
  elides any part of a guard chain;
* superblock source determinism across independent predecodes;
* the JIT state on the cached predecode artifact: warm loads reuse
  compiled superblocks, invalidation drops them, and tier-up never
  touches the predecode hit/miss statistics;
* mispredicted side exits: loops whose forward skips the static
  predictor lays out wrong (always taken, or taken every other trip)
  deopt on the JIT and still match the legacy and threaded tiers;
* path charges: no superblock the SPEC kernels compile names the
  scoreboard or the issue state — each static path ends in one
  ``m._charge_block`` of its own.
"""

import re

import pytest

from repro.cache import TranslationCache
from repro.compiler import CompileOptions, compile_and_link
from repro.difftest import sfi_mutator
from repro.difftest.generator import GenProgram, ProgramGenerator
from repro.difftest.harness import (
    COMPARED_INT_REGS,
    DEFAULT_SEGMENT_SIZE,
    memory_digest,
)
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    SandboxViolation,
    VMRuntimeError,
    VMTrap,
)
from repro.native.profiles import MOBILE_SFI
from repro.omnivm.isa import VMInstr as I
from repro.omnivm.memory import (
    HOST_BASE,
    PERM_READ,
    PERM_WRITE,
    standard_module_memory,
)
from repro.runtime.host import Host
from repro.runtime.native_loader import _TargetAdapter, load_for_target
from repro.targets.jit import JitTargetMachine, native_superblock_source
from repro.targets.threaded import ThreadedTargetMachine, predecode_native
from repro.translators import ARCHITECTURES, TranslationOptions, translate
from repro.translators.base import initial_register_state
from repro.utils.bits import f64_to_bits
from repro.workloads import suite

ENGINES = ("legacy", "threaded", "jit")


def build(stmts, name="prog", data=b"\x00" * 64):
    return GenProgram(name, list(stmts), data).build()


def observe_native(module):
    """The full architectural surface of one native run: outcome,
    compared registers, fp registers, memory digest, ``instret``,
    ``cycles``, and the final ``pc`` (the fault pc on violations)."""
    try:
        code = module.run()
        kind, detail = "exit", ""
    except VMTrap as trap:
        kind, detail, code = "trap", f"code={trap.code}", None
    except AccessViolation as violation:
        kind, detail, code = (
            "violation", f"{violation.kind}@{violation.address:#010x}", None)
    except SandboxViolation as violation:
        kind, detail, code = "sandbox", str(violation), None
    except FuelExhausted:
        kind, detail, code = "fuel", "", None
    except VMRuntimeError as err:
        kind, detail, code = "vmerror", str(err), None
    machine = module.machine
    im, fm = machine.spec.int_map, machine.spec.fp_map
    regs = tuple(machine.regs[im[i]] for i in COMPARED_INT_REGS)
    fregs = tuple(f64_to_bits(machine.fregs[fm[i]]) for i in range(16))
    return (kind, detail, code, regs, fregs, memory_digest(module.memory),
            machine.instret, machine.cycles, machine.pc)


def run_engines(program, arch, engines=ENGINES, options=None, fuel=20_000_000):
    """Run *program* on *arch* under each engine; superblocks and
    predecode artifacts flow through a shared cache so translation is
    paid once (which also exercises the JIT's cache path)."""
    cache = TranslationCache()
    runs = {}
    for engine in engines:
        module = load_for_target(program, arch, options, fuel=fuel,
                                 cache=cache,
                                 segment_size=DEFAULT_SEGMENT_SIZE,
                                 engine=engine)
        if engine == "jit":
            module.machine._jit_heat = 1
        runs[engine] = observe_native(module)
    return runs


def assert_engines_agree(runs, context):
    baseline = runs[next(iter(runs))]
    for engine, run in runs.items():
        assert run == baseline, (
            f"{context}: {engine} diverged:\n  {baseline}\n  {run}")


class TestCrossEngineJitCorpus:
    """Fixed-seed generator corpus: the legacy, threaded, and JIT
    engines are bit-exact on every target — including cycles and the
    fault pc, which the threaded corpus test does not compare."""

    SEED = "native-jit-regression"
    COUNT = 8

    def test_corpus_bit_exact(self):
        generator = ProgramGenerator(self.SEED)
        compiled = 0
        for index in range(self.COUNT):
            program = generator.program(index).build()
            for arch in ARCHITECTURES:
                runs = run_engines(program, arch)
                assert_engines_agree(runs, f"program {index} on {arch}")
        # the corpus is only a JIT test if entries actually compile
        program = generator.program(0).build()
        cache = TranslationCache()
        module = load_for_target(program, "mips", cache=cache,
                                 segment_size=DEFAULT_SEGMENT_SIZE,
                                 engine="jit")
        module.machine._jit_heat = 1
        observe_native(module)
        compiled = module.machine._superblocks_compiled
        assert compiled > 0
        assert module.machine._superblocks_run > 0

    def test_cc_profile_bit_exact(self):
        """The folded cycle model tracks the per-profile timing specs,
        including the ppc cmp-latency override applied at load time."""
        generator = ProgramGenerator("native-jit-cc")
        options = TranslationOptions(native_profile="cc")
        for index in range(3):
            program = generator.program(index).build()
            for arch in ARCHITECTURES:
                runs = run_engines(program, arch,
                                   engines=("threaded", "jit"),
                                   options=options)
                assert_engines_agree(runs, f"cc program {index} on {arch}")


WILD_STORE = """
int main() {
    int *p = (int *) %s;
    *p = 0x41414141;
    emit_int(7);
    return 0;
}
"""

WILD_JUMP = """
int main() {
    int (*fp)(void) = (int (*)(void)) %s;
    fp();
    return 0;
}
"""


def _load_hostile(source, arch, engine, fuel=300_000):
    program = compile_and_link([source], CompileOptions(module_name="evil"))
    memory = standard_module_memory(program.text_image,
                                    bytes(program.data_image))
    memory.add_segment("host", HOST_BASE, 1 << 16, PERM_READ | PERM_WRITE)
    module = load_for_target(program, arch, MOBILE_SFI, memory=memory,
                             fuel=fuel, engine=engine)
    if engine == "jit":
        module.machine._jit_heat = 1
    return module


class TestSfiContainmentUnderJit:
    """Inlined guard chains: the JIT contains hostile modules exactly
    as the threaded tier does, on every target."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    @pytest.mark.parametrize("address", ["0x50000040", "0x7FFFFFFC"])
    def test_wild_store_parity_and_containment(self, arch, address):
        source = WILD_STORE % address
        runs = {}
        for engine in ("threaded", "jit"):
            module = _load_hostile(source, arch, engine)
            host_segment = module.memory.segment_named("host")
            code_segment = module.memory.segment_named("code")
            host_before = bytes(host_segment.data)
            code_before = bytes(code_segment.data)
            runs[engine] = observe_native(module)
            assert bytes(host_segment.data) == host_before, engine
            assert bytes(code_segment.data) == code_before, engine
        assert_engines_agree(runs, f"wild store {address} on {arch}")

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_wild_jump_to_unmapped_entry_parity(self, arch):
        """A masked jump target that is not a legal entry point raises
        :class:`SandboxViolation` identically under both tiers."""
        runs = {}
        for engine in ("threaded", "jit"):
            module = _load_hostile(WILD_JUMP % "0x10FFFF08", arch, engine)
            runs[engine] = observe_native(module)
        assert_engines_agree(runs, f"wild jump on {arch}")
        assert runs["jit"][0] == "sandbox"

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_wild_jump_into_own_code_contained(self, arch):
        """0x50000000 masks onto the module's first function: it spins
        on its own code until the fuel cut.  Fuel is checked at block
        boundaries on the threaded tier but superblock boundaries on
        the JIT (the documented relaxation), so the exact cut point may
        differ by a few instructions — containment must not."""
        kinds = set()
        for engine in ("threaded", "jit"):
            module = _load_hostile(WILD_JUMP % "0x50000000", arch, engine)
            host_before = bytes(module.memory.segment_named("host").data)
            code_before = bytes(module.memory.segment_named("code").data)
            run = observe_native(module)
            kinds.add(run[0])
            assert bytes(module.memory.segment_named("host").data) == \
                host_before, engine
            assert bytes(module.memory.segment_named("code").data) == \
                code_before, engine
        assert len(kinds) == 1 and kinds <= {"sandbox", "fuel", "violation"}


#: A store through an attacker-chosen pointer: its sandboxing guard
#: chain is load-bearing, so weakening it changes where the store
#: lands — exactly what the runtime parity below must preserve.
MUTANT_SOURCE = """
int main() {
    int *p = (int *) 0x7FFFFFFC;
    *p = 0x41414141;
    return 0;
}
"""


def _run_translated(program, translated, engine, fuel=300_000):
    """Build a machine directly over a (possibly mutated, unverified)
    translation — mirrors native_loader without re-translating."""
    memory = standard_module_memory(program.text_image,
                                    bytes(program.data_image))
    threaded = predecode_native(translated.spec, translated.instrs)
    if engine == "jit":
        machine = JitTargetMachine(
            translated.spec, translated.instrs, memory,
            translated.omni_to_native, fuel=fuel, threaded=threaded)
        machine._jit_heat = 1
    else:
        machine = ThreadedTargetMachine(
            translated.spec, translated.instrs, memory,
            translated.omni_to_native, fuel=fuel, threaded=threaded)
    host = Host()
    adapter = _TargetAdapter(machine)
    machine.hostcall = lambda _m, index: host.hostcall(adapter, index)
    initial_register_state(translated.spec, machine)
    try:
        code = machine.run(translated.entry_native)
        kind, detail = "exit", code
    except AccessViolation as violation:
        kind, detail = (
            "violation", f"{violation.kind}@{violation.address:#010x}")
    except SandboxViolation as violation:
        kind, detail = "sandbox", str(violation)
    except FuelExhausted:
        kind, detail = "fuel", ""
    except (VMTrap, VMRuntimeError) as err:
        kind, detail = "error", str(err)
    return (kind, detail, tuple(machine.regs), machine.pc, machine.cycles,
            machine.instret, memory_digest(memory))


class TestMutatedGuardChains:
    """Unsafe guard-chain mutants (the escapes the SFI verifier kills
    statically) run with verification skipped must behave identically
    under the threaded and JIT tiers: the JIT executes whatever chain
    is present, bit-exactly — it neither repairs nor further weakens
    it, and the resulting faults match in kind, address, pc, cycles,
    and instret."""

    MUTANT_KINDS = ("drop-guard", "retarget-guard")
    PER_ARCH = 3

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_mutants_fault_identically(self, arch):
        program = compile_and_link([MUTANT_SOURCE])
        module = translate(program, arch, MOBILE_SFI)
        analysis = sfi_mutator.verify_sfi(module)
        mutator = sfi_mutator.SfiMutator(module, analysis)
        picked = [m for m in mutator.candidates()
                  if m.expected == "unsafe" and m.kind in self.MUTANT_KINDS]
        assert picked, arch
        outcomes = set()
        for mutation in picked[:self.PER_ARCH]:
            clone = sfi_mutator.clone_module(module)
            mutator.apply(clone, mutation)
            threaded_run = _run_translated(program, clone, "threaded")
            jit_run = _run_translated(program, clone, "jit")
            assert jit_run == threaded_run, (
                f"{arch} {mutation.describe()}:\n  {threaded_run}\n"
                f"  {jit_run}")
            outcomes.add(threaded_run[0])
        # the pristine translation agrees with itself too, and at least
        # one mutant observably diverged from it
        pristine = _run_translated(program, module, "threaded")
        assert pristine == _run_translated(program, module, "jit")

    def test_some_mutant_actually_faults(self):
        """Sanity: the parity above is not vacuous — weakening the
        chain really changes behaviour (typically a wild-address
        violation where the pristine module was contained)."""
        program = compile_and_link([MUTANT_SOURCE])
        module = translate(program, "mips", MOBILE_SFI)
        analysis = sfi_mutator.verify_sfi(module)
        mutator = sfi_mutator.SfiMutator(module, analysis)
        pristine = _run_translated(program, module, "jit")
        diverged = False
        for mutation in mutator.candidates():
            if mutation.expected != "unsafe" or \
                    mutation.kind not in self.MUTANT_KINDS:
                continue
            clone = sfi_mutator.clone_module(module)
            mutator.apply(clone, mutation)
            if _run_translated(program, clone, "jit") != pristine:
                diverged = True
                break
        assert diverged


class TestNativeSuperblockDeterminism:
    """Generated superblock source is a pure function of the predecoded
    instruction stream, so cached compiled superblocks are
    interchangeable across loads (the cache-key contract)."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_source_byte_identical_across_predecodes(self, arch):
        generator = ProgramGenerator("native-jit-determinism")
        program = generator.program(0).build()
        translated = translate(program, arch, None)
        first = predecode_native(translated.spec, translated.instrs)
        second = predecode_native(translated.spec, translated.instrs)
        produced = 0
        for entry in range(len(translated.instrs)):
            try:
                a = native_superblock_source(first, entry)
                b = native_superblock_source(second, entry)
            except Exception:
                continue
            assert a == b, f"{arch}: source diverged at entry {entry}"
            assert "_superblock" in a
            produced += 1
        assert produced > 0, arch


class TestJitCacheSideTable:
    """Compiled superblocks live in the JIT state of the translation's
    predecoded artifact in the cache's side table."""

    def _program(self):
        body = [("instr", I("li", rd=2, imm=0))]
        body += [("label", "L"),
                 ("instr", I("addi", rd=2, rs=2, imm=1)),
                 ("instr", I("blti", rs=2, imm2=500, label="L")),
                 ("instr", I("jr", rs=14))]
        return build(body, name="hotloop")

    def test_warm_load_reuses_compiled_superblocks(self):
        cache = TranslationCache()
        program = self._program()
        cold = load_for_target(program, "mips", cache=cache, engine="jit")
        cold.machine._jit_heat = 1
        cold_run = observe_native(cold)
        assert cold.machine._superblocks_compiled > 0
        warm = load_for_target(program, "mips", cache=cache, engine="jit")
        warm.machine._jit_heat = 1
        warm_run = observe_native(warm)
        assert warm.machine._superblocks_compiled == 0
        assert warm.machine._superblocks_run > 0
        assert warm_run == cold_run

    def test_invalidation_drops_superblocks(self):
        cache = TranslationCache()
        program = self._program()
        cold = load_for_target(program, "mips", cache=cache, engine="jit")
        cold.machine._jit_heat = 1
        observe_native(cold)
        cache.invalidate(program=program)
        fresh = load_for_target(program, "mips", cache=cache, engine="jit")
        fresh.machine._jit_heat = 1
        observe_native(fresh)
        assert fresh.machine._superblocks_compiled > 0

    def test_superblock_probes_leave_predecode_stats_alone(self):
        """Warming up superblocks must not move the predecode hit/miss
        counters that the threaded tier's tests pin."""
        cache = TranslationCache()
        program = self._program()
        module = load_for_target(program, "mips", cache=cache, engine="jit")
        module.machine._jit_heat = 1
        before = cache.stats()
        hits, misses = before.predecode_hits, before.predecode_misses
        observe_native(module)
        assert module.machine._superblocks_compiled > 0
        after = cache.stats()
        assert after.predecode_hits == hits
        assert after.predecode_misses == misses


class TestMispredictedExitParity:
    """Forward branches that BTFN lays out untaken but that are taken
    at run time: each entry's trace keeps its static prediction, so the
    hot path deopts through a guarded side exit on every mispredicted
    trip and the threaded tier runs the rest — with results identical
    to the legacy and threaded tiers."""

    def _forward_skips(self):
        # two always-taken forward skips in one loop: trace rotation
        # can absorb one of them as the loop-closure branch, but the
        # other stays mispredicted
        return build([
            ("instr", I("li", rd=1, imm=0)),
            ("instr", I("li", rd=4, imm=0)),
            ("label", "L"),
            ("instr", I("addi", rd=1, rs=1, imm=1)),
            ("instr", I("bgti", rs=1, imm2=0, label="S1")),
            ("instr", I("addi", rd=4, rs=4, imm=100)),
            ("label", "S1"),
            ("instr", I("addi", rd=4, rs=4, imm=1)),
            ("instr", I("bgti", rs=1, imm2=0, label="S2")),
            ("instr", I("addi", rd=4, rs=4, imm=200)),
            ("label", "S2"),
            ("instr", I("addi", rd=4, rs=4, imm=2)),
            ("instr", I("blti", rs=1, imm2=300, label="L")),
            ("instr", I("jr", rs=14)),
        ], name="skips")

    def _alternating_skip(self):
        # r2 = r1 & 1 alternates every iteration: neither direction of
        # the first skip is stable
        return build([
            ("instr", I("li", rd=1, imm=0)),
            ("instr", I("li", rd=4, imm=0)),
            ("instr", I("li", rd=5, imm=1)),
            ("label", "L"),
            ("instr", I("addi", rd=1, rs=1, imm=1)),
            ("instr", I("and", rd=2, rs=1, rt=5)),
            ("instr", I("bgti", rs=2, imm2=0, label="S1")),
            ("instr", I("addi", rd=4, rs=4, imm=100)),
            ("label", "S1"),
            ("instr", I("addi", rd=4, rs=4, imm=1)),
            ("instr", I("bgti", rs=1, imm2=0, label="S2")),
            ("instr", I("addi", rd=4, rs=4, imm=200)),
            ("label", "S2"),
            ("instr", I("addi", rd=4, rs=4, imm=2)),
            ("instr", I("blti", rs=1, imm2=400, label="L")),
            ("instr", I("jr", rs=14)),
        ], name="alternating")

    def _check(self, program, arch):
        module = load_for_target(program, arch, engine="jit",
                                 segment_size=DEFAULT_SEGMENT_SIZE)
        module.machine._jit_heat = 1
        jit_run = observe_native(module)
        assert module.machine._jit_deopts > 0, arch
        runs = run_engines(program, arch, engines=("legacy", "threaded"))
        runs["jit"] = jit_run
        assert_engines_agree(runs, f"{program.name} on {arch}")

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_forward_skips(self, arch):
        self._check(self._forward_skips(), arch)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_alternating_skip(self, arch):
        self._check(self._alternating_skip(), arch)


class TestPathCharges:
    """A native superblock leaves the timing state to the machine: each
    static path through it — from the entry, the loop head or the last
    inlined hostcall to a side exit, fault handler, hostcall, run-off-end
    exit or the backedge — ends in one ``m._charge_block`` of a
    BlockCharge built at compile time, so no superblock reads or writes
    the scoreboard or the issue state."""

    TIMING_STATE = ("_ready", "_last_issue_cycle", "_last_issued",
                    "_pair_open")

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_spec_superblocks_name_no_timing_state(self, arch, monkeypatch):
        sources = []
        compile_superblock = JitTargetMachine._compile_superblock

        def recording(program, entry):
            source, make = compile_superblock(program, entry)
            sources.append(source)
            return source, make

        monkeypatch.setattr(JitTargetMachine, "_compile_superblock",
                            staticmethod(recording))
        for name in suite.WORKLOAD_NAMES:
            module = load_for_target(suite.build(name), arch, engine="jit",
                                     cache=TranslationCache())
            module.machine._jit_heat = 1
            module.run()
            assert suite.check_output(name, module.host.output_values())
        sources = [source for source in sources if source is not None]
        assert len(sources) > 100
        for source in sources:
            for name in self.TIMING_STATE:
                assert name not in source, f"{arch}: {name}"
            charges = re.findall(r"m\._charge_block\(_c(\d+)\)", source)
            assert charges == [str(k) for k in range(len(charges))]
            assert charges
