"""The threaded-code execution engine: parity, fuel, faults, plumbing.

The threaded engines (:mod:`repro.omnivm.threaded` and
:mod:`repro.targets.threaded`) must be observably identical to the
legacy per-instruction loops — same outcomes, registers, memory,
retired-instruction counts, and (for the targets) cycles — while fuel
checks move to basic-block boundaries.  These tests pin:

* fuel-boundary semantics: exact-fuel runs finish on both engines,
  one-short runs raise :class:`~repro.errors.FuelExhausted` on both,
  and an asynchronous (watchdog-style) fuel cut stops a running
  threaded machine at its next block boundary;
* a fixed-seed cross-engine corpus (the difftest generator) executed
  bit-exactly by both engines on all five executors;
* the word-aligned :meth:`Memory.load_u32`/:meth:`Memory.store_u32`
  fast path, including its fall-back to the generic accessors for
  faults, permissions, and segment-straddling accesses;
* engine selection through :class:`~repro.engine.Engine`, the loaders,
  and the ``omnicc run --engine`` flag, plus the predecode side table
  of the translation cache;
* the ``BENCH_exec_engine.json`` artifact schema.
"""

import importlib.util
import json
import threading
from pathlib import Path

import pytest

from repro import metrics
from repro.difftest.generator import GenProgram, ProgramGenerator
from repro.difftest.harness import (
    COMPARED_INT_REGS,
    DEFAULT_SEGMENT_SIZE,
    memory_digest,
)
from repro.engine import ARCHITECTURES, Engine, INTERPRETER, RunConfig
from repro.cache import TranslationCache
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    VMRuntimeError,
    VMTrap,
)
from repro.omnivm.isa import VMInstr as I
from repro.omnivm.memory import (
    PERM_READ,
    standard_module_memory,
)
from repro.omnivm.threaded import ThreadedVM
from repro.runtime.loader import load_for_interpretation, run_module
from repro.runtime.native_loader import load_for_target
from repro.targets.threaded import ThreadedTargetMachine
from repro.utils.bits import f64_to_bits

BENCH_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_exec_engine.py"
)
ARTIFACT_PATH = (
    Path(__file__).resolve().parents[1] / "BENCH_exec_engine.json"
)

EXECUTORS = (INTERPRETER,) + ARCHITECTURES


def build(stmts, name="prog", data=b"\x00" * 64):
    return GenProgram(name, list(stmts), data).build()


def straightline_exit(value=7):
    """li; three adds; return — retires exactly 5 instructions."""
    return build([
        ("instr", I("li", rd=1, imm=value)),
        ("instr", I("addi", rd=2, rs=1, imm=1)),
        ("instr", I("addi", rd=3, rs=2, imm=1)),
        ("instr", I("addi", rd=4, rs=3, imm=1)),
        ("instr", I("jr", rs=14)),
    ])


def infinite_loop():
    """A long straight-line block looping forever (watchdog fodder)."""
    body = [("label", "L")]
    body += [("instr", I("addi", rd=2, rs=2, imm=1))] * 40
    body.append(("instr", I("j", label="L")))
    return build(body, name="spin")


def observe(module, executor):
    """(kind, detail, code, regs, fregs, digest, instret) for one run."""
    try:
        code = module.run()
        kind, detail = "exit", ""
    except VMTrap as trap:
        kind, detail, code = "trap", f"code={trap.code}", None
    except AccessViolation as violation:
        kind, detail, code = (
            "violation", f"{violation.kind}@{violation.address:#010x}", None)
    except FuelExhausted:
        kind, detail, code = "fuel", "", None
    except VMRuntimeError as err:
        kind, detail, code = "vmerror", str(err), None
    if executor == INTERPRETER:
        state = module.vm.state
        regs = tuple(state.regs[i] for i in COMPARED_INT_REGS)
        fregs = tuple(f64_to_bits(f) for f in state.fregs)
        instret = state.instret
    else:
        machine = module.machine
        im, fm = machine.spec.int_map, machine.spec.fp_map
        regs = tuple(machine.regs[im[i]] for i in COMPARED_INT_REGS)
        fregs = tuple(f64_to_bits(machine.fregs[fm[i]]) for i in range(16))
        instret = machine.instret
    return (kind, detail, code, regs, fregs,
            memory_digest(module.memory), instret)


class TestFuelBoundaries:
    """Fuel/watchdog semantics: observably identical cut behaviour."""

    def test_exact_fuel_completes_on_both_engines(self):
        program = straightline_exit()
        for engine in ("legacy", "threaded"):
            module = load_for_interpretation(program, fuel=5, engine=engine)
            assert module.run() == 7, engine
            assert module.vm.state.instret == 5

    def test_one_instruction_short_exhausts_both_engines(self):
        program = straightline_exit()
        for engine in ("legacy", "threaded"):
            module = load_for_interpretation(program, fuel=4, engine=engine)
            with pytest.raises(FuelExhausted):
                module.run()

    def test_native_fuel_cut_agrees_at_every_budget(self):
        """For every fuel value from 1 up to a clean run's retired
        count, legacy and threaded must agree on completes-vs-raises
        (delay slots are never fuel-checked, block cuts land at block
        boundaries — but the *decision* is identical)."""
        program = straightline_exit()
        legacy = load_for_target(program, "mips", engine="legacy")
        legacy.run()
        exact = legacy.machine.instret
        exhausted_somewhere = False
        for fuel in range(1, exact + 1):
            outcomes = []
            for engine in ("legacy", "threaded"):
                module = load_for_target(program, "mips", fuel=fuel,
                                         engine=engine)
                try:
                    code = module.run()
                    outcomes.append(("exit", code, module.machine.instret))
                except FuelExhausted:
                    outcomes.append(("fuel",))
                    exhausted_somewhere = True
            assert outcomes[0] == outcomes[1], (
                f"fuel={fuel}: {outcomes[0]} != {outcomes[1]}")
        assert exhausted_somewhere
        assert outcomes[0][0] == "exit" and outcomes[0][1] == 7

    def test_watchdog_cut_stops_threaded_interpreter_mid_run(self):
        """An asynchronous fuel cut (what the service watchdog does)
        must stop a threaded run at the next block boundary."""
        module = load_for_interpretation(
            infinite_loop(), fuel=10**15, engine="threaded")
        assert isinstance(module.vm, ThreadedVM)
        failures = []
        started = threading.Event()

        def spin():
            started.set()
            try:
                module.run()
                failures.append("run returned")
            except FuelExhausted:
                pass
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(repr(exc))

        thread = threading.Thread(target=spin)
        thread.start()
        started.wait()
        while module.vm.state.instret < 100:  # let it enter the loop
            pass
        module.vm.fuel = -1
        thread.join(timeout=30)
        assert not thread.is_alive(), "fuel cut did not stop the module"
        assert not failures, failures
        assert module.vm.state.instret > 100

    def test_watchdog_cut_stops_threaded_target_mid_run(self):
        module = load_for_target(
            infinite_loop(), "sparc", fuel=10**15, engine="threaded")
        assert isinstance(module.machine, ThreadedTargetMachine)
        failures = []

        def spin():
            try:
                module.run()
                failures.append("run returned")
            except FuelExhausted:
                pass
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(repr(exc))

        thread = threading.Thread(target=spin)
        thread.start()
        while module.machine.instret < 100:
            pass
        module.machine.fuel = -1
        thread.join(timeout=30)
        assert not thread.is_alive(), "fuel cut did not stop the module"
        assert not failures, failures

    def test_fault_instret_parity_across_engines(self):
        """A mid-block access violation charges exactly the retired
        prefix — identical on both engines, interpreter and targets."""
        program = build([
            ("instr", I("addi", rd=2, rs=0, imm=64)),
            ("instr", I("addi", rd=3, rs=0, imm=1)),
            ("instr", I("lw", rd=5, rs=2, imm=0)),  # load 0x40: unmapped
            ("instr", I("jr", rs=14)),
        ], name="fault")
        for executor in EXECUTORS:
            runs = []
            for engine in ("legacy", "threaded"):
                if executor == INTERPRETER:
                    module = load_for_interpretation(program, engine=engine)
                else:
                    module = load_for_target(program, executor,
                                             engine=engine)
                runs.append(observe(module, executor))
            assert runs[0] == runs[1], f"{executor}: {runs[0]} != {runs[1]}"
        # at minimum the interpreter sees the raw wild-load violation
        module = load_for_interpretation(program, engine="threaded")
        assert observe(module, INTERPRETER)[0] == "violation"


class TestCrossEngineCorpus:
    """Fixed-seed generator corpus: bit-exact between the legacy,
    threaded, and (on the interpreter) JIT engines on every executor
    (the satellite-f pin).  JIT runs force the heat threshold to 1 so
    every dispatched entry actually executes as a compiled superblock."""

    SEED = "threaded-regression"
    COUNT = 12

    def test_corpus_bit_exact(self):
        generator = ProgramGenerator(self.SEED)
        for index in range(self.COUNT):
            program = generator.program(index).build()
            for executor in EXECUTORS:
                engines = (("legacy", "threaded", "jit")
                           if executor == INTERPRETER
                           else ("legacy", "threaded"))
                runs = []
                for engine in engines:
                    if executor == INTERPRETER:
                        module = load_for_interpretation(
                            program, fuel=1_000_000,
                            segment_size=DEFAULT_SEGMENT_SIZE,
                            engine=engine)
                        if engine == "jit":
                            module.vm._jit_heat = 1
                    else:
                        module = load_for_target(
                            program, executor, fuel=20_000_000,
                            segment_size=DEFAULT_SEGMENT_SIZE,
                            engine=engine)
                    runs.append(observe(module, executor))
                for engine, run in zip(engines[1:], runs[1:]):
                    assert run == runs[0], (
                        f"program {index} on {executor}/{engine}: "
                        f"{runs[0][:3]} != {run[:3]}")


class TestWordAccessors:
    """Memory.load_u32/store_u32: fast path + exact fallback faults."""

    def make_memory(self):
        return standard_module_memory(b"\x00" * 64, b"\x12\x34\x56\x78",
                                      segment_size=1 << 16)

    def test_roundtrip_matches_generic_path(self):
        memory = self.make_memory()
        address = 0x20000008
        memory.store_u32(address, 0xDEADBEEF)
        assert memory.load_u32(address) == 0xDEADBEEF
        assert memory.load(address, 4) == 0xDEADBEEF
        memory.store(address, 4, 0x01020304)
        assert memory.load_u32(address) == 0x01020304

    def test_store_masks_to_32_bits(self):
        memory = self.make_memory()
        memory.store_u32(0x20000000, 0x1_FFFF0001)
        assert memory.load_u32(0x20000000) == 0xFFFF0001

    def test_write_count_increments_on_fast_path(self):
        memory = self.make_memory()
        memory.store_u32(0x20000000, 1)  # generic (cache cold)
        before = memory.write_count
        memory.store_u32(0x20000004, 2)  # fast path (cache warm)
        assert memory.write_count == before + 1

    def test_unmapped_load_raises_same_violation_as_generic(self):
        memory = self.make_memory()
        with pytest.raises(AccessViolation) as fast:
            memory.load_u32(0x00000040)
        with pytest.raises(AccessViolation) as generic:
            memory.load(0x00000040, 4)
        assert str(fast.value) == str(generic.value)
        assert "unmapped" in str(fast.value)

    def test_store_to_readonly_segment_denied(self):
        memory = self.make_memory()
        memory.load_u32(0x10000000)  # prime the segment cache with code
        with pytest.raises(AccessViolation) as err:
            memory.store_u32(0x10000000, 1)
        assert "denied by segment 'code'" in str(err.value)

    def test_segment_end_straddle_falls_back_and_faults(self):
        memory = self.make_memory()
        limit = memory.segment_named("data").limit
        memory.load_u32(limit - 4)  # prime cache; in-bounds
        with pytest.raises(AccessViolation):
            memory.load_u32(limit - 2)  # straddles the segment end
        with pytest.raises(AccessViolation):
            memory.store_u32(limit - 2, 5)

    def test_readonly_data_store_denied_without_priming(self):
        memory = standard_module_memory(
            b"\x00" * 64, b"\x00" * 8, segment_size=1 << 16)
        memory.segment_named("data").perms = PERM_READ  # read-only data
        with pytest.raises(AccessViolation) as err:
            memory.store_u32(0x20000000, 1)
        assert "denied by segment 'data'" in str(err.value)
        assert memory.segments and all(
            seg.perms != 0 for seg in memory.segments)

    def test_perm_revocation_respected_by_fast_path(self):
        memory = self.make_memory()
        memory.store_u32(0x20000000, 7)   # prime cache with data segment
        memory.set_perms("data", PERM_READ)
        with pytest.raises(AccessViolation):
            memory.store_u32(0x20000000, 8)
        assert memory.load_u32(0x20000000) == 7


class TestEnginePlumbing:
    """Engine selection through the facade, loaders, and cache."""

    def test_unknown_engine_rejected_everywhere(self):
        program = straightline_exit()
        with pytest.raises(ValueError):
            load_for_interpretation(program, engine="bogus")
        with pytest.raises(ValueError):
            load_for_target(program, "mips", engine="bogus")
        with pytest.raises(ValueError):
            Engine(execution_engine="bogus")

    def test_jit_is_the_one_name_for_the_tiering_engine(self, tmp_path,
                                                        capsys):
        from repro.cli import main
        from repro.omnivm.jit import JitVM
        from repro.targets.jit import JitTargetMachine

        program = straightline_exit()
        with pytest.raises(ValueError):
            Engine(execution_engine="auto")
        with pytest.raises(ValueError):
            load_for_interpretation(program, engine="auto")
        with pytest.raises(ValueError):
            load_for_target(program, "mips", engine="auto")
        engine = Engine(target="mips", cache=False)
        assert engine.execution_engine == "jit"
        assert type(engine.load(program).machine) is JitTargetMachine
        assert type(load_for_interpretation(program).vm) is JitVM
        src = tmp_path / "hi.c"
        src.write_text("int main() { emit_int(41 + 1); return 0; }")
        with pytest.raises(SystemExit) as info:
            main(["run", str(src), "--engine", "auto"])
        assert info.value.code == 2
        assert "invalid choice: 'auto'" in capsys.readouterr().err
        assert main(["run", str(src), "--engine", "jit"]) == 0
        assert capsys.readouterr().out == "42"

    def test_engine_default_and_per_call_override(self):
        from repro.omnivm.interp import OmniVM
        from repro.targets.base import TargetMachine

        engine = Engine(target="mips", cache=False)
        program = straightline_exit()
        module = engine.load(program)
        assert isinstance(module.machine, ThreadedTargetMachine)
        module = engine.load(program, config=RunConfig(engine="legacy"))
        assert type(module.machine) is TargetMachine
        module = engine.load(program, target=INTERPRETER)
        assert isinstance(module.vm, ThreadedVM)
        module = engine.load(program, target=INTERPRETER,
                             config=RunConfig(engine="legacy"))
        assert type(module.vm) is OmniVM

        legacy_engine = Engine(target="mips", cache=False,
                               execution_engine="legacy")
        assert type(legacy_engine.load(program).machine) is TargetMachine

    def test_predecode_cache_round_trip(self):
        engine = Engine(target="mips")
        program = straightline_exit()
        engine.run(program)
        engine.run(program, target=INTERPRETER)
        stats = engine.cache.stats()
        assert stats.predecode_hits == 0
        assert stats.predecode_misses == 2
        engine.run(program)
        engine.run(program, target=INTERPRETER)
        stats = engine.cache.stats()
        assert stats.predecode_hits == 2
        payload = stats.to_dict()
        assert payload["predecode_hits"] == 2
        assert payload["predecode_misses"] == 2

    def test_invalidate_drops_predecode_entries(self):
        engine = Engine(target="mips")
        program = straightline_exit()
        engine.run(program)
        engine.cache.invalidate(program=program)
        before = engine.cache.stats().predecode_misses
        engine.run(program)
        assert engine.cache.stats().predecode_misses == before + 1

    def test_predecode_eviction_is_silent(self):
        cache = TranslationCache(capacity=1)
        a, b = object(), object()
        cache.predecoded(("a", "omnivm", ""), lambda: a)
        cache.predecoded(("b", "omnivm", ""), lambda: b)
        assert cache.stats().evictions == 0
        assert cache.predecoded(("b", "omnivm", ""), object) is b
        assert cache.predecoded(("a", "omnivm", ""), object) is not a

    def test_threaded_metrics_counters(self):
        collector = metrics.MetricsCollector()
        program = straightline_exit()
        with metrics.collect(collector):
            module = load_for_target(program, "ppc", engine="threaded")
            module.run()
        counters = collector.counters
        assert counters.get("execute.predecode_ms", 0) > 0
        assert counters.get("execute.blocks", 0) > 0

    @pytest.mark.parametrize("executor", [INTERPRETER, "mips"])
    def test_threaded_engine_never_tiers_up(self, executor):
        """``threaded`` and ``jit`` share one dispatch loop; only the JIT
        machine ever switches its superblock probe on."""
        body = [("instr", I("li", rd=2, imm=0))]
        body += [("label", "L"),
                 ("instr", I("addi", rd=2, rs=2, imm=1)),
                 ("instr", I("blti", rs=2, imm2=500, label="L")),
                 ("instr", I("jr", rs=14))]
        program = build(body, name="hot")
        counters = {}
        for engine in ("threaded", "jit"):
            collector = metrics.MetricsCollector()
            with metrics.collect(collector):
                if executor == INTERPRETER:
                    module = load_for_interpretation(program, engine=engine)
                else:
                    module = load_for_target(program, executor,
                                             engine=engine)
                module.run()
            counters[engine] = collector.counters
        threaded = counters["threaded"]
        assert threaded.get("execute.superblocks", 0) == 0
        assert threaded.get("execute.superblock_runs", 0) == 0
        # the entry block, 499 more loop trips, and the return block
        assert threaded["execute.blocks"] == 501
        assert counters["jit"]["execute.superblocks"] >= 1
        assert counters["jit"]["execute.blocks"] < 501

    def test_cli_engine_flag(self, tmp_path, capsys):
        from repro.cli import main

        src = tmp_path / "hi.c"
        src.write_text("int main() { emit_int(41 + 1); return 0; }")
        for flag in ("threaded", "legacy"):
            assert main(["run", str(src), "--engine", flag]) == 0
            assert capsys.readouterr().out == "42"
        assert main(["run", str(src), "--arch", "mips",
                     "--engine", "legacy"]) == 0
        assert capsys.readouterr().out == "42"


class TestBenchmarkSmoke:
    """Tier-1 guard on the BENCH_exec_engine.json contract."""

    @pytest.fixture(scope="class")
    def bench(self):
        spec = importlib.util.spec_from_file_location(
            "bench_exec_engine", BENCH_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_small_payload_validates(self, bench):
        payload = bench.collect_benchmark(
            workloads=("li",), executors=("omnivm", "mips"), repeats=1)
        bench.validate_artifact(payload)
        assert payload["schema_version"] == bench.SCHEMA_VERSION == 5
        assert {r["executor"] for r in payload["results"]} == \
            {"omnivm", "mips"}
        by_executor = {r["executor"]: r for r in payload["results"]}
        # schema v3: every executor, native targets included, carries
        # the jit tier columns
        assert bench.JIT_RESULT_KEYS <= by_executor["omnivm"].keys()
        assert bench.JIT_RESULT_KEYS <= by_executor["mips"].keys()
        assert set(payload["geomean_jit_over_threaded"]) == \
            {"omnivm", "mips"}
        # schema v4: the cold run with compile time, and the break-even
        # heat per executor
        assert set(payload["geomean_jit_cold_over_threaded"]) == \
            {"omnivm", "mips"}
        assert set(payload["breakeven_dispatches"]) == {"omnivm", "mips"}

    def test_committed_artifact_validates_and_meets_bars(self, bench):
        payload = json.loads(ARTIFACT_PATH.read_text())
        bench.validate_artifact(payload)
        for executor, bar in bench.MIN_SPEEDUP.items():
            geomean = payload["geomean_speedup"][executor]
            assert geomean >= bar, (
                f"{executor}: committed artifact shows {geomean:.2f}x, "
                f"below the {bar:.1f}x bar")
        for executor, bar in bench.MIN_JIT_SPEEDUP.items():
            geomean = payload["geomean_jit_over_threaded"][executor]
            assert geomean >= bar, (
                f"{executor}: committed jit tier shows {geomean:.2f}x "
                f"over threaded, below the {bar:.1f}x bar")


class TestSuperblockDeterminism:
    """Generated superblock source is a pure function of the
    instruction stream: two independent predecodes of the same program
    yield byte-identical source at every entry, so cached compiled
    superblocks are interchangeable across loads."""

    def test_source_byte_identical_across_predecodes(self):
        from repro.omnivm.jit import superblock_source
        from repro.omnivm.threaded import predecode_program

        generator = ProgramGenerator("jit-determinism")
        first = predecode_program(generator.program(0).build())
        second = predecode_program(generator.program(0).build())
        assert first.length == second.length
        for entry in range(first.length):
            a = superblock_source(first, entry)
            b = superblock_source(second, entry)
            assert a == b, f"superblock source diverged at entry {entry}"
            assert "_superblock" in a


# ---------------------------------------------------------------------------
# adjacent-pair fault attribution
# ---------------------------------------------------------------------------

def _pair_program(first, second):
    """Setup (3 instrs) + the pair under test (indices 3,4) + return.

    ``r2`` holds an unmapped address (0x40), ``r4`` a mapped data
    address, ``r9`` zero.
    """
    return build([
        ("instr", I("li", rd=2, imm=0x40)),
        ("instr", I("li", rd=4, imm=0x20000000)),
        ("instr", I("xor", rd=9, rs=9, rt=9)),
        ("instr", first),
        ("instr", second),
        ("instr", I("jr", rs=14)),
    ], name="pair-fault")


#: Adjacent body pairs that can fault, faulting on instruction 1 and
#: (where the second instruction accesses memory) on instruction 2.
BODY_FAULT_SHAPES = [
    ("lw_lw_first", I("lw", rd=5, rs=2, imm=0), I("lw", rd=6, rs=4, imm=0), 3),
    ("lw_lw_second", I("lw", rd=5, rs=4, imm=0), I("lw", rd=6, rs=2, imm=0), 4),
    ("lw_addi_first", I("lw", rd=5, rs=2, imm=0), I("addi", rd=7, rs=9, imm=9), 3),
    ("addi_lw_second", I("addi", rd=7, rs=9, imm=9), I("lw", rd=6, rs=2, imm=0), 4),
    ("li_lw_second", I("li", rd=7, imm=42), I("lw", rd=6, rs=2, imm=0), 4),
    ("li_lwx_second", I("li", rd=7, imm=42), I("lwx", rd=6, rs=2, rt=9), 4),
    ("sw_sw_first", I("sw", rs=2, rt=1, imm=0), I("sw", rs=4, rt=1, imm=0), 3),
    ("sw_sw_second", I("sw", rs=4, rt=1, imm=0), I("sw", rs=2, rt=1, imm=0), 4),
    ("addi_sw_second", I("addi", rd=7, rs=9, imm=9), I("sw", rs=2, rt=1, imm=0), 4),
]


class TestFusedPairFaults:
    """An adjacent pair faulting on instruction 1 vs instruction 2
    must report ``fault_pc`` of the faulting instruction and charge
    exactly the retired prefix — identical across legacy, threaded, and
    JIT tiers (the JIT variant forces superblock compilation on first
    dispatch)."""

    ENGINES = ("legacy", "threaded", "jit", "jit-hot")

    def _run_engines(self, program):
        runs = {}
        for engine in self.ENGINES:
            module = load_for_interpretation(
                program, engine=engine.split("-")[0])
            if engine == "jit-hot":
                module.vm._jit_heat = 1
            obs = observe(module, INTERPRETER)
            state = module.vm.state
            runs[engine] = (obs, state.pc, state.instret)
        return runs

    @pytest.mark.parametrize(
        "name,first,second,fault_index",
        BODY_FAULT_SHAPES, ids=[s[0] for s in BODY_FAULT_SHAPES])
    def test_body_shape(self, name, first, second, fault_index):
        from repro.omnivm.memory import CODE_BASE
        from repro.omnivm.isa import INSTR_SIZE

        program = _pair_program(first, second)
        runs = self._run_engines(program)
        expect_pc = CODE_BASE + fault_index * INSTR_SIZE
        expect_instret = fault_index + 1  # retired prefix + faulting instr
        for engine, (obs, pc, instret) in runs.items():
            assert obs[0] == "violation", (engine, obs[:2])
            assert pc == expect_pc, (engine, hex(pc))
            assert instret == expect_instret, (engine, instret)
        first_run = runs["legacy"]
        for engine in self.ENGINES[1:]:
            assert runs[engine] == first_run, engine

    def test_term_lw_branch_fault_on_first(self):
        """A load faulting right before the block's branch."""
        from repro.omnivm.memory import CODE_BASE
        from repro.omnivm.isa import INSTR_SIZE

        program = build([
            ("instr", I("li", rd=2, imm=0x40)),
            ("instr", I("xor", rd=9, rs=9, rt=9)),
            ("instr", I("lw", rd=5, rs=2, imm=0)),
            ("instr", I("beqi", rs=5, imm=0, label="L")),
            ("label", "L"),
            ("instr", I("jr", rs=14)),
        ], name="load-branch-fault")
        runs = self._run_engines(program)
        expect_pc = CODE_BASE + 2 * INSTR_SIZE
        for engine, (obs, pc, instret) in runs.items():
            assert obs[0] == "violation", (engine, obs[:2])
            assert pc == expect_pc, (engine, hex(pc))
            assert instret == 3, (engine, instret)

    def test_second_fault_commits_first_result(self):
        """When instruction 2 faults, instruction 1's architectural
        effect is already committed (register write / memory store)."""
        program = _pair_program(
            I("li", rd=7, imm=42), I("lw", rd=6, rs=2, imm=0))
        for engine in ("legacy", "threaded", "jit"):
            module = load_for_interpretation(program, engine=engine)
            with pytest.raises(AccessViolation):
                module.run()
            assert module.vm.state.regs[7] == 42, engine
