"""The superblock JIT's per-translation state.

Each predecoded artifact carries one :class:`repro.jitcore.JitState`:
block-entry heat and the compiled superblock factories.  Every JIT
machine running the translation shares it, so heat accumulates across
requests for the same program and the translation cache holds one
side-table entry per translation.  These tests pin:

* side-table steadiness: a cache whose hot superblocks outnumber its
  capacity still compiles nothing on a second round;
* heat per translation: a short loop tiers up only after enough
  requests for its program, exactly once per engine, never without a
  cache, and never from ``engine="threaded"`` runs;
* static traces: a translation compiles each entry at most once, even
  where the static prediction is wrong on every trip, and every
  machine sharing it runs the same superblocks;
* determinism: tier-up decisions depend only on counts, so the same
  request sequence compiles the same superblocks every time.
"""

import pytest

from repro import Engine, metrics
from repro.cache import TranslationCache
from repro.difftest.generator import GenProgram
from repro.engine import ARCHITECTURES, INTERPRETER, RunConfig
from repro.jitcore import JIT_HEAT
from repro.omnivm.isa import VMInstr as I
from repro.omnivm.jit import MAX_DIAMOND_ARM
from repro.runtime.loader import load_module

#: A 40-trip loop: far below the heat threshold in one run.
LOOP = """
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 40; i = i + 1) {
        s = s + i * 3;
    }
    emit_int(s);
    return 0;
}
"""
LOOP_OUTPUT = [2340]

TARGETS = (None, "mips")


def _hot(k):
    """A program whose two loops cross the heat threshold in one run."""
    return f"""
int main() {{
    int i;
    int s = {k};
    for (i = 0; i < {2 * JIT_HEAT}; i = i + 1) {{
        s = s ^ (i << 2);
    }}
    for (i = 0; i < {2 * JIT_HEAT}; i = i + 1) {{
        s = s * 3 + i;
    }}
    emit_int(s);
    return 0;
}}
"""


def _request(engine, program, target, config=None):
    """Run one request; return its per-request JIT counters."""
    engine.reset_stats()
    code, module = engine.run(program, target=target, config=config)
    assert code == 0
    counters = engine.metrics.counters
    return (counters.get("execute.superblocks", 0),
            counters.get("execute.superblock_runs", 0),
            module.host.output_values())


class TestSideTableSteadiness:
    """One side-table entry per translation: with more hot superblocks
    than the cache has entries, a warm round still compiles nothing."""

    @pytest.mark.parametrize("target", TARGETS)
    def test_second_round_compiles_nothing(self, target):
        cache = TranslationCache(capacity=4)
        engine = Engine(target=target, cache=cache)
        programs = [engine.compile(_hot(k)) for k in range(3)]
        first = [_request(engine, p, target) for p in programs]
        hot_entries = sum(compiled for compiled, _runs, _out in first)
        assert hot_entries > cache.capacity
        assert len(cache._predecoded) == len(programs)
        second = [_request(engine, p, target) for p in programs]
        for (_c1, _r1, out1), (compiled, runs, out2) in zip(first, second):
            assert compiled == 0
            assert runs > 0
            assert out2 == out1


class TestHeatPerTranslation:
    """Heat counts dispatches of a translation, not of one machine."""

    RUNS = JIT_HEAT // 40 + 3

    @pytest.mark.parametrize("target", TARGETS)
    def test_one_run_compiles_nothing(self, target):
        compiled, runs, output = _request(Engine(), LOOP, target)
        assert (compiled, runs) == (0, 0)
        assert output == LOOP_OUTPUT

    @pytest.mark.parametrize("target", TARGETS)
    def test_later_run_installs_the_loop_once(self, target):
        engine = Engine()
        program = engine.compile(LOOP)
        results = [_request(engine, program, target)
                   for _ in range(self.RUNS)]
        assert all(out == LOOP_OUTPUT for _c, _r, out in results)
        compiled = [c for c, _r, _out in results]
        first = next(i for i, c in enumerate(compiled) if c)
        assert first > 0
        assert compiled[first + 1:] == [0] * (len(compiled) - first - 1)
        assert all(runs > 0 for _c, runs, _out in results[first:])

    @pytest.mark.parametrize("target", TARGETS)
    def test_no_cache_never_compiles(self, target):
        engine = Engine(cache=False)
        program = engine.compile(LOOP)
        for _ in range(self.RUNS):
            assert _request(engine, program, target) == \
                (0, 0, LOOP_OUTPUT)

    @pytest.mark.parametrize("target", TARGETS)
    def test_threaded_runs_leave_the_heat_alone(self, target):
        engine = Engine()
        program = engine.compile(LOOP)
        threaded = RunConfig(engine="threaded")
        for _ in range(self.RUNS):
            _request(engine, program, target, threaded)
        (artifact,) = engine.cache._predecoded.values()
        assert not any(artifact.jit.heat)
        assert _request(engine, program, target) == (0, 0, LOOP_OUTPUT)
        assert any(artifact.jit.heat)


#: Trips of the loop in :func:`_mispredicted_loop`.
TRIPS = 300


def _mispredicted_loop():
    """A loop with two always-taken forward skips.  BTFN lays both out
    untaken; loop closure can absorb one of them into the trace of the
    skip target, never both.  Each skipped arm is longer than an inlined
    diamond may be, so the OmniVM JIT exits there too."""
    arm = [("instr", I("addi", rd=4, rs=4, imm=100))] * (MAX_DIAMOND_ARM + 1)
    return GenProgram("mispredicted", [
        ("instr", I("li", rd=1, imm=0)),
        ("instr", I("li", rd=4, imm=0)),
        ("label", "L"),
        ("instr", I("addi", rd=1, rs=1, imm=1)),
        ("instr", I("bgti", rs=1, imm2=0, label="S1")),
        *arm,
        ("label", "S1"),
        ("instr", I("addi", rd=4, rs=4, imm=1)),
        ("instr", I("bgti", rs=1, imm2=0, label="S2")),
        *arm,
        ("label", "S2"),
        ("instr", I("addi", rd=4, rs=4, imm=2)),
        ("instr", I("blti", rs=1, imm2=TRIPS, label="L")),
        ("instr", I("jr", rs=14)),
    ], b"\x00" * 64).build()


class TestEntriesCompileOnce:
    """Traces are static: a translation compiles each entry at most
    once, however often its guarded side exits fire, and a second
    machine of the translation compiles nothing and runs exactly what
    the first ran."""

    @pytest.mark.parametrize("arch", (INTERPRETER,) + ARCHITECTURES)
    def test_two_machines_one_translation(self, arch):
        program = _mispredicted_loop()
        cache = TranslationCache()
        runs = []
        for _ in range(2):
            module = load_module(program, arch, cache=cache, engine="jit")
            machine = module.vm if arch == INTERPRETER else module.machine
            machine._jit_heat = 1
            with metrics.collect() as collected:
                assert module.run() == TRIPS  # r1 is the result
            counters = collected.counters
            runs.append((machine, counters.get("execute.deopts", 0),
                         counters.get("execute.superblock_runs", 0)))
        (first, deopts, sb_runs), (second, deopts2, sb_runs2) = runs
        makers = first._threaded.jit.makers
        assert second._threaded.jit.makers is makers
        compiled = first._superblocks_compiled + second._superblocks_compiled
        assert compiled == len(makers) > 0
        assert second._superblocks_compiled == 0
        assert (deopts2, sb_runs2) == (deopts, sb_runs)
        # The mispredicted exit is never re-formed: it fires every trip.
        assert deopts >= TRIPS


class TestTierUpDeterminism:
    """Decisions depend only on dispatch counts: two fresh engines fed
    the same request sequence compile and run the same superblocks."""

    SEQUENCE = ([(LOOP, None)] * 8 + [(_hot(1), "mips"), (LOOP, "mips")]
                + [(_hot(1), None), (_hot(2), "mips")] * 2
                + [(LOOP, "mips")] * 6)

    def _replay(self):
        engine = Engine()
        return [_request(engine, source, target)[:2]
                for source, target in self.SEQUENCE]

    def test_same_sequence_same_superblocks(self):
        first = self._replay()
        assert sum(compiled for compiled, _runs in first) > 0
        assert self._replay() == first
