"""The differential-execution fuzzer itself: generator, harness, minimizer.

The regression tests for the divergences the fuzzer found live in
``test_difftest_regressions.py``; this file checks the machinery.
"""

import pytest

from repro.difftest import ProgramGenerator, minimize_program, run_difftest
from repro.difftest.generator import GenProgram
from repro.difftest.harness import (
    COMPARED_INT_REGS,
    Outcome,
    compare_outcomes,
    run_one,
)
from repro.engine import ARCHITECTURES, Engine, INTERPRETER
from repro.omnivm.interp import OmniVM
from repro.omnivm.verifier import verify_program
from repro.targets.jit import JitTargetMachine


@pytest.fixture(scope="module")
def engine():
    return Engine(cache=False)


class TestGenerator:
    def test_deterministic_per_seed_and_index(self):
        first = ProgramGenerator("seed-a").program(7)
        second = ProgramGenerator("seed-a").program(7)
        assert first.listing() == second.listing()
        assert first.data == second.data

    def test_different_indices_differ(self):
        gen = ProgramGenerator("seed-a")
        assert gen.program(0).listing() != gen.program(1).listing()

    def test_different_seeds_differ(self):
        a = ProgramGenerator("seed-a").program(3)
        b = ProgramGenerator("seed-b").program(3)
        assert a.listing() != b.listing()

    @pytest.mark.parametrize("index", range(25))
    def test_generated_programs_are_verifier_valid(self, index):
        program = ProgramGenerator("valid").program(index).build()
        verify_program(program)  # must not raise

    def test_programs_terminate_on_interpreter(self, engine):
        for index in range(10):
            program = ProgramGenerator("term").program(index).build()
            outcome = run_one(engine, program, INTERPRETER)
            assert outcome.kind != "fuel"


class TestCompareOutcomes:
    def _exit(self, **overrides):
        base = dict(
            kind="exit", exit_code=0,
            regs=tuple(0 for _ in COMPARED_INT_REGS),
            fregs=tuple(0 for _ in range(16)), digest="d" * 16,
        )
        base.update(overrides)
        return Outcome(**base)

    def test_identical_exits_are_clean(self):
        assert compare_outcomes(self._exit(), self._exit()) == []

    def test_register_difference_is_reported(self):
        regs = list(self._exit().regs)
        regs[COMPARED_INT_REGS.index(5)] = 0xDEAD
        diffs = compare_outcomes(self._exit(), self._exit(regs=tuple(regs)))
        assert diffs == ["int reg r5: 0x00000000 vs 0x0000dead"]

    def test_matching_violations_are_clean(self):
        a = Outcome("violation", "load@0x00000000")
        b = Outcome("violation", "load@0x00000000")
        assert compare_outcomes(a, b) == []

    def test_outcome_kind_mismatch(self):
        a = self._exit()
        b = Outcome("trap", "code=3")
        diffs = compare_outcomes(a, b)
        assert len(diffs) == 1 and diffs[0].startswith("outcome:")

    def test_digest_difference_is_reported(self):
        diffs = compare_outcomes(self._exit(), self._exit(digest="e" * 16))
        assert diffs and diffs[0].startswith("memory digest:")


class TestMinimizer:
    def test_shrinks_to_the_interesting_instruction(self):
        stmts = [("instr", f"i{n}") for n in range(20)]
        stmts.append(("instr", "epilogue"))

        def interesting(candidate):
            return any(s == ("instr", "i13") for s in candidate)

        reduced, checks = minimize_program(stmts, interesting)
        assert ("instr", "i13") in reduced
        # Epilogue is pinned, i13 is required; everything else goes.
        assert len(reduced) == 2
        assert reduced[-1] == ("instr", "epilogue")
        assert checks > 0

    def test_labels_are_never_removed(self):
        stmts = [("label", "L0"), ("instr", "a"), ("label", "L1"),
                 ("instr", "b"), ("instr", "epilogue")]
        reduced, _ = minimize_program(stmts, lambda c: True)
        assert ("label", "L0") in reduced and ("label", "L1") in reduced

    def test_never_true_predicate_keeps_everything(self):
        stmts = [("instr", "a"), ("instr", "b"), ("instr", "epilogue")]
        reduced, _ = minimize_program(stmts, lambda c: False)
        assert reduced == stmts


class TestReferenceExecutor:
    def test_reference_is_the_hand_written_interpreter(self, monkeypatch):
        """The oracle run must be the reference interpreter itself, not
        a generated tier; targets stay on the engine's default tier."""
        loaded = []
        load = Engine.load

        def spy(self, *args, **kwargs):
            loaded.append(load(self, *args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(Engine, "load", spy)
        program = ProgramGenerator("reference").program(0).build()
        engine = Engine(cache=False)
        run_one(engine, program, INTERPRETER)
        run_one(engine, program, "mips")
        assert type(loaded[0].vm) is OmniVM
        assert type(loaded[1].machine) is JitTargetMachine


class TestSmoke:
    def test_fixed_seed_corpus_is_clean_on_all_targets(self, engine):
        """Tier-1 difftest smoke: a fixed-seed corpus must cross-execute
        identically on the interpreter and all four targets."""
        summary = run_difftest(count=30, seed="ci-smoke", engine=engine,
                               minimize=False)
        assert summary.programs == 30
        assert summary.executions == 30 * (1 + len(ARCHITECTURES))
        assert summary.clean, "\n".join(
            d.report() for d in summary.divergences)

    def test_metrics_are_counted(self):
        engine = Engine(cache=False)
        run_difftest(count=3, seed="metrics", engine=engine, minimize=False,
                     targets=("mips",))
        assert engine.metrics.counters["difftest.programs"] == 3

    def test_summary_shapes(self, engine):
        summary = run_difftest(count=2, seed="shape", engine=engine,
                               minimize=False, targets=("x86",))
        payload = summary.to_dict()
        assert payload["divergence_count"] == 0
        assert "CLEAN" in summary.render()
