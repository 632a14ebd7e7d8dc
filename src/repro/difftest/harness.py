"""Cross-executor harness: one program, five executions, one verdict.

Each generated program runs on the reference interpreter (the semantic
oracle) and on every simulated target, under the default mobile profile
(SFI + scheduling + peepholes).  The harness then compares:

* the **outcome** — clean exit code, or the trap/violation that ended the
  run (kind plus payload; engine-internal scratch state is not compared
  on exceptional paths, where a target may legitimately stop mid-expansion);
* the **final register files** — all OmniVM integer registers except
  ``r14`` (the return sentinel differs between engines by design) and
  all FP registers, compared bit-exactly through ``f64_to_bits``;
* a **memory digest** — SHA-256 over the data and heap segments.

Divergent programs are shrunk by :mod:`repro.difftest.minimize` and
reported with both the original and the minimized listing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.engine import ARCHITECTURES, Engine, INTERPRETER, RunConfig
from repro.errors import (
    AccessViolation,
    FuelExhausted,
    SandboxViolation,
    VMRuntimeError,
    VMTrap,
)
from repro.difftest.generator import GenProgram, ProgramGenerator
from repro.difftest.minimize import minimize_program
from repro.omnivm.linker import LinkedProgram
from repro.utils.bits import f64_to_bits

#: OmniVM integer registers included in state comparison.  r14 (link) is
#: excluded: the interpreter's return sentinel is 0 while translated
#: code uses the SFI RETURN_SENTINEL, an intentional asymmetry.
COMPARED_INT_REGS = tuple(i for i in range(16) if i != 14)

#: Default per-run budgets.  Generated programs terminate structurally;
#: fuel is a backstop.  Targets get more headroom because translation
#: expands each OmniVM instruction into several native ones.
DEFAULT_FUEL = 1_000_000
TARGET_FUEL_FACTOR = 20

#: Small module segments keep per-program memory digests cheap.
DEFAULT_SEGMENT_SIZE = 1 << 18


@dataclass
class Outcome:
    """Observable result of running one program on one executor."""

    kind: str  # "exit" | "trap" | "violation" | "vmerror" | "sandbox" | "fuel"
    detail: str = ""
    exit_code: int | None = None
    regs: tuple | None = None
    fregs: tuple | None = None
    digest: str | None = None

    def describe(self) -> str:
        if self.kind == "exit":
            return f"exit code={self.exit_code} digest={self.digest}"
        return f"{self.kind} ({self.detail})"


@dataclass
class Divergence:
    """One program on which an executor disagreed with the interpreter."""

    index: int
    seed: str
    target: str
    differences: list[str]
    listing: str
    minimized_listing: str | None = None
    minimized_differences: list[str] | None = None
    minimized_instrs: int | None = None

    def report(self) -> str:
        lines = [
            f"divergence: program {self.index} (seed {self.seed!r}) "
            f"on target {self.target}",
        ]
        lines += [f"  - {diff}" for diff in self.differences]
        if self.minimized_listing is not None:
            lines.append(
                f"  minimized to {self.minimized_instrs} instructions:"
            )
            for row in self.minimized_listing.splitlines():
                lines.append(f"    {row}")
            for diff in self.minimized_differences or ():
                lines.append(f"    -> {diff}")
        else:
            lines.append("  program:")
            for row in self.listing.splitlines():
                lines.append(f"    {row}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "target": self.target,
            "differences": self.differences,
            "listing": self.listing,
            "minimized_listing": self.minimized_listing,
            "minimized_differences": self.minimized_differences,
        }


@dataclass
class DiffSummary:
    """Aggregate result of a difftest run."""

    seed: str
    programs: int = 0
    executions: int = 0
    skipped: int = 0
    shrink_steps: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "programs": self.programs,
            "executions": self.executions,
            "skipped": self.skipped,
            "shrink_steps": self.shrink_steps,
            "divergence_count": len(self.divergences),
            "divergences": [d.to_dict() for d in self.divergences],
        }

    def render(self) -> str:
        verdict = "CLEAN" if self.clean else (
            f"{len(self.divergences)} DIVERGENCE(S)"
        )
        return (
            f"difftest: {self.programs} programs x "
            f"{self.executions // max(self.programs, 1)} executors "
            f"(seed {self.seed!r}, {self.skipped} skipped, "
            f"{self.shrink_steps} shrink steps) -> {verdict}"
        )


def memory_digest(memory) -> str:
    """SHA-256 over the module's writable data+heap segments."""
    digest = hashlib.sha256()
    for name in ("data", "heap"):
        digest.update(memory.segment_named(name).data)
    return digest.hexdigest()[:16]


def _interp_state(module) -> tuple[tuple, tuple]:
    regs = tuple(module.vm.state.regs[i] for i in COMPARED_INT_REGS)
    fregs = tuple(f64_to_bits(f) for f in module.vm.state.fregs)
    return regs, fregs


def _native_state(module) -> tuple[tuple, tuple]:
    machine = module.machine
    int_map = machine.spec.int_map
    fp_map = machine.spec.fp_map
    regs = tuple(machine.regs[int_map[i]] for i in COMPARED_INT_REGS)
    fregs = tuple(f64_to_bits(machine.fregs[fp_map[i]]) for i in range(16))
    return regs, fregs


def run_one(
    engine: Engine,
    program: LinkedProgram,
    executor: str,
    fuel: int = DEFAULT_FUEL,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> Outcome:
    """Run *program* on *executor* and capture its observable outcome.

    The interpreter run is the hand-written reference interpreter
    (the ``legacy`` engine), never a tier generated from the op tables;
    targets run on the engine's default tier.  Pipeline errors
    (verification, translation, linking) propagate — they indicate a
    generator or toolchain bug, not a semantic divergence.
    """
    loop = "legacy" if executor == INTERPRETER else None
    if executor != INTERPRETER:
        fuel *= TARGET_FUEL_FACTOR
    module = engine.load(program, target=executor,
                         config=RunConfig(fuel=fuel,
                                          segment_size=segment_size,
                                          engine=loop))
    try:
        code = module.run()
    except VMTrap as trap:
        return Outcome("trap", f"code={trap.code}")
    except AccessViolation as violation:
        return Outcome(
            "violation", f"{violation.kind}@{violation.address:#010x}"
        )
    except SandboxViolation as violation:
        return Outcome("sandbox", str(violation))
    except VMRuntimeError as error:
        return Outcome("vmerror", str(error))
    except FuelExhausted:
        return Outcome("fuel")
    if executor == INTERPRETER:
        regs, fregs = _interp_state(module)
    else:
        regs, fregs = _native_state(module)
    return Outcome("exit", exit_code=code, regs=regs, fregs=fregs,
                   digest=memory_digest(module.memory))


def compare_outcomes(reference: Outcome, observed: Outcome) -> list[str]:
    """Field-level differences of *observed* against *reference*."""
    if reference.kind != observed.kind or (
        reference.kind != "exit" and reference.detail != observed.detail
    ):
        return [
            f"outcome: interpreter {reference.describe()} vs "
            f"target {observed.describe()}"
        ]
    if reference.kind != "exit":
        return []
    diffs: list[str] = []
    if reference.exit_code != observed.exit_code:
        diffs.append(
            f"exit code: {reference.exit_code} vs {observed.exit_code}"
        )
    for position, omni_reg in enumerate(COMPARED_INT_REGS):
        ref, got = reference.regs[position], observed.regs[position]
        if ref != got:
            diffs.append(f"int reg r{omni_reg}: {ref:#010x} vs {got:#010x}")
    for index in range(16):
        ref, got = reference.fregs[index], observed.fregs[index]
        if ref != got:
            diffs.append(f"fp reg f{index}: {ref:#018x} vs {got:#018x}")
    if reference.digest != observed.digest:
        diffs.append(
            f"memory digest: {reference.digest} vs {observed.digest}"
        )
    return diffs


def _diff_categories(diffs: list[str]) -> frozenset:
    return frozenset(diff.split(":", 1)[0] for diff in diffs)


def run_difftest(
    count: int = 500,
    seed: str | int = "difftest",
    targets: tuple[str, ...] | None = None,
    engine: Engine | None = None,
    minimize: bool = True,
    fuel: int = DEFAULT_FUEL,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    progress: Callable[[int, DiffSummary], None] | None = None,
) -> DiffSummary:
    """Generate *count* programs and cross-execute each on the
    interpreter and *targets* (default: all four architectures).

    Counters ``difftest.programs``, ``difftest.divergences`` and
    ``difftest.shrink_steps`` accumulate on the engine's metrics
    collector.
    """
    targets = tuple(targets) if targets else tuple(ARCHITECTURES)
    engine = engine or Engine(cache=False)
    generator = ProgramGenerator(seed)
    summary = DiffSummary(seed=str(seed))
    for index in range(count):
        gen = generator.program(index)
        program = gen.build()
        reference = run_one(engine, program, INTERPRETER, fuel, segment_size)
        summary.programs += 1
        summary.executions += 1
        if engine.metrics is not None:
            engine.metrics.count("difftest.programs")
        if reference.kind == "fuel":
            # The oracle itself timed out: nothing to compare against.
            summary.skipped += 1
            continue
        for target in targets:
            observed = run_one(engine, program, target, fuel, segment_size)
            summary.executions += 1
            diffs = compare_outcomes(reference, observed)
            if not diffs:
                continue
            divergence = Divergence(
                index=index, seed=str(seed), target=target,
                differences=diffs, listing=gen.listing(),
            )
            if engine.metrics is not None:
                engine.metrics.count("difftest.divergences")
            if minimize:
                _minimize_divergence(
                    divergence, gen, engine, target, diffs,
                    fuel, segment_size, summary,
                )
            summary.divergences.append(divergence)
        if progress is not None:
            progress(index, summary)
    return summary


def _minimize_divergence(
    divergence: Divergence,
    gen: GenProgram,
    engine: Engine,
    target: str,
    original_diffs: list[str],
    fuel: int,
    segment_size: int,
    summary: DiffSummary,
) -> None:
    """Shrink *gen* while it still shows the same class of divergence."""
    from repro.errors import ReproError

    wanted = _diff_categories(original_diffs)
    steps = [0]

    def still_diverges(stmts: list) -> bool:
        steps[0] += 1
        candidate = GenProgram(gen.name + "_min", list(stmts), gen.data)
        try:
            program = candidate.build()
            reference = run_one(engine, program, INTERPRETER, fuel,
                                segment_size)
            if reference.kind == "fuel":
                return False
            observed = run_one(engine, program, target, fuel, segment_size)
        except ReproError:
            return False
        diffs = compare_outcomes(reference, observed)
        # Require the same *class* of divergence so shrinking cannot
        # wander onto an unrelated (e.g. artificially truncated) repro.
        return bool(diffs) and bool(_diff_categories(diffs) & wanted)

    reduced, _ = minimize_program(gen.stmts, still_diverges)
    shrunk = GenProgram(gen.name + "_min", reduced, gen.data)
    final_program = shrunk.build()
    reference = run_one(engine, final_program, INTERPRETER, fuel,
                        segment_size)
    observed = run_one(engine, final_program, target, fuel, segment_size)
    divergence.minimized_listing = shrunk.listing()
    divergence.minimized_differences = compare_outcomes(reference, observed)
    divergence.minimized_instrs = len(shrunk.instructions())
    summary.shrink_steps += steps[0]
    if engine.metrics is not None:
        engine.metrics.count("difftest.shrink_steps", steps[0])
