"""Sandbox-escape mutation fuzzing of the SFI verifier.

The verifier is the trusted computing base of the whole system: the
translator may be arbitrarily buggy (or malicious) as long as the
verifier rejects unsafe output.  Differential testing exercises the
translator; *this* module exercises the verifier, from the adversary's
side.  It takes modules the verifier accepts, applies seeded
index-stable mutations that model realistic sandbox escapes, and
demands:

* every **unsafe** mutant — one whose mutations break the provable SFI
  invariant at some instruction — is rejected (the *kill-rate* must be
  100%); a surviving unsafe mutant is a verifier soundness hole;
* every **behavior-preserving** mutant — one that provably keeps the
  invariant — still verifies; a rejected safe mutant means the
  verifier is overtight (it would reject legal translator output).

Mutation operators (all keep instruction indices stable so branch
targets and the ``omni_to_native`` map stay valid):

=====================  ====================================================
operator               effect
=====================  ====================================================
``drop-guard``         replace one guard instruction with ``nop``
``retarget-guard``     point a mask/rebase at the wrong register/immediate
``reorder-guard``      swap a guard with its successor instruction
``widen-sp``           grow an ``addi sp`` past the small-constant bound
``redirect-sp``        turn an sp update into a register-register ``add``
``redirect-store``     move a store's base off the sandboxed register
``redirect-storex``    break the indexed store's base/index register pair
``raw-jump``           point ``jr``/``jalr`` at an unmasked register
``clobber-dedicated``  make an ALU result land in a dedicated register
``tweak-value``        flip a bit in a non-guard immediate         (safe)
``tweak-store-value``  store a different general register          (safe)
``fill-nop``           replace a scheduler nop with ``addi g,g,0`` (safe)
=====================  ====================================================

Expected classification is *not* "operator X is always unsafe": some
guard mutations are genuinely behavior-preserving (dropping the
address-forming ``mov``/``addi`` before a mask only changes *which*
in-sandbox address is stored to; dropping the mask before an indexed
store whose scratch register is still masked from the previous store
changes nothing the invariant cares about).  For guard-chain mutations
the fuzzer therefore replays the verifier's own transfer function
(:func:`repro.sfi.verifier.scratch_step`) over the mutated chain,
starting from the dataflow in-state the CFG analysis computed for the
chain on the original module, and asks whether the consumer's
requirement still holds; register-redirections and sp widenings
violate a per-instruction rule and are unconditionally unsafe.

Surviving mutants are minimized with the existing ddmin
(:func:`repro.difftest.minimize.minimize_program`) down to a minimal
still-surviving mutation subset, so a verifier hole is reported as the
smallest escape that slips through.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro import metrics
from repro.difftest.generator import ProgramGenerator
from repro.difftest.minimize import minimize_program
from repro.errors import VerifyError
from repro.native.profiles import MOBILE_SFI
from repro.sfi.policy import DEFAULT_POLICY, SandboxPolicy
from repro.sfi.verifier import (
    SCRATCH_CODE_SANDBOXED,
    SCRATCH_DATA_MASKED,
    SCRATCH_DATA_SANDBOXED,
    SfiAnalysis,
    scratch_step,
    verify_sfi,
)
from repro.translators import ARCHITECTURES, translate
from repro.translators.base import TranslatedModule

_STORE_OPS = frozenset("sb sh sw sfs sfd".split())
_STOREX_OPS = frozenset("sbx shx swx sfsx sfdx".split())
_TWEAKABLE_OPS = frozenset("li addi ori xori andi slli srli".split())

#: How far back a guard chain may stretch from its consumer (the
#: scheduler interleaves at most a handful of unrelated instructions).
_CHAIN_WINDOW = 16


@dataclass(frozen=True)
class Mutation:
    """One index-stable rewrite of a translated module."""

    kind: str
    index: int          # native instruction index rewritten (or swapped)
    expected: str       # "unsafe" | "safe"
    detail: str         # human-readable description
    #: disjointness key — two mutations of one mutant never share a
    #: site (same guard chain / same instruction), so a composite
    #: mutant's expectation is the OR of its parts
    site: int = -1
    #: operator payload (replacement register, new immediate, ...)
    arg: int = 0

    def describe(self) -> str:
        return f"{self.kind}@{self.index} ({self.detail})"


@dataclass
class MutantReport:
    """One mutant and what the verifier did with it."""

    program: int
    arch: str
    mutations: list[Mutation]
    expected: str       # "unsafe" | "safe"
    verdict: str        # "killed" | "survived" | "accepted" | "overtight"
    error: str = ""
    minimized: list[Mutation] | None = None

    def to_dict(self) -> dict:
        payload = {
            "program": self.program,
            "arch": self.arch,
            "expected": self.expected,
            "verdict": self.verdict,
            "mutations": [m.describe() for m in self.mutations],
        }
        if self.error:
            payload["error"] = self.error
        if self.minimized is not None:
            payload["minimized"] = [m.describe() for m in self.minimized]
        return payload


@dataclass
class SfiFuzzSummary:
    """Aggregate result of a mutation-fuzzing run."""

    seed: str
    programs: int
    targets: tuple[str, ...]
    modules: int = 0
    mutants: int = 0
    unsafe_total: int = 0
    unsafe_killed: int = 0
    safe_total: int = 0
    safe_accepted: int = 0
    shrink_checks: int = 0
    survivors: list[MutantReport] = field(default_factory=list)
    overtight: list[MutantReport] = field(default_factory=list)

    @property
    def kill_rate(self) -> float:
        return (self.unsafe_killed / self.unsafe_total
                if self.unsafe_total else 1.0)

    @property
    def clean(self) -> bool:
        return not self.survivors and not self.overtight

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "programs": self.programs,
            "targets": list(self.targets),
            "modules": self.modules,
            "mutants": self.mutants,
            "unsafe_total": self.unsafe_total,
            "unsafe_killed": self.unsafe_killed,
            "kill_rate": self.kill_rate,
            "safe_total": self.safe_total,
            "safe_accepted": self.safe_accepted,
            "shrink_checks": self.shrink_checks,
            "survivors": [s.to_dict() for s in self.survivors],
            "overtight": [o.to_dict() for o in self.overtight],
        }

    def render(self) -> str:
        lines = [
            f"sfi mutation fuzz: seed={self.seed!r} programs={self.programs}"
            f" targets={','.join(self.targets)}",
            f"  mutants:        {self.mutants} over {self.modules} modules",
            f"  unsafe killed:  {self.unsafe_killed}/{self.unsafe_total}"
            f"  (kill-rate {self.kill_rate * 100:.1f}%)",
            f"  safe accepted:  {self.safe_accepted}/{self.safe_total}",
        ]
        for report in self.survivors:
            muts = report.minimized or report.mutations
            lines.append(
                f"  SURVIVOR program {report.program} on {report.arch}: "
                + "; ".join(m.describe() for m in muts)
            )
        for report in self.overtight:
            lines.append(
                f"  OVERTIGHT program {report.program} on {report.arch}: "
                + "; ".join(m.describe() for m in report.mutations)
                + f" — {report.error}"
            )
        if self.clean:
            lines.append("  no survivors, no overtight rejections")
        return "\n".join(lines)


def clone_module(module: TranslatedModule) -> TranslatedModule:
    """Deep-copy the instruction stream (fresh MInstr objects with the
    scheduling caches cleared) so mutants never alias the original."""
    instrs = []
    for instr in module.instrs:
        copy = dataclasses.replace(instr)
        copy.creads = None
        copy.cwrites = None
        copy.cissue = None
        copy.cclass = ""
        instrs.append(copy)
    return TranslatedModule(
        spec=module.spec,
        options=module.options,
        instrs=instrs,
        omni_to_native=dict(module.omni_to_native),
        entry_native=module.entry_native,
    )


class SfiMutator:
    """Derives candidate mutations from one verified module and applies
    them to clones."""

    def __init__(self, module: TranslatedModule, analysis: SfiAnalysis,
                 policy: SandboxPolicy = DEFAULT_POLICY):
        self.module = module
        self.analysis = analysis
        self.policy = policy
        spec = module.spec
        self.spec = spec
        self.at = spec.reserved["at"]
        self.sp = spec.int_map[15]
        self.protected = sorted(
            reg for name, reg in spec.reserved.items()
            if reg >= 0 and name in (
                "sfi_mask", "sfi_base", "sfi_code_base", "sfi_code_mask",
                "gp",
            )
        )
        self.general = sorted(
            reg for reg in set(spec.int_map.values())
            if reg not in (self.at, self.sp) and reg not in self.protected
        )
        #: indices a mutation must never move: branch targets and legal
        #: indirect entries (moving them would change *which* code a
        #: transfer reaches, i.e. not be index-stable).
        self.pinned = set(module.omni_to_native.values())
        for instr in module.instrs:
            if instr.target >= 0:
                self.pinned.add(instr.target)
        self.pinned.add(module.entry_native)

    # -- site discovery -----------------------------------------------------

    def candidates(self) -> list[Mutation]:
        sites: list[Mutation] = []
        instrs = self.module.instrs
        for index, instr in enumerate(instrs):
            if self._is_consumer(instr):
                sites.extend(self._chain_mutations(index))
            if instr.op in _STORE_OPS and instr.rs == self.sp:
                sites.append(Mutation(
                    "widen-sp-store", index, "unsafe",
                    f"sp store offset {instr.imm} -> 40016",
                    site=index, arg=40016,
                ))
            if (instr.op == "addi" and instr.rd == self.sp
                    and instr.rs == self.sp):
                sites.append(Mutation(
                    "widen-sp", index, "unsafe",
                    f"sp update {instr.imm} -> {1 << 17}",
                    site=index, arg=1 << 17,
                ))
                if self.general:
                    sites.append(Mutation(
                        "redirect-sp", index, "unsafe",
                        f"addi sp -> add sp, sp, r{self.general[0]}",
                        site=index, arg=self.general[0],
                    ))
            sites.extend(self._plain_mutations(index, instr))
        return sites

    def _is_consumer(self, instr) -> bool:
        if instr.op in _STORE_OPS:
            return instr.rs == self.at
        if instr.op in _STOREX_OPS:
            return instr.rd == self.at
        return instr.op in ("jr", "jalr") and instr.rs == self.at

    def _chain(self, consumer: int) -> list[int]:
        """Guard instructions feeding *consumer* (same OmniVM origin,
        ``category="sfi"``, within the scheduling window)."""
        instrs = self.module.instrs
        origin = instrs[consumer].omni_addr
        return [
            j for j in range(max(0, consumer - _CHAIN_WINDOW), consumer)
            if instrs[j].category == "sfi"
            and instrs[j].omni_addr == origin
        ]

    def _chain_mutations(self, consumer: int) -> list[Mutation]:
        instrs = self.module.instrs
        out: list[Mutation] = []
        chain = self._chain(consumer)
        if not chain:
            return out
        start = chain[0]
        for j in chain:
            guard = instrs[j]
            out.append(self._classified(
                Mutation("drop-guard", j, "?", f"{guard.op} -> nop",
                         site=consumer),
                start))
            if guard.op in ("and", "or") and self.general:
                out.append(self._classified(
                    Mutation("retarget-guard", j, "?",
                             f"{guard.op} rt=r{guard.rt} -> "
                             f"r{self.general[0]}",
                             site=consumer, arg=self.general[0]),
                    start))
            elif guard.op in ("andi", "ori"):
                out.append(self._classified(
                    Mutation("retarget-guard", j, "?",
                             f"{guard.op} imm {guard.imm:#x} -> "
                             f"{guard.imm ^ 0x8:#x}",
                             site=consumer, arg=guard.imm ^ 0x8),
                    start))
            swap_ok = (
                j + 1 <= consumer
                and not instrs[j + 1].is_branch()
                and j not in self.pinned
                and j + 1 not in self.pinned
            )
            if swap_ok:
                out.append(self._classified(
                    Mutation("reorder-guard", j, "?",
                             f"swap {guard.op} with {instrs[j + 1].op}",
                             site=consumer),
                    start))
        consumer_instr = instrs[consumer]
        if consumer_instr.op in _STORE_OPS and self.general:
            out.append(Mutation(
                "redirect-store", consumer, "unsafe",
                f"store base r{consumer_instr.rs} -> r{self.general[0]}",
                site=consumer, arg=self.general[0]))
        elif consumer_instr.op in _STOREX_OPS and self.general:
            out.append(Mutation(
                "redirect-storex", consumer, "unsafe",
                f"storex base r{consumer_instr.rs} -> r{self.general[0]}",
                site=consumer, arg=self.general[0]))
        elif consumer_instr.op in ("jr", "jalr") and self.general:
            out.append(Mutation(
                "raw-jump", consumer, "unsafe",
                f"jump through r{self.general[0]} instead of sandboxed at",
                site=consumer, arg=self.general[0]))
        return out

    def _plain_mutations(self, index: int, instr) -> list[Mutation]:
        out: list[Mutation] = []
        if (instr.op in _TWEAKABLE_OPS and instr.category != "sfi"
                and instr.rd >= 0 and instr.rd != self.sp
                and instr.rd not in self.protected):
            out.append(Mutation(
                "tweak-value", index, "safe",
                f"{instr.op} imm {instr.imm} -> {instr.imm ^ 1}",
                site=index, arg=instr.imm ^ 1))
            if self.protected:
                out.append(Mutation(
                    "clobber-dedicated", index, "unsafe",
                    f"{instr.op} rd=r{instr.rd} -> dedicated "
                    f"r{self.protected[0]}",
                    site=index, arg=self.protected[0]))
        if (instr.op in _STORE_OPS or instr.op in _STOREX_OPS):
            value = [r for r in self.general if r != instr.rt]
            if value:
                out.append(Mutation(
                    "tweak-store-value", index, "safe",
                    f"store value r{instr.rt} -> r{value[0]}",
                    site=index, arg=value[0]))
        if instr.op == "nop" and self.general:
            out.append(Mutation(
                "fill-nop", index, "safe",
                f"nop -> addi r{self.general[0]}, r{self.general[0]}, 0",
                site=index, arg=self.general[0]))
        return out

    # -- expected classification -------------------------------------------

    def _classified(self, mutation: Mutation, chain_start: int) -> Mutation:
        """Decide safe/unsafe for a guard-chain mutation by replaying
        the verifier's transfer function over the mutated chain."""
        clone = clone_module(self.module)
        self.apply(clone, mutation)
        expected = ("safe" if self._chain_still_safe(clone, chain_start)
                    else "unsafe")
        return dataclasses.replace(mutation, expected=expected)

    def _chain_still_safe(self, clone: TranslatedModule,
                          start: int) -> bool:
        instrs = clone.instrs
        scratch = self.analysis.in_scratch[start]
        for index in range(start, min(len(instrs),
                                      start + 2 * _CHAIN_WINDOW)):
            instr = instrs[index]
            if self._is_consumer_requirement(instr) is not None:
                return self._requirement_holds(instr, scratch)
            scratch = scratch_step(instr, self.spec, self.policy, scratch)
        # The consumer vanished (can happen when a reorder pushed it
        # out of the window): treat as unsafe so a surviving accept
        # gets flagged rather than silently excused.
        return False

    def _is_consumer_requirement(self, instr):
        if instr.op in _STORE_OPS and instr.rs != self.sp:
            return "store"
        if instr.op in _STOREX_OPS:
            return "storex"
        if instr.op in ("jr", "jalr"):
            return "jump"
        return None

    def _requirement_holds(self, instr, scratch: int) -> bool:
        if instr.op in _STORE_OPS:
            return (instr.rs == self.at
                    and scratch == SCRATCH_DATA_SANDBOXED
                    and instr.imm == 0)
        if instr.op in _STOREX_OPS:
            return (instr.rs == self.spec.reserved.get("sfi_base")
                    and instr.rd == self.at
                    and scratch == SCRATCH_DATA_MASKED)
        return instr.rs == self.at and scratch == SCRATCH_CODE_SANDBOXED

    # -- application --------------------------------------------------------

    def apply(self, clone: TranslatedModule, mutation: Mutation) -> None:
        instr = clone.instrs[mutation.index]
        kind = mutation.kind
        if kind == "drop-guard":
            instr.op = "nop"
            instr.rd = instr.rs = instr.rt = -1
            instr.imm = 0
        elif kind == "retarget-guard":
            if instr.op in ("and", "or"):
                instr.rt = mutation.arg
            else:
                instr.imm = mutation.arg
        elif kind == "reorder-guard":
            i = mutation.index
            clone.instrs[i], clone.instrs[i + 1] = (
                clone.instrs[i + 1], clone.instrs[i])
        elif kind in ("widen-sp", "widen-sp-store", "tweak-value"):
            instr.imm = mutation.arg
        elif kind == "redirect-sp":
            instr.op = "add"
            instr.rt = mutation.arg
            instr.imm = 0
        elif kind in ("redirect-store", "redirect-storex", "raw-jump"):
            instr.rs = mutation.arg
        elif kind == "clobber-dedicated":
            instr.rd = mutation.arg
        elif kind == "tweak-store-value":
            instr.rt = mutation.arg
        elif kind == "fill-nop":
            instr.op = "addi"
            instr.rd = instr.rs = mutation.arg
            instr.rt = -1
            instr.imm = 0
        else:
            raise ValueError(f"unknown mutation kind {kind!r}")
        # The rewritten instruction must never change the CFG shape.
        assert not instr.is_branch() or kind in (
            "raw-jump", "reorder-guard",
        ), mutation


def evaluate_mutant(module: TranslatedModule, mutator: SfiMutator,
                    mutations: list[Mutation]) -> tuple[str, str]:
    """Apply *mutations* to a clone and run the verifier; returns
    (verdict, error-message)."""
    clone = clone_module(module)
    for mutation in mutations:
        mutator.apply(clone, mutation)
    expected = ("unsafe" if any(m.expected == "unsafe" for m in mutations)
                else "safe")
    try:
        verify_sfi(clone)
    except VerifyError as exc:
        return ("killed" if expected == "unsafe" else "overtight"), str(exc)
    return ("survived" if expected == "unsafe" else "accepted"), ""


def _minimize_survivor(module: TranslatedModule, mutator: SfiMutator,
                       mutations: list[Mutation],
                       ) -> tuple[list[Mutation], int]:
    """ddmin a surviving mutant down to a minimal mutation subset that
    still escapes the verifier."""
    items = [("instr", m) for m in mutations]

    def still_survives(stmts) -> bool:
        subset = [m for _tag, m in stmts]
        if not any(m.expected == "unsafe" for m in subset):
            return False
        verdict, _err = evaluate_mutant(module, mutator, subset)
        return verdict == "survived"

    minimized, checks = minimize_program(items, still_survives)
    return [m for _tag, m in minimized], checks


def run_sfi_mutation_fuzz(
    count: int = 20,
    seed: str = "sfi-mutants",
    targets: tuple[str, ...] | None = None,
    mutants_per_module: int = 6,
    max_mutations: int = 3,
    minimize: bool = True,
) -> SfiFuzzSummary:
    """Fuzz the SFI verifier with sandbox-escape mutants.

    Generates *count* seeded programs, translates each for every target
    under the SFI profile, verifies the original, then derives
    *mutants_per_module* mutants of 1..*max_mutations* site-disjoint
    mutations each and checks the verifier's verdict against the
    expected classification.  Deterministic for a given
    (seed, count, targets, mutants_per_module, max_mutations).

    Precondition: the guard *templates* must themselves be safe.  The
    fuzzer's oracle assumes unmutated translator output is correct, so
    a broken template would surface as a storm of baffling mutant
    verdicts; model-checking the templates first turns that into one
    loud failure with a concrete counterexample.  The check is
    memoized, so repeated fuzz runs pay it once."""
    from repro.sfi.modelcheck import assert_templates_safe

    targets = tuple(targets or ARCHITECTURES)
    assert_templates_safe(targets)
    summary = SfiFuzzSummary(seed=seed, programs=count, targets=targets)
    generator = ProgramGenerator(seed)
    for index in range(count):
        program = generator.program(index).build()
        for arch in targets:
            module = translate(program, arch, MOBILE_SFI)
            analysis = verify_sfi(module)  # the original must be clean
            mutator = SfiMutator(module, analysis)
            sites = mutator.candidates()
            if not sites:
                continue
            summary.modules += 1
            rng = random.Random(f"{seed}:{index}:{arch}")
            for _ in range(mutants_per_module):
                wanted = rng.randint(1, max_mutations)
                picked: list[Mutation] = []
                used_sites: set[int] = set()
                for mutation in rng.sample(sites, len(sites)):
                    if mutation.site in used_sites:
                        continue
                    picked.append(mutation)
                    used_sites.add(mutation.site)
                    if len(picked) == wanted:
                        break
                if not picked:
                    continue
                summary.mutants += 1
                expected = ("unsafe"
                            if any(m.expected == "unsafe" for m in picked)
                            else "safe")
                verdict, error = evaluate_mutant(module, mutator, picked)
                report = MutantReport(index, arch, picked, expected,
                                      verdict, error)
                if expected == "unsafe":
                    summary.unsafe_total += 1
                    if verdict == "killed":
                        summary.unsafe_killed += 1
                    else:
                        if minimize:
                            report.minimized, checks = _minimize_survivor(
                                module, mutator, picked)
                            summary.shrink_checks += checks
                        summary.survivors.append(report)
                else:
                    summary.safe_total += 1
                    if verdict == "accepted":
                        summary.safe_accepted += 1
                    else:
                        summary.overtight.append(report)
    if metrics.active():
        metrics.count("difftest.sfi.modules", summary.modules)
        metrics.count("difftest.sfi.mutants", summary.mutants)
        metrics.count("difftest.sfi.killed", summary.unsafe_killed)
        metrics.count("difftest.sfi.survivors", len(summary.survivors))
        metrics.count("difftest.sfi.accepted", summary.safe_accepted)
        metrics.count("difftest.sfi.overtight", len(summary.overtight))
        metrics.count("difftest.sfi.shrink_checks", summary.shrink_checks)
    return summary
