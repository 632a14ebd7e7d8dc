"""Reproduction of the paper's figures.

**Figure 1** — dynamic instruction expansion during translation, for MIPS
and PowerPC, broken into the paper's categories (``addr``, ``cmp``,
``ldi``, ``bnop``, ``sfi``).  Values are extra native instructions
executed per OmniVM instruction executed (the interpreter run provides
the denominator), rendered as a text bar chart.

**Figure 2** — the "universal substrate" diagram: many source languages
compile to one mobile format that runs on many targets.  Reproduced
executably by :func:`figure2_demo`: a MiniC module and a MiniLisp module
are linked into one mobile program and executed on the reference VM and
all four translated targets, asserting identical output everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.evalharness.runner import RunKey, Runner, global_runner
from repro.workloads.suite import WORKLOAD_NAMES

FIG1_CATEGORIES = ("addr", "cmp", "ldi", "bnop", "sfi")
FIG1_ARCHS = ("mips", "ppc")


@dataclass
class Figure1Result:
    """expansion[arch][workload][category] = extra instructions per
    OmniVM instruction executed."""

    expansion: dict[str, dict[str, dict[str, float]]] = field(
        default_factory=dict
    )

    def total(self, arch: str, workload: str) -> float:
        return sum(self.expansion[arch][workload].values())

    def render(self) -> str:
        lines = ["Figure 1: dynamic expansion per OmniVM instruction", ""]
        for arch in self.expansion:
            lines.append(f"  {arch}:")
            for workload, cats in self.expansion[arch].items():
                lines.append(f"    {workload:<10}"
                             + "  ".join(f"{c}={cats[c]:.3f}"
                                         for c in FIG1_CATEGORIES))
                bar = ""
                for cat in FIG1_CATEGORIES:
                    bar += {"addr": "a", "cmp": "c", "ldi": "l",
                            "bnop": "n", "sfi": "s"}[cat] * int(
                                round(cats[cat] * 40))
                lines.append(f"    {'':<10}|{bar}")
        lines.append("")
        lines.append("legend: a=addr c=cmp l=ldi n=bnop s=sfi "
                     "(each char = 0.025 extra instructions)")
        return "\n".join(lines)


def figure1(runner: Runner | None = None,
            archs: tuple[str, ...] = FIG1_ARCHS) -> Figure1Result:
    runner = runner or global_runner()
    result = Figure1Result()
    for arch in archs:
        result.expansion[arch] = {}
        for workload in WORKLOAD_NAMES:
            run = runner.run(RunKey(workload, arch, "mobile-sfi"))
            omni = run.omni_instret
            result.expansion[arch][workload] = {
                cat: run.categories.get(cat, 0) / omni
                for cat in FIG1_CATEGORIES
            }
    return result


# ---------------------------------------------------------------------------
# Figure 2: the universality demo
# ---------------------------------------------------------------------------

_MINIC_PART = r"""
extern int lisp_entry(int n);

int c_square(int x) { return x * x; }

int main() {
    /* A C module calling into a module compiled from a different
       language, both shipped as one OmniVM mobile program. */
    emit_int(c_square(7));
    emit_int(lisp_entry(8));
    return 0;
}
"""

_MINILISP_PART = "(defun lisp_entry (n) (if (< n 2) 1 (* n (lisp_entry (- n 1)))))"


def figure2_program():
    """The MiniC + MiniLisp demo, compiled and linked into one mobile
    module."""
    from repro.compiler import CompileOptions, compile_to_object
    from repro.lang2.compiler import compile_minilisp
    from repro.omnivm.linker import link

    c_obj = compile_to_object(_MINIC_PART, CompileOptions(module_name="cpart"))
    lisp_obj = compile_minilisp(_MINILISP_PART, module_name="lisppart")
    return link([c_obj, lisp_obj], name="fig2")


def figure2_demo() -> dict[str, list[object]]:
    """Compile MiniC + MiniLisp into one mobile module, run it on the
    reference VM and all four targets; returns outputs per engine."""
    from repro.runtime.loader import run_module
    from repro.runtime.native_loader import run_on_target
    from repro.native.profiles import MOBILE_SFI

    program = figure2_program()
    outputs: dict[str, list[object]] = {}
    _code, host = run_module(program)
    outputs["omnivm"] = host.output_values()
    for arch in ("mips", "sparc", "ppc", "x86"):
        _code, module = run_on_target(program, arch, MOBILE_SFI)
        outputs[arch] = module.host.output_values()
    return outputs
