"""High-level compilation driver: MiniC source → OmniVM mobile module.

This is the user-facing front door of the package::

    from repro.compiler import compile_and_link
    from repro.runtime.loader import run_module

    program = compile_and_link(["int main() { emit_int(42); return 0; }"])
    code, host = run_module(program)
    assert host.output_values() == [42]

The pipeline is: lex → parse → semantic analysis → IR lowering →
machine-independent optimization (the paper's "compiler does the global
optimization before load time") → addressing-mode selection → register
allocation → OmniVM code generation → link.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import metrics
from repro.frontend.lexer import tokenize
from repro.frontend.parser import Parser
from repro.frontend.sema import SemanticAnalyzer
from repro.ir.builder import build_module
from repro.ir.ir import Module, verify_module
from repro.omnivm.codegen import generate_object
from repro.omnivm.linker import LinkedProgram, link
from repro.omnivm.objfile import ObjectModule
from repro.opt import addrfold, dce
from repro.opt.pipeline import optimize_module


@dataclass(frozen=True)
class CompileOptions:
    """Knobs for the MiniC → OmniVM pipeline."""

    opt_level: int = 2
    num_regs: int = 16  # OmniVM register file size (Table 2 sweep)
    module_name: str = "module"


def compile_to_ir(source: str, options: CompileOptions | None = None) -> Module:
    """Front half of the pipeline: source to optimized IR."""
    options = options or CompileOptions()
    with metrics.stage("frontend.lex"):
        tokens = tokenize(source, f"<{options.module_name}>")
    with metrics.stage("frontend.parse"):
        parser = Parser(tokens)
        unit = parser.parse_translation_unit()
    with metrics.stage("frontend.sema"):
        SemanticAnalyzer(parser.struct_types).analyze(unit)
    with metrics.stage("ir.build"):
        module = build_module(unit, options.module_name, parser.struct_types)
        verify_module(module)
    optimize_module(module, options.opt_level)
    # Addressing-mode selection + cleanup of folded-through adds.
    with metrics.stage("opt.addrfold"):
        for func in module.functions:
            addrfold.run(func)
            dce.run(func)
    return module


def compile_to_object(
    source: str, options: CompileOptions | None = None
) -> ObjectModule:
    """Compile one MiniC translation unit to an OmniVM object module."""
    options = options or CompileOptions()
    module = compile_to_ir(source, options)
    return generate_object(module, num_regs=options.num_regs)


def compile_and_link(
    sources: list[str],
    options: CompileOptions | None = None,
    entry_symbol: str = "main",
    extra_objects: list[ObjectModule] | None = None,
) -> LinkedProgram:
    """Compile several translation units and link them into a module."""
    options = options or CompileOptions()
    objects = []
    for index, source in enumerate(sources):
        unit_options = CompileOptions(
            options.opt_level, options.num_regs,
            f"{options.module_name}{index}" if len(sources) > 1
            else options.module_name,
        )
        objects.append(compile_to_object(source, unit_options))
    objects.extend(extra_objects or [])
    return link(objects, name=options.module_name,
                entry_symbol=entry_symbol)
