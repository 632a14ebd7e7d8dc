"""Human-readable IR dumps (debugging aid and golden-test substrate)."""

from __future__ import annotations

from repro.ir.ir import Function, Module


def function_to_text(func: Function) -> str:
    """Render one function; stable across runs for use in tests."""
    return str(func)


def summarize(module: Module) -> dict[str, dict[str, int]]:
    """Per-function instruction-count summary keyed by opcode, used by
    optimizer tests to assert 'pass X removed all the Y instructions'."""
    summary: dict[str, dict[str, int]] = {}
    for func in module.functions:
        counts: dict[str, int] = {}
        for block in func.blocks:
            for instr in block.all_instrs():
                key = f"{instr.op}.{instr.subop}" if instr.subop else instr.op
                counts[key] = counts.get(key, 0) + 1
        summary[func.name] = counts
    return summary
