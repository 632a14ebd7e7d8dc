"""MiniC compile speed: ``Engine.compile`` from source text to a linked
mobile module (lex, parse, sema, IR build, optimize, codegen, link) — the
cost a cold request pays before load time.  The SPEC kernels measure the
usual case; one 400-statement function measures growth, which the
optimizer once made superlinear."""

import pytest

from repro import Engine
from repro.compiler import CompileOptions
from repro.workloads import suite

CYCLE = ["a = (a * k + b) & 65535;", "if (a & m) b = b ^ k;",
         "c = c + a * k - b;", "for (i = 0; i < 3; i++) c = c + a * k;"]


def one_function(statements: int) -> str:
    body = "\n  ".join(CYCLE[s % 4] for s in range(statements))
    return ("int f(int k, int m) {\n  int a = 1; int b = 2; int c = 3; int i;\n  "
            + body + "\n  return a + b + c;\n}\n"
            "int main() { emit_int(f(3, 5)); return 0; }\n")


@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def bench_compile_spec(benchmark, name):
    source = suite.WORKLOADS[name].source
    options = CompileOptions(opt_level=2, module_name=name)
    program = benchmark(lambda: Engine().compile(source, options))
    benchmark.extra_info["source_bytes"] = len(source)
    benchmark.extra_info["omni_instrs"] = len(program.instrs)


def bench_compile_one_function(benchmark):
    source = one_function(400)
    program = benchmark(lambda: Engine().compile(source))
    benchmark.extra_info["source_bytes"] = len(source)
    benchmark.extra_info["omni_instrs"] = len(program.instrs)
