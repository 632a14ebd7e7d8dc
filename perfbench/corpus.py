"""Seeded inputs for the whole-request benchmark, each with its oracle.

Every job the benchmark submits carries the output the program must
produce, computed independently of the system under test:

* the four SPEC92 analogues are checked with
  :func:`repro.workloads.suite.check_output` (hand-written Python
  oracles);
* generated MiniC programs carry an expectation computed by a Python
  mirror of the template they were cut from;
* linked programs against the hosted library carry values fixed here.

A seed selects constants, sizes, executors and the request order; the
programs under test receive only the generated text.  Draws are
stratified (every pair once per cycle or round, sizes from a fixed
ladder, interchangeable hosted modules) so that aggregate counts such
as simulated cycles, and the caches' reuse patterns, stay comparable
from one seed to the next.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from repro.compiler import CompileOptions
from repro.workloads import suite

#: Every executor a request may name: the reference interpreter and the
#: four load-time translation targets.
EXECUTORS = ("omnivm", "mips", "sparc", "ppc", "x86")
NATIVE = EXECUTORS[1:]


@dataclass(frozen=True)
class Job:
    """One request: what to run, where, and what it must print (every
    program exits with code 0)."""

    key: str                      # stable identity, e.g. "li/mips"
    target: str                   # an entry of EXECUTORS
    expected: tuple               # emitted values, in order
    source: str | None = None     # MiniC text (compiled per request)
    program: object = None        # a pre-linked LinkedProgram
    modules: tuple | None = None  # link roots for a modules= request
    text: str | None = None       # hosted: the response's output text


# -- warm_spec ----------------------------------------------------------------


def spec_program(engine, name: str):
    """Compile one SPEC92 analogue exactly as ``suite.build`` does, but
    through the engine's public ``compile`` so set-up pays for it."""
    options = CompileOptions(opt_level=2, num_regs=16, module_name=name)
    return engine.compile(suite.WORKLOADS[name].source, options)


def spec_jobs(programs: dict) -> list[Job]:
    """All 20 (kernel, executor) pairs of the warm SPEC mix."""
    return [
        Job(key=f"{name}/{target}", target=target, program=program,
            expected=suite.WORKLOADS[name].expected)
        for name, program in programs.items()
        for target in EXECUTORS
    ]


def cycled(items: list, rng: random.Random):
    """Endless request order: one seeded permutation of *items*, repeated.
    Every item recurs exactly len(items) requests after its last use, so
    caches see the same reuse pattern whatever the seed."""
    order = list(items)
    rng.shuffle(order)
    return itertools.cycle(order)


# -- cold_modules: generated MiniC programs with Python oracles ---------------
#
# Each template takes an rng and a helper-function count; the count sets
# the program's size (about 50 to 800 OmniVM instructions) and, with loop
# trip counts fixed, how long it runs; the rng picks its constants, so
# every program is new content.  Every template returns (source,
# expected values).


def _intloop(rng: random.Random, helpers: int, tag: int):
    funcs, calls, expected = [], [], []
    for h in range(helpers):
        mul = rng.randrange(3, 4000)
        add = rng.randrange(1, 9000)
        trips = 40
        funcs.append(f"""
int f{h}(int x) {{
    int a; int k;
    a = x;
    for (k = 0; k < {trips}; k++) {{
        a = (a * {mul} + {add}) & 65535;
        if (a & 1) a = a ^ {tag & 4095};
    }}
    return a;
}}""")
        arg = rng.randrange(1, 30000)
        calls.append(f"    emit_int(f{h}({arg}));")
        a = arg
        for _ in range(trips):
            a = (a * mul + add) & 65535
            if a & 1:
                a ^= tag & 4095
        expected.append(a)
    source = "\n".join(funcs) + "\nint main() {\n" + "\n".join(calls) + \
        "\n    return 0;\n}\n"
    return source, expected


def _arrays(rng: random.Random, helpers: int, tag: int):
    size = 24
    funcs, calls, expected = [], [], []
    seed_value = tag % 1000
    values = [(seed_value * 31 + i * 17) % 1000 for i in range(size)]
    for h in range(helpers):
        step = rng.randrange(1, 50)
        op = h % 3
        if op == 0:     # scaled prefix sums
            body = f"""
    int i;
    for (i = 1; i < {size}; i++) buf[i] = (buf[i] + buf[i - 1] * {step}) % 10007;
    return buf[{size - 1}];"""
            for i in range(1, size):
                values[i] = (values[i] + values[i - 1] * step) % 10007
            result = values[size - 1]
        elif op == 1:   # one bubble-sort sweep per element
            body = f"""
    int i; int j; int t;
    for (i = 0; i < {size}; i++)
        for (j = 0; j + 1 < {size} - i; j++)
            if (buf[j] > buf[j + 1]) {{ t = buf[j]; buf[j] = buf[j + 1]; buf[j + 1] = t; }}
    return buf[0] + buf[{size - 1}] * {step};"""
            values.sort()
            result = values[0] + values[size - 1] * step
        else:           # reverse and fold
            body = f"""
    int i; int t; int s;
    for (i = 0; i < {size} / 2; i++) {{ t = buf[i]; buf[i] = buf[{size - 1} - i]; buf[{size - 1} - i] = t; }}
    s = 0;
    for (i = 0; i < {size}; i++) s = (s * {step} + buf[i]) % 65521;
    return s;"""
            values.reverse()
            s = 0
            for v in values:
                s = (s * step + v) % 65521
            result = s
        funcs.append(f"int f{h}(void) {{{body}\n}}")
        calls.append(f"    emit_int(f{h}());")
        expected.append(result)
    source = (
        f"int buf[{size}];\n" + "\n".join(funcs)
        + "\nint main() {\n    int i;\n"
        + f"    for (i = 0; i < {size}; i++) buf[i] = ({seed_value} * 31 + i * 17)"
        + " % 1000;\n" + "\n".join(calls) + "\n    return 0;\n}\n"
    )
    return source, expected


def _fp(rng: random.Random, helpers: int, tag: int):
    funcs, calls, expected = [], [], []
    for h in range(helpers):
        # Multiples of 1/8 print and parse exactly, and the template only
        # uses IEEE +, -, *, / in source order, so Python's doubles are a
        # bit-exact oracle.
        c1 = rng.randrange(1, 16) / 8.0
        c2 = rng.randrange(1, 64) / 8.0
        trips = 25
        funcs.append(f"""
double g{h}(double x) {{
    double acc; int k;
    acc = {c2!r};
    for (k = 0; k < {trips}; k++) {{
        acc = acc * {c1!r} + x;
        if (acc > 1000.0) acc = acc / 7.0 - {c2!r};
    }}
    return acc;
}}""")
        x = (tag % 97) / 8.0 + h
        calls.append(f"    emit_double(g{h}({x!r}));")
        acc = c2
        for _ in range(trips):
            acc = acc * c1 + x
            if acc > 1000.0:
                acc = acc / 7.0 - c2
        expected.append(acc)
    source = "\n".join(funcs) + "\nint main() {\n" + "\n".join(calls) + \
        "\n    return 0;\n}\n"
    return source, expected


def _calls(rng: random.Random, helpers: int, tag: int):
    depth = 10
    base = tag % 3
    funcs = [f"""
int fib(int n) {{
    if (n < 2) return n + {base};
    return fib(n - 1) + fib(n - 2);
}}"""]
    calls = [f"    emit_int(fib({depth}));"]

    def fib(n: int) -> int:
        return n + base if n < 2 else fib(n - 1) + fib(n - 2)

    expected = [fib(depth)]
    consts = []
    for h in range(helpers):
        mul = rng.randrange(2, 9)
        add = rng.randrange(1, 100)
        inner = f"h{h - 1}(x + {h})" if h else "x"
        funcs.append(f"""
int h{h}(int x) {{
    return ({inner} * {mul} + {add}) % 30011;
}}""")
        consts.append((mul, add))

    def chain(h: int, x: int) -> int:
        mul, add = consts[h]
        inner = chain(h - 1, x + h) if h else x
        return (inner * mul + add) % 30011

    for _ in range(3):
        arg = rng.randrange(1, 1000)
        calls.append(f"    emit_int(h{helpers - 1}({arg}));")
        expected.append(chain(helpers - 1, arg))
    source = "\n".join(funcs) + "\nint main() {\n" + "\n".join(calls) + \
        "\n    return 0;\n}\n"
    return source, expected


#: name -> (generator, helper-count range).  The ranges put programs at
#: roughly 50 to 800 OmniVM instructions.
TEMPLATES = {
    "intloop": (_intloop, (1, 28)),
    "arrays": (_arrays, (1, 16)),
    "fp": (_fp, (1, 19)),
    "calls": (_calls, (1, 56)),
}


def _ladder(lo: int, hi: int, steps: int) -> list[int]:
    return [lo + (hi - lo) * step // (steps - 1) for step in range(steps)]


def cold_jobs(seed: int):
    """Endless never-repeating generated programs.  Each round covers
    every template x executor pair once in a seeded order.  Within a
    round each template's native requests take the sizes of a fixed
    ladder, in seeded order, so every round translates and runs about
    the same amount of code; constants are seeded per program."""
    rng = random.Random(f"cold|{seed}")
    index = 0
    while True:
        round_jobs = []
        for template, (generate, (lo, hi)) in TEMPLATES.items():
            sizes = _ladder(lo, hi, len(NATIVE))
            rng.shuffle(sizes)
            sizes.insert(0, (lo + hi) // 2)  # the interpreter's
            round_jobs += [(template, generate, target, helpers)
                           for target, helpers in zip(EXECUTORS, sizes)]
        rng.shuffle(round_jobs)
        for template, generate, target, helpers in round_jobs:
            tag = (seed * 100_003 + index) % 1_000_000_007
            source, expected = generate(rng, helpers, tag)
            # A leading emit of the tag makes every program distinct
            # content, whatever the draws, so no request is a cache hit.
            source = source.replace(
                "int main() {\n", f"int main() {{\n    emit_int({tag});\n", 1)
            yield Job(key=f"{template}-{tag}/{target}", target=target,
                      source=source, expected=(tag, *expected))
            index += 1


# -- hosted_mix ---------------------------------------------------------------

#: Hosted working set: small modules x native targets = 96 pairs, 1.5x
#: the default 64-entry translation cache.
HOSTED_MODULES = 24
LIBRARY = "libhosted"
LIBRARY_FUNCTIONS = 12
APPS = 8


def _one_per_line(values) -> tuple[tuple, str]:
    """Hosted programs print each value on a line of its own (emit_int,
    then emit_char(10)), so a response whose text splits or joins values
    differently cannot match.  Returns the emitted values and that text."""
    emitted = tuple(itertools.chain.from_iterable((v, 10) for v in values))
    return emitted, "".join(f"{v}\n" for v in values)


def _library_source() -> str:
    return "\n".join(f"""
int lib_f{k}(int x) {{
    int a; int b;
    a = x * {k + 3};
    b = a + {k + 1};
    a = b * 3 - x;
    b = a - b + {k};
    if (b > a) {{ a = a + b; }} else {{ a = a - b; }}
    return a + x;
}}""" for k in range(LIBRARY_FUNCTIONS))


def _library_value(k: int, x: int) -> int:
    a = x * (k + 3)
    b = a + k + 1
    a = b * 3 - x
    b = a - b + k
    a = a + b if b > a else a - b
    return a + x


def _app(index: int) -> tuple[str, tuple]:
    """Application *index*: three imported library calls, with the two
    values it must print."""
    a, b, c = (index % LIBRARY_FUNCTIONS, (index * 7 + 1) % LIBRARY_FUNCTIONS,
               (index * 5 + 2) % LIBRARY_FUNCTIONS)
    source = f"""
extern int lib_f{a}(int x);
extern int lib_f{b}(int x);
extern int lib_f{c}(int x);
int main() {{
    emit_int(lib_f{a}({index + 1}));
    emit_char(10);
    emit_int(lib_f{b}({index + 2}) + lib_f{c}({index + 3}));
    emit_char(10);
    return 0;
}}"""
    return source, (_library_value(a, index + 1),
                    _library_value(b, index + 2)
                    + _library_value(c, index + 3))


def _hosted_module(rng: random.Random) -> tuple[str, tuple]:
    """A small module: two 32-trip loops with no data-dependent branch,
    so every module takes the same path through the JIT and costs the
    same; only the constants (and so the output) differ."""
    funcs, calls, expected = [], [], []
    for h in range(2):
        mul = rng.randrange(3, 4000)
        add = rng.randrange(1, 9000)
        arg = rng.randrange(1, 30000)
        funcs.append(f"""
int f{h}(int x) {{
    int a; int k;
    a = x;
    for (k = 0; k < 32; k++) a = (a * {mul} + {add}) & 65535;
    return a;
}}""")
        calls.append(f"    emit_int(f{h}({arg}));\n    emit_char(10);")
        a = arg
        for _ in range(32):
            a = (a * mul + add) & 65535
        expected.append(a)
    source = "\n".join(funcs) + "\nint main() {\n" + "\n".join(calls) + \
        "\n    return 0;\n}\n"
    return source, tuple(expected)


def hosted_corpus(engine, seed: int) -> tuple[list[Job], list[Job]]:
    """Pre-link the hosted modules and register the library and its
    applications.  Returns (module jobs, link jobs)."""
    rng = random.Random(f"hosted|{seed}")
    programs = []
    for m in range(HOSTED_MODULES):
        source, values = _hosted_module(rng)
        expected, text = _one_per_line(values)
        program = engine.compile(source)
        programs += [Job(key=f"mod{m}/{target}", target=target,
                         program=program, expected=expected, text=text)
                     for target in NATIVE]
    engine.register_module(LIBRARY, _library_source())
    links = []
    for index in range(APPS):
        source, values = _app(index)
        expected, text = _one_per_line(values)
        engine.register_module(f"app{index}", source)
        links += [Job(key=f"app{index}/{target}", target=target,
                      modules=(f"app{index}",), expected=expected, text=text)
                  for target in NATIVE]
    return programs, links


def hosted_stream(programs: list[Job], links: list[Job], seed: int):
    """Endless hosted request order.  Module pairs are ranked by a
    seeded shuffle of the modules (each module's four targets take four
    consecutive ranks) and drawn with Zipf weights 1/rank; every fifth
    request is a link request, cycling through the applications."""
    rng = random.Random(f"hosted-order|{seed}")
    modules = list(range(HOSTED_MODULES))
    rng.shuffle(modules)
    by_key = {job.key: job for job in programs}
    ranked = [by_key[f"mod{m}/{target}"] for m in modules for target in NATIVE]
    weights = [1.0 / rank for rank in range(1, len(ranked) + 1)]
    link_order = cycled(links, rng)
    for index in itertools.count():
        if index % 5 == 4:
            yield next(link_order)
        else:
            yield rng.choices(ranked, weights)[0]
