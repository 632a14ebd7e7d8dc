"""The linkers' output is pinned: static links and dynamic images stay
byte-identical.

``link_images.json`` holds a fingerprint of every link below: sha256 of
the text and data images, the symbol table and function ranges in
their insertion order, and the entry address.  A dynamically linked
image also pins its export addresses, lineage and digest, and per
module its placement, exports, imports, trampolines and translation
unit (the unit's own fingerprint, its cache digest, base index and
foreign control targets).  Each dynamic case is linked twice on one
registry, and both images must match the pin: the second link splices
the units the first one memoized.  A linker change that is meant to be
a pure refactor must leave every one of them unchanged; one that
changes a link on purpose regenerates the file (``python
tests/test_link_images.py``) and says why.  The type and message of
each faulty link's error are pinned the same way.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cache import program_digest
from repro.compiler import CompileOptions, compile_to_object
from repro.evalharness.figures import figure2_program
from repro.omnivm.asmparser import assemble
from repro.omnivm.linker import link
from repro.omnivm.objfile import DataReloc
from repro.runtime.linker import ModuleRegistry, dynamic_link
from repro.sfi.policy import DEFAULT_POLICY, PADDED_POLICY
from repro.workloads import suite

PATH = Path(__file__).with_name("link_images.json")

# -- static links -------------------------------------------------------------

#: Two MiniC objects that reference each other's functions and data:
#: local labels (loops), data relocations in both directions and a
#: function pointer held in data.
PAIR_MAIN = """
extern int weights[4];
extern int bias;
extern int dot(int *v, int n);
int samples[4] = {3, 1, 4, 1};
int *cursor = samples;
int twice(int x) { return x + x; }
int (*op)(int) = twice;
int main() {
    int i; int s = 0;
    for (i = 0; i < 4; i = i + 1) { s = s + samples[i] * weights[i]; }
    emit_int(s + bias + dot(cursor, 4) + op(5));
    return 0;
}
"""

PAIR_LIB = """
extern int samples[4];
int weights[4] = {2, 7, 1, 8};
int bias = 11;
int *wp = weights;
int *sp = samples;
int dot(int *v, int n) {
    int i; int s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + v[i] * wp[i] + sp[i]; }
    return s;
}
"""

#: Two assembled objects defining the same local label, plus bss.
ASM_MAIN = """
    .text
    .globl main
main:
    addi r15, r15, -8
    sw ra, r15, 0
    li r1, 3
    jal count
local:
    li r2, @buf
    sw r1, r2, 4
    lw ra, r15, 0
    addi r15, r15, 8
    jr ra
"""

ASM_COUNT = """
    .text
    .globl count
count:
local:
    addi r1, r1, -1
    bne r1, r0, local
    jr ra
"""


def _pair():
    main = compile_to_object(PAIR_MAIN, CompileOptions(module_name="main"))
    lib = compile_to_object(PAIR_LIB, CompileOptions(module_name="lib"))
    return main, lib


def _asm_pair():
    main = assemble(ASM_MAIN, "asm_main")
    main.bss_size = 16
    main.define("buf", "bss", 0, is_global=False)
    return main, assemble(ASM_COUNT, "asm_count")


def static_links():
    links = {f"static/{name}": (lambda name=name: suite.build(name))
             for name in suite.WORKLOADS}
    links["static/minic-pair"] = lambda: link(list(_pair()), name="pair")
    links["static/minic-pair-swapped"] = lambda: link(
        list(reversed(_pair())), name="pair")
    links["static/asm-locals"] = lambda: link(list(_asm_pair()))
    links["static/minilisp-demo"] = figure2_program
    return links


# -- dynamic links ------------------------------------------------------------

LIBMATH = """
int scale(int x) { return x * 3; }
int offset(int x) { return x + 1; }
"""

LIBCOMPOSE = """
extern int scale(int x);
extern int offset(int x);
int compose(int x) { return scale(offset(x)); }
"""

APP = """
extern int scale(int x);
extern int compose(int x);
int main() {
    emit_int(scale(10));
    emit_int(compose(6));
    return 0;
}
"""

TOOLS = """
extern int offset(int x);
int bump(int x) {
    int i; for (i = 0; i < 3; i = i + 1) x = offset(x); return x;
}
"""

SOLO = """
extern int scale(int x);
int main() { emit_int(scale(7)); return 0; }
"""

TABLES = """
int table[4] = {1, 2, 3, 4};
int counter = 7;
int *first = table;
"""

READER = """
extern int table[4];
extern int counter;
int main() { emit_int(table[2] + counter); return 0; }
"""

POINTERS = """
extern int table[4];
extern int counter;
extern int *first;
extern int scale(int x);
int *p = &counter;
int (*f)(int) = scale;
int apply(int (*g)(int), int x) { return g(x); }
int main() {
    emit_int(table[2] + *p + *first + f(2) + apply(scale, 3));
    return 0;
}
"""

ASM_LIB = """
    .text
    .globl spin
spin:
local:
    addi r1, r1, -1
    bne r1, r0, local
    jr ra
"""

ASM_APP = """
    .text
    .globl main
main:
    addi r15, r15, -8
    sw ra, r15, 0
    li r1, 4
    jal spin
local:
    lw ra, r15, 0
    addi r15, r15, 8
    jr ra
"""


def _minic(name, source):
    return name, compile_to_object(source, CompileOptions(module_name=name))


def _asm(name, source):
    obj = assemble(source, name)
    obj.declare_imports()
    return name, obj


def _registry(modules, roots, policies=None):
    registry = ModuleRegistry()
    for name, obj in modules:
        registry.register(name, obj,
                          (policies or {}).get(name, DEFAULT_POLICY))
    return registry, roots


def _image(modules, roots, policies=None):
    return dynamic_link(*_registry(modules, roots, policies))


def dynamic_registries():
    """Each dynamic case as a fresh registry and its link roots."""
    libmath = lambda: _minic("libmath", LIBMATH)
    tables = lambda: _minic("tables", TABLES)
    three = lambda: (libmath(), _minic("libcompose", LIBCOMPOSE),
                     _minic("app", APP))
    return {
        "dynamic/three-module": lambda: _registry(three(), ["app"]),
        "dynamic/two-roots": lambda: _registry(
            three() + (_minic("tools", TOOLS),), ["app", "tools"]),
        "dynamic/padded-library": lambda: _registry(
            (libmath(), _minic("solo", SOLO)), ["solo"],
            policies={"libmath": PADDED_POLICY}),
        "dynamic/data-only": lambda: _registry(
            (tables(), _minic("reader", READER)), ["reader"]),
        "dynamic/data-and-pointers": lambda: _registry(
            (libmath(), tables(), _minic("pointers", POINTERS)),
            ["pointers"]),
        "dynamic/asm-locals": lambda: _registry(
            (_asm("asm_lib", ASM_LIB), _asm("asm_app", ASM_APP)),
            ["asm_app"]),
    }


def dynamic_links():
    return {key: (lambda build=build: dynamic_link(*build()))
            for key, build in dynamic_registries().items()}


# -- link errors --------------------------------------------------------------


def _object(name, *symbols):
    """A two-instruction object defining *symbols*, each a (name,
    section, offset, is_global) tuple."""
    obj = assemble(".text\n jr ra\n jr ra", name)
    for symbol in symbols:
        obj.define(*symbol)
    return obj


def _data_reloc_object():
    obj = assemble(".text\n.globl main\nmain:\n jr ra\n.data\n"
                   ".globl p\np:\n .word 0", "reloc")
    obj.data_relocs.append(DataReloc(0, "nowhere"))
    return obj


def _one_module(obj):
    registry = ModuleRegistry()
    registry.register(obj.name, obj)
    return lambda: dynamic_link(registry, [obj.name])


F = ("f", "text", 0, True)
F_AGAIN = ("f", "text", 8, True)
LOCAL = ("x", "text", 0, False)
LOCAL_AGAIN = ("x", "text", 8, False)
MISALIGNED = ("f", "text", 4, True)
BAD_SECTION = ("f", "rodata", 0, True)


def failing_links():
    """Faulty links whose error type and message are pinned (the one
    naming-rule change, a name defined both locally and globally in one
    object, is tested in ``test_linker.py``)."""
    caller = ".text\n.globl main\nmain:\n jal missing\n jr ra"
    return {
        "error/static-undefined-text": lambda: link(
            [assemble(caller, "caller")]),
        "error/static-undefined-data": lambda: link([_data_reloc_object()]),
        "error/static-misaligned": lambda: link([_object("m", MISALIGNED)]),
        "error/static-bad-section": lambda: link(
            [_object("b", BAD_SECTION)]),
        "error/static-duplicate-across": lambda: link(
            [_object("a", F), _object("b", F)]),
        "error/static-duplicate-global": lambda: link(
            [_object("g", F, F_AGAIN)]),
        "error/static-duplicate-local": lambda: link(
            [_object("l", LOCAL, LOCAL_AGAIN)]),
        "error/dynamic-duplicate-global": _one_module(
            _object("dupg", F, F_AGAIN)),
        "error/dynamic-duplicate-local": _one_module(
            _object("dupl", LOCAL, LOCAL_AGAIN)),
        "error/dynamic-misaligned": _one_module(_object("mis", MISALIGNED)),
        "error/dynamic-bad-section": _one_module(
            _object("bad", BAD_SECTION)),
        "error/dynamic-unresolved": lambda: _image(
            (_asm("caller", caller),), ["caller"]),
        "error/dynamic-no-entry": _one_module(_object("noentry", F)),
    }


def error_print(build) -> list[str]:
    try:
        build()
    except Exception as err:  # the pin is the type and message
        return [type(err).__name__, str(err)]
    return ["no error", ""]


# -- fingerprints -------------------------------------------------------------


def _sha(blob) -> str:
    return hashlib.sha256(bytes(blob)).hexdigest()


def program_print(program) -> dict:
    return {
        "name": program.name,
        "text": _sha(program.text_image),
        "data": _sha(program.data_image),
        "symbols": [[name, address]
                    for name, address in program.symbols.items()],
        "function_ranges": [[name, lo, hi] for name, (lo, hi)
                            in program.function_ranges.items()],
        "entry": program.entry_address,
    }


def layout_print(layout) -> dict:
    unit = layout.subprogram
    return {
        "name": layout.name,
        "epoch": layout.epoch,
        "digest": layout.digest,
        "policy": repr(layout.policy),
        "base_index": layout.base_index,
        "text_len": layout.text_len,
        "tramp_len": layout.tramp_len,
        "data_base": layout.data_base,
        "data_len": layout.data_len,
        "exports": [[s, a] for s, a in layout.exports.items()],
        "imports": [[s, p] for s, p in layout.imports.items()],
        "trampolines": [[s, a] for s, a in layout.trampolines.items()],
        "unit": None if unit is None else {
            **program_print(unit),
            "program_digest": program_digest(unit),
            "base_index": unit.base_index,
            "extern_addrs": sorted(unit.extern_addrs),
        },
    }


def image_print(image) -> dict:
    return {
        **program_print(image),
        "code_export_addrs": sorted(image.code_export_addrs),
        "lineage": [list(pair) for pair in image.lineage],
        "digest_hint": image.digest_hint,
        "modules": [layout_print(layout) for layout in image.modules],
    }


def current() -> dict[str, dict]:
    prints = {key: program_print(build())
              for key, build in static_links().items()}
    prints.update({key: image_print(build())
                   for key, build in dynamic_links().items()})
    prints.update({key: error_print(build)
                   for key, build in failing_links().items()})
    return prints


PINNED = json.loads(PATH.read_text()) if PATH.exists() else {}


@pytest.mark.parametrize("key", list(static_links()))
def test_static_link(key):
    assert program_print(static_links()[key]()) == PINNED[key]


@pytest.mark.parametrize("key", list(dynamic_links()))
def test_dynamic_link(key):
    # The second link on the same registry splices the units the first
    # one memoized, and must give the same image.
    registry, roots = dynamic_registries()[key]()
    for image in (dynamic_link(registry, roots),
                  dynamic_link(registry, roots)):
        assert image_print(image) == PINNED[key]
        # Each unit's pinned digest is the digest of its content, not
        # a stale hint.
        for layout in image.modules:
            if layout.subprogram is not None:
                assert layout.subprogram.digest_hint == program_digest(
                    dataclasses.replace(layout.subprogram))


@pytest.mark.parametrize("key", list(failing_links()))
def test_link_error(key):
    assert error_print(failing_links()[key]) == PINNED[key]


def test_every_pinned_link_is_checked():
    assert set(PINNED) == (set(static_links()) | set(dynamic_links())
                           | set(failing_links()))


if __name__ == "__main__":
    PATH.write_text(json.dumps(current(), indent=1) + "\n")
