"""The op tables against the hand-written oracles, op by op.

Every entry of :data:`repro.omnivm.ops.OPS` and
:data:`repro.targets.ops.OPS` runs three ways over a grid of boundary
operands: under the reference oracle (``OmniVM.step`` /
``TargetMachine.execute``), as the closure the threaded tier generates
from it, and as the statement the JIT tier renders from it (exec'd with
the shared inline-cache memory emitter, twice, so memory ops take the
cache-miss and the cache-hit path).  Destination registers (FP by
bits), condition codes, memory bytes and write counts, branch outcomes
and the exception raised — class, message, address, and the location
the generated tiers attribute it to — must agree.

Also pinned: every opcode has exactly one statement or is a named
terminator, and the generated tiers never call back into an oracle.
"""

import ast
import inspect
import math
import struct
import textwrap

import pytest

from repro.compiler import compile_and_link
from repro.jitcore import (
    Emitter,
    base_exec_globals,
    emit_lines,
    emit_mem_access,
)
from repro.omnivm import ops as omni_ops
from repro.omnivm.interp import OmniVM
from repro.omnivm.isa import SPEC_BY_NAME, SPECS, VMInstr
from repro.omnivm.linker import LinkedProgram
from repro.omnivm.memory import PERM_READ, PERM_WRITE, Memory
from repro.omnivm.threaded import _compile_step
from repro.optable import DIV, FPDIV, FPDIV_RAISE, MEM
from repro.runtime.loader import load_for_interpretation
from repro.runtime.native_loader import load_for_target
from repro.targets import ops as native_ops
from repro.targets.base import MInstr, TargetMachine
from repro.targets.mips import spec as mips_spec
from repro.targets.threaded import _compile, _compile_native_term
from repro.translators import ARCHITECTURES

DATA, RO, SEG = 0x20000000, 0x20010000, 0x100
PC, IDX, TARGET = 0x10000040, 5, 77

INTS = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
IMMS = (0, 1, -1, 31, 32, 0x7FFF, -0x8000, 0x7FFFFFFF, -0x80000000)
IMM2S = (0, 1, -1, 0x1FFFF, -0x20000, 1 << 40, -(1 << 40))
FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310,
          1e300, -3.5e38, 1.5)
TO_INT = FLOATS + (2.5e9, -1.5, -0.5, 4294967295.5, -2147483648.9)
ADDRS = (DATA, DATA + 0x81, DATA + SEG - 2, RO + 4, 0x30000000,
         0xFFFFFFFE)
OFFSETS = (0, 4, -4)
INDEXES = (0, 4, 0xFFFFFFFC)
EXTS = INTS + (0x80, 0x7F, 0x8000, 0x1234FF80)
CC_PREDS = ("eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu")

#: Operand kinds of the native-only ops (shared ones use SPEC_BY_NAME).
NATIVE_KINDS = {
    "nor": "alu", "slt": "alu", "sltu": "alu", "cmp": "alu",
    "subcc": "alu", "slti": "alui", "sltiu": "alui", "cmpi": "alui",
    "lui": "li", "fcmp": "fcmp", "fcmps": "fcmp", "setcc": "cc",
    "bcc": "cc", "fbcc": "cc", "bltz": "branch", "blez": "branch",
    "bgtz": "branch", "bgez": "branch",
}


def fresh_memory():
    memory = Memory()
    memory.add_segment("data", DATA, SEG, PERM_READ | PERM_WRITE,
                       bytes(range(SEG)))
    memory.add_segment("ro", RO, SEG, PERM_READ, bytes(range(SEG))[::-1])
    return memory


def cases(kind, fp):
    """(int regs 1..3, fp regs 1..2, imm, imm2, cc) operand grid."""
    if kind in ("alu", "branch"):
        return [((a, b, 0), (), 0, 0, ()) for a in INTS for b in INTS]
    if kind in ("alui", "li"):
        return [((a, 0, 0), (), imm, 0, ()) for a in INTS for imm in IMMS]
    if kind == "branchi":
        return [((a, 0, 0), (), 0, imm2, ()) for a in INTS for imm2 in IMM2S]
    if kind in ("mov", "ext", "misc"):
        return [((a, 0, 0), (), 0, 0, ()) for a in EXTS]
    if kind in ("falu", "fcmp"):
        return [((0, 0, 0), (x, y), 0, 0, ()) for x in FLOATS for y in FLOATS]
    if kind == "cvt":
        return ([((a, 0, 0), (0.0, 0.0), 0, 0, ()) for a in INTS]
                + [((0, 0, 0), (x, 0.0), 0, 0, ()) for x in TO_INT])
    if kind == "cc":
        return [((0, 0, 0), (), 0, 0, (s, u)) for s in (-1, 0, 1)
                for u in (-1, 0, 1)]
    values = (1.5, 1e300, math.nan) if fp else INTS[2:]
    if kind.endswith("x"):  # indexed: base rs, index rt (loads) / rd (stores)
        return [((base, v, index) if kind.endswith("storex")
                 else (base, index, 0), (v, v) if fp else (), 0, 0, ())
                for base in ADDRS for index in INDEXES
                for v in values]
    return [((base, v, 0), (v, v) if fp else (), imm, 0, ())
            for base in ADDRS for imm in OFFSETS for v in values]


def snapshot(regs, fregs, memory, extra=()):
    data = bytes(memory.segment_named("data").data)
    return (tuple(regs[:4]),
            tuple(struct.pack("<d", f) for f in fregs[:4]),
            data, memory.write_count) + tuple(extra)


def outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # compared below, class and payload
        return None, exc


def describe(exc):
    if exc is None:
        return None
    return (type(exc).__name__, str(exc), getattr(exc, "address", None),
            getattr(exc, "kind", None))


_COMPILED = {}


def jit_statement(table, instr, annotate, loc):
    """Compile the superblock text the JIT renders for *instr*'s op into
    ``fn(regs, fregs, memory, state, m, runs)``, run *runs* times."""
    op = table.ops[instr.op]
    parts = table.render(instr)
    em = Emitter()

    def guard(exc):
        def emit(depth):
            em.emit(f"except {exc} as _e:", depth)
            em.emit(f"_e.{annotate} = {loc}", depth + 1)
            em.emit("raise", depth + 1)
        return emit

    if op.fault == MEM:
        emit_mem_access(em, op.access, parts[0], parts[1], 0,
                        guard("AccessViolation"))
    elif op.fault == DIV:
        em.emit("try:")
        emit_lines(em, parts[0], 1)
        guard("VMRuntimeError")(0)
    elif op.fault == FPDIV:
        em.emit(f"if {parts[1]}:")
        em.emit("    " + FPDIV_RAISE)
        emit_lines(em, parts[0])
    elif op.cond:
        em.emit(f"_tk = {parts[0]}")
        em.emit(f"_nt = {parts[1]}")
    else:
        emit_lines(em, parts[0])
    body = "\n".join(em.lines) or "pass"
    fn = _COMPILED.get(body)
    if fn is None:
        cells = "".join(f"    _lb{s} = _ll{s} = 0\n    _ld{s} = None\n"
                        for s in em.load_sites)
        cells += "".join(f"    _sb{s} = _sl{s} = 0\n    _sd{s} = None\n"
                         for s in em.store_sites)
        src = ("def _stmt(regs, fregs, memory, state, m, runs):\n"
               "    _ccs, _ccu = m.cc, m.cc_unsigned\n"
               "    _tk = _nt = None\n" + cells
               + "    for _run in range(runs):\n"
               + textwrap.indent(body, "        ")
               + "\n    return _tk, _nt, _ccs, _ccu\n")
        namespace = base_exec_globals()
        exec(compile(src, "<stmt>", "exec"), namespace)
        fn = _COMPILED[body] = namespace["_stmt"]
    return fn


def assert_same(name, instr, oracle, threaded, jit):
    (o_state, o_exc), (t_state, t_exc), (j_state, j_exc) = (
        oracle, threaded, jit)
    context = f"{name} {instr}"
    assert describe(t_exc) == describe(o_exc), f"threaded {context}"
    assert describe(j_exc) == describe(o_exc), f"jit {context}"
    if o_exc is None:
        assert t_state == o_state, f"threaded {context}"
        assert j_state == o_state, f"jit {context}"


def attributed(name, table, exc, annotate, loc):
    """MEM/DIV faults carry the op's location; FP divides do not."""
    fault = table.ops[name].fault
    if exc is None or fault not in (MEM, DIV, FPDIV):
        return
    expected = loc if fault in (MEM, DIV) else None
    assert getattr(exc, annotate, None) == expected, name


# ---------------------------------------------------------------------------
# OmniVM
# ---------------------------------------------------------------------------

class _NoCC:
    """Stands in for the machine a native statement reads ``cc`` from."""
    cc = cc_unsigned = 0


def run_omni(name, case):
    regs3, fregs2, imm, imm2, _ = case
    instr = VMInstr(name, rd=3, rs=1, rt=2, fd=3, fs=1, ft=2, imm=imm,
                    imm2=imm2)
    runs = 2 if omni_ops.OPS[name].fault == MEM else 1

    def machine():
        memory = fresh_memory()
        vm = OmniVM(LinkedProgram("op"), memory)
        vm.state.regs[:] = [0, *regs3] + [0] * 12
        vm.state.fregs[:] = [0.0, *(fregs2 or (0.0, 0.0))] + [0.0] * 13
        vm.state.pc = PC
        return vm

    vm = machine()

    def oracle():
        for _ in range(runs):
            vm.state.pc = PC
            vm.step(instr)
        return snapshot(vm.state.regs, vm.state.fregs, vm.memory,
                        (vm.state.pc, vm.state.handler))

    tvm = machine()

    def threaded():
        is_term, fn = _compile_step(instr, PC)
        state, regs = tvm.state, tvm.state.regs
        for _ in range(runs):
            if is_term:
                state.pc = fn(tvm, state, regs)
            else:
                state.pc = PC + 8
                if fn is not None:
                    fn(regs, state.fregs, tvm.memory)
        return snapshot(regs, state.fregs, tvm.memory,
                        (state.pc, state.handler))

    jvm = machine()

    def jit():
        fn = jit_statement(omni_ops.TABLE, instr, "fault_pc", PC)
        state = jvm.state
        taken, _, _, _ = fn(state.regs, state.fregs, jvm.memory, state,
                            _NoCC, runs)
        if taken is None:
            state.pc = PC + 8
        else:
            # The JIT folds an out-of-domain compare constant before it
            # renders the predicate.
            folded = omni_ops.fold_branch(instr)
            if folded is not None:
                taken = folded
            state.pc = (instr.imm & 0xFFFFFFFF) if taken else PC + 8
        return snapshot(state.regs, state.fregs, jvm.memory,
                        (state.pc, state.handler))

    results = outcome(oracle), outcome(threaded), outcome(jit)
    for (_, exc) in results[1:]:
        attributed(name, omni_ops.TABLE, exc, "fault_pc", PC)
    return instr, results


OMNI_SIMPLE = sorted(
    name for name in omni_ops.OPS
    if name not in ("trap", "sethnd", "nop"))


@pytest.mark.parametrize("name", OMNI_SIMPLE)
def test_omnivm_op_matches_interpreter(name):
    spec = SPEC_BY_NAME[name]
    fp = spec.kind.startswith(("fload", "fstore"))
    for case in cases(spec.kind, fp):
        case = case if not spec.is_branch else (
            case[0], case[1], TARGET * 8, case[3], case[4])
        instr, results = run_omni(name, case)
        assert_same(name, instr, *results)


@pytest.mark.parametrize("name", ["trap", "sethnd", "nop"])
def test_omnivm_misc_matches_interpreter(name):
    for imm in (0, 7, -3):
        for a in INTS:
            instr, results = run_omni(name, ((a, 0, 0), (), imm, 0, ()))
            assert_same(name, instr, *results)


# ---------------------------------------------------------------------------
# native union vocabulary
# ---------------------------------------------------------------------------

def native_kind(name):
    return NATIVE_KINDS.get(name) or SPEC_BY_NAME[name].kind


def run_native(name, case, pred=""):
    regs3, fregs2, imm, _, cc = case
    mi = MInstr(name, rd=3, rs=1, rt=2, fd=3, fs=1, ft=2, imm=imm,
                target=TARGET, pred=pred)
    runs = 2 if native_ops.OPS[name].fault == MEM else 1
    spec = mips_spec()

    def machine():
        memory = fresh_memory()
        m = TargetMachine(spec, [mi], memory, {})
        m.regs[1:4] = regs3
        m.fregs[1:3] = fregs2 or (0.0, 0.0)
        m.cc, m.cc_unsigned = cc or (0, 0)
        return m

    def state(m, taken):
        return snapshot(m.regs, m.fregs, m.memory,
                        (taken, m.cc, m.cc_unsigned, m.handler_omni))

    om = machine()

    def oracle():
        redirect = None
        for _ in range(runs):
            redirect = om.execute(mi)
        return state(om, redirect == TARGET)

    tm = machine()

    def threaded():
        op = native_ops.OPS[name]
        if op.cond or name == "trap":
            fn = _compile_native_term(mi, IDX, spec)[1]
        else:
            fn = _compile(mi, IDX)
        redirect = None
        for _ in range(runs):
            redirect = fn(tm, tm.regs, tm.fregs, tm.memory)
        return state(tm, redirect == TARGET)

    jm = machine()

    def jit():
        fn = jit_statement(native_ops.TABLE, mi, "fault_native", IDX)
        taken, untaken, ccs, ccu = fn(jm.regs, jm.fregs, jm.memory, None,
                                      jm, runs)
        if taken is not None:
            assert untaken == (not taken), name
        jm.cc, jm.cc_unsigned = ccs, ccu
        return state(jm, bool(taken))

    results = outcome(oracle), outcome(threaded), outcome(jit)
    for (_, exc) in results[1:]:
        attributed(name, native_ops.TABLE, exc, "fault_native", IDX)
    return mi, results


NATIVE_SIMPLE = sorted(
    name for name in native_ops.OPS
    if name not in ("trap", "sethnd", "nop"))


@pytest.mark.parametrize("name", NATIVE_SIMPLE)
def test_native_op_matches_executor(name):
    kind = native_kind(name)
    fp = kind.startswith(("fload", "fstore"))
    for pred in (CC_PREDS if kind == "cc" else ("",)):
        for case in cases(kind, fp):
            mi, results = run_native(name, case, pred)
            assert_same(name, mi, *results)


@pytest.mark.parametrize("name", ["trap", "sethnd", "nop"])
def test_native_misc_matches_executor(name):
    for imm in (0, 7, -3):
        for a in INTS:
            mi, results = run_native(name, ((a, 0, 0), (), imm, 0, ()))
            assert_same(name, mi, *results)


# ---------------------------------------------------------------------------
# coverage: one statement per op
# ---------------------------------------------------------------------------

def _execute_ops():
    """Every op name ``TargetMachine.execute`` dispatches on."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(
        TargetMachine.execute)))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name) and node.left.id == "op"):
            for comp in node.comparators:
                for const in ast.walk(comp):
                    if isinstance(const, ast.Constant) \
                            and isinstance(const.value, str):
                        names.add(const.value)
    return names


@pytest.mark.parametrize("module, vocabulary", [
    (omni_ops, {spec.name for spec in SPECS}),
    (native_ops, _execute_ops()),
], ids=["omnivm", "native"])
def test_every_op_has_exactly_one_statement(module, vocabulary):
    assert len(vocabulary) > 60
    for name in vocabulary:
        assert (name in module.OPS) != (name in module.TERMINATORS), name
    assert set(module.OPS) | module.TERMINATORS == vocabulary


# ---------------------------------------------------------------------------
# the generated tiers never fall back to an oracle
# ---------------------------------------------------------------------------

FP_PROGRAM = """
int main() {
    double acc = 0.0;
    float f = 0.0;
    int i;
    for (i = 0; i < 39; i++) {
        acc = acc + (double) i / 3.0;
        f = f + (float) i;
    }
    emit_int((int) acc);
    emit_int((int) f);
    emit_int((int) (acc * -2.0));
    return 0;
}
"""


def test_generated_tiers_never_call_an_oracle(monkeypatch):
    """Int/float conversions included: with ``OmniVM.step`` and
    ``TargetMachine.execute`` disabled, the threaded and JIT tiers of
    all five executors still run the program."""
    def oracle(*args, **kwargs):
        raise AssertionError("a generated tier called its oracle")

    monkeypatch.setattr(OmniVM, "step", oracle)
    monkeypatch.setattr(TargetMachine, "execute", oracle)
    program = compile_and_link([FP_PROGRAM])
    for engine in ("threaded", "jit"):
        for executor in ("omnivm",) + ARCHITECTURES:
            if executor == "omnivm":
                module = load_for_interpretation(program, engine=engine)
            else:
                module = load_for_target(program, executor, engine=engine)
            assert module.run() == 0, (executor, engine)
            assert module.host.output_values() == [247, 741, -494], (
                executor, engine)
