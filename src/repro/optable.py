"""Op tables: one statement of each instruction's semantics per ISA.

:mod:`repro.omnivm.ops` (the OmniVM opcodes of
:data:`repro.omnivm.isa.SPECS`) and :mod:`repro.targets.ops` (the
native union vocabulary of :class:`repro.targets.base.TargetMachine`)
each map every straight-line op and every conditional-branch predicate
to an :class:`Op`: a Python statement template over the instruction's
operand fields, plus a fault class.  Both execution tiers above the
reference oracles are generated from that one statement:

* the threaded tiers get closure *factories* — one per op, compiled on
  first use and never per instruction, so a cold predecode costs one
  call per instruction — whose closures hold the operand values as
  cells;
* the JIT tiers render superblock source with the operand values as
  literals, through a per-op renderer compiled from the same template.

The hand-written oracles, :meth:`repro.omnivm.interp.OmniVM.step` and
:meth:`repro.targets.base.TargetMachine.execute`, do not read the
tables: the generated code is tested against them op by op and program
by program.

Template syntax: ``{name}`` names an operand field of the table
(``{rd}``, ``{immu}``, …; ``{name!r}`` renders a string field as a
literal), a *tier name* — state that lives on the machine in a threaded
closure but in a local inside a superblock, such as the native
condition codes ``{ccs}``/``{ccu}`` — or a *code field*, a template
fragment an operand selects (the native condition-code predicate).
Statements may span lines; indentation inside a template is relative.
"""

from __future__ import annotations

import string

from repro.errors import AccessViolation, VMRuntimeError, VMTrap
from repro.omnivm import semantics
from repro.utils.bits import round_f32

#: Fault classes.  ``MEM`` and ``DIV`` ops raise an exception annotated
#: with the faulting op's location; an ``FPDIV`` op's trap carries its
#: location as ``trap_at``, which only cycle replay reads (the enclosing
#: block is the unit of ``instret`` accounting); ``TRAP`` always raises.
NONE = "none"
MEM = "mem"
DIV = "div"
FPDIV = "fpdiv"
TRAP = "trap"

#: The divide-by-zero test and trap every ``FPDIV`` op carries.
FPDIV_CHECK = "fregs[{ft}] == 0.0"
FPDIV_ERROR = f"VMRuntimeError({semantics.FP_DIV_ZERO_MSG!r})"
FPDIV_RAISE = f"raise {FPDIV_ERROR}"

#: Comparison operators by predicate name, and predicate inversion.
CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
CMP_INV = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
           "le": "gt", "gt": "le"}

#: Common address templates: base + immediate, base + index.
ADDR_IMM = "(regs[{rs}] + {immu}) & 0xffffffff"
ADDR_IDX = "(regs[{rs}] + regs[{rt}]) & 0xffffffff"
#: Indexed stores name the index register ``rd`` (``rt`` is the value).
ADDR_SIDX = "(regs[{rs}] + regs[{rd}]) & 0xffffffff"


class Access:
    """How one memory access is spelled: ``slow(reg, ad)`` is the
    :class:`~repro.omnivm.memory.Memory` accessor statement (what the
    threaded tier runs, and the JIT's inline-cache miss path) and
    ``fast(reg, s)`` the inline-cache hit lines for cache site *s*
    (none for f32 stores, which must round through the accessor);
    *reg* is the destination or value operand, *ad* the address."""

    __slots__ = ("size", "store", "slow", "fast", "writes")

    def __init__(self, size, store, slow, fast=None, writes=1):
        self.size = size
        self.store = store
        self.slow = slow
        self.fast = fast
        self.writes = writes  # Memory.write_count bumps per store


LOAD_U8 = Access(
    1, False, lambda r, a: f"{r} = memory.load({a}, 1, False) & 0xffffffff",
    lambda r, s: (f"{r} = _ld{s}[_ad - _lb{s}]",))
LOAD_S8 = Access(
    1, False, lambda r, a: f"{r} = memory.load({a}, 1, True) & 0xffffffff",
    lambda r, s: (f"_v = _ld{s}[_ad - _lb{s}]",
                  f"{r} = _v | 0xffffff00 if _v & 0x80 else _v"))
LOAD_U16 = Access(
    2, False, lambda r, a: f"{r} = memory.load({a}, 2, False) & 0xffffffff",
    lambda r, s: (f"{r} = u16_at(_ld{s}, _ad - _lb{s})[0]",))
LOAD_S16 = Access(
    2, False, lambda r, a: f"{r} = memory.load({a}, 2, True) & 0xffffffff",
    lambda r, s: (f"_v = u16_at(_ld{s}, _ad - _lb{s})[0]",
                  f"{r} = _v | 0xffff0000 if _v & 0x8000 else _v"))
LOAD_U32 = Access(
    4, False, lambda r, a: f"{r} = memory.load_u32({a})",
    lambda r, s: (f"{r} = u32_at(_ld{s}, _ad - _lb{s})[0]",))
LOAD_F32 = Access(
    4, False, lambda r, a: f"{r} = memory.load_f32({a})",
    lambda r, s: (f"{r} = f32_at(_ld{s}, _ad - _lb{s})[0]",))
LOAD_F64 = Access(
    8, False, lambda r, a: f"{r} = memory.load_f64({a})",
    lambda r, s: (f"{r} = f64_at(_ld{s}, _ad - _lb{s})[0]",))
STORE_U8 = Access(
    1, True, lambda r, a: f"memory.store({a}, 1, {r})",
    lambda r, s: (f"_sd{s}[_ad - _sb{s}] = {r} & 0xff",))
STORE_U16 = Access(
    2, True, lambda r, a: f"memory.store({a}, 2, {r})",
    lambda r, s: (f"put_u16(_sd{s}, _ad - _sb{s}, {r} & 0xffff)",))
STORE_U32 = Access(
    4, True, lambda r, a: f"memory.store_u32({a}, {r})",
    lambda r, s: (f"put_u32(_sd{s}, _ad - _sb{s}, {r})",))
STORE_F32 = Access(4, True, lambda r, a: f"memory.store_f32({a}, {r})")
# store_f64 issues two word stores; the fast path mirrors its accounting.
STORE_F64 = Access(
    8, True, lambda r, a: f"memory.store_f64({a}, {r})",
    lambda r, s: (f"put_f64(_sd{s}, _ad - _sb{s}, {r})",), writes=2)


class Op:
    """One op's statement of semantics.

    ``stmt`` is the statement template and ``fault`` its fault class.
    ``parts`` are the templates a JIT renders: ``(stmt,)``; ``(stmt,
    FPDIV_CHECK)`` for an FP divide; ``(reg, addr)`` for a memory
    access, whose ``stmt`` is its :class:`Access` slow path; ``(taken,
    untaken)`` for a conditional-branch predicate (``cond``).
    """

    __slots__ = ("stmt", "fault", "parts", "access", "cond")

    def __init__(self, stmt, fault=NONE):
        self.stmt = stmt
        self.fault = fault
        self.parts = (stmt, FPDIV_CHECK) if fault == FPDIV else (stmt,)
        self.access = None
        self.cond = False


def mem(access, reg, addr) -> Op:
    """A memory op: *access* of operand *reg* at address *addr*."""
    op = Op(access.slow(reg, addr), MEM)
    op.access = access
    op.parts = (reg, addr)
    return op


def cond(taken, untaken) -> Op:
    """A conditional-branch predicate and its negation."""
    op = Op(taken)
    op.cond = True
    op.parts = (taken, untaken)
    return op


#: Read ``regs[{rs}]`` into ``_a`` as a signed value.  The doubled
#: indent is kept: superblock source is pinned byte for byte.
S32_WIDE = "_a = regs[{rs}]\nif _a & 0x80000000:\n        _a -= 0x100000000\n"


def common_ops() -> dict[str, Op]:
    """The ops both vocabularies share and spell alike, over the fields
    ``rd rs rt fd fs ft imm``, ``immu`` (``u32(imm)``), ``sh`` (``imm &
    31``) and ``msg`` (a trap's message)."""
    ops = {
        "add": Op("regs[{rd}] = (regs[{rs}] + regs[{rt}]) & 0xffffffff"),
        "sub": Op("regs[{rd}] = (regs[{rs}] - regs[{rt}]) & 0xffffffff"),
        "mul": Op("regs[{rd}] = (regs[{rs}] * regs[{rt}]) & 0xffffffff"),
        "and": Op("regs[{rd}] = regs[{rs}] & regs[{rt}]"),
        "or": Op("regs[{rd}] = regs[{rs}] | regs[{rt}]"),
        "xor": Op("regs[{rd}] = regs[{rs}] ^ regs[{rt}]"),
        "sll": Op("regs[{rd}] = (regs[{rs}] << (regs[{rt}] & 31)) "
                  "& 0xffffffff"),
        "srl": Op("regs[{rd}] = regs[{rs}] >> (regs[{rt}] & 31)"),
        "addi": Op("regs[{rd}] = (regs[{rs}] + {immu}) & 0xffffffff"),
        "andi": Op("regs[{rd}] = regs[{rs}] & {immu}"),
        "ori": Op("regs[{rd}] = regs[{rs}] | {immu}"),
        "xori": Op("regs[{rd}] = regs[{rs}] ^ {immu}"),
        "slli": Op("regs[{rd}] = (regs[{rs}] << {sh}) & 0xffffffff"),
        "srli": Op("regs[{rd}] = regs[{rs}] >> {sh}"),
        "li": Op("regs[{rd}] = {immu}"),
        "mov": Op("regs[{rd}] = regs[{rs}]"),
        "lb": mem(LOAD_S8, "regs[{rd}]", ADDR_IMM),
        "lbu": mem(LOAD_U8, "regs[{rd}]", ADDR_IMM),
        "lh": mem(LOAD_S16, "regs[{rd}]", ADDR_IMM),
        "lhu": mem(LOAD_U16, "regs[{rd}]", ADDR_IMM),
        "lw": mem(LOAD_U32, "regs[{rd}]", ADDR_IMM),
        "lbx": mem(LOAD_S8, "regs[{rd}]", ADDR_IDX),
        "lbux": mem(LOAD_U8, "regs[{rd}]", ADDR_IDX),
        "lhx": mem(LOAD_S16, "regs[{rd}]", ADDR_IDX),
        "lhux": mem(LOAD_U16, "regs[{rd}]", ADDR_IDX),
        "lwx": mem(LOAD_U32, "regs[{rd}]", ADDR_IDX),
        "sb": mem(STORE_U8, "regs[{rt}]", ADDR_IMM),
        "sh": mem(STORE_U16, "regs[{rt}]", ADDR_IMM),
        "sw": mem(STORE_U32, "regs[{rt}]", ADDR_IMM),
        "sbx": mem(STORE_U8, "regs[{rt}]", ADDR_SIDX),
        "shx": mem(STORE_U16, "regs[{rt}]", ADDR_SIDX),
        "swx": mem(STORE_U32, "regs[{rt}]", ADDR_SIDX),
        "lfs": mem(LOAD_F32, "fregs[{fd}]", ADDR_IMM),
        "lfd": mem(LOAD_F64, "fregs[{fd}]", ADDR_IMM),
        "lfsx": mem(LOAD_F32, "fregs[{fd}]", ADDR_IDX),
        "lfdx": mem(LOAD_F64, "fregs[{fd}]", ADDR_IDX),
        "sfs": mem(STORE_F32, "fregs[{ft}]", ADDR_IMM),
        "sfd": mem(STORE_F64, "fregs[{ft}]", ADDR_IMM),
        "sfsx": mem(STORE_F32, "fregs[{ft}]", ADDR_SIDX),
        "sfdx": mem(STORE_F64, "fregs[{ft}]", ADDR_SIDX),
        "cvtdw": Op(S32_WIDE + "fregs[{fd}] = float(_a)"),
        "cvtsw": Op(S32_WIDE + "fregs[{fd}] = round_f32(float(_a))"),
        "cvtdwu": Op("fregs[{fd}] = float(regs[{rs}])"),
        "cvtswu": Op("fregs[{fd}] = round_f32(float(regs[{rs}]))"),
        "cvtwd": Op("regs[{rd}] = f_to_i32(fregs[{fs}])"),
        "cvtws": Op("regs[{rd}] = f_to_i32(fregs[{fs}])"),
        "cvtwud": Op("regs[{rd}] = f_to_u32(fregs[{fs}])"),
        "cvtwus": Op("regs[{rd}] = f_to_u32(fregs[{fs}])"),
        "cvtds": Op("fregs[{fd}] = fregs[{fs}]"),
        "cvtsd": Op("fregs[{fd}] = round_f32(fregs[{fs}])"),
        "sext8": Op("_a = regs[{rs}] & 0xff\n"
                    "regs[{rd}] = (_a | 0xffffff00) if _a & 0x80 else _a"),
        "sext16": Op("_a = regs[{rs}] & 0xffff\n"
                     "regs[{rd}] = (_a | 0xffff0000) if _a & 0x8000 else _a"),
        "zext8": Op("regs[{rd}] = regs[{rs}] & 0xff"),
        "zext16": Op("regs[{rd}] = regs[{rs}] & 0xffff"),
        "trap": Op("raise VMTrap({msg!r}, {imm})", TRAP),
        "nop": Op(""),
    }
    for name in ("div", "divu", "rem", "remu"):
        ops[name] = Op(f"regs[{{rd}}] = int_divide({name!r}, regs[{{rs}}], "
                       "regs[{rt}])", DIV)
    for width, rounded in (("s", "round_f32({})"), ("d", "{}")):
        for name, sym in (("fadd", "+"), ("fsub", "-"), ("fmul", "*")):
            expr = rounded.format(f"fregs[{{fs}}] {sym} fregs[{{ft}}]")
            ops[name + width] = Op(f"fregs[{{fd}}] = {expr}")
        expr = rounded.format("fregs[{fs}] / fregs[{ft}]")
        ops["fdiv" + width] = Op(f"fregs[{{fd}}] = {expr}", FPDIV)
        for name, unop in (("fneg", "-fregs[{fs}]"),
                           ("fabs", "abs(fregs[{fs}])"),
                           ("fmov", "fregs[{fs}]")):
            ops[name + width] = Op(f"fregs[{{fd}}] = {rounded.format(unop)}")
        for name, pred in (("fceq", "eq"), ("fclt", "lt"), ("fcle", "le")):
            ops[name + width] = Op(f"regs[{{rd}}] = 1 if fregs[{{fs}}] "
                                   f"{CMP[pred]} fregs[{{ft}}] else 0")
    return ops


#: Field expressions :func:`common_ops` needs.
COMMON_FIELDS = {
    "rd": "{i}.rd", "rs": "{i}.rs", "rt": "{i}.rt",
    "fd": "{i}.fd", "fs": "{i}.fs", "ft": "{i}.ft",
    "imm": "{i}.imm",
    "immu": "{i}.imm & 0xffffffff",
    "sh": "{i}.imm & 31",
    "msg": "'module trap ' + str({i}.imm)",
}


_PARSE = string.Formatter().parse


def _subst(template, replace) -> str:
    """*template* with each ``{name[!conv]}`` replaced by
    ``replace(name, conv)``."""
    out = []
    for literal, name, _spec, conv in _PARSE(template):
        out.append(literal)
        if name is not None:
            out.append(replace(name, conv))
    return "".join(out)


def exec_env() -> dict:
    """Names generated closures and superblocks may reference."""
    return {
        "AccessViolation": AccessViolation,
        "VMRuntimeError": VMRuntimeError,
        "VMTrap": VMTrap,
        "int_divide": semantics.int_divide,
        "f_to_i32": semantics.f_to_i32,
        "f_to_u32": semantics.f_to_u32,
        "round_f32": round_f32,
    }


class OpTable:
    """One ISA's op table plus the generators built on it.

    *fields* maps each operand field to a Python expression over
    ``{i}`` (the instruction) and ``{at}`` (its location); *tier_names*
    maps each tier name to its ``(threaded, jit)`` spellings; *code*
    maps each code field to ``(attr, choices)``: the instruction
    attribute that selects one of the *choices* templates.
    """

    def __init__(self, ops, fields, tier_names=None, code=None):
        self.ops = ops
        self.fields = fields
        self.tier_names = tier_names or {}
        self.code = code or {}
        #: op name -> attributes whose code fields its templates use
        self._variants = {
            name: attrs for name, op in ops.items()
            if (attrs := tuple(dict.fromkeys(
                attr for field, (attr, _) in self.code.items()
                if "{" + field + "}" in "".join(op.parts))))}
        self._env = exec_env()
        self._renderers: dict = {}
        self._factories: dict = {}

    # -- threaded tier ---------------------------------------------------

    def text(self, template, bound, instr=None) -> str:
        """*template* as threaded-closure text: each operand field
        becomes the cell of that name (its binding recorded in *bound*),
        tier names the machine state, code fields the choice *instr*
        makes."""
        def replace(name, conv):
            if name in self.tier_names:
                return self.tier_names[name][0]
            if name in self.code:
                attr, choices = self.code[name]
                return self.text(choices[getattr(instr, attr)], bound, instr)
            bound[name] = self.fields[name].format(i="i", at="at")
            return name
        return _subst(template, replace)

    def lines(self, name, bound, annotate, instr=None) -> list[str]:
        """Op *name* as threaded-closure lines, wrapped for its fault
        class: ``MEM``/``DIV`` faults get attribute *annotate* set to
        the op's location ``at``, and an ``FPDIV`` trap gets
        ``trap_at``."""
        op = self.ops[name]
        text = self.text(op.stmt, bound, instr)
        body = text.split("\n") if text else []
        if op.fault == MEM or op.fault == DIV:
            exc = "AccessViolation" if op.fault == MEM else "VMRuntimeError"
            return (["try:"] + ["    " + line for line in body]
                    + [f"except {exc} as _e:",
                       f"    _e.{annotate} = at",
                       "    raise"])
        if op.fault == FPDIV:
            return ([f"if {self.text(FPDIV_CHECK, bound)}:",
                     f"    _e = {FPDIV_ERROR}",
                     "    _e.trap_at = at",
                     "    raise _e"] + body)
        return body

    def variant(self, name, instr) -> tuple:
        """What besides the op name decides *instr*'s closure shape: the
        values of the code fields its templates use."""
        attrs = self._variants.get(name)
        return tuple(getattr(instr, a) for a in attrs) if attrs else ()

    def factory(self, key, params, build):
        """The closure factory ``make(i, at)`` of instruction *i* at
        location *at*, cached under *key*, compiled on first use.
        ``build(bound)`` returns the closure body (see :meth:`lines`);
        *params* is the closure's parameter list."""
        make = self._factories.get(key)
        if make is None:
            bound: dict[str, str] = {}
            body = build(bound) or ["pass"]
            src = ["def make(i, at):"]
            src += [f"    {cell} = {expr}" for cell, expr in bound.items()]
            src.append(f"    def fn({params}):")
            src += ["        " + line for line in body]
            src.append("    return fn")
            namespace = dict(self._env)
            exec(compile("\n".join(src) + "\n", f"<op {key}>", "exec"),
                 namespace)
            make = self._factories[key] = namespace["make"]
        return make

    # -- JIT tier --------------------------------------------------------

    def render(self, instr) -> tuple[str, ...]:
        """*instr*'s :attr:`Op.parts` as superblock text, operand values
        as literals."""
        render = self._renderers.get(instr.op)
        if render is None:
            render = self._renderers[instr.op] = self._renderer(instr.op)
        return render(instr)

    def _renderer(self, name):
        bound: dict[str, str] = {}
        namespace = dict(self._env)

        def replace(field, conv):
            if field in self.tier_names:
                return self.tier_names[field][1]
            if field in self.code:
                attr, choices = self.code[field]
                namespace[f"_{field}"] = {
                    key: _subst(text, lambda n, c: self.tier_names[n][1])
                    for key, text in choices.items()}
                bound[field] = f"_{field}[i.{attr}]"
            else:
                bound[field] = self.fields[field].format(i="i")
            return "{" + field + ("!" + conv if conv else "") + "}"

        parts = [_subst(part, replace) for part in self.ops[name].parts]
        src = ["def render(i):"]
        src += [f"    {field} = {expr}" for field, expr in bound.items()]
        src.append("    return (" + "".join(f"f{part!r}, " for part in parts)
                   + ")")
        exec(compile("\n".join(src) + "\n", f"<render {name}>", "exec"),
             namespace)
        return namespace["render"]
