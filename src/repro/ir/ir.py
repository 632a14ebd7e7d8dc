"""Three-address intermediate representation.

The IR sits between the language front ends (MiniC, MiniLisp) and the two
back ends (the OmniVM code generator and the direct-to-native backends used
as the paper's `cc`/`gcc` stand-ins).  It is a conventional CFG of basic
blocks holding three-address instructions over an unbounded set of typed
virtual registers (*temps*).  It is deliberately **not** SSA: temps may be
redefined, and the optimizer uses classic dataflow (liveness, reaching
definitions within loops) instead of phi nodes.  This matches the 1990s
compilers the paper used and keeps every pass easy to audit.

IR types are short strings: ``i8 u8 i16 u16 i32 u32 f32 f64`` (``void``
for calls without results).  Pointers are ``u32`` addresses — the front end
has already lowered data layout to explicit address arithmetic, which is
exactly the property the paper highlights (OmniVM lets the *compiler* define
layout so address arithmetic is exposed to optimization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IRError

INT_TYPES = {"i8", "u8", "i16", "u16", "i32", "u32"}
FLOAT_TYPES = {"f32", "f64"}
ALL_TYPES = INT_TYPES | FLOAT_TYPES | {"void"}

TYPE_SIZE = {"i8": 1, "u8": 1, "i16": 2, "u16": 2, "i32": 4, "u32": 4,
             "f32": 4, "f64": 8}

#: Binary opcodes.  Shift/div/rem/compare signedness comes from the type.
BINARY_OPS = {"add", "sub", "mul", "div", "rem", "and", "or", "xor",
              "shl", "shr"}

#: Comparison predicates (signedness from the operand type).
CMP_PREDS = {"eq", "ne", "lt", "le", "gt", "ge"}

#: Predicate negation, used when inverting branches.
NEGATED_PRED = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt",
                "le": "gt", "gt": "le"}

#: Predicate with swapped operands (a pred b  ==  b SWAPPED[pred] a).
SWAPPED_PRED = {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt",
                "le": "ge", "ge": "le"}


def is_signed(ty: str) -> bool:
    return ty in ("i8", "i16", "i32")


def is_float(ty: str) -> bool:
    return ty in FLOAT_TYPES


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


class Temp:
    """A virtual register.

    Two temps are equal when their ids and types are; the hash is the id
    alone, which is cheap and, within one function, almost always
    unique.  Passes never depend on the iteration order of a set of
    temps, so the hash value does not shape any output."""

    __slots__ = ("id", "ty")

    def __init__(self, id: int, ty: str):
        self.id = id
        self.ty = ty

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Temp:
            return NotImplemented
        return self.id == other.id and self.ty == other.ty

    def __hash__(self) -> int:
        return self.id

    def __repr__(self) -> str:
        return f"Temp(id={self.id!r}, ty={self.ty!r})"

    def __str__(self) -> str:
        return f"%t{self.id}:{self.ty}"


@dataclass(frozen=True)
class Const:
    """A literal constant operand.  Integers are stored as Python ints in
    signed canonical form; floats as Python floats."""

    value: int | float
    ty: str

    def __str__(self) -> str:
        return f"{self.value}:{self.ty}"


@dataclass(frozen=True)
class GlobalRef:
    """The link-time address of a global variable or function."""

    name: str

    ty: str = "u32"

    def __str__(self) -> str:
        return f"@{self.name}"


Operand = Temp | Const | GlobalRef


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass
class Instr:
    """One three-address instruction.

    ``op`` selects the kind:

    ============  =========================================================
    op            meaning / fields used
    ============  =========================================================
    ``copy``      dest = args[0]
    ``bin``       dest = args[0] <subop> args[1]  (type = dest.ty)
    ``cmp``       dest:i32 = (args[0] <pred:subop> args[1]), cmp_ty attr
    ``cast``      dest = convert(args[0]) from args[0].ty to dest.ty
    ``load``      dest = mem[args[0]], memory type ``mem_ty``
    ``store``     mem[args[0]] = args[1], memory type ``mem_ty``
    ``frameaddr`` dest:u32 = address of stack slot ``slot``
    ``call``      dest? = call name(args)  (direct)
    ``icall``     dest? = call through pointer args[0] with args[1:]
    ``hostcall``  dest? = host API call ``name``
    ============  =========================================================

    Terminators (stored in :attr:`BasicBlock.terminator`):

    ============  =========================================================
    ``jump``      to targets[0]
    ``br``        if args[0] <pred:subop> args[1] (cmp_ty) then targets[0]
                  else targets[1]
    ``ret``       return args[0] if present
    ============  =========================================================
    """

    op: str
    dest: Temp | None = None
    args: list[Operand] = field(default_factory=list)
    subop: str = ""
    mem_ty: str = ""
    cmp_ty: str = ""
    name: str = ""
    slot: int = -1
    targets: list[str] = field(default_factory=list)

    def is_terminator(self) -> bool:
        return self.op in ("jump", "br", "ret")

    def uses(self) -> list[Operand]:
        return list(self.args)

    def used_temps(self) -> list[Temp]:
        return [a for a in self.args if isinstance(a, Temp)]

    def replace_uses(self, mapping: dict[Temp, Operand]) -> None:
        self.args = [mapping.get(a, a) if isinstance(a, Temp) else a
                     for a in self.args]

    def __str__(self) -> str:
        parts: list[str] = []
        if self.dest is not None:
            parts.append(f"{self.dest} = ")
        parts.append(self.op)
        if self.subop:
            parts.append(f".{self.subop}")
        if self.mem_ty:
            parts.append(f".{self.mem_ty}")
        if self.cmp_ty:
            parts.append(f"[{self.cmp_ty}]")
        if self.name:
            parts.append(f" @{self.name}")
        if self.slot >= 0:
            parts.append(f" slot{self.slot}")
        if self.args:
            parts.append(" " + ", ".join(str(a) for a in self.args))
        if self.targets:
            parts.append(" -> " + ", ".join(self.targets))
        return "".join(parts)


# ---------------------------------------------------------------------------
# Blocks, functions, modules
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    label: str
    instrs: list[Instr] = field(default_factory=list)
    terminator: Instr | None = None

    def successors(self) -> list[str]:
        if self.terminator is None:
            return []
        return list(self.terminator.targets)

    def all_instrs(self) -> list[Instr]:
        if self.terminator is None:
            return list(self.instrs)
        return self.instrs + [self.terminator]

    def __str__(self) -> str:
        lines = [f"{self.label}:"]
        lines.extend(f"  {i}" for i in self.instrs)
        if self.terminator is not None:
            lines.append(f"  {self.terminator}")
        return "\n".join(lines)


@dataclass
class StackSlot:
    """A frame-allocated object (address-taken local, array, struct)."""

    name: str
    size: int
    align: int = 4


@dataclass
class Function:
    name: str
    params: list[Temp] = field(default_factory=list)
    return_ty: str = "void"
    blocks: list[BasicBlock] = field(default_factory=list)
    stack_slots: list[StackSlot] = field(default_factory=list)
    next_temp: int = 0
    is_variadic: bool = False

    def new_temp(self, ty: str) -> Temp:
        temp = Temp(self.next_temp, ty)
        self.next_temp += 1
        return temp

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise IRError(f"no block {label!r} in function {self.name!r}")

    def block_map(self) -> dict[str, BasicBlock]:
        return {b.label: b for b in self.blocks}

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def add_slot(self, name: str, size: int, align: int = 4) -> int:
        self.stack_slots.append(StackSlot(name, size, align))
        return len(self.stack_slots) - 1

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        header = f"func @{self.name}({params}) -> {self.return_ty}"
        slots = "".join(
            f"\n  slot{i} {s.name}: {s.size} bytes align {s.align}"
            for i, s in enumerate(self.stack_slots)
        )
        body = "\n".join(str(b) for b in self.blocks)
        return f"{header} {{{slots}\n{body}\n}}"


@dataclass
class GlobalData:
    """A global variable: raw initial image plus address relocations.

    ``relocs`` is a list of ``(offset, symbol)`` pairs: the 4-byte word at
    *offset* must be patched with the final address of *symbol* (plus
    whatever addend is already stored in the image).
    """

    name: str
    size: int
    align: int = 4
    image: bytes = b""
    relocs: list[tuple[int, str]] = field(default_factory=list)
    readonly: bool = False

    def __post_init__(self) -> None:
        if len(self.image) > self.size:
            raise IRError(
                f"global {self.name!r}: image larger than declared size"
            )


@dataclass
class Module:
    """A compilation unit: functions plus global data."""

    name: str = "module"
    functions: list[Function] = field(default_factory=list)
    globals: list[GlobalData] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise IRError(f"no function {name!r} in module {self.name!r}")

    def global_named(self, name: str) -> GlobalData:
        for g in self.globals:
            if g.name == name:
                return g
        raise IRError(f"no global {name!r} in module {self.name!r}")

    def __str__(self) -> str:
        parts = [f"module {self.name}"]
        parts.extend(
            f"global @{g.name}: {g.size} bytes align {g.align}"
            for g in self.globals
        )
        parts.extend(str(f) for f in self.functions)
        return "\n\n".join(parts)


def verify_function(func: Function) -> None:
    """Sanity-check structural invariants; raises :class:`IRError`."""
    labels = set()
    for block in func.blocks:
        if block.label in labels:
            raise IRError(f"duplicate block label {block.label!r}")
        labels.add(block.label)
    for block in func.blocks:
        if block.terminator is None:
            raise IRError(f"block {block.label!r} lacks a terminator")
        if not block.terminator.is_terminator():
            raise IRError(
                f"block {block.label!r} terminator is {block.terminator.op!r}"
            )
        for target in block.terminator.targets:
            if target not in labels:
                raise IRError(
                    f"block {block.label!r} jumps to unknown label {target!r}"
                )
        for instr in block.instrs:
            if instr.is_terminator():
                raise IRError(
                    f"terminator {instr.op!r} in the middle of {block.label!r}"
                )
            if instr.op == "frameaddr" and not (
                0 <= instr.slot < len(func.stack_slots)
            ):
                raise IRError(f"frameaddr references bad slot {instr.slot}")


def verify_module(module: Module) -> None:
    for func in module.functions:
        verify_function(func)
