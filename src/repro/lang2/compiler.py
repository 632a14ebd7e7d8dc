"""MiniLisp: a second, unrelated source language targeting OmniVM.

The paper's central claim is *language independence*: because safety
comes from SFI rather than from a type system, any language that can
compile to the OmniVM instruction set can ship mobile code.  MiniLisp
demonstrates this concretely — a Lisp with a completely different surface
syntax and semantics front-ends onto the same IR, optimizer, register
allocator and OmniVM code generator as MiniC, and its object modules
**link against MiniC modules** (Figure 2's many-languages → one-substrate
picture, exercised end-to-end by ``repro.evalharness.figures.figure2_demo``).

The language (integers only):

.. code-block:: lisp

    (defun name (a b ...) body...)        ; last body form is the result
    (if c t e)  (let ((x e) ...) body...) (while c body...)
    (set! x e)  (progn e...)
    (+ - * / mod < <= > >= = /=)  (emit e)  calls: (f args...)

Top-level ``defun`` names become global symbols, so a MiniC module can
declare ``extern int name(int, ...)`` and call straight into Lisp code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompileError, ParseError
from repro.frontend.parser import MAX_NESTING
from repro.ir.ir import (
    BasicBlock,
    Const,
    Function,
    Instr,
    Module,
    Operand,
    Temp,
)
from repro.omnivm.codegen import generate_object
from repro.omnivm.objfile import ObjectModule
from repro.opt import addrfold, dce
from repro.opt.pipeline import optimize_module

_ARITH = {"+": "add", "-": "sub", "*": "mul", "/": "div", "mod": "rem"}
_CMP = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "=": "eq", "/=": "ne"}


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def read_forms(text: str) -> list:
    """Parse s-expressions into nested Python lists of str/int.

    A list nested inside more than ``MAX_NESTING - 1`` others is a
    :class:`ParseError`: the reader and the compiler recurse once or
    twice per level, and MiniC's bound keeps both far inside Python's
    frame limit.
    """
    tokens = _tokenize(text)
    forms = []
    position = [0]
    while position[0] < len(tokens):
        forms.append(_read(tokens, position, 1))
    return forms


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _read(tokens: list[str], position: list[int], depth: int):
    """Read one form whose lists open at nesting level *depth*."""
    if position[0] >= len(tokens):
        raise ParseError("unexpected end of MiniLisp input")
    token = tokens[position[0]]
    position[0] += 1
    if token == "(":
        if depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels")
        items = []
        while position[0] < len(tokens) and tokens[position[0]] != ")":
            items.append(_read(tokens, position, depth + 1))
        if position[0] >= len(tokens):
            raise ParseError("missing ')' in MiniLisp input")
        position[0] += 1
        return items
    if token == ")":
        raise ParseError("unexpected ')' in MiniLisp input")
    try:
        return int(token)
    except ValueError:
        return token


# ---------------------------------------------------------------------------
# Compiler to IR
# ---------------------------------------------------------------------------


@dataclass
class _FnCtx:
    func: Function
    block: BasicBlock
    env: dict[str, Temp]
    label_counter: int = 0

    def new_label(self, hint: str) -> str:
        self.label_counter += 1
        return f".lisp{self.label_counter}_{hint}"

    def start(self, label: str) -> None:
        block = BasicBlock(label)
        self.func.blocks.append(block)
        self.block = block

    def emit(self, instr: Instr) -> None:
        if instr.is_terminator():
            if self.block.terminator is None:
                self.block.terminator = instr
        else:
            self.block.instrs.append(instr)

    def temp(self) -> Temp:
        return self.func.new_temp("i32")


class MiniLispCompiler:
    """Compiles MiniLisp source to an IR module."""

    def __init__(self, module_name: str = "lisp"):
        self.module = Module(module_name)
        self.functions: dict[str, int] = {}  # name -> arity

    def compile(self, source: str) -> Module:
        forms = read_forms(source)
        # Pass 1: signatures, so forward/mutual recursion works.
        for form in forms:
            if not (isinstance(form, list) and form and form[0] == "defun"):
                raise CompileError(
                    "MiniLisp top level allows only (defun ...) forms"
                )
            if len(form) < 4 or not isinstance(form[1], str) or not isinstance(
                form[2], list
            ):
                raise CompileError(f"malformed defun: {form!r}")
            self.functions[form[1]] = len(form[2])
        for form in forms:
            self._compile_defun(form)
        return self.module

    def _compile_defun(self, form: list) -> None:
        name, params, body = form[1], form[2], form[3:]
        func = Function(name, return_ty="i32")
        entry = BasicBlock("entry")
        func.blocks.append(entry)
        ctx = _FnCtx(func, entry, {})
        for param in params:
            if not isinstance(param, str):
                raise CompileError(f"bad parameter {param!r} in {name}")
            temp = func.new_temp("i32")
            func.params.append(temp)
            ctx.env[param] = temp
        result = self._body(ctx, body)
        ctx.emit(Instr("ret", args=[result]))
        # Terminate any dangling blocks (e.g. after a while loop).
        for block in func.blocks:
            if block.terminator is None:
                block.terminator = Instr("ret", args=[Const(0, "i32")])
        self.module.functions.append(func)

    def _body(self, ctx: _FnCtx, forms: list) -> Operand:
        result: Operand = Const(0, "i32")
        for form in forms:
            result = self._expr(ctx, form)
        return result

    def _expr(self, ctx: _FnCtx, form) -> Operand:
        if isinstance(form, int):
            return Const(form, "i32")
        if isinstance(form, str):
            if form not in ctx.env:
                raise CompileError(f"unbound MiniLisp variable {form!r}")
            return ctx.env[form]
        if not isinstance(form, list) or not form:
            raise CompileError(f"cannot compile form {form!r}")
        head = form[0]
        if head in _ARITH:
            return self._arith(ctx, head, form[1:])
        if head in _CMP:
            a = self._expr(ctx, form[1])
            b = self._expr(ctx, form[2])
            dest = ctx.temp()
            ctx.emit(Instr("cmp", dest, [a, b], subop=_CMP[head],
                           cmp_ty="i32"))
            return dest
        if head == "if":
            return self._if(ctx, form)
        if head == "let":
            return self._let(ctx, form)
        if head == "while":
            return self._while(ctx, form)
        if head == "set!":
            value = self._expr(ctx, form[2])
            target = ctx.env.get(form[1])
            if target is None:
                raise CompileError(f"set! of unbound variable {form[1]!r}")
            ctx.emit(Instr("copy", target, [value]))
            return target
        if head == "progn":
            return self._body(ctx, form[1:])
        if head == "emit":
            value = self._expr(ctx, form[1])
            ctx.emit(Instr("hostcall", None, [value], name="emit_int"))
            return value
        if isinstance(head, str):
            if head in self.functions:
                arity = self.functions[head]
                if arity != len(form) - 1:
                    raise CompileError(
                        f"{head} expects {arity} args, got {len(form) - 1}"
                    )
            args = [self._expr(ctx, arg) for arg in form[1:]]
            dest = ctx.temp()
            ctx.emit(Instr("call", dest, args, name=head))
            return dest
        raise CompileError(f"cannot compile form {form!r}")

    def _arith(self, ctx: _FnCtx, op: str, args: list) -> Operand:
        if op == "-" and len(args) == 1:
            operand = self._expr(ctx, args[0])
            dest = ctx.temp()
            ctx.emit(Instr("bin", dest, [Const(0, "i32"), operand],
                           subop="sub"))
            return dest
        if len(args) < 2:
            raise CompileError(f"({op} ...) needs at least two operands")
        acc = self._expr(ctx, args[0])
        for arg in args[1:]:
            value = self._expr(ctx, arg)
            dest = ctx.temp()
            ctx.emit(Instr("bin", dest, [acc, value], subop=_ARITH[op]))
            acc = dest
        return acc

    def _if(self, ctx: _FnCtx, form: list) -> Operand:
        if len(form) not in (3, 4):
            raise CompileError("(if c t [e]) arity")
        cond = self._expr(ctx, form[1])
        then_label = ctx.new_label("then")
        else_label = ctx.new_label("else")
        end_label = ctx.new_label("endif")
        result = ctx.temp()
        ctx.emit(Instr("br", args=[cond, Const(0, "i32")], subop="ne",
                       cmp_ty="i32", targets=[then_label, else_label]))
        ctx.start(then_label)
        then_value = self._expr(ctx, form[2])
        ctx.emit(Instr("copy", result, [then_value]))
        ctx.emit(Instr("jump", targets=[end_label]))
        ctx.start(else_label)
        else_value = self._expr(ctx, form[3]) if len(form) == 4 else Const(0, "i32")
        ctx.emit(Instr("copy", result, [else_value]))
        ctx.emit(Instr("jump", targets=[end_label]))
        ctx.start(end_label)
        return result

    def _let(self, ctx: _FnCtx, form: list) -> Operand:
        bindings = form[1]
        saved = dict(ctx.env)
        for binding in bindings:
            if not (isinstance(binding, list) and len(binding) == 2):
                raise CompileError(f"bad let binding {binding!r}")
            value = self._expr(ctx, binding[1])
            temp = ctx.temp()
            ctx.emit(Instr("copy", temp, [value]))
            ctx.env[binding[0]] = temp
        result = self._body(ctx, form[2:])
        # A let's result may be a bound temp about to go out of scope;
        # copy it so the value survives the scope restoration.
        out = ctx.temp()
        ctx.emit(Instr("copy", out, [result]))
        ctx.env = saved
        return out

    def _while(self, ctx: _FnCtx, form: list) -> Operand:
        head_label = ctx.new_label("while")
        body_label = ctx.new_label("body")
        end_label = ctx.new_label("endwhile")
        ctx.emit(Instr("jump", targets=[head_label]))
        ctx.start(head_label)
        cond = self._expr(ctx, form[1])
        ctx.emit(Instr("br", args=[cond, Const(0, "i32")], subop="ne",
                       cmp_ty="i32", targets=[body_label, end_label]))
        ctx.start(body_label)
        self._body(ctx, form[2:])
        ctx.emit(Instr("jump", targets=[head_label]))
        ctx.start(end_label)
        return Const(0, "i32")


def compile_minilisp_to_ir(source: str, module_name: str = "lisp") -> Module:
    """MiniLisp → optimized IR (same pipeline position as MiniC)."""
    module = MiniLispCompiler(module_name).compile(source)
    optimize_module(module, level=2)
    for func in module.functions:
        addrfold.run(func)
        dce.run(func)
    return module


def compile_minilisp(source: str, module_name: str = "lisp",
                     num_regs: int = 16) -> ObjectModule:
    """MiniLisp → OmniVM object module, linkable with MiniC objects."""
    module = compile_minilisp_to_ir(source, module_name)
    return generate_object(module, num_regs=num_regs)
