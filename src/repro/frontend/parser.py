"""Recursive-descent parser for MiniC.

Grammar summary (C subset):

* top level: struct declarations, global variables (with scalar / brace /
  string initializers), function definitions and prototypes, ``extern``.
* types: ``void char short int uint float double``, ``struct NAME``,
  pointers, sized arrays, and the restricted function-pointer declarator
  ``ret (*name)(params)``.
* statements: blocks, declarations, ``if/else``, ``while``, ``do/while``,
  ``for``, ``break``, ``continue``, ``return``, expression statements.
* expressions: full C operator precedence including assignment operators,
  ``?:``, casts, ``sizeof``, pointer/array/member access and calls.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.lexer import Token, tokenize
from repro.frontend.types import (
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    SHORT,
    UINT,
    VOID,
    ArrayType,
    FunctionType,
    PointerType,
    StructType,
    Type,
    layout_struct,
)

_TYPE_KEYWORDS = {"void", "char", "short", "int", "uint", "float", "double", "struct"}

# Binary operator precedence (higher binds tighter).
_BINOP_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: The deepest nesting the parser accepts.  One level is: a statement
#: inside another; a full expression inside another (parenthesized, an
#: argument, an index, the right side of an assignment, a branch of
#: ``?:``); a unary operator or cast; a link of a left-associative chain
#: (binary operators, commas, postfix operators), which pushes everything
#: before it one level deeper; a pointer or array level of a type; and a
#: brace of an initializer.  Sema, the IR builder and the parser itself
#: all recurse once per level, spending at most seven frames on one (a
#: parenthesized expression in the parser), so 100 levels stay well
#: inside Python's default limit of 1000 frames on any thread, a service
#: worker's included.  The SPEC kernels nest at most 13 levels (alvinn)
#: and the benchmark corpora at most 10.
MAX_NESTING = 100


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast.TranslationUnit`."""

    def __init__(self, tokens: list[Token]):
        # Two more copies of the final eof make every lookahead in range.
        self.tokens = list(tokens) + tokens[-1:] * 2
        self.pos = 0
        # Struct tag -> StructType, shared with sema via the returned AST.
        self.struct_types: dict[str, StructType] = {}
        # Nesting levels open here, and the deepest level reached by the
        # nodes of the chain being parsed (see MAX_NESTING).
        self._depth = 0
        self._deepest = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def _expect_op(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "op" or token.value != text:
            raise ParseError(f"expected {text!r}, found {token}", token.loc)
        self.pos += 1
        return token

    def _expect_kw(self, text: str) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "kw" or token.value != text:
            raise ParseError(f"expected {text!r}, found {token}", token.loc)
        self.pos += 1
        return token

    def _expect_ident(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "ident":
            raise ParseError(f"expected identifier, found {token}", token.loc)
        self.pos += 1
        return token

    def _accept_op(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.kind == "op" and token.value == text:
            self.pos += 1
            return True
        return False

    def _accept_kw(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.kind == "kw" and token.value == text:
            self.pos += 1
            return True
        return False

    # -- nesting bound -------------------------------------------------------

    def _nest(self, token: Token) -> None:
        """Open one nesting level at *token* (close it with
        ``self._depth -= 1``)."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             token.loc)
        if self._depth > self._deepest:
            self._deepest = self._depth

    def _start_chain(self) -> int:
        """Begin a left-associative chain; returns the state to restore."""
        saved = self._deepest
        self._deepest = self._depth
        return saved

    def _link(self, before: int, token: Token) -> None:
        """The chain link at *token* pushes what the chain held before it
        (reaching level *before*) one level deeper; its own operand was
        parsed one level down already."""
        if before + 1 > self._deepest:
            self._deepest = before + 1
        if self._deepest > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             token.loc)

    def _end_chain(self, saved: int) -> None:
        if saved > self._deepest:
            self._deepest = saved

    def _type_level(self, depth: int, token: Token) -> None:
        """A type nested *depth* pointer/array levels deep ends at *token*."""
        level = self._depth + depth
        if level > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             token.loc)
        if level > self._deepest:
            self._deepest = level

    # -- types ---------------------------------------------------------------

    def _at_type(self) -> bool:
        token = self._peek()
        return token.kind == "kw" and token.value in _TYPE_KEYWORDS

    def _parse_base_type(self) -> Type:
        token = self._peek()
        if token.kind != "kw":
            raise ParseError(f"expected type, found {token}", token.loc)
        keyword = token.value
        if keyword == "struct":
            self._next()
            name_tok = self._expect_ident()
            tag = name_tok.value
            if tag not in self.struct_types:
                # Forward reference: create an incomplete struct type.
                self.struct_types[tag] = StructType(str(tag))
            return self.struct_types[str(tag)]
        mapping = {
            "void": VOID,
            "char": CHAR,
            "short": SHORT,
            "int": INT,
            "float": FLOAT,
            "double": DOUBLE,
        }
        if keyword == "uint":
            self._next()
            self._accept_kw("int")  # `unsigned int`
            return UINT
        if keyword in mapping:
            self._next()
            return mapping[str(keyword)]
        raise ParseError(f"expected type, found {token}", token.loc)

    def _parse_pointers(self, base: Type) -> Type:
        ty = base
        token = self.tokens[self.pos]
        depth = _type_depth(base)
        while token.kind == "op" and token.value == "*":
            depth += 1
            self._type_level(depth, token)
            self.pos += 1
            ty = PointerType(ty)
            token = self.tokens[self.pos]
        return ty

    def _parse_type(self) -> Type:
        """Parse a full type for casts/sizeof: base + pointers (no name),
        including abstract function-pointer types ``ret (*)(params)``."""
        ty = self._parse_pointers(self._parse_base_type())
        if self._peek().is_op("(") and self._peek(1).is_op("*"):
            self._next()  # (
            self._next()  # *
            self._expect_op(")")
            params, variadic = self._parse_param_types()
            return PointerType(FunctionType(ty, tuple(params), variadic))
        return ty

    def _parse_array_suffix(self, ty: Type) -> Type:
        """Parse zero or more `[N]` suffixes; sizes are constant exprs."""
        dims: list[int] = []
        depth = _type_depth(ty)
        while self._peek().is_op("["):
            depth += 1
            self._type_level(depth, self._next())
            if self._peek().is_op("]"):
                # Unsized: completed later from the initializer.
                dims.append(-1)
            else:
                size_expr = self.parse_expression()
                dims.append(self._const_int(size_expr))
            self._expect_op("]")
        for dim in reversed(dims):
            ty = ArrayType(ty, dim)
        return ty

    def _const_int(self, expr: ast.Expr) -> int:
        """Evaluate a compile-time integer constant expression."""
        value = _eval_const_int(expr)
        if value is None:
            raise ParseError("expected constant integer expression", expr.loc)
        return value

    # -- top level ------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(self._peek().loc)
        while self._peek().kind != "eof":
            unit.decls.extend(self._parse_top_level())
        return unit

    def _parse_top_level(self) -> list[ast.Node]:
        loc = self._peek().loc
        is_extern = self._accept_kw("extern")
        self._accept_kw("static")  # accepted, ignored (single-namespace link)
        self._accept_kw("const")
        if self._peek().is_kw("struct") and self._peek(1).kind == "ident" and self._peek(2).is_op("{"):
            return [self._parse_struct_decl()]
        base = self._parse_base_type()
        if self._accept_op(";"):
            return []  # e.g. `struct Foo;` forward declaration alone
        decls: list[ast.Node] = []
        while True:
            decls.append(self._parse_declarator(base, loc, is_extern, top_level=True))
            if isinstance(decls[-1], ast.FunctionDef) and decls[-1].body is not None:
                return decls
            if self._accept_op(","):
                continue
            self._expect_op(";")
            return decls

    def _parse_struct_decl(self) -> ast.StructDecl:
        loc = self._expect_kw("struct").loc
        tag = str(self._expect_ident().value)
        self._expect_op("{")
        members: list[tuple[str, Type]] = []
        while not self._accept_op("}"):
            member_base = self._parse_base_type()
            while True:
                member_type = self._parse_pointers(member_base)
                member_name = str(self._expect_ident().value)
                member_type = self._parse_array_suffix(member_type)
                members.append((member_name, member_type))
                if not self._accept_op(","):
                    break
            self._expect_op(";")
        self._expect_op(";")
        struct_type = layout_struct(tag, members)
        self.struct_types[tag] = struct_type
        return ast.StructDecl(loc, tag, members)

    def _parse_declarator(
        self, base: Type, loc, is_extern: bool, top_level: bool
    ) -> ast.Node:
        ty = self._parse_pointers(base)
        # Restricted function-pointer declarator: ret (*name)(params) and
        # arrays of function pointers: ret (*name[N])(params).
        if self._peek().is_op("(") and self._peek(1).is_op("*"):
            self._next()  # (
            self._next()  # *
            name = str(self._expect_ident().value)
            array_count = -2  # -2 = not an array
            if self._accept_op("["):
                array_count = self._const_int(self.parse_expression())
                self._expect_op("]")
            self._expect_op(")")
            params, variadic = self._parse_param_types()
            fp_type: Type = PointerType(FunctionType(ty, tuple(params), variadic))
            if array_count != -2:
                fp_type = ArrayType(fp_type, array_count)
            init = None
            if self._accept_op("="):
                init = self.parse_assignment()
            return ast.GlobalVar(loc, name, fp_type, init, is_extern=is_extern)
        name = str(self._expect_ident().value)
        if self._peek().is_op("("):
            return self._parse_function_rest(ty, name, loc)
        ty = self._parse_array_suffix(ty)
        init: ast.Expr | None = None
        init_list: list[ast.Expr] | None = None
        init_string: str | None = None
        if self._accept_op("="):
            if self._peek().is_op("{"):
                init_list = self._parse_init_list()
            elif self._peek().kind == "string" and isinstance(ty, ArrayType):
                init_string = str(self._next().value)
            else:
                init = self.parse_assignment()
        ty = _complete_array(ty, init_list, init_string)
        return ast.GlobalVar(loc, name, ty, init, init_list, init_string, is_extern)

    def _parse_init_list(self) -> list[ast.Expr]:
        self._nest(self._expect_op("{"))
        items: list[ast.Expr] = []
        if not self._peek().is_op("}"):
            while True:
                if self._peek().is_op("{"):
                    items.extend(self._parse_init_list())  # flattened nesting
                else:
                    items.append(self.parse_assignment())
                if not self._accept_op(","):
                    break
                if self._peek().is_op("}"):
                    break  # trailing comma
        self._expect_op("}")
        self._depth -= 1
        return items

    def _parse_param_types(self) -> tuple[list[Type], bool]:
        self._expect_op("(")
        params: list[Type] = []
        variadic = False
        if not self._peek().is_op(")"):
            if self._peek().is_kw("void") and self._peek(1).is_op(")"):
                self._next()
            else:
                while True:
                    if self._accept_op("..."):
                        variadic = True
                        break
                    param_type = self._parse_pointers(self._parse_base_type())
                    if self._peek().kind == "ident":
                        self._next()
                    param_type = self._decay_param(param_type)
                    params.append(param_type)
                    if not self._accept_op(","):
                        break
        self._expect_op(")")
        return params, variadic

    def _decay_param(self, ty: Type) -> Type:
        # `int a[]` / `int a[N]` parameters decay to pointers.
        depth = _type_depth(ty)
        while self._peek().is_op("["):
            depth += 1
            self._type_level(depth, self._next())
            if not self._peek().is_op("]"):
                self.parse_expression()
            self._expect_op("]")
            ty = PointerType(ty)
        return ty

    def _parse_function_rest(self, return_type: Type, name: str, loc) -> ast.FunctionDef:
        self._expect_op("(")
        params: list[Type] = []
        param_names: list[str] = []
        variadic = False
        if not self._peek().is_op(")"):
            if self._peek().is_kw("void") and self._peek(1).is_op(")"):
                self._next()
            else:
                while True:
                    if self._accept_op("..."):
                        variadic = True
                        break
                    param_base = self._parse_base_type()
                    param_type = self._parse_pointers(param_base)
                    # Function-pointer parameter: ret (*name)(params)
                    if self._peek().is_op("(") and self._peek(1).is_op("*"):
                        self._next()
                        self._next()
                        param_name = str(self._expect_ident().value)
                        self._expect_op(")")
                        inner, inner_var = self._parse_param_types()
                        param_type = PointerType(
                            FunctionType(param_type, tuple(inner), inner_var)
                        )
                    else:
                        if self._peek().kind == "ident":
                            param_name = str(self._next().value)
                        else:
                            # Unnamed parameter (prototype style).
                            param_name = f"__anon{len(params)}"
                        param_type = self._decay_param(param_type)
                    params.append(param_type)
                    param_names.append(param_name)
                    if not self._accept_op(","):
                        break
        self._expect_op(")")
        func_type = FunctionType(return_type, tuple(params), variadic)
        if self._peek().is_op("{"):
            body = self.parse_block()
            return ast.FunctionDef(loc, name, func_type, param_names, body)
        return ast.FunctionDef(loc, name, func_type, param_names, None)

    # -- statements ------------------------------------------------------------

    def parse_block(self) -> ast.Block:
        loc = self._expect_op("{").loc
        statements: list[ast.Stmt] = []
        while not self._accept_op("}"):
            statements.append(self.parse_statement())
        return ast.Block(loc, statements)

    def parse_statement(self) -> ast.Stmt:
        token = self.tokens[self.pos]
        self._nest(token)
        stmt = self._parse_statement(token)
        self._depth -= 1
        return stmt

    def _parse_statement(self, token: Token) -> ast.Stmt:
        kind, value = token.kind, token.value
        if kind == "op":
            if value == "{":
                return self.parse_block()
            if value == ";":
                self.pos += 1
                return ast.Block(token.loc, [])
        elif kind == "kw":
            if value == "if":
                return self._parse_if()
            if value == "while":
                return self._parse_while()
            if value == "do":
                return self._parse_do_while()
            if value == "for":
                return self._parse_for()
            if value == "break":
                self.pos += 1
                self._expect_op(";")
                return ast.Break(token.loc)
            if value == "continue":
                self.pos += 1
                self._expect_op(";")
                return ast.Continue(token.loc)
            if value == "return":
                self.pos += 1
                value = None if self._peek().is_op(";") else self.parse_expression()
                self._expect_op(";")
                return ast.Return(token.loc, value)
            if value in _TYPE_KEYWORDS and not (
                value == "struct" and self._peek(1).kind != "ident"
            ):
                return self._parse_local_decl()
        expr = self.parse_expression()
        self._expect_op(";")
        return ast.ExprStmt(token.loc, expr)

    def _parse_local_decl(self) -> ast.Stmt:
        loc = self._peek().loc
        self._accept_kw("const")
        base = self._parse_base_type()
        decls: list[ast.Stmt] = []
        while True:
            ty = self._parse_pointers(base)
            if self._peek().is_op("(") and self._peek(1).is_op("*"):
                self._next()
                self._next()
                name = str(self._expect_ident().value)
                self._expect_op(")")
                params, variadic = self._parse_param_types()
                ty = PointerType(FunctionType(ty, tuple(params), variadic))
                init = self.parse_assignment() if self._accept_op("=") else None
                decls.append(ast.DeclStmt(loc, name, ty, init))
            else:
                name = str(self._expect_ident().value)
                ty = self._parse_array_suffix(ty)
                init: ast.Expr | None = None
                init_list: list[ast.Expr] | None = None
                if self._accept_op("="):
                    if self._peek().is_op("{"):
                        init_list = self._parse_init_list()
                    else:
                        init = self.parse_assignment()
                ty = _complete_array(ty, init_list, None)
                stmt = ast.DeclStmt(loc, name, ty, init)
                stmt.init_list = init_list
                decls.append(stmt)
            if not self._accept_op(","):
                break
        self._expect_op(";")
        if len(decls) == 1:
            return decls[0]
        return ast.DeclGroup(loc, decls)

    def _parse_if(self) -> ast.If:
        loc = self._expect_kw("if").loc
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        then = self.parse_statement()
        otherwise = self.parse_statement() if self._accept_kw("else") else None
        return ast.If(loc, cond, then, otherwise)

    def _parse_while(self) -> ast.While:
        loc = self._expect_kw("while").loc
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        return ast.While(loc, cond, self.parse_statement())

    def _parse_do_while(self) -> ast.DoWhile:
        loc = self._expect_kw("do").loc
        body = self.parse_statement()
        self._expect_kw("while")
        self._expect_op("(")
        cond = self.parse_expression()
        self._expect_op(")")
        self._expect_op(";")
        return ast.DoWhile(loc, body, cond)

    def _parse_for(self) -> ast.For:
        loc = self._expect_kw("for").loc
        self._expect_op("(")
        init: ast.Stmt | None = None
        if not self._peek().is_op(";"):
            if self._at_type():
                init = self._parse_local_decl()
            else:
                init = ast.ExprStmt(self._peek().loc, self.parse_expression())
                self._expect_op(";")
        else:
            self._next()
        cond = None if self._peek().is_op(";") else self.parse_expression()
        self._expect_op(";")
        step = None if self._peek().is_op(")") else self.parse_expression()
        self._expect_op(")")
        return ast.For(loc, init, cond, step, self.parse_statement())

    # -- expressions -----------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        saved = self._start_chain()
        expr = self.parse_assignment()
        while self._peek().is_op(","):
            # Comma expressions are rare; model as a Binary with op ','.
            token = self._next()
            before = self._deepest
            right = self.parse_assignment()
            self._link(before, token)
            expr = ast.Binary(token.loc, ",", expr, right)
        self._end_chain(saved)
        return expr

    def parse_assignment(self) -> ast.Expr:
        self._nest(self.tokens[self.pos])
        left = self._parse_conditional()
        token = self.tokens[self.pos]
        if token.kind == "op" and token.value in _ASSIGN_OPS:
            self.pos += 1
            right = self.parse_assignment()
            left = ast.Assign(token.loc, token.value, left, right)
        self._depth -= 1
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_binary(1)
        if self._peek().is_op("?"):
            loc = self._next().loc
            then = self.parse_expression()
            self._expect_op(":")
            otherwise = self.parse_assignment()
            return ast.Conditional(loc, cond, then, otherwise)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        saved = self._start_chain()
        left = self._parse_unary()
        while True:
            token = self.tokens[self.pos]
            if token.kind != "op":
                break
            precedence = _BINOP_PRECEDENCE.get(token.value, 0)
            if precedence < min_precedence or precedence == 0:
                break
            self.pos += 1
            before = self._deepest
            self._nest(token)
            right = self._parse_binary(precedence + 1)
            self._depth -= 1
            self._link(before, token)
            left = ast.Binary(token.loc, token.value, left, right)
        self._end_chain(saved)
        return left

    def _unary_operand(self, token: Token) -> ast.Expr:
        """The operand of the prefix operator, cast or sizeof at *token*."""
        self._nest(token)
        operand = self._parse_unary()
        self._depth -= 1
        return operand

    def _parse_unary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind, value = token.kind, token.value
        if kind == "op":
            if value in ("-", "+", "!", "~", "*", "&"):
                self.pos += 1
                operand = self._unary_operand(token)
                if value == "+":
                    return operand
                return ast.Unary(token.loc, value, operand)
            if value == "++" or value == "--":
                self.pos += 1
                return ast.Unary(token.loc, value, self._unary_operand(token))
            if value == "(" and self._is_type_ahead(1):
                self.pos += 1
                ty = self._parse_type()
                self._expect_op(")")
                operand = self._unary_operand(token)
                return ast.Cast(token.loc, ty, operand)
        elif kind == "kw" and value == "sizeof":
            self.pos += 1
            if self._peek().is_op("(") and self._is_type_ahead(1):
                self._expect_op("(")
                ty = self._parse_type()
                ty = self._parse_array_suffix(ty)
                self._expect_op(")")
                return ast.SizeOf(token.loc, ty, None)
            operand = self._unary_operand(token)
            return ast.SizeOf(token.loc, None, operand)
        return self._parse_postfix()

    def _is_type_ahead(self, offset: int) -> bool:
        token = self._peek(offset)
        return token.kind == "kw" and token.value in _TYPE_KEYWORDS

    def _parse_postfix(self) -> ast.Expr:
        saved = self._start_chain()
        expr = self._parse_primary()
        while True:
            token = self.tokens[self.pos]
            if token.kind != "op":
                break
            value = token.value
            before = self._deepest
            if value == "(":
                self.pos += 1
                args: list[ast.Expr] = []
                if not self._peek().is_op(")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self._accept_op(","):
                            break
                self._expect_op(")")
                expr = ast.Call(token.loc, expr, args)
            elif value == "[":
                self.pos += 1
                index = self.parse_expression()
                self._expect_op("]")
                expr = ast.Index(token.loc, expr, index)
            elif value == "." or value == "->":
                self.pos += 1
                name = str(self._expect_ident().value)
                expr = ast.Member(token.loc, expr, name, arrow=value == "->")
            elif value == "++" or value == "--":
                self.pos += 1
                expr = ast.Postfix(token.loc, value, expr)
            else:
                break
            self._link(before, token)
        self._end_chain(saved)
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._next()
        if token.kind == "int":
            return ast.IntLiteral(token.loc, int(token.value))
        if token.kind == "uint":
            return ast.IntLiteral(token.loc, int(token.value), unsigned=True)
        if token.kind == "float":
            return ast.FloatLiteral(token.loc, float(token.value))
        if token.kind == "char":
            return ast.CharLiteral(token.loc, int(token.value))
        if token.kind == "string":
            return ast.StringLiteral(token.loc, str(token.value))
        if token.kind == "ident":
            return ast.Identifier(token.loc, str(token.value))
        if token.is_op("("):
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        raise ParseError(f"unexpected token {token}", token.loc)


def _complete_array(
    ty: Type, init_list: list[ast.Expr] | None, init_string: str | None
) -> Type:
    """Fill in the size of an unsized array from its initializer."""
    if isinstance(ty, ArrayType) and ty.count == -1:
        if init_string is not None:
            return ArrayType(ty.element, len(init_string) + 1)
        if init_list is not None:
            return ArrayType(ty.element, len(init_list))
        raise ParseError("unsized array requires an initializer", SourceLocationDefault())
    return ty


def _type_depth(ty: Type) -> int:
    """Pointer and array levels above the innermost element type."""
    depth = 0
    while isinstance(ty, (PointerType, ArrayType)):
        depth += 1
        ty = ty.pointee if isinstance(ty, PointerType) else ty.element
    return depth


def SourceLocationDefault():
    from repro.errors import SourceLocation

    return SourceLocation()


def _eval_const_int(expr: ast.Expr) -> int | None:
    """Best-effort constant folding for array dimensions."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.CharLiteral):
        return expr.value
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _eval_const_int(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.Binary):
        left = _eval_const_int(expr.left)
        right = _eval_const_int(expr.right)
        if left is None or right is None:
            return None
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
            "/": lambda a, b: a // b if b else None,
            "%": lambda a, b: a % b if b else None,
            "<<": lambda a, b: a << b,
            ">>": lambda a, b: a >> b,
            "&": lambda a, b: a & b,
            "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
        }
        fn = ops.get(expr.op)
        return None if fn is None else fn(left, right)
    return None


def parse(source: str, filename: str = "<input>") -> ast.TranslationUnit:
    """Parse MiniC *source* into an AST."""
    return Parser(tokenize(source, filename)).parse_translation_unit()
