"""Malformed or hostile source fails with a typed compile error at every
surface: the library, the ``omnicc`` CLI and the hosting service.

Two inputs used to escape as raw Python exceptions: a hex literal with no
digits (``ValueError`` from ``int("0x", 16)``) and deep nesting
(``RecursionError`` in the recursive phases).  The MiniC parser and the
MiniLisp reader now refuse nesting beyond
:data:`repro.frontend.parser.MAX_NESTING`.
"""

import pytest

from repro import Engine, ModuleRequest
from repro.cli import main
from repro.errors import LexError, ParseError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import MAX_NESTING
from repro.lang2.compiler import compile_minilisp


def compile_error(source):
    """The error Engine.compile raises for *source*, or None."""
    try:
        Engine().compile(source)
    except (LexError, ParseError) as err:
        return err
    return None


def cli(tmp_path, capsys, source, name="prog.c"):
    path = tmp_path / name
    path.write_text(source)
    code = main(["run", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def serve(source):
    with Engine().serve(workers=1) as host:
        return host.run(ModuleRequest(program=source))


class TestHexLiteralWithoutDigits:
    SOURCE = "int main() {\n  int x = 0x;\n  emit_int(x); return 0; }"

    def test_tokenize_raises_at_the_literal(self):
        with pytest.raises(LexError) as info:
            tokenize(self.SOURCE, "p.c")
        assert (info.value.loc.line, info.value.loc.col) == (2, 11)
        assert "'0x' has no digits" in str(info.value)

    def test_suffix_alone_is_not_a_digit(self):
        with pytest.raises(LexError):
            tokenize("0Xu")

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        code, out, err = cli(tmp_path, capsys, self.SOURCE)
        assert code == 1 and out == ""
        assert err.startswith("omnicc: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_service_returns_a_typed_error(self):
        response = serve(self.SOURCE)
        assert not response.ok and response.error == "LexError"
        assert response.latency_seconds > 0


def parens(depth):
    # `return` opens one level and its expression another; each pair of
    # parentheses opens one more.
    inner = depth - 2
    return ("int main() { int a = 0;\n return " + "(" * inner + "a"
            + ")" * inner + "; }")


def plus_chain(depth):
    # Each `+` of a left-associative chain pushes the chain one level down.
    return "int main() { int a = 0;\n return " + " + ".join(["a"] * (depth - 1)) + "; }"


def blocks(depth):
    # Each brace opens one statement level; `a;` is one more and its
    # expression another.
    inner = depth - 2
    return "int main() { int a = 0;\n" + "{" * inner + " a; " + "}" * inner + " return a; }"


SHAPES = {"parens": parens, "plus_chain": plus_chain, "blocks": blocks}


class TestNestingLimit:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_the_limit_compiles_and_one_more_is_refused(self, shape):
        make = SHAPES[shape]
        assert compile_error(make(MAX_NESTING)) is None
        err = compile_error(make(MAX_NESTING + 1))
        assert isinstance(err, ParseError)
        assert f"nesting deeper than {MAX_NESTING} levels" in str(err)

    def test_error_is_at_the_token_that_crosses_the_limit(self):
        # The chain's (MAX_NESTING - 1)-th `+` is its first too-deep link.
        err = compile_error(plus_chain(MAX_NESTING + 1))
        column = len(" return a") + len(" + a") * (MAX_NESTING - 2) + 2
        assert (err.loc.line, err.loc.col) == (2, column)

    def test_what_overflowed_the_stack_is_refused(self):
        # At the parent these raised RecursionError (in sema, and in the
        # parser respectively).
        chain = "int main() { int a = 1; return " + " + ".join(["a"] * 400) + "; }"
        nested = "int main() { return " + "(" * 200 + "1" + ")" * 200 + "; }"
        for source in (chain, nested):
            assert isinstance(compile_error(source), ParseError)

    def test_deep_types_and_initializers_are_bounded(self):
        pointer = "int main() { int " + "*" * (MAX_NESTING + 1) + "p; return 0; }"
        braces = ("int g[1] = " + "{" * (MAX_NESTING + 1) + "1"
                  + "}" * (MAX_NESTING + 1) + "; int main() { return 0; }")
        for source in (pointer, braces):
            assert isinstance(compile_error(source), ParseError)

    def test_cli(self, tmp_path, capsys):
        code, out, err = cli(tmp_path, capsys, parens(MAX_NESTING))
        assert code == 0 and err == ""
        code, out, err = cli(tmp_path, capsys, parens(MAX_NESTING + 1))
        assert code == 1 and out == ""
        assert err.startswith("omnicc: error: ") and "nesting deeper" in err
        assert err.count("\n") == 1

    def test_service_worker(self):
        assert serve(parens(MAX_NESTING)).ok
        response = serve(parens(MAX_NESTING + 1))
        assert not response.ok and response.error == "ParseError"


def lisp(depth):
    # The defun is one level; each `(+ 1 ...)` of its body one more.
    return ("(defun main () " + "(+ 1 " * (depth - 1) + "0"
            + ")" * (depth - 1) + ")")


class TestMiniLispNestingLimit:
    """The MiniLisp reader and compiler recurse once or twice per
    level; without the bound a 2000-deep form raised RecursionError."""

    def test_the_limit_compiles_and_one_more_is_refused(self):
        compile_minilisp(lisp(MAX_NESTING))
        for depth in (MAX_NESTING + 1, 2000):
            with pytest.raises(ParseError) as info:
                compile_minilisp(lisp(depth))
            assert f"nesting deeper than {MAX_NESTING} levels" in \
                str(info.value)

    def test_cli(self, tmp_path, capsys):
        code, out, err = cli(tmp_path, capsys, lisp(MAX_NESTING),
                             "prog.lisp")
        # main returns 1 + 1 + ... + 0, one 1 per `+`.
        assert (code, out, err) == (MAX_NESTING - 1, "", "")
        for depth in (MAX_NESTING + 1, 2000):
            code, out, err = cli(tmp_path, capsys, lisp(depth), "prog.lisp")
            assert code == 1 and out == ""
            assert err.startswith("omnicc: error: ") and \
                "nesting deeper" in err
            assert err.count("\n") == 1
