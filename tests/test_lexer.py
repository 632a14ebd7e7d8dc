"""Unit tests for the MiniC lexer."""

import pytest

from repro.errors import LexError
from repro.frontend.lexer import tokenize


def kinds(source):
    return [(t.kind, t.value) for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_and_identifiers(self):
        assert kinds("int foo while whiles") == [
            ("kw", "int"), ("ident", "foo"), ("kw", "while"),
            ("ident", "whiles"),
        ]

    def test_unsigned_aliases_to_uint(self):
        assert kinds("unsigned")[0] == ("kw", "uint")
        assert kinds("uint")[0] == ("kw", "uint")

    def test_numbers(self):
        assert kinds("0 42 0x1F 0xdeadBEEF") == [
            ("int", 0), ("int", 42), ("int", 31), ("int", 0xDEADBEEF),
        ]

    def test_integer_suffixes(self):
        assert kinds("42u 42U 42L 42ul 0x10u") == [
            ("uint", 42), ("uint", 42), ("int", 42), ("uint", 42),
            ("uint", 16)]

    def test_floats(self):
        values = kinds("1.5 2. is not float; 1e3 2.5e-2 3.0f")
        assert ("float", 1.5) in values
        assert ("float", 1000.0) in values
        assert ("float", 0.025) in values
        assert ("float", 3.0) in values

    def test_char_literals(self):
        assert kinds(r"'a' '\n' '\0' '\x41' '\\'") == [
            ("char", 97), ("char", 10), ("char", 0), ("char", 65),
            ("char", 92),
        ]

    def test_string_literals(self):
        assert kinds(r'"hi\tthere\n"') == [("string", "hi\tthere\n")]

    def test_operators_maximal_munch(self):
        ops = [v for k, v in kinds("a<<=b>>c<=d->e++ +")]
        assert "<<=" in ops and ">>" in ops and "<=" in ops
        assert "->" in ops and "++" in ops

    def test_comments_stripped(self):
        src = """
        int a; // line comment with int b;
        /* block
           comment */ int c;
        # preprocessor-ish line skipped
        """
        names = [v for k, v in kinds(src) if k == "ident"]
        assert names == ["a", "c"]

    def test_locations(self):
        tokens = tokenize("int\n  foo")
        assert tokens[0].loc.line == 1
        assert tokens[1].loc.line == 2
        assert tokens[1].loc.col == 3


class TestLexErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"never ends')

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* forever")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int a = `b`;")

    def test_bad_escape(self):
        with pytest.raises(LexError):
            tokenize(r"'\q'")


class TestEndOfInputRegressions:
    """Literals that end exactly at end of input.  A character-at-a-time
    lexer once read "" there, and `"" in "uUlL"` is True in Python, so
    these inputs hung or mis-tokenized."""

    def test_integer_at_end_of_input(self):
        assert kinds("42") == [("int", 42)]

    def test_hex_at_end_of_input(self):
        assert kinds("0xFF") == [("int", 255)]

    def test_suffixed_integer_at_end_of_input(self):
        assert kinds("42u") == [("uint", 42)]

    def test_float_not_inferred_at_eof(self):
        kind, value = kinds("7")[0]
        assert kind == "int" and value == 7

    def test_truncated_hex_escape_does_not_hang(self):
        with pytest.raises(LexError):
            tokenize("'\\x")


class TestHexEscapeRuns:
    """A malformed string after a run of hex escapes.  If the digits of
    an escape could also be read as plain characters, a regex scanner
    would try every split of every escape before failing: about 2**64
    steps for the 64 escapes here."""

    ESCAPES = "\\x00" * 64

    def test_unterminated_string(self):
        with pytest.raises(LexError) as err:
            tokenize('s = "' + self.ESCAPES, "f.c")
        assert str(err.value) == "f.c:1:5: unterminated string literal"

    def test_unknown_escape_after_the_run(self):
        with pytest.raises(LexError) as err:
            tokenize('s = "' + self.ESCAPES + '\\q";', "f.c")
        assert str(err.value) == "f.c:1:263: unknown escape sequence \\q"

    def test_bad_hex_escape_after_the_run(self):
        with pytest.raises(LexError) as err:
            tokenize('"' + self.ESCAPES + '\\xg"', "f.c")
        assert str(err.value) == "f.c:1:260: bad hex escape"

    def test_hex_escape_takes_every_digit(self):
        assert kinds('"\\x41BC" \'\\x141\'') == [
            ("string", "\xbc"), ("char", 0x41)]
