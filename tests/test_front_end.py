"""The lexer and parser pinned by table: the message, line and column of
every ParseError below, and the tokens of a few valid inputs.

Characters are classified as by ``str``: an identifier starts with a
character for which ``isalpha()`` holds, or ``_``, and goes on while
``isalnum()`` or ``_`` holds; a number is a run of characters for which
``isdigit()`` holds; whitespace is exactly space, tab, carriage return and
newline.  So ``é`` starts an identifier, ``²`` is a digit, ``½`` (numeric
but not a digit) may only continue an identifier, and form feed and
vertical tab are unexpected characters.
"""

import pytest

from cobeq import syntax as sx
from cobeq.syntax import ParseError

PARSERS = {"term": sx.parse_term, "obj": sx.parse_obj, "document": sx.parse_document}

# (parser, input, message, line, col)
ERRORS = [
    ("term", "", "expected a term, found ''", 1, 1),
    ("term", "id[p] .", "expected a term, found ''", 1, 8),
    ("term", "eta[p", "expected RBRACK, found ''", 1, 6),
    ("term", "nosuchgen", "unknown name 'nosuchgen'", 1, 1),
    ("term", "(b1", "expected RPAREN, found ''", 1, 4),
    ("term", "b1)", "expected EOF, found ')'", 1, 3),
    ("term", "b1 b2", "expected EOF, found 'b2'", 1, 4),
    ("term", "b1 ^ b2", "expected '^*'", 1, 4),
    ("term", "b1 @ b2", "unexpected character '@'", 1, 4),
    ("term", "inv b1", "expected LPAREN, found 'b1'", 1, 5),
    ("term", "inv(b9)", "undeclared generator 'b9'", 1, 5),
    ("term", "inv(id)", "undeclared generator 'id'", 1, 5),
    ("term", "inv(b1", "expected RPAREN, found ''", 1, 7),
    ("term", "inv()", "expected IDENT, found ')'", 1, 5),
    ("term", "id[]", "expected an object, found ']'", 1, 4),
    ("term", "id[p, p]", "expected RBRACK, found ','", 1, 5),
    ("term", "sigma[p]", "expected COMMA, found ']'", 1, 8),
    ("term", "alpha[p, p p]", "expected COMMA, found 'p'", 1, 12),
    ("term", "id(p)", "expected LBRACK, found '('", 1, 3),
    ("term", "id[q]", "expected an object, found 'q'", 1, 4),
    ("term", "id[p^]", "expected '^*'", 1, 5),
    ("term", "id[p (x)]", "expected an object, found ']'", 1, 9),
    ("term", "id[(p]", "expected RPAREN, found ']'", 1, 6),
    ("term", "b1 . . b2", "expected a term, found '.'", 1, 6),
    ("term", "b1 (x) (+) b2", "expected a term, found '(+)'", 1, 8),
    ("term", "!b1", "expected a term, found '!'", 1, 1),
    ("term", "b1 . !", "expected a term, found '!'", 1, 6),
    ("term", "b1\n  . \n  @", "unexpected character '@'", 3, 3),
    ("term", "# comment only", "expected a term, found ''", 1, 15),
    ("term", "b1 # trailing\n)", "expected EOF, found ')'", 2, 1),
    ("term", "((b1)", "expected RPAREN, found ''", 1, 6),
    ("term", "(b1))", "expected EOF, found ')'", 1, 5),
    ("term", "b1 = b2", "expected EOF, found '='", 1, 4),
    ("term", "b1 == b2", "expected EOF, found '=='", 1, 4),
    ("term", "0", "expected a term, found '0'", 1, 1),
    ("term", "é", "unknown name 'é'", 1, 1),
    ("term", "b1 . ²", "expected a term, found '²'", 1, 6),
    ("term", "b1 . ½", "unexpected character '½'", 1, 6),
    ("term", "b1\f", "unexpected character '\\x0c'", 1, 3),
    ("term", "b1\v", "unexpected character '\\x0b'", 1, 3),
    ("term", "b²", "unknown name 'b²'", 1, 1),
    ("term", "b1 . 2x", "expected a term, found '2'", 1, 6),
    ("term", "zero[p, 0 0]", "expected RBRACK, found '0'", 1, 11),
    ("term", "id[I0]", "expected an object, found 'I0'", 1, 4),
    ("term", "let", "expected a term, found 'let'", 1, 1),
    ("term", "inv(b1)(x)", "expected a term, found ''", 1, 11),
    ("term", "id[p]!!(", "expected EOF, found '('", 1, 8),
    ("term", "(((b1 . b2) (x) (b3 + b4)", "expected RPAREN, found ''", 1, 26),
    ("term", "b1 (+) (b2 . (b3 (x) id[p ^ *]))", "expected '^*'", 1, 27),
    ("obj", "", "expected an object, found ''", 1, 1),
    ("obj", "p (x)", "expected an object, found ''", 1, 6),
    ("obj", "p p", "expected EOF, found 'p'", 1, 3),
    ("obj", "(p (+) I", "expected RPAREN, found ''", 1, 9),
    ("obj", "p^", "expected '^*'", 1, 2),
    ("obj", "p !", "expected EOF, found '!'", 1, 3),
    ("obj", "p .", "expected EOF, found '.'", 1, 3),
    ("obj", "00", "expected an object, found '00'", 1, 1),
    ("obj", "½", "unexpected character '½'", 1, 1),
    ("obj", "p\v", "unexpected character '\\x0b'", 1, 2),
    ("obj", "(p))", "expected EOF, found ')'", 1, 4),
    ("obj", "p (x) (I (+) ) ", "expected an object, found ')'", 1, 14),
    ("obj", "P", "expected an object, found 'P'", 1, 1),
    ("document", "", "expected GENS, found ''", 1, 1),
    ("document", "gens b1", "expected SEMI, found ''", 1, 8),
    ("document", "gens b1; foo", "expected 'let' or 'check'", 1, 10),
    ("document", "gens b1;\nlet x = b1", "expected SEMI, found ''", 2, 11),
    ("document", "gens b1;\nlet b1 = b1;", "name 'b1' already in use", 2, 5),
    ("document", "gens b1;\nlet id = b1;", "name 'id' already in use", 2, 5),
    ("document", "gens b1;\nlet x = b1;\nlet x = b1;", "name 'x' already in use", 3, 5),
    ("document", "gens b1;\ncheck b1 = b1;", "expected EQEQ, found '='", 2, 10),
    ("document", "gens b1;\ncheck b1 == b2;", "unknown name 'b2'", 2, 13),
    ("document", "gens b1;\ncheck inv(b2) == b1;", "undeclared generator 'b2'", 2, 11),
    ("document", "gens b1;\nlet 2 = b1;", "expected IDENT, found '2'", 2, 5),
    ("document", "gens b1 ;\ncheck b1 == b1", "expected SEMI, found ''", 2, 15),
    ("document", "gens b1;\r\ncheck b1 ==\r\n  @;", "unexpected character '@'", 3, 3),
    ("document", "gens b1;\ncheck\tb1 == \fb1;", "unexpected character '\\x0c'", 2, 13),
    ("document", "let x = b1;", "expected GENS, found 'let'", 1, 1),
    ("document", "gens b1 2;", "expected SEMI, found '2'", 1, 9),
    ("document", "gens é;\ncheck é == é . inv(e);", "undeclared generator 'e'", 2, 20),
    ("document", "gens b1;\n# c\n  check b1 == b1;;", "expected 'let' or 'check'", 3, 18),
    ("document", "gens b1;\nlet x = b1;\ncheck x == y;", "unknown name 'y'", 3, 12),
]
# ``inv(x)`` lexes ``(x)`` as the tensor, and a primitive's name always parses
# as the primitive, so no term could use these as generators.
ERRORS += [("document", f"gens b1 {name};", f"{name!r} cannot name a generator", 1, 9)
           for name in ["x", *sorted(sx._PRIM_ARITY)]]


@pytest.mark.parametrize("parser, text, message, line, col", ERRORS)
def test_parse_error(parser, text, message, line, col):
    with pytest.raises(ParseError) as err:
        PARSERS[parser](text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{line}:{col}: {message}",
                                                               line, col)


def test_gens_accepts_names_that_only_start_like_reserved_ones():
    # Only ``x`` and the primitives' names are refused (see ERRORS).
    doc = sx.parse_document("gens xs ids;\ncheck inv(xs) . xs == ids . inv(ids);")
    assert doc.alphabet.names == ("xs", "ids") and len(doc.checks) == 1


def _tokens(text):
    """(kind, text, line, col) of each token, whether the lexer emits them
    as tuples or as records with those fields."""
    return [tok if isinstance(tok, tuple) else (tok.kind, tok.text, tok.line, tok.col)
            for tok in sx._lex(text)]


TOKENS = [
    ("", [("EOF", "", 1, 1)]),
    ("gens b1 b2;\nlet x = inv(b1) . b2!; # note\ncheck x == (b1 (x) id[p^*]) (+) zero[0, I];",
     [("GENS", "gens", 1, 1), ("IDENT", "b1", 1, 6), ("IDENT", "b2", 1, 9),
      ("SEMI", ";", 1, 11), ("LET", "let", 2, 1), ("IDENT", "x", 2, 5), ("EQ", "=", 2, 7),
      ("INV", "inv", 2, 9), ("LPAREN", "(", 2, 12), ("IDENT", "b1", 2, 13),
      ("RPAREN", ")", 2, 15), ("DOT", ".", 2, 17), ("IDENT", "b2", 2, 19),
      ("BANG", "!", 2, 21), ("SEMI", ";", 2, 22), ("CHECK", "check", 3, 1),
      ("IDENT", "x", 3, 7), ("EQEQ", "==", 3, 9), ("LPAREN", "(", 3, 12),
      ("IDENT", "b1", 3, 13), ("TENSOR", "(x)", 3, 16), ("IDENT", "id", 3, 20),
      ("LBRACK", "[", 3, 22), ("IDENT", "p", 3, 23), ("STAR", "^*", 3, 24),
      ("RBRACK", "]", 3, 26), ("RPAREN", ")", 3, 27), ("OPLUS", "(+)", 3, 29),
      ("IDENT", "zero", 3, 33), ("LBRACK", "[", 3, 37), ("NUMBER", "0", 3, 38),
      ("COMMA", ",", 3, 39), ("IDENT", "I", 3, 41), ("RBRACK", "]", 3, 42),
      ("SEMI", ";", 3, 43), ("EOF", "", 3, 44)]),
    ("é_1 ² 12 0² b½ _x 2x",
     [("IDENT", "é_1", 1, 1), ("NUMBER", "²", 1, 5), ("NUMBER", "12", 1, 7),
      ("NUMBER", "0²", 1, 10), ("IDENT", "b½", 1, 13), ("IDENT", "_x", 1, 16),
      ("NUMBER", "2", 1, 19), ("IDENT", "x", 1, 20), ("EOF", "", 1, 21)]),
    ("\r\n\t alpha_inv[p,p,p]+lam[I]",
     [("IDENT", "alpha_inv", 2, 3), ("LBRACK", "[", 2, 12), ("IDENT", "p", 2, 13),
      ("COMMA", ",", 2, 14), ("IDENT", "p", 2, 15), ("COMMA", ",", 2, 16),
      ("IDENT", "p", 2, 17), ("RBRACK", "]", 2, 18), ("PLUS", "+", 2, 19),
      ("IDENT", "lam", 2, 20), ("LBRACK", "[", 2, 23), ("IDENT", "I", 2, 24),
      ("RBRACK", "]", 2, 25), ("EOF", "", 2, 26)]),
    ("p^* (x) (I (+) 0)",
     [("IDENT", "p", 1, 1), ("STAR", "^*", 1, 2), ("TENSOR", "(x)", 1, 5),
      ("LPAREN", "(", 1, 9), ("IDENT", "I", 1, 10), ("OPLUS", "(+)", 1, 12),
      ("NUMBER", "0", 1, 16), ("RPAREN", ")", 1, 17), ("EOF", "", 1, 18)]),
]


@pytest.mark.parametrize("text, tokens", TOKENS)
def test_tokens(text, tokens):
    assert _tokens(text) == tokens
