"""Term language for arrows of the free dagger compact closed category
with biproducts, generated by a declared set of invertible generators.

Objects are formulas over a single letter p, the constants I and 0, dual,
tensor and direct sum.  Terms are built from the structural primitives with
dagger, tensor, direct sum, plus and composition, each carrying enough
object annotations to make typechecking syntax-directed.

Concrete grammar (ASCII): objects use postfix ``^*``, infix ``(x)`` and
``(+)``; terms use primitive names with bracketed object arguments, postfix
``!`` for dagger, infix ``(x)``, ``(+)``, ``+`` and ``.`` where ``f . g``
is f after g.  Binary operators associate to the left; precedence from
tightest to loosest is ``!``/``^*``, ``(x)``, ``(+)``, ``+``, ``.``.
Files declare generators first (``gens b1 b2;``) and then ``let`` and
``check`` statements, with ``#`` line comments.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, fields

from .freegroup import Alphabet, DEFAULT_ALPHABET


# ---------------------------------------------------------------------------
# hash-consing

# Live nodes by (class, *fields).  Held weakly: a node nobody references
# leaves the table, so a long-lived process does not keep dead terms.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """Base of the object formula and term nodes, which are hash-consed
    (Filliâtre and Conchon, "Type-safe modular hash-consing", 2006).

    Building a node returns the one live node of equal structure, so equal
    structure is one object: ``==`` and the hash are those of identity.
    Caches keyed by nodes therefore cost O(1) per lookup whatever the
    term's size, and so does the lookup of a new node's (class, *fields).
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *args):
        key = (cls, *args)
        node = _NODES.get(key)
        if node is None:
            names = cls.__match_args__
            if len(args) != len(names):
                raise TypeError(f"{cls.__name__} takes {len(names)} arguments, "
                                f"got {len(args)}")
            node = object.__new__(cls)
            for name, value in zip(names, args):
                object.__setattr__(node, name, value)
            _NODES[key] = node
        return node

    def __repr__(self):
        return f"<{type(self).__name__} {print_term(self)}>"

    def __reduce__(self):
        # A post-order table of the nodes below, node fields given as rows
        # (the others are strings): neither pickling nor unpickling recurses.
        row, table, stack = {}, [], [self]
        while stack:
            node = stack[-1]
            args = [getattr(node, name) for name in node.__match_args__]
            todo = [a for a in args if isinstance(a, _Node) and a not in row]
            if todo:
                stack += todo
            elif stack.pop() not in row:
                row[node] = len(table)
                table.append((type(node), *(row.get(a, a) for a in args)))
        return _unpickle, (table,)


def _unpickle(table):
    nodes = []
    for cls, *args in table:
        nodes.append(cls(*(nodes[a] if isinstance(a, int) else a for a in args)))
    return nodes[-1]


# Fields are set once, by _Node.__new__; eq=False keeps identity equality,
# and _Node's repr prints the node's text without recursing.
_node = dataclass(frozen=True, eq=False, init=False, repr=False, slots=True)


# ---------------------------------------------------------------------------
# object formulas


@_node
class ObjP(_Node):
    pass


@_node
class ObjI(_Node):
    pass


@_node
class ObjZero(_Node):
    pass


@_node
class Star(_Node):
    arg: "Obj"


@_node
class TensorO(_Node):
    left: "Obj"
    right: "Obj"


@_node
class OplusO(_Node):
    left: "Obj"
    right: "Obj"


Obj = ObjP | ObjI | ObjZero | Star | TensorO | OplusO

P = ObjP()
UNIT = ObjI()
NULL = ObjZero()


# ---------------------------------------------------------------------------
# terms


@_node
class Gen(_Node):
    name: str


@_node
class GenInv(_Node):
    name: str


@_node
class Id(_Node):
    obj: Obj


@_node
class Alpha(_Node):
    a: Obj
    b: Obj
    c: Obj


@_node
class AlphaInv(_Node):
    a: Obj
    b: Obj
    c: Obj


@_node
class Lam(_Node):
    a: Obj


@_node
class LamInv(_Node):
    a: Obj


@_node
class SigmaT(_Node):
    a: Obj
    b: Obj


@_node
class Eta(_Node):
    a: Obj


@_node
class Eps(_Node):
    a: Obj


@_node
class Pi1(_Node):
    a: Obj
    b: Obj


@_node
class Pi2(_Node):
    a: Obj
    b: Obj


@_node
class Iota1(_Node):
    a: Obj
    b: Obj


@_node
class Iota2(_Node):
    a: Obj
    b: Obj


@_node
class ZeroT(_Node):
    a: Obj
    b: Obj


@_node
class Dagger(_Node):
    body: "Term"


@_node
class Tens(_Node):
    left: "Term"
    right: "Term"


@_node
class Direct(_Node):
    left: "Term"
    right: "Term"


@_node
class Plus(_Node):
    left: "Term"
    right: "Term"


@_node
class Comp(_Node):
    after: "Term"
    before: "Term"


Term = (
    Gen | GenInv | Id | Alpha | AlphaInv | Lam | LamInv | SigmaT | Eta | Eps
    | Pi1 | Pi2 | Iota1 | Iota2 | ZeroT
    | Dagger | Tens | Direct | Plus | Comp
)


class TypeCheckError(Exception):
    pass


def typecheck(t: Term, alphabet: Alphabet = DEFAULT_ALPHABET,
              types: dict[Term, tuple[Obj, Obj]] | None = None) -> tuple[Obj, Obj]:
    """Source and target of a term, or TypeCheckError.

    ``types`` memoises the endpoints of every subterm, so a term with shared
    subterms is typed in time linear in its number of distinct nodes.  Pass
    the ``types`` of an `interp.EvalContext` for the same alphabet to keep
    them across calls.
    """
    if types is None:
        types = {}
    if t not in types:
        for node in subterms(t, types):
            types[node] = _node_type(node, alphabet, types)
    return types[t]


def _node_type(t: Term, alphabet: Alphabet,
               types: dict[Term, tuple[Obj, Obj]]) -> tuple[Obj, Obj]:
    """Endpoints of one node, given those of its immediate subterms."""
    match t:
        case Gen(name) | GenInv(name):
            if name not in alphabet.names:
                raise TypeCheckError(f"undeclared generator {name!r}")
            return (P, P)
        case Id(a):
            return (a, a)
        case Alpha(a, b, c):
            return (TensorO(a, TensorO(b, c)), TensorO(TensorO(a, b), c))
        case AlphaInv(a, b, c):
            return (TensorO(TensorO(a, b), c), TensorO(a, TensorO(b, c)))
        case Lam(a):
            return (TensorO(UNIT, a), a)
        case LamInv(a):
            return (a, TensorO(UNIT, a))
        case SigmaT(a, b):
            return (TensorO(a, b), TensorO(b, a))
        case Eta(a):
            return (UNIT, TensorO(Star(a), a))
        case Eps(a):
            return (TensorO(a, Star(a)), UNIT)
        case Pi1(a, b):
            return (OplusO(a, b), a)
        case Pi2(a, b):
            return (OplusO(a, b), b)
        case Iota1(a, b):
            return (a, OplusO(a, b))
        case Iota2(a, b):
            return (b, OplusO(a, b))
        case ZeroT(a, b):
            return (a, b)
        case Dagger(body):
            s, t2 = types[body]
            return (t2, s)
        case Tens(left, right):
            (ls, lt), (rs, rt) = types[left], types[right]
            return (TensorO(ls, rs), TensorO(lt, rt))
        case Direct(left, right):
            (ls, lt), (rs, rt) = types[left], types[right]
            return (OplusO(ls, rs), OplusO(lt, rt))
        case Plus(left, right):
            if types[left] != types[right]:
                raise TypeCheckError("summands must share source and target")
            return types[left]
        case Comp(after, before):
            (bs, bt), (as_, at) = types[before], types[after]
            if bt != as_:
                raise TypeCheckError(
                    f"composition mismatch: {print_obj(bt)} vs {print_obj(as_)}")
            return (bs, at)
    raise TypeCheckError(f"not a term: {t!r}")


# The fields holding the children of each inner node, in the reverse of
# the order `subterms` visits them: a composite's ``before`` comes ahead of
# its ``after``, in the order its arrows run, so `typecheck` reports the
# first error along a pipeline.
_CHILDREN = {Dagger: ("body",), Star: ("arg",), Comp: ("after", "before"),
             **{cls: ("right", "left") for cls in (Tens, Direct, Plus, TensorO, OplusO)}}


def subterms(root: Term | Obj, done=()) -> list[Term | Obj]:
    """The distinct subterms of a term, or subformulas of an object formula,
    each after its own, root last.  Nodes in ``done`` (a memo of earlier
    results) are left out, and so is everything reached only through them.

    Walks the DAG with an explicit stack, so depth is not bounded by the
    Python recursion limit.
    """
    order: list[Term | Obj] = []
    seen: set[Term | Obj] = set()
    stack: list[tuple[Term | Obj, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen or node in done:
            continue
        seen.add(node)
        stack.append((node, True))
        for name in _CHILDREN.get(type(node), ()):
            stack.append((getattr(node, name), False))
    return order


# ---------------------------------------------------------------------------
# dagger elimination


def eliminate_dagger(t: Term) -> Term:
    """Rewrite t to a dagger-free term denoting the same arrow.

    Daggers are pushed through the binary operations (reversing composition)
    and resolved on primitives: structural isomorphisms flip to their
    inverses, counits become swapped units and vice versa, projections and
    injections exchange, and generator daggers become generator inverses.
    Each node gets its dagger-free form and that of its dagger in one pass.
    """
    forms: dict[Term, tuple[Term, Term]] = {}
    for node in subterms(t):
        forms[node] = _dagger_forms(node, forms)
    return forms[t][0]


# The dagger of each primitive that is a primitive of the same arguments.
_PRIMITIVE_DAGGER = {Gen: GenInv, GenInv: Gen, Id: Id, Alpha: AlphaInv, AlphaInv: Alpha,
                     Lam: LamInv, LamInv: Lam, Pi1: Iota1, Pi2: Iota2, Iota1: Pi1,
                     Iota2: Pi2}


def _dagger_forms(t: Term, forms: dict[Term, tuple[Term, Term]]) -> tuple[Term, Term]:
    """Dagger-free forms of a node and of its dagger, given its children's."""
    match t:
        case Dagger(body):
            plain, daggered = forms[body]
            return (daggered, plain)
        case Comp(f, g):
            (pf, df), (pg, dg) = forms[f], forms[g]
            return (Comp(pf, pg), Comp(dg, df))
        case Tens(f, g) | Direct(f, g) | Plus(f, g):
            (pf, df), (pg, dg) = forms[f], forms[g]
            return (type(t)(pf, pg), type(t)(df, dg))
        case SigmaT(a, b):
            return (t, SigmaT(b, a))
        case ZeroT(a, b):
            return (t, ZeroT(b, a))
        case Eps(a):
            # eps_a dagger = sigma_{a*,a} o eta_a
            return (t, Comp(SigmaT(Star(a), a), Eta(a)))
        case Eta(a):
            # eta_a dagger = eps_a o sigma_{a*,a}
            return (t, Comp(Eps(a), SigmaT(Star(a), a)))
    if type(t) not in _PRIMITIVE_DAGGER:
        raise TypeCheckError(f"not a term: {t!r}")
    return (t, _PRIMITIVE_DAGGER[type(t)](*(getattr(t, f) for f in t.__match_args__)))


# ---------------------------------------------------------------------------
# lexer


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


Token = tuple[str, str, int, int]  # kind, text, line, column

_KEYWORDS = {"gens", "let", "check", "inv"}
_SYMBOLS = {"(x)": "TENSOR", "(+)": "OPLUS", "^*": "STAR", "==": "EQEQ", "=": "EQ",
            "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK", ",": "COMMA",
            ";": "SEMI", ".": "DOT", "+": "PLUS", "!": "BANG"}
# Whitespace, a comment, a symbol (longest first), a run of word characters
# (``\w`` is what ``str.isalnum`` or ``_`` accepts) or any one character.
_TOKEN = re.compile(r"[ \t\r\n]+|#[^\n]*|\(x\)|\(\+\)|\^\*|==|[=()\[\],;.+!]|\w+|.",
                    re.DOTALL)


def _lex(text: str) -> list[Token]:
    """Tokens of a source text, ending with EOF.

    An identifier starts with a character that is alphabetic (by
    ``str.isalpha``) or ``_``; a number is a run of digits (by
    ``str.isdigit``), which ends inside a word run at its first non-digit.
    """
    tokens: list[Token] = []
    pos, line, line_start = 0, 1, 0
    match = _TOKEN.match
    while pos < len(text):
        word = match(text, pos).group()
        first, col, end = word[0], pos - line_start + 1, pos + len(word)
        if first in " \t\r\n#":
            if "\n" in word:
                line += word.count("\n")
                line_start = pos + word.rindex("\n") + 1
        elif word in _SYMBOLS:
            tokens.append((_SYMBOLS[word], word, line, col))
        elif first.isalpha() or first == "_":
            tokens.append((word.upper() if word in _KEYWORDS else "IDENT", word, line, col))
        elif first.isdigit():
            end = pos + 1
            while end < pos + len(word) and text[end].isdigit():
                end += 1
            tokens.append(("NUMBER", text[pos:end], line, col))
        elif first == "^":
            raise ParseError("expected '^*'", line, col)
        else:
            raise ParseError(f"unexpected character {first!r}", line, col)
        pos = end
    tokens.append(("EOF", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# operators, printing and parsing

# Infix operators of each sort: token kind -> (precedence, constructor).  A
# higher precedence binds tighter and all associate to the left; the
# postfix operator of each sort (``^*``, ``!``) binds tighter than any.
_OBJ_INFIX = {"OPLUS": (0, OplusO), "TENSOR": (1, TensorO)}
_TERM_INFIX = {"DOT": (0, Comp), "PLUS": (1, Plus), "OPLUS": (2, Direct), "TENSOR": (3, Tens)}

_SYMBOL_OF = {kind: text for text, kind in _SYMBOLS.items()}
# Precedence and symbol of each operator node, for printing.
_OPERATORS = {cls: (prec, f" {_SYMBOL_OF[kind]} ")
              for table in (_OBJ_INFIX, _TERM_INFIX) for kind, (prec, cls) in table.items()}
_OPERATORS[Star] = (len(_OBJ_INFIX), "^*")
_OPERATORS[Dagger] = (len(_TERM_INFIX), "!")

# Keyword of each structural primitive.  The parser accepts every keyword;
# the printer writes the first one listed for a class.
_PRIM_BUILD = {
    "id": Id, "alpha": Alpha, "alpha_inv": AlphaInv, "alphainv": AlphaInv,
    "lam": Lam, "lam_inv": LamInv, "laminv": LamInv, "sigma": SigmaT,
    "eta": Eta, "eps": Eps, "pi1": Pi1, "pi2": Pi2, "iota1": Iota1,
    "iota2": Iota2, "zero": ZeroT,
}
_PRIM_ARITY = {word: len(fields(cls)) for word, cls in _PRIM_BUILD.items()}
_PRIM_NAMES = {cls: word for word, cls in reversed(_PRIM_BUILD.items())}
_OBJ_ATOMS = {("IDENT", "p"): P, ("IDENT", "I"): UNIT, ("NUMBER", "0"): NULL}
# Text of each atom, formatted with its fields.
_ATOM_TEXT = {Gen: "{}", GenInv: "inv({})",
              **{type(atom): text for (_, text), atom in _OBJ_ATOMS.items()}}


def print_term(t: Term | Obj) -> str:
    """Text of a term or an object formula, with the fewest parentheses that
    parse back to it: an operand is parenthesised when its operator has a
    lower precedence than its place needs, which is the precedence of the
    operator it is an operand of, one more on the right of an infix one.

    Writes the text in reading order from an explicit stack of nodes and
    pieces, so the stack does not grow with the nesting and the only text
    kept is the output.  (A fold of each subterm's text over `subterms`
    would keep 231 million characters for one 154,000-character term of
    depth 3,000.)
    """
    out: list[str] = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, least = item
        cls = type(node)
        args = [getattr(node, name) for name in cls.__match_args__]
        if cls in _OPERATORS:
            prec, symbol = _OPERATORS[cls]
            pieces = [(args[0], prec), symbol] + [(right, prec + 1) for right in args[1:]]
            if prec < least:
                pieces = ["(", *pieces, ")"]
        elif cls in _PRIM_NAMES:
            pieces = [_PRIM_NAMES[cls] + "[", (args[0], 0)]
            for arg in args[1:]:
                pieces += [", ", (arg, 0)]
            pieces.append("]")
        else:
            pieces = [_ATOM_TEXT[cls].format(*args)]
        stack.extend(reversed(pieces))
    return "".join(out)


print_obj = print_term


@dataclass
class CheckStmt:
    left: Term
    right: Term
    line: int


@dataclass
class Document:
    alphabet: Alphabet
    lets: dict[str, Term]
    checks: list[CheckStmt]


class _Parser:
    def __init__(self, tokens: list[Token], alphabet: Alphabet | None = None,
                 lets: dict[str, Term] | None = None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.lets = dict(lets or {})

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2], tok[3])
        self.pos += 1
        return tok

    def expression(self, infix: dict, postfix: tuple[str, type], operand):
        """An object formula or term: operands read by ``operand``, joined
        by the operators of ``infix`` and ``postfix`` and grouped by
        parentheses.  Operator precedence parsing (shunting-yard) over
        explicit stacks, so nesting is not bounded by the recursion limit.
        """
        tokens = self.tokens
        values: list = []
        pending: list = []  # (precedence, constructor) of operators, None for "("
        opened = 0
        while True:
            while tokens[self.pos][0] == "LPAREN":
                self.pos += 1
                pending.append(None)
                opened += 1
            values.append(operand())
            while True:
                kind = tokens[self.pos][0]
                if kind == postfix[0]:
                    values[-1] = postfix[1](values[-1])
                elif kind == "RPAREN" and opened:
                    _reduce(values, pending, 0)
                    pending.pop()
                    opened -= 1
                else:
                    break
                self.pos += 1
            op = infix.get(kind)
            if op is None:
                if opened:
                    self.expect("RPAREN")
                _reduce(values, pending, 0)
                return values[0]
            _reduce(values, pending, op[0])
            pending.append(op)
            self.pos += 1

    def obj(self) -> Obj:
        return self.expression(_OBJ_INFIX, ("STAR", Star), self.obj_atom)

    def obj_atom(self) -> Obj:
        tok = self.next()
        atom = _OBJ_ATOMS.get(tok[:2])
        if atom is None:
            raise ParseError(f"expected an object, found {tok[1]!r}", tok[2], tok[3])
        return atom

    def term(self) -> Term:
        return self.expression(_TERM_INFIX, ("BANG", Dagger), self.term_atom)

    def term_atom(self) -> Term:
        tok = self.next()
        kind, word = tok[0], tok[1]
        if kind == "INV":
            self.expect("LPAREN")
            name = self.expect("IDENT")
            self.expect("RPAREN")
            if self.alphabet is None or name[1] not in self.alphabet.names:
                raise ParseError(f"undeclared generator {name[1]!r}", name[2], name[3])
            return GenInv(name[1])
        if kind != "IDENT":
            raise ParseError(f"expected a term, found {word!r}", tok[2], tok[3])
        if word in _PRIM_ARITY:
            self.expect("LBRACK")
            args = [self.obj()]
            for _ in range(_PRIM_ARITY[word] - 1):
                self.expect("COMMA")
                args.append(self.obj())
            self.expect("RBRACK")
            return _PRIM_BUILD[word](*args)
        if word in self.lets:
            return self.lets[word]
        if self.alphabet is not None and word in self.alphabet.names:
            return Gen(word)
        raise ParseError(f"unknown name {word!r}", tok[2], tok[3])

    # statements

    def document(self) -> Document:
        self.expect("GENS")
        names = []
        while self.tokens[self.pos][0] == "IDENT":
            _, name, line, col = self.next()
            # ``x`` lexes as the tensor in ``inv(x)``, and a primitive's
            # name always parses as the primitive.
            if name == "x" or name in _PRIM_ARITY:
                raise ParseError(f"{name!r} cannot name a generator", line, col)
            names.append(name)
        self.expect("SEMI")
        self.alphabet = Alphabet(tuple(names))
        checks: list[CheckStmt] = []
        while self.tokens[self.pos][0] != "EOF":
            kind, _, line, col = self.next()
            if kind == "LET":
                _, name, line, col = self.expect("IDENT")
                if name in _PRIM_ARITY or name in self.lets or name in self.alphabet.names:
                    raise ParseError(f"name {name!r} already in use", line, col)
                self.expect("EQ")
                body = self.term()
                self.expect("SEMI")
                self.lets[name] = body
            elif kind == "CHECK":
                left = self.term()
                self.expect("EQEQ")
                right = self.term()
                self.expect("SEMI")
                checks.append(CheckStmt(left, right, line))
            else:
                raise ParseError("expected 'let' or 'check'", line, col)
        return Document(self.alphabet, self.lets, checks)


def _reduce(values: list, pending: list, least: int) -> None:
    """Apply the pending infix operators of precedence ``least`` or more,
    down to the innermost open parenthesis, to the operands they join."""
    while pending and pending[-1] is not None and pending[-1][0] >= least:
        _, build = pending.pop()
        right = values.pop()
        values[-1] = build(values[-1], right)


def parse_document(text: str) -> Document:
    return _Parser(_lex(text)).document()


def parse_term(text: str, alphabet: Alphabet = DEFAULT_ALPHABET,
               lets: dict[str, Term] | None = None) -> Term:
    parser = _Parser(_lex(text), alphabet, lets)
    term = parser.term()
    parser.expect("EOF")
    return term


def parse_obj(text: str) -> Obj:
    parser = _Parser(_lex(text))
    obj = parser.obj()
    parser.expect("EOF")
    return obj
